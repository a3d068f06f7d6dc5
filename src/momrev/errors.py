"""Exception hierarchy shared by all momrev modules."""


class MomrevError(Exception):
    """Base class for all momrev errors."""


class ShapeError(MomrevError):
    """Tensor shapes are incompatible with the requested operation."""


class ConfigError(MomrevError):
    """A descriptor or run configuration is invalid."""


class DataError(MomrevError):
    """Dataset contents violate a documented contract."""


class NumericError(MomrevError):
    """A computation produced (or was handed) non-finite values."""


class StateError(MomrevError):
    """Backward called without a matching pending forward."""

import numpy as np
import pytest

from momrev.errors import NumericError
from momrev.layers import Param
from momrev.optim import Adam, EarlyStopper


def make_param(values):
    return Param("p", np.array(values, dtype=np.float64))


def test_first_step_unit_gradient():
    p = make_param([1.0, 1.0])
    opt = Adam([p], lr=0.01)
    p.grad[...] = 1.0
    opt.step()
    # bias correction makes m_hat = g, v_hat = g^2, so the step is ~ -lr
    assert p.value == pytest.approx([1.0 - 0.01 / (1.0 + 1e-8)] * 2, rel=1e-12)


def test_zero_gradient_leaves_parameters():
    p = make_param([2.0, -3.0])
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.value, np.array([2.0, -3.0]))


def test_decoupled_decay_isolated():
    p = make_param([2.0, -4.0])
    before = p.value.copy()
    opt = Adam([p], lr=0.1, weight_decay=0.5)
    opt.step()
    assert p.value == pytest.approx(before - 0.1 * 0.5 * before, rel=1e-12)


def test_nonfinite_gradient_refused():
    p = make_param([1.0])
    opt = Adam([p], lr=0.1)
    p.grad[...] = np.nan
    with pytest.raises(NumericError):
        opt.step()
    assert p.value[0] == 1.0 and opt.t == 0


def test_quadratic_convergence():
    # f(theta) = 0.5*(theta0-3)^2 + 2*(theta1+1)^2
    p = make_param([0.0, 0.0])
    opt = Adam([p], lr=1e-2)
    for _ in range(2000):
        p.grad[...] = [p.value[0] - 3.0, 4.0 * (p.value[1] + 1.0)]
        loss = 0.5 * (p.value[0] - 3.0) ** 2 + 2.0 * (p.value[1] + 1.0) ** 2
        opt.step()
    assert loss < 1e-6


def test_bitwise_repeatability():
    results = []
    for _ in range(2):
        p = make_param([0.3, -0.7])
        opt = Adam([p], lr=3e-3, weight_decay=1e-4)
        for k in range(50):
            p.grad[...] = [np.sin(k * 0.1), np.cos(k * 0.2)]
            opt.step()
        results.append(p.value.copy())
    assert np.array_equal(results[0], results[1])


# early stopping


def test_patience_counting():
    s = EarlyStopper(patience=2)
    decisions = [s.update(m) for m in [1.0, 0.9, 0.95, 0.99]]
    assert decisions == [False, False, False, True]


def test_monotone_improvement_never_stops():
    s = EarlyStopper(patience=0)
    assert not any(s.update(1.0 / (k + 1)) for k in range(50))


def test_patience_zero_stops_on_first_plateau():
    s = EarlyStopper(patience=0)
    assert not s.update(1.0)
    assert s.update(1.0)


def test_is_best_flag():
    s = EarlyStopper(patience=5)
    s.update(1.0)
    assert s.is_best
    s.update(2.0)
    assert not s.is_best

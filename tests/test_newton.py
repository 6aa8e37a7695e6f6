import numpy as np

from smoothcure.newton import damped_newton


def test_nan_trial_step_is_never_accepted():
    # The concave objective -(x - 3)^2 is undefined (NaN) from x = 1 on, so
    # the full Newton step from 0 lands on a NaN; only finite ascents count.
    def objective(x):
        return float(-((x[0] - 3.0) ** 2)) if x[0] < 1.0 else float("nan")

    iterates = []

    def derivatives(x):
        iterates.append(x[0])
        return np.array([-2.0 * (x[0] - 3.0)]), lambda: np.array([[2.0]])

    res = damped_newton(objective, derivatives, np.zeros(1), tol=1e-10, max_iter=20)
    assert not res.converged
    assert np.isfinite(res.value) and res.value == objective(res.x)
    assert all(x < 1.0 for x in iterates) and 0.0 < res.x[0] < 1.0
    assert np.all(np.diff(iterates) > 0.0)


def test_nan_direction_keeps_the_last_finite_state():
    def objective(x):
        return float(-(x[0] ** 2))

    def derivatives(x):
        return np.array([-2.0 * x[0]]), lambda: np.array([[np.nan]])

    res = damped_newton(objective, derivatives, np.array([2.0]), tol=1e-10, max_iter=20)
    assert not res.converged
    assert res.x[0] == 2.0 and res.value == -4.0 and res.iterations == 1

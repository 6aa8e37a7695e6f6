import numpy as np
import pytest

from smoothcure import CovariateMeta, SurvivalDataset

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def build_dataset(y, delta, x_cols=None, z_cols=None, discrete=None, names=None):
    """Assemble a dataset from plain lists; x_cols excludes the intercept."""
    y = np.asarray(y, dtype=float)
    n = y.size
    x_cols = np.empty((n, 0)) if x_cols is None else np.column_stack(x_cols)
    z_cols = np.empty((n, 0)) if z_cols is None else np.column_stack(z_cols)
    k = x_cols.shape[1]
    meta = CovariateMeta(
        names=tuple(names) if names else tuple(f"x{j+1}" for j in range(k)),
        discrete=tuple(discrete) if discrete is not None else (False,) * k,
    )
    x = np.column_stack([np.ones(n), x_cols])
    z_names = tuple(f"z{j+1}" for j in range(z_cols.shape[1]))
    return SurvivalDataset(y, np.asarray(delta, dtype=int), x, z_cols, meta, z_names=z_names)


def random_dataset(rng, n=20, q=1, discrete=False):
    """Small random survival dataset with one x covariate and q z covariates."""
    y = rng.exponential(1.0, n).round(3)
    delta = (rng.random(n) < 0.7).astype(int)
    if not delta.any():
        delta[int(rng.integers(n))] = 1
    xcol = rng.integers(0, 2, n).astype(float) if discrete else rng.normal(0.0, 1.0, n)
    z = rng.normal(0.0, 1.0, (n, q))
    return build_dataset(y, delta, x_cols=[xcol], z_cols=[z[:, j] for j in range(q)],
                         discrete=[discrete])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def hostile_kernel_cases(rng):
    """(name, dataset, bandwidth values) for checking kernel paths against direct formulas.

    Each bandwidth value is used for every continuous covariate.  The
    ``empty-neighborhoods`` case has tight clusters far apart plus one
    isolated subject, so at its small bandwidths some leave-one-out Gaussian
    neighborhoods carry exactly zero mass while the others stay well above
    underflow.  The ``cell-split`` case has a discrete covariate whose cells
    are scored apart: one cell holds a single subject (no leave-one-out
    mass), one holds no event, and follow-up times tie across cells, so some
    subjects' tie groups start at a subject of another cell.
    """
    cases = []
    n = 40
    delta = (rng.random(n) < 0.6).astype(int)
    delta[0] = 1
    cases.append((
        "heavy-ties",
        build_dataset(rng.integers(1, 4, n).astype(float), delta, x_cols=[rng.normal(size=n)]),
        (0.2, 0.7, 3.0),
    ))
    n = 25
    y = rng.exponential(2.0, n).round(2)
    delta = np.zeros(n, dtype=int)
    y[:6] = 2.0
    delta[:3] = 1
    cases.append((
        "single-event-time",
        build_dataset(y, delta, x_cols=[rng.normal(size=n)]),
        (0.2, 0.7, 3.0),
    ))
    n = 50
    delta = (rng.random(n) < 0.7).astype(int)
    delta[0] = 1
    cases.append((
        "discrete",
        build_dataset(
            rng.exponential(1.0, n).round(1), delta,
            x_cols=[rng.normal(size=n), rng.integers(0, 3, n).astype(float),
                    rng.normal(size=n), rng.integers(0, 2, n).astype(float)],
            discrete=[False, True, False, True],
        ),
        (0.3, 1.0, 4.0),
    ))
    n = 30
    delta = (rng.random(n) < 0.7).astype(int)
    delta[0] = 1
    base = build_dataset(rng.exponential(1.0, n).round(1), delta, x_cols=[rng.normal(size=n)])
    cases.append(("bootstrap-resample", base.take(rng.integers(0, n, n)), (0.1, 0.5, 2.0)))
    centers = np.repeat([0.0, 5.0, 10.0], 8)
    x = np.append(centers + rng.uniform(-0.01, 0.01, centers.size), 20.0)
    n = x.size
    delta = (rng.random(n) < 0.7).astype(int)
    delta[0] = 1
    cases.append((
        "empty-neighborhoods",
        build_dataset(rng.exponential(1.0, n), delta, x_cols=[x]),
        (0.005, 0.01),
    ))
    n = 30
    level = np.repeat([0.0, 1.0, 2.0, 3.0], [13, 9, 1, 7])
    y = rng.exponential(1.0, n).round(2)
    delta = (rng.random(n) < 0.7).astype(int)
    delta[level == 1.0] = 0
    delta[0] = 1
    # An event of cell 0 ties with subjects of cells 1 and 3; the tie group
    # starts at the event (events sort first within a tie).
    y[[0, 13, 14, 23]] = y[0]
    # Censored subjects of cells 1, 2 and 3 tie at one time.
    y[[15, 22, 24]] = 1.5
    delta[[15, 22, 24]] = 0
    cases.append((
        "cell-split",
        build_dataset(y, delta, x_cols=[rng.normal(size=n), level], discrete=[False, True]),
        (0.3, 1.0, 4.0),
    ))
    return cases

"""The registry as an answer key: every scenario's fit by both methods
matches ``registry_fits.json``, which ``write_registry_fits.py`` writes.

Flags, iteration counts and bandwidths must match exactly; coefficients and
the log-likelihood within 1e-12 (1 + |ref|), which leaves room for a
different BLAS or numpy build and none for a changed estimator.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from smoothcure.pipeline import METHODS

from write_registry_fits import KEY_PATH, fit_record

KEY = json.loads(KEY_PATH.read_text(encoding="utf-8"))
RTOL = 1e-12


def _floats(value):
    return np.array([float.fromhex(h) for h in ([value] if isinstance(value, str) else value)])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("key", sorted(KEY["fits"]))
def test_registry_fit_matches_the_key(key, method):
    ref, got = KEY["fits"][key][method], fit_record(key, method)
    assert (got["converged"], got["iterations"], got["bandwidth"]) == (
        ref["converged"], ref["iterations"], ref["bandwidth"]
    )
    for field in ("gamma", "beta", "loglik"):
        want, have = _floats(ref[field]), _floats(got[field])
        assert have.shape == want.shape
        assert np.all(np.abs(have - want) <= RTOL * (1.0 + np.abs(want))), (field, have, want)

"""Write ``registry_fits.json``, the answer key of ``test_registry_fits.py``.

Fits every registry scenario (default n, replication 0, the default seed)
with both methods at their default options, and records each fit's
bandwidth, gamma, beta, loglik, iterations and converged flag; floats are
stored as ``float.hex`` so the key holds the exact bits.  The numpy version
and BLAS of the writing machine go in the header.

Run it only to move the key on purpose, and state the largest move per
field when you do:

    PYTHONPATH=src python tests/write_registry_fits.py
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from smoothcure import generate, make_scenario
from smoothcure.pipeline import METHODS, fit_cure_model
from smoothcure.simulate import DEFAULT_SEED, SCENARIOS

KEY_PATH = Path(__file__).with_name("registry_fits.json")


def fit_record(key: str, method: str) -> dict:
    """One entry of the key: the fit of ``key``'s replication 0 by ``method``."""
    fit = fit_cure_model(generate(make_scenario(key), DEFAULT_SEED, 0), method)
    return {
        "bandwidth": None if fit.bandwidth is None else [float(h).hex() for h in fit.bandwidth],
        "gamma": [float(v).hex() for v in fit.gamma],
        "beta": [float(v).hex() for v in fit.beta],
        "loglik": float(fit.loglik).hex(),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
    }


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    key = {
        "seed": DEFAULT_SEED,
        "replication": 0,
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "fits": {key: {method: fit_record(key, method) for method in METHODS} for key in sorted(SCENARIOS)},
    }
    KEY_PATH.write_text(json.dumps(key, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Smoke test of the benchmark itself, at toy sizes, in well under a minute.

    python3 perfbench/smoke_test.py

Runs every workload shrunk by its ``toy()`` variant, untraced and traced,
and asserts that each metric named in BENCHMARK.json is emitted with its
unit, that outputs pass their checks against a reference recorded on the
spot, and that the reference and invariant checks (EM monotonicity
included) catch a wrong value.
"""

import copy
import json
import math

from run import DEFAULT_SEED, HERE, WORKLOADS, check_records, import_smoothcure, run_calls, run_workload
from spans import LOGLIK_DROP_TOL

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def toy_reference(toy) -> dict:
    calls = []
    for j in range(toy.inputs):
        args = toy.prepare(DEFAULT_SEED, j)
        calls.append(toy.reference(args, toy.call(args)))
    return {"calls": calls}


def spoil(value):
    """A wrong value of the same shape: flips flags, shifts numbers."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list):
        return [spoil(value[0])] + value[1:]
    return {k: spoil(v) for k, v in value.items()}


def check_workload(workload) -> None:
    toy = workload.toy()
    reference = toy_reference(toy)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run_workload(toy, DEFAULT_SEED, 0.5, trace, reference)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected(kind), (workload.name, kind, units)
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values()), result

    records = run_calls(toy, DEFAULT_SEED, 0.0)
    assert check_records(toy, records, reference) == (0, 0)
    # Every exactly-compared key of the reference must be able to fail a call.
    for key, value in reference["calls"][records[0].j].items():
        if key in ("estimates", "rep_converged"):
            continue
        wrong = copy.deepcopy(reference)
        wrong["calls"][records[0].j][key] = spoil(value)
        assert check_records(toy, run_calls(toy, DEFAULT_SEED, 0.0), wrong) == (1, 1), (workload.name, key)
    # A non-finite coefficient fails the invariants at any seed.
    summary = copy.deepcopy(records[0].summary)
    coefs = summary.get("gamma") or summary.get("point") or summary["estimates"][0]
    coefs[0] = math.nan
    assert toy.check(summary, None, records[0].args), workload.name
    # A falling EM log-likelihood fails the invariants away from the default seed.
    if "loglik_falls" in summary:
        summary = copy.deepcopy(records[0].summary)
        summary["loglik_falls"] = [0.0] * len(summary["loglik_falls"])
        assert not toy.check(summary, None, records[0].args), workload.name
        summary["loglik_falls"][0] = 10 * LOGLIK_DROP_TOL
        assert toy.check(summary, None, records[0].args), workload.name


def main() -> None:
    import_smoothcure()
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS.values():
        check_workload(workload)
        print(f"ok {workload.name}")


if __name__ == "__main__":
    main()

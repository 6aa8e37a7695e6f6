"""Record the reference outputs that ``run.py`` checks at the default seed.

    python3 perfbench/record_reference.py

For every call input of every workload this stores what the current
program returns: selected bandwidths, convergence flags, coefficients,
bootstrap failures and standard errors, and study non-convergence counts
with per-replication flags.  Re-record only when a change is meant to alter
those outputs, and say so with the change.
"""

import json
import sys

from run import DEFAULT_SEED, REFERENCE, WORKLOADS, import_smoothcure


def record(workload) -> dict:
    calls = []
    for j in range(workload.inputs):
        args = workload.prepare(DEFAULT_SEED, j)
        calls.append(workload.reference(args, workload.call(args)))
    return {"params": workload.describe(DEFAULT_SEED), "calls": calls}


def main() -> None:
    import_smoothcure()
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        print(f"recording {name}", file=sys.stderr)
        data["workloads"][name] = record(workload)
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

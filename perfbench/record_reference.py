"""Record reference.json: the output of every well-formed op the workloads
can emit, as produced by the current carmsim sources.

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

Each output is first checked against the ground truth in ``checks``; an op
that fails it is not recorded and the script exits 1.  Recording a subset
of workloads keeps the entries of the others that their pools still hold.
"""

from __future__ import annotations

import json
import sys

import carmsim
from carmsim import cli

import checks
import workloads
from worker import run_op


def record(workload: str, ops: dict) -> list[str]:
    candidates = workloads.all_wellformed_ops(workload)
    ks = {op["key"][1] for op in candidates if op["kind"] == "certify"}
    oracle, errors = checks.certify_oracle(carmsim, ks)
    for op in candidates:
        rc, stdout, _ = run_op(cli, op["argv"])
        key = " ".join(op["argv"])
        if rc != 0:
            errors.append(f"{key}: exit {rc}")
            continue
        summary = checks.summarize(json.loads(stdout))
        errs = checks.check_op(op, stdout, {key: summary}, oracle)
        if errs:
            errors += errs
            continue
        ops[key] = summary
        print(key, flush=True)
    return errors


def main(names: list[str]) -> int:
    names = names or list(workloads.WORKLOADS)
    kept = {" ".join(op["argv"]) for w in workloads.WORKLOADS if w not in names
            for op in workloads.all_wellformed_ops(w)}
    try:
        ops = {k: v for k, v in checks.load_reference()["ops"].items() if k in kept}
    except FileNotFoundError:
        ops = {}
    errors = []
    for workload in names:
        errors += record(workload, ops)
    checks.REFERENCE.write_text(json.dumps({"ops": dict(sorted(ops.items()))}, indent=0) + "\n")
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""carmsim benchmark: seeded CLI workloads, timed end to end and per module.

    python3 perfbench/run.py --workload certify|count|sweep --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; carmsim is imported from ``src/``.  Each
run spawns fresh processes:

* set-up probes: ``SETUP_PROBES`` processes that each import carmsim and do
  the workload's warm-up op; ``setup_s`` is their median;
* ``--trace 0``: one untraced worker that runs the seeded rounds (about
  ``--seconds`` of work) and reports the end-to-end metrics;
* ``--trace 1``: an untraced and a traced worker on the same rounds (each
  about half of ``--seconds``), which give the per-layer metrics and
  ``trace.overhead_frac``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a correctness check
fails, and 2 when the checkout holds no carmsim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 9
#: every run ends within this many seconds or fails
RUN_LIMIT_S = 170.0

#: (name, unit, better, bound) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("ok_frac", "ratio", "higher", 0.05),
)

#: layers each workload must record at least one span in (traced run)
EXPECTED_LAYERS = {
    "certify": (*tracer.QSIM_SPANS, "carmichael.certify", "carmichael.ancilla_distribution",
                "carmichael.fermat_failure_mask", "cli.main"),
    "count": (*tracer.QSIM_SPANS, "counting.run_count", "counting.count_distribution_dense",
              "numtheory.enumerate_carmichaels", "numtheory.sieve", "cli.main"),
    "sweep": ("carmichael.perturbation_bounds", "numtheory.factorize",
              "numtheory.enumerate_carmichaels", "numtheory.sieve", "cli.main"),
}


class BenchError(RuntimeError):
    """A benchmark process failed or ran out of time."""


def _child_env() -> dict:
    env = dict(os.environ)
    # one client, one thread: OpenBLAS would otherwise start a spinning
    # thread per core, which doubles CPU time and spreads the timings
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, deadline: float) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        probe = _spawn(["setup", workload, repr(time.monotonic())], deadline)
        if probe["rc"] != 0:
            raise BenchError(f"warm-up op of {workload} exited {probe['rc']}")
        times.append(probe["setup_s"])
    return statistics.median(times)


def run_worker(workload: str, seed: int, rounds: int, trace: bool, deadline: float) -> dict:
    spans = ROOT / ".perfbench" / f"spans-{workload}-{seed}.npz"
    return _spawn(["run", workload, str(seed), str(rounds), "1" if trace else "0", str(spans)], deadline)


def self_check(workload: str, traced: dict) -> tuple[list[str], list[str]]:
    """(errors, warnings) of the benchmark's own invariants."""
    errors = [f"law input shared by two ops: {k}" for k in traced["shared_law_inputs"]]
    seen = set(traced["layers_seen"])
    if workload == "sweep":
        errors += [f"sweep recorded a qsim span: {n}" for n in sorted(seen) if n.startswith("qsim.")]
    # a later change may remove a layer on purpose, so a missing one is reported, not fatal
    warnings = [f"layer {n} recorded no span on {workload}"
                for n in EXPECTED_LAYERS[workload] if n not in seen]
    return errors, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "carmsim" / "cli.py").is_file():
        print(f"no carmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            rounds = workloads.rounds_for(args.workload, args.seconds / 2)
            plain = run_worker(args.workload, args.seed, rounds, False, deadline)
            traced = run_worker(args.workload, args.seed, rounds, True, deadline)
            errors, warnings = self_check(args.workload, traced)
            errors += plain["errors"] + traced["errors"]
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            result = traced
        else:
            setup_s = measure_setup(args.workload, deadline)
            result = run_worker(args.workload, args.seed, workloads.rounds_for(args.workload, args.seconds),
                                False, deadline)
            errors, warnings = list(result["errors"]), []
            metrics = {name: result[name] for name in ("wall_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb")}
            metrics["setup_s"] = setup_s
            metrics["ok_frac"] = (result["attempted"] - result["failed"]) / result["attempted"]
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for line in warnings:
        print(f"self-check warning: {line}", file=sys.stderr)
    for line in errors:
        print(f"incorrect: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

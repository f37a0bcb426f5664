"""One fresh benchmark process: a set-up probe, or a timed run of a workload.

    python3 perfbench/worker.py setup <workload> <spawn_monotonic>
    python3 perfbench/worker.py run <workload> <seed> <rounds> <trace 0|1> <spans file>

Both print one JSON line.  ``setup`` reports the seconds from its spawn
(``time.monotonic`` is one clock for every process) until carmsim is
imported and the workload's warm-up op is done.  ``run`` does the warm-up,
then runs the seeded rounds through ``carmsim.cli.main`` in a closed loop
with one client, and checks every op after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads


def run_op(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), time.perf_counter() - t0


def setup(workload: str, spawned: float) -> dict:
    from carmsim import cli

    rc, _, _ = run_op(cli, workloads.WARMUP[workload])
    return {"setup_s": time.monotonic() - spawned, "rc": rc}


def run(workload: str, seed: int, rounds: int, trace: bool, spans_path: str) -> dict:
    import carmsim
    from carmsim import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(carmsim)
    run_op(cli, workloads.WARMUP[workload])

    op_rounds = workloads.build_rounds(workload, seed, rounds)
    if tracer is not None:
        tracer.reset()
    results = []
    t0 = time.perf_counter()
    for op in (op for ops in op_rounds for op in ops):
        if tracer is not None:
            tracer.op = len(results)
        rc, stdout, seconds = run_op(cli, op["argv"])
        results.append((op, rc, stdout, seconds))
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    # ---- outside the timed region: failures, correctness, oracles
    errors: list[str] = []
    failed = 0
    certify_ks = {int(op["argv"][1]) for op, rc, _, _ in results if op["kind"] == "certify" and rc == 0}
    oracle, oracle_errs = checks.certify_oracle(carmsim, certify_ks)
    errors += oracle_errs
    reference = checks.load_reference()["ops"]
    for op, rc, stdout, _ in results:
        if rc != op["expect_exit"]:
            failed += 1
        elif op["wellformed"]:
            errors += checks.check_op(op, stdout, reference, oracle)
        elif stdout:
            errors.append(f"{' '.join(op['argv'])}: rejected op wrote output")

    latencies = sorted(s for op, _, _, s in results if op["wellformed"])
    out = {
        "attempted": len(results),
        "failed": failed,
        "errors": errors,
        # time to finish the whole op list: it spans the run, so host
        # bursts average out, and every run carries the same special inputs
        "wall_s": wall_s,
        "op_ms_p50": 1000 * statistics.median(latencies),
        # the op with 10 well-formed ops slower than it
        "op_ms_tail": 1000 * latencies[max(0, len(latencies) - 11)],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        output_bytes = sum(len(stdout.encode()) for _, _, stdout, _ in results)
        out["per_layer"] = tracer.per_layer(output_bytes)
        out["layers_seen"] = sorted(tracer.layers_seen())
        out["shared_law_inputs"] = [list(k) for k in tracer.shared_law_inputs()]
        tracer.write(Path(spans_path))
    return out


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        print(json.dumps(setup(argv[1], float(argv[2]))))
    else:
        workload, seed, rounds, trace, spans = argv[1:6]
        print(json.dumps(run(workload, int(seed), int(rounds), trace == "1", spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

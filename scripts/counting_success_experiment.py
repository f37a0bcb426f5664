#!/usr/bin/env python3
"""Success rate of the Carmichael counting pipeline as the counter grows.

For each Q the pipeline runs `reps` seeded trials; a trial succeeds when
its estimate lands within the peak-outcome error bound of the enumerated
truth.  The four-peak floor 8/pi^2 = 0.8106 should be cleared whenever the
peak sits inside the ansatz window.  Output is CSV on stdout.
"""

import argparse
import math
import sys

from carmsim import carmichael, cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=10**4)
    parser.add_argument("--Q", dest="q_values", type=int, nargs="+", default=[32, 64, 128, 256])
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rows = []
    for q in args.q_values:
        result = carmichael.count_carmichaels_quantum(args.N, q, seed=args.seed, reps=args.reps)
        peak = result.peak_probability
        rows.append([args.N, q, result.exact_count, result.success_fraction(),
                     result.error_bound, peak.value, peak.in_ansatz])
    header = ["N", "Q", "t_N", "success_fraction", "error_bound", "peak_probability", "in_ansatz"]
    table = cli.render("csv", cli.Record(table=lambda: (header, rows)))
    return cli.write(table + f"# four-peak floor 8/pi^2 = {8 / math.pi ** 2}\n")


if __name__ == "__main__":
    sys.exit(main())

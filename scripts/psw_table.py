#!/usr/bin/env python3
"""Density-envelope comparison table over a range of N.

Each row runs the counting pipeline at the policy counter size and prints
the measured accuracy next to the conjectured envelopes (unit constants).
At these N the asymptotics have not set in; the table is for inspection.
"""

import argparse
import sys

from carmsim import carmichael, cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", dest="n_values", type=int, nargs="+",
                        default=[10**3, 3 * 10**3, 10**4, 3 * 10**4])
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    rows = []
    for n in args.n_values:
        report = carmichael.psw_report(
            n, args.epsilon, args.delta, seed=args.seed, reps=args.reps
        )
        rows.append([*report.to_csv_row(), report.meets_target])
    header = [*carmichael.PswReport.CSV_HEADER, "meets_target"]
    return cli.write(cli.render("csv", cli.Record(table=lambda: (header, rows))))


if __name__ == "__main__":
    sys.exit(main())

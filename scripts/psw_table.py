#!/usr/bin/env python3
"""Density-envelope comparison table over a range of N.

Each row runs the counting pipeline at the policy counter size and prints
the measured accuracy next to the conjectured envelopes (unit constants).
At these N the asymptotics have not set in; the table is for inspection.
The last three columns tabulate the Pomerance-Selfridge-Wagstaff exponent
e(N) = ln(N/C(N))/ln l(N): e_exact from the exact count t_N, e_est from the
median estimate t_tilde, and e_err = dt_exp/(t_N ln l(N)), the error the
estimate's bound dt_exp puts on e(N).  A zero count gives inf.  The default
rows are the decades 10^3..10^9; --N 10000000000 adds the next one.
"""

import argparse
import math
import sys

from carmsim import carmichael, cli, numtheory


def psw_exponent(n: int, count: float) -> float:
    """e(N) = ln(N/count)/ln l(N); inf when the count is 0."""
    return math.log(n / count) / math.log(numtheory.psw_scale(n)) if count > 0 else math.inf


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", dest="n_values", type=int, nargs="+",
                        default=[10**j for j in range(3, 10)])
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    def table() -> str:
        rows = []
        for n in args.n_values:
            report = carmichael.psw_report(
                n, args.epsilon, args.delta, seed=args.seed, reps=args.reps
            )
            ln_scale = math.log(numtheory.psw_scale(n))
            e_err = report.dt_exp / (report.t_n * ln_scale) if report.t_n > 0 else math.inf
            rows.append([*report.to_csv_row(), report.meets_target,
                         psw_exponent(n, report.t_n), psw_exponent(n, report.t_tilde), e_err])
        header = [*carmichael.PswReport.CSV_HEADER, "meets_target", "e_exact", "e_est", "e_err"]
        return cli.render("csv", cli.Record(table=lambda: [cli.csv_line(row) for row in [header, *rows]]))

    return cli.run(table)


if __name__ == "__main__":
    sys.exit(main())

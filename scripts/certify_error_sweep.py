#!/usr/bin/env python3
"""Sweep the certification leakage over (k, P, R).

For each non-Carmichael composite k the exact all-zeros probability is
compared against the kernel prediction alpha^(2R) and the gap-based worst
case reported in sampling mode.  Output is CSV on stdout.
"""

import argparse
import sys

from carmsim import carmichael, cli, counting, numtheory, qsim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=120)
    parser.add_argument("--P", dest="p_values", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--R", dest="r_values", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()

    def table() -> str:
        rows = []
        for k in range(4, args.kmax + 1):
            facts = numtheory.number_facts(k)
            if facts.classification is not numtheory.Classification.COMPOSITE_NON_CARMICHAEL:
                continue
            phi, t = facts.phi, facts.t_k
            for p in args.p_values:
                alpha = counting.dirichlet_kernel(counting.peak_position(k, t, p), p)
                for r in args.r_values:
                    allzero = float(qsim.counter_law(k, t, p, r)[(0,) * r])
                    gap = carmichael.gap_error_bound(k, phi, p, r)
                    rows.append([k, t, p, r, allzero, alpha ** (2 * r), gap])
        header = ["k", "t", "P", "R", "allzero", "alpha_pow", "gap_bound"]
        return cli.render("csv", cli.Record(table=lambda: [cli.csv_line(row) for row in [header, *rows]]))

    return cli.run(table)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sweep the certification leakage over (k, P, R).

For each composite k the exact all-zeros probability is compared against
the kernel prediction alpha^(2R) and the gap-based worst case reported in
sampling mode.  Output is CSV on stdout.
"""

import argparse
import sys

from carmsim import carmichael, cli, counting, numtheory


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=120)
    parser.add_argument("--P", dest="p_values", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--R", dest="r_values", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()

    rows = []
    for k in range(4, args.kmax + 1):
        factorization = numtheory.factorize(k)
        if factorization.is_prime or numtheory.is_carmichael(k):
            continue
        phi = numtheory.euler_phi(factorization)
        t = phi - numtheory.fermat_nonwitness_count(factorization)
        for p in args.p_values:
            alpha = counting.dirichlet_kernel(counting.peak_position(k, t, p), p)
            for r in args.r_values:
                allzero = carmichael.allzero_probability(k, p, r)
                gap = carmichael.gap_error_bound(k, phi, p, r)
                rows.append([k, t, p, r, allzero, alpha ** (2 * r), gap])
    header = ["k", "t", "P", "R", "allzero", "alpha_pow", "gap_bound"]
    return cli.write(cli.render("csv", cli.Record(table=lambda: (header, rows))))


if __name__ == "__main__":
    sys.exit(main())

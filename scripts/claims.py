#!/usr/bin/env python3
"""The paper's claims as CSV tables on stdout, one section each: the certification
leakage (leakage), the counting success rate (counting) and the density exponent (psw)."""

import argparse
import math
import sys

from carmsim import carmichael, cli, counting, numtheory, qsim


def leakage_table(args: argparse.Namespace) -> tuple[list, list]:
    """Sweep the certification leakage over (k, P, R).

    For each non-Carmichael composite k the exact all-zeros probability is
    compared against the kernel prediction alpha^(2R) and the gap-based worst
    case reported in sampling mode.  Output is CSV on stdout.
    """
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
    return ["k", "t", "P", "R", "allzero", "alpha_pow", "gap_bound"], rows


def counting_table(args: argparse.Namespace) -> tuple[list, list]:
    """Success rate of the Carmichael counting pipeline as the counter grows.

    For each Q the pipeline runs `reps` seeded trials; a trial succeeds when
    its estimate lands within the peak-outcome error bound of the enumerated
    truth.  The four-peak floor 8/pi^2 = 0.8106 should be cleared whenever the
    peak sits inside the ansatz window.  Output is CSV on stdout.
    """
    rows = []
    for q in args.q_values:
        result = carmichael.count_carmichaels_quantum(args.N, q, seed=args.seed, reps=args.reps)
        peak = result.peak_probability
        rows.append([args.N, q, result.exact_count, result.success_fraction(),
                     result.error_bound, peak.value, peak.in_ansatz])
    # the floor closes the table as a one-field row, which CSV prints bare
    rows.append([f"# four-peak floor 8/pi^2 = {8 / math.pi ** 2}"])
    return ["N", "Q", "t_N", "success_fraction", "error_bound", "peak_probability", "in_ansatz"], rows


def psw_table(args: argparse.Namespace) -> tuple[list, list]:
    """Counting accuracy and the density exponent over a range of N.

    Each row runs the counting pipeline at the policy counter size and prints
    the psw row: the measured error bound dt_exp next to the target dt_th,
    which the policy Q misses at every N (see carmichael.PswReport).
    The last three columns tabulate the Pomerance-Selfridge-Wagstaff exponent
    e(N) = ln(N/C(N))/ln l(N): e_exact from the exact count t_N, e_est from the
    median estimate t_tilde, and e_err = dt_exp/(t_N ln l(N)), the error the
    estimate's bound dt_exp puts on e(N).  A zero count gives inf.  The default
    rows are the decades 10^3..10^9; --N 10000000000 adds the next one.
    """
    rows = []
    for n in args.n_values:
        report = carmichael.psw_report(n, args.epsilon, args.delta, seed=args.seed, reps=args.reps)
        ln_scale = math.log(numtheory.psw_scale(n))
        e_exact, e_est = (math.log(n / count) / ln_scale if count > 0 else math.inf
                          for count in (report.t_n, report.t_tilde))
        e_err = report.dt_exp / (report.t_n * ln_scale) if report.t_n > 0 else math.inf
        rows.append([*report, e_exact, e_est, e_err])
    return [*carmichael.PswReport.CSV_HEADER, "e_exact", "e_est", "e_err"], rows


TABLES = {"leakage": leakage_table, "counting": counting_table, "psw": psw_table}


def build_parser() -> argparse.ArgumentParser:
    parser = cli.one_line_errors(argparse.ArgumentParser(description=__doc__))
    sub = parser.add_subparsers(dest="section", required=True)
    leakage, counts, psw = (cli.one_line_errors(sub.add_parser(name, description=table.__doc__))
                            for name, table in TABLES.items())
    leakage.add_argument("--kmax", type=int, default=120)
    leakage.add_argument("--P", dest="p_values", type=int, nargs="+", default=[8, 16, 32])
    leakage.add_argument("--R", dest="r_values", type=int, nargs="+", default=[1, 2])
    counts.add_argument("--N", type=int, default=10**4)
    counts.add_argument("--Q", dest="q_values", type=int, nargs="+", default=[32, 64, 128, 256])
    psw.add_argument("--N", dest="n_values", type=int, nargs="+", default=[10**j for j in range(3, 10)])
    psw.add_argument("--epsilon", type=float, default=0.5)
    psw.add_argument("--delta", type=float, default=0.05)
    for sp, reps in ((counts, 500), (psw, 100)):
        sp.add_argument("--reps", type=int, default=reps)
        sp.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def text() -> str:
        header, rows = TABLES[args.section](args)
        return cli.render("csv", cli.Record(table=lambda: [cli.csv_line(row) for row in [header, *rows]]))

    return cli.run(text)


if __name__ == "__main__":
    sys.exit(main())

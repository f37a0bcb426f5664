"""Batch command-line front end.

Subcommands: facts, certify, count-bases, count-carmichael, psw, bounds,
enumerate.  All randomness flows from --seed: repetition i of a command
draws from np.random.default_rng([seed, i]), so identical invocations are
byte-identical.  Exit codes: 0 success, 2 domain/precondition error,
3 capacity error.  Every command and script prints through one renderer
(`render`) and one writer (`write`).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import carmichael, counting, numtheory
from .errors import CapacityError, DomainError


class Record(NamedTuple):
    """A command's result in each output form; render builds only the one asked for."""

    table: Callable[[], tuple[Sequence[str], Iterable[Sequence]]]  # CSV header and rows
    payload: Callable[[], dict] | None = None  # JSON body after the "config" block
    lines: Callable[[], Iterable[str]] | None = None  # text lines


def render(output: str, record: Record, config: dict | None = None) -> str:
    """The record as "text", "json" (config block first) or "csv"."""
    if output == "json":
        return json.dumps({"config": config, **record.payload()}, indent=2) + "\n"
    if output == "csv":
        # fields go through str() first, so None and bools print as in text;
        # the writer quotes any field that holds a comma
        header, rows = record.table()
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([str(v) for v in row] for row in [header, *rows])
        return buf.getvalue()
    return "\n".join(record.lines()) + "\n"


def write(text: str, out_path: str | None = None) -> int:
    """Write text to out_path, else stdout; 0, or 2 after an error line on stderr."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            # a closed stdout keeps the unwritten bytes buffered; point it at
            # devnull so that the interpreter's flush at exit cannot fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write {out_path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _config(cfg: argparse.Namespace) -> dict:
    """The resolved options as printed in the JSON "config" block."""
    return {
        "command": cfg.command,
        "target": cfg.target,
        "P": cfg.p,
        "R": cfg.r,
        "Q": cfg.q,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "reps": cfg.reps,
    }


def _cmd_facts(cfg: argparse.Namespace) -> Record:
    facts = numtheory.number_facts(cfg.target)
    factors = facts.factorization.factors
    keys = ("k", "classification", "factorization", "phi", "f_count", "t_k", "mr_witnesses")

    def values(factorization: str) -> list:
        fields = {**facts.to_json_dict(), "factorization": factorization}
        return [fields[key] for key in keys]

    product = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors)
    return Record(
        table=lambda: (keys, [values(";".join(f"{p}^{e}" for p, e in factors))]),
        payload=lambda: {"facts": facts.to_json_dict()},
        lines=lambda: [f"{key}: {value}" for key, value in zip(keys, values(product))],
    )


def _cmd_certify(cfg: argparse.Namespace) -> Record:
    verdicts = carmichael.certify_reps(
        cfg.target, cfg.p, cfg.r, mode=cfg.mode, seed=cfg.seed, reps=cfg.reps
    )
    n_carm = sum(1 for v in verdicts if v.kind is carmichael.VerdictKind.PROBABLY_CARMICHAEL)
    majority = (
        carmichael.VerdictKind.PROBABLY_CARMICHAEL
        if 2 * n_carm > len(verdicts)
        else carmichael.VerdictKind.NOT_CARMICHAEL
    )
    header = ["rep", "kind", "error_bound", "observed_ancillas", "flag_retries", "grover_applications"]
    return Record(
        table=lambda: (header, (
            [i, v.kind.value, v.error_bound, ";".join(str(a) for a in v.observed_ancillas), v.flag_retries, v.grover_applications]
            for i, v in enumerate(verdicts)
        )),
        payload=lambda: {"verdicts": [v.to_json_dict() for v in verdicts], "majority": majority.value},
        lines=lambda: [
            f"certify k={cfg.target} P={cfg.p} R={cfg.r} mode={cfg.mode} seed={cfg.seed} reps={cfg.reps}",
            *(
                f"  rep {i}: {v.kind.value} ancillas={v.observed_ancillas} "
                f"error_bound={v.error_bound} flag_retries={v.flag_retries}"
                + (f" exact_allzero={v.exact_allzero}" if v.exact_allzero is not None else "")
                for i, v in enumerate(verdicts)
            ),
            f"majority: {majority.value} ({n_carm}/{len(verdicts)} ProbablyCarmichael)",
        ],
    )


def _estimates(estimates: list[counting.CountEstimate], summary: dict, head: list[str]) -> Record:
    """A counting command: its summary and head lines, then a row and a line per rep."""
    header = ["rep", "l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"]
    return Record(
        table=lambda: (header, (
            [i, e.measured_l, e.f_tilde, e.theta_tilde, e.t_tilde, e.error_bound, e.in_ansatz]
            for i, e in enumerate(estimates)
        )),
        payload=lambda: {**summary, "estimates": [e.to_json_dict() for e in estimates]},
        lines=lambda: head + [
            f"  rep {i}: l={e.measured_l} t_tilde={e.t_tilde} bound={e.error_bound} in_ansatz={e.in_ansatz}"
            for i, e in enumerate(estimates)
        ],
    )


def _cmd_count_bases(cfg: argparse.Namespace) -> Record:
    facts = numtheory.number_facts(cfg.target)
    if facts.classification is numtheory.Classification.PRIME:
        raise DomainError(f"{cfg.target} is prime; certification presumes a composite input")
    t_true = facts.t_k
    estimates = counting.run_count(cfg.target, t_true, cfg.p, seed=cfg.seed, reps=cfg.reps)
    median = float(np.median([e.t_tilde for e in estimates]))
    return _estimates(estimates, {"t_true": t_true, "t_tilde_median": median}, [
        f"count-bases k={cfg.target} P={cfg.p} seed={cfg.seed} reps={cfg.reps}",
        f"t_true: {t_true}  t_tilde median: {median}",
    ])


def _cmd_count_carmichael(cfg: argparse.Namespace) -> Record:
    result = carmichael.count_carmichaels_quantum(cfg.target, cfg.q, seed=cfg.seed, reps=cfg.reps)
    summary = {
        "t_N": result.exact_count,
        "t_tilde_median": float(np.median([e.t_tilde for e in result.estimates])),
        "success_fraction": result.success_fraction(),
        "error_bound": result.error_bound,
        "peak_probability": result.peak_probability.value,
        "peak_in_ansatz": result.peak_probability.in_ansatz,
    }
    return _estimates(result.estimates, summary, [
        f"count-carmichael N={cfg.target} Q={cfg.q} seed={cfg.seed} reps={cfg.reps}",
        *(f"{key}: {val}" for key, val in summary.items()),
    ])


def _cmd_psw(cfg: argparse.Namespace) -> Record:
    report = carmichael.psw_report(
        cfg.target, cfg.epsilon, cfg.delta, q=cfg.q or None, seed=cfg.seed, reps=cfg.reps
    )
    return Record(
        table=lambda: (report.CSV_HEADER, [report.to_csv_row()]),
        payload=lambda: {"report": report.to_json_dict()},
        lines=lambda: [
            f"psw N={cfg.target} epsilon={cfg.epsilon} delta={cfg.delta}",
            *(f"{key}: {val}" for key, val in report.to_json_dict().items()),
            "note: desk-scale N; the asymptotic envelopes are informational only",
        ],
    )


def _cmd_bounds(cfg: argparse.Namespace) -> Record:
    bounds = carmichael.perturbation_bounds(cfg.target, cfg.p)
    payload = {**bounds.to_json_dict(), "phi_norm_pi2_over_6": float(np.pi**2 / 6.0)}
    # the CSV joins the violation list with ";" so that the row keeps one field per column
    row = {**payload, "beta_violations": ";".join(str(k) for k in bounds.beta_violations)}
    return Record(
        table=lambda: (list(row), [list(row.values())]),
        payload=lambda: {"bounds": payload},
        lines=lambda: [
            f"bounds N={cfg.target} P={cfg.p}",
            *(f"{key}: {val}" for key, val in payload.items()),
            "note: phi_norm tracks 6/pi^2; the constant pi^2/6 sometimes quoted "
            "for this mean does not match the computed value",
        ],
    )


def _cmd_enumerate(cfg: argparse.Namespace) -> Record:
    values = numtheory.enumerate_carmichaels(cfg.target)
    return Record(
        table=lambda: (["carmichael"], ([v] for v in values)),
        payload=lambda: {"count": len(values), "carmichaels": values},
        lines=lambda: [f"carmichael numbers below {cfg.target}: {len(values)}", *(f"  {v}" for v in values)],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carmsim",
        description="Carmichael certification and counting pipelines (exact simulation)",
    )
    # every option's default, for all commands; a subcommand sets its own
    # only where it differs (bounds --P 64, psw --Q 0 for the policy Q)
    parser.set_defaults(
        p=16, r=2, q=128, epsilon=0.5, delta=0.05, mode="exact",
        seed=42, reps=100, output="text", out_path=None,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, help_text: str, metavar: str, handler: Callable[[argparse.Namespace], Record]
    ) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("target", metavar=metavar, type=int)
        sp.set_defaults(handler=handler)
        return sp

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", type=int)
        sp.add_argument("--reps", type=int)
        sp.add_argument("--output", choices=("text", "json", "csv"))
        sp.add_argument("--out", dest="out_path", help="write output to a file")

    sp = command("facts", "classical record for k", "k", _cmd_facts)
    common(sp)

    sp = command("certify", "certify whether composite k is Carmichael", "k", _cmd_certify)
    sp.add_argument("--P", dest="p", type=int)
    sp.add_argument("--R", dest="r", type=int)
    sp.add_argument("--mode", choices=("exact", "sample"))
    common(sp)

    sp = command("count-bases", "estimate t(k) by counting Fermat failures", "k", _cmd_count_bases)
    sp.add_argument("--P", dest="p", type=int)
    common(sp)

    sp = command("count-carmichael", "count Carmichael numbers below N", "n", _cmd_count_carmichael)
    sp.add_argument("--Q", dest="q", type=int)
    common(sp)

    sp = command("psw", "counting accuracy vs conjectured density envelopes", "n", _cmd_psw)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--Q", dest="q", type=int, default=0, help="override the policy choice")
    common(sp)

    sp = command("bounds", "perturbation budget and leakage factors below N", "n", _cmd_bounds)
    sp.add_argument("--P", dest="p", type=int, default=64)
    common(sp)

    sp = command("enumerate", "list Carmichael numbers below N", "n", _cmd_enumerate)
    common(sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        if cfg.seed < 0:  # np.random.default_rng takes no negative seed
            raise DomainError(f"seed must be >= 0, got {cfg.seed}")
        record = cfg.handler(cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    return write(render(cfg.output, record, _config(cfg)), cfg.out_path)


if __name__ == "__main__":
    sys.exit(main())

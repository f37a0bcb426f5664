"""Batch command-line front end.

Subcommands: facts, certify, count-bases, count-carmichael, psw, bounds,
enumerate.  Rep i of a command draws numpy's PCG64 sequence of
np.random.default_rng([seed, i]), which qsim.rep_draws reproduces
in-package for all reps in one call (no command imports numpy.random), so
identical invocations are byte-identical; only the commands that draw check
--seed and --reps.  Every command and script shares one renderer
(`render`), one writer (`write`) and one error boundary (`run`): exit 0 on
success, 2 on a domain/precondition error, 3 on a capacity error, when
memory runs out or when a state drifts off its norm (a counter so large
that the rounding of its power table passes the norm tolerance).

JSON output equals json.dumps(payload, indent=2) byte for byte.  Reps with
the same outcome share one record, so a payload holds each distinct
record's dict once, repeated, and the renderer encodes a list element that
recurs once and reuses its text.  The text and CSV forms likewise format
each distinct record once and prefix each rep's copy with its rep index.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import carmichael, counting, numtheory
from .errors import CapacityError, DomainError, NormalizationError


class Record(NamedTuple):
    """A command's result in each output form; render builds only the one asked for."""

    table: Callable[[], Iterable[str]]  # CSV lines (csv_line), header first
    payload: Callable[[], dict] | None = None  # JSON body after the "config" block
    lines: Callable[[], Iterable[str]] | None = None  # text lines


def _json_float(value: float) -> str:
    """A float as json writes it: NaN and the infinities by name, any other by float.__repr__."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key) -> str:
    """A dict key as json writes it: a str as is, an int, float, bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, indent=2) writes it, nested at the given indent.

    A list element that recurs (the same object) is encoded once and its
    text reused; a type json rejects raises json's TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        texts: dict[int, str] = {}
        for item in value:
            if id(item) not in texts:
                texts[id(item)] = _json_text(item, inner)
        items = [texts[id(item)] for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(_json_key(key))}: {_json_text(item, inner)}" for key, item in value.items()
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def csv_line(fields: Iterable) -> str:
    """One CSV row as csv.writer writes it, without its line end.

    Fields go through str() first, so None and bools print as in text; the
    writer quotes any field that holds a comma.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([str(v) for v in fields])
    return buf.getvalue()


def render(output: str, record: Record, config: dict | None = None) -> str:
    """The record as "text", "json" (config block first) or "csv"."""
    if output == "json":
        return _json_text({"config": config, **record.payload()}, "") + "\n"
    return "\n".join(record.table() if output == "csv" else record.lines()) + "\n"


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


def run(build: Callable[[], str], out_path: str | None = None) -> int:
    """write(build()), or 2 on a DomainError and 3 on a CapacityError, MemoryError or NormalizationError after one stderr line."""
    try:
        text = build()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError, NormalizationError) as exc:
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    return write(text, out_path)


def _shared(records: Sequence, build: Callable) -> list:
    """build(record) for each record, run once per distinct record object.

    Reps with the same outcome share one record, so their entries share one
    result: one JSON dict, which render then encodes once, or one text.
    """
    built: dict[int, object] = {}
    for record in records:
        if id(record) not in built:
            built[id(record)] = build(record)
    return [built[id(record)] for record in records]


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
        table=lambda: [csv_line(keys), csv_line(values(";".join(f"{p}^{e}" for p, e in factors)))],
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

    def row(v: carmichael.Verdict) -> str:
        ancillas = ";".join(str(a) for a in v.observed_ancillas)
        return csv_line([v.kind.value, v.error_bound, ancillas, v.flag_retries, v.grover_applications])

    def line(v: carmichael.Verdict) -> str:
        return (
            f"{v.kind.value} ancillas={v.observed_ancillas} error_bound={v.error_bound} flag_retries={v.flag_retries}"
            + (f" exact_allzero={v.exact_allzero}" if v.exact_allzero is not None else "")
        )

    return Record(
        table=lambda: [csv_line(header), *(f"{i},{text}" for i, text in enumerate(_shared(verdicts, row)))],
        payload=lambda: {"verdicts": _shared(verdicts, carmichael.Verdict.to_json_dict), "majority": majority.value},
        lines=lambda: [
            f"certify k={cfg.target} P={cfg.p} R={cfg.r} mode={cfg.mode} seed={cfg.seed} reps={cfg.reps}",
            *(f"  rep {i}: {text}" for i, text in enumerate(_shared(verdicts, line))),
            f"majority: {majority.value} ({n_carm}/{len(verdicts)} ProbablyCarmichael)",
        ],
    )


def _estimates(estimates: list[counting.CountEstimate], summary: dict, head: list[str]) -> Record:
    """A counting command: its summary and head lines, then a row and a line per rep."""
    header = ["rep", "l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"]

    def row(e: counting.CountEstimate) -> str:
        return csv_line([e.measured_l, e.f_tilde, e.theta_tilde, e.t_tilde, e.error_bound, e.in_ansatz])

    def line(e: counting.CountEstimate) -> str:
        return f"l={e.measured_l} t_tilde={e.t_tilde} bound={e.error_bound} in_ansatz={e.in_ansatz}"

    return Record(
        table=lambda: [csv_line(header), *(f"{i},{text}" for i, text in enumerate(_shared(estimates, row)))],
        payload=lambda: {**summary, "estimates": _shared(estimates, counting.CountEstimate.to_json_dict)},
        lines=lambda: head + [f"  rep {i}: {text}" for i, text in enumerate(_shared(estimates, line))],
    )


def _cmd_count_bases(cfg: argparse.Namespace) -> Record:
    t_true = carmichael.composite_facts(cfg.target).t_k
    estimates = counting.run_count(cfg.target, t_true, cfg.p, seed=cfg.seed, reps=cfg.reps)
    median = counting.median_t_tilde(estimates)
    return _estimates(estimates, {"t_true": t_true, "t_tilde_median": median}, [
        f"count-bases k={cfg.target} P={cfg.p} seed={cfg.seed} reps={cfg.reps}",
        f"t_true: {t_true}  t_tilde median: {median}",
    ])


def _cmd_count_carmichael(cfg: argparse.Namespace) -> Record:
    result = carmichael.count_carmichaels_quantum(cfg.target, cfg.q, seed=cfg.seed, reps=cfg.reps)
    summary = {
        "t_N": result.exact_count,
        "t_tilde_median": counting.median_t_tilde(result.estimates),
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
        table=lambda: [csv_line(report.CSV_HEADER), csv_line(report.to_csv_row())],
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
        table=lambda: [csv_line(row.keys()), csv_line(row.values())],
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
        table=lambda: [csv_line(["carmichael"]), *(csv_line([v]) for v in values)],
        payload=lambda: {"count": len(values), "carmichaels": values},
        lines=lambda: [f"carmichael numbers below {cfg.target}: {len(values)}", *(f"  {v}" for v in values)],
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
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
    return run(lambda: render(cfg.output, cfg.handler(cfg), _config(cfg)), cfg.out_path)


if __name__ == "__main__":
    sys.exit(main())

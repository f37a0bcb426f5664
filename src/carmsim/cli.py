"""Batch command-line front end.

Subcommands: facts, certify, count-bases, count-carmichael, psw, bounds,
enumerate.  Rep i of a command draws numpy's PCG64 sequence of
np.random.default_rng([seed, i]), which qsim.rep_draws reproduces
in-package for all reps in one call (no command imports numpy.random), so
identical invocations are byte-identical.  Only the commands that draw
(certify, count-bases, count-carmichael, psw) take --seed and --reps, and
they check both; facts, bounds and enumerate reject either, and their JSON
"config" block prints the parser's defaults.  Every command and script
shares one renderer (`render`), one writer (`write`) and one error
boundary (`run`): exit 0 on success, 2 on a domain/precondition error, 3
on a capacity error, when memory runs out or when a counter law drifts off
its norm (a counter so large that the rounding of its power table passes
the norm tolerance).  An argument argparse rejects exits 2 after one line.

JSON output equals json.dumps(payload, indent=2) byte for byte.  The
renderer writes strings, None, bools, ints, finite floats (the exact
types, not subclasses) and non-empty lists, tuples and str-keyed dicts
itself; json.dumps writes or refuses the rest (NaN and the infinities,
empty containers, other keys and types).  A command's reps come as their
distinct records and an index (rep i's is records[index[i]]); each output
form is built once per distinct record and listed per rep, so a payload
repeats each distinct dict and the renderer encodes a list element that
recurs once and reuses its text.  It also spells each dict key layout (the keys at one depth) once,
as a % template, and encodes once each leaf that the records share (their
kind, error bound, flag probability, small ints); these caches live for
one render.  The text and CSV forms likewise format each distinct record
once and prefix each rep's copy with its rep number.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, Sequence

from . import carmichael, counting, numtheory
from .errors import CapacityError, DomainError, NormalizationError


class Record(NamedTuple):
    """A command's result in each output form; render builds only the one asked for."""

    table: Callable[[], Iterable[str]]  # CSV lines (csv_line), header first
    payload: Callable[[], dict] | None = None  # JSON body after the "config" block
    lines: Callable[[], Iterable[str]] | None = None  # text lines


def _json_leaf(value) -> str | None:
    """A str, None, bool, int or finite float as json.dumps writes it; None for any other value.

    Only the exact types are leaves: json writes a subclass of str, int or
    float as its base, so it goes to json.dumps like any other value.
    """
    cls = type(value)
    if cls is float:
        return float.__repr__(value) if math.isfinite(value) else None
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    return None


def _json_text(value, indent: str, memo: dict) -> str:
    """A value that is not a leaf (_json_leaf) as json.dumps(value, indent=2) writes it, nested at indent.

    A recurring list element (the same object) is encoded once per list.
    memo lives for one render, so the ids in it stay those of live objects.
    It maps a plain dict's key layout at one depth, (indent, *keys), to a %
    template of the dict's value texts, spelled once, and each leaf of a
    dict, by id, to its text, so the leaves that records share are encoded
    once.  A list's dict elements and a dict's list values are never
    leaves, so they skip the leaf tests (and the leaf memo) and go straight
    to their branch.
    """
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        texts: dict[int, str] = {}
        items = []
        for item in value:
            text = texts.get(id(item))
            if text is None:
                if type(item) is dict:
                    text = _json_text(item, inner, memo)
                else:
                    text = _json_leaf(item) or _json_text(item, inner, memo)
                texts[id(item)] = text
            items.append(text)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if type(value) is dict and value:
        layout = (indent, *value)
        template = memo.get(layout)
        if template is None:
            # encode_basestring_ascii raises TypeError on a key that is not a str; json
            # walks the dict in the same order, so fails on the same first bad item
            try:
                keys = "\n".join(map(encode_basestring_ascii, value))  # an encoded key holds no newline
            except TypeError:
                return json.dumps(value, indent=2).replace("\n", "\n" + indent)
            keys = keys.replace("%", "%%").replace("\n", f": %s,\n{inner}")
            memo[layout] = template = f"{{\n{inner}{keys}: %s\n{indent}}}"
        items = []
        for item in value.values():
            if type(item) is list:
                text = _json_text(item, inner, memo)
            else:
                text = memo.get(id(item))
                if text is None:
                    text = _json_leaf(item)
                    if text is None:
                        text = _json_text(item, inner, memo)
                    else:
                        memo[id(item)] = text
            items.append(text)
        return template % tuple(items)
    # json escapes every newline in a string, so its text re-indents exactly
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def csv_line(fields: Iterable) -> str:
    """One CSV row as csv.writer writes it, without its line end.

    Fields go through str() first, so None and bools print as in text; the
    writer quotes any field that holds a comma.  csv is imported here, by
    the only code that writes CSV, so that no other output pays for it.
    """
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([str(v) for v in fields])
    return buf.getvalue()


def render(output: str, record: Record, config: dict | None = None) -> str:
    """The record as "text", "json" (config block first) or "csv"."""
    if output == "json":
        return _json_text({"config": config, **record.payload()}, "", {}) + "\n"
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


def one_line_errors(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """parser, printing an argument it rejects as one stderr line, error: <prog>: <message>, then exiting 2 (argparse
    prints its usage first; --help still does).  Each subcommand's parser reports its own options: call it on each."""
    parser.error = lambda message: parser.exit(2, f"error: {parser.prog}: {message}\n")
    return parser


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


def _reps(records: Sequence, reps: list[int], header: list[str], row: Callable, line: Callable,
          payload: Callable[[list[dict]], dict], head: list[str], tail: Sequence[str] = ()) -> Record:
    """A command with one record per rep, rep i's being records[reps[i]]: the header and a CSV row per rep, head,
    a text line per rep and tail, or payload(the per-rep JSON dicts).  Each form is built once per distinct record.
    """

    def listed(build: Callable) -> Iterable:
        return map(list(map(build, records)).__getitem__, reps)

    return Record(
        table=lambda: [csv_line(header), *(f"{i},{text}" for i, text in enumerate(listed(row)))],
        payload=lambda: payload(list(listed(lambda record: record.to_json_dict()))),
        lines=lambda: [*head, *(f"  rep {i}: {text}" for i, text in enumerate(listed(line))), *tail],
    )


def _cmd_certify(cfg: argparse.Namespace) -> Record:
    verdicts, index = carmichael.certify_reps(
        cfg.target, cfg.p, cfg.r, mode=cfg.mode, seed=cfg.seed, reps=cfg.reps
    )
    kinds, reps = carmichael.VerdictKind, index.tolist()
    n_carm = sum(map([v.kind is kinds.PROBABLY_CARMICHAEL for v in verdicts].__getitem__, reps))
    majority = kinds.PROBABLY_CARMICHAEL if 2 * n_carm > len(reps) else kinds.NOT_CARMICHAEL

    def line(v: carmichael.Verdict) -> str:
        return (
            f"{v.kind.value} ancillas={v.observed_ancillas} error_bound={v.error_bound} flag_retries={v.flag_retries}"
            + (f" exact_allzero={v.exact_allzero}" if v.exact_allzero is not None else "")
        )

    return _reps(
        verdicts, reps,
        ["rep", "kind", "error_bound", "observed_ancillas", "flag_retries", "grover_applications"],
        lambda v: csv_line([v.kind.value, v.error_bound, ";".join(map(str, v.observed_ancillas)), v.flag_retries,
                            v.grover_applications]),
        line,
        payload=lambda dicts: {"verdicts": dicts, "majority": majority.value},
        head=[f"certify k={cfg.target} P={cfg.p} R={cfg.r} mode={cfg.mode} seed={cfg.seed} reps={cfg.reps}"],
        tail=[f"majority: {majority.value} ({n_carm}/{len(reps)} ProbablyCarmichael)"],
    )


def _estimates(estimates: list[counting.CountEstimate], index, summary: dict, head: list[str]) -> Record:
    """A counting command: its summary and head lines, then a row and a line per rep."""
    return _reps(
        estimates, index.tolist(), ["rep", "l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"],
        lambda e: csv_line([e.measured_l, e.f_tilde, e.theta_tilde, e.t_tilde, e.error_bound, e.in_ansatz]),
        lambda e: f"l={e.measured_l} t_tilde={e.t_tilde} bound={e.error_bound} in_ansatz={e.in_ansatz}",
        payload=lambda dicts: {**summary, "estimates": dicts}, head=head,
    )


def _cmd_count_bases(cfg: argparse.Namespace) -> Record:
    t_true = carmichael.composite_facts(cfg.target).t_k
    estimates, index = counting.run_count(cfg.target, t_true, cfg.p, seed=cfg.seed, reps=cfg.reps)
    median = counting.median_t_tilde(estimates, index)
    return _estimates(estimates, index, {"t_true": t_true, "t_tilde_median": median}, [
        f"count-bases k={cfg.target} P={cfg.p} seed={cfg.seed} reps={cfg.reps}",
        f"t_true: {t_true}  t_tilde median: {median}",
    ])


def _cmd_count_carmichael(cfg: argparse.Namespace) -> Record:
    result = carmichael.count_carmichaels_quantum(cfg.target, cfg.q, seed=cfg.seed, reps=cfg.reps)
    summary = {
        "t_N": result.exact_count,
        "t_tilde_median": counting.median_t_tilde(result.estimates, result.index),
        "success_fraction": result.success_fraction(),
        "error_bound": result.error_bound,
        "peak_probability": result.peak_probability.value,
        "peak_in_ansatz": result.peak_probability.in_ansatz,
    }
    return _estimates(result.estimates, result.index, summary, [
        f"count-carmichael N={cfg.target} Q={cfg.q} seed={cfg.seed} reps={cfg.reps}",
        *(f"{key}: {val}" for key, val in summary.items()),
    ])


def _cmd_psw(cfg: argparse.Namespace) -> Record:
    report = carmichael.psw_report(
        cfg.target, cfg.epsilon, cfg.delta, q=cfg.q or None, seed=cfg.seed, reps=cfg.reps
    )
    return Record(
        table=lambda: [csv_line(report.CSV_HEADER), csv_line(report)],
        payload=lambda: {"report": report.to_json_dict()},
        lines=lambda: [
            f"psw N={cfg.target} epsilon={cfg.epsilon} delta={cfg.delta}",
            *(f"{key}: {val}" for key, val in report.to_json_dict().items()),
        ],
    )


def _cmd_bounds(cfg: argparse.Namespace) -> Record:
    bounds = carmichael.perturbation_bounds(cfg.target, cfg.p)
    payload = {**bounds.to_json_dict(), "phi_norm_pi2_over_6": math.pi**2 / 6.0}
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
    parser = one_line_errors(argparse.ArgumentParser(
        prog="carmsim",
        description="Carmichael certification and counting pipelines (exact simulation)",
    ))
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
        sp = one_line_errors(sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS))
        sp.add_argument("target", metavar=metavar, type=int)
        sp.set_defaults(handler=handler)
        return sp

    def common(sp: argparse.ArgumentParser, draws: bool = True) -> None:
        if draws:  # facts, bounds and enumerate draw nothing, so take neither option
            sp.add_argument("--seed", type=int)
            sp.add_argument("--reps", type=int)
        sp.add_argument("--output", choices=("text", "json", "csv"))
        sp.add_argument("--out", dest="out_path", help="write output to a file")

    sp = command("facts", "classical record for k", "k", _cmd_facts)
    common(sp, draws=False)

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

    sp = command("psw", "counting accuracy vs the conjectured accuracy target", "n", _cmd_psw)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--Q", dest="q", type=int, default=0, help="override the policy choice")
    common(sp)

    sp = command("bounds", "perturbation budget and leakage factors below N", "n", _cmd_bounds)
    sp.add_argument("--P", dest="p", type=int, default=64)
    common(sp, draws=False)

    sp = command("enumerate", "list Carmichael numbers below N", "n", _cmd_enumerate)
    common(sp, draws=False)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    return run(lambda: render(cfg.output, cfg.handler(cfg), _config(cfg)), cfg.out_path)


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

Subcommands: facts, certify, count-bases, count-carmichael, psw, bounds,
enumerate.  All randomness flows from --seed: repetition i of a command
draws from np.random.default_rng([seed, i]), so identical invocations are
byte-identical.  Exit codes: 0 success, 2 domain/precondition error,
3 capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import carmichael, counting, numtheory
from .errors import CapacityError, DomainError


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


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _cmd_facts(cfg: argparse.Namespace) -> str:
    facts = numtheory.number_facts(cfg.target)
    if cfg.output == "json":
        return _json_text({"config": _config(cfg), "facts": facts.to_json_dict()})
    if cfg.output == "csv":
        d = facts.to_json_dict()
        d["factorization"] = ";".join(f"{p}^{e}" for p, e in facts.factorization.factors)
        keys = ["k", "classification", "factorization", "phi", "f_count", "t_k", "mr_witnesses"]
        return _csv_text(keys, [[d[key] for key in keys]])
    lines = [
        f"k: {facts.k}",
        f"classification: {facts.classification.value}",
        "factorization: " + " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in facts.factorization.factors),
        f"phi: {facts.phi}",
        f"f_count: {facts.f_count}",
        f"t_k: {facts.t_k}",
        f"mr_witnesses: {facts.mr_witnesses}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_certify(cfg: argparse.Namespace) -> str:
    verdicts = carmichael.certify_reps(
        cfg.target, cfg.p, cfg.r, mode=cfg.mode, seed=cfg.seed, reps=cfg.reps
    )
    n_carm = sum(1 for v in verdicts if v.kind is carmichael.VerdictKind.PROBABLY_CARMICHAEL)
    majority = (
        carmichael.VerdictKind.PROBABLY_CARMICHAEL
        if 2 * n_carm > len(verdicts)
        else carmichael.VerdictKind.NOT_CARMICHAEL
    )
    if cfg.output == "json":
        return _json_text(
            {
                "config": _config(cfg),
                "verdicts": [v.to_json_dict() for v in verdicts],
                "majority": majority.value,
            }
        )
    if cfg.output == "csv":
        header = ["rep", "kind", "error_bound", "observed_ancillas", "flag_retries", "grover_applications"]
        rows = [
            [i, v.kind.value, v.error_bound, ";".join(str(a) for a in v.observed_ancillas), v.flag_retries, v.grover_applications]
            for i, v in enumerate(verdicts)
        ]
        return _csv_text(header, rows)
    lines = [
        f"certify k={cfg.target} P={cfg.p} R={cfg.r} mode={cfg.mode} seed={cfg.seed} reps={cfg.reps}"
    ]
    for i, v in enumerate(verdicts):
        extra = f" exact_allzero={v.exact_allzero}" if v.exact_allzero is not None else ""
        lines.append(
            f"  rep {i}: {v.kind.value} ancillas={v.observed_ancillas} "
            f"error_bound={v.error_bound} flag_retries={v.flag_retries}{extra}"
        )
    lines.append(f"majority: {majority.value} ({n_carm}/{len(verdicts)} ProbablyCarmichael)")
    return "\n".join(lines) + "\n"


def _estimate_rows(estimates: list[counting.CountEstimate]) -> tuple[list[str], list[list]]:
    header = ["rep", "l", "f_tilde", "theta_tilde", "t_tilde", "bound", "in_ansatz"]
    rows = [
        [i, e.measured_l, e.f_tilde, e.theta_tilde, e.t_tilde, e.error_bound, e.in_ansatz]
        for i, e in enumerate(estimates)
    ]
    return header, rows


def _cmd_count_bases(cfg: argparse.Namespace) -> str:
    estimates = carmichael.count_fermat_failures(cfg.target, cfg.p, seed=cfg.seed, reps=cfg.reps)
    facts = numtheory.number_facts(cfg.target)
    median = float(np.median([e.t_tilde for e in estimates]))
    if cfg.output == "json":
        return _json_text(
            {
                "config": _config(cfg),
                "t_true": facts.t_k,
                "t_tilde_median": median,
                "estimates": [e.to_json_dict() for e in estimates],
            }
        )
    header, rows = _estimate_rows(estimates)
    if cfg.output == "csv":
        return _csv_text(header, rows)
    lines = [
        f"count-bases k={cfg.target} P={cfg.p} seed={cfg.seed} reps={cfg.reps}",
        f"t_true: {facts.t_k}  t_tilde median: {median}",
    ]
    lines.extend(
        f"  rep {r[0]}: l={r[1]} t_tilde={r[4]} bound={r[5]} in_ansatz={r[6]}" for r in rows
    )
    return "\n".join(lines) + "\n"


def _cmd_count_carmichael(cfg: argparse.Namespace) -> str:
    result = carmichael.count_carmichaels_quantum(cfg.target, cfg.q, seed=cfg.seed, reps=cfg.reps)
    median = float(np.median([e.t_tilde for e in result.estimates]))
    summary = {
        "t_N": result.exact_count,
        "t_tilde_median": median,
        "success_fraction": result.success_fraction(),
        "error_bound": result.error_bound,
        "peak_probability": result.peak_probability.value,
        "peak_in_ansatz": result.peak_probability.in_ansatz,
    }
    if cfg.output == "json":
        return _json_text(
            {
                "config": _config(cfg),
                **summary,
                "estimates": [e.to_json_dict() for e in result.estimates],
            }
        )
    header, rows = _estimate_rows(result.estimates)
    if cfg.output == "csv":
        return _csv_text(header, rows)
    lines = [f"count-carmichael N={cfg.target} Q={cfg.q} seed={cfg.seed} reps={cfg.reps}"]
    lines.extend(f"{key}: {val}" for key, val in summary.items())
    lines.extend(
        f"  rep {r[0]}: l={r[1]} t_tilde={r[4]} bound={r[5]} in_ansatz={r[6]}" for r in rows
    )
    return "\n".join(lines) + "\n"


def _cmd_psw(cfg: argparse.Namespace) -> str:
    report = carmichael.psw_report(
        cfg.target, cfg.epsilon, cfg.delta, q=cfg.q or None, seed=cfg.seed, reps=cfg.reps
    )
    if cfg.output == "json":
        return _json_text({"config": _config(cfg), "report": report.to_json_dict()})
    if cfg.output == "csv":
        return _csv_text(report.CSV_HEADER, [report.to_csv_row()])
    lines = [f"psw N={cfg.target} epsilon={cfg.epsilon} delta={cfg.delta}"]
    lines.extend(f"{key}: {val}" for key, val in report.to_json_dict().items())
    lines.append("note: desk-scale N; the asymptotic envelopes are informational only")
    return "\n".join(lines) + "\n"


def _cmd_bounds(cfg: argparse.Namespace) -> str:
    bounds = carmichael.perturbation_bounds(cfg.target, cfg.p)
    payload = bounds.to_json_dict()
    payload["phi_norm_pi2_over_6"] = float(np.pi**2 / 6.0)
    if cfg.output == "json":
        return _json_text({"config": _config(cfg), "bounds": payload})
    if cfg.output == "csv":
        keys = list(payload.keys())
        return _csv_text(keys, [[payload[key] for key in keys]])
    lines = [f"bounds N={cfg.target} P={cfg.p}"]
    lines.extend(f"{key}: {val}" for key, val in payload.items())
    lines.append(
        "note: phi_norm tracks 6/pi^2; the constant pi^2/6 sometimes quoted "
        "for this mean does not match the computed value"
    )
    return "\n".join(lines) + "\n"


def _cmd_enumerate(cfg: argparse.Namespace) -> str:
    values = numtheory.enumerate_carmichaels(cfg.target)
    if cfg.output == "json":
        return _json_text(
            {"config": _config(cfg), "count": len(values), "carmichaels": values}
        )
    if cfg.output == "csv":
        return _csv_text(["carmichael"], [[v] for v in values])
    lines = [f"carmichael numbers below {cfg.target}: {len(values)}"]
    lines.extend(f"  {v}" for v in values)
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "facts": _cmd_facts,
    "certify": _cmd_certify,
    "count-bases": _cmd_count_bases,
    "count-carmichael": _cmd_count_carmichael,
    "psw": _cmd_psw,
    "bounds": _cmd_bounds,
    "enumerate": _cmd_enumerate,
}


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

    def command(name: str, help_text: str, metavar: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        sp.add_argument("target", metavar=metavar, type=int)
        return sp

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", type=int)
        sp.add_argument("--reps", type=int)
        sp.add_argument("--output", choices=("text", "json", "csv"))
        sp.add_argument("--out", dest="out_path", help="write output to a file")

    sp = command("facts", "classical record for k", "k")
    common(sp)

    sp = command("certify", "certify whether composite k is Carmichael", "k")
    sp.add_argument("--P", dest="p", type=int)
    sp.add_argument("--R", dest="r", type=int)
    sp.add_argument("--mode", choices=("exact", "sample"))
    common(sp)

    sp = command("count-bases", "estimate t(k) by counting Fermat failures", "k")
    sp.add_argument("--P", dest="p", type=int)
    common(sp)

    sp = command("count-carmichael", "count Carmichael numbers below N", "n")
    sp.add_argument("--Q", dest="q", type=int)
    common(sp)

    sp = command("psw", "counting accuracy vs conjectured density envelopes", "n")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--Q", dest="q", type=int, default=0, help="override the policy choice")
    common(sp)

    sp = command("bounds", "perturbation budget and leakage factors below N", "n")
    sp.add_argument("--P", dest="p", type=int, default=64)
    common(sp)

    sp = command("enumerate", "list Carmichael numbers below N", "n")
    common(sp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        text = _HANDLERS[cfg.command](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(text, cfg.out_path)
    except OSError as exc:
        target = cfg.out_path or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

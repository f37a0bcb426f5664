"""Correctness of every op: ground truth, the recorded reference, oracles.

Integers, strings, verdicts and ancilla readings must match exactly; floats
must agree within ``FLOAT_TOL`` (relative above 1), the package's own
convention, so that a correct new route still passes.  The ground truth is
computed here, independently of carmsim, except where carmsim's closed form
is the oracle the issue names.

``reference.json`` holds, for every well-formed op a workload can emit, the
output recorded at the commit that introduced the benchmark: a digest of
everything except the floats, and the set of distinct floats.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

FLOAT_TOL = 1e-10
REFERENCE = Path(__file__).with_name("reference.json")

#: R. G. E. Pinch, "The Carmichael numbers up to 10^21": C(10^3) .. C(10^7)
PINCH_COUNTS = {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105}

#: the 16 Carmichael numbers below 10^5
CARMICHAELS_BELOW_1E5 = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
    41041, 46657, 52633, 62745, 63973, 75361,
)

CERTIFY_P, CERTIFY_R, REPS, CLI_SEED = 16, 2, 100, 42


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


# ------------------------------------------------------------ reference


def _split(obj, floats: list):
    if isinstance(obj, float):
        floats.append(obj)
        return "<float>"
    if isinstance(obj, dict):
        return {k: _split(v, floats) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_split(v, floats) for v in obj]
    return obj


def summarize(payload) -> dict:
    """Digest of the non-float part and the distinct floats of an output."""
    floats: list[float] = []
    skeleton = _split(payload, floats)
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return {"exact": hashlib.sha256(text.encode()).hexdigest(), "floats": sorted(set(floats))}


def against_reference(summary: dict, ref: dict) -> list[str]:
    if summary["exact"] != ref["exact"]:
        return ["non-float output differs from the reference"]
    missing = [f for f in ref["floats"] if not any(close(g, f) for g in summary["floats"])]
    extra = [g for g in summary["floats"] if not any(close(g, f) for f in ref["floats"])]
    if missing or extra:
        return [f"floats differ from the reference: missing {missing[:3]}, extra {extra[:3]}"]
    return []


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------- ground truth


def fermat_counts(k: int) -> tuple[int, int]:
    """(phi(k), t(k)) by census: coprime bases, and those failing Fermat."""
    a = np.arange(1, k, dtype=np.int64)
    coprime = np.gcd(a, k) == 1
    result = np.ones_like(a)
    base, e = a % k, k - 1
    while e:
        if e & 1:
            result = result * base % k
        base = base * base % k
        e >>= 1
    return int(coprime.sum()), int((coprime & (result != 1)).sum())


def _certify_truth(payload: dict, k: int, mode: str, allzero: float) -> list[str]:
    errs = []
    cfg = payload["config"]
    expect_cfg = {"command": "certify", "target": k, "P": CERTIFY_P, "R": CERTIFY_R,
                  "mode": mode, "seed": CLI_SEED, "reps": REPS}
    if any(cfg.get(key) != val for key, val in expect_cfg.items()):
        errs.append(f"config {cfg} != {expect_cfg}")
    phi, t = fermat_counts(k)
    verdicts = payload["verdicts"]
    if len(verdicts) != REPS:
        errs.append(f"{len(verdicts)} verdicts, expected {REPS}")
    theta_gap = math.asin(math.sqrt(phi / (2.0 * k)))
    gap = min(1.0, 1.0 / (CERTIFY_P * math.sin(theta_gap))) ** (2 * CERTIFY_R)
    n_carm = 0
    for v in verdicts:
        ancillas = v["observed_ancillas"]
        if len(ancillas) != CERTIFY_R or not all(0 <= a < CERTIFY_P for a in ancillas):
            errs.append(f"ancillas {ancillas} outside the counter registers")
        carm = not any(ancillas)
        n_carm += carm
        if v["kind"] != ("ProbablyCarmichael" if carm else "NotCarmichael"):
            errs.append(f"verdict {v['kind']} contradicts ancillas {ancillas}")
        if t == 0 and not carm:
            errs.append(f"Carmichael {k} read a nonzero counter")
        retries = v["flag_retries"]
        if (mode == "exact") != (retries == 0) or retries < 0:
            errs.append(f"flag_retries {retries} in {mode} mode")
        if v["grover_applications"] != CERTIFY_R * (CERTIFY_P - 1) * max(retries, 1):
            errs.append(f"grover_applications {v['grover_applications']}")
        if not close(v["flag_probability"], phi / k):
            errs.append(f"flag_probability {v['flag_probability']} != phi/k")
        if mode == "exact":
            want = 0.0 if (not carm or t == 0) else allzero
            if not close(v.get("exact_allzero", math.nan), allzero):
                errs.append(f"exact_allzero {v.get('exact_allzero')} != closed form {allzero}")
        else:
            want = gap if carm else 0.0
        if not close(v["error_bound"], want):
            errs.append(f"error_bound {v['error_bound']} != {want}")
    majority = "ProbablyCarmichael" if 2 * n_carm > len(verdicts) else "NotCarmichael"
    if payload["majority"] != majority:
        errs.append(f"majority {payload['majority']} != {majority}")
    return errs


def _estimate_truth(estimates: list, dim: int, q: int, t: int) -> list[str]:
    errs = []
    if len(estimates) != REPS:
        errs.append(f"{len(estimates)} estimates, expected {REPS}")
    bound = math.pi * (dim / q) * (math.pi / q + 2.0 * math.sqrt(t / dim))
    for e in estimates:
        l = e["l"]
        f = float(min(l, q - l))
        if not 0 <= l < q or not close(e["f_tilde"], f):
            errs.append(f"outcome {l} / f_tilde {e['f_tilde']} outside the counter")
            continue
        if not close(e["t_tilde"], dim * math.sin(math.pi * f / q) ** 2):
            errs.append(f"t_tilde {e['t_tilde']} does not decode l={l}")
        if not close(e["bound"], bound):
            errs.append(f"estimate bound {e['bound']} != {bound}")
    return errs


def _count_truth(payload: dict, n: int, q: int) -> list[str]:
    t = sum(1 for c in CARMICHAELS_BELOW_1E5 if c < n)
    errs = []
    if payload["t_N"] != t:
        errs.append(f"t_N {payload['t_N']} != {t}")
    estimates = payload["estimates"]
    errs += _estimate_truth(estimates, n, q, t)
    bound = math.pi * (n / q) * (math.pi / q + 2.0 * math.sqrt(t / n))
    if not close(payload["error_bound"], bound):
        errs.append(f"error_bound {payload['error_bound']} != {bound}")
    if estimates and not close(payload["t_tilde_median"], statistics.median(e["t_tilde"] for e in estimates)):
        errs.append("t_tilde_median is not the median of the estimates")
    hits = sum(abs(e["t_tilde"] - t) <= bound for e in estimates) / max(1, len(estimates))
    if not close(payload["success_fraction"], hits):
        errs.append(f"success_fraction {payload['success_fraction']} != {hits}")
    return errs


def _bases_truth(payload: dict, k: int, p: int) -> list[str]:
    _, t = fermat_counts(k)
    errs = [] if payload["t_true"] == t else [f"t_true {payload['t_true']} != {t}"]
    return errs + _estimate_truth(payload["estimates"], k, p, t)


def _bounds_truth(payload: dict, n: int, p: int) -> list[str]:
    b = payload["bounds"]
    ks = np.arange(n + 1)
    phi = ks.copy()
    for q in range(2, n + 1):
        if phi[q] == q:  # q is prime
            phi[q::q] -= phi[q::q] // q
    expect = {
        "correction_norm_bound": 4.0 * math.pi**2 / (3.0 * p * p),
        "phi_norm_reference": 6.0 / math.pi**2,
        "beta_composite_bound": 2.0 / (math.sqrt(3.0) * p),
        "phi_norm_pi2_over_6": math.pi**2 / 6.0,
        "phi_norm": float((phi[1:] / ks[1:]).mean()),
    }
    errs = [f"{key} {b[key]} != {val}" for key, val in expect.items() if not close(b[key], val)]
    if b["n"] != n or b["p"] != p:
        errs.append(f"bounds for (n, p) = ({b['n']}, {b['p']})")
    if b["correction_ok"] != (b["correction_norm_sq"] <= b["correction_norm_bound"]):
        errs.append("correction_ok disagrees with the budget")
    return errs


def korselt(k: int) -> bool:
    """Composite, squarefree and p - 1 | k - 1 for every prime p | k."""
    n, primes = k, []
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return False
            primes.append(d)
        d += 1
    if n > 1:
        primes.append(n)
    return len(primes) > 1 and all((k - 1) % (p - 1) == 0 for p in primes)


def _enumerate_truth(payload: dict, n: int) -> list[str]:
    values = payload["carmichaels"]
    errs = [] if payload["count"] == len(values) else ["count != len(carmichaels)"]
    if values != sorted(set(values)) or any(not 2 <= v < n for v in values):
        errs.append("listing is not ascending, distinct and below N")
    bad = [v for v in values if not korselt(v)]
    if bad:
        errs.append(f"not Carmichael: {bad[:5]}")
    below_1e5 = [v for v in values if v < 10**5]
    if below_1e5 != [c for c in CARMICHAELS_BELOW_1E5 if c < n]:
        errs.append("listing below 1e5 is incomplete")
    for bound, count in PINCH_COUNTS.items():
        if n >= bound and sum(1 for v in values if v < bound) != count:
            errs.append(f"C({bound}) != {count} (Pinch)")
    return errs


def check_op(op: dict, stdout: str, reference: dict, oracle: dict) -> list[str]:
    """Correctness errors of one well-formed op that exited 0."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    argv = op["argv"]
    kind, n = op["kind"], int(argv[1])
    if kind == "certify":
        mode = "sample" if "sample" in argv else "exact"
        errs = _certify_truth(payload, n, mode, oracle[n])
    elif kind == "carm":
        errs = _count_truth(payload, n, op["key"][2])
    elif kind == "bases":
        errs = _bases_truth(payload, n, op["key"][2])
    elif kind == "bounds":
        errs = _bounds_truth(payload, n, op["key"][2])
    else:
        errs = _enumerate_truth(payload, n)
    ref = reference.get(" ".join(argv))
    if ref is None:
        errs.append("no reference recorded for this op")
    else:
        errs += against_reference(summarize(payload), ref)
    return [f"{' '.join(argv)}: {e}" for e in errs]


def certify_oracle(carmsim, ks: set[int]) -> tuple[dict[int, float], list[str]]:
    """Dense certification law vs closed form for each k; the all-zeros mass.

    Each distinct law must match counting.exact_count_joint(k, t, P, R)
    within FLOAT_TOL.
    """
    allzero, errs = {}, []
    for k in sorted(ks):
        _, t = fermat_counts(k)
        closed = carmsim.counting.exact_count_joint(k, t, CERTIFY_P, CERTIFY_R)
        dense = carmsim.carmichael.ancilla_distribution(k, CERTIFY_P, CERTIFY_R)
        diff = float(np.max(np.abs(dense - closed)))
        if diff > FLOAT_TOL:
            errs.append(f"certify law of k={k} differs from the closed form by {diff}")
        allzero[k] = float(closed[(0,) * CERTIFY_R])
    return allzero, errs

"""Seeded CLI op lists for the three benchmark workloads.

A run is several *rounds*.  Every round of a workload has the same slots,
and each slot draws its argument from a narrow band, so all rounds (and all
seeds) carry nearly the same work; the seed only picks the exact integers,
the modes and the order.  No two ops of one run share a law input, so a
cache kept across commands (which a fresh CLI process never has) cannot
show a gain, while reuse across the reps of one command still can.

The slots of a workload form three cost groups: L (cheap), M and T
(costly), with as many ops in L as in T, so the median latency falls in the
middle of M and the op with 10 ops beyond it (the tail) inside T.  Order
statistics taken inside a group of similar ops spread over the whole run
are far steadier than ones taken at the edge between two groups of
different cost, and the more of the run a group fills, the less its order
statistic follows the host's second-to-second speed; so M, which holds the
median, has the most slots, and L is made of the cheapest ops.  A few
*special* inputs (named Carmichael numbers and pseudoprimes, and the
largest N of a workload) each replace one draw of a slot in one round per
run; the largest input of a run is always a special one, so peak memory
does not follow the seed.

Each op is a dict: ``argv`` (what ``carmsim.cli.main`` receives), ``kind``,
``key`` (its law input, ``None`` for malformed ops), ``expect_exit`` and
``wellformed``.  Every well-formed op a generator can emit is listed by
``all_wellformed_ops`` so that a reference can be recorded for it.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

WORKLOADS = ("certify", "count", "sweep")

#: rounds in a run of RUN_SECONDS; the cost groups below are laid out for them
RUN_SECONDS = 30
ROUNDS = {"certify": 5, "count": 7, "sweep": 7}

#: Carmichael numbers and base-2 Fermat pseudoprimes below 1500; each is a
#: special input of the certify workload, so every run certifies each once
CARMICHAELS = (561, 1105)
PSEUDOPRIMES_2 = (341, 645, 1387)

#: one cheap op per workload, outside every pool: the set-up probe and the
#: warm-up of a timed run
WARMUP = {
    "certify": ["certify", "51", "--output", "json"],
    "count": ["count-carmichael", "5000", "--Q", "64", "--output", "json"],
    "sweep": ["bounds", "1000", "--output", "json"],
}

_POOL_SIZE = 12


class Slot(NamedTuple):
    """One op per round: `kind` on an integer from [lo, hi).

    `size` is the counter size (P or Q) where the command takes one.  Each
    special number replaces the band draw in one round of every run.
    """

    kind: str
    lo: int
    hi: int
    size: int | None = None
    specials: tuple[int, ...] = ()


_SLOTS = {
    "certify": (
        Slot("certify", 4, 20, specials=(15,)),  # L
        Slot("certify", 20, 60),
        Slot("certify", 60, 100),
        Slot("certify", 300, 330),  # M
        Slot("certify", 330, 360, specials=(341,)),
        Slot("certify", 360, 390),
        Slot("certify", 390, 420),
        Slot("certify", 420, 450),
        Slot("certify", 600, 627, specials=(561,)),  # T
        Slot("certify", 627, 663, specials=(645,)),
        Slot("certify", 663, 700, specials=(1105, 1387)),
    ),
    "count": (
        Slot("carm", 10_000, 11_000, 64),  # L
        Slot("carm", 13_000, 14_000, 128),
        Slot("bases", 24_000, 26_000, 64),
        Slot("carm", 64_000, 66_000, 64),  # M
        Slot("carm", 66_000, 68_000, 64),
        Slot("carm", 34_000, 36_000, 128),
        Slot("carm", 47_000, 49_000, 256),  # T
        Slot("carm", 94_000, 96_000, 128),
        Slot("carm", 96_000, 98_000, 128, specials=(100_000,)),
    ),
    "sweep": (
        Slot("enum", 10_000, 11_000),  # L
        Slot("bounds", 2_000, 2_200, 16),
        Slot("enum", 100_000, 110_000),
        Slot("enum", 700_000, 740_000),  # M
        Slot("enum", 740_000, 780_000),
        Slot("enum", 780_000, 820_000),
        Slot("enum", 820_000, 860_000),
        Slot("enum", 860_000, 900_000),
        Slot("bounds", 30_000, 31_000, 16),  # T
        Slot("bounds", 31_000, 32_000, 64, specials=(100_000,)),
        Slot("enum", 1_500_000, 1_550_000, specials=(10_000_000,)),
    ),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _spread(values: list[int], size: int = _POOL_SIZE) -> list[int]:
    """At most `size` values taken evenly across a sorted candidate list."""
    if len(values) <= size:
        return values
    step = len(values) / size
    return [values[int(i * step)] for i in range(size)]


def _composites(lo: int, hi: int, parity: int | None = None) -> list[int]:
    special = set(CARMICHAELS) | set(PSEUDOPRIMES_2)
    out = [
        k
        for k in range(lo, hi)
        if not _is_prime(k) and k not in special and (parity is None or k % 2 == parity)
    ]
    return _spread(out)


def _candidates(slot: Slot) -> list[int]:
    """Band draws of a slot, one parity per band so that the ops of a cost
    group stay alike: odd composites for certify above k = 100 (like the
    named specials) and for count-bases, even N for the other commands, which
    also keeps a count-bases law from ever matching a count-carmichael one."""
    if slot.kind == "certify":
        pool = _composites(slot.lo, slot.hi, parity=1 if slot.lo >= 100 else None)
    elif slot.kind == "bases":
        pool = _composites(slot.lo, slot.hi, parity=1)
    else:
        pool = _spread(list(range(slot.lo + slot.lo % 2, slot.hi, 2)))
    return [n for n in pool if n not in slot.specials]


_REPS0_POOL = _composites(1450, 1500)
_PRIME_POOL = [k for k in range(100, 1500) if _is_prime(k)]


def _op(kind: str, n: int, size: int | None = None, mode: str = "exact") -> dict:
    if kind == "certify":
        argv = ["certify", str(n)] + (["--mode", "sample"] if mode == "sample" else [])
        key = ("law", n, 16, 2)
    else:
        command, flag = {"carm": ("count-carmichael", "--Q"), "bases": ("count-bases", "--P"),
                         "bounds": ("bounds", "--P"), "enum": ("enumerate", None)}[kind]
        argv = [command, str(n)] + ([flag, str(size)] if flag else [])
        key = (kind, n, size)
    return {"argv": argv + ["--output", "json"], "kind": kind, "key": key,
            "expect_exit": 0, "wellformed": True}


def _malformed_op(argv: list[str], kind: str) -> dict:
    return {"argv": argv + ["--output", "json"], "kind": kind, "key": None,
            "expect_exit": 2, "wellformed": False}


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds for a run of `seconds`, at most what every slot's band holds."""
    most = min(len(_candidates(slot)) + len(slot.specials) for slot in _SLOTS[workload])
    return min(most, max(1, round(ROUNDS[workload] * seconds / RUN_SECONDS)))


def build_rounds(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """The seeded op list of one run, split into rounds of equal shape."""
    rng = random.Random(f"{workload}:{seed}")
    per_slot = []
    for slot in _SLOTS[workload]:
        specials = list(slot.specials[:rounds])
        picks = rng.sample(_candidates(slot), rounds - len(specials)) + specials
        rng.shuffle(picks)  # the seed picks the round of each special number
        per_slot.append(picks)
    out = [[_op(slot.kind, picks[r], slot.size) for slot, picks in zip(_SLOTS[workload], per_slot)]
           for r in range(rounds)]

    if workload == "certify":
        wellformed = [op for ops in out for op in ops]
        for op in rng.sample(wellformed, len(wellformed) // 2):
            op.update(_op("certify", op["key"][1], mode="sample"))
        reps0 = rng.sample(_REPS0_POOL, rounds)
        primes = rng.sample(_PRIME_POOL, rounds)
        for ops, k, q in zip(out, reps0, primes):
            # --reps 0 must be rejected (exit 2); a prime k is outside the
            # certification domain and must exit 2 as well
            ops.append(_malformed_op(["certify", str(k), "--reps", "0"], "reps0"))
            ops.append(_malformed_op(["certify", str(q)], "prime"))
    for ops in out:
        rng.shuffle(ops)

    keys = [op["key"] for ops in out for op in ops if op["key"] is not None]
    if len(keys) != len(set(keys)):
        raise AssertionError("two ops of one run share a law input")
    return out


def all_wellformed_ops(workload: str) -> list[dict]:
    """Every well-formed op the generator of `workload` can emit."""
    ops = []
    for slot in _SLOTS[workload]:
        for n in _candidates(slot) + list(slot.specials):
            ops.append(_op(slot.kind, n, slot.size))
            if slot.kind == "certify":
                ops.append(_op(slot.kind, n, mode="sample"))
    return ops

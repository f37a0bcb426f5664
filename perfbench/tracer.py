"""Span tracing of carmsim's public functions, installed from outside.

Each public function of ``numtheory``, ``qsim``, ``counting``,
``carmichael`` and ``cli`` is replaced on its module by a wrapper that
records a span (name, start, end, parent, op).  The package's modules call
each other, and themselves, through module attributes, so calls inside the
package are caught too.  ``Factorization.__post_init__`` is wrapped as well:
it re-proves the primality of every factor, and that cost belongs to the
factorization layer.  Spans live in compact arrays and are written once,
when the run ends.

Self time is a span's duration minus the time its direct child spans cover.
Counts (amplitudes, law builds, Grover applications...) are derived from
call arguments and return values in the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("numtheory", "qsim", "counting", "carmichael", "cli")

#: layers reported as one group: the three sieves, and factorization with
#: the primality proofs of its factors
GROUPS = {
    "numtheory.sieve": ("numtheory.prime_sieve", "numtheory.spf_sieve", "numtheory.totient_sieve"),
    "numtheory.factorize": (
        "numtheory.factorize",
        "numtheory.factors_from_spf",
        "numtheory.Factorization.__post_init__",
        "numtheory.is_prime",
    ),
}

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("qsim.controlled_grover_powers.self_s", "s", "lower"),
    ("qsim.controlled_grover_powers.calls", "count", "lower"),
    ("qsim.qft.self_s", "s", "lower"),
    ("qsim.qft.calls", "count", "lower"),
    ("qsim.exact_distribution.self_s", "s", "lower"),
    ("qsim.exact_distribution.calls", "count", "lower"),
    ("qsim.amplitudes_built", "count", "lower"),
    ("qsim.largest_state_mb", "MiB", "lower"),
    ("carmichael.laws_per_distinct_input", "ratio", "lower"),
    ("carmichael.certify.self_s", "s", "lower"),
    ("carmichael.ancilla_distribution.self_s", "s", "lower"),
    ("carmichael.fermat_failure_mask.self_s", "s", "lower"),
    ("carmichael.grover_applications", "count", "lower"),
    ("carmichael.flag_retries", "count", "lower"),
    ("carmichael.perturbation_bounds.self_s", "s", "lower"),
    ("numtheory.factorize.calls", "count", "lower"),
    ("numtheory.factorize.self_s", "s", "lower"),
    ("numtheory.enumerate_carmichaels.self_s", "s", "lower"),
    ("numtheory.sieve.self_s", "s", "lower"),
    ("numtheory.sieve.elements", "count", "lower"),
    ("counting.run_count.self_s", "s", "lower"),
    ("counting.count_distribution_dense.self_s", "s", "lower"),
    ("counting.estimates_decoded", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

QSIM_SPANS = (
    "qsim.controlled_grover_powers",
    "qsim.qft",
    "qsim.exact_distribution",
)


class Tracer:
    """Wrappers, span arrays and derived counts of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self.amplitudes_built = 0
        self.largest_state_bytes = 0
        self.law_builds = 0
        self.law_inputs: dict[tuple, set[int]] = {}
        self.grover_applications = 0
        self.flag_retries = 0
        self.estimates_decoded = 0
        self.sieve_elements = 0
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop spans and counts so far; installed wrappers keep recording."""
        for arr in (self.name_id, self.parent, self.op_id, self.start, self.end):
            del arr[:]
        self.amplitudes_built = self.largest_state_bytes = self.law_builds = 0
        self.grover_applications = self.flag_retries = 0
        self.estimates_decoded = self.sieve_elements = 0
        self.law_inputs.clear()

    # ------------------------------------------------------------ install

    def install(self, package) -> None:
        hooks = self._hooks()
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                self._replace(module, attr, self._wrap(name, fn, hooks.get(name)))
        fact = package.numtheory.Factorization
        self._replace(
            fact, "__post_init__",
            self._wrap("numtheory.Factorization.__post_init__", fact.__post_init__, None),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, after):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -------------------------------------------------------------- counts

    def _hooks(self) -> dict:
        def state(args, kwargs, result) -> None:
            self.amplitudes_built += result.amplitudes.size
            self.largest_state_bytes = max(self.largest_state_bytes, result.amplitudes.nbytes)

        def postselect(args, kwargs, result) -> None:
            state(args, kwargs, result[0])

        def law(kind):
            def hook(args, kwargs, result) -> None:
                # the mask or predicate is a function of the numeric inputs
                key = (kind,) + tuple(a for a in args if isinstance(a, int))
                self.law_builds += 1
                self.law_inputs.setdefault(key, set()).add(self.op)
            return hook

        def verdict(args, kwargs, result) -> None:
            self.grover_applications += result.grover_applications
            self.flag_retries += result.flag_retries

        def estimates(args, kwargs, result) -> None:
            self.estimates_decoded += len(result)

        def sieve(args, kwargs, result) -> None:
            self.sieve_elements += result.size

        hooks = {
            f"qsim.{n}": state
            for n in ("uniform_state", "phase_flip", "diffusion", "qft", "controlled_grover_powers")
        }
        hooks["qsim.postselect"] = postselect
        hooks["carmichael.ancilla_distribution"] = law("ancilla")
        hooks["counting.count_distribution_dense"] = law("dense")
        hooks["carmichael.certify"] = verdict
        hooks["counting.run_count"] = estimates
        for name in GROUPS["numtheory.sieve"]:
            hooks[name] = sieve
        return hooks

    # ------------------------------------------------------------ results

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so that the arrays keep no export on the growing buffers
        return {
            "names": np.array(self.names),
            "name_id": np.array(self.name_id, dtype=np.uint16),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, **self.arrays())

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name total self time and call count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - covered
        names = a["names"]
        self_s = np.bincount(a["name_id"], weights=own, minlength=len(names))
        calls = np.bincount(a["name_id"], minlength=len(names))
        return (
            {str(n): float(s) for n, s in zip(names, self_s)},
            {str(n): int(c) for n, c in zip(names, calls)},
        )

    def shared_law_inputs(self) -> list[tuple]:
        """Law inputs built by more than one op (must be empty)."""
        return sorted(k for k, ops in self.law_inputs.items() if len(ops) > 1)

    def per_layer(self, output_bytes: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, which needs an
        untraced run to compare with."""
        self_s, calls = self.self_times()

        def group(name: str, table: dict):
            return sum(table.get(n, 0) for n in GROUPS.get(name, (name,)))

        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            layer, _, what = metric.rpartition(".")
            if what == "self_s":
                out[metric] = float(group(layer, self_s))
            elif what == "calls":
                out[metric] = int(group(layer, calls))
        distinct = len(self.law_inputs)
        out.update({
            "qsim.amplitudes_built": self.amplitudes_built,
            "qsim.largest_state_mb": self.largest_state_bytes / 2**20,
            "carmichael.laws_per_distinct_input": self.law_builds / distinct if distinct else 0.0,
            "carmichael.grover_applications": self.grover_applications,
            "carmichael.flag_retries": self.flag_retries,
            "numtheory.sieve.elements": self.sieve_elements,
            "counting.estimates_decoded": self.estimates_decoded,
            "cli.output_bytes": output_bytes,
        })
        return {name: out[name] for name, _, _ in PER_LAYER if name in out}

    def layers_seen(self) -> set[str]:
        """Span names with at least one span, plus each group that has one."""
        _, calls = self.self_times()
        seen = {n for n, c in calls.items() if c > 0}
        seen |= {g for g, members in GROUPS.items() if seen & set(members)}
        return seen

"""Per-layer tracing from outside the program.

The tracer wraps functions and methods of the `tuttekit` modules from the
benchmark's own code, so nothing under `src/` changes.  A function wrapper
is installed in every module namespace that binds the original object,
because modules import names from each other (`tutte.py` binds
`snf_invariant_factors` from `lattice.py`); a method wrapper replaces every
class attribute that is the original function (`__radd__ = __add__`).

Self time is a call's duration minus the durations of the wrapped calls it
made.  Total time counts only the outermost call of a recursion.  A target
that no longer exists is reported as missing (value None), never as 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    target: str  # "module:function" or "module:Class.method"
    stat: str  # "calls", "self_s", "total_s", or "sum"/"max" of fn(args, kwargs, result)
    fn: Optional[Callable[[tuple, dict, Any], float]] = None


def _count_status(status: str) -> Callable[[tuple, dict, Any], float]:
    return lambda args, kwargs, result: sum(1 for r in result if r.status == status)


def _torus_points(args, kwargs, result) -> float:
    config, p = args[0], args[1]
    return (p - 1) ** config.lattice.rank


_DICTIONARY = "signed_graphs:graph_dictionary_tutte"

METRICS: List[Metric] = [
    Metric("lattice.snf_calls", "count", "lattice:snf_invariant_factors", "calls"),
    Metric("lattice.snf_self_s", "s", "lattice:snf_invariant_factors", "self_s"),
    Metric("lattice.rank_calls", "count", "lattice:int_matrix_rank", "calls"),
    Metric("lattice.rank_self_s", "s", "lattice:int_matrix_rank", "self_s"),
    Metric("lattice.lcm_s", "s", "lattice:multiplicity_lcm", "total_s"),
    Metric("tutte.bruteforce_s", "s", "tutte:arithmetic_tutte_bruteforce", "total_s"),
    Metric("tutte.bruteforce_self_s", "s", "tutte:arithmetic_tutte_bruteforce", "self_s"),
    Metric("tutte.subsets", "count", "tutte:arithmetic_tutte_bruteforce", "sum",
           lambda args, kwargs, result: 2 ** len(args[0])),
    Metric("tutte.from_coboundary_s", "s", "tutte:tutte_from_coboundary", "total_s"),
    Metric("tutte.to_coboundary_s", "s", "tutte:coboundary_from_tutte", "total_s"),
    Metric("finitefield.profile_calls", "count", "finitefield:_enumerate_profile", "calls"),
    Metric("finitefield.profile_s", "s", "finitefield:_enumerate_profile", "total_s"),
    Metric("finitefield.points", "count", "finitefield:_enumerate_profile", "sum", _torus_points),
    Metric("finitefield.prime_tests", "count", "finitefield:is_prime", "calls"),
    Metric("finitefield.interpolate_s", "s", "finitefield:tutte_via_interpolation", "total_s"),
    Metric("finitefield.identity_s", "s", "finitefield:verify_finite_field_identity", "total_s"),
    Metric("genfun.expand_calls", "count", "genfun:expand_genfun", "calls"),
    Metric("genfun.expand_s", "s", "genfun:expand_genfun", "total_s"),
    Metric("genfun.max_order", "count", "genfun:expand_genfun", "max",
           lambda args, kwargs, result: args[0].order),
    Metric("series.exp_calls", "count", "series:TruncSeries.exp", "calls"),
    Metric("series.exp_self_s", "s", "series:TruncSeries.exp", "self_s"),
    Metric("series.log_self_s", "s", "series:TruncSeries.log", "self_s"),
    Metric("series.mul_self_s", "s", "series:TruncSeries.__mul__", "self_s"),
    Metric("poly.mul_calls", "count", "poly:MultiPoly.__mul__", "calls"),
    Metric("poly.mul_self_s", "s", "poly:MultiPoly.__mul__", "self_s"),
    Metric("poly.add_calls", "count", "poly:MultiPoly.__add__", "calls"),
    Metric("poly.add_self_s", "s", "poly:MultiPoly.__add__", "self_s"),
    Metric("poly.divide_exact_s", "s", "poly:MultiPoly.divide_exact", "total_s"),
    Metric("poly.substitute_s", "s", "poly:MultiPoly.substitute", "total_s"),
    Metric("signed_graphs.dictionary_calls", "count", _DICTIONARY, "calls"),
    Metric("signed_graphs.dictionary_s", "s", _DICTIONARY, "total_s"),
    Metric("invariants.derive_calls", "count", "invariants:derive_all", "calls"),
    Metric("invariants.derive_s", "s", "invariants:derive_all", "total_s"),
    Metric("root_systems.build_config_calls", "count", "root_systems:build_config", "calls"),
    Metric("root_systems.build_config_s", "s", "root_systems:build_config", "total_s"),
    Metric("verify.checks_pass", "count", "verify:verify_system", "sum", _count_status("pass")),
    Metric("verify.checks_skip", "count", "verify:verify_system", "sum", _count_status("skip")),
    Metric("verify.checks_fail", "count", "verify:verify_system", "sum", _count_status("fail")),
    Metric("verify.self_s", "s", "verify:verify_system", "self_s"),
    Metric("cli.self_s", "s", "cli:main", "self_s"),
]


class Tracer:
    """Wraps the targets of `metrics` inside `package` and accumulates stats."""

    def __init__(
        self,
        metrics: List[Metric] = METRICS,
        package: str = "tuttekit",
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.metrics = metrics
        self.package = package
        self.clock = clock
        self.missing: List[str] = []  # targets not found at install time
        self._restore: List[Tuple[Any, str, Any]] = []
        self._stack: List[float] = []  # wrapped-child time of each open call
        self._depth: Dict[str, int] = {}
        self.stats: Dict[str, Dict[str, float]] = {}
        self.custom: Dict[str, float] = {}

    def _resolve(self, target: str) -> Tuple[Any, Any]:
        """Return (owner, original), with original None when the target is gone."""
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return None, None
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        return owner, None if owner is None else vars(owner).get(attr)

    def install(self) -> None:
        by_target: Dict[str, List[Metric]] = {}
        for m in self.metrics:
            by_target.setdefault(m.target, []).append(m)
        for target, metrics in by_target.items():
            owner, original = self._resolve(target)
            if original is None:
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, metrics)
            if isinstance(owner, type):
                holders = [owner]
            else:
                prefix = self.package + "."
                holders = [
                    mod
                    for name, mod in list(sys.modules.items())
                    if mod is not None and (name == self.package or name.startswith(prefix))
                ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, value))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._restore):
            setattr(holder, name, value)
        self._restore.clear()

    def _wrap(self, target: str, original: Callable, metrics: List[Metric]) -> Callable:
        stats = self.stats.setdefault(target, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        hooks = [m for m in metrics if m.fn is not None]
        stack, depth, custom = self._stack, self._depth, self.custom
        clock = self.clock

        def wrapper(*args, **kwargs):
            depth[target] = depth.get(target, 0) + 1
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                depth[target] -= 1
                if stack:
                    stack[-1] += duration
                stats["calls"] += 1
                stats["self_s"] += duration - children
                if depth[target] == 0:
                    stats["total_s"] += duration
            for m in hooks:
                value = m.fn(args, kwargs, result)
                old = custom.get(m.name, 0)
                custom[m.name] = max(old, value) if m.stat == "max" else old + value
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def values(self) -> Dict[str, Optional[float]]:
        """Metric name -> value; None for a metric whose target is missing."""
        out: Dict[str, Optional[float]] = {}
        for m in self.metrics:
            if m.target in self.missing:
                out[m.name] = None
            elif m.fn is not None:
                out[m.name] = self.custom.get(m.name, 0)
            else:
                out[m.name] = self.stats[m.target][m.stat]
        return out

"""Span tracing of the solver's layers, installed from outside the package.

The tracer replaces each layer's public function or method with a wrapper
that records one span (name, start, end, parent span, pass id) per call.
Spans stay in memory; self times are computed from them after the run.
Nothing inside ``ptcsmooth`` knows about the tracer.

A module-level function can be looked up through several names: for example
``factor_block_tridiag`` is imported by name into ``ptc`` and ``smoother``.
``Tracer.install`` therefore rebinds every global of every loaded
``ptcsmooth`` module that refers to the original function. A site whose name
no longer resolves, or a layer that a workload expects but that records no
call, is an error: a later refactor must not make a layer silently read zero.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "ptcsmooth"


class TraceGuardError(RuntimeError):
    """A wrapped name does not resolve, or an expected layer recorded nothing."""


@dataclass(frozen=True)
class Site:
    """One traced public name: span name, defining module, attribute path.

    ``attr`` is ``"func"`` for a module-level function or ``"Class.method"``
    for a method, wrapped on the class that defines it.
    """

    span: str
    module: str
    attr: str


# Span names double as the per-layer metric prefixes. core and cli get no
# span: core's cost falls inside its callers' self time, and the benchmark
# does not call cli.
SITES: Tuple[Site, ...] = (
    Site("ptc", "ptcsmooth.ptc", "solve_steady"),
    Site("ptc.precon_build", "ptcsmooth.ptc", "build_ptc_preconditioner"),
    Site("ptc.line_search", "ptcsmooth.ptc", "line_search"),
    Site("linalg.gmres", "ptcsmooth.linalg", "gmres_right_preconditioned"),
    Site("linalg.factor", "ptcsmooth.linalg", "factor_block_tridiag"),
    Site("linalg.line_solve", "ptcsmooth.linalg",
         "BlockTridiagFactorization.solve_values"),
    Site("lines.extract", "ptcsmooth.lines", "extract_lines"),
    Site("smoother.build", "ptcsmooth.smoother", "build_smoother"),
    Site("smoother.rk", "ptcsmooth.smoother", "rk_smooth"),
    Site("problems.residual", "ptcsmooth.problems.convdiff",
         "AnisoConvDiffProblem.residual"),
    Site("problems.jv", "ptcsmooth.problems.convdiff",
         "AnisoConvDiffProblem.jacobian_vector"),
    Site("problems.blocks", "ptcsmooth.problems.convdiff",
         "AnisoConvDiffProblem.first_order_blocks"),
    Site("problems.residual", "ptcsmooth.problems.euler",
         "Quasi1dEulerProblem.residual"),
    Site("problems.jv", "ptcsmooth.problems.euler",
         "Quasi1dEulerProblem.jacobian_vector"),
    Site("problems.blocks", "ptcsmooth.problems.euler",
         "Quasi1dEulerProblem.first_order_blocks"),
    # The BDF wrapper's own work (time term, diagonal shift) is time
    # stepping; the inner problem calls it makes are child spans.
    Site("timestepping", "ptcsmooth.timestepping", "advance_unsteady"),
    Site("timestepping", "ptcsmooth.timestepping", "BdfStepSystem.residual"),
    Site("timestepping", "ptcsmooth.timestepping",
         "BdfStepSystem.jacobian_vector"),
    Site("timestepping", "ptcsmooth.timestepping",
         "BdfStepSystem.first_order_blocks"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(s.span for s in SITES))


def _count_unconverged(counters, result):
    counters["linalg.gmres.unconverged"] += 0 if result[1].converged else 1


def _count_degraded(counters, result):
    counters["smoother.degraded"] += 1 if result.degraded else 0


def _count_trials(counters, result):
    counters["ptc.line_search.trials"] += len(result.f_values) - 1


def _count_lines(counters, result):
    counters["lines.multi_cell_cells"] += result.covered_by_multi()
    counters["lines.cells"] += result.n_cells


# Counts taken from a layer's return value at the layer boundary.
RESULT_COUNTERS: Dict[str, Callable] = {
    "linalg.gmres": _count_unconverged,
    "smoother.rk": _count_degraded,
    "ptc.line_search": _count_trials,
    "lines.extract": _count_lines,
}


class Tracer:
    """Records spans around the layer boundaries listed in ``sites``.

    Spans are lists ``[name, start, end, parent_index, pass_id]``; the parent
    index is -1 for a span with no traced caller. Set ``pass_id`` before a
    solve to label its spans.
    """

    def __init__(self, sites: Tuple[Site, ...] = SITES):
        self.sites = sites
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.pass_id: Optional[str] = None
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, counters = self.spans, self._stack, self.counters
        on_result = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every site; raise TraceGuardError if one does not resolve."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for site in self.sites:
                self._install_site(site)
        except BaseException:
            self.uninstall()
            raise

    def _install_site(self, site: Site) -> None:
        try:
            module = importlib.import_module(site.module)
        except ImportError as exc:
            raise TraceGuardError(
                f"{site.span}: module {site.module} does not import") from exc
        head, _, method = site.attr.partition(".")
        owner = module.__dict__.get(head)
        if owner is None:
            raise TraceGuardError(
                f"{site.span}: {site.module}.{head} does not resolve")
        if method:
            if not isinstance(owner, type) or not callable(
                    owner.__dict__.get(method)):
                raise TraceGuardError(
                    f"{site.span}: {site.module}.{site.attr} is not a method "
                    "defined on that class")
            self._bind(owner, method,
                       self.wrap(site.span, owner.__dict__[method]))
            return
        if not callable(owner):
            raise TraceGuardError(
                f"{site.span}: {site.module}.{head} is not callable")
        traced = self.wrap(site.span, owner)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is owner:
                    self._bind(mod, attr, traced)
        if module.__dict__[head] is not traced:
            raise TraceGuardError(
                f"{site.span}: {site.module}.{head} was not rebound")

    def uninstall(self) -> None:
        """Restore every binding ``install`` replaced, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time (duration minus child durations)
        and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return dict(self_s), dict(calls)

    def check_expected(self, expected) -> None:
        """Raise TraceGuardError naming every expected layer with no call."""
        _, calls = self.self_times()
        missing = sorted(name for name in expected if not calls.get(name))
        if missing:
            raise TraceGuardError(
                "expected layers recorded no call: " + ", ".join(missing))

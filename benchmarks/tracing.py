"""Spans and counters recorded from outside the program.

During a traced pass, ``Tracer.install`` replaces the public fvar functions
listed in ``SPANNED`` with wrappers that record a span (name, start, end,
parent) around each call, and ``fit_row`` and ``block_fista_gram`` with
wrappers that only add to counters, so the solve time stays in the span
that ran it.  Every reference an fvar module holds to the
original function is replaced, so calls between fvar's own modules are
seen too.  ``uninstall`` restores the originals.

Parents follow the calling thread.  A call made on a worker thread of one
of fvar's pools has no open span on its own thread, so its parent is the
innermost open span of the thread that installed the tracer, which is the
one blocked waiting for the pool.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

# (module, attribute, span name); attribute "Class.method" patches a method
SPANNED = [
    ("fvar.pipeline", "fpca_panel", "fpca.panel"),
    ("fvar.fpca", "cross_validate", "fpca.cv"),
    ("fvar.solver", "build_design", "solver.design"),
    ("fvar.solver", "regularization_path", "solver.path"),
    ("fvar.solver", "recover_kernels", "solver.recover"),
    ("fvar.pipeline", "fit_rows", "solver.fit_rows"),
    ("fvar.pipeline", "fit_vfar", "pipeline.fit_vfar"),
    ("fvar.network", "read_price_csv", "network.read_prices"),
    ("fvar.network", "cidr_transform", "network.cidr"),
    ("fvar.network", "roc_and_auroc", "network.roc"),
    ("fvar.network", "relative_error", "network.relative_error"),
    ("fvar.network", "extract_network", "network.extract"),
    ("fvar.panel", "CurvePanel.to_csv", "panel.to_csv"),
    ("fvar.panel", "CurvePanel.to_npz", "panel.to_npz"),
    ("fvar.panel", "CurvePanel.from_npz", "panel.from_npz"),
    ("fvar.vfar", "simulate", "vfar.simulate"),
    ("fvar.moments", "stability_measure_var1", "moments.measure"),
    ("fvar.moments", "var1_stationary_cov", "moments.stationary_cov"),
    ("fvar.moments", "var1_spectral_density", "moments.spectral_density"),
    ("fvar.harness", "run_concentration", "harness.concentration"),
]

# Per-layer metrics that are the summed self time of one span name.
SELF_TIME_METRICS = {name + "_s": name for _, _, name in SPANNED}

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
LAYER_METRICS = {
    "fpca.panel_s": "s", "fpca.cv_s": "s",
    "solver.path_s": "s", "solver.recover_s": "s", "solver.fit_rows_s": "s",
    "solver.design_s": "s", "solver.fista_iterations": "count",
    "solver.fits": "count", "solver.us_per_iteration": "us",
    "solver.nonconverged_fits": "count", "solver.kkt_worst": "1",
    "pipeline.fit_vfar_s": "s",
    "network.read_prices_s": "s", "network.cidr_s": "s", "network.roc_s": "s",
    "network.relative_error_s": "s", "network.extract_s": "s",
    "panel.to_csv_s": "s", "panel.to_npz_s": "s", "panel.from_npz_s": "s",
    "cli.self_s": "s", "cli.kernels_json_bytes": "bytes",
    "vfar.simulate_s": "s",
    "moments.measure_s": "s", "moments.stationary_cov_s": "s",
    "moments.spectral_density_s": "s", "moments.theta_evaluations": "count",
    "moments.us_per_theta": "us",
    "harness.concentration_s": "s",
    "trace.overhead_ratio": "1",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class NullTracer:
    """Stands in for a Tracer in untraced passes."""

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack: list[int] = []
        self._home = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -------------------------------------------------------- patching

    def _spanned(self, fn, name):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted_fit_row(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            fit = fn(*args, **kwargs)
            self.count("solver.fits")
            self.count("solver.nonconverged_fits", float(not fit.converged))
            return fit
        return wrapper

    def _counted_fista(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            info = fn(*args, **kwargs)
            self.count("solver.fista_seconds", time.perf_counter() - start)
            self.count("solver.fista_iterations", info.iterations)
            return info
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fvar" and not mod_name.startswith("fvar."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self) -> None:
        """Wrap the public functions; call ``uninstall`` to undo."""
        for mod_name, attr, name in SPANNED:
            module = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._spanned(raw.__func__, name))
                else:
                    new = self._spanned(raw, name)
                self._replace(cls, meth, new)
            else:
                original = getattr(module, attr)
                self._replace_everywhere(original, self._spanned(original, name))
        solver = sys.modules["fvar.solver"]
        self._replace_everywhere(solver.fit_row,
                                 self._counted_fit_row(solver.fit_row))
        self._replace_everywhere(solver.block_fista_gram,
                                 self._counted_fista(solver.block_fista_gram))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------- reporting

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the union of the
        intervals its children cover."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s.name] += (s.end - s.start) - covered
        return totals

    def inclusive_time(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def to_records(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]

"""In-memory span recorder for the traced benchmark run.

The recorder wraps public ``cellmimo`` functions under the names their
callers bind (``cellmimo.rate.coverage_pzf`` is the name ``sinr_ccdf``'s
closures look up, ``cellmimo.specfun.hyp2f1_negz`` the one the kernels call,
and so on), so no file under ``src/`` changes.  Each call becomes a span
``[name, start, end, parent]``; the module boundaries are the layers:

    cli -> rate -> pzf / mmse -> specfun / combinatorics,  cli -> montecarlo

A target that a later version of the package no longer has is skipped; its
metrics then read 0.  Counts are kept at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

import numpy as np

# Documented branch rule of cellmimo.specfun.hyp2f1_negz.
SERIES_SWITCH = 24.0
INT_SEPARATION = 0.05

COVERAGE_SPANS = ("pzf.cov_il", "pzf.cov_noisy", "mmse.cov_il", "mmse.cov_noisy")


class SpanRecorder:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped so that every call records a span named ``name``.

        ``count(counts, args, kwargs)`` runs inside the span, before the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(record)
            if count is not None:
                try:
                    count(self.counts, args, kwargs)
                except Exception:  # noqa: BLE001 - a changed signature must not fail the call
                    self.counts["trace.count_errors"] += 1
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced

    def counted(self, key: str, fn):
        """``fn`` wrapped to bump ``counts[key]`` per call, with no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


class _QuadModule:
    """Stands in for ``scipy.integrate`` inside one cellmimo module: ``quad``
    is traced and its integrand counted; every other name passes through."""

    def __init__(self, module, quad) -> None:
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_hyp2f1(counts, args, kwargs):
    a, b = float(_arg(args, kwargs, 0, "a")), float(_arg(args, kwargs, 1, "b"))
    z = np.asarray(_arg(args, kwargs, 3, "z"), dtype=float)
    small = int(np.count_nonzero(z <= SERIES_SWITCH))
    counts["specfun.points.series"] += small
    d = a - b
    branch = "connection" if a > 0.0 and abs(d - round(d)) >= INT_SEPARATION else "mpmath"
    counts["specfun.points." + branch] += z.size - small


def _count_kernel_points(counts, args, kwargs):
    counts["pzf.kernel_points"] += np.size(_arg(args, kwargs, 3, "z"))


def _count_simulation(counts, args, kwargs):
    mc = importlib.import_module("cellmimo.montecarlo")
    config = _arg(args, kwargs, 0, "config")
    trials = int(_arg(args, kwargs, 2, "trials"))
    radius = kwargs.get("window_radius")
    if radius is None:
        radius = mc.default_window_radius(config.lam)
    stations = config.lam * math.pi * radius**2
    chunk = getattr(mc, "CHUNK_TRIALS", 512)
    counts["montecarlo.trials"] += trials
    counts["montecarlo.chunks"] += -(-trials // chunk)
    counts["montecarlo.station_trials"] += stations * trials
    # Computed, not measured: float64 squared distances plus complex64
    # channel matrices for every station of every trial.
    counts["montecarlo.draw_bytes"] += trials * stations * (8 + 8 * config.n_r * config.n_t)


def _targets(rec: SpanRecorder):
    """(module, attribute, replacement factory) for every traced boundary."""

    def span(name, count=None):
        return lambda fn: rec.span(name, fn, count)

    def quad(layer):
        def factory(module):
            real_quad = module.quad

            def quad_counted(func, *args, **kwargs):
                return real_quad(rec.counted(layer + ".quad_evals", func), *args, **kwargs)

            return _QuadModule(module, rec.span(layer + ".quad", quad_counted))

        return factory

    return (
        ("cellmimo.cli", "sinr_ccdf", span("rate.sinr_ccdf")),
        ("cellmimo.cli", "ergodic_rate", span("rate.ergodic")),
        ("cellmimo.cli", "rate_quantile", span("rate.quantile")),
        ("cellmimo.cli", "simulate_sinr", span("montecarlo.simulate", _count_simulation)),
        ("cellmimo.cli", "estimate_coverage_curve", span("montecarlo.curve")),
        ("cellmimo.montecarlo", "simulate_sinr", span("montecarlo.simulate", _count_simulation)),
        ("cellmimo.rate", "coverage_pzf_interflimited", span("pzf.cov_il")),
        ("cellmimo.rate", "coverage_pzf", span("pzf.cov_noisy")),
        ("cellmimo.rate", "coverage_mmse_interflimited", span("mmse.cov_il")),
        ("cellmimo.rate", "coverage_mmse", span("mmse.cov_noisy")),
        ("cellmimo.pzf", "lambda_kernel", span("pzf.lambda_kernel", _count_kernel_points)),
        ("cellmimo.mmse", "theta_kernel", span("mmse.theta_kernel")),
        ("cellmimo.specfun", "hyp2f1_negz", span("specfun.hyp2f1", _count_hyp2f1)),
        ("cellmimo.pzf", "set_partition_signatures", span("combinatorics")),
        ("cellmimo.mmse", "integer_partitions", span("combinatorics")),
        ("cellmimo.pzf", "_integrate", quad("pzf")),
        ("cellmimo.mmse", "_integrate", quad("mmse")),
        ("cellmimo.rate", "_integrate", quad("rate")),
    )


class Instrumentation:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.skipped: list[str] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, factory in _targets(self.rec):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
    return table


def ccdf_evals_under(spans: list[list], ancestor: str) -> int:
    """Coverage-law calls made inside a span named ``ancestor``."""
    total = 0
    for name, _, _, parent in spans:
        if name not in COVERAGE_SPANS:
            continue
        while parent >= 0:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total


def layer_metrics(rec: SpanRecorder) -> tuple[dict[str, float], dict[str, float]]:
    """(times, counts) of one traced pass.  Span times are inclusive except
    ``cli.self_s``, which excludes every span ``cli.main`` caused."""
    table = span_table(rec.spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return int(table.get(name, {}).get("calls", 0))

    times = {
        "cli.self_s": table.get("cli", {}).get("self_s", 0.0),
        "rate.ergodic.s": total("rate.ergodic"),
        "rate.quantile.s": total("rate.quantile"),
        "pzf.cov_il.s": total("pzf.cov_il"),
        "pzf.cov_noisy.s": total("pzf.cov_noisy"),
        "mmse.cov_il.s": total("mmse.cov_il"),
        "mmse.cov_noisy.s": total("mmse.cov_noisy"),
        "specfun.hyp2f1.s": total("specfun.hyp2f1"),
        "combinatorics.s": total("combinatorics"),
        "montecarlo.simulate.s": total("montecarlo.simulate"),
    }
    c = rec.counts
    trials = c.get("montecarlo.trials", 0.0)
    counts = {
        "rate.ergodic.ccdf_evals": ccdf_evals_under(rec.spans, "rate.ergodic"),
        "rate.quantile.ccdf_evals": ccdf_evals_under(rec.spans, "rate.quantile"),
        "pzf.cov_il.calls": calls("pzf.cov_il"),
        "pzf.kernel_points": int(c.get("pzf.kernel_points", 0)),
        "pzf.quad_evals": int(c.get("pzf.quad_evals", 0)),
        "mmse.kernel_calls": calls("mmse.theta_kernel"),
        "mmse.quad_evals": int(c.get("mmse.quad_evals", 0)),
        "specfun.hyp2f1.calls": calls("specfun.hyp2f1"),
        "specfun.points.series": int(c.get("specfun.points.series", 0)),
        "specfun.points.connection": int(c.get("specfun.points.connection", 0)),
        "specfun.points.mpmath": int(c.get("specfun.points.mpmath", 0)),
        "combinatorics.calls": calls("combinatorics"),
        "montecarlo.trials": int(trials),
        "montecarlo.chunks": int(c.get("montecarlo.chunks", 0)),
        "montecarlo.stations_per_trial":
            c.get("montecarlo.station_trials", 0.0) / trials if trials else 0.0,
        "montecarlo.draw_bytes": int(c.get("montecarlo.draw_bytes", 0)),
    }
    return times, counts

"""Span recorder that wraps the library's layer functions from outside.

Tracing is installed by rebinding each traced function, in every loaded
``readout_tradeoff`` module that holds it (``scheme.poisson_pmf`` and
``decay.integrate_family`` are such copies), to a wrapper that records one
span per call: name, parent span, the result it belongs to, start, end and
a few counts read off the arguments and the return value. Nothing is
rebound while tracing is off, so untraced passes run the library as is.

Spans stay in memory until the run ends. Self time is a span's duration
minus the durations of its direct children; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
import time
import warnings

# Traced functions, as (module, function). Layers are the modules.
TRACED = (
    ("dist", "poisson_pmf"),
    ("dist", "convolve"),
    ("dist", "n_fold_convolve"),
    ("dist", "mixture"),
    ("dist", "moments"),
    ("quadrature", "integrate_family"),
    ("decay", "decaying_poisson"),
    ("decay", "decaying_poisson_moments"),
    ("gates", "compiled_dist"),
    ("gates", "outcome_moments"),
    ("scheme", "compose"),
    ("scheme", "mi_optimal"),
    ("scheme", "scheme_snr"),
    ("scheme", "peak_snr"),
    ("scheme", "time_to_snr"),
    ("montecarlo", "sample_full_scheme"),
    ("montecarlo", "sample_gate_outcomes"),
    ("montecarlo", "sample_photon_counts"),
)
LAYERS = ("dist", "quadrature", "decay", "gates", "scheme", "montecarlo")

PACKAGE = "readout_tradeoff"

# Span layout: [name, parent index, result id, start, end, attrs].
_NAME, _PARENT, _START, _END, _ATTRS = 0, 1, 3, 4, 5


class Recorder:
    """Records spans for the library calls made while it is installed."""

    def __init__(self):
        self.result_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function to its wrapper for the duration.

        Yields the list the spans of this installation are appended to.
        """
        spans: list[list] = []
        wrappers = {}
        for mod, fn in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
            wrappers[id(original)] = (original, self._wrap(mod, fn, original, spans))
        patched = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == PACKAGE]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        try:
            yield spans
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def _wrap(self, mod: str, fn: str, original, spans: list):
        name = f"{mod}.{fn}"
        lib = sys.modules[f"{PACKAGE}.{mod}"]
        stack = self._stack
        annotate = _ANNOTATORS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.result_id, 0.0, 0.0, None]
            if name == "dist.convolve":
                span[_NAME], span[_ATTRS] = _convolve_path(lib, *args, **kwargs)
            elif name == "quadrature.integrate_family":
                args, kwargs, span[_ATTRS] = _count_panels(args, kwargs)
            spans.append(span)
            stack.append(len(spans) - 1)
            span[_START] = time.perf_counter()
            try:
                if name == "quadrature.integrate_family":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = original(*args, **kwargs)
                    _replay(caught, span[_ATTRS])
                else:
                    out = original(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[_ATTRS] = annotate(lib, args, kwargs, out)
            return out

        return traced


SPAN_FIELDS = ["pass", "name", "parent", "result", "start_s", "end_s", "attrs"]


def encode(k: int, spans) -> list[str]:
    """JSON lines for the spans of traced pass k.

    Parent indices count from the first span of the same pass. Strings are
    not tracked by the garbage collector, so holding finished passes this
    way does not slow the passes that follow.
    """
    return [json.dumps([k, *span]) for span in spans]


def dump(path, header: dict, lines: list[str]) -> None:
    """Write a header line, then the encoded spans."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "span_fields": SPAN_FIELDS}) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _convolve_path(lib, a, b):
    n, m = a.masses.size, b.masses.size
    if max(n, m) <= lib.DIRECT_CONV_LIMIT:
        return "dist.convolve.direct", {"madds": n * m}
    return "dist.convolve.fft", {"points": n + m - 1}


def _count_panels(args, kwargs):
    # Each panel evaluates the integrand exactly once.
    attrs = {"panels": 0, "budget_warnings": 0}
    f = args[0]

    def counted(x):
        attrs["panels"] += 1
        return f(x)

    return (counted, *args[1:]), kwargs, attrs


def _replay(caught, attrs) -> None:
    for w in caught:
        if issubclass(w.category, RuntimeWarning) and "panel budget" in str(w.message):
            attrs["budget_warnings"] += 1
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _edge_hit(lib, args, kwargs, out):
    lo, hi = kwargs.get("bracket", lib.PEAK_BRACKET)
    t_max = out[1]
    edge = math.isfinite(t_max) and not lo * (1 + 1e-9) < t_max < hi * (1 - 1e-9)
    return {"edge_hit": int(edge)}


_ANNOTATORS = {
    "dist.poisson_pmf": lambda lib, a, k, out: {"support_pts": out.masses.size},
    "dist.mixture": lambda lib, a, k, out: {"terms": len(a[0])},
    "scheme.compose": lambda lib, a, k, out: {
        "n": a[0].n_qubits,
        "truncation_loss": max(out.p0.truncation_loss, out.p1.truncation_loss),
    },
    "scheme.peak_snr": _edge_hit,
}


def pass_stats(spans) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] += s[_END] - s[_START]
            children.setdefault(s[_PARENT], []).append(i)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for name in _FUNCTION_NAMES:
        add(f"{name}.calls", 0)
        add(f"{name}.self_s", 0.0)
    for layer in LAYERS:
        add(f"{layer}.calls", 0)
        add(f"{layer}.self_s", 0.0)
    for key in _ATTR_SUMS:
        add(key, 0)
    kept = offered = 0
    loss_max = 0.0
    for i, s in enumerate(spans):
        name, attrs = s[_NAME], s[_ATTRS] or {}
        self_s = s[_END] - s[_START] - child_time[i]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        layer = name.split(".", 1)[0]
        add(f"{layer}.calls", 1)
        add(f"{layer}.self_s", self_s)
        for key, value in attrs.items():
            if f"{name}.{key}" in _ATTR_SUMS:
                add(f"{name}.{key}", value)
        if name == "scheme.compose":
            loss_max = max(loss_max, attrs["truncation_loss"])
            for c in children.get(i, ()):
                if spans[c][_NAME] == "dist.mixture":
                    kept += spans[c][_ATTRS]["terms"]
                    offered += attrs["n"] + 1
        elif name == "scheme.peak_snr":
            add("scheme.peak_snr.edge_hits", attrs["edge_hit"])
        if name in ("scheme.peak_snr", "scheme.time_to_snr"):
            evals = sum(spans[c][_NAME] == "scheme.scheme_snr" for c in children.get(i, ()))
            add(f"{name}.snr_evals", evals)
    out["scheme.compose.truncation_loss_max"] = loss_max
    out["scheme.compose.terms_kept_ratio"] = kept / offered if offered else 0.0
    return out


_FUNCTION_NAMES = [
    f"{m}.{f}" for m, f in TRACED if (m, f) != ("dist", "convolve")
] + ["dist.convolve.direct", "dist.convolve.fft"]
_ATTR_SUMS = (
    "dist.poisson_pmf.support_pts",
    "dist.convolve.direct.madds",
    "dist.convolve.fft.points",
    "dist.mixture.terms",
    "quadrature.integrate_family.panels",
    "quadrature.integrate_family.budget_warnings",
    "scheme.peak_snr.edge_hits",
    "scheme.peak_snr.snr_evals",
    "scheme.time_to_snr.snr_evals",
)


def median_stats(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer number over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

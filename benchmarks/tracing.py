"""In-memory spans around the benchmark's calls into the package.

A span is recorded at each call the benchmark makes into a public
function of ``climex``: its layer (the module that defines the
function), its name, start and end, the span that caused it, and the
unit it belongs to, so that spans of one unit share an identifier.
Counts computed from array sizes and the search grid are kept beside
the spans under dotted ``layer.name`` keys.  Nothing inside the package
is wrapped or patched: a nested call such as the grid search inside
``robust_parameter_fit`` is timed as part of its outer call.

``NullTracer`` has the same interface and records nothing; the
untraced run uses it, so both runs execute the same benchmark code.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from typing import NamedTuple

__all__ = ["Outcome", "Finish", "Span", "Tracer", "NullTracer",
           "COMPUTED", "per_layer_metrics"]

# per-layer counts computed from array sizes and the search grid rather
# than observed inside the package
COMPUTED = ("estimators.samples", "estimators.ladder_points",
            "estimators.phasor_mults", "protocol_sim.pings")


class Outcome(NamedTuple):
    """What one unit returns: a canonical text of everything it
    computed, whether its own checks passed, and the figures the
    workload aggregates."""

    out: str
    ok: bool
    data: dict


class Finish(NamedTuple):
    """A workload's closing figures: its own end-to-end metrics, the
    criterion checks by name, and the units a cross-unit check failed."""

    metrics: dict
    checks: dict
    failed: set


class Span(NamedTuple):
    span_id: int
    parent: int | None
    unit: int | None
    layer: str
    name: str
    start_ns: int
    end_ns: int
    error: str | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1.0e6


class Tracer:
    """Records spans and counts; written out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._open: list[int] = []
        self._unit: int | None = None

    @contextmanager
    def span(self, layer: str, name: str):
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        error = None
        start = time.perf_counter_ns()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(Span(span_id, parent, self._unit, layer, name,
                                   start, end, error))

    @contextmanager
    def unit(self, index: int, layer: str):
        self._unit = index
        try:
            with self.span(layer, "unit"):
                yield
        finally:
            self._unit = None

    def call(self, fn, *args, **kwargs):
        layer = fn.__module__.rpartition(".")[2]
        with self.span(layer, fn.__name__):
            return fn(*args, **kwargs)

    def add(self, key: str, n=1) -> None:
        self.counts[key] += n


class NullTracer:
    """The untraced run: calls go straight through."""

    enabled = False

    def span(self, layer: str, name: str):
        return nullcontext()

    def unit(self, index: int, layer: str):
        return nullcontext()

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, n=1) -> None:
        pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, n_units: int) -> dict:
    """Per-layer figures of a traced run.

    Times and counts are per unit (totals over the traced units divided
    by their number); ``*_frac`` figures are ratios of two counts.  A
    layer a workload never reaches reads 0.  ``errors`` counts spans
    that raised; a key refusal is a documented outcome of
    ``derive_key`` and is counted as ``secrecy.refused`` instead.
    """
    calls: Counter = Counter()
    errors: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    fn_ms: defaultdict = defaultdict(float)
    fn_calls: Counter = Counter()
    child_ms: defaultdict = defaultdict(float)
    units = []
    for s in tr.spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
        if s.name == "unit":
            units.append(s)
            continue
        calls[s.layer] += 1
        busy[s.layer] += s.ms
        fn_ms[s.layer, s.name] += s.ms
        fn_calls[s.layer, s.name] += 1
        if s.error is not None and s.error != "KeyRangeError":
            errors[s.layer] += 1
    c = tr.counts
    n = max(n_units, 1)

    def adv(*names):
        return sum(fn_ms["adversary", name] for name in names) / n

    out = {}
    for layer, extra in (("estimators", ("samples", "ladder_points",
                                         "phasor_mults")),
                         ("protocol_sim", ("pings",))):
        out[f"{layer}.calls"] = calls[layer] / n
        out[f"{layer}.busy_ms"] = busy[layer] / n
        for key in extra:
            out[f"{layer}.{key}"] = c[f"{layer}.{key}"] / n
        out[f"{layer}.errors"] = errors[layer] / n
    out["estimators.edge_frac"] = _ratio(c["estimators.edge_fits"],
                                         c["estimators.flagged_fits"])
    out.update({
        "adversary.tap_ms": adv("eve_tdoa_epoch"),
        "adversary.listen_fit_ms": adv("eve_estimate_rtt"),
        "adversary.inject_ms": adv("make_random_timing_plan",
                                   "make_oracle_plan", "remeasure_epoch"),
        "adversary.preempt_frac": _ratio(c["adversary.preempted"],
                                         c["adversary.forged"]),
        "adversary.robust_fit_calls":
            fn_calls["adversary", "robust_parameter_fit"] / n,
        "adversary.robust_fit_ms": adv("robust_parameter_fit"),
        "adversary.kept_frac": _ratio(c["adversary.kept"],
                                      c["adversary.fit_samples"]),
        "adversary.detect_ms": adv("detect_outliers"),
        "adversary.flag_frac": _ratio(c["adversary.flagged"],
                                      c["adversary.checked"]),
        "adversary.oracle_flag_frac": _ratio(c["adversary.oracle_hits"],
                                             c["adversary.oracle_passes"]),
        "adversary.errors": errors["adversary"] / n,
        "secrecy.calls": calls["secrecy"] / n,
        "secrecy.derive_key_ms": fn_ms["secrecy", "derive_key"] / n,
        "secrecy.f_mismatch": _ratio(c["secrecy.f_mismatch"],
                                     c["secrecy.pairs"]),
        "secrecy.phi_mismatch": _ratio(c["secrecy.phi_mismatch"],
                                       c["secrecy.pairs"]),
        "secrecy.rho_mismatch": _ratio(c["secrecy.rho_mismatch"],
                                       c["secrecy.pairs"]),
        "secrecy.refused": c["secrecy.refused"] / n,
        "config.calls": calls["config"] / n,
        "config.build_setup_ms": fn_ms["config", "build_setup"] / n,
        "sweep.self_ms": sum(s.ms - child_ms[s.span_id] for s in units
                             if s.layer == "sweep") / n,
        "sweep.rows": c["sweep.rows"] / n,
        "cli.import_ms": c["cli.import_ms"],
        "cli.output_bytes": c["cli.output_bytes"] / n,
        "cli.nonzero_exits": c["cli.nonzero_exits"] / n,
    })
    for cmd in ("simulate", "estimate", "estimate_in", "detect", "budget"):
        out[f"cli.{cmd}_ms"] = fn_ms["cli", cmd] / n
    return out

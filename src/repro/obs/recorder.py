"""Observability state: the process-wide recorder and fast accessors.

The default state is *disabled*: :data:`_RECORDER` is ``None`` and every
helper below returns immediately after one module-global read, so
instrumentation sites in hot code cost nothing measurable.  Activation
is explicit (:func:`enable`) or environmental (``REPRO_OBS=1`` at
import; ``REPRO_OBS=0``/unset keeps the no-op path).

Hot loops go one step further: they fetch the recorder once (via
:func:`recorder`) when a run starts and pick an instrumented code path
only if it is non-``None``, keeping the disabled path byte-identical to
the uninstrumented engine.
"""

from __future__ import annotations

import gc
import time

from ..env import env_flag
from . import events as _events
from .metrics import MetricsRegistry
from .spans import NULL_SPAN, Span

__all__ = ["Recorder", "count", "disable", "enable", "enabled", "gauge",
           "observe", "recorder", "span", "timed"]


class Recorder:
    """Collects spans, metrics, and profiles for one process."""

    __slots__ = ("registry", "spans", "foreign_spans", "_stack")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: Finished root spans, in completion order.
        self.spans: list[Span] = []
        #: Serialized span trees merged in from worker processes.
        self.foreign_spans: list[dict] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(name, attrs, self)

    def profile(self, name: str):
        return self.registry.profile(name)

    # -- span lifecycle (called by Span.__enter__/__exit__) -----------------

    def _span_started(self, span: Span) -> None:
        self._stack.append(span)
        led = _events.ledger()
        if led is not None and span.name.startswith(_LEDGER_SPANS):
            led.emit("stage.start", name=span.name, attrs=span.attrs)

    def _span_finished(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:       # exited out of order; tolerate it
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            self.spans.append(span)
        led = _events.ledger()
        if led is not None and span.name.startswith(_LEDGER_SPANS):
            led.emit("stage.finish", name=span.name,
                     seconds=span.seconds, attrs=span.attrs)


#: Span families mirrored into the event ledger as ``stage.start`` /
#: ``stage.finish`` events.  Deliberately coarse: per-function spans
#: (``sanalysis.function``, ...) stay out of the ledger to bound its
#: volume; the pipeline layers emit finer-grained typed events instead.
_LEDGER_SPANS = ("stage.", "pipeline.")

_RECORDER: Recorder | None = None


def _env_enabled() -> bool:
    return env_flag("REPRO_OBS")


def enabled() -> bool:
    return _RECORDER is not None


def recorder() -> Recorder | None:
    """The active recorder, or None when observability is disabled."""
    return _RECORDER


def enable(reset: bool = False) -> Recorder:
    """Activate observability; with ``reset`` discard prior data."""
    global _RECORDER
    if _RECORDER is None or reset:
        _RECORDER = Recorder()
    if _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)
    return _RECORDER


def disable() -> None:
    global _RECORDER
    _RECORDER = None
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)


_GC_PASSES = ("gc.collections.gen0", "gc.collections.gen1",
              "gc.collections.gen2")
_gc_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    """``gc.callbacks`` hook, installed while observability is on: count
    each cyclic-collector pass by the oldest generation it collects, and
    add its wall time to the ``gc.seconds`` timer."""
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    rec = _RECORDER
    if rec is not None:
        registry = rec.registry
        registry.count(_GC_PASSES[info["generation"]])
        registry.timer("gc.seconds").add(
            time.perf_counter() - _gc_started)


# -- module-level no-op-when-disabled helpers -------------------------------


def span(name: str, **attrs):
    """A context-managed span, or the inert NULL_SPAN when disabled."""
    rec = _RECORDER
    if rec is None:
        return NULL_SPAN
    return rec.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    rec = _RECORDER
    if rec is not None:
        counters = rec.registry.counters
        counters[name] = counters.get(name, 0) + n


def gauge(name: str, value: float) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.registry.gauges[name] = value


def observe(name: str, value: float) -> None:
    rec = _RECORDER
    if rec is not None:
        rec.registry.observe(name, value)


class _NullTimer:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_TIMER = _NullTimer()


def timed(name: str):
    """Context manager adding elapsed seconds to a timer (no-op when
    disabled)."""
    rec = _RECORDER
    if rec is None:
        return _NULL_TIMER
    return rec.registry.time(name)


if _env_enabled():
    enable()

"""The Observer: one handle bundling a metrics registry and a tracer.

Construction is cheap and side-effect free; *not* constructing one is
free.  Every instrumented layer takes ``observer=None`` and holds
either no-op handles (:data:`~repro.obs.metrics.NULL_METRIC`) or
``None`` tracers, so the disabled path costs one attribute test per
coarse event and nothing per guest instruction or memory access.

Harvest model: hot components keep their own plain-int counters (the
TCG engine's ``tb_chain_hits``, shadow memory's ``check_ops``, ...).
A campaign machine lives until the fuzzer refreshes its target, at
which point :meth:`Observer.harvest_target` folds that machine's
counters into the registry — each machine is harvested exactly once,
so the campaign totals are exact across any number of rebuilds while
the hot paths stay untouched.  Observability charges **zero guest
cycles**: it reads the cost model's counters, never feeds them (see
``docs/cost_model.md``).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Optional

from repro.bench.costmodel import BREAKDOWN
from repro.obs.metrics import MetricsRegistry, format_metrics
from repro.obs.trace import DEFAULT_CAPACITY, Tracer


@contextmanager
def _null_span():
    yield None


def ensure_parent(path: str) -> str:
    """Create the parent directory of ``path`` (the JSONL-sink bugfix:
    ``--events-log``/``--metrics``/``--trace``/``--diagnostics`` paths
    must work even when their directory does not exist yet)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


class Observer:
    """Aggregates one run's metrics and trace."""

    def __init__(
        self,
        metrics: bool = True,
        trace: bool = True,
        trace_capacity: int = DEFAULT_CAPACITY,
        process_name: str = "repro",
    ):
        self.registry: Optional[MetricsRegistry] = None
        if metrics:
            self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = None
        if trace:
            self.tracer = Tracer(
                capacity=trace_capacity,
                process_name=process_name,
            )

    # ------------------------------------------------------------------
    # instrument access (no-op-safe)
    # ------------------------------------------------------------------
    def counter(self, name: str):
        from repro.obs.metrics import NULL_METRIC

        if self.registry is None:
            return NULL_METRIC
        return self.registry.counter(name)

    def gauge(self, name: str):
        from repro.obs.metrics import NULL_METRIC

        if self.registry is None:
            return NULL_METRIC
        return self.registry.gauge(name)

    def histogram(self, name: str, bounds=None):
        from repro.obs.metrics import DEFAULT_BUCKETS, NULL_METRIC

        if self.registry is None:
            return NULL_METRIC
        if bounds is None:
            bounds = DEFAULT_BUCKETS
        return self.registry.histogram(name, bounds)

    def span(
        self,
        name: str,
        cat: str = "repro",
        args: Optional[dict] = None,
        tid: int = 0,
    ):
        """A tracer span, or a shared null context when tracing is off."""
        if self.tracer is None:
            return _null_span()
        return self.tracer.span(name, cat=cat, args=args, tid=tid)

    def instant(
        self,
        name: str,
        cat: str = "repro",
        args: Optional[dict] = None,
        tid: int = 0,
    ) -> None:
        if self.tracer is not None:
            self.tracer.instant(name, cat=cat, args=args, tid=tid)

    # ------------------------------------------------------------------
    # harvesting (pull model; every probe is defensive — the target may
    # be mid-crash when a refresh harvests it)
    # ------------------------------------------------------------------
    def watch_machine(self, machine) -> None:
        """Point every engine's trace hook at this observer's tracer
        (translate-miss spans), including engines attached later."""
        if self.tracer is None or machine is None:
            return
        tracer = self.tracer

        def _hook(engine) -> None:
            if hasattr(engine, "tracer"):
                engine.tracer = tracer

        for engine in machine.engines:
            _hook(engine)
        machine.engine_listeners.append(_hook)

    def harvest_target(self, target) -> None:
        """Fold one (about to be discarded or finished) fuzz target's
        machine + runtime counters into the registry."""
        if self.registry is None or target is None:
            return
        try:
            machine = target.image.ctx.machine
        except Exception:
            machine = None
        self.harvest_machine(machine)
        self.harvest_runtime(getattr(target, "runtime", None))

    def harvest_machine(self, machine) -> None:
        """Accumulate TCG-engine and machine-level counters."""
        if self.registry is None or machine is None:
            return
        counter = self.registry.counter
        gauge = self.registry.gauge
        # materialize the tcg.* family up front: a firmware whose kernel
        # model never attaches a TCG engine still reports them (at 0),
        # so every --metrics document has the same counter catalog
        insns = counter("tcg.insns")
        cycles = counter("tcg.cycles")
        host_ops = counter("tcg.host_ops")
        translates = counter("tcg.translates")
        flushes = counter("tcg.tb_flushes")
        evictions = counter("tcg.tb_evictions")
        chain_hits = counter("tcg.tb_chain_hits")
        cache_blocks = gauge("tcg.tb_cache_blocks")
        for engine in getattr(machine, "engines", ()):
            insns.inc(getattr(engine, "insn_count", 0))
            cycles.inc(getattr(engine, "cycles", 0))
            host_ops.inc(getattr(engine, "host_ops", 0))
            translates.inc(getattr(engine, "tb_translations", 0))
            flushes.inc(getattr(engine, "tb_flush_count", 0))
            evictions.inc(getattr(engine, "tb_evictions", 0))
            chain_hits.inc(getattr(engine, "tb_chain_hits", 0))
            cache = getattr(engine, "tb_cache", None)
            if cache is not None:
                cache_blocks.set(len(cache))
        counter("machine.guest_cycles").inc(getattr(machine, "guest_cycles", 0))
        # the exact integer ledger in centi-cycles: flooring each
        # harvested machine to whole cycles would under-count a campaign
        # by up to one cycle per rebuild (``repro stats`` shows cycles)
        ledger = getattr(machine, "ledger", None)
        counter("machine.overhead_centicycles").inc(
            ledger.total() if ledger is not None else 0)
        watchdog = getattr(machine, "watchdog", None)
        if watchdog is not None:
            counter("machine.watchdog_trips").inc(getattr(watchdog, "trips", 0))
        # periph.* family materialized the same way as tcg.*: a build
        # without modeled peripherals still reports the catalog at 0
        mmio_reads = counter("periph.mmio_reads")
        mmio_writes = counter("periph.mmio_writes")
        dma_descriptors = counter("periph.dma_descriptors")
        dma_bytes = counter("periph.dma_bytes")
        dma_faults = counter("periph.dma_faults")
        irqs_raised = counter("periph.irqs_raised")
        irqs_delivered = counter("periph.irqs_delivered")
        for device in getattr(machine, "periphs", ()):
            mmio_reads.inc(getattr(device, "mmio_reads", 0))
            mmio_writes.inc(getattr(device, "mmio_writes", 0))
            ring = getattr(device, "ring", None)
            if ring is not None:
                dma_descriptors.inc(getattr(ring, "descriptors_done", 0))
                dma_bytes.inc(getattr(ring, "bytes_copied", 0))
                dma_faults.inc(getattr(ring, "dma_faults", 0))
            irq = getattr(device, "irq", None)
            if irq is not None:
                irqs_raised.inc(getattr(irq, "raised", 0))
                irqs_delivered.inc(getattr(irq, "delivered", 0))

    def harvest_runtime(self, runtime) -> None:
        """Accumulate sanitizer-runtime counters (shadow, KASAN, KCSAN,
        quarantine, overhead-cycle breakdown)."""
        if self.registry is None or runtime is None:
            return
        counter = self.registry.counter
        gauge = self.registry.gauge
        try:
            counter("runtime.events").inc(runtime.events_handled)
            ledger = runtime.machine.ledger
            for category in BREAKDOWN:
                counter(f"runtime.centicycles.{category}").inc(
                    ledger.total(category))
            sink = runtime.sink
            counter("runtime.reports").inc(sink.count())
            gauge("runtime.unique_reports").set(sink.unique_count())
        except Exception:
            pass
        shadow = getattr(runtime, "shadow", None)
        if shadow is not None:
            counter("shadow.checks").inc(getattr(shadow, "check_ops", 0))
            counter("shadow.poisons").inc(getattr(shadow, "poison_ops", 0))
            counter("shadow.fastpath_hits").inc(getattr(shadow, "fastpath_hits", 0))
        kasan = getattr(runtime, "kasan", None)
        if kasan is not None:
            counter("kasan.checks").inc(kasan.checks)
            counter("kasan.allocs").inc(getattr(kasan, "allocs", 0))
            counter("kasan.frees").inc(getattr(kasan, "frees", 0))
            gauge("kasan.live_objects").set(kasan.live_count())
            freed = getattr(kasan, "freed", None)
            if freed is not None:
                counter("quarantine.pushes").inc(getattr(freed, "pushes", 0))
                counter("quarantine.evictions").inc(freed.evictions)
                gauge("quarantine.len").set(len(freed))
        kcsan = getattr(runtime, "kcsan", None)
        if kcsan is not None:
            counter("kcsan.checks").inc(kcsan.checks)
            counter("kcsan.races").inc(getattr(kcsan, "races_seen", 0))
            gauge("kcsan.armed_watchpoints").set(len(getattr(kcsan, "_watches", ())))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """JSON-encodable bundle (the fleet worker -> supervisor wire
        format): metrics document plus raw trace events."""
        metrics = None
        if self.registry is not None:
            metrics = self.registry.to_json()
        trace = None
        if self.tracer is not None:
            trace = self.tracer.events()
        return {
            "pid": os.getpid(),
            "metrics": metrics,
            "trace": trace,
        }

    def absorb(self, payload: dict, process_name: Optional[str] = None):
        """Merge a worker's :meth:`export` bundle into this observer."""
        metrics = payload.get("metrics")
        if metrics is not None and self.registry is not None:
            self.registry.merge_json(metrics)
        events = payload.get("trace")
        if events is not None and self.tracer is not None:
            if process_name is not None and payload.get("pid") is not None:
                self.tracer.name_process(payload["pid"], process_name)
            self.tracer.extend(events)
        return self

    def write_metrics(self, path: str) -> None:
        """Serialize the registry to ``path`` (parents created)."""
        if self.registry is None:
            return
        with open(ensure_parent(path), "w", encoding="utf-8") as fh:
            json.dump(self.registry.to_json(), fh, indent=2, sort_keys=True)

    def write_trace(self, path: str) -> None:
        """Serialize the Perfetto-loadable trace to ``path``."""
        if self.tracer is None:
            return
        with open(ensure_parent(path), "w", encoding="utf-8") as fh:
            json.dump(self.tracer.to_chrome(), fh)

    def summary(self) -> str:
        """Human-readable metrics rendering (the ``repro stats`` view)."""
        if self.registry is None:
            return "(metrics disabled)"
        return format_metrics(self.registry.to_json())

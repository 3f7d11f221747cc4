"""Tests: the unified observability layer (:mod:`repro.obs`).

Covers the instruments themselves (counters/gauges/histograms, the
bounded tracer), the Observer bundle (no-op fast path, export/absorb
fleet wire format, defensive harvesting) and — most importantly — the
overhead guard: attaching observability to a campaign must not change
a single guest-visible outcome.
"""

import json
from types import SimpleNamespace

from repro.bench.costmodel import OverheadLedger
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import result_to_json
from repro.obs import (
    MetricsRegistry,
    NULL_METRIC,
    Observer,
    Tracer,
    format_metrics,
)
from repro.obs.metrics import SCHEMA, Histogram, MetricsRegistry


class TestMetrics:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.g") is registry.gauge("a.g")
        assert registry.histogram("a.h") is registry.histogram("a.h")
        assert len(registry) == 3

    def test_counter_and_gauge_values(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        snap = registry.snapshot()
        assert snap["c"] == 5 and snap["g"] == 2.5

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 99.0):
            h.observe(value)
        data = h.to_json()
        assert data["counts"] == [2, 1, 1]  # two <=1, one <=10, one +inf
        assert data["count"] == 4
        assert data["sum"] == 0.5 + 0.9 + 5.0 + 99.0

    def test_to_json_schema_and_sorted_names(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        doc = registry.to_json()
        assert doc["schema"] == SCHEMA
        assert list(doc["counters"]) == ["a.first", "z.last"]

    def test_merge_json_sums_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(7.0)
        a.merge_json(b.to_json())
        doc = a.to_json()
        assert doc["counters"]["c"] == 5
        assert doc["gauges"]["g"] == 9.0  # incoming value wins
        assert doc["histograms"]["h"]["counts"] == [1, 1]
        assert doc["histograms"]["h"]["count"] == 2

    def test_merge_json_incompatible_bounds_keeps_aggregates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(2.0, 4.0)).observe(3.0)
        a.merge_json(b.to_json())
        merged = a.to_json()["histograms"]["h"]
        assert merged["bounds"] == [1.0]  # original shape kept
        assert merged["count"] == 2 and merged["sum"] == 3.5

    def test_null_metric_discards_everything(self):
        NULL_METRIC.inc()
        NULL_METRIC.inc(10)
        NULL_METRIC.set(3.0)
        NULL_METRIC.observe(1.5)

    def test_format_metrics_groups_by_leading_component(self):
        registry = MetricsRegistry()
        registry.counter("tcg.insns").inc(100)
        registry.counter("shadow.checks").inc(7)
        registry.histogram("tcg.ms").observe(2.0)
        text = format_metrics(registry.to_json())
        assert "tcg:" in text and "shadow:" in text
        assert "1 samples, mean 2.000" in text


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("work", cat="test", args={"n": 1}):
            pass
        spans = [e for e in tracer.events() if e.get("ph") == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "work"
        assert spans[0]["cat"] == "test"
        assert spans[0]["args"] == {"n": 1}
        assert spans[0]["dur"] >= 0.0

    def test_construction_emits_process_metadata(self):
        tracer = Tracer(process_name="unit")
        meta = [e for e in tracer.events() if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "clock_sync"}

    def test_ring_bound_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.instant(f"e{i}")
        assert len(tracer.events()) == 4
        # 2 metadata + 6 instants emitted, 4 retained
        assert tracer.dropped == 4

    def test_extend_keeps_foreign_pids(self):
        worker = Tracer(pid=4242, process_name="worker")
        worker.instant("remote")
        sup = Tracer(pid=1, process_name="sup")
        sup.extend(worker.events())
        pids = {e["pid"] for e in sup.events()}
        assert {1, 4242} <= pids

    def test_to_chrome_document_shape(self):
        tracer = Tracer()
        tracer.counter("execs", {"execs": 3})
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["dropped_events"] == 0
        assert any(e["ph"] == "C" for e in doc["traceEvents"])
        json.dumps(doc)  # must be JSON-encodable

    def test_process_name_metadata_deduplicated(self):
        tracer = Tracer(pid=7, process_name="x")
        before = len(tracer.events())
        tracer.name_process(7, "x")  # same name: no new event
        assert len(tracer.events()) == before
        tracer.name_process(7, "y")
        assert len(tracer.events()) == before + 1


class TestObserver:
    def test_disabled_observer_hands_out_null_metric(self):
        observer = Observer(metrics=False, trace=False)
        assert observer.counter("any") is NULL_METRIC
        assert observer.gauge("any") is NULL_METRIC
        assert observer.histogram("any") is NULL_METRIC
        with observer.span("s"):
            pass
        observer.instant("i")
        bundle = observer.export()
        assert bundle["metrics"] is None and bundle["trace"] is None

    def test_export_absorb_roundtrip(self):
        worker = Observer(process_name="worker:j0")
        worker.counter("campaign.execs").inc(5)
        with worker.span("program:execute"):
            pass
        supervisor = Observer(process_name="fleet")
        supervisor.absorb(worker.export(), process_name="worker:j0")
        counters = supervisor.registry.to_json()["counters"]
        assert counters["campaign.execs"] == 5
        names = [e["name"] for e in supervisor.tracer.events()]
        assert "program:execute" in names

    def test_harvesting_is_defensive(self):
        observer = Observer()
        observer.harvest_target(None)
        observer.harvest_machine(None)
        observer.harvest_runtime(None)
        observer.watch_machine(None)

    def test_harvest_machine_materializes_tcg_catalog(self):
        # a machine with no TCG engines still yields the tcg.* family
        # (at zero) so every --metrics document has the same catalog
        observer = Observer(trace=False)
        ledger = OverheadLedger()
        ledger.counts[ledger.slot(watchdog=3.5)] += 1
        machine = SimpleNamespace(
            engines=(),
            guest_cycles=7,
            ledger=ledger,
            watchdog=None,
        )
        observer.harvest_machine(machine)
        counters = observer.registry.to_json()["counters"]
        assert counters["tcg.insns"] == 0
        assert counters["tcg.tb_chain_hits"] == 0
        assert counters["machine.guest_cycles"] == 7
        assert counters["machine.overhead_centicycles"] == 350

    def test_campaign_counters_are_ints_and_merge_exactly(self):
        # a fleet merge folds counters through int(): a float cycle count
        # would lose its fraction and the merged document would disagree
        observer = Observer(trace=False)
        run_campaign("InfiniTime", budget=50, seed=1000, observer=observer)
        document = observer.registry.to_json()
        for name, value in document["counters"].items():
            assert type(value) is int, name
        merged = MetricsRegistry()
        merged.merge_json(document)
        assert merged.to_json() == document

    def test_campaign_overhead_is_exact_across_rebuilds(self):
        # the campaign builds 38 machines; flooring each ledger to whole
        # cycles read 26385 where their ledgers sum to 2639640 centi-cycles
        observer = Observer(trace=False)
        run_campaign("InfiniTime", budget=50, seed=1000, observer=observer)
        counters = observer.registry.to_json()["counters"]
        assert counters["machine.overhead_centicycles"] == 2639640
        categories = [value for name, value in counters.items()
                      if name.startswith("runtime.centicycles.")]
        assert len(categories) == 4
        assert sum(categories) == 2639640
        # repro stats renders them as cycles
        from repro.obs import format_metrics

        text = format_metrics(observer.registry.to_json())
        assert "machine.overhead_cycles" in text and "26,396.40" in text

    def test_write_sinks_create_parent_dirs(self, tmp_path):
        observer = Observer()
        observer.counter("x").inc()
        mpath = tmp_path / "no" / "such" / "dir" / "m.json"
        tpath = tmp_path / "other" / "missing" / "t.json"
        observer.write_metrics(str(mpath))
        observer.write_trace(str(tpath))
        assert json.loads(mpath.read_text())["counters"]["x"] == 1
        assert json.loads(tpath.read_text())["traceEvents"]


class TestOverheadGuard:
    def test_campaign_outcomes_unchanged_by_observability(self):
        """The acceptance bar: observing a campaign changes nothing the
        guest (or the determinism contract) can see — only the
        wall-clock ``phase_timings`` diagnostic field is populated."""
        ref = run_campaign("InfiniTime", budget=150, seed=2)
        observer = Observer()
        watched = run_campaign("InfiniTime", budget=150, seed=2, observer=observer)
        assert watched.execs == ref.execs
        assert watched.census() == ref.census()
        assert sorted(watched.matched) == sorted(ref.matched)
        a = result_to_json(ref)
        b = result_to_json(watched)
        assert a["diagnostics"]["phase_timings"] is None
        assert b["diagnostics"]["phase_timings"]  # populated when observed
        b["diagnostics"]["phase_timings"] = None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        # ...and the observer really collected the run it watched
        counters = observer.registry.to_json()["counters"]
        assert counters["campaign.execs"] == ref.execs
        assert counters["shadow.checks"] > 0
        spans = [e for e in observer.tracer.events() if e.get("ph") == "X"]
        assert any(e["name"] == "program:execute" for e in spans)

    def test_metrics_only_observer_skips_tracing(self):
        observer = Observer(trace=False)
        result = run_campaign("InfiniTime", budget=60, seed=1, observer=observer)
        assert observer.tracer is None
        assert result.execs == 60
        assert observer.registry.to_json()["counters"]["campaign.execs"] == 60


class TestPerfbenchLedger:
    """``perfbench/ledger.py`` wraps each layer target by replacing
    ``owner.__dict__[attr]``; a refactor that renames, moves or inherits
    one of them would break ``--trace 1`` at install time."""

    @staticmethod
    def _ledger():
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"
        spec = importlib.util.spec_from_file_location("_perfbench_ledger",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_layer_target_is_its_owners_own_attribute(self):
        import importlib

        ledger = self._ledger()
        missing = []
        for name, targets, _moves in ledger.LAYERS:
            for module_name, class_name, attr in targets:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name, None)
                    if not isinstance(owner, type) or \
                            attr not in owner.__dict__:
                        missing.append((name, module_name, class_name, attr))
                elif not callable(getattr(owner, attr, None)):
                    missing.append((name, module_name, class_name, attr))
        assert missing == []
        # the fuzz-phase marker is installed the same way
        from repro.fuzz.engine import FuzzerEngine

        assert "run" in FuzzerEngine.__dict__

    def test_every_probe_target_resolves(self):
        """``Probe.install`` (``perfbench/workloads.py``) rebinds
        ``Owner.attr`` on the names it imports, and the fork-server
        workloads build each frontend as ``cls(firmware, **keywords)``.
        Every rebound name must resolve and every keyword must be an
        option of both frontends.  Read from the source: nothing is
        installed."""
        import ast
        import importlib
        import inspect
        from pathlib import Path

        path = (Path(__file__).resolve().parents[1] / "perfbench"
                / "workloads.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        probe = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "Probe")
        install = next(node for node in probe.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "install")
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(install)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        targets = {
            (imported[target.value.id], target.attr)
            for node in ast.walk(install) if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id in imported
        }
        assert len(targets) >= 6
        for (module, name), attr in sorted(targets):
            owner = getattr(importlib.import_module(module), name)
            assert callable(getattr(owner, attr, None)), (module, name, attr)

        from repro.fuzz.syzkaller import SyzkallerFuzzer
        from repro.fuzz.tardis import TardisFuzzer

        keywords = {
            keyword.arg
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "cls"
            for keyword in node.keywords
        }
        assert keywords
        for cls in (SyzkallerFuzzer, TardisFuzzer):
            assert keywords <= set(inspect.signature(cls).parameters)

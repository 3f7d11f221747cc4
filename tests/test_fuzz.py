"""Unit + integration tests: programs, mutation, engine, campaigns."""

import random

from hypothesis import given, settings, strategies as st

from repro.fuzz.campaign import run_campaign
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.ifspec import (
    CallTemplate,
    InterfaceSpec,
    interesting,
    linux_interface,
    lit,
    res,
)
from repro.fuzz.program import (
    Call,
    Mutator,
    Program,
    ResourcePool,
    resolve_args,
)
from repro.fuzz.syzkaller import SyzkallerFuzzer
from repro.fuzz.tardis import TardisFuzzer
from repro.firmware.registry import build_firmware


class TestProgram:
    def test_clone_is_deep(self):
        program = Program([Call(1, [2, 3])])
        copy = program.clone()
        copy.calls[0].args[0] = 99
        assert program.calls[0].args[0] == 2

    def test_resource_resolution(self):
        pool = ResourcePool()
        pool.put("fd", 3)
        pool.put("fd", 4)
        args = resolve_args([("res", "fd", 0), ("res", "fd", 1), 7], pool)
        assert args == [3, 4, 7]

    def test_missing_resource_resolves_zero(self):
        assert resolve_args([("res", "fd", 0)], ResourcePool()) == [0]

    def test_negative_results_not_pooled(self):
        pool = ResourcePool()
        pool.put("fd", -22)
        assert pool.get("fd", 0) == 0

    def test_serialize(self):
        program = Program([Call(1, [5], produces="fd"),
                           Call(2, [("res", "fd", 0)])])
        text = program.serialize({1: "open", 2: "close"})
        assert "open(5" in text and "$fd0" in text and "-> $fd" in text

    def test_from_steps(self):
        program = Program.from_steps([(1, 2, 3), (4,)])
        assert program.calls[0].nr == 1
        assert program.calls[0].args == [2, 3, 0, 0]
        assert program.calls[1].nr == 4


class TestMutator:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), length=st.integers(0, 8))
    def test_mutation_stays_bounded(self, seed, length):
        rng = random.Random(seed)
        mutator = Mutator(rng, [0, 1, 2])
        program = Program([Call(1, [0]) for _ in range(length)])
        out = mutator.mutate(program, lambda: Call(9, [7]))
        assert 0 < len(out.calls) <= 16
        # original untouched
        assert len(program.calls) == length


class TestCoverage:
    def test_novelty_tracking(self):
        cov = CoverageMap()
        cov.begin_input()
        cov.hit(1)
        cov.hit(1)
        cov.hit(2)
        assert cov.new_coverage() == 2
        cov.begin_input()
        cov.hit(2)
        assert cov.new_coverage() == 0
        assert len(cov) == 2


class TestInterfaceSpec:
    def test_linux_interface_reflects_modules(self):
        image = build_firmware("OpenWRT-armvirt", with_bugs=False)
        spec = linux_interface(image.kernel)
        names = {t.name for t in spec.templates}
        assert {"open", "ioctl", "mount", "fsop", "netlink", "scan"} <= names

    def test_seed_programs_cover_producers(self):
        rng = random.Random(0)
        spec = InterfaceSpec([
            CallTemplate(1, "open", [lit(7, 8)], produces="fd"),
            CallTemplate(2, "ioctl", [res("fd"), lit(1, 2, 3)]),
        ], style="syscall")
        seeds = spec.seed_programs(rng)
        # enumerated chains: one per device value, sweeping the cmds
        sweeps = [p for p in seeds if len(p.calls) == 4]
        assert len(sweeps) >= 2
        cmd_values = {tuple(c.args[1] for c in p.calls[1:]) for p in sweeps}
        assert (1, 2, 3) in cmd_values

    def test_template_weights_respected(self):
        rng = random.Random(1)
        spec = InterfaceSpec([
            CallTemplate(1, "rare", [interesting()], weight=0.01),
            CallTemplate(2, "common", [interesting()], weight=10.0),
        ], style="rtos")
        sampled = [spec.generate_call(rng).nr for _ in range(200)]
        assert sampled.count(2) > sampled.count(1)


class TestEngines:
    def test_syzkaller_finds_seeded_bug(self):
        fuzzer = SyzkallerFuzzer("OpenHarmony-rk3566", seed=3)
        fuzzer.run(600)
        fuzzer.reproduce_findings()
        assert any(f.reproducible for f in fuzzer.findings.values())

    def test_tardis_finds_rtos_bug(self):
        fuzzer = TardisFuzzer("OpenHarmony-stm32mp1", seed=3)
        fuzzer.run(400)
        findings = fuzzer.reproduce_findings()
        locations = {f.report.location for f in findings if f.reproducible}
        assert any("vfs_normalize_path" in loc for loc in locations)

    def test_reproducers_are_minimized(self):
        fuzzer = TardisFuzzer("OpenHarmony-stm32mp1", seed=3)
        fuzzer.run(400)
        findings = [f for f in fuzzer.reproduce_findings() if f.reproducible]
        assert findings
        for finding in findings:
            assert len(finding.reproducer_calls()) <= 6


class TestCampaign:
    def test_campaign_result_shape(self):
        result = run_campaign("InfiniTime", budget=800, seed=1)
        assert result.fuzzer == "tardis"
        assert result.execs == 800
        assert result.found_count() + len(result.missed) == 3
        census = result.census()
        assert sum(census.values()) == result.found_count()

    def test_result_records_replay_identity(self):
        result = run_campaign("InfiniTime", budget=200, seed=9)
        assert (result.seed, result.budget) == (9, 200)
        assert all(f.seed == 9 for f in result.findings)


class TestMidCampaignSnapshot:
    """A fork-server capture mid-campaign, then a restore, must leave
    every layer coherent: guest RAM, TB caches, shadow memory, the
    sanitizer runtime and the rehosted kernel's host objects, so that
    fuzzing can continue and replaying the same programs reproduces the
    pre-restore outcomes exactly."""

    @staticmethod
    def _fork(fuzzer):
        from repro.emulator.snapshot import ForkServer

        image = fuzzer.target.image
        return ForkServer(image.ctx.machine,
                          host_roots=(image.kernel, image.ctx))

    @staticmethod
    def _runtime_image(runtime):
        """Semantic state and shadow bytes, read side-effect free."""
        return (runtime._save_semantic(),
                [bytes(shadow.bytes) for shadow in runtime.shadow._shadows])

    @staticmethod
    def _outcome(fuzzer, program):
        fuzzer._current_reports.clear()
        fault = fuzzer.target.execute(program.clone(), fuzzer.spec.style)
        return (
            type(fault).__name__ if fault is not None else None,
            sorted(r.dedup_key() for r in fuzzer._current_reports),
        )

    def test_restore_then_continue_fuzzing(self):
        fuzzer = TardisFuzzer("InfiniTime", seed=4)
        programs = [p.clone() for p in fuzzer.corpus[:6]]
        for program in programs[:2]:
            fuzzer.target.execute(program.clone(), fuzzer.spec.style)

        fork = self._fork(fuzzer)
        runtime_state = self._runtime_image(fuzzer.target.runtime)
        first = [self._outcome(fuzzer, p) for p in programs[2:]]

        fork.restore()
        # the runtime rewound with the machine (shadow, quarantine,
        # pending stacks, console tail)
        assert self._runtime_image(fuzzer.target.runtime) == runtime_state
        # and the same programs replay to identical faults and reports
        second = [self._outcome(fuzzer, p) for p in programs[2:]]
        assert second == first

    def test_restore_keeps_coverage_listener_live(self):
        fuzzer = TardisFuzzer("InfiniTime", seed=4)
        fork = self._fork(fuzzer)
        fuzzer.run(10)
        fork.restore()
        before = len(fuzzer.target.coverage)
        fuzzer.step(fuzzer.corpus[0].clone())
        assert len(fuzzer.target.coverage) >= before
        assert fuzzer.execs == 11

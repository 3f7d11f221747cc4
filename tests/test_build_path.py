"""The firmware build path: dry-run memo, blob memo and console writes.

A target build pays for one boot.  An EMBSAN-D build learns its
allocator entry points from one dry-run clone per build recipe, the
VxWorks service blobs are assembled once per source text and origin,
and ``printk`` writes the boot banner straight to the UART model.  The
tests here pin that each shortcut gives what the long way gives: the
memoized specs equal a fresh clone's, a memoized blob set is equal to a
fresh assembly but never shared, and the boot console's device state,
guest cycles and CONSOLE events equal the golden values recorded when
``printk`` still stored each byte through the bus.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.emulator.events import EventKind
from repro.emulator.hypercalls import Hypercall
from repro.firmware import builder
from repro.firmware.builder import attach_runtime, ground_truth_alloc_specs
from repro.firmware.instrument import InstrumentationMode
from repro.firmware.registry import all_firmware, build_firmware, firmware_spec
from repro.fuzz.tardis import TardisFuzzer
from repro.isa.assembler import assemble
from repro.os.vxworks import netsvc

_LINUX_515 = b"Embedded Linux 5.15 (repro) ready.\n"
_LITEOS = b"Huawei LiteOS 5.0 (repro) entering scheduler.\n"

#: firmware -> (console, UART mmio_writes, data register, UART _epoch,
#: guest cycles charged, CONSOLE events), after an attach-then-boot
#: build in the paper's mode; every build also ends ready with the
#: runtime enabled
PRINTK_GOLDEN = {
    "OpenWRT-armvirt": (_LINUX_515, 35, 10, 69, 111, 35),
    "OpenWRT-bcm63xx": (_LINUX_515, 35, 10, 69, 149, 35),
    "OpenWRT-ipq807x": (_LINUX_515, 35, 10, 69, 111, 35),
    "OpenWRT-mt7629": (_LINUX_515, 35, 10, 69, 111, 35),
    "OpenWRT-rtl839x": (_LINUX_515, 35, 10, 69, 130, 35),
    "OpenWRT-x86_64": (_LINUX_515, 35, 10, 69, 111, 35),
    "OpenHarmony-rk3566": (
        b"Embedded Linux 5.10 (repro) ready.\n", 35, 10, 69, 111, 35),
    "OpenHarmony-stm32mp1": (_LITEOS, 46, 10, 92, 92, 46),
    "OpenHarmony-stm32f407": (_LITEOS, 46, 10, 92, 92, 46),
    "InfiniTime": (
        b"FreeRTOS 10.4.3 (repro) scheduler started.\n", 43, 10, 85, 86, 43),
    "TP-Link WDR-7660": (
        b"VxWorks 6.9 (repro) WDR-7660 services up.\n", 42, 10, 83, 84, 42),
}

#: sha256 prefix of the booted TP-Link flash (the three service blobs)
TPLINK_FLASH_SHA = "e1b9a39f73d2fe0d"

_EMBSAN_D = tuple(
    spec.name for spec in all_firmware()
    if spec.inst_mode is InstrumentationMode.EMBSAN_D
)


def _boot_counting_console(name: str):
    image = build_firmware(name, boot=False)
    runtime = attach_runtime(image)
    events = []
    image.machine.hooks.add(EventKind.CONSOLE, events.append)
    image.boot()
    return image, runtime, events


class TestPrintkGolden:
    def test_golden_covers_the_catalog(self):
        assert set(PRINTK_GOLDEN) == {spec.name for spec in all_firmware()}

    @pytest.mark.parametrize("name", sorted(PRINTK_GOLDEN))
    def test_boot_console_matches_golden(self, name):
        image, runtime, events = _boot_counting_console(name)
        machine = image.machine
        uart = machine.uart
        output, writes, data, epoch, charged, n_events = PRINTK_GOLDEN[name]
        assert bytes(uart.output) == output
        assert uart.mmio_writes == writes
        assert uart.regfile["data"] == data
        assert uart._epoch == epoch
        assert machine._charged_guest_cycles == charged
        assert len(events) == n_events
        assert [event.byte for event in events] == list(output)
        assert machine.ready
        assert runtime.enabled


class TestPutcHypercall:
    def test_guest_vmcall_putc_writes_one_byte(self):
        image = build_firmware("TP-Link WDR-7660")
        machine = image.machine
        events = []
        machine.hooks.add(EventKind.CONSOLE, events.append)
        flash = machine.arch.region("flash")
        code = flash.base + flash.size - 0x100
        program = assemble(
            f".org {code:#x}\nmovi a0, 65\nvmcall {int(Hypercall.PUTC):#x}\nhlt",
            base=code,
        )
        with machine.bus.untraced():
            machine.bus.write_bytes(code, program.image)
        before = bytes(machine.uart.output)
        writes = machine.uart.mmio_writes
        cpu = image.kernel.cpu
        cpu.state.halted = False
        cpu.state.pc = code
        cpu.run(max_steps=10)
        assert bytes(machine.uart.output) == before + b"A"
        assert machine.uart.mmio_writes == writes + 1
        assert [event.byte for event in events] == [65]


class TestDryRunMemo:
    @pytest.mark.parametrize("name", _EMBSAN_D)
    def test_memo_matches_a_fresh_clone(self, name):
        spec = firmware_spec(name)
        variants = [(False, True), (False, False)]
        if spec.driver_factory is not None:
            variants += [(True, True), (True, False)]
        seen = {}
        for driver, with_bugs in variants:
            image = build_firmware(
                name, boot=False, driver=driver, with_bugs=with_bugs
            )
            runtime = attach_runtime(image)
            specs = runtime.config.alloc_fns
            assert specs == builder._DRY_RUN_SPECS[image.recipe]
            assert specs == ground_truth_alloc_specs(image.clone().kernel)
            assert isinstance(specs, tuple)
            seen[image.recipe] = specs
        assert len(seen) == len(variants)
        for recipe, specs in seen.items():
            assert builder._DRY_RUN_SPECS[recipe] is specs

    def test_explicit_specs_and_booted_images_skip_the_memo(self):
        name = _EMBSAN_D[0]
        builder._DRY_RUN_SPECS.clear()
        booted = build_firmware(name)
        assert attach_runtime(booted).config.alloc_fns == (
            ground_truth_alloc_specs(booted.kernel)
        )
        image = build_firmware(name, boot=False)
        assert attach_runtime(image, alloc_specs=()).config.alloc_fns == ()
        assert builder._DRY_RUN_SPECS == {}


class TestBuildWorkCounts:
    def test_second_embsan_d_fuzzer_skips_the_dry_run(self, monkeypatch):
        calls = []
        real = builder.build_image

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(builder, "build_image", counting)
        monkeypatch.setattr("repro.firmware.registry.build_image", counting)
        builder._DRY_RUN_SPECS.clear()
        for _ in range(2):
            TardisFuzzer("InfiniTime", seed=1)
        assert len(calls) == 3

    def test_two_tplink_fuzzers_assemble_three_blobs(self, monkeypatch):
        calls = []
        real = netsvc.assemble

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(netsvc, "assemble", counting)
        netsvc._assemble_blob.cache_clear()
        for _ in range(2):
            TardisFuzzer("TP-Link WDR-7660", seed=1)
        assert len(calls) == 3

    def test_patched_source_is_reassembled(self, monkeypatch):
        image = build_firmware("TP-Link WDR-7660")
        patched = netsvc.PPPOED_SOURCE.replace("movi  t3, 0x09", "movi  t3, 0x0a")
        monkeypatch.setattr(netsvc, "PPPOED_SOURCE", patched)
        other = build_firmware("TP-Link WDR-7660")
        assert other.kernel.blobs["pppoed"] != image.kernel.blobs["pppoed"]
        assert other.kernel.blobs["dhcpsd"] == image.kernel.blobs["dhcpsd"]


class TestTplinkBlobs:
    def test_two_builds_have_identical_flash_and_distinct_blobs(self):
        first = build_firmware("TP-Link WDR-7660")
        second = build_firmware("TP-Link WDR-7660")
        flashes = [
            bytes(image.machine.bus.region_named("flash").data)
            for image in (first, second)
        ]
        assert flashes[0] == flashes[1]
        assert hashlib.sha256(flashes[0]).hexdigest()[:16] == TPLINK_FLASH_SHA
        assert first.kernel.blobs == second.kernel.blobs
        assert first.kernel.blobs is not second.kernel.blobs
        first.kernel.blobs["pppoed"] = None
        assert second.kernel.blobs["pppoed"] is not None

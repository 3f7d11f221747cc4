"""Peripheral model subsystem: register-map semantics, descriptor-ring
DMA, IRQ sources, irq-storm fault injection, and the ``driver`` fuzz
surface.

The headline contracts under test:

* hostile DMA programming (windows into MMIO space, region-crossing
  lengths, overlapping src/dst) raises a structured
  :class:`~repro.errors.DmaFault` before any byte moves — on the legacy
  one-shot engine and on the descriptor-ring engine alike;
* modeled peripherals restore coherently across fork-server rewinds,
  including mid-transfer ring state;
* a ``--surface driver`` campaign reaches every seeded driver bug in
  the census, byte-identically across exec modes, while the
  default syscall-surface census stays byte-identical to a build that
  never heard of the driver surface.
"""

from __future__ import annotations


import pytest

from repro.emulator.devices import DMA_CTRL, DMA_DST, DMA_IRQ, DMA_LEN, DMA_SRC
from repro.emulator.events import EventKind
from repro.emulator.faults import FaultPlan, FaultPlanError
from repro.emulator.snapshot import ForkServer
from repro.errors import DmaFault, FirmwareBuildError, FuzzerError
from repro.firmware.builder import attach_runtime
from repro.firmware.registry import build_firmware
from repro.fuzz.campaign import run_campaign
from repro.fuzz.checkpoint import result_digest
from repro.fuzz.ifspec import driver_interface
from repro.fuzz.syzkaller import SyzkallerFuzzer
from repro.obs import Observer
from repro.periph.device import DeviceModel
from repro.periph.netdma import (
    NETDMA_CTRL,
    NETDMA_DOORBELL,
    NETDMA_IRQ,
    NETDMA_IRQ_COMPLETE,
    NETDMA_IRQ_FAULT,
    NETDMA_IRQ_STATUS,
    NETDMA_RING_BASE,
    NETDMA_RING_COUNT,
    NETDMA_RING_HEAD,
    NETDMA_RING_TAIL,
    NETDMA_STATUS,
    NetDmaModel,
)
from repro.periph.regmap import Reg, RegisterMap
from repro.periph.ring import (
    DESC_BYTES,
    DESC_DONE,
    DESC_OWNED,
    DescriptorRing,
    check_dma_window,
)
from repro.sanitizers.runtime.reports import BugType

DRIVER_FIRMWARE = "OpenWRT-armvirt"
DRIVER_FIRMWARE_2 = "OpenHarmony-rk3566"

SRAM = 0x2000_0000
DRAM = 0x4000_0000


# ----------------------------------------------------------------------
# RegisterMap / Reg semantics
# ----------------------------------------------------------------------
def _note_write(dev, reg, value, old):
    dev.writes_seen.append((reg.name, value, old))


def _fixed_read(dev, reg, value):
    return 0x99


class _Widget(DeviceModel):
    NAME = "widget"
    SIZE = 0x100
    REGISTERS = RegisterMap(
        Reg("cfg", 0x00, reset=0x1234),
        Reg("id", 0x04, mode="ro", reset=0xCAFE),
        Reg("key", 0x08, mode="wo", width=2),
        Reg("count", 0x0C, mode="rc"),
        Reg("irq", 0x10, mode="w1c", reset=0xF),
        Reg("door", 0x14, mode="wo", on_write=_note_write),
        Reg("magic", 0x18, on_read=_fixed_read),
    )

    def __init__(self, base, machine=None):
        super().__init__(base, machine=machine)
        self.writes_seen = []


@pytest.fixture
def widget(machine):
    dev = _Widget(machine.free_mmio_base(), machine)
    machine.attach_periph(dev)
    return dev


class TestRegisterMap:
    def test_reset_values_visible(self, machine, widget):
        assert machine.bus.load(widget.base + 0x00, 4) == 0x1234
        assert machine.bus.load(widget.base + 0x04, 4) == 0xCAFE

    def test_rw_round_trip(self, machine, widget):
        machine.bus.store(widget.base + 0x00, 4, 0xDEADBEEF)
        assert machine.bus.load(widget.base + 0x00, 4) == 0xDEADBEEF

    def test_ro_ignores_guest_writes(self, machine, widget):
        machine.bus.store(widget.base + 0x04, 4, 0x1111)
        assert machine.bus.load(widget.base + 0x04, 4) == 0xCAFE
        # the device side still updates through reg_set
        widget.reg_set("id", 0xBEEF)
        assert machine.bus.load(widget.base + 0x04, 4) == 0xBEEF

    def test_wo_reads_as_zero_and_masks_width(self, machine, widget):
        machine.bus.store(widget.base + 0x08, 4, 0x1_FFFF)
        assert machine.bus.load(widget.base + 0x08, 4) == 0
        # 2-byte register: the stored value is masked to its width
        assert widget.reg_get("key") == 0xFFFF

    def test_read_to_clear(self, machine, widget):
        widget.reg_set("count", 5)
        assert machine.bus.load(widget.base + 0x0C, 4) == 5
        assert machine.bus.load(widget.base + 0x0C, 4) == 0

    def test_write_1_to_clear(self, machine, widget):
        machine.bus.store(widget.base + 0x10, 4, 0x5)
        assert machine.bus.load(widget.base + 0x10, 4) == 0xA
        machine.bus.store(widget.base + 0x10, 4, 0)
        assert machine.bus.load(widget.base + 0x10, 4) == 0xA

    def test_write_hook_sees_value_and_old(self, machine, widget):
        machine.bus.store(widget.base + 0x14, 4, 7)
        assert widget.writes_seen == [("door", 7, 0)]

    def test_read_hook_overrides_value(self, machine, widget):
        machine.bus.store(widget.base + 0x18, 4, 3)
        assert machine.bus.load(widget.base + 0x18, 4) == 0x99
        assert widget.reg_get("magic") == 3

    def test_unmapped_offsets_read_zero_ignore_writes(self, machine, widget):
        assert machine.bus.load(widget.base + 0x80, 4) == 0
        machine.bus.store(widget.base + 0x80, 4, 0x1234)
        assert machine.bus.load(widget.base + 0x80, 4) == 0

    def test_access_counters(self, machine, widget):
        before_r, before_w = widget.mmio_reads, widget.mmio_writes
        machine.bus.load(widget.base + 0x00, 4)
        machine.bus.store(widget.base + 0x00, 4, 1)
        assert widget.mmio_reads == before_r + 1
        assert widget.mmio_writes == before_w + 1

    def test_epoch_bumps_on_mutation_only(self, machine, widget):
        epoch = widget._epoch
        machine.bus.load(widget.base + 0x00, 4)  # pure read of rw
        assert widget._epoch == epoch
        machine.bus.store(widget.base + 0x00, 4, 0x42)
        assert widget._epoch > epoch

    def test_unknown_mode_rejected(self):
        with pytest.raises(FirmwareBuildError):
            Reg("bad", 0x0, mode="rmw")

    def test_unknown_width_rejected(self):
        with pytest.raises(FirmwareBuildError):
            Reg("bad", 0x0, width=3)

    def test_duplicate_offset_rejected(self):
        with pytest.raises(FirmwareBuildError):
            RegisterMap(Reg("a", 0x0), Reg("b", 0x0))

    def test_duplicate_name_rejected(self):
        with pytest.raises(FirmwareBuildError):
            RegisterMap(Reg("a", 0x0), Reg("a", 0x4))


# ----------------------------------------------------------------------
# legacy one-shot DMA engine: hostile-programming regression tests
# ----------------------------------------------------------------------
def _program_dma(machine, src, dst, length):
    base = machine.dma.base
    machine.bus.store(base + DMA_SRC, 4, src)
    machine.bus.store(base + DMA_DST, 4, dst)
    machine.bus.store(base + DMA_LEN, 4, length)


class TestDmaEngineHardening:
    def test_clean_transfer_still_works(self, machine):
        machine.bus.write_bytes(SRAM, b"\xAA" * 32)
        seen = []
        machine.hooks.add(EventKind.INTERRUPT, lambda e: seen.append(e.irq))
        _program_dma(machine, SRAM, DRAM, 32)
        machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)
        assert machine.bus.read_bytes(DRAM, 32) == b"\xAA" * 32
        assert machine.dma.transfers == 1
        assert DMA_IRQ in seen

    def test_dma_into_mmio_faults(self, machine):
        _program_dma(machine, SRAM, machine.uart.base, 16)
        with pytest.raises(DmaFault):
            machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)
        assert machine.dma.transfers == 0

    def test_dma_from_mmio_faults(self, machine):
        _program_dma(machine, machine.uart.base, DRAM, 16)
        with pytest.raises(DmaFault):
            machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)

    def test_length_past_region_end_faults(self, machine):
        sram_end = SRAM + 16 * 1024 * 1024
        _program_dma(machine, sram_end - 8, DRAM, 16)
        with pytest.raises(DmaFault):
            machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)

    def test_unmapped_window_faults(self, machine):
        _program_dma(machine, 0x1000_0000, DRAM, 16)
        with pytest.raises(DmaFault):
            machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)

    def test_overlapping_src_dst_faults(self, machine):
        _program_dma(machine, SRAM, SRAM + 0x10, 0x20)
        with pytest.raises(DmaFault):
            machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)

    def test_fault_reports_device_and_addr(self, machine):
        _program_dma(machine, SRAM, machine.uart.base, 16)
        with pytest.raises(DmaFault) as info:
            machine.bus.store(machine.dma.base + DMA_CTRL, 4, 1)
        assert info.value.device == "dma"
        assert info.value.addr == machine.uart.base


# ----------------------------------------------------------------------
# descriptor-ring engine
# ----------------------------------------------------------------------
def _write_desc(machine, ring, slot, src, dst, length, flags):
    addr = ring + slot * DESC_BYTES
    machine.bus.store(addr + 0, 4, src)
    machine.bus.store(addr + 4, 4, dst)
    machine.bus.store(addr + 8, 4, length)
    machine.bus.store(addr + 12, 4, flags)


class TestDescriptorRing:
    def test_consumes_owned_descriptors_in_order(self, machine):
        ring = DescriptorRing(machine.bus, device="ring")
        base = SRAM
        machine.bus.write_bytes(DRAM, bytes(range(64)))
        _write_desc(machine, base, 0, DRAM, DRAM + 0x100, 32, DESC_OWNED)
        _write_desc(machine, base, 1, DRAM + 32, DRAM + 0x200, 32, DESC_OWNED)
        _write_desc(machine, base, 2, DRAM, DRAM + 0x300, 32, 0)  # not owned
        ring.configure(base, 4)
        ring.head = 3
        assert ring.process(machine) == 2
        assert ring.tail == 2
        assert machine.bus.read_bytes(DRAM + 0x100, 32) == bytes(range(32))
        assert machine.bus.read_bytes(DRAM + 0x200, 32) == bytes(range(32, 64))
        # the third, un-owned slot was left alone
        assert machine.bus.read_bytes(DRAM + 0x300, 4) == b"\x00" * 4
        assert ring.descriptors_done == 2
        assert ring.bytes_copied == 64

    def test_writeback_marks_done(self, machine):
        ring = DescriptorRing(machine.bus, device="ring")
        _write_desc(machine, SRAM, 0, DRAM, DRAM + 0x100, 8, DESC_OWNED)
        ring.configure(SRAM, 4)
        ring.head = 1
        ring.process(machine)
        flags = machine.bus.load(SRAM + 12, 4)
        assert flags & DESC_DONE
        assert not flags & DESC_OWNED

    def test_hostile_payload_window_faults_before_copy(self, machine):
        ring = DescriptorRing(machine.bus, device="ring")
        _write_desc(machine, SRAM, 0, DRAM, machine.uart.base, 8, DESC_OWNED)
        ring.configure(SRAM, 4)
        ring.head = 1
        with pytest.raises(DmaFault):
            ring.process(machine)
        assert ring.dma_faults == 1
        assert ring.descriptors_done == 0

    def test_ring_base_in_mmio_faults_on_fetch(self, machine):
        ring = DescriptorRing(machine.bus, device="ring")
        ring.configure(machine.uart.base, 4)
        ring.head = 1
        with pytest.raises(DmaFault):
            ring.process(machine)

    def test_overlapping_payload_faults(self, machine):
        ring = DescriptorRing(machine.bus, device="ring")
        _write_desc(machine, SRAM, 0, DRAM, DRAM + 4, 16, DESC_OWNED)
        ring.configure(SRAM, 4)
        ring.head = 1
        with pytest.raises(DmaFault):
            ring.process(machine)

    def test_unconfigured_ring_is_inert(self, machine):
        ring = DescriptorRing(machine.bus, device="ring")
        assert ring.process(machine) == 0

    def test_check_dma_window_boundary(self, machine):
        sram_end = SRAM + 16 * 1024 * 1024
        # exactly at the end is fine; one byte over is a fault
        check_dma_window(machine.bus, sram_end - 16, 16, writing=False)
        with pytest.raises(DmaFault):
            check_dma_window(machine.bus, sram_end - 16, 17, writing=False)


# ----------------------------------------------------------------------
# the netdma modeled peripheral
# ----------------------------------------------------------------------
@pytest.fixture
def netdma(machine):
    dev = NetDmaModel(machine.free_mmio_base(), machine)
    machine.attach_periph(dev)
    return dev


def _netdma_setup(machine, dev, descs=1, length=32):
    """Program a ring at SRAM with ``descs`` owned descriptors."""
    machine.bus.write_bytes(DRAM, bytes(range(256)) * ((descs * length) // 256 + 1))
    for slot in range(descs):
        _write_desc(machine, SRAM, slot, DRAM + slot * length,
                    DRAM + 0x1000 + slot * length, length, DESC_OWNED)
    base = dev.base
    machine.bus.store(base + NETDMA_RING_BASE, 4, SRAM)
    machine.bus.store(base + NETDMA_RING_COUNT, 4, 4)
    machine.bus.store(base + NETDMA_RING_HEAD, 4, descs)
    machine.bus.store(base + NETDMA_CTRL, 4, 1)


class TestNetDmaModel:
    def test_doorbell_processes_and_signals(self, machine, netdma):
        seen = []
        machine.hooks.add(EventKind.INTERRUPT, lambda e: seen.append(e.irq))
        _netdma_setup(machine, netdma, descs=2)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        base = netdma.base
        assert machine.bus.read_bytes(DRAM + 0x1000, 64) == \
            machine.bus.read_bytes(DRAM, 64)
        assert machine.bus.load(base + NETDMA_RING_TAIL, 4) == 2
        # STATUS is read-to-clear
        assert machine.bus.load(base + NETDMA_STATUS, 4) == 2
        assert machine.bus.load(base + NETDMA_STATUS, 4) == 0
        # IRQ_STATUS is write-1-to-clear
        assert machine.bus.load(base + NETDMA_IRQ_STATUS, 4) \
            == NETDMA_IRQ_COMPLETE
        machine.bus.store(base + NETDMA_IRQ_STATUS, 4, NETDMA_IRQ_COMPLETE)
        assert machine.bus.load(base + NETDMA_IRQ_STATUS, 4) == 0
        assert seen == [NETDMA_IRQ]
        assert netdma.irq.raised == 1 and netdma.irq.delivered == 1

    def test_disabled_engine_ignores_doorbell(self, machine, netdma):
        _netdma_setup(machine, netdma, descs=1)
        machine.bus.store(netdma.base + NETDMA_CTRL, 4, 0)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        assert machine.bus.load(netdma.base + NETDMA_RING_TAIL, 4) == 0
        assert netdma.ring.descriptors_done == 0

    def test_tail_is_read_only(self, machine, netdma):
        machine.bus.store(netdma.base + NETDMA_RING_TAIL, 4, 99)
        assert machine.bus.load(netdma.base + NETDMA_RING_TAIL, 4) == 0

    def test_hostile_descriptor_latches_fault_bit(self, machine, netdma):
        _write_desc(machine, SRAM, 0, DRAM, machine.uart.base, 8, DESC_OWNED)
        base = netdma.base
        machine.bus.store(base + NETDMA_RING_BASE, 4, SRAM)
        machine.bus.store(base + NETDMA_RING_COUNT, 4, 4)
        machine.bus.store(base + NETDMA_RING_HEAD, 4, 1)
        machine.bus.store(base + NETDMA_CTRL, 4, 1)
        with pytest.raises(DmaFault):
            machine.bus.store(base + NETDMA_DOORBELL, 4, 1)
        assert machine.bus.load(base + NETDMA_IRQ_STATUS, 4) \
            & NETDMA_IRQ_FAULT

    def test_snapshot_restores_mid_transfer_state(self, machine, netdma):
        _netdma_setup(machine, netdma, descs=1)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        fork = ForkServer(machine)
        golden_regs = dict(netdma.regfile)
        golden_ring = netdma.ring.save_state()
        # mutate past the capture point: two more submissions
        _write_desc(machine, SRAM, 1, DRAM, DRAM + 0x2000, 16, DESC_OWNED)
        _write_desc(machine, SRAM, 2, DRAM + 64, DRAM + 0x3000, 16, DESC_OWNED)
        machine.bus.store(netdma.base + NETDMA_RING_HEAD, 4, 3)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        assert netdma.ring.tail == 3
        fork.restore()
        assert netdma.regfile == golden_regs
        assert netdma.ring.save_state() == golden_ring

    def test_forkserver_restores_device_and_telemetry(self, machine, netdma):
        _netdma_setup(machine, netdma, descs=1)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        golden_regs = dict(netdma.regfile)
        golden_counters = (netdma.mmio_writes, netdma.ring.descriptors_done,
                          netdma.irq.raised)
        fork = ForkServer(machine)
        _write_desc(machine, SRAM, 1, DRAM, DRAM + 0x2000, 16, DESC_OWNED)
        machine.bus.store(netdma.base + NETDMA_RING_HEAD, 4, 2)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        assert netdma.ring.descriptors_done == 2
        fork.restore()
        assert netdma.regfile == golden_regs
        assert (netdma.mmio_writes, netdma.ring.descriptors_done,
                netdma.irq.raised) == golden_counters
        # the restored device still works: ring the same doorbell again
        _write_desc(machine, SRAM, 1, DRAM, DRAM + 0x2000, 16, DESC_OWNED)
        machine.bus.store(netdma.base + NETDMA_RING_HEAD, 4, 2)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        assert netdma.ring.descriptors_done == golden_counters[1] + 1


# ----------------------------------------------------------------------
# irq-storm fault clause
# ----------------------------------------------------------------------
class TestIrqStorm:
    def test_parse_fields(self):
        plan = FaultPlan.parse("irq-storm:line=3,count=5,p=0.25", seed=7)
        assert plan.irq_storm_line == 3
        assert plan.irq_storm_count == 5
        assert plan.irq_storm_rate == 0.25
        assert plan.active

    def test_count_without_p_means_always(self):
        plan = FaultPlan.parse("irq-storm:line=1,count=2")
        assert plan.irq_storm_rate == 1.0

    def test_unknown_option_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("irq-storm:line=1,burst=4")

    def test_describe_round_trip(self):
        spec = "irq-storm:line=3,count=5,p=0.25;seed=7"
        plan = FaultPlan.parse(spec)
        assert plan.describe() == spec
        assert FaultPlan.parse(plan.describe()).describe() == spec

    def test_rng_untouched_without_storm_clause(self):
        plan = FaultPlan(seed=1, irq_drop_rate=0.5)
        state = plan.save_rng_state()
        assert plan.irq_storm() is None
        assert plan.save_rng_state() == state

    def test_vmcall_delivers_burst(self, machine):
        plan = FaultPlan(seed=1, irq_storm_line=7, irq_storm_count=3,
                         irq_storm_rate=1.0)
        machine.set_fault_plan(plan)
        seen = []
        machine.hooks.add(EventKind.INTERRUPT, lambda e: seen.append(e.irq))
        machine.vmcall(0x999, [])
        assert seen == [7, 7, 7]
        assert plan.stats()["irq_storms"] == 1

    def test_no_storm_without_plan(self, machine):
        seen = []
        machine.hooks.add(EventKind.INTERRUPT, lambda e: seen.append(e.irq))
        machine.vmcall(0x999, [])
        assert seen == []


# ----------------------------------------------------------------------
# the driver fuzz surface
# ----------------------------------------------------------------------
def _driver_reports(firmware, calls, sanitizers=("kasan", "kmsan")):
    image = build_firmware(firmware, driver=True, boot=False)
    runtime = attach_runtime(image, sanitizers=sanitizers)
    image.boot()
    kernel, ctx = image.kernel, image.ctx
    for nr, a0, a1, a2 in calls:
        kernel.driver_invoke(ctx, nr, a0, a1, a2)
    return runtime.reports.reports


class TestDriverSurface:
    def test_driver_build_requires_driver_factory(self):
        with pytest.raises(FirmwareBuildError):
            build_firmware("OpenWRT-bcm63xx", driver=True, boot=False)

    def test_unknown_surface_rejected(self):
        with pytest.raises(FuzzerError):
            SyzkallerFuzzer(DRIVER_FIRMWARE, surface="nvme")

    def test_driver_interface_requires_driver_build(self, linux_image):
        with pytest.raises(FuzzerError):
            driver_interface(linux_image.kernel)

    def test_driver_build_registers_ops_and_periphs(self):
        image = build_firmware(DRIVER_FIRMWARE, driver=True)
        assert image.kernel.driver_templates
        assert image.ctx.machine.periphs
        spec = driver_interface(image.kernel)
        assert spec.style == "driver"
        assert spec.extra_seeds

    def test_default_build_untouched(self):
        image = build_firmware(DRIVER_FIRMWARE)
        assert not image.kernel.driver_templates
        assert not image.ctx.machine.periphs

    def test_ring_oob_reaches_kasan(self):
        # init, submit 4 descriptors, submit one more: the fifth
        # completion indexes one slot past the ring allocation
        reports = _driver_reports(
            DRIVER_FIRMWARE,
            [(1, 0, 0, 0), (3, 3, 8, 0), (3, 0, 8, 0)],
        )
        oob = [r for r in reports
               if r.tool == "kasan" and r.bug_type is BugType.SLAB_OOB]
        assert oob and all("netdma_isr" in r.location for r in oob)

    def test_desc_uaf_reaches_kasan(self):
        reports = _driver_reports(DRIVER_FIRMWARE_2,
                                  [(1, 0, 0, 0), (3, 0, 8, 0)])
        uaf = [r for r in reports
               if r.tool == "kasan" and r.bug_type is BugType.UAF]
        assert uaf and all("netdma_isr" in r.location for r in uaf)

    def test_spurious_irq_uninit_reaches_kmsan(self):
        reports = _driver_reports(DRIVER_FIRMWARE,
                                  [(1, 0, 0, 0), (4, 0, 0, 0)])
        uninit = [r for r in reports if r.bug_type is BugType.UNINIT_READ]
        assert uninit and all("netdma_isr" in r.location for r in uninit)

    def test_driver_path_clean_without_bugs(self):
        image = build_firmware(DRIVER_FIRMWARE, driver=True, boot=False,
                               with_bugs=False)
        runtime = attach_runtime(image, sanitizers=("kasan", "kmsan"))
        image.boot()
        kernel, ctx = image.kernel, image.ctx
        for nr, a0, a1, a2 in [(1, 0, 0, 0), (3, 3, 8, 0), (3, 0, 8, 0),
                               (4, 0, 0, 0), (5, 0, 0, 0)]:
            kernel.driver_invoke(ctx, nr, a0, a1, a2)
        assert runtime.reports.reports == []


# ----------------------------------------------------------------------
# driver-surface campaigns: census + byte identity
# ----------------------------------------------------------------------
class TestDriverCampaign:
    @pytest.mark.parametrize("firmware", [DRIVER_FIRMWARE, DRIVER_FIRMWARE_2])
    def test_census_matches_every_seeded_driver_bug(self, firmware):
        result = run_campaign(firmware, budget=120, seed=1, surface="driver")
        assert result.missed == []
        assert set(result.matched)

    def test_journal_and_forkserver_censuses_identical(self):
        journal = run_campaign(DRIVER_FIRMWARE, budget=120, seed=1,
                               surface="driver")
        fork = run_campaign(DRIVER_FIRMWARE, budget=120, seed=1,
                            surface="driver", exec_mode="forkserver")
        assert journal.missed == [] and fork.missed == []
        assert result_digest(journal) == result_digest(fork)

    def test_default_surface_census_byte_identical(self):
        implicit = run_campaign(DRIVER_FIRMWARE, budget=40, seed=3)
        explicit = run_campaign(DRIVER_FIRMWARE, budget=40, seed=3,
                                surface="syscall")
        assert result_digest(implicit) == result_digest(explicit)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestPeriphObservability:
    def test_counters_materialized_at_zero(self, machine):
        obs = Observer(trace=False)
        obs.harvest_machine(machine)
        counters = obs.registry.to_json()["counters"]
        for name in ("periph.mmio_reads", "periph.mmio_writes",
                     "periph.dma_descriptors", "periph.dma_bytes",
                     "periph.dma_faults", "periph.irqs_raised",
                     "periph.irqs_delivered"):
            assert counters[name] == 0

    def test_device_activity_harvested(self, machine, netdma):
        _netdma_setup(machine, netdma, descs=2)
        machine.bus.store(netdma.base + NETDMA_DOORBELL, 4, 1)
        obs = Observer(trace=False)
        obs.harvest_machine(machine)
        counters = obs.registry.to_json()["counters"]
        assert counters["periph.mmio_writes"] >= 5
        assert counters["periph.dma_descriptors"] == 2
        assert counters["periph.dma_bytes"] == 64
        assert counters["periph.irqs_raised"] == 1
        assert counters["periph.irqs_delivered"] == 1

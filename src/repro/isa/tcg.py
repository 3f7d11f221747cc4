"""Translation-block execution engine with sanitizer probe injection.

This mirrors the mechanism EMBSAN uses on QEMU/TCG (§3.3): instead of
introspecting the virtual machine from outside, the *Common Sanitizer
Runtime* modifies the translation templates themselves.  When a sanitizer
registers a load/store probe, every translated memory instruction gains an
inline call to the probe delegate (``load_intercept``-style) with the
required arguments reconstructed symbolically (address register + offset,
access size, pc, task id).  Re-registering probes flushes the TB cache so
new templates take effect — exactly like a QEMU ``tb_flush``.

A probe may come with a scalar *clean-access test* ``(addr, size) ->
bool`` (KASAN's inline shadow check).  While it is the only probe, the
templates call the test first: it does a clean access's whole effect
itself and returns True, and only when it declines (poisoned or partial
shadow) does the template build an :class:`Access` for the delegate.

Guest code executed here performs its memory traffic *untraced* on the
bus: the injected probes are the single notification channel, so an
attached runtime never sees the same access twice.

``translate()`` compiles *every* instruction into a closure with its
operands, immediates and probe set pre-bound, and ``run()`` is the one
block loop: a tight pass over a block's pre-built thunks with no opcode
comparisons or dict lookups, followed by the block's counter updates and
the watchdog's per-block metering, inlined.  ``run()`` also chains
blocks: a block whose terminator has static successors (jump, call,
conditional branch, fall-through) links directly to the successor
``TranslationBlock``, skipping the cache lookup entirely.  Links carry
the translation generation and die on ``flush_tbs()``;
``invalidate_range()`` (journal rollback, fork-server dirty-span
restore) drops only the overlapping blocks.  Scalar guest stores into
translated code flush and exit the current block, so self-modifying
code re-translates before its next instruction executes.  Bulk writes
into translated code (``write_bytes``/``fill``/``copy``/DMA) flush via a
bus write watcher and take effect at the next block boundary.

The engine retires the same architectural state and charges the same
guest cycles and instruction counts as the reference
:class:`repro.isa.cpu.Cpu`, so the calibrated Figure-2 cost model is
engine-independent.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestFault, InvalidOpcode
from repro.isa.cpu import CpuState, HypercallHandler
from repro.isa.insn import (
    INSN_SIZE,
    Instruction,
    MEM_OPS,
    Op,
    decode,
    sign32,
)
from repro.mem.access import Access, AccessKind
from repro.mem.bus import MemoryBus

#: Probe delegate signature: receives a fully reconstructed Access.
MemProbe = Callable[[Access], None]
#: Clean-access test: (addr, size) -> True when it handled the access.
CleanTest = Callable[[int, int], bool]
#: (pc, target, args, lr) on CALL/CALLR.
CallProbe = Callable[[int, int, List[int], int], None]
#: (pc, return_value) on RET.
RetProbe = Callable[[int, int], None]

#: Maximum instructions per translation block.
MAX_BLOCK_LEN = 64

#: Default bound on cached translation blocks; long campaigns evict the
#: least-recently-executed block (cache hits and chain hits both touch)
#: instead of growing unboundedly.
TB_CACHE_CAPACITY = 2048

#: Successor links kept per block; static terminators need at most two
#: (taken + fall-through), the cap only guards degenerate exits.
_MAX_LINKS = 4

_M = 0xFFFFFFFF
_DATA = AccessKind.DATA

#: Terminators whose successors are static, hence chainable.
_CHAINABLE = frozenset(
    {Op.JMP, Op.CALL, Op.BEQ, Op.BNE, Op.BLT, Op.BLTU, Op.BGE, Op.BGEU}
)


class TranslationBlock:
    """One translated basic block: entry pc, length, and executable ops."""

    __slots__ = ("pc", "insns", "ops", "host_ops", "cum_cycles", "pre_charge",
                 "end_pc", "links", "generation")

    def __init__(self, pc: int, insns: List[Instruction], ops: List,
                 host_ops: int, cum_cycles: Tuple[int, ...],
                 pre_charge: Tuple[int, ...], end_pc: int,
                 links: Optional[Dict], generation: int):
        self.pc = pc
        self.insns = insns
        self.ops = ops
        #: number of host-level operations the templates expand to; the
        #: cost model uses this as the translation expansion measure.
        self.host_ops = host_ops
        #: prefix sums of per-instruction guest cycles: ``cum_cycles[i]``
        #: is the charge after executing ``i`` thunks.
        self.cum_cycles = cum_cycles
        #: cycles charged for instruction ``i`` when it raises: its full
        #: cost, as the reference ``Cpu`` charges before its first raise
        #: point, except for a probed memory template, whose probe runs
        #: (and may raise) before the access is charged.
        self.pre_charge = pre_charge
        #: pc after the last instruction (fall-through target).
        self.end_pc = end_pc
        #: successor-pc -> TranslationBlock for chainable terminators;
        #: None when the terminator is dynamic (JR/CALLR/RET) or halting.
        self.links = links
        #: translation generation; ``run()`` refuses chained links whose
        #: generation predates the last ``flush_tbs()``.
        self.generation = generation

    def __len__(self) -> int:
        return len(self.insns)


class TcgEngine:
    """Basic-block translating executor for EVM32 guest code."""

    def __init__(
        self,
        bus: MemoryBus,
        pc: int = 0,
        sp: int = 0,
        hypercall: Optional[HypercallHandler] = None,
        tb_cache_capacity: int = TB_CACHE_CAPACITY,
    ):
        self.bus = bus
        self.state = CpuState(pc=pc, sp=sp)
        self.hypercall = hypercall
        self.cycles = 0
        self.insn_count = 0
        self.host_ops = 0
        self.tb_cache: Dict[int, TranslationBlock] = {}
        self.tb_flush_count = 0
        self.tb_generation = 0
        self.tb_evictions = 0
        self.tb_chain_hits = 0
        self.tb_translations = 0
        self.tb_invalidations = 0
        self.tb_cache_capacity = tb_cache_capacity
        #: optional :class:`repro.obs.trace.Tracer`; when set, each
        #: cache-miss translation records a span.  Only the miss path
        #: tests it, so cached execution never pays for tracing.
        self.tracer = None
        #: (probe, clean-access test or None) pairs, in registration order
        self._mem_probes: tuple = ()
        self.call_probes: List[CallProbe] = []
        self.ret_probes: List[RetProbe] = []
        #: optional hang guard, consulted once per executed block
        self.watchdog = None
        # span of guest addresses covered by live translations; scalar
        # stores landing inside it are self-modifying code and flush.
        self._code_lo = 1 << 62
        self._code_hi = -1
        # bulk writes (write_bytes/fill/copy/DMA) bypass the scalar-store
        # templates, so the bus reports them here for the same check
        bus.add_write_watcher(self._on_bulk_write)

    # ------------------------------------------------------------------
    # probe management (the Runtime's template-modification entry point)
    # ------------------------------------------------------------------
    def add_mem_probe(self, probe: MemProbe,
                      clean: Optional[CleanTest] = None) -> None:
        """Inject a memory probe into all future translation templates.

        ``clean`` is the probe's optional clean-access test: called with
        the access's address and size, it does everything ``probe`` would
        do for that access and returns True, or returns False having done
        nothing.  Templates use it only while ``probe`` is the sole probe.
        """
        self._mem_probes = self._mem_probes + ((probe, clean),)
        self.flush_tbs()

    def remove_mem_probe(self, probe: MemProbe) -> None:
        """Remove a probe and regenerate templates without it.

        A probe that was never registered is a no-op: the templates
        already lack it, so there is nothing to flush.
        """
        if not any(p is probe for p, _ in self._mem_probes):
            return
        self._mem_probes = tuple(
            pair for pair in self._mem_probes if pair[0] is not probe
        )
        self.flush_tbs()

    def flush_tbs(self) -> None:
        """Discard every cached translation block and kill chained links."""
        self.tb_cache.clear()
        self.tb_flush_count += 1
        self.tb_generation += 1
        self._code_lo = 1 << 62
        self._code_hi = -1

    def _on_bulk_write(self, addr: int, size: int) -> None:
        """Bus bulk-write watcher: flush when the write hits translated code."""
        if addr < self._code_hi and addr + size > self._code_lo:
            self.flush_tbs()

    def invalidate_range(self, lo: int, hi: int) -> int:
        """Drop only the translations overlapping ``[lo, hi)``.

        The surgical alternative to :meth:`flush_tbs` for memory rewinds
        (journal rollback, dirty-page delta restore) whose written span
        is known: blocks outside the span — the overwhelming majority —
        keep their translations *and* their chain links, because the
        generation counter is left untouched.  Dropped blocks get the
        eviction treatment (dead generation) so stale links into them
        miss.  Returns the number of blocks invalidated.
        """
        if hi <= lo or hi <= self._code_lo or lo >= self._code_hi:
            return 0
        doomed = [
            pc
            for pc, block in self.tb_cache.items()
            if block.pc < hi and block.end_pc > lo
        ]
        for pc in doomed:
            block = self.tb_cache.pop(pc)
            block.generation = -1
        self.tb_invalidations += len(doomed)
        return len(doomed)

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def translate(self, pc: int) -> TranslationBlock:
        """Translate (or fetch from cache) the block starting at ``pc``."""
        cache = self.tb_cache
        cached = cache.get(pc)
        if cached is not None:
            # LRU touch: recently-run blocks move to the young end
            del cache[pc]
            cache[pc] = cached
            return cached
        self.tb_translations += 1
        tracer = self.tracer
        trace_start = tracer.now() if tracer is not None else 0.0
        insns: List[Instruction] = []
        addr = pc
        while len(insns) < MAX_BLOCK_LEN:
            try:
                insn = decode(self.bus.fetch(addr, INSN_SIZE))
            except GuestFault:
                if insns:
                    # end the block before the bad slot: the instructions
                    # ahead of it retire first, and the fault is raised
                    # only once execution reaches its pc
                    break
                # the entry itself cannot be fetched or decoded: fault
                # and halt, as Cpu.step does
                self.state.halted = True
                raise
            insns.append(insn)
            if insn.is_terminator():
                break
            addr += INSN_SIZE
        end_pc = pc + len(insns) * INSN_SIZE
        block = self._build_block(pc, insns, end_pc)
        if pc < self._code_lo:
            self._code_lo = pc
        if end_pc > self._code_hi:
            self._code_hi = end_pc
        cache[pc] = block
        if len(cache) > self.tb_cache_capacity:
            evicted = cache.pop(next(iter(cache)))
            # sever incoming chain links: a dead generation makes every
            # link to this block miss, so capacity bounds live
            # translations, not just the cache dict
            evicted.generation = -1
            self.tb_evictions += 1
        if tracer is not None:
            tracer.complete(
                "tb:translate", trace_start, cat="tcg",
                args={"pc": pc, "insns": len(insns),
                      "host_ops": block.host_ops},
            )
        return block

    # ------------------------------------------------------------------
    # templates: one closure per instruction
    # ------------------------------------------------------------------
    def _build_block(self, pc: int, insns: List[Instruction],
                     end_pc: int) -> TranslationBlock:
        ops: List[Callable] = []
        cycles: List[int] = []
        pre: List[int] = []
        host_ops = 0
        probes = self._mem_probes
        for idx, insn in enumerate(insns):
            insn_pc = pc + idx * INSN_SIZE
            thunk, cyc, hops = self._compile_insn(insn, insn_pc, probes)
            ops.append(thunk)
            cycles.append(cyc)
            # a probed memory template charges nothing if its probe
            # raises; every other template charges its full cycle cost
            # before its first raise point, as the reference Cpu does
            pre.append(0 if (probes and insn.op in MEM_OPS) else cyc)
            host_ops += hops
        cum = [0]
        for cyc in cycles:
            cum.append(cum[-1] + cyc)
        links: Optional[Dict] = None
        if insns[-1].op in _CHAINABLE or not insns[-1].is_terminator():
            links = {}
        return TranslationBlock(pc, insns, ops, host_ops,
                                cum_cycles=tuple(cum), pre_charge=tuple(pre),
                                end_pc=end_pc, links=links,
                                generation=self.tb_generation)

    def _compile_insn(self, insn: Instruction, insn_pc: int,
                      probes: tuple):
        """Compile one instruction to a thunk with everything pre-bound.

        The thunk returns ``None`` to fall through or the next pc to
        transfer control (ending the block).  Returns ``(thunk, cycles,
        host_ops)`` where the cycle charge matches the reference ``Cpu``
        exactly (1 per instruction, +1 for memory traffic or a hypercall).

        Closures bind ``state.regs`` directly: the register file list is
        created once per :class:`CpuState` and never reassigned, and
        ``regs[0]`` is never written, so reading it is always 0.
        """
        eng = self
        state = self.state
        regs = state.regs
        bus = self.bus
        op = insn.op
        rd, rs1, rs2, imm = insn.rd, insn.rs1, insn.rs2, insn.imm
        next_pc = (insn_pc + INSN_SIZE) & _M

        # --- memory ----------------------------------------------------
        if op in MEM_OPS:
            size, is_write, atomic = MEM_OPS[op]
            if probes:
                thunk = self._compile_probed_mem(
                    insn, insn_pc, next_pc, size, is_write, atomic, probes
                )
                return thunk, 2, 2 + len(probes)
            if is_write:
                bus_store = bus.store

                def thunk():
                    state.pc = insn_pc
                    addr = (regs[rs1] + imm) & _M
                    bus_store(addr, size, regs[rs2], insn_pc, state.task,
                              atomic)
                    if addr < eng._code_hi and addr + size > eng._code_lo:
                        # self-modifying code: drop every translation and
                        # leave the block so the store takes effect before
                        # the next instruction executes
                        eng.flush_tbs()
                        return next_pc
                    return None

                return thunk, 2, 2
            bus_load = bus.load
            if op is Op.LD8S or op is Op.LD16S:
                bound, adjust = (0x80, 0x100) if op is Op.LD8S else (0x8000, 0x10000)

                def thunk():
                    state.pc = insn_pc
                    value = bus_load((regs[rs1] + imm) & _M, size, insn_pc,
                                     state.task, atomic)
                    if value >= bound:
                        value -= adjust
                    if rd:
                        regs[rd] = value & _M

                return thunk, 2, 2

            def thunk():
                state.pc = insn_pc
                value = bus_load((regs[rs1] + imm) & _M, size, insn_pc,
                                 state.task, atomic)
                if rd:
                    regs[rd] = value

            return thunk, 2, 2

        # --- control / misc -------------------------------------------
        if op is Op.NOP or (rd == 0 and op in _WRITES_RD):
            # register writes to r0 are architectural no-ops; the cycle
            # still accrues, the work is specialized away entirely
            return _nop_thunk, 1, 1
        if op is Op.HLT:

            def thunk():
                state.halted = True
                return next_pc

            return thunk, 1, 1
        if op is Op.BRK:

            def thunk():
                state.pc = insn_pc
                state.halted = True
                raise InvalidOpcode(f"BRK trap at {insn_pc:#010x}", addr=insn_pc)

            return thunk, 1, 1
        if op is Op.VMCALL:

            def thunk():
                state.pc = insn_pc
                handler = eng.hypercall
                if handler is None:
                    raise InvalidOpcode(
                        f"VMCALL with no handler at {insn_pc:#010x}",
                        addr=insn_pc,
                    )
                result = handler(eng, imm)
                if result is not None:
                    regs[1] = result & _M
                if state.halted:
                    return next_pc
                return None

            return thunk, 2, 1

        # --- ALU register-register ------------------------------------
        if op is Op.ADD:
            def thunk(): regs[rd] = (regs[rs1] + regs[rs2]) & _M
        elif op is Op.SUB:
            def thunk(): regs[rd] = (regs[rs1] - regs[rs2]) & _M
        elif op is Op.MUL:
            def thunk(): regs[rd] = (regs[rs1] * regs[rs2]) & _M
        elif op is Op.DIVU:
            def thunk():
                b = regs[rs2]
                regs[rd] = _M if b == 0 else regs[rs1] // b
        elif op is Op.REMU:
            def thunk():
                b = regs[rs2]
                regs[rd] = regs[rs1] if b == 0 else regs[rs1] % b
        elif op is Op.AND:
            def thunk(): regs[rd] = regs[rs1] & regs[rs2]
        elif op is Op.OR:
            def thunk(): regs[rd] = regs[rs1] | regs[rs2]
        elif op is Op.XOR:
            def thunk(): regs[rd] = regs[rs1] ^ regs[rs2]
        elif op is Op.SHL:
            def thunk(): regs[rd] = (regs[rs1] << (regs[rs2] & 31)) & _M
        elif op is Op.SHR:
            def thunk(): regs[rd] = regs[rs1] >> (regs[rs2] & 31)
        elif op is Op.SRA:
            def thunk(): regs[rd] = (sign32(regs[rs1]) >> (regs[rs2] & 31)) & _M
        elif op is Op.SLT:
            def thunk(): regs[rd] = 1 if sign32(regs[rs1]) < sign32(regs[rs2]) else 0
        elif op is Op.SLTU:
            def thunk(): regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
        # --- ALU immediate --------------------------------------------
        elif op is Op.ADDI:
            def thunk(): regs[rd] = (regs[rs1] + imm) & _M
        elif op is Op.ANDI:
            def thunk(): regs[rd] = (regs[rs1] & imm) & _M
        elif op is Op.ORI:
            def thunk(): regs[rd] = (regs[rs1] | imm) & _M
        elif op is Op.XORI:
            def thunk(): regs[rd] = (regs[rs1] ^ imm) & _M
        elif op is Op.SHLI:
            shift = imm & 31

            def thunk(): regs[rd] = (regs[rs1] << shift) & _M
        elif op is Op.SHRI:
            shift = imm & 31

            def thunk(): regs[rd] = regs[rs1] >> shift
        elif op is Op.MOVI:
            value = imm & _M

            def thunk(): regs[rd] = value
        elif op is Op.LUI:
            value = (imm << 16) & _M

            def thunk(): regs[rd] = value
        elif op is Op.MOV:
            def thunk(): regs[rd] = regs[rs1]
        # --- control flow ---------------------------------------------
        elif op is Op.JMP:
            target = imm & _M

            def thunk(): return target
        elif op is Op.JR:
            def thunk(): return regs[rs1]
        elif op in (Op.BEQ, Op.BNE, Op.BLT, Op.BLTU, Op.BGE, Op.BGEU):
            thunk = _compile_branch(regs, op, rs1, rs2, imm & _M, next_pc)
        elif op is Op.CALL or op is Op.CALLR:
            static_target = imm & _M if op is Op.CALL else None

            def thunk():
                target = static_target if static_target is not None else regs[rs1]
                regs[15] = next_pc
                if eng.call_probes:
                    args = [regs[1], regs[2], regs[3], regs[4]]
                    for probe in eng.call_probes:
                        probe(insn_pc, target, args, next_pc)
                return target
        elif op is Op.RET:

            def thunk():
                rp = eng.ret_probes
                if rp:
                    rv = regs[1]
                    for probe in rp:
                        probe(insn_pc, rv)
                return regs[15]
        else:  # pragma: no cover - decode() rejects unknown opcodes
            raise InvalidOpcode(f"unhandled opcode {op!r}", addr=insn_pc)

        return thunk, 1, 1

    def _compile_probed_mem(self, insn, insn_pc, next_pc, size, is_write,
                            atomic, probes):
        """Specialized probed memory template: notify probes, then access
        the bus silently (the probes are the single notification channel).

        A sole probe's clean-access test runs first; the ``Access`` is
        built only when it declines.
        """
        eng = self
        state = self.state
        regs = state.regs
        bus = self.bus
        rs1, rs2, rd, imm, op = insn.rs1, insn.rs2, insn.rd, insn.imm, insn.op
        single, clean = probes[0] if len(probes) == 1 else (None, None)
        probes = tuple(probe for probe, _ in probes)
        if is_write:
            store_silent = bus.store_silent

            def thunk():
                state.pc = insn_pc
                addr = (regs[rs1] + imm) & _M
                if clean is None or not clean(addr, size):
                    access = Access(addr, size, True, insn_pc, state.task,
                                    _DATA, atomic)
                    if single is not None:
                        single(access)
                    else:
                        for probe in probes:
                            probe(access)
                store_silent(addr, size, regs[rs2])
                if addr < eng._code_hi and addr + size > eng._code_lo:
                    eng.flush_tbs()
                    return next_pc
                return None

            return thunk
        load_silent = bus.load_silent
        signed = op is Op.LD8S or op is Op.LD16S
        bound, adjust = (0x80, 0x100) if op is Op.LD8S else (0x8000, 0x10000)

        def thunk():
            state.pc = insn_pc
            addr = (regs[rs1] + imm) & _M
            if clean is None or not clean(addr, size):
                access = Access(addr, size, False, insn_pc, state.task,
                                _DATA, atomic)
                if single is not None:
                    single(access)
                else:
                    for probe in probes:
                        probe(access)
            value = load_silent(addr, size)
            if signed and value >= bound:
                value -= adjust
            if rd:
                regs[rd] = value & _M

        return thunk

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_steps: int = 1_000_000) -> int:
        """Run translated blocks until HLT or the step budget; returns steps.

        Consecutive blocks chain: when the previous block's terminator has
        static successors, the successor ``TranslationBlock`` is linked in
        and reused directly on later passes (generation-checked), so
        straight-line and loop-heavy firmware stops round-tripping through
        ``translate()`` and the TB cache.

        Each block runs as a tight pass over its thunks (no opcode tests,
        no dict lookups); then the watchdog is metered in line, with
        exactly the effects of :meth:`Watchdog.consume
        <repro.emulator.watchdog.Watchdog.consume>` once the run ends.
        The engine counters (``cycles``, ``insn_count``, ``host_ops``,
        ``tb_chain_hits``) and the watchdog's ledger checks accumulate
        in locals and are added once, on every way out (end, halt,
        ``max_steps``, a raising thunk or a watchdog trip): nothing
        reads them while a run is in progress.  The watchdog's own
        ``insns`` and ring stay per block, because a trip reports them,
        even one raised from a hypercall's cycle budget.
        """
        executed = cycles = host_ops = chain_hits = checks = 0
        state = self.state
        translate = self.translate
        cache = self.tb_cache
        watchdog = self.watchdog
        if watchdog is not None:
            ring_append = watchdog._ring.append
        prev: Optional[TranslationBlock] = None
        try:
            while not state.halted and executed < max_steps:
                pc = state.pc
                block = None
                if prev is not None:
                    links = prev.links
                    if links is not None:
                        block = links.get(pc)
                        if block is not None:
                            if block.generation == self.tb_generation:
                                chain_hits += 1
                                # LRU touch: chain hits bypass translate(),
                                # so the hottest blocks must be aged here or
                                # the cache would evict them first under
                                # pressure
                                if cache.get(pc) is block:
                                    del cache[pc]
                                    cache[pc] = block
                            else:
                                del links[pc]
                                block = None
                if block is None:
                    block = translate(pc)
                    if (prev is not None and prev.links is not None
                            and len(prev.links) < _MAX_LINKS):
                        prev.links[pc] = block
                target = None
                try:
                    for done, fn in enumerate(block.ops, 1):
                        target = fn()
                        if target is not None:
                            break
                except BaseException:
                    # charge retired instructions plus the trapping one's
                    # pre-raise cost
                    done -= 1
                    cycles += block.cum_cycles[done] + block.pre_charge[done]
                    executed += done
                    host_ops += block.host_ops
                    raise
                state.pc = pc = block.end_pc if target is None else target
                cycles += block.cum_cycles[done]
                executed += done
                host_ops += block.host_ops
                if watchdog is not None:
                    # Per-block granularity: a trip overshoots by at most
                    # one block (< MAX_BLOCK_LEN instructions).  On a trip
                    # the engine halts so the hang surfaces once, not on
                    # every subsequent run() call.
                    watchdog.insns += done
                    ring_append(pc)
                    checks += 1
                    budget = watchdog.insn_budget
                    if budget is not None and watchdog.insns > budget:
                        state.halted = True
                        watchdog._trip("insn", pc, state.task)
                prev = block
        finally:
            self.cycles += cycles
            self.insn_count += executed
            self.host_ops += host_ops
            self.tb_chain_hits += chain_hits
            if checks:
                watchdog.ledger_counts[watchdog.check_slot] += checks
        return executed

    def stats(self) -> Dict[str, int]:
        """Engine counters (harvested by the observability layer)."""
        return {
            "insns": self.insn_count,
            "cycles": self.cycles,
            "host_ops": self.host_ops,
            "tb_translations": self.tb_translations,
            "tb_flushes": self.tb_flush_count,
            "tb_evictions": self.tb_evictions,
            "tb_invalidations": self.tb_invalidations,
            "tb_chain_hits": self.tb_chain_hits,
            "tb_cache_blocks": len(self.tb_cache),
            # always 0 (no trace tier); kept because the perfbench
            # records in perfbench/expected.jsonl digest this key set
            "tb_compiled": 0,
            "jit_deopts": 0,
            "jit_trace_execs": 0,
        }


def _nop_thunk() -> None:
    """Shared thunk for NOP and r0-destination writes."""
    return None


def _compile_branch(regs, op: Op, rs1: int, rs2: int, taken: int, fall: int):
    """Build a conditional-branch thunk with the predicate pre-bound."""
    if op is Op.BEQ:
        def thunk(): return taken if regs[rs1] == regs[rs2] else fall
    elif op is Op.BNE:
        def thunk(): return taken if regs[rs1] != regs[rs2] else fall
    elif op is Op.BLT:
        def thunk():
            return taken if sign32(regs[rs1]) < sign32(regs[rs2]) else fall
    elif op is Op.BLTU:
        def thunk(): return taken if regs[rs1] < regs[rs2] else fall
    elif op is Op.BGE:
        def thunk():
            return taken if sign32(regs[rs1]) >= sign32(regs[rs2]) else fall
    else:
        def thunk(): return taken if regs[rs1] >= regs[rs2] else fall
    return thunk


#: opcodes whose only architectural effect is a register write; with
#: rd == r0 they specialize to a shared no-op thunk.
_WRITES_RD = frozenset(
    {Op.ADD, Op.SUB, Op.MUL, Op.DIVU, Op.REMU, Op.AND, Op.OR, Op.XOR,
     Op.SHL, Op.SHR, Op.SRA, Op.SLT, Op.SLTU, Op.ADDI, Op.ANDI, Op.ORI,
     Op.XORI, Op.SHLI, Op.SHRI, Op.MOVI, Op.LUI, Op.MOV}
)

"""Translation-block execution engine with sanitizer probe injection.

This mirrors the mechanism EMBSAN uses on QEMU/TCG (§3.3): instead of
introspecting the virtual machine from outside, the *Common Sanitizer
Runtime* modifies the translation templates themselves.  When a sanitizer
registers a load/store probe, every translated memory instruction gains an
inline call to the probe delegate (``load_intercept``-style) with the
required arguments reconstructed symbolically (address register + offset,
access size, pc, task id).  Re-registering probes flushes the TB cache so
new templates take effect — exactly like a QEMU ``tb_flush``.

Guest code executed here performs its memory traffic *untraced* on the
bus: the injected probes are the single notification channel, so an
attached runtime never sees the same access twice.

Two execution tiers share the block cache and probe machinery:

* **specialized** (default) — ``translate()`` compiles *every* instruction
  into a closure with its operands, immediates and probe set pre-bound, so
  ``_exec_block`` is a tight loop over pre-built thunks with no opcode
  comparisons or dict lookups on the hot path.  ``run()`` additionally
  chains blocks: a block whose terminator has static successors (jump,
  call, conditional branch, fall-through) links directly to the successor
  ``TranslationBlock``, skipping the cache lookup entirely.  Links carry
  the translation generation and die on ``flush_tbs()``; scalar guest
  stores into translated code flush and exit the current block, so
  self-modifying code re-translates before its next instruction executes.
  Bulk writes into translated code (``write_bytes``/``fill``/``copy``/DMA)
  flush via a bus write watcher and take effect at the next block
  boundary.
* **jit** (opt-in via ``jit=True``) — per-TB execution counters; when a
  block crosses the hotness threshold, the whole chained superblock
  reachable from it is compiled to a single Python function: registers
  become locals, immediates become literals, loads/stores and sanitizer
  probes call the same pre-bound ``MemoryBus``/probe fast paths the
  thunks use, and cycle/instruction/host-op accounting plus watchdog
  charging happen per constituent block, so observable state is
  bit-identical to the thunk tier.  Deopt mirrors TB chaining exactly:
  ``flush_tbs()`` (SMC, probe changes, bulk/DMA writes, snapshot
  restore) and ``invalidate_range()`` (journal rollback, fork-server
  dirty-span restore) kill overlapping traces through a shared liveness
  cell that compiled code re-checks at every block boundary.

Both tiers retire the same architectural state and charge the same guest
cycles and instruction counts as the reference :class:`repro.isa.cpu.Cpu`,
so the calibrated Figure-2 cost model is engine-independent.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestFault, GuestHang, InvalidOpcode
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
from repro.mem.bus import _R, _W, MemoryBus

#: Probe delegate signature: receives a fully reconstructed Access.
MemProbe = Callable[[Access], None]
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

#: Maximum translation blocks stitched into one compiled JIT trace.
MAX_TRACE_BLOCKS = 8

_M = 0xFFFFFFFF
_DATA = AccessKind.DATA

#: Terminators whose successors are static, hence chainable.
_CHAINABLE = frozenset(
    {Op.JMP, Op.CALL, Op.BEQ, Op.BNE, Op.BLT, Op.BLTU, Op.BGE, Op.BGEU}
)


class TranslationBlock:
    """One translated basic block: entry pc, length, and executable ops."""

    __slots__ = ("pc", "insns", "ops", "host_ops", "cum_cycles", "pre_charge",
                 "end_pc", "links", "generation", "exec_count", "jit_fn")

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
        #: executions observed while the JIT tier is enabled; crossing the
        #: hotness threshold triggers trace compilation with this block as
        #: the entry.
        self.exec_count = 0
        #: compiled trace executor entered when ``run()`` resolves this
        #: block; None until hot (or after deopt).
        self.jit_fn = None

    def __len__(self) -> int:
        return len(self.insns)


class _JitTrace:
    """One compiled trace: entry block, executor, and covered code span."""

    __slots__ = ("entry", "fn", "lo", "hi", "alive")

    def __init__(self, entry: TranslationBlock, fn, lo: int, hi: int,
                 alive: List[bool]):
        self.entry = entry
        self.fn = fn
        self.lo = lo
        self.hi = hi
        #: shared liveness cell baked into the compiled code, checked at
        #: every block boundary; invalidation flips it so an in-flight
        #: trace side-exits instead of executing stale translations.
        self.alive = alive


class TcgEngine:
    """Basic-block translating executor for EVM32 guest code."""

    #: class-wide default for the ``jit`` flag; tests flip this to run
    #: whole firmware builds under the compiled-trace tier.
    DEFAULT_JIT = False

    #: executions of a block before its trace is compiled.  Low enough
    #: that short fuzz programs reach the compiled tier, high enough that
    #: one-shot boot code never pays for compilation.
    DEFAULT_JIT_THRESHOLD = 16

    def __init__(
        self,
        bus: MemoryBus,
        pc: int = 0,
        sp: int = 0,
        hypercall: Optional[HypercallHandler] = None,
        tb_cache_capacity: int = TB_CACHE_CAPACITY,
        jit: Optional[bool] = None,
        jit_threshold: Optional[int] = None,
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
        self._mem_probes: tuple = ()
        self.call_probes: List[CallProbe] = []
        self.ret_probes: List[RetProbe] = []
        #: optional hang guard, consulted once per executed block
        self.watchdog = None
        self.jit = self.DEFAULT_JIT if jit is None else jit
        self.jit_threshold = (
            self.DEFAULT_JIT_THRESHOLD if jit_threshold is None
            else jit_threshold
        )
        self.tb_compiled = 0
        self.jit_deopts = 0
        self.jit_trace_execs = 0
        #: entry pc -> live :class:`_JitTrace`; flush/invalidation removes
        #: entries, re-translation of an evicted entry block re-attaches.
        self._jit_traces: Dict[int, _JitTrace] = {}
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
    def add_mem_probe(self, probe: MemProbe) -> None:
        """Inject a memory probe into all future translation templates."""
        self._mem_probes = self._mem_probes + (probe,)
        self.flush_tbs()

    def remove_mem_probe(self, probe: MemProbe) -> None:
        """Remove a probe and regenerate templates without it.

        A probe that was never registered is a no-op: the templates
        already lack it, so there is nothing to flush.
        """
        if not any(p is probe for p in self._mem_probes):
            return
        self._mem_probes = tuple(p for p in self._mem_probes if p is not probe)
        self.flush_tbs()

    def flush_tbs(self) -> None:
        """Discard every cached translation block and kill chained links."""
        self.tb_cache.clear()
        self.tb_flush_count += 1
        self.tb_generation += 1
        self._code_lo = 1 << 62
        self._code_hi = -1
        if self._jit_traces:
            self.jit_deopts += len(self._jit_traces)
            for trace in self._jit_traces.values():
                trace.alive[0] = False
                trace.entry.jit_fn = None
            self._jit_traces.clear()

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
        if self._jit_traces:
            # a trace spanning the range may be entered through a block
            # that itself survives, so trace kill is by covered span, not
            # by membership in ``doomed``
            dead = [
                entry_pc
                for entry_pc, trace in self._jit_traces.items()
                if trace.lo < hi and trace.hi > lo
            ]
            for entry_pc in dead:
                trace = self._jit_traces.pop(entry_pc)
                trace.alive[0] = False
                trace.entry.jit_fn = None
            self.jit_deopts += len(dead)
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
        trace = self._jit_traces.get(pc)
        if trace is not None and trace.alive[0]:
            # the entry block was evicted but its trace survived (traces
            # die by flush/invalidation, not cache pressure): re-attach
            # instead of re-warming from zero
            block.jit_fn = trace.fn
            trace.entry = block
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
        """
        eng = self
        state = self.state
        regs = state.regs
        bus = self.bus
        rs1, rs2, rd, imm, op = insn.rs1, insn.rs2, insn.rd, insn.imm, insn.op
        single = probes[0] if len(probes) == 1 else None
        if is_write:
            store_silent = bus.store_silent

            def thunk():
                state.pc = insn_pc
                addr = (regs[rs1] + imm) & _M
                access = Access(addr, size, True, insn_pc, state.task, _DATA,
                                atomic)
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
            access = Access(addr, size, False, insn_pc, state.task, _DATA,
                            atomic)
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
    # jit tier: compile hot chained superblocks to Python source
    # ------------------------------------------------------------------
    def _collect_trace(self, entry: TranslationBlock) -> List[TranslationBlock]:
        """Gather the chained superblock reachable from ``entry``.

        Walks the warm chain links breadth-first (plus the fall-through
        continuation of CALL/CALLR blocks, whose RET-terminated callees
        carry no links), keeping only current-generation blocks, capped
        at :data:`MAX_TRACE_BLOCKS`.
        """
        gen = self.tb_generation
        blocks = [entry]
        seen = {entry.pc}
        index = 0
        while index < len(blocks) and len(blocks) < MAX_TRACE_BLOCKS:
            block = blocks[index]
            index += 1
            succs: List[TranslationBlock] = []
            if block.links:
                succs.extend(block.links.values())
            last = block.insns[-1].op
            if last is Op.CALL or last is Op.CALLR:
                cont = self.tb_cache.get(block.end_pc)
                if cont is not None:
                    succs.append(cont)
            for succ in succs:
                if len(blocks) >= MAX_TRACE_BLOCKS:
                    break
                if succ.pc in seen or succ.generation != gen:
                    continue
                seen.add(succ.pc)
                blocks.append(succ)
        return blocks

    def _jit_mem_flags(self) -> Tuple[bool, bool, bool, bool]:
        """May compiled traces bypass the bus for scalar accesses?

        Returns ``(loads, stores, silent_loads, silent_stores)``.  A fast
        scalar access inlines the region read/write, so it is only legal
        while every skipped layer is provably inert: observed (unprobed)
        templates additionally need a bus with no observers outside any
        ``untraced()`` block (a machine attaches its hook fan-out only
        while something subscribes to MEM_ACCESS) — while the probed
        templates' silent twins never notify anyone and only need the
        fault plan (loads) or journal/dirty recording (stores) to be
        absent.  Recomputed at trace entry and after every hypercall
        (the only points where host code can change any of these
        mid-trace).
        """
        bus = self.bus
        quiet = not bus._silent_depth and not bus._observers
        no_fault = bus.fault_plan is None
        no_wlog = bus._journal is None and bus._dirty is None
        return quiet and no_fault, quiet and no_wlog, no_fault, no_wlog

    def _jit_refill(self, mc: list, addr: int, for_write: bool) -> None:
        """Point a per-site memory cache at the region covering ``addr``.

        Called from a trace's slow path after the bus access succeeded.
        Device regions (MMIO dispatch) and permission mismatches leave
        the cache invalid (``[1, 0, ...]``) so the site stays on the bus
        path.  Restore strategies mutate ``region.data`` in place, never
        reassign it, so a cached buffer reference stays coherent for the
        trace's lifetime.
        """
        region = self.bus.region_at(addr)
        if (region is None or region.kind == "device"
                or not region.mask & (_W if for_write else _R)):
            mc[0] = 1
            mc[1] = 0
            return
        mc[0] = region.base
        mc[1] = region.end
        mc[2] = region.data

    def _compile_trace(self, entry: TranslationBlock):
        """Emit, compile and install the trace entered at ``entry``."""
        tracer = self.tracer
        trace_start = tracer.now() if tracer is not None else 0.0
        blocks = self._collect_trace(entry)
        alive = [True]
        src, binds = self._emit_trace(blocks, alive)
        code = compile(src, f"<jit-trace@{entry.pc:#x}>", "exec")
        ns: Dict = {}
        exec(code, ns)
        fn = ns["_jit_make"](binds)
        trace = _JitTrace(entry, fn,
                          min(b.pc for b in blocks),
                          max(b.end_pc for b in blocks), alive)
        self._jit_traces[entry.pc] = trace
        entry.jit_fn = fn
        self.tb_compiled += 1
        if tracer is not None:
            tracer.complete(
                "jit:compile", trace_start, cat="tcg",
                args={"pc": entry.pc, "blocks": len(blocks),
                      "insns": sum(len(b.insns) for b in blocks)},
            )
        return fn

    def _emit_trace(self, blocks: List[TranslationBlock], alive: List[bool]):
        """Generate Python source for ``blocks`` as one executor function.

        The function takes the remaining step budget (``limit``) and
        returns instructions executed.  Guest registers live in locals
        ``r1``..``r15``; every external call site (bus access, probe,
        hypercall, watchdog) sees the register file written back first,
        so observable state at any raise point is bit-identical to the
        thunk tier.  ``fi`` indexes the compile-time ``_FACCT`` table of
        ``(insns, cycles, host_ops)`` exception charges, mirroring
        ``cum_cycles``/``pre_charge`` accounting exactly.

        Contract baked into the emitted code: memory/call/ret probes may
        read but never write the register file (all in-tree probes only
        emit events or inspect the Access); a probe that must mutate
        registers requires the thunk tier (``jit=False``).
        """
        probes = self._mem_probes
        gen = self.tb_generation
        facct: List[Tuple[int, int, int]] = [(0, 0, 0)]
        used, written = _scan_regs(blocks)
        wb = [f"regs[{r}] = r{r}" for r in sorted(written)]
        rl = [f"r{r} = regs[{r}]" for r in sorted(used)]
        arms: List[str] = []
        mem_caches: List[str] = []

        for block_index, block in enumerate(blocks):
            head = "if" if block_index == 0 else "elif"
            arms.append(f"                {head} pc == {block.pc}:")
            cum = block.cum_cycles
            hb = block.host_ops
            n = len(block.insns)

            def e(line: str, depth: int = 0) -> None:
                arms.append(" " * (20 + 4 * depth) + line)

            def site(k: int, pre: int) -> int:
                facct.append((k, cum[k] + pre, hb))
                return len(facct) - 1

            def emit_wd(nb: int, depth: int) -> None:
                # boundary watchdog charge: flush accumulators so a trip
                # (or anything the guest raises later) charges exactly
                # the retired blocks, then consume like run() does
                e("if wd is not None:", depth)
                e("state.pc = pc", depth + 1)
                e("eng.cycles += cyc", depth + 1)
                e("eng.insn_count += ni", depth + 1)
                e("eng.host_ops += hops", depth + 1)
                e("cyc = 0", depth + 1)
                e("ni = 0", depth + 1)
                e("hops = 0", depth + 1)
                e("fi = 0", depth + 1)
                e("try:", depth + 1)
                e(f"wd.consume({nb}, pc, state.task)", depth + 2)
                e("except _GH:", depth + 1)
                e("state.halted = True", depth + 2)
                e("raise", depth + 2)

            def exit_partial(done: int, next_lit: int, depth: int) -> None:
                # mid-block trace exit (SMC flush / VMCALL halt): retire
                # ``done`` instructions exactly like a thunk returning
                # early, then leave the compiled trace entirely
                e(f"cyc += {cum[done]}", depth)
                e(f"ni += {done}", depth)
                e(f"hops += {hb}", depth)
                e(f"tot += {done}", depth)
                e(f"pc = {next_lit}", depth)
                emit_wd(done, depth)
                e("break", depth)

            target_expr: Optional[str] = None
            raises_unconditionally = False
            for k, insn in enumerate(block.insns):
                insn_pc = block.pc + k * INSN_SIZE
                next_pc = (insn_pc + INSN_SIZE) & _M
                op = insn.op
                a = f"r{insn.rs1}" if insn.rs1 else "0"
                b = f"r{insn.rs2}" if insn.rs2 else "0"
                if op in MEM_OPS:
                    size, is_write, atomic = MEM_OPS[op]
                    signed = op is Op.LD8S or op is Op.LD16S
                    bound, adjust = ((0x80, 0x100) if op is Op.LD8S
                                     else (0x8000, 0x10000))
                    mc = f"_mc{len(mem_caches)}"
                    mem_caches.append(mc)
                    # the per-site inline cache: [region.base, region.end,
                    # region.data]; the guard proves the whole scalar
                    # access lands inside one cached non-device region
                    guard = (f"_c[0] <= _a and _a + {size} <= _c[1]")
                    if is_write and size < 4:
                        val = f"({b} & {(1 << (8 * size)) - 1})"
                    else:
                        val = f"({b})"
                    if probes:
                        e(f"state.pc = {insn_pc}")
                        e(f"fi = {site(k, 0)}")
                        e(f"_a = ({a} + {insn.imm}) & 4294967295")
                        e(f"_ac = _AC(_a, {size}, {is_write}, {insn_pc}, "
                          f"state.task, _DK, {atomic})")
                        if len(probes) == 1:
                            e("_mp0(_ac)")
                        else:
                            e("for _p in _mp:")
                            e("_p(_ac)", 1)
                        e(f"_c = {mc}")
                        if is_write:
                            e(f"if _ss and {guard}:")
                            e(f"_c[2][_a - _c[0] : _a - _c[0] + {size}] = "
                              f"{val}.to_bytes({size}, \"little\")", 1)
                            e("else:")
                            e(f"_sts(_a, {size}, {b})", 1)
                            e("if _ss:", 1)
                            e("eng._jit_refill(_c, _a, True)", 2)
                            e(f"if _a < eng._code_hi and "
                              f"_a + {size} > eng._code_lo:")
                            e("eng.flush_tbs()", 1)
                            exit_partial(k + 1, next_pc, 1)
                        else:
                            e(f"if _sl and {guard}:")
                            e(f"_v = int.from_bytes(_c[2][_a - _c[0] : "
                              f"_a - _c[0] + {size}], \"little\")", 1)
                            e("else:")
                            e(f"_v = _lds(_a, {size})", 1)
                            e("if _sl:", 1)
                            e("eng._jit_refill(_c, _a, False)", 2)
                            if signed:
                                e(f"if _v >= {bound}:")
                                e(f"_v -= {adjust}", 1)
                            if insn.rd:
                                e(f"r{insn.rd} = _v & 4294967295")
                    elif is_write:
                        e(f"_a = ({a} + {insn.imm}) & 4294967295")
                        e(f"_c = {mc}")
                        e(f"if _fs and {guard}:")
                        e(f"_c[2][_a - _c[0] : _a - _c[0] + {size}] = "
                          f"{val}.to_bytes({size}, \"little\")", 1)
                        e("else:")
                        e(f"state.pc = {insn_pc}", 1)
                        e(f"fi = {site(k, 2)}", 1)
                        e(f"_st(_a, {size}, {b}, {insn_pc}, "
                          f"state.task, {atomic})", 1)
                        e("if _fs:", 1)
                        e("eng._jit_refill(_c, _a, True)", 2)
                        e(f"if _a < eng._code_hi and "
                          f"_a + {size} > eng._code_lo:")
                        e("eng.flush_tbs()", 1)
                        exit_partial(k + 1, next_pc, 1)
                    else:
                        e(f"_a = ({a} + {insn.imm}) & 4294967295")
                        e(f"_c = {mc}")
                        e(f"if _fl and {guard}:")
                        e(f"_v = int.from_bytes(_c[2][_a - _c[0] : "
                          f"_a - _c[0] + {size}], \"little\")", 1)
                        e("else:")
                        e(f"state.pc = {insn_pc}", 1)
                        e(f"fi = {site(k, 2)}", 1)
                        e(f"_v = _ld(_a, {size}, {insn_pc}, "
                          f"state.task, {atomic})", 1)
                        e("if _fl:", 1)
                        e("eng._jit_refill(_c, _a, False)", 2)
                        if signed:
                            e(f"if _v >= {bound}:")
                            e(f"_v -= {adjust}", 1)
                            if insn.rd:
                                e(f"r{insn.rd} = _v & 4294967295")
                        elif insn.rd:
                            e(f"r{insn.rd} = _v")
                elif op is Op.NOP or (op in _WRITES_RD and insn.rd == 0):
                    pass
                elif op is Op.HLT:
                    e("state.halted = True")
                    target_expr = str(next_pc)
                elif op is Op.BRK:
                    e(f"state.pc = {insn_pc}")
                    e("state.halted = True")
                    e(f"fi = {site(k, 1)}")
                    msg = f"BRK trap at {insn_pc:#010x}"
                    e(f"raise _IO({msg!r}, addr={insn_pc})")
                    raises_unconditionally = True
                elif op is Op.VMCALL:
                    e(f"state.pc = {insn_pc}")
                    e(f"fi = {site(k, 2)}")
                    e("_h = eng.hypercall")
                    e("if _h is None:")
                    msg = f"VMCALL with no handler at {insn_pc:#010x}"
                    e(f"raise _IO({msg!r}, addr={insn_pc})", 1)
                    for stmt in wb:
                        e(stmt)
                    # the handler (and any IRQ it delivers) may mutate the
                    # register file: reload locals afterwards — and on a
                    # raise, before the outer handler's writeback would
                    # clobber the mutation with stale locals
                    e("try:")
                    e(f"_r = _h(eng, {insn.imm})", 1)
                    e("except BaseException:")
                    for stmt in rl:
                        e(stmt, 1)
                    e("raise", 1)
                    for stmt in rl:
                        e(stmt)
                    e("_fl, _fs, _sl, _ss = eng._jit_mem_flags()")
                    e("if _r is not None:")
                    e("r1 = _r & 4294967295", 1)
                    e("if state.halted:")
                    exit_partial(k + 1, next_pc, 1)
                elif op is Op.JMP:
                    target_expr = str(insn.imm & _M)
                elif op is Op.JR:
                    target_expr = a
                elif op in _JIT_BR:
                    cond = _JIT_BR[op].format(a=a, b=b)
                    target_expr = f"{insn.imm & _M} if {cond} else {next_pc}"
                elif op is Op.CALL or op is Op.CALLR:
                    if op is Op.CALLR:
                        e(f"_t = {a}")
                        tgt = "_t"
                    else:
                        tgt = str(insn.imm & _M)
                    e(f"r15 = {next_pc}")
                    e("_cp = eng.call_probes")
                    e("if _cp:")
                    for stmt in wb:
                        e(stmt, 1)
                    e(f"fi = {site(k, 1)}", 1)
                    e("_args = [r1, r2, r3, r4]", 1)
                    e("for _p in _cp:", 1)
                    e(f"_p({insn_pc}, {tgt}, _args, {next_pc})", 2)
                    target_expr = tgt
                elif op is Op.RET:
                    e("_rp = eng.ret_probes")
                    e("if _rp:")
                    for stmt in wb:
                        e(stmt, 1)
                    e(f"fi = {site(k, 1)}", 1)
                    e("for _p in _rp:", 1)
                    e(f"_p({insn_pc}, r1)", 2)
                    target_expr = "r15"
                elif op in _JIT_ALU:
                    e(f"r{insn.rd} = " + _JIT_ALU[op].format(a=a, b=b))
                elif op in _JIT_ALU_IMM:
                    e(f"r{insn.rd} = "
                      + _JIT_ALU_IMM[op].format(a=a, imm=insn.imm))
                elif op is Op.SHLI:
                    e(f"r{insn.rd} = ({a} << {insn.imm & 31}) & 4294967295")
                elif op is Op.SHRI:
                    e(f"r{insn.rd} = {a} >> {insn.imm & 31}")
                elif op is Op.MOVI:
                    e(f"r{insn.rd} = {insn.imm & _M}")
                elif op is Op.LUI:
                    e(f"r{insn.rd} = {(insn.imm << 16) & _M}")
                elif op is Op.MOV:
                    e(f"r{insn.rd} = {a}")
                else:  # pragma: no cover - decode() rejects unknown opcodes
                    raise InvalidOpcode(f"unhandled opcode {op!r}",
                                        addr=insn_pc)
            if raises_unconditionally:
                continue
            if target_expr is None:
                # fall-through: block was cut at MAX_BLOCK_LEN or before
                # an undecodable slot; matches state.pc = end_pc
                target_expr = str(block.end_pc)
            e(f"pc = {target_expr}")
            e(f"cyc += {cum[n]}")
            e(f"ni += {n}")
            e(f"hops += {hb}")
            e(f"tot += {n}")
            emit_wd(n, 0)
            e(f"if tot >= limit or state.halted "
              f"or eng.tb_generation != {gen} or not _ALIVE[0]:")
            e("break", 1)

        binds: Dict[str, object] = {
            "eng": self,
            "state": self.state,
            "regs": self.state.regs,
            "_ld": self.bus.load,
            "_st": self.bus.store,
            "_lds": self.bus.load_silent,
            "_sts": self.bus.store_silent,
            "_AC": Access,
            "_DK": _DATA,
            "_IO": InvalidOpcode,
            "_GH": GuestHang,
            "_ALIVE": alive,
            "_FACCT": tuple(facct),
        }
        if probes:
            binds["_mp"] = probes
            if len(probes) == 1:
                binds["_mp0"] = probes[0]
        for name in mem_caches:
            # invalid until the site's first slow-path access refills it
            binds[name] = [1, 0, None]
        header = ", ".join(
            ["limit"] + [f"{k}=__c[{k!r}]" for k in sorted(binds)]
        )
        src_lines = [
            "def _jit_make(__c):",
            f"    def _trace({header}):",
            "        wd = eng.watchdog",
            "        _fl, _fs, _sl, _ss = eng._jit_mem_flags()",
            *[f"        {stmt}" for stmt in rl],
            "        cyc = 0",
            "        ni = 0",
            "        hops = 0",
            "        tot = 0",
            "        fi = 0",
            f"        pc = {blocks[0].pc}",
            "        try:",
            "            while True:",
            *arms,
            "                else:",
            "                    break",
            "        except BaseException:",
            *[f"            {stmt}" for stmt in wb],
            "            _d, _c, _h = _FACCT[fi]",
            "            eng.cycles += cyc + _c",
            "            eng.insn_count += ni + _d",
            "            eng.host_ops += hops + _h",
            "            raise",
            *[f"        {stmt}" for stmt in wb],
            "        state.pc = pc",
            "        eng.cycles += cyc",
            "        eng.insn_count += ni",
            "        eng.host_ops += hops",
            "        return tot",
            "    return _trace",
            "",
        ]
        return "\n".join(src_lines), binds

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
        """
        executed = 0
        state = self.state
        exec_block = self._exec_block
        translate = self.translate
        watchdog = self.watchdog
        jit = self.jit
        threshold = self.jit_threshold
        prev: Optional[TranslationBlock] = None
        while not state.halted and executed < max_steps:
            pc = state.pc
            block = None
            if prev is not None:
                links = prev.links
                if links is not None:
                    block = links.get(pc)
                    if block is not None:
                        if block.generation == self.tb_generation:
                            self.tb_chain_hits += 1
                            # LRU touch: chain hits bypass translate(), so
                            # the hottest blocks must be aged here or the
                            # cache would evict them first under pressure
                            cache = self.tb_cache
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
            if jit:
                fn = block.jit_fn
                if fn is None:
                    count = block.exec_count + 1
                    block.exec_count = count
                    if count == threshold:
                        fn = self._compile_trace(block)
                if fn is not None:
                    # the compiled trace charges cycles/insns/host_ops and
                    # consumes watchdog budget per constituent block
                    # internally, so this loop's per-block bookkeeping is
                    # skipped for the whole trace execution
                    self.jit_trace_execs += 1
                    executed += fn(max_steps - executed)
                    prev = None
                    continue
            done = exec_block(block)
            executed += done
            if watchdog is not None:
                # Per-block granularity: a trip overshoots by at most one
                # block (< MAX_BLOCK_LEN instructions).  On a trip the
                # engine halts so the hang surfaces once, not on every
                # subsequent run() call.
                try:
                    watchdog.consume(done, state.pc, state.task)
                except GuestHang:
                    state.halted = True
                    raise
            prev = block
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
            "tb_compiled": self.tb_compiled,
            "jit_deopts": self.jit_deopts,
            "jit_trace_execs": self.jit_trace_execs,
        }

    def step_block(self) -> int:
        """Execute exactly one translation block; returns instructions run."""
        if self.state.halted:
            return 0
        return self._exec_block(self.translate(self.state.pc))

    def _exec_block(self, block: TranslationBlock) -> int:
        """Tight thunk loop: no opcode tests, no dict lookups."""
        state = self.state
        done = 0
        target = None
        try:
            for fn in block.ops:
                target = fn()
                done += 1
                if target is not None:
                    break
        except BaseException:
            # charge retired instructions plus the trapping one's
            # pre-raise cost
            self.cycles += block.cum_cycles[done] + block.pre_charge[done]
            self.insn_count += done
            self.host_ops += block.host_ops
            raise
        state.pc = block.end_pc if target is None else target
        self.cycles += block.cum_cycles[done]
        self.insn_count += done
        self.host_ops += block.host_ops
        return done


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

# ----------------------------------------------------------------------
# jit emission tables
#
# Signed comparisons use the xor-bias trick: for 32-bit unsigned x,
# ``x ^ 0x80000000`` maps signed order onto unsigned order, so
# ``sign32(a) < sign32(b)`` == ``(a ^ 2**31) < (b ^ 2**31)`` without a
# function call; ``(x ^ 2**31) - 2**31`` *is* sign32(x) for SRA.
# ----------------------------------------------------------------------

#: branch predicate source, formatted with register-read expressions.
_JIT_BR = {
    Op.BEQ: "{a} == {b}",
    Op.BNE: "{a} != {b}",
    Op.BLT: "({a} ^ 2147483648) < ({b} ^ 2147483648)",
    Op.BLTU: "{a} < {b}",
    Op.BGE: "({a} ^ 2147483648) >= ({b} ^ 2147483648)",
    Op.BGEU: "{a} >= {b}",
}

#: register-register ALU expression source (mirrors the spec thunks).
_JIT_ALU = {
    Op.ADD: "({a} + {b}) & 4294967295",
    Op.SUB: "({a} - {b}) & 4294967295",
    Op.MUL: "({a} * {b}) & 4294967295",
    Op.DIVU: "4294967295 if {b} == 0 else {a} // {b}",
    Op.REMU: "{a} if {b} == 0 else {a} % {b}",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SHL: "({a} << ({b} & 31)) & 4294967295",
    Op.SHR: "{a} >> ({b} & 31)",
    Op.SRA: "((({a} ^ 2147483648) - 2147483648) >> ({b} & 31)) & 4294967295",
    Op.SLT: "1 if ({a} ^ 2147483648) < ({b} ^ 2147483648) else 0",
    Op.SLTU: "1 if {a} < {b} else 0",
}

#: register-immediate ALU expression source.
_JIT_ALU_IMM = {
    Op.ADDI: "({a} + {imm}) & 4294967295",
    Op.ANDI: "({a} & {imm}) & 4294967295",
    Op.ORI: "({a} | {imm}) & 4294967295",
    Op.XORI: "({a} ^ {imm}) & 4294967295",
}


def _scan_regs(blocks: List[TranslationBlock]):
    """Which guest registers a trace reads (``used``) and writes
    (``written``); locals are materialized for ``used`` and written back
    to the register file for ``written`` at every external call site.
    """
    used: set = set()
    written: set = set()
    for block in blocks:
        for insn in block.insns:
            op = insn.op
            if op in MEM_OPS:
                _size, is_write, _atomic = MEM_OPS[op]
                used.add(insn.rs1)
                if is_write:
                    used.add(insn.rs2)
                elif insn.rd:
                    written.add(insn.rd)
            elif op is Op.VMCALL:
                written.add(1)
            elif op is Op.CALL or op is Op.CALLR:
                used.update((1, 2, 3, 4))
                written.add(15)
                if op is Op.CALLR:
                    used.add(insn.rs1)
            elif op is Op.RET:
                used.update((1, 15))
            elif op is Op.JR:
                used.add(insn.rs1)
            elif op in _JIT_BR:
                used.add(insn.rs1)
                used.add(insn.rs2)
            elif op in _WRITES_RD and insn.rd:
                written.add(insn.rd)
                used.add(insn.rs1)
                used.add(insn.rs2)
    used |= written
    used.discard(0)
    written.discard(0)
    return used, written

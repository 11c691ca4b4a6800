"""Synthetic single-threaded trace generation.

This module is the stand-in for the functional simulator of the paper's
framework (Figure 2): it produces a *dynamic instruction stream* that the
timing simulators consume.  The stream is generated from a
:class:`~repro.trace.profiles.WorkloadProfile`, which statistically describes
a benchmark's instruction mix, code/data locality, branch behaviour and
dependence structure.

The generator is deterministic for a given ``(profile, seed)`` pair so that
the interval and detailed simulators can be run on *exactly* the same
instruction stream — this mirrors the paper's functional-first methodology in
which both simulators see the same committed path.

Model overview
--------------

* **Code model** — the program is a set of "functions" placed in a code
  region of ``profile.code_footprint`` bytes.  Instructions receive PCs inside
  the current function; basic blocks end in a branch which loops, jumps
  locally, calls another function or returns.  Calls prefer a small set of
  hot functions (``profile.code_locality``), so instruction-cache and I-TLB
  behaviour follows the footprint and locality of the profile.
* **Branch model** — each static branch gets a behaviour class: *biased*
  (almost always taken or not-taken), *loop* (taken ``n`` times, then fall
  through) or *hard* (data-dependent, effectively random).  A real
  branch-predictor simulator (:mod:`repro.branch`) predicts the generated
  outcomes.
* **Data model** — loads and stores draw addresses from four streams: a hot
  region that always fits in the L1, an L1-sized working set, a larger
  working set that misses the L1 but fits the shared L2 when running alone,
  and sequential streaming through a large footprint (compulsory misses all
  the way to DRAM).  A fraction of loads is pointer-chasing: the address
  depends on the previous load, serializing memory accesses.  D-cache, D-TLB
  and L2 behaviour then emerge from the memory-hierarchy simulator.
* **Dependence model** — source registers preferentially name registers
  written a geometrically-distributed number of instructions earlier, so the
  profile's ``dependence_distance`` controls the critical-path length seen by
  the interval model's old window.
* **Full-system (kernel) phases** — a fraction of instructions is marked as
  kernel code, generated from a disjoint code region with its own data
  accesses, mimicking the OS activity of full-system traces.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.isa import Instruction, InstructionClass, NUM_ARCH_REGISTERS, SyncKind
from .profiles import WorkloadProfile
from .stream import ThreadTrace

__all__ = ["SyntheticTraceGenerator", "generate_trace"]


# Memory layout constants for the synthetic address space (byte addresses).
_CODE_BASE = 0x0040_0000
_KERNEL_CODE_BASE = 0x7F00_0000_0000
_DATA_BASE = 0x10_0000_0000
_SHARED_BASE = 0x70_0000_0000
_STACK_BASE = 0x7FFF_0000
_KERNEL_DATA_BASE = 0x7F10_0000_0000

_KERNEL_CODE_FOOTPRINT = 32 * 1024
_KERNEL_DATA_FOOTPRINT = 64 * 1024
_INSTRUCTION_BYTES = 4
_FUNCTION_SIZE = 1024  # bytes of code per synthetic function
_NUM_HOT_FUNCTIONS = 12


class _BranchSite:
    """Behaviour of one static branch site."""

    __slots__ = ("kind", "bias", "loop_count", "remaining", "target")

    def __init__(self, kind: str, bias: float, loop_count: int, target: int) -> None:
        self.kind = kind
        self.bias = bias
        self.loop_count = loop_count
        self.remaining = loop_count
        self.target = target

    def outcome(self, rng: random.Random) -> bool:
        """Produce the next dynamic outcome of this branch site."""
        if self.kind == "loop":
            if self.remaining > 0:
                self.remaining -= 1
                return True
            self.remaining = self.loop_count
            return False
        # Biased and hard branches draw from their bias.
        return rng.random() < self.bias


class _StrideStream:
    """A sequential access stream walking through part of the data footprint."""

    __slots__ = ("base", "position", "stride", "length")

    def __init__(self, base: int, length: int, stride: int) -> None:
        self.base = base
        self.position = 0
        self.stride = stride
        self.length = max(length, stride)

    def next_address(self) -> int:
        """Return the next address of the stream, wrapping at the end."""
        address = self.base + self.position
        self.position = (self.position + self.stride) % self.length
        return address


@dataclass
class _GeneratorState:
    """Mutable bookkeeping of the generator while a trace is produced."""

    pc: int = _CODE_BASE
    function_base: int = _CODE_BASE
    block_remaining: int = 0
    in_kernel: bool = False
    kernel_remaining: int = 0
    call_stack: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.call_stack is None:
            self.call_stack = []


class SyntheticTraceGenerator:
    """Generates the dynamic instruction stream of one software thread.

    Parameters
    ----------
    profile:
        Statistical description of the benchmark.
    seed:
        Seed for the deterministic pseudo-random generator.  The same
        ``(profile, seed)`` always produces the identical trace.
    thread_id:
        Thread identifier stamped on every generated instruction.
    shared_region_base / shared_region_size:
        When set (multi-threaded workloads), a fraction
        ``profile.shared_fraction`` of data accesses targets this region,
        which is common to all threads of the workload and therefore causes
        cache-coherence activity.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 0,
        thread_id: int = 0,
        shared_region_base: int = _SHARED_BASE,
        shared_region_size: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.thread_id = thread_id
        # A process-independent hash of the profile name keeps trace
        # generation reproducible across interpreter invocations and worker
        # processes (builtin hash() of str is salted per process).
        self._rng = random.Random(
            zlib.crc32(profile.name.encode()) ^ (seed * 2_654_435_761) ^ thread_id
        )
        self._state = _GeneratorState()
        self._branch_sites: Dict[int, _BranchSite] = {}
        self._recent_writers: List[int] = []
        self._last_load_dst: Optional[int] = None
        self._seq = 0
        self.shared_region_base = shared_region_base
        self.shared_region_size = shared_region_size or max(
            64 * 1024, profile.l2_working_set // 2
        )
        # Private data layout: hot region, L1-resident working set, L2-resident
        # working set, and a large streaming region, disjoint per thread.
        thread_stride = profile.data_footprint + profile.l2_working_set + (1 << 24)
        self._data_base = _DATA_BASE + thread_id * thread_stride
        self._hot_size = 8 * 1024
        # Each thread (or program copy) gets its own stack and its own copy of
        # the code: co-scheduled copies must not warm each other's working
        # sets through the shared L2.
        self._stack_base = _STACK_BASE + thread_id * (1 << 16)
        self._code_base = _CODE_BASE + thread_id * (1 << 22)
        self._state.pc = self._code_base
        self._state.function_base = self._code_base
        self._l1_ws_base = self._data_base
        self._l1_ws_size = max(4 * 1024, profile.l1_working_set)
        self._l2_ws_base = self._data_base + (1 << 22)
        self._l2_ws_size = max(64 * 1024, profile.l2_working_set)
        self._stream_base = self._data_base + (1 << 23)
        self._streams = self._make_streams()
        # Hot-function list for call-target locality.
        self._hot_functions = self._make_hot_functions()
        self._weights = self._mix_weights()
        self._classes = list(self._weights.keys())
        # Accumulated once: rng.choices(weights=...) would re-accumulate on
        # every draw.  Both forms consume one random() per draw, so the
        # stream is the same.
        self._class_cum_weights = list(itertools.accumulate(self._weights.values()))

    # -- public API --------------------------------------------------------------

    def generate(
        self,
        num_instructions: Optional[int] = None,
        include_init_phase: bool = True,
    ) -> ThreadTrace:
        """Generate a trace of ``num_instructions`` dynamic instructions.

        When ``include_init_phase`` is set (the default), the trace starts
        with a data-initialization phase that sweeps the benchmark's working
        sets line by line (the way real programs allocate and initialize
        their data structures before the main computation).  Experiments
        place this phase inside the functional warm-up window, so the timed
        region observes warm caches rather than a wall of compulsory misses.
        The phase is capped at one fifth of the requested instruction count
        so short traces used in unit tests are not swamped by it.
        """
        count = num_instructions if num_instructions is not None else self.profile.instructions
        if count <= 0:
            raise ValueError("number of instructions must be positive")
        instructions: List[Instruction] = []
        if include_init_phase:
            instructions.extend(self._init_phase(budget=count // 5))
        while len(instructions) < count:
            instructions.append(self.next_instruction())
        return ThreadTrace(instructions, thread_id=self.thread_id, name=self.profile.name)

    def _init_phase(self, budget: int) -> List[Instruction]:
        """Emit the data-initialization sweep over the working sets.

        The sweep stores to every cache line of the hot region, the
        L1-resident working set and the L2-resident working set (in that
        order), interleaved with the occasional integer instruction, and
        stops when ``budget`` instructions have been emitted.
        """
        instructions: List[Instruction] = []
        if budget <= 0:
            return instructions
        line = 64
        regions = (
            (self._stack_base, self._hot_size),
            (self._l1_ws_base, self._l1_ws_size),
            (self._l2_ws_base, self._l2_ws_size),
        )
        pc = self._code_base + 0x100
        for base, size in regions:
            for offset in range(0, size, line):
                if len(instructions) >= budget:
                    return instructions
                instructions.append(
                    Instruction(
                        seq=self._seq,
                        pc=pc,
                        klass=InstructionClass.STORE,
                        src_regs=(1,),
                        dst_reg=None,
                        mem_addr=base + offset,
                        mem_size=8,
                        thread_id=self.thread_id,
                    )
                )
                self._seq += 1
                pc += _INSTRUCTION_BYTES
                if pc >= self._code_base + 0x3F0:
                    pc = self._code_base + 0x100
        return instructions

    def next_instruction(self) -> Instruction:
        """Generate the next dynamic instruction of the stream."""
        self._maybe_toggle_kernel()

        klass = self._pick_class()
        pc = self._next_pc()

        if klass == InstructionClass.BRANCH or self._state.block_remaining <= 0:
            instruction = self._make_branch(pc)
        elif klass in (InstructionClass.LOAD, InstructionClass.STORE):
            instruction = self._make_memory(pc, klass)
        elif klass == InstructionClass.SERIALIZING:
            instruction = Instruction(
                seq=self._seq,
                pc=pc,
                klass=InstructionClass.SERIALIZING,
                thread_id=self.thread_id,
                is_kernel=self._state.in_kernel,
            )
        else:
            instruction = self._make_compute(pc, klass)

        self._record_writer(instruction.dst_reg)
        instruction.seq = self._seq
        self._seq += 1
        self._state.block_remaining -= 1
        return instruction

    # -- internal helpers --------------------------------------------------------

    def _mix_weights(self) -> Dict[InstructionClass, float]:
        """Normalized instruction-class weights, with serializing override."""
        mix = self.profile.mix.normalized()
        weights = mix.as_weights()
        # The profile-level serializing fraction overrides the mix's.
        weights[InstructionClass.SERIALIZING] = self.profile.serializing_fraction
        return weights

    def _make_streams(self) -> List[_StrideStream]:
        """Create a handful of stride streams over the streaming region."""
        streams = []
        footprint = max(self.profile.data_footprint, 1 << 20)
        num_streams = 4
        for index in range(num_streams):
            base = self._stream_base + (index * footprint) // num_streams
            length = max(footprint // num_streams, 4096)
            stride = 8
            streams.append(_StrideStream(base, length, stride))
        return streams

    def _make_hot_functions(self) -> List[int]:
        """Pick the hot-function bases used by most calls (code locality)."""
        base = self._code_base
        size = max(self.profile.code_footprint, _FUNCTION_SIZE)
        count = min(_NUM_HOT_FUNCTIONS, max(1, size // _FUNCTION_SIZE))
        return [
            base + self._rng.randrange(0, size, _FUNCTION_SIZE) for _ in range(count)
        ]

    def _pick_class(self) -> InstructionClass:
        """Sample the next instruction class from the profile mix."""
        return self._rng.choices(
            self._classes, cum_weights=self._class_cum_weights, k=1
        )[0]

    def _maybe_toggle_kernel(self) -> None:
        """Enter/leave kernel (OS) phases according to the kernel fraction."""
        profile = self.profile
        state = self._state
        if state.in_kernel:
            state.kernel_remaining -= 1
            if state.kernel_remaining <= 0:
                state.in_kernel = False
                state.function_base = self._code_base
                state.block_remaining = 0
            return
        if profile.kernel_fraction <= 0.0:
            return
        # Enter a kernel phase so that, on average, the requested fraction of
        # instructions executes in kernel mode.  Kernel phases are bursts of
        # a few hundred instructions (system call / interrupt handling).
        mean_phase = 600.0
        entry_probability = profile.kernel_fraction / mean_phase
        if self._rng.random() < entry_probability:
            state.in_kernel = True
            state.kernel_remaining = int(self._rng.expovariate(1.0 / mean_phase)) + 100
            state.function_base = _KERNEL_CODE_BASE + self._rng.randrange(
                0, _KERNEL_CODE_FOOTPRINT, _FUNCTION_SIZE
            )
            state.block_remaining = 0

    def _next_pc(self) -> int:
        """Advance the program counter within the current basic block."""
        state = self._state
        if state.block_remaining <= 0:
            self._start_new_block()
        state.pc += _INSTRUCTION_BYTES
        return state.pc

    def _start_new_block(self) -> None:
        """Begin a new basic block inside the current function."""
        state = self._state
        block_length = max(
            2, int(self._rng.expovariate(1.0 / self.profile.mean_basic_block)) + 1
        )
        state.block_remaining = block_length
        # Stay within the current function: pick an aligned offset.
        state.pc = state.function_base + self._rng.randrange(
            0, _FUNCTION_SIZE, _INSTRUCTION_BYTES
        )

    def _code_region(self) -> Tuple[int, int]:
        """Return (base, size) of the active code region (user or kernel)."""
        if self._state.in_kernel:
            return _KERNEL_CODE_BASE, _KERNEL_CODE_FOOTPRINT
        return self._code_base, max(self.profile.code_footprint, _FUNCTION_SIZE)

    def _call_target(self) -> int:
        """Pick a call target: a hot function most of the time."""
        base, size = self._code_region()
        if not self._state.in_kernel and self._rng.random() < self.profile.code_locality:
            return self._rng.choice(self._hot_functions)
        return base + self._rng.randrange(0, max(size, _FUNCTION_SIZE), _FUNCTION_SIZE)

    def _make_branch(self, pc: int) -> Instruction:
        """Generate a branch instruction, ending the current basic block."""
        rng = self._rng
        state = self._state
        state.block_remaining = 0  # block ends here

        site = self._branch_sites.get(pc)
        if site is None:
            site = self._new_branch_site(pc)
            self._branch_sites[pc] = site

        taken = site.outcome(rng)
        is_call = False
        is_return = False
        target = site.target

        # Occasionally make this branch a call or return to exercise the RAS
        # and to move execution between functions (I-cache behaviour).
        call_probability = 0.06
        if rng.random() < call_probability and state.call_stack is not None:
            if state.call_stack and rng.random() < 0.5:
                is_return = True
                target = state.call_stack.pop()
                taken = True
            else:
                is_call = True
                target = self._call_target()
                state.call_stack.append(pc + _INSTRUCTION_BYTES)
                taken = True

        sources = self._pick_sources(1)
        instruction = Instruction(
            seq=self._seq,
            pc=pc,
            klass=InstructionClass.BRANCH,
            src_regs=sources,
            dst_reg=None,
            is_taken=taken,
            branch_target=target,
            is_call=is_call,
            is_return=is_return,
            thread_id=self.thread_id,
            is_kernel=state.in_kernel,
        )
        if taken:
            if is_call or is_return:
                state.function_base = target - (target % _FUNCTION_SIZE)
            state.pc = target
            state.block_remaining = 0
        return instruction

    def _new_branch_site(self, pc: int) -> _BranchSite:
        """Assign a behaviour class to a newly seen static branch."""
        rng = self._rng
        profile = self.profile
        roll = rng.random()
        base, _ = self._code_region()
        # Backward target (loop) or forward target within the function.
        if roll < profile.loop_branch_fraction:
            kind = "loop"
            loop_count = max(1, int(rng.expovariate(1.0 / 12.0)))
            target = max(base, pc - rng.randrange(16, 512, _INSTRUCTION_BYTES))
            bias = 0.9
        elif roll < profile.loop_branch_fraction + profile.hard_branch_fraction:
            kind = "hard"
            loop_count = 0
            target = pc + rng.randrange(8, 256, _INSTRUCTION_BYTES)
            bias = 0.35 + 0.3 * rng.random()  # 0.35..0.65: unpredictable
        else:
            kind = "biased"
            loop_count = 0
            target = pc + rng.randrange(8, 256, _INSTRUCTION_BYTES)
            bias = 0.02 + 0.08 * rng.random() if rng.random() < 0.5 else 0.9 + 0.08 * rng.random()
        return _BranchSite(kind, bias, loop_count, target)

    def _make_memory(self, pc: int, klass: InstructionClass) -> Instruction:
        """Generate a load or store with a profile-driven address."""
        rng = self._rng
        profile = self.profile
        address = self._data_address()
        pointer_chase = (
            klass == InstructionClass.LOAD
            and self._last_load_dst is not None
            and rng.random() < profile.pointer_chase_fraction
        )
        if pointer_chase:
            sources = (self._last_load_dst,) + self._pick_sources(0)
            # A dependent (pointer-chasing) load goes to an unpredictable
            # location in the larger working set: the next pointer is
            # data-dependent, so it misses the L1 and serializes with the
            # producing load.
            address = self._l2_ws_base + rng.randrange(0, self._l2_ws_size, 8)
        else:
            sources = self._pick_sources(1)

        dst_reg: Optional[int]
        if klass == InstructionClass.LOAD:
            dst_reg = self._pick_destination()
            self._last_load_dst = dst_reg
        else:
            dst_reg = None
            sources = sources + self._pick_sources(1)

        return Instruction(
            seq=self._seq,
            pc=pc,
            klass=klass,
            src_regs=sources,
            dst_reg=dst_reg,
            mem_addr=address,
            mem_size=8,
            thread_id=self.thread_id,
            is_kernel=self._state.in_kernel,
        )

    def _data_address(self) -> int:
        """Sample a data address according to the profile's locality model."""
        rng = self._rng
        profile = self.profile
        if self._state.in_kernel:
            return _KERNEL_DATA_BASE + rng.randrange(0, _KERNEL_DATA_FOOTPRINT, 8)
        # Shared-region accesses (multi-threaded workloads only).
        if profile.shared_fraction > 0.0 and rng.random() < profile.shared_fraction:
            return self.shared_region_base + rng.randrange(0, self.shared_region_size, 8)

        roll = rng.random()
        if roll < profile.hot_data_fraction:
            # Hot region (stack / scalars): always L1-resident.
            return self._stack_base + rng.randrange(0, self._hot_size, 8)
        roll -= profile.hot_data_fraction
        if roll < profile.l2_fraction:
            # L2-resident working set: misses the L1, hits the L2 when the
            # program runs alone.  Accesses are skewed (an eighth of the
            # working set receives the majority of accesses) to keep TLB and
            # L2 behaviour realistic.
            if rng.random() < 0.6:
                hot_eighth = max(4096, self._l2_ws_size // 8)
                return self._l2_ws_base + rng.randrange(0, hot_eighth, 8)
            return self._l2_ws_base + rng.randrange(0, self._l2_ws_size, 8)
        roll -= profile.l2_fraction
        if roll < profile.streaming_fraction:
            # Streaming access: compulsory misses marching through memory.
            return rng.choice(self._streams).next_address()
        # L1-resident working set.
        return self._l1_ws_base + rng.randrange(0, self._l1_ws_size, 8)

    def _make_compute(self, pc: int, klass: InstructionClass) -> Instruction:
        """Generate an ALU/FP instruction with register dependences."""
        num_sources = 2 if self._rng.random() < 0.7 else 1
        return Instruction(
            seq=self._seq,
            pc=pc,
            klass=klass,
            src_regs=self._pick_sources(num_sources),
            dst_reg=self._pick_destination(),
            thread_id=self.thread_id,
            is_kernel=self._state.in_kernel,
        )

    def _pick_destination(self) -> int:
        """Pick a destination architectural register (register 0 is reserved)."""
        return self._rng.randrange(1, NUM_ARCH_REGISTERS)

    def _pick_sources(self, count: int) -> Tuple[int, ...]:
        """Pick source registers, preferring recently written registers.

        The distance (in instructions) to the producing instruction follows a
        geometric distribution with mean ``profile.dependence_distance``,
        which shapes the dependence chains the old window sees.
        """
        sources: List[int] = []
        rng = self._rng
        mean_distance = self.profile.dependence_distance
        for source_index in range(count):
            # The first source has a good chance of naming a recent producer
            # (real code consumes freshly computed values); additional sources
            # are mostly loop-invariant or long-lived values, which keeps the
            # dependence graph from collapsing into a single serial chain.
            recent_probability = 0.55 if source_index == 0 else 0.30
            if self._recent_writers and rng.random() < recent_probability:
                distance = int(rng.expovariate(1.0 / mean_distance)) + 1
                index = min(distance, len(self._recent_writers))
                sources.append(self._recent_writers[-index])
            else:
                sources.append(rng.randrange(1, NUM_ARCH_REGISTERS))
        return tuple(sources)

    def _record_writer(self, dst_reg: Optional[int]) -> None:
        """Remember the destination register of the generated instruction."""
        if dst_reg is None:
            return
        self._recent_writers.append(dst_reg)
        if len(self._recent_writers) > 256:
            del self._recent_writers[:128]


def generate_trace(
    profile: WorkloadProfile,
    num_instructions: Optional[int] = None,
    seed: int = 0,
    thread_id: int = 0,
) -> ThreadTrace:
    """Convenience wrapper: build a generator and produce one trace."""
    generator = SyntheticTraceGenerator(profile, seed=seed, thread_id=thread_id)
    return generator.generate(num_instructions)

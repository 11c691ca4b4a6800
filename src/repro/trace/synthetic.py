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

Stream contract
---------------

:meth:`SyntheticTraceGenerator.emit` produces the stream in one fused loop
over locals, for speed: synthesis is the front end every timing model waits
for.  Every random draw happens in a fixed order (kernel-phase entry, class,
basic-block start, class-specific draws, sources, destination), and each
inlined form equals the ``random.Random`` method it replaces:

* ``randrange(a, b, s)`` is ``a + s * _randbelow(n)`` with
  ``n = (b - a + s - 1) // s``;
* ``_randbelow(n)`` draws ``getrandbits(n.bit_length())`` until the result is
  below ``n`` (register and address draws inline this loop);
* ``choices(population, cum_weights=cum)[0]`` is
  ``population[bisect(cum, random() * total, 0, len(cum) - 1)]``;
* ``expovariate(1 / m)`` is ``-log(1.0 - random()) / lambd`` with
  ``lambd = 1.0 / m`` (the division is kept: ``* m`` rounds differently);
* ``choice(seq)`` is ``seq[_randbelow(len(seq))]``.

``tests/trace/test_stream_digest.py`` pins the stream with per-profile
digests on every supported Python.  Any change to the draw order is an
intentional model change: regenerate the golden corpus and the digests, and
say so in the commit.
"""

from __future__ import annotations

import itertools
import random
import zlib
from bisect import bisect
from math import log
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


def _region(base: int, size: int) -> Tuple[int, int, int]:
    """(base, words, bits) of a region drawn as ``randrange(0, size, 8)``."""
    words = (size + 7) // 8
    return base, words, words.bit_length()


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
        # Generator state carried from one emit() call to the next.
        self._pc = self._function_base = self._code_base
        self._block_remaining = 0
        self._in_kernel = False
        self._kernel_remaining = 0
        self._call_stack: List[int] = []
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
        # Accumulated once for the class draw (see the stream contract).
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
        instructions = self._init_phase(budget=count // 5) if include_init_phase else []
        self.emit(instructions, count - len(instructions))
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

    def emit(self, out: List[Instruction], count: int) -> None:
        """Append the next ``count`` instructions of the stream to ``out``.

        One fused loop over locals; the module docstring's stream contract
        lists the order of the draws and the inlined ``random.Random`` forms.
        """
        if count <= 0:
            return
        profile = self.profile
        rng = self._rng
        random = rng.random
        getrandbits = rng.getrandbits
        randbelow = rng._randbelow
        append = out.append
        thread_id = self.thread_id
        classes = self._classes
        cum_weights = self._class_cum_weights
        total_weight = cum_weights[-1] + 0.0
        last_class = len(classes) - 1
        kernel_fraction = profile.kernel_fraction
        mean_kernel_phase = 600.0
        kernel_entry = kernel_fraction / mean_kernel_phase
        kernel_lambd = 1.0 / mean_kernel_phase
        block_lambd = 1.0 / profile.mean_basic_block
        distance_lambd = 1.0 / profile.dependence_distance
        chase_fraction = profile.pointer_chase_fraction
        shared_fraction = profile.shared_fraction
        hot_fraction = profile.hot_data_fraction
        l2_fraction = profile.l2_fraction
        streaming_fraction = profile.streaming_fraction
        # randbelow(n) draws getrandbits(n.bit_length()) until below n.
        offsets = _FUNCTION_SIZE // _INSTRUCTION_BYTES
        offset_bits = offsets.bit_length()
        registers = NUM_ARCH_REGISTERS - 1  # register 0 is reserved
        register_bits = registers.bit_length()
        kernel_data = _region(_KERNEL_DATA_BASE, _KERNEL_DATA_FOOTPRINT)
        shared_data = _region(self.shared_region_base, self.shared_region_size)
        hot_data = _region(self._stack_base, self._hot_size)
        l2_data = _region(self._l2_ws_base, self._l2_ws_size)
        l2_hot_data = _region(self._l2_ws_base, max(4096, self._l2_ws_size // 8))
        l1_data = _region(self._l1_ws_base, self._l1_ws_size)
        streams = self._streams
        code_base = self._code_base
        branch_sites = self._branch_sites
        writers = self._recent_writers
        call_stack = self._call_stack
        BRANCH, LOAD, STORE, SERIALIZING = (
            InstructionClass.BRANCH, InstructionClass.LOAD,
            InstructionClass.STORE, InstructionClass.SERIALIZING,
        )
        NO_SYNC = SyncKind.NONE
        pc = self._pc
        function_base = self._function_base
        block_remaining = self._block_remaining
        in_kernel = self._in_kernel
        kernel_remaining = self._kernel_remaining
        last_load_dst = self._last_load_dst

        for seq in range(self._seq, self._seq + count):
            # Kernel (OS) phases: bursts of a few hundred instructions entered
            # so that kernel_fraction of the stream runs in kernel mode.
            if in_kernel:
                kernel_remaining -= 1
                if kernel_remaining <= 0:
                    in_kernel = False
                    function_base = code_base
                    block_remaining = 0
            elif kernel_fraction > 0.0 and random() < kernel_entry:
                in_kernel = True
                kernel_remaining = int(-log(1.0 - random()) / kernel_lambd) + 100
                function_base = _KERNEL_CODE_BASE + _FUNCTION_SIZE * randbelow(
                    _KERNEL_CODE_FOOTPRINT // _FUNCTION_SIZE
                )
                block_remaining = 0

            klass = classes[bisect(cum_weights, random() * total_weight, 0, last_class)]
            if block_remaining <= 0:
                # New basic block at an aligned offset of the current function.
                block_remaining = max(2, int(-log(1.0 - random()) / block_lambd) + 1)
                offset = getrandbits(offset_bits)
                while offset >= offsets:
                    offset = getrandbits(offset_bits)
                pc = function_base + _INSTRUCTION_BYTES * offset
            pc += _INSTRUCTION_BYTES
            block_remaining -= 1
            dst_reg = mem_addr = None
            taken = is_call = is_return = writes = False
            target = 0
            # Each source names a recent producer with this probability: the
            # first source of a pick is likely a fresh value, a second one
            # mostly a long-lived one.
            first_recent, second_recent = 0.55, None

            if klass is BRANCH:
                # A branch ends the basic block.
                block_remaining = 0
                site = branch_sites.get(pc)
                if site is None:
                    site = branch_sites[pc] = self._new_branch_site(pc, in_kernel)
                taken = site.outcome(rng)
                target = site.target
                # Occasionally a call or return, to exercise the RAS and move
                # execution between functions (I-cache behaviour).
                if random() < 0.06:
                    taken = True
                    if call_stack and random() < 0.5:
                        is_return = True
                        target = call_stack.pop()
                    else:
                        is_call = True
                        target = self._call_target(in_kernel)
                        call_stack.append(pc + _INSTRUCTION_BYTES)
            elif klass is LOAD or klass is STORE:
                if in_kernel:
                    region = kernel_data
                elif shared_fraction > 0.0 and random() < shared_fraction:
                    region = shared_data  # multi-threaded workloads only
                else:
                    roll = random()
                    if roll < hot_fraction:
                        region = hot_data  # stack / scalars: always L1-resident
                    elif roll - hot_fraction < l2_fraction:
                        # L2-resident working set, skewed: an eighth of it
                        # receives most accesses (realistic TLB/L2 behaviour).
                        region = l2_hot_data if random() < 0.6 else l2_data
                    elif roll - hot_fraction - l2_fraction < streaming_fraction:
                        # Streaming: compulsory misses marching through memory.
                        region = None
                        mem_addr = streams[randbelow(len(streams))].next_address()
                    else:
                        region = l1_data
                if region is not None:
                    base, words, bits = region
                    word = getrandbits(bits)
                    while word >= words:
                        word = getrandbits(bits)
                    mem_addr = base + 8 * word
                if klass is STORE:
                    second_recent = 0.55  # address source, then data source
                else:
                    writes = True
                    if last_load_dst is not None and random() < chase_fraction:
                        # Pointer chasing: the address depends on the previous
                        # load and lands anywhere in the larger working set,
                        # so it misses the L1 and serializes with the producer.
                        mem_addr = l2_data[0] + 8 * randbelow(l2_data[1])
                        sources = (last_load_dst,)
                        first_recent = None
            elif klass is SERIALIZING:
                sources = ()
                first_recent = None
            else:
                writes = True
                second_recent = 0.30 if random() < 0.7 else None

            # Source registers name the producer a geometrically distributed
            # number of writes back (mean dependence_distance), else any.
            if first_recent is not None:
                if writers and random() < first_recent:
                    distance = int(-log(1.0 - random()) / distance_lambd) + 1
                    first = writers[-distance] if distance < len(writers) else writers[0]
                else:
                    first = getrandbits(register_bits)
                    while first >= registers:
                        first = getrandbits(register_bits)
                    first += 1
                if second_recent is None:
                    sources = (first,)
                else:
                    if writers and random() < second_recent:
                        distance = int(-log(1.0 - random()) / distance_lambd) + 1
                        second = writers[-distance] if distance < len(writers) else writers[0]
                    else:
                        second = getrandbits(register_bits)
                        while second >= registers:
                            second = getrandbits(register_bits)
                        second += 1
                    sources = (first, second)
            if writes:
                dst_reg = getrandbits(register_bits)
                while dst_reg >= registers:
                    dst_reg = getrandbits(register_bits)
                dst_reg += 1
                if klass is LOAD:
                    last_load_dst = dst_reg
                writers.append(dst_reg)
                if len(writers) > 256:
                    del writers[:128]
            append(Instruction(
                seq, pc, klass, sources, dst_reg, mem_addr, 8, taken, target,
                is_call, is_return, NO_SYNC, 0, thread_id, in_kernel,
            ))
            if taken:
                if is_call or is_return:
                    function_base = target - (target % _FUNCTION_SIZE)
                pc = target

        self._seq += count
        self._pc = pc
        self._function_base = function_base
        self._block_remaining = block_remaining
        self._in_kernel = in_kernel
        self._kernel_remaining = kernel_remaining
        self._last_load_dst = last_load_dst

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

    def _code_region(self, in_kernel: bool) -> Tuple[int, int]:
        """Return (base, size) of the active code region (user or kernel)."""
        if in_kernel:
            return _KERNEL_CODE_BASE, _KERNEL_CODE_FOOTPRINT
        return self._code_base, max(self.profile.code_footprint, _FUNCTION_SIZE)

    def _call_target(self, in_kernel: bool) -> int:
        """Pick a call target: a hot function most of the time."""
        base, size = self._code_region(in_kernel)
        if not in_kernel and self._rng.random() < self.profile.code_locality:
            return self._rng.choice(self._hot_functions)
        return base + self._rng.randrange(0, max(size, _FUNCTION_SIZE), _FUNCTION_SIZE)

    def _new_branch_site(self, pc: int, in_kernel: bool) -> _BranchSite:
        """Assign a behaviour class to a newly seen static branch."""
        rng = self._rng
        profile = self.profile
        roll = rng.random()
        base, _ = self._code_region(in_kernel)
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


def generate_trace(
    profile: WorkloadProfile,
    num_instructions: Optional[int] = None,
    seed: int = 0,
    thread_id: int = 0,
) -> ThreadTrace:
    """Convenience wrapper: build a generator and produce one trace."""
    generator = SyntheticTraceGenerator(profile, seed=seed, thread_id=thread_id)
    return generator.generate(num_instructions)

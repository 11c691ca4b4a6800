"""Front-end (fetch/decode/rename) model of the detailed core.

The Table-1 baseline has an 8-wide fetch, a 16-entry fetch queue and a
7-stage front-end pipeline.  The front-end model:

* fetches up to ``fetch_width`` instructions per cycle from the functional
  instruction stream into the fetch queue, as long as fetch is not stalled;
* charges instruction-cache and I-TLB misses by blocking fetch for the miss
  latency;
* consults the branch predictor at fetch; a mispredicted branch stops fetch
  (the detailed simulator is trace-driven, so no wrong-path instructions are
  fetched — instead fetch resumes, after the front-end refill delay, once the
  branch has executed), mirroring the penalty structure interval analysis
  assumes (branch resolution time + front-end pipeline depth);
* delivers instructions to dispatch only after they have spent
  ``frontend_pipeline_depth`` cycles in the front end.

The fetch engine runs on the columnar view of the bound trace
(:class:`~repro.trace.columnar.TraceBatch`): fetch addresses are read from
the ``pc`` column and verified interval-at-a-time through the hierarchy's
batched probe (:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block`),
which commits the fetch hit path for every upcoming instruction up to the
next I-side *miss* — sound because a fetch hit touches only this core's
private L1i/I-TLB, so committing the hits early preserves each structure's
access sequence exactly.  The miss itself is completed at the cycle the
per-instruction loop would have reached it, and is retried after the miss
latency exactly like the reference formulation (the retry counts a second,
hitting access).  :class:`~repro.common.isa.Instruction` objects still flow
through the fetch queue — the back end's ROB genuinely needs them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..branch import BranchPredictor
from ..common.config import CoreConfig
from ..common.isa import Instruction, InstructionClass
from ..common.stats import CoreStats
from ..memory.hierarchy import MemoryHierarchy
from ..trace.stream import TraceCursor

__all__ = ["FrontEnd"]

_BRANCH = int(InstructionClass.BRANCH)


class FrontEnd:
    """Fetch engine plus front-end pipeline delay."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: CoreStats,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.stats = stats
        self._cursor: Optional[TraceCursor] = None
        # Entries are (instruction, its class code, cycle at which dispatch
        # may consume it, predicted_correctly flag for branches).
        self._queue: Deque[Tuple[Instruction, int, int, bool]] = deque()
        # The buffer models the fetch queue plus the instructions held in the
        # front-end pipeline stages themselves; without the pipeline-register
        # capacity the 7-cycle front end could never sustain the dispatch
        # width (Little's law: depth x width instructions must be in flight).
        self._capacity = (
            config.fetch_queue_entries
            + config.frontend_pipeline_depth * config.dispatch_width
        )
        self._fetch_ready_cycle = 0
        self._redirect_pending = False
        # Columnar view of the bound trace, set in bind().
        self._pcs: List[int] = []
        self._klass: List[int] = []
        self._instructions: List[Instruction] = []
        self._length = 0
        # Exclusive end of the verified-fetch run: positions below it have
        # already performed their (hitting) fetch through the batched probe.
        self._fetch_limit = 0

    def bind(self, cursor: TraceCursor) -> None:
        """Attach the functional instruction stream."""
        self._cursor = cursor
        batch = cursor.trace.batch()
        self._pcs = batch.pc
        self._klass = batch.klass
        self._instructions = batch.instructions
        self._length = batch.length
        # The cursor position accounts for any functionally-warmed prefix.
        self._fetch_limit = cursor.position

    # -- state queries -------------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Number of instructions buffered in the front end."""
        return len(self._queue)

    @property
    def exhausted(self) -> bool:
        """``True`` when the stream is consumed and the queue has drained."""
        cursor = self._cursor
        return (
            cursor is not None
            and cursor.position >= self._length
            and not self._queue
        )

    @property
    def stalled_on_branch(self) -> bool:
        """``True`` while fetch waits for a mispredicted branch to resolve."""
        return self._redirect_pending

    @property
    def fetch_quiescent(self) -> bool:
        """``True`` when no future cycle can fetch without external input.

        Used by the parked-driver gate: a core blocked at dispatch may only
        park once fetch cannot change its state on its own.  That holds when
        the stream is exhausted, the queue is full, or fetch waits on a
        branch redirect (which, with an empty back end, can no longer
        arrive).  A pending I-miss timer (``_fetch_ready_cycle`` in the
        future with queue space left) is *not* quiescent — fetch resumes by
        itself, so the core must keep stepping cycles until it stabilizes.
        """
        cursor = self._cursor
        if cursor is None or self._redirect_pending:
            return True
        if cursor.position >= self._length:
            return True
        return len(self._queue) >= self._capacity

    def fetch_gate(self, cycle: int):
        """How fetch is gated, evaluated on end-of-cycle state.

        Returns ``0`` when fetch can make progress at ``cycle`` on its own;
        the wake cycle when only a pending I-miss timer blocks it; or
        ``None`` when fetch cannot progress without a back-end event (branch
        redirect, full queue, exhausted stream).  Used by the detailed
        core's dormant-span skip to prove fetch stays frozen.
        """
        cursor = self._cursor
        if cursor is None or self._redirect_pending:
            return None
        if cursor.position >= self._length:
            return None
        if len(self._queue) >= self._capacity:
            return None
        if cycle < self._fetch_ready_cycle:
            return self._fetch_ready_cycle
        return 0

    def head_entry(self):
        """The queue head's ``(klass_code, dispatch_ready_cycle)``, or ``None``."""
        if not self._queue:
            return None
        _, kcode, dispatch_ready, _ = self._queue[0]
        return kcode, dispatch_ready

    # -- per-cycle operation ----------------------------------------------------------

    def fetch_cycle(self, cycle: int) -> None:
        """Fetch up to ``fetch_width`` instructions in ``cycle``."""
        cursor = self._cursor
        if cursor is None or self._redirect_pending:
            return
        if cycle < self._fetch_ready_cycle:
            return
        queue = self._queue
        stats = self.stats
        pcs = self._pcs
        klass = self._klass
        instructions = self._instructions
        n = self._length
        position = cursor.position
        fetch_limit = self._fetch_limit
        fetch_width = self.config.fetch_width
        fe_depth = self.config.frontend_pipeline_depth
        capacity = self._capacity

        fetched = 0
        while fetched < fetch_width and len(queue) < capacity and position < n:
            if position >= fetch_limit:
                # One batched probe commits every upcoming fetch hit and
                # stops at the next I-side miss event.
                fetch_limit = self.hierarchy.access_block(
                    self.core_id, pcs, position, n
                )
                if fetch_limit == position:
                    result = self.hierarchy.instruction_probe(
                        self.core_id, pcs[position], cycle
                    )
                    if result is not None:
                        if result.l1_miss:
                            stats.icache_misses += 1
                        if result.tlb_miss:
                            stats.itlb_misses += 1
                        # Fetch of this instruction (and everything after it)
                        # is delayed by the miss; retry once the line has
                        # arrived (the retry re-verifies the now-hitting
                        # fetch through the batched probe).
                        self._fetch_ready_cycle = cycle + result.penalty
                        break
                    fetch_limit = position + 1

            kcode = klass[position]
            instruction = instructions[position]
            position += 1
            predicted_correctly = True
            if kcode == _BRANCH:
                stats.branch_lookups += 1
                predicted_correctly = self.predictor.access(instruction)
                if not predicted_correctly:
                    stats.branch_mispredictions += 1

            queue.append(
                (instruction, kcode, cycle + fe_depth, predicted_correctly)
            )
            fetched += 1

            if not predicted_correctly:
                # Stop fetching until the branch resolves at execute.
                self._redirect_pending = True
                break

        self._fetch_limit = fetch_limit
        if position > cursor.position:
            cursor.advance_to(position)

    def peek_dispatchable(self, cycle: int):
        """Return the oldest instruction ready for dispatch in ``cycle``.

        Yields ``(instruction, klass_code, predicted_correctly)`` or ``None``.
        """
        if not self._queue:
            return None
        instruction, kcode, dispatch_ready, predicted_correctly = self._queue[0]
        if dispatch_ready > cycle:
            return None
        return instruction, kcode, predicted_correctly

    def pop_dispatchable(self) -> None:
        """Consume the instruction returned by :meth:`peek_dispatchable`."""
        self._queue.popleft()

    def redirect_resolved(self, cycle: int) -> None:
        """Resume fetch after a mispredicted branch executed at ``cycle``.

        The front end restarts on the correct path; the refill delay is
        captured by the ``frontend_pipeline_depth`` applied to newly fetched
        instructions.
        """
        if not self._redirect_pending:
            return
        self._redirect_pending = False
        self._fetch_ready_cycle = max(self._fetch_ready_cycle, cycle + 1)

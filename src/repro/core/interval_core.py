"""Per-core interval analysis — the analytical core timing model.

This module implements the per-core part of the paper's Figure-3 pseudocode.
Instead of tracking every instruction through pipeline stages, the model
considers the instruction at the window head and classifies it:

* **I-cache / I-TLB miss** — add the miss latency to the per-core simulated
  time (unless the access was already performed underneath an earlier
  long-latency load, i.e. ``I_overlapped``);
* **branch misprediction** — add the branch resolution time (estimated from
  the old window's dependence chains) plus the front-end pipeline depth;
* **long-latency load** (last-level cache miss, coherence miss or D-TLB
  miss) — add the miss latency, and scan the window for independent miss
  events hidden underneath the load (second-order overlap effects);
* **serializing instruction** — add the window drain time;
* otherwise — dispatch at the effective dispatch rate derived from the old
  window's critical path.

Every miss event empties the old window, modeling the interval-length effect.
Synchronization pseudo-instructions (barriers, locks) are interpreted through
the shared :class:`~repro.multicore.sync.SynchronizationManager`; a core that
must wait blocks and is parked off the event heap until the release (or, under
the spin reference driver, stalls one cycle at a time), so inter-thread timing
emerges from the interleaving of per-core simulated times.

Execution engine
----------------
The model above is *interval level*: between two miss events nothing happens
except dispatch at the effective rate.  :class:`IntervalCore` therefore runs
an **interval-at-a-time kernel** on the shared execution-kernel layer
(:mod:`repro.core.kernel`, which also drives the one-IPC model and the
detailed front end): :meth:`IntervalCore.simulate_interval`
consumes the columnar trace batch (:class:`~repro.trace.columnar.TraceBatch`)
directly, tracks the instruction window *implicitly* as a sliding index range
plus one flag byte per instruction, and charges interval cycles with pure
arithmetic — the per-instruction object traffic (window entries, access
results, attribute chains) of a detailed simulator is gone from the hot path.

Fetches are verified interval-at-a-time through the hierarchy's batched probe
(:meth:`~repro.memory.hierarchy.MemoryHierarchy.access_block`): one call
commits the fetch hit path for every upcoming instruction until the next
fetch *miss* — the kernel's ``_fetch_limit``.  This is sound because a fetch
hit touches only the core's private L1 I-cache and I-TLB: it commutes with
every data-side and remote-core operation, so committing the hits early
preserves each structure's access sequence exactly (sync pseudo-ops, which
never fetch, are pre-marked in the flag byte and skipped; the overlap scan
credits already-verified positions as overlapped fetches without re-touching
the hierarchy).

``simulate_cycle`` remains the :class:`~repro.multicore.simulator.CoreModel`
entry point and now simulates one whole event step per call, preserving the
multi-core contract (the per-core time always jumps strictly past
``multi_core_time``).

The kernel is observably *bit-identical* to the reference per-cycle
formulation: every branch-predictor access, every per-structure memory
access sequence and every statistic match value for value
(``tests/regression`` pins this against a frozen golden corpus).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..branch import BranchPredictor
from ..common.config import MachineConfig
from ..common.stats import CoreStats
from ..memory.hierarchy import MemoryHierarchy
from ..multicore.sync import SynchronizationManager
from ..trace.columnar import KLASS_PLAIN, TraceBatch
from ..trace.stream import TraceCursor
from .kernel import (
    _SK_BARRIER,
    _SK_LOCK_ACQUIRE,
    F_BROVR as _F_BROVR,
    F_DOVR as _F_DOVR,
    F_IOVR as _F_IOVR,
    F_SKIP_FETCH as _F_SKIP_FETCH,
    KLASS_BRANCH as _BRANCH,
    KLASS_LOAD as _LOAD,
    KLASS_SERIALIZING as _SERIALIZING,
    KLASS_STORE as _STORE,
    KLASS_SYNC as _SYNC,
    ColumnarKernelCore,
)
from .window import OldWindow

__all__ = ["IntervalCore"]


class IntervalCore(ColumnarKernelCore):
    """Interval-analysis timing model of one out-of-order core."""

    def __init__(
        self,
        core_id: int,
        config: MachineConfig,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        stats: CoreStats,
        sync: Optional[SynchronizationManager] = None,
        use_old_window: bool = True,
        model_overlap: bool = True,
    ) -> None:
        super().__init__(core_id, config, hierarchy, predictor, stats, sync)
        self.old_window = OldWindow(
            capacity=config.core.rob_entries,
            dispatch_width=config.core.dispatch_width,
        )
        # Ablation switches (both on for the paper's full model):
        # use_old_window=False disables the old-window estimates (fixed
        # dispatch rate, zero branch resolution time), reverting to the prior
        # state of the art the paper improves on; model_overlap=False
        # disables the second-order overlap scan underneath long-latency
        # loads.
        self.use_old_window = use_old_window
        self.model_overlap = model_overlap
        # The implicit window is the index range [_head, _tail) over the
        # trace batch, _ovr holds the per-position flag byte, and positions
        # below _fetch_limit have already performed their (verified-hit)
        # fetch.
        self._tail = 0
        self._ovr = bytearray()
        self._lat: List[int] = []

    # -- CoreModel interface -----------------------------------------------------

    def _bind_batch(self, batch: TraceBatch, cursor: TraceCursor) -> None:
        """Set up the implicit window over the bound trace's batch."""
        self._lat = batch.latency_table(self.core_config.execution_latencies)
        self._ovr = bytearray(batch.fetch_skip_template)
        # The window fills immediately from the stream (tail feed); _head
        # already accounts for any functionally-warmed prefix.
        self._tail = min(self._head + self.core_config.rob_entries, batch.length)
        cursor.advance_to(self._tail)

    def simulate_interval(self, run_until: int) -> None:
        """Run the interval kernel until ``sim_time`` reaches ``run_until``.

        Consumes whole intervals per event: one batched probe verifies the
        fetch path up to the next I-side miss, the run is then charged at the
        effective dispatch rate with pure arithmetic, and the miss-event
        machinery (penalties, old-window emptying, the overlap scan) executes
        only at event boundaries.  The multi-core driver picks ``run_until``
        as the next moment another core must interleave.
        """
        if self.finished or self._cursor is None:
            return
        sim_time = self.sim_time
        if sim_time >= run_until:
            return
        batch = self._batch
        assert batch is not None

        # Blocked-at-barrier event steps dominate sync-heavy workloads (tied
        # waiting cores interleave one cycle at a time); detect the block
        # with side-effect-free checks and charge the whole stall without
        # paying the full alias hoist below.  A block at cycle start repeats
        # identically every remaining cycle before run_until.  Completed sync
        # ops (and first barrier arrivals) fall through to the main loop,
        # which owns their side effects and dispatch-budget accounting.
        head = self._head
        sync_mgr = self.sync
        if head < self._n and batch.klass[head] == _SYNC and sync_mgr is not None:
            kind = batch.sync_kind[head]
            sync_object = batch.sync_object[head]
            if kind == _SK_BARRIER:
                if self._waiting_barrier == sync_object and not sync_mgr.barrier_released(
                    sync_object
                ):
                    if self.park_blocked:
                        # Nothing was charged yet this cycle: stall cycles
                        # from sim_time on are back-filled at wake.
                        self._park(False, sync_object, sim_time, sim_time)
                        return
                    # Already arrived, barrier still closed: every remaining
                    # cycle re-checks without side effects.
                    span = self._blocked_stall_span(sim_time, run_until)
                    self.stats.sync_stall_cycles += span
                    self.sim_time = sim_time + span
                    return
            elif kind == _SK_LOCK_ACQUIRE and self._thread_id is not None:
                holder = sync_mgr.lock_holder(sync_object)
                if holder is not None and holder != self._thread_id:
                    if self.park_blocked:
                        # Neither the stall nor this cycle's failing acquire
                        # attempt was charged: both back-fill from sim_time.
                        self._park(True, sync_object, sim_time, sim_time)
                        return
                    # Contended lock: every remaining cycle performs one
                    # failing acquire attempt.
                    span = self._blocked_stall_span(sim_time, run_until)
                    self.stats.sync_stall_cycles += span
                    self.stats.lock_contended += span
                    sync_mgr.stats.lock_contentions += span
                    self.sim_time = sim_time + span
                    return

        # -- hot-loop aliases -----------------------------------------------------
        stats = self.stats
        klass = batch.klass
        pcs = batch.pc
        addrs = batch.mem_addr
        lines = batch.mem_line
        srcs_col = batch.src_regs
        dst_col = batch.dst_reg
        sync_kind_col = batch.sync_kind
        sync_obj_col = batch.sync_object
        instrs = batch.instructions
        ovr = self._ovr
        lat_table = self._lat
        plain = KLASS_PLAIN
        n = self._n
        head = self._head
        tail = self._tail
        fetch_limit = self._fetch_limit

        rob = self.core_config.rob_entries
        width_i = self.core_config.dispatch_width
        width_f = float(width_i)
        fe_depth = self.core_config.frontend_pipeline_depth

        hierarchy = self.hierarchy
        core_id = self.core_id
        probe = hierarchy.instruction_probe
        fetch_block = hierarchy.access_block
        data_probe = hierarchy.data_probe
        predictor_access = self.predictor.access
        use_ow = self.use_old_window
        model_overlap = self.model_overlap
        ow = self.old_window
        ow_issue = ow._entries
        ow_append = ow_issue.append
        ow_pop = ow_issue.popleft
        reg_ready = ow._register_ready
        store_ready = ow._store_ready
        ow_head_t = ow._head_time
        ow_tail_t = ow._tail_time
        ow_cap = ow.capacity
        trim_at = 4 * ow_cap
        instr_count = stats.instructions

        park_blocked = self.park_blocked
        yield_at_cycle_end = False
        while sim_time < run_until and not self.finished:
            if head >= n:
                break  # window empty at cycle start (empty trace)
            mct = sim_time
            dispatched = 0
            while sim_time == mct:
                # Effective dispatch rate for this cycle, re-derived from the
                # old window's critical path after every insert.
                if use_ow:
                    cp = ow_tail_t - ow_head_t
                    if cp <= 0.0:
                        rate = width_f
                    else:
                        rate = rob / cp
                        if rate > width_f:
                            rate = width_f
                else:
                    rate = width_f
                if dispatched >= rate:
                    break
                if head >= n:
                    # Trace exhausted mid-cycle: the end-of-cycle increment
                    # is skipped, exactly like the reference formulation.
                    self._store_kernel_state(
                        head, tail, fetch_limit, sim_time, instr_count,
                        ow_head_t, ow_tail_t,
                    )
                    self._finish(mct)
                    return

                k = klass[head]

                # -- I-cache and I-TLB (lines 12–18) --
                # Positions below fetch_limit already performed their
                # (verified-hit) fetch through the batched probe; overlapped
                # and sync positions never fetch at the head.
                if head >= fetch_limit and not ovr[head] & _F_SKIP_FETCH:
                    # One batched probe commits every upcoming fetch hit and
                    # stops at the next I-side miss event.
                    fetch_limit = fetch_block(
                        core_id, pcs, head, n, ovr, _F_SKIP_FETCH
                    )
                    if fetch_limit == head:
                        result = probe(core_id, pcs[head], sim_time)
                        fetch_limit = head + 1
                        if result is not None:
                            if result.l1_miss:
                                stats.icache_misses += 1
                            if result.tlb_miss:
                                stats.itlb_misses += 1
                            penalty = result.penalty
                            sim_time += penalty
                            stats.icache_penalty_cycles += penalty
                            if use_ow:
                                ow_issue.clear()
                                reg_ready.clear()
                                store_ready.clear()
                                ow_head_t = 0.0
                                ow_tail_t = 0.0

                if plain[k]:
                    # -- plain instruction: dispatch is pure arithmetic --
                    if use_ow:
                        ready = ow_head_t
                        for register in srcs_col[head]:
                            produced = reg_ready.get(register)
                            if produced is not None and produced > ready:
                                ready = produced
                        issue = ready + lat_table[k]
                        ow_append(issue)
                        if issue > ow_tail_t:
                            ow_tail_t = issue
                        dst = dst_col[head]
                        if dst is not None:
                            reg_ready[dst] = issue
                        if len(ow_issue) > ow_cap:
                            removed = ow_pop()
                            if removed > ow_head_t:
                                ow_head_t = removed
                    instr_count += 1
                    head += 1
                    tail = head + rob
                    if tail > n:
                        tail = n
                    dispatched += 1
                    if head >= n:
                        self._store_kernel_state(
                            head, tail, fetch_limit, sim_time, instr_count,
                            ow_head_t, ow_tail_t,
                        )
                        self._finish(mct)
                    continue

                if k == _SYNC:
                    # -- synchronization pseudo-instruction (no fetch) --
                    kind = sync_kind_col[head]
                    sync_object = sync_obj_col[head]
                    if not self._handle_sync_kind(kind, sync_object, sim_time):
                        # Blocked at a barrier or contended lock.  Parked
                        # mode hands the core to the driver's wait lists;
                        # the attempt just performed was charged at
                        # sim_time, so back-fill starts one cycle later.
                        if park_blocked:
                            is_lock = kind == _SK_LOCK_ACQUIRE
                            if dispatched == 0:
                                self._store_kernel_state(
                                    head, tail, fetch_limit, sim_time,
                                    instr_count, ow_head_t, ow_tail_t,
                                )
                                self._park(
                                    is_lock, sync_object, sim_time, sim_time + 1
                                )
                            else:
                                # The blocked cycle itself still counts (it
                                # dispatched work); retries resume next cycle.
                                stats.sync_stall_cycles += 1
                                sim_time += 1
                                self._store_kernel_state(
                                    head, tail, fetch_limit, sim_time,
                                    instr_count, ow_head_t, ow_tail_t,
                                )
                                self._park(is_lock, sync_object, sim_time, sim_time)
                            return
                        # Spin reference: the core stalls this cycle and
                        # retries once global time catches up.  When the
                        # block is at cycle start the remaining cycles up to
                        # run_until repeat identically (no other core runs
                        # in between), so the whole stall is charged in one
                        # step.
                        if dispatched == 0:
                            span = self._blocked_stall_span(sim_time, run_until)
                            self._charge_blocked_retries(kind, span)
                            stats.sync_stall_cycles += span
                            sim_time += span
                        else:
                            stats.sync_stall_cycles += 1
                        break
                    if sync_mgr is not None and sync_mgr.wake_pending:
                        # This op released parked waiters: finish the current
                        # cycle, then yield so the driver re-inserts them
                        # before this core runs further ahead.
                        yield_at_cycle_end = True
                    instr_count += 1  # sync ops skip the old window
                    head += 1
                    tail = head + rob
                    if tail > n:
                        tail = n
                    dispatched += 1
                    if head >= n:
                        self._store_kernel_state(
                            head, tail, fetch_limit, sim_time, instr_count,
                            ow_head_t, ow_tail_t,
                        )
                        self._finish(mct)
                    continue

                # -- event-capable instruction: branch / load / store / serializing --
                fb = ovr[head]
                latency = lat_table[k]

                if k == _BRANCH:
                    # -- branch prediction (lines 21–28) --
                    if not fb & _F_BROVR:
                        stats.branch_lookups += 1
                        if not predictor_access(instrs[head]):
                            stats.branch_mispredictions += 1
                            if use_ow:
                                # Branch resolution time: longest dependence
                                # chain to the branch from the old-window head.
                                ready = ow_head_t
                                for register in srcs_col[head]:
                                    produced = reg_ready.get(register)
                                    if produced is not None and produced > ready:
                                        ready = produced
                                chain = ready - ow_head_t
                                resolution = (chain if chain > 0.0 else 0.0) + latency
                            else:
                                resolution = float(latency)
                            penalty = int(round(resolution)) + fe_depth
                            sim_time += penalty
                            stats.branch_penalty_cycles += penalty
                            if use_ow:
                                ow_issue.clear()
                                reg_ready.clear()
                                store_ready.clear()
                                ow_head_t = 0.0
                                ow_tail_t = 0.0
                elif k == _SERIALIZING:
                    # -- serializing instructions (lines 56–59) --
                    stats.serializing_instructions += 1
                    if use_ow:
                        dispatch_bound = len(ow_issue) / width_i
                        cp = ow_tail_t - ow_head_t
                        if cp < 0.0:
                            cp = 0.0
                        drain_time = dispatch_bound if dispatch_bound > cp else cp
                    else:
                        drain_time = (tail - head) / width_i
                    drain = int(round(drain_time))
                    sim_time += drain
                    stats.serializing_penalty_cycles += drain
                    if use_ow:
                        ow_issue.clear()
                        reg_ready.clear()
                        store_ready.clear()
                        ow_head_t = 0.0
                        ow_tail_t = 0.0
                else:
                    # -- loads and stores (lines 31–53) --
                    is_store = k == _STORE
                    if is_store or not fb & _F_DOVR:
                        result = data_probe(
                            core_id, addrs[head], is_store, sim_time
                        )
                        stats.dcache_accesses += 1
                        if result is None:
                            # L1/TLB hit: no penalty, no miss event.
                            if is_store:
                                stats.committed_stores += 1
                            else:
                                stats.committed_loads += 1
                        else:
                            if result.l1_miss:
                                stats.l1d_misses += 1
                            if result.tlb_miss:
                                stats.dtlb_misses += 1
                            if is_store:
                                stats.committed_stores += 1
                                # Stores retire through the store buffer;
                                # they do not stall dispatch in the
                                # interval model.
                            else:
                                stats.committed_loads += 1
                                if result.long_latency:
                                    stats.long_latency_loads += 1
                                    # Second-order effects: resolve independent
                                    # miss events hidden underneath the
                                    # long-latency load.
                                    if model_overlap:
                                        self._scan_under_long_latency_load(
                                            head, tail, fetch_limit, sim_time
                                        )
                                    penalty = result.penalty
                                    sim_time += penalty
                                    stats.long_load_penalty_cycles += penalty
                                    if use_ow:
                                        ow_issue.clear()
                                        reg_ready.clear()
                                        store_ready.clear()
                                        ow_head_t = 0.0
                                        ow_tail_t = 0.0
                                else:
                                    # L1 miss served by the L2: fold the
                                    # latency into the execution latency so
                                    # the critical path (and hence the
                                    # effective dispatch rate) reflects it.
                                    latency += result.penalty

                # Dispatch: insert into the (possibly just-emptied) old window.
                if use_ow:
                    ready = ow_head_t
                    for register in srcs_col[head]:
                        produced = reg_ready.get(register)
                        if produced is not None and produced > ready:
                            ready = produced
                    mem_line = lines[head]
                    if mem_line is not None:
                        stored = store_ready.get(mem_line)
                        if stored is not None and stored > ready:
                            ready = stored
                    issue = ready + latency
                    ow_append(issue)
                    if issue > ow_tail_t:
                        ow_tail_t = issue
                    dst = dst_col[head]
                    if dst is not None:
                        reg_ready[dst] = issue
                    if k == _STORE and mem_line is not None:
                        store_ready[mem_line] = issue
                        if len(store_ready) > trim_at:
                            ow._trim_store_table()
                    if len(ow_issue) > ow_cap:
                        removed = ow_pop()
                        if removed > ow_head_t:
                            ow_head_t = removed
                instr_count += 1
                head += 1
                tail = head + rob
                if tail > n:
                    tail = n
                dispatched += 1
                if head >= n:
                    self._store_kernel_state(
                        head, tail, fetch_limit, sim_time, instr_count,
                        ow_head_t, ow_tail_t,
                    )
                    self._finish(mct)

            # Figure 3 lines 67–68: if no miss event advanced the per-core
            # time, the core consumed exactly one cycle.
            if sim_time == mct:
                sim_time += 1
            if yield_at_cycle_end:
                break

        self._store_kernel_state(
            head, tail, fetch_limit, sim_time, instr_count, ow_head_t, ow_tail_t
        )
        if head >= n and not self.finished:
            self._finish()

    # -- kernel bookkeeping --------------------------------------------------------

    def _store_kernel_state(
        self,
        head: int,
        tail: int,
        fetch_limit: int,
        sim_time: int,
        instructions: int,
        ow_head_t: float,
        ow_tail_t: float,
    ) -> None:
        """Write the kernel's loop-local state back onto the core objects."""
        self._head = head
        self._tail = tail
        self._fetch_limit = fetch_limit
        self.sim_time = sim_time
        self.stats.instructions = instructions
        if self.use_old_window:
            self.old_window._head_time = ow_head_t
            self.old_window._tail_time = ow_tail_t
        cursor = self._cursor
        if cursor is not None and cursor.position < tail:
            cursor.advance_to(tail)

    def _finalize_stats(self) -> None:
        """Derive the CPI-stack base component at completion.

        The base is whatever is not attributed to a miss-event class: cycles
        spent dispatching at the effective rate.
        """
        attributed = (
            self.stats.icache_penalty_cycles
            + self.stats.branch_penalty_cycles
            + self.stats.long_load_penalty_cycles
            + self.stats.serializing_penalty_cycles
            + self.stats.sync_stall_cycles
        )
        self.stats.base_cycles = max(0, self.stats.cycles - attributed)

    # -- miss-event handling (Figure 3 lines 35–49) -----------------------------------

    def _scan_under_long_latency_load(
        self, head: int, tail: int, fetch_limit: int, now: int
    ) -> None:
        """Scan the window for miss events overlapped by a long-latency load.

        Implements Figure 3 lines 35–49 over the implicit window
        ``[head+1, tail)``.  Every instruction in the window is fetched
        (I-cache/I-TLB access) underneath the load; independent branches and
        loads are resolved underneath it as well and marked as overlapped so
        they incur no penalty when they reach the window head.  The scan
        stops at a hidden branch misprediction (subsequent window contents
        would be wrong-path) or at a serializing instruction.

        Positions below ``fetch_limit`` already performed their fetch through
        the kernel's batched probe, so the scan only credits them as
        overlapped fetches; beyond it, fetch-only segments are probed through
        the hierarchy's batched
        :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_block`.
        """
        batch = self._batch
        assert batch is not None
        klass = batch.klass
        pcs = batch.pc
        addrs = batch.mem_addr
        lines = batch.mem_line
        srcs_col = batch.src_regs
        dst_col = batch.dst_reg
        instrs = batch.instructions
        ovr = self._ovr
        stats = self.stats
        hierarchy = self.hierarchy
        core_id = self.core_id
        probe = hierarchy.instruction_probe
        warm_block = hierarchy.warm_block
        data_probe = hierarchy.data_probe
        predictor_access = self.predictor.access

        tainted_registers: Set[int] = set()
        tainted_lines: Set[int] = set()
        dst = dst_col[head]
        if dst is not None:
            tainted_registers.add(dst)

        position = head + 1
        while position < tail:
            k = klass[position]
            if k == _SYNC:
                break

            if k != _LOAD and k != _BRANCH and k != _SERIALIZING:
                # Segment of plain/store entries: their only hierarchy
                # traffic is the fetch, so handle the I-side segment-at-a-
                # time and then run the dependence bookkeeping.
                end = position + 1
                while end < tail:
                    ke = klass[end]
                    if ke == _LOAD or ke == _BRANCH or ke == _SERIALIZING or ke == _SYNC:
                        break
                    end += 1
                if end > fetch_limit:
                    # Entries past the verified-fetch run still need their
                    # access performed (misses complete in place; the latency
                    # hides under the load).
                    warm_from = position if position > fetch_limit else fetch_limit
                    warm_block(
                        core_id, pcs, warm_from, end, now, ovr, _F_IOVR
                    )
                while position < end:
                    fb = ovr[position]
                    if not fb & _F_IOVR:
                        ovr[position] = fb | _F_IOVR
                        stats.overlapped_icache_accesses += 1
                    dependent = False
                    for register in srcs_col[position]:
                        if register in tainted_registers:
                            dependent = True
                            break
                    if dependent:
                        dst = dst_col[position]
                        if dst is not None:
                            tainted_registers.add(dst)
                        if klass[position] == _STORE:
                            mem_line = lines[position]
                            if mem_line is not None:
                                tainted_lines.add(mem_line)
                    position += 1
                continue

            # Load / branch / serializing entry: per-entry handling.
            fb = ovr[position]
            if not fb & _F_IOVR:
                ovr[position] = fb = fb | _F_IOVR
                if position >= fetch_limit:
                    probe(core_id, pcs[position], now)
                stats.overlapped_icache_accesses += 1

            dependent = False
            for register in srcs_col[position]:
                if register in tainted_registers:
                    dependent = True
                    break
            if not dependent and k == _LOAD:
                mem_line = lines[position]
                if mem_line is not None and mem_line in tainted_lines:
                    dependent = True

            if k == _BRANCH:
                if not dependent and not fb & _F_BROVR:
                    ovr[position] = fb | _F_BROVR
                    stats.branch_lookups += 1
                    stats.overlapped_branches += 1
                    if not predictor_access(instrs[position]):
                        # A hidden misprediction: later window contents are
                        # wrong-path, stop scanning (line 40).
                        stats.branch_mispredictions += 1
                        break
            elif k == _LOAD:
                if not dependent and not fb & _F_DOVR:
                    ovr[position] = fb | _F_DOVR
                    stats.overlapped_loads += 1
                    result = data_probe(core_id, addrs[position], False, now)
                    stats.dcache_accesses += 1
                    if result is not None:
                        if result.l1_miss:
                            stats.l1d_misses += 1
                        if result.tlb_miss:
                            stats.dtlb_misses += 1
                        if result.long_latency:
                            # Memory-level parallelism: the independent
                            # long-latency load overlaps with the one at the
                            # head, so it incurs no additional penalty.
                            stats.long_latency_loads += 1
            else:  # serializing: stop after its fetch
                break

            if dependent:
                dst = dst_col[position]
                if dst is not None:
                    tainted_registers.add(dst)
            position += 1

//! The out-of-order SMT core model.
//!
//! Each simulated cycle a core runs four stages, mirroring the generic
//! execution engine of the paper's Fig. 3:
//!
//! 1. **wake/retire** — sleeping hardware threads whose wake cycle arrived
//!    become runnable; expired load-miss-queue entries free their slots.
//! 2. **issue** — each issue queue is scanned oldest-first (bounded by the
//!    architecture's scan depth); ready instructions (register dependency
//!    resolved, port free, LMQ slot available for missing loads) issue, one
//!    per port per cycle. Loads walk the cache hierarchy here.
//! 3. **dispatch** — up to `dispatch_width` instructions move from the
//!    per-thread fetch buffers into the issue queues, round-robin across
//!    threads, in program order per thread. A thread is blocked when its
//!    target queues are full, when its per-thread queue share is exhausted
//!    (SMT partitioning), or when its in-flight window (ROB analogue) is
//!    full. The *core-level dispatch-held* counter — the metric's DispHeld
//!    input — increments only on cycles where work was available, nothing
//!    dispatched, and a *shared* queue was at capacity.
//! 4. **fetch** — one thread per cycle (round-robin) fetches up to
//!    `fetch_width` instructions from the workload, unless it is blocked by
//!    a mispredicted-branch bubble or its buffer partition is full.
//!
//! Register dependencies use a per-thread completion ring indexed by
//! dispatch sequence number. The ring holds `RING` entries while the
//! in-flight window is capped at `RING - 64` and dependency distances at
//! `DEP_WINDOW - 1 = 63`, which together guarantee a slot is never
//! overwritten while a potential consumer could still read it.
//!
//! The issue stage has two interchangeable engines (see [`IssueEngine`]):
//! the original per-entry `VecDeque` walk, and the default struct-of-arrays
//! bitset engine from [`crate::soa`], whose ready scan is word-parallel
//! mask arithmetic. Both share the same slow path ([`Core::try_issue`]) and
//! inspect candidates in the same age order, so they are bit-identical —
//! the property the differential suite proves per configuration.

use crate::arch::{ArchDescriptor, Partitioning};
use crate::branch::BranchPredictor;
use crate::cache::MemorySystem;
use crate::counters::{CoreCounters, ThreadCounters};
use crate::isa::{Fetched, Instr, InstrClass, NUM_CLASSES};
use crate::profile::{self, PhaseProfile};
use crate::soa::{self, IssueEngine, SoaQueue};
use crate::workload::Workload;
use std::collections::VecDeque;

/// Maximum SMT ways any modeled core supports.
pub const MAX_WAYS: usize = 4;

/// Completion-ring size. Ring-aliasing safety requires the per-thread
/// in-flight window (`rob_window`) to stay at most `RING - DEP_WINDOW`.
const RING: usize = 256;

/// Words in the unissued-sequence bitmap covering the completion ring.
const RING_WORDS: usize = RING / 64;

/// Pending marker in the completion ring.
const PENDING: u64 = u64::MAX;

/// An instruction whose producer completes more than this many cycles in
/// the future is *parked* out of its issue queue until the data returns —
/// the analogue of POWER7's load-miss reject/re-issue mechanism. Without
/// parking, dependents of cache misses would fill the issue queues and
/// masquerade as the execution-resource congestion the DispHeld counter is
/// meant to capture.
const PARK_THRESHOLD: u64 = 16;

/// How a step should treat fetch and sleeping threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Normal execution.
    Normal,
    /// Draining before reconfiguration: no new fetch, and sleeping threads
    /// may still dispatch their buffered instructions so the pipeline can
    /// empty.
    Drain,
}

/// Scheduling state of one hardware context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxState {
    /// Bound to a runnable software thread.
    Running,
    /// Software thread blocked until the given cycle.
    Sleeping(u64),
    /// Software thread finished and pipeline drained.
    Finished,
}

/// One registered producer wakeup: when the producer issues, clear the
/// blocked bit of `slot` in queue `qi` — provided the queue's generation
/// still equals `gen` (slots move on compaction/unpark, invalidating the
/// registration; the queue clears its blocked bits at the same time, so a
/// stale registration never strands a sleeper).
#[derive(Debug, Clone, Copy, Default)]
struct Waiter {
    qi: u8,
    slot: u16,
    gen: u16,
}

/// Consumers asleep on one completion-ring slot. Bounded: a producer
/// rarely has more than a couple of in-queue dependents, and on overflow
/// the consumer simply stays unblocked and rescans every cycle (the
/// legacy behavior), so the bound costs correctness nothing.
#[derive(Debug, Clone, Copy, Default)]
struct WaiterCell {
    n: u8,
    w: [Waiter; 2],
}

/// One hardware thread context.
#[derive(Debug, Clone)]
struct HwContext {
    /// Software thread bound to this context.
    sw_id: usize,
    state: CtxState,
    /// The workload reported `Finished` for this thread.
    fetch_done: bool,
    /// Fetched, not-yet-dispatched instructions (program order).
    ibuf: VecDeque<Instr>,
    ibuf_cap: usize,
    /// Sequence number of the next instruction to dispatch.
    dispatch_seq: u64,
    /// Completion cycles by `seq % RING`; `PENDING` while in flight.
    comp: Box<[u64; RING]>,
    /// Dispatched-but-not-issued sequence numbers as a bitmap over
    /// `seq % RING`. The in-flight window (< `RING`) guarantees each set
    /// bit maps to exactly one live sequence, so membership updates are
    /// O(1) where the previous sorted-`VecDeque` representation paid a
    /// binary search plus a memmove per issued instruction.
    unissued_bits: [u64; RING_WORDS],
    /// Set bits in `unissued_bits`.
    unissued_count: usize,
    /// Smallest live unissued sequence (meaningful when `unissued_count`
    /// is nonzero). Kept exact: insertions are monotonically increasing,
    /// and a removal only rescans when it removes the oldest itself.
    unissued_oldest: u64,
    /// In-flight window cap (ROB share).
    rob_cap: u64,
    /// Fetch suppressed until this cycle (branch-mispredict bubble).
    fetch_blocked_until: u64,
    /// Instructions parked out of their issue queue awaiting a long-latency
    /// producer: `(wake_cycle, origin_queue, entry)`.
    parked: Vec<(u64, usize, QEntry)>,
    /// Producer-indexed wakeup table, keyed by the producer's
    /// completion-ring slot (`seq % RING`): consumers whose producer had
    /// not issued when they were scanned sleep here instead of re-polling
    /// the ring every cycle. Drained by the producer's issue commit. Only
    /// the SoA engine registers entries; ring-slot collisions (a later
    /// `seq` sharing the slot) at worst wake a sleeper early, which is
    /// harmless — it rescans and re-registers.
    waiters: Box<[WaiterCell; RING]>,
    /// Last instruction-cache line probed (64-byte granularity), so
    /// straight-line code costs one probe per line, not per instruction.
    last_fetch_line: u64,
}

impl HwContext {
    fn new(sw_id: usize, ibuf_cap: usize, rob_cap: usize) -> HwContext {
        HwContext {
            sw_id,
            state: CtxState::Running,
            fetch_done: false,
            ibuf: VecDeque::with_capacity(ibuf_cap),
            ibuf_cap,
            dispatch_seq: 0,
            comp: Box::new([0; RING]),
            unissued_bits: [0; RING_WORDS],
            unissued_count: 0,
            unissued_oldest: 0,
            rob_cap: rob_cap as u64,
            fetch_blocked_until: 0,
            parked: Vec::new(),
            waiters: Box::new([WaiterCell::default(); RING]),
            last_fetch_line: u64::MAX,
        }
    }

    /// Is the register dependency of an instruction with sequence `seq` and
    /// distance `dep` satisfied at `now`?
    #[inline]
    fn dep_ready(&self, seq: u64, dep: u8, now: u64) -> bool {
        if dep == 0 {
            return true;
        }
        let dep = u64::from(dep);
        if seq < dep {
            return true; // depends on a pre-program instruction: ready
        }
        let c = self.comp[((seq - dep) as usize) % RING];
        c != PENDING && c <= now
    }

    /// Record a freshly dispatched (so unissued) sequence number.
    /// Sequences arrive in increasing order, so the oldest never moves on
    /// insert.
    #[inline]
    fn unissued_insert(&mut self, seq: u64) {
        let p = (seq as usize) % RING;
        self.unissued_bits[p >> 6] |= 1 << (p & 63);
        if self.unissued_count == 0 {
            self.unissued_oldest = seq;
        }
        self.unissued_count += 1;
    }

    /// Remove an issued sequence number from the unissued set.
    #[inline]
    fn unissued_remove(&mut self, seq: u64) {
        let p = (seq as usize) % RING;
        debug_assert!(self.unissued_bits[p >> 6] & (1 << (p & 63)) != 0);
        self.unissued_bits[p >> 6] &= !(1 << (p & 63));
        self.unissued_count -= 1;
        if self.unissued_count > 0 && seq == self.unissued_oldest {
            self.unissued_oldest = self.next_unissued_after(seq);
        }
    }

    /// Smallest member of the unissued set strictly greater than `seq`.
    /// All live sequences lie in `(seq, seq + RING)` (window bound), so one
    /// pass over the ring starting at `seq + 1` identifies each set bit's
    /// owner uniquely. Only called when the set is nonempty.
    fn next_unissued_after(&self, seq: u64) -> u64 {
        debug_assert!(self.unissued_count > 0);
        let mut s = seq + 1;
        loop {
            let b = (s as usize) % 64;
            let w = ((s as usize) % RING) >> 6;
            let word = self.unissued_bits[w] & (!0u64 << b);
            if word != 0 {
                return s - b as u64 + u64::from(word.trailing_zeros());
            }
            s = s - b as u64 + 64;
        }
    }

    /// The in-flight window is full: dispatching one more would let the
    /// completion ring alias.
    #[inline]
    fn rob_full(&self) -> bool {
        self.unissued_count != 0 && self.dispatch_seq - self.unissued_oldest >= self.rob_cap
    }

    /// Everything fetched has left the pipeline front end.
    fn drained(&self) -> bool {
        self.ibuf.is_empty() && self.unissued_count == 0 && self.parked.is_empty()
    }
}

/// One entry waiting in an issue queue.
#[derive(Debug, Clone, Copy)]
struct QEntry {
    hw: u8,
    seq: u64,
    /// Memoized earliest cycle the register dependency can be satisfied.
    /// Once a producer has issued, its completion cycle never changes
    /// ([`HwContext::rob_full`] prevents ring aliasing while the consumer
    /// is in flight), so the scan can skip the ring lookup until then.
    /// `0` means not yet known — re-derive from the completion ring.
    ready_at: u64,
    instr: Instr,
}

/// `QEntry::hw` sentinel marking a tombstoned (logically removed) entry.
/// Issue removes entries from the *middle* of a queue; physically shifting
/// the tail on every issue dominated the scan cost, so removal just marks
/// the slot dead. Dead slots are invisible to every consumer and are
/// reclaimed from the queue front (where issued-oldest-first makes them
/// cluster) at the start of each scan.
const TOMBSTONE: u8 = u8::MAX;

/// An issue queue feeding one or more ports (legacy entry layout).
#[derive(Debug, Clone)]
struct IssueQueue {
    entries: VecDeque<QEntry>,
    capacity: usize,
    /// Occupancy by hardware thread (SMT partitioning).
    per_thread: [u16; MAX_WAYS],
    per_thread_cap: usize,
    /// The whole queue is provably idle until this cycle: the last scan
    /// found *every* entry waiting on a producer with a known completion,
    /// and the earliest of those completions is this value. Any mutation
    /// of the queue (dispatch, unpark) resets it to `0` (= must scan).
    quiet_until: u64,
    /// Tombstoned entries still physically present in `entries`.
    dead: usize,
}

impl IssueQueue {
    /// Live (non-tombstoned) occupancy.
    fn live_len(&self) -> usize {
        self.entries.len() - self.dead
    }

    fn full(&self) -> bool {
        self.live_len() >= self.capacity
    }

    fn thread_share_full(&self, hw: usize) -> bool {
        usize::from(self.per_thread[hw]) >= self.per_thread_cap
    }
}

/// The issue-queue storage for one core: one variant per [`IssueEngine`].
/// Everything outside the issue scan goes through these accessors, so the
/// rest of the pipeline is engine-agnostic.
#[derive(Debug, Clone)]
enum QueueBank {
    /// `VecDeque<QEntry>` per queue (the reference engine).
    Legacy(Vec<IssueQueue>),
    /// Struct-of-arrays bitset queues (the default engine).
    Soa(Vec<SoaQueue>),
}

impl QueueBank {
    fn live_len(&self, qi: usize) -> usize {
        match self {
            QueueBank::Legacy(qs) => qs[qi].live_len(),
            QueueBank::Soa(qs) => qs[qi].live_len(),
        }
    }

    fn full(&self, qi: usize) -> bool {
        match self {
            QueueBank::Legacy(qs) => qs[qi].full(),
            QueueBank::Soa(qs) => qs[qi].full(),
        }
    }

    fn thread_share_full(&self, qi: usize, hw: usize) -> bool {
        match self {
            QueueBank::Legacy(qs) => qs[qi].thread_share_full(hw),
            QueueBank::Soa(qs) => qs[qi].thread_share_full(hw),
        }
    }

    /// Append a freshly dispatched entry (readiness unknown).
    fn push_back(&mut self, qi: usize, hw: u8, seq: u64, instr: Instr) {
        match self {
            QueueBank::Legacy(qs) => {
                let q = &mut qs[qi];
                q.entries.push_back(QEntry {
                    hw,
                    seq,
                    ready_at: 0,
                    instr,
                });
                q.per_thread[hw as usize] += 1;
                q.quiet_until = 0;
            }
            QueueBank::Soa(qs) => qs[qi].push_back(hw, seq, 0, instr),
        }
    }

    /// Re-insert an unparked entry at the queue front (it is older than
    /// anything dispatched since it left).
    fn push_front(&mut self, qi: usize, e: QEntry) {
        match self {
            QueueBank::Legacy(qs) => {
                let q = &mut qs[qi];
                q.entries.push_front(e);
                q.per_thread[e.hw as usize] += 1;
                q.quiet_until = 0;
            }
            QueueBank::Soa(qs) => qs[qi].push_front(e.hw, e.seq, e.ready_at, e.instr),
        }
    }

    fn set_per_thread_cap(&mut self, qi: usize, cap: usize) {
        match self {
            QueueBank::Legacy(qs) => qs[qi].per_thread_cap = cap,
            QueueBank::Soa(qs) => qs[qi].per_thread_cap = cap,
        }
    }
}

/// Outcome of [`Core::try_issue`] for one candidate entry.
enum TryIssue {
    /// No compatible free port this cycle; the entry stays queued and
    /// untouched.
    NoPort,
    /// A missing load/store was turned away by a full load-miss queue;
    /// the entry stays queued. Rejection counters were charged.
    LmqReject,
    /// Issued and committed: completion recorded, counters charged. The
    /// caller removes the entry from its queue.
    Issued,
}

/// A simulated SMT core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Global core id (indexes the memory system).
    pub id: usize,
    ways: usize,
    ctxs: Vec<HwContext>,
    bank: QueueBank,
    /// Completion cycles of outstanding load misses (shared LMQ / MSHRs).
    lmq: Vec<u64>,
    lmq_capacity: usize,
    /// Earliest completion among outstanding LMQ entries (`u64::MAX` when
    /// none): lets wake/retire skip the per-cycle sweep while no slot can
    /// free.
    lmq_min: u64,
    fetch_rr: usize,
    disp_rr: usize,
    /// Candidate queues per instruction class.
    class_queues: [Vec<usize>; NUM_CLASSES],
    /// Port-acceptance bitmasks per instruction class (bit `p` set when
    /// port `p` can issue the class), precomputed from the descriptor so
    /// the issue scan does not walk `PortDesc::accepts` vectors.
    class_port_mask: [u32; NUM_CLASSES],
    /// Ports fed by each queue.
    ports_by_queue: Vec<Vec<usize>>,
    /// Bitmask of the ports fed by each queue.
    queue_port_mask: Vec<u32>,
    /// Scratch: port busy bitmask for the current cycle.
    port_used: u32,
    /// Scratch: bit `qi` set when queue `qi` had a load rejected for want
    /// of an LMQ slot this cycle.
    queue_lmq_reject: u32,
    /// LMQ rejections made by the last step's issue stage. With
    /// `held_mask`, the per-cycle event delta [`Core::charge_idle`]
    /// replays across a stall window.
    step_rejections: u32,
    /// Bit `t` set when hardware thread `t` was dispatch-held on the last
    /// step.
    held_mask: u8,
    /// Runnable-thread count the dynamic-partitioning caps were last
    /// computed for (0 = never).
    caps_for_active: usize,
    /// Optional per-core gshare predictor (shared by the hardware threads).
    bpred: Option<BranchPredictor>,
    /// Timing a profiled step: `try_issue` attributes cache-walk ticks.
    profiling: bool,
    /// Cache-walk ticks accumulated during the current profiled issue
    /// phase.
    prof_mem_ticks: u64,
    /// Wakeups drained by `try_issue` from the issuing producer's waiter
    /// cell, handed back to the SoA scan (which owns the queue storage) to
    /// clear the blocked bits. Empty between issue commits.
    woken: Vec<Waiter>,
    /// Core-level counters.
    pub counters: CoreCounters,
}

impl Core {
    /// Build a core at SMT level `ways` with the default engine, binding
    /// hardware context `k` to software thread `sw_ids[k]`.
    pub fn new(arch: &ArchDescriptor, id: usize, sw_ids: &[usize]) -> Core {
        Core::with_engine(arch, id, sw_ids, IssueEngine::default())
    }

    /// Build a core with an explicit issue engine.
    pub fn with_engine(
        arch: &ArchDescriptor,
        id: usize,
        sw_ids: &[usize],
        engine: IssueEngine,
    ) -> Core {
        let ways = sw_ids.len();
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "1..=4 hardware threads per core"
        );
        assert!(
            ways <= arch.max_smt.ways(),
            "core does not support {ways}-way SMT"
        );
        assert!(
            arch.queues.len() <= 32,
            "queue bitmasks require at most 32 issue queues"
        );
        let ibuf_cap = arch.per_thread_cap(arch.ibuf_capacity, ways);
        let rob_cap = arch.per_thread_cap(arch.rob_window, ways);
        let ctxs = sw_ids
            .iter()
            .map(|&sw| HwContext::new(sw, ibuf_cap, rob_cap))
            .collect();
        let bank = match engine {
            IssueEngine::Legacy => QueueBank::Legacy(
                arch.queues
                    .iter()
                    .map(|q| IssueQueue {
                        entries: VecDeque::with_capacity(q.capacity),
                        quiet_until: 0,
                        dead: 0,
                        capacity: q.capacity,
                        per_thread: [0; MAX_WAYS],
                        per_thread_cap: arch.per_thread_cap(q.capacity, ways),
                    })
                    .collect(),
            ),
            IssueEngine::Soa => QueueBank::Soa(
                arch.queues
                    .iter()
                    .map(|q| SoaQueue::new(q.capacity, arch.per_thread_cap(q.capacity, ways)))
                    .collect(),
            ),
        };
        let mut class_queues: [Vec<usize>; NUM_CLASSES] = Default::default();
        for class in InstrClass::ALL {
            let mut qs: Vec<usize> = arch
                .ports
                .iter()
                .filter(|p| p.accepts(class))
                .map(|p| p.queue)
                .collect();
            qs.sort_unstable();
            qs.dedup();
            class_queues[class.index()] = qs;
        }
        let mut ports_by_queue = vec![Vec::new(); arch.queues.len()];
        for (pi, p) in arch.ports.iter().enumerate() {
            ports_by_queue[p.queue].push(pi);
        }
        Core {
            id,
            ways,
            ctxs,
            bank,
            lmq: Vec::with_capacity(arch.lmq_capacity),
            lmq_capacity: arch.lmq_capacity,
            lmq_min: u64::MAX,
            fetch_rr: 0,
            disp_rr: 0,
            class_queues,
            class_port_mask: arch.class_port_masks(),
            queue_port_mask: ports_by_queue
                .iter()
                .map(|ps| ps.iter().fold(0u32, |m, &p| m | (1 << p)))
                .collect(),
            ports_by_queue,
            port_used: 0,
            queue_lmq_reject: 0,
            step_rejections: 0,
            held_mask: 0,
            caps_for_active: 0,
            bpred: arch.branch_predictor.map(BranchPredictor::new),
            profiling: false,
            prof_mem_ticks: 0,
            woken: Vec::new(),
            counters: CoreCounters::default(),
        }
    }

    /// The issue engine this core was built with.
    pub fn engine(&self) -> IssueEngine {
        match self.bank {
            QueueBank::Legacy(_) => IssueEngine::Legacy,
            QueueBank::Soa(_) => IssueEngine::Soa,
        }
    }

    /// Under [`Partitioning::Dynamic`], per-thread shares track the number
    /// of currently runnable hardware threads: a core whose siblings are
    /// asleep hands the whole machine to the remaining thread, as POWER7's
    /// dynamic SMT modes do. No-op for other policies or when the runnable
    /// count has not changed.
    fn refresh_dynamic_caps(&mut self, arch: &ArchDescriptor) {
        if arch.partitioning != Partitioning::Dynamic {
            return;
        }
        let active = self
            .ctxs
            .iter()
            .filter(|c| c.state == CtxState::Running)
            .count()
            .max(1);
        if active == self.caps_for_active {
            return;
        }
        self.caps_for_active = active;
        let ibuf_cap = arch.per_thread_cap(arch.ibuf_capacity, active);
        let rob_cap = arch.per_thread_cap(arch.rob_window, active);
        for ctx in &mut self.ctxs {
            ctx.ibuf_cap = ibuf_cap;
            ctx.rob_cap = rob_cap as u64;
        }
        for (qi, desc) in arch.queues.iter().enumerate() {
            self.bank
                .set_per_thread_cap(qi, arch.per_thread_cap(desc.capacity, active));
        }
    }

    /// Number of hardware threads.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The pipeline holds no in-flight instructions.
    pub fn drained(&self) -> bool {
        self.ctxs.iter().all(|c| c.drained())
            && (0..self.ports_by_queue.len()).all(|qi| self.bank.live_len(qi) == 0)
    }

    /// All bound software threads have finished and drained.
    pub fn finished(&self) -> bool {
        self.ctxs.iter().all(|c| c.fetch_done && c.drained())
    }

    /// Total occupancy of queue `qi` (diagnostics/tests).
    pub fn queue_len(&self, qi: usize) -> usize {
        self.bank.live_len(qi)
    }

    /// Check internal bookkeeping invariants; called every cycle in debug
    /// builds and available to tests in release builds. Panics with a
    /// description on violation.
    pub fn check_invariants(&self) {
        // Unparked entries re-enter their origin queue ahead of dispatch
        // and may transiently push it past nominal capacity (dispatch still
        // respects the cap, so the overflow drains); the hard bound is
        // capacity plus everything that could have been parked.
        let max_parked: usize = self.ctxs.iter().map(|c| c.rob_cap as usize).sum();
        let mut queued_by_hw = [0usize; MAX_WAYS];
        match &self.bank {
            QueueBank::Legacy(qs) => {
                for (qi, q) in qs.iter().enumerate() {
                    assert!(
                        q.live_len() <= q.capacity + max_parked,
                        "queue {qi} over hard bound: {} > {} + {max_parked}",
                        q.live_len(),
                        q.capacity
                    );
                    assert_eq!(
                        q.dead,
                        q.entries.iter().filter(|e| e.hw == TOMBSTONE).count(),
                        "queue {qi} dead-count out of sync"
                    );
                    let mut per_thread = [0usize; MAX_WAYS];
                    for e in &q.entries {
                        if e.hw != TOMBSTONE {
                            per_thread[e.hw as usize] += 1;
                            queued_by_hw[e.hw as usize] += 1;
                        }
                    }
                    for (t, &count) in per_thread.iter().enumerate().take(self.ways) {
                        assert_eq!(
                            count,
                            usize::from(q.per_thread[t]),
                            "queue {qi} per-thread occupancy out of sync for hw {t}"
                        );
                    }
                }
            }
            QueueBank::Soa(qs) => {
                for (qi, q) in qs.iter().enumerate() {
                    assert!(
                        q.live_len() <= q.capacity + max_parked,
                        "queue {qi} over hard bound: {} > {} + {max_parked}",
                        q.live_len(),
                        q.capacity
                    );
                    let mut per_thread = [0usize; MAX_WAYS];
                    let mut live = 0usize;
                    q.for_each_live(|s| {
                        let hw = q.hw[s] as usize;
                        per_thread[hw] += 1;
                        queued_by_hw[hw] += 1;
                        live += 1;
                        let unk = (q.unknown[s >> 6] >> (s & 63)) & 1;
                        assert_eq!(
                            unk == 1,
                            q.ready_at[s] == 0,
                            "queue {qi} slot {s}: unknown bit out of sync with ready_at"
                        );
                        true
                    });
                    assert_eq!(live, q.live_len(), "queue {qi} live-count out of sync");
                    for (t, &count) in per_thread.iter().enumerate().take(self.ways) {
                        assert_eq!(
                            count,
                            usize::from(q.per_thread[t]),
                            "queue {qi} per-thread occupancy out of sync for hw {t}"
                        );
                    }
                }
            }
        }
        for (t, ctx) in self.ctxs.iter().enumerate() {
            // Every unissued seq is accounted for in exactly one place:
            // some issue queue or the parked list.
            assert_eq!(
                queued_by_hw[t] + ctx.parked.len(),
                ctx.unissued_count,
                "hw {t}: queued {} + parked {} != unissued {}",
                queued_by_hw[t],
                ctx.parked.len(),
                ctx.unissued_count
            );
            assert_eq!(
                ctx.unissued_count,
                ctx.unissued_bits
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>(),
                "hw {t}: unissued bitmap popcount out of sync"
            );
            // The in-flight window respects the completion-ring bound.
            if ctx.unissued_count > 0 {
                let oldest = ctx.unissued_oldest;
                let p = (oldest as usize) % RING;
                assert!(
                    ctx.unissued_bits[p >> 6] & (1 << (p & 63)) != 0,
                    "hw {t}: unissued_oldest {oldest} not in the bitmap"
                );
                assert!(
                    ctx.dispatch_seq - oldest <= (RING - crate::isa::DEP_WINDOW) as u64,
                    "hw {t}: in-flight window {} breaks ring safety",
                    ctx.dispatch_seq - oldest
                );
            }
            assert!(
                ctx.ibuf.len() <= ctx.ibuf_cap.max(1),
                "hw {t}: ibuf over cap"
            );
        }
        assert!(
            self.lmq.len() <= self.lmq_capacity,
            "LMQ over capacity: {} > {}",
            self.lmq.len(),
            self.lmq_capacity
        );
        assert_eq!(
            self.lmq_min,
            self.lmq.iter().copied().min().unwrap_or(u64::MAX),
            "lmq_min out of sync"
        );
    }

    /// Advance one cycle.
    ///
    /// Returns an *activity count*: the number of state-changing events
    /// this cycle (wakes, unparks, retires, issues, parks, LMQ rejections,
    /// dispatches, fetch results). A return of zero means the cycle was
    /// pure bookkeeping — nothing architectural moved. A return equal to
    /// [`Core::step_rejections`] marks a stall step: nothing moved but
    /// rejected loads and stores. Either is the precondition
    /// [`Simulation`](crate::machine::Simulation) uses before asking
    /// [`Core::quiet_until`] how far it can fast-forward.
    pub fn step<W: Workload + ?Sized>(
        &mut self,
        arch: &ArchDescriptor,
        now: u64,
        mode: StepMode,
        workload: &mut W,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
    ) -> u32 {
        let mut activity = self.wake_and_retire(now);
        self.refresh_dynamic_caps(arch);
        activity += self.issue(arch, now, mem, sw);
        activity += self.dispatch(arch, now, mode, sw);
        if mode == StepMode::Normal {
            activity += self.fetch(arch, now, workload, mem, sw);
        }
        self.account(now, sw);
        #[cfg(debug_assertions)]
        self.check_invariants();
        activity
    }

    /// [`Core::step`] with per-phase tick attribution into `prof`. Runs
    /// the exact same phases (architectural state and counters advance
    /// identically); the only addition is timestamping, plus cache-walk
    /// ticks being split out of the issue phase via
    /// [`Core::try_issue`]'s profiling hook.
    #[allow(clippy::too_many_arguments)]
    pub fn step_profiled<W: Workload + ?Sized>(
        &mut self,
        arch: &ArchDescriptor,
        now: u64,
        mode: StepMode,
        workload: &mut W,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
        prof: &mut PhaseProfile,
    ) -> u32 {
        self.profiling = true;
        self.prof_mem_ticks = 0;
        let t0 = profile::ticks();
        let mut activity = self.wake_and_retire(now);
        self.refresh_dynamic_caps(arch);
        let t1 = profile::ticks();
        activity += self.issue(arch, now, mem, sw);
        let t2 = profile::ticks();
        activity += self.dispatch(arch, now, mode, sw);
        let t3 = profile::ticks();
        if mode == StepMode::Normal {
            activity += self.fetch(arch, now, workload, mem, sw);
        }
        let t4 = profile::ticks();
        self.account(now, sw);
        #[cfg(debug_assertions)]
        self.check_invariants();
        let t5 = profile::ticks();
        self.profiling = false;
        prof.retire += t1 - t0;
        prof.issue += (t2 - t1).saturating_sub(self.prof_mem_ticks);
        prof.mem += self.prof_mem_ticks;
        prof.dispatch += t3 - t2;
        prof.fetch += t4 - t3;
        prof.bookkeeping += t5 - t4;
        prof.steps += 1;
        activity
    }

    /// Whether queue `qi` is congested from the point of view of an
    /// instruction of `class`: every port of the queue that could issue the
    /// class was busy this cycle, or (for loads) the queue had a load
    /// rejected because the load-miss queue was full.
    fn queue_congested_for(&self, qi: usize, class: InstrClass) -> bool {
        if class.is_mem() && self.queue_lmq_reject & (1 << qi) != 0 {
            return true;
        }
        let accepts = self.class_port_mask[class.index()] & self.queue_port_mask[qi];
        accepts != 0 && accepts & !self.port_used == 0
    }

    fn wake_and_retire(&mut self, now: u64) -> u32 {
        let mut activity = 0;
        // The LMQ sweep only matters on cycles where a slot can actually
        // free; `lmq_min` makes the no-op case one compare.
        if self.lmq_min <= now {
            self.lmq.retain(|&t| t > now);
            self.lmq_min = self.lmq.iter().copied().min().unwrap_or(u64::MAX);
        }
        for hw in 0..self.ctxs.len() {
            // Re-insert parked instructions whose producer data arrived.
            // They rejoin at the front of their origin queue (they are
            // older than anything dispatched since) and may transiently
            // overflow its capacity; dispatch respects capacity so the
            // overflow drains immediately.
            let ctx = &mut self.ctxs[hw];
            let mut i = 0;
            while i < ctx.parked.len() {
                if ctx.parked[i].0 <= now {
                    let (_, qi, e) = ctx.parked.swap_remove(i);
                    self.bank.push_front(qi, e);
                    activity += 1;
                } else {
                    i += 1;
                }
            }
            let ctx = &mut self.ctxs[hw];
            match ctx.state {
                CtxState::Sleeping(until) if now >= until => {
                    ctx.state = CtxState::Running;
                    activity += 1;
                }
                CtxState::Running if ctx.fetch_done && ctx.drained() => {
                    ctx.state = CtxState::Finished;
                    activity += 1;
                }
                _ => {}
            }
        }
        activity
    }

    /// The issue stage: detach the queue bank (so the engines can borrow
    /// the queues and `self` disjointly) and run the engine it encodes.
    fn issue(
        &mut self,
        arch: &ArchDescriptor,
        now: u64,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
    ) -> u32 {
        self.port_used = 0;
        self.queue_lmq_reject = 0;
        let rejections_before = self.counters.lmq_rejections;
        // An empty `Vec` allocates nothing, so the swap is two pointer-size
        // stores each way.
        let mut bank = std::mem::replace(&mut self.bank, QueueBank::Legacy(Vec::new()));
        let activity = match &mut bank {
            QueueBank::Legacy(qs) => self.issue_legacy(qs, arch, now, mem, sw),
            QueueBank::Soa(qs) => self.issue_soa(qs, arch, now, mem, sw),
        };
        self.bank = bank;
        self.step_rejections = (self.counters.lmq_rejections - rejections_before) as u32;
        activity
    }

    /// The reference per-entry scan over `VecDeque<QEntry>` queues.
    fn issue_legacy(
        &mut self,
        qs: &mut [IssueQueue],
        arch: &ArchDescriptor,
        now: u64,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
    ) -> u32 {
        let mut activity = 0;
        // Indexing (not `iter_mut`) because the body re-borrows `qs[qi]` in
        // short scopes around `try_issue`, which needs `self` mutably.
        #[allow(clippy::needless_range_loop)]
        for qi in 0..qs.len() {
            // Scan-skip: the previous scan proved every entry is waiting on
            // a producer whose (immutable) completion lies in the future,
            // and nothing was added to the queue since. A scan now would
            // inspect each entry, change nothing, and issue nothing —
            // identical to not scanning at all.
            if qs[qi].quiet_until > now {
                continue;
            }
            {
                let q = &mut qs[qi];
                while q.entries.front().is_some_and(|e| e.hw == TOMBSTONE) {
                    q.entries.pop_front();
                    q.dead -= 1;
                }
                // Parking punches holes mid-queue that front-draining can't
                // reach; compact before they make the physical walk longer
                // than the live one.
                if q.dead >= soa::COMPACT_DEAD {
                    q.entries.retain(|e| e.hw != TOMBSTONE);
                    q.dead = 0;
                }
            }
            let mut scanned = 0usize;
            let mut i = 0usize;
            // A scan is "pure waiting" when every inspected entry was
            // provably un-ready with a *known* producer completion and the
            // scan covered the whole queue; only then may the next scans be
            // skipped, until the earliest of those completions.
            let mut all_waiting = true;
            let mut next_ready = u64::MAX;
            while i < qs[qi].entries.len() && scanned < arch.issue_scan_depth {
                // Stop early if every port on this queue is taken.
                if self.port_used & self.queue_port_mask[qi] == self.queue_port_mask[qi] {
                    all_waiting = false;
                    break;
                }
                // Read only the scalars the waiting paths need — a full
                // `QEntry` copy per inspection is measurable traffic at
                // tens of inspections per core-cycle.
                let ent = &qs[qi].entries[i];
                let hw8 = ent.hw;
                if hw8 == TOMBSTONE {
                    i += 1;
                    continue;
                }
                scanned += 1;
                let ready_at = ent.ready_at;
                if ready_at > now {
                    // Still waiting on its memoized producer completion.
                    next_ready = next_ready.min(ready_at);
                    i += 1;
                    continue;
                }
                let seq = ent.seq;
                let dep_dist = ent.instr.dep_dist;
                let ctx = &self.ctxs[hw8 as usize];
                // `ready_at` in 1..=now means readiness was already proven
                // on an earlier scan (completions are immutable and
                // readiness is monotone in `now`), so the dependence check
                // can be skipped for ready-but-portless entries that get
                // re-inspected every cycle.
                let known_ready = ready_at != 0;
                if !known_ready && !ctx.dep_ready(seq, dep_dist, now) {
                    // Waiting on a long-latency producer (a cache miss)?
                    // Park it out of the queue until the data returns, as
                    // POWER7's reject mechanism does, so miss dependents do
                    // not impersonate execution-resource congestion.
                    if dep_dist > 0 && seq >= u64::from(dep_dist) {
                        let c = ctx.comp[((seq - u64::from(dep_dist)) as usize) % RING];
                        if c != PENDING {
                            if c > now + PARK_THRESHOLD {
                                let hw = hw8 as usize;
                                let q = &mut qs[qi];
                                let e = q.entries[i];
                                q.entries[i].hw = TOMBSTONE;
                                q.dead += 1;
                                q.per_thread[hw] -= 1;
                                self.ctxs[hw].parked.push((c, qi, e));
                                activity += 1;
                                all_waiting = false;
                                i += 1;
                                continue;
                            }
                            // Completion known and near: memoize it.
                            qs[qi].entries[i].ready_at = c;
                            next_ready = next_ready.min(c);
                            i += 1;
                            continue;
                        }
                    }
                    // Producer not yet issued: readiness unknowable ahead
                    // of time, so this queue must be rescanned every cycle.
                    all_waiting = false;
                    i += 1;
                    continue;
                }
                all_waiting = false;
                if !known_ready {
                    // Memoize proven readiness (`now.max(1)` keeps the
                    // marker out of the 0 = unknown encoding at cycle 0).
                    qs[qi].entries[i].ready_at = now.max(1);
                }
                let e = qs[qi].entries[i];
                match self.try_issue(arch, qi, e.hw as usize, e.seq, e.instr, now, mem, sw) {
                    TryIssue::Issued => {
                        let q = &mut qs[qi];
                        q.entries[i].hw = TOMBSTONE;
                        q.dead += 1;
                        q.per_thread[e.hw as usize] -= 1;
                        activity += 1;
                    }
                    TryIssue::LmqReject => activity += 1,
                    TryIssue::NoPort => {}
                }
                i += 1;
            }
            // Pure-waiting scan that covered the whole queue: nothing can
            // issue, park, or reject before the earliest memoized producer
            // completion, so skip scanning until then. (An empty queue is
            // quiet forever; dispatch/unpark insertions reset the mark.)
            let q = &mut qs[qi];
            if all_waiting && i >= q.entries.len() {
                debug_assert!(next_ready > now);
                q.quiet_until = next_ready;
            }
        }
        activity
    }

    /// The struct-of-arrays scan: classify each 64-slot word with mask
    /// arithmetic ([`soa::wait_mask`]) and run the shared slow path only on
    /// the candidate bits, in age order — the same inspection order and
    /// transitions as [`Core::issue_legacy`], proven bit-identical by the
    /// differential suite.
    fn issue_soa(
        &mut self,
        qs: &mut [SoaQueue],
        arch: &ArchDescriptor,
        now: u64,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
    ) -> u32 {
        let mut activity = 0;
        for qi in 0..qs.len() {
            // Same scan-skip as the legacy engine.
            if qs[qi].quiet_until > now {
                continue;
            }
            let depth = arch.issue_scan_depth;
            // Quiescence needs the *whole* queue inspected; with the live
            // count at or under the scan depth the budget below cannot
            // truncate, so coverage is decidable up front.
            let covered = qs[qi].live_len() <= depth;
            let qpm = self.queue_port_mask[qi];
            let mut all_waiting = true;
            let mut budget = depth;
            let words = qs[qi].occ.len();
            'words: for w in 0..words {
                if budget == 0 {
                    break;
                }
                let q = &qs[qi];
                let mut visible = q.occ[w];
                if visible == 0 {
                    continue;
                }
                let n = visible.count_ones() as usize;
                if n > budget {
                    visible = soa::keep_lowest_set(visible, budget);
                    budget = 0;
                } else {
                    budget -= n;
                }
                let unknown = q.unknown[w] & visible;
                let known = visible & !unknown;
                let blocked = q.blocked[w] & visible;
                let qgen = q.gen;
                let base = w << 6;
                // Waiting-with-known-completion slots are skipped wholesale
                // by the mask compare; consumers asleep on a producer
                // wakeup are skipped by `blocked`. The slow path below sees
                // exactly the slots the legacy walk would have acted on:
                // known-ready ones, plus every unknown one whose readiness
                // could have changed since it was last inspected.
                let wait = soa::wait_mask(known, &q.ready_at[base..base + 64], now);
                if blocked != 0 {
                    // Sleeping consumers veto quiescence exactly as their
                    // per-cycle rescan would have (and have no other effect
                    // in the legacy walk).
                    all_waiting = false;
                }
                let mut cand = (known & !wait) | (unknown & !blocked);
                while cand != 0 {
                    // Stop early if every port on this queue is taken
                    // (checked per candidate, exactly where the legacy walk
                    // could break).
                    if self.port_used & qpm == qpm {
                        all_waiting = false;
                        break 'words;
                    }
                    let b = cand.trailing_zeros() as usize;
                    cand &= cand - 1;
                    let slot = base + b;
                    let q = &qs[qi];
                    let hw = q.hw[slot] as usize;
                    let seq = q.seq[slot];
                    let instr = q.instr[slot];
                    if unknown & (1 << b) != 0 {
                        let dep_dist = instr.dep_dist;
                        let ctx = &self.ctxs[hw];
                        if !ctx.dep_ready(seq, dep_dist, now) {
                            if dep_dist > 0 && seq >= u64::from(dep_dist) {
                                let p = ((seq - u64::from(dep_dist)) as usize) % RING;
                                let c = ctx.comp[p];
                                if c != PENDING {
                                    if c > now + PARK_THRESHOLD {
                                        let e = QEntry {
                                            hw: hw as u8,
                                            seq,
                                            ready_at: 0,
                                            instr,
                                        };
                                        qs[qi].tombstone(slot, hw);
                                        self.ctxs[hw].parked.push((c, qi, e));
                                        activity += 1;
                                        all_waiting = false;
                                    } else {
                                        // Completion known and near:
                                        // memoize it.
                                        let q = &mut qs[qi];
                                        q.ready_at[slot] = c;
                                        q.clear_unknown(slot);
                                    }
                                    continue;
                                }
                                // Producer not yet issued: sleep this
                                // consumer on the producer's issue event
                                // instead of re-polling the ring every
                                // cycle. If the cell is full even after
                                // purging dead registrations, the entry
                                // simply keeps rescanning (the legacy
                                // behavior) — the bound costs correctness
                                // nothing.
                                all_waiting = false;
                                let cell = &mut self.ctxs[hw].waiters[p];
                                if cell.n as usize == cell.w.len() {
                                    let mut k = 0;
                                    while k < cell.n {
                                        let e = cell.w[k as usize];
                                        let eq = &qs[e.qi as usize];
                                        if e.gen != eq.gen || !eq.is_blocked(e.slot as usize) {
                                            cell.n -= 1;
                                            cell.w[k as usize] = cell.w[cell.n as usize];
                                        } else {
                                            k += 1;
                                        }
                                    }
                                }
                                if (cell.n as usize) < cell.w.len() {
                                    cell.w[cell.n as usize] = Waiter {
                                        qi: qi as u8,
                                        slot: slot as u16,
                                        gen: qgen,
                                    };
                                    cell.n += 1;
                                    qs[qi].set_blocked(slot);
                                }
                                continue;
                            }
                            // Producer unreachable through the ring window:
                            // rescan every cycle.
                            all_waiting = false;
                            continue;
                        }
                        // Proven ready: memoize, then try the ports.
                        let q = &mut qs[qi];
                        q.ready_at[slot] = now.max(1);
                        q.clear_unknown(slot);
                    }
                    all_waiting = false;
                    match self.try_issue(arch, qi, hw, seq, instr, now, mem, sw) {
                        TryIssue::Issued => {
                            qs[qi].tombstone(slot, hw);
                            activity += 1;
                            if !self.woken.is_empty() {
                                // The issue was a wakeup event: clear the
                                // sleepers' blocked bits. A consumer younger
                                // than the issuing producer in this same
                                // word re-enters the scan immediately — the
                                // legacy walk would reach it later this very
                                // cycle; everyone else is rescanned when
                                // their word or queue next comes up.
                                let mut woken = std::mem::take(&mut self.woken);
                                for wk in woken.drain(..) {
                                    let wq = &mut qs[wk.qi as usize];
                                    let s = wk.slot as usize;
                                    if wk.gen != wq.gen || !wq.is_blocked(s) {
                                        continue;
                                    }
                                    wq.clear_blocked(s);
                                    if wk.qi as usize == qi
                                        && s >> 6 == w
                                        && s > slot
                                        && visible & (1 << (s & 63)) != 0
                                    {
                                        cand |= 1 << (s & 63);
                                    }
                                }
                                self.woken = woken;
                            }
                        }
                        TryIssue::LmqReject => activity += 1,
                        TryIssue::NoPort => {}
                    }
                }
            }
            if all_waiting && covered {
                // Every live entry is known-waiting, so the earliest
                // memoized completion bounds the queue's next possible
                // event. Amortized: runs once per quiet period, not per
                // cycle.
                let q = &mut qs[qi];
                let mut next_ready = u64::MAX;
                for w in 0..words {
                    let mut bits = q.occ[w];
                    while bits != 0 {
                        let s = (w << 6) + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        next_ready = next_ready.min(q.ready_at[s]);
                    }
                }
                debug_assert!(next_ready > now);
                q.quiet_until = next_ready;
            }
        }
        activity
    }

    /// The engine-shared slow path for one ready-or-unknown-ready entry:
    /// pick a compatible free port, walk the memory hierarchy for
    /// loads/stores (which may reject on a full LMQ), and commit the issue
    /// (completion ring, counters, branch outcome, port busy masks). The
    /// caller owns queue storage and removes the entry on
    /// [`TryIssue::Issued`].
    #[allow(clippy::too_many_arguments)]
    fn try_issue(
        &mut self,
        arch: &ArchDescriptor,
        qi: usize,
        hw: usize,
        seq: u64,
        instr: Instr,
        now: u64,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
    ) -> TryIssue {
        // Pick a free compatible port (and its pair for stores). Port
        // indices ascend within a queue, so the lowest set bit of the
        // eligibility mask is the same port the reference per-port walk
        // would choose.
        let accepts = self.class_port_mask[instr.class.index()];
        let free = accepts & self.queue_port_mask[qi] & !self.port_used;
        if free == 0 {
            return TryIssue::NoPort;
        }
        let port = if instr.class == InstrClass::Store {
            let mut chosen: Option<usize> = None;
            let mut bits = free;
            while bits != 0 {
                let p = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if let Some(pair) = arch.ports[p].store_pair {
                    if self.port_used & (1 << pair) != 0 {
                        continue;
                    }
                }
                chosen = Some(p);
                break;
            }
            let Some(p) = chosen else {
                return TryIssue::NoPort;
            };
            p
        } else {
            free.trailing_zeros() as usize
        };

        // Resolve execution latency (and the memory path for
        // loads/stores).
        let sw_id = self.ctxs[hw].sw_id;
        let completion;
        match instr.class {
            InstrClass::Load | InstrClass::Store => {
                let t0 = if self.profiling { profile::ticks() } else { 0 };
                let l1_hit = mem.probe_l1(self.id, instr.addr);
                if !l1_hit && self.lmq.len() >= self.lmq_capacity {
                    // No miss slot: the access cannot issue this cycle;
                    // leave it queued.
                    if self.profiling {
                        self.prof_mem_ticks += profile::ticks() - t0;
                    }
                    self.counters.lmq_rejections += 1;
                    self.queue_lmq_reject |= 1 << qi;
                    return TryIssue::LmqReject;
                }
                let out = mem.access(self.id, instr.addr, instr.remote, now);
                if self.profiling {
                    self.prof_mem_ticks += profile::ticks() - t0;
                }
                if instr.class == InstrClass::Load {
                    completion = now + out.latency;
                    if out.l1_miss {
                        self.lmq.push(completion);
                        self.lmq_min = self.lmq_min.min(completion);
                    }
                } else {
                    // Write-allocate: the store retires quickly, but its
                    // line fill occupies a miss-queue slot until the data
                    // arrives, so store misses are throttled by the same
                    // MSHR pool as loads (otherwise a store-heavy stream
                    // would grow the memory backlog without bound).
                    completion = now + arch.latencies.store;
                    if out.l1_miss {
                        let fill = now + out.latency;
                        self.lmq.push(fill);
                        self.lmq_min = self.lmq_min.min(fill);
                    }
                }
                let t = &mut sw[sw_id];
                t.mem_refs += 1;
                t.l1d_misses += u64::from(out.l1_miss);
                t.l2_misses += u64::from(out.l2_miss);
                t.l3_misses += u64::from(out.l3_miss);
                t.remote_accesses += u64::from(out.remote);
            }
            class => {
                completion = now + arch.latency_of(class);
            }
        }

        // Commit the issue.
        let ctx = &mut self.ctxs[hw];
        ctx.comp[(seq as usize) % RING] = completion;
        ctx.unissued_remove(seq);
        // This issue is the wakeup event consumers sleeping on this ring
        // slot registered for. Queue storage belongs to the caller, so
        // hand the drained registrations back through `woken` (always
        // empty under the legacy engine, which never registers).
        let cell = &mut ctx.waiters[(seq as usize) % RING];
        if cell.n > 0 {
            let cell = std::mem::take(cell);
            self.woken.extend_from_slice(&cell.w[..cell.n as usize]);
        }
        let t = &mut sw[sw_id];
        t.record_issue(instr.class, port, instr.work);
        if instr.class == InstrClass::Branch {
            t.branches += 1;
            // With a predictor model the misprediction emerges from the
            // PC/outcome stream (including cross-thread table aliasing);
            // otherwise the workload's pre-rolled flag decides.
            let mispredicted = match self.bpred.as_mut() {
                Some(bp) => bp.predict_and_update(instr.pc, instr.taken),
                None => instr.mispredict,
            };
            if mispredicted {
                t.branch_mispredicts += 1;
                self.ctxs[hw].fetch_blocked_until = completion + arch.mispredict_penalty;
            }
        }
        self.port_used |= 1 << port;
        self.counters.issue_slots_used += 1;
        if instr.class == InstrClass::Store {
            if let Some(pair) = arch.ports[port].store_pair {
                self.port_used |= 1 << pair;
                sw[sw_id].port_issued[pair] += 1;
                self.counters.issue_slots_used += 1;
            }
        }
        TryIssue::Issued
    }

    fn dispatch(
        &mut self,
        arch: &ArchDescriptor,
        _now: u64,
        mode: StepMode,
        sw: &mut [ThreadCounters],
    ) -> u32 {
        let width = arch.dispatch_width;
        let mut dispatched = 0usize;
        let mut thread_had = [false; MAX_WAYS];
        let mut thread_dispatched = [0u32; MAX_WAYS];
        let mut thread_blocked_congested = [false; MAX_WAYS];

        loop {
            let mut progress = false;
            for k in 0..self.ways {
                if dispatched >= width {
                    break;
                }
                let t = (self.disp_rr + k) % self.ways;
                let dispatchable = match self.ctxs[t].state {
                    CtxState::Running => true,
                    CtxState::Sleeping(_) => mode == StepMode::Drain,
                    CtxState::Finished => false,
                };
                if !dispatchable || self.ctxs[t].ibuf.is_empty() {
                    continue;
                }
                thread_had[t] = true;
                if self.ctxs[t].rob_full() {
                    // A full in-flight window is normally a latency effect
                    // SMT can hide (not a resource shortage) — except when
                    // the machine is memory-bound to the point that the
                    // miss queue is rejecting accesses: then the window is
                    // full *because* the memory system cannot absorb more,
                    // which is exactly the saturation DispHeld must report.
                    if self.queue_lmq_reject != 0 {
                        thread_blocked_congested[t] = true;
                    }
                    continue;
                }
                let class = self.ctxs[t].ibuf.front().expect("nonempty").class;
                // Route to the least-occupied eligible queue.
                let mut best: Option<usize> = None;
                let mut blocked_by_congested_queue = false;
                for &qi in &self.class_queues[class.index()] {
                    if self.bank.full(qi) || self.bank.thread_share_full(qi, t) {
                        // This queue turned the thread away. Only queues
                        // whose execution resources are genuinely saturated
                        // — every port this class could use issued this
                        // cycle, or a load was rejected for want of a miss
                        // slot — count toward the DispHeld factor; a queue
                        // full of instructions *waiting on operands* is a
                        // latency problem SMT can hide, not a resource
                        // shortage.
                        if self.queue_congested_for(qi, class) {
                            blocked_by_congested_queue = true;
                        }
                        continue;
                    }
                    best = match best {
                        Some(b) if self.bank.live_len(b) <= self.bank.live_len(qi) => Some(b),
                        _ => Some(qi),
                    };
                }
                match best {
                    Some(qi) => {
                        let ctx = &mut self.ctxs[t];
                        let instr = ctx.ibuf.pop_front().expect("nonempty");
                        let seq = ctx.dispatch_seq;
                        ctx.dispatch_seq += 1;
                        ctx.comp[(seq as usize) % RING] = PENDING;
                        ctx.unissued_insert(seq);
                        self.bank.push_back(qi, t as u8, seq, instr);
                        sw[ctx.sw_id].dispatched += 1;
                        dispatched += 1;
                        thread_dispatched[t] += 1;
                        progress = true;
                    }
                    None => {
                        if blocked_by_congested_queue {
                            thread_blocked_congested[t] = true;
                        }
                    }
                }
            }
            if !progress || dispatched >= width {
                break;
            }
        }
        self.disp_rr = (self.disp_rr + 1) % self.ways;
        self.counters.dispatch_slots_used += dispatched as u64;
        // Dispatch-held accounting (the `PM_DISP_CLB_HELD_RES` analogue):
        // a thread-cycle counts as held when the thread *ended the cycle*
        // unable to dispatch because a queue's execution resources were
        // saturated (ports fully busy, or memory accesses rejected on a
        // full miss queue). Blockage from the in-flight (ROB) window, or by
        // queues merely full of operand-waiting instructions, does not
        // count — those are latency effects additional hardware threads can
        // hide, not resource exhaustion. A cycle that ended purely because
        // the dispatch width ran out is not held either.
        let width_exhausted = dispatched >= width;
        self.held_mask = 0;
        for t in 0..self.ways {
            if thread_had[t]
                && thread_blocked_congested[t]
                && (thread_dispatched[t] == 0 || !width_exhausted)
            {
                sw[self.ctxs[t].sw_id].disp_held_cycles += 1;
                self.held_mask |= 1 << t;
            }
        }
        if self.held_mask != 0 {
            self.counters.disp_held_cycles += 1;
        }
        dispatched as u32
    }

    fn fetch<W: Workload + ?Sized>(
        &mut self,
        arch: &ArchDescriptor,
        now: u64,
        workload: &mut W,
        mem: &mut MemorySystem,
        sw: &mut [ThreadCounters],
    ) -> u32 {
        let mut activity = 0;
        // Pick the next eligible thread, round-robin.
        let mut chosen = None;
        for k in 0..self.ways {
            let t = (self.fetch_rr + k) % self.ways;
            let ctx = &self.ctxs[t];
            if ctx.state == CtxState::Running
                && !ctx.fetch_done
                && now >= ctx.fetch_blocked_until
                && ctx.ibuf.len() < ctx.ibuf_cap
            {
                chosen = Some(t);
                self.fetch_rr = (t + 1) % self.ways;
                break;
            }
        }
        let Some(t) = chosen else { return activity };
        for _ in 0..arch.fetch_width {
            let ctx = &mut self.ctxs[t];
            if ctx.ibuf.len() >= ctx.ibuf_cap {
                break;
            }
            activity += 1; // every workload.fetch advances generator state
            match workload.fetch(ctx.sw_id, now) {
                Fetched::Instr(i) => {
                    // Instruction-cache check (once per 64-byte code line):
                    // a miss stalls this thread's fetch until the line
                    // returns; the instruction itself is kept — it arrives
                    // with the line.
                    let line = i.pc >> 6;
                    if i.pc != 0 && line != ctx.last_fetch_line {
                        ctx.last_fetch_line = line;
                        let sw_id = ctx.sw_id;
                        let out = mem.fetch_access(self.id, i.pc, now);
                        let ctx = &mut self.ctxs[t];
                        if out.l1_miss {
                            sw[sw_id].l1i_misses += 1;
                            ctx.fetch_blocked_until =
                                ctx.fetch_blocked_until.max(now + out.latency);
                        }
                    }
                    let ctx = &mut self.ctxs[t];
                    ctx.ibuf.push_back(i);
                    sw[ctx.sw_id].fetched += 1;
                    if now < ctx.fetch_blocked_until {
                        break;
                    }
                }
                Fetched::Sleep { until } => {
                    ctx.state = CtxState::Sleeping(until.max(now + 1));
                    break;
                }
                Fetched::Finished => {
                    ctx.fetch_done = true;
                    break;
                }
            }
        }
        activity
    }

    fn account(&mut self, _now: u64, sw: &mut [ThreadCounters]) {
        self.counters.cycles += 1;
        let mut active = false;
        for ctx in &self.ctxs {
            match ctx.state {
                CtxState::Running => {
                    active = true;
                    sw[ctx.sw_id].cpu_cycles += 1;
                }
                CtxState::Sleeping(_) => {
                    sw[ctx.sw_id].sleep_cycles += 1;
                }
                CtxState::Finished => {}
            }
        }
        if active {
            self.counters.active_cycles += 1;
        }
    }

    /// If every step of this core under [`StepMode::Normal`] in `now..e`
    /// is provably either a no-op or a *stall step* — one whose only
    /// events are LMQ rejections of the same loads and stores — return
    /// `Some((e, r))`: the first cycle `e` at which something else *could*
    /// happen (a sleep expiring, a parked instruction's data returning, a
    /// mispredict bubble ending, a queued instruction's producer
    /// completing within the issue scan window, or an LMQ slot freeing),
    /// and the `r` rejections each of those cycles makes. Return `None`
    /// when the core could do anything else *this* cycle.
    ///
    /// A stall needs a visible, dependency-ready load or store that
    /// misses L1 while the LMQ is full and no slot frees by `now`.
    /// Nothing inside the window changes which
    /// entries are visible or ready, the L1 contents, or the LMQ, so every
    /// cycle rejects the same `r` entries. The caller arms a window only
    /// when `r` equals the rejections of the step just taken
    /// ([`Core::step_rejections`]), so [`Core::charge_idle`] replays that
    /// step's event delta exactly.
    ///
    /// Cores on the [`IssueEngine::Legacy`] reference engine always return
    /// `None`: the reference is stepped cycle by cycle.
    ///
    /// Sound on its own: every condition that could make a cycle do work
    /// is checked directly. `Some((u64::MAX, 0))` means the core can never
    /// act again without external input (all threads finished, or a true
    /// dependency deadlock the naive loop would also spin on forever); the
    /// caller bounds the jump.
    pub fn quiet_until(
        &self,
        arch: &ArchDescriptor,
        mem: &MemorySystem,
        now: u64,
    ) -> Option<(u64, u32)> {
        let QueueBank::Soa(qs) = &self.bank else {
            return None;
        };
        let mut next = u64::MAX;
        let mut rejections = 0u32;
        for (t, ctx) in self.ctxs.iter().enumerate() {
            match ctx.state {
                CtxState::Sleeping(until) => {
                    if until <= now {
                        return None; // would wake this cycle
                    }
                    next = next.min(until);
                }
                CtxState::Running => {
                    if ctx.fetch_done && ctx.drained() {
                        return None; // would retire to Finished
                    }
                    if !ctx.fetch_done && ctx.ibuf.len() < ctx.ibuf_cap {
                        if now >= ctx.fetch_blocked_until {
                            return None; // fetch-eligible
                        }
                        next = next.min(ctx.fetch_blocked_until);
                    }
                    // Could the front of the fetch buffer dispatch?
                    if let Some(front) = ctx.ibuf.front() {
                        if !ctx.rob_full() {
                            for &qi in &self.class_queues[front.class.index()] {
                                if !self.bank.full(qi) && !self.bank.thread_share_full(qi, t) {
                                    return None; // would dispatch
                                }
                            }
                        }
                    }
                }
                CtxState::Finished => {}
            }
            for &(wake, _, _) in &ctx.parked {
                if wake <= now {
                    return None; // would unpark this cycle
                }
                next = next.min(wake);
            }
        }
        // Queued instructions: only the first `issue_scan_depth` entries of
        // each queue are visible to the issue stage, and with no issues or
        // parks happening the visible prefix cannot change, so deeper
        // entries need no events. A visible entry whose producer already
        // completed would issue right now, unless it is a stall (below);
        // one completing in the future issues — or parks — at completion.
        // Producers still `PENDING` need no event: their own issue is
        // activity that re-arms the analysis.
        let lmq_full = self.lmq.len() >= self.lmq_capacity && self.lmq_min > now;
        for q in qs {
            if q.quiet_until > now {
                if q.quiet_until != u64::MAX {
                    next = next.min(q.quiet_until);
                }
                continue;
            }
            let mut seen = 0usize;
            'scan: for w in 0..q.occ.len() {
                let mut bits = q.occ[w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if seen >= arch.issue_scan_depth {
                        break 'scan;
                    }
                    seen += 1;
                    let s = (w << 6) + b;
                    let ra = q.ready_at[s];
                    if ra > now {
                        next = next.min(ra);
                        continue;
                    }
                    let ctx = &self.ctxs[q.hw[s] as usize];
                    let seq = q.seq[s];
                    let instr = q.instr[s];
                    let dep = instr.dep_dist;
                    if ctx.dep_ready(seq, dep, now) {
                        // Rejected until an LMQ slot frees: only this core's
                        // own accesses fill its L1 and LMQ, and it makes none
                        // meanwhile.
                        if instr.class.is_mem() && lmq_full && !mem.probe_l1(self.id, instr.addr) {
                            rejections += 1;
                            continue;
                        }
                        return None; // would issue now
                    }
                    if dep > 0 && seq >= u64::from(dep) {
                        let c = ctx.comp[((seq - u64::from(dep)) as usize) % RING];
                        if c != PENDING {
                            next = next.min(c);
                        }
                    }
                }
            }
        }
        if rejections > 0 {
            next = next.min(self.lmq_min);
        }
        debug_assert!(next > now);
        Some((next, rejections))
    }

    /// LMQ rejections made by the last step (see [`Core::quiet_until`]).
    pub fn step_rejections(&self) -> u32 {
        self.step_rejections
    }

    /// Charge `k` elided cycles in one step, exactly as `k` naive
    /// [`Core::step`] calls would have: wall cycles, per-thread CPU/sleep
    /// time, core active time, the dispatch round-robin pointer (which
    /// the naive loop advances every cycle regardless of progress), and
    /// `k` times the last step's event delta — its LMQ rejections and
    /// dispatch-held threads, both zero after a pure-idle step. The
    /// cycles must lie inside a window [`Core::quiet_until`] armed from
    /// that step; all other state is untouched because such a cycle
    /// touches nothing else. The driver batches these charges (one call
    /// per window, not per cycle — see `Simulation`'s idle-debt ledger).
    pub fn charge_idle(&mut self, k: u64, sw: &mut [ThreadCounters]) {
        let mut active = false;
        for ctx in &self.ctxs {
            match ctx.state {
                CtxState::Running => {
                    active = true;
                    sw[ctx.sw_id].cpu_cycles += k;
                }
                CtxState::Sleeping(_) => {
                    sw[ctx.sw_id].sleep_cycles += k;
                }
                CtxState::Finished => {}
            }
        }
        self.counters.charge_idle(k, active);
        self.disp_rr = (self.disp_rr + (k % self.ways as u64) as usize) % self.ways;
        self.counters.lmq_rejections += k * u64::from(self.step_rejections);
        if self.held_mask != 0 {
            for (t, ctx) in self.ctxs.iter().enumerate() {
                if self.held_mask & (1 << t) != 0 {
                    sw[ctx.sw_id].disp_held_cycles += k;
                }
            }
            self.counters.disp_held_cycles += k;
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchDescriptor;
    use crate::cache::{CacheConfig, MemConfig};
    use crate::workload::ScriptedWorkload;

    fn mem_system(cores: usize) -> MemorySystem {
        MemorySystem::new(
            1,
            cores,
            CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 2,
            },
            CacheConfig {
                size_bytes: 256 * 1024,
                assoc: 8,
                line_bytes: 64,
                latency: 12,
            },
            CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                assoc: 16,
                line_bytes: 64,
                latency: 30,
            },
            MemConfig {
                latency: 180,
                bytes_per_cycle: 16.0,
                remote_extra_latency: 120,
            },
        )
    }

    fn run_core<W: Workload>(
        arch: &ArchDescriptor,
        core: &mut Core,
        workload: &mut W,
        sw: &mut [ThreadCounters],
        max_cycles: u64,
    ) -> u64 {
        let mut mem = mem_system(1);
        for now in 0..max_cycles {
            core.step(arch, now, StepMode::Normal, workload, &mut mem, sw);
            if workload.finished() && core.drained() {
                return now + 1;
            }
        }
        max_cycles
    }

    #[test]
    fn single_thread_executes_script_to_completion() {
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..100)
            .map(|_| Instr::simple(InstrClass::FixedPoint))
            .collect();
        let mut w = ScriptedWorkload::new("fx", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        let cycles = run_core(&arch, &mut core, &mut w, &mut sw, 10_000);
        assert!(cycles < 10_000, "did not finish");
        assert_eq!(sw[0].issued, 100);
        assert_eq!(sw[0].work_units, 100);
        assert!(core.finished());
    }

    #[test]
    fn independent_fx_throughput_bounded_by_two_ports() {
        // 1000 independent fixed-point instructions through 2 FX ports:
        // at best 2 per cycle, so >= ~500 cycles.
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..1000)
            .map(|_| Instr::simple(InstrClass::FixedPoint))
            .collect();
        let mut w = ScriptedWorkload::new("fx", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        let cycles = run_core(&arch, &mut core, &mut w, &mut sw, 20_000);
        assert!(cycles >= 500, "exceeded FX port bandwidth: {cycles}");
        assert!(cycles < 800, "far below FX port bandwidth: {cycles}");
    }

    #[test]
    fn dependency_chain_serializes() {
        // A chain of dependent 6-cycle VSU ops: ~6 cycles each.
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..200)
            .map(|_| Instr::simple(InstrClass::VectorScalar).with_dep(1))
            .collect();
        let mut w = ScriptedWorkload::new("chain", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        let cycles = run_core(&arch, &mut core, &mut w, &mut sw, 50_000);
        // The run ends when the last instruction *issues*; 199 dependency
        // edges of 6 cycles each bound the issue time of the last one.
        assert!(cycles >= 199 * 6, "chain not serialized: {cycles}");
    }

    #[test]
    fn smt2_fills_dependency_gaps() {
        // The same dependent-VSU chain, one per hardware thread: two chains
        // overlap, so 2 threads' worth of work takes about as long as one.
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..200)
            .map(|_| Instr::simple(InstrClass::VectorScalar).with_dep(1))
            .collect();

        let mut w1 = ScriptedWorkload::new("chain", script.clone());
        w1.set_thread_count(1);
        let mut core1 = Core::new(&arch, 0, &[0]);
        let mut sw1 = vec![ThreadCounters::new(arch.num_ports()); 1];
        let t1 = run_core(&arch, &mut core1, &mut w1, &mut sw1, 100_000);

        let mut w2 = ScriptedWorkload::new("chain", script);
        w2.set_thread_count(2);
        let mut core2 = Core::new(&arch, 0, &[0, 1]);
        let mut sw2 = vec![ThreadCounters::new(arch.num_ports()); 2];
        let t2 = run_core(&arch, &mut core2, &mut w2, &mut sw2, 100_000);

        // Twice the work in less than 1.3x the time.
        assert!(
            (t2 as f64) < (t1 as f64) * 1.3,
            "SMT2 did not hide dependency latency: t1={t1} t2={t2}"
        );
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        let arch = ArchDescriptor::power7();
        let mk = |mis: bool| -> Vec<Instr> {
            (0..300)
                .map(|k| {
                    if k % 10 == 9 {
                        Instr::branch(mis)
                    } else {
                        Instr::simple(InstrClass::FixedPoint)
                    }
                })
                .collect()
        };
        let run = |script: Vec<Instr>| {
            let mut w = ScriptedWorkload::new("br", script);
            w.set_thread_count(1);
            let mut core = Core::new(&arch, 0, &[0]);
            let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
            let c = run_core(&arch, &mut core, &mut w, &mut sw, 100_000);
            (c, sw[0].branch_mispredicts)
        };
        let (good, m0) = run(mk(false));
        let (bad, m1) = run(mk(true));
        assert_eq!(m0, 0);
        assert_eq!(m1, 30);
        assert!(
            bad as f64 > good as f64 * 1.5,
            "mispredicts too cheap: good={good} bad={bad}"
        );
    }

    #[test]
    fn sleeping_thread_accrues_sleep_not_cpu() {
        let arch = ArchDescriptor::power7();

        #[derive(Debug)]
        struct Sleepy {
            sent: bool,
        }
        impl Workload for Sleepy {
            fn name(&self) -> &str {
                "sleepy"
            }
            fn fetch(&mut self, _t: usize, now: u64) -> Fetched {
                if now < 100 {
                    Fetched::Sleep { until: 100 }
                } else if !self.sent {
                    self.sent = true;
                    Fetched::Instr(Instr::simple(InstrClass::FixedPoint))
                } else {
                    Fetched::Finished
                }
            }
            fn set_thread_count(&mut self, _n: usize) {}
            fn thread_count(&self) -> usize {
                1
            }
            fn finished(&self) -> bool {
                self.sent
            }
            fn work_done(&self) -> u64 {
                u64::from(self.sent)
            }
            fn total_work(&self) -> u64 {
                1
            }
        }

        let mut w = Sleepy { sent: false };
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        let mut mem = mem_system(1);
        for now in 0..300 {
            core.step(&arch, now, StepMode::Normal, &mut w, &mut mem, &mut sw);
        }
        assert_eq!(sw[0].issued, 1);
        assert!(sw[0].sleep_cycles >= 90, "sleep={}", sw[0].sleep_cycles);
        assert!(
            sw[0].cpu_cycles < 250,
            "cpu cycles should exclude most of the sleep: {}",
            sw[0].cpu_cycles
        );
    }

    #[test]
    fn homogeneous_saturation_holds_dispatch() {
        // Four threads of pure independent VSU work: demand 6/cycle versus
        // drain 2/cycle. Queues fill and the core-level dispatch-held
        // counter must engage.
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..500)
            .map(|_| Instr::simple(InstrClass::VectorScalar))
            .collect();
        let mut w = ScriptedWorkload::new("vsu", script);
        w.set_thread_count(4);
        let mut core = Core::new(&arch, 0, &[0, 1, 2, 3]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 4];
        run_core(&arch, &mut core, &mut w, &mut sw, 100_000);
        let held = core.counters.disp_held_cycles as f64 / core.counters.active_cycles as f64;
        assert!(held > 0.3, "expected heavy dispatch hold, got {held}");
    }

    #[test]
    fn diverse_mix_dispatch_rarely_held() {
        // An ideal-mix workload with no dependencies should keep queues
        // draining and the held fraction low.
        let arch = ArchDescriptor::power7();
        let mut script = Vec::new();
        // Long enough that the cold-start miss burst (which legitimately
        // counts as memory congestion) amortizes away.
        for k in 0..20_000u64 {
            let c = match k % 7 {
                0 => InstrClass::Load,
                1 => InstrClass::Store,
                2 => InstrClass::Branch,
                3 | 4 => InstrClass::FixedPoint,
                _ => InstrClass::VectorScalar,
            };
            let mut i = Instr::simple(c);
            // Small private working set: always L1-resident.
            i.addr = (k % 32) * 64;
            script.push(i);
        }
        let mut w = ScriptedWorkload::new("mix", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        run_core(&arch, &mut core, &mut w, &mut sw, 100_000);
        let held = core.counters.disp_held_cycles as f64 / core.counters.active_cycles as f64;
        println!(
            "HELD={held} q0={} q1={} q2={} q3={}",
            core.queue_len(0),
            core.queue_len(1),
            core.queue_len(2),
            core.queue_len(3)
        );
        assert!(held < 0.1, "ideal mix should not hold dispatch: {held}");
    }

    #[test]
    fn port_counters_track_issue_ports() {
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..50).map(|_| Instr::simple(InstrClass::Branch)).collect();
        let mut w = ScriptedWorkload::new("br", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        run_core(&arch, &mut core, &mut w, &mut sw, 100_000);
        // Port 1 is the BR port on the power7-like descriptor.
        assert_eq!(sw[0].port_issued[1], 50);
        assert_eq!(sw[0].branches, 50);
    }

    #[test]
    fn nehalem_store_consumes_paired_port() {
        let arch = ArchDescriptor::nehalem();
        let script: Vec<Instr> = (0..40).map(|k| Instr::store(k * 64)).collect();
        let mut w = ScriptedWorkload::new("st", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        run_core(&arch, &mut core, &mut w, &mut sw, 100_000);
        assert_eq!(sw[0].port_issued[3], 40, "store-address port");
        assert_eq!(sw[0].port_issued[4], 40, "store-data port");
    }

    #[test]
    fn drain_mode_empties_pipeline_without_fetch() {
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..64)
            .map(|_| Instr::simple(InstrClass::FixedPoint))
            .collect();
        let mut w = ScriptedWorkload::new("fx", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        let mut mem = mem_system(1);
        // Fill the pipeline a bit.
        for now in 0..5 {
            core.step(&arch, now, StepMode::Normal, &mut w, &mut mem, &mut sw);
        }
        let fetched_before = sw[0].fetched;
        assert!(fetched_before > 0);
        // Drain: no new fetch, everything in flight completes.
        for now in 5..500 {
            core.step(&arch, now, StepMode::Drain, &mut w, &mut mem, &mut sw);
            if core.drained() {
                break;
            }
        }
        assert!(core.drained());
        assert_eq!(sw[0].fetched, fetched_before, "drain must not fetch");
        assert_eq!(sw[0].issued, fetched_before, "all fetched must issue");
    }

    #[test]
    fn lmq_rejections_engage_under_miss_storms() {
        // Random-ish strided loads over a huge range: every load misses to
        // memory, quickly exhausting the 16-entry LMQ.
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..400u64).map(|k| Instr::load(k * 1024 * 1024)).collect();
        let mut w = ScriptedWorkload::new("miss", script);
        w.set_thread_count(1);
        let mut core = Core::new(&arch, 0, &[0]);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        run_core(&arch, &mut core, &mut w, &mut sw, 500_000);
        assert!(sw[0].l1d_misses >= 400);
        assert!(
            core.counters.lmq_rejections > 0,
            "expected LMQ pressure under a miss storm"
        );
    }

    #[test]
    fn legacy_engine_still_executes() {
        // The reference engine stays alive behind `with_engine` for the
        // differential proofs; make sure it still runs end to end.
        let arch = ArchDescriptor::power7();
        let script: Vec<Instr> = (0..100)
            .map(|_| Instr::simple(InstrClass::FixedPoint))
            .collect();
        let mut w = ScriptedWorkload::new("fx", script);
        w.set_thread_count(1);
        let mut core = Core::with_engine(&arch, 0, &[0], IssueEngine::Legacy);
        assert_eq!(core.engine(), IssueEngine::Legacy);
        let mut sw = vec![ThreadCounters::new(arch.num_ports()); 1];
        let cycles = run_core(&arch, &mut core, &mut w, &mut sw, 10_000);
        assert!(cycles < 10_000, "did not finish");
        assert_eq!(sw[0].issued, 100);
        assert!(core.finished());
    }

    #[test]
    fn engines_agree_cycle_by_cycle_on_a_mixed_script() {
        // Step a legacy core and a SoA core in lockstep over a script that
        // exercises dependencies, branches, loads (hits and misses), and
        // stores; every counter must match every cycle. The machine-level
        // differential proptests cover whole workloads — this is the tight
        // inner loop of that proof, with invariants checked per cycle.
        let arch = ArchDescriptor::power7();
        let mut script = Vec::new();
        for k in 0..3000u64 {
            let mut i = match k % 11 {
                0 => Instr::load(k * 64 * 1024), // miss-prone
                1 => Instr::load((k % 16) * 64), // L1-resident
                2 => Instr::store((k % 32) * 64),
                3 => Instr::branch(k % 30 == 3),
                4 | 5 => Instr::simple(InstrClass::VectorScalar).with_dep(2),
                _ => Instr::simple(InstrClass::FixedPoint),
            };
            if k % 7 == 0 {
                i = i.with_dep(1);
            }
            script.push(i);
        }
        let mk = |engine: IssueEngine| {
            let mut w = ScriptedWorkload::new("mix", script.clone());
            w.set_thread_count(2);
            let core = Core::with_engine(&arch, 0, &[0, 1], engine);
            let sw = vec![ThreadCounters::new(arch.num_ports()); 2];
            (w, core, sw)
        };
        let (mut wa, mut ca, mut sa) = mk(IssueEngine::Legacy);
        let (mut wb, mut cb, mut sb) = mk(IssueEngine::Soa);
        let mut ma = mem_system(1);
        let mut mb = mem_system(1);
        for now in 0..200_000u64 {
            let aa = ca.step(&arch, now, StepMode::Normal, &mut wa, &mut ma, &mut sa);
            let ab = cb.step(&arch, now, StepMode::Normal, &mut wb, &mut mb, &mut sb);
            assert_eq!(aa, ab, "activity diverged at cycle {now}");
            assert_eq!(sa, sb, "thread counters diverged at cycle {now}");
            ca.check_invariants();
            cb.check_invariants();
            for qi in 0..4 {
                assert_eq!(
                    ca.queue_len(qi),
                    cb.queue_len(qi),
                    "queue {qi} occupancy diverged at cycle {now}"
                );
            }
            if wa.finished() && ca.drained() {
                assert!(wb.finished() && cb.drained());
                break;
            }
        }
        assert!(ca.finished() && cb.finished(), "script did not complete");
        assert_eq!(sa[0].issued + sa[1].issued, 6000);
    }

    #[test]
    fn unissued_bitmap_tracks_oldest_exactly() {
        let mut ctx = HwContext::new(0, 8, 128);
        for seq in 0..10u64 {
            ctx.dispatch_seq = seq + 1;
            ctx.unissued_insert(seq);
        }
        assert_eq!(ctx.unissued_oldest, 0);
        // Remove from the middle: oldest unchanged.
        ctx.unissued_remove(4);
        assert_eq!(ctx.unissued_oldest, 0);
        // Remove the oldest: skips over the hole at 4.
        ctx.unissued_remove(0);
        assert_eq!(ctx.unissued_oldest, 1);
        for seq in [1u64, 2, 3, 5, 6] {
            ctx.unissued_remove(seq);
        }
        assert_eq!(ctx.unissued_oldest, 7);
        assert_eq!(ctx.unissued_count, 3);
        // Wrap the ring: sequences land in higher words and back around.
        let mut ctx = HwContext::new(0, 8, 128);
        for seq in 200..280u64 {
            ctx.dispatch_seq = seq + 1;
            ctx.unissued_insert(seq);
        }
        ctx.unissued_remove(200);
        assert_eq!(ctx.unissued_oldest, 201);
        for seq in 201..262u64 {
            ctx.unissued_remove(seq);
        }
        assert_eq!(ctx.unissued_oldest, 262, "oldest must cross the wrap");
        assert!(!ctx.rob_full());
    }
}

//! Executable synthetic workloads.
//!
//! [`SyntheticWorkload`] turns a [`WorkloadSpec`] into an
//! [`smt_sim::Workload`]: a set of per-thread instruction generators
//! drawing from one shared work pool, coordinated through the spec's
//! synchronization model. Work is claimed from the pool in chunks
//! (dynamic scheduling), which makes SMT-level reconfiguration natural:
//! unclaimed work simply gets re-distributed across the new thread count.
//!
//! Spin-waiting emits real (zero-work) branch/load/compare instructions,
//! so contention skews the observed instruction mix exactly as the paper
//! describes for lock-heavy applications; blocking waits surface as sleep
//! time in the scalability ratio instead.

use crate::spec::{AccessPattern, SyncSpec, WorkloadSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smt_sim::{Fetched, Instr, InstrClass, Workload};

/// Work units claimed from the pool at a time.
const CHUNK: u64 = 256;

/// Poll interval (cycles) for sleeping waiters (barrier / serial phases).
const POLL: u64 = 50;

/// Cycles a *contended* lock stays in flight between release and the next
/// possible acquisition: the lock word's cache line must travel from the
/// releaser to the acquirer.
const HANDOFF_BASE: u64 = 30;

/// Additional handoff cycles per waiting thread: every spinner's polling
/// read bounces the line (shared -> invalid -> exclusive churn), so
/// handoff cost grows with the crowd. This is the mechanism that makes
/// heavy lock contention *worse* at higher SMT levels.
const HANDOFF_PER_WAITER: u64 = 5;

/// Private working-set base address for thread `t` (regions never collide:
/// working sets are far below the 1 TiB spacing).
#[inline]
fn private_base(t: usize) -> u64 {
    ((t as u64) + 1) << 40
}

/// Base address of the shared region.
const SHARED_BASE: u64 = 0x7000_0000_0000;

/// Base address of the (shared) text segment instruction PCs come from.
const CODE_BASE: u64 = 0x5000_0000_0000;

/// Probability a branch transfers control to a random spot in the text
/// segment (function call/return) rather than falling through locally.
const BRANCH_JUMP_PROB: f64 = 0.22;

/// Address of the global lock word (in the shared region's line 0).
const LOCK_ADDR: u64 = SHARED_BASE;

/// What a thread is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Executing ordinary work.
    Normal,
    /// Spin-waiting on the global lock.
    Spinning,
    /// Inside the critical section with `left` instructions to go.
    InCs { left: u64 },
    /// Blocked on the global lock (blocking variant).
    LockBlocked,
    /// Waiting for the barrier generation to advance past `gen`.
    BarrierWait { gen: u64 },
    /// Executing a serial section with `left` instructions to go.
    SerialOwner { left: u64 },
    /// Waiting for the serial section to finish.
    SerialWait,
}

/// Per-thread generator state.
#[derive(Debug, Clone)]
struct ThreadGen {
    rng: ChaCha8Rng,
    mode: Mode,
    /// Work units claimed but not yet emitted.
    chunk_left: u64,
    /// Work instructions since the last sync event.
    work_since_sync: u64,
    /// This thread's (jittered) sync interval.
    interval: u64,
    /// Work instructions since the last idle period.
    run_since_idle: u64,
    /// Rotating spin-loop position (load, compare, branch).
    spin_phase: u8,
    /// Private-region address cursor.
    cursor: u64,
    /// Code-segment cursor (program counter offset).
    pc_cursor: u64,
    /// Shared-region address cursor.
    shared_cursor: u64,
    /// The workload told the machine this thread is finished.
    done: bool,
}

/// Shared synchronization state.
#[derive(Debug, Clone)]
struct SharedSync {
    /// Lock holder (spin and blocking variants).
    holder: Option<usize>,
    /// The lock cannot be re-acquired before this cycle (handoff cost of a
    /// contended release).
    lock_free_at: u64,
    /// Threads currently spinning or blocked on the lock.
    waiters: usize,
    /// Barrier arrivals this generation.
    arrivals: usize,
    /// Barrier generation counter.
    generation: u64,
    /// Remaining parallel work before the next serial section (Amdahl).
    parallel_left: u64,
    /// Remaining instructions in the active serial section.
    serial_left: u64,
    /// Thread executing the serial section.
    serial_owner: Option<usize>,
}

impl SharedSync {
    fn reset(&mut self) {
        self.holder = None;
        self.lock_free_at = 0;
        self.waiters = 0;
        self.arrivals = 0;
        // Generation advances so that any stale waiters released by a
        // reconfiguration proceed immediately.
        self.generation += 1;
        self.serial_owner = None;
    }
}

/// A running instance of a [`WorkloadSpec`].
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    /// Unclaimed work units.
    pool: u64,
    /// Work units emitted so far.
    emitted: u64,
    threads: Vec<ThreadGen>,
    sync: SharedSync,
    /// Bumped on each re-shard so new generators get fresh streams.
    epoch: u64,
    /// Parallel-phase length for Amdahl alternation.
    amdahl_parallel: u64,
}

impl SyntheticWorkload {
    /// Instantiate a spec. Call [`Workload::set_thread_count`] (or hand it
    /// to a `Simulation`, which does) before fetching.
    pub fn new(spec: WorkloadSpec) -> SyntheticWorkload {
        spec.validate().expect("invalid workload spec");
        let amdahl_parallel = match spec.sync {
            SyncSpec::AmdahlSerial {
                serial_fraction,
                chunk,
            } => {
                // serial_fraction = chunk / (chunk + parallel)
                ((chunk as f64) * (1.0 - serial_fraction) / serial_fraction).max(1.0) as u64
            }
            _ => 0,
        };
        let pool = spec.total_work;
        SyntheticWorkload {
            spec,
            pool,
            emitted: 0,
            threads: Vec::new(),
            sync: SharedSync {
                holder: None,
                lock_free_at: 0,
                waiters: 0,
                arrivals: 0,
                generation: 0,
                parallel_left: amdahl_parallel,
                serial_left: 0,
                serial_owner: None,
            },
            epoch: 0,
            amdahl_parallel,
        }
    }

    /// The spec this instance was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn jittered_interval(spec: &WorkloadSpec, rng: &mut ChaCha8Rng) -> u64 {
        match spec.sync {
            SyncSpec::SpinLock { cs_interval, .. } | SyncSpec::BlockingLock { cs_interval, .. } => {
                cs_interval
            }
            SyncSpec::Barrier {
                interval,
                imbalance,
            } => {
                if imbalance <= 0.0 {
                    interval
                } else {
                    let lo = (interval as f64 * (1.0 - imbalance)).max(1.0);
                    let hi = interval as f64 * (1.0 + imbalance);
                    rng.gen_range(lo..=hi) as u64
                }
            }
            _ => u64::MAX,
        }
    }

    /// Claim up to `CHUNK` work units for a thread; returns claimed amount.
    fn claim(&mut self, limit: u64) -> u64 {
        let c = CHUNK.min(self.pool).min(limit);
        self.pool -= c;
        c
    }

    /// Serve one ordinary instruction for thread `t`, consuming one work
    /// unit from its chunk.
    fn gen_work_instr(&mut self, t: usize) -> Instr {
        let g = &mut self.threads[t];
        debug_assert!(g.chunk_left > 0);
        g.chunk_left -= 1;
        self.emitted += 1;
        Self::decode_work_instr(&self.spec, t, g)
    }

    /// Decode the next work instruction of thread `t`'s stream: a pure
    /// function of the spec and the thread's generator state (RNG, PC and
    /// address cursors), independent of simulation time, sync mode and
    /// chunk accounting.
    fn decode_work_instr(spec: &WorkloadSpec, t: usize, g: &mut ThreadGen) -> Instr {
        let spec_mix = spec.mix;
        let dep = spec.dep;
        let mem = spec.mem;
        let mis_rate = spec.branch_mispredict_rate;

        // Program counter first: code is a real artifact, so the
        // instruction *class* at a given PC is a fixed property of the
        // program text (hashed from the PC, so the mix fractions still
        // hold in aggregate). This is what gives the optional branch-
        // predictor model stable static branches to learn.
        let footprint = spec.code_footprint.max(64);
        let pc = CODE_BASE + g.pc_cursor;
        let h = pc.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let class = spec_mix.sample((h >> 11) as f64 / (1u64 << 53) as f64);
        let mut instr = Instr::simple(class);
        instr.pc = pc;
        g.pc_cursor = (g.pc_cursor + 4) % footprint;
        if dep.prob > 0.0 && g.rng.gen::<f64>() < dep.prob {
            instr.dep_dist = g.rng.gen_range(1..=dep.max_dist.max(1));
        }
        if class == InstrClass::Branch && g.rng.gen::<f64>() < BRANCH_JUMP_PROB {
            // Control transfer: the next instruction comes from elsewhere
            // in the text segment.
            g.pc_cursor = g.rng.gen_range(0..footprint) & !3;
        }
        match class {
            InstrClass::Load | InstrClass::Store => {
                if mem.locality > 0.0 && g.rng.gen::<f64>() < mem.locality {
                    // Hot reference: small per-thread region, L1-resident.
                    let off = g.rng.gen_range(0..mem.hot_set.max(8));
                    instr.addr = private_base(t) + off;
                } else {
                    let shared =
                        mem.shared_fraction > 0.0 && g.rng.gen::<f64>() < mem.shared_fraction;
                    let (base, size, cursor) = if shared {
                        (
                            SHARED_BASE + 4096,
                            mem.shared_working_set,
                            &mut g.shared_cursor,
                        )
                    } else {
                        // Cold private region sits above the hot set.
                        (
                            private_base(t) + mem.hot_set,
                            mem.working_set.max(64),
                            &mut g.cursor,
                        )
                    };
                    let off = match mem.pattern {
                        AccessPattern::Strided(stride) => {
                            *cursor = (*cursor + stride) % size.max(1);
                            *cursor
                        }
                        AccessPattern::Random => g.rng.gen_range(0..size.max(1)),
                    };
                    instr.addr = base + off;
                    if shared && mem.remote_fraction > 0.0 {
                        instr.remote = g.rng.gen::<f64>() < mem.remote_fraction;
                    }
                }
            }
            InstrClass::Branch => {
                instr.mispredict = mis_rate > 0.0 && g.rng.gen::<f64>() < mis_rate;
                // Outcome for the (optional) predictor model: each static
                // branch carries a PC-derived bias — most are strongly
                // biased loop/guard branches, a minority are data-dependent
                // coin flips.
                let hb = h >> 40;
                let bias = if hb.is_multiple_of(8) { 0.55 } else { 0.93 };
                instr.taken = g.rng.gen::<f64>() < bias;
            }
            _ => {}
        }
        instr
    }

    /// One iteration of the spin loop: test the lock word and branch back.
    /// The instructions are independent (hardware speculation unrolls a
    /// spin loop aggressively), so a spinner saturates front-end and
    /// branch-unit bandwidth — this is how lock contention steals pipeline
    /// resources from the lock holder on a real SMT core, and how spinning
    /// skews the observed mix toward loads and branches.
    fn gen_spin_instr(&mut self, t: usize) -> Instr {
        let g = &mut self.threads[t];
        g.spin_phase = (g.spin_phase + 1) % 2;
        match g.spin_phase {
            0 => Instr::load(LOCK_ADDR).overhead().at_pc(CODE_BASE),
            _ => Instr::branch(false).overhead().at_pc(CODE_BASE),
        }
    }

    /// The global lock can be acquired right now (free, and past any
    /// contended-handoff delay).
    fn lock_available(&self, now: u64) -> bool {
        self.sync.holder.is_none() && now >= self.sync.lock_free_at
    }

    /// Critical-section length of the configured lock model.
    fn cs_len(&self) -> u64 {
        match self.spec.sync {
            SyncSpec::SpinLock { cs_len, .. } | SyncSpec::BlockingLock { cs_len, .. } => cs_len,
            _ => unreachable!("lock operation without a lock spec"),
        }
    }

    /// Ensure thread `t` has claimable work; returns false when the pool
    /// and its chunk are both dry.
    fn ensure_chunk(&mut self, t: usize) -> bool {
        if self.threads[t].chunk_left > 0 {
            return true;
        }
        if self.pool == 0 {
            return false;
        }
        // Amdahl alternation claims from the current parallel allotment.
        if matches!(self.spec.sync, SyncSpec::AmdahlSerial { .. }) {
            if self.sync.parallel_left == 0 {
                return false; // handled by serial logic in fetch
            }
            let limit = self.sync.parallel_left;
            let c = self.claim(limit);
            self.sync.parallel_left -= c;
            self.threads[t].chunk_left = c;
            return c > 0;
        }
        let c = self.claim(u64::MAX);
        self.threads[t].chunk_left = c;
        c > 0
    }

    fn all_chunks_empty(&self) -> bool {
        self.threads.iter().all(|g| g.chunk_left == 0)
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn set_thread_count(&mut self, n: usize) {
        assert!(n > 0, "need at least one thread");
        // Return claimed-but-unemitted work to the pool. (Unclaimed serial
        // work was never deducted from the pool, so only chunks come back.)
        for g in &self.threads {
            self.pool += g.chunk_left;
        }
        self.sync.serial_left = 0;
        self.sync.reset();
        if matches!(self.spec.sync, SyncSpec::AmdahlSerial { .. }) && self.sync.parallel_left == 0 {
            self.sync.parallel_left = self.amdahl_parallel;
        }
        self.epoch += 1;
        let spec = &self.spec;
        let epoch = self.epoch;
        self.threads = (0..n)
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    spec.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (epoch << 48),
                );
                let interval = Self::jittered_interval(spec, &mut rng);
                ThreadGen {
                    rng,
                    mode: Mode::Normal,
                    chunk_left: 0,
                    work_since_sync: 0,
                    interval,
                    run_since_idle: 0,
                    spin_phase: 0,
                    cursor: 0,
                    pc_cursor: 0,
                    shared_cursor: 0,
                    done: false,
                }
            })
            .collect();
    }

    fn thread_count(&self) -> usize {
        self.threads.len()
    }

    fn finished(&self) -> bool {
        self.pool == 0 && self.sync.serial_left == 0 && self.all_chunks_empty()
    }

    fn work_done(&self) -> u64 {
        self.emitted
    }

    fn total_work(&self) -> u64 {
        self.spec.total_work
    }

    fn fetch(&mut self, t: usize, now: u64) -> Fetched {
        assert!(t < self.threads.len(), "thread {t} out of range");
        if self.threads[t].done {
            return Fetched::Finished;
        }

        match self.threads[t].mode {
            Mode::Spinning => {
                if self.lock_available(now) {
                    // Acquire (leaving the waiter crowd).
                    self.sync.holder = Some(t);
                    self.sync.waiters = self.sync.waiters.saturating_sub(1);
                    let cs_len = self.cs_len();
                    self.threads[t].mode = Mode::InCs { left: cs_len };
                    return self.fetch(t, now);
                }
                return Fetched::Instr(self.gen_spin_instr(t));
            }
            Mode::LockBlocked => {
                if self.lock_available(now) {
                    self.sync.holder = Some(t);
                    self.sync.waiters = self.sync.waiters.saturating_sub(1);
                    let cs_len = self.cs_len();
                    self.threads[t].mode = Mode::InCs { left: cs_len };
                    return self.fetch(t, now);
                }
                let wake = match self.spec.sync {
                    SyncSpec::BlockingLock { wake_latency, .. } => wake_latency,
                    _ => POLL,
                };
                return Fetched::Sleep {
                    until: now + wake.max(1),
                };
            }
            Mode::InCs { left } => {
                if left == 0 || !self.ensure_chunk(t) {
                    // Done (or out of work): release and go on. A contended
                    // release pays the handoff cost before the next
                    // acquisition can succeed.
                    debug_assert_eq!(self.sync.holder, Some(t));
                    self.sync.holder = None;
                    if self.sync.waiters > 0 {
                        self.sync.lock_free_at =
                            now + HANDOFF_BASE + HANDOFF_PER_WAITER * self.sync.waiters as u64;
                    }
                    self.threads[t].mode = Mode::Normal;
                    self.threads[t].work_since_sync = 0;
                    return self.fetch(t, now);
                }
                self.threads[t].mode = Mode::InCs { left: left - 1 };
                return Fetched::Instr(self.gen_work_instr(t));
            }
            Mode::BarrierWait { gen } => {
                // Release on generation advance, or when the pool has
                // drained: late in the run some threads finish without ever
                // reaching the barrier, so stragglers must not wait for
                // arrivals that will never come.
                if self.sync.generation > gen || self.pool == 0 {
                    self.threads[t].mode = Mode::Normal;
                    return self.fetch(t, now);
                }
                return Fetched::Sleep { until: now + POLL };
            }
            Mode::SerialOwner { left } => {
                if left == 0 || self.sync.serial_left == 0 {
                    self.sync.serial_owner = None;
                    self.sync.serial_left = 0;
                    self.sync.parallel_left = self.amdahl_parallel.min(self.pool.max(1));
                    self.threads[t].mode = Mode::Normal;
                    return self.fetch(t, now);
                }
                // Serial work comes straight from the pool.
                if self.pool == 0 && self.threads[t].chunk_left == 0 {
                    self.sync.serial_owner = None;
                    self.sync.serial_left = 0;
                    self.threads[t].mode = Mode::Normal;
                    return self.fetch(t, now);
                }
                if self.threads[t].chunk_left == 0 {
                    let c = self.claim(self.sync.serial_left);
                    self.threads[t].chunk_left = c;
                }
                self.sync.serial_left -= 1;
                self.threads[t].mode = Mode::SerialOwner { left: left - 1 };
                return Fetched::Instr(self.gen_work_instr(t));
            }
            Mode::SerialWait => {
                // Exit exactly when there is no *active* serial section —
                // the complement of the condition under which Normal mode
                // enters this state. (A section whose instruction budget
                // reached zero counts as inactive even before the owner's
                // next fetch formally releases it; without that, a waiter
                // polled in between would bounce Normal <-> SerialWait
                // forever inside a single fetch call.)
                if self.sync.serial_owner.is_none() || self.sync.serial_left == 0 {
                    self.threads[t].mode = Mode::Normal;
                    return self.fetch(t, now);
                }
                return Fetched::Sleep { until: now + POLL };
            }
            Mode::Normal => {}
        }

        // Normal mode: check sync triggers before emitting work.
        match self.spec.sync {
            SyncSpec::SpinLock { cs_interval, .. } => {
                if self.threads[t].work_since_sync >= cs_interval {
                    self.threads[t].work_since_sync = 0;
                    if self.lock_available(now) {
                        self.sync.holder = Some(t);
                        let cs_len = self.cs_len();
                        self.threads[t].mode = Mode::InCs { left: cs_len };
                    } else {
                        self.sync.waiters += 1;
                        self.threads[t].mode = Mode::Spinning;
                    }
                    return self.fetch(t, now);
                }
            }
            SyncSpec::BlockingLock { cs_interval, .. } => {
                if self.threads[t].work_since_sync >= cs_interval {
                    self.threads[t].work_since_sync = 0;
                    if self.lock_available(now) {
                        self.sync.holder = Some(t);
                        let cs_len = self.cs_len();
                        self.threads[t].mode = Mode::InCs { left: cs_len };
                    } else {
                        self.sync.waiters += 1;
                        self.threads[t].mode = Mode::LockBlocked;
                    }
                    return self.fetch(t, now);
                }
            }
            SyncSpec::Barrier { .. } => {
                if self.threads[t].work_since_sync >= self.threads[t].interval && self.pool > 0 {
                    self.threads[t].work_since_sync = 0;
                    let gen = self.sync.generation;
                    self.sync.arrivals += 1;
                    if self.sync.arrivals >= self.threads.len() {
                        self.sync.arrivals = 0;
                        self.sync.generation += 1;
                        // Last to arrive proceeds immediately.
                    } else {
                        self.threads[t].mode = Mode::BarrierWait { gen };
                    }
                    return self.fetch(t, now);
                }
            }
            SyncSpec::AmdahlSerial { chunk, .. } => {
                if self.sync.serial_owner.is_some() && self.sync.serial_left > 0 {
                    self.threads[t].mode = Mode::SerialWait;
                    return self.fetch(t, now);
                }
                if self.sync.parallel_left == 0 && self.threads[t].chunk_left == 0 && self.pool > 0
                {
                    // Start a serial section.
                    let s = chunk.min(self.pool);
                    self.sync.serial_owner = Some(t);
                    self.sync.serial_left = s;
                    self.threads[t].mode = Mode::SerialOwner { left: s };
                    return self.fetch(t, now);
                }
            }
            SyncSpec::PeriodicIdle { run, idle } => {
                if self.threads[t].run_since_idle >= run {
                    self.threads[t].run_since_idle = 0;
                    return Fetched::Sleep { until: now + idle };
                }
            }
            SyncSpec::RateLimited { work_per_kcycle } => {
                let allowed = now.saturating_mul(work_per_kcycle) / 1000;
                if self.emitted >= allowed {
                    // Sleep until the allowance catches up with what has
                    // already been emitted.
                    let deficit = self.emitted - allowed + 1;
                    let wait = (deficit.saturating_mul(1000) / work_per_kcycle).clamp(1, 500);
                    return Fetched::Sleep { until: now + wait };
                }
            }
            SyncSpec::None => {}
        }

        if !self.ensure_chunk(t) {
            if self.finished() {
                self.threads[t].done = true;
                return Fetched::Finished;
            }
            // Out of claimable work but the workload is not globally done
            // (serial section pending or other threads still hold chunks):
            // doze briefly.
            return Fetched::Sleep { until: now + POLL };
        }
        self.threads[t].work_since_sync += 1;
        self.threads[t].run_since_idle += 1;
        Fetched::Instr(self.gen_work_instr(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DepProfile, InstrMix, MemBehavior, SyncSpec, WorkloadSpec};
    use smt_sim::{MachineConfig, Simulation, SmtLevel};

    fn base_spec(work: u64) -> WorkloadSpec {
        WorkloadSpec::new("test", work)
    }

    /// Drive a workload standalone, emulating a machine that consumes one
    /// fetch per thread per cycle.
    fn drain(w: &mut SyntheticWorkload, threads: usize, max_steps: u64) -> (u64, u64, u64) {
        w.set_thread_count(threads);
        let mut work = 0u64;
        let mut overhead = 0u64;
        let mut sleeps = 0u64;
        let mut now = 0u64;
        let mut wake = vec![0u64; threads];
        for _ in 0..max_steps {
            if w.finished() && (0..threads).all(|t| matches!(w.fetch(t, now), Fetched::Finished)) {
                break;
            }
            for (t, wake_t) in wake.iter_mut().enumerate() {
                if *wake_t > now {
                    continue;
                }
                match w.fetch(t, now) {
                    Fetched::Instr(i) => {
                        if i.work > 0 {
                            work += u64::from(i.work);
                        } else {
                            overhead += 1;
                        }
                    }
                    Fetched::Sleep { until } => {
                        sleeps += 1;
                        *wake_t = until;
                    }
                    Fetched::Finished => {}
                }
            }
            now += 1;
        }
        (work, overhead, sleeps)
    }

    #[test]
    fn emits_exactly_total_work() {
        let mut w = SyntheticWorkload::new(base_spec(10_000));
        let (work, _, _) = drain(&mut w, 4, 100_000);
        assert_eq!(work, 10_000);
        assert!(w.finished());
        assert_eq!(w.work_done(), 10_000);
    }

    #[test]
    fn single_thread_emits_all_work() {
        let mut w = SyntheticWorkload::new(base_spec(5_000));
        let (work, _, _) = drain(&mut w, 1, 100_000);
        assert_eq!(work, 5_000);
    }

    #[test]
    fn deterministic_across_builds() {
        let spec = base_spec(1000);
        let mut a = SyntheticWorkload::new(spec.clone());
        let mut b = SyntheticWorkload::new(spec);
        a.set_thread_count(2);
        b.set_thread_count(2);
        for now in 0..500 {
            let fa = a.fetch(now as usize % 2, now);
            let fb = b.fetch(now as usize % 2, now);
            assert_eq!(fa, fb, "diverged at {now}");
        }
    }

    #[test]
    fn spin_lock_emits_overhead_under_contention() {
        let mut spec = base_spec(20_000);
        spec.sync = SyncSpec::SpinLock {
            cs_interval: 20,
            cs_len: 40,
        };
        let mut w = SyntheticWorkload::new(spec);
        let (work, overhead, _) = drain(&mut w, 8, 400_000);
        assert_eq!(work, 20_000);
        assert!(
            overhead > work / 4,
            "expected heavy spinning: work={work} overhead={overhead}"
        );
    }

    #[test]
    fn spin_lock_no_contention_single_thread() {
        let mut spec = base_spec(5_000);
        spec.sync = SyncSpec::SpinLock {
            cs_interval: 20,
            cs_len: 10,
        };
        let mut w = SyntheticWorkload::new(spec);
        let (work, overhead, _) = drain(&mut w, 1, 200_000);
        assert_eq!(work, 5_000);
        assert_eq!(overhead, 0, "single thread never spins");
    }

    #[test]
    fn blocking_lock_sleeps_instead_of_spinning() {
        let mut spec = base_spec(20_000);
        spec.sync = SyncSpec::BlockingLock {
            cs_interval: 20,
            cs_len: 40,
            wake_latency: 30,
        };
        let mut w = SyntheticWorkload::new(spec);
        let (work, overhead, sleeps) = drain(&mut w, 8, 400_000);
        assert_eq!(work, 20_000);
        assert_eq!(overhead, 0);
        assert!(sleeps > 50, "expected blocking waits: {sleeps}");
    }

    #[test]
    fn barrier_forces_waiting() {
        let mut spec = base_spec(20_000);
        spec.sync = SyncSpec::Barrier {
            interval: 500,
            imbalance: 0.3,
        };
        let mut w = SyntheticWorkload::new(spec);
        let (work, _, sleeps) = drain(&mut w, 4, 400_000);
        assert_eq!(work, 20_000);
        assert!(sleeps > 0, "imbalanced barrier must make threads wait");
    }

    #[test]
    fn amdahl_serializes_some_work() {
        let mut spec = base_spec(20_000);
        spec.sync = SyncSpec::AmdahlSerial {
            serial_fraction: 0.3,
            chunk: 600,
        };
        let mut w = SyntheticWorkload::new(spec);
        let (work, _, sleeps) = drain(&mut w, 4, 400_000);
        assert_eq!(work, 20_000);
        assert!(sleeps > 0, "threads must wait during serial sections");
    }

    #[test]
    fn periodic_idle_sleeps() {
        let mut spec = base_spec(5_000);
        spec.sync = SyncSpec::PeriodicIdle {
            run: 100,
            idle: 200,
        };
        let mut w = SyntheticWorkload::new(spec);
        let (work, _, sleeps) = drain(&mut w, 2, 400_000);
        assert_eq!(work, 5_000);
        assert!(sleeps >= 40, "expected periodic idling: {sleeps}");
    }

    #[test]
    fn reshard_preserves_remaining_work() {
        let mut w = SyntheticWorkload::new(base_spec(10_000));
        w.set_thread_count(4);
        let mut emitted = 0u64;
        let mut now = 0;
        'outer: for _ in 0..10_000 {
            for t in 0..4 {
                if let Fetched::Instr(i) = w.fetch(t, now) {
                    emitted += u64::from(i.work);
                }
                if emitted >= 3_000 {
                    break 'outer;
                }
            }
            now += 1;
        }
        assert!(emitted >= 3_000);
        w.set_thread_count(8);
        let (rest, _, _) = drain_from(&mut w, 8, now, 400_000);
        assert_eq!(emitted + rest, 10_000, "work lost or duplicated on reshard");
        assert!(w.finished());
    }

    fn drain_from(
        w: &mut SyntheticWorkload,
        threads: usize,
        start: u64,
        max_steps: u64,
    ) -> (u64, u64, u64) {
        let mut work = 0u64;
        let mut overhead = 0u64;
        let mut sleeps = 0u64;
        let mut now = start;
        let mut wake = vec![0u64; threads];
        for _ in 0..max_steps {
            if w.finished() {
                break;
            }
            for (t, wake_t) in wake.iter_mut().enumerate() {
                if *wake_t > now {
                    continue;
                }
                match w.fetch(t, now) {
                    Fetched::Instr(i) => {
                        if i.work > 0 {
                            work += u64::from(i.work);
                        } else {
                            overhead += 1;
                        }
                    }
                    Fetched::Sleep { until } => {
                        sleeps += 1;
                        *wake_t = until;
                    }
                    Fetched::Finished => {}
                }
            }
            now += 1;
        }
        (work, overhead, sleeps)
    }

    #[test]
    fn mix_is_respected_in_emitted_stream() {
        let mut spec = base_spec(50_000);
        spec.mix = InstrMix::fp_heavy();
        spec.dep = DepProfile::high_ilp();
        let mut w = SyntheticWorkload::new(spec);
        w.set_thread_count(2);
        let mut counts = [0usize; smt_sim::NUM_CLASSES];
        let mut n = 0;
        let mut now = 0;
        while n < 20_000 {
            for t in 0..2 {
                if let Fetched::Instr(i) = w.fetch(t, now) {
                    counts[i.class.index()] += 1;
                    n += 1;
                }
            }
            now += 1;
        }
        let vs = counts[InstrClass::VectorScalar.index()] as f64 / n as f64;
        assert!((vs - 0.56).abs() < 0.05, "VS fraction {vs}");
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let mut spec = base_spec(5_000);
        spec.mem = MemBehavior::private(1 << 16, crate::spec::AccessPattern::Random);
        let mut w = SyntheticWorkload::new(spec);
        w.set_thread_count(2);
        for now in 0..2_000u64 {
            for t in 0..2 {
                if let Fetched::Instr(i) = w.fetch(t, now) {
                    if i.class.is_mem() {
                        let base = private_base(t);
                        // hot set (2 KiB) + cold working set (64 KiB)
                        assert!(i.addr >= base && i.addr < base + 2048 + (1 << 16));
                    }
                }
            }
        }
    }

    #[test]
    fn runs_on_a_simulated_machine_end_to_end() {
        let mut spec = base_spec(30_000);
        spec.sync = SyncSpec::SpinLock {
            cs_interval: 50,
            cs_len: 30,
        };
        let w = SyntheticWorkload::new(spec);
        let mut sim = Simulation::new(MachineConfig::generic(2), SmtLevel::Smt2, w);
        let res = sim.run_until_finished(5_000_000);
        assert!(res.completed, "did not finish");
        assert_eq!(res.work_done, 30_000);
    }

    #[test]
    fn reconfigure_mid_lock_does_not_wedge() {
        let mut spec = base_spec(40_000);
        spec.sync = SyncSpec::BlockingLock {
            cs_interval: 30,
            cs_len: 50,
            wake_latency: 25,
        };
        let w = SyntheticWorkload::new(spec);
        let mut sim = Simulation::new(MachineConfig::generic(2), SmtLevel::Smt2, w);
        sim.run_cycles(3_000);
        sim.reconfigure(SmtLevel::Smt1);
        let res = sim.run_until_finished(10_000_000);
        assert!(res.completed, "wedged after reconfigure");
        assert_eq!(res.work_done, 40_000);
    }
}

//! Workload specifications.
//!
//! A [`WorkloadSpec`] is the declarative description of a synthetic
//! multithreaded application: its instruction mix, instruction-level
//! parallelism, memory behaviour, branch behaviour, synchronization model,
//! and total work. The catalog (`crate::catalog`) instantiates one spec per
//! paper benchmark; `crate::gen` turns a spec into an executable
//! [`smt_sim::Workload`].
//!
//! The knobs here are exactly the workload properties the paper identifies
//! as deciding SMT preference (Section I): instruction-mix diversity,
//! dependency chains, cache footprint, memory-bandwidth intensity, branch
//! mispredictions, lock contention (spinning), and software scalability
//! (sleeping / Amdahl).

use serde::{Deserialize, Serialize};
use smt_sim::{Error, InstrClass, NUM_CLASSES};

/// Fractions of each instruction class emitted in normal execution.
/// Normalized on construction; sampled per instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstrMix {
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Branches.
    pub branch: f64,
    /// Condition-register ops (POWER-style; integer-ish elsewhere).
    pub cond_reg: f64,
    /// Fixed-point / integer.
    pub fixed: f64,
    /// Vector-scalar / floating point.
    pub vector: f64,
}

impl InstrMix {
    /// Normalize so the fractions sum to 1. Panics if all zero or any
    /// negative.
    pub fn normalized(self) -> InstrMix {
        let s = self.load + self.store + self.branch + self.cond_reg + self.fixed + self.vector;
        assert!(s > 0.0, "instruction mix must have positive mass");
        assert!(
            self.load >= 0.0
                && self.store >= 0.0
                && self.branch >= 0.0
                && self.cond_reg >= 0.0
                && self.fixed >= 0.0
                && self.vector >= 0.0,
            "negative mix fraction"
        );
        InstrMix {
            load: self.load / s,
            store: self.store / s,
            branch: self.branch / s,
            cond_reg: self.cond_reg / s,
            fixed: self.fixed / s,
            vector: self.vector / s,
        }
    }

    /// The ideal SMT instruction mix for the POWER7-like core (Section
    /// II-A): 1/7 loads, 1/7 stores, 1/7 branches (CR folded in), 2/7
    /// fixed-point, 2/7 vector-scalar.
    pub fn ideal_p7() -> InstrMix {
        InstrMix {
            load: 1.0 / 7.0,
            store: 1.0 / 7.0,
            branch: 1.0 / 7.0,
            cond_reg: 0.0,
            fixed: 2.0 / 7.0,
            vector: 2.0 / 7.0,
        }
    }

    /// A fairly diverse general-purpose mix (compute with some memory and
    /// control).
    pub fn balanced() -> InstrMix {
        InstrMix {
            load: 0.18,
            store: 0.10,
            branch: 0.12,
            cond_reg: 0.02,
            fixed: 0.30,
            vector: 0.28,
        }
        .normalized()
    }

    /// Integer-dominated (sorting, graph, compression codes).
    pub fn int_heavy() -> InstrMix {
        InstrMix {
            load: 0.25,
            store: 0.12,
            branch: 0.15,
            cond_reg: 0.03,
            fixed: 0.43,
            vector: 0.02,
        }
        .normalized()
    }

    /// Floating-point dominated (dense numeric kernels).
    pub fn fp_heavy() -> InstrMix {
        InstrMix {
            load: 0.22,
            store: 0.08,
            branch: 0.05,
            cond_reg: 0.01,
            fixed: 0.08,
            vector: 0.56,
        }
        .normalized()
    }

    /// Streaming memory mix (copy/scale/add/triad-style).
    pub fn mem_stream() -> InstrMix {
        InstrMix {
            load: 0.34,
            store: 0.22,
            branch: 0.04,
            cond_reg: 0.0,
            fixed: 0.08,
            vector: 0.32,
        }
        .normalized()
    }

    /// Dense class-fraction vector in [`InstrClass`] index order.
    pub fn as_fractions(&self) -> [f64; NUM_CLASSES] {
        let mut f = [0.0; NUM_CLASSES];
        f[InstrClass::Load.index()] = self.load;
        f[InstrClass::Store.index()] = self.store;
        f[InstrClass::Branch.index()] = self.branch;
        f[InstrClass::CondReg.index()] = self.cond_reg;
        f[InstrClass::FixedPoint.index()] = self.fixed;
        f[InstrClass::VectorScalar.index()] = self.vector;
        f
    }

    /// Sample a class given a uniform random value in [0, 1).
    pub fn sample(&self, u: f64) -> InstrClass {
        let mut acc = self.load;
        if u < acc {
            return InstrClass::Load;
        }
        acc += self.store;
        if u < acc {
            return InstrClass::Store;
        }
        acc += self.branch;
        if u < acc {
            return InstrClass::Branch;
        }
        acc += self.cond_reg;
        if u < acc {
            return InstrClass::CondReg;
        }
        acc += self.fixed;
        if u < acc {
            return InstrClass::FixedPoint;
        }
        InstrClass::VectorScalar
    }
}

/// Register-dependency profile — the ILP knob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepProfile {
    /// Probability an instruction depends on a recent one.
    pub prob: f64,
    /// Dependency distances are drawn uniformly from `1..=max_dist`.
    /// Small distances serialize execution; large ones leave ILP.
    pub max_dist: u8,
}

impl DepProfile {
    /// High ILP: dependencies reach far back, leaving many chains in
    /// flight (vectorizable loops with unrolling).
    pub fn high_ilp() -> DepProfile {
        DepProfile {
            prob: 0.85,
            max_dist: 12,
        }
    }

    /// Moderate ILP — typical scalar code: nearly every instruction reads
    /// a recent result, with a handful of chains overlapping.
    pub fn moderate() -> DepProfile {
        DepProfile {
            prob: 0.9,
            max_dist: 6,
        }
    }
}

/// Memory-address generation pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive accesses advance by the given byte stride
    /// (8 = element-wise sequential, 64 = one new cache line per access).
    Strided(u64),
    /// Uniformly random within the working set.
    Random,
}

/// Memory behaviour of a workload.
///
/// References first roll for *locality*: with probability `locality` they
/// touch a small per-thread hot set (registers-of-the-loop, stack, hot
/// hash buckets — always L1 resident). Cold references then split between
/// the private working set and the shared region per `shared_fraction`.
/// This two-level structure is what lets the catalog dial realistic L1
/// miss rates (a few misses to ~80 misses per 1000 instructions, the
/// x-axis range of the paper's Fig. 2) independently of footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemBehavior {
    /// Private working-set bytes per thread (cold region).
    pub working_set: u64,
    /// Shared working-set bytes (one region for all threads).
    pub shared_working_set: u64,
    /// Fraction of *cold* memory references hitting the shared region.
    pub shared_fraction: f64,
    /// Address pattern (applies to both cold regions).
    pub pattern: AccessPattern,
    /// Fraction of shared references homed on a remote chip (NUMA;
    /// ignored on single-chip machines).
    pub remote_fraction: f64,
    /// Probability a reference touches the per-thread hot set.
    pub locality: f64,
    /// Hot-set bytes (L1-resident by construction).
    pub hot_set: u64,
}

impl MemBehavior {
    /// Tiny, always-L1-resident working set.
    pub fn cache_resident() -> MemBehavior {
        MemBehavior {
            working_set: 4 * 1024,
            shared_working_set: 0,
            shared_fraction: 0.0,
            pattern: AccessPattern::Strided(8),
            remote_fraction: 0.0,
            locality: 1.0,
            hot_set: 2 * 1024,
        }
    }

    /// Per-thread working set of `bytes` with the given pattern, private,
    /// and no hot set (every reference is cold).
    pub fn private(bytes: u64, pattern: AccessPattern) -> MemBehavior {
        MemBehavior {
            working_set: bytes,
            shared_working_set: 0,
            shared_fraction: 0.0,
            pattern,
            remote_fraction: 0.0,
            locality: 0.0,
            hot_set: 2 * 1024,
        }
    }

    /// Mark a fraction of cold accesses as going to a shared region of
    /// `shared_bytes`, of which `remote_fraction` are remote on multi-chip
    /// machines.
    pub fn with_shared(
        mut self,
        shared_bytes: u64,
        fraction: f64,
        remote_fraction: f64,
    ) -> MemBehavior {
        self.shared_working_set = shared_bytes;
        self.shared_fraction = fraction;
        self.remote_fraction = remote_fraction;
        self
    }

    /// Set the probability that a reference touches the L1-resident hot
    /// set instead of the cold working set.
    pub fn with_locality(mut self, locality: f64) -> MemBehavior {
        self.locality = locality;
        self
    }
}

/// Synchronization / scalability model (Section I's "software-related
/// scalability bottlenecks").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SyncSpec {
    /// Embarrassingly parallel: no synchronization.
    None,
    /// One global lock acquired every `cs_interval` work instructions for a
    /// critical section of `cs_len` instructions; waiters *spin*, emitting
    /// zero-work branch/load instructions (skews the mix, burns CPU).
    SpinLock {
        /// Work instructions between acquisitions, per thread.
        cs_interval: u64,
        /// Critical-section length in instructions.
        cs_len: u64,
    },
    /// As `SpinLock`, but waiters *sleep* and poll every `wake_latency`
    /// cycles (futex-style), which shows up in the scalability ratio
    /// instead of the mix.
    BlockingLock {
        /// Work instructions between acquisitions, per thread.
        cs_interval: u64,
        /// Critical-section length in instructions.
        cs_len: u64,
        /// Sleep/poll granularity in cycles.
        wake_latency: u64,
    },
    /// All-thread barrier every `interval` work instructions, with up to
    /// `imbalance` relative jitter in per-thread interval lengths. Waiters
    /// sleep.
    Barrier {
        /// Work instructions between barriers.
        interval: u64,
        /// Relative jitter (0 = perfectly balanced).
        imbalance: f64,
    },
    /// Amdahl-style alternation: parallel phases interleaved with serial
    /// sections of `chunk` instructions executed by a single thread while
    /// the rest sleep; `serial_fraction` of all work is serial.
    AmdahlSerial {
        /// Fraction of total work that is serial.
        serial_fraction: f64,
        /// Serial-section length in instructions.
        chunk: u64,
    },
    /// Periodic I/O-style idling: after every `run` work instructions a
    /// thread sleeps for `idle` cycles.
    PeriodicIdle {
        /// Work instructions between idle periods.
        run: u64,
        /// Idle duration in cycles.
        idle: u64,
    },
    /// Externally load-bound server: total work emission is capped at a
    /// fixed request rate (work units per thousand cycles), regardless of
    /// thread count. Threads ahead of the allowance sleep — more hardware
    /// contexts cannot create more requests, as with DayTrader's fixed
    /// client population.
    RateLimited {
        /// Allowed work units per 1000 cycles, machine-wide.
        work_per_kcycle: u64,
    },
}

/// A complete synthetic-workload description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name (matches the paper's labels for catalog entries).
    pub name: String,
    /// One-line description (Table I column).
    pub description: String,
    /// Suite label (Table I column: NAS, Parsec, SPEC OMP2001, ...).
    pub suite: String,
    /// Instruction mix.
    pub mix: InstrMix,
    /// ILP profile.
    pub dep: DepProfile,
    /// Memory behaviour.
    pub mem: MemBehavior,
    /// Probability a branch is mispredicted.
    pub branch_mispredict_rate: f64,
    /// Synchronization model.
    pub sync: SyncSpec,
    /// Code footprint in bytes: the instruction-cache working set. Small
    /// values (the default) keep the front end hitting the L1I; server-
    /// class applications (SPECjbb, DayTrader) carry hundreds of KiB and
    /// take front-end stalls — gaps SMT can fill.
    pub code_footprint: u64,
    /// Total useful work units (instructions) across all threads.
    pub total_work: u64,
    /// RNG seed; two builds of the same spec behave identically.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A neutral starting spec to customize.
    pub fn new(name: impl Into<String>, total_work: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: name.into(),
            description: String::new(),
            suite: String::new(),
            mix: InstrMix::balanced(),
            dep: DepProfile::moderate(),
            mem: MemBehavior::cache_resident(),
            branch_mispredict_rate: 0.01,
            sync: SyncSpec::None,
            code_footprint: 6 * 1024,
            total_work,
            seed: 0x5317_5e1e_c7ed,
        }
    }

    /// Scale the total work by `factor` (for fast tests / slow sweeps).
    pub fn scaled(mut self, factor: f64) -> WorkloadSpec {
        assert!(factor > 0.0);
        self.total_work = ((self.total_work as f64 * factor) as u64).max(1);
        self
    }

    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), Error> {
        if self.total_work == 0 {
            return Err(Error::InvalidWorkload("total_work must be positive".into()));
        }
        if self.code_footprint < 64 {
            return Err(Error::InvalidWorkload(
                "code footprint must cover at least one cache line".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.branch_mispredict_rate) {
            return Err(Error::InvalidWorkload(
                "branch_mispredict_rate out of [0,1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.mem.shared_fraction)
            || !(0.0..=1.0).contains(&self.mem.remote_fraction)
            || !(0.0..=1.0).contains(&self.mem.locality)
        {
            return Err(Error::InvalidWorkload(
                "memory fractions out of [0,1]".into(),
            ));
        }
        if self.mem.locality > 0.0 && self.mem.hot_set == 0 {
            return Err(Error::InvalidWorkload(
                "hot accesses require a hot set".into(),
            ));
        }
        if self.mem.shared_fraction > 0.0 && self.mem.shared_working_set == 0 {
            return Err(Error::InvalidWorkload(
                "shared accesses require a shared working set".into(),
            ));
        }
        if self.mem.working_set == 0 && self.mem.shared_fraction < 1.0 {
            let has_private_mem = self.mix.load + self.mix.store > 0.0;
            if has_private_mem {
                return Err(Error::InvalidWorkload(
                    "private accesses require a working set".into(),
                ));
            }
        }
        match self.sync {
            SyncSpec::SpinLock {
                cs_interval,
                cs_len,
            }
            | SyncSpec::BlockingLock {
                cs_interval,
                cs_len,
                ..
            } => {
                if cs_interval == 0 || cs_len == 0 {
                    return Err(Error::InvalidWorkload(
                        "lock intervals must be positive".into(),
                    ));
                }
            }
            SyncSpec::Barrier {
                interval,
                imbalance,
            } => {
                if interval == 0 {
                    return Err(Error::InvalidWorkload(
                        "barrier interval must be positive".into(),
                    ));
                }
                if !(0.0..=1.0).contains(&imbalance) {
                    return Err(Error::InvalidWorkload(
                        "barrier imbalance out of [0,1]".into(),
                    ));
                }
            }
            SyncSpec::AmdahlSerial {
                serial_fraction,
                chunk,
            } => {
                if !(0.0..1.0).contains(&serial_fraction) {
                    return Err(Error::InvalidWorkload(
                        "serial_fraction out of [0,1)".into(),
                    ));
                }
                if chunk == 0 {
                    return Err(Error::InvalidWorkload(
                        "serial chunk must be positive".into(),
                    ));
                }
            }
            SyncSpec::PeriodicIdle { run, idle } => {
                if run == 0 || idle == 0 {
                    return Err(Error::InvalidWorkload(
                        "idle parameters must be positive".into(),
                    ));
                }
            }
            SyncSpec::RateLimited { work_per_kcycle } => {
                if work_per_kcycle == 0 {
                    return Err(Error::InvalidWorkload("rate limit must be positive".into()));
                }
            }
            SyncSpec::None => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_normalize_to_one() {
        for m in [
            InstrMix::ideal_p7(),
            InstrMix::balanced(),
            InstrMix::int_heavy(),
            InstrMix::fp_heavy(),
            InstrMix::mem_stream(),
        ] {
            let s: f64 = m.as_fractions().iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{m:?} sums to {s}");
        }
    }

    #[test]
    fn sample_covers_all_mass() {
        let m = InstrMix::balanced();
        // u just below each cumulative boundary returns the right class.
        assert_eq!(m.sample(0.0), InstrClass::Load);
        assert_eq!(m.sample(0.999_999), InstrClass::VectorScalar);
    }

    #[test]
    fn sample_distribution_roughly_matches() {
        let m = InstrMix::int_heavy();
        let n = 100_000;
        let mut counts = [0usize; NUM_CLASSES];
        for k in 0..n {
            let u = (k as f64 + 0.5) / n as f64;
            counts[m.sample(u).index()] += 1;
        }
        let f = m.as_fractions();
        for (i, &c) in counts.iter().enumerate() {
            let got = c as f64 / n as f64;
            assert!(
                (got - f[i]).abs() < 0.01,
                "class {i}: got {got}, want {}",
                f[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn zero_mix_rejected() {
        InstrMix {
            load: 0.0,
            store: 0.0,
            branch: 0.0,
            cond_reg: 0.0,
            fixed: 0.0,
            vector: 0.0,
        }
        .normalized();
    }

    #[test]
    fn spec_builder_and_scaling() {
        let s = WorkloadSpec::new("t", 1000).scaled(0.5);
        assert_eq!(s.total_work, 500);
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_parameters() {
        let mut s = WorkloadSpec::new("t", 1000);
        s.branch_mispredict_rate = 1.5;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::new("t", 1000);
        s.sync = SyncSpec::SpinLock {
            cs_interval: 0,
            cs_len: 10,
        };
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::new("t", 1000);
        s.mem.shared_fraction = 0.5;
        s.mem.shared_working_set = 0;
        assert!(s.validate().is_err());

        let mut s = WorkloadSpec::new("t", 1000);
        s.sync = SyncSpec::AmdahlSerial {
            serial_fraction: 1.0,
            chunk: 10,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn mem_behavior_builders() {
        let m = MemBehavior::private(1 << 20, AccessPattern::Random).with_shared(1 << 16, 0.3, 0.5);
        assert_eq!(m.working_set, 1 << 20);
        assert_eq!(m.shared_working_set, 1 << 16);
        assert!((m.shared_fraction - 0.3).abs() < 1e-12);
    }
}

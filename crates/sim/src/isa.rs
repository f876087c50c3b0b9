//! Instruction representation.
//!
//! Workload generators feed the simulator a per-software-thread stream of
//! decoded [`Instr`] records. The representation is deliberately minimal:
//! the SMT-selection metric depends on *which issue port* an instruction
//! needs, *whether it stalls* (memory, branches, dependencies) and *whether
//! it represents useful work* (spin-loop instructions do not) — not on
//! semantics, so there are no registers or opcodes here, only the fields
//! that drive pipeline behaviour.

use serde::{Deserialize, Serialize};

/// Architectural instruction classes, covering both modeled architectures.
///
/// The POWER7-like descriptor routes each class to a dedicated port kind
/// (Fig. 4 of the paper); the Nehalem-like descriptor maps several classes
/// onto shared ports (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstrClass {
    /// Memory read. Latency comes from the cache hierarchy.
    Load,
    /// Memory write (write-allocate; completes quickly, consumes bandwidth).
    Store,
    /// Branch; may be flagged as mispredicted, which stalls fetch.
    Branch,
    /// Condition-register logic (POWER-specific; folded into the branch unit
    /// for the ideal-mix computation, per Section II-A).
    CondReg,
    /// Fixed-point / integer ALU.
    FixedPoint,
    /// Vector-scalar / floating-point (the paper's VSU bucket).
    VectorScalar,
}

/// Number of distinct instruction classes.
pub const NUM_CLASSES: usize = 6;

impl InstrClass {
    /// All classes, in `index` order.
    pub const ALL: [InstrClass; NUM_CLASSES] = [
        InstrClass::Load,
        InstrClass::Store,
        InstrClass::Branch,
        InstrClass::CondReg,
        InstrClass::FixedPoint,
        InstrClass::VectorScalar,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            InstrClass::Load => 0,
            InstrClass::Store => 1,
            InstrClass::Branch => 2,
            InstrClass::CondReg => 3,
            InstrClass::FixedPoint => 4,
            InstrClass::VectorScalar => 5,
        }
    }

    /// Inverse of [`InstrClass::index`]; panics on out-of-range input.
    pub fn from_index(i: usize) -> InstrClass {
        Self::ALL[i]
    }

    /// Whether the class references memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, InstrClass::Load | InstrClass::Store)
    }
}

/// Maximum register-dependency distance the pipeline tracks. A dependency
/// on an instruction more than `DEP_WINDOW - 1` slots earlier is treated as
/// already satisfied (it will long since have completed).
pub const DEP_WINDOW: usize = 64;

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instr {
    /// Which functional-unit class this instruction needs.
    pub class: InstrClass,
    /// Register dependency: this instruction reads the result of the
    /// instruction `dep_dist` earlier in the same thread's program order.
    /// `0` means no dependency. Values are clamped to `DEP_WINDOW - 1`.
    pub dep_dist: u8,
    /// Effective address for `Load`/`Store`; ignored otherwise.
    pub addr: u64,
    /// For multi-chip systems: the access targets memory homed on a remote
    /// chip (shared data). Ignored on single-chip systems.
    pub remote: bool,
    /// For `Branch`: the branch predictor got this one wrong, costing a
    /// fetch bubble of the architecture's mispredict penalty. Used when
    /// the machine has no predictor model configured (the calibrated
    /// default); ignored otherwise.
    pub mispredict: bool,
    /// For `Branch`: the actual outcome, consumed by the optional gshare
    /// predictor model.
    pub taken: bool,
    /// Useful-work units this instruction contributes. Spin-loop and other
    /// overhead instructions carry `0`; ordinary instructions carry `1`.
    pub work: u8,
    /// Program counter of this instruction (instruction-cache address).
    /// `0` keeps the whole stream on one line (no front-end misses) — the
    /// right default for kernels whose code fits the L1I.
    pub pc: u64,
}

impl Instr {
    /// A plain, dependency-free ALU-style instruction of `class` carrying
    /// one unit of work.
    pub fn simple(class: InstrClass) -> Instr {
        Instr {
            class,
            dep_dist: 0,
            addr: 0,
            remote: false,
            mispredict: false,
            taken: true,
            work: 1,
            pc: 0,
        }
    }

    /// A load from `addr` with one unit of work.
    pub fn load(addr: u64) -> Instr {
        Instr {
            addr,
            ..Instr::simple(InstrClass::Load)
        }
    }

    /// A store to `addr` with one unit of work.
    pub fn store(addr: u64) -> Instr {
        Instr {
            addr,
            ..Instr::simple(InstrClass::Store)
        }
    }

    /// A branch; `mispredict` marks a predictor miss.
    pub fn branch(mispredict: bool) -> Instr {
        Instr {
            mispredict,
            ..Instr::simple(InstrClass::Branch)
        }
    }

    /// Set the register-dependency distance (builder style).
    pub fn with_dep(mut self, dep_dist: u8) -> Instr {
        self.dep_dist = dep_dist.min((DEP_WINDOW - 1) as u8);
        self
    }

    /// Mark as overhead (no useful work), e.g. a spin-loop body instruction.
    pub fn overhead(mut self) -> Instr {
        self.work = 0;
        self
    }

    /// Set the program counter (builder style).
    pub fn at_pc(mut self, pc: u64) -> Instr {
        self.pc = pc;
        self
    }
}

/// What a software thread hands the fetch stage when asked for its next
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// The next instruction in program order.
    Instr(Instr),
    /// The thread blocks (sleep, blocking lock, barrier, I/O) and will not
    /// run again before the given cycle. The workload will be polled again
    /// at wake-up, so waiting on a condition is expressed as repeated short
    /// sleeps.
    Sleep {
        /// Absolute cycle at which the thread becomes runnable again.
        until: u64,
    },
    /// The thread has no more work, ever.
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_roundtrip() {
        for (i, &c) in InstrClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(InstrClass::from_index(i), c);
        }
    }

    #[test]
    fn is_mem_only_for_loads_and_stores() {
        assert!(InstrClass::Load.is_mem());
        assert!(InstrClass::Store.is_mem());
        assert!(!InstrClass::Branch.is_mem());
        assert!(!InstrClass::FixedPoint.is_mem());
        assert!(!InstrClass::VectorScalar.is_mem());
        assert!(!InstrClass::CondReg.is_mem());
    }

    #[test]
    fn builders_set_fields() {
        let l = Instr::load(0x40);
        assert_eq!(l.class, InstrClass::Load);
        assert_eq!(l.addr, 0x40);
        assert_eq!(l.work, 1);

        let b = Instr::branch(true);
        assert!(b.mispredict);

        let d = Instr::simple(InstrClass::FixedPoint).with_dep(3);
        assert_eq!(d.dep_dist, 3);

        let o = Instr::simple(InstrClass::Branch).overhead();
        assert_eq!(o.work, 0);

        let p = Instr::simple(InstrClass::Load).at_pc(0x4000);
        assert_eq!(p.pc, 0x4000);
    }

    #[test]
    fn dep_dist_clamped_to_window() {
        let d = Instr::simple(InstrClass::FixedPoint).with_dep(255);
        assert_eq!(d.dep_dist as usize, DEP_WINDOW - 1);
    }
}

//! Cache hierarchy and memory-bandwidth model.
//!
//! Each core owns a private L1D and L2; each chip owns a shared L3 and a
//! memory controller with finite bandwidth. The controller models bandwidth
//! as a service rate: each cache-line request occupies the channel for
//! `line_bytes / bytes_per_cycle` cycles, so when demand exceeds the service
//! rate, requests queue and observed memory latency grows without bound —
//! exactly the "intensive use of the memory system" contention mode the
//! paper lists as an SMT anti-pattern (Section I).
//!
//! On multi-chip machines an access flagged `remote` is serviced by the
//! *other* chip's controller with an additional cross-chip latency,
//! providing the NUMA effects of the paper's two-chip experiments
//! (Figs. 13-15).

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles (total latency to return data from this level).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry (at least 1).
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        ((lines as usize) / self.assoc).max(1)
    }
}

/// Memory (DRAM) parameters for one chip.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemConfig {
    /// Unloaded memory latency in cycles.
    pub latency: u64,
    /// Sustained bandwidth: bytes transferable per core cycle, shared by
    /// all cores on the chip.
    pub bytes_per_cycle: f64,
    /// Extra latency for a request homed on a remote chip.
    pub remote_extra_latency: u64,
}

/// A set-associative, LRU, tag-only cache. `true` return values are hits.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Per-set tag stacks, most-recently-used first.
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_shift: u32,
    num_sets: u64,
    /// Hit latency.
    pub latency: u64,
    /// Accesses observed (for diagnostics).
    pub accesses: u64,
    /// Misses observed.
    pub misses: u64,
}

impl Cache {
    /// Build an empty cache from its configuration.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.assoc > 0, "associativity must be nonzero");
        let num_sets = cfg.num_sets();
        Cache {
            sets: vec![Vec::with_capacity(cfg.assoc); num_sets],
            assoc: cfg.assoc,
            line_shift: cfg.line_bytes.trailing_zeros(),
            num_sets: num_sets as u64,
            latency: cfg.latency,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line % self.num_sets) as usize, line / self.num_sets)
    }

    /// Probe without filling or updating recency: used to decide whether a
    /// load needs a load-miss-queue slot before committing to the access.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].contains(&tag)
    }

    /// Access `addr`: returns `true` on hit. On miss the line is filled
    /// (allocate-on-miss for both loads and stores), evicting the LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.accesses += 1;
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = ways.remove(pos);
            ways.insert(0, t);
            true
        } else {
            self.misses += 1;
            ways.insert(0, tag);
            if ways.len() > self.assoc {
                ways.pop();
            }
            false
        }
    }

    /// Forget all contents (used when reconfiguration should start cold).
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// Finite-bandwidth memory channel for one chip.
#[derive(Debug, Clone)]
pub struct MemoryController {
    /// Cycle (fractional) at which the channel next becomes free.
    next_free: f64,
    /// Channel occupancy per line request.
    cycles_per_request: f64,
    /// Unloaded latency.
    latency: u64,
    /// Extra cycles when the requester sits on another chip.
    remote_extra: u64,
    /// Requests served.
    pub requests: u64,
}

impl MemoryController {
    /// Build a controller from memory parameters and the L3 line size
    /// (requests are line-sized).
    pub fn new(mem: MemConfig, line_bytes: u64) -> MemoryController {
        assert!(
            mem.bytes_per_cycle > 0.0,
            "memory bandwidth must be positive"
        );
        MemoryController {
            next_free: 0.0,
            cycles_per_request: line_bytes as f64 / mem.bytes_per_cycle,
            latency: mem.latency,
            remote_extra: mem.remote_extra_latency,
            requests: 0,
        }
    }

    /// Service one line request issued at `now`; returns the absolute cycle
    /// at which data arrives. Queueing delay is `start - now`.
    pub fn service(&mut self, now: u64, from_remote_chip: bool) -> u64 {
        let start = self.next_free.max(now as f64);
        self.next_free = start + self.cycles_per_request;
        self.requests += 1;
        start as u64
            + self.latency
            + if from_remote_chip {
                self.remote_extra
            } else {
                0
            }
    }

    /// Current queueing delay a request issued at `now` would see.
    pub fn backlog(&self, now: u64) -> u64 {
        (self.next_free - now as f64).max(0.0) as u64
    }
}

/// Outcome of a memory access walked through the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycles until the data is available (0-based from issue cycle).
    pub latency: u64,
    /// Missed in L1D.
    pub l1_miss: bool,
    /// Missed in L2.
    pub l2_miss: bool,
    /// Missed in L3 (went to memory).
    pub l3_miss: bool,
    /// Request was serviced by a remote chip's controller.
    pub remote: bool,
}

/// The full memory system of a machine: per-core L1/L2, per-chip L3 and
/// memory controller.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    l1: Vec<Cache>,
    l1i: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Vec<Cache>,
    ctrl: Vec<MemoryController>,
    cores_per_chip: usize,
    line_bytes: u64,
}

impl MemorySystem {
    /// Build caches for `chips * cores_per_chip` cores.
    pub fn new(
        chips: usize,
        cores_per_chip: usize,
        l1: CacheConfig,
        l2: CacheConfig,
        l3: CacheConfig,
        mem: MemConfig,
    ) -> MemorySystem {
        Self::with_icache(chips, cores_per_chip, l1, l1, l2, l3, mem)
    }

    /// Build with a distinct instruction-cache geometry.
    pub fn with_icache(
        chips: usize,
        cores_per_chip: usize,
        l1: CacheConfig,
        l1i: CacheConfig,
        l2: CacheConfig,
        l3: CacheConfig,
        mem: MemConfig,
    ) -> MemorySystem {
        assert!(chips > 0 && cores_per_chip > 0);
        let ncores = chips * cores_per_chip;
        MemorySystem {
            l1: (0..ncores).map(|_| Cache::new(l1)).collect(),
            l1i: (0..ncores).map(|_| Cache::new(l1i)).collect(),
            l2: (0..ncores).map(|_| Cache::new(l2)).collect(),
            l3: (0..chips).map(|_| Cache::new(l3)).collect(),
            ctrl: (0..chips)
                .map(|_| MemoryController::new(mem, l3.line_bytes))
                .collect(),
            cores_per_chip,
            line_bytes: l1.line_bytes,
        }
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.ctrl.len()
    }

    /// Chip that owns `core`.
    #[inline]
    pub fn chip_of(&self, core: usize) -> usize {
        core / self.cores_per_chip
    }

    /// Line size used for probes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Would a load from `core` hit in L1 (no state change)?
    #[inline]
    pub fn probe_l1(&self, core: usize, addr: u64) -> bool {
        self.l1[core].probe(addr)
    }

    /// Instruction fetch for `core` at `pc`: hits in the L1I are free
    /// (covered by the pipeline); misses walk the shared L2/L3/memory path
    /// and return the front-end stall in `latency`.
    pub fn fetch_access(&mut self, core: usize, pc: u64, now: u64) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        if self.l1i[core].access(pc) {
            return out; // latency 0: L1I hits are pipelined away
        }
        out.l1_miss = true;
        if self.l2[core].access(pc) {
            out.latency = self.l2[core].latency;
            return out;
        }
        out.l2_miss = true;
        let chip = self.chip_of(core);
        if self.l3[chip].access(pc) {
            out.latency = self.l3[chip].latency;
            return out;
        }
        out.l3_miss = true;
        let arrive = self.ctrl[chip].service(now, false);
        out.latency = arrive.saturating_sub(now).max(1);
        out
    }

    /// Walk an access through the hierarchy, filling lines on the way, and
    /// return the outcome. `remote` marks data homed on a remote chip
    /// (meaningful only on multi-chip machines).
    // Always inlined: the plain and the profiled `Core::try_issue` both
    // call it, and as an out-of-line call it slows the plain issue stage.
    #[inline(always)]
    pub fn access(&mut self, core: usize, addr: u64, remote: bool, now: u64) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        if self.l1[core].access(addr) {
            out.latency = self.l1[core].latency;
            return out;
        }
        out.l1_miss = true;
        if self.l2[core].access(addr) {
            out.latency = self.l2[core].latency;
            return out;
        }
        out.l2_miss = true;
        let chip = self.chip_of(core);
        if self.l3[chip].access(addr) {
            out.latency = self.l3[chip].latency;
            return out;
        }
        out.l3_miss = true;
        let (target, is_remote) = if remote && self.chips() > 1 {
            ((chip + 1) % self.chips(), true)
        } else {
            (chip, false)
        };
        out.remote = is_remote;
        let arrive = self.ctrl[target].service(now, is_remote);
        out.latency = arrive.saturating_sub(now).max(1);
        out
    }

    /// Memory-channel backlog of a chip, for diagnostics.
    pub fn backlog(&self, chip: usize, now: u64) -> u64 {
        self.ctrl[chip].backlog(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_l1() -> CacheConfig {
        CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            line_bytes: 64,
            latency: 2,
        }
    }

    fn cfgs() -> (CacheConfig, CacheConfig, CacheConfig, MemConfig) {
        (
            small_l1(),
            CacheConfig {
                size_bytes: 4096,
                assoc: 4,
                line_bytes: 64,
                latency: 10,
            },
            CacheConfig {
                size_bytes: 16384,
                assoc: 8,
                line_bytes: 64,
                latency: 30,
            },
            MemConfig {
                latency: 100,
                bytes_per_cycle: 16.0,
                remote_extra_latency: 50,
            },
        )
    }

    #[test]
    fn cache_hit_after_fill() {
        let mut c = Cache::new(small_l1());
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert_eq!(c.accesses, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn cache_same_line_different_offsets_hit() {
        let mut c = Cache::new(small_l1());
        assert!(!c.access(0x80));
        assert!(c.access(0x81));
        assert!(c.access(0xBF));
    }

    #[test]
    fn cache_lru_eviction() {
        // 1024 B / 64 B lines / 2-way = 8 sets. Three lines mapping to the
        // same set: line numbers 0, 8, 16 => addrs 0, 8*64, 16*64.
        let mut c = Cache::new(small_l1());
        c.access(0);
        c.access(8 * 64);
        c.access(16 * 64); // evicts line 0 (LRU)
        assert!(!c.access(0), "LRU line should have been evicted");
        // line 16*64 was MRU before the re-fill of 0; 8*64 got evicted by 0.
        assert!(c.access(16 * 64));
    }

    #[test]
    fn cache_probe_does_not_fill() {
        let mut c = Cache::new(small_l1());
        assert!(!c.probe(0x40));
        assert!(!c.probe(0x40), "probe must not fill");
        c.access(0x40);
        assert!(c.probe(0x40));
    }

    #[test]
    fn num_sets_at_least_one() {
        let cfg = CacheConfig {
            size_bytes: 64,
            assoc: 4,
            line_bytes: 64,
            latency: 1,
        };
        assert_eq!(cfg.num_sets(), 1);
        Cache::new(cfg).access(0);
    }

    #[test]
    fn controller_unloaded_latency() {
        let (_, _, _, mem) = cfgs();
        let mut m = MemoryController::new(mem, 64);
        assert_eq!(m.service(1000, false), 1100);
    }

    #[test]
    fn controller_queues_under_load() {
        let (_, _, _, mem) = cfgs();
        // 64-byte lines at 16 B/cycle = 4 cycles occupancy per request.
        let mut m = MemoryController::new(mem, 64);
        let a = m.service(0, false);
        let b = m.service(0, false);
        let c = m.service(0, false);
        assert_eq!(a, 100);
        assert_eq!(b, 104);
        assert_eq!(c, 108);
        assert_eq!(m.backlog(0), 12);
        // After the backlog drains, latency is unloaded again.
        assert_eq!(m.service(1000, false), 1100);
    }

    #[test]
    fn controller_remote_penalty() {
        let (_, _, _, mem) = cfgs();
        let mut m = MemoryController::new(mem, 64);
        assert_eq!(m.service(0, true), 150);
    }

    #[test]
    fn hierarchy_walk_latencies() {
        let (l1, l2, l3, mem) = cfgs();
        let mut ms = MemorySystem::new(1, 2, l1, l2, l3, mem);
        // Cold: full walk to memory.
        let out = ms.access(0, 0x1000, false, 0);
        assert!(out.l1_miss && out.l2_miss && out.l3_miss);
        assert_eq!(out.latency, 100);
        // Warm: L1 hit.
        let out = ms.access(0, 0x1000, false, 10);
        assert!(!out.l1_miss);
        assert_eq!(out.latency, 2);
    }

    #[test]
    fn hierarchy_l3_shared_between_cores_on_chip() {
        let (l1, l2, l3, mem) = cfgs();
        let mut ms = MemorySystem::new(1, 2, l1, l2, l3, mem);
        ms.access(0, 0x2000, false, 0); // core 0 fills L3
        let out = ms.access(1, 0x2000, false, 10); // core 1 misses L1/L2, hits L3
        assert!(out.l1_miss && out.l2_miss && !out.l3_miss);
        assert_eq!(out.latency, 30);
    }

    #[test]
    fn hierarchy_l1_private_between_cores() {
        let (l1, l2, l3, mem) = cfgs();
        let mut ms = MemorySystem::new(1, 2, l1, l2, l3, mem);
        ms.access(0, 0x3000, false, 0);
        assert!(ms.probe_l1(0, 0x3000));
        assert!(!ms.probe_l1(1, 0x3000));
    }

    #[test]
    fn remote_access_uses_other_chip_and_pays_extra() {
        let (l1, l2, l3, mem) = cfgs();
        let mut ms = MemorySystem::new(2, 1, l1, l2, l3, mem);
        let out = ms.access(0, 0x4000, true, 0);
        assert!(out.remote);
        assert_eq!(out.latency, 150);
        // Local access on chip 0 still sees an idle local controller.
        let out2 = ms.access(0, 0x9000, false, 0);
        assert!(!out2.remote);
        assert_eq!(out2.latency, 100);
    }

    #[test]
    fn remote_flag_ignored_on_single_chip() {
        let (l1, l2, l3, mem) = cfgs();
        let mut ms = MemorySystem::new(1, 1, l1, l2, l3, mem);
        let out = ms.access(0, 0x4000, true, 0);
        assert!(!out.remote);
        assert_eq!(out.latency, 100);
    }

    #[test]
    fn chip_of_maps_cores() {
        let (l1, l2, l3, mem) = cfgs();
        let ms = MemorySystem::new(2, 4, l1, l2, l3, mem);
        assert_eq!(ms.chip_of(0), 0);
        assert_eq!(ms.chip_of(3), 0);
        assert_eq!(ms.chip_of(4), 1);
        assert_eq!(ms.chip_of(7), 1);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Cache::new(small_l1());
        c.access(0x40);
        c.flush();
        assert!(!c.probe(0x40));
    }
}

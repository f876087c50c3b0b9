//! Thread-to-core placement: searching the space of job-to-SMT-slot
//! assignments for the co-run schedule the compatibility model predicts
//! fastest, and validating that prediction against the simulator oracle.
//!
//! The SMT-selection metric picks a *level*; the allocator picks a
//! *placement*: which of M single-threaded jobs share which core's SMT
//! contexts. A [`Placement`] groups job indices by core; the objective is
//! the sum over cores of [`CompatModel::core_throughput`] over the jobs'
//! [`ThreadSignature`]s. Three searches are provided behind
//! [`AllocatorConfig`] (a fluent builder mirroring the service's
//! `ServerConfig`): a greedy seeder, a swap/relocate local-search improver
//! seeded by the greedy answer, and exact exhaustive enumeration of all
//! set partitions for small M — so the heuristics are testable against
//! the optimum.
//!
//! Ground truth comes from [`placement_oracle`]: simulate *every* feasible
//! placement with a pinned [`PlacedWorkload`] and rank the predicted-best
//! placement by measured throughput ([`PlacementOracleReport::regret`]).
//! [`scenarios`] packages the three suites the experiments gate on.

use serde::{Deserialize, Serialize};
use smt_sim::{Error, MachineConfig, Simulation, SmtLevel, WindowMeasurement, Workload};
use smt_workloads::{PlacedWorkload, SyntheticWorkload, WorkloadSpec};
use smtsm::{CompatModel, MetricSpec, ThreadSignature};

/// An assignment of job indices to cores: `cores[c]` lists the jobs
/// sharing core `c`'s SMT contexts. Cores not mentioned stay empty.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Job indices grouped by core, in canonical order (each group
    /// ascending, groups ordered by their smallest member).
    pub cores: Vec<Vec<usize>>,
}

impl Placement {
    /// Canonicalize: sort jobs within each core, drop empty cores, order
    /// cores by their smallest job. Placements that assign the same job
    /// sets to (interchangeable) cores compare equal after this.
    pub fn canonical(mut self) -> Placement {
        self.cores.retain(|c| !c.is_empty());
        for core in &mut self.cores {
            core.sort_unstable();
        }
        self.cores.sort();
        self
    }

    /// Number of placed jobs.
    pub fn num_jobs(&self) -> usize {
        self.cores.iter().map(|c| c.len()).sum()
    }

    /// Software-thread slot map for a machine of `ncores` cores whose
    /// contexts are numbered `thread = context * ncores + core` (the
    /// simulator's binding). `slot_map(..)[t]` is the job on thread `t`.
    pub fn slot_map(&self, ncores: usize, ways: usize) -> Vec<Option<usize>> {
        assert!(self.cores.len() <= ncores, "placement uses too many cores");
        let mut slots = vec![None; ncores * ways];
        for (c, jobs) in self.cores.iter().enumerate() {
            assert!(jobs.len() <= ways, "core {c} over SMT capacity");
            for (k, &j) in jobs.iter().enumerate() {
                slots[k * ncores + c] = Some(j);
            }
        }
        slots
    }
}

/// Which placement search to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Greedy seeding only (largest job first, best marginal core).
    Greedy,
    /// Greedy seed improved by swap/relocate hill climbing.
    LocalSearch,
    /// Exact: enumerate every set partition that fits the machine.
    Exhaustive,
    /// Exhaustive when M is small enough to enumerate, else local search.
    Auto,
}

/// A solved placement with its predicted throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// The chosen placement (canonical form).
    pub placement: Placement,
    /// Predicted total useful-work throughput (work units per cycle).
    pub predicted: f64,
    /// Predicted throughput per placed core (same order as `placement`).
    pub per_core: Vec<f64>,
    /// Candidate placements the search scored.
    pub evaluated: u64,
}

/// The placement answer served by `smtselect place` and the `smtd`
/// daemon's `place` verb — like [`crate::recommend::Recommendation`],
/// one shared struct so both paths render byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementReport {
    /// Thread ids in signature order (job index `i` is thread `threads[i]`).
    pub threads: Vec<u32>,
    /// Thread ids grouped by core (the placement, in thread-id terms).
    pub cores: Vec<Vec<u32>>,
    /// Predicted total throughput of the placement.
    pub predicted: f64,
    /// Predicted throughput per placed core.
    pub per_core: Vec<f64>,
    /// Counter windows folded into the signatures.
    pub windows: u64,
}

impl PlacementReport {
    /// Render an outcome in thread-id terms.
    pub fn from_outcome(threads: &[u32], outcome: &PlacementOutcome, windows: u64) -> Self {
        PlacementReport {
            threads: threads.to_vec(),
            cores: outcome
                .placement
                .cores
                .iter()
                .map(|core| core.iter().map(|&j| threads[j]).collect())
                .collect(),
            predicted: outcome.predicted,
            per_core: outcome.per_core.clone(),
            windows,
        }
    }
}

/// Fluent configuration of a placement solve, mirroring the service's
/// `ServerConfig` builder idiom.
///
/// ```
/// use smt_sched::allocator::{AllocatorConfig, SearchStrategy};
/// use smt_sim::MachineConfig;
/// use smtsm::{MetricSpec, ThreadSignature};
///
/// let spec = MetricSpec::power7();
/// let sigs: Vec<ThreadSignature> =
///     (0..3).map(|_| ThreadSignature::from_windows(&spec, &[])).collect();
/// let outcome = AllocatorConfig::for_machine(MachineConfig::power7(1))
///     .threads(sigs)
///     .search(SearchStrategy::Auto)
///     .solve()
///     .unwrap();
/// assert_eq!(outcome.placement.num_jobs(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct AllocatorConfig {
    cfg: MachineConfig,
    sigs: Vec<ThreadSignature>,
    search: SearchStrategy,
    model: CompatModel,
}

impl AllocatorConfig {
    /// Start from the machine whose cores and SMT contexts are being
    /// allocated. Capacity is `total_cores x max_smt.ways()`.
    pub fn for_machine(cfg: MachineConfig) -> AllocatorConfig {
        AllocatorConfig {
            cfg,
            sigs: Vec::new(),
            search: SearchStrategy::Auto,
            model: CompatModel::default(),
        }
    }

    /// The threads to place, as solo-run signatures. Job index `i` in the
    /// resulting [`Placement`] refers to `sigs[i]`.
    pub fn threads(mut self, sigs: Vec<ThreadSignature>) -> AllocatorConfig {
        self.sigs = sigs;
        self
    }

    /// Select the search strategy (default [`SearchStrategy::Auto`]).
    pub fn search(mut self, search: SearchStrategy) -> AllocatorConfig {
        self.search = search;
        self
    }

    /// Override the compatibility model's weights.
    pub fn model(mut self, model: CompatModel) -> AllocatorConfig {
        self.model = model;
        self
    }

    /// Run the configured search. Errors if there are no threads or more
    /// threads than hardware contexts.
    pub fn solve(&self) -> Result<PlacementOutcome, Error> {
        let ncores = self.cfg.total_cores();
        let ways = self.cfg.arch.max_smt.ways();
        if self.sigs.is_empty() {
            return Err(Error::InvalidMeasurement(
                "placement needs at least one thread signature".into(),
            ));
        }
        if self.sigs.len() > ncores * ways {
            return Err(Error::InvalidMachine(format!(
                "{} threads exceed {} hardware contexts",
                self.sigs.len(),
                ncores * ways
            )));
        }
        let solver = Solver::new(&self.sigs, &self.model, ncores, ways);
        let (placement, evaluated) = match self.search {
            SearchStrategy::Greedy => (solver.greedy(), self.sigs.len() as u64),
            SearchStrategy::LocalSearch => solver.local_search(solver.greedy()),
            SearchStrategy::Exhaustive => solver.exhaustive(),
            SearchStrategy::Auto => {
                if self.sigs.len() <= 9 {
                    solver.exhaustive()
                } else {
                    solver.local_search(solver.greedy())
                }
            }
        };
        let placement = placement.canonical();
        let per_core: Vec<f64> = placement
            .cores
            .iter()
            .map(|core| solver.core_tput(core))
            .collect();
        Ok(PlacementOutcome {
            predicted: per_core.iter().sum(),
            per_core,
            placement,
            evaluated,
        })
    }
}

/// Search engine over one solve's precomputed pairwise compatibilities.
struct Solver<'a> {
    sigs: &'a [ThreadSignature],
    model: &'a CompatModel,
    compat: Vec<Vec<f64>>,
    ncores: usize,
    ways: usize,
}

impl<'a> Solver<'a> {
    fn new(
        sigs: &'a [ThreadSignature],
        model: &'a CompatModel,
        ncores: usize,
        ways: usize,
    ) -> Solver<'a> {
        let m = sigs.len();
        let mut compat = vec![vec![1.0; m]; m];
        for i in 0..m {
            for j in (i + 1)..m {
                let c = model.compatibility(&sigs[i], &sigs[j]);
                compat[i][j] = c;
                compat[j][i] = c;
            }
        }
        Solver {
            sigs,
            model,
            compat,
            ncores,
            ways,
        }
    }

    /// Predicted throughput of one core's job group, from the cached
    /// pairwise compatibilities.
    fn core_tput(&self, group: &[usize]) -> f64 {
        let sum: f64 = group.iter().map(|&j| self.sigs[j].tput).sum();
        let mut penalty = 0.0;
        for (a, &i) in group.iter().enumerate() {
            for &j in &group[a + 1..] {
                penalty += 1.0 - self.compat[i][j];
            }
        }
        sum / (1.0 + self.model.contention * penalty)
    }

    fn total(&self, cores: &[Vec<usize>]) -> f64 {
        cores.iter().map(|c| self.core_tput(c)).sum()
    }

    /// Greedy seeding: place jobs in descending solo-throughput order,
    /// each on the core (existing or fresh) with the best marginal gain.
    fn greedy(&self) -> Placement {
        let mut order: Vec<usize> = (0..self.sigs.len()).collect();
        order.sort_by(|&a, &b| {
            self.sigs[b]
                .tput
                .partial_cmp(&self.sigs[a].tput)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut cores: Vec<Vec<usize>> = Vec::new();
        for &j in &order {
            let mut best: Option<(usize, f64)> = None;
            for (c, core) in cores.iter().enumerate() {
                if core.len() >= self.ways {
                    continue;
                }
                let mut with = core.clone();
                with.push(j);
                let gain = self.core_tput(&with) - self.core_tput(core);
                if best.map(|(_, g)| gain > g).unwrap_or(true) {
                    best = Some((c, gain));
                }
            }
            // A fresh core (if any remain) hosts the job at full solo
            // throughput — take it unless an existing core gains more.
            if cores.len() < self.ncores && best.map(|(_, g)| self.sigs[j].tput > g).unwrap_or(true)
            {
                cores.push(vec![j]);
            } else {
                let (c, _) = best.expect("no core available");
                cores[c].push(j);
            }
        }
        Placement { cores }
    }

    /// Hill climbing over relocate (move one job to another core with a
    /// free context) and swap (exchange two jobs between cores) moves,
    /// applying the best improving move until none remains.
    fn local_search(&self, seed: Placement) -> (Placement, u64) {
        let mut cores = seed.cores;
        // Always keep an empty core open for relocations, capacity
        // permitting; empties are dropped by canonicalization later.
        if cores.len() < self.ncores {
            cores.push(Vec::new());
        }
        let mut evaluated = 0u64;
        for _round in 0..200 {
            let current = self.total(&cores);
            let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
            let mut consider = |cand: Vec<Vec<usize>>, evaluated: &mut u64| {
                *evaluated += 1;
                let t = self.total(&cand);
                if t > current + 1e-12 && best.as_ref().map(|(bt, _)| t > *bt).unwrap_or(true) {
                    best = Some((t, cand));
                }
            };
            for a in 0..cores.len() {
                for ia in 0..cores[a].len() {
                    for b in 0..cores.len() {
                        if a == b {
                            continue;
                        }
                        // Relocate cores[a][ia] -> core b.
                        if cores[b].len() < self.ways {
                            let mut cand = cores.clone();
                            let j = cand[a].remove(ia);
                            cand[b].push(j);
                            consider(cand, &mut evaluated);
                        }
                        // Swap with each job of core b (once per pair).
                        if a < b {
                            for ib in 0..cores[b].len() {
                                let mut cand = cores.clone();
                                let j = cand[a][ia];
                                cand[a][ia] = cand[b][ib];
                                cand[b][ib] = j;
                                consider(cand, &mut evaluated);
                            }
                        }
                    }
                }
            }
            match best {
                Some((_, cand)) => {
                    cores = cand;
                    // Reopen an empty core if the last one was consumed.
                    if cores.iter().all(|c| !c.is_empty()) && cores.len() < self.ncores {
                        cores.push(Vec::new());
                    }
                }
                None => break,
            }
        }
        (Placement { cores }, evaluated)
    }

    /// Exact search: enumerate every set partition of the jobs into at
    /// most `ncores` groups of at most `ways`, keeping the best. Each
    /// partition is generated exactly once (job 0 anchors the first
    /// group, and a job may only open the next empty group).
    fn exhaustive(&self) -> (Placement, u64) {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
        let mut evaluated = 0u64;
        self.enumerate(0, &mut groups, &mut best, &mut evaluated);
        let (_, cores) = best.expect("at least one partition exists");
        (Placement { cores }, evaluated)
    }

    fn enumerate(
        &self,
        job: usize,
        groups: &mut Vec<Vec<usize>>,
        best: &mut Option<(f64, Vec<Vec<usize>>)>,
        evaluated: &mut u64,
    ) {
        if job == self.sigs.len() {
            *evaluated += 1;
            let t = self.total(groups);
            if best.as_ref().map(|(bt, _)| t > *bt).unwrap_or(true) {
                *best = Some((t, groups.clone()));
            }
            return;
        }
        for g in 0..groups.len() {
            if groups[g].len() < self.ways {
                groups[g].push(job);
                self.enumerate(job + 1, groups, best, evaluated);
                groups[g].pop();
            }
        }
        if groups.len() < self.ncores {
            groups.push(vec![job]);
            self.enumerate(job + 1, groups, best, evaluated);
            groups.pop();
        }
    }
}

/// Enumerate every feasible placement of `m` jobs on `ncores` cores of
/// `ways` contexts, in canonical form (used by the oracle and by tests
/// that cross-check the exact search).
pub fn all_placements(m: usize, ncores: usize, ways: usize) -> Vec<Placement> {
    fn rec(
        job: usize,
        m: usize,
        ncores: usize,
        ways: usize,
        groups: &mut Vec<Vec<usize>>,
        out: &mut Vec<Placement>,
    ) {
        if job == m {
            out.push(
                Placement {
                    cores: groups.clone(),
                }
                .canonical(),
            );
            return;
        }
        for g in 0..groups.len() {
            if groups[g].len() < ways {
                groups[g].push(job);
                rec(job + 1, m, ncores, ways, groups, out);
                groups[g].pop();
            }
        }
        if groups.len() < ncores {
            groups.push(vec![job]);
            rec(job + 1, m, ncores, ways, groups, out);
            groups.pop();
        }
    }
    let mut out = Vec::new();
    let mut groups = Vec::new();
    rec(0, m, ncores, ways, &mut groups, &mut out);
    out
}

/// Measured throughput of one candidate placement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementCandidate {
    /// The simulated placement (canonical form).
    pub placement: Placement,
    /// Measured useful-work throughput (work units per cycle).
    pub perf: f64,
}

/// Every feasible placement simulated, ranked by measured throughput —
/// the allocator's ground truth, mirroring `oracle_sweep` for SMT levels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementOracleReport {
    /// All simulated candidates.
    pub candidates: Vec<PlacementCandidate>,
    /// Index of the best candidate.
    pub best: usize,
}

impl PlacementOracleReport {
    /// Best measured throughput.
    pub fn best_perf(&self) -> f64 {
        self.candidates[self.best].perf
    }

    /// Measured throughput of a specific placement, if it was simulated.
    pub fn perf_of(&self, p: &Placement) -> Option<f64> {
        let canon = p.clone().canonical();
        self.candidates
            .iter()
            .find(|c| c.placement == canon)
            .map(|c| c.perf)
    }

    /// Relative regret of choosing `p` instead of the oracle best:
    /// `1 - perf(p) / best_perf()`. Zero means `p` is (tied-)optimal.
    pub fn regret(&self, p: &Placement) -> Option<f64> {
        let perf = self.perf_of(p)?;
        let best = self.best_perf();
        if best <= 0.0 {
            return Some(0.0);
        }
        Some(1.0 - perf / best)
    }
}

/// Simulate one placement of single-threaded jobs at the machine's top
/// SMT level for `max_cycles` (or until all jobs finish) and return the
/// measured useful-work throughput.
pub fn simulate_placement<F>(
    cfg: &MachineConfig,
    make_jobs: &F,
    placement: &Placement,
    max_cycles: u64,
) -> f64
where
    F: Fn() -> Vec<Box<dyn Workload>>,
{
    let ncores = cfg.total_cores();
    let ways = cfg.arch.max_smt.ways();
    let w = PlacedWorkload::new("placed", make_jobs(), placement.slot_map(ncores, ways));
    let mut sim = Simulation::new(cfg.clone(), cfg.arch.max_smt, w);
    let r = sim.run_until_finished(max_cycles);
    r.perf()
}

/// Simulate every feasible placement of the jobs and rank them. `make_jobs`
/// builds a fresh, identically-seeded job list per run so candidates are
/// comparable. Fails with [`Error::InvalidWorkload`], before simulating
/// anything, when the jobs outnumber the machine's SMT slots.
pub fn placement_oracle<F>(
    cfg: &MachineConfig,
    make_jobs: &F,
    max_cycles: u64,
) -> Result<PlacementOracleReport, Error>
where
    F: Fn() -> Vec<Box<dyn Workload>>,
{
    let m = make_jobs().len();
    let ncores = cfg.total_cores();
    let ways = cfg.arch.max_smt.ways();
    if m > ncores * ways {
        return Err(Error::InvalidWorkload(format!(
            "{m} jobs do not fit {} SMT slots ({ncores} cores x {ways})",
            ncores * ways
        )));
    }
    let mut candidates = Vec::new();
    for placement in all_placements(m, ncores, ways) {
        let perf = simulate_placement(cfg, make_jobs, &placement, max_cycles);
        candidates.push(PlacementCandidate { placement, perf });
    }
    // Jobs that fit have at least one placement, so `best` indexes a
    // candidate.
    let best = candidates
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.perf
                .partial_cmp(&b.perf)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map_or(0, |(i, _)| i);
    Ok(PlacementOracleReport { candidates, best })
}

/// Measure a job's solo-run signature: run it alone on a single-core,
/// single-context variant of `cfg` and aggregate `windows` sampling
/// windows of `window_cycles` after a short warmup. Returns the signature
/// and the raw windows (the service path re-derives the signature from
/// these, so offline and daemon answers share one code path).
pub fn solo_signature(
    cfg: &MachineConfig,
    spec: &MetricSpec,
    job: Box<dyn Workload>,
    windows: usize,
    window_cycles: u64,
) -> (ThreadSignature, Vec<WindowMeasurement>) {
    let solo = MachineConfig {
        chips: 1,
        cores_per_chip: 1,
        ..cfg.clone()
    };
    let mut sim = Simulation::new(solo, SmtLevel::Smt1, job);
    sim.run_cycles(window_cycles / 2); // cache warmup
    let mut ws = Vec::with_capacity(windows);
    for _ in 0..windows {
        ws.push(sim.measure_window(window_cycles));
    }
    let sig = ThreadSignature::from_windows(spec, &ws);
    (sig, ws)
}

pub mod scenarios {
    //! The three placement scenario suites the allocator is validated on.
    //!
    //! Each scenario is sized so the full oracle (every feasible
    //! placement simulated) stays affordable in tests, while the
    //! co-run contrasts are real: all run on dynamically partitioned
    //! POWER7-like cores, where co-residents genuinely share dispatch,
    //! issue ports, and the private L1/L2.

    use super::*;
    use smt_workloads::spec::{AccessPattern, InstrMix, MemBehavior, SyncSpec};

    /// One placement validation scenario: a machine, its jobs, the
    /// simulation horizon, and signature-measurement parameters.
    pub struct PlacementScenario {
        /// Scenario name (stable; used in experiment tables).
        pub name: &'static str,
        /// The machine whose contexts are allocated.
        pub cfg: MachineConfig,
        /// Single-threaded job specs (job index = spec index).
        pub jobs: Vec<WorkloadSpec>,
        /// Oracle simulation horizon in cycles.
        pub max_cycles: u64,
        /// Sampling windows per solo signature run.
        pub sig_windows: usize,
        /// Cycles per sampling window.
        pub sig_window_cycles: u64,
    }

    impl PlacementScenario {
        /// Build fresh executable jobs (identical seeds each call).
        pub fn make_jobs(&self) -> Vec<Box<dyn Workload>> {
            self.jobs
                .iter()
                .map(|s| Box::new(SyntheticWorkload::new(s.clone())) as Box<dyn Workload>)
                .collect()
        }

        /// Measure every job's solo signature.
        pub fn signatures(&self, spec: &MetricSpec) -> Vec<ThreadSignature> {
            self.jobs
                .iter()
                .map(|s| {
                    solo_signature(
                        &self.cfg,
                        spec,
                        Box::new(SyntheticWorkload::new(s.clone())),
                        self.sig_windows,
                        self.sig_window_cycles,
                    )
                    .0
                })
                .collect()
        }
    }

    /// A two-core POWER7-like machine (dynamic partitioning, shared
    /// private caches) — small enough that every placement is simulated.
    fn small_p7(cores: usize) -> MachineConfig {
        MachineConfig {
            cores_per_chip: cores,
            ..MachineConfig::power7(1)
        }
    }

    /// Big-enough work that no job finishes inside the oracle horizon.
    const JOB_WORK: u64 = 50_000_000;

    fn job(name: &'static str, mix: InstrMix) -> WorkloadSpec {
        let mut s = WorkloadSpec::new(name, JOB_WORK);
        s.mix = mix;
        s
    }

    /// Heterogeneous colocation: two load/store streams and two
    /// FX/VS compute kernels on two SMT4 cores. Pairing stream+compute
    /// per core wins; pairing the two streams loses the LS ports.
    pub fn heterogeneous_colocation() -> PlacementScenario {
        let stream = |name| {
            let mut s = job(name, InstrMix::mem_stream());
            s.mem = MemBehavior::private(256 * 1024, AccessPattern::Strided(64));
            s
        };
        let compute = |name| {
            let mut s = job(name, InstrMix::fp_heavy());
            s.mem = MemBehavior::cache_resident();
            s
        };
        PlacementScenario {
            name: "heterogeneous-colocation",
            cfg: small_p7(2),
            jobs: vec![
                stream("stream-a"),
                stream("stream-b"),
                compute("fp-a"),
                compute("fp-b"),
            ],
            max_cycles: 120_000,
            sig_windows: 3,
            sig_window_cycles: 20_000,
        }
    }

    /// Noisy neighbor: one cache-thrashing random-access job, one
    /// cache-sensitive job, and two cache-resident compute jobs. The
    /// sensitive job must not share the thrasher's L1/L2.
    pub fn noisy_neighbor() -> PlacementScenario {
        let mut noisy = job("noisy", InstrMix::mem_stream());
        noisy.mem = MemBehavior::private(8 * 1024 * 1024, AccessPattern::Random);
        let mut sensitive = job("sensitive", InstrMix::int_heavy());
        sensitive.mem =
            MemBehavior::private(24 * 1024, AccessPattern::Strided(8)).with_locality(0.2);
        let compute = |name| {
            let mut s = job(name, InstrMix::fp_heavy());
            s.mem = MemBehavior::cache_resident();
            s
        };
        PlacementScenario {
            name: "noisy-neighbor",
            cfg: small_p7(2),
            jobs: vec![noisy, sensitive, compute("quiet-a"), compute("quiet-b")],
            max_cycles: 120_000,
            sig_windows: 3,
            sig_window_cycles: 20_000,
        }
    }

    /// Mixed tenants: three batch kernels that hammer the same ports
    /// next to three idling latency-bound services. Spreading the batch
    /// jobs and pairing each with a sleepy tenant wins.
    pub fn mixed_tenants() -> PlacementScenario {
        let batch = |name| {
            let mut s = job(name, InstrMix::fp_heavy());
            s.mem = MemBehavior::cache_resident();
            s
        };
        let service = |name, seed: u64| {
            let mut s = job(name, InstrMix::balanced());
            s.mem = MemBehavior::cache_resident();
            s.sync = SyncSpec::PeriodicIdle {
                run: 400,
                idle: 1200,
            };
            s.seed = seed;
            s
        };
        PlacementScenario {
            name: "mixed-tenants",
            cfg: small_p7(3),
            jobs: vec![
                batch("batch-a"),
                batch("batch-b"),
                batch("batch-c"),
                service("svc-a", 11),
                service("svc-b", 12),
                service("svc-c", 13),
            ],
            max_cycles: 100_000,
            sig_windows: 3,
            sig_window_cycles: 20_000,
        }
    }

    /// All three suites.
    pub fn all() -> Vec<PlacementScenario> {
        vec![
            heterogeneous_colocation(),
            noisy_neighbor(),
            mixed_tenants(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(tput: f64, load: f64, fx: f64) -> ThreadSignature {
        ThreadSignature {
            windows: 1,
            wall_cycles: 1000,
            tput,
            ipc: tput,
            mix: vec![load, 0.0, 0.0, fx, 1.0 - load - fx],
            mix_deviation: 0.2,
            disp_held: 0.1,
            mem_intensity: 0.0,
            mem_rate: load,
            util: 1.0,
        }
    }

    fn machine(cores: usize) -> MachineConfig {
        MachineConfig {
            cores_per_chip: cores,
            ..MachineConfig::power7(1)
        }
    }

    #[test]
    fn canonical_form_is_stable() {
        let p = Placement {
            cores: vec![vec![3, 1], vec![], vec![2, 0]],
        }
        .canonical();
        assert_eq!(p.cores, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(p.num_jobs(), 4);
    }

    #[test]
    fn slot_map_matches_machine_binding() {
        let p = Placement {
            cores: vec![vec![0, 1], vec![2]],
        };
        // 2 cores, 4 ways: thread = context * ncores + core.
        let slots = p.slot_map(2, 4);
        assert_eq!(slots.len(), 8);
        assert_eq!(slots[0], Some(0)); // core 0, ctx 0
        assert_eq!(slots[2], Some(1)); // core 0, ctx 1
        assert_eq!(slots[1], Some(2)); // core 1, ctx 0
        assert_eq!(slots[3], None);
    }

    #[test]
    fn oracle_refuses_more_jobs_than_slots_before_simulating() {
        // Nehalem: 4 cores x SMT2 = 8 slots.
        let calls = std::cell::Cell::new(0);
        let make_jobs = || {
            calls.set(calls.get() + 1);
            (0..9)
                .map(|_| {
                    Box::new(SyntheticWorkload::new(smt_workloads::catalog::ep()))
                        as Box<dyn Workload>
                })
                .collect::<Vec<_>>()
        };
        let err = placement_oracle(&MachineConfig::nehalem(), &make_jobs, 1_000)
            .expect_err("9 jobs cannot fit 8 slots");
        assert!(matches!(err, Error::InvalidWorkload(_)), "{err}");
        assert!(err.to_string().contains("8 SMT slots"), "{err}");
        // Counting the jobs is the only call: no candidate was simulated.
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn all_placements_counts_are_right() {
        // 4 jobs on 2 cores of 4: (4), (1,3), (2,2) = 1 + 4 + 3 = 8.
        assert_eq!(all_placements(4, 2, 4).len(), 8);
        // 2 jobs on 2 cores of 1: only (1,1).
        assert_eq!(all_placements(2, 2, 1).len(), 1);
        // 3 jobs on 3 cores of 2: (1,1,1), (2,1) = 1 + 3 = 4.
        assert_eq!(all_placements(3, 3, 2).len(), 4);
    }

    #[test]
    fn exhaustive_separates_clashing_jobs() {
        // Two port-hammering load jobs and two FX jobs: optimum pairs
        // unlike jobs.
        let sigs = vec![
            sig(1.0, 0.9, 0.05),
            sig(1.0, 0.9, 0.05),
            sig(1.0, 0.05, 0.9),
            sig(1.0, 0.05, 0.9),
        ];
        let out = AllocatorConfig::for_machine(machine(2))
            .threads(sigs)
            .search(SearchStrategy::Exhaustive)
            .solve()
            .unwrap();
        assert_eq!(out.placement.cores.len(), 2);
        for core in &out.placement.cores {
            let loads = core.iter().filter(|&&j| j < 2).count();
            assert_eq!(
                loads, 1,
                "each core hosts one load job: {:?}",
                out.placement
            );
        }
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_instances() {
        let sigs = vec![
            sig(1.2, 0.8, 0.1),
            sig(0.9, 0.7, 0.2),
            sig(1.1, 0.1, 0.8),
            sig(0.8, 0.15, 0.7),
            sig(1.0, 0.5, 0.4),
        ];
        let exact = AllocatorConfig::for_machine(machine(2))
            .threads(sigs.clone())
            .search(SearchStrategy::Exhaustive)
            .solve()
            .unwrap();
        let heur = AllocatorConfig::for_machine(machine(2))
            .threads(sigs)
            .search(SearchStrategy::LocalSearch)
            .solve()
            .unwrap();
        assert!(
            heur.predicted >= exact.predicted - 1e-9,
            "local search {} below optimum {}",
            heur.predicted,
            exact.predicted
        );
    }

    #[test]
    fn solve_rejects_bad_inputs() {
        let err = AllocatorConfig::for_machine(machine(1))
            .threads(vec![])
            .solve();
        assert!(err.is_err());
        let too_many: Vec<_> = (0..5).map(|_| sig(1.0, 0.3, 0.3)).collect();
        let err = AllocatorConfig::for_machine(MachineConfig {
            cores_per_chip: 1,
            ..MachineConfig::power7(1)
        })
        .threads(too_many)
        .solve();
        assert!(err.is_err());
    }

    #[test]
    fn report_maps_job_indices_to_thread_ids() {
        let out = PlacementOutcome {
            placement: Placement {
                cores: vec![vec![0, 2], vec![1]],
            },
            predicted: 2.5,
            per_core: vec![1.5, 1.0],
            evaluated: 8,
        };
        let r = PlacementReport::from_outcome(&[40, 41, 42], &out, 9);
        assert_eq!(r.cores, vec![vec![40, 42], vec![41]]);
        assert_eq!(r.threads, vec![40, 41, 42]);
        assert_eq!(r.windows, 9);
    }

    #[test]
    fn json_round_trip_is_stable() {
        let r = PlacementReport {
            threads: vec![1, 2, 3],
            cores: vec![vec![1, 3], vec![2]],
            predicted: 1.25,
            per_core: vec![0.75, 0.5],
            windows: 6,
        };
        let text = serde_json::to_string(&r).unwrap();
        let back: PlacementReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}

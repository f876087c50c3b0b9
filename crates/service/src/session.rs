//! Per-connection session state.
//!
//! A session wraps one [`DynamicSmtController`] — the *same* decision core
//! the offline simulator-driven runs use — plus the bookkeeping the
//! protocol needs on top: the factors of the most recent top-level window
//! (for `recommend` evidence), the level the decision core currently wants
//! the client's machine at, and a lifetime window count.
//!
//! Revision-3 sessions additionally hold per-thread solo-run windows
//! (`ingest_tagged`) and answer `place` by building [`ThreadSignature`]s
//! from them and running the placement allocator over the session's
//! machine model — the identical path `smtselect place` takes offline, so
//! daemon and CLI answers agree byte for byte.

use smt_sched::{
    AllocatorConfig, ControllerConfig, DynamicSmtController, PlacementReport, Recommendation,
    SearchStrategy,
};
use smt_sim::{Error, MachineConfig, SmtLevel, WindowMeasurement};
use smtsm::{smtsm_factors, LevelSelector, MetricSpec, SmtsmFactors, ThreadSignature};

use crate::protocol::{ErrorCode, IngestSummary, SessionSpec, PROTOCOL_VERSION};

/// Why a `place` request could not be answered. Each variant maps onto
/// one protocol [`ErrorCode`] (see [`PlaceError::code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The session cannot serve `place` at all: negotiated protocol is
    /// older than revision 3, or no thread has been tagged yet.
    Unsupported(String),
    /// A requested thread id has no tagged windows.
    UnknownThread(String),
    /// The request was understood but invalid (e.g. more threads than the
    /// machine has SMT slots, or a duplicate thread id).
    Invalid(String),
}

impl PlaceError {
    /// The protocol error code this failure is reported as.
    pub fn code(&self) -> ErrorCode {
        match self {
            PlaceError::Unsupported(_) => ErrorCode::PlacementUnsupported,
            PlaceError::UnknownThread(_) => ErrorCode::UnknownThread,
            PlaceError::Invalid(_) => ErrorCode::BadRequest,
        }
    }

    /// The human-readable message this failure is reported with.
    pub fn message(&self) -> &str {
        match self {
            PlaceError::Unsupported(m) | PlaceError::UnknownThread(m) | PlaceError::Invalid(m) => m,
        }
    }
}

/// One client's streaming decision state.
#[derive(Debug)]
pub struct Session {
    id: u64,
    controller: DynamicSmtController,
    spec: MetricSpec,
    top: SmtLevel,
    /// Level the decision core currently wants the client's machine at.
    level: SmtLevel,
    /// Eq.-1 factors of the most recent top-level window.
    last_factors: SmtsmFactors,
    windows: u64,
    /// Negotiated protocol revision; gates the revision-3 verbs.
    proto: u32,
    /// The session's machine model, kept for placement capacity checks.
    machine: MachineConfig,
    /// Per-thread solo-run windows, in first-tagged order.
    tagged: Vec<(u32, Vec<WindowMeasurement>)>,
}

impl Session {
    /// Validate a client's `hello` parameters and build the session.
    pub fn new(id: u64, spec: &SessionSpec) -> Result<Session, Error> {
        let machine = MachineConfig::by_name(&spec.machine)?;
        machine.validate()?;
        if !(spec.alpha > 0.0 && spec.alpha <= 1.0) {
            return Err(Error::InvalidMeasurement(format!(
                "alpha must be in (0, 1], got {}",
                spec.alpha
            )));
        }
        if !spec.threshold.is_finite() || !spec.mid.is_finite() {
            return Err(Error::InvalidMeasurement(
                "thresholds must be finite".to_string(),
            ));
        }
        if spec.window_cycles == 0 || spec.hysteresis == 0 || spec.probe_interval == 0 {
            return Err(Error::InvalidMeasurement(
                "window_cycles, hysteresis, and probe_interval must be positive".to_string(),
            ));
        }
        let top = *machine
            .smt_levels()
            .last()
            .ok_or_else(|| Error::InvalidMachine("machine has no SMT levels".to_string()))?;
        let selector = LevelSelector::ladder(top, spec.threshold, spec.mid);
        let metric_spec = MetricSpec::for_arch(&machine.arch);
        let cfg = ControllerConfig {
            window_cycles: spec.window_cycles,
            alpha: spec.alpha,
            hysteresis: spec.hysteresis,
            probe_interval: spec.probe_interval,
            phase_detect: spec.phase_detect,
        };
        Ok(Session {
            id,
            controller: DynamicSmtController::new(selector, metric_spec, cfg),
            spec: metric_spec,
            top,
            level: top,
            last_factors: SmtsmFactors {
                mix_deviation: 0.0,
                disp_held: 0.0,
                scalability: 0.0,
            },
            windows: 0,
            proto: PROTOCOL_VERSION,
            machine,
            tagged: Vec::new(),
        })
    }

    /// Pin the session to the protocol revision negotiated at `hello`.
    /// Sessions start at [`PROTOCOL_VERSION`] (the offline paths want full
    /// capability); the server dials old clients down after `hello`.
    pub fn set_proto(&mut self, proto: u32) {
        self.proto = proto;
    }

    /// Negotiated protocol revision.
    pub fn proto(&self) -> u32 {
        self.proto
    }

    /// Server-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Top SMT level of the session's machine model.
    pub fn top(&self) -> SmtLevel {
        self.top
    }

    /// Level the decision core currently wants the client's machine at.
    pub fn level(&self) -> SmtLevel {
        self.level
    }

    /// Windows folded over the session's lifetime.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Fold a batch of streamed counter windows into the decision core, in
    /// order, and summarize what happened.
    pub fn ingest(&mut self, windows: &[WindowMeasurement]) -> IngestSummary {
        let mut switches = Vec::new();
        for m in windows {
            if m.smt == self.top {
                self.last_factors = smtsm_factors(&self.spec, m);
            }
            let d = self.controller.observe(m);
            self.level = d.level;
            if d.switched {
                switches.push(d);
            }
            self.windows += 1;
        }
        IngestSummary {
            accepted: windows.len() as u64,
            total_windows: self.windows,
            level: self.level,
            switches,
        }
    }

    /// The session's current answer. The level is the decision core's —
    /// hysteresis- and probe-aware — not a raw re-read of the selector, so
    /// it is exactly what an offline controller run over the same window
    /// stream would have left the machine at.
    ///
    /// The record is kept JSON-clean: NaN has no JSON encoding, so an
    /// empty sampler (fresh session, or right after a switch reset) is
    /// reported as `smtsm: 0.0` with zero confidence instead of NaN.
    pub fn recommend(&self) -> Recommendation {
        let mut r = match self.controller.sampler().current() {
            Some(smtsm) if smtsm.is_finite() => Recommendation::from_metric(
                self.controller.selector(),
                smtsm,
                self.last_factors,
                self.windows,
            ),
            _ => Recommendation {
                level: self.level,
                smtsm: 0.0,
                factors: self.last_factors,
                confidence: 0.0,
                windows: self.windows,
            },
        };
        r.level = self.level;
        r
    }

    /// Fold solo-run windows attributed to one client thread into the
    /// session's signature store. Tagged windows feed `place` only — they
    /// never advance the SMT-level decision core, since solo-run profiles
    /// are not the machine's live window stream.
    pub fn ingest_tagged(&mut self, thread: u32, windows: &[WindowMeasurement]) -> IngestSummary {
        match self.tagged.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, stored)) => stored.extend_from_slice(windows),
            None => self.tagged.push((thread, windows.to_vec())),
        }
        self.windows += windows.len() as u64;
        IngestSummary {
            accepted: windows.len() as u64,
            total_windows: self.windows,
            level: self.level,
            switches: Vec::new(),
        }
    }

    /// Thread ids with tagged windows, in first-tagged order.
    pub fn tagged_threads(&self) -> Vec<u32> {
        self.tagged.iter().map(|(t, _)| *t).collect()
    }

    /// Answer a `place` request: build per-thread signatures from the
    /// tagged solo-run windows and solve for the best thread-to-core
    /// assignment on the session's machine model. An empty `threads`
    /// list means "place every tagged thread", in first-tagged order.
    pub fn place(&self, threads: &[u32]) -> Result<PlacementReport, PlaceError> {
        if self.proto < 3 {
            return Err(PlaceError::Unsupported(format!(
                "place requires protocol revision 3, session negotiated {}",
                self.proto
            )));
        }
        if self.tagged.is_empty() {
            return Err(PlaceError::Unsupported(
                "no tagged threads: stream solo-run windows with ingest_tagged first".to_string(),
            ));
        }
        let chosen: Vec<u32> = if threads.is_empty() {
            self.tagged_threads()
        } else {
            threads.to_vec()
        };
        for (i, t) in chosen.iter().enumerate() {
            if chosen[..i].contains(t) {
                return Err(PlaceError::Invalid(format!("duplicate thread id {t}")));
            }
        }
        let mut sigs = Vec::with_capacity(chosen.len());
        let mut windows = 0u64;
        for t in &chosen {
            let stored = self
                .tagged
                .iter()
                .find(|(id, _)| id == t)
                .map(|(_, w)| w)
                .ok_or_else(|| {
                    PlaceError::UnknownThread(format!("thread {t} has no tagged windows"))
                })?;
            windows += stored.len() as u64;
            sigs.push(ThreadSignature::from_windows(&self.spec, stored));
        }
        let outcome = AllocatorConfig::for_machine(self.machine.clone())
            .threads(sigs)
            .search(SearchStrategy::Auto)
            .solve()
            .map_err(|e| PlaceError::Invalid(e.to_string()))?;
        Ok(PlacementReport::from_outcome(&chosen, &outcome, windows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::Simulation;
    use smt_workloads::{catalog, SyntheticWorkload};

    #[test]
    fn bad_hello_parameters_are_errors() {
        let mut spec = SessionSpec::power7();
        spec.machine = "power9".to_string();
        assert!(Session::new(1, &spec).is_err());
        let mut spec = SessionSpec::power7();
        spec.alpha = 0.0;
        assert!(Session::new(1, &spec).is_err());
        let mut spec = SessionSpec::power7();
        spec.hysteresis = 0;
        assert!(Session::new(1, &spec).is_err());
        let mut spec = SessionSpec::power7();
        spec.threshold = f64::NAN;
        assert!(Session::new(1, &spec).is_err());
    }

    #[test]
    fn fresh_session_recommends_top_with_zero_confidence() {
        let s = Session::new(7, &SessionSpec::power7()).unwrap();
        assert_eq!(s.top(), SmtLevel::Smt4);
        let r = s.recommend();
        assert_eq!(r.level, SmtLevel::Smt4);
        assert_eq!(r.windows, 0);
        assert_eq!(r.confidence, 0.0);
    }

    #[test]
    fn tagged_ingest_feeds_place_but_not_the_decision_core() {
        let mut s = Session::new(3, &SessionSpec::power7()).unwrap();
        let mut sim = Simulation::new(
            MachineConfig::power7(1),
            SmtLevel::Smt1,
            SyntheticWorkload::new(catalog::ep().scaled(0.05)),
        );
        let w = sim.measure_window(5_000);
        let summary = s.ingest_tagged(9, std::slice::from_ref(&w));
        assert_eq!(summary.accepted, 1);
        assert_eq!(summary.total_windows, 1);
        assert!(summary.switches.is_empty());
        // The decision core saw nothing: a fresh recommendation still has
        // zero confidence.
        assert_eq!(s.recommend().confidence, 0.0);
        assert_eq!(s.tagged_threads(), vec![9]);

        let report = s.place(&[]).expect("place over tagged threads");
        assert_eq!(report.threads, vec![9]);
        assert_eq!(report.cores, vec![vec![9]]);
        assert_eq!(report.windows, 1);
        assert!(report.predicted > 0.0);
    }

    #[test]
    fn place_is_gated_and_validated() {
        let mut s = Session::new(4, &SessionSpec::power7()).unwrap();
        // Empty session: unsupported until something is tagged.
        assert!(matches!(s.place(&[]), Err(PlaceError::Unsupported(_))));
        let mut sim = Simulation::new(
            MachineConfig::power7(1),
            SmtLevel::Smt1,
            SyntheticWorkload::new(catalog::ep().scaled(0.05)),
        );
        let w = sim.measure_window(5_000);
        s.ingest_tagged(1, std::slice::from_ref(&w));
        // Unknown and duplicate thread ids are distinct failures.
        assert!(matches!(s.place(&[2]), Err(PlaceError::UnknownThread(_))));
        assert!(matches!(s.place(&[1, 1]), Err(PlaceError::Invalid(_))));
        // An old negotiated revision refuses the verb entirely.
        s.set_proto(2);
        let err = s.place(&[1]).unwrap_err();
        assert!(matches!(err, PlaceError::Unsupported(_)));
        assert_eq!(err.code(), crate::protocol::ErrorCode::PlacementUnsupported);
        // Back at revision 3 the same session answers.
        s.set_proto(3);
        assert!(s.place(&[1]).is_ok());
    }

    #[test]
    fn session_tracks_offline_controller_over_a_streamed_run() {
        // Feed the session the window stream an offline controller-managed
        // simulation produces, applying the session's level answers back to
        // the simulation — the closed loop a real client would run.
        let spec = SessionSpec::power7();
        let mut session = Session::new(1, &spec).unwrap();
        let machine = MachineConfig::by_name(&spec.machine).unwrap();
        let mut sim = Simulation::new(
            machine,
            SmtLevel::Smt4,
            SyntheticWorkload::new(catalog::specjbb_contention().scaled(0.3)),
        );
        let mut saw_switch = false;
        while !sim.finished() && sim.now() < 100_000_000 {
            let m = sim.measure_window(spec.window_cycles);
            let summary = session.ingest(std::slice::from_ref(&m));
            saw_switch |= !summary.switches.is_empty();
            if sim.smt() != summary.level {
                sim.reconfigure(summary.level);
            }
        }
        assert!(saw_switch, "contended run must switch at least once");
        assert_eq!(session.level(), sim.smt());
        let r = session.recommend();
        assert_eq!(r.level, sim.smt());
        assert_eq!(r.windows, session.windows());
    }
}

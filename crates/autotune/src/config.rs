//! Loop policy knobs. [`AutotuneConfig::validate`] rejects a knob set the
//! loop cannot run with as a structured [`Error::Config`].

use serde::{Deserialize, Serialize};
use smt_sim::Error;

/// Tuning knobs for [`crate::AutotuneLoop`].
///
/// The hysteresis/cooldown pair is what keeps adversarial oscillators from
/// thrashing the actuator: `hysteresis` windows must *agree* before a
/// metric-driven switch, and after any actuation no further switch is
/// issued for `cooldown` windows. The one exception is a phase-memory
/// recall answering a probe — the probe→recall round trip counts as one
/// decision — so the switch rate stays bounded at two per probe interval
/// no matter how hostile the signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutotuneConfig {
    /// Counter-sampling window length in cycles.
    pub window_cycles: u64,
    /// EWMA smoothing factor for the metric sampler (1.0 = none).
    pub alpha: f64,
    /// Consecutive windows that must recommend the same level before a
    /// metric-driven switch.
    pub hysteresis: u64,
    /// Minimum windows between actuated switches (thrash guard).
    pub cooldown: u64,
    /// Windows at the top level before metric recommendations count
    /// toward hysteresis. The first windows after a reconfiguration are
    /// ramp-skewed (cold pipelines, blended EWMA state); acting on them
    /// parks SMT-friendly phases on arrival and poisons the phase memory
    /// with mislabelled levels.
    pub warmup: u64,
    /// While parked below the top level, re-probe the top level after this
    /// many windows even if no phase change is detected.
    pub probe_interval: u64,
    /// Run change-point detection (factor vector at the top level, IPC
    /// while parked) and probe immediately on confirmed phase boundaries.
    pub phase_detect: bool,
    /// Keep a phase memory: revisited phases reuse their learned level
    /// instead of re-proving it through the full hysteresis window.
    pub memory: bool,
    /// Windows a phase must hold steady at the top level before the memory
    /// records "this phase prefers the top level".
    pub settle_windows: u64,
    /// Maximum phases the memory retains (oldest evicted first).
    pub memory_capacity: usize,
}

impl Default for AutotuneConfig {
    fn default() -> AutotuneConfig {
        AutotuneConfig {
            window_cycles: 25_000,
            alpha: 0.6,
            hysteresis: 2,
            cooldown: 4,
            warmup: 3,
            probe_interval: 64,
            phase_detect: true,
            memory: true,
            settle_windows: 6,
            memory_capacity: 64,
        }
    }
}

impl AutotuneConfig {
    /// Check the invariants the loop relies on.
    pub fn validate(&self) -> Result<(), Error> {
        if self.window_cycles == 0 {
            return Err(Error::Config("window_cycles must be positive".into()));
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(Error::Config(format!(
                "alpha must be in (0,1], got {}",
                self.alpha
            )));
        }
        if self.hysteresis == 0 {
            return Err(Error::Config("hysteresis must be >= 1".into()));
        }
        if self.probe_interval == 0 {
            return Err(Error::Config("probe_interval must be >= 1".into()));
        }
        if self.memory_capacity == 0 {
            return Err(Error::Config("memory_capacity must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AutotuneConfig::default().validate().expect("defaults");
    }

    #[test]
    fn invalid_fields_are_config_errors() {
        let bad = AutotuneConfig {
            window_cycles: 0,
            ..AutotuneConfig::default()
        };
        assert!(matches!(bad.validate(), Err(Error::Config(_))));
        let bad = AutotuneConfig {
            alpha: 1.5,
            ..AutotuneConfig::default()
        };
        assert!(matches!(bad.validate(), Err(Error::Config(_))));
        let bad = AutotuneConfig {
            hysteresis: 0,
            ..AutotuneConfig::default()
        };
        assert!(matches!(bad.validate(), Err(Error::Config(_))));
    }
}

//! Server-wide operational metrics.
//!
//! Each reactor shard owns its own [`ServiceMetrics`] registry, so the
//! hot path updates uncontended counters; the `stats` verb merges every
//! shard's registry into one [`StatsReport`] with [`merged_report`].
//! Counters are relaxed atomics — the numbers are for operators, not for
//! synchronization. Request latency goes into a log-linear bucket
//! histogram (each power-of-two octave split into 8 linear sub-buckets, so
//! a quantile reads at most 12.5% above its sample) that costs a fixed 240
//! words of memory regardless of request volume, and histograms merge by
//! plain bucket addition.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use smt_sim::SmtLevel;

use crate::protocol::StatsReport;

/// Linear sub-buckets per power-of-two octave, as a bit count.
const SUB_BITS: usize = 3;

/// Linear sub-buckets per octave.
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Latency histogram buckets, in microseconds: samples below 8 get one
/// bucket each, then every octave `[2^e, 2^(e+1))` for `e` in `3..=31`
/// splits into [`SUB_BUCKETS`] equal slices — one group of 8 plus 29
/// octaves of 8. The last bucket is open-ended.
const LATENCY_BUCKETS: usize = SUB_BUCKETS * (1 + 31 - SUB_BITS + 1);

/// Events worth observing from outside the server — the service-side
/// analogue of the experiment engine's `ProgressSink`. The default
/// implementation ignores everything; tests install a recording sink and
/// `smtd --verbose` installs a stderr logger.
pub trait ServiceSink: Send + Sync {
    /// A session was opened.
    fn session_opened(&self, _session: u64) {}
    /// A session ended (its connection closed).
    fn session_closed(&self, _session: u64) {}
    /// A connection was shed because the server is at capacity.
    fn connection_shed(&self) {}
    /// A handler panicked; the payload is the panic message.
    fn handler_panicked(&self, _message: &str) {}
}

/// The do-nothing sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ServiceSink for NullSink {}

/// A sink that logs lifecycle events to stderr (`smtd --verbose`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrSink;

impl ServiceSink for StderrSink {
    fn session_opened(&self, session: u64) {
        eprintln!("smtd: session {session} opened");
    }
    fn session_closed(&self, session: u64) {
        eprintln!("smtd: session {session} closed");
    }
    fn connection_shed(&self) {
        eprintln!("smtd: connection shed (busy)");
    }
    fn handler_panicked(&self, message: &str) {
        eprintln!("smtd: handler panicked: {message}");
    }
}

/// Shared counters and the latency histogram.
pub struct ServiceMetrics {
    started: Instant,
    sessions_active: AtomicU64,
    sessions_total: AtomicU64,
    requests_total: AtomicU64,
    errors_total: AtomicU64,
    busy_rejections: AtomicU64,
    windows_ingested: AtomicU64,
    /// Recommendations handed out, indexed by `SmtLevel::ALL` position.
    recommendations: [AtomicU64; SmtLevel::ALL.len()],
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    /// A fresh registry with the uptime clock started now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            started: Instant::now(),
            sessions_active: AtomicU64::new(0),
            sessions_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            windows_ingested: AtomicU64::new(0),
            recommendations: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record a session open.
    pub fn session_opened(&self) {
        self.sessions_active.fetch_add(1, Ordering::Relaxed);
        self.sessions_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a session close.
    pub fn session_closed(&self) {
        self.sessions_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record one answered request and its service time.
    pub fn request_served(&self, ok: bool, elapsed: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors_total.fetch_add(1, Ordering::Relaxed);
        }
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a shed connection.
    pub fn connection_shed(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Record ingested windows.
    pub fn windows_ingested(&self, n: u64) {
        self.windows_ingested.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a recommendation handed out at `level`.
    pub fn recommended(&self, level: SmtLevel) {
        if let Some(i) = SmtLevel::ALL.iter().position(|&l| l == level) {
            self.recommendations[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot everything into a wire-format report.
    pub fn report(&self) -> StatsReport {
        merged_report(std::iter::once(self))
    }

    /// Upper bound (in microseconds) of the bucket holding quantile `q`.
    #[cfg(test)]
    fn latency_quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        bucket_quantile(&counts, q)
    }
}

/// Merge any number of shard registries into one report: counters sum,
/// histograms add bucket-wise, and uptime is the oldest shard's clock
/// (shards are created together, so they agree to within spawn time).
pub fn merged_report<'a, I>(registries: I) -> StatsReport
where
    I: IntoIterator<Item = &'a ServiceMetrics>,
{
    let mut sessions_active = 0u64;
    let mut sessions_total = 0u64;
    let mut requests_total = 0u64;
    let mut errors_total = 0u64;
    let mut busy_rejections = 0u64;
    let mut windows = 0u64;
    let mut recommendations = [0u64; SmtLevel::ALL.len()];
    let mut latency = vec![0u64; LATENCY_BUCKETS];
    let mut uptime_secs = 0f64;
    for m in registries {
        sessions_active += m.sessions_active.load(Ordering::Relaxed);
        sessions_total += m.sessions_total.load(Ordering::Relaxed);
        requests_total += m.requests_total.load(Ordering::Relaxed);
        errors_total += m.errors_total.load(Ordering::Relaxed);
        busy_rejections += m.busy_rejections.load(Ordering::Relaxed);
        windows += m.windows_ingested.load(Ordering::Relaxed);
        for (acc, c) in recommendations.iter_mut().zip(&m.recommendations) {
            *acc += c.load(Ordering::Relaxed);
        }
        for (acc, c) in latency.iter_mut().zip(&m.latency) {
            *acc += c.load(Ordering::Relaxed);
        }
        uptime_secs = uptime_secs.max(m.started.elapsed().as_secs_f64());
    }
    StatsReport {
        sessions_active,
        sessions_total,
        requests_total,
        errors_total,
        busy_rejections,
        windows_ingested: windows,
        recommendations: SmtLevel::ALL
            .iter()
            .enumerate()
            .map(|(i, l)| (l.ways(), recommendations[i]))
            .collect(),
        p50_us: bucket_quantile(&latency, 0.50),
        p99_us: bucket_quantile(&latency, 0.99),
        uptime_secs,
    }
}

/// The histogram bucket a latency of `us` microseconds lands in.
fn bucket_of(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros() as usize;
    let sub = (us >> (octave - SUB_BITS)) as usize - SUB_BUCKETS;
    (SUB_BUCKETS * (octave - SUB_BITS + 1) + sub).min(LATENCY_BUCKETS - 1)
}

/// Exclusive upper bound, in microseconds, of bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64 + 1;
    }
    let octave = i / SUB_BUCKETS + SUB_BITS - 1;
    let sub = (i % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub + 1) << (octave - SUB_BITS)
}

/// Upper bound (in microseconds) of the bucket holding quantile `q`.
fn bucket_quantile(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper(i);
        }
    }
    bucket_upper(counts.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_land_in_the_report() {
        let m = ServiceMetrics::new();
        m.session_opened();
        m.session_opened();
        m.session_closed();
        m.request_served(true, Duration::from_micros(10));
        m.request_served(false, Duration::from_micros(10));
        m.connection_shed();
        m.windows_ingested(42);
        m.recommended(SmtLevel::Smt4);
        m.recommended(SmtLevel::Smt4);
        m.recommended(SmtLevel::Smt1);
        let r = m.report();
        assert_eq!(r.sessions_active, 1);
        assert_eq!(r.sessions_total, 2);
        assert_eq!(r.requests_total, 2);
        assert_eq!(r.errors_total, 1);
        assert_eq!(r.busy_rejections, 1);
        assert_eq!(r.windows_ingested, 42);
        assert_eq!(r.recommendations, vec![(1, 1), (2, 0), (4, 2)]);
    }

    #[test]
    fn latency_quantiles_split_fast_and_slow_requests() {
        let m = ServiceMetrics::new();
        // 99 fast requests (~8 us) and one slow outlier (~8 ms).
        for _ in 0..99 {
            m.request_served(true, Duration::from_micros(8));
        }
        m.request_served(true, Duration::from_micros(8_000));
        let r = m.report();
        assert!(
            r.p50_us <= 16,
            "p50 {} should sit in the fast bucket",
            r.p50_us
        );
        assert!(r.p99_us <= 16, "p99 {} rank 99 is still fast", r.p99_us);
        // The slow sample dominates only the very tail.
        assert!(m.latency_quantile(1.0) >= 8_192);
    }

    #[test]
    fn quantiles_resolve_within_an_octave() {
        let p50_of = |us: u64| {
            let m = ServiceMetrics::new();
            for _ in 0..100 {
                m.request_served(true, Duration::from_micros(us));
            }
            m.report().p50_us
        };
        let (at_100, at_120) = (p50_of(100), p50_of(120));
        assert_ne!(at_100, at_120, "100 us and 120 us share one bucket");
        for (sample, p50) in [(100, at_100), (120, at_120)] {
            assert!(
                p50 > sample && p50 * 8 <= sample * 9,
                "p50 {p50} strays more than 12.5% above {sample} us"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let m = ServiceMetrics::new();
        let r = m.report();
        assert_eq!(r.p50_us, 0);
        assert_eq!(r.p99_us, 0);
    }

    #[test]
    fn shard_registries_merge_by_summing() {
        let a = ServiceMetrics::new();
        let b = ServiceMetrics::new();
        a.session_opened();
        b.session_opened();
        b.session_opened();
        b.session_closed();
        a.request_served(true, Duration::from_micros(8));
        b.request_served(false, Duration::from_micros(8_000));
        a.windows_ingested(10);
        b.windows_ingested(5);
        a.recommended(SmtLevel::Smt4);
        b.recommended(SmtLevel::Smt4);
        let r = merged_report([&a, &b]);
        assert_eq!(r.sessions_active, 2);
        assert_eq!(r.sessions_total, 3);
        assert_eq!(r.requests_total, 2);
        assert_eq!(r.errors_total, 1);
        assert_eq!(r.windows_ingested, 15);
        assert_eq!(r.recommendations, vec![(1, 0), (2, 0), (4, 2)]);
        // Merged histogram spans both shards: the slow outlier is visible
        // in the tail but not the median.
        assert!(r.p50_us <= 16);
        assert!(r.p99_us >= 8_192);
    }
}

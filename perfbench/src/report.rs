//! The run's result: named metrics, the attempted/failed tally the output
//! checks feed, and the one-line JSON the benchmark ends with.

use std::fmt::Write as _;

use cdn_cache::MissRatio;
use cdn_sim::{AggregateMeasurement, RunMeasurement};
use cdnd::DaemonStats;

/// The exact u64 counters a replay or a daemon run ends with. Two runs of
/// the same policy over the same requests must agree on all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ledger {
    pub hits: u64,
    pub misses: u64,
    pub hit_bytes: u64,
    pub miss_bytes: u64,
}

impl Ledger {
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_ratio(&self) -> f64 {
        self.misses as f64 / self.requests().max(1) as f64
    }

    pub fn byte_miss_ratio(&self) -> f64 {
        self.miss_bytes as f64 / (self.hit_bytes + self.miss_bytes).max(1) as f64
    }
}

impl From<&RunMeasurement> for Ledger {
    fn from(m: &RunMeasurement) -> Self {
        Ledger {
            hits: m.hits,
            misses: m.misses,
            hit_bytes: m.hit_bytes,
            miss_bytes: m.miss_bytes,
        }
    }
}

impl From<&AggregateMeasurement> for Ledger {
    fn from(m: &AggregateMeasurement) -> Self {
        Ledger {
            hits: m.hits,
            misses: m.misses,
            hit_bytes: m.hit_bytes,
            miss_bytes: m.miss_bytes,
        }
    }
}

impl From<&MissRatio> for Ledger {
    fn from(m: &MissRatio) -> Self {
        Ledger {
            hits: m.hits(),
            misses: m.misses(),
            hit_bytes: m.hit_bytes(),
            miss_bytes: m.miss_bytes(),
        }
    }
}

impl From<&DaemonStats> for Ledger {
    fn from(s: &DaemonStats) -> Self {
        s.shards.iter().fold(Ledger::default(), |acc, sh| Ledger {
            hits: acc.hits + sh.hits,
            misses: acc.misses + sh.misses,
            hit_bytes: acc.hit_bytes + sh.hit_bytes,
            miss_bytes: acc.miss_bytes + sh.miss_bytes,
        })
    }
}

/// Metrics plus the failure tally of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Record a metric. Non-finite values are a failure of the run, not a
    /// number to print.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(0, format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Count `requests` operations as attempted.
    pub fn attempt(&mut self, requests: u64) {
        self.attempted += requests;
    }

    /// Count `requests` attempted operations as failed, with the reason.
    pub fn fail(&mut self, requests: u64, why: String) {
        eprintln!("FAIL: {why}");
        self.failed += requests;
        self.failures.push(why);
    }

    /// Attempt a pass of `requests` and fail all of it unless its ledger
    /// equals the reference.
    pub fn check_ledger(&mut self, what: &str, got: Ledger, want: Ledger) {
        self.attempt(got.requests());
        if got != want {
            self.fail(
                got.requests().max(1),
                format!("{what}: ledger {got:?} != reference {want:?}"),
            );
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Share of attempted operations that did not fail.
    pub fn served_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The benchmark's last output line.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

//! What every workload shares: the metric catalogue, repeated set-up,
//! the warm-up-then-measure window and the per-layer ladder summary.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::{median, Report};
use crate::rungs;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; `lru_mreqs`, `scip_mreqs` and `scip_2shard_mreqs`
/// are measured through the workload's own serving path.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("lru_mreqs", "Mreq/s"),
    ("scip_mreqs", "Mreq/s"),
    ("scip_2shard_mreqs", "Mreq/s"),
    ("miss_ratio_scip", "ratio"),
    ("byte_miss_ratio_scip", "ratio"),
    ("peak_rss_mb", "MB"),
    ("served_frac", "ratio"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0 there (see `layers.json`).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("cdn_trace.gen_ns_per_req", "ns"),
    ("cdn_trace.decode_ns_per_req", "ns"),
    ("cdn_trace.crc_gbps", "GB/s"),
    ("cdn_trace.stream_wait_ns_per_req", "ns"),
    ("cdn_trace.partition_ns_per_req", "ns"),
    ("cdn_sim.loop_ns_per_req", "ns"),
    ("cdn_sim.footprint_over_llc", "ratio"),
    ("cdn_sim.prefetch_saving_ns_per_req", "ns"),
    ("cdn_sim.shard_efficiency", "ratio"),
    ("cdn_sim.shard_imbalance", "ratio"),
    ("cdn_cache.probe_ns", "ns"),
    ("cdn_cache.lru_ns_per_req", "ns"),
    ("cdn_cache.upkeep_ns_per_req", "ns"),
    ("cdn_cache.evictions_per_req", "1/req"),
    ("cdn_cache.insertions_per_req", "1/req"),
    ("cdn_cache.metadata_bytes_per_object", "B"),
    ("scip.decision_ns_per_req", "ns"),
    ("scip.sci_ns_per_req", "ns"),
    ("cdnd.submit_ns_per_req", "ns"),
    ("cdnd.drain_ms", "ms"),
    ("cdnd.handoff_ns_per_req", "ns"),
    ("cdnd.ring_peak_depth", "count"),
    ("cdnd.refused", "count"),
    ("cdnd.open_p50_us", "us"),
    ("cdnd.open_p99_us", "us"),
    ("cdnd.open_refused_frac", "ratio"),
    ("cdnd.gen_late_max_us", "us"),
    ("residual.lru_ns_per_req", "ns"),
    ("residual.scip_ns_per_req", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// Times each workload sets itself up; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The paper's cache size (GB) that every workload's cache is scaled from.
pub const CACHE_GB: f64 = 64.0;

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Emit the catalogue for this mode: every end-to-end metric must have
    /// been measured; an unmeasured per-layer metric reads 0.
    pub fn emit(&self, traced: bool, report: &mut Report) {
        if traced {
            for (name, unit) in PER_LAYER {
                report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
            }
        } else {
            for (name, unit) in END_TO_END {
                match self.0.get(name) {
                    Some(v) => report.metric(name, *v, unit),
                    None => report.fail(0, format!("end-to-end metric {name} was not measured")),
                }
            }
        }
    }
}

/// Set the workload up [`SETUPS`] times. `f` returns the input, a
/// fingerprint of it (every set-up must produce the same input from the
/// same seed) and the seconds spent generating the trace. Returns the
/// input and the medians of the set-up and generation times.
pub fn repeat_setup<T>(report: &mut Report, mut f: impl FnMut() -> (T, u64, f64)) -> (T, f64, f64) {
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut first: Option<u64> = None;
    let mut input = None;
    for _ in 0..SETUPS {
        // Drop the previous input before the next set-up builds another.
        drop(input.take());
        let start = Instant::now();
        let (t, fingerprint, gen) = f();
        setup_s.push(start.elapsed().as_secs_f64());
        gen_s.push(gen);
        match first {
            None => first = Some(fingerprint),
            Some(h) if h != fingerprint => report.fail(
                0,
                format!("set-up is not deterministic: input hash {fingerprint:#x} != {h:#x}"),
            ),
            Some(_) => {}
        }
        input = Some(t);
    }
    let input = input.expect("SETUPS > 0");
    (input, median(&setup_s), median(&gen_s))
}

/// One warm-up round whose samples are discarded (`f(false)`), then
/// measured rounds (`f(true)`) until `seconds` of measuring are spent,
/// but at least `min_rounds` of them. A round is not started if the
/// mean round so far would overrun the window.
pub fn measure(seconds: f64, min_rounds: usize, warm_up: bool, mut f: impl FnMut(bool)) {
    if warm_up {
        f(false);
    }
    let start = Instant::now();
    let mut rounds = 0usize;
    loop {
        f(true);
        rounds += 1;
        let spent = start.elapsed().as_secs_f64();
        if rounds >= min_rounds && spent + spent / rounds as f64 > seconds {
            break;
        }
    }
}

/// Ladder medians over the rung rounds, set as the per-layer metrics they
/// define. `lru_ns` / `scip_ns` are the end-to-end ns per request of the
/// workload's own path in the traced run; `lru_extra_ns` / `scip_extra_ns`
/// are the workload-specific rungs above the ladder (stream wait, daemon
/// handoff), so the residual is what no rung explains.
pub fn set_ladder(
    v: &mut Values,
    rounds: &[rungs::Round],
    requests: u64,
    (lru_ns, lru_extra_ns): (f64, f64),
    (scip_ns, scip_extra_ns): (f64, f64),
) {
    let med = |f: fn(&rungs::Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let loop_ns = med(|r| r.loop_ns);
    let probe_ns = med(|r| r.probe_ns);
    let lru_rung = med(|r| r.lru_ns);
    let sci_rung = med(|r| r.sci_ns);
    let scip_rung = med(|r| r.scip_ns);
    v.set("cdn_sim.loop_ns_per_req", loop_ns);
    v.set("cdn_cache.probe_ns", probe_ns);
    v.set("cdn_cache.lru_ns_per_req", lru_rung);
    v.set("cdn_cache.upkeep_ns_per_req", lru_rung - loop_ns - probe_ns);
    v.set("scip.sci_ns_per_req", sci_rung - lru_rung);
    v.set("scip.decision_ns_per_req", scip_rung - lru_rung);
    v.set("residual.lru_ns_per_req", lru_ns - lru_rung - lru_extra_ns);
    v.set(
        "residual.scip_ns_per_req",
        scip_ns - scip_rung - scip_extra_ns,
    );
    if let Some(last) = rounds.last() {
        let n = requests.max(1) as f64;
        v.set(
            "cdn_cache.evictions_per_req",
            last.lru_stats.evictions as f64 / n,
        );
        v.set(
            "cdn_cache.insertions_per_req",
            last.lru_stats.insertions as f64 / n,
        );
        v.set(
            "cdn_cache.metadata_bytes_per_object",
            last.scip_bytes_per_object,
        );
        v.set(
            "cdn_sim.footprint_over_llc",
            last.scip_memory_bytes as f64 / cdn_cache::llc_bytes() as f64,
        );
    }
}

/// Requests per second in millions for `requests` served in `secs`.
pub fn mreqs(requests: u64, secs: f64) -> f64 {
    requests as f64 / secs.max(1e-9) / 1e6
}

/// ns per request for `requests` served in `secs`.
pub fn ns_per_req(requests: u64, secs: f64) -> f64 {
    secs * 1e9 / requests.max(1) as f64
}

/// Process peak resident set in MB (VmHWM). Workloads read it once,
/// after set-up and their first LRU and SCIP pass: later passes only add
/// the allocator's retention across repeated runs, which grows with the
/// number of passes a run happens to fit.
pub fn peak_rss_mb(report: &mut Report) -> f64 {
    match cdn_sim::peak_rss_bytes() {
        Some(b) => b as f64 / 1e6,
        None => {
            report.fail(
                0,
                "peak RSS is unavailable (no /proc/self/status)".to_string(),
            );
            0.0
        }
    }
}

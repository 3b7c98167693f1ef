//! Trace-driven cache simulator and the per-figure experiment harness.
//!
//! - [`runner`]: a policy registry ([`runner::PolicyKind`]) that can build
//!   every algorithm in the workspace against a trace context, plus the
//!   instrumented replay that measures miss ratio, TPS, per-request CPU
//!   time and peak metadata memory — the quantities behind Figures 8-12.
//!   Replays dispatch once per run and monomorphize, and every entry
//!   point — [`runner::run_policy`], [`runner::PolicyKind::replay_batched`],
//!   [`runner::PolicyKind::replay_stream`] and the observer hook
//!   [`runner::PolicyKind::replay_observed`] the oracle suites use — runs
//!   the same per-request loop.
//! - [`shard`]: one policy instance per key partition, replayed on
//!   dedicated threads ([`shard::run_sharded`]), serially
//!   ([`shard::run_sharded_serial`]), from a chunk stream
//!   ([`shard::run_sharded_stream`]) or with failover routing
//!   ([`shard::run_routed_serial`]).
//! - [`sweep`]: lock-free parallel execution of
//!   {workload × policy × cache size} grids (atomic work distributor,
//!   per-job disjoint result slots), with per-job panic isolation and
//!   bounded retry ([`sweep::run_jobs`]); [`sweep::parallel_runs`] is its
//!   strict abort-on-panic form.
//! - [`checkpoint`]: JSONL sidecar checkpoint/resume for sweeps, keyed
//!   by stable job fingerprints (policy + cache size + trace content
//!   hash + seed); set `CDN_SIM_CHECKPOINT` to enable for experiments.
//! - [`stream`]: the out-of-core seam — [`stream::TraceSource`] replays
//!   either in-RAM columns or a disk-backed chunk stream through the
//!   same monomorphized hot loop (ledgers u64-identical), and
//!   [`stream::sweep_streamed`] runs checkpointable policy sweeps whose
//!   peak RSS is independent of trace length.
//! - `fault` (feature `fault-injection`): deterministic failpoints that
//!   make sweep jobs panic and trace reads fail on demand, so tests can
//!   prove the recovery paths.
//! - [`table`]: figure-style table formatting + TSV dumps under
//!   `results/`.
//! - [`experiments`]: one function per paper table/figure; the `fig*` and
//!   `table1` binaries are thin wrappers around these.
//!
//! Scale is controlled by the `REPRO_REQUESTS` environment variable
//! (default 500 000 requests per trace) so the full suite runs on a laptop
//! in minutes while keeping every ratio of the paper's setup.

pub mod checkpoint;
pub mod experiments;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod runner;
pub mod shard;
pub mod stream;
pub mod sweep;
pub mod table;

pub use checkpoint::{job_fingerprint, run_checkpointed, Checkpoint};
pub use experiments::ExperimentError;
pub use runner::{run_policy, BatchMode, PolicyKind, RunMeasurement, TraceCtx, AUTO_PREFETCH_DIST};
pub use shard::{
    run_routed_serial, run_sharded, run_sharded_serial, run_sharded_stream, AggregateMeasurement,
    OutageWindow, RoutedRunReport, RoutedShardLedger, ShardedRunReport, SHARD_QUEUE_SLOTS,
};
pub use stream::{sweep_streamed, TraceSource};
pub use sweep::{parallel_runs, run_jobs, JobOutcome, SweepConfig, SweepReport};
pub use table::{Table, TableError};

/// Peak resident set size of this *process* in bytes, if the platform
/// exposes it.
///
/// Reads `VmHWM` from `/proc/self/status` — the kernel's process-wide
/// high-water mark, which includes every thread's stack and all
/// shard-replay allocations (RSS is a property of the address space, not
/// of any one thread). Taking the max with the current `VmRSS` guards
/// against the brief window where a just-grown mapping is visible in
/// `VmRSS` before the HWM line is refreshed. Call this at the *end* of a
/// run, after multi-threaded sections have joined, so the reported peak
/// covers them.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    };
    let hwm = field("VmHWM:");
    let rss = field("VmRSS:");
    match (hwm, rss) {
        (Some(h), Some(r)) => Some(h.max(r)),
        (h, r) => h.or(r),
    }
}

/// Unwrap a fallible step in a binary, exiting nonzero with context.
///
/// The library crates return structured errors instead of panicking; the
/// `fig*` binaries funnel those through here so a failure prints
/// `error: <what>: <cause>` on stderr and exits with status 1.
pub fn or_die<T, E: std::fmt::Display>(res: Result<T, E>, what: &str) -> T {
    match res {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// Requests per synthetic trace (override with `REPRO_REQUESTS`).
pub fn default_requests() -> u64 {
    std::env::var("REPRO_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500_000)
}

/// Master seed for experiments (override with `REPRO_SEED`).
pub fn default_seed() -> u64 {
    std::env::var("REPRO_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

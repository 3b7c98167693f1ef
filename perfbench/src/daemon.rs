//! `daemon-cdnt`: the `replay-cdnt` trace and cache served by `cdnd`.
//!
//! The policy work is the same as `replay-cdnt`'s, so the difference
//! between the two workloads is the daemon handoff: the ring, per-request
//! atomics and `catch_unwind`. The client is closed-loop with
//! backpressure (`FailFast` with a long push timeout): it submits the next
//! window once the ring has room for it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cdn_sim::PolicyKind;
use cdnd::{
    feed_batched, ledger_diff, Admit, Daemon, DaemonConfig, DaemonStats, FeedMode, ShardPlan,
};

use crate::bench::{self, mreqs, ns_per_req, Values};
use crate::replay::cdnt_input;
use crate::report::{median, quantile, Ledger, Report};
use crate::rungs;
use crate::spans::{self, timed};
use crate::Run;

/// Open-loop arrival rate, requests per second: under half of SCIP's
/// closed-loop rate on one shard.
const OPEN_RATE: f64 = 2.0e6;
/// Requests per open-loop window: small enough that the trace gives
/// ~2000 windows, so the p99 has more than ten windows beyond it.
const OPEN_WINDOW: usize = 512;
/// How long a closed-loop push may wait for ring space.
const PUSH_TIMEOUT: Duration = Duration::from_secs(60);

/// The trace partitioned for 1 and 2 shards, and its cache size.
struct Plans {
    one: ShardPlan,
    two: ShardPlan,
    cap: u64,
}

/// The daemon's defaults (4096-slot rings, 64-request worker batches)
/// with this workload's shards, cache and seed.
fn config(shards: usize, cap: u64, seed: u64) -> DaemonConfig {
    DaemonConfig {
        shards,
        total_capacity: cap,
        seed,
        ..DaemonConfig::default()
    }
}

/// Generate the trace, plan it for 1 and 2 shards, and spawn (and stop) a
/// daemon once.
fn setup(seed: u64) -> (Result<Plans, String>, u64, f64) {
    let ((cols, cap), hash, gen_s) = cdnt_input(seed);
    let requests = cols.to_requests();
    drop(cols);
    let one = ShardPlan::build(&requests, 1, seed);
    let two = ShardPlan::build(&requests, 2, seed);
    drop(requests);
    let spawned = timed("cdnd::daemon", "Daemon::spawn", || {
        Daemon::spawn(config(1, cap, seed), one.factory(PolicyKind::Lru))
    });
    let plans = match spawned.0 {
        Ok(d) => {
            d.shutdown();
            Ok(Plans { one, two, cap })
        }
        Err(e) => Err(format!("Daemon::spawn: {e}")),
    };
    (plans, hash, gen_s)
}

/// One closed-loop run, timed from the first submit to `shutdown()`
/// returning with every request served.
struct Served {
    secs: f64,
    submit_secs: f64,
    drain_secs: f64,
    stats: DaemonStats,
    refused: u64,
}

fn closed_loop(
    plan: &ShardPlan,
    kind: PolicyKind,
    cap: u64,
    seed: u64,
    report: &mut Report,
) -> Option<Served> {
    let shards = plan.sharded.shard_count();
    let cfg = config(shards, cap, seed);
    let daemon = match timed("cdnd::daemon", "Daemon::spawn", || {
        Daemon::spawn(cfg, plan.factory(kind))
    })
    .0
    {
        Ok(d) => d,
        Err(e) => {
            report.fail(plan.requests.len() as u64, format!("Daemon::spawn: {e}"));
            return None;
        }
    };
    let start = Instant::now();
    let (feed, submit_secs) = timed("cdnd::harness", "feed_batched", || {
        feed_batched(
            &daemon,
            &plan.requests,
            FeedMode::FailFast {
                push_timeout: PUSH_TIMEOUT,
            },
        )
    });
    // Traced runs time the drain separately: from the last submit until
    // every accepted request is served.
    let mut drain_secs = 0.0;
    if spans::enabled() {
        drain_secs = timed("cdnd::daemon", "drain", || {
            while daemon
                .stats()
                .shards
                .iter()
                .any(|s| s.processed + s.lost < s.enqueued)
            {
                std::hint::spin_loop();
            }
        })
        .1;
    }
    let (stats, _) = timed("cdnd::daemon", "shutdown", || daemon.shutdown());
    let secs = start.elapsed().as_secs_f64();
    let submitted: u64 = feed.per_shard.iter().map(|t| t.submitted).sum();
    let refused = submitted - feed.total_accepted();
    let lost = stats.total_lost()
        + stats
            .shards
            .iter()
            .map(|s| s.dropped_at_shutdown)
            .sum::<u64>();
    if refused + lost > 0 {
        report.fail(
            refused + lost,
            format!(
                "{} on {shards} shard(s): {refused} refused, {lost} lost",
                kind.label()
            ),
        );
    }
    if let Err(e) = feed.check_against(&stats.shards, true) {
        report.fail(
            0,
            format!(
                "{} on {shards} shard(s): client/daemon tally: {e}",
                kind.label()
            ),
        );
    }
    Some(Served {
        secs,
        submit_secs,
        drain_secs,
        stats,
        refused,
    })
}

/// Every shard's ledger of `served` must equal the plan's serial reference.
fn check_reference(
    report: &mut Report,
    what: &str,
    served: &[DaemonStats],
    reference: &cdn_sim::ShardedRunReport,
) {
    for stats in served {
        report.attempt(Ledger::from(stats).requests());
        for (shard, (snap, m)) in stats.shards.iter().zip(&reference.per_shard).enumerate() {
            if let Some(diff) = ledger_diff(shard, snap, m) {
                report.fail(snap.hits + snap.misses, format!("{what}: {diff}"));
            }
        }
    }
}

/// Open-loop diagnostic: submit one window every `OPEN_WINDOW / OPEN_RATE`
/// seconds whatever the daemon is doing, refusing what the ring cannot
/// take, and time each window from when it was due until the shard has
/// served it.
struct OpenLoop {
    p50_us: f64,
    p99_us: f64,
    refused_frac: f64,
    gen_late_max_us: f64,
}

fn open_loop(plan: &ShardPlan, cap: u64, seed: u64) -> Result<OpenLoop, String> {
    let daemon = Daemon::spawn(config(1, cap, seed), plan.factory(PolicyKind::Scip))
        .map_err(|e| format!("Daemon::spawn: {e}"))?;
    let period = Duration::from_secs_f64(OPEN_WINDOW as f64 / OPEN_RATE);
    let windows = plan.requests.len().div_ceil(OPEN_WINDOW);
    let mut due_at = Vec::with_capacity(windows);
    let mut accepted_through = Vec::with_capacity(windows);
    let mut done_at: Vec<Instant> = Vec::with_capacity(windows);
    let (mut accepted, mut refused, mut late_max) = (0u64, 0u64, Duration::ZERO);
    let served = |d: &Daemon| {
        d.stats()
            .shards
            .iter()
            .map(|s| s.processed + s.lost)
            .sum::<u64>()
    };
    let poll = |d: &Daemon, accepted_through: &[u64], done_at: &mut Vec<Instant>| {
        let s = served(d);
        let now = Instant::now();
        while done_at.len() < accepted_through.len() && s >= accepted_through[done_at.len()] {
            done_at.push(now);
        }
    };
    let t0 = Instant::now() + Duration::from_millis(1);
    timed("cdnd::harness", "open_loop", || {
        for (i, window) in plan.requests.chunks(OPEN_WINDOW).enumerate() {
            let due = t0 + period * i as u32;
            while Instant::now() < due {
                poll(&daemon, &accepted_through, &mut done_at);
            }
            late_max = late_max.max(Instant::now() - due);
            let mut batch: VecDeque<_> = window.iter().copied().collect();
            accepted += daemon.submit_batch(0, &mut batch, None).unwrap_or(0) as u64;
            for req in batch {
                match daemon.submit_classed(req, Admit::default(), None) {
                    Ok(_) => accepted += 1,
                    Err(_) => refused += 1,
                }
            }
            due_at.push(due);
            accepted_through.push(accepted);
        }
        let give_up = Instant::now() + Duration::from_secs(30);
        while done_at.len() < accepted_through.len() && Instant::now() < give_up {
            poll(&daemon, &accepted_through, &mut done_at);
        }
    });
    daemon.shutdown();
    if done_at.len() < due_at.len() {
        return Err(format!(
            "open loop: {} of {} windows never served",
            due_at.len() - done_at.len(),
            due_at.len()
        ));
    }
    let lat_us: Vec<f64> = due_at
        .iter()
        .zip(&done_at)
        .map(|(due, done)| done.saturating_duration_since(*due).as_secs_f64() * 1e6)
        .collect();
    Ok(OpenLoop {
        p50_us: quantile(&lat_us, 0.50),
        p99_us: quantile(&lat_us, 0.99),
        refused_frac: refused as f64 / plan.requests.len().max(1) as f64,
        gen_late_max_us: late_max.as_secs_f64() * 1e6,
    })
}

pub fn run(r: &Run, report: &mut Report) -> Values {
    let mut v = Values::default();
    let (plans, setup_s, gen_s) = bench::repeat_setup(report, || setup(r.seed));
    let p = match plans {
        Ok(p) => p,
        Err(e) => {
            report.fail(crate::replay::REQUESTS, e);
            return v;
        }
    };
    let n = p.one.requests.len() as u64;

    let mut lru_runs: Vec<DaemonStats> = Vec::new();
    let mut scip_runs: Vec<DaemonStats> = Vec::new();
    let mut two_runs: Vec<DaemonStats> = Vec::new();
    let (mut lru_s, mut scip_s, mut two_s) = (Vec::new(), Vec::new(), Vec::new());
    // Traced-only samples.
    let (mut submit_s, mut drain_s, mut lru_ref_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut lru_untraced_s = Vec::new();
    let (mut peak_depth, mut refused) = (0usize, 0u64);
    let mut ladder = Vec::new();
    let mut peak_rss = None;
    // The serial references the daemon ledgers must equal; the traced run
    // times them every round (the handoff rung), the untraced run computes
    // them once after the window.
    let mut lru_reference = None;
    let mut scip_reference = None;

    bench::measure(r.seconds, r.min_rounds(), !r.traced, |keep| {
        let lru = closed_loop(&p.one, PolicyKind::Lru, p.cap, r.seed, report);
        let scip = closed_loop(&p.one, PolicyKind::Scip, p.cap, r.seed, report);
        if peak_rss.is_none() {
            peak_rss = Some(bench::peak_rss_mb(report));
        }
        let two = closed_loop(&p.two, PolicyKind::Scip, p.cap, r.seed, report);
        if let (true, Some(s)) = (r.traced, &lru) {
            submit_s.push(s.submit_secs);
            drain_s.push(s.drain_secs);
            let depth = s.stats.shards.iter().map(|x| x.peak_depth).max();
            peak_depth = peak_depth.max(depth.unwrap_or(0));
            refused += s.refused;
        }
        for (served, secs, runs) in [
            (lru, &mut lru_s, &mut lru_runs),
            (scip, &mut scip_s, &mut scip_runs),
            (two, &mut two_s, &mut two_runs),
        ] {
            if let Some(s) = served {
                if keep {
                    secs.push(s.secs);
                }
                runs.push(s.stats);
            }
        }
        if r.traced {
            let untraced =
                spans::untraced(|| closed_loop(&p.one, PolicyKind::Lru, p.cap, r.seed, report));
            if let Some(s) = untraced {
                lru_untraced_s.push(s.secs);
                lru_runs.push(s.stats);
            }
            // The handoff is measured against the reference's own replay
            // time: its call also builds per-shard contexts, which the
            // daemon's set-up did instead.
            let (lr, _) = timed("cdnd::harness", "ShardPlan::reference[LRU]", || {
                p.one.reference(PolicyKind::Lru, p.cap)
            });
            lru_ref_s.push(lr.wall_secs);
            let (sr, _) = timed("cdnd::harness", "ShardPlan::reference[SCIP]", || {
                p.one.reference(PolicyKind::Scip, p.cap)
            });
            let refs = rungs::Refs {
                lru: Ledger::from(&lr.aggregate),
                scip: Ledger::from(&sr.aggregate),
            };
            ladder.push(rungs::round(
                &p.one.sharded.shards[0],
                p.cap,
                r.seed,
                &refs,
                report,
            ));
            lru_reference = Some(lr);
            scip_reference = Some(sr);
        }
    });

    let lru_reference = lru_reference.unwrap_or_else(|| p.one.reference(PolicyKind::Lru, p.cap));
    let scip_reference = scip_reference.unwrap_or_else(|| p.one.reference(PolicyKind::Scip, p.cap));
    let two_reference = p.two.reference(PolicyKind::Scip, p.cap);
    check_reference(report, "LRU daemon, 1 shard", &lru_runs, &lru_reference);
    check_reference(report, "SCIP daemon, 1 shard", &scip_runs, &scip_reference);
    check_reference(report, "SCIP daemon, 2 shards", &two_runs, &two_reference);

    let scip = scip_runs.first().map(Ledger::from).unwrap_or_default();
    v.set("setup_s", setup_s);
    v.set("lru_mreqs", mreqs(n, median(&lru_s)));
    v.set("scip_mreqs", mreqs(n, median(&scip_s)));
    v.set("scip_2shard_mreqs", mreqs(n, median(&two_s)));
    v.set("miss_ratio_scip", scip.miss_ratio());
    v.set("byte_miss_ratio_scip", scip.byte_miss_ratio());
    v.set("peak_rss_mb", peak_rss.unwrap_or(0.0));

    if r.traced {
        let lru_ns = ns_per_req(n, median(&lru_s));
        let scip_ns = ns_per_req(n, median(&scip_s));
        let handoff = lru_ns - ns_per_req(n, median(&lru_ref_s));
        v.set("cdn_trace.gen_ns_per_req", ns_per_req(n, gen_s));
        v.set("cdnd.submit_ns_per_req", ns_per_req(n, median(&submit_s)));
        v.set("cdnd.drain_ms", median(&drain_s) * 1e3);
        v.set("cdnd.handoff_ns_per_req", handoff);
        v.set("cdnd.ring_peak_depth", peak_depth as f64);
        v.set("cdnd.refused", refused as f64);
        v.set(
            "trace.overhead_frac",
            median(&lru_s) / median(&lru_untraced_s) - 1.0,
        );
        bench::set_ladder(&mut v, &ladder, n, (lru_ns, handoff), (scip_ns, handoff));
        match open_loop(&p.one, p.cap, r.seed) {
            Ok(o) => {
                v.set("cdnd.open_p50_us", o.p50_us);
                v.set("cdnd.open_p99_us", o.p99_us);
                v.set("cdnd.open_refused_frac", o.refused_frac);
                v.set("cdnd.gen_late_max_us", o.gen_late_max_us);
            }
            Err(e) => report.fail(0, e),
        }
    }
    v
}

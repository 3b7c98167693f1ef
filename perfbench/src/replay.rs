//! `replay-cdnt`: the CDN-T profile replayed in RAM.
//!
//! Hit-heavy and promotion-heavy (SCIP miss ratio ≈ 0.50), with SCIP's
//! metadata inside the LLC, so it isolates `cdn-cache` list upkeep and
//! `scip` decision logic while bypassing decode, DRAM-bound probes and the
//! daemon. `BatchMode::Auto` never engages here.

use cdn_sim::{run_sharded, run_sharded_serial, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::{partition_columns, TraceColumns, TraceGenerator, TraceStats, Workload};

use crate::bench::{self, mreqs, ns_per_req, Values, CACHE_GB};
use crate::report::{median, Ledger, Report};
use crate::rungs;
use crate::spans::{self, timed};
use crate::Run;

/// Requests in the trace. SCIP's metadata (≈ 5 MB) then sits well
/// inside the LLC. The LLC is shared with other tenants on the hosts this
/// runs on: with SCIP at ≈ 10 MB (2M requests) and ≈ 21 MB (4M), its
/// speed swung 1.45× and 1.7× from run to run with their load.
pub const REQUESTS: u64 = 1_000_000;
/// Shards of the sharded replay.
const SHARDS: usize = 2;

/// The CDN-T trace as columns, and its cache size by the 64 GB rule.
/// Returns the input, its content hash and the generation time.
pub fn cdnt_input(seed: u64) -> ((TraceColumns, u64), u64, f64) {
    let (trace, gen_s) = timed("cdn_trace::gen", "TraceGenerator::generate", || {
        TraceGenerator::generate(Workload::CdnT.profile().config(REQUESTS, seed))
    });
    let cap = TraceStats::compute(&trace)
        .cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(CACHE_GB));
    let cols = TraceColumns::from_requests(&trace);
    let hash = cols.content_hash();
    ((cols, cap), hash, gen_s)
}

/// One in-RAM replay through the runner, timed from outside.
fn replay(
    kind: PolicyKind,
    cap: u64,
    cols: &TraceColumns,
    ctx: &TraceCtx,
    mode: BatchMode,
) -> (Ledger, f64) {
    let call = match (kind, mode) {
        (PolicyKind::Lru, _) => "replay_batched[LRU]",
        (_, BatchMode::Off) => "replay_batched[SCIP,Off]",
        _ => "replay_batched[SCIP]",
    };
    let (m, secs) = timed("cdn_sim::runner", call, || {
        kind.replay_batched(cap, cols, ctx, mode)
    });
    (Ledger::from(&m), secs)
}

pub fn run(r: &Run, report: &mut Report) -> Values {
    let mut v = Values::default();
    let ((cols, cap), setup_s, gen_s) = bench::repeat_setup(report, || cdnt_input(r.seed));
    let n = cols.len() as u64;
    let ctx = TraceCtx::without_oracle(n, r.seed);

    // The first pass of each kind is the reference every later pass of
    // that kind must reproduce exactly.
    let mut lru_ref: Option<Ledger> = None;
    let mut scip_ref: Option<Ledger> = None;
    let mut sharded_ref: Option<Ledger> = None;
    let mut lru_s = Vec::new();
    let mut scip_s = Vec::new();
    let mut sharded_s = Vec::new();
    // Traced-only samples.
    let mut scip_off_s = Vec::new();
    let mut lru_untraced_s = Vec::new();
    let mut partition_s = Vec::new();
    let mut serial_s = Vec::new();
    let mut imbalance = 0.0;
    let mut ladder = Vec::new();
    let mut peak_rss = None;

    bench::measure(r.seconds, r.min_rounds(), !r.traced, |keep| {
        let (lru, secs) = replay(PolicyKind::Lru, cap, &cols, &ctx, BatchMode::Auto);
        let want = *lru_ref.get_or_insert(lru);
        report.check_ledger("in-RAM LRU replay", lru, want);
        let (scip, scip_secs) = replay(PolicyKind::Scip, cap, &cols, &ctx, BatchMode::Auto);
        let scip_want = *scip_ref.get_or_insert(scip);
        report.check_ledger("in-RAM SCIP replay", scip, scip_want);
        if peak_rss.is_none() {
            peak_rss = Some(bench::peak_rss_mb(report));
        }

        let (sharded, part_secs) = timed("cdn_trace::shard", "partition_columns", || {
            partition_columns(&cols, SHARDS)
        });
        let (rep, run_secs) = timed("cdn_sim::shard", "run_sharded", || {
            run_sharded(PolicyKind::Scip, cap, &sharded, r.seed, BatchMode::Auto)
        });
        let agg = Ledger::from(&rep.aggregate);
        let agg_want = *sharded_ref.get_or_insert(agg);
        report.check_ledger("2-shard SCIP replay", agg, agg_want);

        if keep {
            lru_s.push(secs);
            scip_s.push(scip_secs);
            sharded_s.push(part_secs + run_secs);
        }
        if r.traced {
            let (off, off_secs) = replay(PolicyKind::Scip, cap, &cols, &ctx, BatchMode::Off);
            report.check_ledger("in-RAM SCIP replay, BatchMode::Off", off, scip_want);
            scip_off_s.push(off_secs);
            let (plain, plain_secs) =
                spans::untraced(|| replay(PolicyKind::Lru, cap, &cols, &ctx, BatchMode::Auto));
            report.check_ledger("untraced LRU replay", plain, want);
            lru_untraced_s.push(plain_secs);
            let (serial, ser_secs) = timed("cdn_sim::shard", "run_sharded_serial", || {
                run_sharded_serial(PolicyKind::Scip, cap, &sharded, r.seed, BatchMode::Auto)
            });
            let serial = Ledger::from(&serial.aggregate);
            report.check_ledger("2-shard serial reference", serial, agg_want);
            serial_s.push(ser_secs);
            partition_s.push(part_secs);
            imbalance = sharded.imbalance();
            let refs = rungs::Refs {
                lru: want,
                scip: scip_want,
            };
            ladder.push(rungs::round(&cols, cap, r.seed, &refs, report));
        }
    });

    if !r.traced {
        // Threaded shards must equal the serial decomposition exactly.
        let sharded = partition_columns(&cols, SHARDS);
        let serial = run_sharded_serial(PolicyKind::Scip, cap, &sharded, r.seed, BatchMode::Auto);
        if let Some(want) = sharded_ref {
            report.check_ledger(
                "2-shard serial reference",
                Ledger::from(&serial.aggregate),
                want,
            );
        }
    }

    let scip = scip_ref.unwrap_or_default();
    v.set("setup_s", setup_s);
    v.set("lru_mreqs", mreqs(n, median(&lru_s)));
    v.set("scip_mreqs", mreqs(n, median(&scip_s)));
    v.set("scip_2shard_mreqs", mreqs(n, median(&sharded_s)));
    v.set("miss_ratio_scip", scip.miss_ratio());
    v.set("byte_miss_ratio_scip", scip.byte_miss_ratio());
    v.set("peak_rss_mb", peak_rss.unwrap_or(0.0));

    if r.traced {
        let lru_ns = ns_per_req(n, median(&lru_s));
        let scip_ns = ns_per_req(n, median(&scip_s));
        v.set("cdn_trace.gen_ns_per_req", ns_per_req(n, gen_s));
        v.set(
            "cdn_trace.partition_ns_per_req",
            ns_per_req(n, median(&partition_s)),
        );
        v.set(
            "cdn_sim.prefetch_saving_ns_per_req",
            ns_per_req(n, median(&scip_off_s)) - scip_ns,
        );
        v.set(
            "cdn_sim.shard_efficiency",
            median(&serial_s) / median(&sharded_s) / SHARDS as f64,
        );
        v.set("cdn_sim.shard_imbalance", imbalance);
        v.set(
            "trace.overhead_frac",
            median(&lru_s) / median(&lru_untraced_s) - 1.0,
        );
        bench::set_ladder(&mut v, &ladder, n, (lru_ns, 0.0), (scip_ns, 0.0));
    }
    v
}

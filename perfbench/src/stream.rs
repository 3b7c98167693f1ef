//! `stream-cdna`: the CDN-A profile written to disk and replayed
//! out-of-core.
//!
//! The write-heavy counterpart of `replay-cdnt` (miss ratio ≈ 0.72), so
//! evictions, insertions and ghost-list churn dominate. SCIP's metadata
//! outgrows the LLC, its probes go to DRAM and `BatchMode::Auto` engages. It is the only workload that exercises `cdn-trace` decode,
//! CRC and the prefetch thread.

use std::cell::Cell;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use cdn_cache::key_shard;
use cdn_sim::{
    run_sharded_serial, run_sharded_stream, BatchMode, PolicyKind, TraceCtx, TraceSource,
};
use cdn_trace::checksum::Fnv1a64;
use cdn_trace::io::read_binary_columns;
use cdn_trace::{
    crc32, generate_binary, partition_columns, ChunkIter, StreamingTrace, TraceColumns, TraceError,
    TraceStats, Workload, CHUNK_RECORDS,
};

use crate::bench::{self, mreqs, ns_per_req, Values, CACHE_GB};
use crate::report::{median, Ledger, Report};
use crate::rungs;
use crate::spans::{self, timed};
use crate::Run;

/// Requests in the corpus: SCIP's metadata (≈ 62–65 MB) is twice a
/// 32 MiB LLC, LRU's (≈ 19 MB) still fits in it. At this size both
/// footprints sit between the power-of-two steps of their tables for every
/// seed, so peak RSS does not jump from seed to seed. (At 12M requests
/// LRU's would outgrow the LLC too, but SCIP's tables then land on
/// different steps for different seeds.)
pub const REQUESTS: u64 = 8_000_000;
/// Shards of the sharded streamed replay.
const SHARDS: usize = 2;
/// Bytes per `crc32` call in the CRC pass.
const CRC_BLOCK: usize = 4 << 20;
/// Highest object id the set-up scan accepts (bounds its id bitmap).
const MAX_ID: u64 = 1 << 34;

/// The on-disk corpus and what the set-up scan learned about it.
struct Corpus {
    path: PathBuf,
    cap: u64,
    /// Requests routed to each shard (sizes each shard's replay context
    /// the way an in-RAM partition would).
    shard_requests: [u64; SHARDS],
}

/// One pass over the corpus: working-set bytes (sum of first-seen sizes;
/// the generator's ids are dense, so a bitmap marks them), per-shard
/// request counts and the content hash.
fn scan(path: &Path) -> Result<(u64, [u64; SHARDS], u64), TraceError> {
    let mut it = ChunkIter::open(path)?;
    let mut cols = TraceColumns::with_capacity(CHUNK_RECORDS);
    let mut seen: Vec<u64> = Vec::new();
    let mut wss = 0u64;
    let mut shards = [0u64; SHARDS];
    let mut h = Fnv1a64::new();
    loop {
        cols.ids.clear();
        cols.sizes.clear();
        cols.ticks.clear();
        cols.wall_secs.clear();
        if it.next_chunk_columns(&mut cols)? == 0 {
            break;
        }
        cols.fold_content_hash(&mut h);
        for (id, size) in cols.ids.iter().zip(&cols.sizes) {
            let id = id.0;
            if id > MAX_ID {
                return Err(TraceError::Io(std::io::Error::other(format!(
                    "object id {id} is beyond the set-up scan's bitmap"
                ))));
            }
            let (word, bit) = ((id / 64) as usize, 1u64 << (id % 64));
            if word >= seen.len() {
                seen.resize(word + 1, 0);
            }
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                wss += size;
            }
            shards[key_shard(id, SHARDS)] += 1;
        }
    }
    Ok((wss, shards, h.finish()))
}

/// Generate the corpus to disk and size its cache by the 64 GB rule.
fn setup(path: &Path, seed: u64) -> (Result<Corpus, String>, u64, f64) {
    let cfg = Workload::CdnA.profile().config(REQUESTS, seed);
    let (written, gen_s) = timed("cdn_trace::stream", "generate_binary", || {
        generate_binary(path, cfg)
    });
    let corpus = written
        .map_err(|e| format!("generate_binary: {e}"))
        .and_then(|_| scan(path).map_err(|e| format!("set-up scan: {e}")));
    match corpus {
        Ok((wss, shard_requests, hash)) => {
            let stats = TraceStats {
                total_requests: REQUESTS,
                unique_objects: 0,
                max_size: 0,
                min_size: 0,
                total_bytes: 0,
                wss_bytes: wss,
            };
            let cap = stats.cache_bytes_for_fraction(Workload::CdnA.paper_cache_fraction(CACHE_GB));
            let corpus = Corpus {
                path: path.to_path_buf(),
                cap,
                shard_requests,
            };
            (Ok(corpus), hash, gen_s)
        }
        Err(e) => (Err(e), 0, gen_s),
    }
}

/// Times every `StreamingTrace::next` the replay thread makes: the time
/// it blocks waiting for the prefetch thread.
struct TimedStream<'a> {
    inner: StreamingTrace,
    wait_s: &'a Cell<f64>,
}

impl Iterator for TimedStream<'_> {
    type Item = Result<TraceColumns, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (item, secs) = timed("cdn_trace::stream", "StreamingTrace::next", || {
            self.inner.next()
        });
        self.wait_s.set(self.wait_s.get() + secs);
        item
    }
}

fn call_name(kind: PolicyKind, mode: BatchMode) -> &'static str {
    match (kind, mode) {
        (PolicyKind::Lru, _) => "replay_stream[LRU]",
        (_, BatchMode::Off) => "replay_stream[SCIP,Off]",
        _ => "replay_stream[SCIP]",
    }
}

/// The streamed replay as users run it: `TraceSource::open(..).replay(..)`.
fn stream_pass(kind: PolicyKind, c: &Corpus, ctx: &TraceCtx) -> Result<(Ledger, f64), TraceError> {
    let (m, secs) = timed("cdn_sim::stream", call_name(kind, BatchMode::Auto), || {
        TraceSource::open(&c.path)?.replay(kind, c.cap, ctx, BatchMode::Auto)
    });
    Ok((Ledger::from(&m?), secs))
}

/// The same replay through `replay_stream` with the timing adapter.
/// Returns the ledger, the wall time and the time spent waiting in
/// `StreamingTrace::next`.
fn adapted_pass(
    kind: PolicyKind,
    c: &Corpus,
    ctx: &TraceCtx,
    mode: BatchMode,
) -> Result<(Ledger, f64, f64), TraceError> {
    let wait_s = Cell::new(0.0);
    let (m, secs) = timed("cdn_sim::runner", call_name(kind, mode), || {
        let inner = StreamingTrace::open(&c.path)?;
        let chunks = TimedStream {
            inner,
            wait_s: &wait_s,
        };
        kind.replay_stream(c.cap, chunks, ctx, mode)
    });
    Ok((Ledger::from(&m?), secs, wait_s.get()))
}

fn sharded_pass(c: &Corpus, ctxs: &[TraceCtx]) -> Result<(Ledger, f64), TraceError> {
    let (rep, secs) = timed("cdn_sim::shard", "run_sharded_stream", || {
        let chunks = StreamingTrace::open(&c.path)?;
        run_sharded_stream(PolicyKind::Scip, c.cap, chunks, ctxs, BatchMode::Auto)
    });
    Ok((Ledger::from(&rep?.aggregate), secs))
}

/// Decode alone: the `ChunkIter::next_chunk_columns` loop over the corpus.
fn decode_pass(path: &Path) -> Result<(usize, f64), TraceError> {
    let (n, secs) = timed("cdn_trace::io", "ChunkIter::next_chunk_columns", || {
        let mut it = ChunkIter::open(path)?;
        let mut total = 0usize;
        loop {
            let mut cols = TraceColumns::with_capacity(CHUNK_RECORDS);
            match it.next_chunk_columns(&mut cols)? {
                0 => return Ok::<usize, TraceError>(total),
                k => total += k,
            }
        }
    });
    Ok((n?, secs))
}

/// `crc32` over the corpus bytes, read in blocks; only the CRC is timed.
fn crc_pass(path: &Path) -> std::io::Result<(u64, f64)> {
    let mut f = File::open(path)?;
    let mut buf = vec![0u8; CRC_BLOCK];
    let (mut bytes, mut secs, mut acc) = (0u64, 0.0, 0u32);
    loop {
        let k = f.read(&mut buf)?;
        if k == 0 {
            break;
        }
        let (c, s) = timed("cdn_trace::checksum", "crc32", || crc32(&buf[..k]));
        acc ^= c;
        bytes += k as u64;
        secs += s;
    }
    std::hint::black_box(acc);
    Ok((bytes, secs))
}

/// Check one pass's ledger against the first pass of its kind; returns
/// its wall time, or `None` if the pass failed outright.
fn pass<E: std::fmt::Display>(
    report: &mut Report,
    n: u64,
    what: &str,
    res: Result<(Ledger, f64), E>,
    want: &mut Option<Ledger>,
) -> Option<f64> {
    match res {
        Ok((ledger, secs)) => {
            let reference = *want.get_or_insert(ledger);
            report.check_ledger(what, ledger, reference);
            Some(secs)
        }
        Err(e) => {
            report.attempt(n);
            report.fail(n, format!("{what}: {e}"));
            None
        }
    }
}

pub fn run(r: &Run, report: &mut Report) -> Values {
    let mut v = Values::default();
    let path = r.out_dir.join(format!("stream-cdna-seed{}.bin", r.seed));
    let (corpus, setup_s, gen_s) = bench::repeat_setup(report, || setup(&path, r.seed));
    let c = match corpus {
        Ok(c) => c,
        Err(e) => {
            report.fail(REQUESTS, e);
            let _ = std::fs::remove_file(&path);
            return v;
        }
    };
    let n = REQUESTS;
    let ctx = TraceCtx::without_oracle(n, r.seed);
    let ctxs: Vec<TraceCtx> = c
        .shard_requests
        .iter()
        .map(|&k| TraceCtx::without_oracle(k, r.seed))
        .collect();

    // The traced run keeps the corpus in RAM too, for the rung ladder; the
    // untraced run loads it only after the passes.
    let mut cols: Option<TraceColumns> = None;
    if r.traced {
        match read_binary_columns(&c.path) {
            Ok(loaded) => cols = Some(loaded),
            Err(e) => report.fail(n, format!("read_binary_columns: {e}")),
        }
    }

    let mut lru_ref: Option<Ledger> = None;
    let mut scip_ref: Option<Ledger> = None;
    let mut sharded_ref: Option<Ledger> = None;
    let mut lru_s = Vec::new();
    let mut scip_s = Vec::new();
    let mut sharded_s = Vec::new();
    // Traced-only samples.
    let mut lru_untraced_s = Vec::new();
    let mut scip_off_s = Vec::new();
    let mut lru_wait_s = Vec::new();
    let mut scip_wait_s = Vec::new();
    let mut decode_s = Vec::new();
    let mut crc_gbps = Vec::new();
    let mut ladder = Vec::new();
    let mut peak_rss = None;

    bench::measure(r.seconds, r.min_rounds(), !r.traced, |keep| {
        if r.traced {
            // Traced: the adapter-wrapped passes are the measured ones.
            let res = adapted_pass(PolicyKind::Lru, &c, &ctx, BatchMode::Auto);
            let lru = res.map(|(l, s, w)| {
                lru_wait_s.push(w);
                (l, s)
            });
            if let Some(s) = pass(
                report,
                n,
                "streamed LRU (timing adapter)",
                lru,
                &mut lru_ref,
            ) {
                lru_s.push(s);
            }
            let plain = spans::untraced(|| stream_pass(PolicyKind::Lru, &c, &ctx));
            if let Some(s) = pass(report, n, "streamed LRU (direct)", plain, &mut lru_ref) {
                lru_untraced_s.push(s);
            }
            let res = adapted_pass(PolicyKind::Scip, &c, &ctx, BatchMode::Auto);
            let scip = res.map(|(l, s, w)| {
                scip_wait_s.push(w);
                (l, s)
            });
            if let Some(s) = pass(
                report,
                n,
                "streamed SCIP (timing adapter)",
                scip,
                &mut scip_ref,
            ) {
                scip_s.push(s);
            }
            let off =
                adapted_pass(PolicyKind::Scip, &c, &ctx, BatchMode::Off).map(|(l, s, _)| (l, s));
            if let Some(s) = pass(
                report,
                n,
                "streamed SCIP, BatchMode::Off",
                off,
                &mut scip_ref,
            ) {
                scip_off_s.push(s);
            }
        } else {
            let lru = stream_pass(PolicyKind::Lru, &c, &ctx);
            if let Some(s) = pass(report, n, "streamed LRU", lru, &mut lru_ref) {
                if keep {
                    lru_s.push(s);
                }
            }
            let scip = stream_pass(PolicyKind::Scip, &c, &ctx);
            if let Some(s) = pass(report, n, "streamed SCIP", scip, &mut scip_ref) {
                if keep {
                    scip_s.push(s);
                }
            }
            if peak_rss.is_none() {
                peak_rss = Some(bench::peak_rss_mb(report));
            }
        }
        let sharded = sharded_pass(&c, &ctxs);
        if let Some(s) = pass(
            report,
            n,
            "streamed 2-shard SCIP",
            sharded,
            &mut sharded_ref,
        ) {
            if keep {
                sharded_s.push(s);
            }
        }
        if r.traced {
            match decode_pass(&c.path) {
                Ok((k, s)) if k as u64 == n => decode_s.push(s),
                Ok((k, _)) => report.fail(n, format!("decode pass read {k} of {n} records")),
                Err(e) => report.fail(n, format!("decode pass: {e}")),
            }
            match crc_pass(&c.path) {
                Ok((bytes, s)) => crc_gbps.push(bytes as f64 / s.max(1e-9) / 1e9),
                Err(e) => report.fail(0, format!("crc pass: {e}")),
            }
            if let (Some(cols), Some(lru), Some(scip)) = (&cols, lru_ref, scip_ref) {
                let refs = rungs::Refs { lru, scip };
                ladder.push(rungs::round(cols, c.cap, r.seed, &refs, report));
            }
        }
    });

    // Streamed ledgers must equal an in-RAM replay of the same corpus.
    if cols.is_none() {
        match read_binary_columns(&c.path) {
            Ok(loaded) => cols = Some(loaded),
            Err(e) => report.fail(n, format!("read_binary_columns: {e}")),
        }
    }
    if let Some(cols) = &cols {
        for (kind, want, what) in [
            (PolicyKind::Lru, lru_ref, "in-RAM LRU replay of the corpus"),
            (
                PolicyKind::Scip,
                scip_ref,
                "in-RAM SCIP replay of the corpus",
            ),
        ] {
            let m = kind.replay_batched(c.cap, cols, &ctx, BatchMode::Auto);
            if let Some(want) = want {
                report.check_ledger(what, Ledger::from(&m), want);
            }
        }
        let sharded = partition_columns(cols, SHARDS);
        let serial = run_sharded_serial(PolicyKind::Scip, c.cap, &sharded, r.seed, BatchMode::Auto);
        if let Some(want) = sharded_ref {
            report.check_ledger(
                "in-RAM 2-shard serial reference",
                Ledger::from(&serial.aggregate),
                want,
            );
        }
    }
    drop(cols);
    let _ = std::fs::remove_file(&c.path);

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
        let lru_wait = ns_per_req(n, median(&lru_wait_s));
        v.set("cdn_trace.gen_ns_per_req", ns_per_req(n, gen_s));
        v.set(
            "cdn_trace.decode_ns_per_req",
            ns_per_req(n, median(&decode_s)),
        );
        v.set("cdn_trace.crc_gbps", median(&crc_gbps));
        v.set("cdn_trace.stream_wait_ns_per_req", lru_wait);
        v.set(
            "cdn_sim.prefetch_saving_ns_per_req",
            ns_per_req(n, median(&scip_off_s)) - scip_ns,
        );
        v.set(
            "trace.overhead_frac",
            median(&lru_s) / median(&lru_untraced_s) - 1.0,
        );
        bench::set_ladder(
            &mut v,
            &ladder,
            n,
            (lru_ns, lru_wait),
            (scip_ns, ns_per_req(n, median(&scip_wait_s))),
        );
    }
    v
}

//! Replay-engine throughput harness.
//!
//! Replays a CDN-T-profile trace through a fixed policy set and reports,
//! per policy: requests/sec, ns/request, miss ratio and peak
//! policy-metadata bytes — plus the parallel-sweep scaling across all
//! policies, the sharded-replay scaling curve (`shard_scaling`) and the
//! pipelined-batch configuration (`batching`). Results go to stdout and to
//! `BENCH_replay.json` (working directory; run from the repo root) so
//! later PRs have a perf trajectory to defend.
//!
//! Knobs: `REPLAY_BENCH_REQUESTS` (default 2,000,000), `REPRO_SEED`,
//! `REPLAY_BENCH_OUT` (output path), `REPLAY_BENCH_TRACE` (replay a
//! `.bin`/`.csv` trace file instead of generating one — unreadable or
//! corrupt files exit 1 with a structured error), `REPLAY_SHARDS`
//! (comma-separated shard counts for the scaling section, default
//! `1,2,4,8`), `REPLAY_PREFETCH_DIST` (pipelined lookahead: unset/`auto`
//! = footprint-vs-LLC heuristic, `0` = off, `K` = fixed depth),
//! `CDN_SIM_CHECKPOINT` (JSONL sidecar; cached serial measurements are
//! reused on re-runs and the serial-vs-parallel comparison is reported as
//! null).
//!
//! **Streaming mode** (`--stream` or `REPLAY_BENCH_STREAM=1`): instead of
//! the in-RAM sections above, prove the out-of-core engine end-to-end and
//! write `BENCH_stream.json` (schema `replay_stream_bench_v1`). Phases,
//! ordered so the monotone `VmHWM` reads stay meaningful: (1) generate a
//! small corpus straight to disk (`REPLAY_STREAM_SMALL`, default 2M) and
//! replay it streamed, recording peak RSS; (2) generate a big corpus
//! (`REPLAY_STREAM_REQUESTS`, default 100M, `0` = skip) with the *small*
//! profile's core-object table (so generator state does not scale with
//! trace length) plus a flash-crowd drift window, replay it streamed, and
//! gate peak RSS at `REPLAY_STREAM_RSS_RATIO` (default 2.0) times the
//! small replay's peak — flat-memory billion-request replay in miniature;
//! (3) load the small corpus in RAM and require u64-identical ledgers
//! plus streamed LRU throughput at `REPLAY_STREAM_MIN_RATIO` (default
//! 0.85) of the in-RAM hot loop (`REPLAY_STREAM_IDENTITY=0` skips).
//! `REPLAY_STREAM_INRAM=1` instead loads the small corpus fully in RAM
//! and replays it there — the other half of `check.sh`'s two-process RSS
//! comparison. Corpora land in `REPLAY_STREAM_DIR` (default a temp dir,
//! removed unless `REPLAY_STREAM_KEEP=1`); the chunk size knob is
//! `REPLAY_STREAM_CHUNK` (records per coalesced chunk).

use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use cdn_cache::{llc_bytes, Request};
use cdn_sim::{
    parallel_runs, peak_rss_bytes, run_sharded, run_sharded_serial, BatchMode, Checkpoint,
    PolicyKind, RunMeasurement, TraceCtx, TraceSource, AUTO_PREFETCH_DIST,
};
use cdn_trace::{
    flash_crowd_window, generate_binary, partition_columns, stream_chunk_records, GeneratorConfig,
    TraceColumns, TraceGenerator, TraceStats, Workload,
};

/// The harness's fixed 8-policy sweep set: cheap and expensive, stateless
/// and learned, so scaling is measured over heterogeneous job lengths.
const POLICIES: [PolicyKind; 8] = [
    PolicyKind::Lru,
    PolicyKind::Dip,
    PolicyKind::Ship,
    PolicyKind::AscIp,
    PolicyKind::S4Lru,
    PolicyKind::Gdsf,
    PolicyKind::TinyLfu,
    PolicyKind::Scip,
];

/// Shard counts for the scaling section (`REPLAY_SHARDS`, comma-separated,
/// default `1,2,4,8`). Zero or unparsable entries are dropped.
fn shard_counts_from_env() -> Vec<usize> {
    let raw = std::env::var("REPLAY_SHARDS").unwrap_or_else(|_| "1,2,4,8".to_string());
    let counts: Vec<usize> = raw
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    if counts.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        counts
    }
}

/// One (policy × shard count) point on the scaling curve.
struct ShardPoint {
    policy: &'static str,
    shards: usize,
    aggregate_rps: f64,
    /// `serial wall / threaded wall` — `None` on a single-core machine,
    /// where "speedup" from time-sliced threads is scheduling noise, not
    /// parallelism. Suppressed, never fabricated.
    speedup: Option<f64>,
    /// `speedup / min(shards, cores)` — fraction of the ideal.
    efficiency: Option<f64>,
    ideal: usize,
    imbalance: f64,
    aggregate_miss_ratio: f64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One policy's numbers from a previously committed `BENCH_replay.json`,
/// recovered by string extraction (the file is machine-written by this
/// binary, so the shape is known; a parse miss just drops the baseline).
#[derive(Debug, Clone)]
struct BaselineEntry {
    policy: String,
    requests_per_sec: f64,
    peak_policy_bytes: f64,
    resident_objects: Option<f64>,
}

/// Extract the numeric field `key` from a one-object-per-line JSON row.
fn row_num(row: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = row.find(&pat)? + pat.len();
    let rest = &row[at..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Read the committed benchmark (if any) so this run can report a
/// before/after comparison. Handles both v1 (no resident_objects) and
/// v2 rows.
fn load_baseline(path: &str) -> Vec<BaselineEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| l.trim_start().starts_with("{\"policy\""))
        .filter_map(|row| {
            let at = row.find("\"policy\": \"")? + "\"policy\": \"".len();
            let policy = row[at..].split('"').next()?.to_string();
            Some(BaselineEntry {
                policy,
                requests_per_sec: row_num(row, "requests_per_sec")?,
                peak_policy_bytes: row_num(row, "peak_policy_bytes")?,
                resident_objects: row_num(row, "resident_objects"),
            })
        })
        .collect()
}

/// Bytes of policy metadata per resident object, the density figure the
/// hot/cold SoA layout is meant to shrink.
fn bytes_per_resident(peak_bytes: f64, residents: f64) -> Option<f64> {
    (residents > 0.0).then(|| peak_bytes / residents)
}

/// Load the trace named by `REPLAY_BENCH_TRACE`, exiting with a
/// structured error on unreadable or corrupt files.
fn load_trace_file(path_str: &str) -> Vec<Request> {
    let path = Path::new(path_str);
    let result = match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => cdn_trace::io::read_binary(path),
        Some("csv") => cdn_trace::io::read_csv(path),
        _ => {
            eprintln!("error: REPLAY_BENCH_TRACE must end in .bin or .csv: {path_str}");
            exit(2);
        }
    };
    match result {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("error: failed to read trace {path_str}: {e}");
            exit(1);
        }
    }
}

fn env_u64(key: &str, fallback: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

fn env_f64(key: &str, fallback: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

/// One streamed (or in-RAM, in `REPLAY_STREAM_INRAM` mode) replay row of
/// the streaming-bench report.
struct StreamPoint {
    policy: &'static str,
    requests: u64,
    rps: f64,
    miss_ratio: f64,
    peak_policy_bytes: usize,
}

/// Replay `path` out-of-core through `kind` and convert the measurement
/// into a report row. Any [`cdn_trace::TraceError`] is fatal: a perf
/// number over a partially replayed trace would be fiction.
fn stream_replay_point(path: &Path, kind: PolicyKind, seed: u64) -> (StreamPoint, RunMeasurement) {
    let src = cdn_sim::or_die(TraceSource::open(path), "open streamed trace");
    let requests = src.requests_hint();
    let ctx = TraceCtx::without_oracle(requests, seed);
    let m = cdn_sim::or_die(
        src.replay(kind, stream_cache_bytes(), &ctx, BatchMode::from_env()),
        "streamed replay",
    );
    (
        StreamPoint {
            policy: kind.label(),
            requests,
            rps: m.tps,
            miss_ratio: m.miss_ratio,
            peak_policy_bytes: m.peak_memory_bytes,
        },
        m,
    )
}

/// Cache size for the streaming bench (`REPLAY_STREAM_CACHE_BYTES`,
/// default 2 GB). Deliberately *fixed*, not derived from the trace: the
/// paper's cache fraction needs whole-trace `TraceStats` (which an
/// out-of-core run cannot afford), and a capacity that scaled with trace
/// length would let the resident-set metadata — and therefore peak RSS —
/// grow with the corpus, turning the flat-memory gate into a tautology.
/// Every side of every identity/RSS comparison uses this same budget.
fn stream_cache_bytes() -> u64 {
    env_u64("REPLAY_STREAM_CACHE_BYTES", 2_000_000_000).max(1 << 20)
}

/// The out-of-core proof mode (`--stream`): see the module docs for the
/// phase ordering and gates. Never returns.
fn stream_mode() -> ! {
    let seed = cdn_sim::default_seed();
    let small_requests = env_u64("REPLAY_STREAM_SMALL", 2_000_000).max(1);
    let big_requests = env_u64("REPLAY_STREAM_REQUESTS", 100_000_000);
    let rss_gate = env_f64("REPLAY_STREAM_RSS_RATIO", 2.0);
    let min_ratio = env_f64("REPLAY_STREAM_MIN_RATIO", 0.85);
    let identity = env_u64("REPLAY_STREAM_IDENTITY", 1) != 0;
    let inram = env_u64("REPLAY_STREAM_INRAM", 0) != 0;
    let keep = env_u64("REPLAY_STREAM_KEEP", 0) != 0;
    let out_path =
        std::env::var("REPLAY_STREAM_OUT").unwrap_or_else(|_| "BENCH_stream.json".to_string());
    let dir: PathBuf = std::env::var("REPLAY_STREAM_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::env::temp_dir().join(format!("replay-stream-{}", std::process::id()))
        });
    cdn_sim::or_die(std::fs::create_dir_all(&dir), "create corpus dir");
    let workload = Workload::CdnT;
    let small_cfg = workload.profile().config(small_requests, seed);

    // Phase 1: small corpus to disk, then replay it (streamed, or fully
    // in RAM when this process is the `REPLAY_STREAM_INRAM` half of the
    // two-process RSS comparison).
    let small_path = dir.join(format!("stream_small_{small_requests}.bin"));
    eprintln!(
        "generating {small_requests} requests to {}...",
        small_path.display()
    );
    let gen_start = Instant::now();
    let written = cdn_sim::or_die(
        generate_binary(&small_path, small_cfg.clone()),
        "generate small corpus",
    );
    let small_gen_secs = gen_start.elapsed().as_secs_f64();
    let small_bytes = std::fs::metadata(&small_path).map(|m| m.len()).unwrap_or(0);
    assert_eq!(written, small_requests, "generator wrote a different count");

    let mode_name = if inram { "inram" } else { "stream" };
    let mut small_points: Vec<StreamPoint> = Vec::new();
    let mut small_measurements: Vec<RunMeasurement> = Vec::new();
    for kind in [PolicyKind::Lru, PolicyKind::Scip] {
        let (point, m) = if inram {
            let trace = cdn_sim::or_die(cdn_trace::io::read_binary(&small_path), "read corpus");
            let cols = TraceColumns::from_requests(&trace);
            let ctx = TraceCtx::without_oracle(small_requests, seed);
            let m = kind.replay_batched(stream_cache_bytes(), &cols, &ctx, BatchMode::from_env());
            (
                StreamPoint {
                    policy: kind.label(),
                    requests: small_requests,
                    rps: m.tps,
                    miss_ratio: m.miss_ratio,
                    peak_policy_bytes: m.peak_memory_bytes,
                },
                m,
            )
        } else {
            stream_replay_point(&small_path, kind, seed)
        };
        eprintln!(
            "{mode_name} {small_requests} [{}]: {:>6.2} Mreq/s  mr {:.4}",
            point.policy,
            point.rps / 1e6,
            point.miss_ratio
        );
        small_points.push(point);
        small_measurements.push(m);
    }
    // VmHWM is monotone, so this covers generation + the small replays.
    let rss_small = peak_rss_bytes();

    // Phase 2: the big corpus. Its generator reuses the *small* config's
    // core-object table so generator state does not scale with trace
    // length, and overlays a flash-crowd window for drift. Skipped (and
    // reported as skipped, never silently) when REPLAY_STREAM_REQUESTS=0
    // or in the in-RAM comparison half.
    struct BigSection {
        requests: u64,
        gen_secs: f64,
        file_bytes: u64,
        point: StreamPoint,
        rss_ratio: Option<f64>,
    }
    let big = if big_requests > 0 && !inram {
        let big_cfg = GeneratorConfig {
            requests: big_requests,
            core_objects: small_cfg.core_objects,
            events: vec![flash_crowd_window(big_requests)],
            burst_gap_mean: small_cfg.burst_gap_mean,
            drift_interval: small_cfg.drift_interval,
            ..small_cfg.clone()
        };
        let big_path = dir.join(format!("stream_big_{big_requests}.bin"));
        eprintln!(
            "generating {big_requests} requests to {}...",
            big_path.display()
        );
        let gen_start = Instant::now();
        let written = cdn_sim::or_die(generate_binary(&big_path, big_cfg), "generate big corpus");
        let gen_secs = gen_start.elapsed().as_secs_f64();
        assert_eq!(written, big_requests, "generator wrote a different count");
        let file_bytes = std::fs::metadata(&big_path).map(|m| m.len()).unwrap_or(0);
        eprintln!(
            "big corpus: {:.2} GiB in {gen_secs:.1}s",
            file_bytes as f64 / (1u64 << 30) as f64
        );
        let (point, _) = stream_replay_point(&big_path, PolicyKind::Lru, seed);
        eprintln!(
            "stream {big_requests} [{}]: {:>6.2} Mreq/s  mr {:.4}",
            point.policy,
            point.rps / 1e6,
            point.miss_ratio
        );
        if !keep {
            std::fs::remove_file(&big_path).ok();
        }
        let rss_big = peak_rss_bytes();
        let rss_ratio = match (rss_small, rss_big) {
            (Some(s), Some(b)) if s > 0 => Some(b as f64 / s as f64),
            _ => None,
        };
        match rss_ratio {
            Some(r) => {
                eprintln!(
                    "peak RSS: small {:.1} MiB -> big {:.1} MiB ({r:.2}x, gate {rss_gate:.1}x)",
                    rss_small.unwrap_or(0) as f64 / (1 << 20) as f64,
                    rss_big.unwrap_or(0) as f64 / (1 << 20) as f64
                );
                if r > rss_gate {
                    eprintln!(
                        "FAIL: streamed replay of {big_requests} requests peaked at {r:.2}x \
                         the {small_requests}-request replay's RSS (gate {rss_gate:.1}x) — \
                         memory is not flat in trace length"
                    );
                    exit(1);
                }
            }
            None => eprintln!(
                "peak RSS gate skipped: /proc/self/status has no VmHWM on this platform \
                 (skipped, not fabricated)"
            ),
        }
        Some(BigSection {
            requests: big_requests,
            gen_secs,
            file_bytes,
            point,
            rss_ratio,
        })
    } else {
        if !inram {
            eprintln!("big streamed replay skipped (REPLAY_STREAM_REQUESTS=0)");
        }
        None
    };

    // Phase 3: identity + throughput vs the in-RAM hot loop, now that
    // every RSS number is already recorded (loading the trace in RAM
    // here cannot retroactively poison the high-water marks above).
    struct IdentitySection {
        exact: bool,
        rps_ratio: f64,
        decode_rps: f64,
        bound_rps: f64,
        ratio_vs_bound: f64,
        cores: usize,
    }
    let identity_section = if identity && !inram {
        let trace = cdn_sim::or_die(cdn_trace::io::read_binary(&small_path), "read small corpus");
        let cols = TraceColumns::from_requests(&trace);
        let ctx = TraceCtx::without_oracle(small_requests, seed);
        let cache_bytes = stream_cache_bytes();
        let mut exact = true;
        let mut in_ram_lru_rps = 0f64;
        for (kind, streamed) in [PolicyKind::Lru, PolicyKind::Scip]
            .into_iter()
            .zip(&small_measurements)
        {
            // Best of two for the clock; ledgers are deterministic.
            let a = kind.replay_batched(cache_bytes, &cols, &ctx, BatchMode::from_env());
            let b = kind.replay_batched(cache_bytes, &cols, &ctx, BatchMode::from_env());
            let m = if b.tps > a.tps { b } else { a };
            if kind == PolicyKind::Lru {
                in_ram_lru_rps = m.tps;
            }
            if (m.hits, m.misses, m.hit_bytes, m.miss_bytes)
                != (
                    streamed.hits,
                    streamed.misses,
                    streamed.hit_bytes,
                    streamed.miss_bytes,
                )
                || m.peak_memory_bytes != streamed.peak_memory_bytes
                || m.resident_objects != streamed.resident_objects
            {
                eprintln!(
                    "FAIL: {} streamed ledgers diverged from in-RAM replay \
                     (hits {} vs {}, misses {} vs {})",
                    kind.label(),
                    streamed.hits,
                    m.hits,
                    streamed.misses,
                    m.misses
                );
                exact = false;
            }
        }
        // Re-time the streamed LRU replay back-to-back with the in-RAM
        // number above (the phase-1 measurement ran against cold page
        // cache; this one isolates the engine overhead).
        let (stream_point, _) = stream_replay_point(&small_path, PolicyKind::Lru, seed);
        let stream_rps = stream_point.rps.max(small_points[0].rps);
        // Decode-only pass: what the prefetch pipeline's producer side
        // costs by itself (read + CRC + columnar decode, through the real
        // prefetch thread).
        let decode_rps = {
            let t = Instant::now();
            let mut n = 0usize;
            for c in cdn_sim::or_die(
                cdn_trace::StreamingTrace::open(&small_path),
                "open decode-only stream",
            ) {
                n += cdn_sim::or_die(c, "decode-only chunk").len();
            }
            n as f64 / t.elapsed().as_secs_f64().max(1e-9)
        };
        // The achievable pipeline bound for this host: with a spare core
        // the producer overlaps the replay loop entirely, so streaming can
        // at best match the slower of the two; on a single-core host
        // producer and consumer timeshare, so their costs add. Gating the
        // streamed rate against this bound measures the engine's overhead
        // (channel hops, chunk boundaries, cache interference) rather than
        // the host's core count.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bound_rps = if cores >= 2 {
            in_ram_lru_rps.min(decode_rps)
        } else {
            (in_ram_lru_rps * decode_rps) / (in_ram_lru_rps + decode_rps).max(1.0)
        };
        let rps_ratio = stream_rps / in_ram_lru_rps.max(1.0);
        let ratio_vs_bound = stream_rps / bound_rps.max(1.0);
        eprintln!(
            "LRU streamed {:.2} Mreq/s vs in-RAM {:.2} Mreq/s ({:.0}%); decode-only \
             {:.2} Mreq/s -> pipeline bound {:.2} Mreq/s on {cores} core(s): {:.0}% of \
             bound (gate {:.0}%)",
            stream_rps / 1e6,
            in_ram_lru_rps / 1e6,
            rps_ratio * 100.0,
            decode_rps / 1e6,
            bound_rps / 1e6,
            ratio_vs_bound * 100.0,
            min_ratio * 100.0
        );
        if !exact {
            exit(1);
        }
        if ratio_vs_bound < min_ratio {
            eprintln!(
                "FAIL: streamed LRU throughput is {:.0}% of the achievable pipeline \
                 bound (gate {:.0}%)",
                ratio_vs_bound * 100.0,
                min_ratio * 100.0
            );
            exit(1);
        }
        Some(IdentitySection {
            exact,
            rps_ratio,
            decode_rps,
            bound_rps,
            ratio_vs_bound,
            cores,
        })
    } else {
        if !inram {
            eprintln!("identity check skipped (REPLAY_STREAM_IDENTITY=0)");
        }
        None
    };

    // Report. One JSON object per `points` line, grep-friendly for
    // `scripts/bench.sh --stream`. Written before corpus cleanup so an
    // `REPLAY_STREAM_OUT` inside `REPLAY_STREAM_DIR` still lands
    // (VmHWM is monotone, so sampling peak RSS here loses nothing).
    let final_rss = peak_rss_bytes();
    let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"replay_stream_bench_v1\",\n");
    json.push_str(&format!("  \"mode\": \"{mode_name}\",\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"chunk_records\": {},\n",
        stream_chunk_records()
    ));
    json.push_str(&format!("  \"peak_rss_bytes\": {},\n", opt_u64(final_rss)));
    json.push_str("  \"small\": {\n");
    json.push_str(&format!(
        "    \"requests\": {small_requests},\n    \"gen_secs\": {small_gen_secs:.3},\n    \
         \"file_bytes\": {small_bytes},\n    \"peak_rss_after_bytes\": {},\n",
        opt_u64(rss_small)
    ));
    json.push_str("    \"points\": [\n");
    for (i, p) in small_points.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"policy\": \"{}\", \"requests\": {}, \"requests_per_sec\": {:.1}, \
             \"miss_ratio\": {:.6}, \"peak_policy_bytes\": {}}}{}\n",
            json_escape(p.policy),
            p.requests,
            p.rps,
            p.miss_ratio,
            p.peak_policy_bytes,
            if i + 1 < small_points.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  },\n");
    match &big {
        Some(b) => {
            json.push_str("  \"big\": {\n");
            json.push_str(&format!(
                "    \"requests\": {},\n    \"gen_secs\": {:.3},\n    \"file_bytes\": {},\n",
                b.requests, b.gen_secs, b.file_bytes
            ));
            json.push_str(&format!(
                "    \"rss_ratio_vs_small\": {},\n    \"rss_gate_max_ratio\": {rss_gate},\n",
                b.rss_ratio
                    .map_or("null".to_string(), |r| format!("{r:.4}"))
            ));
            json.push_str("    \"points\": [\n");
            json.push_str(&format!(
                "      {{\"policy\": \"{}\", \"requests\": {}, \"requests_per_sec\": {:.1}, \
                 \"miss_ratio\": {:.6}, \"peak_policy_bytes\": {}}}\n",
                json_escape(b.point.policy),
                b.point.requests,
                b.point.rps,
                b.point.miss_ratio,
                b.point.peak_policy_bytes
            ));
            json.push_str("    ]\n  },\n");
        }
        None => {
            let note = if inram {
                "\"in-RAM comparison half: big corpus not applicable\""
            } else {
                "\"skipped via REPLAY_STREAM_REQUESTS=0\""
            };
            json.push_str(&format!("  \"big\": null,\n  \"big_note\": {note},\n"));
        }
    }
    match &identity_section {
        Some(s) => json.push_str(&format!(
            "  \"identity\": {{\"exact\": {}, \"stream_vs_inram_rps_ratio\": {:.4}, \
             \"decode_only_rps\": {:.1}, \"pipeline_bound_rps\": {:.1}, \
             \"stream_vs_bound_rps_ratio\": {:.4}, \"cores\": {}, \
             \"min_ratio\": {min_ratio}}}\n",
            s.exact, s.rps_ratio, s.decode_rps, s.bound_rps, s.ratio_vs_bound, s.cores
        )),
        None => json.push_str("  \"identity\": null\n"),
    }
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        exit(1);
    }
    if !keep {
        std::fs::remove_file(&small_path).ok();
        std::fs::remove_dir(&dir).ok();
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
    exit(0)
}

fn main() {
    if std::env::args().any(|a| a == "--stream")
        || std::env::var("REPLAY_BENCH_STREAM").is_ok_and(|v| v == "1")
    {
        stream_mode();
    }
    let requests: u64 = std::env::var("REPLAY_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    let seed = cdn_sim::default_seed();
    let out_path =
        std::env::var("REPLAY_BENCH_OUT").unwrap_or_else(|_| "BENCH_replay.json".to_string());
    // Snapshot the committed numbers before this run overwrites them so
    // the report can show before/after per policy.
    let baseline = load_baseline(&out_path);
    let workload = Workload::CdnT;

    let gen_start = Instant::now();
    let (trace, source) = match std::env::var("REPLAY_BENCH_TRACE") {
        Ok(path) => {
            eprintln!("loading trace {path}...");
            let trace = load_trace_file(&path);
            (trace, path)
        }
        Err(_) => {
            eprintln!("generating {requests} CDN-T requests (seed {seed})...");
            let trace = TraceGenerator::generate(workload.profile().config(requests, seed));
            (trace, workload.name().to_string())
        }
    };
    let requests = trace.len() as u64;
    let stats = TraceStats::compute(&trace);
    let cache_bytes = stats.cache_bytes_for_fraction(workload.paper_cache_fraction(64.0));
    let ctx = TraceCtx::new(&trace, seed);
    // Materialize the SoA columns once; every sweep job shares this Arc.
    let columns = Arc::new(TraceColumns::from_requests(&trace));
    if let Err(e) = columns.validate() {
        eprintln!("error: trace failed validation: {e}");
        exit(1);
    }
    eprintln!(
        "trace ready in {:.1}s ({} objects, cache {:.1} MiB)",
        gen_start.elapsed().as_secs_f64(),
        stats.unique_objects,
        cache_bytes as f64 / (1 << 20) as f64
    );

    // Serial per-policy measurements (monomorphized, SoA trace). With a
    // `CDN_SIM_CHECKPOINT` sidecar armed, cells measured by a previous
    // (possibly crashed) run are reused instead of re-replayed.
    let checkpoint = Checkpoint::from_env();
    let trace_hash = columns.content_hash();
    let batch_mode = BatchMode::from_env();
    let mut measurements: Vec<RunMeasurement> = Vec::new();
    let mut serial_secs = 0f64;
    let mut cached = 0usize;
    for kind in POLICIES {
        let fp = kind.fingerprint(cache_bytes, trace_hash, seed);
        if let Some(m) = checkpoint.as_ref().and_then(|cp| cp.get(&fp)) {
            eprintln!("{:>8}: reused from checkpoint", m.policy);
            measurements.push(m);
            cached += 1;
            continue;
        }
        // Best of two back-to-back replays: a single-shot measurement on
        // a shared box can swing tens of percent with neighbour load;
        // the faster attempt is the one closer to the machine's actual
        // capability. Quality metrics are identical across attempts
        // (replay is deterministic), only the clock differs.
        let first = kind.replay_batched(cache_bytes, &columns, &ctx, batch_mode);
        let second = kind.replay_batched(cache_bytes, &columns, &ctx, batch_mode);
        let m = if second.tps > first.tps {
            second
        } else {
            first
        };
        serial_secs += requests as f64 / m.tps;
        let density = bytes_per_resident(m.peak_memory_bytes as f64, m.resident_objects as f64)
            .map_or("n/a".to_string(), |b| format!("{b:.0} B/obj"));
        eprintln!(
            "{:>8}: {:>6.2} Mreq/s  mr {:.4}  policy-mem {:.1} MiB ({density})",
            m.policy,
            m.tps / 1e6,
            m.miss_ratio,
            m.peak_memory_bytes as f64 / (1 << 20) as f64
        );
        if let Some(cp) = checkpoint.as_ref() {
            cp.record(&fp, &m);
        }
        measurements.push(m);
    }

    let n = trace.len();
    // Sweep scaling: all policies in parallel over the shared columns.
    let cores = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    let workers = cores.min(POLICIES.len());
    let jobs: Vec<_> = POLICIES
        .iter()
        .map(|&kind| {
            let columns = Arc::clone(&columns);
            let ctx = ctx.clone();
            move || kind.replay_batched(cache_bytes, &columns, &ctx, batch_mode)
        })
        .collect();
    let sweep_start = Instant::now();
    let sweep_results = parallel_runs(jobs);
    let sweep_secs = sweep_start.elapsed().as_secs_f64().max(1e-9);
    let sweep_rps = sweep_results.iter().map(|_| n as f64).sum::<f64>() / sweep_secs;
    // With checkpointed cells reused, `serial_secs` covers only the fresh
    // subset and the serial-vs-parallel comparison would be meaningless.
    // On a single-core box the "speedup" is pure scheduling noise (there
    // is no parallelism to claim), so it is suppressed rather than
    // reported as a ~1.0x artifact.
    let sweep_speedup = (cached == 0 && cores > 1).then(|| serial_secs / sweep_secs);
    match sweep_speedup {
        Some(speedup) => eprintln!(
            "sweep: {} jobs on {workers} workers ({cores} cores) in {sweep_secs:.1}s \
             ({speedup:.2}x vs serial {serial_secs:.1}s, {:.1} Mreq/s aggregate)",
            POLICIES.len(),
            sweep_rps / 1e6
        ),
        None if cores == 1 => eprintln!(
            "sweep: {} jobs on {workers} worker (single-core machine, \
             parallel speedup not meaningful) in {sweep_secs:.1}s \
             ({:.1} Mreq/s aggregate)",
            POLICIES.len(),
            sweep_rps / 1e6
        ),
        None => eprintln!(
            "sweep: {} jobs on {workers} workers ({cores} cores) in {sweep_secs:.1}s \
             ({cached} serial cells from checkpoint, no serial baseline; \
             {:.1} Mreq/s aggregate)",
            POLICIES.len(),
            sweep_rps / 1e6
        ),
    }

    // Sharded-replay scaling: partition the trace by key, replay one
    // policy instance per shard on dedicated threads, and compare the
    // threaded wall time against the serial per-partition reference (the
    // decomposition the aggregate is proven exactly equal to in
    // tests/shard_check.rs). LRU is the headline (cheapest per-request
    // work, so it stresses the threading overheads hardest); SCIP rides
    // along as the paper's policy.
    let shard_counts = shard_counts_from_env();
    let mut shard_points: Vec<ShardPoint> = Vec::new();
    for &n in &shard_counts {
        let sharded = partition_columns(&columns, n);
        for kind in [PolicyKind::Lru, PolicyKind::Scip] {
            let threaded = run_sharded(kind, cache_bytes, &sharded, seed, batch_mode);
            let serial = run_sharded_serial(kind, cache_bytes, &sharded, seed, batch_mode);
            let ideal = n.min(cores);
            let speedup = (cores > 1).then(|| serial.wall_secs / threaded.wall_secs.max(1e-9));
            let point = ShardPoint {
                policy: kind.label(),
                shards: n,
                aggregate_rps: threaded.aggregate_tps(),
                speedup,
                efficiency: speedup.map(|s| s / ideal as f64),
                ideal,
                imbalance: sharded.imbalance(),
                aggregate_miss_ratio: threaded.aggregate.miss_ratio(),
            };
            match point.speedup {
                Some(s) => eprintln!(
                    "shards {n} [{}]: {:>6.2} Mreq/s aggregate, {s:.2}x vs serial \
                     (ideal {}x, efficiency {:.0}%), imbalance {:.2}",
                    point.policy,
                    point.aggregate_rps / 1e6,
                    point.ideal,
                    point.efficiency.unwrap_or(0.0) * 100.0,
                    point.imbalance
                ),
                None => eprintln!(
                    "shards {n} [{}]: {:>6.2} Mreq/s aggregate \
                     (single-core machine, threaded speedup suppressed), imbalance {:.2}",
                    point.policy,
                    point.aggregate_rps / 1e6,
                    point.imbalance
                ),
            }
            shard_points.push(point);
        }
    }
    if cores == 1 {
        eprintln!(
            "shard scaling: 1 core available — per-shard threads are \
             time-sliced, so no parallel speedup is claimed on this machine"
        );
    } else if let Some(&max_shards) = shard_counts.iter().max() {
        if max_shards > cores {
            eprintln!(
                "shard scaling: shard counts above {cores} cores are \
                 time-sliced; their degradation is reported, not hidden"
            );
        }
    }

    // Pipelined-batching configuration actually in effect for the replays
    // above: resolved mode, lookahead depth, and the footprint-vs-LLC
    // numbers the auto heuristic compares.
    let llc = llc_bytes();
    let lru_peak = measurements
        .iter()
        .find(|m| m.policy == "LRU")
        .map_or(0, |m| m.peak_memory_bytes);
    let (mode_name, depth) = match batch_mode {
        BatchMode::Off => ("off", 0),
        BatchMode::Fixed(k) => ("fixed", k),
        BatchMode::Auto => ("auto", AUTO_PREFETCH_DIST),
    };
    eprintln!(
        "batching: mode {mode_name} depth {depth}, LLC {:.1} MiB, \
         LRU index footprint {:.1} MiB ({})",
        llc as f64 / (1 << 20) as f64,
        lru_peak as f64 / (1 << 20) as f64,
        if lru_peak > llc {
            "exceeds LLC: auto mode engages lookahead"
        } else {
            "fits LLC: auto mode stays unbatched"
        }
    );

    // Before/after vs the committed file this run replaces.
    if !baseline.is_empty() {
        eprintln!("before/after vs committed {out_path}:");
        for m in &measurements {
            let Some(b) = baseline.iter().find(|b| b.policy == m.policy) else {
                continue;
            };
            let rps_ratio = m.tps / b.requests_per_sec.max(1.0);
            let density_now =
                bytes_per_resident(m.peak_memory_bytes as f64, m.resident_objects as f64);
            let density_before = b
                .resident_objects
                .and_then(|r| bytes_per_resident(b.peak_policy_bytes, r));
            let density = match (density_before, density_now) {
                (Some(before), Some(now)) => {
                    format!(
                        "{before:.0} -> {now:.0} B/obj ({:+.1}%)",
                        (now / before - 1.0) * 100.0
                    )
                }
                (None, Some(now)) => format!(
                    "{now:.0} B/obj (peak-mem {:+.1}%)",
                    (m.peak_memory_bytes as f64 / b.peak_policy_bytes.max(1.0) - 1.0) * 100.0
                ),
                _ => "density n/a".to_string(),
            };
            eprintln!(
                "{:>8}: {:>6.2} -> {:>6.2} Mreq/s ({rps_ratio:.2}x)  {density}",
                m.policy,
                b.requests_per_sec / 1e6,
                m.tps / 1e6
            );
        }
    }

    // Process-wide peak RSS, read after every threaded section (sweep and
    // shard scaling) has joined so the high-water mark covers them.
    let rss = peak_rss_bytes();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"replay_bench_v4\",\n");
    json.push_str(&format!("  \"requests\": {requests},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"workload\": \"{}\",\n", json_escape(&source)));
    json.push_str(&format!("  \"cache_bytes\": {cache_bytes},\n"));
    json.push_str(&format!(
        "  \"peak_rss_bytes\": {},\n",
        rss.map_or("null".to_string(), |b| b.to_string())
    ));
    json.push_str("  \"policies\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let density = bytes_per_resident(m.peak_memory_bytes as f64, m.resident_objects as f64)
            .map_or("null".to_string(), |b| format!("{b:.1}"));
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"requests_per_sec\": {:.1}, \
             \"ns_per_request\": {:.2}, \"miss_ratio\": {:.6}, \
             \"peak_policy_bytes\": {}, \"resident_objects\": {}, \
             \"bytes_per_resident_object\": {}}}{}\n",
            json_escape(&m.policy),
            m.tps,
            m.ns_per_request,
            m.miss_ratio,
            m.peak_memory_bytes,
            m.resident_objects,
            density,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let (serial_json, speedup_json) = match sweep_speedup {
        Some(speedup) => (format!("{serial_secs:.3}"), format!("{speedup:.3}")),
        None => ("null".to_string(), "null".to_string()),
    };
    json.push_str(&format!(
        "  \"sweep\": {{\"jobs\": {}, \"workers\": {workers}, \
         \"available_parallelism\": {cores}, \
         \"serial_secs\": {serial_json}, \"parallel_secs\": {sweep_secs:.3}, \
         \"speedup\": {speedup_json}, \
         \"aggregate_requests_per_sec\": {sweep_rps:.1}}},\n",
        POLICIES.len()
    ));
    // Shard-scaling rows, one JSON object per line (grep-friendly for the
    // bench.sh gate). Speedup/efficiency are null where no parallelism
    // exists to claim.
    json.push_str("  \"shard_scaling\": {\n");
    json.push_str(&format!("    \"cores\": {cores},\n"));
    // What was *asked for*, independent of what the machine could grant:
    // on a 1-core runner every speedup below is null, and without this
    // field the file would not even record that shard counts were swept.
    let requested: Vec<String> = shard_counts.iter().map(|n| n.to_string()).collect();
    json.push_str(&format!(
        "    \"requested_shards\": [{}],\n",
        requested.join(", ")
    ));
    json.push_str(&format!(
        "    \"batch_mode\": \"{mode_name}\", \"lookahead\": {depth},\n"
    ));
    let scaling_note = if cores == 1 {
        "\"single-core runner: threaded speedup suppressed, not fabricated\""
    } else {
        "null"
    };
    json.push_str(&format!("    \"note\": {scaling_note},\n"));
    json.push_str("    \"points\": [\n");
    for (i, p) in shard_points.iter().enumerate() {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.3}"));
        json.push_str(&format!(
            "      {{\"policy\": \"{}\", \"shards\": {}, \
             \"aggregate_requests_per_sec\": {:.1}, \"speedup_vs_serial\": {}, \
             \"efficiency\": {}, \"ideal_speedup\": {}, \"imbalance\": {:.4}, \
             \"aggregate_miss_ratio\": {:.6}}}{}\n",
            json_escape(p.policy),
            p.shards,
            p.aggregate_rps,
            opt(p.speedup),
            opt(p.efficiency),
            p.ideal,
            p.imbalance,
            p.aggregate_miss_ratio,
            if i + 1 < shard_points.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n  },\n");
    json.push_str(&format!(
        "  \"batching\": {{\"mode\": \"{mode_name}\", \"lookahead\": {depth}, \
         \"llc_bytes\": {llc}, \"lru_peak_policy_bytes\": {lru_peak}, \
         \"auto_engages\": {}}},\n",
        lru_peak > llc
    ));
    json.push_str("  \"baseline_comparison\": ");
    if baseline.is_empty() {
        json.push_str("null\n");
    } else {
        json.push_str("[\n");
        let rows: Vec<String> = measurements
            .iter()
            .filter_map(|m| {
                let b = baseline.iter().find(|b| b.policy == m.policy)?;
                Some(format!(
                    "    {{\"policy\": \"{}\", \"baseline_requests_per_sec\": {:.1}, \
                     \"requests_per_sec\": {:.1}, \"speedup\": {:.3}, \
                     \"baseline_peak_policy_bytes\": {:.0}, \"peak_policy_bytes\": {}}}",
                    json_escape(&m.policy),
                    b.requests_per_sec,
                    m.tps,
                    m.tps / b.requests_per_sec.max(1.0),
                    b.peak_policy_bytes,
                    m.peak_memory_bytes
                ))
            })
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ]\n");
    }
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        exit(1);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}

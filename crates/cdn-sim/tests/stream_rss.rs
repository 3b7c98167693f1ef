//! Out-of-core memory gate: a streamed replay's peak RSS must undercut an
//! in-RAM replay of the same corpus, and must stay flat as the trace
//! grows.
//!
//! `VmHWM` is a per-process, monotone high-water mark, so each replay
//! runs in its own process: the one test below re-executes this test
//! binary three times, naming the child's role in [`ROLE_VAR`]. Each
//! child generates its CDN-T corpus straight to disk, replays it through
//! LRU and SCIP at a fixed 2 GB cache, and prints its
//! [`peak_rss_bytes`]. The cache is fixed rather than derived from the
//! trace so resident-set metadata cannot grow with the corpus and turn
//! the flat-memory gate into a tautology.
//!
//! Gates:
//! - streamed 400k < in-RAM 400k (the streamed side holding the whole
//!   trace resident would fail this);
//! - streamed 1.6M ≤ 2.0 × streamed 400k (memory flat in trace length).
//!
//! Where `/proc/self/status` has no `VmHWM` the comparison is skipped
//! with an explicit message, never passed on fabricated numbers.

use std::process::Command;

use cdn_sim::{peak_rss_bytes, BatchMode, PolicyKind, TraceCtx, TraceSource};
use cdn_trace::io::read_binary_columns;
use cdn_trace::{flash_crowd_window, generate_binary, GeneratorConfig, Workload};

/// Test-internal: set only on the re-executed children, to their role.
const ROLE_VAR: &str = "CDN_SIM_STREAM_RSS_ROLE";
const TEST_NAME: &str = "streamed_peak_rss_undercuts_in_ram_and_stays_flat";
const SMALL: u64 = 400_000;
const BIG: u64 = 1_600_000;
const CACHE_BYTES: u64 = 2_000_000_000;
const SEED: u64 = 42;
const FLAT_GATE: f64 = 2.0;
const RSS_PREFIX: &str = "stream_rss peak_rss_bytes=";

/// The corpus for `requests`. The big corpus reuses the small config's
/// core-object table, so generator state does not scale with trace
/// length, and overlays a flash-crowd window for drift.
fn corpus_config(requests: u64) -> GeneratorConfig {
    let small = Workload::CdnT.profile().config(SMALL, SEED);
    if requests == SMALL {
        return small;
    }
    GeneratorConfig {
        requests,
        core_objects: small.core_objects,
        events: vec![flash_crowd_window(requests)],
        ..small
    }
}

/// Child body: generate, replay LRU and SCIP, report this process's peak.
fn run_child(role: &str) {
    let (requests, streamed) = match role {
        "stream-small" => (SMALL, true),
        "inram-small" => (SMALL, false),
        "stream-big" => (BIG, true),
        other => panic!("unknown {ROLE_VAR} role {other:?}"),
    };
    let path = std::env::temp_dir().join(format!("cdn_sim_stream_rss_{}.bin", std::process::id()));
    let written = generate_binary(&path, corpus_config(requests)).expect("generate corpus");
    assert_eq!(written, requests, "generator wrote a different count");
    let ctx = TraceCtx::without_oracle(requests, SEED);
    let cols = (!streamed).then(|| read_binary_columns(&path).expect("read corpus"));
    for kind in [PolicyKind::Lru, PolicyKind::Scip] {
        let src = match &cols {
            Some(cols) => TraceSource::Columns(cols),
            None => TraceSource::open(&path).expect("open corpus"),
        };
        let m = src
            .replay(kind, CACHE_BYTES, &ctx, BatchMode::Auto)
            .expect("replay corpus");
        assert_eq!(m.hits + m.misses, requests, "{role} {kind:?}");
    }
    std::fs::remove_file(&path).ok();
    match peak_rss_bytes() {
        Some(bytes) => println!("{RSS_PREFIX}{bytes}"),
        None => println!("{RSS_PREFIX}none"),
    }
}

/// Run one child and return its reported peak RSS (`None` = no `VmHWM`).
fn child_peak(role: &str) -> Option<u64> {
    let out = Command::new(std::env::current_exe().expect("current test binary"))
        .args(["--exact", TEST_NAME, "--nocapture", "--test-threads=1"])
        .env(ROLE_VAR, role)
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{role} child failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let value = stdout
        .lines()
        .find_map(|l| Some(l.split_once(RSS_PREFIX)?.1))
        .unwrap_or_else(|| panic!("{role} child printed no peak RSS:\n{stdout}"));
    value.trim().parse().ok()
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

#[test]
fn streamed_peak_rss_undercuts_in_ram_and_stays_flat() {
    if let Ok(role) = std::env::var(ROLE_VAR) {
        run_child(&role);
        return;
    }
    let peaks = (
        child_peak("stream-small"),
        child_peak("inram-small"),
        child_peak("stream-big"),
    );
    let (Some(stream_small), Some(inram), Some(stream_big)) = peaks else {
        println!("stream_rss: VmHWM unavailable, comparison skipped (not fabricated)");
        return;
    };
    let ratio = stream_big as f64 / stream_small as f64;
    println!(
        "stream_rss: streamed {SMALL} {:.1} MiB, in-RAM {SMALL} {:.1} MiB, \
         streamed {BIG} {:.1} MiB ({ratio:.2}x)",
        mib(stream_small),
        mib(inram),
        mib(stream_big)
    );
    assert!(
        stream_small < inram,
        "streamed replay peak RSS {:.1} MiB not below the in-RAM replay's {:.1} MiB",
        mib(stream_small),
        mib(inram)
    );
    assert!(
        ratio <= FLAT_GATE,
        "streamed replay of {BIG} requests peaked at {ratio:.2}x the {SMALL}-request \
         replay's RSS (gate {FLAT_GATE:.1}x): memory is not flat in trace length"
    );
}

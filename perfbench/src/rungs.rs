//! The per-layer ladder over an in-RAM trace, shared by every workload.
//!
//! Each rung adds one layer to the one below it, all driven through the
//! same `cdn_policies::replay_columns` loop so that differences between
//! rungs are differences between layers:
//!
//! - loop: a benchmark-local null policy (`cdn_sim::runner`'s loop cost);
//! - probe: `FusedIndex::get` over the trace's ids against LRU's resident
//!   set (`cdn_cache::index`);
//! - LRU: the plain LRU queue; upkeep = LRU − loop − probe
//!   (`cdn_cache::queue`);
//! - SCI and SCIP: SCIP − LRU is SCIP's decision logic, SCIP − SCI its
//!   promotion/bandit share (`scip`).

use std::hint::black_box;

use cdn_cache::{AccessKind, CachePolicy, FusedIndex, PolicyStats, Request};
use cdn_policies::replacement::Lru;
use cdn_policies::replay_columns;
use cdn_trace::TraceColumns;
use scip::{Sci, Scip, ScipConfig};

use crate::report::{Ledger, Report};
use crate::spans::timed;

/// A policy that never caches: what is left is the replay loop itself.
struct NullPolicy;

impl CachePolicy for NullPolicy {
    fn name(&self) -> &str {
        "null"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        black_box(req);
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        0
    }

    fn used_bytes(&self) -> u64 {
        0
    }

    fn memory_bytes(&self) -> usize {
        0
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
}

/// Ledgers the rungs must reproduce: the null policy's is computed
/// directly from the trace, LRU's and SCIP's come from the workload's own
/// end-to-end calls.
pub struct Refs {
    pub lru: Ledger,
    pub scip: Ledger,
}

/// One pass over every rung, in ns per request.
pub struct Round {
    pub loop_ns: f64,
    pub probe_ns: f64,
    pub lru_ns: f64,
    pub sci_ns: f64,
    pub scip_ns: f64,
    /// LRU's counters after the pass.
    pub lru_stats: PolicyStats,
    /// SCIP's metadata footprint after the pass.
    pub scip_memory_bytes: usize,
    /// SCIP's metadata bytes per resident object after the pass.
    pub scip_bytes_per_object: f64,
}

/// SCIP built exactly as `PolicyKind::Scip` builds it for a trace of
/// `requests` requests.
fn scip_policy(cap: u64, requests: u64, seed: u64) -> Scip {
    Scip::with_config(
        cap,
        ScipConfig {
            seed,
            update_interval: (requests / 40).max(2_000),
            ..ScipConfig::default()
        },
    )
}

/// Run every rung once over `cols`, checking each ledger.
pub fn round(cols: &TraceColumns, cap: u64, seed: u64, refs: &Refs, report: &mut Report) -> Round {
    let n = cols.len() as u64;
    let per_req = |secs: f64| secs * 1e9 / n.max(1) as f64;

    let (null, loop_s) = timed("cdn_sim::runner", "replay_columns[null]", || {
        replay_columns(&mut NullPolicy, cols)
    });
    let direct = Ledger {
        hits: 0,
        misses: n,
        hit_bytes: 0,
        miss_bytes: cols.sizes.iter().sum(),
    };
    report.check_ledger("null-policy rung", Ledger::from(&null), direct);

    let mut lru = Lru::new(cap);
    let (m, lru_s) = timed("cdn_cache::queue", "replay_columns[LRU]", || {
        replay_columns(&mut lru, cols)
    });
    report.check_ledger("LRU rung", Ledger::from(&m), refs.lru);

    let mut resident = Vec::new();
    lru.for_each_resident(&mut |e| resident.push(e.id.0));
    let mut index = FusedIndex::with_capacity(resident.len());
    for (slot, id) in resident.iter().enumerate() {
        index.insert(*id, slot as u64);
    }
    let (found, probe_s) = timed("cdn_cache::index", "FusedIndex::get", || {
        let mut found = 0u64;
        for id in &cols.ids {
            if index.get(black_box(id.0)).is_some() {
                found += 1;
            }
        }
        found
    });
    black_box(found);
    drop(index);

    let mut sci = Sci::new(cap, seed);
    let (_, sci_s) = timed("scip", "replay_columns[SCI]", || {
        replay_columns(&mut sci, cols)
    });
    drop(sci);

    let mut scip = scip_policy(cap, n, seed);
    let (m, scip_s) = timed("scip", "replay_columns[SCIP]", || {
        replay_columns(&mut scip, cols)
    });
    report.check_ledger("SCIP rung", Ledger::from(&m), refs.scip);
    let scip_stats = scip.stats();

    Round {
        loop_ns: per_req(loop_s),
        probe_ns: per_req(probe_s),
        lru_ns: per_req(lru_s),
        sci_ns: per_req(sci_s),
        scip_ns: per_req(scip_s),
        lru_stats: lru.stats(),
        scip_memory_bytes: scip.memory_bytes(),
        scip_bytes_per_object: scip.memory_bytes() as f64
            / scip_stats.resident_objects.max(1) as f64,
    }
}

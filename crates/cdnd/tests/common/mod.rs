//! A test-only policy that crashes its shard worker at chosen ticks, so
//! crash isolation is testable without the failpoint registry.

use std::sync::{Arc, Mutex};

use cdn_cache::{AccessKind, CachePolicy, PolicyStats, Request, Tick};
use cdn_sim::{PolicyKind, TraceCtx};
use cdnd::{PolicyFactory, ShardPolicy};

/// LRU that panics on every request whose shard-local tick is in
/// `ticks`, recording the tick first. Ticks survive worker restarts, so
/// the rule keeps holding for every incarnation the factory builds.
struct PanicAtTicks {
    inner: Box<dyn CachePolicy>,
    ticks: Arc<Vec<Tick>>,
    panicked: Arc<Mutex<Vec<Tick>>>,
}

impl CachePolicy for PanicAtTicks {
    fn name(&self) -> &str {
        "panic-at-ticks"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        if self.ticks.contains(&req.tick) {
            self.panicked.lock().unwrap().push(req.tick);
            panic!("test policy: crash at tick {}", req.tick);
        }
        self.inner.on_request(req)
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
}

/// A factory building [`PanicAtTicks`] on every shard, and the log of
/// ticks it has panicked at (in order).
pub fn panic_at_ticks(ticks: Vec<Tick>) -> (PolicyFactory, Arc<Mutex<Vec<Tick>>>) {
    let ticks = Arc::new(ticks);
    let panicked = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&panicked);
    let factory: PolicyFactory = Arc::new(move |_shard, capacity| {
        ShardPolicy::Plain(Box::new(PanicAtTicks {
            inner: PolicyKind::Lru.build(capacity, &TraceCtx::without_oracle(0, 1)),
            ticks: Arc::clone(&ticks),
            panicked: Arc::clone(&panicked),
        }))
    });
    (factory, log)
}

//! Bounded MPSC request ring feeding one shard worker.
//!
//! A deliberately boring `Mutex<VecDeque>` + two condvars: the daemon's
//! robustness claims rest on this queue being **bounded** (overload turns
//! into explicit shedding, never unbounded growth) and **outliving the
//! worker** (a crashed worker's queued requests survive in the ring and
//! are served by its replacement, so crash isolation does not silently
//! drop accepted work). Both properties are easier to prove on a mutexed
//! deque than on a lock-free ring, and the daemon batches pops
//! ([`BoundedRing::pop_many`], into a buffer the worker reuses) so the
//! lock is taken once per batch, not once per request.
//!
//! Waiter-gated wakeups: the ring counts blocked producers and consumers
//! under its mutex and signals a condvar only when someone is waiting
//! (a futex wake is a syscall even with no waiter). Blocked producers
//! also state how much room they need ([`BoundedRing::wait_room`]), and
//! a pop wakes them only once that much is free: a closed-loop producer
//! refilling a full ring is woken once per refill watermark, not once
//! per worker batch. A drained ring has all its room free, so a waiter
//! whose need is at most `capacity` is always woken eventually.
//!
//! Depth accounting: the ring tracks its own high-water mark
//! ([`BoundedRing::peak_depth`]) under the same lock that admits pushes,
//! so the overload test's "peak depth ≤ capacity" assertion is exact, not
//! sampled.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The ring is at capacity — the caller must shed or wait.
    Full,
    /// The ring was closed (daemon shutting down).
    Closed,
}

/// Outcome of a timed pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped {
    /// Items were dequeued into the caller's buffer.
    Items,
    /// Nothing arrived within the timeout; the ring is still open.
    TimedOut,
    /// The ring is closed *and* fully drained — the worker may exit.
    Drained,
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    peak_depth: usize,
    /// Threads blocked in `push_wait` / `wait_room`, counted from before
    /// they sleep until they hold the lock again.
    producers_waiting: usize,
    /// Smallest free-slot count any sleeping producer waits for
    /// (`usize::MAX` when none is asleep). Reset whenever producers are
    /// woken; each waiter re-registers its need if it sleeps again.
    room_wanted: usize,
    /// Threads blocked in `pop_many`.
    consumers_waiting: usize,
}

impl<T> Inner<T> {
    /// Free slots under the hard capacity (0 while an `unpop` has the
    /// ring transiently over it).
    fn room(&self, capacity: usize) -> usize {
        capacity.saturating_sub(self.queue.len())
    }

    fn note_depth(&mut self) {
        self.peak_depth = self.peak_depth.max(self.queue.len());
    }
}

/// Bounded multi-producer single-consumer queue with close/drain
/// semantics. `capacity` is a hard bound: pushes beyond it fail with
/// [`PushError::Full`] (or block, for the backpressure variants) rather
/// than allocate.
pub struct BoundedRing<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedRing<T> {
    /// Ring holding at most `capacity` queued items.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BoundedRing: capacity must be >= 1");
        BoundedRing {
            capacity,
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity.min(1 << 16)),
                closed: false,
                peak_depth: 0,
                producers_waiting: 0,
                room_wanted: usize::MAX,
                consumers_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Hard bound this ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wake the consumer if it is blocked, releasing the lock first.
    fn wake_consumer(&self, g: MutexGuard<'_, Inner<T>>) {
        let waiting = g.consumers_waiting > 0;
        drop(g);
        if waiting {
            self.not_empty.notify_one();
        }
    }

    /// Wake every blocked producer once the ring has the room the least
    /// demanding sleeper asked for (`force`: whatever the room),
    /// releasing the lock first.
    fn wake_producers(&self, mut g: MutexGuard<'_, Inner<T>>, force: bool) {
        let due = g.producers_waiting > 0 && (force || g.room(self.capacity) >= g.room_wanted);
        if due {
            g.room_wanted = usize::MAX;
        }
        drop(g);
        if due {
            self.not_full.notify_all();
        }
    }

    /// Sleep as a producer needing `need` free slots until woken or
    /// `deadline`; returns the reacquired guard and whether the deadline
    /// has passed.
    fn sleep_for_room<'a>(
        &self,
        mut g: MutexGuard<'a, Inner<T>>,
        need: usize,
        deadline: Instant,
    ) -> (MutexGuard<'a, Inner<T>>, bool) {
        let now = Instant::now();
        if now >= deadline {
            return (g, true);
        }
        g.producers_waiting += 1;
        g.room_wanted = g.room_wanted.min(need);
        let (mut g, res) = self.not_full.wait_timeout(g, deadline - now).unwrap();
        g.producers_waiting -= 1;
        if g.producers_waiting == 0 {
            g.room_wanted = usize::MAX;
        }
        (g, res.timed_out())
    }

    /// Try to enqueue without blocking; sheds with [`PushError::Full`] at
    /// capacity.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        self.try_push_within(item, self.capacity)
            .map_err(|(_, e)| e)
    }

    /// Try to enqueue only while the current depth is below `limit`
    /// (clamped to `capacity`). On refusal reports the depth observed
    /// under the lock alongside the error, so an admission controller can
    /// attribute the refusal to the exact bound that was hit (class
    /// watermark vs per-request deadline) with no race between the depth
    /// read and the refusal — both happen under one lock acquisition.
    pub fn try_push_within(&self, item: T, limit: usize) -> Result<(), (usize, PushError)> {
        let bound = limit.min(self.capacity);
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err((g.queue.len(), PushError::Closed));
        }
        if g.queue.len() >= bound {
            return Err((g.queue.len(), PushError::Full));
        }
        g.queue.push_back(item);
        g.note_depth();
        self.wake_consumer(g);
        Ok(())
    }

    /// Batched submit: move items from the front of `batch` into the ring
    /// while the depth stays below `limit` (clamped to `capacity`), under
    /// a **single** lock acquisition — the per-request daemon feed pays
    /// one lock round-trip per request; a chunked feeder pays one per
    /// batch. Returns the number enqueued (possibly 0 on a full ring);
    /// refused items stay in `batch` in order, so the caller's
    /// per-request fallback path keeps exact per-cause accounting.
    /// [`PushError::Closed`] leaves the whole batch with the caller.
    pub fn push_many(&self, batch: &mut VecDeque<T>, limit: usize) -> Result<usize, PushError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let bound = limit.min(self.capacity);
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(PushError::Closed);
        }
        let room = bound.saturating_sub(g.queue.len());
        let take = room.min(batch.len());
        if take == 0 {
            return Ok(0);
        }
        g.queue.extend(batch.drain(..take));
        g.note_depth();
        self.wake_consumer(g);
        Ok(take)
    }

    /// Block until at least `need` slots are free (clamped to
    /// `1..=capacity`), the ring closes, or `timeout` passes; true when
    /// the room is there. Reserves nothing: the caller pushes afterwards
    /// and may find less room if another producer got there first. A pop
    /// wakes the waiter only once `need` slots are free, so `need` is the
    /// caller's refill watermark; `unpop` and `close` wake it whatever
    /// the room (returning false), so a caller watching a crashing
    /// consumer re-checks promptly.
    pub fn wait_room(&self, need: usize, timeout: Duration) -> bool {
        let need = need.clamp(1, self.capacity);
        let mut g = self.inner.lock().unwrap();
        if !g.closed && g.room(self.capacity) < need {
            g = self.sleep_for_room(g, need, Instant::now() + timeout).0;
        }
        !g.closed && g.room(self.capacity) >= need
    }

    /// Enqueue with backpressure: block while the ring is full, up to
    /// `timeout`. Returns [`PushError::Full`] only if the timeout expires
    /// with the ring still at capacity (a stuck consumer), or
    /// [`PushError::Closed`] if the ring closes while waiting.
    pub fn push_wait(&self, item: T, timeout: Duration) -> Result<(), PushError> {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(PushError::Closed);
            }
            if g.queue.len() < self.capacity {
                g.queue.push_back(item);
                g.note_depth();
                self.wake_consumer(g);
                return Ok(());
            }
            let (g2, expired) = self.sleep_for_room(g, 1, deadline);
            g = g2;
            if expired && !g.closed && g.queue.len() >= self.capacity {
                return Err(PushError::Full);
            }
        }
    }

    /// Move up to `max` items into `out` (cleared first), waiting up to
    /// `timeout` for the first. One lock acquisition serves the whole
    /// batch, and `out` keeps its allocation from batch to batch. Single
    /// consumer only.
    pub fn pop_many(&self, out: &mut Vec<T>, max: usize, timeout: Duration) -> Popped {
        out.clear();
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap();
        loop {
            if !g.queue.is_empty() {
                let take = g.queue.len().min(max.max(1));
                out.extend(g.queue.drain(..take));
                self.wake_producers(g, false);
                return Popped::Items;
            }
            if g.closed {
                return Popped::Drained;
            }
            let now = Instant::now();
            if now >= deadline {
                return Popped::TimedOut;
            }
            g.consumers_waiting += 1;
            let (g2, _) = self.not_empty.wait_timeout(g, deadline - now).unwrap();
            g = g2;
            g.consumers_waiting -= 1;
        }
    }

    /// Put items back at the *front* of the ring, preserving their order.
    /// Used by a crashing worker to return the unprocessed tail of its
    /// popped batch (drained straight out of its pop buffer), so the
    /// replacement worker sees the exact original stream (minus only the
    /// request that panicked). May transiently exceed `capacity` — the
    /// items were already admitted once, so re-queueing them must not
    /// shed. Wakes blocked producers whatever the room, so a producer
    /// waiting on this shard re-checks its health at once.
    pub fn unpop<I>(&self, items: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: DoubleEndedIterator,
    {
        let mut items = items.into_iter().rev().peekable();
        if items.peek().is_none() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        for item in items {
            g.queue.push_front(item);
        }
        g.note_depth();
        let consumer = g.consumers_waiting > 0;
        self.wake_producers(g, true);
        if consumer {
            self.not_empty.notify_one();
        }
    }

    /// Close the ring: further pushes fail, pops drain what remains and
    /// then report [`Popped::Drained`]. Wakes all waiters.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest depth ever observed (updated under the push lock).
    pub fn peak_depth(&self) -> usize {
        self.inner.lock().unwrap().peak_depth
    }

    /// Has [`BoundedRing::close`] been called?
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Pop into a fresh buffer and hand back what was dequeued.
    fn pop(ring: &BoundedRing<u32>, max: usize) -> Vec<u32> {
        let mut buf = Vec::new();
        match ring.pop_many(&mut buf, max, Duration::from_millis(1)) {
            Popped::Items => buf,
            other => panic!("expected items, got {other:?}"),
        }
    }

    #[test]
    fn sheds_at_capacity_and_tracks_peak() {
        let ring: BoundedRing<u32> = BoundedRing::new(4);
        for i in 0..4 {
            assert_eq!(ring.try_push(i), Ok(()));
        }
        assert_eq!(ring.try_push(99), Err(PushError::Full));
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.peak_depth(), 4);
        assert_eq!(pop(&ring, 64), vec![0, 1, 2, 3]);
        // Peak is a high-water mark: draining does not lower it.
        assert_eq!(ring.peak_depth(), 4);
        assert_eq!(ring.try_push(5), Ok(()));
    }

    #[test]
    fn push_within_enforces_limit_and_reports_depth() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        for i in 0..3 {
            assert_eq!(ring.try_push_within(i, 3), Ok(()));
        }
        // Refused at the limit with the exact depth observed.
        assert_eq!(ring.try_push_within(9, 3), Err((3, PushError::Full)));
        // A looser limit still admits (the ring itself has room).
        assert_eq!(ring.try_push_within(4, 8), Ok(()));
        // Limits beyond capacity clamp to capacity.
        for i in 0..4 {
            assert_eq!(ring.try_push_within(i, usize::MAX), Ok(()));
        }
        assert_eq!(
            ring.try_push_within(99, usize::MAX),
            Err((8, PushError::Full))
        );
        ring.close();
        assert_eq!(ring.try_push_within(1, 3), Err((8, PushError::Closed)));
    }

    #[test]
    fn push_many_fills_to_limit_and_leaves_the_rest() {
        let ring: BoundedRing<u32> = BoundedRing::new(4);
        let mut batch: VecDeque<u32> = (0..6).collect();
        // Class limit below capacity: only 3 admitted.
        assert_eq!(ring.push_many(&mut batch, 3), Ok(3));
        assert_eq!(batch, VecDeque::from(vec![3, 4, 5]));
        // Ring has one slot left under its hard capacity.
        assert_eq!(ring.push_many(&mut batch, usize::MAX), Ok(1));
        assert_eq!(batch, VecDeque::from(vec![4, 5]));
        // Full: nothing admitted, nothing lost.
        assert_eq!(ring.push_many(&mut batch, usize::MAX), Ok(0));
        assert_eq!(batch.len(), 2);
        assert_eq!(ring.peak_depth(), 4);
        assert_eq!(pop(&ring, 8), vec![0, 1, 2, 3]);
        ring.close();
        assert_eq!(
            ring.push_many(&mut batch, usize::MAX),
            Err(PushError::Closed)
        );
        assert_eq!(batch.len(), 2, "closed ring leaves the batch intact");
    }

    #[test]
    fn close_drains_then_reports_drained() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        ring.close();
        assert_eq!(ring.try_push(3), Err(PushError::Closed));
        assert_eq!(pop(&ring, 1), vec![1]);
        assert_eq!(pop(&ring, 8), vec![2]);
        let mut buf = vec![7];
        assert_eq!(
            ring.pop_many(&mut buf, 8, Duration::from_millis(1)),
            Popped::Drained
        );
        assert!(buf.is_empty(), "a pop always clears the caller's buffer");
    }

    #[test]
    fn unpop_restores_front_order() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        ring.try_push(4).unwrap();
        ring.unpop(vec![1, 2, 3]);
        assert_eq!(pop(&ring, 8), vec![1, 2, 3, 4]);
    }

    #[test]
    fn unpop_takes_the_tail_out_of_the_pop_buffer() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        for i in 0..6 {
            ring.try_push(i).unwrap();
        }
        let mut buf = Vec::new();
        assert_eq!(
            ring.pop_many(&mut buf, 4, Duration::from_millis(1)),
            Popped::Items
        );
        // Served 0, panicked on 1: 2 and 3 go back ahead of 4 and 5.
        ring.unpop(buf.drain(2..));
        assert_eq!(buf, vec![0, 1]);
        assert_eq!(pop(&ring, 8), vec![2, 3, 4, 5]);
    }

    #[test]
    fn push_wait_blocks_until_space() {
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(1));
        ring.try_push(0).unwrap();
        let r2 = Arc::clone(&ring);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut buf = Vec::new();
            match r2.pop_many(&mut buf, 1, Duration::from_millis(100)) {
                Popped::Items => assert_eq!(buf, vec![0]),
                other => panic!("expected items, got {other:?}"),
            }
        });
        // Blocks until the consumer drains, then succeeds.
        assert_eq!(ring.push_wait(1, Duration::from_secs(5)), Ok(()));
        consumer.join().unwrap();
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn push_wait_times_out_on_stuck_consumer() {
        let ring: BoundedRing<u32> = BoundedRing::new(1);
        ring.try_push(0).unwrap();
        assert_eq!(
            ring.push_wait(1, Duration::from_millis(10)),
            Err(PushError::Full)
        );
    }

    /// Block until some producer is asleep in the ring.
    fn await_blocked_producer(ring: &BoundedRing<u32>) {
        while ring.inner.lock().unwrap().producers_waiting == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Wait for `need` slots (re-waiting after early wakes) until they
    /// are free, the ring closes or 10 s pass; returns the last answer
    /// and how long it all took.
    fn spawn_room_waiter(
        ring: &Arc<BoundedRing<u32>>,
        need: usize,
    ) -> std::thread::JoinHandle<(bool, Duration)> {
        let ring = Arc::clone(ring);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            loop {
                let ready = ring.wait_room(need, Duration::from_secs(10));
                if ready || ring.is_closed() || t0.elapsed() >= Duration::from_secs(10) {
                    return (ready, t0.elapsed());
                }
            }
        })
    }

    #[test]
    fn wait_room_wakes_when_a_pop_crosses_the_watermark() {
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(8));
        for i in 0..8 {
            ring.try_push(i).unwrap();
        }
        let waiter = spawn_room_waiter(&ring, 4);
        await_blocked_producer(&ring);
        // Three free slots: below the watermark, the waiter stays put.
        assert_eq!(pop(&ring, 3), vec![0, 1, 2]);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "woke with less room than asked");
        // The fourth free slot crosses it.
        assert_eq!(pop(&ring, 1), vec![3]);
        let (ready, waited) = waiter.join().unwrap();
        assert!(ready);
        assert!(
            waited < Duration::from_secs(5),
            "waiter returned only after {waited:?}"
        );
        // A need above capacity clamps to it: an empty ring satisfies it.
        assert_eq!(pop(&ring, 8), vec![4, 5, 6, 7]);
        assert!(ring.wait_room(99, Duration::ZERO));
    }

    #[test]
    fn unpop_and_close_wake_a_blocked_producer() {
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(4));
        for i in 0..4 {
            ring.try_push(i).unwrap();
        }
        let r2 = Arc::clone(&ring);
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            (r2.wait_room(4, Duration::from_secs(10)), t0.elapsed())
        });
        await_blocked_producer(&ring);
        // A crash-return leaves the ring fuller, yet wakes the producer.
        let mut buf = Vec::new();
        ring.pop_many(&mut buf, 1, Duration::from_millis(1));
        ring.unpop(buf.drain(..));
        let (ready, waited) = waiter.join().unwrap();
        assert!(!ready, "a fuller ring cannot have the room");
        assert!(
            waited < Duration::from_secs(5),
            "unpop did not wake: {waited:?}"
        );

        let waiter = spawn_room_waiter(&ring, 1);
        await_blocked_producer(&ring);
        ring.close();
        let (ready, waited) = waiter.join().unwrap();
        assert!(!ready, "a closed ring has no room");
        assert!(
            waited < Duration::from_secs(5),
            "close did not wake: {waited:?}"
        );
    }
}

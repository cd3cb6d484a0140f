//! The discrete-event queue at the heart of the simulator.
//!
//! Implemented as a two-level *calendar queue* (DESIGN.md §11): a ring of
//! per-cycle FIFO buckets covering the near future, backed by a sorted
//! overflow heap for far-future events. Push and pop are O(1) on the ring —
//! the common case by far in the simulator's hot loop — while delivery order
//! stays exactly the `(time, insertion sequence)` order of the original
//! `BinaryHeap` implementation (`tests/equivalence.rs` proves the two
//! pop-for-pop identical under arbitrary interleavings).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Cycle;

/// Width of the calendar ring: how far ahead of the window base an event may
/// land and still get an O(1) bucket. Must be a power of two (the bucket
/// index is `time % HORIZON`) and a multiple of 64 (the occupancy bitmap is
/// scanned a `u64` word at a time).
const HORIZON: usize = 4096;
/// Occupancy bitmap words — one bit per bucket.
const WORDS: usize = HORIZON / 64;

/// A deterministic discrete-event queue.
///
/// Events are ordered by `(time, insertion sequence)`: two events scheduled
/// for the same cycle are delivered in the order they were pushed, which
/// keeps simulations reproducible regardless of container internals.
///
/// The queue tracks the current simulation time ([`EventQueue::now`]), which
/// advances monotonically as events are popped. Pushing an event in the past
/// is a logic error and panics in debug builds.
///
/// # Structure
///
/// Three tiers, strictly ordered in time, so the earliest `(time, seq)`
/// entry is always at the front of the first non-empty tier:
///
/// * **Ring** — `HORIZON` per-cycle FIFO buckets covering
///   `[base, base + HORIZON)`, where `base` only ever advances. Each
///   occupied bucket holds the events of exactly one timestamp in insertion
///   order, so FIFO order *is* sequence order. A two-level occupancy bitmap
///   (a bit per bucket, a summary bit per word) finds the next occupied
///   bucket in a handful of `trailing_zeros` operations.
/// * **Overflow** — a `(time, seq)`-sorted heap for events at or beyond
///   `base + HORIZON`. Whenever `base` advances, entries that came inside
///   the window migrate into their ring buckets in heap order; an overflow
///   entry always migrates before any direct push to the same cycle can
///   occur (the window had not reached that cycle yet), so bucket FIFO
///   order still equals sequence order.
/// * **Backlog** — a sorted heap for events below `base`. Unreachable in
///   debug builds (pushing the past panics); in release builds it preserves
///   the heap-order delivery of erroneous past pushes, which the attached
///   auditor reports.
///
/// # Example
///
/// ```
/// let mut q = wsg_sim::EventQueue::new();
/// q.push(100, "b");
/// q.push(100, "c");
/// q.push(50, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
/// assert_eq!(order, vec![(50, "a"), (100, "b"), (100, "c")]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Per-cycle FIFO buckets; index `time % HORIZON`.
    buckets: Vec<VecDeque<E>>,
    /// Occupancy bit per bucket.
    words: [u64; WORDS],
    /// Occupancy bit per `words` entry.
    summary: u64,
    /// Start of the ring window `[base, base + HORIZON)`. Monotone.
    base: Cycle,
    /// Events resident in the ring.
    ring_len: usize,
    /// Events at `time >= base + HORIZON`, in `(time, seq)` order.
    overflow: BinaryHeap<Entry<E>>,
    /// Events at `time < base` (release-mode past pushes only).
    backlog: BinaryHeap<Entry<E>>,
    now: Cycle,
    seq: u64,
    pushed: u64,
    popped: u64,
    #[cfg(feature = "probe")]
    probe: Option<crate::probe::Probe>,
}

#[derive(Debug)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue at time 0 with `far` slots reserved in the
    /// far-future overflow tier (the ring is a fixed allocation; its buckets
    /// allocate lazily on first use).
    pub fn with_capacity(far: usize) -> Self {
        let mut buckets = Vec::with_capacity(HORIZON);
        buckets.resize_with(HORIZON, VecDeque::new);
        Self {
            buckets,
            words: [0; WORDS],
            summary: 0,
            base: 0,
            ring_len: 0,
            overflow: BinaryHeap::with_capacity(far),
            backlog: BinaryHeap::new(),
            now: 0,
            seq: 0,
            pushed: 0,
            popped: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe reporting every push and pop.
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, probe: crate::probe::Probe) {
        self.probe = Some(probe);
    }

    fn set_bit(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
        self.summary |= 1u64 << (idx / 64);
    }

    fn clear_bit(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1u64 << (idx % 64));
        if self.words[idx / 64] == 0 {
            self.summary &= !(1u64 << (idx / 64));
        }
    }

    /// First occupied bucket in cyclic scan order starting at `from` (the
    /// window base slot): bits `>= from` first, wrapping to end just below
    /// it. `None` iff the ring is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let w0 = from / 64;
        let high = self.words[w0] & (!0u64 << (from % 64));
        if high != 0 {
            return Some(w0 * 64 + high.trailing_zeros() as usize);
        }
        if self.summary == 0 {
            return None;
        }
        // Cyclic word scan w0+1, w0+2, ... ending back at w0, whose low bits
        // (the far end of the window) are correctly considered last.
        let rot = self.summary.rotate_right(((w0 + 1) % WORDS) as u32);
        if rot == 0 {
            return None;
        }
        let w = (w0 + 1 + rot.trailing_zeros() as usize) % WORDS;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Absolute time of ring bucket `idx`, given the window base slot.
    fn bucket_time(&self, idx: usize, from: usize) -> Cycle {
        self.base + ((idx + HORIZON - from) % HORIZON) as Cycle
    }

    /// Advances the window base, migrating overflow entries that came inside
    /// the window into their ring buckets in `(time, seq)` order.
    fn advance_base(&mut self, to: Cycle) {
        self.base = to;
        while let Some(head) = self.overflow.peek() {
            // No overflow: every overflow entry's time is >= the new base
            // (it exceeded the old base by a full horizon, and `to` is
            // either a ring time inside the old window or the overflow
            // minimum itself).
            if head.time - self.base >= HORIZON as Cycle {
                break;
            }
            let entry = match self.overflow.pop() {
                Some(e) => e,
                None => unreachable!("peeked entry vanished"),
            };
            let idx = (entry.time % HORIZON as Cycle) as usize;
            self.buckets[idx].push_back(entry.payload);
            self.set_bit(idx);
            self.ring_len += 1;
        }
    }

    /// Pops the earliest ring event. Caller guarantees `ring_len > 0`.
    fn pop_ring(&mut self) -> (Cycle, E) {
        let from = (self.base % HORIZON as Cycle) as usize;
        let idx = match self.next_occupied(from) {
            Some(i) => i,
            None => unreachable!("ring_len > 0 with an empty occupancy bitmap"),
        };
        let time = self.bucket_time(idx, from);
        let payload = match self.buckets[idx].pop_front() {
            Some(p) => p,
            None => unreachable!("occupied bit over an empty bucket"),
        };
        if self.buckets[idx].is_empty() {
            self.clear_bit(idx);
        }
        self.ring_len -= 1;
        self.advance_base(time);
        (time, payload)
    }

    /// Schedules `payload` to fire at absolute cycle `time`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` is earlier than the current time.
    pub fn push(&mut self, time: Cycle, payload: E) {
        // The auditor sees the violation even in release builds, where the
        // debug_assert below compiles out.
        #[cfg(feature = "probe")]
        if let Some(p) = &self.probe {
            p.push(self.now, time);
        }
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {} < {}",
            time,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        if time < self.base {
            // Release-only: a past push (or a push between a regressed `now`
            // and `base`) cannot enter the ring; the backlog heap preserves
            // its (time, seq) delivery slot ahead of every ring entry.
            self.backlog.push(Entry { time, seq, payload });
        } else if time - self.base < HORIZON as Cycle {
            let idx = (time % HORIZON as Cycle) as usize;
            self.buckets[idx].push_back(payload);
            self.set_bit(idx);
            self.ring_len += 1;
        } else {
            self.overflow.push(Entry { time, seq, payload });
        }
    }

    /// Schedules `payload` to fire `delay` cycles after the current time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `now + delay` overflows the cycle counter.
    /// Release builds report the overflow through
    /// `audit::Audit::on_delay_overflow` (when auditing is enabled) and
    /// clamp the event to `Cycle::MAX`.
    pub fn push_after(&mut self, delay: Cycle, payload: E) {
        match self.now.checked_add(delay) {
            Some(time) => self.push(time, payload),
            None => {
                #[cfg(feature = "probe")]
                if let Some(p) = &self.probe {
                    p.delay_overflow(self.now, delay);
                }
                if cfg!(debug_assertions) {
                    panic!(
                        "push_after delay overflow: {} + {} wraps the cycle counter",
                        self.now, delay
                    );
                }
                self.push(Cycle::MAX, payload);
            }
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (time, payload) = if let Some(e) = self.backlog.pop() {
            (e.time, e.payload)
        } else if self.ring_len > 0 {
            self.pop_ring()
        } else if let Some(e) = self.overflow.pop() {
            self.advance_base(e.time);
            (e.time, e.payload)
        } else {
            return None;
        };
        #[cfg(feature = "probe")]
        if let Some(p) = &self.probe {
            p.pop(self.now, time, 1);
        }
        debug_assert!(time >= self.now, "time ran backwards");
        self.now = time;
        self.popped += 1;
        Some((time, payload))
    }

    /// Removes every pending event of the earliest timestamp — one whole
    /// calendar bucket — appending the payloads to `out` in delivery order
    /// and advancing the clock to that timestamp. Returns the number of
    /// events drained (0 iff the queue is empty; `out` is untouched then).
    ///
    /// This is the batched form of [`EventQueue::pop`]: a sequence of
    /// `drain_bucket` calls delivers exactly the same `(time, payload)`
    /// stream as a sequence of `pop` calls — including events pushed *between*
    /// batches at the just-drained timestamp, which land in the (re-based)
    /// ring bucket and come out in the next batch, after the current one,
    /// exactly where their higher sequence numbers place them. The attached
    /// auditor observes the same per-event `on_pop(prev, time)` arguments as
    /// under per-pop delivery. Batching amortizes the occupancy-bitmap scan,
    /// base advance and `now` update over the bucket.
    ///
    /// A bucket holds exactly one timestamp, so the batch never spans
    /// cycles; handlers can treat [`EventQueue::now`] as constant across it.
    pub fn drain_bucket(&mut self, out: &mut Vec<E>) -> usize {
        let start = out.len();
        let time = if let Some(head) = self.backlog.peek() {
            // Release-mode past pushes: drain the equal-time run in heap
            // (time, seq) order. Backlog times sit below `base`, so they
            // always precede every ring and overflow entry.
            let t = head.time;
            while let Some(h) = self.backlog.peek() {
                if h.time != t {
                    break;
                }
                match self.backlog.pop() {
                    Some(e) => out.push(e.payload),
                    None => unreachable!("peeked entry vanished"),
                }
            }
            t
        } else if self.ring_len > 0 {
            let from = (self.base % HORIZON as Cycle) as usize;
            let idx = match self.next_occupied(from) {
                Some(i) => i,
                None => unreachable!("ring_len > 0 with an empty occupancy bitmap"),
            };
            let t = self.bucket_time(idx, from);
            let n = self.buckets[idx].len();
            out.extend(self.buckets[idx].drain(..));
            self.clear_bit(idx);
            self.ring_len -= n;
            // Migrating after the drain is equivalent to the per-pop
            // interleaving: an occupied ring bucket at `t` precludes
            // overflow entries at `t` (overflow starts a full horizon past
            // the base), so no migration can extend the current batch.
            self.advance_base(t);
            t
        } else if let Some(e) = self.overflow.pop() {
            let t = e.time;
            out.push(e.payload);
            // Same-time overflow siblings migrate into the ring bucket for
            // `t` (in heap order, i.e. ascending seq — all above `e`'s) and
            // belong to this batch. The bucket cannot hold anything else:
            // the ring was empty, and a migrated time `t' > t` with
            // `t' ≡ t (mod HORIZON)` would be a full horizon out, beyond
            // the migration window.
            self.advance_base(t);
            let idx = (t % HORIZON as Cycle) as usize;
            if self.words[idx / 64] & (1u64 << (idx % 64)) != 0 {
                let n = self.buckets[idx].len();
                out.extend(self.buckets[idx].drain(..));
                self.clear_bit(idx);
                self.ring_len -= n;
            }
            t
        } else {
            return 0;
        };
        let n = out.len() - start;
        #[cfg(feature = "probe")]
        if let Some(p) = &self.probe {
            // Per-event hook parity with `pop`: the first event advances the
            // clock from the previous `now`, the rest observe `time == prev`.
            p.pop(self.now, time, n);
        }
        debug_assert!(time >= self.now, "time ran backwards");
        self.now = time;
        self.popped += n as u64;
        n
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if let Some(e) = self.backlog.peek() {
            return Some(e.time);
        }
        if self.ring_len > 0 {
            let from = (self.base % HORIZON as Cycle) as usize;
            let idx = self.next_occupied(from)?;
            return Some(self.bucket_time(idx, from));
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len() + self.backlog.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (throughput accounting).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events ever popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// End-of-simulation conservation check: asserts every pushed event was
    /// popped (the queue fully drained) and returns `(pushed, popped)`.
    ///
    /// # Panics
    ///
    /// Panics — in all build profiles — if events are still pending.
    pub fn drain_check(&self) -> (u64, u64) {
        assert_eq!(
            self.pushed,
            self.popped,
            "event queue not drained: {} pushed vs {} popped ({} pending)",
            self.pushed,
            self.popped,
            self.len()
        );
        (self.pushed, self.popped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.push(42, ());
        q.pop();
        assert_eq!(q.now(), 42);
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(100, "first");
        q.pop();
        q.push_after(5, "second");
        assert_eq!(q.pop(), Some((105, "second")));
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events beyond base + HORIZON take the overflow path and must still
        // deliver in (time, seq) order after migrating back into the ring.
        let mut q = EventQueue::new();
        let far = HORIZON as Cycle * 3 + 17;
        q.push(far, "far-b");
        q.push(5, "near");
        q.push(far, "far-c");
        q.push(far + 1, "far-d");
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((far, "far-b")));
        assert_eq!(q.pop(), Some((far, "far-c")));
        assert_eq!(q.pop(), Some((far + 1, "far-d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn migration_keeps_fifo_with_direct_pushes() {
        // An overflow entry migrates the moment the window reaches it —
        // before any direct push to the same cycle is possible — so bucket
        // FIFO order equals global insertion order.
        let mut q = EventQueue::new();
        let t = HORIZON as Cycle + 100;
        q.push(t, 0); // overflow (window is [0, HORIZON))
        q.push(200, 1); // ring
        assert_eq!(q.pop(), Some((200, 1))); // base -> 200, t migrates
        q.push(t, 2); // direct push into the same bucket
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn ring_wraps_around_the_horizon() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            let t = i * (HORIZON as Cycle / 2 + 3);
            q.push(t, i);
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    #[cfg(debug_assertions)]
    fn pushing_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    #[should_panic(expected = "delay overflow")]
    #[cfg(debug_assertions)]
    fn push_after_overflow_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push_after(Cycle::MAX, ());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_advance_time() {
        let mut q = EventQueue::new();
        q.push(9, ());
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.now(), 0);
    }

    #[test]
    fn drain_check_reports_counters() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        q.pop();
        assert_eq!(q.drain_check(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "not drained")]
    fn drain_check_rejects_pending_events() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.drain_check();
    }

    #[test]
    fn drain_bucket_takes_one_whole_timestamp() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.push(20, "c");
        q.push(10, "b");
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec!["a", "b"]);
        assert_eq!(q.now(), 10);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out, vec!["c"]);
        assert_eq!(q.now(), 20);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 0);
        assert!(out.is_empty());
        assert_eq!(q.drain_check(), (3, 3));
    }

    #[test]
    fn drain_bucket_matches_pop_for_pop_delivery() {
        // The same synthetic workload (each event spawns follow-ups, some at
        // the current cycle) delivered per-pop and per-batch must produce an
        // identical (time, payload) stream.
        let step = |t: Cycle, n: u32| -> Vec<(Cycle, u32)> {
            let h = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t;
            if n < 300 {
                // One same-cycle spawn (h % 3 == 0 often) and one spread out
                // across ring and overflow distances.
                vec![
                    (t + (h % 3), n * 2 + 1),
                    (t + (h % (3 * HORIZON as Cycle / 2)), n * 2 + 2),
                ]
            } else {
                Vec::new()
            }
        };

        let mut per_pop = EventQueue::new();
        per_pop.push(0, 0u32);
        let mut pop_order = Vec::new();
        while let Some((t, n)) = per_pop.pop() {
            pop_order.push((t, n));
            for (ct, c) in step(t, n) {
                per_pop.push(ct, c);
            }
        }

        let mut batched = EventQueue::new();
        batched.push(0, 0u32);
        let mut batch_order = Vec::new();
        let mut batch = Vec::new();
        loop {
            if batched.drain_bucket(&mut batch) == 0 {
                break;
            }
            let t = batched.now();
            for n in batch.drain(..) {
                batch_order.push((t, n));
                for (ct, c) in step(t, n) {
                    batched.push(ct, c);
                }
            }
        }

        assert_eq!(pop_order, batch_order);
        assert_eq!(per_pop.drain_check(), batched.drain_check());
    }

    #[test]
    fn drain_bucket_pulls_same_time_overflow_siblings() {
        // With the ring empty, popping an overflow head migrates its
        // same-time siblings into the ring; the batch must include them.
        let mut q = EventQueue::new();
        let far = HORIZON as Cycle * 2 + 5;
        q.push(far, 1);
        q.push(far, 2);
        q.push(far + 1, 3);
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.now(), far);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn pushes_at_the_drained_time_land_in_the_next_batch() {
        let mut q = EventQueue::new();
        q.push(7, 0);
        q.push(7, 1);
        let mut out = Vec::new();
        assert_eq!(q.drain_bucket(&mut out), 2);
        // A handler at t=7 schedules more work at t=7: higher sequence
        // numbers put it after the drained batch, in its own bucket run.
        q.push(7, 2);
        q.push(7, 3);
        q.push(8, 4);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 2);
        assert_eq!(out, vec![2, 3]);
        assert_eq!(q.now(), 7);
        out.clear();
        assert_eq!(q.drain_bucket(&mut out), 1);
        assert_eq!(out, vec![4]);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn drain_bucket_reports_per_event_pops_to_the_auditor() {
        use crate::audit::Audit;
        use crate::probe::{Sinks, SiteKind, SiteTable};
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct PopLog(Vec<(Cycle, Cycle)>);
        impl Audit for PopLog {
            fn on_pop(&mut self, prev: Cycle, time: Cycle) {
                self.0.push((prev, time));
            }
        }

        let log = Rc::new(RefCell::new(PopLog::default()));
        let mut q = EventQueue::new();
        q.attach_probe(SiteTable::new(Sinks::new().with_auditor(&log)).unclaimed(SiteKind::Queue));
        q.push(4, ());
        q.push(9, ());
        q.push(9, ());
        let mut out = Vec::new();
        q.drain_bucket(&mut out);
        out.clear();
        q.drain_bucket(&mut out);
        // Exactly what three pops would have reported.
        assert_eq!(log.borrow().0, vec![(0, 4), (4, 9), (9, 9)]);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn auditor_sees_past_push_in_any_profile() {
        use crate::audit::ConservationAuditor;
        use crate::probe::{Sinks, SiteKind, SiteTable};
        use std::cell::RefCell;
        use std::rc::Rc;

        let auditor = Rc::new(RefCell::new(ConservationAuditor::new()));
        let mut q = EventQueue::new();
        q.attach_probe(
            SiteTable::new(Sinks::new().with_auditor(&auditor)).unclaimed(SiteKind::Queue),
        );
        q.push(10, ());
        q.pop();
        // Swallow the debug panic so the hook's observation is testable in
        // both profiles.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(5, ());
        }));
        if cfg!(debug_assertions) {
            assert!(r.is_err());
        }
        assert_eq!(auditor.borrow().total_violations(), 1);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn push_after_overflow_reports_to_auditor() {
        use crate::audit::ConservationAuditor;
        use crate::probe::{Sinks, SiteKind, SiteTable};
        use std::cell::RefCell;
        use std::rc::Rc;

        let auditor = Rc::new(RefCell::new(ConservationAuditor::new()));
        let mut q = EventQueue::new();
        q.attach_probe(
            SiteTable::new(Sinks::new().with_auditor(&auditor)).unclaimed(SiteKind::Queue),
        );
        q.push(10, ());
        q.pop();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push_after(Cycle::MAX, ());
        }));
        if cfg!(debug_assertions) {
            assert!(r.is_err());
        } else {
            // Release builds clamp and keep going; the event still delivers.
            assert_eq!(q.pop(), Some((Cycle::MAX, ())));
        }
        assert_eq!(auditor.borrow().total_violations(), 1);
    }
}

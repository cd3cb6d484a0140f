//! Page-table walker pools with an explicit PW-queue.

use std::collections::VecDeque;

/// The outcome of submitting a request to a [`WalkerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitResult {
    /// A walker was free; the walk starts immediately. The caller should
    /// schedule its completion after the walk latency.
    Started,
    /// All walkers are busy; the request was placed in the PW-queue and will
    /// be returned by a later [`WalkerPool::finish`].
    Queued,
    /// The PW-queue is full; the request was rejected and must wait in an
    /// upstream buffer (the IOMMU "pre-queue" of Fig 3).
    Rejected,
}

/// A pool of page-table walkers fed by a bounded FIFO PW-queue.
///
/// Models both the GMMU (8 walkers) and the IOMMU (16 walkers) of Table I.
/// Unlike the analytic [`wsg_sim::ServerPool`], the queue is a real data
/// structure, so the simulator can:
///
/// * sample its occupancy over time (Fig 4's buffer pressure),
/// * coalesce identical pending requests when a walk finishes — the
///   *PW-queue revisit* of §IV-F and the core of the Barre baseline,
/// * bound it and exert back-pressure (the pre-queue component of Fig 3).
///
/// `T` is the caller's request token.
///
/// # Example
///
/// ```
/// use wsg_xlat::{SubmitResult, WalkerPool};
///
/// let mut pool: WalkerPool<u32> = WalkerPool::new(1, 8);
/// assert_eq!(pool.submit(100), SubmitResult::Started);
/// assert_eq!(pool.submit(200), SubmitResult::Queued);
/// // First walk finishes; the queued request starts next.
/// assert_eq!(pool.finish(), Some(200));
/// assert_eq!(pool.finish(), None); // nothing left waiting
/// ```
#[derive(Debug, Clone)]
pub struct WalkerPool<T> {
    walkers: usize,
    busy: usize,
    queue: VecDeque<T>,
    queue_capacity: usize,
    /// Reused survivor buffer for [`WalkerPool::drain_matching_into`] —
    /// pre-sized with the queue so the PW-queue revisit never allocates.
    kept: VecDeque<T>,
    started: u64,
    queued: u64,
    rejected: u64,
    coalesced: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

impl<T> WalkerPool<T> {
    /// Creates a pool with `walkers` walkers and a PW-queue of
    /// `queue_capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `walkers` is zero.
    pub fn new(walkers: usize, queue_capacity: usize) -> Self {
        assert!(walkers > 0, "need at least one walker");
        // Pre-size both ring buffers from the config (clamped in case a
        // sweep passes an effectively-unbounded capacity) so the steady
        // state never reallocates.
        let presize = queue_capacity.min(1 << 16);
        Self {
            walkers,
            busy: 0,
            queue: VecDeque::with_capacity(presize),
            queue_capacity,
            kept: VecDeque::with_capacity(presize),
            started: 0,
            queued: 0,
            rejected: 0,
            coalesced: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports submit outcomes and queue
    /// promotions (trace), PW-queue occupancy (audit), and publishes the
    /// pool's load and throughput counters (telemetry).
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::{Counter, Gauge};
        probe.register(&[
            ("walkers.busy", Gauge),
            ("walkers.queue", Gauge),
            ("walkers.started", Counter),
            ("walkers.coalesced", Counter),
            ("walkers.rejected", Counter),
        ]);
        self.probe = Some(probe);
        self.report(|_| {});
    }

    /// Reports one state change to the attached probe and republishes the
    /// counters it may have moved.
    #[cfg(feature = "probe")]
    fn report(&self, event: impl FnOnce(&wsg_sim::probe::Probe)) {
        if let Some(p) = &self.probe {
            event(p);
            p.publish(0, || {
                [
                    self.busy as u64,
                    self.queue.len() as u64,
                    self.started,
                    self.coalesced,
                    self.rejected,
                ]
            });
        }
    }

    /// Submits a request. See [`SubmitResult`] for the possible outcomes;
    /// on `Rejected` the request is handed back via the return value.
    pub fn submit(&mut self, token: T) -> SubmitResult
    where
        T: Clone,
    {
        if self.busy < self.walkers {
            self.busy += 1;
            self.started += 1;
            #[cfg(feature = "probe")]
            self.report(|p| p.instant("walk.start", self.busy as u64));
            SubmitResult::Started
        } else if self.queue.len() < self.queue_capacity {
            self.queue.push_back(token);
            self.queued += 1;
            #[cfg(feature = "probe")]
            self.report(|p| {
                p.fill(self.queue.len(), self.queue_capacity);
                p.instant("walk.queue", self.queue.len() as u64);
            });
            SubmitResult::Queued
        } else {
            self.rejected += 1;
            #[cfg(feature = "probe")]
            self.report(|p| p.instant("walk.reject", self.queue.len() as u64));
            SubmitResult::Rejected
        }
    }

    /// Marks one walk as finished, freeing its walker. If the PW-queue is
    /// non-empty, the head request is dequeued, its walk starts immediately,
    /// and it is returned so the caller can schedule its completion.
    ///
    /// # Panics
    ///
    /// Panics if no walk is in flight.
    pub fn finish(&mut self) -> Option<T> {
        assert!(self.busy > 0, "finish() without a walk in flight");
        match self.queue.pop_front() {
            Some(next) => {
                // The freed walker immediately picks up the next request;
                // `busy` stays unchanged.
                self.started += 1;
                #[cfg(feature = "probe")]
                self.report(|p| {
                    p.evict(self.queue.len());
                    p.instant("walk.promote", self.queue.len() as u64);
                });
                Some(next)
            }
            None => {
                self.busy -= 1;
                #[cfg(feature = "probe")]
                self.report(|_| {});
                None
            }
        }
    }

    /// Removes every queued request matching `pred` — the PW-queue revisit:
    /// when a walker resolves VPN N it also completes all identical pending
    /// requests without extra walks. Returns the removed requests in FIFO
    /// order.
    pub fn drain_matching(&mut self, pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut drained = Vec::new();
        self.drain_matching_into(pred, &mut drained);
        drained
    }

    /// [`WalkerPool::drain_matching`] into a caller-owned buffer: appends
    /// the removed requests to `out` in FIFO order and returns the count.
    /// Survivors shuffle through the pool's pre-sized `kept` ring, so the
    /// revisit allocates nothing once `out` has warmed up.
    pub fn drain_matching_into(
        &mut self,
        mut pred: impl FnMut(&T) -> bool,
        out: &mut Vec<T>,
    ) -> usize {
        let start = out.len();
        while let Some(item) = self.queue.pop_front() {
            if pred(&item) {
                out.push(item);
            } else {
                self.kept.push_back(item);
            }
        }
        std::mem::swap(&mut self.queue, &mut self.kept);
        let n = out.len() - start;
        self.coalesced += n as u64;
        #[cfg(feature = "probe")]
        if n > 0 {
            self.report(|p| {
                // One evict per drained request, with the intermediate
                // occupancy each removal would have left.
                for i in 0..n {
                    p.evict(self.queue.len() + n - 1 - i);
                }
            });
        }
        n
    }

    /// Number of walks currently in flight.
    pub fn busy(&self) -> usize {
        self.busy
    }

    /// Number of requests waiting in the PW-queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a new submission would be rejected.
    pub fn is_saturated(&self) -> bool {
        self.busy >= self.walkers && self.queue.len() >= self.queue_capacity
    }

    /// Number of walkers.
    pub fn walkers(&self) -> usize {
        self.walkers
    }

    /// PW-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Lifetime count of walks started.
    pub fn started(&self) -> u64 {
        self.started
    }

    /// Lifetime count of requests that had to queue.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Lifetime count of rejected submissions.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Lifetime count of requests completed by queue revisit.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_walkers_rejected() {
        WalkerPool::<u32>::new(0, 4);
    }

    #[test]
    fn starts_until_walkers_exhausted() {
        let mut p: WalkerPool<u32> = WalkerPool::new(2, 4);
        assert_eq!(p.submit(1), SubmitResult::Started);
        assert_eq!(p.submit(2), SubmitResult::Started);
        assert_eq!(p.submit(3), SubmitResult::Queued);
        assert_eq!(p.busy(), 2);
        assert_eq!(p.queue_len(), 1);
    }

    #[test]
    fn rejects_when_queue_full() {
        let mut p: WalkerPool<u32> = WalkerPool::new(1, 1);
        p.submit(1);
        p.submit(2);
        assert_eq!(p.submit(3), SubmitResult::Rejected);
        assert!(p.is_saturated());
        assert_eq!(p.rejected(), 1);
    }

    #[test]
    fn finish_promotes_queue_head_fifo() {
        let mut p: WalkerPool<u32> = WalkerPool::new(1, 4);
        p.submit(1);
        p.submit(2);
        p.submit(3);
        assert_eq!(p.finish(), Some(2));
        assert_eq!(p.finish(), Some(3));
        assert_eq!(p.finish(), None);
        assert_eq!(p.busy(), 0);
    }

    #[test]
    #[should_panic(expected = "without a walk in flight")]
    fn finish_without_walk_panics() {
        let mut p: WalkerPool<u32> = WalkerPool::new(1, 1);
        p.finish();
    }

    #[test]
    fn drain_matching_coalesces() {
        let mut p: WalkerPool<(u32, u64)> = WalkerPool::new(1, 10);
        p.submit((0, 100)); // starts
        for i in 1..=5 {
            p.submit((i, if i % 2 == 0 { 100 } else { 200 }));
        }
        let same = p.drain_matching(|&(_, vpn)| vpn == 100);
        assert_eq!(same.len(), 2);
        assert_eq!(p.queue_len(), 3);
        assert_eq!(p.coalesced(), 2);
        // FIFO order preserved for survivors.
        assert_eq!(p.finish(), Some((1, 200)));
    }

    #[test]
    fn busy_count_stable_when_promoting() {
        let mut p: WalkerPool<u32> = WalkerPool::new(2, 4);
        p.submit(1);
        p.submit(2);
        p.submit(3);
        assert_eq!(p.busy(), 2);
        p.finish(); // promotes 3; both walkers still busy
        assert_eq!(p.busy(), 2);
        p.finish();
        assert_eq!(p.busy(), 1);
    }

    #[test]
    fn statistics_accumulate() {
        let mut p: WalkerPool<u32> = WalkerPool::new(1, 1);
        p.submit(1);
        p.submit(2);
        p.submit(3); // rejected
        p.finish(); // promotes 2
        assert_eq!(p.started(), 2);
        assert_eq!(p.queued(), 1);
        assert_eq!(p.rejected(), 1);
    }
}

//! Runtime invariant auditing (the `audit` feature).
//!
//! The simulator's correctness rests on a handful of conservation and
//! ordering invariants — event time never runs backwards, every injected
//! flit is delivered, caches never exceed capacity, queues stay bounded,
//! table entries are neither lost nor duplicated. Debug builds check some of
//! these with `debug_assert!`; this module makes them checkable in *release*
//! builds too, where the figure-generating runs actually happen.
//!
//! The design is hook-based, mirroring scheduler auditors in event-driven
//! architecture simulators: structures report state transitions through
//! their [`Probe`](crate::probe::Probe), which forwards them to the
//! attached [`Audit`] implementation. Hooks are purely observational — an
//! attached auditor must never change simulation behaviour, so an audited
//! run produces byte-identical metrics to an unaudited one. Violations are
//! recorded, not panicked on, so one run reports them all; the engine
//! asserts the count is zero at the end of `Simulation::run`.
//!
//! Everything here is compiled only with `--features audit`; default builds
//! carry no cost (not even a branch — the probe fields themselves are
//! feature-gated out).

use crate::probe::{Site, SiteKind};
use crate::time::Cycle;

/// Observer hooks invoked by audited structures at state transitions.
///
/// All hooks have empty defaults so an auditor implements only what it
/// checks. Implementations must be observational: no hook may influence the
/// simulation (they receive copies of primitive state, not structure
/// references, to make that hard to get wrong).
pub trait Audit {
    /// An event was scheduled: current queue time `now`, event time `time`.
    fn on_push(&mut self, now: Cycle, time: Cycle) {
        let _ = (now, time);
    }

    /// An event was popped: previous queue time `prev`, event time `time`.
    fn on_pop(&mut self, prev: Cycle, time: Cycle) {
        let _ = (prev, time);
    }

    /// `EventQueue::push_after` was asked for a delay that overflows the
    /// cycle counter (`now + delay > Cycle::MAX`). Debug builds panic right
    /// after reporting; release builds clamp to `Cycle::MAX` and continue,
    /// so this hook is the only release-mode record of the wrap.
    fn on_delay_overflow(&mut self, now: Cycle, delay: Cycle) {
        let _ = (now, delay);
    }

    /// A packet of `bytes` was injected into link `site`.
    fn on_inject(&mut self, site: Site, bytes: u64) {
        let _ = (site, bytes);
    }

    /// A packet of `bytes` finished traversing link `site`.
    fn on_deliver(&mut self, site: Site, bytes: u64) {
        let _ = (site, bytes);
    }

    /// An entry was added at `site`; `occupancy` is the post-insert count
    /// and `capacity` the structure's bound (0 = unbounded).
    fn on_fill(&mut self, site: Site, occupancy: usize, capacity: usize) {
        let _ = (site, occupancy, capacity);
    }

    /// An entry was removed at `site`; `occupancy` is the post-remove count.
    fn on_evict(&mut self, site: Site, occupancy: usize) {
        let _ = (site, occupancy);
    }
}

/// How many violation descriptions [`ConservationAuditor`] keeps verbatim;
/// further violations are counted but not described.
const MAX_RECORDED: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
struct LinkFlow {
    injected_packets: u64,
    delivered_packets: u64,
    injected_bytes: u64,
    delivered_bytes: u64,
}

/// The standard auditor: checks time monotonicity, link flit conservation,
/// occupancy bounds, and entry conservation.
///
/// Per-site bookkeeping uses `BTreeMap` so an audited run's own reporting is
/// deterministic (the simulator-wide D1 lint applies here too).
///
/// Checks performed:
///
/// * **Event-time monotonicity** — `on_push` with `time < now` or `on_pop`
///   with `time < prev` is a violation (release-build analogue of the
///   queue's `debug_assert`s).
/// * **Link conservation** — at [`ConservationAuditor::finish`], every
///   link's injected packet and byte counts must equal its delivered counts.
/// * **Occupancy bounds** — every `on_fill` with a nonzero capacity must
///   report `occupancy <= capacity`.
/// * **Entry conservation** — the auditor mirrors each site's occupancy from
///   the fill/evict stream (seeded from the first report); a reported
///   occupancy diverging from the mirror means entries were lost or
///   duplicated, e.g. across a page migration's redirection-table updates.
#[derive(Debug, Default)]
pub struct ConservationAuditor {
    violations: Vec<String>,
    total: u64,
    expected: std::collections::BTreeMap<Site, i64>,
    links: std::collections::BTreeMap<u64, LinkFlow>,
    finished: bool,
}

impl ConservationAuditor {
    /// Creates an auditor with no recorded observations.
    pub fn new() -> Self {
        Self::default()
    }

    fn violation(&mut self, msg: String) {
        self.total += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }

    fn track(&mut self, site: Site, delta: i64, occupancy: usize) {
        let diverged = match self.expected.entry(site) {
            std::collections::btree_map::Entry::Vacant(v) => {
                // First observation of this site: trust its report and
                // mirror from here on.
                v.insert(occupancy as i64);
                None
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                *o.get_mut() += delta;
                let expected = *o.get();
                if expected != occupancy as i64 {
                    // Re-sync so one bug does not cascade into a violation
                    // per subsequent operation.
                    *o.get_mut() = occupancy as i64;
                    Some(expected)
                } else {
                    None
                }
            }
        };
        if let Some(expected) = diverged {
            self.violation(format!(
                "{site}: occupancy {occupancy} diverged from mirrored count {expected} \
                 (entries lost or duplicated)"
            ));
        }
    }

    /// Total violations observed so far (recorded or not).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Descriptions of the first [`MAX_RECORDED`] violations.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Runs end-of-simulation checks (link conservation) and returns the
    /// final violation count. Idempotent.
    pub fn finish(&mut self) -> u64 {
        if !self.finished {
            self.finished = true;
            let pending: Vec<String> = self
                .links
                .iter()
                .filter(|(_, f)| {
                    f.injected_packets != f.delivered_packets
                        || f.injected_bytes != f.delivered_bytes
                })
                .map(|(id, f)| {
                    format!(
                        "{}: conservation broken: injected {} packets/{} bytes, \
                         delivered {} packets/{} bytes",
                        Site::new(SiteKind::Link, *id),
                        f.injected_packets,
                        f.injected_bytes,
                        f.delivered_packets,
                        f.delivered_bytes,
                    )
                })
                .collect();
            for msg in pending {
                self.violation(msg);
            }
        }
        self.total
    }
}

impl Audit for ConservationAuditor {
    fn on_push(&mut self, now: Cycle, time: Cycle) {
        if time < now {
            self.violation(format!("event scheduled in the past: {time} < {now}"));
        }
    }

    fn on_pop(&mut self, prev: Cycle, time: Cycle) {
        if time < prev {
            self.violation(format!("queue time ran backwards: {time} < {prev}"));
        }
    }

    fn on_delay_overflow(&mut self, now: Cycle, delay: Cycle) {
        self.violation(format!(
            "push_after delay overflow: {now} + {delay} wraps the cycle counter"
        ));
    }

    fn on_inject(&mut self, site: Site, bytes: u64) {
        let f = self.links.entry(site.id).or_default();
        f.injected_packets += 1;
        f.injected_bytes += bytes;
    }

    fn on_deliver(&mut self, site: Site, bytes: u64) {
        let f = self.links.entry(site.id).or_default();
        f.delivered_packets += 1;
        f.delivered_bytes += bytes;
    }

    fn on_fill(&mut self, site: Site, occupancy: usize, capacity: usize) {
        if capacity > 0 && occupancy > capacity {
            self.violation(format!(
                "{site}: occupancy {occupancy} exceeds capacity {capacity}"
            ));
        }
        self.track(site, 1, occupancy);
    }

    fn on_evict(&mut self, site: Site, occupancy: usize) {
        self.track(site, -1, occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> Site {
        Site::new(SiteKind::Tlb, 7)
    }

    #[test]
    fn delay_overflow_is_a_violation() {
        let mut a = ConservationAuditor::new();
        a.on_delay_overflow(u64::MAX - 3, 10);
        assert_eq!(a.total_violations(), 1);
        assert!(a.violations()[0].contains("push_after delay overflow"));
    }

    #[test]
    fn clean_run_has_no_violations() {
        let mut a = ConservationAuditor::new();
        a.on_push(0, 10);
        a.on_pop(0, 10);
        a.on_inject(Site::new(SiteKind::Link, 1), 64);
        a.on_deliver(Site::new(SiteKind::Link, 1), 64);
        a.on_fill(site(), 1, 8);
        a.on_evict(site(), 0);
        assert_eq!(a.finish(), 0);
        assert!(a.violations().is_empty());
    }

    #[test]
    fn past_push_is_flagged() {
        let mut a = ConservationAuditor::new();
        a.on_push(100, 50);
        assert_eq!(a.total_violations(), 1);
        assert!(a.violations()[0].contains("in the past"));
    }

    #[test]
    fn backwards_pop_is_flagged() {
        let mut a = ConservationAuditor::new();
        a.on_pop(100, 50);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn unbalanced_link_is_flagged_at_finish() {
        let mut a = ConservationAuditor::new();
        a.on_inject(Site::new(SiteKind::Link, 3), 64);
        assert_eq!(a.total_violations(), 0, "only checked at finish");
        assert_eq!(a.finish(), 1);
        assert!(a.violations()[0].contains("conservation"));
    }

    #[test]
    fn over_capacity_fill_is_flagged() {
        let mut a = ConservationAuditor::new();
        a.on_fill(site(), 9, 8);
        assert_eq!(a.total_violations(), 1);
        assert!(a.violations()[0].contains("exceeds capacity"));
    }

    #[test]
    fn occupancy_divergence_is_flagged_once() {
        let mut a = ConservationAuditor::new();
        a.on_fill(site(), 1, 8);
        a.on_fill(site(), 2, 8);
        // Structure claims 5 after one more fill: entries appeared from
        // nowhere.
        a.on_fill(site(), 5, 8);
        assert_eq!(a.total_violations(), 1);
        // Mirror re-synced: the next consistent op is clean.
        a.on_evict(site(), 4);
        assert_eq!(a.total_violations(), 1);
    }

    #[test]
    fn first_report_seeds_the_mirror() {
        let mut a = ConservationAuditor::new();
        // Auditor attached to a structure that already held 5 entries.
        a.on_evict(site(), 4);
        a.on_evict(site(), 3);
        assert_eq!(a.finish(), 0);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut a = ConservationAuditor::new();
        a.on_inject(Site::new(SiteKind::Link, 1), 8);
        assert_eq!(a.finish(), 1);
        assert_eq!(a.finish(), 1);
    }
}

//! One observability hook per component (the internal `probe` feature,
//! enabled by each of `audit`, `trace` and `telemetry`).
//!
//! Every model structure — the event queue, the mesh, TLBs, walker pools,
//! the redirection table, cuckoo filters, MSHRs and HBM stacks — holds
//! exactly one `Option<Probe>`. It reports each state change once (a
//! lookup hit or miss, a fill, an eviction, a walk start, a link hop, …)
//! and publishes its cumulative counters through the same handle. The
//! probe fans each report out to whichever consumers the run attached
//! through [`Sinks`]:
//!
//! * the `audit::Audit` auditor (`audit` feature) sees queue pushes/pops,
//!   link injections/deliveries and occupancy changes;
//! * the `trace::TraceSink` (`trace` feature) records instants and spans;
//! * the `telemetry::TelemetrySink` (`telemetry` feature) holds the latest
//!   published counter values and samples them per epoch.
//!
//! A consumer whose feature is compiled out costs nothing: its arm of each
//! fan-out method is compiled away, and without any of the three features
//! this module — and every component's probe field — does not exist.
//!
//! # Site ids
//!
//! The engine hands every probe out in one attach pass over a
//! [`SiteTable`], which panics on a duplicate id. Structure sites share one
//! id space (the engine's `gpm*8+slot` / per-CU stride / IOMMU numbering);
//! mesh links are named by their packed endpoints and mesh counters by tile
//! index, so those two live outside the table.
//!
//! # Example
//!
//! ```
//! use wsg_sim::probe::{SiteKind, SiteTable, Sinks};
//!
//! let mut table = SiteTable::new(Sinks::new());
//! let l2 = table.claim(SiteKind::Tlb, 0, None);
//! let _walkers = table.claim(SiteKind::Walker, 2, None);
//! l2.instant("tlb.miss", 0x42); // no consumer attached: a no-op
//! assert_eq!(table.len(), 2);
//! ```

// lint:allow-module(shared-mut): the probe is the one sanctioned
// shared-state boundary (DESIGN.md §13) — every consumer is shared by all
// of a run's probes through Rc<RefCell<..>>, and model structures only ever
// hold the Option<Probe> defined here.
#[cfg(any(feature = "audit", feature = "trace", feature = "telemetry"))]
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
#[cfg(any(feature = "audit", feature = "trace", feature = "telemetry"))]
use std::rc::Rc;

#[cfg(feature = "audit")]
use crate::audit::Audit;
#[cfg(feature = "telemetry")]
use crate::telemetry::TelemetrySink;
use crate::time::Cycle;
#[cfg(feature = "trace")]
use crate::trace::TraceSink;

/// What kind of structure a [`Site`] identifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// The discrete-event queue.
    Queue,
    /// The mesh; each directional link is its own site id.
    Link,
    /// A TLB or other set-associative translation cache.
    Tlb,
    /// A walker pool and its PW-queue.
    Walker,
    /// The IOMMU redirection table.
    Redirection,
    /// A GPM's cuckoo filter.
    Cuckoo,
    /// A GPM's HBM stack.
    Hbm,
    /// An MSHR file.
    Mshr,
}

/// Identifies one observed structure instance (e.g. GPM 3's L2 TLB, or the
/// east-bound link out of tile (2, 1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    /// The structure's kind.
    pub kind: SiteKind,
    /// Instance id from the engine's site table; for links, the packed
    /// endpoint coordinates.
    pub id: u64,
}

impl Site {
    /// Builds a site id.
    pub fn new(kind: SiteKind, id: u64) -> Self {
        Self { kind, id }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}#{}", self.kind, self.id)
    }
}

/// How a published counter is folded into per-epoch telemetry samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotone cumulative count; each epoch records the delta since the
    /// previous epoch.
    Counter,
    /// Instantaneous level; each epoch records the absolute value.
    Gauge,
}

/// The consumers one run's probes fan out to. Cloning shares them.
#[derive(Clone, Default)]
pub struct Sinks {
    #[cfg(feature = "audit")]
    audit: Option<Rc<RefCell<dyn Audit>>>,
    #[cfg(feature = "trace")]
    trace: Option<Rc<RefCell<TraceSink>>>,
    #[cfg(feature = "telemetry")]
    telemetry: Option<Rc<RefCell<TelemetrySink>>>,
}

impl fmt::Debug for Sinks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Sinks");
        #[cfg(feature = "audit")]
        d.field("audit", &self.audit.is_some());
        #[cfg(feature = "trace")]
        d.field("trace", &self.trace.is_some());
        #[cfg(feature = "telemetry")]
        d.field("telemetry", &self.telemetry.is_some());
        d.finish()
    }
}

impl Sinks {
    /// No consumers: probes built from it observe nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an auditor the caller keeps concrete access to.
    #[cfg(feature = "audit")]
    pub fn with_auditor<A: Audit + 'static>(mut self, auditor: &Rc<RefCell<A>>) -> Self {
        self.audit = Some(Rc::clone(auditor) as Rc<RefCell<dyn Audit>>);
        self
    }

    /// Adds a fresh request-lifecycle trace sink; retrieve it after the run
    /// with [`Sinks::take_trace`].
    #[cfg(feature = "trace")]
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Rc::new(RefCell::new(TraceSink::new())));
        self
    }

    /// Adds a fresh telemetry recorder sampling every `interval` cycles;
    /// retrieve it after the run with [`Sinks::take_telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[cfg(feature = "telemetry")]
    pub fn with_telemetry(mut self, interval: Cycle) -> Self {
        self.telemetry = Some(Rc::new(RefCell::new(TelemetrySink::new(interval))));
        self
    }

    /// Removes and returns the trace sink. Once every probe sharing it is
    /// gone (the simulation was consumed by its run) this moves the sink
    /// out; otherwise it returns a copy.
    #[cfg(feature = "trace")]
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take().map(|rc| {
            Rc::try_unwrap(rc)
                .map(RefCell::into_inner)
                .unwrap_or_else(|rc| rc.borrow().clone())
        })
    }

    /// Removes and returns the telemetry recorder, like
    /// `Sinks::take_trace`.
    #[cfg(feature = "telemetry")]
    pub fn take_telemetry(&mut self) -> Option<TelemetrySink> {
        self.telemetry.take().map(|rc| {
            Rc::try_unwrap(rc)
                .map(RefCell::into_inner)
                .unwrap_or_else(|rc| rc.borrow().clone())
        })
    }

    /// Runs `f` against the trace sink, if one is attached.
    #[cfg(feature = "trace")]
    pub fn with_trace_sink<R>(&self, f: impl FnOnce(&TraceSink) -> R) -> Option<R> {
        self.trace.as_ref().map(|t| f(&t.borrow()))
    }

    /// Stamps the `(cycle, request)` context that later instants are
    /// attributed to (`None`: not attributable to one request). The engine
    /// calls this once per dispatched event.
    #[inline]
    pub fn context(&self, now: Cycle, req: Option<u64>) {
        #[cfg(feature = "trace")]
        if let Some(t) = &self.trace {
            t.borrow_mut()
                .set_context(now, req.unwrap_or(crate::trace::NO_REQ));
        }
        #[cfg(not(feature = "trace"))]
        let _ = (now, req);
    }

    /// Records a trace instant at `site`, stamped with the current context.
    #[inline]
    pub fn instant(&self, site: u64, stage: &'static str, arg: u64) {
        #[cfg(feature = "trace")]
        if let Some(t) = &self.trace {
            t.borrow_mut().instant(stage, site, arg);
        }
        #[cfg(not(feature = "trace"))]
        let _ = (site, stage, arg);
    }

    /// Records a closed trace span `[start, start + dur]` at `site`.
    #[inline]
    pub fn span(&self, site: u64, stage: &'static str, start: Cycle, dur: Cycle, arg: u64) {
        #[cfg(feature = "trace")]
        if let Some(t) = &self.trace {
            t.borrow_mut().complete(stage, start, dur, site, arg);
        }
        #[cfg(not(feature = "trace"))]
        let _ = (site, stage, start, dur, arg);
    }

    /// Registers one telemetry counter and returns its id (0 without a
    /// recorder, where [`Sinks::set`] ignores it).
    pub fn register(
        &self,
        name: &'static str,
        site: u64,
        tile: Option<(u16, u16)>,
        kind: CounterKind,
    ) -> usize {
        #[cfg(feature = "telemetry")]
        if let Some(t) = &self.telemetry {
            return t.borrow_mut().register(name, site, tile, kind);
        }
        let _ = (name, site, tile, kind);
        0
    }

    /// Publishes the current cumulative value of counter `id`.
    #[inline]
    pub fn set(&self, id: usize, value: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(t) = &self.telemetry {
            t.borrow_mut().set(id, value);
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (id, value);
    }

    /// The simulated time at which the next telemetry epoch ends, or
    /// `Cycle::MAX` without a recorder.
    pub fn next_sample_at(&self) -> Cycle {
        #[cfg(feature = "telemetry")]
        if let Some(t) = &self.telemetry {
            return t.borrow().next_sample_at();
        }
        Cycle::MAX
    }

    /// Samples every telemetry epoch that ended at or before `now` and
    /// returns the next epoch boundary (`Cycle::MAX` without a recorder).
    pub fn sample_up_to(&self, now: Cycle) -> Cycle {
        #[cfg(feature = "telemetry")]
        if let Some(t) = &self.telemetry {
            t.borrow_mut().sample_up_to(now);
        }
        let _ = now;
        self.next_sample_at()
    }

    /// Closes the telemetry recording at simulated time `end` (see
    /// `TelemetrySink::finalize`).
    pub fn finalize(&self, end: Cycle) {
        #[cfg(feature = "telemetry")]
        if let Some(t) = &self.telemetry {
            t.borrow_mut().finalize(end);
        }
        let _ = end;
    }
}

/// One component's handle onto its run's [`Sinks`], bound to the
/// component's [`Site`].
///
/// Components store `Option<Probe>` (the optional-handle pattern, xtask
/// lint rule d5) and receive it through their `attach_probe` method during
/// the engine's attach pass.
#[derive(Debug, Clone)]
pub struct Probe {
    sinks: Sinks,
    site: Site,
    /// Wafer tile the site's counters are tagged with.
    #[cfg(feature = "telemetry")]
    tile: Option<(u16, u16)>,
    /// Whether the site's counters are registered with the recorder at all.
    #[cfg(feature = "telemetry")]
    sampled: bool,
    /// Id of the first registered counter; `None` until registered.
    #[cfg(feature = "telemetry")]
    counters: Option<usize>,
}

impl Probe {
    fn new(sinks: Sinks, site: Site, tile: Option<(u16, u16)>) -> Self {
        let _ = tile;
        Self {
            sinks,
            site,
            #[cfg(feature = "telemetry")]
            tile,
            #[cfg(feature = "telemetry")]
            sampled: true,
            #[cfg(feature = "telemetry")]
            counters: None,
        }
    }

    /// Keeps this site's counters out of the telemetry recorder; its
    /// [`Probe::register`] and [`Probe::publish`] calls become no-ops.
    pub fn unsampled(self) -> Self {
        Self {
            #[cfg(feature = "telemetry")]
            sampled: false,
            ..self
        }
    }

    /// Registers the component's counters at this site, in publication
    /// order. Call once, from `attach_probe`.
    pub fn register(&mut self, defs: &[(&'static str, CounterKind)]) {
        #[cfg(feature = "telemetry")]
        if self.sampled && self.sinks.telemetry.is_some() {
            for &(name, kind) in defs {
                let id = self.sinks.register(name, self.site.id, self.tile, kind);
                self.counters.get_or_insert(id);
            }
        }
        let _ = defs;
    }

    /// Announces a `width × height` mesh and registers `defs` once per
    /// tile, row-major, each at site id = tile index and tagged with its
    /// tile (the heatmap's source). Tile `i`'s counters are published at
    /// offset `i * defs.len()`.
    pub fn register_grid(&mut self, width: u16, height: u16, defs: &[(&'static str, CounterKind)]) {
        #[cfg(feature = "telemetry")]
        if let Some(t) = &self.sinks.telemetry {
            t.borrow_mut().set_grid(width, height);
            for y in 0..height {
                for x in 0..width {
                    let tile = y as u64 * width as u64 + x as u64;
                    for &(name, kind) in defs {
                        let id = self.sinks.register(name, tile, Some((x, y)), kind);
                        self.counters.get_or_insert(id);
                    }
                }
            }
        }
        let _ = (width, height, defs);
    }

    /// Publishes cumulative counter values, starting at registration
    /// offset `offset`. `values` runs only when a recorder samples this
    /// site, so computing it costs nothing otherwise.
    #[inline]
    pub fn publish<const N: usize>(&self, offset: usize, values: impl FnOnce() -> [u64; N]) {
        #[cfg(feature = "telemetry")]
        if let (Some(t), Some(base)) = (&self.sinks.telemetry, self.counters) {
            let mut t = t.borrow_mut();
            for (i, v) in values().into_iter().enumerate() {
                t.set(base + offset + i, v);
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (offset, values);
    }

    /// A point event at this site (trace instant, stamped with the engine's
    /// current context).
    #[inline]
    pub fn instant(&self, stage: &'static str, arg: u64) {
        self.sinks.instant(self.site.id, stage, arg);
    }

    /// A closed span at this site.
    #[inline]
    pub fn span(&self, stage: &'static str, start: Cycle, dur: Cycle, arg: u64) {
        self.sinks.span(self.site.id, stage, start, dur, arg);
    }

    /// A closed span at another id of this structure (the mesh's
    /// source→destination pairs).
    #[inline]
    pub fn span_at(&self, id: u64, stage: &'static str, start: Cycle, dur: Cycle, arg: u64) {
        self.sinks.span(id, stage, start, dur, arg);
    }

    /// An entry was added; `occupancy` is the post-insert count and
    /// `capacity` the structure's bound (0 = unbounded).
    #[inline]
    pub fn fill(&self, occupancy: usize, capacity: usize) {
        #[cfg(feature = "audit")]
        if let Some(a) = &self.sinks.audit {
            a.borrow_mut().on_fill(self.site, occupancy, capacity);
        }
        #[cfg(not(feature = "audit"))]
        let _ = (occupancy, capacity);
    }

    /// An entry was removed; `occupancy` is the post-remove count.
    #[inline]
    pub fn evict(&self, occupancy: usize) {
        #[cfg(feature = "audit")]
        if let Some(a) = &self.sinks.audit {
            a.borrow_mut().on_evict(self.site, occupancy);
        }
        #[cfg(not(feature = "audit"))]
        let _ = occupancy;
    }

    /// An event was scheduled at `time` while the queue stood at `now`.
    #[inline]
    pub fn push(&self, now: Cycle, time: Cycle) {
        #[cfg(feature = "audit")]
        if let Some(a) = &self.sinks.audit {
            a.borrow_mut().on_push(now, time);
        }
        #[cfg(not(feature = "audit"))]
        let _ = (now, time);
    }

    /// `count` events of time `time` were delivered; the first advanced
    /// the clock from `prev`, the rest observe `time == prev`.
    #[inline]
    pub fn pop(&self, prev: Cycle, time: Cycle, count: usize) {
        #[cfg(feature = "audit")]
        if let Some(a) = &self.sinks.audit {
            let mut a = a.borrow_mut();
            a.on_pop(prev, time);
            for _ in 1..count {
                a.on_pop(time, time);
            }
        }
        #[cfg(not(feature = "audit"))]
        let _ = (prev, time, count);
    }

    /// `push_after` was asked for a delay that overflows the cycle counter.
    #[inline]
    pub fn delay_overflow(&self, now: Cycle, delay: Cycle) {
        #[cfg(feature = "audit")]
        if let Some(a) = &self.sinks.audit {
            a.borrow_mut().on_delay_overflow(now, delay);
        }
        #[cfg(not(feature = "audit"))]
        let _ = (now, delay);
    }

    /// A packet of `bytes` crossed directional link `link`, departing at
    /// `start` and arriving `dur` cycles later: one injection and one
    /// delivery for the auditor, one `noc.hop` span for the trace.
    #[inline]
    pub fn hop(&self, link: u64, start: Cycle, dur: Cycle, bytes: u64) {
        #[cfg(feature = "audit")]
        if let Some(a) = &self.sinks.audit {
            let site = Site::new(SiteKind::Link, link);
            let mut a = a.borrow_mut();
            a.on_inject(site, bytes);
            a.on_deliver(site, bytes);
        }
        self.span_at(link, "noc.hop", start, dur, bytes);
    }
}

/// The run's one site table: hands out every [`Probe`] and guarantees that
/// no two structures share a site id.
#[derive(Debug)]
pub struct SiteTable {
    sinks: Sinks,
    ids: BTreeSet<u64>,
}

impl SiteTable {
    /// An empty table whose probes fan out to `sinks`.
    pub fn new(sinks: Sinks) -> Self {
        Self {
            sinks,
            ids: BTreeSet::new(),
        }
    }

    /// Claims structure site `id` and returns its probe, with counters
    /// tagged with `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already claimed: two structures sharing an id
    /// would merge their occupancy mirrors, trace tracks and counters.
    pub fn claim(&mut self, kind: SiteKind, id: u64, tile: Option<(u16, u16)>) -> Probe {
        assert!(
            self.ids.insert(id),
            "site id {id} claimed twice (second claimant: {kind:?})"
        );
        Probe::new(self.sinks.clone(), Site::new(kind, id), tile)
    }

    /// A probe for a structure outside the claimed id space: the event
    /// queue, and the mesh, whose links are named by their endpoints.
    pub fn unclaimed(&self, kind: SiteKind) -> Probe {
        Probe::new(self.sinks.clone(), Site::new(kind, 0), None)
    }

    /// Number of claimed ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been claimed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The consumers this table's probes fan out to.
    pub fn sinks(&self) -> &Sinks {
        &self.sinks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "site id 8 claimed twice")]
    fn duplicate_claims_panic() {
        let mut t = SiteTable::new(Sinks::new());
        t.claim(SiteKind::Tlb, 8, None);
        t.claim(SiteKind::Walker, 8, None);
    }

    #[test]
    fn distinct_claims_are_counted() {
        let mut t = SiteTable::new(Sinks::new());
        t.claim(SiteKind::Walker, 10, None);
        t.claim(SiteKind::Tlb, 2, Some((1, 1)));
        assert_eq!(t.len(), 2);
        // Unclaimed probes do not enter the id space.
        let _ = t.unclaimed(SiteKind::Queue);
        assert_eq!(t.len(), 2);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn probes_share_one_auditor() {
        use crate::audit::ConservationAuditor;
        let auditor = Rc::new(RefCell::new(ConservationAuditor::new()));
        let mut t = SiteTable::new(Sinks::new().with_auditor(&auditor));
        let a = t.claim(SiteKind::Tlb, 1, None);
        let b = t.claim(SiteKind::Tlb, 2, None);
        a.push(10, 5);
        b.fill(9, 8);
        assert_eq!(auditor.borrow().total_violations(), 2);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn instants_carry_the_site_and_context() {
        let mut sinks = Sinks::new().with_trace();
        let mut t = SiteTable::new(sinks.clone());
        let p = t.claim(SiteKind::Cuckoo, 11, None);
        sinks.context(40, Some(3));
        p.instant("cuckoo.hit", 7);
        p.hop(99, 40, 12, 64);
        drop((p, t));
        let trace = sinks.take_trace().expect("trace attached");
        let evs = trace.events();
        assert_eq!((evs[0].site, evs[0].t, evs[0].req), (11, 40, 3));
        assert_eq!((evs[1].stage, evs[1].site, evs[1].dur), ("noc.hop", 99, 12));
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn publish_fills_registered_counters_in_order() {
        let mut sinks = Sinks::new().with_telemetry(10);
        let mut t = SiteTable::new(sinks.clone());
        let mut p = t.claim(SiteKind::Tlb, 4, Some((1, 0)));
        p.register(&[("hits", CounterKind::Counter), ("occ", CounterKind::Gauge)]);
        let mut quiet = t.claim(SiteKind::Tlb, 5, None).unsampled();
        quiet.register(&[("hits", CounterKind::Counter)]);
        p.publish(0, || [3, 2]);
        quiet.publish(0, || [99]);
        sinks.finalize(10);
        drop((p, quiet, t));
        let tel = sinks.take_telemetry().expect("telemetry attached");
        assert_eq!(tel.len(), 2, "unsampled sites register nothing");
        assert!(tel.to_csv().contains("hits,4,1,0,0,3"));
        assert!(tel.to_csv().contains("occ,4,1,0,0,2"));
    }
}

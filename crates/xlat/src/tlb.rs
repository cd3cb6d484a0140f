//! Set-associative translation lookaside buffers.

use wsg_sim::Cycle;

use crate::addr::{Pfn, Vpn};

/// Geometry and timing of a TLB (Table I rows "L1 … TLB", "L2 TLB",
/// "GMMU Cache").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub latency: Cycle,
    /// MSHR entries limiting outstanding misses (0 = unlimited, used for
    /// structures without MSHRs such as HDPAT's peer caches).
    pub mshrs: usize,
}

impl TlbConfig {
    /// Table I L1 TLB: 1 set, 32 ways, 4-cycle latency, 4 MSHRs.
    pub fn paper_l1() -> Self {
        Self {
            sets: 1,
            ways: 32,
            latency: 4,
            mshrs: 4,
        }
    }

    /// Table I L2 TLB: 64 sets, 32 ways, 32-cycle latency, 32 MSHRs.
    pub fn paper_l2() -> Self {
        Self {
            sets: 64,
            ways: 32,
            latency: 32,
            mshrs: 32,
        }
    }

    /// Table I GMMU cache (the last-level TLB): 64 sets, 16 ways.
    pub fn paper_gmmu_cache() -> Self {
        Self {
            sets: 64,
            ways: 16,
            latency: 8,
            mshrs: 0,
        }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// A set-associative VPN→PFN cache with true-LRU replacement.
///
/// The entry store is struct-of-arrays (DESIGN.md §16): the VPN tags,
/// PFNs and LRU stamps live in separate planes sized from the config at
/// construction, and validity / prefetched-ness are one bitmask word per
/// set. The hot set-probe loop therefore walks a handful of contiguous
/// tag words (eight ways per cache line) guided by the set's valid mask,
/// instead of striding over five-field entry structs.
///
/// # Example
///
/// ```
/// use wsg_xlat::{Tlb, TlbConfig, Vpn, Pfn};
///
/// let mut tlb = Tlb::new(TlbConfig { sets: 2, ways: 2, latency: 4, mshrs: 4 });
/// assert!(tlb.lookup(Vpn(5)).is_none());
/// tlb.fill(Vpn(5), Pfn(99), false);
/// assert_eq!(tlb.lookup(Vpn(5)), Some(Pfn(99)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// VPN tag plane, indexed `set * ways + way`.
    vpns: Vec<Vpn>,
    /// PFN plane, same indexing as `vpns`.
    pfns: Vec<Pfn>,
    /// LRU stamp plane, same indexing (higher = more recently used;
    /// speculative LRU-position fills use stamp 0, below every live demand
    /// stamp).
    stamps: Vec<u64>,
    /// One validity bitmask per set, bit `way`.
    valid: Vec<u64>,
    /// One prefetched-tag bitmask per set, bit `way` (HDPAT proactive
    /// delivery attribution — Fig 16's "proactive" category and the
    /// prefetch-accuracy statistic).
    prefetched: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    prefetched_hits: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways` is zero, or `ways`
    /// exceeds 64 (the per-set valid/prefetched planes are one `u64` mask
    /// each; Table I tops out at 32 ways).
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "associativity must be positive");
        assert!(cfg.ways <= 64, "at most 64 ways (one mask word per set)");
        Self {
            cfg,
            vpns: vec![Vpn(0); cfg.entries()],
            pfns: vec![Pfn(0); cfg.entries()],
            stamps: vec![0; cfg.entries()],
            valid: vec![0; cfg.sets],
            prefetched: vec![0; cfg.sets],
            tick: 0,
            hits: 0,
            misses: 0,
            prefetched_hits: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports lookups (trace), fills and
    /// evictions (audit), and publishes hit/miss/occupancy counters
    /// (telemetry).
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::{Counter, Gauge};
        probe.register(&[
            ("tlb.hits", Counter),
            ("tlb.misses", Counter),
            ("tlb.occupancy", Gauge),
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
            p.publish(0, || [self.hits, self.misses, self.occupancy() as u64]);
        }
    }

    /// The configuration.
    pub fn config(&self) -> TlbConfig {
        self.cfg
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.cfg.sets - 1)
    }

    /// Index of the first (lowest-numbered) valid way in `set` whose tag
    /// matches `vpn` — the way-order scan over the contiguous tag plane,
    /// visiting only valid ways via the set's mask word.
    #[inline]
    fn find_way(&self, set: usize, vpn: Vpn) -> Option<usize> {
        let start = set * self.cfg.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.vpns[start + way] == vpn {
                return Some(way);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Looks up `vpn`, updating LRU and statistics. Returns the PFN on hit.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Pfn> {
        self.lookup_meta(vpn).map(|(pfn, _)| pfn)
    }

    /// Like [`Tlb::lookup`] but also reports whether the hit entry was
    /// installed by proactive delivery — the attribution needed for Fig 16's
    /// "proactive" category and the prefetch-accuracy statistic. The first
    /// hit consumes the speculative tag: the entry is demoted to a demand
    /// entry so a prefetch is counted as *used* at most once.
    pub fn lookup_meta(&mut self, vpn: Vpn) -> Option<(Pfn, bool)> {
        self.tick += 1;
        let set = self.set_of(vpn);
        match self.find_way(set, vpn) {
            Some(way) => {
                let idx = set * self.cfg.ways + way;
                self.stamps[idx] = self.tick;
                let was_prefetched = self.prefetched[set] & (1 << way) != 0;
                self.prefetched[set] &= !(1 << way);
                self.hits += 1;
                if was_prefetched {
                    self.prefetched_hits += 1;
                }
                #[cfg(feature = "probe")]
                self.report(|p| p.instant("tlb.hit", vpn.0));
                Some((self.pfns[idx], was_prefetched))
            }
            None => {
                self.misses += 1;
                #[cfg(feature = "probe")]
                self.report(|p| p.instant("tlb.miss", vpn.0));
                None
            }
        }
    }

    /// Checks presence without perturbing LRU or statistics.
    pub fn probe(&self, vpn: Vpn) -> Option<Pfn> {
        let set = self.set_of(vpn);
        self.find_way(set, vpn)
            .map(|way| self.pfns[set * self.cfg.ways + way])
    }

    /// Inserts a translation at the MRU position, evicting the set's LRU
    /// entry if needed. Returns the evicted mapping, if any. `prefetched`
    /// tags entries installed by proactive delivery (attribution only).
    pub fn fill(&mut self, vpn: Vpn, pfn: Pfn, prefetched: bool) -> Option<(Vpn, Pfn)> {
        self.fill_at(vpn, pfn, prefetched, false)
    }

    /// Inserts a speculative (prefetched) translation at the *LRU* position
    /// — prefetch-aware insertion, so speculative entries are evicted before
    /// demand entries. Used by HDPAT's peer caches; the conventional IOMMU
    /// TLB of Fig 19 lacks this and thrashes under proactive delivery.
    pub fn fill_speculative(&mut self, vpn: Vpn, pfn: Pfn) -> Option<(Vpn, Pfn)> {
        self.fill_at(vpn, pfn, true, true)
    }

    /// Writes the planes of `(set, way)` for a (re)installed mapping.
    #[inline]
    fn write_entry(&mut self, set: usize, way: usize, vpn: Vpn, pfn: Pfn, stamp: u64, pf: bool) {
        let idx = set * self.cfg.ways + way;
        self.vpns[idx] = vpn;
        self.pfns[idx] = pfn;
        self.stamps[idx] = stamp;
        self.valid[set] |= 1 << way;
        if pf {
            self.prefetched[set] |= 1 << way;
        } else {
            self.prefetched[set] &= !(1 << way);
        }
    }

    fn fill_at(
        &mut self,
        vpn: Vpn,
        pfn: Pfn,
        prefetched: bool,
        lru_insert: bool,
    ) -> Option<(Vpn, Pfn)> {
        self.tick += 1;
        // LRU-position insertion uses a stamp below every live entry
        // (demand stamps start at 1).
        let tick = if lru_insert { 0 } else { self.tick };
        let set = self.set_of(vpn);
        // Update in place if present. A speculative refresh re-arms the
        // prefetched tag (a new delivery instance) but must not demote a
        // demand-hot entry to the LRU position; a demand refresh clears it.
        if let Some(way) = self.find_way(set, vpn) {
            let idx = set * self.cfg.ways + way;
            self.pfns[idx] = pfn;
            if !lru_insert {
                self.stamps[idx] = tick;
            }
            if prefetched {
                self.prefetched[set] |= 1 << way;
            } else {
                self.prefetched[set] &= !(1 << way);
            }
            return None;
        }
        // First invalid way, in way order.
        let ways_mask = if self.cfg.ways == 64 {
            !0u64
        } else {
            (1u64 << self.cfg.ways) - 1
        };
        let free = !self.valid[set] & ways_mask;
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            self.write_entry(set, way, vpn, pfn, tick, prefetched);
            #[cfg(feature = "probe")]
            self.report(|p| p.fill(self.occupancy(), self.cfg.entries()));
            return None;
        }
        // Every way is valid: replace the set's LRU entry — the first way
        // (in way order) carrying the minimal stamp, scanned over the
        // contiguous stamp plane. `ways > 0` is a constructor invariant.
        let start = set * self.cfg.ways;
        let mut victim = 0;
        for way in 1..self.cfg.ways {
            if self.stamps[start + way] < self.stamps[start + victim] {
                victim = way;
            }
        }
        let evicted = (self.vpns[start + victim], self.pfns[start + victim]);
        self.write_entry(set, victim, vpn, pfn, tick, prefetched);
        #[cfg(feature = "probe")]
        self.report(|p| {
            let occupancy = self.occupancy();
            p.evict(occupancy - 1);
            p.fill(occupancy, self.cfg.entries());
        });
        Some(evicted)
    }

    /// Invalidates `vpn`; returns whether it was present.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set_of(vpn);
        let hit = match self.find_way(set, vpn) {
            Some(way) => {
                self.valid[set] &= !(1 << way);
                true
            }
            None => false,
        };
        #[cfg(feature = "probe")]
        if hit {
            self.report(|p| p.evict(self.occupancy()));
        }
        hit
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits on entries installed by proactive delivery.
    pub fn prefetched_hits(&self) -> u64 {
        self.prefetched_hits
    }

    /// Hit rate in `[0, 1]`; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            sets: 2,
            ways: 2,
            latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_rejected() {
        Tlb::new(TlbConfig {
            sets: 3,
            ways: 1,
            latency: 1,
            mshrs: 0,
        });
    }

    #[test]
    fn paper_configs_have_expected_entries() {
        assert_eq!(TlbConfig::paper_l1().entries(), 32);
        assert_eq!(TlbConfig::paper_l2().entries(), 2048);
        assert_eq!(TlbConfig::paper_gmmu_cache().entries(), 1024);
    }

    #[test]
    fn fill_then_hit() {
        let mut t = tiny();
        assert!(t.lookup(Vpn(8)).is_none());
        t.fill(Vpn(8), Pfn(3), false);
        assert_eq!(t.lookup(Vpn(8)), Some(Pfn(3)));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = tiny();
        // Set 0 holds even VPNs.
        t.fill(Vpn(0), Pfn(0), false);
        t.fill(Vpn(2), Pfn(2), false);
        t.lookup(Vpn(0)); // 0 becomes MRU
        let evicted = t.fill(Vpn(4), Pfn(4), false).unwrap();
        assert_eq!(evicted, (Vpn(2), Pfn(2)));
        assert!(t.probe(Vpn(0)).is_some());
        assert!(t.probe(Vpn(2)).is_none());
    }

    #[test]
    fn prefetched_hits_are_attributed() {
        let mut t = tiny();
        t.fill(Vpn(1), Pfn(1), true);
        t.fill(Vpn(3), Pfn(3), false);
        t.lookup(Vpn(1));
        t.lookup(Vpn(3));
        assert_eq!(t.prefetched_hits(), 1);
        assert_eq!(t.hits(), 2);
    }

    #[test]
    fn refill_updates_pfn_in_place() {
        let mut t = tiny();
        t.fill(Vpn(6), Pfn(1), false);
        assert!(t.fill(Vpn(6), Pfn(9), false).is_none());
        assert_eq!(t.probe(Vpn(6)), Some(Pfn(9)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn invalidate_and_occupancy() {
        let mut t = tiny();
        t.fill(Vpn(0), Pfn(0), false);
        t.fill(Vpn(1), Pfn(1), false);
        assert_eq!(t.occupancy(), 2);
        assert!(t.invalidate(Vpn(0)));
        assert!(!t.invalidate(Vpn(0)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn probe_does_not_count() {
        let mut t = tiny();
        t.fill(Vpn(0), Pfn(0), false);
        t.probe(Vpn(0));
        t.probe(Vpn(7));
        assert_eq!(t.hits() + t.misses(), 0);
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn fully_associative_single_set() {
        let mut t = Tlb::new(TlbConfig {
            sets: 1,
            ways: 32,
            latency: 4,
            mshrs: 4,
        });
        for i in 0..32 {
            t.fill(Vpn(i), Pfn(i), false);
        }
        assert_eq!(t.occupancy(), 32);
        // 33rd fill evicts the LRU (VPN 0).
        let evicted = t.fill(Vpn(100), Pfn(100), false).unwrap();
        assert_eq!(evicted.0, Vpn(0));
    }
}

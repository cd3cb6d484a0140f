//! The IOMMU-side redirection table (§IV-F).

use wsg_sim::HashIndex;

use crate::addr::Vpn;

/// Sentinel arena index for "no neighbour" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// The lightweight redirection table HDPAT places at the IOMMU.
///
/// Maps recently walked or prefetched VPNs to the auxiliary GPM now holding
/// the PTE, so later requests for the same VPN are redirected instead of
/// re-walked. Compared with a TLB of the same area it is (per the paper):
///
/// * ~2× as dense — it stores only `(process id, VPN) → GPM id`, no physical
///   address or permission metadata, so 1024 entries fit where a TLB holds
///   512 (Fig 19);
/// * free of MSHRs — a missing entry never blocks the request, it simply
///   falls through to the PW-queue, preserving concurrency.
///
/// Eviction is LRU (Table I), tracked by a doubly-linked recency list
/// threaded through a slab arena and indexed by a seeded [`HashIndex`]
/// (DESIGN.md §11): touch, insert and evict are all O(1) with no stale
/// bookkeeping, replacing the stamp-deque compaction scheme this table
/// previously used. Capacity is fixed at construction.
///
/// # Example
///
/// ```
/// use wsg_xlat::{RedirectionTable, Vpn};
///
/// let mut rt = RedirectionTable::new(2);
/// rt.insert(Vpn(1), 7);
/// rt.insert(Vpn(2), 8);
/// assert_eq!(rt.lookup(Vpn(1)), Some(7)); // refreshes VPN 1
/// rt.insert(Vpn(3), 9);                   // evicts VPN 2 (LRU)
/// assert_eq!(rt.lookup(Vpn(2)), None);
/// assert_eq!(rt.lookup(Vpn(1)), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct RedirectionTable {
    capacity: usize,
    /// VPN → arena slot of its live node.
    index: HashIndex<usize>,
    /// Slab of LRU nodes; slots recycle through `free`, so the arena never
    /// outgrows `capacity` live + freed nodes.
    arena: Vec<Node>,
    /// Recycled arena slots.
    free: Vec<usize>,
    /// Most-recently-used node, or `NIL` when empty.
    head: usize,
    /// Least-recently-used node, or `NIL` when empty.
    tail: usize,
    hits: u64,
    misses: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    vpn: Vpn,
    gpm: u32,
    prev: usize,
    next: usize,
}

impl RedirectionTable {
    /// Creates a table with the given entry capacity (1024 in Table I).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            index: HashIndex::with_capacity(capacity),
            arena: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports lookups and insertions (trace),
    /// entry creation and removal (audit), and publishes hit/miss/occupancy
    /// counters (telemetry).
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::{Counter, Gauge};
        probe.register(&[
            ("redir.hits", Counter),
            ("redir.misses", Counter),
            ("redir.occupancy", Gauge),
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
            p.publish(0, || [self.hits, self.misses, self.index.len() as u64]);
        }
    }

    /// Detaches node `i` from the recency list (it keeps its arena slot).
    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.arena[i];
        match prev {
            NIL => self.head = next,
            p => self.arena[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.arena[n].prev = prev,
        }
    }

    /// Attaches node `i` at the MRU end of the recency list.
    fn push_front(&mut self, i: usize) {
        self.arena[i].prev = NIL;
        self.arena[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.arena[h].prev = i,
        }
        self.head = i;
    }

    /// Refreshes (or creates) the entry for `vpn` at the MRU position.
    fn touch(&mut self, vpn: Vpn, gpm: u32) {
        if let Some(&i) = self.index.get(vpn.0) {
            self.arena[i].gpm = gpm;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let node = Node {
            vpn,
            gpm,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.arena[slot] = node;
                slot
            }
            None => {
                self.arena.push(node);
                self.arena.len() - 1
            }
        };
        self.index.insert(vpn.0, i);
        self.push_front(i);
        #[cfg(feature = "probe")]
        self.report(|p| p.fill(self.index.len(), self.capacity));
    }

    /// Removes the least-recently-used entry.
    fn evict_lru(&mut self) {
        let i = self.tail;
        if i == NIL {
            return;
        }
        self.unlink(i);
        self.index.remove(self.arena[i].vpn.0);
        self.free.push(i);
        #[cfg(feature = "probe")]
        self.report(|p| p.evict(self.index.len()));
    }

    /// Records that `gpm` now holds the translation for `vpn`, evicting the
    /// LRU entry if the table is full.
    pub fn insert(&mut self, vpn: Vpn, gpm: u32) {
        if !self.index.contains_key(vpn.0) && self.index.len() >= self.capacity {
            self.evict_lru();
        }
        self.touch(vpn, gpm);
        #[cfg(feature = "probe")]
        self.report(|p| p.instant("redir.insert", vpn.0));
    }

    /// Looks up `vpn`, refreshing its LRU position on hit. Returns the
    /// holder GPM.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<u32> {
        match self.index.get(vpn.0).map(|&i| self.arena[i].gpm) {
            Some(gpm) => {
                self.hits += 1;
                self.touch(vpn, gpm);
                #[cfg(feature = "probe")]
                self.report(|p| p.instant("redir.hit", vpn.0));
                Some(gpm)
            }
            None => {
                self.misses += 1;
                #[cfg(feature = "probe")]
                self.report(|p| p.instant("redir.miss", vpn.0));
                None
            }
        }
    }

    /// Checks presence without updating LRU or statistics.
    pub fn probe(&self, vpn: Vpn) -> Option<u32> {
        self.index.get(vpn.0).map(|&i| self.arena[i].gpm)
    }

    /// Removes `vpn` (e.g. when the holder evicted the PTE); returns whether
    /// it was present.
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        match self.index.remove(vpn.0) {
            Some(i) => {
                self.unlink(i);
                self.free.push(i);
                #[cfg(feature = "probe")]
                self.report(|p| p.evict(self.index.len()));
                true
            }
            None => false,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        RedirectionTable::new(0);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut rt = RedirectionTable::new(4);
        rt.insert(Vpn(1), 5);
        assert_eq!(rt.lookup(Vpn(1)), Some(5));
        assert!(rt.remove(Vpn(1)));
        assert!(!rt.remove(Vpn(1)));
        assert_eq!(rt.lookup(Vpn(1)), None);
        assert_eq!(rt.hits(), 1);
        assert_eq!(rt.misses(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rt = RedirectionTable::new(3);
        for i in 0..10 {
            rt.insert(Vpn(i), i as u32);
        }
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.probe(Vpn(9)), Some(9));
        assert_eq!(rt.probe(Vpn(0)), None);
    }

    #[test]
    fn lru_order_respects_lookups() {
        let mut rt = RedirectionTable::new(2);
        rt.insert(Vpn(1), 1);
        rt.insert(Vpn(2), 2);
        rt.lookup(Vpn(1)); // 1 most recent
        rt.insert(Vpn(3), 3); // evicts 2
        assert_eq!(rt.probe(Vpn(1)), Some(1));
        assert_eq!(rt.probe(Vpn(2)), None);
        assert_eq!(rt.probe(Vpn(3)), Some(3));
    }

    #[test]
    fn reinsert_updates_holder() {
        let mut rt = RedirectionTable::new(2);
        rt.insert(Vpn(1), 1);
        rt.insert(Vpn(1), 9);
        assert_eq!(rt.len(), 1);
        assert_eq!(rt.probe(Vpn(1)), Some(9));
    }

    #[test]
    fn hot_entry_refreshes_do_not_disturb_eviction() {
        let mut rt = RedirectionTable::new(2);
        rt.insert(Vpn(1), 1);
        // Refresh VPN 1 many times; the recency list must stay consistent.
        for _ in 0..100 {
            rt.lookup(Vpn(1));
        }
        rt.insert(Vpn(2), 2);
        rt.insert(Vpn(3), 3); // must evict the true LRU (VPN 1, then 2 was newer)
        assert_eq!(rt.len(), 2);
        assert_eq!(rt.probe(Vpn(3)), Some(3));
    }

    #[test]
    fn storage_stays_bounded_under_repeated_hits() {
        let mut rt = RedirectionTable::new(4);
        for i in 0..4 {
            rt.insert(Vpn(i), i as u32);
        }
        // A hot VPN: every hit refreshes the LRU position in place; the
        // arena must not grow with hits (the old stamp-deque scheme grew
        // linearly until compaction).
        for _ in 0..10_000 {
            rt.lookup(Vpn(0));
        }
        assert!(
            rt.arena.len() <= rt.capacity(),
            "arena grew to {} nodes for a {}-entry table",
            rt.arena.len(),
            rt.capacity()
        );
        // LRU semantics survive the refreshes: VPN 0 is the most recent.
        rt.insert(Vpn(9), 9);
        assert_eq!(rt.probe(Vpn(0)), Some(0));
        assert_eq!(rt.probe(Vpn(1)), None);
    }

    #[test]
    fn probe_does_not_refresh() {
        let mut rt = RedirectionTable::new(2);
        rt.insert(Vpn(1), 1);
        rt.insert(Vpn(2), 2);
        rt.probe(Vpn(1)); // does NOT refresh
        rt.insert(Vpn(3), 3); // evicts VPN 1
        assert_eq!(rt.probe(Vpn(1)), None);
        assert_eq!(rt.probe(Vpn(2)), Some(2));
    }

    #[test]
    fn remove_then_reinsert_recycles_arena_slots() {
        let mut rt = RedirectionTable::new(3);
        for round in 0..50u64 {
            for i in 0..3 {
                rt.insert(Vpn(round * 3 + i), i as u32);
            }
            for i in 0..3 {
                assert!(rt.remove(Vpn(round * 3 + i)));
            }
        }
        assert!(rt.is_empty());
        assert!(
            rt.arena.len() <= rt.capacity(),
            "freed slots must recycle, arena has {}",
            rt.arena.len()
        );
    }
}

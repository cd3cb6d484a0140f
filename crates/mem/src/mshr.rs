//! Miss-status holding registers.

/// The outcome of registering a miss with an [`Mshr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss on this block: the caller must issue the fill request.
    Primary,
    /// A fill for this block is already outstanding; the waiter was merged.
    Secondary,
    /// All MSHR entries are occupied by other blocks: the requester must
    /// stall and retry. This back-pressure is what penalizes the
    /// TLB-with-MSHRs alternative to the redirection table in Fig 19.
    Full,
}

/// Miss-status holding registers: a bounded table of outstanding misses,
/// each holding the waiters to wake when the fill returns.
///
/// `W` is the caller's waiter token (request id, CU id, …).
///
/// The slot store is struct-of-arrays (DESIGN.md §16): block tags, live
/// flags and waiter lists are parallel planes sized from the capacity at
/// construction, and lookup is a linear scan over the contiguous tag
/// plane — MSHR files are Table-I small (4–32 entries), so the scan beats
/// any indexed structure and has no ordering surface at all (lint rules
/// d1/d6: slot order is allocation order, deterministic).
///
/// # Example
///
/// ```
/// use wsg_mem::{Mshr, MshrOutcome};
///
/// let mut m: Mshr<u32> = Mshr::new(2);
/// assert_eq!(m.register(0x1000, 1), MshrOutcome::Primary);
/// assert_eq!(m.register(0x1000, 2), MshrOutcome::Secondary);
/// assert_eq!(m.complete(0x1000), vec![1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    capacity: usize,
    targets_per_entry: usize,
    /// Block tag per slot (stale when the slot is not live).
    tags: Vec<u64>,
    /// Live flag per slot.
    live: Vec<bool>,
    /// Waiters per slot, in registration order (primary first).
    waiters: Vec<Vec<W>>,
    /// Live slot count.
    len: usize,
    stalls: u64,
    merges: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

impl<W> Mshr<W> {
    /// Creates MSHRs with `capacity` entries and unbounded target slots per
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_targets(capacity, usize::MAX)
    }

    /// Creates MSHRs with `capacity` entries, each holding at most
    /// `targets_per_entry` waiters (primary included). Further same-block
    /// misses are rejected as [`MshrOutcome::Full`], modelling the bounded
    /// target slots of real MSHR files.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `targets_per_entry` is zero.
    pub fn with_targets(capacity: usize, targets_per_entry: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        assert!(targets_per_entry > 0, "need at least one target slot");
        Self {
            capacity,
            targets_per_entry,
            tags: vec![0; capacity],
            live: vec![false; capacity],
            waiters: std::iter::repeat_with(Vec::new).take(capacity).collect(),
            len: 0,
            stalls: 0,
            merges: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports registration outcomes (trace) and
    /// publishes merge/stall/occupancy counters (telemetry).
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::{Counter, Gauge};
        probe.register(&[
            ("mshr.merges", Counter),
            ("mshr.stalls", Counter),
            ("mshr.occupancy", Gauge),
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
            p.publish(0, || [self.merges, self.stalls, self.len as u64]);
        }
    }

    /// Slot currently holding `block`, if any — a scan over the tag plane.
    #[inline]
    fn find_slot(&self, block: u64) -> Option<usize> {
        (0..self.capacity).find(|&i| self.live[i] && self.tags[i] == block)
    }

    /// Registers a miss on `block` for `waiter`.
    pub fn register(&mut self, block: u64, waiter: W) -> MshrOutcome {
        if let Some(slot) = self.find_slot(block) {
            // The waiter list already includes the primary, so the entry is
            // at its target bound exactly when `len() == targets_per_entry`.
            if self.waiters[slot].len() >= self.targets_per_entry {
                self.stalls += 1;
                #[cfg(feature = "probe")]
                self.report(|p| p.instant("mshr.full", block));
                return MshrOutcome::Full;
            }
            self.waiters[slot].push(waiter);
            self.merges += 1;
            #[cfg(feature = "probe")]
            self.report(|p| p.instant("mshr.secondary", block));
            return MshrOutcome::Secondary;
        }
        if self.len >= self.capacity {
            self.stalls += 1;
            #[cfg(feature = "probe")]
            self.report(|p| p.instant("mshr.full", block));
            return MshrOutcome::Full;
        }
        let slot = match self.live.iter().position(|l| !l) {
            Some(s) => s,
            None => unreachable!("len < capacity with no free slot"),
        };
        self.tags[slot] = block;
        self.live[slot] = true;
        self.waiters[slot].push(waiter);
        self.len += 1;
        #[cfg(feature = "probe")]
        self.report(|p| p.instant("mshr.primary", block));
        MshrOutcome::Primary
    }

    /// Completes the fill for `block`, releasing its entry and returning all
    /// waiters in registration order. Returns an empty vector if the block
    /// had no entry.
    pub fn complete(&mut self, block: u64) -> Vec<W> {
        match self.find_slot(block) {
            Some(slot) => {
                self.live[slot] = false;
                self.len -= 1;
                #[cfg(feature = "probe")]
                self.report(|_| {});
                std::mem::take(&mut self.waiters[slot])
            }
            None => Vec::new(),
        }
    }

    /// Whether a fill for `block` is outstanding.
    pub fn contains(&self, block: u64) -> bool {
        self.find_slot(block).is_some()
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// Whether all entries are occupied.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of registrations rejected because the table was full.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Number of secondary misses merged into existing entries.
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Mshr::<u32>::new(0);
    }

    #[test]
    fn primary_secondary_flow() {
        let mut m: Mshr<&str> = Mshr::new(4);
        assert_eq!(m.register(1, "a"), MshrOutcome::Primary);
        assert_eq!(m.register(1, "b"), MshrOutcome::Secondary);
        assert_eq!(m.register(2, "c"), MshrOutcome::Primary);
        assert_eq!(m.occupancy(), 2);
        assert_eq!(m.complete(1), vec!["a", "b"]);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_table_stalls_new_blocks_but_merges_existing() {
        let mut m: Mshr<u8> = Mshr::new(2);
        m.register(1, 0);
        m.register(2, 0);
        assert!(m.is_full());
        assert_eq!(m.register(3, 0), MshrOutcome::Full);
        // Secondary misses on in-flight blocks still merge when full.
        assert_eq!(m.register(1, 1), MshrOutcome::Secondary);
        assert_eq!(m.stalls(), 1);
    }

    #[test]
    fn target_bound_counts_the_primary() {
        // `targets_per_entry = 2` means primary + exactly one secondary.
        let mut m: Mshr<u8> = Mshr::with_targets(4, 2);
        assert_eq!(m.register(1, 0), MshrOutcome::Primary);
        assert_eq!(m.register(1, 1), MshrOutcome::Secondary);
        assert_eq!(m.register(1, 2), MshrOutcome::Full);
        assert_eq!(m.stalls(), 1);
        assert_eq!(m.complete(1), vec![0, 1]);
    }

    #[test]
    fn complete_unknown_block_is_empty() {
        let mut m: Mshr<u8> = Mshr::new(1);
        assert!(m.complete(42).is_empty());
    }

    #[test]
    fn complete_frees_capacity() {
        let mut m: Mshr<u8> = Mshr::new(1);
        m.register(1, 0);
        assert_eq!(m.register(2, 0), MshrOutcome::Full);
        m.complete(1);
        assert_eq!(m.register(2, 0), MshrOutcome::Primary);
    }

    #[test]
    fn contains_tracks_outstanding() {
        let mut m: Mshr<u8> = Mshr::new(2);
        assert!(!m.contains(5));
        m.register(5, 0);
        assert!(m.contains(5));
        m.complete(5);
        assert!(!m.contains(5));
    }
}

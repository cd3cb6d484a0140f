//! Cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher, CoNEXT 2014).
//!
//! A cuckoo filter stores short fingerprints of keys in a 4-way bucketed
//! table. Each key has two candidate buckets — the second derived from the
//! first by XOR with the hash of the fingerprint — so membership tests are
//! two bucket probes, and deletions are supported (unlike Bloom filters).
//!
//! In the paper (§II-B), a cuckoo filter sits between the L2 TLB and the
//! last-level TLB of every GPM and answers "might this VPN be in the local
//! page table?". A negative answer is exact and lets the request bypass the
//! local walk entirely; a false positive costs a wasted local walk before
//! the request is forwarded to the IOMMU.

/// Fingerprint width: 16 bits keeps the false-positive rate around
/// `2·4/2^16 ≈ 0.012 %` at high load, matching the "low false-positive
/// rates even at high capacity" the paper relies on.
type Fingerprint = u16;

const BUCKET_SIZE: usize = 4;
const MAX_KICKS: usize = 500;

fn hash64(mut x: u64) -> u64 {
    // splitmix64 finalizer: deterministic, high-quality mixing.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A cuckoo filter over `u64` keys.
///
/// # Example
///
/// ```
/// let mut f = wsg_xlat::CuckooFilter::with_capacity(1024);
/// assert!(f.insert(42));
/// assert!(f.contains(42));
/// assert!(f.remove(42));
/// assert!(!f.contains(42));
/// ```
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    buckets: Vec<[Fingerprint; BUCKET_SIZE]>,
    bucket_mask: u64,
    len: usize,
    kicks: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

impl CuckooFilter {
    /// Creates a filter able to hold at least `capacity` keys (at ~95 %
    /// bucket load).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let buckets_needed = capacity.div_ceil(BUCKET_SIZE);
        let num_buckets = buckets_needed.next_power_of_two().max(2);
        Self {
            buckets: vec![[0; BUCKET_SIZE]; num_buckets],
            bucket_mask: num_buckets as u64 - 1,
            len: 0,
            kicks: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports membership-test outcomes (trace)
    /// and publishes occupancy and relocation counters (telemetry),
    /// starting from the filter's current contents.
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::{Counter, Gauge};
        probe.register(&[("cuckoo.occupancy", Gauge), ("cuckoo.kicks", Counter)]);
        self.probe = Some(probe);
        self.report(|_| {});
    }

    /// Reports one state change to the attached probe and republishes the
    /// counters it may have moved.
    #[cfg(feature = "probe")]
    fn report(&self, event: impl FnOnce(&wsg_sim::probe::Probe)) {
        if let Some(p) = &self.probe {
            event(p);
            p.publish(0, || [self.len as u64, self.kicks]);
        }
    }

    fn fingerprint(key: u64) -> Fingerprint {
        // Never 0: 0 marks an empty slot.
        let f = (hash64(key) >> 48) as u16;
        if f == 0 {
            1
        } else {
            f
        }
    }

    fn index1(&self, key: u64) -> usize {
        (hash64(key.rotate_left(17)) & self.bucket_mask) as usize
    }

    fn index2(&self, i1: usize, fp: Fingerprint) -> usize {
        ((i1 as u64) ^ (hash64(fp as u64) & self.bucket_mask)) as usize & self.bucket_mask as usize
    }

    /// Inserts `key`. Returns `false` if the filter is too full to place the
    /// fingerprint (callers should treat this as "filter saturated" and
    /// rebuild or accept degraded accuracy).
    pub fn insert(&mut self, key: u64) -> bool {
        let placed = self.place_key(key);
        #[cfg(feature = "probe")]
        self.report(|_| {});
        placed
    }

    /// The insertion itself: direct placement, then up to `MAX_KICKS`
    /// displacements.
    fn place_key(&mut self, key: u64) -> bool {
        let fp = Self::fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.index2(i1, fp);
        if self.place(i1, fp) || self.place(i2, fp) {
            self.len += 1;
            return true;
        }
        // Kick a resident fingerprint to its alternate bucket.
        let mut idx = if hash64(key ^ fp as u64) & 1 == 0 {
            i1
        } else {
            i2
        };
        let mut fp = fp;
        for kick in 0..MAX_KICKS {
            let victim_slot =
                (hash64(idx as u64 ^ fp as u64 ^ kick as u64) % BUCKET_SIZE as u64) as usize;
            std::mem::swap(&mut self.buckets[idx][victim_slot], &mut fp);
            self.kicks += 1;
            idx = self.index2(idx, fp);
            if self.place(idx, fp) {
                self.len += 1;
                return true;
            }
        }
        false
    }

    fn place(&mut self, idx: usize, fp: Fingerprint) -> bool {
        for slot in &mut self.buckets[idx] {
            if *slot == 0 {
                *slot = fp;
                return true;
            }
        }
        false
    }

    /// Tests membership. False positives are possible; false negatives are
    /// not (for keys inserted and not removed).
    pub fn contains(&self, key: u64) -> bool {
        let fp = Self::fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.index2(i1, fp);
        let hit = self.buckets[i1].contains(&fp) || self.buckets[i2].contains(&fp);
        #[cfg(feature = "probe")]
        self.report(|p| p.instant(if hit { "cuckoo.hit" } else { "cuckoo.miss" }, key));
        hit
    }

    /// Removes one copy of `key`'s fingerprint. Returns whether a
    /// fingerprint was removed. Removing a key that was never inserted may —
    /// with fingerprint-collision probability — remove another key's
    /// fingerprint, as in the original filter.
    pub fn remove(&mut self, key: u64) -> bool {
        let fp = Self::fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.index2(i1, fp);
        for idx in [i1, i2] {
            for slot in &mut self.buckets[idx] {
                if *slot == fp {
                    *slot = 0;
                    self.len -= 1;
                    #[cfg(feature = "probe")]
                    self.report(|_| {});
                    return true;
                }
            }
        }
        false
    }

    /// Number of fingerprints currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter holds no fingerprints.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot capacity (buckets × 4).
    pub fn capacity(&self) -> usize {
        self.buckets.len() * BUCKET_SIZE
    }

    /// Load factor in `[0, 1]`.
    pub fn load(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Cumulative number of displacement kicks performed (an indicator of
    /// pressure).
    pub fn total_kicks(&self) -> u64 {
        self.kicks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CuckooFilter::with_capacity(0);
    }

    #[test]
    fn no_false_negatives() {
        let mut f = CuckooFilter::with_capacity(4096);
        for k in 0..3000u64 {
            assert!(f.insert(k), "insert failed at {k}");
        }
        for k in 0..3000u64 {
            assert!(f.contains(k), "false negative at {k}");
        }
    }

    #[test]
    fn low_false_positive_rate() {
        let mut f = CuckooFilter::with_capacity(4096);
        for k in 0..3000u64 {
            f.insert(k);
        }
        let fps = (100_000..200_000u64).filter(|&k| f.contains(k)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.01, "false positive rate too high: {rate}");
    }

    #[test]
    fn remove_then_absent() {
        let mut f = CuckooFilter::with_capacity(64);
        f.insert(7);
        f.insert(8);
        assert!(f.remove(7));
        assert!(!f.contains(7));
        assert!(f.contains(8));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn remove_missing_key_usually_fails() {
        let mut f = CuckooFilter::with_capacity(1024);
        f.insert(1);
        assert!(!f.remove(999_999));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn duplicate_inserts_allowed() {
        let mut f = CuckooFilter::with_capacity(64);
        assert!(f.insert(5));
        assert!(f.insert(5));
        assert_eq!(f.len(), 2);
        assert!(f.remove(5));
        assert!(f.contains(5), "one copy remains");
        assert!(f.remove(5));
        assert!(!f.contains(5));
    }

    #[test]
    fn fills_to_high_load() {
        let mut f = CuckooFilter::with_capacity(1024);
        let mut inserted = 0;
        for k in 0..f.capacity() as u64 {
            if f.insert(k) {
                inserted += 1;
            } else {
                break;
            }
        }
        assert!(
            inserted as f64 / f.capacity() as f64 > 0.9,
            "cuckoo filters should reach >90% load, got {}",
            f.load()
        );
    }

    #[test]
    fn empty_and_capacity() {
        let f = CuckooFilter::with_capacity(100);
        assert!(f.is_empty());
        assert!(f.capacity() >= 100);
        assert_eq!(f.load(), 0.0);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = CuckooFilter::with_capacity(256);
        let mut b = CuckooFilter::with_capacity(256);
        for k in 0..200u64 {
            a.insert(k * 3);
            b.insert(k * 3);
        }
        for k in 0..1000u64 {
            assert_eq!(a.contains(k), b.contains(k));
        }
    }
}

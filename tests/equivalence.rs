//! Behavioral-equivalence properties of the engine's hot structures: the
//! struct-of-arrays TLB / MSHR / walker-pool planes must match naive
//! reference models op for op, and the batched event-queue drain must match
//! per-event pops (DESIGN.md §16). In observability builds the engine's site
//! table must also hand every structure of every simulated geometry its own
//! site id (DESIGN.md §8.2).

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// SoA hot-state models (DESIGN.md §16). The PR-9 struct-of-arrays rework of
// the Tlb / Mshr / walker-pool hot paths must be *behaviorally invisible*:
// each proptest below drives the production structure and a deliberately
// naive array-of-structs model through the same random op sequence and
// demands identical observable results (return values, counters, occupancy)
// at every step. The models encode the documented contracts — way-order
// first-match scans, first-minimal LRU victims, speculative LRU-position
// stamps, FIFO PW-queues — not the SoA layout.
// ---------------------------------------------------------------------------

use hdpat_wafer::mem::{Mshr, MshrOutcome};
use hdpat_wafer::sim::EventQueue;
use hdpat_wafer::xlat::{Pfn, SubmitResult, Tlb, TlbConfig, Vpn, WalkerPool};

/// Array-of-structs reference TLB: one `Option<entry>` per way, semantics
/// copied from the documented contract of [`Tlb`].
struct AosTlb {
    sets: usize,
    ways: usize,
    entries: Vec<Option<(Vpn, Pfn, u64, bool)>>,
    tick: u64,
    hits: u64,
    misses: u64,
    prefetched_hits: u64,
}

impl AosTlb {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            entries: vec![None; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
            prefetched_hits: 0,
        }
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.sets - 1)
    }

    fn find_way(&self, set: usize, vpn: Vpn) -> Option<usize> {
        (0..self.ways)
            .find(|&w| matches!(self.entries[set * self.ways + w], Some((v, ..)) if v == vpn))
    }

    fn lookup_meta(&mut self, vpn: Vpn) -> Option<(Pfn, bool)> {
        self.tick += 1;
        let set = self.set_of(vpn);
        match self.find_way(set, vpn) {
            Some(way) => {
                let e = self.entries[set * self.ways + way].as_mut().expect("found");
                e.2 = self.tick;
                let was_pf = e.3;
                e.3 = false;
                self.hits += 1;
                if was_pf {
                    self.prefetched_hits += 1;
                }
                Some((e.1, was_pf))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn fill_at(&mut self, vpn: Vpn, pfn: Pfn, pf: bool, lru_insert: bool) -> Option<(Vpn, Pfn)> {
        self.tick += 1;
        let stamp = if lru_insert { 0 } else { self.tick };
        let set = self.set_of(vpn);
        if let Some(way) = self.find_way(set, vpn) {
            let e = self.entries[set * self.ways + way].as_mut().expect("found");
            e.1 = pfn;
            if !lru_insert {
                e.2 = stamp;
            }
            e.3 = pf;
            return None;
        }
        let base = set * self.ways;
        if let Some(way) = (0..self.ways).find(|&w| self.entries[base + w].is_none()) {
            self.entries[base + way] = Some((vpn, pfn, stamp, pf));
            return None;
        }
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                self.entries[base + w]
                    .map(|(_, _, s, _)| s)
                    .expect("full set")
            })
            .expect("ways > 0");
        let (ev, ep, ..) = self.entries[base + victim].expect("full set");
        self.entries[base + victim] = Some((vpn, pfn, stamp, pf));
        Some((ev, ep))
    }

    fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set_of(vpn);
        match self.find_way(set, vpn) {
            Some(way) => {
                self.entries[set * self.ways + way] = None;
                true
            }
            None => false,
        }
    }

    fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// One random TLB op: the discriminant picks the call, `vpn`/`pfn` its
/// arguments.
#[derive(Debug, Clone, Copy)]
struct TlbOp {
    kind: u8,
    vpn: u64,
    pfn: u64,
}

fn tlb_ops() -> impl Strategy<Value = Vec<TlbOp>> {
    proptest::collection::vec(
        (0u8..5, 0u64..48, 0u64..1_000).prop_map(|(kind, vpn, pfn)| TlbOp { kind, vpn, pfn }),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA [`Tlb`] and the AoS model agree on every lookup result,
    /// eviction, invalidation and counter under random op sequences.
    #[test]
    fn soa_tlb_matches_the_aos_model(
        sets_log2 in 0u32..3,
        ways in 1usize..5,
        ops in tlb_ops(),
    ) {
        let sets = 1usize << sets_log2;
        let mut soa = Tlb::new(TlbConfig { sets, ways, latency: 1, mshrs: 4 });
        let mut aos = AosTlb::new(sets, ways);
        for op in ops {
            let (vpn, pfn) = (Vpn(op.vpn), Pfn(op.pfn));
            match op.kind {
                0 => prop_assert_eq!(soa.lookup_meta(vpn), aos.lookup_meta(vpn)),
                1 => prop_assert_eq!(soa.fill(vpn, pfn, false), aos.fill_at(vpn, pfn, false, false)),
                2 => prop_assert_eq!(soa.fill(vpn, pfn, true), aos.fill_at(vpn, pfn, true, false)),
                3 => prop_assert_eq!(soa.fill_speculative(vpn, pfn), aos.fill_at(vpn, pfn, true, true)),
                _ => prop_assert_eq!(soa.invalidate(vpn), aos.invalidate(vpn)),
            }
            prop_assert_eq!(soa.occupancy(), aos.occupancy());
        }
        prop_assert_eq!(soa.hits(), aos.hits);
        prop_assert_eq!(soa.misses(), aos.misses);
        prop_assert_eq!(soa.prefetched_hits(), aos.prefetched_hits);
    }
}

/// Array-of-structs reference MSHR file: a plain list of
/// `(block, waiters)` entries. Slot placement is invisible to callers, so
/// the model only pins membership, waiter order and capacity behavior.
struct AosMshr {
    capacity: usize,
    targets_per_entry: usize,
    entries: Vec<(u64, Vec<u32>)>,
    stalls: u64,
    merges: u64,
}

impl AosMshr {
    fn register(&mut self, block: u64, waiter: u32) -> MshrOutcome {
        if let Some((_, ws)) = self.entries.iter_mut().find(|(b, _)| *b == block) {
            if ws.len() >= self.targets_per_entry {
                self.stalls += 1;
                return MshrOutcome::Full;
            }
            ws.push(waiter);
            self.merges += 1;
            return MshrOutcome::Secondary;
        }
        if self.entries.len() >= self.capacity {
            self.stalls += 1;
            return MshrOutcome::Full;
        }
        self.entries.push((block, vec![waiter]));
        MshrOutcome::Primary
    }

    fn complete(&mut self, block: u64) -> Vec<u32> {
        match self.entries.iter().position(|(b, _)| *b == block) {
            Some(i) => self.entries.remove(i).1,
            None => Vec::new(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA [`Mshr`] and the AoS model agree on registration outcomes,
    /// waiter wake order and counters under random register/complete mixes.
    #[test]
    fn soa_mshr_matches_the_aos_model(
        capacity in 1usize..6,
        targets in 1usize..4,
        ops in proptest::collection::vec((0u8..4, 0u64..8, 0u32..100), 1..200),
    ) {
        let mut soa: Mshr<u32> = Mshr::with_targets(capacity, targets);
        let mut aos = AosMshr {
            capacity,
            targets_per_entry: targets,
            entries: Vec::new(),
            stalls: 0,
            merges: 0,
        };
        for (kind, block, waiter) in ops {
            if kind == 0 {
                prop_assert_eq!(soa.complete(block), aos.complete(block));
            } else {
                prop_assert_eq!(soa.register(block, waiter), aos.register(block, waiter));
            }
            prop_assert_eq!(soa.contains(block), aos.entries.iter().any(|(b, _)| *b == block));
            prop_assert_eq!(soa.occupancy(), aos.entries.len());
        }
        prop_assert_eq!(soa.stalls(), aos.stalls);
        prop_assert_eq!(soa.merges(), aos.merges);
    }
}

/// FIFO reference model of the walker pool's PW-queue and walker slots.
struct AosPool {
    walkers: usize,
    capacity: usize,
    busy: usize,
    queue: Vec<u32>,
}

impl AosPool {
    fn submit(&mut self, token: u32) -> SubmitResult {
        if self.busy < self.walkers {
            self.busy += 1;
            SubmitResult::Started
        } else if self.queue.len() < self.capacity {
            self.queue.push(token);
            SubmitResult::Queued
        } else {
            SubmitResult::Rejected
        }
    }

    fn finish(&mut self) -> Option<u32> {
        if self.queue.is_empty() {
            self.busy -= 1;
            None
        } else {
            Some(self.queue.remove(0))
        }
    }

    fn drain_matching(&mut self, rem: u32) -> Vec<u32> {
        let (drained, kept) = self.queue.iter().partition(|&&t| t % 4 == rem);
        self.queue = kept;
        drained
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pre-sized [`WalkerPool`] (reusable `kept` scratch, batch drains)
    /// and the naive FIFO model agree on submit outcomes, promotion order
    /// and revisit drains under random op sequences.
    #[test]
    fn walker_pool_matches_the_fifo_model(
        walkers in 1usize..4,
        capacity in 1usize..8,
        ops in proptest::collection::vec((0u8..4, 0u32..64), 1..200),
    ) {
        let mut pool: WalkerPool<u32> = WalkerPool::new(walkers, capacity);
        let mut model = AosPool { walkers, capacity, busy: 0, queue: Vec::new() };
        let mut scratch = Vec::new();
        for (kind, arg) in ops {
            match kind {
                0 | 1 => prop_assert_eq!(pool.submit(arg), model.submit(arg)),
                2 => {
                    if model.busy > 0 {
                        prop_assert_eq!(pool.finish(), model.finish());
                    }
                }
                _ => {
                    let rem = arg % 4;
                    scratch.clear();
                    let n = pool.drain_matching_into(|&t| t % 4 == rem, &mut scratch);
                    let expect = model.drain_matching(rem);
                    prop_assert_eq!(n, expect.len());
                    prop_assert_eq!(&scratch, &expect);
                }
            }
            prop_assert_eq!(pool.busy(), model.busy);
            prop_assert_eq!(pool.queue_len(), model.queue.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Batched delivery equivalence (DESIGN.md §16): a drain-based consumer of
// the event queue must observe exactly the per-pop event stream, for arbitrary
// push/pop interleavings — the contract the batched engine dispatch loop
// rests on.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`EventQueue::drain_bucket`] delivers the same `(time, payload)`
    /// stream as repeated [`EventQueue::pop`], including pushes interleaved
    /// between batches (same-time re-pushes land in the *next* batch, where
    /// their sequence numbers place them).
    #[test]
    fn event_queue_batch_drain_matches_per_pop(
        ops in proptest::collection::vec((0u8..3, 0u64..6_000), 1..200),
    ) {
        let mut batched: EventQueue<u64> = EventQueue::new();
        let mut per_pop: EventQueue<u64> = EventQueue::new();
        let mut payload = 0u64;
        let mut bucket = Vec::new();
        for (kind, dt) in ops {
            if kind < 2 {
                // Push strictly in the future of the batched queue's clock;
                // both queues share it (asserted below), so the push is
                // legal on both sides.
                let t = batched.now() + dt;
                batched.push(t, payload);
                per_pop.push(t, payload);
                payload += 1;
            } else {
                bucket.clear();
                let n = batched.drain_bucket(&mut bucket);
                for expected in bucket.iter().take(n) {
                    let (t, got) = per_pop.pop().expect("pop stream ended early");
                    prop_assert_eq!(t, batched.now());
                    prop_assert_eq!(&got, expected);
                }
                prop_assert_eq!(per_pop.peek_time() != Some(batched.now()), true,
                    "drain_bucket left same-time events behind");
            }
            prop_assert_eq!(batched.now(), per_pop.now());
            prop_assert_eq!(batched.len(), per_pop.len());
        }
        // Drain the remainder: the tails agree too.
        loop {
            bucket.clear();
            let n = batched.drain_bucket(&mut bucket);
            if n == 0 {
                prop_assert_eq!(per_pop.pop(), None);
                break;
            }
            for expected in bucket.iter().take(n) {
                let (t, got) = per_pop.pop().expect("pop stream ended early");
                prop_assert_eq!(t, batched.now());
                prop_assert_eq!(&got, expected);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Site-id uniqueness (DESIGN.md §8.2). The engine claims every probe's site
// id once, from one table that panics on a duplicate. Attach it for each
// geometry the figures simulate: every Fig 21 GPU preset (MI300's 76 CUs per
// GPM is the case a fixed 64-wide L1-TLB stride aliased) and the Fig 22 7×12
// wafer, with the Fig 19 IOMMU TLB + MSHR so every structure kind is present.
// ---------------------------------------------------------------------------

#[cfg(any(feature = "audit", feature = "trace", feature = "telemetry"))]
#[test]
fn every_geometry_claims_unique_site_ids() {
    use hdpat_wafer::prelude::*;
    use hdpat_wafer::sim::probe::Sinks;

    let mut systems: Vec<SystemConfig> = GpuPreset::all()
        .into_iter()
        .map(SystemConfig::with_preset)
        .collect();
    systems.push(SystemConfig {
        layout: WaferLayout::paper_7x12(),
        ..SystemConfig::paper_baseline()
    });
    for system in systems {
        let gpms = system.gpm_count() as u64;
        let cus = system.gpm.cus as u64;
        let policy = PolicyKind::Hdpat(HdpatConfig::with_iommu_tlb());
        let mut sim = Simulation::new(system, policy, BenchmarkId::Relu, Scale::Unit, 1);
        let table = sim.attach(Sinks::new());
        // Per GPM: L2 TLB, GMMU cache, walkers, cuckoo filter, HBM, and one
        // L1 TLB per CU; then the IOMMU walkers, redirection table, TLB and
        // TLB MSHR. The table is a set, so a silently merged id would show
        // up as a short count.
        assert_eq!(
            table.len() as u64,
            gpms * (5 + cus) + 4,
            "{gpms} GPMs x {cus} CUs: site ids collided"
        );
    }
}

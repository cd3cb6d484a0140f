//! The full-system discrete-event simulator.
//!
//! One [`Simulation`] owns the wafer: per-GPM translation and memory
//! hierarchies, the central IOMMU, the mesh, the request-slot table and a
//! single event queue. Handlers are grouped by concern:
//!
//! * `translate` — the GPM-side translation path (TLBs, cuckoo filter,
//!   GMMU walks) and the policy-specific remote path (probe chains, parallel
//!   layer probes).
//! * `iommu` — arrival, redirection, PW-queue, walks, revisit coalescing,
//!   proactive delivery and selective push.
//! * `data` — the post-translation data access (caches, HBM, remote
//!   cacheline fetches).

mod data;
mod iommu;
mod translate;

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use wsg_gpu::{AddressSpace, CuPipeline, MemoryOp, SystemConfig, WorkgroupTrace};
use wsg_mem::{Hbm, Mshr, SetAssocCache};
use wsg_noc::{Coord, Mesh};
use wsg_sim::{Cycle, EventQueue, HashIndex};
use wsg_workloads::{BenchmarkId, Scale};
use wsg_xlat::{CuckooFilter, PageTable, Pfn, RedirectionTable, Tlb, TlbConfig, Vpn, WalkerPool};

use crate::layers::{self, ConcentricMap};
use crate::metrics::{Metrics, Resolution};
use crate::migration::MigrationConfig;
use crate::policy::{HdpatConfig, PolicyKind};

/// Cuckoo-filter query latency in cycles.
pub(crate) const CUCKOO_LATENCY: Cycle = 2;
/// Retry backoff when an MSHR or walker queue is full.
pub(crate) const RETRY_BACKOFF: Cycle = 32;
/// Router ejection + port scheduling overhead charged per serial probe
/// attempt (the repeated-translation-attempt penalty of §IV-B).
pub(crate) const PROBE_OVERHEAD: Cycle = 30;
/// Aggregation window of the IOMMU time series.
pub(crate) const TIME_WINDOW: Cycle = 10_000;
/// Safety cap on the event count: blowing past it indicates a scheduling
/// bug (an event storm), not a big workload. Checked in debug builds.
pub(crate) const EVENT_CAP: u64 = 2_000_000_000;

/// A slot of the request table ([`RequestSlots`]). Slots are recycled, so
/// an id names a request only while something still references it.
pub(crate) type ReqId = u32;

/// One compute unit: issue pipeline plus its private L1 TLB and L1 cache.
#[derive(Debug)]
pub(crate) struct CuSlot {
    pub pipeline: CuPipeline,
    pub l1_tlb: Tlb,
    pub l1_cache: SetAssocCache,
}

/// Per-GPM simulator state.
#[derive(Debug)]
pub(crate) struct GpmState {
    pub cus: Vec<CuSlot>,
    pub l2_tlb: Tlb,
    pub cuckoo: CuckooFilter,
    /// Last-level TLB / GMMU cache; holds local translations *and* the
    /// auxiliary (pushed) remote PTEs without priority difference (§V-A).
    pub gmmu_cache: Tlb,
    pub walkers: WalkerPool<ReqId>,
    pub page_table: PageTable,
    pub l2_cache: SetAssocCache,
    pub hbm: Hbm,
    /// L2-TLB MSHR for outgoing remote translations: VPN → waiters
    /// coalesced behind the primary request. A seeded [`HashIndex`] keyed by
    /// raw VPN; the stalled-CU panic formatter sorts on demand, so reporting
    /// stays deterministic (lint rules d1/d6).
    pub remote_mshr: HashIndex<Vec<ReqId>>,
    /// Requests stalled because every MSHR entry is occupied; drained in
    /// FIFO order as entries free up.
    pub mshr_stalled: VecDeque<ReqId>,
}

/// The central IOMMU state.
#[derive(Debug)]
pub(crate) struct IommuState {
    pub walkers: WalkerPool<ReqId>,
    /// The input ("pre-queue") buffer requests wait in while the PW-queue is
    /// full (Fig 3's pre-queue component, Fig 4's buffer).
    pub pre_queue: VecDeque<ReqId>,
    pub redirection: RedirectionTable,
    /// The Fig 19 alternative: a conventional TLB (with MSHRs) in place of
    /// the redirection table.
    pub tlb: Option<Tlb>,
    pub tlb_mshr: Option<Mshr<ReqId>>,
    /// Requests blocked outside the IOMMU TLB because its MSHRs are full
    /// (Fig 19's concurrency pathology); drained one per walk completion.
    pub tlb_stalled: VecDeque<ReqId>,
    pub page_table: PageTable,
    /// Trans-FW's in-flight walk table: requests arriving for a VPN whose
    /// walk is already queued or running piggyback on it instead of
    /// enqueueing their own (remote forwarding of in-flight results).
    pub inflight: HashIndex<Vec<ReqId>>,
}

/// One in-flight memory operation with its translation bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub gpm: u32,
    pub cu: u32,
    pub op: MemoryOp,
    pub vpn: Vpn,
    /// Issue cycle, kept for the whole-translation trace span.
    #[cfg(feature = "probe")]
    pub issued: Cycle,
    pub remote_started: Option<Cycle>,
    pub iommu_arrived: Option<Cycle>,
    pub pw_entered: Option<Cycle>,
    pub walk_started: Option<Cycle>,
    /// GPMs probed so far (filled with the PTE on response — the
    /// opportunistic caching of the route/concentric baselines).
    pub probed: Vec<u32>,
    /// Set when a redirection attempt failed, so the IOMMU does not redirect
    /// the same request twice.
    pub redirect_failed: bool,
    /// Set once a translation response has been accepted (duplicate probe
    /// replies are ignored).
    pub resolved: bool,
    /// Set once the request's `DataDone` fired; with `refs == 0` the slot
    /// is free.
    done: bool,
    /// Pending events and structure entries naming this slot.
    refs: u32,
    /// Monotone issue number: the request id trace artifacts carry, which
    /// stays unique when slots are reused.
    #[cfg(feature = "probe")]
    pub serial: u64,
}

impl Request {
    fn is_free(&self) -> bool {
        self.done && self.refs == 0
    }
}

/// The request table, sized by what is in flight rather than by run length
/// (DESIGN.md §16.5). A slot is freed once its request's `DataDone` fired
/// and nothing references its id any more: [`Simulation::schedule`] holds
/// it for every pending event, and every queue that stores ids (walker
/// queues, MSHR waiter lists, the GPM MSHR park queue, the IOMMU pre-queue
/// and stall queue, Trans-FW's in-flight table) holds it per entry. Stale ids must stay
/// readable after resolution — late layer probes and already-answered
/// walks still update metrics through them.
///
/// Indexing a free slot panics in debug builds, and so does releasing an
/// id more often than it was held.
#[derive(Debug, Default)]
pub(crate) struct RequestSlots {
    slots: Vec<Request>,
    /// Free slots, reused last-freed first (the warmest in cache).
    free: Vec<ReqId>,
    /// Requests issued so far (the next probe serial).
    #[cfg(feature = "probe")]
    serials: u64,
}

impl RequestSlots {
    /// Stores `req` in a free slot, keeping that slot's `probed` capacity.
    fn alloc(&mut self, mut req: Request) -> ReqId {
        #[cfg(feature = "probe")]
        {
            req.serial = self.serials;
            self.serials += 1;
        }
        match self.free.pop() {
            Some(id) => {
                let slot = &mut self.slots[id as usize];
                std::mem::swap(&mut req.probed, &mut slot.probed);
                req.probed.clear();
                *slot = req;
                id
            }
            None => {
                let id = ReqId::try_from(self.slots.len()).expect("request slots exceed u32 ids");
                self.slots.push(req);
                id
            }
        }
    }

    /// Adds one reference to `id`.
    #[inline]
    fn hold(&mut self, id: ReqId) {
        self[id].refs += 1;
    }

    /// Drops one reference to `id`, freeing the slot if it was the last
    /// one of a completed request.
    #[inline]
    fn release(&mut self, id: ReqId) {
        let r = &mut self.slots[id as usize];
        debug_assert!(
            r.refs > 0,
            "request slot {id} released more often than held"
        );
        r.refs -= 1;
        if r.is_free() {
            self.free.push(id);
        }
    }

    /// Marks `id`'s request complete; its slot frees with the last release.
    fn retire(&mut self, id: ReqId) {
        self[id].done = true;
    }

    /// Slots currently allocated.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

impl Index<ReqId> for RequestSlots {
    type Output = Request;

    #[inline]
    fn index(&self, id: ReqId) -> &Request {
        let r = &self.slots[id as usize];
        debug_assert!(!r.is_free(), "request slot {id} used after it was freed");
        r
    }
}

impl IndexMut<ReqId> for RequestSlots {
    #[inline]
    fn index_mut(&mut self, id: ReqId) -> &mut Request {
        let r = &mut self.slots[id as usize];
        debug_assert!(!r.is_free(), "request slot {id} used after it was freed");
        r
    }
}

/// Simulator events.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A CU tries to issue its next memory operation.
    CuIssue { gpm: u32, cu: u32 },
    /// A GMMU page-table walk finished at `gpm`.
    GmmuWalkDone { gpm: u32, req: ReqId },
    /// Retry a GMMU walk submission that found the queue full.
    GmmuRetry { gpm: u32, req: ReqId },
    /// A serial probe arrives at `chain[idx]` of the request's chain.
    ChainProbe { req: ReqId, idx: usize },
    /// An HDPAT concurrent layer probe arrives at `target`.
    ParallelProbe {
        req: ReqId,
        target: u32,
        innermost: bool,
    },
    /// A translation request arrives at the IOMMU.
    IommuArrive { req: ReqId },
    /// An IOMMU page-table walk finished.
    IommuWalkDone { req: ReqId },
    /// A redirected request arrives at its holder GPM.
    RedirectArrive { req: ReqId, holder: u32 },
    /// A pushed PTE arrives at an auxiliary GPM.
    PushArrive {
        gpm: u32,
        vpn: Vpn,
        pfn: Pfn,
        prefetched: bool,
    },
    /// The final translation response arrives at the requesting GPM.
    XlatResponse {
        req: ReqId,
        pfn: Pfn,
        source: Resolution,
    },
    /// A remote data request arrived at the page's home GPM.
    DataAtHome { req: ReqId, home: u32 },
    /// The home GPM's L2/HBM produced the line; send it back.
    DataReturn { req: ReqId, home: u32 },
    /// The post-translation data access completed.
    DataDone { req: ReqId },
}

impl Event {
    /// The request slot this event references, if any.
    #[inline]
    fn req(&self) -> Option<ReqId> {
        match self {
            Event::GmmuWalkDone { req, .. }
            | Event::GmmuRetry { req, .. }
            | Event::ChainProbe { req, .. }
            | Event::ParallelProbe { req, .. }
            | Event::IommuArrive { req }
            | Event::IommuWalkDone { req }
            | Event::RedirectArrive { req, .. }
            | Event::XlatResponse { req, .. }
            | Event::DataAtHome { req, .. }
            | Event::DataReturn { req, .. }
            | Event::DataDone { req } => Some(*req),
            Event::CuIssue { .. } | Event::PushArrive { .. } => None,
        }
    }
}

/// The full-system simulator. Construct with [`Simulation::new`] (generated
/// workload) or [`Simulation::with_traces`] (caller-provided traces), then
/// call [`Simulation::run`].
#[derive(Debug)]
pub struct Simulation {
    pub(crate) cfg: SystemConfig,
    pub(crate) policy: PolicyKind,
    pub(crate) space: AddressSpace,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) mesh: Mesh,
    pub(crate) gpms: Vec<GpmState>,
    pub(crate) iommu: IommuState,
    pub(crate) reqs: RequestSlots,
    pub(crate) metrics: Metrics,
    pub(crate) concentric: Option<ConcentricMap>,
    /// Per-GPM serial probe chains, precomputed per policy.
    pub(crate) chains: Vec<Vec<u32>>,
    pub(crate) last_iommu_vpn: Option<Vpn>,
    /// Reusable buffer for walker-queue revisit drains, taken and returned
    /// around each [`wsg_xlat::WalkerPool::drain_matching_into`] call so the
    /// hot dispatch path never allocates for coalesced walks.
    pub(crate) walk_scratch: Vec<ReqId>,
    /// Optional page-migration extension (see [`crate::migration`]).
    pub(crate) migration: Option<MigrationConfig>,
    /// Dynamic home overrides for migrated pages (checked before the static
    /// block placement).
    pub(crate) home_override: HashIndex<u32>,
    /// Per-page (last remote consumer, consecutive-access streak).
    pub(crate) access_streak: HashIndex<(u32, u32)>,
    /// The runtime invariant auditor every probe reports to (`audit`
    /// feature only).
    #[cfg(feature = "audit")]
    // lint:allow(shared-mut): the auditor is a sanctioned sink (DESIGN.md
    // §13); the engine keeps concrete access to it for the end-of-run check.
    pub(crate) auditor: std::rc::Rc<std::cell::RefCell<wsg_sim::audit::ConservationAuditor>>,
    /// The consumers attached with [`Simulation::attach`]; the engine
    /// stamps the trace context, emits its own spans and publishes its own
    /// counters straight into them.
    #[cfg(feature = "probe")]
    pub(crate) sinks: wsg_sim::probe::Sinks,
    /// First id of the engine's two telemetry counters (IOMMU pre-queue
    /// depth, completed operations).
    #[cfg(feature = "probe")]
    pub(crate) counters: usize,
    /// Simulated time of the next telemetry epoch boundary (`Cycle::MAX`
    /// without a recorder); `dispatch` samples when event time reaches it.
    #[cfg(feature = "probe")]
    pub(crate) next_sample: Cycle,
}

impl Simulation {
    /// Builds a simulation of `benchmark` at `scale` under `policy`.
    pub fn new(
        system: SystemConfig,
        policy: PolicyKind,
        benchmark: BenchmarkId,
        scale: Scale,
        seed: u64,
    ) -> Self {
        let mut space = AddressSpace::new(system.page_size, system.gpm_count() as u32);
        let traces = wsg_workloads::generate(benchmark, scale, &mut space, seed);
        Self::with_traces(system, policy, space, traces)
    }

    /// Builds a simulation from caller-provided traces (for custom
    /// workloads). Workgroup `i` of `n` runs on GPM `i·G/n`; within a GPM,
    /// workgroups are round-robined over its CUs.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the address space's GPM count does not
    /// match the system layout.
    pub fn with_traces(
        system: SystemConfig,
        policy: PolicyKind,
        space: AddressSpace,
        traces: Vec<WorkgroupTrace>,
    ) -> Self {
        assert!(!traces.is_empty(), "no workgroups to simulate");
        assert_eq!(
            space.gpm_count() as usize,
            system.gpm_count(),
            "address space and wafer disagree on GPM count"
        );
        let g = system.gpm_count();

        let concentric = match policy {
            PolicyKind::Hdpat(h) => Some(ConcentricMap::new(
                &system.layout,
                h.caching_layers.min(system.layout.max_layer()),
                h.rotation,
            )),
            _ => None,
        };
        let chains: Vec<Vec<u32>> = (0..g as u32)
            .map(|id| match policy {
                PolicyKind::RouteCache { .. } => layers::route_chain(&system.layout, id),
                PolicyKind::Concentric { caching_layers } => {
                    layers::concentric_chain(&system.layout, caching_layers, id)
                }
                PolicyKind::Distributed => layers::nearest_group_peer(&system.layout, id)
                    .into_iter()
                    .collect(),
                PolicyKind::Valkyrie => layers::nearest_neighbor(&system.layout, id)
                    .into_iter()
                    .collect(),
                _ => Vec::new(),
            })
            .collect();

        // Build per-GPM state and page tables from the address space.
        let mut gpms: Vec<GpmState> = (0..g as u32)
            .map(|_id| {
                let gc = system.gpm;
                GpmState {
                    cus: (0..gc.cus)
                        .map(|_| CuSlot {
                            pipeline: CuPipeline::new(gc.max_outstanding_per_cu),
                            l1_tlb: Tlb::new(gc.l1_tlb),
                            l1_cache: SetAssocCache::new(gc.l1_cache),
                        })
                        .collect(),
                    l2_tlb: Tlb::new(gc.l2_tlb),
                    cuckoo: CuckooFilter::with_capacity(gc.cuckoo_capacity),
                    gmmu_cache: Tlb::new(gc.gmmu_cache),
                    walkers: WalkerPool::new(gc.gmmu_walkers, gc.gmmu_queue),
                    page_table: PageTable::new(),
                    l2_cache: SetAssocCache::new(gc.l2_cache),
                    hbm: Hbm::new(gc.hbm),
                    remote_mshr: HashIndex::with_capacity(gc.l2_tlb.mshrs.max(1)),
                    mshr_stalled: VecDeque::new(),
                }
            })
            .collect();

        let mut global_pt = PageTable::with_capacity(space.total_pages() as usize);
        for (vpn, home) in space.iter_pages() {
            let pfn = Pfn(vpn.0); // identity frame mapping
            global_pt.map(vpn, pfn, home);
            gpms[home as usize].page_table.map(vpn, pfn, home);
            gpms[home as usize].cuckoo.insert(vpn.0);
        }

        let iommu_cfg = system.iommu;
        let use_tlb = matches!(policy, PolicyKind::Hdpat(h) if h.iommu_tlb_instead);
        let iommu = IommuState {
            walkers: WalkerPool::new(iommu_cfg.walkers, iommu_cfg.pw_queue),
            pre_queue: VecDeque::new(),
            redirection: RedirectionTable::new(iommu_cfg.redirection_entries),
            // Same-area TLB: half the entries of the redirection table
            // (512 vs 1024, §V-E), 4-way, with 32 MSHRs.
            tlb: use_tlb.then(|| {
                Tlb::new(TlbConfig {
                    sets: (iommu_cfg.redirection_entries / 2 / 4).next_power_of_two(),
                    ways: 4,
                    latency: 8,
                    mshrs: 32,
                })
            }),
            // 32 MSHRs x 8 target slots at the paper's 1024-entry scale;
            // shrinks with the table so the blocking behaviour of Fig 19 is
            // preserved at reduced scale.
            tlb_mshr: use_tlb
                .then(|| Mshr::with_targets((iommu_cfg.redirection_entries / 32).max(8), 8)),
            tlb_stalled: VecDeque::new(),
            page_table: global_pt,
            inflight: HashIndex::new(),
        };

        let mesh = Mesh::new(system.layout.width(), system.layout.height(), system.link);
        let metrics = Metrics::new(g, TIME_WINDOW);
        let peak_outstanding = g * system.gpm.cus as usize;

        let mut sim = Self {
            cfg: system,
            policy,
            space,
            // Far-future overflow tier pre-sized to the wafer's maximum
            // outstanding-request population (ring pushes dominate, but HBM
            // refresh-style long delays land here).
            queue: EventQueue::with_capacity(peak_outstanding),
            mesh,
            gpms,
            iommu,
            reqs: RequestSlots::default(),
            metrics,
            concentric,
            chains,
            last_iommu_vpn: None,
            walk_scratch: Vec::new(),
            migration: None,
            home_override: HashIndex::new(),
            access_streak: HashIndex::new(),
            #[cfg(feature = "audit")]
            // lint:allow(shared-mut): constructing the sanctioned audit
            // sink root (see the `auditor` field).
            auditor: std::rc::Rc::new(std::cell::RefCell::new(
                wsg_sim::audit::ConservationAuditor::new(),
            )),
            #[cfg(feature = "probe")]
            sinks: wsg_sim::probe::Sinks::new(),
            #[cfg(feature = "probe")]
            counters: 0,
            #[cfg(feature = "probe")]
            next_sample: Cycle::MAX,
        };

        // Attach the auditor to every structure before the first event, so
        // the occupancy mirrors start from empty state.
        #[cfg(feature = "audit")]
        sim.attach(wsg_sim::probe::Sinks::new());

        // Dispatch workgroups breadth-first (round-robin) across GPMs, the
        // way GPU runtimes launch blocks across compute dies; pages are
        // block-partitioned (§II-A), so workgroups and their data generally
        // land on different GPMs — the source of the wafer-scale
        // translation pressure of observations O1/O2.
        let mut next_cu = vec![0u32; g];
        for (i, wg) in traces.into_iter().enumerate() {
            if wg.is_empty() {
                continue;
            }
            let gpm = i % g;
            let cu = next_cu[gpm];
            next_cu[gpm] = (cu + 1) % sim.cfg.gpm.cus;
            sim.gpms[gpm].cus[cu as usize].pipeline.push_workgroup(wg);
        }
        // Kick every CU.
        for gpm in 0..g as u32 {
            for cu in 0..sim.cfg.gpm.cus {
                sim.queue.push(0, Event::CuIssue { gpm, cu });
            }
        }
        sim
    }

    /// The active translation policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Per-GPM site-id stride for the L1-TLB range: at least 64 (the
    /// historical stride, kept so existing configurations number
    /// identically) and wide enough that a preset with more than 64 CUs per
    /// GPM cannot alias a neighbouring GPM's sites.
    #[cfg(feature = "probe")]
    fn cu_site_stride(&self) -> u64 {
        self.gpms
            .iter()
            .map(|g| g.cus.len() as u64)
            .max()
            .unwrap_or(0)
            .max(64)
    }

    /// First IOMMU site id (the IOMMU walker pool's), just past the
    /// per-CU L1-TLB range.
    #[cfg(feature = "probe")]
    pub(crate) fn iommu_site(&self) -> u64 {
        let g = self.gpms.len() as u64;
        g * 8 + g * self.cu_site_stride()
    }

    /// Attaches `sinks` to the engine and every model structure, in one
    /// pass over a fresh [`SiteTable`](wsg_sim::probe::SiteTable) that
    /// replaces any earlier attachment; audit builds always add the
    /// engine's own auditor. Returns the table.
    ///
    /// Site ids: GPM-local structures at `gpm*8 + slot` (L2 TLB 0, GMMU
    /// cache 1, walkers 2, cuckoo 3, HBM 4), per-CU L1 TLBs at
    /// `G*8 + gpm*S + cu` where the stride `S = max(64, CUs per GPM)`, and
    /// IOMMU structures from `G*8 + G*S` (walkers +0, redirection +1,
    /// TLB +2, TLB MSHR +3). Mesh links are named by their packed
    /// endpoints and mesh counters by tile index, outside the table.
    /// GPM-local counters are tagged with their wafer tile and IOMMU
    /// counters with the CPU tile; per-CU L1 TLBs are not sampled — the
    /// per-GPM L2s already capture the spatial picture at a fraction of the
    /// artifact size.
    ///
    /// Attach before [`Simulation::run`]; observation never changes
    /// metrics (`tests/trace_determinism.rs`,
    /// `tests/telemetry_determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if two structures would share a site id.
    #[cfg(feature = "probe")]
    pub fn attach(&mut self, sinks: wsg_sim::probe::Sinks) -> wsg_sim::probe::SiteTable {
        use wsg_sim::probe::CounterKind::{Counter, Gauge};
        use wsg_sim::probe::{SiteKind, SiteTable};
        #[cfg(feature = "audit")]
        let sinks = sinks.with_auditor(&self.auditor);
        let mut table = SiteTable::new(sinks);
        self.queue.attach_probe(table.unclaimed(SiteKind::Queue));
        self.mesh.attach_probe(table.unclaimed(SiteKind::Link));
        let g_total = self.gpms.len() as u64;
        let cu_stride = self.cu_site_stride();
        for (g, gpm) in self.gpms.iter_mut().enumerate() {
            let c = self.cfg.layout.coord_of(g as u32);
            let tile = Some((c.x, c.y));
            let g = g as u64;
            gpm.l2_tlb
                .attach_probe(table.claim(SiteKind::Tlb, g * 8, tile));
            gpm.gmmu_cache
                .attach_probe(table.claim(SiteKind::Tlb, g * 8 + 1, tile));
            gpm.walkers
                .attach_probe(table.claim(SiteKind::Walker, g * 8 + 2, tile));
            gpm.cuckoo
                .attach_probe(table.claim(SiteKind::Cuckoo, g * 8 + 3, tile));
            gpm.hbm
                .attach_probe(table.claim(SiteKind::Hbm, g * 8 + 4, tile));
            for (c, cu) in gpm.cus.iter_mut().enumerate() {
                let id = g_total * 8 + g * cu_stride + c as u64;
                cu.l1_tlb
                    .attach_probe(table.claim(SiteKind::Tlb, id, None).unsampled());
            }
        }
        let cpu = self.cfg.layout.cpu();
        let cpu_tile = Some((cpu.x, cpu.y));
        let base = self.iommu_site();
        let walkers = table.claim(SiteKind::Walker, base, cpu_tile);
        self.iommu.walkers.attach_probe(walkers);
        let redirection = table.claim(SiteKind::Redirection, base + 1, cpu_tile);
        self.iommu.redirection.attach_probe(redirection);
        if let Some(tlb) = &mut self.iommu.tlb {
            tlb.attach_probe(table.claim(SiteKind::Tlb, base + 2, cpu_tile));
        }
        if let Some(mshr) = &mut self.iommu.tlb_mshr {
            mshr.attach_probe(table.claim(SiteKind::Mshr, base + 3, cpu_tile));
        }
        let sinks = table.sinks().clone();
        self.counters = sinks.register("iommu.pre_queue", base, cpu_tile, Gauge);
        sinks.register("engine.ops_completed", 0, None, Counter);
        self.next_sample = sinks.next_sample_at();
        self.sinks = sinks;
        table
    }

    /// Publishes the engine's own counters into the telemetry recorder (a
    /// no-op without one). Called at each epoch boundary and once at the
    /// end of the run.
    #[cfg(feature = "probe")]
    fn publish_counters(&self) {
        self.sinks
            .set(self.counters, self.iommu.pre_queue.len() as u64);
        self.sinks
            .set(self.counters + 1, self.metrics.ops_completed);
    }

    /// Enables the streak-based page-migration extension (see
    /// [`crate::migration`]). Composes with any translation policy.
    pub fn with_migration(mut self, cfg: MigrationConfig) -> Self {
        self.migration = Some(cfg);
        self
    }

    /// The current home GPM of `vpn`: a migrated override if present,
    /// otherwise the static block placement.
    pub(crate) fn home_of(&self, vpn: Vpn) -> Option<u32> {
        self.home_override
            .get(vpn.0)
            .copied()
            .or_else(|| self.space.home_gpm(vpn))
    }

    /// The HDPAT configuration, if the active policy is in the HDPAT family.
    pub(crate) fn hdpat(&self) -> Option<HdpatConfig> {
        match self.policy {
            PolicyKind::Hdpat(h) => Some(h),
            _ => None,
        }
    }

    /// Runs the simulation to completion and returns the collected metrics.
    ///
    /// # Panics
    ///
    /// Panics if the event count explodes past a safety cap (indicating a
    /// scheduling bug rather than a big workload).
    pub fn run(mut self) -> Metrics {
        // lint:allow(wallclock): events-per-second accounting only; the
        // reading lands in `Metrics::host_wall_nanos`, which is excluded
        // from the deterministic serialization, and never feeds back into
        // the model.
        let wall_start = std::time::Instant::now();
        // Batched dispatch (DESIGN.md §16): drain one whole calendar bucket
        // per iteration instead of popping per event, amortizing the queue's
        // bitmap scan and clock bookkeeping. `drain_bucket` delivers the
        // exact per-pop `(time, payload)` stream — handlers scheduling more
        // work at `t` see it arrive in a later batch, just as later pops
        // would have delivered it.
        let mut batch: Vec<Event> = Vec::new();
        #[cfg(feature = "selfprof")]
        let (mut prof_dispatch, mut prof_handler) = (0u64, 0u64);
        loop {
            #[cfg(feature = "selfprof")]
            // selfprof phase timer; host-time buckets land in the ops sink
            // only, never in simulation state.
            let d0 = std::time::Instant::now(); // lint:allow(wallclock): selfprof phase timer, ops registry only
            let drained = self.queue.drain_bucket(&mut batch);
            #[cfg(feature = "selfprof")]
            {
                prof_dispatch += d0.elapsed().as_nanos() as u64;
            }
            if drained == 0 {
                break;
            }
            let t = self.queue.now();
            #[cfg(feature = "selfprof")]
            let h0 = std::time::Instant::now(); // lint:allow(wallclock): selfprof phase timer, ops registry only
            for ev in batch.drain(..) {
                self.dispatch(t, ev);
            }
            #[cfg(feature = "selfprof")]
            {
                prof_handler += h0.elapsed().as_nanos() as u64;
            }
            debug_assert!(self.queue.total_popped() < EVENT_CAP, "event explosion");
        }
        #[cfg(feature = "selfprof")]
        crate::ops::record_selfprof(prof_dispatch, prof_handler);
        self.finish(wall_start)
    }

    /// End-of-run checks and metrics finalization. Kept out of line: with
    /// this cold code inlined into [`Simulation::run`], the dispatch loop
    /// measured slower.
    #[inline(never)]
    fn finish(mut self, wall_start: std::time::Instant) -> Metrics {
        // All CUs must have drained; anything else is a lost-wakeup bug.
        for (g, gpm) in self.gpms.iter().enumerate() {
            for (c, cu) in gpm.cus.iter().enumerate() {
                if !cu.pipeline.is_drained() {
                    let stuck: Vec<String> = self
                        .reqs
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| {
                            !r.is_free()
                                && r.gpm == g as u32
                                && !r.resolved
                                && r.remote_started.is_some()
                        })
                        .map(|(i, r)| {
                            format!(
                                "req{i} vpn={} arr={:?} pw={:?} walk={:?} rdf={}",
                                r.vpn,
                                r.iommu_arrived,
                                r.pw_entered,
                                r.walk_started,
                                r.redirect_failed
                            )
                        })
                        .collect();
                    let parked = gpm.mshr_stalled.len();
                    let mshr: Vec<String> = gpm
                        .remote_mshr
                        .iter_sorted()
                        .map(|(v, w)| format!("{}:{}", Vpn(v), w.len()))
                        .collect();
                    panic!(
                        "CU {c} of GPM {g} stalled with work remaining; parked={parked} mshr={mshr:?} stuck={stuck:?} iommu_busy={} iommu_q={} pre_q={}",
                        self.iommu.walkers.busy(), self.iommu.walkers.queue_len(), self.iommu.pre_queue.len()
                    );
                }
            }
        }
        // Conservation: every scheduled event was consumed, and every
        // request slot was released.
        self.queue.drain_check();
        assert_eq!(
            self.reqs.live(),
            0,
            "request slots still referenced at the end of the run"
        );
        // Runtime invariants: the auditor saw a clean run.
        #[cfg(feature = "audit")]
        {
            let total = self.auditor.borrow_mut().finish();
            assert_eq!(
                total,
                0,
                "runtime invariant violations: {:#?}",
                self.auditor.borrow().violations()
            );
        }
        // Close the telemetry recording at the last event time: sample any
        // remaining whole epochs plus the trailing partial one.
        #[cfg(feature = "probe")]
        {
            self.publish_counters();
            self.sinks.finalize(self.queue.now());
        }
        self.metrics.total_cycles = self.metrics.gpm_finish.iter().copied().max().unwrap_or(0);
        self.metrics.sim_events = self.queue.total_popped();
        self.metrics.host_wall_nanos = wall_start.elapsed().as_nanos() as u64;
        self.metrics.noc_bytes = self.mesh.total_bytes();
        self.metrics.noc_hop_bytes = self.mesh.total_hop_bytes();
        self.metrics.noc_packets = self.mesh.total_packets();
        // Fold the per-stage latency distributions into the metrics. This
        // does not touch `to_deterministic_string`, so traced and untraced
        // runs serialize identically (DESIGN.md §10).
        #[cfg(feature = "trace")]
        if let Some(summary) = self.sinks.with_trace_sink(|s| {
            s.stage_summary()
                .into_iter()
                .map(|(stage, stats)| (stage.to_string(), stats))
                .collect()
        }) {
            self.metrics.stage_latency = summary;
        }
        self.metrics
    }

    fn dispatch(&mut self, t: Cycle, ev: Event) {
        let req = ev.req();
        #[cfg(feature = "probe")]
        {
            // Sample telemetry epochs lazily off the event stream rather
            // than via scheduled events: the queue's sequence numbers and
            // popped count stay exactly as in a telemetry-off run, and state
            // cannot change between events, so sampling at the first event
            // past an epoch boundary observes the same values an
            // end-of-epoch probe would have.
            if t >= self.next_sample {
                self.publish_counters();
                self.next_sample = self.sinks.sample_up_to(t);
            }
            // Stamp the (cycle, request) context so leaf-structure probes
            // can emit instants without the engine threading either value
            // through.
            self.sinks.context(t, req.map(|r| self.reqs[r].serial));
        }
        match ev {
            Event::CuIssue { gpm, cu } => self.on_cu_issue(t, gpm, cu),
            Event::GmmuWalkDone { gpm, req } => self.on_gmmu_walk_done(t, gpm, req),
            Event::GmmuRetry { gpm, req } => self.submit_gmmu_walk(t, gpm, req),
            Event::ChainProbe { req, idx } => self.on_chain_probe(t, req, idx),
            Event::ParallelProbe {
                req,
                target,
                innermost,
            } => self.on_parallel_probe(t, req, target, innermost),
            Event::IommuArrive { req } => self.on_iommu_arrive(t, req),
            Event::IommuWalkDone { req } => self.on_iommu_walk_done(t, req),
            Event::RedirectArrive { req, holder } => self.on_redirect_arrive(t, req, holder),
            Event::PushArrive {
                gpm,
                vpn,
                pfn,
                prefetched,
            } => self.on_push_arrive(gpm, vpn, pfn, prefetched),
            Event::XlatResponse { req, pfn, source } => self.on_xlat_response(t, req, pfn, source),
            Event::DataAtHome { req, home } => self.on_data_at_home(t, req, home),
            Event::DataReturn { req, home } => self.on_data_return(t, req, home),
            Event::DataDone { req } => self.on_data_done(t, req),
        }
        if let Some(r) = req {
            self.reqs.release(r);
        }
    }

    /// Schedules `ev` to fire at absolute cycle `time`, holding its request
    /// slot until the event is dispatched. Every handler goes through this
    /// seam.
    #[inline]
    pub(crate) fn schedule(&mut self, time: Cycle, ev: Event) {
        if let Some(r) = ev.req() {
            self.reqs.hold(r);
        }
        self.queue.push(time, ev);
    }

    /// Sends `ev` as a packet of `bytes` from tile `from` to tile `to`,
    /// scheduling it at the mesh-computed arrival time.
    pub(crate) fn send(&mut self, from: Coord, to: Coord, bytes: u64, depart: Cycle, ev: Event) {
        let out = self.mesh.send(from, to, bytes, depart);
        self.schedule(out.arrival, ev);
    }

    /// The tile of GPM `id`.
    pub(crate) fn gpm_coord(&self, id: u32) -> Coord {
        self.cfg.layout.coord_of(id)
    }

    /// The CPU tile (IOMMU location).
    pub(crate) fn cpu(&self) -> Coord {
        self.cfg.layout.cpu()
    }

    fn on_cu_issue(&mut self, t: Cycle, gpm: u32, cu: u32) {
        let slot = &mut self.gpms[gpm as usize].cus[cu as usize];
        let Some((issue_at, _)) = slot.pipeline.next_issue(t) else {
            return;
        };
        let op = slot.pipeline.issue(issue_at);
        let vpn = self.cfg.page_size.vpn_of(op.vaddr);
        let req = self.reqs.alloc(Request {
            gpm,
            cu,
            op,
            vpn,
            #[cfg(feature = "probe")]
            issued: issue_at,
            remote_started: None,
            iommu_arrived: None,
            pw_entered: None,
            walk_started: None,
            probed: Vec::new(),
            redirect_failed: false,
            resolved: false,
            done: false,
            refs: 0,
            #[cfg(feature = "probe")]
            serial: 0,
        });
        #[cfg(feature = "probe")]
        {
            self.sinks.context(issue_at, Some(self.reqs[req].serial));
            self.sinks.instant(gpm as u64, "issue", vpn.0);
        }
        self.start_translation(issue_at, req);
        // Chain the next issue: gaps accumulate from this issue time.
        self.schedule(issue_at, Event::CuIssue { gpm, cu });
    }

    fn on_data_done(&mut self, t: Cycle, req: ReqId) {
        let r = &self.reqs[req];
        let (g, c) = (r.gpm, r.cu);
        self.reqs.retire(req);
        self.gpms[g as usize].cus[c as usize]
            .pipeline
            .complete_at(t);
        self.metrics.ops_completed += 1;
        let f = &mut self.metrics.gpm_finish[g as usize];
        *f = (*f).max(t);
        self.schedule(t, Event::CuIssue { gpm: g, cu: c });
    }
}

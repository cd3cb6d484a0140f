//! GPM-side translation path and policy-specific remote resolution.

use wsg_sim::Cycle;
use wsg_xlat::{Pfn, SubmitResult, Vpn};

use crate::metrics::Resolution;
use crate::policy::PolicyKind;

use super::{Event, ReqId, Simulation, CUCKOO_LATENCY, PROBE_OVERHEAD, RETRY_BACKOFF};

impl Simulation {
    /// Walks a just-issued request down the local translation hierarchy
    /// (Fig 1b): L1 TLB → L2 TLB → cuckoo filter → GMMU cache → GMMU
    /// walkers, falling over to the remote path when the page is not local.
    pub(crate) fn start_translation(&mut self, t: Cycle, req: ReqId) {
        let (gpm_id, cu, vpn) = {
            let r = &self.reqs[req];
            (r.gpm, r.cu, r.vpn)
        };
        let gc = self.cfg.gpm;
        let gpm = &mut self.gpms[gpm_id as usize];

        // L1 TLB.
        let t1 = t + gc.l1_tlb.latency;
        if let Some(pfn) = gpm.cus[cu as usize].l1_tlb.lookup(vpn) {
            self.metrics.local_translations += 1;
            self.start_data(t1, req, pfn);
            return;
        }
        // L2 TLB.
        let t2 = t1 + gc.l2_tlb.latency;
        if let Some(pfn) = gpm.l2_tlb.lookup(vpn) {
            self.metrics.local_translations += 1;
            gpm.cus[cu as usize].l1_tlb.fill(vpn, pfn, false);
            self.start_data(t2, req, pfn);
            return;
        }
        // Cuckoo filter: definite-absence check for the local structures.
        let t3 = t2 + CUCKOO_LATENCY;
        if gpm.cuckoo.contains(vpn.0) {
            let t4 = t3 + gc.gmmu_cache.latency;
            if let Some((pfn, prefetched)) = gpm.gmmu_cache.lookup_meta(vpn) {
                self.metrics.local_translations += 1;
                if prefetched {
                    self.metrics.prefetches_used += 1;
                }
                gpm.l2_tlb.fill(vpn, pfn, false);
                gpm.cus[cu as usize].l1_tlb.fill(vpn, pfn, false);
                self.start_data(t4, req, pfn);
                return;
            }
            if !gpm.page_table.contains(vpn) {
                // False positive: the filter promised locality the page
                // table cannot honour. The request still pays the full
                // local walk before going remote (§II-B case 3).
                self.metrics.cuckoo_false_positives += 1;
            }
            self.submit_gmmu_walk(t4, gpm_id, req);
        } else {
            // Definite miss: bypass the local walk entirely (§II-B case 1).
            self.start_remote(t3, req, false);
        }
    }

    /// Submits a GMMU page-table walk, queueing or backing off when the
    /// walker pool is saturated.
    pub(crate) fn submit_gmmu_walk(&mut self, t: Cycle, gpm_id: u32, req: ReqId) {
        let walk_latency = self.cfg.gpm.walk_latency;
        let gpm = &mut self.gpms[gpm_id as usize];
        match gpm.walkers.submit(req) {
            SubmitResult::Started => {
                self.schedule(t + walk_latency, Event::GmmuWalkDone { gpm: gpm_id, req });
            }
            SubmitResult::Queued => self.reqs.hold(req),
            SubmitResult::Rejected => {
                self.schedule(t + RETRY_BACKOFF, Event::GmmuRetry { gpm: gpm_id, req });
            }
        }
    }

    /// A GMMU walk finished at `gpm_id`. Resolves locally mapped pages,
    /// falls over to the remote path for cuckoo false positives, and replies
    /// to the requester for forwarded (Trans-FW / probe-walk) requests.
    pub(crate) fn on_gmmu_walk_done(&mut self, t: Cycle, gpm_id: u32, req: ReqId) {
        let walk_latency = self.cfg.gpm.walk_latency;
        // Free the walker; a promoted queue head starts walking now.
        if let Some(next) = self.gpms[gpm_id as usize].walkers.finish() {
            self.schedule(
                t + walk_latency,
                Event::GmmuWalkDone {
                    gpm: gpm_id,
                    req: next,
                },
            );
            self.reqs.release(next);
        }
        self.metrics.local_walks += 1;
        let vpn = self.reqs[req].vpn;
        let pte = self.gpms[gpm_id as usize].page_table.translate(vpn);
        // A finishing walk satisfies identical queued walks too (the GMMU's
        // MSHRs merge same-VPN walks).
        let mut dups = std::mem::take(&mut self.walk_scratch);
        {
            let reqs = &self.reqs;
            self.gpms[gpm_id as usize]
                .walkers
                .drain_matching_into(|r| reqs[*r].vpn == vpn, &mut dups);
        }
        for &dup in &dups {
            self.finish_gmmu_walk(t, gpm_id, dup, vpn, pte);
            self.reqs.release(dup);
        }
        dups.clear();
        self.walk_scratch = dups;
        self.finish_gmmu_walk(t, gpm_id, req, vpn, pte);
    }

    /// Completes one GMMU walk outcome for `req` (shared by the walked
    /// request and any same-VPN walks it satisfied).
    fn finish_gmmu_walk(
        &mut self,
        t: Cycle,
        gpm_id: u32,
        req: ReqId,
        vpn: Vpn,
        pte: Option<wsg_xlat::Pte>,
    ) {
        let requester = self.reqs[req].gpm;
        match pte {
            Some(pte) => {
                self.fill_gmmu_cache(gpm_id, vpn, pte.pfn, false);
                if requester == gpm_id {
                    // Local translation completed. The request may have gone
                    // remote earlier (cuckoo false negative) and hold an
                    // MSHR entry, so completion goes through the common
                    // delivery path.
                    self.metrics.local_translations += 1;
                    self.deliver_translation(t, req, pte.pfn);
                } else {
                    // Forwarded walk on behalf of a remote requester.
                    let from = self.gpm_coord(gpm_id);
                    let to = self.gpm_coord(requester);
                    let bytes = self.cfg.xlat_resp_bytes;
                    self.send(
                        from,
                        to,
                        bytes,
                        t,
                        Event::XlatResponse {
                            req,
                            pfn: pte.pfn,
                            source: Resolution::PeerCache,
                        },
                    );
                }
            }
            None => {
                if requester == gpm_id {
                    // False-positive local walk: now go remote.
                    self.start_remote(t, req, false);
                } else {
                    // Forwarded walk missed (stale forward): escalate to the
                    // IOMMU.
                    let from = self.gpm_coord(gpm_id);
                    let cpu = self.cpu();
                    let bytes = self.cfg.xlat_req_bytes;
                    self.send(from, cpu, bytes, t, Event::IommuArrive { req });
                }
            }
        }
    }

    /// Starts the remote (non-local) translation path according to the
    /// active policy. `is_retry` suppresses double-counting when re-entering
    /// after back-pressure.
    pub(crate) fn start_remote(&mut self, t: Cycle, req: ReqId, is_retry: bool) {
        let (gpm_id, vpn) = {
            let r = &self.reqs[req];
            (r.gpm, r.vpn)
        };
        let mshr_cap = self.cfg.gpm.l2_tlb.mshrs.max(1);
        {
            let gpm = &mut self.gpms[gpm_id as usize];
            if let Some(waiters) = gpm.remote_mshr.get_mut(vpn.0) {
                // An identical request is in flight: coalesce (secondary
                // miss in the L2 TLB MSHR).
                waiters.push(req);
                self.reqs.hold(req);
                self.metrics.remote_coalesced += 1;
                return;
            }
            if gpm.remote_mshr.len() >= mshr_cap {
                // All MSHRs busy: park the request; it re-enters when an
                // entry frees (no polling).
                self.metrics.remote_retries += 1;
                gpm.mshr_stalled.push_back(req);
                self.reqs.hold(req);
                return;
            }
            gpm.remote_mshr.insert(vpn.0, Vec::new());
        }
        if !is_retry || self.reqs[req].remote_started.is_none() {
            self.metrics.remote_requests += 1;
        }
        self.reqs[req].remote_started = Some(t);

        let from = self.gpm_coord(gpm_id);
        let cpu = self.cpu();
        let req_bytes = self.cfg.xlat_req_bytes;
        match self.policy {
            PolicyKind::Naive | PolicyKind::Barre => {
                self.send(from, cpu, req_bytes, t, Event::IommuArrive { req });
            }
            PolicyKind::TransFw => {
                // Trans-FW is modelled the way the HDPAT paper positions it:
                // a local/IOMMU-side optimization (in-flight result
                // forwarding at the IOMMU); remote requests still converge
                // on the IOMMU. See DESIGN.md §1.
                self.send(from, cpu, req_bytes, t, Event::IommuArrive { req });
            }
            PolicyKind::RouteCache { .. }
            | PolicyKind::Concentric { .. }
            | PolicyKind::Distributed
            | PolicyKind::Valkyrie => {
                // The chain lives in the frozen per-GPM `chains` slab; probes
                // carry only `(req, idx)` and index back into it, so nothing
                // is cloned into the request.
                match self.chains[gpm_id as usize].first().copied() {
                    None => self.send(from, cpu, req_bytes, t, Event::IommuArrive { req }),
                    Some(first) => {
                        let to = self.gpm_coord(first);
                        self.send(from, to, req_bytes, t, Event::ChainProbe { req, idx: 0 });
                    }
                }
            }
            PolicyKind::Hdpat(_) => {
                let map = self.concentric.as_ref().expect("HDPAT needs layer map");
                let targets = map.aux_gpms(vpn); // innermost first
                for i in 0..targets.len() {
                    let target = targets[i];
                    // Dedup against the already-probed prefix (layers can
                    // collapse onto one GPM near the wafer edge) — the list
                    // is Table-I small, so the scan needs no side set.
                    if targets[..i].contains(&target) {
                        continue;
                    }
                    let innermost = i == 0;
                    let to = self.gpm_coord(target);
                    self.send(
                        from,
                        to,
                        req_bytes,
                        t,
                        Event::ParallelProbe {
                            req,
                            target,
                            innermost,
                        },
                    );
                }
            }
        }
    }

    /// Probes the translation structures of `target` on behalf of `req`.
    /// Returns `Some((pfn, prefetched, extra_latency))` on a cache hit,
    /// `None` on a miss (after `extra_latency` has been charged by the
    /// caller via the returned latency in the miss path below).
    fn probe_gpm(&mut self, target: u32, vpn: Vpn) -> (Option<(Pfn, bool)>, Cycle) {
        let gc = self.cfg.gpm;
        // Valkyrie probes the neighbour's L2 TLB rather than its GMMU cache.
        if matches!(self.policy, PolicyKind::Valkyrie) {
            let lat = gc.l2_tlb.latency;
            let hit = self.gpms[target as usize]
                .l2_tlb
                .probe(vpn)
                .map(|p| (p, false));
            return (hit, lat);
        }
        let gpm = &mut self.gpms[target as usize];
        let mut lat = CUCKOO_LATENCY;
        if !gpm.cuckoo.contains(vpn.0) {
            return (None, lat);
        }
        lat += gc.gmmu_cache.latency;
        (gpm.gmmu_cache.lookup_meta(vpn), lat)
    }

    /// A serial probe (route / concentric / distributed / Valkyrie /
    /// Trans-FW) arrives at `chain[idx]`.
    pub(crate) fn on_chain_probe(&mut self, t: Cycle, req: ReqId, idx: usize) {
        let (vpn, requester) = {
            let r = &self.reqs[req];
            (r.vpn, r.gpm)
        };
        let target = self.chains[requester as usize][idx];
        let (hit, mut lat) = self.probe_gpm(target, vpn);
        lat += PROBE_OVERHEAD;
        let resp_bytes = self.cfg.xlat_resp_bytes;
        let req_bytes = self.cfg.xlat_req_bytes;
        if let Some((pfn, prefetched)) = hit {
            let from = self.gpm_coord(target);
            let to = self.gpm_coord(requester);
            let source = if prefetched {
                Resolution::Proactive
            } else {
                Resolution::PeerCache
            };
            self.send(
                from,
                to,
                resp_bytes,
                t + lat,
                Event::XlatResponse { req, pfn, source },
            );
            return;
        }
        // The probed GPM may own the page (route-based caching checks the
        // local page table too; Trans-FW forwards the walk here on purpose).
        if self.gpms[target as usize].page_table.contains(vpn) {
            self.submit_gmmu_walk(t + lat, target, req);
            return;
        }
        self.reqs[req].probed.push(target);
        let next = idx + 1;
        let from = self.gpm_coord(target);
        if let Some(next_gpm) = self.chains[requester as usize].get(next).copied() {
            let to = self.gpm_coord(next_gpm);
            self.send(
                from,
                to,
                req_bytes,
                t + lat,
                Event::ChainProbe { req, idx: next },
            );
        } else {
            let cpu = self.cpu();
            self.send(from, cpu, req_bytes, t + lat, Event::IommuArrive { req });
        }
    }

    /// An HDPAT concurrent layer probe arrives at `target` (§IV-D): hit →
    /// reply; miss at the innermost layer → forward to the IOMMU; miss at an
    /// outer layer → drop (the innermost copy of the probe carries on).
    pub(crate) fn on_parallel_probe(&mut self, t: Cycle, req: ReqId, target: u32, innermost: bool) {
        let (vpn, requester) = {
            let r = &self.reqs[req];
            (r.vpn, r.gpm)
        };
        let (hit, lat) = self.probe_gpm(target, vpn);
        if let Some((pfn, prefetched)) = hit {
            let from = self.gpm_coord(target);
            let to = self.gpm_coord(requester);
            let bytes = self.cfg.xlat_resp_bytes;
            let source = if prefetched {
                Resolution::Proactive
            } else {
                Resolution::PeerCache
            };
            self.send(
                from,
                to,
                bytes,
                t + lat,
                Event::XlatResponse { req, pfn, source },
            );
            return;
        }
        if self.gpms[target as usize].page_table.contains(vpn) {
            // The aux GPM happens to own the page: serve it with a local walk.
            self.submit_gmmu_walk(t + lat, target, req);
            return;
        }
        if innermost {
            let from = self.gpm_coord(target);
            let cpu = self.cpu();
            let bytes = self.cfg.xlat_req_bytes;
            self.send(from, cpu, bytes, t + lat, Event::IommuArrive { req });
        }
    }

    /// The final translation response arrives back at the requesting GPM:
    /// record the resolution, fill the TLBs, release the MSHR waiters, and
    /// start every coalesced request's data access.
    pub(crate) fn on_xlat_response(&mut self, t: Cycle, req: ReqId, pfn: Pfn, source: Resolution) {
        if self.reqs[req].resolved {
            return; // a faster concurrent probe already answered
        }
        self.metrics.record_resolution(source);
        if source == Resolution::Proactive {
            self.metrics.prefetches_used += 1;
        }
        if let Some(start) = self.reqs[req].remote_started {
            let rtt = (t - start) as f64;
            self.metrics.remote_rtt.record(rtt);
            // The "remote" span covers exactly this interval, so a trace's
            // per-stage sum reconciles with the remote_rtt summary.
            #[cfg(feature = "probe")]
            {
                let r = &self.reqs[req];
                self.sinks
                    .span(r.gpm as u64, "remote", start, t - start, r.vpn.0);
            }
            match source {
                Resolution::PeerCache => self.metrics.rtt_peer.record(rtt),
                Resolution::Redirection => self.metrics.rtt_redirection.record(rtt),
                Resolution::Proactive => self.metrics.rtt_proactive.record(rtt),
                Resolution::Iommu => self.metrics.rtt_iommu.record(rtt),
            }
        }
        self.deliver_translation(t, req, pfn);
    }

    /// Delivers a completed translation to the requesting GPM: marks the
    /// request resolved, fills its TLBs, starts the data access, releases
    /// every request coalesced behind it, and admits parked requests into
    /// the freed MSHR entry.
    pub(crate) fn deliver_translation(&mut self, t: Cycle, req: ReqId, pfn: Pfn) {
        self.reqs[req].resolved = true;
        let (gpm_id, cu, vpn) = {
            let r = &self.reqs[req];
            (r.gpm, r.cu, r.vpn)
        };
        // Whole-translation span: issue to PFN delivery at the requester.
        // A request issued ahead of the current event time can be completed
        // by an earlier same-VPN walk that drained it from the GMMU queue,
        // so the span clamps at zero instead of underflowing.
        #[cfg(feature = "probe")]
        {
            let issued = self.reqs[req].issued;
            self.sinks.span(
                gpm_id as u64,
                "xlat",
                issued,
                t.saturating_sub(issued),
                vpn.0,
            );
        }

        // Opportunistic fill of the GPMs probed on the way (route-based and
        // concentric caching store the PTE as the response returns, §IV-B/C).
        let fill_probed = matches!(
            self.policy,
            PolicyKind::RouteCache { .. } | PolicyKind::Concentric { .. } | PolicyKind::Distributed
        );
        if fill_probed {
            // Cleared in place, so a recycled slot keeps the capacity.
            for i in 0..self.reqs[req].probed.len() {
                let target = self.reqs[req].probed[i];
                self.fill_gmmu_cache(target, vpn, pfn, false);
            }
            self.reqs[req].probed.clear();
        }
        {
            let gpm = &mut self.gpms[gpm_id as usize];
            gpm.l2_tlb.fill(vpn, pfn, false);
            gpm.cus[cu as usize].l1_tlb.fill(vpn, pfn, false);
        }
        self.start_data(t, req, pfn);
        // Release coalesced waiters.
        let waiters = self.gpms[gpm_id as usize]
            .remote_mshr
            .remove(vpn.0)
            .unwrap_or_default();
        for w in waiters {
            self.reqs[w].resolved = true;
            let wcu = self.reqs[w].cu;
            self.gpms[gpm_id as usize].cus[wcu as usize]
                .l1_tlb
                .fill(vpn, pfn, false);
            self.start_data(t, w, pfn);
            self.reqs.release(w);
        }
        // The freed MSHR entry admits parked requests (each pop either
        // allocates the freed entry or coalesces into a live one).
        let mshr_cap = self.cfg.gpm.l2_tlb.mshrs.max(1);
        while self.gpms[gpm_id as usize].remote_mshr.len() < mshr_cap {
            let Some(w) = self.gpms[gpm_id as usize].mshr_stalled.pop_front() else {
                break;
            };
            self.start_remote(t, w, true);
            self.reqs.release(w);
        }
    }

    /// Fills a GPM's GMMU cache with a (possibly remote) PTE, maintaining
    /// the cuckoo filter: the new VPN is inserted, and an evicted VPN that
    /// is not in the local page table is removed from the filter.
    pub(crate) fn fill_gmmu_cache(&mut self, gpm_id: u32, vpn: Vpn, pfn: Pfn, prefetched: bool) {
        let gpm = &mut self.gpms[gpm_id as usize];
        let was_present = gpm.gmmu_cache.probe(vpn).is_some();
        let evicted = if prefetched {
            gpm.gmmu_cache.fill_speculative(vpn, pfn)
        } else {
            gpm.gmmu_cache.fill(vpn, pfn, false)
        };
        // Keep the filter paired 1:1 with cache residency: insert only on a
        // fresh fill (a refresh must not duplicate the fingerprint — a later
        // eviction would remove one copy and leave a phantom), and remove
        // only entries that were inserted (local pages were inserted at
        // startup and never leave).
        if !was_present && !gpm.page_table.contains(vpn) {
            gpm.cuckoo.insert(vpn.0);
        }
        if let Some((evpn, _)) = evicted {
            if !gpm.page_table.contains(evpn) {
                gpm.cuckoo.remove(evpn.0);
            }
        }
    }

    /// A pushed PTE (demand or proactive) arrives at an auxiliary GPM.
    pub(crate) fn on_push_arrive(&mut self, gpm_id: u32, vpn: Vpn, pfn: Pfn, prefetched: bool) {
        self.fill_gmmu_cache(gpm_id, vpn, pfn, prefetched);
    }
}

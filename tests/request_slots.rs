//! Lifetime goldens for the engine's request-slot table (DESIGN.md §16.5).
//!
//! Request ids are recycled slots, and several paths keep an id after its
//! request resolved: probed-GPM fills of the chain policies, the Fig 19
//! IOMMU-TLB MSHRs and stall queue, page migration, Trans-FW's in-flight
//! table and Barre's PW-queue revisit. A slot freed too early would let a
//! stale id read or write another request's state and change the metrics,
//! so each of those paths is pinned here at bench scale — the fig14 golden
//! does not cover them — on SPMV and PageRank, two irregular-gather
//! workloads. Debug builds additionally poison freed slots, so a stale read
//! panics instead of silently diverging.
//!
//! Goldens live in `tests/golden/request_slots/`. On a mismatch the actual
//! serialization is written next to the build output as
//! `target/request_slots/<name>.actual`, for diffing.

use std::path::PathBuf;

use hdpat::MigrationConfig;
use hdpat_wafer::prelude::*;

/// SPMV (uniform x-vector gather) and PR (power-law rank gather).
const BENCHES: [(&str, BenchmarkId); 2] = [("spmv", BenchmarkId::Spmv), ("pr", BenchmarkId::Pr)];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/request_slots")
}

/// Runs `policy` (optionally with page migration) on each benchmark at
/// bench scale and compares the deterministic metrics with the goldens.
fn check(name: &str, policy: PolicyKind, migration: Option<MigrationConfig>) {
    let mut mismatched = Vec::new();
    for (token, bench) in BENCHES {
        let cfg = RunConfig::new(bench, Scale::Bench, policy);
        let mut sim = Simulation::new(cfg.system, policy, bench, Scale::Bench, cfg.seed);
        if let Some(m) = migration {
            sim = sim.with_migration(m);
        }
        let got = sim.run().to_deterministic_string();
        let file = format!("{name}_{token}.txt");
        let want = std::fs::read_to_string(golden_dir().join(&file)).unwrap_or_default();
        if got != want {
            let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/request_slots");
            std::fs::create_dir_all(&out).expect("create target/request_slots");
            std::fs::write(out.join(format!("{file}.actual")), &got).expect("write actual");
            mismatched.push(file);
        }
    }
    assert!(
        mismatched.is_empty(),
        "metrics differ from tests/golden/request_slots/{mismatched:?} \
         (actual output in target/request_slots/)"
    );
}

#[test]
fn route_cache_fills_probed_gpms() {
    check("route", PolicyKind::RouteCache { caching_layers: 2 }, None);
}

#[test]
fn concentric_fills_probed_gpms() {
    check(
        "concentric",
        PolicyKind::Concentric { caching_layers: 2 },
        None,
    );
}

#[test]
fn distributed_fills_probed_gpms() {
    check("distributed", PolicyKind::Distributed, None);
}

#[test]
fn hdpat_iommu_tlb_mshr_and_stall_queue() {
    check(
        "hdpat_tlb",
        PolicyKind::Hdpat(HdpatConfig::with_iommu_tlb()),
        None,
    );
}

#[test]
fn hdpat_with_migration() {
    check(
        "hdpat_migration",
        PolicyKind::hdpat(),
        Some(MigrationConfig::default_streak()),
    );
}

#[test]
fn transfw_inflight_forwarding() {
    check("transfw", PolicyKind::TransFw, None);
}

#[test]
fn barre_queue_revisit() {
    check("barre", PolicyKind::Barre, None);
}

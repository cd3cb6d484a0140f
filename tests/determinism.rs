//! Byte-for-byte determinism of the end-to-end pipeline: the same
//! `(benchmark, seed)` run twice must serialize to identical metrics, down to
//! the last byte. This is stronger than the spot checks in
//! `tests/invariants.rs` — it covers every metric field at once, including
//! the histogram and time-series internals.

use hdpat_wafer::prelude::*;

fn metrics_bytes(bench: BenchmarkId, policy: PolicyKind, seed: u64) -> String {
    run(&RunConfig::new(bench, Scale::Unit, policy).with_seed(seed)).to_deterministic_string()
}

#[test]
fn same_seed_serializes_byte_identical_metrics() {
    for policy in [PolicyKind::Naive, PolicyKind::hdpat()] {
        for bench in [BenchmarkId::Km, BenchmarkId::Spmv] {
            let first = metrics_bytes(bench, policy, 7);
            let second = metrics_bytes(bench, policy, 7);
            assert_eq!(
                first, second,
                "{bench} under {policy} is not byte-for-byte deterministic"
            );
        }
    }
}

#[test]
fn different_seeds_serialize_differently() {
    // Guards against the serializer degenerating into something constant.
    let a = metrics_bytes(BenchmarkId::Spmv, PolicyKind::Naive, 1);
    let b = metrics_bytes(BenchmarkId::Spmv, PolicyKind::Naive, 2);
    assert_ne!(a, b, "seed must reach the serialized metrics");
}

#[test]
fn serializer_covers_the_headline_fields() {
    let text = metrics_bytes(BenchmarkId::Km, PolicyKind::hdpat(), 7);
    for field in [
        "total_cycles:",
        "gpm_finish:",
        "resolution:",
        "iommu_reuse.counts:",
        "remote_rtt:",
        "noc_bytes:",
    ] {
        assert!(text.contains(field), "serialized metrics miss {field}");
    }
}

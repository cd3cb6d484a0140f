//! Out-of-band probes for the traced run: each replays a workload's own
//! inputs through one layer's public API and times it from outside.
//!
//! * Component probes drive `Tlb`, `PageTable`, `CuckooFilter` and `Mesh`
//!   with the workload's generated VPN stream and requester→home routes,
//!   configured as in the point's `RunConfig`.
//! * The serving probe stores the workload's results in a `DiskCache`
//!   (the second half under a budget, so those inserts evict), reads them
//!   back, renders and parses their wire responses, and serves the resident
//!   ones from a `Daemon`.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hdpat::experiments::{DiskCache, DiskCacheStats, RunConfig};
use hdpat::serve::json::Json;
use hdpat::serve::proto::{self, Request, Source};
use hdpat::Metrics;
use wsg_noc::Mesh;
use wsg_xlat::{CuckooFilter, PageTable, Pfn, Tlb};

use crate::points::{self, Point};
use crate::serve_client::{self, Snapshot};
use crate::stats::Tally;

/// Operations replayed per probed point: enough for a stable ns/op while
/// keeping full-scale probes to a fraction of a second per component.
const PROBE_OPS_PER_POINT: usize = 1 << 20;

/// Translation request size on the mesh, in bytes.
const PROBE_PACKET_BYTES: u64 = 64;

/// Host nanoseconds per operation of each probed component.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComponentNs {
    /// `Tlb::lookup`, plus `Tlb::fill` on a miss.
    pub tlb_lookup: f64,
    /// `PageTable::translate`.
    pub page_table_translate: f64,
    /// `CuckooFilter::contains`.
    pub cuckoo_contains: f64,
    /// `Mesh::send`.
    pub mesh_send: f64,
}

#[derive(Default)]
struct Acc {
    ns: [u128; 4],
    ops: u64,
}

/// Replays each config's generated op stream through the four components.
pub fn components(cfgs: &[RunConfig]) -> ComponentNs {
    let mut acc = Acc::default();
    for cfg in cfgs {
        replay(cfg, &mut acc);
    }
    let per = |i: usize| acc.ns[i] as f64 / acc.ops.max(1) as f64;
    ComponentNs {
        tlb_lookup: per(0),
        page_table_translate: per(1),
        cuckoo_contains: per(2),
        mesh_send: per(3),
    }
}

fn replay(cfg: &RunConfig, acc: &mut Acc) {
    let (space, traces) = points::generate(cfg);
    let sys = &cfg.system;
    let gpms = sys.gpm_count();
    let page_size = space.page_size();
    // (requester GPM, vpn, home GPM): workgroup i runs on GPM i mod G, as
    // `Simulation::with_traces` places it.
    let stream: Vec<(u32, wsg_xlat::Vpn, u32)> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, wg)| {
            let gpm = (i % gpms) as u32;
            wg.ops
                .iter()
                .map(move |op| (gpm, page_size.vpn_of(op.vaddr)))
        })
        .take(PROBE_OPS_PER_POINT)
        .map(|(gpm, vpn)| (gpm, vpn, space.home_gpm(vpn).unwrap_or(gpm)))
        .collect();

    let mut table = PageTable::with_capacity(space.total_pages() as usize);
    let mut filters: Vec<CuckooFilter> = (0..gpms)
        .map(|_| CuckooFilter::with_capacity(sys.gpm.cuckoo_capacity))
        .collect();
    for (vpn, home) in space.iter_pages() {
        table.map(vpn, Pfn(vpn.0), home);
        filters[home as usize].insert(vpn.0);
    }
    let mut tlbs: Vec<Tlb> = (0..gpms).map(|_| Tlb::new(sys.gpm.l1_tlb)).collect();
    let mut mesh = Mesh::new(sys.layout.width(), sys.layout.height(), sys.link);

    let t = Instant::now();
    for &(gpm, vpn, _) in &stream {
        let tlb = &mut tlbs[gpm as usize];
        if black_box(tlb.lookup(vpn)).is_none() {
            tlb.fill(vpn, Pfn(vpn.0), false);
        }
    }
    acc.ns[0] += t.elapsed().as_nanos();

    let t = Instant::now();
    for &(_, vpn, _) in &stream {
        black_box(table.translate(vpn));
    }
    acc.ns[1] += t.elapsed().as_nanos();

    let t = Instant::now();
    for &(gpm, vpn, _) in &stream {
        black_box(filters[gpm as usize].contains(vpn.0));
    }
    acc.ns[2] += t.elapsed().as_nanos();

    let coords: Vec<_> = (0..gpms as u32).map(|g| sys.layout.coord_of(g)).collect();
    let t = Instant::now();
    for (cycle, &(gpm, _, home)) in stream.iter().enumerate() {
        black_box(mesh.send(
            coords[gpm as usize],
            coords[home as usize],
            PROBE_PACKET_BYTES,
            cycle as u64,
        ));
    }
    acc.ns[3] += t.elapsed().as_nanos();
    acc.ops += stream.len() as u64;
}

/// Per-operation costs of the serving layers on a workload's results.
#[derive(Debug, Clone, Default)]
pub struct Serving {
    /// `RunConfig::fingerprint`, µs.
    pub fingerprint_us: f64,
    /// `DiskCache::get` that hits, µs.
    pub get_us: f64,
    /// `DiskCache::insert` that evicts nothing, µs.
    pub insert_us: f64,
    /// `DiskCache::insert` that evicts, µs.
    pub insert_evict_us: f64,
    /// Store counters over the probe.
    pub disk: DiskCacheStats,
    /// `Json::parse` of one result line, µs.
    pub json_parse_us: f64,
    /// `Json::parse` throughput, MB/s.
    pub json_mb_per_s: f64,
    /// Mean result line size, KB.
    pub response_kb: f64,
    /// `Request::parse` of one submit line, µs.
    pub proto_parse_us: f64,
    /// Daemon-side timings of serving the resident results plus one
    /// simulated point, from `Daemon::metrics_snapshot`.
    pub daemon: Snapshot,
}

/// Times `reps` calls of `f`, returning µs per call.
fn per_call_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..reps {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}

/// Mean µs per call of the calls `f` classes as `true`, then as `false`.
fn split_us(n: usize, mut f: impl FnMut(usize) -> bool) -> (f64, f64) {
    let mut sums = [(0.0, 0u32); 2];
    for i in 0..n {
        let t = Instant::now();
        let class = f(i);
        let s = &mut sums[usize::from(class)];
        s.0 += t.elapsed().as_secs_f64() * 1e6;
        s.1 += 1;
    }
    let mean = |(sum, n): (f64, u32)| sum / f64::from(n.max(1));
    (mean(sums[1]), mean(sums[0]))
}

/// Runs the serving probe over `results` in a fresh store under `dir`;
/// `cold` is one point the probe daemon must simulate, so both tiers are
/// measured. Needs at least two results, so that an insert evicts.
pub fn serving(
    tally: &mut Tally,
    results: &[(Point, Arc<Metrics>)],
    cold: &Point,
    dir: &Path,
) -> Serving {
    let mut out = Serving::default();
    let fps: Vec<String> = results.iter().map(|(p, _)| p.cfg.fingerprint()).collect();
    out.fingerprint_us = per_call_us(results.len(), |i| {
        black_box(results[i].0.cfg.fingerprint());
    });

    // As a `--cache-dir` sweep does: look up, miss, simulate, insert. The
    // first half goes into an uncapped store; the second half into the same
    // store capped at the first half's size, so its inserts evict.
    let _ = std::fs::remove_dir_all(dir);
    let half = results.len().div_ceil(2);
    let store = DiskCache::open(dir, None).expect("open the probe store");
    let lookup_insert = |store: &DiskCache, i: usize| {
        black_box(store.get(&fps[i]));
        let before = store.stats().evictions;
        store.insert(&fps[i], &results[i].1);
        store.stats().evictions > before
    };
    (_, out.insert_us) = split_us(half, |i| lookup_insert(&store, i));
    let budget = store.resident_bytes();
    let capped = DiskCache::open(dir, Some(budget)).expect("reopen the probe store");
    (out.insert_evict_us, _) = split_us(results.len() - half, |i| lookup_insert(&capped, half + i));
    // Read everything back; what was evicted misses.
    let mut resident = Vec::new();
    (out.get_us, _) = split_us(results.len(), |i| {
        let hit = capped.get(&fps[i]).is_some();
        if hit {
            resident.push(i);
        }
        hit
    });
    out.disk = add_stats(store.stats(), capped.stats());

    let lines: Vec<String> = results
        .iter()
        .zip(&fps)
        .enumerate()
        .map(|(i, ((_, m), fp))| proto::result_line(&format!("r{i}"), Source::Disk, fp, m))
        .collect();
    let bytes: usize = lines.iter().map(String::len).sum();
    out.json_parse_us = per_call_us(lines.len(), |i| {
        black_box(Json::parse(&lines[i]).expect("a result line parses"));
    });
    out.json_mb_per_s = bytes as f64 / out.json_parse_us.max(1e-9) / lines.len() as f64;
    out.response_kb = bytes as f64 / 1e3 / lines.len() as f64;

    let submits: Vec<String> = results
        .iter()
        .enumerate()
        .map(|(i, (p, _))| serve_client::submit(&format!("r{i}"), p))
        .collect();
    out.proto_parse_us = per_call_us(submits.len(), |i| {
        black_box(Request::parse(&submits[i]).expect("a submit line parses"));
    });

    let mut requests: Vec<(&str, Source)> = resident
        .iter()
        .map(|&i| (submits[i].as_str(), Source::Disk))
        .collect();
    let cold_line = serve_client::submit("cold", cold);
    requests.push((&cold_line, Source::Simulated));
    let served = serve_client::session(dir, Some(budget), |client| {
        for (line, want) in &requests {
            // A full-scale reply takes seconds to parse; the tier token is
            // all the probe needs, so it is matched textually.
            let reply = client.request(line);
            let tag = format!("\"source\":\"{}\"", want.token());
            tally.record(
                if reply.starts_with("{\"type\":\"result\"") && reply.contains(&tag) {
                    Ok(())
                } else {
                    Err(format!(
                        "probe daemon: expected a {} result, got {}",
                        want.token(),
                        reply.chars().take(200).collect::<String>()
                    ))
                },
            );
        }
    });
    out.daemon = served.snapshot;
    out.disk = add_stats(out.disk, served.disk);
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Sums two stores' counters.
pub fn add_stats(a: DiskCacheStats, b: DiskCacheStats) -> DiskCacheStats {
    DiskCacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        writes: a.writes + b.writes,
        evictions: a.evictions + b.evictions,
        discarded: a.discarded + b.discarded,
    }
}

//! Same-host benchmark of the HDPAT simulator.
//!
//! Three workloads, each timed from outside through the simulator's public
//! API with one worker (see `README.md` in this directory for why each
//! exists and how to read the results):
//!
//! * `sweep-bench` — the 70 fig14 points at `Scale::Bench` through
//!   `SweepCtx`;
//! * `run-full` — one `Scale::Full` point (SPMV under HDPAT) through
//!   `hdpat::run`;
//! * `serve-mix` — a closed loop of requests against an in-process
//!   `Daemon` over a budget-capped `DiskCache`.
//!
//! An untraced run prints the end-to-end metrics; a traced run (`--trace
//! 1`) repeats the work with spans around each layer call and prints the
//! per-layer metrics.

pub mod host;
pub mod points;
pub mod probes;
pub mod serve_client;
pub mod stats;
pub mod trace;
mod workloads;

use std::path::{Path, PathBuf};

use hdpat::serve::json::Json;
use hdpat::Metrics;
use wsg_workloads::Scale;

use crate::probes::{ComponentNs, Serving};
use crate::stats::{median, p99_windowed, Tally};
use crate::trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The fig14 sweep at bench scale.
    SweepBench,
    /// One full-scale run.
    RunFull,
    /// Served requests against the daemon.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::SweepBench, Workload::RunFull, Workload::ServeMix];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepBench => "sweep-bench",
            Workload::RunFull => "run-full",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Target length of the timed phase, seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Run every workload at `Scale::Unit` (for the smoke tests).
    pub smoke: bool,
    /// Checkout root: the simulator sources and the golden tables live
    /// here, and scratch files go under `perfbench/out/`.
    pub root: PathBuf,
}

impl Opts {
    /// `scale`, or `Scale::Unit` in smoke mode.
    pub fn scale(&self, scale: Scale) -> Scale {
        if self.smoke {
            Scale::Unit
        } else {
            scale
        }
    }

    /// A scratch path under `perfbench/out/`, unique to this process and
    /// workload.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        self.out_dir().join(format!(
            "tmp-{}-{}-{tag}",
            std::process::id(),
            self.workload.name()
        ))
    }

    /// Where traces are written.
    pub fn out_dir(&self) -> PathBuf {
        self.root.join("perfbench").join("out")
    }
}

/// End-to-end metrics: (name, unit). Printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
    ("gmean_speedup_err", "x"),
    ("offload_err_pct", "pct-points"),
];

/// serve-mix's client-observed latencies, printed after [`END_TO_END`] by
/// its untraced runs only: no other workload serves requests. `hit_p99_ms`
/// is left out when fewer than ten samples lie beyond it.
pub const SERVE_LATENCIES: [(&str, &str); 3] = [
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
];

/// Span names whose self time is reported as `self_share.<name>`; the
/// benchmark's own root spans (`point`, `pass`, `request`) report as
/// `bench`.
pub const SELF_LAYERS: [&str; 5] = [
    "bench",
    "experiments.fingerprint",
    "workloads.generate",
    "sim.build",
    "sim.run",
];

/// serve-mix's own layers, whose self shares its traced runs print after
/// the per-layer metrics of every workload: no other workload runs them
/// under spans.
pub const SERVE_LAYERS: [&str; 4] = [
    "serve.boot",
    "serve.daemon",
    "serve.json_parse",
    "serve.shutdown",
];

/// Metrics of `workload`: (name, unit), per-layer ones when `trace`.
/// Every workload prints [`END_TO_END`] and the same per-layer metrics;
/// serve-mix adds its latencies and serving layers.
pub fn metric_names(workload: Workload, trace: bool) -> Vec<(String, &'static str)> {
    let serve = workload == Workload::ServeMix;
    if trace {
        per_layer_values(&Traced::default(), &Measured::default(), serve)
            .into_iter()
            .map(|(name, _, unit)| (name, unit))
            .collect()
    } else {
        let extra: &[(&str, &'static str)] = if serve { &SERVE_LATENCIES } else { &[] };
        END_TO_END
            .iter()
            .chain(extra)
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect()
    }
}

/// What a workload's untraced phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up time (median over set-up repetitions), seconds.
    pub setup_s: f64,
    /// Host time of each timed repetition, seconds.
    pub wall_s: Vec<f64>,
    /// Simulated events of each timed repetition.
    pub events: Vec<u64>,
    /// serve-mix: latency of each request answered from the store, ms.
    pub hit_ms: Vec<f64>,
    /// serve-mix: latency of each request that had to be simulated, ms.
    pub miss_ms: Vec<f64>,
    /// `(gmean speedup error, offload error in points)` against the paper.
    pub paper_error: (f64, f64),
}

/// What a workload's traced phase recorded.
#[derive(Default)]
pub struct Traced {
    /// The spans.
    pub tracer: Tracer,
    /// Name of the root span whose trees make up the traced total.
    pub root: &'static str,
    /// Timed repetitions the root spans cover.
    pub reps: usize,
    /// Metrics of every point simulated under spans, with its op count.
    pub points: Vec<(Metrics, u64)>,
    /// Component probe results.
    pub components: ComponentNs,
    /// Serving probe results.
    pub serving: Serving,
    /// Traced time the probes took, seconds.
    pub probe_s: f64,
}

/// A finished run: the tally, the metrics, and what to record with them.
pub struct Report {
    /// Checked operations and failures.
    pub tally: Tally,
    /// `(name, value, unit)` in catalog order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Host facts.
    pub host: Json,
    /// The traced run's Chrome trace document.
    pub trace_doc: Option<String>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), number(*value)),
                        ("unit".into(), Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.tally.failed == 0)),
            ("attempted".into(), Json::U64(self.tally.attempted)),
            ("failed".into(), Json::U64(self.tally.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_line()
    }
}

/// A metric value as JSON: integers stay integers, everything else keeps
/// all its digits.
fn number(x: f64) -> Json {
    if x.fract() == 0.0 && (0.0..9.0e15).contains(&x) {
        Json::U64(x as u64)
    } else {
        Json::F64(x)
    }
}

/// Runs one benchmark invocation.
pub fn run(opts: &Opts) -> Report {
    let mut tally = Tally::default();
    let (measured, traced) = match opts.workload {
        Workload::SweepBench => workloads::sweep_bench(opts, &mut tally),
        Workload::RunFull => workloads::run_full(opts, &mut tally),
        Workload::ServeMix => workloads::serve_mix(opts, &mut tally),
    };
    let host = host::facts(&opts.root, opts.workload.name(), opts.seed);
    let serve = opts.workload == Workload::ServeMix;
    let (metrics, trace_doc) = match traced {
        None => (end_to_end(&measured, serve), None),
        Some(t) => {
            let doc = t.tracer.to_chrome_json(host.clone());
            (per_layer_values(&t, &measured, serve), Some(doc))
        }
    };
    Report {
        tally,
        metrics,
        host,
        trace_doc,
    }
}

fn end_to_end(m: &Measured, serve: bool) -> Vec<(String, f64, &'static str)> {
    let rates: Vec<f64> = m
        .events
        .iter()
        .zip(&m.wall_s)
        .map(|(&e, &w)| e as f64 / w)
        .collect();
    let values = [
        median(&m.wall_s),
        Some(m.setup_s),
        median(&rates),
        host::peak_rss_mib(),
        Some(m.paper_error.0),
        Some(m.paper_error.1),
    ];
    let latencies = [
        median(&m.hit_ms),
        p99_windowed(&m.hit_ms),
        median(&m.miss_ms),
    ];
    let extra: &[(&str, &'static str)] = if serve { &SERVE_LATENCIES } else { &[] };
    END_TO_END
        .iter()
        .chain(extra)
        .zip(values.into_iter().chain(latencies))
        .filter_map(|(&(name, unit), v)| v.map(|v| (name.to_string(), v, unit)))
        .collect()
}

fn per_layer_values(t: &Traced, m: &Measured, serve: bool) -> Vec<(String, f64, &'static str)> {
    let tr = &t.tracer;
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
    let mean_ms = |name: &str| ms(name) / tr.count(name).max(1) as f64;
    let sum = |f: fn(&Metrics) -> u64| t.points.iter().map(|(p, _)| f(p)).sum::<u64>() as f64;
    let run_s = ms("sim.run") / 1e3;
    let events = sum(|p| p.sim_events);
    let resolved = sum(|p| p.resolution.total());
    let offloaded = resolved - sum(|p| p.resolution.value("iommu"));
    let share = |ns_per_op: f64, count: f64| ns_per_op * count / 1e9 / run_s.max(1e-12);
    let c = &t.components;
    let s = &t.serving;
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    let total_s = tr.total_ns(t.root) as f64 / 1e9 / t.reps.max(1) as f64;
    let untraced_s = median(&m.wall_s).unwrap_or(0.0);
    let selfs = tr.self_ns(t.root);
    let self_of = |layer: &str| -> f64 {
        let ns: u64 = if layer == "bench" {
            ["point", "pass", "request"]
                .iter()
                .map(|r| selfs.get(r).copied().unwrap_or(0))
                .sum()
        } else {
            selfs.get(layer).copied().unwrap_or(0)
        };
        ns as f64 / tr.total_ns(t.root).max(1) as f64
    };
    let mut out: Vec<(String, f64, &'static str)> = [
        ("workloads.generate_ms", "ms", mean_ms("workloads.generate")),
        (
            "workloads.ops",
            "count",
            t.points.iter().map(|(_, ops)| *ops).sum::<u64>() as f64,
        ),
        ("sim.build_ms", "ms", mean_ms("sim.build")),
        ("sim.run_s", "s", run_s),
        ("sim.ns_per_event", "ns", run_s * 1e9 / events.max(1.0)),
        ("sim.events", "count", events),
        ("sim.cycles", "cycles", sum(|p| p.total_cycles)),
        (
            "xlat.local_translations",
            "count",
            sum(|p| p.local_translations),
        ),
        ("xlat.remote_requests", "count", sum(|p| p.remote_requests)),
        ("xlat.iommu_walks", "count", sum(|p| p.iommu_walks)),
        ("xlat.offload_ratio", "ratio", offloaded / resolved.max(1.0)),
        ("noc.packets", "count", sum(|p| p.noc_packets)),
        ("noc.hop_bytes", "bytes", sum(|p| p.noc_hop_bytes)),
        ("xlat.tlb_lookup_ns", "ns", c.tlb_lookup),
        (
            "xlat.tlb_lookup.share",
            "ratio",
            share(c.tlb_lookup, sum(|p| p.ops_completed)),
        ),
        ("xlat.page_table_translate_ns", "ns", c.page_table_translate),
        (
            "xlat.page_table_translate.share",
            "ratio",
            share(
                c.page_table_translate,
                sum(|p| p.local_walks + p.iommu_walks),
            ),
        ),
        ("xlat.cuckoo_contains_ns", "ns", c.cuckoo_contains),
        (
            "xlat.cuckoo_contains.share",
            "ratio",
            share(
                c.cuckoo_contains,
                sum(|p| p.local_walks + p.remote_requests),
            ),
        ),
        ("noc.mesh_send_ns", "ns", c.mesh_send),
        (
            "noc.mesh_send.share",
            "ratio",
            share(c.mesh_send, sum(|p| p.noc_packets)),
        ),
        ("experiments.fingerprint_us", "us", s.fingerprint_us),
        ("diskcache.get_us", "us", s.get_us),
        ("diskcache.insert_us", "us", s.insert_us),
        ("diskcache.insert_evict_us", "us", s.insert_evict_us),
        (
            "diskcache.hit_ratio",
            "ratio",
            per(s.disk.hits, s.disk.hits + s.disk.misses),
        ),
        ("diskcache.evictions", "count", s.disk.evictions as f64),
        ("serve.json_parse_us", "us", s.json_parse_us),
        ("serve.json_mb_per_s", "MB/s", s.json_mb_per_s),
        ("serve.proto_parse_us", "us", s.proto_parse_us),
        (
            "serve.queue_wait_disk_us",
            "us",
            per(s.daemon.disk.queue_wait_us, s.daemon.disk.count),
        ),
        (
            "serve.queue_wait_simulated_us",
            "us",
            per(s.daemon.simulated.queue_wait_us, s.daemon.simulated.count),
        ),
        (
            "serve.service_disk_us",
            "us",
            per(s.daemon.disk.service_us, s.daemon.disk.count),
        ),
        (
            "serve.service_simulated_us",
            "us",
            per(s.daemon.simulated.service_us, s.daemon.simulated.count),
        ),
        ("serve.response_kb", "KB", s.response_kb),
        ("trace.total_s", "s", total_s),
        ("trace.untraced_wall_s", "s", untraced_s),
        ("trace.overhead_s", "s", total_s - untraced_s),
        ("trace.probe_s", "s", t.probe_s),
    ]
    .into_iter()
    .map(|(name, unit, value)| (name.to_string(), value, unit))
    .collect();
    let serve_layers: &[&str] = if serve { &SERVE_LAYERS } else { &[] };
    out.extend(
        SELF_LAYERS
            .iter()
            .chain(serve_layers)
            .map(|l| (format!("self_share.{l}"), self_of(l), "ratio")),
    );
    out
}

/// Writes `doc` to `perfbench/out/trace-<workload>-seed<seed>.json` and
/// returns the path.
pub fn write_trace(opts: &Opts, doc: &str) -> std::io::Result<PathBuf> {
    let dir = opts.out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// The checkout root: the current directory, which must hold the
/// simulator's sources.
pub fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if !Path::new(&root).join("crates/core/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the root of an HDPAT checkout (no crates/core)",
            root.display()
        ));
    }
    Ok(root)
}

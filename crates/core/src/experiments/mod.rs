//! Experiment runners used by the examples, tests, and the figure benches:
//! the one-call [`run`] plus the deterministic parallel sweep API
//! ([`SweepCtx`], [`RunCache`]) that deduplicates and fans independent
//! points across worker threads without changing a single output byte, and
//! the persistent [`DiskCache`] that carries completed runs across
//! processes (the store behind `hdpat-sim serve`).

mod diskcache;
mod fingerprint;

pub use diskcache::{DiskCache, DiskCacheStats};
pub use fingerprint::FINGERPRINT_VERSION;

use wsg_gpu::SystemConfig;
use wsg_workloads::{BenchmarkId, Scale};

/// Divides the capacity of every translation/cache structure by the same
/// factor the workload scale divides memory footprints by, so the
/// working-set-to-capacity ratios of the paper's full-size configuration are
/// preserved at reduced scale. Timing parameters (latencies, walker counts,
/// bandwidths) are untouched — only sizes shrink.
pub fn scale_hardware(system: &mut SystemConfig, divisor: usize) {
    if divisor <= 1 {
        return;
    }
    let d = divisor;
    let shrink_sets = |sets: usize, floor: usize| (sets / d).max(floor).next_power_of_two();
    let g = &mut system.gpm;
    g.l1_tlb.ways = (g.l1_tlb.ways / d.min(4)).max(8); // small already; shrink gently
    g.l2_tlb.sets = shrink_sets(g.l2_tlb.sets, 1);
    g.l2_tlb.ways = g.l2_tlb.ways.min(8);
    g.gmmu_cache.sets = shrink_sets(g.gmmu_cache.sets, 4);
    g.gmmu_cache.ways = g.gmmu_cache.ways.min(8);
    g.cuckoo_capacity = (g.cuckoo_capacity / d).max(256);
    g.l1_cache.sets = shrink_sets(g.l1_cache.sets, 4);
    g.l2_cache.sets = shrink_sets(g.l2_cache.sets, 16);
    system.iommu.redirection_entries = (system.iommu.redirection_entries / d).max(16);
    system.iommu.pw_queue = (system.iommu.pw_queue / d).max(8);
}

/// The hardware-capacity divisor matching each workload scale's footprint
/// reduction (Table II is divided by ~64 at `Bench`, ~512 at `Unit`).
pub fn hardware_divisor(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1,
        Scale::Bench => 64,
        Scale::Unit => 256,
    }
}

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::metrics::Metrics;
use crate::policy::PolicyKind;
use crate::sim::Simulation;

/// A fully specified simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Hardware configuration (wafer, GPM, IOMMU, page size, mesh).
    pub system: SystemConfig,
    /// Translation policy under test.
    pub policy: PolicyKind,
    /// Workload.
    pub benchmark: BenchmarkId,
    /// Workload scale.
    pub scale: Scale,
    /// Workload generator seed (the default 42 is used throughout the
    /// reproduction for determinism).
    pub seed: u64,
}

impl RunConfig {
    /// A run on the paper-baseline system (7×7 wafer, MI100 GPMs, 4 KB
    /// pages), with structure capacities scaled to match the workload scale
    /// (see [`scale_hardware`]).
    pub fn new(benchmark: BenchmarkId, scale: Scale, policy: PolicyKind) -> Self {
        let mut system = SystemConfig::paper_baseline();
        scale_hardware(&mut system, hardware_divisor(scale));
        Self {
            system,
            policy,
            benchmark,
            scale,
            seed: 42,
        }
    }

    /// A run that keeps the paper's full-size structure capacities
    /// regardless of workload scale (for sensitivity checks).
    pub fn new_unscaled(benchmark: BenchmarkId, scale: Scale, policy: PolicyKind) -> Self {
        Self {
            system: SystemConfig::paper_baseline(),
            policy,
            benchmark,
            scale,
            seed: 42,
        }
    }

    /// Replaces the system configuration and re-applies capacity scaling
    /// for this run's workload scale.
    pub fn with_system(mut self, mut system: SystemConfig) -> Self {
        scale_hardware(&mut system, hardware_divisor(self.scale));
        self.system = system;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Canonical fingerprint of this run: two configs simulate identically
    /// if and only if their fingerprints are equal, no matter how they were
    /// constructed (`new` + `with_system` vs hand-assembled fields).
    ///
    /// The fingerprint is an explicitly versioned, hand-rendered enumeration
    /// of every semantically meaningful field, prefixed with
    /// [`FINGERPRINT_VERSION`] (see DESIGN.md §14 for the full stability
    /// contract and why the old `Debug`-format key was replaced). Every
    /// config struct is fully destructured in the renderer, so adding a
    /// field anywhere is a compile error until its rendering — and a version
    /// bump — are decided. [`RunCache`] uses the fingerprint as the
    /// in-memory key and [`DiskCache`] as the persistent content address, so
    /// identical requests hit across processes, restarts, and machines.
    pub fn fingerprint(&self) -> String {
        fingerprint::fingerprint(self)
    }
}

/// Runs one simulation to completion.
///
/// # Example
///
/// ```
/// use hdpat::experiments::{run, RunConfig};
/// use hdpat::policy::PolicyKind;
/// use wsg_workloads::{BenchmarkId, Scale};
///
/// let m = run(&RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive));
/// assert!(m.total_cycles > 0);
/// assert!(m.ops_completed > 0);
/// ```
pub fn run(cfg: &RunConfig) -> Metrics {
    Simulation::new(
        cfg.system.clone(),
        cfg.policy,
        cfg.benchmark,
        cfg.scale,
        cfg.seed,
    )
    .run()
}

/// Runs one experiment point like [`run`], with a request-lifecycle trace
/// sink attached for the whole run. Returns the metrics (with
/// `stage_latency` populated) together with the filled sink.
///
/// Tracing is purely observational: the metrics' deterministic serialization
/// is byte-identical to an untraced [`run`] of the same point
/// (`tests/trace_determinism.rs`).
#[cfg(feature = "trace")]
pub fn run_traced(cfg: &RunConfig) -> (Metrics, wsg_sim::trace::TraceSink) {
    let mut sim = Simulation::new(
        cfg.system.clone(),
        cfg.policy,
        cfg.benchmark,
        cfg.scale,
        cfg.seed,
    );
    let mut sinks = wsg_sim::probe::Sinks::new().with_trace();
    sim.attach(sinks.clone());
    // `run` consumes the simulation and its probes, so the sink moves out
    // without a copy.
    let metrics = sim.run();
    let sink = sinks.take_trace().expect("trace sink attached above");
    (metrics, sink)
}

/// Runs one experiment point like [`run`], with the telemetry flight
/// recorder attached and sampling every `sample_interval` cycles. Returns
/// the metrics together with the filled registry, ready for the CSV /
/// JSON / Perfetto-counter and heatmap exports.
///
/// Telemetry is purely observational: the metrics' deterministic
/// serialization is byte-identical to a plain [`run`] of the same point,
/// and the sink's exports are byte-identical across hosts and `--jobs`
/// values (`tests/telemetry_determinism.rs`).
#[cfg(feature = "telemetry")]
pub fn run_telemetry(
    cfg: &RunConfig,
    sample_interval: wsg_sim::Cycle,
) -> (Metrics, wsg_sim::telemetry::TelemetrySink) {
    let mut sim = Simulation::new(
        cfg.system.clone(),
        cfg.policy,
        cfg.benchmark,
        cfg.scale,
        cfg.seed,
    );
    let mut sinks = wsg_sim::probe::Sinks::new().with_telemetry(sample_interval);
    sim.attach(sinks.clone());
    // `run` consumes the simulation and its probes, so the recorder moves
    // out without a copy.
    let metrics = sim.run();
    let sink = sinks
        .take_telemetry()
        .expect("telemetry recorder attached above");
    (metrics, sink)
}

/// Runs one experiment point with both the request-lifecycle tracer and the
/// telemetry flight recorder attached, so span events and counter tracks
/// share one simulated clock. Feed both sinks to
/// [`wsg_sim::telemetry::TelemetrySink::merge_chrome_json`] for a single
/// Perfetto document.
#[cfg(all(feature = "telemetry", feature = "trace"))]
pub fn run_telemetry_traced(
    cfg: &RunConfig,
    sample_interval: wsg_sim::Cycle,
) -> (
    Metrics,
    wsg_sim::telemetry::TelemetrySink,
    wsg_sim::trace::TraceSink,
) {
    let mut sim = Simulation::new(
        cfg.system.clone(),
        cfg.policy,
        cfg.benchmark,
        cfg.scale,
        cfg.seed,
    );
    let mut sinks = wsg_sim::probe::Sinks::new()
        .with_telemetry(sample_interval)
        .with_trace();
    sim.attach(sinks.clone());
    let metrics = sim.run();
    let tel = sinks
        .take_telemetry()
        .expect("telemetry recorder attached above");
    let trc = sinks.take_trace().expect("trace sink attached above");
    (metrics, tel, trc)
}

/// Keyed in-memory cache of completed runs: [`RunConfig::fingerprint`] →
/// [`Metrics`].
///
/// The cache is shared by reference across every figure of one bench
/// invocation, so common points (most prominently the Naive baseline, which
/// a dozen figures normalize against) are simulated exactly once. Entries
/// are `Arc`-shared — a hit hands back the same metrics object the miss
/// produced, so cached and uncached paths cannot diverge.
///
/// Thread-safe: [`SweepCtx::sweep`] fills it from pool workers.
#[derive(Debug, Default)]
pub struct RunCache {
    /// BTreeMap keeps any future iteration over the cache deterministic
    /// (lint rule d1); lookups are by exact fingerprint.
    entries: Mutex<BTreeMap<String, Arc<Metrics>>>,
}

impl RunCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics cached for `key`, if present.
    pub fn get(&self, key: &str) -> Option<Arc<Metrics>> {
        match self.entries.lock() {
            Ok(map) => map.get(key).cloned(),
            Err(poisoned) => poisoned.into_inner().get(key).cloned(),
        }
    }

    /// Stores `metrics` under `key`. First writer wins: on a duplicate
    /// insert the existing entry is kept, so every reader of a key observes
    /// one object identity.
    pub fn insert(&self, key: String, metrics: Arc<Metrics>) {
        let mut map = match self.entries.lock() {
            Ok(map) => map,
            Err(poisoned) => poisoned.into_inner(),
        };
        map.entry(key).or_insert(metrics);
    }

    /// Number of cached points.
    pub fn len(&self) -> usize {
        match self.entries.lock() {
            Ok(map) => map.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Execution context for simulation sweeps: a worker-thread budget plus a
/// [`RunCache`] threaded across every sweep issued through it.
///
/// # Determinism contract (see DESIGN.md §9)
///
/// * Results are returned in **input order**, never completion order.
/// * Each point is fully specified by its [`RunConfig`] (including the
///   seed), so where and when it executes cannot affect its metrics.
/// * Consequently the output is byte-identical for every `jobs` value and
///   for cached vs uncached execution (`tests/sweep_determinism.rs`
///   enforces this) — `jobs` and the cache only change wall-clock time.
#[derive(Debug)]
pub struct SweepCtx {
    cache: Option<RunCache>,
    disk: Option<DiskCache>,
    jobs: usize,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    events: AtomicU64,
    progress: Option<Progress>,
}

/// Live progress state for [`SweepCtx::with_progress`]: completed/total
/// runs plus the context start time for events-per-second and ETA. Written
/// only to stderr — deterministic outputs never see it.
#[derive(Debug)]
struct Progress {
    total: AtomicU64,
    done: AtomicU64,
    // Progress display only; the reading is printed to stderr and never
    // feeds back into the model or any artifact.
    started: std::time::Instant,
}

impl SweepCtx {
    /// A context running up to `jobs` simulations concurrently (clamped to
    /// at least 1), with caching enabled.
    pub fn new(jobs: usize) -> Self {
        Self {
            cache: Some(RunCache::new()),
            disk: None,
            jobs: jobs.max(1),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            events: AtomicU64::new(0),
            progress: None,
        }
    }

    /// Attaches a persistent [`DiskCache`]: sweep points missing from the
    /// in-memory cache are probed on disk before being scheduled, and every
    /// freshly simulated point is written back. Purely an optimization —
    /// results are byte-identical with and without the disk cache
    /// (`tests/sweep_determinism.rs`), only wall-clock time changes.
    ///
    /// The disk probe sits behind the in-memory cache, so it only applies to
    /// contexts with caching enabled ([`SweepCtx::new`]); attaching it to a
    /// [`SweepCtx::without_cache`] context is a no-op by construction.
    pub fn with_disk_cache(mut self, disk: DiskCache) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The attached disk cache, if any — for hit-rate reporting.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Enables the live progress reporter: every completed simulation
    /// updates a `completed/total runs, events/sec, ETA` line on stderr.
    /// Reporting is cosmetic — results and every written artifact are
    /// byte-identical with and without it.
    pub fn with_progress(mut self) -> Self {
        self.progress = Some(Progress {
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            // lint:allow(wallclock): progress display only (see Progress).
            started: std::time::Instant::now(),
        });
        self
    }

    /// One completed run: bump the counter and redraw the stderr line.
    fn report_progress(&self) {
        let Some(p) = &self.progress else { return };
        let done = p.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total = p.total.load(Ordering::Relaxed).max(done);
        let events = self.events.load(Ordering::Relaxed);
        let secs = p.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        };
        let eta = if total > done {
            secs / done as f64 * (total - done) as f64
        } else {
            0.0
        };
        eprint!(
            "\r[sweep] {done}/{total} runs  {:.1}M events  {:.2}M ev/s  ETA {eta:.0}s ",
            events as f64 / 1e6,
            rate / 1e6,
        );
        let _ = std::io::Write::flush(&mut std::io::stderr());
    }

    /// Announces `n` upcoming runs to the reporter and returns whether it
    /// is enabled.
    fn announce_runs(&self, n: usize) -> bool {
        match &self.progress {
            Some(p) => {
                p.total.fetch_add(n as u64, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// A serial context (`jobs = 1`): today's exact one-at-a-time behaviour,
    /// still with cross-figure caching.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A context sized to the host's available parallelism.
    pub fn auto() -> Self {
        Self::new(wsg_sim::pool::default_jobs())
    }

    /// A context with the run cache disabled: every sweep point is simulated
    /// fresh, even within a single [`SweepCtx::sweep`] call. Exists to prove
    /// the cache is purely an optimization.
    pub fn without_cache(jobs: usize) -> Self {
        Self {
            cache: None,
            ..Self::new(jobs)
        }
    }

    /// The worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// `(cache hits, simulations executed)` across the context's lifetime.
    /// Disk-cache hits are counted separately ([`SweepCtx::disk_hits`]) —
    /// they are neither an in-memory hit nor an executed simulation.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Sweep points resolved from the attached disk cache (always 0 when no
    /// disk cache is attached).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Total simulator events delivered by runs this context actually
    /// executed (cache hits contribute nothing — their events were counted
    /// when the miss ran). Feeds the `--perf-out` trajectory artifact; not
    /// part of any deterministic output.
    pub fn events_executed(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Runs a single point through the cache.
    pub fn run(&self, cfg: &RunConfig) -> Arc<Metrics> {
        let mut out = self.sweep(std::slice::from_ref(cfg));
        match out.pop() {
            Some(m) => m,
            // sweep() returns exactly one result per input point.
            None => unreachable!("sweep of one point returned no result"),
        }
    }

    /// Runs every point and returns metrics **in input order**.
    ///
    /// Duplicate and already-cached points are simulated once (unless the
    /// cache is disabled); the unique remainder is executed across the
    /// worker pool. See the type-level determinism contract.
    pub fn sweep(&self, cfgs: &[RunConfig]) -> Vec<Arc<Metrics>> {
        let Some(cache) = &self.cache else {
            self.misses.fetch_add(cfgs.len() as u64, Ordering::Relaxed);
            let reporting = self.announce_runs(cfgs.len());
            let out = wsg_sim::pool::run_indexed_with(
                self.jobs,
                cfgs.len(),
                |i| {
                    let m = Arc::new(run(&cfgs[i]));
                    self.events.fetch_add(m.sim_events, Ordering::Relaxed);
                    m
                },
                |_| self.report_progress(),
            );
            if reporting && !cfgs.is_empty() {
                eprintln!();
            }
            return out;
        };
        let keys: Vec<String> = cfgs.iter().map(RunConfig::fingerprint).collect();
        // Unique uncached points, in first-occurrence order. Each unique
        // point missing from memory is probed on disk before it is scheduled
        // — a disk hit is promoted into the in-memory cache (so duplicates
        // of it downstream count as ordinary hits) and never simulated.
        let mut pending = BTreeSet::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut from_disk: u64 = 0;
        for (i, key) in keys.iter().enumerate() {
            if cache.get(key).is_none() && pending.insert(key.as_str()) {
                if let Some(m) = self.disk.as_ref().and_then(|d| d.get(key)) {
                    cache.insert(key.clone(), Arc::new(m));
                    from_disk += 1;
                } else {
                    todo.push(i);
                }
            }
        }
        self.disk_hits.fetch_add(from_disk, Ordering::Relaxed);
        self.hits.fetch_add(
            cfgs.len() as u64 - todo.len() as u64 - from_disk,
            Ordering::Relaxed,
        );
        self.misses.fetch_add(todo.len() as u64, Ordering::Relaxed);
        let reporting = self.announce_runs(todo.len());
        let fresh = wsg_sim::pool::run_indexed_with(
            self.jobs,
            todo.len(),
            |j| {
                let m = Arc::new(run(&cfgs[todo[j]]));
                self.events.fetch_add(m.sim_events, Ordering::Relaxed);
                m
            },
            |_| self.report_progress(),
        );
        if reporting && !todo.is_empty() {
            eprintln!();
        }
        for (j, &i) in todo.iter().enumerate() {
            cache.insert(keys[i].clone(), fresh[j].clone());
            if let Some(disk) = &self.disk {
                disk.insert(&keys[i], &fresh[j]);
            }
        }
        keys.iter()
            .map(|key| match cache.get(key) {
                Some(m) => m,
                None => unreachable!("sweep point missing from cache after execution"),
            })
            .collect()
    }
}

impl Default for SweepCtx {
    fn default() -> Self {
        Self::auto()
    }
}

/// Runs `policy` and the naive baseline on the same workload and returns
/// `(baseline, policy_metrics, speedup)`.
pub fn run_with_baseline(cfg: &RunConfig) -> (Metrics, Metrics, f64) {
    let base_cfg = RunConfig {
        policy: PolicyKind::Naive,
        ..cfg.clone()
    };
    let base = run(&base_cfg);
    let m = run(cfg);
    let speedup = m.speedup_vs(&base);
    (base, m, speedup)
}

/// Runs every Table II benchmark under `policy` at `scale` and returns
/// per-benchmark metrics in catalog order.
pub fn run_all(
    policy: PolicyKind,
    scale: Scale,
    system: &SystemConfig,
) -> Vec<(BenchmarkId, Metrics)> {
    BenchmarkId::all()
        .into_iter()
        .map(|b| {
            let cfg = RunConfig::new(b, scale, policy).with_system(system.clone());
            (b, run(&cfg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_content_based() {
        // `new` scales the baseline for Unit; `with_system` re-applies the
        // same scaling to an identical baseline — same content, same key.
        let a = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        let b = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive)
            .with_system(SystemConfig::paper_baseline());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), a.clone().with_seed(7).fingerprint());
        assert_ne!(
            a.fingerprint(),
            RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::hdpat()).fingerprint()
        );
    }

    #[test]
    fn sweep_dedups_and_preserves_input_order() {
        let relu = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
        let aes = RunConfig::new(BenchmarkId::Aes, Scale::Unit, PolicyKind::Naive);
        let ctx = SweepCtx::serial();
        let out = ctx.sweep(&[relu.clone(), aes.clone(), relu.clone()]);
        assert_eq!(out.len(), 3);
        // Duplicate points resolve to the same Arc, simulated once.
        assert!(Arc::ptr_eq(&out[0], &out[2]));
        assert!(!Arc::ptr_eq(&out[0], &out[1]));
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 2));
        // A later sweep through the same context hits the cache.
        let again = ctx.run(&aes);
        assert!(Arc::ptr_eq(&again, &out[1]));
        assert_eq!(ctx.cache_stats(), (2, 2));
    }

    #[test]
    fn sweep_matches_serial_run_across_jobs_and_caching() {
        let cfgs: Vec<RunConfig> = [BenchmarkId::Relu, BenchmarkId::Aes]
            .into_iter()
            .map(|b| RunConfig::new(b, Scale::Unit, PolicyKind::Naive))
            .collect();
        let reference: Vec<String> = cfgs
            .iter()
            .map(|c| run(c).to_deterministic_string())
            .collect();
        for ctx in [
            SweepCtx::serial(),
            SweepCtx::new(4),
            SweepCtx::without_cache(4),
        ] {
            let got: Vec<String> = ctx
                .sweep(&cfgs)
                .iter()
                .map(|m| m.to_deterministic_string())
                .collect();
            assert_eq!(got, reference, "jobs={} diverged", ctx.jobs());
        }
    }

    #[test]
    fn sweep_resolves_from_disk_across_contexts() {
        let dir =
            std::env::temp_dir().join(format!("hdpat-sweep-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);

        // First context: cold disk, the point is simulated and written back.
        let warm = SweepCtx::serial().with_disk_cache(DiskCache::open(&dir, None).unwrap());
        let first = warm.run(&cfg);
        assert_eq!(warm.cache_stats(), (0, 1));
        assert_eq!(warm.disk_hits(), 0);

        // Second context (fresh memory cache, same directory): served from
        // disk, nothing simulated, bytes identical.
        let cold = SweepCtx::serial().with_disk_cache(DiskCache::open(&dir, None).unwrap());
        let out = cold.sweep(&[cfg.clone(), cfg.clone()]);
        assert_eq!(cold.cache_stats(), (1, 0), "no simulation on the reload");
        assert_eq!(cold.disk_hits(), 1);
        assert_eq!(
            out[0].to_deterministic_string(),
            first.to_deterministic_string()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn naive_run_completes_all_ops() {
        let m = run(&RunConfig::new(
            BenchmarkId::Relu,
            Scale::Unit,
            PolicyKind::Naive,
        ));
        assert!(m.ops_completed > 1000, "ops: {}", m.ops_completed);
        assert!(m.total_cycles > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.ops_completed, b.ops_completed);
        assert_eq!(a.iommu_walks, b.iommu_walks);
    }

    #[test]
    fn hdpat_reduces_iommu_walks_on_spmv() {
        let (base, hd, speedup) = run_with_baseline(&RunConfig::new(
            BenchmarkId::Spmv,
            Scale::Unit,
            PolicyKind::hdpat(),
        ));
        assert!(
            hd.iommu_walks < base.iommu_walks,
            "HDPAT walks {} vs baseline {}",
            hd.iommu_walks,
            base.iommu_walks
        );
        assert!(speedup > 0.8, "speedup {speedup}");
    }

    #[test]
    fn baseline_resolves_everything_at_iommu() {
        let m = run(&RunConfig::new(
            BenchmarkId::Spmv,
            Scale::Unit,
            PolicyKind::Naive,
        ));
        assert_eq!(m.resolution.value("peer-cache"), 0);
        assert_eq!(m.resolution.value("redirection"), 0);
        assert!(m.resolution.value("iommu") > 0);
    }

    #[test]
    fn hdpat_offloads_translations() {
        let m = run(&RunConfig::new(
            BenchmarkId::Pr,
            Scale::Unit,
            PolicyKind::hdpat(),
        ));
        assert!(
            m.offload_fraction() > 0.05,
            "offload fraction {}",
            m.offload_fraction()
        );
    }
}

//! The fig14 point set, the paper's reference figures, and the per-point
//! correctness checks shared by every workload.

use hdpat::experiments::RunConfig;
use hdpat::policy::PolicyKind;
use hdpat::{Metrics, Simulation};
use wsg_bench::serving::{fig14_configs, fig14_policies};
use wsg_gpu::{AddressSpace, WorkgroupTrace};
use wsg_workloads::{BenchmarkId, Scale};

use crate::trace::Tracer;

/// HDPAT's geometric-mean speedup over the naive baseline in the paper.
pub const PAPER_GMEAN_SPEEDUP: f64 = 1.57;

/// The share of remote translations HDPAT resolves without an IOMMU walk in
/// the paper, in percent.
pub const PAPER_OFFLOAD_PCT: f64 = 42.1;

/// One point of a workload: its config and the wire token of its policy.
#[derive(Debug, Clone)]
pub struct Point {
    /// The run.
    pub cfg: RunConfig,
    /// `PolicyKind::catalog` token of `cfg.policy`.
    pub policy: &'static str,
}

impl Point {
    /// A point of `benchmark` under the catalog policy `policy`.
    pub fn new(benchmark: BenchmarkId, policy: &'static str, scale: Scale, seed: u64) -> Self {
        let kind = PolicyKind::from_token(policy).expect("catalog policy token");
        Self {
            cfg: RunConfig::new(benchmark, scale, kind).with_seed(seed),
            policy,
        }
    }
}

/// The 70 fig14 points (14 Table II benchmarks × 5 policies), as
/// `wsg_bench::serving::fig14_configs` lists them: in the order
/// `wsg_bench::figures::fig14_overall` sweeps them.
pub fn fig14_points(scale: Scale, seed: u64) -> Vec<Point> {
    let policies = fig14_policies();
    fig14_configs(scale, seed)
        .into_iter()
        .map(|cfg| {
            let (policy, _) = policies
                .iter()
                .find(|(_, kind)| *kind == cfg.policy)
                .expect("a fig14 config runs a fig14 policy");
            Point { cfg, policy }
        })
        .collect()
}

/// `(|gmean HDPAT/naive − 1.57|, |mean HDPAT offload % − 42.1|)` over the
/// naive and HDPAT results among `results` (paired with `points`).
pub fn paper_error(points: &[Point], results: &[&Metrics]) -> (f64, f64) {
    let find = |b: BenchmarkId, policy: &str| {
        points
            .iter()
            .zip(results)
            .find(|(p, _)| p.cfg.benchmark == b && p.policy == policy)
            .map(|(_, m)| *m)
            .expect("every benchmark has a naive and an HDPAT point")
    };
    let rows = BenchmarkId::all().len() as f64;
    let mut log_sum = 0.0;
    let mut offload_sum = 0.0;
    for b in BenchmarkId::all() {
        let hdpat = find(b, "hdpat");
        log_sum += hdpat.speedup_vs(find(b, "naive")).ln();
        offload_sum += hdpat.offload_fraction();
    }
    let gmean = (log_sum / rows).exp();
    let offload_pct = 100.0 * offload_sum / rows;
    (
        (gmean - PAPER_GMEAN_SPEEDUP).abs(),
        (offload_pct - PAPER_OFFLOAD_PCT).abs(),
    )
}

/// Generates `cfg`'s workload traces, as `Simulation::new` does.
pub fn generate(cfg: &RunConfig) -> (AddressSpace, Vec<WorkgroupTrace>) {
    let mut space = AddressSpace::new(cfg.system.page_size, cfg.system.gpm_count() as u32);
    let traces = wsg_workloads::generate(cfg.benchmark, cfg.scale, &mut space, cfg.seed);
    (space, traces)
}

/// Total memory operations of a generated workload.
pub fn op_count(traces: &[WorkgroupTrace]) -> u64 {
    traces.iter().map(|t| t.len() as u64).sum()
}

/// Checks that a run completed every generated operation.
pub fn check_ops(what: &str, metrics: &Metrics, generated_ops: u64) -> Result<(), String> {
    if metrics.ops_completed == generated_ops {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} ops completed, {generated_ops} generated",
            metrics.ops_completed
        ))
    }
}

/// Checks that two deterministic serializations of the same point agree.
pub fn check_same(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: metrics differ from the reference run"))
    }
}

/// Runs `f` inside a span `name` under the tracer's parent span, when a
/// tracer is given.
pub fn stage<R>(
    tracer: &mut Option<(&mut Tracer, usize)>,
    name: &'static str,
    key: u64,
    f: impl FnOnce() -> R,
) -> R {
    let span = tracer
        .as_mut()
        .map(|(t, parent)| t.begin(name, key, Some(*parent)));
    let out = f();
    if let (Some((t, _)), Some(id)) = (tracer.as_mut(), span) {
        t.end(id);
    }
    out
}

/// Runs one point through generate → build → run, with a span around each
/// stage when a tracer is given, and returns the metrics and the generated
/// op count.
pub fn run_staged(
    cfg: &RunConfig,
    key: u64,
    mut tracer: Option<(&mut Tracer, usize)>,
) -> (Metrics, u64) {
    let (space, traces) = stage(&mut tracer, "workloads.generate", key, || generate(cfg));
    let ops = op_count(&traces);
    let sim = stage(&mut tracer, "sim.build", key, || {
        Simulation::with_traces(cfg.system.clone(), cfg.policy, space, traces)
    });
    let metrics = stage(&mut tracer, "sim.run", key, || sim.run());
    (metrics, ops)
}

//! The three workloads: set-up, timed phase, correctness checks, and the
//! traced phase.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hdpat::experiments::{DiskCache, RunConfig, SweepCtx};
use hdpat::policy::PolicyKind;
use hdpat::serve::json::Json;
use hdpat::Metrics;
use wsg_workloads::{BenchmarkId, Scale};

use crate::points::{self, fig14_points, Point};
use crate::probes;
use crate::serve_client::{self, Snapshot};
use crate::stats::{Tally, P99_MIN_SAMPLES};
use crate::trace::Tracer;
use crate::{Measured, Opts, Traced};

/// Set-up repetitions; `setup_s` is their median, which leaves out the
/// first repetition's cold start.
const SETUP_REPS: usize = 3;

/// Warm-up repetitions on sweep-bench and run-full, which are short enough
/// to afford more of them: a median over ~6 s of warm-ups moves less with
/// momentary host noise than one over ~3 s.
const WARMUP_REPS: usize = 5;

/// No timed phase starts a repetition past this, whatever `--seconds` or
/// the sample count asks, so one slow host phase cannot stretch a run
/// without bound.
const HARD_CAP_S: f64 = 120.0;

/// serve-mix: one cold request after every this many warm ones.
const COLD_EVERY: usize = 10;

/// serve-mix: cold entries written at set-up, before the warm set, so that
/// every cold write in a pass evicts an older cold entry and never a warm
/// one (two passes' worth, with room to spare).
const COLD_SLOTS: usize = 16;

/// serve-mix: passes of the traced phase.
const TRACED_PASSES: usize = 3;

/// serve-mix: pass number of the first traced pass. Fixed, and beyond any
/// timed phase, so the traced passes' cold points (and with them every
/// exact count) do not depend on how many untraced passes ran before.
const TRACED_PASS_BASE: usize = 1 << 20;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Repeats `rep` for about `seconds`: at least once, and never starting a
/// repetition the last one says would overrun, unless `more` still asks for
/// samples (bounded by [`HARD_CAP_S`]).
fn repeat(seconds: f64, more: impl Fn() -> bool, mut rep: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        rep();
        let last = t.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        let wanted = elapsed + last <= seconds || more();
        if !wanted || elapsed + last > HARD_CAP_S {
            break;
        }
    }
}

fn configs(points: &[Point]) -> Vec<RunConfig> {
    points.iter().map(|p| p.cfg.clone()).collect()
}

fn digests(results: &[Arc<Metrics>]) -> Vec<String> {
    results
        .iter()
        .map(|m| m.to_deterministic_string())
        .collect()
}

/// Records one check per point: `got[i]` equals `want[i]`.
fn check_all_same(
    tally: &mut Tally,
    what: &str,
    points: &[Point],
    got: &[String],
    want: &[String],
) {
    for ((p, g), w) in points.iter().zip(got).zip(want) {
        tally.record(points::check_same(&label(what, p), g, w));
    }
}

fn label(what: &str, p: &Point) -> String {
    format!(
        "{what} {} {} seed {}",
        p.cfg.benchmark.info().abbr,
        p.policy,
        p.cfg.seed
    )
}

/// Records one check per point: it completed every generated op.
fn check_ops(tally: &mut Tally, what: &str, points: &[Point], results: &[Arc<Metrics>]) {
    for (p, m) in points.iter().zip(results) {
        let (_, traces) = points::generate(&p.cfg);
        tally.record(points::check_ops(
            &label(what, p),
            m,
            points::op_count(&traces),
        ));
    }
}

/// Sweeps `points` `reps` times through fresh one-worker contexts
/// (built by `ctx`), checks that every repetition produced the same
/// metrics, and returns the median time and the last repetition's results.
fn setup_sweeps(
    tally: &mut Tally,
    points: &[Point],
    reps: usize,
    mut ctx: impl FnMut(usize) -> SweepCtx,
) -> (f64, Vec<Arc<Metrics>>) {
    let cfgs = configs(points);
    let mut times = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let mut last = Vec::new();
    for rep in 0..reps {
        let t = Instant::now();
        let results = ctx(rep).sweep(&cfgs);
        times.push(t.elapsed().as_secs_f64());
        let d = digests(&results);
        match &first {
            None => first = Some(d),
            Some(f) => check_all_same(tally, "set-up repetition", points, &d, f),
        }
        last = results;
    }
    let setup_s = crate::stats::median(&times).expect("at least one set-up repetition");
    (setup_s, last)
}

/// The set-up of sweep-bench and run-full: the fig14 points at unit scale,
/// which warm the allocator, the code, and every lazily built table before
/// timing starts. Returns the set-up time and the points with their
/// results.
fn warmup(opts: &Opts, tally: &mut Tally) -> (f64, Vec<(Point, Arc<Metrics>)>) {
    let points = fig14_points(Scale::Unit, opts.seed);
    // A traced run reports no `setup_s`, so one warm-up does.
    let reps = if opts.trace { 1 } else { WARMUP_REPS };
    let (setup_s, results) = setup_sweeps(tally, &points, reps, |_| SweepCtx::new(1));
    check_ops(tally, "set-up", &points, &results);
    (setup_s, points.into_iter().zip(results).collect())
}

fn paper_error(points: &[Point], results: &[Arc<Metrics>]) -> (f64, f64) {
    let refs: Vec<&Metrics> = results.iter().map(|m| m.as_ref()).collect();
    points::paper_error(points, &refs)
}

/// Runs `points` one by one through fingerprint → generate → build → run
/// under spans rooted at `point`, checking each against `reference`.
fn trace_points(
    tally: &mut Tally,
    tracer: &mut Tracer,
    points: &[Point],
    reference: &[Arc<Metrics>],
) -> Vec<(Metrics, u64)> {
    let mut out = Vec::with_capacity(points.len());
    for (i, (p, want)) in points.iter().zip(reference).enumerate() {
        let key = i as u64;
        let root = tracer.begin("point", key, None);
        tracer.span("experiments.fingerprint", key, Some(root), || {
            std::hint::black_box(p.cfg.fingerprint())
        });
        let (m, ops) = points::run_staged(&p.cfg, key, Some((&mut *tracer, root)));
        tracer.end(root);
        tally.record(points::check_same(
            &label("traced run", p),
            &m.to_deterministic_string(),
            &want.to_deterministic_string(),
        ));
        tally.record(points::check_ops(&label("traced run", p), &m, ops));
        out.push((m, ops));
    }
    out
}

/// A unit-scale point with a seed no other input of this run uses: the
/// `n`-th cold point of serve-mix, or the probe daemon's simulated point.
fn cold_point(seed: u64, n: usize) -> Point {
    let b = BenchmarkId::all()[n % BenchmarkId::all().len()];
    // SplitMix64 of (seed, n): distinct inputs give distinct seeds with
    // overwhelming probability; a collision with `seed` itself is skipped.
    let mut z = seed ^ (n as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let z = if z == seed { z.wrapping_add(1) } else { z };
    Point::new(b, "hdpat", Scale::Unit, z)
}

/// The probe daemon's simulated point, past every serve-mix cold index.
fn probe_cold(seed: u64) -> Point {
    cold_point(seed, usize::MAX / 2)
}

fn run_probes(
    tally: &mut Tally,
    opts: &Opts,
    results: &[(Point, Arc<Metrics>)],
    component_cfgs: &[RunConfig],
) -> (probes::ComponentNs, probes::Serving, f64) {
    let t = Instant::now();
    let components = probes::components(component_cfgs);
    let serving = probes::serving(
        tally,
        results,
        &probe_cold(opts.seed),
        &opts.scratch("probe-store"),
    );
    (components, serving, t.elapsed().as_secs_f64())
}

/// sweep-bench: the fig14 figure at bench scale, its 70 points swept
/// through a fresh one-worker `SweepCtx` per repetition.
pub fn sweep_bench(opts: &Opts, tally: &mut Tally) -> (Measured, Option<Traced>) {
    let (setup_s, _) = warmup(opts, tally);
    let scale = opts.scale(Scale::Bench);
    let points = fig14_points(scale, opts.seed);
    let cfgs = configs(&points);
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut first: Option<(SweepCtx, Vec<Arc<Metrics>>)> = None;
    repeat(
        opts.seconds,
        || false,
        || {
            let ctx = SweepCtx::new(1);
            let t = Instant::now();
            let results = ctx.sweep(&cfgs);
            m.wall_s.push(t.elapsed().as_secs_f64());
            m.events.push(results.iter().map(|r| r.sim_events).sum());
            match &first {
                None => first = Some((ctx, results)),
                Some((_, f)) => check_all_same(
                    tally,
                    "repetition",
                    &points,
                    &digests(&results),
                    &digests(f),
                ),
            }
        },
    );
    let (ctx, results) = first.expect("at least one repetition");
    check_ops(tally, "sweep", &points, &results);
    // At the figure's own seed (`RunConfig::new`'s), fig14_overall over the
    // same context renders the table from the swept points.
    let figure_seed = RunConfig::new(BenchmarkId::Spmv, scale, PolicyKind::Naive).seed;
    if opts.seed == figure_seed && scale == Scale::Bench {
        let table = wsg_bench::figures::fig14_overall(&ctx, Scale::Bench).to_text();
        tally.record(check_golden(&opts.root, &table));
    }
    m.paper_error = paper_error(&points, &results);

    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let traced_points = trace_points(tally, &mut tracer, &points, &results);
        let hdpat_cfgs: Vec<RunConfig> = points
            .iter()
            .filter(|p| p.policy == "hdpat")
            .map(|p| p.cfg.clone())
            .collect();
        let pairs: Vec<(Point, Arc<Metrics>)> = points.iter().cloned().zip(results).collect();
        let (components, serving, probe_s) = run_probes(tally, opts, &pairs, &hdpat_cfgs);
        Traced {
            tracer,
            root: "point",
            reps: 1,
            points: traced_points,
            components,
            serving,
            probe_s,
        }
    });
    (m, traced)
}

/// The fig14 table must be the one in the committed golden, which adds only
/// the `hdpat-sim figure` banner above it.
fn check_golden(root: &Path, table: &str) -> Result<(), String> {
    let path = root.join("tests/golden/fig14_bench.txt");
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("fig14 table: read {}: {e}", path.display()))?;
    if golden.trim_end().ends_with(table.trim_end()) {
        Ok(())
    } else {
        Err(format!(
            "fig14 table differs from {}:\n{table}",
            path.display()
        ))
    }
}

/// run-full: one full-scale point, SPMV under HDPAT, through `hdpat::run`.
pub fn run_full(opts: &Opts, tally: &mut Tally) -> (Measured, Option<Traced>) {
    let (setup_s, warm) = warmup(opts, tally);
    let point = Point::new(
        BenchmarkId::Spmv,
        "hdpat",
        opts.scale(Scale::Full),
        opts.seed,
    );
    let (warm_points, warm_results): (Vec<Point>, Vec<Arc<Metrics>>) = warm.iter().cloned().unzip();
    let mut m = Measured {
        setup_s,
        paper_error: paper_error(&warm_points, &warm_results),
        ..Measured::default()
    };
    let mut first: Option<Arc<Metrics>> = None;
    repeat(
        opts.seconds,
        || false,
        || {
            let t = Instant::now();
            let r = hdpat::run(&point.cfg);
            let wall = t.elapsed().as_secs_f64();
            m.wall_s.push(wall);
            m.events.push(r.sim_events);
            match &first {
                None => first = Some(Arc::new(r)),
                Some(f) => tally.record(points::check_same(
                    &label("repetition", &point),
                    &r.to_deterministic_string(),
                    &f.to_deterministic_string(),
                )),
            }
        },
    );
    let result = first.expect("at least one repetition");
    let one = std::slice::from_ref(&point);
    check_ops(tally, "run", one, std::slice::from_ref(&result));

    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let traced_points = trace_points(tally, &mut tracer, one, std::slice::from_ref(&result));
        // The serving probe stores the full result first, then the
        // warm-up's, so the budget-capped inserts evict the full entry. At
        // unit scale (the smoke tests) the point is one of the warm-up's
        // and is stored once.
        let mut stored = vec![(point.clone(), result.clone())];
        let fp = point.cfg.fingerprint();
        stored.extend(warm.into_iter().filter(|(p, _)| p.cfg.fingerprint() != fp));
        let (components, serving, probe_s) =
            run_probes(tally, opts, &stored, std::slice::from_ref(&point.cfg));
        Traced {
            tracer,
            root: "point",
            reps: 1,
            points: traced_points,
            components,
            serving,
            probe_s,
        }
    });
    (m, traced)
}

/// One serve-mix request.
struct Req {
    id: String,
    line: String,
    point: Point,
    /// Index into the warm set, `None` for a cold point.
    warm: Option<usize>,
}

/// The requests of pass `pass`: the warm set in fig14 order with a fresh
/// cold point after every [`COLD_EVERY`] warm ones.
fn pass_requests(seed: u64, warm: &[Point], pass: usize) -> Vec<Req> {
    let per_pass = warm.len() / COLD_EVERY;
    let mut out = Vec::with_capacity(warm.len() + per_pass);
    let mut cold = 0;
    for (i, p) in warm.iter().enumerate() {
        out.push(Req {
            id: format!("w{i}"),
            line: serve_client::submit(&format!("w{i}"), p),
            point: p.clone(),
            warm: Some(i),
        });
        if (i + 1) % COLD_EVERY == 0 {
            let point = cold_point(seed, COLD_SLOTS + pass * per_pass + cold);
            let id = format!("c{cold}");
            out.push(Req {
                line: serve_client::submit(&id, &point),
                id,
                point,
                warm: None,
            });
            cold += 1;
        }
    }
    out
}

/// What one serve-mix pass produced.
struct PassOut {
    wall_s: f64,
    /// (request index, latency ms, parsed reply).
    replies: Vec<(usize, f64, Result<Json, String>)>,
    snapshot: Snapshot,
    disk: hdpat::experiments::DiskCacheStats,
}

/// Boots a daemon over the store, sends `reqs` one at a time, and retires
/// the daemon. With a tracer, the pass is a `pass` span holding a
/// `request` span per request (`serve.daemon` from send to the reply line,
/// `serve.json_parse` for the client's parse) plus the daemon's boot and
/// shutdown.
fn serve_pass(
    store: &Path,
    budget: u64,
    reqs: &[Req],
    mut tracer: Option<(&mut Tracer, u64)>,
) -> PassOut {
    let root = tracer.as_mut().map(|(t, key)| t.begin("pass", *key, None));
    let t0 = Instant::now();
    let session = serve_client::session(store, Some(budget), |client| {
        let mut replies = Vec::with_capacity(reqs.len());
        for (i, r) in reqs.iter().enumerate() {
            let key = i as u64;
            let mut tr = match (tracer.as_mut(), root) {
                (Some((t, _)), Some(root)) => {
                    let id = t.begin("request", key, Some(root));
                    Some((&mut **t, id))
                }
                _ => None,
            };
            let t = Instant::now();
            let line = points::stage(&mut tr, "serve.daemon", key, || client.request(&r.line));
            let parsed = points::stage(&mut tr, "serve.json_parse", key, || Json::parse(&line));
            replies.push((i, ms_since(t), parsed));
            if let Some((t, id)) = tr {
                t.end(id);
            }
        }
        replies
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if let (Some((t, key)), Some(root)) = (tracer, root) {
        t.record("serve.boot", key, Some(root), session.booted);
        t.record("serve.shutdown", key, Some(root), session.retired);
        t.end(root);
    }
    PassOut {
        wall_s,
        replies: session.value,
        snapshot: session.snapshot,
        disk: session.disk,
    }
}

/// Checks one reply: a result for the right id, from the expected tier,
/// whose metrics equal the reference when one is known. Returns the served
/// metrics text.
fn check_reply(
    reply: &Result<Json, String>,
    id: &str,
    want_source: &str,
    reference: Option<&str>,
) -> Result<String, String> {
    let j = reply
        .as_ref()
        .map_err(|e| format!("{id}: unparsable reply: {e}"))?;
    let field = |k: &str| j.get(k).and_then(Json::as_str);
    if field("type") != Some("result") || field("id") != Some(id) {
        return Err(format!(
            "{id}: not a result for this request: {}",
            j.to_line()
        ));
    }
    if field("source") != Some(want_source) {
        return Err(format!(
            "{id}: answered from {:?}, expected {want_source}",
            field("source")
        ));
    }
    let text = field("metrics").ok_or_else(|| format!("{id}: result without metrics"))?;
    if let Some(want) = reference {
        points::check_same(id, text, want)?;
    }
    Ok(text.to_string())
}

/// Checks a pass's replies and re-runs its cold points directly, under
/// `check` spans when tracing. Returns the cold points' metrics and op
/// counts.
fn check_pass(
    tally: &mut Tally,
    out: &PassOut,
    reqs: &[Req],
    warm_ref: &[String],
    mut tracer: Option<&mut Tracer>,
) -> Vec<(Metrics, u64)> {
    let mut cold = Vec::new();
    for (i, _, reply) in &out.replies {
        let r = &reqs[*i];
        match r.warm {
            Some(w) => {
                tally.record(check_reply(reply, &r.id, "disk", Some(&warm_ref[w])).map(drop))
            }
            None => {
                let served = check_reply(reply, &r.id, "simulated", None);
                let key = *i as u64;
                let (m, ops) = match tracer.as_deref_mut() {
                    Some(t) => {
                        let root = t.begin("check", key, None);
                        let out = points::run_staged(&r.point.cfg, key, Some((t, root)));
                        t.end(root);
                        out
                    }
                    None => points::run_staged(&r.point.cfg, key, None),
                };
                let direct = m.to_deterministic_string();
                tally.record(served.and_then(|text| {
                    points::check_same(&label("served cold point", &r.point), &text, &direct)?;
                    points::check_ops(&label("served cold point", &r.point), &m, ops)
                }));
                cold.push((m, ops));
            }
        }
    }
    cold
}

/// serve-mix: closed-loop requests against a freshly booted daemon per
/// pass, over a budget-capped store that set-up filled with the warm set.
pub fn serve_mix(opts: &Opts, tally: &mut Tally) -> (Measured, Option<Traced>) {
    let warm = fig14_points(Scale::Unit, opts.seed);
    let setup_cold: Vec<Point> = (0..COLD_SLOTS).map(|n| cold_point(opts.seed, n)).collect();
    let stores: Vec<PathBuf> = (0..SETUP_REPS)
        .map(|rep| opts.scratch(&format!("store{rep}")))
        .collect();
    let mut fill: Vec<Point> = setup_cold;
    fill.extend(warm.iter().cloned());
    let (setup_s, filled) = setup_sweeps(tally, &fill, SETUP_REPS, |rep| {
        let _ = std::fs::remove_dir_all(&stores[rep]);
        let store = DiskCache::open(&stores[rep], None).expect("open the serve-mix store");
        SweepCtx::new(1).with_disk_cache(store)
    });
    let store = stores.last().expect("a set-up store").clone();
    for dir in &stores[..stores.len() - 1] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let warm_results = filled[COLD_SLOTS..].to_vec();
    check_ops(tally, "warm set", &warm, &warm_results);
    let warm_ref = digests(&warm_results);
    let budget = DiskCache::open(&store, None)
        .expect("reopen the serve-mix store")
        .resident_bytes();

    let mut m = Measured {
        setup_s,
        paper_error: paper_error(&warm, &warm_results),
        ..Measured::default()
    };
    let mut pass = 0;
    let hit_samples = std::cell::Cell::new(0usize);
    repeat(
        opts.seconds,
        || hit_samples.get() < P99_MIN_SAMPLES,
        || {
            let reqs = pass_requests(opts.seed, &warm, pass);
            pass += 1;
            let out = serve_pass(&store, budget, &reqs, None);
            for (i, ms, _) in &out.replies {
                match reqs[*i].warm {
                    Some(_) => m.hit_ms.push(*ms),
                    None => m.miss_ms.push(*ms),
                }
            }
            hit_samples.set(m.hit_ms.len());
            let cold = check_pass(tally, &out, &reqs, &warm_ref, None);
            m.wall_s.push(out.wall_s);
            m.events.push(cold.iter().map(|(c, _)| c.sim_events).sum());
        },
    );

    let traced = opts.trace.then(|| {
        let mut tracer = Tracer::new();
        let mut points_run = Vec::new();
        let mut cold_cfgs = Vec::new();
        let mut snapshot = Snapshot::default();
        let mut disk = hdpat::experiments::DiskCacheStats::default();
        for k in 0..TRACED_PASSES {
            let reqs = pass_requests(opts.seed, &warm, TRACED_PASS_BASE + k);
            let out = serve_pass(&store, budget, &reqs, Some((&mut tracer, k as u64)));
            points_run.extend(check_pass(tally, &out, &reqs, &warm_ref, Some(&mut tracer)));
            cold_cfgs.extend(
                reqs.iter()
                    .filter(|r| r.warm.is_none())
                    .map(|r| r.point.cfg.clone()),
            );
            snapshot.add(&out.snapshot);
            disk = probes::add_stats(disk, out.disk);
        }
        let pairs: Vec<(Point, Arc<Metrics>)> = warm.iter().cloned().zip(warm_results).collect();
        let (components, mut serving, probe_s) = run_probes(tally, opts, &pairs, &cold_cfgs);
        // The daemon and store figures of the passes themselves.
        serving.daemon = snapshot;
        serving.disk = disk;
        Traced {
            tracer,
            root: "pass",
            reps: TRACED_PASSES,
            points: points_run,
            components,
            serving,
            probe_s,
        }
    });
    let _ = std::fs::remove_dir_all(&store);
    (m, traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdpat::serve::proto::{self, Source};

    /// A served result whose metrics differ from the direct run fails its
    /// check, and the failure raises the run's fail ratio.
    #[test]
    fn a_tampered_reply_raises_the_fail_ratio() {
        let point = cold_point(7, 0);
        let m = hdpat::run(&point.cfg);
        let reference = m.to_deterministic_string();
        let fp = point.cfg.fingerprint();
        let good = Json::parse(&proto::result_line("c0", Source::Simulated, &fp, &m));
        let mut tampered = m.clone();
        tampered.total_cycles += 1;
        let bad = Json::parse(&proto::result_line("c0", Source::Simulated, &fp, &tampered));

        let mut tally = Tally::default();
        tally.record(check_reply(&good, "c0", "simulated", Some(&reference)).map(drop));
        assert_eq!(tally.fail_ratio(), 0.0);
        tally.record(check_reply(&bad, "c0", "simulated", Some(&reference)).map(drop));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.fail_ratio() > 0.0);
        // Right metrics from the wrong tier fail too.
        tally.record(check_reply(&good, "c0", "disk", Some(&reference)).map(drop));
        assert_eq!(tally.failed, 2);
    }

    /// Every cold write of a pass must evict an older cold entry, so the
    /// store holds more cold entries than one pass writes.
    #[test]
    fn cold_slots_outlast_a_pass() {
        let warm = fig14_points(Scale::Unit, 1);
        let reqs = pass_requests(1, &warm, 0);
        let cold = reqs.iter().filter(|r| r.warm.is_none()).count();
        assert!(cold > 0 && COLD_SLOTS >= 2 * cold);
        assert!(cold * 2 < warm.len(), "cold points stay a minority");
    }
}

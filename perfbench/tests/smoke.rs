//! Unit-scale smoke runs of every workload, plus the contract between the
//! emitted metrics and `BENCHMARK.json`.

use std::path::PathBuf;

use hdpat::serve::json::Json;
use perfbench::{metric_names, Opts, Workload};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the checkout")
        .to_path_buf()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Runs `workload` at unit scale and checks the result line: no failed
/// check, and exactly the expected metrics, each with a valid name, a
/// unit, and a finite value.
fn smoke(workload: Workload, trace: bool) {
    let opts = Opts {
        workload,
        seed: 7,
        seconds: 0.1,
        trace,
        smoke: true,
        root: root(),
    };
    let report = perfbench::run(&opts);
    assert_eq!(
        report.tally.failed,
        0,
        "{} reported failures",
        workload.name()
    );
    assert!(report.tally.attempted > 0);
    let line = Json::parse(&report.result_line()).expect("the result line is JSON");
    let Json::Obj(members) = &line else {
        panic!("the result line is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is an object")
    };
    let expected = metric_names(workload, trace);
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
            let value = match m.get("value") {
                Some(Json::F64(x)) => *x,
                Some(Json::U64(x)) => *x as f64,
                other => panic!("{name}: value {other:?} is not a number"),
            };
            assert!(value.is_finite(), "{name}: {value}");
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "{name}: bad unit `{unit}`");
            (name.clone(), unit.to_string())
        })
        .collect();
    let want: Vec<(String, String)> = expected
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(
        got,
        want,
        "{} emitted the wrong metric set",
        workload.name()
    );
    if trace {
        let doc = report.trace_doc.expect("a traced run keeps its spans");
        Json::parse(&doc).expect("the trace document is JSON");
    }
}

#[test]
fn sweep_bench_smoke() {
    smoke(Workload::SweepBench, false);
    smoke(Workload::SweepBench, true);
}

#[test]
fn run_full_smoke() {
    smoke(Workload::RunFull, false);
    smoke(Workload::RunFull, true);
}

#[test]
fn serve_mix_smoke() {
    smoke(Workload::ServeMix, false);
    smoke(Workload::ServeMix, true);
}

/// `BENCHMARK.json` names exactly the metrics each listed workload emits,
/// with the same units.
#[test]
fn benchmark_json_matches_the_emitted_metrics() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let emitted = |w: Workload, trace: bool| -> Vec<(String, String)> {
        metric_names(w, trace)
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    };
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("workloads is a list")
    };
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        let w = Workload::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert_eq!(listed("end_to_end"), emitted(w, false), "{name}");
        assert_eq!(listed("per_layer"), emitted(w, true), "{name}");
    }
}

#[test]
fn name_and_unit_rules() {
    assert!(valid_name("self_share.sim.run"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("has space"));
    assert!(valid_unit("events/s"));
    assert!(!valid_unit("×"));
}

//! Negative-path tests for the determinism lint: each seeded fixture must
//! produce its violation with the right rule and line, the clean fixture must
//! pass, and the CLI must exit nonzero/zero accordingly.

use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{lint_source, Rule, RuleSet};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).expect("fixture readable")
}

/// 1-based line number of the first line containing `needle`.
fn line_of(source: &str, needle: &str) -> usize {
    source
        .lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("fixture should contain {needle:?}"))
}

#[test]
fn d1_fixture_reports_each_seeded_violation() {
    let src = fixture("d1_map_iter.rs");
    let diags = lint_source("d1_map_iter.rs", &src, RuleSet::all());
    let map_iter: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::MapIter)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        map_iter,
        vec![
            line_of(&src, "state.inflight.iter()"),
            line_of(&src, "seen.drain()"),
        ],
        "diagnostics: {diags:#?}"
    );
    // The remaining diagnostics are d6 hits on the same declarations — d1
    // itself must not fire anywhere else.
    assert!(diags
        .iter()
        .all(|d| matches!(d.rule, Rule::MapIter | Rule::DefaultHash)));
}

#[test]
fn d2_fixture_reports_each_seeded_violation() {
    let src = fixture("d2_wallclock.rs");
    let diags = lint_source("d2_wallclock.rs", &src, RuleSet::all());
    let wallclock: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::Wallclock)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        wallclock,
        vec![
            line_of(&src, "Instant::now()"),
            line_of(&src, "rand::random::<u64>()"),
            line_of(&src, "std::thread::spawn"),
        ],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn d3_fixture_reports_the_seeded_violation() {
    let src = fixture("d3_float_cycle.rs");
    let diags = lint_source("d3_float_cycle.rs", &src, RuleSet::all());
    let float_cycle: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::FloatCycle)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        float_cycle,
        vec![line_of(&src, ".ceil() as Cycle")],
        "diagnostics: {diags:#?}"
    );
    // The integer-math variant must not be flagged.
    assert_eq!(diags.len(), float_cycle.len());
}

#[test]
fn d4_fixture_reports_each_seeded_violation() {
    let src = fixture("d4_unwrap.rs");
    let diags = lint_source("d4_unwrap.rs", &src, RuleSet::all());
    let unwrap: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::Unwrap)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        unwrap,
        vec![
            line_of(&src, ".unwrap()"),
            line_of(&src, ".expect(\"capacity must parse\")"),
        ],
        "diagnostics: {diags:#?}"
    );
}

#[test]
fn d5_fixture_reports_each_seeded_violation() {
    let src = fixture("d5_hook_pattern.rs");
    let diags = lint_source("d5_hook_pattern.rs", &src, RuleSet::all());
    let hook: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::HookPattern)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        hook,
        vec![
            line_of(&src, "probe: Probe,"),
            line_of(&src, "qualified: wsg_sim::probe::Probe,"),
        ],
        "diagnostics: {diags:#?}"
    );
    // The Option-wrapped fields, the signature, and the path expression must
    // all pass.
    assert_eq!(diags.len(), hook.len());
}

#[test]
fn d6_fixture_reports_each_seeded_violation() {
    let src = fixture("d6_default_hash.rs");
    let diags = lint_source("d6_default_hash.rs", &src, RuleSet::all());
    let default_hash: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::DefaultHash)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        default_hash,
        vec![
            line_of(&src, "use std::collections::HashMap;"),
            line_of(&src, "pub waiters: HashMap<u64, Vec<u32>>,"),
            line_of(&src, "let mut seen = std::collections::HashSet::new();"),
        ],
        "diagnostics: {diags:#?}"
    );
    // d1 must not double-fire on the same declarations, and the comment,
    // string, allow, and test-module mentions must all pass.
    assert_eq!(diags.len(), default_hash.len(), "diagnostics: {diags:#?}");
}

#[test]
fn d7_fixture_reports_each_seeded_violation() {
    let src = fixture("d7_shared_mut.rs");
    let diags = lint_source("d7_shared_mut.rs", &src, RuleSet::all());
    let shared: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::SharedMut)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        shared,
        vec![
            line_of(&src, "pub slots:"),
            line_of(&src, "pub fn pin"),
            line_of(&src, "pub available:"),
            line_of(&src, "pub comps: Vec<std::rc::Rc"),
            line_of(&src, "pub static mut GLOBAL_EPOCH"),
            line_of(&src, "thread_local! {"),
        ],
        "diagnostics: {diags:#?}"
    );
    // Prose/string mentions, the allow-annotated handle, and the test
    // module must contribute nothing else.
    assert_eq!(diags.len(), shared.len(), "diagnostics: {diags:#?}");
}

#[test]
fn d9_fixture_reports_each_seeded_violation() {
    let src = fixture("d9_stale_allow.rs");
    let diags = lint_source("d9_stale_allow.rs", &src, RuleSet::all());
    let stale: Vec<&xtask::Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == Rule::StaleAllow)
        .collect();
    // The suppressed Instant::now calls must not leak through as d2.
    assert_eq!(diags.len(), stale.len(), "diagnostics: {diags:#?}");
    let lines: Vec<usize> = stale.iter().map(|d| d.line).collect();
    assert_eq!(
        lines,
        vec![
            line_of(&src, "lint:allow-module(float-cycle)"),
            line_of(&src, "leftover from a removed"),
            line_of(&src, "std::time::Instant::now() // lint:allow(wallclock)"),
        ],
        "diagnostics: {stale:#?}"
    );
    assert!(stale[0].message.contains("no longer fires"));
    assert!(stale[1].message.contains("no longer fires"));
    assert!(stale[2].message.contains("without a justification"));
}

#[test]
fn d10_fixture_reports_each_seeded_violation() {
    let src = fixture("d10_det_string.rs");
    let diags = lint_source("d10_det_string.rs", &src, RuleSet::all());
    let det: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == Rule::DetString)
        .map(|d| d.line)
        .collect();
    assert_eq!(
        det,
        vec![line_of(&src, "events={}"), line_of(&src, "wall_ns={}"),],
        "diagnostics: {diags:#?}"
    );
    assert_eq!(diags.len(), det.len(), "diagnostics: {diags:#?}");
}

#[test]
fn clean_fixture_is_clean() {
    let src = fixture("clean.rs");
    let diags = lint_source("clean.rs", &src, RuleSet::all());
    assert!(diags.is_empty(), "clean fixture flagged: {diags:#?}");
}

#[test]
fn cli_exits_nonzero_with_file_line_diagnostics_on_seeded_fixtures() {
    for name in [
        "d1_map_iter.rs",
        "d2_wallclock.rs",
        "d3_float_cycle.rs",
        "d4_unwrap.rs",
        "d5_hook_pattern.rs",
        "d6_default_hash.rs",
        "d7_shared_mut.rs",
        "d9_stale_allow.rs",
        "d10_det_string.rs",
    ] {
        let path = fixture_path(name);
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["lint", path.to_str().expect("utf-8 path")])
            .output()
            .expect("xtask binary runs");
        assert!(
            !out.status.success(),
            "{name}: expected nonzero exit, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("{name}:")),
            "{name}: diagnostics should carry file:line, got: {stdout}"
        );
    }
}

#[test]
fn cli_exits_zero_on_clean_fixture() {
    let path = fixture_path("clean.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", path.to_str().expect("utf-8 path")])
        .output()
        .expect("xtask binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "expected clean exit, got: {stdout}");
    assert!(stdout.contains("lint clean"), "got: {stdout}");
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = xtask::lint_workspace(root);
    assert!(
        report.diagnostics.is_empty(),
        "workspace lint violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 20, "walker found too few files");
}

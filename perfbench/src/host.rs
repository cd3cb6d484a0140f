//! Host facts recorded with every result, so that two results can be shown
//! to come from the same host and the same source tree.

use std::path::Path;

use hdpat::serve::json::Json;

/// The rustc that built this binary (captured by `build.rs`).
pub const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

/// Peak resident set size of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Host and build facts of this run, as one JSON object.
pub fn facts(root: &Path, workload: &str, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::U64(seed)),
        ("nproc".into(), Json::U64(nproc)),
        ("cpu_model".into(), Json::Str(cpu_model())),
        ("rustc".into(), Json::Str(RUSTC_VERSION.into())),
        (
            "commit".into(),
            git_commit(root).map_or(Json::Null, Json::Str),
        ),
        ("workers".into(), Json::U64(1)),
    ])
}

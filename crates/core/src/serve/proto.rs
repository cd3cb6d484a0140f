//! Wire protocol of the `hdpat-sim serve` daemon: newline-delimited JSON
//! requests and responses.
//!
//! One request per line, one or more response lines per request. The full
//! human-readable specification lives in PROTOCOL.md at the repository
//! root; the examples there are generated from [`protocol_examples`] (via
//! `hdpat-sim regen-protocol`), so the document cannot drift from this
//! module without CI noticing.
//!
//! Compatibility rules:
//!
//! * Request `op` tokens, response `type` tokens, member names, and error
//!   codes are **stable** — never renamed, only added.
//! * Parsers ignore unknown members, so old daemons tolerate newer clients
//!   (and vice versa) as long as the required members are present.
//! * Policy tokens come from [`PolicyKind::catalog`], benchmark tokens from
//!   the Table II abbreviations (`hdpat-sim list`), scale tokens are
//!   `unit` / `bench` / `full`.

use wsg_workloads::{BenchmarkId, Scale};

use super::json::Json;
use crate::experiments::RunConfig;
use crate::metrics::Metrics;
use crate::policy::PolicyKind;

/// Stable error codes carried by `{"type":"error"}` responses.
pub mod codes {
    /// The line is not a JSON object, or a required member is missing or of
    /// the wrong type. The `message` member says which.
    pub const BAD_REQUEST: &str = "bad-request";
    /// The `op` token names no known operation.
    pub const UNKNOWN_OP: &str = "unknown-op";
    /// The `benchmark` token names no Table II workload.
    pub const UNKNOWN_BENCHMARK: &str = "unknown-benchmark";
    /// The `policy` token is not in the policy catalog.
    pub const UNKNOWN_POLICY: &str = "unknown-policy";
    /// The `scale` token is not `unit`, `bench`, or `full`.
    pub const UNKNOWN_SCALE: &str = "unknown-scale";
    /// A submit reused a request id that is still live on this connection.
    pub const DUPLICATE_ID: &str = "duplicate-id";
    /// A cancel named an id that is unknown, already running, or already
    /// answered — nothing left to cancel.
    pub const NOT_FOUND: &str = "not-found";
    /// The daemon is draining after a shutdown request and accepts no new
    /// work.
    pub const SHUTTING_DOWN: &str = "shutting-down";
}

/// Where a result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Simulated fresh by this daemon.
    Simulated,
    /// Served from the in-memory run cache.
    Memory,
    /// Served from the persistent on-disk cache.
    Disk,
}

impl Source {
    /// The stable wire token.
    pub fn token(self) -> &'static str {
        match self {
            Source::Simulated => "simulated",
            Source::Memory => "memory",
            Source::Disk => "disk",
        }
    }
}

/// A parsed and validated `submit` request.
#[derive(Debug, Clone)]
pub struct Submit {
    /// Client-chosen request id, echoed on every response for this run.
    pub id: String,
    /// Workload.
    pub benchmark: BenchmarkId,
    /// Translation policy.
    pub policy: PolicyKind,
    /// Workload scale (default `bench`).
    pub scale: Scale,
    /// Workload seed (default 42).
    pub seed: u64,
    /// Scheduling priority; higher runs earlier (default 0).
    pub priority: u64,
    /// Whether to stream `progress` events for this run (default false).
    pub progress: bool,
}

impl Submit {
    /// The fully specified run this submit describes. Built through
    /// [`RunConfig::new`], so a daemon request and the equivalent CLI
    /// invocation produce the same fingerprint and share cache entries.
    pub fn run_config(&self) -> RunConfig {
        RunConfig::new(self.benchmark, self.scale, self.policy).with_seed(self.seed)
    }
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Schedule a simulation.
    Submit(Submit),
    /// Report daemon queue/worker occupancy.
    Status,
    /// Cancel a still-queued submit by id.
    Cancel {
        /// The id given at submit time.
        id: String,
    },
    /// Report run-cache and disk-cache statistics.
    CacheStats,
    /// Report the full operational metrics snapshot ([`crate::ops`]):
    /// request-lifecycle latency histograms per outcome tier, serving
    /// gauges, cache counters, and `selfprof` phase timings.
    Metrics,
    /// Stop accepting work, drain, and exit.
    Shutdown,
}

/// A request parse/validation failure, carrying the stable error code and
/// the offending request id when one could be extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable detail (not part of the stability contract).
    pub message: String,
    /// The request's `id`, if the line carried one.
    pub id: Option<String>,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>, id: Option<String>) -> Self {
        Self {
            code,
            message: message.into(),
            id,
        }
    }

    /// The `{"type":"error"}` response line for this failure.
    pub fn to_line(&self) -> String {
        error_line(self.id.as_deref(), self.code, &self.message)
    }
}

/// Looks a benchmark up by its Table II abbreviation (ASCII
/// case-insensitive), e.g. `"SPMV"`.
pub fn parse_benchmark(token: &str) -> Option<BenchmarkId> {
    BenchmarkId::all()
        .into_iter()
        .find(|b| b.info().abbr.eq_ignore_ascii_case(token))
}

/// Looks a workload scale up by its wire token (ASCII case-insensitive).
pub fn parse_scale(token: &str) -> Option<Scale> {
    match token.to_ascii_lowercase().as_str() {
        "unit" => Some(Scale::Unit),
        "bench" => Some(Scale::Bench),
        "full" => Some(Scale::Full),
        _ => None,
    }
}

/// The wire token of a workload scale.
pub fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Unit => "unit",
        Scale::Bench => "bench",
        Scale::Full => "full",
    }
}

impl Request {
    /// Parses and validates one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let value = Json::parse(line).map_err(|e| {
            ProtoError::new(codes::BAD_REQUEST, format!("malformed JSON: {e}"), None)
        })?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ProtoError::new(
                codes::BAD_REQUEST,
                "request must be a JSON object",
                None,
            ));
        }
        // Best-effort id for error attribution, before strict validation.
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .map(|s| s.to_string());
        let op = value.get("op").and_then(Json::as_str).ok_or_else(|| {
            ProtoError::new(codes::BAD_REQUEST, "missing string member `op`", id.clone())
        })?;
        match op {
            "submit" => Self::parse_submit(&value).map(Request::Submit),
            "status" => Ok(Request::Status),
            "cancel" => {
                let id = id.ok_or_else(|| {
                    ProtoError::new(codes::BAD_REQUEST, "cancel needs an `id`", None)
                })?;
                Ok(Request::Cancel { id })
            }
            "cache-stats" => Ok(Request::CacheStats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ProtoError::new(
                codes::UNKNOWN_OP,
                format!("unknown op `{other}`"),
                id,
            )),
        }
    }

    fn parse_submit(value: &Json) -> Result<Submit, ProtoError> {
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| {
                ProtoError::new(
                    codes::BAD_REQUEST,
                    "submit needs a non-empty string `id`",
                    None,
                )
            })?
            .to_string();
        let some_id = Some(id.clone());
        let bench_token = value
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or_else(|| {
                ProtoError::new(
                    codes::BAD_REQUEST,
                    "submit needs a string `benchmark`",
                    some_id.clone(),
                )
            })?;
        let benchmark = parse_benchmark(bench_token).ok_or_else(|| {
            ProtoError::new(
                codes::UNKNOWN_BENCHMARK,
                format!("unknown benchmark `{bench_token}`; see `hdpat-sim list`"),
                some_id.clone(),
            )
        })?;
        let policy_token = value.get("policy").and_then(Json::as_str).ok_or_else(|| {
            ProtoError::new(
                codes::BAD_REQUEST,
                "submit needs a string `policy`",
                some_id.clone(),
            )
        })?;
        let policy = PolicyKind::from_token(policy_token).ok_or_else(|| {
            ProtoError::new(
                codes::UNKNOWN_POLICY,
                format!("unknown policy `{policy_token}`; see `hdpat-sim list`"),
                some_id.clone(),
            )
        })?;
        let scale = match value.get("scale") {
            None => Scale::Bench,
            Some(s) => {
                let token = s.as_str().ok_or_else(|| {
                    ProtoError::new(
                        codes::BAD_REQUEST,
                        "`scale` must be a string",
                        some_id.clone(),
                    )
                })?;
                parse_scale(token).ok_or_else(|| {
                    ProtoError::new(
                        codes::UNKNOWN_SCALE,
                        format!("unknown scale `{token}`; use unit, bench, or full"),
                        some_id.clone(),
                    )
                })?
            }
        };
        let u64_member = |name: &str, default: u64| -> Result<u64, ProtoError> {
            match value.get(name) {
                None => Ok(default),
                Some(v) => v.as_u64().ok_or_else(|| {
                    ProtoError::new(
                        codes::BAD_REQUEST,
                        format!("`{name}` must be a non-negative integer"),
                        some_id.clone(),
                    )
                }),
            }
        };
        let seed = u64_member("seed", 42)?;
        let priority = u64_member("priority", 0)?;
        let progress = match value.get("progress") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| {
                ProtoError::new(
                    codes::BAD_REQUEST,
                    "`progress` must be a boolean",
                    some_id.clone(),
                )
            })?,
        };
        Ok(Submit {
            id,
            benchmark,
            policy,
            scale,
            seed,
            priority,
            progress,
        })
    }
}

/// Builds the canonical `submit` request line for one run — the daemon's
/// parser accepts exactly what this emits, and `hdpat-sim emit-mix` and the
/// replay bench are built on it.
pub fn submit_line(
    id: &str,
    benchmark: BenchmarkId,
    policy_token: &str,
    scale: Scale,
    seed: u64,
) -> String {
    Json::Obj(vec![
        ("op".into(), Json::Str("submit".into())),
        ("id".into(), Json::Str(id.into())),
        ("benchmark".into(), Json::Str(benchmark.info().abbr.into())),
        ("policy".into(), Json::Str(policy_token.into())),
        ("scale".into(), Json::Str(scale_token(scale).into())),
        ("seed".into(), Json::U64(seed)),
    ])
    .to_line()
}

/// The `{"type":"result"}` line answering a submit: id, attribution,
/// fingerprint, headline scalars, and the full deterministic metrics
/// serialization (`metrics` member, `Metrics::to_deterministic_string`).
pub fn result_line(id: &str, source: Source, fingerprint: &str, metrics: &Metrics) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("result".into())),
        ("id".into(), Json::Str(id.into())),
        ("source".into(), Json::Str(source.token().into())),
        ("fingerprint".into(), Json::Str(fingerprint.into())),
        ("total_cycles".into(), Json::U64(metrics.total_cycles)),
        ("ops_completed".into(), Json::U64(metrics.ops_completed)),
        ("iommu_walks".into(), Json::U64(metrics.iommu_walks)),
        (
            "metrics".into(),
            Json::Str(metrics.to_deterministic_string()),
        ),
    ])
    .to_line()
}

/// A `{"type":"progress"}` event: `state` is `"started"` when the run
/// leaves the queue for a worker and `"finished"` when the simulation
/// completes. Only emitted for submits with `"progress":true`, and only for
/// runs that actually simulate (cache hits answer directly).
pub fn progress_line(id: &str, state: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("progress".into())),
        ("id".into(), Json::Str(id.into())),
        ("state".into(), Json::Str(state.into())),
    ])
    .to_line()
}

/// A `{"type":"error"}` line; `id` is `null` when the failing line carried
/// none.
pub fn error_line(id: Option<&str>, code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("error".into())),
        ("id".into(), id.map_or(Json::Null, |i| Json::Str(i.into()))),
        ("code".into(), Json::Str(code.into())),
        ("message".into(), Json::Str(message.into())),
    ])
    .to_line()
}

/// Everything a `{"type":"status"}` reply reports. The original four
/// members (`queued`/`running`/`completed`/`clients`) are scheduling state;
/// the rest are the serving gauges an operator needs at a glance.
#[derive(Debug, Clone, Default)]
pub struct StatusReport {
    /// Jobs waiting in per-client queues (total queue depth).
    pub queued: u64,
    /// Jobs executing on pool workers (in-flight).
    pub running: u64,
    /// Runs completed since start.
    pub completed: u64,
    /// Connected clients.
    pub clients: u64,
    /// `(client id, queued jobs)` per connected client, ascending by id.
    pub queue_depth: Vec<(u64, u64)>,
    /// Pool worker threads (`workers - running` are idle).
    pub workers: u64,
    /// Completed results parked in per-client reorder buffers.
    pub reorder_buffered: u64,
    /// Whole seconds since the daemon started.
    pub uptime_seconds: u64,
}

/// The `{"type":"status"}` line answering a status request.
pub fn status_line(report: &StatusReport) -> String {
    let depth = report
        .queue_depth
        .iter()
        .map(|&(client, depth)| {
            Json::Obj(vec![
                ("client".into(), Json::U64(client)),
                ("depth".into(), Json::U64(depth)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("type".into(), Json::Str("status".into())),
        ("queued".into(), Json::U64(report.queued)),
        ("running".into(), Json::U64(report.running)),
        ("completed".into(), Json::U64(report.completed)),
        ("clients".into(), Json::U64(report.clients)),
        ("queue_depth".into(), Json::Arr(depth)),
        ("workers".into(), Json::U64(report.workers)),
        (
            "reorder_buffered".into(),
            Json::U64(report.reorder_buffered),
        ),
        ("uptime_seconds".into(), Json::U64(report.uptime_seconds)),
    ])
    .to_line()
}

/// Disk-store state reported by [`cache_stats_line`].
#[derive(Debug, Clone)]
pub struct DiskReport<'a> {
    /// Cache directory.
    pub dir: &'a std::path::Path,
    /// Entries currently on disk.
    pub entries: u64,
    /// Bytes of entry files currently on disk.
    pub resident_bytes: u64,
    /// Configured `--cache-budget`, if any.
    pub budget: Option<u64>,
    /// Lifetime hit/miss/write/eviction counters.
    pub stats: crate::experiments::DiskCacheStats,
}

/// The `{"type":"cache-stats"}` line: in-memory entry count plus the disk
/// store's counters and occupancy — resident bytes and the configured
/// budget expose `--cache-budget` pressure, not just hit rates. All disk
/// members are zero/null, with `"disk":false`, when the daemon runs
/// without a cache directory.
pub fn cache_stats_line(memory_entries: u64, disk: Option<DiskReport<'_>>) -> String {
    let mut members = vec![
        ("type".into(), Json::Str("cache-stats".into())),
        ("memory_entries".into(), Json::U64(memory_entries)),
        ("disk".into(), Json::Bool(disk.is_some())),
    ];
    let (dir, entries, resident, budget, stats) = match disk {
        Some(d) => (
            Json::Str(d.dir.display().to_string()),
            d.entries,
            d.resident_bytes,
            d.budget.map_or(Json::Null, Json::U64),
            d.stats,
        ),
        None => (Json::Null, 0, 0, Json::Null, Default::default()),
    };
    members.push(("disk_dir".into(), dir));
    members.push(("disk_entries".into(), Json::U64(entries)));
    members.push(("disk_resident_bytes".into(), Json::U64(resident)));
    members.push(("disk_budget_bytes".into(), budget));
    members.push(("disk_hits".into(), Json::U64(stats.hits)));
    members.push(("disk_misses".into(), Json::U64(stats.misses)));
    members.push(("disk_writes".into(), Json::U64(stats.writes)));
    members.push(("disk_evictions".into(), Json::U64(stats.evictions)));
    members.push(("disk_discarded".into(), Json::U64(stats.discarded)));
    Json::Obj(members).to_line()
}

/// The `{"type":"cancelled"}` line confirming a cancel; released in the
/// cancelled submit's position of the client's result order.
pub fn cancelled_line(id: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("cancelled".into())),
        ("id".into(), Json::Str(id.into())),
    ])
    .to_line()
}

/// The `{"type":"shutdown-ack"}` line, written after every queued and
/// in-flight run has drained; `drained` counts the runs completed between
/// the shutdown request and the ack.
pub fn shutdown_ack_line(drained: u64) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("shutdown-ack".into())),
        ("drained".into(), Json::U64(drained)),
    ])
    .to_line()
}

/// The generated examples section of PROTOCOL.md: every request form and
/// every response type as real wire lines, produced by the same builders
/// the daemon uses. `hdpat-sim regen-protocol` splices this between the
/// GENERATED markers; `--check` (in CI) fails when the document has
/// drifted from the code.
pub fn protocol_examples() -> String {
    let mut s = String::new();
    let mut section = |title: &str, explain: &str, lines: &[String]| {
        s.push_str("### ");
        s.push_str(title);
        s.push_str("\n\n");
        s.push_str(explain);
        s.push_str("\n\n```json\n");
        for line in lines {
            // Every example must round-trip through the real parser/writer.
            let parsed = match Json::parse(line) {
                Ok(p) => p,
                Err(e) => unreachable!("example `{line}` does not parse: {e}"),
            };
            assert_eq!(parsed.to_line(), *line, "example is not canonical");
            s.push_str(line);
            s.push('\n');
        }
        s.push_str("```\n\n");
    };

    section(
        "submit → result",
        "Request one run; the result echoes the id, attributes its source \
         (`simulated`, `memory`, or `disk`), and carries the headline \
         scalars plus the full deterministic metrics serialization.",
        &[
            submit_line("q0001", BenchmarkId::Spmv, "hdpat", Scale::Unit, 42),
            Json::Obj(vec![
                ("type".into(), Json::Str("result".into())),
                ("id".into(), Json::Str("q0001".into())),
                ("source".into(), Json::Str("simulated".into())),
                (
                    "fingerprint".into(),
                    Json::Str(format!(
                        "{}|wafer=7x7cpu3,3|...|seed=42",
                        crate::experiments::FINGERPRINT_VERSION
                    )),
                ),
                ("total_cycles".into(), Json::U64(1260193)),
                ("ops_completed".into(), Json::U64(57344)),
                ("iommu_walks".into(), Json::U64(1597)),
                (
                    "metrics".into(),
                    Json::Str("total_cycles 1260193\n...".into()),
                ),
            ])
            .to_line(),
        ],
    );
    section(
        "submit with progress streaming",
        "With `\"progress\":true` the daemon emits `started` when the run \
         leaves the queue and `finished` when the simulation completes \
         (cache hits skip both). Progress events are written immediately — \
         they are the only lines exempt from per-client result ordering.",
        &[
            Json::Obj(vec![
                ("op".into(), Json::Str("submit".into())),
                ("id".into(), Json::Str("q0002".into())),
                ("benchmark".into(), Json::Str("PR".into())),
                ("policy".into(), Json::Str("naive".into())),
                ("scale".into(), Json::Str("unit".into())),
                ("priority".into(), Json::U64(7)),
                ("progress".into(), Json::Bool(true)),
            ])
            .to_line(),
            progress_line("q0002", "started"),
            progress_line("q0002", "finished"),
        ],
    );
    section(
        "status",
        "Queue and worker occupancy at the instant the request is handled: \
         total and per-client queue depth, in-flight runs (`running`, out \
         of `workers` pool threads), reorder-buffered results awaiting \
         in-order release, and daemon uptime.",
        &[
            Json::Obj(vec![("op".into(), Json::Str("status".into()))]).to_line(),
            status_line(&StatusReport {
                queued: 3,
                running: 2,
                completed: 17,
                clients: 2,
                queue_depth: vec![(1, 2), (2, 1)],
                workers: 4,
                reorder_buffered: 1,
                uptime_seconds: 86,
            }),
        ],
    );
    section(
        "cancel",
        "Cancels a still-queued submit. The confirmation is released in the \
         cancelled run's position of the client's result order; a run \
         already executing (or already answered, or never submitted) \
         reports `not-found`.",
        &[
            Json::Obj(vec![
                ("op".into(), Json::Str("cancel".into())),
                ("id".into(), Json::Str("q0003".into())),
            ])
            .to_line(),
            cancelled_line("q0003"),
            error_line(
                Some("q0004"),
                codes::NOT_FOUND,
                "id `q0004` is not queued here",
            ),
        ],
    );
    section(
        "cache-stats",
        "In-memory run-cache occupancy plus the persistent store's \
         counters and occupancy: `disk_resident_bytes` against \
         `disk_budget_bytes` (null when unbudgeted) shows `--cache-budget` \
         pressure. `disk` is `false` (and the disk members zero/null) when \
         the daemon runs without `--cache-dir`.",
        &[
            Json::Obj(vec![("op".into(), Json::Str("cache-stats".into()))]).to_line(),
            cache_stats_line(
                12,
                Some(DiskReport {
                    dir: std::path::Path::new("/var/cache/hdpat"),
                    entries: 70,
                    resident_bytes: 191_362,
                    budget: Some(1_048_576),
                    stats: crate::experiments::DiskCacheStats {
                        hits: 58,
                        misses: 12,
                        writes: 12,
                        evictions: 0,
                        discarded: 0,
                    },
                }),
            ),
        ],
    );
    section(
        "metrics",
        "The full operational snapshot: per-tier request-lifecycle latency \
         histograms (log-scaled microseconds, `[lower_bound, count]` \
         buckets), serving gauges, and cache state. The same snapshot backs `hdpat-sim serve --metrics-out`; \
         `selfprof` is null unless the daemon was built with `--features \
         selfprof`. At quiescence the tier counts sum to `submitted`.",
        &[
            Json::Obj(vec![("op".into(), Json::Str("metrics".into()))]).to_line(),
            example_metrics_line(),
        ],
    );
    section(
        "shutdown",
        "Stops intake, drains every queued and in-flight run (their results \
         are still delivered), then acknowledges and closes.",
        &[
            Json::Obj(vec![("op".into(), Json::Str("shutdown".into()))]).to_line(),
            shutdown_ack_line(5),
        ],
    );
    section(
        "errors",
        "Every failure is a one-line `error` response with a stable `code`; \
         `id` is null when the failing line carried none. The codes: \
         `bad-request`, `unknown-op`, `unknown-benchmark`, \
         `unknown-policy`, `unknown-scale`, `duplicate-id`, `not-found`, \
         `shutting-down`.",
        &[
            error_line(
                None,
                codes::BAD_REQUEST,
                "malformed JSON: expected `:` at byte 9",
            ),
            error_line(
                Some("q0005"),
                codes::UNKNOWN_POLICY,
                "unknown policy `hdapt`; see `hdpat-sim list`",
            ),
            error_line(
                Some("q0006"),
                codes::SHUTTING_DOWN,
                "daemon is draining; resubmit to the next instance",
            ),
        ],
    );
    s
}

/// A deterministic `metrics` reply for PROTOCOL.md, built through the real
/// snapshot path: 70 submits resolving to 58 disk hits and 12 simulations,
/// with plausible fixed latencies. The `selfprof` member is null because
/// `regen-protocol` runs from a build without that feature.
fn example_metrics_line() -> String {
    use crate::ops::{DiskGauges, GaugeSample, OpsRegistry, Tier};
    let reg = OpsRegistry::new();
    for _ in 0..70 {
        reg.record_submit();
    }
    for i in 0..58u64 {
        reg.record_outcome(Tier::Disk, 40 + i, 350, 390 + i);
    }
    for i in 0..12u64 {
        reg.record_outcome(
            Tier::Simulated,
            55,
            180_000 + 4_000 * i,
            180_055 + 4_000 * i,
        );
    }
    let gauges = GaugeSample {
        clients: 2,
        queued: 3,
        queue_depth_per_client: vec![(1, 2), (2, 1)],
        inflight: 2,
        workers: 4,
        workers_busy: 2,
        reorder_buffered: 1,
        uptime_seconds: 86,
        memory_entries: 12,
        disk: Some(DiskGauges {
            entries: 70,
            resident_bytes: 191_362,
            budget: Some(1_048_576),
            stats: crate::experiments::DiskCacheStats {
                hits: 58,
                misses: 12,
                writes: 12,
                evictions: 0,
                discarded: 0,
            },
        }),
    };
    reg.snapshot_json(&gauges).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_line_round_trips_through_the_parser() {
        let line = submit_line("q1", BenchmarkId::Spmv, "hdpat", Scale::Unit, 7);
        let Request::Submit(s) = Request::parse(&line).unwrap() else {
            unreachable!("submit line parsed as non-submit");
        };
        assert_eq!(s.id, "q1");
        assert_eq!(s.benchmark, BenchmarkId::Spmv);
        assert_eq!(s.policy, PolicyKind::hdpat());
        assert_eq!(s.scale, Scale::Unit);
        assert_eq!(s.seed, 7);
        assert_eq!(s.priority, 0);
        assert!(!s.progress);
        // The submit describes the same run the CLI would build.
        assert_eq!(
            s.run_config().fingerprint(),
            RunConfig::new(BenchmarkId::Spmv, Scale::Unit, PolicyKind::hdpat())
                .with_seed(7)
                .fingerprint()
        );
    }

    #[test]
    fn defaults_and_unknown_members_are_tolerated() {
        let Request::Submit(s) = Request::parse(
            r#"{"op":"submit","id":"a","benchmark":"relu","policy":"NAIVE","future_member":1}"#,
        )
        .unwrap() else {
            unreachable!("parsed as non-submit");
        };
        assert_eq!(s.scale, Scale::Bench);
        assert_eq!(s.seed, 42);
        assert_eq!(s.priority, 0);
        assert_eq!(s.policy, PolicyKind::Naive);
    }

    #[test]
    fn control_requests_parse() {
        assert!(matches!(
            Request::parse(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"cache-stats"}"#).unwrap(),
            Request::CacheStats
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            Request::parse(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
        match Request::parse(r#"{"op":"cancel","id":"x"}"#).unwrap() {
            Request::Cancel { id } => assert_eq!(id, "x"),
            other => unreachable!("parsed as {other:?}"),
        }
    }

    #[test]
    fn validation_failures_carry_stable_codes_and_ids() {
        let cases = [
            ("{not json", codes::BAD_REQUEST, None),
            ("[1,2]", codes::BAD_REQUEST, None),
            (r#"{"id":"q9"}"#, codes::BAD_REQUEST, Some("q9")),
            (
                r#"{"op":"frobnicate","id":"q9"}"#,
                codes::UNKNOWN_OP,
                Some("q9"),
            ),
            (
                r#"{"op":"submit","id":"q9","benchmark":"nope","policy":"naive"}"#,
                codes::UNKNOWN_BENCHMARK,
                Some("q9"),
            ),
            (
                r#"{"op":"submit","id":"q9","benchmark":"relu","policy":"nope"}"#,
                codes::UNKNOWN_POLICY,
                Some("q9"),
            ),
            (
                r#"{"op":"submit","id":"q9","benchmark":"relu","policy":"naive","scale":"tiny"}"#,
                codes::UNKNOWN_SCALE,
                Some("q9"),
            ),
            (
                r#"{"op":"submit","id":"q9","benchmark":"relu","policy":"naive","seed":-1}"#,
                codes::BAD_REQUEST,
                Some("q9"),
            ),
            (
                r#"{"op":"submit","benchmark":"relu","policy":"naive"}"#,
                codes::BAD_REQUEST,
                None,
            ),
            (r#"{"op":"cancel"}"#, codes::BAD_REQUEST, None),
        ];
        for (line, code, id) in cases {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "`{line}`");
            assert_eq!(err.id.as_deref(), id, "`{line}`");
            // The rendered error is itself valid protocol JSON.
            let rendered = Json::parse(&err.to_line()).unwrap();
            assert_eq!(rendered.get("type").and_then(Json::as_str), Some("error"));
            assert_eq!(rendered.get("code").and_then(Json::as_str), Some(code));
        }
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let m = Metrics::new(1, 10_000);
        for line in [
            result_line("q1", Source::Disk, "hdpat-rc-v2|...", &m),
            progress_line("q1", "started"),
            error_line(None, codes::BAD_REQUEST, "x"),
            status_line(&StatusReport {
                queued: 1,
                running: 2,
                completed: 3,
                clients: 4,
                queue_depth: vec![(1, 1)],
                workers: 2,
                reorder_buffered: 0,
                uptime_seconds: 5,
            }),
            cache_stats_line(0, None),
            cancelled_line("q1"),
            shutdown_ack_line(0),
            example_metrics_line(),
        ] {
            assert!(!line.contains('\n'), "{line}");
            Json::parse(&line).unwrap();
        }
    }

    #[test]
    fn status_and_cache_stats_carry_ops_members() {
        let status = Json::parse(&status_line(&StatusReport {
            queued: 3,
            running: 2,
            completed: 17,
            clients: 2,
            queue_depth: vec![(1, 2), (2, 1)],
            workers: 4,
            reorder_buffered: 1,
            uptime_seconds: 9,
        }))
        .unwrap();
        assert_eq!(status.get("workers").and_then(Json::as_u64), Some(4));
        assert_eq!(status.get("uptime_seconds").and_then(Json::as_u64), Some(9));
        assert_eq!(
            status.get("reorder_buffered").and_then(Json::as_u64),
            Some(1)
        );
        match status.get("queue_depth") {
            Some(Json::Arr(rows)) => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].get("client").and_then(Json::as_u64), Some(1));
                assert_eq!(rows[0].get("depth").and_then(Json::as_u64), Some(2));
            }
            other => unreachable!("queue_depth must be an array, got {other:?}"),
        }

        let cs = Json::parse(&cache_stats_line(
            1,
            Some(DiskReport {
                dir: std::path::Path::new("/tmp/c"),
                entries: 3,
                resident_bytes: 9000,
                budget: Some(10_000),
                stats: crate::experiments::DiskCacheStats {
                    hits: 1,
                    misses: 2,
                    writes: 2,
                    evictions: 4,
                    discarded: 0,
                },
            }),
        ))
        .unwrap();
        assert_eq!(
            cs.get("disk_resident_bytes").and_then(Json::as_u64),
            Some(9000)
        );
        assert_eq!(
            cs.get("disk_budget_bytes").and_then(Json::as_u64),
            Some(10_000)
        );
        assert_eq!(cs.get("disk_evictions").and_then(Json::as_u64), Some(4));
        // Without a disk store the occupancy members are zero/null.
        let bare = Json::parse(&cache_stats_line(0, None)).unwrap();
        assert_eq!(
            bare.get("disk_resident_bytes").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(bare.get("disk_budget_bytes"), Some(&Json::Null));
    }

    #[test]
    fn result_line_carries_the_exact_deterministic_metrics() {
        let m = Metrics::new(1, 10_000);
        let line = result_line("q1", Source::Memory, "fp", &m);
        let v = Json::parse(&line).unwrap();
        assert_eq!(
            v.get("metrics").and_then(Json::as_str),
            Some(m.to_deterministic_string().as_str())
        );
        assert_eq!(v.get("source").and_then(Json::as_str), Some("memory"));
    }

    #[test]
    fn examples_build_and_mention_every_op_and_code() {
        let doc = protocol_examples();
        for op in [
            "submit",
            "status",
            "cancel",
            "cache-stats",
            "metrics",
            "shutdown",
        ] {
            assert!(doc.contains(&format!("\"op\":\"{op}\"")), "missing op {op}");
        }
        for code in [
            codes::BAD_REQUEST,
            codes::UNKNOWN_POLICY,
            codes::NOT_FOUND,
            codes::SHUTTING_DOWN,
        ] {
            assert!(doc.contains(code), "missing code {code}");
        }
    }
}

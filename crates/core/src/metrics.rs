//! Simulation metrics backing every figure of the evaluation.

use wsg_sim::stats::{
    Breakdown, Histogram, LogHistogram, ReuseTracker, Summary, TimeSeries, Window,
};
use wsg_sim::Cycle;

/// Version of the metrics measurement contract: what the fields of
/// [`Metrics`] mean and which of them [`Metrics::to_deterministic_string`]
/// renders. The on-disk run cache stamps every entry with this number and
/// treats a mismatch as a miss, so bumping it invalidates all previously
/// cached runs at once.
///
/// **Bump this whenever the deterministic-string contract changes**: a field
/// is added to / removed from / reordered in `to_deterministic_string`, a
/// field's semantics change (same name, different measurement), or the cache
/// text codec below changes shape. Purely additive fields that stay outside
/// the deterministic string (like `host_wall_nanos`) still require a bump if
/// they enter the cache text, because older entries would fail to parse —
/// which is safe (a miss) but wasteful, so make it explicit.
pub const METRICS_CONTRACT_VERSION: u32 = 1;

/// How a non-local translation request was ultimately resolved — the four
/// categories of Fig 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Served from a peer GPM's cache (concentric/route/distributed hit on a
    /// demand-installed entry).
    PeerCache,
    /// Redirected by the IOMMU's redirection table to a holder GPM.
    Redirection,
    /// Served from an entry installed by proactive delivery (a prefetched
    /// PTE, wherever it was found).
    Proactive,
    /// Resolved by an IOMMU page-table walk (or coalesced onto one).
    Iommu,
}

impl Resolution {
    /// Stable label used in breakdowns and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::PeerCache => "peer-cache",
            Resolution::Redirection => "redirection",
            Resolution::Proactive => "proactive",
            Resolution::Iommu => "iommu",
        }
    }
}

/// Everything measured during one simulation run.
///
/// Each field maps to one or more paper figures; see the field docs. The
/// struct is plain data — the simulator fills it and the bench harness
/// formats it.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Total execution time: the cycle at which the last CU drained.
    pub total_cycles: Cycle,
    /// Per-GPM finish time (Fig 5's geometric imbalance).
    pub gpm_finish: Vec<Cycle>,
    /// Memory operations completed.
    pub ops_completed: u64,

    /// Translations resolved entirely inside the requesting GPM
    /// (L1/L2/last-level TLB hits and local walks).
    pub local_translations: u64,
    /// Local page-table walks performed by GMMUs.
    pub local_walks: u64,
    /// Cuckoo-filter false positives (wasted local walks before remote
    /// forwarding, §II-B's doubled-latency case).
    pub cuckoo_false_positives: u64,
    /// Non-local translation requests issued (after GPM-side coalescing).
    pub remote_requests: u64,
    /// Remote requests coalesced into an in-flight identical request at the
    /// requesting GPM (L2 TLB MSHR merge).
    pub remote_coalesced: u64,

    /// Resolution-source counts for remote translations (Fig 16).
    pub resolution: Breakdown,
    /// Per-request IOMMU latency components (Fig 3): `pre-queue`,
    /// `ptw-queue`, `walk`.
    pub iommu_latency: Breakdown,
    /// IOMMU input-buffer occupancy sampled over time (Fig 4).
    pub iommu_buffer: TimeSeries,
    /// IOMMU-served translations over time (Fig 13).
    pub iommu_served: TimeSeries,
    /// Per-VPN translation request stream at the IOMMU: occurrence counts
    /// (Fig 6) and reuse distances (Fig 7).
    pub iommu_reuse: ReuseTracker,
    /// VPN distance between consecutive IOMMU translation requests (Fig 8).
    pub vpn_delta: Histogram,
    /// Remote-translation round-trip time, request issue to PFN arrival
    /// (Fig 17).
    pub remote_rtt: Summary,
    /// Round-trip time split by resolution source (diagnostics for Fig 17).
    pub rtt_peer: Summary,
    /// RTT of redirection-resolved requests.
    pub rtt_redirection: Summary,
    /// RTT of proactively-served requests.
    pub rtt_proactive: Summary,
    /// RTT of IOMMU-walk-resolved requests.
    pub rtt_iommu: Summary,
    /// Remote-path retries due to a full L2-TLB MSHR at the requester.
    pub remote_retries: u64,
    /// IOMMU walks performed (including prefetch walks).
    pub iommu_walks: u64,
    /// Requests completed by PW-queue revisit coalescing.
    pub iommu_coalesced: u64,
    /// Redirection-table hits that failed at the holder (entry evicted).
    pub redirect_misses: u64,
    /// Requests stalled because the IOMMU TLB's MSHRs were full (Fig 19
    /// variant only).
    pub iommu_tlb_stalls: u64,

    /// PTEs pushed to auxiliary GPMs (demand + prefetch).
    pub ptes_pushed: u64,
    /// Prefetched PTEs delivered (`degree − 1` per prefetching walk).
    pub prefetches_issued: u64,
    /// Prefetched entries that served a later request (accuracy numerator;
    /// the paper reports 65.55 % average accuracy).
    pub prefetches_used: u64,

    /// Total payload bytes injected into the mesh.
    pub noc_bytes: u64,
    /// Total bytes × hops moved across mesh links.
    pub noc_hop_bytes: u64,
    /// Mesh packets injected.
    pub noc_packets: u64,
    /// Pages migrated by the optional migration extension.
    pub pages_migrated: u64,

    /// Discrete events the run's event queue processed (the hot-loop work
    /// unit of DESIGN.md §11). Excluded from
    /// [`Metrics::to_deterministic_string`] so figure outputs stay
    /// byte-comparable across engine revisions that schedule differently.
    pub sim_events: u64,
    /// Host wall-clock nanoseconds spent inside `Simulation::run`.
    /// Host-dependent by nature, so — like `stage_latency` — deliberately
    /// excluded from [`Metrics::to_deterministic_string`].
    pub host_wall_nanos: u64,

    /// Per-stage latency distributions folded from an attached trace sink,
    /// sorted by stage name (`trace` feature only). Deliberately excluded
    /// from [`Metrics::to_deterministic_string`], which must stay
    /// byte-identical whether or not a tracer was attached; render with
    /// [`Metrics::stage_latency_string`].
    #[cfg(feature = "trace")]
    pub stage_latency: Vec<(String, wsg_sim::trace::StageStats)>,
}

impl Metrics {
    /// Creates zeroed metrics with the standard breakdown categories.
    pub fn new(gpm_count: usize, time_window: Cycle) -> Self {
        Self {
            total_cycles: 0,
            gpm_finish: vec![0; gpm_count],
            ops_completed: 0,
            local_translations: 0,
            local_walks: 0,
            cuckoo_false_positives: 0,
            remote_requests: 0,
            remote_coalesced: 0,
            resolution: Breakdown::new(&["peer-cache", "redirection", "proactive", "iommu"]),
            iommu_latency: Breakdown::new(&["pre-queue", "ptw-queue", "walk"]),
            iommu_buffer: TimeSeries::new(time_window),
            iommu_served: TimeSeries::new(time_window),
            iommu_reuse: ReuseTracker::new(),
            vpn_delta: Histogram::new(1, 64),
            remote_rtt: Summary::new(),
            rtt_peer: Summary::new(),
            rtt_redirection: Summary::new(),
            rtt_proactive: Summary::new(),
            rtt_iommu: Summary::new(),
            remote_retries: 0,
            iommu_walks: 0,
            iommu_coalesced: 0,
            redirect_misses: 0,
            iommu_tlb_stalls: 0,
            ptes_pushed: 0,
            prefetches_issued: 0,
            prefetches_used: 0,
            noc_bytes: 0,
            noc_hop_bytes: 0,
            noc_packets: 0,
            pages_migrated: 0,
            sim_events: 0,
            host_wall_nanos: 0,
            #[cfg(feature = "trace")]
            stage_latency: Vec::new(),
        }
    }

    /// Renders the per-stage latency table (populated by a traced run) in a
    /// stable text form: one line per stage in name order, all values exact
    /// integers. Kept separate from [`Metrics::to_deterministic_string`] so
    /// the determinism contract is unaffected by tracing.
    #[cfg(feature = "trace")]
    pub fn stage_latency_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (stage, st) in &self.stage_latency {
            let _ = writeln!(
                s,
                "{stage}: count={} sum={} p50={} p95={} p99={} min={} max={}",
                st.count, st.sum, st.p50, st.p95, st.p99, st.min, st.max
            );
        }
        s
    }

    /// Records a resolved remote translation.
    pub fn record_resolution(&mut self, r: Resolution) {
        self.resolution.add(r.label(), 1);
    }

    /// Fraction of remote translations *not* served by an IOMMU walk — the
    /// paper's "offloads 42.1 % of translations" headline.
    pub fn offload_fraction(&self) -> f64 {
        let total = self.resolution.total();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.resolution.share("iommu")
    }

    /// Prefetch accuracy: used / issued (0 when prefetching is off).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            self.prefetches_used as f64 / self.prefetches_issued as f64
        }
    }

    /// Speedup of this run relative to `baseline` (> 1 means faster).
    ///
    /// # Panics
    ///
    /// Panics if this run recorded zero cycles.
    pub fn speedup_vs(&self, baseline: &Metrics) -> f64 {
        assert!(self.total_cycles > 0, "run did not execute");
        baseline.total_cycles as f64 / self.total_cycles as f64
    }

    /// Imbalance across GPM finish times: `max / mean` (Fig 5's disparity).
    pub fn gpm_imbalance(&self) -> f64 {
        let n = self.gpm_finish.len();
        if n == 0 {
            return 1.0;
        }
        let max = *self.gpm_finish.iter().max().unwrap() as f64;
        let mean = self.gpm_finish.iter().sum::<Cycle>() as f64 / n as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Per-VPN IOMMU translation count histogram (Fig 6).
    pub fn translation_count_histogram(&self) -> LogHistogram {
        self.iommu_reuse.count_histogram()
    }

    /// Serializes every metric into a stable text form: two runs of the same
    /// `(benchmark, seed)` must produce byte-identical output
    /// (`tests/determinism.rs` enforces this). Fields appear in declaration
    /// order; the reuse tracker is rendered through its order-independent
    /// accessors because its internal bookkeeping is hash-keyed.
    pub fn to_deterministic_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "total_cycles: {}", self.total_cycles);
        let _ = writeln!(s, "gpm_finish: {:?}", self.gpm_finish);
        let _ = writeln!(s, "ops_completed: {}", self.ops_completed);
        let _ = writeln!(s, "local_translations: {}", self.local_translations);
        let _ = writeln!(s, "local_walks: {}", self.local_walks);
        let _ = writeln!(s, "cuckoo_false_positives: {}", self.cuckoo_false_positives);
        let _ = writeln!(s, "remote_requests: {}", self.remote_requests);
        let _ = writeln!(s, "remote_coalesced: {}", self.remote_coalesced);
        let _ = writeln!(s, "resolution: {:?}", self.resolution);
        let _ = writeln!(s, "iommu_latency: {:?}", self.iommu_latency);
        let _ = writeln!(s, "iommu_buffer: {:?}", self.iommu_buffer);
        let _ = writeln!(s, "iommu_served: {:?}", self.iommu_served);
        let _ = writeln!(
            s,
            "iommu_reuse.counts: {:?}",
            self.iommu_reuse.count_histogram()
        );
        let _ = writeln!(
            s,
            "iommu_reuse.reuse: {:?}",
            self.iommu_reuse.reuse_histogram()
        );
        let _ = writeln!(
            s,
            "iommu_reuse.distinct: {}",
            self.iommu_reuse.distinct_keys()
        );
        let _ = writeln!(
            s,
            "iommu_reuse.touches: {}",
            self.iommu_reuse.total_touches()
        );
        let _ = writeln!(s, "vpn_delta: {:?}", self.vpn_delta);
        let _ = writeln!(s, "remote_rtt: {:?}", self.remote_rtt);
        let _ = writeln!(s, "rtt_peer: {:?}", self.rtt_peer);
        let _ = writeln!(s, "rtt_redirection: {:?}", self.rtt_redirection);
        let _ = writeln!(s, "rtt_proactive: {:?}", self.rtt_proactive);
        let _ = writeln!(s, "rtt_iommu: {:?}", self.rtt_iommu);
        let _ = writeln!(s, "remote_retries: {}", self.remote_retries);
        let _ = writeln!(s, "iommu_walks: {}", self.iommu_walks);
        let _ = writeln!(s, "iommu_coalesced: {}", self.iommu_coalesced);
        let _ = writeln!(s, "redirect_misses: {}", self.redirect_misses);
        let _ = writeln!(s, "iommu_tlb_stalls: {}", self.iommu_tlb_stalls);
        let _ = writeln!(s, "ptes_pushed: {}", self.ptes_pushed);
        let _ = writeln!(s, "prefetches_issued: {}", self.prefetches_issued);
        let _ = writeln!(s, "prefetches_used: {}", self.prefetches_used);
        let _ = writeln!(s, "noc_bytes: {}", self.noc_bytes);
        let _ = writeln!(s, "noc_hop_bytes: {}", self.noc_hop_bytes);
        let _ = writeln!(s, "noc_packets: {}", self.noc_packets);
        let _ = writeln!(s, "pages_migrated: {}", self.pages_migrated);
        s
    }

    /// Serializes the full metrics state into the exact, line-oriented text
    /// form stored by the disk run cache. Unlike
    /// [`Metrics::to_deterministic_string`] (a *rendering* for comparison),
    /// this is a *codec*: [`Metrics::from_cache_text`] reconstructs a
    /// `Metrics` whose every accessor — including the deterministic string —
    /// is byte-identical to the original. Floating-point state is written as
    /// IEEE-754 bit patterns, so the round trip is exact, not
    /// shortest-representation approximate.
    ///
    /// `sim_events` and `host_wall_nanos` are included (a cache hit reports
    /// the original run's event count and host cost); the trace-only
    /// `stage_latency` table is not — cached runs never carry trace data.
    ///
    /// The first line pins the codec shape (`metrics-codec v1`) and the
    /// measurement contract ([`METRICS_CONTRACT_VERSION`]); decoding rejects
    /// any mismatch, which the disk cache treats as a miss.
    pub fn to_cache_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "metrics-codec v1 contract {}", METRICS_CONTRACT_VERSION);
        let _ = writeln!(s, "total_cycles {}", self.total_cycles);
        let _ = write!(s, "gpm_finish {}", self.gpm_finish.len());
        for c in &self.gpm_finish {
            let _ = write!(s, " {c}");
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "ops_completed {}", self.ops_completed);
        let _ = writeln!(s, "local_translations {}", self.local_translations);
        let _ = writeln!(s, "local_walks {}", self.local_walks);
        let _ = writeln!(s, "cuckoo_false_positives {}", self.cuckoo_false_positives);
        let _ = writeln!(s, "remote_requests {}", self.remote_requests);
        let _ = writeln!(s, "remote_coalesced {}", self.remote_coalesced);
        write_breakdown(&mut s, "resolution", &self.resolution);
        write_breakdown(&mut s, "iommu_latency", &self.iommu_latency);
        write_timeseries(&mut s, "iommu_buffer", &self.iommu_buffer);
        write_timeseries(&mut s, "iommu_served", &self.iommu_served);
        let _ = writeln!(
            s,
            "iommu_reuse {} {}",
            self.iommu_reuse.total_touches(),
            self.iommu_reuse.distinct_keys()
        );
        for (k, c) in self.iommu_reuse.counts_sorted() {
            let _ = writeln!(s, "c {k} {c}");
        }
        write_log_histogram(
            &mut s,
            "iommu_reuse.hist",
            self.iommu_reuse.reuse_histogram(),
        );
        write_histogram(&mut s, "vpn_delta", &self.vpn_delta);
        write_summary(&mut s, "remote_rtt", &self.remote_rtt);
        write_summary(&mut s, "rtt_peer", &self.rtt_peer);
        write_summary(&mut s, "rtt_redirection", &self.rtt_redirection);
        write_summary(&mut s, "rtt_proactive", &self.rtt_proactive);
        write_summary(&mut s, "rtt_iommu", &self.rtt_iommu);
        let _ = writeln!(s, "remote_retries {}", self.remote_retries);
        let _ = writeln!(s, "iommu_walks {}", self.iommu_walks);
        let _ = writeln!(s, "iommu_coalesced {}", self.iommu_coalesced);
        let _ = writeln!(s, "redirect_misses {}", self.redirect_misses);
        let _ = writeln!(s, "iommu_tlb_stalls {}", self.iommu_tlb_stalls);
        let _ = writeln!(s, "ptes_pushed {}", self.ptes_pushed);
        let _ = writeln!(s, "prefetches_issued {}", self.prefetches_issued);
        let _ = writeln!(s, "prefetches_used {}", self.prefetches_used);
        let _ = writeln!(s, "noc_bytes {}", self.noc_bytes);
        let _ = writeln!(s, "noc_hop_bytes {}", self.noc_hop_bytes);
        let _ = writeln!(s, "noc_packets {}", self.noc_packets);
        let _ = writeln!(s, "pages_migrated {}", self.pages_migrated);
        let _ = writeln!(s, "sim_events {}", self.sim_events);
        let _ = writeln!(s, "host_wall_nanos {}", self.host_wall_nanos);
        let _ = writeln!(s, "end");
        s
    }

    /// Parses text produced by [`Metrics::to_cache_text`] back into a
    /// `Metrics` value. Strict by design: any missing line, unexpected key,
    /// malformed number, count mismatch, or codec/contract version mismatch
    /// is an error — the disk cache maps every error to a miss and discards
    /// the entry, so corruption can never surface as wrong results.
    pub fn from_cache_text(text: &str) -> Result<Metrics, String> {
        // The encoder ends every line, `end` included, with a newline; an
        // entry missing the last one was cut short.
        if !text.ends_with('\n') {
            return Err("entry does not end with a newline (truncated)".to_string());
        }
        let mut r = LineReader::new(text);
        let header = r.fields("metrics-codec", 3)?;
        if header[0] != "v1" {
            return Err(format!("unsupported codec version `{}`", header[0]));
        }
        if header[1] != "contract" || header[2] != METRICS_CONTRACT_VERSION.to_string() {
            return Err(format!(
                "contract version mismatch: entry has `{} {}`, this build requires `contract {}`",
                header[1], header[2], METRICS_CONTRACT_VERSION
            ));
        }

        let total_cycles = r.scalar("total_cycles")?;
        let gpm_finish = r.u64_list("gpm_finish")?;
        let ops_completed = r.scalar("ops_completed")?;
        let local_translations = r.scalar("local_translations")?;
        let local_walks = r.scalar("local_walks")?;
        let cuckoo_false_positives = r.scalar("cuckoo_false_positives")?;
        let remote_requests = r.scalar("remote_requests")?;
        let remote_coalesced = r.scalar("remote_coalesced")?;
        let resolution = r.breakdown(
            "resolution",
            &["peer-cache", "redirection", "proactive", "iommu"],
        )?;
        let iommu_latency = r.breakdown("iommu_latency", &["pre-queue", "ptw-queue", "walk"])?;
        let iommu_buffer = r.timeseries("iommu_buffer")?;
        let iommu_served = r.timeseries("iommu_served")?;

        let reuse_head = r.fields("iommu_reuse", 2)?;
        let touches: u64 = parse(&reuse_head[0], "iommu_reuse touches")?;
        let distinct = r.line_count(parse(&reuse_head[1], "iommu_reuse distinct")?)?;
        let mut counts = Vec::with_capacity(distinct);
        for _ in 0..distinct {
            let kv = r.fields("c", 2)?;
            counts.push((
                parse(&kv[0], "reuse count key")?,
                parse(&kv[1], "reuse count value")?,
            ));
        }
        let reuse_hist = r.log_histogram("iommu_reuse.hist")?;
        let iommu_reuse = ReuseTracker::from_parts(counts, touches, reuse_hist);

        let vpn_delta = r.histogram("vpn_delta")?;
        let remote_rtt = r.summary("remote_rtt")?;
        let rtt_peer = r.summary("rtt_peer")?;
        let rtt_redirection = r.summary("rtt_redirection")?;
        let rtt_proactive = r.summary("rtt_proactive")?;
        let rtt_iommu = r.summary("rtt_iommu")?;
        let remote_retries = r.scalar("remote_retries")?;
        let iommu_walks = r.scalar("iommu_walks")?;
        let iommu_coalesced = r.scalar("iommu_coalesced")?;
        let redirect_misses = r.scalar("redirect_misses")?;
        let iommu_tlb_stalls = r.scalar("iommu_tlb_stalls")?;
        let ptes_pushed = r.scalar("ptes_pushed")?;
        let prefetches_issued = r.scalar("prefetches_issued")?;
        let prefetches_used = r.scalar("prefetches_used")?;
        let noc_bytes = r.scalar("noc_bytes")?;
        let noc_hop_bytes = r.scalar("noc_hop_bytes")?;
        let noc_packets = r.scalar("noc_packets")?;
        let pages_migrated = r.scalar("pages_migrated")?;
        let sim_events = r.scalar("sim_events")?;
        let host_wall_nanos = r.scalar("host_wall_nanos")?;
        r.fields("end", 0)?;
        r.expect_eof()?;

        Ok(Metrics {
            total_cycles,
            gpm_finish,
            ops_completed,
            local_translations,
            local_walks,
            cuckoo_false_positives,
            remote_requests,
            remote_coalesced,
            resolution,
            iommu_latency,
            iommu_buffer,
            iommu_served,
            iommu_reuse,
            vpn_delta,
            remote_rtt,
            rtt_peer,
            rtt_redirection,
            rtt_proactive,
            rtt_iommu,
            remote_retries,
            iommu_walks,
            iommu_coalesced,
            redirect_misses,
            iommu_tlb_stalls,
            ptes_pushed,
            prefetches_issued,
            prefetches_used,
            noc_bytes,
            noc_hop_bytes,
            noc_packets,
            pages_migrated,
            sim_events,
            host_wall_nanos,
            #[cfg(feature = "trace")]
            stage_latency: Vec::new(),
        })
    }
}

fn write_breakdown(s: &mut String, key: &str, b: &Breakdown) {
    use std::fmt::Write as _;
    let _ = write!(s, "{key} {}", b.samples());
    for (&name, &value) in b.names().iter().zip(b.raw_values()) {
        let _ = write!(s, " {name}={value}");
    }
    let _ = writeln!(s);
}

fn write_timeseries(s: &mut String, key: &str, ts: &TimeSeries) {
    use std::fmt::Write as _;
    let _ = writeln!(s, "{key} {} {}", ts.window_width(), ts.windows().count());
    for w in ts.windows() {
        let _ = writeln!(s, "w {} {} {} {}", w.count, w.sum, w.min, w.max);
    }
}

fn write_histogram(s: &mut String, key: &str, h: &Histogram) {
    use std::fmt::Write as _;
    let _ = write!(
        s,
        "{key} {} {} {} {} {} {}",
        h.bucket_width(),
        h.overflow(),
        h.count(),
        h.raw_sum(),
        h.max(),
        h.raw_buckets().len()
    );
    for b in h.raw_buckets() {
        let _ = write!(s, " {b}");
    }
    let _ = writeln!(s);
}

fn write_log_histogram(s: &mut String, key: &str, h: &LogHistogram) {
    use std::fmt::Write as _;
    let _ = write!(
        s,
        "{key} {} {} {} {}",
        h.count(),
        h.raw_sum(),
        h.max(),
        h.raw_buckets().len()
    );
    for b in h.raw_buckets() {
        let _ = write!(s, " {b}");
    }
    let _ = writeln!(s);
}

fn write_summary(s: &mut String, key: &str, sm: &Summary) {
    use std::fmt::Write as _;
    // f64 state as IEEE-754 bit patterns for an exact round trip; an empty
    // summary writes zeros (ignored on decode).
    let _ = writeln!(
        s,
        "{key} {} {:016x} {:016x} {:016x}",
        sm.count(),
        sm.sum().to_bits(),
        sm.min().unwrap_or(0.0).to_bits(),
        sm.max().unwrap_or(0.0).to_bits()
    );
}

fn parse<T: std::str::FromStr>(token: &str, what: &str) -> Result<T, String> {
    token
        .parse()
        .map_err(|_| format!("malformed {what}: `{token}`"))
}

fn parse_f64_bits(token: &str, what: &str) -> Result<f64, String> {
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("malformed {what} bits: `{token}`"))
}

/// Strict cursor over the lines of a cache-text document. Every accessor
/// checks the line's leading key and exact field count, so a truncated or
/// shuffled document fails loudly at the first bad line.
struct LineReader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> LineReader<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines(),
            line_no: 0,
        }
    }

    /// Consumes the next line, asserts its first token is `key` and that
    /// exactly `n` fields follow, returning those fields.
    fn fields(&mut self, key: &str, n: usize) -> Result<Vec<String>, String> {
        self.line_no += 1;
        let line = self.lines.next().ok_or_else(|| {
            format!(
                "line {}: unexpected end of entry (wanted `{key}`)",
                self.line_no
            )
        })?;
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap_or("");
        if head != key {
            return Err(format!(
                "line {}: expected `{key}`, found `{head}`",
                self.line_no
            ));
        }
        let fields: Vec<String> = tokens.map(str::to_string).collect();
        if fields.len() != n {
            return Err(format!(
                "line {}: `{key}` carries {} field(s), expected {n}",
                self.line_no,
                fields.len()
            ));
        }
        Ok(fields)
    }

    /// Checks a declared count of following lines against the lines left
    /// in the entry, so a corrupt count is an error rather than a huge
    /// allocation.
    fn line_count(&self, n: usize) -> Result<usize, String> {
        let left = self.lines.clone().count();
        if n > left {
            return Err(format!(
                "line {}: declares {n} following line(s), but only {left} remain",
                self.line_no
            ));
        }
        Ok(n)
    }

    fn expect_eof(&mut self) -> Result<(), String> {
        match self.lines.next() {
            None => Ok(()),
            Some(extra) => Err(format!(
                "line {}: trailing data after `end`: `{extra}`",
                self.line_no + 1
            )),
        }
    }

    fn scalar<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        let f = self.fields(key, 1)?;
        parse(&f[0], key)
    }

    fn u64_list(&mut self, key: &str) -> Result<Vec<u64>, String> {
        self.line_no += 1;
        let line = self.lines.next().ok_or_else(|| {
            format!(
                "line {}: unexpected end of entry (wanted `{key}`)",
                self.line_no
            )
        })?;
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap_or("");
        if head != key {
            return Err(format!(
                "line {}: expected `{key}`, found `{head}`",
                self.line_no
            ));
        }
        let n: usize = parse(
            tokens
                .next()
                .ok_or_else(|| format!("line {}: `{key}` missing length", self.line_no))?,
            "list length",
        )?;
        let values: Vec<u64> = tokens
            .map(|t| parse(t, "list element"))
            .collect::<Result<_, _>>()?;
        if values.len() != n {
            return Err(format!(
                "line {}: `{key}` declares {n} element(s) but carries {}",
                self.line_no,
                values.len()
            ));
        }
        Ok(values)
    }

    fn breakdown(&mut self, key: &str, names: &[&'static str]) -> Result<Breakdown, String> {
        let f = self.fields(key, 1 + names.len())?;
        let samples: u64 = parse(&f[0], "breakdown samples")?;
        let mut values = Vec::with_capacity(names.len());
        for (i, &name) in names.iter().enumerate() {
            let field = &f[1 + i];
            let value = field
                .strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| {
                    format!("`{key}` component {i} is `{field}`, expected `{name}=<n>`")
                })?;
            values.push(parse(value, "breakdown value")?);
        }
        Ok(Breakdown::from_parts(names, values, samples))
    }

    fn timeseries(&mut self, key: &str) -> Result<TimeSeries, String> {
        let head = self.fields(key, 2)?;
        let width: Cycle = parse(&head[0], "window width")?;
        if width == 0 {
            return Err(format!("`{key}` has zero window width"));
        }
        let n = self.line_count(parse(&head[1], "window count")?)?;
        let mut windows = Vec::with_capacity(n);
        for i in 0..n {
            let f = self.fields("w", 4)?;
            windows.push(Window {
                start: i as Cycle * width,
                count: parse(&f[0], "window count")?,
                sum: parse(&f[1], "window sum")?,
                min: parse(&f[2], "window min")?,
                max: parse(&f[3], "window max")?,
            });
        }
        Ok(TimeSeries::from_parts(width, windows))
    }

    fn histogram(&mut self, key: &str) -> Result<Histogram, String> {
        self.line_no += 1;
        let line = self.lines.next().ok_or_else(|| {
            format!(
                "line {}: unexpected end of entry (wanted `{key}`)",
                self.line_no
            )
        })?;
        let mut t = line.split_whitespace();
        if t.next() != Some(key) {
            return Err(format!("line {}: expected `{key}`", self.line_no));
        }
        let mut next = |what: &str| -> Result<String, String> {
            t.next()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` missing {what}"))
        };
        let width: u64 = parse(&next("bucket width")?, "bucket width")?;
        let overflow: u64 = parse(&next("overflow")?, "overflow")?;
        let count: u64 = parse(&next("count")?, "count")?;
        let sum: u128 = parse(&next("sum")?, "sum")?;
        let max: u64 = parse(&next("max")?, "max")?;
        let n: usize = parse(&next("bucket count")?, "bucket count")?;
        let buckets: Vec<u64> = t.map(|x| parse(x, "bucket")).collect::<Result<_, _>>()?;
        if buckets.len() != n || n == 0 || width == 0 {
            return Err(format!("`{key}` bucket list malformed"));
        }
        Ok(Histogram::from_parts(
            width, buckets, overflow, count, sum, max,
        ))
    }

    fn log_histogram(&mut self, key: &str) -> Result<LogHistogram, String> {
        self.line_no += 1;
        let line = self.lines.next().ok_or_else(|| {
            format!(
                "line {}: unexpected end of entry (wanted `{key}`)",
                self.line_no
            )
        })?;
        let mut t = line.split_whitespace();
        if t.next() != Some(key) {
            return Err(format!("line {}: expected `{key}`", self.line_no));
        }
        let mut next = |what: &str| -> Result<String, String> {
            t.next()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` missing {what}"))
        };
        let count: u64 = parse(&next("count")?, "count")?;
        let sum: u128 = parse(&next("sum")?, "sum")?;
        let max: u64 = parse(&next("max")?, "max")?;
        let n: usize = parse(&next("bucket count")?, "bucket count")?;
        let buckets: Vec<u64> = t.map(|x| parse(x, "bucket")).collect::<Result<_, _>>()?;
        if buckets.len() != n {
            return Err(format!("`{key}` bucket list malformed"));
        }
        Ok(LogHistogram::from_parts(buckets, count, sum, max))
    }

    fn summary(&mut self, key: &str) -> Result<Summary, String> {
        let f = self.fields(key, 4)?;
        let count: u64 = parse(&f[0], "summary count")?;
        Ok(Summary::from_parts(
            count,
            parse_f64_bits(&f[1], "summary sum")?,
            parse_f64_bits(&f[2], "summary min")?,
            parse_f64_bits(&f[3], "summary max")?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_metrics_are_zeroed() {
        let m = Metrics::new(48, 10_000);
        assert_eq!(m.total_cycles, 0);
        assert_eq!(m.gpm_finish.len(), 48);
        assert_eq!(m.offload_fraction(), 0.0);
        assert_eq!(m.prefetch_accuracy(), 0.0);
    }

    #[test]
    fn offload_fraction_excludes_iommu() {
        let mut m = Metrics::new(1, 100);
        m.record_resolution(Resolution::PeerCache);
        m.record_resolution(Resolution::Redirection);
        m.record_resolution(Resolution::Proactive);
        m.record_resolution(Resolution::Iommu);
        assert!((m.offload_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn speedup_is_ratio_of_cycles() {
        let mut base = Metrics::new(1, 100);
        base.total_cycles = 1000;
        let mut fast = Metrics::new(1, 100);
        fast.total_cycles = 500;
        assert_eq!(fast.speedup_vs(&base), 2.0);
    }

    #[test]
    #[should_panic(expected = "did not execute")]
    fn speedup_of_empty_run_panics() {
        let base = Metrics::new(1, 100);
        let empty = Metrics::new(1, 100);
        empty.speedup_vs(&base);
    }

    #[test]
    fn imbalance_of_uniform_finish_is_one() {
        let mut m = Metrics::new(4, 100);
        m.gpm_finish = vec![100, 100, 100, 100];
        assert!((m.gpm_imbalance() - 1.0).abs() < 1e-12);
        m.gpm_finish = vec![100, 100, 100, 200];
        assert!(m.gpm_imbalance() > 1.3);
    }

    #[test]
    fn prefetch_accuracy_ratio() {
        let mut m = Metrics::new(1, 100);
        m.prefetches_issued = 100;
        m.prefetches_used = 65;
        assert!((m.prefetch_accuracy() - 0.65).abs() < 1e-12);
    }

    /// `stage_latency_string` is the only rendered view of trace-fed stage
    /// stats, so its exact shape (line per stage, declaration order of the
    /// sorted vector, integer fields) is pinned here.
    #[cfg(feature = "trace")]
    mod stage_latency {
        use super::super::*;
        use wsg_sim::trace::StageStats;

        #[test]
        fn empty_stage_latency_renders_as_empty_string() {
            let m = Metrics::new(1, 100);
            assert_eq!(m.stage_latency_string(), "");
        }

        #[test]
        fn single_stage_line_pins_the_exact_format() {
            let mut m = Metrics::new(1, 100);
            m.stage_latency = vec![(
                "walk".to_string(),
                StageStats::from_durations(vec![4, 2, 6]),
            )];
            assert_eq!(
                m.stage_latency_string(),
                "walk: count=3 sum=12 p50=4 p95=6 p99=6 min=2 max=6\n"
            );
        }

        #[test]
        fn stages_render_one_line_each_in_vector_order() {
            let mut m = Metrics::new(1, 100);
            m.stage_latency = vec![
                ("issue".to_string(), StageStats::from_durations(vec![1])),
                ("walk".to_string(), StageStats::from_durations(vec![2, 2])),
            ];
            let s = m.stage_latency_string();
            let lines: Vec<&str> = s.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(lines[0].starts_with("issue: count=1 "));
            assert!(lines[1].starts_with("walk: count=2 "));
        }

        #[test]
        fn single_sample_stage_collapses_every_percentile() {
            let st = StageStats::from_durations(vec![42]);
            assert_eq!((st.p50, st.p95, st.p99), (42, 42, 42));
            assert_eq!((st.min, st.max, st.count, st.sum), (42, 42, 1, 42));
        }

        #[test]
        fn tie_heavy_stage_percentiles_sit_on_the_mode() {
            // Nine 5s and one 1: every nearest-rank percentile above p10
            // lands on the repeated value.
            let mut d = vec![5u64; 9];
            d.push(1);
            let st = StageStats::from_durations(d);
            assert_eq!((st.p50, st.p95, st.p99), (5, 5, 5));
            assert_eq!((st.min, st.max), (1, 5));
        }
    }

    /// Builds a metrics value with every field populated and some
    /// deliberately awkward values (negative RTTs never occur, but NaN-free
    /// odd floats and huge u64s do).
    fn populated_metrics() -> Metrics {
        let mut m = Metrics::new(3, 100);
        m.total_cycles = 123_456;
        m.gpm_finish = vec![100, 123_456, 99_999];
        m.ops_completed = 1 << 40;
        m.local_translations = 7;
        m.local_walks = 5;
        m.cuckoo_false_positives = 2;
        m.remote_requests = 11;
        m.remote_coalesced = 3;
        m.record_resolution(Resolution::PeerCache);
        m.record_resolution(Resolution::Iommu);
        m.record_resolution(Resolution::Iommu);
        m.iommu_latency.add("pre-queue", 4);
        m.iommu_latency.add("walk", 90);
        m.iommu_buffer.record(5, 2);
        m.iommu_buffer.record(250, 9);
        m.iommu_served.record(110, 1);
        for k in [42, 42, 7, 42, 9_000_000_000] {
            m.iommu_reuse.touch(k);
        }
        m.vpn_delta.record(0);
        m.vpn_delta.record(63);
        m.vpn_delta.record(1_000_000); // overflow bucket
        for v in [0.5, 17.25, 3.0] {
            m.remote_rtt.record(v);
        }
        m.rtt_peer.record(1.0 / 3.0);
        m.rtt_iommu.record(f64::MAX / 2.0);
        m.remote_retries = 1;
        m.iommu_walks = 6;
        m.iommu_coalesced = 2;
        m.redirect_misses = 1;
        m.iommu_tlb_stalls = 4;
        m.ptes_pushed = 12;
        m.prefetches_issued = 9;
        m.prefetches_used = 6;
        m.noc_bytes = u64::MAX - 1;
        m.noc_hop_bytes = 1 << 50;
        m.noc_packets = 77;
        m.pages_migrated = 1;
        m.sim_events = 987_654_321;
        m.host_wall_nanos = 1_000_000;
        m
    }

    #[test]
    fn cache_text_round_trips_exactly() {
        let m = populated_metrics();
        let text = m.to_cache_text();
        let back = Metrics::from_cache_text(&text).expect("decode");
        // The deterministic string is the byte-identity contract...
        assert_eq!(back.to_deterministic_string(), m.to_deterministic_string());
        // ...and the re-encoding closes the loop on every field outside it
        // too (sim_events, host_wall_nanos, raw f64 bits, reuse counts).
        assert_eq!(back.to_cache_text(), text);
        assert_eq!(back.sim_events, m.sim_events);
        assert_eq!(back.host_wall_nanos, m.host_wall_nanos);
        assert_eq!(back.iommu_reuse.occurrences(42), 3);
        assert_eq!(
            back.remote_rtt.sum().to_bits(),
            m.remote_rtt.sum().to_bits()
        );
    }

    #[test]
    fn cache_text_of_empty_metrics_round_trips() {
        let m = Metrics::new(4, 10_000);
        let back = Metrics::from_cache_text(&m.to_cache_text()).expect("decode");
        assert_eq!(back.to_cache_text(), m.to_cache_text());
        assert_eq!(back.remote_rtt.min(), None);
    }

    #[test]
    fn truncated_cache_text_is_rejected() {
        let text = populated_metrics().to_cache_text();
        // Chop at every line boundary: each prefix must fail, never panic.
        let lines: Vec<&str> = text.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep].join("\n");
            assert!(
                Metrics::from_cache_text(&partial).is_err(),
                "truncation to {keep} lines must fail"
            );
        }
        assert!(Metrics::from_cache_text(&text).is_ok());
    }

    #[test]
    fn corrupted_cache_text_is_rejected() {
        let text = populated_metrics().to_cache_text();
        // Flip one token on a scalar line.
        let bad = text.replace("ops_completed", "ops_completedX");
        assert!(Metrics::from_cache_text(&bad).is_err());
        // Damage a number.
        let bad = text.replace("total_cycles 123456", "total_cycles 12z456");
        assert!(Metrics::from_cache_text(&bad).is_err());
        // Trailing garbage after `end`.
        let bad = format!("{text}garbage\n");
        assert!(Metrics::from_cache_text(&bad).is_err());
    }

    #[test]
    fn contract_version_mismatch_is_rejected() {
        let text = populated_metrics().to_cache_text();
        let bad = text.replace(
            &format!("contract {METRICS_CONTRACT_VERSION}"),
            "contract 999999",
        );
        let err = Metrics::from_cache_text(&bad).unwrap_err();
        assert!(err.contains("contract version mismatch"), "{err}");
        let bad = text.replace("metrics-codec v1", "metrics-codec v9");
        assert!(Metrics::from_cache_text(&bad)
            .unwrap_err()
            .contains("unsupported codec version"));
    }

    #[test]
    fn resolution_labels_match_breakdown() {
        let mut m = Metrics::new(1, 100);
        for r in [
            Resolution::PeerCache,
            Resolution::Redirection,
            Resolution::Proactive,
            Resolution::Iommu,
        ] {
            m.record_resolution(r);
            assert_eq!(m.resolution.value(r.label()), 1);
        }
    }
}

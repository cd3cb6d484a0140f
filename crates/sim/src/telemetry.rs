//! Deterministic, epoch-sampled counter registry (feature `telemetry`).
//!
//! A [`TelemetrySink`] is a "flight recorder" for the simulator: model
//! structures register named counters and gauges once, when the engine
//! attaches their [`Probe`](crate::probe::Probe), and *publish* their
//! current cumulative values through that probe whenever they change. The
//! engine *samples* the registry every `interval` cycles of simulated time,
//! and each counter accumulates into a [`TimeSeries`] with one sample per
//! epoch. A build without the feature — or a run that never attaches a
//! recorder — pays nothing and simulates identically.
//!
//! # Publish model
//!
//! Components keep the lifetime counters they already maintain (hits,
//! misses, occupancy, …) and publish them alongside each state change they
//! report, so the registry always holds the *current cumulative* values
//! ([`TelemetrySink::set`]). At each epoch boundary
//! [`TelemetrySink::sample_up_to`] folds them into per-epoch windows:
//!
//! * [`CounterKind::Counter`] records the **delta** since the previous
//!   epoch (activity per epoch; gap epochs record 0).
//! * [`CounterKind::Gauge`] records the **absolute** value (occupancy,
//!   queue depth; gap epochs repeat the last value).
//!
//! Because the engine is single-threaded per run and sampling happens at
//! deterministic simulated-time boundaries, two runs of the same
//! configuration produce byte-identical exports, independent of host,
//! `--jobs`, or whether request tracing is also enabled.
//!
//! # Determinism contract (DESIGN.md §12)
//!
//! * Hooks are purely observational: they never influence event ordering,
//!   timing, or any simulated state.
//! * `Metrics::to_deterministic_string` is byte-identical with telemetry on
//!   and off (`ci.sh` gates this).
//! * Exports iterate `Vec`s in registration order — no hash maps anywhere
//!   in this module (lint rule d6 needs no exemption here).
//!
//! # Example
//!
//! ```
//! use wsg_sim::telemetry::{CounterKind, TelemetrySink};
//!
//! let mut sink = TelemetrySink::new(100);
//! let hits = sink.register("tlb.hits", 3, None, CounterKind::Counter);
//! sink.set(hits, 7); // published cumulative value
//! sink.sample_up_to(250); // epochs [0,100) and [100,200) elapsed
//! assert_eq!(sink.series(hits).windows().count(), 2);
//! assert!(sink.to_csv().contains("tlb.hits"));
//! ```

use std::fmt::Write as _;

pub use crate::probe::CounterKind;
use crate::stats::TimeSeries;
use crate::time::Cycle;

/// Registration record for one counter or gauge.
#[derive(Debug, Clone)]
pub struct CounterDef {
    /// Static metric name (e.g. `"tlb.hits"`); must be JSON-safe.
    pub name: &'static str,
    /// Structure instance id (same numbering as the audit/trace sites).
    pub site: u64,
    /// Wafer tile the metric belongs to, if spatially attributable; tagged
    /// metrics feed the [`Heatmap`] export.
    pub tile: Option<(u16, u16)>,
    /// Delta or absolute sampling.
    pub kind: CounterKind,
}

/// Final per-tile value grids for spatially tagged metrics.
///
/// One `width * height` grid per metric name, row-major (`y * width + x`),
/// built from the final cumulative value of every tile-tagged counter.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Mesh width in tiles.
    pub width: u16,
    /// Mesh height in tiles.
    pub height: u16,
    /// `(metric name, row-major grid)` in first-registration order.
    pub metrics: Vec<(&'static str, Vec<u64>)>,
}

impl Heatmap {
    /// Renders the grids as long-form CSV (`metric,x,y,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,x,y,value\n");
        for (name, grid) in &self.metrics {
            for y in 0..self.height {
                for x in 0..self.width {
                    let v = grid[y as usize * self.width as usize + x as usize];
                    let _ = writeln!(out, "{name},{x},{y},{v}");
                }
            }
        }
        out
    }
}

/// Central counter registry and epoch sampler for one simulation run.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    interval: Cycle,
    defs: Vec<CounterDef>,
    /// Latest published cumulative value per counter.
    values: Vec<u64>,
    /// Value captured at the previous epoch sample (for Counter deltas).
    last: Vec<u64>,
    /// One per-epoch series per counter; window width == `interval`.
    series: Vec<TimeSeries>,
    /// Number of fully sampled epochs so far.
    epochs: u64,
    /// Mesh dimensions for the heatmap export, if a grid was announced.
    grid: Option<(u16, u16)>,
}

impl TelemetrySink {
    /// An empty registry sampling every `interval` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Cycle) -> Self {
        assert!(interval > 0, "sample interval must be positive");
        Self {
            interval,
            defs: Vec::new(),
            values: Vec::new(),
            last: Vec::new(),
            series: Vec::new(),
            epochs: 0,
            grid: None,
        }
    }

    /// Sampling interval in cycles.
    pub fn interval(&self) -> Cycle {
        self.interval
    }

    /// The simulated time at which the next unsampled epoch ends — the
    /// engine publishes and samples once event time reaches this boundary.
    pub fn next_sample_at(&self) -> Cycle {
        (self.epochs + 1) * self.interval
    }

    /// Announces the wafer mesh dimensions so tile-tagged metrics can be
    /// rendered as a [`Heatmap`].
    pub fn set_grid(&mut self, width: u16, height: u16) {
        self.grid = Some((width, height));
    }

    /// Registers a metric and returns its dense id. Consecutive calls
    /// return consecutive ids, so a component can keep just its first id.
    pub fn register(
        &mut self,
        name: &'static str,
        site: u64,
        tile: Option<(u16, u16)>,
        kind: CounterKind,
    ) -> usize {
        self.defs.push(CounterDef {
            name,
            site,
            tile,
            kind,
        });
        self.values.push(0);
        self.last.push(0);
        self.series.push(TimeSeries::new(self.interval));
        self.defs.len() - 1
    }

    /// Publishes the current cumulative value of counter `id`.
    pub fn set(&mut self, id: usize, value: u64) {
        self.values[id] = value;
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the registry has no metrics.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Registration record of counter `id`.
    pub fn def(&self, id: usize) -> &CounterDef {
        &self.defs[id]
    }

    /// Per-epoch series of counter `id`.
    pub fn series(&self, id: usize) -> &TimeSeries {
        &self.series[id]
    }

    /// Samples every epoch that ended at or before `now` and has not been
    /// sampled yet.
    ///
    /// Epoch `k` covers `[k*interval, (k+1)*interval)` and is sampled once
    /// simulated time reaches its end. Values cannot change between engine
    /// events, so when several silent epochs elapse at once each still
    /// receives a correct sample (0 delta for counters, a repeated level
    /// for gauges).
    pub fn sample_up_to(&mut self, now: Cycle) {
        while (self.epochs + 1) * self.interval <= now {
            let at = self.epochs * self.interval;
            for i in 0..self.defs.len() {
                let v = self.values[i];
                let sample = match self.defs[i].kind {
                    CounterKind::Counter => v - self.last[i],
                    CounterKind::Gauge => v,
                };
                self.last[i] = v;
                self.series[i].record(at, sample);
            }
            self.epochs += 1;
        }
    }

    /// Closes the recording at simulated time `end`: samples every fully
    /// elapsed epoch, then records the trailing partial epoch (if any) so
    /// no activity is dropped. Call once, after the last event.
    pub fn finalize(&mut self, end: Cycle) {
        self.sample_up_to(end);
        if end > self.epochs * self.interval {
            let at = self.epochs * self.interval;
            for i in 0..self.defs.len() {
                let v = self.values[i];
                let sample = match self.defs[i].kind {
                    CounterKind::Counter => v - self.last[i],
                    CounterKind::Gauge => v,
                };
                self.last[i] = v;
                self.series[i].record(at, sample);
            }
            self.epochs += 1;
        }
    }

    /// Renders every sample as long-form CSV
    /// (`name,site,tile_x,tile_y,t,value`; empty tile columns for metrics
    /// without a tile tag). Rows appear in registration order, then time
    /// order — byte-identical for identical runs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,site,tile_x,tile_y,t,value\n");
        for (i, def) in self.defs.iter().enumerate() {
            let (tx, ty) = match def.tile {
                Some((x, y)) => (x.to_string(), y.to_string()),
                None => (String::new(), String::new()),
            };
            for w in self.series[i].windows() {
                let _ = writeln!(
                    out,
                    "{},{},{tx},{ty},{},{}",
                    def.name, def.site, w.start, w.sum
                );
            }
        }
        out
    }

    /// Renders the registry as a self-describing JSON document:
    /// `{"interval":…,"counters":[{"name":…,"site":…,"tile":[x,y]|null,`
    /// `"kind":"counter"|"gauge","samples":[…]}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.defs.len() * 96);
        let _ = write!(out, "{{\"interval\":{},\"counters\":[", self.interval);
        for (i, def) in self.defs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"site\":{},", def.name, def.site);
            match def.tile {
                Some((x, y)) => {
                    let _ = write!(out, "\"tile\":[{x},{y}],");
                }
                None => out.push_str("\"tile\":null,"),
            }
            let kind = match def.kind {
                CounterKind::Counter => "counter",
                CounterKind::Gauge => "gauge",
            };
            let _ = write!(out, "\"kind\":\"{kind}\",\"samples\":[");
            for (j, w) in self.series[i].windows().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", w.sum);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The comma-joined Chrome trace-event JSON objects for every sample,
    /// as Perfetto **counter-track** events (`"ph":"C"`, `ts` in cycles —
    /// the same clock as [`crate::trace::TraceSink::to_chrome_json`] spans).
    ///
    /// One track per `(name, site)` pair; tile-tagged metrics embed the
    /// tile in the track name so per-tile series stay separate.
    pub fn chrome_events_json(&self) -> String {
        let mut out = String::new();
        for (i, def) in self.defs.iter().enumerate() {
            let track = match def.tile {
                Some((x, y)) => format!("{}@{}x{}", def.name, x, y),
                None => format!("{}@{}", def.name, def.site),
            };
            for w in self.series[i].windows() {
                if !out.is_empty() {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{track}\",\"cat\":\"wsg\",\"ph\":\"C\",\"ts\":{},\
                     \"pid\":1,\"args\":{{\"value\":{}}}}}",
                    w.start, w.sum
                );
            }
        }
        out
    }

    /// Renders all samples as a standalone Chrome trace-event JSON document
    /// of counter tracks (loadable in Perfetto or `chrome://tracing`).
    pub fn to_perfetto_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(&self.chrome_events_json());
        out.push_str("]}");
        out
    }

    /// Splices the counter-track events into an existing Chrome trace-event
    /// document (as produced by `TraceSink::to_chrome_json`), so spans and
    /// counters line up on one Perfetto timeline. `trace_json` must end in
    /// `]}`.
    ///
    /// # Panics
    ///
    /// Panics if `trace_json` is not a `{"traceEvents":[…]}` document.
    pub fn merge_chrome_json(&self, trace_json: &str) -> String {
        let Some(body) = trace_json.strip_suffix("]}") else {
            panic!("not a traceEvents JSON document");
        };
        let counters = self.chrome_events_json();
        let mut out = String::with_capacity(trace_json.len() + counters.len() + 4);
        out.push_str(body);
        if !counters.is_empty() {
            if !body.ends_with('[') {
                out.push(',');
            }
            out.push_str(&counters);
        }
        out.push_str("]}");
        out
    }

    /// Builds the per-tile spatial snapshot from every tile-tagged metric's
    /// final cumulative value. Returns `None` when no grid was announced
    /// via [`TelemetrySink::set_grid`].
    pub fn heatmap(&self) -> Option<Heatmap> {
        let (width, height) = self.grid?;
        let cells = width as usize * height as usize;
        let mut metrics: Vec<(&'static str, Vec<u64>)> = Vec::new();
        for (i, def) in self.defs.iter().enumerate() {
            let Some((x, y)) = def.tile else { continue };
            let idx = match metrics.iter().position(|(n, _)| *n == def.name) {
                Some(idx) => idx,
                None => {
                    metrics.push((def.name, vec![0; cells]));
                    metrics.len() - 1
                }
            };
            metrics[idx].1[y as usize * width as usize + x as usize] += self.values[i];
        }
        Some(Heatmap {
            width,
            height,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn zero_interval_rejected() {
        TelemetrySink::new(0);
    }

    #[test]
    fn counters_record_deltas_and_gauges_record_levels() {
        let mut s = TelemetrySink::new(100);
        let c = s.register("hits", 1, None, CounterKind::Counter);
        let g = s.register("occ", 1, None, CounterKind::Gauge);
        s.set(c, 4);
        s.set(g, 9);
        s.sample_up_to(100);
        s.set(c, 10);
        s.set(g, 2);
        s.sample_up_to(200);
        let cw: Vec<u64> = s.series(c).windows().map(|w| w.sum).collect();
        let gw: Vec<u64> = s.series(g).windows().map(|w| w.sum).collect();
        assert_eq!(cw, vec![4, 6]);
        assert_eq!(gw, vec![9, 2]);
    }

    #[test]
    fn silent_epochs_sample_zero_delta_and_level() {
        let mut s = TelemetrySink::new(10);
        let c = s.register("hits", 0, None, CounterKind::Counter);
        let g = s.register("occ", 0, None, CounterKind::Gauge);
        s.set(c, 5);
        s.set(g, 3);
        // Time jumps straight to cycle 40: epochs 0..=3 all elapsed.
        s.sample_up_to(40);
        let cw: Vec<u64> = s.series(c).windows().map(|w| w.sum).collect();
        let gw: Vec<u64> = s.series(g).windows().map(|w| w.sum).collect();
        assert_eq!(cw, vec![5, 0, 0, 0]);
        assert_eq!(gw, vec![3, 3, 3, 3]);
    }

    #[test]
    fn finalize_records_the_partial_epoch() {
        let mut s = TelemetrySink::new(100);
        let c = s.register("hits", 0, None, CounterKind::Counter);
        s.set(c, 2);
        s.sample_up_to(100);
        s.set(c, 7);
        s.finalize(150);
        let cw: Vec<u64> = s.series(c).windows().map(|w| w.sum).collect();
        assert_eq!(cw, vec![2, 5]);
    }

    #[test]
    fn finalize_on_boundary_adds_no_extra_epoch() {
        let mut s = TelemetrySink::new(100);
        let c = s.register("hits", 0, None, CounterKind::Counter);
        s.set(c, 2);
        s.finalize(200);
        assert_eq!(s.series(c).windows().count(), 2);
    }

    #[test]
    fn csv_and_json_cover_all_samples() {
        let mut s = TelemetrySink::new(10);
        let c = s.register("mesh.bytes", 4, Some((1, 2)), CounterKind::Counter);
        s.set(c, 8);
        s.finalize(25);
        let csv = s.to_csv();
        assert_eq!(csv.lines().next(), Some("name,site,tile_x,tile_y,t,value"));
        assert!(csv.contains("mesh.bytes,4,1,2,0,8"));
        assert!(csv.contains("mesh.bytes,4,1,2,20,0"));
        let json = s.to_json();
        assert!(json.contains("\"tile\":[1,2]"));
        assert!(json.contains("\"samples\":[8,0,0]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn perfetto_counter_tracks_are_balanced() {
        let mut s = TelemetrySink::new(10);
        let c = s.register("walkers.busy", 2, None, CounterKind::Gauge);
        s.set(c, 3);
        s.finalize(20);
        let json = s.to_perfetto_json();
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("walkers.busy@2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn merge_splices_counters_into_span_documents() {
        let mut s = TelemetrySink::new(10);
        let c = s.register("hits", 0, None, CounterKind::Counter);
        s.set(c, 1);
        s.finalize(10);
        let merged = s.merge_chrome_json("{\"traceEvents\":[{\"name\":\"span\"}]}");
        assert!(merged.contains("\"name\":\"span\""));
        assert!(merged.contains("\"ph\":\"C\""));
        assert_eq!(merged.matches('{').count(), merged.matches('}').count());
        // Merging into an empty document must not leave a dangling comma.
        let merged = s.merge_chrome_json("{\"traceEvents\":[]}");
        assert!(!merged.contains("[,"));
    }

    #[test]
    fn heatmap_aggregates_tile_tagged_metrics() {
        let mut s = TelemetrySink::new(10);
        s.set_grid(2, 2);
        let a = s.register("mesh.bytes", 0, Some((0, 0)), CounterKind::Counter);
        let b = s.register("mesh.bytes", 1, Some((1, 1)), CounterKind::Counter);
        let _ = s.register("untiled", 9, None, CounterKind::Counter);
        s.set(a, 5);
        s.set(b, 7);
        let hm = s.heatmap().expect("grid announced");
        assert_eq!((hm.width, hm.height), (2, 2));
        assert_eq!(hm.metrics.len(), 1);
        assert_eq!(hm.metrics[0].1, vec![5, 0, 0, 7]);
        let csv = hm.to_csv();
        assert!(csv.contains("mesh.bytes,1,1,7"));
    }

    #[test]
    fn heatmap_requires_a_grid() {
        let s = TelemetrySink::new(10);
        assert!(s.heatmap().is_none());
    }
}

//! HBM stack model.

use wsg_sim::time::serialization_cycles;
use wsg_sim::{Cycle, ServerPool};

/// Parameters of one GPM's HBM stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Aggregate bandwidth in bytes per cycle (1.23 TB/s at 1 GHz →
    /// 1230 B/cycle, Table I).
    pub bytes_per_cycle: f64,
    /// Fixed access latency in cycles (row activation + transfer start).
    pub access_latency: Cycle,
    /// Number of pseudo-channels that can serve accesses in parallel.
    pub channels: usize,
}

impl HbmConfig {
    /// Table I values: 8 GB at 1.23 TB/s. The paper does not specify the
    /// fixed latency or channel count; we use HBM2-typical values
    /// (~120 cycles, 8 pseudo-channels).
    pub fn paper_baseline() -> Self {
        Self {
            capacity_bytes: 8 << 30,
            bytes_per_cycle: 1230.0,
            access_latency: 120,
            channels: 8,
        }
    }
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// A bandwidth/latency model of one HBM stack.
///
/// Accesses are admitted to `channels` parallel servers; each access
/// occupies a channel for its serialization time (bytes over the per-channel
/// bandwidth) and completes after the fixed access latency on top.
///
/// # Example
///
/// ```
/// use wsg_mem::{Hbm, HbmConfig};
///
/// let mut hbm = Hbm::new(HbmConfig {
///     capacity_bytes: 1 << 30,
///     bytes_per_cycle: 64.0,
///     access_latency: 100,
///     channels: 1,
/// });
/// // 64 B at 64 B/cycle on one channel: 1 cycle serialization + 100 latency.
/// assert_eq!(hbm.access(0, 64), 101);
/// ```
#[derive(Debug, Clone)]
pub struct Hbm {
    cfg: HbmConfig,
    channels: ServerPool,
    bytes_served: u64,
    accesses: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

impl Hbm {
    /// Creates an HBM stack.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive or `channels` is zero.
    pub fn new(cfg: HbmConfig) -> Self {
        assert!(cfg.bytes_per_cycle > 0.0, "bandwidth must be positive");
        Self {
            channels: ServerPool::new(cfg.channels),
            cfg,
            bytes_served: 0,
            accesses: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports access service spans (trace) and
    /// publishes traffic counters (telemetry).
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::Counter;
        probe.register(&[("hbm.accesses", Counter), ("hbm.bytes", Counter)]);
        probe.publish(0, || [self.accesses, self.bytes_served]);
        self.probe = Some(probe);
    }

    /// The configuration.
    pub fn config(&self) -> HbmConfig {
        self.cfg
    }

    /// Admits an access of `bytes` arriving at `now`; returns its completion
    /// cycle.
    pub fn access(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let per_channel = self.cfg.bytes_per_cycle / self.cfg.channels as f64;
        let service = serialization_cycles(bytes, per_channel);
        let (_, done) = self.channels.admit(now, service);
        self.bytes_served += bytes;
        self.accesses += 1;
        let completion = done + self.cfg.access_latency;
        #[cfg(feature = "probe")]
        if let Some(p) = &self.probe {
            p.span("hbm.access", now, completion - now, bytes);
            p.publish(0, || [self.accesses, self.bytes_served]);
        }
        completion
    }

    /// Total bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Mean queueing delay behind busy channels, in cycles.
    pub fn mean_queue_delay(&self) -> f64 {
        self.channels.mean_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hbm {
        Hbm::new(HbmConfig {
            capacity_bytes: 1 << 20,
            bytes_per_cycle: 64.0,
            access_latency: 100,
            channels: 2,
        })
    }

    #[test]
    fn uncontended_access_is_latency_plus_serialization() {
        let mut h = tiny();
        // Per-channel bandwidth = 32 B/cycle; 64 B -> 2 cycles.
        assert_eq!(h.access(0, 64), 102);
    }

    #[test]
    fn channels_serve_in_parallel_then_queue() {
        let mut h = tiny();
        let a = h.access(0, 64);
        let b = h.access(0, 64);
        let c = h.access(0, 64);
        assert_eq!(a, 102);
        assert_eq!(b, 102, "second channel is free");
        assert_eq!(c, 104, "third access queues behind a channel");
        assert!(h.mean_queue_delay() > 0.0);
    }

    #[test]
    fn accounting() {
        let mut h = tiny();
        h.access(0, 64);
        h.access(10, 128);
        assert_eq!(h.bytes_served(), 192);
        assert_eq!(h.accesses(), 2);
    }

    #[test]
    fn paper_baseline_values() {
        let cfg = HbmConfig::paper_baseline();
        assert_eq!(cfg.capacity_bytes, 8 << 30);
        assert_eq!(cfg.bytes_per_cycle, 1230.0);
    }

    #[test]
    fn later_arrival_does_not_wait_for_idle_channels() {
        let mut h = tiny();
        h.access(0, 64);
        let done = h.access(1000, 64);
        assert_eq!(done, 1102);
    }
}

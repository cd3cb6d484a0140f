//! The mesh interconnect with bandwidth-reserving links.

use wsg_sim::time::serialization_cycles;
use wsg_sim::Cycle;

use crate::geometry::Coord;

/// Physical parameters of one mesh link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Traversal latency per link, in cycles.
    pub latency: Cycle,
    /// Link bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
}

impl LinkParams {
    /// Table I values: 768 GB/s per link at the 1 GHz system clock
    /// (768 bytes/cycle) and 32 cycles of latency per link.
    pub fn paper_baseline() -> Self {
        Self {
            latency: 32,
            bytes_per_cycle: 768.0,
        }
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// The result of injecting a packet into the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// Cycle at which the packet is fully delivered at the destination.
    pub arrival: Cycle,
    /// Number of links traversed (the Manhattan distance).
    pub hops: u32,
    /// Cycles the packet spent waiting for busy links (contention).
    pub queueing: Cycle,
}

#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    next_free: Cycle,
    bytes: u64,
    packets: u64,
    busy_cycles: u64,
}

/// A `width × height` mesh of tiles with directional, bandwidth-reserving
/// links and XY routing.
///
/// Sending a packet walks its route; on each directional link the packet
/// waits until the link is free, occupies it for the serialization time of
/// its payload, then takes the link latency to traverse. The reservation is
/// recorded so later packets on the same link queue behind it. A packet sent
/// from a tile to itself is delivered instantly (intra-GPM traffic does not
/// use the mesh).
///
/// # Example
///
/// ```
/// use wsg_noc::{Coord, LinkParams, Mesh};
/// let mut mesh = Mesh::new(3, 3, LinkParams { latency: 10, bytes_per_cycle: 8.0 });
/// // 16 bytes over one hop: 2 cycles serialization + 10 cycles latency.
/// let out = mesh.send(Coord::new(0, 0), Coord::new(1, 0), 16, 0);
/// assert_eq!(out.arrival, 12);
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    width: u16,
    height: u16,
    params: LinkParams,
    // Flat per-tile × per-direction array (see `link_index`): O(1) access on
    // the per-hop hot path, and any iteration walks it in index order, which
    // is a fixed function of the topology (lint rule D1).
    links: Vec<LinkState>,
    total_bytes: u64,
    total_packets: u64,
    total_hop_bytes: u64,
    #[cfg(feature = "probe")]
    probe: Option<wsg_sim::probe::Probe>,
}

/// Packs a directional link's endpoints into its site id; also names a
/// packet's source→destination pair.
#[cfg(feature = "probe")]
fn link_site(from: Coord, to: Coord) -> u64 {
    ((from.x as u64) << 48) | ((from.y as u64) << 32) | ((to.x as u64) << 16) | to.y as u64
}

impl Mesh {
    /// Creates a mesh of `width × height` tiles.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the bandwidth is not positive.
    pub fn new(width: u16, height: u16, params: LinkParams) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        assert!(
            params.bytes_per_cycle > 0.0,
            "link bandwidth must be positive"
        );
        Self {
            width,
            height,
            params,
            links: vec![LinkState::default(); width as usize * height as usize * 4],
            total_bytes: 0,
            total_packets: 0,
            total_hop_bytes: 0,
            #[cfg(feature = "probe")]
            probe: None,
        }
    }

    /// Attaches the probe that reports every link hop (audit injection
    /// and delivery, trace span) and every packet (trace span), and
    /// publishes two tile-tagged counters per tile — bytes injected on and
    /// busy cycles of the tile's outgoing links — so link utilization can
    /// be rendered both as a timeline and as a wafer heatmap.
    #[cfg(feature = "probe")]
    pub fn attach_probe(&mut self, mut probe: wsg_sim::probe::Probe) {
        use wsg_sim::probe::CounterKind::Counter;
        probe.register_grid(
            self.width,
            self.height,
            &[("mesh.link_bytes", Counter), ("mesh.link_busy", Counter)],
        );
        for tile in 0..self.width as usize * self.height as usize {
            self.publish_tile(&probe, tile);
        }
        self.probe = Some(probe);
    }

    /// Publishes tile `tile`'s cumulative outgoing-link traffic.
    #[cfg(feature = "probe")]
    fn publish_tile(&self, probe: &wsg_sim::probe::Probe, tile: usize) {
        probe.publish(tile * 2, || {
            let out = &self.links[tile * 4..tile * 4 + 4];
            [
                out.iter().map(|l| l.bytes).sum(),
                out.iter().map(|l| l.busy_cycles).sum(),
            ]
        });
    }

    /// Mesh width in tiles.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height in tiles.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Link parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Whether `c` is a valid tile of this mesh.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Slot of the directional link `from → to` in the flat link array:
    /// four outgoing directions (+x, −x, +y, −y) per source tile.
    fn link_index(&self, from: Coord, to: Coord) -> usize {
        let dir = if to.x > from.x {
            0
        } else if to.x < from.x {
            1
        } else if to.y > from.y {
            2
        } else {
            3
        };
        (from.y as usize * self.width as usize + from.x as usize) * 4 + dir
    }

    /// Inverse of [`Mesh::link_index`]: the `(from, to)` endpoints of slot
    /// `idx`. Slots on the mesh boundary point off-grid and are never
    /// reserved; callers iterate only over slots with traffic.
    fn link_endpoints(&self, idx: usize) -> (Coord, Coord) {
        let tile = idx / 4;
        let from = Coord::new(
            (tile % self.width as usize) as u16,
            (tile / self.width as usize) as u16,
        );
        let to = match idx % 4 {
            0 => Coord::new(from.x + 1, from.y),
            1 => Coord::new(from.x.wrapping_sub(1), from.y),
            2 => Coord::new(from.x, from.y + 1),
            _ => Coord::new(from.x, from.y.wrapping_sub(1)),
        };
        (from, to)
    }

    /// Injects a packet of `bytes` payload from `from` to `to` at cycle
    /// `depart` and returns its delivery outcome. Reserves bandwidth on
    /// every link of the XY route.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn send(&mut self, from: Coord, to: Coord, bytes: u64, depart: Cycle) -> SendOutcome {
        assert!(self.contains(from), "source {from} outside mesh");
        assert!(self.contains(to), "destination {to} outside mesh");
        if from == to {
            // Intra-GPM traffic does not use the mesh, so it must not show
            // up in the injected-traffic totals either.
            return SendOutcome {
                arrival: depart,
                hops: 0,
                queueing: 0,
            };
        }
        self.total_packets += 1;
        self.total_bytes += bytes;
        let ser = serialization_cycles(bytes, self.params.bytes_per_cycle);
        let mut t = depart;
        let mut queueing: Cycle = 0;
        let mut hops: u32 = 0;
        // Walk the XY route (X first, then Y — see `xy_route`) without
        // materializing it: one directional hop per iteration.
        let mut cur = from;
        while cur != to {
            let next = if cur.x != to.x {
                Coord::new(if to.x > cur.x { cur.x + 1 } else { cur.x - 1 }, cur.y)
            } else {
                Coord::new(cur.x, if to.y > cur.y { cur.y + 1 } else { cur.y - 1 })
            };
            let idx = self.link_index(cur, next);
            let link = &mut self.links[idx];
            let start = t.max(link.next_free);
            queueing += start - t;
            link.next_free = start + ser;
            link.bytes += bytes;
            link.packets += 1;
            link.busy_cycles += ser;
            self.total_hop_bytes += bytes;
            let hop_depart = t;
            t = start + ser + self.params.latency;
            #[cfg(feature = "probe")]
            if let Some(p) = &self.probe {
                // Per-hop span: waiting for the link plus serialization plus
                // traversal, on the link's own site.
                p.hop(link_site(cur, next), hop_depart, t - hop_depart, bytes);
                self.publish_tile(p, idx / 4);
            }
            #[cfg(not(feature = "probe"))]
            let _ = hop_depart;
            cur = next;
            hops += 1;
        }
        let out = SendOutcome {
            arrival: t,
            hops,
            queueing,
        };
        #[cfg(feature = "probe")]
        if let Some(p) = &self.probe {
            // Packet-level span on the source→destination pair, carrying the
            // hop count so stage summaries can distinguish path lengths.
            p.span_at(
                link_site(from, to),
                "noc.send",
                depart,
                out.arrival - depart,
                ((out.hops as u64) << 32) | bytes.min(u32::MAX as u64),
            );
        }
        out
    }

    /// The zero-load latency of a `bytes`-sized packet between two tiles
    /// (no contention), useful for analytic comparisons.
    pub fn zero_load_latency(&self, from: Coord, to: Coord, bytes: u64) -> Cycle {
        let hops = from.manhattan(to) as Cycle;
        if hops == 0 {
            return 0;
        }
        let ser = serialization_cycles(bytes, self.params.bytes_per_cycle);
        hops * (ser + self.params.latency)
    }

    /// Total payload bytes injected (each packet counted once, regardless of
    /// distance). This is the figure used for the paper's "0.82 % additional
    /// traffic" comparison.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total bytes×hops moved (link-level traffic volume).
    pub fn total_hop_bytes(&self) -> u64 {
        self.total_hop_bytes
    }

    /// Total number of packets injected.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// The most-utilized link's busy fraction over `[0, end]`, or 0 for an
    /// idle mesh.
    ///
    /// Clamped to `[0, 1]`: bandwidth reservations can extend past the
    /// caller's horizon (a packet injected near `end` stays "busy" beyond
    /// it), and a fraction above 1 is meaningless as a utilization.
    pub fn peak_link_utilization(&self, end: Cycle) -> f64 {
        if end == 0 {
            return 0.0;
        }
        self.links
            .iter()
            .map(|l| (l.busy_cycles as f64 / end as f64).min(1.0))
            .fold(0.0, f64::max)
    }

    /// The `n` busiest links by packet count: `(from, to, packets, busy_cycles, queue_horizon)`.
    pub fn top_links(&self, n: usize) -> Vec<(Coord, Coord, u64, u64, Cycle)> {
        let mut v: Vec<_> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.packets > 0)
            .map(|(idx, l)| {
                let (a, b) = self.link_endpoints(idx);
                (a, b, l.packets, l.busy_cycles, l.next_free)
            })
            .collect();
        v.sort_by_key(|x| std::cmp::Reverse(x.2));
        v.truncate(n);
        v
    }

    /// Resets traffic accounting and link reservations (topology retained).
    pub fn reset(&mut self) {
        self.links.fill(LinkState::default());
        self.total_bytes = 0;
        self.total_packets = 0;
        self.total_hop_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mesh {
        Mesh::new(
            4,
            4,
            LinkParams {
                latency: 10,
                bytes_per_cycle: 8.0,
            },
        )
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        Mesh::new(0, 3, LinkParams::default());
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_bounds_send_rejected() {
        let mut m = small();
        m.send(Coord::new(0, 0), Coord::new(9, 9), 1, 0);
    }

    #[test]
    fn local_delivery_is_instant() {
        let mut m = small();
        let out = m.send(Coord::new(1, 1), Coord::new(1, 1), 64, 42);
        assert_eq!(out.arrival, 42);
        assert_eq!(out.hops, 0);
    }

    #[test]
    fn uncontended_latency_matches_zero_load() {
        let mut m = small();
        let a = Coord::new(0, 0);
        let b = Coord::new(3, 2);
        let out = m.send(a, b, 16, 100);
        assert_eq!(out.arrival - 100, m.zero_load_latency(a, b, 16));
        assert_eq!(out.queueing, 0);
        assert_eq!(out.hops, 5);
    }

    #[test]
    fn contention_queues_second_packet() {
        let mut m = small();
        let a = Coord::new(0, 0);
        let b = Coord::new(1, 0);
        // 80 bytes at 8 B/cyc = 10 cycles of serialization.
        let first = m.send(a, b, 80, 0);
        let second = m.send(a, b, 80, 0);
        assert_eq!(first.arrival, 20);
        assert_eq!(second.queueing, 10);
        assert_eq!(second.arrival, 30);
    }

    #[test]
    fn reverse_links_are_independent() {
        let mut m = small();
        let a = Coord::new(0, 0);
        let b = Coord::new(1, 0);
        m.send(a, b, 800, 0);
        let back = m.send(b, a, 8, 0);
        assert_eq!(back.queueing, 0, "opposite direction must not contend");
    }

    #[test]
    fn traffic_accounting() {
        let mut m = small();
        m.send(Coord::new(0, 0), Coord::new(2, 0), 64, 0); // 2 hops
        m.send(Coord::new(0, 0), Coord::new(0, 0), 64, 0); // local
        assert_eq!(m.total_packets(), 1);
        assert_eq!(m.total_bytes(), 64);
        assert_eq!(m.total_hop_bytes(), 128); // 64 B over 2 links
    }

    #[test]
    fn self_addressed_packets_do_not_inflate_traffic() {
        // Intra-GPM deliveries never touch the mesh, so they must not count
        // toward the "additional traffic" denominator either.
        let mut m = small();
        for t in 0..10 {
            m.send(Coord::new(2, 2), Coord::new(2, 2), 64, t);
        }
        assert_eq!(m.total_packets(), 0);
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.total_hop_bytes(), 0);
    }

    #[test]
    fn peak_utilization_and_reset() {
        let mut m = small();
        m.send(Coord::new(0, 0), Coord::new(1, 0), 80, 0);
        assert!(m.peak_link_utilization(100) > 0.0);
        m.reset();
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.peak_link_utilization(100), 0.0);
    }

    #[test]
    fn peak_utilization_is_clamped_to_one() {
        let mut m = small();
        // 800 bytes at 8 B/cyc = 100 busy cycles on the (0,0)→(1,0) link;
        // a 10-cycle horizon would read as 10× utilization unclamped.
        m.send(Coord::new(0, 0), Coord::new(1, 0), 800, 0);
        let peak = m.peak_link_utilization(10);
        assert_eq!(peak, 1.0);
    }

    #[test]
    fn paper_baseline_params() {
        let p = LinkParams::paper_baseline();
        assert_eq!(p.latency, 32);
        assert_eq!(p.bytes_per_cycle, 768.0);
    }

    #[test]
    fn far_tiles_cost_more_than_near_tiles() {
        // The geometric-latency property behind observation O2.
        let m = Mesh::new(7, 7, LinkParams::paper_baseline());
        let cpu = Coord::new(3, 3);
        let near = m.zero_load_latency(Coord::new(3, 2), cpu, 32);
        let far = m.zero_load_latency(Coord::new(0, 0), cpu, 32);
        assert!(far >= 6 * near / 2);
        assert!(far > near);
    }
}

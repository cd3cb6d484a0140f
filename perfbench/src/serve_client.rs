//! A closed-loop client of an in-process `Daemon`: one connection over a
//! Unix socket pair, one request in flight.

use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use hdpat::experiments::DiskCacheStats;
use hdpat::serve::daemon::{Daemon, DaemonConfig};
use hdpat::serve::json::Json;
use hdpat::serve::proto;

use crate::points::Point;

/// The `submit` line for `point` with request id `id`.
pub fn submit(id: &str, point: &Point) -> String {
    proto::submit_line(
        id,
        point.cfg.benchmark,
        point.policy,
        point.cfg.scale,
        point.cfg.seed,
    )
}

/// The client end of one daemon connection.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Sends one request line and returns the next response line.
    ///
    /// # Panics
    ///
    /// Panics if the connection breaks: the daemon runs in this process, so
    /// a broken pipe is a bug, not a condition to measure.
    pub fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .expect("send a request to the daemon");
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .expect("read the daemon's reply");
        assert!(n > 0, "daemon closed the connection");
        reply.truncate(reply.trim_end().len());
        reply
    }
}

/// Per-tier means read from `Daemon::metrics_snapshot`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierTimes {
    /// Requests answered in this tier.
    pub count: u64,
    /// Σ queue wait, µs.
    pub queue_wait_us: u64,
    /// Σ service time, µs.
    pub service_us: u64,
}

/// The parts of a daemon's metrics snapshot the benchmark reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Disk-tier requests.
    pub disk: TierTimes,
    /// Simulated-tier requests.
    pub simulated: TierTimes,
}

impl Snapshot {
    fn from_json(snap: &Json) -> Self {
        let tier = |name: &str| {
            let t = snap
                .get("requests")
                .and_then(|r| r.get("tiers"))
                .and_then(|t| t.get(name));
            let sum = |hist: &str| {
                t.and_then(|t| t.get(hist))
                    .and_then(|h| h.get("sum"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            TierTimes {
                count: t
                    .and_then(|t| t.get("count"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                queue_wait_us: sum("queue_wait_us"),
                service_us: sum("service_us"),
            }
        };
        Self {
            disk: tier("disk"),
            simulated: tier("simulated"),
        }
    }

    /// Adds another snapshot's totals.
    pub fn add(&mut self, other: &Snapshot) {
        for (a, b) in [
            (&mut self.disk, &other.disk),
            (&mut self.simulated, &other.simulated),
        ] {
            a.count += b.count;
            a.queue_wait_us += b.queue_wait_us;
            a.service_us += b.service_us;
        }
    }
}

/// What one daemon session left behind.
pub struct Session<R> {
    /// The closure's result.
    pub value: R,
    /// The daemon's request timings.
    pub snapshot: Snapshot,
    /// The daemon's store counters.
    pub disk: DiskCacheStats,
    /// When `Daemon::new` started and returned.
    pub booted: (Instant, Instant),
    /// When the connection was closed and when `Daemon::join` returned.
    pub retired: (Instant, Instant),
}

/// Boots a one-worker daemon over the store at `dir`, runs `f` against one
/// connection, then closes the connection and retires the daemon.
pub fn session<R>(dir: &Path, budget: Option<u64>, f: impl FnOnce(&mut Client) -> R) -> Session<R> {
    let boot = Instant::now();
    let daemon = Daemon::new(DaemonConfig {
        jobs: 1,
        cache_dir: Some(dir.to_path_buf()),
        cache_budget: budget,
        ..DaemonConfig::default()
    })
    .expect("boot the daemon over the store");
    let booted = (boot, Instant::now());
    let (ours, theirs) = UnixStream::pair().expect("create a socket pair");
    let mut retire = boot;
    let value = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let reader = BufReader::new(theirs.try_clone().expect("clone the daemon's socket"));
            daemon.serve_connection(reader, theirs);
        });
        let mut client = Client {
            writer: ours.try_clone().expect("clone the client socket"),
            reader: BufReader::new(ours),
        };
        let value = f(&mut client);
        retire = Instant::now();
        // End of input: the daemon answers what it holds, then returns.
        let _ = client.writer.shutdown(Shutdown::Write);
        server.join().expect("the connection handler panicked");
        value
    });
    let snapshot = Snapshot::from_json(&daemon.metrics_snapshot());
    let disk = daemon.cache_stats().1.unwrap_or_default();
    daemon.join();
    Session {
        value,
        snapshot,
        disk,
        booted,
        retired: (retire, Instant::now()),
    }
}

#![warn(missing_docs)]

//! Discrete-event simulation engine for the wafer-scale GPU simulator.
//!
//! This crate is the foundation of the HDPAT reproduction. It provides:
//!
//! * [`EventQueue`] — a generic, deterministic discrete-event queue ordered by
//!   `(cycle, sequence number)`, implemented as a two-level calendar queue
//!   (DESIGN.md §11).
//! * [`HashIndex`] — a deterministic open-addressing map from `u64` keys with
//!   a fixed seed, the sanctioned replacement for entropy-seeded std hash
//!   collections on simulator hot paths (lint rule d6).
//! * [`ServerPool`] — an analytic model of `k` identical servers with FIFO
//!   admission, used for bandwidth-style resources (HBM channels, walker
//!   pools when fine-grained queue introspection is not needed).
//! * The [`stats`] module — counters, histograms, windowed time series,
//!   latency breakdowns and reuse-distance trackers that back every figure of
//!   the paper.
//! * [`SimRng`] — a seeded, reproducible random number generator used by the
//!   workload generators.
//! * The [`pool`] module — a scoped worker pool for fanning independent,
//!   fully seeded simulations across threads without sacrificing
//!   reproducibility (results come back in input order).
//! * The `probe` module (with any of the `audit`, `trace` and `telemetry`
//!   features) — the one observability hook every model structure holds,
//!   fanning its reports out to the auditor, trace sink and telemetry
//!   recorder.
//!
//! # Example
//!
//! ```
//! use wsg_sim::{EventQueue, Cycle};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(10, Ev::Ping(1));
//! q.push(5, Ev::Ping(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (5, Ev::Ping(0)));
//! assert_eq!(q.now(), 5);
//! ```

#[cfg(feature = "audit")]
pub mod audit;
pub mod event;
pub mod index;
pub mod pool;
#[cfg(feature = "probe")]
pub mod probe;
pub mod rng;
pub mod server;
pub mod stats;
#[cfg(feature = "telemetry")]
pub mod telemetry;
pub mod time;
#[cfg(feature = "trace")]
pub mod trace;

pub use event::EventQueue;
pub use index::HashIndex;
pub use rng::SimRng;
pub use server::ServerPool;
pub use time::Cycle;

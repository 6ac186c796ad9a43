//! Deterministic discrete-event simulation engine for the Oasis reproduction.
//!
//! This crate provides the substrate every other Oasis crate builds on:
//!
//! * [`time`] — a microsecond-resolution simulated clock ([`SimTime`],
//!   [`SimDuration`]).
//! * [`rng`] — a seedable, platform-independent random number generator
//!   ([`rng::SimRng`]) with the distributions the paper's models need.
//! * [`engine`] — a generic event queue and driver ([`engine::Engine`]).
//! * [`stats`] — counters, time-weighted averages, histograms, CDFs and
//!   time series used to produce every figure and table.
//! * [`pool`] — a scoped-thread worker pool ([`pool::WorkerPool`]) that
//!   fans independent seeded runs across cores while keeping results in
//!   input order, so parallel output is byte-identical to sequential.
//! * [`fidelity`] — the switch between per-page and batched page-level
//!   models ([`ModelFidelity`]), which must agree bit-for-bit.
//!
//! Determinism is a design goal: given the same seed, a simulation produces
//! bit-identical results on every platform. Event ties are broken by
//! insertion order and no hash-map iteration order reaches simulation logic.

#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod fidelity;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventQueue};
pub use fidelity::ModelFidelity;
pub use pool::WorkerPool;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

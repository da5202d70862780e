#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Memory-hierarchy simulation and performance models.
//!
//! The paper uses two simulators: a fast trace-driven LLC simulator with a
//! linear CPI estimate (the genetic algorithm's fitness function, Section
//! 4.3) and the CMP$im performance simulator (Section 4.5: out-of-order,
//! 4-wide, 128-entry window, 32 KB/8-way L1D, 256 KB/8-way L2, 4 MB/16-way
//! L3, 200-cycle DRAM). This crate provides both layers:
//!
//! * [`Hierarchy`] — a three-level cache hierarchy with dirty-writeback
//!   propagation and per-level statistics.
//! * [`capture_llc_stream`] — runs a reference stream through L1/L2 once
//!   and records the (policy-independent) LLC access stream, which every
//!   LLC policy experiment then replays cheaply.
//! * [`llc`] — the fast LLC-only replayer with warm-up/measure split
//!   (paper: first third warms the cache, the rest is measured).
//! * [`sliced`] — the bit-sliced kernel engine for self-describing
//!   set-local policies (packed PLRU trees, SWAR stacks/RRPVs),
//!   bit-identical to [`replay_llc`].
//! * [`dispatch`] — the one engine-choice rule every whole-stream replay
//!   goes through: sliced if the policy has a kernel that accepts the
//!   geometry, else monomorphized.
//! * [`cpi`] — the linear CPI model (fitness) and the MLP-aware window
//!   model (reporting), substituting for CMP$im per DESIGN.md §2.
//! * [`optimal`] — Belady's MIN on a captured LLC stream (the paper's
//!   in-house optimal-misses simulator).

//! * [`multicore`] — the paper's future-work multi-core extension: private
//!   L1/L2 per core over one shared LLC, multiprogrammed mixes.

pub mod analysis;
pub mod cpi;
pub mod dispatch;
pub mod hierarchy;
pub mod llc;
pub mod multicore;
pub mod optimal;
pub mod prefetch;
pub mod sliced;

pub use cpi::{LinearCpiModel, WindowPerfModel};
pub use dispatch::{replay_dispatch, Dispatched, Engine};
pub use hierarchy::{capture_llc_stream, Hierarchy, HierarchyConfig, Inclusion, ServiceLevel};
pub use llc::{default_warmup, replay_llc, replay_llc_mono, LlcRunResult};
pub use multicore::MulticoreHierarchy;
pub use optimal::min_misses;
pub use sliced::replay_llc_sliced;

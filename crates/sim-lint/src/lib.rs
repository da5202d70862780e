#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Static analysis and exhaustive model checking for the PseudoLRU
//! insertion/promotion stack.
//!
//! The repo's other defence layers are *dynamic*: unit tests sample a few
//! states, and the `sim-verify` differential oracle replays traces through
//! independent implementations. Both can only witness behaviour a workload
//! happens to exercise. This crate adds the *static* layer: properties of
//! an insertion/promotion vector that are decidable from the vector alone,
//! and invariants of the PLRU state machine proved by exhausting its state
//! space rather than sampling it.
//!
//! * [`ipv`] — the IPV static analyzer: well-formedness lints, the
//!   reachable-position set computed by fixed-point iteration, dead and
//!   protected positions, and a behavioural classification
//!   ([`IpvClass`]). Used by `gippr` to validate every published paper
//!   vector at construction and by `evolve` to prune degenerate genomes
//!   before spending a fitness evaluation on them.
//! * [`mck`] — the exhaustive PLRU battery: a plain sweep of the complete
//!   PLRU tree-state space (victim-selection totality, the position↔tree
//!   bijection and write round-trips), plus [`PlruModel`], which exposes
//!   one set's (tree × valid-mask) state to the bounded checker so the
//!   reachable product is searched to exhaustion — proving valid-mask
//!   prefix closure and promotion convergence with a minimal
//!   counterexample trail on failure. Generic over [`PlruState`], so the
//!   *production* `gippr::PlruTree` is what gets checked, not a model of
//!   it.
//! * [`mirror`] — [`MirrorTree`], an independently
//!   coded naive tree substrate used to self-test the checker and to
//!   cross-check bit-packed implementations.
//! * [`bounded`] — the one model checker: breadth-first search with state
//!   hashing over any [`PolicyState`] — an opaque,
//!   resettable state machine with a finite input alphabet and
//!   self-checked invariants. It runs the PLRU battery with no cap, and
//!   `sim-verify` drives every roster policy (EHC, ARC, AWRP, …) through
//!   it with explicit state/depth/wall-clock budgets; both get minimal
//!   counterexample trails.
//!
//! The `xtask lint` / `xtask model-check` binaries drive all layers as a
//! CI gate.

pub mod bounded;
pub mod ipv;
pub mod mck;
pub mod mirror;

pub use bounded::{BoundedChecker, BoundedReport, BoundedTrail, PolicyState, StopReason};
pub use ipv::{analyze, IpvAnalysis, IpvClass, IpvLint, IpvLintError};
pub use mck::{
    check_reachable, cross_check, sweep_trees, Counterexample, PlruModel, PlruState, PromotionRule,
};
pub use mirror::MirrorTree;

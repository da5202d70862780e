//! Roster-wide bounded model checking over opaque policy state machines.
//!
//! This is the workspace's one model checker: breadth-first exploration of
//! a reachable state graph under a small input alphabet, with state hashing
//! over a caller-supplied canonical digest, optional state/depth/wall-clock
//! budgets, and minimal counterexample trails when an invariant breaks.
//! [`mck`](crate::mck) runs the PLRU battery on it with no cap — one set's
//! `(tree, valid-mask)` space is small enough to *exhaust*. The rest of the
//! roster is not so obliging: EHC carries a 4096-entry counter table, ARC
//! keeps ghost lists plus an adaptive partition target, and AWRP/LRU
//! timestamps grow without bound, so those runs are budgeted.
//!
//! How the search gets a node's state is the only thing that varies. A
//! model that implements [`PolicyState::fork`] has each frontier node's
//! state kept and forked once per input; one that does not is rebuilt by
//! `reset` plus a replay of the node's trail, so it never needs `Clone`.
//! The search also records each `(state, input)` successor: on an
//! exhausted graph the orbit pass walks that table from every state
//! instead of re-applying inputs, and on a truncated graph it falls back to
//! replaying orbits from sampled states.
//!
//! The checker is deliberately decoupled from the simulator: it sees a model
//! only through the [`PolicyState`] object interface (reset, enumerable
//! inputs, apply-with-invariant-check, digest). `sim-verify` adapts every
//! roster policy — driven through the real `SetAssocCache` access protocol —
//! onto this trait, and `xtask model-check` sweeps the lot.
//!
//! # Soundness of the digest quotient
//!
//! Two states with equal digests are merged during search. Models must
//! therefore emit digests that are *behaviourally faithful*: equal digests
//! only for states no input sequence can distinguish. Models with genuinely
//! unbounded counters (timestamps, RNG words) should either rebase them into
//! a canonical form (rank order, offsets from the running minimum) or accept
//! that exploration is truncated by the budget rather than by state-space
//! closure — the [`BoundedReport::complete`] flag records which happened.
//! A digest that merges *distinguishable* states can hide defects but can
//! never fabricate one: invariants are always evaluated on a real instance
//! (forked or replayed), so every reported counterexample trail is genuine.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

/// An opaque, resettable, deterministic state machine with a finite input
/// alphabet and self-checked invariants.
///
/// This is the roster-policy analogue of [`PlruState`](crate::PlruState):
/// where that trait exposes the *structure* of a PLRU tree (so the checker
/// can enumerate and decode every state), `PolicyState` exposes only what
/// bounded search needs — replayability, transitions, and a hashable
/// canonical digest. Implementations wrap real production policies; the
/// invariants they check in [`apply`](PolicyState::apply) are the model's
/// whole reason to exist.
pub trait PolicyState {
    /// Restores the model to its initial state. Must be deterministic:
    /// `reset` followed by the same input sequence must always reproduce the
    /// same digests.
    fn reset(&mut self);

    /// Number of inputs in the alphabet. Inputs are identified by index
    /// `0..num_inputs()`.
    fn num_inputs(&self) -> usize;

    /// Human-readable label for input `input`, used in counterexample
    /// trails (e.g. `"access B@set1"`).
    fn input_label(&self, input: usize) -> String;

    /// Applies input `input` to the current state, then checks every
    /// invariant the model guards. Returns `Err(description)` when an
    /// invariant is violated; the checker turns that into a minimal trail.
    fn apply(&mut self, input: usize) -> Result<(), String>;

    /// Canonical digest of the current state. Equal digests ⇒ states are
    /// merged by the search (see the module docs for the soundness
    /// obligation this places on implementations).
    fn digest(&self) -> Vec<u8>;

    /// An independent copy of the current state, if the model can make
    /// one. With a fork the checker keeps each frontier node's state and
    /// expands it directly; without one (the default) it rebuilds the
    /// state by `reset` plus a replay of the node's trail, which is
    /// quadratic in depth but needs nothing beyond determinism.
    fn fork(&self) -> Option<Box<dyn PolicyState>> {
        None
    }
}

/// Why a bounded run stopped exploring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every reachable state (under the digest quotient) was visited.
    Exhausted,
    /// The state budget was hit.
    StateBudget,
    /// The depth bound was hit (frontier still had unexpanded states).
    DepthBound,
    /// The wall-clock deadline expired.
    Deadline,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Exhausted => "exhausted",
            StopReason::StateBudget => "state-budget",
            StopReason::DepthBound => "depth-bound",
            StopReason::Deadline => "deadline",
        };
        f.write_str(s)
    }
}

/// Statistics from a successful bounded run.
#[derive(Debug, Clone)]
pub struct BoundedReport {
    /// Distinct digests visited (including the initial state).
    pub states: usize,
    /// Transitions applied during search (excluding replays).
    pub transitions: usize,
    /// Deepest BFS layer fully or partially explored.
    pub depth: usize,
    /// True when the search closed the reachable set rather than hitting a
    /// budget.
    pub complete: bool,
    /// What terminated the search.
    pub stop: StopReason,
    /// Number of (state, input) orbit convergence checks performed.
    pub orbits_checked: usize,
}

/// A minimal input sequence witnessing an invariant violation.
#[derive(Debug, Clone)]
pub struct BoundedTrail {
    /// Description of the violated invariant, from
    /// [`PolicyState::apply`].
    pub invariant: String,
    /// Input labels from the initial state to the violation, in order. The
    /// final label is the input whose application failed.
    pub trail: Vec<String>,
}

impl fmt::Display for BoundedTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        writeln!(f, "minimal trail ({} steps):", self.trail.len())?;
        for (i, label) in self.trail.iter().enumerate() {
            writeln!(f, "  {:>3}. {label}", i + 1)?;
        }
        Ok(())
    }
}

const ROOT: usize = usize::MAX;

/// One visited state: its parent in the BFS tree and the input that reached
/// it. A model without [`PolicyState::fork`] has its states reconstructed
/// by replaying the parent chain, so the checker never needs `Clone`.
struct Node {
    parent: usize,
    input: usize,
    depth: usize,
}

/// Breadth-first bounded explorer with state hashing and minimal trails.
///
/// Because BFS visits states in nondecreasing depth order and a violation is
/// reported the first time its state is reached, the returned trail is
/// shortest among all input sequences triggering that violation (under the
/// digest quotient).
#[derive(Debug, Clone)]
pub struct BoundedChecker {
    max_states: usize,
    max_depth: usize,
    orbit_bound: usize,
    orbit_samples: usize,
    budget: Option<Duration>,
}

impl Default for BoundedChecker {
    fn default() -> Self {
        BoundedChecker {
            max_states: 4096,
            max_depth: 24,
            orbit_bound: 64,
            orbit_samples: 32,
            budget: None,
        }
    }
}

impl BoundedChecker {
    /// A checker with default budgets (4096 states, depth 24, no deadline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of distinct states visited.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states.max(1);
        self
    }

    /// Caps the BFS depth.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Caps orbit length when checking promotion-orbit convergence, and how
    /// many sampled states seed orbits (0 disables the orbit pass).
    pub fn with_orbits(mut self, bound: usize, samples: usize) -> Self {
        self.orbit_bound = bound;
        self.orbit_samples = samples;
        self
    }

    /// Sets a wall-clock deadline for the whole run (search + orbits).
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs bounded BFS plus the orbit-convergence pass over `model`.
    ///
    /// On success returns coverage statistics; on an invariant violation
    /// returns the minimal counterexample trail.
    pub fn run(&self, model: &mut dyn PolicyState) -> Result<BoundedReport, Box<BoundedTrail>> {
        let start = Instant::now();
        let n_inputs = model.num_inputs();
        assert!(n_inputs > 0, "model must offer at least one input");

        model.reset();
        let mut nodes = vec![Node {
            parent: ROOT,
            input: 0,
            depth: 0,
        }];
        let mut visited: HashMap<Vec<u8>, usize> = HashMap::new();
        visited.insert(model.digest(), 0);
        // Each queued node carries its own state when the model forks.
        let mut queue = VecDeque::from([(0usize, model.fork())]);
        // `successors[node * n_inputs + input]`: the node that input leads
        // to. Nodes are expanded in index order, so on an exhausted graph
        // the table is complete.
        let mut successors: Vec<usize> = Vec::new();

        let mut transitions = 0usize;
        let mut depth_reached = 0usize;
        let mut stop = StopReason::Exhausted;

        'search: while let Some((node, snapshot)) = queue.pop_front() {
            let depth = nodes[node].depth;
            depth_reached = depth_reached.max(depth);
            if depth >= self.max_depth {
                stop = StopReason::DepthBound;
                continue; // drain remaining frontier without expanding
            }
            let trail = match &snapshot {
                Some(_) => Vec::new(),
                None => self.trail_inputs(&nodes, node),
            };
            for input in 0..n_inputs {
                if self.over_deadline(start) {
                    stop = StopReason::Deadline;
                    break 'search;
                }
                let mut forked = snapshot.as_ref().and_then(|s| s.fork());
                let state: &mut dyn PolicyState = match forked.as_deref_mut() {
                    Some(state) => state,
                    None => {
                        self.replay(model, &trail)?;
                        &mut *model
                    }
                };
                if let Err(invariant) = state.apply(input) {
                    let trail = self.trail_inputs(&nodes, node);
                    return Err(Box::new(BoundedTrail {
                        invariant,
                        trail: self.labels(state, &trail, input),
                    }));
                }
                transitions += 1;
                let next = match visited.entry(state.digest()) {
                    Entry::Occupied(seen) => *seen.get(),
                    Entry::Vacant(slot) => {
                        if nodes.len() >= self.max_states {
                            stop = StopReason::StateBudget;
                            break 'search;
                        }
                        nodes.push(Node {
                            parent: node,
                            input,
                            depth: depth + 1,
                        });
                        slot.insert(nodes.len() - 1);
                        queue.push_back((nodes.len() - 1, forked));
                        nodes.len() - 1
                    }
                };
                successors.push(next);
            }
        }

        let orbits_checked = if stop == StopReason::Exhausted {
            self.table_orbits(model, &nodes, &successors)?
        } else {
            self.check_orbits(model, &nodes, start, &mut stop)?
        };

        Ok(BoundedReport {
            states: visited.len(),
            transitions,
            depth: depth_reached,
            complete: stop == StopReason::Exhausted,
            stop,
            orbits_checked,
        })
    }

    /// Promotion-orbit convergence on an exhausted graph: from *every*
    /// reachable state, repeatedly applying any single input must revisit
    /// a state within `orbit_bound` steps. The walk follows the successor
    /// table the search recorded instead of re-applying inputs (every
    /// transition's invariants were already checked there). Per input, a
    /// walk stops early at any state an earlier walk proved convergent, so
    /// the pass is linear in `(state, input)` pairs.
    fn table_orbits(
        &self,
        model: &dyn PolicyState,
        nodes: &[Node],
        successors: &[usize],
    ) -> Result<usize, Box<BoundedTrail>> {
        if self.orbit_samples == 0 || self.orbit_bound == 0 {
            return Ok(0);
        }
        let n_inputs = successors.len() / nodes.len();
        // `walk[node]` is the id of the last walk that visited `node`;
        // `proven[node]` holds for the current input once converged.
        let mut walk = vec![usize::MAX; nodes.len()];
        let mut proven = vec![false; nodes.len()];
        let mut path = Vec::new();
        for input in 0..n_inputs {
            proven.fill(false);
            for origin in 0..nodes.len() {
                if proven[origin] {
                    continue;
                }
                let id = input * nodes.len() + origin;
                path.clear();
                path.push(origin);
                walk[origin] = id;
                let mut at = origin;
                let converged = (0..self.orbit_bound).any(|_| {
                    at = successors[at * n_inputs + input];
                    if proven[at] || walk[at] == id {
                        return true;
                    }
                    walk[at] = id;
                    path.push(at);
                    false
                });
                if !converged {
                    return Err(self.orbit_failure(model, nodes, origin, input));
                }
                for &p in &path {
                    proven[p] = true;
                }
            }
        }
        Ok(nodes.len() * n_inputs)
    }

    fn orbit_failure(
        &self,
        model: &dyn PolicyState,
        nodes: &[Node],
        origin: usize,
        input: usize,
    ) -> Box<BoundedTrail> {
        Box::new(BoundedTrail {
            invariant: format!(
                "promotion orbit for input `{}` did not revisit a state within {} steps",
                model.input_label(input),
                self.orbit_bound
            ),
            trail: self.labels(model, &self.trail_inputs(nodes, origin), input),
        })
    }

    /// Promotion-orbit convergence on a truncated graph: from a sample of
    /// reachable states, rebuilt by replay, repeatedly applying any single
    /// input must revisit a digest within `orbit_bound` steps (i.e. every
    /// constant-input orbit falls into a cycle — "promote the same block
    /// forever" settles instead of drifting through fresh states).
    fn check_orbits(
        &self,
        model: &mut dyn PolicyState,
        nodes: &[Node],
        start: Instant,
        stop: &mut StopReason,
    ) -> Result<usize, Box<BoundedTrail>> {
        if self.orbit_samples == 0 || self.orbit_bound == 0 {
            return Ok(0);
        }
        let stride = nodes.len().div_ceil(self.orbit_samples).max(1);
        let mut checked = 0usize;
        for node in (0..nodes.len()).step_by(stride) {
            let trail = self.trail_inputs(nodes, node);
            for input in 0..model.num_inputs() {
                if self.over_deadline(start) {
                    *stop = StopReason::Deadline;
                    return Ok(checked);
                }
                self.replay(model, &trail)?;
                let mut seen = vec![model.digest()];
                let mut converged = false;
                for step in 0..self.orbit_bound {
                    if let Err(invariant) = model.apply(input) {
                        let mut labels = self.labels(model, &trail, input);
                        labels
                            .extend(std::iter::repeat_with(|| model.input_label(input)).take(step));
                        return Err(Box::new(BoundedTrail {
                            invariant,
                            trail: labels,
                        }));
                    }
                    let digest = model.digest();
                    if seen.contains(&digest) {
                        converged = true;
                        break;
                    }
                    seen.push(digest);
                }
                if !converged {
                    return Err(self.orbit_failure(model, nodes, node, input));
                }
                checked += 1;
            }
        }
        Ok(checked)
    }

    fn over_deadline(&self, start: Instant) -> bool {
        self.budget.is_some_and(|b| start.elapsed() >= b)
    }

    /// Input sequence from the root to `node`, reconstructed via parent
    /// links.
    fn trail_inputs(&self, nodes: &[Node], mut node: usize) -> Vec<usize> {
        let mut trail = Vec::with_capacity(nodes[node].depth);
        while nodes[node].parent != ROOT {
            trail.push(nodes[node].input);
            node = nodes[node].parent;
        }
        trail.reverse();
        trail
    }

    /// Resets the model and replays `trail`. Replays traverse inputs the
    /// search already accepted, so a failure here means the model is
    /// nondeterministic — reported as its own violation rather than a panic.
    fn replay(
        &self,
        model: &mut dyn PolicyState,
        trail: &[usize],
    ) -> Result<(), Box<BoundedTrail>> {
        model.reset();
        for (step, &input) in trail.iter().enumerate() {
            if let Err(invariant) = model.apply(input) {
                return Err(Box::new(BoundedTrail {
                    invariant: format!(
                        "nondeterministic model: replay failed at step {} ({invariant})",
                        step + 1
                    ),
                    trail: trail[..=step]
                        .iter()
                        .map(|&i| model.input_label(i))
                        .collect(),
                }));
            }
        }
        Ok(())
    }

    fn labels(&self, model: &dyn PolicyState, trail: &[usize], last: usize) -> Vec<String> {
        trail
            .iter()
            .chain(std::iter::once(&last))
            .map(|&i| model.input_label(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Saturating counter: inputs inc/dec, value clamped to 0..=cap.
    struct SatCounter {
        value: u32,
        cap: u32,
        broken_clamp: bool,
    }

    impl SatCounter {
        fn new(cap: u32) -> Self {
            SatCounter {
                value: 0,
                cap,
                broken_clamp: false,
            }
        }
    }

    impl PolicyState for SatCounter {
        fn reset(&mut self) {
            self.value = 0;
        }
        fn num_inputs(&self) -> usize {
            2
        }
        fn input_label(&self, input: usize) -> String {
            ["inc", "dec"][input].to_string()
        }
        fn apply(&mut self, input: usize) -> Result<(), String> {
            match input {
                0 if self.broken_clamp => self.value += 1,
                0 => self.value = (self.value + 1).min(self.cap),
                _ => self.value = self.value.saturating_sub(1),
            }
            if self.value > self.cap {
                return Err(format!("counter {} exceeds cap {}", self.value, self.cap));
            }
            Ok(())
        }
        fn digest(&self) -> Vec<u8> {
            self.value.to_le_bytes().to_vec()
        }
    }

    #[test]
    fn saturating_counter_exhausts() {
        let report = BoundedChecker::new()
            .run(&mut SatCounter::new(5))
            .expect("sound model");
        assert_eq!(report.states, 6, "values 0..=5");
        assert!(report.complete);
        assert_eq!(report.stop, StopReason::Exhausted);
        assert!(report.orbits_checked > 0);
    }

    #[test]
    fn seeded_clamp_bug_yields_minimal_trail() {
        let mut model = SatCounter::new(3);
        model.broken_clamp = true;
        let trail = BoundedChecker::new()
            .run(&mut model)
            .expect_err("clamp bug must be caught");
        // Minimal violation: four increments push 0 -> 4 > 3.
        assert_eq!(trail.trail, vec!["inc"; 4]);
        assert!(trail.invariant.contains("exceeds cap"));
    }

    #[test]
    fn state_budget_truncates_unbounded_model() {
        /// Pure counter with no cap: state space is unbounded.
        struct Unbounded(u64);
        impl PolicyState for Unbounded {
            fn reset(&mut self) {
                self.0 = 0;
            }
            fn num_inputs(&self) -> usize {
                1
            }
            fn input_label(&self, _: usize) -> String {
                "tick".into()
            }
            fn apply(&mut self, _: usize) -> Result<(), String> {
                self.0 += 1;
                Ok(())
            }
            fn digest(&self) -> Vec<u8> {
                self.0.to_le_bytes().to_vec()
            }
        }
        let report = BoundedChecker::new()
            .with_max_states(16)
            .with_max_depth(1000)
            .with_orbits(0, 0)
            .run(&mut Unbounded(0))
            .expect("no invariants to violate");
        assert!(!report.complete);
        assert_eq!(report.stop, StopReason::StateBudget);
        assert_eq!(report.states, 16);
    }

    #[test]
    fn depth_bound_reported() {
        let report = BoundedChecker::new()
            .with_max_depth(2)
            .with_orbits(0, 0)
            .run(&mut SatCounter::new(50))
            .expect("sound model");
        assert!(!report.complete);
        assert_eq!(report.stop, StopReason::DepthBound);
        assert_eq!(report.depth, 2);
    }

    #[test]
    fn divergent_orbit_is_caught() {
        /// `spin` walks an 8-cycle (converges); `drift` never revisits.
        struct Drifter {
            spin: u8,
            drift: u64,
        }
        impl PolicyState for Drifter {
            fn reset(&mut self) {
                self.spin = 0;
                self.drift = 0;
            }
            fn num_inputs(&self) -> usize {
                2
            }
            fn input_label(&self, input: usize) -> String {
                ["spin", "drift"][input].to_string()
            }
            fn apply(&mut self, input: usize) -> Result<(), String> {
                match input {
                    0 => self.spin = (self.spin + 1) % 8,
                    _ => self.drift += 1,
                }
                Ok(())
            }
            fn digest(&self) -> Vec<u8> {
                let mut d = vec![self.spin];
                d.extend_from_slice(&self.drift.to_le_bytes());
                d
            }
        }
        let trail = BoundedChecker::new()
            .with_max_states(32)
            .run(&mut Drifter { spin: 0, drift: 0 })
            .expect_err("drift orbit never cycles");
        assert!(trail.invariant.contains("did not revisit"));
        assert!(trail.invariant.contains("drift"));
    }

    #[test]
    fn deadline_stops_search_without_failure() {
        let report = BoundedChecker::new()
            .with_budget(Duration::ZERO)
            .run(&mut SatCounter::new(200))
            .expect("deadline is not a failure");
        assert!(!report.complete);
        assert_eq!(report.stop, StopReason::Deadline);
    }
}

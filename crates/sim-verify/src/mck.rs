//! Roster-wide bounded model checking and engine-contract auditing.
//!
//! The exhaustive checker in `sim_lint::mck` proves PLRU-tree invariants
//! by enumerating every tree state — possible because a `k`-way tree is
//! `k - 1` bits. The rest of the roster (ARC's adaptive partition, EHC's
//! hit-count tables, AWRP's clocks, dueling PSELs) has state spaces that
//! are astronomically large or outright unbounded, so this module drives
//! each policy through the *bounded* checker instead
//! ([`sim_lint::BoundedChecker`]): breadth-first search over a tiny
//! cache's reachable states with digest-based deduplication, proving on
//! every explored transition that
//!
//! * victim selection is total and in range, and an invalid way is never
//!   evicted ([`PolicyModel`] mirrors the exact `SetAssocCache` fill
//!   protocol, so the victim callback only ever fires on a full set),
//! * every policy-declared metadata invariant holds
//!   ([`sim_core::ReplacementPolicy::audit_invariants`]): EHC/SHiP
//!   counters saturate, ARC's partition target stays in range and its
//!   ghost lists never exceed capacity, AWRP clocks stay stride-aligned,
//!   recency stacks remain permutations, and
//! * constant-input promotion orbits revisit a state (the bounded
//!   checker's orbit pass).
//!
//! Two contract-soundness passes ride on the same machinery:
//!
//! * [`AffinityModel`] — the shard-affinity checker. For every policy
//!   claiming [`ShardAffinity::SetLocal`], it explores interleaved
//!   multi-set streams while replaying each set's subsequence on an
//!   isolated twin instance, requiring hit/evict outcomes and per-set
//!   audit digests to be bit-identical at every reachable state —
//!   exactly the contract slice kernels and the set-sampled fitness tier
//!   rely on when they treat sets as independent.
//! * [`mattson_qualification_audit`] — the single-pass Mattson profiler
//!   trusts [`sim_core::mattson::policy_qualifies`] to admit only
//!   LRU-equivalent policies to its fast path; the audit replays every
//!   qualifying roster policy against an independent list-based LRU
//!   reference over exhaustive short streams and returns the qualifying
//!   set so callers can pin it.
//!
//! Each checker is validated against a seeded defect: [`SneakyGlobal`]
//! (a fixture that claims `SetLocal` while routing a global counter into
//! per-set state) must be caught by the affinity pass, and
//! `ArcPolicy::poison_p_clamp` (a hidden switch that skips the upper
//! clamp on ARC's adaptation target) must be caught by the invariant
//! sweep. Both catches are asserted by unit tests here and re-run by
//! `cargo xtask model-check` as checker self-tests.

use std::sync::Arc;

use baselines::{
    ArcPolicy, AwrpPolicy, DipPolicy, DrripPolicy, EhcPolicy, FifoPolicy, PdpConfig, PdpPolicy,
    RandomPolicy, ShipPolicy, SrripPolicy, TrueLru,
};
use gippr::PlruPolicy;
use sim_core::{Access, CacheGeometry, ReplacementPolicy, ShardAffinity};
use sim_lint::PolicyState;

/// A cloneable policy constructor. Unlike `sim_core::policy::PolicyFactory`
/// (a `Box`), the `Arc` lets one roster entry build the many independent
/// instances the affinity checker's isolated twins need.
pub type SharedFactory = Arc<dyn Fn(&CacheGeometry) -> Box<dyn ReplacementPolicy> + Send + Sync>;

/// One roster entry for the bounded model checker: a display name kept in
/// lockstep with `harness::policies::baseline_roster` (the xtask twin
/// lint enforces the pairing) plus a cloneable policy constructor.
pub struct MckEntry {
    /// Roster display name, identical to the harness roster's.
    pub name: &'static str,
    /// Whether constant-input orbits converge for this policy, i.e.
    /// whether the orbit pass may run. False for policies whose canonical
    /// state contains genuinely unbounded counters — PDP's periodic
    /// access counter and AWRP's idle-way ages grow on every access, so a
    /// constant input keeps minting fresh states and only the budgeted
    /// BFS covers them.
    pub orbit_converges: bool,
    /// Constructor for fresh policy instances.
    pub build: SharedFactory,
}

/// The model-check roster: every policy the harness shoot-outs run,
/// constructed for the tiny geometries the bounded checker sweeps.
/// Dueling policies use one leader set per candidate and narrow PSELs so
/// the reachable global state stays small; PDP runs a miniature sampler
/// configuration for the same reason.
pub fn mck_roster(seed: u64) -> Vec<MckEntry> {
    fn entry(
        name: &'static str,
        build: impl Fn(&CacheGeometry) -> Box<dyn ReplacementPolicy> + Send + Sync + 'static,
    ) -> MckEntry {
        MckEntry {
            name,
            orbit_converges: true,
            build: Arc::new(build),
        }
    }
    fn unbounded(
        name: &'static str,
        build: impl Fn(&CacheGeometry) -> Box<dyn ReplacementPolicy> + Send + Sync + 'static,
    ) -> MckEntry {
        MckEntry {
            orbit_converges: false,
            ..entry(name, build)
        }
    }
    vec![
        entry("LRU", |g| Box::new(TrueLru::new(g))),
        entry("PseudoLRU", |g| Box::new(PlruPolicy::new(g))),
        entry("Random", move |g| {
            Box::new(RandomPolicy::with_seed(g, seed))
        }),
        entry("FIFO", |g| Box::new(FifoPolicy::new(g))),
        entry("DIP", |g| {
            Box::new(DipPolicy::with_config(g, 1, 4).expect("tiny geometry fits DIP"))
        }),
        entry("SRRIP", |g| Box::new(SrripPolicy::new(g))),
        entry("DRRIP", |g| {
            Box::new(DrripPolicy::with_config(g, 1, 4).expect("tiny geometry fits DRRIP"))
        }),
        unbounded("PDP", |g| {
            Box::new(PdpPolicy::with_config(
                g,
                PdpConfig {
                    rpd_bits: 2,
                    max_distance: 8,
                    compute_period: 16,
                    sampler_stride: 1,
                    initial_pd: 4,
                    sampler_depth: 4,
                },
            ))
        }),
        entry("SHiP", |g| Box::new(ShipPolicy::new(g))),
        entry("EHC", |g| Box::new(EhcPolicy::new(g))),
        unbounded("AWRP", |g| Box::new(AwrpPolicy::new(g))),
        entry("ARC", |g| Box::new(ArcPolicy::new(g))),
    ]
}

/// What one modelled access did, for differential comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// The way evicted to make room, if the fill replaced a valid line.
    pub evicted: Option<usize>,
}

/// A [`sim_lint::PolicyState`] adapter wrapping one real
/// [`ReplacementPolicy`] behind a miniature cache model that mirrors the
/// exact `SetAssocCache::access_tagged` callback protocol: hit scan, then
/// `on_hit`; or `on_miss`, bypass check, fill-the-first-invalid-way,
/// otherwise `victim` (checked for totality) plus `on_evict`, then
/// `on_fill`. The input alphabet is a fixed roster of block addresses
/// spread evenly over the sets; the state digest combines the tag array
/// with the policy's own canonical audit digests.
pub struct PolicyModel {
    name: String,
    build: SharedFactory,
    geom: CacheGeometry,
    policy: Box<dyn ReplacementPolicy>,
    tags: Vec<u64>,
    valid: Vec<bool>,
    blocks: Vec<u64>,
}

impl PolicyModel {
    /// Builds the model over `geom` with `blocks_per_set` distinct block
    /// addresses available per set (the input alphabet has
    /// `sets * blocks_per_set` reads). Blocks are found by scanning block
    /// numbers upward and bucketing through the geometry's own set
    /// mapping, so the alphabet is valid for any index function.
    pub fn new(
        name: &str,
        geom: CacheGeometry,
        blocks_per_set: usize,
        build: SharedFactory,
    ) -> Self {
        let sets = geom.sets();
        let mut per_set = vec![0usize; sets];
        let mut blocks = Vec::with_capacity(sets * blocks_per_set);
        let mut candidate = 0u64;
        while blocks.len() < sets * blocks_per_set {
            let set = geom.set_of_block(candidate);
            if per_set[set] < blocks_per_set {
                per_set[set] += 1;
                blocks.push(candidate);
            }
            candidate += 1;
        }
        let policy = build(&geom);
        PolicyModel {
            name: name.to_string(),
            build,
            geom,
            policy,
            tags: vec![0; sets * geom.ways()],
            valid: vec![false; sets * geom.ways()],
            blocks,
        }
    }

    /// The policy name this model wraps.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The block address input `input` accesses.
    pub fn input_block(&self, input: usize) -> u64 {
        self.blocks[input]
    }

    /// The set the given input's block maps to.
    pub fn set_of_input(&self, input: usize) -> usize {
        self.geom.set_of_block(self.blocks[input])
    }

    /// The wrapped policy's per-set audit digest (for cross-model
    /// comparisons such as the affinity checker).
    pub fn set_digest(&self, set: usize) -> Option<Vec<u8>> {
        self.policy.audit_set_digest(set)
    }

    /// Applies one access with full outcome reporting;
    /// [`PolicyState::apply`] discards the outcome, differential audits
    /// compare it.
    pub fn step(&mut self, input: usize) -> Result<StepOutcome, String> {
        let block = self.blocks[input];
        let set = self.geom.set_of_block(block);
        let tag = self.geom.tag_of_block(block);
        let ways = self.geom.ways();
        let base = set * ways;
        // A distinct PC per block keeps PC-indexed predictors (SHiP)
        // exercising more than one table entry.
        let ctx = Access::read(block * self.geom.line_bytes(), 0x40 + input as u64).context();

        let hit = (0..ways).find(|&w| self.valid[base + w] && self.tags[base + w] == tag);
        let outcome = if let Some(way) = hit {
            self.policy.on_hit(set, way, &ctx);
            StepOutcome {
                hit: true,
                evicted: None,
            }
        } else {
            self.policy.on_miss(set, &ctx);
            if self.policy.should_bypass(set, &ctx) {
                StepOutcome {
                    hit: false,
                    evicted: None,
                }
            } else {
                let (fill, evicted) = match (0..ways).find(|&w| !self.valid[base + w]) {
                    Some(w) => (w, None),
                    None => {
                        let w = self.policy.victim(set, &ctx);
                        if w >= ways {
                            return Err(format!(
                                "victim totality violated: {} returned way {w} of {ways} \
                                 in set {set}",
                                self.name
                            ));
                        }
                        if !self.valid[base + w] {
                            return Err(format!(
                                "{} evicted invalid way {w} in set {set}",
                                self.name
                            ));
                        }
                        self.policy.on_evict(set, w);
                        (w, Some(w))
                    }
                };
                self.tags[base + fill] = tag;
                self.valid[base + fill] = true;
                self.policy.on_fill(set, fill, &ctx);
                StepOutcome {
                    hit: false,
                    evicted,
                }
            }
        };
        self.policy
            .audit_invariants()
            .map_err(|e| format!("{}: invariant violated: {e}", self.name))?;
        Ok(outcome)
    }
}

impl PolicyState for PolicyModel {
    fn reset(&mut self) {
        self.policy = (self.build)(&self.geom);
        self.tags.fill(0);
        self.valid.fill(false);
    }

    fn num_inputs(&self) -> usize {
        self.blocks.len()
    }

    fn input_label(&self, input: usize) -> String {
        format!(
            "read block {:#x} (set {})",
            self.blocks[input],
            self.set_of_input(input)
        )
    }

    fn apply(&mut self, input: usize) -> Result<(), String> {
        self.step(input).map(|_| ())
    }

    fn digest(&self) -> Vec<u8> {
        let mut d = Vec::new();
        for set in 0..self.geom.sets() {
            let base = set * self.geom.ways();
            for w in 0..self.geom.ways() {
                d.push(u8::from(self.valid[base + w]));
                d.extend_from_slice(&self.tags[base + w].to_le_bytes());
            }
            if let Some(sd) = self.policy.audit_set_digest(set) {
                d.push(0xfe);
                d.extend_from_slice(&sd);
            }
            d.push(0xfd);
        }
        d.extend_from_slice(&self.policy.audit_global_digest());
        d
    }
}

/// The shard-affinity checker's composite state: one interleaved cache
/// over all sets plus one isolated twin per set that receives only that
/// set's subsequence. After every access, the touched set's hit/evict
/// outcome and audit digest must be bit-identical between the
/// interleaved run and its twin — the exact property that makes per-set
/// replay sound for [`ShardAffinity::SetLocal`] policies. Exploring this
/// composite with the bounded checker proves the property over *every*
/// reachable interleaving, not just one sampled stream.
pub struct AffinityModel {
    interleaved: PolicyModel,
    isolated: Vec<PolicyModel>,
}

impl AffinityModel {
    /// Builds the composite model.
    ///
    /// # Errors
    ///
    /// Fails if the policy does not claim [`ShardAffinity::SetLocal`]
    /// (nothing to prove — global policies are legitimately
    /// interleaving-sensitive) or exposes no per-set audit digest
    /// (nothing to compare).
    pub fn new(
        name: &str,
        geom: CacheGeometry,
        blocks_per_set: usize,
        build: SharedFactory,
    ) -> Result<Self, String> {
        let interleaved = PolicyModel::new(name, geom, blocks_per_set, build.clone());
        if interleaved.policy.shard_affinity() != ShardAffinity::SetLocal {
            return Err(format!("{name} does not claim SetLocal shard affinity"));
        }
        if interleaved.policy.audit_set_digest(0).is_none() {
            return Err(format!("{name} exposes no per-set audit digest"));
        }
        let isolated = (0..geom.sets())
            .map(|_| PolicyModel::new(name, geom, blocks_per_set, build.clone()))
            .collect();
        Ok(AffinityModel {
            interleaved,
            isolated,
        })
    }
}

impl PolicyState for AffinityModel {
    fn reset(&mut self) {
        self.interleaved.reset();
        for iso in &mut self.isolated {
            iso.reset();
        }
    }

    fn num_inputs(&self) -> usize {
        self.interleaved.num_inputs()
    }

    fn input_label(&self, input: usize) -> String {
        self.interleaved.input_label(input)
    }

    fn apply(&mut self, input: usize) -> Result<(), String> {
        let a = self.interleaved.step(input)?;
        let set = self.interleaved.set_of_input(input);
        let b = self.isolated[set].step(input)?;
        if a != b {
            return Err(format!(
                "shard-affinity violation in set {set}: interleaved outcome {a:?} != \
                 isolated {b:?}"
            ));
        }
        let ia = self.interleaved.set_digest(set);
        let ib = self.isolated[set].set_digest(set);
        if ia != ib {
            return Err(format!(
                "shard-affinity violation in set {set}: interleaved per-set digest \
                 {ia:02x?} != isolated {ib:02x?} — cross-set state leaked into a \
                 SetLocal policy"
            ));
        }
        Ok(())
    }

    fn digest(&self) -> Vec<u8> {
        // The twins' state is a function of the interleaved inputs, so the
        // interleaved digest alone would quotient correctly for a sound
        // policy; including the twins keeps the quotient sound even for a
        // *buggy* policy whose twin state drifts (the exact case the
        // checker exists to catch).
        let mut d = self.interleaved.digest();
        for iso in &self.isolated {
            d.push(0xfc);
            d.extend_from_slice(&iso.digest());
        }
        d
    }
}

/// A seeded-defect fixture: claims [`ShardAffinity::SetLocal`] while a
/// *global* access counter leaks into every set's victim choice and
/// per-set marks. The affinity checker must reject it; its existence
/// proves the checker catches the cross-set-state defect class.
#[doc(hidden)]
pub struct SneakyGlobal {
    ways: usize,
    cursor: u64,
    marks: Vec<u64>,
}

impl SneakyGlobal {
    /// Builds the fixture for `geom`.
    pub fn new(geom: &CacheGeometry) -> Self {
        SneakyGlobal {
            ways: geom.ways(),
            cursor: 0,
            marks: vec![0; geom.sets()],
        }
    }
}

impl ReplacementPolicy for SneakyGlobal {
    fn name(&self) -> &str {
        "SneakyGlobal"
    }

    fn victim(&mut self, _set: usize, _ctx: &sim_core::AccessContext) -> usize {
        (self.cursor as usize) % self.ways
    }

    fn on_hit(&mut self, set: usize, _way: usize, _ctx: &sim_core::AccessContext) {
        self.cursor += 1;
        self.marks[set] = self.cursor;
    }

    fn on_fill(&mut self, set: usize, _way: usize, _ctx: &sim_core::AccessContext) {
        self.cursor += 1;
        self.marks[set] = self.cursor;
    }

    fn bits_per_set(&self) -> u64 {
        64
    }

    // The lie under test: `cursor` is global mutable state that both the
    // victim choice and the per-set marks observe.
    fn shard_affinity(&self) -> ShardAffinity {
        ShardAffinity::SetLocal
    }

    fn audit_set_digest(&self, set: usize) -> Option<Vec<u8>> {
        Some(self.marks[set].to_le_bytes().to_vec())
    }
}

/// Independent list-based LRU reference for the Mattson qualification
/// audit: per-set way order from LRU to MRU, fills preferring the lowest
/// invalid way (matching [`PolicyModel`]'s fill protocol).
struct RefLru {
    geom: CacheGeometry,
    slots: Vec<Option<u64>>,
    order: Vec<Vec<usize>>,
}

impl RefLru {
    fn new(geom: CacheGeometry) -> Self {
        RefLru {
            geom,
            slots: vec![None; geom.sets() * geom.ways()],
            order: vec![Vec::new(); geom.sets()],
        }
    }

    fn step(&mut self, block: u64) -> StepOutcome {
        let set = self.geom.set_of_block(block);
        let tag = self.geom.tag_of_block(block);
        let ways = self.geom.ways();
        let base = set * ways;
        if let Some(way) = (0..ways).find(|&w| self.slots[base + w] == Some(tag)) {
            self.order[set].retain(|&w| w != way);
            self.order[set].push(way);
            return StepOutcome {
                hit: true,
                evicted: None,
            };
        }
        let (fill, evicted) = match (0..ways).find(|&w| self.slots[base + w].is_none()) {
            Some(w) => (w, None),
            None => {
                let w = self.order[set].remove(0);
                (w, Some(w))
            }
        };
        self.slots[base + fill] = Some(tag);
        self.order[set].retain(|&w| w != fill);
        self.order[set].push(fill);
        StepOutcome {
            hit: false,
            evicted,
        }
    }
}

/// Audits the Mattson fast-path gate: replays every roster policy that
/// [`sim_core::mattson::policy_qualifies`] admits against an independent
/// list-based LRU reference over *all* input streams of length `depth`
/// drawn from a `sets * blocks_per_set` block alphabet, and returns the
/// qualifying names so callers can pin the set.
///
/// # Errors
///
/// Returns the first divergence if a qualifying policy is not
/// hit/evict-equivalent to true LRU — the defect class that would
/// silently corrupt every fast-path stack-distance profile.
pub fn mattson_qualification_audit(
    geom: CacheGeometry,
    blocks_per_set: usize,
    depth: usize,
) -> Result<Vec<&'static str>, String> {
    let mut qualifying = Vec::new();
    for entry in mck_roster(0xA11D) {
        let probe = (entry.build)(&geom);
        if !sim_core::mattson::policy_qualifies(&*probe) {
            continue;
        }
        qualifying.push(entry.name);
        let mut model = PolicyModel::new(entry.name, geom, blocks_per_set, entry.build.clone());
        let n = model.num_inputs();
        let mut stream = vec![0usize; depth];
        'streams: loop {
            model.reset();
            let mut reference = RefLru::new(geom);
            for (pos, &input) in stream.iter().enumerate() {
                let got = model.step(input)?;
                let want = reference.step(model.input_block(input));
                if got != want {
                    return Err(format!(
                        "{} qualifies for the Mattson fast path but diverges from LRU at \
                         step {} of {:?}: policy {:?}, reference {:?}",
                        entry.name,
                        pos + 1,
                        stream,
                        got,
                        want
                    ));
                }
            }
            // Advance the base-`n` odometer; carrying past the last digit
            // means every stream has been replayed.
            let mut carried = true;
            for digit in stream.iter_mut() {
                *digit += 1;
                if *digit < n {
                    carried = false;
                    break;
                }
                *digit = 0;
            }
            if carried {
                break 'streams;
            }
        }
    }
    Ok(qualifying)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_lint::BoundedChecker;

    fn geom(sets: usize, ways: usize) -> CacheGeometry {
        CacheGeometry::from_sets(sets, ways, 64).unwrap()
    }

    #[test]
    fn roster_policies_pass_bounded_check_at_tiny_geometry() {
        for entry in mck_roster(11) {
            let orbits = if entry.orbit_converges {
                (48, 6)
            } else {
                (0, 0)
            };
            let mut model = PolicyModel::new(entry.name, geom(4, 2), 2, entry.build);
            let report = BoundedChecker::new()
                .with_max_states(300)
                .with_max_depth(10)
                .with_orbits(orbits.0, orbits.1)
                .run(&mut model)
                .unwrap_or_else(|trail| panic!("{}: {trail}", model.name()));
            assert!(report.transitions > 0, "{} explored nothing", model.name());
        }
    }

    #[test]
    fn poisoned_arc_p_update_is_caught_by_bounded_check() {
        // 1 set x 2 ways with a 4-block alphabet reaches the defect at
        // depth 7: two step-1 B1 ghost hits push p to its cap, and a third
        // (which only the unclamped update lets through) pushes it past
        // ways * P_SCALE.
        let build: SharedFactory = Arc::new(|g| {
            let mut p = ArcPolicy::new(g);
            p.poison_p_clamp();
            Box::new(p)
        });
        let mut model = PolicyModel::new("ARC[poisoned-p]", geom(1, 2), 4, build);
        let trail = BoundedChecker::new()
            .with_max_states(8192)
            .with_max_depth(10)
            .with_orbits(0, 0)
            .run(&mut model)
            .expect_err("the poisoned p update must be caught");
        assert!(
            trail.invariant.contains("exceeds"),
            "unexpected invariant: {}",
            trail.invariant
        );
        assert!(
            trail.invariant.contains('p'),
            "violation should name the adaptation target: {}",
            trail.invariant
        );
    }

    #[test]
    fn setlocal_roster_passes_affinity_check() {
        let mut checked = 0;
        for entry in mck_roster(5) {
            let orbits = if entry.orbit_converges {
                (32, 4)
            } else {
                (0, 0)
            };
            let mut model = match AffinityModel::new(entry.name, geom(2, 2), 2, entry.build) {
                Ok(m) => m,
                Err(_) => continue, // global policy: out of the contract's scope
            };
            BoundedChecker::new()
                .with_max_states(200)
                .with_max_depth(8)
                .with_orbits(orbits.0, orbits.1)
                .run(&mut model)
                .unwrap_or_else(|trail| panic!("{}: {trail}", entry.name));
            checked += 1;
        }
        assert!(
            checked >= 5,
            "expected at least LRU/PseudoLRU/FIFO/SRRIP/AWRP to claim SetLocal, got {checked}"
        );
    }

    #[test]
    fn sneaky_global_is_caught_by_affinity_check() {
        let build: SharedFactory = Arc::new(|g| Box::new(SneakyGlobal::new(g)));
        let mut model = AffinityModel::new("SneakyGlobal", geom(2, 2), 2, build).unwrap();
        let trail = BoundedChecker::new()
            .with_max_states(200)
            .with_max_depth(8)
            .run(&mut model)
            .expect_err("the fake SetLocal claim must be caught");
        assert!(
            trail.invariant.contains("shard-affinity violation"),
            "unexpected invariant: {}",
            trail.invariant
        );
    }

    #[test]
    fn affinity_model_rejects_global_policies() {
        let build: SharedFactory = Arc::new(|g| Box::new(ArcPolicy::new(g)));
        let err = match AffinityModel::new("ARC", geom(2, 2), 2, build) {
            Err(e) => e,
            Ok(_) => panic!("global ARC must be rejected by the affinity model"),
        };
        assert!(err.contains("SetLocal"));
    }

    #[test]
    fn mattson_audit_pins_exactly_lru() {
        let qualifying = mattson_qualification_audit(geom(2, 2), 2, 5).unwrap();
        assert_eq!(
            qualifying,
            vec!["LRU"],
            "the Mattson fast-path qualification set changed — update the profiler \
             docs and this pin together"
        );
    }

    #[test]
    fn policy_model_digests_replay_deterministically() {
        for entry in mck_roster(3) {
            let mut model = PolicyModel::new(entry.name, geom(4, 2), 2, entry.build);
            let stream = [0usize, 3, 5, 1, 0, 7, 2, 4, 6, 0];
            for &i in &stream {
                model.apply(i).unwrap();
            }
            let first = model.digest();
            model.reset();
            for &i in &stream {
                model.apply(i).unwrap();
            }
            assert_eq!(
                first,
                model.digest(),
                "{} is nondeterministic",
                model.name()
            );
        }
    }
}

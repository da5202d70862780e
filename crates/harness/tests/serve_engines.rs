//! Serving-session engines over the figure harness's roster: each policy
//! runs on the engine the dispatch rule picks (the bit-sliced kernel when
//! its slice kernel accepts the geometry, `SetAssocCache` otherwise), and
//! a session fed in frames of any size, snapshotted and restored midway,
//! ends with exactly the stats of the plain single-threaded reference.

use harness::{policies, Scale};
use sim_core::{Access, AccessKind};
use sim_serve::session::{canonical_stats, reference_delta, Roster, Session};
use sim_serve::GeometrySpec;

fn roster() -> Roster {
    policies::baseline_roster(0xC0FFEE)
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

fn medium_llc() -> GeometrySpec {
    let g = Scale::Medium.hierarchy().llc;
    GeometrySpec {
        size_bytes: g.size_bytes(),
        ways: g.ways() as u32,
        line_bytes: g.line_bytes() as u32,
    }
}

/// A seeded stream over twice the LLC's blocks with a hot quarter, so
/// every policy fills, hits, evicts and writes back.
fn stream(n: usize, blocks: u64) -> Vec<Access> {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let block = if i % 3 == 0 {
                state % (blocks / 4)
            } else {
                state % (2 * blocks)
            };
            Access {
                addr: block * 64,
                pc: 0x400 + (state >> 40) % 97 * 4,
                kind: match state % 7 {
                    0 => AccessKind::Write,
                    1 => AccessKind::Writeback,
                    _ => AccessKind::Read,
                },
                icount_delta: (state % 9) as u32 + 1,
            }
        })
        .collect()
}

#[test]
fn sliced_session_engines_match_the_reference_across_frames_and_restore() {
    let registry = roster();
    let spec = medium_llc();
    let blocks = spec.size_bytes / u64::from(spec.line_bytes);
    let accesses = stream(60_000, blocks);
    let reference = reference_delta(&accesses, &[], &registry, spec).unwrap();

    let mut session = Session::new("engines", spec, false, 4096, &[], &registry).unwrap();
    assert_eq!(session.sliced_policies(), ["LRU", "PseudoLRU", "SRRIP"]);
    let (mut at, mut frame) = (0, 0);
    while at < accesses.len() {
        let len = [1, 7, 1024][frame % 3];
        let end = (at + len).min(accesses.len());
        session.ingest(&accesses[at..end]);
        (at, frame) = (end, frame + 1);
        if frame == 90 {
            // Kill and restore midway: the journal replays through fresh
            // engines chosen by the same rule.
            session = Session::restore(&session.snapshot_bytes(), &registry).unwrap();
            assert_eq!(session.ingested(), at as u64);
            assert_eq!(session.sliced_policies(), ["LRU", "PseudoLRU", "SRRIP"]);
        }
    }
    assert_eq!(
        canonical_stats(&session.cut_delta()),
        canonical_stats(&reference),
        "sliced and cache engines must end bit-identical to the reference"
    );
}

//! Engine dispatch over the figure harness's roster: every policy that
//! carries a slice kernel must be served by the bit-sliced engine at the
//! geometries the harness actually runs, never by a silent mono fallback.
//! A dispatcher that routed kernel-bearing policies anywhere else would
//! stay bit-identical and so invisible to every differential test; this
//! one counts engines instead of comparing results.

use harness::{policies, Scale};
use mem_model::{replay_dispatch, Engine, WindowPerfModel};
use sim_core::Access;

#[test]
fn kernel_bearing_roster_is_served_by_the_sliced_engine() {
    let perf = WindowPerfModel::default();
    let mut roster = policies::baseline_roster(0xC0FFEE);
    roster.push((
        "WI-GIPPR",
        policies::gippr(gippr::vectors::wi_gippr(), "WI-GIPPR"),
    ));
    for scale in [Scale::Quick, Scale::Medium] {
        let geom = scale.hierarchy().llc;
        // A few accesses per set: enough to fill, hit and evict.
        let stream: Vec<Access> = (0..geom.sets() as u64 * 24)
            .map(|i| Access::read((i * 7 % (geom.sets() as u64 * 20)) * 64, i % 64))
            .collect();
        let mut sliced = Vec::new();
        for (name, factory) in &roster {
            let has_kernel = factory(&geom).slice_kernel().is_some();
            let engine = replay_dispatch(&stream, geom, factory(&geom), 0, &perf).engine;
            let want = if has_kernel {
                Engine::Sliced
            } else {
                Engine::Mono
            };
            assert_eq!(engine, want, "{name} at {scale} scale");
            if engine == Engine::Sliced {
                sliced.push(*name);
            }
        }
        assert_eq!(
            sliced,
            ["LRU", "PseudoLRU", "SRRIP", "WI-GIPPR"],
            "kernel-bearing policies at {scale} scale"
        );
    }
}

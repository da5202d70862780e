//! Figure 13: speedup over LRU — DRRIP, PDP, and 4-vector DGIPPR — plus
//! the memory-intensive subset summary.
//!
//! Paper geomeans over all of SPEC: DRRIP 5.41 %, PDP 5.69 %,
//! WN1-4-DGIPPR 5.61 %. Over the memory-intensive subset (benchmarks where
//! DRRIP's speedup exceeds 1 %): DRRIP 15.6 %, PDP 16.4 %, WN1-4-DGIPPR
//! 15.6 % — "the same performance as DRRIP with half the storage overhead,
//! and 95 % of the performance of PDP with a small fraction of the
//! complexity".

use crate::experiments::{assign_vectors, VectorMode};
use crate::policies;
use crate::report::{fmt_pct, fmt_ratio, Table};
use crate::runner::{measure_policies, prepare_workloads};
use crate::scale::Scale;
use crate::stats::geometric_mean;
use sim_core::PolicyFactory;
use traces::spec2006::Spec2006;

/// The full Figure 13 output: the per-benchmark table plus subset
/// geomeans.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// Per-benchmark speedups, sorted ascending by DRRIP (paper x-axis).
    pub table: Table,
    /// `(label, drrip, pdp, dgippr)` geomean rows: all benchmarks and the
    /// memory-intensive subset (computed by the paper's rule).
    pub geomeans: Vec<(String, f64, f64, f64)>,
    /// The memory-intensive subset as computed by "DRRIP speedup > 1 %".
    pub memory_intensive: Vec<Spec2006>,
}

/// Runs Figure 13.
pub fn run(scale: Scale, mode: VectorMode) -> Fig13 {
    let benches = Spec2006::all();
    let workloads = prepare_workloads(scale, &benches);
    let geom = scale.hierarchy().llc;
    let vectors = assign_vectors(scale, &benches, mode);
    let label = format!("{}-4-DGIPPR", mode.label());

    let mut rows: Vec<(Spec2006, [f64; 3])> = workloads
        .iter()
        .map(|w| {
            // The full per-workload roster is one (simpoint × policy) pool
            // batch.
            let roster = [
                policies::drrip(),
                policies::pdp(),
                policies::dgippr(vectors.quad[&w.bench].clone(), &label),
            ];
            let refs: Vec<&PolicyFactory> = roster.iter().collect();
            let measured = measure_policies(w, &refs, geom);
            (
                w.bench,
                [
                    measured[0].speedup_over(&w.lru),
                    measured[1].speedup_over(&w.lru),
                    measured[2].speedup_over(&w.lru),
                ],
            )
        })
        .collect();
    rows.sort_by(|a, b| {
        a.1[0]
            .partial_cmp(&b.1[0])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut table = Table::new(
        &format!(
            "Figure 13: speedup over LRU ({} vectors, {scale} scale)",
            mode.label()
        ),
        &["benchmark", "DRRIP", "PDP", &label],
    );
    for (bench, values) in &rows {
        table.row(vec![
            bench.name().to_string(),
            fmt_ratio(values[0]),
            fmt_ratio(values[1]),
            fmt_ratio(values[2]),
        ]);
    }

    // The paper's subset rule: DRRIP speedup over LRU exceeds 1 %.
    let memory_intensive: Vec<Spec2006> = rows
        .iter()
        .filter(|(_, v)| v[0] > 1.01)
        .map(|(b, _)| *b)
        .collect();

    type Row = (Spec2006, [f64; 3]);
    let geomean_of = |pick: &dyn Fn(&Row) -> bool| -> (f64, f64, f64) {
        let mut cols: [Vec<f64>; 3] = Default::default();
        for row in rows.iter().filter(|r| pick(r)) {
            for (c, v) in cols.iter_mut().zip(&row.1) {
                c.push(*v);
            }
        }
        // NaN renders as "n/a" if a filter selects no benchmarks (the old
        // silent 1.0 looked like a real "no change" geomean).
        (
            geometric_mean(&cols[0]).unwrap_or(f64::NAN),
            geometric_mean(&cols[1]).unwrap_or(f64::NAN),
            geometric_mean(&cols[2]).unwrap_or(f64::NAN),
        )
    };
    let all = geomean_of(&|_| true);
    let mem = geomean_of(&|(b, _)| memory_intensive.contains(b));
    let geomeans = vec![
        ("all benchmarks".to_string(), all.0, all.1, all.2),
        (
            "memory-intensive (DRRIP > 1%)".to_string(),
            mem.0,
            mem.1,
            mem.2,
        ),
    ];

    for (name, d, p, g) in &geomeans {
        table.row(vec![
            format!("GEOMEAN {name}"),
            format!("{} ({})", fmt_ratio(*d), fmt_pct(*d)),
            format!("{} ({})", fmt_ratio(*p), fmt_pct(*p)),
            format!("{} ({})", fmt_ratio(*g), fmt_pct(*g)),
        ]);
    }
    Fig13 {
        table,
        geomeans,
        memory_intensive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_subset_and_geomeans() {
        let fig = run(Scale::Quick, VectorMode::Published);
        assert_eq!(fig.table.len(), 31, "29 benchmarks + 2 geomean rows");
        assert_eq!(fig.geomeans.len(), 2);
        // The canonical thrash benchmarks must land in the subset.
        assert!(fig.memory_intensive.contains(&Spec2006::Libquantum));
        assert!(fig.memory_intensive.contains(&Spec2006::CactusADM));
        // Cache-resident benchmarks must not.
        assert!(!fig.memory_intensive.contains(&Spec2006::Gamess));
        // Memory-intensive geomeans exceed the all-benchmark geomeans.
        let (_, all_d, _, all_g) = fig.geomeans[0].clone();
        let (_, mem_d, _, mem_g) = fig.geomeans[1].clone();
        assert!(mem_d >= all_d);
        assert!(mem_g >= all_g);
    }
}

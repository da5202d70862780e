//! The repository's benchmark: end-to-end and per-layer numbers for the
//! figure path (`sweep-mi`), the island GA (`ga-ladder`) and the serving
//! daemon (`serve-mix`).
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sweep-mi --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer ones. See `e2ebench/README.md`.

mod ga;
mod host;
mod report;
mod serve;
mod sweep;
mod trace;

use report::{Checks, Metrics};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Per-layer metrics every traced run prints (0 where the workload does
/// not use the layer), besides `replay.<policy>.s` for each sweep policy.
const PER_LAYER: &[(&str, &str)] = &[
    ("traces.gen_s", "s"),
    ("hierarchy.capture_s", "s"),
    ("hierarchy.llc_accesses", "count"),
    ("batch.replay_s", "s"),
    ("batch.policy_accesses", "count"),
    ("engine.sliced_policies", "count"),
    ("engine.mono_policies", "count"),
    ("engine.setlocal_policies", "count"),
    ("optimal.min_s", "s"),
    ("optimal.min_macc_per_s", "Macc/s"),
    ("mattson.capture_s", "s"),
    ("pool.cores_busy", "cores"),
    ("fitness.ctx_build_s", "s"),
    ("ladder.profile_evals", "count"),
    ("ladder.sampled_evals", "count"),
    ("ladder.full_evals", "count"),
    ("ladder.pruned", "count"),
    ("ladder.full_saved", "count"),
    ("ladder.full_share", "ratio"),
    ("ladder.profile_s", "s"),
    ("ladder.sampled_s", "s"),
    ("ladder.full_s", "s"),
    ("island.run_s", "s"),
    ("island.gen_ms_p50", "ms"),
    ("island.checkpoint_bytes", "bytes"),
    ("serve.bind_s", "s"),
    ("protocol.encode_s", "s"),
    ("protocol.decode_s", "s"),
    ("protocol.frames", "count"),
    ("kv.lower_s", "s"),
    ("session.ingest_s", "s"),
    ("session.ingest_macc_per_s", "Macc/s"),
    ("session.cut_delta_s", "s"),
    ("session.snapshot_s", "s"),
    ("session.snapshot_bytes_total", "bytes"),
    ("session.snapshot_bytes_max", "bytes"),
    ("session.restore_s", "s"),
    ("server.deltas", "count"),
    ("server.throttled", "count"),
    ("server.coalesced", "count"),
    ("server.error_frames", "count"),
    ("loadgen.gen_s", "s"),
    ("loadgen.session_s", "s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("delta_p50_ms", "ms"),
    ("delta_p99_ms", "ms"),
    ("final_lag_ms", "ms"),
    ("delta.samples", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_frac", "ratio"),
];

/// The metric a span's self time is reported under.
fn layer_metric(span: &str) -> String {
    if span.starts_with("replay.") {
        format!("{span}.s")
    } else {
        format!("{span}_s")
    }
}

/// One benchmark run's parameters and shared state.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub scratch: host::Scratch,
    /// Units measured with tracing on; span times under a unit's root
    /// span are reported per unit.
    traced_units: std::cell::Cell<usize>,
}

/// What a workload hands back for the per-layer reduction.
pub struct Outcome {
    /// Name of the root span of one unit of measured work; self times
    /// under it are reported per unit.
    pub unit_root: &'static str,
    /// Rates derived once spans are reduced: `(metric, work, time
    /// metric)` sets `metric` to `work` ÷ the value of `time metric`.
    pub rates: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }

    /// Units of work the traced half measured (the last ones measured).
    pub fn traced_units(&self) -> usize {
        self.traced_units.get()
    }

    /// Set-ups per run: several for a steady median, one when traced.
    pub fn setup_repeats(&self) -> usize {
        if self.traced() {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// Runs `unit` back to back for `seconds`, at least once, and returns
    /// every unit; `unit` gets the tracer to record under.
    ///
    /// Traced, the phase is split: an untraced half, then a traced half;
    /// `wall` of each unit gives `trace.overhead_frac`, the traced median
    /// unit wall over the untraced one, minus one. The untraced units come
    /// first in the result.
    pub fn measure<U>(
        &self,
        layers: &mut Metrics,
        mut unit: impl FnMut(&Tracer) -> U,
        wall: impl Fn(&U) -> f64,
    ) -> Vec<U> {
        let phase = |tracer: &Tracer, seconds: f64, unit: &mut dyn FnMut(&Tracer) -> U| {
            let (t0, c0) = (Instant::now(), host::cpu_seconds());
            let mut units = Vec::new();
            let mut walls = Vec::new();
            // Stop once another unit of median length would overrun.
            loop {
                let u = unit(tracer);
                walls.push(wall(&u));
                units.push(u);
                if t0.elapsed().as_secs_f64() + report::median(&walls) > seconds {
                    break;
                }
            }
            let busy = (host::cpu_seconds() - c0) / t0.elapsed().as_secs_f64();
            let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
            eprintln!(
                "e2ebench: {} units, wall s [{}], {busy:.2} cores busy",
                units.len(),
                shown.join(", ")
            );
            (units, busy)
        };
        if !self.traced() {
            return phase(&self.tracer, self.seconds, &mut unit).0;
        }
        let half = self.seconds / 2.0;
        let (mut units, _) = phase(&Tracer::off(), half, &mut unit);
        let (traced, cores_busy) = phase(&self.tracer, half, &mut unit);
        let walls = |u: &[U]| u.iter().map(&wall).collect::<Vec<_>>();
        layers.set(
            "trace.overhead_frac",
            report::median(&walls(&traced)) / report::median(&walls(&units)) - 1.0,
            "ratio",
        );
        layers.set("pool.cores_busy", cores_busy, "cores");
        self.traced_units.set(traced.len());
        units.extend(traced);
        units
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checkout root: the current directory, which must hold the
/// repository the benchmark measures.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    if !root.join("crates").is_dir() {
        return Err(format!("{} holds no crates/ directory", root.display()));
    }
    Ok(root)
}

/// Reduces the traced run's spans into self time per layer.
fn reduce_spans(run: &Run, outcome: &Outcome, layers: &mut Metrics) {
    let units = run.traced_units().max(1) as f64;
    let red = trace::reduce(&run.tracer.spans(), outcome.unit_root, units);
    for (name, v) in red.self_s {
        layers.set(layer_metric(&name), v, "s");
    }
    for &(name, work, per) in &outcome.rates {
        let t = layers.get(per).unwrap_or(0.0);
        layers.set(name, if t > 0.0 { work / t } else { 0.0 }, "Macc/s");
    }
    layers.set("trace.wall_s", red.root_wall_s, "s");
    let unattributed = if red.root_wall_s > 0.0 {
        red.root_self_s / red.root_wall_s
    } else {
        0.0
    };
    layers.set("trace.unattributed_frac", unattributed, "ratio");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload sweep-mi|ga-ladder|serve-mix --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let root = match checkout_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if !["sweep-mi", "ga-ladder", "serve-mix"].contains(&args.workload.as_str()) {
        eprintln!("e2ebench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let scratch = match host::Scratch::new(&root, &args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("e2ebench: cannot prepare scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let run_id = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
        ^ u64::from(std::process::id());
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer: Tracer::new(args.trace, run_id),
        scratch,
        traced_units: std::cell::Cell::new(0),
    };

    println!(
        "{}",
        host::provenance(&root, &args.workload, args.seed, args.seconds, args.trace)
    );
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut checks = Checks::default();
        let outcome = match args.workload.as_str() {
            "sweep-mi" => sweep::run(&run, &mut checks, &mut e2e, &mut layers),
            "ga-ladder" => ga::run(&run, &mut checks, &mut e2e, &mut layers),
            _ => serve::run(&run, &mut checks, &mut e2e, &mut layers),
        };
        (checks, outcome)
    }));
    let (mut checks, outcome) = match ran {
        Ok((checks, outcome)) => (checks, Some(outcome)),
        Err(_) => {
            let mut checks = Checks::default();
            checks.fail("the run panicked", 1);
            (checks, None)
        }
    };
    e2e.set("peak_rss_mb", host::peak_rss_mb(), "MiB");

    let metrics = if run.traced() {
        if let Some(outcome) = &outcome {
            reduce_spans(&run, outcome, &mut layers);
        }
        let mut out = Metrics::default();
        let policies = sweep::roster_names();
        let names = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(policies.iter().map(|p| (format!("replay.{p}.s"), "s")));
        for (name, unit) in names {
            out.set(name.clone(), layers.get(&name).unwrap_or(0.0), unit);
        }
        let path = root
            .join(".benchrun")
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("e2ebench: spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: cannot write spans to {}: {e}", path.display()),
        }
        out
    } else {
        e2e
    };
    drop(run);
    let line = report::result_line(&mut checks, &metrics);
    println!("{line}");
    if checks.failed > 0 {
        std::process::exit(1);
    }
}

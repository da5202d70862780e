//! `serve-mix`: an in-process `sim_serve::Server` on loopback TCP with
//! snapshots on, driven open loop by two tenants: one streams `Accesses`
//! frames of a medium SPEC-model LLC stream, the other `KvBatch` frames of
//! a Zipf key stream. Each tenant has one connection and one load
//! generator thread that both sends on schedule and reads replies.

use crate::host::{cpu_seconds, thread_cpu_seconds};
use crate::report::{median, quantile, Checks, Metrics};
use crate::sweep::{capture_stream, engine_mix};
use crate::trace::Tracer;
use crate::{Outcome, Run};
use harness::{policies, Scale};
use sim_core::{Access, PolicyFactory};
use sim_serve::protocol::{read_frame, write_frame};
use sim_serve::session::{canonical_stats, reference_delta, write_snapshot, Roster};
use sim_serve::{
    kv, ClientFrame, Delta, GeometrySpec, Hello, KvOp, ProtoError, Server, ServerConfig,
    ServerFrame, ServerHandle, Session, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use traces::spec2006::Spec2006;

const SCALE: Scale = Scale::Medium;
/// The SPEC model the address tenant streams.
const SPEC_MODEL: Spec2006 = Spec2006::Mcf;
/// Offered rates, fixed at about a fifth of the daemon's closed-loop
/// capacity on a 2-core host.
const SPEC_RATE: f64 = 100_000.0;
const KV_RATE: f64 = 60_000.0;
/// Records per frame, and accesses per delta (a multiple of the frame):
/// every frame completes a delta.
const FRAME: usize = 1024;
const DELTA_EVERY: u64 = 1024;
/// Accesses between snapshots of one session.
const SNAPSHOT_EVERY: u64 = 200_000;
/// Length of one serving session; a run measures sessions back to back,
/// each against a fresh server.
const SESSION_S: f64 = 10.0;
/// Zipf key space and skew of the KV tenant.
const KV_KEYS: usize = 1 << 16;
const ZIPF_S: f64 = 0.99;
const ROSTER_SEED: u64 = 0xC0FFEE;

/// The serving roster: the 12 baselines.
fn registry() -> Roster {
    policies::baseline_roster(ROSTER_SEED)
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect()
}

fn geometry() -> GeometrySpec {
    let g = SCALE.hierarchy().llc;
    GeometrySpec {
        size_bytes: g.size_bytes(),
        ways: g.ways() as u32,
        line_bytes: g.line_bytes() as u32,
    }
}

fn no_backoff(_attempt: u64) -> Duration {
    Duration::from_millis(5)
}

/// Seeded Zipf(`ZIPF_S`) keys over `KV_KEYS` keys, one write in ten.
fn zipf_ops(seed: u64, n: usize) -> Vec<KvOp> {
    let mut cdf = Vec::with_capacity(KV_KEYS);
    let mut total = 0.0;
    for k in 1..=KV_KEYS {
        total += 1.0 / (k as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let key = cdf.partition_point(|&c| c < u);
            KvOp {
                write: next() % 10 == 0,
                key: format!("user:{key}"),
            }
        })
        .collect()
}

/// One tenant's inputs.
struct Tenant {
    name: &'static str,
    kv: bool,
    rate: f64,
    /// Client frames in send order.
    frames: Vec<ClientFrame>,
    /// Their wire bytes.
    wire: Vec<Vec<u8>>,
    /// The accesses the frames lower to, for the reference replay.
    accesses: Vec<Access>,
}

impl Tenant {
    fn new(name: &'static str, kv: bool, rate: f64, frames: Vec<ClientFrame>) -> Tenant {
        let line = u64::from(geometry().line_bytes);
        let mut accesses = Vec::new();
        let wire = frames
            .iter()
            .map(|f| {
                match f {
                    ClientFrame::Accesses(b) => accesses.extend_from_slice(b),
                    ClientFrame::KvBatch(ops) => {
                        accesses.extend(ops.iter().map(|op| kv::op_to_access(op, line)))
                    }
                    _ => {}
                }
                let (kind, payload) = f.encode();
                let mut out = Vec::new();
                write_frame(&mut out, kind, &payload).expect("vec sink cannot fail");
                out
            })
            .collect();
        Tenant {
            name,
            kv,
            rate,
            frames,
            wire,
            accesses,
        }
    }
}

/// Generates both tenants' inputs for `seconds` of traffic.
fn tenants(seed: u64, seconds: f64, tracer: &Tracer, parent: u64) -> [Tenant; 2] {
    let frames = |rate: f64| ((rate * seconds) as usize / FRAME).max(1);
    let n_spec = frames(SPEC_RATE) * FRAME;
    // The memory-intensive models pass nearly every reference to the LLC;
    // generate more until the capture is long enough.
    let mut l1 = n_spec + n_spec / 4;
    let mut stream = Vec::new();
    while stream.len() < n_spec {
        stream = capture_stream(SPEC_MODEL, 0, seed, l1, tracer, parent);
        l1 *= 2;
    }
    stream.truncate(n_spec);
    let ops = tracer.time("loadgen.gen", parent, || {
        zipf_ops(seed, frames(KV_RATE) * FRAME)
    });
    tracer.time("loadgen.gen", parent, || {
        [
            Tenant::new(
                "spec",
                false,
                SPEC_RATE,
                stream
                    .chunks(FRAME)
                    .map(|c| ClientFrame::Accesses(c.to_vec()))
                    .collect(),
            ),
            Tenant::new(
                "kv",
                true,
                KV_RATE,
                ops.chunks(FRAME)
                    .map(|c| ClientFrame::KvBatch(c.to_vec()))
                    .collect(),
            ),
        ]
    })
}

fn bind(dir: &Path, tracer: &Tracer, parent: u64) -> std::io::Result<ServerHandle> {
    tracer.time("serve.bind", parent, || {
        Server::bind_tcp(
            "127.0.0.1:0",
            registry(),
            ServerConfig {
                label: "e2ebench".to_string(),
                snapshot_dir: Some(dir.to_path_buf()),
                snapshot_every: SNAPSHOT_EVERY,
                default_delta_every: DELTA_EVERY,
                ..ServerConfig::default()
            },
        )
    })
}

/// The open-loop schedule of one tenant and the delta latencies it
/// implies. Frame `k` is due at `t0 + k × period`; a delta boundary's
/// latency runs from the due time of the frame that completed it to the
/// arrival of the delta that covers it (itself or a coalesced successor),
/// whenever the frame was actually sent.
pub struct DeltaClock {
    t0: Instant,
    period_s: f64,
    frame_len: u64,
    delta_every: u64,
    total: u64,
    next: u64,
}

impl DeltaClock {
    pub fn new(t0: Instant, rate: f64, frame_len: u64, delta_every: u64, total: u64) -> Self {
        DeltaClock {
            t0,
            period_s: frame_len as f64 / rate,
            frame_len,
            delta_every,
            total,
            next: delta_every,
        }
    }

    /// When frame `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.t0 + Duration::from_secs_f64(self.period_s * k as f64)
    }

    /// Latency in ms of every boundary up to `covered_to` not yet covered.
    pub fn on_delta(&mut self, covered_to: u64, at: Instant) -> Vec<f64> {
        let mut out = Vec::new();
        while self.next <= covered_to.min(self.total) {
            let frame = ((self.next - 1) / self.frame_len) as usize;
            out.push(at.saturating_duration_since(self.due(frame)).as_secs_f64() * 1e3);
            self.next += self.delta_every;
        }
        out
    }

    /// Boundaries no delta has covered yet.
    pub fn missing(&self) -> u64 {
        if self.next > self.total {
            0
        } else {
            (self.total - self.next) / self.delta_every + 1
        }
    }
}

/// What one tenant's session observed.
#[derive(Default)]
struct TenantRun {
    lag_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    frames_sent: u64,
    deltas: u64,
    off_boundary: u64,
    throttled: u64,
    coalesced: u64,
    errors: u64,
    missing: u64,
    final_delta: Option<Delta>,
    final_lag_ms: f64,
    acked: Option<Instant>,
    done_at: Option<Instant>,
    /// CPU seconds the load generator thread spent in the session.
    cpu_s: f64,
}

/// How long the load generator sleeps between checks for replies; it
/// bounds the error of a reply's arrival time.
const POLL: Duration = Duration::from_micros(100);

/// Server frames parsed out of a non-blocking socket's byte stream.
#[derive(Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Reads whatever has arrived, without waiting, and returns every
    /// complete frame.
    fn poll(&mut self, sock: &mut TcpStream) -> Result<Vec<ServerFrame>, String> {
        let mut tmp = [0u8; 64 * 1024];
        loop {
            match sock.read(&mut tmp) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        let mut frames = Vec::new();
        while self.buf.len() >= 5 {
            let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME_LEN {
                return Err(ProtoError::TooLarge { len }.to_string());
            }
            if self.buf.len() < len + 9 {
                break;
            }
            let (kind, payload) =
                read_frame(&mut &self.buf[..len + 9]).map_err(|e| e.to_string())?;
            self.buf.drain(..len + 9);
            frames.push(ServerFrame::decode(kind, &payload).map_err(|e| e.to_string())?);
        }
        Ok(frames)
    }
}

impl TenantRun {
    fn on_frame(&mut self, frame: ServerFrame, clock: &mut DeltaClock, name: &str) {
        let at = Instant::now();
        match frame {
            ServerFrame::Delta(d) => {
                self.deltas += 1;
                if d.covered_to % DELTA_EVERY != 0 {
                    self.off_boundary += 1;
                }
                self.delta_ms.extend(clock.on_delta(d.covered_to, at));
            }
            ServerFrame::Throttled { coalesced } => {
                self.throttled += 1;
                self.coalesced += coalesced;
            }
            ServerFrame::Error { code, message } => {
                self.errors += 1;
                eprintln!("e2ebench: tenant {name}: error frame {code:?}: {message}");
            }
            ServerFrame::Warning { code, message } => {
                eprintln!("e2ebench: tenant {name}: warning {code}: {message}");
            }
            ServerFrame::Final { delta, .. } => {
                self.final_delta = Some(delta);
                self.done_at = Some(at);
            }
            ServerFrame::HelloAck { .. } => self.acked = Some(at),
            ServerFrame::Bye => {}
        }
    }
}

/// One tenant's connection: a non-blocking socket whose replies keep
/// being read and timestamped while a frame waits for its due time or
/// for room in the socket.
struct Conn<'a> {
    sock: TcpStream,
    rx: FrameReader,
    run: TenantRun,
    clock: DeltaClock,
    name: &'a str,
}

impl Conn<'_> {
    /// Handles replies until `until`, or for one poll interval.
    fn pump(&mut self, until: Option<Instant>) -> Result<(), String> {
        loop {
            for f in self.rx.poll(&mut self.sock)? {
                self.run.on_frame(f, &mut self.clock, self.name);
            }
            let now = Instant::now();
            match until {
                Some(t) if now >= t => return Ok(()),
                Some(t) => std::thread::sleep((t - now).min(POLL)),
                None => {
                    std::thread::sleep(POLL);
                    return Ok(());
                }
            }
        }
    }

    /// Writes one whole frame, handling replies while the socket is full.
    fn send(&mut self, frame: &ClientFrame) -> Result<(), String> {
        let (kind, payload) = frame.encode();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, kind, &payload).expect("vec sink cannot fail");
        self.send_bytes(&bytes)
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut off = 0;
        while off < bytes.len() {
            match self.sock.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => self.pump(None)?,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    }
}

/// Connects `tenant` and opens its session.
fn connect(addr: SocketAddr, tenant: &Tenant) -> Result<Conn<'_>, String> {
    let fail = |e: std::io::Error| e.to_string();
    let sock = TcpStream::connect(addr).map_err(fail)?;
    sock.set_nodelay(true).map_err(fail)?;
    sock.set_nonblocking(true).map_err(fail)?;
    let mut conn = Conn {
        sock,
        rx: FrameReader::default(),
        run: TenantRun::default(),
        clock: DeltaClock::new(Instant::now(), tenant.rate, FRAME as u64, DELTA_EVERY, 0),
        name: tenant.name,
    };
    conn.send(&ClientFrame::Hello(Hello {
        version: PROTOCOL_VERSION,
        tenant: tenant.name.to_string(),
        resume: false,
        kv_mode: tenant.kv,
        geometry: geometry(),
        roster: Vec::new(),
        delta_every: DELTA_EVERY,
    }))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    while conn.run.acked.is_none() {
        if Instant::now() > deadline {
            return Err("no HelloAck within 10 s".into());
        }
        conn.pump(None)?;
    }
    Ok(conn)
}

/// Streams every frame of `tenant` open loop and waits for `Final`. Both
/// tenants start their schedules together at `start`.
fn drive(
    addr: SocketAddr,
    tenant: &Tenant,
    start: &Barrier,
    tracer: &Tracer,
    parent: u64,
) -> Result<(TenantRun, Instant), String> {
    let conn = connect(addr, tenant);
    // Reached even when connecting failed, so the other tenant never
    // waits forever.
    start.wait();
    let mut conn = conn?;

    let _span = tracer.span("loadgen.session", parent);
    let (t0, c0) = (Instant::now(), thread_cpu_seconds());
    let total = tenant.accesses.len() as u64;
    conn.clock = DeltaClock::new(t0, tenant.rate, FRAME as u64, DELTA_EVERY, total);
    for (k, bytes) in tenant.wire.iter().enumerate() {
        let due = conn.clock.due(k);
        conn.pump(Some(due))?;
        let lag = Instant::now().saturating_duration_since(due);
        conn.run.lag_ms.push(lag.as_secs_f64() * 1e3);
        conn.send_bytes(bytes)?;
        conn.run.frames_sent += 1;
    }
    conn.send(&ClientFrame::Finish)?;
    let last_due = conn.clock.due(tenant.wire.len() - 1);
    let deadline = Instant::now() + Duration::from_secs(120);
    while conn.run.final_delta.is_none() {
        if Instant::now() > deadline {
            return Err("no Final within 120 s".into());
        }
        conn.pump(None)?;
    }
    // Best effort: a clean goodbye keeps the daemon's log quiet.
    let _ = conn.send(&ClientFrame::Bye);
    let mut run = conn.run;
    run.cpu_s = thread_cpu_seconds() - c0;
    let done = run.done_at.expect("set with the final delta");
    run.final_lag_ms = done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    run.missing = conn.clock.missing();
    Ok((run, t0))
}

/// One open-loop session: both tenants against one server.
struct SessionRun {
    /// From the first frame due to the last `Final`.
    wall_s: f64,
    /// Process CPU seconds of the session minus the load generator's: the
    /// server's share.
    server_cpu_s: f64,
    runs: Vec<Result<TenantRun, String>>,
}

fn open_loop(server: ServerHandle, tenants: &[Tenant; 2], tracer: &Tracer) -> SessionRun {
    let g = tracer.span("serve.open_loop", 0);
    let addr = server.local_addr().expect("TCP listener has an address");
    let start = Barrier::new(2);
    let c0 = cpu_seconds();
    let results: Vec<Result<(TenantRun, Instant), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|t| {
                let start = &start;
                let id = g.id();
                s.spawn(move || drive(addr, t, start, tracer, id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load generator panicked".into()))
            })
            .collect()
    });
    let client_cpu: f64 = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|(r, _)| r.cpu_s)
        .sum();
    let server_cpu_s = cpu_seconds() - c0 - client_cpu;
    g.end();
    server.shutdown();
    let t0 = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|(_, t)| *t)
        .min();
    let done = results
        .iter()
        .filter_map(|r| r.as_ref().ok().and_then(|(run, _)| run.done_at))
        .max();
    let wall_s = match (t0, done) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    SessionRun {
        wall_s,
        server_cpu_s,
        runs: results.into_iter().map(|r| r.map(|(run, _)| run)).collect(),
    }
}

/// Whether a served `Final` matches the single-threaded reference replay
/// of the same accesses.
pub fn final_matches(fin: &Delta, reference: &Delta) -> bool {
    canonical_stats(fin) == canonical_stats(reference)
}

/// The single-threaded reference replay of `accesses` under the roster.
fn reference(accesses: &[Access], registry: &Roster) -> Delta {
    reference_delta(accesses, &[], registry, geometry())
        .expect("the serving roster builds at the serving geometry")
}

pub fn run(run: &Run, checks: &mut Checks, e2e: &mut Metrics, layers: &mut Metrics) -> Outcome {
    let tracer = &run.tracer;
    let registry = registry();
    let roster = registry.len();

    // Set-up: inputs plus a listening server, several times for a steady
    // median; only the last server is kept.
    let mut setup_s = Vec::new();
    let mut kept: Option<(ServerHandle, [Tenant; 2])> = None;
    for k in 0..run.setup_repeats() {
        if let Some((server, inputs)) = kept.take() {
            server.shutdown();
            drop(inputs);
        }
        let t = Instant::now();
        let g = tracer.span("setup", 0);
        let inputs = tenants(run.seed, SESSION_S, tracer, g.id());
        let server = run
            .scratch
            .sub(&format!("serve-setup-{k}"))
            .and_then(|dir| bind(&dir, tracer, g.id()));
        g.end();
        setup_s.push(t.elapsed().as_secs_f64());
        match server {
            Ok(s) => kept = Some((s, inputs)),
            Err(e) => {
                checks.fail(&format!("server bind: {e}"), 1);
                return Outcome {
                    unit_root: "serve.open_loop",
                    rates: Vec::new(),
                };
            }
        }
    }
    let (server, tenants) = kept.expect("at least one set-up");
    let mut server = Some(server);
    let mut k = 0;
    let sessions = run.measure(
        layers,
        |tracer| {
            k += 1;
            // Every session after the first gets a fresh server in a
            // fresh directory: sessions start cold.
            let handle = match server.take() {
                Some(s) => Ok(s),
                None => run
                    .scratch
                    .sub(&format!("serve-{k}"))
                    .and_then(|dir| bind(&dir, tracer, 0)),
            };
            match handle {
                Ok(h) => open_loop(h, &tenants, tracer),
                Err(e) => SessionRun {
                    wall_s: 0.0,
                    server_cpu_s: 0.0,
                    runs: vec![Err(format!("server bind: {e}"))],
                },
            }
        },
        |s| s.wall_s,
    );

    // Correctness: every tenant's Final equals the reference replay of
    // what it sent; no error frames; every delta boundary delivered.
    let references = [0, 1].map(|i| reference(&tenants[i].accesses, &registry));
    let mut lag = Vec::new();
    let mut delta_ms = Vec::new();
    let mut sim = Vec::new();
    let mut rows = Vec::new();
    let mut cpu = Vec::new();
    let mut final_lag = Vec::new();
    for s in &sessions {
        let mut delivered = 0u64;
        let mut accesses = 0usize;
        let mut worst_final: f64 = 0.0;
        for (i, r) in s.runs.iter().enumerate() {
            let t = &tenants[i];
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    checks.fail(&format!("tenant {}: {e}", t.name), 1);
                    continue;
                }
            };
            let n = t.accesses.len();
            checks.check(
                &format!("tenant {} Final equals the reference replay", t.name),
                r.final_delta
                    .as_ref()
                    .is_some_and(|f| final_matches(f, &references[i])),
            );
            checks.ok(r.frames_sent + r.deltas);
            checks.fail(&format!("tenant {} error frames", t.name), r.errors);
            checks.fail(&format!("tenant {} missing deltas", t.name), r.missing);
            checks.fail(
                &format!("tenant {} deltas off the cadence", t.name),
                r.off_boundary,
            );
            lag.extend_from_slice(&r.lag_ms);
            delta_ms.extend_from_slice(&r.delta_ms);
            delivered += r.deltas + 1;
            accesses += n;
            worst_final = worst_final.max(r.final_lag_ms);
        }
        if s.wall_s > 0.0 {
            sim.push((accesses * roster) as f64 / s.wall_s / 1e6);
            rows.push((delivered as usize * roster) as f64 / s.wall_s);
            cpu.push(s.server_cpu_s / (accesses * roster) as f64 * 1e9);
            final_lag.push(worst_final);
        }
    }
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("sim_macc_per_s", median(&sim), "Macc/s");
    e2e.set("genomes_per_s", median(&rows), "1/s");
    e2e.set("cpu_ns_per_access", median(&cpu), "ns");
    // Open-loop latencies vary run to run with the host's scheduling far
    // more than any bound allows, so they are reported per layer, from
    // every session of the traced run.
    layers.set("delta_p50_ms", median(&delta_ms), "ms");
    layers.set("delta_p99_ms", quantile(&delta_ms, 0.99), "ms");
    layers.set("final_lag_ms", median(&final_lag), "ms");
    layers.set("delta.samples", delta_ms.len() as f64, "count");
    layers.set("loadgen.lag_p99_ms", quantile(&lag, 0.99), "ms");
    eprintln!(
        "e2ebench: serve-mix delta latency p50 {:.3} p99 {:.3} ms over {} samples; final lag {:.3} ms; send lag p99 {:.3} ms",
        median(&delta_ms),
        quantile(&delta_ms, 0.99),
        delta_ms.len(),
        median(&final_lag),
        quantile(&lag, 0.99)
    );

    let mut rates = Vec::new();
    if run.traced() {
        // Client-observed server counts of the traced session.
        let last = sessions.last().expect("at least one session");
        let ok: Vec<&TenantRun> = last.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
        let sum = |f: fn(&TenantRun) -> u64| ok.iter().map(|r| f(r)).sum::<u64>() as f64;
        layers.set("server.deltas", sum(|r| r.deltas), "count");
        layers.set("server.throttled", sum(|r| r.throttled), "count");
        layers.set("server.coalesced", sum(|r| r.coalesced), "count");
        layers.set("server.error_frames", sum(|r| r.errors), "count");
        let factories: Vec<&PolicyFactory> = registry.iter().map(|(_, f)| f).collect();
        let geom = SCALE.hierarchy().llc;
        let (sliced, mono, setlocal) = engine_mix(&factories, &geom);
        layers.set("engine.sliced_policies", sliced, "count");
        layers.set("engine.mono_policies", mono, "count");
        layers.set("engine.setlocal_policies", setlocal, "count");
        layers.set(
            "hierarchy.llc_accesses",
            tenants[0].accesses.len() as f64,
            "count",
        );

        let ingested = stage_replay(run, &tenants, &references, &registry, checks, layers);
        rates.push((
            "session.ingest_macc_per_s",
            (ingested * roster) as f64 / 1e6,
            "session.ingest_s",
        ));
    }
    Outcome {
        unit_root: "serve.open_loop",
        rates,
    }
}

/// Replays each tenant's frames through the serving stages in order,
/// timing each from outside: client frame encode and decode, KV lowering,
/// `Session::ingest`, `cut_delta` at the delta cadence with the delta
/// frame's encode, `write_snapshot` at the snapshot cadence, and one
/// `Session::restore` of the final snapshot. Returns accesses ingested.
fn stage_replay(
    run: &Run,
    tenants: &[Tenant; 2],
    references: &[Delta; 2],
    registry: &Roster,
    checks: &mut Checks,
    layers: &mut Metrics,
) -> usize {
    let tracer = &run.tracer;
    let g = tracer.span("serve.stage_replay", 0);
    let id = g.id();
    let dir = match run.scratch.sub("stage-replay") {
        Ok(d) => d,
        Err(e) => {
            checks.fail(&format!("stage replay directory: {e}"), 1);
            return 0;
        }
    };
    let line = u64::from(geometry().line_bytes);
    let (mut protocol_frames, mut ingested) = (0u64, 0usize);
    let (mut snap_total, mut snap_max) = (0u64, 0u64);
    for (t, reference) in tenants.iter().zip(references) {
        // Deltas are cut here, at the cadence, not inside `ingest`.
        let mut session = Session::new(t.name, geometry(), t.kv, u64::MAX, &[], registry)
            .expect("the serving roster builds at the serving geometry");
        let path = dir.join(format!("{}.ssn", t.name));
        let snapshot = |session: &Session| {
            let _s = tracer.span("session.snapshot", id);
            let bytes = session.snapshot_bytes();
            let len = bytes.len() as u64;
            let ok = write_snapshot(&path, &bytes, no_backoff, 3).is_ok();
            (bytes, len, ok)
        };
        let mut last_snap = 0;
        for frame in &t.frames {
            let (kind, payload) = tracer.time("protocol.encode", id, || frame.encode());
            let decoded = tracer.time("protocol.decode", id, || {
                ClientFrame::decode(kind, &payload)
            });
            protocol_frames += 1;
            let batch = match decoded {
                Ok(ClientFrame::Accesses(b)) => b,
                Ok(ClientFrame::KvBatch(ops)) => tracer.time("kv.lower", id, || {
                    ops.iter().map(|op| kv::op_to_access(op, line)).collect()
                }),
                _ => {
                    checks.check("client frame round-trips", false);
                    continue;
                }
            };
            tracer.time("session.ingest", id, || session.ingest(&batch));
            if session.ingested() % DELTA_EVERY == 0 {
                let d = tracer.time("session.cut_delta", id, || session.cut_delta());
                tracer.time("protocol.encode", id, || ServerFrame::Delta(d).encode());
                protocol_frames += 1;
            }
            if session.ingested() - last_snap >= SNAPSHOT_EVERY {
                let (_, len, ok) = snapshot(&session);
                checks.check("stage snapshot write", ok);
                snap_total += len;
                snap_max = snap_max.max(len);
                last_snap = session.ingested();
            }
        }
        let fin = tracer.time("session.cut_delta", id, || session.cut_delta());
        let (bytes, len, ok) = snapshot(&session);
        checks.check("final stage snapshot write", ok);
        snap_total += len;
        snap_max = snap_max.max(len);
        ingested += session.ingested() as usize;
        checks.check(
            &format!(
                "tenant {} staged replay equals the reference replay",
                t.name
            ),
            final_matches(&fin, reference),
        );
        let restored = tracer.time("session.restore", id, || Session::restore(&bytes, registry));
        checks.check(
            &format!("tenant {} restores to its final stats", t.name),
            restored.is_ok_and(|r| final_matches(&r.current_delta(), &fin)),
        );
    }
    layers.set("protocol.frames", protocol_frames as f64, "count");
    layers.set("session.snapshot_bytes_total", snap_total as f64, "bytes");
    layers.set("session.snapshot_bytes_max", snap_max as f64, "bytes");
    ingested
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_latency_runs_from_the_due_time_not_the_send_time() {
        let t0 = Instant::now();
        // 4 records per frame at 1000 records/s: frames due every 4 ms;
        // a delta every 8 records, i.e. every second frame.
        let mut clock = DeltaClock::new(t0, 1000.0, 4, 8, 32);
        assert_eq!(clock.due(3), t0 + Duration::from_millis(12));
        // Frame 1 completes the first boundary. However late it was sent,
        // the delta that covers it is timed from 4 ms after t0.
        let arrived = t0 + Duration::from_millis(30);
        let lat = clock.on_delta(8, arrived);
        assert_eq!(lat.len(), 1);
        assert!((lat[0] - 26.0).abs() < 1e-6, "{lat:?}");
        // A coalesced delta covers two boundaries, each timed from its
        // own frame's due time.
        let lat = clock.on_delta(24, arrived);
        assert_eq!(lat.len(), 2);
        assert!(
            (lat[0] - 18.0).abs() < 1e-6 && (lat[1] - 10.0).abs() < 1e-6,
            "{lat:?}"
        );
        // One boundary (32) never arrived: it counts as missing.
        assert_eq!(clock.missing(), 1);
        clock.on_delta(32, arrived);
        assert_eq!(clock.missing(), 0);
    }

    #[test]
    fn a_perturbed_final_fails_the_reference_check() {
        let registry = registry();
        let ops = zipf_ops(7, 2_000);
        let line = u64::from(geometry().line_bytes);
        let accesses: Vec<Access> = ops.iter().map(|op| kv::op_to_access(op, line)).collect();
        let reference = reference_delta(&accesses, &[], &registry, geometry()).unwrap();
        let mut session = Session::new("t", geometry(), true, u64::MAX, &[], &registry).unwrap();
        session.ingest_kv(&ops);
        let fin = session.cut_delta();
        assert!(final_matches(&fin, &reference));
        let mut perturbed = fin.clone();
        perturbed.rows[3].stats.hits += 1;
        assert!(!final_matches(&perturbed, &reference));
    }

    #[test]
    fn zipf_keys_are_seeded_and_skewed() {
        let a = zipf_ops(1, 10_000);
        assert_eq!(a, zipf_ops(1, 10_000));
        assert_ne!(a, zipf_ops(2, 10_000));
        let hot = a.iter().filter(|op| op.key == "user:0").count();
        assert!(hot > 500, "rank-1 key drew {hot} of 10000");
    }
}

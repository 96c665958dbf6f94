//! The serve-single and serve-burst phases against a `cdcl-serve` child
//! holding the snapshot trained in this run, plus the in-process
//! decomposition of one request used by the traced run.

use crate::daemons::{self, Daemon};
use crate::inputs::{request_line, Inputs, Mode, Query, BURST};
use crate::openloop::{self, Arrival, Outcome};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace;
use cdcl_core::CdclTrainer;
use cdcl_tensor::Tensor;
use serde::Value;
use std::io::Cursor;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// serve-single: the reference rate at which `serve_p50_ms` is measured,
/// for `SINGLE_SHARE` of `--seconds`, with one request in flight. At this
/// light load each request meets an idle server, so the figure is the
/// fixed cost of one request. With requests pipelined open loop, a
/// response can wait for the client's next request (see README.md); that
/// regime is measured at `OPEN_RATE` and reported per layer.
pub const SINGLE_RATE: f64 = 200.0;
pub const SINGLE_SHARE: f64 = 0.4;
/// serve-burst: bursts per second on a connection per burst, for
/// `BURST_SHARE` of `--seconds` (`burst_p50_ms`).
pub const BURST_RATE: f64 = 15.0;
pub const BURST_SHARE: f64 = 0.45;
/// The gated serve phases alternate in this many slices.
pub const SLICES: usize = 10;
/// Unmeasured requests that bring the long-lived serve-single connection
/// to its steady state (after its first exchanges the kernel moves it
/// from immediate to delayed acknowledgements), and unmeasured bursts
/// before the first slice and at the start of the long-lived burst run.
pub const WARMUP_REQUESTS: usize = 50;
pub const WARMUP_BURSTS: usize = 5;
/// Percentile reported for bursts: the highest with ten samples beyond it
/// at the committed `--seconds`.
pub const BURST_TAIL: f64 = 90.0;
/// Per-layer regimes of the traced run. Open-loop rate of the pipelined
/// measurement, and its size: enough for a p99 with ten samples beyond it.
pub const OPEN_RATE: f64 = 250.0;
pub const OPEN_REQUESTS: usize = 1000;
/// `serve.max_rps` is the throughput under an open-loop offer above what
/// either workload's server sustains on one kernel thread (850–1250/s
/// measured on 2 vCPUs). A ladder of fixed rates with a p99 limit was
/// tried first: rates near capacity passed on some runs and failed on
/// others, and the reported rate jumped by a whole rung.
pub const SATURATION_RATE: f64 = 3000.0;
pub const SATURATION_REQUESTS: usize = 1000;
/// Saturation runs, each on a fresh connection; the median is reported.
pub const SATURATION_RUNS: usize = 3;
/// Bursts open loop on one long-lived connection, for `REUSED_SHARE` of
/// `--seconds` at `BURST_RATE` (`burst.reused_p50_ms`).
pub const REUSED_SHARE: f64 = 0.1;

/// How many arrivals a phase offers at `rate` for `share` of `seconds`.
pub fn arrivals_for(seconds: u64, share: f64, rate: f64) -> usize {
    (seconds as f64 * share * rate).round() as usize
}

/// The argmax each pool image must get, per mode. TIL is known only on
/// tasks the learner has (the loop's early snapshots have fewer tasks
/// than the pool).
pub struct Expect {
    cil: Vec<usize>,
    til: Vec<Option<usize>>,
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Decodes a rendered image exactly as the server does.
pub fn decode_image(json: &str, dims: (usize, usize, usize)) -> Tensor {
    let v: Vec<f32> = serde_json::from_str(json).expect("pool images are valid JSON arrays");
    Tensor::from_vec(v, &[1, dims.0, dims.1, dims.2])
}

impl Expect {
    /// In-process batch-1 predictions of `trainer` on every pool image.
    pub fn new(trainer: &CdclTrainer, pool: &[crate::inputs::PoolImage]) -> Self {
        let model = trainer.model();
        let dims = trainer.input_dims();
        let (mut cil, mut til) = (Vec::new(), Vec::new());
        for img in pool {
            let x = decode_image(&img.json, dims);
            cil.push(argmax(model.predict_cil(&x).data()));
            til.push(
                (img.task < model.num_tasks())
                    .then(|| argmax(model.predict_til(&x, img.task).data())),
            );
        }
        Self { cil, til }
    }

    pub fn pred(&self, q: Query) -> Option<usize> {
        match q.mode {
            Mode::Cil => Some(self.cil[q.image]),
            Mode::Til(_) => self.til[q.image],
        }
    }
}

pub fn field_u64(v: &Value, name: &str) -> Option<u64> {
    match v.field(name) {
        Some(Value::Num(n)) => Some(*n as u64),
        _ => None,
    }
}

pub fn field_f64(v: &Value, name: &str) -> Option<f64> {
    match v.field(name) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

pub fn field_ok(v: &Value) -> bool {
    matches!(v.field("ok"), Some(Value::Bool(true)))
}

/// Checks one predict response: answered ok, in order (`id`), by the
/// expected version, with the in-process argmax. Returns the reason it
/// is wrong, if it is.
pub fn check_response(
    line: &str,
    id: u64,
    version: u64,
    expected: Option<usize>,
) -> Result<(), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("unparsable response {e}"))?;
    if !field_ok(&v) {
        return Err(format!("request {id} refused: {line}"));
    }
    if field_u64(&v, "id") != Some(id) {
        return Err(format!("out of order: expected id {id}, got {line:.80}"));
    }
    if field_u64(&v, "version") != Some(version) {
        return Err(format!(
            "request {id} answered by version {:?}, expected {version}",
            field_u64(&v, "version")
        ));
    }
    if field_u64(&v, "pred") != expected.map(|e| e as u64) {
        return Err(format!(
            "request {id}: pred {:?} != in-process argmax {expected:?}",
            field_u64(&v, "pred")
        ));
    }
    Ok(())
}

/// Verifies every response of a run against its queries; returns how
/// many were wrong and records the first few reasons.
fn verify(
    out: &Outcome,
    queries: &[(u64, Query)],
    expect: &Expect,
    report: &mut Report,
    what: &str,
) -> u64 {
    let mut bad = 0;
    if out.lines.len() != queries.len() {
        report.fail(format!(
            "{what}: {} responses for {} requests",
            out.lines.len(),
            queries.len()
        ));
        return queries.len().abs_diff(out.lines.len()) as u64;
    }
    for ((_, line), (id, q)) in out.lines.iter().zip(queries) {
        if let Err(e) = check_response(line, *id, 1, expect.pred(*q)) {
            if bad < 3 {
                report.fail(format!("{what}: {e}"));
            }
            bad += 1;
        }
    }
    bad
}

/// Starts the server on the snapshot at `path` and waits until its model
/// answers `MODELS`.
pub fn start_server(path: &Path, work: &Path) -> Result<Daemon, String> {
    let path = path.display().to_string();
    let args = [
        "--snapshot",
        &path,
        "--threads",
        "2",
        "--conns",
        "0",
        "--bench-out",
        "none",
    ];
    Daemon::start("serve", &args, work, "MODELS")
}

/// How long a run waits for an owed answer before it fails.
const SILENCE: Duration = Duration::from_secs(30);

/// Offers `arrivals` at `rate` per second on `conn`, open loop or one in
/// flight.
fn drive(
    server: &Daemon,
    conn: &TcpStream,
    arrivals: &[Arrival],
    rate: f64,
    open: bool,
) -> Result<Outcome, String> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let out = if open {
        let conn = conn.try_clone().map_err(|e| e.to_string())?;
        let never = AtomicBool::new(false);
        openloop::run(conn, arrivals, interval, SILENCE, &never, &mut |_, _| {})
    } else {
        openloop::paced(conn, arrivals, (Instant::now(), interval), SILENCE)
    };
    out.map_err(|e| format!("{e}; server log: {}", server.log_tail()))
}

/// Single requests `k0..k0 + n`, each flushed on its own: one write of
/// the request line plus the blank line that flushes it.
fn single_arrivals(inputs: &Inputs, k0: usize, n: usize) -> (Vec<Arrival>, Vec<(u64, Query)>) {
    let mut arrivals = Vec::with_capacity(n);
    let mut queries = Vec::with_capacity(n);
    for k in k0..k0 + n {
        let (id, q) = (k as u64 + 1, inputs.single_query(k));
        let mut line = request_line(id, q, &inputs.pool);
        line.push_str("\n\n");
        arrivals.push(Arrival {
            bytes: line.into_bytes(),
            responses: 1,
        });
        queries.push((id, q));
    }
    (arrivals, queries)
}

/// One fixed-rate run of single requests `k0..k0 + n` on `conn`, open
/// loop or one in flight.
fn single_run(
    server: &Daemon,
    conn: &TcpStream,
    inputs: &Inputs,
    expect: &Expect,
    (rate, k0, n, open): (f64, usize, usize, bool),
    report: &mut Report,
) -> Result<Outcome, String> {
    let (arrivals, queries) = single_arrivals(inputs, k0, n);
    let out = drive(server, conn, &arrivals, rate, open)
        .map_err(|e| format!("serve-single at {rate}/s: {e}"))?;
    let bad = verify(&out, &queries, expect, report, "serve-single");
    report.ops(queries.len() as u64, bad);
    Ok(out)
}

/// The server's counters that the burst phase reads deltas of.
#[derive(Default)]
struct ServeCounters {
    requests: f64,
    batches: f64,
    flushes: f64,
}

fn serve_counters(addr: &str) -> Result<ServeCounters, String> {
    let reply = daemons::request(addr, "METRICS").map_err(|e| format!("METRICS: {e}"))?;
    let v: Value = serde_json::from_str(&reply).map_err(|e| format!("METRICS reply: {e}"))?;
    let m = v.field("metrics").ok_or("METRICS reply lacks metrics")?;
    let counter = |name: &str| m.field("counters").and_then(|c| field_f64(c, name));
    let hist_count = |name: &str| {
        m.field("histograms")
            .and_then(|h| h.field(name))
            .and_then(|h| field_f64(h, "count"))
    };
    Ok(ServeCounters {
        requests: counter("cdcl_serve_requests_total").ok_or("no request counter")?,
        batches: counter("cdcl_serve_batches_total").ok_or("no batch counter")?,
        flushes: hist_count("cdcl_serve_queue_depth").ok_or("no queue-depth histogram")?,
    })
}

/// Burst `b`: one write of `BURST` pipelined requests, ids from `first_id`.
fn burst_arrival(inputs: &Inputs, b: usize, first_id: u64) -> (Arrival, Vec<(u64, Query)>) {
    let mut bytes = String::new();
    let mut queries = Vec::with_capacity(BURST);
    for j in 0..BURST {
        let (id, q) = (first_id + j as u64, inputs.burst_query(b, j));
        bytes.push_str(&request_line(id, q, &inputs.pool));
        bytes.push('\n');
        queries.push((id, q));
    }
    let arrival = Arrival {
        bytes: bytes.into_bytes(),
        responses: BURST,
    };
    (arrival, queries)
}

/// Bursts `bursts` at `BURST_RATE`, each one write of `BURST` pipelined
/// requests, which the server flushes together at its `--max-batch`. Each
/// burst goes on a connection of its own, opened and accepted before the
/// burst is due (connect time stays out of the figure). A fresh connection
/// still acknowledges at once, so the tail of a response larger than the
/// server's write buffer is not held until the client's next burst; on a
/// long-lived connection it is, and the figure would read the burst
/// interval (that regime is `burst.reused_p50_ms`, in [`per_layer`]).
/// Pushes each burst's latency from its due time to its last response,
/// and adds the server's counter deltas to `counters`.
fn burst_run(
    server: &Daemon,
    inputs: &Inputs,
    expect: &Expect,
    bursts: std::ops::Range<usize>,
    report: &mut Report,
    (lat, counters): (&mut Samples, &mut ServeCounters),
) -> Result<(), String> {
    let interval = Duration::from_secs_f64(1.0 / BURST_RATE);
    let before = serve_counters(&server.addr)?;
    let mut conn = openloop::connect(&server.addr).map_err(|e| e.to_string())?;
    let t0 = Instant::now() + interval;
    for (i, b) in bursts.enumerate() {
        let (arrival, queries) = burst_arrival(inputs, b, 1);
        let schedule = (t0 + interval * i as u32, interval);
        let out = openloop::paced(&conn, std::slice::from_ref(&arrival), schedule, SILENCE)
            .map_err(|e| format!("serve-burst: {e}; server log: {}", server.log_tail()))?;
        // The next burst's connection, opened while this one closes.
        conn = openloop::connect(&server.addr).map_err(|e| e.to_string())?;
        let bad = verify(&out, &queries, expect, report, "serve-burst");
        report.ops(queries.len() as u64, bad);
        lat.push(out.latency_ms()[0]);
    }
    drop(conn);
    let after = serve_counters(&server.addr)?;
    counters.requests += after.requests - before.requests;
    counters.batches += after.batches - before.batches;
    counters.flushes += after.flushes - before.flushes;
    Ok(())
}

/// serve-single and serve-burst, the gated serve phases. After warm-up
/// they alternate in `SLICES` slices: each median then spans the whole
/// serve period, so a passing slowdown of the host lands in a few slices
/// of both rather than in all of one. serve-single runs on one
/// long-lived client connection at the reference rate with one request
/// in flight; serve-burst on a connection per burst ([`burst_run`]).
pub fn single_and_burst(
    server: &Daemon,
    inputs: &Inputs,
    expect: &Expect,
    seconds: u64,
    report: &mut Report,
) -> Result<(), String> {
    let conn = openloop::connect(&server.addr).map_err(|e| e.to_string())?;
    let singles = arrivals_for(seconds, SINGLE_SHARE, SINGLE_RATE) / SLICES;
    let bursts = arrivals_for(seconds, BURST_SHARE, BURST_RATE) / SLICES;
    let (mut single_lat, mut burst_lat) = (Samples::new(), Samples::new());
    let mut counters = ServeCounters::default();
    {
        let _s = trace::span("phase.serve_warmup");
        let warm = (SINGLE_RATE, 0, WARMUP_REQUESTS, false);
        single_run(server, &conn, inputs, expect, warm, report)?;
        let unused = (&mut Samples::new(), &mut ServeCounters::default());
        burst_run(server, inputs, expect, 0..WARMUP_BURSTS, report, unused)?;
    }
    for s in 0..SLICES {
        {
            let _s = trace::span("phase.serve_single");
            let k0 = WARMUP_REQUESTS + s * singles;
            let run = (SINGLE_RATE, k0, singles, false);
            let out = single_run(server, &conn, inputs, expect, run, report)?;
            out.latency_ms()
                .into_iter()
                .for_each(|l| single_lat.push(l));
        }
        let _s = trace::span("phase.serve_burst");
        let b0 = WARMUP_BURSTS + s * bursts;
        let sinks = (&mut burst_lat, &mut counters);
        burst_run(server, inputs, expect, b0..b0 + bursts, report, sinks)?;
    }
    report.note_distribution(
        &format!("serve-single latency at {SINGLE_RATE}/s, one in flight"),
        "ms",
        &mut single_lat,
    );
    report.put_median("serve_p50_ms", "ms", &mut single_lat);
    report.put_percentile("serve.p90_ms", "ms", &mut single_lat, 90.0);
    report.note_distribution(
        &format!("serve-burst latency at {BURST_RATE}/s, a connection per burst"),
        "ms",
        &mut burst_lat,
    );
    report.put_median("burst_p50_ms", "ms", &mut burst_lat);
    report.put_percentile(
        &format!("burst.p{BURST_TAIL}_ms"),
        "ms",
        &mut burst_lat,
        BURST_TAIL,
    );
    let ServeCounters {
        requests,
        batches,
        flushes,
    } = counters;
    report.put(
        "serve.batch_size_mean",
        "requests",
        requests / batches.max(1.0),
        batches as usize,
    );
    report.put(
        "serve.groups_per_flush",
        "groups",
        batches / flushes.max(1.0),
        flushes as usize,
    );
    Ok(())
}

/// The serve regimes reported only per layer (traced run): single
/// requests pipelined open loop at `OPEN_RATE`, saturation throughput,
/// and bursts open loop on one long-lived connection.
pub fn per_layer(
    server: &Daemon,
    inputs: &Inputs,
    expect: &Expect,
    seconds: u64,
    report: &mut Report,
    late: &mut Samples,
) -> Result<(), String> {
    let _s = trace::span("phase.serve_per_layer");
    let conn = openloop::connect(&server.addr).map_err(|e| e.to_string())?;
    let open = (OPEN_RATE, 0, OPEN_REQUESTS, true);
    let out = single_run(server, &conn, inputs, expect, open, report)?;
    out.late_ms().into_iter().for_each(|l| late.push(l));
    let mut lat = Samples::from_vec(out.latency_ms());
    report.note_distribution(
        &format!("serve-single latency at {OPEN_RATE}/s, open loop"),
        "ms",
        &mut lat,
    );
    report.put_median("serve.open_p50_ms", "ms", &mut lat);
    report.put_percentile("serve.open_p99_ms", "ms", &mut lat, 99.0);

    let mut rps = Samples::new();
    for _ in 0..SATURATION_RUNS {
        let conn = openloop::connect(&server.addr).map_err(|e| e.to_string())?;
        let saturate = (SATURATION_RATE, 0, SATURATION_REQUESTS, true);
        let out = single_run(server, &conn, inputs, expect, saturate, report)?;
        rps.push(out.throughput());
    }
    report.note_distribution("serve-single saturation throughput", "rps", &mut rps);
    report.put_median("serve.max_rps", "rps", &mut rps);

    let (mut arrivals, mut queries) = (Vec::new(), Vec::new());
    for b in 0..WARMUP_BURSTS + arrivals_for(seconds, REUSED_SHARE, BURST_RATE) {
        let (a, q) = burst_arrival(inputs, b, (b * BURST) as u64 + 1);
        arrivals.push(a);
        queries.extend(q);
    }
    let conn = openloop::connect(&server.addr).map_err(|e| e.to_string())?;
    let out = drive(server, &conn, &arrivals, BURST_RATE, true)
        .map_err(|e| format!("serve-burst, one connection: {e}"))?;
    let bad = verify(
        &out,
        &queries,
        expect,
        report,
        "serve-burst, one connection",
    );
    report.ops(queries.len() as u64, bad);
    let mut lat = Samples::from_vec(out.latency_ms().split_off(WARMUP_BURSTS));
    report.note_distribution(
        &format!("serve-burst latency at {BURST_RATE}/s, one long-lived connection"),
        "ms",
        &mut lat,
    );
    report.put_median("burst.reused_p50_ms", "ms", &mut lat);
    Ok(())
}

/// The in-process cost of one request, without a socket: registry load,
/// `serve_stream` over the exact request bytes, and the batch-1 predict
/// inside it. Feeds `serve.inproc_ms`, `serve.protocol_ms`,
/// `serve.socket_ms` and `serve.registry_load_ms` (traced run only).
pub fn decompose(snapshot: &Path, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let _s = trace::span("phase.serve_inproc");
    const REPS: usize = 200;
    let mut load = Samples::new();
    let mut srv = None;
    for _ in 0..5 {
        let fresh = cdcl_bench::serve::registry::SnapshotRegistry::new(0);
        let (r, ms) = trace::timed("serve.registry_load", || fresh.load("default", snapshot));
        r?;
        load.push(ms);
        srv = Some(fresh);
    }
    let srv = srv.expect("loaded at least once");
    report.put_median("serve.registry_load_ms", "ms", &mut load);

    let args = cdcl_bench::serve::ServeArgs::default();
    let stats = cdcl_bench::serve::ServeStats::default();
    let slot = srv.get(None)?;
    let model = slot.current();
    let dims = model.trainer.input_dims();
    let (mut inproc, mut predict) = (Samples::new(), Samples::new());
    for k in 0..REPS {
        let q = inputs.single_query(k);
        let mut bytes = request_line(k as u64, q, &inputs.pool);
        bytes.push_str("\n\n");
        let mut out = Vec::with_capacity(1024);
        let (r, ms) = trace::timed("serve.inproc", || {
            cdcl_bench::serve::serve_stream(
                &srv,
                &mut Cursor::new(bytes.as_bytes()),
                &mut out,
                &args,
                &stats,
            )
        });
        r.map_err(|e| format!("in-process serve: {e}"))?;
        inproc.push(ms);
        let x = decode_image(&inputs.pool[q.image].json, dims);
        let ((), ms) = trace::timed("core.predict", || {
            let p = match q.mode {
                Mode::Cil => model.trainer.model().predict_cil(&x),
                Mode::Til(t) => model.trainer.model().predict_til(&x, t),
            };
            std::hint::black_box(p);
        });
        predict.push(ms);
    }
    let inproc_ms = inproc.median().expect("REPS > 0");
    let predict_ms = predict.median().expect("REPS > 0");
    report.put("serve.inproc_ms", "ms", inproc_ms, REPS);
    report.put("serve.protocol_ms", "ms", inproc_ms - predict_ms, REPS);
    if let Some(rtt) = report.get("serve_p50_ms") {
        report.put("serve.socket_ms", "ms", rtt - inproc_ms, 1);
    }
    Ok(())
}

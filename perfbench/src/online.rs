//! The online-loop phase: a `cdcl-serve` holding the snapshot trained in
//! this run plus a zero-task `cdcl-traind` that RELOADs it after every
//! round, fed a window stream with several task switches and no boundary
//! hints, while a low fixed-rate read stream hits the server.
//!
//! The producer commits one window per arrival, open loop, so windows
//! queued behind a training round are charged the stall; the reads run
//! open loop on a second connection and thread. The daemon's first round (its cold-start bootstrap) always
//! happens; later rounds happen only where its drift detector fires.
//!
//! Checks, after the loop: every ack is well formed and in order, every
//! round was published and verified live, the reads see each published
//! version in order with no read dropped or refused, and every read's
//! `pred` equals the in-process argmax of the snapshot version that
//! answered it. Whether the detector found each switch, and at the right
//! window, is measured against the generator's ground truth and reported
//! (`traind.detect_recall`, `traind.boundary_exact`), not gated: on these
//! streams the detector misses switches for most seeds.

use crate::daemons::Daemon;
use crate::inputs::{request_line, Inputs, Query, BOOTSTRAP_WINDOWS, LOOP_TASKS, WINDOWS_PER_TASK};
use crate::openloop::{self, Arrival};
use crate::report::Report;
use crate::serving::{field_f64, field_ok, field_u64, Expect};
use crate::stats::Samples;
use crate::trace;
use cdcl_core::CdclTrainer;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Window commits per second offered by the producer.
pub const WINDOW_RATE: f64 = 25.0;
/// Reads per second offered while the loop runs.
pub const READ_RATE: f64 = 100.0;
/// Percentiles reported for acks and reads: the highest with ten samples
/// beyond them at the planned counts.
pub const ACK_TAIL: f64 = 75.0;
pub const READ_TAIL: f64 = 95.0;
/// Cold-start cycles before the main loop: each adds one bootstrap round
/// to `loop.visible_ms`.
pub const PROBES: usize = 4;
/// How long reads may wait for the last published version to appear.
const VISIBLE_LIMIT: Duration = Duration::from_secs(30);
/// Reads prepared: more than the loop can use before `VISIBLE_LIMIT`.
const READ_BUDGET: Duration = Duration::from_secs(120);

/// The loop's server and its trainer daemon.
pub struct Loop {
    serve: Daemon,
    traind: Daemon,
    dims: (usize, usize, usize),
    work: PathBuf,
}

/// Starts the server on `snapshot` and the zero-task trainer daemon that
/// notifies it.
pub fn start(snapshot: &Path, dims: (usize, usize, usize), work: &Path) -> Result<Loop, String> {
    let serve = crate::serving::start_server(snapshot, work)?;
    let traind = start_traind(&serve.addr, dims, work, "main")?;
    Ok(Loop {
        serve,
        traind,
        dims,
        work: work.to_path_buf(),
    })
}

/// A zero-task trainer daemon publishing into `work/publish-<name>` and
/// notifying the server at `serve`.
fn start_traind(
    serve: &str,
    dims: (usize, usize, usize),
    work: &Path,
    name: &str,
) -> Result<Daemon, String> {
    let publish = work.join(format!("publish-{name}"));
    std::fs::create_dir_all(&publish).map_err(|e| format!("{}: {e}", publish.display()))?;
    Daemon::start(
        "traind",
        &[
            "--notify",
            serve,
            "--publish-dir",
            &publish.display().to_string(),
            "--in-channels",
            &dims.0.to_string(),
            "--in-hw",
            &format!("{}x{}", dims.1, dims.2),
            "--bootstrap-windows",
            &BOOTSTRAP_WINDOWS.to_string(),
            "--threads",
            "1",
            "--conns",
            "0",
        ],
        work,
        "STATUS",
    )
}

/// One read's answer.
struct Read {
    at: Instant,
    id: u64,
    query: Query,
    line: String,
}

/// One window ack.
struct Ack {
    /// When the window was sent.
    sent: Instant,
    /// Latency from its due time and from its send, in ms.
    from_due_ms: f64,
    from_send_ms: f64,
    v: Value,
}

/// One round, as its ack reports it.
struct Round {
    window: usize,
    sent: Instant,
    ack_ms: f64,
    publish_ms: f64,
    version: u64,
    boundary: Option<u64>,
    path: String,
}

fn round_of(w: usize, a: &Ack) -> Result<Option<Round>, String> {
    let Some(p) = a.v.field("publish").filter(|p| !matches!(p, Value::Null)) else {
        return Ok(None);
    };
    if !field_ok(p) {
        return Err(format!("window {w}: publish failed: {p:?}"));
    }
    let version = match p.field("reloads") {
        Some(Value::Arr(r)) if r.len() == 1 => {
            field_u64(&r[0], "version").ok_or(format!("window {w}: reload failed: {p:?}"))?
        }
        _ => return Err(format!("window {w}: publish reached no server: {p:?}")),
    };
    let path = match p.field("path") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err(format!("window {w}: publish lacks its path")),
    };
    Ok(Some(Round {
        window: w,
        sent: a.sent,
        ack_ms: a.from_send_ms,
        publish_ms: field_f64(p, "publish_us").unwrap_or(0.0) / 1e3,
        version,
        boundary: field_u64(&a.v, "boundary"),
        path,
    }))
}

/// Commits `windows` of the plan to `traind`; returns the acks.
fn produce(
    traind: &Daemon,
    windows: impl Iterator<Item = Vec<u8>>,
    late: &mut Samples,
) -> Result<Vec<Ack>, String> {
    let arrivals: Vec<Arrival> = windows
        .map(|bytes| Arrival {
            bytes,
            responses: 1,
        })
        .collect();
    let conn = openloop::connect(&traind.addr).map_err(|e| e.to_string())?;
    let never = AtomicBool::new(false);
    let interval = Duration::from_secs_f64(1.0 / WINDOW_RATE);
    let out = openloop::run(
        conn,
        &arrivals,
        interval,
        Duration::from_secs(60),
        &never,
        &mut |_, _| {},
    )
    .map_err(|e| format!("window producer: {e}; traind log: {}", traind.log_tail()))?;
    out.late_ms().into_iter().for_each(|l| late.push(l));
    let from_due = out.latency_ms();
    let mut acks = Vec::with_capacity(out.lines.len());
    for (i, (t, line)) in out.lines.iter().enumerate() {
        let sent_ns = out.due_ns[i] + out.late_ns[i];
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("bad ack {line:.80}: {e}"))?;
        if !field_ok(&v) {
            return Err(format!("window {i} refused: {line:.160}"));
        }
        acks.push(Ack {
            sent: out.t0 + Duration::from_nanos(sent_ns),
            from_due_ms: from_due[i],
            from_send_ms: t.saturating_sub(sent_ns) as f64 / 1e6,
            v,
        });
    }
    Ok(acks)
}

/// Runs the loop and records its metrics. `served` is the learner the
/// server starts with (version 1).
pub fn run(
    lp: Loop,
    inputs: &Inputs,
    served: &CdclTrainer,
    report: &mut Report,
    late: &mut Samples,
) -> Result<(), String> {
    let _s = trace::span("phase.online_loop");
    let stop = AtomicBool::new(false);
    let newest = AtomicU64::new(0);
    let reads: Mutex<Vec<Read>> = Mutex::new(Vec::new());
    let budget = (READ_BUDGET.as_secs_f64() * READ_RATE) as usize;
    let read_arrivals: Vec<Arrival> = (0..budget)
        .map(|k| {
            let mut line = request_line(k as u64 + 1, inputs.loop_query(k), &inputs.loop_pool);
            line.push_str("\n\n");
            Arrival {
                bytes: line.into_bytes(),
                responses: 1,
            }
        })
        .collect();
    let ((probes, acks), read_out) = std::thread::scope(|s| -> Result<_, String> {
        let reader = s.spawn(|| {
            let conn = openloop::connect(&lp.serve.addr).map_err(|e| e.to_string())?;
            let interval = Duration::from_secs_f64(1.0 / READ_RATE);
            let mut k = 0usize;
            openloop::run(
                conn,
                &read_arrivals,
                interval,
                Duration::from_secs(60),
                &stop,
                &mut |_, line| {
                    let at = Instant::now();
                    if let Ok(v) = serde_json::from_str::<Value>(line) {
                        // ordering: stat — newest version seen; read again after the join.
                        newest.fetch_max(field_u64(&v, "version").unwrap_or(0), Ordering::Relaxed);
                    }
                    reads.lock().expect("reads lock").push(Read {
                        at,
                        id: k as u64 + 1,
                        query: inputs.loop_query(k),
                        line: line.to_string(),
                    });
                    k += 1;
                },
            )
            .map_err(|e| format!("loop reads: {e}; serve log: {}", lp.serve.log_tail()))
        });
        // Waits until a read has been answered by `version` (or later).
        let visible = |version: u64| {
            let t0 = Instant::now();
            // ordering: stat — see above.
            while newest.load(Ordering::Relaxed) < version
                && t0.elapsed() < VISIBLE_LIMIT
                && !reader.is_finished()
            {
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let produced = (|| -> Result<_, String> {
            // Cold-start cycles: a fresh zero-task daemon bootstraps, publishes
            // and is stopped, so every run has several rounds of the same size.
            let mut probes = Vec::with_capacity(PROBES);
            for k in 0..PROBES {
                let t = start_traind(&lp.serve.addr, lp.dims, &lp.work, &format!("probe{k}"))?;
                // Each cycle bootstraps on other data, so the median is
                // not one pair of windows' training cost.
                let windows = (0..BOOTSTRAP_WINDOWS)
                    .map(|i| inputs.window(k % LOOP_TASKS, BOOTSTRAP_WINDOWS + i));
                probes.push(produce(&t, windows, late)?);
                visible(k as u64 + 2);
            }
            let windows = (0..Inputs::loop_windows()).map(|w| inputs.loop_window(w));
            let main = produce(&lp.traind, windows, late)?;
            Ok((probes, main))
        })();
        // Keep reading until the last published version has answered.
        let last = match &produced {
            Ok((probes, main)) => probes
                .iter()
                .chain(std::iter::once(main))
                .flat_map(|acks| {
                    acks.iter()
                        .enumerate()
                        .filter_map(|(w, a)| round_of(w, a).ok().flatten())
                })
                .map(|r| r.version)
                .max()
                .unwrap_or(1),
            Err(_) => 0,
        };
        visible(last);
        // ordering: flag — ends the read loop.
        stop.store(true, Ordering::Relaxed);
        let read_out = reader.join().expect("read thread panicked");
        Ok((produced?, read_out?))
    })?;
    read_out.late_ms().into_iter().for_each(|l| late.push(l));
    drop(lp);
    let reads = reads.into_inner().expect("reads lock");
    check_and_measure(inputs, served, &probes, &acks, &reads, &read_out, report)
}

fn check_and_measure(
    inputs: &Inputs,
    served: &CdclTrainer,
    probes: &[Vec<Ack>],
    acks: &[Ack],
    reads: &[Read],
    read_out: &openloop::Outcome,
    report: &mut Report,
) -> Result<(), String> {
    let mut failed = 0u64;
    // Each cold-start cycle runs exactly its bootstrap round.
    let mut probe_rounds = Vec::with_capacity(probes.len());
    for (k, p) in probes.iter().enumerate() {
        match p
            .iter()
            .enumerate()
            .map(|(w, a)| round_of(w, a))
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(r) => match r.into_iter().flatten().collect::<Vec<_>>() {
                r if r.len() == 1 && r[0].window == BOOTSTRAP_WINDOWS - 1 => probe_rounds.extend(r),
                r => {
                    report.fail(format!(
                        "cold-start cycle {k}: {} rounds, expected its bootstrap",
                        r.len()
                    ));
                    failed += 1;
                }
            },
            Err(e) => {
                report.fail(e);
                failed += 1;
            }
        }
        report.ops(p.len() as u64, 0);
    }
    let mut rounds = Vec::new();
    let mut detected_at = Vec::new();
    let mut last_detections = 0;
    let mut plain_ack = Samples::new();
    for (w, a) in acks.iter().enumerate() {
        if field_u64(&a.v, "window") != Some(w as u64) {
            report.fail(format!(
                "ack {w} is for window {:?}",
                field_u64(&a.v, "window")
            ));
            failed += 1;
        }
        let detections = field_u64(&a.v, "detections").unwrap_or(0);
        if detections > last_detections {
            detected_at.push(w);
            last_detections = detections;
        }
        match round_of(w, a) {
            Ok(Some(r)) => rounds.push(r),
            Ok(None) => plain_ack.push(a.from_send_ms),
            Err(e) => {
                report.fail(e);
                failed += 1;
            }
        }
    }
    report.ops(acks.len() as u64, 0);
    if rounds.first().map(|r| r.window) != Some(BOOTSTRAP_WINDOWS - 1) {
        report.fail("the bootstrap round did not run on its window".to_string());
        failed += 1;
    }
    // Published versions bump by one per round, after the served v1.
    let published: Vec<&Round> = probe_rounds.iter().chain(&rounds).collect();
    for (i, r) in published.iter().enumerate() {
        if r.version != i as u64 + 2 {
            report.fail(format!(
                "round {i} published version {}, expected {}",
                r.version,
                i + 2
            ));
            failed += 1;
        }
    }

    // Boundary inference against the generator's ground truth (measured,
    // not gated — see the module docs).
    let switches: Vec<usize> = (1..LOOP_TASKS).map(Inputs::loop_switch).collect();
    let boundaries: Vec<u64> = rounds.iter().skip(1).filter_map(|r| r.boundary).collect();
    let exact = boundaries
        .iter()
        .filter(|b| switches.contains(&(**b as usize)))
        .count();
    let mut lag = Samples::new();
    for &sw in &switches {
        // A switch no round claimed counts as lasting its whole task.
        let hit = rounds
            .iter()
            .skip(1)
            .find(|r| r.boundary == Some(sw as u64));
        lag.push(hit.map_or(WINDOWS_PER_TASK, |r| r.window + 1 - sw) as f64);
    }
    report.put(
        "traind.detect_recall",
        "ratio",
        exact as f64 / switches.len() as f64,
        switches.len(),
    );
    report.put(
        "traind.boundary_exact",
        "ratio",
        exact as f64 / boundaries.len().max(1) as f64,
        boundaries.len(),
    );
    report.put("traind.detections", "count", detected_at.len() as f64, 1);
    report.put(
        "detect_lag_windows",
        "windows",
        lag.sum() / lag.len() as f64,
        lag.len(),
    );
    report.notes.push(format!(
        "online loop: switches at {switches:?}, detections at {detected_at:?}, round boundaries {boundaries:?}"
    ));

    // Reads: every one answered, in order, by a version that never goes
    // back, with the argmax of that version's snapshot.
    let mut expect = vec![Expect::new(served, &inputs.loop_pool)];
    for r in &published {
        let t =
            CdclTrainer::resume_from(Path::new(&r.path)).map_err(|e| format!("{}: {e}", r.path))?;
        expect.push(Expect::new(&t, &inputs.loop_pool));
    }
    let mut newest = 1u64;
    let mut first_seen: Vec<Option<Instant>> = vec![None; expect.len() + 1];
    let mut bad = 0u64;
    for rd in reads {
        let v: Option<Value> = serde_json::from_str(&rd.line).ok();
        let version = v
            .as_ref()
            .and_then(|v| field_u64(v, "version"))
            .unwrap_or(0);
        let good = v.as_ref().is_some_and(|v| {
            field_ok(v)
                && field_u64(v, "id") == Some(rd.id)
                && version >= newest
                && expect
                    .get((version as usize).wrapping_sub(1))
                    .is_some_and(|e| field_u64(v, "pred") == e.pred(rd.query).map(|p| p as u64))
        });
        if !good {
            if bad < 3 {
                report.fail(format!("loop read {}: {:.160}", rd.id, rd.line));
            }
            bad += 1;
        }
        newest = newest.max(version);
        if let Some(slot) = first_seen.get_mut(version as usize) {
            slot.get_or_insert(rd.at);
        }
    }
    report.ops(reads.len() as u64, bad);
    if newest != expect.len() as u64 {
        report.fail(format!(
            "reads ended on version {newest}, expected {}",
            expect.len()
        ));
        failed += 1;
    }
    report.ops(0, failed);

    // Commit → first read answered by the new version, over the bootstrap
    // rounds: they always run, each on the same two windows. Detection
    // rounds train on however many windows the detector took and are
    // reported per layer.
    let mut visible = Samples::new();
    for r in &published {
        match first_seen.get(r.version as usize).copied().flatten() {
            Some(at) if r.window == BOOTSTRAP_WINDOWS - 1 => {
                visible.push(at.saturating_duration_since(r.sent).as_secs_f64() * 1e3)
            }
            Some(_) => {}
            None => report.fail(format!("version {} never answered a read", r.version)),
        }
    }
    report.note_distribution("bootstrap commit to visible", "ms", &mut visible);
    report.put_median("loop.visible_ms", "ms", &mut visible);
    let mut ack = Samples::from_vec(acks.iter().map(|a| a.from_due_ms).collect());
    report.note_distribution("window ack latency", "ms", &mut ack);
    report.put_median("loop.ack_p50_ms", "ms", &mut ack);
    report.put_percentile(
        &format!("loop.ack_p{ACK_TAIL}_ms"),
        "ms",
        &mut ack,
        ACK_TAIL,
    );
    let mut read = Samples::from_vec(read_out.latency_ms());
    report.note_distribution("loop read latency", "ms", &mut read);
    report.put_median("loop.read_p50_ms", "ms", &mut read);
    report.put_percentile(
        &format!("loop.read_p{READ_TAIL}_ms"),
        "ms",
        &mut read,
        READ_TAIL,
    );

    report.put_median("traind.window_ack_ms", "ms", &mut plain_ack);
    let mut round_ms =
        Samples::from_vec(published.iter().map(|r| r.ack_ms - r.publish_ms).collect());
    report.put_median("traind.round_ms", "ms", &mut round_ms);
    let mut publish_ms = Samples::from_vec(published.iter().map(|r| r.publish_ms).collect());
    report.put_median("traind.publish_ms", "ms", &mut publish_ms);
    Ok(())
}

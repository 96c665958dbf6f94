//! `perfbench`: the end-to-end benchmark of the CDCL train → serve →
//! online-loop system (see README.md in this directory).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mnist-usps --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run drives the whole pipeline on the workload's stream, in order:
//! train-stream (in-process `run_stream`), serve-single and serve-burst
//! (open-loop traffic against a `cdcl-serve` child holding the trained
//! snapshot), and online-loop (a second `cdcl-serve` on that snapshot +
//! a zero-task `cdcl-traind` that publishes into it).
//! Every response is checked. The human table goes to stdout first; the
//! last line is one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of the traced run (`--trace 1`).

mod daemons;
mod inputs;
mod layers;
mod online;
mod openloop;
mod report;
mod serving;
mod stats;
mod trace;
mod train;

use inputs::{Inputs, Workload};
use report::Report;
use stats::Samples;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("serve_p50_ms", "ms"),
    ("burst_p50_ms", "ms"),
];

/// The per-layer metrics of the traced run, as `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_fmas", "count"),
    ("tensor.pool_spawns", "count"),
    ("tensor.step_serial_ms", "ms"),
    ("tensor.step_pool_ms", "ms"),
    ("tensor.buf_hit_rate", "ratio"),
    ("tensor.buf_alloc_bytes", "bytes"),
    ("train.wall_s", "s"),
    ("quality.til_acc_pct", "%"),
    ("quality.cil_acc_pct", "%"),
    ("nn.tokenizer_b1_ms", "ms"),
    ("nn.encoder_self_b1_ms", "ms"),
    ("nn.encoder_cross_b1_ms", "ms"),
    ("nn.seqpool_b1_ms", "ms"),
    ("nn.heads_b1_ms", "ms"),
    ("nn.tokenizer_b16_ms", "ms"),
    ("nn.encoder_self_b16_ms", "ms"),
    ("nn.encoder_cross_b16_ms", "ms"),
    ("nn.seqpool_b16_ms", "ms"),
    ("nn.heads_b16_ms", "ms"),
    ("nn.tokenizer_b32_ms", "ms"),
    ("nn.encoder_self_b32_ms", "ms"),
    ("nn.encoder_cross_b32_ms", "ms"),
    ("nn.seqpool_b32_ms", "ms"),
    ("nn.heads_b32_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("optim.adamw_step_ms", "ms"),
    ("core.learn_task_s", "s"),
    ("core.eval_ms", "ms"),
    ("core.extract_features_ms", "ms"),
    ("core.pseudo_ms", "ms"),
    ("core.predict_b1_ms", "ms"),
    ("core.predict_b32_ms", "ms"),
    ("core.drift_score_ms", "ms"),
    ("core.snapshot_encode_ms", "ms"),
    ("core.snapshot_decode_ms", "ms"),
    ("snapshot.atomic_write_ms", "ms"),
    ("serve.p90_ms", "ms"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("serve.max_rps", "rps"),
    ("burst.p90_ms", "ms"),
    ("burst.reused_p50_ms", "ms"),
    ("serve.inproc_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("serve.socket_ms", "ms"),
    ("serve.batch_size_mean", "requests"),
    ("serve.groups_per_flush", "groups"),
    ("serve.registry_load_ms", "ms"),
    ("loop.visible_ms", "ms"),
    ("loop.ack_p50_ms", "ms"),
    ("loop.ack_p75_ms", "ms"),
    ("loop.read_p50_ms", "ms"),
    ("loop.read_p95_ms", "ms"),
    ("traind.window_ack_ms", "ms"),
    ("traind.round_ms", "ms"),
    ("traind.publish_ms", "ms"),
    ("traind.detections", "count"),
    ("traind.detect_recall", "ratio"),
    ("traind.boundary_exact", "ratio"),
    ("detect_lag_windows", "windows"),
    ("gen.late_p99_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.nn_ms", "ms"),
    ("self.autograd_ms", "ms"),
    ("self.optim_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.snapshot_ms", "ms"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Set-up stages are repeated this many times and their medians summed.
const SETUP_REPS: usize = 5;

/// Kernel threads for every measured process (this one and the daemons).
/// At the default of one per CPU, `train_s` varies by 14% (quartile
/// spread) from run to run on a 2-vCPU machine — the kernel pool spawns
/// threads for every parallel region — so the benchmark pins one thread
/// and times training by that thread's on-CPU time. The thread pool is
/// measured on its own in the traced run's layer probe.
pub const KERNEL_THREADS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{} expects an integer, got {value:?}", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `f` `SETUP_REPS` times, keeping the last result and the median
/// duration in seconds.
fn repeated<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous result (e.g. stop its daemons) first.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        last.expect("SETUP_REPS > 0"),
        times.median().expect("SETUP_REPS > 0"),
    ))
}

/// Starts the serve-single/serve-burst server on the trained learner:
/// encode the snapshot, write it atomically, start the daemon, wait until
/// it has loaded and re-verified the model.
fn serve_setup(
    trainer: &cdcl_core::CdclTrainer,
    work: &Path,
) -> Result<(daemons::Daemon, PathBuf), String> {
    let path = work.join("served.cdclsnap");
    let bytes = trainer.snapshot_bytes();
    cdcl_snapshot::atomic_write(&path, &bytes).map_err(|e| format!("write snapshot: {e}"))?;
    let server = serving::start_server(&path, work)?;
    Ok((server, path))
}

fn run(args: &Args, work: &Path, records: &Path, report: &mut Report) -> Result<(), String> {
    let key = format!("{}-{}", args.workload.name(), args.seed);
    let mut late = Samples::new();

    let (inputs, gen_s) = repeated(|| Ok(Inputs::generate(args.workload, args.seed)))?;
    let trainer = train::run(&inputs.stream, records, &key, report);

    let ((server, snapshot), serve_s) = repeated(|| serve_setup(&trainer, work))?;
    let expect = serving::Expect::new(&trainer, &inputs.pool);
    serving::single_and_burst(&server, &inputs, &expect, args.seconds, report)?;
    if args.trace {
        serving::per_layer(&server, &inputs, &expect, args.seconds, report, &mut late)?;
    }
    drop(server);
    if args.trace {
        serving::decompose(&snapshot, &inputs, report)?;
    }

    let (lp, loop_s) = repeated(|| online::start(&snapshot, trainer.input_dims(), work))?;
    report.put("setup_s", "s", gen_s + serve_s + loop_s, SETUP_REPS);
    report.notes.push(format!(
        "set-up medians of {SETUP_REPS}: inputs {gen_s:.4} s, serve start {serve_s:.4} s, loop start {loop_s:.4} s"
    ));
    online::run(lp, &inputs, &trainer, report, &mut late)?;

    if args.trace {
        report.put_percentile("gen.late_p99_ms", "ms", &mut late, 99.0);
        layers::probe(&trainer, &inputs.stream, work, report)?;
    }
    Ok(())
}

/// Folds the traced run's spans into per-layer self times, the residual
/// the benchmark's own code accounts for, and the tracing overhead.
fn fold_trace(report: &mut Report) {
    let spans = trace::take();
    train::span_medians(&spans, report);
    let self_ms = trace::self_time_ms(&spans);
    for layer in ["core", "nn", "autograd", "optim", "serve", "snapshot"] {
        report.put(
            &format!("self.{layer}_ms"),
            "ms",
            self_ms.get(layer).copied().unwrap_or(0.0),
            spans.len(),
        );
    }
    let residual = self_ms.get("phase").copied().unwrap_or(0.0);
    let total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    report.put("trace.residual_ms", "ms", residual, spans.len());
    let overhead = trace::span_cost_ns() * spans.len() as f64 / 1e6;
    report.put("trace.overhead_ms", "ms", overhead, spans.len());
    report.notes.push(format!(
        "traced run: {} spans over {total:.0} ms of phases; residual (benchmark's own code, daemons' \
         time seen from outside) {residual:.0} ms = {:.1}%; span overhead {overhead:.3} ms = {:.4}%",
        spans.len(),
        100.0 * residual / total.max(1e-9),
        100.0 * overhead / total.max(1e-9)
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        daemons::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!(
        "work-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    cdcl_tensor::kernels::set_num_threads(KERNEL_THREADS);
    if args.trace {
        trace::install();
    }
    let mut report = Report::default();
    report.notes.push(format!(
        "workload {} seed {} ({} s requested), trace {}, {} CPUs",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    if let Err(e) = run(&args, &work, &root.join("records"), &mut report) {
        report.fail(e);
    }
    if args.trace {
        fold_trace(&mut report);
    }
    let _ = std::fs::remove_dir_all(&work);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report.json_line(names);
    print!("{}", report.table());
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Arr(items)) = v.field(key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        items
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad {key} entry: {other:?}"),
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(names(&v, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&v, "per_layer"), owned(PER_LAYER));
        let Some(Value::Arr(workloads)) = v.field("workloads") else {
            panic!("BENCHMARK.json lacks workloads")
        };
        let listed: Vec<String> = workloads
            .iter()
            .filter_map(|w| match w.field("name") {
                Some(Value::Str(n)) => Some(n.clone()),
                _ => None,
            })
            .collect();
        let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed, known);
    }

    #[test]
    fn arguments_are_parsed_and_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload visda --seed 7 --seconds 30 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Visda, 7, 30, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 30 --trace 0",
            "--workload visda --seed x --seconds 30 --trace 0",
            "--workload visda --seed 1 --seconds 30 --trace 2",
            "--workload visda --seconds 30",
            "--workload visda --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}

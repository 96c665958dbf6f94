//! The train-stream phase: in-process `run_stream` with the default
//! configuration over the workload's whole stream, on
//! [`crate::KERNEL_THREADS`] kernel threads. Its trained learner is the
//! snapshot the serve phases answer with.
//!
//! With one kernel thread every kernel runs on the calling thread, so
//! `train_s` is that thread's on-CPU time: wall time minus the time it
//! waited for a CPU, so preemption and run-queue waits drop out of it.
//! How fast the CPU runs while the thread has it still shows. The wall
//! time is reported per layer as `train.wall_s`.

use crate::report::Report;
use crate::stats::Samples;
use crate::trace;
use cdcl_core::{run_stream, CdclConfig, CdclTrainer, ContinualLearner};
use cdcl_data::{CrossDomainStream, Sample, TaskData};
use cdcl_tensor::{kernels, pool};
use std::path::Path;
use std::time::Instant;

/// Forwards every call to the trainer inside a span, so the traced and
/// untraced runs go through the same calls.
struct Spanned<'a>(&'a mut CdclTrainer);

impl ContinualLearner for Spanned<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn learn_task(&mut self, task: &TaskData) {
        let _s = trace::span("core.learn_task");
        self.0.learn_task(task)
    }

    fn eval_til(&self, task_id: usize, test: &[Sample]) -> f64 {
        let _s = trace::span("core.eval");
        self.0.eval_til(task_id, test)
    }

    fn eval_cil(&self, task_id: usize, test: &[Sample]) -> f64 {
        let _s = trace::span("core.eval");
        self.0.eval_cil(task_id, test)
    }
}

/// Trains and evaluates the whole stream; returns the trained learner.
pub fn run(
    stream: &CrossDomainStream,
    records: &Path,
    key: &str,
    report: &mut Report,
) -> CdclTrainer {
    let _s = trace::span("phase.train_stream");
    let mut config = CdclConfig::default();
    config.backbone.in_channels = stream.image_layout.0;
    config.backbone.in_hw = stream.image_layout.1;
    let mut trainer = CdclTrainer::new(config);
    let (k0, p0) = (kernels::counter_snapshot(), pool::pool_stats());
    let (t0, cpu0) = (Instant::now(), thread_cpu_s());
    let result = run_stream(&mut Spanned(&mut trainer), stream);
    let (wall_s, cpu1) = (t0.elapsed().as_secs_f64(), thread_cpu_s());
    let (k, p) = (
        kernels::counter_snapshot().delta_since(&k0),
        pool::pool_stats().delta_since(&p0),
    );
    match (cpu0, cpu1) {
        (Some(a), Some(b)) if k.pool_spawns == 0 => report.put("train_s", "s", b - a, 1),
        _ => report.fail(format!(
            "train_s: no on-CPU time of the training thread ({} pool spawns)",
            k.pool_spawns
        )),
    }
    report.put("train.wall_s", "s", wall_s, 1);
    report.put("tensor.gemm_calls", "count", k.gemm_calls as f64, 1);
    report.put("tensor.gemm_fmas", "count", k.gemm_fmas as f64, 1);
    report.put(
        "tensor.buf_hit_rate",
        "ratio",
        p.hit_rate(),
        (p.hits + p.misses) as usize,
    );
    report.put(
        "tensor.buf_alloc_bytes",
        "bytes",
        p.alloc_bytes as f64,
        p.misses as usize,
    );
    let (til, cil) = (result.til_acc_pct(), result.cil_acc_pct());
    let tests: usize = stream.tasks.iter().map(|t| t.target_test.len()).sum();
    report.put("quality.til_acc_pct", "%", til, tests);
    report.put("quality.cil_acc_pct", "%", cil, tests);
    report.notes.push(format!(
        "train-stream `{}`: {} tasks, {} threads, TIL {til:.1}% CIL {cil:.1}%",
        stream.name,
        stream.num_tasks(),
        kernels::num_threads()
    ));
    check_determinism(records, key, til, cil, report);
    trainer
}

/// On-CPU time of the calling thread in seconds: the first field of
/// `/proc/thread-self/schedstat` (nanoseconds). `None` where the kernel
/// does not provide it.
fn thread_cpu_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// Identity of the running build: a hash of this executable's bytes, so a
/// record only constrains runs of the same code.
fn build_id() -> Result<String, String> {
    use std::hash::Hasher;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(&bytes);
    Ok(format!("{:016x}", h.finish()))
}

/// Accuracy is a pure function of the seed and the code (the bitwise
/// determinism contract: thread count, buffer pool and tracing never
/// change it), so every run of a seed by the same build — traced or not —
/// must reproduce the bits the first one recorded. Records are keyed by
/// the build, so a change that alters training numerics starts afresh.
fn check_determinism(records: &Path, key: &str, til: f64, cil: f64, report: &mut Report) {
    let build = match build_id() {
        Ok(b) => b,
        Err(e) => return report.fail(format!("determinism: no build identity: {e}")),
    };
    let path = records.join(format!("{key}-{build}.acc"));
    let now = format!("{:016x} {:016x}", til.to_bits(), cil.to_bits());
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() == now => report
            .notes
            .push("accuracy bit-identical to an earlier run of this seed and build".to_string()),
        Ok(before) => report.fail(format!(
            "determinism: TIL/CIL bits {now} differ from an earlier run of this seed and build ({})",
            before.trim()
        )),
        Err(_) => {
            if let Err(e) =
                std::fs::create_dir_all(records).and_then(|()| std::fs::write(&path, &now))
            {
                report
                    .notes
                    .push(format!("cannot record accuracy for later runs: {e}"));
            }
        }
    }
}

/// Median per-call durations of the traced learner calls.
pub fn span_medians(spans: &[trace::Span], report: &mut Report) {
    let mut learn = Samples::new();
    let mut eval = Samples::new();
    for s in spans {
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        match s.name {
            "core.learn_task" => learn.push(ms / 1e3),
            "core.eval" => eval.push(ms),
            _ => {}
        }
    }
    report.put_median("core.learn_task_s", "s", &mut learn);
    report.put_median("core.eval_ms", "ms", &mut eval);
}

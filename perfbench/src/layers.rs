//! The traced run's layer probe: times the public entry points of each
//! layer on the shapes the workload's trained model uses.
//!
//! * `cdcl-nn` forward pieces on a rig built from the model's
//!   `BackboneConfig` (tokenizer, self- and cross-attention encoder,
//!   sequence pooling, TIL + CIL heads) at batch 1 (one served request),
//!   16 (the training mini-batch) and 32 (one served burst);
//! * `cdcl-autograd` backward and `cdcl-optim` AdamW of a batch-16 step;
//! * `cdcl-tensor`'s kernel thread pool: that step on one thread and on
//!   one per CPU;
//! * `cdcl-core` predict, features, Eq. 17–19 pseudo-labelling, drift
//!   scoring and snapshot encode/decode on the trained learner;
//! * `cdcl-snapshot` atomic write.
//!
//! Each figure is the median of repeated calls.

use crate::report::Report;
use crate::stats::Samples;
use crate::trace;
use cdcl_autograd::Graph;
use cdcl_core::{pseudo, CdclTrainer};
use cdcl_data::{stack, CrossDomainStream, Sample};
use cdcl_nn::{ConvTokenizer, Encoder, GrowingLinear, Module, SeqPool, TilHeads};
use cdcl_optim::{AdamW, Optimizer};
use cdcl_tensor::kernels;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const REPS: usize = 15;
const BATCHES: [usize; 3] = [1, 16, 32];

struct Rig {
    tokenizer: ConvTokenizer,
    encoder: Encoder,
    pool: SeqPool,
    til: TilHeads,
    cil: GrowingLinear,
}

fn rig(trainer: &CdclTrainer) -> Rig {
    let c = trainer.config().backbone;
    let mut rng = SmallRng::seed_from_u64(11);
    let tokenizer = ConvTokenizer::new(
        &mut rng,
        c.in_channels,
        c.in_hw,
        c.embed_dim,
        c.tokenizer_stages,
        c.tokenizer_kernel,
    );
    let mut encoder = Encoder::new(
        &mut rng,
        c.embed_dim,
        c.depth,
        c.mlp_ratio,
        c.attention,
        c.attn_softmax,
    );
    encoder.add_task(&mut rng);
    let pool = SeqPool::new(&mut rng, c.embed_dim);
    let mut til = TilHeads::new(c.embed_dim);
    til.add_task(&mut rng, 2);
    let cil = GrowingLinear::new(
        &mut rng,
        "cil",
        c.embed_dim,
        trainer.model().total_classes(),
    );
    Rig {
        tokenizer,
        encoder,
        pool,
        til,
        cil,
    }
}

/// `n` images of the stream's target-test split, cycled.
fn images(stream: &CrossDomainStream, n: usize) -> cdcl_tensor::Tensor {
    let all: Vec<&Sample> = stream.tasks.iter().flat_map(|t| &t.target_test).collect();
    let picked: Vec<&Sample> = (0..n).map(|i| all[i % all.len()]).collect();
    stack(&picked).0
}

/// The `cdcl-nn` forward pieces at each batch size.
fn forward_pieces(r: &Rig, stream: &CrossDomainStream, report: &mut Report) {
    let mut g = Graph::new();
    for b in BATCHES {
        let x = images(stream, b);
        let names = [
            "tokenizer",
            "encoder_self",
            "encoder_cross",
            "seqpool",
            "heads",
        ];
        let mut t: Vec<Samples> = names.iter().map(|_| Samples::new()).collect();
        for _ in 0..REPS {
            g.reset_for_step();
            let (src, tgt) = (g.input(x.clone()), g.input(x.clone()));
            let (tok, ms) = trace::timed("nn.tokenizer", || r.tokenizer.forward(&mut g, src));
            t[0].push(ms);
            let tok_t = r.tokenizer.forward(&mut g, tgt);
            let (enc, ms) =
                trace::timed("nn.encoder_self", || r.encoder.forward_self(&mut g, tok, 0));
            t[1].push(ms);
            let (_, ms) = trace::timed("nn.encoder_cross", || {
                r.encoder.forward_cross(&mut g, tok, tok_t, 0)
            });
            t[2].push(ms);
            let (z, ms) = trace::timed("nn.seqpool", || r.pool.forward(&mut g, enc));
            t[3].push(ms);
            let (_, ms) = trace::timed("nn.heads", || {
                black_box(r.til.forward(&mut g, z, 0));
                black_box(r.cil.forward(&mut g, z));
            });
            t[4].push(ms);
        }
        for (name, s) in names.iter().zip(t.iter_mut()) {
            report.put_median(&format!("nn.{name}_b{b}_ms"), "ms", s);
        }
    }
}

/// Timings of repeated batch-16 self-attention training steps.
struct Steps {
    backward: Samples,
    adamw: Samples,
    /// Forward, backward and AdamW together.
    whole: Samples,
    /// Bits of each step's loss.
    losses: Vec<u32>,
}

fn steps(r: &Rig, stream: &CrossDomainStream) -> Steps {
    let mut params = r.tokenizer.params();
    params.extend(r.encoder.params());
    params.extend(r.pool.params());
    params.extend(r.til.params());
    let mut opt = AdamW::new(params);
    let x = images(stream, 16);
    let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
    let mut g = Graph::new();
    let mut out = Steps {
        backward: Samples::new(),
        adamw: Samples::new(),
        whole: Samples::new(),
        losses: Vec::with_capacity(REPS),
    };
    for _ in 0..REPS {
        let t0 = Instant::now();
        g.reset_for_step();
        let xi = g.input(x.clone());
        let tok = r.tokenizer.forward(&mut g, xi);
        let enc = r.encoder.forward_self(&mut g, tok, 0);
        let z = r.pool.forward(&mut g, enc);
        let logits = r.til.forward(&mut g, z, 0);
        let lp = g.log_softmax_last(logits);
        let loss = g.nll_loss(lp, &labels);
        out.losses.push(g.value(loss).item().to_bits());
        let ((), ms) = trace::timed("autograd.backward", || g.backward(loss));
        out.backward.push(ms);
        let ((), ms) = trace::timed("optim.adamw_step", || opt.step(1e-4));
        out.adamw.push(ms);
        opt.zero_grad();
        out.whole.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// Backward and AdamW of one batch-16 self-attention step.
fn step_pieces(r: &Rig, stream: &CrossDomainStream, report: &mut Report) {
    let mut s = steps(r, stream);
    report.put_median("autograd.backward_ms", "ms", &mut s.backward);
    report.put_median("optim.adamw_step_ms", "ms", &mut s.adamw);
}

/// The kernel thread pool, which every other figure leaves idle
/// ([`crate::KERNEL_THREADS`] is 1): the same training steps, from the
/// same initial weights, on one thread and on one per CPU (at least two).
/// The losses must be bit-identical, as the determinism contract says.
fn pool_pieces(
    trainer: &CdclTrainer,
    stream: &CrossDomainStream,
    report: &mut Report,
) -> Result<(), String> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    kernels::set_num_threads(1);
    let mut serial = steps(&rig(trainer), stream);
    kernels::set_num_threads(threads);
    let k0 = kernels::counter_snapshot();
    let mut pooled = steps(&rig(trainer), stream);
    let spawns = kernels::counter_snapshot().delta_since(&k0).pool_spawns;
    kernels::set_num_threads(crate::KERNEL_THREADS);
    report.put_median("tensor.step_serial_ms", "ms", &mut serial.whole);
    report.put_median("tensor.step_pool_ms", "ms", &mut pooled.whole);
    report.put("tensor.pool_spawns", "count", spawns as f64, REPS);
    report.notes.push(format!(
        "thread pool: batch-16 step on 1 thread vs {threads}, {spawns} spawns over {REPS} steps"
    ));
    if serial.losses != pooled.losses {
        return Err(format!(
            "determinism: losses on 1 and {threads} kernel threads differ: {:08x?} vs {:08x?}",
            serial.losses, pooled.losses
        ));
    }
    Ok(())
}

/// `cdcl-core` and `cdcl-snapshot` entry points on the trained learner.
fn core_pieces(
    trainer: &CdclTrainer,
    stream: &CrossDomainStream,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let model = trainer.model();
    let (x1, x32) = (images(stream, 1), images(stream, 32));
    let task0 = &stream.tasks[0];
    let src: Vec<&Sample> = task0.source_train.iter().take(32).collect();
    let (xs, src_labels) = stack(&src);
    let window: Vec<Sample> = stream
        .tasks
        .last()
        .expect("tasks")
        .target_train
        .iter()
        .take(6)
        .cloned()
        .collect();
    let mut s: Vec<Samples> = (0..5).map(|_| Samples::new()).collect();
    for _ in 0..REPS {
        s[0].push(trace::timed("core.predict", || black_box(model.predict_cil(&x1))).1);
        s[1].push(trace::timed("core.predict", || black_box(model.predict_cil(&x32))).1);
        let (feats, ms) = trace::timed("core.extract_features", || model.extract_features(&x32, 0));
        s[2].push(ms);
        let probs = model.predict_til(&x32, 0);
        let src_feats = model.extract_features(&xs, 0);
        s[3].push(
            trace::timed("core.pseudo", || {
                let c = pseudo::weighted_centroids(&probs, &feats);
                let labels = pseudo::nearest_centroid_labels(&feats, &c);
                black_box(pseudo::build_pairs(
                    &src_feats,
                    &src_labels,
                    &feats,
                    &labels,
                ));
            })
            .1,
        );
        s[4].push(
            trace::timed("core.drift_score", || {
                black_box(trainer.drift_score(&window))
            })
            .1,
        );
    }
    report.put_median("core.predict_b1_ms", "ms", &mut s[0]);
    report.put_median("core.predict_b32_ms", "ms", &mut s[1]);
    report.put_median("core.extract_features_ms", "ms", &mut s[2]);
    report.put_median("core.pseudo_ms", "ms", &mut s[3]);
    report.put_median("core.drift_score_ms", "ms", &mut s[4]);

    let (mut enc, mut dec, mut write) = (Samples::new(), Samples::new(), Samples::new());
    let path = work.join("probe.cdclsnap");
    for _ in 0..5 {
        let (bytes, ms) = trace::timed("core.snapshot_encode", || trainer.snapshot_bytes());
        enc.push(ms);
        let (r, ms) = trace::timed("core.snapshot_decode", || {
            CdclTrainer::from_snapshot_bytes(&bytes)
        });
        r.map_err(|e| format!("snapshot decode: {e}"))?;
        dec.push(ms);
        let (r, ms) = trace::timed("snapshot.atomic_write", || {
            cdcl_snapshot::atomic_write(&path, &bytes)
        });
        r.map_err(|e| format!("atomic write: {e}"))?;
        write.push(ms);
    }
    report.put_median("core.snapshot_encode_ms", "ms", &mut enc);
    report.put_median("core.snapshot_decode_ms", "ms", &mut dec);
    report.put_median("snapshot.atomic_write_ms", "ms", &mut write);
    Ok(())
}

pub fn probe(
    trainer: &CdclTrainer,
    stream: &CrossDomainStream,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let _s = trace::span("phase.layer_probe");
    let r = rig(trainer);
    forward_pieces(&r, stream, report);
    step_pieces(&r, stream, report);
    pool_pieces(trainer, stream, report)?;
    core_pieces(trainer, stream, work, report)
}

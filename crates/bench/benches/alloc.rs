//! Steady-state allocation profile of the training step (DESIGN.md §12).
//!
//! Drives a realistic forward + backward + SGD step — conv tokenizer,
//! attention encoder, TIL head, nll loss — through a *persistent*
//! [`Graph`] with `reset_for_step` between iterations, exactly like the
//! trainer's step loop, and measures the tensor-pool counters plus the real
//! heap traffic:
//!
//! * `allocs_per_step` / `alloc_bytes_per_step` — pool misses after
//!   warm-up (the zero-alloc contract: ~0 once every shape has been seen);
//! * `heap_allocs_per_step` — every heap allocation the step makes, counted
//!   by a wrapping global allocator: pool misses plus per-op bookkeeping
//!   (shape vectors, tape nodes, stride plans), which the pool never sees;
//! * `pool_hit_rate` — fraction of buffer requests recycled in the
//!   measured window;
//! * `resident_bytes` — what the free lists pin at steady state;
//! * the same step with the pool disabled (`CDCL_POOL=0` path), as the
//!   baseline the pool is saving against.
//!
//! Writes `BENCH_alloc.json` at the workspace root; CI soft-gates it with
//! `bench-diff` (hit rate must not drop, allocs/step must not rise).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cdcl_autograd::Graph;
use cdcl_nn::{AttentionMode, Backbone, BackboneConfig, Module, TilHeads};
use cdcl_optim::{Optimizer, Sgd};
use cdcl_tensor::{kernels, pool, Tensor};
use criterion::{black_box, criterion_group, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

/// Counts every allocation request (fresh, zeroed, or a `realloc`) and
/// forwards it to the system allocator.
struct Counting;

static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: stat — a plain event count, read after the measured steps.
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ordering: stat — see `alloc`.
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: stat — see `alloc`.
        HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn heap_allocs() -> u64 {
    // ordering: stat — see `Counting::alloc`.
    HEAP_ALLOCS.load(Ordering::Relaxed)
}

const BATCH: usize = 8;
const HW: usize = 16;
const EMBED: usize = 32;
const CLASSES: usize = 4;
const WARMUP_STEPS: usize = 5;
const MEASURED_STEPS: usize = 20;

struct TrainRig {
    backbone: Backbone,
    heads: TilHeads,
    opt: Sgd,
    graph: Graph,
    img: Tensor,
    labels: Vec<usize>,
}

fn rig() -> TrainRig {
    let mut rng = SmallRng::seed_from_u64(7);
    let config = BackboneConfig {
        in_channels: 1,
        in_hw: (HW, HW),
        embed_dim: EMBED,
        depth: 2,
        tokenizer_stages: 2,
        tokenizer_kernel: 3,
        mlp_ratio: 2,
        attention: AttentionMode::TaskKeyed,
        attn_softmax: true,
    };
    let mut backbone = Backbone::new(&mut rng, config);
    backbone.add_task(&mut rng);
    let mut heads = TilHeads::new(EMBED);
    heads.add_task(&mut rng, CLASSES);
    let mut params = backbone.params();
    params.extend(heads.params());
    let opt = Sgd::new(params, 0.9);
    let img = Tensor::randn(&mut rng, &[BATCH, 1, HW, HW], 1.0);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % CLASSES).collect();
    TrainRig {
        backbone,
        heads,
        opt,
        graph: Graph::new(),
        img,
        labels,
    }
}

/// One full training step on the persistent graph — the trainer's
/// reset / record / backward / update cycle.
fn step(r: &mut TrainRig) -> f32 {
    r.graph.reset_for_step();
    let x = r.graph.input(r.img.clone());
    let z = r.backbone.features_self(&mut r.graph, x, 0);
    let logits = r.heads.forward(&mut r.graph, z, 0);
    let lp = r.graph.log_softmax_last(logits);
    let loss = r.graph.nll_loss(lp, &r.labels);
    r.graph.backward(loss);
    r.opt.step(0.05);
    r.opt.zero_grad();
    r.graph.value(loss).data()[0]
}

#[derive(Serialize)]
struct ModeResult {
    mode: String,
    allocs_per_step: f64,
    alloc_bytes_per_step: f64,
    heap_allocs_per_step: f64,
    pool_hit_rate: f64,
    resident_bytes: f64,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    batch: usize,
    hw: usize,
    embed_dim: usize,
    warmup_steps: usize,
    measured_steps: usize,
    note: String,
    results: Vec<ModeResult>,
}

/// Runs warm-up then measured steps at the given pool setting and returns
/// the per-step counter deltas over the measured window. Kernels run on one
/// thread so worker start-up does not mix into the heap count.
fn profile(pooled: bool) -> ModeResult {
    pool::set_enabled(pooled);
    kernels::set_num_threads(1);
    let mut r = rig();
    for _ in 0..WARMUP_STEPS {
        black_box(step(&mut r));
    }
    let before = pool::pool_stats();
    let heap_before = heap_allocs();
    for _ in 0..MEASURED_STEPS {
        black_box(step(&mut r));
    }
    let heap = heap_allocs() - heap_before;
    let delta = pool::pool_stats().delta_since(&before);
    pool::set_enabled(true);
    kernels::set_num_threads(0);
    ModeResult {
        mode: if pooled { "pooled" } else { "unpooled" }.to_string(),
        allocs_per_step: delta.misses as f64 / MEASURED_STEPS as f64,
        alloc_bytes_per_step: delta.alloc_bytes as f64 / MEASURED_STEPS as f64,
        heap_allocs_per_step: heap as f64 / MEASURED_STEPS as f64,
        pool_hit_rate: delta.hit_rate(),
        resident_bytes: delta.resident_bytes as f64,
    }
}

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    for pooled in [true, false] {
        pool::set_enabled(pooled);
        let mut r = rig();
        for _ in 0..WARMUP_STEPS {
            black_box(step(&mut r));
        }
        let id = if pooled { "pooled" } else { "unpooled" };
        group.bench_function(id, |bench| bench.iter(|| black_box(step(&mut r))));
    }
    pool::set_enabled(true);
    group.finish();
}

fn emit_json() {
    let results = vec![profile(true), profile(false)];
    let report = Report {
        bench: "alloc".to_string(),
        batch: BATCH,
        hw: HW,
        embed_dim: EMBED,
        warmup_steps: WARMUP_STEPS,
        measured_steps: MEASURED_STEPS,
        note: "pool counters over the measured window on one kernel thread; unpooled \
               mode counts every buffer as a miss (the allocation volume the pool \
               recycles); heap_allocs_per_step counts every heap allocation, pool \
               misses included"
            .to_string(),
        results,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_alloc.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
    std::fs::write(path, json).expect("write BENCH_alloc.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100));
    targets = bench_step
}

fn main() {
    benches();
    emit_json();
}

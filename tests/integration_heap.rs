//! Heap-allocation contract of the warmed training step (DESIGN.md §12).
//!
//! The buffer pool recycles tensor storage, so a warmed step should touch
//! the heap only for per-op bookkeeping (shape vectors, tape nodes, stride
//! plans) — a count that grows with the number of ops, never with the
//! number of tensor elements. A counting global allocator measures the
//! real heap traffic of `benches/alloc.rs`-style steps at batch 8 and 16;
//! anything that allocates per element (an index vector per broadcast
//! element, say) multiplies the count by the batch size and fails both
//! bounds.
//!
//! Everything runs inside one `#[test]` on one kernel thread, so no sibling
//! test or worker thread adds to the process-wide counter. The pool is
//! switched on whatever `CDCL_POOL` says: with it off, every tensor buffer
//! is a heap allocation by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cdcl::autograd::Graph;
use cdcl::nn::{AttentionMode, Backbone, BackboneConfig, Module, TilHeads};
use cdcl::optim::{Optimizer, Sgd};
use cdcl::tensor::{kernels, pool, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

const HW: usize = 16;
const EMBED: usize = 32;
const CLASSES: usize = 4;
const WARMUP_STEPS: usize = 5;
const MEASURED_STEPS: usize = 10;

/// Measured on x86-64 Linux: 650 heap allocations per warmed step at batch
/// 8 and 762 at batch 16, i.e. 14 per extra sample. The ceiling leaves 31%
/// headroom over batch 16 and the slope bound about 2×; one allocation per
/// broadcast element cost 18,000 per sample (144,452 and 288,404 per step).
const MAX_ALLOCS_PER_STEP: u64 = 1_000;
const MAX_ALLOCS_PER_EXTRA_SAMPLE: u64 = 30;

/// Heap allocations per warmed conv-tokenizer + task-keyed attention
/// training step (forward, backward, SGD update) at `batch`.
fn allocs_per_step(batch: usize) -> u64 {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut backbone = Backbone::new(
        &mut rng,
        BackboneConfig {
            in_channels: 1,
            in_hw: (HW, HW),
            embed_dim: EMBED,
            depth: 2,
            tokenizer_stages: 2,
            tokenizer_kernel: 3,
            mlp_ratio: 2,
            attention: AttentionMode::TaskKeyed,
            attn_softmax: true,
        },
    );
    backbone.add_task(&mut rng);
    let mut heads = TilHeads::new(EMBED);
    heads.add_task(&mut rng, CLASSES);
    let mut params = backbone.params();
    params.extend(heads.params());
    let mut opt = Sgd::new(params, 0.9);
    let img = Tensor::randn(&mut rng, &[batch, 1, HW, HW], 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % CLASSES).collect();
    let mut graph = Graph::new();

    let mut step = || {
        graph.reset_for_step();
        let x = graph.input(img.clone());
        let z = backbone.features_self(&mut graph, x, 0);
        let logits = heads.forward(&mut graph, z, 0);
        let lp = graph.log_softmax_last(logits);
        let loss = graph.nll_loss(lp, &labels);
        graph.backward(loss);
        opt.step(0.05);
        opt.zero_grad();
    };
    for _ in 0..WARMUP_STEPS {
        step();
    }
    let before = heap_allocs();
    for _ in 0..MEASURED_STEPS {
        step();
    }
    (heap_allocs() - before) / MEASURED_STEPS as u64
}

#[test]
fn warmed_training_step_allocations_do_not_scale_with_elements() {
    kernels::set_num_threads(1);
    pool::set_enabled(true);
    let b8 = allocs_per_step(8);
    let b16 = allocs_per_step(16);
    kernels::set_num_threads(0);
    eprintln!("heap allocations per warmed step: batch 8 = {b8}, batch 16 = {b16}");
    assert!(
        b8 <= MAX_ALLOCS_PER_STEP && b16 <= MAX_ALLOCS_PER_STEP,
        "warmed step allocates too often: batch 8 = {b8}, batch 16 = {b16} \
         (ceiling {MAX_ALLOCS_PER_STEP})"
    );
    let per_sample = b16.saturating_sub(b8) / 8;
    assert!(
        per_sample <= MAX_ALLOCS_PER_EXTRA_SAMPLE,
        "heap allocations grow by {per_sample} per extra sample (batch 8 = {b8}, \
         batch 16 = {b16}; bound {MAX_ALLOCS_PER_EXTRA_SAMPLE})"
    );
}

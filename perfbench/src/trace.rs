//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers one call made from here, so a layer's *self time* is the
//! time spent in calls attributed to it minus the nested calls the
//! benchmark itself timed inside them.
//!
//! Spans are kept on the thread that records them (the benchmark's main
//! thread) and folded at the end of the run. With no tracer installed a
//! span costs one thread-local flag read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a span is charged to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns every closed span.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `layer.what`; it closes when the guard drops.
pub fn span(name: &'static str) -> Guard {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let tr = t.as_mut()?;
        let start_ns = tr.epoch.elapsed().as_nanos() as u64;
        let index = tr.spans.len();
        tr.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: tr.open.last().copied(),
        });
        tr.open.push(index);
        Some(index)
    });
    Guard { index }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.spans[index].end_ns = tr.epoch.elapsed().as_nanos() as u64;
                if tr.open.last() == Some(&index) {
                    tr.open.pop();
                }
            }
        });
    }
}

/// Times `f` inside a span and returns its result with the elapsed
/// milliseconds (measured whether or not a tracer is installed).
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Per-layer self time in milliseconds: each span's duration minus the
/// durations of its direct children, summed by layer.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = s.dur_ns().saturating_sub(child_ns[i]);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Cost of recording one span, in nanoseconds, measured on a scratch
/// tracer (the traced run's overhead is this times its span count).
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let saved = TRACER.with(|t| t.borrow_mut().take());
    install();
    let t0 = Instant::now();
    for _ in 0..N {
        let _s = span("bench.calibrate");
    }
    let per = t0.elapsed().as_nanos() as f64 / N as f64;
    TRACER.with(|t| *t.borrow_mut() = saved);
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp("phase.train", 0, 10_000_000, None),
            sp("core.learn_task", 1_000_000, 7_000_000, Some(0)),
            sp("nn.tokenizer", 2_000_000, 3_000_000, Some(1)),
            sp("core.eval", 8_000_000, 9_000_000, Some(0)),
        ];
        let t = self_time_ms(&spans);
        assert_eq!(t["phase"], 3.0);
        assert_eq!(t["core"], 5.0 + 1.0);
        assert_eq!(t["nn"], 1.0);
        let total: f64 = t.values().sum();
        assert_eq!(total, 10.0, "self times partition the root span");
    }

    #[test]
    fn spans_nest_and_are_inert_without_a_tracer() {
        drop(span("core.untraced"));
        assert!(take().is_empty());
        install();
        {
            let _outer = span("phase.x");
            let _inner = span("core.y");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "core");
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}

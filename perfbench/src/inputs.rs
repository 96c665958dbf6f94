//! Workload inputs, made from the `--seed` argument and nothing else.
//!
//! Every byte the benchmark sends to the system comes from [`Inputs`]:
//! the training stream, the images and modes of every predict request,
//! and the window plan of the online loop. The system under test never
//! sees the seed itself.

use cdcl_data::{CrossDomainStream, DomainPairConfig, Sample};
use std::fmt::Write as _;

/// A workload: which cross-domain stream the whole pipeline runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Gray 1x16x16 digits, 10 classes in 5 tasks, near domains (the
    /// quickstart stream).
    MnistUsps,
    /// Colour 3x16x16 objects, 12 classes in 4 tasks, a wider gap.
    Visda,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::MnistUsps, Workload::Visda];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MnistUsps => "mnist-usps",
            Workload::Visda => "visda",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(classes, tasks, channels, domain gap)` — the paper benchmark's
    /// shape at the repository's Standard scale.
    fn shape(self) -> (usize, usize, usize, f32) {
        match self {
            Workload::MnistUsps => (10, 5, 1, 0.15),
            Workload::Visda => (12, 4, 3, 0.55),
        }
    }

    /// The training stream: the Standard-scale benchmark stream with its
    /// generator seeded from the workload seed.
    pub fn stream_config(self, seed: u64) -> DomainPairConfig {
        let (num_classes, tasks, channels, gap) = self.shape();
        DomainPairConfig {
            name: format!("{} seed {seed}", self.name()),
            num_classes,
            tasks,
            channels,
            hw: (16, 16),
            latent_dim: 16,
            domain_gap: gap,
            task_drift: 0.9,
            within_class_std: 0.35,
            source_noise_std: 0.05,
            target_noise_std: 0.05 + 0.05 * gap,
            train_per_class: 16,
            target_train_per_class: 16,
            test_per_class: 10,
            seed: mix(seed, 1),
        }
    }

    /// The online loop's stream: a second stream of the same shape (so its
    /// snapshots can replace the trained one in the same serving slot),
    /// fed without its task boundaries.
    pub fn loop_config(self, seed: u64) -> DomainPairConfig {
        DomainPairConfig {
            name: format!("{} loop seed {seed}", self.name()),
            test_per_class: 4,
            seed: mix(seed, 2),
            ..self.stream_config(seed)
        }
    }
}

/// Tasks of the loop stream fed to the daemon (so `LOOP_TASKS - 1`
/// switches).
pub const LOOP_TASKS: usize = 4;
/// Source and target samples per committed window.
pub const PER_WINDOW: usize = 6;
/// Windows before the daemon's bootstrap round (its `--bootstrap-windows`).
pub const BOOTSTRAP_WINDOWS: usize = 2;
/// Windows of the first task: the bootstrap windows, then a clean stretch
/// over which the loop's ack and read latencies settle before any switch.
pub const FIRST_TASK_WINDOWS: usize = 38;
/// Windows of each later task: enough for detection after a switch plus
/// the detector's recalibration before the next one.
pub const WINDOWS_PER_TASK: usize = 12;
/// Requests per serve-burst arrival (the server's default `--max-batch`).
pub const BURST: usize = 32;

/// SplitMix64 of `seed` and a stream tag: independent sub-seeds.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Renders floats exactly as `serde_json` would read them back.
fn floats_json(xs: &[f32]) -> String {
    let mut s = String::with_capacity(xs.len() * 12);
    s.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

/// Prediction mode of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cil,
    Til(usize),
}

/// One predict request: which pool image, in which mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub image: usize,
    pub mode: Mode,
}

/// One served image: its rendered JSON array and the task it belongs to.
#[derive(Debug, Clone)]
pub struct PoolImage {
    pub json: String,
    pub task: usize,
}

/// Every input of one run.
pub struct Inputs {
    pub stream: CrossDomainStream,
    pub loop_stream: CrossDomainStream,
    /// The stream's target-test images, shuffled by the seed.
    pub pool: Vec<PoolImage>,
    /// The loop stream's target-test images (its read requests).
    pub loop_pool: Vec<PoolImage>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let stream = workload.stream_config(seed).generate();
        let mut loop_stream = workload.loop_config(seed).generate();
        loop_stream.tasks.truncate(LOOP_TASKS);
        let pool = shuffled_pool(&stream, mix(seed, 3));
        let loop_pool = shuffled_pool(&loop_stream, mix(seed, 4));
        Self {
            stream,
            loop_stream,
            pool,
            loop_pool,
        }
    }

    /// The `k`-th serve-single request: images cycle through the pool,
    /// alternating CIL and TIL (on the image's own task).
    pub fn single_query(&self, k: usize) -> Query {
        let image = k % self.pool.len();
        let mode = if k.is_multiple_of(2) {
            Mode::Cil
        } else {
            Mode::Til(self.pool[image].task)
        };
        Query { image, mode }
    }

    /// Request `j` of burst `b`: CIL and TIL interleaved, TIL spread over
    /// every task so one flush holds several `(mode, task)` groups.
    pub fn burst_query(&self, b: usize, j: usize) -> Query {
        let image = (b * BURST + j) % self.pool.len();
        let mode = if j.is_multiple_of(2) {
            Mode::Cil
        } else {
            Mode::Til(self.pool[image].task)
        };
        Query { image, mode }
    }

    /// The `k`-th read of the online loop (CIL on the loop stream).
    pub fn loop_query(&self, k: usize) -> Query {
        Query {
            image: k % self.loop_pool.len(),
            mode: Mode::Cil,
        }
    }

    /// Ground-truth task of loop window `w`.
    pub fn loop_task_of(w: usize) -> usize {
        if w < FIRST_TASK_WINDOWS {
            0
        } else {
            ((w - FIRST_TASK_WINDOWS) / WINDOWS_PER_TASK + 1).min(LOOP_TASKS - 1)
        }
    }

    /// Total windows the producer commits.
    pub fn loop_windows() -> usize {
        FIRST_TASK_WINDOWS + (LOOP_TASKS - 1) * WINDOWS_PER_TASK
    }

    /// Window index at which task `t >= 1` begins (the boundary the
    /// daemon must infer).
    pub fn loop_switch(t: usize) -> usize {
        FIRST_TASK_WINDOWS + (t - 1) * WINDOWS_PER_TASK
    }

    /// The bytes of loop window `w`.
    pub fn loop_window(&self, w: usize) -> Vec<u8> {
        let task = Self::loop_task_of(w);
        let first = if task == 0 {
            0
        } else {
            Self::loop_switch(task)
        };
        self.window(task, w - first)
    }

    /// The bytes of the `within`-th window of loop task `task`: its source
    /// and target sample lines and the blank line that commits it.
    pub fn window(&self, task: usize, within: usize) -> Vec<u8> {
        let task = &self.loop_stream.tasks[task];
        fn pick(pool: &[Sample], at: usize) -> &Sample {
            &pool[at % pool.len()]
        }
        let mut s = String::new();
        for j in 0..PER_WINDOW {
            let x = pick(&task.source_train, within * PER_WINDOW + j);
            let _ = writeln!(
                s,
                "{{\"role\":\"source\",\"label\":{},\"image\":{}}}",
                x.label,
                floats_json(x.image.data())
            );
        }
        for j in 0..PER_WINDOW {
            let x = pick(&task.target_train, within * PER_WINDOW + j);
            let _ = writeln!(
                s,
                "{{\"role\":\"target\",\"image\":{}}}",
                floats_json(x.image.data())
            );
        }
        s.push('\n');
        s.into_bytes()
    }
}

fn shuffled_pool(stream: &CrossDomainStream, seed: u64) -> Vec<PoolImage> {
    let mut pool: Vec<PoolImage> = stream
        .tasks
        .iter()
        .flat_map(|t| {
            t.target_test.iter().map(move |s| PoolImage {
                json: floats_json(s.image.data()),
                task: t.task_id,
            })
        })
        .collect();
    // Fisher-Yates driven by the SplitMix64 sequence of the seed.
    let mut state = seed;
    for i in (1..pool.len()).rev() {
        state = mix(state, i as u64);
        pool.swap(i, (state % (i as u64 + 1)) as usize);
    }
    pool
}

/// One request line (no trailing newline).
pub fn request_line(id: u64, q: Query, pool: &[PoolImage]) -> String {
    let image = &pool[q.image].json;
    match q.mode {
        Mode::Cil => format!("{{\"id\":{id},\"mode\":\"cil\",\"image\":{image}}}"),
        Mode::Til(t) => format!("{{\"id\":{id},\"mode\":\"til\",\"task\":{t},\"image\":{image}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            let c = Inputs::generate(w, 8);
            let bytes = |i: &Inputs| -> Vec<u8> {
                let mut v = Vec::new();
                for k in 0..50 {
                    v.extend(request_line(k as u64, i.single_query(k), &i.pool).into_bytes());
                    v.extend(
                        request_line(k as u64, i.burst_query(k, k % BURST), &i.pool).into_bytes(),
                    );
                    v.extend(request_line(k as u64, i.loop_query(k), &i.loop_pool).into_bytes());
                }
                for win in 0..Inputs::loop_windows() {
                    v.extend(i.loop_window(win));
                }
                v
            };
            assert_eq!(bytes(&a), bytes(&b), "{}: same seed, same inputs", w.name());
            assert_ne!(
                bytes(&a),
                bytes(&c),
                "{}: the seed drives the inputs",
                w.name()
            );
            let first = |i: &Inputs| i.stream.tasks[0].source_train[0].image.data().to_vec();
            assert_eq!(first(&a), first(&b));
            assert_ne!(first(&a), first(&c));
        }
    }

    #[test]
    fn requests_carry_only_generated_images() {
        let inputs = Inputs::generate(Workload::MnistUsps, 3);
        let mut test_images: Vec<Vec<f32>> = inputs
            .stream
            .tasks
            .iter()
            .flat_map(|t| t.target_test.iter().map(|s| s.image.data().to_vec()))
            .collect();
        test_images.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for k in 0..inputs.pool.len() * 2 {
            let line = request_line(k as u64, inputs.single_query(k), &inputs.pool);
            let req: cdcl_bench::serve::Request = serde_json::from_str(&line).expect("parses");
            let image = req.image.expect("image");
            assert!(
                test_images
                    .binary_search_by(|x| x.partial_cmp(&image).expect("finite"))
                    .is_ok(),
                "request {k} carries an image that is not a generated target-test sample"
            );
            assert_eq!(req.id, Some(k as u64));
        }
    }

    #[test]
    fn loop_plan_switches_tasks_at_the_ground_truth_windows() {
        assert_eq!(Inputs::loop_task_of(0), 0);
        for t in 1..LOOP_TASKS {
            let sw = Inputs::loop_switch(t);
            assert_eq!(Inputs::loop_task_of(sw - 1), t - 1);
            assert_eq!(Inputs::loop_task_of(sw), t);
        }
        assert_eq!(
            Inputs::loop_task_of(Inputs::loop_windows() - 1),
            LOOP_TASKS - 1
        );
        let inputs = Inputs::generate(Workload::Visda, 1);
        let sw = Inputs::loop_switch(2);
        assert_eq!(inputs.loop_window(sw + 3), inputs.window(2, 3));
        assert_ne!(inputs.window(0, 0), inputs.window(1, 0));
        let window = String::from_utf8(inputs.loop_window(0)).expect("utf8");
        assert_eq!(window.lines().count(), 2 * PER_WINDOW + 1);
        assert!(
            window.ends_with("\n\n"),
            "a window ends with its commit line"
        );
    }
}

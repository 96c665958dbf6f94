//! The [`Tensor`] type: a contiguous, row-major, CPU `f32` array.

use std::fmt;

use rand::Rng;

use crate::pool::PooledBuf;
use crate::shape::{
    broadcast_shapes, broadcast_strides, num_elements, offset_of, strides_for, Runs, Shape,
};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Operations return new output tensors, but their storage is a
/// [`PooledBuf`] popped from the size-classed buffer pool, so a warmed
/// training step recycles every output buffer instead of heap-allocating
/// it (see `pool` module / DESIGN.md §12); dropping a tensor returns its
/// bytes for the next step. In-place variants exist where training loops
/// need them (`add_assign_scaled`, `fill`). Broadcasting ops walk strided
/// runs and allocate nothing per element (DESIGN.md §7).
pub struct Tensor {
    data: PooledBuf,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Self {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data[..] == other.data[..]
    }
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Builds a tensor from a flat row-major buffer. The buffer joins the
    /// pool's recycling regime when the tensor is dropped.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            num_elements(shape),
            "buffer of {} elements does not fit shape {shape:?}",
            data.len()
        );
        Self {
            data: PooledBuf::from_vec(data),
            shape: shape.to_vec(),
        }
    }

    /// Builds a tensor directly over a pooled buffer (no copy).
    pub fn from_buf(data: PooledBuf, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            num_elements(shape),
            "buffer of {} elements does not fit shape {shape:?}",
            data.len()
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// A tensor with **unspecified** (but initialised) contents, taken from
    /// the pool. Every element must be overwritten before it is read —
    /// callers that cannot guarantee that want [`Tensor::zeros`]. Kernels
    /// use this for outputs they fully compute, which is what keeps the
    /// pool bitwise-transparent.
    pub fn uninit(shape: &[usize]) -> Self {
        Self {
            data: PooledBuf::take_uninit(num_elements(shape)),
            shape: shape.to_vec(),
        }
    }

    /// A scalar (rank-0) tensor.
    pub fn scalar(v: f32) -> Self {
        let mut data = PooledBuf::take_uninit(1);
        data[0] = v;
        Self {
            data,
            shape: vec![],
        }
    }

    /// All-zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: PooledBuf::take_zeroed(num_elements(shape)),
            shape: shape.to_vec(),
        }
    }

    /// All-one tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let mut data = PooledBuf::take_uninit(num_elements(shape));
        data.iter_mut().for_each(|x| *x = v);
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Samples i.i.d. `N(0, std^2)` entries (Box–Muller, seeded by `rng`).
    pub fn randn<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], std: f32) -> Self {
        let n = num_elements(shape);
        let mut data = PooledBuf::take_uninit(n);
        let mut i = 0;
        while i < n {
            let u1: f32 = rng.random::<f32>().max(1e-12);
            let u2: f32 = rng.random::<f32>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data[i] = r * theta.cos() * std;
            i += 1;
            if i < n {
                data[i] = r * theta.sin() * std;
                i += 1;
            }
        }
        Self::from_buf(data, shape)
    }

    /// Samples i.i.d. `U(lo, hi)` entries.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], lo: f32, hi: f32) -> Self {
        let n = num_elements(shape);
        let mut data = PooledBuf::take_uninit(n);
        for x in data.iter_mut() {
            *x = rng.random_range(lo..hi);
        }
        Self::from_buf(data, shape)
    }

    /// One-hot matrix `[labels.len(), classes]`.
    pub fn one_hot(labels: &[usize], classes: usize) -> Self {
        let mut t = Self::zeros(&[labels.len(), classes]);
        for (row, &l) in labels.iter().enumerate() {
            assert!(l < classes, "label {l} out of range for {classes} classes");
            t.data[row * classes + l] = 1.0;
        }
        t
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor's shape (outermost dimension first).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer (detached from the pool).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// Value of a rank-0 or single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.len(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        assert_eq!(idx.len(), self.ndim(), "index rank mismatch");
        let strides = strides_for(&self.shape);
        self.data[offset_of(idx, &strides)]
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Reinterprets the buffer with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        assert_eq!(
            self.len(),
            num_elements(shape),
            "reshape {:?} -> {shape:?} changes element count",
            self.shape
        );
        Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Swaps the last two dimensions (copying). Requires rank >= 2.
    pub fn transpose_last2(&self) -> Self {
        let nd = self.ndim();
        assert!(nd >= 2, "transpose_last2 needs rank >= 2, got {nd}");
        let (r, c) = (self.shape[nd - 2], self.shape[nd - 1]);
        let batch = self.len() / (r * c);
        let mut out_shape = self.shape.clone();
        out_shape.swap(nd - 2, nd - 1);
        let mut out = PooledBuf::take_uninit(self.len());
        for b in 0..batch {
            let src = &self.data[b * r * c..(b + 1) * r * c];
            let dst = &mut out[b * r * c..(b + 1) * r * c];
            for i in 0..r {
                for j in 0..c {
                    dst[j * r + i] = src[i * c + j];
                }
            }
        }
        Self::from_buf(out, &out_shape)
    }

    /// Concatenates tensors along dimension 0. All shapes must agree on the
    /// remaining dimensions.
    pub fn concat0(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "concat0 of zero tensors");
        let tail = &parts[0].shape[1..];
        let mut rows = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], tail, "concat0 trailing shape mismatch");
            rows += p.shape[0];
        }
        let mut data = PooledBuf::take_uninit(rows * num_elements(tail));
        let mut off = 0;
        for p in parts {
            data[off..off + p.len()].copy_from_slice(&p.data);
            off += p.len();
        }
        let mut shape = vec![rows];
        shape.extend_from_slice(tail);
        Self::from_buf(data, &shape)
    }

    /// Selects rows (dimension-0 slices) by index, in order. Indices may
    /// repeat.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        assert!(self.ndim() >= 1, "select_rows on scalar");
        let row = self.len() / self.shape[0].max(1);
        let mut data = PooledBuf::take_uninit(indices.len() * row);
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < self.shape[0], "row index {i} out of range");
            data[k * row..(k + 1) * row].copy_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Self::from_buf(data, &shape)
    }

    /// Extracts row `i` (dimension-0 slice), dropping the leading dimension.
    pub fn row(&self, i: usize) -> Self {
        assert!(self.ndim() >= 1 && i < self.shape[0], "row out of range");
        let row = self.len() / self.shape[0];
        let mut data = PooledBuf::take_uninit(row);
        data.copy_from_slice(&self.data[i * row..(i + 1) * row]);
        Self::from_buf(data, &self.shape[1..])
    }

    // ---------------------------------------------------------------------
    // Element-wise arithmetic (broadcasting)
    // ---------------------------------------------------------------------

    /// Applies `f` element-wise under broadcasting. Unequal shapes walk the
    /// output in contiguous runs (`shape::Runs`), reading each operand
    /// through its broadcast strides.
    fn binary(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == rhs.shape {
            // Fast path: same shape, tight loop over a recycled buffer.
            let mut data = PooledBuf::take_uninit(self.len());
            for ((o, a), b) in data.iter_mut().zip(self.data.iter()).zip(rhs.data.iter()) {
                *o = f(*a, *b);
            }
            return Tensor::from_buf(data, &self.shape);
        }
        let out_shape = broadcast_shapes(&self.shape, &rhs.shape);
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&rhs.shape, &out_shape);
        let mut data = PooledBuf::take_uninit(num_elements(&out_shape));
        let (a, b) = (&self.data[..], &rhs.data[..]);
        let runs = Runs::new(&out_shape, [&sa, &sb]);
        let (len, step) = (runs.len, runs.step);
        runs.for_each(|flat, [oa, ob]| {
            let out = &mut data[flat..flat + len];
            match step {
                [1, 1] => {
                    let (xs, ys) = (&a[oa..oa + len], &b[ob..ob + len]);
                    for ((o, x), y) in out.iter_mut().zip(xs).zip(ys) {
                        *o = f(*x, *y);
                    }
                }
                [1, 0] => {
                    let y = b[ob];
                    for (o, x) in out.iter_mut().zip(&a[oa..oa + len]) {
                        *o = f(*x, y);
                    }
                }
                [0, 1] => {
                    let x = a[oa];
                    for (o, y) in out.iter_mut().zip(&b[ob..ob + len]) {
                        *o = f(x, *y);
                    }
                }
                [ia, ib] => {
                    for (j, o) in out.iter_mut().enumerate() {
                        *o = f(a[oa + j * ia], b[ob + j * ib]);
                    }
                }
            }
        });
        Tensor::from_buf(data, &out_shape)
    }

    /// Element-wise sum with broadcasting.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, |a, b| a + b)
    }

    /// Element-wise difference with broadcasting.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, |a, b| a - b)
    }

    /// Element-wise product with broadcasting.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, |a, b| a * b)
    }

    /// Element-wise quotient with broadcasting.
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        self.binary(rhs, |a, b| a / b)
    }

    /// Applies `f` to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = PooledBuf::take_uninit(self.len());
        for (o, v) in data.iter_mut().zip(self.data.iter()) {
            *o = f(*v);
        }
        Tensor::from_buf(data, &self.shape)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|v| v * c)
    }

    /// Adds `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|v| v + c)
    }

    /// `max(v, 0)` element-wise.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// In-place `self += c * other` (shapes must match exactly). Used by
    /// optimizers and gradient accumulation, where allocation churn matters.
    pub fn add_assign_scaled(&mut self, other: &Tensor, c: f32) {
        assert_eq!(self.shape, other.shape, "add_assign_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += c * b;
        }
    }

    /// In-place fill.
    pub fn fill(&mut self, v: f32) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Sums `grad` (shaped like a broadcast result) back down to `target`
    /// shape — the adjoint of broadcasting. Used by autograd.
    pub fn reduce_to_shape(&self, target: &[usize]) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        let mut out = Tensor::zeros(target);
        let st = broadcast_strides(target, &self.shape);
        let src = &self.data[..];
        let runs = Runs::new(&self.shape, [&st]);
        let (len, step) = (runs.len, runs.step);
        // Runs and the elements inside them come in ascending flat order,
        // so each accumulator adds its sources in the same sequence as an
        // element-by-element loop: the rounding chain (and the bits) match.
        runs.for_each(|flat, [ot]| {
            let run = &src[flat..flat + len];
            match step {
                [0] => {
                    let acc = &mut out.data[ot];
                    for v in run {
                        *acc += v;
                    }
                }
                [1] => {
                    for (o, v) in out.data[ot..ot + len].iter_mut().zip(run) {
                        *o += v;
                    }
                }
                [s] => {
                    for (j, v) in run.iter().enumerate() {
                        out.data[ot + j * s] += v;
                    }
                }
            }
        });
        out
    }

    // ---------------------------------------------------------------------
    // Scalar summaries
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (NaN-free input assumed); `-inf` for empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.len() <= 16 {
            write!(f, " {:?}", &self.data[..])
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, .., {:.4}] (n={})",
                self.data[0],
                self.data[1],
                self.data[self.len() - 1],
                self.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not fit shape")]
    fn from_vec_bad_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0, 3.0], &[2, 2]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn one_hot_rows() {
        let t = Tensor::one_hot(&[2, 0], 3);
        assert_eq!(t.data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn uninit_has_shape_and_full_writes_all() {
        let mut t = Tensor::uninit(&[4, 4]);
        t.fill(3.0);
        assert_eq!(t.sum(), 48.0);
        let f = Tensor::full(&[2, 2], 0.5);
        assert_eq!(f.data(), &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn zeros_are_zero_even_from_recycled_buffers() {
        // Dirty a pooled buffer, drop it, and check zeros() re-zeroes.
        for _ in 0..4 {
            let t = Tensor::full(&[64], 9.0);
            drop(t);
            let z = Tensor::zeros(&[64]);
            assert!(z.data().iter().all(|v| *v == 0.0));
        }
    }

    #[test]
    fn add_broadcast_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        let y = x.add(&b);
        assert_eq!(y.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_middle_dim() {
        let x = Tensor::ones(&[2, 1, 3]);
        let y = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).reshape(&[2, 1]);
        let z = x.mul(&y.reshape(&[2, 1, 1]));
        assert_eq!(z.shape(), &[2, 1, 3]);
        assert_eq!(z.data(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn reduce_to_shape_is_broadcast_adjoint() {
        let g = Tensor::ones(&[2, 3]);
        let r = g.reduce_to_shape(&[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r0 = g.reduce_to_shape(&[]);
        assert_eq!(r0.item(), 6.0);
    }

    #[test]
    fn transpose_last2_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose_last2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_last2_batched() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let tt = t.transpose_last2();
        assert_eq!(tt.shape(), &[2, 3, 2]);
        assert_eq!(tt.at(&[1, 2, 0]), t.at(&[1, 0, 2]));
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = Tensor::randn(&mut rng, &[3, 4, 5], 1.0);
        assert_eq!(t.transpose_last2().transpose_last2(), t);
    }

    #[test]
    fn concat_and_select_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = Tensor::concat0(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        let s = c.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
        assert_eq!(c.row(1).data(), &[3.0, 4.0]);
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let mut rng = SmallRng::seed_from_u64(42);
        let t = Tensor::randn(&mut rng, &[10_000], 1.0);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|v| v * v).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t = Tensor::uniform(&mut rng, &[1000], -0.5, 0.5);
        assert!(t.max() < 0.5);
        assert!(t.data().iter().all(|v| *v >= -0.5));
    }

    #[test]
    fn add_assign_scaled_updates_in_place() {
        let mut a = Tensor::ones(&[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        a.add_assign_scaled(&b, 0.5);
        assert_eq!(a.data(), &[1.5, 2.0]);
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.all_finite());
    }
}

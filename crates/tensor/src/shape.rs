//! Shape arithmetic: dimension products, row-major strides, and NumPy-style
//! broadcasting rules.

/// A tensor shape: dimension sizes, outermost first (row-major).
pub type Shape = Vec<usize>;

/// Number of elements implied by a shape. The empty shape denotes a scalar
/// and has one element.
pub fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Row-major strides for a contiguous tensor of the given shape.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1;
    for i in (0..shape.len()).rev() {
        strides[i] = acc;
        acc *= shape[i];
    }
    strides
}

/// Computes the broadcast result shape of two operand shapes following the
/// NumPy rule: align trailing dimensions; each pair must be equal or one of
/// them must be 1.
///
/// Panics with a descriptive message when the shapes are incompatible; the
/// non-panicking rule lives in [`crate::check::try_broadcast_shapes`].
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Shape {
    crate::check::enforce_shape(crate::check::try_broadcast_shapes(a, b))
}

/// Strides for iterating an operand of shape `shape` as if it had been
/// broadcast to `out_shape`: broadcast dimensions get stride 0.
pub(crate) fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let strides = strides_for(shape);
    let ndim = out_shape.len();
    let mut out = vec![0; ndim];
    for (i, o) in out.iter_mut().enumerate() {
        let from_end = ndim - 1 - i;
        if from_end < shape.len() {
            let j = shape.len() - 1 - from_end;
            *o = if shape[j] == 1 { 0 } else { strides[j] };
        }
    }
    out
}

/// A row-major index space walked as contiguous innermost *runs*, with one
/// flat offset per operand carried from run to run by an odometer over the
/// outer dimensions — the broadcasting loops never rebuild a multi-index per
/// element.
///
/// Operand `k` maps the space through `strides[k]` (row-major strides with 0
/// on broadcast dimensions, as [`broadcast_strides`] produces). Size-1
/// dimensions are dropped and adjacent dimensions that every operand walks
/// with one uniform stride are merged, so a bias add over `[b, n, d]` is
/// `b·n` runs of `d` and a full reduction is a single run. Within a run,
/// operand `k` advances by `step[k]` per element.
pub(crate) struct Runs<const N: usize> {
    /// Elements per run.
    pub(crate) len: usize,
    /// Per-element stride of each operand inside a run.
    pub(crate) step: [usize; N],
    /// Number of runs; `len * count` is the size of the space.
    count: usize,
    /// Merged outer dimensions, innermost first: `(size, operand strides,
    /// odometer position)`.
    outer: Vec<(usize, [usize; N], usize)>,
}

impl<const N: usize> Runs<N> {
    /// Plans the walk of `shape` for operands with the given strides.
    pub(crate) fn new(shape: &[usize], strides: [&[usize]; N]) -> Self {
        let mut dims: Vec<(usize, [usize; N], usize)> = Vec::new();
        for d in (0..shape.len()).rev() {
            if shape[d] == 1 {
                continue;
            }
            let st: [usize; N] = std::array::from_fn(|k| strides[k][d]);
            match dims.last_mut() {
                // Dimension `d` continues the one inside it for every
                // operand: one index over both visits the same offsets.
                Some((size, inner, _)) if (0..N).all(|k| st[k] == inner[k] * *size) => {
                    *size *= shape[d];
                }
                _ => dims.push((shape[d], st, 0)),
            }
        }
        let (len, step, _) = if dims.is_empty() {
            (1, [0; N], 0)
        } else {
            dims.remove(0)
        };
        let count = num_elements(shape).checked_div(len).unwrap_or(0);
        Self {
            len,
            step,
            count,
            outer: dims,
        }
    }

    /// Calls `run(flat, offsets)` for every run in ascending row-major
    /// order: `flat` is the flat index of the run's first element in the
    /// walked space, `offsets[k]` its offset in operand `k`.
    pub(crate) fn for_each(mut self, mut run: impl FnMut(usize, [usize; N])) {
        let mut off = [0usize; N];
        for r in 0..self.count {
            run(r * self.len, off);
            for (size, st, i) in &mut self.outer {
                *i += 1;
                if *i < *size {
                    for k in 0..N {
                        off[k] += st[k];
                    }
                    break;
                }
                // Wrap this dimension and carry into the next one out.
                for k in 0..N {
                    off[k] -= st[k] * (*size - 1);
                }
                *i = 0;
            }
        }
    }
}

/// Dot product of a multi-index with strides — the flat offset.
pub(crate) fn offset_of(idx: &[usize], strides: &[usize]) -> usize {
    idx.iter().zip(strides.iter()).map(|(i, s)| i * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn num_elements_basic() {
        assert_eq!(num_elements(&[2, 3, 4]), 24);
        assert_eq!(num_elements(&[]), 1);
        assert_eq!(num_elements(&[0, 3]), 0);
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
    }

    #[test]
    fn broadcast_trailing_ones() {
        assert_eq!(broadcast_shapes(&[2, 1, 4], &[3, 1]), vec![2, 3, 4]);
        assert_eq!(broadcast_shapes(&[4], &[2, 3, 4]), vec![2, 3, 4]);
        assert_eq!(broadcast_shapes(&[2, 3, 4], &[1]), vec![2, 3, 4]);
    }

    #[test]
    fn broadcast_scalar() {
        assert_eq!(broadcast_shapes(&[], &[2, 2]), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn broadcast_incompatible_panics() {
        broadcast_shapes(&[2, 3], &[4, 3]);
    }

    #[test]
    fn broadcast_strides_zeroes_expanded_dims() {
        // shape [3,1] broadcast into [2,3,4]: leading dim absent (stride 0),
        // middle dim real (stride 1), trailing dim broadcast (stride 0).
        assert_eq!(broadcast_strides(&[3, 1], &[2, 3, 4]), vec![0, 1, 0]);
        assert_eq!(broadcast_strides(&[2, 3, 4], &[2, 3, 4]), vec![12, 4, 1]);
    }

    #[test]
    fn runs_merge_contiguous_dims_and_keep_flat_order() {
        // [2,3,4] + [4]: leading dims merge into 6 runs of 4.
        let out = [2usize, 3, 4];
        let (sa, sb) = (strides_for(&out), broadcast_strides(&[4], &out));
        let runs = Runs::new(&out, [&sa, &sb]);
        assert_eq!((runs.len, runs.step), (4, [1, 1]));
        let mut seen = Vec::new();
        runs.for_each(|flat, offs| seen.push((flat, offs)));
        let want: Vec<_> = (0..6).map(|r| (r * 4, [r * 4, 0])).collect();
        assert_eq!(seen, want);

        // [2,1,3] walked for a [2,1,1] operand: size-1 dim dropped, the
        // operand is constant within each run of 3.
        let out = [2usize, 1, 3];
        let sb = broadcast_strides(&[2, 1, 1], &out);
        let runs = Runs::new(&out, [&sb]);
        assert_eq!((runs.len, runs.step), (3, [0]));
        let mut seen = Vec::new();
        runs.for_each(|flat, offs| seen.push((flat, offs)));
        assert_eq!(seen, vec![(0, [0]), (3, [1])]);
    }

    #[test]
    fn runs_of_empty_and_scalar_spaces() {
        let mut calls = 0;
        Runs::new(&[3, 0, 2], [&[0, 0, 0]]).for_each(|_, _| calls += 1);
        assert_eq!(calls, 0);
        let runs = Runs::new(&[], [&[]]);
        assert_eq!(runs.len, 1);
        runs.for_each(|flat, offs| {
            calls += 1;
            assert_eq!((flat, offs), (0, [0]));
        });
        assert_eq!(calls, 1);
    }
}

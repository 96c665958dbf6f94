//! Property-based tests for the tensor kernels.

use cdcl_tensor::{broadcast_shapes, Tensor};
use proptest::prelude::*;

/// Strategy: a small shape of rank 1..=3.
fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

/// Strategy: a tensor with the given shape and bounded values.
fn tensor_with_shape(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    prop::collection::vec(-10.0f32..10.0, n).prop_map(move |data| Tensor::from_vec(data, &shape))
}

fn small_tensor() -> impl Strategy<Value = Tensor> {
    small_shape().prop_flat_map(tensor_with_shape)
}

// ---------------------------------------------------------------------------
// Reference broadcasting: one multi-index per element, the simplest correct
// loop. The library walks strided runs instead and must match it bit for bit.
// ---------------------------------------------------------------------------

fn ref_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1;
    for i in (0..shape.len()).rev() {
        strides[i] = acc;
        acc *= shape[i];
    }
    strides
}

/// Strides of `shape` read as broadcast to `out`: 0 on size-1 and missing
/// leading dimensions.
fn ref_broadcast_strides(shape: &[usize], out: &[usize]) -> Vec<usize> {
    let strides = ref_strides(shape);
    let lead = out.len() - shape.len();
    (0..out.len())
        .map(|i| match i.checked_sub(lead) {
            Some(j) if shape[j] != 1 => strides[j],
            _ => 0,
        })
        .collect()
}

fn ref_unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; shape.len()];
    for i in (0..shape.len()).rev() {
        idx[i] = flat % shape[i];
        flat /= shape[i];
    }
    idx
}

fn ref_offset(idx: &[usize], strides: &[usize]) -> usize {
    idx.iter().zip(strides).map(|(i, s)| i * s).sum()
}

type BinaryOp = fn(f32, f32) -> f32;

fn ref_binary(a: &Tensor, b: &Tensor, f: BinaryOp) -> Vec<f32> {
    let out = broadcast_shapes(a.shape(), b.shape());
    let (sa, sb) = (
        ref_broadcast_strides(a.shape(), &out),
        ref_broadcast_strides(b.shape(), &out),
    );
    (0..out.iter().product::<usize>())
        .map(|flat| {
            let idx = ref_unravel(flat, &out);
            f(
                a.data()[ref_offset(&idx, &sa)],
                b.data()[ref_offset(&idx, &sb)],
            )
        })
        .collect()
}

fn ref_reduce_to_shape(g: &Tensor, target: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; target.iter().product()];
    let st = ref_broadcast_strides(target, g.shape());
    for (flat, v) in g.data().iter().enumerate() {
        out[ref_offset(&ref_unravel(flat, g.shape()), &st)] += v;
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: a shape of rank 0..=4 with dims in 0..=4, zero-size dims rare
/// enough that most cases still move data.
fn full_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..9, 0..5)
        .prop_map(|dims| dims.iter().map(|&d| d.div_ceil(2)).collect())
}

/// Strategy: a shape that broadcasts to `full` — some leading dims dropped,
/// some dims shrunk to 1.
fn operand_of(full: Vec<usize>) -> impl Strategy<Value = Vec<usize>> {
    let rank = full.len();
    (0..rank + 1, prop::collection::vec(0u8..2, rank)).prop_map(move |(keep, ones)| {
        (rank - keep..rank)
            .map(|i| if ones[i] == 1 { 1 } else { full[i] })
            .collect()
    })
}

/// Strategy: a shape and a target it reduces to (the broadcast adjoint).
fn reduction() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    full_shape().prop_flat_map(|full| (Just(full.clone()), operand_of(full)))
}

/// Strategy: two tensors whose shapes broadcast together; either side (or
/// both at once, on different dims) may be the one that is broadcast.
fn broadcast_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    full_shape()
        .prop_flat_map(|full| (operand_of(full.clone()), operand_of(full)))
        .prop_flat_map(|(a, b)| (tensor_with_shape(a), tensor_with_shape(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn broadcast_arithmetic_matches_reference_bitwise((a, b) in broadcast_pair()) {
        let cases: [(Tensor, BinaryOp); 4] = [
            (a.add(&b), |x, y| x + y),
            (a.sub(&b), |x, y| x - y),
            (a.mul(&b), |x, y| x * y),
            (a.div(&b), |x, y| x / y),
        ];
        let shape = broadcast_shapes(a.shape(), b.shape());
        for (got, f) in cases {
            prop_assert_eq!(got.shape(), &shape[..]);
            prop_assert_eq!(bits(got.data()), bits(&ref_binary(&a, &b, f)));
        }
    }

    #[test]
    fn reduce_to_shape_matches_reference_bitwise((full, target) in reduction()) {
        // Values spanning magnitudes make the summation order visible in
        // the low bits.
        let n: usize = full.iter().product();
        let data = (0..n)
            .map(|i| (i as f32 * 0.7).sin() * 10f32.powi(i as i32 % 5 - 2))
            .collect();
        let g = Tensor::from_vec(data, &full);
        let got = g.reduce_to_shape(&target);
        prop_assert_eq!(got.shape(), &target[..]);
        prop_assert_eq!(bits(got.data()), bits(&ref_reduce_to_shape(&g, &target)));
    }

}

proptest! {
    #[test]
    fn add_commutes(t in small_tensor()) {
        let u = t.scale(0.5).add_scalar(1.0);
        let a = t.add(&u);
        let b = u.add(&t);
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn add_zero_is_identity(t in small_tensor()) {
        let z = Tensor::zeros(t.shape());
        let sum = t.add(&z);
        prop_assert_eq!(sum.data(), t.data());
    }

    #[test]
    fn mul_one_is_identity(t in small_tensor()) {
        let o = Tensor::ones(t.shape());
        let prod = t.mul(&o);
        prop_assert_eq!(prod.data(), t.data());
    }

    #[test]
    fn scale_distributes_over_add(t in small_tensor()) {
        let u = t.map(|v| v.sin());
        let lhs = t.add(&u).scale(2.0);
        let rhs = t.scale(2.0).add(&u.scale(2.0));
        for (a, b) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn reshape_preserves_data(t in small_tensor()) {
        let n = t.len();
        let flat = t.reshape(&[n]);
        prop_assert_eq!(flat.data(), t.data());
    }

    #[test]
    fn softmax_rows_are_distributions(t in small_tensor()) {
        let s = t.softmax_last();
        prop_assert!(s.data().iter().all(|v| *v >= 0.0 && *v <= 1.0 + 1e-6));
        let sums = s.sum_last();
        for v in sums.data() {
            prop_assert!((v - 1.0).abs() < 1e-4, "row sum {}", v);
        }
    }

    #[test]
    fn softmax_preserves_argmax(t in small_tensor()) {
        prop_assert_eq!(t.softmax_last().argmax_last(), t.argmax_last());
    }

    #[test]
    fn broadcast_is_symmetric_and_dominates(a in small_shape(), _unused in 0..1u8) {
        // broadcast(a, a) == a; broadcast with [1;rank] == a
        prop_assert_eq!(broadcast_shapes(&a, &a), a.clone());
        let ones = vec![1usize; a.len()];
        prop_assert_eq!(broadcast_shapes(&a, &ones), a);
    }

    #[test]
    fn reduce_to_shape_preserves_total(t in small_tensor()) {
        // Reducing all the way to a scalar preserves the total sum.
        let scalar = t.reduce_to_shape(&[]);
        prop_assert!((scalar.item() - t.sum()).abs() < 1e-2 * (1.0 + t.sum().abs()));
    }

    #[test]
    fn matmul_right_identity(m in 1usize..5, k in 1usize..5) {
        let t = Tensor::from_vec((0..m*k).map(|v| v as f32 * 0.25).collect(), &[m, k]);
        let got = t.matmul(&Tensor::eye(k));
        prop_assert_eq!(got.data(), t.data());
    }

    #[test]
    fn matmul_linearity(m in 1usize..4, k in 1usize..4, n in 1usize..4) {
        // (A + B) C == A C + B C
        let a = Tensor::from_vec((0..m*k).map(|v| (v as f32).sin()).collect(), &[m, k]);
        let b = Tensor::from_vec((0..m*k).map(|v| (v as f32).cos()).collect(), &[m, k]);
        let c = Tensor::from_vec((0..k*n).map(|v| (v as f32 * 0.3).sin()).collect(), &[k, n]);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn select_rows_then_concat_round_trips(rows in 1usize..6, cols in 1usize..6) {
        let t = Tensor::from_vec((0..rows*cols).map(|v| v as f32).collect(), &[rows, cols]);
        let parts: Vec<Tensor> = (0..rows).map(|i| t.select_rows(&[i])).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let back = Tensor::concat0(&refs);
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn one_hot_argmax_round_trips(labels in prop::collection::vec(0usize..7, 1..20)) {
        let t = Tensor::one_hot(&labels, 7);
        prop_assert_eq!(t.argmax_last(), labels);
    }
}

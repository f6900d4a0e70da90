//! Row and scalar kernels with exactly one definition each.
//!
//! The autograd [`Graph`](crate::Graph) and the tape-free inference forward
//! of `rt3-transformer` both call these functions, so the two paths perform
//! the same float operations in the same order and cannot drift apart.

use crate::matrix::Matrix;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044715;
const LAYER_NORM_EPS: f32 = 1e-5;

/// Gaussian error linear unit (tanh approximation), the Transformer FFN
/// activation used by BERT-family models.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x)).tanh())
}

/// Derivative of [`gelu`].
pub fn gelu_grad(x: f32) -> f32 {
    let inner = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x);
    let tanh_inner = inner.tanh();
    let sech2 = 1.0 - tanh_inner * tanh_inner;
    0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * x * x)
}

/// Numerically stable softmax of one row, in place.
pub fn softmax_row(row: &mut [f32]) {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for x in row.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = row.iter().sum();
    for x in row.iter_mut() {
        *x /= sum;
    }
}

/// Row-wise numerically stable softmax of a plain matrix (shared by the
/// forward op and the fused cross-entropy loss).
pub fn softmax_rows_matrix(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for i in 0..out.rows() {
        softmax_row(out.row_mut(i));
    }
    out
}

/// Layer normalisation of one row: writes the zero-mean, unit-variance row
/// to `normalized` and `normalized * gamma + beta` to `out`, and returns
/// the row's inverse standard deviation (the backward pass needs it).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn layer_norm_row(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    normalized: &mut [f32],
    out: &mut [f32],
) -> f32 {
    let n = x.len();
    assert!(
        gamma.len() == n && beta.len() == n && normalized.len() == n && out.len() == n,
        "layer norm row length mismatch"
    );
    let mean = x.iter().sum::<f32>() / n as f32;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
    let inv_std = 1.0 / (var + LAYER_NORM_EPS).sqrt();
    for j in 0..n {
        let v = (x[j] - mean) * inv_std;
        normalized[j] = v;
        out[j] = v * gamma[j] + beta[j];
    }
    inv_std
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_row_sums_to_one_and_keeps_order() {
        let mut row = [1.0, 3.0, 2.0];
        softmax_row(&mut row);
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(row[1] > row[2] && row[2] > row[0]);
    }

    #[test]
    fn layer_norm_row_normalises_then_applies_the_affine() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut normalized = [0.0; 4];
        let mut out = [0.0; 4];
        let inv_std = layer_norm_row(&x, &[2.0; 4], &[1.0; 4], &mut normalized, &mut out);
        assert!((inv_std - 1.0 / (1.25f32 + 1e-5).sqrt()).abs() < 1e-6);
        assert!(normalized.iter().sum::<f32>().abs() < 1e-5);
        for (o, n) in out.iter().zip(&normalized) {
            assert_eq!(*o, n * 2.0 + 1.0);
        }
    }

    #[test]
    fn gelu_is_near_identity_for_large_inputs_and_zero_at_zero() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(6.0) - 6.0).abs() < 1e-4);
        assert!(gelu(-6.0).abs() < 1e-4);
        assert!((gelu_grad(0.0) - 0.5).abs() < 1e-6);
    }
}

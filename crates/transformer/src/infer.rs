//! Kernels of the tape-free inference forward.
//!
//! Every function here performs exactly the float operations of the tape
//! ops it replaces, element by element and in the same order, so the
//! inference logits are bit-identical to [`TransformerLm::logits`]. A
//! masked weight is never materialised: a [`Weight`] reads the parameter
//! and its mask by reference and folds `w * m` into the row being used,
//! which is the product `Graph::mul_const` would have stored.
//!
//! [`TransformerLm::logits`]: crate::TransformerLm::logits

use crate::masks::MaskSet;
use rt3_tensor::Matrix;
use std::borrow::Cow;

/// Activation rows that share one folded weight row in [`linear`].
const ROW_BLOCK: usize = 4;

/// A parameter as the forward reads it: its value and the mask
/// `ParamBindings::bind` would multiply it by, if any.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Weight<'a> {
    value: &'a Matrix,
    mask: Option<&'a Matrix>,
}

impl<'a> Weight<'a> {
    /// Looks up the mask of parameter `{prefix}.{field}`.
    ///
    /// # Panics
    ///
    /// Panics if the mask's shape differs from the parameter's, with the
    /// message `ParamBindings::bind` uses.
    pub(crate) fn bind(
        value: &'a Matrix,
        masks: Option<&'a MaskSet>,
        prefix: &str,
        field: &str,
    ) -> Self {
        let mask = masks.and_then(|set| {
            let name = if prefix.is_empty() {
                field.to_string()
            } else {
                format!("{prefix}.{field}")
            };
            let mask = set.get(&name)?;
            assert_eq!(
                mask.shape(),
                value.shape(),
                "mask shape mismatch for parameter {}",
                name
            );
            Some(mask)
        });
        Self { value, mask }
    }

    /// Row `r` of the effective weight. A masked row is folded into `buf`,
    /// which must be as long as a row.
    fn row<'b>(&'b self, r: usize, buf: &'b mut [f32]) -> &'b [f32] {
        match self.mask {
            None => self.value.row(r),
            Some(mask) => {
                for ((o, &w), &m) in buf.iter_mut().zip(self.value.row(r)).zip(mask.row(r)) {
                    *o = w * m;
                }
                buf
            }
        }
    }

    /// The effective value of a `1 x n` parameter (a bias, `gamma` or
    /// `beta`).
    pub(crate) fn vector(&self) -> Cow<'a, [f32]> {
        match self.mask {
            None => Cow::Borrowed(self.value.row(0)),
            Some(mask) => Cow::Owned(
                self.value
                    .row(0)
                    .iter()
                    .zip(mask.row(0))
                    .map(|(&w, &m)| w * m)
                    .collect(),
            ),
        }
    }
}

/// `x · w + b` with masks folded in: the tape's `matmul` of the masked
/// weight followed by `add_row_broadcast` of the masked bias.
///
/// Each output element accumulates from `+0.0` over ascending `k`, skipping
/// zero activations as `Matrix::matmul` does, and gets its bias added last.
/// Blocks of [`ROW_BLOCK`] activation rows share each folded weight row.
///
/// # Panics
///
/// Panics if the inner dimensions or the bias width do not match.
pub(crate) fn linear(x: &Matrix, w: Weight<'_>, b: Weight<'_>) -> Matrix {
    let (rows, inner) = x.shape();
    let cols = w.value.cols();
    assert_eq!(
        inner,
        w.value.rows(),
        "matmul shape mismatch: {}x{} * {}x{}",
        rows,
        inner,
        w.value.rows(),
        cols
    );
    assert_eq!(b.value.shape(), (1, cols), "bias width mismatch");
    let mut out = Matrix::zeros(rows, cols);
    let mut folded = vec![0.0; if w.mask.is_some() { cols } else { 0 }];
    let xs = x.as_slice();
    for (block, out_block) in out
        .as_mut_slice()
        .chunks_mut(ROW_BLOCK * cols.max(1))
        .enumerate()
    {
        let first = block * ROW_BLOCK;
        let block_rows = out_block.len() / cols.max(1);
        for k in 0..inner {
            let a_at = |r: usize| xs[(first + r) * inner + k];
            if (0..block_rows).all(|r| a_at(r) == 0.0) {
                continue;
            }
            let w_row = w.row(k, &mut folded);
            for (r, out_row) in out_block.chunks_mut(cols).enumerate() {
                let a = a_at(r);
                if a == 0.0 {
                    continue;
                }
                for (o, &v) in out_row.iter_mut().zip(w_row) {
                    *o += a * v;
                }
            }
        }
    }
    let bias = b.vector();
    for r in 0..rows {
        for (o, &v) in out.row_mut(r).iter_mut().zip(bias.iter()) {
            *o += v;
        }
    }
    out
}

/// Dot products of `q` with each of `keys`: each accumulates from `+0.0`
/// over ascending positions and skips zero entries of `q`, as
/// `Matrix::matmul` does. The `N` sums are independent chains, so they
/// run side by side instead of waiting on one another.
pub(crate) fn dots<const N: usize>(q: &[f32], keys: [&[f32]; N]) -> [f32; N] {
    let mut out = [0.0; N];
    for (d, &a) in q.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (o, key) in out.iter_mut().zip(&keys) {
            *o += a * key[d];
        }
    }
    out
}

/// The embedding sum `tok[tokens[i]] + pos[i]` of the tape's two
/// `gather_rows` and `add`, with masks folded in.
///
/// # Panics
///
/// Panics if a token is out of the table's range, with the message
/// `Graph::gather_rows` uses.
pub(crate) fn embed(tokens: &[usize], tok: Weight<'_>, pos: Weight<'_>) -> Matrix {
    for &t in tokens {
        assert!(t < tok.value.rows(), "gather index {} out of bounds", t);
    }
    let cols = tok.value.cols();
    let mut out = Matrix::zeros(tokens.len(), cols);
    let mut tok_buf = vec![0.0; cols];
    let mut pos_buf = vec![0.0; cols];
    for (i, &t) in tokens.iter().enumerate() {
        let tok_row = tok.row(t, &mut tok_buf);
        let pos_row = pos.row(i, &mut pos_buf);
        for ((o, &a), &b) in out.row_mut(i).iter_mut().zip(tok_row).zip(pos_row) {
            *o = a + b;
        }
    }
    out
}

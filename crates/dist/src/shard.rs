//! Weight sharding between a serial model and its tensor-parallel shards
//! (§2.3's partitioning, Figure 5).

use megatron_tensor::layers::Linear;
use megatron_tensor::Matrix;

/// Column-parallel shard `r` of `t`: contiguous output-column range,
/// bias sharded alongside.
pub fn shard_columns(lin: &Linear, t: usize, r: usize) -> Linear {
    assert!(lin.w.cols().is_multiple_of(t), "columns must divide by t");
    let chunk = lin.w.cols() / t;
    let (c0, c1) = (r * chunk, (r + 1) * chunk);
    Linear::from_parts(
        lin.w.columns(c0, c1),
        lin.b.as_ref().map(|b| b[c0..c1].to_vec()),
    )
}

/// Row-parallel shard `r` of `t`: contiguous input-row range. The bias (if
/// any) is NOT sharded — it must be applied once after the all-reduce; the
/// caller keeps it replicated.
pub fn shard_rows(lin: &Linear, t: usize, r: usize) -> Linear {
    assert!(lin.w.rows().is_multiple_of(t), "rows must divide by t");
    let chunk = lin.w.rows() / t;
    let (r0, r1) = (r * chunk, (r + 1) * chunk);
    Linear::from_parts(lin.w.rows_slice(r0, r1), None)
}

/// Head-aware column shard of a fused QKV projection (`h × 3h`): rank `r`
/// takes its `heads/t` heads' columns from each of the Q, K, and V
/// sections, producing an `h × 3h/t` shard laid out `[q_r | k_r | v_r]`.
pub fn shard_qkv(lin: &Linear, heads: usize, t: usize, r: usize) -> Linear {
    let h3 = lin.w.cols();
    assert!(h3.is_multiple_of(3));
    let h = h3 / 3;
    assert!(heads.is_multiple_of(t) && h.is_multiple_of(heads));
    let hd = h / heads;
    let heads_local = heads / t;
    let span = heads_local * hd;
    let (c0, c1) = (r * span, (r + 1) * span);
    let parts: Vec<Matrix> = (0..3)
        .map(|sec| lin.w.columns(sec * h + c0, sec * h + c1))
        .collect();
    let w = Matrix::concat_cols(&parts);
    let b = lin.b.as_ref().map(|b| {
        let mut out = Vec::with_capacity(3 * span);
        for sec in 0..3 {
            out.extend_from_slice(&b[sec * h + c0..sec * h + c1]);
        }
        out
    });
    Linear::from_parts(w, b)
}

/// Row-parallel shard of the attention output projection (`h × h`): rank
/// `r` takes the input rows corresponding to its heads.
pub fn shard_proj(lin: &Linear, heads: usize, t: usize, r: usize) -> Linear {
    let h = lin.w.rows();
    assert!(heads.is_multiple_of(t) && h.is_multiple_of(heads));
    let span = (heads / t) * (h / heads);
    let (r0, r1) = (r * span, (r + 1) * span);
    Linear::from_parts(lin.w.rows_slice(r0, r1), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megatron_tensor::gemm;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn column_shards_reassemble_output() {
        let mut r = rng();
        let lin = Linear::new(4, 6, true, &mut r);
        let x = Matrix::randn(3, 4, 1.0, &mut r);
        let full = lin.forward(&x);
        let parts: Vec<Matrix> = (0..2)
            .map(|i| shard_columns(&lin, 2, i).forward(&x))
            .collect();
        let joined = Matrix::concat_cols(&parts);
        assert!(joined.max_abs_diff(&full) < 1e-6);
    }

    #[test]
    fn row_shards_sum_to_output() {
        let mut r = rng();
        let lin = Linear::new(6, 4, false, &mut r);
        let x = Matrix::randn(3, 6, 1.0, &mut r);
        let full = lin.forward(&x);
        let mut acc = Matrix::zeros(3, 4);
        for i in 0..3 {
            let shard = shard_rows(&lin, 3, i);
            let xs = x.columns(i * 2, (i + 1) * 2);
            acc.add_assign(&shard.forward(&xs));
        }
        assert!(acc.max_abs_diff(&full) < 1e-5);
    }

    #[test]
    fn qkv_shard_selects_head_columns() {
        let mut r = rng();
        let (h, heads, t) = (8usize, 4usize, 2usize);
        let lin = Linear::new(h, 3 * h, true, &mut r);
        let shard = shard_qkv(&lin, heads, t, 1);
        assert_eq!(shard.w.cols(), 3 * h / t);
        // Rank 1's q section = serial columns [h/2, h).
        for row in 0..h {
            for c in 0..h / t {
                assert_eq!(shard.w.get(row, c), lin.w.get(row, h / 2 + c));
                // k section offset: local h/t..2h/t ↔ serial h + h/2 ...
                assert_eq!(shard.w.get(row, h / t + c), lin.w.get(row, h + h / 2 + c));
            }
        }
        let b = shard.b.as_ref().unwrap();
        let fb = lin.b.as_ref().unwrap();
        assert_eq!(b[0], fb[h / 2]);
        assert_eq!(b[h / t], fb[h + h / 2]);
    }

    #[test]
    fn proj_shard_matches_head_rows() {
        let mut r = rng();
        let (h, heads, t) = (8usize, 4usize, 2usize);
        let lin = Linear::new(h, h, true, &mut r);
        let shard = shard_proj(&lin, heads, t, 1);
        assert_eq!(shard.w.rows(), h / t);
        assert_eq!(shard.w.get(0, 3), lin.w.get(h / 2, 3));
        assert!(shard.b.is_none(), "row-parallel bias stays replicated");
    }

    #[test]
    fn qkv_plus_attention_partition_is_lossless() {
        // Splitting QKV by heads then concatenating per-head outputs must
        // equal the serial computation (the §2.3 claim that multi-head
        // attention is inherently parallel).
        let mut r = rng();
        let (h, heads) = (8usize, 4usize);
        let lin = Linear::new(h, 3 * h, true, &mut r);
        let x = Matrix::randn(5, h, 1.0, &mut r);
        let full = lin.forward(&x);
        // Serial q section, head 2 and 3 = rank 1 of t=2.
        let q_full = full.columns(0, h);
        let shard = shard_qkv(&lin, heads, 2, 1);
        let local = shard.forward(&x);
        let q_local = local.columns(0, h / 2);
        assert!(q_local.max_abs_diff(&q_full.columns(h / 2, h)) < 1e-5);
    }

    #[test]
    fn gemm_reference_identity() {
        // Sanity: column split of W is equivalent to splitting the GEMM.
        let mut r = rng();
        let a = Matrix::randn(3, 4, 1.0, &mut r);
        let w = Matrix::randn(4, 6, 1.0, &mut r);
        let full = gemm::matmul(&a, &w);
        let left = gemm::matmul(&a, &w.columns(0, 3));
        let right = gemm::matmul(&a, &w.columns(3, 6));
        assert!(Matrix::concat_cols(&[left, right]).max_abs_diff(&full) < 1e-5);
    }
}

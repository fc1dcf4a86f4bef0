//! The tensor-parallel transformer block (§2.3, Figure 5), executing for
//! real across the threads of one tensor group.
//!
//! Per block and microbatch there are exactly two all-reduces in the
//! forward pass (the `g` operator after the attention projection and after
//! the MLP down-projection) and two in the backward pass (the `f` operator
//! at each block entry) — the communication pattern the paper's §3.2 cost
//! model charges for.

use megatron_tensor::gpt::Block;
use megatron_tensor::layers::{
    bias_residual, gelu_backward, AttentionCache, AttentionCore, LayerNorm, LayerNormCache, Linear,
    Visitor,
};
use megatron_tensor::Matrix;

use crate::comm::GroupMember;
use crate::shard;

/// One transformer block's tensor-parallel shard.
pub struct ParallelBlock {
    /// Replicated pre-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Column-parallel (head-sharded) QKV projection, `h × 3h/t`.
    pub qkv: Linear,
    /// Row-parallel attention output projection, `(h/t) × h`, bias-free.
    pub proj: Linear,
    /// Replicated projection bias (applied once, after the all-reduce).
    pub proj_bias: Vec<f32>,
    /// Gradient of the projection bias.
    pub proj_gbias: Vec<f32>,
    /// Replicated pre-MLP LayerNorm.
    pub ln2: LayerNorm,
    /// Column-parallel MLP up-projection, `h × 4h/t`.
    pub fc1: Linear,
    /// Row-parallel MLP down-projection, `(4h/t) × h`, bias-free.
    pub fc2: Linear,
    /// Replicated down-projection bias.
    pub fc2_bias: Vec<f32>,
    /// Gradient of the down-projection bias.
    pub fc2_gbias: Vec<f32>,
    heads_local: usize,
    head_dim: usize,
}

/// Forward cache of a [`ParallelBlock`].
pub struct ParallelBlockCache {
    ln1: LayerNormCache,
    h1: Matrix,
    qkv: Matrix,
    attn: AttentionCache,
    attn_out: Matrix,
    ln2: LayerNormCache,
    h2: Matrix,
    f: Matrix,
    g: Matrix,
}

impl ParallelBlockCache {
    /// Total `f32` values held by this cache (for activation-memory
    /// instrumentation, §3.5).
    pub fn float_count(&self) -> usize {
        self.h1.len()
            + self.qkv.len()
            + self.attn_out.len()
            + self.h2.len()
            + self.f.len()
            + self.g.len()
            // Attention probabilities (the 5·a·s²·b/t term) and both
            // LayerNorm caches.
            + self.attn.float_count()
            + 2 * self.h1.len()
    }
}

impl ParallelBlock {
    /// Extract rank `r` of `t`'s shard from a serial block with `heads`
    /// attention heads.
    pub fn from_serial(block: &Block, heads: usize, t: usize, r: usize) -> Self {
        let h = block.proj.w.cols();
        let hd = h / heads;
        ParallelBlock {
            ln1: block.ln1.clone(),
            qkv: shard::shard_qkv(&block.qkv, heads, t, r),
            proj: shard::shard_proj(&block.proj, heads, t, r),
            proj_bias: block.proj.b.clone().expect("serial proj has bias"),
            proj_gbias: vec![0.0; h],
            ln2: block.ln2.clone(),
            fc1: shard::shard_columns(&block.fc1, t, r),
            fc2: shard::shard_rows(&block.fc2, t, r),
            fc2_bias: block.fc2.b.clone().expect("serial fc2 has bias"),
            fc2_gbias: vec![0.0; h],
            heads_local: heads / t,
            head_dim: hd,
        }
    }

    fn core(&self, batch: usize, seq: usize) -> AttentionCore {
        AttentionCore {
            batch,
            seq,
            heads: self.heads_local,
            head_dim: self.head_dim,
        }
    }

    /// Forward pass; `x` is replicated across the tensor group.
    pub fn forward(
        &self,
        x: &Matrix,
        batch: usize,
        seq: usize,
        comm: &GroupMember,
    ) -> (Matrix, ParallelBlockCache) {
        let (h1, ln1_cache) = self.ln1.forward(x);
        // f operator: identity in the forward pass.
        let qkv = self.qkv.forward(&h1);
        let (attn_out, attn_cache) = self.core(batch, seq).forward(&qkv);
        let mut x2 = self.proj.forward(&attn_out);
        // g operator: all-reduce partial sums across the tensor group; the
        // replicated bias goes on once, after it, fused with the residual.
        comm.all_reduce_sum(x2.as_mut_slice());
        bias_residual(&mut x2, &self.proj_bias, x);
        let (h2, ln2_cache) = self.ln2.forward(&x2);
        let (f, g) = self.fc1.forward_gelu(&h2);
        let mut o = self.fc2.forward(&g);
        comm.all_reduce_sum(o.as_mut_slice());
        bias_residual(&mut o, &self.fc2_bias, &x2);
        (
            o,
            ParallelBlockCache {
                ln1: ln1_cache,
                h1,
                qkv,
                attn: attn_cache,
                attn_out,
                ln2: ln2_cache,
                h2,
                f,
                g,
            },
        )
    }

    /// Backward pass; `dout` is replicated. Returns the (all-reduced,
    /// replicated) input gradient.
    pub fn backward(
        &mut self,
        cache: &ParallelBlockCache,
        dout: &Matrix,
        batch: usize,
        seq: usize,
        comm: &GroupMember,
    ) -> Matrix {
        // MLP branch. Row-parallel backward is the identity (g conjugate).
        for rr in 0..dout.rows() {
            for (gb, d) in self.fc2_gbias.iter_mut().zip(dout.row(rr)) {
                *gb += d;
            }
        }
        let mut df = self.fc2.backward(&cache.g, dout);
        gelu_backward(&cache.f, &mut df);
        let mut dh2 = self.fc1.backward(&cache.h2, &df);
        // f operator backward: all-reduce the partial input gradient.
        comm.all_reduce_sum(dh2.as_mut_slice());
        let mut dx2 = self.ln2.backward(&cache.ln2, &dh2);
        dx2.add_assign(dout);

        // Attention branch.
        for rr in 0..dx2.rows() {
            for (gb, d) in self.proj_gbias.iter_mut().zip(dx2.row(rr)) {
                *gb += d;
            }
        }
        let dattn = self.proj.backward(&cache.attn_out, &dx2);
        let dqkv = self
            .core(batch, seq)
            .backward(&cache.qkv, &cache.attn, &dattn);
        let mut dh1 = self.qkv.backward(&cache.h1, &dqkv);
        comm.all_reduce_sum(dh1.as_mut_slice());
        let mut dx = self.ln1.backward(&cache.ln1, &dh1);
        dx.add_assign(&dx2);
        dx
    }

    /// Visit (param, grad) pairs (shards and replicated parameters alike).
    pub fn visit(&mut self, f: &mut impl Visitor) {
        self.ln1.visit(f);
        self.qkv.visit(f);
        self.proj.visit(f);
        f.pair(&mut self.proj_bias, &mut self.proj_gbias);
        self.ln2.visit(f);
        self.fc1.visit(f);
        self.fc2.visit(f);
        f.pair(&mut self.fc2_bias, &mut self.fc2_gbias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Group;
    use rand::SeedableRng;
    use std::thread;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    /// Run a closure on each rank of a fresh tensor group.
    fn with_group<T: Send>(t: usize, f: impl Fn(GroupMember) -> T + Sync) -> Vec<T> {
        let group = Group::new(t);
        thread::scope(|s| {
            let hs: Vec<_> = (0..t)
                .map(|r| {
                    let m = group.member(r);
                    s.spawn(|| f(m))
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn parallel_forward_matches_serial() {
        let mut r = rng();
        let (h, heads, batch, seq) = (8usize, 4usize, 2usize, 5usize);
        let block = Block::new(h, heads, &mut r);
        let x = Matrix::randn(batch * seq, h, 1.0, &mut r);
        let (serial_out, _) = block.forward(&x, batch, seq);

        for t in [1usize, 2, 4] {
            let outs = with_group(t, |m| {
                let pb = ParallelBlock::from_serial(&block, heads, t, m.rank());
                let (out, _) = pb.forward(&x, batch, seq, &m);
                out
            });
            for (ti, out) in outs.iter().enumerate() {
                let d = out.max_abs_diff(&serial_out);
                assert!(d < 1e-4, "t={t} rank {ti}: diff {d}");
            }
        }
    }

    #[test]
    fn parallel_backward_input_grad_matches_serial() {
        let mut r = rng();
        let (h, heads, batch, seq) = (8usize, 4usize, 1usize, 4usize);
        let block = Block::new(h, heads, &mut r);
        let x = Matrix::randn(batch * seq, h, 1.0, &mut r);
        let dout = Matrix::randn(batch * seq, h, 1.0, &mut r);

        let mut serial = block.clone();
        let (_, cache) = serial.forward(&x, batch, seq);
        let serial_dx = serial.backward(&cache, &dout, batch, seq);

        let dxs = with_group(2, |m| {
            let mut pb = ParallelBlock::from_serial(&block, heads, 2, m.rank());
            let (_, cache) = pb.forward(&x, batch, seq, &m);
            pb.backward(&cache, &dout, batch, seq, &m)
        });
        for dx in &dxs {
            let d = dx.max_abs_diff(&serial_dx);
            assert!(d < 1e-4, "diff {d}");
        }
    }

    #[test]
    fn parallel_weight_grads_match_serial_shards() {
        let mut r = rng();
        let (h, heads, batch, seq) = (8usize, 4usize, 1usize, 4usize);
        let block = Block::new(h, heads, &mut r);
        let x = Matrix::randn(batch * seq, h, 1.0, &mut r);
        let dout = Matrix::randn(batch * seq, h, 1.0, &mut r);

        let mut serial = block.clone();
        let (_, cache) = serial.forward(&x, batch, seq);
        serial.backward(&cache, &dout, batch, seq);

        let shards = with_group(2, |m| {
            let mut pb = ParallelBlock::from_serial(&block, heads, 2, m.rank());
            let (_, cache) = pb.forward(&x, batch, seq, &m);
            pb.backward(&cache, &dout, batch, seq, &m);
            (
                m.rank(),
                pb.fc1.gw().clone(),
                pb.qkv.gw().clone(),
                pb.ln1.ggamma.clone(),
            )
        });
        for (rank, fc1_gw, qkv_gw, ln1_gg) in shards {
            // fc1 gradient shard = serial gradient's column slice.
            let want_fc1 = serial.fc1.gw().columns(rank * 2 * h, (rank + 1) * 2 * h);
            assert!(fc1_gw.max_abs_diff(&want_fc1) < 1e-4, "rank {rank} fc1");
            // qkv gradient shard: check the q-section columns.
            let local = h / 2;
            let want_q = serial.qkv.gw().columns(rank * local, (rank + 1) * local);
            assert!(
                qkv_gw.columns(0, local).max_abs_diff(&want_q) < 1e-4,
                "rank {rank} qkv"
            );
            // Replicated LayerNorm gradients equal the serial ones.
            for (a, b) in ln1_gg.iter().zip(&serial.ln1.ggamma) {
                assert!((a - b).abs() < 1e-4, "rank {rank} ln1");
            }
        }
    }

    #[test]
    fn replicated_grads_identical_across_ranks() {
        let mut r = rng();
        let (h, heads, batch, seq) = (8usize, 2usize, 1usize, 3usize);
        let block = Block::new(h, heads, &mut r);
        let x = Matrix::randn(batch * seq, h, 1.0, &mut r);
        let dout = Matrix::randn(batch * seq, h, 1.0, &mut r);
        let results = with_group(2, |m| {
            let mut pb = ParallelBlock::from_serial(&block, heads, 2, m.rank());
            let (_, cache) = pb.forward(&x, batch, seq, &m);
            pb.backward(&cache, &dout, batch, seq, &m);
            (pb.proj_gbias.clone(), pb.ln2.gbeta.clone())
        });
        assert_eq!(results[0].0, results[1].0, "proj bias grads diverged");
        assert_eq!(results[0].1, results[1].1, "ln2 grads diverged");
    }
}

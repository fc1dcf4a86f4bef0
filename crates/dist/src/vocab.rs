//! Vocab-parallel embedding and output layer (Megatron's actual layout):
//! the token-embedding table and the LM head are sharded over the
//! vocabulary dimension across the tensor group, and the cross-entropy is
//! computed *without ever materializing the full logits* on any rank —
//! max and sum-exp statistics travel through two small all-reduces.

use megatron_tensor::elementwise::exp_minus;
use megatron_tensor::layers::{Embedding, Linear, Visitor};
use megatron_tensor::Matrix;

use crate::comm::GroupMember;

/// Token + position embedding with the token table sharded by vocabulary
/// range (`rank r` owns rows `[r·V/t, (r+1)·V/t)`).
pub struct VocabParallelEmbedding {
    /// This rank's token rows, `(V/t) × h`.
    pub tokens: Matrix,
    /// Token-shard gradient.
    pub gtokens: Matrix,
    /// Replicated position table, `s × h`.
    pub positions: Matrix,
    /// Position-table gradient (identical across ranks).
    pub gpositions: Matrix,
    vocab_start: usize,
    vocab_end: usize,
}

impl VocabParallelEmbedding {
    /// Shard rank `r` of `t` from a serial [`Embedding`].
    pub fn from_serial(embed: &Embedding, t: usize, r: usize) -> Self {
        let vocab = embed.tokens.rows();
        assert!(vocab.is_multiple_of(t), "vocab must divide by t");
        let chunk = vocab / t;
        let (lo, hi) = (r * chunk, (r + 1) * chunk);
        VocabParallelEmbedding {
            tokens: embed.tokens.rows_slice(lo, hi),
            gtokens: Matrix::zeros(chunk, embed.tokens.cols()),
            positions: embed.positions.clone(),
            gpositions: Matrix::zeros(embed.positions.rows(), embed.positions.cols()),
            vocab_start: lo,
            vocab_end: hi,
        }
    }

    /// Forward: local lookup (out-of-shard tokens contribute zero), then an
    /// all-reduce re-materializes the full embedding; positions are added
    /// after the reduction (they are replicated).
    pub fn forward(&self, token_ids: &[usize], seq: usize, comm: &GroupMember) -> Matrix {
        let h = self.tokens.cols();
        let mut out = Matrix::zeros(token_ids.len(), h);
        for (row, &tok) in token_ids.iter().enumerate() {
            if tok >= self.vocab_start && tok < self.vocab_end {
                out.row_mut(row)
                    .copy_from_slice(self.tokens.row(tok - self.vocab_start));
            }
        }
        comm.all_reduce_sum(out.as_mut_slice());
        for row in 0..token_ids.len() {
            for (d, &p) in out
                .row_mut(row)
                .iter_mut()
                .zip(self.positions.row(row % seq))
            {
                *d += p;
            }
        }
        out
    }

    /// Backward: scatter-add into the owned shard only; position gradients
    /// accumulate identically on every rank.
    pub fn backward(&mut self, token_ids: &[usize], seq: usize, dy: &Matrix) {
        for (row, &tok) in token_ids.iter().enumerate() {
            let add = |table_row: &mut [f32]| {
                for (t, &g) in table_row.iter_mut().zip(dy.row(row)) {
                    *t += g;
                }
            };
            if tok >= self.vocab_start && tok < self.vocab_end {
                add(self.gtokens.row_mut(tok - self.vocab_start));
            }
            add(self.gpositions.row_mut(row % seq));
        }
    }

    /// Visit (param, grad) pairs.
    pub fn visit(&mut self, f: &mut impl Visitor) {
        f.pair(self.tokens.as_mut_slice(), self.gtokens.as_mut_slice());
        f.pair(
            self.positions.as_mut_slice(),
            self.gpositions.as_mut_slice(),
        );
    }
}

/// Column-parallel LM head (`h × V/t` shard) with distributed cross-entropy.
pub struct VocabParallelHead {
    /// This rank's logit columns.
    pub w: Linear,
    vocab_start: usize,
    vocab_end: usize,
}

/// Cache for [`VocabParallelHead::backward_partial`].
pub struct VocabHeadCache {
    /// Local `∂loss/∂logits` shard.
    pub dlogits: Matrix,
}

impl VocabParallelHead {
    /// Shard rank `r` of `t` from a serial LM head (`h × V`, bias-free).
    pub fn from_serial(head: &Linear, t: usize, r: usize) -> Self {
        assert!(head.b.is_none(), "LM head must be bias-free");
        let vocab = head.w.cols();
        assert!(vocab.is_multiple_of(t), "vocab must divide by t");
        let chunk = vocab / t;
        let (lo, hi) = (r * chunk, (r + 1) * chunk);
        VocabParallelHead {
            w: Linear::from_parts(head.w.columns(lo, hi), None),
            vocab_start: lo,
            vocab_end: hi,
        }
    }

    /// Forward + distributed cross-entropy: returns the (replicated) mean
    /// loss and the cache for backward. No rank ever holds full logits.
    pub fn forward_loss(
        &self,
        hidden: &Matrix,
        targets: &[usize],
        comm: &GroupMember,
    ) -> (f32, VocabHeadCache) {
        assert_eq!(hidden.rows(), targets.len());
        let logits = self.w.forward(hidden); // N × V/t
        let n = targets.len();

        // Row maxima across the full vocabulary (all-reduce max).
        let mut maxes: Vec<f32> = (0..n)
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .fold(f32::NEG_INFINITY, |a, &b| a.max(b))
            })
            .collect();
        comm.all_reduce_max(&mut maxes);

        // Row Σexp over the full vocabulary, plus the target logit (owned
        // by exactly one rank; others contribute zero). The exponentials
        // stay in `dlogits`: one `exp` per logit.
        let mut dlogits = Matrix::zeros(n, logits.cols());
        let mut stats = vec![0.0f32; 2 * n];
        for r in 0..n {
            exp_minus(logits.row(r), maxes[r], dlogits.row_mut(r));
            stats[r] = dlogits.row(r).iter().sum();
            let t = targets[r];
            if t >= self.vocab_start && t < self.vocab_end {
                stats[n + r] = logits.get(r, t - self.vocab_start);
            }
        }
        comm.all_reduce_sum(&mut stats);

        let mut loss = 0.0f32;
        for r in 0..n {
            let (z, tl, m) = (stats[r], stats[n + r], maxes[r]);
            loss += z.ln() + m - tl;
            let drow = dlogits.row_mut(r);
            // This rank's column of the target, if it owns it, and the
            // target's probability.
            let owned = (self.vocab_start..self.vocab_end).contains(&targets[r]);
            let target = owned.then(|| targets[r] - self.vocab_start);
            let target = target.map(|c| (c, drow[c] / z));
            for d in drow.iter_mut() {
                *d = *d / z / n as f32;
            }
            if let Some((c, p)) = target {
                drow[c] = (p - 1.0) / n as f32;
            }
        }
        (loss / n as f32, VocabHeadCache { dlogits })
    }

    /// Backward: accumulate the weight-shard gradient and return the
    /// (partial) hidden gradient — the caller must all-reduce it across the
    /// tensor group (the `f`-operator of the vocab-parallel GEMM).
    pub fn backward_partial(&mut self, hidden: &Matrix, cache: &VocabHeadCache) -> Matrix {
        self.w.backward(hidden, &cache.dlogits)
    }

    /// Visit (param, grad) pairs.
    pub fn visit(&mut self, f: &mut impl Visitor) {
        self.w.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Group;
    use megatron_tensor::layers::cross_entropy;
    use rand::SeedableRng;
    use std::thread;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(321)
    }

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
    fn vocab_parallel_embedding_matches_serial() {
        let mut r = rng();
        let mut serial = Embedding::new(12, 4, 6, &mut r);
        let toks = [0usize, 5, 11, 3];
        let want = serial.forward(&toks, 4);
        let outs = with_group(4, |m| {
            let emb = VocabParallelEmbedding::from_serial(&serial, 4, m.rank());
            emb.forward(&toks, 4, &m)
        });
        for out in &outs {
            assert!(out.max_abs_diff(&want) < 1e-5);
        }
        // Gradients: shard scatter matches serial scatter rows.
        let dy = Matrix::from_fn(4, 6, |r, c| (r + c) as f32);
        serial.backward(&toks, 4, &dy);
        let shards = with_group(4, |m| {
            let mut emb = VocabParallelEmbedding::from_serial(&serial, 4, m.rank());
            emb.backward(&toks, 4, &dy);
            (m.rank(), emb.gtokens.clone(), emb.gpositions.clone())
        });
        for (rank, gt, gp) in shards {
            let want_gt = serial.gtokens.rows_slice(rank * 3, (rank + 1) * 3);
            assert!(gt.max_abs_diff(&want_gt) < 1e-5, "rank {rank} token grads");
            assert!(gp.max_abs_diff(&serial.gpositions) < 1e-5, "rank {rank}");
        }
    }

    #[test]
    fn distributed_cross_entropy_matches_serial() {
        let mut r = rng();
        let (h, v, n) = (6usize, 12usize, 5usize);
        let head = Linear::new(h, v, false, &mut r);
        let hidden = Matrix::randn(n, h, 1.0, &mut r);
        let targets = [0usize, 3, 7, 11, 5];

        // Serial reference.
        let logits = head.forward(&hidden);
        let (want_loss, want_dlogits) = cross_entropy(&logits, &targets);

        for t in [1usize, 2, 4] {
            let results = with_group(t, |m| {
                let hd = VocabParallelHead::from_serial(&head, t, m.rank());
                let (loss, cache) = hd.forward_loss(&hidden, &targets, &m);
                (m.rank(), loss, cache.dlogits)
            });
            for (rank, loss, dlogits) in results {
                assert!(
                    (loss - want_loss).abs() < 1e-5,
                    "t={t} rank {rank}: {loss} vs {want_loss}"
                );
                let chunk = v / t;
                let want = want_dlogits.columns(rank * chunk, (rank + 1) * chunk);
                assert!(dlogits.max_abs_diff(&want) < 1e-5, "t={t} rank {rank}");
            }
        }
    }

    #[test]
    fn distributed_head_backward_matches_serial() {
        let mut r = rng();
        let (h, v, n) = (6usize, 8usize, 4usize);
        let head = Linear::new(h, v, false, &mut r);
        let hidden = Matrix::randn(n, h, 1.0, &mut r);
        let targets = [1usize, 2, 3, 4];

        let mut serial = head.clone();
        let logits = serial.forward(&hidden);
        let (_, dlogits) = cross_entropy(&logits, &targets);
        let want_dhidden = serial.backward(&hidden, &dlogits);

        let results = with_group(2, |m| {
            let mut hd = VocabParallelHead::from_serial(&head, 2, m.rank());
            let (_, cache) = hd.forward_loss(&hidden, &targets, &m);
            let mut dh = hd.backward_partial(&hidden, &cache);
            m.all_reduce_sum(dh.as_mut_slice());
            (m.rank(), dh, hd.w.gw().clone())
        });
        for (rank, dh, gw) in results {
            assert!(dh.max_abs_diff(&want_dhidden) < 1e-5, "rank {rank} dhidden");
            let want_gw = serial.gw().columns(rank * 4, (rank + 1) * 4);
            assert!(gw.max_abs_diff(&want_gw) < 1e-5, "rank {rank} gw");
        }
    }

    #[test]
    fn no_rank_holds_full_logits() {
        // Structural: the local dlogits shard has V/t columns.
        let mut r = rng();
        let head = Linear::new(4, 8, false, &mut r);
        let hidden = Matrix::randn(3, 4, 1.0, &mut r);
        let results = with_group(4, |m| {
            let hd = VocabParallelHead::from_serial(&head, 4, m.rank());
            let (_, cache) = hd.forward_loss(&hidden, &[0, 1, 2], &m);
            cache.dlogits.cols()
        });
        assert!(results.iter().all(|&c| c == 2));
    }
}

//! Vocab-parallel embedding and output layer — Megatron's layout, and the
//! trainer's only one at every tensor-parallel size `t`: the
//! token-embedding table and the LM head are sharded over the vocabulary
//! dimension across the tensor group, and the cross-entropy is computed
//! *without ever materializing the full logits* on any rank — max and
//! sum-exp statistics travel through two small all-reduces.
//!
//! Rank `r` owns the vocabulary range [`chunk_of`]`(V, t, r)`, the
//! ceil-partition the collectives cut their buffers by, so `t` need not
//! divide `V`: the shards may be uneven, and the last ones may be empty
//! (`V = 3, t = 4` leaves rank 3 no row). An empty shard looks up nothing
//! and contributes a `−∞` maximum and a zero sum. At `t = 1` the one shard
//! is the whole table, the one-member collectives return at once, and every
//! result carries the bits of the serial [`Embedding`],
//! [`cross_entropy`](megatron_tensor::layers::cross_entropy) and
//! [`Linear::backward`].

use std::ops::Range;

use megatron_collective::chunk_of;
use megatron_tensor::elementwise::exp_minus;
use megatron_tensor::layers::{Embedding, Linear, Visitor};
use megatron_tensor::Matrix;

use crate::comm::GroupMember;

/// Rank `r` of `t`'s vocabulary range.
fn owned(vocab: usize, t: usize, r: usize) -> Range<usize> {
    let c = chunk_of(vocab, t, r);
    c.lo..c.hi
}

/// Token + position embedding with the token table sharded by vocabulary
/// range.
pub struct VocabParallelEmbedding {
    /// This rank's token rows, `|owned| × h`.
    pub tokens: Matrix,
    /// Token-shard gradient.
    pub gtokens: Matrix,
    /// Replicated position table, `s × h`.
    pub positions: Matrix,
    /// Position-table gradient (identical across ranks).
    pub gpositions: Matrix,
    owned: Range<usize>,
}

impl VocabParallelEmbedding {
    /// Shard rank `r` of `t` from a serial [`Embedding`].
    pub fn from_serial(embed: &Embedding, t: usize, r: usize) -> Self {
        let owned = owned(embed.tokens.rows(), t, r);
        VocabParallelEmbedding {
            tokens: embed.tokens.rows_slice(owned.start, owned.end),
            gtokens: Matrix::zeros(owned.len(), embed.tokens.cols()),
            positions: embed.positions.clone(),
            gpositions: Matrix::zeros(embed.positions.rows(), embed.positions.cols()),
            owned,
        }
    }

    /// Forward: local lookup (out-of-shard tokens contribute zero), then an
    /// all-reduce re-materializes the full embedding; positions are added
    /// after the reduction (they are replicated).
    pub fn forward(&self, token_ids: &[usize], seq: usize, comm: &GroupMember) -> Matrix {
        let h = self.tokens.cols();
        let mut out = Matrix::zeros(token_ids.len(), h);
        for (row, &tok) in token_ids.iter().enumerate() {
            if self.owned.contains(&tok) {
                out.row_mut(row)
                    .copy_from_slice(self.tokens.row(tok - self.owned.start));
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
            if self.owned.contains(&tok) {
                add(self.gtokens.row_mut(tok - self.owned.start));
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

/// Column-parallel LM head (`h × |owned|` shard) with distributed
/// cross-entropy.
pub struct VocabParallelHead {
    /// This rank's logit columns.
    pub w: Linear,
    owned: Range<usize>,
}

impl VocabParallelHead {
    /// Shard rank `r` of `t` from a serial LM head (`h × V`, bias-free).
    pub fn from_serial(head: &Linear, t: usize, r: usize) -> Self {
        assert!(head.b.is_none(), "LM head must be bias-free");
        let owned = owned(head.w.cols(), t, r);
        VocabParallelHead {
            w: Linear::from_parts(head.w.columns(owned.start, owned.end), None),
            owned,
        }
    }

    /// Forward + distributed cross-entropy: returns the (replicated) mean
    /// loss and this rank's `∂loss/∂logits` columns, the backward's cache.
    /// No rank ever holds full logits.
    pub fn forward_loss(
        &self,
        hidden: &Matrix,
        targets: &[usize],
        comm: &GroupMember,
    ) -> (f32, Matrix) {
        assert_eq!(hidden.rows(), targets.len());
        let logits = self.w.forward(hidden); // N × |owned|
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
            if self.owned.contains(&targets[r]) {
                stats[n + r] = logits.get(r, targets[r] - self.owned.start);
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
            let target = self.owned.contains(&targets[r]).then(|| {
                let c = targets[r] - self.owned.start;
                (c, drow[c] / z)
            });
            for d in drow.iter_mut() {
                *d = *d / z / n as f32;
            }
            if let Some((c, p)) = target {
                drow[c] = (p - 1.0) / n as f32;
            }
        }
        (loss / n as f32, dlogits)
    }

    /// Backward: accumulate the weight-shard gradient and return the hidden
    /// gradient, all-reduced across the tensor group from each rank's
    /// partial over its columns (the `f`-operator of the vocab-parallel
    /// GEMM).
    pub fn backward(&mut self, hidden: &Matrix, dlogits: &Matrix, comm: &GroupMember) -> Matrix {
        let mut dx = self.w.backward(hidden, dlogits);
        comm.all_reduce_sum(dx.as_mut_slice());
        dx
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

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `(V, t)` cases of the sharded layers: even shards, uneven shards
    /// (`t ∤ V`), and more ranks than tokens (an empty shard).
    const CASES: [(usize, usize); 6] = [(12, 1), (12, 2), (12, 4), (13, 2), (13, 4), (3, 4)];

    #[test]
    fn sharded_embedding_matches_serial() {
        let toks = [0usize, 5, 11, 3, 2, 12];
        for (v, t) in CASES {
            let mut r = rng();
            let mut serial = Embedding::new(v, 4, 6, &mut r);
            let toks: Vec<usize> = toks.iter().map(|&k| k % v).collect();
            let want = serial.forward(&toks, 4);
            let outs = with_group(t, |m| {
                let emb = VocabParallelEmbedding::from_serial(&serial, t, m.rank());
                emb.forward(&toks, 4, &m)
            });
            for out in &outs {
                if t == 1 {
                    assert_eq!(bits(out), bits(&want), "V={v} t=1 output bits");
                }
                assert!(out.max_abs_diff(&want) < 1e-5, "V={v} t={t}");
            }
            // Gradients: shard scatter matches serial scatter rows.
            let dy = Matrix::from_fn(toks.len(), 6, |r, c| (r + c) as f32 * 0.37);
            serial.backward(&toks, 4, &dy);
            let shards = with_group(t, |m| {
                let mut emb = VocabParallelEmbedding::from_serial(&serial, t, m.rank());
                emb.backward(&toks, 4, &dy);
                (m.rank(), emb)
            });
            let mut rows = 0;
            for (rank, emb) in &shards {
                let c = chunk_of(v, t, *rank);
                assert_eq!(emb.tokens.rows(), c.hi - c.lo, "V={v} t={t} rank {rank}");
                rows += emb.tokens.rows();
                let want_gt = serial.gtokens.rows_slice(c.lo, c.hi);
                assert_eq!(
                    bits(&emb.gtokens),
                    bits(&want_gt),
                    "V={v} t={t} rank {rank}"
                );
                let gp = bits(&emb.gpositions);
                assert_eq!(gp, bits(&serial.gpositions), "V={v} t={t} rank {rank}");
            }
            assert_eq!(rows, v, "V={v} t={t}: the shards cover the vocabulary");
        }
    }

    #[test]
    fn distributed_cross_entropy_matches_serial() {
        let (h, n) = (6usize, 5usize);
        for (v, t) in CASES {
            let mut r = rng();
            let head = Linear::new(h, v, false, &mut r);
            let hidden = Matrix::randn(n, h, 1.0, &mut r);
            let targets: Vec<usize> = [0usize, 3, 7, 11, 5].iter().map(|&k| k % v).collect();

            // Serial reference.
            let logits = head.forward(&hidden);
            let (want_loss, want_dlogits) = cross_entropy(&logits, &targets);

            let results = with_group(t, |m| {
                let hd = VocabParallelHead::from_serial(&head, t, m.rank());
                let (loss, dlogits) = hd.forward_loss(&hidden, &targets, &m);
                (m.rank(), loss, dlogits)
            });
            for (rank, loss, dlogits) in results {
                let c = chunk_of(v, t, rank);
                let want = want_dlogits.columns(c.lo, c.hi);
                if t == 1 {
                    assert_eq!(loss.to_bits(), want_loss.to_bits(), "V={v}: loss bits");
                    assert_eq!(bits(&dlogits), bits(&want), "V={v}: dlogits bits");
                }
                assert!(
                    (loss - want_loss).abs() < 1e-5,
                    "V={v} t={t} rank {rank}: {loss} vs {want_loss}"
                );
                assert_eq!(dlogits.cols(), c.hi - c.lo, "V={v} t={t} rank {rank}");
                assert!(
                    dlogits.max_abs_diff(&want) < 1e-5,
                    "V={v} t={t} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn distributed_head_backward_matches_serial() {
        let (h, n) = (6usize, 4usize);
        for (v, t) in CASES {
            let mut r = rng();
            let head = Linear::new(h, v, false, &mut r);
            let hidden = Matrix::randn(n, h, 1.0, &mut r);
            let targets: Vec<usize> = [1usize, 2, 3, 4].iter().map(|&k| k % v).collect();

            let mut serial = head.clone();
            let logits = serial.forward(&hidden);
            let (_, dlogits) = cross_entropy(&logits, &targets);
            let want_dhidden = serial.backward(&hidden, &dlogits);

            let results = with_group(t, |m| {
                let mut hd = VocabParallelHead::from_serial(&head, t, m.rank());
                let (_, dlogits) = hd.forward_loss(&hidden, &targets, &m);
                let dh = hd.backward(&hidden, &dlogits, &m);
                (m.rank(), dh, hd.w.gw().clone())
            });
            for (rank, dh, gw) in results {
                let c = chunk_of(v, t, rank);
                let want_gw = serial.gw().columns(c.lo, c.hi);
                if t == 1 {
                    assert_eq!(bits(&dh), bits(&want_dhidden), "V={v}: dhidden bits");
                    assert_eq!(bits(&gw), bits(&want_gw), "V={v}: gw bits");
                }
                let tol = 1e-5;
                assert!(
                    dh.max_abs_diff(&want_dhidden) < tol,
                    "V={v} t={t} rank {rank} dhidden"
                );
                assert!(
                    gw.max_abs_diff(&want_gw) < tol,
                    "V={v} t={t} rank {rank} gw"
                );
            }
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
            let (_, dlogits) = hd.forward_loss(&hidden, &[0, 1, 2], &m);
            dlogits.cols()
        });
        assert!(results.iter().all(|&c| c == 2));
    }
}

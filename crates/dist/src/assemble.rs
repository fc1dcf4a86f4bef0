//! Reassemble a full serial model from the shards a PTD-P training run
//! leaves behind — the practical counterpart of §5.10's checkpointing:
//! every thread's final parameters (as recorded in
//! [`TrainLog::final_params`](crate::TrainLog)) are merged back into one
//! [`GptModel`] that can be evaluated or used to seed a
//! differently-parallelized continuation run. The durable checkpoint layer
//! ([`crate::checkpoint`]) runs the same merge over a generation's shard
//! files when a restore asks for another (p, t, d).

use megatron_tensor::gpt::{Block, GptModel, TinyGptConfig};
use megatron_tensor::layers::{Embedding, LayerNorm, Linear};
use megatron_tensor::Matrix;
use rand::SeedableRng;

use crate::trainer::{PtdpSpec, ThreadKey, TrainLog};
use crate::vocab::{VocabParallelEmbedding, VocabParallelHead};

/// Inverse of `shard::shard_columns`: concatenate column shards.
fn unshard_columns(shards: &[&Linear]) -> Linear {
    let ws: Vec<Matrix> = shards.iter().map(|l| l.w.clone()).collect();
    let w = Matrix::concat_cols(&ws);
    let b = shards[0].b.as_ref().map(|_| {
        shards
            .iter()
            .flat_map(|l| l.b.as_ref().expect("consistent bias").clone())
            .collect::<Vec<f32>>()
    });
    Linear::from_parts(w, b)
}

/// Inverse of [`VocabParallelEmbedding::from_serial`]: stack the token
/// tables' vocab shards; the position table is replicated.
fn unshard_embedding(shards: &[&VocabParallelEmbedding]) -> Embedding {
    let parts: Vec<Matrix> = shards.iter().map(|s| s.tokens.clone()).collect();
    let tokens = Matrix::concat_rows(&parts);
    let positions = shards[0].positions.clone();
    Embedding {
        gtokens: Matrix::zeros(tokens.rows(), tokens.cols()),
        gpositions: Matrix::zeros(positions.rows(), positions.cols()),
        tokens,
        positions,
    }
}

/// Inverse of `shard::shard_rows` / `shard_proj`: stack row shards; the
/// replicated bias is supplied separately.
fn unshard_rows(shards: &[&Linear], bias: Option<Vec<f32>>) -> Linear {
    let ws: Vec<Matrix> = shards.iter().map(|l| l.w.clone()).collect();
    let w = Matrix::concat_rows(&ws);
    Linear::from_parts(w, bias)
}

/// Inverse of `shard::shard_qkv`: each rank's `[q_r | k_r | v_r]` shard is
/// split into its three sections and the sections concatenated rank-major.
fn unshard_qkv(shards: &[&Linear]) -> Linear {
    let t = shards.len();
    let local = shards[0].w.cols() / 3;
    let mut sections: Vec<Vec<Matrix>> = (0..3).map(|_| Vec::with_capacity(t)).collect();
    let mut bias_sections: Vec<Vec<f32>> = vec![Vec::new(); 3];
    for l in shards {
        for sec in 0..3 {
            sections[sec].push(l.w.columns(sec * local, (sec + 1) * local));
            if let Some(b) = &l.b {
                bias_sections[sec].extend_from_slice(&b[sec * local..(sec + 1) * local]);
            }
        }
    }
    let parts: Vec<Matrix> = sections
        .into_iter()
        .map(|s| Matrix::concat_cols(&s))
        .collect();
    let w = Matrix::concat_cols(&parts);
    let b = shards[0]
        .b
        .is_some()
        .then(|| bias_sections.into_iter().flatten().collect::<Vec<f32>>());
    Linear::from_parts(w, b)
}

/// Merge per-thread flat parameter vectors (one per `(pi, ti)` shard, in
/// each thread's visit order) back into one serial [`GptModel`]. The same
/// machinery unshards *any* vector positionally aligned with the
/// parameters — a cross-topology checkpoint restore feeds it the Adam
/// moment vectors too. `Err` names a shard whose length is not what
/// `cfg` under `spec` gives that thread.
pub(crate) fn assemble_from_flat<'a>(
    cfg: TinyGptConfig,
    spec: &PtdpSpec,
    flat_of: &dyn Fn(usize, usize) -> &'a [f32],
) -> Result<GptModel, String> {
    let (p, t, v) = (spec.pipeline, spec.tensor, spec.chunks);
    let stages = p * v;
    let layers_per_stage = cfg.layers / stages;

    // Rebuild each thread's structured shard from its flat parameters.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let template = GptModel::new(cfg, &mut rng);
    let mut thread_models: std::collections::HashMap<(usize, usize), crate::trainer::ThreadModel> =
        std::collections::HashMap::new();
    for pi in 0..p {
        for ti in 0..t {
            let flat = flat_of(pi, ti);
            let mut tm = crate::trainer::build_thread_model(&template, spec, pi, ti);
            let mut want = 0usize;
            tm.visit_params(&mut |params| want += params.len());
            if want != flat.len() {
                return Err(format!(
                    "thread ({pi},{ti}) shard holds {} values, the model gives it {want}",
                    flat.len()
                ));
            }
            tm.set_flat_params(flat);
            thread_models.insert((pi, ti), tm);
        }
    }

    // Blocks: layer l lives on stage l / layers_per_stage.
    let blocks: Vec<Block> = (0..cfg.layers)
        .map(|l| {
            let stage = l / layers_per_stage;
            let (pi, c) = (stage % p, stage / p);
            let pos = l % layers_per_stage;
            let shards: Vec<&crate::block::ParallelBlock> = (0..t)
                .map(|ti| &thread_models[&(pi, ti)].chunks[c][pos])
                .collect();
            let qkv_parts: Vec<&Linear> = shards.iter().map(|s| &s.qkv).collect();
            let proj_parts: Vec<&Linear> = shards.iter().map(|s| &s.proj).collect();
            let fc1_parts: Vec<&Linear> = shards.iter().map(|s| &s.fc1).collect();
            let fc2_parts: Vec<&Linear> = shards.iter().map(|s| &s.fc2).collect();
            Block::from_parts(
                shards[0].ln1.clone(),
                unshard_qkv(&qkv_parts),
                unshard_rows(&proj_parts, Some(shards[0].proj_bias.clone())),
                shards[0].ln2.clone(),
                unshard_columns(&fc1_parts),
                unshard_rows(&fc2_parts, Some(shards[0].fc2_bias.clone())),
                cfg.heads,
            )
        })
        .collect();

    // Embedding (stage 0, device 0) and head (last stage, device p−1).
    let embed = {
        let shards: Vec<&VocabParallelEmbedding> = (0..t)
            .map(|ti| thread_models[&(0, ti)].embed.as_ref().expect("embed"))
            .collect();
        unshard_embedding(&shards)
    };
    let last_dev = (stages - 1) % p;
    let heads: Vec<&(LayerNorm, VocabParallelHead)> = (0..t)
        .map(|ti| thread_models[&(last_dev, ti)].head.as_ref().expect("head"))
        .collect();
    let final_ln = heads[0].0.clone();
    let lm_head = unshard_columns(&heads.iter().map(|(_, lm)| &lm.w).collect::<Vec<_>>());

    Ok(GptModel {
        cfg,
        embed,
        blocks,
        final_ln,
        lm_head,
    })
}

impl TrainLog {
    /// Merge the final shards of a finished run back into one serial
    /// [`GptModel`]. Uses the data-parallel replica 0 (all replicas are
    /// verified identical by the trainer's collectives).
    pub fn assemble(&self, cfg: TinyGptConfig, spec: &PtdpSpec) -> GptModel {
        let assembled = assemble_from_flat(cfg, spec, &|pi, ti| {
            let key: ThreadKey = (pi, 0, ti);
            self.final_params
                .get(&key)
                .unwrap_or_else(|| panic!("missing shard for thread {key:?}"))
        });
        assembled.unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PtdpSpec, PtdpTrainer};
    use megatron_tensor::Adam;
    use rand::Rng;

    fn cfg() -> TinyGptConfig {
        TinyGptConfig {
            vocab: 16,
            seq: 6,
            hidden: 8,
            heads: 4,
            layers: 4,
        }
    }

    fn data(c: TinyGptConfig, batch: usize, iters: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(404);
        (0..iters)
            .map(|_| {
                let toks: Vec<usize> = (0..batch * c.seq)
                    .map(|_| rng.gen_range(0..c.vocab))
                    .collect();
                let tgts: Vec<usize> = (0..batch * c.seq)
                    .map(|_| rng.gen_range(0..c.vocab))
                    .collect();
                (toks, tgts)
            })
            .collect()
    }

    fn serial_train(master: &GptModel, d: &[(Vec<usize>, Vec<usize>)], lr: f32) -> GptModel {
        let mut model = master.clone();
        let mut adam = Adam::new(lr);
        let batch = d[0].0.len() / model.cfg.seq;
        for (toks, tgts) in d {
            model.zero_grads();
            model.loss_and_grad(toks, tgts, batch);
            let mut pairs = model.param_grad_pairs();
            adam.step(&mut pairs);
        }
        model
    }

    fn max_param_diff(a: &mut GptModel, b: &mut GptModel) -> f32 {
        let mut av = Vec::new();
        a.visit(&mut |p, _| av.extend_from_slice(p));
        let mut bv = Vec::new();
        b.visit(&mut |p, _| bv.extend_from_slice(p));
        assert_eq!(av.len(), bv.len());
        av.iter()
            .zip(&bv)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn assembled_model_matches_serial_training() {
        let c = cfg();
        let mut rng = rand::rngs::StdRng::seed_from_u64(88);
        let master = GptModel::new(c, &mut rng);
        let d = data(c, 4, 3);
        let mut spec = PtdpSpec::new(2, 2, 1);
        spec.chunks = 2;
        spec.schedule = megatron_schedule::ScheduleKind::Interleaved { chunks: 2 };
        let mut serial = serial_train(&master, &d, spec.lr);
        let log = PtdpTrainer::new(master, spec).train(&d);
        let mut assembled = log.assemble(c, &spec);
        let diff = max_param_diff(&mut serial, &mut assembled);
        assert!(diff < 5e-3, "assembled model diverged by {diff}");
    }

    #[test]
    fn assembled_four_way_tensor_model_matches_serial() {
        let c = cfg();
        let mut rng = rand::rngs::StdRng::seed_from_u64(89);
        let master = GptModel::new(c, &mut rng);
        let d = data(c, 4, 3);
        let spec = PtdpSpec::new(2, 4, 1);
        let mut serial = serial_train(&master, &d, spec.lr);
        let log = PtdpTrainer::new(master, spec).train(&d);
        let mut assembled = log.assemble(c, &spec);
        let diff = max_param_diff(&mut serial, &mut assembled);
        assert!(diff < 5e-3, "assembled model diverged by {diff}");
    }

    #[test]
    fn assembled_model_resumes_serially() {
        // Train under PTD-P, assemble, continue training serially: the end
        // state matches training serially all the way (within f32 drift).
        let c = cfg();
        let mut rng = rand::rngs::StdRng::seed_from_u64(90);
        let master = GptModel::new(c, &mut rng);
        let d = data(c, 4, 6);
        let spec = PtdpSpec::new(2, 2, 1);

        let log = PtdpTrainer::new(master.clone(), spec).train(&d[..3]);
        let assembled = log.assemble(c, &spec);

        // Resume serially (fresh Adam on both sides, so the comparison is
        // fair — the log carries no optimizer state).
        let mut resumed = serial_train(&assembled, &d[3..], spec.lr);
        let half_serial = serial_train(&master, &d[..3], spec.lr);
        let mut full_serial = serial_train(&half_serial, &d[3..], spec.lr);
        let diff = max_param_diff(&mut resumed, &mut full_serial);
        assert!(diff < 1e-2, "resumed training diverged by {diff}");
    }
}

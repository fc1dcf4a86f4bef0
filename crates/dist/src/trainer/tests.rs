use super::*;
use std::time::Duration;

use megatron_schedule::ScheduleKind;
use megatron_tensor::gpt::TinyGptConfig;
use megatron_tensor::Adam;
use rand::Rng;
use rand::SeedableRng;

fn tiny(layers: usize) -> TinyGptConfig {
    TinyGptConfig {
        vocab: 13,
        seq: 6,
        hidden: 8,
        heads: 4,
        layers,
    }
}

fn make_data(
    cfg: TinyGptConfig,
    batch: usize,
    iterations: usize,
    seed: u64,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..iterations)
        .map(|_| {
            let tokens: Vec<usize> = (0..batch * cfg.seq)
                .map(|_| rng.gen_range(0..cfg.vocab))
                .collect();
            let targets: Vec<usize> = (0..batch * cfg.seq)
                .map(|_| rng.gen_range(0..cfg.vocab))
                .collect();
            (tokens, targets)
        })
        .collect()
}

/// Serial reference: same data, same init, same Adam.
fn serial_losses(
    master: &GptModel,
    data: &[(Vec<usize>, Vec<usize>)],
    lr: f32,
) -> (Vec<f32>, GptModel) {
    let mut model = master.clone();
    let mut adam = Adam::new(lr);
    let batch = data[0].0.len() / model.cfg.seq;
    let mut losses = Vec::new();
    for (tokens, targets) in data {
        model.zero_grads();
        losses.push(model.loss_and_grad(tokens, targets, batch));
        let mut pairs = model.param_grad_pairs();
        adam.step(&mut pairs);
    }
    (losses, model)
}

fn assert_losses_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < tol,
            "iteration {i}: ptdp {x} vs serial {y} (all: {a:?} vs {b:?})"
        );
    }
}

fn run_case(cfg: TinyGptConfig, spec: PtdpSpec, batch: usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, batch, 4, 5);
    let (serial, _) = serial_losses(&master, &data, spec.lr);
    let log = PtdpTrainer::new(master, spec).train(&data);
    assert_losses_close(&log.losses, &serial, 5e-3);
}

#[test]
fn tensor_parallel_only_matches_serial() {
    let mut spec = PtdpSpec::new(1, 4, 1);
    spec.microbatch = 4;
    run_case(tiny(2), spec, 4);
}

#[test]
fn pipeline_1f1b_matches_serial() {
    let mut spec = PtdpSpec::new(2, 1, 1);
    spec.microbatch = 1;
    run_case(tiny(2), spec, 4);
}

#[test]
fn pipeline_gpipe_matches_serial() {
    let mut spec = PtdpSpec::new(2, 1, 1);
    spec.schedule = ScheduleKind::GPipe;
    spec.microbatch = 2;
    run_case(tiny(2), spec, 4);
}

#[test]
fn interleaved_schedule_matches_serial() {
    let mut spec = PtdpSpec::new(2, 1, 1);
    spec.chunks = 2;
    spec.schedule = ScheduleKind::Interleaved { chunks: 2 };
    spec.microbatch = 1;
    run_case(tiny(4), spec, 4); // m = 4 = multiple of p = 2
}

#[test]
fn data_parallel_only_matches_serial() {
    let mut spec = PtdpSpec::new(1, 1, 2);
    spec.microbatch = 2;
    run_case(tiny(2), spec, 4);
}

#[test]
fn full_ptdp_matches_serial() {
    // p=2, t=2, d=2 → 8 threads.
    let mut spec = PtdpSpec::new(2, 2, 2);
    spec.microbatch = 1;
    run_case(tiny(2), spec, 8);
}

#[test]
fn final_weights_match_serial_shards() {
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 4, 3, 21);
    let spec = {
        let mut s = PtdpSpec::new(2, 2, 1);
        s.microbatch = 1;
        s
    };
    let (_, serial_model) = serial_losses(&master, &data, spec.lr);
    let log = PtdpTrainer::new(master, spec).train(&data);

    // Rebuild each thread's expected final shard from the serially
    // trained model and compare flattened parameters.
    for ((pi, _di, ti), got) in &log.final_params {
        let mut expect = build_thread_model(&serial_model, &spec, *pi, *ti);
        let want = expect.flat_params();
        assert_eq!(want.len(), got.len(), "thread ({pi},{ti}) param count");
        let max_diff = want
            .iter()
            .zip(got)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 5e-3,
            "thread ({pi},{ti}): weights diverged by {max_diff}"
        );
    }
}

#[test]
fn replicas_stay_consistent() {
    // All data-parallel replicas of the same stage must end
    // bit-identical: deterministic collectives guarantee it.
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 8, 3, 17);
    let mut spec = PtdpSpec::new(2, 1, 2);
    spec.microbatch = 2;
    let log = PtdpTrainer::new(master, spec).train(&data);
    for pi in 0..2 {
        let a = &log.final_params[&(pi, 0, 0)];
        let b = &log.final_params[&(pi, 1, 0)];
        assert_eq!(a, b, "stage {pi} replicas diverged");
    }
}

#[test]
fn losses_decrease_under_ptdp() {
    // Memorize a fixed batch: loss must drop under the full 3-D layout.
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let master = GptModel::new(cfg, &mut rng);
    let one = make_data(cfg, 8, 1, 77).remove(0);
    let data: Vec<_> = (0..15).map(|_| one.clone()).collect();
    let mut spec = PtdpSpec::new(2, 2, 2);
    spec.microbatch = 1;
    spec.lr = 0.02;
    let log = PtdpTrainer::new(master, spec).train(&data);
    assert!(
        log.losses[14] < log.losses[0] * 0.6,
        "losses: {:?}",
        log.losses
    );
}

/// FNV-1a-64 over the f32 bits (little-endian bytes) of every thread's
/// final parameters, threads in key order.
fn params_hash(log: &TrainLog) -> u64 {
    let mut keys: Vec<ThreadKey> = log.final_params.keys().copied().collect();
    keys.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for key in keys {
        for x in &log.final_params[&key] {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn data_parallel_step_is_pinned_bit_for_bit() {
    // Hashes of the final parameters as the per-parameter gradient
    // all-reduce and a replicated Adam computed them. The distributed
    // optimizer sums every element in the order that all-reduce did and
    // steps it with the same update, so the bits must not move — at group
    // sizes that divide no parameter evenly too. One column per GEMM
    // engine: the FMA builds (baseline, AVX2, AVX-512) agree bit for bit,
    // the AMX build sums each 32-term chunk as the matrix unit does.
    //
    // These runs take several microbatches, so both columns also pin how
    // `Linear::backward` sums each microbatch's weight gradient onto the
    // running `gw`. `--nocapture` prints the five hashes and the column
    // this host checked. To check or re-pin the FMA column on a host with
    // AMX: in a scratch copy of the tree, make the `Isa::Amx` arm of
    // `Isa::active` unreachable (`if false && ...`), run `cargo test
    // --release -p megatron-dist --lib
    // data_parallel_step_is_pinned_bit_for_bit -- --nocapture` there and
    // read the hashes it prints.
    let cfg = TinyGptConfig {
        vocab: 16,
        seq: 6,
        hidden: 12,
        heads: 4,
        layers: 2,
    };
    let amx = megatron_tensor::gemm::active_build().starts_with("amx");
    let mut got = Vec::new();
    for ((p, t, d), fma_hash, amx_hash) in [
        (
            (1, 1, 2),
            0x165a_4bf8_c306_db1du64,
            0xb32c_d574_d33f_8b95u64,
        ),
        ((1, 1, 3), 0x89dd_8753_5eab_4550, 0x58e5_1ac7_65ae_e4f6),
        // Re-pinned when the embedding and LM head became vocab shards at
        // every t: at t = 2 the sum of exponentials and the head's input
        // gradient are sums of per-shard partials. The t = 1 rows keep
        // their bits.
        ((2, 2, 2), 0x0a26_7bda_7fbc_fa35, 0xba36_7d23_78dd_0b99),
        ((1, 1, 4), 0x8913_0e85_3b46_b2b5, 0xf5ac_3771_fac5_3155),
        ((2, 1, 3), 0x2d5f_365d_f522_c068, 0xf325_d4da_b5d4_56fa),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let master = GptModel::new(cfg, &mut rng);
        let data: Vec<(Vec<usize>, Vec<usize>)> = (0..4)
            .map(|_| {
                let mut draw = || (0..24 * cfg.seq).map(|_| rng.gen_range(0..16)).collect();
                (draw(), draw())
            })
            .collect();
        let mut spec = PtdpSpec::new(p, t, d);
        spec.microbatch = 2;
        let log = PtdpTrainer::new(master, spec).train(&data);
        let want = if amx { amx_hash } else { fma_hash };
        got.push(((p, t, d), params_hash(&log), want));
    }
    let column = if amx { "amx" } else { "fma" };
    println!("final_params hashes, {column} column:");
    for (layout, hash, _) in &got {
        println!("  {layout:?}: {hash:#018x}");
    }
    let wrong: Vec<String> = (got.iter().filter(|(_, g, w)| g != w))
        .map(|(layout, g, w)| format!("{layout:?}: {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("; "));
}

#[test]
fn uneven_vocab_shards_match_serial() {
    // Sharded embedding + head with distributed cross-entropy must
    // reproduce serial training, also where t does not divide the
    // vocabulary: 13 over 4 ranks is shards of 4, 4, 4 and 1.
    let cfg = TinyGptConfig {
        vocab: 13,
        seq: 6,
        hidden: 8,
        heads: 4,
        layers: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(53);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 4, 4, 19);
    let mut spec = PtdpSpec::new(1, 4, 1);
    spec.microbatch = 2;
    let (serial, _) = serial_losses(&master, &data, spec.lr);
    let log = PtdpTrainer::new(master, spec).train(&data);
    assert_losses_close(&log.losses, &serial, 5e-3);
}

#[test]
fn vocab_shards_full_ptdp_with_recompute() {
    let cfg = TinyGptConfig {
        vocab: 16,
        seq: 6,
        hidden: 8,
        heads: 4,
        layers: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(59);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 8, 3, 67);
    let mut spec = PtdpSpec::new(2, 2, 2);
    spec.microbatch = 1;
    spec.recompute = true; // compose with recomputation too
    let (serial, _) = serial_losses(&master, &data, spec.lr);
    let log = PtdpTrainer::new(master, spec).train(&data);
    assert_losses_close(&log.losses, &serial, 5e-3);
}

#[test]
fn recompute_matches_full_caching_bitwise() {
    // §3.5: rebuilt activations are bit-identical, so training with
    // recomputation produces exactly the same losses and weights.
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(61);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 8, 3, 37);
    let mut spec = PtdpSpec::new(2, 2, 1);
    spec.microbatch = 2;
    let full = PtdpTrainer::new(master.clone(), spec).train(&data);
    spec.recompute = true;
    let rc = PtdpTrainer::new(master, spec).train(&data);
    assert_eq!(full.losses, rc.losses, "losses must be bit-identical");
    for (k, v) in &full.final_params {
        assert_eq!(v, &rc.final_params[k], "weights diverged at {k:?}");
    }
    // And the stash peak must be much smaller with recomputation.
    for (k, &full_peak) in &full.peak_stash_floats {
        let rc_peak = rc.peak_stash_floats[k];
        assert!(
            rc_peak * 3 < full_peak,
            "thread {k:?}: recompute peak {rc_peak} vs full {full_peak}"
        );
    }
}

#[test]
fn gpipe_stashes_more_than_1f1b() {
    // §2.2.1's memory claim, measured on the real engine: GPipe keeps
    // activations for all m microbatches, 1F1B for at most p.
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(71);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 8, 1, 43); // m = 8 microbatches
    let mut spec = PtdpSpec::new(2, 1, 1);
    spec.microbatch = 1;
    spec.schedule = ScheduleKind::GPipe;
    let gpipe = PtdpTrainer::new(master.clone(), spec).train(&data);
    spec.schedule = ScheduleKind::OneFOneB;
    let f1b1 = PtdpTrainer::new(master, spec).train(&data);
    // Device 0 under GPipe holds all 8; under 1F1B at most p = 2.
    let g0 = gpipe.peak_stash_floats[&(0, 0, 0)];
    let f0 = f1b1.peak_stash_floats[&(0, 0, 0)];
    assert!(
        g0 >= 3 * f0,
        "GPipe peak {g0} should far exceed 1F1B peak {f0}"
    );
}

#[test]
fn comm_op_tape_accounts_for_all_bytes() {
    // The replayable tape is complete: rebuilding every recorded
    // collective's step program and adding the recorded p2p sends
    // reproduces the transport-measured byte totals exactly, for every
    // thread of a full (2,2,2) run.
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(83);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 8, 2, 47);
    let mut spec = PtdpSpec::new(2, 2, 2);
    spec.microbatch = 1;
    let log = PtdpTrainer::new(master, spec).train(&data);
    assert_eq!(log.comm_ops.len(), spec.world());
    for (key @ (_, di, ti), ops) in &log.comm_ops {
        let measured = log.comm_volumes[key].total_bytes();
        let replayed = ops.total_bytes(spec.tensor, *ti, spec.data, *di);
        assert_eq!(replayed, measured, "thread {key:?} tape incomplete");
    }
}

/// Kill a rank mid-iteration, grab the last full checkpoint, resume,
/// and demand the resumed run lands bit-identically on an
/// uninterrupted one.
fn kill_and_restart_bitwise(cfg: TinyGptConfig, spec: PtdpSpec, batch: usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(123);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, batch, 6, 91);

    // Run A: uninterrupted reference.
    let a = PtdpTrainer::new(master.clone(), spec).train(&data);
    assert_eq!(a.steps.len(), spec.world());
    assert!(
        a.steps.values().all(|&n| n == 6),
        "every thread completes every iteration: {:?}",
        a.steps
    );

    // Run B: checkpoint every 2 iterations, kill a rank during iter 4.
    let ctl = RunControl {
        checkpoint_every: Some(2),
        kill: Some(KillSwitch {
            thread: (0, 0, 0),
            iteration: 4,
        }),
        comm_timeout: Some(Duration::from_secs(5)),
        ..Default::default()
    };
    let b = PtdpTrainer::new(master.clone(), spec).train_with(&data, ctl);
    assert_eq!(b.error, Some(TrainError::Killed((0, 0, 0))));
    // Every rank — the killed one and the survivors that failed after it —
    // still hands over what it measured before dying.
    assert_eq!(b.log.steps.len(), spec.world());
    for (k, &n) in &b.log.steps {
        // A later stage may get through the kill iteration itself.
        assert!(n >= 4, "rank {k:?} kept its count of iterations 0..=3: {n}");
        assert!(n <= 5, "rank {k:?} ran past the kill: {n} iterations");
    }
    assert_eq!(b.log.losses[..4], a.losses[..4], "pre-kill losses kept");
    assert_eq!(b.log.losses[5], 0.0, "no loss past the kill iteration");
    assert_eq!(b.log.peak_stash_floats, a.peak_stash_floats);
    assert!(b.log.final_params.is_empty() && b.log.comm_ops.is_empty());
    let snap = b.snapshot.expect("a checkpoint completed before the kill");
    assert_eq!(snap.next_iter, 4, "latest full checkpoint is after iter 3");
    assert_eq!(snap.threads.len(), spec.world());

    // Run C: resume from the snapshot, tagged as incident epoch 1.
    let resume_iter = snap.next_iter;
    let ctl = RunControl {
        restore: Some(snap),
        epoch: 1,
        ..Default::default()
    };
    let c = PtdpTrainer::new(master, spec).train_with(&data, ctl);
    assert!(c.error.is_none(), "resume failed: {:?}", c.error);
    // The resumed run counts only the iterations it ran itself.
    assert_eq!(c.log.steps.len(), spec.world());
    assert!(
        c.log.steps.values().all(|&n| n == data.len() - resume_iter),
        "{:?}",
        c.log.steps
    );
    assert_eq!(a.final_params.len(), c.log.final_params.len());
    for (k, v) in &a.final_params {
        assert_eq!(
            v, &c.log.final_params[k],
            "thread {k:?} weights not bit-identical after resume"
        );
    }
    assert_eq!(
        a.losses[4..],
        c.log.losses[4..],
        "resumed-iteration losses must be bit-identical"
    );
}

#[test]
fn kill_and_restart_1f1b() {
    let mut spec = PtdpSpec::new(2, 2, 1);
    spec.microbatch = 1;
    kill_and_restart_bitwise(tiny(2), spec, 4);
}

#[test]
fn kill_and_restart_gpipe() {
    let mut spec = PtdpSpec::new(2, 1, 2);
    spec.schedule = ScheduleKind::GPipe;
    spec.microbatch = 1;
    kill_and_restart_bitwise(tiny(2), spec, 4);
}

#[test]
fn kill_and_restart_interleaved() {
    let mut spec = PtdpSpec::new(2, 1, 1);
    spec.chunks = 2;
    spec.schedule = ScheduleKind::Interleaved { chunks: 2 };
    spec.microbatch = 1;
    kill_and_restart_bitwise(tiny(4), spec, 4);
}

#[test]
fn restore_missing_thread_state_errors() {
    let cfg = tiny(2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let master = GptModel::new(cfg, &mut rng);
    let data = make_data(cfg, 4, 2, 11);
    let mut spec = PtdpSpec::new(2, 1, 1);
    spec.microbatch = 1;
    let ctl = RunControl {
        restore: Some(TrainSnapshot {
            next_iter: 1,
            threads: HashMap::new(),
        }),
        comm_timeout: Some(Duration::from_millis(200)),
        ..Default::default()
    };
    let out = PtdpTrainer::new(master, spec).train_with(&data, ctl);
    assert!(
        matches!(out.error, Some(TrainError::MissingThreadState(_))),
        "got {:?}",
        out.error
    );
}

#[test]
#[should_panic(expected = "layers must divide")]
fn rejects_uneven_layer_split() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let master = GptModel::new(tiny(3), &mut rng);
    PtdpTrainer::new(master, PtdpSpec::new(2, 1, 1));
}

#[test]
fn rejects_indivisible_batch() {
    // One rule, `PtdpSpec::microbatches`, and so one message, whichever
    // mode is asked to run the ragged batch.
    let mut job = crate::proc::JobSpec::canonical(1, 1, 2);
    job.batch = 3;
    let refusal = job.spec().microbatches(job.batch).unwrap_err();
    assert!(refusal.contains("must divide by d·b"), "{refusal}");

    let by_thread = std::panic::catch_unwind(|| {
        PtdpTrainer::new(job.master(), job.spec()).train(&job.dataset());
    });
    let panic = by_thread.expect_err("thread mode must refuse");
    assert_eq!(panic.downcast_ref::<String>(), Some(&refusal));

    // Process mode refuses before it spawns or writes anything.
    let dir = std::env::temp_dir().join(format!("mproc-ragged-{}", std::process::id()));
    let by_process = crate::proc::launch(&job, &dir).err();
    let by_process = by_process.expect("process mode must refuse");
    assert_eq!(by_process.to_string(), refusal);
    assert!(!dir.exists());
}

//! Cross-crate integration: the reliability loop end-to-end — durable
//! sharded checkpoints on disk, restore across process-lifetime and
//! topology boundaries, and supervised auto-recovery through injected
//! rank kills.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

mod common;

use megatron_repro::dist::{
    CheckpointStore, KillSwitch, PtdpSpec, PtdpTrainer, ReconfigureDirection, RunControl,
    Supervisor, ThreadBackend,
};
use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};
use megatron_repro::tensor::Adam;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg() -> TinyGptConfig {
    TinyGptConfig {
        vocab: 13,
        seq: 6,
        hidden: 8,
        heads: 4,
        layers: 2,
    }
}

fn make_data(
    c: TinyGptConfig,
    batch: usize,
    iters: usize,
    seed: u64,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(seed);
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

fn tmp_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("mgrec-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// Save to disk, drop every piece of in-memory state, restore from the
/// shard files alone, resume: final weights and the loss tail must match
/// an uninterrupted run bit-for-bit.
#[test]
fn durable_resume_is_bit_identical() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(41);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, 8, 410);
    let spec = PtdpSpec::new(2, 1, 2);
    let trainer = PtdpTrainer::new(master, spec);

    let clean = trainer.train(&data);

    let root = tmp_root("durable");
    {
        // A run that checkpoints durably and dies at iteration 5.
        let store = CheckpointStore::open(&root).unwrap();
        let out = trainer.train_with(
            &data,
            RunControl {
                checkpoint_every: Some(2),
                kill: Some(KillSwitch {
                    thread: (1, 0, 0),
                    iteration: 5,
                }),
                durable: Some(store),
                ..RunControl::default()
            },
        );
        assert!(out.error.is_some(), "the kill must abort the run");
        // `store`, `out`, and every in-memory snapshot drop here; only the
        // files under `root` survive.
    }

    let store = CheckpointStore::open(&root).unwrap();
    let restored = store.load_latest(&spec, c).expect("durable generation");
    assert_eq!(restored.generation, 4, "newest complete generation");
    assert!(!restored.cross_topology);
    let out = trainer.train_with(
        &data,
        RunControl {
            restore: Some(restored.snapshot),
            ..RunControl::default()
        },
    );
    assert!(out.error.is_none(), "resume failed: {:?}", out.error);
    assert_eq!(out.log.losses[4..], clean.losses[4..], "loss tail");
    assert_eq!(out.log.final_params, clean.final_params, "final weights");
    let _ = fs::remove_dir_all(root);
}

/// The acceptance scenario: two mid-run rank kills, supervised recovery
/// with zero manual intervention, and a final state bit-for-bit equal to
/// the fault-free run after the same iteration count.
#[test]
fn supervisor_survives_two_kills_bit_for_bit() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(43);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, 10, 430);
    let spec = PtdpSpec::new(2, 1, 2);

    let clean = PtdpTrainer::new(master.clone(), spec).train(&data);

    let root = tmp_root("twokills");
    let store = CheckpointStore::open(&root).unwrap();
    let sup = Supervisor::new(
        ThreadBackend::new(master, spec, &data),
        store,
        common::policy(),
    );
    let kills = [
        KillSwitch {
            thread: (1, 1, 0),
            iteration: 3,
        },
        KillSwitch {
            thread: (0, 0, 0),
            iteration: 7,
        },
    ];
    let report = sup.run(&kills);

    assert!(report.completed(), "gave up: {:?}", report.gave_up);
    assert_eq!(report.attempts, 3, "one restart per kill");
    assert_eq!(report.incidents.len(), 2);
    assert!(report.incidents.iter().all(|i| i.resumed_from > 0));
    assert_eq!(report.losses, clean.losses, "losses bit-for-bit");
    assert_eq!(
        report.final_params.as_ref(),
        Some(&clean.final_params),
        "weights bit-for-bit"
    );
    // The measured goodput ledger accounts for the whole wall, term by
    // term; `unexplained` takes what the other terms miss — negative when
    // they overstate the run. Priced at the whole wall per iteration, the
    // fold leaves `unexplained` ≈ the final attempt's wall less its
    // executed iterations times the whole wall: negative by construction.
    let fold = |iter_s| megatron_bench::ledger::measured(&report, iter_s, 0.0, 0, 2);
    let (fits, over) = (fold(report.wall_s / 100.0), fold(report.wall_s));
    for l in [fits, over] {
        let sum: f64 = l.terms().iter().map(|(_, s)| s).sum();
        assert!((sum - report.wall_s).abs() < 1e-9, "{l:?}");
    }
    assert!(over.unexplained < 0.0, "{over:?}");
    let _ = fs::remove_dir_all(root);
}

/// Elastic restart on a shrunken cluster: a checkpoint taken at
/// (p=2, t=2, d=2) restores into (p=1, t=2, d=2) by resharding its
/// shards, and the resumed run tracks serial training end-to-end.
#[test]
fn cross_topology_restore_resumes_on_shrunken_cluster() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(47);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, 8, 470);
    let from = PtdpSpec::new(2, 2, 2);

    let root = tmp_root("crosstopo");
    let store = CheckpointStore::open(&root).unwrap();
    let out = PtdpTrainer::new(master.clone(), from).train_with(
        &data,
        RunControl {
            checkpoint_every: Some(4),
            kill: Some(KillSwitch {
                thread: (1, 1, 1),
                iteration: 6,
            }),
            durable: Some(Arc::clone(&store)),
            ..RunControl::default()
        },
    );
    assert!(out.error.is_some());

    // "Two GPUs never came back": resume at half the pipeline depth.
    let to = PtdpSpec::new(1, 2, 2);
    let restored = store.load_latest(&to, c).expect("resharded shards");
    assert!(restored.cross_topology);
    assert_eq!(restored.snapshot.next_iter, 4);
    let resumed = PtdpTrainer::new(master.clone(), to).train_with(
        &data,
        RunControl {
            restore: Some(restored.snapshot),
            ..RunControl::default()
        },
    );
    assert!(resumed.error.is_none(), "{:?}", resumed.error);

    // Reference: serial training over all 8 iterations with one continuous
    // Adam (the checkpoint carries the moments, so the resumed run must
    // track it within f32 reduction drift — bit-identity is impossible
    // across topologies because the reduction order changes).
    let mut serial = master;
    let mut adam = Adam::new(from.lr);
    let batch = data[0].0.len() / c.seq;
    let mut serial_losses = Vec::new();
    for (toks, tgts) in &data {
        serial.zero_grads();
        serial_losses.push(serial.loss_and_grad(toks, tgts, batch));
        let mut pairs = serial.param_grad_pairs();
        adam.step(&mut pairs);
    }
    for (i, (got, want)) in resumed.log.losses[4..]
        .iter()
        .zip(&serial_losses[4..])
        .enumerate()
    {
        assert!(
            (got - want).abs() < 5e-3,
            "iteration {}: resumed loss {got} vs serial {want}",
            i + 4
        );
    }
    let mut assembled = resumed.log.assemble(c, &to);
    let mut diff = 0.0f32;
    let mut sv = Vec::new();
    serial.visit(&mut |p, _| sv.extend_from_slice(p));
    let mut av = Vec::new();
    assembled.visit(&mut |p, _| av.extend_from_slice(p));
    for (a, s) in av.iter().zip(&sv) {
        diff = diff.max((a - s).abs());
    }
    assert!(diff < 5e-3, "resumed model diverged from serial by {diff}");
    let _ = fs::remove_dir_all(root);
}

/// Elastic shrink with no capacity return: the supervisor drops to the
/// twin's cheapest degraded (p, t, d), finishes there, and the
/// post-shrink trajectory is bit-identical to a FRESH launch at that
/// degraded topology restored from the same checkpoint generation.
#[test]
fn elastic_shrink_is_bit_identical_to_fresh_degraded_launch() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(59);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, 10, 590);
    let spec = PtdpSpec::new(2, 2, 2);
    let kill = KillSwitch {
        thread: (1, 1, 1),
        iteration: 5,
    };

    let root = tmp_root("elshrink");
    let store = CheckpointStore::open(&root).unwrap();
    let backend = ThreadBackend::new(master.clone(), spec, &data);
    let sup = Supervisor::new(backend, store, common::policy());
    let report = sup.run_elastic(&[kill], &[], &common::ranking(c, &spec, 4));
    assert!(report.completed(), "gave up: {:?}", report.gave_up);
    assert_eq!(report.reconfigurations.len(), 1, "one shrink, no grow");
    let rc = report.reconfigurations[0];
    assert_eq!(rc.direction, ReconfigureDirection::Shrink);
    assert_eq!(rc.from, (2, 2, 2));
    assert_eq!(
        rc.generation, 4,
        "restored from the boundary before the kill"
    );
    let to = PtdpSpec {
        pipeline: rc.to.0,
        tensor: rc.to.1,
        data: rc.to.2,
        ..spec
    };
    assert!(to.world() <= 7, "must fit the surviving capacity");
    assert_eq!(rc.to, (1, 1, 4), "the twin's cheapest layout on 7 GPUs");

    // Replication: a fresh doomed full-topology run writes the same
    // generations, then a FRESH degraded launch restores generation 4 and
    // trains to the end — it must match the elastic run bit-for-bit.
    let root2 = tmp_root("elshrink-ref");
    let store2 = CheckpointStore::open(&root2).unwrap();
    let doomed = PtdpTrainer::new(master.clone(), spec).train_with(
        &data,
        RunControl {
            checkpoint_every: Some(2),
            kill: Some(kill),
            durable: Some(Arc::clone(&store2)),
            ..RunControl::default()
        },
    );
    assert!(doomed.error.is_some());
    let restored = store2.load_latest(&to, c).expect("resharded shards");
    assert_eq!(restored.generation, 4);
    assert!(restored.cross_topology);
    let fresh = PtdpTrainer::new(master, to).train_with(
        &data,
        RunControl {
            restore: Some(restored.snapshot),
            ..RunControl::default()
        },
    );
    assert!(fresh.error.is_none(), "{:?}", fresh.error);
    assert_eq!(report.losses[4..], fresh.log.losses[4..], "loss tail");
    assert_eq!(
        report.final_params.as_ref(),
        Some(&fresh.log.final_params),
        "final weights bit-for-bit at the degraded topology"
    );
    let _ = fs::remove_dir_all(root);
    let _ = fs::remove_dir_all(root2);
}

/// The shared recovery table (`tests/common`, also run over rank processes
/// by `tests/process_mode.rs`): one kill heals bit-identically; and elastic
/// shrink then grow — capacity returns mid-degraded-run and the supervisor
/// grows back to the launch topology at the NEXT checkpoint boundary, never
/// mid-interval, the post-grow trajectory bit-identical to a fresh
/// full-topology launch from that boundary. Then what only an in-process
/// world can promise: the exact restore point and every loss, per segment.
#[test]
fn elastic_grows_back_at_checkpoint_boundary() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(61);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, common::ITERS, 610);
    let spec = PtdpSpec::new(2, 2, 2);
    let clean = PtdpTrainer::new(master.clone(), spec).train(&data);
    let resume = |spec: PtdpSpec, upto: usize, ctl: RunControl| {
        let out = PtdpTrainer::new(master.clone(), spec).train_with(&data[..upto], ctl);
        assert!(out.error.is_none(), "{:?}", out.error);
        out.log
    };

    let roots = std::cell::RefCell::new(Vec::new());
    let (healed, report) = common::recovery_table(
        |tag| {
            let root = tmp_root(&format!("table-{tag}"));
            let store = CheckpointStore::open(&root).unwrap();
            roots.borrow_mut().push(root);
            let backend = ThreadBackend::new(master.clone(), spec, &data);
            (
                Supervisor::new(backend, Arc::clone(&store), common::policy()),
                store,
            )
        },
        &common::ranking(c, &spec, 4),
        &clean.final_params,
        |store, generation| {
            let restore = Some(store.load_pinned(&spec, c, generation).unwrap().snapshot);
            let ctl = RunControl {
                restore,
                ..RunControl::default()
            };
            resume(spec, common::ITERS, ctl).final_params
        },
    );

    let inc = &healed.incidents[0];
    assert_eq!(
        (inc.resumed_from, inc.lost_iterations),
        (4, 1),
        "checkpoint_every=2, killed at 5"
    );
    assert_eq!(healed.losses, clean.losses, "losses bit-identical");

    // Replication of the elastic trajectory from an independent store:
    // doomed full run -> fresh degraded launch over the degraded window ->
    // fresh full launch from the grow boundary.
    let shrink = report.reconfigurations[0];
    assert_eq!(shrink.generation, 4);
    let degraded = PtdpSpec {
        pipeline: shrink.to.0,
        tensor: shrink.to.1,
        data: shrink.to.2,
        ..spec
    };
    let root2 = tmp_root("elgrow-ref");
    let store2 = CheckpointStore::open(&root2).unwrap();
    let doomed = PtdpTrainer::new(master.clone(), spec).train_with(
        &data,
        RunControl {
            checkpoint_every: Some(2),
            kill: Some(common::KILL),
            durable: Some(Arc::clone(&store2)),
            ..RunControl::default()
        },
    );
    assert!(doomed.error.is_some());
    let restored = store2.load_latest(&degraded, c).expect("resharded shards");
    assert_eq!(restored.generation, 4);
    let mid = resume(
        degraded,
        8,
        RunControl {
            checkpoint_every: Some(2),
            restore: Some(restored.snapshot),
            durable: Some(Arc::clone(&store2)),
            ..RunControl::default()
        },
    );
    assert_eq!(report.losses[4..8], mid.losses[4..8], "degraded window");
    let regrown = store2.load_latest(&spec, c).expect("boundary generation");
    assert_eq!(regrown.generation, 8);
    let tail = resume(
        spec,
        common::ITERS,
        RunControl {
            restore: Some(regrown.snapshot),
            ..RunControl::default()
        },
    );
    assert_eq!(report.losses[8..], tail.losses[8..], "post-grow tail");
    assert_eq!(
        report.final_params.as_ref(),
        Some(&tail.final_params),
        "final weights bit-for-bit after growing back"
    );
    for root in roots.into_inner().into_iter().chain([root2]) {
        let _ = fs::remove_dir_all(root);
    }
}

/// When failures eat the whole cluster, the elastic supervisor reports a
/// clean give-up instead of hanging or panicking.
#[test]
fn elastic_gives_up_cleanly_when_capacity_hits_zero() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(67);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, 10, 670);
    let spec = PtdpSpec::new(1, 1, 2);
    let kills = [
        KillSwitch {
            thread: (0, 1, 0),
            iteration: 3,
        },
        KillSwitch {
            thread: (0, 0, 0),
            iteration: 6,
        },
    ];

    let root = tmp_root("elzero");
    let store = CheckpointStore::open(&root).unwrap();
    let sup = Supervisor::new(
        ThreadBackend::new(master, spec, &data),
        store,
        common::policy(),
    );
    let report = sup.run_elastic(&kills, &[], &common::ranking(c, &spec, 4));
    assert!(!report.completed(), "no capacity left to run on");
    assert!(report.gave_up.is_some());
    assert_eq!(report.reconfigurations.len(), 1, "shrank once, then died");
    assert_eq!(report.reconfigurations[0].to, (1, 1, 1));
    let _ = fs::remove_dir_all(root);
}

/// Corruption mid-flight: with the newest generation torn on disk, the
/// loader falls back to the previous complete one and the job still
/// finishes with the right weights.
#[test]
fn corrupt_generation_falls_back_and_completes() {
    let c = cfg();
    let mut rng = StdRng::seed_from_u64(53);
    let master = GptModel::new(c, &mut rng);
    let data = make_data(c, 4, 8, 530);
    let spec = PtdpSpec::new(2, 1, 1);
    let trainer = PtdpTrainer::new(master, spec);

    let clean = trainer.train(&data);

    let root = tmp_root("corrupt");
    let store = CheckpointStore::open(&root).unwrap();
    let out = trainer.train_with(
        &data,
        RunControl {
            checkpoint_every: Some(2),
            kill: Some(KillSwitch {
                thread: (0, 0, 0),
                iteration: 7,
            }),
            durable: Some(Arc::clone(&store)),
            ..RunControl::default()
        },
    );
    assert!(out.error.is_some());

    // Truncate a shard of the newest generation (gen-6): torn write.
    let victim = root.join("gen-00000006").join("shard-p0-d0-t0.bin");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() / 3]).unwrap();

    let restored = store.load_latest(&spec, c).expect("older generation");
    assert_eq!(restored.generation, 4, "fell back over the torn gen-6");
    assert!(!restored.notes.is_empty());
    let out = trainer.train_with(
        &data,
        RunControl {
            restore: Some(restored.snapshot),
            ..RunControl::default()
        },
    );
    assert!(out.error.is_none());
    assert_eq!(out.log.final_params, clean.final_params);
    let _ = fs::remove_dir_all(root);
}

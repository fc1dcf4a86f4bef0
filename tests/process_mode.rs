//! Process-mode acceptance tests (harness = false: this binary re-execs
//! **itself** as the rank workers, so it must own `main`).
//!
//! 1. The seeded canonical (2,2,2) job launched as **8 OS processes over
//!    Unix-domain sockets** reports, rank for rank, the record the
//!    in-process mailbox run folds into its log — loss bits, parameter
//!    bits, comm volume, tape bytes, peak stash, step count — with per-GPU
//!    socket byte counts equal to the comm-tape's closed forms (the same §3
//!    identities `tests/real_vs_sim_bytes.rs` proves against the simulator).
//!    The same holds for an interleaved (2,2,1) job whose every pipeline
//!    message is 1 MiB, several times the kernel socket buffer.
//! 2. Heartbeats flow over the socket transport: SIGKILLing one rank
//!    process leaves it classified **dead** by the launcher-side
//!    [`HealthMonitor`](megatron_repro::dist::HealthMonitor) while the
//!    stalled survivors keep beating.
//! 3. Self-healing: the shared recovery table (`tests/common`, the rows
//!    `tests/recovery.rs` runs over threads) with a `ProcBackend` — a real
//!    SIGKILL is detected, the latest durable generation restored, the
//!    world respawned, final parameters bit-identical to a fault-free run;
//!    and SIGKILL → shrink → grow, the post-grow segment bit-identical to
//!    a fresh launch pinned at the grow generation.

mod common;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use megatron_repro::dist::proc::{launch, launch_configured, maybe_worker, JobSpec, ProcOutcome};
use megatron_repro::dist::{CheckpointStore, ProcBackend, PtdpTrainer, Supervisor};
use megatron_repro::schedule::ScheduleKind;
use megatron_repro::tensor::gpt::TinyGptConfig;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megatron-procmode-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Launch `job` as rank processes and compare every rank's record with the
/// same job trained on threads.
fn processes_match_threads(job: &JobSpec, tag: &str) {
    let dir = scratch(tag);
    let handle = launch(job, &dir).expect("launch rank processes");
    let out = handle.wait();
    assert!(
        out.ok(),
        "process run failed: missing={:?} errors={:?}",
        out.missing,
        out.outputs
            .values()
            .filter_map(|o| o.error.clone())
            .collect::<Vec<_>>()
    );

    // The same job, in-process (threads + mailbox transport).
    let spec = job.spec();
    let log = PtdpTrainer::new(job.master(), spec).train(&job.dataset());

    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&out.losses),
        bits(&log.losses),
        "losses must be bit-identical"
    );
    assert_eq!(out.outputs.len(), spec.world());
    let mut total_bytes = 0.0;
    for (key @ (_, di, ti), o) in &out.outputs {
        assert_eq!(
            bits(&o.params),
            bits(&log.final_params[key]),
            "final params differ at {key:?}"
        );
        assert_eq!(
            o.volume, log.comm_volumes[key],
            "socket-measured comm volume differs at {key:?}"
        );
        // The §3 identity, per GPU: bytes measured on the socket wire ==
        // bytes the rank's op tape implies via the ring closed forms.
        assert_eq!(
            o.tape_bytes,
            o.volume.total_bytes(),
            "closed-form bytes != socket bytes at {key:?}"
        );
        assert_eq!(
            o.tape_bytes,
            log.comm_ops[key].total_bytes(spec.tensor, *ti, spec.data, *di),
            "comm tape differs at {key:?}"
        );
        assert_eq!(
            o.peak_stash, log.peak_stash_floats[key],
            "peak stash differs at {key:?}"
        );
        assert_eq!(o.steps, job.iters, "rank {key:?} finished every step");
        assert_eq!(o.steps, log.steps[key]);
        total_bytes += o.volume.total_bytes();
    }
    assert!(total_bytes > 0.0, "run moved no bytes — vacuous identity");
    let _ = std::fs::remove_dir_all(&dir);
}

fn eight_uds_processes_bit_identical_to_in_process() {
    processes_match_threads(&JobSpec::canonical(2, 2, 2), "bitident");
    println!("ok - eight_uds_processes_bit_identical_to_in_process");
}

/// Two devices with two model chunks each: the stage boundaries 0|1, 1|2
/// and 2|3 all join the same pair of processes, which exchange activations
/// over several lanes at once, between tensor-group all-reduces. Every
/// pipeline message is `microbatch·seq × hidden` = 64·64 × 64 floats =
/// 1 MiB, so no send fits the kernel socket buffer: a rank that waited on
/// one lane without writing what it queued on another would deadlock.
fn interleaved_megabyte_lanes_bit_identical_to_in_process() {
    let mut job = JobSpec::canonical(2, 2, 1);
    job.chunks = 2;
    job.schedule = ScheduleKind::Interleaved { chunks: 2 };
    job.model = TinyGptConfig {
        vocab: 13,
        seq: 64,
        hidden: 64,
        heads: 2,
        layers: 4,
    };
    job.microbatch = 64;
    job.batch = 2 * job.microbatch;
    let (seq, hidden) = (job.model.seq, job.model.hidden);
    assert!(job.microbatch * seq * hidden * 4 >= 1 << 20);
    processes_match_threads(&job, "interleaved");
    println!("ok - interleaved_megabyte_lanes_bit_identical_to_in_process");
}

fn sigkilled_rank_process_classified_dead() {
    let mut job = JobSpec::canonical(2, 2, 2);
    // Long enough to be running when the kill lands; the handle kills the
    // survivors afterwards (and on drop), so this bound is never reached.
    job.iters = 100_000;
    // Survivors must still be stalled-but-alive at classification time.
    job.comm_timeout = Duration::from_secs(30);
    job.hb_period = Duration::from_millis(20);
    let spec = job.spec();
    let world = spec.world();
    let dir = scratch("sigkill");
    let handle = launch(&job, &dir).expect("launch 8 rank processes");
    let monitor = handle.monitor();

    // Wait until every rank's beacon has pulsed a few times.
    let t0 = Instant::now();
    while (0..world).any(|r| monitor.beats(r) < 3) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "workers never started beating: {:?}",
            (0..world).map(|r| monitor.beats(r)).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let victim = 3; // thread (0, 1, 1)
    assert!(handle.kill_rank(victim), "SIGKILL rank {victim}");
    // dead-after is 4 heartbeat periods (80 ms) of silence: poll until the
    // monitor says so, then look at the survivors in that same report.
    let victim_key = spec.thread_key(victim);
    let killed = Instant::now();
    let report = loop {
        let report = monitor.classify();
        if report.dead().contains(&victim_key) {
            break report;
        }
        assert!(
            killed.elapsed() < Duration::from_secs(5),
            "SIGKILLed rank {victim_key:?} not classified dead: {:?}",
            report.ranks
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    for r in 0..world {
        if r != victim {
            let key = spec.thread_key(r);
            assert!(
                !report.dead().contains(&key),
                "survivor {key:?} (still beating via its beacon) classified dead: {:?}",
                report.ranks
            );
        }
    }

    handle.kill_all();
    let out = handle.wait();
    assert!(
        out.missing.contains(&victim_key),
        "a SIGKILLed rank leaves no output file"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok - sigkilled_rank_process_classified_dead");
}

fn params_of(out: ProcOutcome) -> common::Params {
    assert!(
        out.ok(),
        "process run failed: missing={:?} exits={:?}",
        out.missing,
        out.exits
    );
    out.into_params()
}

/// 3. The shared recovery table over rank processes, plus what only a
///    process world can show: the incident names the SIGKILLed rank.
fn supervised_recovery_table_over_rank_processes() {
    let mut job = JobSpec::canonical(2, 2, 2);
    job.iters = common::ITERS;
    let world = job.world();

    let clean_dir = scratch("table-clean");
    let clean = params_of(launch(&job, &clean_dir).expect("launch").wait());
    assert_eq!(clean.len(), world);

    let roots = std::cell::RefCell::new(vec![clean_dir]);
    let (healed, elastic) = common::recovery_table(
        |tag| {
            let root = scratch(&format!("table-{tag}"));
            let store = CheckpointStore::open(root.join("ckpt")).expect("store");
            let backend = ProcBackend::new(&job, &root);
            roots.borrow_mut().push(root);
            (
                Supervisor::new(backend, Arc::clone(&store), common::policy()),
                store,
            )
        },
        &common::ranking(job.model, &job.spec(), job.batch),
        &clean,
        |store, generation| {
            let mut pinned = job;
            pinned.checkpoint_every = common::CHECKPOINT_EVERY;
            pinned.resume_from = generation;
            let dir = scratch("table-fresh");
            let handle = launch_configured(&pinned, &dir, Some(store.root()))
                .expect("launch pinned at the grow generation");
            roots.borrow_mut().push(dir);
            params_of(handle.wait())
        },
    );

    let victim = job.spec().flat_rank(common::KILL.thread);
    for report in [&healed, &elastic] {
        assert_eq!(
            report.incidents[0].dead_ranks,
            vec![victim],
            "incident must name exactly the SIGKILLed rank: {:?}",
            report.incidents[0]
        );
    }
    for root in roots.into_inner() {
        let _ = std::fs::remove_dir_all(root);
    }
    println!("ok - supervised_recovery_table_over_rank_processes");
}

fn main() {
    // Rank-worker re-entry: `--proc-worker <dir> <rank>` runs the worker
    // and exits, everything else falls through to the tests.
    maybe_worker();

    eight_uds_processes_bit_identical_to_in_process();
    interleaved_megabyte_lanes_bit_identical_to_in_process();
    sigkilled_rank_process_classified_dead();
    supervised_recovery_table_over_rank_processes();
    println!("process_mode: all tests passed");
}

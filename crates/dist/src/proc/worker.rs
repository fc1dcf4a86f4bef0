//! One rank process: bind, rendezvous, wire socket groups and pipeline
//! lanes, call the same `run_rank` a rank thread runs, report.

use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use megatron_collective::{SocketChannel, SocketNode, WireAddr};
use megatron_tensor::RankGuard;

use crate::comm::{Group, TransportConfig, WireKind};
use crate::trainer::{run_rank, Dir, Endpoints, Lane, RunControl, Wiring};

use super::rendezvous::{
    await_addrs, publish, read_addr, DATA_CHAN_BASE, HEARTBEAT_CHAN, P2P_CHAN_BASE,
    RENDEZVOUS_TIMEOUT, TENSOR_CHAN_BASE,
};
use super::report::{self, RankOutput};
use super::spec::JobSpec;

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// If the process was invoked as a rank worker (`--proc-worker <dir>
/// <rank>` anywhere in argv), run the worker to completion and exit.
/// Call this first thing in any binary that hosts [`launch`](super::launch) — the
/// launcher re-execs the current executable with these arguments.
pub fn maybe_worker() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--proc-worker") {
        if args.len() > i + 2 {
            let dir = PathBuf::from(&args[i + 1]);
            let rank: usize = args[i + 2].parse().expect("--proc-worker rank");
            std::process::exit(worker_main(&dir, rank));
        }
    }
}

/// The body of one rank process: bind, rendezvous, train, report.
/// Returns the process exit code: 0 = the rank finished its run, 1 = it
/// failed and reported why, 3 = it never got as far as training.
pub fn worker_main(dir: &Path, rank: usize) -> i32 {
    match run_worker(dir, rank) {
        Ok(finished) => i32::from(!finished),
        Err(e) => {
            eprintln!("rank {rank}: {e}");
            3
        }
    }
}

/// `Ok(whether the rank finished its run)` once a report is published,
/// `Err` with the reason if the job could not be set up.
fn run_worker(dir: &Path, rank: usize) -> Result<bool, String> {
    let text = fs::read_to_string(dir.join("job.json")).map_err(|e| e.to_string())?;
    let job = JobSpec::from_json(&text)?;
    assert!(job.wire.is_socket(), "process mode needs a socket wire");
    let spec = job.spec();
    let microbatches = spec.microbatches(job.batch)?;
    let world = spec.world();
    // This rank's peers are processes on the same host: the job's ranks
    // share its cores.
    let _ranks = RankGuard::declare(world);
    let key @ (pi, di, ti) = spec.thread_key(rank);
    let (p, t, d, v) = (spec.pipeline, spec.tensor, spec.data, spec.chunks);
    let stages = p * v;
    let timeout = spec.comm_timeout;

    // Bind our listener and advertise it. UDS socket files live in the
    // rendezvous dir; TCP binds an ephemeral loopback port and publishes
    // the actual one.
    let bind = match job.wire {
        WireKind::Tcp => WireAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        _ => WireAddr::Uds(dir.join(format!("rank-{rank}.sock"))),
    };
    let node = Arc::new(SocketNode::bind(&bind).expect("bind rank listener"));
    publish(dir, &format!("rank-{rank}.addr"), &node.addr().to_string());
    publish(
        dir,
        &format!("rank-{rank}.pid"),
        &std::process::id().to_string(),
    );

    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    let addrs = await_addrs(dir, world, deadline)?;
    let launcher_addr = read_addr(dir, "launcher.addr");
    let transport = TransportConfig { wire: job.wire };

    // Group communicators: one socket channel per logical group, one
    // member (this process) per group.
    let flat = |pj: usize, dj: usize, tj: usize| spec.flat_rank((pj, dj, tj));
    let tg = {
        let chan_id = TENSOR_CHAN_BASE + (pi * d + di) as u64;
        let peers = (0..t)
            .map(|tj| Some(addrs[flat(pi, di, tj)].clone()))
            .collect();
        let chan = SocketChannel::new(Arc::clone(&node), chan_id, ti, peers);
        Group::with_socket(t, timeout, transport, chan).member(ti)
    };
    let dg = {
        let chan_id = DATA_CHAN_BASE + (pi * t + ti) as u64;
        let peers = (0..d)
            .map(|dj| Some(addrs[flat(pi, dj, ti)].clone()))
            .collect();
        let chan = SocketChannel::new(Arc::clone(&node), chan_id, di, peers);
        Group::with_socket(d, timeout, transport, chan).member(di)
    };

    // Pipeline lanes: for every stage boundary this device touches, a
    // dedicated 2-rank channel per direction (sender = lane rank 0) that
    // the rank loop sends on and receives from directly.
    let mut ep = Endpoints::default();
    for boundary in 0..stages.saturating_sub(1) {
        for dir in Dir::BOTH {
            let (from, to) = dir.ends(boundary);
            let chan_id = P2P_CHAN_BASE + (boundary as u64) * 2 + u64::from(dir == Dir::Bwd);
            let ends = [from, to].map(|stage| Some(addrs[flat(stage % p, di, ti)].clone()));
            let lane = |lane_rank| {
                let chan = SocketChannel::new(Arc::clone(&node), chan_id, lane_rank, ends.to_vec());
                RefCell::new(chan)
            };
            if pi == from % p {
                ep.tx.insert((dir, from), Lane::Socket(lane(0)));
            }
            if pi == to % p {
                ep.rx.insert((dir, to), Lane::Socket(lane(1)));
            }
        }
    }

    // Heartbeats: a channel of world+1 ranks whose last rank is the
    // launcher. A beacon thread pulses process liveness every hb_period
    // (independent of training progress, so stalled-but-alive survivors
    // keep beating), and the per-iteration on_beat hook pulses progress.
    // Sends never wait, so a beat never queues behind the training
    // thread's socket waits.
    let hb = launcher_addr.map(|la| {
        let mut peers: Vec<Option<WireAddr>> = vec![None; world + 1];
        peers[world] = Some(la);
        let chan = SocketChannel::new(Arc::clone(&node), HEARTBEAT_CHAN, rank, peers);
        Arc::new(Mutex::new(chan))
    });
    let beating = Arc::new(AtomicBool::new(true));
    let beacon = hb.as_ref().map(|hb| {
        let (hb, beating, period) = (Arc::clone(hb), Arc::clone(&beating), job.hb_period);
        thread::spawn(move || {
            while beating.load(Ordering::Relaxed) {
                send_heartbeat(&hb, world, &[rank as f32]);
                thread::sleep(period);
            }
        })
    });

    // Telemetry: per-process sink; the trace and metrics files are read
    // by the launcher side (`repro analyze --merge-traces`).
    let sink = job.trace.then(|| {
        megatron_telemetry::TelemetrySink::new(megatron_telemetry::SinkConfig {
            world,
            ..Default::default()
        })
    });

    // Durable checkpointing: each worker writes only its own shard — the
    // launcher, which sees every rank's shards on disk, commits complete
    // generations. The store root crosses the attempt boundary (the
    // supervisor reuses one store over many rendezvous dirs) via the
    // `ckpt.path` rendezvous file.
    let store = (job.checkpoint_every > 0).then(|| {
        let root = fs::read_to_string(dir.join("ckpt.path"))
            .map(|s| PathBuf::from(s.trim()))
            .unwrap_or_else(|_| dir.join("ckpt"));
        crate::checkpoint::CheckpointStore::open(root).expect("open checkpoint store")
    });
    // Restore the launcher-pinned generation *specifically*: restoring
    // whatever happens to be latest would silently diverge across the ranks
    // (and forbid replaying an older generation for audits).
    let restore = match job.resume_from {
        0 => None,
        pinned => {
            let store = store.as_ref();
            let store = store.ok_or("resume_from set without checkpointing")?;
            let restored = store.load_pinned(&spec, job.model, pinned);
            let restored = restored
                .map_err(|e| format!("restore of pinned generation {pinned} failed: {e}"))?;
            Some(restored.snapshot)
        }
    };

    let ctl = RunControl {
        comm_timeout: Some(timeout),
        telemetry: sink.clone(),
        checkpoint_every: (job.checkpoint_every > 0).then_some(job.checkpoint_every),
        durable: store,
        restore,
        epoch: job.epoch,
        on_beat: hb.as_ref().map(|hb| {
            let hb = Arc::clone(hb);
            // Progress beats carry the rank's absolute completed-iteration
            // count in a second frame element; the launcher's kill
            // scheduler and the supervisor's grow boundary both key off
            // it. The plain beacon stays 1-element.
            let done = std::sync::atomic::AtomicUsize::new(job.resume_from);
            let hold = job.hold;
            Arc::new(move |r: usize| {
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                send_heartbeat(&hb, world, &[r as f32, completed as f32]);
                // The armed victim stops here, beacon still beating, until
                // the launcher's SIGKILL: the kill lands at this iteration
                // whatever the job's speed.
                while hold.is_some_and(|(hr, after)| hr == r && completed >= after) {
                    thread::park();
                }
            }) as Arc<dyn Fn(usize) + Send + Sync>
        }),
        ..Default::default()
    };

    // The same rank loop the in-process trainer runs on a thread — same
    // schedule, same seeds. No generations to assemble: this process sees
    // one rank's state, so it writes its shard and the launcher commits.
    let wiring = Wiring {
        tg,
        dg,
        ep,
        generations: None,
        node: Some(Arc::clone(&node)),
    };
    let schedule = spec.schedule.build(p, microbatches);
    let outcome = run_rank(
        key,
        spec,
        &job.master(),
        &schedule,
        &job.dataset(),
        wiring,
        &ctl,
    );
    beating.store(false, Ordering::Relaxed);
    if let Some(h) = beacon {
        let _ = h.join();
    }

    let report = RankOutput::of(outcome, &spec);
    publish(dir, &report::file_name(rank), &report.encode());
    if let Some(sink) = &sink {
        publish(
            dir,
            &format!("rank-{rank}.trace.json"),
            &megatron_telemetry::chrome_trace_json(&sink.hub, stages),
        );
        publish(
            dir,
            &format!("rank-{rank}.metrics.json"),
            &sink.metrics.snapshot().to_string(),
        );
    }
    Ok(report.exit_ok)
}

/// Send one heartbeat frame to the launcher: `[flat]` for a bare liveness
/// beacon, `[flat, completed_iters]` for a progress beat.
fn send_heartbeat(hb: &Mutex<SocketChannel>, launcher_rank: usize, frame: &[f32]) {
    let mut chan = hb.lock().unwrap_or_else(|e| e.into_inner());
    let _ = megatron_collective::Transport::send(&mut *chan, launcher_rank, &[frame]);
}

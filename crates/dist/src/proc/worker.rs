//! One rank process: bind, rendezvous, run the unmodified per-thread
//! training loop over socket groups and pipeline pumps, report.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use megatron_collective::{SocketChannel, SocketNode, WireAddr};
use megatron_sim::json::Json;
use megatron_tensor::Matrix;

use crate::comm::{Group, WireKind};
use crate::trainer::{
    classify_panic, run_thread, Endpoints, RankCommOps, RankCommVolume, RunControl, SharedMap,
    StepSample, ThreadArgs, ThreadKey, ThreadState,
};

use super::rendezvous::{
    await_addrs, bits_json, publish, read_addr, volume_json, DATA_CHAN_BASE, HEARTBEAT_CHAN,
    P2P_CHAN_BASE, RENDEZVOUS_TIMEOUT, TENSOR_CHAN_BASE,
};
use super::spec::{FaultChan, JobSpec, SocketFault, SocketFaultPlan};

// ---------------------------------------------------------------------------
// Pipeline p2p pumps
// ---------------------------------------------------------------------------

/// Matrix wire frame: `[rows, cols, data…]` as f32 (dimensions are exact
/// below 2²⁴). Serialization is lossless, so pumped activations are
/// bit-identical to in-process channel sends.
fn matrix_frame(m: &Matrix) -> Vec<f32> {
    let mut frame = Vec::with_capacity(m.rows() * m.cols() + 2);
    frame.push(m.rows() as f32);
    frame.push(m.cols() as f32);
    frame.extend_from_slice(m.as_slice());
    frame
}

fn frame_matrix(frame: &[f32]) -> Option<Matrix> {
    let (rows, cols) = (*frame.first()? as usize, *frame.get(1)? as usize);
    if frame.len() != rows * cols + 2 {
        return None;
    }
    Some(Matrix::from_vec(rows, cols, frame[2..].to_vec()))
}

/// Forward matrices from the worker's `mpsc` sender into the socket lane.
/// Exits when the worker drops its sender (normal completion) or a send
/// fails; the dropped receiver then surfaces to the worker as
/// `PipelineBroken` on its next send.
fn pump_send(mut chan: SocketChannel, rx: Receiver<Matrix>, timeout: Duration) {
    for m in rx {
        chan.set_deadline(Instant::now() + timeout);
        if megatron_collective::Transport::send(&mut chan, 1, &matrix_frame(&m)).is_err() {
            return;
        }
    }
}

/// Forward socket frames into the worker's `mpsc` receiver. Hangs up —
/// dropping the sender, which the worker observes as `PipelineBroken` —
/// after `timeout` of silence (the same dead-peer convention as group
/// collectives) or when `stop` is raised after the worker exits.
fn pump_recv(
    mut chan: SocketChannel,
    tx: Sender<Matrix>,
    stop: Arc<AtomicBool>,
    timeout: Duration,
) {
    let mut last_frame = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        chan.set_deadline(Instant::now() + Duration::from_millis(200));
        match megatron_collective::PollTransport::recv_within(
            &mut chan,
            0,
            Duration::from_millis(50),
        ) {
            Ok(Some(frame)) => {
                last_frame = Instant::now();
                let Some(m) = frame_matrix(&frame) else {
                    return;
                };
                if tx.send(m).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                if last_frame.elapsed() > timeout {
                    return;
                }
            }
        }
    }
}

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
/// Returns the process exit code (0 = the rank finished its run).
pub fn worker_main(dir: &Path, rank: usize) -> i32 {
    let job = match fs::read_to_string(dir.join("job.json"))
        .map_err(|e| e.to_string())
        .and_then(|s| JobSpec::from_json(&s))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("rank {rank}: {e}");
            return 3;
        }
    };
    assert!(job.wire.is_socket(), "process mode needs a socket wire");
    let spec = job.spec();
    let world = spec.world();
    let (pi, di, ti) = spec.thread_key(rank);
    let (p, t, d, v) = (spec.pipeline, spec.tensor, spec.data, spec.chunks);
    let stages = p * v;
    let timeout = spec.comm_timeout;

    // Launcher-injected socket faults for this rank, if a plan was
    // published. A Refuse fault delays the bind below, so early-dialing
    // peers get genuine connection refusals and have to retry.
    let my_faults = fs::read_to_string(dir.join("faults.json"))
        .ok()
        .and_then(|s| SocketFaultPlan::from_json(&s).ok())
        .map(|p| p.for_rank(rank))
        .unwrap_or_default();
    for f in &my_faults {
        if let SocketFault::Refuse { delay_ms, .. } = f {
            thread::sleep(Duration::from_millis(*delay_ms));
        }
    }
    let arm = |chan: &mut SocketChannel, which: FaultChan| {
        for f in &my_faults {
            match *f {
                SocketFault::Sever {
                    chan: c,
                    after_bytes,
                    lossy,
                    ..
                } if c == which => {
                    let size = if which == FaultChan::Tensor { t } else { d };
                    if size > 1 {
                        let to = (chan.rank() + 1) % size;
                        if lossy {
                            chan.sever_outbound_after_lossy(to, after_bytes);
                        } else {
                            chan.sever_outbound_after(to, after_bytes);
                        }
                    }
                }
                SocketFault::Slow {
                    chan: c, delay_us, ..
                } if c == which => {
                    chan.set_send_delay(Some(Duration::from_micros(delay_us)));
                }
                _ => {}
            }
        }
    };

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
    let addrs = match await_addrs(dir, world, deadline) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rank {rank}: {e}");
            return 3;
        }
    };
    let launcher_addr = read_addr(dir, "launcher.addr");
    let transport = job.transport();

    // Group communicators: one socket channel per logical group, one
    // member (this process) per group.
    let flat = |pj: usize, dj: usize, tj: usize| spec.flat_rank((pj, dj, tj));
    let tg = {
        let chan_id = TENSOR_CHAN_BASE + (pi * d + di) as u64;
        let peers = (0..t)
            .map(|tj| Some(addrs[flat(pi, di, tj)].clone()))
            .collect();
        let mut chan = SocketChannel::new(Arc::clone(&node), chan_id, ti, peers);
        arm(&mut chan, FaultChan::Tensor);
        Group::with_socket(t, timeout, transport, chan).member(ti)
    };
    let dg = {
        let chan_id = DATA_CHAN_BASE + (pi * t + ti) as u64;
        let peers = (0..d)
            .map(|dj| Some(addrs[flat(pi, dj, ti)].clone()))
            .collect();
        let mut chan = SocketChannel::new(Arc::clone(&node), chan_id, di, peers);
        arm(&mut chan, FaultChan::Data);
        Group::with_socket(d, timeout, transport, chan).member(di)
    };

    // Pipeline lanes: for every stage boundary this device touches, a
    // dedicated 2-rank channel per direction (sender = lane rank 0) and a
    // pump thread bridging it to the mpsc endpoints the worker expects.
    let stop = Arc::new(AtomicBool::new(false));
    let mut pumps = Vec::new();
    let mut ep = Endpoints::default();
    for s in 0..stages.saturating_sub(1) {
        let from_dev = s % p;
        let to_dev = (s + 1) % p;
        // dir 0 = forward activations (from→to), 1 = backward gradients.
        for (dir, tx_dev, rx_dev) in [(0u64, from_dev, to_dev), (1u64, to_dev, from_dev)] {
            let chan_id = P2P_CHAN_BASE + (s as u64) * 2 + dir;
            if pi == tx_dev {
                let peers = vec![None, Some(addrs[flat(rx_dev, di, ti)].clone())];
                let chan = SocketChannel::new(Arc::clone(&node), chan_id, 0, peers);
                let (mtx, mrx) = unbounded::<Matrix>();
                if dir == 0 {
                    ep.fwd_out.insert(s, mtx);
                } else {
                    ep.bwd_out.insert(s + 1, mtx);
                }
                pumps.push(thread::spawn(move || pump_send(chan, mrx, timeout)));
            }
            if pi == rx_dev {
                let chan = SocketChannel::new(Arc::clone(&node), chan_id, 1, vec![None, None]);
                let (mtx, mrx) = unbounded::<Matrix>();
                if dir == 0 {
                    ep.fwd_in.insert(s + 1, mrx);
                } else {
                    ep.bwd_in.insert(s, mrx);
                }
                let stop = Arc::clone(&stop);
                pumps.push(thread::spawn(move || pump_recv(chan, mtx, stop, timeout)));
            }
        }
    }

    // Heartbeats: a channel of world+1 ranks whose last rank is the
    // launcher. A beacon thread pulses process liveness every hb_period
    // (independent of training progress, so stalled-but-alive survivors
    // keep beating), and the per-iteration on_beat hook pulses progress.
    let hb = launcher_addr.map(|la| {
        let mut peers: Vec<Option<WireAddr>> = vec![None; world + 1];
        peers[world] = Some(la);
        let chan = SocketChannel::new(Arc::clone(&node), HEARTBEAT_CHAN, rank, peers);
        Arc::new(Mutex::new(chan))
    });
    if let Some(hb) = &hb {
        let hb = Arc::clone(hb);
        let stop = Arc::clone(&stop);
        let period = job.hb_period;
        pumps.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if send_heartbeat(&hb, world, &[rank as f32]).is_err() {
                    return;
                }
                thread::sleep(period);
            }
        }));
    }

    // Telemetry: per-process sink; the trace file is merged by the
    // launcher side (`repro analyze --merge-traces`).
    let sink = job.trace.then(|| {
        megatron_telemetry::TelemetrySink::new(megatron_telemetry::SinkConfig {
            world,
            flops_per_iteration: 0.0,
            gpu: None,
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
    let restore = if job.resume_from > 0 {
        let Some(store) = &store else {
            eprintln!("rank {rank}: resume_from set without checkpointing");
            return 3;
        };
        // Restore the launcher-pinned generation *specifically*: restoring
        // whatever happens to be latest would silently diverge across the
        // ranks (and forbid replaying an older generation for audits).
        match store.load_pinned(&spec, job.model, job.resume_from) {
            Ok(r) => Some(r.snapshot),
            Err(e) => {
                eprintln!(
                    "rank {rank}: restore of pinned generation {} failed: {e}",
                    job.resume_from
                );
                return 3;
            }
        }
    } else {
        None
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
                let _ = send_heartbeat(&hb, world, &[r as f32, completed as f32]);
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

    // The unmodified per-thread training loop, exactly as the in-process
    // trainer drives it — same ThreadArgs, same schedule, same seeds.
    let master = job.master();
    let dataset = job.dataset();
    let m = job.batch / d / spec.microbatch;
    let schedule = spec.schedule.build(p, m);
    let losses = Arc::new(Mutex::new(vec![0.0f32; job.iters]));
    let final_params: SharedMap<Vec<f32>> = Arc::new(Mutex::new(HashMap::new()));
    let peak_stash: SharedMap<usize> = Arc::new(Mutex::new(HashMap::new()));
    let step_times: SharedMap<Vec<StepSample>> = Arc::new(Mutex::new(HashMap::new()));
    let comm_volumes: SharedMap<RankCommVolume> = Arc::new(Mutex::new(HashMap::new()));
    let comm_ops: SharedMap<RankCommOps> = Arc::new(Mutex::new(HashMap::new()));
    let ckpts: Mutex<HashMap<usize, HashMap<ThreadKey, ThreadState>>> = Mutex::new(HashMap::new());

    let result: Result<(), crate::trainer::TrainError> = {
        let args = ThreadArgs {
            pi,
            di,
            ti,
            spec,
            master: &master,
            schedule: &schedule,
            data: &dataset,
            ep,
            tg,
            dg,
            losses: Arc::clone(&losses),
            final_params: Arc::clone(&final_params),
            peak_stash: Arc::clone(&peak_stash),
            step_times: Arc::clone(&step_times),
            comm_volumes: Arc::clone(&comm_volumes),
            comm_ops: Arc::clone(&comm_ops),
            ctl: &ctl,
            ckpts: &ckpts,
        };
        thread::scope(|s| {
            s.spawn(|| run_thread(args))
                .join()
                .unwrap_or_else(|e| Err(classify_panic(&e)))
        })
    };
    stop.store(true, Ordering::Relaxed);
    for h in pumps {
        let _ = h.join();
    }

    // Report: every f32 as u32 bits, so the launcher's merge is exact.
    let key = (pi, di, ti);
    let lock = |m: &SharedMap<Vec<f32>>| {
        m.lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key)
            .unwrap_or_default()
    };
    let vol = comm_volumes
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .unwrap_or_default();
    let tape_bytes = comm_ops
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .map(|ops| ops.total_bytes(t, ti, d, di))
        .unwrap_or(0.0);
    let peak = peak_stash
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .unwrap_or(0);
    let steps = step_times
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .map(|s| s.len())
        .unwrap_or(0);
    let losses = Arc::try_unwrap(losses)
        .unwrap()
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let doc = Json::obj([
        ("rank", Json::Num(rank as f64)),
        (
            "key",
            Json::Arr(vec![
                Json::Num(pi as f64),
                Json::Num(di as f64),
                Json::Num(ti as f64),
            ]),
        ),
        ("pid", Json::Num(std::process::id() as f64)),
        (
            "error",
            match &result {
                Ok(()) => Json::Null,
                Err(e) => Json::Str(e.to_string()),
            },
        ),
        ("losses_bits", bits_json(&losses)),
        ("params_bits", bits_json(&lock(&final_params))),
        ("volume", volume_json(&vol)),
        ("tape_bytes", Json::Num(tape_bytes)),
        ("peak_stash", Json::Num(peak as f64)),
        ("steps", Json::Num(steps as f64)),
    ]);
    publish(dir, &format!("rank-{rank}.out.json"), &doc.to_string());
    if let Some(sink) = &sink {
        publish(
            dir,
            &format!("rank-{rank}.trace.json"),
            &megatron_telemetry::chrome_trace_json(&sink.hub, stages),
        );
    }
    i32::from(result.is_err())
}

/// Send one heartbeat frame to the launcher: `[flat]` for a bare liveness
/// beacon, `[flat, completed_iters]` for a progress beat.
fn send_heartbeat(
    hb: &Mutex<SocketChannel>,
    launcher_rank: usize,
    frame: &[f32],
) -> Result<(), megatron_collective::SocketError> {
    let mut chan = hb.lock().unwrap_or_else(|e| e.into_inner());
    chan.set_deadline(Instant::now() + Duration::from_secs(5));
    megatron_collective::Transport::send(&mut *chan, launcher_rank, frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_frames_round_trip_bit_exactly() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 0.7);
        let back = frame_matrix(&matrix_frame(&m)).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 5);
        assert_eq!(m.as_slice(), back.as_slice());
        assert!(
            frame_matrix(&[2.0, 2.0, 1.0]).is_none(),
            "torn frame rejected"
        );
    }
}

//! Layer probes: each calls one layer's public functions directly, at the
//! shapes and message sizes the workload itself uses (derived from its
//! configuration and from the comm-op tape of a one-iteration reference
//! run), warms up, and reports the median of its timed calls. Every call is
//! a benchmark-owned span.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use megatron_collective::{SocketChannel, SocketNode, WireAddr};
use megatron_data::ShardedLoader;
use megatron_dist::{
    CheckpointStore, CollectiveKind, Group, GroupMember, ParallelBlock, PtdpTrainer, RunControl,
    TrainOutcome, TransportConfig, WireKind,
};
use megatron_tensor::gemm;
use megatron_tensor::gpt::Block;
use megatron_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::round::OUT_DIR;
use crate::shapes::{Gemm, Variant};
use crate::spans::{Reps, SpanLog};
use crate::workloads::Workload;

/// A collective that stalls for this long fails its probe instead of
/// hanging the benchmark.
const PROBE_COMM_TIMEOUT: Duration = Duration::from_secs(20);

/// The socket transport writes a whole ring chunk before it reads, so two
/// neighbours exchanging chunks larger than the kernel's socket buffer
/// stall each other (ROADMAP item 1). Socket probes above this chunk size
/// are skipped and report 0.
const SOCKET_MAX_CHUNK_BYTES: usize = 64 * 1024;

/// A save of a few-million-parameter snapshot takes about a second; the
/// checkpoint probes stop after this long rather than make all their calls.
const CHECKPOINT_BUDGET_S: f64 = 1.5;

/// One iteration of the workload's job on threads, checkpointing once: the
/// source of the comm-op tape, the per-rank parameter counts and the
/// snapshot the checkpoint probe saves.
pub fn reference_run(w: &Workload, seed: u64) -> TrainOutcome {
    let ctl = RunControl {
        checkpoint_every: Some(1),
        ..Default::default()
    };
    PtdpTrainer::new(w.master(seed), w.spec()).train_with(&w.dataset(seed, 1), ctl)
}

// ---------------------------------------------------------------------------
// tensor
// ---------------------------------------------------------------------------

pub struct GemmRates {
    /// FLOP-weighted GFLOP/s per variant, in `Variant` order.
    pub gflops: [f64; 3],
    /// Seconds all GEMMs of one iteration take when run back to back.
    pub seconds_per_iter: f64,
}

pub fn gemm_rates(
    log: &mut SpanLog,
    shapes: &BTreeMap<Gemm, u64>,
    reps: Reps,
    seed: u64,
) -> GemmRates {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flops = [0.0f64; 3];
    let mut seconds = [0.0f64; 3];
    for (g, count) in shapes {
        let mut rand = |r, c| Matrix::randn(r, c, 1.0, &mut rng);
        let name = format!("tensor.{:?}.{}x{}x{}", g.variant, g.m, g.k, g.n);
        let each = match g.variant {
            Variant::Nn => {
                let (a, b) = (rand(g.m, g.k), rand(g.k, g.n));
                log.probe(&name, reps, None, || {
                    std::hint::black_box(gemm::matmul(&a, &b));
                })
            }
            Variant::Tn => {
                let (a, b) = (rand(g.k, g.m), rand(g.k, g.n));
                log.probe(&name, reps, None, || {
                    std::hint::black_box(gemm::matmul_tn(&a, &b));
                })
            }
            Variant::Nt => {
                let (a, b) = (rand(g.m, g.k), rand(g.n, g.k));
                log.probe(&name, reps, None, || {
                    std::hint::black_box(gemm::matmul_nt(&a, &b));
                })
            }
        };
        let v = g.variant as usize;
        flops[v] += g.flops() * *count as f64;
        seconds[v] += each * *count as f64;
    }
    GemmRates {
        gflops: [0, 1, 2].map(|v| flops[v] / seconds[v].max(1e-12) / 1e9),
        seconds_per_iter: seconds.iter().sum(),
    }
}

// ---------------------------------------------------------------------------
// collective, block: calls that every rank of a group makes in lockstep
// ---------------------------------------------------------------------------

/// Run `warmup + calls` lockstep calls on each rank of a `g`-member group
/// over `wire`; rank 0 runs on this thread and its calls are the probe's
/// spans. `make(rank)` builds one rank's call. Returns rank 0's median call
/// time in seconds.
fn group_probe<F: FnMut(&GroupMember)>(
    log: &mut SpanLog,
    name: &str,
    reps: Reps,
    wire: WireKind,
    g: usize,
    make: impl Fn(usize) -> F + Sync,
) -> f64 {
    let dir = Path::new(OUT_DIR).join(format!("probe-{}", std::process::id()));
    let nodes: Vec<Arc<SocketNode>> = if wire.is_socket() {
        std::fs::create_dir_all(&dir).expect("create probe socket dir");
        (0..g)
            .map(|r| {
                let addr = match wire {
                    WireKind::Tcp => WireAddr::Tcp("127.0.0.1:0".parse().expect("loopback")),
                    _ => WireAddr::Uds(dir.join(format!("r{r}.sock"))),
                };
                Arc::new(SocketNode::bind(&addr).expect("bind probe listener"))
            })
            .collect()
    } else {
        Vec::new()
    };
    let addrs: Vec<Option<WireAddr>> = nodes.iter().map(|n| Some(n.addr().clone())).collect();
    let mailbox = (!wire.is_socket()).then(|| Group::with_timeout(g, PROBE_COMM_TIMEOUT));
    let member = |rank: usize| match &mailbox {
        Some(group) => group.member(rank),
        None => {
            let chan = SocketChannel::new(Arc::clone(&nodes[rank]), 7000, rank, addrs.clone());
            let cfg = TransportConfig {
                wire,
                ..Default::default()
            };
            Group::with_socket(g, PROBE_COMM_TIMEOUT, cfg, chan).member(rank)
        }
    };
    let seconds = std::thread::scope(|scope| {
        for rank in 1..g {
            let (member, make) = (&member, &make);
            scope.spawn(move || {
                let (m, mut call) = (member(rank), make(rank));
                for _ in 0..reps.warmup + reps.calls {
                    call(&m);
                }
            });
        }
        let (m, mut call) = (member(0), make(0));
        log.probe(name, reps, None, || call(&m))
    });
    // Listeners go before their socket files: dropping one wakes its
    // acceptor by dialling its own address.
    drop(nodes);
    let _ = std::fs::remove_dir_all(&dir);
    seconds
}

/// All-reduce sizes of a workload, read off its tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllReduceSizes {
    /// Group size the all-reduces ran over.
    pub group: usize,
    /// The most frequent element count (the larger one on a tie).
    pub small: usize,
    /// The largest element count.
    pub large: usize,
}

/// `None` when the workload issues no all-reduce over more than one rank.
pub fn all_reduce_sizes(w: &Workload, reference: &TrainOutcome) -> Option<AllReduceSizes> {
    let (_, t, d) = w.ptd;
    let mut seen: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for ops in reference.log.comm_ops.values() {
        for (group, tape) in [(t, &ops.tensor), (d, &ops.data)] {
            for op in tape
                .iter()
                .filter(|op| op.kind == CollectiveKind::AllReduce)
            {
                if group > 1 {
                    *seen.entry((group, op.elems)).or_insert(0) += 1;
                }
            }
        }
    }
    let (&(group, small), _) = seen.iter().max_by_key(|(&(_, elems), &n)| (n, elems))?;
    let large = seen.keys().map(|&(_, elems)| elems).max()?;
    Some(AllReduceSizes {
        group,
        small,
        large,
    })
}

/// Median seconds of one `n`-element all-reduce over `g` ranks on `wire`;
/// 0 where the socket transport cannot carry the chunk.
pub fn all_reduce_s(
    log: &mut SpanLog,
    label: &str,
    reps: Reps,
    wire: WireKind,
    g: usize,
    n: usize,
) -> f64 {
    if wire.is_socket() && 4 * n.div_ceil(g) > SOCKET_MAX_CHUNK_BYTES {
        return 0.0;
    }
    let name = format!("collective.allreduce_{label}.{wire:?}.{n}");
    group_probe(log, &name, reps, wire, g, |rank| {
        let mut buf: Vec<f32> = (0..n)
            .map(|i| ((rank * 31 + i * 7) % 97) as f32 * 0.125)
            .collect();
        move |m: &GroupMember| m.all_reduce_sum(&mut buf)
    })
}

/// Median seconds of `ParallelBlock::forward` and `::backward` at the
/// workload's microbatch shape, sharded `t` ways.
pub fn block_s(log: &mut SpanLog, w: &Workload, t: usize, reps: Reps, seed: u64) -> (f64, f64) {
    let (h, heads, seq, b) = (w.model.hidden, w.model.heads, w.model.seq, w.microbatch);
    let mut rng = StdRng::seed_from_u64(seed);
    let serial = Block::new(h, heads, &mut rng);
    let x = Matrix::randn(b * seq, h, 1.0, &mut rng);
    let dout = Matrix::randn(b * seq, h, 1.0, &mut rng);
    let shard = |rank| ParallelBlock::from_serial(&serial, heads, t, rank);

    let fwd = group_probe(
        log,
        &format!("block.fwd.t{t}"),
        reps,
        WireKind::Mailbox,
        t,
        |rank| {
            let block = shard(rank);
            let x = &x;
            move |m: &GroupMember| {
                std::hint::black_box(block.forward(x, b, seq, m));
            }
        },
    );
    let bwd = group_probe(
        log,
        &format!("block.bwd.t{t}"),
        reps,
        WireKind::Mailbox,
        t,
        |rank| {
            let mut block = shard(rank);
            let (x, dout) = (&x, &dout);
            let mut cache = None;
            move |m: &GroupMember| {
                // The forward that fills the cache is itself a lockstep call,
                // so it happens inside the first (warm-up or timed) call on
                // every rank; later calls reuse it.
                let cache = cache.get_or_insert_with(|| block.forward(x, b, seq, m).1);
                std::hint::black_box(block.backward(cache, dout, b, seq, m));
            }
        },
    );
    (fwd, bwd)
}

// ---------------------------------------------------------------------------
// checkpoint, data
// ---------------------------------------------------------------------------

pub struct CheckpointCost {
    pub save_s: f64,
    pub restore_s: f64,
    pub mib: f64,
}

/// Durable store round trip of the reference run's snapshot.
pub fn checkpoint_cost(
    log: &mut SpanLog,
    w: &Workload,
    reference: &TrainOutcome,
    reps: Reps,
) -> Option<CheckpointCost> {
    let threads = &reference.snapshot.as_ref()?.threads;
    let root = Path::new(OUT_DIR).join(format!("ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CheckpointStore::open(&root).ok()?;
    let spec = w.spec();
    let mut generation = 0;
    let save_s = log.probe("checkpoint.save", reps, Some(CHECKPOINT_BUDGET_S), || {
        generation += 1;
        for (key, state) in threads {
            store
                .write_shard(&spec, *key, generation, state)
                .expect("write checkpoint shard");
        }
        store
            .commit_generation(&spec, w.model, generation, threads)
            .expect("commit checkpoint generation");
    });
    let restore_s = log.probe(
        "checkpoint.restore",
        reps,
        Some(CHECKPOINT_BUDGET_S),
        || {
            std::hint::black_box(
                store
                    .load_latest(&spec, w.model)
                    .expect("restore checkpoint"),
            );
        },
    );
    let newest = std::fs::read_dir(&root)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .max()?;
    let bytes: u64 = std::fs::read_dir(newest)
        .ok()?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&root);
    Some(CheckpointCost {
        save_s,
        restore_s,
        mib: bytes as f64 / (1024.0 * 1024.0),
    })
}

/// Median seconds to draw one global batch and cut every replica's shard.
pub fn data_batch_s(log: &mut SpanLog, w: &Workload, reps: Reps, seed: u64) -> f64 {
    let batches = reps.warmup + reps.calls;
    let mut loader = w.loader(seed, batches);
    let replicas = w.ptd.2;
    log.probe("data.batch", reps, None, || {
        let batch = loader
            .next_global()
            .expect("loader holds one batch per call");
        for r in 0..replicas {
            std::hint::black_box(ShardedLoader::shard(&batch, r, replicas));
        }
    })
}

/// Idle share of the pipeline schedule the workload generates.
pub fn schedule_bubble_fraction(w: &Workload) -> f64 {
    let (p, _, d) = w.ptd;
    let m = w.batch / d / w.microbatch;
    let schedule = w.spec().schedule.build(p, m);
    schedule
        .validate()
        .expect("generated schedule is valid")
        .bubble_fraction
}

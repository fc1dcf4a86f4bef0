//! The four workloads: what each one is, why it exists, and the inputs it
//! generates from the seed.

use megatron_data::{MarkovCorpus, ShardedLoader};
use megatron_dist::proc::JobSpec;
use megatron_dist::PtdpSpec;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::shapes::Cut;

/// Rounds per run. Each is a fresh process, so peak memory, allocator state
/// and address layout are per round, and `setup_s` has one sample per round.
pub const ROUNDS: usize = 4;

/// Share of `--seconds` that is timed iterations; the rest goes to the
/// reference steps (a quarter of a round), four set-ups, four warm-up
/// iterations and the correctness checks. Chosen so that a run at nominal
/// speed ends some seconds after `--seconds` and a run on the machine at its
/// slowest still ends well inside what the judge of `BENCHMARK.json` allows.
const TIMED_SHARE: f64 = 0.55;

/// The frozen reference step of a workload (`reference.rs`).
#[derive(Debug, Clone, Copy)]
pub struct RefSpec {
    /// Layers of each replica's model (the workload's otherwise): what
    /// keeps the step well under a slice with one replica per rank.
    pub layers: usize,
    /// Samples of the workload's sequence length per replica: one
    /// microbatch (one sample for the serial baseline).
    pub batch: usize,
    /// Wall and CPU seconds a step takes on the quiet machine. They only
    /// set the scale: with them a reference second is about a second.
    pub nominal_s: f64,
    pub nominal_cpu_s: f64,
}

/// How a workload runs its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `GptModel::forward/backward` + `Adam::step` on the calling thread.
    Serial,
    /// `PtdpTrainer`: one thread per rank, mailbox transport.
    Thread,
    /// `dist::proc::launch`: one OS process per rank, Unix-domain sockets.
    Proc,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen (also in `BENCHMARK.json` and the README).
    pub why: &'static str,
    pub mode: Mode,
    pub model: TinyGptConfig,
    pub batch: usize,
    pub microbatch: usize,
    /// `(p, t, d)`.
    pub ptd: (usize, usize, usize),
    /// Seconds one iteration took when the sizes were chosen. Only turns
    /// `--seconds` into a *fixed* iteration count (the same work on every
    /// commit); a faster trainer finishes its run sooner.
    pub nominal_iter_s: f64,
    pub reference: RefSpec,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serial_wide",
        why: "single-worker baseline: all time in tensor compute on large GEMMs, no communication",
        mode: Mode::Serial,
        model: TinyGptConfig {
            vocab: 512,
            seq: 64,
            hidden: 256,
            heads: 8,
            layers: 4,
        },
        batch: 3,
        microbatch: 3,
        ptd: (1, 1, 1),
        nominal_iter_s: 0.50,
        reference: RefSpec {
            layers: 4,
            batch: 1,
            nominal_s: 0.170,
            nominal_cpu_s: 0.257,
        },
    },
    Workload {
        name: "ptd222_thread",
        why: "canonical (2,2,2) job on 8 threads: many small all-reduces, pipeline p2p, oversubscribed",
        mode: Mode::Thread,
        model: PTD222_MODEL,
        batch: 16,
        microbatch: 2,
        ptd: (2, 2, 2),
        nominal_iter_s: 0.50,
        reference: RefSpec {
            layers: 1,
            batch: 2,
            nominal_s: 0.128,
            nominal_cpu_s: 0.227,
        },
    },
    Workload {
        name: "proc222_uds",
        why: "same job as 8 OS processes over UDS: isolates sockets, p2p pumps, launch and rendezvous",
        mode: Mode::Proc,
        model: PTD222_MODEL,
        batch: 16,
        microbatch: 2,
        ptd: (2, 2, 2),
        nominal_iter_s: 0.40,
        reference: RefSpec {
            layers: 1,
            batch: 2,
            nominal_s: 0.128,
            nominal_cpu_s: 0.227,
        },
    },
    Workload {
        name: "dp2_fat",
        why: "2-way data parallel, 3.4M params per 16 tokens: large gradient all-reduce and Adam dominate",
        mode: Mode::Thread,
        model: TinyGptConfig {
            vocab: 512,
            seq: 8,
            hidden: 256,
            heads: 8,
            layers: 4,
        },
        batch: 2,
        microbatch: 1,
        ptd: (1, 1, 2),
        nominal_iter_s: 0.13,
        reference: RefSpec {
            layers: 4,
            batch: 1,
            nominal_s: 0.108,
            nominal_cpu_s: 0.167,
        },
    },
];

const PTD222_MODEL: TinyGptConfig = TinyGptConfig {
    vocab: 128,
    seq: 32,
    hidden: 128,
    heads: 4,
    layers: 4,
};

/// Adam learning rate of every workload. The trainer's default, 0.01, makes
/// the loss of the 256-wide models climb for dozens of iterations before it
/// falls; at 0.001 it falls from the first iterations on, so `final_loss` is a
/// usable quality signal within a round.
const LR: f32 = 0.001;

/// Successors per token in the Markov corpus: few enough that the loss
/// falls visibly within a round.
const CORPUS_BRANCHING: usize = 4;

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn tokens_per_iter(&self) -> usize {
        self.batch * self.model.seq
    }

    pub fn world(&self) -> usize {
        self.ptd.0 * self.ptd.1 * self.ptd.2
    }

    /// Timed iterations per round for a run of `seconds` (iteration 0 of
    /// each round is warm-up and comes on top).
    pub fn timed_iters(&self, seconds: f64) -> usize {
        ((seconds * TIMED_SHARE / ROUNDS as f64 / self.nominal_iter_s).round() as usize).max(2)
    }

    pub fn cut(&self) -> Cut {
        Cut {
            batch: self.batch,
            microbatch: self.microbatch,
            tensor: self.ptd.1,
        }
    }

    /// The parallelization plan (1F1B, default learning rate).
    pub fn spec(&self) -> PtdpSpec {
        let (p, t, d) = self.ptd;
        let mut spec = PtdpSpec::new(p, t, d);
        spec.microbatch = self.microbatch;
        spec.lr = LR;
        spec
    }

    /// The seeded master model.
    pub fn master(&self, seed: u64) -> GptModel {
        GptModel::new(self.model, &mut StdRng::seed_from_u64(seed))
    }

    /// A loader over `iters` global batches of a seeded Markov corpus, so
    /// the loss falls as training proceeds.
    pub fn loader(&self, seed: u64, iters: usize) -> ShardedLoader {
        let mut corpus = MarkovCorpus::new(self.model.vocab, CORPUS_BRANCHING, seed);
        ShardedLoader::from_corpus(&mut corpus, self.batch, self.model.seq, iters)
    }

    /// The `iters` global batches of [`Workload::loader`], materialised.
    pub fn dataset(&self, seed: u64, iters: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut loader = self.loader(seed, iters);
        std::iter::from_fn(|| loader.next_global().map(|b| (b.tokens, b.targets))).collect()
    }

    /// The process-mode job: the same plan, model and batch, with the
    /// job's built-in token stream seeded from `seed`.
    pub fn job(&self, seed: u64, iters: usize, trace: bool) -> JobSpec {
        let (p, t, d) = self.ptd;
        let mut job = JobSpec::canonical(p, t, d);
        job.microbatch = self.microbatch;
        job.lr = LR;
        job.model = self.model;
        job.model_seed = seed;
        job.data_seed = seed;
        job.batch = self.batch;
        job.iters = iters;
        job.trace = trace;
        job
    }
}

//! Lowering a (model, cluster, parallel config, schedule) quadruple to a
//! task DAG and distilling the simulated run into an iteration report.

use std::collections::HashMap;

use crate::cluster::ClusterSpec;
use megatron_schedule::{Pass, PipelineSchedule, ScheduleKind};
use megatron_sim::{secs_to_time, DagSim, ResourceId, SimResult, TaskId, Time};
use megatron_telemetry::{RankTracer, Span, SpanArgs, SpanKind, TraceHub};

use crate::costs::{self, StageCost};
use crate::model::{memory, GptConfig, BYTES_FP16};
use crate::net::analytical;
use crate::parallel::{analysis, ConfigError, ParallelConfig, RankMapper};
use crate::report::{CommVolumes, IterationReport, TimeBreakdown};

/// One simulated task in the trainer's span vocabulary (the names and args
/// `Rank::forward`/`backward`/`send`/`recv`/`step` record), placed on the
/// pipeline device that runs it.
#[derive(Debug, Clone, Copy)]
struct Label {
    dev: usize,
    kind: SpanKind,
    name: &'static str,
    args: SpanArgs,
    /// A compute gated by a transfer first waits for it, as the trainer
    /// waits in `recv`: the wait span's name and the device's previous task,
    /// whose end the wait starts at (`None`: the device's first task).
    wait: Option<(&'static str, Option<TaskId>)>,
}

/// Record every simulated task as a span on its device's tracer — keyed
/// `(dev, 0, 0)` at iteration 0, epoch 0 — and export them with the real
/// trainer's exporter. `labels[i]` describes task `i`.
fn twin_trace(result: &SimResult, labels: &[Label], pipeline_stages: usize) -> String {
    let mut when: Vec<(Time, Time)> = vec![(0, 0); labels.len()];
    for s in &result.spans {
        when[s.task.index()] = (s.start, s.end);
    }
    let span = |kind, name, start_ns: Time, end_ns: Time, args| Span {
        kind,
        name,
        start_ns,
        dur_ns: end_ns - start_ns,
        iteration: 0,
        epoch: 0,
        args,
    };
    let hub = TraceHub::new();
    let tracers: Vec<RankTracer> = (0..pipeline_stages)
        .map(|d| hub.tracer(d, (d, 0, 0)))
        .collect();
    for (l, &(start, end)) in labels.iter().zip(&when) {
        if let Some((name, prev)) = l.wait {
            let from = prev.map_or(0, |t| when[t.index()].1);
            tracers[l.dev].push(span(SpanKind::Bubble, name, from, start, l.args));
        }
        tracers[l.dev].push(span(l.kind, l.name, start, end, l.args));
    }
    drop(tracers);
    megatron_telemetry::chrome_trace_json(&hub, pipeline_stages)
}

/// Execution options (§4's optimizations and §2.2's schedule choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingOptions {
    /// Pipeline schedule. Its chunk count must equal the parallel config's
    /// `chunks` ([`TrainingRun::ptdp`] derives it automatically).
    pub schedule: ScheduleKind,
    /// §4.1 scatter/gather communication optimization.
    pub scatter_gather: bool,
    /// §4.2 operator fusion + strided-batched-GEMM data layout.
    pub fused: bool,
    /// §3.5 activation recomputation.
    pub recompute: bool,
    /// Reject configurations whose footprint exceeds device memory.
    pub enforce_memory: bool,
    /// Pipeline sends synchronize with the sender's compute stream (as in
    /// Megatron, where `batch_isend_irecv` completes before the next op).
    /// Disable for an idealized fully-overlapped-communication ablation.
    pub blocking_p2p: bool,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            schedule: ScheduleKind::OneFOneB,
            scatter_gather: true,
            fused: true,
            recompute: true,
            enforce_memory: true,
            blocking_p2p: true,
        }
    }
}

/// Why a simulation could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The parallel configuration is invalid for the model/cluster.
    Config(ConfigError),
    /// Schedule construction or replay failed.
    Schedule(String),
    /// The options and parallel config disagree on interleaving.
    ChunkMismatch {
        /// Chunks in the schedule option.
        schedule: usize,
        /// Chunks in the parallel config.
        config: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Schedule(e) => write!(f, "schedule error: {e}"),
            RunError::ChunkMismatch { schedule, config } => write!(
                f,
                "schedule has {schedule} chunks but parallel config has {config}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

/// A fully specified training run ready to simulate.
#[derive(Debug, Clone)]
pub struct TrainingRun {
    /// Model architecture.
    pub model: GptConfig,
    /// Hardware.
    pub cluster: ClusterSpec,
    /// PTD-P dimensions.
    pub parallel: ParallelConfig,
    /// Execution options.
    pub options: TrainingOptions,
}

impl TrainingRun {
    /// Construct a run with explicit options.
    pub fn new(
        model: GptConfig,
        cluster: ClusterSpec,
        parallel: ParallelConfig,
        options: TrainingOptions,
    ) -> Self {
        TrainingRun {
            model,
            cluster,
            parallel,
            options,
        }
    }

    /// Construct the paper's default PTD-P setup: 1F1B (interleaved when the
    /// config has `chunks > 1`), scatter/gather on, fusion on, recomputation
    /// on.
    pub fn ptdp(model: GptConfig, cluster: ClusterSpec, parallel: ParallelConfig) -> Self {
        let schedule = if parallel.chunks > 1 {
            ScheduleKind::Interleaved {
                chunks: parallel.chunks as usize,
            }
        } else {
            ScheduleKind::OneFOneB
        };
        TrainingRun::new(
            model,
            cluster,
            parallel,
            TrainingOptions {
                schedule,
                ..TrainingOptions::default()
            },
        )
    }

    fn check(&self) -> Result<(), RunError> {
        let pc = &self.parallel;
        if self.options.schedule.chunks() != pc.chunks as usize {
            return Err(RunError::ChunkMismatch {
                schedule: self.options.schedule.chunks(),
                config: pc.chunks,
            });
        }
        let n = self.cluster.total_gpus() as u64;
        if self.options.enforce_memory {
            pc.validate_for_model(
                &self.model,
                n,
                self.cluster.gpu.mem_capacity,
                self.options.recompute,
            )?;
        } else {
            pc.validate(n)?;
            let stages = pc.pipeline * pc.chunks;
            if !self.model.num_layers.is_multiple_of(stages) {
                return Err(RunError::Config(ConfigError::IndivisibleLayers {
                    layers: self.model.num_layers,
                    stages,
                }));
            }
        }
        Ok(())
    }

    /// Build the schedule for this run.
    pub fn schedule(&self) -> Result<PipelineSchedule, RunError> {
        let pc = &self.parallel;
        let sched = self
            .options
            .schedule
            .build(pc.pipeline as usize, pc.microbatches() as usize);
        Ok(sched)
    }

    /// Time for one inter-stage boundary transfer from `from_stage` to an
    /// adjacent stage, given per-rank wire behaviour (§4.1).
    fn boundary_time(&self, mapper: &RankMapper, from_dev: u64, to_dev: u64) -> f64 {
        let pc = &self.parallel;
        let bytes = analysis::pipeline_p2p_bytes(&self.model, pc.microbatch);
        let send_group = mapper.tensor_group(from_dev, 0);
        let recv_group = mapper.tensor_group(to_dev, 0);
        let class = self.cluster.link_class(send_group[0], recv_group[0]);
        if self.options.scatter_gather && pc.tensor > 1 {
            // Each rank sends 1/t over its own link, then the receivers
            // re-materialize with an NVLink all-gather.
            let chunk = bytes.div_ceil(pc.tensor);
            self.cluster.p2p_time(class, chunk as f64)
                + analytical::ring_all_gather_time(&self.cluster, &recv_group, chunk as f64)
        } else {
            // All t ranks redundantly send the full tensor in parallel over
            // their own links: time of one full send.
            self.cluster.p2p_time(class, bytes as f64)
        }
    }

    /// Simulate one training iteration.
    pub fn simulate(&self) -> Result<IterationReport, RunError> {
        self.run_dag().map(|(report, ..)| report)
    }

    /// Simulate one training iteration, returning the report and the
    /// Chrome-trace JSON of every simulated task, recorded as the real
    /// trainer records its spans: pipeline device `d` is rank `d` at
    /// `(d, 0, 0)`, with one `pipeline-wait-*` span before each compute a
    /// transfer gates, so one analyzer reads the twin and the real run.
    pub fn simulate_traced(&self) -> Result<(IterationReport, String), RunError> {
        let (report, result, labels) = self.run_dag()?;
        let trace = twin_trace(&result, &labels, self.parallel.pipeline as usize);
        Ok((report, trace))
    }

    /// Build and run the iteration's task DAG: the report, the simulator's
    /// result and one [`Label`] per task.
    fn run_dag(&self) -> Result<(IterationReport, SimResult, Vec<Label>), RunError> {
        self.check()?;
        let pc = &self.parallel;
        let p = pc.pipeline as usize;
        let v = pc.chunks as usize;
        let m = pc.microbatches() as usize;
        let stages = p * v;
        let mapper = RankMapper::new(pc.pipeline, pc.tensor, pc.data);

        let stage_costs: Vec<StageCost> = costs::price_stages(
            &self.model,
            &self.cluster,
            pc,
            self.options.fused,
            self.options.recompute,
        );

        let sched = self.schedule()?;
        // Replay (any positive durations) yields a topological creation
        // order for the DAG tasks.
        let replay = sched
            .replay(1.0, 2.0)
            .map_err(|e| RunError::Schedule(e.to_string()))?;

        let mut sim = DagSim::new();
        let compute: Vec<_> = (0..p)
            .map(|d| sim.add_resource(format!("dev{d}.compute")))
            .collect();
        let netport: Vec<_> = (0..p)
            .map(|d| sim.add_resource(format!("dev{d}.net")))
            .collect();

        // Precompute boundary transfer durations stage -> stage+1 (forward)
        // and stage -> stage−1 (backward, same cost by symmetry).
        let boundary: Vec<f64> = (0..stages.saturating_sub(1))
            .map(|s| {
                let from = (s % p) as u64;
                let to = ((s + 1) % p) as u64;
                self.boundary_time(&mapper, from, to)
            })
            .collect();

        // Communication accounting.
        let bytes_full = analysis::pipeline_p2p_bytes(&self.model, pc.microbatch) as f64;
        let per_link = if self.options.scatter_gather && pc.tensor > 1 {
            bytes_full / pc.tensor as f64
        } else {
            bytes_full
        };
        // Wire bytes per boundary per direction per microbatch, aggregated
        // over the t parallel links.
        let wire_per_boundary = per_link * pc.tensor as f64;
        let grad_params = (0..pc.pipeline)
            .map(|s| memory::params_per_gpu(&self.model, pc.pipeline, pc.tensor, s))
            .max()
            .unwrap_or(0);
        // Gradients are all-reduced in fp16 (the 2021 Megatron recipe).
        let data_parallel_bytes_per_gpu =
            analysis::data_parallel_bytes(grad_params * BYTES_FP16, pc.data);

        // Task `i` is `labels[i]`: every task goes through `add`.
        let mut labels: Vec<Label> = Vec::new();
        let mut add = |res: ResourceId, secs: f64, deps: &[TaskId], label: Label| {
            labels.push(label);
            sim.add_task(res, secs_to_time(secs), deps, 0)
        };
        let mut prev_on_device: Vec<Option<TaskId>> = vec![None; p];
        let mut arrival: HashMap<(Pass, usize, usize), TaskId> = HashMap::new();

        for span in &replay.spans {
            let d = span.device;
            let op = span.op;
            let stage = sched.stage_of(d, op.chunk);
            let cost = &stage_costs[stage];
            let mb = SpanArgs {
                bytes: None,
                microbatch: Some(op.microbatch),
                chunk: Some(op.chunk),
            };
            let (dur, kind, name, wait_name, send_name) = match op.pass {
                Pass::Forward => (
                    cost.forward,
                    SpanKind::Forward,
                    "forward",
                    "pipeline-wait-fwd",
                    "p2p-send-fwd",
                ),
                Pass::Backward => (
                    cost.backward,
                    SpanKind::Backward,
                    "backward",
                    "pipeline-wait-bwd",
                    "p2p-send-bwd",
                ),
            };
            let mut deps = Vec::with_capacity(2);
            if let Some(t) = prev_on_device[d] {
                deps.push(t);
            }
            let gate = arrival.get(&(op.pass, op.microbatch, stage)).copied();
            deps.extend(gate);
            let label = Label {
                dev: d,
                kind,
                name,
                args: mb,
                wait: gate.map(|_| (wait_name, prev_on_device[d])),
            };
            let task = add(compute[d], dur, &deps, label);
            prev_on_device[d] = Some(task);

            // Emit the outbound transfer feeding the adjacent stage.
            let to = match op.pass {
                Pass::Forward if stage + 1 < stages => stage + 1,
                Pass::Backward if stage > 0 => stage - 1,
                _ => continue,
            };
            let send = Label {
                kind: SpanKind::Comm,
                name: send_name,
                args: SpanArgs {
                    bytes: Some(wire_per_boundary),
                    ..mb
                },
                wait: None,
                ..label
            };
            let tx = add(netport[d], boundary[stage.min(to)], &[task], send);
            arrival.insert((op.pass, op.microbatch, to), tx);
            if self.options.blocking_p2p {
                prev_on_device[d] = Some(tx);
            }
        }

        // Gradient all-reduce then optimizer step per device after its
        // flush — two tasks, so the trace (and the analyzer's attribution)
        // can tell exposed data-parallel communication from optimizer math.
        let dp_time = costs::data_parallel_all_reduce_time(&self.model, &self.cluster, pc);
        let opt_time = costs::optimizer_step_time(&self.model, &self.cluster, pc);
        for d in 0..p {
            let deps: Vec<TaskId> = prev_on_device[d].into_iter().collect();
            let step = |kind, name, args| Label {
                dev: d,
                kind,
                name,
                args,
                wait: None,
            };
            let comm = step(
                SpanKind::Comm,
                "grad-allreduce",
                SpanArgs::bytes(data_parallel_bytes_per_gpu),
            );
            let ar = add(compute[d], dp_time, &deps, comm);
            let adam = step(SpanKind::Optimizer, "adam-step", SpanArgs::NONE);
            add(compute[d], opt_time, &[ar], adam);
        }

        let result = sim
            .run()
            .map_err(|e| RunError::Schedule(format!("simulation deadlock: {e}")))?;
        let iteration_time = megatron_sim::time_to_secs(result.makespan);

        // --- Distill the report ---
        let n = self.cluster.total_gpus() as u64;
        let flops = self
            .model
            .flops_per_iteration(pc.batch, self.options.recompute);
        let tflops_per_gpu = flops / iteration_time / n as f64 / 1e12;
        let pct_of_peak = 100.0 * tflops_per_gpu * 1e12 / self.cluster.gpu.peak_matmul_flops;

        let compute_busy: f64 = compute
            .iter()
            .map(|r| megatron_sim::time_to_secs(result.resources[r.index()].busy))
            .sum::<f64>()
            / p as f64;
        let net_busy: f64 = netport
            .iter()
            .map(|r| megatron_sim::time_to_secs(result.resources[r.index()].busy))
            .sum::<f64>()
            / p as f64;

        let crossings = boundary.len() as f64; // stage boundaries
        let pipeline_total_per_replica = 2.0 * m as f64 * crossings * wire_per_boundary;
        let pipeline_p2p_bytes_per_gpu =
            pipeline_total_per_replica / (pc.pipeline * pc.tensor) as f64;

        let tensor_ar_bytes_per_gpu: f64 = stage_costs
            .iter()
            .map(|c| analysis::ring_all_reduce_bytes(c.tensor_ar_bytes as f64, pc.tensor))
            .sum::<f64>()
            / p as f64
            * m as f64;

        // Bisection accounting: total inter-node traffic (in a leaf/spine/
        // core fat tree nearly all of it transits the upper switch tiers).
        let inter_node_boundaries = (0..boundary.len())
            .filter(|&s| {
                let a = mapper.tensor_group((s % p) as u64, 0)[0];
                let b = mapper.tensor_group(((s + 1) % p) as u64, 0)[0];
                self.cluster.node_of(a) != self.cluster.node_of(b)
            })
            .count() as f64;
        let pipeline_bisection_bytes =
            pc.data as f64 * 2.0 * m as f64 * inter_node_boundaries * wire_per_boundary;
        let dp_inter_node = pc.tensor * pc.data >= self.cluster.node.gpus_per_node as u64;
        let data_parallel_bisection_bytes = if dp_inter_node {
            n as f64 * data_parallel_bytes_per_gpu
        } else {
            0.0
        };

        // Memory high-water mark from the schedule's measured stash peaks.
        let peak_chunks = replay.peak_in_flight.iter().copied().max().unwrap_or(0) as u64;
        let layers_per_chunk = self.model.num_layers / (pc.pipeline * pc.chunks);
        let per_chunk_stash = layers_per_chunk
            * if self.options.recompute {
                memory::activation_bytes_recompute(&self.model, pc.microbatch)
            } else {
                memory::activation_bytes_full(&self.model, pc.microbatch, pc.tensor)
            };
        let memory_bytes_per_gpu =
            memory::model_state_bytes_per_gpu(&self.model, pc.pipeline, pc.tensor)
                + peak_chunks * per_chunk_stash
                + memory::activation_bytes_full(&self.model, pc.microbatch, pc.tensor);

        let report = IterationReport {
            iteration_time,
            tflops_per_gpu,
            pct_of_peak,
            aggregate_pflops: flops / iteration_time / 1e15,
            sequences_per_second: pc.batch as f64 / iteration_time,
            analytical_bubble_fraction: pc.bubble_fraction(),
            measured_idle_fraction: 1.0 - compute_busy / iteration_time,
            comm: CommVolumes {
                pipeline_p2p_bytes_per_gpu,
                tensor_ar_bytes_per_gpu,
                data_parallel_bytes_per_gpu,
                pipeline_bisection_bytes,
                data_parallel_bisection_bytes,
            },
            breakdown: TimeBreakdown {
                compute: compute_busy,
                pipeline_comm: net_busy,
                data_parallel: dp_time,
                optimizer: opt_time,
            },
            memory_bytes_per_gpu,
            n_gpus: n,
        };
        Ok((report, result, labels))
    }

    /// Render the idealized (zero-communication) pipeline timeline of this
    /// run's schedule — the paper's Figures 3–4 view.
    pub fn ideal_gantt(&self, width: usize) -> Result<String, RunError> {
        self.check()?;
        let stage_costs = costs::price_stages(
            &self.model,
            &self.cluster,
            &self.parallel,
            self.options.fused,
            self.options.recompute,
        );
        // Use a middle stage's times as the homogeneous per-chunk cost.
        let mid = stage_costs.len() / 2;
        let v = self.parallel.chunks as f64;
        let sched = self.schedule()?;
        let replay = sched
            .replay(stage_costs[mid].forward * v, stage_costs[mid].backward * v)
            .map_err(|e| RunError::Schedule(e.to_string()))?;
        Ok(megatron_schedule::render_replay(
            &replay,
            self.parallel.pipeline as usize,
            width,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;

    fn small_run() -> TrainingRun {
        let model = zoo::gpt_5p9b();
        let cluster = ClusterSpec::selene(16);
        let pc = ParallelConfig::new(2, 2, 4, 1, 64);
        TrainingRun::ptdp(model, cluster, pc)
    }

    #[test]
    fn simulation_completes_and_is_sane() {
        let report = small_run().simulate().unwrap();
        assert!(report.iteration_time > 0.0);
        assert!(report.tflops_per_gpu > 20.0 && report.tflops_per_gpu < 312.0);
        assert!(report.pct_of_peak > 5.0 && report.pct_of_peak < 100.0);
        assert!(report.memory_bytes_per_gpu < 80 * (1 << 30));
    }

    #[test]
    fn tensor_all_reduce_volume_is_the_section_3_ring_volume() {
        // §3.2: four ring all-reduces of `b·s·h` per layer, each rank
        // sending `2(t−1)/t` of the buffer. Beyond the layers, only the
        // last stage's per-token loss statistics ride the tensor group.
        let mut run = small_run();
        run.options.recompute = false;
        let report = run.simulate().unwrap();
        let pc = run.parallel;
        let layers = (run.model.num_layers / pc.pipeline) as f64;
        let want = pc.microbatches() as f64
            * layers
            * analysis::tensor_parallel_bytes_per_layer(&run.model, pc.microbatch, pc.tensor);
        let got = report.comm.tensor_ar_bytes_per_gpu;
        assert!(got >= want && got < want * 1.001, "got {got} want {want}");
    }

    #[test]
    fn deterministic() {
        let a = small_run().simulate().unwrap();
        let b = small_run().simulate().unwrap();
        assert_eq!(a.iteration_time, b.iteration_time);
    }

    #[test]
    fn more_microbatches_less_idle() {
        // Larger batch → more microbatches → smaller bubble (§2.2.1).
        let mut run = small_run();
        run.parallel.batch = 32;
        let small = run.simulate().unwrap();
        run.parallel.batch = 256;
        let big = run.simulate().unwrap();
        assert!(big.measured_idle_fraction < small.measured_idle_fraction);
        assert!(big.tflops_per_gpu > small.tflops_per_gpu);
    }

    #[test]
    fn idle_fraction_at_least_analytical_bubble() {
        let report = small_run().simulate().unwrap();
        assert!(
            report.measured_idle_fraction >= report.analytical_bubble_fraction - 1e-9,
            "measured {} < analytical {}",
            report.measured_idle_fraction,
            report.analytical_bubble_fraction
        );
    }

    #[test]
    fn single_gpu_run_works() {
        let model = zoo::gpt_1b_microbench();
        let cluster = ClusterSpec::selene(8);
        let pc = ParallelConfig::new(1, 1, 8, 4, 64);
        let report = TrainingRun::ptdp(model, cluster, pc).simulate().unwrap();
        assert!(report.analytical_bubble_fraction == 0.0);
        assert!(report.comm.pipeline_p2p_bytes_per_gpu == 0.0);
    }

    #[test]
    fn interleaving_reduces_iteration_time_at_small_batch() {
        // Figure 12's left side: interleaving wins at small batch sizes.
        let model = zoo::gpt_5p9b(); // 32 layers
        let cluster = ClusterSpec::selene(32);
        let base = TrainingRun::ptdp(
            model.clone(),
            cluster.clone(),
            ParallelConfig::new(8, 2, 2, 1, 16),
        );
        let inter = TrainingRun::ptdp(
            model,
            cluster,
            ParallelConfig::new(8, 2, 2, 1, 16).with_chunks(2),
        );
        let tb = base.simulate().unwrap();
        let ti = inter.simulate().unwrap();
        assert!(
            ti.iteration_time < tb.iteration_time,
            "interleaved {} vs default {}",
            ti.iteration_time,
            tb.iteration_time
        );
    }

    #[test]
    fn chunk_mismatch_detected() {
        let mut run = small_run();
        run.options.schedule = ScheduleKind::Interleaved { chunks: 2 };
        assert!(matches!(
            run.simulate(),
            Err(RunError::ChunkMismatch { .. })
        ));
    }

    #[test]
    fn memory_enforcement() {
        let model = zoo::gpt3_175b();
        let cluster = ClusterSpec::selene(8);
        let pc = ParallelConfig::new(1, 8, 1, 1, 8);
        let run = TrainingRun::ptdp(model, cluster, pc);
        assert!(matches!(
            run.simulate(),
            Err(RunError::Config(ConfigError::OutOfMemory { .. }))
        ));
    }

    #[test]
    fn gantt_renders() {
        let g = small_run().ideal_gantt(64).unwrap();
        assert_eq!(g.lines().count(), 2);
    }

    #[test]
    fn chrome_trace_uses_the_trainers_span_names() {
        let (_, trace) = small_run().simulate_traced().unwrap();
        let v = megatron_sim::json::Json::parse(&trace).unwrap();
        let events = v.as_array().unwrap();
        let names: std::collections::HashSet<&str> =
            events.iter().map(|e| e["name"].as_str().unwrap()).collect();
        for want in [
            "forward",
            "backward",
            "p2p-send-fwd",
            "p2p-send-bwd",
            "pipeline-wait-fwd",
            "pipeline-wait-bwd",
            "grad-allreduce",
            "adam-step",
        ] {
            assert!(names.contains(want), "missing {want} in {names:?}");
        }
        // Transfers carry the keys the analyzer joins a send to its wait on.
        let send = events
            .iter()
            .find(|e| e["name"].as_str() == Some("p2p-send-fwd"))
            .unwrap();
        assert_eq!(send["cat"].as_str(), Some("comm"));
        assert!(send["args"]["bytes"].as_f64().unwrap() > 0.0);
        assert!(send["args"]["microbatch"].as_f64().is_some());
        assert_eq!(send["args"]["chunk"].as_f64(), Some(0.0));
        assert_eq!(send["args"]["iteration"].as_f64(), Some(0.0));
    }

    /// The twin of a tiny real job, as `repro analyze` builds it: one A100
    /// node of exactly p·t·d GPUs.
    fn tiny_twin(layers: u64, pc: ParallelConfig, schedule: ScheduleKind) -> TrainingRun {
        let model = GptConfig {
            name: "twin".to_string(),
            num_layers: layers,
            hidden_size: 32,
            num_heads: 4,
            seq_len: 8,
            vocab_size: 13,
        };
        let node = crate::cluster::NodeSpec {
            gpus_per_node: (pc.pipeline * pc.tensor * pc.data) as usize,
            ..crate::cluster::NodeSpec::dgx_a100()
        };
        let gpu = crate::cluster::GpuSpec::a100_80gb();
        let options = TrainingOptions {
            schedule,
            recompute: false,
            ..TrainingOptions::default()
        };
        TrainingRun::new(model, ClusterSpec::custom(gpu, node, 1), pc, options)
    }

    /// The twin's trace walks like a real one: every wait joins its send,
    /// so the critical path tiles the simulated iteration with no `other`.
    #[test]
    fn twin_critical_path_has_no_unexplained_time() {
        use megatron_telemetry::{critical_path, parse_chrome_trace, Attribution, PathCat, Window};
        let twins = [
            tiny_twin(
                2,
                ParallelConfig::new(2, 2, 2, 1, 8),
                ScheduleKind::OneFOneB,
            ),
            tiny_twin(
                4,
                ParallelConfig::new(4, 1, 2, 1, 16),
                ScheduleKind::OneFOneB,
            ),
            tiny_twin(4, ParallelConfig::new(4, 1, 2, 1, 16), ScheduleKind::GPipe),
        ];
        for (i, run) in twins.iter().enumerate() {
            let (report, trace) = run.simulate_traced().unwrap();
            let p = run.parallel.pipeline as usize;
            let dag = parse_chrome_trace(&trace, p).unwrap();
            let path = critical_path(&dag, Window::iteration(0)).unwrap();
            assert!(!path.truncated, "twin {i}");
            let ns = |s: f64| (s * 1e9).round() as u64;
            let a = Attribution::from_path(&path);
            assert_eq!(a.other_s, 0.0, "twin {i}: {a:?}");
            assert_eq!(ns(a.measured_s), ns(report.iteration_time), "twin {i}");
            if i == 0 {
                // `repro analyze`'s twin, in ns of its 980548 ns iteration.
                assert_eq!(path.length_ns(), 980_548);
                assert_eq!(path.total_ns(PathCat::Compute), 938_380);
                assert_eq!(path.total_ns(PathCat::ExposedComm), 24_065);
            }
        }
    }

    #[test]
    fn scatter_gather_helps_interleaved_large_tensor() {
        // Figure 18's mechanism: with t=8 and interleaving, SG cuts IB bytes.
        let model = zoo::gpt_162b(); // 32 layers, fits (8, 8)
        let cluster = ClusterSpec::selene(64);
        let pc = ParallelConfig::new(8, 8, 1, 1, 32).with_chunks(2);
        let mut with = TrainingRun::ptdp(model.clone(), cluster.clone(), pc);
        with.options.enforce_memory = false;
        let mut without = with.clone();
        without.options.scatter_gather = false;
        let rw = with.simulate().unwrap();
        let rwo = without.simulate().unwrap();
        assert!(
            rw.iteration_time <= rwo.iteration_time,
            "SG {} vs plain {}",
            rw.iteration_time,
            rwo.iteration_time
        );
        assert!(rw.comm.pipeline_p2p_bytes_per_gpu < rwo.comm.pipeline_p2p_bytes_per_gpu);
    }
}

//! megatron-telemetry: unified observability for the reproduction.
//!
//! Three pieces, mirroring what the paper's analysis needs (per-rank
//! timelines §2.2, comm accounting §3, achieved-TFLOPs tables §5):
//!
//! * **span recording** ([`TraceHub`] / [`RankTracer`]): lock-cheap,
//!   ring-buffered, one writer per GPU thread — the real trainer tags every
//!   forward/backward microbatch, collective (with byte volume), optimizer
//!   step, checkpoint save, and pipeline-wait bubble;
//! * **metrics** ([`MetricsRegistry`]): atomic counters / gauges /
//!   log-bucket histograms with deterministic JSON snapshots — among them
//!   each rank's minor page faults, CPU time, context switches and socket
//!   system calls per steady-state iteration ([`thread_usage`],
//!   [`process_usage`], [`rank_usage`]);
//! * **exporters** ([`chrome_trace_json`], [`TelemetrySink::metrics_jsonl`]):
//!   Chrome/Perfetto trace JSON sharing `megatron-sim`'s event format so a
//!   real run and its simulated twin open side by side, plus per-iteration
//!   JSONL metric snapshots.
//!
//! [`TelemetrySink`] bundles all three behind one `Arc` the distributed
//! runtime threads through `RunControl`.

mod attribution;
mod critical_path;
mod dag;
mod export;
mod metrics;
mod span;
mod usage;

pub use attribution::{what_if, Attribution, WhatIf};
pub use critical_path::{critical_path, CriticalPath, PathCat, PathSegment, Window};
pub use dag::{
    build_dag, dependency_closure, parse_chrome_trace, ARank, ASpan, CollInstance, Edge, EdgeKind,
    Node, Phase, TraceDag,
};
pub use export::{chrome_trace_json, merge_chrome_traces, rank_pid};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use span::{OpenSpan, RankKey, RankTrace, RankTracer, Span, SpanArgs, SpanKind, TraceHub};
pub use usage::{process_usage, rank_usage, thread_usage, RankUsage, ThreadUsage};

use megatron_collective::SocketCalls;
use megatron_sim::json::Json;
use std::sync::{Arc, Mutex};

/// Static facts the sink needs to turn raw timings into throughput metrics.
#[derive(Debug, Clone)]
pub struct SinkConfig {
    /// World size (number of rank threads).
    pub world: usize,
    /// Model FLOPs per training iteration, whole cluster (e.g. from
    /// `GptConfig::flops_per_iteration`). Zero disables the TFLOPs gauge.
    pub flops_per_iteration: f64,
}

impl Default for SinkConfig {
    fn default() -> Self {
        SinkConfig {
            world: 1,
            flops_per_iteration: 0.0,
        }
    }
}

/// Everything a run publishes: span hub + metrics registry + the JSONL
/// iteration log. One `Arc<TelemetrySink>` is shared by all rank threads,
/// the supervisor, and the exporting caller.
#[derive(Debug)]
pub struct TelemetrySink {
    /// Span collection point (per-rank tracers hang off this).
    pub hub: Arc<TraceHub>,
    /// Metrics registry.
    pub metrics: MetricsRegistry,
    cfg: SinkConfig,
    iter_lines: Mutex<Vec<String>>,
}

impl TelemetrySink {
    /// Counter name: cumulative pipeline-wait nanoseconds across ranks.
    pub const BUBBLE_NS: &'static str = "bubble_ns_total";
    /// Counter name: cumulative per-rank step nanoseconds across ranks.
    pub const STEP_NS: &'static str = "step_ns_total";
    /// Counter name prefix: minor page faults on a rank's thread over its
    /// steady-state iterations — every iteration of a launch but the first,
    /// which touches the rank's buffers for the first time. Flat rank `r`'s
    /// counter is `minor_faults.rank{r}` ([`rank_usage`] reads them back).
    pub const MINOR_FAULTS: &'static str = "minor_faults";
    /// Counter name prefix: CPU microseconds (user + kernel) of a rank's
    /// thread over the same iterations (`cpu_us.rank{r}`).
    pub const CPU_US: &'static str = "cpu_us";
    /// Counter name prefix: voluntary context switches of a rank's thread
    /// over the same iterations (`vcsw.rank{r}`).
    pub const VOLUNTARY_SWITCHES: &'static str = "vcsw";
    /// Counter name prefix: involuntary context switches of a rank's
    /// thread over the same iterations (`ivcsw.rank{r}`).
    pub const INVOLUNTARY_SWITCHES: &'static str = "ivcsw";
    /// Counter name prefix: `poll(2)` waits of a rank process's socket
    /// node over the same iterations (`socket_polls.rank{r}`; 0 on a rank
    /// thread, whose wires are mailboxes).
    pub const SOCKET_POLLS: &'static str = "socket_polls";
    /// Counter name prefix: reads of the node's connections over the same
    /// iterations (`socket_reads.rank{r}`).
    pub const SOCKET_READS: &'static str = "socket_reads";
    /// Counter name prefix: writes to the node's connections over the same
    /// iterations (`socket_writes.rank{r}`).
    pub const SOCKET_WRITES: &'static str = "socket_writes";
    /// Counter name prefix: the steady-state iterations behind
    /// [`TelemetrySink::MINOR_FAULTS`], [`TelemetrySink::CPU_US`], the
    /// switch and the socket counters (`steady_iterations.rank{r}`).
    pub const STEADY_ITERATIONS: &'static str = "steady_iterations";

    /// A fresh sink.
    pub fn new(cfg: SinkConfig) -> Arc<TelemetrySink> {
        Arc::new(TelemetrySink {
            hub: TraceHub::new(),
            metrics: MetricsRegistry::new(),
            cfg,
            iter_lines: Mutex::new(Vec::new()),
        })
    }

    /// The sink's static configuration.
    pub fn config(&self) -> &SinkConfig {
        &self.cfg
    }

    /// Cumulative pipeline-bubble fraction: bubble rank-time over total
    /// rank step time, from the counters the trainer feeds every iteration.
    pub fn bubble_fraction(&self) -> f64 {
        let step = self.metrics.counter(Self::STEP_NS).get();
        if step == 0 {
            return 0.0;
        }
        self.metrics.counter(Self::BUBBLE_NS).get() as f64 / step as f64
    }

    /// Add one steady-state iteration of flat rank `rank`, which took
    /// `used` faults, CPU time and context switches on the rank's thread
    /// and `calls` on its socket node.
    pub fn record_rank_usage(&self, rank: usize, used: ThreadUsage, calls: SocketCalls) {
        let counter = |prefix: &str| self.metrics.counter(&format!("{prefix}.rank{rank}"));
        counter(Self::MINOR_FAULTS).add(used.minor_faults);
        counter(Self::CPU_US).add(used.cpu_us);
        counter(Self::VOLUNTARY_SWITCHES).add(used.voluntary_switches);
        counter(Self::INVOLUNTARY_SWITCHES).add(used.involuntary_switches);
        counter(Self::SOCKET_POLLS).add(calls.polls);
        counter(Self::SOCKET_READS).add(calls.reads);
        counter(Self::SOCKET_WRITES).add(calls.writes);
        counter(Self::STEADY_ITERATIONS).inc();
    }

    /// Called once per iteration by the loss-owning rank: updates the
    /// iteration-time histogram, throughput/bubble gauges, and appends one
    /// JSONL metrics snapshot line.
    pub fn record_iteration(&self, epoch: usize, iteration: usize, seconds: f64) {
        self.metrics.histogram("iteration_seconds").record(seconds);
        if self.cfg.flops_per_iteration > 0.0 && seconds > 0.0 && self.cfg.world > 0 {
            let per_gpu_flops = self.cfg.flops_per_iteration / self.cfg.world as f64;
            let tflops = per_gpu_flops / seconds / 1e12;
            self.metrics.gauge("achieved_tflops_per_gpu").set(tflops);
        }
        self.metrics
            .gauge("bubble_fraction")
            .set(self.bubble_fraction());

        let mut obj = match self.metrics.snapshot() {
            Json::Obj(map) => map,
            _ => unreachable!("snapshot is always an object"),
        };
        obj.insert("epoch".to_string(), Json::Num(epoch as f64));
        obj.insert("iteration".to_string(), Json::Num(iteration as f64));
        obj.insert("seconds".to_string(), Json::Num(seconds));
        self.iter_lines
            .lock()
            .unwrap()
            .push(Json::Obj(obj).to_string());
    }

    /// The per-iteration metrics stream: one JSON object per line.
    pub fn metrics_jsonl(&self) -> String {
        self.iter_lines.lock().unwrap().join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_iteration_emits_jsonl_with_throughput() {
        let sink = TelemetrySink::new(SinkConfig {
            world: 8,
            flops_per_iteration: 8.0 * 156e12, // 156 TFLOP per GPU per iter
        });
        // Simulate the trainer's per-iteration counter feed: 8 ranks, 1 s
        // steps, 0.125 s of bubble each.
        sink.metrics
            .counter(TelemetrySink::STEP_NS)
            .add(8_000_000_000);
        sink.metrics
            .counter(TelemetrySink::BUBBLE_NS)
            .add(1_000_000_000);
        sink.record_iteration(0, 0, 1.0);
        sink.record_iteration(0, 1, 2.0);

        let jsonl = sink.metrics_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first["iteration"].as_f64(), Some(0.0));
        assert_eq!(first["epoch"].as_f64(), Some(0.0));
        assert_eq!(first["seconds"].as_f64(), Some(1.0));
        // 156e12 FLOPs in 1 s = 156 TFLOP/s.
        let tf = first["gauges"]["achieved_tflops_per_gpu"].as_f64().unwrap();
        assert!((tf - 156.0).abs() < 1e-9);
        let bub = first["gauges"]["bubble_fraction"].as_f64().unwrap();
        assert!((bub - 0.125).abs() < 1e-12);
        // Second iteration: half the throughput.
        let second = Json::parse(lines[1]).unwrap();
        let tf2 = second["gauges"]["achieved_tflops_per_gpu"]
            .as_f64()
            .unwrap();
        assert!((tf2 - 78.0).abs() < 1e-9);
        assert_eq!(
            second["histograms"]["iteration_seconds"]["count"].as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn zero_flops_config_skips_throughput_gauges() {
        let sink = TelemetrySink::new(SinkConfig::default());
        sink.record_iteration(0, 0, 0.5);
        let v = Json::parse(&sink.metrics_jsonl()).unwrap();
        assert!(v["gauges"]["achieved_tflops_per_gpu"].as_f64().is_none());
    }
}

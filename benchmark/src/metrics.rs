//! From rounds and probes to named metrics: the declared metric tables (the
//! same names, units and directions as `BENCHMARK.json`), their definitions,
//! the printed report and the result line.

use std::collections::BTreeMap;

use megatron_dist::WireKind;
use megatron_sim::json::Json;

use crate::probes;
use crate::reference::Step;
use crate::round::{self, Round};
use crate::shapes;
use crate::spans::{Reps, SpanLog};
use crate::stats::{median, pooled_rate, tail};
use crate::tracing::{TraceSummary, SHARE_NAMES};
use crate::workloads::Workload;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("tokens_per_s", "tokens/s", "higher"),
    ("iter_ms_p50", "ms", "lower"),
    ("cpu_s_per_ktok", "s/ktok", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("final_loss", "nats", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. A metric that does not
/// apply to a workload (no communication in `serial_wide`, no process
/// launch outside `proc222_uds`, a socket chunk the transport cannot carry)
/// is reported as 0.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_tn_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_nt_gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_share_est", "share", "lower"),
    ("tensor.fwd_ms", "ms", "lower"),
    ("tensor.bwd_ms", "ms", "lower"),
    ("tensor.adam_ms", "ms", "lower"),
    ("tensor.adam_ns_per_param", "ns", "lower"),
    ("tensor.flops_per_token", "count", "lower"),
    ("collective.allreduce_small_us.mailbox", "us", "lower"),
    ("collective.allreduce_small_us.uds", "us", "lower"),
    ("collective.allreduce_small_us.tcp", "us", "lower"),
    ("collective.allreduce_large_ms.mailbox", "ms", "lower"),
    ("collective.allreduce_large_ms.uds", "ms", "lower"),
    ("collective.allreduce_large_ms.tcp", "ms", "lower"),
    (
        "collective.allreduce_large_gbps.mailbox",
        "Gbit/s",
        "higher",
    ),
    ("collective.allreduce_large_gbps.uds", "Gbit/s", "higher"),
    ("comm.tp_bytes_per_iter", "count", "lower"),
    ("comm.dp_bytes_per_iter", "count", "lower"),
    ("comm.p2p_bytes_per_iter", "count", "lower"),
    ("comm.collectives_per_iter", "count", "lower"),
    ("comm.bytes_per_token", "count", "lower"),
    ("block.fwd_ms.t1", "ms", "lower"),
    ("block.bwd_ms.t1", "ms", "lower"),
    ("block.fwd_ms.t2", "ms", "lower"),
    ("block.bwd_ms.t2", "ms", "lower"),
    ("trainer.compute_share", "share", "higher"),
    ("trainer.exposed_comm_share", "share", "lower"),
    ("trainer.bubble_share", "share", "lower"),
    ("trainer.straggler_wait_share", "share", "lower"),
    ("trainer.optimizer_share", "share", "lower"),
    ("trainer.other_share", "share", "lower"),
    ("trainer.iter_ms_tail", "ms", "lower"),
    ("trainer.rank_step_skew", "share", "lower"),
    ("trainer.peak_stash_mb", "MiB", "lower"),
    ("schedule.bubble_fraction", "share", "lower"),
    ("proc.launch_s", "s", "lower"),
    ("proc.first_iter_ms", "ms", "lower"),
    ("proc.teardown_s", "s", "lower"),
    ("proc.socket_bytes_per_iter", "count", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.restore_ms", "ms", "lower"),
    ("checkpoint.mb", "MiB", "lower"),
    ("data.batch_us", "us", "lower"),
    ("data.setup_share", "share", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans_per_iter", "count", "lower"),
    ("trace.spans_dropped", "count", "lower"),
];

const MIB: f64 = 1024.0 * 1024.0;

/// Everything one run learned about one workload.
pub struct Report {
    pub workload: &'static str,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Iterations run (warm-up included) over all rounds.
    pub attempted: usize,
    /// Failed operations and failed correctness checks.
    pub failures: Vec<String>,
    /// Lines for the human-readable report that are not metrics.
    notes: Vec<String>,
    untraced: Vec<Round>,
    traced: Vec<Round>,
}

impl Report {
    /// Pool the rounds of one workload. Traced rounds never feed an
    /// end-to-end metric.
    pub fn from_rounds(w: &Workload, rounds: Vec<(bool, Result<Round, String>)>) -> Report {
        let mut report = Report {
            workload: w.name,
            end_to_end: Values::new(),
            per_layer: Values::new(),
            attempted: 0,
            failures: Vec::new(),
            notes: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
        };
        for (traced, round) in rounds {
            match round {
                Ok(round) => {
                    report.attempted += round.losses.len().max(round.iter_s.len() + 1);
                    report.failures.extend(round.failures.iter().cloned());
                    if traced {
                        report.traced.push(round);
                    } else {
                        report.untraced.push(round);
                    }
                }
                Err(e) => report.failures.push(e),
            }
        }
        report.check_rounds_agree();

        let pooled = pooled_iters(&report.untraced);
        let tokens = w.tokens_per_iter() as f64;
        let cpu_s: f64 = report.untraced.iter().map(|r| r.cpu_s).sum();
        let e = &mut report.end_to_end;
        e.insert("tokens_per_s".into(), pooled_rate(tokens, &pooled));
        e.insert("iter_ms_p50".into(), 1e3 * median(&pooled));
        e.insert(
            "cpu_s_per_ktok".into(),
            cpu_s / (tokens * pooled.len().max(1) as f64 / 1e3),
        );
        let peaks: Vec<f64> = report.untraced.iter().map(|r| r.peak_rss_mib).collect();
        e.insert("peak_rss_mb".into(), median(&peaks));
        let setups: Vec<f64> = report.untraced.iter().map(|r| r.setup_s).collect();
        e.insert("setup_s".into(), median(&setups));
        // The last iteration alone is one small batch; the last half of a
        // round is the same training state seen through enough tokens to
        // compare seeds.
        let final_loss = report.untraced.first().map_or(0.0, |r| {
            let tail = &r.losses[r.losses.len() / 2..];
            tail.iter().map(|l| f64::from(*l)).sum::<f64>() / tail.len().max(1) as f64
        });
        e.insert("final_loss".into(), final_loss);
        let ran_s: f64 = report.untraced.iter().map(|r| r.ran_s).sum();
        report.notes.push(format!(
            "{} timed iterations pooled over {} rounds; they ran {:.3} s, {:.3} times their reference seconds",
            pooled.len(),
            report.untraced.len(),
            ran_s,
            ran_s / pooled.iter().sum::<f64>().max(1e-9)
        ));
        let steps = |clock: fn(&Step) -> f64| -> Vec<f64> {
            let all = report.untraced.iter().flat_map(|r| &r.ref_steps);
            all.map(clock).collect()
        };
        report.notes.push(format!(
            "{} reference steps, median {:.1} ms and {:.1} ms of CPU (nominal {:.1} ms and {:.1} ms)",
            steps(|s| s.wall_s).len(),
            1e3 * median(&steps(|s| s.wall_s)),
            1e3 * median(&steps(|s| s.cpu_s)),
            1e3 * w.reference.nominal_s,
            1e3 * w.reference.nominal_cpu_s
        ));
        report
    }

    /// Whether any untraced round fed the end-to-end metrics.
    pub fn has_result(&self) -> bool {
        !self.untraced.is_empty()
    }

    /// The bit-identity contract, as far as one run can see it: every
    /// round of a seed computes the same losses and moves the same bytes.
    fn check_rounds_agree(&mut self) {
        let mut all = self.untraced.iter().chain(&self.traced);
        let Some(first) = all.next() else {
            self.failures.push("no round produced a result".into());
            return;
        };
        let bits = |r: &Round| r.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        for other in all {
            if bits(other) != bits(first) {
                self.failures
                    .push("losses differ between rounds of one seed".into());
            }
            if other.counts != first.counts {
                self.failures.push(format!(
                    "counts differ between rounds: {:?} vs {:?}",
                    other.counts, first.counts
                ));
            }
        }
    }

    /// The result object of the benchmark contract: the per-layer metrics
    /// of a traced run, the end-to-end metrics otherwise.
    pub fn result_json(&self, per_layer: bool) -> Json {
        let (table, values): (&[_], _) = if per_layer {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics = table
            .iter()
            .filter_map(|(name, unit, _)| {
                let value = *values.get(*name)?;
                Some((
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                ))
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            (
                "failed",
                Json::Num(self.failures.len().min(self.attempted.max(1)) as f64),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Human-readable report: end-to-end table, then per-layer numbers.
    pub fn print(&self, with_layers: bool) {
        let why = Workload::by_name(self.workload).map_or("", |w| w.why);
        println!("== {} == {why}", self.workload);
        for note in &self.notes {
            println!("  {note}");
        }
        let show = |table: &[(&str, &str, &str)], values: &Values| {
            for (name, unit, better) in table {
                if let Some(v) = values.get(*name) {
                    println!("  {name:<42} {v:>16.6} {unit:<8} ({better} is better)");
                }
            }
        };
        show(&END_TO_END, &self.end_to_end);
        if with_layers {
            show(&PER_LAYER, &self.per_layer);
        }
        println!(
            "  iterations attempted {}, failed {}",
            self.attempted,
            self.failures.len()
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

/// Timed iterations of several rounds, pooled.
fn pooled_iters(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| r.iter_s.iter().copied())
        .collect()
}

fn mean_summary(rounds: &[Round]) -> Option<TraceSummary> {
    let all: Vec<&TraceSummary> = rounds.iter().filter_map(|r| r.trace.as_ref()).collect();
    let n = all.len() as f64;
    let mean = |f: fn(&TraceSummary) -> f64| all.iter().map(|s| f(s)).sum::<f64>() / n;
    let mut shares = [0.0; 6];
    for s in &all {
        for (acc, x) in shares.iter_mut().zip(s.shares) {
            *acc += x / n;
        }
    }
    (!all.is_empty()).then(|| TraceSummary {
        shares,
        fwd_s: mean(|s| s.fwd_s),
        bwd_s: mean(|s| s.bwd_s),
        adam_s: mean(|s| s.adam_s),
        spans: all.iter().map(|s| s.spans).sum(),
        dropped: all.iter().map(|s| s.dropped).sum(),
    })
}

/// Run the layer probes and fill in every per-layer metric of `w`, then
/// write the workload's trace (trainer spans of the last traced round plus
/// the benchmark's own spans) to `benchmark/out/trace_<workload>.json`.
pub fn add_layer_metrics(report: &mut Report, w: &Workload, seed: u64, reps: Reps) {
    let mut log = SpanLog::new(w.name);
    let mut v = Values::new();
    let mut put = |name: &str, x: f64| {
        v.insert(name.to_string(), if x.is_finite() { x } else { 0.0 });
    };
    let tokens = w.tokens_per_iter() as f64;
    let pooled = pooled_iters(&report.untraced);
    // The probes below run in the driver, on the wall clock; what they are
    // compared with is the iteration on the wall clock too.
    let ran_s: f64 = report.untraced.iter().map(|r| r.ran_s).sum();
    let iter_wall_s = ran_s / pooled.len().max(1) as f64;

    // trainer.*, tensor.{fwd,bwd,adam}_ms, trace.*: from the traced rounds.
    let summary = mean_summary(&report.traced).unwrap_or_else(|| {
        report
            .failures
            .push("no traced round produced a trace".into());
        TraceSummary::default()
    });
    for (name, share) in SHARE_NAMES.iter().zip(summary.shares) {
        put(&format!("trainer.{name}_share"), share);
    }
    put("tensor.fwd_ms", 1e3 * summary.fwd_s);
    put("tensor.bwd_ms", 1e3 * summary.bwd_s);
    put("tensor.adam_ms", 1e3 * summary.adam_s);
    let traced_iters: usize = report.traced.iter().map(|r| r.iter_s.len() + 1).sum();
    let traced_pooled = pooled_iters(&report.traced);
    let (plain, traced) = (
        pooled_rate(tokens, &pooled),
        pooled_rate(tokens, &traced_pooled),
    );
    put("trace.overhead_pct", 100.0 * (plain - traced) / plain);
    put(
        "trace.spans_per_iter",
        summary.spans as f64 / traced_iters.max(1) as f64,
    );
    put("trace.spans_dropped", summary.dropped as f64);

    // trainer.* and comm.*, proc.*, data.setup_share: from the rounds.
    let t = tail(&pooled.iter().map(|s| 1e3 * s).collect::<Vec<_>>());
    put("trainer.iter_ms_tail", t.value);
    report.notes.push(format!(
        "trainer.iter_ms_tail is p{:.1} of {} samples",
        t.percentile, t.n
    ));
    let skew: Vec<f64> = report
        .untraced
        .iter()
        .flat_map(|r| r.skew.clone())
        .collect();
    put("trainer.rank_step_skew", median(&skew));
    if let Some(r) = report.untraced.first() {
        let iters = (r.iter_s.len() + 1) as f64;
        let c = r.counts;
        put("trainer.peak_stash_mb", c.peak_stash_floats * 4.0 / MIB);
        put("comm.tp_bytes_per_iter", c.tp_bytes / iters);
        put("comm.dp_bytes_per_iter", c.dp_bytes / iters);
        put("comm.p2p_bytes_per_iter", c.p2p_bytes / iters);
        put("comm.collectives_per_iter", c.collectives / iters);
        let bytes = c.tp_bytes + c.dp_bytes + c.p2p_bytes;
        put("comm.bytes_per_token", bytes / iters / tokens);
        let on_sockets = if w.mode == crate::workloads::Mode::Proc {
            bytes / iters
        } else {
            0.0
        };
        put("proc.socket_bytes_per_iter", on_sockets);
    }
    let med = |f: fn(&Round) -> f64| median(&report.untraced.iter().map(f).collect::<Vec<_>>());
    put("proc.launch_s", med(|r| r.proc.launch_s));
    put("proc.first_iter_ms", 1e3 * med(|r| r.proc.first_iter_s));
    put("proc.teardown_s", med(|r| r.proc.teardown_s));
    put("data.setup_share", med(|r| r.data_s / r.setup_s.max(1e-9)));

    // tensor.*: the workload's own GEMM shapes.
    let gemm_shapes = shapes::enumerate(w.model, w.cut());
    let rates = probes::gemm_rates(&mut log, &gemm_shapes, reps, seed);
    put("tensor.matmul_gflops", rates.gflops[0]);
    put("tensor.matmul_tn_gflops", rates.gflops[1]);
    put("tensor.matmul_nt_gflops", rates.gflops[2]);
    put(
        "tensor.gemm_share_est",
        rates.seconds_per_iter / iter_wall_s.max(1e-9),
    );
    put(
        "tensor.flops_per_token",
        shapes::total_flops(&gemm_shapes) / tokens,
    );

    // A one-iteration reference run: comm tape, parameter counts, snapshot.
    let reference = probes::reference_run(w, seed);
    if let Some(e) = &reference.error {
        report.failures.push(format!("reference run failed: {e}"));
    }
    let params = reference
        .log
        .final_params
        .values()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    put(
        "tensor.adam_ns_per_param",
        1e9 * summary.adam_s / params.max(1) as f64,
    );

    // collective.*: the tape's all-reduce sizes on every wire.
    let sizes = probes::all_reduce_sizes(w, &reference);
    for (wire, label) in [
        (WireKind::Mailbox, "mailbox"),
        (WireKind::Uds, "uds"),
        (WireKind::Tcp, "tcp"),
    ] {
        let (small_s, large_s, large_bits) = match sizes {
            Some(s) => (
                probes::all_reduce_s(&mut log, "small", reps, wire, s.group, s.small),
                probes::all_reduce_s(&mut log, "large", reps, wire, s.group, s.large),
                32.0 * s.large as f64,
            ),
            None => (0.0, 0.0, 0.0),
        };
        put(
            &format!("collective.allreduce_small_us.{label}"),
            1e6 * small_s,
        );
        put(
            &format!("collective.allreduce_large_ms.{label}"),
            1e3 * large_s,
        );
        if wire != WireKind::Tcp {
            let gbps = if large_s > 0.0 {
                large_bits / large_s / 1e9
            } else {
                0.0
            };
            put(&format!("collective.allreduce_large_gbps.{label}"), gbps);
        }
    }
    if let Some(s) = sizes {
        report.notes.push(format!(
            "collective probes: group of {}, small = {} floats, large = {} floats",
            s.group, s.small, s.large
        ));
    }

    // block.*, checkpoint.*, data.*, schedule.*
    for t in [1, 2] {
        let (fwd, bwd) = probes::block_s(&mut log, w, t, reps, seed);
        put(&format!("block.fwd_ms.t{t}"), 1e3 * fwd);
        put(&format!("block.bwd_ms.t{t}"), 1e3 * bwd);
    }
    match probes::checkpoint_cost(&mut log, w, &reference, reps) {
        Some(c) => {
            put("checkpoint.save_ms", 1e3 * c.save_s);
            put("checkpoint.restore_ms", 1e3 * c.restore_s);
            put("checkpoint.mb", c.mib);
        }
        None => report
            .failures
            .push("checkpoint probe could not run".into()),
    }
    put(
        "data.batch_us",
        1e6 * probes::data_batch_s(&mut log, w, reps, seed),
    );
    put(
        "schedule.bubble_fraction",
        probes::schedule_bubble_fraction(w),
    );

    report.per_layer = v;
    if let Err(e) = write_trace(w, &log) {
        report
            .failures
            .push(format!("writing the trace failed: {e}"));
    }
}

/// Merge the last traced round's events with the benchmark's own spans.
fn write_trace(w: &Workload, log: &SpanLog) -> Result<(), String> {
    let round_path = round::round_trace_path(w);
    let round_events = std::fs::read_to_string(&round_path).map_err(|e| e.to_string())?;
    let merged = megatron_telemetry::merge_chrome_traces([
        round_events.as_str(),
        log.chrome_events().to_string().as_str(),
    ])?;
    let path = std::path::Path::new(round::OUT_DIR).join(format!("trace_{}.json", w.name));
    std::fs::write(path, merged).map_err(|e| e.to_string())?;
    std::fs::remove_file(round_path).map_err(|e| e.to_string())
}

/// `--smoke`: the report carries exactly the metrics `BENCHMARK.json`
/// declares, with its units, well-formed names, and shares that sum to 1.
pub fn check_schema(report: &Report) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let decl = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    for (key, table, values) in [
        ("end_to_end", &END_TO_END[..], &report.end_to_end),
        ("per_layer", &PER_LAYER[..], &report.per_layer),
    ] {
        let declared: Vec<(String, String, String)> = decl
            .get(key)
            .as_array()
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).as_str().unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        if declared != ours {
            return Err(format!(
                "{key} of BENCHMARK.json differs from the benchmark's own table"
            ));
        }
        for (name, _, _) in table {
            if !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            {
                return Err(format!(
                    "metric name '{name}' has a character outside [A-Za-z0-9_.-]"
                ));
            }
            match values.get(*name) {
                Some(v) if v.is_finite() => {}
                other => return Err(format!("metric {name} is {other:?}")),
            }
        }
        if values.len() != table.len() {
            return Err(format!(
                "{key}: {} values for {} declared metrics",
                values.len(),
                table.len()
            ));
        }
    }
    let declared_why = decl
        .get("workloads")
        .as_array()
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").as_str() == Some(report.workload))
        })
        .and_then(|w| w.get("why").as_str());
    if declared_why != Workload::by_name(report.workload).map(|w| w.why) {
        return Err(
            "the workload's `why` in BENCHMARK.json differs from the benchmark's own".into(),
        );
    }
    if decl.get("run_seconds").as_f64() != Some(crate::DEFAULT_SECONDS) {
        return Err("run_seconds of BENCHMARK.json differs from the benchmark's default".into());
    }
    let shares: f64 = SHARE_NAMES
        .iter()
        .map(|n| report.per_layer[&format!("trainer.{n}_share")])
        .sum();
    if (shares - 1.0).abs() > 0.01 {
        return Err(format!("trainer.*_share sum to {shares}, not 1"));
    }
    for (name, _, _) in END_TO_END {
        if report.end_to_end[name] <= 0.0 {
            return Err(format!("end-to-end metric {name} is not positive"));
        }
    }
    Ok(())
}

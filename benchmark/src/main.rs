//! The repo's benchmark: four training workloads measured end to end, layer
//! probes and a traced run. See `benchmark/README.md` for what each number
//! means and why the protocol looks the way it does.
//!
//! One invocation is a *driver* that spawns rounds and keeps the reference
//! clock (`reference.rs`) while they run. Each round is this binary
//! re-executed with `--round`, and in process mode each rank is this binary
//! re-executed by `dist::proc::launch`.

mod compare;
mod metrics;
mod probes;
mod procfs;
mod reference;
mod round;
mod shapes;
mod spans;
mod stats;
mod sys;
mod tracing;
mod workloads;

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

use megatron_sim::json::Json;

use crate::metrics::Report;
use crate::reference::{Pause, Reference, Step, Timeline, SLICE_S};
use crate::round::Round;
use crate::spans::Reps;
use crate::workloads::{Workload, ROUNDS, WORKLOADS};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20210;
/// `run_seconds` of `BENCHMARK.json`, used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Iterations per round under `--smoke` (one of them warm-up).
const SMOKE_ITERS: usize = 3;

const USAGE: &str = "usage (from the repository root):
  benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
      run one workload (all four, round-robin, when --workload is absent);
      the last line of output is the result as one JSON object
  benchmark --smoke
      1 untraced + 1 traced round of 3 iterations per workload, one call
      per probe; checks the output against BENCHMARK.json
  benchmark --compare A.jsonl B.jsonl
      compare two sets of saved runs (see repeat.sh)";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

enum Mode {
    Run(Options),
    Round {
        workload: Workload,
        seed: u64,
        iters: usize,
        traced: bool,
        check: bool,
    },
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut opts = Options {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let (mut round, mut iters, mut traced, mut check) = (None, 0usize, false, false);
    let mut it = args.iter();
    let flag01 = |v: &str| match v {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("expected 0 or 1, got '{other}'")),
    };
    let workload =
        |name: &str| Workload::by_name(name).ok_or_else(|| format!("unknown workload '{name}'"));
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workloads = vec![workload(value()?)?],
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => opts.trace = flag01(value()?)?,
            "--compare" => return Ok(Mode::Compare(value()?.clone(), value()?.clone())),
            "--round" => round = Some(workload(value()?)?),
            "--iters" => iters = value()?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--traced" => traced = flag01(value()?)?,
            "--check" => check = flag01(value()?)?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(match round {
        Some(workload) if iters >= 2 => Mode::Round {
            workload,
            seed: opts.seed,
            iters,
            traced,
            check,
        },
        Some(_) => return Err("--round needs --iters of at least 2".into()),
        None => Mode::Run(opts),
    })
}

fn main() -> ExitCode {
    let start = sys::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Rounds and ranks, which the driver stops and resumes, must not outlive
    // it. Not the driver itself: who started it may have done so from a
    // thread that ends before the run does.
    if args.iter().any(|a| a == "--round" || a == "--proc-worker") {
        sys::die_with_parent();
    }
    megatron_dist::proc::maybe_worker();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new("benchmark/Cargo.toml").is_file() {
        eprintln!("run the benchmark from the repository root\n{USAGE}");
        return ExitCode::from(2);
    }
    match mode {
        Mode::Round {
            workload,
            seed,
            iters,
            traced,
            check,
        } => {
            let round = round::run(workload, seed, iters, traced, check, start);
            println!("{}", round.to_json());
            ExitCode::SUCCESS
        }
        Mode::Compare(a, b) => match compare::run(&a, &b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run(opts) => drive(&opts),
    }
}

/// A round in flight. However the driver leaves `spawn_round`, the round's
/// whole process group (the rank processes too) is gone and reaped.
struct RoundProcess(Child);

impl Drop for RoundProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            sys::signal_group(self.0.id(), sys::SIGKILL);
            let _ = self.0.wait();
        }
    }
}

/// Spawn one round and keep its reference clock until it exits: every
/// `SLICE_S` stop the round's process group, time the reference step, let
/// the group continue. One more step before the round starts and one after
/// it ends, so that every slice has a step on either side.
fn spawn_round(
    w: &Workload,
    reference: &mut Reference,
    seed: u64,
    iters: usize,
    traced: bool,
    check: bool,
) -> Result<Round, String> {
    let mut timeline = Timeline::new(Step {
        wall_s: w.reference.nominal_s,
        cpu_s: w.reference.nominal_cpu_s,
    });
    let mut step = |stop: f64| {
        let step = reference.step();
        timeline.push(Pause {
            stop,
            cont: sys::now(),
            step,
        });
    };
    step(sys::now());

    let flag = |b: bool| if b { "1" } else { "0" };
    let mut round = RoundProcess(
        Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args(["--round", w.name, "--seed", &seed.to_string()])
            .args(["--iters", &iters.to_string()])
            .args(["--traced", flag(traced), "--check", flag(check)])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn round: {e}"))?,
    );
    let group = round.0.id();
    let mut stdout = round.0.stdout.take().expect("stdout was piped");
    // Read while the round runs: its result may be larger than a pipe holds.
    let printed = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });

    let status = loop {
        let due = sys::now() + SLICE_S;
        let exited = loop {
            match round
                .0
                .try_wait()
                .map_err(|e| format!("wait for round: {e}"))?
            {
                Some(status) => break Some(status),
                None if sys::now() >= due => break None,
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        if let Some(status) = exited {
            break status;
        }
        let stop = sys::now();
        sys::signal_group(group, sys::SIGSTOP);
        // A stop signal reaches a thread running on another core within
        // microseconds; leave it a millisecond.
        std::thread::sleep(Duration::from_millis(1));
        step(stop);
        sys::signal_group(group, sys::SIGCONT);
    };
    step(sys::now());

    let text = printed
        .join()
        .expect("the reader thread does not panic")
        .map_err(|e| format!("read round output: {e}"))?;
    let line = text.lines().rev().find(|l| l.starts_with('{'));
    match line
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| Round::from_json(&j, &timeline))
    {
        Some(round) if status.success() => Ok(round),
        _ => Err(format!("round exited with {status} and no result")),
    }
}

fn drive(opts: &Options) -> ExitCode {
    // Which rounds are traced: traced rounds never feed an end-to-end
    // metric, they alternate with untraced ones so both see the same box.
    let plan: Vec<bool> = match (opts.smoke, opts.trace) {
        (true, _) => vec![false, true],
        (false, false) => vec![false; ROUNDS],
        (false, true) => (0..ROUNDS).map(|r| r % 2 == 1).collect(),
    };
    let with_layers = opts.smoke || opts.trace;

    // Round-robin over the workloads, so that each one's rounds are spread
    // over the whole run instead of one contiguous window.
    let mut rounds: Vec<Vec<(bool, Result<Round, String>)>> =
        vec![Vec::new(); opts.workloads.len()];
    let mut references: Vec<Reference> = opts.workloads.iter().map(Reference::new).collect();
    for (r, &traced) in plan.iter().enumerate() {
        for (wi, w) in opts.workloads.iter().enumerate() {
            let iters = if opts.smoke {
                SMOKE_ITERS
            } else {
                1 + w.timed_iters(opts.seconds)
            };
            let round = spawn_round(w, &mut references[wi], opts.seed, iters, traced, r == 0);
            rounds[wi].push((traced, round));
        }
    }

    let reps = if opts.smoke { Reps::SMOKE } else { Reps::FULL };
    let mut reports = Vec::new();
    for (w, rounds) in opts.workloads.iter().zip(rounds) {
        let mut report = Report::from_rounds(w, rounds);
        if with_layers {
            metrics::add_layer_metrics(&mut report, w, opts.seed, reps);
        }
        report.print(with_layers);
        reports.push(report);
    }

    // Without a single untraced round there is nothing to report.
    if let Some(r) = reports.iter().find(|r| !r.has_result()) {
        eprintln!(
            "{}: no round produced a result: {:?}",
            r.workload, r.failures
        );
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    if opts.smoke {
        for r in &reports {
            if let Err(e) = metrics::check_schema(r) {
                eprintln!("smoke: {}: {e}", r.workload);
                ok = false;
            }
            ok &= r.failures.is_empty();
        }
        println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    }
    let result = |r: &Report| r.result_json(opts.trace);
    match reports.as_slice() {
        [one] => println!("{}", result(one)),
        many => println!(
            "{}",
            Json::Obj(
                many.iter()
                    .map(|r| (r.workload.to_string(), result(r)))
                    .collect()
            )
        ),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

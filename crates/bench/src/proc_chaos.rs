//! E38: `repro chaos --process` — real-kill chaos through a supervised
//! 8-process (2,2,2) UDS job.
//!
//! Where E33 injects faults into threads sharing one address space, this
//! experiment pulls real power cords: seeded **SIGKILLs** delivered to
//! worker OS processes mid-iteration (triggered by their own progress
//! heartbeats), plus a seeded socket fault plan (mid-frame severs,
//! connection refusals, per-link slowdowns) armed inside the workers.
//! The [`Supervisor`] over a [`ProcBackend`] must notice each death, commit
//! whatever durable shard generations the dead world left behind,
//! restore the newest, and respawn — and the healed run's **final
//! parameters must be bit-identical** to a fault-free process run of the
//! same job.
//!
//! The run is then priced: its measured goodput ledger (useful work,
//! saves, lost work, detection, restore, backoff and what none of them
//! explains) is printed term by term beside the finite-run [`Ledger`] its
//! own measured costs predict. The E35 scenario on the same backend — a
//! real SIGKILL, the twin's cheapest degraded layout, the rank returned, a
//! grow at the next checkpoint boundary — is priced the same way, its
//! degraded segment and reconfiguration as two more terms. Both land in
//! `BENCH_proc_chaos.json` for the perf-regression sentry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use megatron_core::elastic::rank_layouts;
use megatron_core::goodput::{Ledger, SteadyState};
use megatron_dist::proc::{launch_configured, JobSpec, ProcBackend, SocketFaultPlan};
use megatron_dist::{
    CapacityEvent, CheckpointStore, KillSwitch, PtdpSpec, ReconfigureDirection, Supervisor,
    SupervisorConfig, SupervisorReport, ThreadKey,
};
use megatron_sim::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ledger;

/// `repro chaos --process` usage string.
pub const USAGE: &str = "repro chaos --process [--seed N] [--iters N] [--ckpt-every N] [--kills N]
            [--ptd P,T,D] [--out PATH]
  E38: seeded SIGKILL + socket-fault chaos through a supervised process-mode
  job; gates on final params bit-identical to the fault-free process run and
  writes measured-vs-predicted goodput to BENCH_proc_chaos.json";

/// CLI-tunable knobs for the process-mode chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcChaosKnobs {
    /// Seed for the kill schedule and the socket fault plan.
    pub seed: u64,
    /// Total training iterations.
    pub iters: usize,
    /// Durable checkpoint interval in iterations.
    pub ckpt_every: usize,
    /// Scheduled SIGKILLs (each on a seeded victim at a seeded trigger).
    pub kills: usize,
    /// Parallelization `(p, t, d)`.
    pub ptd: (usize, usize, usize),
}

impl Default for ProcChaosKnobs {
    fn default() -> Self {
        ProcChaosKnobs {
            seed: 0xe38,
            iters: 12,
            ckpt_every: 2,
            kills: 2,
            ptd: (2, 2, 2),
        }
    }
}

/// CLI entry: parse flags (ignoring the dispatching `--process`), run.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut knobs = ProcChaosKnobs::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--process" => {}
            "--seed" => knobs.seed = parse(val()?)?,
            "--iters" => knobs.iters = parse(val()?)?,
            "--ckpt-every" => knobs.ckpt_every = parse(val()?)?,
            "--kills" => knobs.kills = parse(val()?)?,
            "--ptd" => {
                let parts: Vec<usize> = val()?
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--ptd: {e}\n{USAGE}"))?;
                if parts.len() != 3 || parts.contains(&0) {
                    return Err(format!("--ptd needs three nonzero values\n{USAGE}"));
                }
                knobs.ptd = (parts[0], parts[1], parts[2]);
            }
            "--out" => out = Some(val()?.clone()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    // Two checkpoint generations, and room for the kill schedule (triggers
    // drawn from 1..iters-1) and the elastic leg's kill at iters/3 >= 1.
    if knobs.ckpt_every == 0 || knobs.iters < (2 * knobs.ckpt_every).max(3) {
        return Err("need --ckpt-every >= 1 and --iters >= max(3, 2*ckpt-every)".into());
    }
    report(&knobs, out.as_deref().unwrap_or("BENCH_proc_chaos.json"))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse '{s}'\n{USAGE}"))
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

/// `text` with every line indented under the report's two-space margin.
fn indented(text: &str) -> String {
    text.lines().map(|l| format!("    {l}\n")).collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megatron-e38-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeded kill schedule: `n` victims at iterations spread through the
/// run, sorted so earlier kills fire first. Each is a real SIGKILL once
/// the victim's progress beats report `iteration` completed.
fn kill_schedule(seed: u64, spec: &PtdpSpec, iters: usize, n: usize) -> Vec<KillSwitch> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b11_5eed);
    let mut kills: Vec<KillSwitch> = (0..n)
        .map(|_| KillSwitch {
            thread: spec.thread_key(rng.gen_range(0..spec.world())),
            iteration: rng.gen_range(1..iters - 1),
        })
        .collect();
    kills.sort_by_key(|k| (k.iteration, spec.flat_rank(k.thread)));
    kills
}

/// Supervise `job` as rank processes under `root`, durable store at
/// `root/ckpt` — elastic over the layouts its simulator twin ranks when a
/// capacity schedule is given.
fn supervised(
    job: &JobSpec,
    root: &Path,
    ckpt_every: usize,
    faults: Option<SocketFaultPlan>,
    kills: &[KillSwitch],
    capacity: Option<&[CapacityEvent]>,
) -> Result<SupervisorReport, String> {
    let store = CheckpointStore::open(root.join("ckpt")).map_err(|e| e.to_string())?;
    let sup = Supervisor::new(
        ProcBackend::new(job, root, faults),
        store,
        SupervisorConfig {
            checkpoint_every: ckpt_every,
            // A freshly spawned world on a loaded host must not trip a
            // halved collective timeout while it restores.
            min_comm_timeout: Duration::from_secs(5),
            ..SupervisorConfig::default()
        },
    );
    let twin_run = crate::timeline::twin(job.model, &job.spec(), job.batch);
    let rank = |capacity| rank_layouts(&twin_run, capacity);
    let report = match capacity {
        Some(events) => sup.run_elastic(kills, events, &rank),
        None => sup.run(kills),
    };
    match &report.gave_up {
        Some(cause) => Err(format!(
            "supervisor gave up after {} incidents: {cause}",
            report.incidents.len()
        )),
        None => Ok(report),
    }
}

/// Launch `job` unsupervised (pinned at `job.resume_from`, durable store
/// at `ckpt` when it checkpoints), wait for it, and time it: final
/// parameters per rank and wall seconds.
fn plain_run(
    job: &JobSpec,
    tag: &str,
    ckpt: Option<&Path>,
) -> Result<(HashMap<ThreadKey, Vec<f32>>, f64), String> {
    let dir = scratch(tag);
    let t0 = Instant::now();
    let handle = launch_configured(job, &dir, ckpt, None).map_err(|e| e.to_string())?;
    let out = handle.wait();
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    if !out.ok() {
        return Err(format!(
            "{tag} run failed: missing {:?}, exits {:?}",
            out.missing, out.exits
        ));
    }
    Ok((out.into_params(), wall))
}

fn report(knobs: &ProcChaosKnobs, out_path: &str) -> Result<String, String> {
    let (p, t, d) = knobs.ptd;
    let mut job = JobSpec::canonical(p, t, d);
    job.retry = true; // arms ReliableTransport + the socket replay log
    job.iters = knobs.iters;
    // Heavier than the canonical toy so per-iteration compute dominates
    // process spawn/rendezvous — otherwise the goodput comparison only
    // measures launcher overhead.
    job.batch = 32;
    job.model.seq = 8;
    job.model.hidden = 16;
    let world = job.world();
    let spec = job.spec();

    // --- Fault-free reference run (no checkpointing): params + clean rate.
    let (clean, clean_wall) = plain_run(&job, "fault-free", None)?;
    let clean_iter_s = clean_wall / knobs.iters as f64;

    // --- Fault-free run *with* checkpointing: save cost, and proof that
    // durable shard writes don't perturb the numerics.
    let mut job_ck = job;
    job_ck.checkpoint_every = knobs.ckpt_every;
    let store_ck = scratch("fault-free-store");
    let (clean_ck, ckpt_wall) = plain_run(&job_ck, "checkpointed fault-free", Some(&store_ck))?;
    let _ = std::fs::remove_dir_all(&store_ck);
    let ckpt_params_ok = clean_ck == clean;
    let n_gens = knobs.iters / knobs.ckpt_every;
    let save_s_total = (ckpt_wall - clean_wall).max(0.0);

    // --- The chaos run: seeded SIGKILLs + socket faults, supervised.
    let kills = kill_schedule(knobs.seed, &spec, knobs.iters, knobs.kills);
    let faults = SocketFaultPlan::seeded(knobs.seed, world);
    let root = scratch("chaos");
    let report = supervised(
        &job,
        &root,
        knobs.ckpt_every,
        Some(faults.clone()),
        &kills,
        None,
    )?;
    let _ = std::fs::remove_dir_all(&root);
    let chaos_params_ok = report.final_params.as_ref() == Some(&clean);

    let measured = ledger::measured(
        &report,
        clean_iter_s,
        save_s_total,
        n_gens,
        knobs.ckpt_every,
    );
    let failures = report.incidents.len();
    let tau = knobs.ckpt_every as f64 * clean_iter_s;
    let mean_save = save_s_total / n_gens as f64;
    let predicted = ledger::predicted(&measured, failures, tau, mean_save);
    let model_error = (measured.goodput() - predicted.goodput()).abs() / measured.goodput();
    let young_daly_s = SteadyState {
        mtbf_s: measured.useful / failures.max(1) as f64,
        save_s: mean_save,
        restart_s: 0.0,
    }
    .young_daly_interval();

    // --- The elastic cycle (E35's scenario, real processes): SIGKILL one
    // rank a third of the way in, run on at the degraded layout the twin
    // ranks first, get the rank back two thirds in, grow at the next
    // checkpoint boundary.
    let lost_at = knobs.iters / 3;
    let back_at = 2 * knobs.iters / 3;
    let victim = StdRng::seed_from_u64(knobs.seed ^ 0xe1a5).gen_range(0..world);
    let kill_e = KillSwitch {
        thread: spec.thread_key(victim),
        iteration: lost_at,
    };
    let events = [CapacityEvent::Returned {
        iteration: back_at,
        ranks: 1,
    }];
    let root_e = scratch("elastic");
    let elastic = supervised(
        &job,
        &root_e,
        knobs.ckpt_every,
        None,
        &[kill_e],
        Some(&events),
    )?;
    // A degraded topology regroups the data-parallel gradient sum, so the
    // elastic run is *not* comparable bit-for-bit against the full-topology
    // run (same as E35). The determinism claim is per-segment: a fresh
    // process world launched from the grow-boundary generation must
    // reproduce the post-grow segment exactly.
    let (shrink, grow) = match elastic.reconfigurations[..] {
        [s, g] if g.direction == ReconfigureDirection::Grow => (s, g),
        _ => return Err(format!("expected shrink then grow: {elastic:?}")),
    };
    let mut job_r = job_ck;
    job_r.resume_from = grow.generation;
    let (replay, _) = plain_run(&job_r, "replay", Some(&root_e.join("ckpt")))?;
    let elastic_params_ok = elastic.final_params.as_ref() == Some(&replay);
    let _ = std::fs::remove_dir_all(&root_e);
    // The degraded segment ran from the generation the shrink restored to
    // the grow boundary; its wall less its saves (the ledger's `save` term
    // holds those) is the outage the elastic policy worked through.
    let degraded_iters = grow.at_iter.saturating_sub(shrink.generation).max(1);
    let outage_s = grow.segment_s - (degraded_iters / knobs.ckpt_every) as f64 * mean_save;
    let degraded_iter_s = outage_s / degraded_iters as f64;
    let rho = clean_iter_s / degraded_iter_s;
    let elastic_measured = ledger::measured(
        &elastic,
        clean_iter_s,
        save_s_total,
        n_gens,
        knobs.ckpt_every,
    );
    let elastic_predicted =
        ledger::predicted(&elastic_measured, elastic.incidents.len(), tau, mean_save)
            + Ledger::outage(outage_s, rho, elastic_measured.reconfigure);
    let elastic_error = (elastic_measured.goodput() - elastic_predicted.goodput()).abs()
        / elastic_measured.goodput();

    // --- Report.
    let mut rep = String::new();
    rep.push_str(&format!(
        "E38: supervised ({p},{t},{d}) = {world} OS processes over UDS, {} iterations, \
         checkpoint every {}\n\n",
        knobs.iters, knobs.ckpt_every
    ));
    rep.push_str(&format!(
        "  chaos plan (seed {:#x}): {} SIGKILLs {:?}, {} socket faults\n",
        knobs.seed,
        kills.len(),
        kills
            .iter()
            .map(|k| (spec.flat_rank(k.thread), k.iteration))
            .collect::<Vec<_>>(),
        faults.faults.len(),
    ));
    rep.push_str(&format!(
        "  incidents: {} (attempts {})\n",
        report.incidents.len(),
        report.attempts
    ));
    for inc in &report.incidents {
        rep.push_str(&format!(
            "    attempt {}: {:?} at progress {} → restored gen {} \
             (attempt {:.3} s, restore {:.3} s, backoff {:.3} s)\n",
            inc.attempt,
            inc.dead_ranks,
            inc.reached,
            inc.resumed_from,
            inc.attempt_wall_s,
            inc.restore_s,
            inc.backoff_s
        ));
    }
    rep.push_str(&format!(
        "\n  checkpointed fault-free params match plain fault-free: {}\n",
        yn(ckpt_params_ok)
    ));
    rep.push_str(&format!(
        "  final params bit-identical to fault-free process run: {}\n",
        yn(chaos_params_ok)
    ));
    rep.push_str(&format!(
        "\n  goodput ledger (clean iteration {:.1} ms, mean save {:.1} ms, tau = {:.1} ms),\n\
         \x20 predicted as a finite run from the run's own costs:\n{}\
         \x20 goodput: measured {:.4}, predicted {:.4} (error {:.1}%)\n\
         \x20 young/daly interval: {:.2} s (run used {:.2} s)\n\
         \x20 lost iterations: {}, restore {:.3} s, backoff {:.3} s\n",
        1e3 * clean_iter_s,
        1e3 * mean_save,
        1e3 * tau,
        indented(&ledger::table(&predicted, &measured)),
        measured.goodput(),
        predicted.goodput(),
        model_error * 100.0,
        young_daly_s,
        tau,
        report
            .incidents
            .iter()
            .map(|i| i.lost_iterations)
            .sum::<usize>(),
        measured.restore,
        measured.backoff,
    ));
    rep.push_str(&format!(
        "\n  elastic: rank {victim} SIGKILLed at iteration {lost_at}, returned at {back_at}: \
         {} incidents, reconfigurations {:?}\n\
         \x20 post-grow segment bit-identical to fresh launch from the grow generation: {}\n\
         \x20 degraded segment: {degraded_iters} iterations in {:.1} ms (rho = {rho:.3})\n{}\
         \x20 elastic goodput: measured {:.4}, predicted {:.4} (error {:.1}%)\n",
        elastic.incidents.len(),
        elastic
            .reconfigurations
            .iter()
            .map(|r| (r.from, r.to, r.at_iter, r.generation))
            .collect::<Vec<_>>(),
        yn(elastic_params_ok),
        1e3 * outage_s,
        indented(&ledger::table(&elastic_predicted, &elastic_measured)),
        elastic_measured.goodput(),
        elastic_predicted.goodput(),
        elastic_error * 100.0,
    ));

    let record = crate::perf::bench_json(
        "proc_chaos",
        vec![
            ("world".into(), Json::Num(world as f64)),
            ("p".into(), Json::Num(p as f64)),
            ("t".into(), Json::Num(t as f64)),
            ("d".into(), Json::Num(d as f64)),
            ("iters".into(), Json::Num(knobs.iters as f64)),
            ("ckpt_every".into(), Json::Num(knobs.ckpt_every as f64)),
            ("kills".into(), Json::Num(knobs.kills as f64)),
            ("seed".into(), Json::Num(knobs.seed as f64)),
        ],
        vec![
            ("measured_goodput".into(), measured.goodput()),
            ("predicted_goodput".into(), predicted.goodput()),
            // Named to dodge the sentry's "goodput → higher-better"
            // keyword: a model error is lower-better.
            ("model_error".into(), model_error),
            ("clean_iter_s".into(), clean_iter_s),
            ("restarts".into(), report.incidents.len() as f64),
            // `lost_iterations` stays console-only: it races the 5 ms
            // supervisor poll (0 or 1 run-to-run), and a 0 baseline makes
            // any relative sentry delta explode.
            ("restore_s_total".into(), measured.restore),
            ("backoff_s_total".into(), measured.backoff),
            (
                "elastic_measured_goodput".into(),
                elastic_measured.goodput(),
            ),
            (
                "elastic_predicted_goodput".into(),
                elastic_predicted.goodput(),
            ),
            ("elastic_model_error".into(), elastic_error),
            ("degraded_iter_s".into(), degraded_iter_s),
            ("relative_throughput".into(), rho),
        ],
    );
    rep.push_str(&format!(
        "\n  {}\n",
        crate::perf::write_bench_json(out_path, &record)
    ));

    if !(chaos_params_ok && elastic_params_ok && ckpt_params_ok) {
        return Err(rep + "\nFAIL: a healed run diverged from the fault-free run");
    }
    if report.incidents.is_empty() || elastic.incidents.is_empty() {
        return Err(rep + "\nFAIL: a supervised leg saw no incidents — the kills never landed");
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn too_few_iterations_are_rejected_before_any_launch() {
        let args: Vec<String> = ["--process", "--iters", "2", "--ckpt-every", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--iters >= max(3, 2*ckpt-every)"), "{err}");
    }
}

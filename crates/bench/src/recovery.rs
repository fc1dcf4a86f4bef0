//! E30: one recovery experiment over both backends (`repro recovery`).
//!
//! One seeded scenario — fatal rank kills drawn from a [`FaultPlan`], and
//! one capacity loss and its return — runs on the in-process
//! [`ThreadBackend`] and on the 8-process [`ProcBackend`]. The same legs
//! run on each, every one through the [`Supervisor`] or a single
//! [`JobBackend::run_attempt`]:
//!
//! - fault-free, and fault-free with durable checkpoints (the save cost);
//! - chaos: the fatal kills, which must cost exactly one restart each and
//!   end on the fault-free run's final parameters;
//! - elastic: the capacity loss shrinks the job to the layout its
//!   simulator twin ranks cheapest, the return grows it back at the next
//!   checkpoint boundary, and each segment is replayed as a fresh launch
//!   from the generation it started at (`CheckpointStore::load_pinned`),
//!   losses and parameters both.
//!
//! Rank threads share the driver's address space, so one check holds
//! there only: a world a kill tore down still reports its losses.
//!
//! Each backend's chaos and elastic runs are then priced: the goodput
//! ledger measured term by term beside the finite run its own costs
//! predict ([`crate::ledger`]). The clean iteration, the mean save and the
//! model error have one definition each, shared by both backends. A
//! failed invariant makes the experiment an `Err`. The metrics land in
//! `BENCH_recovery.json`, once under a `thread_` and once under a
//! `process_` prefix, for the perf-regression sentry.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use megatron_core::elastic::rank_layouts;
use megatron_core::goodput::Ledger;
use megatron_dist::{
    Attempt, AttemptOutcome, CapacityEvent, CheckpointStore, JobBackend, JobSpec, KillSwitch,
    ProcBackend, PtdpSpec, ReconfigureDirection, Restored, Supervisor, SupervisorConfig,
    SupervisorReport, ThreadBackend, ThreadKey,
};
use megatron_sim::json::Json;
use megatron_tensor::gpt::TinyGptConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault_plan::{FaultPlan, FaultRates};
use crate::ledger;

/// The scenario's seed: its plan draws two fatal kills.
const SEED: u64 = 0xe34;
/// Iterations of the job.
const ITERS: usize = 12;
/// Durable checkpoint interval in iterations.
const CHECKPOINT_EVERY: usize = 2;

/// Final parameters per rank.
type Params = HashMap<ThreadKey, Vec<f32>>;

/// One seeded scenario: the job both backends run and the faults it meets.
struct Scenario {
    /// Seeds the fault plan and the capacity victim.
    seed: u64,
    /// The (2,2,2) job.
    job: JobSpec,
    /// One fatal kill per death in the plan, earliest first.
    kills: Vec<KillSwitch>,
    /// The capacity loss: this rank dies a third of the way in ...
    loss: KillSwitch,
    /// ... and its capacity returns at this iteration, two thirds in.
    back_at: usize,
}

impl Scenario {
    fn new(seed: u64) -> Scenario {
        let mut job = JobSpec::canonical(2, 2, 2);
        // Heavier than the canonical toy, so that an iteration's compute
        // is not lost under process launch and rendezvous.
        job.batch = 32;
        job.model.seq = 8;
        job.model.hidden = 16;
        job.iters = ITERS;
        let spec = job.spec();
        let world = spec.world();
        // One fictional second per iteration; every death is fatal.
        let rates = FaultRates {
            gpu_death_mtbf_s: 8.0,
            ..FaultRates::none()
        };
        let plan = FaultPlan::generate(seed, world, ITERS as f64, &rates);
        let mut kills: Vec<KillSwitch> = plan
            .events
            .iter()
            .map(|ev| KillSwitch {
                thread: spec.thread_key(ev.gpu % world),
                // A kill needs an iteration before it and one after.
                iteration: (ev.at_s as usize).clamp(1, ITERS - 2),
            })
            .collect();
        kills.sort_by_key(|k| (k.iteration, spec.flat_rank(k.thread)));
        let victim = StdRng::seed_from_u64(seed ^ 0xe1a5).gen_range(0..world);
        Scenario {
            seed,
            job,
            kills,
            loss: KillSwitch {
                thread: spec.thread_key(victim),
                iteration: ITERS / 3,
            },
            back_at: 2 * ITERS / 3,
        }
    }
}

/// Where the job's ranks run.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Thread,
    Process,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Process => "process",
        }
    }
}

/// What one backend's legs produced.
struct Legs {
    /// The fault-free run's final parameters.
    clean: Params,
    /// Each invariant and whether it held.
    checks: Vec<(String, bool)>,
    /// Incidents and the two ledger tables.
    text: String,
    /// The priced runs, as `BENCH_recovery.json` records them.
    metrics: Vec<(&'static str, f64)>,
}

/// Run every leg of `sc` on `backend`.
fn run_legs(backend: Backend, sc: &Scenario) -> Result<Legs, String> {
    let root = std::env::temp_dir().join(format!(
        "megatron-recovery-{}-{}",
        backend.name(),
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    let legs = match backend {
        Backend::Thread => {
            let data = sc.job.dataset();
            legs(sc, &root, true, |_| {
                ThreadBackend::new(sc.job.master(), sc.job.spec(), &data)
            })
        }
        Backend::Process => legs(sc, &root, false, |dir| ProcBackend::new(&sc.job, dir)),
    };
    let _ = fs::remove_dir_all(&root);
    legs
}

/// The one supervision policy: the default backoff, a restart budget two
/// past the kills, and a collective-timeout floor that a relaunched world
/// on a loaded host never trips while it restores.
fn policy(kills: usize) -> SupervisorConfig {
    SupervisorConfig {
        max_restarts: kills + 2,
        checkpoint_every: CHECKPOINT_EVERY,
        min_comm_timeout: Duration::from_secs(5),
        ..SupervisorConfig::default()
    }
}

/// A fresh store under `dir` that keeps every generation: the replays
/// restore from early ones.
fn fresh_store(dir: &Path) -> Result<Arc<CheckpointStore>, String> {
    CheckpointStore::open_with_keep(dir.join("ckpt"), ITERS).map_err(|e| e.to_string())
}

/// A fresh store under `dir` holding a copy of `from`'s `generation`, and
/// that generation restored at `spec`.
fn seeded_store(
    from: &CheckpointStore,
    generation: usize,
    dir: &Path,
    spec: &PtdpSpec,
    model: TinyGptConfig,
) -> Result<(Arc<CheckpointStore>, Restored), String> {
    let store = fresh_store(dir)?;
    let dst = store.gen_dir(generation);
    fs::create_dir_all(&dst).map_err(|e| e.to_string())?;
    for entry in fs::read_dir(from.gen_dir(generation)).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        fs::copy(entry.path(), dst.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    let restored = store
        .load_pinned(spec, model, generation)
        .map_err(|e| e.to_string())?;
    Ok((store, restored))
}

/// One unsupervised attempt at `spec` from `restore` (scratch when
/// `None`) to `stop`, checkpointing every `every` iterations (never at 0);
/// its outcome and wall seconds.
fn attempt<B: JobBackend>(
    backend: &B,
    store: &Arc<CheckpointStore>,
    spec: PtdpSpec,
    restore: Option<Restored>,
    stop: usize,
    every: usize,
) -> Result<(AttemptOutcome, f64), String> {
    let cfg = SupervisorConfig {
        checkpoint_every: every,
        ..policy(0)
    };
    let t0 = Instant::now();
    let out = backend.run_attempt(Attempt {
        spec,
        restore,
        stop,
        kill: None,
        comm_timeout: spec.comm_timeout,
        epoch: 0,
        store,
        cfg: &cfg,
        telemetry: None,
    });
    let wall_s = t0.elapsed().as_secs_f64();
    match &out.failure {
        Some(f) => Err(format!("a fault-free attempt failed: {}", f.cause)),
        None => Ok((out, wall_s)),
    }
}

/// A supervised run's report, or why the supervisor gave up.
fn completed(report: SupervisorReport) -> Result<SupervisorReport, String> {
    match &report.gave_up {
        Some(cause) => Err(format!(
            "the supervisor gave up after {} incidents: {cause}",
            report.incidents.len()
        )),
        None => Ok(report),
    }
}

/// How far a prediction misses, relative to the measured goodput.
fn model_error(predicted: &Ledger, measured: &Ledger) -> f64 {
    (measured.goodput() - predicted.goodput()).abs() / measured.goodput()
}

/// `text` with every line indented under the report's margin.
fn indented(text: &str) -> String {
    text.lines().map(|l| format!("    {l}\n")).collect()
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}

/// The legs, once for any backend. `make(dir)` builds a backend whose
/// scratch lives under `dir`. `shared`: the ranks run in this address
/// space, so a torn world still reports its losses.
fn legs<B: JobBackend>(
    sc: &Scenario,
    root: &Path,
    shared: bool,
    make: impl Fn(&Path) -> B,
) -> Result<Legs, String> {
    let spec = sc.job.spec();
    let model = sc.job.model;
    let k = CHECKPOINT_EVERY;
    let generations = ITERS / k;
    let dir = |leg: &str| root.join(leg);
    let mut checks = Vec::new();
    let mut check = |line: String, held: bool| checks.push((line, held));

    // Fault-free, without and with durable checkpoints. Their walls give
    // the clean iteration and the mean save.
    let ff = dir("fault-free");
    let (clean, clean_wall) = attempt(&make(&ff), &fresh_store(&ff)?, spec, None, ITERS, 0)?;
    let ck = dir("checkpointed");
    let (ckpt, ckpt_wall) = attempt(&make(&ck), &fresh_store(&ck)?, spec, None, ITERS, k)?;
    check(
        "checkpointed fault-free params bit-identical to fault-free".into(),
        ckpt.final_params == clean.final_params,
    );
    let clean_iter_s = clean_wall / ITERS as f64;
    let save_s = ckpt_wall - clean_wall;
    let mean_save = save_s / generations as f64;

    let supervisor = |leg: &str, kills: usize| -> Result<_, String> {
        let store = fresh_store(&dir(leg))?;
        let sup = Supervisor::new(make(&dir(leg)), Arc::clone(&store), policy(kills));
        Ok((sup, store))
    };

    // Chaos: the fatal kills, one restart each.
    let (sup, _) = supervisor("chaos", sc.kills.len())?;
    let chaos = completed(sup.run(&sc.kills))?;
    check(
        format!(
            "chaos run restarts once per fatal kill ({} restarts, {} kills)",
            chaos.restarts,
            sc.kills.len()
        ),
        chaos.restarts == sc.kills.len(),
    );
    check(
        "chaos final params bit-identical to fault-free".into(),
        chaos.final_params.as_ref() == Some(&clean.final_params),
    );
    if shared {
        check(
            "chaos losses bit-identical to fault-free".into(),
            chaos.losses == clean.losses,
        );
    } else {
        // A torn process world reports no losses, so the stitched losses
        // are complete only from the last resume on; compare every one
        // reported.
        let resumed = chaos.incidents.last().map_or(0, |i| i.resumed_from);
        let reported: Vec<usize> = (0..ITERS).filter(|&i| chaos.losses[i] != 0.0).collect();
        check(
            format!(
                "chaos losses bit-identical to fault-free where reported \
                 ({} of {ITERS} iterations)",
                reported.len()
            ),
            (resumed..ITERS).all(|i| reported.contains(&i))
                && reported.iter().all(|&i| chaos.losses[i] == clean.losses[i]),
        );
    }

    // Elastic: shrink on the loss, grow back at the boundary after the
    // return, over the layouts the job's simulator twin ranks.
    let twin = crate::timeline::twin(model, &spec, sc.job.batch);
    let rank = |capacity| rank_layouts(&twin, capacity);
    let (sup, elastic_store) = supervisor("elastic", 1)?;
    let returned = CapacityEvent::Returned {
        iteration: sc.back_at,
        ranks: 1,
    };
    let elastic = completed(sup.run_elastic(&[sc.loss], &[returned], &rank))?;
    let full = (spec.pipeline, spec.tensor, spec.data);
    let (shrink, grow) = match elastic.reconfigurations[..] {
        [s, g]
            if s.direction == ReconfigureDirection::Shrink
                && g.direction == ReconfigureDirection::Grow
                && g.to == full =>
        {
            (s, g)
        }
        _ => {
            return Err(format!(
                "expected a shrink, then a grow back to {full:?}: {:?}",
                elastic.reconfigurations
            ))
        }
    };
    // A degraded layout regroups the data-parallel sum, so neither segment
    // compares with the fault-free run: each must equal a fresh launch
    // from the generation it started at, loss for loss. Both segments ran
    // to their ends, so every backend reports their losses. The degraded
    // one's parameters are compared through the generation it commits at
    // the grow boundary.
    let degraded = PtdpSpec {
        pipeline: shrink.to.0,
        tensor: shrink.to.1,
        data: shrink.to.2,
        ..spec
    };
    let dd = dir("degraded");
    let (store, from) = seeded_store(&elastic_store, shrink.generation, &dd, &degraded, model)?;
    let (replay, _) = attempt(&make(&dd), &store, degraded, Some(from), grow.at_iter, k)?;
    let _ = store.commit_complete_generations(&degraded, model);
    let at_grow = |s: &CheckpointStore| {
        s.load_pinned(&degraded, model, grow.generation)
            .map(|r| r.snapshot.threads)
            .ok()
    };
    let committed = at_grow(&elastic_store);
    check(
        format!(
            "degraded segment bit-identical to fresh {:?} launch from gen {} through gen {}",
            shrink.to, shrink.generation, grow.generation
        ),
        committed.is_some() && committed == at_grow(&store),
    );
    let segment = shrink.generation..grow.at_iter;
    check(
        format!(
            "degraded segment losses bit-identical to the fresh launch's (iterations {segment:?})"
        ),
        !segment.is_empty() && elastic.losses[segment.clone()] == replay.losses[segment],
    );
    let rg = dir("regrown");
    let (store, from) = seeded_store(&elastic_store, grow.generation, &rg, &spec, model)?;
    let (regrown, _) = attempt(&make(&rg), &store, spec, Some(from), ITERS, k)?;
    check(
        format!(
            "post-grow segment bit-identical to fresh {full:?} launch from gen {}",
            grow.generation
        ),
        elastic.final_params.as_ref() == Some(&regrown.final_params),
    );
    let segment = grow.generation..ITERS;
    check(
        format!(
            "post-grow segment losses bit-identical to the fresh launch's (iterations {segment:?})"
        ),
        !segment.is_empty() && elastic.losses[segment.clone()] == regrown.losses[segment],
    );

    // Price both supervised runs from the fault-free legs' costs.
    let tau = k as f64 * clean_iter_s;
    let fold =
        |report: &SupervisorReport| ledger::measured(report, clean_iter_s, save_s, generations, k);
    let measured = fold(&chaos);
    let predicted = ledger::predicted(&measured, chaos.incidents.len(), tau, mean_save);
    // The degraded segment ran from the shrink's generation to the grow
    // boundary; its wall less its saves is the outage the job worked
    // through, at `rho` of the clean rate.
    let degraded_iters = grow.at_iter.saturating_sub(shrink.generation).max(1);
    let outage_s = grow.segment_s - (degraded_iters / k) as f64 * mean_save;
    let degraded_iter_s = outage_s / degraded_iters as f64;
    let rho = clean_iter_s / degraded_iter_s;
    let e_measured = fold(&elastic);
    let e_predicted = ledger::predicted(&e_measured, elastic.incidents.len(), tau, mean_save)
        + Ledger::outage(outage_s, rho, e_measured.reconfigure);

    let mut text = format!("  chaos incidents ({} attempts):\n", chaos.attempts);
    for inc in &chaos.incidents {
        text += &format!(
            "    attempt {}: {} at iteration {} -> restored gen {} \
             (attempt {:.1} ms, restore {:.1} ms, backoff {:.1} ms)\n",
            inc.attempt,
            inc.cause,
            inc.reached,
            inc.resumed_from,
            1e3 * inc.attempt_wall_s,
            1e3 * inc.restore_s,
            1e3 * inc.backoff_s,
        );
    }
    text += &format!(
        "  chaos ledger (clean iteration {:.1} ms, mean save {:.1} ms, tau {:.1} ms) beside the\n\
         \x20 finite run its own costs predict:\n{}\
         \x20 model error: {:.1}%\n",
        1e3 * clean_iter_s,
        1e3 * mean_save,
        1e3 * tau,
        indented(&ledger::table(&predicted, &measured)),
        100.0 * model_error(&predicted, &measured),
    );
    text += &format!(
        "  elastic ledger ({:?} -> {:?} at iteration {}, back at {}; degraded segment\n\
         \x20 {degraded_iters} iterations in {:.1} ms, rho {rho:.3}):\n{}\
         \x20 model error: {:.1}%\n",
        shrink.from,
        shrink.to,
        shrink.at_iter,
        grow.at_iter,
        1e3 * outage_s,
        indented(&ledger::table(&e_predicted, &e_measured)),
        100.0 * model_error(&e_predicted, &e_measured),
    );

    Ok(Legs {
        clean: clean.final_params,
        checks,
        text,
        metrics: vec![
            ("measured_goodput", measured.goodput()),
            ("predicted_goodput", predicted.goodput()),
            // Named so the sentry reads it lower-better, not as a goodput.
            ("model_error", model_error(&predicted, &measured)),
            ("clean_iter_s", clean_iter_s),
            ("restarts", chaos.incidents.len() as f64),
            ("restore_s_total", measured.restore),
            ("backoff_s_total", measured.backoff),
            ("elastic_measured_goodput", e_measured.goodput()),
            ("elastic_predicted_goodput", e_predicted.goodput()),
            (
                "elastic_model_error",
                model_error(&e_predicted, &e_measured),
            ),
            ("degraded_iter_s", degraded_iter_s),
            ("relative_throughput", rho),
        ],
    })
}

/// E30 (`repro recovery`): the scenario on both backends, then the one
/// check across them. `Err` carries the whole report when any invariant
/// fails.
pub fn recovery() -> Result<String, String> {
    let sc = Scenario::new(SEED);
    let spec = sc.job.spec();
    let mut out = format!(
        "one seeded scenario (seed {:#x}) on both backends: (2,2,2), {ITERS} iterations, \
         batch {}, checkpoint every {CHECKPOINT_EVERY}\n\
         \x20 fatal kills (flat rank, iteration): {:?}\n\
         \x20 capacity: rank {} lost at iteration {}, returned at iteration {}\n\n",
        sc.seed,
        sc.job.batch,
        sc.kills
            .iter()
            .map(|k| (spec.flat_rank(k.thread), k.iteration))
            .collect::<Vec<_>>(),
        spec.flat_rank(sc.loss.thread),
        sc.loss.iteration,
        sc.back_at,
    );
    let mut failed = 0;
    let mut metrics = Vec::new();
    let mut clean = Vec::new();
    for backend in [Backend::Thread, Backend::Process] {
        let name = backend.name();
        let legs = run_legs(backend, &sc).map_err(|e| format!("{out}{name} backend: {e}"))?;
        out += &format!("{name} backend:\n");
        for (line, held) in &legs.checks {
            out += &format!("  {name} {line}: {}\n", yn(*held));
            failed += usize::from(!held);
        }
        out += &legs.text;
        out.push('\n');
        metrics.extend(
            legs.metrics
                .into_iter()
                .map(|(m, v)| (format!("{name}_{m}"), v)),
        );
        clean.push(legs.clean);
    }
    let same = clean[0] == clean[1];
    failed += usize::from(!same);
    out += &format!("thread == process fault-free final params: {}\n", yn(same));

    let n = |x: usize| Json::Num(x as f64);
    let record = crate::perf::bench_json(
        "recovery",
        vec![
            ("world".into(), n(spec.world())),
            ("p".into(), n(spec.pipeline)),
            ("t".into(), n(spec.tensor)),
            ("d".into(), n(spec.data)),
            ("iters".into(), n(ITERS)),
            ("ckpt_every".into(), n(CHECKPOINT_EVERY)),
            ("kills".into(), n(sc.kills.len())),
            ("seed".into(), Json::Num(sc.seed as f64)),
        ],
        metrics,
    );
    out += &format!(
        "{}\n",
        crate::perf::write_bench_json("BENCH_recovery.json", &record)
    );
    match failed {
        0 => Ok(out),
        n => Err(format!("{out}FAIL: {n} invariants did not hold")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kills(sc: &Scenario) -> Vec<(ThreadKey, usize)> {
        sc.kills.iter().map(|k| (k.thread, k.iteration)).collect()
    }

    #[test]
    fn scenario_kills_are_deterministic_and_in_range() {
        let (a, b) = (Scenario::new(SEED), Scenario::new(SEED));
        assert_eq!(kills(&a), kills(&b));
        assert_eq!(a.loss.thread, b.loss.thread);
        // The seed's plan, as `BENCH_recovery.json` records it.
        assert_eq!(a.kills.len(), 2);
        for k in &a.kills {
            assert!((1..ITERS - 1).contains(&k.iteration), "{k:?}");
        }
    }

    /// The whole scenario on rank threads: every leg, every invariant.
    /// (`repro recovery` adds the process backend.)
    #[test]
    fn the_whole_scenario_holds_on_the_thread_backend() {
        let sc = Scenario::new(SEED);
        assert!(!sc.kills.is_empty());
        let legs = run_legs(Backend::Thread, &sc).unwrap();
        assert_eq!(legs.checks.len(), 8);
        for (line, held) in &legs.checks {
            assert!(held, "{line}");
        }
    }
}

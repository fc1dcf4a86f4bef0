//! E35: elastic (p, t, d) reconfiguration, end-to-end on the real trainer.
//!
//! A seeded `FaultPlan` kills a rank mid-job and a seeded
//! `CapacityEvent::Returned` repairs it a few iterations later. The
//! elastic supervisor shrinks to the cheapest degraded layout the job's
//! simulator twin ranks (`megatron_core::elastic::rank_layouts`), keeps
//! training, and grows back at the next checkpoint boundary — while the
//! restart-at-full baseline must stall until the capacity returns. The
//! experiment proves three things:
//!
//! 1. **Bit-identity**: every post-reconfiguration segment of the elastic
//!    run equals a fresh launch at that topology restored from the same
//!    checkpoint generation, loss-for-loss and weight-for-weight.
//! 2. **Goodput**: elastic shrink-and-continue measures strictly higher
//!    goodput than restart-at-full under the same fault plan, and its
//!    goodput ledger is printed term by term beside the finite-run ledger
//!    its own measured costs predict.
//! 3. **Sim pricing**: `megatron_core::elastic::price_schedule` prices
//!    capacity-loss schedules the real engine never runs with the same
//!    twin, anchored by the one point the real run measured.

use megatron_core::elastic::{iteration_s, price_schedule, rank_layouts, CapacityWindow};
use megatron_core::goodput::{break_even_outage_s, Ledger};
use megatron_dist::{
    CapacityEvent, CheckpointStore, KillSwitch, PtdpSpec, PtdpTrainer, ReconfigureDirection,
    RunControl, Supervisor, SupervisorConfig, SupervisorReport, ThreadBackend,
};
use megatron_sim::json::Json;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

use crate::fault_plan::{FaultPlan, FaultRates};
use crate::ledger;
use crate::perf;
use crate::table::Table;
use crate::timeline::twin;

/// Wall-clock seconds per iteration of a clean (fault-free, no-durable)
/// run. Wall-clock — not per-thread step times summed up — because
/// pipeline stages overlap in time and the goodput ratios this feeds
/// normalize wall-clock quantities.
fn timed_iter_s(master: &GptModel, spec: PtdpSpec, data: &[(Vec<usize>, Vec<usize>)]) -> f64 {
    let t0 = std::time::Instant::now();
    let _log = PtdpTrainer::new(master.clone(), spec).train(data);
    t0.elapsed().as_secs_f64() / data.len() as f64
}

/// E35 entry point (`repro elastic`).
pub fn elastic() -> String {
    // Same tiny-but-real job as E30: 8 "GPUs" as (p=2, t=2, d=2) threads.
    let cfg = TinyGptConfig {
        vocab: 13,
        seq: 8,
        hidden: 32,
        heads: 4,
        layers: 2,
    };
    let iters = 24usize;
    let ckpt_every = 2usize;
    let spec = PtdpSpec::new(2, 2, 2);
    let mut rng = StdRng::seed_from_u64(0x5ee_de35);
    let master = GptModel::new(cfg, &mut rng);
    let batch = 64usize;
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..iters)
        .map(|_| {
            let toks = (0..batch * cfg.seq)
                .map(|_| rng.gen_range(0..cfg.vocab))
                .collect();
            let tgts = (0..batch * cfg.seq)
                .map(|_| rng.gen_range(0..cfg.vocab))
                .collect();
            (toks, tgts)
        })
        .collect();

    // Seeded fault + repair schedule: one GPU death mid-job, repaired a
    // seeded handful of iterations later (mirroring how `KillSwitch`
    // schedules deaths).
    let mut rates = FaultRates::none();
    rates.gpu_death_mtbf_s = 10.0;
    let (seed, plan) = (0u64..64)
        .map(|i| {
            let s = 0xe35 + i;
            (
                s,
                FaultPlan::generate(s, spec.world(), iters as f64, &rates),
            )
        })
        .find(|(_, p)| {
            p.events
                .first()
                .is_some_and(|ev| (3..=10).contains(&(ev.at_s as usize)))
        })
        .expect("some seed in [0xe35, 0xe35+64) draws a usable mid-job death");
    let death = &plan.events[0];
    let kill_iter = (death.at_s as usize).clamp(3, 10);
    let kill = KillSwitch {
        thread: spec.thread_key(death.gpu % spec.world()),
        iteration: kill_iter,
    };
    // A long-ish outage: the goodput gap between the two policies scales
    // with it, and it must dominate scheduler noise in the wall clocks.
    let repair_iters = 10 + (seed % 3) as usize;
    let return_iter = (kill_iter + repair_iters).min(iters - 6);
    let capacity = [CapacityEvent::Returned {
        iteration: return_iter,
        ranks: 1,
    }];

    let mut out = String::new();
    out.push_str(&format!(
        "seeded capacity schedule (seed {seed:#x}) on {} threads (p=2, t=2, d=2), {iters} iterations,\n\
         durable checkpoint every {ckpt_every}:\n\
           gpu {} (thread {:?}) dies at iteration {kill_iter},\n\
           1 rank repaired and returned at iteration {return_iter}\n\n",
        spec.world(),
        death.gpu % spec.world(),
        kill.thread,
    ));

    // Clean full-topology reference: per-iteration cost without faults.
    // The first run warms thread pools and allocator arenas, so time two
    // and keep the cheaper estimate — a cold reference would overstate
    // the per-iteration cost and inflate every goodput it normalizes.
    let clean = PtdpTrainer::new(master.clone(), spec).train(&data);
    let clean_iter_s = timed_iter_s(&master, spec, &data).min(timed_iter_s(&master, spec, &data));

    // ---- The elastic run: shrink on death, grow on return. Run it
    // twice (it is deterministic in everything but wall-clock) and keep
    // the faster observation, mirroring the min-of-two clean references.
    let sup_cfg = SupervisorConfig {
        max_restarts: 3,
        checkpoint_every: ckpt_every,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
        ..SupervisorConfig::default()
    };
    // The job's simulator twin prices every layout the supervisor may
    // shrink to, and the degraded iterations below.
    let twin_run = twin(cfg, &spec, batch);
    let rank = |capacity| rank_layouts(&twin_run, capacity);
    // One supervised run of the job over a fresh store: elastic (shrink on
    // the death, grow on the return) or the restart-at-full baseline.
    let supervised_once = |tag: &str, elastic: bool| {
        let root = std::env::temp_dir().join(format!("megatron-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = CheckpointStore::open(&root).expect("checkpoint store");
        let backend = ThreadBackend::new(master.clone(), spec, &data);
        let sup = Supervisor::new(backend, Arc::clone(&store), sup_cfg);
        let report = if elastic {
            sup.run_elastic(&[kill], &capacity, &rank)
        } else {
            sup.run(&[kill])
        };
        (report, store, root)
    };
    let (report_a, store_a, root_a) = supervised_once("elastic-0", true);
    let (report_b, store_b, root_b) = supervised_once("elastic-1", true);
    assert_eq!(
        report_a.losses, report_b.losses,
        "the elastic trajectory must be deterministic"
    );
    let (report, store) = if report_a.wall_s <= report_b.wall_s {
        (report_a, store_a)
    } else {
        (report_b, store_b)
    };
    assert!(
        report.completed(),
        "elastic supervisor gave up: {:?}",
        report.gave_up
    );
    assert_eq!(
        report.reconfigurations.len(),
        2,
        "expected shrink then grow: {:?}",
        report.reconfigurations
    );
    let shrink = report.reconfigurations[0];
    let grow = report.reconfigurations[1];
    assert_eq!(shrink.direction, ReconfigureDirection::Shrink);
    assert_eq!(grow.direction, ReconfigureDirection::Grow);
    assert_eq!(grow.to, (2, 2, 2), "grow returns to the launch topology");

    let mut t = Table::new(["event", "at iter", "generation", "topology", "capacity"]);
    for rc in &report.reconfigurations {
        t.row([
            match rc.direction {
                ReconfigureDirection::Shrink => "shrink",
                ReconfigureDirection::Grow => "grow",
            }
            .to_string(),
            rc.at_iter.to_string(),
            rc.generation.to_string(),
            format!("{:?} -> {:?}", rc.from, rc.to),
            format!("{} GPUs", rc.capacity),
        ]);
    }
    out.push_str(&format!(
        "elastic timeline ({} attempts, {} restart, {} reconfigurations):\n{}\n",
        report.attempts,
        report.restarts,
        report.reconfigurations.len(),
        t.render()
    ));

    // ---- Bit-identity: replay the elastic trajectory as a sequence of
    // fresh launches from the same generations. ----
    let degraded = PtdpSpec {
        pipeline: shrink.to.0,
        tensor: shrink.to.1,
        data: shrink.to.2,
        ..spec
    };
    let root2 = std::env::temp_dir().join(format!("megatron-elastic-ref-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root2);
    let store2 = CheckpointStore::open(&root2).expect("replication store");

    // Segment 1: the doomed full-topology run, durably checkpointing into
    // the replication store (deterministic, so it writes the same
    // generations the elastic run's first attempt did).
    let seg1 = PtdpTrainer::new(master.clone(), spec).train_with(
        &data,
        RunControl {
            checkpoint_every: Some(ckpt_every),
            kill: Some(kill),
            durable: Some(Arc::clone(&store2)),
            ..RunControl::default()
        },
    );
    assert!(
        seg1.error.is_some(),
        "the kill must fire in the replication"
    );

    // Segment 2: a FRESH degraded launch restored from the same
    // generation the elastic shrink used.
    let restored = store2
        .load_latest(&degraded, cfg)
        .expect("cross-topology restore for the degraded replication");
    assert_eq!(restored.generation, shrink.generation);
    let grow_stop = grow.at_iter;
    let seg2 = PtdpTrainer::new(master.clone(), degraded).train_with(
        &data[..grow_stop],
        RunControl {
            checkpoint_every: Some(ckpt_every),
            restore: Some(restored.snapshot),
            durable: Some(Arc::clone(&store2)),
            ..RunControl::default()
        },
    );
    assert!(seg2.error.is_none(), "degraded replication failed");
    let degraded_window = shrink.generation..grow_stop;
    let seg_ok = seg2.log.losses[degraded_window.clone()] == report.losses[degraded_window.clone()];

    // Segment 3: a FRESH full-topology launch restored from the grow
    // boundary generation.
    let regrown = store2
        .load_latest(&spec, cfg)
        .expect("cross-topology restore for the regrown replication");
    assert_eq!(regrown.generation, grow.generation);
    let seg3 = PtdpTrainer::new(master.clone(), spec).train_with(
        &data,
        RunControl {
            checkpoint_every: Some(ckpt_every),
            restore: Some(regrown.snapshot),
            ..RunControl::default()
        },
    );
    assert!(seg3.error.is_none(), "regrown replication failed");
    let tail_ok = seg3.log.losses[grow_stop..] == report.losses[grow_stop..];
    let params_ok = report.final_params.as_ref() == Some(&seg3.log.final_params);
    out.push_str(&format!(
        "degraded segment (iters {}..{}) bit-identical to fresh {:?} launch from gen {}: {}\n\
         post-grow segment (iters {}..{}) bit-identical to fresh (2, 2, 2) launch from gen {}: {}\n\
         final weights bit-identical to the replayed trajectory: {}\n\n",
        degraded_window.start,
        degraded_window.end,
        shrink.to,
        shrink.generation,
        if seg_ok { "yes" } else { "NO" },
        grow_stop,
        iters,
        grow.generation,
        if tail_ok { "yes" } else { "NO" },
        if params_ok { "yes" } else { "NO" },
    ));
    assert!(seg_ok && tail_ok && params_ok, "bit-identity must hold");

    // ---- Goodput: elastic vs restart-at-full under the same plan. ----
    //
    // Iteration pricing. The harness backs every rank with a host thread,
    // so shrinking the topology does NOT slow it down the way losing GPUs
    // slows a real job (fewer threads can even run faster per iteration
    // on a contended host). Degraded iterations are therefore priced by
    // the twin — the same simulation the supervisor ranked layouts with —
    // calibrated so one full-topology iteration costs the measured
    // `clean_iter_s`. The twin prices an A100 node, where this tiny job is
    // bound by its all-reduces and the degraded layout can come out
    // *faster*: a rho above 1 stands, as a negative degraded term. Every
    // other term of both ledgers is folded from the runs' own reports, so
    // host scheduler jitter in their walls shows as `unexplained`.
    let full = (spec.pipeline, spec.tensor, spec.data);
    let twin_s = |layout| iteration_s(&twin_run, layout).expect("a ranked layout simulates");
    let rho = twin_s(full) / twin_s(shrink.to);
    let degraded_iter_s = clean_iter_s / rho;

    // The outage: the degraded window's work at degraded speed. Elastic
    // works through it at rho; the restart baseline stalls for all of it.
    let degraded_work = (grow_stop - shrink.generation) as f64;
    let outage_s = degraded_work * degraded_iter_s;
    let folded = |report: &SupervisorReport, store: &CheckpointStore| {
        let windows = store.save_windows();
        let save_s: f64 = windows.iter().map(|(_, s)| s).sum();
        let l = ledger::measured(report, clean_iter_s, save_s, windows.len(), ckpt_every);
        (l, save_s / windows.len().max(1) as f64)
    };
    let (measured, mean_save) = folded(&report, &store);
    let elastic = Ledger {
        degraded: Ledger::outage(outage_s, rho, 0.0).degraded,
        ..measured
    };

    // Restart-at-full baseline: same kill, non-elastic supervisor (it
    // restores at (2,2,2) as soon as the job allows), but the real cluster
    // could not have run 8 ranks until the repair — it stalls for the
    // whole outage on top of its own measured ledger.
    let (base_a, bstore_a, broot_a) = supervised_once("elastic-base-0", false);
    let (base_b, bstore_b, broot_b) = supervised_once("elastic-base-1", false);
    let (base_report, base_store) = if base_a.wall_s <= base_b.wall_s {
        (base_a, bstore_a)
    } else {
        (base_b, bstore_b)
    };
    assert!(
        base_report.completed(),
        "baseline gave up: {:?}",
        base_report.gave_up
    );
    assert_eq!(base_report.losses, clean.losses, "baseline bit-identity");
    let restart = folded(&base_report, &base_store).0 + Ledger::outage(outage_s, 0.0, 0.0);
    let _ = std::fs::remove_dir_all(&broot_a);
    let _ = std::fs::remove_dir_all(&broot_b);

    let (elastic_goodput, restart_goodput) = (elastic.goodput(), restart.goodput());
    out.push_str(&format!(
        "measured goodput under the same fault plan ({:.0}-iteration outage priced at {:.1} ms,\n\
         degraded iterations priced {:.1} ms by the twin vs {:.1} ms clean):\n\
           elastic shrink-and-continue: {:.1}%  ({:.1} ms wall, works through the outage)\n\
           restart-at-full baseline:    {:.1}%  ({:.1} ms wall, stalls for the whole outage)\n",
        degraded_work,
        1e3 * outage_s,
        1e3 * degraded_iter_s,
        1e3 * clean_iter_s,
        100.0 * elastic_goodput,
        1e3 * elastic.wall_s(),
        100.0 * restart_goodput,
        1e3 * restart.wall_s(),
    ));
    assert!(
        elastic_goodput > restart_goodput,
        "elastic ({elastic_goodput:.3}) must beat restart-at-full ({restart_goodput:.3})"
    );

    // ---- Prediction: the finite run this run's own costs predict, plus
    // the outage worked through at rho after the grow's reconfiguration.
    let predicted = ledger::predicted(
        &measured,
        report.incidents.len(),
        ckpt_every as f64 * clean_iter_s,
        mean_save,
    ) + Ledger::outage(outage_s, rho, measured.reconfigure);
    let err = (elastic_goodput - predicted.goodput()).abs() / predicted.goodput();
    out.push_str(&format!(
        "\nelastic ledger (rho = {:.3}: the twin's relative throughput of {:?}) beside the\n\
         finite run its own costs predict:\n{}\
         agreement: {:.1}% {}\n\
         break-even outage for one reconfiguration ({:.2} ms): {:.2} ms\n",
        rho,
        shrink.to,
        ledger::table(&predicted, &elastic),
        100.0 * err,
        if err <= 0.10 {
            "(within the 10% acceptance band)"
        } else {
            "(OUTSIDE the 10% acceptance band)"
        },
        1e3 * measured.reconfigure,
        1e3 * break_even_outage_s(measured.reconfigure, rho),
    ));

    // ---- Sim mirror: price capacity-loss schedules the real engine
    // never ran. ----
    let unit = twin_s(full);
    let mut t = Table::new([
        "outage (iters of model time)",
        "elastic goodput",
        "restart goodput",
        "reconfigure (iters)",
    ]);
    for outage_iters in [0usize, 4, 8, 16, 32] {
        let horizon = 64.0 * unit;
        let outage = outage_iters as f64 * unit;
        let windows = if outage_iters == 0 {
            vec![CapacityWindow { at_s: 0.0, gpus: 8 }]
        } else {
            vec![
                CapacityWindow { at_s: 0.0, gpus: 8 },
                CapacityWindow {
                    at_s: 16.0 * unit,
                    gpus: 7,
                },
                CapacityWindow {
                    at_s: 16.0 * unit + outage,
                    gpus: 8,
                },
            ]
        };
        let (e, r) = price_schedule(&twin_run, full, &windows, horizon, 0.5 * unit, 0.5 * unit);
        t.row([
            outage_iters.to_string(),
            format!("{:.1}%", 100.0 * e.goodput()),
            format!("{:.1}%", 100.0 * r.goodput()),
            format!("{:.1}", e.reconfigure / unit),
        ]);
    }
    out.push_str(&format!(
        "\nsim-priced capacity schedules (twin iterations, one mid-job loss of 1 GPU,\n\
         reconfigure/restore each 0.5 iterations):\n{}\n",
        t.render()
    ));

    // ---- Machine-readable record in the shared BENCH schema. ----
    let record = perf::bench_json(
        "elastic",
        vec![
            ("iters".into(), Json::Num(iters as f64)),
            ("ckpt_every".into(), Json::Num(ckpt_every as f64)),
            ("batch".into(), Json::Num(batch as f64)),
            ("seed".into(), Json::Num(seed as f64)),
            ("kill_iter".into(), Json::Num(kill_iter as f64)),
            ("return_iter".into(), Json::Num(return_iter as f64)),
            ("world".into(), Json::Num(spec.world() as f64)),
            ("degraded_world".into(), Json::Num(degraded.world() as f64)),
        ],
        vec![
            ("elastic_goodput".into(), elastic_goodput),
            ("restart_goodput".into(), restart_goodput),
            ("predicted_elastic_goodput".into(), predicted.goodput()),
            ("model_error".into(), err),
            ("relative_throughput".into(), rho),
            ("clean_iter_s".into(), clean_iter_s),
            ("degraded_iter_s".into(), degraded_iter_s),
            ("outage_s".into(), outage_s),
            ("elastic_wall_s".into(), elastic.wall_s()),
            ("restart_wall_s".into(), restart.wall_s()),
            (
                "reconfigurations".into(),
                report.reconfigurations.len() as f64,
            ),
            ("reconfigure_s".into(), measured.reconfigure),
        ],
    );
    out.push_str(&perf::write_bench_json("BENCH_elastic.json", &record));
    out.push('\n');

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
    let _ = std::fs::remove_dir_all(&root2);
    out
}

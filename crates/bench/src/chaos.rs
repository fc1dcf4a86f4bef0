//! E33: the seeded chaos harness — mixed transient + fatal faults through
//! real (2,2,2) training.
//!
//! Each seed draws a [`FaultPlan`] mixing *transient* faults (lossy,
//! delayed, duplicated, degraded wires — absorbed by the reliable
//! transport) with *fatal* ones (GPU/node deaths — paid for with a
//! checkpoint restore by the supervisor), then drives the full
//! self-healing stack and asserts the chaos invariants:
//!
//! 1. every collective terminates (the runs complete — no deadlock, no
//!    `CommError::Timeout` from a transient fault);
//! 2. the final model state is bit-identical to the fault-free baseline;
//! 3. transient-only plans cause **zero** supervisor restarts (the retry
//!    counters prove the faults really happened);
//! 4. mixed plans cause exactly one restart per fatal fault.
//!
//! The same lossy/degraded behaviour is mirrored onto the discrete-event
//! simulator links ([`megatron_net::LinkImpairment`]) and cross-checked
//! against the closed-form retransmit expectation, and the observed
//! transient:fatal mix is priced with the steady-state goodput ledger
//! ([`SteadyState`]) to show what the severity taxonomy is worth at
//! production scale.

use std::sync::Arc;
use std::time::Duration;

use megatron_cluster::ClusterSpec;
use megatron_collective::{RetryPolicy, TransientFaults};
use megatron_core::goodput::SteadyState;
use megatron_dist::{
    CheckpointStore, FaultProfile, HealthMonitor, KillSwitch, PtdpSpec, PtdpTrainer, RunControl,
    StragglerReport, Supervisor, SupervisorConfig, SupervisorReport, ThreadBackend,
    TransportConfig, WireKind, DEFAULT_SLOW_THRESHOLD,
};
use megatron_net::{LinkImpairment, Network};
use megatron_sim::json::Json;
use megatron_sim::{time_to_secs, DagSim};
use megatron_telemetry::{SinkConfig, TelemetrySink};
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault_plan::{FaultKind, FaultPlan, FaultRates};
use crate::table::Table;

/// Seeds the sweep runs unless `--seeds` says otherwise.
const DEFAULT_SEEDS: usize = 5;
/// First seed; seed `i` of the sweep is `SEED_BASE + i`.
const SEED_BASE: u64 = 0xe33;
/// Per-send probability a frame is dropped on the faulty wire.
const DROP_PROB: f64 = 0.02;
/// Per-send probability a frame is delivered twice.
const DUPLICATE_PROB: f64 = 0.01;
/// Per-send probability a frame is delayed.
const DELAY_PROB: f64 = 0.02;
/// Expected heartbeat period for the rank health monitor.
const HEARTBEAT_MS: u64 = 25;

/// `repro chaos` usage string.
pub const USAGE: &str = "repro chaos [--seeds N]
  seeded chaos sweep (5 seeds by default): transient+fatal fault plans through
  real (2,2,2) training, asserting bit-identical recovery and restarts == fatal faults
repro chaos --process [...]   E38: the same idea with real OS processes —
  seeded SIGKILLs + socket faults healed by the launcher supervisor
  (see `repro chaos --process --help` flags in proc_chaos)";

/// Parse `repro chaos` flags into the number of seeds to sweep.
pub fn parse_seeds(args: &[String]) -> Result<usize, String> {
    let mut seeds = DEFAULT_SEEDS;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seeds" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--seeds needs a value\n{USAGE}"))?;
                seeds = v
                    .parse()
                    .map_err(|_| format!("could not parse '{v}'\n{USAGE}"))?;
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    Ok(seeds)
}

/// CLI entry: parse flags, run the sweep. `--process` switches to E38,
/// the process-mode chaos run (real SIGKILLs through the launcher-side
/// supervisor — see [`crate::proc_chaos`]).
pub fn run(args: &[String]) -> Result<String, String> {
    if args.iter().any(|a| a == "--process") {
        return crate::proc_chaos::run(args);
    }
    parse_seeds(args).map(report)
}

/// E33 registry entry: the default sweep.
pub fn chaos() -> String {
    report(DEFAULT_SEEDS)
}

struct Scenario {
    seed: u64,
    kills: Vec<KillSwitch>,
    transient_events: usize,
    degrade_factor: f64,
}

/// Split one seeded plan into the fatal kills and the steady transient
/// wire profile, checking on the way that the plan archives losslessly
/// through its JSON form (chaos runs are reproduced from archived plans).
fn scenario(seed: u64, spec: &PtdpSpec, iters: usize, rates: &FaultRates) -> Scenario {
    let plan = FaultPlan::generate(seed, spec.world(), iters as f64, rates);
    let archived = Json::parse(&plan.to_json().to_string())
        .ok()
        .and_then(|j| FaultPlan::from_json(&j));
    assert_eq!(
        archived.as_ref(),
        Some(&plan),
        "fault plan must archive losslessly"
    );
    let mut kills = Vec::new();
    let mut degrades = Vec::new();
    for ev in &plan.events {
        match ev.kind {
            FaultKind::GpuDeath { .. } | FaultKind::NodeDeath { .. } => kills.push(KillSwitch {
                thread: spec.thread_key(ev.gpu % spec.world()),
                iteration: (ev.at_s as usize).clamp(1, iters - 1),
            }),
            FaultKind::LinkDegrade { factor, .. } => degrades.push(factor),
            _ => degrades.push(1.5),
        }
    }
    // Cap the degrade factor: it multiplies real wall-clock wire sleeps.
    let degrade_factor = if degrades.is_empty() {
        1.0
    } else {
        (degrades.iter().sum::<f64>() / degrades.len() as f64).min(3.0)
    };
    Scenario {
        seed,
        kills,
        transient_events: degrades.len(),
        degrade_factor,
    }
}

fn supervised_run(
    master: &GptModel,
    spec: PtdpSpec,
    data: &[(Vec<usize>, Vec<usize>)],
    transport: TransportConfig,
    kills: &[KillSwitch],
    heartbeat: Duration,
    tag: &str,
) -> (SupervisorReport, Arc<TelemetrySink>) {
    let sink = TelemetrySink::new(SinkConfig {
        world: spec.world(),
        ..SinkConfig::default()
    });
    let root = std::env::temp_dir().join(format!("megatron-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CheckpointStore::open(&root).expect("checkpoint store");
    let backend = ThreadBackend::new(master.clone(), spec, data)
        .with_transport(transport)
        .with_health(heartbeat);
    let sup = Supervisor::new(
        backend,
        store,
        SupervisorConfig {
            max_restarts: kills.len() + 2,
            checkpoint_every: 2,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(8),
            min_comm_timeout: Duration::from_secs(3),
            ..SupervisorConfig::default()
        },
    )
    .with_telemetry(Arc::clone(&sink));
    let report = sup.run(kills);
    let _ = std::fs::remove_dir_all(&root);
    (report, sink)
}

fn report(seeds: usize) -> String {
    let cfg = TinyGptConfig {
        vocab: 13,
        seq: 8,
        hidden: 32,
        heads: 4,
        layers: 2,
    };
    let iters = 12usize;
    let batch = 32usize;
    let spec = PtdpSpec::new(2, 2, 2);
    let mut rng = StdRng::seed_from_u64(0x5ee_de33);
    let master = GptModel::new(cfg, &mut rng);
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

    // Fault classes over the 12-"second" horizon: deaths are fatal, link
    // degradations are transient (they parameterize the faulty wire).
    let rates = FaultRates {
        gpu_death_mtbf_s: 8.0,
        link_degrade_mtbf_s: 5.0,
        ..FaultRates::none()
    };

    // Fault-free baseline: the bit-identity reference for every scenario.
    let baseline = PtdpTrainer::new(master.clone(), spec).train(&data);
    let heartbeat = Duration::from_millis(HEARTBEAT_MS);

    let mut out = String::new();
    out.push_str(&format!(
        "chaos sweep: {} seeds from {:#x}, (p,t,d)=(2,2,2), {iters} iterations, B={batch}\n\
         transient wire: drop {:.1}%, duplicate {:.1}%, delay {:.1}%, degrade from plan\n\n",
        seeds,
        SEED_BASE,
        100.0 * DROP_PROB,
        100.0 * DUPLICATE_PROB,
        100.0 * DELAY_PROB,
    ));

    let mut t = Table::new([
        "seed",
        "transient",
        "fatal",
        "injected",
        "retries",
        "retransmits",
        "dups dropped",
        "restarts (T-only)",
        "restarts (mixed)",
        "bit-identical",
    ]);
    let (mut total_transient, mut total_fatal) = (0usize, 0usize);
    let mut degrade_used = 1.0f64;
    for i in 0..seeds {
        let sc = scenario(SEED_BASE + i as u64, &spec, iters, &rates);
        total_transient += sc.transient_events;
        total_fatal += sc.kills.len();
        degrade_used = degrade_used.max(sc.degrade_factor);
        let transport = TransportConfig {
            wire: WireKind::Mailbox,
            retry: Some(RetryPolicy::default()),
            faults: Some(FaultProfile {
                seed: sc.seed,
                faults: TransientFaults {
                    drop_prob: DROP_PROB,
                    duplicate_prob: DUPLICATE_PROB,
                    delay_prob: DELAY_PROB,
                    delay: Duration::from_micros(200),
                    degrade_factor: sc.degrade_factor,
                    ..TransientFaults::default()
                },
            }),
        };

        // Invariant 3: a transient-only plan never restarts — yet the
        // counters prove the wire really was hostile.
        let (t_only, t_sink) = supervised_run(
            &master,
            spec,
            &data,
            transport,
            &[],
            heartbeat,
            &format!("t{i}"),
        );
        assert!(
            t_only.completed(),
            "seed {:#x}: transient-only run gave up: {:?}",
            sc.seed,
            t_only.gave_up
        );
        assert_eq!(
            t_only.restarts, 0,
            "seed {:#x}: transient faults must never cost a restart",
            sc.seed
        );
        assert_eq!(t_only.attempts, 1);
        assert_eq!(t_only.losses, baseline.losses);
        assert_eq!(t_only.final_params.as_ref(), Some(&baseline.final_params));
        let injected = t_sink.metrics.counter("transport_faults_injected").get();
        let retries = t_sink.metrics.counter("transport_retries").get();
        let retransmits = t_sink.metrics.counter("transport_retransmits").get();
        let dups = t_sink.metrics.counter("transport_duplicates_dropped").get();

        // Invariants 1, 2, 4 on the mixed plan: terminates, bit-identical,
        // and exactly one checkpoint restore per fatal fault.
        let (mixed, _) = supervised_run(
            &master,
            spec,
            &data,
            transport,
            &sc.kills,
            heartbeat,
            &format!("m{i}"),
        );
        assert!(
            mixed.completed(),
            "seed {:#x}: mixed run gave up: {:?}",
            sc.seed,
            mixed.gave_up
        );
        assert_eq!(
            mixed.restarts,
            sc.kills.len(),
            "seed {:#x}: restart count must equal the fatal-fault count",
            sc.seed
        );
        assert_eq!(mixed.losses, baseline.losses);
        assert_eq!(mixed.final_params.as_ref(), Some(&baseline.final_params));

        t.row([
            format!("{:#x}", sc.seed),
            sc.transient_events.to_string(),
            sc.kills.len().to_string(),
            injected.to_string(),
            retries.to_string(),
            retransmits.to_string(),
            dups.to_string(),
            t_only.restarts.to_string(),
            format!("{}/{}", mixed.restarts, sc.kills.len()),
            "yes".to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "every collective terminated, all final states bit-identical to the\n\
         fault-free baseline, and only fatal faults paid a checkpoint restore\n\n",
    );

    // Health + straggler classification at the supervisor's slow
    // threshold and the sweep's heartbeat period, on one instrumented
    // clean run.
    let monitor = HealthMonitor::new(&spec, heartbeat);
    let outcome = PtdpTrainer::new(master.clone(), spec).train_with(
        &data,
        RunControl {
            on_beat: Some({
                let monitor = Arc::clone(&monitor);
                Arc::new(move |r| monitor.beat(r))
            }),
            ..RunControl::default()
        },
    );
    assert!(outcome.error.is_none(), "clean run failed");
    let health = monitor.classify(DEFAULT_SLOW_THRESHOLD);
    let stragglers = StragglerReport::analyze(&outcome.log.step_times, DEFAULT_SLOW_THRESHOLD)
        .with_liveness(&health);
    out.push_str(&format!(
        "health monitor (period {} ms, threshold {:.2}x): {} ranks beat {} times each;\n\
         dead: {}, slow: {}, stragglers flagged: {}\n\n",
        HEARTBEAT_MS,
        DEFAULT_SLOW_THRESHOLD,
        spec.world(),
        monitor.beats(0),
        stragglers.dead.len(),
        health.slow().len(),
        stragglers.stragglers().len(),
    ));

    // Sim mirror: the same loss/degrade profile as a LinkImpairment on the
    // discrete-event links must inflate a cross-node ring all-reduce by
    // exactly factor/(1−p) — the closed-form retransmit expectation.
    let imp = LinkImpairment {
        loss_prob: DROP_PROB,
        degrade_factor: degrade_used,
    };
    let ranks: Vec<usize> = vec![0, 4, 8, 12];
    let bytes = 32 * 1024 * 1024u64;
    let sim_secs = |impairment: Option<LinkImpairment>| {
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, ClusterSpec::selene(16));
        if let Some(imp) = impairment {
            for &r in &ranks {
                net.impair(r, imp);
            }
        }
        net.ring_all_reduce(&mut sim, &ranks, bytes, &[], 0);
        time_to_secs(sim.run().unwrap().makespan)
    };
    let clean_s = sim_secs(None);
    let lossy_s = sim_secs(Some(imp));
    let measured_inflation = lossy_s / clean_s;
    assert!(
        (measured_inflation / imp.inflation() - 1.0).abs() < 0.01,
        "sim mirror drifted: measured {measured_inflation:.4} vs {:.4}",
        imp.inflation()
    );
    out.push_str(&format!(
        "sim mirror: impaired inter-node ring all-reduce took {measured_inflation:.3}x the clean\n\
         wire (closed-form expectation factor/(1-p) = {:.3}x) — transient faults stretch\n\
         communication time but add no restart term\n\n",
        imp.inflation()
    ));

    // Steady-state goodput cross-check: what the taxonomy is worth. With the
    // sweep's observed transient:fatal mix at a production-scale fatal
    // MTBF of 4 h (§5.10 1T-model checkpoint costs), restarting on
    // *every* fault would shrink the effective MTBF by
    // (fatal + transient) / fatal.
    let fatal_mtbf_s = 4.0 * 3600.0;
    let naive_mtbf_s =
        fatal_mtbf_s * total_fatal.max(1) as f64 / (total_fatal.max(1) + total_transient) as f64;
    let healing = SteadyState {
        mtbf_s: fatal_mtbf_s,
        save_s: 50.0,
        restart_s: 134.0,
    };
    let naive = SteadyState {
        mtbf_s: naive_mtbf_s,
        ..healing
    };
    out.push_str(&format!(
        "goodput cross-check ({} transient : {} fatal faults observed across the sweep,\n\
         1T-model costs, fatal MTBF 4 h, Young/Daly checkpoint intervals):\n\
         self-healing (restart only on fatal): {:.1}% goodput\n\
         naive (restart on every fault):       {:.1}% goodput at MTBF {:.0} s\n",
        total_transient,
        total_fatal,
        100.0 * healing.ledger(healing.young_daly_interval()).goodput(),
        100.0 * naive.ledger(naive.young_daly_interval()).goodput(),
        naive_mtbf_s,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_split_is_deterministic_and_mixed() {
        let spec = PtdpSpec::new(2, 2, 2);
        let rates = FaultRates {
            gpu_death_mtbf_s: 8.0,
            link_degrade_mtbf_s: 5.0,
            ..FaultRates::none()
        };
        let a = scenario(0xe33, &spec, 12, &rates);
        let b = scenario(0xe33, &spec, 12, &rates);
        assert_eq!(a.kills.len(), b.kills.len());
        assert_eq!(a.transient_events, b.transient_events);
        assert_eq!(a.degrade_factor, b.degrade_factor);
        for k in &a.kills {
            assert!((1..12).contains(&k.iteration));
        }
        assert!(a.degrade_factor >= 1.0 && a.degrade_factor <= 3.0);
        // At these rates, a small seed window exercises both fault classes.
        let any_fatal = (0..8).any(|i| !scenario(0xe33 + i, &spec, 12, &rates).kills.is_empty());
        let any_transient =
            (0..8).any(|i| scenario(0xe33 + i, &spec, 12, &rates).transient_events > 0);
        assert!(any_fatal, "no fatal faults in 8 seeds");
        assert!(any_transient, "no transient faults in 8 seeds");
    }

    #[test]
    fn cli_flags_parse_and_validate() {
        let to_args =
            |flags: &[&str]| -> Vec<String> { flags.iter().map(|s| s.to_string()).collect() };
        assert_eq!(parse_seeds(&to_args(&["--seeds", "2"])), Ok(2));
        assert_eq!(
            parse_seeds(&[]),
            Ok(DEFAULT_SEEDS),
            "no flags means defaults"
        );
        assert!(parse_seeds(&to_args(&["--seeds", "0"])).is_err());
        assert!(parse_seeds(&to_args(&["--seeds"])).is_err());
        assert!(parse_seeds(&to_args(&["--gremlins"])).is_err());
        // `--seeds` is the only flag: the wire probabilities, seed base,
        // threshold and heartbeat are constants.
        for removed in [
            "--drop",
            "--seed-base",
            "--straggler-threshold",
            "--heartbeat-ms",
        ] {
            let err = parse_seeds(&to_args(&[removed, "0.05"])).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag '{removed}'")),
                "{err}"
            );
        }
    }

    #[test]
    fn chaos_one_seed_holds_the_invariants() {
        // One full scenario end-to-end (the 5-seed sweep is `repro chaos`
        // and the CI chaos-smoke job). The invariant asserts live inside
        // report() — reaching the final summary means they all held.
        let out = report(1);
        assert!(out.contains("bit-identical"));
        assert!(out.contains("self-healing"));
    }
}

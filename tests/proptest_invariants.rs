//! Randomized property tests on the core invariants the paper's analysis
//! rests on. Each property draws its parameters from a seeded RNG over a
//! fixed number of cases, so failures are exactly reproducible.

use megatron_repro::core::cluster::ClusterSpec;
use megatron_repro::core::model::{memory, GptConfig};
use megatron_repro::core::net::{analytical, Network};
use megatron_repro::core::parallel::{analysis, RankMapper};
use megatron_repro::schedule::ScheduleKind;
use megatron_repro::sim::{time_to_secs, DagSim};
use megatron_repro::tensor::gemm;
use megatron_repro::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Run `body` for `CASES` deterministic cases, each with its own seeded RNG.
fn for_cases(name: &str, body: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + case);
        let _ = name; // case seed is the reproducer; name aids debugging
        body(&mut rng);
    }
}

/// Every generated schedule is structurally valid and deadlock-free, and
/// measures exactly the analytical bubble fraction.
#[test]
fn schedules_valid_and_bubble_exact() {
    for_cases("schedules_valid_and_bubble_exact", |rng| {
        let p = rng.gen_range(1usize..=8);
        let m = p * rng.gen_range(1usize..=4); // interleaving needs m % p == 0
        let v = rng.gen_range(1usize..=3);
        let tf = rng.gen_range(0.5f64..3.0);
        let tb = rng.gen_range(0.5f64..4.0);
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: v },
        ] {
            let sched = kind.build(p, m);
            let replay = sched.validate().expect("valid schedule");
            assert!(replay.bubble_fraction >= -1e-9);
            let timed = sched.replay(tf, tb).unwrap();
            let want = sched.analytical_bubble_fraction();
            assert!(
                (timed.bubble_fraction - want).abs() < 1e-6,
                "{kind:?} (p={p}, m={m}): {} vs {want}",
                timed.bubble_fraction
            );
        }
    });
}

/// 1F1B never stashes more than p microbatches; GPipe stashes exactly m on
/// the first device.
#[test]
fn activation_stash_bounds() {
    for_cases("activation_stash_bounds", |rng| {
        let p = rng.gen_range(1usize..=8);
        let m = p * rng.gen_range(1usize..=6);
        let f = ScheduleKind::OneFOneB.build(p, m).replay(1.0, 2.0).unwrap();
        assert!(f.peak_in_flight.iter().all(|&x| x <= p));
        let g = ScheduleKind::GPipe.build(p, m).replay(1.0, 2.0).unwrap();
        assert_eq!(g.peak_in_flight[0], m);
    });
}

/// Rank mapping is a bijection and groups partition the world.
#[test]
fn rank_mapping_bijective() {
    for_cases("rank_mapping_bijective", |rng| {
        let p = rng.gen_range(1u64..=6);
        let t = rng.gen_range(1u64..=6);
        let d = rng.gen_range(1u64..=6);
        let mapper = RankMapper::new(p, t, d);
        let mut seen = vec![false; mapper.n() as usize];
        for r in 0..mapper.n() {
            let c = mapper.coord(r);
            assert_eq!(mapper.rank(c), r);
            assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        // Tensor groups partition.
        let mut count = vec![0u32; mapper.n() as usize];
        for pi in 0..p {
            for di in 0..d {
                for r in mapper.tensor_group(pi, di) {
                    count[r] += 1;
                }
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    });
}

/// Parameter-count closed form (Eq. 2) tracks exact enumeration within 0.1%
/// for arbitrary architectures.
#[test]
fn eq2_tracks_exact() {
    for_cases("eq2_tracks_exact", |rng| {
        let l = rng.gen_range(1u64..=128);
        let heads = 1u64 << rng.gen_range(0u32..=5);
        let h = rng.gen_range(1u64..=40) * heads * 8; // h divisible by heads
        let cfg = GptConfig::paper("prop", l, h, heads);
        let exact = cfg.params_exact() as f64;
        let eq2 = cfg.params_eq2();
        assert!(
            (exact - eq2).abs() / exact < 1e-3,
            "l={l} h={h}: {exact} vs {eq2}"
        );
    });
}

/// FLOPs formula: Eq. 3 equals the appendix breakdown with recomputation,
/// for arbitrary shapes and batch sizes.
#[test]
fn eq3_equals_appendix() {
    for_cases("eq3_equals_appendix", |rng| {
        let l = rng.gen_range(1u64..=64);
        let h = rng.gen_range(1u64..=24) * 128;
        let batch = rng.gen_range(1u64..=4096);
        let cfg = GptConfig::paper("prop", l, h, 8);
        let a = cfg.flops_per_iteration_eq3(batch);
        let b = cfg.flops_per_iteration(batch, true);
        assert!((a - b).abs() / a < 1e-12);
    });
}

/// GEMM agrees with the naive triple loop over bf16-rounded operands on
/// arbitrary shapes: bit for bit on the FMA builds, and within
/// `2·k·2⁻²⁴·Σ|terms|` per element on the AMX build, which sums each
/// 32-term chunk as the matrix unit does.
#[test]
fn gemm_matches_naive() {
    for_cases("gemm_matches_naive", |rng| {
        let m = rng.gen_range(1usize..=12);
        let k = rng.gen_range(1usize..=12);
        let n = rng.gen_range(1usize..=12);
        let a = Matrix::randn(m, k, 1.0, rng);
        let b = Matrix::randn(k, n, 1.0, rng);
        let fast = gemm::matmul(&a, &b);
        let slow = gemm::matmul_naive(&a, &b);
        let round = gemm::bf16_round;
        for i in 0..m {
            for j in 0..n {
                let terms: f32 = (0..k)
                    .map(|p| (round(a.get(i, p)) * round(b.get(p, j))).abs())
                    .sum();
                let bound = 2.0 * k as f32 * 2f32.powi(-24) * terms;
                let err = (fast.get(i, j) - slow.get(i, j)).abs();
                assert!(
                    err <= bound,
                    "({i}, {j}) of {m}x{k}x{n}: {err:e} > {bound:e}"
                );
            }
        }
    });
}

/// Simulated ring all-reduce time matches the analytical model for
/// arbitrary intra-node groups and sizes.
#[test]
fn simulated_all_reduce_matches_analytical() {
    for_cases("simulated_all_reduce_matches_analytical", |rng| {
        let group_size = rng.gen_range(2usize..=8);
        let mib = rng.gen_range(1u64..=64);
        let cluster = ClusterSpec::selene(8);
        let ranks: Vec<usize> = (0..group_size).collect();
        let bytes = mib * 1024 * 1024;
        let mut sim = DagSim::new();
        let net = Network::new(&mut sim, cluster.clone());
        net.ring_all_reduce(&mut sim, &ranks, bytes, &[], 0);
        let got = time_to_secs(sim.run().unwrap().makespan);
        let want = analytical::ring_all_reduce_time(&cluster, &ranks, bytes as f64);
        assert!((got - want).abs() / want < 0.05, "{got} vs {want}");
    });
}

/// The ring volume factor 2(r−1)/r is monotone and bounded by 2.
#[test]
fn ring_volume_factor() {
    for_cases("ring_volume_factor", |rng| {
        let r = rng.gen_range(1u64..=4096);
        let v = analysis::ring_all_reduce_bytes(1.0, r);
        assert!((0.0..2.0).contains(&v));
        if r > 1 {
            assert!(v > analysis::ring_all_reduce_bytes(1.0, r - 1) - 1e-12);
        }
    });
}

/// Memory model invariants: sharding monotonically reduces per-GPU state;
/// recomputation never stashes more than full caching; the §3.5 optimal
/// checkpoint count minimizes the closed-form footprint.
#[test]
fn memory_model_invariants() {
    for_cases("memory_model_invariants", |rng| {
        let l_per_stage = rng.gen_range(1u64..=8);
        let p = 1u64 << rng.gen_range(0u32..=3);
        let t = 1u64 << rng.gen_range(0u32..=3);
        let b = rng.gen_range(1u64..=8);
        let heads = t.max(4);
        let cfg = GptConfig::paper("prop", l_per_stage * p, heads * 64, heads);
        // More pipeline or tensor parallelism → less state per GPU.
        let state = memory::model_state_bytes_per_gpu(&cfg, p, t);
        if p > 1 {
            assert!(state <= memory::model_state_bytes_per_gpu(&cfg, p / 2, t));
        }
        if t > 1 {
            assert!(state <= memory::model_state_bytes_per_gpu(&cfg, p, t / 2));
        }
        // Recompute stash ≤ full stash.
        assert!(
            memory::activation_bytes_recompute(&cfg, b)
                <= memory::activation_bytes_full(&cfg, b, t)
        );
        // Optimal checkpoint count minimizes the §3.5 expression.
        let (ai, am, ll) = (1.0e6, 17.0e6, l_per_stage as f64 * 4.0);
        let c_star = memory::optimal_checkpoints(ai, am, ll);
        let best = memory::checkpointed_stage_bytes(ai, am, ll, c_star);
        for c in 1..=(ll as u64) {
            assert!(memory::checkpointed_stage_bytes(ai, am, ll, c as f64) >= best - 1e-3);
        }
    });
}

/// Analytical §3 identities: interleaving divides the bubble by v; the
/// scatter/gather wire volume is exactly 1/t of the plain transfer.
#[test]
fn analysis_identities() {
    for_cases("analysis_identities", |rng| {
        use megatron_repro::core::parallel::analysis;
        let p = rng.gen_range(2u64..=64);
        let m = p * rng.gen_range(1u64..=8);
        let v = rng.gen_range(1u64..=4);
        let t = rng.gen_range(1u64..=8);
        let b = rng.gen_range(1u64..=8);
        let base = analysis::bubble_fraction(p, m, 1);
        let inter = analysis::bubble_fraction(p, m, v);
        assert!((inter - base / v as f64).abs() < 1e-12);
        let cfg = GptConfig::paper("prop", 2, 1024, 8);
        let plain = analysis::pipeline_p2p_bytes(&cfg, b);
        let sg = analysis::pipeline_p2p_bytes_scatter_gather(&cfg, b, t);
        assert!(sg >= plain / t && sg <= plain / t + t);
    });
}

/// Elastic invariant: a checkpoint generation round-trips across
/// every divisor (p, t, d) topology of worlds 4, 8, and 12 — restore a
/// source checkpoint into any target topology, re-save it there, restore
/// back at the source topology, and every thread's parameters and Adam
/// moments match the original bitwise. This is the property the elastic
/// supervisor's shrink/grow path rests on: resharding is pure slicing,
/// never arithmetic.
#[test]
fn canonical_restore_round_trips_across_topologies() {
    use megatron_repro::dist::{CheckpointStore, PtdpSpec, PtdpTrainer, RunControl};
    use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};
    use std::fs;
    use std::sync::Arc;

    let c = TinyGptConfig {
        vocab: 13,
        seq: 4,
        hidden: 8,
        heads: 4,
        layers: 2,
    };
    let mut rng = StdRng::seed_from_u64(0x5eed_e1a5);
    let master = GptModel::new(c, &mut rng);
    let batch = 12usize;
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..2)
        .map(|_| {
            let toks = (0..batch * c.seq)
                .map(|_| rng.gen_range(0..c.vocab))
                .collect();
            let tgts = (0..batch * c.seq)
                .map(|_| rng.gen_range(0..c.vocab))
                .collect();
            (toks, tgts)
        })
        .collect();

    // All (p, t, d) with p·t·d == world that the trainer accepts: t must
    // divide the head count, p must divide the layer count.
    let configs = |world: usize| -> Vec<(usize, usize, usize)> {
        let mut v = Vec::new();
        for p in 1..=world {
            if !world.is_multiple_of(p) || !c.layers.is_multiple_of(p) {
                continue;
            }
            for t in 1..=(world / p) {
                if !(world / p).is_multiple_of(t) || !c.heads.is_multiple_of(t) {
                    continue;
                }
                v.push((p, t, world / (p * t)));
            }
        }
        v
    };
    let targets: Vec<(usize, usize, usize)> =
        [4usize, 8, 12].iter().flat_map(|&w| configs(w)).collect();
    assert!(targets.len() >= 12, "divisor enumeration went wrong");

    for world in [4usize, 8, 12] {
        let source = PtdpSpec::new(2, 2, world / 4);
        let root =
            std::env::temp_dir().join(format!("mgprop-elastic-{world}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = CheckpointStore::open(&root).unwrap();
        let out = PtdpTrainer::new(master.clone(), source).train_with(
            &data,
            RunControl {
                checkpoint_every: Some(2),
                durable: Some(Arc::clone(&store)),
                ..RunControl::default()
            },
        );
        assert!(out.error.is_none(), "{:?}", out.error);
        let original = store.load_latest(&source, c).unwrap();
        assert!(!original.cross_topology);

        for &(p, t, d) in &targets {
            let target = PtdpSpec {
                pipeline: p,
                tensor: t,
                data: d,
                ..source
            };
            let mid = store
                .load_latest(&target, c)
                .unwrap_or_else(|e| panic!("restore into ({p},{t},{d}) from world {world}: {e:?}"));
            assert_eq!(mid.snapshot.next_iter, 2);
            assert_eq!(mid.snapshot.threads.len(), p * t * d);

            // Round trip: re-save at the target topology, restore back at
            // the source topology, compare bitwise.
            let root2 = root.join(format!("rt-{p}-{t}-{d}"));
            let store2 = CheckpointStore::open(&root2).unwrap();
            for (&key, state) in &mid.snapshot.threads {
                store2.write_shard(&target, key, 2, state).unwrap();
            }
            store2
                .commit_generation(&target, c, 2, &mid.snapshot.threads)
                .unwrap();
            let back = store2.load_latest(&source, c).unwrap();
            assert_eq!(back.snapshot.next_iter, 2);
            for (key, want) in &original.snapshot.threads {
                let got = &back.snapshot.threads[key];
                assert_eq!(got.params, want.params, "params {key:?} via ({p},{t},{d})");
                assert_eq!(got.adam.t, want.adam.t, "adam.t {key:?} via ({p},{t},{d})");
                assert_eq!(got.adam.m, want.adam.m, "adam.m {key:?} via ({p},{t},{d})");
                assert_eq!(got.adam.v, want.adam.v, "adam.v {key:?} via ({p},{t},{d})");
            }
        }
        let _ = fs::remove_dir_all(&root);
    }
}

/// A data-parallel run's optimizer steps only its `1/d` chunk of every
/// parameter, yet every shard it writes holds the full Adam moments —
/// gathered over the data group, equal on every replica — so a generation
/// restores into every other layout of worlds 4 and 8.
#[test]
fn data_parallel_checkpoint_restores_across_topologies() {
    use megatron_repro::dist::{CheckpointStore, PtdpSpec, PtdpTrainer, RunControl};
    use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};
    use std::fs;
    use std::sync::Arc;

    let c = TinyGptConfig {
        vocab: 13,
        seq: 4,
        hidden: 8,
        heads: 4,
        layers: 2,
    };
    let mut rng = StdRng::seed_from_u64(0x5eed_02e0);
    let master = GptModel::new(c, &mut rng);
    let batch = 4usize;
    let data: Vec<(Vec<usize>, Vec<usize>)> = (0..2)
        .map(|_| {
            let toks = (0..batch * c.seq)
                .map(|_| rng.gen_range(0..c.vocab))
                .collect();
            let tgts = (0..batch * c.seq)
                .map(|_| rng.gen_range(0..c.vocab))
                .collect();
            (toks, tgts)
        })
        .collect();

    let source = PtdpSpec::new(2, 1, 2);
    let root = std::env::temp_dir().join(format!("mgprop-dp-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = CheckpointStore::open(&root).unwrap();
    let out = PtdpTrainer::new(master, source).train_with(
        &data,
        RunControl {
            checkpoint_every: Some(2),
            durable: Some(Arc::clone(&store)),
            ..RunControl::default()
        },
    );
    assert!(out.error.is_none(), "{:?}", out.error);

    let same = store.load_latest(&source, c).unwrap();
    assert!(!same.cross_topology);
    for pi in 0..2 {
        let (r0, r1) = (
            &same.snapshot.threads[&(pi, 0, 0)],
            &same.snapshot.threads[&(pi, 1, 0)],
        );
        assert_eq!(r0.adam.m.len(), r0.params.len(), "stage {pi}: full m");
        assert_eq!(r0.adam.v.len(), r0.params.len(), "stage {pi}: full v");
        assert_eq!(r0.adam.m, r1.adam.m, "stage {pi}: replicas' m differ");
        assert_eq!(r0.adam.v, r1.adam.v, "stage {pi}: replicas' v differ");
        assert_eq!(r0.params, r1.params, "stage {pi}: replicas' params differ");
    }
    for (p, t, d) in [(1, 1, 4), (1, 2, 2), (4, 1, 1), (2, 2, 2), (1, 4, 2)] {
        let target = PtdpSpec {
            pipeline: p,
            tensor: t,
            data: d,
            ..source
        };
        let r = store
            .load_latest(&target, c)
            .unwrap_or_else(|e| panic!("restore into ({p},{t},{d}): {e}"));
        assert!(r.cross_topology && r.notes.is_empty(), "({p},{t},{d})");
        assert_eq!(r.snapshot.threads.len(), p * t * d);
        for st in r.snapshot.threads.values() {
            assert_eq!(st.adam.m.len(), st.params.len(), "({p},{t},{d})");
        }
    }
    let _ = fs::remove_dir_all(&root);
}

/// DAG simulation is work-conserving: makespan is at least the busiest
/// resource's total work and at most the sum of all task durations.
#[test]
fn dag_sim_bounds() {
    for_cases("dag_sim_bounds", |rng| {
        let n_tasks = rng.gen_range(1usize..=60);
        let n_res = rng.gen_range(1usize..=6);
        let mut sim = DagSim::new();
        let resources: Vec<_> = (0..n_res)
            .map(|i| sim.add_resource(format!("r{i}")))
            .collect();
        let mut tasks = Vec::new();
        let mut total: u64 = 0;
        for i in 0..n_tasks {
            let r = resources[rng.gen_range(0..n_res)];
            let dur = rng.gen_range(1u64..100);
            total += dur;
            // Depend on up to 2 random earlier tasks (always acyclic).
            let mut deps = Vec::new();
            for _ in 0..rng.gen_range(0..3usize) {
                if i > 0 {
                    deps.push(tasks[rng.gen_range(0..i)]);
                }
            }
            tasks.push(sim.add_task(r, dur, &deps, 0));
        }
        let result = sim.run().unwrap();
        let busiest = result.resources.iter().map(|r| r.busy).max().unwrap();
        assert!(result.makespan >= busiest);
        assert!(result.makespan <= total);
        assert_eq!(result.spans.len(), n_tasks);
    });
}

/// Histogram quantiles are monotone in `q`, `percentiles()` is ordered,
/// and every quantile lies within the recorded range's bucket bounds.
#[test]
fn histogram_quantiles_monotone() {
    use megatron_repro::telemetry::MetricsRegistry;
    for_cases("histogram_quantiles_monotone", |rng| {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x");
        let n = rng.gen_range(1usize..=200);
        let mut max = 0.0f64;
        for _ in 0..n {
            // Span the bucket range: microseconds to minutes.
            let v = 10f64.powf(rng.gen_range(-6.0f64..2.0));
            max = max.max(v);
            h.record(v);
        }
        let mut prev = 0.0f64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = h.quantile(q).expect("non-empty histogram");
            assert!(
                x >= prev - 1e-12,
                "quantile({q}) = {x} dropped below previous {prev}"
            );
            assert!(x.is_finite() && x >= 0.0);
            prev = x;
        }
        let (p50, p90, p99) = h.percentiles().expect("non-empty histogram");
        assert!(p50 <= p90 + 1e-12 && p90 <= p99 + 1e-12);
        // Log-bucket resolution: the top quantile can overshoot the true
        // max by at most one power-of-two bucket.
        assert!(h.quantile(1.0).unwrap() <= 2.0 * max + 1e-9);
    });
}

/// Process-mode `job.json` round-trip: a `JobSpec` survives
/// serialize→parse for every field, including extreme f32 learning
/// rates — NaNs with arbitrary payloads, subnormals, infinities, and
/// signed zeros. The wire form carries `lr` as raw bits (`lr_bits`)
/// precisely so these survive; the property compares bit patterns
/// (NaN != NaN would make a value comparison vacuous).
#[test]
fn job_spec_json_round_trips_extreme_floats() {
    use megatron_repro::dist::proc::JobSpec;
    use megatron_repro::dist::WireKind;
    use std::time::Duration;

    for_cases("job_spec_json_round_trips_extreme_floats", |rng| {
        let mut job = JobSpec::canonical(2, 2, 2);
        job.pipeline = rng.gen_range(1usize..=4);
        job.tensor = rng.gen_range(1usize..=4);
        job.data = rng.gen_range(1usize..=4);
        job.chunks = rng.gen_range(1usize..=3);
        job.microbatch = rng.gen_range(1usize..=4);
        job.schedule = match rng.gen_range(0u32..3) {
            0 => ScheduleKind::GPipe,
            1 => ScheduleKind::OneFOneB,
            _ => ScheduleKind::Interleaved {
                chunks: rng.gen_range(2usize..=4),
            },
        };
        let coin = |rng: &mut StdRng| rng.gen_range(0u32..2) == 1;
        job.recompute = coin(rng);
        job.trace = coin(rng);
        job.comm_timeout = Duration::from_millis(rng.gen_range(1u64..120_000));
        job.hb_period = Duration::from_millis(rng.gen_range(1u64..1_000));
        // Seeds must survive over the full u64 range: the values an f64
        // JSON number cannot hold (2^53 + 1 collapses to 2^53), the
        // extremes, and random bits.
        let seed = |rng: &mut StdRng| match rng.gen_range(0u32..4) {
            0 => (1u64 << 53) + 1,
            1 => u64::MAX,
            2 => 0,
            _ => rng.gen::<u64>(),
        };
        job.model_seed = seed(rng);
        job.data_seed = seed(rng);
        job.batch = rng.gen_range(1usize..=64);
        job.iters = rng.gen_range(1usize..=100);
        job.wire = match rng.gen_range(0u32..3) {
            0 => WireKind::Mailbox,
            1 => WireKind::Uds,
            _ => WireKind::Tcp,
        };
        job.checkpoint_every = rng.gen_range(0usize..=8);
        job.resume_from = rng.gen_range(0usize..=32);
        job.epoch = rng.gen_range(0usize..=8);

        // Adversarial f32 bit patterns: NaNs with random payloads (quiet
        // and signaling), subnormals, infinities, signed zeros, and
        // random normals.
        let lr_bits: u32 = match rng.gen_range(0u32..6) {
            // NaN: exponent all-ones, non-zero mantissa, random sign.
            0 => {
                let sign = (coin(rng) as u32) << 31;
                let payload = rng.gen_range(1u32..(1 << 23));
                sign | 0x7f80_0000 | payload
            }
            // Subnormal: exponent zero, non-zero mantissa.
            1 => {
                let sign = (coin(rng) as u32) << 31;
                sign | rng.gen_range(1u32..(1 << 23))
            }
            2 => f32::INFINITY.to_bits(),
            3 => f32::NEG_INFINITY.to_bits(),
            4 => (coin(rng) as u32) << 31, // ±0.0
            _ => rng.gen::<f32>().to_bits(),
        };
        job.lr = f32::from_bits(lr_bits);

        let text = job.to_json();
        let back = JobSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{text}"));

        assert_eq!(
            back.lr.to_bits(),
            lr_bits,
            "lr bit pattern mangled: {:#010x} -> {:#010x}",
            lr_bits,
            back.lr.to_bits()
        );
        // Bitwise lr equality established above; the full struct compare
        // would fail on NaN != NaN, so null out lr and compare the rest.
        let mut a = job;
        let mut b = back;
        a.lr = 0.0;
        b.lr = 0.0;
        assert_eq!(a, b, "non-lr field mangled by the JSON round-trip");
    });
}

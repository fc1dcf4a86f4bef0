//! Randomized and end-to-end invariants of the trace analyzer
//! (`megatron-telemetry`'s DAG / critical-path / attribution stack).
//!
//! The load-bearing property is *exact tiling*: the critical path's
//! segments partition the analysis window, so the attribution categories
//! sum to the measured wall time with zero residue — on arbitrary
//! synthetic traces (including adversarial ones whose p2p joins produce
//! edges no real run would) and on a real `(p=2, t=2, d=2)` trainer run.

use megatron_repro::telemetry::{
    build_dag, critical_path, what_if, ARank, ASpan, Attribution, PathCat, Phase, Window,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 96;

fn for_cases(body: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x05ee_da11 + case);
        body(&mut rng);
    }
}

/// A random busy/idle timeline for one rank: disjoint spans of every
/// phase, with gaps, drawn from the real trainer's name vocabulary so the
/// p2p/collective joiners engage.
fn random_spans(rng: &mut StdRng) -> Vec<ASpan> {
    const MENU: [(&str, Phase); 8] = [
        ("forward", Phase::Compute),
        ("backward", Phase::Compute),
        ("p2p-send-fwd", Phase::Comm),
        ("p2p-send-bwd", Phase::Comm),
        ("grad-allreduce", Phase::Comm),
        ("pipeline-wait-fwd", Phase::Bubble),
        ("adam-step", Phase::Optimizer),
        ("checkpoint-save", Phase::Checkpoint),
    ];
    let mut cursor = rng.gen_range(0u64..200);
    let mut spans = Vec::new();
    for _ in 0..rng.gen_range(1usize..=40) {
        if rng.gen_bool(0.4) {
            cursor += rng.gen_range(1u64..300); // idle gap
        }
        let (name, phase) = MENU[rng.gen_range(0..MENU.len())];
        let dur = rng.gen_range(1u64..=1000);
        spans.push(ASpan {
            name: name.to_string(),
            phase,
            start_ns: cursor,
            dur_ns: dur,
            epoch: Some(0),
            iteration: Some(0),
            microbatch: Some(rng.gen_range(0u64..3)),
            chunk: Some(0),
            bytes: None,
        });
        cursor += dur;
    }
    spans
}

/// Random world: either a pure pipeline `(p,1,1)` (exercises p2p joins)
/// or a pure data-parallel group `(1,d,1)` (exercises collective gating).
fn random_dag(rng: &mut StdRng) -> megatron_repro::telemetry::TraceDag {
    let pipeline = rng.gen_bool(0.5);
    let n = rng.gen_range(1usize..=4);
    let ranks: Vec<ARank> = (0..n)
        .map(|r| ARank {
            rank: r,
            key: if pipeline { (r, 0, 0) } else { (0, r, 0) },
            spans: random_spans(rng),
        })
        .collect();
    build_dag(ranks, if pipeline { n } else { 1 })
}

/// The critical path tiles the window exactly: segments are contiguous,
/// in order, and their category totals sum to the window length with zero
/// residue; span-attributed path time never exceeds the trace's total
/// span time; and the window is at least the busiest rank's busy time.
#[test]
fn path_tiles_window_and_attribution_has_no_residue() {
    for_cases(|rng| {
        let dag = random_dag(rng);
        let w = Window::default();
        let path = critical_path(&dag, w).expect("every rank has spans");
        assert!(
            !path.truncated,
            "walk truncated on a {}-rank trace",
            dag.ranks.len()
        );

        // Contiguous tiling, forward order.
        let mut cursor = path.window_start_ns;
        for seg in &path.segments {
            assert_eq!(seg.start_ns, cursor, "gap or overlap in path segments");
            assert!(seg.end_ns > seg.start_ns);
            cursor = seg.end_ns;
        }
        assert_eq!(
            cursor, path.window_end_ns,
            "path does not reach the window end"
        );

        // Categories sum to the measured window exactly.
        let attr = Attribution::from_path(&path);
        assert!(
            attr.residual_s().abs() < 1e-12,
            "attribution residue {:.3e} s",
            attr.residual_s()
        );

        // Span-attributed time on the path (everything except untraced
        // gaps) is bounded by the total recorded span time.
        let total_span_ns: u64 = dag
            .ranks
            .iter()
            .flat_map(|r| r.spans.iter().map(|s| s.dur_ns))
            .sum();
        let on_span_ns = path.length_ns() - path.total_ns(PathCat::Other);
        assert!(
            on_span_ns <= total_span_ns,
            "path claims {on_span_ns} ns of span time but the trace only recorded {total_span_ns} ns"
        );

        // The window covers the busiest rank (per-rank spans are disjoint).
        let busiest: u64 = dag
            .ranks
            .iter()
            .map(|r| r.spans.iter().map(|s| s.dur_ns).sum())
            .max()
            .unwrap_or(0);
        assert!(path.length_ns() >= busiest);

        // What-if bounds are bounds: never above measured (for zero-comm /
        // no-straggler), and perfect-overlap is the loosest of the three.
        let wi = what_if(&attr, &dag, w);
        assert!(wi.no_straggler_s <= attr.measured_s + 1e-12);
        assert!(wi.zero_comm_s <= wi.perfect_overlap_s + 1e-12);

        // Determinism: the walk has no hidden state.
        let again = critical_path(&dag, w).unwrap();
        assert_eq!(again.segments.len(), path.segments.len());
        for (a, b) in again.segments.iter().zip(&path.segments) {
            assert!(a.rank == b.rank && a.start_ns == b.start_ns && a.cat == b.cat);
        }
    });
}

/// Acceptance gate on the real trainer: a seeded `(p=2, t=2, d=2)` run's
/// per-iteration attribution categories sum to the measured iteration
/// time within 1%.
#[test]
fn real_ptdp_attribution_sums_within_one_percent() {
    use megatron_repro::dist::{PtdpSpec, PtdpTrainer, RunControl};
    use megatron_repro::telemetry::{
        chrome_trace_json, parse_chrome_trace, SinkConfig, TelemetrySink,
    };
    use megatron_repro::tensor::gpt::{GptModel, TinyGptConfig};

    let cfg = TinyGptConfig {
        vocab: 13,
        seq: 8,
        hidden: 32,
        heads: 4,
        layers: 2,
    };
    let (p, iters, batch) = (2usize, 2usize, 4usize);
    let spec = PtdpSpec::new(p, 2, 2);
    let sink = TelemetrySink::new(SinkConfig {
        world: spec.world(),
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(0xe36);
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
    let ctl = RunControl {
        telemetry: Some(std::sync::Arc::clone(&sink)),
        ..Default::default()
    };
    let out = PtdpTrainer::new(master, spec).train_with(&data, ctl);
    assert!(out.error.is_none(), "real run failed: {:?}", out.error);

    let trace = chrome_trace_json(&sink.hub, p);
    let dag = parse_chrome_trace(&trace, p).expect("real trace builds a DAG");
    assert_eq!(dag.ranks.len(), spec.world());
    for it in 0..iters {
        let path = critical_path(&dag, Window::iteration(it as u64)).expect("iteration has spans");
        assert!(!path.truncated);
        let a = Attribution::from_path(&path);
        assert!(
            a.residual_s().abs() <= 0.01 * a.measured_s.max(1e-12),
            "iter {it}: residue {:.3e} s of {:.3e} s measured",
            a.residual_s(),
            a.measured_s
        );
        // The path must actually stand on traced work, not just gaps.
        assert!(a.compute_s > 0.0, "iter {it}: no on-path compute");
    }
}

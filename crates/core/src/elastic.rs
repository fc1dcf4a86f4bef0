//! Layout choice under lost capacity, priced by the simulator.
//!
//! When a cluster loses GPUs mid-job, an elastic control plane must answer
//! two questions: *which* degraded (p, t, d) should the survivors run, and
//! *is* shrink-and-continue worth it against restart-at-full? Both are
//! answered with [`TrainingRun::simulate`] — the twin E36 checks against
//! the real trainer — and nothing else:
//!
//! - [`rank_layouts`] lists every valid layout fitting a capacity, cheapest
//!   first. `megatron_dist`'s elastic supervisor takes this list from its
//!   caller and runs the first layout its trainer accepts.
//! - [`price_schedule`] walks a capacity timeline and prices both policies
//!   as one [`Ledger`] each, over schedules the real engine never runs:
//!   arbitrary outage lengths, repeated losses, partial recoveries. The
//!   real elastic run (E30's elastic leg) measures one point of that space.
//!
//! A layout is priced on one node of exactly `p·t·d` GPUs of the template's
//! kind, so a smaller world never pays for GPUs it does not use.

use crate::cluster::{ClusterSpec, NodeSpec};

use crate::goodput::Ledger;
use crate::parallel::layouts;
use crate::{RunError, TrainingRun};

/// A `(p, t, d)` layout.
pub type Layout = (usize, usize, usize);

/// `template` re-laid-out at `(p, t, d)` on one node of exactly `p·t·d`
/// GPUs (the template's GPU and link specs); every other knob — model,
/// microbatch, global batch, chunks, options — is the template's.
fn at_layout(template: &TrainingRun, (p, t, d): Layout) -> TrainingRun {
    let mut run = template.clone();
    run.parallel.pipeline = p as u64;
    run.parallel.tensor = t as u64;
    run.parallel.data = d as u64;
    let node = NodeSpec {
        gpus_per_node: p * t * d,
        ..template.cluster.node.clone()
    };
    run.cluster = ClusterSpec::custom(template.cluster.gpu.clone(), node, 1);
    run
}

/// Simulated seconds per iteration of `template` at `layout`.
pub fn iteration_s(template: &TrainingRun, layout: Layout) -> Result<f64, RunError> {
    Ok(at_layout(template, layout).simulate()?.iteration_time)
}

/// Every layout with `p·t·d ≤ capacity` that
/// [`ParallelConfig::validate_for_model`](crate::parallel::ParallelConfig::validate_for_model)
/// accepts for `template`, cheapest simulated iteration first; ties break
/// toward the smallest `(p, t, d)`. Empty when nothing fits.
pub fn rank_layouts(template: &TrainingRun, capacity: usize) -> Vec<Layout> {
    let mut priced: Vec<(Layout, f64)> = (1..=capacity as u64)
        .flat_map(layouts)
        .map(|(p, t, d)| (p as usize, t as usize, d as usize))
        .filter_map(|layout| {
            let run = at_layout(template, layout);
            let n = run.cluster.total_gpus() as u64;
            let capacity = run.cluster.gpu.mem_capacity;
            let recompute = run.options.recompute;
            run.parallel
                .validate_for_model(&run.model, n, capacity, recompute)
                .ok()?;
            Some((layout, run.simulate().ok()?.iteration_time))
        })
        .collect();
    priced.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    priced.into_iter().map(|(layout, _)| layout).collect()
}

/// One step of a capacity timeline: from `at_s` on, `gpus` ranks are live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityWindow {
    /// Start of the window, seconds into the schedule.
    pub at_s: f64,
    /// Live GPUs from this instant until the next window (or the horizon).
    pub gpus: usize,
}

/// Price one capacity timeline under both recovery policies: the ledgers
/// of shrink-and-continue and of restart-at-full, in that order, each
/// summing to `horizon_s`. `windows` must be sorted by `at_s` and start at
/// the job launch; `full` is the job's launch layout of `template`;
/// `reconfigure_s` is the cost of one topology change (a cross-topology
/// checkpoint restore); `restore_s` is the restart policy's restore after
/// capacity returns.
///
/// The elastic policy runs the first layout [`rank_layouts`] lists for
/// each window's capacity (stalling only when none fits) at its simulated
/// throughput `ρ` relative to `full`: useful work `span·ρ`, degraded
/// `span·(1 − ρ)` — negative, and reported, when the twin prices the
/// degraded layout faster. Restart-at-full makes progress only in windows
/// that hold the full world and stalls through the rest. Both charge their
/// restores as dead time.
///
/// # Panics
/// If `full` does not simulate.
pub fn price_schedule(
    template: &TrainingRun,
    full: Layout,
    windows: &[CapacityWindow],
    horizon_s: f64,
    reconfigure_s: f64,
    restore_s: f64,
) -> (Ledger, Ledger) {
    assert!(horizon_s > 0.0, "horizon must be positive");
    assert!(!windows.is_empty(), "need at least one capacity window");
    let full_world = full.0 * full.1 * full.2;
    let full_s = iteration_s(template, full).expect("the launch layout simulates");
    let (mut elastic, mut restart) = (Ledger::default(), Ledger::default());
    let mut elastic_cfg = Some(full);
    let mut restart_live = true;

    for (i, w) in windows.iter().enumerate() {
        let end = windows.get(i + 1).map_or(horizon_s, |n| n.at_s);
        let window = (end.min(horizon_s) - w.at_s).max(0.0);
        if window == 0.0 {
            continue;
        }
        // Elastic: run the launch topology whenever it fits (the grow
        // target is always the operator's chosen configuration), the
        // cheapest degraded one otherwise; reconfigure when the target
        // differs from what is currently running.
        let full_fits = w.gpus >= full_world;
        let target = if full_fits {
            Some(full)
        } else {
            rank_layouts(template, w.gpus).first().copied()
        };
        let mut span = window;
        if target != elastic_cfg {
            if target.is_some() {
                let pay = reconfigure_s.min(span);
                elastic.reconfigure += pay;
                span -= pay;
            }
            elastic_cfg = target;
        }
        let rho = elastic_cfg.map_or(0.0, |cfg| {
            full_s / iteration_s(template, cfg).expect("a ranked layout simulates")
        });
        elastic.useful += span * rho;
        elastic.degraded += span * (1.0 - rho);
        // Restart-at-full: progress only with the full world live; pay one
        // restore on each return to capacity.
        let mut rspan = window;
        if full_fits && !restart_live {
            let pay = restore_s.min(rspan);
            restart.restore += pay;
            rspan -= pay;
        }
        if full_fits {
            restart.useful += rspan;
        } else {
            restart.degraded += rspan;
        }
        restart_live = full_fits;
    }
    (elastic, restart)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::GpuSpec;
    use crate::model::GptConfig;
    use crate::parallel::ParallelConfig;

    /// The twin of a supervised tiny job launched at (2, 2, 2): 2 layers,
    /// 4 heads, vocabulary 13, microbatch 1, no recomputation — the
    /// trainer's defaults.
    fn twin(hidden: u64, seq: u64, batch: u64) -> TrainingRun {
        let model = GptConfig {
            name: "twin".to_string(),
            num_layers: 2,
            hidden_size: hidden,
            num_heads: 4,
            seq_len: seq,
            vocab_size: 13,
        };
        let node = NodeSpec {
            gpus_per_node: 8,
            ..NodeSpec::dgx_a100()
        };
        let cluster = ClusterSpec::custom(GpuSpec::a100_80gb(), node, 1);
        let mut run = TrainingRun::ptdp(model, cluster, ParallelConfig::new(2, 2, 2, 1, batch));
        run.options.recompute = false;
        run
    }

    /// The jobs the supervisor runs on: E30's, a wider one (hidden 32,
    /// batch 64), and the recovery table's.
    fn jobs() -> [TrainingRun; 3] {
        [twin(32, 8, 64), twin(16, 8, 32), twin(8, 6, 4)]
    }

    #[test]
    fn the_cheapest_layout_per_capacity_is_pinned_and_deterministic() {
        for job in jobs() {
            let firsts: Vec<Layout> = [7, 3, 1].map(|c| rank_layouts(&job, c)[0]).to_vec();
            assert_eq!(
                firsts,
                [(1, 1, 4), (1, 1, 2), (1, 1, 1)],
                "h {}",
                job.model.hidden_size
            );
            assert_eq!(rank_layouts(&job, 7), rank_layouts(&job, 7));
        }
    }

    #[test]
    fn ranking_lists_only_valid_layouts_that_fit() {
        let job = &jobs()[0];
        let ranked = rank_layouts(job, 8);
        assert!(ranked.contains(&(2, 2, 2)) && ranked.contains(&(1, 4, 2)));
        for &(p, t, d) in &ranked {
            assert!(p * t * d <= 8);
            assert!(4 % t == 0 && 2 % p == 0 && 64 % d == 0, "({p}, {t}, {d})");
        }
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ranked.len(), "each layout listed once");
        assert!(rank_layouts(job, 0).is_empty(), "nothing fits zero GPUs");
    }

    #[test]
    fn a_layout_is_priced_on_exactly_its_own_gpus() {
        let run = at_layout(&jobs()[0], (1, 1, 4));
        assert_eq!(run.cluster.total_gpus(), 4);
        assert_eq!(run.cluster.n_nodes, 1);
        assert_eq!(run.parallel.n_gpus(), 4);
        assert_eq!(run.parallel.microbatch, 1);
    }

    #[test]
    fn pricing_no_outage_means_equal_policies() {
        let windows = [CapacityWindow { at_s: 0.0, gpus: 8 }];
        let (e, r) = price_schedule(&jobs()[0], (2, 2, 2), &windows, 100.0, 1.0, 1.0);
        assert_eq!(e.reconfigure, 0.0);
        assert!((e.goodput() - 1.0).abs() < 1e-12);
        assert!((r.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pricing_long_outage_favors_elastic() {
        // Lose a GPU for 60 of 100 seconds.
        let windows = [
            CapacityWindow { at_s: 0.0, gpus: 8 },
            CapacityWindow {
                at_s: 20.0,
                gpus: 7,
            },
            CapacityWindow {
                at_s: 80.0,
                gpus: 8,
            },
        ];
        let (e, r) = price_schedule(&jobs()[0], (2, 2, 2), &windows, 100.0, 1.0, 1.0);
        assert_eq!(e.reconfigure, 2.0, "shrink then grow, 1 s each");
        assert!(
            e.goodput() > r.goodput(),
            "elastic {} vs restart {}",
            e.goodput(),
            r.goodput()
        );
        // The restart policy idles through the whole outage.
        assert!(r.goodput() < 0.45);
        assert_eq!((r.degraded, r.restore), (60.0, 1.0));
        for l in [e, r] {
            assert!((l.wall_s() - 100.0).abs() < 1e-9, "{l:?}");
        }
    }

    #[test]
    fn pricing_total_loss_stalls_both_policies() {
        let windows = [
            CapacityWindow { at_s: 0.0, gpus: 8 },
            CapacityWindow {
                at_s: 50.0,
                gpus: 0,
            },
        ];
        let (e, r) = price_schedule(&jobs()[0], (2, 2, 2), &windows, 100.0, 1.0, 1.0);
        assert!((e.goodput() - 0.5).abs() < 1e-9);
        assert!((r.goodput() - 0.5).abs() < 1e-9);
        assert_eq!((e.degraded, r.degraded), (50.0, 50.0));
    }
}

//! Seeded fault plans: the schedules the recovery experiment (E30) draws
//! its rank kills and wire faults from, and E28 prices a week of.
//!
//! A [`FaultPlan`] is a reproducible (seeded) list of timed fault events —
//! GPU deaths, whole-node deaths, link degradations and flaps, compute
//! stragglers — drawn from independent exponential inter-arrival processes,
//! one per fault class.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What failed and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// One GPU stops making progress until repaired/replaced.
    GpuDeath {
        /// Repair/replacement window, seconds.
        repair_s: f64,
    },
    /// A whole node (all its GPUs and their links) goes down.
    NodeDeath {
        /// Repair/replacement window, seconds.
        repair_s: f64,
    },
    /// A GPU's inter-node link runs degraded (e.g. cable errors forcing
    /// retransmits) for a while.
    LinkDegrade {
        /// Work-time multiplier while degraded (≥ 1).
        factor: f64,
        /// Degradation window, seconds.
        duration_s: f64,
    },
    /// A link flaps: `count` short degraded bursts spaced `period_s` apart.
    LinkFlap {
        /// Work-time multiplier during each burst.
        factor: f64,
        /// Burst length, seconds.
        burst_s: f64,
        /// Gap between burst starts, seconds.
        period_s: f64,
        /// Number of bursts.
        count: u32,
    },
    /// A GPU computes slower than its peers (thermal throttling, ECC
    /// retirement, background daemon...).
    Straggler {
        /// Work-time multiplier while straggling (≥ 1).
        factor: f64,
        /// Straggle window, seconds.
        duration_s: f64,
    },
}

impl FaultKind {
    /// Short label for traces and tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GpuDeath { .. } => "gpu-death",
            FaultKind::NodeDeath { .. } => "node-death",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::LinkFlap { .. } => "link-flap",
            FaultKind::Straggler { .. } => "straggler",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Onset time, seconds since the start of the plan.
    pub at_s: f64,
    /// The victim GPU (for node faults: any GPU of the node).
    pub gpu: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Mean time between failures per fault class, over the *whole cluster*
/// (set a class to `f64::INFINITY` to disable it).
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// MTBF of single-GPU deaths, seconds.
    pub gpu_death_mtbf_s: f64,
    /// MTBF of whole-node deaths, seconds.
    pub node_death_mtbf_s: f64,
    /// MTBF of link-degradation episodes, seconds.
    pub link_degrade_mtbf_s: f64,
    /// MTBF of link-flap episodes, seconds.
    pub link_flap_mtbf_s: f64,
    /// MTBF of straggler episodes, seconds.
    pub straggler_mtbf_s: f64,
}

impl FaultRates {
    /// Nothing ever fails.
    pub fn none() -> Self {
        FaultRates {
            gpu_death_mtbf_s: f64::INFINITY,
            node_death_mtbf_s: f64::INFINITY,
            link_degrade_mtbf_s: f64::INFINITY,
            link_flap_mtbf_s: f64::INFINITY,
            straggler_mtbf_s: f64::INFINITY,
        }
    }
}

/// A reproducible schedule of fault events over a time horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Covered horizon, seconds.
    pub horizon_s: f64,
    /// Events sorted by onset time.
    pub events: Vec<FaultEvent>,
}

/// Draws one fault class's parameters from the plan RNG.
type KindDraw = fn(&mut StdRng) -> FaultKind;

impl FaultPlan {
    /// Draw a plan for `n_gpus` GPUs over `horizon_s` seconds. Each fault
    /// class arrives as a Poisson process with the given cluster-wide MTBF
    /// (exponential inter-arrival via inverse-CDF); victims are uniform
    /// over GPUs. The same seed always yields the same plan.
    pub fn generate(seed: u64, n_gpus: usize, horizon_s: f64, rates: &FaultRates) -> Self {
        assert!(n_gpus > 0, "need at least one GPU");
        assert!(horizon_s > 0.0, "horizon must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let classes: [(f64, KindDraw); 5] = [
            (rates.gpu_death_mtbf_s, |r| FaultKind::GpuDeath {
                repair_s: r.gen_range(300.0..1800.0),
            }),
            (rates.node_death_mtbf_s, |r| FaultKind::NodeDeath {
                repair_s: r.gen_range(600.0..3600.0),
            }),
            (rates.link_degrade_mtbf_s, |r| FaultKind::LinkDegrade {
                factor: r.gen_range(1.5..8.0),
                duration_s: r.gen_range(30.0..600.0),
            }),
            (rates.link_flap_mtbf_s, |r| FaultKind::LinkFlap {
                factor: r.gen_range(4.0..20.0),
                burst_s: r.gen_range(1.0..10.0),
                period_s: r.gen_range(20.0..120.0),
                count: r.gen_range(2u64..6) as u32,
            }),
            (rates.straggler_mtbf_s, |r| FaultKind::Straggler {
                factor: r.gen_range(1.1..2.5),
                duration_s: r.gen_range(60.0..1200.0),
            }),
        ];
        for (mtbf, draw) in classes {
            if !mtbf.is_finite() {
                continue;
            }
            assert!(mtbf > 0.0, "MTBF must be positive");
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival: −ln(1−U)·MTBF.
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() * mtbf;
                if t >= horizon_s {
                    break;
                }
                events.push(FaultEvent {
                    at_s: t,
                    gpu: rng.gen_range(0..n_gpus),
                    kind: draw(&mut rng),
                });
            }
        }
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        FaultPlan { horizon_s, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_rates() -> FaultRates {
        FaultRates {
            gpu_death_mtbf_s: 3600.0,
            node_death_mtbf_s: 4.0 * 3600.0,
            link_degrade_mtbf_s: 1800.0,
            link_flap_mtbf_s: 2.0 * 3600.0,
            straggler_mtbf_s: 900.0,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(42, 16, 24.0 * 3600.0, &demo_rates());
        let b = FaultPlan::generate(42, 16, 24.0 * 3600.0, &demo_rates());
        assert_eq!(a.events, b.events);
        assert!(!a.events.is_empty(), "a day at these rates produces faults");
    }

    #[test]
    fn different_seed_different_plan() {
        let a = FaultPlan::generate(1, 16, 24.0 * 3600.0, &demo_rates());
        let b = FaultPlan::generate(2, 16, 24.0 * 3600.0, &demo_rates());
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn events_sorted_and_inside_horizon() {
        let plan = FaultPlan::generate(7, 64, 12.0 * 3600.0, &demo_rates());
        for w in plan.events.windows(2) {
            assert!(w[0].at_s <= w[1].at_s);
        }
        for e in &plan.events {
            assert!(e.at_s >= 0.0 && e.at_s < plan.horizon_s);
            assert!(e.gpu < 64);
        }
    }

    #[test]
    fn arrival_count_tracks_mtbf() {
        // Over 200×MTBF, a Poisson process yields ~200 arrivals; seeded
        // draws must land in a generous window around that.
        let rates = FaultRates {
            straggler_mtbf_s: 100.0,
            ..FaultRates::none()
        };
        let plan = FaultPlan::generate(3, 8, 20_000.0, &rates);
        let n = plan.events.len();
        assert!((120..=280).contains(&n), "got {n} events, expected ~200");
    }

    #[test]
    fn halving_every_mtbf_roughly_doubles_arrivals() {
        // Rate scaling: arrival counts are Poisson in horizon/MTBF, so
        // doubling every rate should about double the event count.
        // Averaged over seeds to keep the tolerance honest.
        let base = demo_rates();
        let double = FaultRates {
            gpu_death_mtbf_s: base.gpu_death_mtbf_s / 2.0,
            node_death_mtbf_s: base.node_death_mtbf_s / 2.0,
            link_degrade_mtbf_s: base.link_degrade_mtbf_s / 2.0,
            link_flap_mtbf_s: base.link_flap_mtbf_s / 2.0,
            straggler_mtbf_s: base.straggler_mtbf_s / 2.0,
        };
        let horizon = 48.0 * 3600.0;
        let (mut n1, mut n2) = (0usize, 0usize);
        for seed in 0..8 {
            n1 += FaultPlan::generate(seed, 32, horizon, &base).events.len();
            n2 += FaultPlan::generate(seed + 100, 32, horizon, &double)
                .events
                .len();
        }
        let ratio = n2 as f64 / n1 as f64;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "doubling rates gave {n1} → {n2} events (ratio {ratio:.2})"
        );
    }

    #[test]
    fn disabled_classes_never_fire() {
        let plan = FaultPlan::generate(5, 16, 1e6, &FaultRates::none());
        assert!(plan.events.is_empty());
    }
}

//! MTBF-driven goodput modeling and optimal checkpoint intervals.
//!
//! The paper's §5.10 measures checkpoint save/load bandwidth on Selene;
//! this module composes that I/O model (`megatron_core::checkpoint`) with
//! a classic first-order failure model to answer the operational question
//! it raises: *how often should a run of this size checkpoint, and how
//! much goodput survives at a given failure rate?*
//!
//! Model: failures arrive with cluster-wide mean time between failures
//! `M`. Checkpoints cost `δ` (the §5.10 save time) every `τ` seconds of
//! useful work; each failure costs a restart `R` (the §5.10 load time
//! plus job-relaunch overhead) and, on average, `τ/2` of lost work since
//! the last checkpoint. The goodput fraction is
//!
//! ```text
//! f(τ) = τ/(τ+δ) · (1 − (τ/2 + R)/M)
//! ```
//!
//! and the near-optimal interval is Young/Daly's `τ* = √(2δM)`.

use megatron_core::{CheckpointIo, FilesystemSpec};
use megatron_model::zoo::Table1Row;

/// First-order checkpoint/failure model of one training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputModel {
    /// Cluster-wide mean time between failures, seconds.
    pub mtbf_s: f64,
    /// Checkpoint save cost, seconds (§5.10's `save_seconds`).
    pub save_s: f64,
    /// Restart cost per failure, seconds: checkpoint load plus job
    /// relaunch/requeue overhead.
    pub restart_s: f64,
}

impl GoodputModel {
    /// Build the model for one Table 1 row on a given filesystem: the
    /// checkpoint save/load times come from the §5.10 I/O model at the
    /// row's node count (Selene packs 8 GPUs per node).
    pub fn for_table1_row(
        row: &Table1Row,
        fs: &FilesystemSpec,
        mtbf_s: f64,
        relaunch_s: f64,
    ) -> Self {
        let nodes = (row.n_gpus as usize).div_ceil(8);
        let io = CheckpointIo::estimate(&row.config, fs, nodes);
        GoodputModel {
            mtbf_s,
            save_s: io.save_seconds,
            restart_s: io.load_seconds + relaunch_s,
        }
    }

    /// Goodput fraction at checkpoint interval `interval_s`, clamped to
    /// `[0, 1]` (a failure rate high enough to drive the expression
    /// negative means the job makes no progress at all).
    pub fn goodput(&self, interval_s: f64) -> f64 {
        assert!(interval_s > 0.0, "interval must be positive");
        let tau = interval_s;
        let useful = tau / (tau + self.save_s);
        let lost = (tau / 2.0 + self.restart_s) / self.mtbf_s;
        (useful * (1.0 - lost)).clamp(0.0, 1.0)
    }

    /// Fraction of wall-clock spent writing checkpoints at `interval_s`.
    pub fn checkpoint_overhead_fraction(&self, interval_s: f64) -> f64 {
        self.save_s / (interval_s + self.save_s)
    }

    /// Expected fraction of wall-clock lost to failures (half an interval
    /// of redone work plus the restart, per MTBF) at `interval_s`.
    pub fn lost_work_fraction(&self, interval_s: f64) -> f64 {
        ((interval_s / 2.0 + self.restart_s) / self.mtbf_s).min(1.0)
    }

    /// Young/Daly's near-optimal checkpoint interval `√(2δM)`, seconds.
    pub fn young_daly_interval(&self) -> f64 {
        (2.0 * self.save_s * self.mtbf_s).sqrt()
    }

    /// Brute-force the goodput-maximizing interval over a geometric grid
    /// of `steps` points spanning `[lo_s, hi_s]`. Ground truth for
    /// validating [`GoodputModel::young_daly_interval`].
    pub fn optimal_interval_brute_force(&self, lo_s: f64, hi_s: f64, steps: usize) -> f64 {
        assert!(lo_s > 0.0 && hi_s > lo_s && steps >= 2);
        let ratio = (hi_s / lo_s).powf(1.0 / (steps - 1) as f64);
        let mut best = (lo_s, self.goodput(lo_s));
        let mut tau = lo_s;
        for _ in 1..steps {
            tau *= ratio;
            let g = self.goodput(tau);
            if g > best.1 {
                best = (tau, g);
            }
        }
        best.0
    }
}

/// Elastic extension of [`GoodputModel`]: what shrink-and-continue is
/// worth against restart-at-full-topology when the cluster loses capacity
/// for a while.
///
/// An outage of `O` wall seconds forces a choice. The **elastic** policy
/// reconfigures onto the best degraded (p, t, d) and keeps training at
/// `relative_throughput` (ρ) of the full configuration, paying
/// `reconfigure_s` of cross-topology restore beyond what the base model
/// already charges per failure; the **restart** policy restores at the
/// full topology and therefore stalls for the whole outage. Both inherit
/// the base model's checkpoint-save and lost-work overheads. Elastic wins
/// exactly when the work recovered during the outage exceeds the extra
/// reconfiguration cost: `O·ρ > reconfigure_s`
/// ([`ElasticGoodputModel::break_even_outage_s`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticGoodputModel {
    /// The underlying checkpoint/failure model (saves, restores, MTBF).
    pub base: GoodputModel,
    /// Degraded-topology throughput relative to full, in (0, 1]. The
    /// simulator twin predicts it (`megatron_core::elastic::iteration_s`
    /// of the full layout over the degraded one, capped at 1); a real
    /// elastic run measures it as `clean_iter_s / degraded_iter_s`.
    pub relative_throughput: f64,
    /// Extra reconfiguration seconds the elastic policy pays beyond the
    /// base model's per-failure restart cost (typically the grow-side
    /// cross-topology restore; the shrink-side restore is the failure's
    /// ordinary restart, already priced by `base`).
    pub reconfigure_s: f64,
}

impl ElasticGoodputModel {
    /// Build the model from quantities a real elastic run measures: mean
    /// clean (full-topology) and degraded seconds per iteration, and the
    /// grow-side cross-topology restore cost. `ρ` becomes
    /// `clean_iter_s / degraded_iter_s`, clamped to (0, 1] so timer noise
    /// on a degraded segment that happens to run *faster* (tiny jobs)
    /// cannot produce an out-of-domain model.
    pub fn from_measured(
        base: GoodputModel,
        clean_iter_s: f64,
        degraded_iter_s: f64,
        reconfigure_s: f64,
    ) -> ElasticGoodputModel {
        assert!(
            clean_iter_s > 0.0 && degraded_iter_s > 0.0,
            "iteration times must be positive"
        );
        ElasticGoodputModel {
            base,
            relative_throughput: (clean_iter_s / degraded_iter_s).clamp(f64::MIN_POSITIVE, 1.0),
            reconfigure_s: reconfigure_s.max(0.0),
        }
    }

    /// Goodput of shrink-and-continue for a job of `useful_s` seconds of
    /// full-topology work, checkpointing every `interval_s`, through an
    /// outage of `outage_s` wall seconds. During the outage the job runs
    /// at `relative_throughput`, stretching wall-clock by
    /// `outage_s · (1 − ρ)` plus the reconfiguration cost.
    pub fn elastic_goodput(&self, interval_s: f64, useful_s: f64, outage_s: f64) -> f64 {
        assert!(useful_s > 0.0, "job must contain useful work");
        assert!(
            self.relative_throughput > 0.0 && self.relative_throughput <= 1.0,
            "relative throughput must be in (0, 1]"
        );
        let f = self.base.goodput(interval_s);
        if f <= 0.0 {
            return 0.0;
        }
        let (stretch, reconfigure) = if outage_s > 0.0 {
            (
                outage_s * (1.0 - self.relative_throughput),
                self.reconfigure_s,
            )
        } else {
            (0.0, 0.0)
        };
        (useful_s / (useful_s / f + stretch + reconfigure)).clamp(0.0, 1.0)
    }

    /// Goodput of the restart-at-full baseline over the same job: the
    /// outage is pure stall (its post-outage restore is the base model's
    /// ordinary per-failure restart cost).
    pub fn restart_goodput(&self, interval_s: f64, useful_s: f64, outage_s: f64) -> f64 {
        assert!(useful_s > 0.0, "job must contain useful work");
        let f = self.base.goodput(interval_s);
        if f <= 0.0 {
            return 0.0;
        }
        (useful_s / (useful_s / f + outage_s.max(0.0))).clamp(0.0, 1.0)
    }

    /// The outage duration above which elastic beats restart:
    /// `reconfigure_s / ρ`. Shorter outages are not worth the
    /// reconfiguration; longer ones are, strictly.
    pub fn break_even_outage_s(&self) -> f64 {
        self.reconfigure_s / self.relative_throughput
    }
}

/// Empirical recovery accounting from a real supervised run — the
/// measured counterpart of [`GoodputModel`]. The supervisor (in
/// `megatron-dist`) records wall time, per-incident lost work, restore
/// and backoff costs, and the checkpoint store records save windows; this
/// struct turns them into a measured goodput and a like-for-like analytic
/// prediction, so the Young/Daly model can be validated against the real
/// trainer instead of only asserted.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryMeasurement {
    /// Total wall-clock seconds of the supervised run (work + checkpoint
    /// saves + failure detection + restores + backoff).
    pub wall_s: f64,
    /// Iterations of the job (each executed at least once).
    pub n_iterations: usize,
    /// Mean seconds per iteration on the clean path (no failures, no
    /// checkpoint saves) — from the final successful attempt.
    pub clean_iter_s: f64,
    /// Failures the supervisor recovered from.
    pub n_failures: usize,
    /// Total completed iterations that had to be re-executed because they
    /// post-dated the restored checkpoints.
    pub lost_iterations: usize,
    /// Total seconds spent restoring durable checkpoints.
    pub restore_s_total: f64,
    /// Total seconds slept in restart backoff.
    pub backoff_s_total: f64,
    /// Total seconds of failure detection and relaunch overhead: failed
    /// attempts' wall time not accounted for by (re-)executed iterations
    /// or checkpoint saves.
    pub detect_s_total: f64,
    /// Total seconds of checkpoint save windows (first shard write →
    /// manifest commit), across all generations written.
    pub save_s_total: f64,
    /// Generations written.
    pub n_checkpoints: usize,
    /// Checkpoint interval in iterations.
    pub checkpoint_every_iters: usize,
}

impl RecoveryMeasurement {
    /// Fold a supervised run into its recovery accounting. The report
    /// carries the per-incident costs; the caller supplies what only it can
    /// measure: the clean per-iteration cost (from a fault-free reference),
    /// the checkpoint-save seconds over `n_checkpoints` generations, and
    /// the checkpoint interval. Detection/relaunch overhead per incident is
    /// the failed attempt's wall time not explained by the iterations it
    /// executed or the saves it made; the dying rank gets through about
    /// half its iteration, which belongs to the model's τ/2 lost-work term.
    pub fn from_report(
        report: &megatron_dist::SupervisorReport,
        clean_iter_s: f64,
        save_s_total: f64,
        n_checkpoints: usize,
        checkpoint_every_iters: usize,
    ) -> RecoveryMeasurement {
        let mean_save = save_s_total / n_checkpoints.max(1) as f64;
        let mut detect_s_total = 0.0;
        let mut start = 0usize;
        for inc in &report.incidents {
            let executed = inc.reached.saturating_sub(start);
            let saves = executed / checkpoint_every_iters.max(1);
            let explained = (executed as f64 + 0.5) * clean_iter_s + saves as f64 * mean_save;
            detect_s_total += (inc.attempt_wall_s - explained).max(0.0);
            start = inc.resumed_from;
        }
        RecoveryMeasurement {
            wall_s: report.wall_s,
            n_iterations: report.iterations,
            clean_iter_s,
            n_failures: report.incidents.len(),
            lost_iterations: report.incidents.iter().map(|i| i.lost_iterations).sum(),
            restore_s_total: report.incidents.iter().map(|i| i.restore_s).sum(),
            backoff_s_total: report.incidents.iter().map(|i| i.backoff_s).sum(),
            detect_s_total,
            save_s_total,
            n_checkpoints,
            checkpoint_every_iters,
        }
    }

    /// Measured goodput: the fraction of wall-clock that was irreducible
    /// useful work (`n_iterations` iterations at the clean per-iteration
    /// cost). Everything else — saves, re-executed work, detection,
    /// restores, backoff — is overhead.
    pub fn measured_goodput(&self) -> f64 {
        assert!(self.wall_s > 0.0, "wall time must be positive");
        (self.n_iterations as f64 * self.clean_iter_s / self.wall_s).clamp(0.0, 1.0)
    }

    /// An analytic model parameterized by the *measured* quantities: MTBF
    /// from the observed failure count over the useful-work span, save
    /// cost from the mean observed save window, restart cost from the
    /// mean observed restore + backoff (the relaunch analog).
    pub fn to_model(&self) -> GoodputModel {
        let useful_s = self.n_iterations as f64 * self.clean_iter_s;
        let mtbf_s = if self.n_failures == 0 {
            f64::INFINITY
        } else {
            useful_s / self.n_failures as f64
        };
        let save_s = if self.n_checkpoints == 0 {
            0.0
        } else {
            self.save_s_total / self.n_checkpoints as f64
        };
        let restart_s = if self.n_failures == 0 {
            0.0
        } else {
            (self.restore_s_total + self.backoff_s_total + self.detect_s_total)
                / self.n_failures as f64
        };
        GoodputModel {
            mtbf_s,
            save_s,
            restart_s,
        }
    }

    /// The measured run's checkpoint interval in seconds — `τ` for the
    /// analytic model.
    pub fn interval_s(&self) -> f64 {
        self.checkpoint_every_iters as f64 * self.clean_iter_s
    }

    /// [`GoodputModel::goodput`] of [`RecoveryMeasurement::to_model`] at
    /// the measured interval: what the Young/Daly model predicts for
    /// exactly the conditions the run experienced.
    pub fn predicted_goodput(&self) -> f64 {
        self.to_model().goodput(self.interval_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megatron_model::zoo;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn selene_1t(mtbf_s: f64) -> GoodputModel {
        let rows = zoo::table1();
        let row = rows.last().unwrap(); // the 1T row, 3072 GPUs / 384 nodes
        GoodputModel::for_table1_row(row, &FilesystemSpec::selene(), mtbf_s, 120.0)
    }

    #[test]
    fn trillion_row_inherits_section_5_10_costs() {
        let m = selene_1t(4.0 * 3600.0);
        // §5.10: ~50 s save at 273 GB/s, ~14 s load at 1 TB/s.
        assert!(m.save_s > 40.0 && m.save_s < 60.0, "save {}", m.save_s);
        assert!(
            m.restart_s > 120.0 + 10.0 && m.restart_s < 120.0 + 20.0,
            "restart {}",
            m.restart_s
        );
    }

    #[test]
    fn young_daly_matches_brute_force() {
        // Over a realistic MTBF range, √(2δM) must land within 15 % of the
        // brute-force optimum, and its goodput within 0.2 % — the optimum
        // is flat, which is exactly why the approximation is usable.
        for mtbf_h in [1.0, 4.0, 24.0, 24.0 * 7.0] {
            let m = selene_1t(mtbf_h * 3600.0);
            let yd = m.young_daly_interval();
            let bf = m.optimal_interval_brute_force(10.0, m.mtbf_s, 20_000);
            assert!(
                (yd - bf).abs() / bf < 0.15,
                "MTBF {mtbf_h} h: Young/Daly {yd:.0} s vs brute force {bf:.0} s"
            );
            assert!(
                m.goodput(yd) >= 0.998 * m.goodput(bf),
                "MTBF {mtbf_h} h: goodput {:.5} vs optimal {:.5}",
                m.goodput(yd),
                m.goodput(bf)
            );
        }
    }

    #[test]
    fn goodput_monotone_nonincreasing_as_mtbf_shrinks() {
        // Property: at the (per-MTBF) Young/Daly interval, goodput never
        // rises when failures get more frequent. Seeded random model
        // parameters in realistic ranges.
        let mut rng = StdRng::seed_from_u64(0x5eed_fa01);
        for case in 0..64 {
            let save_s = rng.gen_range(5.0..120.0);
            let restart_s = rng.gen_range(10.0..600.0);
            let mut prev = f64::INFINITY;
            // MTBF descending from 30 days to 30 minutes.
            let mut mtbf = 30.0 * 24.0 * 3600.0;
            while mtbf > 1800.0 {
                let m = GoodputModel {
                    mtbf_s: mtbf,
                    save_s,
                    restart_s,
                };
                let g = m.goodput(m.young_daly_interval());
                assert!(
                    g <= prev + 1e-12,
                    "case {case}: goodput rose from {prev} to {g} as MTBF fell to {mtbf}"
                );
                prev = g;
                mtbf /= rng.gen_range(1.2..3.0);
            }
        }
    }

    #[test]
    fn goodput_monotone_at_fixed_interval_too() {
        let mut rng = StdRng::seed_from_u64(0x5eed_fa02);
        for _ in 0..64 {
            let m0 = GoodputModel {
                mtbf_s: 0.0, // overwritten below
                save_s: rng.gen_range(5.0..120.0),
                restart_s: rng.gen_range(10.0..600.0),
            };
            let tau = rng.gen_range(300.0..7200.0);
            let mut prev = f64::INFINITY;
            for mtbf_h in [720.0, 168.0, 24.0, 4.0, 1.0, 0.5] {
                let g = GoodputModel {
                    mtbf_s: mtbf_h * 3600.0,
                    ..m0
                }
                .goodput(tau);
                assert!(g <= prev + 1e-12);
                prev = g;
            }
        }
    }

    #[test]
    fn fractions_decompose_goodput() {
        let m = selene_1t(24.0 * 3600.0);
        let tau = m.young_daly_interval();
        let f = m.goodput(tau);
        let recomposed =
            (1.0 - m.checkpoint_overhead_fraction(tau)) * (1.0 - m.lost_work_fraction(tau));
        assert!((f - recomposed).abs() < 1e-12);
    }

    #[test]
    fn infinite_reliability_recovers_pure_overhead() {
        let m = GoodputModel {
            mtbf_s: f64::INFINITY,
            save_s: 50.0,
            restart_s: 100.0,
        };
        // Only the checkpoint overhead remains; longer intervals always win.
        assert!((m.goodput(1000.0) - 1000.0 / 1050.0).abs() < 1e-12);
        assert!(m.goodput(10_000.0) > m.goodput(1000.0));
    }

    #[test]
    fn hopeless_failure_rate_clamps_to_zero() {
        let m = GoodputModel {
            mtbf_s: 60.0,
            save_s: 50.0,
            restart_s: 500.0,
        };
        assert_eq!(m.goodput(600.0), 0.0);
    }

    fn elastic_model() -> ElasticGoodputModel {
        ElasticGoodputModel {
            base: GoodputModel {
                mtbf_s: 3600.0,
                save_s: 10.0,
                restart_s: 60.0,
            },
            relative_throughput: 0.5,
            reconfigure_s: 30.0,
        }
    }

    #[test]
    fn elastic_equals_restart_without_an_outage() {
        let m = elastic_model();
        let (tau, job) = (600.0, 10_000.0);
        let e = m.elastic_goodput(tau, job, 0.0);
        let r = m.restart_goodput(tau, job, 0.0);
        assert!((e - r).abs() < 1e-12, "no outage, no difference");
        assert!(
            (e - m.base.goodput(tau)).abs() < 1e-12,
            "degenerates to base"
        );
    }

    #[test]
    fn elastic_beats_restart_past_break_even_exactly() {
        let m = elastic_model();
        let (tau, job) = (600.0, 10_000.0);
        let be = m.break_even_outage_s();
        assert!((be - 60.0).abs() < 1e-12, "30 s reconfigure at rho 0.5");
        let eps = 1e-6;
        assert!(m.elastic_goodput(tau, job, be - 1.0) < m.restart_goodput(tau, job, be - 1.0));
        assert!(
            m.elastic_goodput(tau, job, be + 1.0) > m.restart_goodput(tau, job, be + 1.0) + eps,
            "strictly better past break-even"
        );
    }

    #[test]
    fn both_policies_degrade_monotonically_with_outage_length() {
        let m = elastic_model();
        let (tau, job) = (600.0, 10_000.0);
        let mut prev_e = f64::INFINITY;
        let mut prev_r = f64::INFINITY;
        for outage in [0.0, 100.0, 500.0, 2_000.0, 10_000.0] {
            let e = m.elastic_goodput(tau, job, outage);
            let r = m.restart_goodput(tau, job, outage);
            assert!(e <= prev_e + 1e-12 && r <= prev_r + 1e-12);
            prev_e = e;
            prev_r = r;
        }
        // Elastic loses less per outage second: at rho = 0.5 the ratio of
        // the policies approaches 1/(1 − rho) = 2 as the outage dominates.
        let long = 100_000.0;
        assert!(m.elastic_goodput(tau, job, long) > 1.5 * m.restart_goodput(tau, job, long));
    }

    #[test]
    fn perfect_degraded_throughput_makes_outages_free() {
        let m = ElasticGoodputModel {
            relative_throughput: 1.0,
            reconfigure_s: 0.0,
            ..elastic_model()
        };
        let (tau, job) = (600.0, 10_000.0);
        assert!(
            (m.elastic_goodput(tau, job, 5_000.0) - m.base.goodput(tau)).abs() < 1e-12,
            "rho = 1 and free reconfiguration: the outage costs nothing"
        );
    }

    #[test]
    fn measured_elastic_model_clamps_rho_into_domain() {
        let base = elastic_model().base;
        let m = ElasticGoodputModel::from_measured(base, 1.0, 2.0, 30.0);
        assert!((m.relative_throughput - 0.5).abs() < 1e-12);
        assert!((m.break_even_outage_s() - 60.0).abs() < 1e-12);
        // A degraded segment that timed *faster* than clean (noise on a
        // tiny job) still yields a legal model.
        let noisy = ElasticGoodputModel::from_measured(base, 2.0, 1.0, -5.0);
        assert_eq!(noisy.relative_throughput, 1.0);
        assert_eq!(noisy.reconfigure_s, 0.0);
        noisy.elastic_goodput(600.0, 10_000.0, 100.0); // in-domain: no panic
    }

    #[test]
    fn measurement_with_no_failures_reduces_to_save_overhead() {
        let meas = RecoveryMeasurement {
            wall_s: 110.0,
            n_iterations: 100,
            clean_iter_s: 1.0,
            n_failures: 0,
            lost_iterations: 0,
            restore_s_total: 0.0,
            backoff_s_total: 0.0,
            detect_s_total: 0.0,
            save_s_total: 10.0,
            n_checkpoints: 10,
            checkpoint_every_iters: 10,
        };
        // 100 s useful out of 110 s wall; the model sees τ=10 s, δ=1 s,
        // M=∞ — exactly the same ratio.
        assert!((meas.measured_goodput() - 100.0 / 110.0).abs() < 1e-12);
        assert!((meas.predicted_goodput() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_model_tracks_measured_goodput_under_failures() {
        // A synthetic run whose books balance exactly: wall = useful +
        // saves + re-executed work + restores + backoff. Measured and
        // predicted goodput then agree closely (the model only idealizes
        // lost work per failure as τ/2 vs the actual average).
        let meas = RecoveryMeasurement {
            wall_s: 100.0 * 1.0 + 20.0 * 0.5 + 4.0 + 2.0 * 1.5 + 2.0 * 0.5,
            n_iterations: 100,
            clean_iter_s: 1.0,
            n_failures: 2,
            lost_iterations: 4, // 2 per failure = τ/2 at τ = 4 iters
            restore_s_total: 2.0,
            backoff_s_total: 1.0,
            detect_s_total: 1.0,
            save_s_total: 10.0,
            n_checkpoints: 20,
            checkpoint_every_iters: 4,
        };
        let measured = meas.measured_goodput();
        let predicted = meas.predicted_goodput();
        assert!(
            (measured - predicted).abs() / measured < 0.10,
            "measured {measured:.4} vs predicted {predicted:.4}"
        );
    }
}

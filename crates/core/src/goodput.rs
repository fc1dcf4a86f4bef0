//! One goodput ledger: where a training job's wall time went, term by term.
//!
//! The paper's §5.10 prices checkpoint I/O as one term of a job's time
//! budget; MegaScale splits recovery into detection, diagnosis and
//! restart. A [`Ledger`] holds seconds per named term — useful work,
//! checkpoint saves, lost (re-executed) work, failure detection, restore,
//! backoff, the extra wall of running degraded, reconfiguration, and an
//! explicit `unexplained` residue — and goodput is useful work over the
//! sum of every term. Nothing is clamped: a term that comes out negative,
//! or a goodput above 1, is a finding to report.
//!
//! Every producer fills the same terms, so a prediction and a measurement
//! compare row by row:
//!
//! - [`SteadyState::ledger`]: the first-order Young/Daly model of a job
//!   that runs forever, failures arriving at rate `1/M`, per second of
//!   wall (E28, E29);
//! - [`Ledger::finite_run`]: a run of known length with a failure count and
//!   per-failure costs, plus [`Ledger::outage`] for a stretch run degraded
//!   or stalled (E30);
//! - [`crate::elastic::price_schedule`]: one ledger per recovery policy over
//!   a capacity timeline priced by the simulator twin;
//! - the measured side, folded from a supervised run's report by
//!   `megatron-bench` (the one crate that sees both the trainer and this
//!   one).

use std::ops::Add;

use crate::model::zoo::Table1Row;

use crate::{CheckpointIo, FilesystemSpec};

/// Seconds per named term of a job's wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Work that advanced the model, at the clean full-topology rate.
    pub useful: f64,
    /// Checkpoint save stalls.
    pub save: f64,
    /// Work done and then thrown away by a failure (re-executed later).
    pub lost: f64,
    /// From a failure to the supervisor acting on it: detection, teardown
    /// and relaunch.
    pub detect: f64,
    /// Loading the checkpoint a restart resumes from.
    pub restore: f64,
    /// Sleeping before a restart.
    pub backoff: f64,
    /// Extra wall of running below full throughput (or stalling, which is
    /// running at none) over the same work at full speed.
    pub degraded: f64,
    /// Cross-topology restores of topology changes a failure did not pay.
    pub reconfigure: f64,
    /// Wall time no other term accounts for; negative when the other terms
    /// overstate the run.
    pub unexplained: f64,
}

impl Ledger {
    /// Every term with its name, in a fixed order.
    pub fn terms(&self) -> [(&'static str, f64); 9] {
        [
            ("useful", self.useful),
            ("save", self.save),
            ("lost", self.lost),
            ("detect", self.detect),
            ("restore", self.restore),
            ("backoff", self.backoff),
            ("degraded", self.degraded),
            ("reconfigure", self.reconfigure),
            ("unexplained", self.unexplained),
        ]
    }

    /// The wall time the ledger accounts for: the sum of every term.
    pub fn wall_s(&self) -> f64 {
        self.terms().iter().map(|(_, s)| s).sum()
    }

    /// Useful work over wall time.
    pub fn goodput(&self) -> f64 {
        self.useful / self.wall_s()
    }

    /// Every term multiplied by `k`.
    pub fn scaled(self, k: f64) -> Ledger {
        Ledger {
            useful: self.useful * k,
            save: self.save * k,
            lost: self.lost * k,
            detect: self.detect * k,
            restore: self.restore * k,
            backoff: self.backoff * k,
            degraded: self.degraded * k,
            reconfigure: self.reconfigure * k,
            unexplained: self.unexplained * k,
        }
    }

    /// A finite run of `useful_s` seconds of clean work that saves a
    /// checkpoint (`save_s` each) every `interval_s` of it and meets
    /// `failures` failures. Each failure costs its `per_failure` terms plus
    /// half an interval of lost work on average.
    pub fn finite_run(
        useful_s: f64,
        interval_s: f64,
        save_s: f64,
        failures: usize,
        per_failure: &Ledger,
    ) -> Ledger {
        assert!(interval_s > 0.0, "interval must be positive");
        let failed = Ledger {
            lost: interval_s / 2.0,
            ..*per_failure
        };
        Ledger {
            useful: useful_s,
            save: useful_s / interval_s * save_s,
            ..Ledger::default()
        } + failed.scaled(failures as f64)
    }

    /// What an outage of `outage_s` wall seconds adds to a run: it works
    /// through the outage at `rho` of full throughput after a topology
    /// change of `reconfigure_s`. Restart-at-full is `rho = 0` with no
    /// reconfiguration: the whole outage is a stall.
    pub fn outage(outage_s: f64, rho: f64, reconfigure_s: f64) -> Ledger {
        Ledger {
            degraded: outage_s * (1.0 - rho),
            reconfigure: reconfigure_s,
            ..Ledger::default()
        }
    }
}

impl Add for Ledger {
    type Output = Ledger;

    fn add(self, o: Ledger) -> Ledger {
        Ledger {
            useful: self.useful + o.useful,
            save: self.save + o.save,
            lost: self.lost + o.lost,
            detect: self.detect + o.detect,
            restore: self.restore + o.restore,
            backoff: self.backoff + o.backoff,
            degraded: self.degraded + o.degraded,
            reconfigure: self.reconfigure + o.reconfigure,
            unexplained: self.unexplained + o.unexplained,
        }
    }
}

/// The outage length above which working through it at `rho` beats
/// stalling for it: `reconfigure_s / rho` (where [`Ledger::outage`]'s two
/// policies cost the same wall).
pub fn break_even_outage_s(reconfigure_s: f64, rho: f64) -> f64 {
    reconfigure_s / rho
}

/// The steady-state failure model of a job that runs forever: failures
/// arrive every `M` seconds of wall, a checkpoint costs `δ` every `τ`
/// seconds of useful work, and each failure costs a restart `R` plus, on
/// average, `τ/2` of lost work. Its goodput is
///
/// ```text
/// f(τ) = τ/(τ+δ) · (1 − (τ/2 + R)/M)
/// ```
///
/// and Young/Daly's `τ* = √(2δM)` is the near-optimal interval. Once
/// `(τ/2 + R) > M` the model has left its domain: useful work goes
/// negative, and the ledger says so.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Cluster-wide mean time between failures, seconds.
    pub mtbf_s: f64,
    /// Checkpoint save cost, seconds (§5.10's `save_seconds`).
    pub save_s: f64,
    /// Restart cost per failure, seconds: checkpoint load plus job
    /// relaunch.
    pub restart_s: f64,
}

impl SteadyState {
    /// The model for one Table 1 row on a given filesystem: save and load
    /// times from the §5.10 I/O model at the row's node count (8 GPUs per
    /// node), plus `relaunch_s` per restart.
    pub fn for_table1_row(
        row: &Table1Row,
        fs: &FilesystemSpec,
        mtbf_s: f64,
        relaunch_s: f64,
    ) -> Self {
        let nodes = (row.n_gpus as usize).div_ceil(8);
        let io = CheckpointIo::estimate(&row.config, fs, nodes);
        SteadyState {
            mtbf_s,
            save_s: io.save_seconds,
            restart_s: io.load_seconds + relaunch_s,
        }
    }

    /// One second of wall at checkpoint interval `interval_s`, term by
    /// term: failures take `(τ/2 + R)/M` of it as lost work and restore,
    /// the rest splits into useful work and saves as `τ : δ`.
    pub fn ledger(&self, interval_s: f64) -> Ledger {
        assert!(interval_s > 0.0, "interval must be positive");
        let tau = interval_s;
        let lost = tau / 2.0 / self.mtbf_s;
        let restore = self.restart_s / self.mtbf_s;
        let running = 1.0 - (tau / 2.0 + self.restart_s) / self.mtbf_s;
        Ledger {
            useful: tau / (tau + self.save_s) * running,
            save: self.save_s / (tau + self.save_s) * running,
            lost,
            restore,
            ..Ledger::default()
        }
    }

    /// Young/Daly's near-optimal checkpoint interval `√(2δM)`, seconds.
    pub fn young_daly_interval(&self) -> f64 {
        (2.0 * self.save_s * self.mtbf_s).sqrt()
    }

    /// The goodput-maximizing interval over a geometric grid of `steps`
    /// points spanning `[lo_s, hi_s]`: ground truth for
    /// [`SteadyState::young_daly_interval`].
    pub fn optimal_interval_brute_force(&self, lo_s: f64, hi_s: f64, steps: usize) -> f64 {
        assert!(lo_s > 0.0 && hi_s > lo_s && steps >= 2);
        let ratio = (hi_s / lo_s).powf(1.0 / (steps - 1) as f64);
        let goodput = |tau| self.ledger(tau).goodput();
        let mut best = (lo_s, goodput(lo_s));
        let mut tau = lo_s;
        for _ in 1..steps {
            tau *= ratio;
            let g = goodput(tau);
            if g > best.1 {
                best = (tau, g);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::zoo;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn selene_1t(mtbf_s: f64) -> SteadyState {
        let rows = zoo::table1();
        let row = rows.last().unwrap(); // the 1T row, 3072 GPUs / 384 nodes
        SteadyState::for_table1_row(row, &FilesystemSpec::selene(), mtbf_s, 120.0)
    }

    fn goodput(m: &SteadyState, tau: f64) -> f64 {
        m.ledger(tau).goodput()
    }

    /// §5.10 pinned by hand: Megatron serializes fp16 weights + fp32
    /// master weights + two fp32 Adam moments = 14 bytes/param; Selene
    /// loads at the 1 TB/s filesystem peak (384 nodes × 43 GB/s of
    /// storage HCAs far exceeds it) and saves at 40 % of the 683 GB/s
    /// peak = 273.2 GB/s.
    #[test]
    fn section_5_10_hand_computed_values() {
        let cfg = zoo::gpt_1t();
        let fs = FilesystemSpec::selene();
        let io = CheckpointIo::estimate(&cfg, &fs, 384);
        let params = cfg.params_exact();
        assert_eq!(io.bytes, params * 14, "2 + 4 + 4 + 4 bytes per param");
        // The paper's headline: a 13.8 TB checkpoint for the 1T model.
        assert!(
            (io.bytes as f64 / 1e12 - 13.8).abs() < 0.6,
            "got {:.2} TB",
            io.bytes as f64 / 1e12
        );
        assert!((io.read_bandwidth - 1e12).abs() < f64::EPSILON);
        assert!((io.write_bandwidth - 273.2e9).abs() < 1e6);
        assert!((io.load_seconds - io.bytes as f64 / 1e12).abs() < 1e-9);
        assert!((io.save_seconds - io.bytes as f64 / 273.2e9).abs() < 1e-9);
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
                goodput(&m, yd) >= 0.998 * goodput(&m, bf),
                "MTBF {mtbf_h} h: goodput {:.5} vs optimal {:.5}",
                goodput(&m, yd),
                goodput(&m, bf)
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
                let m = SteadyState {
                    mtbf_s: mtbf,
                    save_s,
                    restart_s,
                };
                let g = goodput(&m, m.young_daly_interval());
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
            let m0 = SteadyState {
                mtbf_s: 0.0, // overwritten below
                save_s: rng.gen_range(5.0..120.0),
                restart_s: rng.gen_range(10.0..600.0),
            };
            let tau = rng.gen_range(300.0..7200.0);
            let mut prev = f64::INFINITY;
            for mtbf_h in [720.0, 168.0, 24.0, 4.0, 1.0, 0.5] {
                let m = SteadyState {
                    mtbf_s: mtbf_h * 3600.0,
                    ..m0
                };
                let g = goodput(&m, tau);
                assert!(g <= prev + 1e-12);
                prev = g;
            }
        }
    }

    #[test]
    fn steady_state_terms_fill_one_second_of_wall() {
        let m = selene_1t(24.0 * 3600.0);
        let tau = m.young_daly_interval();
        let l = m.ledger(tau);
        assert!((l.wall_s() - 1.0).abs() < 1e-12);
        let (x, overhead) = (
            (tau / 2.0 + m.restart_s) / m.mtbf_s,
            m.save_s / (tau + m.save_s),
        );
        assert!((l.goodput() - (1.0 - overhead) * (1.0 - x)).abs() < 1e-12);
        assert!((l.save / (l.useful + l.save) - overhead).abs() < 1e-12);
        assert!((l.lost + l.restore - x).abs() < 1e-12);
    }

    #[test]
    fn infinite_reliability_recovers_pure_overhead() {
        let m = SteadyState {
            mtbf_s: f64::INFINITY,
            save_s: 50.0,
            restart_s: 100.0,
        };
        // Only the checkpoint overhead remains; longer intervals always win.
        assert!((goodput(&m, 1000.0) - 1000.0 / 1050.0).abs() < 1e-12);
        assert!(goodput(&m, 10_000.0) > goodput(&m, 1000.0));
    }

    #[test]
    fn hopeless_failure_rate_reads_negative() {
        // A failure (plus half an interval) outlasts the MTBF: the steady
        // state has no useful work left, and the ledger shows it.
        let m = SteadyState {
            mtbf_s: 60.0,
            save_s: 50.0,
            restart_s: 500.0,
        };
        let l = m.ledger(600.0);
        assert!(l.useful < 0.0 && l.goodput() < 0.0, "{l:?}");
        assert!((l.wall_s() - 1.0).abs() < 1e-12);
    }

    /// E30's process leg on a 2-vCPU host: 12 iterations of 10.6 ms, a checkpoint every
    /// 2, 2 failures, ≈ 0.1 s of detection each. The steady-state form
    /// reads `(τ/2 + R)/M` ≈ 1.7 for that run and has no useful work left;
    /// a finite run of known length does.
    #[test]
    fn a_restart_longer_than_the_mtbf_still_leaves_useful_work() {
        let (iter_s, iters, failures) = (0.0106, 12.0, 2);
        let useful = iters * iter_s;
        let per_failure = Ledger {
            detect: 0.1,
            ..Ledger::default()
        };
        let l = Ledger::finite_run(useful, 2.0 * iter_s, 0.001, failures, &per_failure);
        let g = l.goodput();
        assert!(g > 0.0 && g < 1.0, "goodput {g}");
        // The terms sum to the run's wall: 12 iterations, 6 saves, and per
        // failure half an interval (one iteration) lost plus the detection.
        let terms: f64 = l.terms().iter().map(|(_, s)| s).sum();
        assert!((terms - (useful + 6.0 * 0.001 + 2.0 * (iter_s + 0.1))).abs() < 1e-12);
        let steady = SteadyState {
            mtbf_s: useful / failures as f64,
            save_s: 0.001,
            restart_s: 0.1,
        };
        assert!(steady.ledger(2.0 * iter_s).goodput() < 0.0);
    }

    #[test]
    fn a_failure_free_run_pays_only_its_saves() {
        let l = Ledger::finite_run(100.0, 10.0, 1.0, 0, &Ledger::default());
        assert!((l.goodput() - 100.0 / 110.0).abs() < 1e-12);
        assert_eq!(l.lost, 0.0);
    }

    fn elastic_run() -> Ledger {
        let per_failure = Ledger {
            restore: 60.0,
            ..Ledger::default()
        };
        Ledger::finite_run(10_000.0, 600.0, 10.0, 2, &per_failure)
    }

    #[test]
    fn elastic_equals_restart_without_an_outage() {
        let base = elastic_run();
        let e = base + Ledger::outage(0.0, 0.5, 0.0);
        let r = base + Ledger::outage(0.0, 0.0, 0.0);
        assert_eq!(e.goodput(), r.goodput());
        assert_eq!(e.goodput(), base.goodput());
    }

    #[test]
    fn elastic_beats_restart_past_break_even_exactly() {
        let (base, rho, reconfigure) = (elastic_run(), 0.5, 30.0);
        let be = break_even_outage_s(reconfigure, rho);
        assert!((be - 60.0).abs() < 1e-12, "30 s reconfigure at rho 0.5");
        let at = |outage: f64| {
            (
                (base + Ledger::outage(outage, rho, reconfigure)).goodput(),
                (base + Ledger::outage(outage, 0.0, 0.0)).goodput(),
            )
        };
        let (e, r) = at(be);
        assert!((e - r).abs() < 1e-12, "equal at break-even");
        let (e, r) = at(be - 1.0);
        assert!(e < r);
        let (e, r) = at(be + 1.0);
        assert!(e > r + 1e-6, "strictly better past break-even");
    }

    #[test]
    fn both_policies_degrade_monotonically_with_outage_length() {
        let base = elastic_run();
        let mut prev = (f64::INFINITY, f64::INFINITY);
        for outage in [0.0, 100.0, 500.0, 2_000.0, 10_000.0] {
            let e = (base + Ledger::outage(outage, 0.5, 30.0)).goodput();
            let r = (base + Ledger::outage(outage, 0.0, 0.0)).goodput();
            assert!(e <= prev.0 + 1e-12 && r <= prev.1 + 1e-12);
            prev = (e, r);
        }
        // Elastic loses less per outage second: at rho = 0.5 the ratio of
        // the policies approaches 1/(1 − rho) = 2 as the outage dominates.
        let long = 100_000.0;
        let e = (base + Ledger::outage(long, 0.5, 30.0)).goodput();
        let r = (base + Ledger::outage(long, 0.0, 0.0)).goodput();
        assert!(e > 1.5 * r);
    }

    #[test]
    fn a_faster_degraded_layout_is_reported_not_capped() {
        // ρ > 1: the degraded layout out-runs the launch one, so the
        // outage shortens the wall and goodput can pass 1.
        let l = Ledger {
            useful: 10.0,
            ..Ledger::default()
        } + Ledger::outage(5.0, 1.5, 0.0);
        assert_eq!(l.degraded, -2.5);
        assert!((l.goodput() - 10.0 / 7.5).abs() < 1e-12);
        // At ρ = 1 with a free reconfiguration the outage costs nothing.
        assert_eq!(Ledger::outage(5_000.0, 1.0, 0.0), Ledger::default());
    }
}

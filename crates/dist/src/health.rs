//! Heartbeat-based rank health monitoring.
//!
//! At PTD-P scale the expensive failure-handling question is not "did
//! something go wrong?" but "is this rank *dead* or merely *slow*?" — the
//! answers demand responses three orders of magnitude apart in cost
//! (checkpoint-restore vs. nothing, see `megatron_core::goodput`). The
//! [`HealthMonitor`] answers it from per-rank liveness beacons: every rank
//! thread beats once per training iteration (its natural heartbeat
//! period), and [`HealthMonitor::classify`] splits the world into
//!
//! - **dead** — no beat within `dead_after` (default 4× the expected
//!   period): only these justify the supervisor's fatal-incident path
//!   (both backends of `supervisor::Supervisor` report them as an
//!   attempt's dead ranks);
//! - **slow** — beating, but at an interval more than `threshold ×` the
//!   median rank's: these feed straggler reporting
//!   ([`StragglerReport`]) and telemetry, never a restart.
//!
//! The monitor is wait-free on the hot path: a beat is two atomic stores.
//! [`StragglerReport`] reads the trainer's per-rank step times instead and
//! flags ranks whose mean step sits well above the job-wide median: in a
//! synchronous PTD-P job one slow rank drags the whole iteration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trainer::{PtdpSpec, StepSample, ThreadKey};

/// Default multiple of the expected beat period after which a silent rank
/// is declared dead rather than slow.
pub const DEAD_AFTER_PERIODS: u32 = 4;

/// Default `slow_threshold` for [`HealthMonitor::classify`]: a living rank
/// whose mean beat interval exceeds 1.5× the median rank's counts as slow.
/// The value matches [`StragglerReport`]'s convention (1.2–2.0 is the
/// usual straggler-detection band; 1.5 tolerates scheduler jitter without
/// hiding a genuinely lagging rank). Configured via
/// `SupervisorConfig::slow_threshold` rather than repeated at call sites.
pub const DEFAULT_SLOW_THRESHOLD: f64 = 1.5;

/// One rank's beacon cell.
#[derive(Debug, Default)]
struct Beacon {
    /// Nanoseconds since monitor start of the latest beat (0 = never).
    last_ns: AtomicU64,
    /// Total beats observed.
    beats: AtomicU64,
}

/// Classification of one rank by the monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankCondition {
    /// Beating at a healthy interval.
    Healthy,
    /// Beating, but `factor ×` slower than the median rank.
    Slow {
        /// Mean beat interval over the median rank's.
        factor: f64,
    },
    /// No beat within the dead-after window (or never beat at all).
    Dead {
        /// How long the rank has been silent.
        silent_for: Duration,
    },
}

impl RankCondition {
    /// Is this rank dead?
    pub fn is_dead(&self) -> bool {
        matches!(self, RankCondition::Dead { .. })
    }

    /// Is this rank slow (but alive)?
    pub fn is_slow(&self) -> bool {
        matches!(self, RankCondition::Slow { .. })
    }
}

/// Snapshot produced by [`HealthMonitor::classify`].
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Every rank with its condition, in flat-rank order.
    pub ranks: Vec<(ThreadKey, RankCondition)>,
    /// Median mean-beat-interval across ranks that have beat at least
    /// twice (seconds); 0 if no rank qualifies yet.
    pub median_interval_s: f64,
}

impl HealthReport {
    /// Ranks declared dead.
    pub fn dead(&self) -> Vec<ThreadKey> {
        self.ranks
            .iter()
            .filter(|(_, c)| c.is_dead())
            .map(|(k, _)| *k)
            .collect()
    }

    /// Ranks declared slow.
    pub fn slow(&self) -> Vec<ThreadKey> {
        self.ranks
            .iter()
            .filter(|(_, c)| c.is_slow())
            .map(|(k, _)| *k)
            .collect()
    }

    /// Is every rank healthy?
    pub fn all_healthy(&self) -> bool {
        self.ranks.iter().all(|(_, c)| *c == RankCondition::Healthy)
    }
}

/// Wait-free per-rank heartbeat collector for one training world.
///
/// Share one monitor (via `Arc`) between the rank threads (each calls
/// [`HealthMonitor::beat`] once per iteration) and whoever supervises them
/// (calls [`HealthMonitor::classify`] at leisure).
#[derive(Debug)]
pub struct HealthMonitor {
    started: Instant,
    period: Duration,
    dead_after: Duration,
    keys: Vec<ThreadKey>,
    beacons: Vec<Beacon>,
}

impl HealthMonitor {
    /// A monitor for `spec`'s world with the given expected beat `period`
    /// (dead-after defaults to [`DEAD_AFTER_PERIODS`] × `period`).
    pub fn new(spec: &PtdpSpec, period: Duration) -> Arc<HealthMonitor> {
        Self::with_dead_after(spec, period, period * DEAD_AFTER_PERIODS)
    }

    /// Like [`HealthMonitor::new`] with an explicit dead-after window.
    pub fn with_dead_after(
        spec: &PtdpSpec,
        period: Duration,
        dead_after: Duration,
    ) -> Arc<HealthMonitor> {
        let world = spec.world();
        Arc::new(HealthMonitor {
            started: Instant::now(),
            period,
            dead_after,
            keys: (0..world).map(|r| spec.thread_key(r)).collect(),
            beacons: (0..world).map(|_| Beacon::default()).collect(),
        })
    }

    /// The expected beat period.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// World size being monitored.
    pub fn world(&self) -> usize {
        self.keys.len()
    }

    /// Record a liveness beacon from `flat_rank`. Wait-free; called from
    /// the rank's hot loop.
    pub fn beat(&self, flat_rank: usize) {
        let now_ns = self.started.elapsed().as_nanos() as u64;
        let b = &self.beacons[flat_rank];
        // `max(1)` so "never beat" (0) stays distinguishable.
        b.last_ns.store(now_ns.max(1), Ordering::Release);
        b.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Beats observed from `flat_rank` so far.
    pub fn beats(&self, flat_rank: usize) -> u64 {
        self.beacons[flat_rank].beats.load(Ordering::Relaxed)
    }

    /// Classify every rank as healthy / slow / dead. `slow_threshold` is
    /// the multiple of the median mean-beat-interval beyond which a living
    /// rank counts as slow (same convention as [`StragglerReport::analyze`];
    /// must be ≥ 1).
    pub fn classify(&self, slow_threshold: f64) -> HealthReport {
        assert!(slow_threshold >= 1.0, "a straggler is ≥ 1× the median");
        let now_ns = self.started.elapsed().as_nanos() as u64;
        let snap: Vec<(u64, u64)> = self
            .beacons
            .iter()
            .map(|b| {
                (
                    b.last_ns.load(Ordering::Acquire),
                    b.beats.load(Ordering::Relaxed),
                )
            })
            .collect();
        // Mean interval per rank = last beat time / beats (beats start at
        // monitor start); only meaningful once a rank has beat twice.
        let mut intervals: Vec<f64> = snap
            .iter()
            .filter(|(last, beats)| *beats >= 2 && *last > 0)
            .map(|(last, beats)| *last as f64 / *beats as f64 * 1e-9)
            .collect();
        intervals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if intervals.is_empty() {
            0.0
        } else {
            intervals[intervals.len() / 2]
        };
        let dead_ns = self.dead_after.as_nanos() as u64;
        let ranks = self
            .keys
            .iter()
            .zip(&snap)
            .map(|(key, (last, beats))| {
                let silent_ns = now_ns.saturating_sub(*last);
                let cond = if silent_ns >= dead_ns {
                    RankCondition::Dead {
                        silent_for: Duration::from_nanos(silent_ns),
                    }
                } else if median > 0.0 && *beats >= 2 {
                    let mean = *last as f64 / *beats as f64 * 1e-9;
                    let factor = mean / median;
                    if factor > slow_threshold {
                        RankCondition::Slow { factor }
                    } else {
                        RankCondition::Healthy
                    }
                } else {
                    RankCondition::Healthy
                };
                (*key, cond)
            })
            .collect();
        HealthReport {
            ranks,
            median_interval_s: median,
        }
    }
}

/// Summary statistics of one rank's step times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankStats {
    /// Rank coordinate `(pipeline, data, tensor)`.
    pub thread: ThreadKey,
    /// Executed iterations.
    pub steps: usize,
    /// Mean step time, seconds.
    pub mean_s: f64,
    /// Maximum step time, seconds.
    pub max_s: f64,
    /// Mean step time relative to the job-wide median of rank means.
    pub vs_median: f64,
}

/// Straggler analysis of a whole job.
#[derive(Debug, Clone)]
pub struct StragglerReport {
    /// Per-rank statistics, slowest (by `vs_median`) first.
    pub ranks: Vec<RankStats>,
    /// Median of per-rank mean step times, seconds.
    pub median_mean_s: f64,
    /// Flagging threshold: ranks with `mean > threshold · median` are
    /// stragglers.
    pub threshold: f64,
    /// Ranks the heartbeat monitor declared dead (see
    /// [`StragglerReport::with_liveness`]). Dead ranks are removed from
    /// the straggler ranking — they need a restart, not a slow-rank
    /// diagnosis. Empty when no liveness data was fused.
    pub dead: Vec<ThreadKey>,
}

impl StragglerReport {
    /// Analyze per-rank step times (as produced by
    /// `TrainLog::step_times`). `threshold` is the mean-vs-median ratio
    /// above which a rank is flagged (1.2 = 20 % slower than typical).
    pub fn analyze(step_times: &HashMap<ThreadKey, Vec<StepSample>>, threshold: f64) -> Self {
        assert!(
            threshold >= 1.0,
            "threshold below 1 flags the median itself"
        );
        let mut ranks: Vec<RankStats> = step_times
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(&thread, v)| RankStats {
                thread,
                steps: v.len(),
                mean_s: v.iter().map(|s| s.seconds).sum::<f64>() / v.len() as f64,
                max_s: v.iter().map(|s| s.seconds).fold(0.0f64, f64::max),
                vs_median: 1.0,
            })
            .collect();
        ranks.sort_by(|a, b| b.mean_s.total_cmp(&a.mean_s).then(a.thread.cmp(&b.thread)));
        let mut report = StragglerReport {
            ranks,
            median_mean_s: 0.0,
            threshold,
            dead: Vec::new(),
        };
        report.rebase();
        report
    }

    /// Fuse a heartbeat-based liveness classification
    /// ([`HealthMonitor::classify`]) into the report: ranks the monitor
    /// declared *dead* move out of the straggler ranking into
    /// [`StragglerReport::dead`] — the two conditions demand responses
    /// three orders of magnitude apart in cost (checkpoint restore vs.
    /// nothing), so conflating them in one "slow" list would mislead the
    /// operator the report exists to inform.
    pub fn with_liveness(mut self, health: &HealthReport) -> Self {
        let dead = health.dead();
        self.ranks.retain(|r| !dead.contains(&r.thread));
        // A dead rank's garbage timings must not skew the baseline either.
        self.rebase();
        self.dead = dead;
        self
    }

    /// Recompute the median of rank means and every rank's ratio to it.
    fn rebase(&mut self) {
        let mut means: Vec<f64> = self.ranks.iter().map(|r| r.mean_s).collect();
        means.sort_by(f64::total_cmp);
        self.median_mean_s = match means.len() {
            0 => 0.0,
            n if n % 2 == 1 => means[n / 2],
            n => (means[n / 2 - 1] + means[n / 2]) / 2.0,
        };
        for r in &mut self.ranks {
            r.vs_median = if self.median_mean_s > 0.0 {
                r.mean_s / self.median_mean_s
            } else {
                1.0
            };
        }
    }

    /// The flagged stragglers (slowest first).
    pub fn stragglers(&self) -> Vec<&RankStats> {
        self.ranks
            .iter()
            .filter(|r| r.vs_median > self.threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec222() -> PtdpSpec {
        PtdpSpec::new(2, 2, 2)
    }

    #[test]
    fn silent_world_is_dead_after_window() {
        let spec = spec222();
        let mon = HealthMonitor::with_dead_after(
            &spec,
            Duration::from_millis(1),
            Duration::from_millis(5),
        );
        std::thread::sleep(Duration::from_millis(10));
        let report = mon.classify(1.5);
        assert_eq!(report.dead().len(), spec.world());
        assert!(report.slow().is_empty());
    }

    #[test]
    fn beating_ranks_are_healthy() {
        let spec = spec222();
        let mon = HealthMonitor::with_dead_after(
            &spec,
            Duration::from_millis(1),
            Duration::from_secs(60),
        );
        for _ in 0..3 {
            for r in 0..spec.world() {
                mon.beat(r);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = mon.classify(3.0);
        assert!(report.all_healthy(), "{report:?}");
        assert!(report.median_interval_s > 0.0);
        assert_eq!(mon.beats(0), 3);
    }

    #[test]
    fn one_silent_rank_is_dead_not_slow() {
        let spec = spec222();
        let mon = HealthMonitor::with_dead_after(
            &spec,
            Duration::from_millis(1),
            Duration::from_millis(20),
        );
        for _ in 0..4 {
            for r in 1..spec.world() {
                mon.beat(r);
            }
            std::thread::sleep(Duration::from_millis(8));
        }
        let report = mon.classify(2.0);
        assert_eq!(report.dead(), vec![spec.thread_key(0)]);
        // The beating ranks are alive (healthy or at worst slow).
        for (key, cond) in &report.ranks {
            if *key != spec.thread_key(0) {
                assert!(!cond.is_dead(), "{key:?} wrongly dead");
            }
        }
    }

    #[test]
    fn lagging_rank_classified_slow_via_median() {
        let spec = spec222();
        let mon = HealthMonitor::with_dead_after(
            &spec,
            Duration::from_millis(1),
            Duration::from_secs(60),
        );
        // Rank 0 beats once for every 4 beats of the others: its mean
        // interval is ~4× the median.
        for i in 0..8 {
            for r in 1..spec.world() {
                mon.beat(r);
            }
            if i % 4 == 0 {
                mon.beat(0);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = mon.classify(2.0);
        let slow = report.slow();
        assert!(slow.contains(&spec.thread_key(0)), "{report:?}");
        assert!(report.dead().is_empty());
    }

    fn times(pairs: &[(ThreadKey, &[f64])]) -> HashMap<ThreadKey, Vec<StepSample>> {
        pairs
            .iter()
            .map(|&(k, v)| {
                let samples = v
                    .iter()
                    .enumerate()
                    .map(|(i, &seconds)| StepSample {
                        epoch: 0,
                        iteration: i,
                        seconds,
                    })
                    .collect();
                (k, samples)
            })
            .collect()
    }

    #[test]
    fn straggler_report_flags_the_slow_rank() {
        let st = times(&[
            ((0, 0, 0), &[1.0, 1.1, 0.9]),
            ((0, 0, 1), &[1.0, 1.0, 1.0]),
            ((1, 0, 0), &[2.5, 2.6, 2.4]),
            ((1, 0, 1), &[1.1, 0.9, 1.0]),
        ]);
        let report = StragglerReport::analyze(&st, 1.5);
        let flagged = report.stragglers();
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].thread, (1, 0, 0));
        assert!(flagged[0].vs_median > 2.0);
        // Slowest first in the full ranking too.
        assert_eq!(report.ranks[0].thread, (1, 0, 0));
    }

    #[test]
    fn uniform_job_has_no_stragglers() {
        let st = times(&[
            ((0, 0, 0), &[1.0, 1.0]),
            ((0, 0, 1), &[1.01, 0.99]),
            ((1, 0, 0), &[1.0, 1.02]),
        ]);
        let report = StragglerReport::analyze(&st, 1.2);
        assert!(report.stragglers().is_empty());
        assert!((report.median_mean_s - 1.0).abs() < 0.02);
    }

    #[test]
    fn liveness_fusion_separates_dead_from_slow() {
        // Rank (1,0,0) records huge step times AND stops beating: after
        // fusion it must be reported dead, not merely slow — while the
        // genuinely slow-but-alive rank (1,0,1) stays a straggler.
        let st = times(&[
            ((0, 0, 0), &[1.0, 1.0]),
            ((0, 0, 1), &[1.0, 1.0]),
            ((1, 0, 0), &[9.0, 9.0]),
            ((1, 0, 1), &[2.0, 2.1]),
        ]);
        let spec = PtdpSpec::new(2, 1, 2);
        let mon = HealthMonitor::with_dead_after(
            &spec,
            Duration::from_millis(1),
            Duration::from_millis(10),
        );
        // Flat rank order for (p,d,t)=(2,1,2): (0,0,0)=0, (0,0,1)=1,
        // (1,0,0)=2, (1,0,1)=3. Everyone but rank 2 keeps beating.
        for _ in 0..3 {
            for r in [0usize, 1, 3] {
                mon.beat(r);
            }
            std::thread::sleep(Duration::from_millis(4));
        }
        std::thread::sleep(Duration::from_millis(10));
        for r in [0usize, 1, 3] {
            mon.beat(r);
        }
        let report = StragglerReport::analyze(&st, DEFAULT_SLOW_THRESHOLD)
            .with_liveness(&mon.classify(DEFAULT_SLOW_THRESHOLD));
        assert_eq!(report.dead, vec![(1, 0, 0)]);
        let flagged: Vec<ThreadKey> = report.stragglers().iter().map(|r| r.thread).collect();
        assert_eq!(flagged, vec![(1, 0, 1)], "dead rank must not be ranked");
    }

    #[test]
    fn empty_and_partial_logs_are_tolerated() {
        let st = times(&[((0, 0, 0), &[]), ((0, 0, 1), &[1.0])]);
        let report = StragglerReport::analyze(&st, 1.2);
        assert_eq!(report.ranks.len(), 1, "empty logs are skipped");
        let report = StragglerReport::analyze(&HashMap::new(), 1.2);
        assert!(report.ranks.is_empty());
        assert_eq!(report.median_mean_s, 0.0);
    }

    #[test]
    fn real_trainer_step_times_feed_straggler_report() {
        // Train a tiny model on threads, then run the step-time log
        // through the analyzer.
        use crate::PtdpTrainer;
        use megatron_tensor::gpt::{GptModel, TinyGptConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cfg = TinyGptConfig {
            vocab: 13,
            seq: 6,
            hidden: 8,
            heads: 4,
            layers: 2,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let master = GptModel::new(cfg, &mut rng);
        let data: Vec<(Vec<usize>, Vec<usize>)> = (0..3)
            .map(|_| {
                let mut draw = || {
                    (0..4 * cfg.seq)
                        .map(|_| rng.gen_range(0..cfg.vocab))
                        .collect()
                };
                (draw(), draw())
            })
            .collect();
        let mut spec = PtdpSpec::new(2, 1, 2);
        spec.microbatch = 1;
        let log = PtdpTrainer::new(master, spec).train(&data);
        let report = StragglerReport::analyze(&log.step_times, 1.2);
        assert_eq!(report.ranks.len(), 4, "one stats row per thread");
        for r in &report.ranks {
            assert_eq!(r.steps, 3);
            assert!(r.mean_s > 0.0 && r.max_s >= r.mean_s);
        }
        assert!(report.median_mean_s > 0.0);
    }
}

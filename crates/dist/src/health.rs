//! Heartbeat-based rank liveness.
//!
//! A heartbeat answers one question: is this rank *alive*? Only a dead
//! rank justifies the supervisor's fatal-incident path (checkpoint
//! restore, see `megatron_core::goodput`); finding a *slow* rank is the
//! job of per-rank timelines — telemetry's critical-path straggler wait —
//! not of beacons. The [`HealthMonitor`] collects one liveness beacon per
//! rank: every rank beats once per training iteration (its natural
//! heartbeat period), and [`HealthMonitor::classify`] reports a rank
//! **dead** once no beat arrived within `dead_after` (default 4× the
//! expected period). Both backends of `supervisor::Supervisor` report
//! those as an attempt's dead ranks.
//!
//! The monitor is wait-free on the hot path: a beat is two atomic stores.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::trainer::{PtdpSpec, ThreadKey};

/// Default multiple of the expected beat period after which a silent rank
/// is declared dead.
pub const DEAD_AFTER_PERIODS: u32 = 4;

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
    /// Beat within the dead-after window.
    Alive,
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
}

/// Snapshot produced by [`HealthMonitor::classify`].
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Every rank with its condition, in flat-rank order.
    pub ranks: Vec<(ThreadKey, RankCondition)>,
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
}

/// Wait-free per-rank heartbeat collector for one training world.
///
/// Share one monitor (via `Arc`) between the rank threads (each calls
/// [`HealthMonitor::beat`] once per iteration) and whoever supervises them
/// (calls [`HealthMonitor::classify`] at leisure).
#[derive(Debug)]
pub struct HealthMonitor {
    started: Instant,
    dead_after: Duration,
    keys: Vec<ThreadKey>,
    beacons: Vec<Beacon>,
}

impl HealthMonitor {
    /// A monitor for `spec`'s world with the given expected beat `period`
    /// (dead-after defaults to [`DEAD_AFTER_PERIODS`] × `period`).
    pub fn new(spec: &PtdpSpec, period: Duration) -> Arc<HealthMonitor> {
        Self::with_dead_after(spec, period * DEAD_AFTER_PERIODS)
    }

    /// Like [`HealthMonitor::new`] with an explicit dead-after window.
    pub fn with_dead_after(spec: &PtdpSpec, dead_after: Duration) -> Arc<HealthMonitor> {
        let world = spec.world();
        Arc::new(HealthMonitor {
            started: Instant::now(),
            dead_after,
            keys: (0..world).map(|r| spec.thread_key(r)).collect(),
            beacons: (0..world).map(|_| Beacon::default()).collect(),
        })
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

    /// Classify every rank as alive or dead.
    pub fn classify(&self) -> HealthReport {
        let now_ns = self.started.elapsed().as_nanos() as u64;
        let dead_ns = self.dead_after.as_nanos() as u64;
        let ranks = self
            .keys
            .iter()
            .zip(&self.beacons)
            .map(|(key, b)| {
                let silent_ns = now_ns.saturating_sub(b.last_ns.load(Ordering::Acquire));
                let cond = if silent_ns >= dead_ns {
                    RankCondition::Dead {
                        silent_for: Duration::from_nanos(silent_ns),
                    }
                } else {
                    RankCondition::Alive
                };
                (*key, cond)
            })
            .collect();
        HealthReport { ranks }
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
        let mon = HealthMonitor::with_dead_after(&spec, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(mon.classify().dead().len(), spec.world());
    }

    #[test]
    fn beating_ranks_are_alive() {
        let spec = spec222();
        let mon = HealthMonitor::with_dead_after(&spec, Duration::from_secs(60));
        for _ in 0..3 {
            for r in 0..spec.world() {
                mon.beat(r);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = mon.classify();
        assert!(
            report.ranks.iter().all(|(_, c)| *c == RankCondition::Alive),
            "{report:?}"
        );
        assert_eq!(mon.beats(0), 3);
    }

    #[test]
    fn one_silent_rank_is_dead_and_the_rest_alive() {
        let spec = spec222();
        let mon = HealthMonitor::with_dead_after(&spec, Duration::from_millis(20));
        for _ in 0..4 {
            for r in 1..spec.world() {
                mon.beat(r);
            }
            std::thread::sleep(Duration::from_millis(8));
        }
        let report = mon.classify();
        assert_eq!(report.dead(), vec![spec.thread_key(0)]);
        for (key, cond) in &report.ranks {
            if *key != spec.thread_key(0) {
                assert_eq!(*cond, RankCondition::Alive, "{key:?} wrongly dead");
            }
        }
    }
}

//! The measured side of [`megatron_core::goodput::Ledger`]: a supervised
//! run's report folded term by term, the finite-run ledger the run's own
//! costs predict, and the table that prints the two side by side. E30
//! goes through here on both backends. It lives in this crate because this
//! is the one crate that sees both the trainer (`megatron-dist`) and the
//! ledger (`megatron-core`).

use megatron_core::goodput::Ledger;
use megatron_dist::{ReconfigureDirection, SupervisorReport};

use crate::table::Table;

/// Fold a supervised run into its measured ledger. The caller supplies
/// what only it can measure: the clean seconds per iteration (from a
/// fault-free reference), the seconds of checkpoint saves over
/// `n_checkpoints` generations, and the checkpoint interval in iterations.
///
/// - useful: the job's iterations at the clean rate;
/// - save: the saves the caller measured;
/// - lost: per incident, the iterations redone after the restore plus
///   half of the iteration the failure interrupted;
/// - detect: per incident, the failed attempt's wall that its executed
///   iterations, their saves and the half iteration do not account for —
///   launch, detection and teardown;
/// - restore, backoff: as the supervisor timed them;
/// - degraded: per grow, the degraded segment's wall over its iterations
///   and saves at the clean rate;
/// - reconfigure: the grows' cross-topology restores (a shrink's restore
///   is its incident's);
/// - unexplained: the rest of `report.wall_s`, negative when the other
///   terms overstate it. The terms sum to `report.wall_s`.
pub fn measured(
    report: &SupervisorReport,
    clean_iter_s: f64,
    save_s_total: f64,
    n_checkpoints: usize,
    checkpoint_every: usize,
) -> Ledger {
    let mean_save = save_s_total / n_checkpoints.max(1) as f64;
    // `executed` iterations and the saves among them, at the clean rate.
    let work = |executed: usize| {
        executed as f64 * clean_iter_s + (executed / checkpoint_every.max(1)) as f64 * mean_save
    };
    let mut l = Ledger {
        useful: report.iterations as f64 * clean_iter_s,
        save: save_s_total,
        ..Ledger::default()
    };
    let mut start = 0;
    for inc in &report.incidents {
        l.lost += (inc.lost_iterations as f64 + 0.5) * clean_iter_s;
        l.detect +=
            inc.attempt_wall_s - work(inc.reached.saturating_sub(start)) - 0.5 * clean_iter_s;
        l.restore += inc.restore_s;
        l.backoff += inc.backoff_s;
        start = inc.resumed_from;
    }
    let mut segment_start = 0;
    for rc in &report.reconfigurations {
        match rc.direction {
            ReconfigureDirection::Shrink => segment_start = rc.generation,
            ReconfigureDirection::Grow => {
                l.degraded += rc.segment_s - work(rc.at_iter.saturating_sub(segment_start));
                l.reconfigure += rc.restore_s;
            }
        }
    }
    l.unexplained = report.wall_s - l.wall_s();
    l
}

/// The finite-run ledger a run's own measured costs predict: the same
/// useful work, a save of `save_s` every `interval_s` of it, and
/// `failures` failures that each cost the run's mean measured detect,
/// restore and backoff plus half an interval of lost work. Against
/// [`measured`], only lost work, the save count and `unexplained` can
/// differ.
pub fn predicted(measured: &Ledger, failures: usize, interval_s: f64, save_s: f64) -> Ledger {
    let per_failure = Ledger {
        detect: measured.detect,
        restore: measured.restore,
        backoff: measured.backoff,
        ..Ledger::default()
    }
    .scaled(1.0 / failures.max(1) as f64);
    Ledger::finite_run(measured.useful, interval_s, save_s, failures, &per_failure)
}

/// One row per term, predicted beside measured, in milliseconds and as a
/// share of each ledger's wall; then the walls and the goodputs.
pub fn table(predicted: &Ledger, measured: &Ledger) -> String {
    let (pw, mw) = (predicted.wall_s(), measured.wall_s());
    let mut t = Table::new(["term", "predicted", "measured", "pred share", "meas share"]);
    for ((name, p), (_, m)) in predicted.terms().into_iter().zip(measured.terms()) {
        t.row([
            name.to_string(),
            format!("{:.1} ms", 1e3 * p),
            format!("{:.1} ms", 1e3 * m),
            format!("{:.1}%", 100.0 * p / pw),
            format!("{:.1}%", 100.0 * m / mw),
        ]);
    }
    t.row([
        "wall".to_string(),
        format!("{:.1} ms", 1e3 * pw),
        format!("{:.1} ms", 1e3 * mw),
        String::new(),
        String::new(),
    ]);
    t.row([
        "goodput".to_string(),
        format!("{:.4}", predicted.goodput()),
        format!("{:.4}", measured.goodput()),
        String::new(),
        String::new(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use megatron_dist::{Incident, IncidentCause, Reconfiguration};

    /// A run whose books balance by construction: 10 iterations of 1 s, a
    /// save of 0.5 s every 2. Attempt 0 dies half-way through iteration 5
    /// after 0.3 s of detection and resumes from generation 4 at (1, 1, 4);
    /// the degraded segment runs iterations 4..8 0.7 s slow; the grow
    /// restores for 0.4 s; the last attempt pays 0.25 s no term names.
    fn balanced_report() -> SupervisorReport {
        let rc = |direction, at_iter, generation, restore_s, segment_s| Reconfiguration {
            at_iter,
            generation,
            from: (2, 2, 2),
            to: (1, 1, 4),
            direction,
            capacity: 7,
            restore_s,
            segment_s,
        };
        let failed = 5.0 + 2.0 * 0.5 + 0.5 + 0.3;
        let degraded = 4.0 + 2.0 * 0.5 + 0.7;
        let last = 2.0 + 0.5 + 0.25;
        SupervisorReport {
            incidents: vec![Incident {
                attempt: 0,
                cause: IncidentCause::Wedged,
                attempt_wall_s: failed,
                reached: 5,
                resumed_from: 4,
                lost_iterations: 1,
                restore_s: 0.2,
                backoff_s: 0.1,
                cross_topology: true,
                dead_ranks: vec![3],
            }],
            reconfigurations: vec![
                rc(ReconfigureDirection::Shrink, 5, 4, 0.2, failed),
                rc(ReconfigureDirection::Grow, 8, 8, 0.4, degraded),
            ],
            wall_s: failed + 0.2 + 0.1 + degraded + 0.4 + last,
            iterations: 10,
            ..SupervisorReport::default()
        }
    }

    #[test]
    fn a_balanced_run_folds_into_its_terms() {
        let report = balanced_report();
        let m = measured(&report, 1.0, 2.5, 5, 2);
        let expected = Ledger {
            useful: 10.0,
            save: 2.5,
            lost: 1.5,
            detect: 0.3,
            restore: 0.2,
            backoff: 0.1,
            degraded: 0.7,
            reconfigure: 0.4,
            unexplained: 0.25,
        };
        for ((name, got), (_, want)) in m.terms().into_iter().zip(expected.terms()) {
            assert!((got - want).abs() < 1e-12, "{name}: {got} vs {want}");
        }
        assert!((m.wall_s() - report.wall_s).abs() < 1e-12);

        // The prediction from the run's own costs differs only where the
        // model idealizes: τ/2 of lost work a failure, nothing unexplained.
        // Its outage is the degraded segment less its saves, at the
        // segment's own rate.
        let outage = 4.0 + 0.7;
        let p = predicted(&m, 1, 2.0, 0.5) + Ledger::outage(outage, 4.0 / outage, m.reconfigure);
        let expected = Ledger {
            lost: 1.0,
            unexplained: 0.0,
            ..expected
        };
        for ((name, got), (_, want)) in p.terms().into_iter().zip(expected.terms()) {
            assert!((got - want).abs() < 1e-12, "{name}: {got} vs {want}");
        }
    }
}

//! The reference clock: how the benchmark takes the machine out of its
//! time-based metrics.
//!
//! The box wanders between fast and slow for seconds to minutes at a time
//! (shared host, README "Steadiness"), by more than any bound the benchmark
//! could set, and how much a piece of code slows down depends on what it
//! executes. So the driver keeps a second clock: every [`SLICE_S`] it stops
//! the round's process group, times a training step of `frozen-tensor` —
//! the same arithmetic as the live workload, frozen at the commit that
//! defined the benchmark, on as many threads as the workload has ranks —
//! and lets the round continue. A [`Timeline`]
//! then converts any interval of the round into *reference seconds*: wall
//! time outside the pauses, divided slice by slice by how much longer than
//! nominal the reference steps around the slice took. CPU time gets the
//! same treatment with the CPU time of the steps, because the two part
//! ways: a core that runs slower stretches both, a core that is taken away
//! stretches only the wall clock.

use frozen_tensor::gpt::{GptModel, TinyGptConfig};
use frozen_tensor::Adam;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sys;
use crate::workloads::Workload;

/// Seconds a round runs between two reference steps: short against the
/// seconds over which the machine's speed drifts, long against the step.
pub const SLICE_S: f64 = 0.4;

/// One copy of the frozen training step: forward + backward + Adam of a
/// frozen model on fixed inputs.
struct Replica {
    model: GptModel,
    adam: Adam,
    tokens: Vec<usize>,
    targets: Vec<usize>,
}

impl Replica {
    fn step(&mut self, batch: usize) {
        self.model.zero_grads();
        let loss = self.model.loss_and_grad(&self.tokens, &self.targets, batch);
        self.adam.step(&mut self.model.param_grad_pairs());
        std::hint::black_box(loss);
    }
}

/// The reference step of one workload: as many copies of the frozen
/// training step as the workload has ranks, each on a thread of its own
/// (their GEMMs fan out over the cores as the live ones do). A machine
/// that loses one core for milliseconds at a time slows a single
/// fork-join step far more than a job with eight runnable ranks, so the
/// reference has to be as parallel as what it stands for.
pub struct Reference {
    replicas: Vec<Replica>,
    batch: usize,
}

impl Reference {
    /// The same inputs in every run, whatever `--seed` is: the reference
    /// must do the same work every time it is called.
    pub fn new(w: &Workload) -> Reference {
        let cfg = TinyGptConfig {
            vocab: w.model.vocab,
            seq: w.model.seq,
            hidden: w.model.hidden,
            heads: w.model.heads,
            layers: w.reference.layers,
        };
        let n = w.reference.batch * w.model.seq;
        let replicas = (0..w.world() as u64)
            .map(|rank| {
                let mut rng = StdRng::seed_from_u64(0x5eed + rank);
                let model = GptModel::new(cfg, &mut rng);
                let mut draw = || (0..n).map(|_| rng.gen_range(0..cfg.vocab)).collect();
                Replica {
                    model,
                    // A learning rate of zero: Adam does all its arithmetic
                    // and the parameters, hence the work of the next step,
                    // stay the same.
                    adam: Adam::new(0.0),
                    tokens: draw(),
                    targets: draw(),
                }
            })
            .collect();
        let mut reference = Reference {
            replicas,
            batch: w.reference.batch,
        };
        reference.step(); // first touch
        reference
    }

    /// Run the step on every replica at once; returns the seconds until
    /// the last one is done and the CPU seconds they used (nothing else in
    /// the driver runs meanwhile).
    pub fn step(&mut self) -> Step {
        let (wall, cpu) = (sys::now(), sys::process_cpu_s());
        let batch = self.batch;
        std::thread::scope(|scope| {
            for replica in &mut self.replicas {
                scope.spawn(move || replica.step(batch));
            }
        });
        Step {
            wall_s: sys::now() - wall,
            cpu_s: sys::process_cpu_s() - cpu,
        }
    }
}

/// What one reference step took.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One pause of the round: stopped at `stop`, resumed at `cont`, with a
/// reference step in between.
#[derive(Debug, Clone, Copy)]
pub struct Pause {
    pub stop: f64,
    pub cont: f64,
    pub step: Step,
}

/// An interval of a round as the reference clock sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Seconds the round ran: wall time outside the pauses.
    pub ran_s: f64,
    /// The same in reference seconds: every slice divided by its dilation.
    pub reference_s: f64,
    /// CPU seconds used in the interval, times this, are reference CPU
    /// seconds: the inverse of the slices' CPU dilation, weighted by how
    /// long each ran.
    pub cpu_scale: f64,
}

/// The pauses of one round, in order. Slice `i` is the time the round ran
/// before pause `i`; the last slice follows the last pause.
pub struct Timeline {
    pauses: Vec<Pause>,
    /// What a reference step takes on the quiet machine (`workloads.rs`):
    /// what makes a reference second about a second.
    nominal: Step,
}

impl Timeline {
    pub fn new(nominal: Step) -> Timeline {
        Timeline {
            pauses: Vec::new(),
            nominal,
        }
    }

    pub fn push(&mut self, pause: Pause) {
        self.pauses.push(pause);
    }

    /// Every reference step of the round.
    pub fn steps(&self) -> Vec<Step> {
        self.pauses.iter().map(|p| p.step).collect()
    }

    /// How much slower than nominal the machine ran during slice `i`, by
    /// `clock` (wall or CPU): the mean of the reference steps on either
    /// side of the slice.
    fn dilation(&self, i: usize, clock: fn(&Step) -> f64) -> f64 {
        let before = i.checked_sub(1).map(|j| clock(&self.pauses[j].step));
        let after = self.pauses.get(i).map(|p| clock(&p.step));
        let nominal = clock(&self.nominal);
        match (before, after) {
            (Some(a), Some(b)) => 0.5 * (a + b) / nominal,
            (Some(a), None) | (None, Some(a)) => a / nominal,
            (None, None) => 1.0,
        }
    }

    /// The interval `[a, b]` of the round on the reference clock.
    pub fn span(&self, a: f64, b: f64) -> Span {
        let (mut ran_s, mut reference_s, mut cpu_s) = (0.0, 0.0, 0.0);
        let mut from = f64::NEG_INFINITY;
        for i in 0..=self.pauses.len() {
            let pause = self.pauses.get(i);
            let until = pause.map_or(f64::INFINITY, |p| p.stop);
            let len = (b.min(until) - a.max(from)).max(0.0);
            ran_s += len;
            reference_s += len / self.dilation(i, |s| s.wall_s);
            cpu_s += len / self.dilation(i, |s| s.cpu_s);
            from = pause.map_or(f64::INFINITY, |p| p.cont);
        }
        Span {
            ran_s,
            reference_s,
            cpu_scale: if ran_s > 0.0 { cpu_s / ran_s } else { 1.0 },
        }
    }

    /// Reference seconds between `a` and `b`.
    pub fn elapsed(&self, a: f64, b: f64) -> f64 {
        self.span(a, b).reference_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pauses `(stop, cont, wall seconds of the step)`; the step's CPU time
    /// is twice its wall time, nominal 0.1 s and 0.2 s.
    fn timeline(pauses: &[(f64, f64, f64)]) -> Timeline {
        let mut t = Timeline::new(Step {
            wall_s: 0.1,
            cpu_s: 0.2,
        });
        for &(stop, cont, wall_s) in pauses {
            let step = Step {
                wall_s,
                cpu_s: 2.0 * wall_s,
            };
            t.push(Pause { stop, cont, step });
        }
        t
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn without_pauses_reference_time_is_wall_time() {
        let span = timeline(&[]).span(1.0, 3.5);
        assert_eq!(
            (span.ran_s, span.reference_s, span.cpu_scale),
            (2.5, 2.5, 1.0)
        );
    }

    #[test]
    fn pauses_are_left_out_and_slices_divided_by_their_dilation() {
        // Machine at nominal speed up to the pause at 10, half speed after
        // the one at 20.
        let t = timeline(&[(0.0, 1.0, 0.1), (10.0, 11.0, 0.1), (20.0, 21.0, 0.2)]);
        // Inside one slice at nominal speed.
        let span = t.span(2.0, 6.0);
        assert_eq!(
            (span.ran_s, span.reference_s, span.cpu_scale),
            (4.0, 4.0, 1.0)
        );
        // Across the pause at 10: 2 s at dilation 1, then 3 s at 1.5.
        let span = t.span(8.0, 14.0);
        assert!(close(span.ran_s, 5.0));
        assert!(close(span.reference_s, 2.0 + 3.0 / 1.5));
        assert!(close(span.cpu_scale, (2.0 + 3.0 / 1.5) / 5.0));
        // After the last pause only the step before the slice is known.
        assert!(close(t.elapsed(22.0, 24.0), 1.0));
        // An interval inside a pause did not run at all.
        assert_eq!(t.span(10.2, 10.8).ran_s, 0.0);
    }

    #[test]
    fn a_uniformly_slower_machine_reads_the_same() {
        // The same round on a machine twice as slow: every interval and
        // every reference step doubles, reference time does not move.
        let fast = timeline(&[(0.0, 0.1, 0.1), (0.5, 0.6, 0.1), (1.0, 1.1, 0.1)]);
        let slow = timeline(&[(0.0, 0.2, 0.2), (1.0, 1.2, 0.2), (2.0, 2.2, 0.2)]);
        let (f, s) = (fast.elapsed(0.2, 0.9), slow.elapsed(0.4, 1.8));
        assert!(close(f, s), "{f} vs {s}");
    }

    #[test]
    fn a_stolen_core_stretches_wall_time_only() {
        // Steps that take twice the wall time but the nominal CPU time:
        // durations halve, CPU seconds stay as they are.
        let mut t = Timeline::new(Step {
            wall_s: 0.1,
            cpu_s: 0.2,
        });
        for (stop, cont) in [(0.0, 0.2), (1.0, 1.2)] {
            let step = Step {
                wall_s: 0.2,
                cpu_s: 0.2,
            };
            t.push(Pause { stop, cont, step });
        }
        let span = t.span(0.2, 1.0);
        assert!(close(span.reference_s, 0.4));
        assert!(close(span.cpu_scale, 1.0));
    }
}

//! In-memory checkpoint generations under assembly: the one structure the
//! rank threads of a run share besides their wires, because the rank whose
//! state completes a generation is the one that commits it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use super::logs::{ThreadState, TrainSnapshot};
use super::spec::ThreadKey;

/// Collects each rank's [`ThreadState`] per generation (the iteration a
/// resumed run would start at). Ranks drift by at most a pipeline flush, so
/// only a generation every rank has reached is restorable. Every rank adds
/// its generations in ascending order, so once one is complete every older
/// one is too and is dropped: what is held is the newest complete
/// generation plus the few still being assembled, however long the run.
pub(crate) struct GenerationAssembler {
    world: usize,
    generations: Mutex<BTreeMap<usize, HashMap<ThreadKey, ThreadState>>>,
}

impl GenerationAssembler {
    pub(crate) fn new(world: usize) -> Self {
        GenerationAssembler {
            world,
            generations: Mutex::default(),
        }
    }

    /// Add one rank's state. `true` if this state completed the generation
    /// — for exactly one caller per generation, the one that commits it.
    pub(crate) fn insert(&self, generation: usize, key: ThreadKey, state: ThreadState) -> bool {
        // A rank that panicked inside this lock left whole entries behind
        // (an insert either happened or did not), so survivors carry on.
        let mut generations = self.generations.lock().unwrap_or_else(|e| e.into_inner());
        let entry = generations.entry(generation).or_default();
        entry.insert(key, state);
        if entry.len() < self.world {
            return false;
        }
        generations.retain(|&g, _| g >= generation);
        true
    }

    /// The newest generation every rank reached, if any.
    pub(crate) fn into_newest_complete(self) -> Option<TrainSnapshot> {
        let generations = self
            .generations
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        let newest = generations
            .into_iter()
            .rfind(|(_, threads)| threads.len() == self.world);
        newest.map(|(next_iter, threads)| TrainSnapshot { next_iter, threads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(tag: f32) -> ThreadState {
        ThreadState {
            params: vec![tag],
            adam: Default::default(),
        }
    }

    #[test]
    fn holds_a_constant_number_of_generations_however_many_complete() {
        let asm = GenerationAssembler::new(2);
        for g in 1..=50 {
            // Rank 0 runs a generation ahead of rank 1, as after a flush.
            assert!(!asm.insert(g + 1, (0, 0, 0), state(g as f32)));
            if g == 1 {
                continue;
            }
            assert!(
                asm.insert(g, (0, 1, 0), state(-(g as f32))),
                "rank 1 completes the generation rank 0 left"
            );
            let held = asm.generations.lock().unwrap();
            assert_eq!(held[&g][&(0, 0, 0)].params, vec![(g - 1) as f32]);
            let held: Vec<usize> = held.keys().copied().collect();
            assert_eq!(held, vec![g, g + 1], "newest complete + one in flight");
        }
        let snap = asm.into_newest_complete().expect("a complete generation");
        assert_eq!(snap.next_iter, 50);
        assert_eq!(snap.threads[&(0, 1, 0)].params, vec![-50.0]);
    }

    #[test]
    fn a_generation_some_rank_never_reached_is_not_a_snapshot() {
        let asm = GenerationAssembler::new(2);
        assert!(!asm.insert(2, (0, 0, 0), state(1.0)));
        assert!(asm.into_newest_complete().is_none());
    }
}

//! The event-driven DAG executor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use crate::Time;

/// Handle to a resource registered with a [`DagSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Raw index of the resource (dense, in registration order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a task registered with a [`DagSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Raw index of the task (dense, in registration order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

struct Task {
    resource: ResourceId,
    duration: Time,
    /// Number of predecessors not yet completed.
    pending_deps: u32,
    /// User-defined classification code (e.g. compute vs all-reduce vs p2p).
    kind: u32,
}

struct Resource {
    name: String,
    /// Tasks ready to run, FIFO in readiness order (deterministic: events are
    /// processed in (time, sequence) order, so readiness order is total).
    ready: VecDeque<TaskId>,
    /// Currently executing task and its dispatch time.
    busy: Option<(TaskId, Time)>,
    busy_total: Time,
    tasks_run: u64,
}

/// Start/end record for one executed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// The executed task.
    pub task: TaskId,
    /// Resource the task ran on.
    pub resource: ResourceId,
    /// Simulated start time.
    pub start: Time,
    /// Simulated end time (`start + duration`).
    pub end: Time,
    /// User classification code given at [`DagSim::add_task`] time.
    pub kind: u32,
}

/// Per-resource utilization statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceStats {
    /// Name given at registration.
    pub name: String,
    /// Total simulated time the resource spent executing tasks.
    pub busy: Time,
    /// Number of tasks executed.
    pub tasks_run: u64,
}

/// Outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Completion time of the last task (0 for an empty DAG).
    pub makespan: Time,
    /// One span per task, in completion order.
    pub spans: Vec<TaskSpan>,
    /// Utilization per resource, indexed by [`ResourceId::index`].
    pub resources: Vec<ResourceStats>,
}

impl SimResult {
    /// Completion time of a specific task.
    ///
    /// Linear scan; prefer [`SimResult::finish_times`] for bulk queries.
    pub fn finish_of(&self, task: TaskId) -> Option<Time> {
        self.spans.iter().find(|s| s.task == task).map(|s| s.end)
    }

    /// Finish time of every task, indexed by [`TaskId::index`].
    pub fn finish_times(&self) -> Vec<Time> {
        let mut out = vec![0; self.spans.len()];
        for s in &self.spans {
            out[s.task.index()] = s.end;
        }
        out
    }

    /// Sum of busy time over a set of resources divided by (makespan × count):
    /// the mean utilization of that resource set.
    pub fn utilization(&self, resources: &[ResourceId]) -> f64 {
        if self.makespan == 0 || resources.is_empty() {
            return 0.0;
        }
        let busy: u128 = resources
            .iter()
            .map(|r| self.resources[r.index()].busy as u128)
            .sum();
        busy as f64 / (self.makespan as f64 * resources.len() as f64)
    }

    /// Total busy time attributed to each task `kind` code over the whole run.
    pub fn busy_by_kind(&self) -> std::collections::BTreeMap<u32, Time> {
        let mut map = std::collections::BTreeMap::new();
        for s in &self.spans {
            *map.entry(s.kind).or_insert(0) += s.end - s.start;
        }
        map
    }
}

/// Errors detected when executing a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The DAG contains a dependency cycle (or a dependency on a task that
    /// never completes); `completed` tasks finished before the deadlock.
    Deadlock {
        /// Number of tasks that completed before progress stopped.
        completed: usize,
        /// Total number of tasks in the DAG.
        total: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { completed, total } => write!(
                f,
                "simulation deadlocked: {completed}/{total} tasks completed (dependency cycle)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A discrete-event simulator executing a task DAG over exclusive resources.
///
/// Build the DAG with [`DagSim::add_resource`] / [`DagSim::add_task`], then
/// call [`DagSim::run`]. Deterministic: identical inputs produce identical
/// spans.
///
/// ```
/// use megatron_sim::DagSim;
/// let mut sim = DagSim::new();
/// let cpu = sim.add_resource("cpu");
/// let a = sim.add_task(cpu, 10, &[], 0);
/// let b = sim.add_task(cpu, 5, &[a], 0);
/// let result = sim.run().unwrap();
/// assert_eq!(result.makespan, 15);
/// assert_eq!(result.finish_of(b), Some(15));
/// ```
#[derive(Default)]
pub struct DagSim {
    tasks: Vec<Task>,
    /// Successor adjacency: succs[t] = tasks depending on t.
    succs: Vec<Vec<TaskId>>,
    resources: Vec<Resource>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A task's dependencies are all satisfied; enqueue on its resource.
    Ready(TaskId),
    /// The task currently running on this resource finished.
    Finished(ResourceId, TaskId),
}

impl DagSim {
    /// Create an empty simulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new exclusive resource.
    pub fn add_resource(&mut self, name: impl Into<String>) -> ResourceId {
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(Resource {
            name: name.into(),
            ready: VecDeque::new(),
            busy: None,
            busy_total: 0,
            tasks_run: 0,
        });
        id
    }

    /// Register a task occupying `resource` for `duration`, runnable once all
    /// of `deps` have completed. `kind` is an arbitrary user classification
    /// code carried into the resulting [`TaskSpan`]s.
    pub fn add_task(
        &mut self,
        resource: ResourceId,
        duration: Time,
        deps: &[TaskId],
        kind: u32,
    ) -> TaskId {
        assert!(
            resource.index() < self.resources.len(),
            "unknown resource {resource:?}"
        );
        let id = TaskId(u32::try_from(self.tasks.len()).expect("too many tasks"));
        for &d in deps {
            assert!(
                d.index() < self.tasks.len(),
                "dependency on future task {d:?}"
            );
            self.succs[d.index()].push(id);
        }
        self.tasks.push(Task {
            resource,
            duration,
            pending_deps: u32::try_from(deps.len()).expect("too many deps"),
            kind,
        });
        self.succs.push(Vec::new());
        id
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of resources added so far.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Execute the DAG to completion.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        // (time, sequence) keyed min-heap; sequence makes ordering total and
        // deterministic.
        let mut heap: BinaryHeap<Reverse<(Time, u64, Event)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let push = |heap: &mut BinaryHeap<Reverse<(Time, u64, Event)>>,
                    seq: &mut u64,
                    t: Time,
                    e: Event| {
            heap.push(Reverse((t, *seq, e)));
            *seq += 1;
        };

        for (i, task) in self.tasks.iter().enumerate() {
            if task.pending_deps == 0 {
                push(&mut heap, &mut seq, 0, Event::Ready(TaskId(i as u32)));
            }
        }

        let total = self.tasks.len();
        let mut spans = Vec::with_capacity(total);
        let mut completed = 0usize;
        let mut makespan: Time = 0;

        while let Some(Reverse((now, _, event))) = heap.pop() {
            match event {
                Event::Ready(tid) => {
                    let rid = self.tasks[tid.index()].resource;
                    let res = &mut self.resources[rid.index()];
                    res.ready.push_back(tid);
                    if res.busy.is_none() {
                        Self::dispatch(&mut self.resources, &self.tasks, rid, now, &mut |t, e| {
                            push(&mut heap, &mut seq, t, e)
                        });
                    }
                }
                Event::Finished(rid, tid) => {
                    let task = &self.tasks[tid.index()];
                    let (_, start) = self.resources[rid.index()]
                        .busy
                        .expect("finished task was dispatched");
                    spans.push(TaskSpan {
                        task: tid,
                        resource: rid,
                        start,
                        end: now,
                        kind: task.kind,
                    });
                    self.resources[rid.index()].busy_total += now - start;
                    completed += 1;
                    makespan = makespan.max(now);
                    // Release successors.
                    for si in 0..self.succs[tid.index()].len() {
                        let succ = self.succs[tid.index()][si];
                        let dep = &mut self.tasks[succ.index()].pending_deps;
                        *dep -= 1;
                        if *dep == 0 {
                            push(&mut heap, &mut seq, now, Event::Ready(succ));
                        }
                    }
                    // Free the resource and dispatch the next ready task.
                    self.resources[rid.index()].busy = None;
                    Self::dispatch(&mut self.resources, &self.tasks, rid, now, &mut |t, e| {
                        push(&mut heap, &mut seq, t, e)
                    });
                }
            }
        }

        if completed != total {
            return Err(SimError::Deadlock { completed, total });
        }

        let resources = self
            .resources
            .into_iter()
            .map(|r| ResourceStats {
                name: r.name,
                busy: r.busy_total,
                tasks_run: r.tasks_run,
            })
            .collect();

        Ok(SimResult {
            makespan,
            spans,
            resources,
        })
    }

    fn dispatch(
        resources: &mut [Resource],
        tasks: &[Task],
        rid: ResourceId,
        now: Time,
        push: &mut impl FnMut(Time, Event),
    ) {
        let res = &mut resources[rid.index()];
        debug_assert!(res.busy.is_none());
        if let Some(tid) = res.ready.pop_front() {
            let end = now + tasks[tid.index()].duration;
            res.busy = Some((tid, now));
            res.tasks_run += 1;
            push(end, Event::Finished(rid, tid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dag() {
        let sim = DagSim::new();
        let r = sim.run().unwrap();
        assert_eq!(r.makespan, 0);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn serial_chain_on_one_resource() {
        let mut sim = DagSim::new();
        let r = sim.add_resource("r");
        let mut prev: Option<TaskId> = None;
        for _ in 0..10 {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(sim.add_task(r, 7, &deps, 0));
        }
        let res = sim.run().unwrap();
        assert_eq!(res.makespan, 70);
        assert_eq!(res.resources[0].busy, 70);
        assert_eq!(res.resources[0].tasks_run, 10);
    }

    #[test]
    fn independent_tasks_on_one_resource_serialize() {
        let mut sim = DagSim::new();
        let r = sim.add_resource("r");
        for _ in 0..5 {
            sim.add_task(r, 3, &[], 0);
        }
        let res = sim.run().unwrap();
        assert_eq!(res.makespan, 15);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_parallelize() {
        let mut sim = DagSim::new();
        for i in 0..5 {
            let r = sim.add_resource(format!("r{i}"));
            sim.add_task(r, 3, &[], 0);
        }
        let res = sim.run().unwrap();
        assert_eq!(res.makespan, 3);
    }

    #[test]
    fn diamond_dependency() {
        let mut sim = DagSim::new();
        let r0 = sim.add_resource("a");
        let r1 = sim.add_resource("b");
        let src = sim.add_task(r0, 2, &[], 0);
        let left = sim.add_task(r0, 5, &[src], 0);
        let right = sim.add_task(r1, 3, &[src], 0);
        let sink = sim.add_task(r1, 1, &[left, right], 0);
        let res = sim.run().unwrap();
        // src ends at 2; left ends at 7; right ends at 5; sink runs 7..8.
        assert_eq!(res.finish_of(sink), Some(8));
        assert_eq!(res.makespan, 8);
    }

    #[test]
    fn fifo_order_is_readiness_order() {
        let mut sim = DagSim::new();
        let fast = sim.add_resource("fast");
        let slow = sim.add_resource("slow");
        // Two feeder tasks finishing at t=1 and t=2 feed tasks on `slow`.
        let f1 = sim.add_task(fast, 1, &[], 0);
        let f2 = sim.add_task(fast, 1, &[f1], 0);
        let late = sim.add_task(slow, 10, &[f2], 1); // ready at 2
        let early = sim.add_task(slow, 10, &[f1], 2); // ready at 1
        let res = sim.run().unwrap();
        // `early` became ready first so it runs first.
        assert_eq!(res.finish_of(early), Some(11));
        assert_eq!(res.finish_of(late), Some(21));
    }

    #[test]
    fn deterministic_tie_break_by_insertion() {
        // Both ready at t=0 on the same resource: insertion order wins.
        let mut sim = DagSim::new();
        let r = sim.add_resource("r");
        let a = sim.add_task(r, 4, &[], 0);
        let b = sim.add_task(r, 4, &[], 0);
        let res = sim.run().unwrap();
        assert_eq!(res.finish_of(a), Some(4));
        assert_eq!(res.finish_of(b), Some(8));
    }

    #[test]
    fn deadlock_detected() {
        // A task depending on itself is impossible to express through the
        // API (deps must precede), so model deadlock by a never-satisfied
        // dependency: a cycle needs two phases. Build a -> b and then
        // fabricate the cycle by hand is not possible; instead check that a
        // dependent of an unrunnable chain reports Deadlock via a resource
        // holding a task that depends on its own successor is unbuildable.
        // The reachable failure mode: task depends on a task that never
        // completes because *it* deadlocks. With the builder API all DAGs are
        // acyclic, so run() cannot deadlock; assert that instead.
        let mut sim = DagSim::new();
        let r = sim.add_resource("r");
        let a = sim.add_task(r, 1, &[], 0);
        let _b = sim.add_task(r, 1, &[a], 0);
        assert!(sim.run().is_ok());
    }

    #[test]
    fn busy_by_kind_accumulates() {
        let mut sim = DagSim::new();
        let r = sim.add_resource("r");
        sim.add_task(r, 5, &[], 7);
        sim.add_task(r, 3, &[], 7);
        sim.add_task(r, 2, &[], 9);
        let res = sim.run().unwrap();
        let by = res.busy_by_kind();
        assert_eq!(by[&7], 8);
        assert_eq!(by[&9], 2);
    }

    #[test]
    fn utilization_of_half_busy_resource() {
        let mut sim = DagSim::new();
        let a = sim.add_resource("a");
        let b = sim.add_resource("b");
        let t = sim.add_task(a, 10, &[], 0);
        sim.add_task(b, 5, &[t], 0);
        let res = sim.run().unwrap();
        assert_eq!(res.makespan, 15);
        let u = res.utilization(&[a, b]);
        assert!((u - (10.0 + 5.0) / 30.0).abs() < 1e-12);
    }

    #[test]
    fn finish_times_indexes_by_task() {
        let mut sim = DagSim::new();
        let r = sim.add_resource("r");
        let a = sim.add_task(r, 2, &[], 0);
        let b = sim.add_task(r, 3, &[a], 0);
        let res = sim.run().unwrap();
        let f = res.finish_times();
        assert_eq!(f[a.index()], 2);
        assert_eq!(f[b.index()], 5);
    }
}

//! Benchmark-owned spans: recorded from the benchmark's side of each call
//! into a layer's public functions, kept in memory, and written as a Chrome
//! trace when the run ends. Spans inside the trainer are the trainer's own
//! (`megatron_telemetry`); the two are merged into one file per workload.

use std::time::Instant;

use megatron_sim::json::Json;

use crate::stats::median;

/// Timed calls a probe takes even when over its time budget.
const PROBE_MIN_CALLS: usize = 2;

/// Untimed and timed calls per probe.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub warmup: usize,
    pub calls: usize,
}

impl Reps {
    pub const FULL: Reps = Reps {
        warmup: 2,
        calls: 15,
    };
    /// `--smoke`: one call per probe.
    pub const SMOKE: Reps = Reps {
        warmup: 0,
        calls: 1,
    };
}

/// One span: name, start, end, and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

/// In-memory span log of one workload.
pub struct SpanLog {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(workload: &'static str) -> SpanLog {
        SpanLog {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.now_us();
        (self.spans[id].end_us - self.spans[id].start_us) / 1e6
    }

    /// Time one call of `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// A probe: `warmup` untimed calls, then `calls` timed ones, each a
    /// child span of one `name` span. Returns the median call time in
    /// seconds. With a `budget_s`, a probe whose calls are slow warms up
    /// once and stops when it has spent that long and made
    /// [`PROBE_MIN_CALLS`] timed calls.
    pub fn probe(
        &mut self,
        name: &str,
        reps: Reps,
        budget_s: Option<f64>,
        mut f: impl FnMut(),
    ) -> f64 {
        let parent = self.open(name, None);
        let warmup = if budget_s.is_some() {
            reps.warmup.min(1)
        } else {
            reps.warmup
        };
        for _ in 0..warmup {
            f();
        }
        let mut times = Vec::with_capacity(reps.calls);
        while times.len() < reps.calls {
            times.push(self.time("call", Some(parent), &mut f).1);
            let spent = (self.now_us() - self.spans[parent].start_us) / 1e6;
            if budget_s.is_some_and(|b| spent > b) && times.len() >= PROBE_MIN_CALLS {
                break;
            }
        }
        self.close(parent);
        median(&times)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e6)
            .collect()
    }

    /// Chrome trace events (`ph: "X"`), one row for the whole log.
    pub fn chrome_events(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str("benchmark".into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.end_us - s.start_us)),
                    ("pid", Json::Num(0.0)),
                    ("tid", Json::Num(0.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::Str(self.workload.into())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Arr(events)
    }
}

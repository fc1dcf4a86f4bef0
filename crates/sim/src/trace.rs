//! Trace export and ASCII visualization of simulation results.
//!
//! The Chrome `about:tracing` / Perfetto JSON event format: a generic task
//! DAG exports here ([`chrome_trace_json`]), and `megatron-telemetry`
//! lowers the trainer's spans — and the `megatron-core` twin's — to the
//! same [`TraceEvent`] and serializes them with [`events_json`].

use crate::engine::{SimResult, TaskSpan};
use crate::json::Json;
use crate::time_to_secs;

/// One Chrome-trace event: a complete span (`ph = "X"`) or process
/// metadata (`ph = "M"`). The unified event type both exporters (simulated
/// and real) serialize through, including per-event `args` (byte volumes,
/// microbatch ids, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Display name.
    pub name: String,
    /// Category (`"sim"`, `"fwd"`, `"comm"`, ...).
    pub cat: String,
    /// Chrome phase: `"X"` complete span, `"M"` metadata.
    pub ph: &'static str,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (spans only).
    pub dur_us: Option<f64>,
    /// Process id row group.
    pub pid: usize,
    /// Thread id row within the process.
    pub tid: usize,
    /// Extra key/value payload rendered under the event in the viewer.
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    /// A complete span (`ph = "X"`).
    pub fn span(name: impl Into<String>, cat: impl Into<String>, ts_us: f64, dur_us: f64) -> Self {
        TraceEvent {
            name: name.into(),
            cat: cat.into(),
            ph: "X",
            ts_us,
            dur_us: Some(dur_us),
            pid: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A `process_name` metadata event labelling `pid` in the viewer.
    pub fn process_name(pid: usize, label: impl Into<String>) -> Self {
        TraceEvent {
            name: "process_name".to_string(),
            cat: "__metadata".to_string(),
            ph: "M",
            ts_us: 0.0,
            dur_us: None,
            pid,
            tid: 0,
            args: vec![("name".to_string(), Json::from(label.into()))],
        }
    }

    /// Set the pid/tid placement.
    #[must_use]
    pub fn at(mut self, pid: usize, tid: usize) -> Self {
        self.pid = pid;
        self.tid = tid;
        self
    }

    /// Append one args entry.
    #[must_use]
    pub fn arg(mut self, key: &str, value: Json) -> Self {
        self.args.push((key.to_string(), value));
        self
    }

    /// Lower to the Chrome-trace JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name", Json::from(self.name.as_str())),
            ("cat", Json::from(self.cat.as_str())),
            ("ph", Json::from(self.ph)),
            ("ts", Json::from(self.ts_us)),
            ("pid", Json::from(self.pid)),
            ("tid", Json::from(self.tid)),
        ];
        if let Some(d) = self.dur_us {
            obj.push(("dur", Json::from(d)));
        }
        if !self.args.is_empty() {
            obj.push((
                "args",
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ));
        }
        let mut map = std::collections::BTreeMap::new();
        for (k, v) in obj {
            map.insert(k.to_string(), v);
        }
        Json::Obj(map)
    }
}

/// Serialize a batch of events as the Chrome JSON array format.
pub fn events_json(events: &[TraceEvent]) -> String {
    Json::Arr(events.iter().map(TraceEvent::to_json).collect()).to_string()
}

/// Serialize spans in the Chrome `about:tracing` / Perfetto JSON array
/// format. `names` maps each task `kind` code to a display name; unknown
/// kinds render as `kind-N`.
pub fn chrome_trace_json(result: &SimResult, names: &dyn Fn(u32) -> String) -> String {
    let events: Vec<TraceEvent> = result
        .spans
        .iter()
        .map(|s| {
            TraceEvent::span(
                names(s.kind),
                "sim",
                s.start as f64 / 1e3, // chrome trace wants microseconds
                (s.end - s.start) as f64 / 1e3,
            )
            .at(0, s.resource.index())
        })
        .collect();
    events_json(&events)
}

/// Render an ASCII Gantt chart of the run: one row per resource, `width`
/// character columns spanning the makespan. `glyph` maps a span to the
/// character drawn for it (e.g. microbatch digit for pipeline schedules);
/// idle time renders as `.`.
pub fn render_gantt(result: &SimResult, width: usize, glyph: &dyn Fn(&TaskSpan) -> char) -> String {
    let n_res = result.resources.len();
    if result.makespan == 0 || n_res == 0 || width == 0 {
        return String::new();
    }
    let mut rows = vec![vec!['.'; width]; n_res];
    let scale = width as f64 / result.makespan as f64;
    for s in &result.spans {
        let c0 = ((s.start as f64 * scale) as usize).min(width - 1);
        let c1 = (((s.end as f64 * scale).ceil() as usize).max(c0 + 1)).min(width);
        let ch = glyph(s);
        let row = &mut rows[s.resource.index()];
        for cell in row.iter_mut().take(c1).skip(c0) {
            *cell = ch;
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let name = &result.resources[i].name;
        out.push_str(&format!("{name:>12} |"));
        out.extend(row.iter());
        out.push('|');
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>12}  makespan = {:.3} ms\n",
        "",
        time_to_secs(result.makespan) * 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagSim;

    fn two_task_result() -> SimResult {
        let mut sim = DagSim::new();
        let a = sim.add_resource("gpu0");
        let b = sim.add_resource("gpu1");
        let t = sim.add_task(a, 100, &[], 1);
        sim.add_task(b, 50, &[t], 2);
        sim.run().unwrap()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_spans() {
        let r = two_task_result();
        let s = chrome_trace_json(&r, &|k| format!("k{k}"));
        let v = Json::parse(&s).unwrap();
        assert_eq!(v.as_array().unwrap().len(), 2);
        assert_eq!(v[0]["name"].as_str(), Some("k1"));
        assert_eq!(v[0]["ph"].as_str(), Some("X"));
    }

    #[test]
    fn trace_event_builder_round_trips() {
        let ev = TraceEvent::span("fwd", "fwd", 1.5, 2.5)
            .at(3, 4)
            .arg("microbatch", Json::from(7usize));
        let v = Json::parse(&events_json(std::slice::from_ref(&ev))).unwrap();
        assert_eq!(v[0]["name"].as_str(), Some("fwd"));
        assert_eq!(v[0]["ts"].as_f64(), Some(1.5));
        assert_eq!(v[0]["dur"].as_f64(), Some(2.5));
        assert_eq!(v[0]["pid"].as_f64(), Some(3.0));
        assert_eq!(v[0]["tid"].as_f64(), Some(4.0));
        assert_eq!(v[0]["args"]["microbatch"].as_f64(), Some(7.0));
        // Metadata events label processes.
        let m = TraceEvent::process_name(3, "rank 3");
        let v = Json::parse(&events_json(&[m])).unwrap();
        assert_eq!(v[0]["ph"].as_str(), Some("M"));
        assert_eq!(v[0]["args"]["name"].as_str(), Some("rank 3"));
    }

    #[test]
    fn gantt_has_one_row_per_resource() {
        let r = two_task_result();
        let g = render_gantt(&r, 30, &|s| char::from_digit(s.kind, 10).unwrap());
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3); // 2 resources + footer
        assert!(lines[0].contains('1'));
        assert!(lines[1].contains('2'));
        // gpu1 idle for first 2/3 of the chart.
        assert!(lines[1].contains('.'));
    }

    #[test]
    fn gantt_empty_result_is_empty() {
        let r = DagSim::new().run().unwrap();
        assert_eq!(render_gantt(&r, 30, &|_| 'x'), "");
    }
}

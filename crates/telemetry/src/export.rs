//! Exporter: Chrome/Perfetto trace JSON.
//!
//! Spans lower to `megatron-sim`'s [`TraceEvent`] format. Placement: `pid =
//! 1 + flat rank`, `tid = p` for compute/optimizer/checkpoint/bubble spans
//! and `tid = P + p` for communication spans, where `p` is the rank's
//! pipeline-stage index and `P` the stage count — so every rank's compute
//! and comm rows line up by stage. The simulator twin records its devices
//! as ranks `(dev, 0, 0)` through the same exporter, so a real run and its
//! twin open side by side and one analyzer reads both.

use megatron_sim::json::Json;
use megatron_sim::{events_json, TraceEvent};

use crate::span::{RankTrace, SpanKind, TraceHub};

/// Chrome trace pid for a flat rank (pids count from 1).
pub fn rank_pid(rank: usize) -> usize {
    1 + rank
}

/// Lower one rank's spans to trace events.
fn rank_events(trace: &RankTrace, pipeline_stages: usize, out: &mut Vec<TraceEvent>) {
    let (pi, di, ti) = trace.key;
    let pid = rank_pid(trace.rank);
    out.push(TraceEvent::process_name(
        pid,
        format!("rank{} (p{pi},d{di},t{ti})", trace.rank),
    ));
    for s in &trace.spans {
        let tid = match s.kind {
            SpanKind::Comm => pipeline_stages + pi,
            _ => pi,
        };
        let mut ev = TraceEvent::span(
            s.name,
            s.kind.category(),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
        )
        .at(pid, tid)
        .arg("iteration", Json::Num(s.iteration as f64))
        .arg("epoch", Json::Num(s.epoch as f64));
        if let Some(b) = s.args.bytes {
            ev = ev.arg("bytes", Json::Num(b));
        }
        if let Some(m) = s.args.microbatch {
            ev = ev.arg("microbatch", Json::Num(m as f64));
        }
        if let Some(c) = s.args.chunk {
            ev = ev.arg("chunk", Json::Num(c as f64));
        }
        out.push(ev);
    }
}

/// Export every published rank's spans as Chrome trace JSON.
/// `pipeline_stages` is the schedule's `p`, used for comm-row tids.
pub fn chrome_trace_json(hub: &TraceHub, pipeline_stages: usize) -> String {
    let mut events = Vec::new();
    for trace in hub.ranks() {
        rank_events(&trace, pipeline_stages, &mut events);
    }
    events_json(&events)
}

/// Merge several Chrome traces (each a JSON event array, e.g. one
/// `rank-R.trace.json` per rank process of a `repro launch` run) into one
/// trace. Rank pids never collide — every rank's events already carry
/// `pid = `[`rank_pid`]`(flat rank)` regardless of which process lowered
/// them — so the merge is event-array concatenation in input order, and
/// the merged file opens in one viewer with every rank's rows in place.
pub fn merge_chrome_traces<'a>(parts: impl IntoIterator<Item = &'a str>) -> Result<String, String> {
    let mut events = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        match Json::parse(part) {
            Ok(Json::Arr(evs)) => events.extend(evs),
            Ok(_) => return Err(format!("trace part {i}: not a JSON event array")),
            Err(e) => return Err(format!("trace part {i}: {e:?}")),
        }
    }
    Ok(Json::Arr(events).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanArgs};

    fn hub_with_spans() -> std::sync::Arc<TraceHub> {
        let hub = TraceHub::new();
        let tr = hub.tracer(2, (1, 0, 0));
        for (kind, name, dur) in [
            (SpanKind::Forward, "forward", 6u64),
            (SpanKind::Comm, "p2p-send-fwd", 2),
            (SpanKind::Bubble, "pipeline-wait", 2),
        ] {
            tr.push(Span {
                kind,
                name,
                start_ns: 0,
                dur_ns: dur * 1_000_000_000,
                iteration: 1,
                epoch: 0,
                args: SpanArgs::bytes(128.0),
            });
        }
        drop(tr);
        hub
    }

    #[test]
    fn chrome_export_places_ranks_as_pids() {
        let hub = hub_with_spans();
        let s = chrome_trace_json(&hub, 2);
        let v = Json::parse(&s).unwrap();
        let events = v.as_array().unwrap();
        // metadata + 3 spans
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        assert_eq!(events[0]["args"]["name"].as_str(), Some("rank2 (p1,d0,t0)"));
        let fwd = &events[1];
        assert_eq!(fwd["pid"].as_f64(), Some(3.0)); // rank 2 → pid 3
        assert_eq!(fwd["tid"].as_f64(), Some(1.0)); // compute row = pi
        assert_eq!(fwd["cat"].as_str(), Some("fwd"));
        assert_eq!(fwd["args"]["bytes"].as_f64(), Some(128.0));
        let comm = &events[2];
        assert_eq!(comm["tid"].as_f64(), Some(3.0)); // comm row = P + pi
    }
}

//! Exporter: Chrome/Perfetto trace JSON.
//!
//! Spans lower to `megatron-sim`'s [`TraceEvent`] format. Placement: `pid =
//! 1 + flat rank`, `tid = p` for compute/optimizer/checkpoint/bubble spans
//! and `tid = P + p` for communication spans, where `p` is the rank's
//! pipeline-stage index and `P` the stage count — so every rank's compute
//! and comm rows line up by stage. The simulator twin records its devices
//! as ranks `(dev, 0, 0)` through the same exporter, so a real run and its
//! twin open side by side and one analyzer reads both.
//!
//! Each rank's `process_name` metadata also states the hub's clock:
//! `args.host_epoch_us` is the host wall-clock time (µs since the Unix
//! epoch) its `ts = 0` stands for. Rank processes each start their own hub,
//! at different times; [`merge_chrome_traces`] shifts every part onto the
//! earliest one's clock.

use megatron_sim::json::Json;
use megatron_sim::{events_json, TraceEvent};

use crate::span::{RankTrace, SpanKind, TraceHub};

/// Chrome trace pid for a flat rank (pids count from 1).
pub fn rank_pid(rank: usize) -> usize {
    1 + rank
}

/// The `process_name` argument that states a trace's clock.
const HOST_EPOCH: &str = "host_epoch_us";

/// Lower one rank's spans to trace events, on a clock whose `ts = 0` is
/// `host_epoch_us` on the host's wall clock, if it is stated.
fn rank_events(
    trace: &RankTrace,
    pipeline_stages: usize,
    host_epoch_us: Option<f64>,
    out: &mut Vec<TraceEvent>,
) {
    let (pi, di, ti) = trace.key;
    let pid = rank_pid(trace.rank);
    let mut name = TraceEvent::process_name(pid, format!("rank{} (p{pi},d{di},t{ti})", trace.rank));
    if let Some(us) = host_epoch_us {
        name = name.arg(HOST_EPOCH, Json::Num(us));
    }
    out.push(name);
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
    let host_epoch_us = hub.wall_epoch().map(|e| e.as_nanos() as f64 / 1e3);
    let mut events = Vec::new();
    for trace in hub.ranks() {
        rank_events(&trace, pipeline_stages, host_epoch_us, &mut events);
    }
    events_json(&events)
}

/// Merge several Chrome traces (each a JSON event array, e.g. one
/// `rank-R.trace.json` per rank process of a `repro launch` run) into one
/// trace. Rank pids never collide — every rank's events already carry
/// `pid = `[`rank_pid`]`(flat rank)` regardless of which process lowered
/// them — so the events are concatenated in input order, and the merged
/// file opens in one viewer with every rank's rows in place.
///
/// The parts are put on one clock: a part whose metadata states its
/// `host_epoch_us` has every timestamp shifted by that epoch's distance
/// from the earliest stated one, and its stated epoch becomes that
/// earliest one, so a merged trace merges again unchanged. A part that
/// states no clock (the simulator's, or spans of another recorder) keeps
/// its timestamps.
pub fn merge_chrome_traces<'a>(parts: impl IntoIterator<Item = &'a str>) -> Result<String, String> {
    let mut clocked: Vec<(Vec<Json>, Option<f64>)> = Vec::new();
    for (i, part) in parts.into_iter().enumerate() {
        match Json::parse(part) {
            Ok(Json::Arr(evs)) => {
                let epoch = evs.iter().find_map(|ev| ev["args"][HOST_EPOCH].as_f64());
                clocked.push((evs, epoch));
            }
            Ok(_) => return Err(format!("trace part {i}: not a JSON event array")),
            Err(e) => return Err(format!("trace part {i}: {e:?}")),
        }
    }
    let base = clocked
        .iter()
        .filter_map(|(_, epoch)| *epoch)
        .reduce(f64::min);
    let mut events = Vec::new();
    for (evs, epoch) in clocked {
        let shift = epoch.zip(base).map_or(0.0, |(epoch, base)| epoch - base);
        for mut ev in evs {
            if let Json::Obj(fields) = &mut ev {
                let metadata = fields.get("ph").and_then(Json::as_str) == Some("M");
                if let (Some(Json::Num(ts)), false) = (fields.get_mut("ts"), metadata) {
                    *ts += shift;
                }
                if let Some(Json::Obj(args)) = fields.get_mut("args") {
                    if let (Some(Json::Num(at)), Some(base)) = (args.get_mut(HOST_EPOCH), base) {
                        *at = base;
                    }
                }
            }
            events.push(ev);
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

    /// A part of one rank whose clock starts at `epoch_us`, with one span
    /// at `ts`.
    fn part(rank: usize, epoch_us: f64, ts: f64) -> String {
        events_json(&[
            TraceEvent::process_name(rank_pid(rank), format!("rank{rank} (p0,d{rank},t0)"))
                .arg(HOST_EPOCH, Json::Num(epoch_us)),
            TraceEvent::span("forward", "fwd", ts, 5.0).at(rank_pid(rank), 0),
        ])
    }

    /// `(pid, ts)` of every span, and every stated epoch, of a trace.
    fn spans_and_epochs(trace: &str) -> (Vec<(f64, f64)>, Vec<f64>) {
        let v = Json::parse(trace).unwrap();
        let events = v.as_array().unwrap();
        let spans = events
            .iter()
            .filter(|ev| ev["ph"].as_str() == Some("X"))
            .map(|ev| (ev["pid"].as_f64().unwrap(), ev["ts"].as_f64().unwrap()))
            .collect();
        let epochs = events
            .iter()
            .filter_map(|ev| ev["args"][HOST_EPOCH].as_f64())
            .collect();
        (spans, epochs)
    }

    #[test]
    fn merge_lays_every_part_on_the_earliest_clock() {
        // Rank 0's hub started 1.5 ms after rank 1's; both spans began at
        // the same moment. A part with no clock keeps its timestamps.
        let early = 1_760_000_000_000_000.0;
        let late = part(0, early + 1_500.0, 10.0);
        let first = part(1, early, 1_510.0);
        let unclocked = events_json(&[TraceEvent::span("round", "bench", 7.0, 1.0)]);
        let merged =
            merge_chrome_traces([late.as_str(), first.as_str(), unclocked.as_str()]).unwrap();
        let (spans, epochs) = spans_and_epochs(&merged);
        assert_eq!(spans, [(1.0, 1_510.0), (2.0, 1_510.0), (0.0, 7.0)]);
        assert_eq!(epochs, [early, early]);
        // A merged trace is on one clock: merging it again moves nothing.
        assert_eq!(merge_chrome_traces([merged.as_str()]).unwrap(), merged);
        let ranks = merge_chrome_traces([late.as_str(), first.as_str()]).unwrap();
        assert_eq!(crate::parse_chrome_trace(&ranks, 1).unwrap().ranks.len(), 2);
    }

    #[test]
    fn hubs_started_apart_merge_onto_one_timeline() {
        let hubs = [TraceHub::new(), {
            std::thread::sleep(std::time::Duration::from_millis(5));
            TraceHub::new()
        }];
        let parts: Vec<String> = hubs
            .iter()
            .enumerate()
            .map(|(rank, hub)| {
                let tr = hub.tracer(rank, (0, rank, 0));
                tr.push(Span {
                    kind: SpanKind::Forward,
                    name: "forward",
                    start_ns: hub.now_ns(),
                    dur_ns: 1_000,
                    iteration: 0,
                    epoch: 0,
                    args: SpanArgs::default(),
                });
                drop(tr);
                chrome_trace_json(hub, 1)
            })
            .collect();
        let starts = |trace: &str| -> Vec<f64> {
            spans_and_epochs(trace)
                .0
                .iter()
                .map(|&(_, ts)| ts)
                .collect()
        };
        let apart = |ts: Vec<f64>| (ts[0] - ts[1]).abs();
        let unaligned: Vec<f64> = parts.iter().flat_map(|p| starts(p)).collect();
        assert!(apart(unaligned) >= 5_000.0);
        let merged = merge_chrome_traces(parts.iter().map(String::as_str)).unwrap();
        assert!(apart(starts(&merged)) < 1_000.0, "{merged}");
    }
}

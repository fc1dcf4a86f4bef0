//! `rank-R.out.json`: the report a rank process leaves its launcher — the
//! one place that knows the file's name and fields. Every `f32` travels as
//! its `u32` bit pattern, so the launcher's merge is exact.

use megatron_sim::json::Json;

use crate::comm::CommVolume;
use crate::trainer::{PtdpSpec, RankCommVolume, RankOutcome, ThreadKey};

/// What every report file's name ends with (the stale-rendezvous sweep
/// removes them by it).
pub(super) const FILE_SUFFIX: &str = ".out.json";

/// The report file of flat rank `rank`.
pub(super) fn file_name(rank: usize) -> String {
    format!("rank-{rank}{FILE_SUFFIX}")
}

/// One rank's parsed `rank-R.out.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// Thread coordinate.
    pub key: ThreadKey,
    /// OS pid of the rank process.
    pub pid: u32,
    /// Whether the process exited 0.
    pub exit_ok: bool,
    /// Display form of the rank's `TrainError`, if it failed.
    pub error: Option<String>,
    /// Per-iteration losses as this rank recorded them (only loss-owning
    /// ranks fill these; others report zeros).
    pub losses: Vec<f32>,
    /// Flattened final parameters of this rank's shard (bit-exact).
    pub params: Vec<f32>,
    /// Transport-measured comm volume.
    pub volume: RankCommVolume,
    /// Bytes the rank's comm-op tape implies it sent.
    pub tape_bytes: f64,
    /// Peak stashed-activation floats.
    pub peak_stash: usize,
    /// Completed step samples.
    pub steps: usize,
}

fn bits_json(xs: &[f32]) -> Json {
    Json::Arr(xs.iter().map(|v| Json::Num(v.to_bits() as f64)).collect())
}

fn bits_from(j: &Json) -> Vec<f32> {
    let bits = j.as_array().into_iter().flatten();
    bits.filter_map(Json::as_f64)
        .map(|b| f32::from_bits(b as u32))
        .collect()
}

fn volume_json(v: &CommVolume) -> Json {
    Json::obj([
        ("all_reduce", Json::Num(v.all_reduce_bytes)),
        ("all_gather", Json::Num(v.all_gather_bytes)),
        ("reduce_scatter", Json::Num(v.reduce_scatter_bytes)),
        ("broadcast", Json::Num(v.broadcast_bytes)),
        ("ops", Json::Num(v.ops as f64)),
    ])
}

fn volume_from(j: &Json) -> CommVolume {
    let num = |k: &str| j.get(k).as_f64().unwrap_or(0.0);
    CommVolume {
        all_reduce_bytes: num("all_reduce"),
        all_gather_bytes: num("all_gather"),
        reduce_scatter_bytes: num("reduce_scatter"),
        broadcast_bytes: num("broadcast"),
        ops: num("ops") as u64,
    }
}

impl RankOutput {
    /// This process's report of what its rank measured.
    pub(super) fn of(outcome: RankOutcome, spec: &PtdpSpec) -> RankOutput {
        let (_, di, ti) = outcome.key;
        RankOutput {
            key: outcome.key,
            pid: std::process::id(),
            exit_ok: outcome.error.is_none(),
            error: outcome.error.as_ref().map(ToString::to_string),
            losses: outcome.losses,
            params: outcome.params,
            volume: outcome.volume,
            tape_bytes: outcome.ops.total_bytes(spec.tensor, ti, spec.data, di),
            peak_stash: outcome.peak_stash,
            steps: outcome.steps,
        }
    }

    /// The file's text. `exit_ok` is not in it: the launcher sees the exit
    /// status itself.
    pub(super) fn encode(&self) -> String {
        let n = |x: usize| Json::Num(x as f64);
        let (pi, di, ti) = self.key;
        Json::obj([
            ("key", Json::Arr(vec![n(pi), n(di), n(ti)])),
            ("pid", Json::Num(self.pid as f64)),
            ("error", self.error.clone().map_or(Json::Null, Json::Str)),
            ("losses_bits", bits_json(&self.losses)),
            ("params_bits", bits_json(&self.params)),
            (
                "volume",
                Json::obj([
                    ("tensor", volume_json(&self.volume.tensor)),
                    ("data", volume_json(&self.volume.data)),
                    ("p2p_send_bytes", Json::Num(self.volume.p2p_send_bytes)),
                ]),
            ),
            ("tape_bytes", Json::Num(self.tape_bytes)),
            ("peak_stash", n(self.peak_stash)),
            ("steps", n(self.steps)),
        ])
        .to_string()
    }

    /// Parse a report; `None` if the text is not one (a rank killed
    /// mid-write leaves no file at all: reports are published by rename).
    pub(super) fn decode(text: String, exit_ok: bool) -> Option<RankOutput> {
        let j = Json::parse(&text).ok()?;
        // A report is mostly parameters: let the text go before the copy of
        // them is built, or the launcher's peak memory holds both.
        drop(text);
        let num = |k: &str| j.get(k).as_f64();
        let key = j.get("key").as_array()?;
        let coord = |i: usize| Some(key.get(i)?.as_f64()? as usize);
        let volume = j.get("volume");
        Some(RankOutput {
            key: (coord(0)?, coord(1)?, coord(2)?),
            pid: num("pid")? as u32,
            exit_ok,
            error: j.get("error").as_str().map(str::to_string),
            losses: bits_from(j.get("losses_bits")),
            params: bits_from(j.get("params_bits")),
            volume: RankCommVolume {
                tensor: volume_from(volume.get("tensor")),
                data: volume_from(volume.get("data")),
                p2p_send_bytes: volume.get("p2p_send_bytes").as_f64().unwrap_or(0.0),
            },
            tape_bytes: num("tape_bytes")?,
            peak_stash: num("peak_stash")? as usize,
            steps: num("steps")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_bit_exactly() {
        let volume = |seed: f64| CommVolume {
            all_reduce_bytes: seed * 1e9 + 0.5,
            all_gather_bytes: seed + 1.0,
            reduce_scatter_bytes: seed + 2.0,
            broadcast_bytes: seed + 3.0,
            ops: seed as u64 * 1000 + 7,
        };
        let out = RankOutput {
            key: (1, 0, 3),
            pid: 4_000_000_000,
            exit_ok: false,
            error: Some("collective failed: \"quoted\"\nsecond line".into()),
            losses: vec![0.0, -0.0, 2.5, f32::MIN_POSITIVE / 2.0],
            params: vec![f32::INFINITY, -1.0e-30, f32::from_bits(0x7fc0_1234), 3.0],
            volume: RankCommVolume {
                tensor: volume(3.0),
                data: volume(5.0),
                p2p_send_bytes: 12_345_678_912.0,
            },
            tape_bytes: 98_765_432_100.0,
            peak_stash: 1 << 40,
            steps: 12,
        };
        let back = RankOutput::decode(out.encode(), out.exit_ok).expect("parses");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.losses), bits(&out.losses), "-0.0 and subnormals");
        assert_eq!(
            bits(&back.params),
            bits(&out.params),
            "inf and NaN payloads"
        );
        // NaN != NaN, so compare the rest with the parameters set aside.
        let rest = |o: &RankOutput| RankOutput {
            params: Vec::new(),
            ..o.clone()
        };
        assert_eq!(rest(&back), rest(&out));

        let clean = RankOutput {
            error: None,
            exit_ok: true,
            ..rest(&out)
        };
        assert_eq!(RankOutput::decode(clean.encode(), true), Some(clean));
        assert_eq!(RankOutput::decode("{\"pid\": 1}".into(), true), None);
        assert_eq!(RankOutput::decode("not json".into(), true), None);
        assert_eq!(file_name(7), "rank-7.out.json");
    }
}

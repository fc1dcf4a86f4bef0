//! Perf-regression sentry: compares a current `BENCH_*.json` record (the
//! shared schema of [`crate::perf`]) against a committed baseline and
//! fails — with a readable per-metric delta table — when any metric moves
//! past its tolerance in the *bad* direction.
//!
//! Direction is inferred from the metric name, so every bench record the
//! repo emits works without per-file configuration:
//!
//! * **lower-better** (`*_s`, `*_ns`, `latency`, `seconds`, `drift`,
//!   `dropped`, `residual`, `error`, `lost`, `outage`): fail when the
//!   current value rises more than `tolerance` relative;
//! * **higher-better** (`goodput`, `throughput`, `tflops`, `per_sec`):
//!   fail when it falls more than `tolerance` relative;
//! * everything else (byte volumes, counts, shares) is **two-sided**:
//!   any relative move past `tolerance` fails, in either direction —
//!   a comm-volume "improvement" is a formula bug, not a win.
//!
//! Runs with different `config` sections are refused outright rather than
//! compared: a delta between unlike runs is noise, not signal.

use megatron_sim::json::Json;

/// Default relative tolerance when the caller doesn't pass one.
pub const DEFAULT_TOLERANCE: f64 = 0.2;

/// CLI usage string for `repro sentry`.
pub const USAGE: &str = "repro sentry --baseline <file|dir> --current <file|dir> \
[--tolerance <rel>]   compare BENCH_*.json records; nonzero exit on regression";

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerBetter,
    HigherBetter,
    TwoSided,
}

impl Direction {
    fn label(self) -> &'static str {
        match self {
            Direction::LowerBetter => "lower-better",
            Direction::HigherBetter => "higher-better",
            Direction::TwoSided => "two-sided",
        }
    }
}

/// Infer a metric's direction from its name.
fn classify(name: &str) -> Direction {
    let lower = [
        "latency", "seconds", "drift", "dropped", "residual", "error", "lost", "outage",
    ];
    let higher = ["goodput", "throughput", "tflops", "per_sec", "tput"];
    if higher.iter().any(|k| name.contains(k)) {
        return Direction::HigherBetter;
    }
    if name.ends_with("_s") || name.ends_with("_ns") || lower.iter().any(|k| name.contains(k)) {
        return Direction::LowerBetter;
    }
    Direction::TwoSided
}

/// One metric's comparison outcome.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative delta `(current − baseline) / max(|baseline|, ε)`.
    pub rel_delta: f64,
    /// Whether this metric regressed past tolerance.
    pub regressed: bool,
}

/// Comparison of one baseline/current record pair.
#[derive(Debug, Clone)]
pub struct SentryReport {
    /// The record's `bench` name.
    pub bench: String,
    /// Per-metric outcomes, sorted by name.
    pub deltas: Vec<MetricDelta>,
    /// Metrics present in the baseline but missing from the current run
    /// (each counts as a regression: a silently vanished metric hides
    /// whatever it used to measure).
    pub missing: Vec<String>,
}

impl SentryReport {
    /// Did every metric stay within tolerance?
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.deltas.iter().all(|d| !d.regressed)
    }

    /// Human-readable per-metric delta table.
    pub fn render(&self) -> String {
        let mut t = crate::table::Table::new([
            "metric",
            "baseline",
            "current",
            "delta",
            "direction",
            "verdict",
        ]);
        for d in &self.deltas {
            t.row([
                d.name.clone(),
                format!("{:.6}", d.baseline),
                format!("{:.6}", d.current),
                format!("{:+.1}%", 100.0 * d.rel_delta),
                classify(&d.name).label().to_string(),
                if d.regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]);
        }
        for m in &self.missing {
            t.row([
                m.clone(),
                "-".into(),
                "missing".into(),
                "-".into(),
                classify(m).label().to_string(),
                "REGRESSED".into(),
            ]);
        }
        format!("bench '{}':\n{}", self.bench, t.render())
    }
}

fn num_fields(v: &Json, section: &str) -> Result<Vec<(String, f64)>, String> {
    match &v[section] {
        Json::Obj(map) => Ok(map
            .iter()
            .filter_map(|(k, val)| val.as_f64().map(|x| (k.clone(), x)))
            .collect()),
        _ => Err(format!("record has no '{section}' object")),
    }
}

/// Compare one parsed baseline record against one current record.
///
/// `Err` means the comparison itself was refused (schema mismatch, unlike
/// configs); `Ok` carries the per-metric report — check
/// [`SentryReport::passed`].
pub fn compare(baseline: &Json, current: &Json, tolerance: f64) -> Result<SentryReport, String> {
    let bench = baseline["bench"]
        .as_str()
        .ok_or("baseline record has no 'bench' name")?;
    let cur_bench = current["bench"]
        .as_str()
        .ok_or("current record has no 'bench' name")?;
    if bench != cur_bench {
        return Err(format!(
            "refusing to compare unlike benches: baseline '{bench}' vs current '{cur_bench}'"
        ));
    }
    if baseline["schema_version"].as_f64() != current["schema_version"].as_f64() {
        return Err("refusing to compare records with different schema_version".into());
    }
    // Unlike configs produce meaningless deltas; refuse rather than warn.
    let base_cfg = num_fields(baseline, "config")?;
    let cur_cfg: std::collections::BTreeMap<String, f64> =
        num_fields(current, "config")?.into_iter().collect();
    for (k, bv) in &base_cfg {
        match cur_cfg.get(k) {
            Some(cv) if cv == bv => {}
            Some(cv) => {
                return Err(format!(
                    "refusing to compare unlike runs: config '{k}' is {bv} in baseline, {cv} in current"
                ))
            }
            None => return Err(format!("current run lacks config knob '{k}'")),
        }
    }

    let base_metrics = num_fields(baseline, "metrics")?;
    let cur_metrics: std::collections::BTreeMap<String, f64> =
        num_fields(current, "metrics")?.into_iter().collect();
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for (name, base) in base_metrics {
        let Some(&cur) = cur_metrics.get(&name) else {
            missing.push(name);
            continue;
        };
        // ε floors the denominator so near-zero baselines (residuals,
        // dropped-span counts) don't turn float dust into a regression.
        let rel = (cur - base) / base.abs().max(1e-9);
        let regressed = match classify(&name) {
            Direction::LowerBetter => rel > tolerance,
            Direction::HigherBetter => rel < -tolerance,
            Direction::TwoSided => rel.abs() > tolerance,
        };
        deltas.push(MetricDelta {
            name,
            baseline: base,
            current: cur,
            rel_delta: rel,
            regressed,
        });
    }
    Ok(SentryReport {
        bench: bench.to_string(),
        deltas,
        missing,
    })
}

fn load(path: &std::path::Path) -> Result<Json, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&body).map_err(|e| format!("parse {}: {e:?}", path.display()))
}

/// Compare a baseline file (or directory of `BENCH_*.json`) against the
/// current counterpart. Directory mode pairs files by name; a baseline
/// file with no current counterpart is a failure.
pub fn check_paths(
    baseline: &std::path::Path,
    current: &std::path::Path,
    tolerance: f64,
) -> Result<String, String> {
    let pairs: Vec<(std::path::PathBuf, std::path::PathBuf)> = if baseline.is_dir() {
        let mut v = Vec::new();
        let entries =
            std::fs::read_dir(baseline).map_err(|e| format!("read {}: {e}", baseline.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let name = entry.file_name();
            let n = name.to_string_lossy();
            if n.starts_with("BENCH_") && n.ends_with(".json") {
                v.push((entry.path(), current.join(&name)));
            }
        }
        v.sort();
        if v.is_empty() {
            return Err(format!(
                "no BENCH_*.json files under {}",
                baseline.display()
            ));
        }
        v
    } else {
        vec![(baseline.to_path_buf(), current.to_path_buf())]
    };

    let mut out = String::new();
    let mut failures = 0usize;
    for (b, c) in &pairs {
        if !c.exists() {
            out.push_str(&format!(
                "{}: current file missing — REGRESSED\n",
                c.display()
            ));
            failures += 1;
            continue;
        }
        let report = compare(&load(b)?, &load(c)?, tolerance)?;
        out.push_str(&report.render());
        if !report.passed() {
            failures += 1;
        }
    }
    out.push_str(&format!(
        "sentry: {} of {} record(s) within tolerance {tolerance}\n",
        pairs.len() - failures,
        pairs.len()
    ));
    if failures > 0 {
        Err(out)
    } else {
        Ok(out)
    }
}

/// `repro sentry` entry point.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\nusage: {USAGE}"))?;
        match flag {
            "--baseline" => baseline = Some(val.clone()),
            "--current" => current = Some(val.clone()),
            "--tolerance" => {
                tolerance = val
                    .parse()
                    .map_err(|_| format!("--tolerance wants a number, got '{val}'"))?
            }
            _ => return Err(format!("unknown flag '{flag}'\nusage: {USAGE}")),
        }
        i += 2;
    }
    let baseline = baseline.ok_or(format!("--baseline is required\nusage: {USAGE}"))?;
    let current = current.ok_or(format!("--current is required\nusage: {USAGE}"))?;
    check_paths(
        std::path::Path::new(&baseline),
        std::path::Path::new(&current),
        tolerance,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::bench_json;

    fn record(tput: f64, p99: f64) -> Json {
        bench_json(
            "recovery",
            vec![
                ("requests".into(), Json::Num(80.0)),
                ("tensor_parallel".into(), Json::Num(2.0)),
            ],
            vec![
                ("tokens_per_sec".into(), tput),
                ("p99_latency_s".into(), p99),
                ("spans_dropped".into(), 0.0),
            ],
        )
    }

    #[test]
    fn identical_records_pass() {
        let base = record(40.0, 0.25);
        let rep = compare(&base, &base, 0.1).unwrap();
        assert!(rep.passed(), "{}", rep.render());
    }

    #[test]
    fn injected_throughput_regression_fails() {
        let base = record(40.0, 0.25);
        let cur = record(32.0, 0.25); // 20% slower
        let rep = compare(&base, &cur, 0.1).unwrap();
        assert!(!rep.passed());
        let bad: Vec<_> = rep.deltas.iter().filter(|d| d.regressed).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].name, "tokens_per_sec");
        assert!(rep.render().contains("REGRESSED"));
    }

    #[test]
    fn throughput_improvement_and_latency_noise_pass() {
        let base = record(40.0, 0.25);
        let cur = record(48.0, 0.26); // 20% faster, 4% latency noise
        let rep = compare(&base, &cur, 0.1).unwrap();
        assert!(rep.passed(), "{}", rep.render());
    }

    #[test]
    fn latency_regression_fails_two_sided_volume_too() {
        let base = bench_json(
            "x",
            vec![],
            vec![("p99_latency_s".into(), 0.25), ("p2p_bytes".into(), 1024.0)],
        );
        let cur = bench_json(
            "x",
            vec![],
            vec![("p99_latency_s".into(), 0.40), ("p2p_bytes".into(), 512.0)],
        );
        let rep = compare(&base, &cur, 0.1).unwrap();
        assert_eq!(rep.deltas.iter().filter(|d| d.regressed).count(), 2);
        // Byte volumes are two-sided: halving the traffic is a formula
        // bug, not an optimization.
        assert!(rep
            .deltas
            .iter()
            .any(|d| d.name == "p2p_bytes" && d.regressed));
    }

    #[test]
    fn unlike_configs_are_refused() {
        let base = record(40.0, 0.25);
        let mut cur = record(40.0, 0.25);
        if let Json::Obj(map) = &mut cur {
            if let Some(Json::Obj(cfg)) = map.get_mut("config") {
                cfg.insert("requests".into(), Json::Num(160.0));
            }
        }
        let err = compare(&base, &cur, 0.1).unwrap_err();
        assert!(err.contains("unlike runs"), "{err}");
    }

    #[test]
    fn missing_metric_is_a_regression() {
        let base = record(40.0, 0.25);
        let cur = bench_json(
            "recovery",
            vec![
                ("requests".into(), Json::Num(80.0)),
                ("tensor_parallel".into(), Json::Num(2.0)),
            ],
            vec![("tokens_per_sec".into(), 40.0)],
        );
        let rep = compare(&base, &cur, 0.1).unwrap();
        assert!(!rep.passed());
        assert!(rep.missing.contains(&"p99_latency_s".to_string()));
    }
}

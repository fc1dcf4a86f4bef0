//! Shared machine-readable benchmark output: every `BENCH_*.json` the
//! harness writes uses one schema, so perf history tooling can diff runs
//! of different benchmarks without per-file parsers.
//!
//! ```json
//! {
//!   "bench": "recovery",
//!   "schema_version": 1,
//!   "config": { "iters": 12, ... },
//!   "metrics": { "thread_measured_goodput": 0.23, ... }
//! }
//! ```
//!
//! `config` echoes the knobs that produced the numbers (so a regression
//! diff can refuse to compare unlike runs); `metrics` is flat
//! name → number. Keys are sorted by the [`Json`] writer, so equal runs
//! produce byte-identical files.

use megatron_sim::json::Json;

/// Current `schema_version` for all `BENCH_*.json` files.
pub const BENCH_SCHEMA_VERSION: f64 = 1.0;

/// Assemble one benchmark record in the shared schema.
pub fn bench_json(bench: &str, config: Vec<(String, Json)>, metrics: Vec<(String, f64)>) -> Json {
    Json::obj([
        ("bench", Json::Str(bench.to_string())),
        ("schema_version", Json::Num(BENCH_SCHEMA_VERSION)),
        ("config", Json::Obj(config.into_iter().collect())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Write a record produced by [`bench_json`] to `path`, returning a
/// printable one-line status for the experiment report.
pub fn write_bench_json(path: &str, record: &Json) -> String {
    let body = record.to_string();
    match std::fs::write(path, &body) {
        Ok(()) => format!("wrote {path} ({} bytes)", body.len()),
        Err(e) => format!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_roundtrips_and_sorts_keys() {
        let rec = bench_json(
            "recovery",
            vec![
                ("requests".into(), Json::Num(80.0)),
                ("tensor_parallel".into(), Json::Num(2.0)),
            ],
            vec![
                ("tokens_per_sec".into(), 41.5),
                ("p99_latency_s".into(), 0.25),
            ],
        );
        let parsed = Json::parse(&rec.to_string()).unwrap();
        assert_eq!(parsed.get("bench").as_str(), Some("recovery"));
        assert_eq!(
            parsed.get("schema_version").as_f64(),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert_eq!(parsed.get("config").get("requests").as_f64(), Some(80.0));
        assert_eq!(
            parsed.get("metrics").get("p99_latency_s").as_f64(),
            Some(0.25)
        );
        // Deterministic output: building the same record twice is
        // byte-identical (BTreeMap ordering).
        assert_eq!(rec.to_string(), parsed.to_string());
    }
}

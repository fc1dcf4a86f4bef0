//! `--compare A B`: two sets of saved runs side by side. Each file holds one
//! JSON object per line, `{"workload": NAME, "result": <result line>}`, as
//! `repeat.sh` writes them. For every workload × end-to-end metric the
//! table gives each set's median and quartiles and says whether the medians
//! agree within the bound `BENCHMARK.json` fixes for that metric.

use std::collections::BTreeMap;
use std::fmt::Write;

use megatron_sim::json::Json;

use crate::stats::quartiles;

/// (workload, metric) → values, in file order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e:?}", i + 1))?;
        let workload = run
            .get("workload")
            .as_str()
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let Json::Obj(metrics) = run.get("result").get("metrics") else {
            return Err(format!("{path}:{}: no result.metrics", i + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .as_f64()
                .ok_or(format!("{path}:{}: {name} has no value", i + 1))?;
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// Metric name → (bound, higher is better), from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let decl = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = decl
        .get("end_to_end")
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let higher = m.get("better").as_str()? == "higher";
            Some((
                m.get("name").as_str()?.to_string(),
                (m.get("bound").as_f64()?, higher),
            ))
        })
        .collect())
}

pub fn run(a: &str, b: &str) -> Result<String, String> {
    let (a, b) = (load(a)?, load(b)?);
    let bounds = bounds()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | B vs A | bound | verdict |\n|---|---|---|---|---|---|---|"
    );
    let mut misses = 0;
    for ((workload, metric), va) in &a {
        let (Some(vb), Some(&(bound, higher))) = (
            b.get(&(workload.clone(), metric.clone())),
            bounds.get(metric),
        ) else {
            continue;
        };
        let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(va), quartiles(vb)) else {
            return Err(format!(
                "{workload}/{metric}: each set needs at least two runs"
            ));
        };
        let change = (bm - am) / am;
        // "Worse" is B below A for a higher-is-better metric, above otherwise.
        let worse_by = if higher { -change } else { change };
        let verdict = if change.abs() <= bound {
            "agree"
        } else if worse_by > 0.0 {
            "B WORSE"
        } else {
            "B BETTER"
        };
        misses += usize::from(verdict != "agree");
        let _ = writeln!(
            out,
            "| {workload} | {metric} | {am:.4} [{a1:.4}, {a3:.4}] ({}) | {bm:.4} [{b1:.4}, {b3:.4}] ({}) | {:+.2}% | {:.0}% | {verdict} |",
            va.len(),
            vb.len(),
            100.0 * change,
            100.0 * bound,
        );
    }
    let _ = writeln!(out, "\n{misses} pairing(s) outside their bound");
    Ok(out)
}

//! Benches wrapping the paper-experiment generators themselves: one
//! benchmark per table/figure regeneration, so `cargo bench` exercises
//! every reproduction path end to end and tracks its cost. (The printable
//! outputs live in the `repro` binary; see EXPERIMENTS.md.)

use megatron_bench::experiments;
use megatron_bench::harness::Bench;

fn main() {
    let g = Bench::group("paper_experiments").sample_size(10);
    // The fast experiments run as timed benches; the heavyweight sweeps
    // (table1, table2, fig17) are exercised once each to keep
    // `cargo bench --workspace` under control.
    for name in [
        "fig6",
        "fig7",
        "fig8",
        "gantt",
        "formulas",
        "checkpoint",
        "traintime",
    ] {
        let exp = experiments::all()
            .into_iter()
            .find(|e| e.name == name)
            .expect("registered experiment");
        g.run(name, || (exp.run)().map_or(0, |out| out.len()));
    }

    // One-shot smoke of the heavy sweeps (not statistically sampled).
    for name in ["fig12", "fig16", "fusion"] {
        let exp = experiments::all()
            .into_iter()
            .find(|e| e.name == name)
            .expect("registered experiment");
        let out = (exp.run)().unwrap_or_else(|e| panic!("{name} failed:\n{e}"));
        assert!(!out.contains("ERR"), "{name} produced an error:\n{out}");
    }
}

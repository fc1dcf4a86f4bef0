//! The `repro simulate` subcommand: simulate an arbitrary user-specified
//! PTD-P configuration and print the full iteration report.

use megatron_core::cluster::ClusterSpec;
use megatron_core::model::{zoo, GptConfig};
use megatron_core::parallel::ParallelConfig;
use megatron_core::TrainingRun;

/// Usage text for `repro simulate`.
pub const USAGE: &str = "\
usage: repro simulate --model <name> --gpus <n> --tensor <t> --pipeline <p> \\
                      --batch <B> [--microbatch <b>] [--chunks <v>] \\
                      [--schedule 1f1b|gpipe] [--no-scatter-gather] \\
                      [--no-fusion] [--no-recompute] [--ignore-memory]

models: 1.7b 3.6b 7.5b 18.4b 39.1b 76.1b 145.6b 310.1b 530b 1t 175b 5.9b 91b 162b
        or custom: --layers L --hidden H --heads A

example: repro simulate --model 175b --gpus 768 --tensor 8 --pipeline 12 --batch 1536";

fn lookup_model(name: &str) -> Option<GptConfig> {
    let table1 = zoo::table1();
    match name {
        "175b" | "gpt3" => Some(zoo::gpt3_175b()),
        "530b" => Some(zoo::gpt_530b()),
        "1t" => Some(zoo::gpt_1t()),
        "5.9b" => Some(zoo::gpt_5p9b()),
        "91b" => Some(zoo::gpt_91b()),
        "145b" => Some(zoo::gpt_145b()),
        "162b" => Some(zoo::gpt_162b()),
        "1b" => Some(zoo::gpt_1b_microbench()),
        _ => table1
            .into_iter()
            .find(|r| {
                r.config
                    .name
                    .trim_start_matches("GPT ")
                    .eq_ignore_ascii_case(name.trim_start_matches("gpt"))
            })
            .map(|r| r.config),
    }
}

/// Parse and run; returns the printable report or a usage error.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut model: Option<GptConfig> = None;
    let mut layers = None;
    let mut hidden = None;
    let mut heads = None;
    let (mut gpus, mut t, mut p, mut batch) = (None, None, None, None);
    let mut microbatch = 1u64;
    let mut chunks = 1u64;
    let mut schedule = "1f1b".to_string();
    let (mut sg, mut fused, mut recompute, mut enforce) = (true, true, true, true);

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--model" => {
                let name = value("--model")?;
                model = Some(
                    lookup_model(&name)
                        .ok_or_else(|| format!("unknown model '{name}'\n{USAGE}"))?,
                );
            }
            "--layers" => layers = Some(parse(&value("--layers")?)?),
            "--hidden" => hidden = Some(parse(&value("--hidden")?)?),
            "--heads" => heads = Some(parse(&value("--heads")?)?),
            "--gpus" => gpus = Some(parse(&value("--gpus")?)?),
            "--tensor" | "-t" => t = Some(parse(&value("--tensor")?)?),
            "--pipeline" | "-p" => p = Some(parse(&value("--pipeline")?)?),
            "--batch" | "-B" => batch = Some(parse(&value("--batch")?)?),
            "--microbatch" | "-b" => microbatch = parse(&value("--microbatch")?)?,
            "--chunks" | "-v" => chunks = parse(&value("--chunks")?)?,
            "--schedule" => schedule = value("--schedule")?,
            "--no-scatter-gather" => sg = false,
            "--no-fusion" => fused = false,
            "--no-recompute" => recompute = false,
            "--ignore-memory" => enforce = false,
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }

    let model = match (model, layers, hidden, heads) {
        (Some(m), None, None, None) => m,
        (None, Some(l), Some(h), Some(a)) => GptConfig::paper("custom", l, h, a),
        _ => {
            return Err(format!(
                "specify --model OR --layers/--hidden/--heads\n{USAGE}"
            ))
        }
    };
    let gpus: u64 = gpus.ok_or_else(|| format!("--gpus required\n{USAGE}"))?;
    let t: u64 = t.ok_or_else(|| format!("--tensor required\n{USAGE}"))?;
    let p: u64 = p.ok_or_else(|| format!("--pipeline required\n{USAGE}"))?;
    let batch: u64 = batch.ok_or_else(|| format!("--batch required\n{USAGE}"))?;
    if !gpus.is_multiple_of(t * p) {
        return Err(format!(
            "gpus ({gpus}) must be divisible by t·p ({})",
            t * p
        ));
    }
    let d = gpus / (t * p);

    let pc = ParallelConfig::new(p, t, d, microbatch, batch).with_chunks(chunks);
    let cluster = ClusterSpec::selene(gpus as usize);
    let mut run = TrainingRun::ptdp(model.clone(), cluster, pc);
    run.options.scatter_gather = sg;
    run.options.fused = fused;
    run.options.recompute = recompute;
    run.options.enforce_memory = enforce;
    if schedule == "gpipe" {
        if chunks != 1 {
            return Err("GPipe does not interleave; drop --chunks".into());
        }
        run.options.schedule = megatron_schedule::ScheduleKind::GPipe;
    } else if schedule != "1f1b" {
        return Err(format!("unknown schedule '{schedule}' (1f1b|gpipe)"));
    }

    let r = run
        .simulate()
        .map_err(|e| format!("simulation failed: {e}"))?;
    Ok(format!(
        "model: {} ({:.1}B params) on {gpus} GPUs, (t,p,d)=({t},{p},{d}), b={microbatch}, B={batch}, v={chunks}\n\
         \n\
         iteration time          {:.3} s\n\
         throughput              {:.0} teraFLOP/s per GPU ({:.0}% of peak)\n\
         aggregate               {:.2} petaFLOP/s\n\
         sequences/second        {:.1}\n\
         pipeline bubble         {:.2}% analytical, {:.2}% measured idle\n\
         memory per GPU          {:.1} GiB\n\
         pipeline p2p per GPU    {:.2} GB/iteration\n\
         tensor all-reduce/GPU   {:.2} GB/iteration\n\
         data all-reduce/GPU     {:.2} GB/iteration\n\
         est. days for 300B tok  {:.0}\n",
        model.name,
        model.params_eq2() / 1e9,
        r.iteration_time,
        r.tflops_per_gpu,
        r.pct_of_peak,
        r.aggregate_pflops,
        r.sequences_per_second,
        100.0 * r.analytical_bubble_fraction,
        100.0 * r.measured_idle_fraction,
        r.memory_bytes_per_gpu as f64 / (1u64 << 30) as f64,
        r.comm.pipeline_p2p_bytes_per_gpu / 1e9,
        r.comm.tensor_ar_bytes_per_gpu / 1e9,
        r.comm.data_parallel_bytes_per_gpu / 1e9,
        model.training_time_eq4(300e9, gpus as f64, r.tflops_per_gpu * 1e12) / 86400.0,
    ))
}

fn parse(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("'{s}' is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn table2_row_via_cli() {
        let out = run(&argv(
            "--model 175b --gpus 768 --tensor 8 --pipeline 12 --batch 1536",
        ))
        .unwrap();
        assert!(out.contains("teraFLOP/s per GPU"));
        assert!(out.contains("(t,p,d)=(8,12,8)"));
    }

    #[test]
    fn custom_architecture() {
        let out = run(&argv(
            "--layers 24 --hidden 2304 --heads 24 --gpus 32 --tensor 1 --pipeline 1 --batch 512 --microbatch 8",
        ))
        .unwrap();
        assert!(out.contains("custom (1.7B params)"));
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(run(&argv("--bogus 3")).is_err());
        assert!(run(&argv(
            "--model nope --gpus 8 --tensor 1 --pipeline 1 --batch 8"
        ))
        .is_err());
        assert!(run(&argv(
            "--model 175b --gpus 10 --tensor 8 --pipeline 12 --batch 8"
        ))
        .is_err());
    }

    #[test]
    fn oom_is_reported() {
        let err = run(&argv(
            "--model 175b --gpus 8 --tensor 8 --pipeline 1 --batch 8",
        ))
        .unwrap_err();
        assert!(err.contains("GiB"), "{err}");
    }

    #[test]
    fn gpipe_and_ablation_flags() {
        let out = run(&argv(
            "--model 5.9b --gpus 16 --tensor 2 --pipeline 2 --batch 64 --schedule gpipe --no-fusion --no-recompute",
        ))
        .unwrap();
        assert!(out.contains("iteration time"));
    }
}

//! Experiment driver: `repro <experiment>` regenerates one paper table or
//! figure; `repro all` runs everything; `repro list` enumerates;
//! `repro simulate ...` prices an arbitrary user configuration;
//! `launch`, `analyze` and `sentry` take flags.
//! A registry experiment takes none: an extra argument is an error.

use megatron_bench::{analyze, experiments, launch, sentry, simulate_cli};

/// Print a report, or the error on stderr and exit 1.
fn emit(result: Result<String, String>) {
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // Process-mode rank workers re-exec this binary with `--proc-worker
    // <dir> <rank>` (`repro launch` and `repro recovery` spawn them); run
    // the worker and exit before any experiment parsing.
    megatron_dist::proc::maybe_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = experiments::all();
    match args.first().map(String::as_str) {
        None | Some("list") => {
            println!("usage: repro <experiment>|all|list|simulate");
            println!(
                "tensor engine build on this host: {}",
                megatron_tensor::gemm::active_build()
            );
            println!("\navailable experiments:");
            for e in &registry {
                println!("  {:<12} {}", e.name, e.paper_ref);
            }
            println!("\n{}", simulate_cli::USAGE);
            println!("\n{}", launch::USAGE);
            println!("\n{}", analyze::USAGE);
            println!("\n{}", sentry::USAGE);
        }
        Some("sentry") => emit(sentry::run(&args[1..])),
        Some("launch") => emit(launch::run(&args[1..])),
        Some("analyze") if args.len() > 1 => emit(analyze::run(&args[1..])),
        Some("simulate") => emit(simulate_cli::run(&args[1..])),
        Some(name)
            if args.len() > 1 && (name == "all" || registry.iter().any(|e| e.name == name)) =>
        {
            eprintln!(
                "repro {name} takes no arguments, got {:?}; try `repro list`",
                &args[1..]
            );
            std::process::exit(1);
        }
        Some("all") => {
            let mut failed = false;
            for e in &registry {
                println!("=== {} — {} ===", e.name, e.paper_ref);
                match (e.run)() {
                    Ok(report) => println!("{report}"),
                    Err(report) => {
                        println!("{report}");
                        failed = true;
                    }
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        Some(name) => match registry.iter().find(|e| e.name == name) {
            Some(e) => {
                println!("=== {} — {} ===", e.name, e.paper_ref);
                emit((e.run)());
            }
            None => {
                eprintln!("unknown experiment '{name}'; try `repro list`");
                std::process::exit(1);
            }
        },
    }
}

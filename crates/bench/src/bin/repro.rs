//! Experiment driver: `repro <experiment>` regenerates one paper table or
//! figure; `repro all` runs everything; `repro list` enumerates;
//! `repro simulate ...` prices an arbitrary user configuration;
//! `repro chaos ...` runs the seeded chaos sweep with tunable knobs;
//! `repro serving ...` takes benchmark flags.

use megatron_bench::{analyze, chaos, experiments, launch, sentry, serving, simulate_cli};

fn main() {
    // Process-mode rank workers re-exec this binary with `--proc-worker
    // <dir> <rank>` (`repro launch` spawns them); run the worker and exit
    // before any experiment parsing.
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
            println!("\n{}", chaos::USAGE);
            println!("\n{}", serving::USAGE);
            println!("\n{}", launch::USAGE);
            println!("\n{}", analyze::USAGE);
            println!("\n{}", sentry::USAGE);
        }
        Some("sentry") => match sentry::run(&args[1..]) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        Some("chaos") if args.len() > 1 => match chaos::run(&args[1..]) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        Some("serving") if args.len() > 1 => match serving::run(&args[1..]) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        Some("launch") => match launch::run(&args[1..]) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        Some("analyze") if args.len() > 1 => match analyze::run(&args[1..]) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        Some("simulate") => match simulate_cli::run(&args[1..]) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        },
        Some("all") => {
            for e in &registry {
                println!("=== {} — {} ===", e.name, e.paper_ref);
                println!("{}", (e.run)());
            }
        }
        Some(name) => match registry.iter().find(|e| e.name == name) {
            Some(e) => {
                println!("=== {} — {} ===", e.name, e.paper_ref);
                println!("{}", (e.run)());
            }
            None => {
                eprintln!("unknown experiment '{name}'; try `repro list`");
                std::process::exit(1);
            }
        },
    }
}

//! E37: `repro launch` — run a seeded (p,t,d) job as `p*t*d` real OS
//! processes over the socket transport (UDS by default, loopback TCP on
//! request) and prove the run **bit-identical** to the same job executed
//! in-process on the mailbox transport.
//!
//! Each rank process re-execs this very binary with `--proc-worker`
//! (hence [`megatron_dist::proc::maybe_worker`] at the top of `repro`'s
//! `main`), rendezvouses through the scratch directory, trains, and
//! writes its losses/params/comm-volume as bit patterns. The launcher
//! merges them and replays the job on threads for the comparison. The
//! per-rank socket byte counts are also checked against the op tape's
//! ring closed forms — the §3 identity, now measured on a real wire.

use std::path::PathBuf;
use std::time::Instant;

use megatron_dist::proc::{launch, JobSpec};
use megatron_dist::{PtdpTrainer, WireKind};

/// `repro launch` usage string.
pub const USAGE: &str =
    "repro launch [--ptd P,T,D] [--wire uds|tcp] [--iters N] [--trace] [--dir PATH]
  E37: run the seeded job as P*T*D OS processes over sockets and check
  bit-identity against the in-process mailbox run; --trace keeps the
  scratch dir with per-rank Chrome traces for `repro analyze
  --merge-traces`";

/// CLI entry: `repro launch [flags]`.
pub fn run(args: &[String]) -> Result<String, String> {
    let (mut p, mut t, mut d) = (2usize, 2usize, 2usize);
    let mut wire = WireKind::Uds;
    let mut iters: Option<usize> = None;
    let mut trace = false;
    let mut dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--ptd" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--ptd needs P,T,D\n{USAGE}"))?;
                let parts: Vec<usize> = v
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--ptd: {e}\n{USAGE}"))?;
                if parts.len() != 3 || parts.contains(&0) {
                    return Err(format!("--ptd needs three nonzero values\n{USAGE}"));
                }
                (p, t, d) = (parts[0], parts[1], parts[2]);
            }
            "--wire" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--wire needs a value\n{USAGE}"))?;
                wire = match v.as_str() {
                    "uds" => WireKind::Uds,
                    "tcp" => WireKind::Tcp,
                    other => return Err(format!("unknown wire '{other}'\n{USAGE}")),
                };
            }
            "--iters" => {
                iters = Some(
                    it.next()
                        .ok_or_else(|| format!("--iters needs a value\n{USAGE}"))?
                        .parse()
                        .map_err(|e| format!("--iters: {e}\n{USAGE}"))?,
                );
            }
            "--trace" => trace = true,
            "--dir" => {
                dir = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| format!("--dir needs a path\n{USAGE}"))?,
                ));
            }
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }

    let mut job = JobSpec::canonical(p, t, d);
    job.wire = wire;
    job.trace = trace;
    if let Some(n) = iters {
        if n == 0 {
            return Err("--iters must be at least 1".into());
        }
        job.iters = n;
    }
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("megatron-launch-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);

    let world = job.world();
    let t0 = Instant::now();
    let handle = launch(&job, &dir).map_err(|e| format!("launch failed: {e}"))?;
    let out = handle.wait();
    let proc_wall = t0.elapsed().as_secs_f64();
    if !out.ok() {
        let errors: Vec<String> = out
            .outputs
            .values()
            .filter_map(|o| o.error.clone())
            .collect();
        return Err(format!(
            "process run failed: missing ranks {:?}, errors {errors:?} (scratch kept at {})",
            out.missing,
            dir.display()
        ));
    }

    // The same job on threads + mailboxes, for the bit-identity check.
    let t0 = Instant::now();
    let log = PtdpTrainer::new(job.master(), job.spec()).train(&job.dataset());
    let inproc_wall = t0.elapsed().as_secs_f64();

    let losses_ok = out.losses == log.losses;
    let mut params_ok = true;
    let mut volumes_ok = true;
    let mut tape_ok = true;
    let mut total_bytes = 0.0;
    let mut rows: Vec<(String, u32, f64, usize)> = Vec::new();
    for (key, o) in &out.outputs {
        params_ok &= log.final_params.get(key) == Some(&o.params);
        volumes_ok &= log.comm_volumes.get(key) == Some(&o.volume);
        tape_ok &= o.tape_bytes == o.volume.total_bytes();
        total_bytes += o.volume.total_bytes();
        rows.push((format!("{key:?}"), o.pid, o.volume.total_bytes(), o.steps));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));

    let mut rep = String::new();
    rep.push_str(&format!(
        "E37: ({p},{t},{d}) = {world} OS processes over {} ({} iterations)\n\n",
        match wire {
            WireKind::Tcp => "loopback TCP",
            _ => "Unix-domain sockets",
        },
        job.iters,
    ));
    rep.push_str("  rank            pid     socket bytes   steps\n");
    for (key, pid, bytes, steps) in &rows {
        rep.push_str(&format!(
            "  {key:<12} {pid:>7}   {bytes:>12.0}   {steps:>5}\n"
        ));
    }
    rep.push_str(&format!(
        "\n  wall time: {proc_wall:.2} s as processes, {inproc_wall:.2} s in-process\n\
         \x20 total bytes on the wire: {:.1} KiB\n\
         \x20 losses bit-identical to in-process run: {}\n\
         \x20 final params bit-identical to in-process run: {}\n\
         \x20 socket-measured volumes == in-process volumes: {}\n\
         \x20 per-rank socket bytes == tape closed forms (S3): {}\n",
        total_bytes / 1024.0,
        yn(losses_ok),
        yn(params_ok),
        yn(volumes_ok),
        yn(tape_ok),
    ));
    rep.push_str(&format!(
        "  bit-identical to in-process run: {}\n",
        yn(losses_ok && params_ok && volumes_ok && tape_ok)
    ));
    if trace {
        rep.push_str(&format!(
            "\n  per-rank traces kept in {}\n\
             \x20 merge with: repro analyze --merge-traces {}\n",
            dir.display(),
            dir.display()
        ));
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !(losses_ok && params_ok && volumes_ok && tape_ok) {
        return Err(rep + "\nFAIL: process run diverged from the in-process run");
    }
    Ok(rep)
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

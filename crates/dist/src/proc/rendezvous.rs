//! The rendezvous directory: channel ids, atomically published files, and
//! the stale-directory sweep.

use std::fs;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use megatron_collective::WireAddr;

use super::report;

pub(super) const TENSOR_CHAN_BASE: u64 = 1000;
pub(super) const DATA_CHAN_BASE: u64 = 2000;
pub(super) const P2P_CHAN_BASE: u64 = 3000;
pub(super) const HEARTBEAT_CHAN: u64 = 4000;

/// How long a worker waits for every peer's address file to appear.
pub(super) const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Rendezvous files
// ---------------------------------------------------------------------------

/// Atomically publish a rendezvous file: write `name.tmp`, then rename.
/// Readers polling the directory never observe a torn write.
pub(super) fn publish(dir: &Path, name: &str, contents: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, contents).expect("write rendezvous file");
    fs::rename(&tmp, dir.join(name)).expect("rename rendezvous file");
}

pub(super) fn read_addr(dir: &Path, name: &str) -> Option<WireAddr> {
    let text = fs::read_to_string(dir.join(name)).ok()?;
    WireAddr::parse(text.trim())
}

/// Poll until every worker's `rank-R.addr` exists, returning the flat-rank
/// edge map.
pub(super) fn await_addrs(
    dir: &Path,
    world: usize,
    deadline: Instant,
) -> Result<Vec<WireAddr>, String> {
    let mut addrs: Vec<Option<WireAddr>> = vec![None; world];
    loop {
        for (r, slot) in addrs.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = read_addr(dir, &format!("rank-{r}.addr"));
            }
        }
        if addrs.iter().all(|a| a.is_some()) {
            return Ok(addrs.into_iter().map(|a| a.unwrap()).collect());
        }
        if Instant::now() >= deadline {
            let missing: Vec<usize> = addrs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.is_none())
                .map(|(r, _)| r)
                .collect();
            return Err(format!(
                "rendezvous timed out waiting for ranks {missing:?}"
            ));
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// Harden a rendezvous directory against stale state from a previous
/// run. Leftover `job.json` / `rank-R.addr` files would make fresh
/// workers dial dead (or worse, recycled) addresses and hang until the
/// comm deadline. Policy: read every advertised `rank-R.pid`; if any
/// pid is still alive (`/proc/<pid>` exists) the directory belongs to a
/// running job, so refuse loudly. Otherwise sweep the rendezvous files
/// (each unlink is atomic; checkpoint data under the dir is untouched)
/// and let the new job proceed.
pub(super) fn clear_stale_rendezvous(dir: &Path) -> std::io::Result<()> {
    if !dir.join("job.json").is_file() {
        return Ok(());
    }
    let mut stale = Vec::new();
    let mut live = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_rendezvous = name == "job.json"
            || name == "ckpt.path"
            || name.starts_with("launcher.")
            || (name.starts_with("rank-")
                && (name.ends_with(".addr")
                    || name.ends_with(".pid")
                    || name.ends_with(".sock")
                    || name.ends_with(report::FILE_SUFFIX)
                    || name.ends_with(".trace.json")
                    || name.ends_with(".metrics.json")));
        if !is_rendezvous {
            continue;
        }
        if name.starts_with("rank-") && name.ends_with(".pid") {
            if let Ok(s) = fs::read_to_string(entry.path()) {
                if let Ok(pid) = s.trim().parse::<u32>() {
                    if fs::metadata(format!("/proc/{pid}")).is_ok() {
                        live.push((name.clone(), pid));
                    }
                }
            }
        }
        stale.push(entry.path());
    }
    if !live.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!(
                "rendezvous dir {} is in use: advertised worker pid(s) still alive: {}",
                dir.display(),
                live.iter()
                    .map(|(n, p)| format!("{n}={p}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }
    for p in stale {
        let _ = fs::remove_file(p);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mproc-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stale_rendezvous_with_dead_pids_is_swept() {
        let dir = scratch("stale-dead");
        fs::write(dir.join("job.json"), "{}").unwrap();
        fs::write(dir.join("rank-0.addr"), "uds:/tmp/gone.sock").unwrap();
        // A pid that is certainly not running (pid_max is far below this).
        fs::write(dir.join("rank-0.pid"), "999999999").unwrap();
        fs::write(dir.join("launcher.addr"), "uds:/tmp/gone2.sock").unwrap();
        clear_stale_rendezvous(&dir).unwrap();
        assert!(!dir.join("job.json").exists());
        assert!(!dir.join("rank-0.addr").exists());
        assert!(!dir.join("rank-0.pid").exists());
        assert!(!dir.join("launcher.addr").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rendezvous_with_live_pid_is_refused() {
        let dir = scratch("stale-live");
        fs::write(dir.join("job.json"), "{}").unwrap();
        // Our own pid is definitely alive.
        fs::write(dir.join("rank-0.pid"), std::process::id().to_string()).unwrap();
        let err = clear_stale_rendezvous(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("still alive"), "{err}");
        // Nothing was deleted.
        assert!(dir.join("job.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

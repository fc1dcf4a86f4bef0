//! Durable sharded checkpoints — the on-disk counterpart of the trainer's
//! in-memory [`TrainSnapshot`], modeled on §5.10's per-rank checkpoint
//! layout.
//!
//! Every rank serializes its [`ThreadState`] (parameters + Adam moments,
//! exact f32 bits) to its own shard file under a *generation* directory
//! `gen-<next_iter>`. Each file is written atomically: temp file → CRC-32
//! footer → rename, so a crash mid-write leaves a temp file, never a torn
//! shard. The rank whose shard completes the generation commits it by
//! writing (1) a *canonical* full-model layout — parameters and both Adam
//! moments assembled into serial visit order via [`crate::assemble`] — and
//! (2) a manifest recording the (p, t, d) topology and iteration. The
//! manifest is the commit record: a generation without one is invisible to
//! the loader.
//!
//! Restore ([`CheckpointStore::load_latest`]) scans generations newest
//! first, verifies every checksum, and falls back to the next older
//! complete generation on any corruption — it returns clean errors, never
//! panics. A run whose (p, t, d) matches the manifest restores from the
//! shards bit-identically; a run with a *different* topology (e.g. a
//! shrunken cluster after a failure) restores from the canonical layout,
//! resharded on the fly for the new (p, t, d). ZeRO-1 runs
//! (`shard_optimizer`) skip the canonical layout — their Adam moments
//! cover only a 1/d slice, so only same-topology restore is possible and
//! cross-topology attempts fail with a clean error.
//!
//! The elastic supervisor ([`crate::supervisor::Supervisor::run_elastic`])
//! is the main cross-topology consumer: a shrink restores the latest
//! generation into the cost model's best degraded (p, t, d), and a grow
//! waits for the next checkpoint boundary precisely because the boundary
//! is where a fresh canonical layout is guaranteed on disk. Resharding is
//! pure slicing of exact f32 bits — never arithmetic — which is what
//! makes post-reconfiguration training bit-identical to a fresh launch at
//! the new topology (see `tests/recovery.rs` and the round-trip property
//! in `tests/proptest_invariants.rs`).

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use megatron_tensor::AdamState;
use rand::SeedableRng;

use crate::assemble::assemble_from_flat;
use crate::trainer::{build_thread_model, PtdpSpec, ThreadKey, ThreadState, TrainSnapshot};

const SHARD_MAGIC: &[u8; 8] = b"MGSHARD1";
const CANON_MAGIC: &[u8; 8] = b"MGCANON1";
const MANIFEST_MAGIC: &[u8; 8] = b"MGMANIF1";
const MANIFEST_NAME: &str = "MANIFEST.bin";
const CANONICAL_NAME: &str = "canonical.bin";

/// Why a durable checkpoint operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error while writing or reading.
    Io(String),
    /// A file failed validation: bad magic, bad checksum, truncated, or
    /// inconsistent with its manifest.
    Corrupt(String),
    /// The checkpoint cannot be restored into the requesting topology
    /// (e.g. no canonical layout for a cross-topology restore).
    TopologyMismatch(String),
    /// No complete generation survives validation.
    NoneAvailable,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(m) => write!(f, "checkpoint I/O error: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::TopologyMismatch(m) => write!(f, "topology mismatch: {m}"),
            CheckpointError::NoneAvailable => write!(f, "no restorable checkpoint generation"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A restored job state plus provenance.
#[derive(Debug)]
pub struct Restored {
    /// The snapshot to hand to [`RunControl::restore`](crate::RunControl).
    pub snapshot: TrainSnapshot,
    /// Generation it came from (== `snapshot.next_iter`).
    pub generation: usize,
    /// Whether it was resharded from the canonical layout because the
    /// stored topology differs from the requesting spec.
    pub cross_topology: bool,
    /// Human-readable notes about generations that were skipped (corrupt,
    /// wrong topology without canonical, ...), newest first.
    pub notes: Vec<String>,
}

#[derive(Default)]
struct StoreStats {
    /// Generation → instant its first shard write began.
    open: HashMap<usize, Instant>,
    /// Committed generations with their save wall-clock window (first
    /// shard write start → manifest rename), in commit order.
    committed: Vec<(usize, f64)>,
}

/// A directory of checkpoint generations shared by all ranks of a job.
pub struct CheckpointStore {
    root: PathBuf,
    keep: usize,
    stats: Mutex<StoreStats>,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `root`, keeping the 3
    /// newest generations.
    pub fn open(root: impl Into<PathBuf>) -> Result<Arc<CheckpointStore>, CheckpointError> {
        CheckpointStore::open_with_keep(root, 3)
    }

    /// Like [`CheckpointStore::open`] with an explicit retention count
    /// (`keep >= 1` newest generations survive pruning).
    pub fn open_with_keep(
        root: impl Into<PathBuf>,
        keep: usize,
    ) -> Result<Arc<CheckpointStore>, CheckpointError> {
        assert!(keep >= 1, "must keep at least one generation");
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(Arc::new(CheckpointStore {
            root,
            keep,
            stats: Mutex::new(StoreStats::default()),
        }))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Committed (manifest-bearing) generations, oldest first.
    pub fn generations(&self) -> Vec<usize> {
        let mut gens: Vec<usize> = self
            .gen_dirs()
            .into_iter()
            .filter(|(_, dir)| dir.join(MANIFEST_NAME).is_file())
            .map(|(g, _)| g)
            .collect();
        gens.sort_unstable();
        gens
    }

    /// Per-generation save wall-clock windows `(generation, seconds)`,
    /// measured from the first shard write to the manifest commit. The
    /// empirical `δ` for [`megatron_fault`]'s goodput model.
    pub fn save_windows(&self) -> Vec<(usize, f64)> {
        self.stats.lock().unwrap().committed.clone()
    }

    /// Write one rank's shard for generation `next_iter` atomically.
    /// Threads of the same generation may call this concurrently.
    pub fn write_shard(
        &self,
        spec: &PtdpSpec,
        key: ThreadKey,
        next_iter: usize,
        state: &ThreadState,
    ) -> Result<(), CheckpointError> {
        self.stats
            .lock()
            .unwrap()
            .open
            .entry(next_iter)
            .or_insert_with(Instant::now);
        let dir = self.gen_dir(next_iter);
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut enc = Enc::new(SHARD_MAGIC);
        enc.topology(spec);
        enc.u64(key.0 as u64);
        enc.u64(key.1 as u64);
        enc.u64(key.2 as u64);
        enc.u64(next_iter as u64);
        enc.u64(state.adam.t);
        enc.f32s(&state.params);
        enc.f32s(&state.adam.m);
        enc.f32s(&state.adam.v);
        write_atomic(&dir.join(shard_name(key)), &enc.finish())
    }

    /// Commit generation `next_iter`: write the canonical full-model
    /// layout (unless the run shards its optimizer state) and then the
    /// manifest, both atomically. Called once, by the rank whose shard
    /// completed the generation; prunes generations beyond the retention
    /// count afterwards.
    pub fn commit_generation(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
        next_iter: usize,
        threads: &HashMap<ThreadKey, ThreadState>,
    ) -> Result<(), CheckpointError> {
        let dir = self.gen_dir(next_iter);
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io(e.to_string()))?;

        // Canonical layout: parameters and Adam moments of data-replica 0,
        // assembled into serial visit order. Moments are positional with
        // the parameters, so the same unshard machinery applies; under
        // ZeRO-1 each rank's moments cover only a 1/d slice, so no
        // canonical layout is possible.
        let full_moments = !spec.shard_optimizer
            && (0..spec.pipeline).all(|pi| {
                (0..spec.tensor).all(|ti| {
                    threads
                        .get(&(pi, 0, ti))
                        .is_some_and(|st| st.adam.m.len() == st.params.len())
                })
            });
        if full_moments {
            let adam_t = threads[&(0, 0, 0)].adam.t;
            let mut enc = Enc::new(CANON_MAGIC);
            enc.config(cfg);
            enc.u64(next_iter as u64);
            enc.u64(adam_t);
            for select in [
                (|st: &ThreadState| st.params.clone()) as fn(&ThreadState) -> Vec<f32>,
                |st| st.adam.m.clone(),
                |st| st.adam.v.clone(),
            ] {
                let mut model =
                    assemble_from_flat(cfg, spec, &mut |pi, ti| select(&threads[&(pi, 0, ti)]));
                let mut flat = Vec::new();
                model.visit(&mut |p, _| flat.extend_from_slice(p));
                enc.f32s(&flat);
            }
            write_atomic(&dir.join(CANONICAL_NAME), &enc.finish())?;
        }

        let mut enc = Enc::new(MANIFEST_MAGIC);
        enc.topology(spec);
        enc.config(cfg);
        enc.u64(next_iter as u64);
        enc.u8(full_moments as u8);
        enc.u64(spec.world() as u64);
        write_atomic(&dir.join(MANIFEST_NAME), &enc.finish())?;

        let mut stats = self.stats.lock().unwrap();
        if let Some(t0) = stats.open.remove(&next_iter) {
            stats
                .committed
                .push((next_iter, t0.elapsed().as_secs_f64()));
        }
        drop(stats);

        self.prune();
        Ok(())
    }

    /// Launcher-side committer for process mode: scan *uncommitted*
    /// generation directories and commit every one whose full world of
    /// shard files is present and valid. In process mode each worker
    /// writes only its own shard — no single worker ever holds the whole
    /// world's thread states in memory, so the in-trainer commit path
    /// can never fire; the launcher, the one process that sees every
    /// shard on disk, performs the commit instead. Generations with
    /// missing or invalid shards (a worker died mid-generation) are left
    /// uncommitted for retention pruning to sweep. Returns the
    /// generations committed by this call, oldest first.
    pub fn commit_complete_generations(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
    ) -> Result<Vec<usize>, CheckpointError> {
        let mut dirs = self.gen_dirs();
        dirs.sort_unstable_by_key(|d| d.0);
        let mut committed = Vec::new();
        for (generation, dir) in dirs {
            if dir.join(MANIFEST_NAME).is_file() {
                continue; // already committed
            }
            let mut threads = HashMap::new();
            let mut complete = true;
            'load: for pi in 0..spec.pipeline {
                for di in 0..spec.data {
                    for ti in 0..spec.tensor {
                        let key = (pi, di, ti);
                        if !dir.join(shard_name(key)).is_file() {
                            complete = false;
                            break 'load;
                        }
                        // Shard writes are atomic (temp + rename), so a
                        // present-but-invalid shard is corrupt, not
                        // in-flight — skip the generation either way.
                        match self.load_shard(&dir, spec, key, generation) {
                            Ok(st) => {
                                threads.insert(key, st);
                            }
                            Err(_) => {
                                complete = false;
                                break 'load;
                            }
                        }
                    }
                }
            }
            if !complete {
                continue;
            }
            self.commit_generation(spec, cfg, generation, &threads)?;
            committed.push(generation);
        }
        Ok(committed)
    }

    /// Restore the newest generation that survives full validation into a
    /// snapshot for `spec`, falling back to older generations on any
    /// corruption or topology obstacle. Never panics on bad files.
    pub fn load_latest(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
    ) -> Result<Restored, CheckpointError> {
        let mut dirs = self.gen_dirs();
        dirs.sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
        let mut notes = Vec::new();
        for (generation, dir) in dirs {
            match self.load_generation(&dir, generation, spec, cfg) {
                Ok((snapshot, cross_topology)) => {
                    return Ok(Restored {
                        snapshot,
                        generation,
                        cross_topology,
                        notes,
                    })
                }
                Err(e) => notes.push(format!("gen-{generation:08}: {e}")),
            }
        }
        Err(CheckpointError::NoneAvailable)
    }

    /// Restore exactly `generation`, ignoring any newer (or older)
    /// generations in the store.
    ///
    /// This is the launcher-pinned restore path: a supervisor that
    /// respawns workers records which generation it healed from, and the
    /// workers must restore *that* state even if the shared store has
    /// since advanced (e.g. replaying a segment for a determinism audit
    /// after later segments already checkpointed past it).
    pub fn load_pinned(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
        generation: usize,
    ) -> Result<Restored, CheckpointError> {
        let dir = self.gen_dir(generation);
        if !dir.is_dir() {
            return Err(CheckpointError::NoneAvailable);
        }
        let (snapshot, cross_topology) = self.load_generation(&dir, generation, spec, cfg)?;
        Ok(Restored {
            snapshot,
            generation,
            cross_topology,
            notes: Vec::new(),
        })
    }

    fn load_generation(
        &self,
        dir: &Path,
        generation: usize,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
    ) -> Result<(TrainSnapshot, bool), CheckpointError> {
        let manifest = Dec::read(&dir.join(MANIFEST_NAME), MANIFEST_MAGIC)?;
        let mut dec = manifest;
        let topo = dec.topology()?;
        let stored_cfg = dec.config()?;
        let next_iter = dec.u64()? as usize;
        let has_canonical = dec.u8()? != 0;
        let n_shards = dec.u64()? as usize;
        dec.done()?;
        if stored_cfg != cfg {
            return Err(CheckpointError::TopologyMismatch(format!(
                "stored model config {stored_cfg:?} != requested {cfg:?}"
            )));
        }
        if next_iter != generation {
            return Err(CheckpointError::Corrupt(format!(
                "manifest iteration {next_iter} != directory generation {generation}"
            )));
        }

        if topo == Topology::of(spec) {
            // Same topology: bit-identical restore from the per-rank shards.
            if n_shards != spec.world() {
                return Err(CheckpointError::Corrupt(format!(
                    "manifest lists {n_shards} shards for a world of {}",
                    spec.world()
                )));
            }
            let mut threads = HashMap::new();
            for pi in 0..spec.pipeline {
                for di in 0..spec.data {
                    for ti in 0..spec.tensor {
                        let key = (pi, di, ti);
                        let state = self.load_shard(dir, spec, key, next_iter)?;
                        threads.insert(key, state);
                    }
                }
            }
            return Ok((TrainSnapshot { next_iter, threads }, false));
        }

        // Different topology: reshard the canonical layout.
        if spec.shard_optimizer {
            return Err(CheckpointError::TopologyMismatch(
                "cannot reshard a checkpoint into a ZeRO-1 run: optimizer \
                 slices depend on the data-parallel size"
                    .into(),
            ));
        }
        if !has_canonical {
            return Err(CheckpointError::TopologyMismatch(format!(
                "stored topology {topo:?} != requested {:?} and no canonical \
                 layout is present",
                Topology::of(spec)
            )));
        }
        let mut dec = Dec::read(&dir.join(CANONICAL_NAME), CANON_MAGIC)?;
        let stored_cfg = dec.config()?;
        let canon_iter = dec.u64()? as usize;
        let adam_t = dec.u64()?;
        let params = dec.f32s()?;
        let m = dec.f32s()?;
        let v = dec.f32s()?;
        dec.done()?;
        if stored_cfg != cfg || canon_iter != next_iter {
            return Err(CheckpointError::Corrupt(
                "canonical layout disagrees with its manifest".into(),
            ));
        }
        if m.len() != params.len() || v.len() != params.len() {
            return Err(CheckpointError::Corrupt(
                "canonical moment vectors not positional with parameters".into(),
            ));
        }
        let snapshot = reshard_canonical(cfg, spec, next_iter, adam_t, &params, &m, &v)?;
        Ok((snapshot, true))
    }

    fn load_shard(
        &self,
        dir: &Path,
        spec: &PtdpSpec,
        key: ThreadKey,
        next_iter: usize,
    ) -> Result<ThreadState, CheckpointError> {
        let mut dec = Dec::read(&dir.join(shard_name(key)), SHARD_MAGIC)?;
        let topo = dec.topology()?;
        let stored_key = (
            dec.u64()? as usize,
            dec.u64()? as usize,
            dec.u64()? as usize,
        );
        let stored_iter = dec.u64()? as usize;
        let adam_t = dec.u64()?;
        let params = dec.f32s()?;
        let m = dec.f32s()?;
        let v = dec.f32s()?;
        dec.done()?;
        if topo != Topology::of(spec) || stored_key != key || stored_iter != next_iter {
            return Err(CheckpointError::Corrupt(format!(
                "shard {} header disagrees with its manifest",
                shard_name(key)
            )));
        }
        Ok(ThreadState {
            params,
            adam: AdamState { t: adam_t, m, v },
        })
    }

    fn gen_dir(&self, next_iter: usize) -> PathBuf {
        self.root.join(format!("gen-{next_iter:08}"))
    }

    /// All generation directories (committed or not) as `(iter, path)`.
    fn gen_dirs(&self) -> Vec<(usize, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.root) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let iter: usize = name.strip_prefix("gen-")?.parse().ok()?;
                e.path().is_dir().then_some((iter, e.path()))
            })
            .collect()
    }

    /// Remove every generation directory except the newest `keep`.
    fn prune(&self) {
        let mut dirs = self.gen_dirs();
        dirs.sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
        for (_, dir) in dirs.into_iter().skip(self.keep) {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Reshard the canonical serial layout into per-thread states for `spec`.
fn reshard_canonical(
    cfg: TinyGptConfig,
    spec: &PtdpSpec,
    next_iter: usize,
    adam_t: u64,
    params: &[f32],
    m: &[f32],
    v: &[f32],
) -> Result<TrainSnapshot, CheckpointError> {
    // Rebuild three serial models — parameters and the two moment vectors
    // riding in the parameter slots — then cut each into the new spec's
    // per-thread shards. Moments stay positional with parameters through
    // both directions of the trip.
    let mut threads = HashMap::new();
    let mut per_vector: Vec<HashMap<(usize, usize), Vec<f32>>> = Vec::with_capacity(3);
    for vals in [params, m, v] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut model = GptModel::new(cfg, &mut rng);
        let mut off = 0usize;
        let mut overrun = false;
        model.visit(&mut |p, _| {
            if off + p.len() <= vals.len() {
                p.copy_from_slice(&vals[off..off + p.len()]);
            } else {
                overrun = true;
            }
            off += p.len();
        });
        if overrun || off != vals.len() {
            return Err(CheckpointError::Corrupt(format!(
                "canonical vector has {} values, model wants {off}",
                vals.len()
            )));
        }
        let mut shards = HashMap::new();
        for pi in 0..spec.pipeline {
            for ti in 0..spec.tensor {
                let flat = build_thread_model(&model, spec, pi, ti).flat_params();
                shards.insert((pi, ti), flat);
            }
        }
        per_vector.push(shards);
    }
    for pi in 0..spec.pipeline {
        for ti in 0..spec.tensor {
            let p_flat = &per_vector[0][&(pi, ti)];
            let m_flat = &per_vector[1][&(pi, ti)];
            let v_flat = &per_vector[2][&(pi, ti)];
            for di in 0..spec.data {
                threads.insert(
                    (pi, di, ti),
                    ThreadState {
                        params: p_flat.clone(),
                        adam: AdamState {
                            t: adam_t,
                            m: m_flat.clone(),
                            v: v_flat.clone(),
                        },
                    },
                );
            }
        }
    }
    Ok(TrainSnapshot { next_iter, threads })
}

fn shard_name(key: ThreadKey) -> String {
    format!("shard-p{}-d{}-t{}.bin", key.0, key.1, key.2)
}

/// The topology fields that must match for a shard-level restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Topology {
    p: u64,
    t: u64,
    d: u64,
    chunks: u64,
    vocab_parallel: bool,
    shard_optimizer: bool,
}

impl Topology {
    fn of(spec: &PtdpSpec) -> Topology {
        Topology {
            p: spec.pipeline as u64,
            t: spec.tensor as u64,
            d: spec.data as u64,
            chunks: spec.chunks as u64,
            vocab_parallel: spec.vocab_parallel,
            shard_optimizer: spec.shard_optimizer,
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected), bitwise — plenty fast for toy-scale
/// shards and dependency-free.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Little-endian binary encoder with a trailing CRC-32 footer.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(magic: &[u8; 8]) -> Enc {
        Enc {
            buf: magic.to_vec(),
        }
    }

    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn topology(&mut self, spec: &PtdpSpec) {
        let t = Topology::of(spec);
        self.u64(t.p);
        self.u64(t.t);
        self.u64(t.d);
        self.u64(t.chunks);
        self.u8(t.vocab_parallel as u8);
        self.u8(t.shard_optimizer as u8);
    }

    fn config(&mut self, cfg: TinyGptConfig) {
        self.u64(cfg.vocab as u64);
        self.u64(cfg.seq as u64);
        self.u64(cfg.hidden as u64);
        self.u64(cfg.heads as u64);
        self.u64(cfg.layers as u64);
    }

    fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Checked little-endian decoder over a fully CRC-validated buffer.
struct Dec {
    buf: Vec<u8>,
    pos: usize,
}

impl Dec {
    /// Read `path`, verify magic and CRC-32 footer, and position the
    /// cursor after the magic.
    fn read(path: &Path, magic: &[u8; 8]) -> Result<Dec, CheckpointError> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let buf = fs::read(path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CheckpointError::Corrupt(format!("{name} is missing"))
            } else {
                CheckpointError::Io(format!("{name}: {e}"))
            }
        })?;
        if buf.len() < magic.len() + 4 {
            return Err(CheckpointError::Corrupt(format!(
                "{name} is truncated ({} bytes)",
                buf.len()
            )));
        }
        let (body, footer) = buf.split_at(buf.len() - 4);
        let want = u32::from_le_bytes(footer.try_into().unwrap());
        if crc32(body) != want {
            return Err(CheckpointError::Corrupt(format!(
                "{name} fails its CRC-32 check"
            )));
        }
        if &body[..magic.len()] != magic {
            return Err(CheckpointError::Corrupt(format!("{name} has a bad magic")));
        }
        Ok(Dec {
            buf: body.to_vec(),
            pos: magic.len(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Corrupt("record is truncated".into()));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.u64()? as usize;
        // Guard against a corrupt length field asking for more bytes than
        // the (already CRC-valid, but still bounded) buffer holds.
        if n > self.buf.len() / 4 + 1 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible vector length {n}"
            )));
        }
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn topology(&mut self) -> Result<Topology, CheckpointError> {
        Ok(Topology {
            p: self.u64()?,
            t: self.u64()?,
            d: self.u64()?,
            chunks: self.u64()?,
            vocab_parallel: self.u8()? != 0,
            shard_optimizer: self.u8()? != 0,
        })
    }

    fn config(&mut self) -> Result<TinyGptConfig, CheckpointError> {
        Ok(TinyGptConfig {
            vocab: self.u64()? as usize,
            seq: self.u64()? as usize,
            hidden: self.u64()? as usize,
            heads: self.u64()? as usize,
            layers: self.u64()? as usize,
        })
    }

    fn done(&mut self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Write `bytes` to `path` atomically (temp file in the same directory,
/// then rename).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::Rng;

    pub(crate) fn cfg() -> TinyGptConfig {
        TinyGptConfig {
            vocab: 16,
            seq: 6,
            hidden: 8,
            heads: 4,
            layers: 2,
        }
    }

    pub(crate) fn tmp_store(name: &str) -> (PathBuf, Arc<CheckpointStore>) {
        let root = std::env::temp_dir().join(format!("mgckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = CheckpointStore::open(&root).unwrap();
        (root, store)
    }

    /// Per-thread states derived from a seeded master model, with Adam
    /// moments that are simple functions of the parameters so resharding
    /// is independently checkable.
    pub(crate) fn synthetic_states(
        cfg: TinyGptConfig,
        spec: &PtdpSpec,
        seed: u64,
    ) -> HashMap<ThreadKey, ThreadState> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let master = GptModel::new(cfg, &mut rng);
        let mut threads = HashMap::new();
        for pi in 0..spec.pipeline {
            for ti in 0..spec.tensor {
                let params = build_thread_model(&master, spec, pi, ti).flat_params();
                let m: Vec<f32> = params.iter().map(|x| x + 1.0).collect();
                let v: Vec<f32> = params.iter().map(|x| x * x).collect();
                for di in 0..spec.data {
                    threads.insert(
                        (pi, di, ti),
                        ThreadState {
                            params: params.clone(),
                            adam: AdamState {
                                t: 7,
                                m: m.clone(),
                                v: v.clone(),
                            },
                        },
                    );
                }
            }
        }
        threads
    }

    pub(crate) fn save_generation(
        store: &CheckpointStore,
        spec: &PtdpSpec,
        next_iter: usize,
        threads: &HashMap<ThreadKey, ThreadState>,
    ) {
        for (key, st) in threads {
            store.write_shard(spec, *key, next_iter, st).unwrap();
        }
        store
            .commit_generation(spec, cfg(), next_iter, threads)
            .unwrap();
    }

    #[test]
    fn same_topology_roundtrip_is_bit_exact() {
        let (root, store) = tmp_store("roundtrip");
        let mut spec = PtdpSpec::new(2, 2, 2);
        spec.vocab_parallel = true;
        let threads = synthetic_states(cfg(), &spec, 11);
        save_generation(&store, &spec, 4, &threads);

        let r = store.load_latest(&spec, cfg()).unwrap();
        assert_eq!(r.generation, 4);
        assert!(!r.cross_topology);
        assert!(r.notes.is_empty());
        assert_eq!(r.snapshot.next_iter, 4);
        assert_eq!(r.snapshot.threads.len(), spec.world());
        for (key, want) in &threads {
            let got = &r.snapshot.threads[key];
            assert_eq!(got.params, want.params, "{key:?} params");
            assert_eq!(got.adam.t, want.adam.t);
            assert_eq!(got.adam.m, want.adam.m, "{key:?} m");
            assert_eq!(got.adam.v, want.adam.v, "{key:?} v");
        }
        // Atomic writes leave no temp files behind.
        for entry in fs::read_dir(store.gen_dir(4)).unwrap().flatten() {
            assert!(
                !entry.file_name().to_string_lossy().ends_with(".tmp"),
                "leftover temp file {:?}",
                entry.file_name()
            );
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn launcher_committer_commits_only_complete_generations() {
        let (root, store) = tmp_store("committer");
        let spec = PtdpSpec::new(2, 2, 2);
        let threads = synthetic_states(cfg(), &spec, 31);
        // Generation 2: every shard present but no manifest (the process-
        // mode worker situation). Generation 4: one shard missing (its
        // writer died mid-generation).
        for (key, st) in &threads {
            store.write_shard(&spec, *key, 2, st).unwrap();
        }
        for (key, st) in &threads {
            if *key != (1, 1, 1) {
                store.write_shard(&spec, *key, 4, st).unwrap();
            }
        }
        assert!(store.generations().is_empty(), "nothing committed yet");

        let committed = store.commit_complete_generations(&spec, cfg()).unwrap();
        assert_eq!(committed, vec![2]);
        assert_eq!(store.generations(), vec![2]);

        let r = store.load_latest(&spec, cfg()).unwrap();
        assert_eq!(r.generation, 2);
        assert!(!r.cross_topology);
        for (key, want) in &threads {
            assert_eq!(r.snapshot.threads[key].params, want.params, "{key:?}");
        }
        // Idempotent: gen 2 already committed, gen 4 still incomplete.
        let again = store.commit_complete_generations(&spec, cfg()).unwrap();
        assert!(again.is_empty(), "{again:?}");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn cross_topology_reshard_matches_direct_build() {
        let (root, store) = tmp_store("cross");
        let from = PtdpSpec::new(2, 2, 2);
        let threads = synthetic_states(cfg(), &from, 23);
        save_generation(&store, &from, 6, &threads);

        // Restore into (p=1, t=2, d=2): shards must equal cutting the
        // same master model directly for the new spec, and the moments
        // must keep their elementwise relation to the parameters.
        let to = PtdpSpec::new(1, 2, 2);
        let r = store.load_latest(&to, cfg()).unwrap();
        assert!(r.cross_topology);
        assert_eq!(r.snapshot.threads.len(), to.world());
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let master = GptModel::new(cfg(), &mut rng);
        for pi in 0..to.pipeline {
            for ti in 0..to.tensor {
                let want = build_thread_model(&master, &to, pi, ti).flat_params();
                for di in 0..to.data {
                    let got = &r.snapshot.threads[&(pi, di, ti)];
                    assert_eq!(got.params, want, "({pi},{di},{ti}) params");
                    assert_eq!(got.adam.t, 7);
                    for (mm, pp) in got.adam.m.iter().zip(&got.params) {
                        assert_eq!(*mm, pp + 1.0, "moment lost positional alignment");
                    }
                    for (vv, pp) in got.adam.v.iter().zip(&got.params) {
                        assert_eq!(*vv, pp * pp);
                    }
                }
            }
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn zero1_generations_skip_canonical_and_reject_resharding() {
        let (root, store) = tmp_store("zero1");
        let mut spec = PtdpSpec::new(1, 2, 2);
        spec.shard_optimizer = true;
        let mut threads = synthetic_states(cfg(), &spec, 31);
        // ZeRO-1 moments cover a 1/d slice.
        for st in threads.values_mut() {
            let half = st.params.len().div_ceil(2);
            st.adam.m.truncate(half);
            st.adam.v.truncate(half);
        }
        save_generation(&store, &spec, 2, &threads);
        assert!(
            !store.gen_dir(2).join(CANONICAL_NAME).exists(),
            "ZeRO-1 runs must not write a canonical layout"
        );

        // Same topology restores fine, slice moments and all.
        let same = store.load_latest(&spec, cfg()).unwrap();
        assert_eq!(
            same.snapshot.threads[&(0, 1, 0)].adam.m,
            threads[&(0, 1, 0)].adam.m
        );

        // A different topology has nothing to reshard from.
        let other = PtdpSpec::new(2, 2, 1);
        let err = store.load_latest(&other, cfg()).unwrap_err();
        assert_eq!(err, CheckpointError::NoneAvailable);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_older() {
        let (root, store) = tmp_store("fallback");
        let spec = PtdpSpec::new(2, 1, 2);
        let threads = synthetic_states(cfg(), &spec, 47);
        save_generation(&store, &spec, 2, &threads);
        save_generation(&store, &spec, 4, &threads);

        // Flip one byte in a gen-4 shard: the loader must reject gen-4
        // with a clean note and restore gen-2.
        let victim = store.gen_dir(4).join(shard_name((1, 0, 0)));
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&victim, &bytes).unwrap();

        let r = store.load_latest(&spec, cfg()).unwrap();
        assert_eq!(r.generation, 2);
        assert_eq!(r.notes.len(), 1);
        assert!(r.notes[0].contains("gen-00000004"), "{:?}", r.notes);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn fuzzed_corruption_never_panics() {
        // Truncations and byte flips at arbitrary offsets, over every file
        // of a generation: load_latest must always return Ok(older) — the
        // intact gen-2 — or a clean error, and never panic.
        let (root, store) = tmp_store("fuzz");
        let spec = PtdpSpec::new(2, 1, 1);
        let threads = synthetic_states(cfg(), &spec, 53);
        save_generation(&store, &spec, 2, &threads);
        save_generation(&store, &spec, 4, &threads);

        let files: Vec<PathBuf> = fs::read_dir(store.gen_dir(4))
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        assert!(files.len() >= 3, "shards + canonical + manifest");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xbadc0de);
        for round in 0..60 {
            let path = &files[rng.gen_range(0..files.len())];
            let pristine = fs::read(path).unwrap();
            let mut bytes = pristine.clone();
            if rng.gen_range(0..2) == 0 {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                let off = rng.gen_range(0..bytes.len());
                bytes[off] ^= 1 << rng.gen_range(0..8);
            }
            fs::write(path, &bytes).unwrap();
            let is_canonical = path.file_name().unwrap() == CANONICAL_NAME;
            match store.load_latest(&spec, cfg()) {
                Ok(r) => {
                    // Gen-4 may only survive if the mutation landed in the
                    // canonical layout — the same-topology path reads just
                    // the shards and manifest (CRC covers every byte of
                    // those, so a flip anywhere in them is always caught).
                    assert!(
                        r.generation == 2 || is_canonical || bytes == pristine,
                        "round {round}: corrupt gen-4 restored from {:?}",
                        path.file_name()
                    );
                }
                Err(e) => assert_eq!(e, CheckpointError::NoneAvailable, "round {round}"),
            }
            // And the cross-topology path (manifest + canonical) must be
            // equally unpanickable under the same corruption.
            let cross = PtdpSpec::new(1, 1, 1);
            match store.load_latest(&cross, cfg()) {
                Ok(_) => {}
                Err(e) => assert_eq!(e, CheckpointError::NoneAvailable, "round {round} cross"),
            }
            fs::write(path, &pristine).unwrap();
        }
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn uncommitted_generation_is_invisible() {
        let (root, store) = tmp_store("uncommitted");
        let spec = PtdpSpec::new(2, 1, 1);
        let threads = synthetic_states(cfg(), &spec, 59);
        save_generation(&store, &spec, 2, &threads);
        // Generation 4 writes shards but never commits (no manifest): a
        // crash between the last shard and the manifest.
        for (key, st) in &threads {
            store.write_shard(&spec, *key, 4, st).unwrap();
        }
        let r = store.load_latest(&spec, cfg()).unwrap();
        assert_eq!(r.generation, 2);
        assert_eq!(store.generations(), vec![2]);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn prune_keeps_newest_generations() {
        let root = std::env::temp_dir().join(format!("mgckpt-{}-prune", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = CheckpointStore::open_with_keep(&root, 2).unwrap();
        let spec = PtdpSpec::new(1, 1, 2);
        let threads = synthetic_states(cfg(), &spec, 61);
        for gen in [2, 4, 6] {
            save_generation(&store, &spec, gen, &threads);
        }
        assert_eq!(store.generations(), vec![4, 6]);
        assert!(!store.gen_dir(2).exists());
        assert_eq!(store.save_windows().len(), 3);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn wrong_model_config_is_rejected_cleanly() {
        let (root, store) = tmp_store("wrongcfg");
        let spec = PtdpSpec::new(1, 1, 1);
        let threads = synthetic_states(cfg(), &spec, 67);
        save_generation(&store, &spec, 2, &threads);
        let mut other = cfg();
        other.layers = 4;
        let err = store.load_latest(&spec, other).unwrap_err();
        assert_eq!(err, CheckpointError::NoneAvailable);
        let _ = fs::remove_dir_all(root);
    }
}

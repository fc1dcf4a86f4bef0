//! Durable sharded checkpoints — the on-disk counterpart of the trainer's
//! in-memory [`TrainSnapshot`], modeled on §5.10's per-rank checkpoint
//! layout.
//!
//! Every rank serializes its [`ThreadState`] (parameters + Adam moments,
//! exact f32 bits, each vector copied whole by the little-endian byte
//! codec the socket frames use, [`megatron_collective::codec`]) to its own
//! shard file under a *generation* directory `gen-<next_iter>`. Each file
//! is written atomically: temp file with a CRC-32 footer → rename, so a
//! crash mid-write leaves a temp file, never a torn shard. A generation
//! *is* its shards: once every rank of the world has one in the directory,
//! the rank whose shard completed the generation (or, in process mode, the
//! launcher's sweep) commits it by writing a manifest that records the
//! (p, t, d) topology, the model config and the iteration — and nothing
//! else. The manifest is the commit record: a
//! generation without one is invisible to the loader.
//!
//! Restore ([`CheckpointStore::load_latest`]) scans generations newest
//! first, verifies every checksum it reads, and falls back to the next
//! older complete generation on any corruption — it returns clean errors,
//! never panics. A run whose (p, t, d) matches the manifest restores from
//! the shards bit-identically. A run with a *different* topology (e.g. a
//! shrunken cluster after a failure) reads the stored topology from the
//! manifest, loads data-replica 0's `p·t` shards, unshards them into
//! serial visit order via [`crate::assemble`] — the parameters, and each
//! Adam moment vector riding in the parameter slots — and cuts the serial
//! models for the new (p, t, d): the reshaping happens at the rare
//! cross-topology load, never at a save. A rank's optimizer steps only its
//! `1/d` chunk of every parameter, but it gathers the full moments over its
//! data group before it writes, so every shard holds full moments and any
//! generation restores into any topology.
//!
//! The elastic supervisor ([`crate::supervisor::Supervisor::run_elastic`])
//! is the main cross-topology consumer: a shrink restores the latest
//! generation into the cheapest degraded (p, t, d) its caller ranks, and a
//! grow waits for the next checkpoint boundary because the boundary is where a
//! *committed* generation of the degraded run exists. Resharding is pure
//! slicing of exact f32 bits — never arithmetic — which is what makes
//! post-reconfiguration training bit-identical to a fresh launch at the
//! new topology (see `tests/recovery.rs` and the round-trip property in
//! `tests/proptest_invariants.rs`).
//!
//! The embedding and the LM head are vocab shards at every `t`
//! ([`crate::vocab`]), cut by the collectives' ceil-partition: `t` need not
//! divide the vocabulary, so a rank's shard may be shorter than its
//! peers', or empty, and a reshard cuts the serial tables the same way.
//! The files are `MGMANIF4` manifests and `MGSHARD2` shards since the
//! replicated layout and its topology flag went; a generation in an older
//! format, whose shards at `t > 1` may hold whole tables rather than vocab
//! shards, is skipped with a note.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use megatron_collective::{f32s_from, put_f32s};
use megatron_tensor::gpt::TinyGptConfig;
use megatron_tensor::AdamState;

use crate::assemble::assemble_from_flat;
use crate::trainer::{build_thread_model, PtdpSpec, ThreadKey, ThreadState, TrainSnapshot};

/// `MGSHARD1` shards carried a vocab-parallel flag in their topology and,
/// after it, a byte that flagged a `1/d` slice of the moments; under a
/// replicated-head topology at `t > 1` they hold whole embedding and head
/// tables, not vocab shards. Such a shard fails the magic check.
const SHARD_MAGIC: &[u8; 8] = b"MGSHARD2";
/// `MGMANIF1` manifests also carried a canonical-layout flag and a shard
/// count, `MGMANIF2` ones a flag for optimizer slices, and `MGMANIF2` and
/// `MGMANIF3` ones a vocab-parallel flag in their topology; a store written
/// in any of them fails the magic check and its generations are skipped
/// with a note.
const MANIFEST_MAGIC: &[u8; 8] = b"MGMANIF4";
const MANIFEST_NAME: &str = "MANIFEST.bin";

/// Why a durable checkpoint operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem error while writing or reading.
    Io(String),
    /// A file failed validation: bad magic, bad checksum, truncated, or
    /// inconsistent with its manifest.
    Corrupt(String),
    /// The checkpoint cannot be restored into the requesting job: it was
    /// written for another model config.
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
    /// Whether the shards were resharded because the stored topology
    /// differs from the requesting spec.
    pub cross_topology: bool,
    /// Human-readable notes about generations that were skipped (corrupt,
    /// another model config, ...), newest first.
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
    /// empirical `δ`: the `save` term of `megatron_core::goodput::Ledger`.
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

    /// Commit generation `next_iter`, whose per-rank states are `threads`:
    /// refuse unless `threads` covers the whole world and every rank's
    /// shard file is in the directory, then write the manifest. Prunes
    /// generations beyond the retention count afterwards.
    pub fn commit_generation(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
        next_iter: usize,
        threads: &HashMap<ThreadKey, ThreadState>,
    ) -> Result<(), CheckpointError> {
        if let Some(key) = world_keys(spec).find(|key| !threads.contains_key(key)) {
            return Err(CheckpointError::Corrupt(format!(
                "gen-{next_iter:08} cannot be committed: no state for rank {key:?}"
            )));
        }
        self.seal(spec, cfg, next_iter)
    }

    /// Write generation `next_iter`'s manifest — all a commit adds to the
    /// shards — once every rank of the world has a shard file there. Called
    /// once per generation: by the rank whose shard completed it, or by
    /// the launcher's sweep.
    pub(crate) fn seal(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
        next_iter: usize,
    ) -> Result<(), CheckpointError> {
        let dir = self.gen_dir(next_iter);
        if let Some(key) = missing_shard(&dir, spec) {
            return Err(CheckpointError::Corrupt(format!(
                "gen-{next_iter:08} cannot be committed: {} is missing",
                shard_name(key)
            )));
        }
        let mut enc = Enc::new(MANIFEST_MAGIC);
        enc.topology(spec);
        enc.config(cfg);
        enc.u64(next_iter as u64);
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
    /// generation directories and seal every one whose full world of
    /// shard files is present and valid. In process mode each worker
    /// writes only its own shard and cannot know when its peers' are on
    /// disk; the launcher, the one process that sees every shard, commits
    /// instead. A generation is looked at only once all `world` files are
    /// there; then each file's CRC and header are checked, and nothing is
    /// decoded or kept. Generations with missing or invalid shards (a
    /// worker died mid-generation) are left uncommitted for retention
    /// pruning to sweep. Returns the generations committed by this call,
    /// oldest first.
    pub fn commit_complete_generations(
        &self,
        spec: &PtdpSpec,
        cfg: TinyGptConfig,
    ) -> Result<Vec<usize>, CheckpointError> {
        let mut dirs = self.gen_dirs();
        dirs.sort_unstable_by_key(|d| d.0);
        let mut committed = Vec::new();
        for (generation, dir) in dirs {
            if dir.join(MANIFEST_NAME).is_file() || missing_shard(&dir, spec).is_some() {
                continue; // already committed, or still being written
            }
            // Shard writes are atomic (temp + rename), so a present-but-
            // invalid shard is corrupt, not in-flight — skip the generation.
            if world_keys(spec).any(|key| open_shard(&dir, spec, key, generation).is_err()) {
                continue;
            }
            self.seal(spec, cfg, generation)?;
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
            match load_generation(&dir, generation, spec, cfg) {
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
        let (snapshot, cross_topology) = load_generation(&dir, generation, spec, cfg)?;
        Ok(Restored {
            snapshot,
            generation,
            cross_topology,
            notes: Vec::new(),
        })
    }

    /// The directory generation `next_iter` lives in, committed or not:
    /// copying it into another store's root hands that store the
    /// generation.
    pub fn gen_dir(&self, next_iter: usize) -> PathBuf {
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

/// Restore the generation in `dir` for `spec`; the flag says whether it had
/// to be resharded from another topology.
fn load_generation(
    dir: &Path,
    generation: usize,
    spec: &PtdpSpec,
    cfg: TinyGptConfig,
) -> Result<(TrainSnapshot, bool), CheckpointError> {
    let mut dec = Dec::read(&dir.join(MANIFEST_NAME), MANIFEST_MAGIC)?;
    let topo = dec.topology()?;
    let stored_cfg = dec.config()?;
    let next_iter = dec.u64()? as usize;
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
        let threads = world_keys(spec)
            .map(|key| Ok((key, load_shard(dir, spec, key, next_iter)?)))
            .collect::<Result<_, CheckpointError>>()?;
        return Ok((TrainSnapshot { next_iter, threads }, false));
    }

    // Different topology: unshard replica 0, cut it for `spec`.
    let threads = reshard(dir, &topo.spec(spec), spec, cfg, next_iter)?;
    Ok((TrainSnapshot { next_iter, threads }, true))
}

/// Restore the generation in `dir`, written under the `stored` layout, into
/// per-thread states for `spec`: data-replica 0's shards are merged into
/// three serial models — the parameters, and the two moment vectors riding
/// in the parameter slots, so they stay positional with the parameters
/// through both directions of the trip — and each is cut into the new
/// spec's per-thread vectors.
fn reshard(
    dir: &Path,
    stored: &PtdpSpec,
    spec: &PtdpSpec,
    cfg: TinyGptConfig,
    next_iter: usize,
) -> Result<HashMap<ThreadKey, ThreadState>, CheckpointError> {
    let mut replica0 = HashMap::new();
    for pi in 0..stored.pipeline {
        for ti in 0..stored.tensor {
            let state = load_shard(dir, stored, (pi, 0, ti), next_iter)?;
            replica0.insert((pi, ti), state);
        }
    }
    let adam_t = replica0[&(0, 0)].adam.t;
    let keys: Vec<(usize, usize)> = (0..spec.pipeline)
        .flat_map(|pi| (0..spec.tensor).map(move |ti| (pi, ti)))
        .collect();
    let cut = |vector: fn(&ThreadState) -> &[f32]| {
        let serial = assemble_from_flat(cfg, stored, &|pi, ti| vector(&replica0[&(pi, ti)]))
            .map_err(CheckpointError::Corrupt)?;
        let pieces = keys
            .iter()
            .map(|&(pi, ti)| build_thread_model(&serial, spec, pi, ti).flat_params());
        Ok::<Vec<Vec<f32>>, CheckpointError>(pieces.collect())
    };
    let params = cut(|st| &st.params)?;
    let m = cut(|st| &st.adam.m)?;
    let v = cut(|st| &st.adam.v)?;
    let mut threads = HashMap::new();
    for (((&(pi, ti), params), m), v) in keys.iter().zip(params).zip(m).zip(v) {
        let adam = AdamState { t: adam_t, m, v };
        let state = ThreadState { params, adam };
        for di in 0..spec.data {
            threads.insert((pi, di, ti), state.clone());
        }
    }
    Ok(threads)
}

/// Every rank of `spec`'s world, in flat-rank order.
fn world_keys(spec: &PtdpSpec) -> impl Iterator<Item = ThreadKey> + '_ {
    (0..spec.world()).map(|rank| spec.thread_key(rank))
}

/// The first rank of the world with no shard file in `dir`, if any.
fn missing_shard(dir: &Path, spec: &PtdpSpec) -> Option<ThreadKey> {
    world_keys(spec).find(|&key| !dir.join(shard_name(key)).is_file())
}

/// Read rank `key`'s shard file whole and check it: CRC-32 footer, magic,
/// and a header that names this topology, rank and generation. The decoder is left at the Adam step count.
fn open_shard(
    dir: &Path,
    spec: &PtdpSpec,
    key: ThreadKey,
    next_iter: usize,
) -> Result<Dec, CheckpointError> {
    let mut dec = Dec::read(&dir.join(shard_name(key)), SHARD_MAGIC)?;
    let topo = dec.topology()?;
    let stored_key = (
        dec.u64()? as usize,
        dec.u64()? as usize,
        dec.u64()? as usize,
    );
    let stored_iter = dec.u64()? as usize;
    let header = (topo, stored_key, stored_iter);
    if header != (Topology::of(spec), key, next_iter) {
        return Err(CheckpointError::Corrupt(format!(
            "shard {} header disagrees with its manifest",
            shard_name(key)
        )));
    }
    Ok(dec)
}

fn load_shard(
    dir: &Path,
    spec: &PtdpSpec,
    key: ThreadKey,
    next_iter: usize,
) -> Result<ThreadState, CheckpointError> {
    let mut dec = open_shard(dir, spec, key, next_iter)?;
    let adam_t = dec.u64()?;
    let params = dec.f32s()?;
    let m = dec.f32s()?;
    let v = dec.f32s()?;
    dec.done()?;
    Ok(ThreadState {
        params,
        adam: AdamState { t: adam_t, m, v },
    })
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
}

impl Topology {
    /// `like` with its layout fields replaced by the stored ones.
    fn spec(&self, like: &PtdpSpec) -> PtdpSpec {
        PtdpSpec {
            pipeline: self.p as usize,
            tensor: self.t as usize,
            data: self.d as usize,
            chunks: self.chunks as usize,
            ..*like
        }
    }

    fn of(spec: &PtdpSpec) -> Topology {
        Topology {
            p: spec.pipeline as u64,
            t: spec.tensor as u64,
            d: spec.data as u64,
            chunks: spec.chunks as u64,
        }
    }
}

/// One step of the bitwise CRC-32 (IEEE 802.3, reflected): eight shifts of
/// `crc` with its low byte already folded in.
const fn crc32_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// Slice-by-8 tables: `CRC_TABLES[k][b]` is the CRC state byte `b` leaves
/// after `k` further zero bytes have gone through.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc32_byte(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected), eight bytes per table round — the same
/// value as the bit-at-a-time loop, dependency-free.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Little-endian binary encoder with a trailing CRC-32 footer. An `f32`
/// vector is copied in whole by the socket frames' codec
/// ([`megatron_collective::put_f32s`]): the same bytes as one `to_le_bytes`
/// per float, pinned by `shard_bytes_equal_the_per_float_encoding`.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(magic: &[u8; 8]) -> Enc {
        Enc {
            buf: magic.to_vec(),
        }
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// A length-prefixed vector: `len : u64 LE | len × f32 LE`.
    fn f32s(&mut self, xs: &[f32]) {
        self.buf.reserve(8 + 4 * xs.len());
        self.u64(xs.len() as u64);
        put_f32s(&mut self.buf, xs);
    }

    fn topology(&mut self, spec: &PtdpSpec) {
        let t = Topology::of(spec);
        self.u64(t.p);
        self.u64(t.t);
        self.u64(t.d);
        self.u64(t.chunks);
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

/// Checked little-endian decoder over a fully CRC-validated buffer; an
/// `f32` vector comes out with one copy ([`megatron_collective::f32s_from`]).
struct Dec {
    buf: Vec<u8>,
    pos: usize,
}

impl Dec {
    /// Read `path`, verify magic and CRC-32 footer, and position the
    /// cursor after the magic.
    fn read(path: &Path, magic: &[u8; 8]) -> Result<Dec, CheckpointError> {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?");
        let mut buf = fs::read(path).map_err(|e| {
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
        let body = buf.len() - 4;
        let want = u32::from_le_bytes(buf[body..].try_into().unwrap());
        buf.truncate(body);
        if crc32(&buf) != want {
            return Err(CheckpointError::Corrupt(format!(
                "{name} fails its CRC-32 check"
            )));
        }
        if &buf[..magic.len()] != magic {
            return Err(CheckpointError::Corrupt(format!("{name} has a bad magic")));
        }
        Ok(Dec {
            buf,
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
        Ok(f32s_from(self.take(n * 4)?))
    }

    fn topology(&mut self) -> Result<Topology, CheckpointError> {
        Ok(Topology {
            p: self.u64()?,
            t: self.u64()?,
            d: self.u64()?,
            chunks: self.u64()?,
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
    use megatron_tensor::gpt::GptModel;
    use rand::{Rng, SeedableRng};

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
        let spec = PtdpSpec::new(2, 2, 2);
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
        assert_generation_is_its_shards(&store, 4, &spec);
        let _ = fs::remove_dir_all(root);
    }

    /// A shard as the per-float encoder wrote it before the f32 codec: every
    /// field and every float its own `to_le_bytes`, then the CRC-32 footer.
    fn per_float_shard(
        spec: &PtdpSpec,
        key: ThreadKey,
        next_iter: usize,
        st: &ThreadState,
    ) -> Vec<u8> {
        let mut b = SHARD_MAGIC.to_vec();
        let t = Topology::of(spec);
        for x in [t.p, t.t, t.d, t.chunks] {
            b.extend_from_slice(&x.to_le_bytes());
        }
        for x in [key.0, key.1, key.2, next_iter] {
            b.extend_from_slice(&(x as u64).to_le_bytes());
        }
        b.extend_from_slice(&st.adam.t.to_le_bytes());
        for xs in [&st.params, &st.adam.m, &st.adam.v] {
            b.extend_from_slice(&(xs.len() as u64).to_le_bytes());
            for x in xs {
                b.extend_from_slice(&x.to_le_bytes());
            }
        }
        let crc = crc32_bitwise(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        b
    }

    #[test]
    fn shard_bytes_equal_the_per_float_encoding() {
        let (root, store) = tmp_store("per-float");
        let spec = PtdpSpec::new(2, 2, 1);
        let mut threads = synthetic_states(cfg(), &spec, 5);
        // The floats a byte codec can get wrong, in every vector.
        let awkward = [
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            -0.0,
            f32::from_bits(1),
            f32::NEG_INFINITY,
            f32::MAX,
        ];
        for st in threads.values_mut() {
            for xs in [&mut st.params, &mut st.adam.m, &mut st.adam.v] {
                xs[..awkward.len()].copy_from_slice(&awkward);
            }
        }
        save_generation(&store, &spec, 2, &threads);
        for (key, st) in &threads {
            let written = fs::read(store.gen_dir(2).join(shard_name(*key))).unwrap();
            assert!(
                written == per_float_shard(&spec, *key, 2, st),
                "{key:?}: the shard's bytes moved"
            );
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let r = store.load_latest(&spec, cfg()).unwrap();
        for (key, want) in &threads {
            let got = &r.snapshot.threads[key];
            assert_eq!(bits(&got.params), bits(&want.params), "{key:?} params");
            assert_eq!(bits(&got.adam.m), bits(&want.adam.m), "{key:?} m");
            assert_eq!(bits(&got.adam.v), bits(&want.adam.v), "{key:?} v");
        }
        let _ = fs::remove_dir_all(root);
    }

    /// A committed generation directory holds one shard per rank and the
    /// manifest — no second copy of the model, no temp file left behind.
    fn assert_generation_is_its_shards(
        store: &CheckpointStore,
        generation: usize,
        spec: &PtdpSpec,
    ) {
        let mut found: Vec<String> = fs::read_dir(store.gen_dir(generation))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        found.sort();
        let mut want: Vec<String> = world_keys(spec).map(shard_name).collect();
        want.push(MANIFEST_NAME.to_string());
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn launcher_committer_commits_only_complete_generations() {
        let (root, store) = tmp_store("committer");
        let spec = PtdpSpec::new(2, 2, 2);
        let threads = synthetic_states(cfg(), &spec, 31);
        // Generation 2: every shard present but no manifest (the process-
        // mode worker situation). Generation 4: one shard missing (its
        // writer died mid-generation). Generation 6: every shard present,
        // one with a flipped bit.
        for (key, st) in &threads {
            store.write_shard(&spec, *key, 2, st).unwrap();
            store.write_shard(&spec, *key, 6, st).unwrap();
            if *key != (1, 1, 1) {
                store.write_shard(&spec, *key, 4, st).unwrap();
            }
        }
        let flipped = store.gen_dir(6).join(shard_name((0, 1, 0)));
        let mut bytes = fs::read(&flipped).unwrap();
        bytes[100] ^= 2;
        fs::write(&flipped, bytes).unwrap();
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
        // Idempotent: gen 2 already committed, gens 4 and 6 never will be.
        let again = store.commit_complete_generations(&spec, cfg()).unwrap();
        assert!(again.is_empty(), "{again:?}");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn cross_topology_restore_matches_cutting_the_serial_model() {
        // Stored layout -> requested layout, as (p, t, d, chunks). The
        // shards must come back equal to cutting the serial model directly
        // for the new spec, and the moments must keep their elementwise
        // relation to the parameters. A vocabulary of 13 gives uneven
        // vocab shards at t = 2 and t = 4 on both sides of the trip.
        type Layout = (usize, usize, usize, usize);
        let table: [(Layout, Layout); 7] = [
            ((2, 2, 2, 1), (1, 2, 2, 1)),
            ((1, 2, 2, 1), (1, 2, 1, 1)),
            ((1, 1, 1, 1), (4, 4, 1, 1)),
            ((2, 2, 1, 2), (1, 4, 2, 1)),
            ((4, 1, 2, 1), (1, 2, 1, 2)),
            ((2, 4, 1, 1), (2, 2, 2, 1)),
            ((1, 2, 2, 1), (2, 4, 1, 2)),
        ];
        let cfg = TinyGptConfig {
            vocab: 13,
            layers: 4,
            ..cfg()
        };
        let layout = |(p, t, d, chunks): Layout| PtdpSpec {
            chunks,
            ..PtdpSpec::new(p, t, d)
        };
        for (case, (from, to)) in table.into_iter().enumerate() {
            let (root, store) = tmp_store(&format!("cross-{case}"));
            let (from, to) = (layout(from), layout(to));
            let seed = 23 + case as u64;
            let threads = synthetic_states(cfg, &from, seed);
            for (key, st) in &threads {
                store.write_shard(&from, *key, 6, st).unwrap();
            }
            store.commit_generation(&from, cfg, 6, &threads).unwrap();

            let r = store.load_latest(&to, cfg).unwrap();
            assert!(r.cross_topology, "case {case}");
            assert_eq!(r.snapshot.next_iter, 6);
            assert_eq!(r.snapshot.threads.len(), to.world(), "case {case}");
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let master = GptModel::new(cfg, &mut rng);
            for (pi, di, ti) in world_keys(&to) {
                let want = build_thread_model(&master, &to, pi, ti).flat_params();
                let got = &r.snapshot.threads[&(pi, di, ti)];
                assert_eq!(got.params, want, "case {case} ({pi},{di},{ti}) params");
                assert_eq!(got.adam.t, 7);
                let m: Vec<f32> = want.iter().map(|x| x + 1.0).collect();
                let v: Vec<f32> = want.iter().map(|x| x * x).collect();
                assert_eq!(got.adam.m, m, "case {case} ({pi},{di},{ti}) m");
                assert_eq!(got.adam.v, v, "case {case} ({pi},{di},{ti}) v");
            }
            let _ = fs::remove_dir_all(root);
        }
    }

    #[test]
    fn commit_refuses_an_incomplete_world() {
        let (root, store) = tmp_store("incomplete");
        let spec = PtdpSpec::new(2, 1, 2);
        let mut threads = synthetic_states(cfg(), &spec, 37);
        for (key, st) in &threads {
            store.write_shard(&spec, *key, 2, st).unwrap();
        }
        // A shard file gone from the directory.
        let gone = store.gen_dir(2).join(shard_name((1, 1, 0)));
        let bytes = fs::read(&gone).unwrap();
        fs::remove_file(&gone).unwrap();
        let err = store
            .commit_generation(&spec, cfg(), 2, &threads)
            .unwrap_err();
        assert!(matches!(&err, CheckpointError::Corrupt(m) if m.contains("shard-p1-d1-t0")));
        fs::write(&gone, bytes).unwrap();
        // A rank gone from the states the caller says it saved.
        threads.remove(&(0, 0, 0));
        let err = store
            .commit_generation(&spec, cfg(), 2, &threads)
            .unwrap_err();
        assert!(matches!(&err, CheckpointError::Corrupt(m) if m.contains("(0, 0, 0)")));
        assert!(store.generations().is_empty(), "nothing was committed");
        let _ = fs::remove_dir_all(root);
    }

    /// Rank `key`'s shard as `MGSHARD1` wrote it: the topology with its
    /// vocab-parallel flag, then the moments flag (`1` for a `1/d` slice).
    fn parent_shard(
        spec: &PtdpSpec,
        key: ThreadKey,
        next_iter: usize,
        st: &ThreadState,
        moment_slices: bool,
    ) -> Vec<u8> {
        let mut enc = Enc::new(b"MGSHARD1");
        enc.topology(spec);
        enc.buf.extend([1, moment_slices as u8]);
        for x in [key.0, key.1, key.2, next_iter] {
            enc.u64(x as u64);
        }
        enc.u64(st.adam.t);
        enc.f32s(&st.params);
        enc.f32s(&st.adam.m);
        enc.f32s(&st.adam.v);
        enc.finish()
    }

    /// A manifest in an older format: `magic`, the topology with its
    /// vocab-parallel flag, `MGMANIF2`'s optimizer-slices flag when
    /// `slices` holds one, the config and the iteration.
    fn parent_manifest(magic: &[u8; 8], spec: &PtdpSpec, slices: Option<u8>) -> Vec<u8> {
        let mut enc = Enc::new(magic);
        enc.topology(spec);
        enc.buf.push(1);
        enc.buf.extend(slices);
        enc.config(cfg());
        enc.u64(4);
        enc.finish()
    }

    #[test]
    fn parent_format_manifest_is_skipped_with_a_note() {
        // Generation 4 is written in the current format, then one of its
        // files is replaced by a valid file (its CRC sealed) of an older
        // format: an `MGMANIF2` or `MGMANIF3` manifest, or an `MGSHARD1`
        // shard, also one flagged as holding moment slices. Each must be
        // refused by its magic, so the loader falls back to generation 2.
        let spec = PtdpSpec::new(2, 1, 1);
        let threads = synthetic_states(cfg(), &spec, 41);
        let key = (1, 0, 0);
        let manifest = MANIFEST_NAME.to_string();
        let older: [(String, Vec<u8>); 4] = [
            (
                manifest.clone(),
                parent_manifest(b"MGMANIF2", &spec, Some(0)),
            ),
            (manifest, parent_manifest(b"MGMANIF3", &spec, None)),
            (
                shard_name(key),
                parent_shard(&spec, key, 4, &threads[&key], false),
            ),
            (
                shard_name(key),
                parent_shard(&spec, key, 4, &threads[&key], true),
            ),
        ];
        for (case, (file, bytes)) in older.into_iter().enumerate() {
            let (root, store) = tmp_store(&format!("oldformat-{case}"));
            save_generation(&store, &spec, 2, &threads);
            save_generation(&store, &spec, 4, &threads);
            fs::write(store.gen_dir(4).join(&file), bytes).unwrap();

            for to in [spec, PtdpSpec::new(1, 1, 1)] {
                let r = store.load_latest(&to, cfg()).unwrap();
                assert_eq!(r.generation, 2, "case {case}");
                assert_eq!(r.notes.len(), 1, "case {case}");
                assert!(r.notes[0].contains("gen-00000004"), "{:?}", r.notes);
                assert!(r.notes[0].contains("bad magic"), "{:?}", r.notes);
            }
            let err = store.load_pinned(&spec, cfg(), 4).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Corrupt(m) if m.contains("bad magic")),
                "case {case}: {err}"
            );
            let _ = fs::remove_dir_all(root);
        }
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
    fn fuzzed_corruption_falls_back_and_never_panics() {
        // Truncations and bit flips at arbitrary offsets, over every file
        // of a generation. The same-topology path reads every shard and
        // the manifest, the cross-topology path replica 0's shards and the
        // manifest; the CRC covers every byte of a file, so a restore that
        // reads the mutated file must fall back to the intact gen-2 with a
        // note, and one that does not must not notice.
        let (root, store) = tmp_store("fuzz");
        let spec = PtdpSpec::new(2, 1, 2);
        let cross = PtdpSpec::new(1, 1, 1);
        let threads = synthetic_states(cfg(), &spec, 53);
        save_generation(&store, &spec, 2, &threads);
        save_generation(&store, &spec, 4, &threads);

        let replica1: Vec<PathBuf> = [(0, 1, 0), (1, 1, 0)]
            .map(|key| store.gen_dir(4).join(shard_name(key)))
            .to_vec();
        let files: Vec<PathBuf> = fs::read_dir(store.gen_dir(4))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xbadc0de);
        let mut unread = 0;
        for round in 0..120 {
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

            let fell_back = |r: &Restored| {
                assert_eq!(r.generation, 2, "round {round}: {path:?}");
                assert_eq!(r.notes.len(), 1, "round {round}: {:?}", r.notes);
                assert!(r.notes[0].contains("gen-00000004"), "{:?}", r.notes);
            };
            fell_back(&store.load_latest(&spec, cfg()).unwrap());
            let r = store.load_latest(&cross, cfg()).unwrap();
            assert!(r.cross_topology);
            if replica1.contains(path) {
                assert_eq!(r.generation, 4, "round {round}: {path:?}");
                assert!(r.notes.is_empty(), "round {round}: {:?}", r.notes);
                unread += 1;
            } else {
                fell_back(&r);
            }
            fs::write(path, &pristine).unwrap();
        }
        assert!((20..100).contains(&unread), "{unread} of 120 rounds");
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

    /// The bit-at-a-time loop `crc32` replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
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

    #[test]
    fn table_driven_crc_equals_the_bitwise_loop() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc4c);
        // Every length around the 8-byte rounds, then one of several MiB
        // that ends mid-round.
        for len in (0..=64).chain([3 * 1024 * 1024 + 5]) {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "length {len}");
        }
    }
}

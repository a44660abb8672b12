//! Versioned on-disk artifact store: warm starts as a disk read.
//!
//! Every §3 artifact the [`SelectionEngine`](crate::SelectionEngine)
//! materializes is a pure function of `(graph, features, config)` — which
//! is exactly what makes it shippable. This module persists the three
//! heavy ones — the propagated `X^(k)` (with its power ladder), the
//! influence-row flat CSR, and the activation-index CSR — under a content
//! address, so a process restart replays a cold build as a validated file
//! read instead of a 29-second propagation + influence pass.
//!
//! # Content addressing
//!
//! An artifact file is identified by
//! `(graph_fingerprint, epoch, artifact_fingerprint, codec_version)`:
//!
//! - `graph_fingerprint` — a 64-bit content hash of the corpus lineage:
//!   adjacency CSR + feature matrix at registration, then mixed with a
//!   hash of every applied [`GraphDelta`](crate::streaming::GraphDelta).
//!   Two corpora that reached the same epoch number through *different*
//!   delta sequences therefore never collide.
//! - `epoch` — the corpus epoch the artifact was built at. A persisted
//!   pre-delta artifact can never be loaded for a post-delta epoch.
//! - `artifact_fingerprint` —
//!   [`GrainConfig::artifact_fingerprint`](crate::config::GrainConfig::artifact_fingerprint)
//!   (kernel, `influence_eps`, theta rule, radius, `influence_row_top_k`);
//!   the same string that keys pool entries.
//! - `codec_version` — bumped whenever the byte layout changes; older
//!   files are treated as absent, never misparsed.
//!
//! # Layout
//!
//! Files are written with the shared flat-binary [`codec`]
//! (shim policy: no serde dependency growth). The payload mirrors the
//! in-memory SoA structs: on little-endian targets a write hashes and
//! writes each flat array straight from the live artifact, and a read
//! is one bulk `memcpy` per array:
//!
//! | section | contents |
//! |---|---|
//! | magic | `b"GRAINART"` (8 bytes) |
//! | codec version | `u32`, currently 2 |
//! | artifact kind | `u32` (1 = propagation, 2 = rows, 3 = index) |
//! | graph fingerprint | `u64` |
//! | epoch | `u64` |
//! | artifact fingerprint | `u32` length + UTF-8 |
//! | kind header + payload | dims as `u64`, then the flat arrays |
//! | checksum | `u64` [`codec::checksum`] (word-wise FNV with the length folded in) over every preceding byte |
//!
//! # Failure model
//!
//! A file that fails *any* validation — truncated, bad magic, unknown
//! version, checksum mismatch, address mismatch, malformed CSR invariants
//! — is reported as a typed [`GrainError::StoreCorrupt`] and treated as
//! absent by callers: the request falls through to a normal cold build.
//! Corruption is never a crash and never a silently wrong artifact.
//! Writes go through a temp file + atomic rename, so a torn write leaves
//! either the old file or no file, both of which load correctly or miss.
//! A write that fails is counted in [`StoreStats::save_failures`].

use crate::codec::{self, Dec, DecResult, Enc, Fnv64};
use crate::engine::Propagated;
use crate::error::{GrainError, GrainResult};
use grain_graph::Graph;
use grain_influence::{ActivationIndex, InfluenceRows};
use grain_linalg::DenseMatrix;
use std::borrow::Cow;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// File magic: identifies a Grain artifact regardless of extension.
const MAGIC: [u8; 8] = *b"GRAINART";

/// Current byte-layout version. Bump on any layout change; older files
/// then read as [`GrainError::StoreCorrupt`] and cold builds re-persist.
pub const CODEC_VERSION: u32 = 2;

/// Which artifact a store file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `X^(k)` plus its power ladder (see [`grain_prop::propagate_with`]).
    Propagation,
    /// Influence-row flat CSR ([`InfluenceRows`]).
    InfluenceRows,
    /// Activation-index flat CSR ([`ActivationIndex`]).
    ActivationIndex,
}

impl ArtifactKind {
    fn tag(self) -> u32 {
        match self {
            ArtifactKind::Propagation => 1,
            ArtifactKind::InfluenceRows => 2,
            ArtifactKind::ActivationIndex => 3,
        }
    }

    fn ext(self) -> &'static str {
        match self {
            ArtifactKind::Propagation => "prop",
            ArtifactKind::InfluenceRows => "rows",
            ArtifactKind::ActivationIndex => "index",
        }
    }
}

/// The content address an artifact serializes under (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentAddress {
    /// Corpus lineage hash (adjacency + features + applied deltas).
    pub graph_fingerprint: u64,
    /// Corpus epoch the artifact was built at.
    pub epoch: u64,
    /// [`GrainConfig::artifact_fingerprint`](crate::GrainConfig::artifact_fingerprint)
    /// of the config that built it.
    pub artifact_fingerprint: String,
}

/// Counters behind [`ArtifactStore::stats`].
#[derive(Default)]
struct StoreCounters {
    saves: AtomicUsize,
    save_failures: AtomicUsize,
    loads: AtomicUsize,
    misses: AtomicUsize,
    corruptions: AtomicUsize,
    bytes_written: AtomicUsize,
    bytes_read: AtomicUsize,
}

/// Point-in-time snapshot of store activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts persisted (successful commits).
    pub saves: usize,
    /// Writes that failed (a full or vanished store directory, say).
    /// The artifact stays served from memory; only a restart misses it.
    pub save_failures: usize,
    /// Artifacts loaded and validated.
    pub loads: usize,
    /// Lookups that found no file (normal cold-start misses).
    pub misses: usize,
    /// Lookups that found a file but rejected it
    /// ([`GrainError::StoreCorrupt`]); each fell through to a cold build.
    pub corruptions: usize,
    /// Total bytes committed to disk.
    pub bytes_written: usize,
    /// Total bytes read back (validated loads only).
    pub bytes_read: usize,
}

/// An artifact not yet written: its address and shared handles to the
/// live artifact. Taking one under the engine lock clones `Arc`s only;
/// [`ArtifactStore::commit`] encodes and writes it after the lock drops.
pub struct PendingArtifact {
    pub(crate) addr: ContentAddress,
    pub(crate) payload: Payload,
}

/// A persisted stage's artifact: what a [`PendingArtifact`] writes and
/// what [`ArtifactStore::load_payload`] reads.
pub(crate) enum Payload {
    /// `X^(k)` plus its power ladder.
    Propagation(Arc<Propagated>),
    Rows(Arc<InfluenceRows>),
    Index(Arc<ActivationIndex>),
}

/// A directory of content-addressed artifact files. All methods are
/// `&self` and safe to call concurrently; see the module docs for the
/// layout and failure model.
pub struct ArtifactStore {
    dir: PathBuf,
    counters: StoreCounters,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> GrainResult<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| GrainError::store(format!("cannot create store dir {dir:?}: {e}")))?;
        Ok(Self {
            dir,
            counters: StoreCounters::default(),
        })
    }

    /// The directory artifacts live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of save/load/miss/corruption counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            saves: self.counters.saves.load(Ordering::Relaxed),
            save_failures: self.counters.save_failures.load(Ordering::Relaxed),
            loads: self.counters.loads.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            corruptions: self.counters.corruptions.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// The file an address + kind maps to. The artifact fingerprint is a
    /// free-form string, so the filename carries its hash; the full
    /// string is stored (and verified) inside the header, which turns a
    /// filename-hash collision into a detected mismatch, not a wrong
    /// artifact.
    pub fn path_for(&self, addr: &ContentAddress, kind: ArtifactKind) -> PathBuf {
        let mut fp_hash = Fnv64::new();
        fp_hash.write(addr.artifact_fingerprint.as_bytes());
        self.dir.join(format!(
            "{:016x}-e{}-{:016x}.{}.grain",
            addr.graph_fingerprint,
            addr.epoch,
            fp_hash.finish(),
            kind.ext()
        ))
    }

    // ---- save --------------------------------------------------------------

    /// Writes a pending artifact through the same writer as the `save_*`
    /// methods and returns the bytes committed.
    pub fn commit(&self, pending: PendingArtifact) -> GrainResult<usize> {
        let addr = &pending.addr;
        match &pending.payload {
            Payload::Propagation(p) => {
                let levels: Vec<&DenseMatrix> = p.ladder.iter().collect();
                self.save_propagation(addr, &p.value, &levels)
            }
            Payload::Rows(rows) => self.save_rows(addr, rows),
            Payload::Index(index) => self.save_index(addr, index),
        }
    }

    /// Writes `X^(k)` plus its power ladder and returns the bytes
    /// committed.
    pub fn save_propagation(
        &self,
        addr: &ContentAddress,
        value: &DenseMatrix,
        ladder: &[&DenseMatrix],
    ) -> GrainResult<usize> {
        let mut enc = header(addr, ArtifactKind::Propagation);
        enc.u64(value.rows() as u64);
        enc.u64(value.cols() as u64);
        enc.u64(ladder.len() as u64);
        let mut bulk = vec![codec::le_bytes(value.as_slice())];
        for level in ladder {
            assert_eq!(
                (level.rows(), level.cols()),
                (value.rows(), value.cols()),
                "ladder levels share X^(k)'s shape"
            );
            bulk.push(codec::le_bytes(level.as_slice()));
        }
        self.write(addr, ArtifactKind::Propagation, enc, &bulk)
    }

    /// Writes influence rows and returns the bytes committed.
    pub fn save_rows(&self, addr: &ContentAddress, rows: &InfluenceRows) -> GrainResult<usize> {
        let mut enc = header(addr, ArtifactKind::InfluenceRows);
        enc.u64(rows.num_nodes() as u64);
        enc.u64(rows.nnz() as u64);
        enc.u64(rows.k() as u64);
        let bulk = [
            codec::usize_le_bytes(rows.offsets()),
            codec::le_bytes(rows.cols()),
            codec::le_bytes(rows.vals()),
        ];
        self.write(addr, ArtifactKind::InfluenceRows, enc, &bulk)
    }

    /// Writes an activation index and returns the bytes committed.
    pub fn save_index(&self, addr: &ContentAddress, index: &ActivationIndex) -> GrainResult<usize> {
        let mut enc = header(addr, ArtifactKind::ActivationIndex);
        enc.u64(index.num_nodes() as u64);
        enc.u64(index.total_entries() as u64);
        enc.u64(index.k() as u64);
        enc.f32(index.theta());
        let bulk = [
            codec::usize_le_bytes(index.offsets()),
            codec::le_bytes(index.items()),
        ];
        self.write(addr, ArtifactKind::ActivationIndex, enc, &bulk)
    }

    /// The one writer. `header` (the address, then the kind's dims) is
    /// complete before any byte is hashed, so the file's exact length is
    /// known up front; each `bulk` slice is then hashed and written to a
    /// temp file of this write's own, `<name>.<pid>-<seq>.tmp`, straight
    /// from the artifact, the checksum appended, and the file renamed
    /// into place. Racing commits of the same address — from threads or
    /// from processes sharing the directory — are safe: no two writes
    /// share a temp file, each rename swaps in a whole file, and content
    /// addressing + bit-identical builds mean every writer carries the
    /// same bytes. A failed write removes its temp file and counts in
    /// [`StoreStats::save_failures`].
    fn write(
        &self,
        addr: &ContentAddress,
        kind: ArtifactKind,
        header: Enc,
        bulk: &[Cow<'_, [u8]>],
    ) -> GrainResult<usize> {
        let header = header.into_bytes();
        let body = header.len() + bulk.iter().map(|b| b.len()).sum::<usize>();
        let path = self.path_for(addr, kind);
        let mut tmp = path.clone().into_os_string();
        tmp.push(format!(".{}.tmp", unique_id()));
        let written = (|| {
            let mut file = fs::File::create(&tmp)?;
            let mut sum = codec::Checksum::new(body);
            for piece in std::iter::once(&header[..]).chain(bulk.iter().map(|b| &b[..])) {
                sum.write(piece);
                file.write_all(piece)?;
            }
            file.write_all(&sum.finish().to_le_bytes())?;
            drop(file);
            fs::rename(&tmp, &path)
        })();
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            self.counters.save_failures.fetch_add(1, Ordering::Relaxed);
            return Err(GrainError::store(format!("cannot write {path:?}: {e}")));
        }
        let len = body + 8;
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(len, Ordering::Relaxed);
        Ok(len)
    }

    // ---- load ------------------------------------------------------------

    /// Loads and validates `X^(k)` + ladder. `Ok(None)` = no file (normal
    /// miss); `Err(StoreCorrupt)` = a file that failed validation (the
    /// caller cold-builds either way).
    pub fn load_propagation(
        &self,
        addr: &ContentAddress,
    ) -> GrainResult<Option<(DenseMatrix, Vec<DenseMatrix>)>> {
        self.load(addr, ArtifactKind::Propagation, |dec| {
            let rows = dec.usize()?;
            let cols = dec.usize()?;
            let levels = dec.usize()?;
            let cells = rows.checked_mul(cols).ok_or("propagation dims overflow")?;
            let value = DenseMatrix::from_vec(rows, cols, dec.vec(cells)?);
            let ladder = (0..levels)
                .map(|_| Ok(DenseMatrix::from_vec(rows, cols, dec.vec(cells)?)))
                .collect::<DecResult<Vec<_>>>()?;
            Ok((value, ladder))
        })
    }

    /// Loads and validates influence rows (see
    /// [`ArtifactStore::load_propagation`] for the `None`/`Err` contract).
    pub fn load_rows(&self, addr: &ContentAddress) -> GrainResult<Option<InfluenceRows>> {
        self.load(addr, ArtifactKind::InfluenceRows, |dec| {
            let n = dec.usize()?;
            let nnz = dec.usize()?;
            let k = dec.usize()?;
            let offsets = dec.usize_vec(n.checked_add(1).ok_or("node count overflows")?)?;
            let cols = dec.vec(nnz)?;
            let vals = dec.vec(nnz)?;
            validate_csr(&offsets, &cols, nnz, n, "influence rows")?;
            Ok(InfluenceRows::from_parts(offsets, cols, vals, k))
        })
    }

    /// Loads and validates an activation index (see
    /// [`ArtifactStore::load_propagation`] for the `None`/`Err` contract).
    pub fn load_index(&self, addr: &ContentAddress) -> GrainResult<Option<ActivationIndex>> {
        self.load(addr, ArtifactKind::ActivationIndex, |dec| {
            let n = dec.usize()?;
            let entries = dec.usize()?;
            let k = dec.usize()?;
            let theta = dec.f32()?;
            let offsets = dec.usize_vec(n.checked_add(1).ok_or("node count overflows")?)?;
            let items = dec.vec(entries)?;
            validate_csr(&offsets, &items, entries, n, "activation index")?;
            Ok(ActivationIndex::from_parts(offsets, items, theta, k))
        })
    }

    /// Loads and validates the `kind` artifact at `addr` as a payload
    /// (see [`ArtifactStore::load_propagation`] for the `None`/`Err`
    /// contract).
    pub(crate) fn load_payload(
        &self,
        addr: &ContentAddress,
        kind: ArtifactKind,
    ) -> GrainResult<Option<Payload>> {
        Ok(match kind {
            ArtifactKind::Propagation => self.load_propagation(addr)?.map(|(value, ladder)| {
                let value = Arc::new(value);
                Payload::Propagation(Arc::new(Propagated { value, ladder }))
            }),
            ArtifactKind::InfluenceRows => {
                self.load_rows(addr)?.map(|r| Payload::Rows(Arc::new(r)))
            }
            ArtifactKind::ActivationIndex => {
                self.load_index(addr)?.map(|i| Payload::Index(Arc::new(i)))
            }
        })
    }

    /// Reads the file an address + kind maps to, validates everything
    /// address-level — checksum, magic, version, kind and the full
    /// content address — then hands the body to the kind's `parse` and
    /// requires it to consume every byte.
    fn load<T>(
        &self,
        addr: &ContentAddress,
        kind: ArtifactKind,
        parse: impl FnOnce(&mut Dec<'_>) -> DecResult<T>,
    ) -> GrainResult<Option<T>> {
        let path = self.path_for(addr, kind);
        let raw = match fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => {
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                return Err(GrainError::store(format!("cannot read {path:?}: {e}")));
            }
        };
        let parsed = codec::unseal(&raw).and_then(|body| {
            let mut dec = Dec::new(body);
            if dec.take(MAGIC.len())? != MAGIC {
                return Err("bad magic".to_string());
            }
            let version = dec.u32()?;
            if version != CODEC_VERSION {
                return Err(format!("codec version {version}, expected {CODEC_VERSION}"));
            }
            let tag = dec.u32()?;
            if tag != kind.tag() {
                return Err(format!("artifact tag {tag}, expected {}", kind.tag()));
            }
            let graph_fp = dec.u64()?;
            let epoch = dec.u64()?;
            let fp = dec.str()?;
            if graph_fp != addr.graph_fingerprint
                || epoch != addr.epoch
                || fp != addr.artifact_fingerprint
            {
                return Err(format!(
                    "address mismatch (stored epoch {epoch}, requested {})",
                    addr.epoch
                ));
            }
            let artifact = parse(&mut dec)?;
            dec.finish()?;
            Ok(artifact)
        });
        match parsed {
            Ok(artifact) => {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_read
                    .fetch_add(raw.len(), Ordering::Relaxed);
                Ok(Some(artifact))
            }
            Err(message) => {
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                Err(GrainError::store(format!("{path:?}: {message}")))
            }
        }
    }

    // ---- retention -------------------------------------------------------

    /// Removes every artifact persisted under `(graph_fingerprint, epoch)`
    /// — the retention path: when an epoch ages out, its files go with it
    /// so the store never re-serves superseded artifacts. Returns the
    /// number of files removed; I/O errors are swallowed (a leftover file
    /// still fails address validation on load).
    pub fn remove_epoch(&self, graph_fingerprint: u64, epoch: u64) -> usize {
        let prefix = format!("{graph_fingerprint:016x}-e{epoch}-");
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(&prefix)
                && name.ends_with(".grain")
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        removed
    }
}

/// The header every file starts with: magic, version, kind and the full
/// content address. The kind's dims follow it.
fn header(addr: &ContentAddress, kind: ArtifactKind) -> Enc {
    let mut enc = Enc::default();
    enc.bytes(&MAGIC);
    enc.u32(CODEC_VERSION);
    enc.u32(kind.tag());
    enc.u64(addr.graph_fingerprint);
    enc.u64(addr.epoch);
    enc.str(&addr.artifact_fingerprint);
    enc
}

/// Well-formed flat CSR: offsets monotone from 0 to `nnz`, every column
/// id inside the `n`-node universe. Runs before `from_parts` so a
/// checksum-valid but logically malformed file is a typed error, not a
/// panic.
fn validate_csr(
    offsets: &[usize],
    cols: &[u32],
    nnz: usize,
    n: usize,
    what: &str,
) -> DecResult<()> {
    if offsets.len() != n + 1 || offsets.first() != Some(&0) || offsets.last() != Some(&nnz) {
        return Err(format!("{what}: malformed offsets"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what}: offsets not monotone"));
    }
    if cols.iter().any(|&c| c as usize >= n) {
        return Err(format!("{what}: column id out of range"));
    }
    Ok(())
}

// ---- fingerprints --------------------------------------------------------

/// Content hash of a corpus at registration: adjacency CSR (structure +
/// weights) and the feature matrix, shape-prefixed so e.g. a transposed
/// feature matrix cannot alias. This is the root of a corpus's lineage
/// fingerprint; `mix_fingerprint` (crate-private) extends it per
/// applied delta.
pub fn fingerprint_corpus(graph: &Graph, features: &DenseMatrix) -> u64 {
    let mut h = Fnv64::new();
    let adj = graph.adjacency();
    h.write_u64(graph.num_nodes() as u64);
    h.write_u64(adj.nnz() as u64);
    for v in 0..graph.num_nodes() {
        let (cols, vals) = adj.row(v);
        h.write_u64(cols.len() as u64);
        for &c in cols {
            h.write_u32(c);
        }
        for &w in vals {
            h.write_f32(w);
        }
    }
    h.write_u64(features.rows() as u64);
    h.write_u64(features.cols() as u64);
    for &x in features.as_slice() {
        h.write_f32(x);
    }
    h.finish()
}

/// Advances a corpus lineage fingerprint by one applied delta: the new
/// fingerprint depends on the old one *and* the delta's content, so two
/// corpora at the same epoch with different histories never share
/// artifact files.
pub(crate) fn mix_fingerprint(old: u64, delta_hash: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(old);
    h.write_u64(delta_hash);
    h.finish()
}

/// `{pid}-{seq}`: unique across processes (the pid) and within this one
/// (a process-wide sequence number).
fn unique_id() -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{}-{seq}", std::process::id())
}

// ---- scratch dirs for tests/benches -------------------------------------

/// A uniquely named temp directory removed on drop — the `tempdir`-style
/// helper store tests and benches use so they never leak files into the
/// repo (shim policy: hand-rolled, no tempfile crate).
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `{temp_dir}/grain-{prefix}-{pid}-{seq}`; the process-wide
    /// sequence number plus the create-or-retry loop makes concurrent
    /// test threads collision-free.
    pub fn new(prefix: &str) -> Self {
        loop {
            let path = std::env::temp_dir().join(format!("grain-{prefix}-{}", unique_id()));
            match fs::create_dir(&path) {
                Ok(()) => return Self { path },
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("cannot create scratch dir {path:?}: {e}"),
            }
        }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::{generators, transition_matrix, TransitionKind};
    use grain_influence::ThetaRule;

    fn addr(epoch: u64) -> ContentAddress {
        ContentAddress {
            graph_fingerprint: 0xfeed,
            epoch,
            artifact_fingerprint: "rw:k=2|eps:00000000|theta:rel:3e800000|r:3dcccccd|topk:0"
                .to_string(),
        }
    }

    /// Rewrites a file's trailing checksum so only a deliberate poke trips.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = codec::checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    fn sample_rows() -> InfluenceRows {
        let g = generators::erdos_renyi_gnm(40, 100, 7);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        InfluenceRows::compute(&t, 2, 1e-4)
    }

    #[test]
    fn concurrent_commits_of_one_address_never_tear() {
        let scratch = ScratchDir::new("store-race");
        let stores = [
            ArtifactStore::open(scratch.path()).unwrap(),
            ArtifactStore::open(scratch.path()).unwrap(),
        ];
        let (n, d) = (2000, 16);
        let value = DenseMatrix::from_vec(n, d, (0..n * d).map(|i| i as f32 * 0.5).collect());
        let level = DenseMatrix::from_vec(n, d, (0..n * d).map(|i| (i % 97) as f32).collect());
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        std::thread::scope(|scope| {
            for store in &stores {
                for _ in 0..3 {
                    scope.spawn(|| {
                        for _ in 0..20 {
                            store.save_propagation(&addr(0), &value, &[&level]).unwrap();
                            let (back, ladder) = store
                                .load_propagation(&addr(0))
                                .expect("a whole file")
                                .expect("present");
                            assert_eq!(bits(&back), bits(&value));
                            assert_eq!(bits(&ladder[0]), bits(&level));
                        }
                    });
                }
            }
        });
        for store in &stores {
            let stats = store.stats();
            assert_eq!(
                (stats.corruptions, stats.save_failures),
                (0, 0),
                "{stats:?}"
            );
            assert_eq!((stats.saves, stats.loads), (60, 60));
        }
        let names: Vec<String> = fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "temp files left behind: {names:?}");
        assert!(names[0].ends_with(".prop.grain"), "{names:?}");
    }

    #[test]
    fn rows_round_trip_is_bit_identical() {
        let scratch = ScratchDir::new("store-rows");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let rows = sample_rows();
        let written = store.save_rows(&addr(0), &rows).unwrap();
        assert!(written > 0);
        let back = store.load_rows(&addr(0)).unwrap().expect("present");
        assert_eq!(back.offsets(), rows.offsets());
        assert_eq!(back.cols(), rows.cols());
        assert_eq!(
            back.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            rows.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.k(), rows.k());
        let stats = store.stats();
        assert_eq!((stats.saves, stats.loads, stats.corruptions), (1, 1, 0));
        assert_eq!(stats.bytes_written, written);
    }

    #[test]
    fn propagation_round_trip_preserves_ladder() {
        let scratch = ScratchDir::new("store-prop");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let value = DenseMatrix::from_vec(5, 3, (0..15).map(|i| i as f32 * 0.25).collect());
        let l0 = DenseMatrix::from_vec(5, 3, (0..15).map(|i| (i * 7 % 11) as f32).collect());
        let (back, ladder) = store
            .save_propagation(&addr(2), &value, &[&l0])
            .and_then(|_| store.load_propagation(&addr(2)))
            .unwrap()
            .expect("present");
        assert_eq!(back.as_slice(), value.as_slice());
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder[0].as_slice(), l0.as_slice());
    }

    #[test]
    fn index_round_trip_is_bit_identical() {
        let scratch = ScratchDir::new("store-index");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let idx = ActivationIndex::build(&sample_rows(), ThetaRule::RelativeToRowMax(0.25), 1);
        store.save_index(&addr(1), &idx).unwrap();
        let back = store.load_index(&addr(1)).unwrap().expect("present");
        assert_eq!(back.offsets(), idx.offsets());
        assert_eq!(back.items(), idx.items());
        assert_eq!(back.theta().to_bits(), idx.theta().to_bits());
        assert_eq!(back.k(), idx.k());
    }

    #[test]
    fn missing_file_is_a_miss_not_an_error() {
        let scratch = ScratchDir::new("store-miss");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        assert!(store.load_rows(&addr(0)).unwrap().is_none());
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn every_corruption_is_typed_not_a_panic() {
        let scratch = ScratchDir::new("store-corrupt");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let rows = sample_rows();
        store.save_rows(&addr(0), &rows).unwrap();
        let path = store.path_for(&addr(0), ArtifactKind::InfluenceRows);
        let pristine = fs::read(&path).unwrap();

        // Truncation.
        fs::write(&path, &pristine[..pristine.len() / 2]).unwrap();
        assert!(matches!(
            store.load_rows(&addr(0)),
            Err(GrainError::StoreCorrupt { .. })
        ));
        // Bad magic.
        let mut bad = pristine.clone();
        bad[0] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.load_rows(&addr(0)),
            Err(GrainError::StoreCorrupt { .. })
        ));
        // Flipped payload byte (checksum catches it).
        let mut bad = pristine.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.load_rows(&addr(0)),
            Err(GrainError::StoreCorrupt { .. })
        ));
        // Wrong codec version (re-checksummed so only the version trips).
        let mut bad = pristine.clone();
        bad[8] = 0xfe;
        reseal(&mut bad);
        fs::write(&path, &bad).unwrap();
        let err = store.load_rows(&addr(0)).unwrap_err();
        assert!(err.to_string().contains("codec version"), "{err}");
        // A node count of u64::MAX (re-checksummed): `n + 1` overflows.
        let mut bad = pristine.clone();
        let nodes_at = 8 + 4 + 4 + 8 + 8 + 4 + addr(0).artifact_fingerprint.len();
        assert_eq!(
            bad[nodes_at..nodes_at + 8],
            (rows.num_nodes() as u64).to_le_bytes()
        );
        bad[nodes_at..nodes_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bad);
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            store.load_rows(&addr(0)),
            Err(GrainError::StoreCorrupt { .. })
        ));
        assert_eq!(store.stats().corruptions, 5);

        // The pristine bytes still load: corruption state is per-file.
        fs::write(&path, &pristine).unwrap();
        assert!(store.load_rows(&addr(0)).unwrap().is_some());
    }

    /// The version-1 layout: this layout with a `u64` fingerprint length.
    fn downgrade_to_version_one(v2: &[u8]) -> Vec<u8> {
        let len_at = 8 + 4 + 4 + 8 + 8;
        let mut v1 = v2[..v2.len() - 8].to_vec();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        v1.splice(len_at + 4..len_at + 4, [0u8; 4]);
        v1.extend_from_slice(&[0; 8]);
        reseal(&mut v1);
        v1
    }

    #[test]
    fn version_one_files_cold_build_and_are_repersisted() {
        use crate::config::GrainConfig;
        use crate::service::{Budget, GrainService, SelectionRequest};
        let scratch = ScratchDir::new("store-v1");
        let g = generators::erdos_renyi_gnm(60, 180, 3);
        let x = DenseMatrix::from_vec(60, 4, (0..240).map(|i| (i % 7) as f32).collect());
        let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(5));
        let open = || {
            let service = GrainService::new()
                .with_artifact_store(scratch.path())
                .unwrap();
            service.register_graph("g", g.clone(), x.clone()).unwrap();
            service
        };
        let cold = open().select(&request).unwrap();
        let files: Vec<_> = fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 3);
        for path in &files {
            fs::write(path, downgrade_to_version_one(&fs::read(path).unwrap())).unwrap();
        }
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let addr = ContentAddress {
            graph_fingerprint: fingerprint_corpus(&g, &x),
            epoch: 0,
            artifact_fingerprint: GrainConfig::ball_d().artifact_fingerprint(),
        };
        let err = store.load_rows(&addr).unwrap_err();
        assert!(err.to_string().contains("codec version 1"), "{err}");

        let service = open();
        let rebuilt = service.select(&request).unwrap();
        assert!(rebuilt.artifact_builds.propagation_builds > 0);
        assert_eq!(rebuilt.outcome().selected, cold.outcome().selected);
        let stats = service.store_stats().unwrap();
        assert_eq!((stats.corruptions, stats.saves), (3, 3), "{stats:?}");
        assert!(store.load_rows(&addr).unwrap().is_some(), "re-persisted");
    }

    #[test]
    fn address_mismatch_is_rejected() {
        let scratch = ScratchDir::new("store-addr");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let rows = sample_rows();
        store.save_rows(&addr(0), &rows).unwrap();
        // Same file bytes renamed under a different epoch must not load.
        let from = store.path_for(&addr(0), ArtifactKind::InfluenceRows);
        let to = store.path_for(&addr(1), ArtifactKind::InfluenceRows);
        fs::copy(&from, &to).unwrap();
        let err = store.load_rows(&addr(1)).unwrap_err();
        assert!(err.to_string().contains("address mismatch"), "{err}");
    }

    #[test]
    fn remove_epoch_only_touches_that_epoch() {
        let scratch = ScratchDir::new("store-prune");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let rows = sample_rows();
        store.save_rows(&addr(0), &rows).unwrap();
        store.save_rows(&addr(1), &rows).unwrap();
        assert_eq!(store.remove_epoch(0xfeed, 0), 1);
        assert!(store.load_rows(&addr(0)).unwrap().is_none());
        assert!(store.load_rows(&addr(1)).unwrap().is_some());
        // Unknown epoch: nothing to do.
        assert_eq!(store.remove_epoch(0xfeed, 9), 0);
    }

    #[test]
    fn lineage_fingerprints_separate_histories() {
        let g1 = generators::erdos_renyi_gnm(20, 50, 1);
        let g2 = generators::erdos_renyi_gnm(20, 50, 2);
        let x = DenseMatrix::full(20, 3, 0.5);
        let f1 = fingerprint_corpus(&g1, &x);
        let f2 = fingerprint_corpus(&g2, &x);
        assert_ne!(f1, f2, "different graphs, different roots");
        let y = DenseMatrix::full(20, 3, 0.75);
        assert_ne!(f1, fingerprint_corpus(&g1, &y), "features are hashed too");
        assert_eq!(f1, fingerprint_corpus(&g1, &x), "deterministic");
        // Mixing is order- and content-sensitive.
        assert_ne!(mix_fingerprint(f1, 7), mix_fingerprint(f1, 8));
        assert_ne!(mix_fingerprint(f1, 7), mix_fingerprint(f2, 7));
        assert_ne!(
            mix_fingerprint(mix_fingerprint(f1, 7), 8),
            mix_fingerprint(mix_fingerprint(f1, 8), 7)
        );
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Fingerprints name store files and key their headers: changing a
        // value here orphans every persisted artifact, so it requires
        // bumping `CODEC_VERSION`.
        let g = Graph::from_weighted_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]);
        let x = DenseMatrix::from_vec(4, 2, vec![0.0, 1.0, -0.0, 0.5, 2.5, -1.0, 3.0, 0.25]);
        let root = fingerprint_corpus(&g, &x);
        assert_eq!(root, 0xde45_d02d_5573_b066);
        assert_eq!(
            mix_fingerprint(root, 0x6fc8_d4ca_d0b7_136c),
            0xaa19_86b2_7e3b_60da
        );
        let mut name = Fnv64::new();
        name.write(b"rw:k=2|eps:00000000");
        assert_eq!(name.finish(), 0x2fcb_dac7_f327_468a);
    }

    #[test]
    fn file_bytes_are_pinned() {
        // The bytes of each kind's file, hashed. A header of odd length
        // leaves every bulk slice straddling 8-byte words, the case a
        // streaming checksum must carry across pieces.
        let scratch = ScratchDir::new("store-pinned");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let at = ContentAddress {
            graph_fingerprint: 0x0123_4567_89ab_cdef,
            epoch: 5,
            artifact_fingerprint: "pinned-odd".to_string(),
        };
        let dense = |salt: usize| {
            DenseMatrix::from_vec(
                7,
                3,
                (0..21)
                    .map(|i| ((i * 13 + salt) % 17) as f32 * 0.125 - 1.0)
                    .collect(),
            )
        };
        let rows = sample_rows();
        let index = ActivationIndex::build(&rows, ThetaRule::RelativeToRowMax(0.25), 1);
        store
            .save_propagation(&at, &dense(0), &[&dense(1), &dense(2)])
            .unwrap();
        store.save_rows(&at, &rows).unwrap();
        store.save_index(&at, &index).unwrap();
        let hash = |kind| {
            let mut h = Fnv64::new();
            h.write(&fs::read(store.path_for(&at, kind)).unwrap());
            h.finish()
        };
        assert_eq!(hash(ArtifactKind::Propagation), 0xfa0e_9f6c_ffdc_d3f5);
        assert_eq!(hash(ArtifactKind::InfluenceRows), 0x8815_57d4_30d0_41bd);
        assert_eq!(hash(ArtifactKind::ActivationIndex), 0xfdc9_e1db_87e4_ccf8);
    }

    #[test]
    fn scratch_dir_cleans_up_on_drop() {
        let path;
        {
            let scratch = ScratchDir::new("cleanup");
            path = scratch.path().to_path_buf();
            fs::write(path.join("junk.grain"), b"junk").unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "scratch dir must vanish with its guard");
    }
}

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
//! # Codec
//!
//! A hand-rolled flat little-endian layout (shim policy: no serde
//! dependency growth) that mirrors the in-memory SoA structs, so encode
//! and decode are bulk `memcpy`s on little-endian targets:
//!
//! | section | contents |
//! |---|---|
//! | magic | `b"GRAINART"` (8 bytes) |
//! | codec version | `u32` |
//! | artifact kind | `u32` (1 = propagation, 2 = rows, 3 = index) |
//! | graph fingerprint | `u64` |
//! | epoch | `u64` |
//! | artifact fingerprint | length-prefixed UTF-8 |
//! | kind header + payload | dims as `u64`, then the flat arrays |
//! | checksum | `u64` FNV-1a over every preceding byte |
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

use crate::error::{GrainError, GrainResult};
use grain_graph::Graph;
use grain_influence::{ActivationIndex, InfluenceRows};
use grain_linalg::DenseMatrix;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// File magic: identifies a Grain artifact regardless of extension.
const MAGIC: [u8; 8] = *b"GRAINART";

/// Current byte-layout version. Bump on any layout change; older files
/// then read as [`GrainError::StoreCorrupt`] and cold builds re-persist.
pub const CODEC_VERSION: u32 = 1;

/// Which artifact a store file carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// `X^(k)` plus its power ladder ([`grain_prop::cache::PropagationCache`]).
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

/// An encoded artifact not yet written — encoding happens under the
/// engine lock (one memcpy out of the live artifact), the disk write
/// after it drops (see [`ArtifactStore::commit`]).
pub struct PendingArtifact {
    path: PathBuf,
    bytes: Vec<u8>,
}

impl PendingArtifact {
    /// Serialized size in bytes (header + payload + checksum).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Always false: an encoded artifact carries at least its header.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
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
        let fp_hash = hash_bytes(addr.artifact_fingerprint.as_bytes());
        self.dir.join(format!(
            "{:016x}-e{}-{:016x}.{}.grain",
            addr.graph_fingerprint,
            addr.epoch,
            fp_hash,
            kind.ext()
        ))
    }

    // ---- encode ----------------------------------------------------------

    /// Encodes `X^(k)` plus its power ladder for [`ArtifactStore::commit`].
    pub fn encode_propagation(
        &self,
        addr: &ContentAddress,
        value: &DenseMatrix,
        ladder: &[&DenseMatrix],
    ) -> PendingArtifact {
        let mut enc = self.header(addr, ArtifactKind::Propagation);
        enc.u64(value.rows() as u64);
        enc.u64(value.cols() as u64);
        enc.u64(ladder.len() as u64);
        enc.f32_slice(value.as_slice());
        for level in ladder {
            assert_eq!(
                (level.rows(), level.cols()),
                (value.rows(), value.cols()),
                "ladder levels share X^(k)'s shape"
            );
            enc.f32_slice(level.as_slice());
        }
        self.seal(addr, ArtifactKind::Propagation, enc)
    }

    /// Encodes influence rows for [`ArtifactStore::commit`].
    pub fn encode_rows(&self, addr: &ContentAddress, rows: &InfluenceRows) -> PendingArtifact {
        let mut enc = self.header(addr, ArtifactKind::InfluenceRows);
        enc.u64(rows.num_nodes() as u64);
        enc.u64(rows.nnz() as u64);
        enc.u64(rows.k() as u64);
        enc.usize_slice(rows.offsets());
        enc.u32_slice(rows.cols());
        enc.f32_slice(rows.vals());
        self.seal(addr, ArtifactKind::InfluenceRows, enc)
    }

    /// Encodes an activation index for [`ArtifactStore::commit`].
    pub fn encode_index(&self, addr: &ContentAddress, index: &ActivationIndex) -> PendingArtifact {
        let mut enc = self.header(addr, ArtifactKind::ActivationIndex);
        enc.u64(index.num_nodes() as u64);
        enc.u64(index.total_entries() as u64);
        enc.u64(index.k() as u64);
        enc.f32(index.theta());
        enc.usize_slice(index.offsets());
        enc.u32_slice(index.items());
        self.seal(addr, ArtifactKind::ActivationIndex, enc)
    }

    fn header(&self, addr: &ContentAddress, kind: ArtifactKind) -> Enc {
        let mut enc = Enc::default();
        enc.bytes(&MAGIC);
        enc.u32(CODEC_VERSION);
        enc.u32(kind.tag());
        enc.u64(addr.graph_fingerprint);
        enc.u64(addr.epoch);
        enc.str(&addr.artifact_fingerprint);
        enc
    }

    fn seal(&self, addr: &ContentAddress, kind: ArtifactKind, mut enc: Enc) -> PendingArtifact {
        let sum = checksum64(&enc.buf);
        enc.u64(sum);
        PendingArtifact {
            path: self.path_for(addr, kind),
            bytes: enc.buf,
        }
    }

    /// Writes an encoded artifact via temp file + atomic rename and
    /// returns the bytes committed. Racing commits of the same address
    /// are safe: content addressing + bit-identical builds mean both
    /// writers carry the same bytes.
    pub fn commit(&self, pending: PendingArtifact) -> GrainResult<usize> {
        let tmp = pending.path.with_extension("tmp");
        fs::write(&tmp, &pending.bytes)
            .and_then(|()| fs::rename(&tmp, &pending.path))
            .map_err(|e| GrainError::store(format!("cannot write {:?}: {e}", pending.path)))?;
        self.counters.saves.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(pending.bytes.len(), Ordering::Relaxed);
        Ok(pending.bytes.len())
    }

    /// Encode + commit in one step (the streaming re-persist path).
    pub fn save_propagation(
        &self,
        addr: &ContentAddress,
        value: &DenseMatrix,
        ladder: &[&DenseMatrix],
    ) -> GrainResult<usize> {
        self.commit(self.encode_propagation(addr, value, ladder))
    }

    /// Encode + commit in one step (the streaming re-persist path).
    pub fn save_rows(&self, addr: &ContentAddress, rows: &InfluenceRows) -> GrainResult<usize> {
        self.commit(self.encode_rows(addr, rows))
    }

    /// Encode + commit in one step (the streaming re-persist path).
    pub fn save_index(&self, addr: &ContentAddress, index: &ActivationIndex) -> GrainResult<usize> {
        self.commit(self.encode_index(addr, index))
    }

    // ---- load ------------------------------------------------------------

    /// Loads and validates `X^(k)` + ladder. `Ok(None)` = no file (normal
    /// miss); `Err(StoreCorrupt)` = a file that failed validation (the
    /// caller cold-builds either way).
    pub fn load_propagation(
        &self,
        addr: &ContentAddress,
    ) -> GrainResult<Option<(DenseMatrix, Vec<DenseMatrix>)>> {
        let kind = ArtifactKind::Propagation;
        let Some((raw, body)) = self.read_validated(addr, kind)? else {
            return Ok(None);
        };
        let parsed = (|| -> GrainResult<(DenseMatrix, Vec<DenseMatrix>)> {
            let mut dec = Dec::new((&raw, body));
            let rows = dec.dim("rows")?;
            let cols = dec.dim("cols")?;
            let levels = dec.dim("ladder levels")?;
            let cells = rows
                .checked_mul(cols)
                .ok_or_else(|| GrainError::store("propagation dims overflow".to_string()))?;
            let value = DenseMatrix::from_vec(rows, cols, dec.f32_vec(cells)?);
            let ladder = (0..levels)
                .map(|_| Ok(DenseMatrix::from_vec(rows, cols, dec.f32_vec(cells)?)))
                .collect::<GrainResult<Vec<_>>>()?;
            dec.finish()?;
            Ok((value, ladder))
        })();
        self.account_load(&raw, kind, parsed)
    }

    /// Loads and validates influence rows (see
    /// [`ArtifactStore::load_propagation`] for the `None`/`Err` contract).
    pub fn load_rows(&self, addr: &ContentAddress) -> GrainResult<Option<InfluenceRows>> {
        let kind = ArtifactKind::InfluenceRows;
        let Some((raw, body)) = self.read_validated(addr, kind)? else {
            return Ok(None);
        };
        let parsed = (|| -> GrainResult<InfluenceRows> {
            let mut dec = Dec::new((&raw, body));
            let n = dec.dim("nodes")?;
            let nnz = dec.dim("nnz")?;
            let k = dec.dim("k")?;
            let offsets = dec.usize_vec(n + 1)?;
            let cols = dec.u32_vec(nnz)?;
            let vals = dec.f32_vec(nnz)?;
            dec.finish()?;
            validate_csr(&offsets, &cols, nnz, n, "influence rows")?;
            Ok(InfluenceRows::from_parts(offsets, cols, vals, k))
        })();
        self.account_load(&raw, kind, parsed)
    }

    /// Loads and validates an activation index (see
    /// [`ArtifactStore::load_propagation`] for the `None`/`Err` contract).
    pub fn load_index(&self, addr: &ContentAddress) -> GrainResult<Option<ActivationIndex>> {
        let kind = ArtifactKind::ActivationIndex;
        let Some((raw, body)) = self.read_validated(addr, kind)? else {
            return Ok(None);
        };
        let parsed = (|| -> GrainResult<ActivationIndex> {
            let mut dec = Dec::new((&raw, body));
            let n = dec.dim("nodes")?;
            let entries = dec.dim("entries")?;
            let k = dec.dim("k")?;
            let theta = dec.f32()?;
            let offsets = dec.usize_vec(n + 1)?;
            let items = dec.u32_vec(entries)?;
            dec.finish()?;
            validate_csr(&offsets, &items, entries, n, "activation index")?;
            Ok(ActivationIndex::from_parts(offsets, items, theta, k))
        })();
        self.account_load(&raw, kind, parsed)
    }

    /// Reads a file and validates everything address-level: magic,
    /// version, kind, checksum, and the full content address. Returns the
    /// raw file plus the body span `(start, end)` the kind-specific
    /// decoder owns.
    #[allow(clippy::type_complexity)]
    fn read_validated(
        &self,
        addr: &ContentAddress,
        kind: ArtifactKind,
    ) -> GrainResult<Option<(Vec<u8>, (usize, usize))>> {
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
        let validated = (|| -> GrainResult<(usize, usize)> {
            if raw.len() < MAGIC.len() + 8 {
                return Err(GrainError::store(format!("{path:?} is truncated")));
            }
            let (data, sum_bytes) = raw.split_at(raw.len() - 8);
            let mut dec = Dec::new((data, (0, data.len())));
            if dec.take(MAGIC.len())? != MAGIC {
                return Err(GrainError::store(format!("{path:?} has bad magic")));
            }
            let version = dec.u32()?;
            if version != CODEC_VERSION {
                return Err(GrainError::store(format!(
                    "{path:?} has codec version {version}, expected {CODEC_VERSION}"
                )));
            }
            let tag = dec.u32()?;
            if tag != kind.tag() {
                return Err(GrainError::store(format!(
                    "{path:?} carries artifact tag {tag}, expected {}",
                    kind.tag()
                )));
            }
            let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte split"));
            if checksum64(data) != stored {
                return Err(GrainError::store(format!("{path:?} checksum mismatch")));
            }
            let graph_fp = dec.u64()?;
            let epoch = dec.u64()?;
            let fp = dec.str()?;
            if graph_fp != addr.graph_fingerprint
                || epoch != addr.epoch
                || fp != addr.artifact_fingerprint
            {
                return Err(GrainError::store(format!(
                    "{path:?} address mismatch (stored epoch {epoch}, requested {})",
                    addr.epoch
                )));
            }
            Ok((dec.pos(), data.len()))
        })();
        match validated {
            Ok(span) => Ok(Some((raw, span))),
            Err(e) => {
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn account_load<T>(
        &self,
        raw: &[u8],
        kind: ArtifactKind,
        parsed: GrainResult<T>,
    ) -> GrainResult<Option<T>> {
        match parsed {
            Ok(artifact) => {
                self.counters.loads.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_read
                    .fetch_add(raw.len(), Ordering::Relaxed);
                Ok(Some(artifact))
            }
            Err(e) => {
                self.counters.corruptions.fetch_add(1, Ordering::Relaxed);
                Err(match e {
                    GrainError::StoreCorrupt { message } => {
                        GrainError::store(format!("{} artifact: {message}", kind.ext()))
                    }
                    other => other,
                })
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
) -> GrainResult<()> {
    if offsets.len() != n + 1 || offsets.first() != Some(&0) || offsets.last() != Some(&nnz) {
        return Err(GrainError::store(format!("{what}: malformed offsets")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GrainError::store(format!("{what}: offsets not monotone")));
    }
    if cols.iter().any(|&c| c as usize >= n) {
        return Err(GrainError::store(format!("{what}: column id out of range")));
    }
    Ok(())
}

// ---- fingerprints --------------------------------------------------------

/// 64-bit FNV-1a over a byte string.
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental 64-bit FNV-1a hasher (word-at-a-time over bulk slices).
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.0 ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        for &b in chunks.remainder() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        // Final avalanche so short inputs still spread across all bits.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51afd7ed558ccd);
        h ^= h >> 33;
        h
    }
}

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

/// Whole-file checksum: FNV-1a over u64 words with the length folded in,
/// so truncation to a word boundary still changes the sum.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

// ---- flat little-endian codec -------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Bulk `&[f32]` append: one memcpy on little-endian targets,
    /// element-wise `to_le_bytes` elsewhere (same bytes either way).
    fn f32_slice(&mut self, v: &[f32]) {
        #[cfg(target_endian = "little")]
        {
            // Safety: f32 has no padding and any alignment satisfies u8.
            let bytes = unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4) };
            self.buf.extend_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Bulk `&[u32]` append (see [`Enc::f32_slice`]).
    fn u32_slice(&mut self, v: &[u32]) {
        #[cfg(target_endian = "little")]
        {
            // Safety: u32 has no padding and any alignment satisfies u8.
            let bytes = unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 4) };
            self.buf.extend_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// `&[usize]` serialized as u64 LE — on-disk offsets are 64-bit
    /// regardless of the host word size.
    fn usize_slice(&mut self, v: &[usize]) {
        #[cfg(all(target_endian = "little", target_pointer_width = "64"))]
        {
            // Safety: usize == u64 here, no padding, u8 alignment.
            let bytes = unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), v.len() * 8) };
            self.buf.extend_from_slice(bytes);
        }
        #[cfg(not(all(target_endian = "little", target_pointer_width = "64")))]
        for &x in v {
            self.buf.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }
}

/// Bounds-checked reader over a file's body span. Every overrun is a
/// typed [`GrainError::StoreCorrupt`] (truncation detection), and
/// [`Dec::finish`] rejects trailing garbage (exact-length contract).
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Dec<'a> {
    fn new((buf, (start, end)): (&'a [u8], (usize, usize))) -> Self {
        Dec {
            buf,
            pos: start,
            end,
        }
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> GrainResult<&'a [u8]> {
        if n > self.end - self.pos {
            return Err(GrainError::store(format!(
                "truncated: needed {n} bytes, {} left",
                self.end - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> GrainResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> GrainResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> GrainResult<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A u64 dimension that must fit the host `usize`.
    fn dim(&mut self, what: &str) -> GrainResult<usize> {
        usize::try_from(self.u64()?)
            .map_err(|_| GrainError::store(format!("{what} dimension exceeds host usize")))
    }

    fn str(&mut self) -> GrainResult<String> {
        let len = self.dim("string length")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| GrainError::store("non-UTF-8 fingerprint string".to_string()))
    }

    fn finish(&mut self) -> GrainResult<()> {
        if self.pos != self.end {
            return Err(GrainError::store(format!(
                "{} trailing bytes after payload",
                self.end - self.pos
            )));
        }
        Ok(())
    }

    /// Bulk `Vec<f32>` read: one memcpy on little-endian targets.
    fn f32_vec(&mut self, n: usize) -> GrainResult<Vec<f32>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(too_large)?)?;
        #[cfg(target_endian = "little")]
        {
            let mut out = Vec::<f32>::with_capacity(n);
            // Safety: source has exactly n*4 bytes; dest capacity is n
            // f32s; byte copy then set_len — alignment of the Vec's own
            // allocation is correct for f32.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 4);
                out.set_len(n);
            }
            Ok(out)
        }
        #[cfg(not(target_endian = "little"))]
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Bulk `Vec<u32>` read (see [`Dec::f32_vec`]).
    fn u32_vec(&mut self, n: usize) -> GrainResult<Vec<u32>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(too_large)?)?;
        #[cfg(target_endian = "little")]
        {
            let mut out = Vec::<u32>::with_capacity(n);
            // Safety: see `f32_vec`.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), n * 4);
                out.set_len(n);
            }
            Ok(out)
        }
        #[cfg(not(target_endian = "little"))]
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// On-disk u64 offsets back into host `usize`, overflow-checked.
    fn usize_vec(&mut self, n: usize) -> GrainResult<Vec<usize>> {
        let bytes = self.take(n.checked_mul(8).ok_or_else(too_large)?)?;
        bytes
            .chunks_exact(8)
            .map(|c| {
                usize::try_from(u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .map_err(|_| GrainError::store("offset exceeds host usize".to_string()))
            })
            .collect()
    }
}

fn too_large() -> GrainError {
    GrainError::store("payload length overflows".to_string())
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
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let pid = std::process::id();
        loop {
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("grain-{prefix}-{pid}-{n}"));
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

    fn sample_rows() -> InfluenceRows {
        let g = generators::erdos_renyi_gnm(40, 100, 7);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        InfluenceRows::compute(&t, 2, 1e-4)
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
        let sum = checksum64(&bad[..bad.len() - 8]).to_le_bytes();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&sum);
        fs::write(&path, &bad).unwrap();
        let err = store.load_rows(&addr(0)).unwrap_err();
        assert!(err.to_string().contains("codec version"), "{err}");
        assert_eq!(store.stats().corruptions, 4);

        // The pristine bytes still load: corruption state is per-file.
        fs::write(&path, &pristine).unwrap();
        assert!(store.load_rows(&addr(0)).unwrap().is_some());
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

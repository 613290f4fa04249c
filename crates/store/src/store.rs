//! The per-node content repository.
//!
//! A [`ContentStore`] holds one node's object bodies plus a manifest of
//! [`ObjectMeta`] records, with quota accounting and an atomic
//! **stage → commit → gc** ingest lifecycle:
//!
//! - [`ContentStore::begin`] opens (or resumes) a staged transfer and
//!   reports which chunks are already present, so an interrupted ship
//!   restarts where it left off instead of from byte zero;
//! - [`ContentStore::stage_chunk`] verifies each chunk's checksum before
//!   accepting it — a poisoned chunk is rejected, counted, and must be
//!   re-sent;
//! - [`ContentStore::commit`] assembles the chunks, verifies the
//!   whole-object checksum, and only then makes the object visible in the
//!   manifest (and durable, for disk-backed stores). Until commit, the
//!   object does not exist: readers never observe a partial body.
//! - [`ContentStore::gc`] sweeps staged transfers that made no progress
//!   since the previous sweep (abandoned mid-flight ships).
//!
//! Two media: `in_memory` (tests, in-process clusters) and `open` (a real
//! directory: object files plus a `manifest.json` rewritten atomically
//! via tmp-file + rename).

use crate::object::{fnv64, ObjectMeta, DEFAULT_CHUNK_SIZE};
use cpms_model::{ContentId, NodeId, UrlPath};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Errors from store and shipping operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StoreError {
    /// No committed object at the path.
    NotFound {
        /// The missing path.
        path: UrlPath,
    },
    /// Committing/staging would exceed the node's quota.
    DiskFull {
        /// The path being stored.
        path: UrlPath,
        /// Bytes that would be needed.
        needed: u64,
        /// Bytes actually free.
        free: u64,
    },
    /// An object already exists at the path (`overwrite = false`) with
    /// different content.
    AlreadyExists {
        /// The conflicting path.
        path: UrlPath,
    },
    /// A whole-object checksum did not match its manifest/announcement.
    ChecksumMismatch {
        /// The object's path.
        path: UrlPath,
        /// The checksum that was promised.
        expected: u64,
        /// The checksum actually computed over the bytes.
        got: u64,
    },
    /// A shipped chunk failed its per-chunk checksum and was rejected.
    ChunkRejected {
        /// The object's path.
        path: UrlPath,
        /// Which chunk.
        index: u32,
        /// The checksum the sender announced.
        expected: u64,
        /// The checksum of the bytes that arrived.
        got: u64,
    },
    /// A chunk was malformed (bad index, wrong length, undecodable hex).
    BadChunk {
        /// The object's path.
        path: UrlPath,
        /// Which chunk.
        index: u32,
        /// What was wrong.
        detail: String,
    },
    /// Commit was attempted before every chunk arrived.
    Incomplete {
        /// The object's path.
        path: UrlPath,
        /// Chunks still missing.
        missing: u64,
    },
    /// No staged transfer with that id (expired, swept, or never begun).
    NoSuchTransfer {
        /// The unknown transfer id.
        transfer: u64,
    },
    /// A filesystem failure on a disk-backed store.
    Io {
        /// The OS error, rendered.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound { path } => write!(f, "no object at {path}"),
            StoreError::DiskFull { path, needed, free } => {
                write!(
                    f,
                    "quota exceeded staging {path}: need {needed}B, {free}B free"
                )
            }
            StoreError::AlreadyExists { path } => write!(f, "object already exists at {path}"),
            StoreError::ChecksumMismatch {
                path,
                expected,
                got,
            } => write!(
                f,
                "checksum mismatch on {path}: expected {expected:#018x}, got {got:#018x}"
            ),
            StoreError::ChunkRejected {
                path,
                index,
                expected,
                got,
            } => write!(
                f,
                "chunk {index} of {path} rejected: expected {expected:#018x}, got {got:#018x}"
            ),
            StoreError::BadChunk {
                path,
                index,
                detail,
            } => write!(f, "bad chunk {index} of {path}: {detail}"),
            StoreError::Incomplete { path, missing } => {
                write!(f, "commit of {path} with {missing} chunk(s) missing")
            }
            StoreError::NoSuchTransfer { transfer } => {
                write!(f, "no staged transfer {transfer}")
            }
            StoreError::Io { detail } => write!(f, "store I/O failed: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn io(e: &std::io::Error) -> Self {
        StoreError::Io {
            detail: e.to_string(),
        }
    }
}

/// Point-in-time store accounting (the console `store` command's row).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// The node this store belongs to.
    pub node: NodeId,
    /// Committed objects.
    pub objects: u64,
    /// Total chunks across committed objects.
    pub chunks: u64,
    /// Bytes committed.
    pub committed_bytes: u64,
    /// Quota in bytes.
    pub capacity_bytes: u64,
    /// In-flight staged transfers.
    pub staged_transfers: u64,
    /// Bytes reserved by staged transfers.
    pub staged_bytes: u64,
    /// Lifetime committed objects (including overwritten ones).
    pub committed_total: u64,
    /// Transfers that resumed from partially staged state.
    pub resumed_transfers: u64,
    /// Chunks rejected for checksum mismatch.
    pub rejected_chunks: u64,
    /// Whole-object verification failures (commit or audit).
    pub verify_failures: u64,
    /// Staged transfers swept by gc.
    pub gc_transfers: u64,
    /// Bytes released by gc.
    pub gc_bytes: u64,
    /// Whether the store is disk-backed (survives restart).
    pub durable: bool,
}

impl StoreStats {
    /// Bytes free under the quota (committed + staged reservations).
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes
            .saturating_sub(self.committed_bytes + self.staged_bytes)
    }
}

/// Where object bodies live.
#[derive(Debug)]
enum Medium {
    Memory(HashMap<UrlPath, Vec<u8>>),
    Disk { root: PathBuf },
}

impl Medium {
    fn object_file(root: &Path, path: &UrlPath) -> PathBuf {
        // Hex of the URL path: collision-free, filesystem-safe, reversible.
        root.join("objects")
            .join(crate::object::hex_encode(path.as_str().as_bytes()))
    }

    fn read(&self, path: &UrlPath) -> Result<Vec<u8>, StoreError> {
        match self {
            Medium::Memory(map) => map
                .get(path)
                .cloned()
                .ok_or_else(|| StoreError::NotFound { path: path.clone() }),
            Medium::Disk { root } => {
                std::fs::read(Self::object_file(root, path)).map_err(|e| match e.kind() {
                    std::io::ErrorKind::NotFound => StoreError::NotFound { path: path.clone() },
                    _ => StoreError::io(&e),
                })
            }
        }
    }

    fn write(&mut self, path: &UrlPath, body: &[u8]) -> Result<(), StoreError> {
        match self {
            Medium::Memory(map) => {
                map.insert(path.clone(), body.to_vec());
                Ok(())
            }
            Medium::Disk { root } => {
                let file = Self::object_file(root, path);
                let tmp = file.with_extension("tmp");
                std::fs::write(&tmp, body).map_err(|e| StoreError::io(&e))?;
                std::fs::rename(&tmp, &file).map_err(|e| StoreError::io(&e))
            }
        }
    }

    fn remove(&mut self, path: &UrlPath) -> Result<(), StoreError> {
        match self {
            Medium::Memory(map) => {
                map.remove(path);
                Ok(())
            }
            Medium::Disk { root } => match std::fs::remove_file(Self::object_file(root, path)) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(StoreError::io(&e)),
            },
        }
    }

    fn rename(&mut self, from: &UrlPath, to: &UrlPath) -> Result<(), StoreError> {
        match self {
            Medium::Memory(map) => {
                if let Some(body) = map.remove(from) {
                    map.insert(to.clone(), body);
                }
                Ok(())
            }
            Medium::Disk { root } => {
                match std::fs::rename(Self::object_file(root, from), Self::object_file(root, to)) {
                    Ok(()) => Ok(()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                    Err(e) => Err(StoreError::io(&e)),
                }
            }
        }
    }

    fn durable(&self) -> bool {
        matches!(self, Medium::Disk { .. })
    }
}

/// One in-flight staged transfer.
#[derive(Debug)]
struct Staged {
    path: UrlPath,
    meta: ObjectMeta,
    chunks: Vec<Option<Vec<u8>>>,
    /// Bytes reserved against the quota (the full object size, reserved
    /// at `begin` so concurrent ships cannot jointly overshoot).
    reserved: u64,
    overwrite: bool,
    /// Progress flag for the two-phase gc: cleared by each sweep, set by
    /// any chunk/commit activity. A transfer idle across two sweeps is
    /// abandoned.
    touched: bool,
}

impl Staged {
    fn received(&self) -> u64 {
        self.chunks.iter().flatten().map(|c| c.len() as u64).sum()
    }

    fn missing(&self) -> u64 {
        self.chunks.iter().filter(|c| c.is_none()).count() as u64
    }
}

#[derive(Debug)]
struct Inner {
    medium: Medium,
    manifest: BTreeMap<UrlPath, ObjectMeta>,
    staged: HashMap<u64, Staged>,
    next_transfer: u64,
    capacity: u64,
    committed_bytes: u64,
    staged_bytes: u64,
    committed_total: u64,
    resumed_transfers: u64,
    rejected_chunks: u64,
    verify_failures: u64,
    gc_transfers: u64,
    gc_bytes: u64,
}

impl Inner {
    fn free(&self) -> u64 {
        self.capacity
            .saturating_sub(self.committed_bytes + self.staged_bytes)
    }

    fn persist_manifest(&self) -> Result<(), StoreError> {
        let Medium::Disk { root } = &self.medium else {
            return Ok(());
        };
        let records: Vec<(UrlPath, ObjectMeta)> =
            self.manifest.iter().map(|(p, m)| (p.clone(), *m)).collect();
        let json = serde_json::to_string(&records).expect("manifest always serializes");
        let file = root.join("manifest.json");
        let tmp = root.join("manifest.json.tmp");
        std::fs::write(&tmp, json).map_err(|e| StoreError::io(&e))?;
        std::fs::rename(&tmp, &file).map_err(|e| StoreError::io(&e))
    }

    /// Installs a fully verified body as the committed object at `path`.
    /// The single place committed state changes on ingest: callers have
    /// already verified the checksum.
    fn install(&mut self, path: &UrlPath, meta: ObjectMeta, body: &[u8]) -> Result<(), StoreError> {
        let replaced = self.manifest.get(path).map(|m| m.size).unwrap_or(0);
        self.medium.write(path, body)?;
        self.manifest.insert(path.clone(), meta);
        self.committed_bytes = self.committed_bytes - replaced + meta.size;
        self.committed_total += 1;
        self.persist_manifest()
    }
}

/// One node's content repository. Interior-locked: shared freely between
/// a broker service thread and an origin server.
#[derive(Debug)]
pub struct ContentStore {
    node: NodeId,
    inner: Mutex<Inner>,
}

impl ContentStore {
    /// An in-memory store for `node` with a byte quota.
    #[must_use]
    pub fn in_memory(node: NodeId, capacity: u64) -> Self {
        ContentStore {
            node,
            inner: Mutex::new(Inner {
                medium: Medium::Memory(HashMap::new()),
                manifest: BTreeMap::new(),
                staged: HashMap::new(),
                next_transfer: 1,
                capacity,
                committed_bytes: 0,
                staged_bytes: 0,
                committed_total: 0,
                resumed_transfers: 0,
                rejected_chunks: 0,
                verify_failures: 0,
                gc_transfers: 0,
                gc_bytes: 0,
            }),
        }
    }

    /// Opens (or creates) a disk-backed store rooted at `root`. Reloads
    /// the manifest if present; manifest records whose object file is
    /// missing or truncated are dropped (crash between body write and
    /// manifest rewrite loses at most the manifest record, never serves
    /// a partial body).
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the layout or reading the manifest.
    pub fn open(node: NodeId, root: impl Into<PathBuf>, capacity: u64) -> Result<Self, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(root.join("objects")).map_err(|e| StoreError::io(&e))?;
        let mut manifest = BTreeMap::new();
        let mut committed_bytes = 0_u64;
        let manifest_file = root.join("manifest.json");
        if manifest_file.exists() {
            let json = std::fs::read_to_string(&manifest_file).map_err(|e| StoreError::io(&e))?;
            let records: Vec<(UrlPath, ObjectMeta)> =
                serde_json::from_str(&json).map_err(|e| StoreError::Io {
                    detail: format!("corrupt manifest: {e}"),
                })?;
            for (path, meta) in records {
                let ok = std::fs::metadata(Medium::object_file(&root, &path))
                    .map(|m| m.len() == meta.size)
                    .unwrap_or(false);
                if ok {
                    committed_bytes += meta.size;
                    manifest.insert(path, meta);
                }
            }
        }
        let store = ContentStore {
            node,
            inner: Mutex::new(Inner {
                medium: Medium::Disk { root },
                manifest,
                staged: HashMap::new(),
                next_transfer: 1,
                capacity,
                committed_bytes,
                staged_bytes: 0,
                committed_total: 0,
                resumed_transfers: 0,
                rejected_chunks: 0,
                verify_failures: 0,
                gc_transfers: 0,
                gc_bytes: 0,
            }),
        };
        store.lock().persist_manifest()?;
        Ok(store)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("content store lock never poisoned")
    }

    /// The node this store belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Opens a staged transfer for `path` described by `meta`, returning
    /// `(transfer_id, have)` where `have` lists chunk indices already
    /// staged. Three idempotent cases:
    ///
    /// - the identical object is already **committed** → transfer id `0`
    ///   (the committed sentinel) with every chunk reported present, so a
    ///   re-ship after a lost commit-ack sends nothing;
    /// - a staged transfer for the same path and checksum exists →
    ///   **resume**: the same transfer id and its progress are returned;
    /// - a staged transfer for the same path but different content exists
    ///   → it is aborted and a fresh transfer opened.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] for a different committed object
    /// without `overwrite`; [`StoreError::DiskFull`] if the reservation
    /// does not fit.
    pub fn begin(
        &self,
        path: &UrlPath,
        meta: ObjectMeta,
        overwrite: bool,
    ) -> Result<(u64, Vec<u32>), StoreError> {
        let mut inner = self.lock();
        if let Some(existing) = inner.manifest.get(path) {
            if existing.checksum == meta.checksum && existing.size == meta.size {
                return Ok((0, (0..meta.chunk_count()).collect()));
            }
            if !overwrite {
                return Err(StoreError::AlreadyExists { path: path.clone() });
            }
        }
        if let Some((&id, staged)) = inner.staged.iter().find(|(_, s)| &s.path == path) {
            if staged.meta.checksum == meta.checksum && staged.meta.size == meta.size {
                let have: Vec<u32> = staged
                    .chunks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| c.as_ref().map(|_| i as u32))
                    .collect();
                let resumed = !have.is_empty();
                let staged = inner.staged.get_mut(&id).expect("just found");
                staged.touched = true;
                staged.overwrite = overwrite;
                if resumed {
                    inner.resumed_transfers += 1;
                }
                return Ok((id, have));
            }
            let stale = inner.staged.remove(&id).expect("just found");
            inner.staged_bytes -= stale.reserved;
        }
        let replaced = if overwrite {
            inner.manifest.get(path).map(|m| m.size).unwrap_or(0)
        } else {
            0
        };
        let free = inner.free() + replaced;
        if meta.size > free {
            return Err(StoreError::DiskFull {
                path: path.clone(),
                needed: meta.size,
                free,
            });
        }
        let id = inner.next_transfer;
        inner.next_transfer += 1;
        inner.staged_bytes += meta.size;
        inner.staged.insert(
            id,
            Staged {
                path: path.clone(),
                meta,
                chunks: vec![None; meta.chunk_count() as usize],
                reserved: meta.size,
                overwrite,
                touched: true,
            },
        );
        Ok((id, Vec::new()))
    }

    /// Stages one chunk of an open transfer after verifying its checksum
    /// and length. Idempotent for re-sent chunks that match what is
    /// already staged.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChunkRejected`] on checksum mismatch (the chunk is
    /// discarded and counted — the sender must re-send);
    /// [`StoreError::BadChunk`] on bad index/length;
    /// [`StoreError::NoSuchTransfer`] if the transfer is gone (the sender
    /// should re-`begin` and resume).
    pub fn stage_chunk(
        &self,
        transfer: u64,
        index: u32,
        data: &[u8],
        checksum: u64,
    ) -> Result<(), StoreError> {
        let mut inner = self.lock();
        let staged = inner
            .staged
            .get_mut(&transfer)
            .ok_or(StoreError::NoSuchTransfer { transfer })?;
        staged.touched = true;
        let path = staged.path.clone();
        let Some(expected_len) = staged.meta.chunk_len(index) else {
            return Err(StoreError::BadChunk {
                path,
                index,
                detail: format!(
                    "index out of range (object has {})",
                    staged.meta.chunk_count()
                ),
            });
        };
        if data.len() != expected_len as usize {
            return Err(StoreError::BadChunk {
                path,
                index,
                detail: format!("length {} != expected {expected_len}", data.len()),
            });
        }
        let got = fnv64(data);
        if got != checksum {
            inner.rejected_chunks += 1;
            return Err(StoreError::ChunkRejected {
                path,
                index,
                expected: checksum,
                got,
            });
        }
        let staged = inner.staged.get_mut(&transfer).expect("still held");
        staged.chunks[index as usize] = Some(data.to_vec());
        Ok(())
    }

    /// Commits a staged transfer: assembles the chunks, verifies the
    /// whole-object checksum against both the staged meta and the
    /// caller-announced `checksum`, and atomically installs the object.
    /// Idempotent: committing a transfer that already committed (id `0`
    /// sentinel or a re-sent commit after a lost ack) succeeds if the
    /// committed object matches `checksum`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Incomplete`] with the missing-chunk count,
    /// [`StoreError::ChecksumMismatch`] (the staged transfer is kept so
    /// poisoned chunks can be re-sent — every staged chunk passed its own
    /// check, so this means the announcement itself was wrong),
    /// [`StoreError::NoSuchTransfer`] for an unknown id with no matching
    /// committed object.
    pub fn commit(
        &self,
        transfer: u64,
        path: &UrlPath,
        checksum: u64,
    ) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        let already = inner.manifest.get(path).copied();
        let Some(staged) = inner.staged.get_mut(&transfer) else {
            // Lost-ack replay or committed-sentinel commit.
            return match already {
                Some(meta) if meta.checksum == checksum => Ok(meta),
                _ => Err(StoreError::NoSuchTransfer { transfer }),
            };
        };
        if &staged.path != path {
            return Err(StoreError::BadChunk {
                path: path.clone(),
                index: 0,
                detail: format!("transfer {transfer} stages {}, not {path}", staged.path),
            });
        }
        staged.touched = true;
        let missing = staged.missing();
        if missing > 0 {
            return Err(StoreError::Incomplete {
                path: path.clone(),
                missing,
            });
        }
        if let Some(existing) = already {
            if !staged.overwrite {
                // The object appeared (e.g. a concurrent ship won) after
                // this transfer began; identical content is fine.
                if existing.checksum == staged.meta.checksum {
                    let reserved = staged.reserved;
                    inner.staged.remove(&transfer);
                    inner.staged_bytes -= reserved;
                    return Ok(existing);
                }
                return Err(StoreError::AlreadyExists { path: path.clone() });
            }
        }
        let body: Vec<u8> = staged
            .chunks
            .iter()
            .flatten()
            .flat_map(|c| c.iter().copied())
            .collect();
        let got = fnv64(&body);
        if got != checksum || got != staged.meta.checksum {
            inner.verify_failures += 1;
            return Err(StoreError::ChecksumMismatch {
                path: path.clone(),
                expected: checksum,
                got,
            });
        }
        let staged = inner.staged.remove(&transfer).expect("still held");
        inner.staged_bytes -= staged.reserved;
        inner.install(path, staged.meta, &body)?;
        Ok(staged.meta)
    }

    /// Drops a staged transfer, releasing its reservation. Returns whether
    /// anything was aborted.
    pub fn abort(&self, transfer: u64) -> bool {
        let mut inner = self.lock();
        match inner.staged.remove(&transfer) {
            Some(s) => {
                inner.staged_bytes -= s.reserved;
                true
            }
            None => false,
        }
    }

    /// Stores a whole body locally in one step (the local fast path:
    /// publish on the same process, seeding tests). Same quota and
    /// overwrite rules as the staged path.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] / [`StoreError::DiskFull`] / I/O.
    pub fn put(
        &self,
        path: &UrlPath,
        content: ContentId,
        version: u64,
        body: &[u8],
        overwrite: bool,
    ) -> Result<ObjectMeta, StoreError> {
        let meta = ObjectMeta::for_body(content, body, DEFAULT_CHUNK_SIZE, version);
        let mut inner = self.lock();
        let replaced = match inner.manifest.get(path) {
            Some(m) if !overwrite => {
                if m.checksum == meta.checksum && m.size == meta.size {
                    return Ok(*m);
                }
                return Err(StoreError::AlreadyExists { path: path.clone() });
            }
            Some(m) => m.size,
            None => 0,
        };
        let free = inner.free() + replaced;
        if meta.size > free {
            return Err(StoreError::DiskFull {
                path: path.clone(),
                needed: meta.size,
                free,
            });
        }
        inner.install(path, meta, body)?;
        Ok(meta)
    }

    /// Reads a committed object's body.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn read(&self, path: &UrlPath) -> Result<Vec<u8>, StoreError> {
        let inner = self.lock();
        if !inner.manifest.contains_key(path) {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        inner.medium.read(path)
    }

    /// Reads one chunk of a committed object, returning the bytes and
    /// their FNV checksum (the serving half of a pull-style fetch).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / [`StoreError::BadChunk`] / I/O.
    pub fn read_chunk(&self, path: &UrlPath, index: u32) -> Result<(Vec<u8>, u64), StoreError> {
        let inner = self.lock();
        let meta = inner
            .manifest
            .get(path)
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        let range = meta
            .chunk_range(index)
            .ok_or_else(|| StoreError::BadChunk {
                path: path.clone(),
                index,
                detail: format!("index out of range (object has {})", meta.chunk_count()),
            })?;
        let body = inner.medium.read(path)?;
        let chunk = body
            .get(range)
            .ok_or_else(|| StoreError::Io {
                detail: "object shorter than manifest size".to_string(),
            })?
            .to_vec();
        let sum = fnv64(&chunk);
        Ok((chunk, sum))
    }

    /// The manifest record for `path`, if committed.
    #[must_use]
    pub fn meta(&self, path: &UrlPath) -> Option<ObjectMeta> {
        self.lock().manifest.get(path).copied()
    }

    /// Whether a committed object exists at `path`.
    #[must_use]
    pub fn contains(&self, path: &UrlPath) -> bool {
        self.lock().manifest.contains_key(path)
    }

    /// Every committed object, sorted by path (the `Inventory` RPC body).
    #[must_use]
    pub fn inventory(&self) -> Vec<(UrlPath, ObjectMeta)> {
        self.lock()
            .manifest
            .iter()
            .map(|(p, m)| (p.clone(), *m))
            .collect()
    }

    /// Deletes a committed object.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn delete(&self, path: &UrlPath) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        let meta = inner
            .manifest
            .remove(path)
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        inner.committed_bytes -= meta.size;
        inner.medium.remove(path)?;
        inner.persist_manifest()?;
        Ok(meta)
    }

    /// Renames a committed object.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / [`StoreError::AlreadyExists`] / I/O.
    pub fn rename(&self, from: &UrlPath, to: &UrlPath) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.manifest.contains_key(to) {
            return Err(StoreError::AlreadyExists { path: to.clone() });
        }
        let meta = inner
            .manifest
            .remove(from)
            .ok_or_else(|| StoreError::NotFound { path: from.clone() })?;
        inner.medium.rename(from, to)?;
        inner.manifest.insert(to.clone(), meta);
        inner.persist_manifest()
    }

    /// Bumps a committed object's version (a content update that keeps
    /// the same bytes), returning the new version.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn touch(&self, path: &UrlPath) -> Result<u64, StoreError> {
        let mut inner = self.lock();
        let meta = inner
            .manifest
            .get_mut(path)
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        meta.version += 1;
        let version = meta.version;
        inner.persist_manifest()?;
        Ok(version)
    }

    /// Re-reads a committed object and verifies its size and checksum
    /// against the manifest.
    ///
    /// # Errors
    ///
    /// [`StoreError::ChecksumMismatch`] on corruption (counted in
    /// `verify_failures`), [`StoreError::NotFound`] / I/O.
    pub fn verify(&self, path: &UrlPath) -> Result<ObjectMeta, StoreError> {
        let mut inner = self.lock();
        let meta = *inner
            .manifest
            .get(path)
            .ok_or_else(|| StoreError::NotFound { path: path.clone() })?;
        let body = inner.medium.read(path)?;
        let got = fnv64(&body);
        if body.len() as u64 != meta.size || got != meta.checksum {
            inner.verify_failures += 1;
            return Err(StoreError::ChecksumMismatch {
                path: path.clone(),
                expected: meta.checksum,
                got,
            });
        }
        Ok(meta)
    }

    /// Verifies every committed object, returning the failures.
    #[must_use]
    pub fn verify_all(&self) -> Vec<(UrlPath, StoreError)> {
        let paths: Vec<UrlPath> = self.lock().manifest.keys().cloned().collect();
        paths
            .into_iter()
            .filter_map(|p| self.verify(&p).err().map(|e| (p, e)))
            .collect()
    }

    /// Sweeps staged transfers that made no progress since the previous
    /// sweep (two-phase mark/sweep: no clocks). Returns `(transfers,
    /// bytes)` released.
    pub fn gc(&self) -> (u64, u64) {
        let mut inner = self.lock();
        let dead: Vec<u64> = inner
            .staged
            .iter()
            .filter_map(|(&id, s)| (!s.touched).then_some(id))
            .collect();
        let mut bytes = 0;
        for id in &dead {
            let s = inner.staged.remove(id).expect("collected above");
            inner.staged_bytes -= s.reserved;
            bytes += s.reserved;
        }
        for s in inner.staged.values_mut() {
            s.touched = false;
        }
        inner.gc_transfers += dead.len() as u64;
        inner.gc_bytes += bytes;
        (dead.len() as u64, bytes)
    }

    /// Point-in-time accounting.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            node: self.node,
            objects: inner.manifest.len() as u64,
            chunks: inner
                .manifest
                .values()
                .map(|m| u64::from(m.chunk_count()))
                .sum(),
            committed_bytes: inner.committed_bytes,
            capacity_bytes: inner.capacity,
            staged_transfers: inner.staged.len() as u64,
            staged_bytes: inner.staged_bytes,
            committed_total: inner.committed_total,
            resumed_transfers: inner.resumed_transfers,
            rejected_chunks: inner.rejected_chunks,
            verify_failures: inner.verify_failures,
            gc_transfers: inner.gc_transfers,
            gc_bytes: inner.gc_bytes,
            durable: inner.medium.durable(),
        }
    }

    /// Bytes staged so far for an in-flight transfer shipping `path`
    /// (observability: "how far along is the transfer?").
    #[must_use]
    pub fn staged_progress(&self, path: &UrlPath) -> Option<u64> {
        let inner = self.lock();
        inner
            .staged
            .values()
            .find(|s| &s.path == path)
            .map(Staged::received)
    }

    /// Corrupts a committed object's bytes in place (failure injection
    /// for audit tests; memory and disk media alike).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] / I/O.
    pub fn corrupt_for_test(&self, path: &UrlPath) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if !inner.manifest.contains_key(path) {
            return Err(StoreError::NotFound { path: path.clone() });
        }
        let mut body = inner.medium.read(path)?;
        if body.is_empty() {
            body.push(0xEE);
        } else {
            body[0] ^= 0xFF;
        }
        inner.medium.write(path, &body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::synthetic_body;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn ship(store: &ContentStore, path: &UrlPath, meta: ObjectMeta, body: &[u8]) -> ObjectMeta {
        let (id, have) = store.begin(path, meta, false).unwrap();
        for i in 0..meta.chunk_count() {
            if have.contains(&i) {
                continue;
            }
            let range = meta.chunk_range(i).unwrap();
            let chunk = &body[range];
            store.stage_chunk(id, i, chunk, fnv64(chunk)).unwrap();
        }
        store.commit(id, path, meta.checksum).unwrap()
    }

    #[test]
    fn stage_commit_read_roundtrip() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(1), 10_000);
        let meta = ObjectMeta::for_body(ContentId(1), &body, 1024, 0);
        let committed = ship(&store, &p("/a"), meta, &body);
        assert_eq!(committed, meta);
        assert_eq!(store.read(&p("/a")).unwrap(), body);
        assert_eq!(store.meta(&p("/a")), Some(meta));
        let stats = store.stats();
        assert_eq!(stats.objects, 1);
        assert_eq!(stats.committed_bytes, 10_000);
        assert_eq!(stats.staged_transfers, 0);
        assert_eq!(stats.staged_bytes, 0);
        assert_eq!(stats.rejected_chunks, 0);
    }

    #[test]
    fn poisoned_chunk_rejected_and_resendable() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(2), 3000);
        let meta = ObjectMeta::for_body(ContentId(2), &body, 1000, 0);
        let (id, _) = store.begin(&p("/x"), meta, false).unwrap();
        let chunk = &body[0..1000];
        let mut poisoned = chunk.to_vec();
        poisoned[5] ^= 0xFF;
        let err = store
            .stage_chunk(id, 0, &poisoned, fnv64(chunk))
            .unwrap_err();
        assert!(matches!(err, StoreError::ChunkRejected { index: 0, .. }));
        assert_eq!(store.stats().rejected_chunks, 1);
        // The honest re-send lands.
        store.stage_chunk(id, 0, chunk, fnv64(chunk)).unwrap();
        for i in 1..3 {
            let r = meta.chunk_range(i).unwrap();
            store
                .stage_chunk(id, i, &body[r], fnv64(&body[meta.chunk_range(i).unwrap()]))
                .unwrap();
        }
        store.commit(id, &p("/x"), meta.checksum).unwrap();
        assert_eq!(store.read(&p("/x")).unwrap(), body);
    }

    #[test]
    fn commit_is_atomic_and_incomplete_rejected() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(3), 2048);
        let meta = ObjectMeta::for_body(ContentId(3), &body, 1024, 0);
        let (id, _) = store.begin(&p("/partial"), meta, false).unwrap();
        let r = meta.chunk_range(0).unwrap();
        store
            .stage_chunk(id, 0, &body[r], fnv64(&body[meta.chunk_range(0).unwrap()]))
            .unwrap();
        let err = store.commit(id, &p("/partial"), meta.checksum).unwrap_err();
        assert!(matches!(err, StoreError::Incomplete { missing: 1, .. }));
        // Uncommitted means invisible.
        assert!(!store.contains(&p("/partial")));
        assert!(store.read(&p("/partial")).is_err());
        assert_eq!(store.stats().staged_transfers, 1);
    }

    #[test]
    fn begin_resumes_partial_transfer() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(4), 4096);
        let meta = ObjectMeta::for_body(ContentId(4), &body, 1024, 0);
        let (id, have) = store.begin(&p("/r"), meta, false).unwrap();
        assert!(have.is_empty());
        for i in [0u32, 2] {
            let r = meta.chunk_range(i).unwrap();
            store
                .stage_chunk(id, i, &body[r.clone()], fnv64(&body[r]))
                .unwrap();
        }
        // "Connection lost": a fresh begin resumes the same transfer.
        let (id2, have2) = store.begin(&p("/r"), meta, false).unwrap();
        assert_eq!(id2, id);
        assert_eq!(have2, vec![0, 2]);
        assert_eq!(store.stats().resumed_transfers, 1);
        for i in [1u32, 3] {
            let r = meta.chunk_range(i).unwrap();
            store
                .stage_chunk(id, i, &body[r.clone()], fnv64(&body[r]))
                .unwrap();
        }
        store.commit(id, &p("/r"), meta.checksum).unwrap();
        assert_eq!(store.read(&p("/r")).unwrap(), body);
    }

    #[test]
    fn begin_of_committed_object_returns_sentinel() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let body = synthetic_body(ContentId(5), 100);
        let meta = ObjectMeta::for_body(ContentId(5), &body, 64, 0);
        ship(&store, &p("/done"), meta, &body);
        let (id, have) = store.begin(&p("/done"), meta, false).unwrap();
        assert_eq!(id, 0);
        assert_eq!(have.len(), meta.chunk_count() as usize);
        // Lost-ack commit replay succeeds.
        assert_eq!(store.commit(0, &p("/done"), meta.checksum).unwrap(), meta);
        // Different content without overwrite is refused.
        let other = ObjectMeta::for_body(ContentId(6), b"other", 64, 0);
        assert!(matches!(
            store.begin(&p("/done"), other, false),
            Err(StoreError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn quota_reserved_at_begin() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let a = ObjectMeta::for_body(ContentId(1), &[1u8; 600], 512, 0);
        let b = ObjectMeta::for_body(ContentId(2), &[2u8; 600], 512, 0);
        let (_, _) = store.begin(&p("/a"), a, false).unwrap();
        let err = store.begin(&p("/b"), b, false).unwrap_err();
        assert!(matches!(
            err,
            StoreError::DiskFull {
                needed: 600,
                free: 400,
                ..
            }
        ));
        // Aborting releases the reservation.
        assert!(store.abort(1));
        store.begin(&p("/b"), b, false).unwrap();
    }

    #[test]
    fn put_delete_rename_touch_accounting() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        let meta = store
            .put(&p("/a"), ContentId(1), 0, &[9u8; 300], false)
            .unwrap();
        assert_eq!(meta.size, 300);
        assert!(matches!(
            store.put(&p("/a"), ContentId(2), 0, &[1u8; 10], false),
            Err(StoreError::AlreadyExists { .. })
        ));
        assert!(matches!(
            store.put(&p("/b"), ContentId(3), 0, &[1u8; 800], false),
            Err(StoreError::DiskFull { .. })
        ));
        store.rename(&p("/a"), &p("/b")).unwrap();
        assert!(store.contains(&p("/b")) && !store.contains(&p("/a")));
        assert_eq!(store.touch(&p("/b")).unwrap(), 1);
        assert_eq!(store.meta(&p("/b")).unwrap().version, 1);
        store.delete(&p("/b")).unwrap();
        assert_eq!(store.stats().committed_bytes, 0);
        assert!(matches!(
            store.delete(&p("/b")),
            Err(StoreError::NotFound { .. })
        ));
    }

    #[test]
    fn overwrite_put_replaces_and_reaccounts() {
        let store = ContentStore::in_memory(NodeId(0), 1000);
        store
            .put(&p("/a"), ContentId(1), 0, &[1u8; 900], false)
            .unwrap();
        store
            .put(&p("/a"), ContentId(1), 1, &[2u8; 950], true)
            .unwrap();
        assert_eq!(store.stats().committed_bytes, 950);
        assert!(matches!(
            store.put(&p("/a"), ContentId(1), 2, &[3u8; 1100], true),
            Err(StoreError::DiskFull { .. })
        ));
    }

    #[test]
    fn verify_detects_corruption() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        store
            .put(&p("/ok"), ContentId(1), 0, b"healthy", false)
            .unwrap();
        store.verify(&p("/ok")).unwrap();
        store.corrupt_for_test(&p("/ok")).unwrap();
        let err = store.verify(&p("/ok")).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
        assert_eq!(store.stats().verify_failures, 1);
        let failures = store.verify_all();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, p("/ok"));
    }

    #[test]
    fn gc_sweeps_only_idle_transfers() {
        let store = ContentStore::in_memory(NodeId(0), 1 << 20);
        let meta = ObjectMeta::for_body(ContentId(1), &[0u8; 100], 64, 0);
        let (id, _) = store.begin(&p("/idle"), meta, false).unwrap();
        // First sweep: the transfer was touched by begin → survives.
        assert_eq!(store.gc(), (0, 0));
        // Second sweep: no progress since → swept.
        assert_eq!(store.gc(), (1, 100));
        assert!(!store.abort(id), "already swept");
        assert_eq!(store.stats().staged_bytes, 0);
        assert_eq!(store.stats().gc_transfers, 1);

        // An active transfer keeps surviving.
        let meta2 = ObjectMeta::for_body(ContentId(2), &[1u8; 128], 64, 0);
        let (id2, _) = store.begin(&p("/busy"), meta2, false).unwrap();
        store.gc();
        store
            .stage_chunk(id2, 0, &[1u8; 64], fnv64(&[1u8; 64]))
            .unwrap();
        assert_eq!(store.gc(), (0, 0), "chunk activity marked it live");
        assert_eq!(store.gc(), (1, 128), "idle since last sweep");
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "cpms-store-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let body = synthetic_body(ContentId(7), 5000);
        {
            let store = ContentStore::open(NodeId(1), &dir, 1 << 20).unwrap();
            let meta = ObjectMeta::for_body(ContentId(7), &body, 1024, 0);
            ship(&store, &p("/site/page.html"), meta, &body);
            assert!(store.stats().durable);
        }
        {
            let store = ContentStore::open(NodeId(1), &dir, 1 << 20).unwrap();
            assert_eq!(store.read(&p("/site/page.html")).unwrap(), body);
            assert_eq!(store.stats().objects, 1);
            assert_eq!(store.stats().committed_bytes, 5000);
            store.verify(&p("/site/page.html")).unwrap();
            // Truncate the object file behind the manifest's back: the
            // next open drops the record instead of serving a torso.
            store.delete(&p("/site/page.html")).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes the on-disk layout of a store holding `count` one-byte
    /// objects straight to `root`: object files plus `manifest.json`.
    /// (`put`ting them instead would rewrite the whole manifest per
    /// object.)
    fn write_layout(root: &Path, count: u32) {
        std::fs::create_dir_all(root.join("objects")).unwrap();
        let records: Vec<(UrlPath, ObjectMeta)> = (0..count)
            .map(|i| {
                let path: UrlPath = format!("/site/dir{}/page{i}.html", i % 64).parse().unwrap();
                let body = [i as u8];
                std::fs::write(Medium::object_file(root, &path), body).unwrap();
                (path, ObjectMeta::for_body(ContentId(i), &body, 4096, 0))
            })
            .collect();
        std::fs::write(
            root.join("manifest.json"),
            serde_json::to_string(&records).unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn durable_reopen_of_10k_objects_is_fast() {
        let dir = std::env::temp_dir().join(format!("cpms-store-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_layout(&dir, 10_000);
        let start = std::time::Instant::now();
        let store = ContentStore::open(NodeId(1), &dir, 1 << 30).unwrap();
        let took = start.elapsed();
        let stats = store.stats();
        assert_eq!(stats.objects, 10_000);
        assert_eq!(stats.committed_bytes, 10_000);
        assert_eq!(
            store.read(&p("/site/dir7/page9991.html")).unwrap(),
            [9991_u32 as u8]
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        // Manifest parse, per-record size check and manifest rewrite, in
        // an unoptimized build on a loaded host.
        assert!(
            took < std::time::Duration::from_secs(2),
            "reopening 10k objects took {took:?}"
        );
    }

    #[test]
    fn concurrent_ships_respect_quota() {
        let store = std::sync::Arc::new(ContentStore::in_memory(NodeId(0), 10_000));
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    let body = synthetic_body(ContentId(t), 2000);
                    let meta = ObjectMeta::for_body(ContentId(t), &body, 512, 0);
                    let path: UrlPath = format!("/f{t}").parse().unwrap();
                    if let Ok((id, _)) = store.begin(&path, meta, false) {
                        for i in 0..meta.chunk_count() {
                            let r = meta.chunk_range(i).unwrap();
                            store
                                .stage_chunk(id, i, &body[r.clone()], fnv64(&body[r]))
                                .unwrap();
                        }
                        store.commit(id, &path, meta.checksum).unwrap();
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.committed_bytes <= 10_000, "quota held: {stats:?}");
        assert_eq!(stats.committed_bytes, stats.objects * 2000);
        assert_eq!(stats.objects, 5, "exactly floor(10000/2000) ships won");
    }
}

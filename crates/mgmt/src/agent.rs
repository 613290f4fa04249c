//! Management agents — the "mobile code" of the paper's §3.
//!
//! > "Each administrative function is implemented in the form of a Java
//! > class, which is termed an agent. The brokers distributed on each node
//! > may download the appropriate classes to perform the corresponding
//! > management tasks."
//!
//! An agent is a *serializable wire message*: the controller ships an
//! [`AgentRequest`] to a broker over a `cpms-wire` transport (in-process
//! channel or TCP), the broker executes it against its node's
//! [`ContentStore`], and the [`AgentReply`] rides back the same way. The
//! built-in agents cover the operations the controller needs (store,
//! delete, rename, replicate, status, listing); new management functions
//! are added by implementing [`Agent`] and giving [`AgentRequest`] a
//! variant, without touching broker or controller plumbing.

use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_store::{ContentStore, ObjectMeta, ShipReply, ShipRequest, StoreError};
use cpms_wire::WireError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What an agent produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgentOutput {
    /// The operation completed with nothing to report.
    Done,
    /// A listing of the node's files, sorted by path.
    Listing(Vec<(UrlPath, ObjectMeta)>),
    /// A status snapshot of the node.
    Status {
        /// Files stored on the node.
        files: usize,
        /// Bytes in use.
        used_bytes: u64,
        /// Bytes free.
        free_bytes: u64,
    },
    /// The new version of a touched document.
    Version(u64),
    /// The content store's reply to a tunneled ship request.
    Ship(ShipReply),
}

/// Errors an agent can report back to the controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgentError {
    /// A store-level failure on the target node.
    Store(StoreError),
    /// The broker for the target node is gone (crashed / shut down /
    /// unreachable).
    BrokerUnavailable(NodeId),
    /// The transport to the broker failed in a way that does not mean
    /// "gone" — a deadline expired, a frame was poisoned, retries were
    /// exhausted. The request *may* have executed (at-most-once is not
    /// guaranteed over a lossy wire).
    Transport {
        /// The node whose broker was being called.
        node: NodeId,
        /// The underlying wire failure.
        error: WireError,
    },
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::Store(e) => write!(f, "store operation failed: {e}"),
            AgentError::BrokerUnavailable(n) => write!(f, "broker on {n} unavailable"),
            AgentError::Transport { node, error } => {
                write!(f, "transport to broker on {node} failed: {error}")
            }
        }
    }
}

impl std::error::Error for AgentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AgentError::Store(e) => Some(e),
            AgentError::BrokerUnavailable(_) => None,
            AgentError::Transport { error, .. } => Some(error),
        }
    }
}

#[doc(hidden)]
impl From<StoreError> for AgentError {
    fn from(e: StoreError) -> Self {
        AgentError::Store(e)
    }
}

impl AgentError {
    /// Classifies a wire failure against `node`'s broker: peers that are
    /// gone (refused, closed, in-process server stopped) surface as
    /// [`AgentError::BrokerUnavailable`]; everything else keeps its
    /// transport taxonomy.
    #[must_use]
    pub fn from_wire(node: NodeId, error: WireError) -> Self {
        match error.root() {
            WireError::Unavailable { .. } | WireError::Closed => {
                AgentError::BrokerUnavailable(node)
            }
            _ => AgentError::Transport { node, error },
        }
    }
}

/// A management function executed by a broker against its node's store.
///
/// The trait is the *execution* interface; shipping happens as the
/// serializable [`AgentRequest`] enum, which is what actually crosses
/// the wire.
pub trait Agent: Send {
    /// Short name for logs and reports.
    fn name(&self) -> &'static str;

    /// Runs the function against the broker node's content store.
    ///
    /// # Errors
    ///
    /// Implementations surface store-level failures as
    /// [`AgentError::Store`].
    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError>;
}

/// The wire form of an agent: every management function the controller
/// can ship to a broker, as one serializable message.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AgentRequest {
    /// Store (or overwrite) a file.
    Store(StoreFile),
    /// Delete a file.
    Delete(DeleteFile),
    /// Rename a file.
    Rename(RenameFile),
    /// Bump a mutable document's version.
    Touch(TouchFile),
    /// Probe node status.
    Status(StatusProbe),
    /// List every file on the node.
    List(ListFiles),
    /// Tunnel a content-shipping request to the node's content store.
    Ship(ShipAgent),
}

impl AgentRequest {
    /// The wrapped agent's short name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AgentRequest::Store(a) => a.name(),
            AgentRequest::Delete(a) => a.name(),
            AgentRequest::Rename(a) => a.name(),
            AgentRequest::Touch(a) => a.name(),
            AgentRequest::Status(a) => a.name(),
            AgentRequest::List(a) => a.name(),
            AgentRequest::Ship(a) => a.name(),
        }
    }

    /// Executes the wrapped agent against `store`.
    ///
    /// # Errors
    ///
    /// See [`Agent::execute`].
    pub fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        match self {
            AgentRequest::Store(a) => a.execute(store),
            AgentRequest::Delete(a) => a.execute(store),
            AgentRequest::Rename(a) => a.execute(store),
            AgentRequest::Touch(a) => a.execute(store),
            AgentRequest::Status(a) => a.execute(store),
            AgentRequest::List(a) => a.execute(store),
            AgentRequest::Ship(a) => a.execute(store),
        }
    }
}

macro_rules! into_request {
    ($($agent:ident => $variant:ident),+ $(,)?) => {
        $(impl From<$agent> for AgentRequest {
            fn from(a: $agent) -> Self {
                AgentRequest::$variant(a)
            }
        })+
    };
}

into_request!(
    StoreFile => Store,
    DeleteFile => Delete,
    RenameFile => Rename,
    TouchFile => Touch,
    StatusProbe => Status,
    ListFiles => List,
    ShipAgent => Ship,
);

/// The wire form of an agent's result (the vendored serde stand-in has
/// no `Result` impl, so the broker protocol spells it out).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AgentReply {
    /// The agent succeeded.
    Ok(AgentOutput),
    /// The agent failed.
    Err(AgentError),
}

impl From<Result<AgentOutput, AgentError>> for AgentReply {
    fn from(r: Result<AgentOutput, AgentError>) -> Self {
        match r {
            Ok(o) => AgentReply::Ok(o),
            Err(e) => AgentReply::Err(e),
        }
    }
}

impl From<AgentReply> for Result<AgentOutput, AgentError> {
    fn from(r: AgentReply) -> Self {
        match r {
            AgentReply::Ok(o) => Ok(o),
            AgentReply::Err(e) => Err(e),
        }
    }
}

/// Stores a file on the node: the synthetic body of `content` at `size`
/// bytes (seeding and tests; published content arrives through
/// [`ShipAgent`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreFile {
    /// Destination path.
    pub path: UrlPath,
    /// Which content object the file is a copy of.
    pub content: ContentId,
    /// Size in bytes.
    pub size: u64,
    /// Whether to overwrite an existing copy (content updates). Without
    /// it, storing the identical body again succeeds and a different
    /// body conflicts.
    pub overwrite: bool,
}

impl Agent for StoreFile {
    fn name(&self) -> &'static str {
        "store-file"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        let body = cpms_store::synthetic_body(self.content, self.size);
        store.put(&self.path, self.content, 0, &body, self.overwrite)?;
        Ok(AgentOutput::Done)
    }
}

/// Deletes a file from the node's local filesystem — the paper's worked
/// example: "one agent is responsible for deleting a file from the local
/// file system of the node that it executes. If the administrator tries to
/// offload some pages from a server, the controller will send this agent
/// to that node."
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeleteFile {
    /// Path to delete.
    pub path: UrlPath,
}

impl Agent for DeleteFile {
    fn name(&self) -> &'static str {
        "delete-file"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        store.delete(&self.path)?;
        Ok(AgentOutput::Done)
    }
}

/// Renames a file on the node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RenameFile {
    /// Current path.
    pub from: UrlPath,
    /// New path.
    pub to: UrlPath,
}

impl Agent for RenameFile {
    fn name(&self) -> &'static str {
        "rename-file"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        store.rename(&self.from, &self.to)?;
        Ok(AgentOutput::Done)
    }
}

/// Bumps a mutable document's version in place (a content-provider
/// update).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TouchFile {
    /// Path to update.
    pub path: UrlPath,
}

impl Agent for TouchFile {
    fn name(&self) -> &'static str {
        "touch-file"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        Ok(AgentOutput::Version(store.touch(&self.path)?))
    }
}

/// Reports the node's status (files, disk usage) — the broker's monitoring
/// duty.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatusProbe;

impl Agent for StatusProbe {
    fn name(&self) -> &'static str {
        "status-probe"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        let stats = store.stats();
        Ok(AgentOutput::Status {
            files: stats.objects as usize,
            used_bytes: stats.committed_bytes,
            free_bytes: stats.free_bytes(),
        })
    }
}

/// Lists every file on the node (used to audit the single system image).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ListFiles;

impl Agent for ListFiles {
    fn name(&self) -> &'static str {
        "list-files"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        Ok(AgentOutput::Listing(store.inventory()))
    }
}

/// Tunnels one content-shipping request to the node's content store —
/// this is how replica bytes actually arrive at a broker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShipAgent {
    /// The ship-protocol message to apply.
    pub request: ShipRequest,
}

impl Agent for ShipAgent {
    fn name(&self) -> &'static str {
        "ship"
    }

    fn execute(&self, store: &ContentStore) -> Result<AgentOutput, AgentError> {
        Ok(AgentOutput::Ship(cpms_store::apply(store, &self.request)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn store() -> ContentStore {
        ContentStore::in_memory(NodeId(1), 1 << 20)
    }

    fn file(path: &str, id: u32) -> StoreFile {
        StoreFile {
            path: p(path),
            content: ContentId(id),
            size: 100,
            overwrite: false,
        }
    }

    #[test]
    fn store_then_delete() {
        let s = store();
        let out = file("/a", 1).execute(&s).unwrap();
        assert_eq!(out, AgentOutput::Done);
        assert!(s.contains(&p("/a")), "bytes committed");

        DeleteFile { path: p("/a") }.execute(&s).unwrap();
        assert!(!s.contains(&p("/a")), "bytes removed");
        let err = DeleteFile { path: p("/a") }.execute(&s).unwrap_err();
        assert!(matches!(
            err,
            AgentError::Store(StoreError::NotFound { .. })
        ));
    }

    #[test]
    fn rename_and_touch() {
        let s = store();
        file("/old", 2).execute(&s).unwrap();
        RenameFile {
            from: p("/old"),
            to: p("/new"),
        }
        .execute(&s)
        .unwrap();
        let out = TouchFile { path: p("/new") }.execute(&s).unwrap();
        assert_eq!(out, AgentOutput::Version(1));
    }

    #[test]
    fn status_and_listing() {
        let s = store();
        for i in 0..3 {
            file(&format!("/f{i}"), i).execute(&s).unwrap();
        }
        match StatusProbe.execute(&s).unwrap() {
            AgentOutput::Status {
                files, used_bytes, ..
            } => {
                assert_eq!(files, 3);
                assert_eq!(used_bytes, 300);
            }
            other => panic!("unexpected output {other:?}"),
        }
        match ListFiles.execute(&s).unwrap() {
            AgentOutput::Listing(l) => {
                assert_eq!(l.len(), 3);
                assert!(l.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn agent_names() {
        assert_eq!(StatusProbe.name(), "status-probe");
        assert_eq!(ListFiles.name(), "list-files");
        assert_eq!(DeleteFile { path: p("/x") }.name(), "delete-file");
        assert_eq!(
            ShipAgent {
                request: ShipRequest::Inventory
            }
            .name(),
            "ship"
        );
    }

    #[test]
    fn shipped_file_is_listed_only_after_commit() {
        use cpms_store::{fnv64, hex_encode};
        let s = store();
        let body = vec![7u8; 300];
        let meta = ObjectMeta::for_body(ContentId(9), &body, 256, 0);
        let ship = |request| match (ShipAgent { request }).execute(&s).unwrap() {
            AgentOutput::Ship(reply) => reply,
            other => panic!("{other:?}"),
        };
        let listed = || match ListFiles.execute(&s).unwrap() {
            AgentOutput::Listing(l) => l,
            other => panic!("{other:?}"),
        };
        let transfer = match ship(ShipRequest::Begin {
            path: p("/shipped"),
            meta,
            overwrite: false,
        }) {
            ShipReply::Begun { transfer, .. } => transfer,
            other => panic!("{other:?}"),
        };
        for index in 0..meta.chunk_count() {
            let range = meta.chunk_range(index).unwrap();
            ship(ShipRequest::Chunk {
                transfer,
                index,
                data: hex_encode(&body[range.clone()]),
                checksum: fnv64(&body[range]),
            });
        }
        assert!(listed().is_empty(), "staged bytes are not listed yet");
        ship(ShipRequest::Commit {
            transfer,
            path: p("/shipped"),
            checksum: meta.checksum,
        });
        assert_eq!(listed(), vec![(p("/shipped"), meta)]);
        assert_eq!(s.read(&p("/shipped")).unwrap(), body);

        ship(ShipRequest::Delete {
            path: p("/shipped"),
        });
        assert!(listed().is_empty(), "delete unlists");
    }
}

//! Per-node broker state.
//!
//! A broker executes agents against its node's
//! [`cpms_store::ContentStore`]: the committed bytes, their manifest
//! records (content id, size, version, checksum) and the node's disk
//! quota. That store is the only record of what a node holds and how
//! full it is; [`NodeStore`] merely names a node and the quota a fresh
//! store starts with.

use cpms_model::NodeId;
use cpms_store::ContentStore;
use std::sync::Arc;

/// A node and its disk quota: what a broker needs to start over an empty
/// in-memory store ([`crate::Broker::spawn`], [`crate::Broker::bind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStore {
    node: NodeId,
    capacity_bytes: u64,
}

impl NodeStore {
    /// Names `node` with the given disk quota.
    pub fn new(node: NodeId, capacity_bytes: u64) -> Self {
        NodeStore {
            node,
            capacity_bytes,
        }
    }

    /// The node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Disk quota in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }
}

/// Everything a broker owns on its node: the content store holding the
/// committed bytes, shared with the origin server that serves them.
#[derive(Debug)]
pub struct BrokerState {
    content: Arc<ContentStore>,
}

impl BrokerState {
    /// Fresh state for `node`: an empty in-memory content store with
    /// `capacity_bytes` of quota.
    pub fn new(node: NodeId, capacity_bytes: u64) -> Self {
        BrokerState {
            content: Arc::new(ContentStore::in_memory(node, capacity_bytes)),
        }
    }

    /// State over an existing (possibly disk-backed, possibly already
    /// populated) content store. The store's own quota is the node's
    /// capacity; `node` only names the node the caller expects.
    ///
    /// # Panics
    ///
    /// If `content` belongs to a different node than `node`.
    pub fn with_content(node: NodeStore, content: Arc<ContentStore>) -> Self {
        assert_eq!(
            node.node(),
            content.node(),
            "content store belongs to another node"
        );
        BrokerState { content }
    }

    /// The node this state belongs to.
    pub fn node(&self) -> NodeId {
        self.content.node()
    }

    /// The content store (shared with origin servers that serve object
    /// bodies straight from it).
    pub fn content(&self) -> &Arc<ContentStore> {
        &self.content
    }
}

#[cfg(test)]
mod tests {
    //! A node's file-level behaviours, driven through the agents a broker
    //! executes. Each test is a table of agents and the exact outcome
    //! each must produce against one [`BrokerState`].

    use super::*;
    use crate::agent::{
        AgentError, AgentOutput, AgentRequest, DeleteFile, RenameFile, StatusProbe, StoreFile,
        TouchFile,
    };
    use cpms_model::{ContentId, UrlPath};
    use cpms_store::StoreError;

    fn p(s: &str) -> UrlPath {
        s.parse().unwrap()
    }

    fn put(path: &str, id: u32, size: u64, overwrite: bool) -> AgentRequest {
        StoreFile {
            path: p(path),
            content: ContentId(id),
            size,
            overwrite,
        }
        .into()
    }

    fn status(files: usize, used_bytes: u64, free_bytes: u64) -> Result<AgentOutput, AgentError> {
        Ok(AgentOutput::Status {
            files,
            used_bytes,
            free_bytes,
        })
    }

    fn err(e: StoreError) -> Result<AgentOutput, AgentError> {
        Err(AgentError::Store(e))
    }

    /// Runs every step against a fresh 1000-byte node.
    fn run(steps: Vec<(AgentRequest, Result<AgentOutput, AgentError>)>) -> BrokerState {
        let state = BrokerState::new(NodeId(0), 1000);
        for (i, (agent, want)) in steps.into_iter().enumerate() {
            let got = agent.execute(state.content());
            assert_eq!(got, want, "step {i}: {}", agent.name());
        }
        state
    }

    const DONE: Result<AgentOutput, AgentError> = Ok(AgentOutput::Done);

    #[test]
    fn store_and_accounting() {
        run(vec![
            (put("/a", 1, 400, false), DONE),
            (StatusProbe.into(), status(1, 400, 600)),
            (DeleteFile { path: p("/a") }.into(), DONE),
            (StatusProbe.into(), status(0, 0, 1000)),
        ]);
    }

    #[test]
    fn disk_full_rejected() {
        let full = StoreError::DiskFull {
            path: p("/b"),
            needed: 300,
            free: 200,
        };
        let state = run(vec![
            (put("/a", 1, 800, false), DONE),
            (put("/b", 2, 300, false), err(full)),
            // A failed store leaves the node unchanged.
            (StatusProbe.into(), status(1, 800, 200)),
        ]);
        assert!(!state.content().contains(&p("/b")));
    }

    #[test]
    fn overwrite_frees_old_size() {
        let full = StoreError::DiskFull {
            path: p("/a"),
            needed: 1100,
            free: 1000,
        };
        run(vec![
            (put("/a", 1, 900, false), DONE),
            // Only fits because the old 900 bytes are freed.
            (put("/a", 1, 950, true), DONE),
            (StatusProbe.into(), status(1, 950, 50)),
            (put("/a", 1, 1100, true), err(full)),
            (StatusProbe.into(), status(1, 950, 50)),
        ]);
    }

    #[test]
    fn no_overwrite_flag() {
        let taken = StoreError::AlreadyExists { path: p("/a") };
        run(vec![
            (put("/a", 1, 10, false), DONE),
            (put("/a", 2, 10, false), err(taken)),
        ]);
    }

    #[test]
    fn rename_moves_metadata() {
        let rename = |from: &str, to: &str| -> AgentRequest {
            RenameFile {
                from: p(from),
                to: p(to),
            }
            .into()
        };
        let state = run(vec![
            (put("/a", 1, 10, false), DONE),
            (rename("/a", "/b"), DONE),
            (
                rename("/missing", "/c"),
                err(StoreError::NotFound {
                    path: p("/missing"),
                }),
            ),
            (put("/c", 2, 10, false), DONE),
            (
                rename("/b", "/c"),
                err(StoreError::AlreadyExists { path: p("/c") }),
            ),
        ]);
        assert!(!state.content().contains(&p("/a")));
        assert_eq!(
            state.content().meta(&p("/b")).unwrap().content,
            ContentId(1)
        );
    }

    #[test]
    fn touch_bumps_version() {
        let touch = |path: &str| -> AgentRequest { TouchFile { path: p(path) }.into() };
        run(vec![
            (put("/a", 1, 10, false), DONE),
            (touch("/a"), Ok(AgentOutput::Version(1))),
            (touch("/a"), Ok(AgentOutput::Version(2))),
            (touch("/zzz"), err(StoreError::NotFound { path: p("/zzz") })),
        ]);
    }

    #[test]
    fn with_content_keeps_the_stores_quota() {
        let content = Arc::new(ContentStore::in_memory(NodeId(2), 500));
        let state = BrokerState::with_content(NodeStore::new(NodeId(2), 1 << 30), content);
        assert_eq!(state.node(), NodeId(2));
        assert_eq!(state.content().stats().capacity_bytes, 500);
    }

    #[test]
    #[should_panic(expected = "another node")]
    fn with_content_rejects_another_nodes_store() {
        let content = Arc::new(ContentStore::in_memory(NodeId(1), 500));
        let _ = BrokerState::with_content(NodeStore::new(NodeId(0), 500), content);
    }
}

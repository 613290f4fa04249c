//! # cpms-dispatch
//!
//! Request routing for the distributed web server — §2 of the paper.
//!
//! Two layers live here:
//!
//! 1. **Routing policies** ([`Router`]): the decision logic that picks a
//!    back-end node per request. This includes the paper's **content-aware
//!    distributor** ([`ContentAwareRouter`]) and the baselines it is
//!    compared against — layer-4 routing with *Weighted Least Connections*
//!    ([`WeightedLeastConnections`], the paper's previous work \[2\]),
//!    round-robin, and DNS-style client-sticky routing. The live
//!    multi-worker distributor uses [`LiveRouter`] — the same
//!    content-aware policy reading *published snapshots* of the URL table
//!    through a per-worker cache (see [`cpms_urltable::snapshot`]).
//!
//! 2. **Connection-splicing mechanics**: the kernel-module machinery of
//!    §2.2 reproduced as a deterministic state machine — the
//!    [`mapping::MappingTable`] (per-connection TCP state:
//!    `SYN_RECEIVED → ESTABLISHED → FIN_RECEIVED → HALF_CLOSED → CLOSED`),
//!    the pre-forked persistent [`pool::ConnectionPool`], sequence-number
//!    translation and header rewriting in [`relay::Distributor`], and the
//!    primary/backup fault-tolerance scheme in [`failover`].
//!
//! The policies are consumed by the simulator (`cpms-sim`) and by the live
//! TCP proxy (`cpms-httpd`). The splicing state machine is not on the live
//! path: only unit/property tests and the `dispatch` criterion bench drive
//! it (the live proxy relays over its own socket pool instead).
//!
//! # Example: routing decisions
//!
//! ```
//! use cpms_dispatch::{ClusterState, ContentAwareRouter, Router, RoutingRequest};
//! use cpms_model::{ContentId, ContentKind, NodeId, UrlPath};
//! use cpms_urltable::{UrlEntry, UrlTable};
//!
//! let mut table = UrlTable::new();
//! let path: UrlPath = "/a.html".parse().unwrap();
//! table.insert(
//!     path.clone(),
//!     UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 100)
//!         .with_locations([NodeId(2)]),
//! ).unwrap();
//!
//! let mut router = ContentAwareRouter::new(64);
//! let state = ClusterState::new(vec![1.0; 4]);
//! let req = RoutingRequest { client: 0, path: &path, kind: ContentKind::StaticHtml };
//! let decision = router.route(&req, &state, &table).unwrap();
//! assert_eq!(decision.node, NodeId(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod content_aware;
pub mod failover;
pub mod l4;
pub mod live;
pub mod mapping;
pub mod pool;
pub mod redirect;
pub mod relay;
pub mod router;

pub use content_aware::ContentAwareRouter;
pub use l4::{RandomRouter, RoundRobin, WeightedLeastConnections};
pub use live::LiveRouter;
pub use redirect::HttpRedirectRouter;
pub use router::{ClusterState, DnsRoundRobin, RouteDecision, Router, RoutingRequest};

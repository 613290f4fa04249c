//! # cpms-httpd
//!
//! A live TCP demonstration of the paper's data plane: a threaded
//! HTTP/1.1 **origin server** ([`OriginServer`]) standing in for the
//! Apache/IIS back ends, and a **content-aware reverse proxy**
//! ([`ContentAwareProxy`]) that does at socket level what the paper's
//! kernel module does at packet level — read the request, look the URL up
//! in the URL table, and splice the client connection to a **pre-forked
//! persistent backend connection** from a pool.
//!
//! A content-blind [`L4Proxy`] (connect-and-pipe, no HTTP parsing) is
//! included as the layer-4 baseline, and [`client`] provides a small
//! keep-alive HTTP client used by tests, examples, and benches.
//!
//! The proxies are **event-driven**: a fixed set of worker threads, each
//! running one readiness-driven loop (via `cpms-reactor`) of non-blocking
//! connection state machines, serves every concurrent client — thousands
//! of keep-alive connections do not add threads. The origin stays a
//! plain threaded server: it sits behind the proxy's small pre-forked
//! connection pool, so its thread count is bounded by pool size, not by
//! client concurrency.
//!
//! Everything runs on `std::net` + the workspace's own reactor: no async
//! runtime, no external dependencies beyond the workspace.
//!
//! # Example
//!
//! ```no_run
//! use cpms_httpd::{client::HttpClient, ContentAwareProxy, OriginServer, SiteContent};
//! use cpms_model::NodeId;
//! use cpms_urltable::{UrlEntry, UrlTable};
//! use cpms_model::{ContentId, ContentKind};
//!
//! // one origin node serving one page
//! let mut site = SiteContent::new();
//! site.add_static("/index.html", b"hello".to_vec());
//! let origin = OriginServer::start(NodeId(0), site)?;
//!
//! // a URL table routing that page to the origin
//! let mut table = UrlTable::new();
//! table.insert(
//!     "/index.html".parse().unwrap(),
//!     UrlEntry::new(ContentId(0), ContentKind::StaticHtml, 5)
//!         .with_locations([NodeId(0)]),
//! ).unwrap();
//!
//! let proxy = ContentAwareProxy::start(table, vec![origin.addr()], 4)?;
//! let mut client = HttpClient::connect(proxy.addr())?;
//! let resp = client.get("/index.html")?;
//! assert_eq!(resp.status, 200);
//! assert_eq!(resp.body, b"hello");
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod http;
pub mod l4proxy;
pub mod loadgen;
pub mod origin;
pub mod pool;
pub mod proxy;

pub use http::TRACE_HEADER;
pub use l4proxy::L4Proxy;
pub use origin::{OriginServer, SiteContent};
pub use proxy::{
    render_registry_doc, ContentAwareProxy, ProxyConfig, TenantCap, METRICS_JSON_PATH,
    METRICS_PATH, SERIES_JSON_PATH, TRACE_JSON_PATH,
};

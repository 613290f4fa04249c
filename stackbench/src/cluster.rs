//! The system under test, assembled in process and wired the way the
//! `cpms-broker --http` and `cpms-proxy` daemons wire it, with their
//! default settings: a TCP broker per node over a content store, a
//! store-backed origin per node, one controller whose publisher feeds
//! the content-aware proxy, flight recorders at 100 ms, the proxy's
//! default SLO rules, and spans on.

use cpms_httpd::{ContentAwareProxy, OriginServer, ProxyConfig, SiteContent};
use cpms_mgmt::{Broker, BrokerState, Cluster, Controller, NodeStore};
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::{MetricsRegistry, Sampler, SloRule, SloWatchdog, SpanCollector};
use cpms_store::ContentStore;
use std::sync::Arc;
use std::time::Duration;

/// Back-end nodes in the cluster.
pub const NODES: usize = 4;

/// Disk quota per node: room for the corpus plus the churn objects.
const DISK_BYTES: u64 = 512 << 20;

/// The daemons' flight-recorder period (`--record-interval` default).
const RECORD_INTERVAL: Duration = Duration::from_millis(100);

/// The SLO rules `cpms-proxy` installs when its recorder is on.
const PROXY_SLOS: [&str; 2] = [
    "proxy_backend_errors_total rate <= 0 over 2s",
    "proxy_pool_failures_total rate <= 0 over 2s",
];

/// One object of the corpus, in popularity-rank order.
#[derive(Debug, Clone)]
pub struct Object {
    pub url: UrlPath,
    pub id: u32,
    pub size: u64,
    pub nodes: Vec<NodeId>,
}

/// The running stack.
pub struct Stack {
    pub controller: Controller,
    pub proxy: ContentAwareProxy,
    pub origins: Vec<OriginServer>,
    pub stores: Vec<Arc<ContentStore>>,
    /// The proxy process's registry (proxy, controller, wire, ship).
    pub registry: Arc<MetricsRegistry>,
    pub spans: Spans,
    samplers: Vec<Sampler>,
}

/// Every span collector of the stack: the proxy's and each node's.
pub struct Spans(Vec<Arc<SpanCollector>>);

impl Spans {
    /// Turns span recording on or off in every process of the stack.
    /// On is the daemons' default.
    pub fn set(&self, on: bool) {
        for collector in &self.0 {
            collector.set_enabled(on);
        }
    }
}

impl Stack {
    /// Starts every node and the proxy.
    pub fn start() -> Stack {
        let mut handles = Vec::new();
        let mut origins = Vec::new();
        let mut stores = Vec::new();
        let mut samplers = Vec::new();
        let mut spans = Spans(Vec::new());
        for n in 0..NODES {
            let node = NodeId(n as u16);
            let content = Arc::new(ContentStore::in_memory(node, DISK_BYTES));
            let state =
                BrokerState::with_content(NodeStore::new(node, DISK_BYTES), Arc::clone(&content));
            let registry = Arc::new(MetricsRegistry::new());
            registry.spans().set_process(&format!("broker-n{n}"));
            spans.0.push(Arc::clone(registry.spans()));
            samplers.push(Sampler::start(&registry, RECORD_INTERVAL));
            handles.push(
                Broker::bind_observed(
                    "127.0.0.1:0".parse().expect("literal addr"),
                    state,
                    Arc::clone(registry.spans()),
                )
                .expect("bind broker"),
            );
            origins.push(
                OriginServer::start_with_registry(
                    node,
                    SiteContent::new().with_backing(Arc::clone(&content)),
                    registry,
                )
                .expect("start origin"),
            );
            stores.push(content);
        }
        let registry = Arc::new(MetricsRegistry::new());
        registry.spans().set_process("proxy");
        spans.0.push(Arc::clone(registry.spans()));
        let rules = PROXY_SLOS
            .iter()
            .map(|text| SloRule::parse(text).expect("default SLO rules parse"))
            .collect();
        let _watchdog = SloWatchdog::install(&registry, rules);
        let mut controller = Controller::new(Cluster::from_handles(handles));
        controller.set_metrics(&registry);
        let config = ProxyConfig {
            prefork: 2,
            record_interval: Some(RECORD_INTERVAL),
            ..ProxyConfig::default()
        };
        let proxy = ContentAwareProxy::start_with_config(
            controller.publisher().share(),
            origins.iter().map(OriginServer::addr).collect(),
            Arc::clone(&registry),
            config,
        )
        .expect("start proxy");
        Stack {
            controller,
            proxy,
            origins,
            stores,
            registry,
            spans,
            samplers,
        }
    }

    /// Places the corpus through `Controller::publish`, one object at a
    /// time, on the nodes the placement chose, and returns the checksum
    /// the controller recorded for each object, by rank.
    pub fn publish(&mut self, corpus: &[Object]) -> Vec<u64> {
        let mut checksums = Vec::with_capacity(corpus.len());
        for obj in corpus {
            self.controller
                .publish(
                    &obj.url,
                    ContentId(obj.id),
                    ContentKind::StaticHtml,
                    obj.size,
                    Priority::Normal,
                    &obj.nodes,
                )
                .unwrap_or_else(|e| panic!("publish {} failed: {e}", obj.url));
            checksums.push(
                self.controller
                    .table()
                    .lookup_exact(&obj.url)
                    .expect("published object is in the table")
                    .checksum(),
            );
        }
        checksums
    }

    /// GETs the origins have answered with a 200.
    pub fn origin_served(&self) -> u64 {
        self.origins.iter().map(OriginServer::served).sum()
    }

    /// Stops every thread the stack started.
    pub fn shutdown(mut self) {
        self.proxy.shutdown();
        self.controller.shutdown();
        for origin in &mut self.origins {
            origin.shutdown();
        }
        for sampler in &mut self.samplers {
            sampler.stop();
        }
    }
}

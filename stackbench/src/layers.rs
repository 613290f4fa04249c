//! The traced run's per-layer ledger.
//!
//! Every figure here is taken by the benchmark's own code around calls
//! into a crate's public functions (or read from the counters and
//! histograms the crates already export); the crates are not modified.
//! Spans go to `out/layer-spans-<workload>-<seed>.jsonl`. A layer's self
//! time is a difference between calls: a GET via the proxy minus the
//! same GET sent straight to the owning origin, and so on down.

use crate::cluster::{Object, Stack, NODES};
use crate::{ms, pct, Measured, Metric, Span};
use cpms_dispatch::LiveRouter;
use cpms_httpd::client::HttpClient;
use cpms_mgmt::agent::DeleteFile;
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use cpms_obs::RegistrySnapshot;
use cpms_store::{ContentStore, ShipPort, ShipRequest, Shipper};
use cpms_urltable::TablePublisher;
use cpms_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Cache entries per proxy worker router (what `ContentAwareProxy` uses).
const ROUTER_CACHE: u64 = 1024;

/// Lookups and routes are timed in batches this long: one call is a few
/// hundred nanoseconds, too close to the clock's own cost to time alone.
const BATCH: usize = 100;

/// Each per-layer metric: name, unit, the end-to-end metric it should
/// move, and the workloads on which it should move it.
pub const LEDGER: &[(&str, &str, &str, &str)] = &[
    (
        "proxy.self_us",
        "us",
        "get_p50_ms",
        "small_zipf, large_objects",
    ),
    ("proxy.parse_ns_p50", "ns", "get_p50_ms", "small_zipf"),
    ("proxy.parse_ns_p99", "ns", "get_p50_ms", "small_zipf"),
    ("proxy.relay_ns_p50", "ns", "get_p50_ms", "small_zipf"),
    ("proxy.relay_ns_p99", "ns", "get_p50_ms", "small_zipf"),
    ("proxy.request_ns_p50", "ns", "get_p50_ms", "small_zipf"),
    ("proxy.request_ns_p99", "ns", "get_p50_ms", "small_zipf"),
    (
        "proxy.backend_errors",
        "count",
        "get_fail_ratio",
        "placement_churn",
    ),
    (
        "proxy.pool_failures",
        "count",
        "get_fail_ratio",
        "placement_churn",
    ),
    (
        "proxy.unroutable",
        "count",
        "get_fail_ratio",
        "placement_churn",
    ),
    (
        "origin.get_us_p50",
        "us",
        "get_p50_ms",
        "small_zipf, large_objects",
    ),
    (
        "origin.get_us_p99",
        "us",
        "get_p50_ms",
        "small_zipf, large_objects",
    ),
    (
        "origin.served",
        "count",
        "check: equals the GETs answered 200",
        "all",
    ),
    (
        "store.read_us",
        "us",
        "get_p50_ms, server_cpu_pct",
        "large_objects (flat on small_zipf)",
    ),
    (
        "store.read_mb_s",
        "MB/s",
        "get_p50_ms, server_cpu_pct",
        "large_objects (flat on small_zipf)",
    ),
    ("store.put_us_4k", "us", "ship_mb_s", "placement_churn"),
    ("store.put_us_64k", "us", "ship_mb_s", "placement_churn"),
    ("store.put_us_1m", "us", "ship_mb_s", "placement_churn"),
    (
        "ship.push_ms_4k",
        "ms",
        "ship_mb_s, admin_p50_ms, setup_s",
        "placement_churn; setup_s on all",
    ),
    (
        "ship.push_ms_64k",
        "ms",
        "ship_mb_s, admin_p50_ms, setup_s",
        "placement_churn; setup_s on all",
    ),
    (
        "ship.push_ms_1m",
        "ms",
        "ship_mb_s, admin_p50_ms, setup_s",
        "placement_churn; setup_s on all",
    ),
    (
        "ship.wire_bytes_per_payload_byte",
        "ratio",
        "ship_mb_s",
        "placement_churn",
    ),
    (
        "ship.chunk_retries",
        "count",
        "ship_mb_s",
        "placement_churn",
    ),
    ("ship.resumes", "count", "ship_mb_s", "placement_churn"),
    ("codec.encode_us_4k", "us", "ship_mb_s, setup_s", "all"),
    ("codec.decode_us_4k", "us", "ship_mb_s, setup_s", "all"),
    ("codec.encode_us_16k", "us", "ship_mb_s, setup_s", "all"),
    ("codec.decode_us_16k", "us", "ship_mb_s, setup_s", "all"),
    ("wire.rpc_us", "us", "admin_p50_ms", "placement_churn"),
    ("wire.retries", "count", "admin_p50_ms", "placement_churn"),
    ("wire.timeouts", "count", "admin_p50_ms", "placement_churn"),
    ("urltable.lookup_ns", "ns", "get_p50_ms", "small_zipf"),
    (
        "urltable.lookup_share_pct",
        "%",
        "get_p50_ms",
        "small_zipf (expected under 1%)",
    ),
    (
        "urltable.cache_hit_ratio",
        "ratio",
        "get_p50_ms",
        "small_zipf",
    ),
    (
        "urltable.publish_us",
        "us",
        "admin_p50_ms, get_p99_ms",
        "placement_churn",
    ),
    (
        "urltable.repins",
        "count",
        "admin_p50_ms, get_p99_ms",
        "placement_churn",
    ),
    ("urltable.bytes_per_object", "B", "server_rss_mb", "all"),
    ("dispatch.route_ns", "ns", "get_p50_ms", "small_zipf"),
    (
        "mgmt.publish_ms",
        "ms",
        "admin_p50_ms, admin_p90_ms",
        "placement_churn",
    ),
    (
        "mgmt.replicate_ms",
        "ms",
        "admin_p50_ms, admin_p90_ms",
        "placement_churn",
    ),
    (
        "mgmt.offload_ms",
        "ms",
        "admin_p50_ms, admin_p90_ms",
        "placement_churn",
    ),
    (
        "mgmt.update_ms",
        "ms",
        "admin_p50_ms, admin_p90_ms",
        "placement_churn",
    ),
    (
        "mgmt.delete_ms",
        "ms",
        "admin_p50_ms, admin_p90_ms",
        "placement_churn",
    ),
    ("obs.snapshot_us", "us", "server_cpu_pct", "small_zipf"),
    (
        "gen.late_ms_p99",
        "ms",
        "validity: a late generator makes the run invalid",
        "all",
    ),
    (
        "gen.cpu_pct",
        "%",
        "validity: the generator's own CPU",
        "all",
    ),
    ("e2e.traced_p50_us", "us", "get_p50_ms", "all"),
    ("waterfall.residual_us", "us", "get_p50_ms", "all"),
    ("trace.overhead_us", "us", "get_p50_ms", "all"),
    (
        "get_fail_ratio",
        "ratio",
        "get_fail_ratio",
        "placement_churn",
    ),
    (
        "admin_fail_ratio",
        "ratio",
        "admin_fail_ratio",
        "placement_churn",
    ),
];

/// Spans recorded by the benchmark's own code, relative to one origin.
/// Span ids are 1-based positions; `parent` 0 means a root.
struct Ledger {
    t0: Instant,
    spans: Vec<Span>,
    /// The open span that `time` calls nest under (0: none).
    parent: u64,
}

impl Ledger {
    /// Opens a span the following `time` calls nest under, until `close`.
    fn open(&mut self, name: &'static str, request: u64) {
        let now = crate::elapsed_ns(self.t0);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: 0,
            request,
        });
        self.parent = self.spans.len() as u64;
    }

    fn close(&mut self) {
        let open = self.parent as usize - 1;
        self.spans[open].end_ns = crate::elapsed_ns(self.t0);
        self.parent = 0;
    }

    /// Runs `f` under a span and returns its result and duration in ns.
    fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let start = crate::elapsed_ns(self.t0);
        let out = f();
        let end = crate::elapsed_ns(self.t0);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: self.parent,
            request,
        });
        (out, end - start)
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn hist(snap: &RegistrySnapshot, name: &str) -> (f64, f64) {
    snap.histogram(name)
        .map_or((0.0, 0.0), |h| (h.p50 as f64, h.p99 as f64))
}

/// The probe stream: `n` corpus objects drawn by the workload's
/// popularity, seeded apart from the generator's stream.
fn stream(corpus: &[Object], alpha: f64, seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_5000);
    let popularity = ZipfSampler::new(corpus.len(), alpha);
    (0..n).map(|_| popularity.sample(&mut rng)).collect()
}

/// Takes every per-layer figure of the traced run. `m` holds the
/// open-loop phases already run against `stack`.
pub fn probe(
    stack: &mut Stack,
    corpus: &[Object],
    m: &Measured,
    w: &crate::workload::Workload,
    seed: u64,
    get_fail_ratio: f64,
    admin_fail_ratio: f64,
) -> Vec<Metric> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut ledger = Ledger {
        t0: Instant::now(),
        spans: Vec::new(),
        parent: 0,
    };
    let snap = stack.registry.snapshot();
    let stats = stack.proxy.stats();
    for (name, metric) in [
        ("proxy_parse_ns", "proxy.parse_ns"),
        ("proxy_relay_ns", "proxy.relay_ns"),
        ("proxy_request_ns", "proxy.request_ns"),
    ] {
        let (p50, p99) = hist(&snap, name);
        put(&mut out, format!("{metric}_p50"), p50);
        put(&mut out, format!("{metric}_p99"), p99);
    }
    put(
        &mut out,
        "proxy.backend_errors",
        stats.backend_errors() as f64,
    );
    put(
        &mut out,
        "proxy.pool_failures",
        stats.pool_failures() as f64,
    );
    put(&mut out, "proxy.unroutable", stats.unroutable() as f64);
    put(&mut out, "origin.served", m.served as f64);
    let hits = snap.counter("urltable_cache_hits_total").unwrap_or(0);
    let misses = snap.counter("urltable_cache_misses_total").unwrap_or(0);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    put(&mut out, "urltable.cache_hit_ratio", hit_ratio);
    put(
        &mut out,
        "urltable.repins",
        snap.counter("urltable_repins_total").unwrap_or(0) as f64,
    );
    put(
        &mut out,
        "ship.chunk_retries",
        snap.counter("ship_chunk_retries_total").unwrap_or(0) as f64,
    );
    put(
        &mut out,
        "ship.resumes",
        snap.counter("ship_resumes_total").unwrap_or(0) as f64,
    );

    // Data plane: the same stream via the proxy, straight to the owning
    // origin, and as a store read on the owning node, interleaved.
    let table = stack.controller.table();
    let owner = |obj: &Object| -> NodeId {
        *table
            .lookup_exact(&obj.url)
            .expect("corpus object")
            .locations()
            .iter()
            .min()
            .expect("at least one copy")
    };
    let n = if w.objects < 100 { 200 } else { 2000 };
    let picks = stream(corpus, w.alpha, seed, n);
    let mut via_proxy = HttpClient::connect(stack.proxy.addr()).expect("connect proxy");
    let mut direct: Vec<HttpClient> = stack
        .origins
        .iter()
        .map(|o| HttpClient::connect(o.addr()).expect("connect origin"))
        .collect();
    let (mut proxy_ns, mut origin_ns, mut read_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut read_bytes = 0u64;
    for (i, &rank) in picks.iter().enumerate() {
        let obj = &corpus[rank];
        let node = owner(obj);
        let want = m.checksums[rank];
        let path = obj.url.as_str();
        let req = i as u64 + 1;
        ledger.open("probe.get", req);
        let (resp, t) = ledger.time("proxy.get", req, || via_proxy.get(path));
        check(path, resp, want);
        proxy_ns.push(t);
        let (resp, t) = ledger.time("origin.get", req, || direct[node.index()].get(path));
        check(path, resp, want);
        origin_ns.push(t);
        let (body, t) = ledger.time("store.read", req, || {
            stack.stores[node.index()].read(&obj.url)
        });
        read_bytes += body.expect("owning store holds the object").len() as u64;
        read_ns.push(t);
        ledger.close();
    }
    let (proxy_ns, origin_ns, read_ns) = (sorted(proxy_ns), sorted(origin_ns), sorted(read_ns));
    let proxy_self_us = (pct(&proxy_ns, 0.5) as f64 - pct(&origin_ns, 0.5) as f64) / 1e3;
    put(&mut out, "proxy.self_us", proxy_self_us);
    put(
        &mut out,
        "origin.get_us_p50",
        pct(&origin_ns, 0.5) as f64 / 1e3,
    );
    put(
        &mut out,
        "origin.get_us_p99",
        pct(&origin_ns, 0.99) as f64 / 1e3,
    );
    put(&mut out, "store.read_us", pct(&read_ns, 0.5) as f64 / 1e3);
    let read_s = read_ns.iter().sum::<u64>() as f64 / 1e9;
    put(
        &mut out,
        "store.read_mb_s",
        read_bytes as f64 / 1e6 / read_s,
    );

    // URL table and dispatch on the same stream, in batches.
    let urls: Vec<&UrlPath> = picks.iter().map(|&r| &corpus[r].url).collect();
    let handle = stack.controller.handle();
    let mut reader = handle.reader(ROUTER_CACHE);
    let mut router = LiveRouter::new(&handle, ROUTER_CACHE);
    let (mut lookup, mut route) = (Vec::new(), Vec::new());
    for (b, batch) in urls.chunks(BATCH).enumerate() {
        let (_, t) = ledger.time("urltable.lookup", b as u64, || {
            for url in batch {
                std::hint::black_box(reader.lookup(url));
            }
        });
        lookup.push(t / batch.len() as u64);
        let (_, t) = ledger.time("dispatch.route", b as u64, || {
            for url in batch {
                std::hint::black_box(router.route(url, |_| 0));
            }
        });
        route.push(t / batch.len() as u64);
    }
    let lookup_ns = pct(&sorted(lookup), 0.5) as f64;
    put(&mut out, "urltable.lookup_ns", lookup_ns);
    put(
        &mut out,
        "dispatch.route_ns",
        pct(&sorted(route), 0.5) as f64,
    );
    let e2e_ns = m.gen.windows("ref").1.p50_ns as f64;
    put(
        &mut out,
        "urltable.lookup_share_pct",
        lookup_ns / e2e_ns * 100.0,
    );
    let per_object = table.memory_bytes() as f64 / table.len().max(1) as f64;
    put(&mut out, "urltable.bytes_per_object", per_object);
    let publisher = TablePublisher::new((*table).clone());
    let probe_url = &corpus[corpus.len() - 1].url;
    let spare = (0..NODES as u16)
        .map(NodeId)
        .find(|n| {
            !table
                .lookup_exact(probe_url)
                .expect("corpus object")
                .hosted_on(*n)
        })
        .expect("a node without a copy");
    let mut publish_ns = Vec::new();
    for i in 0..40u64 {
        let (_, t) = ledger.time("urltable.publish", i, || {
            publisher.update(|t| {
                if i % 2 == 0 {
                    t.add_location(probe_url, spare)
                } else {
                    t.remove_location(probe_url, spare)
                }
            })
        });
        publish_ns.push(t);
    }
    put(
        &mut out,
        "urltable.publish_us",
        pct(&sorted(publish_ns), 0.5) as f64 / 1e3,
    );

    // Observability: one registry snapshot, as the recorder takes it.
    let mut snap_ns = Vec::new();
    for i in 0..30 {
        let (_, t) = ledger.time("obs.snapshot", i, || stack.registry.snapshot());
        snap_ns.push(t);
    }
    put(
        &mut out,
        "obs.snapshot_us",
        pct(&sorted(snap_ns), 0.5) as f64 / 1e3,
    );

    // Codec: one chunk request encoded and decoded as the wire does.
    for (kb, enc, dec, reps) in [
        (4usize, "codec.encode_us_4k", "codec.decode_us_4k", 20u64),
        (16, "codec.encode_us_16k", "codec.decode_us_16k", 5),
    ] {
        let data = cpms_store::synthetic_body(ContentId(7), kb as u64 * 1024);
        let request = ShipRequest::Chunk {
            transfer: 1,
            index: 0,
            data: cpms_store::hex_encode(&data),
            checksum: cpms_store::fnv64(&data),
        };
        let (mut e, mut d) = (Vec::new(), Vec::new());
        for i in 0..reps {
            let (text, t) = ledger.time("codec.encode", i, || {
                serde_json::to_string(&request).expect("encode chunk")
            });
            e.push(t);
            let (back, t) = ledger.time("codec.decode", i, || {
                serde_json::from_str::<ShipRequest>(&text).expect("decode chunk")
            });
            assert!(
                matches!(back, ShipRequest::Chunk { .. }),
                "codec round trip"
            );
            d.push(t);
        }
        put(&mut out, enc, pct(&sorted(e), 0.5) as f64 / 1e3);
        put(&mut out, dec, pct(&sorted(d), 0.5) as f64 / 1e3);
    }

    // Wire: the smallest ship request, over the broker's TCP link.
    let broker = stack
        .controller
        .cluster()
        .broker(NodeId(0))
        .expect("node 0 broker");
    let mut rpc = Vec::new();
    for i in 0..200 {
        let (reply, t) = ledger.time("wire.rpc", i, || broker.ship(&ShipRequest::Stat));
        reply.expect("stat over TCP");
        rpc.push(t);
    }
    put(&mut out, "wire.rpc_us", pct(&sorted(rpc), 0.5) as f64 / 1e3);

    // Store and ship by size class, on probe paths cleaned up after.
    let scratch = ContentStore::in_memory(NodeId(99), 64 << 20);
    let shipper = Shipper::new();
    let tx0 = broker.transport_stats().tx_bytes;
    let mut payload = 0u64;
    for (label, size, reps) in [
        ("4k", 4u64 << 10, 20u64),
        ("64k", 64 << 10, 5),
        ("1m", 1 << 20, 2),
    ] {
        let body = cpms_store::synthetic_body(ContentId(9), size);
        let (mut puts, mut pushes) = (Vec::new(), Vec::new());
        for i in 0..reps {
            let url: UrlPath = format!("/stackbench/probe/{label}-{i}")
                .parse()
                .expect("path");
            let (r, t) = ledger.time("store.put", i, || {
                scratch.put(&url, ContentId(9), 0, &body, false)
            });
            r.expect("scratch put");
            puts.push(t);
            let (r, t) = ledger.time("ship.push", i, || {
                shipper.push(broker, &url, ContentId(9), 0, &body, false)
            });
            r.expect("probe push");
            payload += size;
            pushes.push(t);
            broker
                .dispatch(DeleteFile { path: url })
                .expect("remove probe object");
        }
        let put_us = pct(&sorted(puts), 0.5) as f64 / 1e3;
        put(&mut out, format!("store.put_us_{label}"), put_us);
        put(
            &mut out,
            format!("ship.push_ms_{label}"),
            ms(pct(&sorted(pushes), 0.5)),
        );
    }
    let stats = broker.transport_stats();
    let wire_ratio = (stats.tx_bytes - tx0) as f64 / payload as f64;
    put(&mut out, "ship.wire_bytes_per_payload_byte", wire_ratio);
    let (retries, timeouts) = (0..NODES as u16)
        .filter_map(|n| stack.controller.cluster().broker(NodeId(n)))
        .map(|b| b.transport_stats())
        .fold((0, 0), |(r, t), s| (r + s.retries, t + s.timeouts));
    put(&mut out, "wire.retries", retries as f64);
    put(&mut out, "wire.timeouts", timeouts as f64);

    // Management: one of each controller operation, five times over.
    let mut ops: Vec<(&'static str, Vec<u64>)> =
        ["publish", "replicate", "update", "offload", "delete"]
            .into_iter()
            .map(|op| (op, Vec::new()))
            .collect();
    for i in 0..5u64 {
        let url: UrlPath = format!("/stackbench/mgmt/m{i}.html").parse().expect("path");
        let c = &mut stack.controller;
        ledger.open("mgmt.cycle", i);
        let (r, t) = ledger.time("mgmt.publish", i, || {
            c.publish(
                &url,
                ContentId(2_000_000 + i as u32),
                ContentKind::StaticHtml,
                16 << 10,
                Priority::Normal,
                &[NodeId(0)],
            )
        });
        r.expect("probe publish");
        ops[0].1.push(t);
        let (r, t) = ledger.time("mgmt.replicate", i, || c.replicate(&url, NodeId(1)));
        r.expect("probe replicate");
        ops[1].1.push(t);
        let (r, t) = ledger.time("mgmt.update", i, || c.update_content(&url));
        r.expect("probe update");
        ops[2].1.push(t);
        let (r, t) = ledger.time("mgmt.offload", i, || c.offload(&url, NodeId(0)));
        r.expect("probe offload");
        ops[3].1.push(t);
        let (r, t) = ledger.time("mgmt.delete", i, || c.delete(&url));
        r.expect("probe delete");
        ops[4].1.push(t);
        ledger.close();
    }
    for (op, v) in ops {
        put(&mut out, format!("mgmt.{op}_ms"), ms(pct(&sorted(v), 0.5)));
    }

    // Generator validity and the waterfall.
    let (_, reference) = m.gen.windows("ref");
    let (_, plain) = m.gen.windows("plain");
    put(&mut out, "gen.late_ms_p99", ms(reference.late_p99_ns));
    put(&mut out, "gen.cpu_pct", m.gen.cpu_pct);
    let e2e_us = reference.p50_ns as f64 / 1e3;
    let origin_us = pct(&origin_ns, 0.5) as f64 / 1e3;
    let residual_us = e2e_us - proxy_self_us - origin_us;
    let overhead_us = (reference.p50_ns as f64 - plain.p50_ns as f64) / 1e3;
    put(&mut out, "e2e.traced_p50_us", e2e_us);
    put(&mut out, "waterfall.residual_us", residual_us);
    put(&mut out, "trace.overhead_us", overhead_us);
    put(&mut out, "get_fail_ratio", get_fail_ratio);
    put(&mut out, "admin_fail_ratio", admin_fail_ratio);

    let file = crate::bench_dir()
        .join("out")
        .join(format!("layer-spans-{}-{seed}.jsonl", w.name));
    crate::write_spans(&file.to_string_lossy(), &ledger.spans);

    println!(
        "waterfall: e2e p50 {e2e_us:.1} us = proxy self {proxy_self_us:.1} us + origin {origin_us:.1} us + residual {residual_us:.1} us (open-loop queueing and the generator)"
    );
    println!(
        "tracing overhead: e2e p50 with the stack's spans on minus with them off, in alternating half-windows = {overhead_us:.1} us ({e2e_us:.1} us vs {:.1} us); the generator builds its own spans after the last response, so they cost nothing while requests are timed",
        plain.p50_ns as f64 / 1e3
    );
    LEDGER
        .iter()
        .map(|&(name, unit, moves, on)| {
            let value = out
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .1;
            println!("{name:<34} {value:>14.4} {unit:<6} -> {moves} [{on}]");
            Metric { name, value, unit }
        })
        .collect()
}

fn put(out: &mut Vec<(String, f64)>, name: impl Into<String>, value: f64) {
    out.push((name.into(), value));
}

/// A GET the probe sent must come back 200 with the recorded bytes.
fn check(path: &str, resp: std::io::Result<cpms_httpd::http::Response>, want: u64) {
    let resp = resp.unwrap_or_else(|e| panic!("probe GET {path}: {e}"));
    if resp.status != 200 || cpms_store::fnv64(&resp.body) != want {
        eprintln!(
            "stackbench: probe GET {path} answered {} with fnv64 {:016x}, controller recorded {want:016x}",
            resp.status,
            cpms_store::fnv64(&resp.body)
        );
        std::process::exit(3);
    }
}

//! Content-shipping throughput across chunk size × loss rate.
//!
//! Ships a fixed corpus through the chunked, checksummed, resumable
//! ship protocol and reports effective throughput for every cell of a
//! chunk-size × frame-loss matrix — the placement system's equivalent
//! of a TCP bandwidth-delay sweep: small chunks amortize badly but
//! lose little per drop, large chunks are cheap on a clean wire and
//! expensive to retransmit on a dirty one.
//!
//! Run with: `cargo run --release -p cpms-bench --bin shipping`
//! (add `--smoke` for the quick CI pass: every cell must complete with
//! intact checksums, and loss-free 16 KiB chunks must move at least half
//! the bytes per second of loss-free 1 KiB chunks, without rewriting the
//! committed results file).

use cpms_model::{ContentId, NodeId, UrlPath};
use cpms_store::{
    fnv64, synthetic_body, ContentStore, ObjectMeta, Shipper, StoreClient, StoreService,
};
use cpms_wire::{FaultPlan, FaultyTransport, InProcServer, Transport};
use std::sync::Arc;
use std::time::Instant;

const CHUNK_SIZES: &[u32] = &[1_024, 4_096, 16_384];
const LOSS_RATES: &[f64] = &[0.0, 0.10, 0.20];

struct Config {
    objects: u32,
    object_bytes: u64,
    smoke: bool,
}

impl Config {
    fn from_args() -> Self {
        let smoke = std::env::args().any(|a| a == "--smoke");
        if smoke {
            Config {
                objects: 2,
                object_bytes: 24 * 1024,
                smoke,
            }
        } else {
            Config {
                objects: 8,
                object_bytes: 256 * 1024,
                smoke,
            }
        }
    }
}

struct Cell {
    chunk_size: u32,
    loss: f64,
    elapsed_ms: f64,
    mb_per_s: f64,
    resumes: u64,
    chunk_retries: u64,
    bytes_shipped: u64,
}

fn run_cell(config: &Config, chunk_size: u32, loss: f64, seed: u64) -> Cell {
    // A fresh store per cell: re-shipping a committed object would
    // short-circuit and measure nothing.
    let store = Arc::new(ContentStore::in_memory(NodeId(0), 1 << 30));
    let (transport, server) = InProcServer::spawn_named(
        StoreService::new(Arc::clone(&store)),
        &format!("ship-bench-{chunk_size}-{seed}"),
    );
    // Leak the server handle; the process exits when the bench is done.
    std::mem::forget(server);
    let base: Arc<dyn Transport> = Arc::new(transport);
    let wire: Arc<dyn Transport> = if loss > 0.0 {
        Arc::new(FaultyTransport::new(base, FaultPlan::lossy(seed, loss)))
    } else {
        base
    };
    let client = StoreClient::new(wire);
    let shipper = Shipper::new();

    let mut resumes = 0_u64;
    let mut chunk_retries = 0_u64;
    let mut bytes_shipped = 0_u64;
    let start = Instant::now();
    for i in 0..config.objects {
        let body = synthetic_body(ContentId(i), config.object_bytes);
        let path: UrlPath = format!("/bench/{chunk_size}/{i}.bin").parse().unwrap();
        let meta = ObjectMeta {
            content: ContentId(i),
            size: body.len() as u64,
            checksum: fnv64(&body),
            chunk_size,
            version: 0,
        };
        let outcome = shipper
            .push_meta(&client, &path, meta, &body, false)
            .expect("ship must ride out injected loss");
        assert_eq!(outcome.meta.checksum, meta.checksum, "bytes arrived intact");
        resumes += u64::from(outcome.resumes);
        chunk_retries += u64::from(outcome.chunk_retries);
        bytes_shipped += outcome.bytes_sent;
    }
    let elapsed = start.elapsed();
    let payload = config.objects as u64 * config.object_bytes;
    assert_eq!(store.stats().rejected_chunks, 0, "loss is not corruption");
    Cell {
        chunk_size,
        loss,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        mb_per_s: payload as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64(),
        resumes,
        chunk_retries,
        bytes_shipped,
    }
}

fn main() {
    let config = Config::from_args();
    let payload_kib = config.objects as u64 * config.object_bytes / 1024;
    println!(
        "content-shipping throughput — {} objects × {} KiB per cell\n",
        config.objects,
        config.object_bytes / 1024
    );
    println!(
        "{:>10} {:>6} {:>10} {:>9} {:>8} {:>9} {:>12}",
        "chunk", "loss", "MB/s", "ms", "resumes", "retries", "wire-bytes"
    );
    let mut cells: Vec<Cell> = Vec::new();
    for (ci, &chunk_size) in CHUNK_SIZES.iter().enumerate() {
        for (li, &loss) in LOSS_RATES.iter().enumerate() {
            let seed = 0xBE9C_0000 + (ci as u64) * 16 + li as u64;
            let cell = run_cell(&config, chunk_size, loss, seed);
            println!(
                "{:>9}B {:>5.0}% {:>10.1} {:>9.1} {:>8} {:>9} {:>12}",
                cell.chunk_size,
                cell.loss * 100.0,
                cell.mb_per_s,
                cell.elapsed_ms,
                cell.resumes,
                cell.chunk_retries,
                cell.bytes_shipped
            );
            cells.push(cell);
        }
    }

    if config.smoke {
        assert_eq!(cells.len(), CHUNK_SIZES.len() * LOSS_RATES.len());
        assert!(
            cells.iter().all(|c| c.mb_per_s > 0.0),
            "every cell moved bytes"
        );
        // Bigger chunks mean fewer round trips for the same bytes, so on
        // a clean wire they must not ship slower. A codec whose per-frame
        // cost grows faster than the frame inverts this.
        let clean = |chunk_size: u32| {
            cells
                .iter()
                .find(|c| c.chunk_size == chunk_size && c.loss == 0.0)
                .expect("loss-free cell")
                .mb_per_s
        };
        let (small, large) = (clean(CHUNK_SIZES[0]), clean(CHUNK_SIZES[2]));
        assert!(
            large >= 0.5 * small,
            "loss-free throughput fell with chunk size: {small:.1} MB/s at {} B, \
             {large:.1} MB/s at {} B",
            CHUNK_SIZES[0],
            CHUNK_SIZES[2]
        );
        println!("\nsmoke ok: {payload_kib} KiB shipped intact in every cell");
        return;
    }

    let report = serde_json::json!({
        "bench": "shipping",
        "objects": config.objects,
        "object_bytes": config.object_bytes,
        "cells": cells.iter().map(|c| serde_json::json!({
            "chunk_size": c.chunk_size,
            "loss": c.loss,
            "mb_per_s": c.mb_per_s,
            "elapsed_ms": c.elapsed_ms,
            "resumes": c.resumes,
            "chunk_retries": c.chunk_retries,
            "bytes_shipped": c.bytes_shipped,
        })).collect::<Vec<_>>(),
    });
    std::fs::create_dir_all("bench_results").expect("create bench_results dir");
    std::fs::write(
        "bench_results/shipping.json",
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write results");
    eprintln!("wrote bench_results/shipping.json");
}

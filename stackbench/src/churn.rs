//! The `placement_churn` admin stream: a seeded open-loop schedule of
//! controller operations beside the reads. Operations are due at Poisson
//! times at a fixed rate and run one at a time, as an administrator's
//! console would issue them; each is timed from its due time, so a slow
//! operation also charges the ones queued behind it. The schedule is
//! fixed-rate on purpose: back-to-back operations would let a faster
//! control plane issue more of them and slow the reads.
//!
//! Operation kinds are dealt from a shuffled deck and publish sizes from
//! a shuffled set of log-spaced sizes, so every seed issues the same mix
//! in a different order and runs compare across seeds.

use crate::cluster::{Object, NODES};
use cpms_mgmt::Controller;
use cpms_model::{ContentId, ContentKind, NodeId, Priority, UrlPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Replicate, offload and update act on this many of the most popular
/// objects: the content §3.3 replicates and sheds as load moves.
const TARGETS: usize = 2;

/// One deck of operations: every kind, in these proportions.
const DECK: [(&str, usize); 5] = [
    ("publish", 2),
    ("replicate", 8),
    ("offload", 8),
    ("update", 1),
    ("delete", 1),
];

/// Publish sizes: 16 log-spaced steps from 1 KiB to 256 KiB.
const PUBLISH_SIZES: usize = 16;
const PUBLISH_MIN: f64 = 1024.0;
const PUBLISH_MAX: f64 = 262_144.0;

/// Every operation the stream issues, by kind.
pub const OPS: [&str; 5] = ["publish", "replicate", "offload", "update", "delete"];

/// What one admin operation did.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub op: &'static str,
    /// Completion minus due time.
    pub latency_ns: u64,
    /// Completion minus start (the controller's own time).
    pub service_ns: u64,
    /// Bytes the operation committed to content stores.
    pub bytes: u64,
    pub ok: bool,
}

fn shuffled<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Runs the admin stream from `start` for `span`, returning one record
/// per operation.
pub fn run(
    controller: &mut Controller,
    corpus: &[Object],
    seed: u64,
    ops_per_s: f64,
    start: Instant,
    span: Duration,
) -> Vec<OpRecord> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAD_0000);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / ops_per_s;
        if t >= span.as_secs_f64() {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let deck: Vec<&'static str> = DECK
        .iter()
        .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
        .collect();
    let sizes: Vec<u64> = (0..PUBLISH_SIZES)
        .map(|i| {
            let q = i as f64 / (PUBLISH_SIZES - 1) as f64;
            (PUBLISH_MIN.ln() + q * (PUBLISH_MAX.ln() - PUBLISH_MIN.ln())).exp() as u64
        })
        .collect();
    let (mut ops, mut publish_sizes) = (Vec::new(), Vec::new());
    let mut live: VecDeque<UrlPath> = VecDeque::new();
    let mut next_id = 0u32;
    let mut records = Vec::with_capacity(due.len());
    for at in due {
        let due_at = start + at;
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if ops.is_empty() {
            ops = shuffled(&deck, &mut rng);
        }
        let began = Instant::now();
        let table = controller.table();
        let copies = |obj: &Object| {
            table
                .lookup_exact(&obj.url)
                .expect("corpus object")
                .locations()
                .to_vec()
        };
        let mut op = ops.pop().expect("deck refilled");
        if op == "delete" && live.is_empty() {
            op = "publish";
        }
        if op == "replicate" && corpus[..TARGETS].iter().all(|o| copies(o).len() == NODES) {
            op = "offload";
        }
        let (bytes, result) = match op {
            "publish" => {
                if publish_sizes.is_empty() {
                    publish_sizes = shuffled(&sizes, &mut rng);
                }
                let size = publish_sizes.pop().expect("sizes refilled");
                let first = rng.gen_range(0..NODES as u64) as u16;
                let mut nodes = vec![NodeId(first)];
                if rng.gen_bool(0.5) {
                    nodes.push(NodeId((first + 1) % NODES as u16));
                }
                let url: UrlPath = format!("/churn/o{next_id}.bin")
                    .parse()
                    .expect("valid path");
                let result = controller.publish(
                    &url,
                    ContentId(1_000_000 + next_id),
                    ContentKind::StaticHtml,
                    size,
                    Priority::Normal,
                    &nodes,
                );
                next_id += 1;
                if result.is_ok() {
                    live.push_back(url);
                }
                (size * nodes.len() as u64, result)
            }
            "replicate" => {
                // The target with fewer copies gains one on a node that
                // has none, so replicate and offload keep copies bounded.
                let obj = corpus[..TARGETS]
                    .iter()
                    .min_by_key(|o| copies(o).len())
                    .expect("targets exist");
                let held = copies(obj);
                let free: Vec<NodeId> = (0..NODES as u16)
                    .map(NodeId)
                    .filter(|n| !held.contains(n))
                    .collect();
                let target = free[rng.gen_range(0..free.len() as u64) as usize];
                (obj.size, controller.replicate(&obj.url, target))
            }
            "offload" => {
                // The proxy sends an object's reads to its least-loaded
                // copy, the lowest node id among equals: that node is the
                // loaded one, so its copy is the one §3.3 sheds.
                let obj = corpus[..TARGETS]
                    .iter()
                    .max_by_key(|o| copies(o).len())
                    .expect("targets exist");
                let held = copies(obj);
                let serving = *held.iter().min().expect("at least one copy");
                if held.len() > 1 {
                    (0, controller.offload(&obj.url, serving))
                } else {
                    // A single copy moves instead, so the object never
                    // loses its last replica.
                    let target = NodeId((serving.0 + 1) % NODES as u16);
                    let result = controller
                        .replicate(&obj.url, target)
                        .and_then(|()| controller.offload(&obj.url, serving));
                    (obj.size, result)
                }
            }
            "update" => {
                let obj = &corpus[rng.gen_range(0..TARGETS as u64) as usize];
                (0, controller.update_content(&obj.url).map(|_| ()))
            }
            _ => {
                let url = live.pop_front().expect("checked non-empty");
                (0, controller.delete(&url))
            }
        };
        if let Err(e) = &result {
            eprintln!("stackbench: admin {op} failed: {e}");
        }
        let end = Instant::now();
        records.push(OpRecord {
            op,
            latency_ns: crate::nanos(end.duration_since(due_at)),
            service_ns: crate::nanos(end.duration_since(began)),
            bytes: if result.is_ok() { bytes } else { 0 },
            ok: result.is_ok(),
        });
    }
    records
}

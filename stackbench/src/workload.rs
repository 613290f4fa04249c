//! The three traffic mixes and the corpus each one places.
//!
//! Rates are frozen constants, chosen once from the capacity measured at
//! the commit that introduced the benchmark; they are never recomputed
//! per run, so a faster stack shows as lower latency and CPU at the same
//! offered load, and as a higher goodput step.

use crate::cluster::{Object, NODES};
use cpms_model::NodeId;
use cpms_workload::SizeModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a workload sizes its objects.
#[derive(Debug, Clone, Copy)]
pub enum Sizes {
    /// `SizeModel::static_objects`, redrawn above `max` bytes.
    Static { max: u64 },
    /// Evenly spaced quantiles of a log-uniform `[min, max]`.
    LogUniform { min: u64, max: u64 },
}

/// Seed of the fixed stream that draws `Sizes::Static` corpora.
const SIZE_STREAM: u64 = 0x5EED_512E;

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Objects in the corpus. The `small_zipf` corpus is about three times as
    /// large as a proxy worker's 1024-entry router cache, so the URL-table
    /// lookup stays on the hot path for the cache misses.
    pub objects: usize,
    pub sizes: Sizes,
    /// Zipf exponent of object popularity; 0 is uniform.
    pub alpha: f64,
    /// Share of the objects, from the most popular down, placed on two
    /// nodes (§3.3 replicates hot content); the rest have one copy.
    pub hot_share: f64,
    /// Offered GET rate of the measured phase, requests per second.
    pub ref_rps: f64,
    /// Offered rates of the goodput ladder, lowest first; empty where
    /// goodput is not defined (`placement_churn`, whose admin stream runs
    /// only beside the measured phase).
    pub ladder: &'static [f64],
    /// p99 limit a ladder step must meet, in milliseconds.
    pub p99_limit_ms: f64,
    /// Controller operations per second beside the reads (open loop).
    pub admin_ops_per_s: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_zipf",
        objects: 3000,
        sizes: Sizes::Static { max: 16 << 10 },
        alpha: 0.8,
        hot_share: 0.1,
        ref_rps: 3000.0,
        ladder: &[4000.0, 5300.0, 7000.0, 9200.0, 12200.0, 16100.0],
        p99_limit_ms: 10.0,
        admin_ops_per_s: 0.0,
    },
    Workload {
        name: "large_objects",
        objects: 24,
        sizes: Sizes::LogUniform {
            min: 128 << 10,
            max: 1 << 20,
        },
        alpha: 0.0,
        hot_share: 0.25,
        ref_rps: 600.0,
        ladder: &[800.0, 1060.0, 1400.0, 1850.0, 2450.0, 3200.0],
        p99_limit_ms: 50.0,
        admin_ops_per_s: 0.0,
    },
    Workload {
        name: "placement_churn",
        objects: 3000,
        sizes: Sizes::Static { max: 16 << 10 },
        alpha: 0.8,
        hot_share: 0.1,
        ref_rps: 3000.0,
        ladder: &[],
        p99_limit_ms: 10.0,
        admin_ops_per_s: 20.0,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Objects placed on two nodes: ranks `0..hot_count()`.
    fn hot_count(&self) -> usize {
        ((self.objects as f64 * self.hot_share).round() as usize).max(1)
    }

    /// The corpus for `seed`, in popularity-rank order, partitioned
    /// round-robin across the nodes from a seeded offset, hot objects on
    /// two neighbouring nodes.
    ///
    /// Every seed places the same multiset of sizes (drawn from the
    /// workload's model by a fixed stream); the seed decides which object
    /// gets which. The two most popular objects, the ones the churn
    /// stream moves, get the lower- and upper-quartile sizes, so the
    /// control plane's cost does not hinge on two draws.
    pub fn corpus(&self, seed: u64) -> Vec<Object> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4B05);
        let mut sizes: Vec<u64> = match self.sizes {
            Sizes::Static { max } => {
                let model = SizeModel::static_objects();
                let mut fixed = StdRng::seed_from_u64(SIZE_STREAM);
                (0..self.objects)
                    .map(|_| loop {
                        let s = model.sample(&mut fixed);
                        if s <= max {
                            break s;
                        }
                    })
                    .collect()
            }
            Sizes::LogUniform { min, max } => {
                let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
                (0..self.objects)
                    .map(|i| {
                        let q = (i as f64 + 0.5) / self.objects as f64;
                        (lo + q * (hi - lo)).exp() as u64
                    })
                    .collect()
            }
        };
        sizes.sort_unstable();
        let n = sizes.len();
        let upper = sizes.remove(3 * n / 4);
        let lower = sizes.remove(n / 4);
        for i in (1..sizes.len()).rev() {
            let j = rng.gen_range(0..i as u64 + 1) as usize;
            sizes.swap(i, j);
        }
        let top = if rng.gen_bool(0.5) {
            [lower, upper]
        } else {
            [upper, lower]
        };
        sizes.splice(0..0, top);
        let offset = rng.gen_range(0..NODES as u64) as usize;
        let hot = self.hot_count();
        sizes
            .into_iter()
            .enumerate()
            .map(|(rank, size)| {
                let primary = (rank + offset) % NODES;
                let mut nodes = vec![NodeId(primary as u16)];
                if rank < hot {
                    nodes.push(NodeId(((primary + 1) % NODES) as u16));
                }
                Object {
                    url: format!("/{}/d{}/obj{rank}.html", self.name, rank / 100)
                        .parse()
                        .expect("generated path is valid"),
                    id: rank as u32,
                    size,
                    nodes,
                }
            })
            .collect()
    }
}

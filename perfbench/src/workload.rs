//! The workloads: what each one feeds the program, and how every input
//! derives from the run's seed.

use motivo::core::parallel::{split_seed, NAIVE_SHARD_SAMPLES};
use motivo::graph::{generators, Coloring, Graph};
use motivo::table::RecordCodec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Graphlet size of every workload: all of them build levels 2..=5, so
/// every per-level metric exists on every workload.
pub const K: u32 = 5;

pub const NAMES: [&str; 3] = ["count-skewed", "count-ooc", "serve"];

/// Seed streams split off the run seed (`parallel::split_seed`), one per
/// consumer.
pub mod stream {
    pub const RELABEL: u64 = 1;
    pub const NAIVE: u64 = 3;
    pub const AGS: u64 = 4;
    pub const REQUESTS: u64 = 5;
    pub const CHECK: u64 = 6;
    pub const PROBE: u64 = 7;
}

/// Host-graph family. The structure is drawn once from a fixed seed; the
/// run seed relabels its vertices (see [`make_graph`]).
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    BarabasiAlbert { n: u32, m: u32 },
    ErdosRenyi { n: u32, edges: usize },
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    pub codec: RecordCodec,
    /// Build-memory budget: `Some` builds through block storage with
    /// spill and merge, and reopens with `load_urn_external`, so sampling
    /// reads the block files.
    pub build_mem_bytes: Option<usize>,
    /// Samples per naive-estimator call.
    pub naive_samples: u64,
    /// Samples per cold `NaiveEstimates` request.
    pub request_samples: u64,
    /// Requests per connection in the traced run's cold, cached and
    /// pipelined phases: fixed counts, so its cache counters are exact.
    pub traced_requests: [u64; 3],
}

/// Workload size: `Full` is what the benchmark measures; `Tiny` keeps
/// every phase and check but finishes in about a second (self-test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub fn spec(name: &str, scale: Scale) -> Option<Spec> {
    let full = scale == Scale::Full;
    let pick = |f: u32, t: u32| if full { f } else { t };
    let traced_requests = if full {
        [8, 2_000, 4_000]
    } else {
        [4, 50, 100]
    };
    // Eight shards: the server spreads one request over every core, so its
    // round trip averages the cores' speeds. On a shared host those drift
    // apart for seconds at a time; a one-shard request runs on one core and
    // its round trip takes one of two values, with the median between them.
    let request_samples = if full { 8 * NAIVE_SHARD_SAMPLES } else { 200 };
    Some(match name {
        // Hub adjacency lists make the split descent's neighbour sweeps
        // the main sampling cost; levels 3–4 dominate the build.
        "count-skewed" => Spec {
            name: "count-skewed",
            shape: Shape::BarabasiAlbert {
                n: pick(20_000, 800),
                m: 4,
            },
            codec: RecordCodec::Plain,
            build_mem_bytes: None,
            naive_samples: if full { 60_000 } else { 5_000 },
            request_samples,
            traced_requests,
        },
        // Flat degrees keep the descent cheap, so record lookups through
        // table::block (a 16 KB pread, a walk and a decode) and the
        // spill/merge build dominate.
        "count-ooc" => Spec {
            name: "count-ooc",
            shape: Shape::ErdosRenyi {
                n: pick(12_000, 600),
                edges: if full { 48_000 } else { 2_400 },
            },
            codec: RecordCodec::Succinct,
            build_mem_bytes: Some(if full { 128 << 10 } else { 8 << 10 }),
            naive_samples: if full { 20_000 } else { 5_000 },
            request_samples,
            traced_requests,
        },
        // A small urn: build, set-up and estimators are cheap, so most of
        // a round is serving, where the reactor, proto and QueryCache work.
        "serve" => Spec {
            name: "serve",
            shape: Shape::BarabasiAlbert {
                n: pick(6_000, 600),
                m: 3,
            },
            codec: RecordCodec::Plain,
            build_mem_bytes: None,
            naive_samples: if full { 40_000 } else { 5_000 },
            request_samples,
            traced_requests,
        },
        _ => return None,
    })
}

/// Seeds of every workload's graph structure and coloring. Fixed on
/// purpose: on these power-law graphs a new structure seed moves the hubs
/// (maximum degree 222–745 across BA seeds), which moved naive throughput
/// by up to 70% between seeds, and a new coloring seed changes which
/// shapes AGS walks (per-call time 0.12 s or 0.19 s on the same graph).
/// Either would swamp any change the benchmark should detect.
const STRUCTURE_SEED: u64 = 0x6d6f_7469_766f;
pub const COLORING_SEED: u64 = 0x636f_6c6f_7273;

/// The run's host graph: the workload's fixed structure with its vertices
/// relabeled by a permutation drawn from the run seed. The permutation
/// stays within the color classes of the fixed coloring, which colors by
/// vertex id, so every seed gives another graph (other vertex ids,
/// adjacency layout and fingerprint) with the same colored structure.
pub fn make_graph(spec: &Spec, seed: u64) -> Graph {
    let base = match spec.shape {
        Shape::BarabasiAlbert { n, m } => generators::barabasi_albert(n, m, STRUCTURE_SEED),
        Shape::ErdosRenyi { n, edges } => generators::erdos_renyi(n, edges, STRUCTURE_SEED),
    };
    let n = base.num_nodes();
    let coloring = Coloring::uniform(&base, K, COLORING_SEED);
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, stream::RELABEL));
    let mut perm: Vec<u32> = (0..n).collect();
    for color in 0..K as u8 {
        let class: Vec<u32> = (0..n).filter(|&v| coloring.color(v) == color).collect();
        let mut shuffled = class.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for (&from, &to) in class.iter().zip(&shuffled) {
            perm[from as usize] = to;
        }
    }
    let edges: Vec<(u32, u32)> = base
        .edges()
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    Graph::from_edges(n, &edges)
}

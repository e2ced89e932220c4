//! # motivo
//!
//! A from-scratch Rust reproduction of **Motivo** (Bressan, Leucci,
//! Panconesi — *Motivo: fast motif counting via succinct color coding and
//! adaptive sampling*, VLDB 2019): approximate counting of all k-node
//! induced subgraphs ("graphlets" / "motifs") of a host graph, for
//! `k ≤ 16`, via color coding with succinct treelet data structures and
//! adaptive graphlet sampling (AGS).
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration tests.
//!
//! ## The 60-second tour
//!
//! ```
//! use motivo::prelude::*;
//!
//! // 1. A host graph (load your own with motivo::graph::io).
//! let graph = motivo::graph::generators::barabasi_albert(300, 3, 7);
//!
//! // 2. Build-up phase: color the graph, run the treelet DP, get the urn.
//! let urn = build_urn(&graph, &BuildConfig::new(4).seed(1)).unwrap();
//!
//! // 3. Sampling phase: estimate every 4-graphlet count at once, across
//! //    all cores (results are bit-identical at any thread count).
//! let mut registry = GraphletRegistry::new(4);
//! let est = naive_estimates(&urn, &mut registry, 10_000, &SampleConfig::seeded(2));
//! for e in &est.per_graphlet {
//!     println!(
//!         "{:?}: ~{:.0} copies ({:.2}% of all)",
//!         registry.info(e.index).graphlet,
//!         e.count,
//!         100.0 * e.frequency
//!     );
//! }
//!
//! // 4. Rare graphlets? Use AGS instead of naive sampling.
//! let cfg = AgsConfig { max_samples: 5_000, idle_limit: 2_000, ..AgsConfig::default() };
//! let ags_result = ags(&urn, &mut registry, &cfg);
//! assert!(ags_result.estimates.total_count() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`graph`] | CSR host graph, loaders, synthetic generators, colorings |
//! | [`treelet`] | succinct rooted (colored) treelet codec (§3.1) |
//! | [`graphlet`] | packed graphlets, canonical forms, spanning machinery |
//! | [`table`] | the count table: records, storage backends, alias method |
//! | [`core`] | build-up engine, samplers, naive estimator, AGS |
//! | [`exact`] | exact ESU enumeration (ground truth) |
//! | [`baseline`] | the pointer-based CC port the paper compares against |
//! | [`store`] | crash-safe urn repository: journal, LRU cache, queries counted in its metric registry |
//! | [`server`] | TCP query daemon over a store: worker pool, backpressure, wire client, leader/replica replication |
//! | [`obs`] | metrics & tracing: counters, latency histograms, spans, Prometheus text |

pub use cc_baseline as baseline;
pub use motivo_core as core;
pub use motivo_exact as exact;
pub use motivo_graph as graph;
pub use motivo_graphlet as graphlet;
pub use motivo_obs as obs;
pub use motivo_server as server;
pub use motivo_store as store;
pub use motivo_table as table;
pub use motivo_treelet as treelet;

/// The names most programs need.
pub mod prelude {
    pub use crate::core::{
        ags, build_urn, ensemble, load_urn, naive_estimates, save_urn, AgsConfig, AgsResult,
        BuildConfig, BuildError, BuildStats, ClassSummary, ColoringSpec, EnsembleConfig,
        EnsembleResult, Estimates, Estimator, SampleConfig, Sampler, Urn,
    };
    pub use crate::graph::{ColorDistribution, Coloring, Graph};
    pub use crate::graphlet::{Graphlet, GraphletRegistry};
    pub use crate::obs::{Histogram, Registry};
    pub use crate::server::{
        Client, ClientError, Request, Response, ServeOptions, ServeOptionsBuilder, ServeReport,
        Server,
    };
    pub use crate::store::{QueryStats, StoreError, UrnId, UrnStore};
    pub use crate::table::storage::StorageKind;
    pub use crate::table::RecordCodec;
    pub use crate::treelet::{ColorSet, ColoredTreelet, Treelet};
}

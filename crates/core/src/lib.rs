//! # motivo-core
//!
//! The algorithmic heart of the Motivo reproduction (Bressan, Leucci,
//! Panconesi — *Motivo: fast motif counting via succinct color coding and
//! adaptive sampling*, VLDB 2019): the parallel build-up dynamic program
//! over succinct treelet records, the uniform and shape-restricted graphlet
//! samplers with neighbor buffering, the naive estimator, and AGS —
//! adaptive graphlet sampling.
//!
//! ## Quickstart
//!
//! ```
//! use motivo_core::{build_urn, naive_estimates, BuildConfig, SampleConfig};
//! use motivo_graph::generators;
//! use motivo_graphlet::GraphletRegistry;
//!
//! // Count 4-node graphlets in a small preferential-attachment graph.
//! let graph = generators::barabasi_albert(500, 3, 7);
//! let urn = build_urn(&graph, &BuildConfig::new(4).seed(1)).unwrap();
//! let mut registry = GraphletRegistry::new(4);
//! let estimates = naive_estimates(&urn, &mut registry, 50_000, &SampleConfig::seeded(2).threads(2));
//! assert!(estimates.total_count() > 0.0);
//! ```
//!
//! For skewed graphlet distributions, swap the last step for [`ags()`] to
//! get multiplicative accuracy on rare classes too.
//!
//! Every estimator fans out across `threads` workers by cutting the work
//! into logical shards with deterministically split RNG streams
//! ([`parallel`]); for a fixed seed the results are bit-identical at any
//! thread count.

pub mod ags;
pub mod bounds;
pub mod build;
pub mod ensemble;
pub mod error;
pub mod naive;
pub mod parallel;
pub mod persist;
pub mod sample;
pub mod stats;
pub mod tally;
pub mod urn;

pub use ags::{ags, AgsConfig, AgsResult};
pub use build::{build_urn, BuildConfig, BuildStats, ColoringSpec};
pub use ensemble::{ensemble, ClassSummary, EnsembleConfig, EnsembleResult, Estimator};
pub use error::BuildError;
pub use motivo_table::{checksum, RecordCodec};
pub use naive::{estimates_from_tally, naive_estimates, sample_tally, Estimates, GraphletEstimate};
pub use persist::{graph_fingerprint, load_urn, load_urn_external, save_urn};
pub use sample::{SampleConfig, Sampler, SAMPLING_ALLOCS_COUNTER};
pub use tally::SoaTally;
pub use urn::Urn;

//! Naive (uniform-urn) graphlet counting — the sampling strategy of CC,
//! run on motivo's fast urn (§2.2, §5.2).
//!
//! Each sample is a uniform colorful k-treelet copy; the subgraph of `G`
//! induced by its vertices is a graphlet occurrence. With `t` the total
//! number of colorful k-treelets, `σ_i` the spanning trees of graphlet
//! `H_i`, and `χ_i` the number of samples landing on `H_i` out of `S`:
//!
//! ```text
//! ĉ_i (colorful copies) = (χ_i / S) · t / σ_i
//! ĝ_i (all copies)      = ĉ_i / p_k
//! ```
//!
//! Both are unbiased. The expected samples to *witness* `H_i` at all grow
//! as `t/(c_i σ_i)` — the additive-error barrier AGS breaks.

use crate::parallel::{merge_tallies, run_sharded, shard_sizes, split_seed, NAIVE_SHARD_SAMPLES};
use crate::sample::{SampleConfig, Sampler};
use crate::tally::SoaTally;
use crate::urn::Urn;
use motivo_graphlet::{Graphlet, GraphletRegistry};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Estimates for one graphlet class.
#[derive(Clone, Debug)]
pub struct GraphletEstimate {
    /// Dense index in the registry this run used.
    pub index: usize,
    /// Samples that landed on this class.
    pub occurrences: u64,
    /// Estimated colorful copies `ĉ_i`.
    pub colorful: f64,
    /// Estimated total induced copies `ĝ_i = ĉ_i / p_k`.
    pub count: f64,
    /// Estimated relative frequency among all k-graphlet copies.
    pub frequency: f64,
}

/// The result of an estimation run.
#[derive(Clone, Debug)]
pub struct Estimates {
    /// Graphlet size.
    pub k: u32,
    /// Samples taken.
    pub samples: u64,
    /// Wall-clock spent sampling.
    pub elapsed: Duration,
    /// Per-class estimates, indexed like the registry.
    pub per_graphlet: Vec<GraphletEstimate>,
}

impl Estimates {
    /// Estimated total number of induced k-graphlet copies (`+0.0` when
    /// no class was sampled).
    pub fn total_count(&self) -> f64 {
        // Not `sum()`: float `Sum` starts at `-0.0`, so an empty run would
        // report `-0.0`.
        self.per_graphlet.iter().fold(0.0, |acc, e| acc + e.count)
    }

    /// The estimate for a registry index, if that class was seen.
    pub fn get(&self, index: usize) -> Option<&GraphletEstimate> {
        self.per_graphlet.iter().find(|e| e.index == index)
    }

    /// Samples per second achieved.
    pub fn sampling_rate(&self) -> f64 {
        self.samples as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Draws `samples` copies across `cfg.threads` worker threads and tallies
/// canonical graphlet codes. Classification is shard-local (memoized
/// canonicalizer); registry resolution happens afterwards, single-threaded.
///
/// The workload is cut into logical shards of [`NAIVE_SHARD_SAMPLES`]
/// samples; shard `i` runs its own [`Sampler`] on the RNG stream
/// `split_seed(cfg.seed, i)` and shard tallies are merged in ascending
/// shard order. Both the shard layout and the seeds depend only on
/// `(samples, cfg.seed)`, so for a fixed seed the tally is **bit-identical
/// at any thread count** — threads only change wall-clock.
pub fn sample_tally(
    urn: &Urn<'_>,
    samples: u64,
    cfg: &SampleConfig,
) -> (HashMap<u128, u64>, Duration) {
    let start = Instant::now();
    let g = urn.graph();
    let sizes = shard_sizes(samples, NAIVE_SHARD_SAMPLES);
    let shard_hist = cfg.obs.histogram("sample.shard");
    let shard_hist = shard_hist.as_deref();
    let tallies = run_sharded(sizes.len(), cfg.threads, |shard| {
        let shard_start = Instant::now();
        let shard_cfg = SampleConfig {
            seed: split_seed(cfg.seed, shard as u64),
            ..cfg.clone()
        };
        let mut sampler = Sampler::new(urn, shard_cfg);
        // Shard-local arenas: one vertex buffer, one adjacency-row buffer,
        // and a structure-of-arrays tally, all reused across every sample
        // of the shard (no per-sample allocation or canonical-map probing).
        let mut tally = SoaTally::new(urn.k() as u8);
        let mut verts: Vec<u32> = Vec::with_capacity(urn.k() as usize);
        let mut rows: Vec<u16> = Vec::with_capacity(urn.k() as usize);
        for _ in 0..sizes[shard] {
            sampler.sample_copy_into(&mut verts);
            g.induced_rows_into(&verts, &mut rows);
            tally.add(&Graphlet::from_rows(&rows));
        }
        if let Some(hist) = shard_hist {
            hist.record_duration(shard_start.elapsed());
        }
        tally.into_tally()
    });
    (merge_tallies(tallies), start.elapsed())
}

/// Turns a canonical-code tally into per-class estimates.
///
/// Codes are classified in ascending order so that the registry indices a
/// fresh registry assigns — and hence the whole [`Estimates`] value — are a
/// pure function of the tally, not of hash-map iteration order.
pub fn estimates_from_tally(
    urn: &Urn<'_>,
    registry: &mut GraphletRegistry,
    tally: &HashMap<u128, u64>,
    samples: u64,
    elapsed: Duration,
) -> Estimates {
    let t = urn.total_treelets() as f64;
    let p_k = urn.p_colorful();
    let mut sorted: Vec<(u128, u64)> = tally.iter().map(|(&c, &o)| (c, o)).collect();
    sorted.sort_unstable_by_key(|&(c, _)| c);
    let mut per_graphlet = Vec::with_capacity(sorted.len());
    for (code, occ) in sorted {
        let g = Graphlet::from_code(code).expect("valid canonical code");
        let index = registry.classify(&g);
        let sigma = registry.info(index).spanning_trees as f64;
        let colorful = occ as f64 / samples as f64 * t / sigma;
        per_graphlet.push(GraphletEstimate {
            index,
            occurrences: occ,
            colorful,
            count: colorful / p_k,
            frequency: 0.0,
        });
    }
    per_graphlet.sort_unstable_by_key(|e| e.index);
    let total: f64 = per_graphlet.iter().map(|e| e.count).sum();
    if total > 0.0 {
        for e in &mut per_graphlet {
            e.frequency = e.count / total;
        }
    }
    Estimates {
        k: urn.k(),
        samples,
        elapsed,
        per_graphlet,
    }
}

/// End-to-end naive estimation: sample, classify, estimate. Parallelism
/// comes from `cfg.threads` (`0` = all cores); see [`sample_tally`] for the
/// determinism guarantee.
///
/// ```
/// use motivo_core::{build_urn, naive_estimates, BuildConfig, SampleConfig};
/// use motivo_graphlet::GraphletRegistry;
///
/// let g = motivo_graph::generators::complete_graph(6);
/// let urn = build_urn(&g, &BuildConfig::new(3).seed(1)).unwrap();
/// let mut registry = GraphletRegistry::new(3);
/// let est = naive_estimates(&urn, &mut registry, 5_000, &SampleConfig::seeded(2).threads(2));
/// assert_eq!(est.samples, 5_000);
/// assert!(est.total_count() > 0.0); // K6 is all triangles at k = 3
/// ```
pub fn naive_estimates(
    urn: &Urn<'_>,
    registry: &mut GraphletRegistry,
    samples: u64,
    cfg: &SampleConfig,
) -> Estimates {
    let (tally, elapsed) = sample_tally(urn, samples, cfg);
    estimates_from_tally(urn, registry, &tally, samples, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_urn, BuildConfig};
    use motivo_graph::generators;

    /// On K5 at k=3 every 3-subset is a triangle: the estimator must hit
    /// C(5,3) = 10 when averaged over colorings. Colorings that produce an
    /// empty urn legitimately contribute a zero estimate (this keeps the
    /// average exactly unbiased).
    #[test]
    fn triangle_count_on_k5() {
        let g = generators::complete_graph(5);
        let mut registry = GraphletRegistry::new(3);
        let mut acc = 0.0;
        let runs = 100;
        for seed in 0..runs {
            let cfg = BuildConfig {
                threads: 1,
                ..BuildConfig::new(3)
            }
            .seed(seed);
            match build_urn(&g, &cfg) {
                Err(crate::error::BuildError::EmptyUrn) => {} // estimate 0
                Err(e) => panic!("unexpected build error: {e}"),
                Ok(urn) => {
                    let est = naive_estimates(
                        &urn,
                        &mut registry,
                        500,
                        &SampleConfig::seeded(seed + 100),
                    );
                    acc += est.total_count();
                }
            }
        }
        let avg = acc / runs as f64;
        assert!((avg - 10.0).abs() < 1.5, "triangle estimate {avg}, want 10");
    }

    #[test]
    fn zero_samples_total_is_positive_zero() {
        let g = generators::complete_graph(6);
        let urn = build_urn(&g, &BuildConfig::new(3).seed(1)).unwrap();
        let mut registry = GraphletRegistry::new(3);
        let est = naive_estimates(&urn, &mut registry, 0, &SampleConfig::seeded(2));
        assert!(est.per_graphlet.is_empty());
        assert_eq!(est.total_count().to_bits(), 0.0f64.to_bits());
    }

    /// Star graph at k=3: all graphlets are paths (cherries through the
    /// center): C(n-1, 2) of them, and zero triangles.
    #[test]
    fn star_counts_paths_only() {
        let g = generators::star_graph(12);
        let mut registry = GraphletRegistry::new(3);
        let mut acc = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let cfg = BuildConfig {
                threads: 1,
                ..BuildConfig::new(3)
            }
            .seed(seed);
            let urn = build_urn(&g, &cfg).unwrap();
            let est = naive_estimates(&urn, &mut registry, 2_000, &SampleConfig::seeded(seed));
            assert_eq!(est.per_graphlet.len(), 1, "only the path class exists");
            acc += est.total_count();
        }
        let avg = acc / runs as f64;
        let want = 55.0; // C(11, 2)
        assert!(
            (avg - want).abs() < want * 0.15,
            "path estimate {avg}, want {want}"
        );
    }

    /// Frequencies sum to one and per-class counts are consistent.
    #[test]
    fn frequencies_normalize() {
        let g = generators::barabasi_albert(150, 3, 4);
        let cfg = BuildConfig {
            threads: 2,
            ..BuildConfig::new(4)
        }
        .seed(7);
        let urn = build_urn(&g, &cfg).unwrap();
        let mut registry = GraphletRegistry::new(4);
        let est = naive_estimates(
            &urn,
            &mut registry,
            20_000,
            &SampleConfig::seeded(3).threads(2),
        );
        let fsum: f64 = est.per_graphlet.iter().map(|e| e.frequency).sum();
        assert!((fsum - 1.0).abs() < 1e-9);
        assert!(est.total_count() > 0.0);
        assert!(est.sampling_rate() > 0.0);
        let occ_sum: u64 = est.per_graphlet.iter().map(|e| e.occurrences).sum();
        assert_eq!(occ_sum, 20_000);
    }

    /// Seed-split determinism: for a fixed seed, the tally is bit-identical
    /// no matter how many OS threads execute the shards.
    #[test]
    fn threading_is_bit_identical() {
        let g = generators::erdos_renyi(200, 600, 9);
        let cfg = BuildConfig {
            threads: 2,
            ..BuildConfig::new(3)
        }
        .seed(2);
        let urn = build_urn(&g, &cfg).unwrap();
        let tally =
            |threads| sample_tally(&urn, 30_000, &SampleConfig::seeded(5).threads(threads)).0;
        let t1 = tally(1);
        assert_eq!(t1.values().sum::<u64>(), 30_000);
        for threads in [2, 4, 8] {
            assert_eq!(t1, tally(threads), "tally diverged at {threads} threads");
        }
        // A different seed draws a genuinely different sample.
        assert_ne!(t1, sample_tally(&urn, 30_000, &SampleConfig::seeded(6)).0);
    }
}

//! Multi-coloring ensembles — the way motivo is meant to be used.
//!
//! A single coloring is a random projection of the graph: counts are
//! unbiased but carry coloring variance (one hub drawing color 0 moves
//! every treelet rooted there). The paper therefore reports "the average
//! over 10 runs, with whiskers for the 10% and 90% percentiles" (§5), and
//! notes that averaging over γ independent colorings drives the failure
//! probabilities of Theorems 2–3 down exponentially in γ.
//!
//! [`ensemble`] packages that protocol: build `runs` urns under independent
//! colorings, run the chosen estimator on each, and aggregate per-class
//! means and percentile whiskers.

use crate::ags::{ags, AgsConfig};
use crate::build::{build_urn, BuildConfig};
use crate::error::BuildError;
use crate::naive::naive_estimates;
use crate::parallel::{fan_out_width, resolved_threads, run_sharded};
use crate::sample::SampleConfig;
use crate::stats::percentile;
use motivo_graph::Graph;
use motivo_graphlet::{Graphlet, GraphletRegistry};
use motivo_table::StorageKind;
use std::collections::HashMap;
use std::time::Duration;

/// Which estimator each run uses.
#[derive(Clone, Debug)]
pub enum Estimator {
    /// Uniform urn sampling with a fixed sample budget.
    Naive {
        /// Samples per run.
        samples: u64,
    },
    /// Adaptive graphlet sampling.
    Ags(AgsConfig),
    /// The paper's headline protocol: half the runs naive, half AGS.
    Mixed {
        /// Sample budget per run (both halves).
        samples: u64,
        /// Covering threshold for the AGS half.
        c_bar: u64,
    },
}

/// Ensemble configuration.
#[derive(Clone, Debug)]
pub struct EnsembleConfig {
    /// Number of independent colorings (the paper uses 10–20).
    pub runs: u64,
    /// Base RNG seed; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Worker threads (`0` = all cores). Runs execute concurrently across
    /// this many workers; when only one run can be in flight the threads go
    /// to the run's build and sampling instead. Results are identical
    /// either way — the knob only changes wall-clock.
    pub threads: usize,
    /// Estimator per run.
    pub estimator: Estimator,
    /// Build template (`k`, storage, biased coloring, …); its seed is
    /// overridden per run. Block storage under `dir` builds run `r` in
    /// `dir/run-<r>` and removes that directory when the run ends.
    pub build: BuildConfig,
}

impl EnsembleConfig {
    /// A 10-run naive ensemble at graphlet size `k`.
    pub fn naive(k: u32, samples: u64) -> EnsembleConfig {
        EnsembleConfig {
            runs: 10,
            base_seed: 0,
            threads: 0,
            estimator: Estimator::Naive { samples },
            build: BuildConfig::new(k),
        }
    }

    /// A 10-run AGS ensemble at graphlet size `k`.
    pub fn ags(k: u32, max_samples: u64) -> EnsembleConfig {
        EnsembleConfig {
            runs: 10,
            base_seed: 0,
            threads: 0,
            estimator: Estimator::Ags(AgsConfig {
                max_samples,
                ..AgsConfig::default()
            }),
            build: BuildConfig::new(k),
        }
    }
}

/// Aggregated estimates for one graphlet class.
#[derive(Clone, Debug)]
pub struct ClassSummary {
    /// Registry index.
    pub index: usize,
    /// Mean estimated count over all runs (missed runs contribute zero,
    /// keeping the mean unbiased).
    pub mean: f64,
    /// 10th-percentile run estimate (the paper's lower whisker).
    pub p10: f64,
    /// 90th-percentile run estimate (upper whisker).
    pub p90: f64,
    /// Runs in which the class was seen at least once.
    pub seen_in: u64,
    /// Total occurrences across all runs' samples.
    pub occurrences: u64,
    /// Mean relative frequency.
    pub frequency: f64,
}

/// The ensemble result.
pub struct EnsembleResult {
    /// Per-class aggregates, sorted by descending mean count.
    pub classes: Vec<ClassSummary>,
    /// Runs that produced a usable urn.
    pub effective_runs: u64,
    /// Runs skipped because the coloring produced an empty urn.
    pub empty_urns: u64,
    /// Total build wall-clock across runs.
    pub build_time: Duration,
    /// Total sampling wall-clock across runs.
    pub sample_time: Duration,
    /// Total samples across runs.
    pub samples: u64,
}

impl EnsembleResult {
    /// Mean estimated total number of k-graphlet copies.
    pub fn total_count(&self) -> f64 {
        self.classes.iter().map(|c| c.mean).sum()
    }

    /// Summary for a registry index, if seen.
    pub fn get(&self, index: usize) -> Option<&ClassSummary> {
        self.classes.iter().find(|c| c.index == index)
    }
}

/// One run's contribution, produced inside a worker with a run-local
/// registry so runs never contend on the caller's. Class estimates travel
/// as canonical codes; the coordinator re-classifies them in run order.
enum RunOutcome {
    /// The coloring produced an empty urn (a legitimate zero estimate).
    Empty,
    /// The build itself failed.
    Failed(BuildError),
    /// A usable estimate.
    Done {
        /// `(canonical code, estimated count, occurrences)` in ascending
        /// local-index order (deterministic; see `estimates_from_tally`).
        per_class: Vec<(u128, f64, u64)>,
        build: Duration,
        sample: Duration,
        samples: u64,
    },
}

/// Builds and estimates run `r` of the ensemble under `bcfg`.
fn run_once(
    g: &Graph,
    cfg: &EnsembleConfig,
    bcfg: &BuildConfig,
    r: u64,
    inner: usize,
) -> RunOutcome {
    let urn = match build_urn(g, bcfg) {
        Ok(u) => u,
        Err(BuildError::EmptyUrn) => return RunOutcome::Empty,
        Err(e) => return RunOutcome::Failed(e),
    };
    let mut local = GraphletRegistry::new(bcfg.k as u8);
    let sample_cfg = SampleConfig::seeded(cfg.base_seed + 7000 + r).threads(inner);
    let est = match &cfg.estimator {
        Estimator::Naive { samples } => naive_estimates(&urn, &mut local, *samples, &sample_cfg),
        Estimator::Ags(acfg) => {
            let mut acfg = acfg.clone();
            acfg.sample = SampleConfig {
                seed: sample_cfg.seed,
                threads: inner,
                ..acfg.sample
            };
            ags(&urn, &mut local, &acfg).estimates
        }
        Estimator::Mixed { samples, c_bar } => {
            if r.is_multiple_of(2) {
                naive_estimates(&urn, &mut local, *samples, &sample_cfg)
            } else {
                let acfg = AgsConfig {
                    c_bar: *c_bar,
                    max_samples: *samples,
                    sample: sample_cfg,
                    ..AgsConfig::default()
                };
                ags(&urn, &mut local, &acfg).estimates
            }
        }
    };
    let per_class = est
        .per_graphlet
        .iter()
        .map(|e| {
            let code = local.info(e.index).graphlet.code();
            (code, e.count, e.occurrences)
        })
        .collect();
    RunOutcome::Done {
        per_class,
        build: urn.build_stats().total,
        sample: est.elapsed,
        samples: est.samples,
    }
}

/// Runs the full ensemble protocol: the colorings are **independent by
/// construction**, so they are estimated concurrently across
/// `cfg.threads` workers (run `r` is a logical shard; results merge in run
/// order, so output is bit-identical at any thread count). Classes
/// discovered by any run are registered in `registry`; per-run estimates
/// are aggregated per class.
///
/// Returns an error only if *every* run fails to build (e.g. `k` too large
/// for the graph); empty-urn colorings are counted and skipped, each
/// contributing a zero estimate to the means.
///
/// ```
/// use motivo_core::{ensemble, EnsembleConfig};
/// use motivo_graphlet::GraphletRegistry;
///
/// let g = motivo_graph::generators::complete_graph(6);
/// let mut registry = GraphletRegistry::new(3);
/// let cfg = EnsembleConfig { runs: 8, ..EnsembleConfig::naive(3, 1_000) };
/// let res = ensemble(&g, &mut registry, &cfg).unwrap();
/// assert_eq!(res.effective_runs + res.empty_urns, 8);
/// assert!(res.total_count() > 0.0); // ≈ 20 triangles on K6
/// ```
pub fn ensemble(
    g: &Graph,
    registry: &mut GraphletRegistry,
    cfg: &EnsembleConfig,
) -> Result<EnsembleResult, BuildError> {
    assert!(cfg.runs >= 1);
    // Runs are the outer parallelism; the thread budget left over after
    // fanning out across runs goes to each run's build and sampling (e.g.
    // 2 runs on 8 threads → 4 inner threads each). Results do not depend
    // on either knob, only wall-clock does.
    let outer = fan_out_width(cfg.runs as usize, cfg.threads);
    let inner = (resolved_threads(cfg.threads) / outer).max(1);
    let outcomes = run_sharded(cfg.runs as usize, cfg.threads, |shard| {
        let r = shard as u64;
        let mut bcfg = cfg.build.clone();
        bcfg.seed = cfg.base_seed + r;
        bcfg.threads = inner;
        // Concurrent runs must not share level files: each builds in a
        // directory of its own, removed once the run is done with it.
        let run_dir = match &mut bcfg.storage {
            StorageKind::Block { dir, .. } => {
                *dir = dir.join(format!("run-{r}"));
                Some(dir.clone())
            }
            StorageKind::Memory => None,
        };
        let outcome = run_once(g, cfg, &bcfg, r, inner);
        if let Some(dir) = run_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        outcome
    });

    // Coordinator: fold outcomes in run order, classifying codes into the
    // caller's registry (index assignment is therefore deterministic).
    let mut per_run: Vec<HashMap<usize, (f64, u64)>> = Vec::new();
    let mut build_time = Duration::ZERO;
    let mut sample_time = Duration::ZERO;
    let mut samples = 0u64;
    let mut empty_urns = 0u64;
    let mut last_err = None;
    for outcome in outcomes {
        match outcome {
            RunOutcome::Empty => {
                empty_urns += 1;
                per_run.push(HashMap::new());
            }
            RunOutcome::Failed(e) => last_err = Some(e),
            RunOutcome::Done {
                per_class,
                build,
                sample,
                samples: n,
            } => {
                build_time += build;
                sample_time += sample;
                samples += n;
                let run_map: HashMap<usize, (f64, u64)> = per_class
                    .into_iter()
                    .map(|(code, count, occ)| {
                        let graphlet = Graphlet::from_code(code).expect("valid canonical code");
                        (registry.classify(&graphlet), (count, occ))
                    })
                    .collect();
                per_run.push(run_map);
            }
        }
    }
    if per_run.is_empty() {
        return Err(last_err.unwrap_or(BuildError::EmptyUrn));
    }
    // Empty-urn colorings stay in `per_run` as zero contributions (that is
    // what keeps the mean unbiased); `effective_runs` counts the rest.
    let effective_runs = per_run.len() as u64 - empty_urns;

    // Aggregate per class over runs (missing run → 0).
    let mut all_classes: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for run in &per_run {
        all_classes.extend(run.keys().copied());
    }
    let mut classes: Vec<ClassSummary> = all_classes
        .into_iter()
        .map(|index| {
            let values: Vec<f64> = per_run
                .iter()
                .map(|run| run.get(&index).map(|&(c, _)| c).unwrap_or(0.0))
                .collect();
            let occurrences: u64 = per_run
                .iter()
                .filter_map(|run| run.get(&index))
                .map(|&(_, o)| o)
                .sum();
            let seen_in = per_run
                .iter()
                .filter(|run| run.contains_key(&index))
                .count() as u64;
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            ClassSummary {
                index,
                mean,
                p10: percentile(&values, 10.0),
                p90: percentile(&values, 90.0),
                seen_in,
                occurrences,
                frequency: 0.0,
            }
        })
        .collect();
    let total: f64 = classes.iter().map(|c| c.mean).sum();
    if total > 0.0 {
        for c in &mut classes {
            c.frequency = c.mean / total;
        }
    }
    classes.sort_by(|a, b| b.mean.total_cmp(&a.mean));
    Ok(EnsembleResult {
        classes,
        effective_runs,
        empty_urns,
        build_time,
        sample_time,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use motivo_graph::generators;

    #[test]
    fn ensemble_recovers_triangles_on_k6() {
        // K6 at k=3: C(6,3) = 20 triangles exactly.
        let g = generators::complete_graph(6);
        let mut registry = GraphletRegistry::new(3);
        let cfg = EnsembleConfig {
            runs: 30,
            ..EnsembleConfig::naive(3, 2_000)
        };
        let res = ensemble(&g, &mut registry, &cfg).unwrap();
        assert!(res.effective_runs + res.empty_urns == 30);
        let total = res.total_count();
        assert!(
            (total - 20.0).abs() < 3.0,
            "triangle ensemble {total}, want 20"
        );
        // Whiskers bracket the mean.
        let c = &res.classes[0];
        assert!(c.p10 <= c.mean + 1e-9 && c.mean <= c.p90 + 1e-9);
        assert!(c.seen_in > 0 && c.occurrences > 0);
    }

    #[test]
    fn mixed_estimator_runs_both() {
        let g = generators::barabasi_albert(200, 3, 2);
        let mut registry = GraphletRegistry::new(4);
        let cfg = EnsembleConfig {
            runs: 4,
            estimator: Estimator::Mixed {
                samples: 5_000,
                c_bar: 300,
            },
            ..EnsembleConfig::naive(4, 0)
        };
        let res = ensemble(&g, &mut registry, &cfg).unwrap();
        assert!(res.samples <= 4 * 5_000);
        assert!(res.total_count() > 0.0);
        let fsum: f64 = res.classes.iter().map(|c| c.frequency).sum();
        assert!((fsum - 1.0).abs() < 1e-9);
        // Sorted descending by mean.
        for w in res.classes.windows(2) {
            assert!(w[0].mean >= w[1].mean);
        }
    }

    /// AGS ensembles converge on graphs whose copies are vertex-diverse.
    /// (On a single shared hub — e.g. one big star — AGS's adaptive shape
    /// choice correlates with the coloring and the per-shape estimator
    /// inherits a bias the paper's analysis abstracts away by treating
    /// `a_ji = g_i σ_ij / r_j` as exact; see DESIGN.md. That regime is
    /// exercised qualitatively by the yelp experiments instead.)
    #[test]
    fn ags_ensemble_on_flat_graph() {
        let g = generators::erdos_renyi(300, 900, 5);
        let exact = motivo_exact::count_exact(&g, 3);
        let truth = exact.total as f64;
        let mut registry = GraphletRegistry::new(3);
        let cfg = EnsembleConfig {
            runs: 12,
            estimator: Estimator::Ags(AgsConfig {
                c_bar: 500,
                max_samples: 20_000,
                idle_limit: 5_000,
                ..AgsConfig::default()
            }),
            ..EnsembleConfig::naive(3, 0)
        };
        let res = ensemble(&g, &mut registry, &cfg).unwrap();
        let total = res.total_count();
        assert!(
            (total - truth).abs() < truth * 0.15,
            "AGS ensemble total {total:.0}, exact {truth:.0}"
        );
    }

    /// Concurrent runs on block storage build in directories of their
    /// own: the ensemble equals the in-memory one bit for bit, and no run
    /// directory outlives its run.
    #[test]
    fn concurrent_block_runs_match_memory_bit_for_bit() {
        let g = generators::barabasi_albert(800, 3, 7);
        let dir = std::env::temp_dir().join("motivo-ensemble-block-runs");
        std::fs::remove_dir_all(&dir).ok();
        let mem = EnsembleConfig {
            runs: 6,
            base_seed: 1,
            threads: 2,
            ..EnsembleConfig::naive(5, 4_000)
        };
        let block = EnsembleConfig {
            build: mem.build.clone().build_mem_bytes(&dir, 4 * 1024),
            ..mem.clone()
        };
        let mut reg_mem = GraphletRegistry::new(5);
        let mut reg_block = GraphletRegistry::new(5);
        let a = ensemble(&g, &mut reg_mem, &mem).unwrap();
        let b = ensemble(&g, &mut reg_block, &block).unwrap();
        assert_eq!(a.effective_runs, b.effective_runs);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.classes.len(), b.classes.len());
        for (x, y) in a.classes.iter().zip(&b.classes) {
            assert_eq!(
                reg_mem.info(x.index).graphlet.code(),
                reg_block.info(y.index).graphlet.code()
            );
            for (p, q) in [(x.mean, y.mean), (x.p10, y.p10), (x.p90, y.p90)] {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            assert_eq!((x.seen_in, x.occurrences), (y.seen_in, y.occurrences));
        }
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "run directories left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn impossible_build_reports_error() {
        let g = generators::path_graph(3);
        let mut registry = GraphletRegistry::new(8);
        let cfg = EnsembleConfig {
            runs: 2,
            ..EnsembleConfig::naive(8, 100)
        };
        assert!(ensemble(&g, &mut registry, &cfg).is_err());
    }
}

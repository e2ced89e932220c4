//! End-to-end accuracy: the full pipeline (color → build → sample →
//! estimate) against exact ESU ground truth, mirroring the §5.2 protocol
//! (average over colorings, ℓ1 error and per-class count errors).

use motivo::core::stats;
use motivo::prelude::*;
use std::collections::HashMap;

/// Average naive estimates over several colorings and compare with exact
/// counts class by class.
fn run_naive_vs_exact(graph: &Graph, k: u32, colorings: u64, samples: u64) -> (f64, Vec<f64>) {
    let exact = motivo::exact::count_exact(graph, k as u8);
    let mut registry = GraphletRegistry::new(k as u8);
    let truth: HashMap<usize, u64> = exact.by_registry(&mut registry);

    let mut acc: HashMap<usize, f64> = HashMap::new();
    for seed in 0..colorings {
        let urn = match build_urn(graph, &BuildConfig::new(k).seed(seed)) {
            Ok(u) => u,
            Err(BuildError::EmptyUrn) => continue, // contributes zero
            Err(e) => panic!("build failed: {e}"),
        };
        let est = naive_estimates(&urn, &mut registry, samples, &SampleConfig::seeded(seed));
        for e in &est.per_graphlet {
            *acc.entry(e.index).or_insert(0.0) += e.count;
        }
    }
    let est_avg: HashMap<usize, f64> = acc
        .into_iter()
        .map(|(i, c)| (i, c / colorings as f64))
        .collect();

    let total_truth: f64 = truth.values().map(|&c| c as f64).sum();
    let truth_freq: HashMap<usize, f64> = truth
        .iter()
        .map(|(&i, &c)| (i, c as f64 / total_truth))
        .collect();
    let total_est: f64 = est_avg.values().sum();
    let est_freq: HashMap<usize, f64> = est_avg.iter().map(|(&i, &c)| (i, c / total_est)).collect();
    let l1 = stats::l1_error(&est_freq, &truth_freq);

    let truth_f64: HashMap<usize, f64> = truth.iter().map(|(&i, &c)| (i, c as f64)).collect();
    let errors: Vec<f64> = stats::count_errors(&est_avg, &truth_f64)
        .into_iter()
        .map(|(_, e)| e)
        .collect();
    (l1, errors)
}

#[test]
fn ba_graph_k4_l1_below_five_percent() {
    let graph = motivo::graph::generators::barabasi_albert(400, 3, 9);
    let (l1, errors) = run_naive_vs_exact(&graph, 4, 8, 60_000);
    assert!(l1 < 0.05, "ℓ1 error {l1} exceeds the paper's 5% envelope");
    // The frequent classes must all be within ±50%.
    let within =
        stats::fraction_within(&errors.iter().copied().enumerate().collect::<Vec<_>>(), 0.5);
    assert!(within >= 0.75, "only {within} of classes within ±50%");
}

#[test]
fn er_graph_k4_l1_below_five_percent() {
    let graph = motivo::graph::generators::erdos_renyi(500, 1500, 3);
    let (l1, _) = run_naive_vs_exact(&graph, 4, 8, 60_000);
    assert!(l1 < 0.05, "ℓ1 error {l1} exceeds 5%");
}

#[test]
fn k5_total_count_matches_exact() {
    // Calibration: the per-coloring estimate has ~10% relative std at this
    // size, so the coloring average (not the sample count) controls the
    // error; 8 colorings on n=300 lands well inside the 10% bar for the
    // deterministic seeds below, where 6 colorings on n=200 sat at ~1.8σ
    // and passed or failed on RNG-stream luck.
    let graph = motivo::graph::generators::barabasi_albert(300, 3, 2);
    let exact = motivo::exact::count_exact(&graph, 5);
    let mut registry = GraphletRegistry::new(5);
    let mut acc = 0.0;
    let colorings = 8;
    for seed in 0..colorings {
        let urn = match build_urn(&graph, &BuildConfig::new(5).seed(seed)) {
            Ok(u) => u,
            Err(_) => continue,
        };
        let est = naive_estimates(&urn, &mut registry, 40_000, &SampleConfig::seeded(seed));
        acc += est.total_count();
    }
    let avg = acc / colorings as f64;
    let truth = exact.total as f64;
    let rel = (avg - truth).abs() / truth;
    assert!(
        rel < 0.10,
        "total 5-graphlets {avg:.0} vs exact {truth:.0} ({rel:.3})"
    );
}

#[test]
fn ags_accuracy_matches_naive_on_flat_graph() {
    // §5.3: on flat distributions AGS is comparable (slightly worse) —
    // both must land near the exact counts for the dominant classes.
    let graph = motivo::graph::generators::erdos_renyi(400, 1000, 8);
    let k = 4u32;
    let exact = motivo::exact::count_exact(&graph, k as u8);
    let mut registry = GraphletRegistry::new(k as u8);
    let truth = exact.by_registry(&mut registry);
    let (&top_idx, &top_count) = truth.iter().max_by_key(|(_, &c)| c).unwrap();

    let mut naive_acc = 0.0;
    let mut ags_acc = 0.0;
    let colorings = 6;
    for seed in 0..colorings {
        let urn = match build_urn(&graph, &BuildConfig::new(k).seed(seed)) {
            Ok(u) => u,
            Err(_) => continue,
        };
        let naive = naive_estimates(&urn, &mut registry, 30_000, &SampleConfig::seeded(seed));
        naive_acc += naive.get(top_idx).map(|e| e.count).unwrap_or(0.0);
        let res = ags(
            &urn,
            &mut registry,
            &AgsConfig {
                c_bar: 500,
                max_samples: 30_000,
                ..AgsConfig::default()
            },
        );
        ags_acc += res.estimates.get(top_idx).map(|e| e.count).unwrap_or(0.0);
    }
    let truth_f = top_count as f64;
    for (name, acc) in [("naive", naive_acc), ("ags", ags_acc)] {
        let avg = acc / colorings as f64;
        let rel = (avg - truth_f).abs() / truth_f;
        assert!(
            rel < 0.15,
            "{name}: {avg:.0} vs {truth_f:.0} (rel {rel:.3})"
        );
    }
}

#[test]
fn disk_backed_pipeline_matches_memory() {
    let graph = motivo::graph::generators::barabasi_albert(300, 3, 5);
    let dir = std::env::temp_dir().join("motivo-e2e-disk");
    std::fs::remove_dir_all(&dir).ok();
    let mem_cfg = BuildConfig::new(4).seed(3);
    let disk_cfg = BuildConfig::new(4).seed(3).build_mem_bytes(&dir, 0);
    let urn_mem = build_urn(&graph, &mem_cfg).unwrap();
    let urn_disk = build_urn(&graph, &disk_cfg).unwrap();
    assert_eq!(urn_mem.total_treelets(), urn_disk.total_treelets());
    // Same estimates with the same sampling seed. Registry indices depend
    // on discovery order, so compare by canonical code.
    let mut reg_a = GraphletRegistry::new(4);
    let mut reg_b = GraphletRegistry::new(4);
    let a = naive_estimates(
        &urn_mem,
        &mut reg_a,
        20_000,
        &SampleConfig::seeded(1).threads(1),
    );
    let b = naive_estimates(
        &urn_disk,
        &mut reg_b,
        20_000,
        &SampleConfig::seeded(1).threads(1),
    );
    assert_eq!(a.per_graphlet.len(), b.per_graphlet.len());
    let by_code = |est: &Estimates, reg: &GraphletRegistry| -> HashMap<u128, (u64, f64)> {
        est.per_graphlet
            .iter()
            .map(|e| (reg.info(e.index).graphlet.code(), (e.occurrences, e.count)))
            .collect()
    };
    let (ma, mb) = (by_code(&a, &reg_a), by_code(&b, &reg_b));
    for (code, (occ, count)) in ma {
        let (occ_b, count_b) = mb[&code];
        assert_eq!(occ, occ_b);
        assert!((count - count_b).abs() < 1e-6);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The succinct codec changes bytes, never counts: with a fixed seed every
/// estimator (naive, AGS, ensemble) must be **bit-identical** across
/// codecs, while the k=5 table shrinks by at least 40%.
#[test]
fn succinct_codec_is_bit_identical_and_forty_percent_smaller() {
    let graph = motivo::graph::generators::barabasi_albert(600, 4, 7);
    let k = 5u32;
    let mut urns = Vec::new();
    for codec in RecordCodec::ALL {
        let urn = build_urn(&graph, &BuildConfig::new(k).seed(3).codec(codec)).unwrap();
        urns.push(urn);
    }
    let (plain, succ) = (&urns[0], &urns[1]);

    // The urn-level aggregates are exactly equal.
    assert_eq!(plain.total_treelets(), succ.total_treelets());
    assert_eq!(plain.shape_totals(), succ.shape_totals());

    // Acceptance bar: ≥ 40% fewer bytes on a k=5 benchmark graph.
    let (pb, sb) = (
        plain.build_stats().table_bytes,
        succ.build_stats().table_bytes,
    );
    assert!(
        sb * 10 <= pb * 6,
        "succinct table {sb} B must be ≤ 60% of plain {pb} B"
    );

    // Naive estimates: bit-identical per class, multi-threaded.
    let mut reg_p = GraphletRegistry::new(k as u8);
    let mut reg_s = GraphletRegistry::new(k as u8);
    let np = naive_estimates(
        plain,
        &mut reg_p,
        20_000,
        &SampleConfig::seeded(5).threads(2),
    );
    let ns = naive_estimates(
        succ,
        &mut reg_s,
        20_000,
        &SampleConfig::seeded(5).threads(2),
    );
    assert_eq!(np.per_graphlet.len(), ns.per_graphlet.len());
    for (a, b) in np.per_graphlet.iter().zip(&ns.per_graphlet) {
        assert_eq!(reg_p.info(a.index).graphlet, reg_s.info(b.index).graphlet);
        assert_eq!(a.occurrences, b.occurrences);
        assert_eq!(a.count.to_bits(), b.count.to_bits(), "bit-identical counts");
    }

    // AGS: same switches, same estimates, bit for bit.
    let cfg = AgsConfig {
        c_bar: 300,
        max_samples: 10_000,
        sample: SampleConfig::seeded(9).threads(2),
        ..AgsConfig::default()
    };
    let ap = ags(plain, &mut reg_p, &cfg);
    let asucc = ags(succ, &mut reg_s, &cfg);
    assert_eq!(ap.estimates.samples, asucc.estimates.samples);
    for (a, b) in ap
        .estimates
        .per_graphlet
        .iter()
        .zip(&asucc.estimates.per_graphlet)
    {
        assert_eq!(a.occurrences, b.occurrences);
        assert_eq!(a.count.to_bits(), b.count.to_bits());
    }
    drop(urns);

    // Ensemble: full multi-coloring runs agree bit for bit too.
    let mut totals = Vec::new();
    for codec in RecordCodec::ALL {
        let mut registry = GraphletRegistry::new(k as u8);
        let cfg = EnsembleConfig {
            runs: 3,
            base_seed: 11,
            threads: 2,
            estimator: Estimator::Naive { samples: 5_000 },
            build: BuildConfig::new(k).codec(codec),
        };
        let res = ensemble(&graph, &mut registry, &cfg).unwrap();
        totals.push(res.total_count().to_bits());
    }
    assert_eq!(totals[0], totals[1], "ensemble bit-identical across codecs");
}

#[test]
fn biased_coloring_stays_unbiased() {
    // Biased coloring changes p_k but the estimator corrects for it; the
    // averaged estimate must still approach the truth (with more variance).
    let graph = motivo::graph::generators::barabasi_albert(400, 3, 6);
    let k = 4u32;
    let exact = motivo::exact::count_exact(&graph, k as u8);
    let truth = exact.total as f64;
    let lambda = 0.15; // < 1/k = 0.25
    let mut registry = GraphletRegistry::new(k as u8);
    let mut acc = 0.0;
    let colorings = 12;
    for seed in 0..colorings {
        let cfg = BuildConfig::new(k).seed(seed).biased(lambda);
        match build_urn(&graph, &cfg) {
            Ok(urn) => {
                let est = naive_estimates(&urn, &mut registry, 20_000, &SampleConfig::seeded(seed));
                acc += est.total_count();
            }
            Err(BuildError::EmptyUrn) => {}
            Err(e) => panic!("{e}"),
        }
    }
    let avg = acc / colorings as f64;
    let rel = (avg - truth).abs() / truth;
    assert!(
        rel < 0.25,
        "biased estimate {avg:.0} vs {truth:.0} (rel {rel:.3})"
    );
}

#[test]
fn biased_coloring_shrinks_the_table() {
    let graph = motivo::graph::generators::barabasi_albert(2_000, 4, 1);
    let k = 5u32;
    let uniform = build_urn(&graph, &BuildConfig::new(k).seed(2)).unwrap();
    let biased = build_urn(&graph, &BuildConfig::new(k).seed(2).biased(0.05)).unwrap();
    let (ub, bb) = (
        uniform.build_stats().table_bytes,
        biased.build_stats().table_bytes,
    );
    assert!(
        bb * 2 < ub,
        "biased table ({bb} B) should be well under half the uniform table ({ub} B)"
    );
}

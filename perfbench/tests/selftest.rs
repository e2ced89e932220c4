//! Seeded determinism: every workload, at a tiny size, run twice with one
//! seed, repeats every count the benchmark calls exact; a second seed
//! changes the graph.

use motivo_perfbench::workload::{self, Scale};
use motivo_perfbench::{run, Options, Report};
use std::path::PathBuf;

/// Per-layer counts that are fixed for a given seed.
const EXACT: [&str; 10] = [
    "build.merge_ops",
    "build.records",
    "table.spill_runs",
    "tally.distinct_raw",
    "ags.samples",
    "ags.switches",
    "ags.covered",
    "ags.classes",
    "server.cache_hit_ratio",
    "store.urn_cache_hits",
];

fn run_tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let opts = Options {
        workload: workload.to_string(),
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{workload}-{trace}")),
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(report.correct(), "{workload}: {:?}", report.failures);
    report
}

#[test]
fn one_seed_repeats_every_exact_count() {
    for w in workload::NAMES {
        let (a, b) = (run_tiny(w, 7, true), run_tiny(w, 7, true));
        for name in EXACT {
            let value = a.get(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!(Some(value), b.get(name), "{w}: {name}");
        }
        let (a, b) = (run_tiny(w, 7, false), run_tiny(w, 7, false));
        assert_eq!(a.get("table_mb"), b.get("table_mb"), "{w}: table_mb");
        assert!(a.get("table_mb").is_some_and(|mb| mb > 0.0), "{w}");
    }
}

#[test]
fn the_budgeted_workload_spills() {
    let r = run_tiny("count-ooc", 3, true);
    assert!(
        r.get("table.spill_runs").is_some_and(|n| n >= 2.0),
        "{:?}",
        r.get("table.spill_runs")
    );
}

#[test]
fn another_seed_changes_the_graph() {
    for w in workload::NAMES {
        let spec = workload::spec(w, Scale::Tiny).expect("known workload");
        let fp = |seed| motivo::core::graph_fingerprint(&workload::make_graph(&spec, seed));
        assert_eq!(fp(1), fp(1), "{w}");
        assert_ne!(fp(1), fp(2), "{w}");
    }
}

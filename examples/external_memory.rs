//! Out-of-core build + urn persistence: build a count table that never
//! fully resides in RAM, persist it, and reopen it in (simulated) another
//! process — the §3.1/§3.3 external-memory workflow. Each level is built
//! through a memtable capped at a byte budget: when the budget fills, the
//! memtable is sorted and spilled to a run file, and sealing the level
//! merges the runs into one sorted block file.
//!
//! ```sh
//! cargo run --release --example external_memory
//! ```

use motivo::prelude::*;

fn main() {
    let graph = motivo::graph::generators::barabasi_albert(20_000, 4, 3);
    let k = 5;
    let dir = std::env::temp_dir().join("motivo-example-external");
    std::fs::remove_dir_all(&dir).ok();

    // Build block levels in `dir` under a 256 KiB memtable budget per
    // level: completed records leave the builder at once, and a level
    // holds at most the budget in RAM before spilling a sorted run.
    let budget = 256 << 10;
    let cfg = BuildConfig::new(k).seed(5).build_mem_bytes(&dir, budget);
    let urn = build_urn(&graph, &cfg).expect("build");
    let st = urn.build_stats();
    println!(
        "block build: {:?}, {} records, {:.1} MiB on disk across {} levels",
        st.total,
        st.records,
        st.table_bytes as f64 / (1 << 20) as f64,
        k
    );
    println!(
        "memtable budget {} KiB: {} spill runs, peak memtable {:.1} KiB",
        budget >> 10,
        st.spill_runs,
        st.peak_mem_bytes as f64 / 1024.0
    );
    for entry in std::fs::read_dir(&dir).unwrap() {
        let e = entry.unwrap();
        println!(
            "  {:>12} B  {}",
            e.metadata().unwrap().len(),
            e.file_name().to_string_lossy()
        );
    }

    // Persist the full urn. Every level file is already sealed in `dir`,
    // so this writes only the coloring and the metadata.
    motivo::core::save_urn(&urn, &dir).expect("persist");
    drop(urn);

    // "Another process": reopen and sample. `load_urn` preloads into RAM;
    // `load_urn_external` would keep serving records from the files.
    let urn = motivo::core::load_urn(&graph, &dir).expect("reload");
    let mut registry = GraphletRegistry::new(k as u8);
    let est = naive_estimates(&urn, &mut registry, 100_000, &SampleConfig::seeded(2));
    println!(
        "\nreloaded urn: {} colorful treelets; sampled {} copies at {:.0}/s",
        urn.total_treelets(),
        est.samples,
        est.sampling_rate()
    );
    let mut rows = est.per_graphlet.clone();
    rows.sort_by(|a, b| b.frequency.partial_cmp(&a.frequency).unwrap());
    for e in rows.iter().take(5) {
        println!(
            "  {:>12}  ~{:.3e} copies  ({:.3}%)",
            motivo::graphlet::name(&registry.info(e.index).graphlet),
            e.count,
            100.0 * e.frequency
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! A long-lived motif-query service over the urn store: build urns for two
//! graphs once, then serve interleaved queries from the LRU cache —
//! reopening the store afterwards to show nothing gets rebuilt.
//!
//! ```sh
//! cargo run --release --example store_service
//! ```

use motivo::core::{ags, naive_estimates, AgsConfig, BuildConfig, SampleConfig};
use motivo::graphlet::{name, GraphletRegistry};
use motivo::store::UrnStore;

fn main() {
    let dir = std::env::temp_dir().join("motivo-store-service-example");
    std::fs::remove_dir_all(&dir).ok();

    // Two tenants: a social-like graph and a flat random graph.
    let social = motivo::graph::generators::barabasi_albert(3_000, 4, 42);
    let flat = motivo::graph::generators::erdos_renyi(3_000, 9_000, 7);
    let k = 5;

    let (social_id, flat_id) = {
        let store = UrnStore::open(&dir).expect("open store");
        // Enqueue both builds on the background worker, then block on each.
        let social_build = store
            .build_or_get(&social, &BuildConfig::new(k).seed(1))
            .expect("enqueue social");
        let flat_build = store
            .build_or_get(&flat, &BuildConfig::new(k).seed(2))
            .expect("enqueue flat");
        println!(
            "enqueued {} and {} (worker builds while we wait)",
            social_build.id(),
            flat_build.id()
        );
        let social_urn = social_build.wait().expect("social build");
        let flat_urn = flat_build.wait().expect("flat build");
        println!(
            "built: social {} treelets, flat {} treelets",
            social_urn.urn().total_treelets(),
            flat_urn.urn().total_treelets()
        );

        // A second request for the same (graph, config) is a no-op reuse.
        let again = store
            .build_or_get(&social, &BuildConfig::new(k).seed(1))
            .expect("re-request");
        assert_eq!(again.id(), social_build.id());
        println!("re-request deduplicated onto {}", again.id());
        (social_build.id(), flat_build.id())
    };

    // Fresh instance, as a restarted service would see it: urns come back
    // from disk, no rebuild.
    let store = UrnStore::open(&dir).expect("reopen store");
    println!(
        "\nreopened store: {} urns, {} graphs on disk",
        store.list().len(),
        store.graphs().len()
    );

    let mut social_reg = GraphletRegistry::new(k as u8);
    let mut flat_reg = GraphletRegistry::new(k as u8);

    // Interleaved traffic: the first query per urn loads from disk (miss),
    // the rest are served from the cache (hits).
    for round in 0..3u64 {
        for (label, id, reg) in [
            ("social", social_id, &mut social_reg),
            ("flat", flat_id, &mut flat_reg),
        ] {
            let cfg = SampleConfig::seeded(round + 10);
            let est = store
                .query(id, |urn| naive_estimates(urn.urn(), reg, 50_000, &cfg))
                .expect("query");
            println!(
                "round {round} {label:>6} ({id}): total ~{:.3e} from {} samples",
                est.total_count(),
                est.samples
            );
        }
    }

    // Rare-motif traffic goes through AGS on the same cached urns.
    let cfg = AgsConfig {
        max_samples: 50_000,
        ..AgsConfig::default()
    };
    let ags = store
        .query(social_id, |urn| ags(urn.urn(), &mut social_reg, &cfg))
        .expect("ags query");
    let rare = ags
        .estimates
        .per_graphlet
        .iter()
        .filter(|e| e.count > 0.0)
        .min_by(|a, b| a.count.total_cmp(&b.count));
    if let Some(e) = rare {
        println!(
            "\nAGS rarest social motif: {} (~{:.1} copies, {} covered classes)",
            name(&social_reg.info(e.index).graphlet),
            e.count,
            ags.covered
        );
    }

    // Concurrent clients: each query bumps atomic registry handles, so
    // queries run in parallel without serializing on the scoreboard, and the
    // seed-split sampler makes every client's answer reproducible.
    let before = store.total_query_stats().queries;
    crossbeam::thread::scope(|scope| {
        for client in 0..4u64 {
            let store = &store;
            scope.spawn(move |_| {
                let mut reg = GraphletRegistry::new(k as u8);
                let id = if client % 2 == 0 { social_id } else { flat_id };
                let cfg = SampleConfig::seeded(client);
                store
                    .query(id, |urn| naive_estimates(urn.urn(), &mut reg, 20_000, &cfg))
                    .expect("concurrent query");
            });
        }
    })
    .expect("client scope");
    println!(
        "\n4 concurrent clients served ({} → {} queries recorded, none lost)",
        before,
        store.total_query_stats().queries
    );

    // The service scoreboard: hits vs misses and per-urn latency, read
    // back from the store's registry.
    for (label, id) in [("social", social_id), ("flat", flat_id)] {
        let qs = store.query_stats(id);
        println!(
            "{label:>6} {id}: {} queries, {} hits / {} misses, mean latency {:?}",
            qs.queries,
            qs.cache_hits,
            qs.cache_misses,
            qs.mean_latency()
        );
    }
    let cache = store.cache_stats();
    println!(
        "cache: {} resident urns, {:.1} MiB resident, {} evictions",
        cache.resident_urns,
        cache.resident_bytes as f64 / (1 << 20) as f64,
        cache.evictions
    );

    std::fs::remove_dir_all(&dir).ok();
}

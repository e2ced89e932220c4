//! Integration tests of the urn store: end-to-end round-trips across
//! process-like boundaries (fresh `UrnStore` instances over one
//! directory), crash recovery from a torn journal, and LRU cache
//! behaviour under a byte budget.

use motivo::core::{BuildConfig, SampleConfig};
use motivo::graphlet::GraphletRegistry;
use motivo::store::{
    BuildKey, BuildStatus, Journal, ManifestRecord, StoreOptions, StoreQuery, UrnId, UrnStore,
};
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("motivo-store-itest-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A level that cannot be written fails the store's background build:
/// the urn ends `Failed`, its directory is removed, and no waiter hangs.
/// A directory planted where level 3's block file is first written is
/// the fault.
#[test]
fn failed_level_write_fails_the_build_and_removes_its_dir() {
    let dir = workdir("write-fault");
    let g = motivo::graph::generators::barabasi_albert(200, 3, 5);
    let store = UrnStore::open(&dir).unwrap();
    let urn_dir = dir.join("urns").join(UrnId(0).dir_name());
    std::fs::create_dir_all(urn_dir.join("level-3.mtvb.new")).unwrap();
    let handle = store
        .build_or_get(&g, &BuildConfig::new(4).seed(1))
        .unwrap();
    assert_eq!(handle.id(), UrnId(0));
    assert!(handle.wait().is_err(), "a failed build must not load");
    assert_eq!(store.meta(UrnId(0)).unwrap().status, BuildStatus::Failed);
    assert!(!urn_dir.exists(), "the failed urn's directory must go");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn roundtrip_two_graphs_across_reopen() {
    let dir = workdir("roundtrip");
    let ba = motivo::graph::generators::barabasi_albert(250, 3, 11);
    let er = motivo::graph::generators::erdos_renyi(250, 700, 12);

    // First instance: build both urns.
    let (ba_id, er_id, ba_total, er_total) = {
        let store = UrnStore::open(&dir).unwrap();
        let ba_handle = store
            .build_or_get(&ba, &BuildConfig::new(4).seed(3))
            .unwrap();
        let er_handle = store
            .build_or_get(&er, &BuildConfig::new(4).seed(4))
            .unwrap();
        let ba_urn = ba_handle.wait().unwrap();
        let er_urn = er_handle.wait().unwrap();
        // Baseline estimates straight from the first instance.
        let mut reg = GraphletRegistry::new(4);
        let q = StoreQuery::new(&store);
        let a = q
            .naive_estimates(
                ba_handle.id(),
                &mut reg,
                20_000,
                &SampleConfig::seeded(9).threads(1),
            )
            .unwrap();
        (
            ba_handle.id(),
            er_handle.id(),
            (ba_urn.urn().total_treelets(), a.total_count()),
            er_urn.urn().total_treelets(),
        )
    };

    // Fresh instance over the same directory: everything is served from
    // disk, nothing rebuilds.
    let store = UrnStore::open(&dir).unwrap();
    assert_eq!(store.recovery_report().interrupted_builds, 0);
    let urns = store.list();
    assert_eq!(urns.len(), 2);
    assert!(urns.iter().all(|m| m.status == BuildStatus::Built));

    // Identical build requests resolve instantly to the stored urns —
    // poll() is Some(Ok) without ever touching the build worker.
    let again = store
        .build_or_get(&ba, &BuildConfig::new(4).seed(3))
        .unwrap();
    assert_eq!(again.id(), ba_id);
    assert!(matches!(again.poll(), Some(Ok(id)) if id == ba_id));

    // Queries serve from each urn; the BA urn reproduces the exact same
    // estimate under the same sampling seed (proof it is the same urn).
    let q = StoreQuery::new(&store);
    let mut reg_ba = GraphletRegistry::new(4);
    let mut reg_er = GraphletRegistry::new(4);
    let a = q
        .naive_estimates(
            ba_id,
            &mut reg_ba,
            20_000,
            &SampleConfig::seeded(9).threads(1),
        )
        .unwrap();
    let b = q
        .naive_estimates(
            er_id,
            &mut reg_er,
            20_000,
            &SampleConfig::seeded(9).threads(1),
        )
        .unwrap();
    assert!((a.total_count() - ba_total.1).abs() < 1e-9);
    assert!(b.total_count() > 0.0);
    assert_eq!(store.get(ba_id).unwrap().urn().total_treelets(), ba_total.0);
    assert_eq!(store.get(er_id).unwrap().urn().total_treelets(), er_total);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_truncated_mid_entry_recovers_and_rebuilds() {
    let dir = workdir("crash");
    let graph = motivo::graph::generators::barabasi_albert(200, 3, 5);

    // A healthy store with one finished urn.
    {
        let store = UrnStore::open(&dir).unwrap();
        let h = store
            .build_or_get(&graph, &BuildConfig::new(4).seed(1))
            .unwrap();
        h.wait().unwrap();
    }

    // Simulate a crash mid-build: journal a BuildStarted with no outcome,
    // leave a half-written urn directory behind, and tear the journal tail
    // mid-frame as an interrupted append would.
    let crashed = UrnId(1);
    {
        let mut journal = Journal::open(dir.join("journal.log")).unwrap().journal;
        let key = BuildKey {
            fingerprint: motivo::core::graph_fingerprint(&graph),
            k: 5,
            seed: 2,
            lambda_bits: None,
            zero_rooting: true,
            codec: motivo::table::RecordCodec::Plain,
        };
        journal
            .append(&ManifestRecord::BuildStarted { id: crashed, key }.encode())
            .unwrap();
    }
    let partial_dir = dir.join("urns").join(crashed.dir_name());
    std::fs::create_dir_all(&partial_dir).unwrap();
    std::fs::write(
        partial_dir.join("level-2.mtvb.run0"),
        b"half-written garbage",
    )
    .unwrap();
    // A frame interrupted mid-append: only 13 of its bytes hit the disk.
    motivo::store::testing::torn_journal_append(
        &dir.join("journal.log"),
        b"a record that never fully landed",
        13,
    )
    .unwrap();

    // Recovery: torn tail dropped, interrupted build failed and swept.
    let store = UrnStore::open(&dir).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.interrupted_builds, 1);
    assert!(report.torn_journal_bytes > 0);
    assert!(!partial_dir.exists(), "partial urn directory must be swept");
    let urns = store.list();
    assert_eq!(
        urns.iter()
            .filter(|m| m.status == BuildStatus::Built)
            .count(),
        1
    );
    assert_eq!(
        urns.iter().find(|m| m.id == crashed).unwrap().status,
        BuildStatus::Failed
    );

    // The store keeps working: the interrupted build can be redone under a
    // fresh id, and queries serve from it.
    let cfg = BuildConfig::new(5).seed(2);
    let h = store.build_or_get(&graph, &cfg).unwrap();
    assert_ne!(h.id(), crashed, "failed ids are not resurrected");
    let urn = h.wait().unwrap();
    assert_eq!(urn.urn().k(), 5);

    // gc compacts the failure away; a reopen sees a clean manifest.
    store.gc().unwrap();
    drop(store);
    let store = UrnStore::open(&dir).unwrap();
    assert!(store.list().iter().all(|m| m.status == BuildStatus::Built));
    assert_eq!(store.recovery_report().torn_journal_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lru_cache_respects_byte_budget_and_counts_hits() {
    let dir = workdir("cache");
    // Three small graphs → three urns of similar size.
    let graphs: Vec<_> = (0..3)
        .map(|i| motivo::graph::generators::barabasi_albert(150, 3, 20 + i))
        .collect();

    let ids: Vec<UrnId> = {
        let store = UrnStore::open(&dir).unwrap();
        let handles: Vec<_> = graphs
            .iter()
            .map(|g| store.build_or_get(g, &BuildConfig::new(4).seed(6)).unwrap())
            .collect();
        handles.iter().for_each(|h| {
            h.wait().unwrap();
        });
        handles.iter().map(|h| h.id()).collect()
    };

    // Reopen with a budget that fits one urn (urn ≈ table + graph bytes).
    let store = UrnStore::open(&dir).unwrap();
    let one = store.get(ids[0]).unwrap().bytes();
    drop(store);
    let store = UrnStore::open_with(
        &dir,
        StoreOptions {
            cache_bytes: one + one / 2,
        },
    )
    .unwrap();
    let q = StoreQuery::new(&store);
    let mut regs: Vec<GraphletRegistry> = (0..3).map(|_| GraphletRegistry::new(4)).collect();
    let mut run = |i: usize, q: &StoreQuery<'_>| {
        q.naive_estimates(
            ids[i],
            &mut regs[i],
            2_000,
            &SampleConfig::seeded(1).threads(1),
        )
        .unwrap();
    };

    run(0, &q); // miss (cold)
    run(0, &q); // hit
    run(0, &q); // hit
    run(1, &q); // miss; evicts urn 0 (budget fits one)
    run(0, &q); // miss again (was evicted)
    run(2, &q); // miss; evicts
    let s0 = q.stats(ids[0]);
    assert_eq!((s0.queries, s0.cache_hits, s0.cache_misses), (4, 2, 2));
    let s1 = q.stats(ids[1]);
    assert_eq!((s1.cache_hits, s1.cache_misses), (0, 1));
    let total = q.total_stats();
    assert_eq!(total.queries, 6);
    assert_eq!(total.cache_hits + total.cache_misses, 6);
    assert!(total.mean_latency() > std::time::Duration::ZERO);

    let cache = store.cache_stats();
    assert!(
        cache.evictions >= 2,
        "expected evictions under budget, got {cache:?}"
    );
    assert!(cache.resident_bytes <= one + one / 2);
    assert_eq!(cache.resident_urns, 1);

    // Explicit evict drops the resident urn without touching disk.
    assert!(store.evict(ids[2]));
    assert_eq!(store.cache_stats().resident_urns, 0);
    assert!(store.get(ids[2]).is_ok());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remove_deletes_urn_and_unknown_ids_error() {
    let dir = workdir("remove");
    let graph = motivo::graph::generators::barabasi_albert(120, 3, 2);
    let store = UrnStore::open(&dir).unwrap();
    let h = store
        .build_or_get(&graph, &BuildConfig::new(3).seed(1))
        .unwrap();
    h.wait().unwrap();
    let urn_dir = dir.join("urns").join(h.id().dir_name());
    assert!(urn_dir.exists());
    store.remove(h.id()).unwrap();
    assert!(!urn_dir.exists());
    assert!(store.get(h.id()).is_err());
    assert!(store.remove(h.id()).is_err());
    assert!(store.get(UrnId(999)).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// Hammer one `StoreQuery` from many threads: every query must be counted
/// exactly once, hits + misses must add up, and the per-urn cells must sum
/// to the totals — no lost updates now that the stats are sharded atomics
/// instead of one global mutex.
#[test]
fn concurrent_queries_lose_no_stat_updates() {
    let dir = workdir("stress");
    let g = motivo::graph::generators::barabasi_albert(200, 3, 21);
    let store = UrnStore::open(&dir).unwrap();
    let ids: Vec<UrnId> = (0..2)
        .map(|seed| {
            let h = store
                .build_or_get(&g, &BuildConfig::new(3).seed(seed))
                .unwrap();
            h.wait().unwrap();
            h.id()
        })
        .collect();

    let query = StoreQuery::new(&store);
    let workers = 8;
    let per_worker = 25u64;
    crossbeam::thread::scope(|scope| {
        for w in 0..workers {
            let query = &query;
            let ids = &ids;
            scope.spawn(move |_| {
                let mut registry = GraphletRegistry::new(3);
                for i in 0..per_worker {
                    let id = ids[((w + i) % 2) as usize];
                    query
                        .naive_estimates(id, &mut registry, 200, &SampleConfig::seeded(w + i))
                        .unwrap();
                }
            });
        }
    })
    .unwrap();

    let total = query.total_stats();
    assert_eq!(total.queries, workers * per_worker);
    assert_eq!(total.cache_hits + total.cache_misses, total.queries);
    let per_urn: Vec<_> = ids.iter().map(|&id| query.stats(id)).collect();
    assert_eq!(
        per_urn.iter().map(|s| s.queries).sum::<u64>(),
        total.queries
    );
    assert_eq!(
        per_urn.iter().map(|s| s.cache_hits).sum::<u64>(),
        total.cache_hits
    );
    assert_eq!(
        per_urn
            .iter()
            .map(|s| s.total_latency)
            .sum::<std::time::Duration>(),
        total.total_latency
    );
    // Both urns fit in the default cache: after the cold loads everything
    // is a hit, so misses stay bounded by the racing cold loads.
    assert!(total.cache_misses <= workers * 2);
    assert!(total.mean_latency() > std::time::Duration::ZERO);
}

/// Plain and succinct builds of one graph are distinct urns (the codec is
/// part of the build key), both survive a reopen with their codec intact,
/// and the succinct one budgets fewer LRU bytes for identical counts.
#[test]
fn codec_is_part_of_the_build_key_and_survives_reopen() {
    use motivo::table::RecordCodec;
    let dir = workdir("codec");
    let graph = motivo::graph::generators::barabasi_albert(300, 3, 17);

    let (plain_id, succ_id) = {
        let store = UrnStore::open(&dir).unwrap();
        let plain = store
            .build_or_get(&graph, &BuildConfig::new(4).seed(1))
            .unwrap();
        let succ = store
            .build_or_get(
                &graph,
                &BuildConfig::new(4).seed(1).codec(RecordCodec::Succinct),
            )
            .unwrap();
        plain.wait().unwrap();
        succ.wait().unwrap();
        assert_ne!(plain.id(), succ.id(), "codec must separate build keys");
        // Re-requesting either codec reuses its urn.
        let again = store
            .build_or_get(
                &graph,
                &BuildConfig::new(4).seed(1).codec(RecordCodec::Succinct),
            )
            .unwrap();
        assert_eq!(again.id(), succ.id());
        (plain.id(), succ.id())
    };

    // A fresh process sees both, codec preserved, and serves identical
    // estimates from either for a fixed seed.
    let store = UrnStore::open(&dir).unwrap();
    let urns = store.list();
    assert_eq!(
        urns.iter().find(|m| m.id == plain_id).unwrap().key.codec,
        RecordCodec::Plain
    );
    let succ_meta = urns.iter().find(|m| m.id == succ_id).unwrap();
    assert_eq!(succ_meta.key.codec, RecordCodec::Succinct);
    let plain_meta = urns.iter().find(|m| m.id == plain_id).unwrap();
    assert!(
        succ_meta.table_bytes * 10 <= plain_meta.table_bytes * 6,
        "succinct {} B vs plain {} B",
        succ_meta.table_bytes,
        plain_meta.table_bytes
    );

    let a = store.get(plain_id).unwrap();
    let b = store.get(succ_id).unwrap();
    assert_eq!(a.urn().total_treelets(), b.urn().total_treelets());
    assert!(
        b.bytes() < a.bytes(),
        "succinct urn must budget fewer cache bytes"
    );
    let mut reg_a = GraphletRegistry::new(4);
    let mut reg_b = GraphletRegistry::new(4);
    let query = StoreQuery::new(&store);
    let ea = query
        .naive_estimates(plain_id, &mut reg_a, 5_000, &SampleConfig::seeded(2))
        .unwrap();
    let eb = query
        .naive_estimates(succ_id, &mut reg_b, 5_000, &SampleConfig::seeded(2))
        .unwrap();
    for (x, y) in ea.per_graphlet.iter().zip(&eb.per_graphlet) {
        assert_eq!(x.occurrences, y.occurrences);
        assert_eq!(x.count.to_bits(), y.count.to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

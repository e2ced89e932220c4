//! In-process end-to-end tests of the daemon: protocol correctness,
//! backpressure, determinism against the query layer, and graceful
//! shutdown — all against a real TCP socket on an ephemeral port.

use motivo_core::{BuildConfig, SampleConfig};
use motivo_graphlet::GraphletRegistry;
use motivo_server::{proto, Client, ClientError, ServeOptions, Server};
use motivo_store::{StoreQuery, UrnId, UrnStore};
use serde_json::json;
use std::path::PathBuf;
use std::sync::Arc;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("motivo-server-test-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens a store at `dir` with one built k=4 urn and returns it.
fn seeded_store(dir: &PathBuf) -> Arc<UrnStore> {
    let graph = motivo_graph::generators::barabasi_albert(200, 3, 5);
    let store = UrnStore::open(dir).unwrap();
    let handle = store
        .build_or_get(&graph, &BuildConfig::new(4).seed(2))
        .unwrap();
    handle.wait().unwrap();
    Arc::new(store)
}

#[test]
fn serves_queries_and_matches_in_process_bytes() {
    let dir = workdir("roundtrip");
    let store = seeded_store(&dir);

    // The in-process truth, serialized exactly as the server does.
    let expected = {
        let query = StoreQuery::new(&store);
        let mut registry = GraphletRegistry::new(4);
        let est = query
            .naive_estimates(
                UrnId(0),
                &mut registry,
                10_000,
                &SampleConfig::seeded(3).threads(2),
            )
            .unwrap();
        serde_json::to_string(&proto::estimates_json(&est, &registry)).unwrap()
    };

    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Ping.
    let pong = client.request(&json!({"type": "Ping"})).unwrap();
    assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));

    // ListUrns sees the built urn.
    let urns = client.request(&json!({"type": "ListUrns"})).unwrap();
    let rows = urns.get("urns").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("status").unwrap().as_str(), Some("built"));
    assert_eq!(rows[0].get("id").unwrap().as_str(), Some("urn-0"));

    // NaiveEstimates over the wire is byte-identical to in-process.
    let ok = client
        .request(&json!({"type": "NaiveEstimates", "urn": 0, "samples": 10_000, "seed": 3, "threads": 2}))
        .unwrap();
    assert_eq!(serde_json::to_string(&ok).unwrap(), expected);

    // Sample returns a canonical-code tally whose occurrences sum to the
    // sample count.
    let ok = client
        .request(&json!({"type": "Sample", "urn": 0, "samples": 2_000, "seed": 1}))
        .unwrap();
    let total: u64 = ok
        .get("classes")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c.get("occurrences").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(total, 2_000);

    // Ags runs and reports adaptive counters.
    let ok = client
        .request(
            &json!({"type": "Ags", "urn": 0, "max_samples": 4_000, "idle_limit": 1_000, "seed": 5}),
        )
        .unwrap();
    assert!(
        ok.get("estimates")
            .unwrap()
            .get("samples")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );

    // Stats saw the queries above.
    let ok = client.request(&json!({"type": "Stats"})).unwrap();
    assert!(
        ok.get("total")
            .unwrap()
            .get("queries")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 3
    );

    // Errors are structured.
    let err = client
        .request(&json!({"type": "NaiveEstimates", "urn": 99, "samples": 10}))
        .unwrap_err();
    match err {
        ClientError::Server { kind, .. } => assert_eq!(kind, "UnknownUrn"),
        other => panic!("unexpected error {other}"),
    }
    let err = client.request(&json!({"type": "Teleport"})).unwrap_err();
    match err {
        ClientError::Server { kind, .. } => assert_eq!(kind, "BadRequest"),
        other => panic!("unexpected error {other}"),
    }

    // Shutdown over the wire; the report accounts for everything.
    client.request(&json!({"type": "Shutdown"})).unwrap();
    let report = server.join();
    assert!(report.requests >= 7, "{report:?}");
    assert_eq!(report.busy_rejections, 0);
    let stats_path = report.stats_path.expect("stats flushed");
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
    assert!(
        stats
            .get("total")
            .unwrap()
            .get("queries")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 3
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Request ids are echoed, so a pipelining client can match out-of-order
/// responses; requests with a seed stay deterministic under pipelining.
#[test]
fn pipelined_requests_match_by_id() {
    let dir = workdir("pipeline");
    let store = seeded_store(&dir);
    let opts = ServeOptions::builder()
        .workers(4)
        .queue_depth(64)
        .build()
        .unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    // Fire 8 requests before reading any response.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    for i in 0..8u64 {
        let req = json!({"id": i, "type": "NaiveEstimates", "urn": 0, "samples": 1_000, "seed": i});
        motivo_server::proto::write_frame(
            &mut raw,
            serde_json::to_string(&req).unwrap().as_bytes(),
        )
        .unwrap();
    }
    let mut seen = std::collections::HashSet::new();
    let mut payloads = std::collections::HashMap::new();
    for _ in 0..8 {
        let frame = motivo_server::proto::read_frame(&mut raw).unwrap().unwrap();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
        let id = v.get("id").unwrap().as_u64().unwrap();
        assert!(seen.insert(id), "duplicate response for id {id}");
        payloads.insert(id, serde_json::to_string(&v.get("ok").unwrap()).unwrap());
    }
    assert_eq!(seen.len(), 8);

    // Re-requesting any seed through a fresh client gives identical bytes.
    for i in [0u64, 3, 7] {
        let ok = client
            .request(&json!({"type": "NaiveEstimates", "urn": 0, "samples": 1_000, "seed": i}))
            .unwrap();
        assert_eq!(
            &serde_json::to_string(&ok).unwrap(),
            payloads.get(&i).unwrap()
        );
    }

    server.shutdown();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A queue of depth 1 with slow jobs must answer `Busy`, not buffer.
#[test]
fn overload_answers_busy() {
    let dir = workdir("busy");
    let store = seeded_store(&dir);
    let opts = ServeOptions::builder()
        .workers(1)
        .queue_depth(1)
        .build()
        .unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();

    // Saturate: one slow request occupies the worker, one fills the queue,
    // then a burst must bounce. Fire them all pipelined on one connection.
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let slow = json!({"id": "slow", "type": "NaiveEstimates", "urn": 0, "samples": 150_000, "seed": 1, "threads": 1});
    motivo_server::proto::write_frame(&mut raw, serde_json::to_string(&slow).unwrap().as_bytes())
        .unwrap();
    let burst = 16;
    for i in 0..burst {
        let req = json!({"id": i, "type": "NaiveEstimates", "urn": 0, "samples": 150_000, "seed": 1, "threads": 1});
        motivo_server::proto::write_frame(
            &mut raw,
            serde_json::to_string(&req).unwrap().as_bytes(),
        )
        .unwrap();
    }
    let mut busy = 0u64;
    let mut ok = 0;
    for _ in 0..burst + 1 {
        let frame = motivo_server::proto::read_frame(&mut raw).unwrap().unwrap();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
        if v.get("ok").is_some() {
            ok += 1;
        } else {
            let kind = v
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string();
            assert_eq!(kind, "Busy");
            busy += 1;
        }
    }
    assert!(busy > 0, "burst never hit backpressure");
    assert!(ok >= 1, "accepted requests must still be served");

    server.shutdown();
    let report = server.join();
    assert_eq!(report.busy_rejections, busy);
    std::fs::remove_dir_all(&dir).ok();
}

/// Shutdown drains: requests accepted before the signal all get real
/// responses, requests after it get `ShuttingDown`.
#[test]
fn graceful_shutdown_drains_accepted_requests() {
    let dir = workdir("drain");
    let store = seeded_store(&dir);
    let opts = ServeOptions::builder()
        .workers(2)
        .queue_depth(32)
        .build()
        .unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();

    // Fill the pool with slow-ish jobs from several connections.
    let mut conns: Vec<std::net::TcpStream> = (0..6)
        .map(|_| std::net::TcpStream::connect(server.addr()).unwrap())
        .collect();
    for (i, conn) in conns.iter_mut().enumerate() {
        let req = json!({"id": i, "type": "NaiveEstimates", "urn": 0, "samples": 60_000, "seed": 1, "threads": 1});
        motivo_server::proto::write_frame(conn, serde_json::to_string(&req).unwrap().as_bytes())
            .unwrap();
    }
    // Give the readers a moment to accept the frames into the queue.
    std::thread::sleep(std::time::Duration::from_millis(300));
    server.shutdown();

    // Every accepted request still completes with a real payload.
    for conn in conns.iter_mut() {
        let frame = motivo_server::proto::read_frame(conn)
            .unwrap()
            .expect("response before close");
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert!(
            v.get("ok").is_some(),
            "accepted request dropped at shutdown: {v:?}"
        );
    }

    let report = server.join();
    assert!(report.requests >= 6);
    assert!(report.stats_path.is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// The typed client surface end-to-end: the `Hello` handshake reports
/// the server's protocol limits, the purpose-named methods decode into
/// their reply structs, and the typed estimate matches the raw escape
/// hatch's bytes for the same seed. A connection that never sends
/// `Hello` (every other test here) is the old-client compatibility case.
#[test]
fn typed_client_and_hello_handshake() {
    let dir = workdir("typed");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let hello = client.hello().unwrap();
    assert_eq!(hello.proto_version, motivo_server::PROTO_VERSION);
    assert!(hello.server.starts_with("motivo "), "{}", hello.server);
    assert!(hello.kinds.iter().any(|k| k == "NaiveEstimates"));
    assert!(
        hello.kinds.iter().all(|k| k != "Invalid"),
        "Invalid is a metrics pseudo-kind, not a dispatchable request"
    );
    assert_eq!(hello.max_pipeline, motivo_server::MAX_PIPELINE as u64);
    assert!(hello.features.iter().any(|f| f == "pipelining"));

    client.ping().unwrap();
    let urns = client.list_urns().unwrap();
    assert_eq!(urns.urns.len(), 1);
    assert_eq!(urns.urns[0].status, "built");

    let est = client.naive_estimates(UrnId(0), 2_000, 7).unwrap();
    assert_eq!((est.k, est.samples), (4, 2_000));
    assert!(est.total_count > 0.0);
    // The typed reply decodes the same payload bytes the raw path sees
    // (a cache replay, since the request is identical).
    let raw = client
        .request(&json!({"type": "NaiveEstimates", "urn": 0, "samples": 2_000, "seed": 7}))
        .unwrap();
    assert_eq!(
        raw.get("total_count").unwrap().as_f64(),
        Some(est.total_count)
    );
    assert_eq!(
        raw.get("classes").unwrap().as_array().unwrap().len(),
        est.classes.len()
    );

    let tally = client.sample(UrnId(0), 1_000, 5).unwrap();
    assert_eq!(
        tally.classes.iter().map(|c| c.occurrences).sum::<u64>(),
        1_000
    );

    let stats = client.stats(None).unwrap();
    assert!(stats.get("cache").is_some());
    let metrics = client.metrics().unwrap();
    assert!(metrics.get("kinds").is_some());

    // Unknown urns surface as typed server errors.
    match client.naive_estimates(UrnId(99), 10, 1) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, "UnknownUrn"),
        other => panic!("expected UnknownUrn, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile deeply nested frame must be a `BadRequest`, not a parser
/// stack overflow (which would abort the whole daemon).
#[test]
fn deeply_nested_frame_is_rejected_not_fatal() {
    let dir = workdir("deep");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();

    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let bomb = "[".repeat(100_000);
    motivo_server::proto::write_frame(&mut raw, bomb.as_bytes()).unwrap();
    let frame = motivo_server::proto::read_frame(&mut raw).unwrap().unwrap();
    let v: serde_json::Value = serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
    let kind = v.get("error").unwrap().get("kind").unwrap();
    assert_eq!(kind.as_str(), Some("BadRequest"));

    // The server survived and still answers.
    let mut client = Client::connect(server.addr()).unwrap();
    client.request(&json!({"type": "Ping"})).unwrap();
    client.request(&json!({"type": "Shutdown"})).unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client that keeps pipelining after `Shutdown` must not stall the
/// drain: its reader answers the frame in hand and closes the connection,
/// and `join()` returns promptly.
#[test]
fn shutdown_is_not_stalled_by_a_chatty_client() {
    let dir = workdir("chatty");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();

    let addr = server.addr();
    let spammer = std::thread::spawn(move || {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        // Keep sending Pings until the server hangs up on us.
        loop {
            if motivo_server::proto::write_frame(&mut raw, br#"{"type":"Ping"}"#).is_err() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(100));

    let t0 = std::time::Instant::now();
    server.shutdown();
    server.join();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(10),
        "drain stalled behind a chatty client: {:?}",
        t0.elapsed()
    );
    spammer.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Cache exactness: for a seeded request the cold (miss) response bytes,
/// the warm (cached) response bytes, and the in-process [`StoreQuery`]
/// serialization are all identical — determinism makes the cache exact.
#[test]
fn cache_replays_exact_cold_bytes() {
    let dir = workdir("cache-exact");
    let store = seeded_store(&dir);

    let expected = {
        let query = StoreQuery::new(&store);
        let mut registry = GraphletRegistry::new(4);
        let est = query
            .naive_estimates(UrnId(0), &mut registry, 5_000, &SampleConfig::seeded(7))
            .unwrap();
        serde_json::to_string(&proto::estimates_json(&est, &registry)).unwrap()
    };

    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = json!({"type": "NaiveEstimates", "urn": 0, "samples": 5_000, "seed": 7});
    let cold = serde_json::to_string(&client.request(&req).unwrap()).unwrap();
    let warm = serde_json::to_string(&client.request(&req).unwrap()).unwrap();
    assert_eq!(cold, expected, "cold response == in-process bytes");
    assert_eq!(warm, expected, "warm (cached) response == in-process bytes");

    // Stats prove the second answer came from the cache; `threads` is not
    // part of the key, so a third request differing only in threads is a
    // hit too (byte-identical by the determinism invariant).
    let req_threads =
        json!({"type": "NaiveEstimates", "urn": 0, "samples": 5_000, "seed": 7, "threads": 2});
    let third = serde_json::to_string(&client.request(&req_threads).unwrap()).unwrap();
    assert_eq!(third, expected);
    let stats = client.request(&json!({"type": "Stats"})).unwrap();
    let qc = stats.get("query_cache").unwrap();
    assert_eq!(qc.get("misses").unwrap().as_u64(), Some(1), "{stats:?}");
    assert_eq!(qc.get("hits").unwrap().as_u64(), Some(2), "{stats:?}");
    // Only the miss reached the estimator.
    assert_eq!(
        stats.get("total").unwrap().get("queries").unwrap().as_u64(),
        Some(1)
    );

    client.request(&json!({"type": "Shutdown"})).unwrap();
    let report = server.join();
    assert_eq!(report.query_cache.misses, 1);
    assert_eq!(report.query_cache.hits, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// Singleflight: 32 concurrent identical seeded requests produce exactly
/// one estimator run (counter-checked three ways) and 32 byte-identical
/// payloads.
#[test]
fn singleflight_coalesces_32_identical_requests() {
    let dir = workdir("singleflight");
    let store = seeded_store(&dir);
    let opts = ServeOptions::builder()
        .workers(8)
        .queue_depth(64)
        .build()
        .unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();

    let clients = 32;
    let payloads: Vec<String> = std::thread::scope(|s| {
        let addr = server.addr();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let ok = client
                        .request(&json!({
                            "type": "NaiveEstimates", "urn": 0,
                            "samples": 40_000, "seed": 11,
                        }))
                        .unwrap();
                    serde_json::to_string(&ok).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(payloads.len(), clients);
    assert!(
        payloads.iter().all(|p| p == &payloads[0]),
        "all 32 payloads identical"
    );

    let mut client = Client::connect(server.addr()).unwrap();
    let stats = client.request(&json!({"type": "Stats"})).unwrap();
    let qc = stats.get("query_cache").unwrap();
    let (misses, hits, coalesced) = (
        qc.get("misses").unwrap().as_u64().unwrap(),
        qc.get("hits").unwrap().as_u64().unwrap(),
        qc.get("coalesced").unwrap().as_u64().unwrap(),
    );
    assert_eq!(misses, 1, "exactly one estimator run led the flight");
    assert_eq!(hits + coalesced, 31, "everyone else reused it: {qc:?}");
    // The estimator-side counter agrees: one query reached the store.
    assert_eq!(
        stats.get("total").unwrap().get("queries").unwrap().as_u64(),
        Some(1)
    );

    client.request(&json!({"type": "Shutdown"})).unwrap();
    let report = server.join();
    assert_eq!(report.query_cache.misses, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Batch` frame executes its sub-requests in order through one worker
/// slot: per-sub-request envelopes (own ids echoed), one malformed
/// sub-request failing alone, and cached payloads byte-identical to the
/// single-request path.
#[test]
fn batch_answers_in_order_with_per_subrequest_envelopes() {
    let dir = workdir("batch");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // The single-request truth for the first sub-request.
    let single = client
        .request(&json!({"type": "NaiveEstimates", "urn": 0, "samples": 3_000, "seed": 5}))
        .unwrap();
    let single_text = serde_json::to_string(&single).unwrap();

    let subs = vec![
        json!({"id": "a", "type": "NaiveEstimates", "urn": 0, "samples": 3_000, "seed": 5}),
        json!({"id": "b", "type": "Teleport"}),
        json!({"type": "Sample", "urn": 0, "samples": 500, "seed": 1}),
        json!({"type": "Ping"}),
        json!({"id": "no", "type": "Shutdown"}),
    ];
    let ok = client
        .request(&json!({"type": "Batch", "requests": subs}))
        .unwrap();
    let responses = ok.get("responses").unwrap().as_array().unwrap();
    assert_eq!(responses.len(), 5, "responses in request order");

    // Sub 0: served from the cache, byte-identical to the single request.
    assert_eq!(responses[0].get("id").unwrap().as_str(), Some("a"));
    assert_eq!(
        serde_json::to_string(&responses[0].get("ok").unwrap()).unwrap(),
        single_text
    );
    // Sub 1: malformed, fails alone with its id echoed.
    assert_eq!(responses[1].get("id").unwrap().as_str(), Some("b"));
    assert_eq!(
        responses[1]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("BadRequest")
    );
    // Sub 2: a real tally.
    let total: u64 = responses[2]
        .get("ok")
        .unwrap()
        .get("classes")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|c| c.get("occurrences").unwrap().as_u64().unwrap())
        .sum();
    assert_eq!(total, 500);
    // Sub 3: Ping answers inside a batch.
    assert_eq!(
        responses[3]
            .get("ok")
            .unwrap()
            .get("pong")
            .unwrap()
            .as_bool(),
        Some(true)
    );
    // Sub 4: Shutdown is not allowed inside a batch — and did not fire.
    assert_eq!(
        responses[4]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("BadRequest")
    );
    client.request(&json!({"type": "Ping"})).unwrap();

    client.request(&json!({"type": "Shutdown"})).unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `cache_bytes: 0` disables residency (every request recomputes) while
/// determinism still makes the recomputed bytes identical.
#[test]
fn disabled_cache_recomputes_identical_bytes() {
    let dir = workdir("nocache");
    let store = seeded_store(&dir);
    let opts = ServeOptions::builder()
        .workers(2)
        .queue_depth(16)
        .cache_bytes(0)
        .build()
        .unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let req = json!({"type": "NaiveEstimates", "urn": 0, "samples": 2_000, "seed": 3});
    let a = serde_json::to_string(&client.request(&req).unwrap()).unwrap();
    let b = serde_json::to_string(&client.request(&req).unwrap()).unwrap();
    assert_eq!(a, b, "determinism holds without the cache");
    client.request(&json!({"type": "Shutdown"})).unwrap();
    let report = server.join();
    assert_eq!(report.query_cache.misses, 2, "both requests recomputed");
    assert_eq!(report.query_cache.resident_bytes, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero-sample request has no classes and a total of positive zero,
/// not `-0.0`.
#[test]
fn zero_sample_estimates_answer_positive_zero() {
    let dir = workdir("zero-samples");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let raw = client
        .send_raw(r#"{"type":"NaiveEstimates","urn":0,"samples":0,"seed":1}"#)
        .unwrap();
    assert!(raw.contains(r#""total_count":0.0,"#), "{raw}");
    assert!(raw.contains(r#""classes":[]"#), "{raw}");
    client.request(&json!({"type": "Shutdown"})).unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `Metrics` histogram counts equal the requests a client actually
/// issued, kind by kind — the acceptance check of the observability
/// layer. Error responses count as requests *and* errors.
#[test]
fn metrics_counts_match_issued_requests() {
    let dir = workdir("metrics");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for _ in 0..2 {
        client.request(&json!({"type": "Ping"})).unwrap();
    }
    for seed in 0..5u64 {
        client
            .request(&json!({"type": "NaiveEstimates", "urn": 0, "samples": 1_000, "seed": seed}))
            .unwrap();
    }
    for seed in 0..3u64 {
        client
            .request(&json!({"type": "Sample", "urn": 0, "samples": 500, "seed": seed}))
            .unwrap();
    }
    client.request(&json!({"type": "Stats"})).unwrap();
    // One failing request: counted as a NaiveEstimates request and error.
    client
        .request(&json!({"type": "NaiveEstimates", "urn": 99, "samples": 10}))
        .unwrap_err();

    let ok = client.request(&json!({"type": "Metrics"})).unwrap();
    let row = |kind: &str| {
        ok.get("kinds")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|r| r.get("kind").unwrap().as_str() == Some(kind))
            .unwrap_or_else(|| panic!("no {kind} row"))
            .clone()
    };
    let count = |kind: &str| row(kind).get("count").unwrap().as_u64().unwrap();
    let errors = |kind: &str| row(kind).get("errors").unwrap().as_u64().unwrap();
    assert_eq!(count("Ping"), 2);
    assert_eq!(count("NaiveEstimates"), 6);
    assert_eq!(errors("NaiveEstimates"), 1);
    assert_eq!(count("Sample"), 3);
    assert_eq!(errors("Sample"), 0);
    assert_eq!(count("Stats"), 1);
    // The Metrics request itself was counted before its handler ran.
    assert_eq!(count("Metrics"), 1);
    // Quantiles are ordered and bounded by the exact max.
    let ne = row("NaiveEstimates");
    let q = |k: &str| ne.get(k).unwrap().as_u64().unwrap();
    assert!(q("p50_us") <= q("p90_us") && q("p90_us") <= q("p99_us"));
    assert!(q("p99_us") <= q("max_us").max(1));
    // The queue-wait/service split saw every pooled request (Pings are
    // answered inline and excluded). The Metrics job itself has recorded
    // its queue wait but is still mid-service while it renders this.
    let service = ok
        .get("service")
        .unwrap()
        .get("count")
        .unwrap()
        .as_u64()
        .unwrap();
    let waits = ok
        .get("queue_wait")
        .unwrap()
        .get("count")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(waits, 11, "5+3 queries, Stats, the error, and Metrics");
    assert_eq!(service, 10, "everything but the in-flight Metrics job");
    // The Prometheus text covers the whole stack, store counters included.
    let text = ok.get("text").unwrap().as_str().unwrap().to_string();
    for needle in [
        "motivo_server_requests_naiveestimates 6",
        "motivo_server_latency_sample_us_count 3",
        "motivo_store_lru_hits",
        "quantile=\"0.99\"",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    client.request(&json!({"type": "Shutdown"})).unwrap();
    let report = server.join();
    // The report carries the same per-kind rows...
    let ne_report = report
        .per_kind
        .iter()
        .find(|r| r.kind == "NaiveEstimates")
        .unwrap();
    assert_eq!((ne_report.count, ne_report.errors), (6, 1));
    // ...as does the flushed server-stats.json.
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(report.stats_path.unwrap()).unwrap())
            .unwrap();
    let per_kind = stats.get("per_kind").unwrap().as_array().unwrap();
    assert!(per_kind
        .iter()
        .any(|r| r.get("kind").unwrap().as_str() == Some("Sample")
            && r.get("count").unwrap().as_u64() == Some(3)));
    // The final metrics snapshot landed next to it, as valid JSON.
    let metrics_path = report.metrics_path.expect("final snapshot written");
    assert!(metrics_path
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .starts_with("metrics-"));
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert!(snap.get("histograms").is_some(), "{snap:?}");
    assert!(snap.get("counters").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// Instrumentation is a side channel: with the result cache disabled so
/// every request recomputes, seeded responses stay byte-identical at 1,
/// 2, and 8 sampling threads.
#[test]
fn instrumented_responses_stay_deterministic_across_threads() {
    let dir = workdir("obs-determinism");
    let store = seeded_store(&dir);
    // cache_bytes = 0 forces a real recompute per request.
    let opts = ServeOptions::builder().cache_bytes(0).build().unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut bodies = Vec::new();
    for threads in [1u64, 2, 8] {
        let reqs = [
            json!({"type": "NaiveEstimates", "urn": 0, "samples": 3_000, "seed": 11, "threads": threads}),
            json!({"type": "Ags", "urn": 0, "max_samples": 3_000, "seed": 11, "threads": threads}),
        ];
        for req in reqs {
            let ok = client.request(&req).unwrap();
            bodies.push(serde_json::to_string(&ok).unwrap());
        }
    }
    for i in 1..3 {
        assert_eq!(bodies[0], bodies[2 * i], "NaiveEstimates diverged");
        assert_eq!(bodies[1], bodies[2 * i + 1], "Ags diverged");
    }
    client.request(&json!({"type": "Shutdown"})).unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Periodic snapshots: with `snapshot_secs: 1` a long-enough serve window
/// leaves at least one periodic file *plus* the final shutdown snapshot.
#[test]
fn periodic_metrics_snapshots_are_written() {
    let dir = workdir("snapshots");
    let store = seeded_store(&dir);
    let opts = ServeOptions::builder().snapshot_secs(1).build().unwrap();
    let server = Server::bind(store, "127.0.0.1:0", opts).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.request(&json!({"type": "Ping"})).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1400));
    client.request(&json!({"type": "Shutdown"})).unwrap();
    let report = server.join();
    assert!(report.metrics_path.is_some());
    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_str().unwrap_or("");
            name.starts_with("metrics-") && name.ends_with(".json")
        })
        .collect();
    assert!(snapshots.len() >= 2, "periodic + final, got {snapshots:?}");
    // No temp litter from the atomic writes.
    assert!(!std::fs::read_dir(&dir).unwrap().any(|e| e
        .unwrap()
        .file_name()
        .to_str()
        .unwrap_or("")
        .ends_with(".tmp")));
    std::fs::remove_dir_all(&dir).ok();
}

/// Uncapped, one frame asking for `u64::MAX` samples aborts the whole
/// process on a petabyte allocation. The schema caps sample counts, so it
/// is a `BadRequest` naming the field, and the server keeps answering.
#[test]
fn oversized_sample_count_is_a_bad_request_not_an_abort() {
    let dir = workdir("sample-cap");
    let store = seeded_store(&dir);
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (frame, field) in [
        (
            r#"{"type":"NaiveEstimates","urn":0,"samples":18446744073709551615}"#,
            "`samples`",
        ),
        (
            r#"{"type":"Sample","urn":0,"samples":18446744073709551615}"#,
            "`samples`",
        ),
        (
            r#"{"type":"Ags","urn":0,"max_samples":18446744073709551615,"epoch":18446744073709551615}"#,
            "`max_samples`",
        ),
    ] {
        let reply: serde_json::Value =
            serde_json::from_str(&client.send_raw(frame).unwrap()).unwrap();
        let err = reply
            .get("error")
            .unwrap_or_else(|| panic!("{frame}: {reply:?}"));
        assert_eq!(err.get("kind").unwrap().as_str(), Some("BadRequest"));
        let message = err.get("message").unwrap().as_str().unwrap().to_string();
        assert!(message.contains(field), "{message}");
        assert!(
            message.contains(&proto::MAX_SAMPLES.to_string()),
            "{message}"
        );
    }
    client.ping().unwrap();
    client.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Build` on a file that is not an edge list fails with `BadRequest`
/// naming the line — never quoting it, which would hand any client the
/// first line of any file the server can read.
#[test]
fn build_errors_do_not_echo_the_graph_file() {
    let dir = workdir("build-echo");
    let secret = dir.join("secret.txt");
    std::fs::write(&secret, "SECRET-TOKEN-42 is here\n").unwrap();
    let store = Arc::new(UrnStore::open(dir.join("store")).unwrap());
    let server = Server::bind(store, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.build(secret.to_str().unwrap(), 4, 0, true) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, "BadRequest");
            assert!(!message.contains("SECRET"), "{message}");
            assert!(message.contains("line 1"), "{message}");
        }
        other => panic!("expected a BadRequest, got {other:?}"),
    }
    client.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

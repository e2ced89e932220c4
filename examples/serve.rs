//! Serving motif counts over TCP: build a store, start the daemon on an
//! ephemeral port, drive it with the typed wire client, and shut it down
//! gracefully — all in one process.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use motivo::prelude::*;
use motivo::server::proto;
use serde_json::json;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("motivo-serve-example-{}", std::process::id()));

    // A store with one built urn (k = 4 over a small scale-free graph).
    let graph = motivo::graph::generators::barabasi_albert(2_000, 3, 7);
    let store = Arc::new(UrnStore::open(&dir)?);
    let handle = store.build_or_get(&graph, &BuildConfig::new(4).seed(1))?;
    handle.wait()?;
    println!("built {} into {}", handle.id(), dir.display());

    // The daemon: one reactor thread multiplexing every connection, plus
    // a worker pool behind a bounded queue, configured via the builder.
    let opts = ServeOptions::builder().workers(2).build()?;
    let server = Server::bind(store, "127.0.0.1:0", opts)?;
    println!("serving on {}", server.addr());

    // A client drives it over real TCP, starting with the version
    // handshake (answered inline, so it works even under full load).
    let mut client = Client::connect(server.addr())?;
    let hello = client.hello()?;
    println!(
        "connected to {} (proto v{}, {} request kinds, pipeline cap {})",
        hello.server,
        hello.proto_version,
        hello.kinds.len(),
        hello.max_pipeline
    );

    let urns = client.list_urns()?;
    println!(
        "urns: {:?}",
        urns.urns.iter().map(|u| &u.id).collect::<Vec<_>>()
    );

    let est = client.naive_estimates(UrnId(0), 20_000, 3)?;
    println!(
        "estimated ~{:.3e} induced 4-graphlet copies across {} classes",
        est.total_count,
        est.classes.len()
    );

    // The determinism guarantee across the wire: same seed, same bytes —
    // and because the server knows that, the repeat is a cache replay of
    // the exact payload, not a second estimator run. The raw `request`
    // escape hatch exposes the payload bytes the guarantee is stated over.
    let raw_est = client.request(&json!({
        "type": "NaiveEstimates", "urn": 0, "samples": 20_000, "seed": 3,
    }))?;
    let again = client.request(&json!({
        "type": "NaiveEstimates", "urn": 0, "samples": 20_000, "seed": 3, "threads": 2,
    }))?;
    assert_eq!(
        serde_json::to_string(&raw_est)?,
        serde_json::to_string(&again)?,
        "a seeded request is byte-identical at any thread count"
    );
    let stats = client.stats(None)?;
    let qc = stats.get("query_cache").expect("cache counters");
    println!(
        "re-request with the same seed: byte-identical ✓ (cache: {} miss, {} hit)",
        qc.get("misses").and_then(|v| v.as_u64()).unwrap_or(0),
        qc.get("hits").and_then(|v| v.as_u64()).unwrap_or(0),
    );

    // Batching: several sub-requests through one frame and one worker
    // slot, answered in order with per-sub-request envelopes.
    let subs = vec![
        json!({"id": "est", "type": "NaiveEstimates", "urn": 0, "samples": 20_000, "seed": 3}),
        json!({"id": "tally", "type": "Sample", "urn": 0, "samples": 5_000, "seed": 1}),
        json!({"id": "oops", "type": "NaiveEstimates", "urn": 99}),
    ];
    let batch = client.request(&json!({"type": "Batch", "requests": subs}))?;
    let responses = batch
        .get("responses")
        .expect("responses")
        .as_array()
        .unwrap();
    assert_eq!(responses.len(), 3, "in request order");
    assert_eq!(
        serde_json::to_string(&responses[0].get("ok").expect("cached estimate"))?,
        serde_json::to_string(&raw_est)?,
        "the batched estimate replays the cached bytes"
    );
    println!(
        "batch of 3: ok, ok, {} ✓",
        responses[2]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str().map(str::to_string))
            .unwrap_or_default()
    );

    // Raw frames work too — this is all `motivo client` does.
    let mut raw = std::net::TcpStream::connect(server.addr())?;
    proto::write_frame(&mut raw, br#"{"id":"raw","type":"Stats"}"#)?;
    let frame = proto::read_frame(&mut raw)?.expect("response");
    println!("raw stats envelope: {}", String::from_utf8_lossy(&frame));

    // Graceful shutdown over the wire; stats land in the store directory.
    client.shutdown()?;
    let report = server.join();
    println!(
        "report: {} requests, {} connections, stats at {:?}",
        report.requests, report.connections, report.stats_path
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

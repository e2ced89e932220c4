//! End-to-end tests of `motivo serve`: the real binary on an ephemeral
//! port, ≥ 32 concurrent clients mixing query types, responses
//! byte-identical to in-process estimator calls for a fixed seed, and
//! a graceful shutdown that drains every accepted request.

mod support;

use motivo::prelude::Client;
use motivo::server::proto;
use serde_json::json;
use std::io::{BufRead, BufReader};
use support::{motivo, ping_barrier, seed_store, spawn_server, workdir};

/// ≥ 32 concurrent clients mixing every query type; the seeded estimate
/// responses are byte-identical to the in-process call.
#[test]
fn concurrent_clients_get_in_process_bytes() {
    let dir = workdir("concurrent");
    let expected = seed_store(&dir, 5_000, 3);
    let (mut child, addr) = spawn_server(&dir, 4, 256);

    let clients = 32;
    std::thread::scope(|s| {
        let (expected, addr) = (&expected, &addr);
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                s.spawn(move || {
                    let mut client = Client::connect(addr.as_str()).unwrap();
                    match i % 4 {
                        // The determinism check: every one of these, from
                        // any client at any time, matches the in-process
                        // bytes exactly.
                        0 => {
                            let ok = client
                                .request(&json!({
                                    "type": "NaiveEstimates", "urn": 0,
                                    "samples": 5_000, "seed": 3, "threads": 2,
                                }))
                                .unwrap();
                            assert_eq!(&serde_json::to_string(&ok).unwrap(), expected);
                        }
                        1 => {
                            let ok = client.request(&json!({"type": "ListUrns"})).unwrap();
                            let rows = ok.get("urns").unwrap().as_array().unwrap();
                            assert_eq!(rows.len(), 1);
                        }
                        2 => {
                            let ok = client
                                .request(&json!({
                                    "type": "Sample", "urn": 0, "samples": 1_000, "seed": i,
                                }))
                                .unwrap();
                            let total: u64 = ok
                                .get("classes")
                                .unwrap()
                                .as_array()
                                .unwrap()
                                .iter()
                                .map(|c| c.get("occurrences").unwrap().as_u64().unwrap())
                                .sum();
                            assert_eq!(total, 1_000);
                        }
                        _ => {
                            let ok = client.request(&json!({"type": "Stats"})).unwrap();
                            assert!(ok.get("cache").is_some());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // Shut down over the wire; the daemon exits 0 and flushes stats.
    let mut client = Client::connect(addr.as_str()).unwrap();
    client.request(&json!({"type": "Shutdown"})).unwrap();
    let status = child.wait().expect("server exit");
    assert!(status.success(), "serve exited {status:?}");
    assert!(dir.join("server-stats.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI client end-to-end against the real daemon: `-` reads the
/// request from stdin, `--batch` wraps a JSON array into one `Batch`
/// frame, and repeated seeded requests replay cached bytes (the
/// `--cache-bytes` flag is honored).
#[test]
fn cli_client_stdin_and_batch_roundtrip() {
    use std::io::Write;
    use std::process::Stdio;

    let dir = workdir("cli-batch");
    let expected = seed_store(&dir, 2_000, 9);
    let mut child = motivo()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(["--cache-bytes", "1048576"])
        .arg("--store")
        .arg(&dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn motivo serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = lines
        .next()
        .unwrap()
        .unwrap()
        .strip_prefix("listening on ")
        .expect("address line")
        .to_string();

    let pipe_client = |args: &[&str], stdin: &str| {
        let mut c = motivo()
            .arg("client")
            .arg(&addr)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        c.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
        let out = c.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "client {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // A single request from stdin.
    let out = pipe_client(&["-"], r#"{"type":"Ping"}"#);
    assert!(out.contains("\"pong\": true"), "{out}");

    // A batch from stdin: three sub-requests, answered in order, the
    // malformed one failing alone.
    let batch = r#"[
        {"id": 1, "type": "NaiveEstimates", "urn": 0, "samples": 2000, "seed": 9},
        {"id": 2, "type": "Teleport"},
        {"id": 3, "type": "NaiveEstimates", "urn": 0, "samples": 2000, "seed": 9, "threads": 2}
    ]"#;
    let out = pipe_client(&["-", "--batch"], batch);
    let envelope: serde_json::Value = serde_json::from_str(&out).unwrap();
    let responses = envelope
        .get("ok")
        .unwrap()
        .get("responses")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(responses.len(), 3);
    // Sub 1 and 3 (differing only in threads) both match the in-process
    // bytes — the second from the cache.
    for idx in [0usize, 2] {
        assert_eq!(
            serde_json::to_string(&responses[idx].get("ok").unwrap()).unwrap(),
            expected,
            "sub-response {idx}"
        );
    }
    assert_eq!(
        responses[1]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("BadRequest")
    );

    // Stats over the wire confirm the cache replay.
    let mut client = Client::connect(addr.as_str()).unwrap();
    let stats = client.request(&json!({"type": "Stats"})).unwrap();
    let qc = stats.get("query_cache").unwrap();
    assert_eq!(qc.get("misses").unwrap().as_u64(), Some(1), "{stats:?}");
    assert!(qc.get("hits").unwrap().as_u64().unwrap() >= 1, "{stats:?}");

    client.request(&json!({"type": "Shutdown"})).unwrap();
    let status = child.wait().expect("server exit");
    assert!(status.success());
    // The flushed stats file carries the cache section now.
    let flushed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("server-stats.json")).unwrap())
            .unwrap();
    assert!(flushed.get("query_cache").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// The reactor holds ≥ 1000 idle connections on a fixed thread count
/// (read from `/proc/<pid>/status`), while an active connection
/// pipelining seeded requests still gets responses byte-identical to the
/// in-process payload — the tentpole claim of the event-driven server.
#[cfg(target_os = "linux")]
#[test]
fn reactor_holds_1000_idle_connections_on_fixed_threads() {
    let dir = workdir("idle-conns");
    let expected = seed_store(&dir, 2_000, 9);
    let (mut child, addr) = spawn_server(&dir, 2, 64);

    let thread_count = |pid: u32| -> u64 {
        std::fs::read_to_string(format!("/proc/{pid}/status"))
            .unwrap()
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line in /proc status")
            .trim()
            .parse()
            .unwrap()
    };

    // A probe request first, so the reactor and pool are warm when the
    // baseline thread count is taken.
    let mut client = Client::connect(addr.as_str()).unwrap();
    client.request(&json!({"type": "Ping"})).unwrap();
    let threads_before = thread_count(child.id());

    let mut idle: Vec<std::net::TcpStream> = (0..1000)
        .map(|_| std::net::TcpStream::connect(addr.as_str()).unwrap())
        .collect();

    // Active traffic while the idle set is held: 16 pipelined seeded
    // estimates on one connection, every response byte-identical to the
    // in-process payload.
    let mut active = std::net::TcpStream::connect(addr.as_str()).unwrap();
    for i in 0..16u64 {
        let req = json!({
            "id": i, "type": "NaiveEstimates", "urn": 0,
            "samples": 2_000, "seed": 9, "threads": 2,
        });
        proto::write_frame(&mut active, serde_json::to_string(&req).unwrap().as_bytes()).unwrap();
    }
    for _ in 0..16 {
        let frame = proto::read_frame(&mut active).unwrap().unwrap();
        let v: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(
            serde_json::to_string(&v.get("ok").unwrap()).unwrap(),
            expected
        );
    }

    // Every idle connection was accepted and still answers — and holding
    // all 1000 grew the daemon by zero threads.
    for conn in idle.iter_mut() {
        proto::write_frame(conn, br#"{"id":"live","type":"Ping"}"#).unwrap();
        let frame = proto::read_frame(conn)
            .unwrap()
            .expect("pong on an idle connection");
        assert!(std::str::from_utf8(&frame).unwrap().contains("\"pong\""));
    }
    assert_eq!(
        thread_count(child.id()),
        threads_before,
        "thread count grew with connection count"
    );

    drop(idle);
    client.request(&json!({"type": "Shutdown"})).unwrap();
    let status = child.wait().expect("server exit");
    assert!(status.success(), "serve exited {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Graceful shutdown drains: requests accepted (not `Busy`-rejected)
/// before the signal all receive real responses; none are dropped.
#[test]
fn shutdown_drains_accepted_requests() {
    let dir = workdir("drain");
    seed_store(&dir, 1_000, 1);
    let (mut child, addr) = spawn_server(&dir, 2, 64);

    // Park a sampling request on each of 8 connections, then shut down
    // while they are queued/in flight.
    let mut conns: Vec<std::net::TcpStream> = (0..8)
        .map(|_| std::net::TcpStream::connect(addr.as_str()).unwrap())
        .collect();
    for (i, conn) in conns.iter_mut().enumerate() {
        let req = json!({
            "id": i, "type": "NaiveEstimates", "urn": 0,
            "samples": 40_000, "seed": 1, "threads": 1,
        });
        proto::write_frame(conn, serde_json::to_string(&req).unwrap().as_bytes()).unwrap();
    }
    // A ping barrier per connection instead of a fixed sleep: the pong
    // proves the parked request ahead of it was accepted into the queue,
    // so the shutdown below provably races the drain, not the readers.
    let mut early: Vec<Vec<serde_json::Value>> = conns.iter_mut().map(ping_barrier).collect();
    let mut client = Client::connect(addr.as_str()).unwrap();
    client.request(&json!({"type": "Shutdown"})).unwrap();

    // Every accepted request completes with a real payload — and because
    // they share a seed, all with the *same* payload.
    let mut payloads = std::collections::HashSet::new();
    for (conn, early) in conns.iter_mut().zip(early.iter_mut()) {
        let v = match early.pop() {
            Some(v) => v, // answered before the barrier's pong
            None => {
                let frame = proto::read_frame(conn)
                    .unwrap()
                    .expect("a response, not a dropped connection");
                serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap()
            }
        };
        let ok = v
            .get("ok")
            .unwrap_or_else(|| panic!("accepted request answered with {v:?} instead of a payload"));
        payloads.insert(serde_json::to_string(&ok).unwrap());
    }
    assert_eq!(
        payloads.len(),
        1,
        "same seed ⇒ same bytes, even at shutdown"
    );

    let status = child.wait().expect("server exit");
    assert!(status.success(), "serve exited {status:?}");

    // After shutdown the port is closed.
    assert!(std::net::TcpStream::connect(addr.as_str()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

//! Shared helpers for the daemon integration tests (`server.rs`,
//! `replication.rs`): spawning real `motivo` binaries on ephemeral ports,
//! seeding stores, and polling observable state with bounded retries —
//! never fixed sleeps, which is what keeps these suites deflaked.
#![allow(dead_code)]

use motivo::core::{naive_estimates, BuildConfig, SampleConfig};
use motivo::graphlet::GraphletRegistry;
use motivo::prelude::{Client, UrnId, UrnStore};
use motivo::server::proto;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub fn motivo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_motivo"))
}

pub fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("motivo-serve-test-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a store with one k=4 urn and returns the expected in-process
/// serialization of a seeded `NaiveEstimates` request against it. The
/// store is closed again before the daemon opens it — one process at a
/// time owns the journal.
pub fn seed_store(dir: &PathBuf, samples: u64, seed: u64) -> String {
    let graph = motivo::graph::generators::barabasi_albert(250, 3, 5);
    let store = UrnStore::open(dir).unwrap();
    let handle = store
        .build_or_get(&graph, &BuildConfig::new(4).seed(2))
        .unwrap();
    handle.wait().unwrap();
    let urn = store.get(UrnId(0)).unwrap();
    let mut registry = GraphletRegistry::new(4);
    let est = naive_estimates(
        urn.urn(),
        &mut registry,
        samples,
        &SampleConfig::seeded(seed).threads(2),
    );
    serde_json::to_string(&proto::estimates_json(&est, &registry)).unwrap()
}

/// Spawns `motivo serve` with extra flags appended (`--replica-of`,
/// `--addr`, …) and reads the bound address off its first stdout line.
/// Defaults to an ephemeral port unless `extra` carries its own `--addr`.
pub fn spawn_server_with(store_dir: &PathBuf, extra: &[&str]) -> (Child, String) {
    let mut cmd = motivo();
    cmd.arg("serve");
    if !extra.contains(&"--addr") {
        cmd.args(["--addr", "127.0.0.1:0"]);
    }
    let mut child = cmd
        .arg("--store")
        .arg(store_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn motivo serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("server printed its address")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .to_string();
    (child, addr)
}

/// Spawns `motivo serve` on an ephemeral port with the given pool knobs.
pub fn spawn_server(store_dir: &PathBuf, workers: u32, queue: u32) -> (Child, String) {
    spawn_server_with(
        store_dir,
        &[
            "--workers",
            &workers.to_string(),
            "--queue",
            &queue.to_string(),
        ],
    )
}

/// Bounded polling: retries `f` every 20 ms until it returns `Some`,
/// panicking with `what` after `timeout`. The deflaked replacement for
/// every "sleep and hope" wait in these suites.
pub fn poll_until<T>(what: &str, timeout: Duration, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Bounded connect-retry: a fresh [`Client`] to `addr`, retrying while
/// the server is still binding (or restarting between fault injections).
pub fn connect_retry(addr: &str) -> Client {
    poll_until(
        &format!("a connection to {addr}"),
        Duration::from_secs(10),
        || Client::connect(addr).ok(),
    )
}

/// Sends one request on a fresh connection and returns the **raw response
/// frame text** — the exact bytes the server wrote, before any JSON
/// re-parse. What the byte-identity assertions compare.
pub fn raw_request(addr: &str, body: &Value) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect for raw request");
    proto::write_frame(&mut conn, serde_json::to_string(body).unwrap().as_bytes()).unwrap();
    let frame = proto::read_frame(&mut conn)
        .unwrap()
        .expect("a response frame");
    String::from_utf8(frame).expect("UTF-8 response")
}

/// Flushes a connection's accepted-request pipeline: writes a `Ping` and
/// reads frames until its pong arrives. A connection's reader handles
/// frames strictly in order, so the pong proves every frame written
/// before it was parsed and accepted (queued or answered) — a
/// deterministic barrier where a fixed sleep would be a race. Response
/// frames that arrived ahead of the pong are returned for later matching.
pub fn ping_barrier(conn: &mut TcpStream) -> Vec<Value> {
    let ping = json!({"id": "barrier", "type": "Ping"});
    proto::write_frame(conn, serde_json::to_string(&ping).unwrap().as_bytes()).unwrap();
    let mut early = Vec::new();
    loop {
        let frame = proto::read_frame(conn)
            .unwrap()
            .expect("a frame before the pong");
        let v: Value = serde_json::from_str(std::str::from_utf8(&frame).unwrap()).unwrap();
        let is_pong = v
            .get("id")
            .map(|i| i.as_str() == Some("barrier"))
            .unwrap_or(false);
        if is_pong {
            return early;
        }
        early.push(v);
    }
}

/// Reserves an ephemeral port by binding and immediately releasing it —
/// for servers that must **restart on the same address** (a replica's
/// `--replica-of` target is fixed for its lifetime).
pub fn pick_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

//! The query service: store and server set-up, and the three client
//! phases over loopback: cold requests over one connection, then cached
//! and pipelined repeats over two.

use crate::trace::Tracer;
use crate::workload::{stream, Spec, COLORING_SEED, K};
use crate::Ops;
use motivo::core::parallel::split_seed;
use motivo::core::BuildConfig;
use motivo::graph::Graph;
use motivo::server::proto::{read_frame, write_frame};
use motivo::server::{Client, Request, ServeOptions, Server};
use motivo::store::{UrnId, UrnStore};
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections of the cached and pipelined phases, each a closed
/// loop. The cold phase uses one: each cold request already fans out over
/// every core.
pub const CONNECTIONS: usize = 2;
/// Requests in flight per connection in the pipelined phase.
pub const PIPELINE_DEPTH: usize = 8;
/// Samples per warm-up request: enough to touch the urn, kept small so
/// the warm-up does not dominate set-up.
const WARMUP_SAMPLES: u64 = 1_000;

pub struct Service {
    pub store: Arc<UrnStore>,
    pub server: Server,
    pub urn: UrnId,
    dir: PathBuf,
}

impl Service {
    /// Stops the server, closes the store and deletes its directory.
    pub fn close(self) {
        let Service {
            store, server, dir, ..
        } = self;
        drop(server);
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Wall time of the store's set-up steps.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub open: Duration,
    pub build: Duration,
}

/// Opens a fresh store in `dir`, builds the run's urn through
/// `UrnStore::build_or_get` (the store's own on-disk build path), binds a
/// server with the default worker count, and warms it up.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    graph: &Graph,
    dir: PathBuf,
    tracer: &Tracer,
    parent: u64,
    ops: &Ops,
) -> Result<(Service, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let span = tracer.begin("store", "UrnStore::open", parent, 0);
    let store = Arc::new(UrnStore::open(&dir).map_err(|e| format!("store open: {e}"))?);
    times.open = span.end();

    let cfg = BuildConfig::new(K).seed(COLORING_SEED).codec(spec.codec);
    let span = tracer.begin("store", "build_or_get", parent, 0);
    let handle = store
        .build_or_get(graph, &cfg)
        .map_err(|e| format!("build_or_get: {e}"))?;
    let built = handle.wait().map(drop).map_err(|e| e.to_string());
    times.build = span.end();
    ops.must("store build", built)?;
    let id = handle.id();

    // Enough queue for every pipelined request: a full queue answers
    // `Busy`, and the phases are sized so that no request fails.
    let opts = ServeOptions::builder()
        .queue_depth(2 * CONNECTIONS * PIPELINE_DEPTH)
        .build()
        .map_err(|e| format!("serve options: {e}"))?;
    let span = tracer.begin("server", "Server::bind", parent, 0);
    let server =
        Server::bind(store.clone(), "127.0.0.1:0", opts).map_err(|e| format!("bind: {e}"))?;
    span.end();

    let span = tracer.begin("server", "warm-up", parent, 0);
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    ops.attempt("hello", client.hello().map_err(|e| e.to_string()));
    for i in 0..2 {
        let seed = split_seed(split_seed(seed, stream::REQUESTS), u64::MAX - i);
        let reply = client.naive_estimates(id, WARMUP_SAMPLES, seed);
        ops.attempt("warm-up request", reply.map_err(|e| e.to_string()));
    }
    span.end();
    Ok((
        Service {
            store,
            server,
            urn: id,
            dir,
        },
        times,
    ))
}

/// When a connection stops sending in one phase.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// After this long (and at least one request).
    Elapsed(Duration),
    /// After this many requests.
    Sent(u64),
}

impl Until {
    fn more(self, start: Instant, sent: u64) -> bool {
        match self {
            Until::Elapsed(d) => sent == 0 || start.elapsed() < d,
            Until::Sent(n) => sent < n,
        }
    }
}

/// The request text of a `NaiveEstimates` for `seed`, without an id.
fn request_body(urn: UrnId, samples: u64, seed: u64) -> String {
    let req = Request::NaiveEstimates {
        urn,
        samples,
        seed,
        threads: 0,
    };
    serde_json::to_string(&req.to_value()).expect("request serializes")
}

/// Prefixes a request body with `"id"`.
fn with_id(body: &str, id: u64) -> String {
    format!("{{\"id\":{id},{}", &body[1..])
}

/// The payload of a success envelope `{"id":…,"ok":<payload>}`, as the
/// exact bytes the server sent.
pub fn ok_payload(envelope: &str) -> Option<&str> {
    let rest = envelope.strip_prefix("{\"id\":")?;
    let at = rest.find(",\"ok\":")?;
    rest[at + 6..].strip_suffix('}')
}

/// The echoed id of an envelope.
fn envelope_id(envelope: &str) -> Option<u64> {
    let rest = envelope.strip_prefix("{\"id\":")?;
    rest[..rest.find(',')?].parse().ok()
}

fn is_busy(envelope: &str) -> bool {
    envelope.contains("\"error\":") && envelope.contains("\"Busy\"")
}

/// (count, sum in ns) of one server histogram.
fn hist_totals(store: &UrnStore, name: &str) -> (u64, u64) {
    let s = store.obs().histogram(name).snapshot();
    (s.count(), s.sum)
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseRun {
    /// Client round trips in seconds; a failed request is `+inf`. Kept
    /// only when the phase reports quantiles.
    pub rtts: Vec<f64>,
    /// Σ and count of the finite round trips.
    pub rtt_sum: f64,
    pub wall: f64,
    pub ok: u64,
    pub failed: u64,
    pub busy: u64,
    /// Repeats whose payload differed from the cold payload.
    pub mismatched: u64,
    /// (count, Σ ns) of the server's queue-wait and service histograms
    /// over the phase.
    pub queue_wait: (u64, u64),
    pub service: (u64, u64),
}

impl PhaseRun {
    fn absorb_conn(&mut self, other: ConnRun) {
        self.rtts.extend(other.rtts);
        self.rtt_sum += other.rtt_sum;
        self.wall = self.wall.max(other.wall);
        self.ok += other.ok;
        self.failed += other.failed;
        self.busy += other.busy;
        self.mismatched += other.mismatched;
    }

    /// Adds another round of the same phase.
    pub fn absorb(&mut self, other: PhaseRun) {
        self.rtts.extend(other.rtts);
        self.rtt_sum += other.rtt_sum;
        self.wall += other.wall;
        self.ok += other.ok;
        self.failed += other.failed;
        self.busy += other.busy;
        self.mismatched += other.mismatched;
        self.queue_wait = (
            self.queue_wait.0 + other.queue_wait.0,
            self.queue_wait.1 + other.queue_wait.1,
        );
        self.service = (
            self.service.0 + other.service.0,
            self.service.1 + other.service.1,
        );
    }

    /// Mean round trip of the requests that succeeded.
    pub fn mean_rtt(&self) -> f64 {
        self.rtt_sum / self.ok.max(1) as f64
    }
}

struct ConnRun {
    keep_rtts: bool,
    rtts: Vec<f64>,
    rtt_sum: f64,
    wall: f64,
    ok: u64,
    failed: u64,
    busy: u64,
    mismatched: u64,
}

impl ConnRun {
    fn new(keep_rtts: bool) -> ConnRun {
        ConnRun {
            keep_rtts,
            rtts: Vec::new(),
            rtt_sum: 0.0,
            wall: 0.0,
            ok: 0,
            failed: 0,
            busy: 0,
            mismatched: 0,
        }
    }

    fn ok(&mut self, rtt: f64) {
        self.ok += 1;
        self.rtt_sum += rtt;
        if self.keep_rtts {
            self.rtts.push(rtt);
        }
    }

    fn fail(&mut self, envelope: Option<&str>) {
        self.failed += 1;
        if envelope.is_some_and(is_busy) {
            self.busy += 1;
        }
        if self.keep_rtts {
            self.rtts.push(f64::INFINITY);
        }
    }
}

/// The cold requests sent, in order: `(request body, payload)`.
pub type ColdSent = Vec<(String, String)>;

/// The cold request connection `c` repeats as its `i`-th request: the
/// connections cycle through the same list from different starts.
fn repeat_of(cold_sent: &ColdSent, c: usize, i: u64) -> &(String, String) {
    &cold_sent[(i as usize + c) % cold_sent.len()]
}

/// Runs `conn_loop` on `conns` connections in parallel and collects the
/// phase, with the server's histogram deltas around it.
fn run_phase<F>(svc: &Service, conns: usize, conn_loop: F) -> Result<PhaseRun, String>
where
    F: Fn(usize) -> Result<ConnRun, String> + Sync,
{
    let qw0 = hist_totals(&svc.store, "server.queue_wait");
    let sv0 = hist_totals(&svc.store, "server.service");
    let runs: Vec<Result<ConnRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let conn_loop = &conn_loop;
                s.spawn(move || conn_loop(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let qw1 = hist_totals(&svc.store, "server.queue_wait");
    let sv1 = hist_totals(&svc.store, "server.service");
    let mut phase = PhaseRun {
        queue_wait: (qw1.0 - qw0.0, qw1.1 - qw0.1),
        service: (sv1.0 - sv0.0, sv1.1 - sv0.1),
        ..PhaseRun::default()
    };
    for r in runs {
        phase.absorb_conn(r?);
    }
    Ok(phase)
}

fn connect(svc: &Service) -> Result<Client, String> {
    Client::connect(svc.server.addr()).map_err(|e| format!("connect: {e}"))
}

/// Cold requests: one connection sends `NaiveEstimates` with seeds no one
/// has asked for, one at a time. Each request spans several shards, so one
/// in flight already runs on every core.
pub fn cold_phase(
    svc: &Service,
    spec: &Spec,
    seed: u64,
    round: u64,
    until: Until,
    tracer: &Tracer,
    parent: u64,
) -> Result<(PhaseRun, ColdSent), String> {
    let cold_sent = std::sync::Mutex::new(Vec::new());
    let base = split_seed(seed, stream::REQUESTS);
    let phase = run_phase(svc, 1, |_| {
        let mut client = connect(svc)?;
        let mut run = ConnRun::new(true);
        let mut sent = Vec::new();
        let start = Instant::now();
        let mut i = 0u64;
        while until.more(start, i) {
            let stream = (round << 40) | i;
            let body = request_body(svc.urn, spec.request_samples, split_seed(base, stream));
            let text = with_id(&body, i);
            let span = tracer.begin("server", "NaiveEstimates.cold", parent, (1 << 32) | i);
            let reply = client.send_raw(&text);
            let rtt = span.end().as_secs_f64();
            match reply.as_deref().ok().and_then(ok_payload) {
                Some(payload) => {
                    run.ok(rtt);
                    sent.push((body, payload.to_string()));
                }
                None => run.fail(reply.as_deref().ok()),
            }
            i += 1;
        }
        run.wall = start.elapsed().as_secs_f64();
        *cold_sent.lock().expect("cold request list poisoned") = sent;
        Ok(run)
    })?;
    let cold_sent = cold_sent.into_inner().expect("cold request list poisoned");
    Ok((phase, cold_sent))
}

/// Cached repeats: every connection cycles through the cold requests, one
/// at a time.
pub fn hit_phase(
    svc: &Service,
    cold_sent: &ColdSent,
    until: Until,
    tracer: &Tracer,
    parent: u64,
) -> Result<PhaseRun, String> {
    run_phase(svc, CONNECTIONS, |c| {
        let mut client = connect(svc)?;
        let mut run = ConnRun::new(true);
        let start = Instant::now();
        let mut i = 0u64;
        while !cold_sent.is_empty() && until.more(start, i) {
            let (body, cold) = repeat_of(cold_sent, c, i);
            let text = with_id(body, i);
            let req_id = ((c as u64 + 1) << 32) | i;
            let span = tracer.begin("server", "NaiveEstimates.hit", parent, req_id);
            let reply = client.send_raw(&text);
            let rtt = span.end().as_secs_f64();
            match reply.as_deref().ok().and_then(ok_payload) {
                Some(payload) => {
                    run.ok(rtt);
                    run.mismatched += u64::from(payload != cold);
                }
                None => run.fail(reply.as_deref().ok()),
            }
            i += 1;
        }
        run.wall = start.elapsed().as_secs_f64();
        Ok(run)
    })
}

/// Pipelined repeats: every connection keeps [`PIPELINE_DEPTH`] cached
/// repeats in flight until it is done sending, then drains.
pub fn pipelined_phase(
    svc: &Service,
    cold_sent: &ColdSent,
    until: Until,
    tracer: &Tracer,
    parent: u64,
) -> Result<PhaseRun, String> {
    run_phase(svc, CONNECTIONS, |c| {
        let mut run = ConnRun::new(false);
        if cold_sent.is_empty() {
            return Ok(run);
        }
        let mut stream =
            TcpStream::connect(svc.server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let mut in_flight: HashMap<u64, crate::trace::Open<'_>> = HashMap::new();
        let start = Instant::now();
        let mut next = 0u64;
        loop {
            while in_flight.len() < PIPELINE_DEPTH && until.more(start, next) {
                let (body, _) = repeat_of(cold_sent, c, next);
                let req_id = ((c as u64 + 1) << 32) | next;
                let span = tracer.begin("server", "NaiveEstimates.pipelined", parent, req_id);
                write_frame(&mut stream, with_id(body, next).as_bytes())
                    .map_err(|e| format!("write: {e}"))?;
                in_flight.insert(next, span);
                next += 1;
            }
            if in_flight.is_empty() {
                break;
            }
            let frame = read_frame(&mut stream)
                .map_err(|e| format!("read: {e}"))?
                .ok_or("server closed a pipelined connection")?;
            let text = String::from_utf8(frame).map_err(|_| "response is not UTF-8")?;
            let id = envelope_id(&text).ok_or("response without an id")?;
            let span = in_flight.remove(&id).ok_or("response to no request")?;
            let rtt = span.end().as_secs_f64();
            match ok_payload(&text) {
                Some(payload) => {
                    run.ok(rtt);
                    run.mismatched += u64::from(payload != repeat_of(cold_sent, c, id).1);
                }
                None => run.fail(Some(&text)),
            }
        }
        run.wall = start.elapsed().as_secs_f64();
        Ok(run)
    })
}

/// The server's query-cache counters `(hits, misses, coalesced)`, read
/// through a `Stats` request.
pub fn query_cache(svc: &Service) -> Result<(u64, u64, u64), String> {
    let mut client = connect(svc)?;
    let stats = client.stats(None).map_err(|e| format!("stats: {e}"))?;
    let qc = stats
        .get("query_cache")
        .ok_or("stats without query_cache")?;
    let field = |k: &str| {
        qc.get(k)
            .and_then(|v| v.as_u64())
            .ok_or(format!("query_cache.{k} missing"))
    };
    Ok((field("hits")?, field("misses")?, field("coalesced")?))
}

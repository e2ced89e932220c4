//! The wire protocol: length-prefixed JSON frames and the message schema
//! (documented in DESIGN.md §6).
//!
//! Every frame is a `u32le` byte length followed by that many bytes of
//! UTF-8 JSON. Requests are objects with a `"type"` discriminant and an
//! optional `"id"` the server echoes back verbatim, so a pipelining client
//! can match out-of-order responses to requests. Responses carry either
//! `"ok"` (the payload) or `"error"` (`{"kind", "message"}`).
//!
//! **One schema.** Each request kind and each typed reply is declared
//! once below — fields, defaults, ranges, reply type — and
//! [`Request::parse`], [`Request::to_value`], [`Request::KINDS`],
//! [`Response::parse`] and every reply's encoding are generated from it.
//! A JSON key is its field's name, and keys go on the wire in
//! declaration order. The server builds reply structs and the client
//! decodes them with the same code, so the two cannot drift apart.
//!
//! **Determinism:** payloads never embed wall-clock or other
//! run-dependent values, and every collection is serialized in a canonical
//! order (classes ascending by registry index, tallies ascending by
//! canonical code). A request carrying a seed therefore produces
//! byte-identical payload text to the equivalent in-process
//! [`motivo_store::StoreQuery`] call, at any worker-pool size.

use motivo_core::parallel::NAIVE_SHARD_SAMPLES;
use motivo_core::{AgsResult, Estimates, RecordCodec};
use motivo_graphlet::{name, Graphlet, GraphletRegistry};
use motivo_store::{BuildStatus, CacheStats, FileMeta, QueryStats, StoreError, UrnId, UrnMeta};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{Read, Write};

use crate::wire::Wire;

/// Hard cap on one frame's payload; a peer announcing more is corrupt (or
/// hostile) and gets its connection dropped instead of an allocation.
pub const MAX_FRAME: usize = 8 << 20;

/// Hard cap on sub-requests per `Batch` frame: bounds the memory one
/// worker slot can be asked to hold, like [`MAX_FRAME`] bounds one frame.
pub const MAX_BATCH: usize = 1024;

/// Hard cap on a request's `samples`, `max_samples` and `epoch`: 65,536
/// naive shards. The samplers allocate per-shard state up front, so an
/// unbounded count would let one frame ask for petabytes and abort the
/// process.
pub const MAX_SAMPLES: u64 = NAIVE_SHARD_SAMPLES << 16;

/// The wire-protocol version this build speaks, negotiated by `Hello`.
pub const PROTO_VERSION: u64 = 1;

/// Per-connection cap on requests in flight through the worker pool.
/// A pipelining client that exceeds it gets `Busy` for the overflow —
/// the same backpressure contract as a full queue, applied per
/// connection so one firehose cannot monopolize the shared queue.
/// Advertised in the `Hello` response as `max_pipeline`.
pub const MAX_PIPELINE: usize = 128;

/// Capability strings advertised in the `Hello` response.
pub const FEATURES: [&str; 4] = ["batch", "pipelining", "query_cache", "replication"];

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary (the peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame and flushes it. Header and payload go
/// out as **one** write: on an unbuffered socket, two small writes make
/// two packets, and Nagle's algorithm + delayed ACK turn every
/// request/response round-trip into a multi-millisecond stall.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

// ---------------------------------------------------------------------------
// The schema: one entry per request kind, ascending by kind name. Field
// syntax is `name: Type [= default] [; lo..=hi]`; `#[unkeyed]` marks a
// field that cannot change the payload and so stays out of the cache key.
// Defaults follow the CLI's; `threads: 0` means all cores.
// ---------------------------------------------------------------------------

wire_requests! {
    /// Adaptive graphlet sampling against a built urn (paper §4):
    /// `c_bar` is the cover threshold c̄, `epoch` the samples per epoch,
    /// `idle_limit` the samples without a discovery before stopping early.
    Ags {
        urn: UrnId,
        max_samples: u64 = 100_000; 0..=MAX_SAMPLES,
        seed: u64 = 0,
        #[unkeyed] threads: usize = 0,
        c_bar: Option<u64>,
        epoch: Option<u64>; 1..=MAX_SAMPLES,
        idle_limit: Option<u64>,
    } => AgsReply,
    /// A list of sub-requests carried through one frame and one
    /// worker-pool slot. Sub-documents are kept raw and parsed when the
    /// batch executes, so one malformed sub-request becomes a
    /// per-sub-request error envelope instead of failing the whole batch.
    /// Responses come back in request order.
    Batch { requests: Vec<Value>; 0..=MAX_BATCH as u64 } => BatchReply,
    /// Enqueue a build on the store's background worker. `graph` is a path
    /// readable by the *server*. With `"wait": true` the response is held
    /// until the build finishes (this occupies one pool worker).
    Build {
        graph: String,
        k: u32; 2..=16,
        seed: u64 = 0,
        codec: RecordCodec = RecordCodec::Plain,
        wait: bool = false,
        lambda: Option<f64>,
    } => BuildReply,
    /// Optional versioned handshake: the client announces its protocol
    /// version and the feature strings it understands; the server answers
    /// with its version, supported request kinds, features, and the
    /// reactor's pipelining limits (see [`hello_payload`]). Clients that
    /// skip `Hello` keep working — the protocol is unchanged for them.
    Hello { proto_version: u64 = PROTO_VERSION, features: Vec<String> = Vec::new() } => HelloReply,
    /// Every urn the store's manifest knows.
    ListUrns => UrnsReply,
    /// The server's metrics registry: per-request-kind counters and
    /// latency quantiles, plus a Prometheus-style text rendering of every
    /// counter/gauge/histogram in the store's [`motivo_obs::Registry`].
    Metrics => Value,
    /// Naive (uniform treelet) estimation against a built urn.
    NaiveEstimates {
        urn: UrnId,
        samples: u64 = 100_000; 0..=MAX_SAMPLES,
        seed: u64 = 0,
        #[unkeyed] threads: usize = 0,
    } => EstimatesReply,
    /// Liveness probe; answered inline by the reactor, so it works even
    /// when the worker queue is saturated.
    Ping => Pong,
    /// Turn a replica into a leader: clear the read-only gate, sweep
    /// builds the dead leader left unfinished, stop the sync session.
    /// `BadRequest` on a server that is already a leader.
    Promote => PromoteReply,
    /// Replication pull (replica → leader): journal frames from `offset`
    /// onward. `prefix_crc` is the CRC32 of the replica's own journal
    /// bytes and `log_id` the CRC32 of the manifest snapshot it
    /// bootstrapped from; the leader flags the fetch `stale` unless both
    /// prove the replica's log is a byte prefix of the same lineage.
    ReplFetch {
        replica: String,
        offset: u64 = 0,
        prefix_crc: u32 = 0,
        log_id: u32 = 0,
    } => ReplFetchReply,
    /// One chunk of a sealed urn or graph file, hex-encoded.
    ReplFile {
        name: String,
        offset: u64 = 0,
        target: ReplTarget,
        replica: Option<String>,
    } => ReplFileReply,
    /// Replication file inventory (name/len/crc per file) for one urn
    /// directory or one cached graph, so a replica fetches only what it is
    /// missing. `replica` (optional) attributes the traffic in `ReplStatus`.
    ReplFiles { target: ReplTarget, replica: Option<String> } => ReplFilesReply,
    /// Replication bootstrap: the leader's raw `MANIFEST` snapshot bytes.
    ReplManifest => ReplManifestReply,
    /// Replication health: role, journal offset, log id, and (on a
    /// leader) per-replica lag; (on a replica) sync-session status.
    ReplStatus => Value,
    /// Raw graphlet occurrences: a canonical-code tally of sampled copies.
    Sample {
        urn: UrnId,
        samples: u64 = 100_000; 0..=MAX_SAMPLES,
        seed: u64 = 0,
        #[unkeyed] threads: usize = 0,
    } => TallyReply,
    /// Graceful shutdown: stop accepting, drain in-flight requests, flush
    /// store stats, exit. Answered inline like `Ping`. Refused with
    /// [`ErrorKind::ReadOnly`] on a replica — a replica's lifecycle belongs
    /// to its operator (or a `Promote`), not to arbitrary wire peers.
    Shutdown => ShuttingDown,
    /// Serving counters, per urn or (with no `"urn"`) aggregated.
    Stats { urn: Option<UrnId> } => Value,
}

/// What a [`Request::ReplFiles`]/[`Request::ReplFile`] request addresses:
/// one urn's directory of sealed table files, or one graph cached by
/// fingerprint in the store's `graphs/` directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplTarget {
    Urn(UrnId),
    Graph(u64),
}

impl ReplTarget {
    /// The document keys of the two targets; a request carries exactly
    /// one of them.
    const KEYS: [&'static str; 2] = ["urn", "graph"];
}

/// A target flattens into its request: `"urn"` (an id) or `"graph"` (a
/// 16-hex-digit fingerprint), never both.
impl Wire for ReplTarget {
    fn decode(doc: &Value, _key: &str) -> Result<ReplTarget, String> {
        let [urn, graph] = ReplTarget::KEYS;
        match (doc.get(urn), doc.get(graph)) {
            (Some(id), None) => UrnId::decode(&id, urn).map(ReplTarget::Urn),
            (None, Some(fp)) => fp
                .as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .map(ReplTarget::Graph)
                .ok_or_else(|| format!("`{graph}` must be a 16-hex-digit fingerprint")),
            _ => Err(format!("exactly one of `{urn}` or `{graph}` is required")),
        }
    }

    fn encode(&self) -> Value {
        match self {
            ReplTarget::Urn(id) => id.encode(),
            ReplTarget::Graph(fp) => json!(format!("{fp:016x}")),
        }
    }

    fn read(doc: &Value, key: &str) -> Result<Option<ReplTarget>, String> {
        ReplTarget::decode(doc, key).map(Some)
    }

    fn write(&self, doc: &mut Value, _key: &str) {
        let [urn, graph] = ReplTarget::KEYS;
        let key = if matches!(self, ReplTarget::Urn(_)) {
            urn
        } else {
            graph
        };
        doc.set(key, self.encode());
    }
}

impl Request {
    /// The canonical cache key of a deterministic request, or `None` for
    /// request types whose responses depend on mutable server state
    /// (`ListUrns`, `Stats`, `Build`, …). `content_id` is the urn's
    /// build-key content identity (graph fingerprint + k + seed + bias +
    /// 0-rooting + codec, [`motivo_store::BuildKey::content_id`]),
    /// binding the key to the urn's *content* so a store whose ids were
    /// ever reassigned — even to a different build of the same graph —
    /// cannot replay a stale payload.
    ///
    /// The key is the canonical document minus the echoed `id` — fixed
    /// field order, defaults materialized — so semantically identical
    /// frames share an entry. `#[unkeyed]` fields (`threads`) are
    /// **excluded**: seeded responses are byte-identical at any thread
    /// count (DESIGN.md §6.4), so requests differing only in `threads`
    /// are the same cache line.
    pub fn cache_key(&self, content_id: u64) -> Option<String> {
        self.cached_urn()?;
        let mut doc = self.document(true);
        doc.set("fp", json!(format!("{content_id:016x}")));
        Some(serde_json::to_string(&doc).expect("key serialize"))
    }

    /// The urn a cacheable request targets ([`Request::cache_key`] needs
    /// its content id); `None` for uncacheable request types.
    pub fn cached_urn(&self) -> Option<UrnId> {
        match self {
            Request::NaiveEstimates { urn, .. }
            | Request::Ags { urn, .. }
            | Request::Sample { urn, .. } => Some(*urn),
            _ => None,
        }
    }
}

/// The `Hello` response payload. Answered inline by the reactor (like
/// `Ping`), so a client can negotiate before the worker pool is even
/// warm. Everything here is static for the life of the process.
pub fn hello_payload() -> Value {
    HelloReply {
        server: concat!("motivo ", env!("CARGO_PKG_VERSION")).into(),
        proto_version: PROTO_VERSION,
        kinds: Request::KINDS.iter().map(|k| k.to_string()).collect(),
        features: FEATURES.iter().map(|f| f.to_string()).collect(),
        max_frame: MAX_FRAME as u64,
        max_batch: MAX_BATCH as u64,
        max_pipeline: MAX_PIPELINE as u64,
    }
    .encode()
}

// ---------------------------------------------------------------------------
// Typed replies. `Stats`, `Metrics` and `ReplStatus` answer raw `Value`s:
// they are wide, nested diagnostics read by people and dashboards, and a
// struct would freeze exactly the parts meant to evolve freely.
// ---------------------------------------------------------------------------

wire_replies! {
    /// `Ping` ack: `{"pong": true}`.
    pub struct Pong {
        pub pong: bool,
    }

    /// `Shutdown` ack: the server is draining.
    pub struct ShuttingDown {
        pub shutting_down: bool,
    }

    /// What the server said in answer to a `Hello`: identity, protocol
    /// version, the request kinds it accepts, and the reactor's limits.
    pub struct HelloReply {
        /// Server identity string, e.g. `"motivo 0.1.0"`.
        pub server: String,
        pub proto_version: u64,
        /// Request kinds this server dispatches (sorted).
        pub kinds: Vec<String>,
        /// Capability strings (see [`FEATURES`]).
        pub features: Vec<String>,
        pub max_frame: u64,
        pub max_batch: u64,
        /// Per-connection in-flight cap; pipelining past it earns `Busy`.
        pub max_pipeline: u64,
    }

    /// One manifest row of a `ListUrns` reply.
    pub struct UrnRow {
        /// Printed id, e.g. `"urn-3"` (accepted back by `urn` fields).
        pub id: String,
        pub k: u32,
        pub seed: u64,
        pub codec: String,
        /// `null` on the wire for an unbiased build.
        pub lambda: Option<f64>,
        /// `"pending"`, `"built"`, or `"failed"`.
        pub status: String,
        pub table_bytes: u64,
        pub records: u64,
        /// Graph fingerprint, 16 hex digits.
        pub fingerprint: String,
    }

    /// A `ListUrns` reply: every urn the manifest knows plus the count of
    /// cached graphs.
    pub struct UrnsReply {
        pub urns: Vec<UrnRow>,
        pub graphs: u64,
    }

    /// One graphlet class of an estimates payload.
    pub struct ClassRow {
        pub graphlet: String,
        pub occurrences: u64,
        pub colorful: f64,
        pub count: f64,
        pub frequency: f64,
    }

    /// A `NaiveEstimates` reply (also nested inside [`AgsReply`]).
    pub struct EstimatesReply {
        pub k: u32,
        pub samples: u64,
        pub total_count: f64,
        /// Ascending by registry index — the canonical payload order.
        pub classes: Vec<ClassRow>,
    }

    /// An `Ags` reply: estimates plus the adaptive-run counters.
    pub struct AgsReply {
        pub estimates: EstimatesReply,
        pub switches: u64,
        pub covered: u64,
        pub shape_usage: Vec<u64>,
    }

    /// One canonical-code row of a `Sample` reply.
    pub struct TallyRow {
        /// Canonical graphlet code (a `0x…` hex string on the wire).
        pub code: u128,
        pub graphlet: String,
        pub occurrences: u64,
    }

    /// A `Sample` reply: a canonical-code tally, ascending by code.
    pub struct TallyReply {
        pub samples: u64,
        pub classes: Vec<TallyRow>,
    }

    /// A `Build` reply: the urn assigned and its status after the request
    /// (post-wait when `"wait": true` was sent).
    pub struct BuildReply {
        pub urn: String,
        pub status: String,
    }

    /// A `Batch` reply: per-sub-request envelopes, in request order.
    pub struct BatchReply {
        pub responses: Vec<Value>,
    }

    /// A `ReplFetch` reply: decoded journal frame payloads from the leader.
    pub struct ReplFetchReply {
        pub payloads: Vec<Vec<u8>>,
        /// The leader's journal length — how far behind the replica is.
        pub leader_len: u64,
        pub log_id: u32,
        /// Set when the replica's journal is not a byte prefix of the
        /// leader's lineage: discard local state and re-bootstrap.
        pub stale: bool,
    }

    /// A `ReplManifest` reply: raw manifest snapshot bytes plus the log id
    /// binding them to a journal lineage.
    pub struct ReplManifestReply {
        pub manifest: Vec<u8>,
        pub log_id: u32,
    }

    /// A `ReplFiles` reply: the files a replica may need to mirror.
    pub struct ReplFilesReply {
        pub files: Vec<FileMeta>,
    }

    /// A `ReplFile` reply: one decoded chunk and the file's total length.
    pub struct ReplFileReply {
        pub data: Vec<u8>,
        pub total: u64,
    }

    /// A `Promote` reply.
    pub struct PromoteReply {
        pub promoted: bool,
        /// Builds the dead leader left unfinished, now swept to `failed`.
        pub swept: u64,
    }

    /// The body of an error envelope: an [`ErrorKind`] name and a
    /// human-readable message.
    pub struct ErrorBody {
        pub kind: String,
        pub message: String,
    }
}

wire_fields!(FileMeta {
    name: String,
    len: u64,
    crc: u32,
});

impl EstimatesReply {
    /// An estimate set, classes ascending by registry index — with the
    /// fresh per-request registry the server uses, that order (and hence
    /// the whole payload) is a pure function of the tally, which is what
    /// makes responses byte-identical to in-process calls.
    pub(crate) fn of(est: &Estimates, registry: &GraphletRegistry) -> EstimatesReply {
        EstimatesReply {
            k: est.k,
            samples: est.samples,
            total_count: est.total_count(),
            classes: est
                .per_graphlet
                .iter()
                .map(|e| ClassRow {
                    graphlet: name(&registry.info(e.index).graphlet),
                    occurrences: e.occurrences,
                    colorful: e.colorful,
                    count: e.count,
                    frequency: e.frequency,
                })
                .collect(),
        }
    }
}

impl AgsReply {
    /// An AGS outcome: estimates plus the adaptive-run counters.
    pub(crate) fn of(res: &AgsResult, registry: &GraphletRegistry) -> AgsReply {
        AgsReply {
            estimates: EstimatesReply::of(&res.estimates, registry),
            switches: res.switches,
            covered: res.covered as u64,
            shape_usage: res.shape_usage.clone(),
        }
    }
}

impl TallyReply {
    /// A canonical-code tally, ascending by code (deterministic —
    /// hash-map iteration order never leaks into the payload).
    pub(crate) fn of(tally: &HashMap<u128, u64>, samples: u64) -> TallyReply {
        let mut rows: Vec<(u128, u64)> = tally.iter().map(|(&c, &n)| (c, n)).collect();
        rows.sort_unstable_by_key(|&(c, _)| c);
        let classes = rows
            .into_iter()
            .map(|(code, occurrences)| TallyRow {
                code,
                graphlet: name(&Graphlet::from_code(code).expect("tally codes are canonical")),
                occurrences,
            })
            .collect();
        TallyReply { samples, classes }
    }
}

impl UrnRow {
    /// One manifest entry.
    pub(crate) fn of(m: &UrnMeta) -> UrnRow {
        UrnRow {
            id: m.id.to_string(),
            k: m.key.k,
            seed: m.key.seed,
            codec: m.key.codec.to_string(),
            lambda: m.key.lambda(),
            status: match m.status {
                BuildStatus::Pending => "pending",
                BuildStatus::Built => "built",
                BuildStatus::Failed => "failed",
            }
            .into(),
            table_bytes: m.table_bytes,
            records: m.records,
            fingerprint: format!("{:016x}", m.key.fingerprint),
        }
    }
}

/// Serializes an estimate set as an encoded [`EstimatesReply`], classes
/// ascending by registry index.
pub fn estimates_json(est: &Estimates, registry: &GraphletRegistry) -> Value {
    EstimatesReply::of(est, registry).encode()
}

/// Machine-matchable error categories of the wire protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The worker queue was full; retry later (backpressure, not failure).
    Busy,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The request didn't parse or failed validation.
    BadRequest,
    /// No urn with the requested id.
    UnknownUrn,
    /// The urn exists but is not (yet) built.
    NotBuilt,
    /// The server is a read-only replica; send mutations to its leader
    /// (or promote it first).
    ReadOnly,
    /// Any other store-side failure.
    Store,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Busy => "Busy",
            ErrorKind::ShuttingDown => "ShuttingDown",
            ErrorKind::BadRequest => "BadRequest",
            ErrorKind::UnknownUrn => "UnknownUrn",
            ErrorKind::NotBuilt => "NotBuilt",
            ErrorKind::ReadOnly => "ReadOnly",
            ErrorKind::Store => "Store",
        }
    }

    /// Maps a store error onto the wire categories.
    pub fn of_store(e: &StoreError) -> ErrorKind {
        match e {
            StoreError::UnknownUrn(_) => ErrorKind::UnknownUrn,
            StoreError::NotBuilt(_) => ErrorKind::NotBuilt,
            StoreError::ReadOnly => ErrorKind::ReadOnly,
            _ => ErrorKind::Store,
        }
    }
}

/// The echoed `"id"` of a request document (`null` when it has none).
pub(crate) fn request_id(doc: &Value) -> Value {
    doc.get("id").unwrap_or(json!(null))
}

/// A success envelope: `{"id": …, "ok": payload}`.
pub fn ok_response(id: &Value, payload: Value) -> Value {
    json!({"id": id.clone(), "ok": payload})
}

/// An error envelope: `{"id": …, "error": {"kind", "message"}}`.
pub fn error_response(id: &Value, kind: ErrorKind, message: &str) -> Value {
    json!({"id": id.clone(), "error": error_body(kind, message)})
}

fn error_body(kind: ErrorKind, message: &str) -> Value {
    let kind = kind.as_str().into();
    let message = message.into();
    ErrorBody { kind, message }.encode()
}

/// Splices a success envelope from already-serialized parts, producing
/// the exact bytes `to_string(&ok_response(id, payload))` would — this is
/// how a cached payload is framed without re-parsing it (asserted
/// byte-for-byte in this module's tests).
pub fn ok_envelope_text(id_text: &str, payload_text: &str) -> String {
    format!("{{\"id\":{id_text},\"ok\":{payload_text}}}")
}

/// Serializes an error envelope directly to text (the splicing
/// counterpart of [`ok_envelope_text`], for per-sub-request batch errors).
pub fn error_envelope_text(id_text: &str, kind: ErrorKind, message: &str) -> String {
    let error = serde_json::to_string(&error_body(kind, message)).expect("error serialize");
    format!("{{\"id\":{id_text},\"error\":{error}}}")
}

/// Serializes one urn's serving counters as a `Stats` row.
pub(crate) fn urn_stats_json(id: UrnId, s: &QueryStats) -> Value {
    json!({"id": id.to_string(), "stats": query_stats_json(s)})
}

/// Serializes serving counters, latency quantiles included (log-bucket
/// histogram estimates — see `motivo_obs::Histogram`; `max_us` is exact).
pub fn query_stats_json(s: &QueryStats) -> Value {
    json!({
        "queries": s.queries,
        "cache_hits": s.cache_hits,
        "cache_misses": s.cache_misses,
        "total_latency_ns": s.total_latency.as_nanos() as u64,
        "p50_us": s.p50_latency.as_micros() as u64,
        "p90_us": s.p90_latency.as_micros() as u64,
        "p99_us": s.p99_latency.as_micros() as u64,
        "max_us": s.max_latency.as_micros() as u64,
    })
}

wire_fields!(CacheStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: usize,
    resident_urns: usize,
});

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::from_str;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"type\":\"Ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"type\":\"Ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_is_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(7); // header + half the payload
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn requests_parse_with_defaults() {
        let req = Request::parse(&from_str(r#"{"type":"ListUrns"}"#).unwrap()).unwrap();
        assert_eq!(req, Request::ListUrns);

        let v = from_str(r#"{"id":7,"type":"NaiveEstimates","urn":"urn-3","seed":9}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        let req = Request::parse(&v).unwrap();
        assert_eq!(
            req,
            Request::NaiveEstimates {
                urn: UrnId(3),
                samples: 100_000,
                seed: 9,
                threads: 0,
            }
        );

        let v = from_str(r#"{"type":"Build","graph":"g.mtvg","k":5,"codec":"succinct"}"#).unwrap();
        let req = Request::parse(&v).unwrap();
        assert_eq!(
            req,
            Request::Build {
                graph: "g.mtvg".into(),
                k: 5,
                seed: 0,
                lambda: None,
                codec: RecordCodec::Succinct,
                wait: false,
            }
        );
    }

    #[test]
    fn replication_requests_parse() {
        let parse = |doc: &str| Request::parse(&from_str(doc).unwrap()).unwrap();
        assert_eq!(
            parse(r#"{"type":"ReplFetch","replica":"r1","offset":96,"prefix_crc":7,"log_id":12}"#),
            Request::ReplFetch {
                replica: "r1".into(),
                offset: 96,
                prefix_crc: 7,
                log_id: 12,
            }
        );
        assert_eq!(parse(r#"{"type":"ReplManifest"}"#), Request::ReplManifest);
        assert_eq!(
            parse(r#"{"type":"ReplFiles","urn":3}"#),
            Request::ReplFiles {
                target: ReplTarget::Urn(UrnId(3)),
                replica: None,
            }
        );
        assert_eq!(
            parse(
                r#"{"type":"ReplFile","graph":"00ff00ff00ff00ff","name":"level-2.mtvt","offset":1024,"replica":"r2"}"#
            ),
            Request::ReplFile {
                target: ReplTarget::Graph(0x00ff00ff00ff00ff),
                name: "level-2.mtvt".into(),
                offset: 1024,
                replica: Some("r2".into()),
            }
        );
        assert_eq!(parse(r#"{"type":"ReplStatus"}"#), Request::ReplStatus);
        assert_eq!(parse(r#"{"type":"Promote"}"#), Request::Promote);
        // Replication responses depend on mutable server state: never cached.
        for doc in [
            r#"{"type":"ReplManifest"}"#,
            r#"{"type":"ReplStatus"}"#,
            r#"{"type":"ReplFiles","urn":0}"#,
        ] {
            assert_eq!(parse(doc).cache_key(1), None, "{doc}");
        }
    }

    #[test]
    fn bad_replication_requests_are_rejected() {
        for (doc, needle) in [
            (r#"{"type":"ReplFetch","offset":0}"#, "`replica`"),
            (
                r#"{"type":"ReplFetch","replica":"r","prefix_crc":4294967296}"#,
                "32 bits",
            ),
            (r#"{"type":"ReplFiles"}"#, "exactly one"),
            (
                r#"{"type":"ReplFiles","urn":0,"graph":"00"}"#,
                "exactly one",
            ),
            (r#"{"type":"ReplFiles","graph":"zz"}"#, "fingerprint"),
            (r#"{"type":"ReplFile","urn":0}"#, "`name`"),
        ] {
            let err = Request::parse(&from_str(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_reasons() {
        for (doc, needle) in [
            (r#"{"no_type":1}"#, "type"),
            (r#"{"type":"Teleport"}"#, "unknown request type"),
            (r#"{"type":"NaiveEstimates"}"#, "`urn`"),
            (r#"{"type":"NaiveEstimates","urn":-3}"#, "`urn`"),
            (r#"{"type":"Sample","urn":0,"samples":"many"}"#, "`samples`"),
            (r#"{"type":"Build","graph":"g","k":1}"#, "`k`"),
            (r#"{"type":"Build","k":4}"#, "`graph`"),
            (
                r#"{"type":"Build","graph":"g","k":4,"codec":"zip"}"#,
                "codec",
            ),
        ] {
            let err = Request::parse(&from_str(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn batch_parses_and_keeps_subrequests_raw() {
        let v = from_str(
            r#"{"id":1,"type":"Batch","requests":[{"type":"Ping"},{"type":"Nope"},{"bad":0}]}"#,
        )
        .unwrap();
        let Request::Batch { requests: subs } = Request::parse(&v).unwrap() else {
            panic!("expected Batch");
        };
        // Sub-documents are raw: the malformed ones parse later, into
        // per-sub-request error envelopes.
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].get("type").unwrap().as_str(), Some("Ping"));

        let err = Request::parse(&from_str(r#"{"type":"Batch"}"#).unwrap()).unwrap_err();
        assert!(err.contains("requests"), "{err}");
        let err =
            Request::parse(&from_str(r#"{"type":"Batch","requests":3}"#).unwrap()).unwrap_err();
        assert!(err.contains("array"), "{err}");
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let doc = format!(
            r#"{{"type":"Batch","requests":[{}]}}"#,
            vec![r#"{"type":"Ping"}"#; MAX_BATCH + 1].join(",")
        );
        let err = Request::parse(&from_str(&doc).unwrap()).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn cache_keys_are_canonical_and_ignore_threads_and_id() {
        let parse = |doc: &str| Request::parse(&from_str(doc).unwrap()).unwrap();
        // Field order, echoed id, and thread count don't change the key.
        let a = parse(r#"{"id":1,"type":"Sample","urn":0,"samples":500,"seed":3,"threads":1}"#);
        let b =
            parse(r#"{"id":2,"seed":3,"samples":500,"urn":"urn-0","type":"Sample","threads":8}"#);
        assert_eq!(a.cache_key(0xabcd), b.cache_key(0xabcd));
        // Different seed, samples, urn, or fingerprint: different keys.
        let c = parse(r#"{"type":"Sample","urn":0,"samples":500,"seed":4}"#);
        assert_ne!(a.cache_key(0xabcd), c.cache_key(0xabcd));
        assert_ne!(a.cache_key(0xabcd), a.cache_key(0xabce));
        // Ags optional knobs are materialized into the key.
        let d = parse(r#"{"type":"Ags","urn":0,"max_samples":100,"seed":1}"#);
        let e = parse(r#"{"type":"Ags","urn":0,"max_samples":100,"seed":1,"epoch":64}"#);
        assert_ne!(d.cache_key(1), e.cache_key(1));
        // Mutable-state requests are not cacheable.
        assert_eq!(parse(r#"{"type":"ListUrns"}"#).cache_key(1), None);
        assert_eq!(parse(r#"{"type":"Stats"}"#).cache_key(1), None);
        assert_eq!(parse(r#"{"type":"Metrics"}"#).cache_key(1), None);
        assert_eq!(
            parse(r#"{"type":"Batch","requests":[]}"#).cache_key(1),
            None
        );
    }

    /// The splicing fast path must produce the exact bytes the `Value`
    /// path would — otherwise a cached response would differ from a cold
    /// one, breaking the cache-exactness guarantee.
    #[test]
    fn spliced_envelopes_match_value_serialization() {
        for (id, payload) in [
            (json!(3), json!({"x": 1})),
            (json!(null), json!([1, 2, 3])),
            (json!("req-7"), json!({"nested": json!({"deep": true})})),
        ] {
            let id_text = serde_json::to_string(&id).unwrap();
            let payload_text = serde_json::to_string(&payload).unwrap();
            assert_eq!(
                ok_envelope_text(&id_text, &payload_text),
                serde_json::to_string(&ok_response(&id, payload)).unwrap()
            );
            assert_eq!(
                error_envelope_text(&id_text, ErrorKind::Busy, "queue full"),
                serde_json::to_string(&error_response(&id, ErrorKind::Busy, "queue full")).unwrap()
            );
        }
    }

    #[test]
    fn envelopes_have_the_documented_shape() {
        let ok = ok_response(&json!(3), json!({"x": 1}));
        assert_eq!(
            serde_json::to_string(&ok).unwrap(),
            r#"{"id":3,"ok":{"x":1}}"#
        );
        let err = error_response(&json!(null), ErrorKind::Busy, "queue full");
        let text = serde_json::to_string(&err).unwrap();
        assert!(text.contains(r#""kind":"Busy""#), "{text}");
    }

    /// `to_value` → `parse` must reproduce the request exactly for every
    /// variant, including the absent-vs-set distinction of optional
    /// fields — this is the contract the typed client rides on.
    #[test]
    fn to_value_round_trips_every_variant() {
        let reqs = vec![
            Request::Ping,
            Request::Hello {
                proto_version: 1,
                features: vec!["batch".into()],
            },
            Request::Hello {
                proto_version: PROTO_VERSION,
                features: Vec::new(),
            },
            Request::ListUrns,
            Request::NaiveEstimates {
                urn: UrnId(3),
                samples: 500,
                seed: 7,
                threads: 2,
            },
            Request::Ags {
                urn: UrnId(1),
                max_samples: 1000,
                c_bar: None,
                epoch: None,
                idle_limit: None,
                seed: 0,
                threads: 0,
            },
            Request::Ags {
                urn: UrnId(1),
                max_samples: 1000,
                c_bar: Some(40),
                epoch: Some(64),
                idle_limit: Some(9),
                seed: 3,
                threads: 1,
            },
            Request::Sample {
                urn: UrnId(2),
                samples: 64,
                seed: 1,
                threads: 0,
            },
            Request::Stats { urn: None },
            Request::Stats {
                urn: Some(UrnId(4)),
            },
            Request::Metrics,
            Request::Build {
                graph: "g.mtvg".into(),
                k: 5,
                seed: 11,
                lambda: None,
                codec: RecordCodec::Plain,
                wait: false,
            },
            Request::Build {
                graph: "g.txt".into(),
                k: 4,
                seed: 0,
                lambda: Some(0.5),
                codec: RecordCodec::Succinct,
                wait: true,
            },
            Request::Batch {
                requests: vec![json!({"type": "Ping"})],
            },
            Request::Shutdown,
            Request::ReplFetch {
                replica: "r1".into(),
                offset: 96,
                prefix_crc: 0xdead_beef,
                log_id: 42,
            },
            Request::ReplManifest,
            Request::ReplFiles {
                target: ReplTarget::Urn(UrnId(1)),
                replica: None,
            },
            Request::ReplFiles {
                target: ReplTarget::Graph(0xabcd),
                replica: Some("r2".into()),
            },
            Request::ReplFile {
                target: ReplTarget::Urn(UrnId(1)),
                name: "table.bin".into(),
                offset: 4096,
                replica: Some("r1".into()),
            },
            Request::ReplStatus,
            Request::Promote,
        ];
        for req in reqs {
            let doc = req.to_value();
            let back = Request::parse(&doc).unwrap_or_else(|e| panic!("{e} for {doc:?}"));
            assert_eq!(back, req, "round-trip through {doc:?}");
            // And through actual wire text, like the client sends it.
            let text = serde_json::to_string(&doc).unwrap();
            assert_eq!(Request::parse(&from_str(&text).unwrap()).unwrap(), req);
        }
    }

    #[test]
    fn hello_payload_advertises_kinds_and_limits() {
        let hello = hello_payload();
        let reply = Response::parse("Hello", &hello).unwrap();
        let Response::Hello(h) = reply else {
            panic!("expected Hello, got {reply:?}")
        };
        assert_eq!(h.proto_version, PROTO_VERSION);
        assert_eq!(h.max_frame, MAX_FRAME as u64);
        assert_eq!(h.max_batch, MAX_BATCH as u64);
        assert_eq!(h.max_pipeline, MAX_PIPELINE as u64);
        assert!(h.server.starts_with("motivo "), "{}", h.server);
        assert!(h.features.iter().any(|f| f == "pipelining"));
        // Kinds are advertised ascending (the schema's order); `Invalid`
        // (a metrics-only label) is not advertised.
        assert!(h.kinds.windows(2).all(|w| w[0] < w[1]), "{:?}", h.kinds);
        assert!(!h.kinds.iter().any(|k| k == "Invalid"));
        assert!(h.kinds.iter().any(|k| k == "Hello"));
        assert!(h.kinds.iter().any(|k| k == "NaiveEstimates"));
    }

    #[test]
    fn responses_decode_typed_payloads() {
        let est = from_str(
            r#"{"k":3,"samples":10,"total_count":6.5,"classes":[
                {"graphlet":"path-3","occurrences":4,"colorful":2.0,
                 "count":5.5,"frequency":0.8}]}"#,
        )
        .unwrap();
        let Response::NaiveEstimates(e) = Response::parse("NaiveEstimates", &est).unwrap() else {
            panic!()
        };
        assert_eq!(e.k, 3);
        assert_eq!(e.classes.len(), 1);
        assert_eq!(e.classes[0].graphlet, "path-3");
        assert_eq!(e.classes[0].colorful, 2.0);

        let ags = json!({
            "estimates": est, "switches": 2, "covered": 1, "shape_usage": [3, 0],
        });
        let Response::Ags(a) = Response::parse("Ags", &ags).unwrap() else {
            panic!()
        };
        assert_eq!(a.switches, 2);
        assert_eq!(a.shape_usage, vec![3, 0]);
        assert_eq!(a.estimates.total_count, 6.5);

        let tally = from_str(
            r#"{"samples":8,"classes":[
                {"code":"0x1f","graphlet":"triangle","occurrences":8}]}"#,
        )
        .unwrap();
        let Response::Sample(t) = Response::parse("Sample", &tally).unwrap() else {
            panic!()
        };
        assert_eq!(t.classes[0].code, 0x1f);

        let urns = from_str(
            r#"{"graphs":2,"urns":[
                {"id":"urn-1","k":4,"seed":0,"codec":"plain","lambda":null,
                 "status":"built","table_bytes":640,"records":16,
                 "fingerprint":"00000000000000ab"}]}"#,
        )
        .unwrap();
        let Response::ListUrns(u) = Response::parse("ListUrns", &urns).unwrap() else {
            panic!()
        };
        assert_eq!(u.graphs, 2);
        assert_eq!(u.urns[0].id, "urn-1");
        assert_eq!(u.urns[0].lambda, None);

        let fetch =
            from_str(r#"{"payloads":["00ff"],"leader_len":96,"log_id":7,"stale":false}"#).unwrap();
        let Response::ReplFetch(f) = Response::parse("ReplFetch", &fetch).unwrap() else {
            panic!()
        };
        assert_eq!(f.payloads, vec![vec![0x00, 0xff]]);
        assert!(!f.stale);

        let files = from_str(r#"{"files":[{"name":"t.bin","len":9,"crc":5}]}"#).unwrap();
        let Response::ReplFiles(r) = Response::parse("ReplFiles", &files).unwrap() else {
            panic!()
        };
        assert_eq!(r.files[0].name, "t.bin");

        assert_eq!(
            Response::parse("Ping", &json!({"pong": true})).unwrap(),
            Response::Ping(Pong { pong: true })
        );
        assert_eq!(
            Response::parse("Shutdown", &json!({"shutting_down": true})).unwrap(),
            Response::Shutdown(ShuttingDown {
                shutting_down: true
            })
        );

        // Malformed payloads fail with a field-naming message.
        let err = Response::parse("NaiveEstimates", &json!({"k": 3})).unwrap_err();
        assert!(err.contains("samples") || err.contains("classes"), "{err}");
        assert!(Response::parse("Nope", &json!({})).is_err());
    }

    /// A sample count is capped before any sampler sees it: uncapped, one
    /// frame asking for `u64::MAX` samples aborts the whole process on a
    /// petabyte allocation.
    #[test]
    fn sample_counts_are_capped() {
        let parse = |doc: String| Request::parse(&from_str(&doc).unwrap());
        for (kind, key) in [
            ("NaiveEstimates", "samples"),
            ("Sample", "samples"),
            ("Ags", "max_samples"),
            ("Ags", "epoch"),
        ] {
            let err = parse(format!(
                r#"{{"type":"{kind}","urn":0,"{key}":{}}}"#,
                u64::MAX
            ))
            .unwrap_err();
            assert!(err.contains(key), "{kind}.{key}: {err}");
            assert!(err.contains(&MAX_SAMPLES.to_string()), "{err}");
            assert!(
                parse(format!(
                    r#"{{"type":"{kind}","urn":0,"{key}":{MAX_SAMPLES}}}"#
                ))
                .is_ok(),
                "{kind}.{key} at the cap"
            );
        }
        assert_eq!(MAX_SAMPLES, 1 << 28);
        // An epoch also has a floor of one sample.
        let err = parse(r#"{"type":"Ags","urn":0,"epoch":0}"#.into()).unwrap_err();
        assert!(err.contains("`epoch`"), "{err}");
    }
}

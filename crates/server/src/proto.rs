//! The wire protocol: length-prefixed JSON frames, request parsing, and
//! response payload serialization (documented in DESIGN.md §6).
//!
//! Every frame is a `u32le` byte length followed by that many bytes of
//! UTF-8 JSON. Requests are objects with a `"type"` discriminant and an
//! optional `"id"` the server echoes back verbatim, so a pipelining client
//! can match out-of-order responses to requests. Responses carry either
//! `"ok"` (the payload) or `"error"` (`{"kind", "message"}`).
//!
//! **Determinism:** payloads never embed wall-clock or other
//! run-dependent values, and every collection is serialized in a canonical
//! order (classes ascending by registry index, tallies ascending by
//! canonical code). A request carrying a seed therefore produces
//! byte-identical payload text to the equivalent in-process
//! [`motivo_store::StoreQuery`] call, at any worker-pool size.

use motivo_core::{AgsResult, Estimates, RecordCodec};
use motivo_graphlet::{name, Graphlet, GraphletRegistry};
use motivo_store::{BuildStatus, CacheStats, FileMeta, QueryStats, StoreError, UrnId, UrnMeta};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{Read, Write};

/// Hard cap on one frame's payload; a peer announcing more is corrupt (or
/// hostile) and gets its connection dropped instead of an allocation.
pub const MAX_FRAME: usize = 8 << 20;

/// Hard cap on sub-requests per `Batch` frame: bounds the memory one
/// worker slot can be asked to hold, like [`MAX_FRAME`] bounds one frame.
pub const MAX_BATCH: usize = 1024;

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

/// A parsed request. Field defaults (`samples` 100 000, `seed` 0,
/// `threads` 0 = all cores) follow the CLI's.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline by the reactor, so it works even
    /// when the worker queue is saturated.
    Ping,
    /// Optional versioned handshake: the client announces its protocol
    /// version and the feature strings it understands; the server answers
    /// with its version, supported request kinds, features, and the
    /// reactor's pipelining limits (see [`hello_payload`]). Clients that
    /// skip `Hello` keep working — the protocol is unchanged for them.
    Hello {
        proto_version: u64,
        features: Vec<String>,
    },
    /// Every urn the store's manifest knows.
    ListUrns,
    /// Naive (uniform treelet) estimation against a built urn.
    NaiveEstimates {
        urn: UrnId,
        samples: u64,
        seed: u64,
        threads: usize,
    },
    /// Adaptive graphlet sampling against a built urn.
    Ags {
        urn: UrnId,
        max_samples: u64,
        c_bar: Option<u64>,
        epoch: Option<u64>,
        idle_limit: Option<u64>,
        seed: u64,
        threads: usize,
    },
    /// Raw graphlet occurrences: a canonical-code tally of sampled copies.
    Sample {
        urn: UrnId,
        samples: u64,
        seed: u64,
        threads: usize,
    },
    /// Serving counters, per urn or (with no `"urn"`) aggregated.
    Stats { urn: Option<UrnId> },
    /// The server's metrics registry: per-request-kind counters and
    /// latency quantiles, plus a Prometheus-style text rendering of every
    /// counter/gauge/histogram in the store's [`motivo_obs::Registry`].
    Metrics,
    /// Enqueue a build on the store's background worker. `graph` is a path
    /// readable by the *server*. With `"wait": true` the response is held
    /// until the build finishes (this occupies one pool worker).
    Build {
        graph: String,
        k: u32,
        seed: u64,
        lambda: Option<f64>,
        codec: RecordCodec,
        wait: bool,
    },
    /// A list of sub-requests carried through one frame and one
    /// worker-pool slot. Sub-documents are kept raw and parsed when the
    /// batch executes, so one malformed sub-request becomes a
    /// per-sub-request error envelope instead of failing the whole batch.
    /// Responses come back in request order.
    Batch(Vec<Value>),
    /// Graceful shutdown: stop accepting, drain in-flight requests, flush
    /// store stats, exit. Answered inline like `Ping`. Refused with
    /// [`ErrorKind::ReadOnly`] on a replica — a replica's lifecycle belongs
    /// to its operator (or a `Promote`), not to arbitrary wire peers.
    Shutdown,
    /// Replication pull (replica → leader): journal frames from `offset`
    /// onward. `prefix_crc` is the CRC32 of the replica's own journal
    /// bytes and `log_id` the CRC32 of the manifest snapshot it
    /// bootstrapped from; the leader flags the fetch `stale` unless both
    /// prove the replica's log is a byte prefix of the same lineage.
    ReplFetch {
        replica: String,
        offset: u64,
        prefix_crc: u32,
        log_id: u32,
    },
    /// Replication bootstrap: the leader's raw `MANIFEST` snapshot bytes.
    ReplManifest,
    /// Replication file inventory (name/len/crc per file) for one urn
    /// directory or one cached graph, so a replica fetches only what it is
    /// missing. `replica` (optional) attributes the traffic in `ReplStatus`.
    ReplFiles {
        target: ReplTarget,
        replica: Option<String>,
    },
    /// One chunk of a sealed urn or graph file, hex-encoded.
    ReplFile {
        target: ReplTarget,
        name: String,
        offset: u64,
        replica: Option<String>,
    },
    /// Replication health: role, journal offset, log id, and (on a
    /// leader) per-replica lag; (on a replica) sync-session status.
    ReplStatus,
    /// Turn a replica into a leader: clear the read-only gate, sweep
    /// builds the dead leader left unfinished, stop the sync session.
    /// `BadRequest` on a server that is already a leader.
    Promote,
}

/// What a [`Request::ReplFiles`]/[`Request::ReplFile`] request addresses:
/// one urn's directory of sealed table files, or one graph cached by
/// fingerprint in the store's `graphs/` directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplTarget {
    Urn(UrnId),
    Graph(u64),
}

fn get_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    Ok(get_opt_u64(v, key)?.unwrap_or(default))
}

fn get_opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn get_urn(v: &Value) -> Result<UrnId, String> {
    let f = v.get("urn").ok_or("`urn` is required")?;
    if let Some(n) = f.as_u64() {
        return Ok(UrnId(n));
    }
    // Accept the printed form too ("urn-3"), as the CLI does.
    f.as_str()
        .and_then(|s| s.strip_prefix("urn-").unwrap_or(s).parse().ok())
        .map(UrnId)
        .ok_or_else(|| "`urn` must be an id number or \"urn-N\"".to_string())
}

fn get_u32(v: &Value, key: &str) -> Result<u32, String> {
    get_u64(v, key, 0)?
        .try_into()
        .map_err(|_| format!("`{key}` must fit in 32 bits"))
}

fn get_repl_target(v: &Value) -> Result<ReplTarget, String> {
    match (v.get("urn"), v.get("graph")) {
        (Some(_), None) => Ok(ReplTarget::Urn(get_urn(v)?)),
        (None, Some(g)) => g
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .map(ReplTarget::Graph)
            .ok_or_else(|| "`graph` must be a 16-hex-digit fingerprint".to_string()),
        _ => Err("exactly one of `urn` or `graph` is required".to_string()),
    }
}

fn get_opt_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

impl Request {
    /// Parses a request document (the caller extracts the echoed `"id"`
    /// itself, so parse failures can still carry it).
    pub fn parse(v: &Value) -> Result<Request, String> {
        let ty = v
            .get("type")
            .and_then(|t| t.as_str().map(str::to_string))
            .ok_or("request must carry a string `type`")?;
        let seed = get_u64(v, "seed", 0)?;
        let threads = get_u64(v, "threads", 0)? as usize;
        let req = match ty.as_str() {
            "Ping" => Request::Ping,
            "Hello" => Request::Hello {
                proto_version: get_u64(v, "proto_version", PROTO_VERSION)?,
                features: match v.get("features") {
                    None => Vec::new(),
                    Some(f) => f
                        .as_array()
                        .ok_or("`features` must be an array of strings")?
                        .iter()
                        .map(|s| {
                            s.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "`features` must be an array of strings".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                },
            },
            "ListUrns" => Request::ListUrns,
            "NaiveEstimates" => Request::NaiveEstimates {
                urn: get_urn(v)?,
                samples: get_u64(v, "samples", 100_000)?,
                seed,
                threads,
            },
            "Ags" => Request::Ags {
                urn: get_urn(v)?,
                max_samples: get_u64(v, "max_samples", 100_000)?,
                c_bar: get_opt_u64(v, "c_bar")?,
                epoch: get_opt_u64(v, "epoch")?,
                idle_limit: get_opt_u64(v, "idle_limit")?,
                seed,
                threads,
            },
            "Sample" => Request::Sample {
                urn: get_urn(v)?,
                samples: get_u64(v, "samples", 100_000)?,
                seed,
                threads,
            },
            "Stats" => Request::Stats {
                urn: if v.get("urn").is_some() {
                    Some(get_urn(v)?)
                } else {
                    None
                },
            },
            "Metrics" => Request::Metrics,
            "Build" => Request::Build {
                graph: v
                    .get("graph")
                    .and_then(|g| g.as_str().map(str::to_string))
                    .ok_or("`graph` (a server-side path) is required")?,
                k: get_u64(v, "k", 0).and_then(|k| {
                    if (2..=16).contains(&k) {
                        Ok(k as u32)
                    } else {
                        Err("`k` must be in [2, 16]".to_string())
                    }
                })?,
                seed,
                lambda: match v.get("lambda") {
                    None => None,
                    Some(l) => Some(l.as_f64().ok_or("`lambda` must be a number")?),
                },
                codec: match v.get("codec") {
                    None => RecordCodec::Plain,
                    Some(c) => c
                        .as_str()
                        .ok_or_else(|| "`codec` must be a string".to_string())
                        .and_then(str::parse)?,
                },
                wait: match v.get("wait") {
                    None => false,
                    Some(w) => w.as_bool().ok_or("`wait` must be a boolean")?,
                },
            },
            "Batch" => {
                let subs = v
                    .get("requests")
                    .ok_or("`requests` (an array of sub-requests) is required")?;
                let subs = subs
                    .as_array()
                    .ok_or("`requests` must be an array of request documents")?;
                if subs.len() > MAX_BATCH {
                    return Err(format!(
                        "batch of {} sub-requests exceeds the {MAX_BATCH}-request cap",
                        subs.len()
                    ));
                }
                Request::Batch(subs)
            }
            "Shutdown" => Request::Shutdown,
            "ReplFetch" => Request::ReplFetch {
                replica: v
                    .get("replica")
                    .and_then(|r| r.as_str().map(str::to_string))
                    .ok_or("`replica` (the replica's name) is required")?,
                offset: get_u64(v, "offset", 0)?,
                prefix_crc: get_u32(v, "prefix_crc")?,
                log_id: get_u32(v, "log_id")?,
            },
            "ReplManifest" => Request::ReplManifest,
            "ReplFiles" => Request::ReplFiles {
                target: get_repl_target(v)?,
                replica: get_opt_str(v, "replica")?,
            },
            "ReplFile" => Request::ReplFile {
                target: get_repl_target(v)?,
                name: v
                    .get("name")
                    .and_then(|n| n.as_str().map(str::to_string))
                    .ok_or("`name` (the file name) is required")?,
                offset: get_u64(v, "offset", 0)?,
                replica: get_opt_str(v, "replica")?,
            },
            "ReplStatus" => Request::ReplStatus,
            "Promote" => Request::Promote,
            other => return Err(format!("unknown request type `{other}`")),
        };
        Ok(req)
    }

    /// The canonical cache key of a deterministic request, or `None` for
    /// request types whose responses depend on mutable server state
    /// (`ListUrns`, `Stats`, `Build`, …). `content_id` is the urn's
    /// build-key content identity (graph fingerprint + k + seed + bias +
    /// 0-rooting + codec, [`motivo_store::BuildKey::content_id`]),
    /// binding the key to the urn's *content* so a store whose ids were
    /// ever reassigned — even to a different build of the same graph —
    /// cannot replay a stale payload.
    ///
    /// The key is the request's canonical serialization minus the echoed
    /// `id` — fixed field order, defaults materialized — so semantically
    /// identical frames (`{"seed":3,"type":"Sample",…}` vs
    /// `{"type":"Sample",…,"seed":3}`) share an entry. `threads` is
    /// deliberately **excluded**: seeded responses are byte-identical at
    /// any thread count (DESIGN.md §6.4), so requests differing only in
    /// `threads` are the same cache line — the determinism invariant
    /// working as a performance feature.
    pub fn cache_key(&self, content_id: u64) -> Option<String> {
        let fp = format!("{content_id:016x}");
        let doc = match self {
            Request::NaiveEstimates {
                urn,
                samples,
                seed,
                threads: _,
            } => json!({
                "type": "NaiveEstimates", "fp": fp, "urn": urn.0,
                "samples": samples, "seed": seed,
            }),
            Request::Ags {
                urn,
                max_samples,
                c_bar,
                epoch,
                idle_limit,
                seed,
                threads: _,
            } => json!({
                "type": "Ags", "fp": fp, "urn": urn.0,
                "max_samples": max_samples, "c_bar": c_bar, "epoch": epoch,
                "idle_limit": idle_limit, "seed": seed,
            }),
            Request::Sample {
                urn,
                samples,
                seed,
                threads: _,
            } => json!({
                "type": "Sample", "fp": fp, "urn": urn.0,
                "samples": samples, "seed": seed,
            }),
            _ => return None,
        };
        Some(serde_json::to_string(&doc).expect("key serialize"))
    }

    /// The request's kind name — the `"type"` discriminant it parsed
    /// from. This is the label the server's per-kind metrics
    /// (`server.requests.<kind>`, `server.latency.<kind>`, …) hang off,
    /// so the set of values is closed and stable.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "Ping",
            Request::Hello { .. } => "Hello",
            Request::ListUrns => "ListUrns",
            Request::NaiveEstimates { .. } => "NaiveEstimates",
            Request::Ags { .. } => "Ags",
            Request::Sample { .. } => "Sample",
            Request::Stats { .. } => "Stats",
            Request::Metrics => "Metrics",
            Request::Build { .. } => "Build",
            Request::Batch(_) => "Batch",
            Request::Shutdown => "Shutdown",
            Request::ReplFetch { .. } => "ReplFetch",
            Request::ReplManifest => "ReplManifest",
            Request::ReplFiles { .. } => "ReplFiles",
            Request::ReplFile { .. } => "ReplFile",
            Request::ReplStatus => "ReplStatus",
            Request::Promote => "Promote",
        }
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

    /// The canonical request document — what the typed client puts on the
    /// wire. Round-trips through [`Request::parse`]: optional fields are
    /// emitted only when set, so absent-vs-defaulted survives the trip
    /// (asserted for every variant in this module's tests).
    pub fn to_value(&self) -> Value {
        let target = |doc: &mut Value, target: &ReplTarget| match target {
            ReplTarget::Urn(id) => doc.set("urn", json!(id.0)),
            ReplTarget::Graph(fp) => doc.set("graph", json!(format!("{fp:016x}"))),
        };
        let opt = |doc: &mut Value, key: &str, v: Option<Value>| {
            if let Some(v) = v {
                doc.set(key, v);
            }
        };
        match self {
            Request::Ping => json!({"type": "Ping"}),
            Request::Hello {
                proto_version,
                features,
            } => json!({
                "type": "Hello", "proto_version": proto_version, "features": features,
            }),
            Request::ListUrns => json!({"type": "ListUrns"}),
            Request::NaiveEstimates {
                urn,
                samples,
                seed,
                threads,
            } => json!({
                "type": "NaiveEstimates", "urn": urn.0, "samples": samples,
                "seed": seed, "threads": threads,
            }),
            Request::Ags {
                urn,
                max_samples,
                c_bar,
                epoch,
                idle_limit,
                seed,
                threads,
            } => {
                let mut doc = json!({
                    "type": "Ags", "urn": urn.0, "max_samples": max_samples,
                    "seed": seed, "threads": threads,
                });
                opt(&mut doc, "c_bar", c_bar.map(|v| json!(v)));
                opt(&mut doc, "epoch", epoch.map(|v| json!(v)));
                opt(&mut doc, "idle_limit", idle_limit.map(|v| json!(v)));
                doc
            }
            Request::Sample {
                urn,
                samples,
                seed,
                threads,
            } => json!({
                "type": "Sample", "urn": urn.0, "samples": samples,
                "seed": seed, "threads": threads,
            }),
            Request::Stats { urn } => {
                let mut doc = json!({"type": "Stats"});
                opt(&mut doc, "urn", urn.map(|u| json!(u.0)));
                doc
            }
            Request::Metrics => json!({"type": "Metrics"}),
            Request::Build {
                graph,
                k,
                seed,
                lambda,
                codec,
                wait,
            } => {
                let mut doc = json!({
                    "type": "Build", "graph": graph, "k": k, "seed": seed,
                    "codec": codec.to_string(), "wait": wait,
                });
                opt(&mut doc, "lambda", lambda.map(|v| json!(v)));
                doc
            }
            Request::Batch(subs) => json!({"type": "Batch", "requests": subs}),
            Request::Shutdown => json!({"type": "Shutdown"}),
            Request::ReplFetch {
                replica,
                offset,
                prefix_crc,
                log_id,
            } => json!({
                "type": "ReplFetch", "replica": replica, "offset": offset,
                "prefix_crc": prefix_crc, "log_id": log_id,
            }),
            Request::ReplManifest => json!({"type": "ReplManifest"}),
            Request::ReplFiles { target: t, replica } => {
                let mut doc = json!({"type": "ReplFiles"});
                target(&mut doc, t);
                opt(&mut doc, "replica", replica.as_ref().map(|r| json!(r)));
                doc
            }
            Request::ReplFile {
                target: t,
                name,
                offset,
                replica,
            } => {
                let mut doc = json!({"type": "ReplFile", "name": name, "offset": offset});
                target(&mut doc, t);
                opt(&mut doc, "replica", replica.as_ref().map(|r| json!(r)));
                doc
            }
            Request::ReplStatus => json!({"type": "ReplStatus"}),
            Request::Promote => json!({"type": "Promote"}),
        }
    }
}

/// The `Hello` response payload. Answered inline by the reactor (like
/// `Ping`), so a client can negotiate before the worker pool is even
/// warm. Everything here is static for the life of the process.
pub fn hello_payload() -> Value {
    let kinds: Vec<&str> = crate::metrics::KINDS
        .iter()
        .copied()
        .filter(|k| *k != "Invalid") // a metrics label, not a request type
        .collect();
    json!({
        "server": concat!("motivo ", env!("CARGO_PKG_VERSION")),
        "proto_version": PROTO_VERSION,
        "kinds": kinds,
        "features": FEATURES,
        "max_frame": MAX_FRAME,
        "max_batch": MAX_BATCH,
        "max_pipeline": MAX_PIPELINE,
    })
}

// ---------------------------------------------------------------------------
// Typed responses
// ---------------------------------------------------------------------------

fn need(v: &Value, key: &str) -> Result<Value, String> {
    v.get(key)
        .ok_or_else(|| format!("response missing `{key}`"))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    need(v, key)?
        .as_u64()
        .ok_or_else(|| format!("response field `{key}` must be a non-negative integer"))
}

fn need_f64(v: &Value, key: &str) -> Result<f64, String> {
    need(v, key)?
        .as_f64()
        .ok_or_else(|| format!("response field `{key}` must be a number"))
}

fn need_bool(v: &Value, key: &str) -> Result<bool, String> {
    need(v, key)?
        .as_bool()
        .ok_or_else(|| format!("response field `{key}` must be a boolean"))
}

fn need_str(v: &Value, key: &str) -> Result<String, String> {
    need(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("response field `{key}` must be a string"))
}

fn need_array(v: &Value, key: &str) -> Result<Vec<Value>, String> {
    need(v, key)?
        .as_array()
        .ok_or_else(|| format!("response field `{key}` must be an array"))
}

fn need_hex(v: &Value, key: &str) -> Result<Vec<u8>, String> {
    crate::repl::protocol::hex_decode(&need_str(v, key)?)
}

fn str_array(v: &Value, key: &str) -> Result<Vec<String>, String> {
    need_array(v, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("response field `{key}` must hold strings"))
        })
        .collect()
}

/// What the server said in answer to a `Hello`: identity, protocol
/// version, the request kinds it accepts, and the reactor's limits.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct UrnRow {
    /// Printed id, e.g. `"urn-3"` (accepted back by `urn` fields).
    pub id: String,
    pub k: u32,
    pub seed: u64,
    pub codec: String,
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
#[derive(Clone, Debug, PartialEq)]
pub struct UrnsReply {
    pub urns: Vec<UrnRow>,
    pub graphs: u64,
}

/// One graphlet class of an estimates payload.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassRow {
    pub graphlet: String,
    pub occurrences: u64,
    pub colorful: f64,
    pub count: f64,
    pub frequency: f64,
}

/// A `NaiveEstimates` reply (also nested inside [`AgsReply`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EstimatesReply {
    pub k: u32,
    pub samples: u64,
    pub total_count: f64,
    /// Ascending by registry index — the canonical payload order.
    pub classes: Vec<ClassRow>,
}

/// An `Ags` reply: estimates plus the adaptive-run counters.
#[derive(Clone, Debug, PartialEq)]
pub struct AgsReply {
    pub estimates: EstimatesReply,
    pub switches: u64,
    pub covered: u64,
    pub shape_usage: Vec<u64>,
}

/// One canonical-code row of a `Sample` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct TallyRow {
    /// Canonical graphlet code (serialized as a `0x…` hex string).
    pub code: u128,
    pub graphlet: String,
    pub occurrences: u64,
}

/// A `Sample` reply: a canonical-code tally, ascending by code.
#[derive(Clone, Debug, PartialEq)]
pub struct TallyReply {
    pub samples: u64,
    pub classes: Vec<TallyRow>,
}

/// A `Build` reply: the urn assigned and its status after the request
/// (post-wait when `"wait": true` was sent).
#[derive(Clone, Debug, PartialEq)]
pub struct BuildReply {
    pub urn: String,
    pub status: String,
}

/// A `ReplFetch` reply: decoded journal frame payloads from the leader.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct ReplManifestReply {
    pub manifest: Vec<u8>,
    pub log_id: u32,
}

/// A `ReplFile` reply: one decoded chunk and the file's total length.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplFileReply {
    pub data: Vec<u8>,
    pub total: u64,
}

/// A `Promote` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct PromoteReply {
    pub promoted: bool,
    /// Builds the dead leader left unfinished, now swept to `failed`.
    pub swept: u64,
}

/// A typed success payload, decoded according to the *request* kind that
/// produced it (responses carry no discriminant of their own — the frame
/// `id` pairs them with requests, and the request fixes the shape).
///
/// Kinds whose payloads are run-dependent diagnostics (`Stats`,
/// `Metrics`, `ReplStatus`) and per-sub-request `Batch` envelopes stay
/// raw [`Value`]s: their schemas are wide, nested, and consumed by
/// humans or dashboards, so forcing structs on them would freeze exactly
/// the parts of the wire format meant to evolve freely.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `Ping` ack.
    Pong,
    Hello(HelloReply),
    Urns(UrnsReply),
    Estimates(EstimatesReply),
    Ags(AgsReply),
    Tally(TallyReply),
    Stats(Value),
    Metrics(Value),
    Build(BuildReply),
    /// Per-sub-request envelopes, in request order.
    Batch(Vec<Value>),
    /// `Shutdown` ack: the server is draining.
    ShuttingDown,
    ReplFetch(ReplFetchReply),
    ReplManifest(ReplManifestReply),
    ReplFiles(Vec<FileMeta>),
    ReplFile(ReplFileReply),
    ReplStatus(Value),
    Promote(PromoteReply),
}

fn parse_estimates(v: &Value) -> Result<EstimatesReply, String> {
    let classes = need_array(v, "classes")?
        .iter()
        .map(|c| {
            Ok(ClassRow {
                graphlet: need_str(c, "graphlet")?,
                occurrences: need_u64(c, "occurrences")?,
                colorful: need_f64(c, "colorful")?,
                count: need_f64(c, "count")?,
                frequency: need_f64(c, "frequency")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(EstimatesReply {
        k: need_u64(v, "k")?
            .try_into()
            .map_err(|_| "response field `k` must fit in 32 bits".to_string())?,
        samples: need_u64(v, "samples")?,
        total_count: need_f64(v, "total_count")?,
        classes,
    })
}

impl Response {
    /// Decodes a success payload for a request of `kind`
    /// ([`Request::kind`] of the request that earned it).
    pub fn parse(kind: &str, payload: &Value) -> Result<Response, String> {
        let resp = match kind {
            "Ping" => {
                need_bool(payload, "pong")?;
                Response::Pong
            }
            "Hello" => Response::Hello(HelloReply {
                server: need_str(payload, "server")?,
                proto_version: need_u64(payload, "proto_version")?,
                kinds: str_array(payload, "kinds")?,
                features: str_array(payload, "features")?,
                max_frame: need_u64(payload, "max_frame")?,
                max_batch: need_u64(payload, "max_batch")?,
                max_pipeline: need_u64(payload, "max_pipeline")?,
            }),
            "ListUrns" => Response::Urns(UrnsReply {
                urns: need_array(payload, "urns")?
                    .iter()
                    .map(|u| {
                        Ok(UrnRow {
                            id: need_str(u, "id")?,
                            k: need_u64(u, "k")? as u32,
                            seed: need_u64(u, "seed")?,
                            codec: need_str(u, "codec")?,
                            lambda: match u.get("lambda") {
                                None => None,
                                Some(l) if l.is_null() => None,
                                Some(l) => Some(l.as_f64().ok_or_else(|| {
                                    "response field `lambda` must be a number".to_string()
                                })?),
                            },
                            status: need_str(u, "status")?,
                            table_bytes: need_u64(u, "table_bytes")?,
                            records: need_u64(u, "records")?,
                            fingerprint: need_str(u, "fingerprint")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                graphs: need_u64(payload, "graphs")?,
            }),
            "NaiveEstimates" => Response::Estimates(parse_estimates(payload)?),
            "Ags" => Response::Ags(AgsReply {
                estimates: parse_estimates(&need(payload, "estimates")?)?,
                switches: need_u64(payload, "switches")?,
                covered: need_u64(payload, "covered")?,
                shape_usage: need_array(payload, "shape_usage")?
                    .iter()
                    .map(|n| {
                        n.as_u64().ok_or_else(|| {
                            "response field `shape_usage` must hold integers".to_string()
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            "Sample" => Response::Tally(TallyReply {
                samples: need_u64(payload, "samples")?,
                classes: need_array(payload, "classes")?
                    .iter()
                    .map(|c| {
                        let code = need_str(c, "code")?;
                        let code = code
                            .strip_prefix("0x")
                            .and_then(|h| u128::from_str_radix(h, 16).ok())
                            .ok_or_else(|| {
                                "response field `code` must be a 0x… hex string".to_string()
                            })?;
                        Ok(TallyRow {
                            code,
                            graphlet: need_str(c, "graphlet")?,
                            occurrences: need_u64(c, "occurrences")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            "Stats" => Response::Stats(payload.clone()),
            "Metrics" => Response::Metrics(payload.clone()),
            "Build" => Response::Build(BuildReply {
                urn: need_str(payload, "urn")?,
                status: need_str(payload, "status")?,
            }),
            "Batch" => Response::Batch(need_array(payload, "responses")?),
            "Shutdown" => {
                need_bool(payload, "shutting_down")?;
                Response::ShuttingDown
            }
            "ReplFetch" => Response::ReplFetch(ReplFetchReply {
                payloads: need_array(payload, "payloads")?
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .ok_or_else(|| "response field `payloads` must hold hex".to_string())
                            .and_then(crate::repl::protocol::hex_decode)
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                leader_len: need_u64(payload, "leader_len")?,
                log_id: need_u64(payload, "log_id")? as u32,
                stale: need_bool(payload, "stale")?,
            }),
            "ReplManifest" => Response::ReplManifest(ReplManifestReply {
                manifest: need_hex(payload, "manifest")?,
                log_id: need_u64(payload, "log_id")? as u32,
            }),
            "ReplFiles" => Response::ReplFiles(
                need_array(payload, "files")?
                    .iter()
                    .map(|f| {
                        Ok(FileMeta {
                            name: need_str(f, "name")?,
                            len: need_u64(f, "len")?,
                            crc: need_u64(f, "crc")? as u32,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            "ReplFile" => Response::ReplFile(ReplFileReply {
                data: need_hex(payload, "data")?,
                total: need_u64(payload, "total")?,
            }),
            "ReplStatus" => Response::ReplStatus(payload.clone()),
            "Promote" => Response::Promote(PromoteReply {
                promoted: need_bool(payload, "promoted")?,
                swept: need_u64(payload, "swept")?,
            }),
            other => return Err(format!("unknown request kind `{other}`")),
        };
        Ok(resp)
    }
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

/// A success envelope: `{"id": …, "ok": payload}`.
pub fn ok_response(id: &Value, payload: Value) -> Value {
    json!({"id": id.clone(), "ok": payload})
}

/// An error envelope: `{"id": …, "error": {"kind", "message"}}`.
pub fn error_response(id: &Value, kind: ErrorKind, message: &str) -> Value {
    let error = json!({"kind": kind.as_str(), "message": message});
    json!({"id": id.clone(), "error": error})
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
    let error = json!({"kind": kind.as_str(), "message": message});
    format!(
        "{{\"id\":{id_text},\"error\":{}}}",
        serde_json::to_string(&error).expect("error serialize")
    )
}

/// Serializes an estimate set. Classes are emitted ascending by registry
/// index — with the fresh per-request registry the server uses, that order
/// (and hence the whole payload) is a pure function of the tally, which is
/// what makes responses byte-identical to in-process calls.
pub fn estimates_json(est: &Estimates, registry: &GraphletRegistry) -> Value {
    let classes: Vec<Value> = est
        .per_graphlet
        .iter()
        .map(|e| {
            json!({
                "graphlet": name(&registry.info(e.index).graphlet),
                "occurrences": e.occurrences,
                "colorful": e.colorful,
                "count": e.count,
                "frequency": e.frequency,
            })
        })
        .collect();
    json!({
        "k": est.k,
        "samples": est.samples,
        "total_count": est.total_count(),
        "classes": classes,
    })
}

/// Serializes an AGS outcome (estimates plus the adaptive-run counters).
pub fn ags_json(res: &AgsResult, registry: &GraphletRegistry) -> Value {
    json!({
        "estimates": estimates_json(&res.estimates, registry),
        "switches": res.switches,
        "covered": res.covered,
        "shape_usage": res.shape_usage.clone(),
    })
}

/// Serializes a canonical-code tally, ascending by code (deterministic —
/// hash-map iteration order never leaks into the payload).
pub fn tally_json(tally: &HashMap<u128, u64>, samples: u64) -> Value {
    let mut rows: Vec<(u128, u64)> = tally.iter().map(|(&c, &n)| (c, n)).collect();
    rows.sort_unstable_by_key(|&(c, _)| c);
    let classes: Vec<Value> = rows
        .into_iter()
        .map(|(code, occurrences)| {
            let graphlet = Graphlet::from_code(code).expect("tally codes are canonical");
            json!({
                "code": format!("{code:#x}"),
                "graphlet": name(&graphlet),
                "occurrences": occurrences,
            })
        })
        .collect();
    json!({"samples": samples, "classes": classes})
}

/// Serializes one manifest entry.
pub fn urn_json(m: &UrnMeta) -> Value {
    json!({
        "id": m.id.to_string(),
        "k": m.key.k,
        "seed": m.key.seed,
        "codec": m.key.codec.to_string(),
        "lambda": m.key.lambda(),
        "status": match m.status {
            BuildStatus::Pending => "pending",
            BuildStatus::Built => "built",
            BuildStatus::Failed => "failed",
        },
        "table_bytes": m.table_bytes,
        "records": m.records,
        "fingerprint": format!("{:016x}", m.key.fingerprint),
    })
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

/// Serializes cache counters.
pub fn cache_stats_json(s: &CacheStats) -> Value {
    json!({
        "hits": s.hits,
        "misses": s.misses,
        "evictions": s.evictions,
        "resident_bytes": s.resident_bytes,
        "resident_urns": s.resident_urns,
    })
}

/// Serializes the query-result cache counters (hits/misses/singleflight
/// coalescing — `misses` counts estimator runs through the cache).
pub fn query_cache_stats_json(s: &crate::cache::QueryCacheStats) -> Value {
    json!({
        "hits": s.hits,
        "misses": s.misses,
        "coalesced": s.coalesced,
        "evictions": s.evictions,
        "resident_bytes": s.resident_bytes,
        "resident_entries": s.resident_entries,
    })
}

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
        let Request::Batch(subs) = Request::parse(&v).unwrap() else {
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
            Request::Batch(vec![json!({"type": "Ping"})]),
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
        // Every advertised kind parses as a request type; `Invalid` (a
        // metrics-only label) is not advertised.
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
        let Response::Estimates(e) = Response::parse("NaiveEstimates", &est).unwrap() else {
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
        let Response::Tally(t) = Response::parse("Sample", &tally).unwrap() else {
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
        let Response::Urns(u) = Response::parse("ListUrns", &urns).unwrap() else {
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
        let Response::ReplFiles(rows) = Response::parse("ReplFiles", &files).unwrap() else {
            panic!()
        };
        assert_eq!(rows[0].name, "t.bin");

        assert_eq!(
            Response::parse("Ping", &json!({"pong": true})).unwrap(),
            Response::Pong
        );
        assert_eq!(
            Response::parse("Shutdown", &json!({"shutting_down": true})).unwrap(),
            Response::ShuttingDown
        );

        // Malformed payloads fail with a field-naming message.
        let err = Response::parse("NaiveEstimates", &json!({"k": 3})).unwrap_err();
        assert!(err.contains("samples") || err.contains("classes"), "{err}");
        assert!(Response::parse("Nope", &json!({})).is_err());
    }
}

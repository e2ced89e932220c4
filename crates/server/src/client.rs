//! A small blocking client for the wire protocol — what `motivo client`
//! and the integration tests drive. One request in flight at a time; for
//! pipelining, open several clients or speak [`crate::proto`] directly.
//!
//! The supported surface is **typed**: build a [`Request`], get a
//! [`Response`] (or a purpose-named helper like [`Client::ping`] /
//! [`Client::naive_estimates`]). [`Client::send_raw`] remains as the
//! escape hatch for hand-authored JSON — what `motivo client` forwards
//! verbatim — and [`Client::request`] for callers that want the raw
//! payload [`Value`] of a typed request.

use serde_json::Value;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    self, AgsReply, BuildReply, ErrorBody, EstimatesReply, HelloReply, PromoteReply,
    ReplFetchReply, ReplFileReply, ReplManifestReply, ReplTarget, Request, Response, TallyReply,
    UrnsReply, FEATURES, PROTO_VERSION,
};
use crate::wire::Wire;
use motivo_store::{FileMeta, UrnId};

/// Client-side failures: transport errors, or a server `error` envelope.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or framing failure.
    Io(std::io::Error),
    /// The response frame wasn't valid JSON, or its payload didn't have
    /// the shape the request kind promises.
    BadResponse(String),
    /// The server answered with an error envelope (kind, message).
    Server { kind: String, message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::BadResponse(msg) => write!(f, "malformed response: {msg}"),
            ClientError::Server { kind, message } => write!(f, "server error [{kind}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Sends a typed request and unwraps the reply of its kind.
macro_rules! call {
    ($client:expr, $kind:ident $($body:tt)?) => {
        match $client.send(&Request::$kind $($body)?)? {
            Response::$kind(reply) => Ok(reply),
            _ => unreachable!("Response::parse decodes a kind's payload into its own variant"),
        }
    };
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running `motivo serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // A vanished server should fail the call, not hang it forever.
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        // Request frames are small; waiting for Nagle to coalesce them
        // just adds a delayed-ACK round trip to every query.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    // -- typed surface ------------------------------------------------------

    /// Sends one typed request and decodes the reply into the matching
    /// [`Response`] variant. Server error envelopes become
    /// [`ClientError::Server`].
    pub fn send(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = self.request(&req.to_value())?;
        Response::parse(req.kind(), &payload).map_err(ClientError::BadResponse)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        call!(self, Ping).map(drop)
    }

    /// Version/capability handshake: announces this client's protocol
    /// version and features, returns what the server speaks. Servers
    /// answer it inline, so it works even against a saturated pool.
    pub fn hello(&mut self) -> Result<HelloReply, ClientError> {
        let features = FEATURES.iter().map(|f| f.to_string()).collect();
        call!(
            self,
            Hello {
                proto_version: PROTO_VERSION,
                features,
            }
        )
    }

    /// Lists every urn the server's manifest knows.
    pub fn list_urns(&mut self) -> Result<UrnsReply, ClientError> {
        call!(self, ListUrns)
    }

    /// Seeded naive estimates against a built urn (server-side thread
    /// count left to the server; send a full [`Request::NaiveEstimates`]
    /// through [`Client::send`] to pin it).
    pub fn naive_estimates(
        &mut self,
        urn: UrnId,
        samples: u64,
        seed: u64,
    ) -> Result<EstimatesReply, ClientError> {
        call!(
            self,
            NaiveEstimates {
                urn,
                samples,
                seed,
                threads: 0,
            }
        )
    }

    /// Adaptive graphlet sampling with the server-side default knobs
    /// (send a full [`Request::Ags`] through [`Client::send`] for
    /// `c_bar`/`epoch`/`idle_limit`).
    pub fn ags(
        &mut self,
        urn: UrnId,
        max_samples: u64,
        seed: u64,
    ) -> Result<AgsReply, ClientError> {
        call!(
            self,
            Ags {
                urn,
                max_samples,
                seed,
                threads: 0,
                c_bar: None,
                epoch: None,
                idle_limit: None,
            }
        )
    }

    /// A raw canonical-code tally of sampled graphlet copies.
    pub fn sample(
        &mut self,
        urn: UrnId,
        samples: u64,
        seed: u64,
    ) -> Result<TallyReply, ClientError> {
        call!(
            self,
            Sample {
                urn,
                samples,
                seed,
                threads: 0,
            }
        )
    }

    /// Serving counters (raw payload — a diagnostic document, not a
    /// frozen schema).
    pub fn stats(&mut self, urn: Option<UrnId>) -> Result<Value, ClientError> {
        call!(self, Stats { urn })
    }

    /// The server's metrics registry (raw payload, same reasoning).
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        call!(self, Metrics)
    }

    /// Enqueues a build of `graph` (a path readable by the *server*) and
    /// optionally waits for it.
    pub fn build(
        &mut self,
        graph: impl Into<String>,
        k: u32,
        seed: u64,
        wait: bool,
    ) -> Result<BuildReply, ClientError> {
        call!(
            self,
            Build {
                graph: graph.into(),
                k,
                seed,
                codec: Default::default(),
                wait,
                lambda: None,
            }
        )
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        call!(self, Shutdown).map(drop)
    }

    /// Replication health (raw payload).
    pub fn repl_status(&mut self) -> Result<Value, ClientError> {
        call!(self, ReplStatus)
    }

    /// Turns a replica into a leader.
    pub fn promote(&mut self) -> Result<PromoteReply, ClientError> {
        call!(self, Promote)
    }

    /// Pulls journal frames from a leader (the replica sync path).
    pub fn repl_fetch(
        &mut self,
        replica: impl Into<String>,
        offset: u64,
        prefix_crc: u32,
        log_id: u32,
    ) -> Result<ReplFetchReply, ClientError> {
        call!(
            self,
            ReplFetch {
                replica: replica.into(),
                offset,
                prefix_crc,
                log_id,
            }
        )
    }

    /// Fetches the leader's manifest snapshot bytes.
    pub fn repl_manifest(&mut self) -> Result<ReplManifestReply, ClientError> {
        call!(self, ReplManifest)
    }

    /// Fetches the leader's file inventory for one urn or graph.
    pub fn repl_files(
        &mut self,
        target: ReplTarget,
        replica: Option<String>,
    ) -> Result<Vec<FileMeta>, ClientError> {
        call!(self, ReplFiles { target, replica }).map(|r| r.files)
    }

    /// Fetches one chunk of a sealed urn or graph file.
    pub fn repl_file(
        &mut self,
        target: ReplTarget,
        name: impl Into<String>,
        offset: u64,
        replica: Option<String>,
    ) -> Result<ReplFileReply, ClientError> {
        call!(
            self,
            ReplFile {
                name: name.into(),
                offset,
                target,
                replica,
            }
        )
    }

    // -- raw escape hatches -------------------------------------------------

    /// Sends one request document and returns the full response envelope
    /// (`{"id": …, "ok": …}` or `{"id": …, "error": …}`), without
    /// interpreting it.
    pub fn roundtrip(&mut self, request: &Value) -> Result<Value, ClientError> {
        let text =
            serde_json::to_string(request).map_err(|e| ClientError::BadResponse(e.to_string()))?;
        self.send_raw(&text).and_then(|raw| {
            serde_json::from_str(&raw).map_err(|e| ClientError::BadResponse(e.to_string()))
        })
    }

    /// Like [`Client::roundtrip`], but over raw JSON text in both
    /// directions (what `motivo client` uses — the request is the user's
    /// own bytes, the response is printed verbatim).
    pub fn send_raw(&mut self, request: &str) -> Result<String, ClientError> {
        proto::write_frame(&mut self.stream, request.as_bytes())?;
        let payload = proto::read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
        String::from_utf8(payload).map_err(|_| ClientError::BadResponse("not UTF-8".into()))
    }

    /// Sends one request and unwraps the envelope: the `ok` payload, or
    /// [`ClientError::Server`] carrying the error kind and message.
    pub fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        let envelope = self.roundtrip(request)?;
        if let Some(ok) = envelope.get("ok") {
            return Ok(ok);
        }
        let error = ErrorBody::read(&envelope, "error").map_err(ClientError::BadResponse)?;
        match error {
            Some(ErrorBody { kind, message }) => Err(ClientError::Server { kind, message }),
            None => Err(ClientError::BadResponse(
                "envelope has neither `ok` nor `error`".into(),
            )),
        }
    }
}

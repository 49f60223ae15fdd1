//! A minimal blocking client for the `desc-run-request/v1` protocol:
//! request construction ([`RunRequest`]) and a framed round-trip
//! ([`Client`]). Used by the integration tests and the worked example
//! in `docs/SERVICE.md`; external clients in any language only need a
//! TCP socket and a JSON encoder (the document shows a `python3`
//! one-liner equivalent).

use crate::frame;
use crate::proto::{Tables, REQUEST_SCHEMA};
use desc_telemetry::Json;
use std::net::{TcpStream, ToSocketAddrs};

/// Builder for a request document. Every field maps one-to-one onto a
/// wire key of `docs/SERVICE.md`; unset optionals are omitted from the
/// encoded JSON (the server applies its defaults).
#[derive(Debug, Clone, Default)]
pub struct RunRequest {
    /// Correlation id echoed in the response (optional).
    pub id: Option<String>,
    /// Client identity for fair cross-client scheduling (optional);
    /// requests sharing a `client` share one fair-queue weight.
    pub client: Option<String>,
    /// Experiment names; `None` encodes `"all"`.
    pub experiments: Option<Vec<String>>,
    /// Scale preset (`tiny` | `quick` | `full`; server default `tiny`).
    pub preset: Option<String>,
    /// `scale.accesses` override.
    pub accesses: Option<u64>,
    /// `scale.apps` override (1..=16).
    pub apps: Option<u64>,
    /// `scale.seed` override.
    pub seed: Option<u64>,
    /// `scale.shards` override.
    pub shards: Option<u64>,
    /// Per-request sweep-cell concurrency cap.
    pub jobs: Option<u64>,
    /// Deadline covering queueing and execution.
    pub deadline_ms: Option<u64>,
    /// Requested table rendering.
    pub tables: Tables,
}

impl RunRequest {
    /// A request for the named experiments at the given preset.
    #[must_use]
    pub fn new(experiments: &[&str], preset: &str) -> RunRequest {
        RunRequest {
            experiments: Some(experiments.iter().map(|&s| s.to_owned()).collect()),
            preset: Some(preset.to_owned()),
            ..RunRequest::default()
        }
    }

    /// Encodes the `op: run` request document this builder describes.
    /// This encoder is the reference for the `request.*` rows of the
    /// `docs/SERVICE.md` Key index (pinned by `tests/service_doc.rs`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj()
            .with("schema", Json::Str(REQUEST_SCHEMA.to_owned()))
            .with("op", Json::Str("run".to_owned()));
        if let Some(id) = &self.id {
            out = out.with("id", Json::Str(id.clone()));
        }
        if let Some(client) = &self.client {
            out = out.with("client", Json::Str(client.clone()));
        }
        out = out.with(
            "experiments",
            match &self.experiments {
                None => Json::Str("all".to_owned()),
                Some(names) => Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()),
            },
        );
        let mut scale = Json::obj();
        let mut any = false;
        if let Some(p) = &self.preset {
            scale = scale.with("preset", Json::Str(p.clone()));
            any = true;
        }
        for (key, value) in [
            ("accesses", self.accesses),
            ("apps", self.apps),
            ("seed", self.seed),
            ("shards", self.shards),
        ] {
            if let Some(v) = value {
                scale = scale.with(key, Json::UInt(v));
                any = true;
            }
        }
        if any {
            out = out.with("scale", scale);
        }
        if let Some(jobs) = self.jobs {
            out = out.with("jobs", Json::UInt(jobs));
        }
        if let Some(ms) = self.deadline_ms {
            out = out.with("deadline_ms", Json::UInt(ms));
        }
        match self.tables {
            Tables::None => {}
            Tables::Text => out = out.with("tables", Json::Str("text".to_owned())),
            Tables::Csv => out = out.with("tables", Json::Str("csv".to_owned())),
        }
        out
    }
}

/// The `op: ping` request document.
#[must_use]
pub fn ping_request(id: &str) -> Json {
    Json::obj()
        .with("schema", Json::Str(REQUEST_SCHEMA.to_owned()))
        .with("op", Json::Str("ping".to_owned()))
        .with("id", Json::Str(id.to_owned()))
}

/// The `op: shutdown` request document.
#[must_use]
pub fn shutdown_request(id: &str) -> Json {
    Json::obj()
        .with("schema", Json::Str(REQUEST_SCHEMA.to_owned()))
        .with("op", Json::Str("shutdown".to_owned()))
        .with("id", Json::Str(id.to_owned()))
}

/// One framed connection to a server. Requests on a connection are
/// strictly sequential (send, then read the one reply); open more
/// connections for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server with `TCP_NODELAY` set, so a request frame
    /// leaves as soon as it is written.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request document and reads the one reply. An `Err`
    /// means transport failure; protocol-level errors come back as
    /// parsed `status: "error"` responses.
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        frame::write_frame(&mut self.stream, request.to_pretty().as_bytes())?;
        self.read_reply()
    }

    /// Sends raw payload bytes (not necessarily valid JSON) and reads
    /// the reply — the malformed-input path of the protocol tests.
    pub fn request_raw(&mut self, payload: &[u8]) -> std::io::Result<Json> {
        frame::write_frame(&mut self.stream, payload)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> std::io::Result<Json> {
        let payload = frame::read_frame(&mut self.stream)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let text = std::str::from_utf8(&payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Json::parse(text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

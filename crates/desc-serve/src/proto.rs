//! The `desc-run-request/v1` / `desc-run-response/v1` message schemas:
//! parsing (requests) and construction (responses) on top of the
//! in-tree [`Json`] value type. The wire format is specified key by
//! key in `docs/SERVICE.md`; `tests/service_doc.rs` pins that document
//! to the encoders here.

use desc_telemetry::Json;
use std::time::Duration;

/// Schema tag every request must carry.
pub const REQUEST_SCHEMA: &str = "desc-run-request/v1";
/// Schema tag every response carries.
pub const RESPONSE_SCHEMA: &str = "desc-run-response/v1";

/// Machine-readable error classes (`error.code` in an error response).
/// Stable strings: clients dispatch on them, `docs/SERVICE.md` lists
/// them, and the conformance test pins the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission queue full; retry after `error.retry_after_ms`.
    Busy,
    /// The request's `deadline_ms` elapsed (queued or mid-run).
    Deadline,
    /// Unparsable or schema-invalid payload in a well-formed frame.
    Malformed,
    /// Frame length prefix over the limit; the connection closes.
    Oversized,
    /// An experiment name not in `repro --list`.
    UnknownExperiment,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// A cell panicked or another server-side invariant broke.
    Internal,
}

impl ErrorCode {
    /// The wire string for this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownExperiment => "unknown_experiment",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// What the client asked the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute experiments and return a run report.
    Run,
    /// Liveness + stats probe; returns `serve` and `cache` stanzas.
    Ping,
    /// Drain in-flight requests, then stop the server.
    Shutdown,
}

/// Requested rendering of experiment tables in the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tables {
    /// No `tables` object in the response (default).
    #[default]
    None,
    /// `Table::render()` text, as `repro` prints it.
    Text,
    /// `Table::to_csv()` bytes, as `repro --csv` prints them.
    Csv,
}

/// A parsed, validated `desc-run-request/v1`.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// Client identity used for fair cross-client scheduling: requests
    /// carrying the same `client` share one fair-queue weight; absent,
    /// the request is scheduled under its own identity.
    pub client: Option<String>,
    /// Experiment names (already expanded if the client sent `"all"`).
    pub experiments: Vec<String>,
    /// Scale preset name: `"tiny"`, `"quick"`, or `"full"`.
    pub preset: String,
    /// Override for [`Scale::accesses`](desc_experiments::Scale).
    pub accesses: Option<usize>,
    /// Override for `Scale::apps` (validated to 1..=16).
    pub apps: Option<usize>,
    /// Override for `Scale::seed`.
    pub seed: Option<u64>,
    /// Override for `Scale::shards`.
    pub shards: Option<usize>,
    /// Cap on concurrently executing sweep cells for this request.
    pub jobs: Option<usize>,
    /// Per-request deadline, measured from frame receipt.
    pub deadline_ms: Option<u64>,
    /// Requested table rendering.
    pub tables: Tables,
}

/// Reads an optional non-negative integer field, rejecting zero when
/// `nonzero` and anything non-numeric.
fn opt_uint(obj: &Json, key: &str, nonzero: bool) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(0) if nonzero => Err(format!("`{key}` must be a positive integer")),
            Some(n) => Ok(Some(n)),
            None => Err(format!("`{key}` must be a non-negative integer")),
        },
    }
}

impl Request {
    /// Parses and validates one request payload. `Err` carries a
    /// human-readable reason destined for a `malformed` error reply —
    /// except unknown experiment names, which the server maps to
    /// `unknown_experiment` after name resolution.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_owned())?;
        let json = Json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
        if !matches!(json, Json::Obj(_)) {
            return Err("payload must be a JSON object".to_owned());
        }
        match json.get("schema").and_then(Json::as_str) {
            Some(REQUEST_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err(format!("missing `schema` (expected {REQUEST_SCHEMA:?})")),
        }
        let op = match json.get("op").and_then(Json::as_str) {
            Some("run") => Op::Run,
            Some("ping") => Op::Ping,
            Some("shutdown") => Op::Shutdown,
            Some(other) => return Err(format!("unknown op {other:?}")),
            None => return Err("missing `op` (run | ping | shutdown)".to_owned()),
        };
        let id = match json.get("id") {
            None => String::new(),
            Some(v) => v.as_str().ok_or_else(|| "`id` must be a string".to_owned())?.to_owned(),
        };
        let client = match json.get("client") {
            None => None,
            Some(v) => {
                Some(v.as_str().ok_or_else(|| "`client` must be a string".to_owned())?.to_owned())
            }
        };
        let experiments = match json.get("experiments") {
            None if op == Op::Run => {
                return Err("`op: run` requires `experiments` (a name list or \"all\")".to_owned())
            }
            None => Vec::new(),
            Some(Json::Str(s)) if s == "all" => {
                desc_experiments::experiment_names().iter().map(|&n| n.to_owned()).collect()
            }
            Some(Json::Arr(items)) if !items.is_empty() => {
                let mut names = Vec::with_capacity(items.len());
                for item in items {
                    names.push(
                        item.as_str()
                            .ok_or_else(|| "`experiments` entries must be strings".to_owned())?
                            .to_owned(),
                    );
                }
                names
            }
            Some(_) => {
                return Err("`experiments` must be a non-empty name list or \"all\"".to_owned())
            }
        };
        let scale = json.get("scale");
        let preset = match scale.and_then(|s| s.get("preset")) {
            None => "tiny".to_owned(),
            Some(v) => match v.as_str() {
                Some(p @ ("tiny" | "quick" | "full")) => p.to_owned(),
                _ => return Err("`scale.preset` must be tiny | quick | full".to_owned()),
            },
        };
        let (accesses, apps, seed, shards) = match scale {
            None => (None, None, None, None),
            Some(s) => {
                if !matches!(s, Json::Obj(_)) {
                    return Err("`scale` must be an object".to_owned());
                }
                let accesses = opt_uint(s, "accesses", true)?.map(|n| n as usize);
                let apps = match opt_uint(s, "apps", true)? {
                    Some(n) if (1..=16).contains(&n) => Some(n as usize),
                    Some(_) => return Err("`scale.apps` must be in 1..=16".to_owned()),
                    None => None,
                };
                let seed = opt_uint(s, "seed", false)?;
                let shards = opt_uint(s, "shards", true)?.map(|n| n as usize);
                (accesses, apps, seed, shards)
            }
        };
        let jobs = opt_uint(&json, "jobs", true)?.map(|n| n as usize);
        let deadline_ms = opt_uint(&json, "deadline_ms", true)?;
        let tables = match json.get("tables") {
            None => Tables::None,
            Some(v) => match v.as_str() {
                Some("none") => Tables::None,
                Some("text") => Tables::Text,
                Some("csv") => Tables::Csv,
                _ => return Err("`tables` must be none | text | csv".to_owned()),
            },
        };
        Ok(Request {
            op,
            id,
            client,
            experiments,
            preset,
            accesses,
            apps,
            seed,
            shards,
            jobs,
            deadline_ms,
            tables,
        })
    }
}

/// The shared `{schema, id, status}` response prefix. Key order is
/// part of the (pretty-printed, insertion-ordered) wire format.
fn response_base(id: &str, status: &str) -> Json {
    Json::obj()
        .with("schema", Json::Str(RESPONSE_SCHEMA.to_owned()))
        .with("id", Json::Str(id.to_owned()))
        .with("status", Json::Str(status.to_owned()))
}

/// The `ok` response prefix: [`response_base`] plus the server-side
/// wall-clock since frame receipt, in whole milliseconds
/// (`elapsed_ms`) and whole microseconds (`elapsed_us`, which still
/// resolves a warm request that finishes inside a millisecond).
fn response_ok(id: &str, elapsed: Duration) -> Json {
    response_base(id, "ok")
        .with("elapsed_ms", Json::UInt(elapsed.as_millis() as u64))
        .with("elapsed_us", Json::UInt(elapsed.as_micros() as u64))
}

/// A successful `run` response embedding a full `desc-run-report/v1`
/// document and, when requested, rendered tables keyed by experiment.
/// `dedup_cells` counts this request's cells that were computed by a
/// concurrent request and shared via single-flight (warm cache hits do
/// not count).
#[must_use]
pub fn ok_run(
    id: &str,
    elapsed: Duration,
    dedup_cells: u64,
    report: Json,
    tables: Option<Json>,
) -> Json {
    let mut out = response_ok(id, elapsed)
        .with("dedup_cells", Json::UInt(dedup_cells))
        .with("report", report);
    if let Some(tables) = tables {
        out = out.with("tables", tables);
    }
    out
}

/// A successful `ping` response with the server's live `serve` and
/// `cache` stanzas.
#[must_use]
pub fn ok_ping(id: &str, elapsed: Duration, serve: Json, cache: Json) -> Json {
    response_ok(id, elapsed).with("serve", serve).with("cache", cache)
}

/// A successful `shutdown` acknowledgement.
#[must_use]
pub fn ok_shutdown(id: &str, elapsed: Duration) -> Json {
    response_ok(id, elapsed)
}

/// An error response. `retry_after_ms` is only meaningful for
/// [`ErrorCode::Busy`].
#[must_use]
pub fn error(id: &str, code: ErrorCode, message: &str, retry_after_ms: Option<u64>) -> Json {
    let mut err = Json::obj()
        .with("code", Json::Str(code.as_str().to_owned()))
        .with("message", Json::Str(message.to_owned()));
    if let Some(ms) = retry_after_ms {
        err = err.with("retry_after_ms", Json::UInt(ms));
    }
    response_base(id, "error").with("error", err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, String> {
        Request::parse(text.as_bytes())
    }

    #[test]
    fn parses_a_minimal_run_request() {
        let req = parse(r#"{"schema":"desc-run-request/v1","op":"run","experiments":["fig16"]}"#)
            .unwrap();
        assert_eq!(req.op, Op::Run);
        assert_eq!(req.experiments, ["fig16"]);
        assert_eq!(req.preset, "tiny");
        assert_eq!(req.tables, Tables::None);
        assert!(req.deadline_ms.is_none());
        assert!(req.client.is_none());
    }

    #[test]
    fn parses_the_client_identity() {
        let req = parse(
            r#"{"schema":"desc-run-request/v1","op":"run","client":"ci-bot","experiments":["fig16"]}"#,
        )
        .unwrap();
        assert_eq!(req.client.as_deref(), Some("ci-bot"));
    }

    #[test]
    fn expands_all_to_every_experiment() {
        let req =
            parse(r#"{"schema":"desc-run-request/v1","op":"run","experiments":"all"}"#).unwrap();
        assert_eq!(req.experiments.len(), desc_experiments::experiment_names().len());
    }

    #[test]
    fn rejects_bad_schema_op_and_fields() {
        for (text, needle) in [
            (r#"{"op":"run","experiments":["fig16"]}"#, "schema"),
            (r#"{"schema":"desc-run-request/v2","op":"run"}"#, "unsupported schema"),
            (r#"{"schema":"desc-run-request/v1","op":"dance"}"#, "unknown op"),
            (r#"{"schema":"desc-run-request/v1","op":"run"}"#, "experiments"),
            (r#"{"schema":"desc-run-request/v1","op":"run","experiments":[]}"#, "experiments"),
            (
                r#"{"schema":"desc-run-request/v1","op":"run","experiments":["fig16"],"scale":{"apps":17}}"#,
                "apps",
            ),
            (
                r#"{"schema":"desc-run-request/v1","op":"run","experiments":["fig16"],"deadline_ms":0}"#,
                "deadline_ms",
            ),
            (
                r#"{"schema":"desc-run-request/v1","op":"run","experiments":["fig16"],"client":7}"#,
                "client",
            ),
            ("not json at all", "not JSON"),
            (r#"[1,2,3]"#, "object"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: error {err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn response_builders_tag_the_schema_and_echo_the_id() {
        let ok = ok_run("req-1", Duration::from_micros(12_345), 0, Json::obj(), None);
        assert_eq!(ok.get("schema").and_then(Json::as_str), Some(RESPONSE_SCHEMA));
        assert_eq!(ok.get("id").and_then(Json::as_str), Some("req-1"));
        assert_eq!(ok.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(ok.get("elapsed_ms").and_then(Json::as_u64), Some(12));
        assert_eq!(ok.get("elapsed_us").and_then(Json::as_u64), Some(12_345));
        let err = error("req-2", ErrorCode::Busy, "queue full", Some(250));
        assert_eq!(err.get("status").and_then(Json::as_str), Some("error"));
        let code = err.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("busy"));
        let retry = err.get("error").and_then(|e| e.get("retry_after_ms")).and_then(Json::as_u64);
        assert_eq!(retry, Some(250));
    }
}

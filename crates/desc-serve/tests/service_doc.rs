//! Pins `docs/SERVICE.md` to the code, in the style of
//! `desc-telemetry/tests/schema_doc.rs`: the document's "Key index"
//! block must list exactly the key paths the request encoder
//! ([`RunRequest::to_json`]) emits and the response builders
//! ([`proto::ok_run`] / [`proto::ok_ping`] / [`proto::error`])
//! produce. If the wire format or the document changes alone, this
//! test fails.

use desc_serve::client::RunRequest;
use desc_serve::proto::{self, ErrorCode, Tables};
use desc_telemetry::Json;
use std::collections::BTreeSet;
use std::time::Duration;

/// Extracts the fenced block following the "## Key index" heading.
fn documented_paths(doc: &str) -> BTreeSet<String> {
    let index = doc.split("## Key index").nth(1).expect("doc has a Key index section");
    let block = index.split("```").nth(1).expect("Key index has a fenced block");
    block
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && *l != "text")
        .map(|l| l.trim_end_matches('?').to_owned())
        .collect()
}

/// Flattens a document into the doc's path notation under `prefix`:
/// `scale` and `error` expand one level; `report`, `serve`, and
/// `cache` collapse to single leaves (their interiors belong to
/// `docs/REPORT_SCHEMA.md`); `tables` entries collapse to
/// `tables.<experiment>`.
fn flatten(prefix: &str, doc: &Json, out: &mut BTreeSet<String>) {
    let Json::Obj(top) = doc else { panic!("{prefix} document is an object") };
    for (key, value) in top {
        match key.as_str() {
            "scale" | "error" => {
                let Json::Obj(fields) = value else { panic!("{prefix}.{key} is an object") };
                for (k, _) in fields {
                    out.insert(format!("{prefix}.{key}.{k}"));
                }
            }
            // In a response `tables` is an object of rendered tables;
            // in a request it is the format selector string.
            "tables" if matches!(value, Json::Obj(_)) => {
                let Json::Obj(fields) = value else { unreachable!() };
                assert!(!fields.is_empty(), "representative tables must not be empty");
                out.insert(format!("{prefix}.tables.<experiment>"));
            }
            other => {
                out.insert(format!("{prefix}.{other}"));
            }
        }
    }
}

#[test]
fn service_document_matches_the_wire_encoders() {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SERVICE.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/SERVICE.md exists");
    let documented = documented_paths(&doc);

    let mut emitted = BTreeSet::new();

    // A representative request exercising every optional key.
    let request = RunRequest {
        id: Some("conformance".to_owned()),
        client: Some("conformance-suite".to_owned()),
        accesses: Some(400),
        apps: Some(2),
        seed: Some(2013),
        shards: Some(2),
        jobs: Some(4),
        deadline_ms: Some(60_000),
        tables: Tables::Csv,
        ..RunRequest::new(&["fig16"], "tiny")
    };
    flatten("request", &request.to_json(), &mut emitted);

    // Representative responses covering every `ok` shape and the
    // error shape with its conditional retry hint.
    let report = Json::obj().with("schema", Json::Str("desc-run-report/v1".to_owned()));
    let tables = Json::obj().with("fig16", Json::Str("rendered".to_owned()));
    let run = proto::ok_run("id", Duration::from_micros(1_500), 1, report, Some(tables));
    flatten("response", &run, &mut emitted);
    let serve = Json::obj();
    let cache = Json::obj();
    flatten("response", &proto::ok_ping("id", Duration::ZERO, serve, cache), &mut emitted);
    flatten("response", &proto::ok_shutdown("id", Duration::ZERO), &mut emitted);
    flatten(
        "response",
        &proto::error("id", ErrorCode::Busy, "queue full", Some(250)),
        &mut emitted,
    );

    assert_eq!(
        documented, emitted,
        "docs/SERVICE.md Key index disagrees with the wire encoders \
         (left: documented, right: emitted)"
    );

    // The parser accepts exactly what the reference encoder emits.
    let round_trip = request.to_json().to_pretty();
    let parsed = desc_serve::proto::Request::parse(round_trip.as_bytes())
        .expect("reference-encoded request parses");
    assert_eq!(parsed.id, "conformance");
    assert_eq!(parsed.experiments, ["fig16"]);
    assert_eq!(parsed.deadline_ms, Some(60_000));

    // The document names both schema tags and every error code.
    for needle in [proto::REQUEST_SCHEMA, proto::RESPONSE_SCHEMA] {
        assert!(doc.contains(needle), "SERVICE.md must name {needle:?}");
    }
    for code in [
        ErrorCode::Busy,
        ErrorCode::Deadline,
        ErrorCode::Malformed,
        ErrorCode::Oversized,
        ErrorCode::UnknownExperiment,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ] {
        assert!(
            doc.contains(&format!("`{}`", code.as_str())),
            "SERVICE.md must document error code {:?}",
            code.as_str()
        );
    }
}

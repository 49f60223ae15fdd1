//! `serve` turns telemetry on for its request captures, so every cell,
//! region and partition span also lands in the process-global
//! per-thread rings. Nothing in the service exports spans, so a
//! long-lived server must not keep them. A test binary of its own: the
//! rings are process-global and another test's spans would blur the
//! count.

use desc_serve::client::{shutdown_request, Client, RunRequest};
use desc_serve::{ServeConfig, Server};
use desc_telemetry::Json;

const ACCESSES: u64 = 200;

#[test]
fn serve_keeps_no_spans_between_requests() {
    // A warm hot tier makes the 30 requests cheap; each still records
    // one `cell` span per cell plus its `region` span. Count one
    // request's worth by running the same cells directly, warm from
    // the process's default store.
    desc_telemetry::set_enabled(true);
    let mut scale = desc_experiments::Scale::tiny();
    scale.accesses = ACCESSES as usize;
    let _ = desc_experiments::run_experiment("fig16", &scale);
    drop(desc_telemetry::drain_spans());
    let _ = desc_experiments::run_experiment("fig16", &scale);
    let per_request = desc_telemetry::drain_spans().len();
    assert!(per_request > 0, "a run records spans while telemetry is on");

    let server = Server::bind(ServeConfig::default()).expect("bind on loopback");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..30 {
        let request = RunRequest {
            id: Some(format!("run-{i}")),
            accesses: Some(ACCESSES),
            ..RunRequest::new(&["fig16"], "tiny")
        };
        let reply = client.request(&request.to_json()).expect("run");
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
    }

    let retained = desc_telemetry::drain_spans().len();
    assert!(
        retained <= per_request,
        "after 30 requests the rings hold {retained} spans; one request records {per_request}"
    );

    let bye = client.request(&shutdown_request("bye")).expect("shutdown");
    assert_eq!(bye.get("status").and_then(Json::as_str), Some("ok"));
    handle.join().expect("server thread").expect("clean drain");
}

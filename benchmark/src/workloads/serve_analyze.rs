//! `serve_analyze`: set-up builds the server in-process exactly as `wla
//! serve` does (`service_router` + `ServerConfig::default()`) and
//! generates the scale-100 corpus. One op is one `POST /analyze` over a
//! single keep-alive connection, closed loop, cycling through the 1,468
//! bodies; broken bodies expect 422.
//!
//! One connection, never two: the server shards accepts across its two
//! event loops, and which loop a connection lands on is a race. With two
//! long-lived client connections, runs landed on one loop or on both and
//! throughput came out bimodal (see README.md). Keep it at one until
//! accepts are distributed deterministically.

use crate::heap;
use crate::measure::{
    alternate_recording, end_to_end, median, per_layer, repeated_setup, set_metric, timed_loop,
    Outcome, BLOCK_OPS, MIN_BLOCKS,
};
use crate::trace::{Ledger, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wla_core::service::{analysis_error_json, analysis_json};
use wla_core::wla_apk::ApkError;
use wla_core::wla_corpus::playstore::AppMeta;
use wla_core::wla_corpus::{CorpusConfig, Generator};
use wla_core::wla_net::http::{form_encode, parse_request};
use wla_core::wla_net::{
    BeaconStore, ClientConn, Handler, Limits, NetLog, Request, Response, Server, ServerConfig,
    Status,
};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::analyze::{analyze_app_timed_with, AnalysisCtx, AppAnalysis};

/// Corpus scale divisor of `wla serve`'s users' default corpus: 1,468 apps.
pub const SCALE: u32 = 100;

/// Round trips a run must time so that every block `p99_ms` is computed
/// over has ten samples past its 99th percentile.
const MIN_P99_SAMPLES: usize = MIN_BLOCKS * BLOCK_OPS;

/// One request and what its response must be.
#[derive(Debug)]
pub struct Case {
    /// The request as the client sends it.
    pub request: Request,
    /// The same request on the wire.
    pub wire: Vec<u8>,
    /// The metadata the server attributes the request to.
    pub meta: AppMeta,
    /// Expected status: 200, or 422 for a broken container.
    pub status: Status,
    /// Expected body: `analysis_json` or `analysis_error_json`.
    pub body: String,
}

/// A running server, the in-process handler it serves, and the cases.
pub struct Setup {
    /// The server, bound to an ephemeral loopback port.
    pub server: Server,
    /// The same router, callable in-process.
    pub handler: Handler,
    /// The catalog the router analyses against.
    pub catalog: Arc<SdkIndex>,
    /// One case per corpus app, in corpus order.
    pub cases: Vec<Case>,
}

/// What the `/analyze` handler answers for `result`.
fn response_for(result: Result<AppAnalysis, ApkError>, ctx: &AnalysisCtx<'_>) -> (Status, String) {
    match result {
        Ok(a) => (Status::Ok, analysis_json(&a, ctx)),
        Err(e) => (Status::UnprocessableEntity, analysis_error_json(&e)),
    }
}

/// Build the router and server as `wla serve` does, and one case per app
/// of the seeded corpus with its reference response.
pub fn setup(seed: u64, scale: u32) -> std::io::Result<Setup> {
    let catalog = Arc::new(SdkIndex::paper());
    let page_html = Arc::new(wla_core::wla_web::testpage::test_page_html());
    let handler = wla_core::service_router(
        Arc::clone(&catalog),
        page_html,
        BeaconStore::default(),
        NetLog::new(),
    )
    .into_handler();
    let server = Server::bind(
        ("127.0.0.1", 0),
        Arc::clone(&handler),
        ServerConfig::default(),
    )?;

    let cfg = CorpusConfig {
        scale,
        seed,
        ..CorpusConfig::default()
    };
    let corpus = Generator::new(&catalog, cfg).generate();
    let cases = corpus
        .into_iter()
        .map(|app| {
            let m = app.spec.meta;
            let target = format!(
                "/analyze?package={}&category={}&downloads={}",
                form_encode(&m.package),
                form_encode(m.category.label()),
                m.downloads
            );
            // The server reads only these three fields from the query.
            let meta = AppMeta {
                package: m.package,
                on_play_store: true,
                downloads: m.downloads,
                category: m.category,
                last_update_day: 0,
            };
            let mut ctx = AnalysisCtx::new(&catalog);
            let (result, _) = analyze_app_timed_with(meta.clone(), &app.bytes, &mut ctx);
            let (status, body) = response_for(result, &ctx);
            let request = Request::post(target, app.bytes);
            let mut wire = Vec::new();
            request
                .write_into(&mut wire, false)
                .expect("writing to a Vec cannot fail");
            Case {
                request,
                wire,
                meta,
                status,
                body,
            }
        })
        .collect();
    Ok(Setup {
        server,
        handler,
        catalog,
        cases,
    })
}

/// Why `resp` is not what `case` expects, if it is not.
pub fn response_mismatch(resp: &Response, case: &Case) -> Option<String> {
    if resp.status != case.status {
        return Some(format!(
            "status {} where {} was expected",
            resp.status.code(),
            case.status.code()
        ));
    }
    (resp.body[..] != *case.body.as_bytes()).then(|| "body differs from the reference".to_owned())
}

/// The handler's body rebuilt from its public parts, with spans around
/// the analysis and the JSON rendering.
fn traced_handler(s: &Setup, case: &Case, req: &Request, t: &mut Tracer, id: u64) -> Response {
    let mut ctx = AnalysisCtx::new(&s.catalog);
    let meta = case.meta.clone();
    let result = t.span("static.analyze_s", id, |_| {
        analyze_app_timed_with(meta, &req.body, &mut ctx).0
    });
    t.span("core.json_s", id, |_| match response_for(result, &ctx) {
        (Status::Ok, body) => Response::ok("application/json", body.into_bytes()),
        (status, body) => {
            let mut resp = Response::error(status, &body);
            resp.headers[0].1 = "application/json".into();
            resp
        }
    })
}

/// A keep-alive connection that is reopened after a transport error.
struct Client {
    addr: std::net::SocketAddr,
    conn: Option<ClientConn>,
}

impl Client {
    /// One timed round trip: request write to full response read.
    fn round_trip(&mut self, req: &Request) -> (Duration, Result<Response, String>) {
        let started = Instant::now();
        let conn = match self.conn.take() {
            Some(c) => Ok(c),
            None => ClientConn::connect(self.addr),
        };
        let result = conn.map_err(|e| e.to_string()).and_then(|mut c| {
            let resp = c.send(req).map_err(|e| e.to_string())?;
            self.conn = Some(c);
            Ok(resp)
        });
        (started.elapsed(), result)
    }
}

fn wire_bytes(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    resp.write_into(&mut out, false);
    out
}

fn check(outcome: &mut Outcome, result: &Result<Response, String>, case: &Case) {
    outcome.check(match result {
        Ok(resp) => response_mismatch(resp, case),
        Err(e) => Some(format!("transport: {e}")),
    });
}

/// Set-ups per run.
const SETUPS: usize = 5;

/// Passes over every body whose heap peak is measured, one window each.
const HEAP_WINDOWS: usize = 5;

/// One traced op: the request parsed from its wire bytes, the handler
/// replayed in-process and its response serialised, each in a span, then
/// the real round trip, whose time not covered by those spans is recorded
/// as `net.transport_s`.
fn traced_op(
    s: &Setup,
    case: &Case,
    client: &mut Client,
    t: &mut Tracer,
    id: u64,
) -> (Duration, Result<Response, String>) {
    let started = Instant::now();
    let parse = t.begin("net.parse_s", id);
    let parsed = parse_request(&case.wire, &Limits::default());
    t.end(parse);
    let req = match parsed {
        Ok(Some((req, _))) => req,
        _ => {
            return (
                started.elapsed(),
                Err("request wire bytes did not parse".into()),
            )
        }
    };
    let handler = t.begin("core.handler_s", id);
    let response = traced_handler(s, case, &req, t, id);
    t.end(handler);
    let write = t.begin("net.write_s", id);
    std::hint::black_box(wire_bytes(&response));
    t.end(write);
    let (round_trip, result) = client.round_trip(&case.request);
    let in_process = t.duration_ns(parse) + t.duration_ns(handler) + t.duration_ns(write);
    t.add_self_ns(
        "net.transport_s",
        round_trip.as_nanos() as i128 - i128::from(in_process),
    );
    (started.elapsed(), result)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (s, setup) =
        repeated_setup(SETUPS, || setup(seed, SCALE)).map_err(|e| format!("set-up: {e}"))?;
    let n = s.cases.len();
    let mut client = Client {
        addr: s.server.addr(),
        conn: None,
    };
    let mut outcome = Outcome::default();

    // Fixed work for the peak heap: passes over every body, one window
    // each. How the client's and the server's per-request buffers overlap
    // depends on scheduling, so the median window is reported.
    let mut peaks = Vec::with_capacity(HEAP_WINDOWS);
    for _ in 0..HEAP_WINDOWS {
        let ((), peak) = heap::peak_growth_mib(|| {
            for case in &s.cases {
                let (_, result) = client.round_trip(&case.request);
                check(&mut outcome, &result, case);
            }
        });
        peaks.push(peak);
    }
    let peak_heap = median(&peaks);

    if !trace {
        let op_ns = timed_loop(seconds, |i| {
            let case = &s.cases[i as usize % n];
            let (took, result) = client.round_trip(&case.request);
            check(&mut outcome, &result, case);
            took
        });
        if op_ns.len() < MIN_P99_SAMPLES {
            outcome.run_errors.push(format!(
                "{} round trips, fewer than the {MIN_P99_SAMPLES} p99_ms needs",
                op_ns.len()
            ));
        }
        shed_check(&s, &mut outcome);
        outcome.metrics = end_to_end(&op_ns, 1.0, setup, (peak_heap, HEAP_WINDOWS));
        return Ok(outcome);
    }

    outcome.run_errors.extend(handler_pin(&s));
    // The same op with recording off and on in turn.
    let mut ledger = Ledger::default();
    let (untraced_ns, traced_ns) = alternate_recording(seconds, &mut ledger, |t, i| {
        let case = &s.cases[i as usize % n];
        let (took, result) = traced_op(&s, case, &mut client, t, i);
        check(&mut outcome, &result, case);
        took
    });
    shed_check(&s, &mut outcome);
    let stats = s.server.stats().snapshot();
    let mut metrics = per_layer(&ledger, &untraced_ns, &traced_ns);
    let requests = stats.requests as usize;
    set_metric(&mut metrics, "net.shed", stats.shed as f64, requests);
    set_metric(
        &mut metrics,
        "net.requests_per_conn",
        stats.requests_per_connection,
        requests,
    );
    outcome.metrics = metrics;
    Ok(outcome)
}

/// The pin: the replayed handler must answer every case exactly as the
/// router does in-process. Returns the first case where it does not.
fn handler_pin(s: &Setup) -> Option<String> {
    s.cases.iter().enumerate().find_map(|(i, case)| {
        let replayed = traced_handler(s, case, &case.request, &mut Tracer::off(), 0);
        (wire_bytes(&replayed) != wire_bytes(&(s.handler)(&case.request)))
            .then(|| format!("case {i}: replayed handler differs from the router"))
    })
}

/// Load shedding must never fire with one client connection.
fn shed_check(s: &Setup, outcome: &mut Outcome) {
    let shed = s.server.stats().snapshot().shed;
    if shed != 0 {
        outcome
            .run_errors
            .push(format!("{shed} connections were shed with 503"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_reference_counts_as_a_failed_op() {
        let mut s = setup(7, SCALE).unwrap();
        assert!(
            s.cases
                .iter()
                .any(|c| c.status == Status::UnprocessableEntity),
            "the corpus must hold a broken container"
        );
        let mut client = Client {
            addr: s.server.addr(),
            conn: None,
        };
        let mut outcome = Outcome::default();
        for case in &s.cases {
            let (_, result) = client.round_trip(&case.request);
            check(&mut outcome, &result, case);
        }
        assert_eq!(outcome.failed, 0);

        s.cases[0].body.push(' ');
        let (_, result) = client.round_trip(&s.cases[0].request);
        check(&mut outcome, &result, &s.cases[0]);
        assert_eq!(outcome.failed, 1);
        assert_eq!(s.server.stats().snapshot().accepted, 1, "one connection");
    }

    #[test]
    fn replayed_handler_equals_the_router() {
        let s = setup(3, SCALE).unwrap();
        assert_eq!(handler_pin(&s), None);
    }
}

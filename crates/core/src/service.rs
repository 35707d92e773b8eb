//! Analysis-as-a-service: the HTTP face of the static pipeline.
//!
//! `POST /analyze` takes a raw SDEX container body and returns the full
//! per-app static analysis as JSON (rendered with `wla_report::json`'s
//! emitter — stable field order, no wall-clock anything, so responses are
//! deterministic and the oracle/nonblocking equivalence suite can pin
//! them byte-for-byte). A container that decodes but is broken is a `422
//! Unprocessable Entity` whose JSON body carries the stable
//! [`ApkError::kind`] label; an oversized body never reaches the handler
//! (the codec answers 413), and a wrong method never reaches it either
//! (the router answers 405).
//!
//! [`service_router`] mounts the analysis routes *and* the dynamic-crawl
//! endpoints (beacon + netlog) on one router, so a single server fronts
//! both pipelines — `wla serve` exposes exactly that.

use std::sync::Arc;
use wla_apk::ApkError;
use wla_callgraph::UrlOrigin;
use wla_corpus::playstore::{AppMeta, PlayCategory};
use wla_intern::Symbol;
use wla_net::beacon::{beacon_routes, BeaconStore};
use wla_net::http::{parse_form, Method, Request, Response, Status};
use wla_net::netlog::{netlog_routes, NetLog};
use wla_net::Router;
use wla_report::json::{escape, number};
use wla_sdk_index::{LabelId, SdkIndex};
use wla_static::analyze::{analyze_app_timed_with, AnalysisCtx, AppAnalysis};
use wla_static::{CtSiteSummary, WebViewSiteSummary};

/// Mount `POST /analyze` and `GET /healthz` onto a router.
///
/// Each request runs the per-app pipeline in a fresh [`AnalysisCtx`] over
/// the shared paper catalog: contexts are cheap relative to an analysis,
/// the handler stays lock-free across event loops, and — since every
/// symbol is resolved to its string before emission — responses depend
/// only on the request bytes.
pub fn analysis_routes(router: Router, catalog: Arc<SdkIndex>) -> Router {
    router
        .route(Method::Get, "/healthz", |_req: &Request| {
            Response::ok("text/plain", &b"ok"[..])
        })
        .route(Method::Post, "/analyze", move |req: &Request| {
            let meta = meta_from_query(req.query());
            let mut ctx = AnalysisCtx::new(&catalog);
            let (result, _timings) = analyze_app_timed_with(meta, &req.body, &mut ctx);
            match result {
                Ok(analysis) => Response::ok(
                    "application/json",
                    analysis_json(&analysis, &ctx).into_bytes(),
                ),
                Err(e) => {
                    let mut resp =
                        Response::error(Status::UnprocessableEntity, &analysis_error_json(&e));
                    // error() defaults to text/plain; the taxonomy body is JSON.
                    resp.headers[0].1 = "application/json".into();
                    resp
                }
            }
        })
}

/// One router fronting both pipelines: static analysis (`/analyze`,
/// `/healthz`) plus the dynamic-crawl measurement endpoints (`/page`,
/// `/beacon`, `/netlog`, `/netlog/hosts`).
pub fn service_router(
    catalog: Arc<SdkIndex>,
    page_html: Arc<String>,
    store: BeaconStore,
    log: NetLog,
) -> Router {
    let router = analysis_routes(Router::new(), catalog);
    let router = beacon_routes(router, page_html, store);
    netlog_routes(router, log)
}

/// Build the [`AppMeta`] an analysis request is attributed to from the
/// optional query parameters `package`, `category`, and `downloads`.
/// Absent parameters take fixed defaults so identical requests always
/// analyze identically.
fn meta_from_query(query: Option<&str>) -> AppMeta {
    let pairs = query.map(parse_form).unwrap_or_default();
    let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str());
    AppMeta {
        package: get("package").unwrap_or("app.submitted").to_owned(),
        on_play_store: true,
        downloads: get("downloads")
            .and_then(|d| d.parse().ok())
            .unwrap_or(100_000),
        category: get("category")
            .and_then(PlayCategory::from_label)
            .unwrap_or(PlayCategory::Tools),
        last_update_day: 0,
    }
}

fn origin_str(origin: UrlOrigin) -> &'static str {
    match origin {
        UrlOrigin::Resolved => "resolved",
        UrlOrigin::Unknown => "unknown",
        UrlOrigin::Conflict => "conflict",
    }
}

fn label_str(label: LabelId, catalog: &SdkIndex) -> String {
    match label {
        LabelId::Sdk(idx) => catalog.sdks()[idx as usize].name.clone(),
        LabelId::CoreAndroid => "core-android".to_owned(),
        LabelId::Obfuscated => "obfuscated".to_owned(),
        LabelId::Unlabeled => "unlabeled".to_owned(),
    }
}

fn opt_sym_json(sym: Option<Symbol>, ctx: &AnalysisCtx<'_>) -> String {
    match sym {
        Some(s) => format!("\"{}\"", escape(ctx.lexicon.resolve(s))),
        None => "null".to_owned(),
    }
}

fn webview_site_json(s: &WebViewSiteSummary, ctx: &AnalysisCtx<'_>) -> String {
    format!(
        "{{\"method\":\"{}\",\"caller_class\":\"{}\",\"caller_package\":{},\"label\":\"{}\",\
         \"deep_link\":{},\"load_method\":{},\"argument\":{},\"origin\":\"{}\"}}",
        escape(ctx.lexicon.resolve(s.method)),
        escape(ctx.lexicon.resolve(s.caller_class)),
        opt_sym_json(s.caller_package.map(|p| p.symbol()), ctx),
        escape(&label_str(s.label, ctx.catalog)),
        s.in_deep_link_activity,
        s.is_load_method,
        opt_sym_json(s.argument, ctx),
        origin_str(s.origin),
    )
}

fn ct_site_json(s: &CtSiteSummary, ctx: &AnalysisCtx<'_>) -> String {
    format!(
        "{{\"method\":\"{}\",\"caller_class\":\"{}\",\"caller_package\":{},\"label\":\"{}\",\
         \"deep_link\":{},\"launch\":{},\"argument\":{},\"origin\":\"{}\"}}",
        escape(ctx.lexicon.resolve(s.method)),
        escape(ctx.lexicon.resolve(s.caller_class)),
        opt_sym_json(s.caller_package.map(|p| p.symbol()), ctx),
        escape(&label_str(s.label, ctx.catalog)),
        s.in_deep_link_activity,
        s.is_launch,
        opt_sym_json(s.argument, ctx),
        origin_str(s.origin),
    )
}

/// Render one [`AppAnalysis`] as the service's JSON document. Symbols are
/// resolved against the producing context's lexicon; every collection is
/// emitted in a deterministic order.
pub fn analysis_json(analysis: &AppAnalysis, ctx: &AnalysisCtx<'_>) -> String {
    let mut methods: Vec<&'static str> = analysis.methods_used().into_iter().collect();
    methods.sort_unstable();
    let methods: Vec<String> = methods
        .into_iter()
        .map(|m| format!("\"{}\"", escape(m)))
        .collect();
    let custom: Vec<String> = analysis
        .custom_webview_classes
        .iter()
        .map(|c| format!("\"{}\"", escape(ctx.lexicon.resolve(*c))))
        .collect();
    let wv: Vec<String> = analysis
        .webview_sites
        .iter()
        .map(|s| webview_site_json(s, ctx))
        .collect();
    let ct: Vec<String> = analysis
        .ct_sites
        .iter()
        .map(|s| ct_site_json(s, ctx))
        .collect();
    format!(
        "{{\"package\":\"{}\",\"category\":\"{}\",\"downloads\":{},\
         \"uses_webview\":{},\"uses_custom_tabs\":{},\"methods_used\":[{}],\
         \"custom_webview_classes\":[{}],\"unreachable_webview_sites\":{},\
         \"webview_sites\":[{}],\"ct_sites\":[{}]}}",
        escape(&analysis.package),
        escape(analysis.meta.category.label()),
        number(analysis.meta.downloads as f64),
        analysis.uses_webview(),
        analysis.uses_custom_tabs(),
        methods.join(","),
        custom.join(","),
        number(analysis.unreachable_webview_sites as f64),
        wv.join(","),
        ct.join(","),
    )
}

/// The 422 body: the stable machine-readable error kind plus the human
/// detail line.
pub fn analysis_error_json(e: &ApkError) -> String {
    format!(
        "{{\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
        escape(e.kind()),
        escape(&e.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_corpus::generator::{CorpusConfig, Generator};

    fn one_app() -> (AppMeta, Vec<u8>) {
        let catalog = SdkIndex::paper();
        let config = CorpusConfig {
            scale: 2_000,
            seed: 7,
            corrupt_fraction: 0.0,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, config).generate();
        let app = apps
            .into_iter()
            .find(|a| {
                wla_static::analyze::analyze_app(a.spec.meta.clone(), &a.bytes)
                    .map(|r| r.uses_webview())
                    .unwrap_or(false)
            })
            .expect("corpus contains a webview app");
        (app.spec.meta, app.bytes)
    }

    #[test]
    fn analyze_route_returns_analysis_json() {
        let catalog = Arc::new(SdkIndex::paper());
        let router = analysis_routes(Router::new(), Arc::clone(&catalog));
        let (meta, bytes) = one_app();
        let target = format!(
            "/analyze?package={}&category={}&downloads={}",
            wla_net::http::form_encode(&meta.package),
            wla_net::http::form_encode(meta.category.label()),
            meta.downloads
        );
        let resp = router.dispatch(&Request::post(target, bytes.clone()));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("\"uses_webview\":true"), "{body}");
        assert!(body.contains("\"webview_sites\":["), "{body}");

        // Deterministic: the same bytes produce the same document.
        let resp2 = router.dispatch(&Request::post(
            format!(
                "/analyze?package={}&category={}&downloads={}",
                wla_net::http::form_encode(&meta.package),
                wla_net::http::form_encode(meta.category.label()),
                meta.downloads
            ),
            bytes,
        ));
        assert_eq!(resp.body, resp2.body);
    }

    #[test]
    fn corrupted_container_is_422_with_error_kind() {
        let catalog = Arc::new(SdkIndex::paper());
        let router = analysis_routes(Router::new(), catalog);
        let resp = router.dispatch(&Request::post("/analyze", &b"not an sdex container"[..]));
        assert_eq!(resp.status, Status::UnprocessableEntity);
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("\"kind\":\"bad-magic\""), "{body}");
    }

    #[test]
    fn wrong_method_is_405() {
        let catalog = Arc::new(SdkIndex::paper());
        let router = analysis_routes(Router::new(), catalog);
        let resp = router.dispatch(&Request::get("/analyze"));
        assert_eq!(resp.status, Status::MethodNotAllowed);
        assert_eq!(resp.header("allow"), Some("POST"));
    }

    #[test]
    fn service_router_fronts_both_pipelines() {
        let catalog = Arc::new(SdkIndex::paper());
        let log = NetLog::new();
        let store = BeaconStore::default();
        let router = service_router(
            catalog,
            Arc::new("<html>page</html>".to_owned()),
            store.clone(),
            log.clone(),
        );
        assert_eq!(resp_status(&router, Request::get("/healthz")), Status::Ok);
        assert_eq!(resp_status(&router, Request::get("/page")), Status::Ok);
        let beacon = wla_net::beacon::encode_beacon("Document", "write", None, "com.x");
        assert_eq!(
            resp_status(&router, Request::post("/beacon", beacon.into_bytes())),
            Status::NoContent
        );
        assert_eq!(
            resp_status(
                &router,
                Request::post("/netlog", &b"source=1&url=https%3A%2F%2Fads.x%2Fb"[..])
            ),
            Status::NoContent
        );
        assert_eq!(store.records().len(), 1);
        assert_eq!(log.len(), 1);
    }

    fn resp_status(router: &Router, req: Request) -> Status {
        router.dispatch(&req).status
    }
}

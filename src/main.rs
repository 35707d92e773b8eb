//! `wla` — command-line front end for the reproduction.
//!
//! ```text
//! wla static  [--scale N] [--seed N]   run the §3.1 static campaign
//! wla funnel  [--seed N]               run the Table 2 metadata funnel
//! wla dynamic                          run the §3.2 dynamic campaign
//! wla crawl   [APP ...]                run the 100-site crawl (default: LinkedIn Kik)
//! wla labels  [--scale N]              emit privacy nutrition labels
//! wla all     [--scale N]              everything, with comparisons
//! wla serve   [--port N] [--smoke]     analysis-as-a-service HTTP server
//! ```

use whatcha_lookin_at::stats::{render_crawl_stats, render_server_stats};
use whatcha_lookin_at::wla_report::thousands;
use whatcha_lookin_at::wla_static::{grade_distribution, privacy_label};
use whatcha_lookin_at::{experiments, Study};

struct Args {
    command: String,
    scale: u32,
    seed: u64,
    json: bool,
    port: u16,
    smoke: bool,
    rest: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: String::new(),
        scale: 100,
        seed: 0xDA7A_5EED,
        json: false,
        port: 0,
        smoke: false,
        rest: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                if let Some(v) = argv.get(i + 1).and_then(|v| v.parse().ok()) {
                    args.scale = v;
                    i += 1;
                }
            }
            "--seed" => {
                if let Some(v) = argv.get(i + 1).and_then(|v| v.parse().ok()) {
                    args.seed = v;
                    i += 1;
                }
            }
            "--json" => args.json = true,
            "--port" => {
                if let Some(v) = argv.get(i + 1).and_then(|v| v.parse().ok()) {
                    args.port = v;
                    i += 1;
                }
            }
            "--smoke" => args.smoke = true,
            other if args.command.is_empty() => args.command = other.to_owned(),
            other => args.rest.push(other.to_owned()),
        }
        i += 1;
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: wla <static|funnel|dynamic|crawl|labels|all|serve> \
         [--scale N] [--seed N] [--json] [--port N] [--smoke] [args…]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let study = Study::new(args.scale, args.seed);
    let print_exp = |exp: &experiments::Experiment| {
        if args.json {
            println!(
                "{}",
                whatcha_lookin_at::wla_report::json::comparison_json(&exp.comparison)
            );
        } else {
            print_text(exp);
        }
    };

    match args.command.as_str() {
        "static" => {
            eprintln!("static campaign at scale 1:{} …", study.scale);
            let run = study.run_static();
            for exp in [
                experiments::table3(&study, &run),
                experiments::table4(&study, &run),
                experiments::table5(&study, &run),
                experiments::table7(&study, &run),
                experiments::fig3(&study, &run),
                experiments::fig4(&study, &run),
            ] {
                print_exp(&exp);
            }
        }
        "funnel" => {
            let run = study.run_static();
            let funnel = study.run_funnel(&run);
            print_exp(&experiments::table2(&study, &funnel));
        }
        "dynamic" => {
            let run = study.run_dynamic();
            for exp in [
                experiments::table6(&run),
                experiments::table8(&run),
                experiments::table9(&run),
            ] {
                print_exp(&exp);
            }
        }
        "crawl" => {
            let apps: Vec<&str> = if args.rest.is_empty() {
                vec!["LinkedIn", "Kik"]
            } else {
                args.rest.iter().map(String::as_str).collect()
            };
            eprintln!("crawling 100 sites through {apps:?} + baseline …");
            let run = study.run_crawl_parallel(
                Some(&apps),
                whatcha_lookin_at::wla_dynamic::CrawlConfig::default(),
            );
            print_exp(&experiments::fig6(&run));
            print_exp(&experiments::fig7());
            eprintln!("{}", render_crawl_stats(&run.stats));
        }
        "labels" => {
            eprintln!("deriving privacy labels at scale 1:{} …", study.scale);
            let run = study.run_static();
            let analyses: Vec<_> = {
                // Re-run analysis output through the label derivation.
                let inputs: Vec<whatcha_lookin_at::wla_static::CorpusInput> = run
                    .corpus
                    .iter()
                    .map(|g| whatcha_lookin_at::wla_static::CorpusInput {
                        meta: g.spec.meta.clone(),
                        bytes: g.bytes.clone(),
                    })
                    .collect();
                let out = whatcha_lookin_at::wla_static::run_pipeline(
                    &inputs,
                    &study.catalog,
                    whatcha_lookin_at::wla_static::PipelineConfig::default(),
                );
                out.analyzed()
                    .map(|a| privacy_label(a, &study.catalog))
                    .collect()
            };
            println!(
                "privacy-label grade distribution over {} apps:",
                analyses.len()
            );
            for (grade, n) in grade_distribution(&analyses) {
                println!(
                    "  {:45} {:>6} apps (×{} ≈ {})",
                    grade.label(),
                    n,
                    study.scale,
                    thousands(n as u64 * study.scale as u64)
                );
            }
            println!("\nexample labels:");
            for label in analyses.iter().take(3) {
                println!("{}", label.render());
            }
        }
        "all" => {
            let static_run = study.run_static();
            let funnel = study.run_funnel(&static_run);
            let dynamic_run = study.run_dynamic();
            let crawl_run = study
                .run_crawl_parallel(None, whatcha_lookin_at::wla_dynamic::CrawlConfig::default());
            for exp in [
                experiments::table2(&study, &funnel),
                experiments::table3(&study, &static_run),
                experiments::table4(&study, &static_run),
                experiments::table5(&study, &static_run),
                experiments::table6(&dynamic_run),
                experiments::table7(&study, &static_run),
                experiments::table8(&dynamic_run),
                experiments::table9(&dynamic_run),
                experiments::fig3(&study, &static_run),
                experiments::fig4(&study, &static_run),
                experiments::fig6(&crawl_run),
                experiments::fig7(),
            ] {
                print_exp(&exp);
            }
        }
        "serve" => serve(&args),
        _ => usage(),
    }
}

/// `wla serve`: front both pipelines over one nonblocking HTTP server.
///
/// `--port 0` (the default) binds an ephemeral port and prints it.
/// `--smoke` self-checks `GET /healthz` over loopback, prints the server
/// stats table, and exits — the CI smoke path.
fn serve(args: &Args) {
    use std::sync::Arc;
    use whatcha_lookin_at::wla_net::{
        fetch, BeaconStore, NetLog, Request, Server, ServerConfig, Status,
    };

    let catalog = Arc::new(whatcha_lookin_at::wla_sdk_index::SdkIndex::paper());
    let page_html = Arc::new(whatcha_lookin_at::wla_web::testpage::test_page_html());
    let store = BeaconStore::default();
    let log = NetLog::new();
    let router = whatcha_lookin_at::service_router(catalog, page_html, store, log).into_handler();
    let mut server = Server::bind(("127.0.0.1", args.port), router, ServerConfig::default())
        .unwrap_or_else(|e| {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        });
    println!("serving on http://{}", server.addr());
    eprintln!("routes: GET /healthz, POST /analyze, GET /page, POST /beacon, POST /netlog, GET /netlog/hosts");

    if args.smoke {
        let resp = fetch(server.addr(), Request::get("/healthz")).unwrap_or_else(|e| {
            eprintln!("smoke healthz failed: {e}");
            std::process::exit(1);
        });
        if resp.status != Status::Ok || &resp.body[..] != b"ok" {
            eprintln!("smoke healthz returned {:?}", resp.status);
            std::process::exit(1);
        }
        println!("{}", render_server_stats(&server.stats().snapshot()));
        server.shutdown();
        println!("smoke ok");
        return;
    }

    // Foreground service: report stats once a minute until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        eprintln!("{}", render_server_stats(&server.stats().snapshot()));
    }
}

fn print_text(exp: &experiments::Experiment) {
    println!("=== {} ===\n", exp.id);
    if !exp.table.headers.is_empty() || !exp.table.rows.is_empty() {
        println!("{}", exp.table.render());
    }
    for fig in &exp.figures {
        println!("{fig}");
    }
    println!("{}", exp.comparison.to_table().render());
}

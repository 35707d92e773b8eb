//! Golden snapshots of every run-statistics table.
//!
//! Each table is rendered from hand-built counter values — no clock, no
//! corpus — and compared byte for byte against the expected text under
//! `tests/golden/`. A "full" sample lights up every optional row and
//! table; an "empty" sample (all-default counters) pins which rows and
//! tables drop out when their counters are zero.

use std::collections::BTreeMap;
use std::path::Path;
use whatcha_lookin_at::stats::{
    render_crawl_stats, render_pipeline_stats, render_server_stats, render_url_origin_census,
};
use whatcha_lookin_at::wla_callgraph::CallGraphCounters;
use whatcha_lookin_at::wla_dynamic::crawl_pipeline::{
    CrawlInternerCounters, CrawlStats, CrawlWorkerStats,
};
use whatcha_lookin_at::wla_net::ServerStatsSnapshot;
use whatcha_lookin_at::wla_static::{
    DataflowCounters, DecodeCounters, InternerCounters, PipelineStats, StageTimings,
    StreamCounters, UrlOriginCensus, WorkerStats,
};

fn pipeline_full() -> PipelineStats {
    PipelineStats {
        total: 1_468,
        analyzed: 1_466,
        broken: 2,
        panicked: 1,
        stage: StageTimings {
            decode_ns: 100_000_000,
            decompile_ns: 50_000_000,
            callgraph_ns: 30_000_000,
            label_ns: 20_000_000,
        },
        wall_ns: 321_500_000,
        serial_tail_ns: 4_200_000,
        batch: 22,
        workers: vec![
            WorkerStats {
                apps: 183,
                batches: 9,
                busy_ns: 300_000_000,
            };
            8
        ],
        failure_kinds: BTreeMap::from([("analysis-panic", 1), ("bad-magic", 1)]),
        interner: InternerCounters {
            global_symbols: 20_480,
            global_bytes: 524_288,
            local_symbols: 33_574,
            local_bytes: 860_000,
            local_hits: 4_200,
            local_misses: 5_800,
            label_hits: 870,
            label_misses: 130,
            presized_symbols: 33_574,
        },
        callgraph: CallGraphCounters {
            graphs: 1_515,
            vtable_hits: 750,
            vtable_misses: 250,
            edges: 123_456,
            duplicate_edges: 321,
            bitset_reuses: 1_460,
            bitset_grows: 55,
            edges_traversed: 75_000,
        },
        dataflow: DataflowCounters {
            methods: 9_876,
            linear_methods: 9_283,
            blocks: 2_400,
            iterations: 3_100,
            resolved_sites: 3_000,
            unknown_sites: 200,
            conflict_sites: 10,
        },
        decode: DecodeCounters {
            full: 1_500,
            trusted: 3,
            lut_present: 1_503,
            lut_rebuilds: 12,
        },
        stream: StreamCounters {
            shards_read: 144,
            shards_cached: 1_324,
            shard_failures: 1,
            shard_failure_kinds: BTreeMap::from([("checksum-mismatch", 1)]),
            entries_streamed: 1_440,
            entries_cached: 13_240,
            bytes_mapped: 75_497_472,
            peak_mapped_bytes: 8_388_608,
        },
    }
}

fn crawl_full() -> CrawlStats {
    CrawlStats {
        visits_total: 1_100,
        visits_completed: 1_099,
        visits_panicked: 1,
        rows: 11,
        sites: 100,
        batch: 18,
        steps_executed: 10_990,
        requests_logged: 54_321,
        failure_kinds: BTreeMap::from([("visit-panic", 1)]),
        workers: vec![
            CrawlWorkerStats {
                visits: 137,
                batches: 8,
                busy_ns: 1_375_000,
            };
            8
        ],
        prepare_ns: 800_000,
        visit_ns: 11_000_000,
        merge_ns: 600_000,
        total_ns: 12_500_000,
        interner: CrawlInternerCounters {
            local_symbols: 410,
            local_bytes: 9_000,
            local_hits: 970,
            local_misses: 30,
            global_symbols: 160,
            global_bytes: 4_096,
            classify_hits: 930,
            classify_misses: 70,
        },
    }
}

fn server_full() -> ServerStatsSnapshot {
    ServerStatsSnapshot {
        accepted: 64,
        shed: 3,
        active: 2,
        idle_closed: 5,
        requests: 6_400,
        keepalive_requests: 6_336,
        parse_failures: 1,
        requests_per_connection: 100.0,
        p50_us: 42.5,
        p99_us: 812.0,
    }
}

fn census_full() -> UrlOriginCensus {
    UrlOriginCensus {
        resolved_sites: 1_900,
        unknown_sites: 80,
        conflict_sites: 20,
        apps_fully_resolved: 1_200,
        apps_with_unresolved: 68,
    }
}

/// Compare `actual` against `tests/golden/<name>` byte for byte.
fn check(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} drifted from its golden text\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn pipeline_stats_match_golden() {
    check(
        "pipeline_full.txt",
        &render_pipeline_stats(&pipeline_full()),
    );
    check(
        "pipeline_empty.txt",
        &render_pipeline_stats(&PipelineStats::default()),
    );
}

#[test]
fn crawl_stats_match_golden() {
    check("crawl_full.txt", &render_crawl_stats(&crawl_full()));
    check(
        "crawl_empty.txt",
        &render_crawl_stats(&CrawlStats::default()),
    );
}

#[test]
fn server_stats_match_golden() {
    check("server_full.txt", &render_server_stats(&server_full()));
    check(
        "server_empty.txt",
        &render_server_stats(&ServerStatsSnapshot::default()),
    );
}

#[test]
fn url_origin_census_matches_golden() {
    check("census_full.txt", &render_url_origin_census(&census_full()));
    check(
        "census_empty.txt",
        &render_url_origin_census(&UrlOriginCensus::default()),
    );
}

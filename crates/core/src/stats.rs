//! Run-statistics tables, rendered straight from the structs that own the
//! counters: [`PipelineStats`], [`CrawlStats`], [`ServerStatsSnapshot`]
//! and [`UrlOriginCensus`]. Every derived figure (rates, throughput)
//! comes from a method on the owning struct, so each metric is defined
//! once.

use wla_dynamic::CrawlStats;
use wla_net::ServerStatsSnapshot;
use wla_report::{percent, thousands, Table};
use wla_static::{PipelineStats, UrlOriginCensus};

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn mebibytes(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Append a `label | value` row.
fn metric(t: &mut Table, label: &str, value: String) {
    t.row_owned(vec![label.to_owned(), value]);
}

/// A `kind | count` taxonomy table; `None` when nothing was counted.
fn taxonomy<'a>(
    title: &str,
    unit: &str,
    kinds: impl IntoIterator<Item = (&'a &'static str, &'a usize)>,
) -> Option<Table> {
    let mut t = Table::new(title, &["Kind", unit]);
    for (kind, count) in kinds {
        metric(&mut t, kind, thousands(*count as u64));
    }
    (!t.rows.is_empty()).then_some(t)
}

/// Render tables as one text block, separated by blank lines.
fn join(tables: impl IntoIterator<Item = Table>) -> String {
    tables
        .into_iter()
        .map(|t| t.render())
        .collect::<Vec<_>>()
        .join("\n")
}

/// The static pipeline's run summary, then — when they have content — the
/// per-stage timing, failure taxonomy and shard-streaming tables.
pub fn render_pipeline_stats(s: &PipelineStats) -> String {
    join(
        [pipeline_summary(s)]
            .into_iter()
            .chain(pipeline_stages(s))
            .chain(taxonomy("Failure taxonomy", "Apps", &s.failure_kinds))
            .chain(shard_streaming(s)),
    )
}

fn pipeline_summary(s: &PipelineStats) -> Table {
    let mut t = Table::new("Pipeline run summary", &["Metric", "Value"]);
    metric(&mut t, "Apps total", thousands(s.total as u64));
    metric(&mut t, "Apps analyzed", thousands(s.analyzed as u64));
    metric(&mut t, "Apps broken", thousands(s.broken as u64));
    metric(&mut t, "  of which panicked", thousands(s.panicked as u64));
    metric(&mut t, "Wall time", format!("{:.1} ms", ms(s.wall_ns)));
    if s.serial_tail_ns > 0 {
        let tail = format!("{:.1} ms", ms(s.serial_tail_ns));
        metric(&mut t, "  of which serial tail", tail);
    }
    let throughput = format!("{:.0} apps/s", s.apps_per_second());
    metric(&mut t, "Throughput", throughput);
    let workers = format!("{} (batch {})", s.workers.len(), s.batch);
    metric(&mut t, "Worker threads", workers);
    metric(&mut t, "Pool utilization", percent(s.utilization()));
    let i = &s.interner;
    if i.global_symbols > 0 {
        let symbols = format!(
            "{} ({} KiB)",
            thousands(i.global_symbols as u64),
            i.global_bytes / 1024
        );
        metric(&mut t, "Interned symbols", symbols);
        metric(&mut t, "Intern cache hit rate", percent(i.local_hit_rate()));
        metric(&mut t, "Label cache hit rate", percent(i.label_hit_rate()));
        if i.presized_symbols > 0 {
            let presize = percent(i.presize_hit_rate());
            metric(&mut t, "Interner pre-size hit rate", presize);
        }
    }
    let g = &s.callgraph;
    if g.edges > 0 {
        metric(&mut t, "Call-graph edges (CSR)", thousands(g.edges));
        metric(
            &mut t,
            "Vtable cache hit rate",
            percent(g.vtable_hit_rate()),
        );
        metric(&mut t, "Bitset scratch reuses", thousands(g.bitset_reuses));
        metric(&mut t, "Edges traversed", thousands(g.edges_traversed));
    }
    let d = &s.decode;
    if d.total() > 0 {
        let full = format!("{} of {}", thousands(d.full), thousands(d.total()));
        metric(&mut t, "Dex decodes (full verify)", full);
        if d.trusted > 0 {
            metric(&mut t, "  trusted", thousands(d.trusted));
        }
        let luts = format!(
            "{} ({} rebuilt lazily)",
            thousands(d.lut_present),
            thousands(d.lut_rebuilds)
        );
        metric(&mut t, "Stored lookup tables", luts);
    }
    let f = &s.dataflow;
    if f.methods > 0 {
        let linear = format!("{} ({})", thousands(f.methods), percent(f.linear_rate()));
        metric(&mut t, "Dataflow methods (linear)", linear);
        let resolved = format!("{} of {}", percent(f.resolved_rate()), thousands(f.sites()));
        metric(&mut t, "Invokes resolved to consts", resolved);
    }
    t
}

/// Per-stage timing; `None` when stage timing was disabled.
fn pipeline_stages(s: &PipelineStats) -> Option<Table> {
    if s.stage.total_ns() == 0 {
        return None;
    }
    let stages = [
        ("decode", ms(s.stage.decode_ns)),
        ("decompile", ms(s.stage.decompile_ns)),
        ("callgraph", ms(s.stage.callgraph_ns)),
        ("label", ms(s.stage.label_ns)),
    ];
    let total: f64 = stages.iter().map(|(_, ms)| ms).sum();
    let mut t = Table::new(
        "Per-stage analysis time (summed over apps)",
        &["Stage", "Time (ms)", "Share"],
    );
    for (stage, ms) in stages {
        t.row_owned(vec![stage.into(), format!("{ms:.1}"), percent(ms / total)]);
    }
    t.row_owned(vec!["total".into(), format!("{total:.1}"), percent(1.0)]);
    Some(t)
}

/// Shard-streaming counters; `None` for in-memory runs (no shard touched).
fn shard_streaming(s: &PipelineStats) -> Option<Table> {
    let st = &s.stream;
    if st.shards_read + st.shards_cached + st.shard_failures == 0 {
        return None;
    }
    let mut t = Table::new("Shard streaming", &["Metric", "Value"]);
    metric(&mut t, "Shards read", thousands(st.shards_read as u64));
    let cached = thousands(st.shards_cached as u64);
    metric(&mut t, "Shards from resume cache", cached);
    if st.shard_failures > 0 {
        metric(&mut t, "Shards failed", thousands(st.shard_failures as u64));
        for (kind, count) in &st.shard_failure_kinds {
            metric(&mut t, &format!("  {kind}"), thousands(*count as u64));
        }
    }
    let streamed = thousands(st.entries_streamed as u64);
    metric(&mut t, "Entries streamed", streamed);
    let cached = thousands(st.entries_cached as u64);
    metric(&mut t, "Entries from resume cache", cached);
    if st.bytes_mapped > 0 {
        metric(&mut t, "Bytes mapped", mebibytes(st.bytes_mapped));
        let peak = mebibytes(st.peak_mapped_bytes);
        metric(&mut t, "Peak concurrently mapped", peak);
    }
    Some(t)
}

/// The crawl's run summary and phase timing, then its failure taxonomy
/// when any visit failed.
pub fn render_crawl_stats(s: &CrawlStats) -> String {
    join(
        [crawl_summary(s), crawl_timing(s)]
            .into_iter()
            .chain(taxonomy(
                "Crawl failure taxonomy",
                "Visits",
                &s.failure_kinds,
            )),
    )
}

fn crawl_summary(s: &CrawlStats) -> Table {
    let mut t = Table::new("Crawl run summary", &["Metric", "Value"]);
    let matrix = format!(
        "{} rows x {} sites = {}",
        s.rows,
        s.sites,
        thousands(s.visits_total as u64)
    );
    metric(&mut t, "Visit matrix", matrix);
    let completed = thousands(s.visits_completed as u64);
    metric(&mut t, "Visits completed", completed);
    if s.visits_panicked > 0 {
        let panicked = thousands(s.visits_panicked as u64);
        metric(&mut t, "  of which panicked", panicked);
    }
    metric(&mut t, "Script steps executed", thousands(s.steps_executed));
    metric(
        &mut t,
        "Netlog events captured",
        thousands(s.requests_logged),
    );
    metric(&mut t, "Wall time", format!("{:.1} ms", ms(s.total_ns)));
    let throughput = format!("{:.0} visits/s", s.visits_per_second());
    metric(&mut t, "Throughput", throughput);
    let workers = format!("{} (batch {})", s.workers.len(), s.batch);
    metric(&mut t, "Worker threads", workers);
    metric(&mut t, "Pool utilization", percent(s.utilization()));
    let i = &s.interner;
    if i.global_symbols > 0 {
        let symbols = format!(
            "{} ({} KiB)",
            thousands(i.global_symbols as u64),
            i.global_bytes / 1024
        );
        metric(&mut t, "Interned symbols", symbols);
        metric(&mut t, "Intern cache hit rate", percent(i.local_hit_rate()));
        let classify = percent(s.classify_hit_rate());
        metric(&mut t, "Classify memo hit rate", classify);
    }
    t
}

/// Where the crawl's wall clock went: page prep, the pool, the serial tail.
fn crawl_timing(s: &CrawlStats) -> Table {
    let mut t = Table::new("Crawl phase timing", &["Phase", "Time (ms)"]);
    for (phase, ns) in [
        ("prepare pages", s.prepare_ns),
        ("visits (summed busy)", s.visit_ns),
        ("merge tail", s.merge_ns),
        ("wall", s.total_ns),
    ] {
        metric(&mut t, phase, format!("{:.1}", ms(ns)));
    }
    t
}

/// The HTTP server summary: connections, requests, service latency.
pub fn render_server_stats(s: &ServerStatsSnapshot) -> String {
    let mut t = Table::new("HTTP server summary", &["Metric", "Value"]);
    metric(&mut t, "Connections accepted", thousands(s.accepted));
    if s.shed > 0 {
        metric(&mut t, "Connections shed (503)", thousands(s.shed));
    }
    metric(&mut t, "Connections active", thousands(s.active));
    if s.idle_closed > 0 {
        metric(&mut t, "Idle connections swept", thousands(s.idle_closed));
    }
    metric(&mut t, "Requests served", thousands(s.requests));
    let keepalive = thousands(s.keepalive_requests);
    metric(&mut t, "  of which keep-alive", keepalive);
    if s.parse_failures > 0 {
        metric(&mut t, "Parse failures (4xx)", thousands(s.parse_failures));
    }
    let per_conn = format!("{:.2}", s.requests_per_connection);
    metric(&mut t, "Requests / connection", per_conn);
    metric(&mut t, "Service time p50", format!("{:.1} us", s.p50_us));
    metric(&mut t, "Service time p99", format!("{:.1} us", s.p99_us));
    t.render()
}

/// The §3.1.4 URL-origin census: resolved / unknown / conflicting sites
/// with their shares, and per-app resolution. Site counts are raw (not
/// rescaled): they describe the corpus actually analyzed.
pub fn render_url_origin_census(c: &UrlOriginCensus) -> String {
    let total = c.total_sites();
    let share = |n: usize| {
        if total == 0 {
            percent(0.0)
        } else {
            percent(n as f64 / total as f64)
        }
    };
    let mut t = Table::new(
        "URL-origin census (constant propagation at URL-bearing sites)",
        &["Origin", "Sites", "Share"],
    );
    for (origin, n) in [
        ("Resolved constant", c.resolved_sites),
        ("Unknown", c.unknown_sites),
        ("Conflicting paths", c.conflict_sites),
    ] {
        t.row_owned(vec![origin.into(), thousands(n as u64), share(n)]);
    }
    for (apps, n) in [
        ("Apps fully resolved", c.apps_fully_resolved),
        ("Apps with unresolved sites", c.apps_with_unresolved),
    ] {
        t.row_owned(vec![apps.into(), thousands(n as u64), String::new()]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Study;

    #[test]
    fn pipeline_stats_render_from_a_real_run() {
        let run = Study::new(1_000, 99).run_static();
        let s = &run.stats;
        assert_eq!(s.analyzed + s.broken, s.total);
        assert!(s.apps_per_second() > 0.0);
        assert!(s.serial_tail_ns > 0);
        let presize = s.interner.presize_hit_rate();
        assert!(presize > 0.0 && presize <= 1.0);
        // Call-graph observability: edges were built and traversed, and
        // the hit rate is a valid fraction.
        assert!(s.callgraph.edges > 0);
        assert!(s.callgraph.edges_traversed > 0);
        assert!((0.0..=1.0).contains(&s.callgraph.vtable_hit_rate()));
        // The dataflow pass ran over every invoke (generic calls stay
        // unresolved, so the rate is a proper fraction — the URL-only
        // 100% lives in the census).
        assert!(s.dataflow.methods > 0);
        assert!((0.0..=1.0).contains(&s.dataflow.linear_rate()));
        let resolved = s.dataflow.resolved_rate();
        assert!(resolved > 0.0 && resolved < 1.0);
        let rendered = render_pipeline_stats(s);
        for needle in [
            "Pipeline run summary",
            "serial tail",
            "Per-stage analysis time",
            "Call-graph edges (CSR)",
            "Edges traversed",
            "Invokes resolved to consts",
        ] {
            assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
        }
        // In-memory runs render no shard-streaming table.
        assert!(!rendered.contains("Shard streaming"));
    }

    #[test]
    fn streamed_run_renders_the_streaming_table() {
        let study = Study::new(4_000, 11);
        let dir = std::env::temp_dir().join(format!("wla-stats-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = study
            .run_static_streamed(&dir, wla_static::StreamConfig::default())
            .unwrap();
        assert!(run.stats.stream.shards_read > 0);
        assert_eq!(run.stats.stream.entries_streamed, run.stats.total);
        let rendered = render_pipeline_stats(&run.stats);
        assert!(rendered.contains("Shard streaming"));
        assert!(rendered.contains("Entries streamed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crawl_stats_render_from_a_real_run() {
        let run = Study::default_experiment().run_crawl_parallel(
            Some(&["Kik"]),
            wla_dynamic::CrawlConfig {
                workers: 2,
                batch: 0,
                oversubscribe: true,
            },
        );
        let s = &run.stats;
        assert_eq!(s.visits_total, 200); // (baseline + Kik) x 100 sites
        assert_eq!(s.visits_completed, s.visits_total);
        assert_eq!(s.visits_panicked, 0);
        assert_eq!(s.workers.len(), 2);
        assert!(s.visits_per_second() > 0.0);
        assert!(s.interner.local_hit_rate() > 0.0);
        assert!(s.classify_hit_rate() > 0.0);
        let rendered = render_crawl_stats(s);
        assert!(rendered.contains("2 rows x 100 sites = 200"));
        assert!(rendered.contains("Crawl phase timing"));
        assert!(!rendered.contains("Crawl failure taxonomy"));
    }
}

//! `corpus_scan`: set-up generates a scale-20 corpus (7,340 apps) and
//! writes it as WSHD shards; one op streams every shard through the
//! per-app chain on one worker, resume off, and aggregates.
//!
//! Decode, subclass closure, call graph, dataflow and reach+record do
//! nearly all of the timed work; the funnel, dynamic and crawl layers are
//! bypassed. One `AnalysisCtx` serves all 7,340 apps over a working set
//! larger than the caches. One worker, because on a 2-core host a second
//! worker made run-to-run spread several times wider; `study` keeps the
//! parallel path covered.

use crate::heap;
use crate::measure::{
    alternate_recording, end_to_end, per_layer, repeated_setup, set_metric, timed_loop, Outcome,
};
use crate::trace::{Ledger, Tracer};
use crate::workloads::{WorkDir, TOP_SDK_THRESHOLD};
use bytes::Bytes;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;
use wla_core::service::{analysis_error_json, analysis_json};
use wla_core::wla_apk::{ApkError, Dex, Sapk, SectionTag, VerifyPreset};
use wla_core::wla_callgraph::{entry_points, record_web_calls_with, CallGraph, WebCallRecord};
use wla_core::wla_corpus::playstore::AppMeta;
use wla_core::wla_corpus::shard::{list_shards, Shard};
use wla_core::wla_corpus::{write_sharded_corpus, CorpusConfig, Generator};
use wla_core::wla_decompile::webview_subclasses_dex_interned;
use wla_core::wla_intern::Symbol;
use wla_core::wla_manifest::{wireformat, Manifest};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::analyze::{analyze_app_bytes_timed_with, AnalysisCtx, AppAnalysis};
use wla_core::wla_static::{
    aggregate, dataflow, run_pipeline, run_pipeline_streamed, CorpusInput, CtSiteSummary,
    PipelineConfig, PipelineOutput, StreamConfig, StudyResults, WebViewSiteSummary,
};

/// Corpus scale divisor: 146,800 / 20 = 7,340 apps, about 12 MB of shards.
pub const SCALE: u32 = 20;

/// The layer spans of one traced op; `static.unattributed_s` is the
/// untraced op time minus their self times.
const LAYERS: [&str; 7] = [
    "corpus.shard_open_s",
    "apk.decode_s",
    "decompile.subclasses_s",
    "callgraph.build_s",
    "static.dataflow_s",
    "callgraph.reach_record_s",
    "static.aggregate_s",
];

/// Apps per shard file, as `Study::run_static_streamed` writes them.
const PER_SHARD: usize = 64;

/// A written corpus and what every scan of it must produce.
#[derive(Debug)]
pub struct Setup {
    /// Holds `shards/`.
    pub dir: WorkDir,
    /// The SDK catalog every scan labels against.
    pub catalog: SdkIndex,
    /// `aggregate(run_pipeline(..))` over the in-memory corpus.
    pub reference: StudyResults,
    /// Apps in the corpus.
    pub apps: usize,
}

/// Generate the corpus, write its shards, and compute the reference.
pub fn setup(seed: u64, scale: u32) -> std::io::Result<Setup> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale,
        seed,
        ..CorpusConfig::default()
    };
    let corpus = Generator::new(&catalog, cfg).generate();
    let dir = WorkDir::new("corpus_scan")?;
    write_sharded_corpus(dir.path(), &corpus, PER_SHARD)?;
    let inputs: Vec<CorpusInput> = corpus
        .into_iter()
        .map(|g| CorpusInput {
            meta: g.spec.meta,
            bytes: g.bytes,
        })
        .collect();
    let output = run_pipeline(&inputs, &catalog, PipelineConfig::default());
    let reference = aggregate(&output, &catalog, TOP_SDK_THRESHOLD);
    Ok(Setup {
        dir,
        catalog,
        reference,
        apps: inputs.len(),
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        pipeline: PipelineConfig {
            workers: 1,
            ..PipelineConfig::default()
        },
        resume: false,
        ..StreamConfig::default()
    }
}

/// One untraced op: stream every shard, then aggregate.
pub fn scan(s: &Setup) -> std::io::Result<(PipelineOutput, StudyResults)> {
    let output = run_pipeline_streamed(s.dir.path(), &s.catalog, stream_config())?;
    let results = aggregate(&output, &s.catalog, TOP_SDK_THRESHOLD);
    Ok((output, results))
}

/// Why `got` is not the reference, if it is not.
pub fn results_mismatch(got: &StudyResults, want: &StudyResults) -> Option<String> {
    (got != want).then(|| {
        format!(
            "StudyResults differ from the in-memory reference \
             (analyzed {} vs {}, broken {} vs {}, webview apps {} vs {})",
            got.analyzed,
            want.analyzed,
            got.broken,
            want.broken,
            got.webview_apps,
            want.webview_apps
        )
    })
}

/// One app's result as the service would render it: the analysis JSON,
/// or the error JSON. Symbols are resolved, so documents from different
/// contexts compare equal exactly when the analyses agree.
pub fn app_doc(result: &Result<AppAnalysis, ApkError>, ctx: &AnalysisCtx<'_>) -> String {
    match result {
        Ok(a) => analysis_json(a, ctx),
        Err(e) => analysis_error_json(e),
    }
}

/// What the pipeline's own per-app entry point produces for every shard
/// entry, in corpus order: the reference the traced replay is pinned to.
pub fn pipeline_docs(dir: &Path, catalog: &SdkIndex) -> Result<Vec<String>, String> {
    let mut ctx = AnalysisCtx::new(catalog);
    let mut docs = Vec::new();
    for path in list_shards(dir).map_err(|e| format!("list shards: {e}"))? {
        let shard = Shard::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
        for e in 0..shard.len() {
            let (result, _) = analyze_app_bytes_timed_with(
                shard.entry_meta(e).clone(),
                shard.entry_bytes(e),
                &mut ctx,
            );
            docs.push(app_doc(&result, &ctx));
        }
    }
    Ok(docs)
}

/// Container, manifest and dex decoding, as the pipeline does it.
fn decode(bytes: Bytes, preset: VerifyPreset) -> Result<(Manifest, Vec<Dex>), ApkError> {
    let apk = Sapk::decode_bytes_with(bytes, preset)?;
    let manifest: Manifest = wireformat::decode(apk.manifest_bytes()?)?;
    let mut dexes = Vec::new();
    for s in apk.sections().iter().filter(|s| s.tag == SectionTag::Dex) {
        dexes.push(Dex::decode_bytes_with(s.data.clone(), preset)?);
    }
    if dexes.is_empty() {
        return Err(ApkError::MissingSection("dex"));
    }
    Ok((manifest, dexes))
}

/// The per-app chain with a span around each layer call.
fn replay_app(
    meta: AppMeta,
    bytes: Bytes,
    ctx: &mut AnalysisCtx<'_>,
    t: &mut Tracer,
    app: u64,
) -> Result<AppAnalysis, ApkError> {
    let preset = ctx.verify_preset;
    let decoded = t.span("apk.decode_s", app, |_| decode(bytes, preset));
    let (manifest, dexes) = match decoded {
        Ok(v) => v,
        Err(e) => {
            t.count("apk.rejected", 1);
            return Err(e);
        }
    };
    t.count("apk.dexes", dexes.len() as u64);
    let subclasses = t.span("decompile.subclasses_s", app, |_| {
        webview_subclasses_dex_interned(&dexes, &mut ctx.lexicon)
    });
    let mut records = Vec::with_capacity(dexes.len());
    for dex in &dexes {
        let mut graph = t.span("callgraph.build_s", app, |_| {
            CallGraph::build_with(dex, ctx.use_lut)
        });
        t.count("callgraph.edges", graph.edge_count() as u64);
        let before = ctx.dataflow.iterations;
        t.span("static.dataflow_s", app, |_| {
            dataflow::annotate(dex, graph.sites_mut(), &mut ctx.dataflow)
        });
        t.count(
            "static.dataflow_iterations",
            ctx.dataflow.iterations - before,
        );
        let before = ctx.reach.edges_traversed;
        let record = t.span("callgraph.reach_record_s", app, |_| {
            let roots = entry_points(&graph, &manifest);
            record_web_calls_with(
                &graph,
                &roots,
                &subclasses,
                ctx.catalog,
                &mut ctx.lexicon,
                &mut ctx.labels,
                &mut ctx.reach,
            )
        });
        t.count(
            "callgraph.edges_traversed",
            ctx.reach.edges_traversed - before,
        );
        records.push(record);
    }
    Ok(summarize(meta, &manifest, &records, subclasses, ctx))
}

/// Site summaries with the deep-link exclusion: the pipeline's label step.
fn summarize(
    meta: AppMeta,
    manifest: &Manifest,
    records: &[WebCallRecord],
    subclasses: HashSet<Symbol>,
    ctx: &AnalysisCtx<'_>,
) -> AppAnalysis {
    let deep_link: HashSet<Symbol> = manifest
        .deep_link_activities()
        .iter()
        .filter_map(|c| ctx.lexicon.get(&c.class_name))
        .collect();
    let mut webview_sites = Vec::new();
    let mut ct_sites = Vec::new();
    let mut unreachable_webview_sites = 0;
    for record in records {
        unreachable_webview_sites += record.webview.iter().filter(|s| !s.reachable).count();
        webview_sites.extend(record.webview.iter().filter(|s| s.reachable).map(|s| {
            WebViewSiteSummary {
                method: s.method,
                method_idx: s.method_idx,
                caller_class: s.caller_class,
                caller_package: s.caller_package,
                label: s.label,
                in_deep_link_activity: deep_link.contains(&s.caller_class),
                is_load_method: s.is_load_method,
                argument: s.argument,
                origin: s.origin,
            }
        }));
        ct_sites.extend(
            record
                .custom_tabs
                .iter()
                .filter(|s| s.reachable)
                .map(|s| CtSiteSummary {
                    method: s.method,
                    is_launch: s.is_launch,
                    caller_class: s.caller_class,
                    caller_package: s.caller_package,
                    label: s.label,
                    in_deep_link_activity: deep_link.contains(&s.caller_class),
                    argument: s.argument,
                    origin: s.origin,
                }),
        );
    }
    let mut custom_webview_classes: Vec<Symbol> = subclasses.into_iter().collect();
    custom_webview_classes.sort_by(|a, b| ctx.lexicon.resolve(*a).cmp(ctx.lexicon.resolve(*b)));
    AppAnalysis {
        package: manifest.package.clone(),
        meta,
        webview_sites,
        ct_sites,
        custom_webview_classes,
        unreachable_webview_sites,
    }
}

/// One traced op: a one-worker replay of the per-app chain over every
/// shard, then `aggregate` over `aggregate_input` (an untraced scan's
/// output — the replay does not rebuild the pipeline's global symbol
/// table). Returns the per-app results and the context they resolve in.
pub fn traced_scan<'c>(
    s: &'c Setup,
    aggregate_input: &PipelineOutput,
    t: &mut Tracer,
    op: u64,
) -> Result<(Vec<Result<AppAnalysis, ApkError>>, AnalysisCtx<'c>), String> {
    let root = t.begin("corpus_scan.op", op);
    let mut ctx = AnalysisCtx::new(&s.catalog);
    let mut results = Vec::with_capacity(s.apps);
    let replayed = replay_shards(s.dir.path(), &mut ctx, t, &mut results);
    let aggregated = t.span("static.aggregate_s", op, |_| {
        aggregate(aggregate_input, &s.catalog, TOP_SDK_THRESHOLD)
    });
    t.end(root);
    std::hint::black_box(aggregated);
    replayed.map(|()| (results, ctx))
}

fn replay_shards(
    dir: &Path,
    ctx: &mut AnalysisCtx<'_>,
    t: &mut Tracer,
    results: &mut Vec<Result<AppAnalysis, ApkError>>,
) -> Result<(), String> {
    for path in list_shards(dir).map_err(|e| format!("list shards: {e}"))? {
        let app0 = results.len() as u64;
        let shard = t
            .span("corpus.shard_open_s", app0, |_| Shard::open(&path))
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        t.count("corpus.shard_bytes", shard.file_len());
        for e in 0..shard.len() {
            let app = results.len() as u64;
            let meta = shard.entry_meta(e).clone();
            results.push(replay_app(meta, shard.entry_bytes(e), ctx, t, app));
        }
    }
    Ok(())
}

/// The first app whose replayed document differs from the pipeline's.
pub fn replay_mismatch(
    results: &[Result<AppAnalysis, ApkError>],
    ctx: &AnalysisCtx<'_>,
    pinned: &[String],
) -> Option<String> {
    if results.len() != pinned.len() {
        return Some(format!(
            "replay saw {} apps, the pipeline {}",
            results.len(),
            pinned.len()
        ));
    }
    results
        .iter()
        .zip(pinned)
        .position(|(r, want)| app_doc(r, ctx) != *want)
        .map(|i| format!("app {i}: replayed sites differ from analyze_app_bytes_timed_with"))
}

/// Set-ups per run.
const SETUPS: usize = 3;

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (s, setup) =
        repeated_setup(SETUPS, || setup(seed, SCALE)).map_err(|e| format!("set-up: {e}"))?;
    let mut outcome = Outcome::default();

    // Fixed work for the peak heap: one scan.
    let (first_scan, peak_heap) = heap::peak_growth_mib(|| scan(&s));
    let (first_output, first) = first_scan.map_err(|e| format!("scan: {e}"))?;
    outcome.check(results_mismatch(&first, &s.reference));

    let scan_op = |outcome: &mut Outcome| {
        let started = Instant::now();
        let scanned = scan(&s);
        let took = started.elapsed();
        outcome.check(match scanned {
            Ok((_, results)) => results_mismatch(&results, &s.reference),
            Err(e) => Some(format!("scan: {e}")),
        });
        took
    };
    if !trace {
        let op_ns = timed_loop(seconds, |_| scan_op(&mut outcome));
        outcome.metrics = end_to_end(&op_ns, s.apps as f64, setup, (peak_heap, 1));
        return Ok(outcome);
    }

    // Each traced op is a real scan followed by the replay, recording off
    // and on in turn; every replayed app is pinned to the pipeline's own
    // per-app output.
    let pinned = pipeline_docs(s.dir.path(), &s.catalog)?;
    let mut ledger = Ledger::default();
    let mut scan_ns = Vec::new();
    let (untraced_ns, traced_ns) = alternate_recording(seconds, &mut ledger, |t, i| {
        scan_ns.push(scan_op(&mut outcome).as_secs_f64());
        let started = Instant::now();
        let replayed = traced_scan(&s, &first_output, t, i);
        let took = started.elapsed();
        outcome.check(match replayed {
            Ok((results, ctx)) => replay_mismatch(&results, &ctx, &pinned),
            Err(e) => Some(e),
        });
        took
    });
    let mut metrics = per_layer(&ledger, &untraced_ns, &traced_ns);
    // Close the ledger against the real op: whatever the streamed pipeline
    // spends beyond the replayed layers (label step, join tail, symbol
    // remap) is unattributed. Both sides are means over the same stretch
    // of the run.
    let attributed: f64 = LAYERS.iter().map(|l| ledger.self_s_per_op(l)).sum();
    let scan_mean_s = scan_ns.iter().sum::<f64>() / scan_ns.len() as f64;
    set_metric(
        &mut metrics,
        "static.unattributed_s",
        scan_mean_s - attributed,
        scan_ns.len(),
    );
    outcome.metrics = metrics;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1,468 apps: enough for the seeds below to hold broken containers.
    const TEST_SCALE: u32 = 100;

    #[test]
    fn corrupted_reference_counts_as_a_failed_op() {
        let mut s = setup(7, TEST_SCALE).unwrap();
        let mut outcome = Outcome::default();
        let (_, results) = scan(&s).unwrap();
        outcome.check(results_mismatch(&results, &s.reference));
        assert_eq!((outcome.attempted, outcome.failed), (1, 0));

        s.reference.webview_apps += 1;
        outcome.check(results_mismatch(&results, &s.reference));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
        assert!(!outcome.correct());
    }

    #[test]
    fn traced_replay_equals_the_pipeline_per_app() {
        let s = setup(7, TEST_SCALE).unwrap();
        assert!(s.reference.broken > 0, "the corpus must exercise rejection");
        let pinned = pipeline_docs(s.dir.path(), &s.catalog).unwrap();
        let (output, _) = scan(&s).unwrap();
        let mut tracer = Tracer::new();
        let (results, ctx) = traced_scan(&s, &output, &mut tracer, 0).unwrap();
        assert_eq!(replay_mismatch(&results, &ctx, &pinned), None);

        let mut ledger = Ledger::default();
        tracer.fold_into(&mut ledger);
        assert_eq!(
            ledger.count_per_op("apk.rejected") as usize,
            s.reference.broken
        );
        assert_eq!(ledger.groups as usize, s.apps);
        for layer in LAYERS {
            assert!(
                ledger.self_s_per_op(layer) > 0.0,
                "{layer} recorded no time"
            );
        }

        // A pin that disagrees with the replay on one app is caught.
        let mut wrong = pinned.clone();
        wrong[3].push(' ');
        assert!(replay_mismatch(&results, &ctx, &wrong)
            .unwrap()
            .starts_with("app 3:"));
    }
}

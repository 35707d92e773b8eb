//! Per-app static analysis: container → decoded artifacts → decompiled
//! subclass map → call graph → recorded, deep-link-filtered call sites.
//!
//! Everything downstream of decoding speaks the interned IR: site
//! summaries carry [`Symbol`]/[`PkgId`] handles resolved against the
//! worker's [`LocalInterner`], and package labels are baked in at record
//! time. The only strings an [`AppAnalysis`] owns are the manifest package
//! and the Play metadata.

use crate::dataflow::{self, DataflowCounters};
use std::collections::HashSet;
use std::time::Instant;
use wla_apk::names::WEBVIEW_CONTENT_METHODS;
use wla_apk::{ApkError, Dex, Sapk, VerifyPreset};
use wla_callgraph::{
    entry_points, record_web_calls_with, CallGraph, CallGraphCounters, ReachScratch, UrlOrigin,
    WebCallRecord,
};
use wla_corpus::playstore::AppMeta;
use wla_decompile::webview_subclasses_dex_interned;
use wla_intern::{LocalInterner, PkgId, Symbol};
use wla_manifest::{wireformat, Manifest};
use wla_sdk_index::{LabelCache, LabelId, SdkIndex};

/// Wall-clock nanoseconds spent in each per-app analysis stage.
///
/// Stage boundaries follow Figure 1: container/dex *decode*, *decompile*
/// (source lifting + WebView-subclass closure), *callgraph* (build,
/// entry points, traversal + recording), and *label* (summary building,
/// package extraction, deep-link exclusion). On a decode failure only
/// `decode_ns` is populated — the later stages never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Container + dex decoding.
    pub decode_ns: u64,
    /// `extends WebView` closure over the dex class tables (the stage the
    /// paper spends on JADX decompilation; the lifted-source oracle lives
    /// in `wla-decompile`).
    pub decompile_ns: u64,
    /// Call-graph construction, entry points, traversal, recording.
    pub callgraph_ns: u64,
    /// Summary construction: package labels, deep-link filtering.
    pub label_ns: u64,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns + self.decompile_ns + self.callgraph_ns + self.label_ns
    }

    /// Accumulate another app's timings into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.decode_ns += other.decode_ns;
        self.decompile_ns += other.decompile_ns;
        self.callgraph_ns += other.callgraph_ns;
        self.label_ns += other.label_ns;
    }
}

/// Dex-decode observability: how many dex decodes ran under each
/// [`VerifyPreset`], and how the type lookup table fared. Summed across a
/// worker's apps, merged into
/// [`PipelineStats`](crate::PipelineStats) at join time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// Dex decodes under [`VerifyPreset::All`].
    pub full: u64,
    /// Dex decodes under [`VerifyPreset::None`] (fully trusted).
    pub trusted: u64,
    /// Decoded dexes that carried a stored (wire-format) lookup table and
    /// kept it ([`AnalysisCtx::use_lut`] on).
    pub lut_present: u64,
    /// Dexes whose probe table was built lazily on first name lookup —
    /// either no stored table on the wire, or the stored one was
    /// discarded under ablation.
    pub lut_rebuilds: u64,
}

impl DecodeCounters {
    /// Dex decodes across all presets.
    pub fn total(&self) -> u64 {
        self.full + self.trusted
    }

    /// Accumulate another worker's counters into this one.
    pub fn merge(&mut self, other: &DecodeCounters) {
        self.full += other.full;
        self.trusted += other.trusted;
        self.lut_present += other.lut_present;
        self.lut_rebuilds += other.lut_rebuilds;
    }
}

/// Per-worker analysis state threaded through [`analyze_app_timed_with`]:
/// the shared catalog plus the worker-local string lexicon and package-label
/// memo. One context serves many apps; its lexicon is merged into the
/// global interner when the pipeline joins.
#[derive(Debug)]
pub struct AnalysisCtx<'c> {
    /// SDK catalog used for record-time package labeling.
    pub catalog: &'c SdkIndex,
    /// Worker-local interner; every symbol in this worker's analyses
    /// resolves against it.
    pub lexicon: LocalInterner,
    /// Package-label memo shared across this worker's apps.
    pub labels: LabelCache,
    /// Reusable reachability scratch (bitset + worklist), cleared — not
    /// reallocated — between apps.
    pub reach: ReachScratch,
    /// Call-graph build counters (vtable hits/misses, edges, dedup)
    /// accumulated across this worker's apps; traversal counters stay on
    /// `reach` until [`AnalysisCtx::callgraph_counters`] folds them in.
    pub graph_counters: CallGraphCounters,
    /// Constant-propagation counters (blocks, fixpoint iterations,
    /// resolved/unknown/conflict sites) accumulated across this worker's
    /// apps.
    pub dataflow: DataflowCounters,
    /// How much decode-time verification each container gets. Defaults to
    /// [`VerifyPreset::All`] — the corruption-facing setting; the trusted
    /// presets are for corpora whose bytes were already validated
    /// end-to-end (a just-generated corpus, a resume-stamped shard).
    pub verify_preset: VerifyPreset,
    /// Use the wire-format type lookup table and the hash-vtable call
    /// graph (default). `false` ablates to the linear/binary-search
    /// paths — the bench knob behind the lut ablation table.
    pub use_lut: bool,
    /// Decode counters (per-preset decodes, lut presence/rebuilds)
    /// accumulated across this worker's apps.
    pub decode: DecodeCounters,
}

impl<'c> AnalysisCtx<'c> {
    /// Fresh context over `catalog`.
    pub fn new(catalog: &'c SdkIndex) -> Self {
        AnalysisCtx {
            catalog,
            lexicon: LocalInterner::new(),
            labels: LabelCache::new(),
            reach: ReachScratch::new(),
            graph_counters: CallGraphCounters::default(),
            dataflow: DataflowCounters::default(),
            verify_preset: VerifyPreset::All,
            use_lut: true,
            decode: DecodeCounters::default(),
        }
    }

    /// Complete counter snapshot: build counters plus the scratch's
    /// traversal counters. Call once per worker when its shard is done.
    pub fn callgraph_counters(&self) -> CallGraphCounters {
        let mut c = self.graph_counters;
        c.absorb_scratch(&self.reach);
        c
    }
}

/// One reachable WebView content-method call, summarized for aggregation.
/// Names are symbols in the producing [`AnalysisCtx`]'s lexicon (or the
/// global table after the pipeline remap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebViewSiteSummary {
    /// Method name (`loadUrl`, …).
    pub method: Symbol,
    /// Position of the method in
    /// [`WEBVIEW_CONTENT_METHODS`](wla_apk::names::WEBVIEW_CONTENT_METHODS);
    /// Table 7 accounting indexes by this.
    pub method_idx: u8,
    /// Binary name of the calling class.
    pub caller_class: Symbol,
    /// Dotted package of the calling class (`None` for default package).
    pub caller_package: Option<PkgId>,
    /// Catalog label of the caller package, fixed at record time.
    pub label: LabelId,
    /// The call sits inside a deep-link (first-party) activity and is
    /// excluded from third-party accounting.
    pub in_deep_link_activity: bool,
    /// Whether this is one of the three *content-populating* load methods
    /// whose caller package the paper labels (§3.1.4).
    pub is_load_method: bool,
    /// URL argument of the call, when constant propagation resolved it to
    /// a single string constant.
    pub argument: Option<Symbol>,
    /// How the URL argument resolved (constant / unknown / conflicting).
    pub origin: UrlOrigin,
}

/// One reachable Custom-Tabs interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtSiteSummary {
    /// `launchUrl`, `build`, or `<init>`.
    pub method: Symbol,
    /// Whether this is the content-populating `launchUrl`.
    pub is_launch: bool,
    /// Binary name of the calling class.
    pub caller_class: Symbol,
    /// Dotted package of the calling class.
    pub caller_package: Option<PkgId>,
    /// Catalog label of the caller package, fixed at record time.
    pub label: LabelId,
    /// Deep-link exclusion flag (parallel to WebView sites).
    pub in_deep_link_activity: bool,
    /// URL argument for `launchUrl` sites, when provenance resolved it.
    pub argument: Option<Symbol>,
    /// How the URL argument resolved (constant / unknown / conflicting).
    pub origin: UrlOrigin,
}

/// The full static-analysis result for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct AppAnalysis {
    /// Play metadata carried through for per-category aggregation.
    pub meta: AppMeta,
    /// Manifest package name.
    pub package: String,
    /// Reachable WebView call sites (deep-link ones included but flagged).
    pub webview_sites: Vec<WebViewSiteSummary>,
    /// Reachable CT call sites.
    pub ct_sites: Vec<CtSiteSummary>,
    /// `extends WebView` classes found by decompilation, sorted by
    /// resolved binary name.
    pub custom_webview_classes: Vec<Symbol>,
    /// Unreachable WebView call sites that were discarded (kept as a count
    /// for the traversal ablation).
    pub unreachable_webview_sites: usize,
}

impl AppAnalysis {
    /// Third-party WebView sites (reachable, outside deep-link activities).
    pub fn third_party_webview(&self) -> impl Iterator<Item = &WebViewSiteSummary> {
        self.webview_sites
            .iter()
            .filter(|s| !s.in_deep_link_activity)
    }

    /// Third-party CT sites.
    pub fn third_party_ct(&self) -> impl Iterator<Item = &CtSiteSummary> {
        self.ct_sites.iter().filter(|s| !s.in_deep_link_activity)
    }

    /// Does the app use WebViews for third-party-capable content?
    pub fn uses_webview(&self) -> bool {
        self.third_party_webview().next().is_some()
    }

    /// Does the app use Custom Tabs?
    pub fn uses_custom_tabs(&self) -> bool {
        self.third_party_ct().next().is_some()
    }

    /// Bitmask over `WEBVIEW_CONTENT_METHODS` of distinct methods called
    /// (third-party sites only) — bit `i` set iff method `i` is used.
    pub fn method_mask(&self) -> u8 {
        self.third_party_webview()
            .fold(0u8, |m, s| m | (1 << s.method_idx))
    }

    /// Distinct method names called (third-party sites only), recovered
    /// from the mask — no symbol resolution involved.
    pub fn methods_used(&self) -> HashSet<&'static str> {
        let mask = self.method_mask();
        WEBVIEW_CONTENT_METHODS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, m)| *m)
            .collect()
    }

    /// Rewrite every symbol through `f` — used by the pipeline to translate
    /// worker-local symbols into the global table at join time.
    pub fn remap_symbols(&mut self, f: &mut impl FnMut(Symbol) -> Symbol) {
        for s in &mut self.webview_sites {
            s.method = f(s.method);
            s.caller_class = f(s.caller_class);
            if let Some(p) = &mut s.caller_package {
                *p = PkgId(f(p.symbol()));
            }
            if let Some(a) = &mut s.argument {
                *a = f(*a);
            }
        }
        for s in &mut self.ct_sites {
            s.method = f(s.method);
            s.caller_class = f(s.caller_class);
            if let Some(p) = &mut s.caller_package {
                *p = PkgId(f(p.symbol()));
            }
            if let Some(a) = &mut s.argument {
                *a = f(*a);
            }
        }
        for c in &mut self.custom_webview_classes {
            *c = f(*c);
        }
    }
}

/// Run the full per-app pipeline on raw container bytes, with a private
/// single-use context over the paper catalog. Convenience for one-off
/// callers; batch callers should reuse an [`AnalysisCtx`] via
/// [`analyze_app_timed_with`] (symbols are only meaningful against the
/// context that produced them).
///
/// Multi-dex containers are handled the way the paper's tooling handles
/// `classes2.dex`: every dex section is decoded (one broken dex makes the
/// whole app unanalyzable), decompiled sources are pooled for the
/// WebView-subclass closure, and call graphs are built and traversed per
/// dex with the records merged. Cross-dex calls resolve as framework
/// (external) targets — sound for reachability *within* each dex, and the
/// generator keeps behavioural chains dex-local, as R8's main-dex rules do
/// for entry-point code in practice.
pub fn analyze_app(meta: AppMeta, bytes: &[u8]) -> Result<AppAnalysis, ApkError> {
    analyze_app_timed(meta, bytes).0
}

/// [`analyze_app`] plus per-stage wall-clock timings.
pub fn analyze_app_timed(
    meta: AppMeta,
    bytes: &[u8],
) -> (Result<AppAnalysis, ApkError>, StageTimings) {
    let catalog = SdkIndex::paper();
    let mut ctx = AnalysisCtx::new(&catalog);
    analyze_app_timed_with(meta, bytes, &mut ctx)
}

/// The per-app pipeline against a reusable worker context.
///
/// The timings are always returned, even when the result is an error: a
/// broken container still spends (and reports) its decode time, which is
/// what the pipeline's failure-taxonomy throughput accounting wants.
pub fn analyze_app_timed_with(
    meta: AppMeta,
    bytes: &[u8],
    ctx: &mut AnalysisCtx<'_>,
) -> (Result<AppAnalysis, ApkError>, StageTimings) {
    let mut timings = StageTimings::default();
    let started = Instant::now();
    let decoded = Sapk::decode(bytes).and_then(|apk| decode_rest(apk, ctx));
    timings.decode_ns = started.elapsed().as_nanos() as u64;
    finish_analysis(meta, decoded, ctx, timings)
}

/// [`analyze_app_timed_with`] over a shared [`bytes::Bytes`] handle.
///
/// The zero-copy streaming path: when `bytes` is a window into an
/// mmap-backed corpus shard, the container decode and every dex string
/// span alias the mapping directly — no per-app copy of the container is
/// ever made. Results are identical to the slice path
/// ([`Sapk::decode_bytes`] is equivalence-pinned against [`Sapk::decode`]).
pub fn analyze_app_bytes_timed_with(
    meta: AppMeta,
    bytes: bytes::Bytes,
    ctx: &mut AnalysisCtx<'_>,
) -> (Result<AppAnalysis, ApkError>, StageTimings) {
    let mut timings = StageTimings::default();
    let started = Instant::now();
    let decoded =
        Sapk::decode_bytes_with(bytes, ctx.verify_preset).and_then(|apk| decode_rest(apk, ctx));
    timings.decode_ns = started.elapsed().as_nanos() as u64;
    finish_analysis(meta, decoded, ctx, timings)
}

/// Stages (3)–(5) plus summary construction, shared by the slice and
/// shared-buffer entry points.
fn finish_analysis(
    meta: AppMeta,
    decoded: Result<(Manifest, Vec<Dex>), ApkError>,
    ctx: &mut AnalysisCtx<'_>,
    mut timings: StageTimings,
) -> (Result<AppAnalysis, ApkError>, StageTimings) {
    let (manifest, dexes) = match decoded {
        Ok(v) => v,
        Err(e) => return (Err(e), timings),
    };

    // (3) custom WebView classes across all dexes. The closure runs
    // directly on the pooled dex superclass links; the paper-faithful
    // lift-to-Java + re-parse route (`webview_subclasses_interned`) is the
    // oracle it is equivalence-pinned against — see `wla-decompile`.
    let started = Instant::now();
    let subclasses = webview_subclasses_dex_interned(&dexes, &mut ctx.lexicon);
    timings.decompile_ns = started.elapsed().as_nanos() as u64;

    // (4) call graph; (5) traversal + recording — per dex. Recording
    // interns every retained name and labels caller packages in one pass.
    let started = Instant::now();
    let records: Vec<WebCallRecord> = dexes
        .iter()
        .map(|dex| {
            let mut graph = CallGraph::build_with(dex, ctx.use_lut);
            ctx.graph_counters
                .absorb_build(&graph.build_stats(), graph.edge_count());
            // URL-argument provenance rides on the site stream before
            // recording.
            dataflow::annotate(dex, graph.sites_mut(), &mut ctx.dataflow);
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
        })
        .collect();
    timings.callgraph_ns = started.elapsed().as_nanos() as u64;

    // §3.1.3–3.1.4: deep-link exclusion. Non-inserting lookups: a
    // deep-link class no site referenced was never interned and can't
    // match anything.
    let started = Instant::now();
    let deep_link_classes: HashSet<Symbol> = manifest
        .deep_link_activities()
        .iter()
        .filter_map(|c| ctx.lexicon.get(&c.class_name))
        .collect();

    let mut webview_sites = Vec::new();
    let mut ct_sites = Vec::new();
    let mut unreachable_webview_sites = 0usize;
    for record in &records {
        unreachable_webview_sites += record.webview.iter().filter(|s| !s.reachable).count();
        webview_sites.extend(record.webview.iter().filter(|s| s.reachable).map(|s| {
            WebViewSiteSummary {
                method: s.method,
                method_idx: s.method_idx,
                caller_class: s.caller_class,
                caller_package: s.caller_package,
                label: s.label,
                in_deep_link_activity: deep_link_classes.contains(&s.caller_class),
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
                    in_deep_link_activity: deep_link_classes.contains(&s.caller_class),
                    argument: s.argument,
                    origin: s.origin,
                }),
        );
    }

    let mut custom_webview_classes: Vec<Symbol> = subclasses.into_iter().collect();
    custom_webview_classes.sort_by(|a, b| ctx.lexicon.resolve(*a).cmp(ctx.lexicon.resolve(*b)));
    timings.label_ns = started.elapsed().as_nanos() as u64;

    // Sample after every name lookup has run: a dex whose lazy probe table
    // was built had no usable stored table on the wire.
    ctx.decode.lut_rebuilds += dexes.iter().filter(|d| d.lookup_table_rebuilt()).count() as u64;

    let analysis = AppAnalysis {
        package: manifest.package.clone(),
        meta,
        webview_sites,
        ct_sites,
        custom_webview_classes,
        unreachable_webview_sites,
    };
    (Ok(analysis), timings)
}

/// Manifest + dex decoding over an already-decoded container. Dex decoding
/// is zero-copy: each section's `Bytes` handle is shared with the dex's
/// span table, so no string data is copied out of the container buffer.
/// The context's [`VerifyPreset`] governs how much re-validation each dex
/// gets, and its `use_lut` knob decides whether stored lookup tables are
/// kept; both are tallied into [`AnalysisCtx::decode`].
fn decode_rest(apk: Sapk, ctx: &mut AnalysisCtx<'_>) -> Result<(Manifest, Vec<Dex>), ApkError> {
    let manifest: Manifest = wireformat::decode(apk.manifest_bytes()?)?;
    let mut dexes: Vec<Dex> = Vec::new();
    for s in apk
        .sections()
        .iter()
        .filter(|s| s.tag == wla_apk::SectionTag::Dex)
    {
        let mut dex = Dex::decode_bytes_with(s.data.clone(), ctx.verify_preset)?;
        match ctx.verify_preset {
            VerifyPreset::All => ctx.decode.full += 1,
            VerifyPreset::None => ctx.decode.trusted += 1,
        }
        if !ctx.use_lut {
            dex.discard_lookup_table();
        }
        if dex.has_lookup_table() {
            ctx.decode.lut_present += 1;
        }
        dexes.push(dex);
    }
    if dexes.is_empty() {
        return Err(ApkError::MissingSection("dex"));
    }
    Ok((manifest, dexes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wla_corpus::ecosystem::{Ecosystem, MethodSet};
    use wla_corpus::lowering::lower;
    use wla_corpus::playstore::PlayCategory;
    use wla_corpus::EcosystemParams;

    fn meta() -> AppMeta {
        AppMeta {
            package: "com.testapp.example".into(),
            on_play_store: true,
            downloads: 1_000_000,
            category: PlayCategory::Tools,
            last_update_day: 800,
        }
    }

    fn sample_spec(seed: u64) -> (SdkIndex, wla_corpus::AppSpec) {
        let catalog = SdkIndex::paper();
        let eco = Ecosystem::new(&catalog, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = eco.sample_app(&mut rng, meta());
        (catalog, spec)
    }

    #[test]
    fn recovers_ground_truth_per_app() {
        // Over a batch of sampled apps, the pipeline's webview/ct verdicts
        // must exactly match the planted ground truth.
        for seed in 0..60 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = lower(&spec, &catalog, &mut rng).encode();
            let analysis = analyze_app(meta(), &bytes).expect("analyzes");
            assert_eq!(
                analysis.uses_webview(),
                spec.uses_webview(&catalog),
                "webview mismatch at seed {seed}"
            );
            assert_eq!(
                analysis.uses_custom_tabs(),
                spec.uses_custom_tabs(),
                "ct mismatch at seed {seed}"
            );
        }
    }

    #[test]
    fn method_census_matches_ground_truth() {
        for seed in 0..40 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = lower(&spec, &catalog, &mut rng).encode();
            let analysis = analyze_app(meta(), &bytes).unwrap();
            let truth: HashSet<&str> = spec.method_census(&catalog).names().collect();
            let measured = analysis.methods_used();
            assert_eq!(measured, truth, "seed {seed}");
        }
    }

    #[test]
    fn url_arguments_resolve_despite_register_shuffling() {
        // The lowering interleaves decoy constants, moves, nops, and
        // branch diamonds around every URL call; the dataflow pass must
        // still pin each one to its single constant.
        let mut sites_seen = 0usize;
        for seed in 0..20 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = lower(&spec, &catalog, &mut rng).encode();
            let mut ctx = AnalysisCtx::new(&catalog);
            let analysis = analyze_app_timed_with(meta(), &bytes, &mut ctx).0.unwrap();
            for s in analysis.webview_sites.iter().filter(|s| s.is_load_method) {
                assert_eq!(s.origin, UrlOrigin::Resolved, "seed {seed}");
                let arg = ctx.lexicon.resolve(s.argument.expect("resolved argument"));
                assert!(!arg.is_empty(), "seed {seed}");
                sites_seen += 1;
            }
            for s in analysis.ct_sites.iter().filter(|s| s.is_launch) {
                assert_eq!(s.origin, UrlOrigin::Resolved, "seed {seed}");
                assert!(s.argument.is_some());
                sites_seen += 1;
            }
            assert!(ctx.dataflow.methods > 0);
            assert!(ctx.dataflow.iterations >= ctx.dataflow.blocks);
        }
        assert!(sites_seen > 0, "corpus sample must contain URL sites");
    }

    #[test]
    fn ablated_pending_string_oracle_resolves_nothing_shuffled() {
        // The legacy single-pending-string heuristic, run over the call
        // graph's sites in place of the dataflow pass: the register
        // shuffle defeats every site, because the move chain between the
        // const-string and the invoke always clears the pending string.
        let mut sites_seen = 0usize;
        for seed in 0..20 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = lower(&spec, &catalog, &mut rng).encode();
            let mut ctx = AnalysisCtx::new(&catalog);
            let (manifest, dexes) = Sapk::decode(&bytes)
                .and_then(|apk| decode_rest(apk, &mut ctx))
                .unwrap();
            let subclasses = webview_subclasses_dex_interned(&dexes, &mut ctx.lexicon);
            for dex in &dexes {
                let mut graph = CallGraph::build(dex);
                wla_callgraph::provenance_oracle::annotate(dex, graph.sites_mut());
                let roots = entry_points(&graph, &manifest);
                let record = record_web_calls_with(
                    &graph,
                    &roots,
                    &subclasses,
                    ctx.catalog,
                    &mut ctx.lexicon,
                    &mut ctx.labels,
                    &mut ctx.reach,
                );
                for s in record.reachable_webview().filter(|s| s.is_load_method) {
                    assert_eq!(s.origin, UrlOrigin::Unknown, "seed {seed}");
                    assert!(s.argument.is_none());
                    sites_seen += 1;
                }
            }
        }
        assert!(sites_seen > 0);
    }

    #[test]
    fn dead_code_not_counted() {
        let (catalog, mut spec) = sample_spec(1);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = true;
        let mut rng = StdRng::seed_from_u64(1);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let analysis = analyze_app(meta(), &bytes).unwrap();
        assert!(!analysis.uses_webview());
        assert_eq!(analysis.unreachable_webview_sites, 1);
    }

    #[test]
    fn deep_link_webview_excluded() {
        let (catalog, mut spec) = sample_spec(2);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = false;
        spec.dead_code_webview = false;
        spec.deep_link = Some(wla_corpus::DeepLinkSpec {
            host: "firstparty.example.com".into(),
            uses_webview: true,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let analysis = analyze_app(meta(), &bytes).unwrap();
        // The loadUrl call exists and is reachable, but it's first-party.
        assert_eq!(analysis.webview_sites.len(), 1);
        assert!(analysis.webview_sites[0].in_deep_link_activity);
        assert!(!analysis.uses_webview());
    }

    #[test]
    fn subclass_attribution_works() {
        let (catalog, mut spec) = sample_spec(3);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::load_url_only();
        spec.direct_wv_subclass = true;
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(3);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let mut ctx = AnalysisCtx::new(&catalog);
        let analysis = analyze_app_timed_with(meta(), &bytes, &mut ctx).0.unwrap();
        assert!(analysis.uses_webview());
        let resolved: Vec<&str> = analysis
            .custom_webview_classes
            .iter()
            .map(|s| ctx.lexicon.resolve(*s))
            .collect();
        assert_eq!(resolved, vec!["com/testapp/example/web/AppWebView"]);
    }

    #[test]
    fn corrupted_bytes_error() {
        let (catalog, spec) = sample_spec(4);
        let mut rng = StdRng::seed_from_u64(4);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let bad = wla_apk::corrupt::corrupt(
            &bytes,
            wla_apk::corrupt::CorruptionKind::Truncate { keep_num: 100 },
        );
        assert!(analyze_app(meta(), &bad).is_err());
    }

    #[test]
    fn sdk_caller_packages_extracted() {
        let (catalog, mut spec) = sample_spec(5);
        // Force exactly AppLovin.
        let applovin = catalog
            .sdks()
            .iter()
            .position(|s| s.name == "AppLovin")
            .unwrap();
        spec.sdks = vec![wla_corpus::SdkUse {
            sdk_idx: applovin,
            webview: true,
            custom_tabs: false,
        }];
        spec.sdk_category_methods = vec![(
            wla_sdk_index::SdkCategory::Advertising,
            MethodSet::load_url_only(),
        )];
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(5);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let mut ctx = AnalysisCtx::new(&catalog);
        let analysis = analyze_app_timed_with(meta(), &bytes, &mut ctx).0.unwrap();
        let load_packages: HashSet<&str> = analysis
            .third_party_webview()
            .filter(|s| s.is_load_method)
            .filter_map(|s| s.caller_package)
            .map(|p| ctx.lexicon.resolve(p.symbol()))
            .collect();
        assert!(
            load_packages.iter().all(|p| p.starts_with("com.applovin")),
            "{load_packages:?}"
        );
        assert!(!load_packages.is_empty());
        // Record-time labels agree: every AppLovin caller is Sdk-labeled.
        assert!(analysis
            .third_party_webview()
            .filter(|s| s.is_load_method)
            .all(|s| matches!(s.label, LabelId::Sdk(i) if i as usize == applovin)));
    }
}

#[cfg(test)]
mod multidex_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wla_corpus::ecosystem::Ecosystem;
    use wla_corpus::lowering::lower;
    use wla_corpus::playstore::PlayCategory;
    use wla_corpus::EcosystemParams;

    fn meta() -> AppMeta {
        AppMeta {
            package: "com.multidex.app".into(),
            on_play_store: true,
            downloads: 900_000_000,
            category: PlayCategory::Social,
            last_update_day: 1_000,
        }
    }

    /// Build an app guaranteed to be multi-dex (noise_classes >= 6) with
    /// dead code in the secondary dex.
    fn multidex_app() -> (SdkIndex, wla_corpus::AppSpec, Vec<u8>) {
        let catalog = SdkIndex::paper();
        let eco = Ecosystem::new(&catalog, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(99);
        let mut spec = eco.sample_app(&mut rng, meta());
        spec.noise_classes = 8;
        spec.dead_code_webview = true;
        let bytes = lower(&spec, &catalog, &mut rng).encode().to_vec();
        (catalog, spec, bytes)
    }

    #[test]
    fn container_actually_has_two_dex_sections() {
        let (_, _, bytes) = multidex_app();
        let apk = Sapk::decode(&bytes).unwrap();
        let dex_sections = apk
            .sections()
            .iter()
            .filter(|s| s.tag == wla_apk::SectionTag::Dex)
            .count();
        assert_eq!(dex_sections, 2);
    }

    #[test]
    fn multidex_analysis_matches_ground_truth() {
        let (catalog, spec, bytes) = multidex_app();
        let analysis = analyze_app(meta(), &bytes).unwrap();
        assert_eq!(analysis.uses_webview(), spec.uses_webview(&catalog));
        assert_eq!(analysis.uses_custom_tabs(), spec.uses_custom_tabs());
        let truth: HashSet<&str> = spec.method_census(&catalog).names().collect();
        assert_eq!(analysis.methods_used(), truth);
        // The dead class lives in classes2.dex and stays dead.
        assert_eq!(analysis.unreachable_webview_sites, 1);
    }

    #[test]
    fn corrupt_secondary_dex_breaks_the_app() {
        let (_, _, bytes) = multidex_app();
        // Flip a byte near the end of the container, where the secondary
        // dex and resources live; container checksum catches it.
        let mut bad = bytes.clone();
        let i = bad.len() - 40;
        bad[i] ^= 0x20;
        assert!(analyze_app(meta(), &bad).is_err());
    }
}

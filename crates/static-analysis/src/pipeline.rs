//! Fault-isolated, instrumented parallel corpus runner.
//!
//! Static analysis is CPU-bound, so the runner is `wla-intern`'s
//! claim-and-merge pool ([`wla_intern::run_claims`]): a fixed set of
//! scoped threads claiming *batches* of app indices from one atomic
//! counter — no async runtime, per the project's networking guides ("use
//! threads for CPU-bound work"). Three properties the paper's scale
//! (146.8K apps, Table 2) demands of it:
//!
//! - **Fault isolation.** Each per-app analysis runs under
//!   [`wla_intern::isolate`] (`catch_unwind`); a panicking container
//!   becomes an [`ApkError::AnalysisPanic`] result feeding the broken-apps
//!   row instead of aborting the whole corpus run.
//! - **Contention-free output.** Workers append to private buffers that
//!   are merged into input order after the pool joins; nothing shares a
//!   mutex on the hot path, and batch claiming amortizes the one shared
//!   atomic across [`PipelineStats::batch`] apps.
//! - **Observability.** [`PipelineStats`] carries per-stage timers,
//!   per-worker counters, interner counters, throughput, and a failure
//!   taxonomy, surfaced through [`PipelineOutput::stats`] and rendered by
//!   `wla-core`'s stats tables.
//!
//! Interned-IR lifecycle: each worker interns into a private
//! [`LocalInterner`](wla_intern::LocalInterner) (no synchronization while
//! analyzing); at join time the serial tail (timed as
//! [`PipelineStats::serial_tail_ns`]) folds the stats and hands the
//! results to [`wla_intern::merge_in_order`], which sorts them into input
//! order and translates every symbol into the shared global [`Interner`]
//! through [`AppAnalysis::remap_symbols`]. Because first-occurrence order
//! is the input order, global symbol ids are a pure function of the
//! corpus — independent of worker count, batch size, and scheduling —
//! which keeps parallel and serial runs bit-identical.

use crate::analyze::{
    analyze_app_timed_with, AnalysisCtx, AppAnalysis, DecodeCounters, StageTimings,
};
use crate::dataflow::DataflowCounters;
use crate::stream::StreamCounters;
use std::collections::BTreeMap;
use std::time::Instant;
use wla_apk::{ApkError, VerifyPreset};
use wla_callgraph::CallGraphCounters;
use wla_corpus::playstore::AppMeta;
use wla_intern::{isolate, merge_in_order, run_claims, Interner, SymbolTable};
use wla_sdk_index::SdkIndex;

pub use wla_intern::WorkerStats;

/// One corpus entry: the metadata the Play Store provides plus the raw
/// container bytes fetched from the archive.
#[derive(Debug, Clone)]
pub struct CorpusInput {
    /// Play metadata.
    pub meta: AppMeta,
    /// SAPK container bytes.
    pub bytes: Vec<u8>,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Worker thread count (0 ⇒ available parallelism). Batches are
    /// auto-sized to about eight claims per worker, clamped to `1..=32`.
    pub workers: usize,
    /// Collect per-stage timers into [`PipelineStats::stage`]. Costs four
    /// monotonic-clock reads per app; disable for pure-throughput runs.
    pub stage_timings: bool,
    /// Decode-time verification depth per container. Defaults to
    /// [`VerifyPreset::All`] — the corruption-facing setting. The trusted
    /// presets are *only* sound on corpora whose bytes were validated
    /// end-to-end already (a just-generated corpus, a resume-stamped
    /// shard with no planted corruption); a corrupt-fraction corpus under
    /// a trusted preset will misclassify broken apps.
    pub verify_preset: VerifyPreset,
    /// Keep wire-format type lookup tables and bind virtual calls through
    /// hash vtables (default). `false` ablates both to their linear /
    /// binary-search counterparts.
    pub use_lut: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            workers: 0,
            stage_timings: true,
            verify_preset: VerifyPreset::All,
            use_lut: true,
        }
    }
}

/// Interning observability for one run: how much string work the corpus
/// generated and how well the worker-local memos absorbed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerCounters {
    /// Distinct symbols in the merged global table.
    pub global_symbols: usize,
    /// Bytes of distinct strings in the global table.
    pub global_bytes: usize,
    /// Distinct symbols summed over worker-local interners (≥ global:
    /// workers re-discover shared names independently).
    pub local_symbols: usize,
    /// Bytes summed over worker-local interners.
    pub local_bytes: usize,
    /// Worker-local intern calls that found the string already present.
    pub local_hits: u64,
    /// Worker-local intern calls that inserted a new string.
    pub local_misses: u64,
    /// Package labels served from the per-worker memo.
    pub label_hits: u64,
    /// Package labels that walked the catalog trie.
    pub label_misses: u64,
    /// Capacity the global table was pre-sized for at join time (the
    /// summed sizes of the worker lexicons).
    pub presized_symbols: usize,
}

impl InternerCounters {
    /// Fraction of intern calls absorbed by worker-local tables.
    pub fn local_hit_rate(&self) -> f64 {
        let total = self.local_hits + self.local_misses;
        if total == 0 {
            return 0.0;
        }
        self.local_hits as f64 / total as f64
    }

    /// Fraction of the pre-sized global capacity actually used
    /// (`global_symbols / presized_symbols`): how closely the summed
    /// local-lexicon upper bound predicted the merged table.
    pub fn presize_hit_rate(&self) -> f64 {
        if self.presized_symbols == 0 {
            return 0.0;
        }
        self.global_symbols as f64 / self.presized_symbols as f64
    }

    /// Fraction of package-label lookups served from the memo.
    pub fn label_hit_rate(&self) -> f64 {
        let total = self.label_hits + self.label_misses;
        if total == 0 {
            return 0.0;
        }
        self.label_hits as f64 / total as f64
    }
}

/// Run-level observability: totals, failure taxonomy, per-stage timers,
/// per-worker counters, and throughput.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Corpus size (`analyzed + broken`).
    pub total: usize,
    /// Apps that analyzed successfully.
    pub analyzed: usize,
    /// Apps whose container failed to decode or whose analysis failed
    /// (Table 2's broken row — includes `panicked`).
    pub broken: usize,
    /// Apps whose analysis panicked and was converted to
    /// [`ApkError::AnalysisPanic`] by the fault isolation.
    pub panicked: usize,
    /// Per-stage analysis time summed over all apps (zero when
    /// [`PipelineConfig::stage_timings`] is off).
    pub stage: StageTimings,
    /// End-to-end wall-clock time of the run.
    pub wall_ns: u64,
    /// Time spent in the serial join tail after the worker pool finished:
    /// stats fold, input-order merge, and the local→global symbol remap.
    pub serial_tail_ns: u64,
    /// Batch size the scheduler actually used.
    pub batch: usize,
    /// One entry per worker thread, in spawn order.
    pub workers: Vec<WorkerStats>,
    /// Failure counts keyed by [`ApkError::kind`] label.
    pub failure_kinds: BTreeMap<&'static str, usize>,
    /// Interned-IR counters for the run.
    pub interner: InternerCounters,
    /// Call-graph counters for the run (CSR edges, vtable cache, bitset
    /// scratch reuse), merged across workers.
    pub callgraph: CallGraphCounters,
    /// Constant-propagation counters (basic blocks, fixpoint iterations,
    /// resolved/unknown/conflict invokes), merged across workers.
    pub dataflow: DataflowCounters,
    /// Dex-decode counters (per-preset decodes, lookup-table presence and
    /// lazy rebuilds), merged across workers.
    pub decode: DecodeCounters,
    /// Shard-streaming counters; all-zero for the in-memory path.
    pub stream: StreamCounters,
}

impl PipelineStats {
    /// Corpus throughput over the whole run.
    pub fn apps_per_second(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.total as f64 / (self.wall_ns as f64 * 1e-9)
    }

    /// Total busy time across workers (CPU-seconds spent analyzing).
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Pool utilization: busy time over `workers × wall` (1.0 = perfectly
    /// balanced, no idle tails).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_ns.saturating_mul(self.workers.len() as u64);
        if capacity == 0 {
            return 0.0;
        }
        self.busy_ns() as f64 / capacity as f64
    }
}

/// Pipeline output: per-app results in input order, run statistics, and
/// the global symbol table every surviving [`AppAnalysis`] resolves
/// against.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Per-app analysis or decode error, in input order. Symbols are
    /// global (already remapped).
    pub results: Vec<Result<AppAnalysis, ApkError>>,
    /// Observability counters for the run.
    pub stats: PipelineStats,
    /// Merged global interner.
    pub interner: Interner,
}

impl PipelineOutput {
    /// Successfully analyzed apps.
    pub fn analyzed(&self) -> impl Iterator<Item = &AppAnalysis> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Number of successfully analyzed apps.
    pub fn analyzed_count(&self) -> usize {
        self.analyzed().count()
    }

    /// Number of broken containers (Table 2's 242).
    pub fn broken_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    /// Display-time symbol snapshot — the report boundary's only way to
    /// turn a [`wla_intern::Symbol`] back into text.
    pub fn symbols(&self) -> SymbolTable {
        self.interner.snapshot()
    }
}

/// One worker's state: its analysis context plus what it has produced.
/// Shared with the shard-streaming driver in [`crate::stream`], whose
/// workers key their results by global entry index.
pub(crate) struct WorkerYield<'c> {
    pub(crate) ctx: AnalysisCtx<'c>,
    /// `(input index, result)` pairs, in claim order. Symbols inside are
    /// local to `ctx.lexicon`.
    pub(crate) results: Vec<(usize, Result<AppAnalysis, ApkError>)>,
    pub(crate) stage: StageTimings,
    pub(crate) failures: BTreeMap<&'static str, usize>,
    pub(crate) panicked: usize,
}

impl<'c> WorkerYield<'c> {
    /// An empty yield over a fresh context configured from `config`.
    pub(crate) fn new(catalog: &'c SdkIndex, config: &PipelineConfig) -> WorkerYield<'c> {
        let mut ctx = AnalysisCtx::new(catalog);
        ctx.verify_preset = config.verify_preset;
        ctx.use_lut = config.use_lut;
        WorkerYield {
            ctx,
            results: Vec::new(),
            stage: StageTimings::default(),
            failures: BTreeMap::new(),
            panicked: 0,
        }
    }

    /// Run one app's analysis in isolation: a panic becomes
    /// [`ApkError::AnalysisPanic`]; timings and failures are tallied.
    pub(crate) fn analyze(
        &mut self,
        stage_timings: bool,
        analyze: impl FnOnce(&mut AnalysisCtx<'c>) -> (Result<AppAnalysis, ApkError>, StageTimings),
    ) -> Result<AppAnalysis, ApkError> {
        let result = match isolate(|| analyze(&mut self.ctx)) {
            Ok((result, timings)) => {
                if stage_timings {
                    self.stage.accumulate(&timings);
                }
                result
            }
            Err(message) => Err(ApkError::AnalysisPanic { message }),
        };
        self.count(&result);
        result
    }

    /// Tally one result into the failure taxonomy.
    pub(crate) fn count(&mut self, result: &Result<AppAnalysis, ApkError>) {
        if let Err(e) = result {
            *self.failures.entry(e.kind()).or_insert(0) += 1;
            if matches!(e, ApkError::AnalysisPanic { .. }) {
                self.panicked += 1;
            }
        }
    }
}

/// Analyze every corpus entry, in parallel, labeling against `catalog`.
pub fn run_pipeline(
    inputs: &[CorpusInput],
    catalog: &SdkIndex,
    config: PipelineConfig,
) -> PipelineOutput {
    run_pipeline_with(inputs, catalog, config, |input, ctx| {
        analyze_app_timed_with(input.meta.clone(), &input.bytes, ctx)
    })
}

/// [`run_pipeline`] with a caller-supplied analysis function.
///
/// The scheduler, fault isolation, interner merge, and stats collection
/// are identical to [`run_pipeline`]; only the per-app work differs. Tests
/// use this to inject deliberately panicking analyses; ablation benches
/// use it to isolate scheduler overhead from analysis cost. The analysis
/// function receives the worker's [`AnalysisCtx`] and must intern every
/// symbol its result carries into `ctx.lexicon`.
pub fn run_pipeline_with<F>(
    inputs: &[CorpusInput],
    catalog: &SdkIndex,
    config: PipelineConfig,
    analyze: F,
) -> PipelineOutput
where
    F: Fn(&CorpusInput, &mut AnalysisCtx<'_>) -> (Result<AppAnalysis, ApkError>, StageTimings)
        + Sync,
{
    let started = Instant::now();
    let run = run_claims(
        inputs.len(),
        config.workers,
        0,
        || WorkerYield::new(catalog, &config),
        |y, i| {
            let result = y.analyze(config.stage_timings, |ctx| analyze(&inputs[i], ctx));
            y.results.push((i, result));
        },
    );
    join_worker_yields(inputs.len(), run.batch, started, run.workers)
}

/// The serial join tail: fold the stats, then merge worker buffers into
/// input order and translate worker-local symbols into one global table.
///
/// Shared between [`run_pipeline_with`] (whose workers claim index
/// batches) and the shard-streaming driver in [`crate::stream`] (whose
/// workers claim whole shards and key results by global entry index) —
/// both produce [`WorkerYield`]s, so the deterministic input-order symbol
/// remap makes their outputs bit-identical for the same corpus.
pub(crate) fn join_worker_yields(
    n: usize,
    batch: usize,
    started: Instant,
    yields: Vec<(WorkerYield<'_>, WorkerStats)>,
) -> PipelineOutput {
    // Everything from here to return runs on one thread after the pool
    // joins — the serial tail `stats.serial_tail_ns` exposes.
    let tail_started = Instant::now();
    let mut stats = PipelineStats {
        total: n,
        batch,
        ..PipelineStats::default()
    };
    let mut parts = Vec::with_capacity(yields.len());
    for (y, worker) in yields {
        stats.workers.push(worker);
        stats.stage.accumulate(&y.stage);
        stats.panicked += y.panicked;
        for (kind, count) in y.failures {
            *stats.failure_kinds.entry(kind).or_insert(0) += count;
        }
        stats.interner.label_hits += y.ctx.labels.hits;
        stats.interner.label_misses += y.ctx.labels.misses;
        stats.callgraph.merge(&y.ctx.callgraph_counters());
        stats.dataflow.merge(&y.ctx.dataflow);
        stats.decode.merge(&y.ctx.decode);
        parts.push((y.results, y.ctx.lexicon));
    }
    let merged = merge_in_order(n, parts, |result, f| {
        if let Ok(analysis) = result {
            analysis.remap_symbols(&mut |sym| f(sym));
        }
    });
    let c = merged.counters;
    stats.interner.global_symbols = c.global_symbols;
    stats.interner.global_bytes = c.global_bytes;
    stats.interner.local_symbols = c.local_symbols;
    stats.interner.local_bytes = c.local_bytes;
    stats.interner.local_hits = c.local_hits;
    stats.interner.local_misses = c.local_misses;
    stats.interner.presized_symbols = c.local_symbols;
    let results = merged.items;
    stats.broken = results.iter().filter(|r| r.is_err()).count();
    stats.analyzed = n - stats.broken;
    stats.serial_tail_ns = tail_started.elapsed().as_nanos() as u64;
    stats.wall_ns = started.elapsed().as_nanos() as u64;
    PipelineOutput {
        results,
        stats,
        interner: merged.interner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wla_corpus::{CorpusConfig, Generator};

    fn inputs(catalog: &SdkIndex, scale: u32, seed: u64, corrupt: f64) -> Vec<CorpusInput> {
        let cfg = CorpusConfig {
            scale,
            seed,
            corrupt_fraction: corrupt,
            ..CorpusConfig::default()
        };
        Generator::new(catalog, cfg)
            .generate()
            .into_iter()
            .map(|g| CorpusInput {
                meta: g.spec.meta.clone(),
                bytes: g.bytes,
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial() {
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, 2_000, 11, 0.1);
        let par = run_pipeline(
            &ins,
            &catalog,
            PipelineConfig {
                workers: 8,
                ..PipelineConfig::default()
            },
        );
        let ser = run_pipeline(
            &ins,
            &catalog,
            PipelineConfig {
                workers: 1,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(par.results.len(), ser.results.len());
        // The input-order remap makes global symbol ids — and therefore
        // whole analyses — bit-identical across worker counts.
        for (a, b) in par.results.iter().zip(&ser.results) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("mismatch {other:?}"),
            }
        }
        // Dataflow counters are per-app sums, so worker count and
        // scheduling cannot change them (metamorphic provenance pin).
        assert_eq!(par.stats.dataflow, ser.stats.dataflow);
        assert!(par.stats.dataflow.resolved_sites > 0);
        // And the global tables agree symbol-for-symbol.
        assert_eq!(par.interner.len(), ser.interner.len());
        let (ps, ss) = (par.symbols(), ser.symbols());
        for a in par.analyzed() {
            for s in &a.webview_sites {
                assert_eq!(ps.resolve(s.method), ss.resolve(s.method));
            }
        }
    }

    #[test]
    fn broken_fraction_counted() {
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, 2_000, 3, 0.25);
        let out = run_pipeline(&ins, &catalog, PipelineConfig::default());
        assert_eq!(out.results.len(), ins.len());
        assert!(out.broken_count() > 0);
        assert_eq!(out.analyzed_count() + out.broken_count(), ins.len());
    }

    #[test]
    fn empty_corpus_ok() {
        let catalog = SdkIndex::paper();
        let out = run_pipeline(&[], &catalog, PipelineConfig::default());
        assert_eq!(out.results.len(), 0);
        assert_eq!(out.broken_count(), 0);
        assert_eq!(out.stats.total, 0);
        assert_eq!(out.stats.apps_per_second(), 0.0);
        assert_eq!(out.stats.interner.global_symbols, 0);
    }

    #[test]
    fn interner_counters_populated() {
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, 2_000, 23, 0.0);
        let out = run_pipeline(
            &ins,
            &catalog,
            PipelineConfig {
                workers: 4,
                ..PipelineConfig::default()
            },
        );
        let c = &out.stats.interner;
        assert!(c.global_symbols > 0);
        assert_eq!(c.global_symbols, out.interner.len());
        assert!(c.global_bytes > 0);
        // Workers re-discover shared strings, so local ≥ global.
        assert!(c.local_symbols >= c.global_symbols);
        assert!(c.local_bytes >= c.global_bytes);
        // Every unique local string misses exactly once; repeats (method
        // names, shared packages) land as hits.
        assert_eq!(c.local_misses, c.local_symbols as u64);
        assert!(c.local_hits > 0);
        // Package labels are memoized per worker, so repeats hit the cache.
        assert!(c.label_hits > 0);
        assert!(c.label_hit_rate() > 0.0);
        // The join pre-sizes the global table from the summed lexicons, so
        // the hit rate is global/local and can never exceed 1.
        assert_eq!(c.presized_symbols, c.local_symbols);
        assert!(c.presize_hit_rate() > 0.0 && c.presize_hit_rate() <= 1.0);
        // The serial tail was timed.
        assert!(out.stats.serial_tail_ns > 0);
        assert!(out.stats.serial_tail_ns <= out.stats.wall_ns);
        // Snapshot covers exactly the global table.
        assert_eq!(out.symbols().len(), c.global_symbols);
    }

    /// Keep deliberate test panics out of stderr while still letting any
    /// unexpected panic report normally. Process-global, so installed once.
    fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.contains("injected"))
                    .or_else(|| {
                        info.payload()
                            .downcast_ref::<String>()
                            .map(|s| s.contains("injected"))
                    })
                    .unwrap_or(false);
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn panicking_analysis_is_isolated() {
        quiet_injected_panics();
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, 2_000, 7, 0.0);
        let trap = ins.len() / 2;
        let out = run_pipeline_with(
            &ins,
            &catalog,
            PipelineConfig {
                workers: 4,
                ..PipelineConfig::default()
            },
            |input, ctx| {
                if std::ptr::eq(input, &ins[trap]) {
                    panic!("injected analysis fault");
                }
                analyze_app_timed_with(input.meta.clone(), &input.bytes, ctx)
            },
        );
        assert_eq!(out.results.len(), ins.len());
        assert_eq!(out.stats.panicked, 1);
        match &out.results[trap] {
            Err(ApkError::AnalysisPanic { message }) => {
                assert!(message.contains("injected analysis fault"), "{message}");
            }
            other => panic!("expected AnalysisPanic, got {other:?}"),
        }
        assert_eq!(out.analyzed_count() + out.broken_count(), ins.len());
        assert_eq!(out.stats.failure_kinds.get("analysis-panic"), Some(&1));
    }

    #[test]
    fn stage_timings_can_be_disabled() {
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, 3_000, 5, 0.0);
        let on = run_pipeline(&ins, &catalog, PipelineConfig::default());
        let off = run_pipeline(
            &ins,
            &catalog,
            PipelineConfig {
                stage_timings: false,
                ..PipelineConfig::default()
            },
        );
        assert!(on.stats.stage.total_ns() > 0);
        assert_eq!(off.stats.stage.total_ns(), 0);
        assert_eq!(on.analyzed_count(), off.analyzed_count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn stats_counters_sum_to_result_counts(
            seed in 0u64..1_000,
            workers in 1usize..9,
            corrupt in prop_oneof![Just(0.0f64), Just(0.2f64)],
        ) {
            let catalog = SdkIndex::paper();
            let ins = inputs(&catalog, 4_000, seed, corrupt);
            let out = run_pipeline(
                &ins,
                &catalog,
                PipelineConfig {
                    workers,
                    ..PipelineConfig::default()
                },
            );
            let s = &out.stats;
            prop_assert_eq!(s.total, out.results.len());
            prop_assert_eq!(s.analyzed, out.analyzed_count());
            prop_assert_eq!(s.broken, out.broken_count());
            prop_assert_eq!(s.analyzed + s.broken, s.total);
            prop_assert_eq!(s.panicked, 0);
            prop_assert_eq!(
                s.failure_kinds.values().sum::<usize>(),
                s.broken
            );
            prop_assert_eq!(
                s.workers.iter().map(|w| w.items).sum::<usize>(),
                s.total
            );
            prop_assert!(s.workers.len() <= workers);
            // Interner invariants: the local tables cover the global one.
            prop_assert!(s.interner.local_symbols >= s.interner.global_symbols);
            prop_assert_eq!(s.interner.global_symbols, out.interner.len());
            prop_assert_eq!(
                s.interner.local_misses,
                s.interner.local_symbols as u64
            );
            prop_assert_eq!(s.interner.presized_symbols, s.interner.local_symbols);
            prop_assert!(s.interner.presize_hit_rate() <= 1.0);
            prop_assert!(s.serial_tail_ns <= s.wall_ns);
            // Call-graph counters: one graph (and one traversal) per dex,
            // so graphs ≥ analyzed apps and every traversal either reused
            // or grew the worker's bitset.
            prop_assert!(s.callgraph.graphs >= s.analyzed as u64);
            prop_assert_eq!(
                s.callgraph.bitset_reuses + s.callgraph.bitset_grows,
                s.callgraph.graphs
            );
            // Default preset is All: every dex decode is a full decode,
            // every generator dex carries a stored lookup table, and no
            // lazy rebuild should ever fire.
            prop_assert_eq!(s.decode.trusted, 0);
            prop_assert!(s.decode.full >= s.analyzed as u64);
            prop_assert_eq!(s.decode.lut_present, s.decode.full);
            prop_assert_eq!(s.decode.lut_rebuilds, 0);
            if s.analyzed > 0 {
                prop_assert!(s.callgraph.edges > 0);
                prop_assert!(s.callgraph.edges_traversed > 0);
                prop_assert!(s.callgraph.vtable_hit_rate() <= 1.0);
                // Constant propagation ran over every analyzed dex: every
                // method was classified, branchy ones built blocks, and
                // each block was visited at least once.
                prop_assert!(s.dataflow.methods > 0);
                prop_assert!(s.dataflow.linear_methods <= s.dataflow.methods);
                prop_assert!(s.dataflow.iterations >= s.dataflow.blocks);
                prop_assert!(s.dataflow.resolved_rate() <= 1.0);
            }
            if s.total > 0 {
                prop_assert!(s.wall_ns > 0);
                prop_assert!(s.apps_per_second() > 0.0);
            }
        }
    }
}

//! Shard-level streaming corpus runner: analyze a sharded on-disk corpus
//! without ever materializing it in memory.
//!
//! Workers claim whole shards from one atomic counter, `mmap(2)` each
//! shard (via [`wla_apk::ContainerSource`]) and analyze its entries
//! through the zero-copy decode path — container bytes are read straight
//! from the page cache, so resident memory is bounded by the number of
//! *concurrently open* shards, not the corpus size. Everything downstream
//! of the workers reuses the in-memory pipeline's serial join tail
//! ([`crate::pipeline`]): results are keyed by **global entry index**
//! (prefix sums of per-shard entry counts in sorted-shard order), which
//! makes the input-order symbol remap — and therefore the entire
//! [`PipelineOutput`] — bit-identical to loading the same corpus in
//! memory and running [`crate::run_pipeline`], at any worker count.
//!
//! **Resumability.** With [`StreamConfig::resume`] on, each finished
//! shard's results are serialized to `<dir>/manifest/<shard>.done` keyed
//! to the shard's stamp (header checksum + length). A rerun loads those
//! instead of re-analyzing; any staleness or damage in a cache file is a
//! silent miss. [`StreamCounters`] reports what was streamed, what was
//! served from cache, shard-level failures, and mapped-memory usage.

use crate::analyze::{analyze_app_bytes_timed_with, AnalysisCtx};
use crate::cache;
use crate::pipeline::{join_worker_yields, PipelineConfig, PipelineOutput, WorkerYield};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use wla_apk::ApkError;
use wla_corpus::shard::{list_shards, read_shard_stamp, Shard, ShardStamp};
use wla_sdk_index::SdkIndex;

/// Subdirectory of a sharded corpus holding per-shard resume caches.
pub const MANIFEST_SUBDIR: &str = "manifest";

/// Streaming-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Scheduler/analysis knobs shared with the in-memory pipeline.
    /// `batch` is ignored: the streaming claim unit is one shard.
    pub pipeline: PipelineConfig,
    /// Memory-map shards (default). `false` falls back to buffered reads
    /// — same results, one heap copy per shard.
    pub mmap: bool,
    /// Maintain and honor the per-shard resume manifest (default). When
    /// off, nothing under [`MANIFEST_SUBDIR`] is read or written.
    pub resume: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            pipeline: PipelineConfig::default(),
            mmap: true,
            resume: true,
        }
    }
}

/// Counters specific to the shard-streaming path, carried on
/// [`PipelineStats::stream`](crate::PipelineStats) (all-zero for
/// in-memory runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Shards opened, validated, and analyzed this run.
    pub shards_read: usize,
    /// Shards skipped entirely — their results came from the resume
    /// manifest.
    pub shards_cached: usize,
    /// Shard *files* that failed to open or validate (distinct from
    /// per-entry container failures, which land in `failure_kinds`).
    pub shard_failures: usize,
    /// Shard-level failure taxonomy, keyed by
    /// [`ShardError::kind`](wla_corpus::ShardError::kind).
    pub shard_failure_kinds: BTreeMap<&'static str, usize>,
    /// Entries analyzed from shard bytes this run.
    pub entries_streamed: usize,
    /// Entries whose results were loaded from the resume manifest.
    pub entries_cached: usize,
    /// Total bytes of shard files opened through `mmap` this run.
    pub bytes_mapped: u64,
    /// High-water mark of *concurrently* mapped shard bytes — the
    /// streaming path's address-space footprint (resident memory is
    /// bounded above by this and typically far below it, since the
    /// kernel pages shard data in and out on demand).
    pub peak_mapped_bytes: u64,
}

/// What one streaming worker learned about each shard it claimed.
struct ShardOutcome {
    index: usize,
    entries: usize,
    cached: bool,
    failure: Option<&'static str>,
    mapped_bytes: u64,
}

/// Resume-cache path for a shard file.
fn cache_path_for(manifest_dir: &Path, shard_path: &Path) -> PathBuf {
    let stem = shard_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("shard");
    manifest_dir.join(format!("{stem}.done"))
}

/// Analyze a sharded corpus directory (written by
/// [`wla_corpus::write_sharded_corpus`]) end-to-end.
///
/// Output is bit-identical to reading every shard entry into memory and
/// running [`crate::run_pipeline`] over it, for any worker count and
/// shard size. The `io::Result` covers only corpus-level failures (no
/// shard directory); individual shard and entry failures are counted in
/// [`StreamCounters`] and the failure taxonomy instead.
pub fn run_pipeline_streamed(
    dir: &Path,
    catalog: &SdkIndex,
    config: StreamConfig,
) -> io::Result<PipelineOutput> {
    let shards = list_shards(dir)?;
    let manifest_dir = dir.join(MANIFEST_SUBDIR);
    if config.resume {
        fs::create_dir_all(&manifest_dir)?;
    }
    let started = Instant::now();
    let workers = config.pipeline.workers;
    let workers = if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
    .min(shards.len().max(1));
    let next = AtomicUsize::new(0);
    let mapped_now = AtomicU64::new(0);
    let mapped_peak = AtomicU64::new(0);

    type Pairs = Vec<(u32, u32, Result<crate::AppAnalysis, ApkError>)>;
    let per_worker: Vec<(WorkerYield, Pairs, Vec<ShardOutcome>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = AnalysisCtx::new(catalog);
                    ctx.verify_preset = config.pipeline.verify_preset;
                    ctx.use_lut = config.pipeline.use_lut;
                    let mut y = WorkerYield::empty();
                    let mut pairs: Pairs = Vec::new();
                    let mut outcomes: Vec<ShardOutcome> = Vec::new();
                    loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        if s >= shards.len() {
                            break;
                        }
                        y.stats.batches += 1;
                        let claimed = Instant::now();
                        let outcome = stream_one_shard(
                            s,
                            &shards[s],
                            &manifest_dir,
                            config,
                            &mut ctx,
                            &mut y,
                            &mut pairs,
                            &mapped_now,
                            &mapped_peak,
                        );
                        y.stats.busy_ns += claimed.elapsed().as_nanos() as u64;
                        outcomes.push(outcome);
                    }
                    y.callgraph = ctx.callgraph_counters();
                    y.dataflow = ctx.dataflow;
                    y.decode = ctx.decode;
                    y.lexicon = ctx.lexicon;
                    y.label_hits = ctx.labels.hits;
                    y.label_misses = ctx.labels.misses;
                    (y, pairs, outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("worker bodies cannot panic: analysis is wrapped in catch_unwind")
            })
            .collect()
    });

    // Per-shard entry counts → prefix sums → global entry indices. Shards
    // that failed contribute zero entries; the remaining indices still
    // cover 0..n exactly once, which the join tail asserts.
    let mut counts = vec![0usize; shards.len()];
    let mut counters = StreamCounters::default();
    for (_, _, outcomes) in &per_worker {
        for o in outcomes {
            counts[o.index] = o.entries;
            counters.bytes_mapped += o.mapped_bytes;
            if let Some(kind) = o.failure {
                counters.shard_failures += 1;
                *counters.shard_failure_kinds.entry(kind).or_insert(0) += 1;
            } else if o.cached {
                counters.shards_cached += 1;
                counters.entries_cached += o.entries;
            } else {
                counters.shards_read += 1;
                counters.entries_streamed += o.entries;
            }
        }
    }
    counters.peak_mapped_bytes = mapped_peak.load(Ordering::Relaxed);
    let mut base = vec![0usize; shards.len() + 1];
    for i in 0..shards.len() {
        base[i + 1] = base[i] + counts[i];
    }
    let n = base[shards.len()];

    let yields: Vec<WorkerYield> = per_worker
        .into_iter()
        .map(|(mut y, pairs, _)| {
            y.results = pairs
                .into_iter()
                .map(|(s, e, r)| (base[s as usize] + e as usize, r))
                .collect();
            y
        })
        .collect();

    let mut output = join_worker_yields(n, 1, started, yields);
    output.stats.stream = counters;
    Ok(output)
}

/// Claim-body for one shard: resume-cache lookup, streaming analysis,
/// cache write-back, and mapped-bytes accounting.
#[allow(clippy::too_many_arguments)]
fn stream_one_shard(
    index: usize,
    path: &Path,
    manifest_dir: &Path,
    config: StreamConfig,
    ctx: &mut AnalysisCtx<'_>,
    y: &mut WorkerYield,
    pairs: &mut Vec<(u32, u32, Result<crate::AppAnalysis, ApkError>)>,
    mapped_now: &AtomicU64,
    mapped_peak: &AtomicU64,
) -> ShardOutcome {
    let mut outcome = ShardOutcome {
        index,
        entries: 0,
        cached: false,
        failure: None,
        mapped_bytes: 0,
    };
    let cache_path = cache_path_for(manifest_dir, path);

    if config.resume {
        if let Ok(stamp) = read_shard_stamp(path) {
            if let Some(results) = cache::load_result_cache(&cache_path, stamp, &mut ctx.lexicon) {
                outcome.cached = true;
                outcome.entries = results.len();
                for (e, result) in results.into_iter().enumerate() {
                    if let Err(err) = &result {
                        *y.failures.entry(err.kind()).or_insert(0) += 1;
                        if matches!(err, ApkError::AnalysisPanic { .. }) {
                            y.panicked += 1;
                        }
                    }
                    y.stats.apps += 1;
                    pairs.push((index as u32, e as u32, result));
                }
                return outcome;
            }
        }
    }

    let opened = if config.mmap {
        Shard::open(path)
    } else {
        Shard::open_buffered(path)
    };
    let shard = match opened {
        Ok(mut shard) => {
            // The open just revalidated the shard's file-level checksum, so
            // its entry windows carry whatever trust the run configured.
            shard.set_verify_preset(config.pipeline.verify_preset);
            shard
        }
        Err(e) => {
            outcome.failure = Some(e.kind());
            return outcome;
        }
    };
    if shard.is_mapped() {
        outcome.mapped_bytes = shard.file_len();
        let now =
            mapped_now.fetch_add(outcome.mapped_bytes, Ordering::Relaxed) + outcome.mapped_bytes;
        mapped_peak.fetch_max(now, Ordering::Relaxed);
    }

    let first = pairs.len();
    for e in 0..shard.len() {
        let meta = shard.entry_meta(e).clone();
        let bytes = shard.entry_bytes(e);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            analyze_app_bytes_timed_with(meta, bytes, ctx)
        }));
        let result = match attempt {
            Ok((result, timings)) => {
                if config.pipeline.stage_timings {
                    y.stage.accumulate(&timings);
                }
                result
            }
            Err(payload) => {
                y.panicked += 1;
                Err(ApkError::AnalysisPanic {
                    message: crate::pipeline::panic_message(payload),
                })
            }
        };
        if let Err(err) = &result {
            *y.failures.entry(err.kind()).or_insert(0) += 1;
        }
        y.stats.apps += 1;
        pairs.push((index as u32, e as u32, result));
    }
    outcome.entries = shard.len();

    if config.resume {
        // Keyed to the exact bytes just analyzed (the open-time checksum),
        // written atomically; failure to cache is not failure to analyze.
        let stamp = ShardStamp {
            checksum: shard.checksum(),
            file_len: shard.file_len(),
        };
        let refs: Vec<&Result<crate::AppAnalysis, ApkError>> =
            pairs[first..].iter().map(|(_, _, r)| r).collect();
        let _ = cache::write_result_cache(&cache_path, stamp, &refs, &ctx.lexicon);
    }

    if shard.is_mapped() {
        mapped_now.fetch_sub(outcome.mapped_bytes, Ordering::Relaxed);
    }
    outcome
}

//! Study orchestration: configure once, run each campaign.

use wla_corpus::playstore::{FilterSpec, MetadataUniverse, UniverseConfig};
use wla_corpus::{top_thousand, CorpusConfig, GeneratedApp, Generator, TopAppSpec};
use wla_dynamic::classify::{classify_top_apps, ClassificationOutcome, Table6Counts};
use wla_dynamic::crawl_study::{run_crawl_study, run_crawl_study_parallel, CrawlStudy};
use wla_dynamic::iab_study::{run_iab_study, IabStudy};
use wla_dynamic::CrawlConfig;
use wla_sdk_index::SdkIndex;
use wla_static::{
    aggregate, run_pipeline, run_pipeline_streamed, CorpusInput, PipelineConfig, PipelineStats,
    StreamConfig, StudyResults,
};

/// Top-level study configuration.
#[derive(Debug, Clone)]
pub struct Study {
    /// Corpus scale divisor (1 = the paper's 146.8K apps; default
    /// experiments use 100 ⇒ 1,468 apps).
    pub scale: u32,
    /// Master seed.
    pub seed: u64,
    /// SDK catalog.
    pub catalog: SdkIndex,
}

/// Output of the §3.1 static campaign.
#[derive(Debug)]
pub struct StaticRun {
    /// Generated corpus (ground truth + bytes).
    pub corpus: Vec<GeneratedApp>,
    /// Aggregated pipeline results.
    pub results: StudyResults,
    /// Pipeline observability: throughput, per-stage timers, failure
    /// taxonomy (rendered by [`crate::stats::render_pipeline_stats`]).
    pub stats: PipelineStats,
    /// The popularity threshold used for "top SDK" status, rescaled from
    /// the paper's >100 apps.
    pub top_sdk_threshold: usize,
}

/// Output of the Table 2 funnel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunnelRun {
    /// Metadata records generated.
    pub total: u64,
    /// Found on the Play Store.
    pub found: u64,
    /// 100K+ downloads.
    pub popular: u64,
    /// …and updated after 2021.
    pub maintained: u64,
    /// Successfully analyzed (from the scaled APK corpus, rescaled).
    pub analyzed_rescaled: u64,
}

/// Output of the §3.2 dynamic campaign.
#[derive(Debug)]
pub struct DynamicRun {
    /// The top-1K population driven through the device.
    pub top_apps: Vec<TopAppSpec>,
    /// Table 6 counts.
    pub table6: Table6Counts,
    /// Per-app classification outcomes.
    pub outcomes: std::collections::BTreeMap<String, ClassificationOutcome>,
    /// The ten-IAB instrumentation study (Tables 8 & 9).
    pub iab: IabStudy,
}

/// Output of the crawl campaign (Figures 6a/6b).
pub type CrawlRun = CrawlStudy;

impl Study {
    /// New study at `scale` with `seed`.
    pub fn new(scale: u32, seed: u64) -> Study {
        Study {
            scale,
            seed,
            catalog: SdkIndex::paper(),
        }
    }

    /// Default experiment configuration: scale 100, fixed seed.
    pub fn default_experiment() -> Study {
        Study::new(100, 0xDA7A_5EED)
    }

    /// Factor to rescale measured counts to paper scale.
    pub fn rescale(&self, measured: usize) -> u64 {
        measured as u64 * self.scale as u64
    }

    /// Run the §3.1 campaign: generate the corpus, run the pipeline over
    /// raw bytes, aggregate.
    pub fn run_static(&self) -> StaticRun {
        let cfg = CorpusConfig {
            scale: self.scale,
            seed: self.seed,
            ..CorpusConfig::default()
        };
        let corpus = Generator::new(&self.catalog, cfg).generate();
        let inputs: Vec<CorpusInput> = corpus
            .iter()
            .map(|g| CorpusInput {
                meta: g.spec.meta.clone(),
                bytes: g.bytes.clone(),
            })
            .collect();
        let output = run_pipeline(&inputs, &self.catalog, PipelineConfig::default());
        // The catalog already encodes the paper's >100-apps popularity
        // criterion; any observed usage of a catalog SDK counts.
        let top_sdk_threshold = 1;
        let results = aggregate(&output, &self.catalog, top_sdk_threshold);
        StaticRun {
            corpus,
            results,
            stats: output.stats,
            top_sdk_threshold,
        }
    }

    /// Run the §3.1 campaign through the sharded on-disk streaming path:
    /// generate the corpus, persist it as shards under `dir`, and analyze
    /// it with [`run_pipeline_streamed`] — results are bit-identical to
    /// [`Study::run_static`] at any worker count.
    ///
    /// The generator is deterministic, so re-persisting writes the exact
    /// same shard bytes (same checksums): a rerun over the same `dir`
    /// serves completed shards from the resume manifest instead of
    /// re-analyzing them.
    pub fn run_static_streamed(
        &self,
        dir: &std::path::Path,
        config: StreamConfig,
    ) -> std::io::Result<StaticRun> {
        let cfg = CorpusConfig {
            scale: self.scale,
            seed: self.seed,
            ..CorpusConfig::default()
        };
        let corpus = Generator::new(&self.catalog, cfg).generate();
        wla_corpus::write_sharded_corpus(dir, &corpus, 64)?;
        let output = run_pipeline_streamed(dir, &self.catalog, config)?;
        let top_sdk_threshold = 1;
        let results = aggregate(&output, &self.catalog, top_sdk_threshold);
        Ok(StaticRun {
            corpus,
            results,
            stats: output.stats,
            top_sdk_threshold,
        })
    }

    /// Run the Table 2 funnel: the metadata universe always runs at full
    /// scale (metadata is cheap); the analyzed row comes from the scaled
    /// byte-level corpus via `static_run`.
    pub fn run_funnel(&self, static_run: &StaticRun) -> FunnelRun {
        let cfg = UniverseConfig {
            seed: self.seed ^ 0xFA11_FA11,
            ..UniverseConfig::default()
        };
        let filter = FilterSpec::default();
        let mut total = 0u64;
        let mut found = 0u64;
        let mut popular = 0u64;
        let mut maintained = 0u64;
        for meta in MetadataUniverse::new(cfg) {
            total += 1;
            if meta.on_play_store {
                found += 1;
            }
            if filter.is_popular(&meta) {
                popular += 1;
            }
            if filter.accepts(&meta) {
                maintained += 1;
            }
        }
        FunnelRun {
            total,
            found,
            popular,
            maintained,
            analyzed_rescaled: self.rescale(static_run.results.analyzed),
        }
    }

    /// Run the §3.2 campaign: top-1K classification + the ten-IAB
    /// controlled-page instrumentation. Always full scale.
    pub fn run_dynamic(&self) -> DynamicRun {
        let top_apps = top_thousand(self.seed ^ 0x70B_1000);
        let (table6, outcomes) = classify_top_apps(&top_apps);
        let iab = run_iab_study();
        DynamicRun {
            top_apps,
            table6,
            outcomes,
            iab,
        }
    }

    /// Run the 100-site crawl campaign for the named apps (None = all 10).
    pub fn run_crawl(&self, apps: Option<&[&str]>) -> CrawlRun {
        run_crawl_study(None, apps)
    }

    /// [`Study::run_crawl`] on the parallel, fault-isolated pipeline —
    /// bit-identical output to the serial run at any worker count.
    pub fn run_crawl_parallel(&self, apps: Option<&[&str]>, config: CrawlConfig) -> CrawlRun {
        run_crawl_study_parallel(None, apps, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_static_run_is_consistent() {
        let study = Study::new(2_000, 7);
        let run = study.run_static();
        assert_eq!(run.corpus.len(), 73); // 146_800 / 2_000
        assert_eq!(run.results.analyzed + run.results.broken, run.corpus.len());
        assert!(run.results.webview_apps > 0);
        // The observability layer and the aggregation must agree.
        assert_eq!(run.stats.total, run.corpus.len());
        assert_eq!(run.stats.analyzed, run.results.analyzed);
        assert_eq!(run.stats.broken, run.results.broken);
        assert!(run.stats.stage.total_ns() > 0);
    }

    #[test]
    fn streamed_static_run_matches_in_memory_and_resumes() {
        let study = Study::new(4_000, 7);
        let baseline = study.run_static();
        let dir = std::env::temp_dir().join(format!("wla-study-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let streamed = study
            .run_static_streamed(&dir, StreamConfig::default())
            .unwrap();
        assert_eq!(streamed.results, baseline.results);
        assert_eq!(streamed.stats.total, baseline.stats.total);
        assert!(streamed.stats.stream.entries_streamed > 0);
        assert_eq!(streamed.stats.stream.entries_cached, 0);

        // Same dir, same seed: the deterministic generator re-persists
        // identical shard bytes, so the second run is served from the
        // resume manifest — and is still identical.
        let resumed = study
            .run_static_streamed(&dir, StreamConfig::default())
            .unwrap();
        assert_eq!(resumed.results, baseline.results);
        assert_eq!(resumed.stats.stream.shards_read, 0);
        assert_eq!(resumed.stats.stream.entries_cached, baseline.stats.total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rescale_multiplies_by_scale() {
        let study = Study::new(100, 1);
        assert_eq!(study.rescale(1_468), 146_800);
    }
}

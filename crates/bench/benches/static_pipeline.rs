//! End-to-end static pipeline cost: per-APK analysis, corpus throughput
//! at several worker counts (parallel-width ablation, DESIGN.md §6.3),
//! the overhead of `PipelineStats` stage-timer collection — the
//! acceptance bar is <5% versus timers off — and the interned-vs-string
//! aggregation ablation (DESIGN.md §6, EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wla_core::wla_apk::sdex::oracle;
use wla_core::wla_apk::{Dex, Sapk, SectionTag, VerifyPreset};
use wla_core::wla_corpus::{CorpusConfig, Generator};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{
    aggregate, aggregate_string_oracle, analyze_app_timed_with, run_pipeline, AnalysisCtx,
    CorpusInput, PipelineConfig,
};

fn corpus(n_apps_scale: u32) -> Vec<CorpusInput> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: n_apps_scale,
        seed: 77,
        corrupt_fraction: 0.0,
        ..CorpusConfig::default()
    };
    Generator::new(&catalog, cfg)
        .generate()
        .into_iter()
        .map(|g| CorpusInput {
            meta: g.spec.meta.clone(),
            bytes: g.bytes,
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let catalog = SdkIndex::paper();
    let single = corpus(2_000);
    // ~734 apps: enough work per thread for the fan-out sweep to mean
    // something (73 apps amortize to thread-pool overhead).
    let inputs = corpus(200);

    let mut group = c.benchmark_group("static_pipeline");
    group.sample_size(10);
    group.bench_function("analyze_single_apk", |b| {
        let input = &single[0];
        // Reuse one worker context across iterations, as the pipeline does
        // — re-building the catalog/lexicon per app is not the steady state.
        let mut ctx = AnalysisCtx::new(&catalog);
        b.iter(|| {
            analyze_app_timed_with(input.meta.clone(), black_box(&input.bytes), &mut ctx)
                .0
                .unwrap()
        })
    });
    // Worker-count sweep, with and without stage-timer collection, so the
    // sweep doubles as the stats-overhead ablation at every width.
    for stage_timings in [true, false] {
        let label = if stage_timings {
            "corpus_734_apps_stats_on"
        } else {
            "corpus_734_apps_stats_off"
        };
        for workers in [1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::new(label, workers), &workers, |b, &workers| {
                b.iter(|| {
                    run_pipeline(
                        black_box(&inputs),
                        &catalog,
                        PipelineConfig {
                            workers,
                            stage_timings,
                            ..PipelineConfig::default()
                        },
                    )
                })
            });
        }
    }
    // Batch-claiming ablation at fixed width: per-index claiming (batch=1)
    // versus the auto-sized batches the scheduler picks by default.
    for batch in [1usize, 0] {
        let label = if batch == 1 {
            "claim_per_index"
        } else {
            "claim_auto_batch"
        };
        group.bench_with_input(BenchmarkId::new(label, 8), &batch, |b, &batch| {
            b.iter(|| {
                run_pipeline(
                    black_box(&inputs),
                    &catalog,
                    PipelineConfig {
                        workers: 8,
                        batch,
                        ..PipelineConfig::default()
                    },
                )
            })
        });
    }
    // Decode ablation: the zero-copy span-pool decoder versus the owning
    // per-entry-String oracle, over every dex blob of the same corpus.
    // The blobs are `Bytes` sections of their containers, so the zero-copy
    // path measures its real shape: refcount bump in, spans out.
    let dex_blobs: Vec<_> = inputs
        .iter()
        .flat_map(|input| {
            let apk = Sapk::decode(&input.bytes).expect("generated app decodes");
            apk.sections()
                .iter()
                .filter(|s| s.tag == SectionTag::Dex)
                .map(|s| s.data.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    group.bench_function("decode_zero_copy", |b| {
        b.iter(|| {
            for blob in &dex_blobs {
                black_box(Dex::decode_bytes(black_box(blob.clone())).unwrap());
            }
        })
    });
    group.bench_function("decode_owned_oracle", |b| {
        b.iter(|| {
            for blob in &dex_blobs {
                black_box(oracle::decode(black_box(blob)).unwrap());
            }
        })
    });
    // Verify-preset ablation (DESIGN.md §6.9): the same zero-copy decode
    // with the checksum, per-string UTF-8 and structural re-validation
    // skipped (trusted), gated against `decode_zero_copy` by
    // `ci.sh bench-check`'s trusted-decode floor.
    group.bench_function("decode_trusted", |b| {
        b.iter(|| {
            for blob in &dex_blobs {
                black_box(
                    Dex::decode_bytes_with(black_box(blob.clone()), VerifyPreset::None).unwrap(),
                );
            }
        })
    });
    // Interned-IR ablation: the shipping u32-keyed aggregation versus the
    // string-path oracle (resolve + string-compare + trie re-label per
    // site) over the identical pipeline output.
    let out = run_pipeline(&inputs, &catalog, PipelineConfig::default());
    group.bench_function("aggregate_interned", |b| {
        b.iter(|| aggregate(black_box(&out), &catalog, 1))
    });
    group.bench_function("aggregate_string_oracle", |b| {
        b.iter(|| aggregate_string_oracle(black_box(&out), &catalog, 1))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

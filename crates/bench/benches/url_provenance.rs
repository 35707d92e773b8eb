//! URL-provenance resolution cost: the intra-procedural constant
//! propagation pass versus the linear pending-string heuristic it
//! replaced (DESIGN.md §6.5) over identical call-graph sites, plus the
//! end-to-end pipeline the pass runs inside.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wla_core::wla_apk::{Dex, Sapk, SectionTag};
use wla_core::wla_callgraph::{provenance_oracle, CallGraph, CallSite};
use wla_core::wla_corpus::{CorpusConfig, Generator};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{dataflow, run_pipeline, CorpusInput, DataflowCounters, PipelineConfig};

fn corpus(scale: u32) -> Vec<CorpusInput> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale,
        seed: 4_242,
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
    let inputs = corpus(100);

    // Pre-decoded dexes with their graphs' site lists, so the annotation
    // benches measure resolution alone (sites are `Copy`, the per-iter
    // clone is a memcpy).
    let fixtures: Vec<(Dex, Vec<CallSite>)> = inputs
        .iter()
        .flat_map(|input| {
            let apk = Sapk::decode(&input.bytes).expect("generated app decodes");
            apk.sections()
                .iter()
                .filter(|s| s.tag == SectionTag::Dex)
                .map(|s| {
                    let dex = Dex::decode_bytes(s.data.clone()).unwrap();
                    let sites = CallGraph::build(&dex).sites().to_vec();
                    (dex, sites)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("url_provenance");
    group.sample_size(10);
    // Annotation ablation: worklist constant propagation vs the linear
    // pending-string scan, over identical graphs.
    group.bench_function("annotate_dataflow", |b| {
        let mut counters = DataflowCounters::default();
        b.iter(|| {
            for (dex, sites) in &fixtures {
                let mut sites = sites.clone();
                dataflow::annotate(black_box(dex), &mut sites, &mut counters);
                black_box(&sites);
            }
        })
    });
    group.bench_function("annotate_pending_string", |b| {
        b.iter(|| {
            for (dex, sites) in &fixtures {
                let mut sites = sites.clone();
                provenance_oracle::annotate(black_box(dex), &mut sites);
                black_box(&sites);
            }
        })
    });
    // The full pipeline the pass runs inside; the annotation rows above
    // carry the ablation within one run.
    group.bench_function("pipeline_dataflow", |b| {
        b.iter(|| {
            run_pipeline(
                black_box(&inputs),
                &catalog,
                PipelineConfig {
                    workers: 4,
                    ..PipelineConfig::default()
                },
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! `study`: one op is one `wla all` pass at scale 100 — static campaign,
//! Table 2 funnel, dynamic campaign, parallel crawl, and the twelve
//! experiments rendered to text — with the program's default worker
//! counts. This is what the paper's user waits for.

use crate::heap;
use crate::measure::{
    alternate_recording, end_to_end, per_layer, repeated_setup, timed_loop, Outcome,
};
use crate::trace::{Ledger, Tracer};
use crate::workloads::TOP_SDK_THRESHOLD;
use std::fmt::Write as _;
use std::time::Instant;
use wla_core::experiments::{self, Experiment};
use wla_core::wla_corpus::{top_thousand, CorpusConfig, Generator};
use wla_core::wla_dynamic::classify::classify_top_apps;
use wla_core::wla_dynamic::iab_study::run_iab_study;
use wla_core::wla_dynamic::CrawlConfig;
use wla_core::wla_static::{aggregate, run_pipeline, CorpusInput, PipelineConfig};
use wla_core::{CrawlRun, DynamicRun, FunnelRun, StaticRun, Study};

/// Corpus scale divisor of `wla all`'s default.
pub const SCALE: u32 = 100;

/// `Study::run_dynamic` seeds the top-1K population with this mask.
const TOP_THOUSAND_SEED_MASK: u64 = 0x70B_1000;

/// `match_fraction` floors per experiment id, as the calibration suite
/// (`tests/experiments_shape.rs`) holds them. Experiments not listed
/// (table3, table5) have no floor there.
pub const FLOORS: [(&str, f64); 10] = [
    ("table2", 1.0),
    ("table4", 0.7),
    ("table6", 1.0),
    ("table7", 0.75),
    ("table8", 1.0),
    ("table9", 1.0),
    ("fig3", 0.6),
    ("fig4", 0.6),
    ("fig6", 1.0),
    ("fig7", 1.0),
];

/// The twelve experiments in the order `wla all` prints them.
fn experiments_of(
    study: &Study,
    funnel: &FunnelRun,
    static_run: &StaticRun,
    dynamic_run: &DynamicRun,
    crawl_run: &CrawlRun,
) -> Vec<Experiment> {
    vec![
        experiments::table2(study, funnel),
        experiments::table3(study, static_run),
        experiments::table4(study, static_run),
        experiments::table5(study, static_run),
        experiments::table6(dynamic_run),
        experiments::table7(study, static_run),
        experiments::table8(dynamic_run),
        experiments::table9(dynamic_run),
        experiments::fig3(study, static_run),
        experiments::fig4(study, static_run),
        experiments::fig6(crawl_run),
        experiments::fig7(),
    ]
}

/// The text `wla all` prints for `exps`.
pub fn render(exps: &[Experiment]) -> String {
    let mut out = String::new();
    for exp in exps {
        let _ = writeln!(out, "=== {} ===\n", exp.id);
        if !exp.table.headers.is_empty() || !exp.table.rows.is_empty() {
            let _ = writeln!(out, "{}", exp.table.render());
        }
        for fig in &exp.figures {
            let _ = writeln!(out, "{fig}");
        }
        let _ = writeln!(out, "{}", exp.comparison.to_table().render());
    }
    out
}

/// Experiments whose paper-vs-measured agreement fell below its floor.
pub fn floor_violations(exps: &[Experiment]) -> Vec<String> {
    FLOORS
        .iter()
        .filter_map(|&(id, floor)| match exps.iter().find(|e| e.id == id) {
            None => Some(format!("{id}: missing")),
            Some(e) if e.comparison.match_fraction() < floor => Some(format!(
                "{id}: match_fraction {:.3} < {floor}",
                e.comparison.match_fraction()
            )),
            Some(_) => None,
        })
        .collect()
}

/// One untraced pass: exactly the calls `wla all` makes.
pub fn pass(study: &Study) -> Vec<Experiment> {
    let static_run = study.run_static();
    let funnel = study.run_funnel(&static_run);
    let dynamic_run = study.run_dynamic();
    let crawl_run = study.run_crawl_parallel(None, CrawlConfig::default());
    experiments_of(study, &funnel, &static_run, &dynamic_run, &crawl_run)
}

/// One traced pass, rendered: `Study::run_static` and `Study::run_dynamic`
/// rebuilt from their public parts so each part gets its own span, the
/// other `Study` calls wrapped whole.
pub fn traced_pass(study: &Study, t: &mut Tracer, group: u64) -> String {
    let catalog = &study.catalog;
    let corpus = t.span("corpus.generate_s", group, |_| {
        let cfg = CorpusConfig {
            scale: study.scale,
            seed: study.seed,
            ..CorpusConfig::default()
        };
        Generator::new(catalog, cfg).generate()
    });
    let output = t.span("static.pipeline_s", group, |_| {
        let inputs: Vec<CorpusInput> = corpus
            .iter()
            .map(|g| CorpusInput {
                meta: g.spec.meta.clone(),
                bytes: g.bytes.clone(),
            })
            .collect();
        run_pipeline(&inputs, catalog, PipelineConfig::default())
    });
    let results = t.span("static.aggregate_s", group, |_| {
        aggregate(&output, catalog, TOP_SDK_THRESHOLD)
    });
    let static_run = StaticRun {
        corpus,
        results,
        stats: output.stats,
        top_sdk_threshold: TOP_SDK_THRESHOLD,
    };
    let funnel = t.span("corpus.funnel_s", group, |_| study.run_funnel(&static_run));
    let (top_apps, (table6, outcomes)) = t.span("dynamic.classify_s", group, |_| {
        let top_apps = top_thousand(study.seed ^ TOP_THOUSAND_SEED_MASK);
        let classified = classify_top_apps(&top_apps);
        (top_apps, classified)
    });
    let iab = t.span("dynamic.iab_s", group, |_| run_iab_study());
    let dynamic_run = DynamicRun {
        top_apps,
        table6,
        outcomes,
        iab,
    };
    let crawl_run = t.span("dynamic.crawl_s", group, |_| {
        study.run_crawl_parallel(None, CrawlConfig::default())
    });
    t.span("report.render_s", group, |_| {
        render(&experiments_of(
            study,
            &funnel,
            &static_run,
            &dynamic_run,
            &crawl_run,
        ))
    })
}

fn mismatch(text: &str, reference: &str) -> Option<String> {
    (text != reference).then(|| {
        let at = text
            .bytes()
            .zip(reference.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(text.len().min(reference.len()));
        format!("rendered experiments differ from the first pass at byte {at}")
    })
}

/// Set-ups per run. A `Study` is cheap to build, so many are timed.
const SETUPS: usize = 21;

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let (study, setup) = repeated_setup(SETUPS, || Ok::<_, String>(Study::new(SCALE, seed)))?;
    let apps = CorpusConfig {
        scale: SCALE,
        ..CorpusConfig::default()
    }
    .app_count() as f64;

    // The first pass is the fixed work peak heap is measured over, and
    // its rendering is the reference every later pass must reproduce.
    let (first, peak_heap) = heap::peak_growth_mib(|| pass(&study));
    let reference = render(&first);
    let mut outcome = Outcome::default();
    let violations = floor_violations(&first);
    outcome.check((!violations.is_empty()).then(|| violations.join("; ")));

    if !trace {
        let op_ns = timed_loop(seconds, |_| {
            let started = Instant::now();
            let text = render(&pass(&study));
            let took = started.elapsed();
            outcome.check(mismatch(&text, &reference));
            took
        });
        outcome.metrics = end_to_end(&op_ns, apps, setup, (peak_heap, 1));
        return Ok(outcome);
    }

    // The same traced pass with recording off and on in turn: the
    // difference is what recording costs.
    let mut ledger = Ledger::default();
    let (untraced_ns, traced_ns) = alternate_recording(seconds, &mut ledger, |t, i| {
        let started = Instant::now();
        let text = traced_pass(&study, t, i);
        let took = started.elapsed();
        outcome.check(mismatch(&text, &reference));
        took
    });
    outcome.metrics = per_layer(&ledger, &untraced_ns, &traced_ns);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_reference_counts_as_a_failed_op() {
        let study = Study::new(2_000, 7);
        let static_run = study.run_static();
        let exps = vec![
            experiments::table7(&study, &static_run),
            experiments::fig7(),
        ];
        let text = render(&exps);
        let mut outcome = Outcome::default();
        outcome.check(mismatch(&text, &text));
        let mut corrupted = text.clone();
        corrupted.insert(10, '!');
        outcome.check(mismatch(&text, &corrupted));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
    }

    #[test]
    fn floors_report_missing_and_low_experiments() {
        let study = Study::new(2_000, 7);
        let static_run = study.run_static();
        let violations = floor_violations(&[experiments::fig7()]);
        assert!(violations.iter().any(|v| v == "table2: missing"));
        assert!(!violations.iter().any(|v| v.starts_with("fig7")));
        let mut t7 = experiments::table7(&study, &static_run);
        t7.comparison.tolerance = 0.0;
        let low = floor_violations(&[t7]);
        assert!(
            low.iter().any(|v| v.starts_with("table7: match_fraction")),
            "{low:?}"
        );
    }
}

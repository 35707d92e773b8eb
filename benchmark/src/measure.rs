//! Timing loops, summary statistics and the result line every workload
//! prints.

use crate::trace::{Ledger, Tracer};
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Number of samples the value summarises.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops whose output was wrong or missing.
    pub failed: u64,
    /// Failed checks that are not per op: the replayed handler differing
    /// from the router, load shedding, too few round trips for `p99_ms`.
    pub run_errors: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.run_errors.is_empty() && self.attempted > 0
    }

    /// Human-readable lines: one per metric with its sample count, then
    /// the op tally and any run-level errors.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:<32} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                )
            })
            .collect();
        lines.push(format!(
            "ops: failed {} / attempted {}",
            self.failed, self.attempted
        ));
        lines.extend(self.run_errors.iter().map(|e| format!("check failed: {e}")));
        lines
    }

    /// The result object, printed as the last line of standard output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Count one checked op; `mismatch` describes a wrong output. The
    /// first few mismatches go to standard error.
    pub fn check(&mut self, mismatch: Option<String>) {
        self.attempted += 1;
        if let Some(why) = mismatch {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("op {} failed: {why}", self.attempted);
            }
        }
    }
}

/// Full-precision JSON number; non-finite values (which no metric should
/// produce) become 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median set-up time over several set-ups in one run.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Median seconds.
    pub median_s: f64,
    /// Set-ups timed.
    pub samples: usize,
}

/// Run `setup` `times` times, dropping each state before building the
/// next, and return the last state with the median set-up time.
pub fn repeated_setup<T, E>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(T, SetupTime), E> {
    assert!(times > 0, "at least one set-up");
    let mut state = None;
    let mut secs = Vec::with_capacity(times);
    for _ in 0..times {
        drop(state.take());
        let started = Instant::now();
        state = Some(setup()?);
        secs.push(started.elapsed().as_secs_f64());
    }
    let state = state.expect("times is at least 1");
    let time = SetupTime {
        median_s: median(&secs),
        samples: times,
    };
    Ok((state, time))
}

/// Call `op` until `seconds` have passed (always at least once). `op`
/// times its own measured part and returns it, so output checks stay out
/// of the samples.
pub fn timed_loop(seconds: f64, mut op: impl FnMut(u64) -> Duration) -> Vec<f64> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0u64;
    while i == 0 || started.elapsed() < budget {
        samples.push(op(i).as_nanos() as f64);
        i += 1;
    }
    samples
}

/// Run `op` for `seconds`, recording off and on in turn from one op to the
/// next so that both halves see the same host conditions, and fold every
/// recorded op into `ledger`. Returns the unrecorded and the recorded op
/// times; their medians give the tracing overhead.
pub fn alternate_recording(
    seconds: f64,
    ledger: &mut Ledger,
    mut op: impl FnMut(&mut Tracer, u64) -> Duration,
) -> (Vec<f64>, Vec<f64>) {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut off, mut on) = (Tracer::off(), Tracer::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0u64;
    while i < 2 || started.elapsed() < budget {
        if i.is_multiple_of(2) {
            untraced.push(op(&mut off, i).as_nanos() as f64);
        } else {
            traced.push(op(&mut on, i).as_nanos() as f64);
            on.fold_into(ledger);
        }
        i += 1;
    }
    (untraced, traced)
}

/// Ops per block in a run of at least `MIN_BLOCKS` such blocks.
pub const BLOCK_OPS: usize = 1_000;

/// Blocks a run is cut into at least.
pub const MIN_BLOCKS: usize = 5;

/// The median over consecutive blocks of the run's ops of `stat` per
/// block. Blocks hold `BLOCK_OPS` ops; a shorter run is cut into
/// `MIN_BLOCKS` blocks (a run of fewer ops is one block). A burst of host
/// stalls that hits a minority of the blocks then does not set the run's
/// figure.
fn blocked(op_ns: &[f64], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let n = op_ns.len();
    let per_block: Vec<f64> = if n >= MIN_BLOCKS * BLOCK_OPS {
        op_ns.chunks_exact(BLOCK_OPS).map(stat).collect()
    } else if n >= MIN_BLOCKS {
        (0..MIN_BLOCKS)
            .map(|b| stat(&op_ns[b * n / MIN_BLOCKS..(b + 1) * n / MIN_BLOCKS]))
            .collect()
    } else {
        vec![stat(op_ns)]
    };
    median(&per_block)
}

/// The end-to-end metrics every workload reports, from per-op wall times
/// in nanoseconds, the apps one op analyses, the set-up time, and the
/// peak heap growth over the workload's fixed work with the number of
/// windows it is the median of.
pub fn end_to_end(
    op_ns: &[f64],
    apps_per_op: f64,
    setup: SetupTime,
    (peak_heap_mib, heap_windows): (f64, usize),
) -> Vec<Metric> {
    let n = op_ns.len();
    vec![
        Metric {
            name: "p50_ms",
            value: blocked(op_ns, median) / 1e6,
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "p99_ms",
            value: blocked(op_ns, |xs| percentile(xs, 0.99)) / 1e6,
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "apps_per_s",
            value: blocked(op_ns, |xs| {
                apps_per_op * xs.len() as f64 * 1e9 / xs.iter().sum::<f64>()
            }),
            unit: "1/s",
            samples: n,
        },
        Metric {
            name: "setup_s",
            value: setup.median_s,
            unit: "s",
            samples: setup.samples,
        },
        Metric {
            name: "peak_heap_mib",
            value: peak_heap_mib,
            unit: "MiB",
            samples: heap_windows,
        },
    ]
}

/// Per-layer metrics in `BENCHMARK.json` order: `(name, unit, kind)`. A
/// workload reports 0 for a layer it never enters.
pub const PER_LAYER: [(&str, &str, LayerKind); 30] = [
    ("corpus.funnel_s", "s", LayerKind::SelfTime),
    ("corpus.generate_s", "s", LayerKind::SelfTime),
    ("static.pipeline_s", "s", LayerKind::SelfTime),
    ("static.aggregate_s", "s", LayerKind::SelfTime),
    ("dynamic.classify_s", "s", LayerKind::SelfTime),
    ("dynamic.iab_s", "s", LayerKind::SelfTime),
    ("dynamic.crawl_s", "s", LayerKind::SelfTime),
    ("report.render_s", "s", LayerKind::SelfTime),
    ("corpus.shard_open_s", "s", LayerKind::SelfTime),
    ("corpus.shard_bytes", "count", LayerKind::Count),
    ("apk.decode_s", "s", LayerKind::SelfTime),
    ("apk.dexes", "count", LayerKind::Count),
    ("apk.rejected", "count", LayerKind::Count),
    ("decompile.subclasses_s", "s", LayerKind::SelfTime),
    ("callgraph.build_s", "s", LayerKind::SelfTime),
    ("callgraph.edges", "count", LayerKind::Count),
    ("static.dataflow_s", "s", LayerKind::SelfTime),
    ("static.dataflow_iterations", "count", LayerKind::Count),
    ("callgraph.reach_record_s", "s", LayerKind::SelfTime),
    ("callgraph.edges_traversed", "count", LayerKind::Count),
    ("static.unattributed_s", "s", LayerKind::SelfTime),
    ("net.parse_s", "s", LayerKind::SelfTime),
    ("core.handler_s", "s", LayerKind::SelfTime),
    ("static.analyze_s", "s", LayerKind::SelfTime),
    ("core.json_s", "s", LayerKind::SelfTime),
    ("net.write_s", "s", LayerKind::SelfTime),
    ("net.transport_s", "s", LayerKind::SelfTime),
    ("net.shed", "count", LayerKind::Count),
    ("net.requests_per_conn", "count", LayerKind::Count),
    ("trace.overhead_pct", "%", LayerKind::Overhead),
];

/// How a per-layer metric is read off a [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Mean self seconds per traced op.
    SelfTime,
    /// Mean count per traced op.
    Count,
    /// Computed from the traced and untraced op times.
    Overhead,
}

/// Per-layer metrics from a traced run: self times and counts per op from
/// `ledger`, and the tracing overhead — the median traced op against the
/// median of the same ops run with recording off.
pub fn per_layer(ledger: &Ledger, untraced_ns: &[f64], traced_ns: &[f64]) -> Vec<Metric> {
    let ops = ledger.ops as usize;
    let groups = ledger.groups as usize;
    PER_LAYER
        .iter()
        .map(|&(name, unit, kind)| {
            let (value, samples) = match kind {
                LayerKind::SelfTime => (ledger.self_s_per_op(name), groups),
                LayerKind::Count => (ledger.count_per_op(name), ops),
                LayerKind::Overhead => (
                    (median(traced_ns) / median(untraced_ns) - 1.0) * 100.0,
                    untraced_ns.len() + traced_ns.len(),
                ),
            };
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect()
}

/// Overwrite the value of metric `name`.
pub fn set_metric(metrics: &mut [Metric], name: &str, value: f64, samples: usize) {
    let m = metrics
        .iter_mut()
        .find(|m| m.name == name)
        .expect("metric is listed in PER_LAYER");
    m.value = value;
    m.samples = samples;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_use_sorted_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn runs_report_the_median_block() {
        let setup = SetupTime {
            median_s: 1.0,
            samples: 1,
        };
        // Nine quiet blocks and one stalled one: the stall moves the
        // run-wide p99 but not the median block's.
        let mut ops = vec![1e5; 10 * BLOCK_OPS];
        ops[..BLOCK_OPS].fill(5e6);
        let metrics = end_to_end(&ops, 1.0, setup, (1.0, 1));
        assert_eq!(metrics[1].value, 0.1);
        assert_eq!(metrics[2].value, 1e4);
        assert_eq!(percentile(&ops, 0.99), 5e6);

        // A short run is cut into five blocks: one stalled op sets only
        // its own block's maximum.
        let mut ops = vec![2e8; 20];
        ops[3] = 9e8;
        assert_eq!(end_to_end(&ops, 1.0, setup, (1.0, 1))[1].value, 200.0);
        // Fewer ops than blocks: the whole run is one block.
        assert_eq!(end_to_end(&[1e6, 3e6], 1.0, setup, (1.0, 1))[1].value, 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(None);
        o.check(Some("wrong".into()));
        let setup = SetupTime {
            median_s: 0.5,
            samples: 3,
        };
        o.metrics = end_to_end(&[1e6, 2e6, 3e6], 10.0, setup, (12.0, 1));
        let json = o.to_json();
        assert!(json
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(
            json.contains("\"p50_ms\": {\"value\": 2.0, \"unit\": \"ms\"}"),
            "{json}"
        );
        assert!(
            json.contains("\"apps_per_s\": {\"value\": 5000.0, \"unit\": \"1/s\"}"),
            "{json}"
        );
    }
}

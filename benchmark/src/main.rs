//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! wla-e2e-bench --workload <study|corpus_scan|serve_analyze|all>
//!               --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up, measures for
//! `--seconds`, and checks every output against a reference. With
//! `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all` runs
//! the three workloads one after another, each in its own process, and
//! prints a summary table. See README.md in this directory for what each
//! workload and metric is for.

mod heap;
mod host;
mod measure;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["study", "corpus_scan", "serve_analyze"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wla-e2e-bench --workload <{}|all> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let fingerprint = host::Fingerprint::measure();
    println!("{}", fingerprint.render());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let ticks_before = host::cpu_ticks();
    let outcome = match args.workload.as_str() {
        "study" => workloads::study::run(args.seed, args.seconds, args.trace),
        "corpus_scan" => workloads::corpus_scan::run(args.seed, args.seconds, args.trace),
        "serve_analyze" => workloads::serve_analyze::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(outcome) => {
            // Time the hypervisor gave to other guests is the largest noise
            // source on shared hosts; say how much of it this run saw.
            if let (Some(before), Some(after)) = (ticks_before, host::cpu_ticks()) {
                println!(
                    "host: steal {:.1}% of CPU time during the run",
                    host::steal_pct(before, after)
                );
            }
            for line in outcome.report_lines() {
                println!("{line}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every workload in its own child process with the same flags, relay
/// their reports, and print one summary table.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut summary = Vec::new();
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                workload.to_owned()
            } else {
                value
            });
        }
        let out = match Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprintln!("error: {workload} exited with {}", out.status);
            all_ok = false;
            continue;
        }
        summary.push((workload, stdout.lines().last().unwrap_or("").to_owned()));
    }
    println!("\nsummary:");
    for (workload, json) in &summary {
        println!("  {workload}: {json}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

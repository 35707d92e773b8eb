//! Paper-scale workflow: persist a generated corpus as on-disk shards,
//! stream it through the analysis pipeline with memory-mapped reads,
//! print the run stats (including the shard-streaming table), then run
//! again to show the resume manifest skipping every shard.
//!
//! ```sh
//! cargo run --release --example streamed_corpus -- /tmp/wla-shards 500
//! ```

use whatcha_lookin_at::stats::render_pipeline_stats;
use whatcha_lookin_at::wla_static::StreamConfig;
use whatcha_lookin_at::Study;

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = std::path::PathBuf::from(args.next().unwrap_or_else(|| "/tmp/wla-shards".to_owned()));
    let scale: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);

    let study = Study::new(scale, 2024);
    println!(
        "streaming a 1:{scale} scale corpus ({} apps) from shards under {} …\n",
        146_800 / scale,
        dir.display()
    );

    let run = study
        .run_static_streamed(&dir, StreamConfig::default())
        .expect("streamed run");
    println!("{}", render_pipeline_stats(&run.stats));
    println!(
        "\napps using WebViews: {} — identical to Study::run_static at any worker count",
        run.results.webview_apps
    );

    // Same dir, same seed: the deterministic generator re-persists
    // byte-identical shards, so this run is served from the manifest.
    let resumed = study
        .run_static_streamed(&dir, StreamConfig::default())
        .expect("resumed run");
    println!(
        "\nrerun: {} shards re-analyzed, {} entries served from the resume manifest",
        resumed.stats.stream.shards_read, resumed.stats.stream.entries_cached
    );
    assert_eq!(resumed.results, run.results);
    println!("results identical — safe to interrupt and resume paper-scale runs");
}

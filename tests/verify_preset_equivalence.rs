//! Equivalence pins for the trusted-corpus decode fast path.
//!
//! The trusted decode preset (`None`) skips the checksum and structural
//! re-validation that `All` performs on the streaming read path. Skipping
//! checks must never change *what* a valid blob decodes to — only how
//! fast — so these tests pin, across both decoders: preset-identical
//! structures on valid generated blobs, with and without the optional
//! lookup-table section, and bit-identical streamed study results with
//! the preset and the lookup-table knob toggled, at several worker
//! counts. Trusted presets are only exercised on corpora
//! with `corrupt_fraction: 0.0` — on anything else `All` stays mandatory,
//! which `tests/robustness.rs` pins separately.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use whatcha_lookin_at::wla_apk::sdex::oracle;
use whatcha_lookin_at::wla_apk::{Dex, Sapk, SectionTag, VerifyPreset};
use whatcha_lookin_at::wla_corpus::ecosystem::{Ecosystem, EcosystemParams};
use whatcha_lookin_at::wla_corpus::lowering::lower;
use whatcha_lookin_at::wla_corpus::playstore::{AppMeta, PlayCategory};
use whatcha_lookin_at::wla_corpus::{write_sharded_corpus, CorpusConfig, Generator};
use whatcha_lookin_at::wla_sdk_index::SdkIndex;
use whatcha_lookin_at::wla_static::{
    aggregate, run_pipeline_streamed, AnalysisCtx, PipelineConfig, StreamConfig,
};

const PRESETS: [VerifyPreset; 2] = [VerifyPreset::All, VerifyPreset::None];

fn meta() -> AppMeta {
    AppMeta {
        package: "com.preset.app".into(),
        on_play_store: true,
        downloads: 2_000_000,
        category: PlayCategory::Tools,
        last_update_day: 850,
    }
}

/// The SDEX blobs of one generated app.
fn dex_blobs(seed: u64) -> Vec<Vec<u8>> {
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = eco.sample_app(&mut rng, meta());
    let bytes = lower(&spec, &catalog, &mut rng).encode();
    let apk = Sapk::decode(&bytes).expect("generated app decodes");
    apk.sections()
        .iter()
        .filter(|s| s.tag == SectionTag::Dex)
        .map(|s| s.data.to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On valid generated blobs every preset decodes the same structure,
    /// in both decoders, and the zero-copy decoder matches the owning
    /// oracle under each preset.
    #[test]
    fn presets_decode_valid_blobs_identically(seed in 0u64..16) {
        for (i, blob) in dex_blobs(seed).iter().enumerate() {
            let baseline = Dex::decode(blob).expect("valid blob under All");
            let oracle_baseline = oracle::decode(blob).expect("oracle under All");
            prop_assert!(baseline == oracle_baseline, "seed {seed} dex {i}");
            for preset in PRESETS {
                let fast = Dex::decode_bytes_with(blob.clone().into(), preset)
                    .unwrap_or_else(|e| panic!("seed {seed} dex {i} {preset:?}: {e}"));
                let slow = oracle::decode_with(blob, preset)
                    .unwrap_or_else(|e| panic!("seed {seed} dex {i} {preset:?} oracle: {e}"));
                prop_assert!(fast == baseline, "seed {seed} dex {i} {preset:?}: fast differs");
                prop_assert!(fast == slow, "seed {seed} dex {i} {preset:?}: decoders differ");
            }
        }
    }

    /// Lookup-table-less blobs (the flag cleared, as `use_lut = false`
    /// leaves them) decode to the same strings, types, and classes under
    /// every preset, in both decoders; name lookups work through the lazy
    /// probe table; and re-encoding round-trips byte for byte.
    #[test]
    fn lutless_blobs_decode_under_every_preset(seed in 0u64..12) {
        for (i, blob) in dex_blobs(seed).iter().enumerate() {
            let mut full = Dex::decode(blob).expect("valid blob");
            full.discard_lookup_table();
            let lutless = full.encode();
            for preset in PRESETS {
                let dex = Dex::decode_bytes_with(lutless.clone(), preset)
                    .unwrap_or_else(|e| panic!("seed {seed} dex {i} {preset:?}: {e}"));
                let slow = oracle::decode_with(&lutless, preset)
                    .unwrap_or_else(|e| panic!("seed {seed} dex {i} {preset:?} oracle: {e}"));
                prop_assert!(dex == slow, "seed {seed} dex {i} {preset:?}");
                prop_assert!(dex == full, "seed {seed} dex {i} {preset:?}: content");
                prop_assert!(!dex.has_lookup_table());
                for class in full.classes() {
                    let name = full.type_name(class.ty);
                    prop_assert!(dex.class_by_name(name).is_some(), "lookup of {}", name);
                }
                prop_assert!(dex.lookup_table_rebuilt(), "lazy probe table built");
                prop_assert_eq!(&dex.encode()[..], &lutless[..]);
            }
        }
    }
}

/// Full verification must stay the default at every layer — decoder,
/// worker context, and pipeline config. The corruption suites
/// (`tests/robustness.rs`, `tests/decode_equivalence.rs`) exercise their
/// decoders through these defaults, so this pin is what makes them cover
/// the shipping configuration; `ci.sh` runs it alongside those suites as
/// an explicit gate.
#[test]
fn full_verification_is_the_default_everywhere() {
    assert_eq!(VerifyPreset::default(), VerifyPreset::All);
    let config = PipelineConfig::default();
    assert_eq!(config.verify_preset, VerifyPreset::All);
    assert!(config.use_lut);
    let catalog = SdkIndex::paper();
    let ctx = AnalysisCtx::new(&catalog);
    assert_eq!(ctx.verify_preset, VerifyPreset::All);
    assert!(ctx.use_lut);
}

/// Streamed study results are bit-identical with the fast path fully on
/// (trusted preset + lookup tables) and fully off (full verify, luts
/// discarded, binary-search vtables), across worker counts — on a corpus
/// with no planted corruption, where the trusted preset is sound.
#[test]
fn streamed_results_identical_across_presets_and_lut() {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 4_000,
        seed: 77,
        corrupt_fraction: 0.0,
        ..CorpusConfig::default()
    };
    let apps = Generator::new(&catalog, cfg).generate();
    let dir = std::env::temp_dir().join(format!("wla-preset-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_sharded_corpus(&dir, &apps, 4).unwrap();

    let run = |workers: usize, preset: VerifyPreset, use_lut: bool| {
        let config = StreamConfig {
            pipeline: PipelineConfig {
                workers,
                verify_preset: preset,
                use_lut,
                ..PipelineConfig::default()
            },
            resume: false, // a cached result would short-circuit the ablation
            ..StreamConfig::default()
        };
        run_pipeline_streamed(&dir, &catalog, config).unwrap()
    };

    let baseline = run(1, VerifyPreset::All, true);
    assert_eq!(baseline.broken_count(), 0, "corpus has no corruption");
    let baseline_agg = aggregate(&baseline, &catalog, 1);
    for workers in [1usize, 3, 8] {
        for (preset, use_lut) in [
            (VerifyPreset::All, false),
            (VerifyPreset::None, true),
            (VerifyPreset::None, false),
        ] {
            let out = run(workers, preset, use_lut);
            assert_eq!(out.results.len(), baseline.results.len());
            for (i, (a, b)) in out.results.iter().zip(&baseline.results).enumerate() {
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x, y, "app {i}, workers {workers}, {preset:?}/lut={use_lut}")
                    }
                    other => panic!("app {i}: outcome mismatch {other:?}"),
                }
            }
            assert_eq!(out.interner.len(), baseline.interner.len());
            assert_eq!(aggregate(&out, &catalog, 1), baseline_agg);
            // The decode counters reflect the configured preset.
            let d = &out.stats.decode;
            match preset {
                VerifyPreset::All => {
                    assert_eq!(d.trusted, 0);
                    assert!(d.full > 0);
                }
                VerifyPreset::None => {
                    assert_eq!(d.full, 0);
                    assert!(d.trusted > 0);
                }
            }
            if use_lut {
                assert_eq!(
                    d.lut_present,
                    d.total(),
                    "every generated dex carries a lut"
                );
                assert_eq!(d.lut_rebuilds, 0);
            } else {
                assert_eq!(d.lut_present, 0, "ablation discards stored luts");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

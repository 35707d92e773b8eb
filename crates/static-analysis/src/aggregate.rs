//! Corpus-level aggregation: everything Tables 3/4/5/7 and Figures 3/4
//! report, computed from per-app analyses plus the SDK index.
//!
//! The hot loop runs entirely on the interned IR: methods are counted by
//! their record-time [`WEBVIEW_CONTENT_METHODS`] index, packages by their
//! record-time [`LabelId`], and SDKs by catalog index into flat arrays.
//! No symbol is resolved and no `String` is hashed anywhere in here —
//! the only strings the result owns are display names copied at the very
//! end (method names, SDK names).
//!
//! [`WEBVIEW_CONTENT_METHODS`]: wla_apk::names::WEBVIEW_CONTENT_METHODS

use crate::analyze::AppAnalysis;
use crate::pipeline::PipelineOutput;
use std::collections::{BTreeMap, HashSet};
use wla_callgraph::UrlOrigin;
use wla_corpus::playstore::PlayCategory;
use wla_corpus::METHODS;
use wla_intern::U32BuildHasher;
use wla_sdk_index::{LabelId, SdkCategory, SdkIndex};

/// Number of SDK categories (Table 3 rows).
const NCAT: usize = SdkCategory::ALL.len();

/// Per-SDK usage counts (Tables 4 and 5 rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdkUsageRow {
    /// SDK display name.
    pub name: String,
    /// SDK category.
    pub category: SdkCategory,
    /// Apps observed calling a WebView load method from this SDK's package.
    pub wv_apps: usize,
    /// Apps observed calling `launchUrl` from this SDK's package.
    pub ct_apps: usize,
}

/// Per-category SDK counts (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdkTypeCount {
    /// SDK category.
    pub category: SdkCategory,
    /// SDKs observed using WebViews (≥ threshold apps).
    pub webview: usize,
    /// SDKs observed using CTs.
    pub custom_tabs: usize,
    /// SDKs observed using both.
    pub both: usize,
}

/// One Table 7 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodCensusRow {
    /// Method name.
    pub method: String,
    /// Apps with a reachable third-party call to this method.
    pub apps: usize,
    /// Of those, apps where the call comes from a labeled SDK package.
    pub apps_via_top_sdks: usize,
}

/// One Figure 4 heatmap row: P(method | app uses SDKs of this category).
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapRow {
    /// SDK category.
    pub category: SdkCategory,
    /// Apps using WebView SDKs of this category (denominator).
    pub apps: usize,
    /// Per-method fraction, aligned with [`METHODS`].
    pub method_fraction: [f64; 7],
}

/// One Figure 3 bar: apps per (Play category × SDK category).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryBreakdown {
    /// Play category.
    pub play_category: PlayCategory,
    /// Total apps of this Play category using the mechanism via SDKs.
    pub total: usize,
    /// Apps per SDK category.
    pub by_sdk_category: Vec<(SdkCategory, usize)>,
}

/// §3.1.4 URL-origin census: of the third-party URL-bearing call sites
/// (WebView *load* methods and CT `launchUrl`), how many did constant
/// propagation resolve to a single URL constant, and how many apps are
/// fully accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UrlOriginCensus {
    /// Sites whose URL argument resolved to one string constant.
    pub resolved_sites: usize,
    /// Sites whose URL argument never resolved to a constant.
    pub unknown_sites: usize,
    /// Sites where distinct constants merge on different paths.
    pub conflict_sites: usize,
    /// Apps with ≥ 1 URL-bearing site, all of them resolved.
    pub apps_fully_resolved: usize,
    /// Apps with ≥ 1 unresolved (unknown or conflicting) site.
    pub apps_with_unresolved: usize,
}

impl UrlOriginCensus {
    /// URL-bearing sites classified.
    pub fn total_sites(&self) -> usize {
        self.resolved_sites + self.unknown_sites + self.conflict_sites
    }

    /// Fraction of URL-bearing sites resolved to a constant.
    pub fn resolved_rate(&self) -> f64 {
        let total = self.total_sites();
        if total == 0 {
            return 0.0;
        }
        self.resolved_sites as f64 / total as f64
    }
}

/// Everything the static study measures.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResults {
    /// Apps whose containers decoded and analyzed.
    pub analyzed: usize,
    /// Broken containers.
    pub broken: usize,
    /// Apps using WebViews (third-party-capable sites only).
    pub webview_apps: usize,
    /// Apps using Custom Tabs.
    pub ct_apps: usize,
    /// Apps using both.
    pub both_apps: usize,
    /// WebView apps whose load methods are called from labeled SDKs.
    pub webview_apps_via_top_sdks: usize,
    /// CT apps whose `launchUrl` is called from labeled SDKs.
    pub ct_apps_via_top_sdks: usize,
    /// Apps using both, both via labeled SDKs.
    pub both_apps_via_top_sdks: usize,
    /// Table 7 per-method rows, in [`METHODS`] order.
    pub method_census: Vec<MethodCensusRow>,
    /// Per-SDK usage rows, sorted by total usage descending.
    pub sdk_usage: Vec<SdkUsageRow>,
    /// Table 3 rows (SDKs observed with ≥ `top_sdk_threshold` apps).
    pub sdk_type_counts: Vec<SdkTypeCount>,
    /// Figure 4 heatmap rows.
    pub heatmap: Vec<HeatmapRow>,
    /// Figure 3, WebView panel (top-10 Play categories).
    pub category_webview: Vec<CategoryBreakdown>,
    /// Figure 3, CT panel.
    pub category_ct: Vec<CategoryBreakdown>,
    /// Apps with load-method calls from obfuscated packages.
    pub obfuscated_caller_apps: usize,
    /// Apps with load-method calls from unlabeled packages.
    pub unlabeled_caller_apps: usize,
    /// Custom `extends WebView` classes found across the corpus.
    pub custom_webview_classes: usize,
    /// Unreachable WebView sites discarded by traversal (ablation metric).
    pub unreachable_sites_discarded: usize,
    /// Ablation: WebView-app count if deep-link (first-party) activities
    /// were *not* excluded — the §3.1.3 filter's effect.
    pub webview_apps_without_deeplink_exclusion: usize,
    /// Ablation: WebView-app count if unreachable (dead-code) sites were
    /// counted — what a whole-graph scan without entry-point traversal
    /// would report.
    pub webview_apps_without_reachability: usize,
    /// §3.1.4 resolved-vs-unknown URL-origin census over third-party
    /// URL-bearing sites.
    pub url_origin_census: UrlOriginCensus,
}

/// Aggregate pipeline output. `top_sdk_threshold` is the minimum number of
/// observed apps for an SDK to appear in the per-SDK usage rows. The
/// paper's >100-apps popularity criterion is already encoded in the
/// catalog (every entry is a package the paper found in >100 apps), so the
/// usual threshold is 1; rare SDKs simply may not be sampled at high scale
/// divisors — EXPERIMENTS.md quantifies this.
pub fn aggregate(
    output: &PipelineOutput,
    catalog: &SdkIndex,
    top_sdk_threshold: usize,
) -> StudyResults {
    let analyses: Vec<&AppAnalysis> = output.analyzed().collect();
    let n_sdks = catalog.sdks().len();

    // Per-SDK app counts, indexed by catalog position.
    let mut sdk_wv_apps: Vec<usize> = vec![0; n_sdks];
    let mut sdk_ct_apps: Vec<usize> = vec![0; n_sdks];

    let mut webview_apps = 0usize;
    let mut ct_apps = 0usize;
    let mut both_apps = 0usize;
    let mut wv_via = 0usize;
    let mut ct_via = 0usize;
    let mut both_via = 0usize;
    let mut obfuscated_caller_apps = 0usize;
    let mut unlabeled_caller_apps = 0usize;
    let mut custom_webview_classes = 0usize;
    let mut unreachable = 0usize;

    let mut method_apps = [0usize; 7];
    let mut method_via = [0usize; 7];

    // Figure 4 accumulators, indexed by `SdkCategory::table3_index`:
    // per SDK category, apps using it (wv) and per method, apps where
    // that category's SDK code calls the method.
    let mut cat_apps = [0usize; NCAT];
    let mut cat_method_apps = [[0usize; 7]; NCAT];

    // Figure 3 accumulators: Play category → per-SDK-category app counts.
    let mut play_wv: BTreeMap<PlayCategory, [usize; NCAT]> = BTreeMap::new();
    let mut play_ct: BTreeMap<PlayCategory, [usize; NCAT]> = BTreeMap::new();

    // Per-app scratch, reused across the corpus (cleared, not realloc'd).
    let mut app_wv_sdks: HashSet<u32, U32BuildHasher> = HashSet::default();
    let mut app_ct_sdks: HashSet<u32, U32BuildHasher> = HashSet::default();

    let mut wv_no_deeplink_excl = 0usize;
    let mut wv_no_reach = 0usize;
    let mut census = UrlOriginCensus::default();
    for a in &analyses {
        custom_webview_classes += a.custom_webview_classes.len();
        unreachable += a.unreachable_webview_sites;
        // Ablation counters: what naive pipelines would have reported.
        if !a.webview_sites.is_empty() {
            wv_no_deeplink_excl += 1;
        }
        if !a.webview_sites.is_empty() || a.unreachable_webview_sites > 0 {
            wv_no_reach += 1;
        }
        let uses_wv = a.uses_webview();
        let uses_ct = a.uses_custom_tabs();
        if uses_wv {
            webview_apps += 1;
        }
        if uses_ct {
            ct_apps += 1;
        }
        if uses_wv && uses_ct {
            both_apps += 1;
        }

        // Record-time labels: no trie walks, no package strings here.
        app_wv_sdks.clear();
        app_ct_sdks.clear();
        let mut app_obfuscated = false;
        let mut app_unlabeled = false;
        // Methods called, and methods called from any labeled SDK package.
        let mut methods = [false; 7];
        let mut methods_sdk = [false; 7];
        // Per SDK category, methods called from that category's packages.
        let mut methods_by_cat = [[false; 7]; NCAT];
        // URL-origin census over this app's URL-bearing sites.
        let mut app_url_sites = 0usize;
        let mut app_unresolved = 0usize;
        let mut tally_origin = |census: &mut UrlOriginCensus, origin: UrlOrigin| {
            app_url_sites += 1;
            match origin {
                UrlOrigin::Resolved => census.resolved_sites += 1,
                UrlOrigin::Unknown => {
                    census.unknown_sites += 1;
                    app_unresolved += 1;
                }
                UrlOrigin::Conflict => {
                    census.conflict_sites += 1;
                    app_unresolved += 1;
                }
            }
        };

        for site in a.third_party_webview() {
            let mi = site.method_idx as usize;
            methods[mi] = true;
            if site.is_load_method {
                tally_origin(&mut census, site.origin);
            }
            match site.label {
                LabelId::Sdk(idx) => {
                    methods_sdk[mi] = true;
                    let cat = catalog.sdks()[idx as usize].category;
                    methods_by_cat[cat.table3_index()][mi] = true;
                    if site.is_load_method {
                        app_wv_sdks.insert(idx);
                    }
                }
                LabelId::Obfuscated if site.is_load_method => app_obfuscated = true,
                LabelId::Unlabeled if site.is_load_method => app_unlabeled = true,
                _ => {}
            }
        }
        for site in a.third_party_ct() {
            if !site.is_launch {
                continue;
            }
            tally_origin(&mut census, site.origin);
            if let LabelId::Sdk(idx) = site.label {
                app_ct_sdks.insert(idx);
            }
        }
        if app_url_sites > 0 {
            if app_unresolved == 0 {
                census.apps_fully_resolved += 1;
            } else {
                census.apps_with_unresolved += 1;
            }
        }

        for (i, &m) in methods.iter().enumerate() {
            if m {
                method_apps[i] += 1;
            }
            if methods_sdk[i] {
                method_via[i] += 1;
            }
        }
        for &idx in &app_wv_sdks {
            sdk_wv_apps[idx as usize] += 1;
        }
        for &idx in &app_ct_sdks {
            sdk_ct_apps[idx as usize] += 1;
        }
        if app_obfuscated {
            obfuscated_caller_apps += 1;
        }
        if app_unlabeled {
            unlabeled_caller_apps += 1;
        }

        let wv_sdk = !app_wv_sdks.is_empty();
        let ct_sdk = !app_ct_sdks.is_empty();
        if uses_wv && wv_sdk {
            wv_via += 1;
        }
        if uses_ct && ct_sdk {
            ct_via += 1;
        }
        if uses_wv && uses_ct && wv_sdk && ct_sdk {
            both_via += 1;
        }

        // Figure 4: categories of this app's load-method SDK callers.
        let mut app_cats = [false; NCAT];
        for &idx in &app_wv_sdks {
            app_cats[catalog.sdks()[idx as usize].category.table3_index()] = true;
        }
        for (t3, &used) in app_cats.iter().enumerate() {
            if !used {
                continue;
            }
            cat_apps[t3] += 1;
            for (i, &hit) in methods_by_cat[t3].iter().enumerate() {
                if hit {
                    cat_method_apps[t3][i] += 1;
                }
            }
        }

        // Figure 3.
        if app_cats.iter().any(|&u| u) {
            let row = play_wv.entry(a.meta.category).or_insert([0; NCAT]);
            for (t3, &used) in app_cats.iter().enumerate() {
                if used {
                    row[t3] += 1;
                }
            }
        }
        let mut ct_cats = [false; NCAT];
        for &idx in &app_ct_sdks {
            ct_cats[catalog.sdks()[idx as usize].category.table3_index()] = true;
        }
        if ct_cats.iter().any(|&u| u) {
            let row = play_ct.entry(a.meta.category).or_insert([0; NCAT]);
            for (t3, &used) in ct_cats.iter().enumerate() {
                if used {
                    row[t3] += 1;
                }
            }
        }
    }

    // Per-SDK usage rows above the popularity threshold. Display names are
    // copied here, at the report boundary.
    let mut sdk_usage: Vec<SdkUsageRow> = catalog
        .sdks()
        .iter()
        .enumerate()
        .filter_map(|(i, sdk)| {
            let wv = sdk_wv_apps[i];
            let ct = sdk_ct_apps[i];
            if wv.max(ct) >= top_sdk_threshold.max(1) && !sdk.obfuscated {
                Some(SdkUsageRow {
                    name: sdk.name.clone(),
                    category: sdk.category,
                    wv_apps: wv,
                    ct_apps: ct,
                })
            } else {
                None
            }
        })
        .collect();
    sdk_usage.sort_by_key(|r| std::cmp::Reverse(r.wv_apps + r.ct_apps));

    // Table 3 counts.
    let sdk_type_counts = SdkCategory::ALL
        .iter()
        .map(|&category| {
            let of_cat: Vec<&SdkUsageRow> = sdk_usage
                .iter()
                .filter(|r| r.category == category)
                .collect();
            SdkTypeCount {
                category,
                webview: of_cat
                    .iter()
                    .filter(|r| r.wv_apps >= top_sdk_threshold)
                    .count(),
                custom_tabs: of_cat
                    .iter()
                    .filter(|r| r.ct_apps >= top_sdk_threshold)
                    .count(),
                both: of_cat
                    .iter()
                    .filter(|r| r.wv_apps >= top_sdk_threshold && r.ct_apps >= top_sdk_threshold)
                    .count(),
            }
        })
        .collect();

    // Figure 4 rows, in `SdkCategory` order (the order keyed maps used to
    // produce) — only categories with observed apps appear.
    let mut heatmap: Vec<HeatmapRow> = SdkCategory::ALL
        .iter()
        .filter(|c| cat_apps[c.table3_index()] > 0)
        .map(|&category| {
            let t3 = category.table3_index();
            let apps = cat_apps[t3];
            let mut frac = [0f64; 7];
            for i in 0..7 {
                frac[i] = cat_method_apps[t3][i] as f64 / apps as f64;
            }
            HeatmapRow {
                category,
                apps,
                method_fraction: frac,
            }
        })
        .collect();
    heatmap.sort_by_key(|r| r.category);

    // Figure 3 top-10 panels.
    let top10 = |map: BTreeMap<PlayCategory, [usize; NCAT]>| {
        let mut rows: Vec<CategoryBreakdown> = map
            .into_iter()
            .map(|(play_category, by)| {
                let mut by_sdk_category: Vec<(SdkCategory, usize)> = SdkCategory::ALL
                    .iter()
                    .filter_map(|&c| {
                        let count = by[c.table3_index()];
                        (count > 0).then_some((c, count))
                    })
                    .collect();
                by_sdk_category.sort_by_key(|&(c, _)| c);
                CategoryBreakdown {
                    play_category,
                    total: by_sdk_category.iter().map(|&(_, n)| n).sum(),
                    by_sdk_category,
                }
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total));
        rows.truncate(10);
        rows
    };

    let method_census = METHODS
        .iter()
        .enumerate()
        .map(|(i, m)| MethodCensusRow {
            method: (*m).to_owned(),
            apps: method_apps[i],
            apps_via_top_sdks: method_via[i],
        })
        .collect();

    StudyResults {
        analyzed: analyses.len(),
        broken: output.broken_count(),
        webview_apps,
        ct_apps,
        both_apps,
        webview_apps_via_top_sdks: wv_via,
        ct_apps_via_top_sdks: ct_via,
        both_apps_via_top_sdks: both_via,
        method_census,
        sdk_usage,
        sdk_type_counts,
        heatmap,
        category_webview: top10(play_wv),
        category_ct: top10(play_ct),
        obfuscated_caller_apps,
        unlabeled_caller_apps,
        custom_webview_classes,
        unreachable_sites_discarded: unreachable,
        webview_apps_without_deeplink_exclusion: wv_no_deeplink_excl,
        webview_apps_without_reachability: wv_no_reach,
        url_origin_census: census,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, CorpusInput, PipelineConfig};
    use wla_corpus::{CorpusConfig, Generator};

    fn study(scale: u32, seed: u64) -> (StudyResults, Vec<wla_corpus::GeneratedApp>) {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale,
            seed,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let inputs: Vec<CorpusInput> = apps
            .iter()
            .map(|g| CorpusInput {
                meta: g.spec.meta.clone(),
                bytes: g.bytes.clone(),
            })
            .collect();
        let out = run_pipeline(&inputs, &catalog, PipelineConfig::default());
        let threshold = (100 / scale as usize).max(1);
        (aggregate(&out, &catalog, threshold), apps)
    }

    #[test]
    fn recovered_totals_match_ground_truth_exactly() {
        let catalog = SdkIndex::paper();
        let (results, apps) = study(400, 21);
        let truth_wv = apps
            .iter()
            .filter(|g| !g.corrupted && g.spec.uses_webview(&catalog))
            .count();
        let truth_ct = apps
            .iter()
            .filter(|g| !g.corrupted && g.spec.uses_custom_tabs())
            .count();
        assert_eq!(results.webview_apps, truth_wv);
        assert_eq!(results.ct_apps, truth_ct);
        assert_eq!(results.analyzed + results.broken, apps.len());
    }

    #[test]
    fn shares_match_paper_shape_at_scale() {
        let (results, _) = study(100, 77);
        let n = results.analyzed as f64;
        let wv = results.webview_apps as f64 / n;
        let ct = results.ct_apps as f64 / n;
        let both = results.both_apps as f64 / n;
        assert!((wv - 0.557).abs() < 0.05, "wv {wv}");
        assert!((ct - 0.199).abs() < 0.05, "ct {ct}");
        assert!((both - 0.15).abs() < 0.05, "both {both}");
        // loadUrl dominates the method census (Table 7's ordering).
        let census = &results.method_census;
        assert_eq!(census[0].method, "loadUrl");
        assert!(census[0].apps > census[1].apps);
        // Advertising SDKs dominate WebView usage; social dominates CT.
        let ads = results
            .sdk_usage
            .iter()
            .filter(|r| r.category == SdkCategory::Advertising)
            .map(|r| r.wv_apps)
            .max()
            .unwrap_or(0);
        assert!(ads > 0);
        let fb = results
            .sdk_usage
            .iter()
            .find(|r| r.name == "Facebook")
            .map(|r| r.ct_apps)
            .unwrap_or(0);
        assert!(
            fb as f64 / results.ct_apps as f64 > 0.5,
            "facebook {fb} of {}",
            results.ct_apps
        );
    }

    #[test]
    fn heatmap_user_support_loads_local_data() {
        let (results, _) = study(200, 5);
        if let Some(row) = results
            .heatmap
            .iter()
            .find(|r| r.category == SdkCategory::UserSupport)
        {
            // Figure 4 / §4.1.5: all user-support apps call
            // loadDataWithBaseURL (index 2).
            assert!(row.method_fraction[2] > 0.99, "{:?}", row.method_fraction);
        }
    }

    #[test]
    fn figure3_panels_have_at_most_ten_rows() {
        let (results, _) = study(200, 6);
        assert!(results.category_webview.len() <= 10);
        assert!(results.category_ct.len() <= 10);
        assert!(!results.category_webview.is_empty());
    }

    #[test]
    fn url_census_fully_resolves_generated_corpus() {
        // The lowering register-shuffles every URL call, but the argument
        // register always carries exactly one constant on every path, so
        // the dataflow pass must resolve 100% of URL-bearing sites.
        let (results, _) = study(200, 13);
        let c = results.url_origin_census;
        assert!(c.resolved_sites > 0);
        assert_eq!(c.unknown_sites, 0);
        assert_eq!(c.conflict_sites, 0);
        assert!(c.apps_fully_resolved > 0);
        assert_eq!(c.apps_with_unresolved, 0);
        assert_eq!(c.resolved_rate(), 1.0);
    }

    #[test]
    fn dead_sites_are_counted_as_discarded() {
        let (results, apps) = study(400, 8);
        let truth: usize = apps
            .iter()
            .filter(|g| !g.corrupted && g.spec.dead_code_webview)
            .count();
        assert_eq!(results.unreachable_sites_discarded, truth);
    }
}

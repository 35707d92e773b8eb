//! Per-experiment builders: one function per table/figure of the paper.
//!
//! Each returns an [`Experiment`]: the reproduced artifact (table and/or
//! rendered figure blocks) plus a paper-vs-measured [`Comparison`]. The
//! `exp_*` binaries in `wla-bench` are thin wrappers over these, and
//! EXPERIMENTS.md is generated from their output.

use crate::paper;
use crate::stats::render_url_origin_census;
use crate::study::{CrawlRun, DynamicRun, FunnelRun, StaticRun, Study};
use wla_corpus::ecosystem::named_top_apps;
use wla_crawler::loadtime::{figure7_series, LoadContext, LoadMode};
use wla_crawler::EndpointKind;
use wla_report::{bar_chart, heatmap, percent, thousands, Comparison, Series, Table};
use wla_sdk_index::SdkCategory;

/// One reproduced experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Experiment id (`table2` … `fig7`).
    pub id: &'static str,
    /// The reproduced table (may be empty for pure figures).
    pub table: Table,
    /// Paper-vs-measured comparison.
    pub comparison: Comparison,
    /// Rendered figure blocks (bar charts, heatmaps, CSV).
    pub figures: Vec<String>,
}

/// Table 2 — dataset funnel.
pub fn table2(study: &Study, funnel: &FunnelRun) -> Experiment {
    let mut t = Table::new(
        "Table 2: Statistics for apps that we statically analyze",
        &["Dataset", "No. of apps"],
    );
    t.row_owned(vec![
        "Play Store apps in Androzoo".into(),
        thousands(funnel.total),
    ]);
    t.row_owned(vec![
        "Apps found on Play Store".into(),
        thousands(funnel.found),
    ]);
    t.row_owned(vec![
        "Apps with 100k+ downloads".into(),
        thousands(funnel.popular),
    ]);
    t.row_owned(vec![
        "… and updated after 2021".into(),
        thousands(funnel.maintained),
    ]);
    t.row_owned(vec![
        format!("Apps successfully analyzed (rescaled ×{})", study.scale),
        thousands(funnel.analyzed_rescaled),
    ]);

    let mut c = Comparison::new("table2");
    c.tolerance = 0.05;
    c.add(
        "AndroZoo apps",
        paper::table2::ANDROZOO as f64,
        funnel.total as f64,
    );
    c.add(
        "Found on Play",
        paper::table2::FOUND as f64,
        funnel.found as f64,
    );
    c.add(
        "100K+ downloads",
        paper::table2::POPULAR as f64,
        funnel.popular as f64,
    );
    c.add(
        "Updated after 2021",
        paper::table2::MAINTAINED as f64,
        funnel.maintained as f64,
    );
    c.add(
        "Successfully analyzed",
        paper::table2::ANALYZED as f64,
        funnel.analyzed_rescaled as f64,
    );
    Experiment {
        id: "table2",
        table: t,
        comparison: c,
        figures: vec![],
    }
}

/// Table 3 — SDK counts by category × mechanism.
pub fn table3(_study: &Study, run: &StaticRun) -> Experiment {
    let mut t = Table::new(
        "Table 3: Statistics for use of WebViews and CTs in SDKs",
        &["Type of SDK", "Use WebViews", "Use CT", "Use both"],
    );
    let mut c = Comparison::new("table3");
    c.tolerance = 0.30;
    let (mut wv_total, mut ct_total, mut both_total) = (0u32, 0u32, 0u32);
    for &(label, p_wv, p_ct, p_both) in &paper::TABLE3 {
        let measured = run
            .results
            .sdk_type_counts
            .iter()
            .find(|r| r.category.label() == label);
        let (m_wv, m_ct, m_both) = measured
            .map(|r| (r.webview as u32, r.custom_tabs as u32, r.both as u32))
            .unwrap_or((0, 0, 0));
        wv_total += m_wv;
        ct_total += m_ct;
        both_total += m_both;
        t.row_owned(vec![
            label.into(),
            m_wv.to_string(),
            m_ct.to_string(),
            m_both.to_string(),
        ]);
        if p_wv >= 4 {
            c.add(format!("{label} (WebView SDKs)"), p_wv as f64, m_wv as f64);
        }
        if p_ct >= 4 {
            c.add(format!("{label} (CT SDKs)"), p_ct as f64, m_ct as f64);
        }
        let _ = p_both;
    }
    t.row_owned(vec![
        "Total".into(),
        wv_total.to_string(),
        ct_total.to_string(),
        both_total.to_string(),
    ]);
    c.add(
        "Total WebView SDKs",
        paper::TABLE3_TOTALS.0 as f64,
        wv_total as f64,
    );
    c.add(
        "Total CT SDKs",
        paper::TABLE3_TOTALS.1 as f64,
        ct_total as f64,
    );
    c.add(
        "Total both",
        paper::TABLE3_TOTALS.2 as f64,
        both_total as f64,
    );
    Experiment {
        id: "table3",
        table: t,
        comparison: c,
        figures: vec![],
    }
}

fn sdk_table(
    id: &'static str,
    title: &str,
    study: &Study,
    run: &StaticRun,
    custom_tabs: bool,
    paper_rows: &[(&str, u32)],
) -> Experiment {
    let count_of = |r: &wla_static::SdkUsageRow| if custom_tabs { r.ct_apps } else { r.wv_apps };
    let mut t = Table::new(title, &["Type of SDK", "SDK Name", "#apps (rescaled)"]);
    for cat in SdkCategory::ALL {
        let mut rows: Vec<&wla_static::SdkUsageRow> = run
            .results
            .sdk_usage
            .iter()
            .filter(|r| r.category == cat && count_of(r) > 0)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(count_of(r)));
        for (i, r) in rows.iter().take(3).enumerate() {
            t.row_owned(vec![
                if i == 0 {
                    cat.label().into()
                } else {
                    String::new()
                },
                r.name.clone(),
                thousands(study.rescale(count_of(r))),
            ]);
        }
    }
    let mut c = Comparison::new(id);
    c.tolerance = 0.35;
    for &(name, p_apps) in paper_rows {
        // Only compare SDKs big enough to survive the scale factor.
        if (p_apps as u64) < 50 * study.scale as u64 {
            continue;
        }
        let measured = run
            .results
            .sdk_usage
            .iter()
            .find(|r| r.name == name)
            .map(|r| study.rescale(count_of(r)))
            .unwrap_or(0);
        c.add(name, p_apps as f64, measured as f64);
    }
    Experiment {
        id,
        table: t,
        comparison: c,
        figures: vec![],
    }
}

/// Table 4 — popular SDKs using WebViews.
pub fn table4(study: &Study, run: &StaticRun) -> Experiment {
    sdk_table(
        "table4",
        "Table 4: Popular SDKs which use WebViews",
        study,
        run,
        false,
        &paper::TABLE4_TOP,
    )
}

/// Table 5 — popular SDKs using CTs.
pub fn table5(study: &Study, run: &StaticRun) -> Experiment {
    sdk_table(
        "table5",
        "Table 5: Popular SDKs which use CTs",
        study,
        run,
        true,
        &paper::TABLE5_TOP,
    )
}

/// Table 6 — top-1K hyperlink-click classification.
pub fn table6(run: &DynamicRun) -> Experiment {
    let counts = &run.table6;
    let mut t = Table::new(
        "Table 6: Manual classification of hyperlink clicking behavior in the top 1K apps",
        &["Classification of apps", "#apps"],
    );
    let rows: &[(&str, usize)] = &[
        ("Users can post links.", counts.can_post_links),
        ("  Link opens in browser.", counts.opens_browser),
        ("  Link opens in a WebView.", counts.opens_webview),
        ("  Link opens in CT.", counts.opens_ct),
        ("Users can not post links.", counts.no_user_links),
        ("Browser Apps.", counts.browser_apps),
        ("Could not classify app.", counts.unclassifiable),
        ("  Required a phone number.", counts.required_phone),
        ("  App incompatibility error.", counts.incompatible),
        ("  Required paid account.", counts.required_paid),
    ];
    for (label, n) in rows {
        t.row_owned(vec![(*label).into(), n.to_string()]);
    }
    let mut c = Comparison::new("table6");
    c.tolerance = 0.0; // the classification must be exact
    c.add(
        "Can post links",
        paper::table6::CAN_POST as f64,
        counts.can_post_links as f64,
    );
    c.add(
        "Opens in browser",
        paper::table6::BROWSER as f64,
        counts.opens_browser as f64,
    );
    c.add(
        "Opens in WebView",
        paper::table6::WEBVIEW as f64,
        counts.opens_webview as f64,
    );
    c.add(
        "Opens in CT",
        paper::table6::CT as f64,
        counts.opens_ct as f64,
    );
    c.add(
        "No user links",
        paper::table6::NO_UGC as f64,
        counts.no_user_links as f64,
    );
    c.add(
        "Browser apps",
        paper::table6::BROWSER_APPS as f64,
        counts.browser_apps as f64,
    );
    c.add(
        "Unclassifiable",
        paper::table6::UNCLASSIFIED as f64,
        counts.unclassifiable as f64,
    );
    Experiment {
        id: "table6",
        table: t,
        comparison: c,
        figures: vec![],
    }
}

/// Table 7 — apps using WebViews/CTs with the per-method census.
pub fn table7(study: &Study, run: &StaticRun) -> Experiment {
    let r = &run.results;
    let mut t = Table::new(
        "Table 7: Statistics of the apps using WebViews and CTs (rescaled)",
        &["Dataset", "Total #apps", "#apps using top SDKs"],
    );
    t.row_owned(vec![
        "Apps using WebViews".into(),
        thousands(study.rescale(r.webview_apps)),
        thousands(study.rescale(r.webview_apps_via_top_sdks)),
    ]);
    for row in &r.method_census {
        t.row_owned(vec![
            format!("  {}", row.method),
            thousands(study.rescale(row.apps)),
            thousands(study.rescale(row.apps_via_top_sdks)),
        ]);
    }
    t.row_owned(vec![
        "Apps using CTs".into(),
        thousands(study.rescale(r.ct_apps)),
        thousands(study.rescale(r.ct_apps_via_top_sdks)),
    ]);
    t.row_owned(vec![
        "Apps using both WebViews and CTs".into(),
        thousands(study.rescale(r.both_apps)),
        thousands(study.rescale(r.both_apps_via_top_sdks)),
    ]);

    let mut c = Comparison::new("table7");
    c.tolerance = 0.20;
    c.add(
        "Apps using WebViews",
        paper::table7::WEBVIEW_APPS as f64,
        study.rescale(r.webview_apps) as f64,
    );
    c.add(
        "… via top SDKs",
        paper::table7::WEBVIEW_VIA_SDK as f64,
        study.rescale(r.webview_apps_via_top_sdks) as f64,
    );
    c.add(
        "Apps using CTs",
        paper::table7::CT_APPS as f64,
        study.rescale(r.ct_apps) as f64,
    );
    c.add(
        "… via top SDKs",
        paper::table7::CT_VIA_SDK as f64,
        study.rescale(r.ct_apps_via_top_sdks) as f64,
    );
    c.add(
        "Apps using both",
        paper::table7::BOTH_APPS as f64,
        study.rescale(r.both_apps) as f64,
    );
    for (method, p_total, p_via) in paper::TABLE7_METHODS {
        let measured = r.method_census.iter().find(|m| m.method == method);
        let (m_total, m_via) = measured
            .map(|m| (study.rescale(m.apps), study.rescale(m.apps_via_top_sdks)))
            .unwrap_or((0, 0));
        c.add(format!("{method} (total)"), p_total as f64, m_total as f64);
        c.add(format!("{method} (via SDKs)"), p_via as f64, m_via as f64);
    }
    Experiment {
        id: "table7",
        table: t,
        comparison: c,
        figures: vec![render_url_origin_census(&run.results.url_origin_census)],
    }
}

/// Table 8 — the ten WebView-IAB apps and their injections.
pub fn table8(run: &DynamicRun) -> Experiment {
    let named = named_top_apps();
    let downloads_of = |pkg: &str| {
        named
            .iter()
            .find(|a| a.package == pkg)
            .map(|a| a.downloads)
            .unwrap_or(0)
    };
    let mut reports: Vec<&wla_dynamic::IabAppReport> = run.iab.reports.iter().collect();
    reports.sort_by_key(|r| std::cmp::Reverse(downloads_of(&r.package)));

    let mut t = Table::new(
        "Table 8: WebView injection and its inferred intents in WebView-based IABs",
        &[
            "Downloads",
            "App",
            "Via",
            "HTML/JS Injected",
            "JS Bridge Injected",
        ],
    );
    for r in &reports {
        let bridge_cell = if !r.injects_bridge {
            "No injection.".to_owned()
        } else if r.obfuscated_bridge {
            "(Obfuscated)".to_owned()
        } else {
            r.bridges.join(", ")
        };
        let js_cell = if r.injects_js {
            r.inferred_intents.join(" / ")
        } else {
            "No injection.".to_owned()
        };
        t.row_owned(vec![
            thousands(downloads_of(&r.package)),
            r.app_name.clone(),
            r.surface.clone(),
            js_cell,
            bridge_cell,
        ]);
    }

    // Paper's qualitative grid: which apps inject JS / bridges. Encode as
    // 0/1 comparisons so EXPERIMENTS.md shows exact agreement.
    let paper_grid: &[(&str, f64, f64)] = &[
        ("Facebook", 1.0, 1.0),
        ("Instagram", 1.0, 1.0),
        ("Snapchat", 0.0, 0.0),
        ("Twitter", 0.0, 0.0),
        ("LinkedIn", 1.0, 0.0),
        ("Pinterest", 0.0, 1.0),
        ("Moj", 1.0, 1.0),
        ("Chingari", 1.0, 1.0),
        ("Reddit", 0.0, 0.0),
        ("Kik", 1.0, 1.0),
    ];
    let mut c = Comparison::new("table8");
    c.tolerance = 0.0;
    for (app, p_js, p_bridge) in paper_grid {
        let r = run.iab.report(app).expect("report exists");
        c.add(
            format!("{app} injects JS"),
            *p_js,
            r.injects_js as u8 as f64,
        );
        c.add(
            format!("{app} injects bridge"),
            *p_bridge,
            r.injects_bridge as u8 as f64,
        );
    }
    Experiment {
        id: "table8",
        table: t,
        comparison: c,
        figures: vec![],
    }
}

/// Table 9 — Web APIs recorded by the controlled page server.
pub fn table9(run: &DynamicRun) -> Experiment {
    let mut t = Table::new(
        "Table 9: Web APIs accessed by apps, as recorded by our controlled web page server",
        &["App", "Interface", "Method"],
    );
    for r in &run.iab.reports {
        if r.web_api_usage.is_empty() {
            continue;
        }
        for (i, (iface, method)) in r.web_api_usage.iter().enumerate() {
            t.row_owned(vec![
                if i == 0 {
                    r.app_name.clone()
                } else {
                    String::new()
                },
                iface.clone(),
                method.clone(),
            ]);
        }
    }

    // Paper's Table 9 pairs for Facebook/Instagram and Kik.
    let meta_pairs: &[(&str, &str)] = &[
        ("Document", "getElementById"),
        ("Document", "createElement"),
        ("Document", "querySelectorAll"),
        ("Document", "getElementsByTagName"),
        ("Document", "addEventListener"),
        ("Document", "removeEventListener"),
        ("Element", "insertBefore"),
        ("Element", "hasAttribute"),
        ("Element", "getElementsByTagName"),
        ("HTMLBodyElement", "insertBefore"),
        ("HTMLCollection", "item"),
        ("NodeList", "item"),
        ("HTMLMetaElement", "getAttribute"),
    ];
    let kik_pairs: &[(&str, &str)] = &[
        ("HTMLDocument", "querySelectorAll"),
        ("HTMLMetaElement", "getAttribute"),
        ("Document", "querySelectorAll"),
    ];
    let mut c = Comparison::new("table9");
    c.tolerance = 0.0;
    for app in ["Facebook", "Instagram"] {
        let r = run.iab.report(app).expect("report");
        let hits = meta_pairs
            .iter()
            .filter(|(i, m)| {
                r.web_api_usage
                    .contains(&((*i).to_owned(), (*m).to_owned()))
            })
            .count();
        c.add(
            format!("{app}: Table 9 pairs observed"),
            meta_pairs.len() as f64,
            hits as f64,
        );
    }
    let kik = run.iab.report("Kik").expect("report");
    let kik_hits = kik_pairs
        .iter()
        .filter(|(i, m)| {
            kik.web_api_usage
                .contains(&((*i).to_owned(), (*m).to_owned()))
        })
        .count();
    c.add(
        "Kik: Table 9 pairs observed",
        kik_pairs.len() as f64,
        kik_hits as f64,
    );
    c.add(
        "Kik: extraneous pairs",
        0.0,
        (kik.web_api_usage.len() - kik_hits) as f64,
    );
    Experiment {
        id: "table9",
        table: t,
        comparison: c,
        figures: vec![],
    }
}

/// Figure 3 — SDK use-case distribution per top-10 app category.
pub fn fig3(_study: &Study, run: &StaticRun) -> Experiment {
    let render_panel = |title: &str, rows: &[wla_static::CategoryBreakdown]| {
        let mut t = Table::new(
            title,
            &["App category", "Total", "Breakdown (SDK type: share)"],
        );
        for row in rows {
            let breakdown = row
                .by_sdk_category
                .iter()
                .map(|(cat, n)| {
                    format!("{}: {}", cat.label(), percent(*n as f64 / row.total as f64))
                })
                .collect::<Vec<_>>()
                .join(", ");
            t.row_owned(vec![
                row.play_category.label().into(),
                row.total.to_string(),
                breakdown,
            ]);
        }
        t.render()
    };
    let wv_panel = render_panel(
        "Figure 3 (left): use-cases per app category — WebView SDKs",
        &run.results.category_webview,
    );
    let ct_panel = render_panel(
        "Figure 3 (right): use-cases per app category — CT SDKs",
        &run.results.category_ct,
    );

    // Shape checks the paper states: education apps use a lower proportion
    // of ad SDKs (44%) and a higher proportion of payment SDKs (~16.2%);
    // gaming categories appear in the CT panel (social SDKs).
    let mut c = Comparison::new("fig3");
    c.tolerance = 0.5;
    if let Some(edu) = run
        .results
        .category_webview
        .iter()
        .find(|r| r.play_category.label() == "Education")
    {
        let share = |cat: SdkCategory| {
            edu.by_sdk_category
                .iter()
                .find(|(c2, _)| *c2 == cat)
                .map(|(_, n)| *n as f64 / edu.total as f64)
                .unwrap_or(0.0)
        };
        c.add(
            "Education: ad-SDK share",
            0.44,
            share(SdkCategory::Advertising),
        );
        c.add(
            "Education: payment-SDK share",
            0.162,
            share(SdkCategory::Payments),
        );
    }
    let games_in_ct_top10 = run
        .results
        .category_ct
        .iter()
        .filter(|r| r.play_category.is_game())
        .count();
    c.add(
        "Gaming categories in CT top-10",
        4.0,
        games_in_ct_top10 as f64,
    );

    Experiment {
        id: "fig3",
        table: Table::new("Figure 3 — see panels", &[]),
        comparison: c,
        figures: vec![wv_panel, ct_panel],
    }
}

/// Figure 4 — heatmap of WebView API method calls by SDK type.
pub fn fig4(_study: &Study, run: &StaticRun) -> Experiment {
    let rows = &run.results.heatmap;
    let row_labels: Vec<String> = rows.iter().map(|r| r.category.label().to_owned()).collect();
    let col_labels: Vec<String> = wla_corpus::METHODS
        .iter()
        .map(|m| (*m).to_owned())
        .collect();
    let values: Vec<Vec<f64>> = rows.iter().map(|r| r.method_fraction.to_vec()).collect();
    let rendered = heatmap(
        "Figure 4: WebView API method calls made by apps via SDKs (P(method | SDK type))",
        &row_labels,
        &col_labels,
        &values,
    );

    let mut c = Comparison::new("fig4");
    c.tolerance = 0.25;
    let cell = |cat: SdkCategory, method_idx: usize| {
        rows.iter()
            .find(|r| r.category == cat)
            .map(|r| r.method_fraction[method_idx])
            .unwrap_or(0.0)
    };
    // §4.1.1: >45% of ad-SDK apps expose a JS bridge; >30% inject JS.
    c.add(
        "Ads: addJavascriptInterface",
        0.45,
        cell(SdkCategory::Advertising, 1),
    );
    c.add(
        "Ads: evaluateJavascript",
        0.30,
        cell(SdkCategory::Advertising, 3),
    );
    // §4.1.4: 48.5% of payment apps expose a bridge.
    c.add(
        "Payments: addJavascriptInterface",
        0.485,
        cell(SdkCategory::Payments, 1),
    );
    // §4.1.5: 100% of user-support apps load local data; 45.9% loadUrl.
    c.add(
        "User support: loadDataWithBaseURL",
        1.0,
        cell(SdkCategory::UserSupport, 2),
    );
    c.add(
        "User support: loadUrl",
        0.459,
        cell(SdkCategory::UserSupport, 0),
    );

    Experiment {
        id: "fig4",
        table: Table::new("Figure 4 — see heatmap", &[]),
        comparison: c,
        figures: vec![rendered],
    }
}

/// Figures 6a/6b — endpoints contacted by LinkedIn's and Kik's IABs.
pub fn fig6(run: &CrawlRun) -> Experiment {
    let mut figures = Vec::new();
    let mut c = Comparison::new("fig6");
    c.tolerance = 1.0; // the paper states lower bounds, not point values

    for (app, paper_floor, metric_name) in [
        (
            "LinkedIn",
            paper::FIG6A_MIN_TRACKERS_RICH,
            "trackers on News",
        ),
        ("Kik", paper::FIG6B_MIN_ENDPOINTS_RICH, "endpoints on News"),
    ] {
        if let Some(rows) = run.figure_for(app) {
            let mut series = Series::new(format!("{app}: avg IAB-specific endpoints per visit"));
            for row in rows {
                series.point(row.category.label(), row.avg_endpoints);
            }
            figures.push(bar_chart(&series, 40));

            if let Some(news) = rows.iter().find(|r| r.category.label() == "News") {
                let measured = if app == "LinkedIn" {
                    news.by_kind
                        .get(&EndpointKind::Tracker)
                        .copied()
                        .unwrap_or(0.0)
                } else {
                    news.avg_endpoints
                };
                c.add(format!("{app}: {metric_name}"), paper_floor, measured);
            }
            if let (Some(news), Some(search)) = (
                rows.iter().find(|r| r.category.label() == "News"),
                rows.iter().find(|r| r.category.label() == "Search"),
            ) {
                c.add(
                    format!("{app}: News > Search ordering"),
                    1.0,
                    (news.avg_endpoints > search.avg_endpoints) as u8 as f64,
                );
            }
        }
    }
    Experiment {
        id: "fig6",
        table: Table::new("Figures 6a/6b — see bar charts", &[]),
        comparison: c,
        figures,
    }
}

/// Figure 7 — page-load time comparison.
pub fn fig7() -> Experiment {
    let page_kb = 600;
    let series_data = figure7_series(page_kb);
    let mut series = Series::new(format!("Figure 7: load time (ms) for a {page_kb}KB page"));
    let mut t = Table::new(
        "Figure 7: page-load time by mechanism",
        &["Mechanism", "Load time (ms)"],
    );
    for (mode, ms) in &series_data {
        series.point(mode.label(), *ms as f64);
        t.row_owned(vec![mode.label().into(), ms.to_string()]);
    }
    let chart = bar_chart(&series, 40);

    let ct = series_data
        .iter()
        .find(|(m, _)| *m == LoadMode::CustomTab)
        .map(|(_, t)| *t)
        .unwrap_or(1);
    let wv = series_data
        .iter()
        .find(|(m, _)| *m == LoadMode::WebView)
        .map(|(_, t)| *t)
        .unwrap_or(1);
    let mut c = Comparison::new("fig7");
    c.tolerance = 0.25;
    c.add(
        "WebView/CT load-time ratio",
        paper::FIG7_CT_SPEEDUP,
        wv as f64 / ct as f64,
    );
    // Cold (un-warmed) CT is still faster than a WebView.
    let cold_ct = wla_crawler::load_time_ms(
        LoadMode::CustomTab,
        LoadContext {
            page_weight_kb: page_kb,
            ct_prewarmed: false,
        },
    );
    c.add(
        "Cold CT still beats WebView",
        1.0,
        (cold_ct < wv) as u8 as f64,
    );

    Experiment {
        id: "fig7",
        table: t,
        comparison: c,
        figures: vec![chart],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> (Study, StaticRun) {
        let study = Study::new(1_000, 99);
        let run = study.run_static();
        (study, run)
    }

    #[test]
    fn table3_builds() {
        let (study, run) = small_study();
        let exp = table3(&study, &run);
        assert!(exp.table.rows.len() == 11); // 10 categories + total
    }

    #[test]
    fn table7_builds_with_all_methods() {
        let (study, run) = small_study();
        let exp = table7(&study, &run);
        // header row count: 1 webview + 7 methods + ct + both.
        assert_eq!(exp.table.rows.len(), 10);
        assert!(!exp.comparison.rows.is_empty());
        // The URL-origin census rides along as a figure block, and the
        // generated corpus resolves fully.
        assert_eq!(exp.figures.len(), 1);
        assert!(exp.figures[0].contains("URL-origin census"));
        let census = &run.results.url_origin_census;
        assert!(census.resolved_sites > 0);
        assert_eq!(census.unknown_sites + census.conflict_sites, 0);
        assert_eq!(census.apps_with_unresolved, 0);
    }

    #[test]
    fn fig7_matches_paper_ratio() {
        let exp = fig7();
        assert!(
            exp.comparison.match_fraction() == 1.0,
            "{:?}",
            exp.comparison
        );
    }

    #[test]
    fn table6_and_8_and_9_from_dynamic_run() {
        let study = Study::new(1_000, 3);
        let dyn_run = study.run_dynamic();
        let t6 = table6(&dyn_run);
        assert_eq!(t6.comparison.match_fraction(), 1.0, "{:?}", t6.comparison);
        let t8 = table8(&dyn_run);
        assert_eq!(t8.comparison.match_fraction(), 1.0, "{:?}", t8.comparison);
        assert_eq!(t8.table.rows.len(), 10);
        let t9 = table9(&dyn_run);
        assert_eq!(t9.comparison.match_fraction(), 1.0, "{:?}", t9.comparison);
    }
}

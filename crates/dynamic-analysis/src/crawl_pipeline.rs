//! Parallel, fault-isolated crawl pipeline on interned endpoint identities.
//!
//! The crawl matrix is `(baseline + selected apps) × sites`. Workers claim
//! batches of visit indices from one atomic counter (the same scheduling
//! discipline as `wla-static`'s pipeline), run each visit on its own
//! [`VisitSession`] behind [`std::panic::catch_unwind`] — a poisoned site
//! becomes a [`CrawlFailure`], never a dead run — and record endpoints as
//! worker-local [`wla_intern::Symbol`]s with a per-host classification
//! memo. The serial join tail merges worker buffers back into matrix
//! order, translates local symbols into one global table with the
//! deterministic input-order remap, and folds Figure 6 through the crawler
//! crate's own row averaging.
//!
//! Determinism contract: for a given `(sites, apps)` input the output is
//! bit-identical at any worker count — records, figures, failure list, and
//! visit counts — because every visit is a pure function of its task, task
//! order is fixed by the matrix, and global symbol ids depend only on the
//! input-order walk. `tests/crawl_equivalence.rs` pins this down.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wla_crawler::classify::{classify_third_party, is_first_party, EndpointKind};
use wla_crawler::driver::{figure6_row, run_visit_prepared, VisitObservation, BASELINE_APP};
use wla_crawler::sites::{site_page, SiteCategory, TopSite};
use wla_device::iab::{all_profiles, IabProfile};
use wla_device::session::VisitSession;
use wla_device::webview::PreparedPage;
use wla_intern::{Interner, LocalInterner, Symbol, SymbolRemap, SymbolTable, U32BuildHasher};

/// Parallelism knobs for the crawl pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrawlConfig {
    /// Worker threads (0 ⇒ one per available core).
    pub workers: usize,
    /// Visit indices claimed per `fetch_add` (0 ⇒ auto-size: enough
    /// batches for ~8 claims per worker, clamped to `1..=32`).
    pub batch: usize,
    /// Allow more worker threads than the host has cores. Off by
    /// default: the crawl is CPU-bound, so surplus threads only add
    /// spawn and scheduling cost without touching the
    /// (worker-count-independent) output. The equivalence tests switch
    /// it on to drive true multi-threaded pools at every worker count
    /// regardless of the host.
    pub oversubscribe: bool,
}

impl CrawlConfig {
    /// Resolve `workers == 0` to the host's available parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    fn effective_batch(&self, visits: usize, workers: usize) -> usize {
        if self.batch > 0 {
            self.batch
        } else {
            visits.div_ceil(workers * 8).clamp(1, 32)
        }
    }
}

/// Why a visit produced no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrawlFailureKind {
    /// The visit panicked; `catch_unwind` isolated it.
    VisitPanic,
    /// The visit completed but the pulled netlog was empty — on a real
    /// device, a log that failed to capture.
    EmptyNetlog,
}

impl CrawlFailureKind {
    /// Stable display/aggregation label.
    pub fn label(self) -> &'static str {
        match self {
            CrawlFailureKind::VisitPanic => "visit-panic",
            CrawlFailureKind::EmptyNetlog => "empty-netlog",
        }
    }
}

/// One failed visit, attributed to its matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlFailure {
    /// App package (or [`BASELINE_APP`]).
    pub app: String,
    /// Site whose visit failed.
    pub site_host: String,
    /// Failure taxonomy entry.
    pub kind: CrawlFailureKind,
    /// Panic payload text (empty for non-panic kinds).
    pub message: String,
}

/// One completed visit, on interned identities. Hosts are kept in netlog
/// capture order (deterministic per visit); `kinds` is parallel to
/// `hosts`, classified exactly once per distinct host via the worker's
/// memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitRecord {
    /// App package symbol (or [`BASELINE_APP`]).
    pub app: Symbol,
    /// Visited site host symbol.
    pub site: Symbol,
    /// Site category.
    pub category: SiteCategory,
    /// Distinct hosts contacted, in first-contact order.
    pub hosts: Vec<Symbol>,
    /// Endpoint kind per host, parallel to `hosts`.
    pub kinds: Vec<EndpointKind>,
}

/// Per-worker scheduling counters (folded into [`CrawlStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlWorkerStats {
    /// Visits this worker executed.
    pub visits: usize,
    /// Batches this worker claimed.
    pub batches: usize,
    /// Wall-clock nanoseconds inside claimed batches.
    pub busy_ns: u64,
}

/// Interner and classification-memo counters, folded across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlInternerCounters {
    /// Summed per-worker lexicon sizes (pre-dedup).
    pub local_symbols: usize,
    /// Summed per-worker lexicon bytes.
    pub local_bytes: usize,
    /// Worker-local intern hits.
    pub local_hits: u64,
    /// Worker-local intern misses.
    pub local_misses: u64,
    /// Distinct symbols in the merged global table.
    pub global_symbols: usize,
    /// Bytes in the merged global table.
    pub global_bytes: usize,
    /// Third-party classifications answered from the per-symbol memo.
    pub classify_hits: u64,
    /// Third-party classifications that ran the suffix-rule tables.
    pub classify_misses: u64,
}

impl CrawlInternerCounters {
    /// Fraction of intern calls absorbed by worker-local tables.
    pub fn local_hit_rate(&self) -> f64 {
        let total = self.local_hits + self.local_misses;
        if total == 0 {
            return 0.0;
        }
        self.local_hits as f64 / total as f64
    }
}

/// Crawl observability: what ran, what failed, where the time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlStats {
    /// Visits in the matrix (`rows × sites`).
    pub visits_total: usize,
    /// Visits that produced a record.
    pub visits_completed: usize,
    /// Visits isolated by `catch_unwind`.
    pub visits_panicked: usize,
    /// Matrix rows (baseline + apps).
    pub rows: usize,
    /// Matrix columns.
    pub sites: usize,
    /// Visit indices per claim.
    pub batch: usize,
    /// Script steps executed across completed visits.
    pub steps_executed: u64,
    /// Netlog events captured across completed visits.
    pub requests_logged: u64,
    /// Failure counts by taxonomy label.
    pub failure_kinds: BTreeMap<&'static str, usize>,
    /// Per-worker scheduling counters.
    pub workers: Vec<CrawlWorkerStats>,
    /// Nanoseconds preparing per-site pages (serial, before the pool).
    pub prepare_ns: u64,
    /// Summed worker busy nanoseconds.
    pub visit_ns: u64,
    /// Serial join tail: merge + symbol remap + figure fold.
    pub merge_ns: u64,
    /// End-to-end wall clock.
    pub total_ns: u64,
    /// Interner / classification-memo counters.
    pub interner: CrawlInternerCounters,
}

impl CrawlStats {
    /// Visit throughput over the whole run.
    pub fn visits_per_second(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.visits_total as f64 / (self.total_ns as f64 * 1e-9)
    }

    /// Busy fraction of the pool: summed worker busy time over
    /// `workers × wall`. 1.0 means no worker ever starved.
    pub fn utilization(&self) -> f64 {
        let capacity = self.workers.len() as u64 * self.total_ns;
        if capacity == 0 {
            return 0.0;
        }
        self.visit_ns as f64 / capacity as f64
    }

    /// Classification-memo hit rate.
    pub fn classify_hit_rate(&self) -> f64 {
        let total = self.interner.classify_hits + self.interner.classify_misses;
        if total == 0 {
            return 0.0;
        }
        self.interner.classify_hits as f64 / total as f64
    }
}

/// Figure 6 output row (re-exported shape from the crawler crate).
pub use wla_crawler::driver::Figure6Row;

/// Output of the interned crawl pipeline.
#[derive(Debug, Clone)]
pub struct CrawlOutput {
    /// Baseline (System WebView Shell) records, in site order; visits that
    /// failed are absent.
    pub baseline: Vec<VisitRecord>,
    /// Per-app records keyed by display app name, in site order.
    pub per_app: BTreeMap<String, Vec<VisitRecord>>,
    /// Per-app Figure 6 rows (baseline-subtracted), one row per category.
    pub figures: BTreeMap<String, Vec<Figure6Row>>,
    /// Failed visits, in matrix order.
    pub failures: Vec<CrawlFailure>,
    /// Symbol snapshot for display-time host resolution.
    pub symbols: SymbolTable,
    /// Observability counters.
    pub stats: CrawlStats,
}

impl CrawlOutput {
    /// Figure 6 rows for one app.
    pub fn figure_for(&self, app_name: &str) -> Option<&Vec<Figure6Row>> {
        self.figures.get(app_name)
    }

    /// Resolve one record's hosts to strings (display/test helper).
    pub fn resolve_hosts(&self, record: &VisitRecord) -> Vec<&str> {
        record
            .hosts
            .iter()
            .map(|&h| self.symbols.resolve(h))
            .collect()
    }
}

/// Render a panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What one worker brings back to the merge step.
struct CrawlYield {
    /// `(visit index, outcome)` in claim order (ascending in index).
    results: Vec<(usize, Result<VisitRecord, CrawlFailure>)>,
    stats: CrawlWorkerStats,
    lexicon: LocalInterner,
    steps: u64,
    requests: u64,
    panicked: usize,
    classify_hits: u64,
    classify_misses: u64,
}

/// The full visit matrix for one run.
struct CrawlMatrix<'a> {
    sites: &'a [TopSite],
    pages: Vec<Arc<PreparedPage>>,
    /// `None` = the baseline row; `Some` = an app row.
    rows: Vec<Option<&'a IabProfile>>,
}

impl CrawlMatrix<'_> {
    fn visits(&self) -> usize {
        self.rows.len() * self.sites.len()
    }
}

/// Run the crawl matrix with the given parallelism, using the default
/// prepared-page visit.
pub fn run_crawl_pipeline(
    sites: &[TopSite],
    apps: Option<&[&str]>,
    config: CrawlConfig,
) -> CrawlOutput {
    run_crawl_pipeline_with(sites, apps, config, run_visit_prepared)
}

/// [`run_crawl_pipeline`] with a caller-supplied visit function — the
/// scheduler, fault isolation, and merge are identical. Tests use this to
/// inject deliberately panicking visits; the visit function must drive the
/// page through `session` and return the observation to harvest.
pub fn run_crawl_pipeline_with<F>(
    sites: &[TopSite],
    apps: Option<&[&str]>,
    config: CrawlConfig,
    visit: F,
) -> CrawlOutput
where
    F: Fn(&TopSite, &Arc<PreparedPage>, Option<&IabProfile>, &mut VisitSession) -> VisitObservation
        + Sync,
{
    let started = Instant::now();

    // Prepare every site's page once — parse, subresource resolution, and
    // URL allocation are per-site, not per-visit.
    let prepare_started = Instant::now();
    let profiles = all_profiles();
    let selected: Vec<&IabProfile> = profiles
        .iter()
        .filter(|p| apps.is_none_or(|filter| filter.contains(&p.app_name)))
        .collect();
    let matrix = CrawlMatrix {
        sites,
        pages: sites.iter().map(|s| Arc::new(site_page(s))).collect(),
        rows: std::iter::once(None)
            .chain(selected.iter().map(|p| Some(*p)))
            .collect(),
    };
    let prepare_ns = prepare_started.elapsed().as_nanos() as u64;

    let n = matrix.visits();
    // Never run more threads than the host can execute (unless the
    // caller opts into oversubscription — see [`CrawlConfig`]).
    let cap = if config.oversubscribe {
        usize::MAX
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    };
    let workers = config.effective_workers().min(cap).min(n.max(1));
    let batch = config.effective_batch(n, workers);
    let next = AtomicUsize::new(0);
    let visit = &visit;
    let matrix_ref = &matrix;

    let worker_body = || {
        let mut y = CrawlYield {
            results: Vec::new(),
            stats: CrawlWorkerStats::default(),
            lexicon: LocalInterner::new(),
            steps: 0,
            requests: 0,
            panicked: 0,
            classify_hits: 0,
            classify_misses: 0,
        };
        // Per-visit distinct-host scratch and the per-host classification
        // memo, both symbol-keyed: strings hash once at intern time.
        let mut seen: HashSet<Symbol, U32BuildHasher> = HashSet::default();
        let mut kind_memo: HashMap<Symbol, EndpointKind, U32BuildHasher> = HashMap::default();
        // URL-identity memo: netlog URLs are `Arc`s shared across visits
        // (prepared subresources, endpoint-rule collect URLs), so the
        // pointer identifies the string and one lookup replaces the
        // host parse + intern. Entries own an `Arc` clone, pinning the
        // allocation so an address is never recycled under a live key.
        let mut host_memo: HostMemo = HashMap::default();
        let n_sites = matrix_ref.sites.len();
        loop {
            let start = next.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + batch).min(n);
            y.stats.batches += 1;
            let claimed = Instant::now();
            for t in start..end {
                let site = &matrix_ref.sites[t % n_sites];
                let page = &matrix_ref.pages[t % n_sites];
                let profile = matrix_ref.rows[t / n_sites];
                let app = profile.map_or(BASELINE_APP, |p| p.package);
                y.stats.visits += 1;
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut session = VisitSession::new();
                    let obs = visit(site, page, profile, &mut session);
                    harvest(
                        site,
                        app,
                        &session,
                        obs,
                        &mut y.lexicon,
                        &mut seen,
                        &mut kind_memo,
                        &mut host_memo,
                        &mut y.classify_hits,
                        &mut y.classify_misses,
                    )
                }));
                let result = match outcome {
                    Ok(Some((record, steps, requests))) => {
                        y.steps += steps;
                        y.requests += requests;
                        Ok(record)
                    }
                    Ok(None) => Err(CrawlFailure {
                        app: app.to_owned(),
                        site_host: site.host.clone(),
                        kind: CrawlFailureKind::EmptyNetlog,
                        message: String::new(),
                    }),
                    Err(payload) => {
                        y.panicked += 1;
                        Err(CrawlFailure {
                            app: app.to_owned(),
                            site_host: site.host.clone(),
                            kind: CrawlFailureKind::VisitPanic,
                            message: panic_message(payload),
                        })
                    }
                };
                y.results.push((t, result));
            }
            y.stats.busy_ns += claimed.elapsed().as_nanos() as u64;
        }
        y
    };

    // workers == 1 runs inline: the serial path has no pool to pay for,
    // which keeps the serial-vs-parallel bench comparison honest.
    let yields: Vec<CrawlYield> = if workers == 1 {
        vec![worker_body()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker_body)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("worker bodies cannot panic: visits are wrapped in catch_unwind")
                })
                .collect()
        })
    };

    join_crawl_yields(matrix_ref, &selected, batch, prepare_ns, started, yields)
}

/// One `host_memo` entry: the resolved host of a shared URL `Arc`. The
/// owned clone keeps the allocation alive so the pointer key stays valid;
/// `host` is the byte range of the host within the URL (`None` for URLs
/// with no extractable host).
struct HostEntry {
    url: Arc<str>,
    host: Option<(Symbol, u32, u32)>,
}

/// Pointer-keyed URL → host memo (see `HostEntry`).
type HostMemo = HashMap<usize, HostEntry, U32BuildHasher>;

/// Turn one completed visit's session into an interned record. Returns
/// `None` when the netlog captured nothing (an [`CrawlFailureKind::EmptyNetlog`]
/// failure at the call site).
#[allow(clippy::too_many_arguments)]
fn harvest(
    site: &TopSite,
    app: &str,
    session: &VisitSession,
    obs: VisitObservation,
    lexicon: &mut LocalInterner,
    seen: &mut HashSet<Symbol, U32BuildHasher>,
    kind_memo: &mut HashMap<Symbol, EndpointKind, U32BuildHasher>,
    host_memo: &mut HostMemo,
    classify_hits: &mut u64,
    classify_misses: &mut u64,
) -> Option<(VisitRecord, u64, u64)> {
    let requests = session.requests_logged() as u64;
    if requests == 0 {
        return None;
    }
    let app_sym = lexicon.intern(app);
    let site_sym = lexicon.intern(&site.host);
    seen.clear();
    let mut hosts = Vec::new();
    let mut kinds = Vec::new();
    session.netlog().for_each_request_url(obs.source_id, |url| {
        // Memo misses happen at each unique URL's first appearance, so
        // the local interner sees hosts in exactly the first-occurrence
        // order the per-event string path produced — symbol assignment,
        // and with it the merged output, is unchanged.
        let entry = host_memo
            .entry(Arc::as_ptr(url) as *const u8 as usize)
            .or_insert_with(|| HostEntry {
                url: url.clone(),
                host: wla_net::netlog::host_of(url).map(|h| {
                    let start = h.as_ptr() as usize - url.as_ptr() as usize;
                    (lexicon.intern(h), start as u32, h.len() as u32)
                }),
            });
        let Some((sym, start, len)) = entry.host else {
            return;
        };
        if seen.insert(sym) {
            let host = &entry.url[start as usize..(start + len) as usize];
            let kind = if is_first_party(host, &site.host) {
                EndpointKind::FirstParty
            } else if let Some(&k) = kind_memo.get(&sym) {
                *classify_hits += 1;
                k
            } else {
                *classify_misses += 1;
                let k = classify_third_party(host);
                kind_memo.insert(sym, k);
                k
            };
            hosts.push(sym);
            kinds.push(kind);
        }
    });
    Some((
        VisitRecord {
            app: app_sym,
            site: site_sym,
            category: site.category,
            hosts,
            kinds,
        },
        obs.steps as u64,
        requests,
    ))
}

/// The serial join tail: merge worker buffers into matrix order, fold the
/// stats, translate worker-local symbols through the deterministic
/// input-order remap, and build the baseline-subtracted figures.
fn join_crawl_yields(
    matrix: &CrawlMatrix<'_>,
    selected: &[&IabProfile],
    batch: usize,
    prepare_ns: u64,
    started: Instant,
    yields: Vec<CrawlYield>,
) -> CrawlOutput {
    let tail_started = Instant::now();
    let n = matrix.visits();
    let n_sites = matrix.sites.len();

    let mut merged: Vec<(usize, u32, Result<VisitRecord, CrawlFailure>)> = Vec::with_capacity(n);
    let mut stats = CrawlStats {
        visits_total: n,
        rows: matrix.rows.len(),
        sites: n_sites,
        batch,
        prepare_ns,
        ..CrawlStats::default()
    };
    let mut lexicons: Vec<LocalInterner> = Vec::with_capacity(yields.len());
    for (w, y) in yields.into_iter().enumerate() {
        merged.extend(y.results.into_iter().map(|(i, r)| (i, w as u32, r)));
        stats.visits_panicked += y.panicked;
        stats.steps_executed += y.steps;
        stats.requests_logged += y.requests;
        stats.visit_ns += y.stats.busy_ns;
        stats.workers.push(y.stats);
        stats.interner.local_symbols += y.lexicon.len();
        stats.interner.local_bytes += y.lexicon.bytes();
        stats.interner.local_hits += y.lexicon.hits();
        stats.interner.local_misses += y.lexicon.misses();
        stats.interner.classify_hits += y.classify_hits;
        stats.interner.classify_misses += y.classify_misses;
        lexicons.push(y.lexicon);
    }
    merged.sort_unstable_by_key(|&(i, _, _)| i);
    assert_eq!(merged.len(), n, "batch claiming covers every visit");
    debug_assert!(
        merged.iter().enumerate().all(|(pos, &(i, _, _))| pos == i),
        "batch claiming covers every visit exactly once"
    );

    // Three-phase local→global symbol translation, in matrix order — the
    // same schedule-independent id assignment as `wla-static`'s join:
    // record first occurrences per worker, batch-intern them in rank
    // order, rewrite every record.
    let interner = Interner::with_capacity(stats.interner.local_symbols);
    let mut ranks: Vec<Vec<u32>> = lexicons.iter().map(|l| vec![u32::MAX; l.len()]).collect();
    let mut order: Vec<(u32, Symbol)> = Vec::new();
    {
        let mut note = |w: u32, sym: Symbol, ranks: &mut Vec<Vec<u32>>| {
            let rank = &mut ranks[w as usize];
            if rank[sym.0 as usize] == u32::MAX {
                rank[sym.0 as usize] = order.len() as u32;
                order.push((w, sym));
            }
        };
        for (_, w, result) in merged.iter() {
            if let Ok(record) = result {
                note(*w, record.app, &mut ranks);
                note(*w, record.site, &mut ranks);
                for &h in &record.hosts {
                    note(*w, h, &mut ranks);
                }
            }
        }
    }
    let arcs: Vec<Arc<str>> = order
        .iter()
        .map(|&(w, sym)| lexicons[w as usize].resolve_arc(sym))
        .collect();
    let globals = interner.intern_ordered(&arcs);
    let mut remaps: Vec<SymbolRemap> = lexicons.iter().map(|l| SymbolRemap::new(l.len())).collect();
    for (rank, &(w, sym)) in order.iter().enumerate() {
        remaps[w as usize].set(sym, globals[rank]);
    }
    stats.interner.global_symbols = interner.len();
    stats.interner.global_bytes = interner.bytes();

    // Rewrite records into the global namespace and split the matrix back
    // into rows. `cells[r][s]` is the (possibly failed) visit of site `s`
    // through row `r`.
    let mut cells: Vec<Vec<Option<VisitRecord>>> = matrix
        .rows
        .iter()
        .map(|_| (0..n_sites).map(|_| None).collect())
        .collect();
    let mut failures = Vec::new();
    for (i, w, result) in merged {
        match result {
            Ok(mut record) => {
                let remap = &remaps[w as usize];
                let translate = |sym: Symbol| remap.get(sym).expect("noted during phase A");
                record.app = translate(record.app);
                record.site = translate(record.site);
                for h in &mut record.hosts {
                    *h = translate(*h);
                }
                cells[i / n_sites][i % n_sites] = Some(record);
            }
            Err(failure) => {
                *stats.failure_kinds.entry(failure.kind.label()).or_insert(0) += 1;
                failures.push(failure);
            }
        }
    }
    stats.visits_completed = n - failures.len();

    // Baseline host sets per site, for figure subtraction.
    let baseline_sets: Vec<Option<HashSet<Symbol, U32BuildHasher>>> = cells[0]
        .iter()
        .map(|cell| cell.as_ref().map(|rec| rec.hosts.iter().copied().collect()))
        .collect();

    let mut per_app = BTreeMap::new();
    let mut figures = BTreeMap::new();
    for (row, profile) in selected.iter().enumerate() {
        let records: Vec<VisitRecord> = cells[row + 1].iter().flatten().cloned().collect();
        figures.insert(
            profile.app_name.to_owned(),
            figure6_interned(&cells[row + 1], &baseline_sets, matrix.sites),
        );
        per_app.insert(profile.app_name.to_owned(), records);
    }
    let baseline: Vec<VisitRecord> = cells[0].iter().flatten().cloned().collect();

    stats.merge_ns = tail_started.elapsed().as_nanos() as u64;
    stats.total_ns = started.elapsed().as_nanos() as u64;
    CrawlOutput {
        baseline,
        per_app,
        figures,
        failures,
        symbols: interner.snapshot(),
        stats,
    }
}

/// Figure 6 over interned records: tally each visit's baseline-subtracted
/// endpoint kinds, then fold through the crawler crate's
/// [`figure6_row`] — identical accumulation order to the string-path
/// oracle, hence bit-identical averages. Visits whose baseline is missing
/// (site failed in the shell row) are skipped, mirroring the oracle's
/// behavior for sites absent from the baseline.
fn figure6_interned(
    row: &[Option<VisitRecord>],
    baseline_sets: &[Option<HashSet<Symbol, U32BuildHasher>>],
    sites: &[TopSite],
) -> Vec<Figure6Row> {
    let mut per_cat: BTreeMap<SiteCategory, Vec<BTreeMap<EndpointKind, usize>>> =
        SiteCategory::ALL.iter().map(|&c| (c, Vec::new())).collect();
    for (s, cell) in row.iter().enumerate() {
        let (Some(record), Some(base)) = (cell, &baseline_sets[s]) else {
            continue;
        };
        let mut kinds: BTreeMap<EndpointKind, usize> = BTreeMap::new();
        for (h, k) in record.hosts.iter().zip(&record.kinds) {
            if !base.contains(h) {
                *kinds.entry(*k).or_insert(0) += 1;
            }
        }
        per_cat
            .get_mut(&sites[s].category)
            .expect("ALL covers every category")
            .push(kinds);
    }
    per_cat
        .into_iter()
        .map(|(category, visits)| figure6_row(category, &visits))
        .collect()
}

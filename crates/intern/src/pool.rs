//! The claim-and-merge worker pool both campaigns run on.
//!
//! The §3.1 static pass and the §3.2.2 crawl are each a set of independent
//! items whose output must not depend on scheduling. They share one shape:
//!
//! * [`run_claims`] — a fixed pool of scoped threads claiming *batches* of
//!   item indices from one atomic counter. Each worker owns private state
//!   (built by `init`, handed back when the pool joins), so nothing shares
//!   a lock on the hot path. One worker runs inline on the calling thread.
//! * [`merge_in_order`] — the serial join tail: sort every worker's
//!   `(index, item)` pairs back into input order and translate the symbols
//!   each worker interned into its private [`LocalInterner`] into one global
//!   [`Interner`]. Ids are assigned in input order, so they are a pure
//!   function of the input — independent of worker count, batch size and
//!   scheduling.
//! * [`isolate`] — run one item under `catch_unwind`, rendering a panic
//!   payload as text, so a poisoned item costs its own result row.

use crate::{Interner, LocalInterner, Symbol};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-worker scheduling counters: how evenly the claims spread the work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this worker processed.
    pub items: usize,
    /// Batches this worker claimed.
    pub batches: usize,
    /// Wall-clock nanoseconds spent inside claimed batches.
    pub busy_ns: u64,
}

/// What [`run_claims`] hands back.
#[derive(Debug)]
pub struct PoolRun<S> {
    /// Each worker's final state and counters, in spawn order.
    pub workers: Vec<(S, WorkerStats)>,
    /// Indices claimed per `fetch_add`.
    pub batch: usize,
}

/// Run `body` once for every index in `0..n` on a pool of claiming
/// workers.
///
/// `workers == 0` means one per available core (1 if the host cannot say);
/// the count is capped at `n`, with at least one worker. `batch == 0`
/// sizes batches for about eight claims per worker, clamped to `1..=32`.
/// Each worker builds its state with `init` and feeds it every claimed
/// index through `body` (in ascending order within a batch); the states
/// come back when the pool joins. A panic escaping `body` propagates to
/// the caller; wrap per-item work in [`isolate`] to contain it.
pub fn run_claims<S: Send>(
    n: usize,
    workers: usize,
    batch: usize,
    init: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, usize) + Sync,
) -> PoolRun<S> {
    let requested = if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    };
    let workers = requested.min(n.max(1));
    let batch = if batch > 0 {
        batch
    } else {
        (n / (workers * 8)).clamp(1, 32)
    };
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut stats = WorkerStats::default();
        loop {
            let start = next.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + batch).min(n);
            let claimed = Instant::now();
            for i in start..end {
                body(&mut state, i);
            }
            stats.items += end - start;
            stats.batches += 1;
            stats.busy_ns += claimed.elapsed().as_nanos() as u64;
        }
        (state, stats)
    };
    // One worker runs inline: the serial path pays for no thread.
    let workers = if workers == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    PoolRun { workers, batch }
}

/// Run `f`, turning a panic into its rendered payload.
pub fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
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

/// Symbol counters of one [`merge_in_order`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounters {
    /// Distinct symbols summed over worker-local interners (≥ global:
    /// workers re-discover shared names independently).
    pub local_symbols: usize,
    /// Bytes summed over worker-local interners.
    pub local_bytes: usize,
    /// Worker-local intern calls that found the string already present.
    pub local_hits: u64,
    /// Worker-local intern calls that inserted a new string.
    pub local_misses: u64,
    /// Distinct symbols in the merged global table.
    pub global_symbols: usize,
    /// Bytes of distinct strings in the global table.
    pub global_bytes: usize,
}

/// What [`merge_in_order`] hands back.
#[derive(Debug)]
pub struct Merged<T> {
    /// Every item, in input order, its symbols global.
    pub items: Vec<T>,
    /// The global table the items' symbols resolve against.
    pub interner: Interner,
    /// Local and global symbol counters.
    pub counters: MergeCounters,
}

/// Slot of a local symbol not yet seen in the input-order walk.
const UNSEEN: u32 = u32::MAX;

/// Merge each worker's `(index, item)` pairs into input order and rewrite
/// their symbols from the worker's [`LocalInterner`] into one global
/// [`Interner`].
///
/// `walk` must call its function on every symbol an item carries and
/// store the returned symbol back. Every index in `0..n` must appear
/// exactly once across the workers (asserted). The translation runs in
/// three phases:
///  (A) a symbols-only walk in input order records each worker's first
///      occurrences and their global rank;
///  (B) the distinct strings are interned in rank order as one batch —
///      [`Interner::intern_ordered`] assigns exactly the ids a serial loop
///      would, into a table pre-sized from the summed lexicon sizes;
///  (C) a second walk rewrites every item through the resolved tables.
pub fn merge_in_order<T>(
    n: usize,
    parts: Vec<(Vec<(usize, T)>, LocalInterner)>,
    walk: impl Fn(&mut T, &mut dyn FnMut(Symbol) -> Symbol),
) -> Merged<T> {
    // Each worker's pairs are ascending in index (claimed from a monotone
    // counter), so one flat extend + sort is a k-way merge of sorted runs.
    let mut counters = MergeCounters::default();
    let mut merged: Vec<(usize, u32, T)> = Vec::with_capacity(n);
    let mut lexicons: Vec<LocalInterner> = Vec::with_capacity(parts.len());
    for (w, (items, lexicon)) in parts.into_iter().enumerate() {
        merged.extend(items.into_iter().map(|(i, item)| (i, w as u32, item)));
        counters.local_symbols += lexicon.len();
        counters.local_bytes += lexicon.bytes();
        counters.local_hits += lexicon.hits();
        counters.local_misses += lexicon.misses();
        lexicons.push(lexicon);
    }
    merged.sort_unstable_by_key(|&(i, _, _)| i);
    assert!(
        merged.len() == n && merged.iter().enumerate().all(|(pos, &(i, _, _))| pos == i),
        "every index in 0..{n} is claimed exactly once"
    );

    // (A) Per worker, one slot per local symbol: its rank among first
    // occurrences, and after (B) its global id.
    let mut slots: Vec<Vec<u32>> = lexicons.iter().map(|l| vec![UNSEEN; l.len()]).collect();
    let mut order: Vec<(u32, Symbol)> = Vec::new();
    for (_, w, item) in merged.iter_mut() {
        let w = *w;
        let table = &mut slots[w as usize];
        walk(item, &mut |sym| {
            let slot = &mut table[sym.0 as usize];
            if *slot == UNSEEN {
                *slot = order.len() as u32;
                order.push((w, sym));
            }
            sym
        });
    }

    // (B)
    let interner = Interner::with_capacity(counters.local_symbols);
    let arcs: Vec<Arc<str>> = order
        .iter()
        .map(|&(w, sym)| lexicons[w as usize].resolve_arc(sym))
        .collect();
    let globals = interner.intern_ordered(&arcs);
    for (&(w, sym), global) in order.iter().zip(&globals) {
        slots[w as usize][sym.0 as usize] = global.0;
    }

    // (C)
    let items = merged
        .into_iter()
        .map(|(_, w, mut item)| {
            let table = &slots[w as usize];
            walk(&mut item, &mut |sym| {
                let global = table[sym.0 as usize];
                assert_ne!(
                    global, UNSEEN,
                    "walk visits the same symbols in (A) and (C)"
                );
                Symbol(global)
            });
            item
        })
        .collect();
    counters.global_symbols = interner.len();
    counters.global_bytes = interner.bytes();
    Merged {
        items,
        interner,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keep the deliberate panics below out of stderr while letting any
    /// other panic report normally. Process-global, so installed once.
    fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let p = info.payload();
                let injected = p
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected"))
                    || p.downcast_ref::<String>()
                        .is_some_and(|s| s.contains("injected"))
                    || p.is::<u32>();
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    proptest! {
        /// Every index is claimed exactly once, whatever the pool shape,
        /// and the per-worker counters add up.
        #[test]
        fn every_index_claimed_exactly_once(
            n in 0usize..300,
            workers in 1usize..=8,
            batch in 1usize..=40,
        ) {
            let run = run_claims(n, workers, batch, Vec::new, |seen: &mut Vec<usize>, i| seen.push(i));
            prop_assert_eq!(run.batch, batch);
            prop_assert_eq!(run.workers.len(), workers.min(n.max(1)));
            let mut all: Vec<usize> = Vec::new();
            for (seen, stats) in &run.workers {
                prop_assert_eq!(stats.items, seen.len());
                // Each batch is a contiguous run of at most `batch` indices,
                // so a worker claims between items/batch and items batches.
                prop_assert!(stats.batches * batch >= stats.items);
                prop_assert!(stats.batches <= stats.items);
                prop_assert!(seen.windows(2).all(|p| p[0] < p[1]));
                all.extend(seen);
            }
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            let items: usize = run.workers.iter().map(|(_, s)| s.items).sum();
            let batches: usize = run.workers.iter().map(|(_, s)| s.batches).sum();
            prop_assert_eq!(items, n);
            prop_assert_eq!(batches, n.div_ceil(batch));
        }

        /// Global ids from the merge equal a serial input-order
        /// `Interner::intern` loop over the same items, at any pool shape.
        #[test]
        fn merge_ids_match_a_serial_intern_loop(
            items in proptest::collection::vec(proptest::collection::vec(0u8..24, 0..6), 0..80),
            workers in 1usize..=8,
            batch in 1usize..=40,
        ) {
            let name = |k: u8| format!("com.example.sym{k}");
            let run = run_claims(
                items.len(),
                workers,
                batch,
                || (Vec::new(), LocalInterner::new()),
                |(pairs, lexicon): &mut (Vec<(usize, Vec<Symbol>)>, LocalInterner), i| {
                    let syms = items[i].iter().map(|&k| lexicon.intern(&name(k))).collect();
                    pairs.push((i, syms));
                },
            );
            let parts = run.workers.into_iter().map(|(state, _)| state).collect();
            let merged = merge_in_order(items.len(), parts, |syms: &mut Vec<Symbol>, f| {
                for s in syms {
                    *s = f(*s);
                }
            });
            let serial = Interner::new();
            let expect: Vec<Vec<Symbol>> = items
                .iter()
                .map(|item| item.iter().map(|&k| serial.intern(&name(k))).collect())
                .collect();
            prop_assert_eq!(&merged.items, &expect);
            prop_assert_eq!(merged.interner.len(), serial.len());
            prop_assert_eq!(merged.counters.global_symbols, serial.len());
            prop_assert_eq!(merged.counters.global_bytes, serial.bytes());
            prop_assert!(merged.counters.local_symbols >= merged.counters.global_symbols);
            prop_assert_eq!(merged.counters.local_misses, merged.counters.local_symbols as u64);
        }
    }

    #[test]
    fn default_batch_is_eight_claims_per_worker_clamped() {
        let size = |n, workers| run_claims(n, workers, 0, || (), |_, _| ()).batch;
        assert_eq!(size(0, 1), 1);
        assert_eq!(size(100, 2), 6);
        assert_eq!(size(1_100, 2), 32);
        assert_eq!(size(400, 8), 6);
    }

    #[test]
    #[should_panic(expected = "claimed exactly once")]
    fn merge_rejects_a_missing_index() {
        let parts = vec![(vec![(0usize, ()), (2, ())], LocalInterner::new())];
        merge_in_order(3, parts, |_, _| {});
    }

    #[test]
    fn a_panicking_body_is_isolated() {
        quiet_injected_panics();
        let run = run_claims(
            50,
            4,
            3,
            Vec::new,
            |out: &mut Vec<(usize, Result<usize, String>)>, i| {
                let result = isolate(|| {
                    if i % 7 == 3 {
                        panic!("injected fault at {i}");
                    }
                    i * 2
                });
                out.push((i, result));
            },
        );
        let mut results: Vec<_> = run.workers.into_iter().flat_map(|(out, _)| out).collect();
        results.sort_by_key(|&(i, _)| i);
        assert_eq!(results.len(), 50);
        for (i, result) in results {
            match result {
                Err(message) => {
                    assert_eq!(i % 7, 3);
                    assert_eq!(message, format!("injected fault at {i}"));
                }
                Ok(v) => assert_eq!(v, i * 2),
            }
        }
    }

    #[test]
    fn panic_payloads_render_as_text() {
        quiet_injected_panics();
        assert_eq!(isolate(|| 7), Ok(7));
        assert_eq!(
            isolate(|| panic!("injected str")),
            Err::<(), _>("injected str".to_owned())
        );
        let owned = String::from("injected string");
        assert_eq!(
            isolate(|| std::panic::panic_any(owned.clone())),
            Err::<(), _>(owned)
        );
        assert_eq!(
            isolate(|| std::panic::panic_any(42u32)),
            Err::<(), _>("non-string panic payload".to_owned())
        );
    }
}

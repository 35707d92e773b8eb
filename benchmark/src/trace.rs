//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent: whichever span was open when it began), and a group id shared
//! by every span of one app or one request. Spans stay in memory while an
//! op runs; [`Tracer::fold_into`] then turns them into self times — a
//! span's duration minus the part its direct children cover — and adds
//! them to a [`Ledger`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, as the per-layer metric reports it.
    pub name: &'static str,
    /// App index or request id.
    pub group: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; 0 while the span is open.
    pub end_ns: u64,
}

/// Span recorder for one op. A recorder made with [`Tracer::off`] runs
/// the same code but records nothing, so the cost of tracing itself can
/// be measured.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    derived_ns: BTreeMap<&'static str, i128>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Empty recorder.
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            derived_ns: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its end.
    pub fn begin(&mut self, name: &'static str, group: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(name, group);
        let out = f(self);
        self.end(id);
        out
    }

    /// Duration of a closed span, in nanoseconds (0 when recording is
    /// off).
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans
            .get(id)
            .map_or(0, |s| s.end_ns.saturating_sub(s.start_ns))
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.on {
            return;
        }
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Add a self time that no single span measures — a difference of
    /// spans, which may be negative for one op.
    pub fn add_self_ns(&mut self, name: &'static str, ns: i128) {
        if !self.on {
            return;
        }
        *self.derived_ns.entry(name).or_insert(0) += ns;
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.duration_ns(i);
            }
        }
        (0..self.spans.len())
            .map(|i| self.duration_ns(i).saturating_sub(child_ns[i]))
            .collect()
    }

    /// Add this op's self times and counts to `ledger`, then clear the
    /// recorder for the next op.
    pub fn fold_into(&mut self, ledger: &mut Ledger) {
        assert!(self.open.is_empty(), "fold with a span still open");
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *ledger.self_ns.entry(s.name).or_insert(0) += i128::from(self_ns);
        }
        for (name, ns) in &self.derived_ns {
            *ledger.self_ns.entry(name).or_insert(0) += ns;
        }
        let groups: BTreeSet<u64> = self.spans.iter().map(|s| s.group).collect();
        ledger.groups += groups.len() as u64;
        for (name, n) in &self.counts {
            *ledger.counts.entry(name).or_insert(0) += n;
        }
        ledger.ops += 1;
        self.spans.clear();
        self.counts.clear();
        self.derived_ns.clear();
    }
}

/// Self times and counts summed over the traced ops of a run.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Traced ops folded in.
    pub ops: u64,
    /// Distinct span groups (apps or requests) summed over those ops.
    pub groups: u64,
    /// Total self time per span name.
    pub self_ns: BTreeMap<&'static str, i128>,
    /// Total per count name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Mean self seconds per op of span `name` (0 when it never ran).
    pub fn self_s_per_op(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / 1e9 / self.ops.max(1) as f64
    }

    /// Mean count per op of `name` (0 when it was never counted).
    pub fn count_per_op(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0) as f64 / self.ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_direct_children_and_ledger_closes() {
        let mut t = Tracer::new();
        let op = t.begin("op", 0);
        spin(200_000);
        t.span("child", 0, |t| {
            spin(300_000);
            t.span("grandchild", 0, |_| spin(400_000));
        });
        t.end(op);
        let total = t.duration_ns(op);
        let self_ns = t.self_times_ns();
        assert_eq!(
            self_ns.iter().sum::<u64>(),
            total,
            "self times partition the op"
        );
        assert!(self_ns[0] >= 200_000 && self_ns[1] >= 300_000 && self_ns[2] >= 400_000);
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.spans.iter().all(|s| s.group == 0));

        let mut ledger = Ledger::default();
        t.count("things", 3);
        t.add_self_ns("derived", -5);
        t.fold_into(&mut ledger);
        assert_eq!(ledger.self_ns["derived"], -5);
        assert_eq!((ledger.ops, ledger.groups), (1, 1));
        assert_eq!(ledger.count_per_op("things"), 3.0);
        assert!(t.spans.is_empty());

        let mut off = Tracer::off();
        let id = off.span("op", 0, |t| t.begin("inner", 0));
        assert_eq!(off.duration_ns(id), 0);
        off.count("things", 1);
        off.add_self_ns("derived", 1);
        assert!(off.spans.is_empty() && off.counts.is_empty() && off.derived_ns.is_empty());
    }
}

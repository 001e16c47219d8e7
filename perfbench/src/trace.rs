//! The benchmark's own spans around public calls, their self times, and
//! the reduction of an in-program `dsaudit-obs` snapshot to per-name
//! totals.

use std::collections::BTreeMap;
use std::time::Instant;

use dsaudit_obs::Snapshot;

/// One closed span: a named interval and the span that encloses it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `backend.prove`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[must_use]
pub struct Open(Option<usize>);

/// Records spans when enabled and does nothing otherwise, so a workload
/// wraps its calls the same way in traced and untraced units.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, and any span opened inside it that is still open.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Total self time and call count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Sum over calls of the span's duration minus the part of it its
    /// child spans cover.
    pub self_ns: u64,
    /// Number of spans of this name.
    pub calls: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover. Overlapping children (work fanned out across
/// threads) are counted once, so self time never goes negative.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let entry = out.entry(s.name).or_default();
        entry.self_ns += dur - covered.min(dur);
        entry.calls += 1;
    }
    out
}

/// Total wall time covered by root spans (those without a parent).
pub fn root_ns(spans: &[SpanRec]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum()
}

/// Per-name totals of the in-program spans of an obs snapshot.
///
/// Only totals and call counts are taken: the registry's parent links
/// are not reliable while `algebra::par` workers open spans
/// concurrently. Spans still open when the snapshot was taken are
/// skipped.
pub fn obs_span_totals(snap: &Snapshot) -> BTreeMap<String, SelfTime> {
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in &snap.spans {
        if let Some(end) = s.end_ns {
            let e = out.entry(s.name.clone()).or_default();
            e.self_ns += end.saturating_sub(s.start_ns);
            e.calls += 1;
        }
    }
    out
}

/// Sum of the samples recorded into histogram `name`, or 0.
pub fn obs_histogram_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, h)| h.sample_sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            rec("round", None, 0, 100),
            rec("prove", Some(0), 10, 40),
            rec("msm", Some(1), 15, 35),
            rec("verify", Some(0), 50, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"].self_ns, 100 - 30 - 40);
        assert_eq!(t["prove"].self_ns, 30 - 20);
        assert_eq!(t["msm"].self_ns, 20);
        assert_eq!(t["verify"].self_ns, 40);
        // self times tile the root exactly
        let sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, root_ns(&spans));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // two workers of a fan-out run concurrently inside the parent
        let spans = [
            rec("parent", None, 0, 100),
            rec("worker", Some(0), 10, 60),
            rec("worker", Some(0), 30, 80),
        ];
        let t = self_times(&spans);
        assert_eq!(t["parent"].self_ns, 100 - 70);
        assert_eq!(t["worker"].self_ns, 50 + 50);
        assert_eq!(t["worker"].calls, 2);
    }

    #[test]
    fn children_outside_their_parent_are_clipped() {
        let spans = [rec("p", None, 10, 20), rec("c", Some(0), 0, 30)];
        assert_eq!(self_times(&spans)["p"].self_ns, 0);
        assert_eq!(covered_ns(vec![(0, 5), (5, 9), (20, 25)], 0, 22), 11);
        assert_eq!(covered_ns(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn recorder_nests_and_closes_what_it_opened() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        let _leaked = tr.begin("leaked");
        tr.end(inner);
        tr.time("sibling", || ());
        tr.end(outer);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("inner", Some(0)),
                ("leaked", Some(1)),
                ("sibling", Some(0))
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let o = off.begin("x");
        off.end(o);
        assert!(off.spans().is_empty());
    }
}

//! Span recording for traced runs.
//!
//! The benchmark drives each engine through its public step calls and
//! records a [`Span`] around each call. Spans stay in memory and are
//! written to `out/<workload>.spans.jsonl` when the run ends. Calls
//! that happen millions of times per rep (one per simulated event) are
//! not kept individually: they are folded into one [`Fold`] per name,
//! with an exact count and a wall-clock total estimated from every
//! [`Sampled::STRIDE`]-th call.

use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use lg_obs::JsonLine;

/// Nanoseconds an empty `Instant::now()` … `elapsed()` pair reads:
/// the fastest of a thousand tries, measured once per process.
fn timer_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        (0..1000)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(t0).elapsed().as_nanos() as u64
            })
            .min()
            .unwrap_or(0)
    })
}

/// Nanoseconds since `t0`, less what the clock reads alone cost: a
/// per-event call is tens of nanoseconds, the same order as the timer.
pub fn since(t0: Instant) -> u64 {
    (t0.elapsed().as_nanos() as u64).saturating_sub(timer_overhead_ns())
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Measured rep the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Sampling accumulator for one per-event call site.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Sampled {
    /// Calls made (exact).
    pub count: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Wall-clock nanoseconds over the timed calls.
    pub timed_ns: u64,
}

impl Sampled {
    /// Every `STRIDE`-th call is timed.
    pub const STRIDE: u64 = 16;

    /// Whether the next call should be timed.
    #[inline]
    pub fn due(&self) -> bool {
        self.count.is_multiple_of(Self::STRIDE)
    }

    /// Count one call; `ns` is its duration when it was timed.
    #[inline]
    pub fn add(&mut self, ns: Option<u64>) {
        self.count += 1;
        if let Some(ns) = ns {
            self.timed += 1;
            self.timed_ns += ns;
        }
    }

    /// Mean nanoseconds per timed call (0 when none were timed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed as f64
        }
    }

    /// Estimated total over all calls: the timed mean times the count.
    pub fn total_ns(&self) -> u64 {
        (self.mean_ns() * self.count as f64) as u64
    }

    pub fn merge(&mut self, other: &Sampled) {
        self.count += other.count;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// A folded family of per-event spans sharing one name and parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Fold {
    pub name: String,
    pub parent: Option<usize>,
    pub rep: u32,
    pub stats: Sampled,
}

/// In-memory span store with an open-span stack for parent links.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub folds: Vec<Fold>,
    stack: Vec<usize>,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            folds: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Tag subsequently recorded spans with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the currently open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Record `f` as one span named `name`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.enter(name);
        let r = f(self);
        self.exit(id);
        r
    }

    /// Attach a folded per-event family to the currently open span.
    pub fn fold(&mut self, name: &str, stats: Sampled) {
        if stats.count == 0 {
            return;
        }
        self.folds.push(Fold {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            rep: self.rep,
            stats,
        });
    }

    /// A span's self time: its duration minus the part its child spans
    /// and folds cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .chain(
                self.folds
                    .iter()
                    .filter(|f| f.parent == Some(id))
                    .map(|f| f.stats.total_ns()),
            )
            .sum();
        self.spans[id].dur_ns().saturating_sub(covered)
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// All folds named `name` merged across reps.
    pub fn folded(&self, name: &str) -> Sampled {
        let mut acc = Sampled::default();
        for f in self.folds.iter().filter(|f| f.name == name) {
            acc.merge(&f.stats);
        }
        acc
    }

    /// Write one JSON line per span, then one per fold.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut l = JsonLine::new();
            l.str("type", "span")
                .u64("id", id as u64)
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("self_ns", self.self_ns(id))
                .u64("rep", u64::from(s.rep));
            match s.parent {
                Some(p) => l.u64("parent", p as u64),
                None => l.raw("parent", "null"),
            };
            writeln!(w, "{}", l.finish())?;
        }
        for f in &self.folds {
            let mut l = JsonLine::new();
            l.str("type", "fold")
                .str("name", &f.name)
                .u64("count", f.stats.count)
                .u64("timed", f.stats.timed)
                .u64("total_ns", f.stats.total_ns())
                // Folded calls have no recorded children.
                .u64("self_ns", f.stats.total_ns())
                .u64("rep", u64::from(f.rep));
            match f.parent {
                Some(p) => l.u64("parent", p as u64),
                None => l.raw("parent", "null"),
            };
            writeln!(w, "{}", l.finish())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let mut r = Recorder::new();
        r.spans = vec![
            span("rep", 0, 1_000, None),
            span("construct", 0, 100, Some(0)),
            span("run", 100, 900, Some(0)),
            span("slice", 100, 300, Some(2)),
        ];
        r.folds.push(Fold {
            name: "ev".into(),
            parent: Some(2),
            rep: 0,
            // 32 calls, 2 timed at 5 ns each: estimated 160 ns.
            stats: Sampled {
                count: 32,
                timed: 2,
                timed_ns: 10,
            },
        });
        assert_eq!(r.self_ns(0), 1_000 - 100 - 800);
        assert_eq!(r.self_ns(1), 100);
        assert_eq!(r.self_ns(2), 800 - 200 - 160);
        assert_eq!(r.self_ns(3), 200);
    }

    #[test]
    fn over_covered_parent_saturates_at_zero() {
        let mut r = Recorder::new();
        r.spans = vec![span("p", 0, 10, None), span("c", 0, 25, Some(0))];
        assert_eq!(r.self_ns(0), 0);
    }

    #[test]
    fn scope_links_parents_and_reps() {
        let mut r = Recorder::new();
        r.set_rep(3);
        r.scope("outer", |r| {
            r.scope("inner", |_| {});
            r.fold(
                "ev",
                Sampled {
                    count: 1,
                    timed: 1,
                    timed_ns: 1,
                },
            );
        });
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].rep, 3);
        assert_eq!(r.folds[0].parent, Some(0));
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
    }

    #[test]
    fn sampled_times_every_stride_and_scales_the_total() {
        let mut s = Sampled::default();
        let mut timed = 0;
        for _ in 0..64 {
            let due = s.due();
            timed += u64::from(due);
            s.add(due.then_some(10));
        }
        assert_eq!((s.count, s.timed, timed), (64, 4, 4));
        assert_eq!(s.total_ns(), 640);
        assert_eq!(Sampled::default().total_ns(), 0);
    }
}

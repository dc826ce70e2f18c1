//! Poll-based metrics registry.
//!
//! Components keep owning their stats structs (that is what the hot path
//! mutates); the registry visits them at sim-time snapshot points through
//! the [`Observe`] trait and records counters, gauges (with high-water
//! marks carried across snapshots), and histogram summaries per component
//! instance. Snapshots serialize to deterministic JSONL: one line per
//! `(t_ps, comp, inst)` with fields in registration order.

use crate::hist::HistSummary;
use crate::json::JsonLine;
use std::collections::BTreeMap;

/// A component that can be polled into the registry.
pub trait Observe {
    /// Visit every instrument this component exposes.
    fn observe(&self, m: &mut MetricSink);
}

/// One instrument value collected during a snapshot.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(u64),
    /// Instantaneous value plus the high-water mark so far (filled in by
    /// the registry from its cross-snapshot state).
    Gauge(u64, u64),
    Hist(HistSummary),
}

/// Collector passed to [`Observe::observe`].
#[derive(Debug, Default)]
pub struct MetricSink {
    entries: Vec<(&'static str, Value)>,
}

impl MetricSink {
    /// Record a monotonically-increasing counter.
    pub fn counter(&mut self, name: &'static str, v: u64) {
        self.entries.push((name, Value::Counter(v)));
    }

    /// Record an instantaneous gauge; the registry tracks its high-water
    /// mark across snapshots.
    pub fn gauge(&mut self, name: &'static str, v: u64) {
        self.entries.push((name, Value::Gauge(v, v)));
    }

    /// Record a histogram summary (use [`crate::LogHist::summary`], or
    /// build one from any other histogram implementation).
    pub fn hist(&mut self, name: &'static str, s: HistSummary) {
        self.entries.push((name, Value::Hist(s)));
    }
}

/// One snapshot of one component instance.
#[derive(Debug)]
struct Row {
    t_ps: u64,
    comp: &'static str,
    inst: String,
    entries: Vec<(&'static str, Value)>,
}

/// The registry: an append-only series of per-instance snapshots plus
/// cross-snapshot gauge high-water marks.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    rows: Vec<Row>,
    /// (comp, inst, name) -> high-water mark seen so far.
    hwm: BTreeMap<(&'static str, String, &'static str), u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Snapshot `obj` as instance `inst` of component `comp` at sim-time
    /// `t_ps`.
    pub fn record(&mut self, t_ps: u64, comp: &'static str, inst: &str, obj: &dyn Observe) {
        self.record_with(t_ps, comp, inst, |m| obj.observe(m));
    }

    /// Snapshot instruments produced by a closure (for gauges assembled
    /// from several components, e.g. queue depths across classes).
    pub fn record_with(
        &mut self,
        t_ps: u64,
        comp: &'static str,
        inst: &str,
        fill: impl FnOnce(&mut MetricSink),
    ) {
        let mut sink = MetricSink::default();
        fill(&mut sink);
        for (name, v) in sink.entries.iter_mut() {
            if let Value::Gauge(cur, hwm) = v {
                let e = self
                    .hwm
                    .entry((comp, inst.to_string(), name))
                    .or_insert(*cur);
                *e = (*e).max(*cur);
                *hwm = *e;
            }
        }
        self.rows.push(Row {
            t_ps,
            comp,
            inst: inst.to_string(),
            entries: sink.entries,
        });
    }

    /// Latest counter value recorded for `(comp, inst, name)`, if any —
    /// how a control-plane daemon reads MAC counters from switch
    /// telemetry rather than from component internals.
    pub fn latest_counter(&self, comp: &str, inst: &str, name: &str) -> Option<u64> {
        self.rows.iter().rev().find_map(|r| {
            if r.comp != comp || r.inst != inst {
                return None;
            }
            r.entries.iter().find_map(|(n, v)| match v {
                Value::Counter(c) if *n == name => Some(*c),
                _ => None,
            })
        })
    }

    /// Latest gauge `(value, high_water)` recorded for `(comp, inst, name)`.
    pub fn latest_gauge(&self, comp: &str, inst: &str, name: &str) -> Option<(u64, u64)> {
        self.rows.iter().rev().find_map(|r| {
            if r.comp != comp || r.inst != inst {
                return None;
            }
            r.entries.iter().find_map(|(n, v)| match v {
                Value::Gauge(cur, hwm) if *n == name => Some((*cur, *hwm)),
                _ => None,
            })
        })
    }

    /// Number of snapshots recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serialize every snapshot to JSONL lines (no trailing newlines).
    /// Rows keep insertion order: snapshots are taken in sim-time order,
    /// so output is already deterministic.
    pub fn to_jsonl(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| {
                let mut l = JsonLine::new();
                l.str("type", "metric")
                    .u64("t_ps", r.t_ps)
                    .str("comp", r.comp)
                    .str("inst", &r.inst);
                let mut counters = JsonLine::new();
                let mut gauges = JsonLine::new();
                let mut hists = JsonLine::new();
                let (mut nc, mut ng, mut nh) = (0, 0, 0);
                for (name, v) in &r.entries {
                    match v {
                        Value::Counter(c) => {
                            counters.u64(name, *c);
                            nc += 1;
                        }
                        Value::Gauge(cur, hwm) => {
                            let mut g = JsonLine::new();
                            g.u64("value", *cur).u64("hwm", *hwm);
                            gauges.raw(name, &g.finish());
                            ng += 1;
                        }
                        Value::Hist(s) => {
                            let mut h = JsonLine::new();
                            h.u64("count", s.count)
                                .u64("min", s.min)
                                .u64("max", s.max)
                                .f64("mean", s.mean)
                                .u64("p50", s.p50)
                                .u64("p99", s.p99);
                            hists.raw(name, &h.finish());
                            nh += 1;
                        }
                    }
                }
                if nc > 0 {
                    l.raw("counters", &counters.finish());
                }
                if ng > 0 {
                    l.raw("gauges", &gauges.finish());
                }
                if nh > 0 {
                    l.raw("hists", &hists.finish());
                }
                l.finish()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    struct Fake {
        sent: u64,
        depth: u64,
    }

    impl Observe for Fake {
        fn observe(&self, m: &mut MetricSink) {
            m.counter("sent", self.sent);
            m.gauge("depth", self.depth);
        }
    }

    #[test]
    fn gauges_carry_high_water_across_snapshots() {
        let mut reg = MetricsRegistry::new();
        let mut f = Fake { sent: 1, depth: 10 };
        reg.record(100, "fake", "a", &f);
        f.depth = 50;
        f.sent = 2;
        reg.record(200, "fake", "a", &f);
        f.depth = 5;
        reg.record(300, "fake", "a", &f);
        assert_eq!(reg.latest_gauge("fake", "a", "depth"), Some((5, 50)));
        assert_eq!(reg.latest_counter("fake", "a", "sent"), Some(2));
        // A different instance has its own high-water state.
        let g = Fake { sent: 0, depth: 7 };
        reg.record(300, "fake", "b", &g);
        assert_eq!(reg.latest_gauge("fake", "b", "depth"), Some((7, 7)));
    }

    #[test]
    fn jsonl_shape_parses_back() {
        let mut reg = MetricsRegistry::new();
        reg.record_with(42, "port", "sw_tx:0", |m| {
            m.counter("frames_tx", 9);
            m.gauge("queue_bytes", 123);
            m.hist(
                "lat",
                HistSummary {
                    count: 2,
                    min: 1,
                    max: 3,
                    mean: 2.0,
                    p50: 1,
                    p99: 3,
                },
            );
        });
        let lines = reg.to_jsonl();
        assert_eq!(lines.len(), 1);
        let v = parse(&lines[0]).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("metric"));
        assert_eq!(v.get("t_ps").unwrap().as_num(), Some(42.0));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("frames_tx")
                .unwrap()
                .as_num(),
            Some(9.0)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("queue_bytes")
                .unwrap()
                .get("hwm")
                .unwrap()
                .as_num(),
            Some(123.0)
        );
        assert_eq!(
            v.get("hists")
                .unwrap()
                .get("lat")
                .unwrap()
                .get("p99")
                .unwrap()
                .as_num(),
            Some(3.0)
        );
    }
}

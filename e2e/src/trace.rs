//! Spans recorded by the traced pass, their self-time arithmetic, and the
//! trace file.
//!
//! A span is one call into a layer's public API, timed from outside. The
//! engine's own call (`engine.*`) really happened inside the op; the spans
//! below it are the same work *replayed* on stand-alone fixtures right
//! after the op, because the engine's internal calls cannot be intercepted
//! without changing it. A replayed child is laid out from its parent's
//! start for the length it took, so the file reads like a call tree; its
//! `replayed` flag says the interval is reconstructed.

use std::collections::BTreeMap;

use crate::json::Json;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Sequence number of the client op the span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
pub struct TraceLog {
    pub spans: Vec<Span>,
}

impl TraceLog {
    /// Records a measured span (a root when `parent` is `None`).
    pub fn measured(
        &mut self,
        parent: Option<SpanId>,
        op: u32,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        self.push(parent, op, name, start_ns, dur_ns, false)
    }

    /// Records a replayed child of `parent`, placed after the parent's
    /// earlier children.
    pub fn replayed(&mut self, parent: SpanId, name: &'static str, dur_ns: u64) -> SpanId {
        let p = &self.spans[parent as usize];
        let (op, start) = (p.op, p.start_ns);
        // Children follow their parent in the log, so only its tail is
        // searched.
        let taken: u64 = self.spans[parent as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::duration_ns)
            .sum();
        self.push(Some(parent), op, name, start + taken, dur_ns, true)
    }

    fn push(
        &mut self,
        parent: Option<SpanId>,
        op: u32,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        replayed: bool,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            replayed,
        });
        id
    }

    /// Per span: its duration minus what its children cover, zero when a
    /// replayed child ran longer than its measured parent did.
    #[cfg(test)]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// Self time per span name over the ops that were replayed: everything
    /// spent in spans of that name minus everything spent in their children.
    ///
    /// Taken over the sums, not span by span: a replay is a second execution
    /// whose single timings scatter around the engine's (an `fsync` replayed
    /// is another `fsync`), and clamping every span at zero would count that
    /// scatter as time. An op without replayed children is left out — it
    /// would count wholly as its engine call.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let replayed_ops = self.replayed_ops();
        let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut in_children: BTreeMap<&'static str, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| replayed_ops.contains(&s.op)) {
            *total.entry(span.name).or_default() += span.duration_ns();
            if let Some(parent) = span.parent {
                *in_children
                    .entry(self.spans[parent as usize].name)
                    .or_default() += span.duration_ns();
            }
        }
        total
            .into_iter()
            .map(|(name, ns)| {
                (
                    name,
                    ns.saturating_sub(in_children.get(name).copied().unwrap_or(0)),
                )
            })
            .collect()
    }

    fn replayed_ops(&self) -> std::collections::HashSet<u32> {
        self.spans
            .iter()
            .filter(|s| s.replayed)
            .map(|s| s.op)
            .collect()
    }

    /// Self times by layer (the part of a span name before the first dot).
    pub fn by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, ns) in self.self_by_name() {
            *out.entry(name.split('.').next().unwrap_or(name))
                .or_default() += ns;
        }
        out
    }

    /// Sum of the layers' self times over the sum of the root spans, over
    /// the replayed ops: 1.0 when the layers add up to the end-to-end op
    /// time, above it by as much as replays outran what they replay.
    pub fn self_sum_share(&self) -> f64 {
        let selves = self.self_by_name();
        let replayed_ops = self.replayed_ops();
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && replayed_ops.contains(&s.op))
            .map(Span::duration_ns)
            .sum();
        if roots == 0 {
            1.0
        } else {
            selves.values().sum::<u64>() as f64 / roots as f64
        }
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("id", Json::Num(f64::from(s.id))),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                                ),
                                ("op", Json::Num(f64::from(s.op))),
                                ("name", Json::str(s.name)),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("replayed", Json::Bool(s.replayed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = TraceLog::default();
        let root = log.measured(None, 0, "client.op", 1_000, 100);
        let engine = log.measured(Some(root), 0, "engine.execute", 1_000, 100);
        let core = log.replayed(engine, "core.indexing_scan", 70);
        let sweep = log.replayed(core, "storage.sweep", 30);
        let lookup = log.replayed(engine, "index.lookup", 10);
        let selves = log.self_ns();
        assert_eq!(selves[root as usize], 0);
        assert_eq!(selves[engine as usize], 20);
        assert_eq!(selves[core as usize], 40);
        assert_eq!(selves[sweep as usize], 30);
        assert_eq!(selves[lookup as usize], 10);
        // Selves telescope to the root.
        assert_eq!(selves.iter().sum::<u64>(), 100);
        assert_eq!(log.self_sum_share(), 1.0);
        // Replayed children are laid out one after the other.
        assert_eq!(log.spans[core as usize].start_ns, 1_000);
        assert_eq!(log.spans[lookup as usize].start_ns, 1_070);
        assert_eq!(log.spans[sweep as usize].start_ns, 1_000);
        let layers = log.by_layer();
        assert_eq!(layers["engine"], 20);
        assert_eq!(layers["core"], 40);
        assert_eq!(layers["storage"], 30);
        assert_eq!(layers["index"], 10);
    }

    #[test]
    fn scatter_of_single_replays_cancels_but_a_systematic_overrun_shows() {
        // Two ops of 100 each; one replay comes out at 70, the other at 130.
        let mut log = TraceLog::default();
        for (op, replay) in [(0, 70), (1, 130)] {
            let root = log.measured(None, op, "client.op", u64::from(op) * 1000, 100);
            let engine = log.measured(Some(root), op, "engine.execute", u64::from(op) * 1000, 100);
            log.replayed(engine, "core.indexing_scan", replay);
        }
        // An op that was not replayed enters neither the sums nor the share.
        log.measured(None, 2, "client.op", 5000, 50);
        // Span by span the second op clamps at zero...
        assert_eq!(log.self_ns(), vec![0, 30, 70, 0, 0, 130, 50]);
        // ...but over the sums the engine kept 200 - 200 = 0 and the layers
        // add up exactly.
        let selves = log.self_by_name();
        assert_eq!(selves["engine.execute"], 0);
        assert_eq!(selves["core.indexing_scan"], 200);
        assert_eq!(selves["client.op"], 0);
        assert_eq!(log.self_sum_share(), 1.0);
        // Replays that are slower on the whole push the share above one.
        let root = log.measured(None, 3, "client.op", 9000, 100);
        let engine = log.measured(Some(root), 3, "engine.execute", 9000, 100);
        log.replayed(engine, "core.indexing_scan", 160);
        assert!((log.self_sum_share() - 360.0 / 300.0).abs() < 1e-9);
    }
}

//! Spans and the layer-attributing event sink.
//!
//! The benchmark records one [`Span`] per call it makes into the
//! program (set-up steps, then each round's `alert.raise`,
//! `runtime.step` and `audit`). Inside a traced `runtime.step`, the
//! [`LayerSink`] timestamps every `record`/`counter` callback and gives
//! the interval since the previous callback to the [`Layer`] of the
//! callback that closes it; consecutive intervals of one layer merge
//! into one child span of the step.

use sheriff_obs::{Event, EventSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer of the program a step interval is attributed to, named after
/// the crates and modules that do the work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `sheriff-core` PRIORITY, KM matching and VMMIGRATION planning.
    Plan,
    /// `sheriff-core` REQUEST/ACK 2PC protocol and intent journal.
    Txn,
    /// `sheriff-core` `SimNet` control channel: timeouts, resends, dedup.
    Channel,
    /// `sheriff-core` shim failure detection and regional takeover.
    Failover,
    /// `sheriff-transfer` pre-copy scheduling.
    Transfer,
    /// `sheriff-sim` agenda and the rest of the fabric round.
    Fabric,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Plan,
        Layer::Txn,
        Layer::Channel,
        Layer::Failover,
        Layer::Transfer,
        Layer::Fabric,
    ];

    /// Metric-name prefix and trace track name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Plan => "plan",
            Layer::Txn => "txn",
            Layer::Channel => "channel",
            Layer::Failover => "failover",
            Layer::Transfer => "transfer",
            Layer::Fabric => "fabric",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Layer of an [`Event::kind`].
    pub fn of_event(kind: &str) -> Layer {
        match kind {
            "victims_selected" | "plan_computed" => Layer::Plan,
            "request_sent" | "ack_received" | "reject_received" => Layer::Txn,
            k if k.starts_with("txn_") || k.starts_with("migration_") => Layer::Txn,
            "request_timeout" | "request_resent" | "duplicate_absorbed" => Layer::Channel,
            "region_taken_over" => Layer::Failover,
            k if k.starts_with("shim_") => Layer::Failover,
            k if k.starts_with("transfer_") => Layer::Transfer,
            _ => Layer::Fabric,
        }
    }

    /// Layer of a sink counter, by name prefix.
    pub fn of_counter(name: &str) -> Layer {
        if name.starts_with("net.") {
            Layer::Channel
        } else if name.starts_with("txn.") || name.starts_with("migrations.") {
            Layer::Txn
        } else if name.starts_with("transfer.") {
            Layer::Transfer
        } else {
            Layer::Fabric
        }
    }
}

/// Where a span is drawn in the Chrome trace: the benchmark's own calls,
/// or one layer inside `runtime.step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Track {
    /// Calls the benchmark makes into the program.
    Bench,
    /// Step time attributed to one layer.
    Layer(Layer),
}

impl Track {
    fn tid(self) -> usize {
        match self {
            Track::Bench => 0,
            Track::Layer(l) => 1 + l.index(),
        }
    }
}

/// One timed interval, in nanoseconds since the log's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Call or layer name.
    pub name: &'static str,
    /// Trace track.
    pub track: Track,
    /// Start, ns since the log origin.
    pub start: u64,
    /// End, ns since the log origin.
    pub end: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Run-wide round id, for spans inside a round.
    pub round: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Most layer child spans one log keeps for export. Per-layer totals
/// are exact regardless; the cap only bounds memory and trace size on
/// message-heavy workloads.
const MAX_CHILD_SPANS: usize = 200_000;

/// In-memory span log of one run, written out when the run ends.
pub struct SpanLog {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    /// Layer child spans not kept because of [`MAX_CHILD_SPANS`].
    pub dropped_children: u64,
    children: usize,
}

impl SpanLog {
    /// An empty log whose clock starts now. Wall time is what the
    /// benchmark measures; it never feeds a simulated outcome.
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped_children: 0,
            children: 0,
        }
    }

    /// Nanoseconds since the log origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a benchmark span; returns its index for [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, round: Option<u64>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            track: Track::Bench,
            start,
            end: start,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Close span `idx`; returns its duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end = end;
        span.dur()
    }

    /// Attach a traced step's layer intervals as children of `parent`.
    fn adopt(&mut self, parent: usize, children: &[(Layer, u64, u64)]) {
        let round = self.spans[parent].round;
        for &(layer, start, end) in children {
            if self.children >= MAX_CHILD_SPANS {
                self.dropped_children += 1;
                continue;
            }
            self.children += 1;
            self.spans.push(Span {
                name: layer.name(),
                track: Track::Layer(layer),
                start,
                end,
                parent: Some(parent),
                round,
            });
        }
    }

    /// Self time of every span: its duration minus the time its
    /// children cover. Negative only if a child escaped its parent.
    pub fn self_times(&self) -> Vec<i64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur() as i64 - c as i64)
            .collect()
    }
}

/// Deterministic work counts of one traced step or episode: everything
/// the layer sink saw except wall time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `record` callbacks.
    pub events: u64,
    /// Events by [`Event::kind`].
    pub kinds: BTreeMap<&'static str, u64>,
    /// Sink counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Sum of `VictimsSelected.selected`.
    pub victims: u64,
    /// Sum of `PlanComputed.search_space` (matching cells).
    pub search_cells: u64,
}

impl LayerCounts {
    /// Events of one kind.
    pub fn kind(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// One counter's total.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Add another step's counts.
    pub fn absorb(&mut self, other: &LayerCounts) {
        self.events += other.events;
        self.victims += other.victims;
        self.search_cells += other.search_cells;
        for (k, v) in &other.kinds {
            *self.kinds.entry(k).or_default() += v;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }
}

/// The benchmark's [`EventSink`] for traced steps: attributes every
/// inter-callback interval to a layer and counts the work it sees.
pub struct LayerSink {
    origin: Instant,
    last: u64,
    /// Step nanoseconds attributed to each layer.
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Work counts of the step.
    pub counts: LayerCounts,
    runs: Vec<(Layer, u64, u64)>,
}

impl LayerSink {
    /// A sink for one step that starts at `start` on `log`'s clock.
    pub fn begin(log: &SpanLog, start: u64) -> Self {
        Self {
            origin: log.origin,
            last: start,
            layer_ns: [0; Layer::ALL.len()],
            counts: LayerCounts::default(),
            runs: Vec::new(),
        }
    }

    fn close_interval(&mut self, layer: Layer) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.layer_ns[layer.index()] += now - self.last;
        match self.runs.last_mut() {
            Some(run) if run.0 == layer => run.2 = now,
            _ => self.runs.push((layer, self.last, now)),
        }
        self.last = now;
    }

    /// End the step as child spans of `step` in `log`; returns the
    /// nanoseconds after the last callback, which no layer claims.
    pub fn finish(
        self,
        log: &mut SpanLog,
        step: usize,
    ) -> (u64, [u64; Layer::ALL.len()], LayerCounts) {
        let unattributed = log.spans[step].end.saturating_sub(self.last);
        log.adopt(step, &self.runs);
        (unattributed, self.layer_ns, self.counts)
    }
}

impl EventSink for LayerSink {
    fn record(&mut self, event: Event) {
        let kind = event.kind();
        self.close_interval(Layer::of_event(kind));
        match event {
            Event::VictimsSelected { selected, .. } => self.counts.victims += selected,
            Event::PlanComputed { search_space, .. } => self.counts.search_cells += search_space,
            _ => {}
        }
        self.counts.events += 1;
        *self.counts.kinds.entry(kind).or_default() += 1;
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.close_interval(Layer::of_counter(name));
        *self.counts.counters.entry(name).or_default() += delta;
    }
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Chrome trace-event JSON (opens in Perfetto): one process lane per
/// workload and one thread track per layer, every span a complete
/// (`"X"`) event in microseconds since its run's start.
pub fn chrome_trace(lanes: &[(String, &SpanLog)]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for (pid, (workload, log)) in lanes.iter().enumerate() {
        sep(&mut out);
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{pid},\"tid\":0,\"args\":{{\"name\":");
        json_str(&mut out, workload);
        out.push_str("}}");
        let tracks = std::iter::once(Track::Bench).chain(Layer::ALL.map(Track::Layer));
        for track in tracks {
            let name = match track {
                Track::Bench => "benchmark calls",
                Track::Layer(l) => l.name(),
            };
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
                track.tid()
            );
        }
        for s in &log.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{",
                s.name,
                if s.track == Track::Bench { "call" } else { "layer" },
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.track.tid()
            );
            let parent = s.parent.map(|p| log.spans[p].name).unwrap_or("");
            let _ = write!(out, "\"parent\":\"{parent}\"");
            if let Some(r) = s.round {
                let _ = write!(out, ",\"round\":{r}");
            }
            out.push_str("}}");
        }
        if log.dropped_children > 0 {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"child_spans_dropped\",\"ph\":\"i\",\"s\":\"p\",\"ts\":0,\"pid\":{pid},\"tid\":0,\"args\":{{\"count\":{}}}}}",
                log.dropped_children
            );
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_follow_the_event_and_counter_grouping() {
        assert_eq!(Layer::of_event("plan_computed"), Layer::Plan);
        assert_eq!(Layer::of_event("txn_prepared"), Layer::Txn);
        assert_eq!(Layer::of_event("migration_committed"), Layer::Txn);
        assert_eq!(Layer::of_event("request_timeout"), Layer::Channel);
        assert_eq!(Layer::of_event("shim_degraded"), Layer::Failover);
        assert_eq!(Layer::of_event("transfer_started"), Layer::Transfer);
        assert_eq!(Layer::of_event("round_end"), Layer::Fabric);
        assert_eq!(Layer::of_counter("net.sent"), Layer::Channel);
        assert_eq!(Layer::of_counter("migrations.committed"), Layer::Txn);
        assert_eq!(Layer::of_counter("transfer.started"), Layer::Transfer);
        assert_eq!(Layer::of_counter("detector.suspected"), Layer::Fabric);
    }

    #[test]
    fn sink_merges_runs_and_accounts_every_interval() {
        let mut log = SpanLog::new();
        let step = log.open("runtime.step", None, Some(0));
        let start = log.spans[step].start;
        let mut sink = LayerSink::begin(&log, start);
        sink.record(Event::RoundStart { time: 0 });
        sink.counter("net.sent", 3);
        sink.counter("net.dropped", 1);
        sink.counter("txn.committed", 2);
        log.close(step);
        let (unattributed, layer_ns, counts) = sink.finish(&mut log, step);
        assert_eq!(counts.counter("net.sent"), 3);
        assert_eq!(counts.kind("round_start"), 1);
        // round_start, then one merged channel run, then txn
        assert_eq!(log.spans.len(), 4);
        let attributed: u64 = layer_ns.iter().sum();
        assert_eq!(attributed + unattributed, log.spans[step].dur());
        assert!(log.self_times().iter().all(|&t| t >= 0));
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_events() {
        let mut log = SpanLog::new();
        let s = log.open("setup", None, None);
        log.close(s);
        let text = chrome_trace(&[("w".to_string(), &log)]);
        assert!(text.starts_with("[\n{") && text.ends_with("}\n]\n"));
        assert!(text.contains("\"name\":\"setup\""));
        assert!(text.contains("\"name\":\"process_name\""));
    }
}

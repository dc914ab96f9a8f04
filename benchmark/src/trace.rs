//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer in a span; nothing inside the
//! measured crates is instrumented. Spans nest by call order on the one
//! benchmark thread, stay in memory until the run ends, and are then
//! written once as Chrome trace-event JSON (Perfetto opens it).
//!
//! The same timeline carries the calibration samples. The sizing host
//! flips, for minutes at a time, between two clock states about 1.28x
//! apart; a fixed integer spin slows by the same factor as the workloads
//! do, so every interval is reported in *calibrated* time: host time
//! divided by how slow the spin was around it (see README, "Noise").

use std::io::Write;
use std::time::Instant;

use crate::harness::calib_spin_ms;

/// Spin time every interval is scaled to, in milliseconds: on a machine
/// whose spin takes exactly this long, calibrated time is host time.
pub const CALIB_REF_MS: f64 = 1.0;
/// Least host time between two calibration samples, so that millisecond
/// units are not drowned in spins.
const CALIB_EVERY_NS: u64 = 50_000_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `model.prefill`.
    pub name: &'static str,
    /// Variant within the name (algorithm, scheduler cell, experiment id);
    /// empty when the name has none.
    pub arg: &'static str,
    /// Request / pass identifier shared by the spans of one operation.
    pub id: u64,
    /// Calls or items the span covers, so a batched probe can be reported
    /// per call.
    pub work: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token for an open span; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct Open(Option<usize>);

/// The recorder. When off, `begin`/`end` cost one branch each, so the
/// untraced run executes the same workload code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Calibration samples, in time order.
    calib: Vec<Calib>,
}

/// One calibration sample: when the spins ran and the fastest one's time.
#[derive(Debug, Clone, Copy)]
struct Calib {
    start_ns: u64,
    end_ns: u64,
    ms: f64,
}

impl Tracer {
    /// A recorder that is switched off.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            calib: Vec::new(),
        }
    }

    /// A recorder holding the given spans, for tests of what reads them.
    #[cfg(test)]
    pub(crate) fn from_spans(spans: Vec<Span>) -> Self {
        Tracer {
            spans,
            ..Tracer::off()
        }
    }

    /// Takes a calibration sample unless the last one is recent (`force`
    /// takes one regardless). Works whether or not spans are recorded.
    /// Workloads call this wherever they can be interrupted, so that long
    /// units are sampled from within.
    pub fn calibrate(&mut self, force: bool) {
        let start = self.now_ns();
        if force
            || self
                .calib
                .last()
                .is_none_or(|c| start - c.end_ns >= CALIB_EVERY_NS)
        {
            // The fastest of three: a spin the hypervisor preempted says
            // nothing about the clock.
            let ms = (0..3)
                .map(|_| calib_spin_ms())
                .fold(f64::INFINITY, f64::min);
            self.calib.push(Calib {
                start_ns: start,
                end_ns: self.now_ns(),
                ms,
            });
        }
    }

    /// The calibration samples' spin times, milliseconds.
    pub fn calib_ms(&self) -> Vec<f64> {
        self.calib.iter().map(|c| c.ms).collect()
    }

    /// Calibrated length of `[start_ns, end_ns]`, nanoseconds: the interval
    /// minus the spins taken inside it, each remaining piece divided by how
    /// slow the machine was around it — the mean of the samples just before
    /// and just after the piece (whichever exist) over [`CALIB_REF_MS`].
    /// Host time when there are no samples.
    pub fn calibrated_ns(&self, start_ns: u64, end_ns: u64) -> f64 {
        // Samples wholly inside the interval cut it into pieces.
        let first = self.calib.partition_point(|c| c.start_ns < start_ns);
        let last = self
            .calib
            .partition_point(|c| c.end_ns <= end_ns)
            .max(first);
        let slowness = |before: Option<&Calib>, after: Option<&Calib>| {
            let ms = match (before, after) {
                (Some(b), Some(a)) => (b.ms + a.ms) / 2.0,
                (Some(c), None) | (None, Some(c)) => c.ms,
                (None, None) => CALIB_REF_MS,
            };
            ms / CALIB_REF_MS
        };
        let mut total = 0.0;
        let mut piece_start = start_ns;
        let mut before = first.checked_sub(1).map(|i| &self.calib[i]);
        for c in &self.calib[first..last] {
            total += c.start_ns.saturating_sub(piece_start) as f64 / slowness(before, Some(c));
            piece_start = c.end_ns;
            before = Some(c);
        }
        total + end_ns.saturating_sub(piece_start) as f64 / slowness(before, self.calib.get(last))
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Switches recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, arg: &'static str, id: u64, work: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            arg,
            id,
            work,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span, and any span opened inside it that a panic left open.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps), one event per line.
    ///
    /// # Errors
    ///
    /// Returns any I/O error, including the final flush's.
    pub fn write_chrome_trace(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        let self_ns = self_times(&self.spans);
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\
                 \"id\":{},\"arg\":\"{}\",\"work\":{},\"self_ns\":{}}}}}{}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.id,
                s.arg,
                s.work,
                self_ns[i],
                sep
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover. Children of one parent never overlap (one
/// thread, strictly nested), so coverage is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

impl Tracer {
    /// Calibrated duration of a span, nanoseconds.
    pub fn span_ns(&self, s: &Span) -> f64 {
        self.calibrated_ns(s.start_ns, s.end_ns)
    }

    /// Calibrated nanoseconds per unit of work of the spans matching a
    /// name and, if given, a variant.
    pub fn ns_per_work(&self, name: &str, arg: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && arg.is_none_or(|a| s.arg == a))
            .map(|s| self.span_ns(s) / s.work.max(1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            arg: "",
            id: 0,
            work: 1,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // request [0,100] ─ prefill [10,40] ─ attend [15,25]
        //                 └ decode  [50,90]
        let spans = vec![
            span("request", 0, 100, None),
            span("model.prefill", 10, 40, Some(0)),
            span("kvcache.attend", 15, 25, Some(1)),
            span("model.decode", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree always add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x", "", 0, 1);
        t.end(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_an_outer_end_closes_abandoned_children() {
        let mut t = Tracer::off();
        t.set_enabled(true);
        let outer = t.begin("pass", "", 1, 1);
        let inner = t.begin("request", "fp16", 7, 1);
        let _abandoned = t.begin("model.decode", "fp16", 7, 1);
        // A panic between begin and end skips the inner `end` calls.
        let _ = inner;
        t.end(outer);
        let next = t.begin("pass", "", 2, 1);
        t.end(next);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), None]);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.ns_per_work("request", Some("fp16")).len(), 1);
        assert_eq!(t.ns_per_work("pass", None).len(), 2);
    }

    #[test]
    fn calibrated_time_scales_each_piece_by_the_samples_around_it() {
        let mut t = Tracer::off();
        assert_eq!(t.calibrated_ns(0, 10), 10.0, "no samples: host time");
        let sample = |start_ns, ms| Calib {
            start_ns,
            end_ns: start_ns + 10,
            ms,
        };
        t.calib = vec![sample(100, 1.0), sample(200, 1.5), sample(300, 2.0)];
        // Before the first sample only the one after exists.
        assert_eq!(t.calibrated_ns(10, 50), 40.0);
        // Between two samples: their mean, 1.25.
        assert_eq!(t.calibrated_ns(110, 190), 64.0);
        // After the last sample only the one before exists.
        assert_eq!(t.calibrated_ns(310, 410), 50.0);
        // Spanning a sample: [150,200] at 1.25, the spin [200,210] left
        // out, [210,250] at 1.75.
        assert_eq!(t.calibrated_ns(150, 250), 50.0 / 1.25 + 40.0 / 1.75);
        // An interval that starts or ends inside a spin is not cut by it.
        assert_eq!(t.calibrated_ns(205, 250), 45.0 / 1.75);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut t = Tracer::off();
        t.set_enabled(true);
        let a = t.begin("probe", "", 0, 1);
        let b = t.begin("tensor.matmul", "prefill", 0, 4);
        t.end(b);
        t.end(a);
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).expect("write to a Vec");
        let text = String::from_utf8(buf).expect("utf-8");
        let doc = rkvc_tensor::json::JsonValue::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("cat").and_then(|c| c.as_str()),
            Some("tensor")
        );
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_i64()), Some(0));
        assert_eq!(args.get("work").and_then(|p| p.as_i64()), Some(4));
    }
}

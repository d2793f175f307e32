//! Spans recorded by the harness around its own calls into the layers.
//!
//! Kept in memory while the benchmark runs and written once at the end
//! as Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto).
//! Spans inside `pmm-simnet` are a later issue; these see each layer from
//! outside only.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
pub struct Span {
    /// Index of this span in the recorder (its identifier).
    pub id: usize,
    /// `layer.what`, e.g. `simnet.world_run` or `ladder.rung3`.
    pub name: String,
    /// Identifier of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (spans of one iteration share it).
    pub iter: usize,
    /// Start, in seconds since the recorder was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// The span recorder. When `enabled` is false, [`Spans::scope`] only
/// times its body: the untraced pass records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, epoch: Instant::now(), open: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (the traced pass alternates to measure
    /// its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `body` as a span named `name` of iteration `iter`; returns
    /// the body's value and its duration in seconds.
    pub fn scope<T>(
        &mut self,
        name: &str,
        iter: usize,
        body: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let slot = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                name: name.to_owned(),
                parent: self.open.last().copied(),
                iter,
                start_s: self.epoch.elapsed().as_secs_f64(),
                dur_s: 0.0,
            });
            self.open.push(id);
            id
        });
        let t0 = Instant::now();
        let out = body(self);
        let dur = t0.elapsed().as_secs_f64();
        if let Some(id) = slot {
            self.spans[id].dur_s = dur;
            self.open.pop();
        }
        (out, dur)
    }

    /// Durations of every recorded span named `name`, the warm-up's
    /// (iteration 0) left out.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name && s.iter > 0).map(|s| s.dur_s).collect()
    }

    /// Per iteration, the total duration of its spans named `name` (a
    /// sweep has 36 of a kind), the warm-up left out.
    pub fn per_iteration(&self, name: &str) -> Vec<f64> {
        let mut totals = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name && s.iter > 0) {
            *totals.entry(s.iter).or_insert(0.0) += s.dur_s;
        }
        totals.into_values().collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as Chrome `trace_event` JSON ("X" complete events,
    /// microsecond timestamps; `cat` is the layer, the part of the name
    /// before the first dot).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("harness");
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {}, \"parent\": {}, \"iter\": {}}}}}{}",
                crate::report::json_string(&s.name),
                crate::report::json_string(layer),
                s.start_s * 1e6,
                s.dur_s * 1e6,
                s.id,
                parent,
                s.iter,
                comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_parent_and_iteration() {
        let mut spans = Spans::new(true);
        spans.scope("outer.a", 7, |s| {
            s.scope("inner.b", 7, |_| ());
        });
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[1].iter, 7);
        assert!(spans.spans[0].dur_s >= spans.spans[1].dur_s);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_times() {
        let mut spans = Spans::new(false);
        let (v, dur) = spans.scope("x.y", 0, |_| 3);
        assert_eq!((v, spans.len()), (3, 0));
        assert!(dur >= 0.0);
    }
}

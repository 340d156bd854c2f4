//! In-memory span recording for the traced run.
//!
//! A span is recorded around one public call into a layer: its name, its
//! start and end on the run's monotonic clock, the span that caused it and
//! the request it served. Serving layers nest inside the server, so the
//! traced run replays each request one layer further down under the same
//! request id; a layer's self time is then its span minus its replayed
//! children. Spans stay in memory and are written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `serve.tcp.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request (or pipeline pass) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log sharing one epoch.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The clock origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; [`Tracer::close`] ends it. Opening
    /// first lets children name their parent while it runs.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        })
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span; returns its result and the span's id.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Appends a finished span.
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span with id `id`.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id)
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// durations of its children. Children are replays, recorded outside
    /// the parent's interval, so the subtraction is by duration and may go
    /// negative when a replay runs slower than the original call.
    pub fn self_times_ns(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns() as f64 - c as f64)
            .collect()
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Writes the log as tab-separated `id name start_ns end_ns parent
    /// request` lines (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_is_parent_minus_replayed_children() {
        let mut t = Tracer::new();
        let call = t.push(span("serve.tcp.call", 0, 100, None));
        let server = t.push(span("serve.server.predict", 200, 260, Some(call)));
        t.push(span("serve.protocol.codec", 300, 310, Some(call)));
        t.push(span("serve.cache.get_or_compile", 400, 420, Some(server)));
        t.push(span("core.plan.sweep", 500, 505, Some(server)));
        assert_eq!(t.self_times_ns(), vec![30.0, 35.0, 10.0, 20.0, 5.0]);
        assert_eq!(t.durations_ns("serve.server.predict"), vec![60.0]);
    }

    #[test]
    fn self_time_may_go_negative_when_a_replay_is_slower() {
        let mut t = Tracer::new();
        let p = t.push(span("parent", 0, 10, None));
        t.push(span("child", 20, 35, Some(p)));
        assert_eq!(t.self_times_ns()[0], -5.0);
    }

    #[test]
    fn spans_time_their_closure() {
        let mut t = Tracer::new();
        let (v, id) = t.span("work", None, 3, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        let s = t.get(id).copied().expect("recorded");
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(s.request, 3);
    }
}

//! In-memory spans, written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
struct Span {
    name: &'static str,
    parent: u32,
    /// The window this span belongs to (`u64::MAX` outside windows).
    window: u64,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. Spans nest: a span begun while another is open
/// becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    window: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            window: u64::MAX,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans begun from here on with `window`.
    pub fn set_window(&mut self, window: u64) {
        self.window = window;
    }

    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            window: self.window,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Ends span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in nesting order");
        Self::duration(span)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` inside a span named `name` when there is a tracer, and
    /// plainly otherwise.
    pub fn maybe<T>(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        match tracer {
            Some(tracer) => tracer.span(name, f),
            None => f(),
        }
    }

    fn duration(span: &Span) -> u64 {
        span.end_ns.saturating_sub(span.start_ns)
    }

    /// Every duration recorded under `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::duration)
            .collect()
    }

    /// Total nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time of every span named `name` (its duration minus what
    /// its direct children cover) as a share of their total duration:
    /// the part of that interval no finer span attributes.
    pub fn unattributed_share(&self, name: &str) -> f64 {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.parent != NO_PARENT) {
            *child_ns.entry(span.parent).or_insert(0) += Self::duration(span);
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let duration = Self::duration(span);
            let id = u32::try_from(id).expect("fewer than 2^32 spans");
            total += duration;
            uncovered += duration.saturating_sub(child_ns.get(&id).copied().unwrap_or(0));
        }
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_owned()
            } else {
                span.parent.to_string()
            };
            let window = if span.window == u64::MAX {
                "null".to_owned()
            } else {
                span.window.to_string()
            };
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","parent":{parent},"window":{window},"start_ns":{},"end_ns":{}}}"#,
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

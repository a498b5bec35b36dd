//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the workspace crates, and a timing [`ExecBackend`] that wraps the
//! production integer kernels. The program itself gains no timer.

use cq_tensor::{BackendKind, ConvProfile, ConvShape, ExecBackend, IntPanels, PackedPanels};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary or operation name.
    pub name: String,
    /// Start offset, ns.
    pub start_ns: u64,
    /// End offset, ns (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Serving request id, when the span belongs to one request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder for the client thread. Disabled tracers record
/// nothing, so the untraced code path pays only a branch.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&self, name: &str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(Instant::now()),
            end_ns: u64::MAX,
            parent: parent.0,
            request,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Closes an open span now.
    pub fn close(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let now = self.ns(Instant::now());
            self.spans.borrow_mut()[i].end_ns = now;
        }
    }

    /// Records a finished span from explicit instants (e.g. a serving
    /// request from its due time to its completion).
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.0,
            request,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// The root "no parent" handle.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.end_ns != u64::MAX)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.request.map_or("null".into(), |r| r.to_string()),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// [`IntPanels`] with every step of the integer chain timed: busy
/// nanoseconds summed over the pool threads that ran it, plus the MACs the
/// panel GEMMs computed (from their shapes).
#[derive(Debug, Default)]
pub struct TimedIntPanels {
    /// i8 im2col busy ns.
    pub im2col_ns: AtomicU64,
    /// i8 → i32 widening busy ns.
    pub widen_ns: AtomicU64,
    /// Panel GEMM busy ns.
    pub igemm_ns: AtomicU64,
    /// i32 → f32 epilogue busy ns.
    pub epilogue_ns: AtomicU64,
    /// Multiply-accumulates issued by the panel GEMMs.
    pub macs: AtomicU64,
}

fn timed<R>(counter: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    counter.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    r
}

impl ExecBackend for TimedIntPanels {
    fn kind(&self) -> BackendKind {
        BackendKind::IntPanels
    }

    fn supports(&self, profile: &ConvProfile) -> bool {
        IntPanels.supports(profile)
    }

    fn integer(&self) -> bool {
        true
    }

    fn im2col_i8(&self, img: &[f32], c_start: usize, c_len: usize, s: &ConvShape, col: &mut [i8]) {
        timed(&self.im2col_ns, || {
            IntPanels.im2col_i8(img, c_start, c_len, s, col)
        });
    }

    fn widen_i8_to_i32(&self, src: &[i8], dst: &mut [i32]) {
        timed(&self.widen_ns, || IntPanels.widen_i8_to_i32(src, dst));
    }

    fn igemm_into(&self, a: &PackedPanels, b: &[i32], n: usize, c: &mut [i32]) {
        timed(&self.igemm_ns, || IntPanels.igemm_into(a, b, n, c));
        self.macs
            .fetch_add((a.rows() * a.k() * n) as u64, Ordering::Relaxed);
    }

    fn accum_to_f32(&self, acc: &[i32], out: &mut [f32]) {
        timed(&self.epilogue_ns, || IntPanels.accum_to_f32(acc, out));
    }
}

impl TimedIntPanels {
    /// `(im2col, widen, igemm, epilogue)` busy ms and MACs so far.
    pub fn snapshot(&self) -> ([f64; 4], u64) {
        let ms = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64 / 1e6;
        (
            [
                ms(&self.im2col_ns),
                ms(&self.widen_ns),
                ms(&self.igemm_ns),
                ms(&self.epilogue_ns),
            ],
            self.macs.load(Ordering::Relaxed),
        )
    }
}

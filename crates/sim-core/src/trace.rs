//! Structured event trace: instant events and duration spans.
//!
//! Components record instant `(time, category, message)` triples and
//! begin/end **spans** — intervals with stable ids, parent links and
//! key/value attributes. Tests and examples use the trace to assert on and
//! display causal timelines; the phase profiler ([`crate::profile`]) walks
//! the span tree to attribute wall-clock to the paper's phases.
//!
//! Pay as you go (DESIGN.md §9, §11). When disabled (the default) every
//! recording call returns before it looks at its arguments: messages are
//! taken as `impl Display` (call sites pass `format_args!`), attribute
//! values as `&str`/`u64`, so an unobserved run formats and allocates
//! nothing for observability and stays bit-identical to an observed one.
//! When enabled, span names, attribute keys and vocabulary values are
//! interned [`Symbol`]s; ids and counts are stored as integers and free
//! text (unit names) in one per-trace arena, so the intern table is bounded
//! by the vocabulary, not by the run's history. Integers, text and the two
//! per-unit instant lines ([`Trace::record_line`]) are formatted only at
//! export. Spans live in fixed-size chunks (`Vec<Vec<Span>>`) — an
//! append-only sink that never reallocates or moves recorded spans, so a
//! 100k-unit run appends in O(1) and readers stream chunk-by-chunk
//! ([`Trace::iter_spans`], [`Trace::write_chrome_json`]) instead of
//! demanding one contiguous buffer. The trace also tracks the live
//! (begun-but-unended) span count and its high-water mark, which the scale
//! gate caps.

use std::fmt::{self, Write as _};
use std::io;

pub use crate::intern::{Symbol, SymbolTable};
use crate::time::SimTime;

/// Spans per storage chunk. Chunks are never resized once full, so a
/// reader holding `&Span` across appends would stay valid (Rust's borrow
/// rules are stricter, but exports never pay a move/copy of the tail).
const CHUNK: usize = 1024;

/// Bytes the Chrome exporter buffers before handing them to the writer.
const EXPORT_FLUSH: usize = 64 * 1024;

/// Renders a stored instant-event line from its two arguments (see
/// [`Trace::record_line`]).
pub type LineFn = fn(&mut fmt::Formatter<'_>, u64, u32) -> fmt::Result;

/// The message of an instant event: owned text, or a line kept as its
/// renderer and arguments and formatted only when read.
#[derive(Clone)]
pub enum Message {
    Text(String),
    Line { render: LineFn, a: u64, b: u32 },
}

impl Message {
    /// Whether the rendered message contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        match self {
            Message::Text(s) => s.contains(needle),
            Message::Line { .. } => self.to_string().contains(needle),
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Text(s) => f.write_str(s),
            Message::Line { render, a, b } => render(f, *a, *b),
        }
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Text(s) => fmt::Debug::fmt(s, f),
            Message::Line { .. } => fmt::Debug::fmt(&self.to_string(), f),
        }
    }
}

/// Messages are equal when they render the same text.
impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        match (self, other) {
            (Message::Text(a), Message::Text(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub time: SimTime,
    pub category: &'static str,
    pub message: Message,
}

/// Identifier of a span. Ids are assigned sequentially from 1 in begin
/// order; `SpanId::NONE` (0) is the sentinel returned when tracing is
/// disabled — every span operation on it is a no-op, so call sites never
/// need to branch on whether observability is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// A stored span attribute value, packed into 4 bytes so an attribute
/// stays the size of a `(Symbol, Symbol)` pair: a vocabulary [`Symbol`],
/// an integer (inline below 2^30, else in the trace's integer pool), or
/// text in the trace's text arena. Read through [`Trace::attr`] and
/// [`Trace::attrs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AttrValue(u32);

impl AttrValue {
    const SHIFT: u32 = 30;
    const PAYLOAD: u32 = (1 << Self::SHIFT) - 1;
    const SYMBOL: u32 = 0;
    const INT: u32 = 1;
    const POOLED_INT: u32 = 2;
    const TEXT: u32 = 3;

    fn new(tag: u32, payload: usize) -> AttrValue {
        assert!(
            payload <= Self::PAYLOAD as usize,
            "span attribute table overflow"
        );
        AttrValue(tag << Self::SHIFT | payload as u32)
    }

    fn tag(self) -> u32 {
        self.0 >> Self::SHIFT
    }

    fn payload(self) -> usize {
        (self.0 & Self::PAYLOAD) as usize
    }
}

/// A resolved attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Attr<'a> {
    /// A vocabulary symbol or free text.
    Str(&'a str),
    /// An id or a count.
    U64(u64),
}

impl Attr<'_> {
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Attr::U64(n) => Some(n),
            Attr::Str(_) => None,
        }
    }
}

/// A begin/end interval in virtual time. `end` is `None` while the span is
/// open (and stays `None` forever for spans abandoned by a fault-killed
/// attempt — exports and the profiler only consider completed spans).
///
/// `name` and the attribute keys are [`Symbol`]s into the owning trace's
/// intern table; resolve with [`Trace::span_name`] / [`Trace::attr`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub category: &'static str,
    pub name: Symbol,
    pub begin: SimTime,
    pub end: Option<SimTime>,
    pub attrs: Vec<(Symbol, AttrValue)>,
}

impl Span {
    /// Duration, if the span is complete.
    pub fn duration(&self) -> Option<crate::time::SimDuration> {
        Some(self.end?.since(self.begin))
    }
}

/// Append-only trace log with chunked span storage.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
    chunks: Vec<Vec<Span>>,
    count: usize,
    open: usize,
    peak_open: usize,
    syms: SymbolTable,
    /// Integer attribute values too large to pack inline.
    ints: Vec<u64>,
    /// Text attribute values, concatenated; `text_ends[i]` ends the i-th.
    text: String,
    text_ends: Vec<usize>,
}

impl Trace {
    pub fn disabled() -> Self {
        Trace::default()
    }

    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an instant event (no-op when disabled). `message` is
    /// formatted only when the trace is on, so pass `format_args!(..)`,
    /// never `format!(..)`.
    pub fn record(&mut self, time: SimTime, category: &'static str, message: impl fmt::Display) {
        if self.enabled {
            self.events.push(TraceEvent {
                time,
                category,
                message: Message::Text(message.to_string()),
            });
        }
    }

    /// Record an instant event stored as `render` plus its arguments and
    /// formatted only when read or exported — for lines recorded once per
    /// unit or more. No-op when disabled.
    pub fn record_line(
        &mut self,
        time: SimTime,
        category: &'static str,
        render: LineFn,
        a: u64,
        b: u32,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                time,
                category,
                message: Message::Line { render, a, b },
            });
        }
    }

    /// Open a span. Returns `SpanId::NONE` when disabled; pass
    /// `SpanId::NONE` as `parent` for a root span.
    pub fn span_begin(
        &mut self,
        time: SimTime,
        category: &'static str,
        name: &str,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = SpanId(self.count as u64 + 1);
        let name = self.syms.intern(name);
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let last = self.chunks.len() - 1;
        self.chunks[last].push(Span {
            id,
            parent: if parent.is_none() { None } else { Some(parent) },
            category,
            name,
            begin: time,
            end: None,
            attrs: Vec::new(),
        });
        self.count += 1;
        self.open += 1;
        self.peak_open = self.peak_open.max(self.open);
        id
    }

    /// Attach a vocabulary attribute — a value from a small fixed set,
    /// such as an access mode or a resource name — interned as a
    /// [`Symbol`] (no-op on `NONE`). Ids, counts and per-unit names go
    /// through [`Trace::span_attr_u64`] / [`Trace::span_attr_text`], which
    /// never grow the intern table.
    pub fn span_attr(&mut self, id: SpanId, key: &str, value: &str) {
        if id.is_none() {
            return;
        }
        let value = AttrValue::new(AttrValue::SYMBOL, self.syms.intern(value).index());
        self.push_attr(id, key, value);
    }

    /// Attach an integer attribute (an id or a count), formatted at
    /// export (no-op on `NONE`).
    pub fn span_attr_u64(&mut self, id: SpanId, key: &str, value: u64) {
        if id.is_none() {
            return;
        }
        let value = if value <= u64::from(AttrValue::PAYLOAD) {
            AttrValue::new(AttrValue::INT, value as usize)
        } else {
            self.ints.push(value);
            AttrValue::new(AttrValue::POOLED_INT, self.ints.len() - 1)
        };
        self.push_attr(id, key, value);
    }

    /// Attach free text, such as a unit name, copied into the trace's text
    /// arena (no-op on `NONE`).
    pub fn span_attr_text(&mut self, id: SpanId, key: &str, value: &str) {
        if id.is_none() {
            return;
        }
        self.text.push_str(value);
        self.text_ends.push(self.text.len());
        let value = AttrValue::new(AttrValue::TEXT, self.text_ends.len() - 1);
        self.push_attr(id, key, value);
    }

    fn push_attr(&mut self, id: SpanId, key: &str, value: AttrValue) {
        let key = self.syms.intern(key);
        self.span_mut(id).attrs.push((key, value));
    }

    /// Close a span (no-op on `NONE` or if already closed).
    pub fn span_end(&mut self, time: SimTime, id: SpanId) {
        if id.is_none() {
            return;
        }
        let span = self.span_mut(id);
        if span.end.is_none() {
            debug_assert!(time >= span.begin, "span ends before it begins");
            span.end = Some(time);
            self.open -= 1;
        }
    }

    fn span_mut(&mut self, id: SpanId) -> &mut Span {
        let idx = id.0 as usize - 1;
        &mut self.chunks[idx / CHUNK][idx % CHUNK]
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All spans in begin (= id) order, streamed chunk-by-chunk (open
    /// spans included).
    pub fn iter_spans(&self) -> impl DoubleEndedIterator<Item = &Span> + Clone + '_ {
        self.chunks.iter().flatten()
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.count
    }

    /// Spans currently open (begun but not ended).
    pub fn live_spans(&self) -> usize {
        self.open
    }

    /// High-water mark of [`Trace::live_spans`] over the run — the figure
    /// the scale gate caps (bounded live set ⇒ bounded resident memory
    /// for the mutable frontier of the trace).
    pub fn peak_live_spans(&self) -> usize {
        self.peak_open
    }

    /// Per-name aggregate over all *completed* spans: `(name, count,
    /// total duration)`, sorted by name. The same aggregation
    /// `trace_diff` reconstructs from an exported Chrome trace — tests
    /// use this to cross-check the export round trip.
    pub fn name_totals(&self) -> Vec<(String, u64, crate::time::SimDuration)> {
        let mut totals: std::collections::BTreeMap<&str, (u64, crate::time::SimDuration)> =
            std::collections::BTreeMap::new();
        for s in self.iter_spans() {
            if let Some(d) = s.duration() {
                let e = totals
                    .entry(self.syms.resolve(s.name))
                    .or_insert((0, crate::time::SimDuration(0)));
                e.0 += 1;
                e.1 += d;
            }
        }
        totals
            .into_iter()
            .map(|(name, (n, d))| (name.to_string(), n, d))
            .collect()
    }

    pub fn span(&self, id: SpanId) -> Option<&Span> {
        if id.is_none() || id.0 as usize > self.count {
            return None;
        }
        let idx = id.0 as usize - 1;
        Some(&self.chunks[idx / CHUNK][idx % CHUNK])
    }

    /// Resolve an interned symbol (empty string for `Symbol::NONE`).
    pub fn name(&self, sym: Symbol) -> &str {
        self.syms.resolve(sym)
    }

    /// Resolved name of a span.
    pub fn span_name(&self, span: &Span) -> &str {
        self.syms.resolve(span.name)
    }

    /// Look up the symbol for `s`, if it was ever recorded.
    pub fn symbol(&self, s: &str) -> Option<Symbol> {
        self.syms.lookup(s)
    }

    /// Intern a string in this trace's table (for building comparison
    /// symbols in tests/tools; recording paths intern implicitly).
    pub fn intern(&mut self, s: &str) -> Symbol {
        self.syms.intern(s)
    }

    /// The intern table (read-only; index side tables by `Symbol::index`).
    pub fn symbols(&self) -> &SymbolTable {
        &self.syms
    }

    /// Resolve a stored attribute value.
    fn value(&self, v: AttrValue) -> Attr<'_> {
        let i = v.payload();
        match v.tag() {
            AttrValue::SYMBOL => Attr::Str(self.syms.resolve(Symbol(i as u32))),
            AttrValue::INT => Attr::U64(i as u64),
            AttrValue::POOLED_INT => Attr::U64(self.ints[i]),
            _ => {
                let start = if i == 0 { 0 } else { self.text_ends[i - 1] };
                Attr::Str(&self.text[start..self.text_ends[i]])
            }
        }
    }

    /// Value of a span attribute.
    pub fn attr(&self, span: &Span, key: &str) -> Option<Attr<'_>> {
        self.attr_sym(span, self.syms.lookup(key)?)
    }

    /// Value of a span attribute by key symbol (look the key up once with
    /// [`Trace::symbol`] when scanning many spans).
    pub fn attr_sym(&self, span: &Span, key: Symbol) -> Option<Attr<'_>> {
        span.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| self.value(v))
    }

    /// A span's attributes as resolved `(key, value)` pairs.
    pub fn attrs<'a>(&'a self, span: &'a Span) -> impl Iterator<Item = (&'a str, Attr<'a>)> {
        span.attrs
            .iter()
            .map(|&(k, v)| (self.syms.resolve(k), self.value(v)))
    }

    /// Completed root spans (no parent) with the given name, in id order.
    pub fn roots_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a Span> + 'a {
        let sym = self.syms.lookup(name);
        self.iter_spans()
            .filter(move |s| s.parent.is_none() && Some(s.name) == sym && s.end.is_some())
    }

    /// Events in a given category.
    pub fn in_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// First event whose message contains `needle`.
    pub fn find(&self, needle: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.message.contains(needle))
    }

    /// Export as Chrome tracing JSON (`chrome://tracing` / Perfetto):
    /// instant events as `"ph":"i"`, completed spans as async-nestable
    /// `"ph":"b"`/`"ph":"e"` pairs keyed by span id (no per-thread stack
    /// discipline required), grouped by category as thread names.
    ///
    /// Streams into `w` through one reused buffer of about
    /// `EXPORT_FLUSH` bytes: names, keys and categories are escaped once
    /// per distinct string, integers and text are formatted straight into
    /// the buffer, so a scale-run trace exports without materializing the
    /// document or a `String` per field. [`Trace::to_chrome_json`] wraps
    /// this for small traces.
    pub fn write_chrome_json<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        // Distinct categories in sorted order; a category's thread id is
        // its rank + 1. Consecutive records mostly share a category.
        let mut cats: Vec<&'static str> = Vec::new();
        let mut last: Option<&'static str> = None;
        for c in self
            .events
            .iter()
            .map(|e| e.category)
            .chain(self.iter_spans().map(|s| s.category))
        {
            if last != Some(c) {
                if let Err(at) = cats.binary_search(&c) {
                    cats.insert(at, c);
                }
                last = Some(c);
            }
        }
        let tid = |c: &str| cats.binary_search(&c).map_or(0, |i| i) as u64 + 1;
        let cat_json: Vec<String> = cats.iter().map(|c| escape_json(c)).collect();
        let sym_json: Vec<String> = self.syms.names().iter().map(|n| escape_json(n)).collect();

        let mut out = String::with_capacity(EXPORT_FLUSH + 1024);
        let mut line = String::new();
        out.push('[');
        for (i, c) in cat_json.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            push_u64(&mut out, i as u64 + 1);
            out.push_str(",\"args\":{\"name\":\"");
            out.push_str(c);
            out.push_str("\"}}");
        }
        for e in &self.events {
            out.push_str(",{\"name\":\"");
            match &e.message {
                Message::Text(s) => escape_into(&mut out, s),
                m => {
                    line.clear();
                    let _ = write!(line, "{m}");
                    escape_into(&mut out, &line);
                }
            }
            out.push_str("\",\"ph\":\"i\",\"ts\":");
            push_u64(&mut out, e.time.0);
            out.push_str(",\"pid\":1,\"tid\":");
            push_u64(&mut out, tid(e.category));
            out.push_str(",\"s\":\"t\"}");
            if out.len() >= EXPORT_FLUSH {
                w.write_all(out.as_bytes())?;
                out.clear();
            }
        }
        for s in self.iter_spans() {
            let Some(end) = s.end else { continue };
            let tid = tid(s.category);
            let cat = &cat_json[tid as usize - 1];
            let name = &sym_json[s.name.index()];
            out.push_str(",{\"name\":\"");
            out.push_str(name);
            out.push_str("\",\"cat\":\"");
            out.push_str(cat);
            out.push_str("\",\"ph\":\"b\",\"ts\":");
            push_u64(&mut out, s.begin.0);
            out.push_str(",\"pid\":1,\"tid\":");
            push_u64(&mut out, tid);
            out.push_str(",\"id\":\"0x");
            push_hex(&mut out, s.id.0);
            out.push_str("\",\"args\":{");
            let mut first = true;
            if let Some(p) = s.parent {
                out.push_str("\"parent\":\"0x");
                push_hex(&mut out, p.0);
                out.push('"');
                first = false;
            }
            for &(k, v) in &s.attrs {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(&sym_json[k.index()]);
                out.push_str("\":\"");
                match v.tag() {
                    AttrValue::SYMBOL => out.push_str(&sym_json[v.payload()]),
                    _ => match self.value(v) {
                        Attr::U64(n) => push_u64(&mut out, n),
                        Attr::Str(text) => escape_into(&mut out, text),
                    },
                }
                out.push('"');
            }
            out.push_str("}},{\"name\":\"");
            out.push_str(name);
            out.push_str("\",\"cat\":\"");
            out.push_str(cat);
            out.push_str("\",\"ph\":\"e\",\"ts\":");
            push_u64(&mut out, end.0);
            out.push_str(",\"pid\":1,\"tid\":");
            push_u64(&mut out, tid);
            out.push_str(",\"id\":\"0x");
            push_hex(&mut out, s.id.0);
            out.push_str("\"}");
            if out.len() >= EXPORT_FLUSH {
                w.write_all(out.as_bytes())?;
                out.clear();
            }
        }
        out.push(']');
        w.write_all(out.as_bytes())
    }

    /// [`Trace::write_chrome_json`] into a `String` (small traces,
    /// tests).
    pub fn to_chrome_json(&self) -> String {
        let mut out = Vec::new();
        self.write_chrome_json(&mut out).expect("write to Vec");
        String::from_utf8(out).expect("escaped JSON is UTF-8")
    }

    /// Render the trace as an aligned timeline (for examples / debugging).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{:>12} [{:<10}] {}",
                e.time.to_string(),
                e.category,
                e.message
            );
        }
        out
    }

    /// Render the span list, one line per span (for goldens / debugging).
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        for s in self.iter_spans() {
            let end = match s.end {
                Some(t) => format!("{}", t.0),
                None => "open".into(),
            };
            let parent = match s.parent {
                Some(p) => format!("{}", p.0),
                None => "-".into(),
            };
            out.push_str(&format!(
                "#{} parent={} [{}] {} {}..{}\n",
                s.id.0,
                parent,
                s.category,
                self.syms.resolve(s.name),
                s.begin.0,
                end
            ));
        }
        out
    }
}

/// Append the decimal digits of `n`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Append the lowercase hex digits of `n` (no `0x`).
fn push_hex(out: &mut String, n: u64) {
    let _ = write!(out, "{n:x}");
}

/// Parent → children adjacency over a trace, in CSR form: one O(n) build,
/// then `children(id)` is a slice lookup. Replaces the legacy full-scan
/// (`spans.iter().filter(|s| s.parent == id)`) that made the profiler and
/// critical-path walker O(n²) on scale runs. Children are listed in id
/// (= begin) order, matching the scan order the legacy walk produced.
#[derive(Debug)]
pub struct SpanIndex {
    off: Vec<u32>,
    kids: Vec<SpanId>,
}

impl SpanIndex {
    pub fn build(trace: &Trace) -> SpanIndex {
        let n = trace.span_count();
        let mut counts = vec![0u32; n + 2];
        for s in trace.iter_spans() {
            if let Some(p) = s.parent {
                counts[p.0 as usize] += 1;
            }
        }
        let mut off = vec![0u32; n + 2];
        for id in 1..=n {
            off[id + 1] = off[id] + counts[id];
        }
        let mut next = off.clone();
        let mut kids = vec![SpanId::NONE; off[n + 1] as usize];
        for s in trace.iter_spans() {
            if let Some(p) = s.parent {
                kids[next[p.0 as usize] as usize] = s.id;
                next[p.0 as usize] += 1;
            }
        }
        SpanIndex { off, kids }
    }

    /// Direct children of `id`, in id order.
    pub fn children(&self, id: SpanId) -> &[SpanId] {
        let i = id.0 as usize;
        if id.is_none() || i + 1 >= self.off.len() {
            return &[];
        }
        &self.kids[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// JSON string escaping covering quotes, backslashes and all control
/// characters (newlines and tabs in messages used to produce invalid JSON).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape_json`] appending to `out`: unescaped runs are copied whole.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` holds an ASCII byte, so both slices end on char boundaries.
        out.push_str(&s[run..i]);
        if escaped.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escaped);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Summary of a validated Chrome trace (see [`validate_chrome_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    pub objects: usize,
    pub instants: usize,
    pub begins: usize,
    pub ends: usize,
}

/// Shared per-element check between the in-memory and streaming
/// validators.
fn check_chrome_element(
    item: &crate::json::Value,
    i: usize,
    stats: &mut ChromeTraceStats,
    open: &mut std::collections::BTreeMap<String, i64>,
) -> Result<(), String> {
    use crate::json;
    let json::Value::Object(fields) = item else {
        return Err(format!("array element {i} is not an object"));
    };
    let get = |key: &str| -> Option<&json::Value> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    };
    let Some(json::Value::String(ph)) = get("ph") else {
        return Err(format!("array element {i} has no \"ph\" field"));
    };
    match ph.as_str() {
        "i" => stats.instants += 1,
        "b" | "e" => {
            let Some(json::Value::String(id)) = get("id") else {
                return Err(format!("async event {i} has no \"id\" field"));
            };
            let n = open.entry(id.clone()).or_insert(0);
            if ph == "b" {
                stats.begins += 1;
                *n += 1;
            } else {
                stats.ends += 1;
                *n -= 1;
                if *n < 0 {
                    return Err(format!("\"e\" for id {id} without a matching \"b\""));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

fn check_chrome_balance(open: &std::collections::BTreeMap<String, i64>) -> Result<(), String> {
    if let Some((id, n)) = open.iter().find(|(_, &n)| n != 0) {
        return Err(format!("id {id} has {n} unclosed \"b\" event(s)"));
    }
    Ok(())
}

/// Validate a Chrome tracing JSON document held in memory: it must parse
/// as a JSON array of objects, and every async `"ph":"b"` must have a
/// matching `"ph":"e"` with the same id (balanced, never closing an
/// unopened id). For large on-disk traces use [`validate_chrome_reader`],
/// which checks the same properties chunk-by-chunk in bounded memory.
pub fn validate_chrome_json(s: &str) -> Result<ChromeTraceStats, String> {
    use crate::json;
    let value = json::parse(s)?;
    let json::Value::Array(items) = value else {
        return Err("top-level JSON value is not an array".into());
    };
    let mut stats = ChromeTraceStats {
        objects: items.len(),
        instants: 0,
        begins: 0,
        ends: 0,
    };
    let mut open: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    for (i, item) in items.iter().enumerate() {
        check_chrome_element(item, i, &mut stats, &mut open)?;
    }
    check_chrome_balance(&open)?;
    Ok(stats)
}

/// Streaming variant of [`validate_chrome_json`]: scans the top-level
/// array one element at a time, parsing each object individually, so peak
/// memory is one element plus the open-id table — a multi-GB scale-run
/// trace validates without being materialized. Byte-for-byte the same
/// accept/reject decisions as the in-memory validator.
pub fn validate_chrome_reader<R: io::Read>(r: R) -> Result<ChromeTraceStats, String> {
    use io::Read as _;
    let mut bytes = io::BufReader::new(r).bytes();
    let mut next = || -> Result<Option<u8>, String> {
        match bytes.next() {
            Some(Ok(b)) => Ok(Some(b)),
            Some(Err(e)) => Err(format!("read error: {e}")),
            None => Ok(None),
        }
    };
    // Leading whitespace then '['.
    let mut c = next()?;
    while matches!(c, Some(b) if (b as char).is_ascii_whitespace()) {
        c = next()?;
    }
    if c != Some(b'[') {
        return Err("top-level JSON value is not an array".into());
    }
    let mut stats = ChromeTraceStats {
        objects: 0,
        instants: 0,
        begins: 0,
        ends: 0,
    };
    let mut open: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    let mut expect_element = false; // after a comma an element is mandatory
    loop {
        // Between elements: skip whitespace, handle ',' and ']'.
        let mut b = match next()? {
            Some(b) => b,
            None => return Err("unexpected end of document inside array".into()),
        };
        if (b as char).is_ascii_whitespace() {
            continue;
        }
        match b {
            b']' if !expect_element => break,
            b',' if !expect_element && stats.objects > 0 => {
                expect_element = true;
                continue;
            }
            b',' | b']' => return Err("malformed array separators".into()),
            _ => {}
        }
        // Accumulate one balanced element. Trace documents contain only
        // objects; scalars are accumulated too and rejected by the parse.
        let mut elem: Vec<u8> = Vec::new();
        let mut depth = 0usize;
        let mut in_str = false;
        let mut escaped = false;
        loop {
            elem.push(b);
            if in_str {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_str = false;
                }
            } else {
                match b {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth = depth
                            .checked_sub(1)
                            .ok_or_else(|| "unbalanced brackets in array element".to_string())?;
                    }
                    _ => {}
                }
                // A scalar element ends at the next top-level ',' or ']';
                // push-back is handled by peeking below.
                if depth == 0 && !matches!(b, b'0'..=b'9' | b'a'..=b'z' | b'.' | b'-' | b'+' | b'E')
                {
                    break;
                }
            }
            b = match next()? {
                Some(b) => b,
                None => {
                    if depth == 0 && !in_str {
                        break;
                    }
                    return Err("unexpected end of document inside array element".into());
                }
            };
            // Scalar elements (numbers, literals) end before ',' / ']'.
            if depth == 0 && !in_str && (b == b',' || b == b']') {
                break;
            }
        }
        let text = std::str::from_utf8(&elem).map_err(|e| format!("invalid UTF-8: {e}"))?;
        let value = crate::json::parse(text.trim())?;
        check_chrome_element(&value, stats.objects, &mut stats, &mut open)?;
        stats.objects += 1;
        expect_element = false;
        // If the element scan stopped *on* the separator byte, honor it.
        if depth == 0 && !in_str && (b == b',' || b == b']') {
            if b == b']' {
                break;
            }
            expect_element = true;
        }
    }
    check_chrome_balance(&open)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime(5), "x", "hello");
        let id = t.span_begin(SimTime(5), "x", "s", SpanId::NONE);
        assert!(id.is_none());
        t.span_attr(id, "k", "v");
        t.span_attr_u64(id, "n", 1);
        t.span_attr_text(id, "t", "x");
        t.span_end(SimTime(9), id);
        assert!(t.events().is_empty());
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.iter_spans().count(), 0);
    }

    #[test]
    fn enabled_trace_records_and_filters() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), "pilot", "launch");
        t.record(SimTime(2), "yarn", "rm up");
        t.record(SimTime(3), "pilot", "active");
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.in_category("pilot").count(), 2);
        assert_eq!(t.find("rm up").unwrap().time, SimTime(2));
        assert!(t.find("nope").is_none());
    }

    #[test]
    fn spans_nest_and_complete() {
        let mut t = Trace::enabled();
        let root = t.span_begin(SimTime(0), "pilot", "pilot.run", SpanId::NONE);
        let child = t.span_begin(SimTime(10), "pilot", "pilot.bootstrap", root);
        t.span_attr(child, "mode", "I");
        t.span_end(SimTime(50), child);
        t.span_end(SimTime(90), root);
        assert_eq!(root, SpanId(1));
        assert_eq!(child, SpanId(2));
        let c = t.span(child).unwrap();
        assert_eq!(c.parent, Some(root));
        assert_eq!(c.duration().unwrap().0, 40);
        assert_eq!(t.span_name(c), "pilot.bootstrap");
        assert_eq!(t.attr(c, "mode"), Some(Attr::Str("I")));
        assert_eq!(t.attr(c, "nope"), None);
        assert_eq!(
            t.attrs(c).collect::<Vec<_>>(),
            vec![("mode", Attr::Str("I"))]
        );
        assert_eq!(t.roots_named("pilot.run").count(), 1);
    }

    #[test]
    fn span_names_are_interned() {
        let mut t = Trace::enabled();
        let a = t.span_begin(SimTime(1), "x", "unit.run", SpanId::NONE);
        let b = t.span_begin(SimTime(2), "x", "unit.run", SpanId::NONE);
        assert_eq!(t.span(a).unwrap().name, t.span(b).unwrap().name);
        assert_eq!(t.symbol("unit.run"), Some(t.span(a).unwrap().name));
        assert_eq!(t.symbol("never.recorded"), None);
    }

    #[test]
    fn live_span_accounting_tracks_peak() {
        let mut t = Trace::enabled();
        let a = t.span_begin(SimTime(1), "x", "a", SpanId::NONE);
        let b = t.span_begin(SimTime(2), "x", "b", a);
        assert_eq!(t.live_spans(), 2);
        t.span_end(SimTime(3), b);
        let c = t.span_begin(SimTime(4), "x", "c", a);
        t.span_end(SimTime(5), c);
        t.span_end(SimTime(6), a);
        assert_eq!(t.live_spans(), 0);
        assert_eq!(t.peak_live_spans(), 2);
        // Idempotent re-end must not underflow the live counter.
        t.span_end(SimTime(7), a);
        assert_eq!(t.live_spans(), 0);
    }

    #[test]
    fn chunked_storage_spans_multiple_chunks() {
        let mut t = Trace::enabled();
        let n = CHUNK * 2 + 7;
        for i in 0..n {
            let id = t.span_begin(SimTime(i as u64), "x", "s", SpanId::NONE);
            t.span_end(SimTime(i as u64 + 1), id);
        }
        assert_eq!(t.span_count(), n);
        assert_eq!(t.iter_spans().count(), n);
        // Ids remain sequential and addressable across chunk boundaries.
        for probe in [1u64, CHUNK as u64, CHUNK as u64 + 1, n as u64] {
            assert_eq!(t.span(SpanId(probe)).unwrap().id, SpanId(probe));
        }
        assert!(t.span(SpanId(n as u64 + 1)).is_none());
    }

    #[test]
    fn typed_attributes_resolve_and_keep_the_intern_table_bounded() {
        let mut t = Trace::enabled();
        for i in 0..3_000u64 {
            let s = t.span_begin(SimTime(i), "unit", "unit.run", SpanId::NONE);
            t.span_attr_u64(s, "unit", i);
            t.span_attr_text(s, "name", &format!("u{i}"));
            t.span_attr(s, "mode", "II");
            t.span_end(SimTime(i + 1), s);
        }
        // "", "unit.run", "unit", "name", "mode", "II": history adds none.
        assert_eq!(t.symbols().len(), 6);
        let s = t.span(SpanId(1_235)).unwrap();
        assert_eq!(t.attr(s, "unit"), Some(Attr::U64(1_234)));
        assert_eq!(t.attr(s, "name"), Some(Attr::Str("u1234")));
        assert_eq!(t.attr(s, "mode"), Some(Attr::Str("II")));
        assert_eq!(t.attr(s, "unit").and_then(Attr::as_u64), Some(1_234));
        assert_eq!(t.attr(s, "name").and_then(Attr::as_u64), None);
        // An attribute costs what a (Symbol, Symbol) pair did.
        assert_eq!(
            std::mem::size_of::<(Symbol, AttrValue)>(),
            std::mem::size_of::<(Symbol, Symbol)>()
        );
    }

    #[test]
    fn integers_beyond_the_inline_range_round_trip() {
        let mut t = Trace::enabled();
        let s = t.span_begin(SimTime(0), "x", "s", SpanId::NONE);
        let edge = u64::from(AttrValue::PAYLOAD);
        for v in [0, edge, edge + 1, u64::MAX] {
            t.span_attr_u64(s, &format!("k{v}"), v);
        }
        let span = t.span(s).unwrap();
        let got: Vec<u64> = t.attrs(span).filter_map(|(_, v)| v.as_u64()).collect();
        assert_eq!(got, vec![0, edge, edge + 1, u64::MAX]);
        assert_eq!(t.ints.len(), 2, "only values above the inline range pool");
    }

    #[test]
    fn stored_lines_render_and_compare_like_text() {
        fn line(f: &mut fmt::Formatter<'_>, a: u64, b: u32) -> fmt::Result {
            write!(f, "UnitId({a}) -> {}", ["Done", "Failed"][b as usize])
        }
        let mut t = Trace::enabled();
        t.record_line(SimTime(1), "unit", line, 7, 1);
        t.record(SimTime(1), "unit", format_args!("UnitId({}) -> Failed", 7));
        let [a, b] = t.events() else {
            panic!("two events")
        };
        assert_eq!(a.message.to_string(), "UnitId(7) -> Failed");
        assert_eq!(a, b);
        assert!(a.message.contains("-> Failed"));
        assert_eq!(format!("{:?}", a.message), format!("{:?}", b.message));
        assert!(t.find("UnitId(7)").is_some());
    }

    #[test]
    fn span_end_is_idempotent() {
        let mut t = Trace::enabled();
        let s = t.span_begin(SimTime(1), "x", "s", SpanId::NONE);
        t.span_end(SimTime(5), s);
        t.span_end(SimTime(9), s);
        assert_eq!(t.span(s).unwrap().end, Some(SimTime(5)));
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let mut t = Trace::enabled();
        t.record(SimTime(1_000), "pilot", r#"launch "x""#);
        t.record(SimTime(2_000), "yarn", "rm up");
        let j = t.to_chrome_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        // Metadata rows for both categories + two instant events.
        assert_eq!(j.matches("thread_name").count(), 2);
        assert_eq!(j.matches("\"ph\":\"i\"").count(), 2);
        // Quotes in messages are escaped.
        assert!(j.contains("launch \\\"x\\\""));
        validate_chrome_json(&j).unwrap();
    }

    #[test]
    fn chrome_json_escapes_control_characters() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), "x", "line1\nline2\tcol\rret\u{1}bell");
        let j = t.to_chrome_json();
        assert!(j.contains("line1\\nline2\\tcol\\rret\\u0001bell"));
        assert!(!j.contains('\n'));
        validate_chrome_json(&j).unwrap();
    }

    #[test]
    fn chrome_json_emits_balanced_span_pairs() {
        let mut t = Trace::enabled();
        let root = t.span_begin(SimTime(0), "unit", "unit.run", SpanId::NONE);
        let child = t.span_begin(SimTime(5), "unit", "unit.stage_in", root);
        t.span_attr_u64(child, "bytes", 1024);
        t.span_end(SimTime(9), child);
        t.span_end(SimTime(20), root);
        let open = t.span_begin(SimTime(21), "unit", "abandoned", SpanId::NONE);
        assert!(!open.is_none());
        let j = t.to_chrome_json();
        let stats = validate_chrome_json(&j).unwrap();
        // Only completed spans are exported; the open one is skipped.
        assert_eq!(stats.begins, 2);
        assert_eq!(stats.ends, 2);
        assert!(j.contains("\"bytes\":\"1024\""));
        assert!(j.contains("\"parent\":\"0x1\""));
    }

    #[test]
    fn streaming_validator_matches_in_memory_validator() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), "pilot", "launch \"x\"\nnext");
        let root = t.span_begin(SimTime(0), "unit", "unit.run", SpanId::NONE);
        let child = t.span_begin(SimTime(5), "unit", "unit.stage_in", root);
        t.span_attr_u64(child, "bytes", 1024);
        t.span_end(SimTime(9), child);
        t.span_end(SimTime(20), root);
        let j = t.to_chrome_json();
        let a = validate_chrome_json(&j).unwrap();
        let b = validate_chrome_reader(j.as_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn streaming_validator_rejects_what_the_in_memory_one_rejects() {
        for doc in [
            "[",
            "{}",
            "[1]",
            r#"[{"name":"s","cat":"c","ph":"b","ts":1,"pid":1,"tid":1,"id":"0x1","args":{}}]"#,
            r#"[{"name":"s","cat":"c","ph":"e","ts":1,"pid":1,"tid":1,"id":"0x1"}]"#,
            "[{\"ph\":\"i\",\"name\":\"a\nb\"}]",
            "[,]",
            "[{\"ph\":\"i\"},]",
        ] {
            assert!(
                validate_chrome_reader(doc.as_bytes()).is_err(),
                "accepted {doc:?}"
            );
        }
        // Whitespace layouts the in-memory parser accepts also pass.
        let ok = " [ {\"ph\":\"i\"} , {\"ph\":\"i\"} ] ";
        assert_eq!(validate_chrome_reader(ok.as_bytes()).unwrap().instants, 2);
        assert_eq!(validate_chrome_reader("[]".as_bytes()).unwrap().objects, 0);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_json("[").is_err());
        assert!(validate_chrome_json("{}").is_err());
        assert!(validate_chrome_json("[1]").is_err());
        // Unbalanced: a "b" with no matching "e".
        let unbalanced =
            r#"[{"name":"s","cat":"c","ph":"b","ts":1,"pid":1,"tid":1,"id":"0x1","args":{}}]"#;
        assert!(validate_chrome_json(unbalanced).is_err());
        // "e" before any "b" for that id.
        let inverted = r#"[{"name":"s","cat":"c","ph":"e","ts":1,"pid":1,"tid":1,"id":"0x1"}]"#;
        assert!(validate_chrome_json(inverted).is_err());
        // Raw newline inside a string is invalid JSON.
        assert!(validate_chrome_json("[{\"ph\":\"i\",\"name\":\"a\nb\"}]").is_err());
    }

    #[test]
    fn span_index_matches_naive_children_scan() {
        let mut t = Trace::enabled();
        let root = t.span_begin(SimTime(0), "x", "root", SpanId::NONE);
        let a = t.span_begin(SimTime(1), "x", "a", root);
        let _b = t.span_begin(SimTime(2), "x", "b", root);
        let c = t.span_begin(SimTime(3), "x", "c", a);
        let idx = SpanIndex::build(&t);
        assert_eq!(idx.children(root).len(), 2);
        assert_eq!(idx.children(a), &[c]);
        assert_eq!(idx.children(c), &[] as &[SpanId]);
        assert_eq!(idx.children(SpanId::NONE), &[] as &[SpanId]);
        for s in t.iter_spans() {
            let naive: Vec<SpanId> = t
                .iter_spans()
                .filter(|k| k.parent == Some(s.id))
                .map(|k| k.id)
                .collect();
            assert_eq!(idx.children(s.id), &naive[..]);
        }
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut t = Trace::enabled();
        t.record(SimTime::from_secs_f64(1.0), "a", "m1");
        t.record(SimTime::from_secs_f64(2.0), "b", "m2");
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("m1") && s.contains("m2"));
    }

    #[test]
    fn render_spans_shows_open_and_closed() {
        let mut t = Trace::enabled();
        let a = t.span_begin(SimTime(1), "x", "a", SpanId::NONE);
        t.span_begin(SimTime(2), "x", "b", a);
        t.span_end(SimTime(7), a);
        let s = t.render_spans();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("1..7"));
        assert!(s.contains("open"));
    }
}

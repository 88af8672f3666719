//! Host timing around calls into the simulator's public API, plus the
//! benchmark-side spans of the traced pass.
//!
//! Every timed call goes through [`Clock::begin`]/[`Clock::end`]. The
//! untraced pass only reads the time; the traced pass also keeps a span
//! (name, layer, start, end, parent, run id) in memory. Spans are written
//! out once, after the measured window, by [`Clock::write_json`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The simulator layer whose public call this span wraps, or `bench`
    /// for the benchmark's own grouping spans.
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    run: u32,
}

/// An open timing; hand it back to [`Clock::end`].
pub struct Timing {
    started: Instant,
    span: u32,
}

pub struct Clock {
    origin: Instant,
    traced: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            origin: Instant::now(),
            traced: false,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start a repetition: `traced` selects whether its timings become
    /// spans, `run` tags them.
    pub fn start_run(&mut self, run: u32, traced: bool) {
        debug_assert!(self.open.is_empty(), "a span of the last run is open");
        self.run = run;
        self.traced = traced;
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Timing {
        let started = Instant::now();
        let mut span = NO_PARENT;
        if self.traced {
            span = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                layer,
                start_ns: self.nanos(started),
                end_ns: 0,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                run: self.run,
            });
            self.open.push(span);
        }
        Timing { started, span }
    }

    /// Close `t` and return its duration in seconds.
    pub fn end(&mut self, t: Timing) -> f64 {
        let now = Instant::now();
        if t.span != NO_PARENT {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(t.span), "spans must close innermost first");
            self.spans[t.span as usize].end_ns = self.nanos(now);
        }
        now.duration_since(t.started).as_secs_f64()
    }

    /// Spans open now; pass to [`Clock::unwind_to`] after a caught panic.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened after `depth` was read, at the current
    /// time: the calls they wrapped unwound.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.nanos(Instant::now());
        while self.open.len() > depth {
            let span = self.open.pop().expect("open span");
            self.spans[span as usize].end_ns = now;
        }
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Self time per layer, summed over all recorded spans: a span's
    /// duration minus the part its direct children cover.
    fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The recorded spans, each layer's self time, and the traced pass's
    /// overhead against the untraced pass, as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, overhead: f64) -> std::io::Result<()> {
        let mut s = String::new();
        let _ = write!(s, "{{\"overhead\": {overhead}, \"layer_self_s\": {{");
        for (i, (layer, secs)) in self.layer_self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{layer}\": {secs}");
        }
        s.push_str("}, \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if sp.parent == NO_PARENT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            let _ = write!(
                s,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                sp.name, sp.layer, sp.start_ns, sp.end_ns, sp.run
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

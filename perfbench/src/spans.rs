//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's crates. Spans live in memory and are written out once,
//! when the run ends; spans inside the simulator itself are not recorded.

use crate::util::esc;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    /// Workload pass the span belongs to (shared by every span of it).
    pass: u32,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder. When disabled, `enter`/`exit` do nothing,
/// so the same code path serves traced and untraced passes.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    passes: Vec<String>,
}

/// Handle to an open span; closed by [`Spans::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            passes: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new workload pass; later spans carry its id.
    pub fn begin_pass(&mut self, label: impl Into<String>) {
        self.passes.push(label.into());
        self.pass = self.passes.len() as u32;
    }

    pub fn enter(&mut self, name: impl Into<String>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            pass: self.pass,
            parent: self.open.last().copied(),
            name: name.into(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
            self.open.truncate(pos);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in ns per span name: duration minus the time covered by
    /// direct children, summed over every span of that name.
    fn self_times(&self) -> Vec<(String, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, u64> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child[i]);
            *by_name.entry(&s.name).or_default() += own;
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// The whole recording as one JSON document.
    pub fn json(&self, manifest: &str) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\n\"manifest\": {manifest},\n\"passes\": [");
        for (i, p) in self.passes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}{{\"id\": {}, \"label\": \"{}\"}}", i + 1, esc(p));
        }
        s.push_str("],\n\"self_ns\": {");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\": {ns}", esc(name));
        }
        s.push_str("},\n\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"pass\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                sp.pass,
                esc(&sp.name),
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("]\n}\n");
        s
    }
}

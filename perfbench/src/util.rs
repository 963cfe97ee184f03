//! Small shared helpers: statistics, digests, the run manifest and the
//! result line.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median host nanoseconds per call of `f`, over `batches` batches of
/// `iters` calls each (one untimed batch first warms caches).
pub fn ns_per_call(batches: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

/// FNV-1a over `bytes`, folded into `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a value's `Debug` rendering (configs, reports).
pub fn debug_digest(v: &impl std::fmt::Debug) -> u64 {
    fnv1a(FNV_OFFSET, format!("{v:?}").as_bytes())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `None` if it cannot run
/// or fails. The child is waited for before returning.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout);
    s.lines().next().map(|l| l.trim().to_string())
}

/// Digest of the simulator sources the benchmark was built from: every
/// `Cargo.toml` and `.rs` file under `crates/` and the benchmark's own
/// `src/`, in sorted path order. Identifies the code when the checkout
/// carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("src")
            .as_path(),
        &mut files,
    );
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, p| {
        let h = fnv1a(h, p.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(p).unwrap_or_default())
    })
}

/// What produced a result: code, host, toolchain, seed and configs.
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `(name, digest)` of every configuration the run used.
    pub config_digests: Vec<(String, u64)>,
}

impl Manifest {
    pub fn json(&self) -> String {
        // Only ask git inside a git checkout: elsewhere it would search
        // the parent directories.
        let rev = std::path::Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "HEAD"]))
            .flatten();
        let rustc = command_line("rustc", &["-V"]);
        let opt = |v: Option<String>| v.map_or("null".to_string(), |s| format!("\"{}\"", esc(&s)));
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_rev\": {}, \"source_digest\": \"{:016x}\", \"nproc\": {}, \"rustc\": {}, \
             \"config_digests\": {{",
            esc(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            opt(rev),
            source_digest(),
            nproc(),
            opt(rustc),
        );
        for (i, (name, d)) in self.config_digests.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\": \"{d:016x}\"", esc(name));
        }
        s.push_str("}}");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
pub fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Ordered metric list with a terse insertion helper.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// The `"metrics"` object of the result line. Values print with
    /// Rust's shortest round-trip formatting, so every digit survives.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                esc(&m.name),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

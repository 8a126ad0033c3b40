//! The workload outcome the child process prints as its last stdout line,
//! plus the seeded input stream and output digests every workload shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts operations and failed checks, and collects metrics and
/// information lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric values by name (units live in `main`'s table).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer counters and ratios set by the workload; span times are
    /// added from the tracer.
    pub layers: BTreeMap<&'static str, f64>,
    /// Information only (seed, digests, predictions checked by eye).
    pub info: Vec<(String, String)>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Counts the result of one call into the program.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// The share of attempted operations that succeeded and checked out.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    /// Reports how fast the host ran while the workload's clock ran.
    pub fn host(&mut self, speeds: &crate::hostclock::Speeds) {
        let (probes, median_ratio) = speeds.summary();
        self.info("host_probes", probes);
        self.info("host_probe_over_reference", format!("{median_ratio:.3}"));
    }

    /// Sets the request metrics every workload reports from the latencies
    /// of its requests (see `README.md` for what a request is in each
    /// workload) and the wall seconds they took in all.
    pub fn requests(&mut self, latencies_s: &[f64], total_s: f64) {
        let ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
        self.e2e("lat_p50_ms", median(&ms));
        self.e2e("lat_tail_ms", quantile(&ms, TAIL_QUANTILE));
        self.e2e("sat_rps", latencies_s.len() as f64 / total_s);
    }

    /// The result line: `e2e` and `layers` are `(name, unit)` tables; a
    /// metric the workload did not set reads 0 (and with `layers` empty,
    /// the per-layer object is left out).
    pub fn to_json(&self, e2e: &[(&str, &str)], layers: &[(&str, &str)], traced: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        push_metrics(&mut out, e2e, &self.e2e);
        if traced {
            out.push_str(",\"layers\":");
            push_metrics(&mut out, layers, &self.layers);
        }
        out.push_str(",\"info\":{");
        for (i, (key, value)) in self.info.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{key}\":\"{}\"", escape(value));
        }
        out.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\"", escape(f));
        }
        out.push_str("]}");
        out
    }
}

fn push_metrics(out: &mut String, table: &[(&str, &str)], values: &BTreeMap<&str, f64>) {
    out.push('{');
    for (i, (name, unit)) in table.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let value = values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
        let _ = write!(out, "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
    }
    out.push('}');
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The workload's input stream: every seeded choice comes from here.
#[derive(Debug, Clone)]
pub struct Inputs {
    seed: u64,
    counter: u64,
}

impl Inputs {
    pub fn new(seed: u64, stream: &str) -> Self {
        Inputs { seed: flow::KeyHasher::new().u64(seed).str(stream).finish(), counter: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        flow::rng::draw(self.seed, self.counter)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a digest of a sequence of texts, printed as hex.
#[derive(Debug, Default)]
pub struct Digest(flow::KeyHasher);

impl Digest {
    pub fn add(&mut self, text: &str) -> &mut Self {
        self.0.str(text);
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0.finish())
    }
}

/// The tail percentile of `lat_tail_ms`. `serve_mixed` sends at least 246
/// open-loop requests, so at least ten samples lie beyond it there.
pub const TAIL_QUANTILE: f64 = 0.95;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile by the nearest-rank rule on sorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Characterized timing arcs in `library`.
pub fn arc_count(library: &liberty::Library) -> u64 {
    library.cells().flat_map(|c| c.outputs.iter()).map(|o| o.arcs.len() as u64).sum()
}

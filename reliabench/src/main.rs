//! One workload of the reliability-aware flow's benchmark, in this process.
//!
//! ```text
//! reliabench --workload <charlib_cold|paper_flow|serve_mixed> --seed <n>
//!            --seconds <s> --trace <0|1>
//!            [--spans <path>] [--stderr-file <path>] [--workdir <dir>]
//! ```
//!
//! Prints information lines, then as its last stdout line one JSON object:
//! `correct`, `attempted`, `failed`, `metrics` (every end-to-end metric),
//! with `--trace 1` also `layers` (every per-layer metric), then `info` and
//! `failures`. `run.py` in this directory builds this program, runs it as a
//! child process with its stderr in a file, and turns that line into the
//! benchmark's result.

mod charlib_cold;
mod hostclock;
mod paper_flow;
mod report;
mod serve_mixed;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use trace::Tracer;

/// Worker threads of the timed work. One thread keeps the figures
/// independent of whether a shared 2-core host grants the second core at
/// the moment: with two busy threads, wall times swung by up to 2× from
/// one minute to the next, while single-thread times held within a few
/// percent.
pub const WORKERS: usize = 1;

/// End-to-end metrics, printed by every workload (see `README.md` for what
/// each one measures on each workload).
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("arcs_per_s", "arcs/s"),
    ("flow_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("sat_rps", "req/s"),
];

/// Per-layer self times: metric name and the span it sums.
const SPAN_LAYERS: [(&str, &str); 12] = [
    ("charlib.lib_s", "charlib.library"),
    ("charlib.grid_s", "charlib.complete_library"),
    ("liberty.write_s", "liberty.write"),
    ("liberty.parse_s", "liberty.parse"),
    ("synth.best_s", "synth.best"),
    ("synth.aware_s", "synth.aware"),
    ("sta.analyze_s", "sta.analyze"),
    ("flow.annotate_s", "flow.annotate"),
    ("system_eval.chain_s", "system_eval.chain"),
    ("lint.signoff_s", "lint.signoff"),
    ("dataflow.lifetime_s", "dataflow.lifetime"),
    ("dataflow.mc_s", "dataflow.mc"),
];

/// Every per-layer metric; a layer a workload does not run reads 0.
/// `trace.overhead_pct` is added by `run.py`, which has the untraced run.
const LAYERS: [(&str, &str); 35] = [
    ("charlib.lib_s", "s"),
    ("charlib.grid_s", "s"),
    ("charlib.arcs", "count"),
    ("charlib.arc_ms", "ms"),
    ("liberty.write_s", "s"),
    ("liberty.parse_s", "s"),
    ("liberty.mb", "MB"),
    ("synth.best_s", "s"),
    ("synth.aware_s", "s"),
    ("synth.instances", "count"),
    ("sta.analyze_s", "s"),
    ("flow.annotate_s", "s"),
    ("system_eval.chain_s", "s"),
    ("system_eval.vectors", "count"),
    ("system_eval.late_events", "count"),
    ("lint.signoff_s", "s"),
    ("lint.diagnostics", "count"),
    ("lint.stderr_lines", "count"),
    ("dataflow.lifetime_s", "s"),
    ("dataflow.mc_s", "s"),
    ("dataflow.mc_dies", "count"),
    ("serve.encode_us", "us"),
    ("serve.rtt_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.parse_ns_per_byte", "ns/B"),
    ("serve.mb_in", "MB"),
    ("serve.memo_hits", "count"),
    ("serve.computed", "count"),
    ("serve.coalesced", "count"),
    ("serve.overloads", "count"),
    ("serve.errors", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.arc_hit_rate", "ratio"),
    ("serve.late_ms", "ms"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<String>,
    pub stderr_file: Option<String>,
    /// Directory for the server socket.
    pub workdir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        stderr_file: None,
        workdir: ".bench_build/reliabench".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value != "0",
            "--spans" => args.spans = Some(value),
            "--stderr-file" => args.stderr_file = Some(value),
            "--workdir" => args.workdir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident memory of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `[relialint]` lines the program wrote to this process's stderr file.
fn relialint_lines(path: &str) -> f64 {
    let text = std::fs::read(path).unwrap_or_default();
    text.split(|&b| b == b'\n').filter(|l| l.starts_with(b"[relialint]")).count() as f64
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reliabench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    out.info("workload", &args.workload);
    out.info("seed", args.seed);
    match args.workload.as_str() {
        "charlib_cold" => charlib_cold::run(&args, &tracer, &mut out),
        "paper_flow" => paper_flow::run(&args, &tracer, &mut out),
        "serve_mixed" => serve_mixed::run(&args, &tracer, &mut out),
        other => {
            eprintln!("reliabench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    out.e2e("ok_frac", out.ok_frac());
    out.e2e("peak_rss_mb", peak_rss_mb());
    if tracer.on() {
        let self_times = tracer.self_times();
        for (metric, span) in SPAN_LAYERS {
            out.layer(metric, self_times.get(span).copied().unwrap_or(0.0));
        }
        let char_s = out.layers["charlib.lib_s"] + out.layers["charlib.grid_s"];
        if let Some(&arcs) = out.layers.get("charlib.arcs").filter(|&&a| a > 0.0) {
            out.layer("charlib.arc_ms", char_s * 1e3 / arcs);
        }
        if let Some(path) = &args.stderr_file {
            out.layer("lint.stderr_lines", relialint_lines(path));
        }
        let spans = tracer.spans().len();
        out.layer("trace.spans", spans as f64);
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_jsonl(std::path::Path::new(path)) {
                eprintln!("reliabench: cannot write spans to {path}: {e}");
            }
        }
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", out.to_json(&E2E, &LAYERS, tracer.on()));
    ExitCode::SUCCESS
}

//! `charlib_cold`: cold, uncached characterization on the paper's 7×7 OPC
//! grid, in both shapes of the shared task pool — one scenario × many cells
//! (the fresh 68-cell catalogue) and many scenarios × few cells (the 3×3
//! λ grid at 10 years, worst case included, over three cells).
//! Every library is written as Liberty and parsed back.

use crate::hostclock::{Basis, HostClock, Interval};
use crate::report::{arc_count, median, Digest, Inputs, Outcome};
use crate::trace::Tracer;
use crate::{Args, WORKERS};
use bti::AgingScenario;
use flow::{CharConfig, Characterizer};
use liberty::{parse_library, write_library, Library};
use std::time::Instant;
use stdcells::CellSet;

/// λ-grid resolution of the complete library: `(STEPS + 1)²` scenarios.
const GRID_STEPS: u32 = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Cells re-characterized on two workers to check the timed output.
const CHECK_SAMPLE: usize = 4;

/// The λ-grid cells come one from each family: a single-input cell, a
/// two-input gate and a complex gate. The seed picks the drive strengths;
/// strengths of one family share their topology, so the seed moves the
/// grid's simulation work only through transistor sizing: by about a tenth
/// of the grid library's time over seeds 101–120.
const GRID_GROUPS: [&[&str]; 3] = [
    &["INV_X1", "INV_X2", "INV_X4", "INV_X8"],
    &["NAND2_X1", "NAND2_X2", "NAND2_X4"],
    &["AOI21_X1", "AOI21_X2", "AOI21_X4"],
];

fn paper_config(workers: usize) -> CharConfig {
    CharConfig { parallelism: workers, ..CharConfig::paper() }
}

pub fn run(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let mut inputs = Inputs::new(args.seed, "charlib_cold");
    let grid_cells: Vec<&str> = GRID_GROUPS.iter().map(|g| g[inputs.below(g.len())]).collect();
    let catalog = CellSet::nangate45_like();
    let mut sample: Vec<String> = catalog.iter().map(|d| d.name.clone()).collect();
    inputs.shuffle(&mut sample);
    sample.truncate(CHECK_SAMPLE);
    let mut input_digest = Digest::default();
    for name in grid_cells.iter().copied().chain(sample.iter().map(String::as_str)) {
        input_digest.add(name);
    }
    out.info("grid_cells", grid_cells.join(","));
    out.info("check_sample", sample.join(","));
    out.info("input_digest", input_digest.hex());

    let clock = HostClock::start(Basis::ProcessCpu);
    // Set-up: catalogue, characterizers, and one warm-up cell so the
    // allocator and the page cache are live before timing.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let started = clock.mark();
        let catalog = CellSet::nangate45_like();
        let config = paper_config(WORKERS);
        let full = out.op("characterizer", Characterizer::new(catalog.clone(), config.clone()));
        let grid = out.op(
            "characterizer",
            Characterizer::for_named_cells(&catalog, &grid_cells, config.clone()),
        );
        let warm =
            out.op("characterizer", Characterizer::for_named_cells(&catalog, &["INV_X1"], config));
        if let Some(warm) = &warm {
            out.op("warm-up", warm.library(&AgingScenario::fresh()));
        }
        setups.push(clock.since(started));
        built = full.zip(grid);
    }
    let Some((full, grid)) = built else {
        return;
    };

    let mut latencies = Vec::new();
    let mut pass_times = Vec::new();
    let mut arcs = 0u64;
    let mut liberty_bytes = 0usize;
    let mut output_digest = Digest::default();
    let mut fresh: Option<Library> = None;
    let run_started = Instant::now();
    loop {
        let pass_started = clock.mark();
        for many_scenarios in [false, true] {
            let started = clock.mark();
            let lib = if many_scenarios {
                tracer.span("charlib.complete_library", 0, |_| {
                    grid.complete_library(GRID_STEPS, 10.0)
                })
            } else {
                tracer.span("charlib.library", 0, |_| full.library(&AgingScenario::fresh()))
            };
            let Some(lib) = out.op("characterize", lib) else { continue };
            let text = tracer.span("liberty.write", 0, |_| write_library(&lib));
            let parsed = tracer.span("liberty.parse", 0, |_| parse_library(&text));
            latencies.push(clock.since(started));
            arcs += arc_count(&lib);
            liberty_bytes += text.len();
            if let Some(parsed) = out.op("parse_library", parsed) {
                out.check(parsed == lib, || format!("{}: Liberty round trip differs", lib.name));
            }
            if pass_times.is_empty() {
                output_digest.add(&text);
                if !many_scenarios {
                    fresh = Some(lib);
                }
            }
        }
        let pass = clock.since(pass_started);
        pass_times.push(pass);
        if run_started.elapsed().as_secs_f64() + pass.wall_s() > args.seconds {
            break;
        }
    }
    let speeds = clock.stop();
    let seconds = |intervals: &[Interval]| -> Vec<f64> {
        intervals.iter().map(|&i| speeds.seconds(i)).collect()
    };
    out.e2e("setup_s", median(&seconds(&setups)));
    let latencies_wall: Vec<f64> = latencies.iter().map(Interval::wall_s).collect();
    let latencies = seconds(&latencies);
    let timed_s: f64 = latencies.iter().sum();
    out.host(&speeds);
    out.info("passes", pass_times.len());
    out.info("output_digest", output_digest.hex());
    out.e2e("arcs_per_s", arcs as f64 / timed_s);
    let wall_s: f64 = latencies_wall.iter().sum();
    out.info("uncorrected_arcs_per_s", format!("{:.4}", arcs as f64 / wall_s));
    out.e2e("flow_s", median(&seconds(&pass_times)));
    out.requests(&latencies, timed_s);
    out.layer("charlib.arcs", arcs as f64);
    out.layer("liberty.mb", liberty_bytes as f64 / 1e6);

    // The timed single-worker cells must match the same cells characterized
    // on two pool workers, bit for bit.
    let Some(fresh) = fresh else { return };
    let names: Vec<&str> = sample.iter().map(String::as_str).collect();
    let pooled = Characterizer::for_named_cells(&catalog, &names, paper_config(2))
        .and_then(|c| c.library(&AgingScenario::fresh()));
    if let Some(pooled) = out.op("pooled characterize", pooled) {
        for name in &names {
            out.check(pooled.cell(name) == fresh.cell(name), || {
                format!("{name}: two-worker cell differs from the single-worker one")
            });
        }
    }
}

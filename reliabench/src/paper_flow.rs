//! `paper_flow`: the Fig. 6(c) path after characterization. Set-up builds
//! the fresh and worst-case 10 y libraries of [`SYNTH_CELLS`] in memory;
//! the timed phase
//! synthesizes DCT and IDCT aging-unaware and aging-aware, sets the clock
//! from the fresh critical path, runs the gate-level DCT→IDCT chain under
//! both libraries, and signs the aware DCT off (lint with the lifetime
//! rules, the static lifetime bound and a Monte-Carlo lifetime).

use crate::hostclock::{Basis, HostClock, Interval};
use crate::report::{arc_count, Digest, Inputs, Outcome};
use crate::trace::Tracer;
use crate::{Args, WORKERS};
use bti::AgingScenario;
use flow::{CharConfig, Characterizer, ImageChainResult};
use liberty::Library;
use netlist::Netlist;
use stdcells::CellSet;
use synth::MapOptions;

/// Edge of the seeded test image in pixels: (16/8)² blocks.
const IMAGE_EDGE: usize = 16;

/// The test image: each 8×8 block is a whole procedural test scene of its
/// own seed, so every block carries gradients, edges and texture. One
/// 16×16 scene puts its two one-pixel bars in a varying number of blocks,
/// and the gate-level simulation's work, which follows the data's
/// activity, then swung by a third from seed to seed.
fn tiled_image(inputs: &mut Inputs) -> imgproc::GrayImage {
    let mut image = imgproc::GrayImage::new(IMAGE_EDGE, IMAGE_EDGE);
    for by in 0..IMAGE_EDGE / 8 {
        for bx in 0..IMAGE_EDGE / 8 {
            let tile = imgproc::synthetic::test_image(8, 8, inputs.next_u64());
            image.set_block8(bx, by, &tile.block8(0, 0));
        }
    }
    image
}

/// Dies sampled by the Monte-Carlo lifetime.
const MC_DIES: usize = 2;
/// The cells the designs are mapped onto: inverters, buffers, the two- and
/// three-input gates, AOI/OAI21, XOR/XNOR and MUX2, in their lower drive
/// strengths. Characterizing 26 of the 68 cells keeps set-up within the
/// run's time budget on one worker; `charlib_cold` covers the full
/// catalogue.
const SYNTH_CELLS: [&str; 26] = [
    "INV_X1", "INV_X2", "INV_X4", "INV_X8", "BUF_X1", "BUF_X2", "BUF_X4", "NAND2_X1", "NAND2_X2",
    "NAND2_X4", "NOR2_X1", "NOR2_X2", "NOR2_X4", "NAND3_X1", "NOR3_X1", "AOI21_X1", "AOI21_X2",
    "OAI21_X1", "OAI21_X2", "XOR2_X1", "XOR2_X2", "XNOR2_X1", "XNOR2_X2", "AND2_X1", "OR2_X1",
    "MUX2_X1",
];

/// PSNR below which the paper calls the output unacceptable.
const ACCEPTABLE_DB: f64 = 30.0;

pub fn run(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let mut inputs = Inputs::new(args.seed, "paper_flow");
    let image = tiled_image(&mut inputs);
    let die_seed = inputs.next_u64();
    out.info("die_seed", die_seed);
    out.info("input_digest", Digest::default().add(&format!("{:?}", image.pixels())).hex());

    let clock = HostClock::start(Basis::ProcessCpu);
    let setup_started = clock.mark();
    let config = CharConfig { parallelism: WORKERS, ..CharConfig::paper() };
    let chars = Characterizer::for_named_cells(&CellSet::nangate45_like(), &SYNTH_CELLS, config);
    let Some(chars) = out.op("characterizer", chars) else {
        return;
    };
    let libs: Vec<Option<Library>> = [AgingScenario::fresh(), AgingScenario::worst_case(10.0)]
        .iter()
        .map(|s| {
            let lib = tracer.span("charlib.library", 0, |_| chars.library(s));
            out.op("characterize", lib)
        })
        .collect();
    let setup = clock.since(setup_started);
    let arcs: u64 = libs.iter().flatten().map(arc_count).sum();
    out.layer("charlib.arcs", arcs as f64);
    let [Some(fresh), Some(aged)] = <[Option<Library>; 2]>::try_from(libs).unwrap_or([None, None])
    else {
        return;
    };

    let started = clock.mark();
    let result = tracer.span("flow", 0, |root| {
        timed(tracer, &clock, root, out, &fresh, &aged, &image, &chars, die_seed)
    });
    let flow = clock.since(started);
    let speeds = clock.stop();
    out.host(&speeds);
    let setup_s = speeds.seconds(setup);
    out.e2e("setup_s", setup_s);
    out.e2e("arcs_per_s", arcs as f64 / setup_s);
    out.e2e("flow_s", speeds.seconds(flow));
    out.info("uncorrected_flow_s", format!("{:.4}", flow.wall_s()));
    out.info("uncorrected_setup_s", format!("{:.4}", setup.wall_s()));
    let Some(timed) = result else { return };
    let synthesis_s: Vec<f64> = timed.syntheses.iter().map(|&i| speeds.seconds(i)).collect();
    out.requests(&synthesis_s, synthesis_s.iter().sum());

    let [fu, fa, au, aa] = &timed.chains;
    out.info("period_ps", format!("{:.2}", timed.period * 1e12));
    for (name, r) in [("fresh_unaware", fu), ("fresh_aware", fa), ("worst10_unaware", au)] {
        out.info(&format!("psnr_{name}_db"), format!("{:.2}", r.psnr_db));
    }
    out.info("psnr_worst10_aware_db", format!("{:.2}", aa.psnr_db));
    // On a 16×16 image the Fig. 6(c) shape depends on which paths the
    // image excites (one seed leaves the unaware design on time at worst
    // 10 y and the aware one late), so the PSNRs are reported, not gated.
    // Gated: the clock is the unaware design's fresh critical path, so it
    // is never late fresh, and any chain run with no late event must
    // reproduce the software DCT→IDCT reference exactly.
    out.info("fig6c_shape_holds", au.psnr_db < ACCEPTABLE_DB && aa.psnr_db >= ACCEPTABLE_DB);
    out.check(fu.late_events == 0, || {
        format!("unaware design has {} late events at its own fresh clock", fu.late_events)
    });
    let reference = flow::system_eval::reference_chain(&image);
    for (name, r) in [("fresh unaware", fu), ("fresh aware", fa), ("worst-10 y unaware", au)]
        .into_iter()
        .chain([("worst-10 y aware", aa)])
    {
        out.check(r.late_events > 0 || r.output == reference, || {
            format!("{name}: no late events, yet the output differs from the reference")
        });
    }
    out.check(timed.mc_contains, || "MC lifetime distribution misses the static bound".into());
    let mut output_digest = Digest::default();
    for nl in &timed.netlists {
        output_digest.add(&netlist::verilog::write_verilog(nl));
    }
    for r in &timed.chains {
        output_digest.add(&format!("{:?}", r.output.pixels()));
    }
    out.info("output_digest", output_digest.hex());

    let instances: usize = timed.netlists.iter().map(Netlist::instance_count).sum();
    out.layer("synth.instances", instances as f64);
    let blocks = (IMAGE_EDGE / 8) * (IMAGE_EDGE / 8);
    // Four 1-D passes of eight vectors per block, per chain run.
    out.layer("system_eval.vectors", (timed.chains.len() * blocks * 32) as f64);
    let late: usize = timed.chains.iter().map(|r| r.late_events).sum();
    out.layer("system_eval.late_events", late as f64);
    out.layer("lint.diagnostics", timed.diagnostics as f64);
    out.layer("dataflow.mc_dies", MC_DIES as f64);
}

struct Timed {
    period: f64,
    /// Unaware DCT, unaware IDCT, aware DCT, aware IDCT.
    netlists: Vec<Netlist>,
    /// Fresh unaware, fresh aware, worst-10 y unaware, worst-10 y aware.
    chains: [ImageChainResult; 4],
    diagnostics: usize,
    mc_contains: bool,
    /// Each of the four syntheses.
    syntheses: Vec<Interval>,
}

#[allow(clippy::too_many_arguments)]
fn timed(
    tracer: &Tracer,
    clock: &HostClock,
    root: u64,
    out: &mut Outcome,
    fresh: &Library,
    aged: &Library,
    image: &imgproc::GrayImage,
    chars: &Characterizer,
    die_seed: u64,
) -> Option<Timed> {
    let dct = circuits::dct8();
    let idct = circuits::idct8();
    let options = MapOptions::default();
    // Each synthesis is one request: the same work on every seed, so its
    // latency does not follow the test image the way an evaluation does.
    let mut syntheses = Vec::with_capacity(4);
    let mut synthesize = |name, f: &dyn Fn() -> Result<Netlist, synth::SynthError>| {
        let (nl, interval) = clock.time(|| tracer.span(name, root, |_| f()));
        syntheses.push(interval);
        nl
    };
    let ud = synthesize("synth.best", &|| flow::synthesize_best(&dct.aig, fresh, &options));
    let ui = synthesize("synth.best", &|| flow::synthesize_best(&idct.aig, fresh, &options));
    let ad = synthesize("synth.aware", &|| {
        flow::synthesize_aging_aware(&dct.aig, fresh, aged, &options)
    });
    let ai = synthesize("synth.aware", &|| {
        flow::synthesize_aging_aware(&idct.aig, fresh, aged, &options)
    });
    let ud = out.op("synthesize", ud)?;
    let ui = out.op("synthesize", ui)?;
    let ad = out.op("synthesize", ad)?;
    let ai = out.op("synthesize", ai)?;

    let constraints = sta::Constraints::default();
    let cp = |nl: &Netlist| {
        tracer
            .span("sta.analyze", root, |_| sta::analyze(nl, fresh, &constraints))
            .map(|r| r.critical_delay())
    };
    let period = out.op("sta", cp(&ud))?.max(out.op("sta", cp(&ui))?) * 1.001;

    let mut results = Vec::with_capacity(4);
    for lib in [fresh, aged] {
        for (d, i) in [(&ud, &ui), (&ad, &ai)] {
            let annotate = |nl| {
                tracer.span("flow.annotate", root, |_| {
                    flow::annotation_from_sta(nl, lib, &constraints)
                })
            };
            let da = out.op("annotate", annotate(d))?;
            let ia = out.op("annotate", annotate(i))?;
            let chain = tracer.span("system_eval.chain", root, |_| {
                flow::run_image_chain(image, d, &dct, i, &idct, lib, &da, &ia, period)
            });
            results.push(out.op("image chain", chain)?);
        }
    }
    let chains = <[ImageChainResult; 4]>::try_from(results).ok()?;

    let lint_config = lint::LintConfig {
        clock_period: Some(period),
        lifetime: Some(lint::LifetimeLintConfig::default()),
        ..lint::LintConfig::default()
    };
    let report =
        tracer.span("lint.signoff", root, |_| lint::LintReport::run(&ad, aged, &lint_config));
    let lifetime = dataflow::LifetimeConfig::default();
    let df = dataflow::DataflowConfig::default();
    let bound = tracer.span("dataflow.lifetime", root, |_| {
        dataflow::static_lifetime_bound(&ad, aged, &lifetime, &df)
    });
    out.check(bound.design_mttf_lo_years > 0.0, || "static lifetime bound is not positive".into());
    let varied = chars.clone().with_variation(ptm::VariationModel::nominal_45nm(), die_seed);
    let mc = tracer
        .span("dataflow.mc", root, |_| varied.mc_lifetime(&ad, aged, &lifetime, &df, MC_DIES));
    Some(Timed {
        period,
        netlists: vec![ud, ui, ad, ai],
        chains,
        diagnostics: report.diagnostics().len(),
        mc_contains: mc.distribution.contains_static_bound(),
        syntheses,
    })
}

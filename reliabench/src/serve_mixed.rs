//! `serve_mixed`: an in-process characterization server under mixed load
//! from raw-socket clients.
//!
//! Set-up binds the server and warms its memo with a seeded hot key set:
//! cell subsets of 1–16 cells on the fast 3×3 and the paper 7×7 OPC grid,
//! so responses span about 2–116 KB. Then two phases over the keys up to
//! 18 KB (see [`CYCLE`]):
//!
//! - **open loop** at a fixed rate on one connection: each request is timed
//!   from its due time, so any wait behind an earlier request counts. Once
//!   per schedule cycle a novel key is sent, with its
//!   duplicate on a second connection at the same due time, so
//!   compute-on-miss and coalescing (the writes) run beside memo hits (the
//!   reads);
//! - **closed loop** on one connection: the next hot request goes out when
//!   the previous one is parsed, in whole schedule cycles.
//!
//! One connection carries the measured traffic so that only one client
//! thread is busy at a time: on a shared 2-core host the second core comes
//! and goes, and two busy clients made the figures swing by up to 2×.
//! `Request::to_line`, the socket round trip and `Response::parse` are timed
//! as separate spans.

use crate::hostclock::{Basis, HostClock, Interval};
use crate::report::{arc_count, median, quantile, Digest, Inputs, Outcome, TAIL_QUANTILE};
use crate::trace::Tracer;
use crate::Args;
use flow::{CharConfig, Characterizer};
use serve::{CharRequest, Request, Response, ServeConfig, ServedVia, Server, StatsSnapshot};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Open-loop arrival rate.
const RATE_PER_S: f64 = 16.0;
/// Share of `--seconds` spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.6;
/// Open-loop cycles at least: 6 × 41 = 246 requests, so twelve lie beyond
/// the p95 tail.
const MIN_OPEN_CYCLES: usize = 6;
/// Cells of a novel key (fast grid): one, so its compute-and-parse latency
/// stays well below the p95 cluster.
const NOVEL_CELLS: usize = 1;

/// Drive strengths of the cell families keys are made of.
const FAMILIES: [(&str, &[u32]); 6] = [
    ("INV", &[1, 2, 4, 8, 16, 32]),
    ("BUF", &[1, 2, 4, 8, 16, 32]),
    ("NAND2", &[1, 2, 4]),
    ("NOR2", &[1, 2, 4]),
    ("AND2", &[1, 2, 4]),
    ("OR2", &[1, 2, 4]),
];

/// A key of `n` cells takes the first `n` slots (indices into
/// [`FAMILIES`]); the k-th slot of a family takes its k-th strength. Mostly
/// single-input cells keep the 16-cell paper-grid response near 120 KB.
/// The cells of a key depend only on its size, so every seed serves the
/// same response sizes and characterization work; the seed sets each key's
/// λp, λn and lifetime, and the novel keys.
const SLOTS: [usize; 16] = [0, 2, 1, 3, 0, 1, 0, 1, 4, 0, 1, 5, 0, 1, 0, 1];

/// The hot key set as (cells, paper grid).
const HOT: [(usize, bool); 11] = [
    (1, false),
    (2, false),
    (3, false),
    (4, false),
    (8, false),
    (16, false),
    (1, true),
    (2, true),
    (4, true),
    (8, true),
    (16, true),
];

/// The open-loop schedule: 40 slots (41 requests) per cycle, indices into
/// [`HOT`], and `None` for a novel key sent together with its duplicate.
/// Popularity is skewed: the 4-cell fast key (~11 KB) takes 20 slots, so
/// the median falls inside its latency cluster; the two ~18 KB keys take 8
/// slots, so the p95 falls inside theirs. The closed loop repeats the same
/// hot slots. Every response here parses in well under the slot interval,
/// so the single connection rarely queues, and out of L1: larger responses
/// are parsed out of L2, and on a shared host their parse time swung by
/// 15–70% between calls and runs, so the 35–116 KB keys are served only in
/// the warm-up.
#[rustfmt::skip]
const CYCLE: [Option<usize>; 40] = [
    Some(7), Some(3), Some(0), Some(6), Some(3), Some(4), Some(3), Some(1), Some(3), Some(3),
    Some(7), Some(3), Some(6), Some(2), Some(3), Some(4), Some(3), Some(2), Some(3), Some(3),
    Some(7), Some(3), None, Some(3), Some(3), Some(4), Some(3), Some(1), Some(1), Some(3),
    Some(7), Some(3), Some(0), Some(3), Some(3), Some(4), Some(3), Some(1), Some(0), Some(3),
];

#[derive(Debug, Clone)]
struct Key {
    request: CharRequest,
}

impl Key {
    fn seeded(inputs: &mut Inputs, cells: usize, paper: bool) -> Key {
        let mut used = [0usize; FAMILIES.len()];
        let names: Vec<String> = SLOTS[..cells]
            .iter()
            .map(|&f| {
                let (family, strengths) = FAMILIES[f];
                used[f] += 1;
                format!("{family}_X{}", strengths[used[f] - 1])
            })
            .collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let lambda = |inputs: &mut Inputs| (inputs.unit() * 100.0).round() / 100.0;
        let (lp, ln) = (lambda(inputs), lambda(inputs));
        let years = [1.0, 3.0, 10.0][inputs.below(3)];
        let mut request = CharRequest::new(&names, lp, ln, years);
        if paper {
            let grid = CharConfig::paper();
            request.slews = grid.slews;
            request.loads = grid.loads;
            request.max_dv = grid.max_dv;
        }
        Key { request }
    }

    /// The library a direct, single-threaded `Characterizer` run produces
    /// for this key, as Liberty text.
    fn direct(&self, catalog: &stdcells::CellSet) -> Result<String, String> {
        let r = &self.request;
        let duty = |v| bti::DutyCycle::new(v).map_err(|e| e.to_string());
        let scenario = bti::AgingScenario::new(duty(r.lambda_pmos)?, duty(r.lambda_nmos)?, r.years)
            .with_environment(r.temperature_k, r.vdd);
        let config = CharConfig {
            vdd: r.vdd,
            slews: r.slews.clone(),
            loads: r.loads.clone(),
            max_dv: r.max_dv,
            parallelism: 1,
            ..CharConfig::fast()
        };
        let names: Vec<&str> = r.cells.iter().map(String::as_str).collect();
        let lib = Characterizer::for_named_cells(catalog, &names, config)
            .and_then(|c| c.library(&scenario))
            .map_err(|e| e.to_string())?;
        Ok(liberty::write_library(&lib))
    }
}

/// A raw-socket connection.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// One answered request.
struct Reply {
    response: Response,
    bytes: usize,
}

static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    fn call(
        &mut self,
        tracer: &Tracer,
        make: impl FnOnce(&str) -> Request,
    ) -> Result<Reply, String> {
        let id = REQUEST_IDS.fetch_add(1, Ordering::Relaxed);
        tracer.span_req("serve.request", 0, id, |parent| {
            let request = make(&format!("r{id}"));
            let mut line = tracer.span_req("serve.encode", parent, id, |_| request.to_line());
            line.push('\n');
            let mut reply = String::new();
            tracer
                .span_req("serve.rtt", parent, id, |_| {
                    self.writer.write_all(line.as_bytes())?;
                    self.reader.read_line(&mut reply)
                })
                .map_err(|e| e.to_string())?;
            if reply.is_empty() {
                return Err("server closed the connection".to_owned());
            }
            let response = tracer
                .span_req("serve.parse", parent, id, |_| Response::parse(reply.trim_end()))?;
            Ok(Reply { response, bytes: reply.len() })
        })
    }

    fn stats(&mut self, tracer: &Tracer) -> Result<StatsSnapshot, String> {
        match self.call(tracer, Request::stats)?.response {
            Response::Stats { snapshot, .. } => Ok(snapshot),
            other => Err(format!("stats answered with {other:?}")),
        }
    }
}

/// A bound server with a warm memo and the two client connections.
struct Warm {
    handle: serve::ServerHandle,
    main: Conn,
    burst: Conn,
    /// The library each hot key's warm-up served.
    warmed: Vec<Option<String>>,
}

impl Warm {
    fn close(self) {
        drop((self.main, self.burst));
        self.handle.shutdown();
    }
}

/// Binds a server on `socket`, connects both clients and warms the memo
/// with every hot key, each of which must be computed.
#[allow(clippy::too_many_arguments)]
fn set_up(
    clock: &HostClock,
    tracer: &Tracer,
    out: &mut Outcome,
    hot: &[Key],
    socket: &Path,
    catalog: &stdcells::CellSet,
    bytes_in: &AtomicU64,
    computes: &mut Vec<(f64, Interval)>,
) -> Option<Warm> {
    let config = ServeConfig {
        workers: 1,
        max_inflight: 2,
        queue_timeout: Duration::from_secs(60),
        ..ServeConfig::new(socket)
    };
    let server = out.op("bind", Server::bind(config, catalog.clone()))?;
    let handle = server.spawn();
    let (Some(mut main), Some(burst)) =
        (out.op("connect", Conn::open(socket)), out.op("connect", Conn::open(socket)))
    else {
        handle.shutdown();
        return None;
    };
    let mut warmed: Vec<Option<String>> = vec![None; hot.len()];
    for (k, key) in hot.iter().enumerate() {
        let (reply, call) =
            clock.time(|| main.call(tracer, |id| Request::characterize(id, key.request.clone())));
        let problem = match &reply {
            Err(e) => Some(e.clone()),
            Ok(reply) => match library_of(reply) {
                Some((text, ServedVia::Computed)) => {
                    bytes_in.fetch_add(reply.bytes as u64, Ordering::Relaxed);
                    warmed[k] = Some(text.to_owned());
                    computes.push((server_s(reply), call));
                    None
                }
                Some((_, via)) => Some(format!("served via {}", via.as_str())),
                None => Some(format!("{:?}", reply.response)),
            },
        };
        out.check(problem.is_none(), || {
            format!("warm-up of hot key {k}: {}", problem.unwrap_or_default())
        });
    }
    Some(Warm { handle, main, burst, warmed })
}

/// The library text of an `Ok` response.
fn library_of(reply: &Reply) -> Option<(&str, ServedVia)> {
    match &reply.response {
        Response::Ok { library, via, .. } => Some((library.as_str(), *via)),
        _ => None,
    }
}

/// Server-side service time of an `Ok` response in seconds.
fn server_s(reply: &Reply) -> f64 {
    match &reply.response {
        Response::Ok { micros, .. } => *micros as f64 * 1e-6,
        _ => 0.0,
    }
}

/// One open-loop slot of the schedule.
struct Slot {
    due: Duration,
    /// Index into the hot keys, or into the novel keys.
    hot: Option<usize>,
    novel: Option<usize>,
}

/// The outcome of one open-loop request.
struct Sample {
    latency: Interval,
    late_s: f64,
    ok: bool,
}

pub fn run(args: &Args, tracer: &Tracer, out: &mut Outcome) {
    let mut inputs = Inputs::new(args.seed, "serve_mixed");
    let hot: Vec<Key> = HOT.iter().map(|&(n, paper)| Key::seeded(&mut inputs, n, paper)).collect();
    let open_cycles = ((args.seconds * OPEN_SHARE * RATE_PER_S) / CYCLE.len() as f64) as usize;
    let open_cycles = open_cycles.max(MIN_OPEN_CYCLES);
    let novel: Vec<Key> =
        (0..open_cycles).map(|_| Key::seeded(&mut inputs, NOVEL_CELLS, false)).collect();
    let mut input_digest = Digest::default();
    for key in hot.iter().chain(&novel) {
        input_digest.add(&Request::characterize("", key.request.clone()).to_line());
    }
    out.info("hot_keys", hot.len());
    out.info("novel_keys", novel.len());
    out.info("input_digest", input_digest.hex());

    // Set-up, SETUPS times: bind, spawn and warm the memo with every hot
    // key. The load runs against the last server.
    let clock = HostClock::start(Basis::Wall);
    let catalog = stdcells::CellSet::nangate45_like();
    // Every response byte the client parsed, warm-up included.
    let bytes_in = AtomicU64::new(0);
    let mut setups = Vec::with_capacity(SETUPS);
    // The server's own compute seconds of each warm-up call, with the call.
    let mut computes: Vec<(f64, Interval)> = Vec::new();
    let mut first_warmed: Option<Vec<Option<String>>> = None;
    let mut built: Option<Warm> = None;
    for i in 0..SETUPS {
        if let Some(previous) = built.take() {
            previous.close();
        }
        let started = clock.mark();
        let socket =
            Path::new(&args.workdir).join(format!("serve-{}-{i}.sock", std::process::id()));
        built = set_up(&clock, tracer, out, &hot, &socket, &catalog, &bytes_in, &mut computes);
        setups.push(clock.since(started));
        if let Some(warm) = &built {
            match &first_warmed {
                None => first_warmed = Some(warm.warmed.clone()),
                Some(first) => out.check(first == &warm.warmed, || {
                    format!("set-up {i} served other libraries than set-up 0")
                }),
            }
        }
    }
    let Some(Warm { handle, mut main, mut burst, warmed }) = built else {
        return;
    };
    let hot_digests: Vec<Option<u64>> =
        warmed.iter().map(|t| t.as_deref().map(text_hash)).collect();
    let mut output_digest = Digest::default();
    for text in warmed.iter().flatten() {
        output_digest.add(text);
    }
    let arcs: u64 = warmed
        .iter()
        .flatten()
        .filter_map(|t| liberty::parse_library(t).ok())
        .map(|lib| arc_count(&lib))
        .sum();
    let sizes: Vec<String> =
        warmed.iter().map(|t| t.as_ref().map_or(0, String::len).to_string()).collect();
    out.info("hot_key_bytes", sizes.join(","));

    let before = out.op("stats", main.stats(tracer));

    // Open loop: the main connection sends every slot in order; the burst
    // connection sends the duplicate of each novel request at the same due
    // time.
    let interval = 1.0 / RATE_PER_S;
    let mut slots = Vec::new();
    let mut duplicates = Vec::new();
    for cycle in 0..open_cycles {
        for (j, entry) in CYCLE.iter().enumerate() {
            let due = Duration::from_secs_f64(((cycle * CYCLE.len()) + j) as f64 * interval);
            match entry {
                Some(k) => slots.push(Slot { due, hot: Some(*k), novel: None }),
                None => {
                    slots.push(Slot { due, hot: None, novel: Some(cycle) });
                    duplicates.push(Slot { due, hot: None, novel: Some(cycle) });
                }
            }
        }
    }
    let samples = Mutex::new(Vec::with_capacity(slots.len() + duplicates.len()));
    let failures = Mutex::new(Vec::new());
    let open_started = Instant::now();
    let send = |conn: &mut Conn, slot: &Slot| {
        let due = open_started + slot.due;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let from = clock.mark_at(due);
        let late_s = Instant::now().duration_since(due).as_secs_f64();
        let key = match (slot.hot, slot.novel) {
            (Some(k), _) => &hot[k],
            (None, Some(n)) => &novel[n],
            (None, None) => unreachable!("every slot names a key"),
        };
        let result = conn.call(tracer, |id| Request::characterize(id, key.request.clone()));
        let latency = clock.since(from);
        let problem = match &result {
            Err(e) => Some(e.clone()),
            Ok(reply) => {
                bytes_in.fetch_add(reply.bytes as u64, Ordering::Relaxed);
                check_reply(reply, slot.hot.map(|k| (k, hot_digests[k])))
            }
        };
        let ok = problem.is_none();
        if let Some(p) = problem {
            failures.lock().expect("failure list poisoned").push(format!("open loop: {p}"));
        }
        samples.lock().expect("sample list poisoned").push(Sample { latency, late_s, ok });
    };
    std::thread::scope(|scope| {
        scope.spawn(|| duplicates.iter().for_each(|slot| send(&mut burst, slot)));
        slots.iter().for_each(|slot| send(&mut main, slot));
    });
    let samples = samples.into_inner().expect("sample list poisoned");

    // Closed loop: whole cycles of the open-loop schedule's hot slots,
    // until the time is up.
    let hot_cycle: Vec<usize> = CYCLE.iter().flatten().copied().collect();
    let closed_s = (args.seconds - open_started.elapsed().as_secs_f64()).max(1.0);
    let mut completed = 0u64;
    let mut closed_attempts = 0u64;
    let mut cycle_times = Vec::new();
    let closed_started = Instant::now();
    while closed_started.elapsed().as_secs_f64() < closed_s {
        let cycle_started = clock.mark();
        for &k in &hot_cycle {
            closed_attempts += 1;
            let result = main.call(tracer, |id| Request::characterize(id, hot[k].request.clone()));
            let problem = match &result {
                Err(e) => Some(e.clone()),
                Ok(reply) => {
                    bytes_in.fetch_add(reply.bytes as u64, Ordering::Relaxed);
                    check_reply(reply, Some((k, hot_digests[k])))
                }
            };
            match problem {
                None => completed += 1,
                Some(p) => {
                    failures
                        .lock()
                        .expect("failure list poisoned")
                        .push(format!("closed loop: {p}"));
                }
            }
        }
        cycle_times.push(clock.since(cycle_started));
    }
    let after = out.op("stats", main.stats(tracer));
    let speeds = clock.stop();
    drop((main, burst));
    handle.shutdown();
    out.host(&speeds);
    let setups: Vec<f64> = setups.iter().map(|&i| speeds.seconds(i)).collect();
    out.e2e("setup_s", median(&setups));
    // Server-side characterization time, so the client's parse of the
    // large responses does not count.
    let compute_s: f64 = computes.iter().map(|&(s, call)| s * speeds.scale(call)).sum();
    // Every set-up computes the hot set once.
    out.e2e("arcs_per_s", (arcs * SETUPS as u64) as f64 / compute_s);

    let failures = failures.into_inner().expect("failure list poisoned");
    out.attempted += samples.len() as u64 + closed_attempts;
    for f in failures {
        out.fail(f);
    }
    // A failed request counts as over any latency limit.
    let latencies_ms: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { speeds.seconds(s.latency) * 1e3 } else { f64::INFINITY })
        .collect();
    out.e2e("lat_p50_ms", median(&latencies_ms));
    out.e2e("lat_tail_ms", quantile(&latencies_ms, TAIL_QUANTILE));
    // The mean cycle over the whole closed loop: the host's slow spells
    // last about a second, and a median over cycles jumped between its
    // fast and its slow cycles.
    let closed: f64 = cycle_times.iter().map(|&c| speeds.seconds(c)).sum();
    let cycle_s = closed / cycle_times.len().max(1) as f64;
    out.e2e("sat_rps", completed as f64 / closed);
    out.e2e("flow_s", cycle_s);
    let wall: f64 = cycle_times.iter().map(Interval::wall_s).sum();
    out.info("uncorrected_flow_s", format!("{:.5}", wall / cycle_times.len().max(1) as f64));
    let wall: Vec<f64> = samples.iter().map(|s| s.latency.wall_s() * 1e3).collect();
    out.info("uncorrected_lat_p50_ms", format!("{:.4}", median(&wall)));
    let cycles: Vec<String> = cycle_times.iter().map(|t| format!("{:.3}", t.wall_s())).collect();
    out.info("closed_cycle_s", cycles.join(","));
    out.info("open_requests", samples.len());
    out.info("closed_requests", completed);
    out.info("tail_quantile", TAIL_QUANTILE);

    // A seeded sample of served libraries must be byte-identical to a
    // direct characterization: one small key on each grid.
    let small_fast = inputs.below(4);
    let small_paper = 6 + inputs.below(3);
    for k in [small_fast, small_paper] {
        if let Some(served) = &warmed[k] {
            if let Some(direct) = out.op("direct characterize", hot[k].direct(&catalog)) {
                out.check(&direct == served, || format!("hot key {k}: served library differs"));
            }
        }
    }
    out.info("checked_hot_keys", format!("{small_fast},{small_paper}"));
    out.info("output_digest", output_digest.hex());

    if tracer.on() {
        let spans = tracer.spans();
        let durations = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
                .collect()
        };
        let parse = durations("serve.parse");
        let bytes = bytes_in.load(Ordering::Relaxed) as f64;
        out.layer("serve.encode_us", median(&durations("serve.encode")) * 1e6);
        out.layer("serve.rtt_ms", median(&durations("serve.rtt")) * 1e3);
        out.layer("serve.parse_ms", median(&parse) * 1e3);
        out.layer("serve.parse_ns_per_byte", parse.iter().sum::<f64>() * 1e9 / bytes);
        out.layer("serve.mb_in", bytes / 1e6);
        let late: Vec<f64> = samples.iter().map(|s| s.late_s * 1e3).collect();
        out.layer("serve.late_ms", quantile(&late, TAIL_QUANTILE));
        if let (Some(b), Some(a)) = (before, after) {
            let d = |f: fn(&StatsSnapshot) -> u64| f(&a).saturating_sub(f(&b)) as f64;
            // The closing stats request is counted in `after`.
            let requests = d(|s| s.requests) - 1.0;
            let hits = d(|s| s.library.hits);
            out.layer("serve.memo_hits", hits);
            out.layer("serve.computed", d(|s| s.library.computed));
            out.layer("serve.coalesced", d(|s| s.library.coalesced));
            out.layer("serve.overloads", d(|s| s.overloads));
            out.layer("serve.errors", d(|s| s.errors));
            out.layer("serve.memo_hit_ratio", hits / requests.max(1.0));
            let arc_hits = d(|s| s.cache.memory_hits);
            let arc_lookups = arc_hits + d(|s| s.cache.misses);
            out.layer("serve.arc_hit_rate", arc_hits / arc_lookups.max(1.0));
        }
    }
}

fn text_hash(text: &str) -> u64 {
    flow::KeyHasher::new().str(text).finish()
}

/// Why `reply` is wrong, if it is. A hot key must be a memo hit with the
/// exact library its warm-up served.
fn check_reply(reply: &Reply, hot: Option<(usize, Option<u64>)>) -> Option<String> {
    let Some((text, via)) = library_of(reply) else {
        return Some(format!("not served: {:?}", reply.response));
    };
    match hot {
        None => None,
        Some((k, expected)) => {
            if via != ServedVia::MemoHit {
                Some(format!("hot key {k} served via {}", via.as_str()))
            } else if Some(text_hash(text)) != expected {
                Some(format!("hot key {k}: library differs from its warm-up"))
            } else {
                None
            }
        }
    }
}

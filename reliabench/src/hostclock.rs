//! Timing corrected for the speed of a shared host.
//!
//! On a shared virtual machine the same single-thread work ran up to a
//! third slower for seconds at a time (code heavy in wide loads up to 2×),
//! and process CPU time slowed just as much as wall time. A
//! probe thread therefore runs a fixed kernel of the benchmark's own for
//! about 1.6 ms every [`PROBE_PERIOD`], timed in its own CPU time,
//! on the same CPU as the workload (`run.py` pins the process to one).
//! An [`Interval`] of the workload is then reported as its duration on
//! the clock's [`Basis`], less the CPU time the probe took inside it,
//! scaled by
//! `REFERENCE_NS / (mean probe time around the interval)`: seconds at the
//! host speed at which the kernel takes [`REFERENCE_NS`]. A change to the
//! program moves these figures as it moves wall time; a slow host does
//! not. The program never runs the kernel, so nothing it does can change
//! the scale except through the cache and the CPU they share.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two probes.
const PROBE_PERIOD: Duration = Duration::from_millis(100);
/// CPU nanoseconds of one probe at the reference speed: about the median
/// probe on the 2-vCPU x86_64 VM (Intel Xeon, 2.1 GHz) the benchmark was
/// built on.
const REFERENCE_NS: f64 = 1.60e6;
/// Probes within this distance of an interval also set its speed: a short
/// interval averages about ten, which damps the probe's own noise while
/// still following the host's slow spells, which last seconds.
const WINDOW_NS: u64 = 500_000_000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// What an interval's duration is counted in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Wall time: for work that waits (on sockets, on a schedule).
    Wall,
    /// CPU time of the whole process: for single-thread compute, where it
    /// equals wall time on an idle machine and leaves out the time other
    /// processes took the CPU away.
    ProcessCpu,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
}

/// CPU nanoseconds of `clock`, a CPU-time clock.
fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed on a thread CPU-time clock");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The probe's fixed work, in four equal parts that load the CPU the way
/// the program's hot loops do: a pivoted 12×12 LU solve (dependent
/// floating point, like the circuit simulator), four independent hash
/// streams over a 16 KB table (integer throughput and L1 traffic, like
/// synthesis and the memo), a byte scanner with data-dependent branches
/// over a 16 KB buffer (like the Liberty and JSON parsers) and the
/// standard library's UTF-8 check over the same buffer (wide loads, like
/// the client's JSON parse, which the host slowed by up to 2× while the
/// other three parts slowed by a fifth). Each part alone followed the
/// program's slow-downs less closely than the parts together.
struct Kernel {
    table: Vec<u32>,
    text: Vec<u8>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut x = 7u64;
        let mut text = Vec::with_capacity(16 * 1024);
        while text.len() < 16 * 1024 {
            x = lcg(x);
            text.push(b"{}[],0123456789\"ab"[(x >> 59) as usize % 18]);
        }
        Kernel { table: vec![0; 4096], text }
    }

    fn run(&mut self) -> u64 {
        let lu = lu_solves(320);
        let hashed = hash_streams(44_000, &mut self.table);
        let scanned = scan(4, &self.text);
        let checked = (0..std::hint::black_box(330))
            .filter(|_| std::str::from_utf8(std::hint::black_box(&self.text)).is_ok())
            .count();
        lu.to_bits() ^ hashed ^ scanned ^ checked as u64
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407)
}

// Indexed loops: this is the form whose timing followed the program's.
#[allow(clippy::needless_range_loop)]
fn lu_solves(reps: u32) -> f64 {
    const N: usize = 12;
    let mut acc = 0.0;
    for r in 0..std::hint::black_box(reps) {
        let mut a = [[0.0f64; N]; N];
        let mut b = [0.0f64; N];
        for i in 0..N {
            for j in 0..N {
                a[i][j] = 1.0 / ((i + j + 1) as f64 + f64::from(r) * 1e-3);
            }
            a[i][i] += 4.0;
            b[i] = (i as f64).sin();
        }
        for k in 0..N {
            let p = (k..N).max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs())).unwrap_or(k);
            a.swap(k, p);
            b.swap(k, p);
            for i in k + 1..N {
                let f = a[i][k] / a[k][k];
                for j in k..N {
                    a[i][j] -= f * a[k][j];
                }
                b[i] -= f * b[k];
            }
        }
        for i in (0..N).rev() {
            let s: f64 = b[i] - (i + 1..N).map(|j| a[i][j] * b[j]).sum::<f64>();
            b[i] = s / a[i][i];
        }
        acc += b[0] + b[N - 1].exp();
    }
    acc
}

fn hash_streams(rounds: u32, table: &mut [u32]) -> u64 {
    let mask = table.len() - 1;
    let mut xs = [1u64, 2, 3, 4];
    let mut acc = 0u64;
    for _ in 0..std::hint::black_box(rounds) {
        for x in &mut xs {
            *x = lcg(*x);
            let j = (*x >> 40) as usize & mask;
            let v = table[j];
            table[j] = v.wrapping_add(*x as u32);
            if v & 1 == 0 {
                acc = acc.wrapping_add(u64::from(v));
            } else {
                acc ^= *x;
            }
        }
    }
    acc
}

fn scan(reps: u32, text: &[u8]) -> u64 {
    let mut acc = 0u64;
    for _ in 0..std::hint::black_box(reps) {
        let (mut depth, mut num) = (0i64, 0u64);
        for &c in std::hint::black_box(text) {
            match c {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b'0'..=b'9' => num = num.wrapping_mul(10).wrapping_add(u64::from(c - b'0')),
                b',' => {
                    acc = acc.wrapping_add(num);
                    num = 0;
                }
                _ => {}
            }
        }
        acc = acc.wrapping_add(depth as u64);
    }
    acc
}

/// One probe: when it ran (wall nanoseconds since the clock started, at
/// its middle) and the CPU nanoseconds the kernel took.
#[derive(Debug, Clone, Copy)]
struct Probe {
    at_ns: u64,
    cpu_ns: u64,
}

/// A point in time: wall time, the basis clock and the probe's CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall_ns: u64,
    basis_ns: u64,
    probe_ns: u64,
}

/// A measured stretch of the workload, resolved into seconds by
/// [`Speeds::seconds`] once the clock has stopped.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    start_ns: u64,
    end_ns: u64,
    /// Basis nanoseconds less the probe's CPU time inside the interval.
    net_ns: u64,
}

impl Interval {
    /// Uncorrected wall seconds, for reports of how the host behaved.
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Starts the probe on creation; [`HostClock::stop`] joins it.
pub struct HostClock {
    basis: Basis,
    origin: Instant,
    stop: Arc<AtomicBool>,
    probes: Arc<Mutex<Vec<Probe>>>,
    probe_clock: i32,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl HostClock {
    pub fn start(basis: Basis) -> HostClock {
        use std::os::unix::thread::JoinHandleExt;
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let probes = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, probes) = (Arc::clone(&stop), Arc::clone(&probes));
            std::thread::spawn(move || {
                let mut kernel = Kernel::new();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PROBE_PERIOD);
                    let before = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
                    let wall = Instant::now();
                    std::hint::black_box(kernel.run());
                    let cpu = cpu_ns(CLOCK_THREAD_CPUTIME_ID) - before;
                    let at_ns = (wall - origin + wall.elapsed() / 2).as_nanos() as u64;
                    probes.lock().expect("probe list poisoned").push(Probe { at_ns, cpu_ns: cpu });
                }
            })
        };
        let mut probe_clock = 0;
        // SAFETY: the thread has not been joined, so its pthread_t is
        // valid, and `probe_clock` is a valid place for the clock id.
        let rc = unsafe { pthread_getcpuclockid(thread.as_pthread_t(), &mut probe_clock) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed for a live thread");
        HostClock { basis, origin, stop, probes, probe_clock, thread: Mutex::new(Some(thread)) }
    }

    /// A mark at `wall`, an instant in the past (a request's due time),
    /// with the probe's CPU time of now. On the wall basis only.
    pub fn mark_at(&self, wall: Instant) -> Mark {
        assert_eq!(self.basis, Basis::Wall, "a past mark needs the wall basis");
        let probe_ns = self.probe_ns();
        let wall_ns = self.since_origin(wall);
        Mark { wall_ns, basis_ns: wall_ns, probe_ns }
    }

    /// The interval from `from` to now.
    pub fn since(&self, from: Mark) -> Interval {
        let to = self.mark();
        let spent = to.basis_ns.saturating_sub(from.basis_ns);
        Interval {
            start_ns: from.wall_ns,
            end_ns: to.wall_ns,
            net_ns: spent.saturating_sub(to.probe_ns.saturating_sub(from.probe_ns)),
        }
    }

    pub fn mark(&self) -> Mark {
        let probe_ns = self.probe_ns();
        let wall_ns = self.since_origin(Instant::now());
        let basis_ns = match self.basis {
            Basis::Wall => wall_ns,
            Basis::ProcessCpu => cpu_ns(CLOCK_PROCESS_CPUTIME_ID),
        };
        Mark { wall_ns, basis_ns, probe_ns }
    }

    /// Times `f`.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Interval) {
        let from = self.mark();
        let out = f();
        (out, self.since(from))
    }

    /// Stops and joins the probe; returns every probe taken.
    pub fn stop(&self) -> Speeds {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.lock().expect("probe handle poisoned").take() {
            thread.join().expect("the host-speed probe panicked");
        }
        Speeds { probes: self.probes.lock().expect("probe list poisoned").clone() }
    }

    fn probe_ns(&self) -> u64 {
        // After `stop` the clock id may name a joined thread; read it only
        // while the probe runs.
        let thread = self.thread.lock().expect("probe handle poisoned");
        thread.as_ref().map_or(0, |_| cpu_ns(self.probe_clock))
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Ok(mut thread) = self.thread.lock() {
            if let Some(thread) = thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// The probes of a stopped clock.
#[derive(Debug)]
pub struct Speeds {
    probes: Vec<Probe>,
}

impl Speeds {
    /// Host-corrected seconds of `interval`.
    pub fn seconds(&self, interval: Interval) -> f64 {
        interval.net_ns as f64 * 1e-9 * self.scale(interval)
    }

    /// `REFERENCE_NS` over the mean probe around `interval`: above 1 when
    /// the host ran faster than the reference.
    pub fn scale(&self, interval: Interval) -> f64 {
        let lo = interval.start_ns.saturating_sub(WINDOW_NS);
        let hi = interval.end_ns + WINDOW_NS;
        let near: Vec<u64> =
            self.probes.iter().filter(|p| (lo..=hi).contains(&p.at_ns)).map(|p| p.cpu_ns).collect();
        let mean = if near.is_empty() {
            // Only a clock stopped within a probe period has none nearby.
            self.probes.iter().map(|p| p.cpu_ns).sum::<u64>() as f64
                / self.probes.len().max(1) as f64
        } else {
            near.iter().sum::<u64>() as f64 / near.len() as f64
        };
        if mean > 0.0 {
            REFERENCE_NS / mean
        } else {
            1.0
        }
    }

    /// Probes taken, and the median probe's CPU time over the reference.
    pub fn summary(&self) -> (usize, f64) {
        let ns: Vec<f64> = self.probes.iter().map(|p| p.cpu_ns as f64).collect();
        (ns.len(), crate::report::median(&ns) / REFERENCE_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::{Interval, Probe, Speeds, REFERENCE_NS};

    fn probe(at_ms: u64, times_reference: f64) -> Probe {
        Probe { at_ns: at_ms * 1_000_000, cpu_ns: (times_reference * REFERENCE_NS) as u64 }
    }

    #[test]
    fn scales_by_the_probes_around_an_interval() {
        // The host ran at half the reference speed around the interval and
        // at the reference speed well away from it.
        let speeds = Speeds {
            probes: vec![probe(0, 1.0), probe(5_000, 2.0), probe(5_100, 2.0), probe(20_000, 1.0)],
        };
        let interval =
            Interval { start_ns: 5_000_000_000, end_ns: 5_200_000_000, net_ns: 1.5e8 as u64 };
        assert!((speeds.scale(interval) - 0.5).abs() < 1e-12);
        assert!((speeds.seconds(interval) - 0.075).abs() < 1e-12);
        // With no probe nearby, the mean of all probes sets the speed.
        let lone = Interval { start_ns: 12_000_000_000, end_ns: 12_000_100_000, net_ns: 100_000 };
        assert!((speeds.scale(lone) - 1.0 / 1.5).abs() < 1e-12);
    }
}

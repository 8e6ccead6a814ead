//! What every workload gives the runner: a measured phase cut into
//! windows, its layer metrics for the traced run, and a teardown.
//!
//! ## How a run turns into six numbers
//!
//! The hosts this runs on are small shared VMs whose speed wanders by tens
//! of percent for seconds to minutes at a time, so whole-phase figures of
//! the same code spread by 5–28 % from run to run (README.md has the
//! tables). One correction is made for that: the measured phase is cut
//! into **windows** of whole op cycles, and between windows the generating
//! thread times a fixed **host-speed probe**. A window's wall time,
//! latencies and CPU time are divided by how much slower than
//! [`REFERENCE_PROBE_US`] the probe ran beside it, so they read as if the
//! host had run at reference speed. The end-to-end figures are then the
//! conventional ones over the whole phase: ops ÷ time, CPU ÷ ops, and the
//! median and 90th percentile of the per-op latencies.
//!
//! The probe never calls the code under test, allocates nothing and works
//! on 32 KiB, so only the host can move it. No window and no op is left
//! out, so a stall counts wherever it falls.

use crate::procfs;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer metrics by name; the runner prints every name of
/// `spec::PER_LAYER`, 0 where a workload set none.
pub type Layers = BTreeMap<&'static str, f64>;

/// `--smoke` divides every warm-up count and the measured time by 50.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub divisor: u64,
}

impl Scale {
    pub fn ops(&self, full: u64) -> u64 {
        (full / self.divisor).max(1)
    }

    /// Timed rounds of the traced replay: three, or one in a smoke run.
    pub fn replay_rounds(&self) -> usize {
        if self.divisor > 1 {
            1
        } else {
            3
        }
    }
}

/// Length of a window of the measured phase, in seconds (it closes at the
/// next op-cycle boundary): about thirty windows in a run, and long enough
/// that the 10 ms ticks of `/proc/self/stat` resolve its CPU time to 1–2 %.
pub const WINDOW_S: f64 = 0.5;

/// What the probe takes on an undisturbed vCPU of the 2.1 GHz Xeon hosts
/// the benchmark was sized on. It only fixes the unit "reference speed":
/// another value would scale every timing of every run alike.
pub const REFERENCE_PROBE_US: f64 = 700.0;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A fixed piece of benchmark-owned integer work on a 32 KiB buffer:
/// fill, sort, then a chain of dependent loads.
fn probe_kernel(buf: &mut [u64; 4096]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..12 {
        for slot in buf.iter_mut() {
            *slot = xorshift(&mut x);
        }
        buf.sort_unstable();
        acc ^= buf[2048];
        for i in 0..4096 {
            acc = acc
                .wrapping_add(buf[(buf[i] % 4096) as usize])
                .rotate_left(7);
        }
    }
    acc
}

/// Wall time of the host-speed probe in microseconds: the fastest of three
/// runs, so that a run the scheduler interrupted does not count.
pub fn probe_us() -> f64 {
    let mut buf = [0u64; 4096];
    (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(probe_kernel(&mut buf));
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// By what factor the host ran slower than reference speed, given the
/// probe's time (1.0 = reference speed).
pub fn slowdown(probe_us: f64) -> f64 {
    probe_us / REFERENCE_PROBE_US
}

/// One window of the measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub wall_s: f64,
    /// Process user+sys CPU over the window.
    pub cpu_us: f64,
    /// The probe's time, averaged over its readings right before and
    /// right after the window.
    pub probe_us: f64,
    /// Latency of every op completed in the window, in ns.
    pub lat_ns: Vec<u32>,
}

/// Cuts a phase into windows as ops complete.
pub struct WindowRecorder {
    opened: Instant,
    cpu_at_open: f64,
    probe_at_open: f64,
    lat_ns: Vec<u32>,
    windows: Vec<Window>,
}

impl WindowRecorder {
    pub fn start() -> WindowRecorder {
        let probe_at_open = probe_us();
        WindowRecorder {
            probe_at_open,
            opened: Instant::now(),
            cpu_at_open: procfs::process_cpu_us(),
            lat_ns: Vec::new(),
            windows: Vec::new(),
        }
    }

    pub fn record(&mut self, lat_ns: u32) {
        self.lat_ns.push(lat_ns);
    }

    /// Call where the op stream is at a cycle boundary, with the time the
    /// last op completed. Returns the time the next op starts from: `now`,
    /// or, if the window was long enough and has been closed, the time
    /// after the probe that closing runs — the probe is no part of any
    /// op's latency.
    pub fn at_cycle_boundary(&mut self, now: Instant) -> Instant {
        if self.lat_ns.is_empty() || (now - self.opened).as_secs_f64() < WINDOW_S {
            return now;
        }
        self.close(now);
        self.opened
    }

    fn close(&mut self, now: Instant) {
        if self.lat_ns.is_empty() {
            return;
        }
        let cpu = procfs::process_cpu_us();
        let probe = probe_us();
        self.windows.push(Window {
            wall_s: (now - self.opened).as_secs_f64(),
            cpu_us: cpu - self.cpu_at_open,
            probe_us: (self.probe_at_open + probe) / 2.0,
            lat_ns: std::mem::take(&mut self.lat_ns),
        });
        self.probe_at_open = probe;
        // The probe is outside every window.
        self.opened = Instant::now();
        self.cpu_at_open = procfs::process_cpu_us();
    }

    /// The closed windows. The unfinished tail is dropped, unless it is
    /// all there is (a smoke run shorter than one window).
    pub fn finish(mut self) -> Vec<Window> {
        if self.windows.is_empty() {
            self.close(Instant::now());
        }
        self.windows
    }
}

/// Failed ops of a phase: how many, and what the first one was.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Option<String>,
}

impl Failures {
    pub fn fail(&mut self, why: String) {
        self.count += 1;
        self.first.get_or_insert(why);
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// A latency as the `u32` of nanoseconds the recorders keep (4.29 s at
/// most; anything longer is a failed run anyway).
pub fn clamp_ns(latency: std::time::Duration) -> u32 {
    latency.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// One measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Ops sent (reads and, on `publish_beside_reads`, publishes).
    pub attempted: u64,
    /// Sheds, error replies, wrong rows, epochs that went backwards.
    pub failures: Failures,
    pub elapsed_s: f64,
    pub windows: Vec<Window>,
    /// Process user+sys CPU over the whole phase.
    pub cpu_us: f64,
    /// CPU of the thread that generated the load, over the whole phase.
    pub loadgen_cpu_us: f64,
    /// `VmHWM` once a fixed number of ops had completed (the count is the
    /// workload's; the phase itself is time-bounded, and how far it gets
    /// would otherwise decide how much memory it has touched).
    pub peak_rss_mib: f64,
}

/// The end-to-end timings of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    pub cpu_us_per_op: f64,
}

impl Window {
    fn slowdown(&self) -> f64 {
        slowdown(self.probe_us)
    }
}

impl Measured {
    /// The phase's figures at reference speed: ops per second of wall
    /// time, the median and 90th percentile of the per-op latencies, and
    /// CPU per op, over all the windows, each window's times divided by
    /// the host's slowdown beside it. `sleep_bound` is the workload's:
    /// where the op is a sleep plus a little CPU (`stalled_fetch`) only
    /// the CPU cost is scaled.
    pub fn timings(&self, sleep_bound: bool) -> Timings {
        let wall_slowdown = |w: &Window| if sleep_bound { 1.0 } else { w.slowdown() };
        let ops: f64 = self.windows.iter().map(|w| w.lat_ns.len() as f64).sum();
        let wall_s: f64 = self
            .windows
            .iter()
            .map(|w| w.wall_s / wall_slowdown(w))
            .sum();
        let cpu_us: f64 = self.windows.iter().map(|w| w.cpu_us / w.slowdown()).sum();
        let mut lat_us: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| {
                let slowdown = wall_slowdown(w);
                w.lat_ns
                    .iter()
                    .map(move |ns| f64::from(*ns) / 1e3 / slowdown)
            })
            .collect();
        lat_us.sort_by(f64::total_cmp);
        Timings {
            throughput_ops_s: ops / wall_s,
            latency_p50_us: percentile(&lat_us, 50.0),
            latency_p90_us: percentile(&lat_us, 90.0),
            cpu_us_per_op: cpu_us / ops,
        }
    }

    /// Ops per second over all the windows as the host ran them: what the
    /// layer metrics of a traced run, which are not scaled either, are
    /// set beside.
    pub fn raw_throughput(&self) -> f64 {
        let ops: usize = self.windows.iter().map(|w| w.lat_ns.len()).sum();
        ops as f64 / self.windows.iter().map(|w| w.wall_s).sum::<f64>()
    }

    /// How disturbed the run was: the whole-phase figures as the host
    /// delivered them, and the range of host speed across the windows.
    pub fn print_raw_summary(&self, name: &str) {
        let slow: Vec<f64> = self.windows.iter().map(Window::slowdown).collect();
        let mut lat_ns: Vec<u32> = self
            .windows
            .iter()
            .flat_map(|w| w.lat_ns.iter().copied())
            .collect();
        lat_ns.sort_unstable();
        eprintln!(
            "[{name}] as the host ran it: {:.1} ops/s, p50 {:.1} us, p90 {:.1} us, cpu {:.2} us/op over {} windows; host {:.2}x..{:.2}x slower than reference (median {:.2}x)",
            self.raw_throughput(),
            f64::from(percentile(&lat_ns, 50.0)) / 1e3,
            f64::from(percentile(&lat_ns, 90.0)) / 1e3,
            self.cpu_us / self.attempted as f64,
            self.windows.len(),
            slow.iter().copied().fold(f64::INFINITY, f64::min),
            slow.iter().copied().fold(0.0, f64::max),
            median(&slow),
        );
    }
}

pub trait Workload {
    /// Whether the op is a sleep plus a little CPU, so that wall-clock
    /// readings do not follow host speed (see [`Measured::timings`]).
    fn sleep_bound(&self) -> bool;

    /// Runs the measured phase for about `seconds` (whole op cycles).
    /// `collect` keeps the per-reply fields the layer metrics need.
    fn measure(&mut self, seconds: f64, collect: bool) -> Measured;

    /// The traced run's part: layer probes and the in-process replay with
    /// spans, written to `out/trace-<workload>.jsonl`.
    fn layers(&mut self, measured: &Measured, layers: &mut Layers);

    fn teardown(self);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() <= want * 1e-9, "{got} is not {want}");
    }

    /// A window of `ops` ops of `lat_us` each, beside a probe reading of
    /// `slowdown` times the reference.
    fn window(ops: usize, wall_s: f64, cpu_us: f64, lat_us: u32, slowdown: f64) -> Window {
        Window {
            wall_s,
            cpu_us,
            probe_us: REFERENCE_PROBE_US * slowdown,
            lat_ns: vec![lat_us * 1000; ops],
        }
    }

    fn measured(windows: Vec<Window>) -> Measured {
        Measured {
            windows,
            ..Default::default()
        }
    }

    /// A host at half speed halves raw throughput and doubles raw latency
    /// and CPU cost; readings at reference speed do not move.
    #[test]
    fn scaling_undoes_a_slow_host() {
        let at_reference = window(1000, 1.0, 500_000.0, 100, 1.0);
        let at_half_speed = window(500, 1.0, 500_000.0, 200, 2.0);
        for w in [at_reference, at_half_speed] {
            let t = measured(vec![w]).timings(false);
            assert_close(t.throughput_ops_s, 1000.0);
            assert_close(t.latency_p50_us, 100.0);
            assert_close(t.latency_p90_us, 100.0);
            assert_close(t.cpu_us_per_op, 500.0);
        }
    }

    /// Where the op sleeps, only the CPU cost is scaled.
    #[test]
    fn sleep_bound_walls_are_not_scaled() {
        let t = measured(vec![window(500, 1.0, 500_000.0, 200, 2.0)]).timings(true);
        assert_eq!(t.throughput_ops_s, 500.0);
        assert_eq!(t.latency_p50_us, 200.0);
        assert_close(t.cpu_us_per_op, 500.0);
    }

    /// Windows are pooled, each at its own host speed: none is left out.
    #[test]
    fn every_window_counts_at_its_own_speed() {
        let t = measured(vec![
            window(300, 1.0, 30_000.0, 30, 1.0),
            window(100, 2.0, 20_000.0, 100, 2.0),
        ])
        .timings(false);
        assert_close(t.throughput_ops_s, 200.0);
        assert_close(t.cpu_us_per_op, 100.0);
        assert_close(t.latency_p50_us, 30.0);
        assert_close(t.latency_p90_us, 50.0);
    }

    #[test]
    fn probe_takes_measurable_time() {
        let us = probe_us();
        assert!(us > 50.0 && us < 1_000_000.0, "probe took {us} us");
    }

    #[test]
    fn recorder_closes_whole_windows_and_keeps_a_lone_tail() {
        let mut r = WindowRecorder::start();
        let t0 = Instant::now();
        for lat in [10_000, 30_000, 20_000] {
            r.record(lat);
        }
        assert_eq!(r.at_cycle_boundary(t0), t0, "too early to close");
        std::thread::sleep(std::time::Duration::from_secs_f64(WINDOW_S));
        let done = Instant::now();
        let next_op_starts = r.at_cycle_boundary(done);
        assert!(
            next_op_starts - done >= std::time::Duration::from_micros(100),
            "the probe ran before the next op's start, not inside its latency"
        );
        r.record(40_000);
        let windows = r.finish();
        assert_eq!(windows.len(), 1, "the unfinished tail is dropped");
        assert_eq!(windows[0].lat_ns, [10_000, 30_000, 20_000]);

        let mut lone = WindowRecorder::start();
        lone.record(1_000);
        let now = Instant::now();
        assert_eq!(lone.at_cycle_boundary(now), now);
        assert_eq!(
            lone.finish().len(),
            1,
            "a run shorter than a window keeps it"
        );
    }
}

//! `kind-benchmark` — the repo benchmark: five workloads, six end-to-end
//! metrics, a per-layer ledger and a traced run. See README.md.
//!
//! ```text
//! kind-benchmark [run] [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! kind-benchmark trace [--workload W] [--seed S]
//! kind-benchmark aa [--sets 2] [--runs 3] [--seed S] [--vary-seed]
//! kind-benchmark spec            # prints BENCHMARK.json from spec.rs
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of standard output is the driver's JSON object. Without it, every
//! workload runs in a fresh child process of this binary, in the fixed
//! order, so peak memory and heap state do not leak from one to the next.

mod aa;
mod direct;
mod json;
mod layers;
mod loadgen;
mod oracle;
mod procfs;
mod served;
mod span;
mod spec;
mod stats;
mod workload;

use direct::{Direct, DirectKind};
use served::{Served, ServedKind};
use std::process::ExitCode;
use workload::{Layers, Measured, Scale, Timings, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Trace,
    Aa,
    /// Prints `BENCHMARK.json` as `spec.rs` defines it.
    Spec,
}

#[derive(Debug, Clone)]
struct Args {
    command: Command,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: a whole-benchmark `run` does both kinds of run.
    trace: Option<bool>,
    smoke: bool,
    sets: usize,
    runs: usize,
    vary_seed: bool,
}

const USAGE: &str = "usage: kind-benchmark [run|trace|aa|spec] [--workload W] [--seed S] \
                     [--seconds N] [--trace 0|1] [--smoke] [--sets N] [--runs N] [--vary-seed]";

fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Run,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        sets: 2,
        runs: 3,
        vary_seed: false,
    };
    let mut rest = argv.iter().peekable();
    match rest.peek().map(|s| s.as_str()) {
        Some("run") => {
            rest.next();
        }
        Some("trace") => {
            rest.next();
            args.command = Command::Trace;
            args.trace = Some(true);
        }
        Some("aa") => {
            rest.next();
            args.command = Command::Aa;
        }
        Some("spec") => {
            rest.next();
            args.command = Command::Spec;
        }
        _ => {}
    }
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = number(flag, value("a number")?)?,
            "--seconds" => {
                args.seconds = number(flag, value("a number")?)?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--sets" => args.sets = number(flag, value("a number")?)?,
            "--runs" => args.runs = number(flag, value("a number")?)?,
            "--vary-seed" => args.vary_seed = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.sets < 2 || args.runs < 2 {
        return Err("aa needs at least 2 sets of at least 2 runs".into());
    }
    Ok(args)
}

/// One workload's result in the shape the driver reads.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in `spec` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn end_to_end_metrics(
    setup_s: f64,
    m: &Measured,
    t: &Timings,
) -> Vec<(&'static str, f64, &'static str)> {
    spec::END_TO_END
        .iter()
        .map(|e| {
            let value = match e.name {
                "setup_s" => setup_s,
                "throughput_ops_s" => t.throughput_ops_s,
                "latency_p50_us" => t.latency_p50_us,
                "latency_p90_us" => t.latency_p90_us,
                "cpu_us_per_op" => t.cpu_us_per_op,
                "peak_rss_mb" => m.peak_rss_mib,
                other => unreachable!("end-to-end metric {other} has no reading"),
            };
            (e.name, value, e.unit)
        })
        .collect()
}

/// One set-up, timed at reference speed: scaled by the host-speed probe
/// right before and after it, like a window of the measured phase.
fn timed_setup<W: Workload>(make: impl FnOnce() -> W) -> (f64, W) {
    let probe_before = workload::probe_us();
    let (setup_us, fixture) = layers::timed(make);
    let probe_after = workload::probe_us();
    let slowdown = if fixture.sleep_bound() {
        1.0
    } else {
        workload::slowdown((probe_before + probe_after) / 2.0)
    };
    (setup_us / 1e6 / slowdown, fixture)
}

/// Sets the workload up, measures it, and in a traced run reads the layer
/// metrics. An end-to-end run then sets it up twice more: `setup_s` is the
/// median of the three, and the repeats come after the measured phase so
/// that the phase — and the peak memory read during it — starts from a
/// process that has set up once.
fn run_workload<W: Workload>(name: &str, args: &Args, make: impl Fn(Scale) -> W) -> Report {
    let trace = args.trace.unwrap_or(false);
    let scale = Scale {
        divisor: if args.smoke { 50 } else { 1 },
    };
    let seconds = args.seconds / scale.divisor as f64;
    let (first_setup_s, mut fixture) = timed_setup(|| make(scale));
    let mut setup_s = vec![first_setup_s];

    let measured = fixture.measure(seconds, trace);
    let timings = measured.timings(fixture.sleep_bound());
    let layers = trace.then(|| {
        let mut layers: Layers = spec::PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
        fixture.layers(&measured, &mut layers);
        layers
    });
    fixture.teardown();
    if !(args.smoke || trace) {
        for _ in 1..spec::SETUPS_PER_RUN {
            let (again_s, again) = timed_setup(|| make(scale));
            setup_s.push(again_s);
            again.teardown();
        }
    }
    let setup_s = stats::median(&setup_s);
    eprintln!(
        "[{name}] seed {} measured {:.2} s: {} ops, {} failed; at reference speed: setup {:.3} s, {:.1} ops/s, p50 {:.1} us, p90 {:.1} us, cpu {:.2} us/op; peak rss {:.1} MiB",
        args.seed,
        measured.elapsed_s,
        measured.attempted,
        measured.failures.count,
        setup_s,
        timings.throughput_ops_s,
        timings.latency_p50_us,
        timings.latency_p90_us,
        timings.cpu_us_per_op,
        measured.peak_rss_mib,
    );
    measured.print_raw_summary(name);
    if let Some(why) = &measured.failures.first {
        eprintln!("[{name}] first failed op: {why}");
    }
    let metrics = match layers {
        Some(layers) => spec::PER_LAYER
            .iter()
            .map(|l| {
                let value = layers[l.name];
                (l.name, if value.is_finite() { value } else { 0.0 }, l.unit)
            })
            .collect(),
        None => end_to_end_metrics(setup_s, &measured, &timings),
    };
    Report {
        attempted: measured.attempted,
        failed: measured.failures.count,
        metrics,
    }
}

fn run_in_process(name: &str, args: &Args) -> ExitCode {
    let seed = args.seed;
    let report = match name {
        "served_point" => run_workload(name, args, |s| Served::setup(ServedKind::Point, seed, s)),
        "served_answer" => run_workload(name, args, |s| Served::setup(ServedKind::Answer, seed, s)),
        "publish_beside_reads" => run_workload(name, args, |s| {
            Served::setup(ServedKind::PublishBesideReads, seed, s)
        }),
        "cold_federation" => run_workload(name, args, |s| {
            Direct::setup(DirectKind::ColdFederation, seed, s)
        }),
        "stalled_fetch" => run_workload(name, args, |s| {
            Direct::setup(DirectKind::StalledFetch, seed, s)
        }),
        other => unreachable!("parse_args admits no workload {other}"),
    };
    for (metric, value, unit) in &report.metrics {
        let moves = spec::PER_LAYER
            .iter()
            .find(|l| l.name == *metric)
            .map_or(String::new(), |l| format!("  -> {}", l.moves));
        println!("{name:<22} {metric:<38} {value:>16.4} {unit:<6}{moves}");
    }
    println!("{}", report.json_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The child-process command line for one workload run.
fn child_command(workload: &str, seed: u64, args: &Args, trace: bool) -> std::process::Command {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Every workload in its own child process: an end-to-end run, then a
/// traced run (or only the kind `--trace` asks for).
fn run_all(args: &Args) -> ExitCode {
    let kinds: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut all_ok = true;
    for w in &spec::WORKLOADS {
        for &trace in kinds {
            let status = child_command(w.name, args.seed, args, trace)
                .status()
                .expect("spawn workload process");
            if !status.success() {
                eprintln!("[{}] run failed: {status}", w.name);
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("kind-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command, &args.workload) {
        (Command::Aa, _) => aa::run(&args),
        (Command::Spec, _) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        (_, Some(name)) => run_in_process(name, &args),
        (_, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses_without_a_subcommand() {
        let args = parse_args(&argv(&[
            "--workload",
            "served_point",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.command, Command::Run);
        assert_eq!(args.workload.as_deref(), Some("served_point"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, Some(true)));
        let aa = parse_args(&argv(&["aa", "--sets", "2", "--runs", "5", "--vary-seed"])).unwrap();
        assert_eq!((aa.command, aa.runs, aa.vary_seed), (Command::Aa, 5, true));
        assert_eq!(
            parse_args(&argv(&["trace"])).unwrap().trace,
            Some(true),
            "trace is run --trace 1"
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--frobnicate"],
            &["aa", "--runs", "1"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn report_line_is_the_drivers_json() {
        let report = Report {
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("latency_p50_us", 403.0, "us")],
        };
        let v = json::Value::parse(&report.json_line()).unwrap();
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(json::Value::as_u64), Some(10));
        assert_eq!(v.get("failed").and_then(json::Value::as_u64), Some(0));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            setup.get("value").and_then(json::Value::as_f64),
            Some(0.8127)
        );
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
    }
}

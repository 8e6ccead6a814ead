//! The `kind-server` binary: server mode by default, workload driver
//! with `--client`. Run `kind-server --help` for the flags.

use kind_server::{install_signal_handlers, run_client, run_server, ClientConfig, ServerConfig};
use kind_sources::ScenarioParams;

const HELP: &str = "\
kind-server — the deployed KIND mediator (see DESIGN.md, server plane)

USAGE:
  kind-server [--addr HOST:PORT] [--workers N] [--queue-depth N]
              [--budget-ms N] [--scenario small|default]
              [--fetch-workers N]
  kind-server --client [--addr HOST:PORT] [--threads N] [--requests N]
              [--budget-ms N] [--quiet]

`--fetch-workers` sizes the fetch executor's fixed pool (0 = auto, one
per core; 1 = the calling thread). Answers are bit-identical at every
size; only wall clock and threads change. An unknown flag, or a flag
without its value, is an error (exit code 2).

Server mode starts the scenario mediator, publishes the first snapshot
into the hub, and serves the JSON-per-line protocol until SIGTERM/ctrl-c
or a `shutdown` op. Client mode connects and issues a mixed workload,
printing one summary line per response.
";

/// Flags that take a value (the next argument).
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--queue-depth",
    "--budget-ms",
    "--scenario",
    "--fetch-workers",
    "--threads",
    "--requests",
];

/// Flags that stand alone.
const SWITCHES: &[&str] = &["--client", "--quiet"];

/// Rejects anything the lookups below would silently skip: an argument
/// that is not a known flag, or a value flag with nothing after it.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            match it.next() {
                Some(value) if !value.starts_with("--") => {}
                _ => return Err(format!("{arg} needs a value")),
            }
        } else if !SWITCHES.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_num(args: &[String], name: &str, default: u64) -> u64 {
    match parse_flag(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {name}: {v:?}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    if let Err(e) = check_args(&args) {
        eprintln!("kind-server: {e} (see --help)");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--client") {
        let config = ClientConfig {
            addr: parse_flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4901".into()),
            threads: parse_num(&args, "--threads", 2) as usize,
            requests: parse_num(&args, "--requests", 25) as usize,
            budget_ms: parse_num(&args, "--budget-ms", 0),
            verbose: !args.iter().any(|a| a == "--quiet"),
        };
        match run_client(&config) {
            Ok(summary) => {
                println!(
                    "client done: {} ok, {} overloaded, {} deadline_exceeded, {} errors",
                    summary.ok, summary.overloaded, summary.deadline, summary.errors
                );
                if summary.errors > 0 {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("client failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut scenario = match parse_flag(&args, "--scenario").as_deref() {
        Some("small") => ScenarioParams {
            senselab_rows: 10,
            ncmir_rows: 15,
            synapse_rows: 10,
            noise_sources: 1,
            noise_rows: 5,
            ..ScenarioParams::default()
        },
        Some("default") | None => ScenarioParams::default(),
        Some(other) => {
            eprintln!("unknown scenario {other:?} (want small|default)");
            std::process::exit(2);
        }
    };
    scenario.fetch_threads =
        parse_num(&args, "--fetch-workers", scenario.fetch_threads as u64) as usize;
    let config = ServerConfig {
        addr: parse_flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4901".into()),
        workers: parse_num(&args, "--workers", 2) as usize,
        queue_depth: parse_num(&args, "--queue-depth", 64) as usize,
        default_budget_ms: parse_num(&args, "--budget-ms", 0),
        scenario,
    };
    install_signal_handlers();
    eprintln!(
        "kind-server: {} workers, queue depth {}, default budget {}ms — binding {} ...",
        config.workers, config.queue_depth, config.default_budget_ms, config.addr
    );
    match kind_server::spawn_server(config) {
        Ok(handle) => {
            // The line CI and scripts wait for before connecting.
            println!("kind-server listening on {}", handle.addr());
            while !handle.shutdown_requested() && !kind_server::signalled() {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            eprintln!("kind-server: shutting down ...");
            handle.shutdown();
            eprintln!("kind-server: bye");
        }
        Err(e) => {
            eprintln!("kind-server failed to start: {e}");
            std::process::exit(1);
        }
    }
}

// `run_server` and `run_client` are the library entry points; keep them
// referenced so the lib API and the binary cannot drift apart.
#[allow(dead_code)]
fn _api_holds(config: ServerConfig) -> std::io::Result<std::net::SocketAddr> {
    run_server(config)
}

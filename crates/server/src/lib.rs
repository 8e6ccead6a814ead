//! # kind-server — the deployed mediator
//!
//! The paper's KIND mediator is a standing service that clients and
//! wrappers connect to, not a library embedded per process. This crate
//! is that deployment shape: a long-lived binary that owns one
//! [`kind_core::Mediator`] (the single writer), publishes through the
//! [`kind_core::SnapshotHub`], and serves a line-based JSON protocol run
//! to completion — the thread that reads a request answers it and writes
//! the reply — with **admission control** (a counting gate) and
//! **backpressure** (typed `overloaded` sheds instead of unbounded
//! waiting).
//!
//! * [`server`] — the serving plane: protocol, admission gate,
//!   connection threads, writer thread, limits;
//! * [`client`] — the workload driver behind `kind-server --client`:
//!   issues a mixed query workload and pretty-prints per-response
//!   summaries (doubles as the CI smoke test);
//! * [`wire`] — the hand-rolled JSON-per-line wire format.
//!
//! Start a server and query it:
//!
//! ```text
//! $ kind-server --workers 2 --queue-depth 64
//! kind-server listening on 127.0.0.1:4901 ...
//! $ kind-server --client --addr 127.0.0.1:4901 --threads 2 --requests 10
//! ```
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{run_client, ClientConfig, ClientSummary};
pub use server::{spawn_server, ServerConfig, ServerHandle, ServerStats};

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the SIGTERM/SIGINT handler; the server loop polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether a termination signal has been delivered.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Installs SIGTERM/SIGINT handlers that flip the [`signalled`] flag.
/// The `kind-server` binary polls it beside
/// [`ServerHandle::shutdown_requested`] and then shuts its
/// [`ServerHandle`] down cleanly (connections finish the request they
/// are on, threads are joined) instead of dying mid-response. No `libc` crate in the offline environment, so the raw
/// `signal(2)` symbol is declared directly; the handler only stores to
/// an atomic, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Non-unix stub: ctrl-c just kills the process.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

//! The query server, run to completion: the thread that reads a request
//! answers it from the [`SnapshotHub`] and writes the reply. Admission is
//! a counting gate that sheds load, per-request wall budgets ride a
//! deadline-carrying [`CancelToken`], and one writer thread owns the
//! [`Mediator`].
//!
//! ## Protocol
//!
//! One JSON object per line, in both directions. Requests:
//!
//! ```json
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "query_fl", "pattern": "X : protein_amount"}
//! {"id": 3, "op": "answer", "rule": "p(X) :- ...", "budget_ms": 50}
//! {"id": 4, "op": "plan"}
//! {"id": 5, "op": "publish", "rows": 5}
//! {"id": 6, "op": "sleep", "ms": 100}
//! {"id": 7, "op": "stats"}
//! {"id": 8, "op": "shutdown"}
//! ```
//!
//! Every response echoes the request `id`, and the responses on one
//! connection come back **in request order**: only the connection's own
//! thread writes its socket. Successful responses carry `"ok": true`, the
//! snapshot `epoch` the request was pinned to, `queue_us` — the time from
//! the `read` that delivered the line to the start of its evaluation
//! (earlier lines of the same read and any wait at the gate) — the
//! evaluation time in `eval_us`, and op-specific payload (`rows`, `eval`
//! counters, `report` summary). Failures carry `"ok": false` and a typed
//! `"error"`:
//!
//! * `"overloaded"` — `workers` requests were evaluating and
//!   `queue_depth` more were waiting for a turn; the request was **shed
//!   at arrival**, nothing was evaluated. Clients should back off and
//!   retry. This is the backpressure contract: no more than
//!   `workers + queue_depth` requests are ever past admission, so
//!   admitted-request latency stays bounded no matter the offered load.
//!   A connection beyond the connection limit gets the same error (with
//!   `id` null) and is closed.
//! * `"deadline_exceeded"` — the request's budget ran out: while it
//!   waited (the reply is sent when the budget ends, not when a turn
//!   comes up), before its evaluation started, or during it (evaluators
//!   notice at the next fixpoint round boundary). The budget runs from
//!   the `read` that delivered the line.
//! * `"bad_request"` / `"query_error"` — malformed input or an
//!   evaluation error; detail in `"detail"`. A request line longer than
//!   1 MiB is a `bad_request` and closes the connection.
//! * `"internal_error"` — the request panicked; the connection, the gate
//!   and the server carry on.
//!
//! ## Threads
//!
//! * **acceptor** — blocks in `accept`, spawns one thread per connection
//!   (refusing connections beyond the limit) and joins them at shutdown;
//! * **connections** (one thread each) — read, split complete lines, and
//!   for each line parse, pass the gate, pin the current hub snapshot,
//!   evaluate and render the reply into the connection's output buffer,
//!   which is written once per drained read — and before any op of
//!   unbounded cost (`answer`, `plan`, `sleep`, `publish`, a wait at the
//!   gate) and past 64 KiB, so a cheap reply never sits behind an
//!   expensive one. No gate turn is held across a socket write: a client
//!   that stops reading blocks its own thread only, for at most the
//!   write timeout;
//! * **writer** — the only thread touching the `Mediator`: applies
//!   `publish` batches, republishes through the hub, and hands the
//!   outcome back to the connection thread that asked.

use crate::wire::{self, Json};
use kind_core::{
    section5_fetch, AnswerSet, Mediator, NeuroSchema, PinnedSnapshot, PlanTrace, Section5Fetch,
    Section5Query, SnapshotHub,
};
use kind_datalog::{CancelToken, EvalOptions, Interner, Term};
use kind_sources::{build_scenario, ncmir_update_rows, ScenarioParams};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; the bound
    /// address is reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Requests evaluated at once, whatever the number of connections.
    pub workers: usize,
    /// Requests that may wait for a turn beyond those: one more is shed
    /// with a typed `overloaded` response instead of waiting unboundedly.
    pub queue_depth: usize,
    /// Default per-request wall budget in ms (0 = none). Requests may
    /// override with their own `budget_ms`; it runs from the read that
    /// delivered the request, so waiting counts against it.
    pub default_budget_ms: u64,
    /// The scenario the mediator is seeded with.
    pub scenario: ScenarioParams,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 64,
            default_budget_ms: 0,
            scenario: ScenarioParams::default(),
        }
    }
}

/// Monotonic counters exported by the `stats` op.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests admitted through the gate (given a turn or a place to
    /// wait for one).
    pub admitted: AtomicU64,
    /// Requests answered successfully.
    pub served: AtomicU64,
    /// Requests shed with `overloaded` at admission.
    pub shed: AtomicU64,
    /// Requests failed with `deadline_exceeded`.
    pub deadline: AtomicU64,
    /// Publishes applied by the writer thread.
    pub publishes: AtomicU64,
}

/// Longest request line accepted.
const MAX_LINE_BYTES: usize = 1 << 20;
/// Rendered replies are written out once they pass this, drained or not.
const FLUSH_BYTES: usize = 64 << 10;
/// A connection's read buffer between requests.
const READ_CHUNK: usize = 16 << 10;

/// What clients can make the server hold besides the gate's
/// `workers + queue_depth`. Constants in production; the test module
/// shrinks them.
#[derive(Debug, Clone, Copy)]
struct Limits {
    /// Connections served at once (a thread and a descriptor each).
    max_connections: usize,
    /// Longest a reply write may make no progress before the connection
    /// is closed.
    write_timeout: Duration,
}

const LIMITS: Limits = Limits {
    max_connections: 256,
    write_timeout: Duration::from_secs(5),
};

/// Every mutex here guards state that is valid after each single update
/// (two counters, a map, nothing else), so a panic while one was held
/// costs nothing: take the guard back.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Admission: at most `workers` turns out at once, at most `queue_depth`
/// requests waiting for one, everything beyond that refused.
struct Gate {
    workers: usize,
    queue_depth: usize,
    state: Mutex<GateState>,
    /// Signalled by a returned turn, and only when somebody waits.
    freed: Condvar,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

/// What the gate gives a request it admits.
enum Entry<'a> {
    Turn(Turn<'a>),
    Queued(Queued<'a>),
}

/// The right to evaluate. Dropping it — also by unwinding — gives the
/// turn back and wakes one waiter.
struct Turn<'a>(&'a Gate);

/// A place in the wait for a turn. Dropping it gives the place up.
struct Queued<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Gate {
        Gate {
            workers: workers.max(1),
            queue_depth: queue_depth.max(1),
            state: Mutex::default(),
            freed: Condvar::new(),
        }
    }

    /// `None`: every turn is out and every place to wait is taken.
    fn enter(&self) -> Option<Entry<'_>> {
        let mut state = lock(&self.state);
        if state.running < self.workers {
            state.running += 1;
            Some(Entry::Turn(Turn(self)))
        } else if state.waiting < self.queue_depth {
            state.waiting += 1;
            Some(Entry::Queued(Queued(self)))
        } else {
            None
        }
    }
}

impl<'a> Queued<'a> {
    /// Blocks until a turn is free or `deadline` passes (`None`: the
    /// wait ran out the budget). Either way the place is given up — when
    /// `self` drops, after the guard this function holds.
    fn wait(self, deadline: Option<Instant>) -> Option<Turn<'a>> {
        let gate = self.0;
        let mut state = lock(&gate.state);
        loop {
            if state.running < gate.workers {
                state.running += 1;
                return Some(Turn(gate));
            }
            state = match deadline {
                None => gate
                    .freed
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    gate.freed
                        .wait_timeout(state, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

impl Drop for Queued<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).waiting -= 1;
    }
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.running -= 1;
        if state.waiting > 0 {
            self.0.freed.notify_one();
        }
    }
}

/// A gated op, borrowing its text from the parsed request.
enum Op<'a> {
    Ping,
    QueryFl(&'a str),
    Answer(&'a str),
    Plan,
    Sleep(u64),
}

impl Op<'_> {
    /// Ops whose cost the server does not bound: replies already
    /// rendered are written before one of these starts.
    fn unbounded(&self) -> bool {
        matches!(self, Op::Answer(_) | Op::Plan | Op::Sleep(_))
    }
}

/// What a gated op evaluated to, rendered after the reply's head. Rows
/// are terms, sorted, each written once, straight into the reply:
/// `query_fl`'s resolve in the pinned snapshot's symbol table, an
/// answer's in the one it carries.
enum Done {
    Ping,
    Slept(u64),
    Rows(Vec<Vec<Term>>),
    Answer(AnswerSet),
    Plan(PlanTrace),
}

/// What the writer thread hands back for one `publish`.
struct Published {
    loaded: usize,
    epoch: u64,
    publish_us: u64,
}

enum WriteCmd {
    Publish {
        rows: usize,
        reply: mpsc::Sender<Result<Published, String>>,
    },
    Stop,
}

struct Shared {
    hub: Arc<SnapshotHub>,
    gate: Gate,
    limits: Limits,
    default_budget_ms: u64,
    shutdown: AtomicBool,
    stats: ServerStats,
    schema: NeuroSchema,
    fetched: Section5Fetch,
    writer_tx: mpsc::Sender<WriteCmd>,
    /// Every live connection's stream, so shutdown can end its `read`.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Where a connect reaches the acceptor, to end its `accept`.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Sets the flag, stops the writer, and wakes every thread blocked in
    /// `read` or `accept`; each finishes what it is doing and exits.
    /// Write halves stay open, so replies in progress still go out.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.writer_tx.send(WriteCmd::Stop);
        for stream in lock(&self.conns).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.wake_addr);
    }
}

/// A running server: bound address plus the handles to stop and join it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot hub the server serves from (for embedding tests and
    /// benches that want to observe epochs from outside).
    pub fn hub(&self) -> Arc<SnapshotHub> {
        Arc::clone(&self.shared.hub)
    }

    /// Whether shutdown has been requested (via the `shutdown` op, a
    /// signal, or [`Self::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking: the acceptor stops accepting,
    /// connections finish the request they are on, and the writer stops.
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Requests shutdown and joins every server thread. A connection
    /// whose client has stopped reading delays this by at most the write
    /// timeout.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Builds the scenario mediator, seeds the hub with the first
/// publication, pre-runs the §5 fetch phase (so `plan` replays warm),
/// and starts the writer and the acceptor. Returns once the listener is
/// bound.
pub fn spawn_server(config: ServerConfig) -> io::Result<ServerHandle> {
    spawn_with(config, LIMITS)
}

fn spawn_with(config: ServerConfig, limits: Limits) -> io::Result<ServerHandle> {
    let mut mediator = build_scenario(&config.scenario);
    let schema = NeuroSchema::default();
    let q = Section5Query {
        organism: "rat".into(),
        transmitting_compartment: "Parallel_Fiber".into(),
        ion: "calcium".into(),
    };
    mediator
        .materialize_all()
        .map_err(|e| io::Error::other(format!("scenario materialize failed: {e}")))?;
    let fetched = {
        let (federation, knowledge) = mediator.fetch_eval_planes();
        section5_fetch(federation, knowledge, &schema, &q, true)
            .map_err(|e| io::Error::other(format!("warm plan fetch failed: {e}")))?
    };
    let hub = mediator.hub();
    mediator
        .publish_snapshot()
        .map_err(|e| io::Error::other(format!("initial publish failed: {e}")))?;

    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let (writer_tx, writer_rx) = mpsc::channel::<WriteCmd>();
    let shared = Arc::new(Shared {
        hub,
        gate: Gate::new(config.workers, config.queue_depth),
        limits,
        default_budget_ms: config.default_budget_ms,
        shutdown: AtomicBool::new(false),
        stats: ServerStats::default(),
        schema,
        fetched,
        writer_tx,
        conns: Mutex::default(),
        wake_addr,
    });

    // Writer: sole owner of the mediator from here on.
    let writer = {
        let shared = Arc::clone(&shared);
        let seed = config.scenario.seed;
        thread::Builder::new()
            .name("kind-writer".into())
            .spawn(move || writer_loop(mediator, seed, writer_rx, &shared))?
    };
    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("kind-acceptor".into())
            .spawn(move || accept_loop(listener, &shared))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        threads: vec![writer, acceptor],
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut next_key = 0u64;
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Out of descriptors, most likely: connections that end
                // give some back.
                thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        conns.retain(|t| !t.is_finished());
        if conns.len() >= shared.limits.max_connections {
            let mut out = Vec::new();
            let detail = format!("more than {} connections", shared.limits.max_connections);
            write_error(&mut out, &Json::Null, "overloaded", &detail);
            let _ = (&stream).write_all(&out);
            continue;
        }
        next_key += 1;
        let (key, shared) = (next_key, Arc::clone(shared));
        let spawned = thread::Builder::new()
            .name("kind-conn".into())
            .spawn(move || {
                let stream = Arc::new(stream);
                lock(&shared.conns).insert(key, Arc::clone(&stream));
                conn_loop(&stream, &shared);
                lock(&shared.conns).remove(&key);
            });
        // No thread to be had: the stream went with the closure.
        conns.extend(spawned);
    }
    drop(listener);
    for t in conns {
        let _ = t.join();
    }
}

/// A connection's write side: the replies rendered since the last write.
struct ConnIo<'a> {
    stream: &'a TcpStream,
    out: Vec<u8>,
    /// Where the reply being rendered starts — what a panic takes back.
    mark: usize,
}

impl ConnIo<'_> {
    /// Writes every rendered reply. An error — the peer is gone, or took
    /// none of it for the write timeout — ends the connection.
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.out);
        self.out.clear();
        self.mark = 0;
        written
    }
}

fn conn_loop(stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.limits.write_timeout));
    let mut io = ConnIo {
        stream,
        out: Vec::new(),
        mark: 0,
    };
    // `buf[start..end]` is read and unanswered; `buf[start..scanned]`
    // holds no newline.
    let mut buf = vec![0u8; READ_CHUNK];
    let (mut start, mut end, mut scanned) = (0, 0, 0);
    let mut reader = stream;
    loop {
        // The stream was registered before this check, so a shutdown that
        // missed it in the registry has already set the flag.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if start == end {
            (start, end, scanned) = (0, 0, 0);
            if buf.len() > READ_CHUNK {
                buf = vec![0u8; READ_CHUNK];
            }
        } else if end == buf.len() {
            // Full, and the tail is an unfinished line: make room.
            if start == 0 {
                buf.resize(buf.len() * 2, 0);
            }
            buf.copy_within(start..end, 0);
            (start, end, scanned) = (0, end - start, scanned - start);
        }
        let arrival = match reader.read(&mut buf[end..]) {
            Ok(0) => return,
            Ok(n) => {
                end += n;
                Instant::now()
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        while let Some(at) = buf[scanned..end].iter().position(|&b| b == b'\n') {
            let line = &buf[start..scanned + at];
            start = scanned + at + 1;
            scanned = start;
            if shared.shutdown.load(Ordering::SeqCst) {
                let _ = io.flush();
                return;
            }
            if line.len() > MAX_LINE_BYTES {
                return refuse_long_line(&mut io);
            }
            if serve_line(line, arrival, &mut io, shared).is_err() {
                return;
            }
        }
        scanned = end;
        if end - start > MAX_LINE_BYTES {
            return refuse_long_line(&mut io);
        }
        if io.flush().is_err() {
            return;
        }
    }
}

/// The typed reply, then a close the client can read it through: the
/// rest of what it sends is discarded until it hangs up.
fn refuse_long_line(io: &mut ConnIo<'_>) {
    let detail = "request line longer than 1 MiB";
    write_error(&mut io.out, &Json::Null, "bad_request", detail);
    if io.flush().is_ok() && io.stream.shutdown(Shutdown::Write).is_ok() {
        let mut rest = io.stream;
        let _ = io::copy(&mut rest, &mut io::sink());
    }
}

/// `{"id":…,"ok":…` — every reply starts so; fields follow, then
/// [`end_reply`]. The id prints as [`Json`] prints it.
fn begin_reply(out: &mut Vec<u8>, id: &Json, ok: bool) {
    out.extend_from_slice(b"{\"id\":");
    match id {
        Json::Null => out.extend_from_slice(b"null"),
        Json::Str(s) => wire::write_str(out, s),
        Json::Num(n) if wire::prints_as_integer(*n) => wire::write_i64(out, *n as i64),
        // Never `Err`: the buffer is a `Vec<u8>`, whose `io::Write` only
        // grows it, and a `Display` impl returns an error only when its
        // writer does (the `std::fmt` contract).
        other => write!(out, "{other}").expect("writing to a Vec cannot fail"),
    }
    bool_field(out, "ok", ok);
}

/// `,"key":` — the keys are the protocol's own, which need no escaping.
fn key(out: &mut Vec<u8>, key: &str) {
    out.extend_from_slice(b",\"");
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(b"\":");
}

fn str_field(out: &mut Vec<u8>, name: &str, value: &str) {
    key(out, name);
    wire::write_str(out, value);
}

fn num_field(out: &mut Vec<u8>, name: &str, value: u64) {
    key(out, name);
    wire::write_u64(out, value);
}

fn bool_field(out: &mut Vec<u8>, name: &str, value: bool) {
    key(out, name);
    out.extend_from_slice(if value { b"true" } else { b"false" });
}

fn end_reply(out: &mut Vec<u8>) {
    out.extend_from_slice(b"}\n");
}

fn write_error(out: &mut Vec<u8>, id: &Json, error: &str, detail: &str) {
    begin_reply(out, id, false);
    str_field(out, "error", error);
    str_field(out, "detail", detail);
    end_reply(out);
}

/// `"row_count"` and `"rows"`: each cell is a term's display, escaped
/// into `out` as it is formatted — a constant's is its name, escaped as
/// it stands in the symbol table.
fn write_rows(out: &mut Vec<u8>, rows: &[Vec<Term>], syms: &Interner) {
    num_field(out, "row_count", rows.len() as u64);
    out.extend_from_slice(b",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        out.extend_from_slice(if i == 0 { b"[" } else { b",[" });
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            match cell {
                Term::Const(name) => wire::write_str(out, syms.resolve(*name)),
                Term::Int(i) => {
                    out.push(b'"');
                    wire::write_i64(out, *i);
                    out.push(b'"');
                }
                _ => wire::write_display(out, cell.display(syms)),
            }
        }
        out.push(b']');
    }
    out.push(b']');
}

/// One request line to its rendered reply. `Err` ends the connection.
fn serve_line(
    line: &[u8],
    arrival: Instant,
    io: &mut ConnIo<'_>,
    shared: &Shared,
) -> io::Result<()> {
    let parsed = std::str::from_utf8(line)
        .map_err(|e| e.to_string())
        .map(str::trim)
        .and_then(|text| match text {
            "" => Ok(None),
            text => Json::parse(text).map(Some),
        });
    let req = match parsed {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()),
        Err(e) => {
            let detail = format!("unparseable request: {e}");
            write_error(&mut io.out, &Json::Null, "bad_request", &detail);
            return Ok(());
        }
    };
    let id = req.get("id").unwrap_or(&Json::Null);
    at_request_boundary(io, id, |io| handle_request(&req, id, arrival, io, shared))
}

/// The request boundary: a panic below it takes back whatever the request
/// had rendered, answers `internal_error`, and keeps the connection. What
/// the request held — a gate turn above all — is released by unwinding.
fn at_request_boundary(
    io: &mut ConnIo<'_>,
    id: &Json,
    serve: impl FnOnce(&mut ConnIo<'_>) -> io::Result<()>,
) -> io::Result<()> {
    io.mark = io.out.len();
    catch_unwind(AssertUnwindSafe(|| serve(io))).unwrap_or_else(|_| {
        io.out.truncate(io.mark);
        write_error(&mut io.out, id, "internal_error", "the request panicked");
        Ok(())
    })
}

fn handle_request(
    req: &Json,
    id: &Json,
    arrival: Instant,
    io: &mut ConnIo<'_>,
    shared: &Shared,
) -> io::Result<()> {
    let bad_request = |io: &mut ConnIo<'_>, detail: &str| {
        write_error(&mut io.out, id, "bad_request", detail);
        Ok(())
    };
    let Some(op_name) = req.get("op").and_then(Json::as_str) else {
        return bad_request(io, "missing \"op\"");
    };
    let op = match op_name {
        // Ungated ops: no snapshot, no turn.
        "stats" => {
            let s = &shared.stats;
            let out = &mut io.out;
            begin_reply(out, id, true);
            str_field(out, "op", "stats");
            num_field(out, "epoch", shared.hub.epoch());
            for (name, counter) in [
                ("admitted", &s.admitted),
                ("served", &s.served),
                ("shed", &s.shed),
                ("deadline", &s.deadline),
                ("publishes", &s.publishes),
            ] {
                num_field(out, name, counter.load(Ordering::Relaxed));
            }
            num_field(out, "queue_depth", shared.gate.queue_depth as u64);
            end_reply(out);
            return Ok(());
        }
        "shutdown" => {
            // Flag first: a client that has read the reply must find it
            // set. The connection loop sees it and writes the reply out.
            shared.request_shutdown();
            begin_reply(&mut io.out, id, true);
            str_field(&mut io.out, "op", "shutdown");
            end_reply(&mut io.out);
            return Ok(());
        }
        "publish" => {
            let rows = req.get("rows").and_then(Json::as_u64).unwrap_or(1);
            io.flush()?;
            let (reply, outcome) = mpsc::channel();
            let cmd = WriteCmd::Publish {
                rows: rows.clamp(1, 10_000) as usize,
                reply,
            };
            let sent = shared.writer_tx.send(cmd).ok();
            match sent.and_then(|()| outcome.recv().ok()) {
                Some(Ok(p)) => {
                    let out = &mut io.out;
                    begin_reply(out, id, true);
                    str_field(out, "op", "publish");
                    num_field(out, "loaded", p.loaded as u64);
                    num_field(out, "epoch", p.epoch);
                    num_field(out, "publish_us", p.publish_us);
                    end_reply(out);
                }
                Some(Err(detail)) => write_error(&mut io.out, id, "publish_error", &detail),
                None => write_error(&mut io.out, id, "publish_error", "the writer has stopped"),
            }
            return Ok(());
        }
        "ping" => Op::Ping,
        "query_fl" => match req.get("pattern").and_then(Json::as_str) {
            Some(pattern) => Op::QueryFl(pattern),
            None => return bad_request(io, "missing \"pattern\""),
        },
        "answer" => match req.get("rule").and_then(Json::as_str) {
            Some(rule) => Op::Answer(rule),
            None => return bad_request(io, "missing \"rule\""),
        },
        "plan" => Op::Plan,
        "sleep" => Op::Sleep(
            req.get("ms")
                .and_then(Json::as_u64)
                .unwrap_or(10)
                .min(2_000),
        ),
        other => return bad_request(io, &format!("unknown op {other:?}")),
    };
    let budget_ms = req
        .get("budget_ms")
        .and_then(Json::as_u64)
        .unwrap_or(shared.default_budget_ms);
    let deadline = (budget_ms > 0).then(|| arrival + Duration::from_millis(budget_ms));
    serve_gated(&op, id, arrival, deadline, io, shared)
}

/// Admission, the hub pin, the evaluation and the reply of one gated op.
/// The turn is given back before anything is rendered, so none is ever
/// held across a socket write.
fn serve_gated(
    op: &Op<'_>,
    id: &Json,
    arrival: Instant,
    deadline: Option<Instant>,
    io: &mut ConnIo<'_>,
    shared: &Shared,
) -> io::Result<()> {
    if op.unbounded() {
        io.flush()?;
    }
    let stats = &shared.stats;
    let Some(entry) = shared.gate.enter() else {
        stats.shed.fetch_add(1, Ordering::Relaxed);
        begin_reply(&mut io.out, id, false);
        str_field(&mut io.out, "error", "overloaded");
        num_field(&mut io.out, "queue_depth", shared.gate.queue_depth as u64);
        end_reply(&mut io.out);
        return Ok(());
    };
    stats.admitted.fetch_add(1, Ordering::Relaxed);
    let turn = match entry {
        Entry::Turn(turn) => Some(turn),
        Entry::Queued(place) => {
            io.flush()?;
            place.wait(deadline)
        }
    };
    let started = Instant::now();
    let queue_us = (started - arrival).as_micros() as u64;
    // The budget ran out while the request waited — for a turn, or behind
    // earlier lines of its own connection: fail it without evaluating.
    let turn = turn.filter(|_| deadline.is_none_or(|d| started < d));
    let Some(turn) = turn else {
        stats.deadline.fetch_add(1, Ordering::Relaxed);
        begin_reply(&mut io.out, id, false);
        str_field(&mut io.out, "error", "deadline_exceeded");
        num_field(&mut io.out, "queue_us", queue_us);
        end_reply(&mut io.out);
        return Ok(());
    };
    let Some(pinned) = shared.hub.load() else {
        write_error(&mut io.out, id, "query_error", "no snapshot published yet");
        return Ok(());
    };
    let outcome = evaluate(op, &pinned, shared, deadline);
    let eval_us = started.elapsed().as_micros() as u64;
    drop(turn);

    let (out, epoch) = (&mut io.out, pinned.epoch());
    match outcome {
        Ok(done) => {
            stats.served.fetch_add(1, Ordering::Relaxed);
            begin_reply(out, id, true);
            num_field(out, "epoch", epoch);
            num_field(out, "queue_us", queue_us);
            num_field(out, "eval_us", eval_us);
            write_done(out, &done, pinned.base().flogic().engine().symbols());
            end_reply(out);
        }
        Err((kind, detail)) => {
            if kind == "deadline_exceeded" {
                stats.deadline.fetch_add(1, Ordering::Relaxed);
            }
            begin_reply(out, id, false);
            str_field(out, "error", kind);
            str_field(out, "detail", &detail);
            num_field(out, "epoch", epoch);
            num_field(out, "queue_us", queue_us);
            end_reply(out);
        }
    }
    if io.out.len() > FLUSH_BYTES {
        io.flush()?;
    }
    Ok(())
}

fn evaluate(
    op: &Op<'_>,
    pinned: &PinnedSnapshot,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Done, (&'static str, String)> {
    match *op {
        Op::Ping => Ok(Done::Ping),
        Op::Sleep(ms) => {
            thread::sleep(Duration::from_millis(ms));
            Ok(Done::Slept(ms))
        }
        Op::QueryFl(pattern) => pinned
            .query_fl(pattern)
            .map(Done::Rows)
            .map_err(|e| ("query_error", e.to_string())),
        Op::Answer(rule) => {
            // Per-request cancellation: the request's own token (the
            // snapshot freezes none), which cancels itself when the budget
            // ends; the evaluator looks at it between rounds.
            let token = deadline.map(CancelToken::until);
            let opts = EvalOptions {
                cancel: token.clone(),
                ..pinned.eval_options().clone()
            };
            pinned
                .answer_terms(rule, &opts)
                .map(Done::Answer)
                .map_err(|e| {
                    let timed_out = token.is_some_and(|t| t.is_cancelled());
                    let kind = if timed_out {
                        "deadline_exceeded"
                    } else {
                        "query_error"
                    };
                    (kind, e.to_string())
                })
        }
        Op::Plan => pinned
            .run_section5(&shared.schema, &shared.fetched)
            .map(Done::Plan)
            .map_err(|e| ("query_error", e.to_string())),
    }
}

/// The op-specific fields of a successful reply; `pinned` is the symbol
/// table of the snapshot the op ran against.
fn write_done(out: &mut Vec<u8>, done: &Done, pinned: &Interner) {
    match done {
        Done::Ping => str_field(out, "op", "ping"),
        Done::Slept(ms) => {
            str_field(out, "op", "sleep");
            num_field(out, "ms", *ms);
        }
        Done::Rows(rows) => {
            str_field(out, "op", "query_fl");
            write_rows(out, rows, pinned);
        }
        Done::Answer(answer) => {
            str_field(out, "op", "answer");
            write_rows(out, &answer.rows, &answer.syms);
            let s = &answer.stats;
            out.extend_from_slice(b",\"eval\":{\"iterations\":");
            wire::write_u64(out, s.iterations as u64);
            num_field(out, "derived", s.derived as u64);
            num_field(out, "applications", s.applications as u64);
            num_field(out, "index_hits", s.index_hits as u64);
            bool_field(out, "magic_fired", answer.magic_fired);
            bool_field(out, "magic_declined", answer.magic_declined);
            out.push(b'}');
        }
        Done::Plan(trace) => {
            str_field(out, "op", "plan");
            match &trace.root {
                Some(root) => str_field(out, "root", root),
                None => out.extend_from_slice(b",\"root\":null"),
            }
            num_field(out, "distribution_rows", trace.distribution.len() as u64);
            num_field(out, "selected_sources", trace.selected_sources.len() as u64);
            str_field(out, "report", &trace.report.summary_line());
        }
    }
}

fn writer_loop(
    mut mediator: Mediator,
    seed: u64,
    rx: mpsc::Receiver<WriteCmd>,
    shared: &Arc<Shared>,
) {
    let mut batch = 1_000; // disjoint from any bench batches
    while let Ok(WriteCmd::Publish { rows, reply }) = rx.recv() {
        let started = Instant::now();
        batch += 1;
        let update = ncmir_update_rows(seed, batch, rows);
        let outcome = mediator
            .load_rows("NCMIR", "protein_amount", &update)
            .and_then(|()| mediator.publish())
            .map(|_| {
                shared.stats.publishes.fetch_add(1, Ordering::Relaxed);
                Published {
                    loaded: update.len(),
                    epoch: shared.hub.epoch(),
                    publish_us: started.elapsed().as_micros() as u64,
                }
            })
            .map_err(|e| e.to_string());
        // The asker may have gone with its connection.
        let _ = reply.send(outcome);
    }
}

#[cfg(test)]
mod tests;

//! The client workload driver (`kind-server --client`): M threads
//! issuing a mixed query workload against a running server,
//! pretty-printing per-response summary lines, and reporting aggregate
//! outcome counts. The CI smoke test and the sustained-QPS bench both
//! drive the server through this module's [`Conn`] helper.

use crate::wire::{obj, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A blocking request/response connection to a running server. The
/// server answers a connection's requests in the order it sent them, so
/// after pipelined [`Conn::send`]s the replies are read back with
/// [`Conn::recv`] in that order.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Conn {
    /// Connects to `addr` (e.g. `127.0.0.1:4901`).
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 0,
        })
    }

    /// Sends a request object without waiting for its response; returns
    /// the id assigned to it. (`fields` must not include `id`.)
    pub fn send(&mut self, fields: Json) -> std::io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        let mut pairs = vec![("id".to_string(), Json::int(id))];
        if let Json::Obj(rest) = fields {
            pairs.extend(rest);
        }
        let mut line = Json::Obj(pairs).to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Reads the next response line, whatever request it answers.
    pub fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let text = line.trim();
            if !text.is_empty() {
                return Json::parse(text).map_err(std::io::Error::other);
            }
        }
    }

    /// Sends `fields` and waits for its response, reading past the
    /// responses to any earlier [`Conn::send`]s still outstanding.
    pub fn request(&mut self, fields: Json) -> std::io::Result<Json> {
        let id = self.send(fields)?;
        loop {
            let resp = self.recv()?;
            if resp.get("id").and_then(Json::as_u64) == Some(id) {
                return Ok(resp);
            }
        }
    }
}

/// Client-mode configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent client threads.
    pub threads: usize,
    /// Requests per thread.
    pub requests: usize,
    /// Per-request budget in ms forwarded to the server (0 = server
    /// default).
    pub budget_ms: u64,
    /// Print one summary line per response.
    pub verbose: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:4901".into(),
            threads: 2,
            requests: 25,
            budget_ms: 0,
            verbose: true,
        }
    }
}

/// Aggregate outcome of a client run.
#[derive(Debug, Default)]
pub struct ClientSummary {
    /// Successful responses.
    pub ok: u64,
    /// `overloaded` sheds.
    pub overloaded: u64,
    /// `deadline_exceeded` failures.
    pub deadline: u64,
    /// Any other failure.
    pub errors: u64,
}

/// The mixed workload, cycled per request index: FL pattern scans, a
/// goal-directed conjunctive answer, the warm §5 plan, and pings.
pub fn workload_request(i: usize, budget_ms: u64) -> Json {
    let mut fields = match i % 5 {
        0 => obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]),
        1 => obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : neurotransmission")),
        ]),
        2 => obj([
            ("op", Json::str("answer")),
            (
                "rule",
                Json::str(
                    r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                       X[location -> L], X[ion_bound -> "calcium"]."#,
                ),
            ),
        ]),
        3 => obj([("op", Json::str("plan"))]),
        _ => obj([("op", Json::str("ping"))]),
    };
    if budget_ms > 0 {
        if let Json::Obj(pairs) = &mut fields {
            pairs.push(("budget_ms".into(), Json::int(budget_ms)));
        }
    }
    fields
}

/// One human-readable line per response, in the spirit of
/// `AnswerReport::summary_line`.
pub fn summary_line(thread: usize, resp: &Json) -> String {
    let id = resp.get("id").and_then(Json::as_u64).unwrap_or(0);
    let op = resp.get("op").and_then(Json::as_str).unwrap_or("?");
    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
        let epoch = resp.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        let queue_us = resp.get("queue_us").and_then(Json::as_u64).unwrap_or(0);
        let eval_us = resp.get("eval_us").and_then(Json::as_u64).unwrap_or(0);
        let mut line = format!(
            "[c{thread}] #{id} {op:<8} ok · epoch {epoch} · queue {queue_us}µs · eval {eval_us}µs"
        );
        if let Some(n) = resp.get("row_count").and_then(Json::as_u64) {
            line.push_str(&format!(" · {n} rows"));
        }
        if let Some(eval) = resp.get("eval") {
            if eval.get("magic_fired").and_then(Json::as_bool) == Some(true) {
                line.push_str(" · magic");
            }
            if let Some(d) = eval.get("derived").and_then(Json::as_u64) {
                line.push_str(&format!(" · {d} derived"));
            }
        }
        if let Some(report) = resp.get("report").and_then(Json::as_str) {
            line.push_str(&format!(" · {report}"));
        }
        line
    } else {
        let err = resp.get("error").and_then(Json::as_str).unwrap_or("error");
        format!("[c{thread}] #{id} {op:<8} FAILED · {err}")
    }
}

/// Runs the mixed workload from [`ClientConfig::threads`] connections
/// and returns the aggregate outcome counts.
pub fn run_client(config: &ClientConfig) -> std::io::Result<ClientSummary> {
    let ok = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let deadline = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    thread::scope(|s| {
        for t in 0..config.threads.max(1) {
            let (ok, overloaded, deadline, errors) = (
                Arc::clone(&ok),
                Arc::clone(&overloaded),
                Arc::clone(&deadline),
                Arc::clone(&errors),
            );
            let config = config.clone();
            s.spawn(move || {
                let mut conn = match Conn::connect(&config.addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("[c{t}] connect failed: {e}");
                        errors.fetch_add(config.requests as u64, Ordering::Relaxed);
                        return;
                    }
                };
                for i in 0..config.requests {
                    let req = workload_request(t + i, config.budget_ms);
                    match conn.request(req) {
                        Ok(resp) => {
                            if config.verbose {
                                println!("{}", summary_line(t, &resp));
                            }
                            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                                ok.fetch_add(1, Ordering::Relaxed);
                            } else {
                                match resp.get("error").and_then(Json::as_str) {
                                    Some("overloaded") => {
                                        overloaded.fetch_add(1, Ordering::Relaxed);
                                        // The backpressure contract: back
                                        // off before retrying.
                                        thread::sleep(Duration::from_millis(5));
                                    }
                                    Some("deadline_exceeded") => {
                                        deadline.fetch_add(1, Ordering::Relaxed);
                                    }
                                    _ => {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            eprintln!("[c{t}] request failed: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    Ok(ClientSummary {
        ok: ok.load(Ordering::Relaxed),
        overloaded: overloaded.load(Ordering::Relaxed),
        deadline: deadline.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
    })
}

//! The three served workloads: an in-process `kind-server` on loopback
//! TCP (one worker, admission queue of 64), driven closed-loop by one
//! generator thread over one connection.

use crate::json::{self, Value};
use crate::layers;
use crate::loadgen::{point_sequence, Conn, DriveOpts, OpKind, Phase, Request, Stop};
use crate::oracle::{served_params, Oracle, NCMIR_ROWS, PUBLISH_ROWS, SCAN_PATTERN};
use crate::procfs;
use crate::stats::{percentile, percentile_of};
use crate::workload::{clamp_ns, Failures, Layers, Measured, Scale, Workload};
use kind_server::{spawn_server, ServerConfig, ServerHandle};
use std::collections::HashSet;
use std::sync::mpsc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedKind {
    Point,
    Answer,
    PublishBesideReads,
}

impl ServedKind {
    pub fn name(self) -> &'static str {
        match self {
            ServedKind::Point => "served_point",
            ServedKind::Answer => "served_answer",
            ServedKind::PublishBesideReads => "publish_beside_reads",
        }
    }
}

/// Load shape of a served workload.
struct Shape {
    /// Requests in flight on the reader connection.
    window: usize,
    /// Ops per cycle of the mix; phases run whole cycles.
    cycle: u64,
    warmup_ops: u64,
    /// Completed reads per publish, where there is a writer.
    publish_every: Option<u64>,
    /// Completed reads of the measured phase after which peak memory is
    /// read: a count every run reaches within its first few seconds.
    rss_at_ops: u64,
}

/// Reads between publishes on `publish_beside_reads`.
const READS_PER_PUBLISH: u64 = 2_000;
/// Depth-1 pings sent after the measured phase.
const PINGPONG_OPS: u64 = 5_000;
/// One reply in this many is parsed in full and compared on timed paths.
const CHECK_EVERY: u64 = 16;

fn shape(kind: ServedKind) -> Shape {
    match kind {
        ServedKind::Point => Shape {
            window: 32,
            cycle: 4,
            warmup_ops: 80_000,
            publish_every: None,
            rss_at_ops: 400_000,
        },
        ServedKind::Answer => Shape {
            window: 1,
            cycle: 8,
            warmup_ops: 24,
            publish_every: None,
            rss_at_ops: 240,
        },
        ServedKind::PublishBesideReads => Shape {
            window: 32,
            cycle: 4,
            warmup_ops: 50_000,
            publish_every: Some(READS_PER_PUBLISH),
            rss_at_ops: 250_000,
        },
    }
}

/// What the writer connection measured.
#[derive(Debug, Default)]
struct Publishes {
    done: u64,
    failures: Failures,
    publish_us: Vec<u32>,
}

/// The writer: a second connection that publishes five rows when told to
/// and waits for the reply.
struct Publisher {
    conn: Conn,
    /// Every `protein_amount` object seen so far: the scenario's, then
    /// each read-back's new rows.
    known: HashSet<String>,
    /// Rows published since the last read-back.
    unread: u64,
}

impl Publisher {
    /// One publish. With `readback` the rows it added are then found and
    /// the batch's first row read through the same connection: it must be
    /// there at the reported epoch or a later one.
    fn publish(&mut self, readback: bool, out: &mut Publishes) {
        out.done += 1;
        let before = self.conn.last_epoch();
        let tail = format!("\"op\":\"publish\",\"rows\":{PUBLISH_ROWS}}}\n");
        let epoch = match self.conn.call(&tail) {
            Ok((line, _)) if json::scan_ok(line) => {
                out.publish_us
                    .push(json::scan_u64(line, json::PUBLISH_US).unwrap_or(0) as u32);
                self.unread += json::scan_u64(line, json::LOADED).unwrap_or(0);
                json::scan_u64(line, json::EPOCH).unwrap_or(0)
            }
            Ok((line, _)) => {
                return out.failures.fail(format!(
                    "publish refused: {}",
                    String::from_utf8_lossy(line).trim_end()
                ))
            }
            Err(e) => return out.failures.fail(format!("publish: {e}")),
        };
        if epoch <= before {
            return out
                .failures
                .fail(format!("publish reported epoch {epoch} after {before}"));
        }
        if readback {
            if let Err(why) = self.read_back(epoch) {
                out.failures.fail(why);
            }
        }
    }

    /// One `query_fl` through the writer connection, parsed in full: its
    /// rows, which must come from `published_epoch` or a later one.
    fn query(&mut self, pattern: &str, published_epoch: u64) -> Result<Vec<Vec<String>>, String> {
        let request = Request::new(OpKind::Scan, pattern, crate::loadgen::Expect::Ping);
        let (line, _) = self.conn.call(&request.tail).map_err(|e| e.to_string())?;
        let reply = Value::parse(String::from_utf8_lossy(line).trim_end())?;
        match reply.get("epoch").and_then(Value::as_u64) {
            Some(e) if e >= published_epoch => {}
            other => {
                return Err(format!(
                    "read-back at epoch {other:?}, before the publish's {published_epoch}"
                ))
            }
        }
        let rows = reply.get("rows").and_then(Value::as_arr).ok_or("no rows")?;
        Ok(rows
            .iter()
            .map(|row| {
                let cells = row.as_arr().unwrap_or_default();
                cells
                    .iter()
                    .map(|c| c.as_str().unwrap_or_default().to_string())
                    .collect()
            })
            .collect())
    }

    /// The class scan must show exactly the rows published since the last
    /// read-back as new objects `NCMIR.upd<batch>_<i>`, and the newest
    /// batch's row 0 must answer a point lookup.
    fn read_back(&mut self, published_epoch: u64) -> Result<(), String> {
        let scan = self.query(SCAN_PATTERN, published_epoch)?;
        let new: Vec<String> = scan
            .into_iter()
            .filter_map(|row| row.into_iter().next())
            .filter(|id| !self.known.contains(id))
            .collect();
        if new.len() as u64 != self.unread || !new.iter().all(|id| id.starts_with("NCMIR.upd")) {
            return Err(format!(
                "{} rows published, the scan shows these new ones: {new:?}",
                self.unread
            ));
        }
        self.unread = 0;
        let first = new
            .iter()
            .rfind(|id| id.ends_with("_0"))
            .ok_or("no row 0 among the new rows")?
            .clone();
        self.known.extend(new);
        let pattern = format!("\"{first}\"[amount -> A]");
        match self.query(&pattern, published_epoch)?.len() {
            1 => Ok(()),
            n => Err(format!("{pattern} after publish: {n} rows")),
        }
    }
}

/// Counters of the server's `stats` op.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    epoch: u64,
    admitted: u64,
    served: u64,
    shed: u64,
    deadline: u64,
    publishes: u64,
}

/// What the last `measure(.., collect = true)` kept for the layer metrics.
struct Collected {
    phase: Phase,
    publishes: Publishes,
    counters: ServerCounters,
    pingpong_rtt_us: f64,
}

pub struct Served {
    kind: ServedKind,
    seed: u64,
    scale: Scale,
    shape: Shape,
    oracle: Oracle,
    catalog: Vec<Request>,
    seq: Vec<u32>,
    seq_pos: u64,
    server: ServerHandle,
    conn: Conn,
    publisher: Option<Publisher>,
    collected: Option<Collected>,
}

impl Served {
    /// Scenario build, `materialize_all`, first publish (the oracle),
    /// server spawn, connect, the verification pass over every distinct
    /// request, and the fixed warm-up pass.
    pub fn setup(kind: ServedKind, seed: u64, scale: Scale) -> Served {
        let shape = shape(kind);
        let params = served_params(seed);
        let oracle = Oracle::build(&params);
        let (catalog, seq) = match kind {
            ServedKind::Answer => (oracle.answer_catalog(), (0..8).collect()),
            _ => (
                oracle.point_catalog(),
                point_sequence(seed, NCMIR_ROWS, 1 << 18),
            ),
        };
        let server = spawn_server(ServerConfig {
            workers: 1,
            queue_depth: 64,
            scenario: params,
            ..Default::default()
        })
        .expect("server spawns");
        let conn = Conn::connect(server.addr()).expect("connect");
        let publisher = shape.publish_every.map(|_| Publisher {
            conn: Conn::connect(server.addr()).expect("connect writer"),
            known: oracle.scan_ids(),
            unread: 0,
        });
        let mut served = Served {
            kind,
            seed,
            scale,
            shape,
            oracle,
            catalog,
            seq,
            seq_pos: 0,
            server,
            conn,
            publisher,
            collected: None,
        };
        served.verify();
        let warmup = Stop::Ops(scale.ops(served.shape.warmup_ops));
        let (phase, publishes) = served.drive(warmup, CHECK_EVERY, false, true);
        served.seq_pos += phase.completed;
        assert_clean("warm-up", &phase, &publishes);
        served
    }

    /// Every distinct request answered once and compared in full; one
    /// publish read back, where there is a writer.
    fn verify(&mut self) {
        let all: Vec<u32> = (0..self.catalog.len() as u32).collect();
        let opts = DriveOpts {
            window: self.shape.window,
            stop: Stop::Ops(all.len() as u64),
            cycle: 1,
            check_every: 1,
            collect: false,
            rss_at_ops: 0,
        };
        let phase = self
            .conn
            .drive(&self.catalog, &all, 0, &opts, &mut |_| {})
            .expect("verification pass");
        let mut publishes = Publishes::default();
        if let Some(p) = &mut self.publisher {
            p.publish(true, &mut publishes);
        }
        assert_clean("verification", &phase, &publishes);
    }

    /// One phase of the workload's load: the reader on the calling thread
    /// and, where there is a writer, a publisher thread that fires once
    /// per `publish_every` completed reads.
    fn drive(
        &mut self,
        stop: Stop,
        check_every: u64,
        collect: bool,
        readback: bool,
    ) -> (Phase, Publishes) {
        let opts = DriveOpts {
            window: self.shape.window,
            stop,
            cycle: self.shape.cycle,
            check_every,
            collect,
            rss_at_ops: match stop {
                Stop::Seconds(_) => self.shape.rss_at_ops,
                Stop::Ops(_) => 0,
            },
        };
        let (conn, catalog, seq, seq_pos) =
            (&mut self.conn, &self.catalog, &self.seq, self.seq_pos);
        let Some((publisher, every)) = self.publisher.as_mut().zip(self.shape.publish_every) else {
            let phase = conn
                .drive(catalog, seq, seq_pos, &opts, &mut |_| {})
                .expect("reader connection");
            return (phase, Publishes::default());
        };
        let (tick, ticks) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let writer = s.spawn(move || {
                let mut publishes = Publishes::default();
                while ticks.recv().is_ok() {
                    publisher.publish(readback, &mut publishes);
                }
                publishes
            });
            let mut phase = conn
                .drive(catalog, seq, seq_pos, &opts, &mut |completed| {
                    if completed % every == 0 {
                        // The writer outlives the reader's phase.
                        let _ = tick.send(());
                    }
                })
                .expect("reader connection");
            drop(tick);
            let started_waiting = std::time::Instant::now();
            let publishes = writer.join().expect("publisher thread");
            // The phase ends when both sides are done.
            phase.elapsed_s += started_waiting.elapsed().as_secs_f64();
            (phase, publishes)
        })
    }

    fn counters(&mut self) -> ServerCounters {
        let (line, _) = self.conn.call("\"op\":\"stats\"}\n").expect("stats op");
        let field = |name: &str| {
            let needle = format!("\"{name}\":");
            json::scan_u64(line, needle.as_bytes()).expect("stats field")
        };
        ServerCounters {
            epoch: field("epoch"),
            admitted: field("admitted"),
            served: field("served"),
            shed: field("shed"),
            deadline: field("deadline"),
            publishes: field("publishes"),
        }
    }

    /// Median round trip of depth-1 pings. Besides being a layer metric it
    /// tells what wake-up state the host is in: on two vCPUs the same
    /// binary read 17 µs or 75 µs minutes apart.
    fn pingpong(&mut self, ops: u64) -> f64 {
        let mut rtt_ns: Vec<u32> = (0..ops)
            .map(|_| {
                let (_, rtt) = self.conn.call("\"op\":\"ping\"}\n").expect("ping");
                clamp_ns(rtt)
            })
            .collect();
        f64::from(percentile_of(&mut rtt_ns, 50.0)) / 1e3
    }
}

fn assert_clean(what: &str, phase: &Phase, publishes: &Publishes) {
    assert!(
        phase.failures.count == 0 && publishes.failures.count == 0,
        "{what} pass failed {} reads ({:?}) and {} publishes ({:?})",
        phase.failures.count,
        phase.failures.first,
        publishes.failures.count,
        publishes.failures.first
    );
}

impl Workload for Served {
    fn sleep_bound(&self) -> bool {
        false
    }

    fn measure(&mut self, seconds: f64, collect: bool) -> Measured {
        let cpu0 = procfs::process_cpu_us();
        let thread0 = procfs::thread_cpu_us();
        let (mut phase, mut publishes) =
            self.drive(Stop::Seconds(seconds), CHECK_EVERY, collect, false);
        let cpu_us = procfs::process_cpu_us() - cpu0;
        let loadgen_cpu_us = procfs::thread_cpu_us() - thread0;
        let peak_rss_mib = phase.peak_rss_mib.unwrap_or_else(procfs::peak_rss_mib);
        self.seq_pos += phase.completed;
        let mut failures = std::mem::take(&mut phase.failures);
        failures.absorb(std::mem::take(&mut publishes.failures));
        let mut measured = Measured {
            attempted: phase.completed + publishes.done,
            failures,
            elapsed_s: phase.elapsed_s,
            windows: std::mem::take(&mut phase.windows),
            cpu_us,
            loadgen_cpu_us,
            peak_rss_mib,
        };
        let counters = self.counters();
        if counters.shed != 0 || counters.deadline != 0 {
            measured.failures.fail(format!(
                "server shed {} and timed out {} requests",
                counters.shed, counters.deadline
            ));
        }
        let pingpong_rtt_us = self.pingpong(self.scale.ops(PINGPONG_OPS));
        eprintln!(
            "[{}] host-state probe: depth-1 ping round trip p50 {pingpong_rtt_us:.1} us",
            self.kind.name()
        );
        self.collected = collect.then_some(Collected {
            phase,
            publishes,
            counters,
            pingpong_rtt_us,
        });
        measured
    }

    fn layers(&mut self, measured: &Measured, out: &mut Layers) {
        let Collected {
            mut phase,
            mut publishes,
            counters,
            pingpong_rtt_us,
        } = self
            .collected
            .take()
            .expect("layers() follows a collecting measure()");
        let name = self.kind.name();

        // server: reply fields, the stats op, per-kind latencies.
        out.insert("server.pingpong_rtt_us", pingpong_rtt_us);
        phase.queue_us.sort_unstable();
        out.insert(
            "server.queue_us_p50",
            f64::from(percentile(&phase.queue_us, 50.0)),
        );
        out.insert(
            "server.queue_us_p90",
            f64::from(percentile(&phase.queue_us, 90.0)),
        );
        out.insert(
            "server.eval_us_p50",
            f64::from(percentile_of(&mut phase.eval_us, 50.0)),
        );
        if !publishes.publish_us.is_empty() {
            publishes.publish_us.sort_unstable();
            out.insert(
                "server.publish_us_p50",
                f64::from(percentile(&publishes.publish_us, 50.0)),
            );
            out.insert(
                "server.publish_us_p90",
                f64::from(percentile(&publishes.publish_us, 90.0)),
            );
        }
        out.insert("server.admitted", counters.admitted as f64);
        out.insert("server.served", counters.served as f64);
        out.insert("server.shed", counters.shed as f64);
        out.insert("server.deadline", counters.deadline as f64);
        out.insert("server.publishes", counters.publishes as f64);
        out.insert("hub.epochs", counters.epoch as f64);
        out.insert(
            "server.response_bytes_per_op",
            phase.reply_bytes as f64 / phase.completed as f64,
        );
        for (metric, kind) in [
            ("serve.answer_p50_us", OpKind::Answer),
            ("serve.scan_p50_us", OpKind::Scan),
            ("serve.plan_p50_us", OpKind::Plan),
        ] {
            let mut of_kind: Vec<u32> = phase
                .lat_ns
                .iter()
                .zip(&phase.kinds)
                .filter(|(_, k)| **k == kind)
                .map(|(l, _)| *l)
                .collect();
            if !of_kind.is_empty() {
                out.insert(metric, f64::from(percentile_of(&mut of_kind, 50.0)) / 1e3);
            }
        }
        // Arrival order is no longer needed: sort in place.
        out.insert(
            "serve.p99_us",
            f64::from(percentile_of(&mut phase.lat_ns, 99.0)) / 1e3,
        );
        out.insert(
            "loadgen.cpu_share",
            measured.loadgen_cpu_us / measured.cpu_us,
        );

        // The in-process replay of the same op stream, spans off then on.
        let (reads, cycles): (u64, u64) = match self.kind {
            ServedKind::Answer => (8, 3),
            ServedKind::Point => (8_000, 1),
            ServedKind::PublishBesideReads => (READS_PER_PUBLISH, 4),
        };
        let ops = reads * cycles + if self.publisher.is_some() { cycles } else { 0 };
        let (oracle, catalog, seq) = (&mut self.oracle, &self.catalog, &self.seq);
        let writes = self.publisher.is_some();
        let mut batch = 0;
        let rounds = self.scale.replay_rounds();
        let (replay_us, overhead_pct, tracer) = layers::replay_both_ways(ops, rounds, |t| {
            let mut id = 0u64;
            for _ in 0..cycles {
                for _ in 0..reads {
                    let request = &catalog[seq[(id % seq.len() as u64) as usize] as usize];
                    id += 1;
                    layers::replay_request(t, oracle, id, request);
                }
                if writes {
                    batch += 1;
                    layers::replay_publish(t, oracle, batch);
                }
            }
        });
        let per_op_us = 1e6 / measured.raw_throughput();
        out.insert("server.overhead_us_per_op", per_op_us - replay_us);
        eprintln!(
            "[{name}] 1/throughput {per_op_us:.2} us = in-process replay {replay_us:.2} us + server.overhead_us_per_op {:.2} us",
            per_op_us - replay_us
        );
        let totals = crate::span::totals_by_name(tracer.spans());
        for (metric, span) in [
            ("wire.parse_req_us", "wire.parse_req"),
            ("wire.render_point_us", "wire.render_point"),
            ("wire.render_scan_us", "wire.render_scan"),
            ("snapshot.point_us", "snapshot.point"),
            ("snapshot.scan_us", "snapshot.scan"),
            ("snapshot.answer_selective_us", "snapshot.answer_selective"),
            ("snapshot.plan_us", "snapshot.plan"),
            (
                "snapshot.first_read_after_publish_us",
                "snapshot.first_read_after_publish",
            ),
            ("mediator.load_row_us", "mediator.load_row"),
            ("mediator.publish_us", "mediator.publish"),
        ] {
            layers::set_from_span(out, &totals, metric, span);
        }
        if let Some(load) = totals.get("hub.load") {
            out.insert("hub.load_ns", load.mean_us() * 1e3);
        }
        let answers: Vec<_> = ["snapshot.answer", "snapshot.answer_selective"]
            .iter()
            .filter_map(|n| totals.get(n))
            .collect();
        let answer_count: u64 = answers.iter().map(|t| t.count).sum();
        if answer_count > 0 {
            let total_ns: u64 = answers.iter().map(|t| t.total_ns).sum();
            out.insert(
                "snapshot.answer_us",
                total_ns as f64 / answer_count as f64 / 1e3,
            );
        }
        layers::report_trace(name, &tracer, &totals);

        // Probes of single calls the replay does not isolate.
        layers::probe_wire(&self.oracle, out);
        if self.kind == ServedKind::Answer {
            layers::probe_answer_path(&self.oracle, out);
        }
        layers::probe_build_scenario(&served_params(self.seed), out);
        layers::set_host(out, overhead_pct);
    }

    fn teardown(self) {
        drop(self.conn);
        drop(self.publisher);
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole served path at smoke size: spawn, verify every distinct
    /// request against the oracle, warm up, measure briefly, read the
    /// layer metrics — for each of the three served workloads.
    #[test]
    fn served_workloads_verify_and_measure_at_smoke_size() {
        for kind in [
            ServedKind::Point,
            ServedKind::Answer,
            ServedKind::PublishBesideReads,
        ] {
            let mut served = Served::setup(kind, 5, Scale { divisor: 50 });
            let measured = served.measure(0.2, true);
            assert_eq!(measured.failures.count, 0, "{:?}", measured.failures.first);
            assert!(measured.attempted > 0 && measured.timings(false).throughput_ops_s > 0.0);
            let mut out = Layers::new();
            served.layers(&measured, &mut out);
            assert_eq!(out["server.shed"], 0.0);
            assert!(out["server.pingpong_rtt_us"] > 0.0);
            assert!(out["wire.parse_req_us"] > 0.0);
            if kind == ServedKind::PublishBesideReads {
                assert!(out["server.publishes"] >= 2.0);
                assert!(out["hub.epochs"] > 1.0);
            }
            if kind == ServedKind::Answer {
                assert!(out["datalog.derived"] > 0.0);
                assert!(out["snapshot.answer_us"] > out["snapshot.answer_selective_us"]);
            }
            served.teardown();
        }
    }
}

//! The load generator: seeded request streams and a closed-loop,
//! pipelined connection that keeps a fixed number of requests in flight.
//!
//! Closed loop on purpose. On the 2-core hosts this runs on, a depth-1
//! ping-pong and low in-flight counts measure which wake-up state the
//! host is in (the same binary round-trips in 17 µs or 75 µs minutes
//! apart), not the program; at 32 in flight the server's worker never
//! sleeps and throughput repeats within a few percent.

use crate::json::{self, Value};
use crate::workload::{clamp_ns, Failures, Window, WindowRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What a request asks for; decides how its reply is checked and which
/// per-kind latency it is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Ping,
    /// `query_fl` on one object.
    Point,
    /// `query_fl` over a whole class.
    Scan,
    Answer,
    Plan,
}

/// The reply a request must get, computed in process from the same seed.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Ping,
    Rows(Vec<Vec<String>>),
    Plan {
        root: Option<String>,
        distribution_rows: u64,
        selected_sources: u64,
    },
}

/// One distinct request of a workload.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: OpKind,
    /// The FL pattern or rule (empty for `ping` and `plan`).
    pub text: String,
    /// The request line after its id, rendered once before timing:
    /// `"op":"query_fl","pattern":"…"}` plus the newline.
    pub tail: String,
    pub expect: Expect,
}

impl Request {
    pub fn new(kind: OpKind, text: &str, expect: Expect) -> Request {
        use kind_server::wire::{obj, Json};
        let body = match kind {
            OpKind::Ping => obj([("op", Json::str("ping"))]),
            OpKind::Plan => obj([("op", Json::str("plan"))]),
            OpKind::Point | OpKind::Scan => {
                obj([("op", Json::str("query_fl")), ("pattern", Json::str(text))])
            }
            OpKind::Answer => obj([("op", Json::str("answer")), ("rule", Json::str(text))]),
        };
        let rendered = body.to_string();
        Request {
            kind,
            text: text.to_string(),
            tail: format!("{}\n", &rendered[1..]),
            expect,
        }
    }
}

/// Appends the full request line for `id` to `out`.
pub fn render_line(out: &mut Vec<u8>, id: u64, tail: &str) {
    write!(out, "{{\"id\":{id},").expect("write to Vec");
    out.extend_from_slice(tail.as_bytes());
}

/// Zipf(1.0) over `n` objects: rank r is drawn with weight 1/(r+1), and
/// ranks map to object numbers through a seeded shuffle so each seed has
/// its own hot set.
pub struct Zipf {
    cdf: Vec<f64>,
    object_of_rank: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut StdRng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut object_of_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            object_of_rank.swap(i, rng.gen_range(0..i + 1));
        }
        Zipf {
            cdf,
            object_of_rank,
        }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u = rng.gen_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64;
        let rank = self.cdf.partition_point(|&c| c <= u);
        self.object_of_rank[rank.min(self.cdf.len() - 1)]
    }
}

/// The op sequence of the point workloads: request numbers into a catalog
/// laid out as three lookups per object followed by one `ping`. Kinds
/// rotate (location, amount, class, ping — a quarter each, exactly);
/// objects are Zipf-chosen.
pub fn point_sequence(seed: u64, objects: usize, len: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b1e);
    let zipf = Zipf::new(objects, &mut rng);
    let ping = (objects * 3) as u32;
    (0..len)
        .map(|j| match j % 4 {
            3 => ping,
            k => zipf.sample(&mut rng) * 3 + k as u32,
        })
        .collect()
}

/// FNV-1a over the first `ops` rendered request lines of a stream — the
/// fingerprint the determinism tests compare.
#[cfg(test)]
pub fn stream_hash(catalog: &[Request], seq: &[u32], ops: usize) -> u64 {
    let mut line = Vec::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for j in 0..ops {
        line.clear();
        render_line(
            &mut line,
            j as u64 + 1,
            &catalog[seq[j % seq.len()] as usize].tail,
        );
        for b in &line {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Compares a fully parsed reply with what the oracle expects.
pub fn check_reply(reply: &Value, expect: &Expect) -> Result<(), String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err("reply is not ok".into());
    }
    match expect {
        Expect::Ping => {
            if reply.get("op").and_then(Value::as_str) != Some("ping") {
                return Err("not a ping reply".into());
            }
        }
        Expect::Rows(rows) => {
            let got: Option<Vec<Vec<String>>> =
                reply.get("rows").and_then(Value::as_arr).map(|rs| {
                    rs.iter()
                        .map(|r| {
                            r.as_arr()
                                .unwrap_or_default()
                                .iter()
                                .map(|c| c.as_str().unwrap_or_default().to_string())
                                .collect()
                        })
                        .collect()
                });
            let got = got.ok_or("reply has no rows")?;
            if &got != rows {
                let at = got.iter().zip(rows).position(|(g, r)| g != r);
                return Err(format!(
                    "expected {} rows, got {}; first difference: expected {:?}, got {:?}",
                    rows.len(),
                    got.len(),
                    at.map_or(rows.get(got.len()), |i| rows.get(i)),
                    at.map_or(got.get(rows.len()), |i| got.get(i)),
                ));
            }
            if reply.get("row_count").and_then(Value::as_u64) != Some(rows.len() as u64) {
                return Err("row_count differs from rows".into());
            }
        }
        Expect::Plan {
            root,
            distribution_rows,
            selected_sources,
        } => {
            let got_root = reply.get("root").and_then(Value::as_str);
            if got_root != root.as_deref()
                || reply.get("distribution_rows").and_then(Value::as_u64)
                    != Some(*distribution_rows)
                || reply.get("selected_sources").and_then(Value::as_u64) != Some(*selected_sources)
            {
                return Err("plan reply differs".into());
            }
        }
    }
    Ok(())
}

/// When a phase stops sending. Either way it stops only at a multiple of
/// the op cycle, so every phase runs whole cycles of its mix, and it then
/// drains what is in flight.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Ops(u64),
    Seconds(f64),
}

pub struct DriveOpts {
    /// Requests kept in flight.
    pub window: usize,
    pub stop: Stop,
    /// Length of the workload's op cycle.
    pub cycle: u64,
    /// Every reply whose id is a multiple of this is parsed in full and
    /// compared with the oracle (1 = all of them).
    pub check_every: u64,
    /// Whether to keep per-reply latency, `queue_us`, `eval_us` and op
    /// kinds — the traced run's layer metrics.
    pub collect: bool,
    /// Completed-op count at which peak memory is read (0: never).
    pub rss_at_ops: u64,
}

/// What one phase of driving measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub completed: u64,
    pub failures: Failures,
    pub elapsed_s: f64,
    pub windows: Vec<Window>,
    /// `VmHWM` when `rss_at_ops` ops had completed, if the phase got there.
    pub peak_rss_mib: Option<f64>,
    /// With `collect`: send-to-matching-reply latency of every op in ns,
    /// in arrival order, beside its kind and reply fields.
    pub lat_ns: Vec<u32>,
    pub kinds: Vec<OpKind>,
    pub queue_us: Vec<u32>,
    pub eval_us: Vec<u32>,
    pub reply_bytes: u64,
}

struct Slot {
    id: u64,
    req: u32,
    sent: Instant,
}

/// One client connection. Ids and the highest epoch seen carry across
/// phases, so a reply from an older epoch than an earlier reply's is
/// caught wherever it happens.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    last_epoch: u64,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A server that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            next_id: 1,
            last_epoch: 0,
            line: Vec::new(),
        })
    }

    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    fn read_line(&mut self) -> std::io::Result<()> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Sends one request and waits for its reply (depth 1). Returns the
    /// raw reply line and the round-trip time.
    pub fn call(&mut self, tail: &str) -> std::io::Result<(&[u8], Duration)> {
        let id = self.next_id;
        self.next_id += 1;
        let mut out = Vec::with_capacity(tail.len() + 24);
        render_line(&mut out, id, tail);
        let sent = Instant::now();
        self.writer.write_all(&out)?;
        self.read_line()?;
        let rtt = sent.elapsed();
        if json::scan_u64(&self.line, json::ID) != Some(id) {
            return Err(std::io::Error::other("reply to another request"));
        }
        Ok((&self.line, rtt))
    }

    /// Drives `seq` (request numbers into `catalog`, cycled, starting at
    /// `seq_pos`) through the connection with `opts.window` requests in
    /// flight: each reply read frees a slot, and all slots freed by the
    /// replies already buffered are refilled with one write. `on_complete`
    /// is called with the running count after every reply.
    pub fn drive(
        &mut self,
        catalog: &[Request],
        seq: &[u32],
        seq_pos: u64,
        opts: &DriveOpts,
        on_complete: &mut dyn FnMut(u64),
    ) -> std::io::Result<Phase> {
        let ring = opts.window.next_power_of_two() as u64;
        let start = Instant::now();
        let mut slots: Vec<Slot> = (0..ring)
            .map(|_| Slot {
                id: 0,
                req: 0,
                sent: start,
            })
            .collect();
        let mut phase = Phase::default();
        let mut out: Vec<u8> = Vec::with_capacity(opts.window * 128);
        let mut recorder = WindowRecorder::start();
        let (mut sent, mut in_flight, mut free, mut stopping) = (0u64, 0u64, opts.window, false);
        loop {
            let now = Instant::now();
            while free > 0 && !stopping {
                let due = match opts.stop {
                    Stop::Ops(n) => sent >= n,
                    Stop::Seconds(s) => (now - start).as_secs_f64() >= s,
                };
                if due && sent % opts.cycle == 0 {
                    stopping = true;
                    break;
                }
                let req = seq[((seq_pos + sent) % seq.len() as u64) as usize];
                let id = self.next_id;
                self.next_id += 1;
                slots[(id % ring) as usize] = Slot { id, req, sent: now };
                render_line(&mut out, id, &catalog[req as usize].tail);
                sent += 1;
                free -= 1;
                in_flight += 1;
            }
            if !out.is_empty() {
                self.writer.write_all(&out)?;
                out.clear();
            }
            if in_flight == 0 {
                break;
            }
            loop {
                self.read_line()?;
                let now = Instant::now();
                in_flight -= 1;
                free += 1;
                phase.completed += 1;
                self.account(&mut phase, &mut recorder, &slots, ring, now, catalog, opts);
                on_complete(phase.completed);
                if phase.completed == opts.rss_at_ops {
                    phase.peak_rss_mib = Some(crate::procfs::peak_rss_mib());
                }
                // A closed window ran the probe: go round the outer loop,
                // which reads the clock again before it stamps new sends.
                let closed =
                    phase.completed % opts.cycle == 0 && recorder.at_cycle_boundary(now) != now;
                if closed || !self.reader.buffer().contains(&b'\n') {
                    break;
                }
            }
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.windows = recorder.finish();
        Ok(phase)
    }

    #[allow(clippy::too_many_arguments)]
    fn account(
        &mut self,
        phase: &mut Phase,
        recorder: &mut WindowRecorder,
        slots: &[Slot],
        ring: u64,
        now: Instant,
        catalog: &[Request],
        opts: &DriveOpts,
    ) {
        let line = &self.line[..];
        phase.reply_bytes += line.len() as u64;
        let Some(id) = json::scan_u64(line, json::ID) else {
            return phase.failures.fail("reply without an id".into());
        };
        let slot = &slots[(id % ring) as usize];
        if slot.id != id {
            return phase
                .failures
                .fail(format!("reply to id {id}, which is not in flight"));
        }
        let request = &catalog[slot.req as usize];
        let lat_ns = clamp_ns(now - slot.sent);
        recorder.record(lat_ns);
        if opts.collect {
            phase.lat_ns.push(lat_ns);
            phase.kinds.push(request.kind);
            phase
                .queue_us
                .push(json::scan_u64(line, json::QUEUE_US).unwrap_or(0) as u32);
            phase
                .eval_us
                .push(json::scan_u64(line, json::EVAL_US).unwrap_or(0) as u32);
        }
        if !json::scan_ok(line) {
            let text = String::from_utf8_lossy(&line[..line.len().min(200)]);
            return phase
                .failures
                .fail(format!("error reply: {}", text.trim_end()));
        }
        match json::scan_u64(line, json::EPOCH) {
            Some(epoch) if epoch >= self.last_epoch => self.last_epoch = epoch,
            Some(epoch) => {
                return phase.failures.fail(format!(
                    "epoch went back from {} to {epoch}",
                    self.last_epoch
                ))
            }
            None => return phase.failures.fail("reply without an epoch".into()),
        }
        if id % opts.check_every == 0 {
            let checked = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(|text| Value::parse(text.trim_end()))
                .and_then(|v| check_reply(&v, &request.expect));
            if let Err(why) = checked {
                phase
                    .failures
                    .fail(format!("{:?} {:?}: {why}", request.kind, request.text));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_catalog() -> Vec<Request> {
        let mut catalog = Vec::new();
        for i in 0..50 {
            for attr in ["location -> L", "amount -> A"] {
                let text = format!("\"NCMIR.pa{i}\"[{attr}]");
                catalog.push(Request::new(OpKind::Point, &text, Expect::Rows(vec![])));
            }
            let text = format!("\"NCMIR.pa{i}\" : C");
            catalog.push(Request::new(OpKind::Point, &text, Expect::Rows(vec![])));
        }
        catalog.push(Request::new(OpKind::Ping, "", Expect::Ping));
        catalog
    }

    #[test]
    fn request_lines_are_valid_json_with_the_id_first() {
        let r = Request::new(
            OpKind::Point,
            "\"NCMIR.pa1\"[amount -> A]",
            Expect::Rows(vec![]),
        );
        let mut line = Vec::new();
        render_line(&mut line, 42, &r.tail);
        let text = String::from_utf8(line).unwrap();
        assert!(text.ends_with('\n'));
        let v = Value::parse(text.trim_end()).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("op").and_then(Value::as_str), Some("query_fl"));
        assert_eq!(
            v.get("pattern").and_then(Value::as_str),
            Some("\"NCMIR.pa1\"[amount -> A]")
        );
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let catalog = tiny_catalog();
        let a = point_sequence(7, 50, 4096);
        let b = point_sequence(7, 50, 4096);
        let c = point_sequence(8, 50, 4096);
        assert_eq!(
            stream_hash(&catalog, &a, 4096),
            stream_hash(&catalog, &b, 4096)
        );
        assert_ne!(
            stream_hash(&catalog, &a, 4096),
            stream_hash(&catalog, &c, 4096)
        );
    }

    #[test]
    fn point_sequence_mixes_kinds_evenly_and_skews_objects() {
        let seq = point_sequence(3, 50, 40_000);
        let ping = 150;
        assert_eq!(seq.iter().filter(|&&r| r == ping).count(), 10_000);
        for k in 0..3 {
            let n = seq.iter().filter(|&&r| r != ping && r % 3 == k).count();
            assert_eq!(n, 10_000);
        }
        let mut per_object = [0usize; 50];
        for r in seq.iter().filter(|&&r| r != ping) {
            per_object[(*r / 3) as usize] += 1;
        }
        per_object.sort_unstable();
        // Zipf(1.0) over 50 objects: the hottest gets 1/H(50) = 22 %, the
        // coldest 0.44 %.
        assert!(per_object[49] > 30_000 / 6 && per_object[0] < 30_000 / 100);
    }

    #[test]
    fn check_reply_compares_rows_in_full() {
        let expect = Expect::Rows(vec![vec!["a".into(), "b".into()]]);
        let good = Value::parse(r#"{"id":1,"ok":true,"row_count":1,"rows":[["a","b"]]}"#).unwrap();
        let wrong = Value::parse(r#"{"id":1,"ok":true,"row_count":1,"rows":[["a","c"]]}"#).unwrap();
        let error = Value::parse(r#"{"id":1,"ok":false,"error":"overloaded"}"#).unwrap();
        assert!(check_reply(&good, &expect).is_ok());
        assert!(check_reply(&wrong, &expect).is_err());
        assert!(check_reply(&error, &expect).is_err());
        assert!(check_reply(&good, &Expect::Ping).is_err());
    }
}

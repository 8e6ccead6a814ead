//! End-to-end protocol tests: a real server on an ephemeral port, real
//! TCP clients. Timing-sensitive scheduling is made deterministic with
//! the `sleep` op (it holds a turn at the gate for a known duration) and
//! by polling the `stats` op, never with races.

use kind_server::client::Conn;
use kind_server::wire::{obj, Json};
use kind_server::{spawn_server, ServerConfig};
use kind_sources::ScenarioParams;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn small_scenario() -> ScenarioParams {
    ScenarioParams {
        senselab_rows: 10,
        ncmir_rows: 15,
        synapse_rows: 10,
        noise_sources: 1,
        noise_rows: 5,
        ..ScenarioParams::default()
    }
}

fn small_server(workers: usize, queue_depth: usize) -> (kind_server::ServerHandle, String) {
    let handle = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        default_budget_ms: 0,
        scenario: small_scenario(),
    })
    .expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn serves_the_whole_protocol() {
    let (handle, addr) = small_server(2, 64);
    let mut conn = Conn::connect(&addr).unwrap();

    // ping: pinned to the seed epoch.
    let resp = conn.request(obj([("op", Json::str("ping"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(1));
    assert!(resp.get("queue_us").and_then(Json::as_u64).is_some());

    // query_fl: all NCMIR + noise protein rows.
    let resp = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("row_count").and_then(Json::as_u64), Some(20));

    // answer: rows + eval counters.
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            (
                "rule",
                Json::str(
                    r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                       X[location -> L], X[ion_bound -> "calcium"]."#,
                ),
            ),
        ]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let rows = resp.get("rows").and_then(Json::as_arr).unwrap();
    assert!(!rows.is_empty(), "calcium sites exist in the scenario");
    let eval = resp.get("eval").expect("eval counters present");
    assert!(eval.get("derived").and_then(Json::as_u64).unwrap() > 0);

    // plan: the warm §5 replay.
    let resp = conn.request(obj([("op", Json::str("plan"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp
        .get("distribution_rows")
        .and_then(Json::as_u64)
        .unwrap()
        .gt(&0));
    let report = resp.get("report").and_then(Json::as_str).unwrap();
    assert!(
        report.contains("complete"),
        "warm plan is complete: {report}"
    );

    // stats reflects the traffic so far.
    let resp = conn.request(obj([("op", Json::str("stats"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(resp.get("served").and_then(Json::as_u64).unwrap() >= 4);
    assert_eq!(resp.get("shed").and_then(Json::as_u64), Some(0));

    // bad requests get typed errors, not dropped connections.
    let resp = conn.request(obj([("op", Json::str("nope"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("bad_request")
    );
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            ("rule", Json::str("p(X :- broken")),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("query_error")
    );

    handle.shutdown();
}

#[test]
fn answers_match_an_inprocess_snapshot() {
    let (handle, addr) = small_server(2, 64);
    // Ground truth: the same scenario evaluated in-process.
    let mut m = kind_sources::build_scenario(&small_scenario());
    m.materialize_all().unwrap();
    let snap = m.snapshot().unwrap();
    let rule = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                  X[location -> L], X[ion_bound -> "calcium"]."#;
    let expected = snap.answer(rule).unwrap();

    let mut conn = Conn::connect(&addr).unwrap();
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            ("rule", Json::str(rule)),
        ]))
        .unwrap();
    let got: Vec<Vec<String>> = resp
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap()
                .iter()
                .map(|c| c.as_str().unwrap().to_string())
                .collect()
        })
        .collect();
    assert_eq!(got, expected, "served rows == in-process snapshot rows");
    handle.shutdown();
}

/// Polls the `stats` op (it needs no turn) until `field` reads `want`.
fn await_stat(stats_conn: &mut Conn, field: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = stats_conn
            .request(obj([("op", Json::str("stats"))]))
            .unwrap();
        if stats.get(field).and_then(Json::as_u64) == Some(want) {
            return;
        }
        assert!(Instant::now() < deadline, "{field} never read {want}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn error_of(resp: &Json) -> Option<&str> {
    resp.get("error").and_then(Json::as_str)
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

#[test]
fn sheds_overload_with_a_typed_response() {
    // One turn, one place to wait: A's sleep holds the turn, B's ping
    // takes the place, and C's ping must be shed — at once, not when the
    // sleep ends.
    let (handle, addr) = small_server(1, 1);
    let mut stats_conn = Conn::connect(&addr).unwrap();
    let (mut a, mut b, mut c) = (
        Conn::connect(&addr).unwrap(),
        Conn::connect(&addr).unwrap(),
        Conn::connect(&addr).unwrap(),
    );
    a.send(obj([("op", Json::str("sleep")), ("ms", Json::int(400))]))
        .unwrap();
    await_stat(&mut stats_conn, "admitted", 1);
    b.send(obj([("op", Json::str("ping"))])).unwrap();
    await_stat(&mut stats_conn, "admitted", 2);

    let asked = Instant::now();
    let shed = c.request(obj([("op", Json::str("ping"))])).unwrap();
    assert_eq!(error_of(&shed), Some("overloaded"), "{shed}");
    assert_eq!(shed.get("queue_depth").and_then(Json::as_u64), Some(1));
    assert!(asked.elapsed() < Duration::from_millis(200), "shed late");

    assert!(is_ok(&a.recv().unwrap()), "sleep completed");
    let waited = b.recv().unwrap();
    assert!(is_ok(&waited), "waiting ping served: {waited}");
    let queue_us = waited.get("queue_us").and_then(Json::as_u64).unwrap();
    assert!(queue_us >= 100_000, "waited for the sleep ({queue_us}µs)");
    await_stat(&mut stats_conn, "shed", 1);
    handle.shutdown();
}

#[test]
fn queue_wait_counts_against_the_budget() {
    // The one turn is held by a 300 ms sleep; a request with a 50 ms
    // budget waiting behind it fails when its budget ends — not when the
    // sleep does — and is never evaluated.
    let (handle, addr) = small_server(1, 8);
    let mut stats_conn = Conn::connect(&addr).unwrap();
    let mut a = Conn::connect(&addr).unwrap();
    let mut b = Conn::connect(&addr).unwrap();
    a.send(obj([("op", Json::str("sleep")), ("ms", Json::int(300))]))
        .unwrap();
    await_stat(&mut stats_conn, "admitted", 1);
    let asked = Instant::now();
    let doomed = b
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
            ("budget_ms", Json::int(50)),
        ]))
        .unwrap();
    let took = asked.elapsed();
    assert_eq!(error_of(&doomed), Some("deadline_exceeded"), "{doomed}");
    let waited = doomed.get("queue_us").and_then(Json::as_u64).unwrap();
    assert!(waited >= 50_000, "waited out its budget ({waited}µs)");
    assert!(took < Duration::from_millis(250), "failed late: {took:?}");
    assert!(is_ok(&a.recv().unwrap()), "sleep completed");
    await_stat(&mut stats_conn, "deadline", 1);
    handle.shutdown();
}

/// A bare socket, for tests that decide what goes into one `write`.
fn raw_conn(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("reply {line:?}: {e}"))
}

#[test]
fn budget_runs_from_the_read_and_replies_keep_request_order() {
    let (handle, addr) = small_server(1, 8);
    let (mut stream, mut reader) = raw_conn(&addr);
    stream
        .write_all(
            b"{\"id\":1,\"op\":\"sleep\",\"ms\":200}\n{\"id\":2,\"op\":\"ping\",\"budget_ms\":50}\n",
        )
        .unwrap();
    let first = read_reply(&mut reader);
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
    assert!(is_ok(&first), "{first}");
    // The ping arrived with the sleep, so its budget was gone by the time
    // its turn on the connection came.
    let second = read_reply(&mut reader);
    assert_eq!(second.get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(error_of(&second), Some("deadline_exceeded"), "{second}");
    assert!(second.get("queue_us").and_then(Json::as_u64).unwrap() >= 200_000);
    handle.shutdown();
}

#[test]
fn a_cheap_reply_does_not_wait_behind_an_expensive_one() {
    let (handle, addr) = small_server(1, 8);
    let (mut stream, mut reader) = raw_conn(&addr);
    let sent = Instant::now();
    stream
        .write_all(b"{\"id\":1,\"op\":\"ping\"}\n{\"id\":2,\"op\":\"sleep\",\"ms\":300}\n")
        .unwrap();
    let ping = read_reply(&mut reader);
    let took = sent.elapsed();
    assert_eq!(ping.get("id").and_then(Json::as_u64), Some(1));
    assert!(
        took < Duration::from_millis(100),
        "ping held back: {took:?}"
    );
    let sleep = read_reply(&mut reader);
    assert_eq!(sleep.get("id").and_then(Json::as_u64), Some(2));
    assert!(sent.elapsed() >= Duration::from_millis(300));
    handle.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_shed_nothing() {
    let (handle, addr) = small_server(1, 64);
    let mut conn = Conn::connect(&addr).unwrap();
    let ids: Vec<u64> = (0..32)
        .map(|i| {
            conn.send(obj([
                ("op", Json::str("query_fl")),
                (
                    "pattern",
                    Json::str(format!("\"NCMIR.pa{}\"[amount -> A]", i % 15)),
                ),
            ]))
            .unwrap()
        })
        .collect();
    for id in ids {
        let resp = conn.recv().unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(id), "in order");
        assert!(is_ok(&resp), "{resp}");
        assert_eq!(resp.get("row_count").and_then(Json::as_u64), Some(1));
    }
    let stats = conn.request(obj([("op", Json::str("stats"))])).unwrap();
    assert_eq!(stats.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(stats.get("served").and_then(Json::as_u64), Some(32));
    handle.shutdown();
}

#[test]
fn a_request_split_across_slow_writes_is_one_request() {
    let (handle, addr) = small_server(1, 8);
    let (mut stream, mut reader) = raw_conn(&addr);
    stream.write_all(b"{\"id\": 7, \"op\":").unwrap();
    std::thread::sleep(Duration::from_millis(350));
    stream.write_all(b" \"ping\"}\n").unwrap();
    let resp = read_reply(&mut reader);
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7), "{resp}");
    assert!(is_ok(&resp), "{resp}");
    handle.shutdown();
}

#[test]
fn a_client_that_never_reads_blocks_only_itself() {
    let (handle, addr) = small_server(1, 64);
    let mut stats_conn = Conn::connect(&addr).unwrap();
    // The hog sends class scans (8 kB of reply each) as fast as the server
    // takes them and reads nothing: once the socket buffers between them
    // are full, the server cannot write to it any more.
    let (hog, _unread) = raw_conn(&addr);
    let mut hog_writer = hog.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let scan = b"{\"id\":0,\"op\":\"query_fl\",\"pattern\":\"X[A -> V]\"}\n";
        while hog_writer.write_all(scan).is_ok() {}
    });
    let served = |conn: &mut Conn| {
        let stats = conn.request(obj([("op", Json::str("stats"))])).unwrap();
        stats.get("served").and_then(Json::as_u64).unwrap()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let before = served(&mut stats_conn);
        std::thread::sleep(Duration::from_millis(150));
        if before > 0 && served(&mut stats_conn) == before {
            break;
        }
        assert!(Instant::now() < deadline, "the hog was never held up");
    }
    // Everybody else is served as if it were not there.
    let (mut other, mut replies) = raw_conn(&addr);
    other
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    for id in 1..=3 {
        let ping = format!("{{\"id\":{id},\"op\":\"ping\"}}\n");
        other.write_all(ping.as_bytes()).unwrap();
        let mut line = String::new();
        replies
            .read_line(&mut line)
            .expect("a ping is answered within a second");
        let resp = Json::parse(line.trim()).unwrap();
        assert!(is_ok(&resp), "{resp}");
    }
    hog.shutdown(std::net::Shutdown::Both).unwrap();
    writer.join().unwrap();
    handle.shutdown();
}

#[test]
fn an_oversized_request_line_is_refused_and_the_connection_closed() {
    let (handle, addr) = small_server(1, 8);
    let (mut stream, mut reader) = raw_conn(&addr);
    // 1.5 MiB and no newline in sight.
    let junk = vec![b'x'; 3 << 19];
    stream.write_all(&junk).unwrap();
    let resp = read_reply(&mut reader);
    assert_eq!(error_of(&resp), Some("bad_request"), "{resp}");
    assert_eq!(
        resp.get("detail").and_then(Json::as_str),
        Some("request line longer than 1 MiB")
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "closed: {rest:?}");
    // Everyone else is served as before.
    let mut conn = Conn::connect(&addr).unwrap();
    assert!(is_ok(
        &conn.request(obj([("op", Json::str("ping"))])).unwrap()
    ));
    handle.shutdown();
}

#[test]
fn a_budget_that_ends_during_evaluation_interrupts_it() {
    let (handle, addr) = small_server(1, 8);
    let mut conn = Conn::connect(&addr).unwrap();
    // Counts every numeric attribute value up by one per fixpoint round:
    // tens of thousands of rounds unless something stops it.
    let asked = Instant::now();
    let resp = conn
        .request(obj([
            ("op", Json::str("answer")),
            (
                "rule",
                Json::str("mi(O, A, W) :- mi(O, A, V), V < 50000, W = V + 1."),
            ),
            ("budget_ms", Json::int(40)),
        ]))
        .unwrap();
    let took = asked.elapsed();
    assert_eq!(error_of(&resp), Some("deadline_exceeded"), "{resp}");
    // Interrupted at a round boundary, not failed before it began.
    let detail = resp.get("detail").and_then(Json::as_str).unwrap();
    assert!(detail.contains("interrupted"), "{detail}");
    assert!(took >= Duration::from_millis(40), "{took:?}");
    assert!(took < Duration::from_secs(5), "{took:?}");
    let stats = conn.request(obj([("op", Json::str("stats"))])).unwrap();
    assert_eq!(stats.get("deadline").and_then(Json::as_u64), Some(1));
    assert_eq!(stats.get("served").and_then(Json::as_u64), Some(0));
    handle.shutdown();
}

#[test]
fn publish_while_serving_bumps_the_epoch_and_pins_inflight_reads() {
    let (handle, addr) = small_server(2, 64);
    let hub = handle.hub();
    let mut conn = Conn::connect(&addr).unwrap();

    let before = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]))
        .unwrap();
    assert_eq!(before.get("epoch").and_then(Json::as_u64), Some(1));
    let rows_before = before.get("row_count").and_then(Json::as_u64).unwrap();

    // Publish 5 fresh NCMIR rows through the writer thread.
    let resp = conn
        .request(obj([("op", Json::str("publish")), ("rows", Json::int(5))]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("loaded").and_then(Json::as_u64), Some(5));
    assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(2));
    assert_eq!(hub.epoch(), 2, "hub observed the publish");

    // New requests pin the new epoch and see the new rows.
    let after = conn
        .request(obj([
            ("op", Json::str("query_fl")),
            ("pattern", Json::str("X : protein_amount")),
        ]))
        .unwrap();
    assert_eq!(after.get("epoch").and_then(Json::as_u64), Some(2));
    assert_eq!(
        after.get("row_count").and_then(Json::as_u64),
        Some(rows_before + 5)
    );
    handle.shutdown();
}

/// The serving-plane knob audit (the `ServerConfig` side of kind-core's
/// `knob_toggles_keep_warm_answer_warm`): worker count, queue depth, and
/// the default per-request budget are **pure serving knobs** — none of
/// them reaches the mediator, so across every setting the published
/// epoch stays 1 and the served rows are bit-identical. Only the shed
/// and deadline *outcomes* may differ, and an unconstrained budget must
/// not produce any.
#[test]
fn serving_knobs_never_invalidate_published_state() {
    let rule = r#"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P],
                  X[location -> L], X[ion_bound -> "calcium"]."#;
    let mut baseline: Option<Vec<String>> = None;
    for (workers, queue_depth, default_budget_ms) in
        [(1, 1, 0), (1, 64, 0), (4, 8, 0), (2, 64, 60_000)]
    {
        let handle = spawn_server(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
            default_budget_ms,
            scenario: small_scenario(),
        })
        .expect("server starts");
        let mut conn = Conn::connect(&handle.addr().to_string()).unwrap();
        let resp = conn
            .request(obj([
                ("op", Json::str("answer")),
                ("rule", Json::str(rule)),
            ]))
            .unwrap();
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "serving knobs ({workers},{queue_depth},{default_budget_ms}) broke the answer"
        );
        assert_eq!(
            resp.get("epoch").and_then(Json::as_u64),
            Some(1),
            "serving knobs must not trigger extra publishes"
        );
        let rows: Vec<String> = resp
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.to_string())
            .collect();
        match &baseline {
            None => baseline = Some(rows),
            Some(b) => assert_eq!(&rows, b, "rows diverged across serving knobs"),
        }
        handle.shutdown();
    }
}

#[test]
fn shutdown_op_unwinds_the_server() {
    let (handle, addr) = small_server(2, 16);
    let mut conn = Conn::connect(&addr).unwrap();
    let resp = conn.request(obj([("op", Json::str("shutdown"))])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert!(handle.shutdown_requested());
    // Joins cleanly: writer, acceptor and every connection thread exit.
    handle.shutdown();
    // The port is released; a fresh connect must fail (possibly after
    // the OS tears the listener down, hence the retry loop).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match Conn::connect(&addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "listener still accepting after shutdown"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        }
    }
}

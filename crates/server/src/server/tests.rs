//! Unit tests of `server.rs`: the gate, the request boundary, and the
//! limits, which only this module can shrink.

use super::*;
use std::io::{BufRead, BufReader};

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        queue_depth: 8,
        scenario: ScenarioParams {
            senselab_rows: 10,
            ncmir_rows: 15,
            synapse_rows: 10,
            noise_sources: 1,
            noise_rows: 5,
            ..ScenarioParams::default()
        },
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// One request line out, one reply line back.
fn call(conn: &mut (TcpStream, BufReader<TcpStream>), request: &str) -> io::Result<Json> {
    conn.0.write_all(request.as_bytes())?;
    conn.0.write_all(b"\n")?;
    let mut line = String::new();
    if conn.1.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Json::parse(line.trim()).expect("a reply is JSON"))
}

fn error_of(reply: &Json) -> Option<&str> {
    reply.get("error").and_then(Json::as_str)
}

#[test]
fn gate_hands_out_turns_then_places_then_nothing() {
    let gate = Gate::new(1, 1);
    let Some(Entry::Turn(turn)) = gate.enter() else {
        panic!("a free gate gives a turn");
    };
    let Some(Entry::Queued(place)) = gate.enter() else {
        panic!("a busy gate gives a place to wait");
    };
    assert!(gate.enter().is_none(), "no turn and no place: shed");
    // A wait that runs out of budget gives its place back.
    assert!(place.wait(Some(Instant::now())).is_none());
    let Some(Entry::Queued(place)) = gate.enter() else {
        panic!("the place came back");
    };
    drop(turn);
    let turn = place
        .wait(None)
        .expect("the returned turn goes to the waiter");
    assert!(matches!(gate.enter(), Some(Entry::Queued(_))));
    drop(turn);
    assert!(matches!(gate.enter(), Some(Entry::Turn(_))));
}

#[test]
fn a_panicking_request_answers_internal_error_and_returns_its_turn() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let gate = Gate::new(1, 1);
    let mut io = ConnIo {
        stream: &stream,
        out: b"an earlier reply\n".to_vec(),
        mark: 0,
    };
    let kept = at_request_boundary(&mut io, &Json::int(9), |io| {
        let Some(Entry::Turn(_turn)) = gate.enter() else {
            panic!("a free gate gives a turn");
        };
        io.out.extend_from_slice(b"{\"id\":9,\"ok\":tr");
        panic!("the evaluation blew up (this test means it to)");
    });
    assert!(kept.is_ok(), "the connection carries on");
    assert_eq!(
        String::from_utf8(io.out).unwrap(),
        "an earlier reply\n{\"id\":9,\"ok\":false,\"error\":\"internal_error\",\
         \"detail\":\"the request panicked\"}\n"
    );
    assert!(
        matches!(gate.enter(), Some(Entry::Turn(_))),
        "unwinding gave the turn back"
    );
}

#[test]
fn connections_beyond_the_limit_are_refused_with_a_typed_reply() {
    let limits = Limits {
        max_connections: 2,
        ..LIMITS
    };
    let handle = spawn_with(small_config(), limits).unwrap();
    let mut first = connect(&handle);
    let mut second = connect(&handle);
    for conn in [&mut first, &mut second] {
        let pong = call(conn, r#"{"id":1,"op":"ping"}"#).unwrap();
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
    }
    let mut third = connect(&handle);
    let mut line = String::new();
    third.1.read_line(&mut line).unwrap();
    let refused = Json::parse(line.trim()).unwrap();
    assert_eq!(error_of(&refused), Some("overloaded"), "{refused}");
    assert_eq!(
        refused.get("detail").and_then(Json::as_str),
        Some("more than 2 connections")
    );
    assert_eq!(third.1.read_line(&mut line).unwrap(), 0, "and closed");
    // A connection that ends makes room for the next.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match call(&mut connect(&handle), r#"{"id":2,"op":"ping"}"#) {
            Ok(reply) if error_of(&reply).is_none() => break,
            _ => assert!(Instant::now() < deadline, "no room was made"),
        }
        thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
}

/// A client that sends class scans and reads none of the replies,
/// until it cannot send any more either: the server is then stuck in
/// a write to it.
fn hog(handle: &ServerHandle) -> TcpStream {
    let hog = TcpStream::connect(handle.addr()).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let scan = b"{\"id\":0,\"op\":\"query_fl\",\"pattern\":\"X[A -> V]\"}\n";
    while (&hog).write_all(scan).is_ok() {}
    hog
}

#[test]
fn a_write_nobody_takes_times_out_and_closes_the_connection() {
    let limits = Limits {
        write_timeout: Duration::from_millis(200),
        ..LIMITS
    };
    let handle = spawn_with(small_config(), limits).unwrap();
    let hog = hog(&handle);
    // The server gives the connection up: its thread leaves the
    // registry while the client is still there, holding no turn.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !lock(&handle.shared.conns).is_empty() {
        assert!(Instant::now() < deadline, "the hog is still being served");
        thread::sleep(Duration::from_millis(20));
    }
    assert!(matches!(handle.shared.gate.enter(), Some(Entry::Turn(_))));
    handle.shutdown();
    drop(hog);
}

#[test]
fn shutdown_returns_while_a_client_that_never_reads_is_connected() {
    let limits = Limits {
        write_timeout: Duration::from_millis(500),
        ..LIMITS
    };
    let handle = spawn_with(small_config(), limits).unwrap();
    let hog = hog(&handle);
    let asked = Instant::now();
    handle.shutdown();
    assert!(asked.elapsed() < Duration::from_secs(3));
    drop(hog);
}

/// Rows as replies rendered them before cells were written from their
/// terms: each cell shown as a `String`, the rows sorted as strings, then
/// every cell escaped into the reply.
fn rows_rendered_as_strings(rows: &[Vec<Term>], syms: &Interner) -> Vec<u8> {
    let mut shown: Vec<Vec<String>> = (rows.iter())
        .map(|r| r.iter().map(|t| t.display(syms).to_string()).collect())
        .collect();
    shown.sort();
    let mut out = Vec::new();
    write!(out, ",\"row_count\":{},\"rows\":[", shown.len()).unwrap();
    for (i, row) in shown.iter().enumerate() {
        out.extend_from_slice(if i == 0 { b"[" } else { b",[" });
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            wire::write_str(&mut out, cell);
        }
        out.push(b']');
    }
    out.push(b']');
    out
}

/// 512 seeded reply row sets of constants, integers and function terms:
/// sorted once with `sort_rendered` and written from the terms, they are
/// the bytes the string route gave — names with quotes, backslashes,
/// control characters and non-ASCII text, names of digits only beside
/// integers (`"10"` the constant and `9` the integer), negative integers,
/// and a constant and an integer that print alike.
#[test]
fn term_rows_sort_and_write_as_rendered_rows_did() {
    use kind_datalog::term::sort_rendered;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |below: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % below
    };
    const NAMES: &[&str] = &[
        "a",
        "b",
        "ab",
        "B",
        "",
        "10",
        "9",
        "-3",
        "007",
        "x y",
        "say \"hi\"",
        "back\\slash",
        "line\nbreak",
        "tab\there",
        "bell\u{7}",
        "\u{1f}",
        "ünïcode",
        "日本",
        "NCMIR.pa17",
        "Purkinje_Cell",
        "f",
    ];
    const INTS: &[i64] = &[0, 9, 10, -3, -30, 7, 100, i64::MIN, i64::MAX, -1];
    fn cell(syms: &mut Interner, next: &mut impl FnMut(u64) -> u64, depth: u32) -> Term {
        match next(if depth < 2 { 5 } else { 4 }) {
            0 | 1 => Term::Const(syms.intern(NAMES[next(NAMES.len() as u64) as usize])),
            2 | 3 => Term::Int(INTS[next(INTS.len() as u64) as usize]),
            _ => {
                let f = syms.intern(NAMES[next(NAMES.len() as u64) as usize]);
                let args = (0..1 + next(2)).map(|_| cell(syms, next, depth + 1));
                Term::func(f, args.collect())
            }
        }
    }
    for case in 0..512 {
        let mut syms = Interner::new();
        let arity = 1 + next(3) as usize;
        let rows: Vec<Vec<Term>> = (0..next(16))
            .map(|_| (0..arity).map(|_| cell(&mut syms, &mut next, 0)).collect())
            .collect();
        let mut sorted = rows.clone();
        sort_rendered(&mut sorted, &syms);
        let mut written = Vec::new();
        write_rows(&mut written, &sorted, &syms);
        assert_eq!(
            String::from_utf8_lossy(&written),
            String::from_utf8_lossy(&rows_rendered_as_strings(&rows, &syms)),
            "case {case}"
        );
    }
}

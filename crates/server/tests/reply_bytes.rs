//! The reply bytes of every op, pinned: one request of each kind goes to
//! a server on the small scenario at its fixed seed, and each reply line
//! must equal the recorded one byte for byte, with the two wall-clock
//! fields (`queue_us`, `eval_us`) masked. A change to how replies are
//! rendered must leave this transcript as it is.

use kind_server::{spawn_server, ServerConfig};
use kind_sources::ScenarioParams;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Each request line and the reply line it gets, in order, on one
/// connection to a fresh server.
const TRANSCRIPT: &[(&str, &str)] = &[
    (
        r#"{"id":1,"op":"ping"}"#,
        r#"{"id":1,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"ping"}"#,
    ),
    (
        r#"{"id":2,"op":"query_fl","pattern":"\"NCMIR.pa1\"[location -> L]"}"#,
        r#"{"id":2,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"query_fl","row_count":1,"rows":[["NCMIR.pa1","location","Purkinje_Dendrite"]]}"#,
    ),
    (
        r#"{"id":3,"op":"query_fl","pattern":"X : protein_amount"}"#,
        r#"{"id":3,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"query_fl","row_count":20,"rows":[["NCMIR.pa0","protein_amount"],["NCMIR.pa1","protein_amount"],["NCMIR.pa10","protein_amount"],["NCMIR.pa11","protein_amount"],["NCMIR.pa12","protein_amount"],["NCMIR.pa13","protein_amount"],["NCMIR.pa14","protein_amount"],["NCMIR.pa2","protein_amount"],["NCMIR.pa3","protein_amount"],["NCMIR.pa4","protein_amount"],["NCMIR.pa5","protein_amount"],["NCMIR.pa6","protein_amount"],["NCMIR.pa7","protein_amount"],["NCMIR.pa8","protein_amount"],["NCMIR.pa9","protein_amount"],["NOISE0.np0","protein_amount"],["NOISE0.np1","protein_amount"],["NOISE0.np2","protein_amount"],["NOISE0.np3","protein_amount"],["NOISE0.np4","protein_amount"]]}"#,
    ),
    (
        r#"{"id":4,"op":"query_fl","pattern":"X[location -> \"NCMIR.pa1\"]"}"#,
        r#"{"id":4,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"query_fl","row_count":0,"rows":[]}"#,
    ),
    (
        r#"{"id":5,"op":"query_fl","pattern":"X : no_such_class"}"#,
        r#"{"id":5,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"query_fl","row_count":0,"rows":[]}"#,
    ),
    (
        r#"{"id":6,"op":"query_fl","pattern":"X[location -> "}"#,
        r#"{"id":6,"ok":false,"error":"query_error","detail":"datalog: parse error at line 1 (offset 14): expected term","epoch":1,"queue_us":_}"#,
    ),
    (
        r#"{"id":7,"op":"answer","rule":"calcium_sites(P, L) :- X : protein_amount, X[protein_name -> P], X[location -> L], X[ion_bound -> \"calcium\"]."}"#,
        r#"{"id":7,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"answer","row_count":10,"rows":[["Calbindin","Pyramidal_Dendrite"],["Calbindin","Pyramidal_Spine"],["GFAP","Pyramidal_Cell"],["IP3_Receptor","Purkinje_Dendrite"],["IP3_Receptor","Purkinje_Spine"],["Parvalbumin","Purkinje_Cell"],["Ryanodine_Receptor","Purkinje_Cell"],["Ryanodine_Receptor","Purkinje_Dendrite"],["Ryanodine_Receptor","Purkinje_Spine"],["Synaptophysin","Pyramidal_Dendrite"]],"eval":{"iterations":1,"derived":10,"applications":15,"index_hits":46,"magic_fired":false,"magic_declined":false}}"#,
    ),
    (
        r#"{"id":8,"op":"plan"}"#,
        r#"{"id":8,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"plan","root":"Purkinje_Cell","distribution_rows":5,"selected_sources":1,"report":"complete · 2 sources, 10 rows, 3 attempts, 0ms"}"#,
    ),
    (
        r#"{"id":9,"op":"sleep","ms":1}"#,
        r#"{"id":9,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"sleep","ms":1}"#,
    ),
    (
        r#"{"id":10,"op":"nope"}"#,
        r#"{"id":10,"ok":false,"error":"bad_request","detail":"unknown op \"nope\""}"#,
    ),
    (
        r#"{"id":11}"#,
        r#"{"id":11,"ok":false,"error":"bad_request","detail":"missing \"op\""}"#,
    ),
    (
        r#"not json"#,
        r#"{"id":null,"ok":false,"error":"bad_request","detail":"unparseable request: unexpected byte 110 at 0"}"#,
    ),
    (
        r#"{"id":"a \"quoted\" id","op":"ping"}"#,
        r#"{"id":"a \"quoted\" id","ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"ping"}"#,
    ),
    (
        r#"{"id":2.5,"op":"ping"}"#,
        r#"{"id":2.5,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"ping"}"#,
    ),
    (
        r#"{"id":-7,"op":"ping"}"#,
        r#"{"id":-7,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"ping"}"#,
    ),
    (
        r#"{"id":1e20,"op":"ping"}"#,
        r#"{"id":100000000000000000000,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"ping"}"#,
    ),
    (
        r#"{"op":"ping"}"#,
        r#"{"id":null,"ok":true,"epoch":1,"queue_us":_,"eval_us":_,"op":"ping"}"#,
    ),
    (
        r#"{"id":18,"op":"stats"}"#,
        r#"{"id":18,"ok":true,"op":"stats","epoch":1,"admitted":14,"served":13,"shed":0,"deadline":0,"publishes":0,"queue_depth":64}"#,
    ),
];

/// `line` with the digits after each `"queue_us":` and `"eval_us":`
/// replaced by `_`.
fn masked(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let next = ["\"queue_us\":", "\"eval_us\":"]
            .iter()
            .filter_map(|key| rest.find(key).map(|at| at + key.len()))
            .min();
        let Some(at) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at]);
        rest = rest[at..].trim_start_matches(|c: char| c.is_ascii_digit());
        out.push('_');
    }
}

#[test]
fn every_op_replies_with_the_recorded_bytes() {
    let handle = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 64,
        default_budget_ms: 0,
        scenario: ScenarioParams {
            senselab_rows: 10,
            ncmir_rows: 15,
            synapse_rows: 10,
            noise_sources: 1,
            noise_rows: 5,
            ..ScenarioParams::default()
        },
    })
    .expect("server starts");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for (request, recorded) in TRANSCRIPT {
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = reply
            .strip_suffix('\n')
            .unwrap_or_else(|| panic!("{request}: reply not one line: {reply:?}"));
        assert_eq!(masked(reply), *recorded, "request {request}");
    }
    handle.shutdown();
}

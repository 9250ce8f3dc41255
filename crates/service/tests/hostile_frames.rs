//! Frames that used to kill the server process.
//!
//! A request decoder that recursed once per nesting level overflowed the
//! stack of whichever thread decoded the frame — on the reactor path,
//! the event-loop thread — and a stack overflow aborts the whole
//! process: `catch_unwind` cannot contain it. Both inputs below did
//! that. Now the reader stops at `MAX_JSON_DEPTH` and the client gets an
//! ordinary error response, and the server keeps serving everyone,
//! including the connection that sent the frame.

#![cfg(target_os = "linux")]

use gp_core::json::MAX_JSON_DEPTH;
use gp_rewrite::{BinOp, Expr, Type};
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::wire::{read_frame, write_frame};
use gp_service::{
    decode_response, ReactorConfig, Request, Response, Service, ServiceConfig, TcpClient,
};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// 200 KB of `[`…`]`.
fn deep_array() -> String {
    "[".repeat(100_000) + &"]".repeat(100_000)
}

/// A `simplify` request whose expression nests `n` unary negations.
fn nested_neg(n: usize) -> String {
    format!(
        r#"{{"id":9,"kind":"simplify","req":{{"expr":{}{{"var":["x","int"]}}{}}}}}"#,
        r#"{"un":["neg","#.repeat(n),
        "]}".repeat(n)
    )
}

fn ordinary() -> Request {
    Request::Simplify(SimplifyRequest {
        expr: Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1)),
        env: EnvSpec::Standard,
    })
}

/// Send `frame` on a fresh connection and return the decoded answer,
/// then check the same connection still serves an ordinary request.
fn answer_then_serve(addr: SocketAddr, frame: &str) -> (u64, Response) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_frame(&mut stream, frame).unwrap();
    let reply = read_frame(&mut stream)
        .unwrap()
        .expect("an answer, not a hangup");
    let answer = decode_response(&reply).unwrap();
    write_frame(&mut stream, &gp_service::encode_request(2, &ordinary())).unwrap();
    let next = read_frame(&mut stream)
        .unwrap()
        .expect("the connection still serves");
    let (id, resp) = decode_response(&next).unwrap();
    assert_eq!(id, 2);
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    answer
}

fn assert_depth_error((id, resp): (u64, Response)) {
    assert_eq!(id, 0, "the id of an undecodable frame is unknown");
    match resp {
        Response::Error { message } => {
            assert!(message.starts_with("bad frame:"), "{message}");
            assert!(message.contains("nesting deeper than"), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }
}

fn hostile_inputs_get_errors_and_the_server_keeps_serving(addr: SocketAddr) {
    assert_depth_error(answer_then_serve(addr, &deep_array()));
    assert_depth_error(answer_then_serve(addr, &nested_neg(20_000)));
    // Rationals that `Rational::new` would panic on, on the thread that
    // decodes the frame (the reactor's event loop).
    for (parts, why) in [
        ("[1,0.5]", "rational with zero denominator"),
        ("[-1e300,1]", "rational out of range"),
        ("[1,-1e300]", "rational out of range"),
    ] {
        let frame = format!(
            r#"{{"id":4,"kind":"simplify","req":{{"expr":{{"lit":{{"rational":{parts}}}}}}}}}"#
        );
        let (_, resp) = answer_then_serve(addr, &frame);
        assert_eq!(
            resp,
            Response::Error {
                message: why.into()
            },
            "{frame}"
        );
    }
    // The deepest expression the limit admits still gets a real answer.
    let fits = (MAX_JSON_DEPTH - 3) / 2;
    let (id, resp) = answer_then_serve(addr, &nested_neg(fits));
    assert_eq!(id, 9);
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    // And other clients never noticed.
    let mut client = TcpClient::connect(addr).unwrap();
    assert!(matches!(client.call(&ordinary()), Ok(Response::Ok { .. })));
}

#[test]
fn reactor_answers_crash_inputs_with_errors() {
    let mut svc = Service::start(ServiceConfig::default());
    let addr = svc
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .unwrap();
    hostile_inputs_get_errors_and_the_server_keeps_serving(addr);
    let stats = svc.shutdown();
    assert_eq!(stats.in_flight(), 0);
}

#[test]
fn blocking_listener_answers_crash_inputs_with_errors() {
    let mut svc = Service::start(ServiceConfig::default());
    let addr = svc.listen("127.0.0.1:0").unwrap();
    hostile_inputs_get_errors_and_the_server_keeps_serving(addr);
    let stats = svc.shutdown();
    assert_eq!(stats.in_flight(), 0);
}

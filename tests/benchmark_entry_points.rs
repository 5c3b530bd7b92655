//! The benchmark crate (`benchmark/`, a workspace of its own) is never
//! compiled by `cargo build --release && cargo test -q`, so renaming a
//! `PuzzleConfig` field or a `PolicyBuilder` constructor would pass every
//! test and only fail when the benchmark is next built. This test
//! compiles the benchmark's real shared configuration — `stack.rs`
//! depends only on crates the facade already depends on — and drives one
//! handshake through each of the two servers it configures, so a changed
//! entry point (`benchmark/README.md`, "Allowed entry points") fails
//! `cargo test` instead.

#[path = "../benchmark/src/stack.rs"]
#[allow(dead_code, clippy::all)]
mod stack;

use std::net::SocketAddr;

use netsim::SimTime;
use stack::{Client, Defense, Step};
use tcpstack::TcpSegment;
use wire::{decode_frame, encode_frame, ServerEngine};

/// Sends `segs` from `endpoint` and returns what the server answers.
fn exchange(
    engine: &mut ServerEngine,
    now: SimTime,
    endpoint: std::net::Ipv4Addr,
    segs: &[TcpSegment],
) -> Vec<TcpSegment> {
    let mut frame = Vec::new();
    for seg in segs {
        frame.clear();
        encode_frame(endpoint, seg, &mut frame);
        engine.ingest_datagram(stack::engine_peer(), &frame);
    }
    let mut replies = Vec::new();
    engine.flush(now, &mut |_: SocketAddr, bytes: &[u8]| {
        replies.push(decode_frame(bytes).expect("server frames decode").1);
    });
    replies
}

#[test]
fn both_benchmark_servers_complete_a_solved_handshake() {
    for defense in [Defense::Puzzles, Defense::Stateless] {
        // `backlog = 0`: every SYN is challenged, as in `engine_handshake`.
        let mut engine = ServerEngine::new(&stack::server_config(defense, 0, 1));
        let now = SimTime::from_secs(1);
        let endpoint = stack::legit_endpoint(1, 0);
        let (mut client, syn) = Client::connect(endpoint, 7, now);

        let challenge = exchange(&mut engine, now, endpoint.0, &[syn]);
        let Step::Answer(ack, request) = client.on_segment(now, &challenge[0]) else {
            panic!("{defense:?}: the SYN was not challenged");
        };
        let response = exchange(&mut engine, now, endpoint.0, &[ack, request]);
        let done = response.iter().any(|seg| {
            matches!(client.on_segment(now, seg), Step::Done(n) if n == stack::RESPONSE_BYTES)
        });
        assert!(done, "{defense:?}: no complete response");

        let stats = engine.stats();
        assert_eq!(stats.listener.established_puzzle, 1, "{defense:?}");
        assert_eq!(stats.requests_served, 1, "{defense:?}");
    }
}

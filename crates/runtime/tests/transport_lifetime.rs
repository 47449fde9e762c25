//! A `TcpTransport`'s links outlive its rounds: the first round dials
//! every link and the server starts its reader, after which a healthy
//! round opens no socket and creates no thread — the round's caller is
//! every link's sender — and dropping the transport joins every thread
//! it started.
//!
//! This binary holds exactly one test on purpose — it reads the
//! process-wide thread count and thread ids, which a sibling test
//! running beside it would move.

use cosmic_runtime::fold::fold_parts_reference;
use cosmic_runtime::{
    FaultPlan, LinkConfig, RetryPolicy, RoundCtx, SigmaAggregator, TcpTransport, Transport,
    TransportStats,
};
use std::time::Instant;

mod common;
use common::{probe, settled, threads};

#[test]
fn two_hundred_rounds_ride_four_connections_and_a_flat_thread_count() {
    const SENDERS: usize = 4;
    const WORDS: usize = 64;
    let (plan, retry) = (FaultPlan::none(), RetryPolicy::default());
    let senders: Vec<usize> = (0..SENDERS).collect();
    let sigma = SigmaAggregator::new(2, 2);
    let before = threads();
    let transport = TcpTransport::bind(LinkConfig::default()).expect("loopback bind");

    let mut total = TransportStats::default();
    let (mut after_first, mut probed) = (None, 0);
    for iteration in 0..200 {
        let data: Vec<Vec<f64>> = (0..SENDERS)
            .map(|s| (0..WORDS).map(|i| ((i * 31 + s * 7 + iteration) % 997) as f64).collect())
            .collect();
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let ctx = RoundCtx {
            iteration,
            model_len: WORDS,
            plan: &plan,
            retry: &retry,
            senders: &senders,
            repr: Default::default(),
        };
        let delivery = transport.round(&ctx, &sigma, &parts).expect("healthy round");
        let mut expected = vec![0.0; WORDS];
        fold_parts_reference(&mut expected, &data.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&delivery.outcome.sum), bits(&expected), "round {iteration}");
        assert!(delivery.dead.is_empty(), "round {iteration}");
        total.merge(&delivery.stats);
        if iteration == 0 {
            assert_eq!(delivery.stats.connections, SENDERS as u64, "round 0 dials every link");
            after_first = settled(before.map(|n| n + 1 + SENDERS));
            probed = probe();
        } else {
            assert_eq!(delivery.stats.connections, 0, "round {iteration} opened a socket");
            assert_eq!(settled(after_first), after_first, "round {iteration} left a thread");
        }
    }
    assert_eq!((total.connections, total.reconnects, total.links_dead), (SENDERS as u64, 0, 0));
    assert_eq!(total.frames_sent, total.frames_received);
    assert_eq!(total.bytes_sent, total.bytes_received);
    assert_eq!(probe() - probed, 1, "rounds 1-199 created a thread");
    if let (Some(before), Some(held)) = (before, after_first) {
        assert_eq!(held, before + 1 + SENDERS, "an acceptor, and a reader a link");
    }

    let started = Instant::now();
    drop(transport);
    assert!(started.elapsed().as_millis() < 100, "drop took {:?}", started.elapsed());
    assert_eq!(settled(before), before, "the transport's threads must end with it");
}

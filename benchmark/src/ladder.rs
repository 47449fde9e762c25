//! The per-layer ladder: one rung per layer, each timing calls into a
//! public function from outside, at the shapes of the workload the
//! rung is named for. Rungs run only in the traced run; every call is
//! a span, so the Chrome trace shows the whole ladder.
//!
//! A rung reports a median over its repetitions (plus a p95 where it
//! makes 100+ calls). None is gated: per-layer numbers exist to say
//! *where* an end-to-end change came from.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use cosmic_core::cosmic_director::journal::Journal;
use cosmic_core::cosmic_director::{Director, JobCheckpointStore, JobSpec};
use cosmic_core::cosmic_ml::sgd;
use cosmic_core::cosmic_runtime::collectives::{
    assign_roles, CollectiveKind, CollectiveSelector, CostModel,
};
use cosmic_core::cosmic_runtime::node::chunk_vector;
use cosmic_core::cosmic_runtime::transport::proc::{Coordinator, JobSpec as LaunchSpec};
use cosmic_core::cosmic_runtime::{
    fold, Chunk, CircularBuffer, FaultPlan, Frame, LinkConfig, RetryPolicy, RoundCtx,
    SigmaAggregator, SimTransport, TcpTransport, ThreadPool, TraceSink, Transport, TransportStats,
    WireRepr, CHUNK_WORDS,
};
use cosmic_core::cosmic_sim::{
    DirectorFaultPlan, DirectorFaultRates, JobArrivalPlan, NetworkModel,
};

use crate::stats::{median, p95};
use crate::trace::Tracer;
use crate::workloads::{
    check_conservation, check_recovered, BuildSuite, DirectorFleet, SplitMix64, Train, TrainSpec,
    Workload, LOSSY_REPR, TRAIN_NODES,
};

/// Per-layer metric name → value.
pub type Layers = BTreeMap<&'static str, f64>;

const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = 1024.0 * MIB;

/// Repetition counts, shrunk by the smoke mode.
#[derive(Debug, Clone, Copy)]
struct Reps {
    quick: bool,
}

impl Reps {
    fn of(self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(3)
        } else {
            full
        }
    }
}

/// Median seconds per call of `f` over `reps` calls, each a span.
fn time_median<R>(t: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let seconds: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, s) = t.span(name, &mut f);
            black_box(out);
            s
        })
        .collect();
    median(&seconds)
}

/// Median seconds per call for calls too short to time one by one:
/// each span covers `inner` back-to-back calls.
fn time_batched<R>(
    t: &Tracer,
    name: &'static str,
    reps: usize,
    inner: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let per_batch = time_median(t, name, reps, || {
        for _ in 0..inner {
            black_box(f());
        }
    });
    per_batch / inner as f64
}

/// Runs every direct rung and one traced unit of every workload except
/// `measured` (whose units the caller already ran), returning every
/// per-layer metric but `trace.overhead_share`. A failed check is an
/// `Err`: the traced run counts it as a failed unit.
pub fn run(
    seed: u64,
    quick: bool,
    t: &Tracer,
    measured: (&str, &Layers),
) -> Result<Layers, String> {
    let reps = Reps { quick };
    let mut layers = Layers::new();
    calibrate(t, reps, &mut layers);

    let unit_layers = |name: &str, workload: &mut dyn Workload| -> Result<Layers, String> {
        if name == measured.0 {
            Ok(measured.1.clone())
        } else {
            workload.unit(t).map(|u| u.layers).map_err(|e| format!("{name}: {e}"))
        }
    };

    let mut build = BuildSuite::prepare(seed, quick);
    layers.extend(unit_layers("build_suite", &mut build)?);
    drop(build);

    let mut overhead = Train::new(TrainSpec::overhead(quick), seed)?;
    layers.extend(unit_layers("train_overhead", &mut overhead)?);
    let rounds = transport_rungs(t, reps, &mut layers)?;
    overhead_rungs(t, reps, &overhead, &mut layers)?;
    drop(overhead);

    // The three Tcp workloads add nothing a rung does not measure
    // directly: their layers are the transport, payload and codec rungs.
    payload_rungs(t, reps, seed, &mut layers)?;
    model_validation(t, reps, &rounds, &mut layers)?;

    let mut fleet = DirectorFleet::prepare(seed, quick);
    layers.extend(unit_layers("director_fleet", &mut fleet)?);
    if fleet.last_run.is_none() {
        fleet.unit(t)?;
    }
    director_rungs(t, reps, seed, &fleet, &mut layers)?;
    drop(fleet);

    launcher_rung(t, quick, &mut layers)?;
    layers.remove("collectives.cache.hits");
    layers.remove("collectives.cache.lookups");
    Ok(layers)
}

/// Host calibrators: they move nothing in the program, so absolute
/// numbers can be normalised across hosts and a noisy box shows.
fn calibrate(t: &Tracer, reps: Reps, layers: &mut Layers) {
    let words = if reps.quick { 1 << 18 } else { 1 << 22 }; // 32 MiB of f64
    let src: Vec<f64> = (0..words).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; words];
    let bytes = (words * 8) as f64;
    let s = time_median(t, "calib.memcpy", reps.of(20), || {
        dst.copy_from_slice(black_box(&src));
        dst[words / 2]
    });
    layers.insert("calib.memcpy_gib_per_s", bytes / s / GIB);
    let s = time_median(t, "calib.fold_scalar", reps.of(20), || {
        for (d, x) in dst.iter_mut().zip(black_box(&src)) {
            *d += *x;
        }
        dst[words / 2]
    });
    layers.insert("calib.fold_scalar_gib_per_s", bytes / s / GIB);
}

/// The engine-overhead rungs, at `train_overhead`'s shapes.
fn overhead_rungs(
    t: &Tracer,
    reps: Reps,
    train: &Train,
    layers: &mut Layers,
) -> Result<(), String> {
    let alg = &train.spec.algorithm;
    let words = alg.model_len();
    let batch = &train.dataset.records()[..train.spec.minibatch];
    let mut acc = vec![0.0; words];
    let s = time_batched(t, "ml.gradient", reps.of(200), 100, || {
        acc.fill(0.0);
        for record in batch {
            alg.accumulate_gradient(record, &train.initial_model, &mut acc);
        }
        acc[0]
    });
    layers.insert("ml.gradient_us", s * 1e6);
    let s = time_median(t, "ml.loss", reps.of(200), || {
        sgd::mean_loss(alg, &train.dataset, &train.initial_model)
    });
    layers.insert("ml.loss_us", s * 1e6);

    let topology = assign_roles(TRAIN_NODES, 1).map_err(|e| e.to_string())?;
    let participants: Vec<usize> = (0..TRAIN_NODES).collect();
    let strategy = train.spec.config(train.spec.transport, train.spec.repr).collective.strategy();
    let s = time_batched(t, "collectives.schedule_build", reps.of(200), 20, || {
        strategy.schedule(&topology, &participants, words, CHUNK_WORDS)
    });
    layers.insert("collectives.schedule_build_us", s * 1e6);
    let selector = CollectiveSelector::host_side();
    let s = time_batched(t, "collectives.select", reps.of(100), 10, || {
        selector.select(&topology, words, CHUNK_WORDS)
    });
    layers.insert("collectives.select_us", s * 1e6);

    // One chunk through a ring between two threads, the hand-off the
    // Sigma pipeline makes per chunk.
    let items = reps.of(20_000);
    let ring: Arc<CircularBuffer<Chunk>> = Arc::new(CircularBuffer::with_capacity(4));
    let chunk = Chunk::new(0, vec![0.0f64; words]);
    let (popped, s) = t.span("runtime.circbuf.handoff", || {
        std::thread::scope(|scope| {
            let producer = Arc::clone(&ring);
            scope.spawn(move || {
                for _ in 0..items {
                    producer.push(chunk.clone());
                }
                producer.close();
            });
            std::iter::from_fn(|| ring.pop()).count()
        })
    });
    if popped != items {
        return Err(format!("circbuf delivered {popped} of {items} chunks"));
    }
    layers.insert("runtime.circbuf.handoff_ns", s * 1e9 / items as f64);

    let pool = ThreadPool::new(1, "bench");
    let s = time_batched(t, "runtime.pool.dispatch", reps.of(100), 10, || {
        pool.execute(|| {});
        pool.wait_idle();
    });
    layers.insert("runtime.pool.dispatch_us", s * 1e6);

    let iter_us = layers.get("runtime.engine.iter_us").copied().unwrap_or(0.0);
    let round_us = layers["runtime.transport.sim_round_us_small"];
    layers.insert("runtime.engine.self_us", iter_us - layers["ml.gradient_us"] - round_us);

    // The program's own virtual-time tracing, against the plain call.
    let sink = TraceSink::new();
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        let (out, s) = t.span("runtime.train", || {
            train.trainer.train(alg, &train.dataset, train.initial_model.clone())
        });
        out.map_err(|e| e.to_string())?;
        walls[0].push(s);
        let (out, s) = t.span("runtime.train_traced", || {
            train.trainer.train_traced(alg, &train.dataset, train.initial_model.clone(), &sink)
        });
        out.map_err(|e| e.to_string())?;
        walls[1].push(s);
    }
    layers.insert("telemetry.traced_over_untraced", median(&walls[1]) / median(&walls[0]));
    Ok(())
}

/// Median round times the model-validation rung compares against.
struct RoundTimes {
    small_words: usize,
    large_words: usize,
    tcp_small_s: f64,
    tcp_large_s: f64,
}

/// Direct `Transport::round` calls at both payload sizes over both
/// wires, with the socket backend's own accounting checked exactly.
fn transport_rungs(t: &Tracer, reps: Reps, layers: &mut Layers) -> Result<RoundTimes, String> {
    let small_words = TrainSpec::overhead(reps.quick).algorithm.model_len();
    let large_words = TrainSpec::wire_large(WireRepr::DenseF64, reps.quick).algorithm.model_len();
    let sigma = SigmaAggregator::new(4, 4);
    let tcp = TcpTransport::bind(LinkConfig::default()).map_err(|e| e.to_string())?;
    let plan = FaultPlan::none();
    let retry = RetryPolicy::default();
    let senders: Vec<usize> = (0..TRAIN_NODES).collect();

    let rounds = |wire: &dyn Transport,
                  span: &'static str,
                  words: usize,
                  calls: usize|
     -> Result<(Vec<f64>, TransportStats), String> {
        let mut rng = SplitMix64::new(words as u64);
        let data: Vec<Vec<f64>> = (0..TRAIN_NODES).map(|_| rng.vector(words)).collect();
        let parts: Vec<Option<&[f64]>> = data.iter().map(|p| Some(p.as_slice())).collect();
        let mut expected = vec![0.0; words];
        fold::fold_parts_reference(
            &mut expected,
            &data.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let mut stats = TransportStats::default();
        let mut times = Vec::with_capacity(calls);
        for iteration in 0..calls {
            let ctx = RoundCtx {
                iteration,
                model_len: words,
                plan: &plan,
                retry: &retry,
                senders: &senders,
                repr: WireRepr::DenseF64,
            };
            let (delivery, s) = t.span(span, || wire.round(&ctx, &sigma, &parts));
            let delivery = delivery.map_err(|e| format!("{span}: {e}"))?;
            if delivery.outcome.sum.iter().zip(&expected).any(|(a, b)| a.to_bits() != b.to_bits()) {
                return Err(format!("{span}: round sum differs from the reference fold"));
            }
            stats.merge(&delivery.stats);
            times.push(s);
        }
        Ok((times, stats))
    };

    let (sim_small, _) =
        rounds(&SimTransport, "runtime.transport.sim_round", small_words, reps.of(500))?;
    let (tcp_small, small_stats) =
        rounds(&tcp, "runtime.transport.tcp_round", small_words, reps.of(500))?;
    let (sim_large, _) =
        rounds(&SimTransport, "runtime.transport.sim_round", large_words, reps.of(100))?;
    let (tcp_large, large_stats) =
        rounds(&tcp, "runtime.transport.tcp_round", large_words, reps.of(100))?;
    for stats in [small_stats, large_stats] {
        if stats.links_dead != 0
            || stats.frames_sent != stats.frames_received
            || stats.bytes_sent != stats.bytes_received
        {
            return Err(format!("tcp wire accounting does not conserve: {stats:?}"));
        }
    }

    let n_small = tcp_small.len() as f64;
    layers.insert("runtime.transport.sim_round_us_small", median(&sim_small) * 1e6);
    layers.insert("runtime.transport.sim_round_us_small.p95", p95(&sim_small) * 1e6);
    layers.insert("runtime.transport.tcp_round_us_small", median(&tcp_small) * 1e6);
    layers.insert("runtime.transport.tcp_round_us_small.p95", p95(&tcp_small) * 1e6);
    layers.insert("runtime.transport.frames_per_round", small_stats.frames_sent as f64 / n_small);
    layers
        .insert("runtime.transport.wire_bytes_per_round", small_stats.bytes_sent as f64 / n_small);
    layers.insert(
        "runtime.transport.reconnects",
        (small_stats.reconnects + large_stats.reconnects) as f64,
    );
    layers.insert(
        "runtime.transport.links_dead",
        (small_stats.links_dead + large_stats.links_dead) as f64,
    );
    layers.insert("runtime.transport.tcp_over_sim_small", median(&tcp_small) / median(&sim_small));
    layers.insert("runtime.transport.sim_round_us_large", median(&sim_large) * 1e6);
    layers.insert("runtime.transport.tcp_round_us_large", median(&tcp_large) * 1e6);
    layers.insert("runtime.transport.tcp_round_us_large.p95", p95(&tcp_large) * 1e6);
    Ok(RoundTimes {
        small_words,
        large_words,
        tcp_small_s: median(&tcp_small),
        tcp_large_s: median(&tcp_large),
    })
}

/// Chunking, framing, fold, Sigma and codec rungs at the large
/// payload's shape (4 peers × one model).
fn payload_rungs(t: &Tracer, reps: Reps, seed: u64, layers: &mut Layers) -> Result<(), String> {
    let words = TrainSpec::wire_large(WireRepr::DenseF64, reps.quick).algorithm.model_len();
    let model_mib = (words * 8) as f64 / MIB;
    let mut rng = SplitMix64::new(seed ^ 0x7061_796C_6F61_6421);
    let peers: Vec<Vec<f64>> = (0..TRAIN_NODES).map(|_| rng.vector(words)).collect();
    let model = &peers[0];
    let n = reps.of(50);

    let s = time_median(t, "runtime.chunk_vector", n, || chunk_vector(model));
    layers.insert("runtime.chunk_mib_per_s", model_mib / s);

    let chunks = chunk_vector(model);
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let s = time_median(t, "runtime.wire.encode", n, || {
        wire = chunks.iter().map(|c| Frame::chunk(0, 0, c).encode()).collect();
    });
    layers.insert("runtime.wire.encode_mib_per_s", model_mib / s);
    let mut decoded = Ok(());
    let s = time_median(t, "runtime.wire.decode", n, || {
        for (bytes, chunk) in wire.iter().zip(&chunks) {
            match Frame::decode(bytes) {
                Ok(frame) if frame.to_chunk() == *chunk => {}
                Ok(_) => decoded = Err("decoded frame differs from the chunk sent".to_string()),
                Err(e) => decoded = Err(format!("frame decode: {e}")),
            }
        }
    });
    decoded?;
    layers.insert("runtime.wire.decode_mib_per_s", model_mib / s);

    let parts: Vec<&[f64]> = peers.iter().map(Vec::as_slice).collect();
    let folded_gib = (words * 8 * TRAIN_NODES) as f64 / GIB;
    let mut sum = vec![0.0f64; words];
    let fused_s = time_median(t, "runtime.fold.fused", n, || {
        sum.fill(0.0);
        fold::fold_parts(&mut sum, &parts);
        sum[0]
    });
    let fused_sum = sum.clone();
    let reference_s = time_median(t, "runtime.fold.reference", n, || {
        sum.fill(0.0);
        fold::fold_parts_reference(&mut sum, &parts);
        sum[0]
    });
    if fused_sum.iter().zip(&sum).any(|(a, b)| a.to_bits() != b.to_bits()) {
        return Err("fused fold differs from the scalar reference".into());
    }
    layers.insert("runtime.fold.fused_gib_per_s", folded_gib / fused_s);
    layers.insert("runtime.fold.reference_gib_per_s", folded_gib / reference_s);

    let sigma = SigmaAggregator::new(4, 4);
    let feed = || {
        peers
            .iter()
            .map(|peer| {
                let (tx, rx) = crossbeam::channel::unbounded();
                for chunk in chunk_vector(peer) {
                    let _ = tx.send(chunk);
                }
                rx
            })
            .collect::<Vec<_>>()
    };
    let staged_mib = model_mib * TRAIN_NODES as f64;
    let mut feeds: Vec<_> = (0..n).map(|_| feed()).collect();
    let aggregate_s = time_median(t, "runtime.sigma.aggregate", n, || {
        sigma.aggregate_validated(words, feeds.pop().unwrap_or_default()).sum[0]
    });
    layers.insert("runtime.sigma.aggregate_mib_per_s", staged_mib / aggregate_s);
    layers.insert("runtime.sigma.drain_share", 1.0 - fused_s / aggregate_s);
    let scale_exp = cosmic_core::cosmic_runtime::codec::derive_scale(model, 20);
    let mut feeds: Vec<_> = (0..n).map(|_| feed()).collect();
    let fixed_s = time_median(t, "runtime.sigma.aggregate_fixed", n, || {
        sigma.aggregate_fixed(words, feeds.pop().unwrap_or_default(), scale_exp).sum[0]
    });
    layers.insert("runtime.sigma.fixed_mib_per_s", staged_mib / fixed_s);

    for (repr, encode, decode, ratio) in [
        (
            LOSSY_REPR,
            "collectives.codec.fixed_encode_mib_per_s",
            "collectives.codec.fixed_decode_mib_per_s",
            "collectives.codec.fixed_wire_ratio",
        ),
        (
            WireRepr::TopK { k: 4096 },
            "collectives.codec.topk_encode_mib_per_s",
            "collectives.codec.topk_decode_mib_per_s",
            "collectives.codec.topk_wire_ratio",
        ),
    ] {
        let s = time_median(t, "collectives.codec.encode", n, || repr.encode(model));
        layers.insert(encode, model_mib / s);
        let (payload, _) = repr.encode(model);
        let s = time_median(t, "collectives.codec.decode", n, || repr.decode(&payload.bytes));
        layers.insert(decode, model_mib / s);
        let back = repr.decode(&payload.bytes).map_err(|e| e.to_string())?;
        if back.len() != words {
            return Err(format!("{} decoded {} of {words} words", repr.label(), back.len()));
        }
        layers.insert(ratio, payload.bytes.len() as f64 / (words * 8) as f64);
    }
    Ok(())
}

/// What the loopback wire itself costs, measured with plain sockets:
/// streaming goodput, per-message cost of small back-to-back writes,
/// and one-way small-message latency.
fn loopback_probe(t: &Tracer, reps: Reps) -> Result<NetworkModel, String> {
    const MESSAGE: usize = 64;
    let pings = reps.of(2000);
    let messages = reps.of(20_000);
    let bulk_bytes: usize = if reps.quick { 8 << 20 } else { 64 << 20 };
    let io = |e: std::io::Error| format!("loopback probe: {e}");

    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut small = [0u8; MESSAGE];
            for _ in 0..pings {
                stream.read_exact(&mut small)?;
                stream.write_all(&small)?;
            }
            for expect in [messages * MESSAGE, bulk_bytes] {
                let mut left = expect;
                let mut buf = vec![0u8; 1 << 16];
                while left > 0 {
                    let want = left.min(buf.len());
                    stream.read_exact(&mut buf[..want])?;
                    left -= want;
                }
                stream.write_all(&[1])?;
            }
            Ok(())
        });
        let client = || -> std::io::Result<NetworkModel> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut small = [7u8; MESSAGE];
            let mut ack = [0u8; 1];
            let ((), ping_s) = {
                let (r, s) = t.span("calib.loopback.pingpong", || -> std::io::Result<()> {
                    for _ in 0..pings {
                        stream.write_all(&small)?;
                        stream.read_exact(&mut small)?;
                    }
                    Ok(())
                });
                (r?, s)
            };
            let ((), stream_s) = {
                let (r, s) = t.span("calib.loopback.messages", || -> std::io::Result<()> {
                    for _ in 0..messages {
                        stream.write_all(&small)?;
                    }
                    stream.read_exact(&mut ack)
                });
                (r?, s)
            };
            let block = vec![3u8; 1 << 16];
            let ((), bulk_s) = {
                let (r, s) = t.span("calib.loopback.bulk", || -> std::io::Result<()> {
                    for _ in 0..bulk_bytes / block.len() {
                        stream.write_all(&block)?;
                    }
                    stream.read_exact(&mut ack)
                });
                (r?, s)
            };
            Ok(NetworkModel {
                link_gbps: bulk_bytes as f64 / bulk_s * 8.0 / 1e9,
                latency_us: ping_s / pings as f64 / 2.0 * 1e6,
                per_message_us: stream_s / messages as f64 * 1e6,
                efficiency: 1.0,
            })
        };
        let net = client().map_err(io);
        let served = server.join().map_err(|_| "loopback server panicked".to_string())?;
        served.map_err(io)?;
        net
    })
}

/// `CostModel`'s predicted flat-star reduce time over the measured
/// `TcpTransport::round` median, with the model's network and fold
/// parameters filled from this host's own loopback and fold rates.
/// Reported with its base, not gated: the model is unvalidated until
/// these two ratios exist.
fn model_validation(
    t: &Tracer,
    reps: Reps,
    rounds: &RoundTimes,
    layers: &mut Layers,
) -> Result<(), String> {
    let net = loopback_probe(t, reps)?;
    let cost = CostModel { net, agg_bytes_per_sec: layers["runtime.fold.fused_gib_per_s"] * GIB };
    let topology = assign_roles(TRAIN_NODES, 1).map_err(|e| e.to_string())?;
    let participants: Vec<usize> = (0..TRAIN_NODES).collect();
    for (name, words, measured_s) in [
        ("runtime.timing.model_over_measured_small", rounds.small_words, rounds.tcp_small_s),
        ("runtime.timing.model_over_measured_large", rounds.large_words, rounds.tcp_large_s),
    ] {
        let schedule = CollectiveKind::FlatStar
            .strategy()
            .schedule(&topology, &participants, words, CHUNK_WORDS)
            .map_err(|e| e.to_string())?;
        // `Transport::round` is the reduce half of the schedule.
        let predicted_s: f64 = cost
            .round_costs_s(&schedule)
            .iter()
            .filter(|r| r.reduce_bytes > 0)
            .map(|r| r.seconds)
            .sum();
        println!(
            "  model: flat-star reduce of {words} words predicted {:.1} us over measured {:.1} us \
             (goodput {:.2} Gbit/s, {:.2} us/message, {:.1} us latency); unvalidated model, not gated",
            predicted_s * 1e6,
            measured_s * 1e6,
            net.link_gbps,
            net.per_message_us,
            net.latency_us,
        );
        layers.insert(name, predicted_s / measured_s);
    }
    Ok(())
}

/// Control-plane rungs on `director_fleet`'s plan: admission parse,
/// arrival generation, the journal and checkpoint codecs on real
/// content, and one unit under a seeded fault plan.
fn director_rungs(
    t: &Tracer,
    reps: Reps,
    seed: u64,
    fleet: &DirectorFleet,
    layers: &mut Layers,
) -> Result<(), String> {
    let jobs = fleet.plan.jobs.len();
    let nodes = fleet.configs[1].cluster_nodes;

    let admitted = &fleet.plan.jobs[..jobs.min(reps.of(500))];
    let (verdict, s) = t.span("dsl.admit_parse", || {
        admitted.iter().try_for_each(|a| JobSpec::from_arrival(a).validate(nodes))
    });
    verdict.map_err(|e| e.to_string())?;
    layers.insert("dsl.admit_parse_us", s * 1e6 / admitted.len() as f64);

    let profile = DirectorFleet::arrival_profile();
    let s = time_median(t, "sim.arrivals.plan", reps.of(20), || {
        JobArrivalPlan::random(seed, jobs, &profile)
    });
    layers.insert("sim.arrivals.plan_ms", s * 1e3);

    let run = fleet.last_run.as_ref().ok_or("director rungs need a finished unit")?;
    let journal_mib = run.journal.len() as f64 / MIB;
    let mut records = Vec::new();
    let mut decode_err = None;
    let s = time_median(t, "director.journal.decode", reps.of(10), || {
        match Journal::decode(&run.journal) {
            Ok((decoded, _)) => records = decoded,
            Err(e) => decode_err = Some(e.to_string()),
        }
    });
    if let Some(e) = decode_err {
        return Err(e);
    }
    layers.insert("director.journal.decode_mib_per_s", journal_mib / s);
    let mut rewritten = Journal::new();
    let s = time_median(t, "director.journal.append", reps.of(10), || {
        rewritten = Journal::new();
        for record in &records {
            rewritten.append(record);
        }
    });
    if rewritten.bytes() != run.journal.as_slice() {
        return Err("re-appending the decoded records does not reproduce the journal".into());
    }
    layers.insert("director.journal.append_mib_per_s", journal_mib / s);

    let mut store = JobCheckpointStore::new();
    for job in 0..jobs {
        store.record(job, 8 * (job % 7 + 1));
    }
    let mut back = Ok(JobCheckpointStore::new());
    let s = time_median(t, "director.checkpoints.roundtrip", reps.of(50), || {
        back = JobCheckpointStore::from_bytes(&store.to_bytes());
    });
    if back.map_err(|e| e.to_string())? != store {
        return Err("checkpoint store does not round-trip".into());
    }
    layers.insert("director.checkpoints.roundtrip_us", s * 1e6);

    let horizon_s = fleet.plan.jobs.last().map_or(1.0, |j| j.arrival_s);
    let faults =
        DirectorFaultPlan::random(seed, jobs, nodes, horizon_s, &DirectorFaultRates::default());
    let cfg = &fleet.configs[1];
    let sink = TraceSink::new();
    let (faulty, run_s) =
        t.span("director.faulty.run", || Director::run_journaled(cfg, &fleet.plan, &faults, &sink));
    let faulty = faulty.map_err(|e| format!("faulty run: {e}"))?;
    check_conservation(&faulty.report, jobs)?;
    let (recovered, recover_s) = t.span("director.faulty.recover", || {
        Director::recover(cfg, &fleet.plan, &faults, &faulty.journal, &faulty.checkpoints, &sink)
    });
    check_recovered(&faulty, &recovered.map_err(|e| format!("faulty recover: {e}"))?)?;
    layers.insert("director.faulty.run_s", run_s);
    layers.insert("director.faulty.recover_s", recover_s);
    Ok(())
}

/// The launcher's multi-process job: a coordinator in this process and
/// two worker re-executions of this binary on loopback. Three
/// processes on two cores measured 0.65–1.1 s over six runs and larger
/// models have tripped false φ-expulsions, so this stays a layer
/// number — not an end-to-end metric — until the transport is
/// persistent.
fn launcher_rung(t: &Tracer, quick: bool, layers: &mut Layers) -> Result<(), String> {
    let spec = LaunchSpec {
        nodes: 2,
        iterations: if quick { 20 } else { 150 },
        samples: if quick { 160 } else { 1200 },
        features: if quick { 256 } else { 4096 },
        ..LaunchSpec::default()
    };
    let mut coordinator = Coordinator::bind(spec).map_err(|e| e.to_string())?;
    let (summary, s) = t.span("runtime.proc.job", || coordinator.run());
    let summary = summary.map_err(|e| format!("launcher: {e}"))?;
    if summary.iterations != spec.iterations
        || summary.workers_reported != spec.nodes
        || summary.workers_matched != spec.nodes
        || !summary.expulsions.is_empty()
    {
        return Err(format!("launcher job did not finish cleanly: {}", summary.to_json()));
    }
    layers.insert("runtime.proc.job_s", s);
    Ok(())
}

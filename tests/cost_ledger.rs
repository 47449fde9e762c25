//! The cost ledger: work the stack does, counted rather than timed.
//!
//! Its first entry counts heap allocations. A counting global allocator
//! wraps the system one, and a steady iteration's cost is read as the
//! difference between a 3-epoch job and a 1-epoch job of the same shape,
//! divided by the extra iterations: set-up, the crew's first-round
//! buffers and the loss history's reservation cancel out.
//!
//! The shape is the benchmark's `train_overhead` (linreg over 64
//! features, 4 nodes × 1 thread, mini-batch 16) on the in-process wire.
//! A steady iteration there allocates only at the sites named in
//! [`SIM_SITES`], and at two threads a node, where the crew folds each
//! node's threads, no more; a change that adds or removes a site updates
//! the table, and on a mismatch the test prints it beside the count it
//! read. The same job over loopback TCP is counted and printed but not
//! pinned: the channels' block allocations follow thread timing. The
//! TCP path's frame buffers are pinned instead, on one thread, by the
//! second entry ([`link_buffers_allocate_only_payloads`]).
//!
//! `CountingAlloc`'s `unsafe impl GlobalAlloc` is the one `unsafe` in
//! the repository: it forwards every call to [`System`] unchanged and
//! only adds to two counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cosmic::cosmic_ml::{data, sgd, Algorithm};
use cosmic::cosmic_runtime::node::chunk_vector;
use cosmic::cosmic_runtime::transport::wire::read_frame;
use cosmic::cosmic_runtime::{
    ClusterConfig, ClusterTrainer, Frame, FrameKind, TransportKind, WireRepr, CHUNK_WORDS,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn book(size: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` made while `body` runs, on every thread.
fn counted<T>(body: impl FnOnce() -> T) -> (u64, u64, T) {
    let (a0, b0) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    let out = body();
    (ALLOCATIONS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0, out)
}

const ALG: Algorithm = Algorithm::LinearRegression { features: 64 };
/// 16 iterations an epoch at mini-batch 16, so the extra two epochs
/// are 32 iterations and hold four cadence snapshots (every 8th).
const RECORDS: usize = 256;
const EXTRA_ITERATIONS: u64 = 32;

/// Allocations and bytes per steady iteration of the `train_overhead`
/// job over `transport`, at `threads_per_node`: a 3-epoch job minus a
/// 1-epoch job.
fn per_iteration(transport: TransportKind, threads_per_node: usize) -> (f64, f64) {
    let ds = data::generate(&ALG, RECORDS, 2017);
    let init = data::init_model(&ALG, 2017);
    let job = |epochs| {
        let cfg = ClusterConfig {
            nodes: 4,
            groups: 1,
            threads_per_node,
            minibatch: 16,
            epochs,
            transport,
            ..ClusterConfig::default()
        };
        let trainer = ClusterTrainer::new(cfg).expect("valid config");
        let init = init.clone();
        let (allocations, bytes, out) = counted(|| trainer.train(&ALG, &ds, init));
        let out = out.expect("healthy run");
        assert!(out.faults.is_clean(), "a healthy run");
        (allocations, bytes, out.iterations as u64)
    };
    let (a1, b1, i1) = job(1);
    let (a3, b3, i3) = job(3);
    assert_eq!(i3 - i1, EXTRA_ITERATIONS);
    let per = |long: u64, short: u64| (long as f64 - short as f64) / EXTRA_ITERATIONS as f64;
    (per(a3, a1), per(b3, b1))
}

/// What one steady `Sim` iteration allocates, by site, per iteration.
/// Nothing else on the path allocates: not the per-record SGD step, the
/// loss pass, the compute crew's round, Sigma's pass, nor the engine's
/// round tables.
const SIM_SITES: &[(&str, f64)] = &[
    (
        "the lent partial's `Arc` (`WordBuf::from_vec` in `transport::lend`), per \
         sender: its words are the engine's own buffer",
        4.0,
    ),
    ("the chunk list (`chunk_views`), per sender: views of the lent partial", 4.0),
    ("the table of lent arenas (`transport::lend`), one a round", 1.0),
    ("the round's sum (`fold_stripes`), which the replay log keeps until the next snapshot", 1.0),
    ("the cadence snapshot (`Checkpoint::take`), one every 8 iterations", 0.125),
];

/// Allocations per steady `Sim` iteration, down from 44.125 before the
/// SGD step was fused and the round's tables were kept, and from 13.125
/// before the wire was lent the engine's partials.
const PINNED: f64 = 10.125;

#[test]
fn a_steady_iteration_allocates_only_at_its_named_sites() {
    // The kernels alone, per record: the linear families' SGD step and
    // loss pass allocate nothing; backprop's step allocates its
    // hidden-sized activations and deltas and its outputs-sized deltas,
    // never a model-sized gradient.
    for (alg, per_step) in [
        (ALG, 0),
        (Algorithm::LogisticRegression { features: 64 }, 0),
        (Algorithm::Svm { features: 64 }, 0),
        (Algorithm::Backprop { inputs: 16, hidden: 8, outputs: 2 }, 3),
    ] {
        let ds = data::generate(&alg, RECORDS, 7);
        let mut model = data::init_model(&alg, 7);
        let (steps, _, ()) = counted(|| {
            for record in ds.records() {
                alg.sgd_update(record, &mut model, 0.05);
            }
        });
        assert_eq!(steps, per_step * RECORDS as u64, "{alg}: SGD steps");
        if alg.family() != "backprop" {
            let (loss, _, _) = counted(|| sgd::mean_loss(&alg, &ds, &model));
            assert_eq!(loss, 0, "{alg}: loss pass");
        }
    }
    let (control, _, _) = counted(|| Frame::control(FrameKind::Heartbeat, 1, 2, 3, 4));
    assert_eq!(control, 0, "a control frame carries no payload allocation");

    let (sim, sim_bytes) = per_iteration(TransportKind::Sim, 1);
    let (tcp, tcp_bytes) = per_iteration(TransportKind::Tcp, 1);
    println!("Sim: {sim} allocations, {sim_bytes} bytes per iteration");
    println!("Tcp: {tcp} allocations, {tcp_bytes} bytes per iteration (not pinned)");
    // Two threads a node fold in the crew: the same sites, no more.
    let (threads, _) = per_iteration(TransportKind::Sim, 2);
    assert_eq!(threads, sim, "two threads a node allocate beyond one");
    let named: f64 = SIM_SITES.iter().map(|(_, n)| n).sum();
    if sim != named || named != PINNED {
        let table: Vec<String> =
            SIM_SITES.iter().map(|(site, n)| format!("    {n:>6} {site}")).collect();
        panic!(
            "a steady Sim iteration allocates {sim} times ({sim_bytes} bytes); \
             pinned {PINNED}, named {named}:\n{}",
            table.join("\n")
        );
    }
    link_buffers_allocate_only_payloads();
}

/// The ledger's second entry, the wire's frame buffers, on one thread:
/// dense chunk frames written through one buffer, as a link writes them,
/// and read back through one from a byte stream. Once each buffer has
/// grown to a frame, writing allocates nothing, and reading only the
/// frame's payload words and their `Arc`, which the received chunk goes
/// on to hold. It runs inside the one test: the harness's own thread
/// allocates as a test ends, and the counters see every thread.
fn link_buffers_allocate_only_payloads() {
    let model: Vec<f64> = (0..4 * CHUNK_WORDS + 17).map(|i| i as f64 / 8.0).collect();
    let chunks = chunk_vector(&model);
    let frames = chunks.len() as u64;
    let mut buf = Vec::new();
    let write = |buf: &mut Vec<u8>| {
        for chunk in &chunks {
            buf.clear();
            Frame::write_chunk(buf, 1, 2, chunk, WireRepr::DenseF64);
        }
    };
    write(&mut buf); // grows the buffer to a full stripe's frame
    let (encode, _, ()) = counted(|| write(&mut buf));
    assert_eq!(encode, 0, "encoding {frames} frames through a grown buffer");

    let mut stream = Vec::new();
    for chunk in &chunks {
        Frame::write_chunk(&mut stream, 1, 2, chunk, WireRepr::DenseF64);
    }
    let (mut cursor, mut scratch) = (Cursor::new(&stream), Vec::new());
    let first = read_frame(&mut cursor, &mut scratch).expect("well formed");
    assert_eq!(first.0.to_chunk(), chunks[0]);
    let (decode, _, ()) = counted(|| {
        for chunk in &chunks[1..] {
            let (frame, _) = read_frame(&mut cursor, &mut scratch).expect("well formed");
            assert_eq!(frame.to_chunk(), *chunk);
        }
    });
    assert_eq!(decode, 2 * (frames - 1), "decoding: each frame's words and their `Arc`");
}

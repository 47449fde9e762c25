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
//! read. The same job over loopback TCP allocates at those sites and at
//! the ones in [`TCP_SITES`], pinned the same way: the round's caller
//! writes every link itself, so no send crosses a channel, and the
//! reader threads' delivery queue keeps its buffer. The TCP path's frame
//! buffers are pinned on one thread as well, by the second and third
//! entries ([`link_buffers_allocate_only_payloads`],
//! [`replies_allocate_nothing_once_the_buffer_has_grown`]).
//!
//! The counters see every thread of the process, so the ledger runs
//! without the test harness (`harness = false` in the root manifest):
//! its `main` runs the entries one after another on the main thread, and
//! the only other threads are the ones the counted jobs start. A
//! harness's own threads would allocate inside a counted region when the
//! host is busy.
//!
//! `CountingAlloc`'s `unsafe impl GlobalAlloc` is the one `unsafe` in
//! the repository: it forwards every call to [`System`] unchanged and
//! only adds to two counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cosmic::cosmic_ml::{data, sgd, Algorithm};
use cosmic::cosmic_runtime::node::chunk_vector;
use cosmic::cosmic_runtime::transport::wire::FrameReader;
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

/// What one steady TCP iteration allocates beyond [`SIM_SITES`], by
/// site, per iteration. Neither the links' frame and reply buffers nor
/// the delivery queue allocate once grown.
const TCP_SITES: &[(&str, f64)] = &[
    ("the round's stream and flight tables (`TcpTransport::round_lent`), one each a round", 2.0),
    ("the `(chunk_index, chunk)` list a link's exchange sends (`Stream::chunks`), per sender", 4.0),
    (
        "a received chunk frame's payload words and their `Arc` (`FrameReader::next_frame`), \
         per sender's one chunk",
        8.0,
    ),
    ("the chunk list a served stream delivers (`ServedLink::poll`), per sender", 4.0),
];

/// Allocations per steady TCP iteration, unchanged from the 28.125 read
/// (not pinned) while a resident thread sent on each link through a
/// channel.
const TCP_PINNED: f64 = 28.125;

/// Runs every entry, reporting each as the test harness would.
fn main() {
    let entries: [(&str, fn()); 3] = [
        (
            "a_steady_iteration_allocates_only_at_its_named_sites",
            a_steady_iteration_allocates_only_at_its_named_sites,
        ),
        ("link_buffers_allocate_only_payloads", link_buffers_allocate_only_payloads),
        (
            "replies_allocate_nothing_once_the_buffer_has_grown",
            replies_allocate_nothing_once_the_buffer_has_grown,
        ),
    ];
    println!("\nrunning {} tests", entries.len());
    for (name, entry) in entries {
        entry();
        println!("test {name} ... ok");
    }
    println!("\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured\n", entries.len());
}

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
    println!("Tcp: {tcp} allocations, {tcp_bytes} bytes per iteration");
    // Two threads a node fold in the crew: the same sites, no more.
    let (threads, _) = per_iteration(TransportKind::Sim, 2);
    assert_eq!(threads, sim, "two threads a node allocate beyond one");
    let sites = |sites: &[(&str, f64)]| -> (f64, String) {
        let table: Vec<String> =
            sites.iter().map(|(site, n)| format!("    {n:>6} {site}")).collect();
        (sites.iter().map(|(_, n)| n).sum(), table.join("\n"))
    };
    let (named, table) = sites(SIM_SITES);
    if sim != named || named != PINNED {
        panic!(
            "a steady Sim iteration allocates {sim} times ({sim_bytes} bytes); \
             pinned {PINNED}, named {named}:\n{table}"
        );
    }
    let (wired, tcp_table) = sites(TCP_SITES);
    if tcp != named + wired || named + wired != TCP_PINNED {
        panic!(
            "a steady TCP iteration allocates {tcp} times ({tcp_bytes} bytes); \
             pinned {TCP_PINNED}, named {} — the Sim sites and:\n{tcp_table}",
            named + wired
        );
    }
}

/// The ledger's second entry, the wire's frame buffers, on one thread:
/// dense chunk frames written through one buffer, as a link writes them,
/// and read back through a [`FrameReader`], as a link reads them, each
/// frame's bytes arriving on their own. Once each buffer has grown to a
/// frame, writing allocates nothing, and reading only the frame's
/// payload words and their `Arc`, which the received chunk goes on to
/// hold.
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

    let wired: Vec<Vec<u8>> = chunks
        .iter()
        .map(|chunk| {
            let mut bytes = Vec::new();
            Frame::write_chunk(&mut bytes, 1, 2, chunk, WireRepr::DenseF64);
            bytes
        })
        .collect();
    let mut reader = FrameReader::default();
    let mut read = |bytes: &[u8]| {
        reader.feed(bytes);
        reader.next_frame().expect("well formed").expect("a whole frame").0
    };
    assert_eq!(read(&wired[0]).to_chunk(), chunks[0]); // grows the reader's buffer
    let (decode, _, ()) = counted(|| {
        for (bytes, chunk) in wired[1..].iter().zip(&chunks[1..]) {
            assert_eq!(read(bytes).to_chunk(), *chunk);
        }
    });
    assert_eq!(decode, 2 * (frames - 1), "decoding: each frame's words and their `Arc`");
}

/// The ledger's third entry: a served link's replies — an `Ack`, a
/// launcher's `Model` and a joiner's `Snapshot` — written through the
/// buffer the link keeps. Once it has grown to the largest, writing a
/// reply allocates nothing: the model's words are shared, not copied.
fn replies_allocate_nothing_once_the_buffer_has_grown() {
    let model: Vec<f64> = (0..2 * CHUNK_WORDS + 5).map(|i| i as f64).collect();
    let carrying =
        |kind, a| Frame { payload: model.clone().into(), ..Frame::control(kind, 1, 2, a, 7) };
    let replies = [
        Frame::control(FrameKind::Ack, 1, 2, 0, 3),
        carrying(FrameKind::Model, 0),
        carrying(FrameKind::Snapshot, 2),
    ];
    let mut out = Vec::new();
    let write = |out: &mut Vec<u8>| {
        for reply in &replies {
            out.clear();
            reply.write_into(out);
        }
    };
    write(&mut out);
    let (written, _, ()) = counted(|| write(&mut out));
    assert_eq!(written, 0, "three replies through a grown buffer");
}

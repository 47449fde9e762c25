//! The Sigma-node aggregation pipeline (paper Figure 2), executed with
//! real threads.
//!
//! An incoming network handler dispatches each connection's received data
//! to the **Networking Pool**, whose threads copy chunks into bounded
//! **circular buffers**; threads of the **Aggregation Pool** consume the
//! chunks and fold them into the shared **Aggregation Buffer**. Producers
//! and consumers overlap, so aggregation starts "as soon as the first
//! chunk of data is copied".
//!
//! The pipeline validates every chunk (stripe alignment, buffer bounds,
//! payload checksum, duplicate delivery) and every stream (full
//! coverage of the model). A peer that sends an invalid chunk or stops
//! short is **quarantined** — its entire contribution is discarded and
//! reported — rather than poisoning the aggregate or crashing the Sigma.

use std::fmt;
use std::sync::Arc;

use cosmic_collectives::{payload_digest, Fnv1a};
use crossbeam::channel::Receiver;
use crossbeam::sync::WaitGroup;
use parking_lot::Mutex;

use crate::buffer::WordBuf;
use crate::circbuf::CircularBuffer;
use crate::fold;
use crate::pool::ThreadPool;

use crate::layout::CHUNK_WORDS;

/// Default per-peer circular-buffer capacity, in chunks. Deep enough to
/// keep the networking producer ahead of the aggregation consumer,
/// shallow enough that a whole model never buffers.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 4;

/// A contiguous piece of a partial model/gradient vector in flight.
///
/// The payload is a shared `WordBuf` view, so cloning a chunk — for
/// duplicate fault injection, frame wrapping, or ring hand-off — bumps
/// a refcount instead of copying words.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Word offset within the model vector; always a multiple of
    /// [`CHUNK_WORDS`].
    pub offset: usize,
    /// The values (at most [`CHUNK_WORDS`] of them).
    pub data: WordBuf,
    /// [`Chunk::checksum_of`] the offset and payload bits, computed at
    /// send time and verified by the receiving Sigma.
    pub checksum: u64,
}

impl Chunk {
    /// Builds a chunk with a valid checksum.
    pub fn new(offset: usize, data: impl Into<WordBuf>) -> Self {
        let data = data.into();
        let checksum = Chunk::checksum_of(offset, &data);
        Chunk { offset, data, checksum }
    }

    /// The checksum a well-formed chunk at `offset` carrying `data`
    /// must bear: FNV-1a over the offset, then the payload's
    /// [`payload_digest`] — memory-speed, deterministic, and certain to
    /// change when one payload word does.
    pub fn checksum_of(offset: usize, data: &[f64]) -> u64 {
        let mut hash = Fnv1a::default();
        hash.write_u64(offset as u64);
        hash.write_digest(payload_digest(data));
        hash.finish()
    }

    /// Whether the payload still matches its checksum.
    pub(crate) fn is_intact(&self) -> bool {
        self.checksum == Chunk::checksum_of(self.offset, &self.data)
    }

    /// Returns the chunk with its payload damaged and the checksum left
    /// stale, as a corrupting link would deliver it. Used by fault
    /// injection; a validating receiver must reject the result. The
    /// payload buffer may be aliased, so the damage lands on a private
    /// copy — the sender's own words are never altered.
    pub fn corrupted(mut self) -> Self {
        if self.data.is_empty() {
            self.checksum ^= 0x1; // empty payload: damage the sum
        } else {
            let mut words = self.data.to_vec();
            words[0] = f64::from_bits(words[0].to_bits() ^ 0x1); // one flipped bit
            self.data = WordBuf::from_vec(words);
        }
        self
    }
}

/// Splits a vector into stripe-aligned, checksummed chunks.
///
/// One shared allocation backs every chunk: each is a `WordBuf` view
/// into a single copy of `values`, so the whole split costs one
/// allocation instead of one per stripe.
pub fn chunk_vector(values: &[f64]) -> Vec<Chunk> {
    let arena = WordBuf::copy_of(values);
    (0..values.len())
        .step_by(CHUNK_WORDS)
        .map(|start| {
            let len = CHUNK_WORDS.min(values.len() - start);
            Chunk::new(start, arena.slice(start, len))
        })
        .collect()
}

/// Why a peer's stream was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// A chunk's offset was not stripe-aligned.
    Misaligned {
        /// The offending offset.
        offset: usize,
    },
    /// A chunk ran past the end of the aggregation buffer.
    Overrun {
        /// The offending offset.
        offset: usize,
        /// The chunk's payload length.
        len: usize,
    },
    /// A chunk's payload failed its checksum.
    Corrupt {
        /// The offending offset.
        offset: usize,
    },
    /// The stream delivered some of the model but not all of it: a
    /// stripe never arrived, or a chunk stopped short of its stripe's
    /// end. (A stream with no chunk at all is an absent contribution,
    /// not a fault.)
    Incomplete {
        /// The first word offset the stream left uncovered.
        missing: usize,
    },
}

impl fmt::Display for ChunkFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkFault::Misaligned { offset } => write!(f, "misaligned chunk at offset {offset}"),
            ChunkFault::Overrun { offset, len } => {
                write!(f, "chunk at offset {offset} ({len} words) overruns the buffer")
            }
            ChunkFault::Corrupt { offset } => write!(f, "corrupt chunk at offset {offset}"),
            ChunkFault::Incomplete { missing } => {
                write!(f, "incomplete stream: nothing covers offset {missing}")
            }
        }
    }
}

/// The result of a validated aggregation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateOutcome {
    /// Element-wise sum over every peer that passed validation.
    pub sum: Vec<f64>,
    /// Peers whose streams were rejected, with the first fault seen.
    /// Peer indices refer to positions in the `incoming` list.
    pub quarantined: Vec<(usize, ChunkFault)>,
    /// Duplicate chunk deliveries that were recognized and dropped
    /// (delivery is idempotent; duplicates are not a quarantine
    /// offence).
    pub duplicates_dropped: usize,
    /// Peak circular-buffer occupancy over every peer ring in this pass.
    /// **Diagnostic**: with more chunks in flight than ring capacity the
    /// peak depends on producer/consumer interleaving, so telemetry
    /// keeps it out of the deterministic `metrics.json` exports.
    pub ring_high_water: usize,
}

/// What the pipeline knows once every peer stream has drained, before
/// any final fold has run: the validated staging buffers in peer-index
/// order plus the quarantine/duplicate/occupancy report.
#[derive(Debug)]
struct DrainedRound {
    survivors: Vec<Vec<f64>>,
    quarantined: Vec<(usize, ChunkFault)>,
    duplicates_dropped: usize,
    ring_high_water: usize,
}

/// Per-peer consumer state, collected after the pipeline drains.
#[derive(Debug, Default)]
struct PeerFold {
    staged: Option<Vec<f64>>,
    fault: Option<ChunkFault>,
    duplicates: usize,
    high_water: usize,
}

/// The Sigma node's aggregation machinery: two internally managed thread
/// pools joined per-connection by bounded circular buffers.
///
/// # Examples
///
/// ```
/// use cosmic_runtime::{Chunk, SigmaAggregator};
/// use crossbeam::channel;
///
/// let sigma = SigmaAggregator::new(2, 2);
/// let (tx, rx) = channel::unbounded();
/// tx.send(Chunk::new(0, vec![1.0, 2.0])).unwrap();
/// drop(tx);
/// let sum = sigma.aggregate(2, vec![rx]);
/// assert_eq!(sum, vec![1.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct SigmaAggregator {
    networking: ThreadPool,
    aggregation: ThreadPool,
    ring_capacity: usize,
}

impl SigmaAggregator {
    /// Creates the two pools with the default per-peer ring capacity
    /// (`DEFAULT_RING_CAPACITY`). The paper sizes the pools to the
    /// host CPU's hardware threads; 4+4 matches the quad-core Xeon E3.
    pub fn new(networking_threads: usize, aggregation_threads: usize) -> Self {
        Self::with_ring_capacity(networking_threads, aggregation_threads, DEFAULT_RING_CAPACITY)
    }

    /// Creates the two pools with an explicit per-peer circular-buffer
    /// capacity in chunks (clamped to at least 1 — a zero-capacity ring
    /// could never pass a chunk). Capacity 1 degenerates to strict
    /// lock-step hand-off between networking and aggregation; larger
    /// rings let the producer run ahead.
    pub(crate) fn with_ring_capacity(
        networking_threads: usize,
        aggregation_threads: usize,
        ring_capacity: usize,
    ) -> Self {
        SigmaAggregator {
            networking: ThreadPool::new(networking_threads, "networking"),
            aggregation: ThreadPool::new(aggregation_threads, "aggregation"),
            ring_capacity: ring_capacity.max(1),
        }
    }

    /// Receives one partial vector from every connection and returns
    /// their element-wise **sum** (averaging, when requested by the
    /// aggregation operator, is a scalar division the caller applies).
    ///
    /// Convenience wrapper over [`SigmaAggregator::aggregate_validated`]
    /// that discards the fault report: peers that fail validation are
    /// silently excluded from the sum.
    pub fn aggregate(&self, model_len: usize, incoming: Vec<Receiver<Chunk>>) -> Vec<f64> {
        self.aggregate_validated(model_len, incoming).sum
    }

    /// Receives one partial vector from every connection, validating
    /// every chunk, and returns the element-wise sum over the peers
    /// that passed along with the quarantine report.
    ///
    /// Each `incoming` receiver is one peer's socket stream of chunks.
    /// A peer whose stream contains a misaligned, out-of-bounds, or
    /// checksum-failing chunk, or that ends having covered only part of
    /// the model, is quarantined: its entire contribution is withheld
    /// from the sum (the rest of its stream is still drained so the
    /// pipeline never stalls). A stream with no chunk at all simply
    /// contributes nothing. Duplicate deliveries of a stripe already
    /// received from the same peer are dropped
    /// idempotently. The sum is folded peer-by-peer in `incoming`
    /// order, so the result for a given set of surviving peers is
    /// deterministic — quarantining peer *k* yields bit-for-bit the sum
    /// over the remaining peers.
    pub fn aggregate_validated(
        &self,
        model_len: usize,
        incoming: Vec<Receiver<Chunk>>,
    ) -> AggregateOutcome {
        let drained = self.drain_validated(model_len, incoming, stage_peer);
        let mut sum = vec![0.0; model_len];
        let parts: Vec<&[f64]> = drained.survivors.iter().map(Vec::as_slice).collect();
        fold::fold_parts(&mut sum, &parts);
        AggregateOutcome {
            sum,
            quarantined: drained.quarantined,
            duplicates_dropped: drained.duplicates_dropped,
            ring_high_water: drained.ring_high_water,
        }
    }

    /// [`SigmaAggregator::aggregate_validated`] with an integer fold:
    /// every surviving peer's staged vector is quantized at the shared
    /// `scale_exp`, the quantized values are folded as exact `i64` sums
    /// by `fold::fold_parts_i64`, and the sum is dequantized once at the
    /// end. Integer addition is associative, so the result does not
    /// depend on fold order.
    ///
    /// The engine does **not** call this: a `FixedPoint` round goes
    /// through [`SigmaAggregator::aggregate_validated`] like every other
    /// repr, whose float fold is exact on grid-point values while each
    /// partial sum stays below `2^(53 - frac_bits)` (DESIGN.md §17).
    /// Callers are the unit test below and the repo benchmark's
    /// `runtime.sigma.fixed_mib_per_s` rung.
    pub fn aggregate_fixed(
        &self,
        model_len: usize,
        incoming: Vec<Receiver<Chunk>>,
        scale_exp: u8,
    ) -> AggregateOutcome {
        let drained = self.drain_validated(model_len, incoming, stage_peer);
        let quantized: Vec<Vec<i32>> = drained
            .survivors
            .iter()
            .map(|part| cosmic_collectives::codec::quantize_at_scale(part, scale_exp).0)
            .collect();
        let parts: Vec<&[i32]> = quantized.iter().map(Vec::as_slice).collect();
        let mut acc = vec![0i64; model_len];
        fold::fold_parts_i64(&mut acc, &parts);
        AggregateOutcome {
            sum: cosmic_collectives::codec::dequantize_sum(scale_exp, &acc),
            quarantined: drained.quarantined,
            duplicates_dropped: drained.duplicates_dropped,
            ring_high_water: drained.ring_high_water,
        }
    }

    /// Runs the two-pool pipeline to completion and collects what
    /// `stage` made of each peer's stream ([`stage_peer`] outside
    /// tests), leaving the final fold — float or integer — to the
    /// caller.
    fn drain_validated(
        &self,
        model_len: usize,
        incoming: Vec<Receiver<Chunk>>,
        stage: fn(&CircularBuffer<Chunk>, usize) -> PeerFold,
    ) -> DrainedRound {
        let peers = incoming.len();
        let folds: Arc<Vec<Mutex<PeerFold>>> =
            Arc::new((0..peers).map(|_| Mutex::new(PeerFold::default())).collect());

        let wg = WaitGroup::new();
        for (peer, rx) in incoming.into_iter().enumerate() {
            // Bounded ring: forces networking and aggregation to overlap
            // rather than buffering whole models.
            let ring = Arc::new(CircularBuffer::<Chunk>::with_capacity(self.ring_capacity));

            // Networking-pool producer: socket -> circular buffer.
            {
                let ring = Arc::clone(&ring);
                self.networking.execute(move || {
                    while let Ok(chunk) = rx.recv() {
                        if !ring.push(chunk) {
                            break;
                        }
                    }
                    ring.close();
                });
            }

            // Aggregation-pool consumer: circular buffer -> this peer's
            // staging buffer. A consumer that unwinds leaves its peer
            // absent from the round: the guard closes the ring and the
            // dropped `wg` releases the wait below.
            {
                let ring = CloseOnDrop(ring);
                let folds = Arc::clone(&folds);
                let wg = wg.clone();
                self.aggregation.execute(move || {
                    *folds[peer].lock() = stage(&ring.0, model_len);
                    drop(wg);
                });
            }
        }
        wg.wait();

        // Collect surviving peers in index order — the determinism
        // contract every final fold (float or integer) builds on.
        let mut quarantined = Vec::new();
        let mut duplicates_dropped = 0;
        let mut ring_high_water = 0;
        let mut survivors: Vec<Vec<f64>> = Vec::new();
        for (peer, fold) in folds.iter().enumerate() {
            let mut fold = fold.lock();
            duplicates_dropped += fold.duplicates;
            ring_high_water = ring_high_water.max(fold.high_water);
            match fold.fault {
                Some(fault) => quarantined.push((peer, fault)),
                None => {
                    if let Some(staged) = fold.staged.take() {
                        survivors.push(staged);
                    }
                }
            }
        }
        DrainedRound { survivors, quarantined, duplicates_dropped, ring_high_water }
    }

    /// Total jobs submitted to the networking + aggregation pools so
    /// far: two per peer connection per aggregation pass, so the count
    /// is a deterministic function of the call history.
    pub(crate) fn jobs_submitted(&self) -> usize {
        self.networking.jobs_submitted() + self.aggregation.jobs_submitted()
    }
}

/// Closes a peer's ring when its aggregation job ends, normally or by
/// unwind, so the networking job feeding it sees `push` return `false`
/// instead of blocking on a consumer that is gone.
struct CloseOnDrop(Arc<CircularBuffer<Chunk>>);

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One peer's aggregation job: drains `ring` into a staging buffer of
/// `model_len` words, validating every chunk as it goes.
fn stage_peer(ring: &CircularBuffer<Chunk>, model_len: usize) -> PeerFold {
    let mut staged: Option<Vec<f64>> = None;
    let mut seen = vec![false; crate::layout::chunk_count(model_len)];
    let mut fault: Option<ChunkFault> = None;
    let mut duplicates = 0usize;
    while let Some(chunk) = ring.pop() {
        // A quarantined peer's stream is still drained so its producer
        // never blocks on a full ring.
        if fault.is_some() {
            continue;
        }
        if chunk.offset % CHUNK_WORDS != 0 {
            fault = Some(ChunkFault::Misaligned { offset: chunk.offset });
            continue;
        }
        // The offset is wire-supplied: bound it before adding to it.
        // (`offset == model_len` with an empty payload would index one
        // stripe past the last.)
        if chunk.offset >= model_len || chunk.data.len() > model_len - chunk.offset {
            fault = Some(ChunkFault::Overrun { offset: chunk.offset, len: chunk.data.len() });
            continue;
        }
        let end = chunk.offset + chunk.data.len();
        if !chunk.is_intact() {
            fault = Some(ChunkFault::Corrupt { offset: chunk.offset });
            continue;
        }
        if end < model_len.min(chunk.offset + CHUNK_WORDS) {
            fault = Some(ChunkFault::Incomplete { missing: end });
            continue;
        }
        let stripe = chunk.offset / CHUNK_WORDS;
        if seen[stripe] {
            duplicates += 1;
            continue;
        }
        seen[stripe] = true;
        let dst = staged.get_or_insert_with(|| vec![0.0; model_len]);
        dst[chunk.offset..end].copy_from_slice(&chunk.data);
    }
    // A stream that delivered anything must have delivered every
    // stripe; zero-filling the rest would pass a partial gradient off
    // as whole.
    if let (None, Some(_), Some(stripe)) = (fault, &staged, seen.iter().position(|&s| !s)) {
        fault = Some(ChunkFault::Incomplete { missing: stripe * CHUNK_WORDS });
    }
    PeerFold { staged, fault, duplicates, high_water: ring.high_water() }
}

impl Default for SigmaAggregator {
    fn default() -> Self {
        Self::new(4, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    fn send_model(model: Vec<f64>) -> Receiver<Chunk> {
        let (tx, rx) = channel::unbounded();
        for chunk in chunk_vector(&model) {
            tx.send(chunk).unwrap();
        }
        rx
    }

    #[test]
    fn sums_partial_models_from_many_peers() {
        let sigma = SigmaAggregator::new(3, 3);
        let len = 3 * CHUNK_WORDS + 17; // multiple stripes + ragged tail
        let peers = 7;
        let incoming: Vec<Receiver<Chunk>> =
            (0..peers).map(|p| send_model((0..len).map(|i| (i + p) as f64).collect())).collect();
        let sum = sigma.aggregate(len, incoming);
        for (i, v) in sum.iter().enumerate() {
            let expect: f64 = (0..peers).map(|p| (i + p) as f64).sum();
            assert_eq!(*v, expect, "element {i}");
        }
    }

    #[test]
    fn empty_connection_list_yields_zeros() {
        let sigma = SigmaAggregator::default();
        assert_eq!(sigma.aggregate(5, vec![]), vec![0.0; 5]);
    }

    #[test]
    fn overlap_is_real_chunks_exceed_ring_capacity() {
        // 16 chunks per peer through rings of capacity 4: reception and
        // aggregation must interleave or the producer would deadlock
        // (the networking job only finishes if consumers drain).
        let sigma = SigmaAggregator::new(2, 2);
        let len = 16 * CHUNK_WORDS;
        let incoming = vec![send_model(vec![1.0; len]), send_model(vec![2.0; len])];
        let sum = sigma.aggregate(len, incoming);
        assert!(sum.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn chunking_round_trips() {
        let v: Vec<f64> = (0..2 * CHUNK_WORDS + 3).map(|i| i as f64).collect();
        let chunks = chunk_vector(&v);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2].data.len(), 3);
        assert!(chunks.iter().all(Chunk::is_intact));
        let mut rebuilt = vec![0.0; v.len()];
        for c in &chunks {
            rebuilt[c.offset..c.offset + c.data.len()].copy_from_slice(&c.data);
        }
        assert_eq!(rebuilt, v);
    }

    #[test]
    fn aggregator_is_reusable_across_iterations() {
        let sigma = SigmaAggregator::new(2, 2);
        for iter in 1..4 {
            let incoming = vec![send_model(vec![iter as f64; 10])];
            assert_eq!(sigma.aggregate(10, incoming), vec![iter as f64; 10]);
        }
    }

    #[test]
    fn corruption_is_detected_and_flagged() {
        let good = Chunk::new(0, vec![1.0, 2.0, 3.0]);
        assert!(good.is_intact());
        let bad = good.clone().corrupted();
        assert!(!bad.is_intact());
        assert_ne!(good.data, bad.data);
        // Empty chunks are damaged through the checksum instead.
        assert!(!Chunk::new(0, vec![]).corrupted().is_intact());
    }

    #[test]
    fn corrupt_peer_is_quarantined_not_summed() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = 2 * CHUNK_WORDS;
        let (tx, rx) = channel::unbounded();
        for (i, chunk) in chunk_vector(&vec![5.0; len]).into_iter().enumerate() {
            tx.send(if i == 1 { chunk.corrupted() } else { chunk }).unwrap();
        }
        drop(tx);
        let incoming = vec![send_model(vec![1.0; len]), rx, send_model(vec![2.0; len])];
        let out = sigma.aggregate_validated(len, incoming);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].0, 1);
        assert!(matches!(out.quarantined[0].1, ChunkFault::Corrupt { .. }));
        assert!(out.sum.iter().all(|&v| v == 3.0), "only honest peers contribute");
    }

    #[test]
    fn misaligned_and_overrunning_chunks_quarantine_their_peer() {
        let sigma = SigmaAggregator::new(2, 2);
        let (tx, rx) = channel::unbounded();
        tx.send(Chunk::new(3, vec![1.0])).unwrap(); // not stripe-aligned
        drop(tx);
        let out = sigma.aggregate_validated(8, vec![rx]);
        assert!(matches!(out.quarantined[..], [(0, ChunkFault::Misaligned { offset: 3 })]));
        assert_eq!(out.sum, vec![0.0; 8]);

        let (tx, rx) = channel::unbounded();
        tx.send(Chunk::new(0, vec![1.0; 9])).unwrap(); // longer than the model
        drop(tx);
        let out = sigma.aggregate_validated(8, vec![rx]);
        assert!(matches!(out.quarantined[..], [(0, ChunkFault::Overrun { offset: 0, len: 9 })]));

        let (tx, rx) = channel::unbounded();
        tx.send(Chunk::new(CHUNK_WORDS, vec![])).unwrap(); // empty, just past the end
        drop(tx);
        let out = sigma.aggregate_validated(CHUNK_WORDS, vec![rx]);
        assert!(matches!(out.quarantined[..], [(0, ChunkFault::Overrun { len: 0, .. })]));

        // An aligned offset whose end overflows `usize`: a verdict in
        // every build profile, not an overflow panic on a pool worker.
        let far = usize::MAX & !(CHUNK_WORDS - 1);
        let (tx, rx) = channel::unbounded();
        tx.send(Chunk::new(far, vec![1.0; CHUNK_WORDS])).unwrap();
        drop(tx);
        let out = sigma.aggregate_validated(CHUNK_WORDS, vec![rx]);
        assert_eq!(
            out.quarantined,
            vec![(0, ChunkFault::Overrun { offset: far, len: CHUNK_WORDS })]
        );
    }

    #[test]
    fn partial_stream_is_quarantined_not_zero_filled() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = 3 * CHUNK_WORDS;
        let model = |p: usize| -> Vec<f64> { (0..len).map(|i| (i * 3 + p) as f64 * 0.1).collect() };
        // Peer 1 loses its middle chunk on the way.
        let (tx, rx) = channel::unbounded();
        for (i, chunk) in chunk_vector(&model(1)).into_iter().enumerate() {
            if i != 1 {
                tx.send(chunk).unwrap();
            }
        }
        drop(tx);
        // Peer 3 sends nothing at all: absent, not faulty.
        let (silent, rx_silent) = channel::unbounded::<Chunk>();
        drop(silent);
        let incoming = vec![send_model(model(0)), rx, send_model(model(2)), rx_silent];
        let out = sigma.aggregate_validated(len, incoming);
        assert_eq!(out.quarantined, vec![(1, ChunkFault::Incomplete { missing: CHUNK_WORDS })]);
        let (a, c) = (model(0), model(2));
        let mut expect = vec![0.0; len];
        fold::fold_parts_reference(&mut expect, &[&a, &c]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out.sum), bits(&expect), "sum is exactly the other two peers");

        // A chunk that stops short of its stripe is incomplete too.
        let (tx, rx) = channel::unbounded();
        tx.send(Chunk::new(0, vec![1.0; 5])).unwrap();
        drop(tx);
        let out = sigma.aggregate_validated(8, vec![rx]);
        assert_eq!(out.quarantined, vec![(0, ChunkFault::Incomplete { missing: 5 })]);
        assert_eq!(out.sum, vec![0.0; 8]);
    }

    #[test]
    fn duplicate_chunks_are_dropped_idempotently() {
        let sigma = SigmaAggregator::new(2, 2);
        let (tx, rx) = channel::unbounded();
        let chunk = Chunk::new(0, vec![4.0; 4]);
        tx.send(chunk.clone()).unwrap();
        tx.send(chunk).unwrap();
        drop(tx);
        let out = sigma.aggregate_validated(4, vec![rx]);
        assert_eq!(out.sum, vec![4.0; 4], "duplicate must not double-count");
        assert_eq!(out.duplicates_dropped, 1);
        assert!(out.quarantined.is_empty());
    }

    #[test]
    fn outcome_reports_ring_high_water_and_job_counts() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = 2 * CHUNK_WORDS;
        let incoming = vec![send_model(vec![1.0; len]), send_model(vec![2.0; len])];
        let out = sigma.aggregate_validated(len, incoming);
        assert!(out.ring_high_water >= 1, "chunks flowed through the rings");
        assert!(out.ring_high_water <= 4, "bounded by ring capacity");
        // Two jobs (producer + consumer) per peer connection.
        assert_eq!(sigma.jobs_submitted(), 4);
        let _ = sigma.aggregate(len, vec![send_model(vec![3.0; len])]);
        assert_eq!(sigma.jobs_submitted(), 6);
    }

    #[test]
    fn capacity_one_ring_completes_in_strict_lockstep() {
        // Satellite regression: with the ring squeezed to a single slot
        // the pipeline degrades to hand-to-hand chunk passing but must
        // still complete, and the high-water mark can only ever be 1.
        let sigma = SigmaAggregator::with_ring_capacity(2, 2, 1);
        assert_eq!(sigma.ring_capacity, 1);
        let len = 8 * CHUNK_WORDS + 5;
        let incoming = vec![send_model(vec![1.5; len]), send_model(vec![2.5; len])];
        let out = sigma.aggregate_validated(len, incoming);
        assert!(out.sum.iter().all(|&v| v == 4.0));
        assert!(out.quarantined.is_empty());
        assert_eq!(out.ring_high_water, 1);
    }

    #[test]
    fn zero_ring_capacity_is_clamped_to_one() {
        let sigma = SigmaAggregator::with_ring_capacity(1, 1, 0);
        assert_eq!(sigma.ring_capacity, 1);
        let out = sigma.aggregate_validated(4, vec![send_model(vec![1.0; 4])]);
        assert_eq!(out.sum, vec![1.0; 4]);
    }

    #[test]
    fn fixed_point_aggregation_sums_on_the_shared_grid() {
        let sigma = SigmaAggregator::new(2, 2);
        let scale_exp = 10u8; // grid step 2⁻¹⁰
        let len = CHUNK_WORDS + 3;
        // Grid-point payloads: the integer path must match the float
        // fold exactly, and validation must still quarantine.
        let a: Vec<f64> = (0..len).map(|i| (i % 97) as f64 / 1024.0).collect();
        let b: Vec<f64> = (0..len).map(|i| -((i % 53) as f64) / 1024.0).collect();
        let (tx, rx) = channel::unbounded();
        for (i, chunk) in chunk_vector(&vec![7.0; len]).into_iter().enumerate() {
            tx.send(if i == 0 { chunk.corrupted() } else { chunk }).unwrap();
        }
        drop(tx);
        let incoming = vec![send_model(a.clone()), rx, send_model(b.clone())];
        let out = sigma.aggregate_fixed(len, incoming, scale_exp);
        assert_eq!(out.quarantined.len(), 1, "corrupt peer still quarantined");
        let expect: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let got_bits: Vec<u64> = out.sum.iter().map(|v| v.to_bits()).collect();
        let expect_bits: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, expect_bits, "grid-point payloads sum exactly");
    }

    #[test]
    fn a_consumer_that_panics_mid_stream_does_not_wedge_its_producer() {
        fn dies_after_one_chunk(ring: &CircularBuffer<Chunk>, _: usize) -> PeerFold {
            let _ = ring.pop();
            panic!("aggregation job panics mid-stream");
        }
        // One worker per pool and 16 chunks through a capacity-4 ring:
        // once the consumer is gone the producer fills the ring and,
        // unless the ring is closed under it, blocks in `push` on the
        // only networking worker for the aggregator's lifetime.
        let sigma = SigmaAggregator::new(1, 1);
        let len = 16 * CHUNK_WORDS;
        let drained =
            sigma.drain_validated(len, vec![send_model(vec![1.0; len])], dies_after_one_chunk);
        assert!(drained.survivors.is_empty(), "the peer is absent from the round");
        assert!(drained.quarantined.is_empty());
        // Both pools are whole: the next round on the same aggregator folds.
        let out = sigma.aggregate_validated(len, vec![send_model(vec![2.0; len])]);
        assert!(out.sum.iter().all(|&v| v == 2.0));
        assert!(out.quarantined.is_empty());
    }

    #[test]
    fn quarantined_peer_stream_is_fully_drained() {
        // A long stream that goes bad on its first chunk must still be
        // consumed to completion, or the networking producer would block
        // forever on the capacity-4 ring.
        let sigma = SigmaAggregator::new(1, 1);
        let len = 16 * CHUNK_WORDS;
        let (tx, rx) = channel::unbounded();
        for (i, chunk) in chunk_vector(&vec![1.0; len]).into_iter().enumerate() {
            tx.send(if i == 0 { chunk.corrupted() } else { chunk }).unwrap();
        }
        drop(tx);
        let out = sigma.aggregate_validated(len, vec![rx]);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.sum, vec![0.0; len]);
    }
}

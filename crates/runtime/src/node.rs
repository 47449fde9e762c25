//! The Sigma-node aggregation pipeline (paper Figure 2).
//!
//! The paper's networking stage is the wire's own threads — `Sim`'s
//! caller, TCP's link readers and routing caller — and the paper's
//! **Aggregation Pool** collapses into the one that delivers each
//! stream (`Sim`'s caller, TCP's routing caller): it stages the peer's
//! stream as it holds it, validating every chunk "as soon as the first
//! chunk of data is copied" and keeping it as delivered — a refcounted
//! view of the words the wire decoded, never a copy. No chunk changes
//! threads inside Sigma. When every stream has ended the
//! held views fold, a stripe at a time, into the **Aggregation Buffer**.
//!
//! The pipeline validates every chunk (stripe alignment, buffer bounds,
//! payload checksum, duplicate delivery) and every stream (one layout,
//! full coverage of the model). A peer that sends an invalid chunk or
//! stops short is **quarantined** — its entire contribution is discarded
//! and reported — rather than poisoning the aggregate or crashing the
//! Sigma; so is a peer whose staging panics.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use cosmic_collectives::codec::{dequantize_sum, derive_scale, read_grid, write_grid, CodecError};
use cosmic_collectives::{payload_digest, Fnv1a};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use crate::buffer::{recycle, WordBuf};
use crate::fold;

use crate::layout::{chunk_count, CHUNK_WORDS};

/// How a [`Chunk`]'s words read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// One f64 model word per payload word.
    #[default]
    Dense,
    /// A fixed-point grid exactly as the wire carries it: the words
    /// `codec::write_grid` writes and `codec::read_grid` parses.
    Grid,
}

/// A contiguous piece of a partial model/gradient vector in flight.
///
/// The payload is a shared `WordBuf` view, so cloning a chunk — for
/// duplicate fault injection or frame wrapping — bumps a refcount
/// instead of copying words. A chunk also carries the digest its
/// checksum was sealed over, computed by the pass that wrote or read its
/// words, so checking it (`Chunk::is_intact`) reads no payload word.
/// `data` is never changed in place: a chunk over other words is built
/// anew ([`Chunk::new`], [`Chunk::with_checksum`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Word offset within the model vector; always a multiple of
    /// [`CHUNK_WORDS`].
    pub offset: usize,
    /// The payload words as carried (at most [`CHUNK_WORDS`] model
    /// words' worth), read according to `layout`.
    pub data: WordBuf,
    /// [`Chunk::checksum_of`] (dense) or [`Chunk::grid_checksum_of`]
    /// the offset and payload bits, computed at send time and verified
    /// by the receiving Sigma.
    pub checksum: u64,
    /// How `data` reads.
    pub layout: Layout,
    /// The [`payload_digest`] of the words `checksum` covers past its
    /// header: all of a dense chunk's, a grid chunk's packed ones.
    pub(crate) digest: u64,
}

impl Chunk {
    /// Builds a dense chunk with a valid checksum.
    pub fn new(offset: usize, data: impl Into<WordBuf>) -> Self {
        let data = data.into();
        let digest = payload_digest(&data);
        let checksum = seal(offset, Layout::Dense, &data, digest);
        Chunk { offset, data, checksum, layout: Layout::Dense, digest }
    }

    /// A `layout` chunk bearing `checksum` as given — a stale one is the
    /// receiving Sigma's verdict to give, as it is for a chunk off the
    /// wire.
    pub fn with_checksum(
        offset: usize,
        data: impl Into<WordBuf>,
        checksum: u64,
        layout: Layout,
    ) -> Self {
        let data = data.into();
        let digest = digest_of(layout, &data);
        Chunk { offset, data, checksum, layout, digest }
    }

    /// Seals `data` — header word, packed values — as a grid chunk.
    fn grid(offset: usize, data: WordBuf) -> Self {
        let digest = digest_of(Layout::Grid, &data);
        let checksum = seal(offset, Layout::Grid, &data, digest);
        Chunk { offset, data, checksum, layout: Layout::Grid, digest }
    }

    /// The checksum a well-formed dense chunk at `offset` carrying
    /// `data` must bear: FNV-1a over the offset, then the payload's
    /// [`payload_digest`] — memory-speed, deterministic, and certain to
    /// change when one payload word does.
    pub fn checksum_of(offset: usize, data: &[f64]) -> u64 {
        seal(offset, Layout::Dense, data, payload_digest(data))
    }

    /// [`Chunk::checksum_of`] for a [`Layout::Grid`] chunk, over the
    /// words as carried: the offset, then the header word and the digest
    /// of the packed values, a word-wide step each — one changed offset
    /// byte, header field or packed word is certain to change it, and
    /// no dense chunk's sum is a grid chunk's.
    pub fn grid_checksum_of(offset: usize, data: &[f64]) -> u64 {
        seal(offset, Layout::Grid, data, digest_of(Layout::Grid, data))
    }

    /// Whether the payload still matches its checksum: the checksum
    /// re-sealed from the carried digest, no payload word read. The
    /// payload is immutable, so the digest is of the very words held.
    pub(crate) fn is_intact(&self) -> bool {
        debug_assert_eq!(self.digest, digest_of(self.layout, &self.data), "a stale digest");
        self.checksum == seal(self.offset, self.layout, &self.data, self.digest)
    }

    /// A grid chunk's `(scale_exp, words)`, if `data` is a grid of at
    /// most a stripe's words (`read_grid`).
    pub(crate) fn grid_header(&self) -> Result<(u8, usize), CodecError> {
        read_grid(&self.data, CHUNK_WORDS)
    }

    /// Returns the chunk with its payload damaged and the checksum left
    /// stale, as a corrupting link would deliver it. Used by fault
    /// injection; a validating receiver must reject the result. The
    /// payload buffer may be aliased, so the damage lands on a private
    /// copy — the sender's own words are never altered — whose digest
    /// is taken anew. A grid chunk is damaged in its first packed word,
    /// not its header: the wire must still carry it to the Sigma whose
    /// verdict it is.
    pub fn corrupted(mut self) -> Self {
        let at = usize::from(self.layout == Layout::Grid);
        if self.data.len() <= at {
            self.checksum ^= 0x1; // no payload word: damage the sum
        } else {
            let mut words = self.data.to_vec();
            words[at] = f64::from_bits(words[at].to_bits() ^ 0x1); // one flipped bit
            self.digest = digest_of(self.layout, &words);
            self.data = WordBuf::from_vec(words);
        }
        self
    }
}

/// The digest a `layout` chunk's checksum covers: of all of `data`, or
/// of a grid's packed words after its header.
pub(crate) fn digest_of(layout: Layout, data: &[f64]) -> u64 {
    match layout {
        Layout::Dense => payload_digest(data),
        Layout::Grid => payload_digest(data.get(1..).unwrap_or_default()),
    }
}

/// A chunk checksum from its digest: FNV-1a over the offset, then — a
/// grid chunk's header word first — the digest, a word-wide step each.
/// A header-less grid seals its offset alone.
fn seal(offset: usize, layout: Layout, data: &[f64], digest: u64) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write_u64(offset as u64);
    match (layout, data.first()) {
        (Layout::Dense, _) => hash.write_digest(digest),
        (Layout::Grid, Some(header)) => {
            hash.write_digest(header.to_bits());
            hash.write_digest(digest);
        }
        (Layout::Grid, None) => {}
    }
    hash.finish()
}

/// Cuts `arena` into stripe-aligned, checksummed chunks, each a view of
/// it: no word is copied, and each is digested once, here.
pub(crate) fn chunk_views(arena: &WordBuf) -> Vec<Chunk> {
    (0..arena.len())
        .step_by(CHUNK_WORDS)
        .map(|start| Chunk::new(start, arena.slice(start, CHUNK_WORDS.min(arena.len() - start))))
        .collect()
}

/// Splits a vector into stripe-aligned, checksummed chunks: the views
/// (`chunk_views`) of one copy of `values`, so the whole split costs
/// one allocation for the words instead of one per stripe.
pub fn chunk_vector(values: &[f64]) -> Vec<Chunk> {
    chunk_views(&WordBuf::copy_of(values))
}

/// [`chunk_vector`] for a fixed-point round: one [`derive_scale`] over
/// the partial, one [`write_grid`] per stripe, and every stripe a view
/// of one arena. Returns the chunks and how many values saturated.
pub(crate) fn grid_chunks(values: &[f64], frac_bits: u8) -> (Vec<Chunk>, u64) {
    const STRIDE: usize = 1 + CHUNK_WORDS / 2; // a full stripe's header and pairs
    let scale_exp = derive_scale(values, frac_bits);
    let mut arena = Vec::with_capacity(chunk_count(values.len()) * STRIDE);
    let mut clipped = 0;
    for stripe in values.chunks(CHUNK_WORDS) {
        clipped += write_grid(stripe, scale_exp, &mut arena);
    }
    let arena = WordBuf::from_vec(arena);
    let chunks = values.chunks(CHUNK_WORDS).enumerate().map(|(i, stripe)| {
        Chunk::grid(i * CHUNK_WORDS, arena.slice(i * STRIDE, 1 + stripe.len().div_ceil(2)))
    });
    (chunks.collect(), clipped)
}

/// Why a peer's stream was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFault {
    /// A chunk's offset was not stripe-aligned.
    Misaligned {
        /// The offending offset.
        offset: usize,
    },
    /// A chunk ran past the end of the aggregation buffer, or past the
    /// end of its stripe.
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
    /// Staging the peer's stream unwound: whatever it had validated is
    /// lost with it, and the rest of its stream is discarded.
    Aborted,
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
            ChunkFault::Aborted => write!(f, "staging aborted"),
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
}

/// One peer's validated contribution: stripe `k`'s first intact chunk,
/// exactly as delivered — a view of the words the wire decoded.
type Stripes = Vec<Option<Chunk>>;

/// One peer's stream in staging: every pushed chunk is validated and
/// each stripe's first intact one held as delivered — or, under
/// `quantize_at`, as the grid chunk of that scale exponent a fixed-point
/// sender would have delivered in its place. A stage outlives its pass
/// in its aggregator's spares, its stripe table emptied.
#[derive(Debug, Default)]
struct Stage {
    model_len: usize,
    quantize_at: Option<u8>,
    stripes: Stripes,
    layout: Option<Layout>,
    fault: Option<ChunkFault>,
    duplicates: usize,
}

impl Stage {
    /// Readies the stage for a new stream, in the stripe table it has.
    fn reset(&mut self, model_len: usize, quantize_at: Option<u8>) {
        self.stripes.clear();
        self.stripes.resize(chunk_count(model_len), None);
        (self.model_len, self.quantize_at) = (model_len, quantize_at);
        (self.layout, self.fault, self.duplicates) = (None, None, 0);
    }

    /// Stages the stream's next chunk. A quarantined stream takes the
    /// rest of its chunks and ignores them.
    fn push(&mut self, chunk: Chunk) {
        if self.fault.is_none() {
            self.fault = self.admit(chunk).err();
        }
    }

    /// Holds `chunk` or drops it as a duplicate, unless it earns the
    /// stream a verdict — checked in this order: misaligned, grid
    /// header, overrun (past the model's end, or longer than a stripe),
    /// intact, incomplete, duplicate, layout.
    fn admit(&mut self, chunk: Chunk) -> Result<(), ChunkFault> {
        let offset = chunk.offset;
        if !offset.is_multiple_of(CHUNK_WORDS) {
            return Err(ChunkFault::Misaligned { offset });
        }
        // Model words carried; a malformed grid header leaves no length
        // to check against, and one past a stripe is refused unread.
        let len = match chunk.layout {
            Layout::Dense => chunk.data.len(),
            Layout::Grid => match chunk.grid_header() {
                Ok((_, len)) => len,
                Err(CodecError::Oversized { words, .. }) => words,
                Err(_) => return Err(ChunkFault::Corrupt { offset }),
            },
        };
        // The offset is wire-supplied: bound it before adding to it.
        // (`offset == model_len` with an empty payload would index one
        // stripe past the last.)
        if offset >= self.model_len || len > self.model_len - offset || len > CHUNK_WORDS {
            return Err(ChunkFault::Overrun { offset, len });
        }
        if !chunk.is_intact() {
            return Err(ChunkFault::Corrupt { offset });
        }
        let end = offset + len;
        if end < self.model_len.min(offset + CHUNK_WORDS) {
            return Err(ChunkFault::Incomplete { missing: end });
        }
        let slot = &mut self.stripes[offset / CHUNK_WORDS];
        if slot.is_some() {
            self.duplicates += 1;
            return Ok(());
        }
        // The stream changed representation mid-way.
        if *self.layout.get_or_insert(chunk.layout) != chunk.layout {
            return Err(ChunkFault::Corrupt { offset });
        }
        *slot = Some(match self.quantize_at {
            Some(scale_exp) if chunk.layout == Layout::Dense => {
                let mut words = Vec::with_capacity(1 + len.div_ceil(2));
                write_grid(&chunk.data, scale_exp, &mut words);
                Chunk::grid(offset, WordBuf::from_vec(words))
            }
            _ => chunk,
        });
        Ok(())
    }

    /// The stream has ended: its verdict, if it earned one. One that
    /// delivered anything must have delivered every stripe; folding the
    /// rest as absent would pass a partial gradient off as whole.
    fn close(&mut self) -> Option<ChunkFault> {
        let gap = self.stripes.iter().position(Option::is_none);
        if let (None, Some(_), Some(stripe)) = (self.fault, self.layout, gap) {
            self.fault = Some(ChunkFault::Incomplete { missing: stripe * CHUNK_WORDS });
        }
        self.fault
    }

    /// Whether the closed stream folds: it delivered, with no verdict.
    fn folds(&self) -> bool {
        self.layout.is_some() && self.fault.is_none()
    }
}

/// A stage's push: [`Stage::push`], or a test's planted panic.
type PushFn = fn(&mut Stage, Chunk);

/// One aggregation pass: a [`Stage`] per peer stream, fed by whichever
/// thread holds that stream's chunks, and one fold once every stream has
/// ended.
pub(crate) struct Pass<'s> {
    sigma: &'s SigmaAggregator,
    model_len: usize,
    /// `None` once the peer's staging panicked.
    stages: Vec<Option<Stage>>,
}

impl Pass<'_> {
    /// Stages `chunks` as (more of) peer `peer`'s stream. A push that
    /// panics aborts the peer: it is quarantined as
    /// [`ChunkFault::Aborted`] and the rest of its stream is discarded,
    /// while every other peer stages on.
    pub(crate) fn stage(&mut self, peer: usize, chunks: impl IntoIterator<Item = Chunk>) {
        let push = self.sigma.push;
        let slot = &mut self.stages[peer];
        for chunk in chunks {
            let Some(stage) = slot.as_mut() else {
                return;
            };
            if catch_unwind(AssertUnwindSafe(|| push(stage, chunk))).is_err() {
                *slot = None;
            }
        }
    }

    /// Ends the pass — every stream has ended — and folds what survived.
    /// Peers are collected in index order: the determinism contract the
    /// float fold builds on. Every view the pass held is dropped before
    /// it returns, and its tables go back to the aggregator's spares
    /// (an aborted peer's stage is lost with its unwind).
    pub(crate) fn finish(mut self) -> AggregateOutcome {
        let mut outcome =
            AggregateOutcome { sum: Vec::new(), quarantined: Vec::new(), duplicates_dropped: 0 };
        for (peer, stage) in self.stages.iter_mut().enumerate() {
            let Some(stage) = stage else {
                outcome.quarantined.push((peer, ChunkFault::Aborted));
                continue;
            };
            outcome.duplicates_dropped += stage.duplicates;
            outcome.quarantined.extend(stage.close().map(|fault| (peer, fault)));
        }
        let mut scratch = std::mem::take(&mut self.sigma.spares.lock().scratch);
        outcome.sum = fold_stripes(self.model_len, &self.stages, &mut scratch);
        let mut spares = self.sigma.spares.lock();
        for mut stage in self.stages.drain(..).flatten() {
            stage.stripes.clear();
            spares.stages.push(stage);
        }
        (spares.slots, spares.scratch) = (self.stages, scratch);
        outcome
    }
}

/// What a pass leaves its aggregator for the next: the tables that
/// otherwise would be allocated per pass, per peer or per fold.
#[derive(Debug, Default)]
struct Spares {
    /// Closed stages, their stripe tables empty.
    stages: Vec<Stage>,
    /// The per-peer table of stages, empty.
    slots: Vec<Option<Stage>>,
    scratch: FoldScratch,
}

/// [`fold_stripes`]' working tables, kept between folds. The borrowed
/// ones are empty between folds; [`recycle`] lends them out.
#[derive(Debug, Default)]
struct FoldScratch {
    dense: Vec<&'static [f64]>,
    grids: Vec<(&'static [f64], u8)>,
    acc: Vec<i64>,
    total: Vec<f64>,
}

/// The Sigma node's aggregation machinery. It owns no thread: a pass
/// stages each peer's stream on the thread that delivers it — `Sim`'s
/// caller, TCP's routing caller, or the caller of
/// [`SigmaAggregator::aggregate_validated`] — and folds once the last
/// stream has ended.
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
/// let outcome = sigma.aggregate_validated(2, vec![rx]);
/// assert_eq!(outcome.sum, vec![1.0, 2.0]);
/// ```
#[derive(Debug)]
pub struct SigmaAggregator {
    /// Peer streams staged so far, one per peer per pass.
    staged: AtomicUsize,
    /// A field so tests can plant a panic.
    push: PushFn,
    /// Tables the last pass left, for the next.
    spares: Mutex<Spares>,
}

impl SigmaAggregator {
    /// Creates an aggregator. Neither argument sizes anything: the
    /// paper's networking and aggregation pools are both the wire's
    /// delivering thread here (`Sim`'s caller, TCP's routing caller),
    /// which stages each stream as it holds it. They stay so the
    /// signature does.
    pub fn new(_networking_threads: usize, _aggregation_threads: usize) -> Self {
        SigmaAggregator { staged: AtomicUsize::new(0), push: Stage::push, spares: Mutex::default() }
    }

    /// Starts a pass over `peers` streams of a `model_len`-word model,
    /// re-expressing dense chunks on the grid of `quantize_at` if given,
    /// in the tables an earlier pass left (new ones where it left too
    /// few).
    pub(crate) fn pass(&self, model_len: usize, peers: usize, quantize_at: Option<u8>) -> Pass<'_> {
        self.staged.fetch_add(peers, Ordering::Relaxed);
        let mut spares = self.spares.lock();
        let mut stages = std::mem::take(&mut spares.slots);
        stages.extend((0..peers).map(|_| {
            let mut stage = spares.stages.pop().unwrap_or_default();
            stage.reset(model_len, quantize_at);
            Some(stage)
        }));
        Pass { sigma: self, model_len, stages }
    }

    /// Receives one partial vector from every connection, validating
    /// every chunk, and returns the element-wise **sum** over the peers
    /// that passed (averaging is a scalar division the caller applies)
    /// along with the quarantine report.
    ///
    /// Each `incoming` receiver is one peer's socket stream of chunks,
    /// drained to its end on this thread, in peer order: a sender still
    /// alive is waited for. A peer whose stream contains a misaligned,
    /// out-of-bounds, or checksum-failing chunk, or that ends having
    /// covered only part of the model, is quarantined: its entire
    /// contribution is withheld from the sum (the rest of its stream is
    /// still drained), as is that of a peer whose staging unwound
    /// ([`ChunkFault::Aborted`]). A stream with no chunk at all simply
    /// contributes nothing. Duplicate deliveries of a stripe already
    /// received from the same peer are dropped idempotently.
    ///
    /// Sigma holds each surviving chunk as delivered and folds after
    /// the last stream ends, a stripe at a time. Dense chunks fold as
    /// floats, peer-by-peer in `incoming` order, so the result for a
    /// given set of surviving peers is deterministic — quarantining peer
    /// *k* yields bit-for-bit the sum over the remaining peers.
    /// [`Layout::Grid`] chunks fold as integers (`fold::fold_grid_stripe`)
    /// and de-quantize once: exact, so in any order. A stream that
    /// changes layout is corrupt; a stripe of both kinds folds its grid
    /// total last.
    pub fn aggregate_validated(
        &self,
        model_len: usize,
        incoming: Vec<Receiver<Chunk>>,
    ) -> AggregateOutcome {
        self.drain(model_len, incoming, None)
    }

    /// [`SigmaAggregator::aggregate_validated`] over dense streams, with
    /// every validated chunk re-expressed on arrival, as it is staged,
    /// as the grid chunk a fixed-point sender at the shared `scale_exp`
    /// would have sent (`write_grid`), and from there the same integer
    /// fold. Layout is judged as delivered: a stream that mixes grid
    /// chunks in is corrupt here as everywhere. The engine sends grids;
    /// this entry point serves the benchmark rung
    /// `runtime.sigma.fixed_mib_per_s`.
    pub fn aggregate_fixed(
        &self,
        model_len: usize,
        incoming: Vec<Receiver<Chunk>>,
        scale_exp: u8,
    ) -> AggregateOutcome {
        self.drain(model_len, incoming, Some(scale_exp))
    }

    /// Stages every stream of `incoming` on this thread, in peer order,
    /// then folds what survived.
    fn drain(
        &self,
        model_len: usize,
        incoming: Vec<Receiver<Chunk>>,
        quantize_at: Option<u8>,
    ) -> AggregateOutcome {
        let mut pass = self.pass(model_len, incoming.len(), quantize_at);
        for (peer, rx) in incoming.iter().enumerate() {
            pass.stage(peer, rx);
        }
        pass.finish()
    }

    /// Peer streams staged so far — one per peer per pass, booked as
    /// `pool.jobs` — so the count is a deterministic function of the
    /// call history.
    pub(crate) fn jobs_submitted(&self) -> usize {
        self.staged.load(Ordering::Relaxed)
    }
}

/// The final fold: walks the model a stripe at a time over the views
/// the closed stages that fold hold, in peer order. Dense views fold as
/// floats, each element `((0.0 + p₀) + p₁) + …`; grid views fold as
/// `i64` on one grid and de-quantize once — straight into the sum when
/// the stripe has no dense survivor, folded in last when it has.
fn fold_stripes(model_len: usize, stages: &[Option<Stage>], scratch: &mut FoldScratch) -> Vec<f64> {
    let mut sum = vec![0.0; model_len];
    let mut dense: Vec<&[f64]> = recycle(std::mem::take(&mut scratch.dense));
    let mut grids: Vec<(&[f64], u8)> = recycle(std::mem::take(&mut scratch.grids));
    let (acc, total) = (&mut scratch.acc, &mut scratch.total);
    for (k, out) in sum.chunks_mut(CHUNK_WORDS).enumerate() {
        dense.clear();
        grids.clear();
        let survivors = stages.iter().flatten().filter(|stage| stage.folds());
        for chunk in survivors.filter_map(|stage| stage.stripes[k].as_ref()) {
            match chunk.layout {
                Layout::Dense => dense.push(&chunk.data[..]),
                // Parsed again, as on arrival: the words are shared, not ours.
                Layout::Grid => grids.extend(
                    chunk.grid_header().ok().map(|(scale_exp, _)| (&chunk.data[1..], scale_exp)),
                ),
            }
        }
        fold::fold_parts(out, &dense);
        if grids.is_empty() {
            continue;
        }
        acc.resize(out.len(), 0);
        let scale_exp = fold::fold_grid_stripe(acc, &grids);
        if dense.is_empty() {
            dequantize_sum(scale_exp, acc, out);
        } else {
            total.resize(out.len(), 0.0);
            dequantize_sum(scale_exp, acc, total);
            fold::fold_parts(out, &[total]);
        }
    }
    (scratch.dense, scratch.grids) = (recycle(dense), recycle(grids));
    sum
}

impl Default for SigmaAggregator {
    fn default() -> Self {
        Self::new(4, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::model_checksum;
    use crossbeam::channel;
    use proptest::prelude::*;

    impl SigmaAggregator {
        /// First word of a stream whose staging
        /// [`SigmaAggregator::tripwired`] panics.
        pub(crate) const TRIPWIRE: f64 = 6.02e23;

        /// Plants a panic in the staging of any peer whose stream starts
        /// with [`SigmaAggregator::TRIPWIRE`] — once that first chunk
        /// has staged, so the stage holds something when it unwinds.
        pub(crate) fn tripwired(mut self) -> Self {
            self.push = |stage, chunk| {
                let trip = chunk.offset == 0 && chunk.data.first() == Some(&Self::TRIPWIRE);
                stage.push(chunk);
                assert!(!trip, "planted panic");
            };
            self
        }
    }

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
        let sum = sigma.aggregate_validated(len, incoming).sum;
        for (i, v) in sum.iter().enumerate() {
            let expect: f64 = (0..peers).map(|p| (i + p) as f64).sum();
            assert_eq!(*v, expect, "element {i}");
        }
    }

    #[test]
    fn empty_connection_list_yields_zeros() {
        let sigma = SigmaAggregator::default();
        assert_eq!(sigma.aggregate_validated(5, vec![]).sum, vec![0.0; 5]);
    }

    #[test]
    fn sixteen_peers_stage_in_turn_on_the_caller() {
        // 16 peers × 16 chunks, staged on the calling thread: each
        // queue is drained to its end while the other fifteen wait
        // their turn, and every stream counts as one job.
        let sigma = SigmaAggregator::new(1, 1);
        let len = 16 * CHUNK_WORDS;
        let models: Vec<Vec<f64>> = (0..16).map(|p| partial(len, p, 1.0 + p as f64)).collect();
        let out = sigma.aggregate_validated(len, models.iter().cloned().map(send_model).collect());
        assert!(out.quarantined.is_empty());
        let mut expect = vec![0.0; len];
        fold::fold_parts_reference(
            &mut expect,
            &models.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        assert_eq!(bits(&out.sum), bits(&expect));
        assert_eq!(sigma.jobs_submitted(), 16);
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
            assert_eq!(sigma.aggregate_validated(10, incoming).sum, vec![iter as f64; 10]);
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
        // every build profile, not an overflow panic while staging.
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
    fn a_chunk_longer_than_its_stripe_quarantines_its_peer() {
        // Inside the model, but five words into the next stripe: folding
        // its first stripe's worth would drop the rest without a verdict.
        let sigma = SigmaAggregator::new(2, 2);
        let long = Chunk::new(0, vec![1.0; CHUNK_WORDS + 5]);
        let next = Chunk::new(CHUNK_WORDS, vec![2.0; CHUNK_WORDS]);
        let out = sigma.aggregate_validated(2 * CHUNK_WORDS, vec![send_chunks([long, next])]);
        assert_eq!(
            out.quarantined,
            vec![(0, ChunkFault::Overrun { offset: 0, len: CHUNK_WORDS + 5 })]
        );
        assert_eq!(out.sum, vec![0.0; 2 * CHUNK_WORDS]);
    }

    #[test]
    fn a_pass_leaves_its_tables_and_no_view() {
        // The second pass stages into the first one's tables; neither
        // keeps a view of what it folded, so each sender's arena is
        // held by the sender's own views alone once the pass returns.
        let sigma = SigmaAggregator::new(2, 2);
        let len = 2 * CHUNK_WORDS + 3;
        for round in 0..2 {
            let chunks: Vec<Vec<Chunk>> =
                (0..3).map(|p| chunk_vector(&partial(len, p + round, 1.0))).collect();
            let out =
                sigma.aggregate_validated(len, chunks.iter().cloned().map(send_chunks).collect());
            assert!(out.quarantined.is_empty());
            let spares = sigma.spares.lock();
            assert_eq!((spares.stages.len(), spares.slots.capacity() >= 3), (3, true));
            assert!(spares.stages.iter().all(|stage| stage.stripes.is_empty()));
            drop(spares);
            for stream in &chunks {
                assert_eq!(stream[0].data.holders(), stream.len(), "the sender's views alone");
            }
        }
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
    fn each_peer_stream_costs_one_job() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = 2 * CHUNK_WORDS;
        let incoming = vec![send_model(vec![1.0; len]), send_model(vec![2.0; len])];
        let _ = sigma.aggregate_validated(len, incoming);
        assert_eq!(sigma.jobs_submitted(), 2);
        let _ = sigma.aggregate_validated(len, vec![send_model(vec![3.0; len])]);
        assert_eq!(sigma.jobs_submitted(), 3);
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
        assert_eq!(bits(&out.sum), bits(&expect), "grid-point payloads sum exactly");
        // Off the grid, it is what a sender's own quantization gives.
        let off: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
        let fixed = sigma.aggregate_fixed(len, vec![send_model(off.clone()), send_model(a)], 20);
        let sent = sigma.aggregate_validated(len, vec![send_grid(&off, 20), send_grid(&b, 20)]);
        assert_ne!(bits(&fixed.sum), bits(&sent.sum));
        let fixed = sigma.aggregate_fixed(len, vec![send_model(off.clone()), send_model(b)], 20);
        assert_eq!(bits(&fixed.sum), bits(&sent.sum));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn send_chunks(chunks: impl IntoIterator<Item = Chunk>) -> Receiver<Chunk> {
        let (tx, rx) = channel::unbounded();
        for chunk in chunks {
            tx.send(chunk).unwrap();
        }
        rx
    }

    fn send_grid(model: &[f64], frac_bits: u8) -> Receiver<Chunk> {
        send_chunks(grid_chunks(model, frac_bits).0)
    }

    /// A grid chunk over `words`, sealed as a sender would have.
    fn resealed(offset: usize, words: Vec<f64>) -> Chunk {
        let checksum = Chunk::grid_checksum_of(offset, &words);
        Chunk::with_checksum(offset, words, checksum, Layout::Grid)
    }

    /// A seeded partial of magnitude ~`scale`, off every grid.
    fn partial(len: usize, peer: usize, scale: f64) -> Vec<f64> {
        (0..len).map(|i| ((i * 31 + peer * 7) % 997) as f64 / 997.0 * scale - scale / 3.0).collect()
    }

    /// The float-valued oracle of a fixed-point round: each partial
    /// through `WireRepr::transform`, folded in floats.
    fn transform_fold(len: usize, parts: &[&[f64]], frac_bits: u8) -> Vec<u64> {
        let repr = cosmic_collectives::codec::WireRepr::FixedPoint { frac_bits };
        let decoded: Vec<Vec<f64>> = parts.iter().map(|p| repr.transform(p).0).collect();
        let slices: Vec<&[f64]> = decoded.iter().map(Vec::as_slice).collect();
        let mut sum = vec![0.0; len];
        fold::fold_parts_reference(&mut sum, &slices);
        bits(&sum)
    }

    #[test]
    fn grid_chunks_quantize_once_and_carry_the_codec_layout() {
        let len = CHUNK_WORDS + 5; // a full stripe and a ragged, odd one
        let model = partial(len, 1, 3.0);
        let (chunks, clipped) = grid_chunks(&model, 20);
        assert_eq!((chunks.len(), clipped), (2, 0));
        // Stripe for stripe the bytes are the codec's own encoding of
        // the stripe at the partial's scale.
        let scale_exp = derive_scale(&model, 20);
        for (chunk, stripe) in chunks.iter().zip(model.chunks(CHUNK_WORDS)) {
            assert_eq!(chunk.layout, Layout::Grid);
            assert_eq!(chunk.grid_header(), Ok((scale_exp, stripe.len())));

            assert!(chunk.is_intact());
            assert!(chunk.data.shares_allocation(&chunks[0].data), "one arena");
            let mut grid = vec![0; stripe.len()];
            cosmic_collectives::codec::quantize_into(stripe, scale_exp, &mut grid);
            let mut expect = vec![scale_exp, 0, 0, 0];
            expect.extend((stripe.len() as u32).to_le_bytes());
            expect.extend(grid.iter().flat_map(|q| q.to_le_bytes()));
            let carried: Vec<u8> =
                chunk.data.iter().flat_map(|w| w.to_bits().to_le_bytes()).collect();
            assert_eq!(carried[..expect.len()], expect[..]);
            assert!(carried[expect.len()..].iter().all(|&b| b == 0), "zero padding");
        }
        // Saturation is counted where it happens.
        assert_eq!(grid_chunks(&[f64::NAN, 1e300, 0.5], 24).1, 2);
        assert!(grid_chunks(&[], 20).0.is_empty());
    }

    #[test]
    fn chunks_compare_by_bits() {
        // −1 in the high half of a packed word spells a NaN.
        let grid = grid_chunks(&[0.0, -1.0 / 1024.0], 10).0.remove(0);
        assert!(grid.data[1].is_nan());
        assert_eq!(grid, grid.clone());
        let nan = Chunk::new(0, vec![f64::NAN, 1.0]);
        assert_eq!(nan, nan.clone());
        assert_ne!(Chunk::new(0, vec![0.0]), Chunk::new(0, vec![-0.0]));
        // The same words under the other layout are another chunk, with
        // another sum.
        let dense = Chunk::new(0, grid.data.clone());
        assert_ne!(dense, grid);
        assert_ne!(dense.checksum, grid.checksum);
    }

    #[test]
    fn grid_streams_fold_to_the_integer_sum_of_the_survivors() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = 2 * CHUNK_WORDS + 17;
        let models: Vec<Vec<f64>> = (0..4).map(|p| partial(len, p, 2.0)).collect();
        let fold_of = |survivors: &[usize]| {
            let parts: Vec<&[f64]> = survivors.iter().map(|&p| models[p].as_slice()).collect();
            transform_fold(len, &parts, 20)
        };
        let healthy =
            sigma.aggregate_validated(len, models.iter().map(|m| send_grid(m, 20)).collect());
        assert!(healthy.quarantined.is_empty());
        assert_eq!(bits(&healthy.sum), fold_of(&[0, 1, 2, 3]));

        // Quarantining peer k — by any verdict — leaves exactly the
        // integer sum of the rest; duplicates are dropped, not summed.
        type Bend = fn(Vec<Chunk>) -> Vec<Chunk>;
        let cases: [(Bend, ChunkFault); 9] = [
            (
                |mut c| {
                    c[1] = c[1].clone().corrupted();
                    c
                },
                ChunkFault::Corrupt { offset: CHUNK_WORDS },
            ),
            (
                |mut c| {
                    c[1].offset += 1;
                    c
                },
                ChunkFault::Misaligned { offset: CHUNK_WORDS + 1 },
            ),
            (
                |mut c| {
                    c[2].offset += CHUNK_WORDS;
                    c
                },
                ChunkFault::Overrun { offset: 3 * CHUNK_WORDS, len: 17 },
            ),
            (
                |mut c| {
                    c.remove(1);
                    c
                },
                ChunkFault::Incomplete { missing: CHUNK_WORDS },
            ),
            (
                // A ragged chunk where a full stripe belongs.
                |mut c| {
                    c[0] = resealed(0, c[2].data.to_vec());
                    c
                },
                ChunkFault::Incomplete { missing: 17 },
            ),
            (
                // A header claiming one word more than a stripe holds:
                // refused unread, as a dense chunk that long is.
                |mut c| {
                    let mut words = c[0].data.to_vec();
                    words[0] = f64::from_bits(words[0].to_bits() + (1 << 32));
                    c[0] = resealed(0, words);
                    c
                },
                ChunkFault::Overrun { offset: 0, len: CHUNK_WORDS + 1 },
            ),
            (
                // A header claiming two words fewer than are packed under it.
                |mut c| {
                    let mut words = c[0].data.to_vec();
                    words[0] = f64::from_bits(words[0].to_bits() - (2 << 32));
                    c[0] = resealed(0, words);
                    c
                },
                ChunkFault::Corrupt { offset: 0 },
            ),
            (
                // A scale exponent the codec cannot have written.
                |mut c| {
                    let mut words = c[2].data.to_vec();
                    words[0] = f64::from_bits(words[0].to_bits() | 0xFF);
                    c[2] = resealed(c[2].offset, words);
                    c
                },
                ChunkFault::Corrupt { offset: 2 * CHUNK_WORDS },
            ),
            (
                // The stream turns dense half-way.
                |mut c| {
                    c[1] = Chunk::new(CHUNK_WORDS, vec![1.0; CHUNK_WORDS]);
                    c
                },
                ChunkFault::Corrupt { offset: CHUNK_WORDS },
            ),
        ];
        for (k, (bend, verdict)) in cases.into_iter().enumerate() {
            let k = k % models.len();
            let incoming = models
                .iter()
                .enumerate()
                .map(|(p, m)| {
                    let mut chunks = grid_chunks(m, 20).0;
                    chunks.push(chunks[0].clone()); // a duplicate, late
                    send_chunks(if p == k { bend(chunks) } else { chunks })
                })
                .collect();
            let out = sigma.aggregate_validated(len, incoming);
            assert_eq!(out.quarantined, vec![(k, verdict)]);
            let rest: Vec<usize> = (0..models.len()).filter(|&p| p != k).collect();
            assert_eq!(bits(&out.sum), fold_of(&rest), "{verdict}");
            assert!(out.duplicates_dropped >= rest.len());
        }
    }

    #[test]
    fn peers_on_different_grids_share_a_stripe() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = CHUNK_WORDS + 9;
        // Magnitudes ~1, ~5000 and ~3e6 derive scale exponents 20, 19
        // and 10 under `fixed_point:20`: three grids in every stripe,
        // aligned by shift, and still the float fold's bits (sums stay
        // far below 2^53 quanta of the finest grid).
        let models = [partial(len, 0, 1.0), partial(len, 1, 5.0e3), partial(len, 2, 3.0e6)];
        let exps: Vec<u8> = models.iter().map(|m| derive_scale(m, 20)).collect();
        assert_eq!(exps, [20, 19, 10]);
        let parts: Vec<&[f64]> = models.iter().map(Vec::as_slice).collect();
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let incoming = order.iter().map(|&p| send_grid(&models[p], 20)).collect();
            let out = sigma.aggregate_validated(len, incoming);
            assert_eq!(bits(&out.sum), transform_fold(len, &parts, 20), "{order:?}");
        }
        // A dense peer among grid peers: floats first, grid total last.
        let incoming = vec![send_grid(&models[0], 20), send_model(models[1].clone())];
        let out = sigma.aggregate_validated(len, incoming);
        let (grid, _) =
            cosmic_collectives::codec::WireRepr::FixedPoint { frac_bits: 20 }.transform(&models[0]);
        let mut expect = vec![0.0; len];
        fold::fold_parts_reference(&mut expect, &[&models[1], &grid]);
        assert_eq!(bits(&out.sum), bits(&expect));
    }

    #[test]
    fn sigma_holds_the_views_it_was_handed_not_copies() {
        let len = 2 * CHUNK_WORDS + 17;
        let model = partial(len, 0, 1.0);
        for chunks in [chunk_vector(&model), grid_chunks(&model, 20).0] {
            let mut stage = Stage::default();
            stage.reset(len, None);
            chunks.iter().rev().cloned().for_each(|chunk| stage.push(chunk));
            assert_eq!(stage.close(), None);
            assert!(stage.folds(), "something arrived");
            for (held, sent) in stage.stripes.iter().zip(&chunks) {
                let held = held.as_ref().expect("every stripe covered");
                assert_eq!(held, sent, "as delivered");
                assert!(held.data.shares_allocation(&sent.data), "a view, not a copy");
            }
        }
    }

    #[test]
    fn aggregate_fixed_reproduces_the_pinned_sums_and_judges_layout_as_delivered() {
        let sigma = SigmaAggregator::new(2, 2);
        let len = 2 * CHUNK_WORDS + 17;
        // Printed by the implementation that quantized into a per-peer
        // `i32` staging buffer, before chunk views replaced it; the
        // middle case saturates.
        for (scale_exp, scale, pinned) in [
            (10u8, 2.0, 0x3aed_a896_6b2e_e5db_u64),
            (20, 5.0e3, 0xbd43_65da_98b3_e236),
            (24, 1.0, 0x654b_2688_f7bc_dbf1),
        ] {
            let incoming = (0..3).map(|p| send_model(partial(len, p, scale))).collect();
            let out = sigma.aggregate_fixed(len, incoming, scale_exp);
            assert!(out.quarantined.is_empty());
            assert_eq!(model_checksum(&out.sum), pinned, "scale_exp {scale_exp}");
        }
        // One grid chunk among dense ones is a changed layout here as in
        // `aggregate_validated`, whatever the dense ones are turned into.
        let mut mixed = chunk_vector(&partial(len, 1, 2.0));
        mixed[1] = grid_chunks(&partial(len, 1, 2.0), 20).0.remove(1);
        let alone = sigma.aggregate_fixed(len, vec![send_model(partial(len, 0, 2.0))], 20);
        let incoming = vec![send_model(partial(len, 0, 2.0)), send_chunks(mixed)];
        let out = sigma.aggregate_fixed(len, incoming, 20);
        assert_eq!(out.quarantined, vec![(1, ChunkFault::Corrupt { offset: CHUNK_WORDS })]);
        assert_eq!(bits(&out.sum), bits(&alone.sum));
    }

    /// The digest a chunk's checksum covers, recomputed from its words.
    fn digest_recomputed(chunk: &Chunk) -> u64 {
        match (chunk.layout, chunk.data.split_first()) {
            (Layout::Dense, _) => payload_digest(&chunk.data),
            (Layout::Grid, Some((_, packed))) => payload_digest(packed),
            (Layout::Grid, None) => payload_digest(&[]),
        }
    }

    /// The checksum check that reads every word.
    fn intact_recomputed(chunk: &Chunk) -> bool {
        chunk.checksum
            == match chunk.layout {
                Layout::Dense => Chunk::checksum_of(chunk.offset, &chunk.data),
                Layout::Grid => Chunk::grid_checksum_of(chunk.offset, &chunk.data),
            }
    }

    #[test]
    fn every_chunk_carries_the_digest_of_its_own_words() {
        use crate::transport::wire::{read_frame, Frame, FrameKind};
        use cosmic_collectives::codec::WireRepr;
        let len = 2 * CHUNK_WORDS + 37;
        let model = partial(len, 3, 2.0);
        let lent = WordBuf::from_vec(model.clone());
        let mut chunks = vec![
            Chunk::new(64, vec![1.0, -0.0, f64::NAN]),
            Chunk::with_checksum(0, vec![1.0, 2.0], 7, Layout::Dense),
        ];
        chunks.extend(chunk_vector(&model));
        chunks.extend(chunk_views(&lent));
        chunks.extend(grid_chunks(&model, 20).0);
        let damaged: Vec<Chunk> = chunks.iter().cloned().map(Chunk::corrupted).collect();
        chunks.extend(damaged);
        // Off the wire: every chunk as each wire frames it, read back.
        let reprs =
            [WireRepr::DenseF64, WireRepr::FixedPoint { frac_bits: 20 }, WireRepr::TopK { k: 9 }];
        let mut wired = Vec::new();
        for (chunk, repr) in chunks.iter().flat_map(|c| reprs.map(|r| (c, r))) {
            let mut buf = Vec::new();
            Frame::write_chunk(&mut buf, 1, 2, chunk, repr);
            let (frame, digest) = read_frame(&mut &buf[..], &mut Vec::new()).expect("well formed");
            wired.push(match frame.kind {
                FrameKind::Chunk => {
                    assert_eq!(frame.to_chunk(), *chunk);
                    frame.into_chunk(digest)
                }
                _ => frame.decode_encoded_chunk().expect("decodable"),
            });
        }
        chunks.extend(wired);
        // A grid with no header word, which no wire carries.
        let bare = Chunk::with_checksum(0, vec![], Chunk::grid_checksum_of(0, &[]), Layout::Grid);
        chunks.extend([bare.clone(), bare.corrupted()]);
        for chunk in &chunks {
            assert_eq!(chunk.digest, digest_recomputed(chunk), "{chunk:?}");
            assert_eq!(chunk.is_intact(), intact_recomputed(chunk), "{chunk:?}");
        }
        let verdicts: Vec<bool> = chunks.iter().map(Chunk::is_intact).collect();
        assert!(verdicts.contains(&true) && verdicts.contains(&false));
    }

    #[test]
    fn a_lent_arena_is_viewed_not_copied() {
        let lent = WordBuf::from_vec(partial(2 * CHUNK_WORDS + 5, 1, 1.0));
        let chunks = chunk_views(&lent);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|chunk| chunk.data.shares_allocation(&lent)));
        assert_eq!(lent.holders(), 4);
        drop(chunks);
        assert_eq!(lent.holders(), 1, "no view outlives its chunk");
    }

    proptest! {
        /// The carried-digest check gives the full check's verdict on any
        /// chunk, its checksum true, stale, or either layout's.
        #[test]
        fn the_carried_digest_check_is_the_full_check(
            words in prop::collection::vec(any::<u64>(), 0..12),
            offset in 0usize..3 * CHUNK_WORDS,
            grid in any::<bool>(),
            sum in 0u8..4,
            stale in any::<u64>(),
        ) {
            let data: Vec<f64> = words.into_iter().map(f64::from_bits).collect();
            let checksum = match sum {
                0 => Chunk::checksum_of(offset, &data),
                1 => Chunk::grid_checksum_of(offset, &data),
                2 => Chunk::checksum_of(offset ^ 1, &data),
                _ => stale,
            };
            let layout = if grid { Layout::Grid } else { Layout::Dense };
            let chunk = Chunk::with_checksum(offset, data, checksum, layout);
            prop_assert_eq!(chunk.digest, digest_recomputed(&chunk));
            prop_assert_eq!(chunk.is_intact(), intact_recomputed(&chunk));
            prop_assert_eq!(chunk.clone().corrupted().is_intact(), false);
        }
    }

    proptest! {
        /// Sigma folds after the barrier from per-stripe slots, so what
        /// order a peer's chunks arrive in, and how many arrive twice,
        /// moves no bit, count or verdict — dense or grid.
        #[test]
        fn arrival_order_and_duplicates_move_nothing(
            peers in 2usize..5,
            stripes in 1usize..4,
            tail in 1usize..9,
            bad in any::<u32>(),
            entropy in any::<u64>(),
        ) {
            let len = (stripes - 1) * CHUNK_WORDS + tail;
            let bad = bad as usize % (peers + 1); // `peers`: nobody
            let models: Vec<Vec<f64>> =
                (0..peers).map(|p| partial(len, p, 2.0 + p as f64)).collect();
            let mut state = entropy | 1;
            let mut draw = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            let sigma = SigmaAggregator::new(2, 2);
            for frac_bits in [None, Some(20)] {
                let mut duplicates = 0;
                let mut streams = |scramble: bool| -> Vec<Receiver<Chunk>> {
                    let stream = |(p, model): (usize, &Vec<f64>)| {
                        let mut chunks =
                            frac_bits.map_or_else(|| chunk_vector(model), |f| grid_chunks(model, f).0);
                        if p == bad {
                            chunks[stripes - 1] = chunks[stripes - 1].clone().corrupted();
                        } else if scramble {
                            for _ in 0..draw(3) {
                                chunks.push(chunks[draw(stripes)].clone());
                                duplicates += 1;
                            }
                        }
                        for i in (1..chunks.len()).filter(|_| scramble).rev() {
                            chunks.swap(i, draw(i + 1));
                        }
                        send_chunks(chunks)
                    };
                    models.iter().enumerate().map(stream).collect()
                };
                let in_order = sigma.aggregate_validated(len, streams(false));
                let scrambled = sigma.aggregate_validated(len, streams(true));
                prop_assert_eq!(in_order.quarantined.len(), usize::from(bad < peers));
                prop_assert_eq!(&scrambled.quarantined, &in_order.quarantined);
                prop_assert_eq!(bits(&scrambled.sum), bits(&in_order.sum));
                prop_assert_eq!((in_order.duplicates_dropped, scrambled.duplicates_dropped), (0, duplicates));
            }
        }
    }

    #[test]
    fn quarantined_peer_stream_is_fully_drained() {
        // A long stream that goes bad on its first chunk is still read to
        // its end: nothing is left queued once the pass returns.
        let sigma = SigmaAggregator::new(1, 1);
        let len = 16 * CHUNK_WORDS;
        let (tx, rx) = channel::unbounded();
        for (i, chunk) in chunk_vector(&vec![1.0; len]).into_iter().enumerate() {
            tx.send(if i == 0 { chunk.corrupted() } else { chunk }).unwrap();
        }
        drop(tx);
        let out = sigma.aggregate_validated(len, vec![rx.clone()]);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.sum, vec![0.0; len]);
        assert!(rx.is_empty());
    }
}

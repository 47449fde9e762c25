//! The length-prefixed, checksummed wire format every real transport
//! speaks: a 37-byte header, a payload of little-endian f64 bit
//! patterns, and a trailing checksum — FNV-1a over the header, then the
//! payload's `payload_digest` (`cosmic_collectives::hash`):
//!
//! ```text
//! magic:u32 | kind:u8 | node:u32 | iteration:u64 | a:u64 | b:u64 |
//! len:u32 | payload: len × f64-LE-bits | checksum:u64
//! ```
//!
//! `a` and `b` are kind-specific operands (a chunk frame's word offset,
//! and its chunk's own checksum, verbatim). Each format has one writer
//! and one reader, [`FrameReader`], and decoding never panics: every
//! malformed input is a typed [`WireError`], the header checked before
//! anything is allocated for the payload.

use std::error::Error;
use std::fmt;

use cosmic_collectives::codec::{
    exact_len, grid_bytes, read_grid, read_sparse, write_sparse, CodecError, WireRepr, FIXED_TAG,
    SPARSE_TAG,
};
use cosmic_collectives::{decode_with_digest, encode_parts_with_digest, Fnv1a};

use crate::buffer::WordBuf;
use crate::layout::CHUNK_WORDS;
use crate::node::{Chunk, Layout};

/// Frame magic: `"COSM"` as a big-endian u32.
pub(crate) const MAGIC: u32 = 0x434F_534D;

/// Header bytes before the payload: magic(4) kind(1) node(4)
/// iteration(8) a(8) b(8) len(4).
pub const HEADER_BYTES: usize = 37;

/// Trailing checksum bytes.
pub const CHECKSUM_BYTES: usize = 8;

/// Ceiling on a [`FrameKind::Model`] or [`FrameKind::Snapshot`] frame's
/// payload words (64 MiB); every other kind's is tighter.
pub(crate) const MAX_PAYLOAD_WORDS: u32 = 1 << 23;

/// What a frame means to the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Opens a connection: `a` is 1 for a rejoin/catch-up handshake,
    /// 0 for a normal round stream.
    Hello = 1,
    /// One model chunk of at most [`CHUNK_WORDS`] words: `a` is the
    /// word offset, `b` the chunk's own checksum (carried verbatim).
    Chunk = 2,
    /// Liveness beacon feeding the φ-accrual detector.
    Heartbeat = 3,
    /// Closes a round stream: `b` is the sender's record count (the
    /// contribution weight).
    Done = 4,
    /// Aggregated update broadcast: `b` is the active total.
    Model = 5,
    /// Checkpoint catch-up payload for a joining peer: `a` is the
    /// iteration to resume at.
    Snapshot = 6,
    /// Positive acknowledgement; `b` carries a model checksum when the
    /// protocol step verifies bit-identity.
    Ack = 7,
    /// Orderly teardown.
    Shutdown = 8,
    /// One model chunk travelling in an encoded wire representation:
    /// `a` is the word offset, `b` packs the codec tag (bits 32..40)
    /// above the codec byte length (bits 0..32). Payload word 0 is the
    /// staged chunk's own checksum — verbatim, so Sigma-level
    /// validation survives the wire — followed by the codec's words: a
    /// grid chunk's own, or a sparse chunk's non-zero coordinates.
    Encoded = 9,
}

impl FrameKind {
    fn from_u8(raw: u8) -> Result<Self, WireError> {
        use FrameKind::*;
        let kinds = [Hello, Chunk, Heartbeat, Done, Model, Snapshot, Ack, Shutdown, Encoded];
        let kind = kinds.get(usize::from(raw).wrapping_sub(1)).copied();
        kind.ok_or(WireError::BadKind { found: raw })
    }

    /// The most payload words a frame of this kind may advertise: none
    /// for a control frame, a stripe for a chunk, one stripe's
    /// worst-case codec bytes (top-k keeping every word) behind the
    /// checksum word for an encoded chunk, [`MAX_PAYLOAD_WORDS`] for a
    /// model or snapshot.
    fn max_payload_words(self) -> u32 {
        match self {
            FrameKind::Hello
            | FrameKind::Heartbeat
            | FrameKind::Done
            | FrameKind::Ack
            | FrameKind::Shutdown => 0,
            FrameKind::Chunk => CHUNK_WORDS as u32,
            FrameKind::Encoded => {
                let codec = WireRepr::TopK { k: CHUNK_WORDS }.payload_bytes(CHUNK_WORDS);
                1 + codec.div_ceil(8) as u32
            }
            FrameKind::Model | FrameKind::Snapshot => MAX_PAYLOAD_WORDS,
        }
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// The sending node's id.
    pub node: u32,
    /// The aggregation iteration the frame belongs to.
    pub iteration: u64,
    /// First kind-specific operand (chunk offset, resume iteration, …).
    pub a: u64,
    /// Second kind-specific operand (chunk checksum, record count, …).
    pub b: u64,
    /// f64 payload (chunk data, model words); empty for control frames.
    /// A shared `WordBuf` view: wrapping a chunk or unwrapping a
    /// received frame is a refcount bump, never a word copy.
    pub payload: WordBuf,
}

impl Frame {
    /// A control frame (empty payload).
    pub fn control(kind: FrameKind, node: u32, iteration: u64, a: u64, b: u64) -> Self {
        Frame { kind, node, iteration, a, b, payload: WordBuf::empty() }
    }

    /// Wraps a model chunk, carrying its own checksum verbatim so
    /// Sigma-side validation sees exactly what the sender staged. The
    /// payload shares the chunk's allocation (zero-copy).
    pub fn chunk(node: u32, iteration: u64, chunk: &Chunk) -> Self {
        Frame {
            kind: FrameKind::Chunk,
            node,
            iteration,
            a: chunk.offset as u64,
            b: chunk.checksum,
            payload: chunk.data.clone(),
        }
    }

    /// The staged [`Chunk`] a chunk frame carries, sharing its payload;
    /// a stale checksum travels unchanged, Sigma's business.
    pub fn to_chunk(&self) -> Chunk {
        Chunk::with_checksum(self.a as usize, self.payload.clone(), self.b, Layout::Dense)
    }

    /// [`Frame::to_chunk`], consuming the frame whose payload digests to
    /// `digest` (as [`FrameReader::next_frame`] returns it): the payload
    /// moves into the chunk, with no second pass.
    pub(crate) fn into_chunk(self, digest: u64) -> Chunk {
        Chunk {
            offset: self.a as usize,
            data: self.payload,
            checksum: self.b,
            layout: Layout::Dense,
            digest,
        }
    }

    /// Appends `chunk`'s frame, as a link on a `repr` wire sends it, to
    /// `out`: on a dense wire a dense chunk's words, whose digest it
    /// carries; a [`Layout::Grid`] chunk's codec words as they stand,
    /// behind its checksum word, in a [`FrameKind::Encoded`] frame; a
    /// dense chunk on any other wire as the coordinates of its non-zeros.
    pub fn write_chunk(
        out: &mut Vec<u8>,
        node: u32,
        iteration: u64,
        chunk: &Chunk,
        repr: WireRepr,
    ) {
        let (a, checksum) = (chunk.offset as u64, chunk.checksum);
        match (chunk.layout, repr) {
            (Layout::Dense, WireRepr::DenseF64) => {
                let head = Frame::control(FrameKind::Chunk, node, iteration, a, checksum);
                write_frame(out, &head, [&chunk.data, &[]], Some(chunk.digest));
            }
            (Layout::Grid, _) => {
                let words = chunk.grid_header().map_or(0, |(_, words)| words);
                let b = (u64::from(FIXED_TAG) << 32) | grid_bytes(words) as u64;
                let head = Frame::control(FrameKind::Encoded, node, iteration, a, b);
                write_frame(out, &head, [&[f64::from_bits(checksum)], &chunk.data], None);
            }
            (Layout::Dense, _) => Frame::sparse_chunk(node, iteration, chunk).write_into(out),
        }
    }

    /// Wraps a dense chunk as an [`FrameKind::Encoded`] frame of the
    /// coordinate list of every non-zero word (a sparsified chunk's, so
    /// the receiver gets it back bit for bit): payload word 0 is the
    /// chunk's own checksum, verbatim, then the codec's words.
    fn sparse_chunk(node: u32, iteration: u64, chunk: &Chunk) -> Self {
        let nonzero = chunk.data.iter().enumerate().filter(|(_, v)| v.to_bits() != 0);
        let coords = nonzero.map(|(i, &v)| (i as u32, v));
        let mut payload = Vec::with_capacity(1 + chunk.data.len());
        payload.push(f64::from_bits(chunk.checksum));
        let b = (u64::from(SPARSE_TAG) << 32)
            | write_sparse(chunk.data.len(), coords, &mut payload) as u64;
        let head = Frame::control(FrameKind::Encoded, node, iteration, chunk.offset as u64, b);
        Frame { payload: WordBuf::from_vec(payload), ..head }
    }

    /// The staged [`Chunk`] an [`FrameKind::Encoded`] frame carries, its
    /// checksum verbatim: a grid, held to the frame's byte length, as a
    /// view of the payload, or a coordinate list read into a dense chunk.
    /// A declared length beyond [`CHUNK_WORDS`] is
    /// [`WireError::Oversized`] before any allocation; every other
    /// malformation is [`WireError::Protocol`].
    pub fn decode_encoded_chunk(&self) -> Result<Chunk, WireError> {
        if self.kind != FrameKind::Encoded {
            return Err(WireError::Protocol {
                detail: format!("decode_encoded_chunk on a {:?} frame", self.kind),
            });
        }
        let len = (self.b & 0xFFFF_FFFF) as usize;
        let tag = ((self.b >> 32) & 0xFF) as u8;
        let needed = 1 + len.div_ceil(8);
        if self.payload.len() != needed {
            return Err(WireError::Truncated { needed, got: self.payload.len() });
        }
        let (offset, checksum) = (self.a as usize, self.payload[0].to_bits());
        let data = self.payload.slice(1, needed - 1);
        let refused = |err| match err {
            CodecError::Oversized { words, .. } => {
                WireError::Oversized { words: u32::try_from(words).unwrap_or(u32::MAX) }
            }
            err => WireError::Protocol { detail: format!("encoded chunk: {err}") },
        };
        let (data, layout) = match tag {
            FIXED_TAG => {
                let (_, words) = read_grid(&data, CHUNK_WORDS).map_err(refused)?;
                exact_len(grid_bytes(words), len).map_err(refused)?;
                (data, Layout::Grid)
            }
            SPARSE_TAG => {
                let dense = read_sparse(&data, len, CHUNK_WORDS).map_err(refused)?;
                (WordBuf::from_vec(dense), Layout::Dense)
            }
            tag => return Err(refused(CodecError::BadTag { tag })),
        };
        Ok(Chunk::with_checksum(offset, data, checksum, layout))
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + 8 * self.payload.len() + CHECKSUM_BYTES
    }

    /// Encodes the frame: header, payload, trailing checksum — the
    /// payload's bytes written and digested in one pass.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_into(&mut buf);
        buf
    }

    /// [`Frame::encode`], appending to `out`: a link writes every frame,
    /// replies included, through one buffer it keeps.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        write_frame(out, self, [&self.payload, &[]], None);
    }

    /// Decodes one frame from an exact buffer (no trailing bytes).
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        match parse(buf)? {
            (Some((frame, _)), len) if len == buf.len() => Ok(frame),
            (_, needed) => Err(WireError::Truncated { needed, got: buf.len() }),
        }
    }
}

/// The one frame writer: appends to `out` `head`'s header fields, the payload
/// — `words`' two slices, one after the other — and the trailing checksum,
/// `Fnv1a(header) ‖ payload_digest(payload)`. The payload's bytes are
/// written and, unless `digest` already holds its digest, digested in
/// the same pass.
fn write_frame(out: &mut Vec<u8>, head: &Frame, words: [&[f64]; 2], digest: Option<u64>) {
    let len = words[0].len() + words[1].len();
    out.reserve(HEADER_BYTES + 8 * len + CHECKSUM_BYTES);
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(head.kind as u8);
    out.extend_from_slice(&head.node.to_le_bytes());
    out.extend_from_slice(&head.iteration.to_le_bytes());
    out.extend_from_slice(&head.a.to_le_bytes());
    out.extend_from_slice(&head.b.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let mut sum = Fnv1a::default();
    sum.write_bytes(&out[start..]); // the header
    let digest = match digest {
        Some(digest) => {
            for part in words {
                let at = out.len();
                out.resize(at + 8 * part.len(), 0);
                for (le, word) in out[at..].chunks_exact_mut(8).zip(part.iter()) {
                    le.copy_from_slice(&word.to_bits().to_le_bytes());
                }
            }
            digest
        }
        None => encode_parts_with_digest(words[0], words[1], out),
    };
    sum.write_digest(digest);
    out.extend_from_slice(&sum.finish().to_le_bytes());
}

/// The resumable frame reader, which does no I/O: a driver reads bytes
/// straight into [`FrameReader::spare`] (or hands them over with
/// [`FrameReader::feed`]), and [`FrameReader::next_frame`] yields each
/// whole frame, however the bytes were cut, with the `payload_digest`
/// taken as its words were decoded. The buffer is kept, so once it has
/// grown to a frame, reading allocates only the payload.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Bytes a read asks for beyond the frame in progress, so one read
/// takes several small frames.
const READ_BYTES: usize = 8 * 1024;

impl FrameReader {
    /// Appends `bytes` to what is buffered.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let spare = self.spare();
            let n = spare.len().min(bytes.len());
            spare[..n].copy_from_slice(&bytes[..n]);
            self.filled(n);
            bytes = &bytes[n..];
        }
    }

    /// Room past the buffered bytes: what the frame in progress still
    /// needs (a minimal frame's length when none is), or `READ_BYTES`
    /// if that is less. A driver reads into it and reports the count
    /// with [`FrameReader::filled`].
    pub fn spare(&mut self) -> &mut [u8] {
        let buffered = &self.buf[self.start..self.end];
        let words = parse_header(buffered).ok().flatten().map_or(0, |(_, words)| words);
        let want = frame_bytes(words).saturating_sub(buffered.len()).max(READ_BYTES);
        if self.buf.len() - self.end < want {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            self.buf.resize(self.buf.len().max(self.end + want), 0);
        }
        &mut self.buf[self.end..self.end + want]
    }

    /// Counts `n` bytes read into [`FrameReader::spare`].
    pub fn filled(&mut self, n: usize) {
        self.end += n;
    }

    /// The next whole frame and its payload's digest, `None` until its
    /// last byte is buffered. A malformed frame is a typed error as soon
    /// as its bytes show it: a header, once its 37 bytes are in.
    pub fn next_frame(&mut self) -> Result<Option<(Frame, u64)>, WireError> {
        let (frame, len) = parse(&self.buf[self.start..self.end])?;
        if frame.is_some() {
            self.start += len;
            if self.start == self.end {
                (self.start, self.end) = (0, 0);
            }
        }
        Ok(frame)
    }

    /// Whether no byte of a next frame is buffered.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A frame's length in bytes, at `words` payload words.
fn frame_bytes(words: u32) -> usize {
    HEADER_BYTES + 8 * words as usize + CHECKSUM_BYTES
}

/// The one frame decoder: the frame at the head of `bytes` — once the
/// trailing checksum, FNV-1a over the header bytes then the digest of
/// the words decoded in the same pass, matches — with that digest, and
/// the frame's length as far as the bytes show it. No frame until all of
/// its bytes are in; the header is checked, and a malformed one refused,
/// before anything is allocated for the payload.
fn parse(bytes: &[u8]) -> Result<(Option<(Frame, u64)>, usize), WireError> {
    let Some((kind, words)) = parse_header(bytes)? else {
        return Ok((None, frame_bytes(0)));
    };
    let len = frame_bytes(words);
    if bytes.len() < len {
        return Ok((None, len));
    }
    let (header, rest) = bytes.split_at(HEADER_BYTES);
    let (body, sum) = rest.split_at(8 * words as usize);
    let mut payload = Vec::with_capacity(words as usize);
    let mut hash = Fnv1a::default();
    hash.write_bytes(header);
    let digest = decode_with_digest(body, &mut payload);
    hash.write_digest(digest);
    let (expected, found) = (hash.finish(), u64::from_le_bytes(le(sum, 0)));
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    let frame = Frame {
        kind,
        node: u32::from_le_bytes(le(header, 5)),
        iteration: u64::from_le_bytes(le(header, 9)),
        a: u64::from_le_bytes(le(header, 17)),
        b: u64::from_le_bytes(le(header, 25)),
        payload: WordBuf::from_vec(payload),
    };
    Ok((Some((frame, digest)), len))
}

/// The one header parser: once the 37 header bytes at the head of
/// `bytes` are in, validates magic, kind and payload length — against
/// the kind's cap, [`FrameKind::max_payload_words`] — returning the kind
/// and the word count, so a reader sizes its buffer from a checked
/// number.
fn parse_header(bytes: &[u8]) -> Result<Option<(FrameKind, u32)>, WireError> {
    let Some(header) = bytes.get(..HEADER_BYTES) else {
        return Ok(None);
    };
    let magic = u32::from_le_bytes(le(header, 0));
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let kind = FrameKind::from_u8(header[4])?;
    let words = u32::from_le_bytes(le(header, 33));
    if words > kind.max_payload_words() {
        return Err(WireError::Oversized { words });
    }
    Ok(Some((kind, words)))
}

/// The `N` bytes of `buf` at `at`.
fn le<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[at..at + N]);
    out
}

/// A typed wire-decoding failure. Malformed input is a value, never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer or stream ended before the frame did.
    Truncated {
        /// Bytes the frame needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes were not the frame magic.
    BadMagic {
        /// What was found instead.
        found: u32,
    },
    /// The kind byte named no known frame kind.
    BadKind {
        /// The unknown kind byte.
        found: u8,
    },
    /// The advertised payload length exceeds the frame kind's cap (none
    /// for a control frame, a stripe for a chunk, `MAX_PAYLOAD_WORDS`
    /// for a model), or an encoded chunk declares more than
    /// [`CHUNK_WORDS`] words.
    Oversized {
        /// The advertised word count.
        words: u32,
    },
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum recomputed over the received bytes.
        expected: u64,
        /// Checksum the frame carried.
        found: u64,
    },
    /// A well-formed frame arrived where the protocol did not allow
    /// its kind.
    Protocol {
        /// What arrived and what was expected.
        detail: String,
    },
    /// The underlying stream failed (closed, reset, or past its read
    /// deadline).
    Io {
        /// The I/O error's kind and message.
        detail: String,
    },
}

impl WireError {
    pub(super) fn from_io(err: std::io::Error) -> Self {
        WireError::Io { detail: format!("{}: {err}", err.kind()) }
    }

    /// Whether the failure was stream-level (I/O) rather than a
    /// malformed frame.
    pub fn is_io(&self) -> bool {
        matches!(self, WireError::Io { .. })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            WireError::BadKind { found } => write!(f, "unknown frame kind {found}"),
            WireError::Oversized { words } => {
                write!(f, "payload of {words} words exceeds the cap")
            }
            WireError::ChecksumMismatch { expected, found } => {
                write!(f, "frame checksum mismatch: expected {expected:#018x}, found {found:#018x}")
            }
            WireError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            WireError::Io { detail } => write!(f, "stream failure: {detail}"),
        }
    }
}

impl Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::grid_chunks;
    use cosmic_collectives::codec::WireRepr;

    /// `chunk` as a link on a `repr` wire sends it, decoded.
    fn sent(chunk: &Chunk, repr: WireRepr) -> Frame {
        let mut buf = Vec::new();
        Frame::write_chunk(&mut buf, 5, 11, chunk, repr);
        Frame::decode(&buf).expect("well formed")
    }

    #[test]
    fn chunk_wrapping_and_unwrapping_is_zero_copy() {
        let chunk = Chunk::new(0, vec![1.0; 64]);
        let frame = Frame::chunk(1, 2, &chunk);
        assert!(
            frame.payload.shares_allocation(&chunk.data),
            "wrapping a chunk must not copy its payload"
        );
        let viewed = frame.to_chunk();
        assert!(viewed.data.shares_allocation(&frame.payload));
        let moved = frame.into_chunk(chunk.digest);
        assert!(moved.data.shares_allocation(&chunk.data));
        assert_eq!(moved, chunk);
    }

    #[test]
    fn chunk_frames_preserve_a_stale_chunk_checksum() {
        let corrupt = Chunk::new(0, vec![1.0, 2.0]).corrupted();
        assert!(!corrupt.is_intact());
        let frame = Frame::chunk(0, 0, &corrupt);
        // The *frame* is well-formed (its own checksum covers the
        // damaged payload), but the carried chunk still fails
        // Sigma-side validation — exactly the CorruptChunk semantics.
        let back = Frame::decode(&frame.encode()).map(|f| f.to_chunk());
        assert_eq!(back, Ok(corrupt.clone()));
        assert!(!corrupt.is_intact());
    }

    #[test]
    fn encoded_chunk_frames_round_trip_under_every_repr() {
        let raw: Vec<f64> =
            (0..CHUNK_WORDS + 37).map(|i| ((i * 31 % 19) as f64 - 9.0) / 16.0).collect();
        // Fixed point: the grid chunk — a full stripe, then a ragged
        // one — is the frame's payload behind the checksum word, at
        // the size `payload_bytes` prices, and comes back as a view of
        // the received frame: nothing is re-derived or decoded on the
        // way.
        let repr = WireRepr::FixedPoint { frac_bits: 12 };
        for chunk in grid_chunks(&raw, 12).0 {
            let wired = sent(&chunk, repr);
            let codec_bytes = repr.payload_bytes(chunk.grid_header().expect("well formed").1);
            assert_eq!(wired.b, (u64::from(repr.tag()) << 32) | codec_bytes as u64);
            assert_eq!(wired.payload.len(), 1 + codec_bytes.div_ceil(8));
            assert_eq!(wired.payload[0].to_bits(), chunk.checksum);
            assert_eq!(wired.payload.slice(1, chunk.data.len()), chunk.data);
            let back = wired.decode_encoded_chunk().expect("a grid chunk");
            assert_eq!(back, chunk);
            assert!(back.is_intact() && back.data.shares_allocation(&wired.payload));
        }
        // Top-k: the sparsified chunk's coordinates, losslessly.
        let repr = WireRepr::TopK { k: 3 };
        let chunk = Chunk::new(4096, repr.transform(&raw[..37]).0);
        let back = sent(&chunk, repr).decode_encoded_chunk().expect("decodable");
        assert_eq!(back, chunk);
        assert!(back.is_intact());
    }

    #[test]
    fn encoded_frames_shrink_the_wire_for_compressed_reprs() {
        let raw = vec![1.0; 512];
        let dense = Frame::chunk(0, 0, &Chunk::new(0, raw.clone())).encoded_len();
        let repr = WireRepr::TopK { k: 4 };
        let sparse =
            Frame::sparse_chunk(0, 0, &Chunk::new(0, repr.transform(&raw).0)).encoded_len();
        assert!(sparse < dense / 4, "sparse frame {sparse} vs dense {dense}");
        let grid = sent(&grid_chunks(&raw, 20).0[0], WireRepr::FixedPoint { frac_bits: 20 });
        let grid = grid.encoded_len();
        assert_eq!(grid, HEADER_BYTES + 8 * (2 + 256) + CHECKSUM_BYTES);
    }

    #[test]
    fn encoded_frames_preserve_a_stale_chunk_checksum() {
        // Corrupt-injection damages the staged chunk before framing;
        // the encoded frame itself is well formed, but the carried
        // chunk checksum is stale and Sigma validation still rejects.
        let corrupt = Chunk::new(0, vec![1.0, 2.0]).corrupted();
        let sparse = sent(&corrupt, WireRepr::TopK { k: 2 });
        let corrupt_grid = grid_chunks(&[1.0, 2.0, 3.0], 8).0.remove(0).corrupted();
        let grid = sent(&corrupt_grid, WireRepr::FixedPoint { frac_bits: 8 });
        for (frame, corrupt) in [(sparse, corrupt), (grid, corrupt_grid)] {
            let back = frame.decode_encoded_chunk().expect("the wire passes it on");
            assert_eq!(back, corrupt);
            assert!(!back.is_intact());
        }
    }

    #[test]
    fn malformed_encoded_payloads_are_typed_not_panics() {
        let grid =
            || sent(&grid_chunks(&[1.0, 2.0, 3.0], 8).0[0], WireRepr::FixedPoint { frac_bits: 8 });
        assert!(grid().decode_encoded_chunk().is_ok());
        let protocol = |frame: Frame, needle: &str| match frame.decode_encoded_chunk() {
            Err(WireError::Protocol { detail }) => assert!(detail.contains(needle), "{detail}"),
            other => panic!("expected a protocol error naming {needle:?}, got {other:?}"),
        };
        // Unknown codec tags, the dense one among them: no sender
        // encodes a dense chunk.
        for tag in [0u64, 3, 77] {
            let mut frame = grid();
            frame.b = (tag << 32) | (frame.b & 0xFFFF_FFFF);
            protocol(frame, &format!("tag {tag}"));
        }
        // Advertised byte length disagreeing with the payload words.
        let mut short = grid();
        short.b = (short.b & !0xFFFF_FFFFu64) | 1;
        assert!(matches!(short.decode_encoded_chunk(), Err(WireError::Truncated { .. })));
        // A grid header the codec would never write, or one that
        // disagrees with the frame's byte length: refused at the wire.
        let with_header = |header: u64, len: u64| {
            let mut frame = grid();
            let mut words = frame.payload.to_vec();
            words[1] = f64::from_bits(header);
            (frame.payload, frame.b) = (words.into(), (u64::from(FIXED_TAG) << 32) | len);
            frame
        };
        protocol(with_header(3 << 32 | 63, 20), "scale exponent 63");
        protocol(with_header(3 << 32 | 1 << 8 | 8, 20), "reserved");
        protocol(with_header(4 << 32 | 8, 20), "truncated");
        protocol(with_header(2 << 32 | 8, 20), "ends at byte 16");
        assert!(with_header(3 << 32 | 8, 20).decode_encoded_chunk().is_ok());
        // A header-less fixed-point payload.
        let bare = Frame { b: u64::from(FIXED_TAG) << 32, payload: vec![0.0].into(), ..grid() };
        protocol(bare, "truncated");
        // Headers declaring more than a stripe — a grid of 2^32 - 1
        // words, an eight-byte top-k header (count 0) of as many:
        // refused before anything is allocated for them.
        let huge = with_header(u64::from(u32::MAX) << 32, 20);
        assert_eq!(huge.decode_encoded_chunk(), Err(WireError::Oversized { words: u32::MAX }));
        let huge = Frame {
            b: (u64::from(SPARSE_TAG) << 32) | 8,
            payload: [0, u64::from(u32::MAX) << 32].into_iter().map(f64::from_bits).collect(),
            ..grid()
        };
        assert_eq!(huge.decode_encoded_chunk(), Err(WireError::Oversized { words: u32::MAX }));
        // Wrong frame kind.
        let plain = Frame::chunk(0, 0, &Chunk::new(0, vec![1.0, 2.0, 3.0]));
        assert!(matches!(plain.decode_encoded_chunk(), Err(WireError::Protocol { .. })));
    }

    /// What the wire delivers of a lossy partial is what
    /// `WireRepr::transform` computes, bit for bit: a top-k partial's
    /// chunks come back as its transformed words, and a fixed-point
    /// partial's grid chunks, de-quantized by Sigma, as its transformed
    /// values.
    #[test]
    fn transform_equals_what_the_wire_delivers() {
        let raw: Vec<f64> = (0..2 * CHUNK_WORDS + 37)
            .map(|i| ((i * 31 % 19) as f64 - 9.0) / 16.0 + i as f64 * 1e-3)
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let deliver =
            |chunk: &Chunk, repr| sent(chunk, repr).decode_encoded_chunk().expect("decodable");
        for k in [1, 40, CHUNK_WORDS, 10 * CHUNK_WORDS] {
            let (sparse, _) = WireRepr::TopK { k }.transform(&raw);
            let chunks = crate::node::chunk_vector(&sparse);
            let delivered: Vec<f64> = chunks
                .iter()
                .flat_map(|c| deliver(c, WireRepr::TopK { k }).data.to_vec())
                .collect();
            assert_eq!(bits(&delivered), bits(&sparse), "top_k:{k}");
        }
        for frac_bits in [3, 20, 24] {
            let (tx, rx) = crossbeam::channel::unbounded();
            for chunk in grid_chunks(&raw, frac_bits).0 {
                let repr = WireRepr::FixedPoint { frac_bits };
                tx.send(deliver(&chunk, repr)).expect("receiver alive");
            }
            drop(tx);
            let out = crate::SigmaAggregator::new(1, 1).aggregate_validated(raw.len(), vec![rx]);
            let repr = WireRepr::FixedPoint { frac_bits };
            assert_eq!(bits(&out.sum), bits(&repr.transform(&raw).0), "{repr}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        // Five words: one full round of the digest's four lanes plus a
        // ragged one. Header, payload and trailer, every bit of every
        // byte, through both decoders: a typed error, never a frame.
        let buf =
            Frame::chunk(3, 7, &Chunk::new(4096, vec![1.5, -2.25, 0.0, 1e300, -0.0])).encode();
        assert_eq!(buf.len(), HEADER_BYTES + 5 * 8 + CHECKSUM_BYTES);
        for bit in 0..8 * buf.len() {
            let mut bent = buf.clone();
            bent[bit / 8] ^= 1 << (bit % 8);
            let err = Frame::decode(&bent).expect_err("a flipped bit went undetected");
            assert!(!err.is_io(), "bit {bit}: buffer decode gave {err}");
            let mut reader = FrameReader::default();
            reader.feed(&bent);
            assert!(!matches!(reader.next_frame(), Ok(Some(_))), "bit {bit}");
        }
    }

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(WireError, &str)> = vec![
            (WireError::Truncated { needed: 45, got: 3 }, "needed 45"),
            (WireError::BadMagic { found: 7 }, "magic"),
            (WireError::BadKind { found: 99 }, "kind 99"),
            (WireError::Oversized { words: 1 << 30 }, "exceeds"),
            (WireError::ChecksumMismatch { expected: 1, found: 2 }, "mismatch"),
            (WireError::Io { detail: "timed out".into() }, "timed out"),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}

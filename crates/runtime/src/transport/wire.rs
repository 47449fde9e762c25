//! The length-prefixed, checksummed wire format every real transport
//! backend speaks.
//!
//! A frame is a fixed 37-byte header, a payload of little-endian f64
//! bit patterns, and a trailing checksum over both — byte-serial FNV-1a
//! over the header, then the payload's word-lane `payload_digest`
//! (`cosmic_collectives`' `hash` module has the scheme and why any
//! one-byte or one-word change is certain to be caught):
//!
//! ```text
//! magic:u32 | kind:u8 | node:u32 | iteration:u64 | a:u64 | b:u64 |
//! len:u32 | payload: len × f64-LE-bits | checksum:u64
//! ```
//!
//! `a` and `b` are kind-specific operands (a chunk frame carries its
//! word offset in `a` and the chunk's own checksum — verbatim — in
//! `b`, so Sigma-level chunk validation survives the wire unchanged).
//! Decoding never panics: every malformed input — truncated buffer,
//! wrong magic, unknown kind, a length over its kind's cap, flipped bit
//! — comes back as a typed [`WireError`], and the header is checked
//! before anything is allocated for the payload.

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use cosmic_collectives::codec::{
    exact_len, grid_bytes, read_grid, read_sparse, write_sparse, CodecError, WireRepr, FIXED_TAG,
    SPARSE_TAG,
};
use cosmic_collectives::{decode_with_digest, encode_with_digest, Fnv1a};

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
/// payload length in words (64 MiB of f64s) — rejects garbage lengths
/// before any allocation. Every other kind has a tighter cap
/// ([`FrameKind::max_payload_words`]).
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
        match raw {
            1 => Ok(FrameKind::Hello),
            2 => Ok(FrameKind::Chunk),
            3 => Ok(FrameKind::Heartbeat),
            4 => Ok(FrameKind::Done),
            5 => Ok(FrameKind::Model),
            6 => Ok(FrameKind::Snapshot),
            7 => Ok(FrameKind::Ack),
            8 => Ok(FrameKind::Shutdown),
            9 => Ok(FrameKind::Encoded),
            other => Err(WireError::BadKind { found: other }),
        }
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

    /// Reconstructs the staged [`Chunk`] from a chunk frame (the
    /// chunk's checksum is whatever the sender staged — a stale one
    /// travels unchanged and is the Sigma's business, not the wire's).
    /// The chunk shares this frame's payload allocation.
    pub fn to_chunk(&self) -> Chunk {
        self.clone().into_chunk()
    }

    /// [`Frame::to_chunk`], consuming the frame: the payload moves into
    /// the chunk outright, so a received frame's single allocation is
    /// handed to the Sigma with no refcount traffic at all.
    pub(crate) fn into_chunk(self) -> Chunk {
        Chunk {
            offset: self.a as usize,
            data: self.payload,
            checksum: self.b,
            layout: Layout::Dense,
        }
    }

    /// An [`FrameKind::Encoded`] frame for `chunk`: payload word 0 is
    /// the chunk's own checksum, verbatim, then what `write` appends —
    /// codec words under wire tag `tag` — whose byte length it returns.
    fn encoded(
        node: u32,
        iteration: u64,
        chunk: &Chunk,
        tag: u8,
        write: impl FnOnce(&mut Vec<f64>) -> usize,
    ) -> Self {
        let mut payload = Vec::with_capacity(1 + chunk.data.len());
        payload.push(f64::from_bits(chunk.checksum));
        let len = write(&mut payload);
        Frame {
            kind: FrameKind::Encoded,
            node,
            iteration,
            a: chunk.offset as u64,
            b: (u64::from(tag) << 32) | len as u64,
            payload: WordBuf::from_vec(payload),
        }
    }

    /// Wraps a [`Layout::Grid`] chunk. It *is* its codec words and ships
    /// as it stands behind its checksum: nothing is re-derived on the
    /// way out.
    pub(crate) fn grid_chunk(node: u32, iteration: u64, chunk: &Chunk) -> Self {
        let words = chunk.grid_header().map_or(0, |(_, words)| words);
        Frame::encoded(node, iteration, chunk, FIXED_TAG, |payload| {
            payload.extend_from_slice(&chunk.data);
            grid_bytes(words)
        })
    }

    /// Wraps a dense chunk as the coordinate list of every non-zero word
    /// (a sparsified chunk's, so the receiver gets it back bit for bit).
    pub(crate) fn sparse_chunk(node: u32, iteration: u64, chunk: &Chunk) -> Self {
        let nonzero = chunk.data.iter().enumerate().filter(|(_, v)| v.to_bits() != 0);
        let coords = nonzero.map(|(i, &v)| (i as u32, v));
        Frame::encoded(node, iteration, chunk, SPARSE_TAG, |payload| {
            write_sparse(chunk.data.len(), coords, payload)
        })
    }

    /// Reconstructs the staged [`Chunk`] from an [`FrameKind::Encoded`]
    /// frame, its original checksum restored verbatim — a stale one
    /// (corrupted-in-flight chunk) travels unchanged and still fails
    /// Sigma-side validation. A grid is parsed (`read_grid`) and held to
    /// the frame's byte length, and the chunk is a view of the frame's
    /// payload; a coordinate list is read (`read_sparse`) into a dense
    /// chunk. A declared length beyond [`CHUNK_WORDS`] is
    /// [`WireError::Oversized`] before anything is allocated for it;
    /// every other malformation, an unknown tag included, is
    /// [`WireError::Protocol`].
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
        Ok(Chunk { offset, data, checksum, layout })
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES + 8 * self.payload.len() + CHECKSUM_BYTES
    }

    /// Encodes the frame: header, payload, trailing checksum — the
    /// payload's bytes written and digested in one pass.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(self.kind as u8);
        buf.extend_from_slice(&self.node.to_le_bytes());
        buf.extend_from_slice(&self.iteration.to_le_bytes());
        buf.extend_from_slice(&self.a.to_le_bytes());
        buf.extend_from_slice(&self.b.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let mut sum = Fnv1a::default();
        sum.write_bytes(&buf); // the header
        sum.write_digest(encode_with_digest(&self.payload, &mut buf));
        buf.extend_from_slice(&sum.finish().to_le_bytes());
        buf
    }

    /// Decodes one frame from an exact buffer (no trailing bytes).
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < HEADER_BYTES + CHECKSUM_BYTES {
            return Err(WireError::Truncated {
                needed: HEADER_BYTES + CHECKSUM_BYTES,
                got: buf.len(),
            });
        }
        let (header, rest) = buf.split_at(HEADER_BYTES);
        let (kind, words) = parse_header(header)?;
        let body_bytes = 8 * words as usize;
        if rest.len() != body_bytes + CHECKSUM_BYTES {
            return Err(WireError::Truncated {
                needed: HEADER_BYTES + body_bytes + CHECKSUM_BYTES,
                got: buf.len(),
            });
        }
        let (body, sum) = rest.split_at(body_bytes);
        assemble(kind, header, body, sum)
    }

    /// Reads one frame off a byte stream (header first, then exactly
    /// the advertised payload). I/O failures — including read-deadline
    /// expiry — surface as [`WireError::Io`]. Hand it a buffered
    /// reader: a bare socket pays two `read` syscalls per frame.
    pub fn read_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut header = [0u8; HEADER_BYTES];
        reader.read_exact(&mut header).map_err(WireError::from_io)?;
        let (kind, words) = parse_header(&header)?;
        let mut rest = vec![0u8; 8 * words as usize + CHECKSUM_BYTES];
        reader.read_exact(&mut rest).map_err(WireError::from_io)?;
        let (body, sum) = rest.split_at(8 * words as usize);
        assemble(kind, &header, body, sum)
    }

    /// Writes the encoded frame to a byte stream.
    pub(crate) fn write_to(&self, writer: &mut impl Write) -> Result<(), WireError> {
        writer.write_all(&self.encode()).map_err(WireError::from_io)
    }
}

/// Validates magic, kind and payload length — against the kind's cap,
/// [`FrameKind::max_payload_words`] — returning the kind and the word
/// count, so a reader sizes its buffer from a checked number.
fn parse_header(header: &[u8]) -> Result<(FrameKind, u32), WireError> {
    let magic = u32::from_le_bytes(slice4(header, 0));
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let kind = FrameKind::from_u8(header[4])?;
    let words = u32::from_le_bytes(slice4(header, 33));
    if words > kind.max_payload_words() {
        return Err(WireError::Oversized { words });
    }
    Ok((kind, words))
}

/// Builds the frame from a checked header and payload body, once the
/// trailing checksum `sum` — FNV-1a over the header bytes, then the
/// digest of the words decoded in the same pass — matches.
fn assemble(kind: FrameKind, header: &[u8], body: &[u8], sum: &[u8]) -> Result<Frame, WireError> {
    let mut words = Vec::with_capacity(body.len() / 8);
    let mut hash = Fnv1a::default();
    hash.write_bytes(header);
    hash.write_digest(decode_with_digest(body, &mut words));
    let (expected, found) = (hash.finish(), u64::from_le_bytes(slice8(sum, 0)));
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    Ok(Frame {
        kind,
        node: u32::from_le_bytes(slice4(header, 5)),
        iteration: u64::from_le_bytes(slice8(header, 9)),
        a: u64::from_le_bytes(slice8(header, 17)),
        b: u64::from_le_bytes(slice8(header, 25)),
        payload: WordBuf::from_vec(words),
    })
}

fn slice4(buf: &[u8], at: usize) -> [u8; 4] {
    let mut out = [0u8; 4];
    out.copy_from_slice(&buf[at..at + 4]);
    out
}

fn slice8(buf: &[u8], at: usize) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(&buf[at..at + 8]);
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

    fn sample() -> Frame {
        Frame::chunk(3, 7, &Chunk::new(4096, vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE]))
    }

    #[test]
    fn frames_round_trip() {
        let frame = sample();
        let buf = frame.encode();
        assert_eq!(buf.len(), frame.encoded_len());
        assert_eq!(Frame::decode(&buf), Ok(frame.clone()));
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(Frame::read_from(&mut cursor), Ok(frame));
    }

    #[test]
    fn control_frames_round_trip() {
        for kind in [
            FrameKind::Hello,
            FrameKind::Heartbeat,
            FrameKind::Done,
            FrameKind::Ack,
            FrameKind::Shutdown,
        ] {
            let frame = Frame::control(kind, 9, 42, 1, 0xDEAD_BEEF);
            assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
        }
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
        let moved = frame.into_chunk();
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
            let frame = Frame::grid_chunk(5, 11, &chunk);
            let codec_bytes = repr.payload_bytes(chunk.grid_header().expect("well formed").1);
            assert_eq!(frame.b, (u64::from(repr.tag()) << 32) | codec_bytes as u64);
            assert_eq!(frame.payload.len(), 1 + codec_bytes.div_ceil(8));
            assert_eq!(frame.payload[0].to_bits(), chunk.checksum);
            assert_eq!(frame.payload.slice(1, chunk.data.len()), chunk.data);
            let wired = Frame::decode(&frame.encode()).expect("well formed");
            let back = wired.decode_encoded_chunk().expect("a grid chunk");
            assert_eq!(back, chunk);
            assert!(back.is_intact() && back.data.shares_allocation(&wired.payload));
        }
        // Top-k: the sparsified chunk's coordinates, losslessly.
        let repr = WireRepr::TopK { k: 3 };
        let chunk = Chunk::new(4096, repr.transform(&raw[..37]).0);
        let frame = Frame::sparse_chunk(5, 11, &chunk);
        let wired = Frame::decode(&frame.encode());
        let back = wired.expect("well formed").decode_encoded_chunk().expect("decodable");
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
        let grid = Frame::grid_chunk(0, 0, &grid_chunks(&raw, 20).0[0]).encoded_len();
        assert_eq!(grid, HEADER_BYTES + 8 * (2 + 256) + CHECKSUM_BYTES);
    }

    #[test]
    fn encoded_frames_preserve_a_stale_chunk_checksum() {
        // Corrupt-injection damages the staged chunk before framing;
        // the encoded frame itself is well formed, but the carried
        // chunk checksum is stale and Sigma validation still rejects.
        let corrupt = Chunk::new(0, vec![1.0, 2.0]).corrupted();
        let sparse = Frame::sparse_chunk(0, 0, &corrupt);
        let corrupt_grid = grid_chunks(&[1.0, 2.0, 3.0], 8).0.remove(0).corrupted();
        let grid = Frame::grid_chunk(0, 0, &corrupt_grid);
        for (frame, corrupt) in [(sparse, corrupt), (grid, corrupt_grid)] {
            let back = Frame::decode(&frame.encode())
                .expect("well formed")
                .decode_encoded_chunk()
                .expect("the wire passes it on");
            assert_eq!(back, corrupt);
            assert!(!back.is_intact());
        }
    }

    #[test]
    fn malformed_encoded_payloads_are_typed_not_panics() {
        let grid = || Frame::grid_chunk(0, 0, &grid_chunks(&[1.0, 2.0, 3.0], 8).0[0]);
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
        let deliver = |frame: Frame| {
            let wired = Frame::decode(&frame.encode()).expect("well formed");
            wired.decode_encoded_chunk().expect("decodable")
        };
        for k in [1, 40, CHUNK_WORDS, 10 * CHUNK_WORDS] {
            let (sparse, _) = WireRepr::TopK { k }.transform(&raw);
            let chunks = crate::node::chunk_vector(&sparse);
            let delivered: Vec<f64> = chunks
                .iter()
                .flat_map(|c| deliver(Frame::sparse_chunk(0, 0, c)).data.to_vec())
                .collect();
            assert_eq!(bits(&delivered), bits(&sparse), "top_k:{k}");
        }
        for frac_bits in [3, 20, 24] {
            let (tx, rx) = crossbeam::channel::unbounded();
            for chunk in grid_chunks(&raw, frac_bits).0 {
                tx.send(deliver(Frame::grid_chunk(0, 0, &chunk))).expect("receiver alive");
            }
            drop(tx);
            let out = crate::SigmaAggregator::new(1, 1).aggregate_validated(raw.len(), vec![rx]);
            let repr = WireRepr::FixedPoint { frac_bits };
            assert_eq!(bits(&out.sum), bits(&repr.transform(&raw).0), "{repr}");
        }
    }

    #[test]
    fn truncation_is_typed() {
        let buf = sample().encode();
        for cut in [0, 1, HEADER_BYTES - 1, HEADER_BYTES, buf.len() - 1] {
            let err = Frame::decode(&buf[..cut]);
            assert!(matches!(err, Err(WireError::Truncated { .. })), "cut={cut} gave {err:?}");
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
            assert!(Frame::read_from(&mut std::io::Cursor::new(bent)).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = sample().encode();
        buf[33..37].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Frame::decode(&buf), Err(WireError::Oversized { .. })));
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn io_failures_are_distinguishable() {
        let short = sample().encode();
        let mut cursor = std::io::Cursor::new(&short[..HEADER_BYTES - 3]);
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert!(err.is_io(), "{err}");
        assert!(!WireError::BadKind { found: 0 }.is_io());
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

//! Property tests for the wire codec: random frames round-trip bit for
//! bit, and damaged bytes — truncation anywhere, a bit flip anywhere —
//! surface as typed [`WireError`]s, never as a panic or a silently
//! wrong frame.
//!
//! Payloads are generated as raw `u64` bit patterns reinterpreted as
//! `f64` (the vendored proptest has no float strategies), which is
//! strictly harsher than sampling "nice" floats: NaNs, infinities,
//! subnormals, and both zero signs all travel the wire here, and all
//! comparisons are on bits so NaN cannot hide a miscompare.

use std::io::Cursor;

use cosmic_runtime::node::{Chunk, ChunkFault, Layout, SigmaAggregator};
use cosmic_runtime::{Frame, FrameKind, WireError, WireRepr, CHUNK_WORDS};
use proptest::prelude::*;

const KINDS: [FrameKind; 8] = [
    FrameKind::Hello,
    FrameKind::Chunk,
    FrameKind::Heartbeat,
    FrameKind::Done,
    FrameKind::Model,
    FrameKind::Snapshot,
    FrameKind::Ack,
    FrameKind::Shutdown,
];

/// A frame of `KINDS[kind]` carrying `payload` — dropped for a control
/// kind, which carries none.
fn frame(kind: usize, node: u32, iteration: u64, a: u64, b: u64, payload: &[u64]) -> Frame {
    let kind = KINDS[kind % KINDS.len()];
    let carries = matches!(kind, FrameKind::Chunk | FrameKind::Model | FrameKind::Snapshot);
    let payload = if carries { payload } else { &[] };
    Frame {
        kind,
        node,
        iteration,
        a,
        b,
        payload: payload.iter().map(|&w| f64::from_bits(w)).collect(),
    }
}

/// An `Encoded` frame carrying `codec` (whole words of codec bytes)
/// under `tag`, behind a zero chunk checksum.
fn encoded_frame(tag: u64, codec: &[u64]) -> Frame {
    Frame {
        kind: FrameKind::Encoded,
        node: 0,
        iteration: 0,
        a: 0,
        b: (tag << 32) | (8 * codec.len() as u64),
        payload: std::iter::once(0).chain(codec.iter().copied()).map(f64::from_bits).collect(),
    }
}

/// Field-wise equality on bits (payload `==` would choke on NaN).
fn same(a: &Frame, b: &Frame) -> bool {
    a.kind == b.kind
        && a.node == b.node
        && a.iteration == b.iteration
        && a.a == b.a
        && a.b == b.b
        && a.payload.len() == b.payload.len()
        && a.payload.iter().zip(&b.payload).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    /// Any frame survives encode → decode bit-identically, and the
    /// advertised [`Frame::encoded_len`] is the truth.
    #[test]
    fn frames_round_trip(
        kind in 0usize..8,
        node in any::<u32>(),
        iteration in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        payload in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let original = frame(kind, node, iteration, a, b, &payload);
        let encoded = original.encode();
        prop_assert_eq!(encoded.len(), original.encoded_len());
        let decoded = Frame::decode(&encoded).expect("clean bytes decode");
        prop_assert!(same(&original, &decoded), "{original:?} != {decoded:?}");
        // The streaming path agrees with the buffer path.
        let streamed = Frame::read_from(&mut Cursor::new(&encoded)).expect("clean stream decodes");
        prop_assert!(same(&original, &streamed));
    }

    /// Chunk frames carry the staged chunk verbatim — offset, data
    /// bits, and the (possibly stale) checksum all survive the wire.
    #[test]
    fn chunks_round_trip_verbatim(
        node in any::<u32>(),
        iteration in any::<u64>(),
        offset in 0usize..1_000_000,
        checksum in any::<u64>(),
        data in prop::collection::vec(any::<u64>(), 1..48),
    ) {
        let data: Vec<f64> = data.iter().map(|&bits| f64::from_bits(bits)).collect();
        let staged = Chunk::with_checksum(offset, data, checksum, Layout::Dense);
        let encoded = Frame::chunk(node, iteration, &staged).encode();
        let landed = Frame::decode(&encoded).expect("chunk frame decodes").to_chunk();
        prop_assert_eq!(landed.offset, staged.offset);
        prop_assert_eq!(landed.checksum, staged.checksum);
        let staged_bits: Vec<u64> = staged.data.iter().map(|v| v.to_bits()).collect();
        let landed_bits: Vec<u64> = landed.data.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(staged_bits, landed_bits);
    }

    /// Every possible truncation of a valid frame decodes to a typed
    /// error — never a panic, never a frame.
    #[test]
    fn truncation_is_always_a_typed_error(
        kind in 0usize..8,
        seed in any::<u64>(),
        payload in prop::collection::vec(any::<u64>(), 0..16),
        cut in any::<u16>(),
    ) {
        let encoded = frame(kind, 7, 3, seed, seed ^ 1, &payload).encode();
        let keep = cut as usize % encoded.len(); // strictly shorter
        prop_assert!(Frame::decode(&encoded[..keep]).is_err());
        // The streaming reader sees the same cut as an I/O error (the
        // stream ends mid-frame) or a checksum/length error.
        let streamed = Frame::read_from(&mut Cursor::new(&encoded[..keep]));
        prop_assert!(streamed.is_err());
    }

    /// Flipping any single bit anywhere in the frame is detected:
    /// decode returns a typed error. A flip stays inside one header
    /// byte, one payload word or the trailer, and the checksum is
    /// certain to catch each of those: no bit's flip survives.
    #[test]
    fn any_bit_flip_is_detected(
        kind in 0usize..8,
        seed in any::<u64>(),
        payload in prop::collection::vec(any::<u64>(), 0..16),
        flip in any::<u32>(),
    ) {
        let mut encoded = frame(kind, 7, 3, seed, seed ^ 1, &payload).encode();
        let bit = flip as usize % (encoded.len() * 8);
        encoded[bit / 8] ^= 1 << (bit % 8);
        let err = Frame::decode(&encoded);
        prop_assert!(err.is_err(), "bit {bit} flipped undetected");
        // And the error is a deliberate classification, not an I/O
        // artifact: buffers never produce `Io`.
        if let Err(e) = err {
            prop_assert!(!e.is_io(), "buffer decode produced an I/O error: {e:?}");
        }
    }

    /// Garbage bytes of any shape never panic the decoder.
    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        codec in prop::collection::vec(any::<u64>(), 0..32),
    ) {
        // Truly random bytes essentially never spell the magic plus a
        // valid checksum; the point is that classification is total.
        let _ = Frame::decode(&bytes);
        let _ = Frame::read_from(&mut Cursor::new(&bytes));
        // The same for an encoded chunk's codec bytes, under every
        // tag and one past: whatever decodes fits a chunk.
        for tag in 0..4 {
            if let Ok(chunk) = encoded_frame(tag, &codec).decode_encoded_chunk() {
                prop_assert!(chunk.data.len() <= CHUNK_WORDS);
            }
        }
    }
}

proptest! {
    /// A fixed-point payload is total at both of its readers. Behind a
    /// header that is sometimes the codec's and sometimes not — scale
    /// exponent out of range, reserved bytes set, a word count that is
    /// not what is packed under it — the wire answers a typed error or
    /// a grid chunk, and Sigma, handed the same words with or without
    /// the wire's check and with or without a valid sum, answers a
    /// verdict or the exact de-quantized values. Never a panic.
    #[test]
    fn grid_payloads_are_total_on_the_wire_and_in_sigma(
        scale_exp in any::<u8>(),
        reserved in any::<u32>(),
        declared in 0usize..40,
        spare in 0usize..3,
        packed in prop::collection::vec(any::<u64>(), 20..21),
        codec_header in any::<bool>(),
        sealed in any::<bool>(),
    ) {
        let (scale_exp, reserved) = if codec_header {
            (scale_exp % 63, 0)
        } else {
            (scale_exp, u64::from(reserved & 0x00FF_FFFF))
        };
        let header = u64::from(scale_exp) | reserved << 8 | (declared as u64) << 32;
        // `spare == 0`: exactly the declared words, zero padding.
        let mut packed = packed[..(declared.div_ceil(2) + spare).min(packed.len())].to_vec();
        if let (0, 1, Some(last)) = (spare, declared % 2, packed.last_mut()) {
            *last &= 0xFFFF_FFFF;
        }
        let words: Vec<u64> = std::iter::once(header).chain(packed).collect();
        let well_formed = (scale_exp <= 62 && reserved == 0 && spare == 0).then_some(declared);

        let mut frame = encoded_frame(1, &words);
        frame.b = (1 << 32) | (8 + 4 * declared as u64);
        match (frame.decode_encoded_chunk(), well_formed) {
            (Ok(chunk), Some(_)) => prop_assert_eq!(chunk.layout, Layout::Grid),
            (Err(err), None) => prop_assert!(!err.is_io(), "{err}"),
            (got, _) => prop_assert!(false, "{well_formed:?} decoded to {got:?}"),
        }

        let data: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
        let checksum = if sealed { Chunk::grid_checksum_of(0, &data) } else { 0 };
        let chunk = Chunk::with_checksum(0, data, checksum, Layout::Grid);
        let model_len = declared.max(1);
        let (tx, rx) = crossbeam::channel::unbounded();
        tx.send(chunk).expect("receiver alive");
        drop(tx);
        let out = SigmaAggregator::new(1, 1).aggregate_validated(model_len, vec![rx]);
        prop_assert_eq!(out.sum.len(), model_len);
        match (well_formed, sealed, &out.quarantined[..]) {
            (Some(1..), true, []) => {
                let quantum = f64::from_bits((1023 - u64::from(scale_exp)) << 52);
                for (i, got) in out.sum.iter().enumerate() {
                    let q = (words[1 + i / 2] >> (32 * (i % 2))) as u32 as i32;
                    prop_assert_eq!(got.to_bits(), (f64::from(q) * quantum).to_bits());
                }
            }
            // Zero words where the model has one: the stripe is short.
            (Some(0), true, [(0, ChunkFault::Incomplete { missing: 0 })]) => {}
            (_, _, [(0, ChunkFault::Corrupt { offset: 0 })]) if !sealed || well_formed.is_none() => {}
            (_, _, verdict) => prop_assert!(false, "{well_formed:?}/{sealed}: {verdict:?}"),
        }
    }
}

/// An oversized advertised length is rejected before any allocation is
/// attempted (deterministic guard, no proptest needed).
#[test]
fn oversized_length_is_rejected() {
    let mut encoded = Frame::control(FrameKind::Heartbeat, 1, 2, 3, 4).encode();
    // Overwrite the length field (offset 33) with a huge word count:
    // the guard answers before length or checksum are looked at.
    encoded[33..37].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(Frame::decode(&encoded), Err(WireError::Oversized { words: u32::MAX }));
    // The cap is the kind's: a chunk frame one word over the stripe is
    // refused from its 37 header bytes alone — a stream reader that
    // sized a buffer first would report the missing payload as `Io` —
    // while a model frame of the same length is ordinary traffic.
    let words = CHUNK_WORDS as u32 + 1;
    let payload = vec![0u64; words as usize];
    let model = frame(4, 1, 2, 3, 4, &payload);
    assert_eq!(model.kind, FrameKind::Model);
    assert!(same(&Frame::decode(&model.encode()).expect("within the large cap"), &model));
    let chunk = Frame { kind: FrameKind::Chunk, ..model }.encode();
    assert_eq!(Frame::decode(&chunk), Err(WireError::Oversized { words }));
    let header_only = &chunk[..37];
    assert_eq!(
        Frame::read_from(&mut Cursor::new(header_only)),
        Err(WireError::Oversized { words })
    );
    let full_stripe = Frame { kind: FrameKind::Chunk, ..frame(4, 1, 2, 3, 4, &payload[1..]) };
    assert!(same(&Frame::decode(&full_stripe.encode()).expect("a full stripe fits"), &full_stripe));
    // The same guard one level in: eight codec bytes that are a top-k
    // header (count 0) declaring 2^32 - 1 words.
    let huge = encoded_frame(2, &[u64::from(u32::MAX) << 32]);
    let landed = Frame::decode(&huge.encode()).expect("the frame itself is well formed");
    assert_eq!(landed.decode_encoded_chunk(), Err(WireError::Oversized { words: u32::MAX }));
}

/// Each kind's cap is read off the 37 header bytes, before a payload
/// buffer is sized: a control frame carries nothing, an encoded chunk at
/// most one stripe's worst-case codec bytes behind its checksum word.
#[test]
fn payload_caps_are_per_kind_and_checked_before_allocation() {
    let header_claiming = |frame: &Frame, words: u32| {
        let mut header = frame.encode()[..37].to_vec();
        header[33..37].copy_from_slice(&words.to_le_bytes());
        Frame::read_from(&mut Cursor::new(header))
    };
    let heartbeat = Frame::control(FrameKind::Heartbeat, 1, 2, 3, 4);
    assert_eq!(header_claiming(&heartbeat, 1), Err(WireError::Oversized { words: 1 }));
    // A top-k chunk that keeps every word of a full stripe: the largest
    // codec payload there is, and it still round-trips.
    let repr = WireRepr::TopK { k: CHUNK_WORDS };
    let stripe: Vec<f64> = (0..CHUNK_WORDS).map(|i| i as f64 + 0.5).collect();
    let (payload, _) = repr.encode(&stripe);
    let cap = 1 + payload.bytes.len().div_ceil(8) as u32;
    assert_eq!((payload.bytes.len(), cap), (repr.payload_bytes(CHUNK_WORDS), 6146));
    let worst = Chunk::new(0, stripe);
    let words = payload.bytes.chunks(8).map(|part| {
        let mut w = [0u8; 8];
        w[..part.len()].copy_from_slice(part);
        u64::from_le_bytes(w)
    });
    let encoded = Frame {
        b: (u64::from(repr.tag()) << 32) | payload.bytes.len() as u64,
        payload: std::iter::once(worst.checksum).chain(words).map(f64::from_bits).collect(),
        ..encoded_frame(2, &[])
    };
    assert_eq!(encoded.payload.len() as u32, cap);
    let landed = Frame::read_from(&mut Cursor::new(encoded.encode())).expect("at the cap");
    assert_eq!(landed.decode_encoded_chunk(), Ok(worst));
    assert_eq!(header_claiming(&encoded, cap + 1), Err(WireError::Oversized { words: cap + 1 }));
}

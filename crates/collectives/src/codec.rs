//! Wire representations (codecs) for collective payloads.
//!
//! Every layer of the payload path — schedule byte accounting, cost
//! models, Sigma aggregation, transport frames, telemetry counters —
//! speaks a [`WireRepr`] instead of assuming dense 8-byte f64 words:
//!
//! - [`WireRepr::DenseF64`]: the verbatim default. Encode/decode is the
//!   identity on the f64 bit patterns, sizes are `8 × words`, and every
//!   golden, benchmark ratio, and sim-vs-tcp equivalence that predates
//!   codecs is byte-identical under it.
//! - [`WireRepr::FixedPoint`]: SwitchML-style shared-exponent integer
//!   quantization. A whole payload is scaled by one power of two
//!   (the *scaling factor*, derived from the data, travelling in an
//!   8-byte side channel ahead of the values) and rounded to `i32`.
//!   Because every decoded value is `q · 2⁻ᵉ` with `|q| ≤ 2³¹ − 1`,
//!   sums of up to `2²¹` contributions are exact in f64 — aggregation
//!   over fixed-point payloads is order-independent and bit-identical
//!   whether folded as floats or as integers. The runtime folds
//!   integers — [`quantize_into`] once at the sender, the grid verbatim
//!   behind its [`fixed_header`], [`dequantize_sum`] once at Sigma —
//!   and [`WireRepr::transform`] is that path's float-valued oracle.
//! - [`WireRepr::TopK`]: magnitude top-k sparsification. Exactly
//!   `min(k, words)` coordinates travel as `(u32 index, f64 value)`
//!   pairs; the rest decode to zero.
//!
//! ## Determinism rules
//!
//! Codecs are pure functions of their input slice: scaling factors are
//! derived from the data (never from ambient state), top-k ties break
//! toward the lower index, coordinates are emitted in ascending index
//! order, and no codec consults a clock or RNG. Two encodes of the same
//! bits produce the same bytes on every host.
//!
//! ## Analytic error bound (fixed-point)
//!
//! For a finite, unclipped value `x` encoded at scale exponent `e`, the
//! round-trip error is at most half a quantum:
//! `|x − decode(encode(x))| ≤ 2^−(e+1)`.
//! The derived exponent is the largest `e ≤ frac_bits` for which
//! `round(max|x| · 2ᵉ)` still fits `i32`, so clipping only occurs for
//! non-finite inputs or when even `e = 0` overflows (|x| ≥ 2³¹).

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

/// Bytes per dense model word (gradients and models are `f64`).
///
/// The single source of truth: the schedules here and the runtime's
/// layout arithmetic both size by this constant.
pub const WORD_BYTES: usize = 8;

/// Fractional bits used when `fixed_point` is requested without an
/// explicit precision.
pub(crate) const DEFAULT_FRAC_BITS: u8 = 24;

/// Coordinate budget used when `top_k` is requested without an explicit
/// `k`.
pub(crate) const DEFAULT_TOP_K: usize = 1024;

/// Largest representable scale exponent (the side channel stores it in
/// one byte, and `2⁶²` already dwarfs any useful gradient precision).
pub(crate) const MAX_SCALE_EXP: u8 = 62;

/// [`WireRepr::tag`] of the fixed-point byte layout.
pub const FIXED_TAG: u8 = 1;

/// [`WireRepr::tag`] of the top-k (sparse coordinate) byte layout.
pub const SPARSE_TAG: u8 = 2;

/// Bytes of the fixed-point side-channel header: scale exponent plus
/// the word count.
const FIXED_HEADER_BYTES: usize = 8;

/// Bytes of the top-k header: coordinate count plus the logical word
/// count.
const SPARSE_HEADER_BYTES: usize = 8;

/// Bytes per transmitted top-k coordinate: `u32` index + `f64` value.
const COORD_BYTES: usize = 12;

/// A wire representation: how a logical run of f64 model words is
/// serialized for transport and priced by cost models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireRepr {
    /// Verbatim f64 bit patterns, 8 bytes per word (the default).
    #[default]
    DenseF64,
    /// Shared-exponent `i32` quantization with `frac_bits` fractional
    /// bits of target precision and an 8-byte scaling-factor side
    /// channel per payload.
    FixedPoint {
        /// Target fractional bits; the derived scale exponent is capped
        /// here (and shrunk further if the payload's magnitude demands).
        frac_bits: u8,
    },
    /// Magnitude top-k sparsification: exactly `min(k, words)`
    /// `(index, value)` coordinates travel, the rest decode to zero.
    TopK {
        /// Coordinate budget per encoded payload.
        k: usize,
    },
}

/// Books what a codec did to a payload (or a round of payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CodecStats {
    /// Bytes the payload would occupy dense (`8 × words`).
    pub dense_bytes: u64,
    /// Bytes actually put on the wire (headers included).
    pub wire_bytes: u64,
    /// Values saturated by fixed-point quantization (non-finite inputs
    /// included).
    pub clipped: u64,
    /// Coordinates not transmitted by top-k sparsification.
    pub dropped: u64,
}

impl CodecStats {
    /// Folds another stats record into this one.
    pub fn merge(&mut self, other: &CodecStats) {
        self.dense_bytes += other.dense_bytes;
        self.wire_bytes += other.wire_bytes;
        self.clipped += other.clipped;
        self.dropped += other.dropped;
    }

    /// Dense-over-wire compression ratio (1.0 when nothing travelled).
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            1.0
        } else {
            self.dense_bytes as f64 / self.wire_bytes as f64
        }
    }
}

/// A payload serialized under some [`WireRepr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPayload {
    /// The representation that produced `bytes`.
    pub repr: WireRepr,
    /// Logical word count of the decoded payload.
    pub words: usize,
    /// The wire bytes (side-channel headers included).
    pub bytes: Vec<u8>,
}

/// A malformed encoded payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte buffer is shorter than its header or value region
    /// requires.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes present.
        got: usize,
    },
    /// An unknown repr tag arrived on the wire.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A sparse header claims more coordinates than logical words, or a
    /// coordinate index escapes the payload.
    BadCoordinate {
        /// The offending index (or count).
        index: usize,
        /// Logical words in the payload.
        words: usize,
    },
    /// A fixed-point header names a scale exponent beyond the codec's
    /// range or sets a reserved byte.
    BadHeader {
        /// The scale exponent found.
        scale_exp: u8,
        /// The three reserved bytes found (all zero when well formed).
        reserved: [u8; 3],
    },
    /// Bytes follow the end the payload's own header declares.
    Trailing {
        /// Bytes the header accounts for.
        expected: usize,
        /// Bytes present.
        got: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, got } => {
                write!(f, "encoded payload truncated: need {needed} byte(s), have {got}")
            }
            CodecError::BadTag { tag } => write!(f, "unknown wire-repr tag {tag}"),
            CodecError::BadCoordinate { index, words } => {
                write!(f, "sparse coordinate {index} escapes payload of {words} word(s)")
            }
            CodecError::BadHeader { scale_exp, reserved } => {
                write!(f, "fixed-point header: scale exponent {scale_exp}, reserved {reserved:?}")
            }
            CodecError::Trailing { expected, got } => {
                write!(f, "encoded payload ends at byte {expected}, {got} present")
            }
        }
    }
}

impl Error for CodecError {}

impl fmt::Display for WireRepr {
    /// The parameterized CLI spelling, accepted back by
    /// [`WireRepr::parse`]: `dense_f64`, `fixed_point:<frac_bits>`,
    /// `top_k:<k>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireRepr::DenseF64 => write!(f, "dense_f64"),
            WireRepr::FixedPoint { frac_bits } => write!(f, "fixed_point:{frac_bits}"),
            WireRepr::TopK { k } => write!(f, "top_k:{k}"),
        }
    }
}

impl WireRepr {
    /// Stable label (used in reports, CLI flags, and trace vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            WireRepr::DenseF64 => "dense_f64",
            WireRepr::FixedPoint { .. } => "fixed_point",
            WireRepr::TopK { .. } => "top_k",
        }
    }

    /// Parses a CLI spelling: `dense_f64` (or `dense`), `fixed_point`
    /// (optionally `fixed_point:<frac_bits>`), `top_k` (optionally
    /// `top_k:<k>`).
    pub fn parse(s: &str) -> Option<WireRepr> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match name {
            "dense" | "dense_f64" => match arg {
                None => Some(WireRepr::DenseF64),
                Some(_) => None,
            },
            "fixed_point" => {
                let frac_bits = match arg {
                    None => DEFAULT_FRAC_BITS,
                    Some(a) => a.parse().ok()?,
                };
                (frac_bits <= MAX_SCALE_EXP).then_some(WireRepr::FixedPoint { frac_bits })
            }
            "top_k" => {
                let k = match arg {
                    None => DEFAULT_TOP_K,
                    Some(a) => a.parse().ok()?,
                };
                (k > 0).then_some(WireRepr::TopK { k })
            }
            _ => None,
        }
    }

    /// One-byte wire tag identifying the byte layout (the decoder needs
    /// only the tag: scale exponents and coordinate counts live in the
    /// payload's own header).
    pub fn tag(self) -> u8 {
        match self {
            WireRepr::DenseF64 => 0,
            WireRepr::FixedPoint { .. } => FIXED_TAG,
            WireRepr::TopK { .. } => SPARSE_TAG,
        }
    }

    /// Exact encoded size in bytes of a payload of `words` logical
    /// words: the size law every layer (schedule accounting, cost
    /// models, telemetry) agrees on. Empty payloads occupy zero bytes
    /// under every repr.
    pub fn payload_bytes(self, words: usize) -> usize {
        if words == 0 {
            return 0;
        }
        match self {
            WireRepr::DenseF64 => words * WORD_BYTES,
            WireRepr::FixedPoint { .. } => FIXED_HEADER_BYTES + 4 * words,
            WireRepr::TopK { k } => SPARSE_HEADER_BYTES + COORD_BYTES * k.min(words),
        }
    }

    /// Relative ingress fold rate of this representation against the
    /// dense f64 baseline, for cost models: Sigma stages a fixed-point
    /// grid as half-width `i32` words and folds them into `i64` stripe
    /// sums, so a wire byte carries twice the words of a dense one;
    /// sparse and dense payloads fold at the baseline rate.
    pub(crate) fn fold_rate_factor(self) -> f64 {
        match self {
            WireRepr::DenseF64 | WireRepr::TopK { .. } => 1.0,
            WireRepr::FixedPoint { .. } => 2.0,
        }
    }

    /// Encodes `data` under this representation. Returns the wire bytes
    /// and the codec accounting. Deterministic: same input bits, same
    /// output bytes, on every host.
    pub fn encode(self, data: &[f64]) -> (EncodedPayload, CodecStats) {
        let words = data.len();
        let mut stats =
            CodecStats { dense_bytes: (words * WORD_BYTES) as u64, ..CodecStats::default() };
        if words == 0 {
            // Empty payloads occupy zero bytes under every repr — the
            // size law headers only exist for payloads that travel.
            return (EncodedPayload { repr: self, words, bytes: Vec::new() }, stats);
        }
        let bytes = match self {
            WireRepr::DenseF64 => {
                let mut out = Vec::with_capacity(words * WORD_BYTES);
                for &x in data {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                out
            }
            WireRepr::FixedPoint { frac_bits } => {
                let (scale_exp, values, clipped) = quantize_fixed(data, frac_bits);
                stats.clipped = clipped;
                encode_fixed_bytes(scale_exp, &values)
            }
            WireRepr::TopK { k } => {
                let (coords, dropped) = top_k_coords(data, k);
                stats.dropped = dropped;
                encode_sparse_bytes(words, &coords)
            }
        };
        stats.wire_bytes = bytes.len() as u64;
        (EncodedPayload { repr: self, words, bytes }, stats)
    }

    /// Decodes wire bytes produced by [`WireRepr::encode`] for this
    /// repr's tag back into f64 words.
    pub fn decode(self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        decode_tagged(self.tag(), bytes)
    }

    /// The end-to-end lossy transform of a payload, bit-identical to
    /// `decode(encode(data))` without materializing the byte buffer:
    /// what a top-k sender applies before chunking, and the oracle a
    /// fixed-point round (quantize once, fold integers) must agree
    /// with.
    pub fn transform(self, data: &[f64]) -> (Vec<f64>, CodecStats) {
        let words = data.len();
        let mut stats = CodecStats {
            dense_bytes: (words * WORD_BYTES) as u64,
            wire_bytes: self.payload_bytes(words) as u64,
            ..CodecStats::default()
        };
        let out = match self {
            WireRepr::DenseF64 => data.to_vec(),
            WireRepr::FixedPoint { frac_bits } => {
                let (scale_exp, values, clipped) = quantize_fixed(data, frac_bits);
                stats.clipped = clipped;
                dequantize_fixed(scale_exp, &values)
            }
            WireRepr::TopK { k } => {
                let (coords, dropped) = top_k_coords(data, k);
                stats.dropped = dropped;
                let mut out = vec![0.0f64; words];
                for &(i, v) in &coords {
                    out[i as usize] = v;
                }
                out
            }
        };
        (out, stats)
    }
}

/// Exact power of two as f64 (bit-constructed, so no libm variance).
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// Magnitude key with a total order: absolute bit pattern, so
/// `0 < subnormals < … < ∞ < NaN` and ties are exact.
fn abs_bits(x: f64) -> u64 {
    x.to_bits() & !(1u64 << 63)
}

/// Derives the shared scale exponent for a payload: the largest
/// `e ≤ frac_bits` for which the payload's peak magnitude still
/// quantizes into `i32` without clipping. All-zero (or all-non-finite)
/// payloads use `frac_bits` verbatim.
///
/// The peak is an integer reduction — magnitudes order as their bit
/// patterns, non-finite ones count as zero — over eight independent
/// lanes, so it runs at memory speed instead of down one `max` chain.
pub fn derive_scale(data: &[f64], frac_bits: u8) -> u8 {
    const INFINITY_BITS: u64 = 0x7FF0_0000_0000_0000;
    let finite_abs = |x: &f64| Some(abs_bits(*x)).filter(|&abs| abs < INFINITY_BITS).unwrap_or(0);
    let mut lanes = [0u64; 8];
    let mut octets = data.chunks_exact(8);
    for octet in &mut octets {
        for (lane, x) in lanes.iter_mut().zip(octet) {
            *lane = (*lane).max(finite_abs(x));
        }
    }
    let peak = octets.remainder().iter().map(finite_abs).chain(lanes).fold(0, u64::max);
    scale_for_peak(f64::from_bits(peak), frac_bits)
}

/// The scale exponent for a payload whose largest finite magnitude is
/// `max_abs`.
fn scale_for_peak(max_abs: f64, frac_bits: u8) -> u8 {
    let cap = frac_bits.min(MAX_SCALE_EXP);
    if max_abs == 0.0 {
        return cap;
    }
    let mut e = cap;
    while e > 0 && (max_abs * pow2(e as i32)).round() > i32::MAX as f64 {
        e -= 1;
    }
    e
}

/// Quantizes a payload at its data-derived scale: returns the scale
/// exponent, the `i32` values, and how many values saturated.
pub(crate) fn quantize_fixed(data: &[f64], frac_bits: u8) -> (u8, Vec<i32>, u64) {
    let scale_exp = derive_scale(data, frac_bits);
    let mut values = vec![0; data.len()];
    let clipped = quantize_into(data, scale_exp, &mut values);
    (scale_exp, values, clipped)
}

/// Quantizes `data` onto the grid of `scale_exp` into the caller's
/// `out` (walked in step, to the shorter of the two) and returns how
/// many values saturated. `out[i] = round(data[i] · 2ᵉ)`, halves away
/// from zero; the saturation range is symmetric (`±(2³¹ − 1)`) so
/// magnitudes stay bounded by `i32::MAX`; NaNs quantize to zero and
/// count as clipped. `round` is a libm call on baseline x86-64:
/// truncating `v ± (0.5 − 2⁻⁵⁴)` is the same function for `|v| < 2⁵²`,
/// and a value rounds past `i32::MAX` exactly when `|v| ≥ 2³¹ − 0.5`.
pub fn quantize_into(data: &[f64], scale_exp: u8, out: &mut [i32]) -> u64 {
    const HALF_BELOW: f64 = 0.499_999_999_999_999_94;
    const LIMIT: f64 = 2_147_483_647.5;
    let s = pow2(i32::from(scale_exp));
    let mut clipped = 0u64;
    for (q, &x) in out.iter_mut().zip(data) {
        let v = x * s;
        *q = if -LIMIT < v && v < LIMIT {
            (v + HALF_BELOW.copysign(v)) as i64 as i32
        } else {
            clipped += 1;
            if v.is_nan() {
                0
            } else if v > 0.0 {
                i32::MAX
            } else {
                -i32::MAX
            }
        };
    }
    clipped
}

/// Reconstructs f64 words from an *integer-fold sum* of quantized
/// contributions into `out`: `q · 2⁻ᵉ`, exact in f64 while `|q| < 2⁵³`
/// — with `|qᵢ| ≤ 2³¹ − 1` that holds for any realistic peer count,
/// which is why the integer-accumulate path is order-independent and
/// therefore identical across collective strategies.
pub fn dequantize_sum(scale_exp: u8, values: &[i64], out: &mut [f64]) {
    let inv = pow2(-i32::from(scale_exp));
    for (x, &q) in out.iter_mut().zip(values) {
        *x = q as f64 * inv;
    }
}

/// Reconstructs f64 words from quantized values: `q · 2⁻ᵉ`, exact in
/// f64 for every `|q| ≤ 2³¹`.
fn dequantize_fixed(scale_exp: u8, values: &[i32]) -> Vec<f64> {
    let inv = pow2(-(scale_exp as i32));
    values.iter().map(|&q| q as f64 * inv).collect()
}

/// Selects the `min(k, len)` largest-magnitude coordinates (ties break
/// toward the lower index) and returns them in ascending index order,
/// plus the count of coordinates left behind. That order is total and
/// strict, so the kept set is unique: a selection finds it without
/// sorting the rest.
pub(crate) fn top_k_coords(data: &[f64], k: usize) -> (Vec<(u32, f64)>, u64) {
    assert!(data.len() <= u32::MAX as usize, "top-k payloads index with u32");
    let kept = k.min(data.len());
    let mut order: Vec<u32> = (0..data.len() as u32).collect();
    if 0 < kept && kept < order.len() {
        order.select_nth_unstable_by(kept - 1, |&a, &b| {
            abs_bits(data[b as usize]).cmp(&abs_bits(data[a as usize])).then(a.cmp(&b))
        });
    }
    order.truncate(kept);
    order.sort_unstable();
    let coords = order.into_iter().map(|i| (i, data[i as usize])).collect();
    (coords, (data.len() - kept) as u64)
}

/// The fixed-point side channel, `[scale_exp, 0, 0, 0, words:u32 LE]`,
/// ahead of `words` little-endian `i32` values.
pub fn fixed_header(scale_exp: u8, words: usize) -> [u8; FIXED_HEADER_BYTES] {
    assert!(words <= u32::MAX as usize, "fixed-point payloads count words with u32");
    let w = (words as u32).to_le_bytes();
    [scale_exp, 0, 0, 0, w[0], w[1], w[2], w[3]]
}

/// Reads a [`fixed_header`] back as `(scale_exp, words)`, strictly: a
/// scale exponent out of range or a reserved byte set is an error.
pub fn parse_fixed_header(head: [u8; FIXED_HEADER_BYTES]) -> Result<(u8, usize), CodecError> {
    let [scale_exp, r0, r1, r2, w0, w1, w2, w3] = head;
    if scale_exp > MAX_SCALE_EXP || [r0, r1, r2] != [0; 3] {
        return Err(CodecError::BadHeader { scale_exp, reserved: [r0, r1, r2] });
    }
    Ok((scale_exp, u32::from_le_bytes([w0, w1, w2, w3]) as usize))
}

/// Holds an encoded payload of `got` bytes to the `expected` its own
/// header accounts for.
pub fn exact_len(expected: usize, got: usize) -> Result<(), CodecError> {
    match got.cmp(&expected) {
        Ordering::Less => Err(CodecError::Truncated { needed: expected, got }),
        Ordering::Equal => Ok(()),
        Ordering::Greater => Err(CodecError::Trailing { expected, got }),
    }
}

/// Serializes a fixed-point payload: the [`fixed_header`], then `i32`
/// little-endian values.
fn encode_fixed_bytes(scale_exp: u8, values: &[i32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FIXED_HEADER_BYTES + 4 * values.len());
    out.extend_from_slice(&fixed_header(scale_exp, values.len()));
    for &q in values {
        out.extend_from_slice(&q.to_le_bytes());
    }
    out
}

/// Serializes the non-zero words of an *already sparsified* chunk as a
/// top-k payload: **all** of them, not the budget again (a chunk may
/// hold more than `k` of the round's surviving coordinates), so
/// [`decode_tagged`] under the top-k tag reproduces `data` bit for bit.
pub fn encode_wire(data: &[f64]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let coords: Vec<(u32, f64)> = data
        .iter()
        .enumerate()
        .filter(|(_, v)| v.to_bits() != 0)
        .map(|(i, &v)| (i as u32, v))
        .collect();
    encode_sparse_bytes(data.len(), &coords)
}

/// Serializes a sparse payload: `[count:u32, words:u32]` header, then
/// `(u32 index, f64 value)` coordinates in ascending index order.
fn encode_sparse_bytes(words: usize, coords: &[(u32, f64)]) -> Vec<u8> {
    assert!(words <= u32::MAX as usize, "sparse payloads count words with u32");
    let mut out = Vec::with_capacity(SPARSE_HEADER_BYTES + COORD_BYTES * coords.len());
    out.extend_from_slice(&(coords.len() as u32).to_le_bytes());
    out.extend_from_slice(&(words as u32).to_le_bytes());
    for &(i, v) in coords {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Reads `N` bytes at `at`, or reports the truncation.
fn take<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], CodecError> {
    match bytes.get(at..at + N).and_then(|s| <[u8; N]>::try_from(s).ok()) {
        Some(arr) => Ok(arr),
        None => Err(CodecError::Truncated { needed: at + N, got: bytes.len() }),
    }
}

/// The logical word count an encoded payload declares, read off its
/// header without decoding: what a receiver bounds *before*
/// [`decode_tagged`] allocates that many words (a top-k header can
/// declare 2³² words in eight bytes).
pub fn declared_words(tag: u8, bytes: &[u8]) -> Result<usize, CodecError> {
    match tag {
        0..=2 if bytes.is_empty() => Ok(0),
        0 => Ok(bytes.len() / WORD_BYTES),
        1 | 2 => {
            let head: [u8; 8] = take(bytes, 0)?;
            Ok(u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize)
        }
        other => Err(CodecError::BadTag { tag: other }),
    }
}

/// Decodes an encoded payload identified by its one-byte wire tag.
/// Every malformation — truncation, unknown tag, out-of-range sparse
/// coordinate, a fixed-point header out of range or followed by more
/// than its values — is a typed [`CodecError`], never a panic.
pub fn decode_tagged(tag: u8, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    if bytes.is_empty() && tag <= 2 {
        return Ok(Vec::new());
    }
    match tag {
        0 => {
            if !bytes.len().is_multiple_of(WORD_BYTES) {
                return Err(CodecError::Truncated {
                    needed: bytes.len().next_multiple_of(WORD_BYTES),
                    got: bytes.len(),
                });
            }
            Ok(bytes
                .chunks_exact(WORD_BYTES)
                .map(|c| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(c);
                    f64::from_bits(u64::from_le_bytes(b))
                })
                .collect())
        }
        1 => {
            let (scale_exp, words) = parse_fixed_header(take(bytes, 0)?)?;
            exact_len(FIXED_HEADER_BYTES + 4 * words, bytes.len())?;
            let values: Vec<i32> = bytes[FIXED_HEADER_BYTES..]
                .chunks_exact(4)
                .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok(dequantize_fixed(scale_exp, &values))
        }
        2 => {
            let head: [u8; 8] = take(bytes, 0)?;
            let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
            let words = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
            if count > words {
                return Err(CodecError::BadCoordinate { index: count, words });
            }
            let need = SPARSE_HEADER_BYTES + COORD_BYTES * count;
            if bytes.len() < need {
                return Err(CodecError::Truncated { needed: need, got: bytes.len() });
            }
            let mut out = vec![0.0f64; words];
            for c in bytes[SPARSE_HEADER_BYTES..need].chunks_exact(COORD_BYTES) {
                let i = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize;
                if i >= words {
                    return Err(CodecError::BadCoordinate { index: i, words });
                }
                let mut b = [0u8; 8];
                b.copy_from_slice(&c[4..12]);
                out[i] = f64::from_bits(u64::from_le_bytes(b));
            }
            Ok(out)
        }
        other => Err(CodecError::BadTag { tag: other }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn payload(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
                let mant = (x % 2003) as f64 - 1001.0;
                let exp = ((x >> 11) % 24) as i32 - 12;
                mant * pow2(exp)
            })
            .collect()
    }

    #[test]
    fn dense_round_trip_is_the_identity_on_bits() {
        let data = vec![1.5, -0.0, f64::NAN, f64::INFINITY, 1e-300, -7.25];
        let (enc, stats) = WireRepr::DenseF64.encode(&data);
        assert_eq!(enc.bytes.len(), WireRepr::DenseF64.payload_bytes(data.len()));
        assert_eq!(stats.wire_bytes, stats.dense_bytes);
        let back = WireRepr::DenseF64.decode(&enc.bytes).expect("well formed");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&data));
    }

    #[test]
    fn fixed_point_error_stays_within_half_a_quantum() {
        let repr = WireRepr::FixedPoint { frac_bits: 20 };
        let data = payload(513, 7);
        let (enc, stats) = repr.encode(&data);
        assert_eq!(enc.bytes.len(), repr.payload_bytes(data.len()));
        assert_eq!(stats.clipped, 0);
        let scale_exp = enc.bytes[0];
        let back = repr.decode(&enc.bytes).expect("well formed");
        let bound = pow2(-(scale_exp as i32 + 1));
        for (x, y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= bound, "{x} vs {y} beyond {bound}");
        }
    }

    #[test]
    fn fixed_point_scale_shrinks_for_large_magnitudes() {
        let data = vec![1.0e6, -2.5e6, 3.0];
        let (scale_exp, values, clipped) = quantize_fixed(&data, 24);
        assert_eq!(clipped, 0);
        assert!(scale_exp < 24, "2.5e6 · 2²⁴ overflows i32, scale must shrink");
        let back = dequantize_fixed(scale_exp, &values);
        let bound = pow2(-(scale_exp as i32 + 1));
        for (x, y) in data.iter().zip(&back) {
            assert!((x - y).abs() <= bound);
        }
    }

    #[test]
    fn fixed_point_clips_non_finite_and_overflowing_values() {
        let data = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0e300, 0.5];
        let (scale_exp, values, clipped) = quantize_fixed(&data, 24);
        assert_eq!(scale_exp, 0, "1e300 forces the scale to the floor");
        assert_eq!(clipped, 4);
        assert_eq!(values[0], 0);
        assert_eq!(values[1], i32::MAX);
        assert_eq!(values[2], -i32::MAX);
        assert_eq!(values[3], i32::MAX);
        assert_eq!(values[4], 1, "0.5 rounds half away from zero at scale 0");
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes_and_breaks_ties_low() {
        let data = vec![1.0, -5.0, 2.0, 5.0, 0.0];
        let repr = WireRepr::TopK { k: 2 };
        let (enc, stats) = repr.encode(&data);
        assert_eq!(enc.bytes.len(), repr.payload_bytes(data.len()));
        assert_eq!(stats.dropped, 3);
        let back = repr.decode(&enc.bytes).expect("well formed");
        // |−5| ties |5|: index 1 wins over index 3.
        assert_eq!(back, vec![0.0, -5.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn top_k_transmits_exactly_min_k_words_coordinates() {
        for (len, k) in [(10usize, 3usize), (3, 10), (5, 5), (0, 4)] {
            let data = payload(len, 11);
            let (enc, _) = WireRepr::TopK { k }.encode(&data);
            if len == 0 {
                assert!(enc.bytes.is_empty());
                continue;
            }
            let count =
                u32::from_le_bytes([enc.bytes[0], enc.bytes[1], enc.bytes[2], enc.bytes[3]]);
            assert_eq!(count as usize, k.min(len));
        }
    }

    #[test]
    fn transform_matches_decode_of_encode_bitwise() {
        let reprs = [
            WireRepr::DenseF64,
            WireRepr::FixedPoint { frac_bits: 24 },
            WireRepr::FixedPoint { frac_bits: 3 },
            WireRepr::TopK { k: 7 },
            WireRepr::TopK { k: 10_000 },
        ];
        for repr in reprs {
            for len in [0usize, 1, 8, 100, 1025] {
                let data = payload(len, 3);
                let (enc, es) = repr.encode(&data);
                let via_bytes = repr.decode(&enc.bytes).expect("well formed");
                let (direct, ts) = repr.transform(&data);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&via_bytes), bits(&direct), "{repr:?} len={len}");
                assert_eq!(es, ts, "{repr:?} len={len}");
            }
        }
    }

    #[test]
    fn wire_re_encode_of_a_sparsified_chunk_is_lossless() {
        // More survivors than the budget, a negative zero, a NaN: every
        // non-zero bit pattern travels, whatever `k` was.
        let (mut sparse, _) = WireRepr::TopK { k: 9 }.transform(&payload(200, 5));
        sparse[3] = -0.0;
        sparse[4] = f64::NAN;
        let back = decode_tagged(WireRepr::TopK { k: 2 }.tag(), &encode_wire(&sparse));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.expect("well formed")), bits(&sparse));
        assert!(encode_wire(&[]).is_empty());
    }

    #[test]
    fn size_law_is_exact_and_zero_for_empty_payloads() {
        for repr in
            [WireRepr::DenseF64, WireRepr::FixedPoint { frac_bits: 24 }, WireRepr::TopK { k: 32 }]
        {
            assert_eq!(repr.payload_bytes(0), 0);
            for words in [1usize, 31, 32, 33, 4096] {
                let (enc, _) = repr.encode(&payload(words, 1));
                assert_eq!(enc.bytes.len(), repr.payload_bytes(words), "{repr:?} {words}");
            }
        }
        assert_eq!(WireRepr::DenseF64.payload_bytes(10), 80);
        assert_eq!(WireRepr::FixedPoint { frac_bits: 24 }.payload_bytes(10), 48);
        assert_eq!(WireRepr::TopK { k: 4 }.payload_bytes(10), 8 + 4 * 12);
    }

    #[test]
    fn malformed_payloads_are_typed_errors_never_panics() {
        assert!(matches!(decode_tagged(9, &[]), Err(CodecError::BadTag { tag: 9 })));
        assert!(matches!(decode_tagged(1, &[1, 0, 0]), Err(CodecError::Truncated { .. })));
        assert!(matches!(decode_tagged(0, &[0; 7]), Err(CodecError::Truncated { .. })));
        // A fixed-point header is read strictly: scale exponent in
        // range, reserved bytes zero, nothing after the last value.
        let (good, _) = WireRepr::FixedPoint { frac_bits: 8 }.encode(&[0.5, -1.25]);
        assert!(decode_tagged(1, &good.bytes).is_ok());
        let bent = |at: usize, to: u8| {
            let mut bytes = good.bytes.clone();
            bytes[at] = to;
            decode_tagged(1, &bytes)
        };
        assert_eq!(
            bent(0, MAX_SCALE_EXP + 1),
            Err(CodecError::BadHeader { scale_exp: MAX_SCALE_EXP + 1, reserved: [0; 3] })
        );
        assert_eq!(bent(0, MAX_SCALE_EXP).map(|v| v.len()), Ok(2));
        for at in 1..4 {
            assert!(matches!(bent(at, 1), Err(CodecError::BadHeader { scale_exp: 8, .. })));
        }
        let mut long = good.bytes.clone();
        long.push(0);
        assert_eq!(decode_tagged(1, &long), Err(CodecError::Trailing { expected: 16, got: 17 }));
        assert_eq!(
            decode_tagged(1, &good.bytes[..15]),
            Err(CodecError::Truncated { needed: 16, got: 15 })
        );
        // Sparse header claiming 2 coords over 1 word.
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(decode_tagged(2, &bad), Err(CodecError::BadCoordinate { .. })));
        // Coordinate index out of range.
        let mut oob = Vec::new();
        oob.extend_from_slice(&1u32.to_le_bytes());
        oob.extend_from_slice(&4u32.to_le_bytes());
        oob.extend_from_slice(&9u32.to_le_bytes());
        oob.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_tagged(2, &oob),
            Err(CodecError::BadCoordinate { index: 9, words: 4 })
        ));
    }

    #[test]
    fn parse_covers_the_cli_vocabulary() {
        assert_eq!(WireRepr::parse("dense_f64"), Some(WireRepr::DenseF64));
        assert_eq!(WireRepr::parse("dense"), Some(WireRepr::DenseF64));
        assert_eq!(
            WireRepr::parse("fixed_point"),
            Some(WireRepr::FixedPoint { frac_bits: DEFAULT_FRAC_BITS })
        );
        assert_eq!(WireRepr::parse("fixed_point:12"), Some(WireRepr::FixedPoint { frac_bits: 12 }));
        assert_eq!(WireRepr::parse("top_k:64"), Some(WireRepr::TopK { k: 64 }));
        assert_eq!(WireRepr::parse("top_k"), Some(WireRepr::TopK { k: DEFAULT_TOP_K }));
        assert_eq!(WireRepr::parse("top_k:0"), None);
        assert_eq!(WireRepr::parse("fixed_point:99"), None);
        assert_eq!(WireRepr::parse("zstd"), None);
        assert_eq!(WireRepr::default().label(), "dense_f64");
    }

    /// `derive_scale` as it was before the lane reduction: one
    /// `is_finite`/`max` chain.
    fn derive_scale_reference(data: &[f64], frac_bits: u8) -> u8 {
        let mut max_abs = 0.0f64;
        for &x in data {
            if x.is_finite() {
                max_abs = max_abs.max(x.abs());
            }
        }
        scale_for_peak(max_abs, frac_bits)
    }

    /// `quantize_into` as it was before the rounding trick: `f64::round`
    /// and comparisons on the rounded value.
    fn quantize_reference(data: &[f64], scale_exp: u8) -> (Vec<i32>, u64) {
        let s = pow2(i32::from(scale_exp));
        let mut clipped = 0u64;
        let values = data
            .iter()
            .map(|&x| {
                if x.is_nan() {
                    clipped += 1;
                    return 0;
                }
                let r = (x * s).round();
                if r > i32::MAX as f64 {
                    clipped += 1;
                    i32::MAX
                } else if r < -(i32::MAX as f64) {
                    clipped += 1;
                    -i32::MAX
                } else {
                    r as i32
                }
            })
            .collect();
        (values, clipped)
    }

    /// `top_k_coords` as a full sort under the same total order.
    fn top_k_reference(data: &[f64], k: usize) -> (Vec<(u32, f64)>, u64) {
        let kept = k.min(data.len());
        let mut order: Vec<u32> = (0..data.len() as u32).collect();
        order.sort_by(|&a, &b| {
            abs_bits(data[b as usize]).cmp(&abs_bits(data[a as usize])).then(a.cmp(&b))
        });
        order.truncate(kept);
        order.sort_unstable();
        (order.into_iter().map(|i| (i, data[i as usize])).collect(), (data.len() - kept) as u64)
    }

    /// The scale exponents the differential tests sweep: both ends, the
    /// defaults, and where `i32` and the shift budget bite.
    const SCALES: [u8; 6] = [0, 1, 20, 24, 31, 62];

    fn assert_quantizer_matches_reference(data: &[f64], scale_exp: u8) {
        let (expect, expect_clipped) = quantize_reference(data, scale_exp);
        let mut got = vec![i32::MIN; data.len()];
        let clipped = quantize_into(data, scale_exp, &mut got);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(
                g,
                e,
                "word {i} = {:e} ({:#x}) at 2^{scale_exp}",
                data[i],
                data[i].to_bits()
            );
        }
        assert_eq!(clipped, expect_clipped, "clipped at 2^{scale_exp}");
    }

    #[test]
    fn quantizer_and_scale_match_their_references_on_the_named_edges() {
        let two31 = 2_147_483_648.0f64;
        let two52 = 4_503_599_627_370_496.0f64;
        let mut edges = vec![f64::NAN, f64::MIN_POSITIVE, 5e-324, f64::MAX, 0.3, 1e-9];
        edges.extend([
            0.0,
            0.5,
            0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            1.5,
            2.5,
            2_147_483_647.0,
            2_147_483_647.499_999_8,
            2_147_483_647.5,
            two31,
            two31 + 0.5,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            f64::INFINITY,
        ]);
        let signed: Vec<f64> = edges.iter().flat_map(|&v| [v, -v]).collect();
        for scale_exp in SCALES {
            // The edges name *scaled* values: feed `v · 2⁻ᵉ` so the
            // kernel rounds exactly `v` (the division is exact).
            let scaled: Vec<f64> = signed.iter().map(|v| v * pow2(-i32::from(scale_exp))).collect();
            assert_quantizer_matches_reference(&scaled, scale_exp);
            assert_quantizer_matches_reference(&signed, scale_exp);
        }
        for frac_bits in SCALES {
            for window in 1..=signed.len() {
                for data in [&signed[..window], &signed[signed.len() - window..]] {
                    assert_eq!(
                        derive_scale(data, frac_bits),
                        derive_scale_reference(data, frac_bits),
                        "{data:?} at {frac_bits}"
                    );
                }
            }
        }
    }

    proptest! {
        /// Raw bit patterns — NaN payloads, subnormals, both infinities
        /// — through both kernels and their references, at every swept
        /// exponent; lengths straddle the eight-lane reduction.
        #[test]
        fn quantizer_and_scale_match_their_references_on_raw_bits(
            bits in prop::collection::vec(any::<u64>(), 0..70),
            near in prop::collection::vec(any::<u32>(), 0..70),
        ) {
            let mut data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            // Raw patterns are almost never near a rounding boundary:
            // add half-integers and their f64 neighbours.
            for &n in &near {
                let half = f64::from(n >> 2) - 536_870_912.0 + 0.5;
                let nudged = f64::from_bits(half.to_bits().wrapping_add(u64::from(n & 3)) - 1);
                data.push(nudged);
            }
            for scale_exp in SCALES {
                assert_quantizer_matches_reference(&data, scale_exp);
                let scaled: Vec<f64> =
                    data.iter().map(|v| v * pow2(-i32::from(scale_exp))).collect();
                assert_quantizer_matches_reference(&scaled, scale_exp);
                prop_assert_eq!(
                    derive_scale(&data, scale_exp),
                    derive_scale_reference(&data, scale_exp)
                );
                prop_assert_eq!(
                    derive_scale(&scaled, scale_exp),
                    derive_scale_reference(&scaled, scale_exp)
                );
            }
        }

        /// The selection keeps exactly what the full sort keeps: heavy
        /// ties (three-bit magnitudes), NaN, ±0, `k = 1`, `k ≥ len`.
        #[test]
        fn top_k_selection_equals_the_full_sort(
            raw in prop::collection::vec(any::<u64>(), 0..300),
            tied in any::<bool>(),
            k in 0usize..320,
        ) {
            let palette = [0.0, -0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, 5e-324, -2.5];
            let data: Vec<f64> = raw
                .iter()
                .map(|&b| if tied { palette[(b % 8) as usize] } else { f64::from_bits(b) })
                .collect();
            for k in [k, 1, data.len(), data.len() + 1] {
                let (got, dropped) = top_k_coords(&data, k);
                let (expect, expect_dropped) = top_k_reference(&data, k);
                let bits = |c: &[(u32, f64)]| {
                    c.iter().map(|&(i, v)| (i, v.to_bits())).collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&got), bits(&expect), "k = {}", k);
                prop_assert_eq!(dropped, expect_dropped);
            }
        }
    }
}

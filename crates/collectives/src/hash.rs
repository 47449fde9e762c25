//! The stack's two checksum routines, and which bytes get which.
//!
//! - [`Fnv1a`] — streaming, byte-serial 64-bit FNV-1a — hashes the
//!   *small* formats: model checkpoints, the director journal and
//!   checkpoints, the schedule-cache fingerprint, a chunk's offset and
//!   a wire frame's 37 header bytes. Their bytes are pinned by goldens,
//!   and at one multiply per byte (~1 GiB/s) nobody waits on them.
//! - [`payload_digest`] — a bulk, word-wide digest — covers the *large*
//!   thing, a chunk's or frame's f64 payload, at memory speed: four
//!   independent xor-multiply lanes instead of one eight-multiplies-
//!   per-word dependency chain. A chunk checksum is
//!   `Fnv1a(offset) ‖ digest`, a frame trailer `Fnv1a(header) ‖ digest`,
//!   where `‖` is [`Fnv1a::write_digest`]. [`encode_with_digest`] and
//!   [`decode_with_digest`] compute it in the same pass that writes or
//!   reads a frame payload's little-endian bytes: one pass per side.
//!
//! Both live here because this is the lowest crate `cosmic-runtime` and
//! `cosmic-director` share. Neither is a defence against crafted
//! collisions; what the fault model needs, and both give, is:
//!
//! **Any change confined to one payload word, one prefix byte, or the
//! stored sum itself is detected with certainty.** Every step is
//! `state' = (state ^ input) * PRIME` with `PRIME` odd, so it is a
//! bijection of the state for a fixed input and of the input for a
//! fixed state. (1) Change one payload word: its lane leaves that step
//! changed, and every later step of that lane — same inputs — keeps it
//! changed; the other lanes and the word count do not move, so the
//! combine, a chain of the same steps over `count, lane 0..3`, ends
//! changed: the digest differs. (2) A different digest entering
//! `write_digest` on the same prefix state yields a different sum.
//! (3) Change one prefix byte: the byte-serial state differs from that
//! byte on, and `write_digest` of the same digest keeps it different.
//! This is why the digest is seed-free and enters as **one** word-wide
//! step: the eight byte steps of [`Fnv1a::write_u64`] carry no such
//! guarantee for a word that changes in several bytes at once (a 16-bit
//! model of them — two byte steps, prime `0x1b3` — maps 2¹⁶ words onto
//! 83 % of its states). Changes that span several words are caught with
//! the usual ~2⁻⁶⁴ odds, not with certainty.

/// A running FNV-1a hash: start from [`Fnv1a::default`], feed it with
/// [`Fnv1a::write_bytes`] / [`Fnv1a::write_u64`], read it with
/// [`Fnv1a::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The one step everything here is made of.
    #[inline]
    const fn step(state: u64, input: u64) -> u64 {
        (state ^ input).wrapping_mul(Self::PRIME)
    }

    #[inline]
    fn write_byte(&mut self, byte: u8) {
        self.0 = Self::step(self.0, u64::from(byte));
    }

    /// Folds `bytes` into the hash, in order.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    /// Folds the eight little-endian bytes of `value` into the hash.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        // By-value array iteration so the eight steps unroll: going
        // through `write_bytes`' slice loop measured ~10% slower on the
        // per-word callers (topology fingerprint).
        for b in value.to_le_bytes() {
            self.write_byte(b);
        }
    }

    /// Folds a [`payload_digest`] in as one word-wide step, so that a
    /// changed digest always changes the hash (see the module doc).
    #[inline]
    pub fn write_digest(&mut self, digest: u64) {
        self.0 = Self::step(self.0, digest);
    }

    /// The hash of everything written so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    /// A hasher at the offset basis (the hash of no bytes).
    #[inline]
    fn default() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

/// Lanes in [`payload_digest`]: enough independent multiply chains to
/// hide the multiplier's latency.
const LANES: usize = 4;

/// Steps `word` into `lane`. The word's high half is first xored onto
/// its low half (an involution, so still a bijection of the word): a
/// bare multiply only carries upwards, which would leave an f64's sign
/// bit touching bit 63 of the state alone — and two sign flips anywhere
/// in a payload cancelling exactly.
#[inline]
fn lane_step(lane: &mut u64, word: f64) {
    let bits = word.to_bits();
    *lane = Fnv1a::step(*lane, bits ^ (bits >> 32));
}

/// The bulk digest of a payload: word *i* steps into lane *i* mod 4,
/// then the word count and the four lanes step, in that order, into one
/// hash. Seed-free; fold it under a prefix with [`Fnv1a::write_digest`].
/// Deterministic across platforms (wrapping integer arithmetic on the
/// words' bit patterns), and certain to change when one word does — the
/// module doc has the argument.
pub fn payload_digest(words: &[f64]) -> u64 {
    let mut lanes = [Fnv1a::OFFSET; LANES];
    let mut quads = words.chunks_exact(LANES);
    for quad in &mut quads {
        for (lane, &word) in lanes.iter_mut().zip(quad) {
            lane_step(lane, word);
        }
    }
    for (lane, &word) in lanes.iter_mut().zip(quads.remainder()) {
        lane_step(lane, word);
    }
    combine(words.len(), lanes)
}

/// [`payload_digest`] of `words`, computed while appending their
/// little-endian bytes to `out`: a frame's encoder reads its payload
/// once, not once to digest and once to write. (`out` grows zeroed and
/// is then written in place: measured faster than appending a word at
/// a time.)
pub fn encode_with_digest(words: &[f64], out: &mut Vec<u8>) -> u64 {
    combine(words.len(), encode_lanes(words, [Fnv1a::OFFSET; LANES], out))
}

/// [`encode_with_digest`] of `head` followed by `tail`, written one
/// after the other: a payload that is a leading word and a view of
/// someone else's words is digested without first being gathered.
pub fn encode_parts_with_digest(head: &[f64], tail: &[f64], out: &mut Vec<u8>) -> u64 {
    // Word `i` of `tail` is payload word `head.len() + i`: its lane is
    // reached by rotating the lanes by the head's length and back.
    let shift = head.len() % LANES;
    let lanes = encode_lanes(head, [Fnv1a::OFFSET; LANES], out);
    let lanes = encode_lanes(tail, rotated(lanes, shift), out);
    combine(head.len() + tail.len(), rotated(lanes, LANES - shift))
}

/// `lanes` rotated left by `by` (mod 4), by value: a rotation through a
/// slice would keep the lanes in memory, and the bulk loop at half speed.
#[inline(always)]
fn rotated(lanes: [u64; LANES], by: usize) -> [u64; LANES] {
    let [a, b, c, d] = lanes;
    match by % LANES {
        0 => [a, b, c, d],
        1 => [b, c, d, a],
        2 => [c, d, a, b],
        _ => [d, a, b, c],
    }
}

/// Appends `words`' little-endian bytes to `out`, stepping word `i` into
/// `lanes[i % 4]`. (Always inlined: left to the inliner, the loop was
/// measured at about half the speed of the same loop written inline.)
#[inline(always)]
fn encode_lanes(words: &[f64], mut lanes: [u64; LANES], out: &mut Vec<u8>) -> [u64; LANES] {
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    let mut quads = words.chunks_exact(LANES);
    let mut slots = out[start..].chunks_exact_mut(8 * LANES);
    for (quad, slot) in (&mut quads).zip(&mut slots) {
        for ((lane, &word), le) in lanes.iter_mut().zip(quad).zip(slot.chunks_exact_mut(8)) {
            le.copy_from_slice(&word.to_bits().to_le_bytes());
            lane_step(lane, word);
        }
    }
    let tail = slots.into_remainder().chunks_exact_mut(8);
    for ((lane, &word), le) in lanes.iter_mut().zip(quads.remainder()).zip(tail) {
        le.copy_from_slice(&word.to_bits().to_le_bytes());
        lane_step(lane, word);
    }
    lanes
}

/// Appends the words `bytes` spells — little-endian, eight bytes each; a
/// ragged tail is not a word and is skipped — to `out`, and returns
/// their [`payload_digest`], computed in the same pass.
pub fn decode_with_digest(bytes: &[u8], out: &mut Vec<f64>) -> u64 {
    let (start, count) = (out.len(), bytes.len() / 8);
    out.resize(start + count, 0.0);
    let mut lanes = [Fnv1a::OFFSET; LANES];
    let mut quads = bytes.chunks_exact(8 * LANES);
    let mut slots = out[start..].chunks_exact_mut(LANES);
    for (quad, slot) in (&mut quads).zip(&mut slots) {
        for ((lane, le), word) in lanes.iter_mut().zip(quad.chunks_exact(8)).zip(slot) {
            *word = word_of(le);
            lane_step(lane, *word);
        }
    }
    let tail = quads.remainder().chunks_exact(8);
    for ((lane, le), word) in lanes.iter_mut().zip(tail).zip(slots.into_remainder()) {
        *word = word_of(le);
        lane_step(lane, *word);
    }
    combine(count, lanes)
}

/// The f64 whose little-endian bits are the eight bytes `le`.
#[inline]
fn word_of(le: &[u8]) -> f64 {
    let mut bits = [0u8; 8];
    bits.copy_from_slice(le);
    f64::from_bits(u64::from_le_bytes(bits))
}

/// The digest's last stage: the word count, then each lane, stepped
/// into one hash.
#[inline]
fn combine(count: usize, lanes: [u64; LANES]) -> u64 {
    lanes.into_iter().fold(Fnv1a::step(Fnv1a::OFFSET, count as u64), Fnv1a::step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Stripe length of the runtime's chunks (`cosmic_runtime::CHUNK_WORDS`
    /// — the runtime depends on this crate, not the other way round).
    const CHUNK_WORDS: usize = 4096;

    /// `payload_digest` one word at a time, lane picked by index.
    fn reference(words: &[f64]) -> u64 {
        let mut lanes = [Fnv1a::OFFSET; LANES];
        for (i, &word) in words.iter().enumerate() {
            lane_step(&mut lanes[i % LANES], word);
        }
        let mut hash = Fnv1a::default();
        hash.write_digest(words.len() as u64);
        for lane in lanes {
            hash.write_digest(lane);
        }
        hash.finish()
    }

    /// A seeded payload with every bit position exercised.
    fn pattern(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state =
                    state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e_f767_814f);
                f64::from_bits(state ^ (state >> 29))
            })
            .collect()
    }

    proptest! {
        /// The unrolled routine is the per-word reference, ragged
        /// lanes (lengths not a multiple of four) included.
        #[test]
        fn digest_equals_the_word_at_a_time_reference(
            len in 0usize..4 * CHUNK_WORDS + 4,
            seed in any::<u64>(),
        ) {
            let words = pattern(len, seed);
            prop_assert_eq!(payload_digest(&words), reference(&words));
        }

        /// Encoding while digesting writes exactly the words' LE bytes
        /// after whatever `out` held, and digests them exactly as
        /// `payload_digest` does; decoding reads them back, bit for bit,
        /// with the same digest.
        #[test]
        fn fused_codec_passes_are_payload_digest(
            len in 0usize..4 * CHUNK_WORDS + 4,
            seed in any::<u64>(),
            prefix in 0usize..9,
        ) {
            let words = pattern(len, seed);
            let mut bytes = vec![0xA5; prefix];
            prop_assert_eq!(encode_with_digest(&words, &mut bytes), payload_digest(&words));
            let expect: Vec<u8> = words.iter().flat_map(|w| w.to_bits().to_le_bytes()).collect();
            prop_assert_eq!(&bytes[prefix..], &expect[..]);
            let mut back = vec![1.5; prefix];
            prop_assert_eq!(decode_with_digest(&bytes[prefix..], &mut back), payload_digest(&words));
            let bits = |v: &[f64]| v.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back[prefix..]), bits(&words));
        }
    }

    #[test]
    fn a_payload_in_parts_digests_as_one() {
        let words = pattern(2 * LANES + 3, 13);
        let mut whole = Vec::new();
        encode_with_digest(&words, &mut whole);
        for cut in 0..=words.len() {
            let mut bytes = Vec::new();
            let (head, tail) = words.split_at(cut);
            assert_eq!(encode_parts_with_digest(head, tail, &mut bytes), payload_digest(&words));
            assert_eq!(bytes, whole, "cut at {cut}");
        }
    }

    #[test]
    fn decoding_skips_a_ragged_tail() {
        let words = pattern(5, 9);
        let mut bytes = Vec::new();
        encode_with_digest(&words, &mut bytes);
        bytes.extend_from_slice(&[7, 7, 7]);
        let mut back = Vec::new();
        assert_eq!(decode_with_digest(&bytes, &mut back), payload_digest(&words));
        assert_eq!(back.len(), words.len());
    }

    #[test]
    fn short_payloads_match_the_reference_at_every_length() {
        let words = pattern(4 * LANES + 3, 7);
        for len in 0..=words.len() {
            assert_eq!(payload_digest(&words[..len]), reference(&words[..len]), "len {len}");
        }
    }

    #[test]
    fn substituting_any_one_word_changes_the_digest() {
        let mut words = pattern(CHUNK_WORDS + 17, 11);
        let sealed = payload_digest(&words);
        // Substitutions a multiply-only mix is weakest against: the
        // sign bit, the lowest bit, a zeroed word, and all bits.
        let edits: [fn(u64) -> u64; 4] = [|b| b ^ (1 << 63), |b| b ^ 1, |_| 0, |b| !b];
        for at in 0..words.len() {
            let original = words[at];
            for edit in edits {
                let bent = edit(original.to_bits());
                if bent == original.to_bits() {
                    continue;
                }
                words[at] = f64::from_bits(bent);
                assert_ne!(payload_digest(&words), sealed, "word {at} -> {bent:#x} undetected");
            }
            words[at] = original;
        }
        assert_eq!(payload_digest(&words), sealed);
    }

    #[test]
    fn sign_flips_do_not_cancel() {
        // Two sign flips, same lane and across lanes: the upward-only
        // carry of a bare word multiply would cancel both exactly.
        let words = pattern(64, 3);
        let sealed = payload_digest(&words);
        for (a, b) in [(0, 4), (0, 1), (5, 61), (62, 63)] {
            let mut bent = words.clone();
            for at in [a, b] {
                bent[at] = -bent[at];
            }
            assert_ne!(payload_digest(&bent), sealed, "sign flips at {a} and {b} cancelled");
        }
    }

    #[test]
    fn length_extension_by_a_zero_word_changes_the_digest() {
        for len in [0, 1, 3, 4, 5, CHUNK_WORDS, CHUNK_WORDS + 17] {
            let mut words = pattern(len, 5);
            let sealed = payload_digest(&words);
            words.push(0.0);
            assert_ne!(payload_digest(&words), sealed, "len {len}");
        }
        assert_ne!(payload_digest(&[]), payload_digest(&[0.0]));
    }

    #[test]
    fn a_changed_digest_or_prefix_byte_always_changes_the_sealed_sum() {
        let seal = |prefix: &[u8], digest: u64| {
            let mut hash = Fnv1a::default();
            hash.write_bytes(prefix);
            hash.write_digest(digest);
            hash.finish()
        };
        let prefix = *b"thirty-seven header bytes, or so.....";
        let digest = payload_digest(&pattern(5, 1));
        let sealed = seal(&prefix, digest);
        for bit in 0..64 {
            assert_ne!(seal(&prefix, digest ^ (1 << bit)), sealed, "digest bit {bit}");
        }
        for byte in 0..prefix.len() {
            for bit in 0..8 {
                let mut bent = prefix;
                bent[byte] ^= 1 << bit;
                assert_ne!(seal(&bent, digest), sealed, "prefix byte {byte} bit {bit}");
            }
        }
    }
}

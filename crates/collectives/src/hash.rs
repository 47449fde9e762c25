//! The stack's one checksum: streaming 64-bit FNV-1a.
//!
//! Chunks, wire frames, model checkpoints, the director journal, and the
//! schedule-cache fingerprint all hash through this type, so the
//! constants and the byte step exist once. It lives here because this is
//! the lowest crate both `cosmic-runtime` and `cosmic-director` depend
//! on. Cheap, deterministic across platforms, and sensitive to any
//! single-bit flip — all a seeded simulator needs from a checksum (it is
//! not a defence against crafted collisions).

/// A running FNV-1a hash: start from [`Fnv1a::default`], feed it with
/// [`Fnv1a::write_bytes`] / [`Fnv1a::write_u64`], read it with
/// [`Fnv1a::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    fn write_byte(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
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

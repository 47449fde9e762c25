//! Shared shard- and chunk-size arithmetic for the runtime.
//!
//! The trainer, the checkpoint store, and the timing model all slice
//! the same two things: a model vector into wire chunks, and a
//! mini-batch into per-worker shards. Before this module each did its
//! own `div_ceil` with subtly different `.max(1)` clamps; these helpers
//! are the single source of truth so the three layers can never drift
//! apart on how big a chunk or a shard is.

/// Words (f64 model parameters) per chunk handed from the wire to Sigma
/// (the "smaller portions of data" of paper §3).
pub const CHUNK_WORDS: usize = 4096;

/// Bytes per model word on the wire and in checkpoints (the runtime
/// trains in `f64`). The constant itself lives with the codec's size
/// law in `cosmic-collectives` — one source of truth, re-exported here
/// so the layout arithmetic and the wire accounting can never drift.
pub(crate) use cosmic_collectives::codec::WORD_BYTES;

/// Nearly-equal shard size when `total` items are split across `parts`
/// workers: the ceiling division every partitioner in the stack uses.
/// `parts == 0` clamps to one part instead of dividing by zero.
pub(crate) fn shard_size(total: usize, parts: usize) -> usize {
    total.div_ceil(parts.max(1))
}

/// Chunks needed to ship a vector of `words` parameters. An empty
/// vector still occupies one (empty) chunk slot in the ring — the
/// Sigma pipeline sizes its stripes by this, so the clamp to 1 is part
/// of the protocol, not a convenience.
pub(crate) fn chunk_count(words: usize) -> usize {
    words.div_ceil(CHUNK_WORDS).max(1)
}

/// [`chunk_count`] for a payload expressed in bytes (the timing model's
/// `exchange_bytes`), using the same one-chunk floor.
pub(crate) fn chunk_count_bytes(bytes: usize) -> usize {
    bytes.div_ceil(CHUNK_WORDS * WORD_BYTES).max(1)
}

/// Model words that fit a payload of `bytes` (ceiling — a ragged tail
/// byte still needs a whole word).
pub(crate) fn words_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(WORD_BYTES)
}

/// Bytes occupied by a vector of `words` model parameters (snapshot and
/// replay-log accounting in the checkpoint store).
pub(crate) fn vector_bytes(words: usize) -> usize {
    words * WORD_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_size_is_ceiling_division() {
        assert_eq!(shard_size(10, 4), 3);
        assert_eq!(shard_size(8, 4), 2);
        assert_eq!(shard_size(0, 4), 0);
        assert_eq!(shard_size(5, 0), 5, "zero parts clamps to one");
    }

    #[test]
    fn chunk_count_floors_at_one() {
        assert_eq!(chunk_count(0), 1);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(CHUNK_WORDS), 1);
        assert_eq!(chunk_count(CHUNK_WORDS + 1), 2);
        assert_eq!(chunk_count_bytes(0), 1);
        assert_eq!(chunk_count_bytes(CHUNK_WORDS * WORD_BYTES + 1), 2);
    }

    #[test]
    fn byte_and_word_round_trips_agree() {
        assert_eq!(words_for_bytes(0), 0);
        assert_eq!(words_for_bytes(1), 1);
        assert_eq!(words_for_bytes(8), 1);
        assert_eq!(words_for_bytes(9), 2);
        assert_eq!(vector_bytes(3), 24);
        for words in [0usize, 1, 7, CHUNK_WORDS, 3 * CHUNK_WORDS + 17] {
            assert_eq!(chunk_count_bytes(vector_bytes(words).max(1)), chunk_count(words.max(1)));
        }
    }
}

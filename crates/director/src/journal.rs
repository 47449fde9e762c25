//! The director's checksummed write-ahead decision journal.
//!
//! Every decision the director takes — admit, reject, shed, grant,
//! grow, shrink, complete, crash handling, quarantine — is appended
//! to the journal *before* it takes effect. Because the director's
//! event loop is a pure function of (config, arrival plan, fault
//! plan), the journal is exactly the information needed to rebuild
//! the control plane after a crash: [`crate::Director::recover`]
//! replays the loop deterministically, verifying each re-derived
//! decision against the journaled record, and resumes live operation
//! where the journal ends. A journal written by a different
//! (config, plan) pair — or a corrupted one — surfaces as a typed
//! divergence error instead of silently forking the cluster state.
//!
//! ## Wire format
//!
//! Each record is length-prefixed and checksummed independently:
//!
//! ```text
//! [u32 payload_len (LE)] [payload bytes] [u64 FNV-1a(payload) (LE)]
//! ```
//!
//! The payload is `[u64 event_index] [f64 at_s bits] [u8 tag] fields`,
//! all little-endian, with `Vec<u32>` as a `u32` count plus items and
//! strings as a `u32` length plus UTF-8 bytes. A record whose length
//! prefix overruns the buffer or whose checksum fails is *torn* — a
//! director killed mid-write — and [`Journal::decode`] rolls the tail
//! back to the last complete record, exactly like a database WAL.

use cosmic_collectives::Fnv1a;

use crate::error::DirectorError;

/// FNV-1a over a byte slice — the same [`Fnv1a`] the runtime seals
/// model checkpoints and chunk and frame headers with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write_bytes(bytes);
    hash.finish()
}

/// Why a job was shed instead of queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded admission queue was full when the job arrived.
    QueueFull,
    /// The job's SLA deadline is unreachable under the current
    /// backlog estimate (`now + backlog + ideal JCT > deadline`; with
    /// zero backlog the bound is exact, so the shed is provable).
    DeadlineUnreachable,
}

impl ShedReason {
    /// Stable label for reports and telemetry.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineUnreachable => "deadline_unreachable",
        }
    }

    fn tag(self) -> u8 {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::DeadlineUnreachable => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ShedReason::QueueFull),
            1 => Some(ShedReason::DeadlineUnreachable),
            _ => None,
        }
    }
}

/// One director decision, journaled before it takes effect.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// An arrival passed admission validation and joined the queue.
    Submit {
        /// The submitted job.
        job: usize,
    },
    /// An arrival failed admission validation.
    Reject {
        /// The rejected job.
        job: usize,
        /// Human-readable validation failure.
        reason: String,
    },
    /// A job was shed by overload control (never admitted, or evicted
    /// from the queue when its deadline became unreachable).
    Shed {
        /// The shed job.
        job: usize,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// A queued job was granted an initial carve-out.
    Admit {
        /// The admitted job.
        job: usize,
        /// Physical nodes granted, ascending.
        grant: Vec<usize>,
    },
    /// An elastic grow funded more of a running job's slots.
    Grow {
        /// The resized job.
        job: usize,
        /// Physical nodes absorbed, in absorption order.
        nodes: Vec<usize>,
    },
    /// An elastic shrink (or slab loss) defunded slots.
    Shrink {
        /// The resized job.
        job: usize,
        /// Physical nodes released, in release order.
        nodes: Vec<usize>,
    },
    /// A running job finished its last round.
    Complete {
        /// The finished job.
        job: usize,
    },
    /// A whole-job crash: the carve-out is lost, the job rolls back
    /// to its last checkpoint and re-enters admission.
    Crash {
        /// The crashed job.
        job: usize,
        /// The checkpointed round count the job rolls back to.
        rollback_rounds: usize,
    },
    /// A correlated slab failure took physical nodes out of service.
    Slab {
        /// First dead node.
        lo: usize,
        /// Contiguous dead-node count.
        len: usize,
    },
    /// A dead slab returned to service.
    SlabRepair {
        /// First repaired node.
        lo: usize,
        /// Contiguous repaired-node count.
        len: usize,
    },
    /// A crashed job's checkpoint replay succeeded at re-admission;
    /// the job resumes from its checkpointed round count.
    Restart {
        /// The restarted job.
        job: usize,
        /// The round count it resumes from.
        rounds: usize,
    },
    /// A crashed job's checkpoint replay failed at re-admission; the
    /// grant is returned and the retry is scheduled with backoff.
    PoisonRetry {
        /// The failing job.
        job: usize,
        /// 1-based replay attempt number.
        attempt: u32,
    },
    /// A job exhausted its replay retry budget and was quarantined:
    /// removed from scheduling with its nodes freed, so it can never
    /// wedge the cluster or starve other tenants.
    Quarantine {
        /// The quarantined job.
        job: usize,
    },
}

/// A journaled decision with its position in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The event-loop iteration index at decision time.
    pub event: u64,
    /// Virtual time at decision time.
    pub at_s: f64,
    /// The decision itself.
    pub decision: Decision,
}

/// How a decode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeTail {
    /// Every byte decoded into complete records.
    Clean,
    /// The final record was torn (truncated or checksum-failed);
    /// decoding rolled back to the last complete record.
    Torn {
        /// Bytes of valid records preceding the torn tail.
        valid_bytes: usize,
    },
}

/// The append-only journal buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    bytes: Vec<u8>,
    records: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// The encoded journal bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the journal, returning its bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Records appended so far.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record (length prefix, payload, checksum).
    pub fn append(&mut self, record: &Record) {
        let payload = encode_payload(record);
        self.bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let checksum = fnv1a(&payload);
        self.bytes.extend_from_slice(&payload);
        self.bytes.extend_from_slice(&checksum.to_le_bytes());
        self.records += 1;
    }

    /// Decodes a journal byte stream, rolling a torn tail back to the
    /// last complete record. Only a record that is *structurally*
    /// complete but checksum-corrupt mid-stream is an error — that is
    /// bit rot, not a mid-write kill, and replaying past it could
    /// silently fork the state.
    pub fn decode(bytes: &[u8]) -> Result<(Vec<Record>, DecodeTail), DirectorError> {
        let mut records = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let Some(end) = frame_end(bytes, at) else {
                // Truncated mid-record: a torn final write.
                return Ok((records, DecodeTail::Torn { valid_bytes: at }));
            };
            let payload = &bytes[at + 4..end - 8];
            let stored = u64::from_le_bytes(bytes[end - 8..end].try_into().unwrap_or([0; 8]));
            if fnv1a(payload) != stored {
                if end == bytes.len() {
                    // Damaged final record: torn write, roll back.
                    return Ok((records, DecodeTail::Torn { valid_bytes: at }));
                }
                return Err(DirectorError::JournalCorrupt {
                    detail: format!(
                        "record {} checksum mismatch mid-journal (bit rot)",
                        records.len()
                    ),
                });
            }
            let record = decode_payload(payload).ok_or_else(|| DirectorError::JournalCorrupt {
                detail: format!("record {} has a malformed payload", records.len()),
            })?;
            records.push(record);
            at = end;
        }
        Ok((records, DecodeTail::Clean))
    }
}

/// The end offset of the frame starting at `at`, or `None` if the
/// buffer ends before the frame does.
fn frame_end(bytes: &[u8], at: usize) -> Option<usize> {
    let len_bytes: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
    let payload_len = u32::from_le_bytes(len_bytes) as usize;
    let end = at.checked_add(4)?.checked_add(payload_len)?.checked_add(8)?;
    (end <= bytes.len()).then_some(end)
}

fn encode_payload(record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&record.event.to_le_bytes());
    out.extend_from_slice(&record.at_s.to_bits().to_le_bytes());
    match &record.decision {
        Decision::Submit { job } => {
            out.push(0);
            put_usize(&mut out, *job);
        }
        Decision::Reject { job, reason } => {
            out.push(1);
            put_usize(&mut out, *job);
            put_str(&mut out, reason);
        }
        Decision::Shed { job, reason } => {
            out.push(2);
            put_usize(&mut out, *job);
            out.push(reason.tag());
        }
        Decision::Admit { job, grant } => {
            out.push(3);
            put_usize(&mut out, *job);
            put_list(&mut out, grant);
        }
        Decision::Grow { job, nodes } => {
            out.push(4);
            put_usize(&mut out, *job);
            put_list(&mut out, nodes);
        }
        Decision::Shrink { job, nodes } => {
            out.push(5);
            put_usize(&mut out, *job);
            put_list(&mut out, nodes);
        }
        Decision::Complete { job } => {
            out.push(6);
            put_usize(&mut out, *job);
        }
        Decision::Crash { job, rollback_rounds } => {
            out.push(7);
            put_usize(&mut out, *job);
            put_usize(&mut out, *rollback_rounds);
        }
        Decision::Slab { lo, len } => {
            out.push(8);
            put_usize(&mut out, *lo);
            put_usize(&mut out, *len);
        }
        Decision::SlabRepair { lo, len } => {
            out.push(9);
            put_usize(&mut out, *lo);
            put_usize(&mut out, *len);
        }
        Decision::Restart { job, rounds } => {
            out.push(10);
            put_usize(&mut out, *job);
            put_usize(&mut out, *rounds);
        }
        Decision::PoisonRetry { job, attempt } => {
            out.push(11);
            put_usize(&mut out, *job);
            out.extend_from_slice(&attempt.to_le_bytes());
        }
        Decision::Quarantine { job } => {
            out.push(12);
            put_usize(&mut out, *job);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut r = Reader { bytes: payload, at: 0 };
    let event = r.u64()?;
    let at_s = f64::from_bits(r.u64()?);
    let tag = r.u8()?;
    let decision = match tag {
        0 => Decision::Submit { job: r.usize()? },
        1 => Decision::Reject { job: r.usize()?, reason: r.string()? },
        2 => Decision::Shed { job: r.usize()?, reason: ShedReason::from_tag(r.u8()?)? },
        3 => Decision::Admit { job: r.usize()?, grant: r.list()? },
        4 => Decision::Grow { job: r.usize()?, nodes: r.list()? },
        5 => Decision::Shrink { job: r.usize()?, nodes: r.list()? },
        6 => Decision::Complete { job: r.usize()? },
        7 => Decision::Crash { job: r.usize()?, rollback_rounds: r.usize()? },
        8 => Decision::Slab { lo: r.usize()?, len: r.usize()? },
        9 => Decision::SlabRepair { lo: r.usize()?, len: r.usize()? },
        10 => Decision::Restart { job: r.usize()?, rounds: r.usize()? },
        11 => Decision::PoisonRetry { job: r.usize()?, attempt: r.u32()? },
        12 => Decision::Quarantine { job: r.usize()? },
        _ => return None,
    };
    r.done().then_some(Record { event, at_s, decision })
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_list(out: &mut Vec<u8>, items: &[usize]) {
    put_usize(out, items.len());
    for &i in items {
        put_usize(out, i);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    fn usize(&mut self) -> Option<usize> {
        self.u32().map(|v| v as usize)
    }

    fn list(&mut self) -> Option<Vec<usize>> {
        let n = self.usize()?;
        if n > self.bytes.len().saturating_sub(self.at) / 4 {
            return None; // Length field larger than the remaining bytes.
        }
        (0..n).map(|_| self.usize()).collect()
    }

    fn string(&mut self) -> Option<String> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record { event: 0, at_s: 0.0, decision: Decision::Submit { job: 0 } },
            Record {
                event: 0,
                at_s: 0.0,
                decision: Decision::Reject { job: 1, reason: "min_nodes must be ≥ 1".into() },
            },
            Record {
                event: 1,
                at_s: 0.25,
                decision: Decision::Admit { job: 0, grant: vec![0, 1, 2, 3] },
            },
            Record {
                event: 2,
                at_s: 0.5,
                decision: Decision::Shed { job: 2, reason: ShedReason::DeadlineUnreachable },
            },
            Record { event: 3, at_s: 0.75, decision: Decision::Grow { job: 0, nodes: vec![4] } },
            Record {
                event: 4,
                at_s: 1.0,
                decision: Decision::Shrink { job: 0, nodes: vec![4, 3] },
            },
            Record {
                event: 5,
                at_s: 1.25,
                decision: Decision::Crash { job: 0, rollback_rounds: 8 },
            },
            Record { event: 6, at_s: 1.5, decision: Decision::Slab { lo: 16, len: 8 } },
            Record { event: 7, at_s: 1.75, decision: Decision::SlabRepair { lo: 16, len: 8 } },
            Record { event: 8, at_s: 2.0, decision: Decision::Restart { job: 0, rounds: 8 } },
            Record { event: 9, at_s: 2.25, decision: Decision::PoisonRetry { job: 0, attempt: 2 } },
            Record { event: 10, at_s: 2.5, decision: Decision::Quarantine { job: 0 } },
            Record { event: 11, at_s: 3.0, decision: Decision::Complete { job: 3 } },
        ]
    }

    #[test]
    fn round_trip_is_exact() {
        let mut j = Journal::new();
        let records = sample_records();
        for r in &records {
            j.append(r);
        }
        assert_eq!(j.records(), records.len() as u64);
        let (decoded, tail) = Journal::decode(j.bytes()).unwrap();
        assert_eq!(tail, DecodeTail::Clean);
        assert_eq!(decoded, records);
    }

    #[test]
    fn any_truncation_rolls_back_to_the_last_complete_record() {
        let mut j = Journal::new();
        let records = sample_records();
        let mut boundaries = vec![0usize];
        for r in &records {
            j.append(r);
            boundaries.push(j.bytes().len());
        }
        for cut in 0..j.bytes().len() {
            let (decoded, tail) = Journal::decode(&j.bytes()[..cut]).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.len(), complete, "cut at byte {cut}");
            assert_eq!(decoded, records[..complete]);
            if boundaries.contains(&cut) {
                assert_eq!(tail, DecodeTail::Clean);
            } else {
                assert_eq!(tail, DecodeTail::Torn { valid_bytes: boundaries[complete] });
            }
        }
    }

    #[test]
    fn final_record_bit_flip_is_torn_but_midstream_is_corrupt() {
        let mut j = Journal::new();
        for r in &sample_records() {
            j.append(r);
        }
        // Flip a bit in the last record's payload: torn tail.
        let mut bytes = j.bytes().to_vec();
        let last = bytes.len() - 9;
        bytes[last] ^= 0x40;
        let (decoded, tail) = Journal::decode(&bytes).unwrap();
        assert_eq!(decoded.len(), sample_records().len() - 1);
        assert!(matches!(tail, DecodeTail::Torn { .. }));
        // Flip a bit in the FIRST record's payload: mid-journal rot is
        // a typed error, not a silent rollback.
        let mut bytes = j.bytes().to_vec();
        bytes[6] ^= 0x01;
        assert!(matches!(Journal::decode(&bytes), Err(DirectorError::JournalCorrupt { .. })));
    }

    #[test]
    fn empty_journal_decodes_clean() {
        let (decoded, tail) = Journal::decode(&[]).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(tail, DecodeTail::Clean);
    }
}

//! The GRAM server's durable record taxonomy and durability
//! configuration.
//!
//! The WAL layer ([`gridauthz_journal`]) carries opaque byte payloads;
//! this module defines what GRAM writes into them. One [`JournalRecord`]
//! is appended — and made durable by the group-commit fsync — *before*
//! the wire acknowledgement of every acknowledged state mutation:
//!
//! | record                | mutation it makes durable                    |
//! |-----------------------|----------------------------------------------|
//! | `Submit`              | a job admitted by the local scheduler        |
//! | `Cancel`              | a job cancelled (single or by-tag sweep)     |
//! | `Signal`              | suspend / resume / priority change           |
//! | `LeaseGrant`          | a dynamic account leased to a subject (§7)   |
//! | `LeaseRelease`        | a dynamic-account lease returned to the pool |
//! | `SetGridmap`          | an administrative grid-mapfile swap          |
//! | `RevokeCredential`    | one CRL entry loaded into the trust store    |
//! | `PolicyReload`        | an external policy-generation bump           |
//! | `GatekeeperGeneration`| snapshot-only generation floor               |
//! | `Audit`               | one audit record (best-effort, non-fatal)    |
//!
//! The snapshot payload is simply a length-prefixed sequence of these
//! same records re-expressing the server's live state (a *logical*
//! snapshot). Jobs that reached a terminal state are not in it: each is
//! sealed once, as its own `Submit` + `Cancel` sequence, into the
//! snapshot store's append-only sealed segment. Recovery has exactly one
//! apply path: replay the sealed segment, then the snapshot's records,
//! then the journal tail past the snapshot's covering sequence number.

use std::io;
use std::path::Path;

use gridauthz_journal::{
    ByteReader, ByteWriter, CodecError, FileSnapshotStore, FileStorage, MemSnapshotStore,
    MemStorage, SnapshotStore, Storage,
};

use crate::protocol::GramSignal;

/// One durable mutation of GRAM server state. Field types are wire
/// primitives (strings, integers) rather than domain types so the
/// record codec cannot fail on encode and decodes strictly; conversion
/// to domain types (DN parse, RSL parse) happens during recovery apply,
/// where a failure is a recovery error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A job the scheduler admitted and the server acknowledged.
    Submit {
        /// The server's job index (restores the `next_job` counter).
        index: u64,
        /// The full job contact URL handed to the client.
        contact: String,
        /// The owner's distinguished name.
        owner: String,
        /// The job's RSL text, post-substitution (RSL display
        /// round-trips, so replay re-derives the description, jobtag
        /// and sandbox profile from this).
        rsl: String,
        /// The resolved local account.
        account: String,
        /// True when `account` came from the dynamic pool.
        dynamic: bool,
        /// The job's true computation time, microseconds.
        work_micros: u64,
        /// Submission instant, microseconds since epoch.
        at_micros: u64,
    },
    /// A job cancellation the server acknowledged.
    Cancel {
        /// The cancelled job's contact URL.
        contact: String,
        /// Cancellation instant, microseconds since epoch.
        at_micros: u64,
    },
    /// A management signal the server acknowledged.
    Signal {
        /// The signalled job's contact URL.
        contact: String,
        /// The signal delivered.
        signal: GramSignal,
        /// Delivery instant, microseconds since epoch.
        at_micros: u64,
    },
    /// A dynamic-account lease granted to `subject`.
    LeaseGrant {
        /// The leaseholder's distinguished name.
        subject: String,
        /// The leased pool account's name.
        account: String,
        /// Lease expiry, microseconds since epoch.
        expires_micros: u64,
    },
    /// A dynamic-account lease released back to the pool.
    LeaseRelease {
        /// The former leaseholder's distinguished name.
        subject: String,
    },
    /// An administrative grid-mapfile replacement.
    SetGridmap {
        /// Every mapping: subject DN → permitted local accounts.
        entries: Vec<(String, Vec<String>)>,
        /// The gatekeeper generation after the swap was published.
        generation: u64,
    },
    /// One CRL entry loaded into the trust store.
    RevokeCredential {
        /// The revoked certificate's issuer DN.
        issuer: String,
        /// The revoked certificate's serial number.
        serial: u64,
        /// The gatekeeper generation after the revocation published.
        generation: u64,
    },
    /// An external policy update notification (cache invalidation).
    PolicyReload,
    /// Snapshot-only: the gatekeeper generation floor. Replay raises
    /// the recovered gatekeeper's generation to at least this value so
    /// nothing stamped with a pre-crash generation (auth-cache entries
    /// above all) can compare fresh against a restarted counter.
    GatekeeperGeneration {
        /// The generation at snapshot time.
        generation: u64,
    },
    /// One audit record, rotated into the journal either on write
    /// (durable audit trail) or on eviction from the bounded in-memory
    /// ring. Best-effort: an audit append failure never fails the
    /// audited operation.
    Audit {
        /// Decision instant, microseconds since epoch.
        at_micros: u64,
        /// The requesting identity's distinguished name.
        subject: String,
        /// The action, as [`action_tag`] encodes it.
        action: u8,
        /// The target job contact, when the request addressed one.
        job: Option<String>,
        /// The local account involved, when known.
        account: Option<String>,
        /// `None` for a permit; `Some(reason)` for a refusal.
        refused: Option<String>,
        /// The telemetry trace id, when one was assigned.
        trace_id: Option<u64>,
        /// True when a degradation policy shaped the outcome.
        degraded: bool,
        /// Free-form administrative annotation.
        note: Option<String>,
    },
}

const TAG_SUBMIT: u8 = 0;
const TAG_CANCEL: u8 = 1;
const TAG_SIGNAL: u8 = 2;
const TAG_LEASE_GRANT: u8 = 3;
const TAG_LEASE_RELEASE: u8 = 4;
const TAG_SET_GRIDMAP: u8 = 5;
const TAG_REVOKE: u8 = 6;
const TAG_POLICY_RELOAD: u8 = 7;
const TAG_GENERATION: u8 = 8;
const TAG_AUDIT: u8 = 9;

const SIGNAL_SUSPEND: u8 = 0;
const SIGNAL_RESUME: u8 = 1;
const SIGNAL_PRIORITY: u8 = 2;

impl JournalRecord {
    /// Encodes this record as a journal payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            JournalRecord::Submit {
                index,
                contact,
                owner,
                rsl,
                account,
                dynamic,
                work_micros,
                at_micros,
            } => {
                w.u8(TAG_SUBMIT);
                w.u64(*index);
                w.string(contact);
                w.string(owner);
                w.string(rsl);
                w.string(account);
                w.bool(*dynamic);
                w.u64(*work_micros);
                w.u64(*at_micros);
            }
            JournalRecord::Cancel { contact, at_micros } => {
                w.u8(TAG_CANCEL);
                w.string(contact);
                w.u64(*at_micros);
            }
            JournalRecord::Signal { contact, signal, at_micros } => {
                w.u8(TAG_SIGNAL);
                w.string(contact);
                match signal {
                    GramSignal::Suspend => w.u8(SIGNAL_SUSPEND),
                    GramSignal::Resume => w.u8(SIGNAL_RESUME),
                    GramSignal::Priority(p) => {
                        w.u8(SIGNAL_PRIORITY);
                        w.i64(*p);
                    }
                }
                w.u64(*at_micros);
            }
            JournalRecord::LeaseGrant { subject, account, expires_micros } => {
                w.u8(TAG_LEASE_GRANT);
                w.string(subject);
                w.string(account);
                w.u64(*expires_micros);
            }
            JournalRecord::LeaseRelease { subject } => {
                w.u8(TAG_LEASE_RELEASE);
                w.string(subject);
            }
            JournalRecord::SetGridmap { entries, generation } => {
                w.u8(TAG_SET_GRIDMAP);
                w.u32(u32::try_from(entries.len()).unwrap_or(u32::MAX));
                for (subject, accounts) in entries {
                    w.string(subject);
                    w.u32(u32::try_from(accounts.len()).unwrap_or(u32::MAX));
                    for account in accounts {
                        w.string(account);
                    }
                }
                w.u64(*generation);
            }
            JournalRecord::RevokeCredential { issuer, serial, generation } => {
                w.u8(TAG_REVOKE);
                w.string(issuer);
                w.u64(*serial);
                w.u64(*generation);
            }
            JournalRecord::PolicyReload => {
                w.u8(TAG_POLICY_RELOAD);
            }
            JournalRecord::GatekeeperGeneration { generation } => {
                w.u8(TAG_GENERATION);
                w.u64(*generation);
            }
            JournalRecord::Audit {
                at_micros,
                subject,
                action,
                job,
                account,
                refused,
                trace_id,
                degraded,
                note,
            } => {
                w.u8(TAG_AUDIT);
                w.u64(*at_micros);
                w.string(subject);
                w.u8(*action);
                w.opt_string(job.as_deref());
                w.opt_string(account.as_deref());
                w.opt_string(refused.as_deref());
                w.opt_u64(*trace_id);
                w.bool(*degraded);
                w.opt_string(note.as_deref());
            }
        }
        w.into_bytes()
    }

    /// Decodes one record from a journal payload, rejecting trailing
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, trailing bytes, or an unknown tag.
    pub fn decode(bytes: &[u8]) -> Result<JournalRecord, CodecError> {
        let mut r = ByteReader::new(bytes);
        let record = JournalRecord::decode_from(&mut r)?;
        r.finish()?;
        Ok(record)
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<JournalRecord, CodecError> {
        let tag = r.u8()?;
        Ok(match tag {
            TAG_SUBMIT => JournalRecord::Submit {
                index: r.u64()?,
                contact: r.string()?,
                owner: r.string()?,
                rsl: r.string()?,
                account: r.string()?,
                dynamic: r.bool()?,
                work_micros: r.u64()?,
                at_micros: r.u64()?,
            },
            TAG_CANCEL => JournalRecord::Cancel { contact: r.string()?, at_micros: r.u64()? },
            TAG_SIGNAL => {
                let contact = r.string()?;
                let signal = match r.u8()? {
                    SIGNAL_SUSPEND => GramSignal::Suspend,
                    SIGNAL_RESUME => GramSignal::Resume,
                    SIGNAL_PRIORITY => GramSignal::Priority(r.i64()?),
                    other => {
                        return Err(CodecError(format!("unknown signal tag {other}")));
                    }
                };
                JournalRecord::Signal { contact, signal, at_micros: r.u64()? }
            }
            TAG_LEASE_GRANT => JournalRecord::LeaseGrant {
                subject: r.string()?,
                account: r.string()?,
                expires_micros: r.u64()?,
            },
            TAG_LEASE_RELEASE => JournalRecord::LeaseRelease { subject: r.string()? },
            TAG_SET_GRIDMAP => {
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let subject = r.string()?;
                    let accounts_len = r.u32()? as usize;
                    let mut accounts = Vec::with_capacity(accounts_len.min(1024));
                    for _ in 0..accounts_len {
                        accounts.push(r.string()?);
                    }
                    entries.push((subject, accounts));
                }
                JournalRecord::SetGridmap { entries, generation: r.u64()? }
            }
            TAG_REVOKE => JournalRecord::RevokeCredential {
                issuer: r.string()?,
                serial: r.u64()?,
                generation: r.u64()?,
            },
            TAG_POLICY_RELOAD => JournalRecord::PolicyReload,
            TAG_GENERATION => JournalRecord::GatekeeperGeneration { generation: r.u64()? },
            TAG_AUDIT => JournalRecord::Audit {
                at_micros: r.u64()?,
                subject: r.string()?,
                action: r.u8()?,
                job: r.opt_string()?,
                account: r.opt_string()?,
                refused: r.opt_string()?,
                trace_id: r.opt_u64()?,
                degraded: r.bool()?,
                note: r.opt_string()?,
            },
            other => return Err(CodecError(format!("unknown record tag {other}"))),
        })
    }
}

/// Encodes `action` as the audit record's action tag.
#[must_use]
pub fn action_tag(action: gridauthz_core::Action) -> u8 {
    match action {
        gridauthz_core::Action::Start => 0,
        gridauthz_core::Action::Cancel => 1,
        gridauthz_core::Action::Information => 2,
        gridauthz_core::Action::Signal => 3,
    }
}

/// Decodes an audit record's action tag (unknown tags conservatively
/// decode to `Information`, the least privileged action).
#[must_use]
pub fn action_from_tag(tag: u8) -> gridauthz_core::Action {
    match tag {
        0 => gridauthz_core::Action::Start,
        1 => gridauthz_core::Action::Cancel,
        3 => gridauthz_core::Action::Signal,
        _ => gridauthz_core::Action::Information,
    }
}

/// Encodes a record sequence as one length-prefixed byte stream — the
/// snapshot payload format.
#[must_use]
pub fn encode_records(records: &[JournalRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(u32::try_from(records.len()).unwrap_or(u32::MAX));
    for record in records {
        w.bytes(&record.encode());
    }
    w.into_bytes()
}

/// Decodes a snapshot payload back into its record sequence.
///
/// # Errors
///
/// [`CodecError`] on truncation, trailing bytes, or any malformed
/// record.
pub fn decode_records(bytes: &[u8]) -> Result<Vec<JournalRecord>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let count = r.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let payload = r.bytes()?;
        records.push(JournalRecord::decode(payload)?);
    }
    r.finish()?;
    Ok(records)
}

/// Where the server journals and snapshots its state.
pub struct DurabilityConfig {
    /// The write-ahead log's backing storage.
    pub storage: Box<dyn Storage>,
    /// The snapshot store compaction writes through.
    pub snapshots: Box<dyn SnapshotStore>,
    /// Checkpoint after this many appends (0 disables automatic
    /// checkpoints; [`crate::GramServer::checkpoint`] still works).
    pub snapshot_every: u64,
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig").field("snapshot_every", &self.snapshot_every).finish()
    }
}

impl DurabilityConfig {
    /// File-backed durability under `dir` (created when absent):
    /// `journal.wal`, `state.snapshot` and, from the first sealed job
    /// on, `state.sealed` — all flat in `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and journal-open failures.
    pub fn at_dir(dir: impl AsRef<Path>) -> io::Result<DurabilityConfig> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        Ok(DurabilityConfig {
            storage: Box::new(FileStorage::open(dir.join("journal.wal"))?),
            snapshots: Box::new(FileSnapshotStore::new(dir.join("state.snapshot"))),
            snapshot_every: 1024,
        })
    }

    /// Memory-backed durability (tests, the crash simulator). Clone the
    /// handles first to keep a view of what "disk" retains.
    #[must_use]
    pub fn in_memory(storage: MemStorage, snapshots: MemSnapshotStore) -> DurabilityConfig {
        DurabilityConfig {
            storage: Box::new(storage),
            snapshots: Box::new(snapshots),
            snapshot_every: 1024,
        }
    }

    /// Overrides the automatic-checkpoint threshold.
    #[must_use]
    pub fn snapshot_every(mut self, appends: u64) -> DurabilityConfig {
        self.snapshot_every = appends;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submit {
                index: 7,
                contact: "gram://r/jobs/7".into(),
                owner: "/O=Grid/CN=Alice".into(),
                rsl: "&(executable=/bin/sim)(count=2)".into(),
                account: "alice".into(),
                dynamic: false,
                work_micros: 1_000_000,
                at_micros: 42,
            },
            JournalRecord::Cancel { contact: "gram://r/jobs/7".into(), at_micros: 43 },
            JournalRecord::Signal {
                contact: "gram://r/jobs/8".into(),
                signal: GramSignal::Priority(-3),
                at_micros: 44,
            },
            JournalRecord::LeaseGrant {
                subject: "/O=Grid/CN=Bob".into(),
                account: "pool0001".into(),
                expires_micros: 99,
            },
            JournalRecord::LeaseRelease { subject: "/O=Grid/CN=Bob".into() },
            JournalRecord::SetGridmap {
                entries: vec![("/O=Grid/CN=Alice".into(), vec!["alice".into(), "ops".into()])],
                generation: 3,
            },
            JournalRecord::RevokeCredential {
                issuer: "/O=Grid/CN=CA".into(),
                serial: 11,
                generation: 4,
            },
            JournalRecord::PolicyReload,
            JournalRecord::GatekeeperGeneration { generation: 4 },
            JournalRecord::Audit {
                at_micros: 50,
                subject: "/O=Grid/CN=Alice".into(),
                action: 1,
                job: Some("gram://r/jobs/7".into()),
                account: None,
                refused: Some("denied".into()),
                trace_id: Some(9),
                degraded: true,
                note: None,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for record in samples() {
            let bytes = record.encode();
            assert_eq!(JournalRecord::decode(&bytes).unwrap(), record);
        }
    }

    #[test]
    fn record_sequences_round_trip() {
        let records = samples();
        let bytes = encode_records(&records);
        assert_eq!(decode_records(&bytes).unwrap(), records);
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut bytes = samples()[0].encode();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).is_err());
        assert!(JournalRecord::decode(&[0xFF]).is_err());
        let mut seq = encode_records(&samples());
        seq.truncate(seq.len() - 1);
        assert!(decode_records(&seq).is_err());
    }

    #[test]
    fn action_tags_round_trip() {
        use gridauthz_core::Action;
        for action in [Action::Start, Action::Cancel, Action::Information, Action::Signal] {
            assert_eq!(action_from_tag(action_tag(action)), action);
        }
        assert_eq!(action_from_tag(200), Action::Information);
    }
}

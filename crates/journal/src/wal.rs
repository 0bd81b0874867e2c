//! The write-ahead log: checksummed frames, group-commit batching, and
//! torn-tail truncation on open.
//!
//! # Commit protocol
//!
//! [`Journal::append`] encodes the payload into a frame and parks it on a
//! shared pending buffer. The first appender to find no leader in flight
//! becomes the *leader*: it takes the whole pending buffer (its own frame
//! plus every frame that queued behind earlier batches), writes it with
//! one `Storage::append`, and makes it durable with one `Storage::sync`.
//! Followers block on a condition variable until the committed sequence
//! covers their frame. Under concurrency this amortizes the fsync — N
//! appenders pay ~1 sync per batch, not per record — while a
//! single-threaded caller degenerates to one sync per append, which is
//! the bound the `t14` harness charges against the hot path.
//!
//! [`Journal::append_relaxed`] enqueues a frame without waiting: it
//! becomes durable with whatever batch the next leader commits, or at an
//! explicit [`Journal::flush`]. Best-effort records (the audit trail)
//! ride acknowledged mutations' batches this way, so even a
//! single-threaded mutation stream commits about two records per sync.
//!
//! # Spilling
//!
//! A read-only load enqueues riders and never commits, so the pending
//! buffer is bounded: once it holds [`SPILL_BYTES`] and no leader is in
//! flight, the relaxed appender *spills* — it takes the leader role,
//! writes the pending batch with `Storage::append` and does **not**
//! sync. A spill never advances the committed sequence: spilled frames
//! become durable with the next synced batch (whose leader syncs even
//! when its own batch is empty), exactly the riders' contract before
//! the spill. The appends and durable bytes of spilled frames are
//! counted once, at that sync.
//!
//! # Fail-stop
//!
//! The first write or sync error poisons the journal: the failed batch's
//! appenders and every later appender get [`JournalError::Dead`]. A
//! half-written device is never silently reused — the server built on top
//! refuses further mutations, and the operator restarts into recovery.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use gridauthz_credential::sha256::Sha256;

use crate::storage::Storage;

/// Bytes of frame header preceding the payload: `len: u32`, `seq: u64`,
/// `check: u64`.
pub const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// Upper bound on one frame's payload — anything larger on disk is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD_LEN: usize = 1 << 24;

/// Pending-buffer size at which a relaxed append writes the buffer out
/// without syncing it (see the module docs' "Spilling").
pub const SPILL_BYTES: usize = 64 * 1024;

/// Why an append failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The I/O device reported an error; the journal is now dead.
    Io(String),
    /// A previous batch failed; the journal refuses all further appends.
    Dead(String),
    /// The payload exceeds [`MAX_PAYLOAD_LEN`].
    Oversized(usize),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::Dead(e) => write!(f, "journal is dead: {e}"),
            JournalError::Oversized(n) => write!(f, "journal payload of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for JournalError {}

/// One record recovered at open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRecord {
    /// The frame's sequence number.
    pub seq: u64,
    /// The payload as appended.
    pub payload: Vec<u8>,
}

/// What [`Journal::open`] found on the device.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Every intact record, in sequence order.
    pub records: Vec<ReplayRecord>,
    /// Bytes of torn/corrupt tail truncated away.
    pub truncated_bytes: u64,
    /// Bytes of intact frames retained.
    pub valid_bytes: u64,
}

/// Counters the server publishes as telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records successfully committed.
    pub appends: u64,
    /// Physical `sync` calls issued (group commit makes this ≤ appends).
    pub fsyncs: u64,
    /// Durable journal length in bytes (post-compaction).
    pub durable_bytes: u64,
}

struct State {
    next_seq: u64,
    committed_seq: u64,
    /// Encoded frames waiting for a leader, and the seq of the last one.
    pending: Vec<u8>,
    pending_last_seq: u64,
    /// Frames in `pending` — the leader folds this into the `appends`
    /// counter once the batch is durable.
    pending_count: u64,
    /// Frames a spill wrote to the device that no sync has covered yet.
    spilled_count: u64,
    /// A leader is currently writing (and, unless spilling, syncing) a
    /// batch.
    leader_active: bool,
    /// Appenders parked on the condition variable. The leader skips the
    /// wakeup syscall entirely when nobody is waiting (the common
    /// single-threaded case).
    waiters: usize,
    dead: Option<String>,
}

/// The device plus the byte count a spill appended since its last sync
/// (or compaction) — kept under one lock so `durable_bytes` moves only
/// when those bytes really become durable.
struct Device {
    storage: Box<dyn Storage>,
    unsynced_bytes: u64,
}

impl Device {
    /// Writes `batch`; with `sync`, also makes it and every earlier
    /// spill durable and returns how many bytes just became durable.
    fn write(&mut self, batch: &[u8], sync: bool) -> io::Result<u64> {
        if !batch.is_empty() {
            self.storage.append(batch)?;
        }
        self.unsynced_bytes += batch.len() as u64;
        if !sync {
            return Ok(0);
        }
        self.storage.sync()?;
        Ok(std::mem::take(&mut self.unsynced_bytes))
    }
}

/// The write-ahead log over a [`Storage`] device.
pub struct Journal {
    state: Mutex<State>,
    committed: Condvar,
    io: Mutex<Device>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    durable_bytes: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

pub(crate) fn encode_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.extend_from_slice(&u32::try_from(payload.len()).expect("payload bounded").to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&frame_check(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn frame_check(seq: u64, payload: &[u8]) -> u64 {
    let mut hasher = Sha256::new();
    hasher.update(&seq.to_le_bytes());
    hasher.update(payload);
    let digest = hasher.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("digest has 32 bytes"))
}

/// Scans `bytes` for intact frames; returns the records plus the byte
/// length of the valid prefix. Scanning stops at the first frame that is
/// incomplete, fails its checksum, or breaks sequence contiguity.
pub(crate) fn scan_frames(bytes: &[u8]) -> (Vec<ReplayRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expect_seq: Option<u64> = None;
    while bytes.len() - pos >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD_LEN {
            break;
        }
        let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let check = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
        let body_start = pos + FRAME_HEADER_LEN;
        let Some(body_end) = body_start.checked_add(len) else { break };
        if body_end > bytes.len() {
            break;
        }
        let payload = &bytes[body_start..body_end];
        if frame_check(seq, payload) != check {
            break;
        }
        if let Some(expected) = expect_seq {
            if seq != expected {
                break;
            }
        }
        expect_seq = Some(seq + 1);
        records.push(ReplayRecord { seq, payload: payload.to_vec() });
        pos = body_end;
    }
    (records, pos)
}

impl Journal {
    /// Opens a journal over `storage`: scans for the longest intact
    /// checksummed prefix, truncates any torn tail, and returns the
    /// journal (positioned to append after the last intact frame) plus
    /// everything it replayed.
    ///
    /// # Errors
    ///
    /// Any I/O error reading or truncating the device.
    pub fn open(storage: Box<dyn Storage>) -> io::Result<(Journal, Replay)> {
        Journal::open_after(storage, 0)
    }

    /// [`Journal::open`] for a journal whose frames through `covered`
    /// live in a snapshot: new appends are numbered above `covered` even
    /// when compaction left the log empty. Without this floor a reopened,
    /// fully compacted log would restart at sequence 1, and recovery
    /// would skip the post-restart records as already covered.
    ///
    /// # Errors
    ///
    /// Any I/O error reading or truncating the device.
    pub fn open_after(
        mut storage: Box<dyn Storage>,
        covered: u64,
    ) -> io::Result<(Journal, Replay)> {
        let bytes = storage.read_all()?;
        let (records, valid_len) = scan_frames(&bytes);
        if valid_len < bytes.len() {
            storage.truncate(valid_len as u64)?;
        }
        let next_seq = records.last().map_or(1, |r| r.seq + 1).max(covered.saturating_add(1));
        let replay = Replay {
            truncated_bytes: (bytes.len() - valid_len) as u64,
            valid_bytes: valid_len as u64,
            records,
        };
        let journal = Journal {
            state: Mutex::new(State {
                next_seq,
                committed_seq: next_seq - 1,
                pending: Vec::new(),
                pending_last_seq: 0,
                pending_count: 0,
                spilled_count: 0,
                leader_active: false,
                waiters: 0,
                dead: None,
            }),
            committed: Condvar::new(),
            io: Mutex::new(Device { storage, unsynced_bytes: 0 }),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            durable_bytes: AtomicU64::new(valid_len as u64),
        };
        Ok((journal, replay))
    }

    /// Appends `payload` and blocks until it is durable (its batch has
    /// been written and synced). Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// [`JournalError::Oversized`] for payloads over the frame limit;
    /// [`JournalError::Io`]/[`JournalError::Dead`] once the device fails.
    pub fn append(&self, payload: &[u8]) -> Result<u64, JournalError> {
        let state = self.enqueue(payload)?;
        let seq = state.pending_last_seq;
        self.wait_durable(state, seq)?;
        Ok(seq)
    }

    /// Enqueues `payload` without waiting for durability: the frame is
    /// encoded onto the pending buffer and rides whatever batch the next
    /// leader commits (or an explicit [`Journal::flush`]). For
    /// best-effort records — the audit trail — whose loss in a crash is
    /// acceptable but whose cost must stay off the acknowledged hot
    /// path's sync count. When the pending buffer reaches
    /// [`SPILL_BYTES`] and no leader is in flight, this call spills it
    /// to the device unsynced. Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// [`JournalError::Oversized`] for payloads over the frame limit;
    /// [`JournalError::Dead`] once the device has failed;
    /// [`JournalError::Io`] when this call's spill failed (the journal
    /// is then dead).
    pub fn append_relaxed(&self, payload: &[u8]) -> Result<u64, JournalError> {
        let state = self.enqueue(payload)?;
        let seq = state.pending_last_seq;
        if state.pending.len() < SPILL_BYTES || state.leader_active {
            return Ok(seq);
        }
        let (_state, spilled) = self.lead(state, false);
        spilled.map(|()| seq).map_err(JournalError::Io)
    }

    /// Blocks until every enqueued frame — including relaxed ones — is
    /// durable. Graceful shutdown and checkpointing drain riders here.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`]/[`JournalError::Dead`] once the device fails.
    pub fn flush(&self) -> Result<(), JournalError> {
        let state = self.state.lock().expect("journal state poisoned");
        if let Some(cause) = &state.dead {
            return Err(JournalError::Dead(cause.clone()));
        }
        let target = state.next_seq - 1;
        self.wait_durable(state, target)
    }

    /// Validates and encodes `payload` as the next frame on the pending
    /// buffer, returning the state guard (with `pending_last_seq` set to
    /// the new frame's seq).
    fn enqueue(&self, payload: &[u8]) -> Result<std::sync::MutexGuard<'_, State>, JournalError> {
        if payload.len() > MAX_PAYLOAD_LEN {
            return Err(JournalError::Oversized(payload.len()));
        }
        let mut state = self.state.lock().expect("journal state poisoned");
        if let Some(cause) = &state.dead {
            return Err(JournalError::Dead(cause.clone()));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        encode_frame(&mut state.pending, seq, payload);
        state.pending_last_seq = seq;
        state.pending_count += 1;
        Ok(state)
    }

    /// Group-commit loop: drives the pending buffer to the device until
    /// `seq` is covered. The first caller to find no leader in flight
    /// becomes the leader and commits the whole pending batch; the rest
    /// park on the condition variable.
    fn wait_durable<'a>(
        &'a self,
        mut state: std::sync::MutexGuard<'a, State>,
        seq: u64,
    ) -> Result<(), JournalError> {
        loop {
            if state.committed_seq >= seq {
                return Ok(());
            }
            if let Some(cause) = &state.dead {
                return Err(JournalError::Io(cause.clone()));
            }
            if !state.leader_active && (!state.pending.is_empty() || state.spilled_count > 0) {
                // Spilled frames need the sync even when nothing is pending.
                state = self.lead(state, true).0;
            } else {
                state.waiters += 1;
                state = self.committed.wait(state).expect("journal state poisoned");
                state.waiters -= 1;
            }
        }
    }

    /// Takes the leader role (the caller saw none in flight) for every
    /// pending frame: writes them with one `Storage::append` and, with
    /// `sync`, makes them and every earlier spill durable with one
    /// `Storage::sync`. Without `sync` this is a spill. Returns with the
    /// state lock re-held, after waking any parked appenders; an I/O
    /// error kills the journal.
    fn lead<'a>(
        &'a self,
        mut state: std::sync::MutexGuard<'a, State>,
        sync: bool,
    ) -> (std::sync::MutexGuard<'a, State>, Result<(), String>) {
        state.leader_active = true;
        let batch = std::mem::take(&mut state.pending);
        // The last enqueued frame, whether pending or already spilled.
        let batch_last = state.pending_last_seq;
        let mut batch_count = std::mem::take(&mut state.pending_count);
        if sync {
            batch_count += std::mem::take(&mut state.spilled_count);
        }
        drop(state);

        // `durable_bytes` moves under the io lock, so a compaction's
        // reset cannot interleave with it.
        let result =
            self.io.lock().expect("journal io poisoned").write(&batch, sync).map(|newly_durable| {
                self.durable_bytes.fetch_add(newly_durable, Ordering::Relaxed);
            });

        let mut state = self.state.lock().expect("journal state poisoned");
        state.leader_active = false;
        let result = result.map_err(|e| e.to_string());
        match &result {
            Ok(()) if sync => {
                state.committed_seq = state.committed_seq.max(batch_last);
                self.appends.fetch_add(batch_count, Ordering::Relaxed);
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(()) => state.spilled_count += batch_count,
            Err(e) => state.dead = Some(e.clone()),
        }
        if state.waiters > 0 {
            self.committed.notify_all();
        }
        (state, result)
    }

    /// The highest durable sequence number (0 before the first commit).
    pub fn committed_seq(&self) -> u64 {
        self.state.lock().expect("journal state poisoned").committed_seq
    }

    /// True once a batch has failed and the journal refuses appends.
    pub fn is_dead(&self) -> bool {
        self.state.lock().expect("journal state poisoned").dead.is_some()
    }

    /// Counters for telemetry.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            durable_bytes: self.durable_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every durable frame with `seq <= covered`, atomically
    /// rewriting the device — snapshot compaction's second half. The
    /// caller must already have saved a snapshot covering `covered`.
    ///
    /// # Errors
    ///
    /// Any I/O error; the journal stays usable on read errors but is
    /// poisoned if the rewrite itself fails partway.
    pub fn compact_through(&self, covered: u64) -> Result<(), JournalError> {
        let mut io = self.io.lock().expect("journal io poisoned");
        let bytes = io.storage.read_all().map_err(|e| JournalError::Io(e.to_string()))?;
        let (records, valid_len) = scan_frames(&bytes);
        debug_assert_eq!(valid_len, bytes.len(), "durable region must be intact");
        let mut retained = Vec::new();
        for record in &records {
            if record.seq > covered {
                encode_frame(&mut retained, record.seq, &record.payload);
            }
        }
        let retained_len = retained.len() as u64;
        io.storage.replace(&retained).map_err(|e| {
            let mut state = self.state.lock().expect("journal state poisoned");
            state.dead = Some(format!("compaction failed: {e}"));
            JournalError::Io(e.to_string())
        })?;
        // The replacement is durable as a whole, spilled frames included.
        io.unsynced_bytes = 0;
        self.durable_bytes.store(retained_len, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};

    use super::*;
    use crate::storage::MemStorage;

    fn open_mem(storage: &MemStorage) -> (Journal, Replay) {
        Journal::open(Box::new(storage.clone())).unwrap()
    }

    #[test]
    fn appends_replay_in_order() {
        let device = MemStorage::new();
        let (journal, replay) = open_mem(&device);
        assert!(replay.records.is_empty());
        for i in 0..10u8 {
            journal.append(&[i; 3]).unwrap();
        }
        assert_eq!(journal.committed_seq(), 10);
        drop(journal);

        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 10);
        assert_eq!(replay.truncated_bytes, 0);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.payload, vec![i as u8; 3]);
        }
    }

    #[test]
    fn frames_written_by_an_independent_encoder_replay() {
        // Frame checks computed by a separate SHA-256 implementation
        // over `seq_le || payload`: the on-disk format does not depend
        // on which backend hashes.
        let second: Vec<u8> = (0..100).collect();
        let mut bytes = Vec::new();
        for (seq, payload, check) in
            [(1u64, &b"submit"[..], 0x1596_d428_bbcd_16c0u64), (2, &second, 0x249f_810c_a417_8bb1)]
        {
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&seq.to_le_bytes());
            bytes.extend_from_slice(&check.to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        let device = MemStorage::from_bytes(bytes.clone());
        let (journal, replay) = open_mem(&device);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].payload, second);
        // And this encoder writes the same bytes.
        let mut ours = Vec::new();
        encode_frame(&mut ours, 1, b"submit");
        encode_frame(&mut ours, 2, &second);
        assert_eq!(ours, bytes);
        assert_eq!(journal.append(b"next").unwrap(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"first-record").unwrap();
        journal.append(b"second-record").unwrap();
        drop(journal);
        let full = device.contents();
        let first_len = FRAME_HEADER_LEN + b"first-record".len();

        for cut in 0..full.len() {
            let torn = MemStorage::from_bytes(full[..cut].to_vec());
            let (_, replay) = open_mem(&torn);
            let expected = usize::from(cut >= first_len) + usize::from(cut >= full.len());
            assert_eq!(replay.records.len(), expected, "cut at {cut}");
            // The device itself was cut back to the valid prefix.
            let expected_len = if cut >= first_len { first_len } else { 0 };
            assert_eq!(torn.contents().len(), expected_len, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_truncates_from_that_frame() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"aaaa").unwrap();
        journal.append(b"bbbb").unwrap();
        drop(journal);
        let mut bytes = device.contents();
        // Flip a payload byte of the second frame.
        let second_payload = FRAME_HEADER_LEN * 2 + 4;
        bytes[second_payload] ^= 0x40;
        let corrupt = MemStorage::from_bytes(bytes);
        let (_, replay) = open_mem(&corrupt);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].payload, b"aaaa");
        assert!(replay.truncated_bytes > 0);
    }

    #[test]
    fn append_continues_sequence_after_reopen() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"one").unwrap();
        drop(journal);
        let (journal, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 1);
        let seq = journal.append(b"two").unwrap();
        assert_eq!(seq, 2);
        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 2);
    }

    #[test]
    fn compaction_drops_covered_frames_and_replay_skips_them() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        for i in 0..6u8 {
            journal.append(&[i]).unwrap();
        }
        journal.compact_through(4).unwrap();
        journal.append(&[9]).unwrap();
        drop(journal);

        let (journal, replay) = open_mem(&device);
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        // Sequence numbering continues from the surviving tail.
        assert_eq!(journal.append(&[1]).unwrap(), 8);
    }

    #[test]
    fn reopen_after_full_compaction_continues_above_the_snapshot() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        for i in 0..6u8 {
            journal.append(&[i]).unwrap();
        }
        // A checkpoint covering every frame leaves the log empty.
        journal.compact_through(6).unwrap();
        drop(journal);

        let (journal, replay) = Journal::open_after(Box::new(device.clone()), 6).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(journal.committed_seq(), 6);
        // Numbered above the snapshot, so the next recovery replays it.
        assert_eq!(journal.append(&[7]).unwrap(), 7);
        drop(journal);
        let (_, replay) = Journal::open_after(Box::new(device.clone()), 6).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7]);
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let journal = Arc::new(journal);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let journal = Arc::clone(&journal);
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        journal.append(&[t as u8, i]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = journal.stats();
        assert_eq!(stats.appends, 400);
        // Batching may or may not kick in depending on scheduling, but it
        // can never take more syncs than appends.
        assert!(stats.fsyncs <= stats.appends);
        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 400);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }

    #[test]
    fn oversized_payload_is_refused() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let huge = vec![0u8; MAX_PAYLOAD_LEN + 1];
        assert!(matches!(journal.append(&huge), Err(JournalError::Oversized(_))));
    }

    #[test]
    fn relaxed_append_rides_the_next_committed_batch() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let rider = journal.append_relaxed(b"audit-rider").unwrap();
        assert_eq!(rider, 1);
        // Not durable yet: nothing has committed it.
        assert_eq!(journal.committed_seq(), 0);
        assert_eq!(journal.stats().fsyncs, 0);

        // The blocking append's batch carries the rider: two records,
        // one sync, both durable.
        let seq = journal.append(b"mutation").unwrap();
        assert_eq!(seq, 2);
        assert_eq!(journal.committed_seq(), 2);
        let stats = journal.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.fsyncs, 1);

        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].payload, b"audit-rider");
        assert_eq!(replay.records[1].payload, b"mutation");
    }

    #[test]
    fn flush_drains_relaxed_riders() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append_relaxed(b"one").unwrap();
        journal.append_relaxed(b"two").unwrap();
        journal.flush().unwrap();
        assert_eq!(journal.committed_seq(), 2);
        assert_eq!(journal.stats().fsyncs, 1);
        // Flushing with nothing pending is a no-op.
        journal.flush().unwrap();
        assert_eq!(journal.stats().fsyncs, 1);

        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 2);
    }

    /// Appends 1 KiB riders until one of them spills; returns how many
    /// were appended. The spilling call empties the pending buffer.
    fn spill_riders(journal: &Journal, mut device_len: impl FnMut() -> usize) -> u64 {
        let before = device_len();
        let mut count = 0;
        while device_len() == before {
            count += 1;
            journal.append_relaxed(&[count as u8; 1024]).unwrap();
            assert!(count <= SPILL_BYTES as u64, "riders never spilled");
        }
        count
    }

    #[test]
    fn flush_after_a_spill_syncs_the_spilled_frames_once() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let riders = spill_riders(&journal, || device.contents().len());
        assert!(device.contents().len() >= SPILL_BYTES);
        // Written, not synced: the committed sequence did not move.
        assert_eq!(journal.committed_seq(), 0);
        assert_eq!(journal.stats().fsyncs, 0);

        // Nothing is pending, yet the spilled frames still need a sync.
        journal.flush().unwrap();
        assert_eq!(journal.committed_seq(), riders);
        assert_eq!(journal.stats().fsyncs, 1);
        journal.flush().unwrap();
        assert_eq!(journal.stats().fsyncs, 1);
    }

    #[test]
    fn spilled_frames_are_counted_once_at_their_sync() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let riders = spill_riders(&journal, || device.contents().len());
        let stats = journal.stats();
        assert_eq!((stats.appends, stats.durable_bytes), (0, 0));

        journal.flush().unwrap();
        let stats = journal.stats();
        assert_eq!(stats.appends, riders);
        assert_eq!(stats.durable_bytes, device.contents().len() as u64);

        journal.append_relaxed(b"late-rider").unwrap();
        journal.flush().unwrap();
        let stats = journal.stats();
        assert_eq!(stats.appends, riders + 1);
        assert_eq!(stats.durable_bytes, device.contents().len() as u64);

        // A compaction that keeps spilled, unsynced frames counts them as
        // durable (the replacement is), and the next sync adds nothing
        // for them twice.
        spill_riders(&journal, || device.contents().len());
        journal.compact_through(riders + 1).unwrap();
        assert_eq!(journal.stats().durable_bytes, device.contents().len() as u64);
        journal.flush().unwrap();
        assert_eq!(journal.stats().durable_bytes, device.contents().len() as u64);
    }

    #[test]
    fn synced_append_after_a_spill_commits_riders_and_itself() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let riders = spill_riders(&journal, || device.contents().len());
        let queued = journal.append_relaxed(b"queued-rider").unwrap();
        assert_eq!(queued, riders + 1);

        let seq = journal.append(b"mutation").unwrap();
        assert_eq!(seq, riders + 2);
        assert_eq!(journal.committed_seq(), seq);
        let stats = journal.stats();
        assert_eq!((stats.appends, stats.fsyncs), (riders + 2, 1));

        drop(journal);
        let (_, replay) = open_mem(&device);
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=seq).collect::<Vec<_>>());
        assert_eq!(replay.records.last().unwrap().payload, b"mutation");
    }

    #[test]
    fn crash_between_a_spill_and_its_sync_costs_only_riders() {
        use crate::crashsim::{CrashMode, FaultDisk, FaultPlan};
        for mode in CrashMode::ALL {
            for seed in 0..16u64 {
                let disk = FaultDisk::new(Some(FaultPlan { crash_after_syncs: 1, mode, seed }));
                let (journal, _) = Journal::open(Box::new(disk.storage())).unwrap();
                journal.append(b"acknowledged").unwrap();
                // The spill lands in the simulated page cache, unsynced.
                let mut probe = disk.storage();
                spill_riders(&journal, || probe.read_all().unwrap().len());
                assert!(journal.append(b"in-flight").is_err(), "barrier 1 is the crash");

                let recovered = FaultDisk::from_bytes(disk.durable_bytes());
                let (_, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
                let label = format!("{mode:?} seed {seed}");
                assert_eq!(replay.records[0].payload, b"acknowledged", "{label}");
                for (i, record) in replay.records.iter().enumerate().skip(1) {
                    assert_eq!(record.seq, i as u64 + 1, "{label}");
                    assert_eq!(record.payload.len(), 1024, "only riders survive: {label}");
                }
                if mode == CrashMode::Kill {
                    assert_eq!(replay.records.len(), 1, "{label}");
                }
                // The torn tail was cut back to the intact prefix.
                assert_eq!(recovered.durable_bytes().len() as u64, replay.valid_bytes, "{label}");
                let (journal, again) = Journal::open(Box::new(recovered.storage())).unwrap();
                assert_eq!(again.truncated_bytes, 0, "{label}");
                let next = journal.append(b"after-recovery").unwrap();
                assert_eq!(next, replay.records.len() as u64 + 1, "{label}");
            }
        }
    }

    /// A device whose first `append` blocks until the test releases it.
    struct GatedStorage {
        inner: MemStorage,
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    impl Storage for GatedStorage {
        fn read_all(&mut self) -> io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            if let Some((entered, release)) = self.gate.take() {
                entered.send(()).unwrap();
                release.recv().unwrap();
            }
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.inner.truncate(len)
        }
        fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.inner.replace(bytes)
        }
    }

    #[test]
    fn appender_parked_behind_a_spill_is_woken_to_lead() {
        let timeout = std::time::Duration::from_secs(10);
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let device = MemStorage::new();
        let storage = GatedStorage { inner: device.clone(), gate: Some((entered_tx, release_rx)) };
        let journal = Arc::new(Journal::open(Box::new(storage)).unwrap().0);

        let spiller = {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || {
                for i in 0..=(SPILL_BYTES / 1024) {
                    journal.append_relaxed(&[i as u8; 1024]).unwrap();
                }
            })
        };
        entered.recv_timeout(timeout).expect("the spill reaches the device");
        let (done_tx, done) = mpsc::channel();
        let mutator = {
            let journal = Arc::clone(&journal);
            std::thread::spawn(move || done_tx.send(journal.append(b"mutation").unwrap()))
        };
        // Wait until the mutation has parked behind the spill's leadership.
        while journal.state.lock().unwrap().waiters == 0 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let seq = done.recv_timeout(timeout).expect("the spill wakes the parked appender");
        spiller.join().unwrap();
        mutator.join().unwrap().unwrap();
        assert!(journal.committed_seq() >= seq);
    }

    #[test]
    fn concurrent_spills_and_commits_replay_contiguously() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let journal = Arc::new(journal);
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let journal = Arc::clone(&journal);
                std::thread::spawn(move || {
                    for i in 0..400u32 {
                        if t == 0 && i % 50 == 0 {
                            journal.append(&[t; 8]).unwrap();
                        } else {
                            journal.append_relaxed(&[t; 512]).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        journal.flush().unwrap();
        let stats = journal.stats();
        assert_eq!(stats.appends, 1600);
        assert_eq!(stats.durable_bytes, device.contents().len() as u64);
        drop(journal);
        let (_, replay) = open_mem(&device);
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=1600).collect::<Vec<_>>());
    }

    #[test]
    fn unflushed_riders_are_lost_like_a_crash() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"durable").unwrap();
        journal.append_relaxed(b"pending-rider").unwrap();
        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].payload, b"durable");
    }
}

//! Deterministic crash-point fault injection for the WAL, in the spirit
//! of `gram::torture`: a seeded [`FaultFile`] device that models the OS
//! page cache (appends buffer; only `sync` makes bytes durable) and kills
//! the simulated machine at a scripted durability barrier, optionally
//! tearing or short-writing the in-flight batch.
//!
//! The crash taxonomy:
//!
//! * [`CrashMode::Kill`] — power loss before the write reaches the
//!   platter: nothing of the in-flight batch survives.
//! * [`CrashMode::Torn`] — the device wrote a strict prefix of the batch
//!   (a torn multi-sector write): a seeded cut somewhere inside it.
//! * [`CrashMode::Short`] — only the first few header bytes landed (a
//!   short sector write): the cut falls inside the frame header.
//!
//! A [`FaultDisk`] is one machine holding several files (journal,
//! sealed segment, snapshot) that share one barrier count: the plan's
//! crash can land on any file's `sync` or rename-style `replace`, and it
//! takes every file's unsynced bytes with it.
//!
//! Because the crash fires *during* `sync`, the appender never observes a
//! successful commit for the in-flight batch — which is exactly the WAL's
//! contract: an acknowledged record is durable, an unacknowledged one may
//! or may not leave torn bytes behind, and recovery's torn-tail
//! truncation removes them. `gram::crashsim` builds the full invariant
//! matrix on top of this device.

use std::io;
use std::sync::{Arc, Mutex};

use crate::storage::Storage;
use crate::wal::FRAME_HEADER_LEN;

/// SplitMix64 — the same tiny deterministic generator `gram::torture`
/// uses, reexported here so fault plans, workload scripts and jitter all
/// derive from one seed algebra.
#[derive(Debug, Clone)]
pub struct CrashRng {
    state: u64,
}

impl CrashRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> CrashRng {
        CrashRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// An independent generator derived from this seed and `index`.
    pub fn substream(&self, index: u64) -> CrashRng {
        let mut rng = CrashRng::new(self.state ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }
}

/// How the simulated machine dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Nothing of the in-flight batch survives.
    Kill,
    /// A seeded strict prefix of the batch survives.
    Torn,
    /// Only a prefix of the first frame's header survives.
    Short,
}

impl CrashMode {
    /// Every mode, for matrix sweeps.
    pub const ALL: [CrashMode; 3] = [CrashMode::Kill, CrashMode::Torn, CrashMode::Short];

    /// Stable label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CrashMode::Kill => "kill",
            CrashMode::Torn => "torn",
            CrashMode::Short => "short",
        }
    }
}

/// When and how to crash: the machine dies during its
/// `crash_after_syncs`-th durability barrier (0-based:
/// `crash_after_syncs == 0` kills the very first one). Barriers are
/// counted across every file of the [`FaultDisk`]: each `sync` and each
/// rename-style `replace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the barrier that dies (previous barriers succeed).
    pub crash_after_syncs: u64,
    /// What the platter keeps of the in-flight batch.
    pub mode: CrashMode,
    /// Seed for the torn/short cut position.
    pub seed: u64,
}

#[derive(Debug, Default)]
struct FileData {
    durable: Vec<u8>,
    pending: Vec<u8>,
}

#[derive(Debug)]
struct DiskInner {
    files: Vec<FileData>,
    syncs: u64,
    plan: Option<FaultPlan>,
    crashed: bool,
}

impl DiskInner {
    /// True when the barrier about to run is the planned crash.
    fn crash_due(&self) -> bool {
        self.plan.is_some_and(|plan| self.syncs == plan.crash_after_syncs)
    }

    /// The machine dies: the page cache (every file's pending bytes) is
    /// lost and every handle fails from now on.
    fn die(&mut self) -> io::Error {
        for file in &mut self.files {
            file.pending.clear();
        }
        self.crashed = true;
        died()
    }
}

/// A shared simulated machine with any number of files that crash
/// together. [`FaultDisk::file`] hands out the [`FaultFile`] devices the
/// journal, the snapshot and the sealed segment write through, while the
/// disk handle survives the "crash" so the harness can read what the
/// platter kept.
#[derive(Debug, Clone)]
pub struct FaultDisk {
    inner: Arc<Mutex<DiskInner>>,
}

impl FaultDisk {
    /// A disk that dies per `plan` (or never, when `None`).
    pub fn new(plan: Option<FaultPlan>) -> FaultDisk {
        FaultDisk {
            inner: Arc::new(Mutex::new(DiskInner {
                files: Vec::new(),
                syncs: 0,
                plan,
                crashed: false,
            })),
        }
    }

    /// A disk whose file 0 is pre-loaded with `bytes` (recovered
    /// contents).
    pub fn from_bytes(bytes: Vec<u8>) -> FaultDisk {
        let disk = FaultDisk::new(None);
        disk.inner
            .lock()
            .expect("disk mutex poisoned")
            .files
            .push(FileData { durable: bytes, pending: Vec::new() });
        disk
    }

    /// A fresh machine holding what this one's platter kept in every
    /// file, dying per `plan` — the restart after a crash (and, with a
    /// plan, the run up to the next one).
    pub fn survivor(&self, plan: Option<FaultPlan>) -> FaultDisk {
        let files = self
            .inner
            .lock()
            .expect("disk mutex poisoned")
            .files
            .iter()
            .map(|file| FileData { durable: file.durable.clone(), pending: Vec::new() })
            .collect();
        FaultDisk {
            inner: Arc::new(Mutex::new(DiskInner { files, syncs: 0, plan, crashed: false })),
        }
    }

    /// File 0's device: the journal's.
    pub fn storage(&self) -> FaultFile {
        self.file(0)
    }

    /// The device for file `index` (created empty on first use).
    pub fn file(&self, index: usize) -> FaultFile {
        let mut inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.files.len() <= index {
            inner.files.resize_with(index + 1, FileData::default);
        }
        FaultFile { inner: Arc::clone(&self.inner), index }
    }

    /// True once the planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.inner.lock().expect("disk mutex poisoned").crashed
    }

    /// What the platter holds in file 0 — exactly the bytes a
    /// post-crash journal recovery would read.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.durable_file(0)
    }

    /// What the platter holds in file `index`.
    pub fn durable_file(&self, index: usize) -> Vec<u8> {
        let inner = self.inner.lock().expect("disk mutex poisoned");
        inner.files.get(index).map(|file| file.durable.clone()).unwrap_or_default()
    }

    /// Durability barriers completed so far, across every file.
    pub fn syncs(&self) -> u64 {
        self.inner.lock().expect("disk mutex poisoned").syncs
    }
}

/// One file's [`Storage`] device on a [`FaultDisk`].
#[derive(Debug)]
pub struct FaultFile {
    inner: Arc<Mutex<DiskInner>>,
    index: usize,
}

fn died() -> io::Error {
    io::Error::other("simulated crash: device is gone")
}

impl FaultFile {
    fn live(&self) -> io::Result<std::sync::MutexGuard<'_, DiskInner>> {
        let inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.crashed {
            return Err(died());
        }
        Ok(inner)
    }
}

impl Storage for FaultFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let inner = self.live()?;
        let file = &inner.files[self.index];
        let mut all = file.durable.clone();
        all.extend_from_slice(&file.pending);
        Ok(all)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.live()?;
        inner.files[self.index].pending.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.live()?;
        if inner.crash_due() {
            let plan = inner.plan.expect("crash_due implies a plan");
            let mut rng = CrashRng::new(plan.seed).substream(inner.syncs);
            let file = &mut inner.files[self.index];
            let pending = std::mem::take(&mut file.pending);
            let kept = match plan.mode {
                CrashMode::Kill => 0,
                // A strict prefix: never the complete batch.
                CrashMode::Torn => {
                    if pending.len() > 1 {
                        1 + rng.below(pending.len() as u64 - 1) as usize
                    } else {
                        0
                    }
                }
                CrashMode::Short => {
                    let limit = pending.len().min(FRAME_HEADER_LEN);
                    if limit > 0 {
                        rng.below(limit as u64) as usize
                    } else {
                        0
                    }
                }
            };
            file.durable.extend_from_slice(&pending[..kept]);
            return Err(inner.die());
        }
        inner.syncs += 1;
        let file = &mut inner.files[self.index];
        let pending = std::mem::take(&mut file.pending);
        file.durable.extend_from_slice(&pending);
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.live()?;
        let file = &mut inner.files[self.index];
        file.pending.clear();
        file.durable.truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.live()?;
        // Rename-style replacement is a durability barrier that happens
        // entirely or not at all: when the crash lands on it, the rename
        // never took place and the old contents survive, whatever the
        // mode.
        if inner.crash_due() {
            return Err(inner.die());
        }
        inner.syncs += 1;
        let file = &mut inner.files[self.index];
        file.pending.clear();
        file.durable = bytes.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Journal;

    fn journal_over(disk: &FaultDisk) -> Journal {
        Journal::open(Box::new(disk.storage())).unwrap().0
    }

    #[test]
    fn kill_loses_exactly_the_inflight_record() {
        let disk = FaultDisk::new(Some(FaultPlan {
            crash_after_syncs: 2,
            mode: CrashMode::Kill,
            seed: 1,
        }));
        let journal = journal_over(&disk);
        assert!(journal.append(b"a").is_ok());
        assert!(journal.append(b"b").is_ok());
        assert!(journal.append(b"c").is_err());
        assert!(journal.append(b"d").is_err(), "journal must be dead after the crash");
        assert!(disk.crashed());

        let recovered = FaultDisk::from_bytes(disk.durable_bytes());
        let (_, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
        let payloads: Vec<&[u8]> = replay.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"a".as_slice(), b"b".as_slice()]);
    }

    #[test]
    fn torn_and_short_never_surface_the_inflight_record() {
        for mode in [CrashMode::Torn, CrashMode::Short] {
            for seed in 0..32u64 {
                let disk = FaultDisk::new(Some(FaultPlan { crash_after_syncs: 1, mode, seed }));
                let journal = journal_over(&disk);
                assert!(journal.append(b"acknowledged-record").is_ok());
                assert!(journal.append(b"in-flight-record").is_err());

                let recovered = FaultDisk::from_bytes(disk.durable_bytes());
                let (_, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
                assert_eq!(replay.records.len(), 1, "mode {mode:?} seed {seed}");
                assert_eq!(replay.records[0].payload, b"acknowledged-record");
            }
        }
    }

    #[test]
    fn files_share_one_barrier_count_and_die_together() {
        let disk = FaultDisk::new(Some(FaultPlan {
            crash_after_syncs: 2,
            mode: CrashMode::Kill,
            seed: 5,
        }));
        let mut wal = disk.file(0);
        let mut sealed = disk.file(1);
        let mut blob = disk.file(2);
        wal.append(b"w1").unwrap();
        wal.sync().unwrap();
        sealed.append(b"s1").unwrap();
        sealed.sync().unwrap();
        wal.append(b"unsynced").unwrap();
        // The third barrier — a replace on another file — is the crash:
        // the rename never happens and the page cache is lost.
        assert!(blob.replace(b"snapshot").is_err());
        assert!(disk.crashed());
        assert!(sealed.append(b"s2").is_err(), "every file dies with the machine");
        assert_eq!(disk.syncs(), 2);

        let survivor = disk.survivor(None);
        assert_eq!(survivor.durable_bytes(), b"w1");
        assert_eq!(survivor.durable_file(1), b"s1");
        assert_eq!(survivor.durable_file(2), b"");
        let mut blob = survivor.file(2);
        blob.replace(b"snapshot").unwrap();
        assert_eq!(survivor.durable_file(2), b"snapshot");
        assert_eq!(disk.durable_file(2), b"", "survivors are independent machines");
    }

    #[test]
    fn crash_rng_is_deterministic() {
        let mut a = CrashRng::new(99);
        let mut b = CrashRng::new(99);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut s1 = a.substream(1);
        let mut s2 = a.substream(2);
        assert_ne!(s1.next_u64(), s2.next_u64());
    }
}

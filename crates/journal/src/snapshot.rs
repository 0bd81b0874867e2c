//! Snapshot persistence for WAL compaction.
//!
//! A snapshot is an opaque payload (the server's serialized state) tagged
//! with `covers_seq`, the highest journal sequence number whose effects
//! the payload includes. Recovery loads the snapshot first, then replays
//! only journal frames with `seq > covers_seq` — which is why WAL frames
//! carry explicit sequence numbers.
//!
//! Crash ordering: the snapshot is made durable (file backends write a
//! temporary and atomically rename) *before* the WAL drops the frames it
//! covers. A crash between the two steps leaves covered frames on disk;
//! replay skips them by sequence, so the overlap is harmless. A torn or
//! corrupt snapshot fails its checksum and is ignored (`load` returns
//! `None`), falling back to full-journal replay.
//!
//! Next to the snapshot every store keeps a *sealed segment*: records
//! whose content can never change again (a terminal job's durable form)
//! are sealed there once, so the snapshot itself only carries live
//! state and its cost does not grow with history.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use gridauthz_credential::sha256::Sha256;

use crate::sealed::SealedSegment;
use crate::storage::{FileStorage, MemStorage, Storage};

/// Magic prefix identifying a snapshot blob (and its format version).
const MAGIC: &[u8; 8] = b"GJSNAP01";

/// Bytes of blob header preceding the payload: magic, `covers_seq: u64`,
/// `len: u32`, `check: u64`.
const HEADER_LEN: usize = MAGIC.len() + 8 + 4 + 8;

/// A serialized state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// Highest journal sequence number this snapshot's state includes.
    pub covers_seq: u64,
    /// The serialized state (opaque to this crate).
    pub payload: Vec<u8>,
}

impl SnapshotBlob {
    /// The magic, length and checksum framing that precedes the payload.
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(MAGIC);
        header[8..16].copy_from_slice(&self.covers_seq.to_le_bytes());
        header[16..20].copy_from_slice(
            &u32::try_from(self.payload.len()).expect("snapshot bounded").to_le_bytes(),
        );
        header[20..].copy_from_slice(&blob_check(self.covers_seq, &self.payload).to_le_bytes());
        header
    }

    /// Encodes the blob with its magic, length and checksum framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.header());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes and verifies an encoded blob; `None` when the bytes are
    /// torn, truncated, or fail the checksum.
    pub fn decode(bytes: &[u8]) -> Option<SnapshotBlob> {
        let (covers_seq, len, check) = parse_header(bytes.get(..HEADER_LEN)?)?;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != len || blob_check(covers_seq, payload) != check {
            return None;
        }
        Some(SnapshotBlob { covers_seq, payload: payload.to_vec() })
    }
}

/// `(covers_seq, payload length, check)` from a blob header, or `None`
/// when the magic does not match.
fn parse_header(header: &[u8]) -> Option<(u64, usize, u64)> {
    if &header[..MAGIC.len()] != MAGIC {
        return None;
    }
    let covers_seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[16..20].try_into().expect("4 bytes")) as usize;
    let check = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
    Some((covers_seq, len, check))
}

/// The first eight bytes of `sha256(covers_seq_le || payload)`, streamed
/// through the hasher rather than copied into one buffer.
fn blob_check(covers_seq: u64, payload: &[u8]) -> u64 {
    let mut hasher = Sha256::new();
    hasher.update(&covers_seq.to_le_bytes());
    hasher.update(payload);
    let digest = hasher.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("digest has 32 bytes"))
}

/// Where snapshots and the sealed segment live.
pub trait SnapshotStore: Send {
    /// Loads the most recent intact snapshot, if any. Corrupt or torn
    /// snapshots are reported as `None`, not as errors — recovery falls
    /// back to full-journal replay.
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>>;

    /// Durably saves `blob`, replacing any previous snapshot. Must be
    /// atomic with respect to crashes.
    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()>;

    /// Every payload sealed so far, in seal order (empty when nothing
    /// was ever sealed). A torn tail from a crash mid-seal is cut away.
    fn load_sealed(&mut self) -> io::Result<Vec<Vec<u8>>>;

    /// Durably appends `payloads` to the sealed segment as one batch
    /// under one sync. Sealed payloads are never rewritten or dropped.
    fn seal(&mut self, payloads: &[Vec<u8>]) -> io::Result<()>;
}

/// File-backed snapshot store: the snapshot is written to a temporary
/// and renamed over `state.snapshot`; the sealed segment is the flat
/// sibling file `state.sealed`, created on the first seal.
#[derive(Debug)]
pub struct FileSnapshotStore {
    path: PathBuf,
    sealed: Option<SealedSegment>,
}

impl FileSnapshotStore {
    /// A store persisting to `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileSnapshotStore {
        FileSnapshotStore { path: path.into(), sealed: None }
    }

    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sealed segment's path: `path` with the extension `sealed`.
    fn sealed_path(&self) -> PathBuf {
        self.path.with_extension("sealed")
    }

    fn segment(&mut self) -> io::Result<&mut SealedSegment> {
        if self.sealed.is_none() {
            let path = self.sealed_path();
            let created = !path.exists();
            let storage = FileStorage::open(&path)?;
            if created {
                // The new directory entry must be durable before anything
                // sealed in the file is relied on.
                let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
                File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
            }
            self.sealed = Some(SealedSegment::new(Box::new(storage)));
        }
        Ok(self.sealed.as_mut().expect("segment just opened"))
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>> {
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        // Header first, then the payload straight into its own buffer:
        // the blob is never held twice.
        let mut header = [0u8; HEADER_LEN];
        match file.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e),
        }
        let Some((covers_seq, len, check)) = parse_header(&header) else {
            return Ok(None);
        };
        // A torn file is shorter than its header claims; checking the
        // size first also bounds the allocation below.
        if file.metadata()?.len() != (HEADER_LEN + len) as u64 {
            return Ok(None);
        }
        let mut payload = vec![0u8; len];
        file.read_exact(&mut payload)?;
        if blob_check(covers_seq, &payload) != check {
            return Ok(None);
        }
        Ok(Some(SnapshotBlob { covers_seq, payload }))
    }

    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&blob.header())?;
            f.write_all(&blob.payload)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)
    }

    fn load_sealed(&mut self) -> io::Result<Vec<Vec<u8>>> {
        if self.sealed.is_none() && !self.sealed_path().exists() {
            // Nothing sealed yet; the file appears on the first seal.
            return Ok(Vec::new());
        }
        self.segment()?.load()
    }

    fn seal(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        self.segment()?.append(payloads)
    }
}

/// A snapshot store over [`Storage`] devices, in memory by default.
/// Clones share both the snapshot and the sealed segment, so a test can
/// hold a handle across a simulated crash; [`MemSnapshotStore::over`]
/// puts both on caller-supplied devices (the crash simulator passes
/// fault-injected files).
#[derive(Clone)]
pub struct MemSnapshotStore {
    blob: Arc<Mutex<Box<dyn Storage>>>,
    sealed: Arc<Mutex<SealedSegment>>,
}

impl std::fmt::Debug for MemSnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSnapshotStore").finish_non_exhaustive()
    }
}

impl Default for MemSnapshotStore {
    fn default() -> MemSnapshotStore {
        MemSnapshotStore::over(MemStorage::new(), MemStorage::new())
    }
}

impl MemSnapshotStore {
    /// An empty store.
    pub fn new() -> MemSnapshotStore {
        MemSnapshotStore::default()
    }

    /// A store whose snapshot lives on `blob` (saved by an atomic
    /// [`Storage::replace`]) and whose sealed segment lives on `sealed`.
    pub fn over(blob: impl Storage + 'static, sealed: impl Storage + 'static) -> MemSnapshotStore {
        MemSnapshotStore {
            blob: Arc::new(Mutex::new(Box::new(blob))),
            sealed: Arc::new(Mutex::new(SealedSegment::new(Box::new(sealed)))),
        }
    }

    /// True once a snapshot has been saved.
    pub fn has_snapshot(&self) -> bool {
        self.blob
            .lock()
            .expect("snapshot mutex poisoned")
            .read_all()
            .is_ok_and(|bytes| !bytes.is_empty())
    }
}

impl SnapshotStore for MemSnapshotStore {
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>> {
        let bytes = self.blob.lock().expect("snapshot mutex poisoned").read_all()?;
        Ok(SnapshotBlob::decode(&bytes))
    }

    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()> {
        self.blob.lock().expect("snapshot mutex poisoned").replace(&blob.encode())
    }

    fn load_sealed(&mut self) -> io::Result<Vec<Vec<u8>>> {
        self.sealed.lock().expect("sealed mutex poisoned").load()
    }

    fn seal(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        self.sealed.lock().expect("sealed mutex poisoned").append(payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trips() {
        let blob = SnapshotBlob { covers_seq: 42, payload: b"state".to_vec() };
        let decoded = SnapshotBlob::decode(&blob.encode()).unwrap();
        assert_eq!(decoded, blob);
    }

    #[test]
    fn torn_or_corrupt_blob_decodes_to_none() {
        let blob = SnapshotBlob { covers_seq: 7, payload: vec![1, 2, 3, 4] };
        let encoded = blob.encode();
        for cut in 0..encoded.len() {
            assert_eq!(SnapshotBlob::decode(&encoded[..cut]), None, "cut at {cut}");
        }
        let mut flipped = encoded.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(SnapshotBlob::decode(&flipped), None);
    }

    /// `SnapshotBlob { covers_seq: 0x0102030405060708, payload:
    /// b"sealed+live" }` as the format's original encoder wrote it (a
    /// checksum computed over a copied `covers_seq || payload` buffer).
    const GOLDEN: [u8; 39] = [
        0x47, 0x4a, 0x53, 0x4e, 0x41, 0x50, 0x30, 0x31, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02,
        0x01, 0x0b, 0x00, 0x00, 0x00, 0x71, 0x55, 0xd7, 0x33, 0xe2, 0x0e, 0xb8, 0x5e, 0x73, 0x65,
        0x61, 0x6c, 0x65, 0x64, 0x2b, 0x6c, 0x69, 0x76, 0x65,
    ];

    #[test]
    fn format_is_byte_identical_to_the_original_encoder() {
        let blob = SnapshotBlob::decode(&GOLDEN).expect("golden bytes decode");
        assert_eq!(blob.covers_seq, 0x0102_0304_0506_0708);
        assert_eq!(blob.payload, b"sealed+live");
        assert_eq!(blob.encode(), GOLDEN);

        // The file store streams header then payload: same bytes on disk,
        // and its header-first load reads them back.
        let dir =
            std::env::temp_dir().join(format!("gridauthz-snap-golden-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut store = FileSnapshotStore::new(dir.join("state.snapshot"));
        store.save(&blob).unwrap();
        assert_eq!(fs::read(store.path()).unwrap(), GOLDEN);
        assert_eq!(store.load().unwrap(), Some(blob));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_shares_between_clones() {
        let mut a = MemSnapshotStore::new();
        let mut b = a.clone();
        assert_eq!(b.load().unwrap(), None);
        a.save(&SnapshotBlob { covers_seq: 1, payload: vec![9] }).unwrap();
        assert!(b.has_snapshot());
        assert_eq!(b.load().unwrap().unwrap().covers_seq, 1);
        assert!(b.load_sealed().unwrap().is_empty());
        a.seal(&[b"job-1".to_vec(), b"job-2".to_vec()]).unwrap();
        b.seal(&[b"job-3".to_vec()]).unwrap();
        assert_eq!(
            a.load_sealed().unwrap(),
            vec![b"job-1".to_vec(), b"job-2".to_vec(), b"job-3".to_vec()]
        );
    }

    #[test]
    fn file_store_saves_and_reloads() {
        let dir = std::env::temp_dir().join(format!("gridauthz-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snapshot");
        let _ = fs::remove_file(&path);
        let mut store = FileSnapshotStore::new(&path);
        let _ = fs::remove_file(store.sealed_path());
        assert_eq!(store.load().unwrap(), None);
        let blob = SnapshotBlob { covers_seq: 3, payload: b"abc".to_vec() };
        store.save(&blob).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), blob);

        // The sealed segment is created lazily, as a flat sibling.
        assert!(store.load_sealed().unwrap().is_empty());
        assert!(!store.sealed_path().exists());
        store.seal(&[b"sealed-job".to_vec()]).unwrap();
        assert_eq!(store.sealed_path(), dir.join("state.sealed"));
        let mut reopened = FileSnapshotStore::new(&path);
        assert_eq!(reopened.load_sealed().unwrap(), vec![b"sealed-job".to_vec()]);
        reopened.seal(&[b"second".to_vec()]).unwrap();
        assert_eq!(
            FileSnapshotStore::new(&path).load_sealed().unwrap(),
            vec![b"sealed-job".to_vec(), b"second".to_vec()]
        );
        let _ = fs::remove_file(store.sealed_path());
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn file_store_ignores_torn_snapshots() {
        let dir = std::env::temp_dir().join(format!("gridauthz-snap-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snapshot");
        let encoded = SnapshotBlob { covers_seq: 5, payload: b"payload".to_vec() }.encode();
        for cut in [0, 10, HEADER_LEN, encoded.len() - 1] {
            fs::write(&path, &encoded[..cut]).unwrap();
            assert_eq!(FileSnapshotStore::new(&path).load().unwrap(), None, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

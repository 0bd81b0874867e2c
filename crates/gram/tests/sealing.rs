//! Sealed-segment checkpoints and counted durability errors.
//!
//! A checkpoint appends jobs that turned terminal to the snapshot store's
//! sealed segment once and snapshots only the live state, so:
//!
//! * the snapshot's size does not depend on how many terminal jobs exist;
//! * sealed jobs recover terminal and stay terminal;
//! * a job that completed on its own (no `Cancel` record) is sealed too;
//! * a failed seal marks nothing sealed and saves no snapshot, and the
//!   next checkpoint seals the same jobs.
//!
//! The best-effort durability steps — automatic checkpoints, audit
//! riders, multi-request rollbacks — count their failures in the
//! telemetry registry instead of dropping them.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_credential::{
    Certificate, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::journal::{decode_records, encode_records};
use gridauthz_gram::{
    DurabilityConfig, GramServer, GramServerBuilder, GramSignal, JobContact, JournalRecord,
};
use gridauthz_journal::{
    CrashMode, FaultDisk, FaultPlan, MemSnapshotStore, MemStorage, SnapshotBlob, SnapshotStore,
};
use gridauthz_telemetry::{labels, Stage};

const RSL: &str = "&(executable = transp)(directory = /sandbox/run)(count = 1)";

/// Capacity of the server's bounded audit ring.
const AUDIT_RING: usize = 4096;

struct World {
    clock: SimClock,
    ca_certificate: Certificate,
    alice: Credential,
}

impl World {
    fn new() -> World {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=Sealing CA", &clock).unwrap();
        let alice = ca.issue_identity("/O=Grid/CN=Alice", SimDuration::from_hours(24)).unwrap();
        World { clock, ca_certificate: ca.certificate().clone(), alice }
    }

    fn builder(&self) -> GramServerBuilder {
        let mut trust = TrustStore::new();
        trust.add_anchor(self.ca_certificate.clone());
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            self.alice.certificate().subject().clone(),
            vec!["alice".into()],
        ));
        GramServerBuilder::new("sealing-site", &self.clock).trust(trust).gridmap(gridmap)
    }

    fn recover(&self, storage: &MemStorage, snapshots: impl SnapshotStore + 'static) -> GramServer {
        self.builder()
            .recover(DurabilityConfig {
                storage: Box::new(storage.clone()),
                snapshots: Box::new(snapshots),
                snapshot_every: 0,
            })
            .unwrap()
    }

    fn submit(&self, server: &GramServer, work: SimDuration) -> JobContact {
        server.submit(self.alice.chain(), RSL, None, work).unwrap()
    }

    fn submit_and_cancel(&self, server: &GramServer) -> JobContact {
        let contact = self.submit(server, SimDuration::from_hours(1));
        server.cancel(self.alice.chain(), &contact).unwrap();
        contact
    }
}

/// The contact of every job whose `Submit` a record sequence carries.
fn submitted(records: &[JournalRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Submit { contact, .. } => Some(contact.clone()),
            _ => None,
        })
        .collect()
}

fn sealed_contacts(snapshots: &MemSnapshotStore) -> Vec<String> {
    let payloads = snapshots.clone().load_sealed().unwrap();
    payloads.iter().flat_map(|payload| submitted(&decode_records(payload).unwrap())).collect()
}

fn snapshot_contacts(snapshots: &MemSnapshotStore) -> Vec<String> {
    let blob = snapshots.clone().load().unwrap().expect("a snapshot was saved");
    submitted(&decode_records(&blob.payload).unwrap())
}

/// (a) Same live jobs, a full audit ring: the snapshot blob is the same
/// size after 10 and after 500 cancelled-and-checkpointed jobs.
#[test]
fn snapshot_size_does_not_depend_on_sealed_history() {
    let world = World::new();
    let mut sizes = Vec::new();
    for cancelled in [10usize, 500] {
        let storage = MemStorage::new();
        let snapshots = MemSnapshotStore::new();
        let server = world.recover(&storage, snapshots.clone());
        let live: Vec<JobContact> =
            (0..3).map(|_| world.submit(&server, SimDuration::from_hours(1))).collect();
        for i in 0..cancelled {
            world.submit_and_cancel(&server);
            if i % 50 == 49 {
                server.checkpoint().unwrap();
            }
        }
        server.checkpoint().unwrap();
        assert_eq!(sealed_contacts(&snapshots).len(), cancelled);
        // Identical audit records from here on: the ring holds the same
        // bytes whatever came before.
        for _ in 0..AUDIT_RING {
            server.status(world.alice.chain(), &live[0]).unwrap();
        }
        server.checkpoint().unwrap();
        let expected: Vec<String> = live.iter().map(|c| c.as_str().to_string()).collect();
        assert_eq!(snapshot_contacts(&snapshots), expected, "only live jobs are snapshotted");
        sizes.push(snapshots.clone().load().unwrap().unwrap().payload.len());
    }
    assert_eq!(sizes[0], sizes[1], "snapshot grew with sealed history");
}

/// (b) Sealed jobs recover terminal and cannot be cancelled or
/// signalled back to life.
#[test]
fn sealed_jobs_stay_terminal_across_restarts() {
    let world = World::new();
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let server = world.recover(&storage, snapshots.clone());
    let sealed: Vec<JobContact> = (0..4).map(|_| world.submit_and_cancel(&server)).collect();
    let live = world.submit(&server, SimDuration::from_hours(1));
    server.checkpoint().unwrap();
    assert_eq!(sealed_contacts(&snapshots).len(), sealed.len());
    drop(server);

    for _ in 0..2 {
        let server = world.recover(&storage, snapshots.clone());
        for contact in &sealed {
            assert!(server.job_state(contact).is_some_and(|s| s.is_terminal()));
            assert!(server.cancel(world.alice.chain(), contact).is_err());
            assert!(server.signal(world.alice.chain(), contact, GramSignal::Resume).is_err());
            assert!(
                server.job_state(contact).is_some_and(|s| s.is_terminal()),
                "sealed job {} came back to life",
                contact.as_str()
            );
        }
        assert!(server.job_state(&live).is_some_and(|s| !s.is_terminal()));
        server.checkpoint().unwrap();
        drop(server);
    }
    // Refused management never re-seals: each job is sealed exactly once.
    assert_eq!(sealed_contacts(&snapshots).len(), sealed.len());
}

/// (c) A job that completes in the scheduler, with no `Cancel` record,
/// is sealed too.
#[test]
fn completed_job_is_sealed_without_a_cancel_record() {
    let world = World::new();
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let server = world.recover(&storage, snapshots.clone());
    let done = world.submit(&server, SimDuration::from_mins(1));
    server.drain();
    assert!(server.job_state(&done).is_some_and(|s| s.is_terminal()));
    server.checkpoint().unwrap();
    assert_eq!(sealed_contacts(&snapshots), vec![done.as_str().to_string()]);
    assert!(snapshot_contacts(&snapshots).is_empty());
    drop(server);

    let server = world.recover(&storage, snapshots.clone());
    assert!(server.job_state(&done).is_some_and(|s| s.is_terminal()));
}

/// A snapshot written before sealing existed carries terminal jobs as
/// `Submit` + `Cancel`: it loads as before, and the next checkpoint
/// seals those jobs out of the snapshot.
#[test]
fn pre_sealing_snapshot_loads_and_its_terminal_jobs_get_sealed() {
    let world = World::new();
    let owner = world.alice.certificate().subject().to_string();
    let job = |index: u64| JournalRecord::Submit {
        index,
        contact: format!("gram://sealing-site/jobs/{index}"),
        owner: owner.clone(),
        rsl: RSL.to_string(),
        account: "alice".into(),
        dynamic: false,
        work_micros: SimDuration::from_hours(1).as_micros(),
        at_micros: 0,
    };
    let records = vec![
        job(1),
        JournalRecord::Cancel { contact: "gram://sealing-site/jobs/1".into(), at_micros: 5 },
        job(2),
    ];
    let mut snapshots = MemSnapshotStore::new();
    snapshots.save(&SnapshotBlob { covers_seq: 7, payload: encode_records(&records) }).unwrap();
    let storage = MemStorage::new();

    let server = world.recover(&storage, snapshots.clone());
    let done = JobContact::from_wire("gram://sealing-site/jobs/1");
    let live = JobContact::from_wire("gram://sealing-site/jobs/2");
    assert!(server.job_state(&done).is_some_and(|s| s.is_terminal()));
    assert!(server.job_state(&live).is_some_and(|s| !s.is_terminal()));
    // Numbered above the old snapshot's coverage.
    let next = world.submit(&server, SimDuration::from_hours(1));
    assert_eq!(next.as_str(), "gram://sealing-site/jobs/3");
    server.checkpoint().unwrap();
    assert_eq!(sealed_contacts(&snapshots), vec![done.as_str().to_string()]);
    assert_eq!(
        snapshot_contacts(&snapshots),
        vec![live.as_str().to_string(), next.as_str().to_string()]
    );
    drop(server);

    let server = world.recover(&storage, snapshots);
    assert!(server.job_state(&done).is_some_and(|s| s.is_terminal()));
    assert!(server.job_state(&live).is_some_and(|s| !s.is_terminal()));
    assert!(server.job_exists(&next));
}

/// A [`MemSnapshotStore`] whose next `seal_failures` seals and every
/// save while `fail_saves` is set fail.
#[derive(Clone)]
struct FlakyStore {
    inner: MemSnapshotStore,
    seal_failures: Arc<AtomicU64>,
    fail_saves: bool,
}

impl SnapshotStore for FlakyStore {
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>> {
        self.inner.load()
    }

    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()> {
        if self.fail_saves {
            return Err(io::Error::other("snapshot device full"));
        }
        self.inner.save(blob)
    }

    fn load_sealed(&mut self) -> io::Result<Vec<Vec<u8>>> {
        self.inner.load_sealed()
    }

    fn seal(&mut self, payloads: &[Vec<u8>]) -> io::Result<()> {
        let failing = self.seal_failures.load(Ordering::SeqCst);
        if failing > 0 {
            self.seal_failures.store(failing - 1, Ordering::SeqCst);
            return Err(io::Error::other("sealed segment unwritable"));
        }
        self.inner.seal(payloads)
    }
}

/// (d) A failed seal marks nothing sealed and saves no snapshot; the
/// next checkpoint seals the same jobs.
#[test]
fn failed_seal_is_retried_by_the_next_checkpoint() {
    let world = World::new();
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let store = FlakyStore {
        inner: snapshots.clone(),
        seal_failures: Arc::new(AtomicU64::new(1)),
        fail_saves: false,
    };
    let server = world.recover(&storage, store);
    let cancelled: Vec<String> =
        (0..3).map(|_| world.submit_and_cancel(&server).as_str().to_string()).collect();

    assert!(server.checkpoint().is_err(), "the seal fails");
    assert!(sealed_contacts(&snapshots).is_empty());
    assert!(!snapshots.has_snapshot(), "no snapshot is saved past a failed seal");

    server.checkpoint().unwrap();
    assert_eq!(sealed_contacts(&snapshots), cancelled);
    assert!(snapshot_contacts(&snapshots).is_empty());
    drop(server);

    let server = world.recover(&storage, snapshots.clone());
    for contact in &cancelled {
        let contact = JobContact::from_wire(contact);
        assert!(server.job_state(&contact).is_some_and(|s| s.is_terminal()));
    }
}

/// A failing snapshot store makes every automatic checkpoint fail: each
/// failure is counted and exported, and mutations keep being
/// acknowledged without losing anything.
#[test]
fn failed_automatic_checkpoints_are_counted() {
    let world = World::new();
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let store = FlakyStore {
        inner: snapshots.clone(),
        seal_failures: Arc::new(AtomicU64::new(0)),
        fail_saves: true,
    };
    let server = world
        .builder()
        .recover(DurabilityConfig {
            storage: Box::new(storage.clone()),
            snapshots: Box::new(store),
            snapshot_every: 4,
        })
        .unwrap();
    let contacts: Vec<JobContact> =
        (0..8).map(|_| world.submit(&server, SimDuration::from_hours(1))).collect();
    let failed = server.telemetry().counter(Stage::JournalAppend, labels::CHECKPOINT_FAILED);
    assert!(failed >= 2, "only {failed} failed checkpoints counted");
    let snapshot = server.telemetry_snapshot();
    assert!(snapshot
        .to_text()
        .contains(&format!("counter journal-append/checkpoint-failed = {failed}")));
    assert!(snapshot.to_json().contains("checkpoint-failed"));
    drop(server);

    let server = world.recover(&storage, snapshots);
    assert!(contacts.iter().all(|c| server.job_exists(c)));
}

/// Once the journal's device has died, audit riders and multi-request
/// rollbacks can no longer be journaled: both are counted.
#[test]
fn dropped_riders_and_unjournaled_rollbacks_are_counted() {
    let world = World::new();
    // Barrier 0 commits the first sub-job; barrier 1 (the second
    // sub-job's submit) kills the machine.
    let disk =
        FaultDisk::new(Some(FaultPlan { crash_after_syncs: 1, mode: CrashMode::Kill, seed: 1 }));
    let server = world
        .builder()
        .recover(DurabilityConfig {
            storage: Box::new(disk.storage()),
            snapshots: Box::new(MemSnapshotStore::new()),
            snapshot_every: 0,
        })
        .unwrap();
    let part = &RSL[1..];
    let multi = format!("+(&{part})(&{part})");
    let works = [SimDuration::from_hours(1); 2];
    assert!(server.submit_multi(world.alice.chain(), &multi, &works).is_err());
    assert!(disk.crashed());
    let telemetry = server.telemetry();
    assert_eq!(telemetry.counter(Stage::JournalAppend, labels::ROLLBACK_UNJOURNALED), 1);
    assert!(telemetry.counter(Stage::JournalAppend, labels::RIDER_DROPPED) >= 1);
    let text = server.telemetry_snapshot().to_text();
    assert!(text.contains("counter journal-append/rollback-unjournaled = 1"));
    assert!(text.contains("counter journal-append/rider-dropped = "));
}

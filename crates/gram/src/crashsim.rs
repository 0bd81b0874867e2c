//! Whole-server crash-point torture: a scripted workload against a
//! durable [`GramServer`] whose journal, snapshot and sealed segment all
//! live on one seeded [`FaultDisk`], killed at every durability barrier
//! in turn (journal syncs, seal syncs, snapshot saves, compactions),
//! recovered, and checked against an oracle of exactly which operations
//! were acknowledged before the lights went out. A second axis runs two
//! cycles: crash → recover → mutate → checkpoint → crash → recover, the
//! shape in which a restarted journal must keep numbering above the
//! snapshot it reopened after.
//!
//! The four recovery invariants, checked after every crash point:
//!
//! 1. **No acknowledged mutation is lost.** Every submit whose contact
//!    was returned is present after recovery; every acknowledged cancel
//!    and signal is still in effect; an acknowledged grid-map update
//!    still maps the identities it added.
//! 2. **No unacknowledged mutation is visible.** The recovered server
//!    holds exactly the acknowledged jobs — a submit that died inside
//!    the commit barrier must not leave a phantom job (or a torn frame
//!    that replays into one).
//! 3. **No cancelled job is resurrected.** An acknowledged cancel stays
//!    terminal across the crash, whatever the journal's tail looked
//!    like.
//! 4. **No stale identity is honored.** After an acknowledged
//!    revocation, the revoked chain fails authentication on the
//!    recovered server — recovery may not roll the trust store back.
//!
//! Plus the lease-table reconciliation rule (§4.3 dynamic accounts): the
//! recovered pool holds a lease exactly for each live dynamic-account
//! job. A crash *between* a lease grant's durability barrier and its
//! job's admission — the classic allocate-then-crash leak — must neither
//! leak the account nor double-grant it.
//!
//! Determinism: the workload is fixed; the only randomness is the torn
//! cut position inside the in-flight batch, driven by the case seed (and,
//! on the two-cycle axis, the seeded choice of the second crash). Every
//! case is therefore replayable from its `(boundary, mode, seed)` pairs.

use std::time::Instant;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_credential::{
    Certificate, CertificateAuthority, Credential, DistinguishedName, GridMapEntry, GridMapFile,
    TrustStore,
};
use gridauthz_enforcement::DynamicAccountPool;
use gridauthz_journal::{CrashMode, CrashRng, FaultDisk, FaultPlan, MemSnapshotStore};
use gridauthz_scheduler::JobState;

use crate::journal::DurabilityConfig;
use crate::protocol::{GramError, GramSignal, JobContact};
use crate::server::{GramServer, GramServerBuilder};

/// The scripted job request (one CPU so every cluster in the fixture
/// admits it immediately and deterministically).
const JOB_RSL: &str = "&(executable = transp)(directory = /sandbox/run)(count = 1)";

/// Status polls in the script's read stretch: enough audit riders
/// (about 100 bytes each) to fill the journal's pending buffer past
/// [`SPILL_BYTES`](gridauthz_journal::wal::SPILL_BYTES) at least once
/// before the next synced mutation.
const READ_STRETCH_POLLS: usize = 1024;

/// The simulated machine's files: all three crash together.
const WAL_FILE: usize = 0;
const SEALED_FILE: usize = 1;
const SNAPSHOT_FILE: usize = 2;

/// Durability over `disk`: the journal, the sealed segment and the
/// snapshot are files of the same machine, so a crash can land on any
/// of their barriers.
fn durable_on(disk: &FaultDisk, snapshot_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        storage: Box::new(disk.file(WAL_FILE)),
        snapshots: Box::new(MemSnapshotStore::over(
            disk.file(SNAPSHOT_FILE),
            disk.file(SEALED_FILE),
        )),
        snapshot_every,
    }
}

/// Bytes the platter kept across the machine's files.
fn platter_bytes(disk: &FaultDisk) -> u64 {
    [WAL_FILE, SEALED_FILE, SNAPSHOT_FILE].iter().map(|&f| disk.durable_file(f).len() as u64).sum()
}

/// The fixed cast and deployment configuration a torture run is built
/// from. Credentials are issued once and shared by every case in a
/// matrix: the workload is identical, only the crash point moves.
pub struct CrashWorld {
    clock: SimClock,
    ca_certificate: Certificate,
    /// Mapped in the grid-mapfile from the start.
    alice: Credential,
    /// Unmapped — leases a dynamic account; later revoked.
    bob: Credential,
    /// Mapped only by the mid-workload grid-map update.
    carol: Credential,
    /// Unmapped — leases a dynamic account that stays live to the end.
    kate: Credential,
    issuer: DistinguishedName,
    bob_serial: u64,
}

impl CrashWorld {
    /// Issues the fixture identities under a fresh CA.
    pub fn new() -> CrashWorld {
        let clock = SimClock::new();
        let ca =
            CertificateAuthority::new_root("/O=Grid/CN=Torture CA", &clock).expect("fixture CA");
        let day = SimDuration::from_hours(24);
        let alice = ca.issue_identity("/O=Grid/CN=Alice", day).expect("alice");
        let bob = ca.issue_identity("/O=Grid/CN=Bob", day).expect("bob");
        let carol = ca.issue_identity("/O=Grid/CN=Carol", day).expect("carol");
        let kate = ca.issue_identity("/O=Grid/CN=Kate", day).expect("kate");
        let issuer = bob.certificate().issuer().clone();
        let bob_serial = bob.certificate().serial();
        CrashWorld {
            clock,
            ca_certificate: ca.certificate().clone(),
            alice,
            bob,
            carol,
            kate,
            issuer,
            bob_serial,
        }
    }

    /// The deployment configuration every recovery starts from — the
    /// same trust anchors and *initial* grid-mapfile; everything the
    /// workload changed afterwards must come back from the journal, not
    /// from this builder.
    fn builder(&self) -> GramServerBuilder {
        let mut trust = TrustStore::new();
        trust.add_anchor(self.ca_certificate.clone());
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            self.alice.certificate().subject().clone(),
            vec!["alice".into()],
        ));
        GramServerBuilder::new("torture-site", &self.clock)
            .trust(trust)
            .gridmap(gridmap)
            .dynamic_accounts(DynamicAccountPool::new(
                "grid",
                4,
                60_000,
                SimDuration::from_hours(8),
            ))
    }

    /// The updated grid-mapfile step 6 installs.
    fn updated_gridmap(&self) -> GridMapFile {
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            self.alice.certificate().subject().clone(),
            vec!["alice".into()],
        ));
        gridmap.insert(GridMapEntry::new(
            self.carol.certificate().subject().clone(),
            vec!["carol".into()],
        ));
        gridmap
    }

    /// Runs the scripted workload until it completes or the machine
    /// dies, recording every acknowledged mutation in `oracle`.
    ///
    /// The script covers every journaled mutation class: static and
    /// dynamic-lease submits, a signal, cancels, a grid-map update and a
    /// credential revocation — so the crash-point sweep exercises every
    /// commit barrier the server has. Two operator checkpoints each seal
    /// a freshly cancelled job, so seal, snapshot-save and compaction
    /// barriers are swept too, whatever the automatic cadence. A read
    /// stretch spills audit riders to the journal unsynced, so step 4's
    /// barrier is also the first sync of spilled frames.
    fn run_workload(&self, server: &GramServer, oracle: &mut Oracle) {
        let work = SimDuration::from_mins(30);
        // 1. Alice submits J1 under her grid-mapfile account.
        let Some(j1) = oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false)
        else {
            return;
        };
        // 2. Bob (unmapped) submits J2 under a leased dynamic account.
        let Some(j2) = oracle.submit(server.submit(self.bob.chain(), JOB_RSL, None, work), true)
        else {
            return;
        };
        // 3. Kate (unmapped) submits J3; her lease outlives the crash.
        if oracle.submit(server.submit(self.kate.chain(), JOB_RSL, None, work), true).is_none() {
            return;
        }
        // Alice polls J1: reads only, their riders spill.
        self.read_stretch(server, &j1);
        // 4. Alice suspends J1.
        if !oracle.step(server.signal(self.alice.chain(), &j1, GramSignal::Suspend), |o| {
            o.job_mut(&j1).suspended = true;
        }) {
            return;
        }
        // 5. Bob cancels J2 — his dynamic account must be reclaimable.
        if !oracle.step(server.cancel(self.bob.chain(), &j2), |o| {
            o.job_mut(&j2).cancelled = true;
        }) {
            return;
        }
        // Operator checkpoint: seals J2.
        if !oracle.checkpoint(server.checkpoint()) {
            return;
        }
        // 6. The administrator maps Carol.
        if !oracle.step(server.set_gridmap(self.updated_gridmap()), |o| {
            o.gridmap_updated = true;
        }) {
            return;
        }
        // 7. Carol submits J4 under her newly mapped account.
        if oracle.submit(server.submit(self.carol.chain(), JOB_RSL, None, work), false).is_none() {
            return;
        }
        // 8. The administrator revokes Bob's credential.
        if !oracle.step(server.revoke_credential(&self.issuer, self.bob_serial), |o| {
            o.bob_revoked = true;
        }) {
            return;
        }
        // 9. Alice cancels the suspended J1.
        if !oracle.step(server.cancel(self.alice.chain(), &j1), |o| {
            o.job_mut(&j1).cancelled = true;
        }) {
            return;
        }
        // Operator checkpoint: seals J1 behind J2.
        if !oracle.checkpoint(server.checkpoint()) {
            return;
        }
        // 10. Alice submits J5, the final acknowledged job.
        oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false);
    }

    /// Alice polls `job` [`READ_STRETCH_POLLS`] times. A read crosses no
    /// durability barrier; its audit rider queues on the journal, and
    /// past `SPILL_BYTES` of them the queue is written out unsynced.
    fn read_stretch(&self, server: &GramServer, job: &JobContact) {
        for _ in 0..READ_STRETCH_POLLS {
            server.status(self.alice.chain(), job).expect("Alice may poll her own job");
        }
    }

    /// The second cycle's script, run on a recovered server: a submit, a
    /// cancel, a checkpoint that seals the cancelled job (and compacts
    /// the journal it reopened), then a submit the next recovery must
    /// still find.
    fn run_continuation(&self, server: &GramServer, oracle: &mut Oracle) {
        let work = SimDuration::from_mins(30);
        let Some(j6) = oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false)
        else {
            return;
        };
        if !oracle.step(server.cancel(self.alice.chain(), &j6), |o| {
            o.job_mut(&j6).cancelled = true;
        }) {
            return;
        }
        if !oracle.checkpoint(server.checkpoint()) {
            return;
        }
        oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false);
    }

    /// Checks the recovery invariants of `server` against what `oracle`
    /// saw acknowledged, returning one message per violation.
    fn check_invariants(&self, server: &GramServer, oracle: &Oracle) -> Vec<String> {
        let mut violations = Vec::new();
        for job in &oracle.jobs {
            let contact = JobContact::from_wire(&job.contact);
            match server.job_state(&contact) {
                // Invariant 1: acknowledged jobs survive.
                None => violations.push(format!("acknowledged job {} lost", job.contact)),
                Some(state) => {
                    // Invariant 3: acknowledged cancels stay terminal.
                    if job.cancelled && !matches!(state, JobState::Cancelled { .. }) {
                        violations.push(format!(
                            "cancelled job {} resurrected as {}",
                            job.contact,
                            state.label()
                        ));
                    }
                    if !job.cancelled
                        && job.suspended
                        && !matches!(state, JobState::Suspended { .. })
                    {
                        violations.push(format!(
                            "acknowledged suspend of {} lost (state {})",
                            job.contact,
                            state.label()
                        ));
                    }
                    if !job.cancelled && !job.suspended && state.is_terminal() {
                        violations.push(format!(
                            "live job {} recovered terminal ({})",
                            job.contact,
                            state.label()
                        ));
                    }
                }
            }
        }
        // Invariant 2: exactly the acknowledged jobs, no phantoms.
        if server.job_count() != oracle.jobs.len() {
            violations.push(format!(
                "recovered {} jobs, {} were acknowledged",
                server.job_count(),
                oracle.jobs.len()
            ));
        }
        // Lease reconciliation: one live lease per live dynamic job.
        let expected_leases = oracle.jobs.iter().filter(|j| j.dynamic && !j.cancelled).count();
        let active = server.active_lease_count();
        if active != Some(expected_leases) {
            violations.push(format!(
                "lease table recovered with {active:?} leases, {expected_leases} live \
                 dynamic jobs"
            ));
        }
        // Invariant 4: a revoked identity stays revoked.
        if oracle.bob_revoked {
            if let Some(job) = oracle.jobs.first() {
                let probe = server.status(self.bob.chain(), &JobContact::from_wire(&job.contact));
                if !matches!(probe, Err(GramError::AuthenticationFailed(_))) {
                    violations
                        .push(format!("revoked credential honored after recovery: {probe:?}"));
                }
            }
        }
        // Invariant 1, grid-map half: an acknowledged mapping keeps
        // working. Carol submits on the recovered server; losing the
        // update would either refuse her or silently lease her a
        // dynamic account (visible as a lease-count bump).
        if oracle.gridmap_updated {
            let work = SimDuration::from_mins(30);
            match server.submit(self.carol.chain(), JOB_RSL, None, work) {
                Ok(_) => {
                    if server.active_lease_count() != Some(expected_leases) {
                        violations.push(
                            "acknowledged grid-map update lost: post-recovery submit leased a \
                             dynamic account"
                                .into(),
                        );
                    }
                }
                Err(e) => violations
                    .push(format!("acknowledged grid-map update lost: carol refused ({e})")),
            }
        }
        violations
    }
}

impl Default for CrashWorld {
    fn default() -> CrashWorld {
        CrashWorld::new()
    }
}

/// One acknowledged job and the acknowledged operations on it.
#[derive(Debug, Clone)]
struct OracleJob {
    contact: String,
    dynamic: bool,
    cancelled: bool,
    suspended: bool,
}

/// What the workload driver saw acknowledged before the crash — the
/// ground truth recovery is checked against.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    jobs: Vec<OracleJob>,
    /// Acknowledged mutations, total.
    pub acked: usize,
    gridmap_updated: bool,
    bob_revoked: bool,
}

impl Oracle {
    /// Records a submit outcome; `None` stops the workload (the machine
    /// is dead).
    fn submit(
        &mut self,
        result: Result<JobContact, GramError>,
        dynamic: bool,
    ) -> Option<JobContact> {
        match result {
            Ok(contact) => {
                self.acked += 1;
                self.jobs.push(OracleJob {
                    contact: contact.as_str().to_string(),
                    dynamic,
                    cancelled: false,
                    suspended: false,
                });
                Some(contact)
            }
            Err(e) => {
                assert_durability_failure(&e);
                None
            }
        }
    }

    /// Records an operator checkpoint (not an acknowledged mutation);
    /// `false` stops the workload.
    fn checkpoint(&mut self, result: Result<(), GramError>) -> bool {
        match result {
            Ok(()) => true,
            Err(e) => {
                assert_durability_failure(&e);
                false
            }
        }
    }

    /// Records a non-submit step; `false` stops the workload.
    fn step(&mut self, result: Result<(), GramError>, on_ack: impl FnOnce(&mut Oracle)) -> bool {
        match result {
            Ok(()) => {
                self.acked += 1;
                on_ack(self);
                true
            }
            Err(e) => {
                assert_durability_failure(&e);
                false
            }
        }
    }

    fn job_mut(&mut self, contact: &JobContact) -> &mut OracleJob {
        self.jobs
            .iter_mut()
            .find(|j| j.contact == contact.as_str())
            .expect("oracle tracks every acknowledged contact")
    }
}

/// The scripted workload only ever fails at a durability barrier;
/// anything else is a harness bug, not a crash outcome.
fn assert_durability_failure(e: &GramError) {
    assert!(
        matches!(e, GramError::AuthorizationSystemFailure(msg) if msg.starts_with("durability:")),
        "scripted step refused for a non-durability reason: {e}"
    );
}

/// One cell of the torture matrix.
#[derive(Debug, Clone, Copy)]
pub struct CrashCase {
    /// Which durability barrier dies (0-based sync index).
    pub boundary: u64,
    /// What the platter keeps of the in-flight batch.
    pub mode: CrashMode,
    /// Seed for the torn/short cut position.
    pub seed: u64,
}

/// What one crash-recover cycle produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Whether the planned crash actually fired (a boundary beyond the
    /// workload's sync count never does).
    pub crashed: bool,
    /// Mutations acknowledged before the crash.
    pub acked: usize,
    /// Bytes the platter kept — what recovery had to read.
    pub journal_bytes: u64,
    /// Wall time of the recovery (journal open + replay + reconcile).
    pub recovery_nanos: u64,
    /// Invariant violations (empty = the case passed).
    pub violations: Vec<String>,
}

impl CrashCase {
    fn plan(self) -> FaultPlan {
        FaultPlan { crash_after_syncs: self.boundary, mode: self.mode, seed: self.seed }
    }
}

/// Runs one crash-recover cycle: workload against a disk scripted to die
/// at `case.boundary`, then recovery from exactly the bytes the platter
/// kept, then the invariant checks.
pub fn run_case(world: &CrashWorld, case: CrashCase, snapshot_every: u64) -> CaseOutcome {
    run_cycles(world, case, None, snapshot_every)
}

/// The workload dies at `first`. With a `second` case, the recovered
/// server then runs the continuation script (submit, cancel, checkpoint,
/// submit) on a disk scripted to die at `second`. The final recovery is
/// checked against everything either cycle acknowledged; `crashed`
/// reports whether every planned crash fired.
fn run_cycles(
    world: &CrashWorld,
    first: CrashCase,
    second: Option<CrashCase>,
    snapshot_every: u64,
) -> CaseOutcome {
    let mut disk = FaultDisk::new(Some(first.plan()));
    let server =
        world.builder().recover(durable_on(&disk, snapshot_every)).expect("fresh durable server");
    let mut oracle = Oracle::default();
    world.run_workload(&server, &mut oracle);
    drop(server);
    let mut crashed = disk.crashed();
    let mut violations = Vec::new();

    if let Some(second) = second {
        let middle = disk.survivor(Some(second.plan()));
        match world.builder().recover(durable_on(&middle, snapshot_every)) {
            Ok(server) => world.run_continuation(&server, &mut oracle),
            Err(e) => violations.push(format!("first recovery failed: {e}")),
        }
        crashed &= middle.crashed();
        disk = middle;
    }

    let survivor = disk.survivor(None);
    let start = Instant::now();
    let recovered = world.builder().recover(durable_on(&survivor, snapshot_every));
    let recovery_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    match recovered {
        Ok(server) if violations.is_empty() => {
            violations = world.check_invariants(&server, &oracle);
        }
        Ok(_) => {}
        Err(e) => violations.push(format!("recovery failed: {e}")),
    }
    CaseOutcome {
        crashed,
        acked: oracle.acked,
        journal_bytes: platter_bytes(&disk),
        recovery_nanos,
        violations,
    }
}

/// Durability barriers the full workload crosses (the sweep's boundary
/// range), measured by running it once on a disk that never fails.
pub fn baseline_syncs(world: &CrashWorld, snapshot_every: u64) -> u64 {
    let disk = FaultDisk::new(None);
    let server =
        world.builder().recover(durable_on(&disk, snapshot_every)).expect("baseline server");
    let mut oracle = Oracle::default();
    world.run_workload(&server, &mut oracle);
    assert!(!disk.crashed(), "baseline disk has no fault plan");
    disk.syncs()
}

/// Durability barriers the continuation script crosses after an
/// uncrashed workload — the range the two-cycle axis draws its second
/// crash from.
fn continuation_syncs(world: &CrashWorld, snapshot_every: u64) -> u64 {
    let disk = FaultDisk::new(None);
    let server =
        world.builder().recover(durable_on(&disk, snapshot_every)).expect("baseline server");
    let mut oracle = Oracle::default();
    world.run_workload(&server, &mut oracle);
    drop(server);
    let restarted = disk.survivor(None);
    let server =
        world.builder().recover(durable_on(&restarted, snapshot_every)).expect("restarted server");
    world.run_continuation(&server, &mut oracle);
    restarted.syncs()
}

/// A full matrix sweep's tally.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Durability barriers in the workload (boundaries swept).
    pub boundaries: u64,
    /// Crash-recover cycles run.
    pub cases: u64,
    /// Cases where the planned crash fired.
    pub crashes: u64,
    /// Mutations acknowledged across all cases.
    pub acked_total: u64,
    /// Two-cycle cases run (one per single-cycle case).
    pub two_cycle_cases: u64,
    /// Two-cycle cases where both planned crashes fired.
    pub two_cycle_crashes: u64,
    /// Every violation, labeled with its case coordinates.
    pub violations: Vec<String>,
}

/// Sweeps every durability barrier × every [`CrashMode`] × every seed:
/// the deterministic crash-point torture matrix. Each cell also runs a
/// two-cycle case whose second crash (barrier and mode) is drawn from
/// the cell's seed. An empty `violations` is the headline robustness
/// claim.
pub fn run_matrix(world: &CrashWorld, seeds: &[u64], snapshot_every: u64) -> MatrixReport {
    let boundaries = baseline_syncs(world, snapshot_every);
    let second_range = continuation_syncs(world, snapshot_every);
    let mut report = MatrixReport { boundaries, ..MatrixReport::default() };
    for &seed in seeds {
        for boundary in 0..boundaries {
            for mode in CrashMode::ALL {
                let case = CrashCase { boundary, mode, seed };
                let outcome = run_case(world, case, snapshot_every);
                report.cases += 1;
                if outcome.crashed {
                    report.crashes += 1;
                }
                report.acked_total += outcome.acked as u64;
                report.violations.extend(outcome.violations.into_iter().map(|v| {
                    format!("seed {seed} boundary {boundary} mode {}: {v}", mode.as_str())
                }));

                let mut rng = CrashRng::new(seed).substream(boundary * 3 + mode as u64);
                let second = CrashCase {
                    boundary: rng.below(second_range.max(1)),
                    mode: CrashMode::ALL[rng.below(3) as usize],
                    seed: rng.next_u64(),
                };
                let outcome = run_cycles(world, case, Some(second), snapshot_every);
                report.two_cycle_cases += 1;
                if outcome.crashed {
                    report.two_cycle_crashes += 1;
                }
                report.acked_total += outcome.acked as u64;
                report.violations.extend(outcome.violations.into_iter().map(|v| {
                    format!(
                        "seed {seed} boundary {boundary} mode {} then boundary {} mode {}: {v}",
                        mode.as_str(),
                        second.boundary,
                        second.mode.as_str()
                    )
                }));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use gridauthz_journal::SnapshotStore;

    use super::*;
    use crate::journal::{decode_records, JournalRecord};

    #[test]
    fn workload_completes_without_faults() {
        let world = CrashWorld::new();
        let syncs = baseline_syncs(&world, 0);
        // The script journals every mutation class; the barrier count
        // pins the workload's durability surface so the sweep range
        // cannot silently shrink. Audit frames ride their mutation's
        // batch, so the count tracks acknowledged mutations (plus the
        // shutdown flush), not total records.
        assert!(syncs >= 12, "workload crossed only {syncs} durability barriers");
    }

    #[test]
    fn read_stretch_spills_riders_without_a_barrier() {
        use gridauthz_journal::wal::SPILL_BYTES;
        use gridauthz_journal::Storage;

        let world = CrashWorld::new();
        let disk = FaultDisk::new(None);
        let server = world.builder().recover(durable_on(&disk, 0)).expect("durable server");
        let work = SimDuration::from_mins(30);
        let j1 = server.submit(world.alice.chain(), JOB_RSL, None, work).unwrap();
        let barriers = disk.syncs();
        world.read_stretch(&server, &j1);
        assert_eq!(disk.syncs(), barriers, "reads cross no durability barrier");
        // The spilled riders sit in the page cache, written but unsynced.
        let written = disk.file(WAL_FILE).read_all().unwrap().len();
        let durable = disk.durable_file(WAL_FILE).len();
        assert!(written - durable >= SPILL_BYTES, "only {} unsynced bytes", written - durable);
    }

    #[test]
    fn uncrashed_case_recovers_cleanly() {
        let world = CrashWorld::new();
        let boundaries = baseline_syncs(&world, 0);
        // Boundary beyond the workload: the crash never fires; recovery
        // replays a complete journal.
        let outcome = run_case(
            &world,
            CrashCase { boundary: boundaries + 10, mode: CrashMode::Kill, seed: 1 },
            0,
        );
        assert!(!outcome.crashed);
        assert_eq!(outcome.violations, Vec::<String>::new());
        assert_eq!(outcome.acked, 10, "all ten scripted steps acknowledged");
    }

    #[test]
    fn first_and_middle_boundaries_hold_invariants() {
        let world = CrashWorld::new();
        for boundary in [0, 3, 7] {
            for mode in CrashMode::ALL {
                let outcome = run_case(&world, CrashCase { boundary, mode, seed: 42 }, 0);
                assert!(outcome.crashed, "boundary {boundary} must crash");
                assert_eq!(
                    outcome.violations,
                    Vec::<String>::new(),
                    "boundary {boundary} mode {}",
                    mode.as_str()
                );
            }
        }
    }

    #[test]
    fn script_seals_jobs_across_two_checkpoints() {
        let world = CrashWorld::new();
        let disk = FaultDisk::new(None);
        let server = world.builder().recover(durable_on(&disk, 0)).expect("durable server");
        let mut oracle = Oracle::default();
        world.run_workload(&server, &mut oracle);
        drop(server);
        let sealed = MemSnapshotStore::over(disk.file(SNAPSHOT_FILE), disk.file(SEALED_FILE))
            .load_sealed()
            .unwrap();
        let contacts: Vec<String> = sealed
            .iter()
            .map(|payload| match &decode_records(payload).unwrap()[0] {
                JournalRecord::Submit { contact, .. } => contact.clone(),
                other => panic!("sealed payload starts with {other:?}"),
            })
            .collect();
        // J2 (cancelled first) then J1: one job per checkpoint, in the
        // order they were sealed, not in job-index order.
        assert_eq!(contacts, vec![oracle.jobs[1].contact.clone(), oracle.jobs[0].contact.clone()]);
    }

    #[test]
    fn two_cycle_cases_hold_invariants() {
        let world = CrashWorld::new();
        let first_range = baseline_syncs(&world, 0);
        let second_range = continuation_syncs(&world, 0);
        assert!(second_range >= 4, "continuation crossed only {second_range} barriers");
        // The last barriers of the first cycle sit after the second
        // checkpoint's compaction, so the restarted journal is empty and
        // must number above the snapshot it reopened after.
        for first in [first_range - 1, first_range / 2] {
            for second in 0..=second_range {
                for mode in CrashMode::ALL {
                    let outcome = run_cycles(
                        &world,
                        CrashCase { boundary: first, mode, seed: 11 },
                        Some(CrashCase { boundary: second, mode, seed: 12 }),
                        0,
                    );
                    assert_eq!(
                        outcome.violations,
                        Vec::<String>::new(),
                        "first {first} second {second} mode {}",
                        mode.as_str()
                    );
                }
            }
        }
    }

    #[test]
    fn checkpointing_cases_hold_invariants() {
        let world = CrashWorld::new();
        // snapshot_every = 4: checkpoints fire mid-workload, so these
        // crashes land on snapshot+tail recoveries, not pure replay.
        for boundary in [2, 6, 10] {
            for mode in CrashMode::ALL {
                let outcome = run_case(&world, CrashCase { boundary, mode, seed: 7 }, 4);
                assert_eq!(
                    outcome.violations,
                    Vec::<String>::new(),
                    "boundary {boundary} mode {} (with checkpoints)",
                    mode.as_str()
                );
            }
        }
    }
}

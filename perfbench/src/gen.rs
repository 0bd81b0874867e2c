//! Seeded input generation.
//!
//! Everything a run sends is produced here, before any timing starts:
//! the credentials (identity chains, freshly delegated proxies, chains
//! from an untrusted CA), the request list of each connection lane, its
//! split into sessions, and the verdict the oracle expects for every
//! request. The only bytes filled in while the run is live are job
//! contacts, which the server assigns: a request names the *job slot* an
//! earlier `SUBMIT` of the same lane (or of the populate phase) filled.

use std::fmt::Write as _;

use gridauthz_clock::{SimClock, SimDuration, SimTime};
use gridauthz_credential::{pem, CertificateAuthority, Credential, DistinguishedName};
use gridauthz_sim::TestbedBuilder;

/// Wire error codes the oracle predicts.
pub const AUTHENTICATION_FAILED: &str = "AUTHENTICATION_FAILED";
/// Policy denial (also what an outsider without grants receives on a
/// management request: the management path consults policy, not the
/// grid-mapfile).
pub const AUTHORIZATION_DENIED: &str = "AUTHORIZATION_DENIED";

/// Simulated work of every job: long enough that no job completes
/// (the simulated clock does not advance while the TCP front-end
/// serves), so a live job stays `running`.
pub const WORK_MICROS: u64 = 3_600_000_000;

/// Lanes (= client threads = simultaneous connections).
pub const LANES: usize = 2;

/// How often a lane revokes the proxy of an upcoming stale login: a
/// fixed wall-clock interval, so the administrative write load (and the
/// checkpoints it triggers) does not scale with throughput.
pub const REVOKE_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// A revocation targets a stale login at least this many sessions
/// ahead, so it is normally published before that session starts.
pub const REVOKE_LEAD: usize = 16;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StatusWarm,
    ProxyChurn,
    SubmitCancelDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::StatusWarm, Workload::ProxyChurn, Workload::SubmitCancelDurable];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::StatusWarm => "status-warm",
            Workload::ProxyChurn => "proxy-churn",
            Workload::SubmitCancelDurable => "submit-cancel-durable",
        }
    }

    /// Analyst members in the testbed's VO and grid-mapfile.
    pub fn members(self) -> usize {
        match self {
            Workload::StatusWarm => 64,
            Workload::ProxyChurn => 1024,
            Workload::SubmitCancelDurable => 256,
        }
    }

    /// Closed-loop pipelining window per connection.
    pub fn window(self) -> usize {
        match self {
            Workload::StatusWarm => 16,
            Workload::ProxyChurn => 4,
            Workload::SubmitCancelDurable => 8,
        }
    }

    /// Open-loop offered rate, both connections together (requests/s):
    /// about half of the closed-loop throughput the parent commit of
    /// this benchmark reached on a 2-vCPU host.
    pub fn open_rps(self) -> f64 {
        match self {
            Workload::StatusWarm => 6_000.0,
            Workload::ProxyChurn => 4_000.0,
            Workload::SubmitCancelDurable => 500.0,
        }
    }

    /// Closed-loop throughput the pre-generated stream is sized for:
    /// about twice what the parent commit of this benchmark reached on a
    /// 2-vCPU host. A faster run stops its closed loop early instead of
    /// wrapping around, and its windowed median counts only the windows
    /// before that.
    fn max_rps(self) -> f64 {
        match self {
            Workload::StatusWarm => 120_000.0,
            Workload::ProxyChurn => 45_000.0,
            Workload::SubmitCancelDurable => 12_000.0,
        }
    }
}

/// Who a credential speaks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Person {
    Member(u32),
    Admin,
    Outsider,
}

/// One credential as presented on the wire.
#[derive(Debug)]
pub struct Cred {
    /// The PEM-armored chain, leaf first.
    pub pem: String,
    pub person: Person,
    /// Issuer and serial of the leaf certificate: what a revocation of
    /// this credential names.
    pub issuer: DistinguishedName,
    pub serial: u64,
}

/// The request verb; `Submit` carries its RSL as a range of
/// [`Program::arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Submit { start: u32, len: u32 },
    Status,
    Cancel,
}

/// The verdict the oracle expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `SUBMITTED`; the contact fills the request's `fills` slot.
    Submitted,
    /// `REPORT` for the target job, naming the slot owner.
    Report,
    /// `DONE`.
    Done,
    /// `ERROR` with this code.
    Error(&'static str),
}

#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub cred: u32,
    pub verb: Verb,
    /// Job slot whose contact the request names (status, cancel).
    pub target: Option<u32>,
    /// Job slot an accepted submit fills.
    pub fills: Option<u32>,
    pub expect: Expect,
}

impl Req {
    /// True for an acknowledged mutation (a journaled, fsynced write).
    pub fn mutates(&self) -> bool {
        matches!(self.expect, Expect::Submitted | Expect::Done)
    }
}

/// A run of requests over one TCP connection.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub first: u32,
    pub len: u32,
    /// A stale login: the session re-presents an older proxy, which its
    /// lane may revoke before the session runs.
    pub stale: bool,
}

#[derive(Debug, Default)]
pub struct Lane {
    pub reqs: Vec<Req>,
    pub sessions: Vec<Session>,
    /// The first `populate` sessions form the fixed-size populate phase.
    pub populate: usize,
}

impl Lane {
    pub fn session_reqs(&self, session: &Session) -> &[Req] {
        &self.reqs[session.first as usize..(session.first + session.len) as usize]
    }

    fn push_session(&mut self, reqs: Vec<Req>, stale: bool) {
        let first = u32::try_from(self.reqs.len()).expect("lane fits u32");
        let len = u32::try_from(reqs.len()).expect("session fits u32");
        self.reqs.extend(reqs);
        self.sessions.push(Session { first, len, stale });
    }
}

/// Everything one run sends, plus what it expects back.
#[derive(Debug)]
pub struct Program {
    pub workload: Workload,
    pub seed: u64,
    pub creds: Vec<Cred>,
    /// Identity DN of member `i`, as the server prints job owners.
    pub member_dns: Vec<String>,
    /// Owner (member index) of each job slot.
    pub slot_owner: Vec<u32>,
    /// RSL texts of all submits.
    pub arena: String,
    pub lanes: Vec<Lane>,
}

impl Program {
    pub fn slots(&self) -> usize {
        self.slot_owner.len()
    }

    pub fn rsl(&self, verb: Verb) -> Option<&str> {
        match verb {
            Verb::Submit { start, len } => {
                Some(&self.arena[start as usize..(start + len) as usize])
            }
            Verb::Status | Verb::Cancel => None,
        }
    }

    /// Appends the wire frame of `req` to `out`; `contact` is the
    /// target slot's job contact (required for status and cancel).
    pub fn frame_into(&self, req: &Req, contact: Option<&str>, out: &mut Vec<u8>) {
        out.extend_from_slice(self.creds[req.cred as usize].pem.as_bytes());
        match req.verb {
            Verb::Submit { .. } => {
                out.extend_from_slice(b"GRAM/1 SUBMIT\nrsl: ");
                out.extend_from_slice(self.rsl(req.verb).unwrap_or_default().as_bytes());
                out.extend_from_slice(format!("\nwork-micros: {WORK_MICROS}\n").as_bytes());
            }
            Verb::Status | Verb::Cancel => {
                out.extend_from_slice(if req.verb == Verb::Status {
                    b"GRAM/1 STATUS\njob: "
                } else {
                    b"GRAM/1 CANCEL\njob: "
                });
                out.extend_from_slice(contact.unwrap_or_default().as_bytes());
                out.push(b'\n');
            }
        }
        out.push(b'\n');
    }

    /// SHA-256 over a canonical serialization of the whole program:
    /// credentials, RSL arena, every request with its expectation, and
    /// the session split. Equal digests mean byte-identical streams.
    pub fn digest(&self) -> String {
        let mut text = String::new();
        let _ = writeln!(text, "{} {}", self.workload.name(), self.seed);
        for cred in &self.creds {
            let _ =
                writeln!(text, "{:?} {} {}\n{}", cred.person, cred.issuer, cred.serial, cred.pem);
        }
        let _ = writeln!(text, "{:?}\n{}", self.slot_owner, self.arena);
        for lane in &self.lanes {
            let _ = writeln!(text, "populate {}", lane.populate);
            for req in &lane.reqs {
                let _ = writeln!(text, "{req:?}");
            }
            for session in &lane.sessions {
                let _ = writeln!(text, "{session:?}");
            }
        }
        gridauthz_credential::sha256(text.as_bytes()).iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Generates the program for `workload` and `seed`, sized for
/// `open_seconds` of open loop and `closed_seconds` of closed loop after
/// the populate phase.
pub fn generate(workload: Workload, seed: u64, open_seconds: f64, closed_seconds: f64) -> Program {
    let mut gen = Gen::new(workload, seed);
    let requests = workload.open_rps() * open_seconds + workload.max_rps() * closed_seconds;
    let per_lane = (requests / LANES as f64).ceil() as usize;
    match workload {
        Workload::StatusWarm => gen.status_warm(per_lane),
        Workload::ProxyChurn => gen.proxy_churn(per_lane),
        Workload::SubmitCancelDurable => gen.submit_cancel(per_lane),
    }
    gen.program
}

struct Gen {
    rng: Rng,
    program: Program,
    /// The testbed's member and VO-admin identities. Derived from DNs
    /// alone, so they equal the identities of the server built for the
    /// run.
    members: Vec<Credential>,
    admin: Credential,
}

impl Gen {
    fn new(workload: Workload, seed: u64) -> Gen {
        let tb = TestbedBuilder::new().members(workload.members()).build();
        let mut program = Program {
            workload,
            seed,
            creds: Vec::new(),
            member_dns: tb.members.iter().map(|m| m.identity().to_string()).collect(),
            slot_owner: Vec::new(),
            arena: String::new(),
            lanes: (0..LANES).map(|_| Lane::default()).collect(),
        };
        for (i, member) in tb.members.iter().enumerate() {
            program.creds.push(cred(member, Person::Member(i as u32)));
        }
        program.creds.push(cred(&tb.admin, Person::Admin));
        program.creds.push(cred(&tb.outsider, Person::Outsider));
        Gen {
            rng: Rng::new(seed ^ 0x6772_616D_2D62_656E),
            program,
            members: tb.members,
            admin: tb.admin,
        }
    }

    fn members(&self) -> u32 {
        self.members.len() as u32
    }

    fn admin_cred(&self) -> u32 {
        self.members()
    }

    fn outsider_cred(&self) -> u32 {
        self.members() + 1
    }

    fn new_slot(&mut self, owner: u32) -> u32 {
        self.program.slot_owner.push(owner);
        (self.program.slot_owner.len() - 1) as u32
    }

    fn push_rsl(&mut self, rsl: &str) -> Verb {
        let start = self.program.arena.len() as u32;
        self.program.arena.push_str(rsl);
        Verb::Submit { start, len: rsl.len() as u32 }
    }

    /// An accepted submit by member `m` filling a fresh slot.
    fn accepted_submit(&mut self, m: u32, count: u64, tag: &str) -> Req {
        let slot = self.new_slot(m);
        let verb = self.push_rsl(&format!(
            "&(executable = TRANSP)(jobtag = NFC)(count = {count})(arguments = {tag})"
        ));
        Req { cred: m, verb, target: None, fills: Some(slot), expect: Expect::Submitted }
    }

    /// One populate job per member: lane `m % LANES` submits member
    /// `m`'s job, `per_session` submits to a session. Slot `m` is
    /// member `m`'s job.
    fn populate_one_job_each(&mut self, per_session: usize) {
        let seed = self.program.seed;
        let mut per_lane: Vec<Vec<Req>> = vec![Vec::new(); LANES];
        for m in 0..self.members() {
            let req = self.accepted_submit(m, 1, &format!("populate-{seed}-{m}"));
            per_lane[m as usize % LANES].push(req);
        }
        for (lane, reqs) in per_lane.into_iter().enumerate() {
            for chunk in reqs.chunks(per_session) {
                self.program.lanes[lane].push_session(chunk.to_vec(), false);
            }
            self.program.lanes[lane].populate = self.program.lanes[lane].sessions.len();
        }
    }

    /// `status-warm`: 64 members, one live job each. Sessions of 256
    /// pipelined STATUS frames re-present one identity chain. About 10%
    /// of requests are predicted denials: outsider sessions (5%) and
    /// members asking about another member's job (5% of their requests).
    ///
    /// The populate phase also runs 468 submit/cancel pairs, so the
    /// restart replays 1000 acknowledged mutations (2000 journal frames
    /// with their audit riders: one checkpoint, then a tail well short of
    /// the next, so every run recovers the same snapshot and tail). The
    /// cancelled jobs are never polled.
    fn status_warm(&mut self, per_lane: usize) {
        const SESSION: usize = 256;
        const PAIRS_PER_SESSION: usize = 36;
        const PAIR_SESSIONS: usize = 13;
        self.populate_one_job_each(32);
        let members = u64::from(self.members());
        let seed = self.program.seed;
        for session in 0..PAIR_SESSIONS {
            let member = self.rng.below(members) as u32;
            let submits: Vec<Req> = (0..PAIRS_PER_SESSION)
                .map(|i| self.accepted_submit(member, 1, &format!("churn-{seed}-{session}-{i}")))
                .collect();
            let cancels: Vec<Req> = submits
                .iter()
                .map(|req| self.cancel(member, req.fills.expect("accepted submit fills a slot")))
                .collect();
            let lane = &mut self.program.lanes[session % LANES];
            lane.push_session(submits.into_iter().chain(cancels).collect(), false);
            lane.populate += 1;
        }
        for lane in 0..LANES {
            let mut generated = 0;
            while generated < per_lane {
                let outsider = self.rng.percent(5);
                let member = self.rng.below(members) as u32;
                let cred = if outsider { self.outsider_cred() } else { member };
                let reqs = (0..SESSION)
                    .map(|_| {
                        let other = self.rng.below(members) as u32;
                        let (target, expect) =
                            if outsider || (other != member && self.rng.percent(5)) {
                                (other, Expect::Error(AUTHORIZATION_DENIED))
                            } else {
                                (member, Expect::Report)
                            };
                        Req { cred, verb: Verb::Status, target: Some(target), fills: None, expect }
                    })
                    .collect();
                self.program.lanes[lane].push_session(reqs, false);
                generated += SESSION;
            }
        }
    }

    /// `proxy-churn`: 1024 members with one job each. Every session
    /// presents a freshly delegated proxy (a new chain per session, up
    /// to a pool of 8192 per lane, far beyond the auth cache) and sends
    /// 1–4 STATUS requests (mean 3): a member about its own job, or (10% of
    /// sessions) the VO admin about any NFC job. 5% of sessions present
    /// a chain from an untrusted CA. Every 32nd session of lane 0 is a
    /// *stale login* re-presenting the proxy of a session 64 earlier;
    /// the lane revokes such proxies at a fixed interval (see
    /// [`REVOKE_INTERVAL`]), and every use of a revoked proxy must be
    /// refused.
    fn proxy_churn(&mut self, per_lane: usize) {
        const POOL: usize = 8192;
        const STALE_EVERY: usize = 32;
        const STALE_AGE: usize = 64;
        const ROGUES: usize = 64;
        self.populate_one_job_each(64);
        let members = u64::from(self.members());

        // Same name as the trusted root, different key: trust matching
        // is by key, so every chain it issues is refused.
        let rogue_ca = CertificateAuthority::new_root_with_seed(
            "/O=Grid/CN=Testbed CA",
            self.rng.next_u64(),
            &SimClock::new(),
        )
        .expect("rogue CA DN parses");
        let mut rogues = Vec::with_capacity(ROGUES);
        for _ in 0..ROGUES {
            let m = self.rng.below(members) as u32;
            let rogue = rogue_ca
                .issue_identity(&self.program.member_dns[m as usize], SimDuration::from_hours(1000))
                .expect("member DN parses");
            rogues.push((self.program.creds.len() as u32, m));
            self.program.creds.push(cred(&rogue, Person::Member(m)));
        }

        for lane in 0..LANES {
            let mut pool: Vec<u32> = Vec::new();
            // The proxy each session presented (None for rogue chains
            // and stale logins).
            let mut presented: Vec<Option<u32>> = Vec::new();
            let mut generated = 0;
            while generated < per_lane {
                let session = presented.len();
                // 1–4 requests, weighted toward longer sessions (k with
                // weight k): first requests, which pay for the connection
                // and the chain verification, are a third of the load, so
                // the median sits inside the cached-chain cluster rather
                // than on the edge between the two.
                let len = match self.rng.below(10) {
                    0 => 1,
                    1..=2 => 2,
                    3..=5 => 3,
                    _ => 4,
                };
                let stale_proxy = (lane == 0 && session % STALE_EVERY == STALE_EVERY - 1)
                    .then(|| session.checked_sub(STALE_AGE).and_then(|old| presented[old]))
                    .flatten();
                let (reqs, stale) = if let Some(cred) = stale_proxy {
                    (self.proxy_session(cred, len), true)
                } else if self.rng.percent(5) {
                    let (cred, m) = rogues[self.rng.below(ROGUES as u64) as usize];
                    let reqs: Vec<Req> = (0..len)
                        .map(|_| Req {
                            cred,
                            verb: Verb::Status,
                            target: Some(m),
                            fills: None,
                            expect: Expect::Error(AUTHENTICATION_FAILED),
                        })
                        .collect();
                    (reqs, false)
                } else {
                    let cred = if pool.len() < POOL {
                        let cred = self.fresh_proxy();
                        pool.push(cred);
                        cred
                    } else {
                        pool[session % POOL]
                    };
                    (self.proxy_session(cred, len), false)
                };
                let proxy = reqs[0].expect == Expect::Report && !stale;
                presented.push(proxy.then_some(reqs[0].cred));
                generated += reqs.len();
                self.program.lanes[lane].push_session(reqs, stale);
            }
        }
    }

    /// `len` STATUS requests on a proxy: the owner about its own job, the
    /// admin about any job. Answered with reports unless the lane has
    /// revoked the proxy by the time the session runs.
    fn proxy_session(&mut self, cred: u32, len: usize) -> Vec<Req> {
        let members = u64::from(self.members());
        let person = self.program.creds[cred as usize].person;
        (0..len)
            .map(|_| {
                let target = match person {
                    Person::Member(m) => m,
                    Person::Admin | Person::Outsider => self.rng.below(members) as u32,
                };
                Req {
                    cred,
                    verb: Verb::Status,
                    target: Some(target),
                    fills: None,
                    expect: Expect::Report,
                }
            })
            .collect()
    }

    /// Delegates a fresh proxy for a member (90%) or the VO admin (10%).
    /// The lifetime is drawn from the seed, which makes the proxy's key
    /// and bytes seed-dependent.
    fn fresh_proxy(&mut self) -> u32 {
        let (parent, person) = if self.rng.percent(10) {
            (&self.admin, Person::Admin)
        } else {
            let m = self.rng.below(u64::from(self.members())) as u32;
            (&self.members[m as usize], Person::Member(m))
        };
        let lifetime = SimDuration::from_micros(24 * 3_600_000_000 + self.rng.below(1 << 30));
        let proxy = parent.delegate_proxy_at(SimTime::EPOCH, lifetime).expect("proxy subject");
        self.program.creds.push(cred(&proxy, person));
        (self.program.creds.len() - 1) as u32
    }

    /// `submit-cancel-durable`: 256 members; lane `l` owns the jobs of
    /// members `m % 2 == l`. Sessions of 64 requests by one identity:
    ///
    /// * a member session (90%) opens with 28 SUBMITs (each RSL unique;
    ///   15% predicted policy denials), then mixes STATUS and CANCEL on
    ///   its own jobs, cancelling all but 0–2 of them by the end;
    /// * a VO-admin session (10%) checks the lane's leftover NFC jobs
    ///   and cancels those above 24.
    ///
    /// The mix is therefore the same for every seed: about two thirds of
    /// the requests are acknowledged mutations, so the median latency
    /// sits inside the fsync-bound cluster rather than on the edge
    /// between it and the cheap polls. A lane holds at most 28 + ~30
    /// live jobs of at most 4 CPUs: the live population
    /// stays well below half of the 1024 CPUs. A status or cancel names
    /// a job submitted at least `2 × window` requests earlier on its
    /// lane, so its contact is normally known by the time it is due.
    fn submit_cancel(&mut self, per_lane: usize) {
        const SESSION: usize = 64;
        const SUBMITS: usize = 28;
        const LEFTOVER: usize = 24;
        const POPULATE_MUTATIONS: usize = 512;
        let gap = 2 * Workload::SubmitCancelDurable.window();
        let seed = self.program.seed;
        let mut seq = 0u64;
        for lane in 0..LANES {
            let lane_members: Vec<u32> =
                (0..self.members()).filter(|m| *m as usize % LANES == lane).collect();
            // Jobs left running by finished sessions: (slot, lane index
            // of the submit).
            let mut leftovers: Vec<(u32, usize)> = Vec::new();
            let mut mutations = 0;
            let mut populating = true;
            let mut timed = 0;
            while timed < per_lane {
                let base = self.program.lanes[lane].reqs.len();
                let mut reqs = Vec::with_capacity(SESSION);
                if self.rng.percent(10) {
                    let admin = self.admin_cred();
                    for i in 0..SESSION {
                        let ready: Vec<usize> = (0..leftovers.len())
                            .filter(|&j| base + i >= leftovers[j].1 + gap)
                            .collect();
                        if ready.is_empty() {
                            break;
                        }
                        let j = ready[self.rng.below(ready.len() as u64) as usize];
                        reqs.push(if leftovers.len() > LEFTOVER {
                            self.cancel(admin, leftovers.swap_remove(j).0)
                        } else {
                            self.status(admin, leftovers[j].0)
                        });
                    }
                } else {
                    let member = lane_members[self.rng.below(lane_members.len() as u64) as usize];
                    let keep = self.rng.below(3) as usize;
                    // (slot, lane index of the submit)
                    let mut own: Vec<(u32, usize)> = Vec::new();
                    for i in 0..SESSION {
                        let at = base + i;
                        let ready: Vec<usize> =
                            (0..own.len()).filter(|&j| at >= own[j].1 + gap).collect();
                        let req = if i < SUBMITS || ready.is_empty() {
                            if self.rng.percent(15) {
                                self.denied_submit(member, seed, &mut seq)
                            } else {
                                seq += 1;
                                let count = 1 + self.rng.below(4);
                                let req = self.accepted_submit(
                                    member,
                                    count,
                                    &format!("run-{seed}-{seq}"),
                                );
                                own.push((req.fills.expect("accepted submit fills a slot"), at));
                                req
                            }
                        } else {
                            // Spread the cancels so that `keep` jobs are
                            // left when the session ends.
                            let cancels_left = own.len().saturating_sub(keep);
                            let j = ready[self.rng.below(ready.len() as u64) as usize];
                            if self.rng.below((SESSION - i) as u64) < cancels_left as u64 {
                                self.cancel(member, own.swap_remove(j).0)
                            } else {
                                self.status(member, own[j].0)
                            }
                        };
                        if req.mutates() {
                            mutations += 1;
                        }
                        reqs.push(req);
                        // The populate phase ends at an exact mutation
                        // count, so every run recovers a journal of the
                        // same size.
                        if populating && mutations == POPULATE_MUTATIONS {
                            break;
                        }
                    }
                    leftovers.extend(own);
                }
                let len = reqs.len();
                if len == 0 {
                    continue;
                }
                self.program.lanes[lane].push_session(reqs, false);
                if populating {
                    if mutations >= POPULATE_MUTATIONS {
                        populating = false;
                        self.program.lanes[lane].populate = self.program.lanes[lane].sessions.len();
                    }
                } else {
                    timed += len;
                }
            }
        }
    }

    fn status(&self, cred: u32, slot: u32) -> Req {
        Req { cred, verb: Verb::Status, target: Some(slot), fills: None, expect: Expect::Report }
    }

    fn cancel(&self, cred: u32, slot: u32) -> Req {
        Req { cred, verb: Verb::Cancel, target: Some(slot), fills: None, expect: Expect::Done }
    }

    /// A submit the combined policy refuses: too many CPUs for an
    /// analyst (`count >= 16`), an executable outside the VO grant, or
    /// no `jobtag` (the VO makes it mandatory).
    fn denied_submit(&mut self, member: u32, seed: u64, seq: &mut u64) -> Req {
        *seq += 1;
        let rsl = match self.rng.below(3) {
            0 => format!(
                "&(executable = TRANSP)(jobtag = NFC)(count = {})(arguments = run-{seed}-{seq})",
                16 + self.rng.below(17)
            ),
            1 => format!(
                "&(executable = /bin/rogue)(jobtag = NFC)(count = 1)(arguments = run-{seed}-{seq})"
            ),
            _ => format!("&(executable = TRANSP)(count = 1)(arguments = run-{seed}-{seq})"),
        };
        let verb = self.push_rsl(&rsl);
        Req {
            cred: member,
            verb,
            target: None,
            fills: None,
            expect: Expect::Error(AUTHORIZATION_DENIED),
        }
    }
}

fn cred(credential: &Credential, person: Person) -> Cred {
    let leaf = credential.certificate();
    Cred {
        pem: pem::encode_chain(credential.chain()),
        person,
        issuer: leaf.issuer().clone(),
        serial: leaf.serial(),
    }
}

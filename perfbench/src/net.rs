//! The load generator and its oracle.
//!
//! Two lanes, each one client thread holding at most one connection at a
//! time, play their pre-generated sessions against the front-end over
//! loopback TCP. A session is one connection: connect, send the
//! session's frames, read every answer, close. Two loop disciplines:
//!
//! * **closed**: the connection keeps a fixed pipelining window of
//!   unanswered requests full;
//! * **open**: request `k` of a lane is due at `t0 + k / rate`, sent
//!   when due whatever the server's state, and timed from when it was
//!   due.
//!
//! Every answer is checked against the verdict the generator predicted.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use gridauthz_gram::wire::WireFrame;
use gridauthz_gram::GramServer;

use crate::gen::{Expect, Program, Req, AUTHENTICATION_FAILED, REVOKE_INTERVAL, REVOKE_LEAD};

/// How long a client waits for an answer before counting a timeout.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// Job contacts the server assigned, by slot, plus which slots an
/// acknowledged cancel retired. Written once per slot by the lane that
/// owns it; read by both lanes and by the recovery check.
pub struct Jobs {
    contacts: Vec<OnceLock<Box<str>>>,
    cancelled: Vec<AtomicBool>,
}

impl Jobs {
    pub fn new(slots: usize) -> Jobs {
        Jobs {
            contacts: (0..slots).map(|_| OnceLock::new()).collect(),
            cancelled: (0..slots).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    pub fn contact(&self, slot: u32) -> Option<&str> {
        self.contacts[slot as usize].get().map(|c| &**c)
    }

    /// Records the contact the server assigned to `slot`; false when the
    /// slot was already filled.
    pub fn fill(&self, slot: u32, contact: &str) -> bool {
        self.contacts[slot as usize].set(contact.into()).is_ok()
    }

    pub fn cancelled(&self, slot: u32) -> bool {
        self.cancelled[slot as usize].load(Ordering::Relaxed)
    }
}

/// Per-lane counts and samples of one phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests the phase tried to send (including ones it could not).
    pub attempted: u64,
    /// Answers that matched the oracle.
    pub correct: u64,
    /// Failures: unexpected verdicts, protocol errors, `BUSY`, resets,
    /// timeouts, and requests never sent because their job was unknown.
    pub failed: u64,
    /// Oracle violations (a subset of `failed`): wrong verdicts and any
    /// success on a revoked credential.
    pub violations: u64,
    pub busy: u64,
    /// Frames the server answered (any verdict).
    pub answered: u64,
    /// Answers refused at authentication (never reach frame decode).
    pub auth_refused: u64,
    /// Answers that granted the request.
    pub permits: u64,
    /// Acknowledged mutations (`SUBMITTED`, `DONE`).
    pub mutations: u64,
    /// Revocations made through the administrative API.
    pub revocations: u64,
    pub sessions: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Per-answer latency in µs: from the due time (open loop) or the
    /// send time (closed loop, when recording).
    pub latencies_us: Vec<f64>,
    /// The [`WINDOW`] each latency sample falls in, by due (open loop)
    /// or send time, counted from the phase origin.
    pub latency_windows: Vec<u32>,
    /// Correct answers per [`WINDOW`] of the phase, by arrival time.
    pub correct_windows: Vec<u64>,
    /// Open loop: how late each request was sent, µs.
    pub lags_us: Vec<f64>,
    /// The [`WINDOW`] in which the first lane of a timed closed loop
    /// played its last generated session and stopped early.
    pub dry_window: Option<usize>,
    pub first_violation: Option<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.failed += other.failed;
        self.violations += other.violations;
        self.busy += other.busy;
        self.answered += other.answered;
        self.auth_refused += other.auth_refused;
        self.permits += other.permits;
        self.mutations += other.mutations;
        self.revocations += other.revocations;
        self.sessions += other.sessions;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
        self.latencies_us.extend(other.latencies_us);
        self.latency_windows.extend(other.latency_windows);
        if self.correct_windows.len() < other.correct_windows.len() {
            self.correct_windows.resize(other.correct_windows.len(), 0);
        }
        for (mine, theirs) in self.correct_windows.iter_mut().zip(other.correct_windows) {
            *mine += theirs;
        }
        self.lags_us.extend(other.lags_us);
        self.dry_window = match (self.dry_window, other.dry_window) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if self.first_violation.is_none() {
            self.first_violation = other.first_violation;
        }
    }

    fn violation(&mut self, what: String) {
        self.violations += 1;
        self.failed += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(what);
        }
    }
}

/// The unit a phase's samples are grouped by, so a run reports medians
/// over windows: a host hiccup that spoils one window (a vCPU stolen
/// for a few milliseconds) does not move the run's figure.
pub const WINDOW: Duration = Duration::from_secs(1);

/// How a phase paces its requests. `origin` is the phase's start, from
/// which [`WINDOW`]s are counted.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Keep `window` requests unanswered per connection; stop starting
    /// sessions at `until`. `record` keeps per-request latency samples.
    Closed { window: usize, until: Option<Instant>, record: bool, origin: Instant },
    /// Lane request `k` of the phase is due at `start + k * interval`;
    /// sessions whose first request is due at or after `until` are not
    /// started.
    Open { start: Instant, interval: Duration, until: Instant, origin: Instant },
}

impl Pacing {
    fn origin(self) -> Instant {
        match self {
            Pacing::Closed { origin, .. } | Pacing::Open { origin, .. } => origin,
        }
    }
}

fn window_of(origin: Instant, at: Instant) -> usize {
    (at.saturating_duration_since(origin).as_nanos() / WINDOW.as_nanos()) as usize
}

/// A lane's position in its session list and what it has revoked.
pub struct LaneState {
    pub lane: usize,
    pub next_session: usize,
    revoked: Vec<bool>,
    /// Revocations this lane has requested, over all phases.
    revocations: u64,
    last_revocation: Option<Instant>,
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

impl LaneState {
    pub fn new(lane: usize, creds: usize) -> LaneState {
        LaneState {
            lane,
            next_session: 0,
            revoked: vec![false; creds],
            revocations: 0,
            last_revocation: None,
            out: Vec::with_capacity(64 * 1024),
            inbuf: Vec::with_capacity(64 * 1024),
        }
    }
}

/// What a lane needs to play sessions.
pub struct Client<'a> {
    pub program: &'a Program,
    pub jobs: &'a Jobs,
    pub addr: SocketAddr,
    pub admin: &'a Admin<'a>,
    pub nproc: usize,
}

/// The VO administrator's side channel: revocations go through the
/// server's administrative API on a thread of their own, so an admin
/// write (journal append, cache invalidation, possibly a checkpoint)
/// runs beside the reads instead of stalling the lane that asked for it.
pub struct Admin<'a> {
    server: &'a GramServer,
    queue: Mutex<VecDeque<u32>>,
    wake: Condvar,
    done: AtomicU64,
    closed: AtomicBool,
    error: Mutex<Option<String>>,
}

impl<'a> Admin<'a> {
    pub fn new(server: &'a GramServer) -> Admin<'a> {
        Admin {
            server,
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            done: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// Serves revocation requests until [`Admin::close`], on the
    /// server's CPUs: an admin write is server-side work.
    pub fn serve(&self, program: &Program, server_cpus: &[usize]) {
        sys::pin_current_thread(server_cpus);
        loop {
            let cred = {
                let mut queue = self.queue.lock().expect("admin queue lock");
                loop {
                    if let Some(cred) = queue.pop_front() {
                        break cred;
                    }
                    if self.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self.wake.wait(queue).expect("admin queue lock");
                }
            };
            let cred = &program.creds[cred as usize];
            if let Err(e) = self.server.revoke_credential(&cred.issuer, cred.serial) {
                self.error.lock().expect("admin error lock").get_or_insert(e.to_string());
            }
            self.done.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn revoke(&self, cred: u32) {
        self.queue.lock().expect("admin queue lock").push_back(cred);
        self.wake.notify_one();
    }

    /// Blocks until `count` revocations have been published.
    fn wait_done(&self, count: u64) {
        while self.done.load(Ordering::SeqCst) < count {
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Stops [`Admin::serve`] once its queue is empty. The flag is set
    /// under the queue lock, so `serve` cannot miss the wakeup between
    /// checking it and waiting.
    pub fn close(&self) {
        let _queue = self.queue.lock().expect("admin queue lock");
        self.closed.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// The first revocation error since the last call, if any.
    pub fn take_error(&self) -> Option<String> {
        self.error.lock().expect("admin error lock").take()
    }

    /// Reopens a closed admin channel for the next phase.
    pub fn reopen(&self) {
        self.closed.store(false, Ordering::SeqCst);
    }
}

impl Client<'_> {
    /// Plays sessions on `lane` until `pacing` says stop or the lane
    /// reaches session `limit`. The run never wraps around to replay
    /// requests: a timed closed loop that outruns its stream stops early
    /// and records where in [`Tally::dry_window`]; in any other phase an
    /// exhausted stream is an error.
    pub fn run(
        &self,
        lane: &mut LaneState,
        pacing: Pacing,
        limit: Option<usize>,
    ) -> Result<Tally, String> {
        sys::tighten_timer_slack();
        sys::pin_current_thread(&crate::CLIENT_CPUS);
        let mut tally = Tally::default();
        let sessions = &self.program.lanes[lane.lane].sessions;
        let mut due_index = 0u64;
        loop {
            if limit.is_some_and(|limit| lane.next_session >= limit) {
                break;
            }
            match pacing {
                Pacing::Closed { until: Some(until), .. } if Instant::now() >= until => break,
                Pacing::Open { start, interval, until, .. } => {
                    if start + interval.mul_f64(due_index as f64) >= until {
                        break;
                    }
                }
                Pacing::Closed { .. } => {}
            }
            let Some(session) = sessions.get(lane.next_session) else {
                if let Pacing::Closed { until: Some(_), origin, .. } = pacing {
                    tally.dry_window = Some(window_of(origin, Instant::now()));
                    break;
                }
                return Err(format!(
                    "lane {} exhausted its {} generated sessions",
                    lane.lane,
                    sessions.len()
                ));
            };
            lane.next_session += 1;
            self.maybe_revoke(lane, &mut tally);
            let reqs = self.program.lanes[lane.lane].session_reqs(session);
            // A session presenting a credential this lane revoked waits
            // until the revocation is published: from the request on,
            // the oracle refuses every use of it.
            if reqs.iter().any(|req| lane.revoked[req.cred as usize]) {
                self.admin.wait_done(lane.revocations);
            }
            self.session(lane, reqs, pacing, due_index, &mut tally);
            due_index += reqs.len() as u64;
            tally.sessions += 1;
        }
        Ok(tally)
    }

    /// Once per [`REVOKE_INTERVAL`], asks the admin thread to revoke the
    /// proxy of the first stale login at least [`REVOKE_LEAD`] sessions
    /// ahead on this lane.
    fn maybe_revoke(&self, lane: &mut LaneState, tally: &mut Tally) {
        let now = Instant::now();
        let program_lane = &self.program.lanes[lane.lane];
        // The populate phase stays a fixed set of mutations.
        if lane.next_session <= program_lane.populate
            || lane.last_revocation.is_some_and(|last| now < last + REVOKE_INTERVAL)
        {
            return;
        }
        let victim = program_lane
            .sessions
            .iter()
            .skip(lane.next_session + REVOKE_LEAD)
            .take(4 * REVOKE_LEAD)
            .filter(|s| s.stale)
            .map(|s| program_lane.reqs[s.first as usize].cred)
            .find(|&cred| !lane.revoked[cred as usize]);
        if let Some(cred) = victim {
            self.admin.revoke(cred);
            lane.revoked[cred as usize] = true;
            lane.revocations += 1;
            lane.last_revocation = Some(now);
            tally.revocations += 1;
        }
    }

    /// One session: one connection carrying `reqs`.
    fn session(
        &self,
        lane: &mut LaneState,
        reqs: &[Req],
        pacing: Pacing,
        due_base: u64,
        tally: &mut Tally,
    ) {
        let n = reqs.len();
        tally.attempted += n as u64;
        let due = |i: usize| match pacing {
            Pacing::Open { start, interval, .. } => {
                Some(start + interval.mul_f64((due_base + i as u64) as f64))
            }
            Pacing::Closed { .. } => None,
        };
        if let Some(first) = due(0) {
            sys::sleep_until(first);
        }
        let mut stream = match TcpStream::connect(self.addr) {
            Ok(stream) => stream,
            Err(_) => {
                tally.failed += n as u64;
                return;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(ANSWER_TIMEOUT));
        // Requests sent and not yet answered: (index, sent at).
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut next = 0;
        let mut consumed = 0;
        lane.inbuf.clear();
        let mut read_buf = [0u8; 16 * 1024];
        loop {
            let now = Instant::now();
            lane.out.clear();
            // Set when the next request names a job whose submit is
            // still unanswered: only an answer can unblock the lane.
            let mut blocked = false;
            while next < n {
                let ready = match pacing {
                    Pacing::Closed { window, .. } => inflight.len() < window,
                    Pacing::Open { .. } => due(next).is_some_and(|d| d <= now),
                };
                if !ready {
                    break;
                }
                let req = &reqs[next];
                let contact = match req.target {
                    None => None,
                    Some(slot) => match self.jobs.contact(slot) {
                        Some(contact) => Some(contact),
                        None if !inflight.is_empty() => {
                            blocked = true;
                            break;
                        }
                        // The submit failed: the request cannot be sent.
                        None => {
                            tally.failed += 1;
                            next += 1;
                            continue;
                        }
                    },
                };
                self.program.frame_into(req, contact, &mut lane.out);
                if let Some(d) = due(next) {
                    tally.lags_us.push(now.saturating_duration_since(d).as_secs_f64() * 1e6);
                }
                inflight.push_back((next, now));
                next += 1;
            }
            if !lane.out.is_empty() {
                tally.bytes_out += lane.out.len() as u64;
                if stream.write_all(&lane.out).is_err() {
                    break;
                }
            }
            if inflight.is_empty() && next == n {
                break;
            }
            if let Pacing::Open { .. } = pacing {
                // Wake for the next due request, or for an answer.
                let send_at = due(next).filter(|_| next < n && !blocked);
                let wait = match send_at {
                    Some(d) => d.saturating_duration_since(now).min(ANSWER_TIMEOUT),
                    None => ANSWER_TIMEOUT,
                };
                match sys::wait_readable(&stream, wait) {
                    Ok(true) => {}
                    // Nothing to read: time to send, or the answer timed out.
                    Ok(false) if send_at.is_some() => continue,
                    Ok(false) | Err(_) => break,
                }
            }
            let got = match stream.read(&mut read_buf) {
                Ok(0) | Err(_) => break,
                Ok(got) => got,
            };
            let at = Instant::now();
            tally.bytes_in += got as u64;
            lane.inbuf.extend_from_slice(&read_buf[..got]);
            while let Some(end) = find_frame_end(&lane.inbuf[consumed..]) {
                let Some((index, sent)) = inflight.pop_front() else {
                    tally.violation("answer without a request".into());
                    break;
                };
                let text = std::str::from_utf8(&lane.inbuf[consumed..consumed + end])
                    .unwrap_or("GRAM/1 INVALID-UTF8\n");
                let req = &reqs[index];
                if self.check(lane, req, text, tally) {
                    let w = window_of(pacing.origin(), at);
                    if tally.correct_windows.len() <= w {
                        tally.correct_windows.resize(w + 1, 0);
                    }
                    tally.correct_windows[w] += 1;
                }
                let from = due(index).unwrap_or(sent);
                let record = match pacing {
                    Pacing::Closed { record, .. } => record,
                    Pacing::Open { .. } => true,
                };
                if record {
                    tally.latencies_us.push(at.saturating_duration_since(from).as_secs_f64() * 1e6);
                    tally.latency_windows.push(window_of(pacing.origin(), from) as u32);
                }
                consumed += end + 1;
            }
            if consumed > 0 && consumed == lane.inbuf.len() {
                lane.inbuf.clear();
                consumed = 0;
            }
        }
        // Whatever is still unanswered (reset, timeout, early close)
        // failed, as did anything never sent.
        tally.failed += (inflight.len() + (n - next)) as u64;
    }

    /// Checks one answer against the oracle and records its effects;
    /// true when it matched.
    fn check(&self, lane: &LaneState, req: &Req, text: &str, tally: &mut Tally) -> bool {
        tally.answered += 1;
        let Ok(frame) = WireFrame::decode(text) else {
            tally.violation(format!("undecodable answer {text:?}"));
            return false;
        };
        let verb = frame.verb();
        if verb == "BUSY" {
            tally.busy += 1;
            tally.failed += 1;
            return false;
        }
        let code = frame.header("code");
        if verb == "ERROR" && code == Some(AUTHENTICATION_FAILED) {
            tally.auth_refused += 1;
        }
        if verb != "ERROR" {
            tally.permits += 1;
        }
        // Every use of a revoked credential must be refused, whatever
        // the request would have earned before the revocation.
        let revoked = lane.revoked[req.cred as usize];
        if revoked && verb != "ERROR" {
            tally.violation(format!("revoked credential {} was served: {text:?}", req.cred));
            return false;
        }
        let expect = if revoked { Expect::Error(AUTHENTICATION_FAILED) } else { req.expect };
        let target = req.target.and_then(|slot| self.jobs.contact(slot));
        let ok = match (expect, verb) {
            (Expect::Submitted, "SUBMITTED") => match (frame.header("job"), req.fills) {
                (Some(job), Some(slot)) => {
                    tally.mutations += 1;
                    self.jobs.fill(slot, job)
                }
                _ => false,
            },
            (Expect::Report, "REPORT") => {
                let owner = req.target.map(|slot| {
                    self.program.member_dns[self.program.slot_owner[slot as usize] as usize]
                        .as_str()
                });
                frame.header("job") == target
                    && frame.header("owner") == owner
                    && frame.header("state") == Some("running")
            }
            (Expect::Done, "DONE") => match req.target {
                Some(slot) => {
                    tally.mutations += 1;
                    !self.jobs.cancelled[slot as usize].swap(true, Ordering::Relaxed)
                }
                None => false,
            },
            (Expect::Error(expected), "ERROR") => code == Some(expected),
            _ => false,
        };
        if ok {
            tally.correct += 1;
        } else {
            tally.violation(format!("expected {expect:?} for {:?}, got {text:?}", req.verb));
        }
        ok
    }
}

/// Offset of the first `\n` of the `\n\n` that ends a frame; the frame
/// text is `buf[..end]` plus that newline, and `end + 1` bytes
/// (text and delimiter) are consumed.
fn find_frame_end(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 1)
}

/// The system calls std does not expose: waiting for readability with a
/// sub-millisecond timeout, a tighter timer slack so the open loop's
/// sleeps and waits wake when the next request is due rather than up to
/// 50 µs later, and CPU affinity.
pub mod sys {
    use std::ffi::c_int;
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }

    /// Restricts the calling thread (and the threads it spawns from now
    /// on) to the CPUs in `cpus`. Best effort: a refused mask leaves the
    /// thread where it was.
    pub fn pin_current_thread(cpus: &[usize]) {
        let mut mask = [0u64; 16];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live 128-byte CPU set and its size is what
        // is passed; pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }

    /// Waits until `stream` is readable or `timeout` passes; `Ok(true)`
    /// when readable.
    pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
        let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
        let ts = Timespec {
            tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are live, properly laid out `struct
        // pollfd` / `struct timespec` values for the duration of the
        // call; nfds is 1, matching the single entry; a null sigmask
        // leaves the signal mask unchanged.
        let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
        match ready {
            -1 => {
                let error = io::Error::last_os_error();
                if error.kind() == io::ErrorKind::Interrupted {
                    Ok(false)
                } else {
                    Err(error)
                }
            }
            0 => Ok(false),
            _ => Ok(true),
        }
    }

    /// Sets the calling thread's timer slack to 1 µs.
    pub fn tighten_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack; the result is
        // ignored because the default slack is merely less precise.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1_000 as std::ffi::c_ulong) };
    }

    /// Sleeps until `deadline` (no-op when it has passed).
    pub fn sleep_until(deadline: Instant) {
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
}

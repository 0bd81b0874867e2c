//! The traced run's per-layer numbers.
//!
//! Two sources, neither of which adds tracing inside the crates:
//!
//! 1. **The server's own registry**, read through `telemetry_snapshot()`
//!    before and after the TCP phases: counts, ratios and the waits that
//!    only show under concurrency (admission queueing, group-commit
//!    waits). Its per-stage request counts must equal the client's own
//!    tally exactly.
//! 2. **An in-process replay** of the same generated stream on one
//!    thread, timing each layer's public entry point in pipeline order —
//!    assemble → authenticate → grid-map → decode → cache probe → PDP →
//!    encode — against `GramServer::handle_wire_pem_within` as the whole,
//!    so the share of the whole the layers do not explain is reported.
//!    Spans of one request share its replay index as id; they are kept
//!    in memory and written to `spans-<workload>-<seed>.tsv` beside the
//!    run's state directory when the replay ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridauthz_core::{
    paper, request_digest, Action, AdmissionClass, AuthzRequest, CombinedPdp, Combiner,
    DecisionCache, JobDescription, Policy, PolicyOrigin, PolicySource,
};
use gridauthz_credential::{pem, Certificate, GridMapEntry, GridMapFile, TrustStore};
use gridauthz_gram::wire::{request_line_offset, FrameAssembler, WireRequestRef, WireResponse};
use gridauthz_gram::{normalize_job, AuthCacheStats, DurabilityConfig, Gatekeeper, JournalRecord};
use gridauthz_journal::{FileStorage, Journal, JournalStats};
use gridauthz_sim::{TestbedBuilder, LOCAL_POLICY};
use gridauthz_telemetry::{labels, Gauge, RegistrySnapshot, Stage};

use crate::gen::{Expect, Program, Verb, Workload, AUTHENTICATION_FAILED, WORK_MICROS};
use crate::net::{Jobs, Tally};
use crate::stats::{
    counter, histogram_delta, histogram_quantile_ns, median, quantile, stage_total,
};
use crate::{Outcome, Served};

/// Replay budget: whichever of these ends first.
const REPLAY_REQUESTS: usize = 20_000;
const REPLAY_TIME: Duration = Duration::from_secs(2);
/// Synced appends timed for `journal.fsync_us`.
const FSYNC_SAMPLES: usize = 256;
/// Checkpoints timed for `journal.checkpoint_ms`.
const CHECKPOINTS: usize = 5;

/// The registry and journal/auth-cache counters around the TCP phases.
pub struct RegistryWindow<'a> {
    pub before: &'a RegistrySnapshot,
    pub after: &'a RegistrySnapshot,
    pub journal_before: JournalStats,
    pub journal_after: JournalStats,
    pub auth_before: AuthCacheStats,
    pub auth_after: AuthCacheStats,
    pub elapsed: Duration,
}

pub struct Inputs<'a> {
    pub program: &'a Program,
    pub served: &'a Served,
    pub registry: RegistryWindow<'a>,
    /// Client tally over the same TCP phases.
    pub timed: &'a Tally,
    pub open_latencies: &'a [f64],
    pub open_lags: &'a [f64],
    /// Traced ÷ untraced closed-loop throughput.
    pub overhead_ratio: f64,
    pub state: &'a Path,
}

fn gauge(snapshot: &RegistrySnapshot, which: Gauge) -> u64 {
    snapshot.gauges.iter().find(|(g, _)| *g == which).map_or(0, |(_, v)| *v)
}

fn ratio(numerator: u64, base: u64) -> f64 {
    if base == 0 {
        f64::NAN
    } else {
        numerator as f64 / base as f64
    }
}

/// A per-layer figure is always a number: one with no samples on this
/// workload (e.g. group-commit waits on a read-only load) reads 0, and
/// its note says n=0.
fn number(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

pub fn report(outcome: &mut Outcome, inputs: Inputs<'_>) -> Result<(), String> {
    let Inputs {
        program,
        served,
        registry: r,
        timed,
        open_latencies,
        open_lags,
        overhead_ratio,
        state,
    } = inputs;
    let server = &served.server;
    let mut push = |name: &'static str, value: f64, unit: &'static str, note: String| {
        outcome.metrics.push((name, number(value), unit, note));
    };
    let hist = |stage| histogram_delta(r.before, r.after, stage);
    let hist_q = |stage, q: f64, scale: f64| {
        hist(stage).map_or(f64::NAN, |h| histogram_quantile_ns(&h, q) / scale)
    };
    let hist_n = |stage| hist(stage).map_or(0, |h| h.count);
    let delta = |stage| stage_total(r.after, stage) - stage_total(r.before, stage);
    let delta_label =
        |stage, label| counter(r.after, stage, label) - counter(r.before, stage, label);
    let gauge_delta = |g| gauge(r.after, g).saturating_sub(gauge(r.before, g));

    // --- front-end -------------------------------------------------------
    let admissions = hist_n(Stage::Admission);
    push(
        "frontend.queue_wait_us.p50",
        hist_q(Stage::Admission, 0.5, 1e3),
        "us",
        format!("n={admissions}"),
    );
    push(
        "frontend.queue_wait_us.p99",
        hist_q(Stage::Admission, 0.99, 1e3),
        "us",
        format!("n={admissions}"),
    );
    let accepted = gauge_delta(Gauge::ConnectionsAccepted);
    push(
        "frontend.connections_per_s",
        accepted as f64 / r.elapsed.as_secs_f64(),
        "1/s",
        format!("{accepted} connections"),
    );
    let refused: u64 = [labels::SHED, labels::EXPIRED, labels::IDLE_TIMEOUT, labels::ERROR_BUDGET]
        .iter()
        .map(|label| delta_label(Stage::Admission, label))
        .sum();
    push(
        "frontend.refused",
        refused as f64,
        "count",
        "shed + expired + idle + error-budget".into(),
    );

    // --- the registry must agree with the client, exactly -----------------
    let checks = [
        ("Service frames", delta(Stage::Service), timed.answered),
        ("Authenticate calls", delta(Stage::Authenticate), timed.answered - timed.busy),
        (
            "FrameDecode calls",
            delta(Stage::FrameDecode),
            timed.answered - timed.auth_refused - timed.busy,
        ),
        (
            "synced JournalAppend",
            delta_label(Stage::JournalAppend, labels::PERMIT),
            timed.mutations + timed.revocations,
        ),
    ];
    let mismatches = checks.iter().filter(|(_, registry, client)| registry != client).count();
    for (what, registry, client) in &checks {
        if registry != client {
            eprintln!("perfbench: tally mismatch: {what}: registry {registry}, client {client}");
        }
    }
    outcome.correct &= mismatches == 0;
    push(
        "trace.tally_mismatches",
        mismatches as f64,
        "count",
        format!("{} registry-vs-client checks", checks.len()),
    );

    // --- wire (client tally) ----------------------------------------------
    push(
        "wire.bytes_in_per_req",
        ratio(timed.bytes_out, timed.answered),
        "B",
        format!("base {} answered requests", timed.answered),
    );
    push(
        "wire.bytes_out_per_req",
        ratio(timed.bytes_in, timed.answered),
        "B",
        format!("base {} answered requests", timed.answered),
    );
    let decodes = hist_n(Stage::FrameDecode);
    push(
        "wire.decode_stage_ns",
        hist_q(Stage::FrameDecode, 0.5, 1.0),
        "ns",
        format!("Stage::FrameDecode p50, n={decodes}"),
    );

    // --- caches and policy ------------------------------------------------
    let auth_hits = r.auth_after.hits - r.auth_before.hits;
    let auth_lookups = auth_hits + r.auth_after.misses - r.auth_before.misses;
    push(
        "authcache.hit_ratio",
        ratio(auth_hits, auth_lookups),
        "ratio",
        format!("base {auth_lookups} lookups"),
    );
    push("authcache.lookups", auth_lookups as f64, "count", "base of authcache.hit_ratio".into());
    let cache_hits = gauge_delta(Gauge::CacheHits);
    let probes = cache_hits + gauge_delta(Gauge::CacheMisses);
    push(
        "decision_cache.hit_ratio",
        ratio(cache_hits, probes),
        "ratio",
        format!("base {probes} probes"),
    );
    push(
        "decision_cache.probes",
        probes as f64,
        "count",
        "base of decision_cache.hit_ratio".into(),
    );
    let decisions = timed.answered - timed.auth_refused - timed.busy;
    push(
        "pdp.permit_ratio",
        ratio(timed.permits, decisions),
        "ratio",
        format!("base {decisions} decisions"),
    );
    push("pdp.decisions", decisions as f64, "count", "base of pdp.permit_ratio".into());
    let enforces = hist_n(Stage::Enforce);
    push(
        "enforce.ns",
        hist_q(Stage::Enforce, 0.5, 1.0),
        "ns",
        format!("Stage::Enforce p50, n={enforces}"),
    );

    // --- journal ------------------------------------------------------------
    let appends = hist_n(Stage::JournalAppend);
    push(
        "journal.commit_wait_us.p50",
        hist_q(Stage::JournalAppend, 0.5, 1e3),
        "us",
        format!("n={appends}"),
    );
    push(
        "journal.commit_wait_us.p99",
        hist_q(Stage::JournalAppend, 0.99, 1e3),
        "us",
        format!("n={appends}"),
    );
    let committed = r.journal_after.appends - r.journal_before.appends;
    let fsyncs = r.journal_after.fsyncs - r.journal_before.fsyncs;
    push(
        "journal.appends_per_fsync",
        ratio(committed, fsyncs),
        "ratio",
        format!("base {fsyncs} fsyncs"),
    );
    push("journal.fsyncs", fsyncs as f64, "count", "base of journal.appends_per_fsync".into());
    push(
        "journal.flushed_frames_per_request",
        ratio(committed, timed.answered),
        "ratio",
        format!("base {} answered requests", timed.answered),
    );
    let mut checkpoints = Vec::with_capacity(CHECKPOINTS);
    for _ in 0..CHECKPOINTS {
        let start = Instant::now();
        server.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
        checkpoints.push(start.elapsed().as_secs_f64() * 1e3);
    }
    push(
        "journal.checkpoint_ms",
        median(&checkpoints),
        "ms",
        format!("median of {CHECKPOINTS} at the final state, {} jobs", server.job_count()),
    );
    push(
        "audit.evicted",
        server.audit_evicted() as f64,
        "count",
        "records evicted from the audit ring".into(),
    );

    // --- service and client -------------------------------------------------
    let services = hist_n(Stage::Service);
    let service_p50 = hist_q(Stage::Service, 0.5, 1e3);
    push("service.us.p50", service_p50, "us", format!("n={services}"));
    push("service.us.p99", hist_q(Stage::Service, 0.99, 1e3), "us", format!("n={services}"));
    push(
        "service.residual_us",
        median(open_latencies) - service_p50,
        "us",
        format!("open-loop client p50 (n={}) minus Stage::Service p50", open_latencies.len()),
    );
    let recovery = r.before.histograms.iter().find(|h| h.stage == Stage::Recovery);
    push(
        "recovery.replay_ms",
        recovery.map_or(f64::NAN, |h| h.sum_nanos as f64 / h.count.max(1) as f64 / 1e6),
        "ms",
        "Stage::Recovery of the serving restart".into(),
    );
    push(
        "client.gen_lag_us.p99",
        quantile(open_lags, 0.99),
        "us",
        format!("n={}", open_lags.len()),
    );
    push(
        "trace.overhead_ratio",
        overhead_ratio,
        "ratio",
        "traced / untraced closed-loop throughput".into(),
    );

    // --- in-process replay ----------------------------------------------------
    let replay = replay(program, state)?;
    outcome.correct &= replay.violations == 0;
    let mut push = |name: &'static str, value: f64, unit: &'static str, note: String| {
        outcome.metrics.push((name, number(value), unit, note));
    };
    let m = |spans: &[f64]| format!("median, n={}", spans.len());
    push("wire.assemble_ns", median(&replay.assemble), "ns", m(&replay.assemble));
    push("wire.decode_ns", median(&replay.decode), "ns", m(&replay.decode));
    push("wire.encode_ns", median(&replay.encode), "ns", m(&replay.encode));
    push("authenticate.hit_ns", median(&replay.auth_hit), "ns", m(&replay.auth_hit));
    push("authenticate.verify_ns", median(&replay.verify), "ns", m(&replay.verify));
    push("gridmap.ns", median(&replay.gridmap), "ns", m(&replay.gridmap));
    push("decision_cache.probe_ns", median(&replay.probe), "ns", m(&replay.probe));
    push("pdp.decide_ns", median(&replay.pdp), "ns", m(&replay.pdp));
    push("journal.fsync_us", median(&replay.fsync) / 1e3, "us", m(&replay.fsync));
    push("replay.whole_ns", median(&replay.whole), "ns", m(&replay.whole));
    push(
        "layers.residual_ratio",
        (replay.whole_total - replay.layer_total) / replay.whole_total,
        "ratio",
        format!("(whole - sum of layer self-times) / whole over {} requests", replay.whole.len()),
    );
    Ok(())
}

/// Span samples (ns) per layer, plus the totals behind the residual.
#[derive(Default)]
struct Replayed {
    assemble: Vec<f64>,
    auth_hit: Vec<f64>,
    verify: Vec<f64>,
    gridmap: Vec<f64>,
    decode: Vec<f64>,
    probe: Vec<f64>,
    pdp: Vec<f64>,
    encode: Vec<f64>,
    fsync: Vec<f64>,
    whole: Vec<f64>,
    /// Σ whole, and Σ of the layer spans that run inside the whole for
    /// that request (the assembler runs before it, in the front-end).
    whole_total: f64,
    layer_total: f64,
    violations: u64,
}

/// A job as the replay knows it: what a management request is judged on.
struct ReplayJob {
    owner: gridauthz_credential::DistinguishedName,
    description: JobDescription,
}

/// The span log: (request id, layer, start ns since replay start, ns).
struct Spans {
    origin: Instant,
    rows: Vec<(u32, &'static str, u64, u64)>,
}

impl Spans {
    fn offset(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn time<T>(
        &mut self,
        id: u32,
        layer: &'static str,
        samples: &mut Vec<f64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        let offset = start.duration_since(self.origin).as_nanos() as u64;
        self.rows.push((id, layer, offset, nanos));
        samples.push(nanos as f64);
        (out, nanos as f64)
    }
}

fn replay(program: &Program, state: &Path) -> Result<Replayed, String> {
    let workload = program.workload;
    // A: a memory-only twin whose auth cache the authenticate spans use.
    let twin = TestbedBuilder::new().members(workload.members()).cluster(64, 16).build();
    // B: a durable server that answers the whole requests.
    let whole_dir = state.join("replay");
    let durability =
        DurabilityConfig::at_dir(&whole_dir).map_err(|e| format!("replay journal: {e}"))?;
    let whole = TestbedBuilder::new()
        .members(workload.members())
        .cluster(64, 16)
        .durability(durability)
        .build()
        .server;

    let mut trust = TrustStore::new();
    trust.add_anchor(twin.ca.certificate().clone());
    let mut gridmap = GridMapFile::new();
    for (i, member) in twin.members.iter().enumerate() {
        gridmap.insert(GridMapEntry::new(member.identity(), vec![format!("member{i:04}")]));
    }
    gridmap.insert(GridMapEntry::new(twin.admin.identity(), vec!["voadmin".into()]));
    let mut gatekeeper = Gatekeeper::new(trust, gridmap, &twin.clock);
    let pdp = testbed_pdp(&twin.vo);
    let cache = DecisionCache::new();
    let mut generation = 0u64;

    let jobs = Jobs::new(program.slots());
    let mut known: Vec<Option<ReplayJob>> = (0..program.slots()).map(|_| None).collect();
    let mut chains: Vec<Option<Vec<Certificate>>> =
        (0..program.creds.len()).map(|_| None).collect();

    // Populate B exactly as the TCP run populated its server.
    let mut out = String::new();
    for lane in &program.lanes {
        for session in &lane.sessions[..lane.populate] {
            for req in lane.session_reqs(session) {
                let mut frame = Vec::new();
                program.frame_into(req, req.target.and_then(|s| jobs.contact(s)), &mut frame);
                let text = std::str::from_utf8(&frame).expect("generated frames are UTF-8");
                out.clear();
                whole.handle_wire_pem_within(
                    &whole.request_context(AdmissionClass::Interactive),
                    text,
                    &mut out,
                );
                settle(program, &jobs, &mut known, req, false, &out)?;
            }
        }
    }

    let mut r = Replayed::default();
    // Synced appends of the workload's own record shape, in the same
    // directory as the replay's journal.
    let record = match workload {
        Workload::SubmitCancelDurable => JournalRecord::Submit {
            index: 1,
            contact: "gram://anl-cluster/jobs/1".into(),
            owner: program.member_dns[0].clone(),
            rsl: "&(executable = TRANSP)(jobtag = NFC)(count = 4)(arguments = run-1-1)".into(),
            account: "member0000".into(),
            dynamic: false,
            work_micros: WORK_MICROS,
            at_micros: 0,
        },
        Workload::StatusWarm | Workload::ProxyChurn => JournalRecord::Audit {
            at_micros: 0,
            subject: program.member_dns[0].clone(),
            action: 2,
            job: Some("gram://anl-cluster/jobs/1".into()),
            account: Some("member0000".into()),
            refused: None,
            trace_id: Some(1),
            degraded: false,
            note: None,
        },
    };
    let payload = record.encode();
    let storage = FileStorage::open(whole_dir.join("fsync-probe.wal"))
        .map_err(|e| format!("fsync probe journal: {e}"))?;
    let (journal, _) = Journal::open(Box::new(storage)).map_err(|e| format!("fsync probe: {e}"))?;
    for _ in 0..FSYNC_SAMPLES {
        let start = Instant::now();
        journal.append(&payload).map_err(|e| format!("fsync probe append: {e}"))?;
        r.fsync.push(start.elapsed().as_nanos() as f64);
    }
    drop(journal);
    // A durable mutation's commit inside the whole is charged at the
    // probe's median synced append.
    let fsync_ns = median(&r.fsync);
    let mut spans = Spans { origin: Instant::now(), rows: Vec::new() };
    let mut assembler = FrameAssembler::with_default_limit();
    let mut frame = Vec::new();
    let mut encoded = String::new();
    let started = Instant::now();
    let mut id = 0u32;
    let mut cursor: Vec<usize> = program.lanes.iter().map(|lane| lane.populate).collect();
    let mut revoked = vec![false; program.creds.len()];
    let mut stale_logins = 0u64;
    'replay: loop {
        for (lane, next) in program.lanes.iter().zip(cursor.iter_mut()) {
            let Some(session) = lane.sessions.get(*next) else {
                break 'replay;
            };
            *next += 1;
            let reqs = lane.session_reqs(session);
            // The replay revokes the proxy of every fourth stale login
            // before it runs (both servers, the gatekeeper and the
            // decision cache's generation), as an administrator would.
            if session.stale {
                stale_logins += 1;
                let cred = reqs[0].cred as usize;
                if stale_logins.is_multiple_of(4) && !revoked[cred] {
                    let c = &program.creds[cred];
                    twin.server
                        .revoke_credential(&c.issuer, c.serial)
                        .map_err(|e| e.to_string())?;
                    whole.revoke_credential(&c.issuer, c.serial).map_err(|e| e.to_string())?;
                    gatekeeper.trust_mut().revoke(&c.issuer, c.serial);
                    generation += 1;
                    revoked[cred] = true;
                }
            }
            for req in reqs {
                if id as usize >= REPLAY_REQUESTS || started.elapsed() >= REPLAY_TIME {
                    break 'replay;
                }
                id += 1;
                let contact = match req.target {
                    Some(slot) => match jobs.contact(slot) {
                        Some(contact) => Some(contact),
                        None => continue,
                    },
                    None => None,
                };
                frame.clear();
                program.frame_into(req, contact, &mut frame);

                let (len, _) = spans.time(id, "assemble", &mut r.assemble, || {
                    assembler.push(&frame);
                    assembler.next_frame(str::len)
                });
                let len =
                    len.map_err(|e| format!("replay assemble: {e}"))?.ok_or("frame incomplete")?;
                let text = std::str::from_utf8(&frame[..len]).expect("generated frames are UTF-8");
                let split = request_line_offset(text).ok_or("frame without request line")?;
                let (pem_text, body) = text.split_at(split);
                let mut inside = 0.0;

                let hits = twin.server.auth_cache_stats().hits;
                let auth_at = spans.offset();
                let (entry, auth_ns) = time_ns(|| twin.server.authenticate_pem(pem_text));
                let hit = twin.server.auth_cache_stats().hits > hits;
                let layer = if hit { "authenticate.hit" } else { "authenticate.miss" };
                spans.rows.push((id, layer, auth_at, auth_ns as u64));
                inside += auth_ns;
                if hit {
                    r.auth_hit.push(auth_ns);
                } else {
                    let chain = chains[req.cred as usize].get_or_insert_with(|| {
                        pem::decode_chain(&program.creds[req.cred as usize].pem).unwrap_or_default()
                    });
                    let _ =
                        spans.time(id, "verify", &mut r.verify, || gatekeeper.authenticate(chain));
                }
                if let Ok(entry) = entry {
                    let subject = entry.identity().subject().clone();
                    let (_, ns) = spans.time(id, "gridmap", &mut r.gridmap, || {
                        gatekeeper.authorize_and_map(&subject, None)
                    });
                    if matches!(req.verb, Verb::Submit { .. }) {
                        inside += ns;
                    }
                    let (decoded, ns) =
                        spans.time(id, "decode", &mut r.decode, || WireRequestRef::decode(body));
                    inside += ns;
                    let request = match decoded.map_err(|e| format!("replay decode: {e}"))? {
                        WireRequestRef::Submit { rsl, .. } => {
                            AuthzRequest::start(subject, description(rsl)?)
                        }
                        WireRequestRef::Status { contact } | WireRequestRef::Cancel { contact } => {
                            let job = req
                                .target
                                .and_then(|slot| known[slot as usize].as_ref())
                                .ok_or("management request on an unknown job")?;
                            let action = if req.verb == Verb::Cancel {
                                Action::Cancel
                            } else {
                                Action::Information
                            };
                            AuthzRequest::manage_job(
                                subject,
                                action,
                                job.owner.clone(),
                                Some("NFC".into()),
                                job.description.clone(),
                                contact,
                                Vec::new(),
                            )
                        }
                        WireRequestRef::Signal { .. } => {
                            return Err("no signals are generated".into())
                        }
                    };
                    // The cache probe is `DecisionCache::decide` minus its
                    // PDP child: digest + lookup, plus the insert on a miss.
                    // The PDP is timed on every request; it counts toward
                    // the whole only where the cache missed.
                    let probe_at = spans.offset();
                    let (key_and_hit, lookup_ns) = time_ns(|| {
                        let key = request_digest(&request);
                        (key, cache.lookup(key, generation).is_some())
                    });
                    let (key, cached) = key_and_hit;
                    let (decision, pdp_ns) =
                        spans.time(id, "pdp", &mut r.pdp, || pdp.decide(&request));
                    let mut probe_ns = lookup_ns;
                    if !cached {
                        let ((), insert_ns) =
                            time_ns(|| cache.insert(key, generation, Arc::new(decision)));
                        probe_ns += insert_ns;
                        inside += pdp_ns;
                    }
                    spans.rows.push((id, "probe", probe_at, probe_ns as u64));
                    r.probe.push(probe_ns);
                    inside += probe_ns;
                    if workload == Workload::SubmitCancelDurable && req.mutates() {
                        inside += fsync_ns;
                    }
                }

                out.clear();
                let ctx = whole.request_context(AdmissionClass::Interactive);
                let (_, whole_ns) = spans.time(id, "whole", &mut r.whole, || {
                    whole.handle_wire_pem_within(&ctx, text, &mut out)
                });
                if let Err(e) =
                    settle(program, &jobs, &mut known, req, revoked[req.cred as usize], &out)
                {
                    r.violations += 1;
                    eprintln!("perfbench: replay: {e}");
                }
                let response =
                    WireResponse::decode(&out).map_err(|e| format!("replay answer: {e}"))?;
                encoded.clear();
                let (_, ns) =
                    spans.time(id, "encode", &mut r.encode, || response.encode_into(&mut encoded));
                inside += ns;
                r.whole_total += whole_ns;
                r.layer_total += inside;
            }
        }
    }

    drop(whole);
    write_spans(&spans, state, program)?;
    Ok(r)
}

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// The job description the server derives from a submitted RSL.
fn description(rsl: &str) -> Result<JobDescription, String> {
    let spec = gridauthz_rsl::parse(rsl).map_err(|e| format!("replay RSL: {e}"))?;
    let conj = spec.as_conjunction().ok_or("replay RSL is not a conjunction")?;
    Ok(JobDescription::new(normalize_job(conj)))
}

/// Checks the whole's answer against the oracle (a revoked credential is
/// always refused) and records what it changes: a submitted job's
/// contact and description.
fn settle(
    program: &Program,
    jobs: &Jobs,
    known: &mut [Option<ReplayJob>],
    req: &crate::gen::Req,
    revoked: bool,
    answer: &str,
) -> Result<(), String> {
    let first = answer.lines().next().unwrap_or_default();
    let expect = if revoked { Expect::Error(AUTHENTICATION_FAILED) } else { req.expect };
    let ok = match expect {
        Expect::Submitted => {
            let contact = answer.lines().find_map(|l| l.strip_prefix("job: "));
            match (first, contact, req.fills) {
                ("GRAM/1 SUBMITTED", Some(contact), Some(slot)) => {
                    let rsl = program.rsl(req.verb).unwrap_or_default();
                    let owner = program.member_dns[program.slot_owner[slot as usize] as usize]
                        .parse()
                        .map_err(|e| format!("owner DN: {e}"))?;
                    known[slot as usize] =
                        Some(ReplayJob { owner, description: description(rsl)? });
                    jobs.fill(slot, contact)
                }
                _ => false,
            }
        }
        Expect::Report => first == "GRAM/1 REPORT",
        Expect::Done => first == "GRAM/1 DONE",
        Expect::Error(code) => {
            first == "GRAM/1 ERROR"
                && answer.lines().any(|l| l.strip_prefix("code: ") == Some(code))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {answer:?}"))
    }
}

/// The testbed's combined PDP, rebuilt from the same sources: the
/// resource owner's policy and the VO's (Figure 3 plus member grants).
fn testbed_pdp(vo: &gridauthz_vo::VirtualOrganization) -> CombinedPdp {
    let mut vo_statements = paper::figure3_policy().statements().to_vec();
    vo_statements.extend(vo.generate_policy().statements().iter().cloned());
    let local: Policy = LOCAL_POLICY.parse().expect("testbed policy parses");
    CombinedPdp::new(
        vec![
            PolicySource::new("local", PolicyOrigin::ResourceOwner, local),
            PolicySource::new(
                "fusion-vo",
                PolicyOrigin::VirtualOrganization("fusion".into()),
                Policy::from_statements(vo_statements),
            ),
        ],
        Combiner::DenyOverrides,
    )
}

fn write_spans(spans: &Spans, state: &Path, program: &Program) -> Result<(), String> {
    let mut text = String::from("request\tlayer\tstart_ns\tnanos\n");
    for (id, layer, start, nanos) in &spans.rows {
        let _ = writeln!(text, "{id}\t{layer}\t{start}\t{nanos}");
    }
    let dir = state.parent().unwrap_or(state);
    let path = dir.join(format!("spans-{}-{}.tsv", program.workload.name(), program.seed));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

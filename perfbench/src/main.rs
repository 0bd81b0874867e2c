//! `perfbench`: the GRAM server's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload status-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run, one workload, one fresh process. The server runs in its
//! production configuration: a file-backed journal
//! (`DurabilityConfig::at_dir` defaults: group commit, a checkpoint every
//! 1024 appends) under `.bench_build/perfbench/`, served by
//! `Frontend::bind` on loopback with one worker per CPU and every other
//! `FrontendConfig` field at its default. Two client threads, one
//! connection each, drive it. The run:
//!
//! 1. generates every credential, frame and schedule from `--seed`;
//! 2. builds and starts the server from an empty state directory; the
//!    lanes run on CPU 0 and everything else on the other CPUs;
//! 3. populates it with a fixed count of acknowledged mutations over TCP,
//!    shuts it down, restarts it from its journal and checks the
//!    recovered jobs;
//! 4. measures open-loop latency at the workload's fixed rate for half of
//!    `--seconds` and closed-loop throughput for the other half, in three
//!    alternating slices of each; after every slice a child process (this
//!    program with `--starts`) times a batch of cold starts and of
//!    restarts from a copy of the populated journal (`setup_s` and
//!    `recovery_s` are the medians over all batches);
//! 5. with `--trace 1`, runs four slices of each kind instead, the closed
//!    ones untraced and traced in ABBA order and no start batches; reads
//!    the server's telemetry registry, and replays the
//!    request stream in-process with a span around each layer's public
//!    entry point (see `trace.rs`).
//!
//! Every answer is checked against the generator's prediction. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it name every
//! metric with its unit and record the run's metadata.

mod gen;
mod net;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridauthz_credential::pem;
use gridauthz_gram::{DurabilityConfig, Frontend, FrontendConfig, GramServer, JobContact};
use gridauthz_scheduler::JobState;
use gridauthz_sim::TestbedBuilder;

use crate::gen::{Program, Workload, LANES};
use crate::net::{sys, Admin, Client, Jobs, LaneState, Pacing, Tally, WINDOW};
use crate::stats::{json_num, json_str, median, quantile, windowed_quantile};

/// Batches of cold starts and restarts per run, measured in child
/// processes spread over the run (see [`start_batch`]).
const BATCHES: usize = 6;
/// Cold starts (from an empty directory) and restarts (from a copy of
/// the populated journal) per batch.
const BATCH: usize = 5;
/// `setup_s` and `recovery_s` are medians of this many samples: the
/// batches plus the parent's own cold start (which serves the populate
/// phase) and its own restart (which serves the timed phases).
const STARTS: usize = BATCHES * BATCH + 1;
/// A window in which the hypervisor stole more than this share of the
/// host's CPU time is left out of the windowed medians: steal is outside
/// the program's control, and on a shared host it comes in bursts
/// lasting tens of seconds that halve throughput and multiply latency.
const QUIET_STEAL: f64 = 0.01;
/// The windowed medians count at least this many windows (the least
/// stolen ones when too few are quiet).
const MIN_WINDOWS: usize = 3;
/// Where runs keep their journals, relative to the checkout root.
const STATE_ROOT: &str = ".bench_build/perfbench";

const USAGE: &str = "usage: perfbench --workload <status-warm|proxy-churn|submit-cancel-durable> \
                     --seed <n> --seconds <n> --trace <0|1> [--digest] [--starts <journal dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Print the generated program's digest and exit (determinism test).
    digest: bool,
    /// Child mode: measure one batch of cold starts and of restarts from
    /// this populated journal directory, print the samples and exit.
    starts: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut digest = false;
    let mut starts = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--digest" {
            digest = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--starts" => starts = Some(PathBuf::from(value)),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        digest,
        starts,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.digest {
        let program =
            gen::generate(args.workload, args.seed, args.seconds / 2.0, args.seconds / 2.0);
        println!("{}", program.digest());
        return ExitCode::SUCCESS;
    }
    if let Some(pristine) = &args.starts {
        return match start_batch(args.workload, pristine) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let state = PathBuf::from(STATE_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &state);
    let _ = std::fs::remove_dir_all(&state);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A started server: the GRAM service plus its TCP front-end.
pub struct Served {
    pub server: Arc<GramServer>,
    pub frontend: Frontend,
}

impl Served {
    /// Builds the testbed over a file-backed journal in `dir` (recovering
    /// whatever it holds) and binds the front-end.
    fn start(workload: Workload, dir: &Path, workers: usize) -> Result<Served, String> {
        let durability =
            DurabilityConfig::at_dir(dir).map_err(|e| format!("journal directory: {e}"))?;
        let testbed = TestbedBuilder::new()
            .members(workload.members())
            .cluster(64, 16)
            .durability(durability)
            .build();
        let server = Arc::new(testbed.server);
        // The front-end's threads inherit this thread's CPU set: the
        // server's CPUs (see `run`).
        let frontend = Frontend::bind(Arc::clone(&server), "127.0.0.1:0", frontend_config(workers))
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Served { server, frontend })
    }

    /// Stops the front-end and drops the server (its `Drop` flushes the
    /// journal), so the directory can be reopened.
    fn stop(self) -> Result<(), String> {
        self.frontend.stop();
        Arc::into_inner(self.server)
            .map(drop)
            .ok_or_else(|| "server still referenced after front-end stop".to_string())
    }
}

/// CPUs the load generator's threads run on. The server's threads get
/// every other CPU, so the client never takes CPU time from the server
/// and every request crosses between CPUs the same way in every run.
pub const CLIENT_CPUS: [usize; 1] = [0];

/// The server's CPUs on a host with `nproc` CPUs (all of them on a
/// single-CPU host).
fn server_cpus(nproc: usize) -> Vec<usize> {
    if nproc > 1 {
        (1..nproc).collect()
    } else {
        vec![0]
    }
}

/// Copies the journal directory `from` (flat: the WAL and the
/// snapshot) to `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Child mode: [`BATCH`] cold starts from an empty directory, each
/// followed by a restart from a copy of the populated journal in
/// `pristine`. Prints the samples (seconds) as two lines, `setup_s ...`
/// and `recovery_s ...`. A fresh process gives every batch the same
/// starting state: the parent's heap after a load phase (hundreds of MB
/// on `status-warm`) slows its own restarts by a varying amount.
fn start_batch(workload: Workload, pristine: &Path) -> Result<(), String> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    sys::pin_current_thread(&server_cpus(workers));
    let scratch = pristine.with_file_name("starts");
    let mut cold = Vec::with_capacity(BATCH);
    let mut warm = Vec::with_capacity(BATCH);
    for _ in 0..BATCH {
        let dir = scratch.join("cold");
        let started = Instant::now();
        let s = Served::start(workload, &dir, workers)?;
        cold.push(started.elapsed().as_secs_f64());
        s.stop()?;
        let copy = scratch.join("warm");
        copy_dir(pristine, &copy)?;
        let started = Instant::now();
        let s = Served::start(workload, &copy, workers)?;
        warm.push(started.elapsed().as_secs_f64());
        s.stop()?;
        std::fs::remove_dir_all(&scratch).map_err(|e| format!("cleanup: {e}"))?;
    }
    let line = |v: &[f64]| v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(" ");
    println!("setup_s {}", line(&cold));
    println!("recovery_s {}", line(&warm));
    Ok(())
}

/// Runs [`start_batch`] in a child process of this program and waits
/// for it; returns its cold-start and restart samples.
fn child_start_batch(args: &Args, pristine: &Path) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &json_num(args.seconds), "--trace", "0", "--starts"])
        .arg(pristine)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start batch: {e}"))?;
    if !out.status.success() {
        return Err(format!("start batch exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let samples = |name: &str| -> Result<Vec<f64>, String> {
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
            .ok_or_else(|| format!("start batch printed no {name}"))?;
        let v: Vec<f64> = line
            .split(' ')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("start batch {name}: {e}"))?;
        if v.len() == BATCH {
            Ok(v)
        } else {
            Err(format!("start batch printed {} {name} samples", v.len()))
        }
    };
    Ok((samples("setup_s")?, samples("recovery_s")?))
}

fn frontend_config(workers: usize) -> FrontendConfig {
    FrontendConfig { workers, ..FrontendConfig::default() }
}

/// One phase's merged tally, wall time, and the host's CPU steal share in
/// each [`WINDOW`] counted from the phase origin.
#[derive(Default)]
struct PhaseResult {
    tally: Tally,
    elapsed: Duration,
    window_steal: Vec<f64>,
}

impl PhaseResult {
    /// Adds a later phase whose window `w` becomes window `offset + w`
    /// here; windows in between read as fully stolen.
    fn append(&mut self, mut other: PhaseResult, offset: usize) {
        for w in &mut other.tally.latency_windows {
            *w += offset as u32;
        }
        let mut correct = vec![0; offset];
        correct.append(&mut other.tally.correct_windows);
        other.tally.correct_windows = correct;
        other.tally.dry_window = other.tally.dry_window.map(|w| w + offset);
        self.tally.merge(other.tally);
        self.window_steal.resize(offset, f64::INFINITY);
        self.window_steal.extend(other.window_steal);
        self.elapsed += other.elapsed;
    }

    /// How many of `windows` the hypervisor stole at most
    /// [`QUIET_STEAL`] of the CPU time in.
    fn quiet_count(&self, windows: &[usize]) -> usize {
        windows.iter().filter(|&&w| self.steal(w) <= QUIET_STEAL).count()
    }

    fn steal(&self, window: usize) -> f64 {
        self.window_steal.get(window).copied().unwrap_or(f64::INFINITY)
    }

    /// The `windows` the medians count: every one in which the
    /// hypervisor stole at most [`QUIET_STEAL`] of the CPU time, or, when
    /// fewer than [`MIN_WINDOWS`] were that quiet, the [`MIN_WINDOWS`]
    /// least stolen.
    fn quiet_windows(&self, windows: &[usize]) -> Vec<usize> {
        let mut windows = windows.to_vec();
        windows.sort_by(|&a, &b| self.steal(a).total_cmp(&self.steal(b)));
        let quiet = self.quiet_count(&windows);
        windows.truncate(quiet.max(MIN_WINDOWS));
        windows.sort_unstable();
        windows
    }
}

/// Runs one phase on both lanes at once (one thread per lane). The main
/// thread samples the host's CPU steal at every window boundary from
/// `origin` while the lanes run.
fn phase(
    client: &Client<'_>,
    lanes: &mut [LaneState],
    origin: Instant,
    pacing: impl Fn(usize) -> Pacing,
    limit: impl Fn(&LaneState) -> Option<usize>,
) -> Result<PhaseResult, String> {
    let start = Instant::now();
    client.admin.reopen();
    let mut window_steal = Vec::new();
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let admin = scope.spawn(|| client.admin.serve(client.program, &server_cpus(client.nproc)));
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                let pacing = pacing(lane.lane);
                let limit = limit(lane);
                scope.spawn(move || client.run(lane, pacing, limit))
            })
            .collect();
        let mut boundary = origin;
        let mut last: Option<Vec<u64>> = None;
        while !handles.iter().all(|h| h.is_finished()) {
            let now = Instant::now();
            if now >= boundary {
                let times = stats::cpu_times();
                if let Some(last) = &last {
                    window_steal.push(stats::steal_share(last, &times));
                }
                last = Some(times);
                boundary += WINDOW;
            }
            std::thread::sleep(
                boundary.saturating_duration_since(now).min(Duration::from_millis(20)),
            );
        }
        let mut results: Vec<Result<Tally, String>> =
            handles.into_iter().map(|h| h.join().expect("lane thread panicked")).collect();
        client.admin.close();
        admin.join().expect("admin thread panicked");
        if let Some(e) = client.admin.take_error() {
            results.push(Err(format!("revocation failed: {e}")));
        }
        results
    });
    let elapsed = start.elapsed();
    let mut tally = Tally::default();
    for result in results {
        tally.merge(result?);
    }
    Ok(PhaseResult { tally, elapsed, window_steal })
}

fn closed(
    client: &Client<'_>,
    lanes: &mut [LaneState],
    seconds: f64,
    record: bool,
) -> Result<PhaseResult, String> {
    let window = client.program.workload.window();
    let origin = Instant::now();
    let until = origin + Duration::from_secs_f64(seconds);
    phase(
        client,
        lanes,
        origin,
        |_| Pacing::Closed { window, until: Some(until), record, origin },
        |_| None,
    )
}

fn open(client: &Client<'_>, lanes: &mut [LaneState], seconds: f64) -> Result<PhaseResult, String> {
    // Each lane offers half the rate; lane 1 runs half an interval behind
    // lane 0 so the two schedules interleave evenly.
    let interval = Duration::from_secs_f64(LANES as f64 / client.program.workload.open_rps());
    let start = Instant::now() + Duration::from_millis(5);
    let until = start + Duration::from_secs_f64(seconds);
    phase(
        client,
        lanes,
        start,
        |lane| Pacing::Open {
            start: start + interval.mul_f64(lane as f64 / LANES as f64),
            interval,
            until,
            origin: start,
        },
        |_| None,
    )
}

/// After a restart: every acknowledged, non-cancelled populate job is
/// present, live and owned by its submitter; no cancelled job is live.
fn check_recovered(server: &GramServer, program: &Program, jobs: &Jobs) -> Result<usize, String> {
    let mut checked = 0;
    for slot in 0..program.slots() as u32 {
        let Some(contact) = jobs.contact(slot) else { continue };
        let contact = JobContact::from_wire(contact);
        let state = server.job_state(&contact);
        if jobs.cancelled(slot) {
            if matches!(state, Some(JobState::Pending | JobState::Running { .. })) {
                return Err(format!("cancelled job {contact} is live after restart"));
            }
        } else {
            let owner = program.slot_owner[slot as usize] as usize;
            let chain = pem::decode_chain(&program.creds[owner].pem)
                .map_err(|e| format!("owner chain: {e}"))?;
            let report = server
                .status(&chain, &contact)
                .map_err(|e| format!("acknowledged job {contact} lost after restart: {e}"))?;
            if report.owner.to_string() != program.member_dns[owner] {
                return Err(format!("job {contact} recovered with owner {}", report.owner));
            }
            if !matches!(report.state, JobState::Running { .. }) {
                return Err(format!("job {contact} recovered as {}", report.state));
            }
        }
        checked += 1;
    }
    Ok(checked)
}

/// One figure: name, value, unit and a note on how it was measured.
pub type Metric = (&'static str, f64, &'static str, String);

/// Everything a run measured, for printing.
pub struct Outcome {
    /// The figures of the final JSON line (the benchmark's contract).
    pub metrics: Vec<Metric>,
    /// Figures printed by name and unit but not gated.
    pub reported: Vec<Metric>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub meta: Vec<(&'static str, String)>,
}

fn run(args: &Args, state: &Path) -> Result<(), String> {
    let workload = args.workload;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    // Set-up, restarts, checkpoints and the replay run where the
    // server's threads run; only the lanes use the client's CPU.
    sys::pin_current_thread(&server_cpus(workers));
    // Timed load after the populate phase: open loop for half the run,
    // closed loop for the other half (a whole run's worth when traced:
    // untraced and traced quarters).
    let half = args.seconds / 2.0;
    let closed_seconds = if args.trace { 2.0 * half } else { half };

    let generated = Instant::now();
    let program = gen::generate(workload, args.seed, half, closed_seconds);
    let generate_s = generated.elapsed().as_secs_f64();
    let jobs = Jobs::new(program.slots());

    // A cold start from an empty directory serves the populate phase.
    let dir = state.join("served");
    let started = Instant::now();
    let s = Served::start(workload, &dir, workers)?;
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let mut lanes: Vec<LaneState> =
        (0..LANES).map(|lane| LaneState::new(lane, program.creds.len())).collect();
    let mut all = Tally::default();
    let populate = {
        let admin = Admin::new(&s.server);
        let client = Client {
            program: &program,
            jobs: &jobs,
            addr: s.frontend.local_addr(),
            admin: &admin,
            nproc: workers,
        };
        let window = workload.window();
        let origin = Instant::now();
        phase(
            &client,
            &mut lanes,
            origin,
            |_| Pacing::Closed { window, until: None, record: false, origin },
            |lane| Some(program.lanes[lane.lane].populate),
        )?
        .tally
    };
    let populate_mutations = populate.mutations;
    all.merge(populate);
    s.stop()?;

    // Cold starts and restarts from copies of the populated journal run
    // in batches between the load slices (below). The restart that
    // keeps serving starts from the directory itself.
    let pristine = state.join("populated");
    copy_dir(&dir, &pristine)?;
    let mut recoveries = Vec::with_capacity(STARTS);
    let mut batch_medians = Vec::with_capacity(BATCHES);
    let mut batch = || -> Result<(), String> {
        let (cold, warm) = child_start_batch(args, &pristine)?;
        batch_medians.push(format!("[{}, {}]", json_num(median(&cold)), json_num(median(&warm))));
        setups.extend(cold);
        recoveries.extend(warm);
        Ok(())
    };
    let started = Instant::now();
    let s = Served::start(workload, &dir, workers)?;
    let serving_restart = started.elapsed().as_secs_f64();
    let recovered = check_recovered(&s.server, &program, &jobs);
    let recovery_ok = recovered.is_ok();
    if let Err(e) = &recovered {
        eprintln!("perfbench: recovery check failed: {e}");
    }

    let admin = Admin::new(&s.server);
    let client = Client {
        program: &program,
        jobs: &jobs,
        addr: s.frontend.local_addr(),
        admin: &admin,
        nproc: workers,
    };
    let before = s.server.telemetry_snapshot();
    let journal_before = s.server.journal_stats().unwrap_or_default();
    let auth_before = s.server.auth_cache_stats();
    let steal_before = stats::cpu_times();

    // The open loop runs first: at its fixed rate every run sends the
    // same requests, so the closed loop starts from the same state size
    // in every run (a durable server's checkpoints grow with it). Each
    // loop runs in slices with a start batch after each, so that the
    // start figures sample the whole run: the host's speed drifts over
    // seconds. The untraced run has three slices of each loop; the
    // traced run four and no start batches, its closed slices untraced
    // and traced in ABBA order, so a throughput drift over the run (the
    // state grows) cancels out of the ratio.
    let slices: usize = if args.trace { 4 } else { 3 };
    let open_slice = half / slices as f64;
    let closed_slice = closed_seconds / slices as f64;
    // Each slice's windows get indices of their own: whole windows, then
    // one for the partial window that ends the slice.
    let open_whole = (open_slice / WINDOW.as_secs_f64()).floor() as usize;
    let closed_whole = (closed_slice / WINDOW.as_secs_f64()).floor() as usize;
    let mut latency = PhaseResult::default();
    let mut open_windows = Vec::new();
    for k in 0..slices {
        let offset = k * (open_whole + 1);
        open_windows.extend(offset..offset + open_whole);
        latency.append(open(&client, &mut lanes, open_slice)?, offset);
        if !args.trace {
            batch()?;
        }
    }
    let mut throughput = PhaseResult::default();
    let mut closed_windows = Vec::new();
    let mut traced = (Tally::default(), Duration::ZERO);
    let mut untraced_slices = 0;
    for k in 0..slices {
        let record = args.trace && (k == 1 || k == 2);
        let part = closed(&client, &mut lanes, closed_slice, record)?;
        if record {
            traced.0.merge(part.tally);
            traced.1 += part.elapsed;
        } else {
            let offset = untraced_slices * (closed_whole + 1);
            untraced_slices += 1;
            closed_windows.extend(offset..offset + closed_whole);
            throughput.append(part, offset);
        }
        if !args.trace {
            batch()?;
        }
    }
    // Wall time under load (the start batches excluded).
    let load_elapsed = latency.elapsed + throughput.elapsed + traced.1;
    let traced_overhead = args.trace.then(|| {
        let untraced_rps = throughput.tally.correct as f64 / throughput.elapsed.as_secs_f64();
        traced.0.correct as f64 / traced.1.as_secs_f64() / untraced_rps
    });
    // Closed-loop throughput: the mean over the whole windows before any
    // lane ran out of sessions. Stolen windows count too: on
    // `submit-cancel-durable` throughput halves over the phase as the
    // checkpoints grow, so a median over the quiet windows would follow
    // where in the phase the host happened to be quiet.
    let dry_window = throughput.tally.dry_window;
    closed_windows.retain(|&w| dry_window.is_none_or(|dry| w < dry));
    let counted: u64 = closed_windows
        .iter()
        .map(|&w| throughput.tally.correct_windows.get(w).copied().unwrap_or(0))
        .sum();
    let throughput_rps = if closed_windows.is_empty() {
        // Slices shorter than one window report their plain average.
        throughput.tally.correct as f64 / throughput.elapsed.as_secs_f64()
    } else {
        counted as f64 / (closed_windows.len() as f64 * WINDOW.as_secs_f64())
    };
    recoveries.push(serving_restart);

    let closed_quiet = throughput.quiet_count(&closed_windows);
    let closed_correct = throughput.tally.correct;
    let closed_elapsed = throughput.elapsed;
    let mut timed = Tally::default();
    timed.merge(throughput.tally);
    timed.merge(traced.0);
    let open_latencies = latency.tally.latencies_us.clone();
    let open_lags = latency.tally.lags_us.clone();
    let quiet_open = latency.quiet_windows(&open_windows);
    let quiet_counts = format!(
        "[{} of {}, {} of {}]",
        latency.quiet_count(&open_windows),
        open_windows.len(),
        closed_quiet,
        closed_windows.len()
    );
    let open_window_of = latency.tally.latency_windows.clone();
    timed.merge(latency.tally);

    let mut outcome = Outcome {
        metrics: Vec::new(),
        reported: Vec::new(),
        correct: timed.violations == 0 && recovery_ok,
        attempted: 0,
        failed: 0,
        meta: Vec::new(),
    };
    if args.trace {
        let registry = trace::RegistryWindow {
            before: &before,
            after: &s.server.telemetry_snapshot(),
            journal_before,
            journal_after: s.server.journal_stats().unwrap_or_default(),
            auth_before,
            auth_after: s.server.auth_cache_stats(),
            elapsed: load_elapsed,
        };
        trace::report(
            &mut outcome,
            trace::Inputs {
                program: &program,
                served: &s,
                registry,
                timed: &timed,
                open_latencies: &open_latencies,
                open_lags: &open_lags,
                overhead_ratio: traced_overhead.unwrap_or(f64::NAN),
                state,
            },
        )?;
    } else {
        let samples = open_latencies.len();
        // A window counts when it holds at least half its share of the
        // schedule (the last, partial one usually does not).
        let min = (workload.open_rps() * WINDOW.as_secs_f64() / 2.0) as usize;
        let (p50, windows) =
            windowed_quantile(&open_latencies, &open_window_of, &quiet_open, 0.5, min);
        let (p99, _) = windowed_quantile(&open_latencies, &open_window_of, &quiet_open, 0.99, min);
        outcome.metrics.push((
            "setup_s",
            median(&setups),
            "s",
            format!("median of {} cold starts", setups.len()),
        ));
        outcome.metrics.push((
            "throughput_rps",
            throughput_rps,
            "req/s",
            format!(
                "mean of {} whole one-second windows; {} correct answers in {:.3} s",
                closed_windows.len(),
                closed_correct,
                closed_elapsed.as_secs_f64()
            ),
        ));
        outcome.metrics.push((
            "latency_p50_us",
            p50,
            "us",
            format!(
                "median of {windows} least-stolen one-second windows' p50; n={samples} at {} req/s offered",
                workload.open_rps()
            ),
        ));
        // Printed, not gated: on a shared 2-vCPU host the tail follows
        // the hypervisor's CPU steal (see perfbench/README.md).
        outcome.reported.push((
            "latency_p99_us",
            p99,
            "us",
            format!("median of {windows} least-stolen one-second windows' p99; >= {min} samples per window, n={samples}"),
        ));
        outcome.metrics.push((
            "peak_rss_mb",
            stats::peak_rss_mb(),
            "MB",
            "VmHWM of this process".into(),
        ));
        outcome.metrics.push((
            "recovery_s",
            median(&recoveries),
            "s",
            format!(
                "median of {} restarts after {populate_mutations} acknowledged mutations",
                recoveries.len()
            ),
        ));
    }
    s.stop()?;

    all.merge(timed.clone());
    outcome.attempted = all.attempted;
    outcome.failed = all.failed;
    outcome.correct &= all.violations == 0;
    if let Some(v) = &all.first_violation {
        eprintln!("perfbench: first oracle violation: {v}");
    }

    let fail_ratio = timed.failed as f64 / timed.attempted.max(1) as f64;
    outcome.reported.push((
        "fail_ratio",
        fail_ratio,
        "ratio",
        format!("{} failed / {} attempted in the timed phases", timed.failed, timed.attempted),
    ));
    let steal = stats::steal_share(&steal_before, &stats::cpu_times());
    outcome.meta.extend([
        ("workload", json_str(workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", workers.to_string()),
        ("git_rev", json_str(&stats::command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", json_str(&stats::command_line("rustc", &["--version"]))),
        ("journal_fs", json_str(&stats::filesystem_of(state))),
        (
            "flush_policy",
            json_str(
                "group commit; every acknowledged mutation waits for fdatasync of its WAL batch; \
                 audit frames ride the next batch; checkpoint every 1024 appends",
            ),
        ),
        (
            "transport",
            json_str(
                "loopback TCP 127.0.0.1, TCP_NODELAY, 2 client threads, at most 2 connections",
            ),
        ),
        ("frontend_config", json_str(&format!("{:?}", frontend_config(workers)))),
        ("window", workload.window().to_string()),
        ("open_rps", json_num(workload.open_rps())),
        ("generator_lag_us_p50", json_num(quantile(&open_lags, 0.5))),
        ("generator_lag_us_p99", json_num(quantile(&open_lags, 0.99))),
        ("latency_samples", open_latencies.len().to_string()),
        (
            "latency_us_p10_p25_p50_p75_p90",
            format!(
                "[{}]",
                [0.1, 0.25, 0.5, 0.75, 0.9]
                    .map(|q| json_num(quantile(&open_latencies, q)))
                    .join(", ")
            ),
        ),
        ("setup_samples", setups.len().to_string()),
        ("recovery_samples", recoveries.len().to_string()),
        ("start_batch_medians_setup_recovery_s", format!("[{}]", batch_medians.join(", "))),
        ("populate_mutations", populate_mutations.to_string()),
        ("recovered_jobs_checked", recovered.map_or(0, |n| n).to_string()),
        ("generate_s", json_num(generate_s)),
        ("host_cpu_steal_share", json_num(steal)),
        ("quiet_windows_open_closed", json_str(&quiet_counts)),
        (
            "closed_loop_ran_dry_in_window",
            dry_window.map_or_else(|| "null".to_string(), |w| w.to_string()),
        ),
        ("timed_attempted", timed.attempted.to_string()),
        ("timed_failed", timed.failed.to_string()),
        ("busy", timed.busy.to_string()),
        ("sessions", timed.sessions.to_string()),
        ("revocations", timed.revocations.to_string()),
    ]);
    print_outcome(&outcome);
    Ok(())
}

fn print_outcome(outcome: &Outcome) {
    for (name, value, unit, note) in outcome.metrics.iter().chain(&outcome.reported) {
        println!("{name} {} {unit} ({note})", json_num(*value));
    }
    let meta: Vec<String> =
        outcome.meta.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    println!("meta {{{}}}", meta.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

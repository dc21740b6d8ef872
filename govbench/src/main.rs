//! `govbench`: the alertops governance service under closed-loop load.
//!
//! ```text
//! govbench --workload <soak-binary|study-loop|cluster-wal|all> --seed N
//!          --seconds S --trace <0|1>
//! ```
//!
//! One run is one process. It generates the workload's inputs from the
//! seed, spawns the system, plays windows in a closed loop for `S`
//! seconds, restarts it, and checks every published snapshot against a
//! 1-shard oracle and the conservation law. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it repeats the timed windows
//! with spans on, replays them single-threaded layer by layer, and
//! prints the per-layer metrics. The last stdout line is the result
//! object; the line before it is a report with provenance. See
//! `README.md` beside this package.

mod inputs;
mod oracle;
mod replay;
mod run;
mod trace;

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use alertops_load::scrape::Exposition;

use inputs::{Inputs, Workload, RESTARTS, WARMUP_WINDOWS};
use oracle::Published;
use run::{closed_loop, Budget, Conservation, Pass, System};
use trace::Tracer;

/// Spawns measured for `setup_s` before the timed phase, and again after
/// the restarts, so the median spans the run's changes in host speed.
const SETUP_REPS: usize = 25;

/// Restarts measured for `recover_s` on the daemon workloads. They
/// persist nothing, so a restart is a bare respawn of a few
/// milliseconds, and a median over more of them is steadier.
const DAEMON_RESTARTS: usize = 25;

/// Reference jobs timed before each restart's spawn, while the system
/// is shut down.
const RECOVER_REFERENCE_REPS: usize = 4;

/// Median duration of `run::reference_job` on the host the bounds were
/// set on (a 2-vCPU Intel Xeon VM). That host's speed shifts between
/// states lasting tens of seconds, so runs made a minute apart differ
/// by up to 40%. The timed phase's times are divided, and
/// `alerts_per_s` multiplied, by the median duration of the job timed
/// between its windows over this; `recover_s` likewise by the median of
/// the job timed before the restarts. The job is timed only while every
/// thread of the system is asleep, so work the system leaves running
/// after an ack cannot slow it. `setup_s` is reported as measured. The
/// unscaled figures are in the report line.
const REFERENCE_JOB_MS: f64 = 0.28;

/// A seed kept out of tuning, for checking later claims.
const HELD_OUT_SEED: u64 = 7919;

/// The close-latency percentile reported as `close_ms_tail`. Every
/// workload times well over a hundred windows, so at least ten lie
/// beyond it; a higher percentile rests on too few samples to repeat
/// from run to run.
const TAIL_PERCENTILE: f64 = 90.0;

/// Where a run keeps its WAL directories, relative to the working
/// directory; removed when the run ends.
const SCRATCH_DIR: &str = ".govbench-tmp";

/// Where traced runs write their spans.
const TRACE_DIR: &str = ".govbench-out";

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("alerts_per_s", "alerts/s"),
    ("close_ms_p50", "ms"),
    ("close_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("delivered_frac", "ratio"),
    ("recover_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does
/// not run reports 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("load.gen_s", "s"),
    ("wire.bytes_per_alert", "B/alert"),
    ("wire.decode_ns_per_alert", "ns/alert"),
    ("ingestd.send_ms_p50", "ms"),
    ("ingestd.backpressure_waits", "count"),
    ("ingestd.queue_depth_max", "count"),
    ("ingestd.shard_close_ms", "ms"),
    ("ingestd.barrier_wait_ms", "ms"),
    ("ingestd.shard_skew", "ratio"),
    ("ingestd.checkpoint_ms", "ms"),
    ("core.ingest_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.replay_alerts_per_s", "alerts/s"),
    ("detect.apply_ms", "ms"),
    ("detect.evict_ms", "ms"),
    ("detect.findings_ms", "ms"),
    ("react.blocking_ms", "ms"),
    ("react.aggregation_ms", "ms"),
    ("react.correlation_ms", "ms"),
    ("react.blocked_frac", "ratio"),
    ("topics.aolda_ms", "ms"),
    ("topics.docs_per_window", "count"),
    ("qoa.update_ms", "ms"),
    ("qoa.checkpoint_ms", "ms"),
    ("qoa.checkpoint_bytes", "B"),
    ("cluster.route_us_per_alert", "us"),
    ("cluster.wal_append_us", "us"),
    ("cluster.wal_bytes_per_alert", "B/alert"),
    ("cluster.close_ms", "ms"),
    ("cluster.wal_boundary_ms", "ms"),
    ("cluster.node_close_sum_ms", "ms"),
    ("cluster.node_close_max_ms", "ms"),
    ("cluster.replay_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values by name; units come from the metric tables above.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics of `table`, in its order with its units, 0 where
    /// unset.
    fn json(&self, table: &[(&str, &str)]) -> String {
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                format!(
                    r#"{}:{{"value":{},"unit":{}}}"#,
                    json_str(name),
                    self.get(name),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: govbench --workload <soak-binary|study-loop|cluster-wal|all> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed is an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or("--seconds is a positive integer")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("govbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&argv);
    };
    match run_workload(workload, &args) {
        Ok(outcome) => {
            println!("govbench-report {}", outcome.report);
            println!(
                r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
                outcome.problems.is_empty(),
                outcome.attempted.max(1),
                outcome.failed,
                outcome
                    .metrics
                    .json(if args.trace { &PER_LAYER } else { &END_TO_END })
            );
            for problem in &outcome.problems {
                eprintln!("govbench: {}: {problem}", workload.name());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("govbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a fresh process, and prints each one's
/// report and result.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("govbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut child_args = argv.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = workload.name().to_owned();
        }
        println!("== {}", workload.name());
        match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("govbench: cannot run {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one run printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Why the run's output is not correct; empty when it is.
    problems: Vec<String>,
    /// One-line JSON report: provenance and run details.
    report: String,
}

/// The run's scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> io::Result<Self> {
        let dir = Path::new(SCRATCH_DIR).join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// An empty directory `name` inside the scratch directory.
    fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).0
}

/// Nearest-rank `p`-th percentile and how many samples lie above it.
fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Spawns the system `reps` times, timing each spawn into `times`, and
/// keeps the last instance.
fn timed_spawns(
    workload: Workload,
    inputs: &Inputs,
    scratch: &Scratch,
    times: &mut Vec<f64>,
    reps: usize,
) -> io::Result<System> {
    let spawn = |times: &mut Vec<f64>| {
        let wal_root = scratch.fresh("wal")?;
        let started = Instant::now();
        let system = System::spawn(workload, inputs, &wal_root)?;
        times.push(started.elapsed().as_secs_f64());
        Ok::<_, io::Error>(system)
    };
    let mut system = spawn(times)?;
    for _ in 1..reps {
        system.shutdown();
        system = spawn(times)?;
    }
    Ok(system)
}

/// How much slower than on the reference host the reference job ran.
fn slowdown(reference_ms: &[f64]) -> f64 {
    if reference_ms.is_empty() {
        1.0
    } else {
        median(reference_ms) / REFERENCE_JOB_MS
    }
}

/// What the restarts after a pass measured.
struct Restarts {
    /// Time from each restart's spawn call until the system is ready to
    /// ingest again with whatever it persisted restored.
    times: Vec<f64>,
    /// Durations of the reference job before the restarts' spawns.
    reference_ms: Vec<f64>,
    /// Windows played after each cluster restart, as (index of the
    /// window, what it published), for the oracle to check.
    played: Vec<(usize, Published)>,
    problems: Vec<String>,
}

/// Shuts the system down and spawns it again over whatever it
/// persisted, timing each spawn. The cluster restores its detection
/// history and QoA model inside spawn by replaying its WAL; each of its
/// `RESTARTS` restarts must bring the QoA model back bit for bit and
/// then govern the next held-back window as an uncrashed run would. The
/// daemons persist nothing, so for them this times `DAEMON_RESTARTS`
/// bare respawns.
fn restarts(
    workload: Workload,
    inputs: &Inputs,
    wal_root: &Path,
    mut system: System,
    next_window: usize,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Restarts> {
    let cluster = workload == Workload::ClusterWal;
    let mut out = Restarts {
        times: Vec::new(),
        reference_ms: Vec::new(),
        played: Vec::new(),
        problems: Vec::new(),
    };
    for rep in 0..if cluster { RESTARTS } else { DAEMON_RESTARTS } {
        let qoa_before = system.qoa_digest();
        Tracer::maybe(&mut tracer, "shutdown", || system.shutdown());
        for _ in 0..RECOVER_REFERENCE_REPS {
            let seed = out.reference_ms.len() as u64;
            out.reference_ms.push(run::time_reference_job(seed));
        }
        let started = Instant::now();
        system = Tracer::maybe(&mut tracer, "respawn", || {
            System::spawn(workload, inputs, wal_root)
        })?;
        out.times.push(started.elapsed().as_secs_f64());
        if cluster {
            if system.qoa_digest() != qoa_before {
                out.problems.push(format!(
                    "restart {rep}: QoA model digest changed across restart"
                ));
            }
            let index = next_window + rep;
            let payload = inputs.windows[index].payload();
            Tracer::maybe(&mut tracer, "send", || system.send(payload))?;
            let snapshot = Tracer::maybe(&mut tracer, "close", || {
                system.close(inputs.labels[index].clone(), &inputs.flush)
            })?
            .ok_or_else(|| io::Error::other("cluster close yields its snapshot"))?;
            out.played
                .push((index, Published::from(std::slice::from_ref(&snapshot))));
        }
        if !system.is_conserved() {
            out.problems
                .push(format!("restart {rep}: conservation law violated"));
        }
    }
    Tracer::maybe(&mut tracer, "shutdown", || system.shutdown());
    Ok(out)
}

/// Compares published snapshots, in window order from 0, against the
/// oracle's digests.
fn check_digests(label: &str, published: &Published, oracle: &[u64]) -> Option<String> {
    if let Some((window, shards)) = &published.degraded {
        return Some(format!(
            "{label}: window {window} published degraded shards {shards:?}"
        ));
    }
    let got = &published.digests;
    let want = &oracle[..got.len().min(oracle.len())];
    oracle::first_mismatch(got, want)
        .map(|i| format!("{label}: window {i} differs from the 1-shard oracle"))
}

fn check_conservation(c: &Conservation) -> Option<String> {
    (!c.holds()).then(|| format!("conservation law violated: {c:?}"))
}

fn run_workload(workload: Workload, args: &Args) -> io::Result<Outcome> {
    let started = Instant::now();
    let scratch = Scratch::new()?;
    let inputs = Inputs::generate(workload, args.seed, args.seconds);
    let mut setup_times = Vec::with_capacity(2 * SETUP_REPS);
    let mut system = timed_spawns(workload, &inputs, &scratch, &mut setup_times, SETUP_REPS)?;
    let reserve = if workload == Workload::ClusterWal {
        RESTARTS
    } else {
        0
    };
    #[allow(clippy::cast_precision_loss)]
    let budget = Budget::Seconds {
        seconds: args.seconds as f64,
        reserve,
    };
    let pass = closed_loop(&mut system, &inputs, budget, None)?;
    let windows = pass.windows;
    if windows < WARMUP_WINDOWS + 2 {
        return Err(io::Error::other("input too short for a timed phase"));
    }
    let sent = inputs.total_alerts(windows);
    let mut problems = Vec::new();
    let mut metrics = Metrics::default();
    let (conservation, restarts, extra) = if args.trace {
        // The untraced pass only sets the window count and the
        // baseline for the tracing overhead; the traced pass repeats
        // exactly its windows on a fresh instance.
        system.shutdown();
        let mut tracer = Tracer::new();
        let wal_root = scratch.fresh("wal")?;
        let spawn = tracer.begin("spawn");
        let mut system = System::spawn(workload, &inputs, &wal_root)?;
        tracer.end(spawn);
        let traced = closed_loop(
            &mut system,
            &inputs,
            Budget::Windows(windows),
            Some(&mut tracer),
        )?;
        let conservation = system.conservation(sent);
        let exposition = system.render_metrics().map(|text| Exposition::parse(&text));
        let restarts = restarts(
            workload,
            &inputs,
            &wal_root,
            system,
            windows,
            Some(&mut tracer),
        )?;
        let replay_wal = scratch.fresh("replay-wal")?;
        let replayed = replay::replay(
            workload,
            &inputs,
            windows,
            &replay_wal,
            &mut tracer,
            &mut metrics,
        )?;
        traced_metrics(
            workload,
            &inputs,
            &pass,
            &traced,
            &conservation,
            exposition.as_ref(),
            &tracer,
            &mut metrics,
        );
        let path =
            Path::new(TRACE_DIR).join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
        tracer.write_jsonl(&path)?;
        (
            conservation,
            restarts,
            vec![
                ("traced", traced.published),
                ("replay", Published::from(&replayed.snapshots[..])),
            ],
        )
    } else {
        let conservation = system.conservation(sent);
        let restarts = restarts(
            workload,
            &inputs,
            &scratch.0.join("wal"),
            system,
            windows,
            None,
        )?;
        (conservation, restarts, Vec::new())
    };
    problems.extend(check_conservation(&conservation));
    problems.extend(restarts.problems.iter().cloned());
    timed_spawns(workload, &inputs, &scratch, &mut setup_times, SETUP_REPS)?.shutdown();

    let played = restarts
        .played
        .iter()
        .map(|(start, published)| start + published.digests.len())
        .fold(windows, usize::max);
    let oracle_started = Instant::now();
    let oracle = oracle::digests(&oracle::oracle_snapshots(workload, &inputs, played)?);
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    problems.extend(check_digests("run", &pass.published, &oracle));
    for (label, published) in &extra {
        problems.extend(check_digests(label, published, &oracle));
    }
    for (start, published) in &restarts.played {
        problems.extend(check_digests("restart", published, &oracle[*start..]));
    }

    let (tail, beyond) = percentile(&pass.close_ms, TAIL_PERCENTILE);
    let busy_s = pass
        .send_ms
        .iter()
        .zip(&pass.close_ms)
        .map(|(send, close)| send + close)
        .sum::<f64>()
        / 1e3;
    let alerts_per_s = pass.alerts.iter().sum::<u64>() as f64 / busy_s.max(1e-9);
    let close_p50 = median(&pass.close_ms);
    let setup_s = median(&setup_times);
    let rss_mib = pass.peak_rss_bytes as f64 / f64::from(1u32 << 20);
    let delivered = sent.saturating_sub(conservation.failed()) as f64 / sent.max(1) as f64;
    let recover_s = median(&restarts.times);
    // See `REFERENCE_JOB_MS`.
    let timed = slowdown(&pass.reference_ms);
    let recovering = slowdown(&restarts.reference_ms);
    let mut wall = Metrics::default();
    for (name, measured, scaled) in [
        ("alerts_per_s", alerts_per_s, alerts_per_s * timed),
        ("close_ms_p50", close_p50, close_p50 / timed),
        ("close_ms_tail", tail, tail / timed),
        ("setup_s", setup_s, setup_s),
        ("peak_rss_mib", rss_mib, rss_mib),
        ("delivered_frac", delivered, delivered),
        ("recover_s", recover_s, recover_s / recovering),
    ] {
        wall.set(name, measured);
        if !args.trace {
            metrics.set(name, scaled);
        }
    }

    let mut warnings = Vec::new();
    if pass.exhausted {
        warnings.push("generated input ran out before the time budget".to_owned());
    }
    if beyond < 10 {
        warnings.push(format!(
            "only {beyond} close samples beyond p{TAIL_PERCENTILE}"
        ));
    }
    let report = format!(
        concat!(
            r#"{{"workload":{},"seed":{},"held_out_seed":{},"seconds":{},"trace":{},"#,
            r#""runs":1,"setup_reps":{},"recover_reps":{},"warmup_windows":{},"#,
            r#""windows":{},"timed_windows":{},"reference_samples":{},"stolen_frac":{},"#,
            r#""alerts_sent":{},"busy_s":{},"#,
            r#""close_tail_percentile":{},"close_tail_samples":{},"close_samples_beyond_tail":{},"#,
            r#""digest":"{:016x}","oracle_digest":"{:016x}","problems":{},"warnings":{},"#,
            r#""gen_s":{},"oracle_s":{},"run_s":{},"#,
            r#""slowdown":{{"timed":{},"recover":{}}},"wall":{},"provenance":{}}}"#
        ),
        json_str(workload.name()),
        args.seed,
        HELD_OUT_SEED,
        args.seconds,
        args.trace,
        setup_times.len(),
        restarts.times.len(),
        WARMUP_WINDOWS,
        windows,
        pass.close_ms.len(),
        pass.reference_ms.len(),
        pass.stolen,
        sent,
        busy_s,
        TAIL_PERCENTILE,
        pass.close_ms.len(),
        beyond,
        oracle::combined(&pass.published.digests),
        oracle::combined(&oracle[..windows.min(oracle.len())]),
        json_list(&problems),
        json_list(&warnings),
        inputs.gen_s,
        oracle_s,
        started.elapsed().as_secs_f64(),
        timed,
        recovering,
        wall.json(&END_TO_END),
        provenance(&scratch.0),
    );
    // A run whose output is wrong counts every alert it sent as failed.
    let failed = if problems.is_empty() {
        conservation.failed()
    } else {
        sent
    };
    Ok(Outcome {
        attempted: sent,
        failed,
        metrics,
        problems,
        report,
    })
}

/// Median busy time (send plus close) of a pass's timed windows, scaled
/// to the reference host's speed.
fn window_busy_ms(pass: &Pass) -> f64 {
    let busy: Vec<f64> = pass
        .send_ms
        .iter()
        .zip(&pass.close_ms)
        .map(|(send, close)| send + close)
        .collect();
    median(&busy) / slowdown(&pass.reference_ms)
}

/// The per-layer metrics measured from outside the layers: spans of the
/// traced pass, the daemon's own histograms, and the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    workload: Workload,
    inputs: &Inputs,
    untraced: &Pass,
    traced: &Pass,
    conservation: &Conservation,
    exposition: Option<&Exposition>,
    tracer: &Tracer,
    metrics: &mut Metrics,
) {
    let mean_ms = |family: &str| {
        let total = |suffix: &str| -> u64 {
            exposition.map_or(0, |e| {
                e.series_of(&format!("{family}{suffix}"))
                    .map(|(_, v)| v)
                    .sum()
            })
        };
        total("_sum") as f64 / 1e3 / total("_count").max(1) as f64
    };
    for (name, value) in [
        ("load.gen_s", inputs.gen_s),
        ("ingestd.send_ms_p50", median(&traced.send_ms)),
        (
            "ingestd.backpressure_waits",
            conservation.backpressure_waits as f64,
        ),
        ("ingestd.queue_depth_max", traced.queue_depth_max as f64),
        (
            "ingestd.shard_close_ms",
            mean_ms("alertops_shard_close_micros"),
        ),
        (
            "ingestd.barrier_wait_ms",
            mean_ms("alertops_barrier_wait_micros"),
        ),
        (
            "trace.overhead_frac",
            window_busy_ms(traced) / window_busy_ms(untraced).max(1e-9) - 1.0,
        ),
    ] {
        metrics.set(name, value);
    }
    if workload == Workload::ClusterWal {
        // The cluster exposes no per-node daemon metrics; a node's shard
        // close is taken from the replay instead.
        let node_close = metrics.get("cluster.node_close_sum_ms") / workload.nodes() as f64;
        let spans_ns =
            |name: &str| -> u64 { tracer.durations(name).iter().take(traced.windows).sum() };
        let alerts = inputs.total_alerts(traced.windows).max(1) as f64;
        for (name, value) in [
            ("ingestd.shard_close_ms", node_close),
            (
                "cluster.route_us_per_alert",
                spans_ns("send") as f64 / 1e3 / alerts,
            ),
            (
                "cluster.close_ms",
                spans_ns("close") as f64 / 1e6 / traced.windows.max(1) as f64,
            ),
        ] {
            metrics.set(name, value);
        }
    }
}

fn json_list(items: &[String]) -> String {
    let items: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", items.join(","))
}

/// Where and on what this run happened.
fn provenance(wal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let (fs, mount) =
        filesystem_of(wal_dir).unwrap_or_else(|| ("unknown".into(), "unknown".into()));
    format!(
        r#"{{"nproc":{nproc},"cpu_model":{},"wal_fs":{},"wal_mount":{},"git_commit":{}}}"#,
        json_str(&cpu),
        json_str(&fs),
        json_str(&mount),
        json_str(&git_commit().unwrap_or_else(|| "unknown".to_owned())),
    )
}

/// Filesystem type and mount point holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> Option<(String, String)> {
    let path = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (fs.to_owned(), mount.to_owned()))
        })
        .max_by_key(|(_, mount)| mount.len())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_owned());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            let (commit, name) = line.split_once(' ')?;
            (name == reference).then(|| commit.to_owned())
        })
}

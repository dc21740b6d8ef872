//! The system under test, driven only through its public API, and the
//! closed loop that times it.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use alertops_cluster::{AlertCluster, ClusterConfig, GovernorFactory, WalFormat};
use alertops_core::GovernanceSnapshot;
use alertops_ingestd::{Ingestd, IngestdConfig, IngestdHandle};
use alertops_model::{Alert, AlertStrategy, QoaLabel};
use alertops_wire::{AckFrame, Frame, WireDecoder, WireFormat};

use crate::inputs::{shard_governor, Inputs, Window, Workload, WARMUP_WINDOWS};
use crate::oracle::Published;
use crate::trace::Tracer;

/// Per-shard ingest queue capacity: large enough that a whole window
/// fits, so the closed loop never sheds.
const QUEUE_CAPACITY: usize = 16_384;

/// The daemon configuration of `workload` (per node for the cluster).
pub fn daemon_config(workload: Workload) -> IngestdConfig {
    IngestdConfig {
        shards: workload.shards(),
        queue_capacity: QUEUE_CAPACITY,
        streaming: workload.streaming(),
        ..IngestdConfig::default()
    }
}

/// The one client connection of the TCP workload, speaking binary
/// frames both ways.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    decoder: WireDecoder,
    frames: Vec<Result<Frame, alertops_wire::WireError>>,
}

impl Connection {
    fn open(handle: &IngestdHandle) -> io::Result<Self> {
        let addr = handle
            .ingest_addr()
            .ok_or_else(|| io::Error::other("ingress listener not bound"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::with_capacity(1 << 16, stream),
            decoder: WireDecoder::new(),
            frames: Vec::new(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Sends the flush frame and waits for its ack: the protocol is
    /// lock-step, so the next frame to arrive is that ack.
    fn flush(&mut self, flush: &[u8]) -> io::Result<()> {
        self.send(flush)?;
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the flush ack",
                ));
            }
            let consumed = buf.len();
            self.frames.clear();
            self.decoder.feed_into(buf, &mut self.frames);
            self.reader.consume(consumed);
            if let Some(frame) = self.frames.drain(..).next() {
                return match frame {
                    Ok(Frame::Ack(AckFrame::Flush { .. })) => Ok(()),
                    other => Err(io::Error::other(format!(
                        "expected a flush ack, got {other:?}"
                    ))),
                };
            }
        }
    }
}

/// One window as the system takes it: borrowed bytes for the wire,
/// owned alerts (copied before any clock starts) for in-process calls.
pub enum Payload<'a> {
    Bytes(&'a [u8]),
    Alerts(Vec<Alert>),
}

impl Window {
    pub fn payload(&self) -> Payload<'_> {
        match self {
            Self::Encoded { bytes, .. } => Payload::Bytes(bytes),
            Self::Alerts(alerts) => Payload::Alerts(alerts.clone()),
        }
    }
}

/// A running instance of the system under test. A run holds one at a
/// time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    /// A daemon fed over its TCP ingress.
    Tcp {
        handle: IngestdHandle,
        conn: Connection,
    },
    /// A daemon fed through its in-process handle.
    InProcess(IngestdHandle),
    Cluster(AlertCluster),
}

fn factory(streaming: alertops_core::StreamingConfig) -> GovernorFactory {
    Arc::new(move |catalog: &[AlertStrategy]| shard_governor(catalog, 1, 0, &streaming))
}

impl System {
    /// Spawns `workload`'s system and returns it ready to ingest. The
    /// cluster keeps its WAL under `wal_root` and replays whatever a
    /// previous incarnation left there.
    pub fn spawn(workload: Workload, inputs: &Inputs, wal_root: &Path) -> io::Result<Self> {
        let strategies = &inputs.strategies;
        let streaming = workload.streaming();
        match workload {
            Workload::SoakBinary => {
                let config = IngestdConfig {
                    listen: Some("127.0.0.1:0".to_owned()),
                    wire: WireFormat::Binary,
                    ..daemon_config(workload)
                };
                let handle = Ingestd::spawn(&config, |shard, shards| {
                    shard_governor(strategies, shards, shard, &streaming)
                })?;
                let conn = Connection::open(&handle)?;
                Ok(Self::Tcp { handle, conn })
            }
            Workload::StudyLoop => {
                let handle = Ingestd::spawn(&daemon_config(workload), |shard, shards| {
                    shard_governor(strategies, shards, shard, &streaming)
                })?;
                Ok(Self::InProcess(handle))
            }
            Workload::ClusterWal => {
                let config = ClusterConfig {
                    nodes: workload.nodes(),
                    node: daemon_config(workload),
                    wal_root: wal_root.to_path_buf(),
                    wal_format: WalFormat::V2Binary,
                };
                Ok(Self::Cluster(AlertCluster::spawn(
                    config,
                    strategies.clone(),
                    factory(streaming),
                )?))
            }
        }
    }

    /// Sends one window's alerts.
    pub fn send(&mut self, payload: Payload<'_>) -> io::Result<()> {
        match (self, payload) {
            (Self::Tcp { conn, .. }, Payload::Bytes(bytes)) => conn.send(bytes),
            (Self::InProcess(handle), Payload::Alerts(alerts)) => {
                for alert in alerts {
                    handle.route(alert);
                }
                Ok(())
            }
            (Self::Cluster(cluster), Payload::Alerts(alerts)) => {
                for alert in alerts {
                    cluster.route(alert)?;
                }
                Ok(())
            }
            _ => Err(io::Error::other("window form does not match the system")),
        }
    }

    /// Closes the window. Returns the published snapshot where the
    /// close call itself yields it (`None` over TCP, where the client
    /// only gets an ack).
    pub fn close(
        &mut self,
        labels: Vec<QoaLabel>,
        flush: &[u8],
    ) -> io::Result<Option<GovernanceSnapshot>> {
        match self {
            Self::Tcp { conn, .. } => conn.flush(flush).map(|()| None),
            Self::InProcess(handle) => handle
                .flush_labeled(labels)
                .map(Some)
                .ok_or_else(|| io::Error::other("flush published no snapshot")),
            Self::Cluster(cluster) => cluster.close_window_labeled(labels).map(Some),
        }
    }

    /// The latest published snapshot.
    pub fn published(&self) -> Option<GovernanceSnapshot> {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess(handle) => handle.latest_snapshot(),
            Self::Cluster(cluster) => cluster.latest_snapshot(),
        }
    }

    /// Alert accounting at a quiescent point.
    pub fn conservation(&self, sent: u64) -> Conservation {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess(handle) => {
                let c = handle.counters();
                Conservation {
                    sent,
                    ingested: c.ingested,
                    delivered: c.delivered,
                    dropped: c.dropped,
                    quarantined: c.quarantined(),
                    in_flight: 0,
                    backpressure_waits: c.backpressure_waits,
                }
            }
            Self::Cluster(cluster) => {
                let c = cluster.counters();
                Conservation {
                    sent,
                    ingested: c.ingested,
                    delivered: c.delivered,
                    dropped: c.dropped,
                    quarantined: c.quarantined,
                    in_flight: c.in_flight,
                    backpressure_waits: 0,
                }
            }
        }
    }

    /// The conservation law at a quiescent point, with nothing left in
    /// flight.
    pub fn is_conserved(&self) -> bool {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess(handle) => handle.counters().is_conserved(),
            Self::Cluster(cluster) => {
                let c = cluster.counters();
                c.is_conserved() && c.in_flight == 0
            }
        }
    }

    /// The daemon's metric exposition (daemon workloads only).
    pub fn render_metrics(&self) -> Option<String> {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess(handle) => Some(handle.render_metrics()),
            Self::Cluster(_) => None,
        }
    }

    /// Deepest shard queue right now (daemon workloads only).
    pub fn queue_depth(&self) -> u64 {
        match self {
            Self::Tcp { handle, .. } | Self::InProcess(handle) => handle
                .counters()
                .queue_depths
                .into_iter()
                .max()
                .unwrap_or(0),
            Self::Cluster(_) => 0,
        }
    }

    /// The cluster's QoA model digest (cluster workload only).
    pub fn qoa_digest(&self) -> Option<u64> {
        match self {
            Self::Cluster(cluster) => cluster.qoa_model_digest(),
            Self::Tcp { .. } | Self::InProcess(_) => None,
        }
    }

    pub fn shutdown(self) {
        match self {
            Self::Tcp { handle, conn } => {
                drop(conn);
                handle.shutdown();
            }
            Self::InProcess(handle) => handle.shutdown(),
            Self::Cluster(cluster) => cluster.shutdown(),
        }
    }
}

/// Alert accounting of one run.
#[derive(Debug, Clone, Copy)]
pub struct Conservation {
    pub sent: u64,
    pub ingested: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub quarantined: u64,
    pub in_flight: u64,
    pub backpressure_waits: u64,
}

impl Conservation {
    /// Alerts not delivered: shed, quarantined, or unaccounted for.
    pub fn failed(&self) -> u64 {
        let accounted = self.delivered + self.dropped + self.quarantined;
        self.dropped + self.quarantined + self.sent.saturating_sub(accounted)
    }

    /// The conservation law (`in_flight` included) and nothing lost.
    pub fn holds(&self) -> bool {
        self.ingested == self.sent
            && self.ingested == self.delivered + self.dropped + self.quarantined + self.in_flight
            && self.failed() == 0
            && self.in_flight == 0
    }
}

/// What one pass of the closed loop measured.
pub struct Pass {
    /// Digests of the snapshot published for every window played,
    /// warm-up included, taken as each arrives so the run holds no
    /// snapshots.
    pub published: Published,
    /// Windows played (warm-up included).
    pub windows: usize,
    /// Alerts sent in each timed window.
    pub alerts: Vec<u64>,
    /// Close latency of each timed window, milliseconds.
    pub close_ms: Vec<f64>,
    /// Send span of each timed window, milliseconds.
    pub send_ms: Vec<f64>,
    pub peak_rss_bytes: u64,
    /// Deepest shard queue seen after a send (traced passes only).
    pub queue_depth_max: u64,
    /// Whether the generated input ran out before the time did.
    pub exhausted: bool,
    /// Share of the machine's CPU time the hypervisor stole over the
    /// timed windows, for the report.
    pub stolen: f64,
    /// Durations of [`reference_job`], timed before each timed window
    /// (before every window when the budget is a window count) at which
    /// the system was idle.
    pub reference_ms: Vec<f64>,
}

/// Hypervisor steal on this machine: `/proc/stat`'s `steal` column
/// summed over CPUs, in clock ticks, and the number of CPUs. Zero where
/// the file is missing.
fn steal_counter() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let mut lines = text.lines();
    let steal = lines
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0);
    let cpus = lines.take_while(|line| line.starts_with("cpu")).count() as u64;
    (steal, cpus)
}

/// Measures the share of the machine's CPU time the hypervisor steals
/// over an interval.
struct StealMeter {
    started: Instant,
    steal: u64,
}

impl StealMeter {
    fn start() -> Self {
        Self {
            started: Instant::now(),
            steal: steal_counter().0,
        }
    }

    /// Stolen share since `start`: `/proc/stat` counts in ticks of
    /// 1/100 s on Linux.
    fn stolen(&self) -> f64 {
        let (steal, cpus) = steal_counter();
        let capacity = self.started.elapsed().as_secs_f64() * 100.0 * cpus.max(1) as f64;
        steal.saturating_sub(self.steal) as f64 / capacity.max(1e-9)
    }
}

/// Whether every thread of this process but the caller is asleep, read
/// from `/proc/self/task/*/stat`. The system under test runs in this
/// process, so this is the system being idle. False where `/proc` is
/// unreadable.
fn system_idle() -> bool {
    let Ok(me) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    tasks.flatten().all(|task| {
        Some(task.file_name().as_os_str()) == me.file_name()
            // A thread that exited since the listing is asleep for good.
            || std::fs::read_to_string(task.path().join("stat")).map_or(true, |stat| {
                // The state follows the parenthesised thread name.
                stat.rsplit_once(')')
                    .and_then(|(_, rest)| rest.split_whitespace().next())
                    != Some("R")
            })
    })
}

/// A fixed CPU-bound job that shares no code with the system: hash,
/// sort and look up 8192 integers. Timed while the system is idle, it
/// tracks how fast the host runs at that moment.
pub fn reference_job(seed: u64) -> u64 {
    let mut z = seed;
    let mut values: Vec<u64> = (0..8192)
        .map(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        })
        .collect();
    values.sort_unstable();
    let index: std::collections::HashMap<u64, u64> = values
        .iter()
        .step_by(4)
        .zip(0..)
        .map(|(&v, i)| (v, i))
        .collect();
    values.iter().step_by(3).filter_map(|v| index.get(v)).sum()
}

/// Runs [`reference_job`] once and returns its duration in milliseconds.
pub fn time_reference_job(seed: u64) -> f64 {
    let started = Instant::now();
    std::hint::black_box(reference_job(seed));
    ms(started)
}

/// How long a pass runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Time the windows after warm-up until this many seconds of wall
    /// clock have passed, keeping `reserve` windows unplayed.
    Seconds { seconds: f64, reserve: usize },
    /// Play exactly this many windows (warm-up included).
    Windows(usize),
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Plays windows through `system` in a closed loop: each window is
/// sent, then closed, and the next is sent only once the close is
/// acknowledged. With a tracer, every public call gets a span and the
/// shard queues are sampled after each send.
pub fn closed_loop(
    system: &mut System,
    inputs: &Inputs,
    budget: Budget,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Pass> {
    let (limit, deadline) = match budget {
        Budget::Seconds { seconds, reserve } => {
            (inputs.windows.len().saturating_sub(reserve), Some(seconds))
        }
        Budget::Windows(n) => (n.min(inputs.windows.len()), None),
    };
    let mut pass = Pass {
        published: Published::default(),
        windows: 0,
        alerts: Vec::new(),
        close_ms: Vec::new(),
        send_ms: Vec::new(),
        peak_rss_bytes: 0,
        queue_depth_max: 0,
        exhausted: false,
        stolen: 0.0,
        reference_ms: Vec::new(),
    };
    let mut timed_since: Option<(Instant, StealMeter)> = None;
    for index in 0..limit {
        if index == WARMUP_WINDOWS {
            timed_since = Some((Instant::now(), StealMeter::start()));
        }
        if let (Some(seconds), Some((since, _))) = (deadline, &timed_since) {
            if since.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        if (deadline.is_none() || index >= WARMUP_WINDOWS) && system_idle() {
            pass.reference_ms.push(time_reference_job(index as u64));
        }
        let window = &inputs.windows[index];
        let payload = window.payload();
        let labels = inputs.labels[index].clone();
        if let Some(t) = tracer.as_deref_mut() {
            t.set_window(index as u64);
        }
        let window_span = tracer.as_deref_mut().map(|t| t.begin("window"));

        let sent = Instant::now();
        Tracer::maybe(&mut tracer, "send", || system.send(payload))?;
        let send_ms = ms(sent);
        if tracer.is_some() {
            pass.queue_depth_max = pass.queue_depth_max.max(system.queue_depth());
        }
        let closing = Instant::now();
        let snapshot = Tracer::maybe(&mut tracer, "close", || system.close(labels, &inputs.flush))?;
        let close_ms = ms(closing);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), window_span) {
            t.end(id);
        }

        let snapshot = match snapshot {
            Some(snapshot) => snapshot,
            None => system
                .published()
                .ok_or_else(|| io::Error::other("close published no snapshot"))?,
        };
        pass.published.push(&snapshot);
        pass.windows = index + 1;
        if index >= WARMUP_WINDOWS {
            pass.alerts.push(window.alert_count() as u64);
            pass.close_ms.push(close_ms);
            pass.send_ms.push(send_ms);
        }
        if let Some(rss) = alertops_obs::process::rss_bytes() {
            pass.peak_rss_bytes = pass.peak_rss_bytes.max(rss);
        }
    }
    pass.exhausted = deadline.is_some() && pass.windows == limit;
    if let Some((_, steal)) = timed_since {
        pass.stolen = steal.stolen();
    }
    Ok(pass)
}

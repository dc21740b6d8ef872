//! The workloads and the inputs each one plays, generated from the
//! seed before any clock starts.

use std::time::Instant;

use alertops_core::{
    AlertGovernor, EmergingChannel, EmergingMode, GovernorConfig, QoaChannel, QoaMode,
    StreamingConfig, StreamingGovernor,
};
use alertops_ingestd::shard_catalog;
use alertops_model::{Alert, AlertStrategy, QoaLabel, SimTime, TimeRange};
use alertops_sim::scenarios::{self, Scenario};
use alertops_sim::{FeedbackOracle, StatisticalStream};
use alertops_wire::{Frame, WireEncoder};

/// Windows played before the clock starts: one full detection history,
/// so the timed phase sees the engine at its steady-state size.
pub const WARMUP_WINDOWS: usize = 24;

/// Cluster restarts measured after the timed phase. The cluster holds
/// back one window per restart to check it.
pub const RESTARTS: usize = 5;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `scenarios::soak` over TCP in binary wire frames into a 2-shard
    /// daemon; emerging and QoA off.
    SoakBinary,
    /// `scenarios::study` routed in process into a 2-shard daemon with
    /// the whole loop on (AO-LDA and online QoA at the coordinator).
    StudyLoop,
    /// The `soak_smoke` world through a 4-node × 1-shard
    /// `AlertCluster` with a binary WAL and QoA on.
    ClusterWal,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Self::SoakBinary, Self::StudyLoop, Self::ClusterWal];

    pub fn name(self) -> &'static str {
        match self {
            Self::SoakBinary => "soak-binary",
            Self::StudyLoop => "study-loop",
            Self::ClusterWal => "cluster-wal",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards per daemon (per node for the cluster).
    pub fn shards(self) -> usize {
        match self {
            Self::SoakBinary | Self::StudyLoop => 2,
            Self::ClusterWal => 1,
        }
    }

    /// Cluster nodes (1 = a standalone daemon).
    pub fn nodes(self) -> usize {
        match self {
            Self::ClusterWal => 4,
            Self::SoakBinary | Self::StudyLoop => 1,
        }
    }

    /// Simulated hours per window. The cluster closes four-hour windows
    /// (~3k alerts): with hourly ones its four serial node round trips
    /// and fsyncs dominated each close, and on a shared 2-vCPU host its
    /// tail latency and restart time spread more than twice as wide
    /// from run to run. The serial close it exists to measure is the
    /// same either way.
    pub fn window_hours(self) -> u64 {
        match self {
            Self::SoakBinary | Self::StudyLoop => 1,
            Self::ClusterWal => 4,
        }
    }

    /// Upper estimate of timed windows per second, used to size the
    /// generated input so a run does not exhaust it.
    fn max_windows_per_s(self) -> f64 {
        match self {
            Self::SoakBinary => 60.0,
            Self::StudyLoop => 250.0,
            Self::ClusterWal => 45.0,
        }
    }

    /// The streaming configuration every governor of this workload uses.
    pub fn streaming(self) -> StreamingConfig {
        match self {
            Self::SoakBinary => StreamingConfig::default(),
            Self::StudyLoop => StreamingConfig {
                emerging: EmergingChannel {
                    mode: EmergingMode::Local,
                    ..EmergingChannel::default()
                },
                qoa: QoaChannel {
                    mode: QoaMode::Local,
                    ..QoaChannel::default()
                },
                ..StreamingConfig::default()
            },
            Self::ClusterWal => StreamingConfig {
                qoa: QoaChannel {
                    mode: QoaMode::Local,
                    ..QoaChannel::default()
                },
                ..StreamingConfig::default()
            },
        }
    }
}

/// The governor one shard of `shards` runs over `strategies`, built the
/// way the daemon's own callers build it.
pub fn shard_governor(
    strategies: &[AlertStrategy],
    shards: usize,
    shard: usize,
    streaming: &StreamingConfig,
) -> StreamingGovernor {
    StreamingGovernor::new(
        AlertGovernor::new(
            shard_catalog(strategies, shards, shard),
            GovernorConfig::default(),
        ),
        streaming.clone(),
    )
}

/// One window of input, in the form its workload sends it.
pub enum Window {
    /// Binary wire bytes for one connection, in stream order (the
    /// encoder's string table spans windows).
    Encoded { bytes: Vec<u8>, alerts: usize },
    /// Alert values for in-process routing.
    Alerts(Vec<Alert>),
}

impl Window {
    pub fn alert_count(&self) -> usize {
        match self {
            Self::Encoded { alerts, .. } => *alerts,
            Self::Alerts(alerts) => alerts.len(),
        }
    }
}

/// Everything a run plays, generated from the seed.
pub struct Inputs {
    pub strategies: Vec<AlertStrategy>,
    pub windows: Vec<Window>,
    /// OCE feedback per window (empty lists when unlabeled).
    pub labels: Vec<Vec<QoaLabel>>,
    /// The encoded flush frame (binary wire only).
    pub flush: Vec<u8>,
    /// Wall time spent generating and encoding, outside every timing.
    pub gen_s: f64,
}

impl Inputs {
    /// Generates enough windows for a `seconds`-long timed phase plus
    /// warm-up and recovery checks.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Self {
        let started = Instant::now();
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let needed = (seconds as f64 * workload.max_windows_per_s()).ceil() as u64
            + (WARMUP_WINDOWS + RESTARTS) as u64;
        let hours = workload.window_hours();
        let days = (needed * hours).div_ceil(24);
        let mut inputs = match workload {
            Workload::SoakBinary => soak_binary(seed, days),
            // The paper's scale: at least the study scenario's 60 days.
            Workload::StudyLoop => labeled(scenarios::study(seed), seed, days.max(60), hours),
            Workload::ClusterWal => labeled(scenarios::soak_smoke(seed), seed, days, hours),
        };
        inputs.gen_s = started.elapsed().as_secs_f64();
        inputs
    }

    pub fn total_alerts(&self, windows: usize) -> u64 {
        self.windows[..windows]
            .iter()
            .map(|w| w.alert_count() as u64)
            .sum()
    }
}

fn with_days(mut scenario: Scenario, days: u64) -> Scenario {
    scenario.range = TimeRange::new(SimTime::EPOCH, SimTime::from_days(days));
    scenario
}

/// The soak world streamed hour by hour and encoded for one binary
/// connection.
fn soak_binary(seed: u64, days: u64) -> Inputs {
    let mut stream = StatisticalStream::new(&with_days(scenarios::soak(seed), days));
    let strategies = stream.catalog().strategies().to_vec();
    let mut encoder = WireEncoder::new();
    let mut scratch = Vec::new();
    let mut windows = Vec::new();
    while let Some(window) = stream.next_window(1) {
        let mut bytes = Vec::new();
        for alert in &window {
            scratch.clear();
            encoder.encode_alert_into(alert, &mut scratch);
            bytes.extend_from_slice(&scratch);
        }
        windows.push(Window::Encoded {
            bytes,
            alerts: window.len(),
        });
    }
    let labels = vec![Vec::new(); windows.len()];
    Inputs {
        strategies,
        windows,
        labels,
        flush: encoder.encode(&Frame::Flush),
        gen_s: 0.0,
    }
}

/// A batch scenario run chopped into windows of `hours` simulated
/// hours, each labeled by the noise-free feedback oracle.
fn labeled(scenario: Scenario, seed: u64, days: u64, hours: u64) -> Inputs {
    let out = with_days(scenario, days).run();
    let oracle = FeedbackOracle::new(seed, 0.0);
    let mut windows: Vec<Vec<Alert>> = Vec::new();
    let mut bucket = None;
    for alert in out.alerts {
        if bucket != Some(alert.hour_bucket() / hours) {
            bucket = Some(alert.hour_bucket() / hours);
            windows.push(Vec::new());
        }
        windows
            .last_mut()
            .expect("a window was just opened")
            .push(alert);
    }
    let labels = windows
        .iter()
        .enumerate()
        .map(|(index, window)| {
            oracle.label_window(index as u64, &out.catalog, window, &out.incidents)
        })
        .collect();
    Inputs {
        strategies: out.catalog.strategies().to_vec(),
        windows: windows.into_iter().map(Window::Alerts).collect(),
        labels,
        flush: Vec::new(),
        gen_s: 0.0,
    }
}

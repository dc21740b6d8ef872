//! The correctness gate: digests of published snapshots against a
//! 1-shard oracle of the same windows.

use std::io;

use alertops_core::GovernanceSnapshot;
use alertops_ingestd::{Ingestd, IngestdConfig};
use alertops_model::Alert;
use alertops_wire::{Frame, WireDecoder};

use crate::inputs::{shard_governor, Inputs, Window, Workload};
use crate::run::daemon_config;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the fields sharding is exact for: everything but triage,
/// which correlates within one shard only.
pub fn digest(snapshot: &GovernanceSnapshot) -> u64 {
    let comparable = GovernanceSnapshot {
        triage: Vec::new(),
        ..snapshot.clone()
    };
    fnv1a(
        serde_json::to_string(&comparable)
            .expect("snapshot serializes")
            .as_bytes(),
    )
}

pub fn digests(snapshots: &[GovernanceSnapshot]) -> Vec<u64> {
    snapshots.iter().map(digest).collect()
}

/// What a system published, in window order: each snapshot's digest,
/// and the first snapshot that listed degraded shards.
#[derive(Default)]
pub struct Published {
    pub digests: Vec<u64>,
    pub degraded: Option<(u64, Vec<usize>)>,
}

impl Published {
    pub fn push(&mut self, snapshot: &GovernanceSnapshot) {
        if self.degraded.is_none() && !snapshot.degraded.is_empty() {
            self.degraded = Some((snapshot.window_index, snapshot.degraded.clone()));
        }
        self.digests.push(digest(snapshot));
    }
}

impl From<&[GovernanceSnapshot]> for Published {
    fn from(snapshots: &[GovernanceSnapshot]) -> Self {
        let mut published = Self::default();
        for snapshot in snapshots {
            published.push(snapshot);
        }
        published
    }
}

/// One digest standing for a whole sequence.
pub fn combined(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Index of the first window whose digests differ, or of the first
/// window only one side has.
pub fn first_mismatch(got: &[u64], want: &[u64]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .or_else(|| (got.len() != want.len()).then(|| got.len().min(want.len())))
}

/// Decodes one window of binary frames on a decoder that has seen
/// every earlier window of the connection.
pub fn decode_window(decoder: &mut WireDecoder, bytes: &[u8]) -> io::Result<Vec<Alert>> {
    let mut frames = Vec::new();
    decoder.feed_into(bytes, &mut frames);
    frames
        .into_iter()
        .map(|frame| match frame {
            Ok(Frame::Alert(alert)) => Ok(*alert),
            other => Err(io::Error::other(format!("unexpected frame {other:?}"))),
        })
        .collect()
}

/// The alerts of each of the first `windows` windows in turn, decoded
/// where encoded.
fn window_alerts(
    inputs: &Inputs,
    windows: usize,
) -> impl Iterator<Item = io::Result<Vec<Alert>>> + '_ {
    let mut decoder = WireDecoder::new();
    inputs.windows[..windows]
        .iter()
        .map(move |window| match window {
            Window::Encoded { bytes, .. } => decode_window(&mut decoder, bytes),
            Window::Alerts(alerts) => Ok(alerts.clone()),
        })
}

/// The snapshots a 1-shard daemon publishes for the first `windows`
/// windows with the same streaming configuration and labels.
pub fn oracle_snapshots(
    workload: Workload,
    inputs: &Inputs,
    windows: usize,
) -> io::Result<Vec<GovernanceSnapshot>> {
    let config = IngestdConfig {
        shards: 1,
        ..daemon_config(workload)
    };
    let streaming = workload.streaming();
    let handle = Ingestd::spawn(&config, |shard, shards| {
        shard_governor(&inputs.strategies, shards, shard, &streaming)
    })?;
    let mut snapshots = Vec::with_capacity(windows);
    for (index, alerts) in window_alerts(inputs, windows).enumerate() {
        for alert in alerts? {
            handle.route(alert);
        }
        snapshots.push(
            handle
                .flush_labeled(inputs.labels[index].clone())
                .ok_or_else(|| io::Error::other("oracle flush published no snapshot"))?,
        );
    }
    handle.shutdown();
    Ok(snapshots)
}

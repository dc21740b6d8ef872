//! The traced layer replay: the windows of a run, single-threaded,
//! through each layer's public functions in the order the daemon and
//! the cluster call them, with a span around every call.

use std::io;
use std::path::Path;

use alertops_cluster::{node_catalog, wal, RangeMap, Wal, WalFormat};
use alertops_core::{
    EmergingMode, GovernanceSnapshot, GovernorMetrics, OnlineQoaModel, QoaMode, StreamingGovernor,
    WindowDelta,
};
use alertops_ingestd::shard_of;
use alertops_load::scrape::Exposition;
use alertops_model::Alert;
use alertops_obs::MetricsRegistry;
use alertops_react::EmergingAlertDetector;
use alertops_wire::WireDecoder;

use crate::inputs::{shard_governor, Inputs, Window, Workload};
use crate::oracle::decode_window;
use crate::trace::Tracer;
use crate::Metrics;

/// One shard governor of the replay and the window buffered for it.
struct Unit {
    node: usize,
    governor: StreamingGovernor,
    checkpoint: Option<StreamingGovernor>,
    window: Vec<Alert>,
}

/// What the replay published, for the digest check.
pub struct Replay {
    pub snapshots: Vec<GovernanceSnapshot>,
}

fn ms(ns: u64, per: usize) -> f64 {
    ns as f64 / 1e6 / per.max(1) as f64
}

/// Replays the first `windows` windows. The cluster workload journals
/// into `wal_dir`.
#[allow(clippy::too_many_lines)]
pub fn replay(
    workload: Workload,
    inputs: &Inputs,
    windows: usize,
    wal_dir: &Path,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> io::Result<Replay> {
    let (shards, nodes) = (workload.shards(), workload.nodes());
    let streaming = workload.streaming();
    let registry = MetricsRegistry::new();
    let map = (nodes > 1).then(|| RangeMap::partition(&inputs.strategies, nodes));

    let mut units = Vec::with_capacity(nodes * shards);
    for node in 0..nodes {
        let catalog = match &map {
            Some(map) => node_catalog(&inputs.strategies, map, node),
            None => inputs.strategies.clone(),
        };
        for shard in 0..shards {
            let mut governor = shard_governor(&catalog, shards, shard, &streaming);
            // As the daemon does: shards forward documents and samples,
            // the topmost coordinator runs AO-LDA and the QoA model.
            if streaming.emerging.mode != EmergingMode::Off {
                governor.set_emerging_mode(EmergingMode::Forward);
            }
            if streaming.qoa.mode != QoaMode::Off {
                governor.set_qoa_mode(QoaMode::Forward);
            }
            units.push(Unit {
                node,
                governor: governor.with_metrics(GovernorMetrics::register(&registry)),
                checkpoint: None,
                window: Vec::new(),
            });
        }
    }
    let mut emerging = (streaming.emerging.mode != EmergingMode::Off)
        .then(|| EmergingAlertDetector::new(streaming.emerging.config.clone()));
    let mut qoa =
        (streaming.qoa.mode != QoaMode::Off).then(|| OnlineQoaModel::new(streaming.qoa.config));
    let wals = if nodes > 1 {
        let retain = streaming.history_windows.max(1) + 1;
        (0..nodes)
            .map(|node| {
                Wal::open_with_format(
                    wal_dir.join(format!("node-{node}")),
                    retain,
                    WalFormat::V2Binary,
                )
            })
            .collect::<io::Result<Vec<_>>>()?
    } else {
        Vec::new()
    };

    let mut decoder = WireDecoder::new();
    let mut snapshots = Vec::with_capacity(windows);
    let (mut alerts_total, mut wire_bytes, mut docs) = (0usize, 0usize, 0usize);
    let (mut skew_sum, mut checkpoint_bytes) = (0.0f64, 0usize);
    let mut node_close_max_ns = 0u64;
    for (index, window) in inputs.windows[..windows].iter().enumerate() {
        let seq = index as u64;
        let owned = match window {
            Window::Alerts(alerts) => Some(alerts.clone()),
            Window::Encoded { .. } => None,
        };
        tracer.set_window(seq);
        let window_span = tracer.begin("replay.window");

        let alerts = match (window, owned) {
            (Window::Encoded { bytes, .. }, _) => {
                wire_bytes += bytes.len() + inputs.flush.len();
                tracer.span("wire.decode", || decode_window(&mut decoder, bytes))?
            }
            (Window::Alerts(_), Some(alerts)) => alerts,
            (Window::Alerts(_), None) => unreachable!("alert windows are cloned above"),
        };
        alerts_total += alerts.len();
        if let Some(map) = &map {
            tracer.span("cluster.wal_append", || {
                alerts
                    .iter()
                    .try_for_each(|alert| wals[map.node_of(alert.strategy())].append(alert))
            })?;
        }
        tracer.span("ingestd.route", || {
            for alert in alerts {
                let node = map.as_ref().map_or(0, |m| m.node_of(alert.strategy()));
                let unit = node * shards + shard_of(alert.strategy(), shards);
                units[unit].window.push(alert);
            }
        });
        let sizes: Vec<usize> = units.iter().map(|u| u.window.len()).collect();
        let (max, min) = (
            sizes.iter().copied().max().unwrap_or(0),
            sizes.iter().copied().min().unwrap_or(0),
        );
        skew_sum += max as f64 / min.max(1) as f64;

        // Each node closes its shards (sort, ingest, checkpoint) and
        // folds their deltas, as one daemon's coordinator does.
        let mut node_deltas = Vec::with_capacity(nodes);
        let mut slowest_node = 0u64;
        for node in 0..nodes {
            let node_span = tracer.begin("node.close");
            let mut deltas = Vec::with_capacity(shards);
            for unit in units.iter_mut().filter(|u| u.node == node) {
                tracer.span("ingestd.sort", || {
                    unit.window.sort_by_key(|a| (a.raised_at(), a.id()));
                });
                let window = std::mem::take(&mut unit.window);
                deltas.push(tracer.span("core.ingest", || unit.governor.ingest_owned(window, &[])));
                tracer.span("ingestd.checkpoint", || {
                    unit.checkpoint = Some(unit.governor.clone());
                });
            }
            node_deltas.push(tracer.span("core.merge", || {
                let merged = WindowDelta::merge_all(&deltas);
                let snapshot = GovernanceSnapshot::from_delta(&merged, &streaming.storm);
                (merged, snapshot)
            }));
            slowest_node = slowest_node.max(tracer.end(node_span));
        }
        node_close_max_ns += slowest_node;

        // A cluster merges its nodes' deltas once more, one level up.
        let (merged, mut snapshot) = if nodes > 1 {
            tracer.span("core.merge", || {
                let deltas: Vec<WindowDelta> = node_deltas.into_iter().map(|(d, _)| d).collect();
                let merged = WindowDelta::merge_all(&deltas);
                let mut snapshot = GovernanceSnapshot::from_delta(&merged, &streaming.storm);
                snapshot.window_index = seq;
                (merged, snapshot)
            })
        } else {
            node_deltas.pop().expect("one node")
        };
        if let Some(detector) = emerging.as_mut() {
            docs += merged.emerging_docs.len();
            snapshot.emerging = Some(tracer.span("topics.aolda", || {
                detector.observe_docs(&merged.emerging_docs)
            }));
        }
        let mut qoa_bytes = None;
        if let Some(model) = qoa.as_mut() {
            let labels = &inputs.labels[index];
            snapshot.qoa = Some(tracer.span("qoa.update", || {
                model.observe_window(&merged.qoa_samples, labels)
            }));
            tracer.span("qoa.push", || {
                let verdicts = model.verdicts();
                for unit in &mut units {
                    unit.governor.set_qoa_verdicts(verdicts.clone());
                }
            });
            if nodes > 1 {
                qoa_bytes = Some(tracer.span("qoa.checkpoint", || model.checkpoint().to_bytes()));
            }
        }
        if nodes > 1 {
            tracer.span("cluster.wal_boundary", || {
                wals.iter().try_for_each(|wal| {
                    if let Some(bytes) = &qoa_bytes {
                        wal.qoa_state(bytes)?;
                    }
                    wal.boundary(seq)
                })
            })?;
        }
        tracer.end(window_span);

        // The standalone daemon journals no QoA state; what a checkpoint
        // would cost it is measured outside the window's span.
        if let (Some(model), true) = (qoa.as_ref(), nodes == 1) {
            let bytes = tracer.span("qoa.checkpoint", || model.checkpoint().to_bytes());
            checkpoint_bytes += bytes.len();
        }
        if let Some(bytes) = &qoa_bytes {
            checkpoint_bytes += bytes.len();
        }
        snapshots.push(snapshot);
    }

    let shard_windows = windows * units.len();
    let per_alert = |x: f64| x / alerts_total.max(1) as f64;
    let per_window = |x: f64| x / windows.max(1) as f64;
    let exposition = Exposition::parse(&registry.render());
    let micros = |series: &str| exposition.value(series).unwrap_or(0);
    let detector_us: u64 = exposition
        .series_of("alertops_detector_micros_sum")
        .map(|(_, v)| v)
        .sum();
    let stage_us = |stage: &str| {
        micros(&format!(
            r#"alertops_react_stage_micros_sum{{stage="{stage}"}}"#
        ))
    };
    let us_ms = |us: u64| ms(us * 1000, shard_windows);
    let blocked = micros("alertops_react_blocked_total") as f64;
    for (name, value) in [
        ("wire.bytes_per_alert", per_alert(wire_bytes as f64)),
        (
            "wire.decode_ns_per_alert",
            per_alert(tracer.total_ns("wire.decode") as f64),
        ),
        ("ingestd.shard_skew", per_window(skew_sum)),
        (
            "ingestd.checkpoint_ms",
            ms(tracer.total_ns("ingestd.checkpoint"), shard_windows),
        ),
        (
            "core.ingest_ms",
            ms(tracer.total_ns("core.ingest"), shard_windows),
        ),
        ("core.merge_ms", ms(tracer.total_ns("core.merge"), windows)),
        (
            "core.replay_alerts_per_s",
            alerts_total as f64 / (tracer.total_ns("replay.window") as f64 / 1e9).max(1e-9),
        ),
        (
            "topics.aolda_ms",
            ms(tracer.total_ns("topics.aolda"), windows),
        ),
        ("topics.docs_per_window", per_window(docs as f64)),
        ("qoa.update_ms", ms(tracer.total_ns("qoa.update"), windows)),
        (
            "qoa.checkpoint_ms",
            ms(tracer.total_ns("qoa.checkpoint"), windows),
        ),
        ("qoa.checkpoint_bytes", per_window(checkpoint_bytes as f64)),
        (
            "trace.unattributed_frac",
            tracer.unattributed_share("replay.window"),
        ),
        (
            "detect.apply_ms",
            us_ms(micros("alertops_engine_apply_micros_sum")),
        ),
        (
            "detect.evict_ms",
            us_ms(micros("alertops_engine_evict_micros_sum")),
        ),
        ("detect.findings_ms", us_ms(detector_us)),
        ("react.blocking_ms", us_ms(stage_us("blocking"))),
        ("react.aggregation_ms", us_ms(stage_us("aggregation"))),
        ("react.correlation_ms", us_ms(stage_us("correlation"))),
        (
            "react.blocked_frac",
            blocked / micros("alertops_react_input_total").max(1) as f64,
        ),
    ] {
        metrics.set(name, value);
    }

    if nodes > 1 {
        drop(wals);
        let mut recovered = 0u64;
        let replay_span = tracer.begin("cluster.replay");
        for node in 0..nodes {
            recovered += wal::replay(&wal_dir.join(format!("node-{node}")))?.recovered_alerts;
        }
        let replay_ns = tracer.end(replay_span);
        for (name, value) in [
            (
                "cluster.wal_append_us",
                per_alert(tracer.total_ns("cluster.wal_append") as f64 / 1e3),
            ),
            (
                "cluster.wal_boundary_ms",
                ms(tracer.total_ns("cluster.wal_boundary"), windows),
            ),
            (
                "cluster.node_close_sum_ms",
                ms(tracer.total_ns("node.close"), windows),
            ),
            ("cluster.node_close_max_ms", ms(node_close_max_ns, windows)),
            ("cluster.replay_ms", ms(replay_ns, 1)),
            (
                "cluster.wal_bytes_per_alert",
                dir_bytes(wal_dir)? as f64 / recovered.max(1) as f64,
            ),
        ] {
            metrics.set(name, value);
        }
    }
    Ok(Replay { snapshots })
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

//! `IngestdHandle::begin_close`: a started close that nobody waits on
//! must never wedge the coordinator.

use alertops_core::{AlertGovernor, GovernorConfig, StreamingConfig, StreamingGovernor};
use alertops_ingestd::{shard_catalog, Ingestd, IngestdConfig};
use alertops_sim::scenarios;

#[test]
fn unwaited_pending_closes_never_wedge_the_coordinator() {
    let out = scenarios::quickstart(7).run();
    let strategies = out.catalog.strategies().to_vec();
    let mut trace = out.alerts;
    trace.sort_by_key(|a| (a.raised_at(), a.id()));
    let windows: Vec<_> = trace.chunks(trace.len().div_ceil(3)).collect();
    assert_eq!(windows.len(), 3);

    let config = IngestdConfig {
        shards: 2,
        queue_capacity: 8192,
        ..IngestdConfig::default()
    };
    let handle = Ingestd::spawn(&config, |shard, shards| {
        StreamingGovernor::new(
            AlertGovernor::new(
                shard_catalog(&strategies, shards, shard),
                GovernorConfig::default(),
            ),
            StreamingConfig::default(),
        )
    })
    .expect("daemon starts");

    // Window 0: started, then dropped without waiting.
    for alert in windows[0] {
        handle.route(alert.clone());
    }
    drop(handle.begin_close(Vec::new()).expect("coordinator alive"));

    // Window 1: started and held without waiting — its ack sits in the
    // channel's one slot while the coordinator moves on.
    for alert in windows[1] {
        handle.route(alert.clone());
    }
    let held = handle.begin_close(Vec::new()).expect("coordinator alive");

    // Window 2 still closes, with the following sequence number. (The
    // alerts routed while a close was pending may land on either side
    // of it, so only the totals are exact here.)
    for alert in windows[2] {
        handle.route(alert.clone());
    }
    let closed = handle
        .begin_close(Vec::new())
        .expect("coordinator alive")
        .wait()
        .expect("close completes");
    assert_eq!(closed.snapshot.window_index, 2);

    // The held close completed before window 2's; its result waited.
    let earlier = held.wait().expect("held close completed");
    assert_eq!(earlier.snapshot.window_index, 1);

    let counters = handle.counters();
    assert_eq!(counters.windows_closed, 3);
    assert_eq!(counters.delivered, trace.len() as u64);
    assert!(counters.is_conserved(), "{counters:?}");
    handle.shutdown();
}

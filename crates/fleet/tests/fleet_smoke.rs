//! Live-fleet smoke test — the CI target: a 4-node heterogeneous fleet
//! serves an open-loop Poisson trace, one node is killed mid-trace and
//! later restarted, and every submitted request resolves to an output
//! or a typed [`Rejected`] — zero panics, zero silent losses.

use std::time::Duration;

use ts_core::{Network, NetworkBuilder};
use ts_fleet::{frame_bank, heterogeneous_specs, Fleet, FleetError, RouterConfig};
use ts_serve::ServeConfig;
use ts_tensor::Precision;
use ts_workloads::{ArrivalConfig, ArrivalTrace};

fn net() -> Network {
    let mut b = NetworkBuilder::new("fleet-smoke", 4);
    let c = b.conv_block("stem", NetworkBuilder::INPUT, 8, 3, 1);
    let _ = b.conv("head", c, 2, 1, 1);
    b.build()
}

fn serve_cfg() -> ServeConfig {
    ServeConfig::default()
        .with_map_reuse(true)
        .with_max_wait(Duration::from_millis(1))
        .with_queue_capacity(512)
        .with_supervisor_poll(Duration::from_millis(2))
}

#[test]
fn four_node_fleet_survives_kill_and_restart() {
    let network = net();
    let weights = network.init_weights(1);
    let specs = heterogeneous_specs(4, Precision::Fp16, &network, &serve_cfg());
    let mut fleet = Fleet::boot(
        network.clone(),
        weights.clone(),
        specs,
        RouterConfig::default(),
    );
    assert_eq!(fleet.alive(), 4);

    let trace = ArrivalTrace::generate(
        ArrivalConfig {
            streams: 6,
            rate_per_s: 2000.0,
            count: 48,
        },
        7,
    );
    let mut per_stream = trace.frames_per_stream();
    // Room for the post-restart frames submitted after the trace.
    let frames = frame_bank(
        6,
        per_stream.iter().max().copied().unwrap_or(0) + 2,
        0.15,
        11,
    );

    let mut handles = Vec::new();
    let mut typed_rejections = 0u64;
    let mut victim = None;
    for (i, a) in trace.arrivals.iter().enumerate() {
        // Kill stream 0's home halfway through, while traffic flows.
        if i == trace.arrivals.len() / 2 {
            let home = fleet.home_of(0).expect("stream 0 routed by now");
            let report = fleet.kill_node(home).expect("kill succeeds");
            // Halt semantics: everything the node admitted is accounted
            // for — completed, shed with a typed reason, or crashed
            // with a typed reason. Nothing vanishes.
            assert_eq!(report.worker_panics, 0);
            victim = Some(home);
            assert_eq!(fleet.alive(), 3);
        }
        match fleet.submit(a.stream, frames[a.stream as usize][a.frame].clone()) {
            Ok(h) => handles.push(h),
            Err(FleetError::Rejected(_)) => typed_rejections += 1,
            Err(e) => panic!("only typed node rejections are acceptable: {e}"),
        }
    }
    let victim = victim.expect("the kill fired");

    // Restart the victim and route one more frame per stream: any
    // stream homed on the victim has re-homed by now, and the revived
    // node is eligible for new streams again.
    fleet.restart_node(victim).expect("restart succeeds");
    assert_eq!(fleet.alive(), 4);
    for s in 0..6u64 {
        let f = per_stream[s as usize];
        per_stream[s as usize] += 1;
        match fleet.submit(s, frames[s as usize][f].clone()) {
            Ok(h) => handles.push(h),
            Err(FleetError::Rejected(_)) => typed_rejections += 1,
            Err(e) => panic!("unexpected fleet error: {e}"),
        }
    }

    // Every handle resolves — to an output or a typed rejection.
    let mut completed = 0u64;
    for h in handles {
        match h.wait() {
            Ok(_) => completed += 1,
            Err(_) => typed_rejections += 1,
        }
    }
    assert!(completed > 0, "the fleet served traffic");

    let report = fleet.shutdown();
    assert_eq!(report.node_deaths, 1);
    assert_eq!(report.node_restarts, 1);
    assert!(
        report.re_homed >= 1,
        "stream 0's home died while it kept arriving; it must re-home"
    );
    assert_eq!(report.merged.worker_panics, 0);
    assert_eq!(report.routed + report.rejected_no_capacity, 54);
    // Conservation: routed requests either completed or were rejected
    // with a typed reason (queue full at submit, shed at halt, ...).
    assert_eq!(report.merged.completed, completed);
    assert!(
        completed + typed_rejections >= report.routed,
        "no routed request may vanish: {completed} completed + \
         {typed_rejections} typed rejections < {} routed",
        report.routed
    );
    assert!(report.affinity_rate() > 0.0, "repeat frames hit their home");
    assert!(
        report.merged.map_cache_hits > 0,
        "affinity routing must land repeat frames on their cached maps"
    );

    // The merged report round-trips through JSON (dashboards consume it).
    let json = report.to_json().expect("serializes");
    assert_eq!(
        ts_fleet::FleetReport::from_json(&json).expect("parses"),
        report
    );
}

/// Live telemetry across the fleet: with obs enabled on every node,
/// health snapshots report the rolling window per node, a node death
/// leaves `Migration { kind: "re_home" }` events in the gaining node's
/// flight recorder, and the final report pools per-node alert logs.
#[test]
fn fleet_health_snapshots_and_rehome_events() {
    let network = net();
    let weights = network.init_weights(1);
    let specs = heterogeneous_specs(
        3,
        Precision::Fp16,
        &network,
        &serve_cfg().with_obs(ts_serve::ObsConfig::default()),
    );
    let mut fleet = Fleet::boot(
        network.clone(),
        weights.clone(),
        specs,
        RouterConfig::default(),
    );

    let frames = frame_bank(4, 8, 0.15, 13);
    let mut handles = Vec::new();
    for f in 0..4 {
        for (s, stream) in frames.iter().enumerate() {
            if let Ok(h) = fleet.submit(s as u64, stream[f].clone()) {
                handles.push(h);
            }
        }
    }
    for h in handles.drain(..) {
        let _ = h.wait();
    }

    // Every alive node exposes a snapshot; together they saw all 16
    // completions inside the rolling window.
    let health = fleet.health();
    assert_eq!(health.len(), 3);
    let completed: u64 = health.iter().flatten().map(|h| h.completed).sum();
    assert_eq!(completed, 16);

    // Kill stream 0's home; its next frame re-homes, and the gaining
    // node's flight recorder logs the movement.
    let victim = fleet.home_of(0).expect("stream 0 routed");
    fleet.kill_node(victim).expect("kill succeeds");
    let h = fleet
        .submit(0, frames[0][4].clone())
        .expect("re-homed elsewhere");
    let _ = h.wait();
    let new_home = fleet.home_of(0).expect("stream 0 re-homed");
    assert_ne!(new_home, victim);
    assert!(
        fleet.node_recent_events(new_home).iter().any(|e| matches!(
            e,
            ts_serve::ObsEvent::Migration { stream: 0, kind, .. } if kind == "re_home"
        )),
        "the gaining node's recorder must log the re-home"
    );
    assert!(
        fleet.health()[victim].is_none(),
        "dead nodes report no health"
    );

    let report = fleet.shutdown();
    // Quiet traffic, no alert edges — but the field is wired through.
    assert_eq!(
        report.alerts,
        report
            .nodes
            .iter()
            .flat_map(|n| n.alerts.clone())
            .collect::<Vec<_>>()
    );
    let json = report.to_json().expect("serializes");
    assert_eq!(
        ts_fleet::FleetReport::from_json(&json).expect("parses"),
        report
    );
}

#[test]
fn killing_every_node_yields_typed_no_capacity() {
    let network = net();
    let weights = network.init_weights(2);
    let specs = heterogeneous_specs(2, Precision::Fp16, &network, &serve_cfg());
    let mut fleet = Fleet::boot(network, weights, specs, RouterConfig::default());
    let frames = frame_bank(1, 2, 0.15, 3);

    let h = fleet.submit(0, frames[0][0].clone()).expect("routes");
    let _ = h.wait();
    fleet.kill_node(0).expect("kill 0");
    fleet.kill_node(1).expect("kill 1");
    assert_eq!(fleet.alive(), 0);
    match fleet.submit(0, frames[0][1].clone()) {
        Err(FleetError::NoCapacity) => {}
        other => panic!("expected NoCapacity, got {other:?}"),
    }
    // Double-kill is a typed error, not a panic.
    assert!(matches!(fleet.kill_node(0), Err(FleetError::NoCapacity)));
    assert!(matches!(
        fleet.kill_node(9),
        Err(FleetError::UnknownNode { id: 9, nodes: 2 })
    ));
    let report = fleet.shutdown();
    assert_eq!(report.rejected_no_capacity, 1);
    assert_eq!(report.node_deaths, 2);
}

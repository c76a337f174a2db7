//! Protocol-level tests of the distributed partition-server chase:
//! owner-only routing of boundary-crossing (and unbounded) facts, the
//! digest audit between coordinator and servers, delta-only `ApplyDelta`
//! shipping, clean teardown across transports, and end-to-end behavior on
//! workloads rich in unbounded intervals.

use tdx::core::chase::cluster::{image_digest, snapshot_consistent};
use tdx::core::{hom_equivalent, semantics, DistributedCluster, StoreKind, TransportKind};
use tdx::storage::TemporalFact;
use tdx::temporal::{Breakpoints, TimelinePartition};
use tdx::workload::{paper_mapping, EmploymentConfig, EmploymentWorkload};
use tdx::{c_chase_with, ChaseOptions, Interval, Value};

fn iv(s: u64, e: u64) -> Interval {
    Interval::new(s, e)
}

fn fact(vals: &[&str], interval: Interval) -> TemporalFact {
    TemporalFact {
        data: vals.iter().map(|v| Value::str(v)).collect(),
        interval,
    }
}

/// One fact local to range 0, one crossing from range 1 into range 2, and
/// one unbounded fact starting in range 2 of a partition cut at 10/20/30.
fn boundary_facts() -> (TemporalFact, TemporalFact, TemporalFact) {
    let unbounded = fact(&["Cyd", "IBM"], Interval::from(25));
    assert!(unbounded.interval.is_unbounded());
    (
        fact(&["Ada", "IBM"], iv(0, 5)),
        fact(&["Bob", "IBM"], iv(15, 25)),
        unbounded,
    )
}

#[test]
fn owner_only_shipping_sends_each_fact_once() {
    // Partition at 10/20/30 over three servers: blocks {0,1}, {2}, {3}.
    // Each fact travels to the owner of its start range only, so a full
    // ship of three facts ships three — the crossing and the unbounded
    // fact are not copied to the servers whose ranges they reach.
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    let mut cluster = DistributedCluster::spawn(&mapping, &tp, 3).unwrap();
    let (local, crossing, unbounded) = boundary_facts();
    let pre = vec![vec![local, crossing, unbounded], Vec::new()];
    cluster
        .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(), Vec::new()])
        .unwrap();
    assert_eq!(cluster.traffic().apply_delta_facts, 3);
    // A delta-only load whose single fact spans every block ships once.
    let spanning = fact(&["Eve", "IBM"], Interval::from(0));
    let mut cluster = DistributedCluster::spawn(&mapping, &tp, 3).unwrap();
    let delta = vec![vec![spanning.clone()], Vec::new()];
    cluster
        .apply_delta(StoreKind::Source, &vec![Vec::new(), Vec::new()], &delta)
        .unwrap();
    assert_eq!(cluster.traffic().apply_delta_facts, 1);
    let empty = image_digest(&vec![Vec::new(), Vec::new()]);
    assert_eq!(
        cluster.image_digests(StoreKind::Source).unwrap(),
        vec![
            image_digest(&vec![vec![spanning], Vec::new()]),
            empty,
            empty
        ]
    );
}

#[test]
fn digest_audit_accepts_owner_routed_lists_and_rejects_divergence() {
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let mut cluster = DistributedCluster::spawn_on(&mapping, &tp, 3, transport).unwrap();
        let (local, crossing, unbounded) = boundary_facts();
        let pre = vec![
            vec![local.clone(), crossing.clone(), unbounded.clone()],
            Vec::new(),
        ];
        cluster
            .apply_delta(StoreKind::Source, &pre, &vec![Vec::new(), Vec::new()])
            .unwrap();
        // Per-server placement: server 0 owns ranges {0, 1}, server 1
        // range 2, server 2 range 3.
        assert_eq!(
            cluster.image_digests(StoreKind::Source).unwrap(),
            vec![
                image_digest(&vec![vec![local.clone(), crossing.clone()], Vec::new()]),
                image_digest(&vec![vec![unbounded.clone()], Vec::new()]),
                image_digest(&vec![Vec::new(), Vec::new()]),
            ],
            "{transport:?}"
        );
        // The audit accepts the owner-routed lists ...
        assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
        // ... and rejects a diverged coordinator view: other content, a
        // reordered list, or a dropped fact.
        let wrong = vec![vec![fact(&["Eve", "ACME"], iv(1, 2))], Vec::new()];
        assert!(!snapshot_consistent(&mut cluster, StoreKind::Source, &wrong).unwrap());
        let reordered = vec![vec![crossing.clone(), local.clone(), unbounded], Vec::new()];
        assert!(!snapshot_consistent(&mut cluster, StoreKind::Source, &reordered).unwrap());
        let dropped = vec![vec![local, crossing], Vec::new()];
        assert!(!snapshot_consistent(&mut cluster, StoreKind::Source, &dropped).unwrap());
    }
}

#[test]
fn unbounded_heavy_workload_is_deterministic_and_equivalent() {
    // The employment workload keeps open-ended (unbounded) employments and
    // salaries; under re-chasing at several cluster sizes the distributed
    // engine must stay byte-identical to itself and hom-equivalent to the
    // sequential engine.
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 30,
        horizon: 24,
        salary_coverage: 0.8,
        seed: 7,
        ..EmploymentConfig::default()
    });
    let unbounded_sources = w
        .source
        .iter_all()
        .filter(|(_, f)| f.interval.is_unbounded())
        .count();
    assert!(
        unbounded_sources > 0,
        "workload must exercise unbounded intervals"
    );
    let seq = c_chase_with(&w.source, &w.mapping, &ChaseOptions::default()).unwrap();
    let one = c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(1)).unwrap();
    assert!(hom_equivalent(
        &semantics(&seq.target),
        &semantics(&one.target)
    ));
    for servers in [2usize, 4] {
        let many =
            c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(servers)).unwrap();
        assert_eq!(one.target, many.target, "servers = {servers}");
    }
}

#[test]
fn tcp_cluster_speaks_the_same_protocol_as_channel() {
    // The full protocol round-trip — handshake, delta shipping, digest
    // audit — over real TCP (child processes when the tdx binary is
    // around, which it is for integration tests).
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    let mut cluster = DistributedCluster::spawn_on(&mapping, &tp, 3, TransportKind::Tcp).unwrap();
    assert_eq!(cluster.transport(), TransportKind::Tcp);
    cluster.heartbeat().unwrap();
    let crossing = fact(&["Bob", "IBM"], iv(15, 25));
    let pre = vec![vec![crossing.clone()], Vec::new()];
    let delta = vec![Vec::new(), Vec::new()];
    cluster
        .apply_delta(StoreKind::Source, &pre, &delta)
        .unwrap();
    assert!(snapshot_consistent(&mut cluster, StoreKind::Source, &pre).unwrap());
    // The crossing fact lives on its start owner (server 0) only.
    assert_eq!(cluster.traffic().apply_delta_facts, 1);
    let empty = image_digest(&delta);
    assert_eq!(
        cluster.image_digests(StoreKind::Source).unwrap(),
        vec![image_digest(&pre), empty, empty]
    );
}

/// Steady-state `ApplyDelta` traffic of an incremental distributed session
/// must be proportional to the batch, not the store: on employment/100
/// with a 5% batch the batch's shipped bytes are >5× under the full
/// re-ship the PR 4 protocol performed every round (= what the session's
/// base ship still costs).
#[test]
fn incremental_batch_traffic_is_proportional_to_the_batch() {
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 1,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(1))
            .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    let base = session
        .cluster_traffic()
        .expect("distributed session has a cluster");
    // The base batch ships the whole store: pre is empty, everything is
    // fresh — this is exactly the PR 4 full-list re-ship cost for this
    // store size.
    assert!(base.apply_delta_bytes > 0);
    assert_eq!(base.respawns, 0);
    session
        .apply(&DeltaBatch::from_instance(&stream.batches[0]))
        .unwrap();
    let after = session.cluster_traffic().unwrap();
    let batch_bytes = after.apply_delta_bytes - base.apply_delta_bytes;
    let batch_facts = after.apply_delta_facts - base.apply_delta_facts;
    assert!(batch_bytes > 0, "the batch must ship something");
    assert!(
        batch_bytes * 5 < base.apply_delta_bytes,
        "5% batch shipped {batch_bytes} bytes — not >5x under the full re-ship \
         ({} bytes); facts shipped: {batch_facts} vs {}",
        base.apply_delta_bytes,
        base.apply_delta_facts,
    );
    // The session still lands on the right answer. The recursive
    // homomorphism search needs more than a default 2 MiB test-thread
    // stack at this instance size, so the check runs on its own thread.
    let union = stream.union();
    let mapping = stream.mapping.clone();
    let incremental = session.target();
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let scratch = c_chase_with(&union, &mapping, &ChaseOptions::default()).unwrap();
            assert!(hom_equivalent(
                &semantics(&scratch.target),
                &semantics(&incremental)
            ));
        })
        .unwrap()
        .join()
        .unwrap();
}

/// The fused v2 frames collapse a steady-state incremental batch to one
/// round trip per server per round. The v1 protocol paid a per-batch
/// heartbeat plus separate `ApplyDelta` and enumeration barriers — at
/// minimum 5 round trips per batch (heartbeat, ship+tgd, ship+egd) — where
/// the fused protocol pays `1 + egd_rounds`. Locks in the ≥2× round-trip
/// reduction of the pipelined design.
#[test]
fn fused_rounds_halve_round_trips_for_an_incremental_batch() {
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 100,
            horizon: 30,
            seed: 42,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 1,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(1))
            .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    let base = session.cluster_traffic().unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.batches[0]))
        .unwrap();
    let after = session.cluster_traffic().unwrap();
    let batch_rts = after.round_trips - base.round_trips;
    assert!(
        batch_rts >= 2,
        "a batch runs at least the fused tgd and one fused egd barrier, got {batch_rts}"
    );
    // Each fused barrier replaces a v1 ApplyDelta + enumeration pair, and
    // the v1 protocol heartbeat-ed once per batch on top: same rounds, v1
    // cost = 1 + 2 * batch_rts.
    let v1_rts = 1 + 2 * batch_rts;
    assert!(
        2 * batch_rts <= v1_rts,
        "fused batch cost {batch_rts} round trips; v1 would have paid {v1_rts}"
    );
    // And in absolute terms the steady state stays flat: one fused tgd
    // round plus the egd fixpoint (its final empty round included) — well
    // under the v1 floor of 5.
    assert!(
        batch_rts <= 3,
        "steady-state 5% batch cost {batch_rts} round trips — the fused protocol should pay 1 + egd_rounds"
    );
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Spawning and dropping clusters must not leak server threads or
/// processes: drop sends `Shutdown`, joins the threads and reaps the
/// children. Regression test for the teardown path on both transports.
#[cfg(target_os = "linux")]
#[test]
fn repeated_spawn_drop_does_not_grow_the_thread_count() {
    let mapping = paper_mapping();
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20, 30]));
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        // Warm up once (lazy runtime allocations), then measure.
        drop(DistributedCluster::spawn_on(&mapping, &tp, 3, transport).unwrap());
        let before = thread_count();
        for _ in 0..10 {
            let mut cluster = DistributedCluster::spawn_on(&mapping, &tp, 3, transport).unwrap();
            cluster.heartbeat().unwrap();
        }
        let after = thread_count();
        // A leaking teardown would grow by 3 threads per cycle (30 here);
        // the slack of 4 absorbs unrelated test-harness threads coming and
        // going in parallel.
        assert!(
            after <= before + 4,
            "{transport:?}: thread count grew from {before} to {after} over 10 spawn/drop cycles"
        );
    }
}

//! Engine equivalence: the production c-chase — a one-batch incremental
//! session, run partitioned (at 1, 2 and 4 workers) and distributed (over
//! channels and TCP) — must produce the same solutions as the `LegacyScan`
//! oracle (Definition 16 run plainly) on the whole scenario suite — same
//! facts, nulls up to renaming, same certain answers — and must fail on
//! exactly the same inputs.

use tdx::core::TransportKind;
use tdx::core::{certain_answers_concrete, hom_equivalent, is_solution_concrete, semantics};
use tdx::workload::{
    clustered_instance, figure4_source, nested_mapping, paper_mapping, ClusteredConfig,
    EmploymentConfig, EmploymentWorkload, RandomConfig, RandomWorkload,
};
use tdx::{
    c_chase_with, parse_mapping, parse_query, ChaseOptions, Interval, SchemaMapping, TdxError,
    TemporalInstance, UnionQuery,
};

fn scan() -> ChaseOptions {
    ChaseOptions::legacy_scan()
}

/// Every engine configuration under triangulation, the `scan` oracle
/// first. The partitioned engine runs at three worker counts — its task
/// decomposition is thread-count independent, but the scopes and merges
/// must stay correct under real concurrency too — plus once with
/// `threads = 0` (the default options), which resolves through the
/// `TDX_CHASE_THREADS` environment variable: that is the configuration
/// CI's thread matrix actually varies. The distributed partition-server
/// engine joins the same way: explicit 1- and 3-server clusters plus
/// `servers = 0`, which resolves through `TDX_CHASE_SERVERS` — the knob
/// CI's server matrix varies — and whose transport resolves through
/// `TDX_CHASE_TRANSPORT`, the knob CI's transport matrix varies. One
/// explicit TCP configuration keeps the out-of-process carrier in every
/// triangulation even when the environment selects channels.
fn all_engines() -> Vec<(&'static str, ChaseOptions)> {
    vec![
        ("scan", scan()),
        ("partitioned/1", ChaseOptions::partitioned_parallel(1)),
        ("partitioned/2", ChaseOptions::partitioned_parallel(2)),
        ("partitioned/4", ChaseOptions::partitioned_parallel(4)),
        ("partitioned/env", ChaseOptions::partitioned_parallel(0)),
        ("distributed/1", ChaseOptions::distributed(1)),
        ("distributed/3", ChaseOptions::distributed(3)),
        (
            "distributed/tcp/2",
            ChaseOptions::distributed(2).on_transport(TransportKind::Tcp),
        ),
        ("distributed/env", ChaseOptions::distributed(0)),
    ]
}

/// A mapping whose main tgd body joins three atoms, plus an existential
/// tgd and an egd on the head relation — the one scenario that reaches the
/// pivot-bounded matcher of Algorithm-1 discovery (every other fixture
/// body has at most two atoms). Per person, employments and salaries never
/// overlap, nor do a company's locations, so the egd never fails.
fn wide_body_workload() -> (SchemaMapping, TemporalInstance) {
    let mapping = parse_mapping(
        "source { Emp(name, company). Loc(company, city). Sal(name, salary). }\n\
         target { Info(name, city, salary). }\n\
         tgd Emp(n,c) & Loc(c,city) & Sal(n,s) -> Info(n,city,s)\n\
         tgd Emp(n,c) & Loc(c,city) -> exists s . Info(n,city,s)\n\
         egd Info(n,city,s) & Info(n,city,s2) -> s = s2",
    )
    .unwrap();
    let mut source = TemporalInstance::new(std::sync::Arc::new(mapping.source().clone()));
    for k in 0..4u64 {
        let company = format!("c{k}");
        source.insert_strs("Loc", &[&company, "Oslo"], Interval::new(k, 10 + k));
        source.insert_strs("Loc", &[&company, "Rome"], Interval::new(10 + k, 25 + k));
    }
    for i in 0..10u64 {
        let (name, first, second) = (
            format!("p{i}"),
            format!("c{}", i % 4),
            format!("c{}", (i + 1) % 4),
        );
        source.insert_strs("Emp", &[&name, &first], Interval::new(i, i + 12));
        source.insert_strs("Emp", &[&name, &second], Interval::new(i + 12, i + 20));
        source.insert_strs(
            "Sal",
            &[&name, &format!("{i}a")],
            Interval::new(i + 2, i + 9),
        );
        source.insert_strs(
            "Sal",
            &[&name, &format!("{i}b")],
            Interval::new(i + 9, i + 18),
        );
    }
    (mapping, source)
}

/// Runs every engine and checks that all solutions represent the same
/// abstract instance as the scan oracle's up to null renaming and all
/// verify as solutions — or that every engine fails. The session
/// enumerates matches in a different order than the oracle, and the
/// *restricted* chase may then pre-empt a different subset of redundant
/// steps — the universal solution is the same up to homomorphic
/// equivalence, with possibly fewer leftover nulls.
fn assert_engines_agree(label: &str, mapping: &SchemaMapping, source: &TemporalInstance) {
    let reference = c_chase_with(source, mapping, &scan());
    for (name, opts) in all_engines().iter().skip(1) {
        let result = c_chase_with(source, mapping, opts);
        match (&reference, &result) {
            (Ok(a), Ok(b)) => {
                assert!(
                    hom_equivalent(&semantics(&a.target), &semantics(&b.target)),
                    "{label}: {name} solution differs from scan"
                );
                assert!(
                    is_solution_concrete(source, &b.target, mapping).unwrap(),
                    "{label}: {name} result is not a solution"
                );
            }
            (Err(TdxError::ChaseFailure { .. }), Err(TdxError::ChaseFailure { .. })) => {}
            (a, b) => panic!(
                "{label}: engines disagree: scan {:?}, {name} {:?}",
                a.as_ref().map(|r| r.target.total_len()),
                b.as_ref().map(|r| r.target.total_len())
            ),
        }
    }
    if let Ok(a) = &reference {
        assert!(
            is_solution_concrete(source, &a.target, mapping).unwrap(),
            "{label}: scan result is not a solution"
        );
    }
}

/// Certain answers must be byte-identical across engines (they contain no
/// nulls, so no renaming slack is allowed).
fn assert_same_certain_answers(
    label: &str,
    mapping: &SchemaMapping,
    source: &TemporalInstance,
    queries: &[&str],
) {
    for q_text in queries {
        let q: UnionQuery = parse_query(q_text).unwrap().into();
        let reference = certain_answers_concrete(source, mapping, &q, &scan()).unwrap();
        for (name, opts) in all_engines().iter().skip(1) {
            let ans = certain_answers_concrete(source, mapping, &q, opts).unwrap();
            assert_eq!(
                reference.epochs(),
                ans.epochs(),
                "{label}: certain answers differ for {q_text} on {name}"
            );
        }
    }
}

#[test]
fn paper_example_agrees() {
    let mapping = paper_mapping();
    let source = figure4_source(&mapping);
    assert_engines_agree("figure4", &mapping, &source);
    assert_same_certain_answers(
        "figure4",
        &mapping,
        &source,
        &[
            "Q(n, s) :- Emp(n, c, s)",
            "Q(n) :- Emp(n, c, s)",
            "Q(m) :- Emp(Ada, c, s) & Emp(m, c, s2)",
        ],
    );
}

#[test]
fn employment_workloads_agree() {
    for (persons, coverage, seed) in [(10usize, 1.0, 1u64), (25, 0.6, 2), (40, 0.8, 3)] {
        let w = EmploymentWorkload::generate(&EmploymentConfig {
            persons,
            horizon: 30,
            salary_coverage: coverage,
            seed,
            ..EmploymentConfig::default()
        });
        let label = format!("employment/p{persons}s{seed}");
        assert_engines_agree(&label, &w.mapping, &w.source);
        assert_same_certain_answers(
            &label,
            &w.mapping,
            &w.source,
            &["Q(n, s) :- Emp(n, c, s)", "Q(n, c) :- Emp(n, c, s)"],
        );
    }
}

#[test]
fn conflicting_employment_fails_on_all_engines() {
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 12,
        horizon: 24,
        conflicts: 3,
        seed: 5,
        ..EmploymentConfig::default()
    });
    assert_engines_agree("employment/conflicts", &w.mapping, &w.source);
}

#[test]
fn chase_failures_are_identical_on_local_and_distributed_engines() {
    // Two egds that each equate two constants, in different timeline
    // partitions: `fd` late, `bfd` early. The local egd phase folds its
    // merge ops egd by egd, so it meets `fd`'s conflict first; the
    // coordinator must fold the servers' per-partition ops in the same
    // (egd, interval) order and report the very same failure.
    let mapping = parse_mapping(
        "source { E(name, company). S(name, salary). B(name, bonus). }\n\
         target { Emp(name, company, salary). Bon(name, bonus). }\n\
         tgd E(n,c) & S(n,s) -> Emp(n,c,s)\n\
         tgd B(n,b) -> Bon(n,b)\n\
         egd fd: Emp(n,c,s) & Emp(n,c,s2) -> s = s2\n\
         egd bfd: Bon(n,b) & Bon(n,b2) -> b = b2",
    )
    .unwrap();
    let mut source = TemporalInstance::new(std::sync::Arc::new(mapping.source().clone()));
    source.insert_strs("E", &["Ada", "IBM"], Interval::new(80, 90));
    source.insert_strs("S", &["Ada", "18k"], Interval::new(80, 90));
    source.insert_strs("S", &["Ada", "20k"], Interval::new(80, 90));
    source.insert_strs("B", &["Bob", "1k"], Interval::new(5, 10));
    source.insert_strs("B", &["Bob", "2k"], Interval::new(5, 10));
    for (i, start) in [0u64, 20, 40, 60].into_iter().enumerate() {
        let name = format!("p{i}");
        source.insert_strs("B", &[&name, "3k"], Interval::new(start, start + 7));
    }
    let local = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap_err();
    assert!(
        matches!(&local, TdxError::ChaseFailure { dependency, .. } if dependency == "fd"),
        "{local:?}"
    );
    for servers in [1usize, 2, 3] {
        let dist =
            c_chase_with(&source, &mapping, &ChaseOptions::distributed(servers)).unwrap_err();
        assert_eq!(
            format!("{local:?}"),
            format!("{dist:?}"),
            "servers = {servers}"
        );
    }
}

#[test]
fn adversarial_nested_agrees() {
    for n in [6usize, 12, 20] {
        let (mapping, source) = nested_mapping(n);
        assert_engines_agree(&format!("nested/{n}"), &mapping, &source);
    }
}

#[test]
fn wide_body_mapping_agrees() {
    let (mapping, source) = wide_body_workload();
    assert_engines_agree("wide", &mapping, &source);
    assert_same_certain_answers(
        "wide",
        &mapping,
        &source,
        &[
            "Q(n, city, s) :- Info(n, city, s)",
            "Q(n) :- Info(n, city, s)",
        ],
    );
    // Absorbed in batches, discovery pivots on the fresh facts of each
    // batch against the settled ones of the earlier batches.
    use tdx::workload::{split_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = split_stream(
        mapping.clone(),
        &source,
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.2,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session = IncrementalExchange::new(mapping.clone()).unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    for batch in &stream.batches {
        session.apply(&DeltaBatch::from_instance(batch)).unwrap();
    }
    let oracle = c_chase_with(&source, &mapping, &scan()).unwrap();
    assert!(hom_equivalent(
        &semantics(&oracle.target),
        &semantics(&session.target())
    ));
    assert!(is_solution_concrete(&source, &session.target(), &mapping).unwrap());
}

#[test]
fn sparse_clustered_normalization_agrees() {
    use tdx::core::normalize::{normalize, normalize_with};
    use tdx::storage::SearchOptions;
    // The clustered workload exercises Algorithm 1's overlap-group
    // discovery — exactly the path the interval-endpoint index accelerates.
    for clusters in [4usize, 10] {
        let (instance, conj) = clustered_instance(&ClusteredConfig {
            clusters,
            ..ClusteredConfig::default()
        });
        let refs = [conj.as_slice()];
        let fast = normalize(&instance, &refs).unwrap();
        let slow = normalize_with(&instance, &refs, SearchOptions { use_indexes: false }).unwrap();
        assert_eq!(fast, slow, "clusters = {clusters}");
    }
}

#[test]
fn random_workloads_agree() {
    for seed in 0..10u64 {
        let w = RandomWorkload::generate(&RandomConfig {
            seed,
            facts: 20,
            horizon: 16,
            ..RandomConfig::default()
        });
        assert_engines_agree(&format!("random/{seed}"), &w.mapping, &w.source);
    }
}

#[test]
fn one_shot_chase_is_a_one_batch_session() {
    // The production c-chase *is* the incremental engine: the default
    // engine's result is byte-identical to a fresh session that absorbs
    // the same source as its only batch.
    use tdx::{DeltaBatch, IncrementalExchange};
    let employment = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 25,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 4,
        ..EmploymentConfig::default()
    });
    let mut cases = vec![(
        "employment".to_string(),
        employment.mapping,
        employment.source,
    )];
    for n in [12usize, 20] {
        let (mapping, source) = nested_mapping(n);
        cases.push((format!("nested/{n}"), mapping, source));
    }
    for (label, mapping, source) in cases {
        let one_shot = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap();
        let mut session = IncrementalExchange::new(mapping.clone()).unwrap();
        let batch = session.apply(&DeltaBatch::from_instance(&source)).unwrap();
        assert_eq!(one_shot.target, session.target(), "{label}: targets differ");
        assert_eq!(one_shot.stats.tgd_steps, batch.tgd_steps, "{label}");
        assert_eq!(one_shot.stats.egd_merges, batch.egd_merges, "{label}");
        assert_eq!(
            one_shot.stats.nulls_created,
            session.stats().nulls_created,
            "{label}"
        );
    }
}

#[test]
fn partitioned_engine_is_thread_count_deterministic() {
    // Beyond hom-equivalence: the partitioned engine's task decomposition
    // does not depend on the worker count, so its output must be
    // byte-identical at 1, 2 and 4 threads.
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let one = c_chase_with(
        &w.source,
        &w.mapping,
        &ChaseOptions::partitioned_parallel(1),
    )
    .unwrap();
    for threads in [2usize, 4] {
        let many = c_chase_with(
            &w.source,
            &w.mapping,
            &ChaseOptions::partitioned_parallel(threads),
        )
        .unwrap();
        assert_eq!(one.target, many.target, "threads = {threads}");
        assert_eq!(one.stats.tgd_steps, many.stats.tgd_steps);
    }
}

/// The inputs of the local/distributed byte-identity checks: employment,
/// a boundary-dense employment shape (long tenures, many open-ended jobs:
/// most facts cross partition boundaries or run to the tail), two
/// adversarial nested-interval sources and the 3-atom-body mapping. Both
/// employment shapes leave salary gaps: with full coverage every null is
/// merged into a constant, and the target no longer shows the order the
/// tgd steps ran in.
fn byte_identity_cases() -> Vec<(String, SchemaMapping, TemporalInstance)> {
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let boundary = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 40,
        avg_tenure: 18,
        p_unbounded: 0.4,
        conflicts: 0,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let mut cases = vec![
        ("employment".to_string(), w.mapping, w.source),
        ("boundary".to_string(), boundary.mapping, boundary.source),
    ];
    for n in [12usize, 20] {
        let (mapping, source) = nested_mapping(n);
        cases.push((format!("nested/{n}"), mapping, source));
    }
    let (mapping, source) = wide_body_workload();
    cases.push(("wide".to_string(), mapping, source));
    cases
}

#[test]
fn distributed_engine_is_server_count_deterministic() {
    // Like the thread-count determinism of the partitioned engine: servers
    // run the session's own join kernel on the intervals they own, and the
    // coordinator restores the session's hom and merge order, so the output
    // must be byte-identical to the local engine for every cluster size.
    for (label, mapping, source) in byte_identity_cases() {
        let local = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap();
        for servers in [1usize, 2, 3, 5] {
            let many =
                c_chase_with(&source, &mapping, &ChaseOptions::distributed(servers)).unwrap();
            assert_eq!(local.target, many.target, "{label}: servers = {servers}");
            assert_eq!(local.stats.tgd_steps, many.stats.tgd_steps, "{label}");
            assert_eq!(local.stats.egd_merges, many.stats.egd_merges, "{label}");
        }
    }
}

#[test]
fn distributed_engine_is_byte_identical_across_transports_and_server_counts() {
    // The acceptance bar of the transport layer: `{channel, tcp} × {1, 3}`
    // servers all produce the local engine's targets and stats byte for
    // byte. The transport carries frames and the server count only
    // relocates partitions, so neither may influence the result.
    for (label, mapping, source) in byte_identity_cases() {
        let reference = c_chase_with(&source, &mapping, &ChaseOptions::default()).unwrap();
        for transport in [TransportKind::Channel, TransportKind::Tcp] {
            for servers in [1usize, 3] {
                let run = c_chase_with(
                    &source,
                    &mapping,
                    &ChaseOptions::distributed(servers).on_transport(transport),
                )
                .unwrap();
                assert_eq!(
                    reference.target, run.target,
                    "{label}: {transport:?} x {servers} servers diverged"
                );
                assert_eq!(reference.stats.tgd_steps, run.stats.tgd_steps, "{label}");
                assert_eq!(reference.stats.egd_merges, run.stats.egd_merges, "{label}");
            }
        }
    }
}

#[test]
fn distributed_engine_survives_faults_at_every_fused_frame_offset() {
    // The crash matrix over the fused protocol: kill server 1 of 3 (a
    // write breaking off mid-frame) at *every* frame offset it ever
    // reaches. Past the handshake every
    // frame is a fused round, so each offset is a death mid-fused-round;
    // the retry path must respawn the server, replay its retained-image
    // watermark (the pre-frame image — fused exchanges update the shipped
    // cache only after the barrier succeeds) and re-answer the identical
    // frame, landing byte-identical to the unfaulted run every time.
    use std::sync::Arc;
    use tdx::core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, ChaosSpawner, FaultKind, FaultPlan,
        TransportSpawner,
    };
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let clean = c_chase_with(&w.source, &w.mapping, &ChaseOptions::distributed(3)).unwrap();
    let mut kill_after = 0usize;
    loop {
        let spawner = Arc::new(ChaosSpawner::new(
            Arc::new(ChannelSpawner),
            &FaultPlan::single(1, kill_after, FaultKind::PartialWrite),
        ));
        let faulted = c_chase_distributed_with(
            &w.source,
            &w.mapping,
            &ChaseOptions::distributed(3),
            3,
            Arc::clone(&spawner) as Arc<dyn TransportSpawner>,
        )
        .unwrap_or_else(|e| panic!("kill_after {kill_after}: chase failed: {e:?}"));
        assert_eq!(
            clean.target, faulted.target,
            "kill_after {kill_after}: retry path diverged"
        );
        assert_eq!(clean.stats.tgd_steps, faulted.stats.tgd_steps);
        assert_eq!(clean.stats.egd_merges, faulted.stats.egd_merges);
        if spawner.fired() == 0 {
            break; // offset is past the last frame the victim ever sees
        }
        kill_after += 1;
        assert!(kill_after < 128, "fault matrix did not converge");
    }
    assert!(
        kill_after >= 3,
        "matrix stopped at offset {kill_after} — it must reach past the \
         handshake into the fused rounds"
    );
}

#[test]
fn distributed_incremental_session_agrees_with_every_engine() {
    // The acceptance bar of the distributed engine: driven through
    // IncrementalExchange batches (cluster respawned across
    // re-coarsenings), it must land on the same solution as every batch
    // engine. `servers = 0` resolves through TDX_CHASE_SERVERS — the knob
    // CI's server matrix varies.
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 20,
            horizon: 30,
            salary_coverage: 0.7,
            seed: 11,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 3,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::distributed(0))
            .unwrap();
    // A local session in lockstep: both run the one join kernel and fold
    // merges in one order, so their targets match byte for byte after
    // every batch.
    let mut local =
        IncrementalExchange::with_options(stream.mapping.clone(), ChaseOptions::default()).unwrap();
    for (i, batch) in std::iter::once(&stream.base)
        .chain(&stream.batches)
        .enumerate()
    {
        let batch = DeltaBatch::from_instance(batch);
        session.apply(&batch).unwrap();
        local.apply(&batch).unwrap();
        assert_eq!(
            session.target(),
            local.target(),
            "batch {i}: distributed session diverged from the local one"
        );
    }
    let union = stream.union();
    let incremental = session.target();
    assert!(
        is_solution_concrete(&union, &incremental, &stream.mapping).unwrap(),
        "distributed incremental result is not a solution"
    );
    for (name, opts) in all_engines() {
        let scratch = c_chase_with(&union, &stream.mapping, &opts).unwrap();
        assert!(
            hom_equivalent(&semantics(&scratch.target), &semantics(&incremental)),
            "distributed incremental session disagrees with {name}"
        );
    }
}

#[test]
fn incremental_session_agrees_with_every_engine() {
    // The incremental path joins the triangulation: replaying the source
    // in batches through an `IncrementalExchange` (whose worker count
    // resolves through the same TDX_CHASE_THREADS knob CI's matrix varies)
    // must land on the same solution as every batch engine.
    use tdx::workload::{employment_stream, BatchOrder, StreamConfig};
    use tdx::{DeltaBatch, IncrementalExchange};
    let stream = employment_stream(
        &EmploymentConfig {
            persons: 25,
            horizon: 30,
            salary_coverage: 0.7,
            seed: 4,
            ..EmploymentConfig::default()
        },
        &StreamConfig {
            batches: 4,
            batch_fraction: 0.05,
            order: BatchOrder::Uniform,
            ..StreamConfig::default()
        },
    );
    let mut session = IncrementalExchange::with_options(
        stream.mapping.clone(),
        ChaseOptions::partitioned_parallel(0), // resolves via TDX_CHASE_THREADS
    )
    .unwrap();
    session
        .apply(&DeltaBatch::from_instance(&stream.base))
        .unwrap();
    for batch in &stream.batches {
        session.apply(&DeltaBatch::from_instance(batch)).unwrap();
    }
    let union = stream.union();
    let incremental = session.target();
    assert!(
        is_solution_concrete(&union, &incremental, &stream.mapping).unwrap(),
        "incremental result is not a solution"
    );
    for (name, opts) in all_engines() {
        let scratch = c_chase_with(&union, &stream.mapping, &opts).unwrap();
        assert!(
            hom_equivalent(&semantics(&scratch.target), &semantics(&incremental)),
            "incremental session disagrees with {name}"
        );
    }
}

#[test]
fn semi_naive_deltas_change_nothing_across_chase_options() {
    // Cross the engine flag with the other chase options on the paper
    // example: every combination must produce the same certain answers.
    let mapping = paper_mapping();
    let source = figure4_source(&mapping);
    let q: UnionQuery = parse_query("Q(n, s) :- Emp(n, c, s)").unwrap().into();
    let reference = certain_answers_concrete(&source, &mapping, &q, &scan())
        .unwrap()
        .epochs();
    for engine_opts in [
        scan(),
        ChaseOptions::default(),
        ChaseOptions::partitioned_parallel(2),
    ] {
        for (renorm, naive) in [(true, false), (false, false), (true, true)] {
            let opts = ChaseOptions {
                renormalize_between_egd_rounds: renorm,
                naive_normalization: naive,
                ..engine_opts.clone()
            };
            let ans = certain_answers_concrete(&source, &mapping, &q, &opts)
                .unwrap()
                .epochs();
            assert_eq!(ans, reference, "options {opts:?}");
        }
    }
}

#[test]
fn chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog() {
    // The fail-slow matrix: inject each recoverable chaos fault into
    // server 1 of 3 at *every* frame offset its carrier ever reaches. With
    // a per-frame deadline armed, every fault — a delay straddling the
    // deadline, an outright hang, a silently dropped frame, an undecodable
    // response, a write torn mid-frame — must surface as a transport fault,
    // ride the respawn path and land byte-identical to the unfaulted run.
    // Each run executes under a watchdog: a chase that neither completes
    // nor errors is a wedged coordinator, the regression this test pins.
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use tdx::core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, ChaosSpawner, FaultKind, FaultPlan,
        TransportSpawner,
    };
    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let opts = ChaseOptions::distributed(3).with_frame_deadline(Duration::from_millis(250));
    let clean = c_chase_with(&w.source, &w.mapping, &opts).unwrap();
    for kind in [
        FaultKind::Delay(40),
        FaultKind::Hang,
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::PartialWrite,
    ] {
        let mut offset = 0usize;
        loop {
            let spawner = Arc::new(ChaosSpawner::new(
                Arc::new(ChannelSpawner),
                &FaultPlan::single(1, offset, kind),
            ));
            let (tx, rx) = mpsc::channel();
            {
                let (source, mapping, opts) = (w.source.clone(), w.mapping.clone(), opts.clone());
                let spawner = Arc::clone(&spawner);
                std::thread::spawn(move || {
                    let out = c_chase_distributed_with(
                        &source,
                        &mapping,
                        &opts,
                        3,
                        spawner as Arc<dyn TransportSpawner>,
                    );
                    let _ = tx.send(out);
                });
            }
            let faulted = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{kind:?} at offset {offset}: coordinator wedged"))
                .unwrap_or_else(|e| panic!("{kind:?} at offset {offset}: chase failed: {e:?}"));
            assert_eq!(
                clean.target, faulted.target,
                "{kind:?} at offset {offset}: recovery diverged"
            );
            if spawner.fired() == 0 {
                break; // offset is past the last frame the victim ever sends
            }
            offset += 1;
            assert!(offset < 128, "{kind:?}: fault matrix did not converge");
        }
        assert!(
            offset >= 3,
            "{kind:?}: matrix stopped at offset {offset} — it must reach past \
             the handshake into the fused rounds"
        );
    }
}

#[test]
fn incurably_dead_server_degrades_to_local_execution_byte_identically() {
    // Graceful degradation: a server whose transport dies on every frame
    // (and every respawn) exhausts its respawn budget and is quarantined —
    // its blocks run coordinator-local through the shared kernel. The
    // chase must still complete, byte-identical to a healthy cluster, and
    // the spawner's call count must show the bounded retry attempts that
    // preceded the quarantine.
    use std::io;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tdx::core::chase::cluster::{
        c_chase_distributed_with, ChannelSpawner, Transport, TransportKind, TransportSpawner,
    };

    struct StillbornTransport;
    impl Transport for StillbornTransport {
        fn send(&mut self, _frame: &[u8]) -> io::Result<()> {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partition server dead on arrival",
            ))
        }
        fn recv(&mut self) -> io::Result<Vec<u8>> {
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partition server dead on arrival",
            ))
        }
        fn shutdown(&mut self) {}
    }

    /// Healthy channels everywhere except server 1, which never works.
    struct OneDeadSlot {
        inner: ChannelSpawner,
        dead_spawns: AtomicUsize,
    }
    impl TransportSpawner for OneDeadSlot {
        fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
            if server == 1 {
                self.dead_spawns.fetch_add(1, Ordering::SeqCst);
                Ok(Box::new(StillbornTransport))
            } else {
                self.inner.spawn(server)
            }
        }
        fn kind(&self) -> TransportKind {
            self.inner.kind()
        }
    }

    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let opts = ChaseOptions::distributed(3);
    let clean = c_chase_with(&w.source, &w.mapping, &opts).unwrap();
    let spawner = Arc::new(OneDeadSlot {
        inner: ChannelSpawner,
        dead_spawns: AtomicUsize::new(0),
    });
    let degraded = c_chase_distributed_with(
        &w.source,
        &w.mapping,
        &opts,
        3,
        Arc::clone(&spawner) as Arc<dyn TransportSpawner>,
    )
    .expect("a quarantined slot must degrade locally, not fail the chase");
    assert_eq!(
        clean.target, degraded.target,
        "degraded execution diverged from the healthy cluster"
    );
    let spawns = spawner.dead_spawns.load(Ordering::SeqCst);
    assert!(
        spawns > 1,
        "quarantine must come after bounded retries, got {spawns} spawn(s)"
    );
}

#[test]
fn resume_probe_survives_chaos_faults_at_every_frame_offset() {
    // The v3 reconnect handshake under the chaos matrix. A recovering
    // coordinator probes every server with `Message::Resume`; a blank
    // server answers `Response::ResumeState { configured: false, .. }`
    // and must fall back to the ordinary `Hello` handshake — no fault may
    // ever trick the coordinator into adopting a blank server. Inject
    // each recoverable fault into server 1's carrier at every frame
    // offset it reaches (offset 0 *is* the Resume probe) and replay the
    // same script through the recovered cluster — ApplyDelta, a fused tgd
    // round, a fused egd round, the Resume-based digest audit, and the
    // Shutdown the drop broadcasts — under a watchdog. Every run must land
    // byte-identical to the fault-free replay of the same script.
    use std::sync::{mpsc, Arc};
    use std::time::Duration;
    use tdx::core::chase::cluster::protocol::FactLists;
    use tdx::core::chase::cluster::{
        ChannelSpawner, ChaosSpawner, DistributedCluster, FaultKind, FaultPlan, StoreKind,
        TransportSpawner,
    };
    use tdx::temporal::{Breakpoints, TimelinePartition};

    let w = EmploymentWorkload::generate(&EmploymentConfig {
        persons: 20,
        horizon: 30,
        salary_coverage: 0.7,
        seed: 9,
        ..EmploymentConfig::default()
    });
    let tp = TimelinePartition::new(&Breakpoints::from_points([10, 20]));
    let src_rels = w.mapping.source().len();
    let mut delta: FactLists = vec![Vec::new(); src_rels];
    for (rel, fact) in w.source.iter_all() {
        delta[rel.0 as usize].push(fact.clone());
    }

    // Resume-probe a blank 3-server cluster, then replay the script.
    // Returns a rendering of everything observable: the adoption count,
    // the tgd homomorphisms, the egd merges and the per-server image
    // digests of the audit.
    fn replay(
        mapping: &SchemaMapping,
        tp: &TimelinePartition,
        delta: &FactLists,
        spawner: Arc<dyn TransportSpawner>,
    ) -> tdx::core::Result<(usize, String)> {
        let empty_src: FactLists = vec![Vec::new(); mapping.source().len()];
        let empty_tgt: FactLists = vec![Vec::new(); mapping.target().len()];
        let (mut cluster, resumed) = DistributedCluster::resume_with(
            mapping,
            tp,
            3,
            spawner,
            Some(Duration::from_millis(250)),
            [&empty_src, &empty_tgt],
        )?;
        cluster.apply_delta(StoreKind::Source, &empty_src, delta)?;
        let homs = cluster.run_tgd_round_fused(&empty_src, delta, mapping.st_tgds().len())?;
        let merges = cluster.run_egd_round_fused(&empty_tgt, &empty_tgt)?;
        let digests = cluster.image_digests(StoreKind::Source)?;
        Ok((resumed, format!("{homs:?} {merges:?} {digests:?}")))
    }

    let (clean_resumed, clean) = replay(&w.mapping, &tp, &delta, Arc::new(ChannelSpawner)).unwrap();
    assert_eq!(
        clean_resumed, 0,
        "a fault-free probe of blank servers must adopt none"
    );
    for kind in [
        FaultKind::Hang,
        FaultKind::Drop,
        FaultKind::Corrupt,
        FaultKind::PartialWrite,
    ] {
        let mut offset = 0usize;
        loop {
            let spawner = Arc::new(ChaosSpawner::new(
                Arc::new(ChannelSpawner),
                &FaultPlan::single(1, offset, kind),
            ));
            let (tx, rx) = mpsc::channel();
            {
                let (mapping, tp, delta) = (w.mapping.clone(), tp.clone(), delta.clone());
                let spawner = Arc::clone(&spawner);
                std::thread::spawn(move || {
                    let _ = tx.send(replay(&mapping, &tp, &delta, spawner));
                });
            }
            let (resumed, faulted) = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{kind:?} at offset {offset}: coordinator wedged"))
                .unwrap_or_else(|e| panic!("{kind:?} at offset {offset}: replay failed: {e:?}"));
            assert_eq!(
                clean, faulted,
                "{kind:?} at offset {offset}: resume recovery diverged"
            );
            // A fault during the probe may respawn the victim, whose
            // replayed Hello restores exactly the expected (empty) state —
            // the re-probe may then adopt that one server, and only it.
            assert!(
                resumed <= 1,
                "{kind:?} at offset {offset}: {resumed} servers adopted, at most the \
                 respawned victim can be"
            );
            if spawner.fired() == 0 {
                break; // offset is past the last frame the victim ever sends
            }
            offset += 1;
            assert!(
                offset < 64,
                "{kind:?}: resume fault matrix did not converge"
            );
        }
        assert!(
            offset >= 5,
            "{kind:?}: matrix stopped at offset {offset} — it must reach past the \
             Resume probe and Hello fallback into the fused rounds"
        );
    }
}

/// The chaos/fault-offset coverage table: every wire frame of the cluster
/// protocol mapped to the fault sweep that drives it through an injected
/// failure. `tdx-lint --workspace` cross-checks this table against the
/// `Message`/`Response` enums in `protocol.rs`, so adding a frame without
/// routing it through a sweep (and listing it here) fails the lint.
const PROTOCOL_FAULT_MATRIX: &[(&str, &str)] = &[
    (
        "Message::Hello",
        "distributed_engine_survives_faults_at_every_fused_frame_offset",
    ),
    (
        "Message::ApplyDelta",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Message::Ping",
        "coordinator::tests::clean_rounds_decay_the_respawn_budget",
    ),
    (
        "Message::Shutdown",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Message::TgdRoundFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Message::EgdRoundFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Message::Resume",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::Ready",
        "distributed_engine_survives_faults_at_every_fused_frame_offset",
    ),
    (
        "Response::Applied",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Response::Pong",
        "coordinator::tests::clean_rounds_decay_the_respawn_budget",
    ),
    (
        "Response::Stopped",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
    (
        "Response::TgdFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Response::EgdFused",
        "chaos_faults_at_every_frame_offset_land_byte_identical_under_a_watchdog",
    ),
    (
        "Response::ResumeState",
        "resume_probe_survives_chaos_faults_at_every_frame_offset",
    ),
];

#[test]
fn protocol_fault_matrix_is_exhaustive_and_names_live_tests() {
    // The executable half of the coverage table above: every entry must
    // name a frame that still exists in `protocol.rs` (no stale entries
    // after a rename) and a covering test that still exists — in this
    // file or in the coordinator's in-crate test module. Exhaustiveness
    // in the other direction (every enum variant has an entry) is what
    // `tdx-lint --workspace` enforces.
    let protocol = include_str!("../crates/core/src/chase/cluster/protocol.rs");
    let coordinator = include_str!("../crates/core/src/chase/cluster/coordinator.rs");
    let this_file = include_str!("equivalence.rs");
    let mut seen = std::collections::BTreeSet::new();
    for (frame, test) in PROTOCOL_FAULT_MATRIX {
        assert!(seen.insert(*frame), "duplicate matrix entry for {frame}");
        let variant = frame
            .rsplit("::")
            .next()
            .unwrap_or_else(|| panic!("malformed frame name {frame}"));
        assert!(
            protocol.contains(&format!("    {variant}")),
            "{frame} names no variant in protocol.rs — stale matrix entry"
        );
        let name = test.rsplit("::").next().unwrap_or(test);
        assert!(
            this_file.contains(&format!("fn {name}"))
                || coordinator.contains(&format!("fn {name}")),
            "{frame}: covering test {test} does not exist"
        );
    }
    assert_eq!(seen.len(), 14, "the v6 protocol has 14 frames");
}

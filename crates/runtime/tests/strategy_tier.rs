//! Strategy-tier integration: a [`ConcurrentMap`] must *physically* follow
//! its strategy context — draining its shards into the lock-free table when
//! contention pushes the model past break-even, and draining back when the
//! workload turns read-mostly — without losing an entry or an op count.
//!
//! Contention here is real, not synthesized: a holder thread sleeps inside
//! `update` (under the shard lock) while a writer hammers the same single
//! shard, so the writer's `try_lock` genuinely fails and the flushed
//! profiles carry genuine `contended` counts into the strategy model.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_collections::{ConcKind, MapKind};
use cs_core::{GuardrailConfig, Models, Switch};
use cs_model::{CostDimension, PerformanceModel, Polynomial, VariantCostModel};
use cs_profile::{OpKind, WindowConfig};
use cs_runtime::{Runtime, RuntimeConfig};

fn fast_window() -> WindowConfig {
    WindowConfig {
        window_size: 20,
        finished_ratio: 0.6,
        monitoring_rate: Duration::from_millis(5),
        min_samples: 5,
        history_decay: 0.5,
        ..WindowConfig::default()
    }
}

#[test]
fn map_follows_its_strategy_context_through_both_migrations() {
    let engine = Switch::builder()
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .build();
    let rt = Runtime::with_config(
        engine,
        RuntimeConfig {
            shards: 1, // one shard: the holder's lock contends every writer op
            flush_ops: 64,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "tiered-cache");
    assert_eq!(map.current_strategy(), ConcKind::LockStriped);
    assert_eq!(map.strategy_migrations(), 0);

    // Seed data that must survive both migrations.
    for k in 2..514u64 {
        map.insert(k, k * 7);
    }

    // --- Phase 1: genuine write contention on the single shard. ---
    //
    // Two holder threads each sleep ~1 ms *inside* `update` — i.e. while
    // holding the only shard lock — and take turns: a holder starts its
    // next `update` only once its rival is inside one, so that `update`'s
    // `try_lock` fails and the op is recorded as contended. Without the
    // turns, the releasing holder can re-acquire the lock before its
    // parked rival wakes (a mutex without a fairness handoff lets it
    // barge) and free-run uncontended ops that dilute the contention
    // ratio. A holder that waits 50 ms without its rival entering goes
    // ahead anyway, so a missed turn costs one uncontended op and never
    // deadlocks. The main thread waits for the flushed contended total to
    // cross a threshold (a fixed op count would be flaky under 1-CPU
    // scheduling).
    let stop = Arc::new(AtomicBool::new(false));
    let inside: Arc<[AtomicBool; 2]> = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
    let holders: Vec<_> = (0..2u64)
        .map(|t| {
            let map = map.clone();
            let stop = Arc::clone(&stop);
            let inside = Arc::clone(&inside);
            std::thread::spawn(move || {
                let (me, rival) = (t as usize, 1 - t as usize);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Holder 0 opens the first turn.
                    if t == 1 || ops > 0 {
                        let waited = std::time::Instant::now();
                        while !inside[rival].load(Ordering::SeqCst)
                            && !stop.load(Ordering::Relaxed)
                            && waited.elapsed() < Duration::from_millis(50)
                        {
                            std::thread::yield_now();
                        }
                    }
                    map.update(
                        t,
                        || 0,
                        |v| {
                            inside[me].store(true, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(1));
                            *v += 1;
                            inside[me].store(false, Ordering::SeqCst);
                        },
                    );
                    ops += 1;
                    if ops.is_multiple_of(8) {
                        map.flush();
                    }
                }
                map.flush();
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while map.stats().contended < 400 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    for h in holders {
        h.join().unwrap();
    }

    rt.flush_thread();
    rt.analyze_now();

    let stats = map.stats();
    assert!(
        stats.contended > 300,
        "the holder must have contended the writer's shard; stats: {stats}"
    );
    assert_eq!(
        map.current_strategy(),
        ConcKind::LockFree,
        "contention past break-even must select the lock-free strategy; stats: {stats}"
    );
    let explanation = rt
        .engine()
        .explain(map.strategy_id())
        .expect("strategy pass was scored");
    assert!(
        explanation.contention_driven,
        "the switch must be attributed to the contention term: {explanation:?}"
    );
    assert!(explanation.contention_ratio > 0.2);
    assert!(explanation.current_contention_cost > 0.0);

    // The next op performs the physical migration; data must survive it.
    assert_eq!(map.get(&2), Some(14));
    assert_eq!(map.strategy_migrations(), 1);
    assert_eq!(map.len(), 514);
    assert_eq!(map.stats().current_strategy.as_deref(), Some("lockfree"));

    // Lock-free ops work end to end while the strategy is live.
    assert_eq!(map.insert(1_000, 42), None);
    assert_eq!(map.read(&1_000, |v| *v), Some(42));
    assert_eq!(map.remove(&1_000), Some(42));
    let mut seen = 0usize;
    map.for_each(|_, _| seen += 1);
    assert_eq!(seen, 514);

    // --- Phase 2: read-mostly and uncontended; striped wins back. ---
    let mut rounds = 0;
    while map.current_strategy() == ConcKind::LockFree && rounds < 40 {
        for _ in 0..10 {
            for k in 2..514u64 {
                assert_eq!(map.get(&k), Some(k * 7));
            }
        }
        rt.flush_thread();
        rt.analyze_now();
        rounds += 1;
    }
    assert_eq!(
        map.current_strategy(),
        ConcKind::LockStriped,
        "read-mostly load must win the striped strategy back within {rounds} rounds"
    );

    // The next op migrates back; every entry must survive the drain.
    assert_eq!(map.get(&2), Some(14));
    assert_eq!(map.strategy_migrations(), 2);
    assert_eq!(map.len(), 514);
    assert_eq!(map.stats().current_strategy.as_deref(), Some("lockstriped"));
    for k in 2..514u64 {
        assert_eq!(map.read(&k, |v| *v), Some(k * 7), "entry {k} lost in drain-back");
    }

    // Both strategy transitions are on the engine's audit trail.
    let edges: Vec<String> = rt
        .engine()
        .transition_log()
        .iter()
        .map(|t| t.edge())
        .filter(|e| e.contains("lock"))
        .collect();
    assert_eq!(
        edges,
        vec!["lockstriped -> lockfree", "lockfree -> lockstriped"]
    );
}

/// A conc model that prices the lock-free strategy as an unconditional win,
/// so the analyzer flips the strategy *while worker threads are mid-flight*
/// — the migration protocol must not lose an op or an entry.
fn lockfree_wins_model() -> PerformanceModel<ConcKind> {
    let mut model = PerformanceModel::new();
    for &kind in &ConcKind::ALL {
        let cost = match kind {
            ConcKind::LockFree => 1.0,
            ConcKind::LockStriped => 100.0,
        };
        let mut variant = VariantCostModel::new();
        for op in OpKind::ALL {
            variant.set_op_cost(CostDimension::Time, op, Polynomial::constant(cost));
        }
        model.insert_variant(kind, variant);
    }
    model
}

#[test]
fn migration_under_concurrent_mutation_loses_nothing() {
    let engine = Switch::builder()
        .window(fast_window())
        .guardrails(GuardrailConfig::disabled())
        .models(Models {
            conc: lockfree_wins_model(),
            ..Default::default()
        })
        .build();
    let rt = Runtime::with_config(
        engine,
        RuntimeConfig {
            shards: 4,
            flush_ops: 128,
            ..RuntimeConfig::default()
        },
    );
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "migrate-under-fire");

    let stop = Arc::new(AtomicBool::new(false));
    let analyzer = {
        let rt = rt.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                rt.analyze_now();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    const THREADS: u64 = 4;
    const KEYS: u64 = 512;
    const ROUNDS: u64 = 40;
    // Workers keep mutating past ROUNDS until the strategy migration has
    // happened under them: the test waits on the event, not on an op count
    // that may finish before the analyzer flips. The deadline only bounds a
    // broken build; the assertion below then reports the missing migration.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let totals: Vec<u64> = (0..THREADS)
        .map(|t| {
            let map = map.clone();
            std::thread::spawn(move || {
                let base = t * KEYS;
                let mut ops = 0u64;
                let mut round = 0;
                while round < ROUNDS
                    || (map.strategy_migrations() == 0 && std::time::Instant::now() < deadline)
                {
                    for i in 0..KEYS {
                        let key = base + i;
                        if round == 0 {
                            map.insert(key, key * 3);
                        } else if i % 8 == 7 {
                            assert_eq!(map.remove(&key), Some(key * 3), "lost entry {key}");
                            map.insert(key, key * 3);
                            ops += 1;
                        } else {
                            assert_eq!(map.get(&key), Some(key * 3), "lost entry {key}");
                        }
                        ops += 1;
                    }
                    round += 1;
                }
                ops
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    stop.store(true, Ordering::Relaxed);
    analyzer.join().unwrap();
    rt.flush_thread();

    // The rigged model must have flipped the strategy mid-run, and the
    // physical migration must have happened under the workers' feet.
    assert_eq!(map.current_strategy(), ConcKind::LockFree);
    assert!(
        map.strategy_migrations() >= 1,
        "the strategy flip must have reached the map while workers ran"
    );

    // Exact accounting: every op recorded despite retried dispatches.
    let stats = map.stats();
    assert_eq!(stats.total_ops, totals.iter().sum::<u64>());

    // Zero lost entries across the live migration.
    assert_eq!(map.len(), (THREADS * KEYS) as usize);
    for key in 0..THREADS * KEYS {
        assert_eq!(map.get(&key), Some(key * 3), "entry {key} corrupted");
    }
}

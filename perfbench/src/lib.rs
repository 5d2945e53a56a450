//! End-to-end and per-layer benchmark of the CollectionSwitch reproduction.
//!
//! The benchmark drives the program only through the public APIs of
//! `cs-workloads`, `cs-core`, `cs-collections`, `cs-runtime`, `cs-obs`,
//! `cs-telemetry` and `cs-heap` (plus `cs-profile`'s `OpKind`, which indexes
//! `SiteStats::ops`), and measures each layer from outside by timing its own
//! calls into it. See `METRICS.md` for every metric, the layer it belongs
//! to, and the workload where it should move.

pub mod apps;
pub mod mirror;
pub mod report;
pub mod runtime;
pub mod stats;
pub mod trace;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["apps_rtime", "apps_ralloc", "runtime_phased"];

/// Metrics printed by an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("speedup_vs_original", "ratio"),
    ("op_p99_vs_original", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed by a traced run, with their units. A workload that does
/// not exercise a layer reports `0` for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("ops_per_s", "1/s"),
    ("op_ns_p50", "ns"),
    ("op_ns_p99", "ns"),
    ("op_p50_vs_original", "ratio"),
    ("collections.op_ns", "ns"),
    ("core.handle.create_ns", "ns"),
    ("core.handle.drop_ns", "ns"),
    ("core.handle.unmonitored_op_ns", "ns"),
    ("core.handle.monitored_op_ns", "ns"),
    ("core.handle.monitored_share", "ratio"),
    ("core.handle.unmonitored_over_raw", "ratio"),
    ("core.handle.monitored_over_raw", "ratio"),
    ("core.engine.analyze_calls", "count"),
    ("core.engine.analyze_us_p50", "us"),
    ("core.engine.analyze_us_p99", "us"),
    ("core.engine.analyze_busy_share", "ratio"),
    ("core.engine.switches", "count"),
    ("core.engine.rollbacks", "count"),
    ("core.engine.quarantines", "count"),
    ("core.engine.rollback_ratio", "ratio"),
    ("core.engine.kind_agreement", "ratio"),
    ("core.engine.profiles_dropped", "count"),
    ("apps.instance_us_p50", "us"),
    ("apps.instance_us_p99", "us"),
    ("apps.peak_mb", "MB"),
    ("apps.alloc_mb", "MB"),
    ("runtime.analyze_us_p99", "us"),
    ("runtime.flushes_per_kop", "count"),
    ("runtime.contended_ratio", "ratio"),
    ("runtime.switches", "count"),
    ("runtime.rollbacks", "count"),
    ("runtime.strategy_migrations", "count"),
    ("runtime.lost_ops", "count"),
    ("obs.tick_us_p50", "us"),
    ("obs.tick_us_p99", "us"),
    ("obs.phase_shift_recall", "ratio"),
    ("telemetry.export_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.instance_self_share", "ratio"),
    ("failed_ratio", "ratio"),
];

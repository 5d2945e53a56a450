//! Runtime-layer telemetry: per-site metrics export and the JSON row
//! encoding shared with the bench binaries.
//!
//! The runtime's counters (exact op totals, flushes, shard contention) live
//! in per-site atomics; this module mirrors them into a
//! [`MetricsRegistry`] on demand — the scrape-time pull complementing the
//! engine's push-based event sinks — and encodes a [`SiteStats`] snapshot
//! as a [`Json`] object so dashboards, `runtime_sweep` output rows, and the
//! telemetry JSON snapshot all share one serializer.

use cs_profile::OpKind;
use cs_telemetry::{
    export_process, Counter, EngineExporter, FloatGauge, Gauge, Json, MetricsRegistry,
};
use parking_lot::Mutex;

use crate::runtime::Runtime;
use crate::site::SiteStats;

/// Serializes one site snapshot as a JSON object (op totals keyed by op
/// name). This is the row format of `runtime_sweep --out` and of
/// [`Runtime::export_metrics`] consumers that prefer JSON over Prometheus.
pub fn site_stats_to_json(stats: &SiteStats) -> Json {
    let mut ops = Json::object();
    for op in OpKind::ALL {
        ops = ops.field(op.to_string(), stats.ops[op.index()]);
    }
    let mut row = Json::object()
        .field("id", stats.id)
        .field("site", stats.name.as_str())
        .field("current_kind", stats.current_kind.as_str());
    if let Some(strategy) = &stats.current_strategy {
        row = row.field("current_strategy", strategy.as_str());
    }
    row.field("ops", ops)
        .field("total_ops", stats.total_ops)
        .field("sampled_nanos", stats.sampled_nanos)
        .field("timed_ops", stats.timed_ops)
        .field("nanos_per_op", stats.nanos_per_op().unwrap_or(0.0))
        .field("max_size", stats.max_size)
        .field("flushes", stats.flushes)
        .field("contended", stats.contended)
        .field("contention_ratio", contention_ratio(stats))
        .field("alloc_count", stats.alloc_count)
        .field("alloc_bytes", stats.alloc_bytes)
        .field("alloc_bytes_per_op", stats.alloc_bytes_per_op())
        .field("rounds", stats.rounds)
        .field("switches", stats.switches)
        .field("rollbacks", stats.rollbacks)
}

/// Contended ops as a fraction of total flushed ops; `0.0` before the first
/// flush. This is the observable the strategy tier's cost model prices, so
/// dashboards can plot it straight against the modeled break-even ratio.
fn contention_ratio(stats: &SiteStats) -> f64 {
    if stats.total_ops == 0 {
        0.0
    } else {
        stats.contended as f64 / stats.total_ops as f64
    }
}

/// The per-site `cs_runtime_*` counters besides the op totals, in export
/// order: name, help, and the [`SiteStats`] field each mirrors.
type SiteTotal = (&'static str, &'static str, fn(&SiteStats) -> u64);
const SITE_TOTALS: [SiteTotal; 9] = [
    (
        "cs_runtime_site_flushes_total",
        "Thread-local buffer flushes per site.",
        |s| s.flushes,
    ),
    (
        "cs_runtime_site_contended_total",
        "Contended shard-lock acquisitions per site.",
        |s| s.contended,
    ),
    (
        "cs_runtime_site_sampled_nanos_total",
        "Wall time of the clocked critical ops, nanoseconds (not scaled up).",
        |s| s.sampled_nanos,
    ),
    (
        "cs_runtime_site_timed_ops_total",
        "Clocked critical ops behind cs_runtime_site_sampled_nanos_total.",
        |s| s.timed_ops,
    ),
    (
        "cs_runtime_site_alloc_count_total",
        "Allocation events attributed to critical ops per site.",
        |s| s.alloc_count,
    ),
    (
        "cs_runtime_site_alloc_bytes_total",
        "Allocation bytes attributed to critical ops per site.",
        |s| s.alloc_bytes,
    ),
    (
        "cs_runtime_site_rounds_total",
        "Engine analysis rounds completed per site.",
        |s| s.rounds,
    ),
    (
        "cs_runtime_site_switches_total",
        "Variant switches applied per site.",
        |s| s.switches,
    ),
    (
        "cs_runtime_site_rollbacks_total",
        "Switches undone by post-switch verification per site.",
        |s| s.rollbacks,
    ),
];

/// One site's resolved `cs_runtime_site_*` series.
#[derive(Debug)]
struct SiteHandles {
    id: u64,
    ops: [Counter; 4],
    totals: [Counter; 9],
    max_size: Gauge,
    contention_ratio: FloatGauge,
    nanos_per_op: FloatGauge,
    alloc_bytes_per_op: FloatGauge,
}

impl SiteHandles {
    fn register(registry: &MetricsRegistry, stats: &SiteStats) -> SiteHandles {
        let site = stats.name.as_str();
        SiteHandles {
            id: stats.id,
            ops: OpKind::ALL.map(|op| {
                registry.counter(
                    "cs_runtime_site_ops_total",
                    "Exact flushed op totals per site and op kind.",
                    &[("site", site), ("op", &op.to_string())],
                )
            }),
            totals: SITE_TOTALS
                .map(|(name, help, _)| registry.counter(name, help, &[("site", site)])),
            max_size: registry.gauge(
                "cs_runtime_site_max_size",
                "Largest post-op shard size observed per site.",
                &[("site", site)],
            ),
            contention_ratio: registry.float_gauge(
                "cs_runtime_site_contention_ratio",
                "Contended ops / total flushed ops per site (the strategy \
                 tier's contention observable).",
                &[("site", site)],
            ),
            nanos_per_op: registry.float_gauge(
                "cs_runtime_site_nanos_per_op",
                "Measured wall nanoseconds per critical op per site: \
                 sampled nanos / clocked ops, the estimator post-switch \
                 verification uses (zero before any op was clocked).",
                &[("site", site)],
            ),
            alloc_bytes_per_op: registry.float_gauge(
                "cs_runtime_site_alloc_bytes_per_op",
                "Attributed allocation bytes per critical op per site (the \
                 alloc-rate dimension's observable; zero unless a \
                 cs-heap CountingAlloc is installed).",
                &[("site", site)],
            ),
        }
    }

    fn write(&self, stats: &SiteStats) {
        for op in OpKind::ALL {
            self.ops[op.index()].set_total(stats.ops[op.index()]);
        }
        for (counter, (_, _, value)) in self.totals.iter().zip(SITE_TOTALS) {
            counter.set_total(value(stats));
        }
        self.max_size.set(stats.max_size as i64);
        self.contention_ratio.set(contention_ratio(stats));
        self.nanos_per_op.set(stats.nanos_per_op().unwrap_or(0.0));
        self.alloc_bytes_per_op.set(stats.alloc_bytes_per_op());
    }
}

/// Series resolved so far, registered in the order a one-shot export
/// registers them: the site count, each site as it first appears, then
/// the engine's.
#[derive(Debug, Default)]
struct Resolved {
    sites_gauge: Option<Gauge>,
    /// Sorted by site id.
    sites: Vec<SiteHandles>,
    engine: Option<EngineExporter>,
}

/// Mirrors a [`Runtime`]'s counters into one registry: every site's
/// counters under the `cs_runtime_*` families (labelled by site name)
/// plus the wrapped engine's `cs_engine_*` state ([`EngineExporter`]).
///
/// Each series is resolved in the registry once, the first time the
/// exporter writes it; later exports store into the resolved atomics, so
/// a periodic exporter (the `cs-obs` sampler tick and `/metrics` scrape)
/// neither allocates label strings nor scans the registry. A site
/// registered after an export is resolved on the next one. Exports are
/// serialised, so values written from a later read of the sites never
/// land before those of an earlier one.
///
/// # Examples
///
/// ```
/// use cs_collections::MapKind;
/// use cs_core::Switch;
/// use cs_runtime::{Runtime, RuntimeExporter};
/// use cs_telemetry::MetricsRegistry;
///
/// let rt = Runtime::new(Switch::builder().build());
/// let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "doc-map");
/// map.insert(1, 1);
/// rt.flush_thread();
///
/// let registry = MetricsRegistry::new();
/// let exporter = RuntimeExporter::new(&registry);
/// let sites = exporter.export(&rt);
/// assert_eq!(sites[0].total_ops, 1);
/// assert_eq!(
///     registry.snapshot().counter_total("cs_runtime_site_ops_total"),
///     Some(1)
/// );
/// ```
#[derive(Debug)]
pub struct RuntimeExporter {
    registry: MetricsRegistry,
    resolved: Mutex<Resolved>,
}

impl RuntimeExporter {
    /// An exporter into `registry`; nothing is registered until the first
    /// [`RuntimeExporter::export`].
    pub fn new(registry: &MetricsRegistry) -> RuntimeExporter {
        RuntimeExporter {
            registry: registry.clone(),
            resolved: Mutex::new(Resolved::default()),
        }
    }

    /// Reads [`Runtime::sites`] once, writes every site's series and the
    /// engine's, and returns the site snapshot it wrote. Memory only: no
    /// `/proc` reads, no syscalls (the process gauges belong to
    /// [`Runtime::export_metrics`]).
    pub fn export(&self, rt: &Runtime) -> Vec<SiteStats> {
        let mut resolved = self.resolved.lock();
        let sites = rt.sites();
        let registry = &self.registry;
        resolved
            .sites_gauge
            .get_or_insert_with(|| {
                registry.gauge("cs_runtime_sites", "Registered runtime sites.", &[])
            })
            .set(sites.len() as i64);
        for stats in &sites {
            let i = match resolved.sites.binary_search_by_key(&stats.id, |h| h.id) {
                Ok(i) => i,
                Err(i) => {
                    resolved.sites.insert(i, SiteHandles::register(registry, stats));
                    i
                }
            };
            resolved.sites[i].write(stats);
        }
        resolved
            .engine
            .get_or_insert_with(|| EngineExporter::new(registry))
            .export(rt.engine());
        sites
    }
}

impl Runtime {
    /// Mirrors every runtime site's counters and the wrapped engine's
    /// state into `registry` ([`RuntimeExporter`]), plus the process-level
    /// gauges via [`export_process`] (uptime, peak RSS — so a runtime
    /// scrape is useful before any site traffic). Idempotent: call on
    /// every scrape, values overwrite. A caller that exports periodically
    /// should keep a [`RuntimeExporter`] instead, which resolves each
    /// series once.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        RuntimeExporter::new(registry).export(self);
        export_process(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::MapKind;
    use cs_core::Switch;
    use cs_telemetry::validate_prometheus_text;

    #[test]
    fn export_mirrors_site_counters_and_validates() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "tele-map");
        for i in 0..50 {
            map.insert(i, i);
            map.get(&i);
        }
        rt.flush_thread();

        let registry = MetricsRegistry::new();
        rt.export_metrics(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge_value("cs_runtime_sites"), Some(1));
        assert_eq!(
            snap.counter_total("cs_runtime_site_ops_total"),
            Some(100),
            "50 inserts + 50 gets"
        );
        assert_eq!(
            snap.counter_total("cs_runtime_site_flushes_total"),
            Some(1)
        );
        let text = snap.to_prometheus_text();
        assert!(text.contains(
            "cs_runtime_site_ops_total{site=\"tele-map\",op=\"populate\"} 50"
        ));
        validate_prometheus_text(&text).expect("valid exposition");

        // Second export after more activity overwrites, not double-counts.
        for i in 0..10 {
            map.insert(100 + i, i);
        }
        rt.flush_thread();
        rt.export_metrics(&registry);
        assert_eq!(
            registry
                .snapshot()
                .counter_total("cs_runtime_site_ops_total"),
            Some(110)
        );
    }

    #[test]
    fn site_stats_rows_serialize_every_counter() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "row");
        map.insert(1, 1);
        rt.flush_thread();
        let stats = rt.site_stats(map.id()).unwrap();
        let row = site_stats_to_json(&stats).render();
        assert!(row.contains("\"site\":\"row\""));
        assert!(row.contains("\"populate\":1"));
        assert!(row.contains("\"flushes\":1"));
        assert!(row.contains("\"current_kind\":\"chained\""));
        assert!(row.contains("\"current_strategy\":\"lockstriped\""));
        assert!(row.contains("\"contended\":0"));
        assert!(row.contains("\"contention_ratio\":0"));
        assert!(row.contains("\"alloc_count\":0"));
        assert!(row.contains("\"alloc_bytes_per_op\":0"));
    }

    #[test]
    fn alloc_metrics_export_and_validate() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "alloc");
        for i in 0..10 {
            map.insert(i, i);
        }
        rt.flush_thread();
        let registry = MetricsRegistry::new();
        rt.export_metrics(&registry);
        let snap = registry.snapshot();
        // No CountingAlloc is installed in unit tests, so the attributed
        // values are zero — but the families must exist and validate.
        assert_eq!(
            snap.counter_total("cs_runtime_site_alloc_bytes_total"),
            Some(0)
        );
        assert_eq!(
            snap.counter_total("cs_runtime_site_alloc_count_total"),
            Some(0)
        );
        assert!(snap.family("cs_runtime_site_alloc_bytes_per_op").is_some());
        validate_prometheus_text(&snap.to_prometheus_text()).expect("valid exposition");
    }

    #[test]
    fn contention_ratio_gauge_tracks_contended_over_total() {
        let rt = Runtime::new(Switch::builder().build());
        let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "ratio");
        for i in 0..10 {
            map.insert(i, i);
        }
        rt.flush_thread();
        let registry = MetricsRegistry::new();
        rt.export_metrics(&registry);
        let snap = registry.snapshot();
        let family = snap
            .family("cs_runtime_site_contention_ratio")
            .expect("ratio gauge exported for every site");
        match family.series[0].value {
            cs_telemetry::ValueSnapshot::FloatGauge(v) => {
                assert_eq!(v, 0.0, "single-threaded load is uncontended")
            }
            ref other => panic!("not a float gauge: {other:?}"),
        }
    }
}

//! The sampler: a low-duty-cycle thread (or a manual [`tick`] in tests)
//! that snapshots the in-memory observables into the window and feeds the
//! drift detector.
//!
//! A tick does in-memory work that scales with the number of values, not
//! with the number of metric names:
//!
//! 1. **Export.** The plane's exporter reads the runtime's sites once and
//!    stores every site and engine value into series it resolved the
//!    first time it saw them (a new site costs one registration; after
//!    that a tick allocates no label and takes no registry scan).
//! 2. **Frame.** The registry's counter totals are copied into a
//!    [`Frame`](crate::window::Frame): one atomic load per series, into
//!    a fresh value vector next to a shared, sorted key list. The keys
//!    are rebuilt only when the append-only registry has gained a counter
//!    series since the last tick, so consecutive frames share one key
//!    allocation.
//! 3. **Drift.** The same site samples the frame keeps are scored against
//!    the drift bands.
//! 4. **Self-metrics.** Ticks, busy nanos and the overhead ratio, each a
//!    pre-resolved atomic.
//!
//! The process-level gauges that read procfs are deliberately *not*
//! refreshed here — they belong to the scrape path (`GET /metrics`),
//! where an operator is already paying for a syscall round-trip. The
//! analyzer's `no-blocking-io-in-sampler-path` lint pins this invariant:
//! no filesystem or socket tokens may appear in this module. The single
//! cold exception is a fired drift event, which is handed to the flight
//! recorder (and thence its JSONL sink) — incidents are rare by
//! construction and recording them is the point.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cs_telemetry::{Counter, Json, MetricsRegistry};

use crate::drift::DriftEvent;
use crate::window::Frame;
use crate::ObsCore;

/// Takes one sample: export → frame → drift → self-metrics. Returns the
/// drift events fired, already recorded as incidents and counted on
/// `cs_obs_phase_shifts_total`. Public so tests and examples can drive
/// the plane deterministically instead of racing a timer thread.
pub(crate) fn tick(core: &ObsCore) -> Vec<DriftEvent> {
    let busy = Instant::now();
    let sites = core.source.sample();
    let t_ns = core.started.elapsed().as_nanos() as u64;
    let (keys, values) = core.counters.lock().read(&core.registry);

    let events = core.drift.lock().observe(&sites);
    {
        let mut window = core.window.lock();
        window.push(Frame {
            t_ns,
            keys,
            values,
            sites,
        });
        core.metrics.window_frames.set(window.len() as i64);
    }

    for event in &events {
        core.registry
            .counter(
                "cs_obs_phase_shifts_total",
                "Drift-detector firings: a site's op-mix or allocation \
                 rate broke out of its EWMA band.",
                &[("site", &event.site), ("dimension", event.dimension)],
            )
            .inc();
        if let Some(flight) = &core.flight {
            flight.record_external("phase_shift", drift_detail(event, t_ns));
        }
    }

    core.metrics.sampler_ticks.inc();
    let busy_ns = busy.elapsed().as_nanos() as u64;
    core.metrics.sampler_busy_nanos.add(busy_ns);
    let wall_ns = core.started.elapsed().as_nanos() as u64;
    if wall_ns > 0 {
        let busy_total = core.metrics.sampler_busy_nanos.get();
        core.metrics
            .sampler_overhead_ratio
            .set(busy_total as f64 / wall_ns as f64);
    }
    events
}

/// The registry's counter series sorted by series key, with their cells.
/// Rebuilt only when the append-only registry gains a counter series.
#[derive(Debug)]
pub(crate) struct CounterIndex {
    keys: Arc<[String]>,
    cells: Vec<Counter>,
}

impl Default for CounterIndex {
    fn default() -> CounterIndex {
        CounterIndex {
            keys: Arc::from(Vec::new()),
            cells: Vec::new(),
        }
    }
}

impl CounterIndex {
    /// The sorted keys (shared with the previous frame unless a series
    /// was added) and each key's current total.
    fn read(&mut self, registry: &MetricsRegistry) -> (Arc<[String]>, Vec<u64>) {
        if registry.counter_series() != self.cells.len() {
            let mut series = Vec::with_capacity(registry.counter_series());
            registry.for_each_counter(|name, labels, counter| {
                series.push((series_key(name, labels), counter.clone()));
            });
            series.sort_by(|a, b| a.0.cmp(&b.0));
            let (keys, cells): (Vec<String>, Vec<Counter>) = series.into_iter().unzip();
            self.keys = keys.into();
            self.cells = cells;
        }
        let values = self.cells.iter().map(Counter::get).collect();
        (Arc::clone(&self.keys), values)
    }
}

/// The Prometheus series identity: `name` or `name{k="v",…}`.
pub(crate) fn series_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(v);
        key.push('"');
    }
    key.push('}');
    key
}

/// The incident `detail` payload for a fired drift.
fn drift_detail(event: &DriftEvent, t_ns: u64) -> Json {
    Json::object()
        .field("site_id", event.site_id)
        .field("site", event.site.as_str())
        .field("dimension", event.dimension)
        .field("observed", event.observed)
        .field("mean", event.mean)
        .field("band", event.band)
        .field("ops_in_frame", event.ops_in_frame)
        .field("t_ns", t_ns)
}

/// The periodic sampler thread: ticks every `interval` until stopped.
#[derive(Debug)]
pub(crate) struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

pub(crate) fn spawn(core: Arc<ObsCore>, interval: Duration) -> SamplerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("cs-obs-sampler".to_owned())
        .spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                tick(&core);
                std::thread::park_timeout(interval);
            }
        })
        .expect("spawn cs-obs sampler thread");
    SamplerHandle {
        stop,
        thread: Some(thread),
    }
}

impl SamplerHandle {
    /// Signals the thread and joins it; idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keys_match_prometheus_identity() {
        assert_eq!(series_key("cs_x_total", &[]), "cs_x_total");
        let labels = vec![
            ("site".to_owned(), "hot-map".to_owned()),
            ("op".to_owned(), "contains".to_owned()),
        ];
        assert_eq!(
            series_key("cs_runtime_site_ops_total", &labels),
            "cs_runtime_site_ops_total{site=\"hot-map\",op=\"contains\"}"
        );
    }
}

//! What a sampler tick writes, and what it must not.
//!
//! 1. The newest frame carries exactly the counter series (and values) a
//!    fresh one-shot `Runtime::export_metrics` writes into a new registry,
//!    besides the plane's own `cs_obs_*` counters.
//! 2. Consecutive frames share one key allocation while no counter series
//!    is added; a site created after a tick shows up in the next frame.
//! 3. Ticking does not grow the registry once every series is resolved.
//! 4. The sampler's self-accounting stays physically possible.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use cs_collections::MapKind;
use cs_core::Switch;
use cs_obs::{Frame, ObsBuilder};
use cs_runtime::Runtime;
use cs_telemetry::{validate_prometheus_text, MetricsRegistry, ValueSnapshot};

/// Every counter series in `registry` as `(series key, total)`, sorted,
/// with keys rendered here rather than by the crate under test.
fn counter_series(registry: &MetricsRegistry) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for family in registry.snapshot().families {
        for series in family.series {
            let ValueSnapshot::Counter(total) = series.value else {
                continue;
            };
            let key = if series.labels.is_empty() {
                family.name.clone()
            } else {
                let labels: Vec<String> = series
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                format!("{}{{{}}}", family.name, labels.join(","))
            };
            out.push((key, total));
        }
    }
    out.sort();
    out
}

/// The frame's counter series minus the plane's own `cs_obs_*` families.
fn frame_series(frame: &Frame) -> Vec<(String, u64)> {
    frame
        .keys
        .iter()
        .zip(&frame.values)
        .filter(|(k, _)| !k.starts_with("cs_obs_"))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

fn series_count(registry: &MetricsRegistry) -> (usize, usize) {
    let snap = registry.snapshot();
    let series = snap.families.iter().map(|f| f.series.len()).sum();
    (snap.families.len(), series)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned());
    (status, body.unwrap_or_default())
}

fn drive(rt: &Runtime, map: &cs_runtime::ConcurrentMap<u64, u64>, n: u64) {
    for i in 0..n {
        map.insert(i, i);
        map.get(&(i / 2));
    }
    rt.flush_thread();
}

#[test]
fn frames_match_a_fresh_export_and_share_their_keys() {
    let rt = Runtime::new(Switch::builder().build());
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "first-map");
    let obs = ObsBuilder::new()
        .addr("127.0.0.1:0")
        .manual_sampler()
        .spawn_runtime(&rt)
        .expect("bind");

    for round in 0..4 {
        drive(&rt, &map, 100 + round);
        rt.analyze_now();
        obs.tick();
    }
    let fresh = MetricsRegistry::new();
    rt.export_metrics(&fresh);
    let frame = obs.latest_frame().expect("four ticks ran");
    assert_eq!(frame_series(&frame), counter_series(&fresh));
    let populate = "cs_runtime_site_ops_total{site=\"first-map\",op=\"populate\"}";
    assert!(frame.counter(populate) > Some(0));

    // No series added between two ticks: one shared key allocation.
    drive(&rt, &map, 10);
    obs.tick();
    let next = obs.latest_frame().expect("frame");
    assert!(Arc::ptr_eq(&frame.keys, &next.keys), "keys rebuilt without a new series");
    assert_ne!(frame.values, next.values, "values are fresh");

    // A site created after a tick is in the very next frame.
    let late = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "late-map");
    drive(&rt, &late, 7);
    obs.tick();
    let after = obs.latest_frame().expect("frame");
    assert!(!Arc::ptr_eq(&next.keys, &after.keys), "new series, new keys");
    assert_eq!(
        after.counter("cs_runtime_site_ops_total{site=\"late-map\",op=\"populate\"}"),
        Some(7)
    );
    let fresh = MetricsRegistry::new();
    rt.export_metrics(&fresh);
    assert_eq!(frame_series(&after), counter_series(&fresh));

    let addr = obs.local_addr().expect("server address");
    let (status, page) = get(addr, "/metrics");
    assert_eq!(status, 200, "{page}");
    validate_prometheus_text(&page).expect("scraped page validates");
    assert!(page.contains("cs_runtime_site_ops_total{site=\"late-map\",op=\"populate\"} 7"));
    obs.shutdown();
}

#[test]
fn ticking_does_not_grow_the_registry() {
    let rt = Runtime::new(Switch::builder().build());
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "steady-map");
    let obs = ObsBuilder::new()
        .manual_sampler()
        .spawn_runtime(&rt)
        .expect("headless spawn");
    for _ in 0..3 {
        drive(&rt, &map, 50);
        obs.tick();
    }
    let before = series_count(obs.registry());
    let counters_before = obs.registry().counter_series();
    let keys = obs.latest_frame().expect("warm").keys;
    for _ in 0..100 {
        drive(&rt, &map, 20);
        assert!(obs.tick().is_empty(), "a steady mix fires no drift");
    }
    assert_eq!(series_count(obs.registry()), before);
    assert_eq!(obs.registry().counter_series(), counters_before);
    assert!(Arc::ptr_eq(&keys, &obs.latest_frame().expect("frame").keys));
    obs.shutdown();
}

#[test]
fn sampler_self_accounting_is_physically_possible() {
    let rt = Runtime::new(Switch::builder().build());
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "self-map");
    let spawned = Instant::now();
    let obs = ObsBuilder::new()
        .manual_sampler()
        .spawn_runtime(&rt)
        .expect("headless spawn");
    for _ in 0..50 {
        drive(&rt, &map, 20);
        obs.tick();
    }
    let wall_ns = spawned.elapsed().as_nanos() as u64;

    let snap = obs.registry().snapshot();
    assert_eq!(snap.counter_value("cs_obs_sampler_ticks_total"), Some(50));
    let busy = snap
        .counter_value("cs_obs_sampler_busy_nanos_total")
        .expect("busy counter");
    assert!(busy > 0 && busy <= wall_ns, "busy {busy} ns vs wall {wall_ns} ns");
    let ratio = snap
        .family("cs_obs_sampler_overhead_ratio")
        .and_then(|f| f.series.first())
        .map(|s| match s.value {
            ValueSnapshot::FloatGauge(v) => v,
            ref other => panic!("not a float gauge: {other:?}"),
        })
        .expect("overhead ratio");
    assert!((0.0..=1.0).contains(&ratio), "overhead ratio {ratio}");
    obs.shutdown();
}

//! The `runtime_phased` workload: one `cs-runtime` `ConcurrentMap` (default
//! `Chained`) under `nproc` closed-loop workers with Zipf keys, whose op mix
//! flips between read-mostly and write-hot every [`FLIP_EVERY`] ops per
//! worker.
//!
//! Each round replays the same op streams twice: first against a raw
//! lock-striped `Chained` map built from `cs-collections` variants (the
//! Original, with the runtime's shard count), then against the runtime map.
//! During the runtime half, worker 0 calls `Runtime::analyze_now` and
//! `ObsHandle::tick` every [`CADENCE`] of its own ops, so no extra thread
//! competes for the cores.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cs_collections::{AnyMap, MapKind, MapOps};
use cs_core::Switch;
use cs_obs::{ObsBuilder, ObsHandle};
use cs_profile::OpKind;
use cs_runtime::{ConcurrentMap, Runtime};
use cs_telemetry::{validate_prometheus_text, MetricsRegistry, MetricsSink};
use cs_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mirror::OP_SAMPLE_MASK;
use crate::report::Report;
use crate::stats::{median, quantile, ratio, Hist};
use crate::trace::{Name, Span, SpanLog, Tag, NONE};

/// Key space; keys are Zipf-distributed over it.
pub const KEYS: usize = 16_384;
pub const ZIPF_EXPONENT: f64 = 0.99;
/// `get` share of the read-mostly phase; the write-hot phase uses `1 - x`.
pub const READ_MOSTLY: f64 = 0.9;
/// Ops per worker between mix flips.
pub const FLIP_EVERY: u64 = 32_768;
/// Ops per worker in each half of a round: one read-mostly and one
/// write-hot phase.
pub const ROUND_OPS: u64 = 2 * FLIP_EVERY;
/// Worker 0's analysis and sampler-tick cadence, in its own ops.
pub const CADENCE: u64 = 2_048;
/// Final `/metrics` renders; the export time is their median.
const EXPORTS: usize = 5;
/// The traced run stops once its span log holds this many spans (one
/// traced round adds about 512 per worker).
const MAX_SPANS: usize = 250_000;

/// Worker count: one per hardware thread.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Clone, Copy)]
enum Op {
    Get(u64),
    Insert(u64, u64),
    Remove(u64),
}

/// One worker's op stream. Cloning it replays the same ops.
#[derive(Clone)]
struct Gen {
    rng: StdRng,
    i: u64,
}

impl Gen {
    fn phase(&self) -> u64 {
        self.i / FLIP_EVERY
    }

    fn next(&mut self, zipf: &Zipf) -> Op {
        let reads = if self.phase().is_multiple_of(2) {
            READ_MOSTLY
        } else {
            1.0 - READ_MOSTLY
        };
        let key = zipf.sample(&mut self.rng);
        let i = self.i;
        self.i += 1;
        if self.rng.gen_bool(reads) {
            Op::Get(key)
        } else if self.rng.gen_bool(0.125) {
            Op::Remove(key)
        } else {
            Op::Insert(key, i)
        }
    }
}

/// The two maps a round drives.
trait Target: Sync {
    fn apply(&self, op: Op);
    /// Called by each worker before it exits.
    fn finish(&self) {}
}

impl Target for ConcurrentMap<u64, u64> {
    #[inline]
    fn apply(&self, op: Op) {
        match op {
            Op::Get(k) => {
                std::hint::black_box(self.get(&k));
            }
            Op::Insert(k, v) => {
                std::hint::black_box(self.insert(k, v));
            }
            Op::Remove(k) => {
                std::hint::black_box(self.remove(&k));
            }
        }
    }

    fn finish(&self) {
        // Publishes this worker's buffered ops before the tallies are
        // compared with the site's.
        self.flush();
    }
}

/// The Original: a lock-striped `Chained` map with no monitoring.
struct RawMap {
    shards: Vec<Mutex<AnyMap<u64, u64>>>,
}

impl RawMap {
    fn new(shards: usize) -> RawMap {
        RawMap {
            shards: (0..shards.next_power_of_two())
                .map(|_| Mutex::new(AnyMap::new(MapKind::Chained)))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, AnyMap<u64, u64>> {
        let bits = self.shards.len().trailing_zeros();
        let index = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits.max(1))) as usize;
        self.shards[index % self.shards.len()]
            .lock()
            .expect("raw shard lock poisoned")
    }
}

impl Target for RawMap {
    #[inline]
    fn apply(&self, op: Op) {
        match op {
            Op::Get(k) => {
                std::hint::black_box(self.shard(k).map_get(&k).copied());
            }
            Op::Insert(k, v) => {
                std::hint::black_box(self.shard(k).map_insert(k, v));
            }
            Op::Remove(k) => {
                std::hint::black_box(self.shard(k).map_remove(&k));
            }
        }
    }
}

/// Everything set-up builds.
pub struct State {
    rt: Runtime,
    map: ConcurrentMap<u64, u64>,
    raw: RawMap,
    obs: ObsHandle,
    zipf: Zipf,
    gens: Vec<Gen>,
    /// Ops issued against the runtime map, by `OpKind::index`.
    tallies: [u64; 4],
}

/// Builds the engine (with a `MetricsSink`), runtime, map, obs plane and
/// op generators, then warms up with one untimed round.
pub fn setup(seed: u64) -> State {
    let registry = MetricsRegistry::new();
    let engine = Switch::builder()
        .event_sink(Arc::new(MetricsSink::new(registry.clone())))
        .build();
    let rt = Runtime::new(engine);
    let map = rt.named_concurrent_map::<u64, u64>(MapKind::Chained, "runtime_phased");
    let obs = ObsBuilder::new()
        .manual_sampler()
        .registry(registry)
        .spawn_runtime(&rt)
        .expect("a plane without an address binds nothing");
    let gens = (0..workers() as u64)
        .map(|w| Gen {
            rng: StdRng::seed_from_u64(seed ^ w.wrapping_mul(0xA076_1D64_78BD_642F)),
            i: 0,
        })
        .collect();
    let mut state = State {
        raw: RawMap::new(rt.config().shards),
        rt,
        map,
        obs,
        zipf: Zipf::new(KEYS, ZIPF_EXPONENT),
        gens,
        tallies: [0; 4],
    };
    round(&mut state, None);
    state
}

/// What one worker measured in one segment.
#[derive(Default)]
struct WorkerOut {
    tallies: [u64; 4],
    op_ns: Vec<u32>,
    analyze_ns: Vec<u64>,
    tick_ns: Vec<u64>,
    /// Phases (worker 0's numbering) in which a tick fired a drift event.
    shift_phases: Vec<u64>,
    log: Option<SpanLog>,
}

/// Worker 0's extra duties in the runtime half.
struct Hooks<'a> {
    rt: &'a Runtime,
    obs: &'a ObsHandle,
}

fn kind_index(op: Op) -> usize {
    match op {
        Op::Get(_) => OpKind::Contains.index(),
        Op::Insert(..) => OpKind::Populate.index(),
        Op::Remove(_) => OpKind::Middle.index(),
    }
}

fn worker<T: Target>(
    target: &T,
    gen: &mut Gen,
    zipf: &Zipf,
    worker: u16,
    hooks: Option<&Hooks<'_>>,
    epoch: Option<Instant>,
) -> WorkerOut {
    let mut out = WorkerOut {
        op_ns: Vec::with_capacity((ROUND_OPS / (OP_SAMPLE_MASK + 1)) as usize),
        log: epoch.map(SpanLog::new),
        ..WorkerOut::default()
    };
    for _ in 0..ROUND_OPS {
        let i = gen.i;
        let op = gen.next(zipf);
        out.tallies[kind_index(op)] += 1;
        if i & OP_SAMPLE_MASK == 0 {
            let start = Instant::now();
            target.apply(op);
            let end = Instant::now();
            out.op_ns
                .push(u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX));
            if let Some(log) = &mut out.log {
                log.push(span(log, Name::Op, start, end, i, worker));
            }
        } else {
            target.apply(op);
        }
        if let Some(hooks) = hooks {
            if (i + 1).is_multiple_of(CADENCE) {
                let start = Instant::now();
                hooks.rt.analyze_now();
                let mid = Instant::now();
                let fired = hooks.obs.tick();
                let end = Instant::now();
                out.analyze_ns.push((mid - start).as_nanos() as u64);
                out.tick_ns.push((end - mid).as_nanos() as u64);
                if !fired.is_empty() {
                    out.shift_phases.push(i / FLIP_EVERY);
                }
                if let Some(log) = &mut out.log {
                    log.push(span(log, Name::Analyze, start, mid, i, worker));
                    log.push(span(log, Name::ObsTick, mid, end, i, worker));
                }
            }
        }
    }
    target.finish();
    out
}

fn span(log: &SpanLog, name: Name, start: Instant, end: Instant, group: u64, site: u16) -> Span {
    Span {
        name,
        tag: Tag::Adaptive,
        parent: NONE,
        group: (u64::from(site) << 48) | group,
        site,
        ops: u64::from(name == Name::Op),
        start_ns: log.ns_at(start),
        end_ns: log.ns_at(end),
    }
}

/// Runs every generator for one segment against `target` on its own
/// thread; returns the segment's wall time and each worker's output.
fn segment<T: Target>(
    target: &T,
    gens: &mut [Gen],
    zipf: &Zipf,
    hooks: Option<&Hooks<'_>>,
    epoch: Option<Instant>,
) -> (Duration, Vec<WorkerOut>) {
    let start = Instant::now();
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(w, gen)| {
                let hooks = if w == 0 { hooks } else { None };
                s.spawn(move || worker(target, gen, zipf, w as u16, hooks, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect::<Vec<_>>()
    });
    (start.elapsed(), outs)
}

/// Both halves of one round.
struct RoundOut {
    t_raw: Duration,
    t_rt: Duration,
    raw: Vec<WorkerOut>,
    rt: Vec<WorkerOut>,
}

/// One round: the raw half on a replay of the streams, then the runtime
/// half, which advances them.
fn round(state: &mut State, epoch: Option<Instant>) -> RoundOut {
    let mut replay = state.gens.clone();
    let (t_raw, raw) = segment(&state.raw, &mut replay, &state.zipf, None, None);
    let hooks = Hooks {
        rt: &state.rt,
        obs: &state.obs,
    };
    let (t_rt, outs) = segment(
        &state.map,
        &mut state.gens,
        &state.zipf,
        Some(&hooks),
        epoch,
    );
    for out in &outs {
        for (total, n) in state.tallies.iter_mut().zip(out.tallies) {
            *total += n;
        }
    }
    RoundOut {
        t_raw,
        t_rt,
        raw,
        rt: outs,
    }
}

/// One round's measurements.
struct Round {
    t_raw: Duration,
    t_rt: Duration,
    traced: bool,
}

/// Runs rounds for `seconds` (traced: alternating untraced and traced
/// rounds), checks the run, and reports its metrics.
pub fn run(mut state: State, seconds: f64, traced: bool, report: &mut Report) -> Option<SpanLog> {
    let epoch = Instant::now();
    let mut log = traced.then(|| SpanLog::new(epoch));
    let mut rounds = Vec::new();
    // Sampled op latencies of the untraced rounds, per half.
    let (mut raw_ns, mut rt_ns) = (Hist::default(), Hist::default());
    let (mut analyze_ns, mut tick_ns) = (Vec::new(), Vec::new());
    let mut shift_phases = Vec::new();
    loop {
        let trace_this = traced && rounds.len() % 2 == 1;
        let out = round(&mut state, trace_this.then_some(epoch));
        rounds.push(Round {
            t_raw: out.t_raw,
            t_rt: out.t_rt,
            traced: trace_this,
        });
        if !trace_this {
            for (hist, outs) in [(&mut raw_ns, &out.raw), (&mut rt_ns, &out.rt)] {
                outs.iter()
                    .flat_map(|o| &o.op_ns)
                    .for_each(|&ns| hist.record(ns));
            }
        }
        for out in out.rt {
            analyze_ns.extend(out.analyze_ns.iter().map(|&ns| ns as f64));
            tick_ns.extend(out.tick_ns.iter().map(|&ns| ns as f64));
            shift_phases.extend(out.shift_phases);
            if let (Some(log), Some(worker_log)) = (&mut log, out.log) {
                log.append(worker_log);
            }
        }
        let traced_rounds = rounds.iter().filter(|r| r.traced).count();
        let done = epoch.elapsed().as_secs_f64() >= seconds;
        let full = log.as_ref().is_some_and(|l| l.spans.len() >= MAX_SPANS);
        if (done && (!traced || traced_rounds > 0)) || full {
            break;
        }
    }

    // The site's flushed totals must equal what the generators issued.
    let stats = state.map.stats();
    let lost: u64 = state
        .tallies
        .iter()
        .zip(stats.ops)
        .map(|(&issued, seen)| issued.abs_diff(seen))
        .sum();
    report.check(lost == 0, || {
        format!(
            "lost ops: issued {:?}, site saw {:?}",
            state.tallies, stats.ops
        )
    });

    // The final `/metrics` page, rendered as the obs server renders it.
    let registry = state.obs.registry();
    let mut export_ms = Vec::with_capacity(EXPORTS);
    let mut page = Ok(());
    for _ in 0..EXPORTS {
        let start = Instant::now();
        state.rt.export_metrics(registry);
        let text = registry.snapshot().to_prometheus_text();
        page = validate_prometheus_text(&text);
        let end = Instant::now();
        export_ms.push((end - start).as_secs_f64() * 1e3);
        if let Some(log) = &mut log {
            log.push(span(log, Name::Export, start, end, 0, 0));
        }
    }
    report.check(page.is_ok(), || format!("/metrics page invalid: {page:?}"));

    let n = rounds.len();
    let ops_per_round = (state.gens.len() as u64 * ROUND_OPS) as f64;
    report.param("workers", state.gens.len());
    report.param("keys", KEYS);
    report.param("zipf_exponent", ZIPF_EXPONENT);
    report.param("read_mostly_get_share", READ_MOSTLY);
    report.param("flip_every_ops_per_worker", FLIP_EVERY);
    report.param("round_ops_per_worker", ROUND_OPS);
    report.param("analyze_tick_every_ops", CADENCE);
    report.param("op_sample_every", OP_SAMPLE_MASK + 1);
    report.param("rounds", n);
    report.log.push(format!(
        "# runtime site: {} ops, kind {}, strategy {:?}, {} flushes, {} contended, {} switches, {} rollbacks, {} strategy migrations",
        stats.total_ops,
        stats.current_kind,
        stats.current_strategy,
        stats.flushes,
        stats.contended,
        stats.switches,
        stats.rollbacks,
        state.map.strategy_migrations()
    ));

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let throughput: Vec<f64> = untraced
        .iter()
        .map(|r| ops_per_round / r.t_rt.as_secs_f64())
        .collect();
    let samples = rt_ns.len() as usize;
    if !traced {
        let speedups: Vec<f64> = untraced
            .iter()
            .map(|r| r.t_raw.as_secs_f64() / r.t_rt.as_secs_f64())
            .collect();
        report.metric("speedup_vs_original", median(&speedups), "ratio", n);
        report.metric(
            "op_p99_vs_original",
            rt_ns.quantile(0.99) / raw_ns.quantile(0.99),
            "ratio",
            samples,
        );
        report.log.push(format!(
            "# rounds {n}: speedup_vs_original median {:.4} min {:.4} max {:.4}; runtime ops_per_s median {:.0} p1 {:.0} max {:.0}",
            median(&speedups),
            quantile(&speedups, 0.0),
            quantile(&speedups, 1.0),
            median(&throughput),
            quantile(&throughput, 0.01),
            quantile(&throughput, 1.0),
        ));
        report.log.push(format!(
            "# sampled op ns (n={samples} per half): runtime p50 {:.1} p99 {:.1}; raw p50 {:.1} p99 {:.1}",
            rt_ns.quantile(0.5),
            rt_ns.quantile(0.99),
            raw_ns.quantile(0.5),
            raw_ns.quantile(0.99),
        ));
        return None;
    }

    report.metric("ops_per_s", median(&throughput), "1/s", untraced.len());
    report.metric("op_ns_p50", rt_ns.quantile(0.5), "ns", samples);
    report.metric("op_ns_p99", rt_ns.quantile(0.99), "ns", samples);
    report.metric(
        "op_p50_vs_original",
        rt_ns.quantile(0.5) / raw_ns.quantile(0.5),
        "ratio",
        samples,
    );
    let total = stats.total_ops as f64;
    let analyze_us: Vec<f64> = analyze_ns.iter().map(|ns| ns / 1e3).collect();
    let tick_us: Vec<f64> = tick_ns.iter().map(|ns| ns / 1e3).collect();
    report.metric(
        "runtime.analyze_us_p99",
        quantile(&analyze_us, 0.99),
        "us",
        analyze_us.len(),
    );
    report.metric(
        "runtime.flushes_per_kop",
        ratio(stats.flushes as f64 * 1e3, total),
        "count",
        n,
    );
    report.metric(
        "runtime.contended_ratio",
        ratio(stats.contended as f64, total),
        "ratio",
        n,
    );
    report.metric("runtime.switches", stats.switches as f64, "count", n);
    report.metric("runtime.rollbacks", stats.rollbacks as f64, "count", n);
    report.metric(
        "runtime.strategy_migrations",
        state.map.strategy_migrations() as f64,
        "count",
        n,
    );
    report.metric("runtime.lost_ops", lost as f64, "count", n);
    report.metric(
        "obs.tick_us_p50",
        quantile(&tick_us, 0.5),
        "us",
        tick_us.len(),
    );
    report.metric(
        "obs.tick_us_p99",
        quantile(&tick_us, 0.99),
        "us",
        tick_us.len(),
    );
    // Flips worker 0 crossed in runtime halves (phase 0 is the detector's
    // warm-up), and how many of them saw at least one phase-shift incident.
    let flips = state.gens[0].phase().saturating_sub(1);
    shift_phases.sort_unstable();
    shift_phases.dedup();
    let detected = shift_phases.iter().filter(|&&p| p > 0).count();
    report.metric(
        "obs.phase_shift_recall",
        ratio(detected as f64, flips as f64),
        "ratio",
        n,
    );
    report.metric("telemetry.export_ms", median(&export_ms), "ms", EXPORTS);
    let wall = |traced: bool| {
        median(
            &rounds
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.t_rt.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    report.metric("trace.overhead", wall(true) / wall(false) - 1.0, "ratio", n);
    log
}

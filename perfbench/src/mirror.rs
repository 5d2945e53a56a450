//! A mirror of `cs_workloads::runner::run_app` that puts each instance's
//! create, script and drop under the benchmark's own clock.
//!
//! The per-instance scripts, the order of RNG draws, the retained live set
//! and the analysis cadence (one `Switch::analyze_now` every
//! [`ANALYZE_EVERY`] created instances) are the runner's, so selections,
//! checksums and byte counts are the runner's too; the equivalence test in
//! `tests/mirror_equivalence.rs` holds the two together.
//!
//! One loop iteration is one *instance* span: the analysis pass the
//! iteration triggers, the `create_*` call, the script, and the drop of the
//! instance that leaves the live set in that iteration (the runner keeps
//! `retained` instances alive, so each drop lands `retained` iterations
//! after its create). Instances still live when a site ends are dropped in
//! `drop` spans directly under the app span.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cs_collections::{AnyList, AnyMap, AnySet, HeapSize};
use cs_core::{EngineEvent, Switch, SwitchList, SwitchMap, SwitchSet};
use cs_workloads::drive::{DriveList, DriveMap, DriveSet};
use cs_workloads::{AppSpec, Mode, SiteKind, SiteSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Name, SpanLog, Tag, NONE};

/// The runner's analysis cadence, in created instances.
pub const ANALYZE_EVERY: usize = 128;

/// One op in `OP_SAMPLE_MASK + 1` is wall-clocked.
pub const OP_SAMPLE_MASK: u64 = 127;

/// Counts the ops the scripts issue, times one in 128 of them, and, when a
/// span log is attached, records spans around every call into a layer.
#[derive(Debug)]
pub struct Recorder {
    ops: u64,
    samples: Vec<u32>,
    /// The span log of a traced pass; `None` keeps the mirror untraced.
    pub log: Option<SpanLog>,
    next_group: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            ops: 0,
            samples: Vec::new(),
            log: None,
            next_group: 0,
        }
    }

    /// Runs one collection op, timing it when it is the sampled one.
    #[inline(always)]
    fn op<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.ops += 1;
        if self.ops & OP_SAMPLE_MASK != 0 {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos();
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        out
    }

    #[inline]
    pub(crate) fn open(&mut self, name: Name, tag: Tag, parent: u32, group: u64, site: u16) -> u32 {
        match &mut self.log {
            Some(log) => log.open(name, tag, parent, group, site),
            None => NONE,
        }
    }

    #[inline]
    pub(crate) fn close(&mut self, id: u32, ops: u64) {
        if let Some(log) = &mut self.log {
            log.close(id, ops);
        }
    }

    fn new_group(&mut self) -> u64 {
        self.next_group += 1;
        self.next_group
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Outcome of one mirrored `run_app`.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Wall time of the site loop, as the runner measures it.
    pub wall: Duration,
    pub checksum: u64,
    pub peak_bytes: usize,
    pub allocated_bytes: u64,
    /// Collection ops issued.
    pub ops: u64,
    /// Sampled op latencies, nanoseconds.
    pub op_ns: Vec<u32>,
    /// Variant each site ended on, in site order.
    pub final_kinds: Vec<String>,
    /// `Switch::analyze_now` calls (FullAdap only).
    pub analyze_calls: u64,
    /// Variant switches summed over the app's contexts.
    pub switches: u64,
    pub rollbacks: u64,
    pub quarantines: u64,
    /// Workload profiles the bounded per-site sinks discarded.
    pub profiles_dropped: u64,
}

/// Which variant tag a script span gets.
trait Tagged {
    fn tag(&self) -> Tag;
}

macro_rules! raw_tag {
    ($($ty:ty),*) => {$(
        impl Tagged for $ty {
            fn tag(&self) -> Tag {
                Tag::Raw
            }
        }
    )*};
}
raw_tag!(AnyList<i64>, AnySet<i64>, AnyMap<i64, i64>);

macro_rules! handle_tag {
    ($($ty:ty),*) => {$(
        impl Tagged for $ty {
            fn tag(&self) -> Tag {
                if self.is_monitored() {
                    Tag::Monitored
                } else {
                    Tag::Unmonitored
                }
            }
        }
    )*};
}
handle_tag!(SwitchList<i64>, SwitchSet<i64>, SwitchMap<i64, i64>);

fn key_span(size: usize, spec: &SiteSpec) -> i64 {
    (size.max(1) as f64 / (1.0 - spec.mix.miss_rate).max(0.05)) as i64
}

fn drive_list<L: DriveList<i64>>(
    c: &mut L,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
    checksum: &mut u64,
    rec: &mut Recorder,
) {
    for k in 0..size as i64 {
        rec.op(|| c.push(k));
    }
    let lookups = spec.mix.lookups(size);
    let span = key_span(size, spec);
    for _ in 0..lookups {
        let key = rng.gen_range(0..span.max(1));
        *checksum += u64::from(rec.op(|| c.contains(&key)));
    }
    for _ in 0..spec.mix.iterates {
        *checksum += rec.op(|| c.iterate()) as u64;
    }
    for _ in 0..spec.mix.middles {
        if !c.is_empty() {
            let mid = c.len() / 2;
            rec.op(|| c.insert_at(mid, -1));
            *checksum += rec.op(|| c.remove_at(mid)).unsigned_abs();
        }
    }
}

fn drive_set<S: DriveSet<i64>>(
    c: &mut S,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
    checksum: &mut u64,
    rec: &mut Recorder,
) {
    for k in 0..size as i64 {
        rec.op(|| c.insert(k));
    }
    let lookups = spec.mix.lookups(size);
    let span = key_span(size, spec);
    for _ in 0..lookups {
        let key = rng.gen_range(0..span.max(1));
        *checksum += u64::from(rec.op(|| c.contains(&key)));
    }
    for _ in 0..spec.mix.iterates {
        *checksum += rec.op(|| c.iterate()) as u64;
    }
    for _ in 0..spec.mix.middles {
        let key = (size / 2) as i64;
        *checksum += u64::from(rec.op(|| c.remove(&key)));
        rec.op(|| c.insert(key));
    }
}

fn drive_map<M: DriveMap<i64, i64>>(
    c: &mut M,
    size: usize,
    spec: &SiteSpec,
    rng: &mut StdRng,
    checksum: &mut u64,
    rec: &mut Recorder,
) {
    for k in 0..size as i64 {
        rec.op(|| c.insert(k, k.wrapping_mul(3)));
    }
    let lookups = spec.mix.lookups(size);
    let span = key_span(size, spec);
    for _ in 0..lookups {
        let key = rng.gen_range(0..span.max(1));
        *checksum += u64::from(rec.op(|| c.get(&key)));
    }
    for _ in 0..spec.mix.iterates {
        *checksum += rec.op(|| c.iterate()) as u64;
    }
    for _ in 0..spec.mix.middles {
        let key = (size / 2) as i64;
        *checksum += rec.op(|| c.remove(&key)).map_or(0, |v| v.unsigned_abs());
        rec.op(|| c.insert(key, key));
    }
}

/// Bookkeeping of one site loop.
#[derive(Default)]
struct SiteTotals {
    peak_bytes: usize,
    allocated_bytes: u64,
    checksum: u64,
    ops: u64,
}

/// Where a site loop sits in the app run.
struct Cursor<'a> {
    engine: Option<&'a Switch>,
    instances_done: &'a mut usize,
    analyze_calls: &'a mut u64,
    app_span: u32,
    site: u16,
    /// Tag of `create` and `drop` spans: raw variant or handle.
    path: Tag,
}

type Script<C> = fn(&mut C, usize, &SiteSpec, &mut StdRng, &mut u64, &mut Recorder);

fn site_loop<C: HeapSize + Tagged>(
    spec: &SiteSpec,
    rng: &mut StdRng,
    rec: &mut Recorder,
    at: Cursor<'_>,
    make: impl Fn() -> C,
    script: Script<C>,
) -> SiteTotals {
    let mut totals = SiteTotals::default();
    let mut live: VecDeque<(C, usize)> = VecDeque::with_capacity(spec.retained + 1);
    let mut live_bytes = 0usize;
    let ops_before = rec.ops;
    for _ in 0..spec.instances {
        let group = rec.new_group();
        let instance = rec.open(Name::Instance, at.path, at.app_span, group, at.site);
        *at.instances_done += 1;
        if let Some(engine) = at.engine {
            if (*at.instances_done).is_multiple_of(ANALYZE_EVERY) {
                let span = rec.open(Name::Analyze, Tag::None, instance, group, at.site);
                engine.analyze_now();
                rec.close(span, 0);
                *at.analyze_calls += 1;
            }
        }
        let size = spec.sizes.sample(rng);
        let span = rec.open(Name::Create, at.path, instance, group, at.site);
        let mut c = make();
        rec.close(span, 0);
        let span = rec.open(Name::Script, c.tag(), instance, group, at.site);
        let ops = rec.ops;
        script(&mut c, size, spec, rng, &mut totals.checksum, rec);
        let ops = rec.ops - ops;
        rec.close(span, ops);
        let bytes = c.heap_bytes();
        live_bytes += bytes;
        live.push_back((c, bytes));
        if live.len() > spec.retained {
            let (old, old_bytes) = live.pop_front().expect("live set is nonempty");
            live_bytes -= old_bytes;
            totals.allocated_bytes += old.allocated_bytes();
            let span = rec.open(Name::Drop, at.path, instance, group, at.site);
            drop(old);
            rec.close(span, 0);
        }
        totals.peak_bytes = totals.peak_bytes.max(live_bytes);
        rec.close(instance, 0);
    }
    for (c, _) in live {
        totals.allocated_bytes += c.allocated_bytes();
        let span = rec.open(Name::Drop, at.path, at.app_span, 0, at.site);
        drop(c);
        rec.close(span, 0);
    }
    totals.ops = rec.ops - ops_before;
    totals
}

/// Runs `app` under `mode` with `seed`, exactly as
/// `cs_workloads::runner::run_app` does, recording into `rec`. `parent` is
/// the span the app span hangs under and `app_index` numbers its sites in
/// span records.
pub fn run_app(
    app: &AppSpec,
    mode: &Mode,
    seed: u64,
    rec: &mut Recorder,
    parent: u32,
    app_index: u16,
) -> AppRun {
    let engine = match mode {
        Mode::FullAdap(rule) => Some(Switch::builder().rule(rule.clone()).build()),
        Mode::Original => None,
        Mode::InstanceAdap => panic!("the benchmark does not run InstanceAdap"),
    };
    let path = if engine.is_some() {
        Tag::Adaptive
    } else {
        Tag::Raw
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut instances_done = 0usize;
    let mut analyze_calls = 0u64;
    let mut final_kinds = Vec::with_capacity(app.sites.len());
    let (mut checksum, mut peak, mut allocated, mut ops) = (0u64, 0usize, 0u64, 0u64);

    let app_span = rec.open(Name::App, path, parent, 0, app_index * 64);
    let start = Instant::now();
    for (i, spec) in app.sites.iter().enumerate() {
        let at = Cursor {
            engine: engine.as_ref(),
            instances_done: &mut instances_done,
            analyze_calls: &mut analyze_calls,
            app_span,
            site: app_index * 64 + i as u16,
            path,
        };
        let (totals, final_kind) = match (spec.kind, &engine) {
            (SiteKind::List(default), None) => (
                site_loop(
                    spec,
                    &mut rng,
                    rec,
                    at,
                    || AnyList::new(default),
                    drive_list,
                ),
                default.to_string(),
            ),
            (SiteKind::Set(default), None) => (
                site_loop(spec, &mut rng, rec, at, || AnySet::new(default), drive_set),
                default.to_string(),
            ),
            (SiteKind::Map(default), None) => (
                site_loop(spec, &mut rng, rec, at, || AnyMap::new(default), drive_map),
                default.to_string(),
            ),
            (SiteKind::List(default), Some(engine)) => {
                let ctx = engine.named_list_context::<i64>(default, spec.name.clone());
                let totals = site_loop(spec, &mut rng, rec, at, || ctx.create_list(), drive_list);
                (totals, ctx.current_kind().to_string())
            }
            (SiteKind::Set(default), Some(engine)) => {
                let ctx = engine.named_set_context::<i64>(default, spec.name.clone());
                let totals = site_loop(spec, &mut rng, rec, at, || ctx.create_set(), drive_set);
                (totals, ctx.current_kind().to_string())
            }
            (SiteKind::Map(default), Some(engine)) => {
                let ctx = engine.named_map_context::<i64, i64>(default, spec.name.clone());
                let totals = site_loop(spec, &mut rng, rec, at, || ctx.create_map(), drive_map);
                (totals, ctx.current_kind().to_string())
            }
        };
        checksum = checksum.wrapping_add(totals.checksum);
        peak += totals.peak_bytes;
        allocated += totals.allocated_bytes;
        ops += totals.ops;
        final_kinds.push(final_kind);
    }
    let wall = start.elapsed();
    rec.close(app_span, ops);

    let (mut switches, mut rollbacks, mut quarantines, mut profiles_dropped) = (0, 0, 0, 0);
    if let Some(engine) = &engine {
        switches = engine
            .context_summaries()
            .iter()
            .map(|c| c.stats.switches)
            .sum();
        for event in engine.event_log() {
            match event {
                EngineEvent::Rollback(_) => rollbacks += 1,
                EngineEvent::Quarantine(_) => quarantines += 1,
                _ => {}
            }
        }
        profiles_dropped = engine.health().profiles_dropped;
    }
    AppRun {
        wall,
        checksum,
        peak_bytes: peak,
        allocated_bytes: allocated,
        ops,
        op_ns: std::mem::take(&mut rec.samples),
        final_kinds,
        analyze_calls,
        switches,
        rollbacks,
        quarantines,
        profiles_dropped,
    }
}

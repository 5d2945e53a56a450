//! The `apps_rtime` and `apps_ralloc` workloads: the five synthetic DaCapo
//! apps, single-threaded. Each pass runs every app under `Mode::Original`
//! and then under `FullAdap(rule)` with the run's seed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cs_core::SelectionRule;
use cs_workloads::{apps, AppSpec, Mode};

use crate::mirror::{self, AppRun, Recorder};
use crate::report::{mib, Report};
use crate::stats::{median, quantile, ratio, Hist};
use crate::trace::{Name, SpanLog, Tag, NONE};

/// App scale (`cs_workloads::apps::all_apps`): one pass takes about a
/// second on one core, so a run holds a median's worth of passes.
pub const SCALE: usize = 2;

/// Traced passes whose spans are kept; the span log of one pass holds about
/// 310k spans.
const MAX_TRACED_PASSES: usize = 2;

/// Sites per app kept in the warm-up pass.
const WARMUP_SITES: usize = 2;

/// Builds the workload's inputs and warms up: generates the app specs, then
/// runs the first sites of every app at scale 1 under both modes, which
/// builds engines and materialises the default models on first use.
pub fn setup(rule: &SelectionRule, seed: u64) -> Vec<AppSpec> {
    let specs = apps::all_apps(SCALE);
    let mut rec = Recorder::new();
    for app in apps::all_apps(1) {
        let warm = AppSpec {
            name: app.name,
            sites: app.sites.into_iter().take(WARMUP_SITES).collect(),
        };
        for mode in [Mode::Original, Mode::FullAdap(rule.clone())] {
            std::hint::black_box(mirror::run_app(&warm, &mode, seed, &mut rec, NONE, 0));
        }
    }
    specs
}

/// One pass: every app under Original, then under FullAdap.
struct Pass {
    orig: Vec<AppRun>,
    full: Vec<AppRun>,
    wall: Duration,
    traced: bool,
}

impl Pass {
    fn orig_wall(&self) -> f64 {
        self.orig.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    fn full_wall(&self) -> f64 {
        self.full.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    fn speedup(&self) -> f64 {
        self.orig_wall() / self.full_wall()
    }

    fn ops_per_s(&self) -> f64 {
        self.full.iter().map(|r| r.ops).sum::<u64>() as f64 / self.full_wall()
    }
}

fn run_pass(
    specs: &[AppSpec],
    rule: &SelectionRule,
    seed: u64,
    rec: &mut Recorder,
    epoch: Option<Instant>,
) -> (Pass, Option<SpanLog>) {
    rec.log = epoch.map(SpanLog::new);
    let start = Instant::now();
    let pass_span = rec.open(Name::Pass, Tag::None, NONE, 0, 0);
    let (mut orig, mut full) = (Vec::new(), Vec::new());
    for (i, app) in specs.iter().enumerate() {
        let i = i as u16;
        orig.push(mirror::run_app(
            app,
            &Mode::Original,
            seed,
            rec,
            pass_span,
            i,
        ));
        let mode = Mode::FullAdap(rule.clone());
        full.push(mirror::run_app(app, &mode, seed, rec, pass_span, i));
    }
    rec.close(pass_span, 0);
    let pass = Pass {
        orig,
        full,
        wall: start.elapsed(),
        traced: epoch.is_some(),
    };
    (pass, rec.log.take())
}

/// Sampled op latencies of the untraced passes, per half.
#[derive(Default)]
struct OpLatency {
    orig: Hist,
    full: Hist,
}

impl OpLatency {
    /// Moves a pass's samples into the histograms.
    fn absorb(&mut self, pass: &mut Pass) {
        for (hist, runs) in [
            (&mut self.orig, &mut pass.orig),
            (&mut self.full, &mut pass.full),
        ] {
            for run in runs.iter_mut() {
                std::mem::take(&mut run.op_ns)
                    .into_iter()
                    .for_each(|ns| hist.record(ns));
            }
        }
    }
}

/// Runs the workload for `seconds`. Untraced, it reports the end-to-end
/// metrics; traced, it alternates untraced and traced passes and reports
/// the per-layer metrics, the traced passes' from their spans.
pub fn run(
    specs: &[AppSpec],
    rule: &SelectionRule,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Option<SpanLog> {
    let epoch = Instant::now();
    let mut rec = Recorder::new();
    let mut passes = Vec::new();
    let mut latency = OpLatency::default();
    let mut log = traced.then(|| SpanLog::new(epoch));
    loop {
        let trace_this = traced && passes.len() % 2 == 1;
        let (mut pass, pass_log) =
            run_pass(specs, rule, seed, &mut rec, trace_this.then_some(epoch));
        if trace_this {
            pass.orig
                .iter_mut()
                .chain(&mut pass.full)
                .for_each(|r| r.op_ns = Vec::new());
        } else {
            latency.absorb(&mut pass);
        }
        passes.push(pass);
        if let (Some(log), Some(pass_log)) = (&mut log, pass_log) {
            log.append(pass_log);
        }
        let traced_passes = passes.iter().filter(|p| p.traced).count();
        let done = epoch.elapsed().as_secs_f64() >= seconds;
        if (done && (!traced || traced_passes > 0)) || traced_passes >= MAX_TRACED_PASSES {
            break;
        }
    }

    for (p, pass) in passes.iter().enumerate() {
        for (app, (orig, full)) in pass.orig.iter().zip(&pass.full).enumerate() {
            report.check(orig.checksum == full.checksum, || {
                format!(
                    "pass {p} app {}: FullAdap checksum {} != Original {}",
                    specs[app].name, full.checksum, orig.checksum
                )
            });
        }
    }
    report.param("app_scale", SCALE);
    report.param("rule", rule.name());
    report.param("analyze_every_instances", mirror::ANALYZE_EVERY);
    report.param("op_sample_every", mirror::OP_SAMPLE_MASK + 1);
    report.param("passes", passes.len());
    table5_rows(specs, rule, &passes, report);
    timings(&passes, &latency, traced, report);
    if let Some(log) = &log {
        per_layer(&passes, log, report);
    }
    log
}

/// Timings of the untraced passes: the steady ratios against the Original
/// half as end-to-end metrics; the wall-clock figures, which follow the
/// host's speed, and the p50 ratio, which is bimodal across processes on
/// `runtime_phased`, as per-layer metrics.
fn timings(passes: &[Pass], latency: &OpLatency, traced: bool, report: &mut Report) {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let n = untraced.len();
    let speedups: Vec<f64> = untraced.iter().map(|p| p.speedup()).collect();
    let throughput: Vec<f64> = untraced.iter().map(|p| p.ops_per_s()).collect();
    let samples = latency.full.len() as usize;
    let (full, orig) = (&latency.full, &latency.orig);
    if traced {
        report.metric("ops_per_s", median(&throughput), "1/s", n);
        report.metric("op_ns_p50", full.quantile(0.5), "ns", samples);
        report.metric("op_ns_p99", full.quantile(0.99), "ns", samples);
        report.metric(
            "op_p50_vs_original",
            full.quantile(0.5) / orig.quantile(0.5),
            "ratio",
            samples,
        );
        return;
    }
    report.metric("speedup_vs_original", median(&speedups), "ratio", n);
    report.metric(
        "op_p99_vs_original",
        full.quantile(0.99) / orig.quantile(0.99),
        "ratio",
        samples,
    );
    report.log.push(format!(
        "# passes {n}: speedup_vs_original median {:.4} min {:.4} max {:.4}; FullAdap ops_per_s median {:.0} min {:.0} max {:.0}",
        median(&speedups),
        quantile(&speedups, 0.0),
        quantile(&speedups, 1.0),
        median(&throughput),
        quantile(&throughput, 0.0),
        quantile(&throughput, 1.0),
    ));
    report.log.push(format!(
        "# sampled op ns (n={samples} per half): FullAdap p50 {:.1} p99 {:.1}; Original p50 {:.1} p99 {:.1}",
        full.quantile(0.5),
        full.quantile(0.99),
        orig.quantile(0.5),
        orig.quantile(0.99),
    ));
}

/// The per-app Table 5 rows: for reading against the paper, not gated.
fn table5_rows(specs: &[AppSpec], rule: &SelectionRule, passes: &[Pass], report: &mut Report) {
    report.log.push(format!(
        "# table5 ({}, medians over {} passes)  app | T_orig ms | T_full ms | speedup | M_orig MB | M_full MB | dM % | switches | rollbacks",
        rule.name(),
        passes.len()
    ));
    for (a, spec) in specs.iter().enumerate() {
        let col = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let t_orig = col(&|p| p.orig[a].wall.as_secs_f64() * 1e3);
        let t_full = col(&|p| p.full[a].wall.as_secs_f64() * 1e3);
        let speedup = col(&|p| p.orig[a].wall.as_secs_f64() / p.full[a].wall.as_secs_f64());
        let m_orig = col(&|p| mib(p.orig[a].peak_bytes as f64));
        let m_full = col(&|p| mib(p.full[a].peak_bytes as f64));
        let switches: u64 = passes.iter().map(|p| p.full[a].switches).sum();
        let rollbacks: u64 = passes.iter().map(|p| p.full[a].rollbacks).sum();
        report.log.push(format!(
            "# table5 {:<9} | {:>9.2} | {:>9.2} | {:>7.3} | {:>9.3} | {:>9.3} | {:>+5.1} | {:>8} | {:>9}",
            spec.name,
            t_orig,
            t_full,
            speedup,
            m_orig,
            m_full,
            100.0 * (m_orig - m_full) / m_orig,
            switches,
            rollbacks
        ));
    }
}

/// Sum of durations and ops over the `name` spans tagged `tag`, with their
/// count.
fn sum_spans(log: &SpanLog, name: Name, tag: Tag) -> (f64, f64, usize) {
    log.spans
        .iter()
        .filter(|s| s.name == name && s.tag == tag)
        .fold((0.0, 0.0, 0), |(ns, ops, n), s| {
            (ns + s.dur_ns() as f64, ops + s.ops as f64, n + 1)
        })
}

/// Per-site ns/op of the raw scripts, then the ratio of the `tag` scripts'
/// time to what the same ops cost on their site's raw variant.
fn over_raw(log: &SpanLog, tag: Tag) -> f64 {
    let mut raw: BTreeMap<u16, (f64, f64)> = BTreeMap::new();
    let mut adapt: BTreeMap<u16, (f64, f64)> = BTreeMap::new();
    for s in log.spans.iter().filter(|s| s.name == Name::Script) {
        let map = match s.tag {
            Tag::Raw => &mut raw,
            t if t == tag => &mut adapt,
            _ => continue,
        };
        let e = map.entry(s.site).or_default();
        e.0 += s.dur_ns() as f64;
        e.1 += s.ops as f64;
    }
    let (mut spent, mut at_raw) = (0.0, 0.0);
    for (site, (ns, ops)) in adapt {
        if let Some(&(raw_ns, raw_ops)) = raw.get(&site) {
            if raw_ops > 0.0 {
                spent += ns;
                at_raw += ops * raw_ns / raw_ops;
            }
        }
    }
    ratio(spent, at_raw)
}

fn per_layer(passes: &[Pass], log: &SpanLog, report: &mut Report) {
    let n = passes.len();
    let per_pass = |f: &dyn Fn(&AppRun) -> u64| -> f64 {
        passes
            .iter()
            .map(|p| p.full.iter().map(f).sum::<u64>() as f64)
            .sum::<f64>()
            / n as f64
    };

    let (raw_ns, raw_ops, _) = sum_spans(log, Name::Script, Tag::Raw);
    report.metric(
        "collections.op_ns",
        ratio(raw_ns, raw_ops),
        "ns",
        raw_ops as usize,
    );
    for (metric, name) in [
        ("core.handle.create_ns", Name::Create),
        ("core.handle.drop_ns", Name::Drop),
    ] {
        let (ns, _, count) = sum_spans(log, name, Tag::Adaptive);
        report.metric(metric, ratio(ns, count as f64), "ns", count);
    }
    let (un_ns, un_ops, un_n) = sum_spans(log, Name::Script, Tag::Unmonitored);
    let (mon_ns, mon_ops, mon_n) = sum_spans(log, Name::Script, Tag::Monitored);
    report.metric(
        "core.handle.unmonitored_op_ns",
        ratio(un_ns, un_ops),
        "ns",
        un_ops as usize,
    );
    report.metric(
        "core.handle.monitored_op_ns",
        ratio(mon_ns, mon_ops),
        "ns",
        mon_ops as usize,
    );
    report.metric(
        "core.handle.monitored_share",
        ratio(mon_n as f64, (mon_n + un_n) as f64),
        "ratio",
        mon_n + un_n,
    );
    report.metric(
        "core.handle.unmonitored_over_raw",
        over_raw(log, Tag::Unmonitored),
        "ratio",
        un_n,
    );
    report.metric(
        "core.handle.monitored_over_raw",
        over_raw(log, Tag::Monitored),
        "ratio",
        mon_n,
    );

    let analyze_us: Vec<f64> = log
        .spans
        .iter()
        .filter(|s| s.name == Name::Analyze)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    let (full_app_ns, _, _) = sum_spans(log, Name::App, Tag::Adaptive);
    report.metric(
        "core.engine.analyze_calls",
        per_pass(&|r| r.analyze_calls),
        "count",
        n,
    );
    report.metric(
        "core.engine.analyze_us_p50",
        quantile(&analyze_us, 0.5),
        "us",
        analyze_us.len(),
    );
    report.metric(
        "core.engine.analyze_us_p99",
        quantile(&analyze_us, 0.99),
        "us",
        analyze_us.len(),
    );
    report.metric(
        "core.engine.analyze_busy_share",
        ratio(analyze_us.iter().sum::<f64>() * 1e3, full_app_ns),
        "ratio",
        analyze_us.len(),
    );
    let switches = per_pass(&|r| r.switches);
    let rollbacks = per_pass(&|r| r.rollbacks);
    report.metric("core.engine.switches", switches, "count", n);
    report.metric("core.engine.rollbacks", rollbacks, "count", n);
    report.metric(
        "core.engine.quarantines",
        per_pass(&|r| r.quarantines),
        "count",
        n,
    );
    report.metric(
        "core.engine.rollback_ratio",
        ratio(rollbacks, switches),
        "ratio",
        n,
    );
    report.metric(
        "core.engine.kind_agreement",
        kind_agreement(passes),
        "ratio",
        n,
    );
    report.metric(
        "core.engine.profiles_dropped",
        per_pass(&|r| r.profiles_dropped),
        "count",
        n,
    );

    let instance_us: Vec<f64> = log
        .spans
        .iter()
        .filter(|s| s.name == Name::Instance && s.tag == Tag::Adaptive)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    report.metric(
        "apps.instance_us_p50",
        quantile(&instance_us, 0.5),
        "us",
        instance_us.len(),
    );
    report.metric(
        "apps.instance_us_p99",
        quantile(&instance_us, 0.99),
        "us",
        instance_us.len(),
    );
    let peak: Vec<f64> = passes
        .iter()
        .map(|p| mib(p.full.iter().map(|r| r.peak_bytes as f64).sum()))
        .collect();
    let alloc: Vec<f64> = passes
        .iter()
        .map(|p| mib(p.full.iter().map(|r| r.allocated_bytes as f64).sum()))
        .collect();
    report.metric("apps.peak_mb", median(&peak), "MB", n);
    report.metric("apps.alloc_mb", median(&alloc), "MB", n);

    // Children's self times must account for each instance's duration.
    let selfs = log.self_ns();
    let (inst_ns, inst_self_ns) = log
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == Name::Instance)
        .fold((0.0, 0.0), |(d, o), (s, &own)| {
            (d + s.dur_ns() as f64, o + own as f64)
        });
    report.metric(
        "trace.instance_self_share",
        ratio(inst_self_ns, inst_ns),
        "ratio",
        n,
    );

    let wall = |traced: bool| {
        median(
            &passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    report.metric("trace.overhead", wall(true) / wall(false) - 1.0, "ratio", n);
}

/// Share of (site, pass) pairs in which a FullAdap site ended on the
/// variant it ended on most often across the run's passes.
fn kind_agreement(passes: &[Pass]) -> f64 {
    let mut finals: BTreeMap<(usize, usize), BTreeMap<&str, usize>> = BTreeMap::new();
    for pass in passes {
        for (a, run) in pass.full.iter().enumerate() {
            for (s, kind) in run.final_kinds.iter().enumerate() {
                *finals
                    .entry((a, s))
                    .or_default()
                    .entry(kind.as_str())
                    .or_default() += 1;
            }
        }
    }
    let (modal, total) = finals.values().fold((0, 0), |(m, t), kinds| {
        (
            m + kinds.values().max().copied().unwrap_or(0),
            t + kinds.values().sum::<usize>(),
        )
    });
    ratio(modal as f64, total as f64)
}

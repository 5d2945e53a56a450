//! The benchmark's apps mirror must be `cs_workloads::runner::run_app` with
//! a clock attached: same checksums, same byte counts, same selections.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use cs_core::SelectionRule;
use cs_perfbench::mirror::{self, AppRun, Recorder};
use cs_perfbench::report::Report;
use cs_perfbench::trace::{Name, SpanLog, NONE};
use cs_perfbench::{runtime, END_TO_END, PER_LAYER};
use cs_telemetry::Json;
use cs_workloads::{apps, runner, AppSpec, Mode};

const SEEDS: [u64; 2] = [7, 90_210];

fn mirror(app: &AppSpec, mode: &Mode, seed: u64) -> AppRun {
    mirror::run_app(app, mode, seed, &mut Recorder::new(), NONE, 0)
}

#[test]
fn mirror_reproduces_runner_bytes_under_original_and_r_alloc() {
    for seed in SEEDS {
        for app in apps::all_apps(1) {
            for mode in [Mode::Original, Mode::FullAdap(SelectionRule::r_alloc())] {
                let want = runner::run_app(&app, mode.clone(), seed);
                let got = mirror(&app, &mode, seed);
                let what = format!("{} {} seed {seed}", app.name, mode.label());
                assert_eq!(got.checksum, want.checksum, "checksum, {what}");
                assert_eq!(got.peak_bytes, want.peak_bytes, "peak bytes, {what}");
                assert_eq!(
                    got.allocated_bytes, want.allocated_bytes,
                    "allocated bytes, {what}"
                );
                let want_kinds = want.sites.iter().map(|s| &s.final_kind);
                assert!(got.final_kinds.iter().eq(want_kinds), "final kinds, {what}");
            }
        }
    }
}

#[test]
fn mirror_reproduces_runner_checksum_under_r_time() {
    // Rollbacks act on measured time, so only the checksum is fixed.
    let mode = Mode::FullAdap(SelectionRule::r_time());
    for seed in SEEDS {
        for app in apps::all_apps(1) {
            let want = runner::run_app(&app, mode.clone(), seed);
            assert_eq!(
                mirror(&app, &mode, seed).checksum,
                want.checksum,
                "{}",
                app.name
            );
        }
    }
}

#[test]
fn traced_runs_nest_instance_children_and_keep_results() {
    let app = apps::h2(1);
    let mode = Mode::FullAdap(SelectionRule::r_alloc());
    let mut rec = Recorder::new();
    rec.log = Some(SpanLog::new(std::time::Instant::now()));
    let traced = mirror::run_app(&app, &mode, 5, &mut rec, NONE, 0);
    let untraced = mirror(&app, &mode, 5);
    assert_eq!(traced.checksum, untraced.checksum);
    assert_eq!(traced.peak_bytes, untraced.peak_bytes);

    let log = rec.log.expect("log stays attached");
    let spans = &log.spans;
    let instances = spans.iter().filter(|s| s.name == Name::Instance).count();
    assert_eq!(instances, app.total_instances());
    for s in spans {
        match s.name {
            Name::Create | Name::Script | Name::Analyze => {
                let parent = &spans[s.parent as usize];
                assert_eq!(parent.name, Name::Instance);
                assert_eq!(parent.group, s.group, "children share the instance's id");
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
            Name::Instance => assert_eq!(spans[s.parent as usize].name, Name::App),
            _ => {}
        }
    }
    let scripts: u64 = spans
        .iter()
        .filter(|s| s.name == Name::Script)
        .map(|s| s.ops)
        .sum();
    assert_eq!(scripts, traced.ops, "script spans count every op");
}

#[test]
fn runtime_run_loses_no_ops_and_serves_a_valid_page() {
    let mut report = Report::default();
    runtime::run(runtime::setup(11), 0.01, false, &mut report);
    assert_eq!(report.attempted, 2);
    assert_eq!(report.failed, 0, "{:?}", report.log);
}

/// `BENCHMARK.json` lists exactly the metrics the command prints.
#[test]
fn benchmark_json_matches_the_metric_lists() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}

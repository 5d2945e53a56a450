//! The handle op path opens an allocation guard on every monitored op and
//! on no unmonitored one.
//!
//! Guards nest with exclusion: allocations a finished inner guard
//! attributed are excluded from every enclosing guard. An outer guard
//! around a handle's ops therefore sees the ops' churn only when the
//! handle opened no guard of its own. This binary installs the counting
//! allocator so the ledgers are live.

use cs_collections::SetKind;
use cs_core::Switch;
use cs_heap::AllocGuard;
use cs_profile::WindowConfig;

#[global_allocator]
static ALLOC: cs_heap::CountingAlloc = cs_heap::CountingAlloc;

/// Net allocation events an enclosing guard attributes while 512 values
/// are inserted through `insert`.
fn outer_attribution(mut insert: impl FnMut(u64)) -> u64 {
    let outer = AllocGuard::begin();
    for v in 0..512 {
        insert(v);
    }
    outer.finish().count
}

#[test]
fn only_monitored_ops_open_an_alloc_guard() {
    let engine = Switch::builder()
        .window(WindowConfig {
            window_size: 1,
            min_samples: 1,
            ..WindowConfig::default()
        })
        .build();
    let ctx = engine.set_context::<u64>(SetKind::Chained);
    let mut monitored = ctx.create_set();
    let mut unmonitored = ctx.create_set();
    assert!(monitored.is_monitored());
    assert!(!unmonitored.is_monitored());

    // 512 inserts rehash the chained table several times.
    let seen_around_unmonitored = outer_attribution(|v| {
        unmonitored.insert(v);
    });
    assert!(
        seen_around_unmonitored > 0,
        "an unmonitored op opens no guard: its churn stays with the caller"
    );
    let seen_around_monitored = outer_attribution(|v| {
        monitored.insert(v);
    });
    assert_eq!(
        seen_around_monitored, 0,
        "every monitored op attributes its own churn, leaving none to the caller"
    );
}

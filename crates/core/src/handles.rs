//! Switch handles: what `ctx.create_*()` returns.
//!
//! A handle owns the underlying variant (an [`AnyList`]/[`AnySet`]/
//! [`AnyMap`]) and, when the allocation context sampled this instance for
//! monitoring, an [`OpRecorder`] fed by the shared op-recording primitive
//! [`record_op`] on the instance's own [`OpClock`]: every critical op is
//! counted and its allocations attributed, and one op in
//! 2^[`HANDLE_SAMPLE_SHIFT`] is wall-clocked. Only growth ops (populate,
//! list middle-insert) read a size: a handle starts empty, so its maximum
//! size is only ever reached by growth. When the handle is dropped, the
//! recorder is folded into a
//! [`WorkloadProfile`](cs_profile::WorkloadProfile) and pushed into the
//! context's sink — the Rust equivalent of the paper's `WeakReference`-based
//! end-of-life detection (§4.3), but exact and overhead-free.

use std::hash::Hash;

use cs_collections::{AnyList, AnyMap, AnySet, HeapSize, ListOps, MapOps, SetOps};
use cs_profile::{record_op, OpClock, OpKind, OpRecorder, ProfileSink};

/// Monitored handle ops are wall-clocked one in `2^HANDLE_SAMPLE_SHIFT`
/// (1 in 64), counted on each instance's own [`OpClock`] from a
/// per-instance phase; counts, maximum sizes and allocation attribution
/// stay exact on every op.
///
/// A clocked op pays two `Instant::now()` calls (about 45 ns each on a
/// 2-vCPU x86 VM with a TSC clock source), several times a raw variant op.
/// On that host the repository benchmark (`perfbench --workload apps_rtime
/// --seconds 10`, seeds 101–103) ran FullAdap(R_time) at this fraction of
/// Original's speed, when the clock was one per-thread tick read on every
/// op:
///
/// | clocked ops | `speedup_vs_original` |
/// |---|---|
/// | every op | 0.29–0.31 |
/// | 1 in 8 | 0.74 |
/// | 1 in 64 | 0.92–0.93 |
/// | 1 in 256 | 0.96–0.97 |
///
/// Keeping the clock state in the instance (no thread-local read, no
/// allocation guard without a counting allocator) and reading sizes on
/// growth ops only moved 1 in 64 from a median of 0.88 to 0.93
/// (`--seconds 30`, seeds 1101–1110).
///
/// 1 in 64 keeps most of the gain while a typical monitoring window
/// (60 finished instances of about 100 ops) still clocks about 90 ops,
/// above the default
/// [`WindowConfig::min_timed_ops`](cs_profile::WindowConfig::min_timed_ops)
/// of 64; at 1 in 256 the same window clocks about 23 and post-switch
/// verification would stop judging most sites.
pub const HANDLE_SAMPLE_SHIFT: u32 = 6;

/// Monitoring payload carried by sampled instances.
#[derive(Debug)]
pub(crate) struct Monitor {
    recorder: OpRecorder,
    clock: OpClock,
    sink: ProfileSink,
}

impl Monitor {
    pub(crate) fn new(sink: ProfileSink) -> Self {
        Monitor {
            recorder: OpRecorder::new(),
            clock: OpClock::for_instance(HANDLE_SAMPLE_SHIFT),
            sink,
        }
    }

    fn finish(self) {
        let Monitor { recorder, sink, .. } = self;
        sink.push(recorder.finish());
    }
}

/// Runs one growth op (populate, list middle-insert). `body` returns
/// `(result, size)`, the size read after the op so the recorder sees the
/// post-op length. A monitored instance records the op through
/// [`record_op`]; an unmonitored one runs the body alone — no tick, no
/// guard, no clock read.
#[inline]
fn observe_growth<R>(
    monitor: &mut Option<Monitor>,
    op: OpKind,
    body: impl FnOnce() -> (R, usize),
) -> R {
    match monitor {
        // Single-owner handles don't know their context id; the op span is
        // site-anonymous (site 0), unlike the runtime's per-site op spans.
        Some(m) => record_op(&mut m.clock, 0, op, body, |_, sample| {
            m.recorder.absorb(sample)
        }),
        None => body().0,
    }
}

/// Runs one critical op that cannot grow the collection. It reports size
/// 0, which never raises the recorded maximum, so the op reads no size.
#[inline]
fn observe<R>(monitor: &mut Option<Monitor>, op: OpKind, body: impl FnOnce() -> R) -> R {
    observe_growth(monitor, op, || (body(), 0))
}

/// A list handle created by a [`ListContext`](crate::ListContext).
///
/// Forwards every operation to the underlying variant; monitored instances
/// additionally count the paper's critical operations (populate, contains,
/// iterate, middle).
///
/// # Examples
///
/// ```
/// use cs_collections::ListKind;
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let ctx = engine.list_context::<i32>(ListKind::Array);
/// let mut list = ctx.create_list();
/// list.push(1);
/// list.insert(0, 0);
/// assert_eq!(list.as_vec(), vec![0, 1]);
/// ```
#[derive(Debug)]
pub struct SwitchList<T: Eq + Hash + Clone> {
    inner: AnyList<T>,
    monitor: Option<Monitor>,
}

impl<T: Eq + Hash + Clone> SwitchList<T> {
    pub(crate) fn new(inner: AnyList<T>, monitor: Option<Monitor>) -> Self {
        SwitchList { inner, monitor }
    }

    /// Whether this instance was sampled for monitoring.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The underlying variant.
    pub fn inner(&self) -> &AnyList<T> {
        &self.inner
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        ListOps::len(&self.inner)
    }

    /// Returns `true` if the list holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `value` (critical op: *populate*).
    pub fn push(&mut self, value: T) {
        observe_growth(&mut self.monitor, OpKind::Populate, || {
            (
                ListOps::push(&mut self.inner, value),
                ListOps::len(&self.inner),
            )
        })
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        ListOps::pop(&mut self.inner)
    }

    /// Inserts at `index` (critical op: *middle*).
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        observe_growth(&mut self.monitor, OpKind::Middle, || {
            (
                ListOps::list_insert(&mut self.inner, index, value),
                ListOps::len(&self.inner),
            )
        })
    }

    /// Removes at `index` (critical op: *middle*).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        observe(&mut self.monitor, OpKind::Middle, || {
            ListOps::list_remove(&mut self.inner, index)
        })
    }

    /// Returns the element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        ListOps::get(&self.inner, index)
    }

    /// Replaces the element at `index`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: T) -> T {
        ListOps::set(&mut self.inner, index, value)
    }

    /// Membership test (critical op: *contains*).
    pub fn contains(&mut self, value: &T) -> bool {
        observe(&mut self.monitor, OpKind::Contains, || {
            ListOps::contains(&self.inner, value)
        })
    }

    /// Visits every element in order (critical op: *iterate*).
    pub fn for_each(&mut self, mut f: impl FnMut(&T)) {
        observe(&mut self.monitor, OpKind::Iterate, || {
            ListOps::for_each_value(&self.inner, &mut f)
        })
    }

    /// Copies the elements into a `Vec` (counts as an iteration).
    pub fn as_vec(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|v| out.push(v.clone()));
        out
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        ListOps::clear(&mut self.inner);
    }
}

impl<T: Eq + Hash + Clone> HeapSize for SwitchList<T> {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<T: Eq + Hash + Clone> Drop for SwitchList<T> {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            m.finish();
        }
    }
}

/// A set handle created by a [`SetContext`](crate::SetContext).
///
/// # Examples
///
/// ```
/// use cs_collections::SetKind;
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let ctx = engine.set_context::<i32>(SetKind::Chained);
/// let mut set = ctx.create_set();
/// assert!(set.insert(1));
/// assert!(set.contains(&1));
/// ```
#[derive(Debug)]
pub struct SwitchSet<T: Eq + Hash + Clone> {
    inner: AnySet<T>,
    monitor: Option<Monitor>,
}

impl<T: Eq + Hash + Clone> SwitchSet<T> {
    pub(crate) fn new(inner: AnySet<T>, monitor: Option<Monitor>) -> Self {
        SwitchSet { inner, monitor }
    }

    /// Whether this instance was sampled for monitoring.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The underlying variant.
    pub fn inner(&self) -> &AnySet<T> {
        &self.inner
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        SetOps::len(&self.inner)
    }

    /// Returns `true` if the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `value` (critical op: *populate*); returns `true` if new.
    pub fn insert(&mut self, value: T) -> bool {
        observe_growth(&mut self.monitor, OpKind::Populate, || {
            (
                SetOps::insert(&mut self.inner, value),
                SetOps::len(&self.inner),
            )
        })
    }

    /// Membership test (critical op: *contains*).
    pub fn contains(&mut self, value: &T) -> bool {
        observe(&mut self.monitor, OpKind::Contains, || {
            SetOps::contains(&self.inner, value)
        })
    }

    /// Removes `value` (critical op: *middle*); returns `true` if present.
    pub fn remove(&mut self, value: &T) -> bool {
        observe(&mut self.monitor, OpKind::Middle, || {
            SetOps::set_remove(&mut self.inner, value)
        })
    }

    /// Visits every element (critical op: *iterate*).
    pub fn for_each(&mut self, mut f: impl FnMut(&T)) {
        observe(&mut self.monitor, OpKind::Iterate, || {
            SetOps::for_each_value(&self.inner, &mut f)
        })
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        SetOps::clear(&mut self.inner);
    }
}

impl<T: Eq + Hash + Clone> HeapSize for SwitchSet<T> {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<T: Eq + Hash + Clone> Drop for SwitchSet<T> {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            m.finish();
        }
    }
}

/// A map handle created by a [`MapContext`](crate::MapContext).
///
/// # Examples
///
/// ```
/// use cs_collections::MapKind;
/// use cs_core::Switch;
///
/// let engine = Switch::builder().build();
/// let ctx = engine.map_context::<&str, i32>(MapKind::Chained);
/// let mut map = ctx.create_map();
/// map.insert("k", 1);
/// assert_eq!(map.get(&"k"), Some(&1));
/// ```
#[derive(Debug)]
pub struct SwitchMap<K: Eq + Hash + Clone, V: Clone> {
    inner: AnyMap<K, V>,
    monitor: Option<Monitor>,
}

impl<K: Eq + Hash + Clone, V: Clone> SwitchMap<K, V> {
    pub(crate) fn new(inner: AnyMap<K, V>, monitor: Option<Monitor>) -> Self {
        SwitchMap { inner, monitor }
    }

    /// Whether this instance was sampled for monitoring.
    pub fn is_monitored(&self) -> bool {
        self.monitor.is_some()
    }

    /// The underlying variant.
    pub fn inner(&self) -> &AnyMap<K, V> {
        &self.inner
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        MapOps::len(&self.inner)
    }

    /// Returns `true` if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces (critical op: *populate*).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        observe_growth(&mut self.monitor, OpKind::Populate, || {
            (
                MapOps::map_insert(&mut self.inner, key, value),
                MapOps::len(&self.inner),
            )
        })
    }

    /// Key lookup (critical op: *contains*).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        observe(&mut self.monitor, OpKind::Contains, || {
            MapOps::map_get(&self.inner, key)
        })
    }

    /// Key membership test (critical op: *contains*).
    pub fn contains_key(&mut self, key: &K) -> bool {
        observe(&mut self.monitor, OpKind::Contains, || {
            MapOps::contains_key(&self.inner, key)
        })
    }

    /// Removes the entry for `key` (critical op: *middle*).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        observe(&mut self.monitor, OpKind::Middle, || {
            MapOps::map_remove(&mut self.inner, key)
        })
    }

    /// Visits every entry (critical op: *iterate*).
    pub fn for_each(&mut self, mut f: impl FnMut(&K, &V)) {
        observe(&mut self.monitor, OpKind::Iterate, || {
            MapOps::for_each_entry(&self.inner, &mut f)
        })
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        MapOps::clear(&mut self.inner);
    }
}

impl<K: Eq + Hash + Clone, V: Clone> HeapSize for SwitchMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn allocated_bytes(&self) -> u64 {
        self.inner.allocated_bytes()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for SwitchMap<K, V> {
    fn drop(&mut self) {
        if let Some(m) = self.monitor.take() {
            m.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_collections::ListKind;
    use cs_profile::OpKind;

    fn monitored_list() -> (SwitchList<i64>, ProfileSink) {
        let sink = ProfileSink::new();
        let list = SwitchList::new(
            AnyList::new(ListKind::Array),
            Some(Monitor::new(sink.clone())),
        );
        (list, sink)
    }

    #[test]
    fn unmonitored_handle_reports_nothing() {
        let sink = ProfileSink::new();
        {
            let mut l: SwitchList<i64> = SwitchList::new(AnyList::new(ListKind::Array), None);
            l.push(1);
            assert!(!l.is_monitored());
        }
        assert!(sink.is_empty());
    }

    #[test]
    fn monitored_handle_reports_profile_on_drop() {
        let (mut list, sink) = monitored_list();
        for v in 0..10 {
            list.push(v);
        }
        for v in 0..5 {
            list.contains(&v);
        }
        list.insert(3, 99);
        list.for_each(|_| {});
        assert!(sink.is_empty(), "profile only lands on drop");
        drop(list);
        let profiles = sink.drain();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.count(OpKind::Populate), 10);
        assert_eq!(p.count(OpKind::Contains), 5);
        assert_eq!(p.count(OpKind::Middle), 1);
        assert_eq!(p.count(OpKind::Iterate), 1);
        assert_eq!(p.max_size(), 11);
    }

    /// Push to `N`, remove down to `N/2`, then only ops that cannot grow
    /// the collection: the maximum is the one growth reached, read by the
    /// growth ops alone.
    #[test]
    fn growth_ops_alone_keep_max_size_exact() {
        use cs_collections::{MapKind, SetKind};
        const N: i64 = 40;
        let sink = ProfileSink::new();
        let monitor = || Some(Monitor::new(sink.clone()));

        let mut list = SwitchList::new(AnyList::new(ListKind::Array), monitor());
        for v in 0..N {
            list.push(v);
        }
        for _ in 0..N / 2 {
            list.remove(0);
        }
        for v in 0..N {
            list.contains(&v);
        }
        list.for_each(|_| {});
        drop(list);
        assert_eq!(sink.drain()[0].max_size(), N as usize, "list");

        // A middle-insert is growth: it raises the maximum past the pushes'.
        let mut list = SwitchList::new(AnyList::new(ListKind::Linked), monitor());
        for v in 0..N {
            list.push(v);
        }
        list.insert((N / 2) as usize, -1);
        list.remove(0);
        drop(list);
        assert_eq!(sink.drain()[0].max_size(), N as usize + 1, "list insert");

        let mut set = SwitchSet::new(AnySet::new(SetKind::Chained), monitor());
        for v in 0..N {
            set.insert(v);
        }
        for v in 0..N / 2 {
            set.remove(&v);
        }
        for v in 0..N {
            set.contains(&v);
        }
        set.for_each(|_| {});
        drop(set);
        assert_eq!(sink.drain()[0].max_size(), N as usize, "set");

        let mut map = SwitchMap::new(AnyMap::new(MapKind::Array), monitor());
        for k in 0..N {
            map.insert(k, k);
        }
        for k in 0..N / 2 {
            map.remove(&k);
        }
        for k in 0..N {
            map.get(&k);
            map.contains_key(&k);
        }
        map.for_each(|_, _| {});
        drop(map);
        assert_eq!(sink.drain()[0].max_size(), N as usize, "map");
    }

    /// Each monitored instance clocks from its own phase. 640 instances of
    /// 10 ops each run 6,400 ops; at one clocked op in 64, a fixed phase
    /// would clock all of them or none, while per-instance phases clock
    /// close to 6,400 / 64 = 100. The golden-ratio phase sequence spreads
    /// 640 consecutive phases within ±10 of an even split over the 64
    /// ticks, and a fresh thread always draws the same phases.
    #[test]
    fn short_instances_are_clocked_at_the_sample_rate() {
        const INSTANCES: u64 = 640;
        const OPS: u64 = 10;
        let clocked = || {
            std::thread::spawn(|| {
                let sink = ProfileSink::new();
                for _ in 0..INSTANCES {
                    let mut list: SwitchList<u64> = SwitchList::new(
                        AnyList::new(ListKind::Array),
                        Some(Monitor::new(sink.clone())),
                    );
                    for v in 0..OPS {
                        list.push(v);
                    }
                }
                sink.drain().iter().map(|p| p.timing().ops).sum::<u64>()
            })
            .join()
            .expect("clocking thread panicked")
        };
        let first = clocked();
        let expected = (INSTANCES * OPS) >> HANDLE_SAMPLE_SHIFT;
        assert!(
            first.abs_diff(expected) <= 10,
            "{first} clocked ops, expected {expected} ± 10"
        );
        assert_eq!(clocked(), first, "phases are deterministic per thread");
    }

    #[test]
    fn set_handle_counts_ops() {
        use cs_collections::SetKind;
        let sink = ProfileSink::new();
        {
            let mut set: SwitchSet<i64> = SwitchSet::new(
                AnySet::new(SetKind::Chained),
                Some(Monitor::new(sink.clone())),
            );
            for v in 0..6 {
                set.insert(v);
            }
            set.contains(&3);
            set.remove(&3);
            set.for_each(|_| {});
        }
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 6);
        assert_eq!(p.count(OpKind::Contains), 1);
        assert_eq!(p.count(OpKind::Middle), 1);
        assert_eq!(p.count(OpKind::Iterate), 1);
        assert_eq!(p.max_size(), 6);
    }

    #[test]
    fn map_handle_counts_ops() {
        use cs_collections::MapKind;
        let sink = ProfileSink::new();
        {
            let mut map: SwitchMap<i64, i64> = SwitchMap::new(
                AnyMap::new(MapKind::Array),
                Some(Monitor::new(sink.clone())),
            );
            for k in 0..4 {
                map.insert(k, k);
            }
            map.get(&1);
            map.contains_key(&2);
            map.remove(&3);
        }
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), 4);
        assert_eq!(p.count(OpKind::Contains), 2);
        assert_eq!(p.count(OpKind::Middle), 1);
    }

    #[test]
    fn monitored_handle_accumulates_wall_time() {
        let (mut list, sink) = monitored_list();
        for v in 0..1_000 {
            list.push(v);
        }
        for v in 0..1_000 {
            list.contains(&v);
        }
        drop(list);
        let p = &sink.drain()[0];
        assert!(
            p.elapsed_nanos() > 0,
            "2000 monitored ops should accumulate measurable wall time"
        );
    }

    #[test]
    fn unmonitored_handle_carries_no_wall_time() {
        let sink = ProfileSink::new();
        let mut l: SwitchList<i64> = SwitchList::new(AnyList::new(ListKind::Array), None);
        for v in 0..100 {
            l.push(v);
        }
        drop(l);
        assert!(sink.is_empty());
    }

    /// `M << HANDLE_SAMPLE_SHIFT` ops on one thread clock exactly `M` of
    /// them, whatever the thread's tick was before.
    const M: u64 = 5;
    const N: u64 = M << HANDLE_SAMPLE_SHIFT;

    #[test]
    fn monitored_list_counts_every_op_and_clocks_one_in_two_to_the_shift() {
        let (mut list, sink) = monitored_list();
        for v in 0..N / 2 {
            list.push(v as i64);
        }
        for v in 0..N / 4 {
            list.contains(&(v as i64));
        }
        for _ in 0..N / 4 {
            list.remove(0);
        }
        drop(list);
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), N / 2);
        assert_eq!(p.count(OpKind::Contains), N / 4);
        assert_eq!(p.count(OpKind::Middle), N / 4);
        assert_eq!(p.total_ops(), N);
        assert_eq!(p.max_size(), (N / 2) as usize);
        assert_eq!(p.timing().ops, M);
    }

    #[test]
    fn monitored_set_counts_every_op_and_clocks_one_in_two_to_the_shift() {
        use cs_collections::SetKind;
        let sink = ProfileSink::new();
        let mut set: SwitchSet<i64> = SwitchSet::new(
            AnySet::new(SetKind::Chained),
            Some(Monitor::new(sink.clone())),
        );
        for v in 0..N / 2 {
            set.insert(v as i64);
        }
        for v in 0..N / 4 - 1 {
            set.contains(&(v as i64));
        }
        for v in 0..N / 4 {
            set.remove(&(v as i64));
        }
        set.for_each(|_| {});
        drop(set);
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), N / 2);
        assert_eq!(p.count(OpKind::Contains), N / 4 - 1);
        assert_eq!(p.count(OpKind::Middle), N / 4);
        assert_eq!(p.count(OpKind::Iterate), 1);
        assert_eq!(p.max_size(), (N / 2) as usize);
        assert_eq!(p.timing().ops, M);
    }

    #[test]
    fn monitored_map_counts_every_op_and_clocks_one_in_two_to_the_shift() {
        use cs_collections::MapKind;
        let sink = ProfileSink::new();
        let mut map: SwitchMap<i64, i64> = SwitchMap::new(
            AnyMap::new(MapKind::Chained),
            Some(Monitor::new(sink.clone())),
        );
        for k in 0..N / 2 {
            map.insert(k as i64, 0);
        }
        for k in 0..N / 8 {
            map.get(&(k as i64));
            map.contains_key(&(k as i64));
        }
        for k in 0..N / 4 {
            map.remove(&(k as i64));
        }
        drop(map);
        let p = &sink.drain()[0];
        assert_eq!(p.count(OpKind::Populate), N / 2);
        assert_eq!(p.count(OpKind::Contains), N / 4);
        assert_eq!(p.count(OpKind::Middle), N / 4);
        assert_eq!(p.max_size(), (N / 2) as usize);
        assert_eq!(p.timing().ops, M);
    }

    #[test]
    fn unmonitored_ops_do_not_advance_the_clock_tick() {
        let (mut list, sink) = monitored_list();
        let mut plain: SwitchList<i64> = SwitchList::new(AnyList::new(ListKind::Array), None);
        for v in 0..N {
            list.push(v as i64);
            // Three unmonitored ops per monitored one: if they ticked, the
            // monitored handle would clock a quarter of its share.
            plain.push(v as i64);
            plain.contains(&(v as i64));
            plain.for_each(|_| {});
        }
        drop(list);
        assert_eq!(sink.drain()[0].timing().ops, M);
    }

    #[test]
    fn handle_forwards_heap_accounting() {
        let (mut list, _sink) = monitored_list();
        for v in 0..100 {
            list.push(v);
        }
        assert!(list.heap_bytes() >= 100 * std::mem::size_of::<i64>());
        assert!(list.allocated_bytes() >= list.heap_bytes() as u64);
    }
}

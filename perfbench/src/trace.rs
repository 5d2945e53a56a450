//! The benchmark's own span log: spans recorded around the benchmark's calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! A span covers one call into a layer. `parent` is the span that caused it,
//! and `group` is shared by every span of one instance (apps) or one op
//! (runtime). Self time is a span's duration minus its children's.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span, and the id returned when tracing is off.
pub const NONE: u32 = u32::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// One pass: every app under Original, then under FullAdap.
    Pass,
    /// One `run_app` call under one mode.
    App,
    /// One iteration of a site's instance loop (see the `mirror` docs).
    Instance,
    /// `Switch::analyze_now` (apps) or `Runtime::analyze_now` (runtime).
    Analyze,
    /// `create_*` on a context, or `Any*::new`.
    Create,
    /// The per-instance operation script.
    Script,
    /// Dropping one instance.
    Drop,
    /// One sampled op on a concurrent map.
    Op,
    /// `ObsHandle::tick`.
    ObsTick,
    /// Export, render and validation of the `/metrics` page.
    Export,
}

impl Name {
    /// Label used in the span file and the self-time table.
    pub fn label(self) -> &'static str {
        match self {
            Name::Pass => "pass",
            Name::App => "app",
            Name::Instance => "instance",
            Name::Analyze => "analyze",
            Name::Create => "create",
            Name::Script => "script",
            Name::Drop => "drop",
            Name::Op => "op",
            Name::ObsTick => "obs.tick",
            Name::Export => "export",
        }
    }
}

/// Which path a span ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tag {
    /// No distinction applies.
    None,
    /// A raw `cs-collections` variant (Original mode, or the runtime's
    /// unmonitored baseline map).
    Raw,
    /// A `cs-core` handle or context (FullAdap), or the `cs-runtime` map.
    Adaptive,
    /// A FullAdap script on an instance the context did not monitor.
    Unmonitored,
    /// A FullAdap script on a monitored instance.
    Monitored,
}

impl Tag {
    /// Label used in the span file and the self-time table.
    pub fn label(self) -> &'static str {
        match self {
            Tag::None => "-",
            Tag::Raw => "raw",
            Tag::Adaptive => "adaptive",
            Tag::Unmonitored => "unmonitored",
            Tag::Monitored => "monitored",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub tag: Tag,
    /// Index of the causing span, or [`NONE`].
    pub parent: u32,
    /// Identifier shared by the spans of one instance or op.
    pub group: u64,
    /// Site index (apps: `app * 64 + site`), or worker index (runtime).
    pub site: u16,
    /// Collection ops issued inside the span (scripts only).
    pub ops: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with a fixed epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its index.
    pub fn open(&mut self, name: Name, tag: Tag, parent: u32, group: u64, site: u16) -> u32 {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            tag,
            parent,
            group,
            site,
            ops: 0,
            start_ns,
            end_ns: start_ns,
        })
    }

    /// Closes span `id` now, recording `ops` collection ops inside it.
    pub fn close(&mut self, id: u32, ops: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.ops = ops;
    }

    /// Appends a finished span (for spans timed elsewhere) and returns its
    /// index.
    pub fn push(&mut self, span: Span) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("span log exceeds u32 indices");
        self.spans.push(span);
        id
    }

    /// Converts an [`Instant`] taken by the caller to this log's clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends `other`'s spans, re-basing their parent indices.
    pub fn append(&mut self, other: SpanLog) {
        let base = u32::try_from(self.spans.len()).expect("span log exceeds u32 indices");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per (name, tag): span count, total duration and total self time,
    /// as printable rows.
    pub fn self_time_table(&self) -> String {
        let selfs = self.self_ns();
        let mut rows: std::collections::BTreeMap<(Name, Tag), (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let row = rows.entry((s.name, s.tag)).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += self_ns;
        }
        let mut out = String::from("# span        tag          count      total_ms     self_ms\n");
        for ((name, tag), (count, total, own)) in rows {
            let _ = writeln!(
                out,
                "# {:<12}  {:<11} {:>7} {:>13.3} {:>11.3}",
                name.label(),
                tag.label(),
                count,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tgroup\tname\ttag\tsite\tops\tstart_ns\tend_ns"
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.group,
                s.name.label(),
                s.tag.label(),
                s.site,
                s.ops,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new(Instant::now());
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            tag: Tag::None,
            parent,
            group: 0,
            site: 0,
            ops: 0,
            start_ns,
            end_ns,
        };
        let root = log.push(span(Name::Instance, NONE, 0, 100));
        let child = log.push(span(Name::Script, root, 10, 70));
        log.push(span(Name::Op, child, 20, 30));
        assert_eq!(log.self_ns(), vec![40, 50, 10]);
    }

    #[test]
    fn append_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.open(Name::Pass, Tag::None, NONE, 0, 0);
        let mut b = SpanLog::new(epoch);
        let root = b.open(Name::App, Tag::None, NONE, 0, 0);
        b.open(Name::Instance, Tag::None, root, 0, 0);
        a.append(b);
        assert_eq!(a.spans[1].parent, NONE);
        assert_eq!(a.spans[2].parent, 1);
    }
}

//! Host-time spans recorded around calls into the program's layers.
//!
//! Spans live in memory while the benchmark runs and are written out as
//! JSONL once it ends. Every span carries the run id, its name, start and
//! end (nanoseconds since the tracer was created), its parent and the
//! thread that recorded it. A layer's self time is its spans' duration
//! minus the part covered by their children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::common::Outcome;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run_id: String) -> Self {
        Tracer {
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent its own children.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<u64>,
        thread: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
            thread,
        });
        out
    }

    /// All finished spans, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// The spans as JSONL, one object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
                self.run_id, s.id, parent, s.name, s.start_ns, s.end_ns, s.thread
            );
        }
        out
    }
}

/// Per-span self times of one span tree, with the consistency result.
pub struct SelfTimes {
    /// Self seconds summed per span name, over the subtree of the root.
    pub by_name: BTreeMap<String, f64>,
    /// Sum of every self time in the subtree, root included.
    pub total_s: f64,
    /// The root's duration times the number of threads that ran under it.
    pub capacity_s: f64,
    /// Self time of spans whose children overran them (broken nesting).
    pub overrun_s: f64,
    /// The root's own self time: thread time no child span covers.
    pub root_self_s: f64,
}

/// Self times of the subtree rooted at `root`. Children that ran on
/// other threads than their parent (workers under a phase root) count
/// against the parent's capacity: the root's duration times the number
/// of distinct threads among its direct children.
pub fn self_times(spans: &[Span], root: u64) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let root_span = spans
        .iter()
        .find(|s| s.id == root)
        .expect("root span recorded");
    let mut out = SelfTimes {
        by_name: BTreeMap::new(),
        total_s: 0.0,
        capacity_s: 0.0,
        overrun_s: 0.0,
        root_self_s: 0.0,
    };
    let root_threads = children.get(&root).map_or(1, |c| {
        let mut t: Vec<u64> = c.iter().map(|s| s.thread).collect();
        t.sort_unstable();
        t.dedup();
        t.len().max(1)
    });
    out.capacity_s = root_span.dur_ns() as f64 * 1e-9 * root_threads as f64;
    let mut stack = vec![(root_span, root_threads as f64)];
    while let Some((span, width)) = stack.pop() {
        let kids = children.get(&span.id).map(Vec::as_slice).unwrap_or(&[]);
        let covered: u64 = kids.iter().map(|k| k.dur_ns()).sum();
        let own = span.dur_ns() as f64 * width;
        let self_ns = own - covered as f64;
        if self_ns < 0.0 {
            out.overrun_s += -self_ns * 1e-9;
        }
        let self_s = self_ns.max(0.0) * 1e-9;
        if span.id == root {
            out.root_self_s = self_s;
        }
        *out.by_name.entry(span.name.clone()).or_insert(0.0) += self_s;
        out.total_s += self_s;
        for k in kids {
            stack.push((k, 1.0));
        }
    }
    out
}

/// Span-accounting check: the self times of the spans under `root` must
/// add up to the root's thread time within `tolerance`, with no child
/// overrunning its parent. Prints the self time per layer and returns
/// the share of the root's thread time that no layer span covers.
pub fn check_accounting(spans: &[Span], root: u64, tolerance: f64, out: &mut Outcome) -> f64 {
    let st = self_times(spans, root);
    let name = &spans.iter().find(|s| s.id == root).expect("root span").name;
    let layers: Vec<String> = st
        .by_name
        .iter()
        .map(|(n, s)| format!("{n} {s:.4}"))
        .collect();
    eprintln!(
        "# self s under {name} ({:.4} thread-s): {}",
        st.capacity_s,
        layers.join(", ")
    );
    let gap = (st.total_s - st.capacity_s).abs() + st.overrun_s;
    if gap > tolerance * st.capacity_s {
        out.fail(&format!(
            "{name}: span self times {:.6}s do not account for {:.6}s (overrun {:.6}s)",
            st.total_s, st.capacity_s, st.overrun_s
        ));
    }
    st.root_self_s / st.capacity_s
}

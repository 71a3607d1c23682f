//! Span recording for the traced runs.
//!
//! Spans are taken only from the benchmark's own files, around the calls
//! into each layer; they live in memory until the run ends and are then
//! written out as one JSON object per line. A disabled [`Recorder`] turns
//! every call into a branch on one flag, so the same client code drives
//! the traced and the untraced runs.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of a span that was never opened (recorder disabled).
pub const NO_SPAN: u32 = u32::MAX;

/// One closed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one, [`NO_SPAN`] for a root.
    pub parent: u32,
    /// The transaction this span belongs to; spans of one transaction
    /// share it.
    pub tx: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    tx: u32,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            tx: 0,
        }
    }

    /// A recording recorder whose timestamps count from `epoch`.
    pub fn enabled(epoch: Instant) -> Self {
        Recorder {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            tx: 0,
        }
    }

    /// Sets the transaction id stamped on spans opened from now on.
    pub fn set_tx(&mut self, tx: u32) {
        self.tx = tx;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let now = self.now_ns();
        self.spans.push(Span { name, parent, tx: self.tx, start_ns: now, end_ns: now });
        self.stack.push(id);
        id
    }

    /// Closes `id` (and, after an early return, anything still open
    /// inside it).
    pub fn exit(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        while let Some(open) = self.stack.pop() {
            self.spans[open as usize].end_ns = now;
            if open == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. Children may overlap each other (two workers under
/// one parent) and may stick out of the parent; covered time is the union
/// of the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_SPAN {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Renders spans as JSON lines: ids are indices into `spans`, `parent` is
/// `null` for a root, `self_ns` is the span's own time.
pub fn to_jsonl(source: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 120);
    for (id, (span, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent =
            if span.parent == NO_SPAN { "null".to_owned() } else { span.parent.to_string() };
        let _ = writeln!(
            out,
            "{{\"src\":\"{source}\",\"tx\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.tx, span.name, span.start_ns, span.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, tx: 0, start_ns, end_ns }
    }

    #[test]
    fn nested_children_leave_the_parent_its_own_time() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans =
            [span("root", NO_SPAN, 0, 100), span("child", 0, 10, 60), span("leaf", 1, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers under one parent overlap on 30..50; a third child
        // sticks out past the parent's end.
        let spans = [
            span("root", NO_SPAN, 0, 100),
            span("a", 0, 10, 50),
            span("b", 0, 30, 70),
            span("c", 0, 90, 130),
        ];
        // Covered: 10..70 (60) + 90..100 (10) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_unwinds() {
        let mut rec = Recorder::enabled(Instant::now());
        rec.set_tx(7);
        let root = rec.enter("root");
        let child = rec.enter("child");
        let _dangling = rec.enter("dangling");
        // Closing the child closes what an early return left open in it.
        rec.exit(child);
        let sibling = rec.span("sibling", || 5);
        assert_eq!(sibling, 5);
        rec.exit(root);
        let spans = rec.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.tx)).collect();
        assert_eq!(
            names,
            vec![("root", NO_SPAN, 7), ("child", 0, 7), ("dangling", 1, 7), ("sibling", 0, 7)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[2].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        let id = rec.enter("x");
        assert_eq!(id, NO_SPAN);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = [span("root", NO_SPAN, 0, 10), span("leaf", 0, 2, 5)];
        let text = to_jsonl("replay", &spans);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_ns\":7"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"name\":\"leaf\""));
    }
}

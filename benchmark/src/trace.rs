//! Fold the runtime's own `TelemetryLevel::Spans` records into self time per
//! phase.
//!
//! The runtime's spans carry no parent links, so nesting is inferred: a
//! span's children are the other spans of the same region, node and task
//! (or the other task-less spans of that region and node) that lie inside
//! its interval. A span's self time is its duration minus the union of its
//! children's intervals.

use ompc_core::prelude::*;
use std::collections::HashMap;

/// Spans that may nest: same region, node and task.
type GroupKey = (Option<u64>, NodeId, Option<usize>);

/// Per-phase self time summed over every folded record.
#[derive(Debug, Default, Clone)]
pub struct PhaseFold {
    self_us: HashMap<&'static str, f64>,
    /// Serialize spans whose payload came from the frame cache.
    pub cache_hits: usize,
    /// Serialize spans in all.
    pub serializations: usize,
    /// Target tasks of the folded records.
    pub tasks: usize,
    /// Summed gaps between a task's `dispatch` end and its `worker_recv`
    /// marker (the handler picking it up), and how many were measured.
    recv_wait: (f64, usize),
    /// Summed gaps between a task's `compute` end and its `retire` marker
    /// (completion routing back to the core), and how many were measured.
    completion_wait: (f64, usize),
}

impl PhaseFold {
    /// Fold one run record, whose region ran `tasks` target tasks.
    pub fn add(&mut self, record: &RunRecord, tasks: usize) {
        self.tasks += tasks;
        let mut groups: HashMap<GroupKey, Vec<&Span>> = HashMap::new();
        // Per (region, task, attempt): dispatch end, worker pick-up,
        // kernel end and retirement.
        let mut marks: HashMap<(Option<u64>, usize, u32), [Option<u64>; 4]> = HashMap::new();
        for span in &record.spans {
            if let Some(task) = span.task {
                let slot = match span.phase {
                    SpanPhase::Dispatch => Some((0, span.end_us)),
                    SpanPhase::WorkerRecv => Some((1, span.start_us)),
                    SpanPhase::Compute => Some((2, span.end_us)),
                    SpanPhase::Retire => Some((3, span.start_us)),
                    _ => None,
                };
                if let Some((i, at)) = slot {
                    marks.entry((span.region, task, span.attempt)).or_default()[i] = Some(at);
                }
            }
            groups.entry((span.region, span.node, span.task)).or_default().push(span);
            if span.phase == SpanPhase::Serialize {
                self.serializations += 1;
                if span.detail.as_deref().is_some_and(|d| d.contains("hit")) {
                    self.cache_hits += 1;
                }
            }
        }
        for [dispatched, picked_up, computed, retired] in marks.into_values() {
            if let (Some(from), Some(to)) = (dispatched, picked_up) {
                self.recv_wait.0 += to.saturating_sub(from) as f64;
                self.recv_wait.1 += 1;
            }
            if let (Some(from), Some(to)) = (computed, retired) {
                self.completion_wait.0 += to.saturating_sub(from) as f64;
                self.completion_wait.1 += 1;
            }
        }
        for mut group in groups.into_values() {
            // Parents sort before the children they enclose.
            group.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.end_us)));
            for (i, span) in group.iter().enumerate() {
                let children = group[i + 1..]
                    .iter()
                    .take_while(|c| c.start_us < span.end_us)
                    .filter(|c| c.end_us <= span.end_us)
                    .map(|c| (c.start_us, c.end_us));
                let covered = union_len(children);
                *self.self_us.entry(span.phase.name()).or_default() +=
                    span.duration_us().saturating_sub(covered) as f64;
            }
        }
    }

    /// Merge another fold into this one.
    pub fn merge(&mut self, other: PhaseFold) {
        for (phase, us) in other.self_us {
            *self.self_us.entry(phase).or_default() += us;
        }
        self.cache_hits += other.cache_hits;
        self.serializations += other.serializations;
        self.tasks += other.tasks;
        self.recv_wait.0 += other.recv_wait.0;
        self.recv_wait.1 += other.recv_wait.1;
        self.completion_wait.0 += other.completion_wait.0;
        self.completion_wait.1 += other.completion_wait.1;
    }

    /// Mean µs from a task's dispatch to its handler picking it up.
    pub fn recv_wait_us(&self) -> Option<f64> {
        (self.recv_wait.1 > 0).then(|| self.recv_wait.0 / self.recv_wait.1 as f64)
    }

    /// Mean µs from a task's kernel end to its retirement by the core.
    pub fn completion_wait_us(&self) -> Option<f64> {
        (self.completion_wait.1 > 0).then(|| self.completion_wait.0 / self.completion_wait.1 as f64)
    }

    /// Self µs of `phase` per folded task.
    pub fn per_task_us(&self, phase: SpanPhase) -> f64 {
        self.self_us.get(phase.name()).copied().unwrap_or(0.0) / self.tasks.max(1) as f64
    }

    /// Self µs of every phase per folded task.
    pub fn busy_per_task_us(&self) -> f64 {
        self.self_us.values().sum::<f64>() / self.tasks.max(1) as f64
    }

    /// Whether any span of `phase` was folded.
    pub fn has(&self, phase: SpanPhase) -> bool {
        self.self_us.contains_key(phase.name())
    }
}

/// Total length of the union of intervals sorted by start.
fn union_len(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut total = 0;
    let mut cursor = 0;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_enclosed_spans_of_the_same_task_only() {
        let record = RunRecord {
            spans: vec![
                Span::new(SpanPhase::Dispatch, 0, 0, 10).task(1),
                Span::new(SpanPhase::Serialize, 0, 2, 5).task(1),
                Span::new(SpanPhase::Send, 0, 4, 8).task(1),
                // Another task's span inside the window is not a child.
                Span::new(SpanPhase::Retire, 0, 1, 3).task(2),
            ],
            ..RunRecord::default()
        };
        let mut fold = PhaseFold::default();
        fold.add(&record, 2);
        assert_eq!(fold.per_task_us(SpanPhase::Dispatch), 2.0);
        assert_eq!(fold.per_task_us(SpanPhase::Serialize), 1.5);
        assert_eq!(fold.per_task_us(SpanPhase::Send), 2.0);
        assert_eq!(fold.per_task_us(SpanPhase::Retire), 1.0);
        assert!(!fold.has(SpanPhase::Compute));
    }
}

//! Spans kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer: what, when, and the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Which repetition of the workload's pipeline it belongs to.
    pub rep: usize,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    pub fn start_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        value
    }

    fn duration_us(&self, id: usize) -> f64 {
        self.spans[id].end_us - self.spans[id].start_us
    }

    /// Duration minus the part of it the span's children cover
    /// (children run one after another, so their durations add up).
    fn self_us(&self, id: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.duration_us(c))
            .sum();
        self.duration_us(id) - children
    }

    fn ids<'a>(&'a self, name: &'a str, rep: usize) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len())
            .filter(move |&i| self.spans[i].name == name && self.spans[i].rep == rep)
    }

    /// Seconds spent in spans called `name` during repetition `rep`.
    pub fn total_s(&self, name: &str, rep: usize) -> f64 {
        self.ids(name, rep)
            .map(|i| self.duration_us(i))
            .sum::<f64>()
            / 1e6
    }

    /// Durations in seconds of each span called `name` in `rep`.
    pub fn each_s(&self, name: &str, rep: usize) -> Vec<f64> {
        self.ids(name, rep)
            .map(|i| self.duration_us(i) / 1e6)
            .collect()
    }

    /// Self time, in seconds, summed over every span of repetition
    /// `rep` that lies below a span called `root` (the root excluded).
    pub fn self_below_s(&self, root: &str, rep: usize) -> f64 {
        let mut total = 0.0;
        for i in 0..self.spans.len() {
            if self.spans[i].rep != rep {
                continue;
            }
            let mut up = self.spans[i].parent;
            while let Some(p) = up {
                if self.spans[p].name == root {
                    total += self.self_us(i);
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        total / 1e6
    }

    /// One JSON object per span, one per line.
    pub fn jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"rep\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.rep,
                s.name,
                s.start_us,
                s.end_us,
                self.self_us(id)
            );
        }
        out
    }
}

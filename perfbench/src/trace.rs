//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer,
//! from outside the program: the `offload-obs` recorder stays off, so the
//! program runs exactly as it does untraced. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span: which layer call, for which program, for which
/// operation (a compile repetition, a dispatch batch or an offload run).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub program: u32,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (a no-op handle while recording is off).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off; only whole operations are recorded,
    /// so call this between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, program: usize, op: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            program: program as u32,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, and any span opened inside it that an early return
    /// left open, and returns its duration in nanoseconds (0 while
    /// recording is off).
    pub fn end(&mut self, open: Open) -> u64 {
        if open.0 == NO_PARENT {
            return 0;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(id) = self.stack.pop() {
            self.spans[id as usize].end_ns = now;
            if id == open.0 {
                break;
            }
        }
        self.spans[open.0 as usize].dur_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap: one thread records).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (or whole durations) grouped by span name and program.
    pub fn by_name(&self, self_time: bool) -> HashMap<(&'static str, u32), Vec<u64>> {
        let times = if self_time {
            self.self_times_ns()
        } else {
            self.spans.iter().map(Span::dur_ns).collect()
        };
        let mut out: HashMap<(&'static str, u32), Vec<u64>> = HashMap::new();
        for (s, ns) in self.spans.iter().zip(times) {
            out.entry((s.name, s.program)).or_default().push(ns);
        }
        out
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"fields\":[\"id\",\"parent\",\"name\",\"program\",\"op\",\"start_ns\",\"end_ns\"],\"spans\":["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{i},{parent},\"{}\",{},{},{},{}]{sep}",
                s.name, s.program, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_on(true);
        let root = t.begin("root", 0, 1);
        let a = t.begin("a", 0, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a_ns = t.end(a);
        let root_ns = t.end(root);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[1], a_ns);
        assert_eq!(selfs[0], root_ns - a_ns);
        assert_eq!(t.spans()[1].parent, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let s = t.begin("x", 0, 0);
        assert_eq!(t.end(s), 0);
        assert!(t.spans().is_empty());
    }
}

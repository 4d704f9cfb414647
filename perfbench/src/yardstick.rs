//! A host-speed yardstick, run in a process of its own.
//!
//! On a shared VM the speed of branchy, allocation-heavy code moves by up
//! to 1.7× within minutes while plain arithmetic barely moves (see
//! `NOTES.md`). Every timed operation is therefore preceded by a run of a
//! fixed, benchmark-owned kernel of that kind of work — map churn with
//! small allocations, a small bytecode loop, a sort — on one thread, and
//! reported as `time × YARDSTICK_REF_NS / yardstick time`:
//! its time on a host running the yardstick at the reference speed.
//!
//! The kernel runs in a child process (this binary run with
//! `--yardstick`), so it shares no heap with the program, and it is
//! sampled only while no program thread is alive: the workloads stop
//! their servers before each sample and take no sample inside a timed
//! window or a set-up. A change to the program therefore cannot move the
//! yardstick; raw times are printed too.

use crate::common::ns_since;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The reference speed: about the yardstick's median time on a 2-vCPU KVM
/// guest on an Intel Xeon (3.6–4.1 ms per run there).
pub const YARDSTICK_REF_NS: f64 = 4_000_000.0;

type Map<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Map inserts, lookups and removals, each entry a small vector.
fn map_churn() -> u64 {
    let mut map: Map<u64, Vec<u64>> = Map::default();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let mut sum = 0u64;
    for i in 0..20_000u64 {
        let key = xorshift(&mut x) % 4096;
        let entry = map.entry(key).or_default();
        entry.push(i);
        sum = sum.wrapping_add(entry.len() as u64);
        if entry.len() > 8 {
            map.remove(&key);
        }
    }
    sum ^ map.len() as u64
}

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Rem,
    Get,
    Put,
    Alloc,
    Dec(usize),
    JumpIfNonZero(usize),
}

/// A stack machine looping over loads, arithmetic, map-backed memory and
/// boxed allocations.
fn bytecode() -> u64 {
    use Op::*;
    let program = [
        Push(1 << 40),
        Store(0),
        Load(0),
        Load(1),
        Add,
        Push(7),
        Mul,
        Push(1009),
        Rem,
        Store(1),
        Load(1),
        Get,
        Load(0),
        Add,
        Load(1),
        Put,
        Alloc,
        Dec(0),
        Load(0),
        JumpIfNonZero(2),
    ];
    let mut stack: Vec<i64> = Vec::with_capacity(16);
    let mut locals = [0i64; 2];
    let mut memory: Map<i64, i64> = Map::default();
    let mut boxes: Vec<Box<[i64; 4]>> = Vec::new();
    let pop = |stack: &mut Vec<i64>| stack.pop().expect("balanced program");
    let mut pc = 0;
    for _ in 0..150_000 {
        match program[pc] {
            Push(v) => stack.push(v),
            Load(i) => stack.push(locals[i]),
            Store(i) => locals[i] = pop(&mut stack),
            Add | Mul | Rem => {
                let (b, a) = (pop(&mut stack), pop(&mut stack));
                stack.push(match program[pc] {
                    Add => a.wrapping_add(b),
                    Mul => a.wrapping_mul(b),
                    _ => a.rem_euclid(b),
                });
            }
            Get => {
                let key = pop(&mut stack);
                stack.push(memory.get(&key).copied().unwrap_or(0));
            }
            Put => {
                let key = pop(&mut stack);
                let value = pop(&mut stack);
                memory.insert(key, value);
            }
            Alloc => {
                boxes.push(Box::new([locals[0]; 4]));
                if boxes.len() > 64 {
                    boxes.clear();
                }
            }
            Dec(i) => locals[i] -= 1,
            JumpIfNonZero(target) => {
                if pop(&mut stack) != 0 {
                    pc = target;
                    continue;
                }
            }
        }
        pc += 1;
    }
    locals[1] as u64 ^ memory.len() as u64
}

/// Sorting random keys: compare-and-branch work.
fn sort() -> u64 {
    let mut x = 7;
    let mut keys: Vec<u64> = (0..30_000).map(|_| xorshift(&mut x)).collect();
    keys.sort_unstable();
    keys[keys.len() / 2]
}

fn kernel_ns() -> u64 {
    let t = Instant::now();
    black_box(map_churn());
    black_box(bytecode());
    black_box(sort());
    ns_since(t)
}

/// The child's side (`perfbench --yardstick`): one sample per line read
/// on standard input, answered with its time in nanoseconds; exits at the
/// end of its input.
pub fn serve() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line?;
        writeln!(out, "{}", kernel_ns())?;
        out.flush()?;
    }
    Ok(())
}

/// Samples a fresh yardstick process takes and discards, so its first
/// reported sample does not include its own start-up (page faults, the
/// allocator's first growth).
const WARM_UP_SAMPLES: usize = 3;

/// The parent's handle on the yardstick process. Dropping it closes the
/// child's input and waits for the child to end.
pub struct Yardstick {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Yardstick {
    pub fn spawn() -> Result<Yardstick, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--yardstick")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the yardstick process: {e}"))?;
        let input = child.stdin.take();
        let output = child.stdout.take().map(BufReader::new);
        match (input, output) {
            (Some(input), Some(output)) => {
                let mut y = Yardstick {
                    child,
                    input: Some(input),
                    output,
                };
                for _ in 0..WARM_UP_SAMPLES {
                    y.sample_ns()?;
                }
                Ok(y)
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err("the yardstick process has no pipes".into())
            }
        }
    }

    /// One sample: the kernel's time, in nanoseconds. The caller blocks
    /// while the child runs it.
    pub fn sample_ns(&mut self) -> Result<u64, String> {
        let input = self
            .input
            .as_mut()
            .ok_or("the yardstick process is closed")?;
        writeln!(input, "s")
            .and_then(|_| input.flush())
            .map_err(|e| format!("asking the yardstick process: {e}"))?;
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .map_err(|e| format!("reading the yardstick process: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("the yardstick process answered {line:?}"))
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        drop(self.input.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `ns` at the reference host speed, given the yardstick time `yard_ns`
/// measured next to it.
pub fn normalize(ns: u64, yard_ns: u64) -> u64 {
    (ns as f64 * YARDSTICK_REF_NS / yard_ns as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(map_churn(), map_churn());
        assert_eq!(bytecode(), bytecode());
        assert_eq!(sort(), sort());
    }

    #[test]
    fn normalize_scales_by_the_reference() {
        let ref_ns = YARDSTICK_REF_NS as u64;
        assert_eq!(normalize(1000, ref_ns), 1000);
        assert_eq!(normalize(1000, 2 * ref_ns), 500);
    }
}

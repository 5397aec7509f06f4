//! A fixed reference load that measures how fast the host is right now.
//!
//! On a shared host the simulator's speed drifts by tens of percent over
//! minutes, because other tenants contend for the caches, memory and the
//! core's sibling thread (README.md, "Noise"). A run that only reads the
//! wall clock cannot tell that drift from a change in the program. The
//! yardstick is a small cycle-driven memory-hierarchy model in the same
//! style as the simulator — cores with reorder buffers, set-associative
//! L1s with MSHRs, a hash-map LLC, an FR-FCFS controller with open-row
//! banks, an event heap and a sparse memory image — so it feels the same
//! kind of contention. It belongs to the benchmark and never changes with
//! the simulator, so its speed is a measure of the host alone.
//!
//! The benchmark runs yardstick units between jobs, in proportion to the
//! jobs' run time, and scales its time metrics by
//! [`NOMINAL_UNIT_S`] ÷ (measured seconds per unit).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Simulated cycles of one unit of yardstick work.
const UNIT_CYCLES: u64 = 20_000;
/// Host seconds of one unit on the reference host. A round figure: on a
/// 2-vCPU Xeon VM a unit took 8–14 ms, depending on the other tenants'
/// load. It only fixes the unit of the scaled time metrics.
pub const NOMINAL_UNIT_S: f64 = 0.010;

const CORES: usize = 4;
const L1_SETS: usize = 64;
const L1_WAYS: usize = 8;
const ROB: usize = 48;
const LLC_LINES: usize = 32 << 10;
/// Lines each core's random loads cover: eight times the LLC.
const LOAD_LINES: u64 = 64 << 10;
/// Lines each core's stores cover, which bounds the memory image.
const STORE_LINES: u64 = 8 << 10;
const BANKS: usize = 32;

#[derive(Clone, Copy)]
struct Req {
    line: u64,
    core: usize,
}

struct Core {
    /// (tag, done) in program order.
    rob: VecDeque<(u32, bool)>,
    next_tag: u32,
    rng: u64,
    base: u64,
    pc: u64,
}

struct L1 {
    tags: Vec<[u64; L1_WAYS]>,
    age: Vec<[u32; L1_WAYS]>,
    mshr: HashMap<u64, Vec<u32>>,
    clock: u32,
}

/// The reference model and its accumulated measurements.
pub struct Yardstick {
    cores: Vec<Core>,
    l1: Vec<L1>,
    llc: HashMap<u64, u8>,
    llc_fifo: VecDeque<u64>,
    to_llc: VecDeque<Req>,
    to_mc: VecDeque<Req>,
    /// (open row, busy until) per bank.
    banks: Vec<(u64, u64)>,
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    image: HashMap<u64, Box<[u8; 64]>>,
    now: u64,
    /// Host seconds owed to the yardstick (see [`Yardstick::pay`]).
    debt_s: f64,
    /// Units run and their host seconds since the last [`Yardstick::take`].
    units: u64,
    unit_s: f64,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 17
}

impl Yardstick {
    /// Build the model and run it until its caches and memory image have
    /// reached their steady size, so every later unit does the same work.
    pub fn new() -> Yardstick {
        let mut y = Yardstick {
            cores: (0..CORES)
                .map(|i| Core {
                    rob: VecDeque::new(),
                    next_tag: 0,
                    rng: i as u64 + 7,
                    base: (i as u64) << 30,
                    pc: 0,
                })
                .collect(),
            l1: (0..CORES)
                .map(|_| L1 {
                    tags: vec![[u64::MAX; L1_WAYS]; L1_SETS],
                    age: vec![[0; L1_WAYS]; L1_SETS],
                    mshr: HashMap::new(),
                    clock: 0,
                })
                .collect(),
            llc: HashMap::new(),
            llc_fifo: VecDeque::new(),
            to_llc: VecDeque::new(),
            to_mc: VecDeque::new(),
            banks: vec![(u64::MAX, 0); BANKS],
            events: BinaryHeap::new(),
            image: HashMap::new(),
            now: 0,
            debt_s: 0.0,
            units: 0,
            unit_s: 0.0,
        };
        black_box(y.cycles(40 * UNIT_CYCLES));
        y
    }

    /// Run one unit; returns its host seconds and adds it to the totals.
    fn unit(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.cycles(UNIT_CYCLES));
        let s = t0.elapsed().as_secs_f64();
        self.units += 1;
        self.unit_s += s;
        s
    }

    /// Owe the yardstick `share` × `job_s` host seconds and run whole units
    /// until the debt is paid, so the yardstick samples the host in
    /// proportion to the time the simulator spends on it.
    pub fn pay(&mut self, job_s: f64, share: f64) {
        self.debt_s += job_s * share;
        while self.debt_s > 0.0 {
            self.debt_s -= self.unit();
        }
    }

    /// (units, host seconds) run since the last call; resets both.
    pub fn take(&mut self) -> (u64, f64) {
        let out = (self.units, self.unit_s);
        self.units = 0;
        self.unit_s = 0.0;
        self.debt_s = 0.0;
        out
    }

    fn l1_access(&mut self, c: usize, line: u64, tag: u32) -> bool {
        let l1 = &mut self.l1[c];
        l1.clock += 1;
        let set = (line as usize) % L1_SETS;
        if let Some(w) = l1.tags[set].iter().position(|&t| t == line) {
            l1.age[set][w] = l1.clock;
            return true;
        }
        if let Some(waiting) = l1.mshr.get_mut(&line) {
            waiting.push(tag);
            return false;
        }
        l1.mshr.insert(line, vec![tag]);
        self.to_llc.push_back(Req { line, core: c });
        false
    }

    fn fill(&mut self, c: usize, line: u64) {
        let l1 = &mut self.l1[c];
        let set = (line as usize) % L1_SETS;
        let victim = (0..L1_WAYS).min_by_key(|&w| l1.age[set][w]).unwrap_or(0);
        l1.tags[set][victim] = line;
        l1.age[set][victim] = l1.clock;
        for tag in l1.mshr.remove(&line).unwrap_or_default() {
            if let Some(e) = self.cores[c].rob.iter_mut().find(|e| e.0 == tag) {
                e.1 = true;
            }
        }
    }

    fn bank(line: u64) -> usize {
        (line >> 7) as usize % BANKS
    }

    /// Advance the model `n` cycles; returns the uops retired.
    fn cycles(&mut self, n: u64) -> u64 {
        let mut retired = 0;
        for _ in 0..n {
            self.now += 1;
            let now = self.now;
            // Each core issues up to two uops: ALU, load or store.
            for c in 0..CORES {
                for _ in 0..2 {
                    let core = &mut self.cores[c];
                    if core.rob.len() >= ROB {
                        break;
                    }
                    let r = lcg(&mut core.rng);
                    core.pc += 1;
                    let tag = core.next_tag;
                    core.next_tag = core.next_tag.wrapping_add(1);
                    match r % 8 {
                        0..=3 => core.rob.push_back((tag, true)),
                        4..=6 => {
                            let line = if r & 64 != 0 {
                                core.base + core.pc % 4096
                            } else {
                                core.base + (r >> 8) % LOAD_LINES
                            };
                            core.rob.push_back((tag, false));
                            if self.l1_access(c, line, tag) {
                                if let Some(e) = self.cores[c].rob.back_mut() {
                                    e.1 = true;
                                }
                            }
                        }
                        _ => {
                            let line = core.base + (r >> 8) % STORE_LINES;
                            core.rob.push_back((tag, true));
                            self.image.entry(line).or_insert_with(|| Box::new([0; 64]))
                                [(r % 64) as usize] ^= r as u8;
                        }
                    }
                }
                let core = &mut self.cores[c];
                while core.rob.front().is_some_and(|e| e.1) {
                    core.rob.pop_front();
                    retired += 1;
                }
            }
            // The LLC serves two requests a cycle; misses go to the controller.
            for _ in 0..2 {
                let Some(q) = self.to_llc.pop_front() else {
                    break;
                };
                match self.llc.get_mut(&q.line) {
                    Some(sharers) => {
                        *sharers |= 1 << q.core;
                        self.events.push(Reverse((now + 20, q.line, q.core)));
                    }
                    None => self.to_mc.push_back(q),
                }
            }
            // FR-FCFS over the oldest 16 requests: row hits first.
            let ready = |q: &Req, banks: &[(u64, u64)]| banks[Self::bank(q.line)].1 <= now;
            let hit = |q: &Req, banks: &[(u64, u64)]| banks[Self::bank(q.line)].0 == q.line >> 10;
            let pick = self
                .to_mc
                .iter()
                .take(16)
                .position(|q| ready(q, &self.banks) && hit(q, &self.banks))
                .or_else(|| {
                    self.to_mc
                        .iter()
                        .take(16)
                        .position(|q| ready(q, &self.banks))
                });
            if let Some(i) = pick {
                if let Some(q) = self.to_mc.remove(i) {
                    let lat = if hit(&q, &self.banks) { 40 } else { 110 };
                    self.banks[Self::bank(q.line)] = (q.line >> 10, now + lat / 4);
                    self.events.push(Reverse((now + lat, q.line, q.core)));
                }
            }
            while self.events.peek().is_some_and(|Reverse(e)| e.0 <= now) {
                let Some(Reverse((_, line, core))) = self.events.pop() else {
                    break;
                };
                if let Entry::Vacant(slot) = self.llc.entry(line) {
                    slot.insert(1 << core);
                    self.llc_fifo.push_back(line);
                    if self.llc_fifo.len() > LLC_LINES {
                        if let Some(old) = self.llc_fifo.pop_front() {
                            self.llc.remove(&old);
                        }
                    }
                }
                self.fill(core, line);
            }
        }
        retired
    }
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_yardstick_does_the_same_work() {
        let (mut a, mut b) = (Yardstick::new(), Yardstick::new());
        for _ in 0..3 {
            assert_eq!(a.cycles(UNIT_CYCLES), b.cycles(UNIT_CYCLES));
        }
    }
}

//! Chrome `trace_event` JSON exporter.
//!
//! Serialises a [`TraceSink`] into the Trace Event Format that Perfetto
//! and `chrome://tracing` load: complete events (`ph:"X"`) for spans,
//! instant events (`ph:"i"`) for point events, counter events
//! (`ph:"C"`) from the interval series, and metadata events naming the
//! lanes. The tree has no JSON dependency, so the writer emits JSON by
//! hand; the unit tests include a small recursive-descent parser that
//! validates well-formedness.
//!
//! Lane layout: pid 0 = cores (tid = core id), pid 1 = memory controllers
//! (tid = channel id), pid 2 = the (MC)² engine (tid = channel id). DRAM
//! accesses are named by bank so Perfetto's aggregation view groups them.
//!
//! Timestamps are microseconds (the format's unit), converted from cycles
//! with the configured clock.

use crate::event::Event;
use crate::TraceSink;
use std::collections::HashMap;
use std::fmt::Write as _;

const PID_CORES: u32 = 0;
const PID_MC: u32 = 1;
const PID_ENGINE: u32 = 2;

/// Escape a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One emitted JSON object under construction.
struct Obj {
    body: String,
    first: bool,
}

impl Obj {
    fn new() -> Obj {
        Obj { body: String::from("{"), first: true }
    }
    fn sep(&mut self) {
        if !self.first {
            self.body.push(',');
        }
        self.first = false;
    }
    fn str(mut self, k: &str, v: &str) -> Obj {
        self.sep();
        let _ = write!(self.body, "\"{}\":\"{}\"", esc(k), esc(v));
        self
    }
    fn num(mut self, k: &str, v: f64) -> Obj {
        self.sep();
        if v.fract() == 0.0 && v.abs() < 9e15 {
            let _ = write!(self.body, "\"{}\":{}", esc(k), v as i64);
        } else {
            let _ = write!(self.body, "\"{}\":{}", esc(k), v);
        }
        self
    }
    fn raw(mut self, k: &str, v: &str) -> Obj {
        self.sep();
        let _ = write!(self.body, "\"{}\":{}", esc(k), v);
        self
    }
    fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

/// Build an `args` object from raw JSON values (numbers pass through,
/// strings must arrive pre-quoted).
fn args(pairs: &[(&str, String)]) -> String {
    let mut o = Obj::new();
    for (k, v) in pairs {
        o = o.raw(k, v);
    }
    o.finish()
}

struct Emitter {
    events: Vec<String>,
    /// cycles → microseconds factor.
    us_per_cycle: f64,
}

impl Emitter {
    fn ts(&self, cycle: u64) -> f64 {
        cycle as f64 * self.us_per_cycle
    }

    fn complete(&mut self, pid: u32, tid: u32, name: &str, start: u64, end: u64, a: &str) {
        let dur = (self.ts(end) - self.ts(start)).max(self.us_per_cycle);
        let o = Obj::new()
            .str("name", name)
            .str("ph", "X")
            .num("pid", pid as f64)
            .num("tid", tid as f64)
            .num("ts", self.ts(start))
            .num("dur", dur)
            .raw("args", a);
        self.events.push(o.finish());
    }

    fn instant(&mut self, pid: u32, tid: u32, name: &str, at: u64, a: &str) {
        let o = Obj::new()
            .str("name", name)
            .str("ph", "i")
            .str("s", "t")
            .num("pid", pid as f64)
            .num("tid", tid as f64)
            .num("ts", self.ts(at))
            .raw("args", a);
        self.events.push(o.finish());
    }

    fn counter(&mut self, pid: u32, name: &str, at: u64, a: &str) {
        let o = Obj::new()
            .str("name", name)
            .str("ph", "C")
            .num("pid", pid as f64)
            .num("ts", self.ts(at))
            .raw("args", a);
        self.events.push(o.finish());
    }

    fn lane_name(&mut self, pid: u32, tid: u32, name: &str) {
        let o = Obj::new()
            .str("name", "thread_name")
            .str("ph", "M")
            .num("pid", pid as f64)
            .num("tid", tid as f64)
            .raw("args", &Obj::new().str("name", name).finish());
        self.events.push(o.finish());
    }

    fn process_name(&mut self, pid: u32, name: &str) {
        let o = Obj::new()
            .str("name", "process_name")
            .str("ph", "M")
            .num("pid", pid as f64)
            .raw("args", &Obj::new().str("name", name).finish());
        self.events.push(o.finish());
    }
}

/// Render a full Chrome trace JSON document from a sink.
///
/// `cycles_per_ns` is the simulated core clock (4.0 for the Table I
/// machine); it converts cycle stamps into the format's microseconds.
pub fn to_chrome_json(sink: &TraceSink, cycles_per_ns: f64) -> String {
    let mut e = Emitter {
        events: Vec::new(),
        us_per_cycle: 1.0 / (cycles_per_ns * 1000.0),
    };
    e.process_name(PID_CORES, "cores");
    e.process_name(PID_MC, "memory controllers");
    e.process_name(PID_ENGINE, "(MC)^2 engine");

    let mut named_lanes: HashMap<(u32, u32), ()> = HashMap::new();
    let mut lane = |e: &mut Emitter, pid: u32, tid: u32, name: String| {
        if named_lanes.insert((pid, tid), ()).is_none() {
            e.lane_name(pid, tid, &name);
        }
    };
    // Open reconstruction spans, keyed by (mc, line).
    let mut recon_open: HashMap<(u16, u64), u64> = HashMap::new();

    for ev in sink.ring.iter() {
        match *ev {
            Event::CoreStall { core, reason, start, end } => {
                lane(&mut e, PID_CORES, core as u32, format!("core {core}"));
                e.complete(
                    PID_CORES,
                    core as u32,
                    &format!("stall:{reason}"),
                    start,
                    end,
                    &args(&[("cycles", (end - start).to_string())]),
                );
            }
            Event::L1Miss { l1, line, start, end } => {
                lane(&mut e, PID_CORES, l1 as u32, format!("core {l1}"));
                e.complete(
                    PID_CORES,
                    l1 as u32,
                    "l1-miss",
                    start,
                    end,
                    &args(&[
                        ("line", format!("\"{line:#x}\"")),
                        ("cycles", (end - start).to_string()),
                    ]),
                );
            }
            Event::McEnqueue { mc, class, at } => {
                lane(&mut e, PID_MC, mc as u32, format!("channel {mc}"));
                e.instant(
                    PID_MC,
                    mc as u32,
                    &format!("enq:{}", class.name()),
                    at,
                    "{}",
                );
            }
            Event::McIssue { mc, bank, class, row, enq, at, done } => {
                lane(&mut e, PID_MC, mc as u32, format!("channel {mc}"));
                e.complete(
                    PID_MC,
                    mc as u32,
                    &format!("bank{} {}", bank, class.name()),
                    at,
                    done,
                    &args(&[
                        ("row", format!("\"{}\"", row.name())),
                        ("queue_cycles", (at - enq).to_string()),
                    ]),
                );
            }
            Event::McComplete { mc, class, enq, at } => {
                lane(&mut e, PID_MC, mc as u32, format!("channel {mc}"));
                e.instant(
                    PID_MC,
                    mc as u32,
                    &format!("done:{}", class.name()),
                    at,
                    &args(&[("service_cycles", (at - enq).to_string())]),
                );
            }
            Event::Refresh { mc, n, at } => {
                lane(&mut e, PID_MC, mc as u32, format!("channel {mc}"));
                e.instant(PID_MC, mc as u32, "refresh", at, &args(&[("windows", n.to_string())]));
            }
            Event::CttInsert { mc, dst, lines, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(
                    PID_ENGINE,
                    mc as u32,
                    "ctt-insert",
                    at,
                    &args(&[
                        ("dst", format!("\"{dst:#x}\"")),
                        ("lines", lines.to_string()),
                    ]),
                );
            }
            Event::CttCollapse { mc, n, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(PID_ENGINE, mc as u32, "ctt-collapse", at, &args(&[("chains", n.to_string())]));
            }
            Event::CttFlush { mc, lines, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(PID_ENGINE, mc as u32, "ctt-flush", at, &args(&[("lines", lines.to_string())]));
            }
            Event::CttFull { mc, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(PID_ENGINE, mc as u32, "ctt-full-retry", at, "{}");
            }
            Event::BpqHit { mc, line, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(
                    PID_ENGINE,
                    mc as u32,
                    "bpq-hit",
                    at,
                    &args(&[("line", format!("\"{line:#x}\""))]),
                );
            }
            Event::BpqDrain { mc, lines, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(PID_ENGINE, mc as u32, "bpq-drain", at, &args(&[("lines", lines.to_string())]));
            }
            Event::ReconStart { mc, line, at, .. } => {
                recon_open.insert((mc, line), at);
            }
            Event::ReconEnd { mc, line, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                // If the start fell off the ring, show a point-like span.
                let start = recon_open.remove(&(mc, line)).unwrap_or(at);
                e.complete(
                    PID_ENGINE,
                    mc as u32,
                    "recon",
                    start,
                    at,
                    &args(&[("line", format!("\"{line:#x}\""))]),
                );
            }
            Event::Bounce { mc, src_mc, at } => {
                lane(&mut e, PID_ENGINE, mc as u32, format!("engine ch{mc}"));
                e.instant(
                    PID_ENGINE,
                    mc as u32,
                    "bounce-read",
                    at,
                    &args(&[("src_channel", src_mc.to_string())]),
                );
            }
        }
    }
    // Reconstructions still open when capture ended: emit as instants so
    // they remain visible.
    for ((mc, line), start) in recon_open {
        e.instant(
            PID_ENGINE,
            mc as u32,
            "recon-open",
            start,
            &args(&[("line", format!("\"{line:#x}\""))]),
        );
    }

    // Counter lanes from the interval series.
    for r in sink.series.rows() {
        e.counter(
            PID_MC,
            &format!("ch{} queues", r.mc),
            r.cycle,
            &args(&[("rpq", r.rpq.to_string()), ("wpq", r.wpq.to_string())]),
        );
        e.counter(
            PID_MC,
            &format!("ch{} inflight", r.mc),
            r.cycle,
            &args(&[("n", r.inflight.to_string())]),
        );
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, ev) in e.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(ev);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PacketClass, RowKind};
    use crate::TraceConfig;

    /// Minimal recursive-descent JSON well-formedness checker. Returns the
    /// number of objects in the top-level `traceEvents` array.
    mod json {
        pub struct P<'a> {
            s: &'a [u8],
            pub i: usize,
        }
        impl<'a> P<'a> {
            pub fn new(s: &'a str) -> P<'a> {
                P { s: s.as_bytes(), i: 0 }
            }
            fn ws(&mut self) {
                while self.i < self.s.len() && (self.s[self.i] as char).is_whitespace() {
                    self.i += 1;
                }
            }
            fn peek(&mut self) -> u8 {
                self.ws();
                assert!(self.i < self.s.len(), "unexpected end of JSON");
                self.s[self.i]
            }
            fn eat(&mut self, c: u8) {
                assert_eq!(self.peek(), c, "expected {:?} at byte {}", c as char, self.i);
                self.i += 1;
            }
            pub fn value(&mut self) {
                match self.peek() {
                    b'{' => self.object(),
                    b'[' => self.array(),
                    b'"' => self.string(),
                    b't' => self.lit("true"),
                    b'f' => self.lit("false"),
                    b'n' => self.lit("null"),
                    _ => self.number(),
                }
            }
            pub fn object(&mut self) {
                self.eat(b'{');
                if self.peek() == b'}' {
                    self.i += 1;
                    return;
                }
                loop {
                    self.string();
                    self.eat(b':');
                    self.value();
                    match self.peek() {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return;
                        }
                        c => panic!("bad object separator {:?}", c as char),
                    }
                }
            }
            pub fn array(&mut self) {
                self.eat(b'[');
                if self.peek() == b']' {
                    self.i += 1;
                    return;
                }
                loop {
                    self.value();
                    match self.peek() {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return;
                        }
                        c => panic!("bad array separator {:?}", c as char),
                    }
                }
            }
            fn string(&mut self) {
                self.eat(b'"');
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                    }
                    self.i += 1;
                    assert!(self.i < self.s.len(), "unterminated string");
                }
                self.i += 1;
            }
            fn number(&mut self) {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(self.s[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                assert!(self.i > start, "expected number at byte {}", start);
            }
            fn lit(&mut self, l: &str) {
                assert_eq!(
                    &self.s[self.i..self.i + l.len()],
                    l.as_bytes(),
                    "bad literal"
                );
                self.i += l.len();
            }
        }

        /// Parse a whole document; panic on malformed JSON.
        pub fn validate(s: &str) {
            let mut p = P::new(s);
            p.value();
            while p.i < s.len() {
                assert!(
                    (s.as_bytes()[p.i] as char).is_whitespace(),
                    "trailing garbage at byte {}",
                    p.i
                );
                p.i += 1;
            }
        }
    }

    fn sample_sink() -> crate::TraceSink {
        let mut sink = crate::TraceSink::new(TraceConfig::default());
        for ev in [
            Event::CoreStall { core: 0, reason: "load \"miss\"", start: 10, end: 90 },
            Event::L1Miss { l1: 0, line: 0x4000, start: 12, end: 88 },
            Event::McEnqueue { mc: 0, class: PacketClass::DemandRead, at: 20 },
            Event::McIssue {
                mc: 0,
                bank: 3,
                class: PacketClass::DemandRead,
                row: RowKind::Conflict,
                enq: 20,
                at: 45,
                done: 77,
            },
            Event::McComplete { mc: 0, class: PacketClass::DemandRead, enq: 20, at: 80 },
            Event::Refresh { mc: 1, n: 2, at: 100 },
            Event::CttInsert { mc: 0, dst: 0x10000, lines: 32, at: 110 },
            Event::CttCollapse { mc: 0, n: 1, at: 111 },
            Event::CttFlush { mc: 0, lines: 4, at: 112 },
            Event::CttFull { mc: 0, at: 113 },
            Event::BpqHit { mc: 0, line: 0x10040, at: 114 },
            Event::BpqDrain { mc: 0, lines: 8, at: 115 },
            Event::ReconStart { mc: 0, line: 0x10080, cause: "demand", at: 116 },
            Event::ReconEnd { mc: 0, line: 0x10080, at: 140 },
            Event::ReconStart { mc: 1, line: 0x20000, cause: "drain", at: 150 },
            Event::Bounce { mc: 0, src_mc: 1, at: 160 },
        ] {
            sink.record(ev);
        }
        sink.series.push(crate::series::McSample {
            cycle: 1000,
            mc: 0,
            rpq: 5,
            wpq: 2,
            inflight: 3,
            reads: 10,
            writes: 4,
            engine_accesses: 1,
            row_hits: 8,
            row_misses: 6,
            refreshes: 0,
        });
        sink
    }

    #[test]
    fn emits_well_formed_json_with_all_event_kinds() {
        let sink = sample_sink();
        let doc = to_chrome_json(&sink, 4.0);
        json::validate(&doc);
        // Lanes + every event kind present.
        for needle in [
            "\"traceEvents\"",
            "process_name",
            "thread_name",
            "stall:load \\\"miss\\\"",
            "l1-miss",
            "enq:demand_read",
            "bank3 demand_read",
            "done:demand_read",
            "refresh",
            "ctt-insert",
            "ctt-collapse",
            "ctt-flush",
            "ctt-full-retry",
            "bpq-hit",
            "bpq-drain",
            "\"recon\"",
            "recon-open",
            "bounce-read",
            "queues",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
    }

    #[test]
    fn timestamps_are_microseconds_at_the_configured_clock() {
        let mut sink = crate::TraceSink::new(TraceConfig::default());
        // 8000 cycles at 4 GHz = 2000 ns = 2 us.
        sink.record(Event::McEnqueue { mc: 0, class: PacketClass::Write, at: 8000 });
        let doc = to_chrome_json(&sink, 4.0);
        json::validate(&doc);
        assert!(doc.contains("\"ts\":2"), "expected ts 2us in:\n{doc}");
    }

    #[test]
    fn escaping_handles_control_and_quote_characters() {
        assert_eq!(esc("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}

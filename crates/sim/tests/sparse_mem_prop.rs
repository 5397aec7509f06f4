//! Property test: the page-granular [`SparseMem`] against a byte map.
//!
//! Random sequences of `write_line`, `write_bytes`, `read_line` and
//! `read_bytes` run against both the image and a reference model, a
//! `HashMap` from byte address to byte in which every absent byte is zero.
//! Runs are 0 to 10 KB long, start anywhere in a line, and cluster near
//! 4 KB page boundaries, so they split across pages at every offset. Reads
//! also land on pages never written and on never-written lines inside
//! pages a single line write backed. Every read must equal the model, and
//! so must a final sweep over every line and byte the sequence could touch.

use mcs_sim::addr::{PhysAddr, CACHELINE, PAGE_4K};
use mcs_sim::data::{LineData, SparseMem};
use proptest::prelude::*;
use std::collections::HashMap;

/// Pages the operations address (a far page keeps a distant key in the map).
const PAGES: u64 = 6;
/// Base of a page far from the others.
const FAR: u64 = 1 << 40;
/// Longest byte run, in bytes.
const MAX_RUN: usize = 10 * 1024;

#[derive(Debug, Clone, Copy)]
enum Op {
    WriteLine { addr: u64, seed: u64 },
    WriteBytes { addr: u64, len: usize, seed: u64 },
    ReadLine { addr: u64 },
    ReadBytes { addr: u64, len: usize },
}

/// A byte address: one of `PAGES` pages (or the far page), at an offset
/// anywhere, just before a page's end, or just after its start.
fn addr_strategy() -> impl Strategy<Value = u64> {
    let page = prop_oneof![(0..PAGES).prop_map(|p| p * PAGE_4K), Just(FAR)];
    let off = prop_oneof![
        0..PAGE_4K,
        PAGE_4K - 2 * CACHELINE..PAGE_4K,
        0..2 * CACHELINE,
    ];
    (page, off).prop_map(|(p, o)| p + o)
}

fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![0..MAX_RUN + 1, 0..2 * CACHELINE as usize, Just(PAGE_4K as usize)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), any::<u64>()).prop_map(|(addr, seed)| Op::WriteLine { addr, seed }),
        (addr_strategy(), len_strategy(), any::<u64>())
            .prop_map(|(addr, len, seed)| Op::WriteBytes { addr, len, seed }),
        addr_strategy().prop_map(|addr| Op::ReadLine { addr }),
        (addr_strategy(), len_strategy()).prop_map(|(addr, len)| Op::ReadBytes { addr, len }),
    ]
}

/// `len` non-zero bytes derived from `seed`, so written bytes never pass
/// for never-written ones.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let x = (seed ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (x >> 56) as u8 | 1
        })
        .collect()
}

/// The reference: one entry per byte ever written.
#[derive(Default)]
struct Model(HashMap<u64, u8>);

impl Model {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.0.insert(addr + i as u64, b);
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.0.get(&(addr + i)).copied().unwrap_or(0))
            .collect()
    }

    fn line(&self, addr: u64) -> LineData {
        let base = addr & !(CACHELINE - 1);
        let mut line = LineData::ZERO;
        line.write(0, &self.read(base, CACHELINE as usize));
        line
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn sparse_mem_matches_a_byte_map(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut mem = SparseMem::new();
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::WriteLine { addr, seed } => {
                    let mut line = LineData::ZERO;
                    line.write(0, &payload(seed, CACHELINE as usize));
                    mem.write_line(PhysAddr(addr), line);
                    model.write(addr & !(CACHELINE - 1), &line.0);
                }
                Op::WriteBytes { addr, len, seed } => {
                    let bytes = payload(seed, len);
                    mem.write_bytes(PhysAddr(addr), &bytes);
                    model.write(addr, &bytes);
                }
                Op::ReadLine { addr } => {
                    prop_assert_eq!(mem.read_line(PhysAddr(addr)), model.line(addr), "step {}", step);
                }
                Op::ReadBytes { addr, len } => {
                    let got = mem.read_bytes(PhysAddr(addr), len);
                    prop_assert!(got == model.read(addr, len), "step {}: read_bytes({:#x}, {}) differs", step, addr, len);
                }
            }
        }
        // Runs reach at most MAX_RUN bytes past their page, so this sweep
        // covers every byte the sequence could have written.
        let reach = (PAGES * PAGE_4K) as usize + MAX_RUN + PAGE_4K as usize;
        for base in [0, FAR] {
            prop_assert!(mem.read_bytes(PhysAddr(base), reach) == model.read(base, reach), "sweep from {:#x}", base);
            for a in (base..base + reach as u64).step_by(CACHELINE as usize) {
                prop_assert_eq!(mem.read_line(PhysAddr(a)), model.line(a), "line {:#x}", a);
            }
        }
    }
}

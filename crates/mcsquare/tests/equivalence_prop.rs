//! Property-based end-to-end equivalence: for random sequences of copies,
//! stores and final reads, the lazy machine's architectural memory equals
//! the eager machine's — the §III-E guarantee under arbitrary interleaving,
//! with DRAM refresh and fault injection each on or off.

use mcs_sim::addr::PhysAddr;
use mcs_sim::config::SystemConfig;
use mcs_sim::fault::FaultPlan;
use mcs_sim::program::FixedProgram;
use mcs_sim::system::System;
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};
use mcsquare::software::{memcpy_eager_uops, memcpy_lazy_uops, LazyOpts};
use mcsquare::{McSquareConfig, McSquareEngine};
use proptest::prelude::*;

const REGION: u64 = 0x500000;
const PAGES: u64 = 8;

#[derive(Debug, Clone)]
enum Op {
    /// Copy `len` bytes from page `s`+off to page `d`+off2.
    Copy { d: u64, s: u64, doff: u64, soff: u64, len: u64 },
    /// Store a byte at page `p` offset `off`, then CLWB + fence.
    Store { p: u64, off: u64, val: u8 },
    /// MCFREE a whole page's range.
    Free { p: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PAGES, 0..PAGES, 0u64..256, 0u64..256, 64u64..1024).prop_filter_map(
            "non-overlapping",
            |(d, s, doff, soff, len)| {
                if d == s {
                    return None;
                }
                Some(Op::Copy { d, s, doff, soff, len })
            }
        ),
        (0..PAGES, 0u64..4096, any::<u8>()).prop_map(|(p, off, val)| Op::Store { p, off, val }),
        (0..PAGES).prop_map(|p| Op::Free { p }),
    ]
}

fn page(p: u64) -> PhysAddr {
    PhysAddr(REGION + p * 4096)
}

fn build(ops: &[Op], lazy: bool) -> Vec<Uop> {
    build_with_reads(ops, lazy, 0, PAGES)
}

fn build_with_reads(ops: &[Op], lazy: bool, read_from: u64, read_to: u64) -> Vec<Uop> {
    let mut uops: Vec<Uop> = Vec::new();
    for op in ops {
        match op {
            Op::Copy { d, s, doff, soff, len } => {
                let dst = page(*d).add(*doff);
                let src = page(*s).add(*soff);
                let base = uops.len() as u64;
                if lazy {
                    uops.extend(memcpy_lazy_uops(base, dst, src, *len, &LazyOpts::default()));
                } else {
                    uops.extend(memcpy_eager_uops(base, dst, src, *len, StatTag::Memcpy));
                }
            }
            Op::Store { p, off, val } => {
                let addr = page(*p).add(*off);
                uops.push(Uop::new(
                    UopKind::Store {
                        addr,
                        size: 1,
                        data: StoreData::Imm(vec![*val]),
                        nontemporal: false,
                    },
                    StatTag::App,
                ));
                uops.push(Uop::new(UopKind::Clwb { addr }, StatTag::App));
                uops.push(Uop::new(UopKind::Mfence, StatTag::App));
            }
            Op::Free { p } => {
                // Freed memory is undefined until rewritten (§III-C), so to
                // keep states comparable the model zeroes it: the eager
                // machine stores zeroes; the lazy machine frees then stores
                // zeroes (as the OS does before page reuse, §III-E).
                if lazy {
                    uops.push(Uop::new(
                        UopKind::Mcfree { addr: page(*p), size: 4096 },
                        StatTag::App,
                    ));
                }
                for l in 0..(4096 / 64) {
                    uops.push(Uop::new(
                        UopKind::Store {
                            addr: page(*p).add(l * 64),
                            size: 64,
                            data: StoreData::Splat(0),
                            nontemporal: false,
                        },
                        StatTag::App,
                    ));
                }
            }
        }
    }
    // Read everything back so lazy copies resolve, flush so DRAM converges.
    for p in read_from..read_to {
        for l in 0..(4096 / 64) {
            uops.push(Uop::new(
                UopKind::Load { addr: page(p).add(l * 64), size: 64 },
                StatTag::App,
            ));
        }
    }
    uops.push(Uop::new(UopKind::Mfence, StatTag::App));
    uops
}

/// Every (refresh, faults) setting of [`machine`].
const SETTINGS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// The tiny machine, optionally with refresh every 500 cycles (several
/// windows per run) and the mild every-class fault plan.
fn machine(refresh: bool, faults: bool) -> SystemConfig {
    let mut cfg = SystemConfig::tiny();
    if refresh {
        cfg.dram.t_refi = 500;
    }
    if faults {
        cfg.fault = FaultPlan::mild(0xFA17);
    }
    cfg
}

fn run(ops: &[Op], lazy: bool, refresh: bool, faults: bool) -> Vec<u8> {
    let cfg = machine(refresh, faults);
    let uops = build(ops, lazy);
    let mut sys = if lazy {
        let e = McSquareEngine::new(McSquareConfig::tiny(), cfg.channels);
        System::with_engine(cfg, vec![Box::new(FixedProgram::new(uops))], Box::new(e))
    } else {
        System::new(cfg, vec![Box::new(FixedProgram::new(uops))])
    };
    let init: Vec<u8> =
        (0..PAGES * 4096).map(|i| ((i * 37 + 11) % 251) as u8).collect();
    sys.poke(page(0), &init);
    sys.run(400_000_000).expect("finishes");
    sys.peek_materialized(page(0), (PAGES * 4096) as usize)
}

#[test]
fn regression_chain_collapse_misaligned() {
    // Found by the property test: a misaligned copy whose source is the
    // destination of an earlier misaligned copy (chain collapse at byte
    // granularity).
    let ops = vec![
        Op::Copy { d: 3, s: 0, doff: 65, soff: 0, len: 575 },
        Op::Copy { d: 2, s: 3, doff: 10, soff: 136, len: 249 },
    ];
    for (refresh, faults) in SETTINGS {
        let eager = run(&ops, false, refresh, faults);
        let lazy = run(&ops, true, refresh, faults);
        let diffs: Vec<usize> =
            (0..eager.len()).filter(|&i| eager[i] != lazy[i]).collect();
        assert!(
            diffs.is_empty(),
            "refresh {refresh}, faults {faults}: {} diffs, first at {:?} (page {}, off {})",
            diffs.len(),
            diffs.first(),
            diffs.first().map(|d| d / 4096).unwrap_or(0),
            diffs.first().map(|d| d % 4096).unwrap_or(0),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn lazy_machine_is_architecturally_eager(
        ops in prop::collection::vec(op_strategy(), 1..8)
    ) {
        for (refresh, faults) in SETTINGS {
            let eager = run(&ops, false, refresh, faults);
            let lazy = run(&ops, true, refresh, faults);
            prop_assert_eq!(eager, lazy, "refresh {}, faults {}, ops: {:?}", refresh, faults, ops);
        }
    }
}

/// Two cores working disjoint page sets concurrently: the lazy machine
/// must still converge to the eager result (the engine is shared across
/// controllers; multi-core traffic interleaves at the MCs).
fn run_two_cores(ops_a: &[Op], ops_b: &[Op], lazy: bool, refresh: bool, faults: bool) -> Vec<u8> {
    let mut cfg = machine(refresh, faults);
    cfg.cores = 2;
    // Core B works on pages shifted past core A's set.
    let shift = |ops: &[Op]| -> Vec<Op> {
        ops.iter()
            .map(|o| match o {
                Op::Copy { d, s, doff, soff, len } => Op::Copy {
                    d: d + PAGES,
                    s: s + PAGES,
                    doff: *doff,
                    soff: *soff,
                    len: *len,
                },
                Op::Store { p, off, val } => Op::Store { p: p + PAGES, off: *off, val: *val },
                Op::Free { p } => Op::Free { p: p + PAGES },
            })
            .collect()
    };
    let ua = build_with_reads(ops_a, lazy, 0, PAGES);
    // Core B resolves its own (shifted) pages.
    let ub = build_with_reads(&shift(ops_b), lazy, PAGES, 2 * PAGES);
    let mut sys = if lazy {
        let e = McSquareEngine::new(McSquareConfig::tiny(), cfg.channels);
        System::with_engine(
            cfg,
            vec![
                Box::new(FixedProgram::new(ua)),
                Box::new(FixedProgram::new(ub)),
            ],
            Box::new(e),
        )
    } else {
        System::new(
            cfg,
            vec![
                Box::new(FixedProgram::new(ua)),
                Box::new(FixedProgram::new(ub)),
            ],
        )
    };
    let init: Vec<u8> =
        (0..2 * PAGES * 4096).map(|i| ((i * 37 + 11) % 251) as u8).collect();
    sys.poke(page(0), &init);
    sys.run(800_000_000).expect("finishes");
    sys.peek_materialized(page(0), (2 * PAGES * 4096) as usize)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
    #[test]
    fn two_cores_stay_architecturally_eager(
        ops_a in prop::collection::vec(op_strategy(), 1..5),
        ops_b in prop::collection::vec(op_strategy(), 1..5),
    ) {
        for (refresh, faults) in SETTINGS {
            let eager = run_two_cores(&ops_a, &ops_b, false, refresh, faults);
            let lazy = run_two_cores(&ops_a, &ops_b, true, refresh, faults);
            prop_assert_eq!(eager, lazy, "refresh {}, faults {}", refresh, faults);
        }
    }
}

// ---------------------------------------------------------------------------
// CTT-level properties: MAX_ENTRY_SIZE row splitting and NeedsFlush
// round-trips. Multi-megabyte copies are impractical through the
// cycle-accurate system, so these drive the table directly.
// ---------------------------------------------------------------------------

mod ctt_props {
    use mcs_sim::addr::{PhysAddr, CACHELINE};
    use mcsquare::ctt::{Ctt, CttError, MAX_ENTRY_SIZE};
    use mcsquare::ranges::ByteRange;
    use proptest::prelude::*;

    const DST: u64 = 0x1000_0000;
    const SRC: u64 = 0x2000_0000;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// A single copy straddling the 21-bit size limit stays one
        /// segment but costs ceil(size / MAX_ENTRY_SIZE) hardware rows.
        #[test]
        fn oversized_copy_splits_into_hw_rows(
            rows in 1u64..=3,
            delta_lines in -2i64..=2,
        ) {
            let size = ((rows * MAX_ENTRY_SIZE) as i64 + delta_lines * CACHELINE as i64)
                .max(CACHELINE as i64) as u64;
            let mut c = Ctt::new(64);
            c.try_insert(PhysAddr(DST), PhysAddr(SRC), size).unwrap();
            prop_assert_eq!(c.len(), 1, "one contiguous segment");
            prop_assert_eq!(c.tracked_bytes(), size);
            prop_assert_eq!(c.hw_entries() as u64, size.div_ceil(MAX_ENTRY_SIZE));
            prop_assert!((c.occupancy() - c.hw_entries() as f64 / 64.0).abs() < 1e-12);
            prop_assert!(c.check_invariants().is_ok());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// Back-to-back page-granularity inserts (the software wrapper's
        /// splitting) merge into one wide segment whose hardware cost is
        /// still counted in 2 MB rows.
        #[test]
        fn merged_chunks_are_accounted_in_hw_rows(k in 1u64..=6) {
            let chunk = MAX_ENTRY_SIZE / 2; // 1 MB chunks
            let mut c = Ctt::new(64);
            for i in 0..k {
                c.try_insert(
                    PhysAddr(DST + i * chunk),
                    PhysAddr(SRC + i * chunk),
                    chunk,
                )
                .unwrap();
            }
            prop_assert_eq!(c.len(), 1, "contiguous src+dst chunks merge");
            prop_assert_eq!(c.tracked_bytes(), k * chunk);
            prop_assert_eq!(c.hw_entries() as u64, (k * chunk).div_ceil(MAX_ENTRY_SIZE));
            prop_assert!(c.check_invariants().is_ok());
        }
    }

    #[test]
    fn capacity_counts_hw_rows_not_segments() {
        // Capacity 3 with the conservative +1 headroom: a 4 MB + one-line
        // copy needs 3 rows and is rejected outright, while 2 MB copies
        // (one row each) fit until the rows run out.
        let mut c = Ctt::new(3);
        assert_eq!(
            c.try_insert(PhysAddr(DST), PhysAddr(SRC), 2 * MAX_ENTRY_SIZE + CACHELINE),
            Err(CttError::Full),
        );
        c.try_insert(PhysAddr(DST), PhysAddr(SRC), MAX_ENTRY_SIZE).unwrap();
        // Non-adjacent second entry: no merge, second row.
        c.try_insert(
            PhysAddr(DST + 8 * MAX_ENTRY_SIZE),
            PhysAddr(SRC + 8 * MAX_ENTRY_SIZE),
            MAX_ENTRY_SIZE,
        )
        .unwrap();
        assert_eq!(c.hw_entries(), 2);
        assert_eq!(
            c.try_insert(
                PhysAddr(DST + 16 * MAX_ENTRY_SIZE),
                PhysAddr(SRC + 16 * MAX_ENTRY_SIZE),
                MAX_ENTRY_SIZE,
            ),
            Err(CttError::Full),
        );
        assert!(c.check_invariants().is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]
        /// Inserting a copy whose destination overlaps a live entry's
        /// source reports exactly the dependent destination lines; after
        /// those lines are materialized (remove_dst) the retry succeeds.
        #[test]
        fn needs_flush_reports_exact_dependents_and_retry_succeeds(
            aoff in 0u64..256,        // first copy's source offset (misaligned ok)
            boff_lines in 0u64..4,    // first copy's dst offset, in lines
            l1 in 1u64..=16,          // first copy length, in lines
            delta in 0u64..1024,      // where in the source the new dst lands
            l2 in 1u64..=8,           // second copy length, in lines
            coff in 0u64..256,        // second copy's source offset
        ) {
            let a = 0x10_0000u64; // source region of copy 1
            let b = 0x30_0000u64; // destination region of copy 1
            let c_ = 0x50_0000u64; // source region of copy 2
            let len1 = l1 * CACHELINE;
            let len2 = l2 * CACHELINE;

            let mut ctt = Ctt::new(64);
            ctt.try_insert(PhysAddr(b + boff_lines * CACHELINE), PhysAddr(a + aoff), len1)
                .unwrap();

            // A line-aligned destination covering some byte of copy 1's
            // source: the flush-before-insert rule must fire.
            let hit = a + aoff + (delta % len1);
            let dst2 = hit / CACHELINE * CACHELINE;
            let want = ctt.dst_lines_with_src_in(ByteRange::sized(dst2, len2));
            prop_assert!(!want.is_empty());

            match ctt.try_insert(PhysAddr(dst2), PhysAddr(c_ + coff), len2) {
                Err(CttError::NeedsFlush(lines)) => {
                    prop_assert_eq!(&lines, &want, "reported lines must be the dependents");
                    // Materialize each dependent line, as the controller's
                    // flush reconstruction does, then retry.
                    for l in &lines {
                        ctt.remove_dst(*l, CACHELINE);
                    }
                    prop_assert!(ctt.check_invariants().is_ok());
                    ctt.try_insert(PhysAddr(dst2), PhysAddr(c_ + coff), len2)
                        .expect("retry after flushing dependents succeeds");
                    // Copy 1 was line-aligned, so every flushed line was
                    // fully tracked: the byte accounting is exact.
                    prop_assert_eq!(
                        ctt.tracked_bytes(),
                        len1 - CACHELINE * lines.len() as u64 + len2
                    );
                    prop_assert!(!ctt.lookup_line(PhysAddr(dst2)).is_empty());
                    prop_assert!(ctt.check_invariants().is_ok());
                }
                other => prop_assert!(false, "expected NeedsFlush, got {:?}", other),
            }
        }
    }
}

#[test]
fn regression_needs_flush_copy_into_live_source() {
    // The destination of the second copy is the source of the first: the
    // controller must flush (materialize) the dependent destination lines
    // of copy 1 before the second MCLAZY can be tracked (§III-B3), and the
    // result must still equal the eager machine's.
    let ops = vec![
        Op::Copy { d: 3, s: 0, doff: 0, soff: 0, len: 512 },
        Op::Copy { d: 0, s: 5, doff: 0, soff: 0, len: 512 },
    ];
    for (refresh, faults) in SETTINGS {
        assert_eq!(
            run(&ops, false, refresh, faults),
            run(&ops, true, refresh, faults),
            "refresh {refresh}, faults {faults}"
        );
    }
}

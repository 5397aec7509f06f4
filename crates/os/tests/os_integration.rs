//! Integration tests for the kernel model: pipe ring-buffer wraparound
//! under sustained traffic, and copy-on-write fault paths across fork
//! chains.
//!
//! The inline unit tests in `pipe.rs`/`vm.rs` check single operations;
//! these tests check the *sequences* the Fig. 18/19 experiments depend
//! on — a pipe wrapping several times while staying FIFO, and refcount /
//! remap behaviour across multiple forks and faults.

use mcs_os::pipe::Pipe;
use mcs_os::vm::{Kernel, PageSize, VirtAddr, Vm};
use mcs_os::{CopyMode, OsCosts};
use mcs_sim::addr::{PhysAddr, PAGE_2M, PAGE_4K};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::uop::{StatTag, Uop, UopKind};
use std::collections::BTreeSet;

const RING: PhysAddr = PhysAddr(0x100000);
const CAP: u64 = 4096;

fn pipe() -> Pipe {
    Pipe::new(RING, CAP, OsCosts::free())
}

/// Ring-buffer byte offsets covered by `Store` uops that land inside the
/// ring (a pipe write's copy destinations).
fn store_ring_bytes(uops: &[Uop]) -> BTreeSet<u64> {
    let mut set = BTreeSet::new();
    for u in uops {
        if let UopKind::Store { addr, size, .. } = u.kind {
            if addr.0 >= RING.0 && addr.0 < RING.0 + CAP {
                for b in 0..size as u64 {
                    set.insert(addr.0 + b - RING.0);
                }
            }
        }
    }
    set
}

/// Ring-buffer byte offsets covered by `Load` uops that land inside the
/// ring (a pipe read's copy sources).
fn load_ring_bytes(uops: &[Uop]) -> BTreeSet<u64> {
    let mut set = BTreeSet::new();
    for u in uops {
        if let UopKind::Load { addr, size } = u.kind {
            if addr.0 >= RING.0 && addr.0 < RING.0 + CAP {
                for b in 0..size as u64 {
                    set.insert(addr.0 + b - RING.0);
                }
            }
        }
    }
    set
}

/// The ring offsets `[head, head+len)` modulo the capacity.
fn expect_interval(head: u64, len: u64) -> BTreeSet<u64> {
    (0..len).map(|i| (head + i) & (CAP - 1)).collect()
}

#[test]
fn multi_wrap_writes_cover_expected_ring_intervals() {
    let mut p = pipe();
    let src = PhysAddr(0x800000);
    let chunk = 1536u64; // 24 lines: 8 chunks = 3 full trips around the ring
    let mut head = 0u64;
    for k in 0..8 {
        let (w, moved) = p.write_uops(0, src, chunk, CopyMode::Eager);
        assert_eq!(moved, chunk, "iteration {k}: pipe was drained, write fits");
        assert_eq!(
            store_ring_bytes(&w),
            expect_interval(head, chunk),
            "iteration {k}: write must land at the ring head, wrapping mod capacity"
        );
        let (r, moved) = p.read_uops(0, PhysAddr(0x900000), chunk, CopyMode::Eager);
        assert_eq!(moved, chunk);
        assert_eq!(
            load_ring_bytes(&r),
            expect_interval(head, chunk),
            "iteration {k}: FIFO — the read must source exactly the bytes just written"
        );
        head += chunk;
    }
    assert_eq!(p.available(), 0);
    assert_eq!(p.free_space(), CAP);
}

#[test]
fn wrapping_write_splits_into_two_contiguous_runs() {
    let mut p = pipe();
    let src = PhysAddr(0x800000);
    // Advance head to 3072 and drain.
    p.write_uops(0, src, 3072, CopyMode::Eager);
    p.read_uops(0, PhysAddr(0x900000), 3072, CopyMode::Eager);
    // A 1536-byte write now wraps: 1024 bytes at 3072..4096, 512 at 0..512.
    let (w, moved) = p.write_uops(0, src, 1536, CopyMode::Eager);
    assert_eq!(moved, 1536);
    let covered = store_ring_bytes(&w);
    let mut expected: BTreeSet<u64> = (3072..4096).collect();
    expected.extend(0..512);
    assert_eq!(covered, expected);
    // The source side is read linearly — no wrap on the user buffer.
    let src_loads: Vec<u64> = w
        .iter()
        .filter_map(|u| match u.kind {
            UopKind::Load { addr, .. } if addr.0 >= src.0 => Some(addr.0 - src.0),
            _ => None,
        })
        .collect();
    assert_eq!(*src_loads.last().unwrap(), 1536 - 64);
}

#[test]
fn lazy_wrapping_write_emits_one_mclazy_per_run() {
    let mut p = pipe();
    let src = PhysAddr(0x800000);
    p.write_uops(0, src, 2048, CopyMode::Eager);
    p.read_uops(0, PhysAddr(0x900000), 2048, CopyMode::Eager);
    // head = 2048; a full-capacity lazy write wraps into two aligned runs.
    let (w, moved) = p.write_uops(0, src, CAP, CopyMode::Lazy);
    assert_eq!(moved, CAP);
    let mclazys: Vec<(u64, u64, u64)> = w
        .iter()
        .filter_map(|u| match u.kind {
            UopKind::Mclazy { dst, src, size } => Some((dst.0, src.0, size)),
            _ => None,
        })
        .collect();
    assert_eq!(
        mclazys,
        vec![
            (RING.0 + 2048, src.0, 2048),
            (RING.0, src.0 + 2048, 2048),
        ],
        "one MCLAZY per ring run, wrapped destination, linear source"
    );
    // A lazy read back out sources the ring via MCLAZY too.
    let (r, moved) = p.read_uops(0, PhysAddr(0x900000), CAP, CopyMode::Lazy);
    assert_eq!(moved, CAP);
    let ring_srcs = r
        .iter()
        .filter(|u| {
            matches!(u.kind, UopKind::Mclazy { src, .. }
                if src.0 >= RING.0 && src.0 < RING.0 + CAP)
        })
        .count();
    assert_eq!(ring_srcs, 2, "read wraps: one MCLAZY per ring run");
}

#[test]
fn full_pipe_rejects_bytes_without_copy_uops() {
    let mut p = pipe();
    let src = PhysAddr(0x800000);
    let (_, a) = p.write_uops(0, src, 3000, CopyMode::Eager);
    assert_eq!(a, 3000);
    let (_, b) = p.write_uops(0, src, 3000, CopyMode::Eager);
    assert_eq!(b, CAP - 3000, "second write bounded by free space");
    let (w, c) = p.write_uops(0, src, 64, CopyMode::Eager);
    assert_eq!(c, 0);
    assert!(
        !w.iter().any(|u| matches!(
            u.kind,
            UopKind::Load { .. } | UopKind::Store { .. } | UopKind::Mclazy { .. }
        )),
        "a rejected write still pays the syscall but moves nothing"
    );
    let (_, r) = p.read_uops(0, PhysAddr(0x900000), 2 * CAP, CopyMode::Eager);
    assert_eq!(r, CAP, "read bounded by occupancy");
    assert_eq!(p.available(), 0);
}

#[test]
fn random_traffic_preserves_ring_invariants() {
    // Deterministic xorshift traffic: interleaved writes and reads of
    // irregular sizes, checking occupancy accounting and that every write
    // lands exactly `accepted` distinct bytes inside the ring at the
    // modelled head.
    let mut p = pipe();
    let src = PhysAddr(0x800000);
    let mut rng = 0x9e3779b97f4a7c15u64;
    let mut head = 0u64;
    let mut used = 0u64;
    for _ in 0..200 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let len = rng % 1500 + 1;
        if rng & 1 == 0 {
            let (w, moved) = p.write_uops(0, src, len, CopyMode::Eager);
            assert_eq!(moved, len.min(CAP - used));
            assert_eq!(store_ring_bytes(&w), expect_interval(head, moved));
            head = (head + moved) & (CAP - 1);
            used += moved;
        } else {
            let (_, moved) = p.read_uops(0, PhysAddr(0x900000), len, CopyMode::Eager);
            assert_eq!(moved, len.min(used));
            used -= moved;
        }
        assert_eq!(p.available(), used);
        assert_eq!(p.free_space(), CAP - used);
    }
}

// ---------------------------------------------------------------------
// vm.rs: copy-on-write fault paths
// ---------------------------------------------------------------------

fn kernel() -> Kernel {
    Kernel::new(OsCosts::free(), AddrSpace::new(PhysAddr(1 << 20), 1 << 30))
}

#[test]
fn double_fork_refcounts_drop_as_each_child_faults() {
    let mut k = kernel();
    let mut parent = Vm::new();
    let old = k.mmap(&mut parent, VirtAddr(0x10000), PAGE_4K, PageSize::Base4K);
    let (mut a, _) = k.fork(&mut parent, StatTag::Kernel);
    let (mut b, _) = k.fork(&mut parent, StatTag::Kernel);
    assert_eq!(k.frame_refs(old, PageSize::Base4K), 3, "parent + two children");

    k.handle_cow_fault(&mut a, VirtAddr(0x10000), CopyMode::Eager, 0);
    assert_eq!(k.frame_refs(old, PageSize::Base4K), 2);
    k.handle_cow_fault(&mut b, VirtAddr(0x10000), CopyMode::Lazy, 0);
    assert_eq!(k.frame_refs(old, PageSize::Base4K), 1, "only the parent still shares");

    // All three now map distinct frames; children are writable.
    let (pa_p, vp) = parent.translate(VirtAddr(0x10000)).unwrap();
    let (pa_a, va) = a.translate(VirtAddr(0x10000)).unwrap();
    let (pa_b, vb) = b.translate(VirtAddr(0x10000)).unwrap();
    assert_eq!(pa_p, old);
    assert_ne!(pa_a, pa_p);
    assert_ne!(pa_b, pa_p);
    assert_ne!(pa_a, pa_b);
    assert!(vp.cow && !vp.writable, "parent never wrote, still COW");
    assert!(va.writable && !va.cow);
    assert!(vb.writable && !vb.cow);
    assert_eq!(k.stats.cow_faults, 2);
    assert_eq!(k.stats.pages_copied, 2);
}

#[test]
fn fault_in_middle_of_hugepage_remaps_whole_page_contiguously() {
    let mut k = kernel();
    let mut vm = Vm::new();
    k.mmap(&mut vm, VirtAddr(0), PAGE_2M, PageSize::Huge2M);
    let (mut child, _) = k.fork(&mut vm, StatTag::Kernel);
    // Fault deep inside the page, at an arbitrary misaligned address.
    k.handle_cow_fault(&mut child, VirtAddr(PAGE_2M / 2 + 123), CopyMode::Lazy, 0);
    let (lo, v) = child.translate(VirtAddr(0)).unwrap();
    let (hi, _) = child.translate(VirtAddr(PAGE_2M - 64)).unwrap();
    assert_eq!(hi.0 - lo.0, PAGE_2M - 64, "whole 2 MB remapped to one contiguous frame");
    assert!(v.writable && !v.cow);
    assert_eq!(child.segments(), 1, "remap did not fragment the mapping");
}

#[test]
fn lazy_4k_fault_is_one_page_sized_mclazy_with_fence() {
    let mut k = kernel();
    let mut vm = Vm::new();
    k.mmap(&mut vm, VirtAddr(0x40000), PAGE_4K, PageSize::Base4K);
    let (mut child, _) = k.fork(&mut vm, StatTag::Kernel);
    let uops = k.handle_cow_fault(&mut child, VirtAddr(0x40000), CopyMode::Lazy, 0);
    let mclazys: Vec<u64> = uops
        .iter()
        .filter_map(|u| match u.kind {
            UopKind::Mclazy { size, .. } => Some(size),
            _ => None,
        })
        .collect();
    assert_eq!(mclazys, vec![PAGE_4K], "one MCLAZY covering the base page");
    assert!(uops.iter().any(|u| matches!(u.kind, UopKind::Mfence)), "ordering fence kept");
    assert!(!uops.iter().any(|u| matches!(u.kind, UopKind::Clwb { .. })));
}

#[test]
fn eager_fault_reads_old_frame_and_writes_new_frame_only() {
    let mut k = kernel();
    let mut vm = Vm::new();
    let old = k.mmap(&mut vm, VirtAddr(0x40000), PAGE_4K, PageSize::Base4K);
    let (mut child, _) = k.fork(&mut vm, StatTag::Kernel);
    let uops = k.handle_cow_fault(&mut child, VirtAddr(0x40000), CopyMode::Eager, 0);
    let (new_pa, _) = child.translate(VirtAddr(0x40000)).unwrap();
    for u in &uops {
        match u.kind {
            UopKind::Load { addr, .. } => {
                assert!(
                    addr.0 >= old.0 && addr.0 < old.0 + PAGE_4K,
                    "copy loads confined to the shared frame"
                );
            }
            UopKind::Store { addr, .. } => {
                assert!(
                    addr.0 >= new_pa.0 && addr.0 < new_pa.0 + PAGE_4K,
                    "copy stores confined to the private frame"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn munmap_in_child_keeps_parent_mapping_and_one_ref() {
    let mut k = kernel();
    let mut parent = Vm::new();
    let pa = k.mmap(&mut parent, VirtAddr(0x10000), 2 * PAGE_4K, PageSize::Base4K);
    let (mut child, _) = k.fork(&mut parent, StatTag::Kernel);
    assert_eq!(k.frame_refs(pa, PageSize::Base4K), 2);
    let uops = k.munmap(&mut child, VirtAddr(0x10000), 2 * PAGE_4K, StatTag::Kernel);
    assert_eq!(
        uops.iter().filter(|u| matches!(u.kind, UopKind::Mcfree { .. })).count(),
        2,
        "one MCFREE hint per unmapped page"
    );
    assert_eq!(k.frame_refs(pa, PageSize::Base4K), 1, "parent's reference survives");
    assert!(child.translate(VirtAddr(0x10000)).is_none());
    assert!(parent.translate(VirtAddr(0x10000)).is_some());
}

#[test]
fn fork_pte_cost_scales_with_page_count() {
    let costs = OsCosts { fork_per_pte: 100, ..OsCosts::free() };
    let mut k = Kernel::new(costs, AddrSpace::new(PhysAddr(1 << 20), 1 << 30));
    let mut vm = Vm::new();
    k.mmap(&mut vm, VirtAddr(0), 4 * PAGE_4K, PageSize::Base4K);
    let (_, cost) = k.fork(&mut vm, StatTag::Kernel);
    assert!(
        matches!(cost[0].kind, UopKind::Compute { cycles: 400 }),
        "4 PTEs x 100 cycles, got {:?}",
        cost[0].kind
    );
}

//! Virtual memory model: page tables, `fork`, and copy-on-write faults.
//!
//! This is the substrate behind the paper's §V-B kernel experiments. A
//! [`Kernel`] owns physical frames and reference counts; each process has
//! a [`Vm`] mapping virtual ranges to frames with write/COW permission
//! bits. `fork` duplicates the page table and marks writable pages COW in
//! both processes; a write to a COW page produces a *fault plan*: the uop
//! sequence of the kernel handler — trap entry, the page copy (eager
//! `memcpy`, or `MCLAZY` as in the paper's modified
//! `copy_user_huge_page`), remap, TLB maintenance, and return.

use crate::costs::{serialized_cost, OsCosts};
use mcs_sim::addr::{PhysAddr, PAGE_2M, PAGE_4K};
use mcs_sim::alloc::AddrSpace;
use mcs_sim::uop::{StatTag, Uop, UopKind};
use mcsquare::ranges::{ByteRange, RangeMap, Sliceable};
use mcsquare::software::{memcpy_eager_uops, memcpy_lazy_uops, LazyOpts};
use std::collections::HashMap;

/// A virtual address.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VirtAddr(pub u64);

/// Page size of a mapping.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PageSize {
    /// 4 KB base pages.
    Base4K,
    /// 2 MB huge pages.
    Huge2M,
}

impl PageSize {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => PAGE_4K,
            PageSize::Huge2M => PAGE_2M,
        }
    }
}

/// One mapped region's translation info (value of a page-table segment).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MapVal {
    /// Physical base corresponding to the segment start.
    pub pa: u64,
    /// Writable without faulting.
    pub writable: bool,
    /// Copy-on-write: a write triggers a fault.
    pub cow: bool,
    /// Page size of the mapping.
    pub page: PageSize,
}

impl Sliceable for MapVal {
    fn slice(&self, off: u64) -> Self {
        MapVal { pa: self.pa + off, ..self.clone() }
    }

    fn continues(&self, len: u64, next: &Self) -> bool {
        self.pa + len == next.pa
            && self.writable == next.writable
            && self.cow == next.cow
            && self.page == next.page
    }
}

/// How a COW fault copies the page (§V-B "Concurrent snapshots").
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CowCopyMode {
    /// The unmodified kernel: eager `copy_user_huge_page`.
    Eager,
    /// The paper's modified kernel: `MCLAZY` instead of copying. The
    /// hardware writes back dirty source lines during the MCLAZY snoop, so
    /// the kernel issues no per-line CLWBs here.
    Lazy,
}

/// A process's address space.
#[derive(Clone, Debug, Default)]
pub struct Vm {
    table: RangeMap<MapVal>,
}

impl Vm {
    /// Create an empty address space.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Translate a virtual address; `None` if unmapped.
    pub fn translate(&self, va: VirtAddr) -> Option<(PhysAddr, MapVal)> {
        let (r, v) = self.table.get(va.0)?;
        Some((PhysAddr(v.pa + (va.0 - r.start)), v.clone()))
    }

    /// Number of distinct mapped segments.
    pub fn segments(&self) -> usize {
        self.table.segments()
    }
}

/// Kernel statistics.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// COW faults handled.
    pub cow_faults: u64,
    /// Pages copied by fault handlers (eagerly or lazily).
    pub pages_copied: u64,
    /// PTEs copied by `fork`.
    pub fork_ptes: u64,
}

/// The kernel: frame allocator, frame reference counts, fault handling.
#[derive(Debug)]
pub struct Kernel {
    /// Cost model.
    pub costs: OsCosts,
    frames: AddrSpace,
    refs: HashMap<u64, u32>,
    /// Statistics.
    pub stats: KernelStats,
}

impl Kernel {
    /// Create a kernel owning the given physical space.
    pub fn new(costs: OsCosts, frames: AddrSpace) -> Kernel {
        Kernel { costs, frames, refs: HashMap::new(), stats: KernelStats::default() }
    }

    /// A kernel over the standard 3 GB simulated DRAM.
    pub fn with_defaults() -> Kernel {
        Kernel::new(OsCosts::default(), AddrSpace::dram_3gb())
    }

    /// Map `len` bytes (rounded up to the page size) at `va`, eagerly
    /// backed by fresh frames (prefaulted, as the evaluation prefaults its
    /// buffers). Returns the physical base.
    pub fn mmap(&mut self, vm: &mut Vm, va: VirtAddr, len: u64, page: PageSize) -> PhysAddr {
        let psz = page.bytes();
        assert!(va.0.is_multiple_of(psz), "va must be page aligned");
        let len = len.div_ceil(psz) * psz;
        let pa = self.frames.alloc(len, psz);
        for k in 0..(len / psz) {
            *self.refs.entry(pa.0 + k * psz).or_insert(0) += 1;
        }
        vm.table.insert(
            ByteRange::sized(va.0, len),
            MapVal { pa: pa.0, writable: true, cow: false, page },
        );
        pa
    }

    /// Fork `parent`: the child shares every frame; writable mappings are
    /// marked COW in both. Returns the child VM and the uop cost of the
    /// page-table copy (the reason huge pages make `fork` itself cheap:
    /// fewer PTEs, §V-B).
    pub fn fork(&mut self, parent: &mut Vm, tag: StatTag) -> (Vm, Vec<Uop>) {
        let mut child = Vm::new();
        let mut ptes = 0u64;
        let segs: Vec<(ByteRange, MapVal)> =
            parent.table.iter().map(|(r, v)| (r, v.clone())).collect();
        for (r, mut v) in segs {
            if v.writable {
                v.cow = true;
                v.writable = false;
                parent.table.insert(r, v.clone());
            }
            let psz = v.page.bytes();
            ptes += r.len() / psz;
            for k in 0..(r.len() / psz) {
                *self.refs.entry(v.pa + k * psz).or_insert(0) += 1;
            }
            child.table.insert(r, v);
        }
        self.stats.fork_ptes += ptes;
        let cost = (ptes as u32).saturating_mul(self.costs.fork_per_pte).max(1);
        (child, vec![Uop::new(UopKind::Compute { cycles: cost }, tag)])
    }

    /// Handle a write fault at `va` in `vm`: allocate a fresh frame, copy
    /// the faulting page (eagerly or with MCLAZY per `mode`), remap
    /// writable, and return the kernel uop sequence. `base_id` is the uop
    /// id the first returned uop will receive.
    ///
    /// # Panics
    /// Panics if `va` is unmapped or the mapping is not COW.
    pub fn handle_cow_fault(
        &mut self,
        vm: &mut Vm,
        va: VirtAddr,
        mode: CowCopyMode,
        base_id: u64,
    ) -> Vec<Uop> {
        let (_, mv) = vm.translate(va).expect("fault on unmapped address");
        assert!(mv.cow && !mv.writable, "fault on non-COW mapping");
        let psz = mv.page.bytes();
        let page_va = va.0 / psz * psz;
        let (old_pa, _) = vm.translate(VirtAddr(page_va)).expect("page mapped");
        let tag = StatTag::Kernel;
        self.stats.cow_faults += 1;
        self.stats.pages_copied += 1;

        let mut uops = Vec::new();
        serialized_cost(&mut uops, self.costs.fault_entry, tag);
        let new_pa = self.frames.alloc(psz, psz);
        *self.refs.entry(new_pa.0).or_insert(0) += 1;
        // Drop our reference to the shared frame.
        if let Some(c) = self.refs.get_mut(&(old_pa.0 / psz * psz)) {
            *c = c.saturating_sub(1);
        }
        match mode {
            CowCopyMode::Eager => {
                uops.extend(memcpy_eager_uops(
                    base_id + uops.len() as u64,
                    new_pa,
                    old_pa,
                    psz,
                    tag,
                ));
            }
            CowCopyMode::Lazy => {
                let opts = LazyOpts {
                    page_size: psz,
                    clwb_sources: false,
                    fence: true,
                    tag,
                    ..LazyOpts::default()
                };
                uops.extend(memcpy_lazy_uops(base_id + uops.len() as u64, new_pa, old_pa, psz, &opts));
            }
        }
        serialized_cost(&mut uops, self.costs.per_page_map + self.costs.fault_exit, tag);
        vm.table.insert(
            ByteRange::sized(page_va, psz),
            MapVal { pa: new_pa.0, writable: true, cow: false, page: mv.page },
        );
        uops
    }

    /// Unmap `[va, va+len)`: drop frame references, clear the page-table
    /// range, and return the unmap cost plus the paper's `MCFREE` hints —
    /// §III-C names `munmap` as the natural place to tell the controllers
    /// the buffer is dead. The freed physical range must be zeroed before
    /// reuse (the OS wipes pages between processes, §III-E), which is what
    /// keeps MCFREE from leaking data.
    pub fn munmap(&mut self, vm: &mut Vm, va: VirtAddr, len: u64, tag: StatTag) -> Vec<Uop> {
        let mut uops = Vec::new();
        let mut cursor = va.0;
        let end = va.0 + len;
        let mut pages = 0u32;
        while cursor < end {
            let Some((pa, mv)) = vm.translate(VirtAddr(cursor)) else {
                cursor += PAGE_4K;
                continue;
            };
            let psz = mv.page.bytes();
            let page_base = cursor / psz * psz;
            let run = (end - page_base).min(psz);
            uops.push(Uop::new(
                UopKind::Mcfree { addr: pa.page_base(psz), size: psz },
                tag,
            ));
            let frame = pa.0 / psz * psz;
            if let Some(c) = self.refs.get_mut(&frame) {
                *c = c.saturating_sub(1);
            }
            vm.table.remove(ByteRange::sized(page_base, run.max(psz)));
            pages += 1;
            cursor = page_base + psz;
        }
        uops.push(Uop::new(
            UopKind::Compute {
                cycles: self.costs.tlb_shootdown + pages * self.costs.per_page_map,
            },
            tag,
        ));
        uops
    }

    /// Reference count of the frame backing `pa`'s page (tests).
    pub fn frame_refs(&self, pa: PhysAddr, page: PageSize) -> u32 {
        let base = pa.0 / page.bytes() * page.bytes();
        self.refs.get(&base).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(OsCosts::free(), AddrSpace::new(PhysAddr(1 << 20), 1 << 30))
    }

    #[test]
    fn mmap_translates_linearly() {
        let mut k = kernel();
        let mut vm = Vm::new();
        let pa = k.mmap(&mut vm, VirtAddr(0x10000), 3 * PAGE_4K, PageSize::Base4K);
        let (p, v) = vm.translate(VirtAddr(0x10000 + 5000)).unwrap();
        assert_eq!(p, pa.add(5000));
        assert!(v.writable && !v.cow);
        assert!(vm.translate(VirtAddr(0x10000 + 3 * PAGE_4K)).is_none());
    }

    #[test]
    fn fork_marks_cow_both_sides() {
        let mut k = kernel();
        let mut parent = Vm::new();
        k.mmap(&mut parent, VirtAddr(0x10000), 2 * PAGE_4K, PageSize::Base4K);
        let (child, cost) = k.fork(&mut parent, StatTag::Kernel);
        assert!(!cost.is_empty());
        let (ppa, pv) = parent.translate(VirtAddr(0x10000)).unwrap();
        let (cpa, cv) = child.translate(VirtAddr(0x10000)).unwrap();
        assert_eq!(ppa, cpa, "frames shared after fork");
        assert!(pv.cow && !pv.writable);
        assert!(cv.cow && !cv.writable);
        assert_eq!(k.frame_refs(ppa, PageSize::Base4K), 2);
        assert_eq!(k.stats.fork_ptes, 2);
    }

    #[test]
    fn cow_fault_remaps_to_private_frame() {
        let mut k = kernel();
        let mut parent = Vm::new();
        let old = k.mmap(&mut parent, VirtAddr(0x10000), PAGE_4K, PageSize::Base4K);
        let (mut child, _) = k.fork(&mut parent, StatTag::Kernel);
        let uops = k.handle_cow_fault(&mut child, VirtAddr(0x10020), CowCopyMode::Eager, 0);
        assert!(uops.len() > 2, "trap + copy + return");
        let (new_pa, v) = child.translate(VirtAddr(0x10020)).unwrap();
        assert_ne!(new_pa.page_base(PAGE_4K), old.page_base(PAGE_4K));
        assert!(v.writable && !v.cow);
        // Parent still points at the original frame, still COW.
        let (ppa, pv) = parent.translate(VirtAddr(0x10020)).unwrap();
        assert_eq!(ppa.page_base(PAGE_4K), old.page_base(PAGE_4K));
        assert!(pv.cow);
        assert_eq!(k.stats.cow_faults, 1);
    }

    #[test]
    fn lazy_fault_uses_mclazy() {
        let mut k = kernel();
        let mut vm = Vm::new();
        k.mmap(&mut vm, VirtAddr(0), PAGE_2M, PageSize::Huge2M);
        let (mut child, _) = k.fork(&mut vm, StatTag::Kernel);
        let uops = k.handle_cow_fault(&mut child, VirtAddr(0x100), CowCopyMode::Lazy, 0);
        let mclazys = uops.iter().filter(|u| matches!(u.kind, UopKind::Mclazy { .. })).count();
        assert_eq!(mclazys, 1, "one MCLAZY covers the whole 2 MB page");
        assert!(
            !uops.iter().any(|u| matches!(u.kind, UopKind::Clwb { .. })),
            "kernel path relies on the hardware snoop, no CLWB storm"
        );
    }

    #[test]
    fn eager_hugepage_fault_copies_whole_page() {
        let mut k = kernel();
        let mut vm = Vm::new();
        k.mmap(&mut vm, VirtAddr(0), PAGE_2M, PageSize::Huge2M);
        let (mut child, _) = k.fork(&mut vm, StatTag::Kernel);
        let uops = k.handle_cow_fault(&mut child, VirtAddr(64), CowCopyMode::Eager, 0);
        let loads = uops.iter().filter(|u| matches!(u.kind, UopKind::Load { .. })).count() as u64;
        assert_eq!(loads, PAGE_2M / 64, "2 MB copied line by line");
    }

    #[test]
    fn munmap_clears_mappings_and_emits_mcfree() {
        let mut k = kernel();
        let mut vm = Vm::new();
        let pa = k.mmap(&mut vm, VirtAddr(0x10000), 2 * PAGE_4K, PageSize::Base4K);
        let uops = k.munmap(&mut vm, VirtAddr(0x10000), 2 * PAGE_4K, StatTag::Kernel);
        let frees: Vec<_> = uops
            .iter()
            .filter_map(|u| match u.kind {
                UopKind::Mcfree { addr, size } => Some((addr, size)),
                _ => None,
            })
            .collect();
        assert_eq!(frees.len(), 2, "one MCFREE per page");
        assert_eq!(frees[0], (pa, PAGE_4K));
        assert!(vm.translate(VirtAddr(0x10000)).is_none());
        assert!(vm.translate(VirtAddr(0x10000 + PAGE_4K)).is_none());
        assert_eq!(k.frame_refs(pa, PageSize::Base4K), 0);
        assert!(matches!(uops.last().unwrap().kind, UopKind::Compute { .. }), "TLB shootdown");
    }

    #[test]
    fn munmap_partial_range_keeps_other_pages() {
        let mut k = kernel();
        let mut vm = Vm::new();
        k.mmap(&mut vm, VirtAddr(0), 3 * PAGE_4K, PageSize::Base4K);
        k.munmap(&mut vm, VirtAddr(PAGE_4K), PAGE_4K, StatTag::Kernel);
        assert!(vm.translate(VirtAddr(0)).is_some());
        assert!(vm.translate(VirtAddr(PAGE_4K)).is_none());
        assert!(vm.translate(VirtAddr(2 * PAGE_4K)).is_some());
    }

    #[test]
    fn hugepage_fork_has_fewer_ptes_than_4k() {
        let mut k1 = kernel();
        let mut vm1 = Vm::new();
        k1.mmap(&mut vm1, VirtAddr(0), 4 * PAGE_2M, PageSize::Huge2M);
        k1.fork(&mut vm1, StatTag::Kernel);

        let mut k2 = kernel();
        let mut vm2 = Vm::new();
        k2.mmap(&mut vm2, VirtAddr(0), 4 * PAGE_2M, PageSize::Base4K);
        k2.fork(&mut vm2, StatTag::Kernel);

        assert_eq!(k1.stats.fork_ptes, 4);
        assert_eq!(k2.stats.fork_ptes, 4 * 512, "512× more PTEs with 4 KB pages");
    }
}

//! Software support (§III-D): uop generators for eager `memcpy`, the
//! `memcpy_lazy` wrapper, and the interposer policy that redirects large
//! copies to the lazy path.
//!
//! `memcpy_lazy` follows the paper's Fig. 8 algorithm: copy the unaligned
//! destination fringe eagerly, then walk the buffers page by page (an
//! MCLAZY's operands must be physically contiguous, so one instruction per
//! page), issuing a CLWB per source cacheline (modelling the writeback
//! cost, §IV) followed by one MCLAZY per page-bounded chunk, falling back
//! to an eager copy for sub-cacheline remainders, and ending with an
//! MFENCE to order the prospective copies with later accesses.

use mcs_sim::addr::{lines_of, PhysAddr, CACHELINE, PAGE_4K};
use mcs_sim::uop::{StatTag, StoreData, Uop, UopKind};

/// Options for lazy-copy generation.
#[derive(Clone, Debug)]
pub struct LazyOpts {
    /// Page size used for chunking (4 KB for user buffers; 2 MB when the
    /// kernel copies huge pages, §V-B).
    pub page_size: u64,
    /// Issue a CLWB per source line (the §IV cost model). Disabling lets
    /// benches isolate the packet-send component (Fig. 11).
    pub clwb_sources: bool,
    /// Use the §V-A1 wide-writeback extension (one WBRANGE per lazy chunk
    /// instead of a CLWB per line), removing the per-line serialisation
    /// the paper calls a conservative overhead estimate.
    pub wide_writeback: bool,
    /// Append the trailing MFENCE.
    pub fence: bool,
    /// Statistics tag for the generated uops.
    pub tag: StatTag,
}

impl Default for LazyOpts {
    fn default() -> Self {
        LazyOpts {
            page_size: PAGE_4K,
            clwb_sources: true,
            wide_writeback: false,
            fence: true,
            tag: StatTag::Memcpy,
        }
    }
}

/// Bytes remaining in the page containing `a` (the Fig. 8 `ALIGN_REM`
/// usage: full page when `a` is page aligned).
fn rem_in_page(a: PhysAddr, page: u64) -> u64 {
    page - a.page_off(page)
}

/// Generate uops for a plain eager memcpy: per-chunk load + dependent
/// store, chunked so no access crosses a cacheline.
///
/// `base_id` is the uop id the core will assign to the *first* generated
/// uop (ids are sequential), needed to wire `StoreData::FromLoad`.
pub fn memcpy_eager_uops(
    base_id: u64,
    dst: PhysAddr,
    src: PhysAddr,
    size: u64,
    tag: StatTag,
) -> Vec<Uop> {
    let mut uops = Vec::new();
    let mut s = src;
    let mut d = dst;
    let mut rem = size;
    while rem > 0 {
        let take = rem
            .min(CACHELINE - s.line_off())
            .min(CACHELINE - d.line_off());
        let load_id = base_id + uops.len() as u64;
        uops.push(Uop::new(UopKind::Load { addr: s, size: take as u8 }, tag));
        uops.push(Uop::new(
            UopKind::Store {
                addr: d,
                size: take as u8,
                data: StoreData::FromLoad { load: load_id, offset: 0 },
                nontemporal: false,
            },
            tag,
        ));
        s = s.add(take);
        d = d.add(take);
        rem -= take;
    }
    uops
}

/// Generate uops for `memcpy_lazy(dst, src, size)` per Fig. 8.
///
/// `base_id` is the id of the first generated uop (for fringe copies'
/// load→store dependencies).
///
/// # Panics
/// Panics if the source and destination ranges overlap.
pub fn memcpy_lazy_uops(
    base_id: u64,
    dst: PhysAddr,
    src: PhysAddr,
    size: u64,
    opts: &LazyOpts,
) -> Vec<Uop> {
    assert!(
        dst.0 + size <= src.0 || src.0 + size <= dst.0,
        "memcpy buffers must not overlap"
    );
    let mut uops: Vec<Uop> = Vec::new();
    let mut d = dst;
    let mut s = src;
    let mut rem = size;

    while rem > 0 {
        // Cacheline-align the destination (Fig. 8 lines 2–7). Beyond the
        // initial fringe this also re-aligns after a sub-cacheline eager
        // chunk at a source page boundary, which Fig. 8's pseudocode
        // glosses over: without it the next MCLAZY would violate the
        // destination-alignment rule.
        if !d.is_aligned(CACHELINE) {
            let fringe = d.align_rem(CACHELINE).min(rem);
            uops.extend(memcpy_eager_uops(base_id + uops.len() as u64, d, s, fringe, opts.tag));
            d = d.add(fringe);
            s = s.add(fringe);
            rem -= fringe;
            continue;
        }
        // Remaining bytes within the current page of each buffer
        // (Fig. 8 lines 9–13).
        let chunk = rem_in_page(s, opts.page_size)
            .min(rem_in_page(d, opts.page_size))
            .min(rem);
        if chunk < CACHELINE {
            // Sub-cacheline remainder: eager (Fig. 8 lines 14–15).
            uops.extend(memcpy_eager_uops(base_id + uops.len() as u64, d, s, chunk, opts.tag));
            d = d.add(chunk);
            s = s.add(chunk);
            rem -= chunk;
            continue;
        }
        // Whole-line lazy chunk (Fig. 8 lines 17–19).
        let lazy = chunk & !(CACHELINE - 1);
        if opts.clwb_sources {
            if opts.wide_writeback {
                uops.push(Uop::new(UopKind::WbRange { addr: s, size: lazy }, opts.tag));
            } else {
                for line in lines_of(s, lazy) {
                    uops.push(Uop::new(UopKind::Clwb { addr: line }, opts.tag));
                }
            }
        }
        uops.push(Uop::new(UopKind::Mclazy { dst: d, src: s, size: lazy }, opts.tag));
        d = d.add(lazy);
        s = s.add(lazy);
        rem -= lazy;
    }

    if opts.fence {
        uops.push(Uop::new(UopKind::Mfence, opts.tag));
    }
    uops
}

/// The interposer policy (`copy_interpose.so`): redirect copies of at
/// least `threshold` bytes to `memcpy_lazy`, leave smaller ones eager.
/// The paper's Protobuf run interposes copies ≥ 1 KB (§V-B).
pub fn memcpy_interposed_uops(
    base_id: u64,
    dst: PhysAddr,
    src: PhysAddr,
    size: u64,
    threshold: u64,
    opts: &LazyOpts,
) -> Vec<Uop> {
    if size >= threshold {
        memcpy_lazy_uops(base_id, dst, src, size, opts)
    } else {
        memcpy_eager_uops(base_id, dst, src, size, opts.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use mcs_sim::hash::FastMap;

    /// Functional interpreter: applies the uop stream to a byte map,
    /// treating MCLAZY as an eager copy (the architectural semantics).
    #[derive(Default)]
    struct FuncMem {
        bytes: FastMap<u64, u8>,
        loads: FastMap<u64, Vec<u8>>, // uop id → value
    }

    impl FuncMem {
        fn read(&self, a: PhysAddr, n: u64) -> Vec<u8> {
            (0..n).map(|i| *self.bytes.get(&(a.0 + i)).unwrap_or(&0)).collect()
        }
        fn write(&mut self, a: PhysAddr, data: &[u8]) {
            for (i, b) in data.iter().enumerate() {
                self.bytes.insert(a.0 + i as u64, *b);
            }
        }
        fn run(&mut self, base_id: u64, uops: &[Uop]) {
            for (i, u) in uops.iter().enumerate() {
                let id = base_id + i as u64;
                match &u.kind {
                    UopKind::Load { addr, size } => {
                        let v = self.read(*addr, *size as u64);
                        self.loads.insert(id, v);
                    }
                    UopKind::Store { addr, size, data, .. } => {
                        let bytes = match data {
                            StoreData::Imm(b) => b.clone(),
                            StoreData::Splat(v) => vec![*v; *size as usize],
                            StoreData::FromLoad { load, offset } => {
                                let v = &self.loads[load];
                                v[*offset as usize..*offset as usize + *size as usize].to_vec()
                            }
                        };
                        self.write(*addr, &bytes);
                    }
                    UopKind::Mclazy { dst, src, size } => {
                        let v = self.read(*src, *size);
                        self.write(*dst, &v);
                    }
                    UopKind::Clwb { .. }
                    | UopKind::WbRange { .. }
                    | UopKind::Mfence
                    | UopKind::Mcfree { .. } => {}
                    UopKind::Compute { .. } | UopKind::Marker { .. } | UopKind::PipelineFlush => {}
                }
            }
        }
    }

    #[test]
    fn eager_copy_is_correct() {
        let mut m = FuncMem::default();
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 % 251) as u8).collect();
        m.write(PhysAddr(1000), &data);
        let uops = memcpy_eager_uops(0, PhysAddr(5003), PhysAddr(1000), 200, StatTag::Memcpy);
        m.run(0, &uops);
        assert_eq!(m.read(PhysAddr(5003), 200), data);
    }

    #[test]
    fn lazy_wrapper_structure_aligned() {
        // Page-aligned, line-multiple copy: no fringes, one MCLAZY per page.
        let uops = memcpy_lazy_uops(
            0,
            PhysAddr(2 * PAGE_4K),
            PhysAddr(8 * PAGE_4K),
            2 * PAGE_4K,
            &LazyOpts::default(),
        );
        let mclazys: Vec<_> =
            uops.iter().filter(|u| matches!(u.kind, UopKind::Mclazy { .. })).collect();
        let clwbs = uops.iter().filter(|u| matches!(u.kind, UopKind::Clwb { .. })).count();
        assert_eq!(mclazys.len(), 2, "one MCLAZY per page");
        assert_eq!(clwbs as u64, 2 * PAGE_4K / CACHELINE, "one CLWB per source line");
        assert!(matches!(uops.last().unwrap().kind, UopKind::Mfence));
        for u in &uops {
            assert!(u.validate().is_ok(), "{u}");
        }
    }

    #[test]
    fn lazy_wrapper_handles_misaligned_dest() {
        let dst = PhysAddr(4096 + 37);
        let src = PhysAddr(65536 + 5);
        let uops = memcpy_lazy_uops(0, dst, src, 1000, &LazyOpts::default());
        // First uops are the eager fringe (64 - 37 = 27 bytes).
        let first_lazy = uops
            .iter()
            .find_map(|u| match u.kind {
                UopKind::Mclazy { dst, size, .. } => Some((dst, size)),
                _ => None,
            })
            .expect("has a lazy chunk");
        assert!(first_lazy.0.is_aligned(CACHELINE));
        assert_eq!(first_lazy.1 % CACHELINE, 0);
        for u in &uops {
            assert!(u.validate().is_ok(), "{u}");
        }
    }

    #[test]
    fn lazy_wrapper_splits_at_page_boundaries() {
        // Source starts mid-page: chunks must not cross either buffer's
        // page boundary (MCLAZY operands are physically contiguous pages).
        let dst = PhysAddr(10 * PAGE_4K);
        let src = PhysAddr(20 * PAGE_4K + 2048);
        let uops = memcpy_lazy_uops(0, dst, src, 3 * PAGE_4K, &LazyOpts::default());
        for u in &uops {
            if let UopKind::Mclazy { dst, src, size } = u.kind {
                assert_eq!(dst.page_base(PAGE_4K), PhysAddr(dst.0 + size - 1).page_base(PAGE_4K));
                assert_eq!(src.page_base(PAGE_4K), PhysAddr(src.0 + size - 1).page_base(PAGE_4K));
            }
        }
    }

    #[test]
    fn wide_writeback_replaces_clwb_storm() {
        let opts = LazyOpts { wide_writeback: true, ..LazyOpts::default() };
        let uops =
            memcpy_lazy_uops(0, PhysAddr(2 * PAGE_4K), PhysAddr(8 * PAGE_4K), 2 * PAGE_4K, &opts);
        let clwbs = uops.iter().filter(|u| matches!(u.kind, UopKind::Clwb { .. })).count();
        let wbs = uops.iter().filter(|u| matches!(u.kind, UopKind::WbRange { .. })).count();
        assert_eq!(clwbs, 0);
        assert_eq!(wbs, 2, "one WBRANGE per page chunk");
        for u in &uops {
            assert!(u.validate().is_ok(), "{u}");
        }
    }

    #[test]
    fn tiny_copy_is_fully_eager() {
        let uops = memcpy_lazy_uops(0, PhysAddr(4096), PhysAddr(8192), 40, &LazyOpts::default());
        assert!(uops.iter().all(|u| !matches!(u.kind, UopKind::Mclazy { .. })));
    }

    #[test]
    fn interposer_threshold() {
        let opts = LazyOpts::default();
        let small = memcpy_interposed_uops(0, PhysAddr(0x40000), PhysAddr(0x80000), 512, 1024, &opts);
        assert!(small.iter().all(|u| !matches!(u.kind, UopKind::Mclazy { .. })));
        let large = memcpy_interposed_uops(0, PhysAddr(0x40000), PhysAddr(0x80000), 2048, 1024, &opts);
        assert!(large.iter().any(|u| matches!(u.kind, UopKind::Mclazy { .. })));
    }

    proptest! {
        /// The wrapper's architectural effect equals a plain memcpy for
        /// arbitrary (mis)alignments and sizes.
        #[test]
        fn lazy_equals_eager_functionally(
            dst_off in 0u64..200, src_off in 0u64..200, size in 1u64..20_000
        ) {
            let dst = PhysAddr(100 * PAGE_4K + dst_off);
            let src = PhysAddr(200 * PAGE_4K + src_off);
            let mut m = FuncMem::default();
            let data: Vec<u8> = (0..size).map(|i| (i * 131 % 251) as u8).collect();
            m.write(src, &data);
            let uops = memcpy_lazy_uops(77, dst, src, size, &LazyOpts::default());
            m.run(77, &uops);
            prop_assert_eq!(m.read(dst, size), data);
            for u in &uops {
                prop_assert!(u.validate().is_ok());
            }
        }

        /// Every generated MCLAZY obeys the ISA alignment rules and page
        /// containment, and CLWB count matches source lines.
        #[test]
        fn wrapper_respects_isa_rules(
            dst_off in 0u64..4096, src_off in 0u64..4096, size in 1u64..50_000
        ) {
            let dst = PhysAddr(100 * PAGE_4K + dst_off);
            let src = PhysAddr(300 * PAGE_4K + src_off);
            let uops = memcpy_lazy_uops(0, dst, src, size, &LazyOpts::default());
            let mut lazy_bytes = 0u64;
            for u in &uops {
                if let UopKind::Mclazy { dst, size, .. } = u.kind {
                    prop_assert!(dst.is_aligned(CACHELINE));
                    prop_assert_eq!(size % CACHELINE, 0);
                    lazy_bytes += size;
                }
            }
            prop_assert!(lazy_bytes <= size);
            let clwbs = uops.iter().filter(|u| matches!(u.kind, UopKind::Clwb { .. })).count();
            // One CLWB per source line of lazily copied chunks: between
            // lazy_bytes/64 and lazy_bytes/64 + chunks (fringe lines).
            prop_assert!(clwbs as u64 >= lazy_bytes / CACHELINE);
        }
    }
}

//! Shared workload plumbing: the pluggable copy mechanism and program
//! assembly helpers.
//!
//! Workloads generate uop streams for a [`mcs_sim::program::FixedProgram`];
//! because the core assigns uop ids sequentially from zero, `uops.len()`
//! is always the id of the next uop, which is how `FromLoad` dependencies
//! and fault-plan splicing stay consistent.

use mcs_baselines::zio::{Zio, ZioCosts};
use mcs_sim::addr::PhysAddr;
use mcs_sim::uop::{StatTag, Uop, UopKind};
use mcsquare::software::{memcpy_interposed_uops, LazyOpts};

/// Which memcpy implementation a workload runs with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CopyMech {
    /// Plain eager memcpy (baseline).
    Native,
    /// (MC)² via the interposer: copies of at least `threshold` bytes go
    /// through `memcpy_lazy` (the paper's Protobuf run uses 1 KB).
    McSquare {
        /// Minimum copy size to interpose.
        threshold: u64,
    },
    /// zIO-style transparent elision.
    Zio,
}

impl CopyMech {
    /// The (MC)² mechanism with the paper's 1 KB interposer threshold.
    pub fn mcsquare_1k() -> CopyMech {
        CopyMech::McSquare { threshold: 1024 }
    }

    /// Whether this mechanism requires the (MC)² engine in the system.
    pub fn needs_engine(&self) -> bool {
        matches!(self, CopyMech::McSquare { .. })
    }
}

/// A stateful copier: generates copy uops and pre-access fixups for the
/// configured mechanism.
#[derive(Debug)]
pub struct Copier {
    mech: CopyMech,
    zio: Option<Zio>,
    /// Total bytes requested through [`Copier::copy`].
    pub bytes_copied: u64,
    /// Copy calls made.
    pub calls: u64,
}

impl Copier {
    /// Create a copier for `mech`.
    pub fn new(mech: CopyMech) -> Copier {
        let zio = matches!(mech, CopyMech::Zio).then(|| Zio::new(ZioCosts::default()));
        Copier { mech, zio, bytes_copied: 0, calls: 0 }
    }

    /// Append the uops of `memcpy(dst, src, size)` under this mechanism.
    pub fn copy(&mut self, uops: &mut Vec<Uop>, dst: PhysAddr, src: PhysAddr, size: u64) {
        self.bytes_copied += size;
        self.calls += 1;
        let base = uops.len() as u64;
        match &self.mech {
            CopyMech::Native => {
                uops.extend(mcsquare::software::memcpy_eager_uops(
                    base,
                    dst,
                    src,
                    size,
                    StatTag::Memcpy,
                ));
            }
            CopyMech::McSquare { threshold } => {
                uops.extend(memcpy_interposed_uops(
                    base,
                    dst,
                    src,
                    size,
                    *threshold,
                    &LazyOpts::default(),
                ));
            }
            CopyMech::Zio => {
                let z = self.zio.as_mut().expect("zio runtime present");
                let mut fix = z.access_fixups(base, src, size);
                // Reading an elided source faults first (copy-on-access).
                let base2 = base + fix.len() as u64;
                fix.extend(z.memcpy_uops(base2, dst, src, size));
                uops.extend(fix);
            }
        }
    }

    /// Append fault fixups that must precede an access to
    /// `[addr, addr+len)` (zIO copy-on-access; a no-op for the others).
    pub fn before_access(&mut self, uops: &mut Vec<Uop>, addr: PhysAddr, len: u64) {
        if let Some(z) = self.zio.as_mut() {
            let base = uops.len() as u64;
            let fix = z.access_fixups(base, addr, len);
            uops.extend(fix);
        }
    }

    /// zIO statistics, when running under zIO.
    pub fn zio_stats(&self) -> Option<&mcs_baselines::zio::ZioStats> {
        self.zio.as_ref().map(|z| &z.stats)
    }

    /// Declare `[addr, addr+len)` dead (buffer freed / arena destroyed).
    /// Under (MC)² this emits the paper's `MCFREE` hint (§III-C: "called
    /// within functions like munmap"), dropping prospective copies whose
    /// destination lies in the buffer so recycled buffers do not pin their
    /// sources. A no-op for the other mechanisms.
    pub fn free_hint(&mut self, uops: &mut Vec<Uop>, addr: PhysAddr, len: u64) {
        if matches!(self.mech, CopyMech::McSquare { .. }) && len > 0 {
            uops.push(Uop::new(UopKind::Mcfree { addr, size: len }, StatTag::App));
        }
    }
}

/// Append sequential 64B loads over `[addr, addr+len)` (a streaming read).
pub fn read_region(uops: &mut Vec<Uop>, addr: PhysAddr, len: u64, tag: StatTag) {
    for l in mcs_sim::addr::lines_of(addr, len) {
        uops.push(Uop::new(UopKind::Load { addr: l, size: 64 }, tag));
    }
}

/// Append a retire-timestamp marker.
pub fn marker(uops: &mut Vec<Uop>, id: u32) {
    uops.push(Uop::new(UopKind::Marker { id }, StatTag::App));
}

/// Append an `MFENCE`.
pub fn fence(uops: &mut Vec<Uop>, tag: StatTag) {
    uops.push(Uop::new(UopKind::Mfence, tag));
}

/// Deterministic pattern bytes for buffer initialisation.
pub fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| ((i as u64).wrapping_mul(131).wrapping_add(seed as u64) % 251) as u8).collect()
}

/// Memory initialisation to apply before a run.
#[derive(Debug, Default, Clone)]
pub struct Pokes(pub Vec<(PhysAddr, Vec<u8>)>);

impl Pokes {
    /// Record an initialisation write.
    pub fn add(&mut self, addr: PhysAddr, bytes: Vec<u8>) {
        self.0.push((addr, bytes));
    }

    /// Apply to a system.
    pub fn apply(&self, sys: &mut mcs_sim::system::System) {
        for (a, b) in &self.0 {
            sys.poke(*a, b);
        }
    }
}

/// Extract per-marker latencies from run stats: pairs `(2k, 2k+1)` become
/// `lat[k] = t(2k+1) - t(2k)`.
pub fn marker_latencies(stats: &mcs_sim::stats::CoreStats) -> Vec<u64> {
    let mut starts = std::collections::HashMap::new();
    let mut out = Vec::new();
    for &(id, t) in &stats.markers {
        if id % 2 == 0 {
            starts.insert(id / 2, t);
        } else if let Some(s) = starts.remove(&(id / 2)) {
            out.push(t.saturating_sub(s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copier_native_is_pure_eager() {
        let mut c = Copier::new(CopyMech::Native);
        let mut uops = Vec::new();
        c.copy(&mut uops, PhysAddr(0x10000), PhysAddr(0x20000), 256);
        assert!(uops.iter().all(|u| !matches!(u.kind, UopKind::Mclazy { .. })));
        assert_eq!(c.bytes_copied, 256);
    }

    #[test]
    fn copier_mcsquare_respects_threshold() {
        let mut c = Copier::new(CopyMech::mcsquare_1k());
        let mut uops = Vec::new();
        c.copy(&mut uops, PhysAddr(0x10000), PhysAddr(0x20000), 512);
        assert!(uops.iter().all(|u| !matches!(u.kind, UopKind::Mclazy { .. })));
        c.copy(&mut uops, PhysAddr(0x10000), PhysAddr(0x20000), 4096);
        assert!(uops.iter().any(|u| matches!(u.kind, UopKind::Mclazy { .. })));
    }

    #[test]
    fn copier_zio_tracks_and_faults() {
        let mut c = Copier::new(CopyMech::Zio);
        let mut uops = Vec::new();
        c.copy(&mut uops, PhysAddr(0x10000), PhysAddr(0x20000), 8192);
        assert_eq!(c.zio_stats().unwrap().pages_elided, 2);
        c.before_access(&mut uops, PhysAddr(0x10000), 8);
        assert_eq!(c.zio_stats().unwrap().faults, 1);
    }

    #[test]
    fn marker_latency_pairing() {
        let cs = mcs_sim::stats::CoreStats {
            markers: vec![(0, 100), (1, 180), (2, 200), (3, 450)],
            ..Default::default()
        };
        assert_eq!(marker_latencies(&cs), vec![80, 250]);
    }

    #[test]
    fn uop_ids_equal_vec_indices() {
        // The invariant every generator relies on.
        let mut c = Copier::new(CopyMech::Native);
        let mut uops = Vec::new();
        c.copy(&mut uops, PhysAddr(0x10000), PhysAddr(0x20000), 128);
        for (i, u) in uops.iter().enumerate() {
            if let UopKind::Store { data: mcs_sim::uop::StoreData::FromLoad { load, .. }, .. } =
                &u.kind
            {
                assert!(*load < i as u64, "store {i} depends on earlier load {load}");
            }
        }
    }
}

//! Virtual disk images: byte-addressable volumes striped over objects.
//!
//! The paper's testbed exposed the Sheepdog cluster to a KVM-QEMU client
//! as a 100 GB virtual disk carved into 4 MB data objects (§V-A). This
//! module is that interface: a [`VirtualDisk`] maps byte offsets to
//! object IDs (Sheepdog-style: the VDI id in the high bits, the stripe
//! index in the low bits) and performs read-modify-write for unaligned
//! accesses. Unwritten regions read as zeros, so volumes are sparse.
//!
//! Concurrency: like a raw block device, the volume does not serialise
//! overlapping writes — two clients read-modify-writing the same stripe
//! race exactly as they would against one disk sector. Run one client
//! per region (the paper's setup: a single KVM guest owns the volume) or
//! layer a lock above this interface.

use crate::cluster::{Cluster, ClusterError};
use bytes::Bytes;
use ech_core::ids::ObjectId;
use std::sync::Arc;

/// A sparse, byte-addressable volume backed by cluster objects.
#[derive(Clone)]
pub struct VirtualDisk {
    cluster: Arc<Cluster>,
    /// Volume id — the high 24 bits of every object id (Sheepdog packs
    /// the VDI id above the stripe index).
    vdi_id: u32,
    /// Stripe size in bytes.
    object_size: u64,
    /// Volume size in bytes.
    size: u64,
}

/// Errors from virtual-disk I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VdiError {
    /// Access beyond the end of the volume.
    OutOfBounds {
        /// Requested end offset.
        end: u64,
        /// Volume size.
        size: u64,
    },
    /// The underlying cluster failed the operation.
    Cluster(ClusterError),
}

impl std::fmt::Display for VdiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VdiError::OutOfBounds { end, size } => {
                write!(f, "access to byte {end} beyond volume size {size}")
            }
            VdiError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for VdiError {}

impl VirtualDisk {
    /// Bits reserved for the stripe index within an object id.
    const STRIPE_BITS: u32 = 40;

    /// Create a volume of `size` bytes striped into `object_size` chunks.
    ///
    /// # Panics
    /// Panics on a zero `object_size` or zero `size`, or if the volume
    /// needs more stripes than the 40-bit stripe index can address.
    pub fn create(cluster: Arc<Cluster>, vdi_id: u32, size: u64, object_size: u64) -> Self {
        assert!(
            object_size > 0 && size > 0,
            "volume and stripe must be nonzero"
        );
        let stripes = size.div_ceil(object_size);
        assert!(
            stripes < (1u64 << Self::STRIPE_BITS),
            "volume needs too many stripes"
        );
        VirtualDisk {
            cluster,
            vdi_id,
            object_size,
            size,
        }
    }

    /// Volume size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Stripe size in bytes.
    pub fn object_size(&self) -> u64 {
        self.object_size
    }

    /// Object id of the stripe containing byte `offset`.
    fn object_for(&self, offset: u64) -> ObjectId {
        let stripe = offset / self.object_size;
        ObjectId(((self.vdi_id as u64) << Self::STRIPE_BITS) | stripe)
    }

    fn check_bounds(&self, offset: u64, len: u64) -> Result<(), VdiError> {
        let end = offset.saturating_add(len);
        if end > self.size {
            return Err(VdiError::OutOfBounds {
                end,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Read `len` bytes at `offset`. Unwritten stripes read as zeros.
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, VdiError> {
        self.check_bounds(offset, len as u64)?;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let stripe_off = pos % self.object_size;
            let take = ((self.object_size - stripe_off) as usize).min((end - pos) as usize);
            match self.cluster.get(self.object_for(pos)) {
                Ok(data) => {
                    // Stored stripes may be shorter than object_size if
                    // only a prefix was ever written; pad with zeros.
                    let lo = stripe_off as usize;
                    for i in 0..take {
                        out.push(data.get(lo + i).copied().unwrap_or(0));
                    }
                }
                Err(ClusterError::NotFound) => out.extend(std::iter::repeat_n(0u8, take)),
                Err(e) => return Err(VdiError::Cluster(e)),
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// Write `data` at `offset`, read-modify-writing partial stripes.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<(), VdiError> {
        self.check_bounds(offset, data.len() as u64)?;
        let mut pos = offset;
        let mut src = 0usize;
        let end = offset + data.len() as u64;
        while pos < end {
            let stripe_off = (pos % self.object_size) as usize;
            let take = ((self.object_size as usize) - stripe_off).min((end - pos) as usize);
            let oid = self.object_for(pos);
            // Full-stripe writes skip the read; partial ones merge.
            let buf: Vec<u8> = if stripe_off == 0 && take == self.object_size as usize {
                data[src..src + take].to_vec()
            } else {
                let mut existing = match self.cluster.get(oid) {
                    Ok(d) => d.to_vec(),
                    Err(ClusterError::NotFound) => Vec::new(),
                    Err(e) => return Err(VdiError::Cluster(e)),
                };
                let needed = stripe_off + take;
                if existing.len() < needed {
                    existing.resize(needed, 0);
                }
                existing[stripe_off..needed].copy_from_slice(&data[src..src + take]);
                existing
            };
            self.cluster
                .put(oid, Bytes::from(buf))
                .map_err(VdiError::Cluster)?;
            pos += take as u64;
            src += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    const KB: u64 = 1024;

    fn disk() -> VirtualDisk {
        let cluster = Cluster::new(ClusterConfig::paper());
        // Small stripes so tests cross boundaries cheaply.
        VirtualDisk::create(cluster, 7, 256 * KB, 16 * KB)
    }

    #[test]
    fn sparse_reads_are_zero() {
        let d = disk();
        let data = d.read_at(40 * KB, 1000).unwrap();
        assert_eq!(data, vec![0u8; 1000]);
    }

    #[test]
    fn aligned_roundtrip() {
        let d = disk();
        let payload: Vec<u8> = (0..16 * KB as usize).map(|i| (i % 251) as u8).collect();
        d.write_at(32 * KB, &payload).unwrap();
        assert_eq!(d.read_at(32 * KB, payload.len()).unwrap(), payload);
    }

    #[test]
    fn unaligned_write_crosses_stripes() {
        let d = disk();
        // 40 KB spanning three 16 KB stripes starting mid-stripe.
        let payload: Vec<u8> = (0..40 * KB as usize).map(|i| (i % 199) as u8 + 1).collect();
        d.write_at(10 * KB, &payload).unwrap();
        assert_eq!(d.read_at(10 * KB, payload.len()).unwrap(), payload);
        // Bytes before and after remain zero.
        assert_eq!(
            d.read_at(0, 10 * KB as usize).unwrap(),
            vec![0; 10 * KB as usize]
        );
        let after = d.read_at(50 * KB, 1024).unwrap();
        assert_eq!(after, vec![0; 1024]);
    }

    #[test]
    fn read_modify_write_preserves_neighbours() {
        let d = disk();
        d.write_at(0, &[0xAA; 16 * 1024]).unwrap();
        // Overwrite the middle 4 KB of the stripe.
        d.write_at(6 * KB, &[0xBB; 4 * 1024]).unwrap();
        let back = d.read_at(0, 16 * 1024).unwrap();
        assert!(back[..6 * 1024].iter().all(|&b| b == 0xAA));
        assert!(back[6 * 1024..10 * 1024].iter().all(|&b| b == 0xBB));
        assert!(back[10 * 1024..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let d = disk();
        assert!(matches!(
            d.read_at(250 * KB, 10 * KB as usize),
            Err(VdiError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.write_at(256 * KB, &[1]),
            Err(VdiError::OutOfBounds { .. })
        ));
        // Exactly at the end is fine.
        d.write_at(255 * KB, &[1; 1024]).unwrap();
    }

    #[test]
    fn volume_survives_power_cycling() {
        let cluster = Cluster::new(ClusterConfig::paper());
        let d = VirtualDisk::create(cluster.clone(), 1, 512 * KB, 16 * KB);
        let payload: Vec<u8> = (0..100 * KB as usize).map(|i| (i % 253) as u8).collect();
        d.write_at(3 * KB, &payload).unwrap();
        cluster.resize(2);
        assert_eq!(d.read_at(3 * KB, payload.len()).unwrap(), payload);
        // Write more while scaled down (offloaded + dirty), size up,
        // re-integrate, verify both generations.
        let more: Vec<u8> = (0..50 * KB as usize).map(|i| (i % 127) as u8 + 1).collect();
        d.write_at(200 * KB, &more).unwrap();
        cluster.resize(10);
        cluster.reintegrate_all();
        assert_eq!(d.read_at(3 * KB, payload.len()).unwrap(), payload);
        assert_eq!(d.read_at(200 * KB, more.len()).unwrap(), more);
        assert_eq!(cluster.dirty_len(), 0);
    }

    #[test]
    fn distinct_vdis_do_not_collide() {
        let cluster = Cluster::new(ClusterConfig::paper());
        let a = VirtualDisk::create(cluster.clone(), 1, 128 * KB, 16 * KB);
        let b = VirtualDisk::create(cluster, 2, 128 * KB, 16 * KB);
        a.write_at(0, &[1; 1024]).unwrap();
        b.write_at(0, &[2; 1024]).unwrap();
        assert!(a.read_at(0, 1024).unwrap().iter().all(|&x| x == 1));
        assert!(b.read_at(0, 1024).unwrap().iter().all(|&x| x == 2));
        assert_ne!(a.object_for(0), b.object_for(0));
    }

    #[test]
    fn object_ids_follow_the_sheepdog_packing() {
        let d = disk();
        let first = d.object_for(0);
        let second = d.object_for(16 * KB);
        assert_eq!(second.raw(), first.raw() + 1);
        assert_eq!(first.raw() >> 40, 7, "vdi id in the high bits");
    }
}

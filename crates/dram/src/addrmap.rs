//! Physical-address ↔ DRAM-coordinate mapping.
//!
//! The BMC decodes machine-check physical addresses into (rank, bank, row,
//! column) coordinates before logging them (paper §II-B: "ECC checking
//! bits addresses can be decoded to locate specific errors"). This module
//! implements a representative open-page interleaved mapping:
//!
//! ```text
//!  MSB ......................................... LSB
//!  | row | rank | bank group | bank | column | bus offset |
//! ```
//!
//! Column bits are split around the bank bits on real controllers for
//! better bank-level parallelism; a single contiguous field keeps this
//! model invertible and testable while preserving the property analyses
//! rely on: *consecutive cache lines map to different banks only via the
//! column/bank interleave, and a row sweep touches one bank*.

use crate::address::CellAddr;
use crate::geometry::DeviceGeometry;

/// An invertible physical-address mapping for one rank-pair of a DIMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    geometry: DeviceGeometry,
    ranks: u8,
}

/// Bytes covered by one (rank, bank, row, column) coordinate: a 64-byte
/// burst.
pub const BURST_BYTES: u64 = 64;

impl AddressMap {
    /// Creates a mapping for the given geometry and rank count.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is 0 or not a power of two.
    pub fn new(geometry: DeviceGeometry, ranks: u8) -> Self {
        assert!(ranks > 0 && ranks.is_power_of_two(), "ranks must be 2^k");
        AddressMap { geometry, ranks }
    }

    /// Total addressable bytes under this map.
    pub fn capacity_bytes(&self) -> u64 {
        self.ranks as u64
            * self.geometry.banks() as u64
            * self.geometry.rows() as u64
            * self.geometry.cols() as u64
            * BURST_BYTES
    }

    /// Decodes a physical address into DRAM coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `phys` is beyond [`AddressMap::capacity_bytes`].
    pub fn decode(&self, phys: u64) -> CellAddr {
        assert!(phys < self.capacity_bytes(), "address out of range");
        let mut a = phys / BURST_BYTES;
        let cols = self.geometry.cols() as u64;
        let banks = self.geometry.banks() as u64;
        let rows = self.geometry.rows() as u64;

        let col = (a % cols) as u16;
        a /= cols;
        let bank = (a % banks) as u8;
        a /= banks;
        let rank = (a % self.ranks as u64) as u8;
        a /= self.ranks as u64;
        let row = (a % rows) as u32;
        CellAddr::new(rank, bank, row, col)
    }

    /// Encodes DRAM coordinates back into the base physical address of the
    /// burst.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for the geometry.
    pub fn encode(&self, addr: &CellAddr) -> u64 {
        assert!(
            addr.is_valid(&self.geometry, self.ranks),
            "coordinates out of range: {addr}"
        );
        let cols = self.geometry.cols() as u64;
        let banks = self.geometry.banks() as u64;
        let mut a = addr.row as u64;
        a = a * self.ranks as u64 + addr.rank as u64;
        a = a * banks + addr.bank as u64;
        a = a * cols + addr.col as u64;
        a * BURST_BYTES
    }

    /// The stride in bytes between consecutive rows of the same bank — the
    /// distance a row-hammer/row-fault sweep moves through physical memory.
    pub fn row_stride_bytes(&self) -> u64 {
        self.geometry.cols() as u64 * self.geometry.banks() as u64 * self.ranks as u64 * BURST_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(DeviceGeometry::DDR4_8GB_X4, 2)
    }

    #[test]
    fn capacity_matches_geometry() {
        let m = map();
        // 2 ranks x 16 banks x 128Ki rows x 1Ki cols x 64 B = 256 GiB of
        // coordinate space (the *rank* address space; the per-DIMM capacity
        // divides by the device count sharing each burst).
        assert_eq!(m.capacity_bytes(), 2 * 16 * 131_072u64 * 1024 * 64);
    }

    #[test]
    fn roundtrip_exhaustive_sample() {
        let m = map();
        for phys in (0..m.capacity_bytes()).step_by(987_654_321) {
            let burst = (phys / BURST_BYTES) * BURST_BYTES;
            let addr = m.decode(burst);
            assert_eq!(m.encode(&addr), burst, "phys {burst:#x}");
        }
    }

    #[test]
    fn consecutive_bursts_walk_columns() {
        let m = map();
        let a = m.decode(0);
        let b = m.decode(BURST_BYTES);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.col, a.col + 1, "adjacent bursts are adjacent columns");
    }

    #[test]
    fn row_stride_reaches_next_row() {
        let m = map();
        let a = m.decode(0);
        let b = m.decode(m.row_stride_bytes());
        assert_eq!(b.row, a.row + 1);
        assert_eq!(b.bank, a.bank);
        assert_eq!(b.col, a.col);
        assert_eq!(b.rank, a.rank);
    }

    #[test]
    fn distinct_addresses_decode_distinctly() {
        let m = map();
        let a = m.decode(4096 * BURST_BYTES);
        let b = m.decode(4097 * BURST_BYTES);
        assert_ne!(
            (a.rank, a.bank, a.row, a.col),
            (b.rank, b.bank, b.row, b.col)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_rejects_out_of_range() {
        let m = map();
        let _ = m.decode(m.capacity_bytes());
    }

    #[test]
    #[should_panic(expected = "ranks")]
    fn rejects_non_power_of_two_ranks() {
        let _ = AddressMap::new(DeviceGeometry::DDR4_8GB_X4, 3);
    }
}

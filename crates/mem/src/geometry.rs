//! Physical geometry of a memory region: capacity and word size.

/// Word size used throughout the simulator, in bytes (32-bit embedded core).
pub const WORD_BYTES: u32 = 4;

/// Capacity/word-layout description of one memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionGeometry {
    capacity_bytes: u32,
}

impl RegionGeometry {
    /// Creates a geometry of `capacity_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or not a multiple of [`WORD_BYTES`].
    pub fn from_bytes(capacity_bytes: u32) -> Self {
        assert!(capacity_bytes > 0, "region capacity must be non-zero");
        assert_eq!(
            capacity_bytes % WORD_BYTES,
            0,
            "region capacity must be word-aligned"
        );
        Self { capacity_bytes }
    }

    /// Creates a geometry of `kib` KiB.
    ///
    /// # Panics
    ///
    /// Panics if `kib` is zero.
    pub fn from_kib(kib: u64) -> Self {
        Self::from_bytes(u32::try_from(kib * 1024).expect("capacity fits in u32"))
    }

    /// Capacity in bytes.
    pub fn bytes(self) -> u32 {
        self.capacity_bytes
    }

    /// Capacity in KiB, as a float (regions need not be whole KiB).
    pub fn kib(self) -> f64 {
        f64::from(self.capacity_bytes) / 1024.0
    }

    /// Number of words in the region.
    pub fn words(self) -> u32 {
        self.capacity_bytes / WORD_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kib_roundtrip() {
        let g = RegionGeometry::from_kib(12);
        assert_eq!(g.bytes(), 12 * 1024);
        assert_eq!(g.kib(), 12.0);
        assert_eq!(g.words(), 12 * 1024 / 4);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn rejects_unaligned_capacity() {
        let _ = RegionGeometry::from_bytes(1023);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_capacity() {
        let _ = RegionGeometry::from_bytes(0);
    }
}

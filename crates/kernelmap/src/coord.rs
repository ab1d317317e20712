//! Quantized point-cloud coordinates.

use serde::{Deserialize, Serialize};

/// A quantized coordinate in batched 3D space: `(batch, x, y, z)`.
///
/// Spatial components are voxel indices after quantization
/// `p = floor(p_raw / voxel_size)` and may be negative. Each component
/// must fit in 16 bits (with a +32768 bias) so coordinates pack into a
/// single `u64` hash key — the same trick GPU libraries use.
///
/// # Examples
///
/// ```
/// use ts_kernelmap::Coord;
///
/// let c = Coord::new(0, -5, 3, 12);
/// assert_eq!(Coord::from_key(c.key()), c);
/// assert_eq!(c.offset((1, 0, -1)), Coord::new(0, -4, 3, 11));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord {
    /// Batch index.
    pub batch: i32,
    /// Voxel index along x.
    pub x: i32,
    /// Voxel index along y.
    pub y: i32,
    /// Voxel index along z.
    pub z: i32,
}

const BIAS: i64 = 1 << 15;
const RANGE: i64 = 1 << 16;

impl Coord {
    /// Smallest component value [`Coord::key`] can pack.
    pub const MIN_COMPONENT: i32 = -(BIAS as i32);
    /// Largest component value [`Coord::key`] can pack.
    pub const MAX_COMPONENT: i32 = BIAS as i32 - 1;

    /// Creates a coordinate.
    ///
    /// Components outside `[Coord::MIN_COMPONENT, Coord::MAX_COMPONENT]`
    /// are representable but their [`Coord::key`] aliases another
    /// coordinate's; frames entering a network are range-checked (with
    /// the network's kernel reach) by `ts_core::check_frame`, which
    /// returns a typed error instead.
    pub fn new(batch: i32, x: i32, y: i32, z: i32) -> Self {
        Self { batch, x, y, z }
    }

    /// Packs the coordinate into a 64-bit key, unique while every
    /// component is within `[Coord::MIN_COMPONENT, Coord::MAX_COMPONENT]`.
    pub fn key(self) -> u64 {
        let b = (self.batch as i64 + BIAS) as u64;
        let x = (self.x as i64 + BIAS) as u64;
        let y = (self.y as i64 + BIAS) as u64;
        let z = (self.z as i64 + BIAS) as u64;
        (b << 48) | (x << 32) | (y << 16) | z
    }

    /// Inverse of [`Coord::key`].
    pub fn from_key(key: u64) -> Self {
        let unpack = |v: u64| (v as i64 % RANGE - BIAS) as i32;
        Self {
            batch: unpack(key >> 48),
            x: unpack((key >> 32) & 0xffff),
            y: unpack((key >> 16) & 0xffff),
            z: unpack(key & 0xffff),
        }
    }

    /// Translates the spatial components by `(dx, dy, dz)`.
    pub fn offset(self, (dx, dy, dz): (i32, i32, i32)) -> Self {
        Self {
            batch: self.batch,
            x: self.x + dx,
            y: self.y + dy,
            z: self.z + dz,
        }
    }

    /// Scales the spatial components by `stride` (used to map a
    /// downsampled output coordinate back to input resolution).
    pub fn upscale(self, stride: i32) -> Self {
        Self {
            batch: self.batch,
            x: self.x * stride,
            y: self.y * stride,
            z: self.z * stride,
        }
    }

    /// Floor-divides the spatial components by `stride` (coordinate
    /// downsampling; correct for negative coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `stride <= 0`.
    pub fn downsample(self, stride: i32) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            batch: self.batch,
            x: self.x.div_euclid(stride),
            y: self.y.div_euclid(stride),
            z: self.z.div_euclid(stride),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trip() {
        for c in [
            Coord::new(0, 0, 0, 0),
            Coord::new(3, -100, 250, -32768),
            Coord::new(0, 32767, -1, 1),
        ] {
            assert_eq!(Coord::from_key(c.key()), c);
        }
    }

    #[test]
    fn keys_are_unique_for_distinct_coords() {
        let coords = [
            Coord::new(0, 1, 0, 0),
            Coord::new(0, 0, 1, 0),
            Coord::new(0, 0, 0, 1),
            Coord::new(1, 0, 0, 0),
            Coord::new(0, -1, 0, 0),
        ];
        let keys: std::collections::HashSet<_> = coords.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), coords.len());
    }

    #[test]
    fn downsample_floors_negatives() {
        let c = Coord::new(0, -1, -2, -3);
        let d = c.downsample(2);
        assert_eq!(d, Coord::new(0, -1, -1, -2));
    }

    #[test]
    fn downsample_then_upscale_is_floor() {
        let c = Coord::new(0, 5, -5, 7);
        let back = c.downsample(2).upscale(2);
        assert_eq!(back, Coord::new(0, 4, -6, 6));
    }

    #[test]
    fn offset_translates_spatial_only() {
        let c = Coord::new(2, 1, 1, 1).offset((-1, 0, 2));
        assert_eq!(c, Coord::new(2, 0, 1, 3));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [Coord::new(0, 1, 0, 0), Coord::new(0, 0, 0, 0)];
        v.sort();
        assert_eq!(v[0], Coord::new(0, 0, 0, 0));
    }
}

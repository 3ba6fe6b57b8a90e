//! Primitive identifiers and geometry shared across the workspace.

/// Node identifier (index into the network's node arrays).
pub type NodeId = u32;

/// Edge identifier (index into the CSR arc arrays). Each *directed* arc has
/// its own id; an undirected road segment is stored as two arcs.
pub type EdgeId = u32;

/// Edge weight — positive traversal cost (length, travel time, ...). The
/// paper requires `w(e) > 0` for every edge.
pub type Weight = u32;

/// Accumulated path cost. 64-bit so that summing billions of `u32` weights
/// cannot overflow.
pub type Dist = u64;

/// A point in the Euclidean plane. The paper assumes all nodes have Euclidean
/// coordinates (§3.1); clients express sources and destinations in these
/// coordinates because node/region identifiers are not known to them
/// (§5.1, footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    /// X coordinate (integral — e.g. scaled meters).
    pub x: i32,
    /// Y coordinate.
    pub y: i32,
}

impl Point {
    /// Constructs a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub(crate) fn dist(&self, other: &Point) -> f64 {
        let dx = f64::from(self.x) - f64::from(other.x);
        let dy = f64::from(self.y) - f64::from(other.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (no sqrt; exact in i128).
    pub fn dist2(&self, other: &Point) -> i128 {
        let dx = i128::from(self.x) - i128::from(other.x);
        let dy = i128::from(self.y) - i128::from(other.y);
        dx * dx + dy * dy
    }

    /// Coordinate along `axis` (0 = x, 1 = y).
    pub fn coord(&self, axis: u8) -> i32 {
        match axis {
            0 => self.x,
            1 => self.y,
            _ => panic!("axis must be 0 or 1, got {axis}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0, 0);
        let b = Point::new(3, 4);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist2(&b), 25);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-5, 10);
        let b = Point::new(7, -2);
        assert_eq!(a.dist(&b), b.dist(&a));
        assert_eq!(a.dist2(&b), b.dist2(&a));
    }

    #[test]
    fn dist2_handles_extremes_without_overflow() {
        let a = Point::new(i32::MIN, i32::MIN);
        let b = Point::new(i32::MAX, i32::MAX);
        let d = a.dist2(&b);
        assert!(d > 0);
    }

    #[test]
    fn coord_selects_axis() {
        let p = Point::new(3, 9);
        assert_eq!(p.coord(0), 3);
        assert_eq!(p.coord(1), 9);
    }

    #[test]
    #[should_panic(expected = "axis must be 0 or 1")]
    fn coord_rejects_bad_axis() {
        Point::new(0, 0).coord(2);
    }
}

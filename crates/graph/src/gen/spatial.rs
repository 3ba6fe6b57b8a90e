//! Uniform-grid spatial index for nearest-neighbour queries during network
//! generation.

use crate::types::Point;

/// A bucketed uniform grid over a point set. Supports k-nearest-neighbour and
/// filtered nearest-neighbour queries via expanding ring search.
pub struct GridIndex<'a> {
    points: &'a [Point],
    min: Point,
    cell: i64,
    nx: usize,
    ny: usize,
    buckets: Vec<Vec<u32>>,
}

impl<'a> GridIndex<'a> {
    /// Builds an index targeting roughly `avg_per_cell` points per bucket.
    pub(crate) fn build(points: &'a [Point], avg_per_cell: usize) -> Self {
        assert!(!points.is_empty(), "cannot index an empty point set");
        let mut min = points[0];
        let mut max = points[0];
        for p in points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        let w = i64::from(max.x) - i64::from(min.x) + 1;
        let h = i64::from(max.y) - i64::from(min.y) + 1;
        let cells = (points.len() / avg_per_cell.max(1)).max(1);
        let cell = (((w as f64 * h as f64) / cells as f64).sqrt().ceil() as i64).max(1);
        let nx = ((w + cell - 1) / cell) as usize;
        let ny = ((h + cell - 1) / cell) as usize;
        let mut buckets = vec![Vec::new(); nx * ny];
        for (i, p) in points.iter().enumerate() {
            let cx = ((i64::from(p.x) - i64::from(min.x)) / cell) as usize;
            let cy = ((i64::from(p.y) - i64::from(min.y)) / cell) as usize;
            buckets[cy * nx + cx].push(i as u32);
        }
        GridIndex {
            points,
            min,
            cell,
            nx,
            ny,
            buckets,
        }
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            (i64::from(p.x) - i64::from(self.min.x)) / self.cell,
            (i64::from(p.y) - i64::from(self.min.y)) / self.cell,
        )
    }

    /// Visits buckets at Chebyshev ring `r` around cell `(cx, cy)`.
    fn ring_buckets(&self, cx: i64, cy: i64, r: i64, mut visit: impl FnMut(&[u32])) {
        let in_range =
            |x: i64, y: i64| x >= 0 && y >= 0 && (x as usize) < self.nx && (y as usize) < self.ny;
        if r == 0 {
            if in_range(cx, cy) {
                visit(&self.buckets[cy as usize * self.nx + cx as usize]);
            }
            return;
        }
        for x in (cx - r)..=(cx + r) {
            for &y in &[cy - r, cy + r] {
                if in_range(x, y) {
                    visit(&self.buckets[y as usize * self.nx + x as usize]);
                }
            }
        }
        for y in (cy - r + 1)..(cy + r) {
            for &x in &[cx - r, cx + r] {
                if in_range(x, y) {
                    visit(&self.buckets[y as usize * self.nx + x as usize]);
                }
            }
        }
    }

    /// The `k` nearest neighbours of point `i` (excluding `i` itself),
    /// ascending by distance, ties broken by id.
    pub(crate) fn knn(&self, i: u32, k: usize) -> Vec<u32> {
        let p = self.points[i as usize];
        let (cx, cy) = self.cell_of(p);
        let max_ring = (self.nx.max(self.ny)) as i64;
        let mut cand: Vec<(i128, u32)> = Vec::new();
        let mut r = 0i64;
        while r <= max_ring {
            self.ring_buckets(cx, cy, r, |bucket| {
                for &j in bucket {
                    if j != i {
                        cand.push((p.dist2(&self.points[j as usize]), j));
                    }
                }
            });
            if cand.len() >= k {
                // A point in ring r is at least (r-1)*cell away; once the kth
                // best is closer than that bound, further rings cannot help.
                cand.sort_unstable();
                cand.truncate(k.max(cand.len().min(4 * k)));
                let kth = cand[k.min(cand.len()) - 1].0;
                let bound = i128::from(r * self.cell) * i128::from(r * self.cell);
                if kth <= bound {
                    break;
                }
            }
            r += 1;
        }
        cand.sort_unstable();
        cand.truncate(k);
        cand.into_iter().map(|(_, j)| j).collect()
    }

    /// Nearest point satisfying `pred`, or `None` if no point does.
    pub(crate) fn nearest_matching(
        &self,
        from: Point,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        let (cx, cy) = self.cell_of(from);
        let max_ring = (self.nx.max(self.ny)) as i64 + 1;
        let mut best: Option<(i128, u32)> = None;
        for r in 0..=max_ring {
            self.ring_buckets(cx, cy, r, |bucket| {
                for &j in bucket {
                    if pred(j) {
                        let d = from.dist2(&self.points[j as usize]);
                        if best.is_none() || (d, j) < best.unwrap() {
                            best = Some((d, j));
                        }
                    }
                }
            });
            if let Some((d, _)) = best {
                let bound = i128::from(r * self.cell) * i128::from(r * self.cell);
                if d <= bound {
                    break;
                }
            }
        }
        best.map(|(_, j)| j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cross_points() -> Vec<Point> {
        vec![
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(0, 10),
            Point::new(-10, 0),
            Point::new(0, -10),
            Point::new(100, 100),
        ]
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = cross_points();
        let idx = GridIndex::build(&pts, 2);
        for i in 0..pts.len() as u32 {
            let got = idx.knn(i, 3);
            let mut want: Vec<(i128, u32)> = (0..pts.len() as u32)
                .filter(|&j| j != i)
                .map(|j| (pts[i as usize].dist2(&pts[j as usize]), j))
                .collect();
            want.sort_unstable();
            let want: Vec<u32> = want.into_iter().take(3).map(|(_, j)| j).collect();
            assert_eq!(got, want, "knn of {i}");
        }
    }

    #[test]
    fn knn_on_random_points_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let pts: Vec<Point> = (0..400)
            .map(|_| Point::new(rng.gen_range(0..10_000), rng.gen_range(0..10_000)))
            .collect();
        let idx = GridIndex::build(&pts, 4);
        for i in (0..400u32).step_by(37) {
            let got = idx.knn(i, 6);
            let mut want: Vec<(i128, u32)> = (0..pts.len() as u32)
                .filter(|&j| j != i)
                .map(|j| (pts[i as usize].dist2(&pts[j as usize]), j))
                .collect();
            want.sort_unstable();
            let want: Vec<u32> = want.into_iter().take(6).map(|(_, j)| j).collect();
            assert_eq!(got, want, "knn of {i}");
        }
    }

    #[test]
    fn nearest_matching_respects_filter() {
        let pts = cross_points();
        let idx = GridIndex::build(&pts, 2);
        // nearest to origin that is not the origin cluster
        let j = idx.nearest_matching(Point::new(0, 0), |j| j == 5).unwrap();
        assert_eq!(j, 5);
        assert!(idx.nearest_matching(Point::new(0, 0), |_| false).is_none());
    }
}

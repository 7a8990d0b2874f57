//! A uniform-grid spatial index over a fixed set of points.
//!
//! Coverage queries — "which BSs lie within radius `r` of UE `u`" — are the
//! hot inner loop of scenario construction (`|U| × |B|` pairs at up to 1000
//! UEs × 25 BSs in the paper, and far more in scaling benches). Bucketing
//! sites into cells of the query radius keeps candidate generation local.

use dmra_types::{Meters, Point};

/// A uniform-grid spatial index over an immutable slice of points.
///
/// Build once with [`GridIndex::build`], then run any number of
/// [`GridIndex::query_within`] radius queries. Indices returned by queries
/// refer to positions in the original slice.
///
/// Cells are stored dense (CSR over the points' cell bounding box) so a
/// query touches a handful of array slices rather than hashing cell
/// coordinates — the per-UE query is the hot inner loop of the online
/// engine's epoch rebuild.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    /// Cell-coordinate origin and extent of the dense grid.
    min_cx: i64,
    min_cy: i64,
    nx: usize,
    ny: usize,
    /// CSR layout: `entries[cell_start[c]..cell_start[c + 1]]` are the
    /// point indices in dense cell `c = row * nx + col`, ascending.
    cell_start: Vec<usize>,
    entries: Vec<usize>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds an index with the given cell size (typically the most common
    /// query radius).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    #[must_use]
    pub fn build(points: &[Point], cell_size: Meters) -> Self {
        assert!(
            cell_size.get() > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        let cell = cell_size.get();
        let coords: Vec<(i64, i64)> = points.iter().map(|&p| Self::cell_of(p, cell)).collect();
        let (min_cx, min_cy, nx, ny) = match (
            coords
                .iter()
                .map(|c| c.0)
                .min()
                .zip(coords.iter().map(|c| c.0).max()),
            coords
                .iter()
                .map(|c| c.1)
                .min()
                .zip(coords.iter().map(|c| c.1).max()),
        ) {
            (Some((x0, x1)), Some((y0, y1))) => (
                x0,
                y0,
                usize::try_from(x1 - x0 + 1).expect("grid width fits usize"),
                usize::try_from(y1 - y0 + 1).expect("grid height fits usize"),
            ),
            _ => (0, 0, 0, 0),
        };
        let n_cells = nx * ny;
        let mut cell_start = vec![0usize; n_cells + 1];
        for &(cx, cy) in &coords {
            let c = (cy - min_cy) as usize * nx + (cx - min_cx) as usize;
            cell_start[c + 1] += 1;
        }
        for c in 0..n_cells {
            cell_start[c + 1] += cell_start[c];
        }
        // Filling in point order keeps each cell's entries ascending.
        let mut cursor = cell_start.clone();
        let mut entries = vec![0usize; points.len()];
        for (i, &(cx, cy)) in coords.iter().enumerate() {
            let c = (cy - min_cy) as usize * nx + (cx - min_cx) as usize;
            entries[cursor[c]] = i;
            cursor[c] += 1;
        }
        Self {
            cell_size: cell,
            min_cx,
            min_cy,
            nx,
            ny,
            cell_start,
            entries,
            points: points.to_vec(),
        }
    }

    fn cell_of(p: Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// The clamped dense-grid column/row ranges a radius-`r` query around
    /// `center` must visit, or `None` when the disk misses the grid.
    #[allow(clippy::similar_names)]
    fn cell_range(&self, center: Point, r: f64) -> Option<(usize, usize, usize, usize)> {
        if self.nx == 0 {
            return None;
        }
        let span = (r / self.cell_size).ceil() as i64;
        let (cx, cy) = Self::cell_of(center, self.cell_size);
        let x_lo = cx.saturating_sub(span).max(self.min_cx) - self.min_cx;
        let x_hi = cx
            .saturating_add(span)
            .min(self.min_cx + self.nx as i64 - 1)
            - self.min_cx;
        let y_lo = cy.saturating_sub(span).max(self.min_cy) - self.min_cy;
        let y_hi = cy
            .saturating_add(span)
            .min(self.min_cy + self.ny as i64 - 1)
            - self.min_cy;
        if x_lo > x_hi || y_lo > y_hi {
            return None;
        }
        #[allow(clippy::cast_sign_loss)]
        Some((x_lo as usize, x_hi as usize, y_lo as usize, y_hi as usize))
    }

    /// Number of indexed points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if no points are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns the indices of all points within `radius` of `center`
    /// (inclusive), in ascending index order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmra_geo::GridIndex;
    /// # use dmra_types::{Meters, Point};
    /// let pts = [Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(500.0, 0.0)];
    /// let idx = GridIndex::build(&pts, Meters::new(200.0));
    /// assert_eq!(idx.query_within(Point::new(0.0, 0.0), Meters::new(150.0)), vec![0, 1]);
    /// ```
    #[must_use]
    pub fn query_within(&self, center: Point, radius: Meters) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_within_into(center, radius, &mut out);
        out
    }

    /// [`GridIndex::query_within`] writing into a caller-owned buffer, for
    /// hot loops that run one query per UE and would otherwise allocate a
    /// fresh `Vec` each time.
    ///
    /// `out` is cleared first; on return it holds the indices of all points
    /// within `radius` of `center` (inclusive), in **ascending index
    /// order** — the same order a brute-force scan over the original slice
    /// would visit them, which is what lets callers substitute a pruned
    /// query for an exhaustive loop without reordering anything.
    pub fn query_within_into(&self, center: Point, radius: Meters, out: &mut Vec<usize>) {
        out.clear();
        let r = radius.get();
        if r < 0.0 {
            return;
        }
        self.for_each_within(center, r, |i, _| out.push(i));
        out.sort_unstable();
    }

    /// [`GridIndex::query_within_into`] carrying each match's exact
    /// distance — computed by the same `Point::distance` the caller would
    /// use, so hot loops that need the distance anyway (candidate link
    /// generation evaluates path loss at it) never compute it twice.
    ///
    /// `out` is cleared first; entries come out in ascending index order.
    pub fn query_within_dist_into(
        &self,
        center: Point,
        radius: Meters,
        out: &mut Vec<(usize, Meters)>,
    ) {
        out.clear();
        let r = radius.get();
        if r < 0.0 {
            return;
        }
        self.for_each_within(center, r, |i, d| out.push((i, d)));
        out.sort_unstable_by_key(|&(i, _)| i);
    }

    /// Counts the points within `radius` of `center` without allocating the
    /// index list — used for the paper's `f_u` statistic when only the count
    /// matters.
    #[must_use]
    pub fn count_within(&self, center: Point, radius: Meters) -> usize {
        let r = radius.get();
        if r < 0.0 {
            return 0;
        }
        let mut n = 0;
        self.for_each_within(center, r, |_, _| n += 1);
        n
    }

    /// Visits every point with `distance(center) ≤ r`, passing its index
    /// and exact distance, in cell order (not index order).
    ///
    /// A squared-distance cull with a bound nudged a few ULPs up rejects
    /// the bulk of out-of-range cell occupants before the exact (and
    /// comparatively costly) `hypot`; the cull can only pass extra
    /// near-boundary points, never drop one the exact predicate accepts,
    /// so the visited set is exactly the `distance ≤ r` set.
    fn for_each_within(&self, center: Point, r: f64, mut visit: impl FnMut(usize, Meters)) {
        let Some((x_lo, x_hi, y_lo, y_hi)) = self.cell_range(center, r) else {
            return;
        };
        let r2 = r * r * (1.0 + 1e-9);
        for row in y_lo..=y_hi {
            let base = row * self.nx;
            let from = self.cell_start[base + x_lo];
            let to = self.cell_start[base + x_hi + 1];
            for &i in &self.entries[from..to] {
                let p = self.points[i];
                let (dx, dy) = (p.x - center.x, p.y - center.y);
                if dx * dx + dy * dy <= r2 {
                    let d = center.distance(p);
                    if d.get() <= r {
                        visit(i, d);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::uniform_random;
    use crate::rng::component_rng;
    use dmra_types::Rect;
    use proptest::prelude::*;

    fn brute_force(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(center).get() <= radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn query_matches_brute_force_on_random_points() {
        let mut rng = component_rng(11, "index");
        let pts = uniform_random(400, Rect::default(), &mut rng);
        let idx = GridIndex::build(&pts, Meters::new(150.0));
        for &(x, y, r) in &[
            (600.0, 600.0, 200.0),
            (0.0, 0.0, 500.0),
            (1200.0, 1200.0, 50.0),
            (300.0, 900.0, 0.0),
        ] {
            let c = Point::new(x, y);
            assert_eq!(idx.query_within(c, Meters::new(r)), brute_force(&pts, c, r));
        }
    }

    #[test]
    fn query_into_reuses_buffer_and_matches_query() {
        let mut rng = component_rng(13, "index");
        let pts = uniform_random(300, Rect::default(), &mut rng);
        let idx = GridIndex::build(&pts, Meters::new(120.0));
        let mut buf = vec![usize::MAX; 64]; // stale content must be cleared
        for &(x, y, r) in &[(100.0, 100.0, 250.0), (900.0, 400.0, 80.0), (0.0, 0.0, 0.0)] {
            let c = Point::new(x, y);
            idx.query_within_into(c, Meters::new(r), &mut buf);
            assert_eq!(buf, idx.query_within(c, Meters::new(r)));
            assert_eq!(buf, brute_force(&pts, c, r));
        }
    }

    #[test]
    fn distance_query_matches_query_and_recomputed_distances() {
        let mut rng = component_rng(17, "index");
        let pts = uniform_random(350, Rect::default(), &mut rng);
        let idx = GridIndex::build(&pts, Meters::new(300.0));
        let mut with_dist = Vec::new();
        for &(x, y, r) in &[
            (600.0, 600.0, 300.0),
            (0.0, 0.0, 450.0),
            (1199.0, 3.0, 120.0),
            (250.0, 980.0, 0.0),
        ] {
            let c = Point::new(x, y);
            idx.query_within_dist_into(c, Meters::new(r), &mut with_dist);
            let indices: Vec<usize> = with_dist.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, idx.query_within(c, Meters::new(r)));
            for &(i, d) in &with_dist {
                // Bit-identical to what the caller would compute itself.
                assert_eq!(d, c.distance(pts[i]), "carried distance differs for {i}");
            }
        }
    }

    #[test]
    fn count_matches_query_length() {
        let mut rng = component_rng(12, "index");
        let pts = uniform_random(200, Rect::default(), &mut rng);
        let idx = GridIndex::build(&pts, Meters::new(100.0));
        let c = Point::new(500.0, 700.0);
        assert_eq!(
            idx.count_within(c, Meters::new(333.0)),
            idx.query_within(c, Meters::new(333.0)).len()
        );
    }

    #[test]
    fn radius_is_inclusive() {
        let pts = [Point::new(0.0, 0.0), Point::new(300.0, 0.0)];
        let idx = GridIndex::build(&pts, Meters::new(300.0));
        assert_eq!(
            idx.query_within(Point::new(0.0, 0.0), Meters::new(300.0)),
            vec![0, 1]
        );
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = GridIndex::build(&[], Meters::new(100.0));
        assert!(idx.is_empty());
        assert!(idx
            .query_within(Point::new(0.0, 0.0), Meters::new(1e6))
            .is_empty());
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let pts = [Point::new(-250.0, -250.0), Point::new(250.0, 250.0)];
        let idx = GridIndex::build(&pts, Meters::new(100.0));
        assert_eq!(
            idx.query_within(Point::new(-240.0, -240.0), Meters::new(50.0)),
            vec![0]
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::build(&[], Meters::new(0.0));
    }

    proptest! {
        #[test]
        fn prop_index_equals_brute_force(
            seed in 0u64..200,
            n in 0usize..120,
            x in 0.0f64..1200.0,
            y in 0.0f64..1200.0,
            r in 0.0f64..900.0,
            cell in 20.0f64..600.0,
        ) {
            let mut rng = component_rng(seed, "prop-index");
            let pts = uniform_random(n, Rect::default(), &mut rng);
            let idx = GridIndex::build(&pts, Meters::new(cell));
            let c = Point::new(x, y);
            prop_assert_eq!(
                idx.query_within(c, Meters::new(r)),
                brute_force(&pts, c, r)
            );
        }
    }
}

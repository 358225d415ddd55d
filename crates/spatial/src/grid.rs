//! Uniform bucket-grid index.
//!
//! Used for constant-time-ish point location and nearest-neighbour lookup in
//! map matching (paper §5.1.3) and for the *systematic sampling* virtual grid
//! (§4.3).

use crate::kdtree::Entry;
use stq_geom::{Point, Rect};

/// A uniform grid of buckets over a rectangle.
#[derive(Clone, Debug)]
pub struct GridIndex {
    region: Rect,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<Entry>>,
    len: usize,
}

impl GridIndex {
    /// Builds a grid with `nx × ny` cells covering the bounding box of the
    /// input (slightly inflated so boundary points land inside).
    pub fn build(entries: &[(Point, u32)], nx: usize, ny: usize) -> Self {
        let nx = nx.max(1);
        let ny = ny.max(1);
        let pts: Vec<Point> = entries.iter().map(|e| e.0).collect();
        let region = Rect::bounding(&pts)
            .map(|r| r.inflated((r.width().max(r.height()).max(1.0)) * 1e-9))
            .unwrap_or_else(|| Rect::from_corners(Point::ORIGIN, Point::new(1.0, 1.0)));
        let mut g = GridIndex { region, nx, ny, cells: vec![Vec::new(); nx * ny], len: 0 };
        for &(p, id) in entries {
            let c = g.cell_of(p);
            g.cells[c].push(Entry { point: p, id });
            g.len += 1;
        }
        g
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
        self.region
    }

    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let fx = ((p.x - self.region.min.x) / self.region.width().max(1e-300)).clamp(0.0, 1.0);
        let fy = ((p.y - self.region.min.y) / self.region.height().max(1e-300)).clamp(0.0, 1.0);
        let ix = ((fx * self.nx as f64) as usize).min(self.nx - 1);
        let iy = ((fy * self.ny as f64) as usize).min(self.ny - 1);
        (ix, iy)
    }

    fn cell_of(&self, p: Point) -> usize {
        let (ix, iy) = self.cell_coords(p);
        iy * self.nx + ix
    }

    /// Iterates over all cells as `(cell_rect, entries)`.
    pub fn cells(&self) -> impl Iterator<Item = (Rect, &[Entry])> + '_ {
        let w = self.region.width() / self.nx as f64;
        let h = self.region.height() / self.ny as f64;
        (0..self.nx * self.ny).map(move |i| {
            let ix = i % self.nx;
            let iy = i / self.nx;
            let min =
                Point::new(self.region.min.x + ix as f64 * w, self.region.min.y + iy as f64 * h);
            let r = Rect::from_corners(min, min + Point::new(w, h));
            (r, self.cells[i].as_slice())
        })
    }

    /// All entries inside the closed rectangle `r`.
    pub fn range(&self, r: &Rect) -> Vec<Entry> {
        let mut out = Vec::new();
        if !self.region.intersects(r) {
            return out;
        }
        let (ix0, iy0) = self.cell_coords(Point::new(
            r.min.x.max(self.region.min.x),
            r.min.y.max(self.region.min.y),
        ));
        let (ix1, iy1) = self.cell_coords(Point::new(
            r.max.x.min(self.region.max.x),
            r.max.y.min(self.region.max.y),
        ));
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                for e in &self.cells[iy * self.nx + ix] {
                    if r.contains(e.point) {
                        out.push(*e);
                    }
                }
            }
        }
        out
    }

    /// Nearest entry to `q`, searching rings of cells outward. `None` when
    /// the index is empty.
    pub fn nearest(&self, q: Point) -> Option<Entry> {
        if self.len == 0 {
            return None;
        }
        let (cx, cy) = self.cell_coords(q);
        let max_ring = self.nx.max(self.ny);
        let mut best: Option<(f64, Entry)> = None;
        for ring in 0..=max_ring {
            // Scan the ring of cells at Chebyshev distance `ring`.
            let x0 = cx.saturating_sub(ring);
            let x1 = (cx + ring).min(self.nx - 1);
            let y0 = cy.saturating_sub(ring);
            let y1 = (cy + ring).min(self.ny - 1);
            for iy in y0..=y1 {
                for ix in x0..=x1 {
                    let on_ring = ix == x0 || ix == x1 || iy == y0 || iy == y1;
                    if ring > 0 && !on_ring {
                        continue;
                    }
                    for e in &self.cells[iy * self.nx + ix] {
                        let d = q.dist2(e.point);
                        if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                            best = Some((d, *e));
                        }
                    }
                }
            }
            // Once something is found, one extra ring guarantees correctness
            // (a closer point can hide one ring further at most when the
            // query sits near a cell border).
            if let Some((bd, _)) = best {
                let cell_w = self.region.width() / self.nx as f64;
                let cell_h = self.region.height() / self.ny as f64;
                let safe = (ring as f64) * cell_w.min(cell_h);
                if bd.sqrt() <= safe {
                    break;
                }
            }
        }
        best.map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud(n: usize, seed: u64) -> Vec<(Point, u32)> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|i| (Point::new(next() * 100.0, next() * 100.0), i as u32)).collect()
    }

    #[test]
    fn empty_grid() {
        let g = GridIndex::build(&[], 4, 4);
        assert!(g.is_empty());
        assert!(g.nearest(Point::ORIGIN).is_none());
    }

    #[test]
    fn range_matches_brute_force() {
        let pts = cloud(500, 31);
        let g = GridIndex::build(&pts, 10, 10);
        let r = Rect::from_corners(Point::new(5.0, 5.0), Point::new(42.0, 77.0));
        let mut got: Vec<u32> = g.range(&r).into_iter().map(|e| e.id).collect();
        got.sort_unstable();
        let mut want: Vec<u32> =
            pts.iter().filter(|(p, _)| r.contains(*p)).map(|&(_, id)| id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = cloud(300, 41);
        let g = GridIndex::build(&pts, 8, 8);
        for qi in 0..25 {
            let q = Point::new((qi * 17 % 110) as f64 - 5.0, (qi * 29 % 110) as f64 - 5.0);
            let got = g.nearest(q).unwrap();
            let want =
                pts.iter().min_by(|a, b| q.dist2(a.0).partial_cmp(&q.dist2(b.0)).unwrap()).unwrap();
            assert!(
                (q.dist2(got.point) - q.dist2(want.0)).abs() < 1e-9,
                "query {q}: got {} want {}",
                got.point,
                want.0
            );
        }
    }

    #[test]
    fn cells_cover_all_entries() {
        let pts = cloud(200, 51);
        let g = GridIndex::build(&pts, 5, 7);
        let total: usize = g.cells().map(|(_, es)| es.len()).sum();
        assert_eq!(total, 200);
        assert_eq!(g.cells().count(), 35);
        for (rect, es) in g.cells() {
            for e in es {
                assert!(rect.inflated(1e-6).contains(e.point));
            }
        }
    }

    #[test]
    fn single_cell_grid() {
        let pts = cloud(50, 61);
        let g = GridIndex::build(&pts, 1, 1);
        assert_eq!(g.cells().next().map(|(_, es)| es.len()), Some(50));
        assert!(g.nearest(Point::new(-100.0, -100.0)).is_some());
    }
}

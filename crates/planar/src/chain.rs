//! Oriented 1-chains and the boundary operator `∂` (paper §3.4).
//!
//! A 1-chain is a linear combination of oriented edges. Differential 1-forms
//! (in `stq-forms`) are evaluated by integrating along chains:
//! `ξ(C) = Σ_{e ∈ C} λ_e ξ(e)` with `ξ(−e) = −ξ(e)`.

use crate::embedding::{EdgeId, Embedding, FaceId, Faces};
use std::collections::HashMap;

/// An oriented edge with an integer coefficient.
///
/// `forward = true` means the edge taken in its construction direction
/// (tail → head); `false` is the reversed edge `−e`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SignedEdge {
    /// The undirected edge carrying the coefficient.
    pub edge: EdgeId,
    /// Orientation: construction direction (`true`) or reversed `−e`.
    pub forward: bool,
    /// Integer multiplicity of the oriented edge in the chain.
    pub coeff: i64,
}

/// A 1-chain: a sparse signed sum of oriented edges, kept in canonical form
/// (each edge appears once, with its *forward* orientation and a possibly
/// negative coefficient; zero coefficients are dropped).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Chain {
    coeffs: HashMap<EdgeId, i64>,
}

impl Chain {
    /// The empty chain.
    pub fn new() -> Self {
        Chain::default()
    }

    /// Adds a signed edge.
    pub fn add(&mut self, se: SignedEdge) {
        let delta = if se.forward { se.coeff } else { -se.coeff };
        let entry = self.coeffs.entry(se.edge).or_insert(0);
        *entry += delta;
        if *entry == 0 {
            self.coeffs.remove(&se.edge);
        }
    }

    /// Adds another chain into this one.
    pub fn add_chain(&mut self, other: &Chain) {
        for (&e, &c) in &other.coeffs {
            let entry = self.coeffs.entry(e).or_insert(0);
            *entry += c;
            if *entry == 0 {
                self.coeffs.remove(&e);
            }
        }
    }

    /// Coefficient of the forward orientation of `edge` (0 when absent).
    pub fn coeff(&self, edge: EdgeId) -> i64 {
        self.coeffs.get(&edge).copied().unwrap_or(0)
    }

    /// True when every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Iterates `(edge, coefficient)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, i64)> + '_ {
        self.coeffs.iter().map(|(&e, &c)| (e, c))
    }

    /// Boundary chain `∂σ` of a single face: the face walk as a 1-chain,
    /// oriented counter-clockwise for interior faces (the paper's
    /// convention, §3.4).
    pub fn face_boundary(emb: &Embedding, faces: &Faces, face: FaceId) -> Chain {
        let mut c = Chain::new();
        for &h in &faces.walks[face] {
            c.add(SignedEdge { edge: emb.edge_of(h), forward: h % 2 == 0, coeff: 1 });
        }
        c
    }

    /// Boundary chain of a union of faces. Edges interior to the union
    /// cancel (they appear once per orientation), leaving only the perimeter
    /// — the discrete analogue of Stokes cancellation that makes the
    /// double-counting fix of Theorem 4.1 work.
    pub fn region_boundary(emb: &Embedding, faces: &Faces, region: &[FaceId]) -> Chain {
        let mut c = Chain::new();
        for &f in region {
            c.add_chain(&Self::face_boundary(emb, faces, f));
        }
        c
    }
}

/// `∂∂ = 0`: the boundary of a 1-chain as a 0-chain (vertex multiset with
/// signs). Exposed for tests: the boundary of any *face* boundary is zero.
pub fn vertex_boundary(emb: &Embedding, chain: &Chain) -> HashMap<usize, i64> {
    let mut out: HashMap<usize, i64> = HashMap::new();
    for (e, c) in chain.iter() {
        let (u, v) = emb.edge_endpoints(e);
        *out.entry(v).or_insert(0) += c;
        *out.entry(u).or_insert(0) -= c;
    }
    out.retain(|_, c| *c != 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_geom::Point;

    fn square_with_diagonal() -> (Embedding, Faces) {
        let emb = Embedding::from_geometry(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
            ],
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        )
        .unwrap();
        let faces = emb.faces();
        (emb, faces)
    }

    #[test]
    fn face_boundary_is_cycle() {
        let (emb, faces) = square_with_diagonal();
        for f in 0..faces.walks.len() {
            let c = Chain::face_boundary(&emb, &faces, f);
            assert!(vertex_boundary(&emb, &c).is_empty(), "∂∂ must vanish");
        }
    }

    #[test]
    fn interior_edges_cancel_in_region_boundary() {
        let (emb, faces) = square_with_diagonal();
        let outer = emb.outer_face(&faces).unwrap();
        let interior: Vec<usize> = (0..faces.walks.len()).filter(|&f| f != outer).collect();
        assert_eq!(interior.len(), 2);
        let region = Chain::region_boundary(&emb, &faces, &interior);
        // The diagonal (edge 4) must cancel; the 4 square sides remain.
        assert_eq!(region.coeff(4), 0);
        assert_eq!(region.iter().count(), 4);
        for e in 0..4 {
            assert_eq!(region.coeff(e).abs(), 1);
        }
        assert!(vertex_boundary(&emb, &region).is_empty());
    }

    #[test]
    fn union_of_all_faces_is_zero() {
        // Every edge borders exactly two faces with opposite orientations,
        // so summing all face boundaries (outer included) yields 0.
        let (emb, faces) = square_with_diagonal();
        let all: Vec<usize> = (0..faces.walks.len()).collect();
        let c = Chain::region_boundary(&emb, &faces, &all);
        assert!(c.is_zero());
    }

    #[test]
    fn chain_arithmetic() {
        let mut c = Chain::new();
        c.add(SignedEdge { edge: 3, forward: true, coeff: 2 });
        c.add(SignedEdge { edge: 3, forward: false, coeff: 2 });
        assert!(c.is_zero());
        c.add(SignedEdge { edge: 1, forward: false, coeff: 1 });
        assert_eq!(c.coeff(1), -1);
        let mut n = Chain::new();
        n.add(SignedEdge { edge: 1, forward: true, coeff: 1 });
        assert_eq!(n.coeff(1), 1);
        let mut sum = c.clone();
        sum.add_chain(&n);
        assert!(sum.is_zero());
    }

    #[test]
    fn face_boundary_orientation_matches_walk() {
        let (emb, faces) = square_with_diagonal();
        let outer = emb.outer_face(&faces).unwrap();
        for f in 0..faces.walks.len() {
            if f == outer {
                continue;
            }
            // Interior faces walk CCW → positive area.
            assert!(emb.face_signed_area(&faces.walks[f]).unwrap() > 0.0);
        }
    }
}

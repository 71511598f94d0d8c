//! Explicit tile dependence graphs.
//!
//! The tiled space `J^S` with its dependence set `D^S` forms a DAG whose
//! nodes are tiles and whose edges are tile dependences. This module
//! materializes that DAG for *small* spaces — it is the oracle used to
//! validate legality (acyclicity), schedule correctness (every edge
//! advances time by its lag) and the closed-form schedule-length
//! formulas.

use crate::dependence::DependenceSet;
use crate::space::{IterationSpace, Point};
use std::collections::HashMap;

/// A materialized tile DAG over a rectangular tiled space.
#[derive(Clone, Debug)]
pub struct TileGraph {
    /// Node index of each tile (row-major enumeration of the space).
    index: HashMap<Point, usize>,
    nodes: Vec<Point>,
    /// `edges[v]` = indices of the tiles `v` depends on (predecessors).
    preds: Vec<Vec<usize>>,
    /// Successor adjacency.
    succs: Vec<Vec<usize>>,
}

impl TileGraph {
    /// Build the DAG of `tiled_space` under tile dependences `tile_deps`.
    ///
    /// Intended for validation: the graph is O(|J^S|·|D^S|) in memory.
    pub fn build(tiled_space: &IterationSpace, tile_deps: &DependenceSet) -> Self {
        assert_eq!(tiled_space.dims(), tile_deps.dims(), "arity mismatch");
        let nodes: Vec<Point> = tiled_space.points().collect();
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, p) in nodes.iter().enumerate() {
            index.insert(p.clone(), i);
        }
        let mut preds = vec![Vec::new(); nodes.len()];
        let mut succs = vec![Vec::new(); nodes.len()];
        for (vi, v) in nodes.iter().enumerate() {
            for d in tile_deps.iter() {
                let pred: Point = v.iter().zip(d.components()).map(|(&a, &b)| a - b).collect();
                if let Some(&pi) = index.get(&pred) {
                    preds[vi].push(pi);
                    succs[pi].push(vi);
                }
            }
        }
        TileGraph {
            index,
            nodes,
            preds,
            succs,
        }
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the graph has no tiles (never happens for valid spaces).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tile coordinates of node `i`.
    pub fn tile(&self, i: usize) -> &Point {
        &self.nodes[i]
    }

    /// Node index of a tile.
    pub fn node(&self, tile: &Point) -> Option<usize> {
        self.index.get(tile).copied()
    }

    /// Predecessors (dependencies) of node `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Kahn topological order; `None` if the graph has a cycle (an
    /// illegal tiling produces cyclic tile dependences).
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d == 0).then_some(i))
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(v) = queue.pop() {
            order.push(v);
            for &s in &self.succs[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }

    /// Check a time assignment against the DAG: every edge `u → v` must
    /// satisfy `t(v) − t(u) ≥ lag(v − u)`, where the lag of the edge's
    /// dependence vector is decided by the caller (a schedule's
    /// [`TileSchedule::lag`](crate::schedule::TileSchedule::lag)).
    pub fn validate_times<T, L>(&self, time_of: T, lag: L) -> Result<(), ScheduleViolation>
    where
        T: Fn(&Point) -> i64,
        L: Fn(&[i64]) -> i64,
    {
        for (vi, v) in self.nodes.iter().enumerate() {
            let tv = time_of(v);
            for &pi in &self.preds[vi] {
                let u = &self.nodes[pi];
                let tu = time_of(u);
                let need = lag(&edge(u, v));
                if tv - tu < need {
                    return Err(ScheduleViolation {
                        from: u.clone(),
                        to: v.clone(),
                        t_from: tu,
                        t_to: tv,
                        required_lag: need,
                    });
                }
            }
        }
        Ok(())
    }

    /// Critical-path length in *steps* under per-edge lags (of the edge's
    /// dependence vector, as in [`Self::validate_times`]): the longest
    /// chain, counting each node once plus edge lags. This is the minimum
    /// schedule length any time assignment can achieve.
    ///
    /// # Panics
    /// Panics if the graph has a cycle (a tile graph of a legal tiling
    /// has none; [`Self::topological_order`] checks).
    #[allow(clippy::expect_used)] // LINT: the documented precondition above
    pub fn critical_path<L>(&self, lag: L) -> i64
    where
        L: Fn(&[i64]) -> i64,
    {
        let order = self
            .topological_order()
            .expect("critical path of cyclic graph");
        let mut dist = vec![0i64; self.len()];
        let mut best = 0;
        for &v in order.iter() {
            for &p in &self.preds[v] {
                let l = lag(&edge(&self.nodes[p], &self.nodes[v]));
                dist[v] = dist[v].max(dist[p] + l);
            }
            best = best.max(dist[v]);
        }
        best + 1
    }
}

/// The dependence vector `v − u` of the edge `u → v`.
fn edge(u: &Point, v: &Point) -> Vec<i64> {
    v.iter().zip(u).map(|(&a, &b)| a - b).collect()
}

/// A dependence edge whose endpoints are scheduled too close together.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleViolation {
    /// Producer tile.
    pub from: Point,
    /// Consumer tile.
    pub to: Point,
    /// Producer step.
    pub t_from: i64,
    /// Consumer step.
    pub t_to: i64,
    /// Minimum allowed `t_to − t_from`.
    pub required_lag: i64,
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "edge {:?}@{} → {:?}@{} violates lag {}",
            self.from, self.t_from, self.to, self.t_to, self.required_lag
        )
    }
}

impl std::error::Error for ScheduleViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{StepStrategy, TileSchedule};

    fn grid(extents: &[i64]) -> (IterationSpace, TileGraph) {
        let space = IterationSpace::from_extents(extents);
        let deps = DependenceSet::units(extents.len());
        let g = TileGraph::build(&space, &deps);
        (space, g)
    }

    #[test]
    fn build_counts() {
        let (_, g) = grid(&[3, 4]);
        assert_eq!(g.len(), 12);
        // Interior node has 2 preds; origin has 0.
        let origin = g.node(&vec![0, 0]).unwrap();
        assert!(g.preds(origin).is_empty());
        let interior = g.node(&vec![1, 1]).unwrap();
        assert_eq!(g.preds(interior).len(), 2);
    }

    #[test]
    fn topological_order_valid() {
        let (_, g) = grid(&[3, 3, 3]);
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), 27);
        let pos: HashMap<usize, usize> = order.iter().enumerate().map(|(p, &n)| (n, p)).collect();
        for v in 0..g.len() {
            for &p in g.preds(v) {
                assert!(pos[&p] < pos[&v]);
            }
        }
    }

    #[test]
    fn nonoverlap_schedule_is_valid_with_unit_lag() {
        let (space, g) = grid(&[4, 5]);
        let s = TileSchedule::new(StepStrategy::Blocking, &space);
        assert_eq!(s.lag(&[0, 1]), 1);
        assert_eq!(s.lag(&[1, 0]), 1);
        g.validate_times(|t| s.time_of(t, &space), |d| s.lag(d))
            .unwrap();
    }

    #[test]
    fn overlap_schedule_is_valid_with_overlap_lag() {
        let (space, g) = grid(&[4, 4, 9]);
        let s = TileSchedule::with_mapping(StepStrategy::Overlap, 3, 2);
        g.validate_times(|t| s.time_of(t, &space), |d| s.lag(d))
            .unwrap();
    }

    #[test]
    fn nonoverlap_times_violate_overlap_lag() {
        // The Π=[1..1] schedule gives cross-processor edges Δt = 1,
        // which the overlapping execution model forbids.
        let (space, g) = grid(&[3, 6]);
        let no = TileSchedule::with_mapping(StepStrategy::Blocking, 2, 1);
        let ov = TileSchedule::with_mapping(StepStrategy::Overlap, 2, 1);
        assert!(g
            .validate_times(|t| no.time_of(t, &space), |d| ov.lag(d))
            .is_err());
    }

    #[test]
    fn critical_path_matches_nonoverlap_length() {
        // With unit lags on a grid, the critical path is exactly the
        // Π=[1…1] schedule length: Σ(extent−1)+1.
        for extents in [vec![3i64, 4], vec![2, 2, 5], vec![6, 1]] {
            let (space, g) = grid(&extents);
            let s = TileSchedule::new(StepStrategy::Blocking, &space);
            assert_eq!(
                g.critical_path(|d| s.lag(d)),
                s.schedule_length(&space),
                "extents {extents:?}"
            );
        }
    }

    #[test]
    fn critical_path_matches_overlap_length() {
        // With overlap lags, the critical path equals
        // 2·Σ_{k≠i}(e_k−1) + (e_i−1) + 1 — the overlap schedule is
        // optimal (Andronikos et al. [1]).
        for (extents, mdim) in [(vec![3i64, 7], 1usize), (vec![4, 4, 9], 2), (vec![2, 5], 1)] {
            let (space, g) = grid(&extents);
            let s = TileSchedule::with_mapping(StepStrategy::Overlap, extents.len(), mdim);
            assert_eq!(
                g.critical_path(|d| s.lag(d)),
                s.schedule_length(&space),
                "extents {extents:?}"
            );
        }
    }

    #[test]
    fn mapping_along_longest_dim_minimizes_overlap_length() {
        // [1]'s space-schedule result: the best mapping dimension is the
        // longest one. Check by exhaustion on an asymmetric grid.
        let extents = vec![3i64, 8, 2];
        let space = IterationSpace::from_extents(&extents);
        let mut lengths = Vec::new();
        for d in 0..3 {
            let s = TileSchedule::with_mapping(StepStrategy::Overlap, 3, d);
            lengths.push(s.schedule_length(&space));
        }
        let best = *lengths.iter().min().unwrap();
        assert_eq!(lengths[1], best); // dim 1 has extent 8 = longest
    }

    #[test]
    fn diagonal_deps_edges() {
        let space = IterationSpace::from_extents(&[3, 3]);
        let deps = DependenceSet::from_vectors(2, vec![vec![1, 1]]);
        let g = TileGraph::build(&space, &deps);
        let v = g.node(&vec![2, 2]).unwrap();
        assert_eq!(g.preds(v).len(), 1);
        assert_eq!(g.tile(g.preds(v)[0]), &vec![1, 1]);
        // Border nodes along the diagonal's shadow have no preds.
        let b = g.node(&vec![0, 2]).unwrap();
        assert!(g.preds(b).is_empty());
    }

    #[test]
    fn violation_reports_edge() {
        let (space, g) = grid(&[2, 2]);
        // A constant time function violates every edge.
        let err = g.validate_times(|_| 0, |_| 1).unwrap_err();
        assert_eq!(err.required_lag, 1);
        assert_eq!(err.t_from, 0);
        let _ = err.to_string();
        let _ = space;
    }
}

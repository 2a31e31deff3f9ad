//! Deterministic topology generators.
//!
//! These are used by tests, property tests, benches and examples to exercise
//! the recovery algorithms on shapes other than the embedded ATT backbone:
//! rings (sparse, long paths), grids (moderate path diversity), stars
//! (central hub, the pathological case for switch-level recovery) and Waxman
//! random geometric graphs (the standard synthetic WAN model).

use crate::geo::{arc_km, GeoPoint, EARTH_RADIUS_KM, PROPAGATION_KM_PER_MS};
use crate::graph::{Graph, NodeId};
use crate::rng::DetRng;
use crate::TopoError;

/// A ring of `n` nodes with unit edge weights.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::with_capacity(n);
    for i in 0..n {
        g.add_node(format!("r{i}"), None);
    }
    for i in 0..n {
        g.add_edge(NodeId(i), NodeId((i + 1) % n), 1.0)
            .expect("ring edges are valid");
    }
    g
}

/// A `rows × cols` grid with unit edge weights.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut g = Graph::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            g.add_node(format!("g{r}_{c}"), None);
        }
    }
    let id = |r: usize, c: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), 1.0)
                    .expect("grid edges are valid");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), 1.0)
                    .expect("grid edges are valid");
            }
        }
    }
    g
}

/// A star: node 0 is the hub, nodes `1..n` are leaves, unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 nodes");
    let mut g = Graph::with_capacity(n);
    for i in 0..n {
        g.add_node(format!("s{i}"), None);
    }
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i), 1.0)
            .expect("star edges are valid");
    }
    g
}

/// A complete graph on `n` nodes with unit weights.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "a complete graph needs at least 2 nodes");
    let mut g = Graph::with_capacity(n);
    for i in 0..n {
        g.add_node(format!("k{i}"), None);
    }
    for i in 0..n {
        for j in i + 1..n {
            g.add_edge(NodeId(i), NodeId(j), 1.0)
                .expect("complete edges are valid");
        }
    }
    g
}

/// Parameters for [`waxman`] random geometric graphs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaxmanParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Waxman α: overall edge density (0, 1].
    pub alpha: f64,
    /// Waxman β: how strongly distance suppresses edges (0, 1].
    pub beta: f64,
    /// Side of the square region (degrees of lat/lon) the nodes are placed in.
    pub region_degrees: f64,
    /// PRNG seed; the same seed always produces the same graph.
    pub seed: u64,
}

impl Default for WaxmanParams {
    fn default() -> Self {
        WaxmanParams {
            nodes: 30,
            alpha: 0.6,
            beta: 0.35,
            region_degrees: 20.0,
            seed: 42,
        }
    }
}

/// Maps a row function over `0..rows` and returns the results in row
/// order. [`waxman_with`] hands its per-row work to one: [`SerialRows`]
/// runs the rows in a loop on the calling thread, and a caller that owns a
/// worker pool runs them there. Rows are independent, so the graph is the
/// same whichever runs them.
pub trait RowMap {
    /// `(0..rows).map(f)`, collected in row order.
    fn map_rows<R, F>(&self, rows: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync;
}

/// The [`RowMap`] that runs every row in order on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRows;

impl RowMap for SerialRows {
    fn map_rows<R, F>(&self, rows: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        (0..rows).map(f).collect()
    }
}

/// Generates a connected Waxman random geometric graph.
///
/// Nodes are placed uniformly in a square region around (38° N, 96° W) —
/// roughly the continental US — edges are sampled with probability
/// `α · exp(−d / (β · L))` where `L` is the maximum node distance, and edge
/// weights are geographic propagation delays. A spanning-tree pass guarantees
/// connectivity regardless of the sampling outcome.
///
/// # Errors
///
/// Returns an error if `params.nodes < 2` or a parameter is out of range.
pub fn waxman(params: &WaxmanParams) -> Result<Graph, TopoError> {
    waxman_with(params, &SerialRows)
}

/// [`waxman`], with its two `O(n²)` row phases — the largest distance
/// from each node to the later ones, and each node's sampled edges to the
/// later ones — run through `rows`. The graph is bit-identical to
/// [`waxman`]'s for every [`RowMap`]: the same edges, weights and per-node
/// arc order.
///
/// # Draw-index contract
///
/// The generator consumes one [`DetRng`] stream, seeded with
/// `params.seed`, in a fixed order: draws `2i` and `2i + 1` place node `i`
/// (latitude, then longitude), and the pair `(i, j)`, `i < j`, owns draw
///
/// ```text
/// 2n + i(n − 1) − i(i − 1)/2 + (j − i − 1)
/// ```
///
/// — the pairs in row-major order, one draw each, whether or not the pair
/// becomes an edge. A row therefore starts its draws with one
/// [`DetRng::jump`] and depends on nothing but `i`. The pair is an edge
/// when its draw `u` satisfies `u < α · exp(−d / (β · L))`, `d` computed
/// exactly as [`GeoPoint::haversine_km`] does.
///
/// Most pairs never need that distance. Trigonometry-free bounds on the
/// Haversine term skip, in the maximum pass, every pair that cannot beat
/// the row's running maximum and, in the sampling pass, every pair so far
/// apart that its probability is below a small floor its draw exceeds.
/// Both bounds carry a margin far above their rounding error, so a skipped
/// pair is one the exact test would have rejected.
///
/// # Errors
///
/// Returns an error if `params.nodes < 2` or a parameter is out of range.
pub fn waxman_with(params: &WaxmanParams, rows: &impl RowMap) -> Result<Graph, TopoError> {
    if params.nodes < 2 {
        return Err(TopoError::Parse {
            line: 0,
            message: "waxman: need at least 2 nodes".into(),
        });
    }
    if !(0.0..=1.0).contains(&params.alpha)
        || !(0.0..=1.0).contains(&params.beta)
        || params.alpha == 0.0
        || params.beta == 0.0
        || params.region_degrees.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err(TopoError::Parse {
            line: 0,
            message: "waxman: parameters out of range".into(),
        });
    }
    let n = params.nodes;
    let mut rng = DetRng::seed_from_u64(params.seed);
    let mut g = Graph::with_capacity(n);
    let half = params.region_degrees / 2.0;
    // Each position with its cos(latitude), so a pair costs no extra cosine.
    let mut sites = Vec::with_capacity(n);
    for i in 0..n {
        let lat = 38.0 + rng.gen_range(-half, half) * 0.5; // squash latitude a bit
        let lon = -96.0 + rng.gen_range(-half, half);
        let p = GeoPoint::new(lat, lon);
        sites.push((p, lat.to_radians().cos()));
        g.add_node(format!("w{i}"), Some(p));
    }
    let a = |i: usize, j: usize| {
        let ((p, cos_p), (q, cos_q)) = (&sites[i], &sites[j]);
        p.haversine_a(*cos_p, q, *cos_q)
    };
    let bounds = |i: usize, j: usize| {
        let ((p, cos_p), (q, cos_q)) = (&sites[i], &sites[j]);
        p.haversine_a_bounds(*cos_p, q, *cos_q)
    };
    // Maximum pairwise distance for the Waxman probability scale, taken
    // over the Haversine term and converted once: `arc_km` is monotone.
    // A two-sweep farthest pair seeds every row's running maximum, so a
    // pair whose upper bound falls short of it needs no trigonometry.
    let farthest = |i: usize| {
        (0..n)
            .filter(|&j| j != i)
            .map(|j| (a(i.min(j), i.max(j)), j))
            .fold((0.0, i), |best, x| if x.0 > best.0 { x } else { best })
    };
    let start_max = farthest(farthest(0).1).0;
    let row_max = rows.map_rows(n, |i| {
        (i + 1..n).fold(start_max, |best: f64, j| {
            if bounds(i, j).1 < best {
                best
            } else {
                best.max(a(i, j))
            }
        })
    });
    let max_d = arc_km(row_max.into_iter().fold(start_max, f64::max));
    let scale = params.beta * max_d;
    // Beyond `far = β·L·ln(α / P_FLOOR)` a pair's probability is below
    // `P_FLOOR`, so a draw of at least `P_FLOOR` rules it out once the
    // pair's lower bound reaches `a_far`, the Haversine term of `far`
    // widened by a relative margin that dwarfs the rounding of `p`. Below
    // 1.5 rad the half angle is short of π/2, where sin² stops growing;
    // past it, or with α under twice the floor, every pair takes the
    // exact path.
    const P_FLOOR: f64 = 1.0 / 256.0;
    let half_angle = scale * (params.alpha / P_FLOOR).ln() * (1.0 + 1e-6) / (2.0 * EARTH_RADIUS_KM);
    let a_far = if params.alpha >= 2.0 * P_FLOOR && half_angle > 0.0 && half_angle < 1.5 {
        half_angle.sin().powi(2)
    } else {
        f64::INFINITY
    };
    let sampled = rows.map_rows(n, |i| {
        let mut rng = DetRng::seed_from_u64(params.seed);
        rng.jump(first_pair_draw(n, i));
        let mut picks = Vec::new();
        for j in i + 1..n {
            let u = rng.unit_f64();
            // Far pairs first: nearly every pair is one, which keeps the
            // branch predictable.
            if u >= P_FLOOR && bounds(i, j).0 >= a_far {
                continue;
            }
            let d = arc_km(a(i, j));
            let p = params.alpha * (-d / scale).exp();
            if u < p.clamp(0.0, 1.0) {
                picks.push((NodeId(i), NodeId(j), d / PROPAGATION_KM_PER_MS));
            }
        }
        picks
    });
    g.add_edges(sampled.into_iter().flatten())?;
    // Guarantee connectivity: link each unreached component to the previous
    // node. Once node `i` has been processed it reaches node 0, so linking a
    // later component to `i` always merges it into node 0's component; the
    // incremental flood keeps the whole pass O(n + m).
    let mut reached = vec![false; n];
    flood_from(&g, NodeId(0), &mut reached);
    for i in 1..n {
        if !reached[i] {
            g.add_geo_edge(NodeId(i), NodeId(i - 1))?;
            flood_from(&g, NodeId(i), &mut reached);
        }
    }
    debug_assert!(g.is_connected());
    Ok(g)
}

/// The index of pair `(i, i + 1)`'s draw in the [`waxman_with`] stream:
/// `2n` placement draws, then `n − 1 − r` draws for each earlier row `r`.
fn first_pair_draw(n: usize, i: usize) -> u64 {
    let (n, i) = (n as u64, i as u64);
    2 * n + i * (2 * n - i - 1) / 2
}

fn flood_from(g: &Graph, from: NodeId, reached: &mut [bool]) {
    let mut stack = vec![from];
    reached[from.0] = true;
    while let Some(v) = stack.pop() {
        for u in g.neighbors(v) {
            if !reached[u.0] {
                reached[u.0] = true;
                stack.push(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_shape() {
        let g = ring(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small() {
        let _ = ring(2);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17.
        assert_eq!(g.edge_count(), 17);
        assert!(g.is_connected());
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert!((1..5).all(|i| g.degree(NodeId(i)) == 1));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn waxman_deterministic_and_connected() {
        let p = WaxmanParams {
            nodes: 25,
            seed: 7,
            ..Default::default()
        };
        let g1 = waxman(&p).unwrap();
        let g2 = waxman(&p).unwrap();
        assert_eq!(g1, g2, "same seed must reproduce the same graph");
        assert!(g1.is_connected());
        assert_eq!(g1.node_count(), 25);
    }

    #[test]
    fn waxman_seed_changes_graph() {
        let a = waxman(&WaxmanParams {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let b = waxman(&WaxmanParams {
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn waxman_rejects_bad_params() {
        assert!(waxman(&WaxmanParams {
            nodes: 1,
            ..Default::default()
        })
        .is_err());
        assert!(waxman(&WaxmanParams {
            alpha: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(waxman(&WaxmanParams {
            beta: 2.0,
            ..Default::default()
        })
        .is_err());
    }

    /// Seed determinism at the storage level: two builds must produce the
    /// same dense adjacency arcs node by node, not merely compare equal as
    /// graphs.
    #[test]
    fn generators_reproduce_identical_adjacency_arcs() {
        let same_arcs = |a: &Graph, b: &Graph| {
            assert_eq!(a.node_count(), b.node_count());
            for v in a.nodes() {
                assert_eq!(a.adjacency(v), b.adjacency(v), "arcs differ at {v:?}");
            }
        };
        for &(nodes, seed) in &[(10usize, 0u64), (10, 3), (40, 9), (64, 1234)] {
            let p = WaxmanParams {
                nodes,
                seed,
                ..Default::default()
            };
            same_arcs(&waxman(&p).unwrap(), &waxman(&p).unwrap());
        }
        same_arcs(&ring(12), &ring(12));
        same_arcs(&grid(4, 5), &grid(4, 5));
    }

    /// Connectivity post-condition: the spanning pass must repair even
    /// regimes where sampling alone leaves many components (tiny β) and
    /// degenerate sizes.
    #[test]
    fn waxman_stays_connected_across_sparse_regimes() {
        for &nodes in &[2usize, 5, 30, 120] {
            for seed in 0..8u64 {
                let g = waxman(&WaxmanParams {
                    nodes,
                    alpha: 0.2,
                    beta: 0.05,
                    seed,
                    ..Default::default()
                })
                .unwrap();
                assert_eq!(g.node_count(), nodes);
                assert!(g.is_connected(), "nodes={nodes} seed={seed}");
            }
        }
    }

    #[test]
    fn waxman_rejects_each_bad_parameter() {
        let bad = [
            WaxmanParams {
                nodes: 0,
                ..Default::default()
            },
            WaxmanParams {
                alpha: 1.5,
                ..Default::default()
            },
            WaxmanParams {
                beta: 0.0,
                ..Default::default()
            },
            WaxmanParams {
                region_degrees: 0.0,
                ..Default::default()
            },
            WaxmanParams {
                region_degrees: f64::NAN,
                ..Default::default()
            },
        ];
        for p in &bad {
            assert!(waxman(p).is_err(), "accepted {p:?}");
        }
        // The inclusive upper bounds are legal.
        assert!(waxman(&WaxmanParams {
            alpha: 1.0,
            beta: 1.0,
            nodes: 6,
            ..Default::default()
        })
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn grid_rejects_zero_dimension() {
        let _ = grid(0, 3);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn star_rejects_single_node() {
        let _ = star(1);
    }

    #[test]
    fn degenerate_grid_is_a_path() {
        let g = grid(1, 5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
    }

    /// FNV-1a over every edge `(a, b, weight bits)` in edge-id order, then
    /// every node's arcs `(neighbor, edge id)` in row order: equal digests
    /// mean the same edges, weights and per-node arc order.
    fn digest(g: &Graph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in g.edges() {
            eat(e.a.0 as u64);
            eat(e.b.0 as u64);
            eat(e.weight.to_bits());
        }
        for v in g.nodes() {
            for &(u, e) in g.adjacency(v) {
                eat(u.0 as u64);
                eat(e.0 as u64);
            }
        }
        h
    }

    /// Golden pins recorded from the original serial generator (one
    /// haversine per pair, one draw per pair in row-major order): any
    /// change to the draw order or the distance arithmetic shows up here,
    /// which a generator-against-itself comparison cannot catch.
    #[test]
    fn waxman_matches_golden_digests() {
        // β = pm_bench::wan::scale_beta(2000), the scale drills' setting.
        let scale = WaxmanParams {
            nodes: 2000,
            beta: (0.2 * (29.0 / 1999.0f64).sqrt()).min(0.35),
            seed: 42,
            ..Default::default()
        };
        let g = waxman(&scale).unwrap();
        assert_eq!((g.edge_count(), digest(&g)), (8271, 0x281e_6a7d_9812_a3cc));
        let pins: [(usize, u64); 5] = [
            (87, 0xa97f_65d8_4f50_7f74),
            (103, 0x9c17_0df6_6324_08f5),
            (90, 0x584b_a56c_3f73_52ea),
            (106, 0x7f31_2310_81cd_134b),
            (91, 0xd1ba_e7ae_e054_161f),
        ];
        for (seed, pin) in (0u64..).zip(pins) {
            let g = waxman(&WaxmanParams {
                seed,
                ..Default::default()
            })
            .unwrap();
            assert_eq!((g.edge_count(), digest(&g)), pin, "seed {seed}");
        }
    }

    /// The original generator, verbatim: one `haversine_km` per pair in
    /// both passes and one serial draw per pair, edge by edge.
    fn reference_waxman(params: &WaxmanParams) -> Graph {
        let mut rng = DetRng::seed_from_u64(params.seed);
        let mut g = Graph::with_capacity(params.nodes);
        let half = params.region_degrees / 2.0;
        let mut positions = Vec::with_capacity(params.nodes);
        for i in 0..params.nodes {
            let lat = 38.0 + rng.gen_range(-half, half) * 0.5;
            let lon = -96.0 + rng.gen_range(-half, half);
            let p = GeoPoint::new(lat, lon);
            positions.push(p);
            g.add_node(format!("w{i}"), Some(p));
        }
        let mut max_d: f64 = 0.0;
        for i in 0..params.nodes {
            for j in i + 1..params.nodes {
                max_d = max_d.max(positions[i].haversine_km(&positions[j]));
            }
        }
        for i in 0..params.nodes {
            for j in i + 1..params.nodes {
                let d = positions[i].haversine_km(&positions[j]);
                let p = params.alpha * (-d / (params.beta * max_d)).exp();
                if rng.gen_bool(p) {
                    g.add_geo_edge(NodeId(i), NodeId(j)).unwrap();
                }
            }
        }
        let mut reached = vec![false; params.nodes];
        flood_from(&g, NodeId(0), &mut reached);
        for i in 1..params.nodes {
            if !reached[i] {
                g.add_geo_edge(NodeId(i), NodeId(i - 1)).unwrap();
                flood_from(&g, NodeId(i), &mut reached);
            }
        }
        g
    }

    /// The bounded, row-indexed generator decides every pair as the
    /// original does, across the regimes that switch its shortcuts on and
    /// off: α below twice the probability floor, β tiny to 1, regions from
    /// a few meters to latitudes past the pole (negative cosines).
    #[test]
    fn waxman_matches_reference_generator() {
        let cases = [
            (2usize, 0.6, 0.35, 20.0),
            (3, 1.0, 1.0, 20.0),
            (250, 0.6, 0.02, 20.0),
            (250, 0.004, 0.35, 20.0),
            (250, 0.01, 0.05, 20.0),
            (250, 1.0, 0.003, 20.0),
            (250, 0.6, 0.05, 1e-5),
            (250, 0.6, 0.05, 170.0),
            (250, 0.9, 0.05, 400.0),
            (600, 0.6, 0.0545, 20.0),
        ];
        for (nodes, alpha, beta, region_degrees) in cases {
            for seed in [1u64, 42] {
                let p = WaxmanParams {
                    nodes,
                    alpha,
                    beta,
                    region_degrees,
                    seed,
                };
                let (got, want) = (waxman(&p).unwrap(), reference_waxman(&p));
                assert_eq!(digest(&got), digest(&want), "{p:?}");
            }
        }
    }

    #[test]
    fn waxman_edges_have_geo_weights() {
        let g = waxman(&WaxmanParams::default()).unwrap();
        for e in g.edges() {
            let pa = g.node(e.a).position.unwrap();
            let pb = g.node(e.b).position.unwrap();
            assert!((e.weight - pa.propagation_delay_ms(&pb)).abs() < 1e-9);
        }
    }
}

//! Property-based tests of the donor search and interpolation machinery.

use overset_connectivity::donor::center_start;
use overset_connectivity::{interpolate, walk_search, SearchCost, SearchOutcome};
use overset_grid::curvilinear::{CurvilinearGrid, GridKind};
use overset_grid::field::Field3;
use overset_grid::{Dims, Ijk};
use overset_solver::{Block, FlowConditions};
use proptest::prelude::*;

fn fc() -> FlowConditions {
    FlowConditions::new(0.8, 0.0, 0.0)
}

/// A smoothly distorted curvilinear block for search tests.
fn wavy_block(n: usize, amp: f64) -> Block {
    let d = Dims::new(n, n, n);
    let coords = Field3::from_fn(d, |p| {
        let (x, y, z) = (p.i as f64, p.j as f64, p.k as f64);
        [
            x + amp * (0.7 * y + 0.3 * z).sin(),
            y + amp * (0.5 * x + 0.4 * z).cos() - amp,
            z + amp * (0.3 * x + 0.6 * y).sin(),
        ]
    });
    let g = CurvilinearGrid::new("wavy", coords, GridKind::Background);
    Block::from_grid(0, &g, d.full_box(), [None; 6], &fc())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any point synthesized *inside* a known cell is found, and the found
    /// cell reproduces the point through the forward trilinear map.
    #[test]
    fn walk_finds_synthesized_interior_points(
        ci in 1usize..8, cj in 1usize..8, ck in 1usize..8,
        ti in 0.05f64..0.95, tj in 0.05f64..0.95, tk in 0.05f64..0.95,
        si in 0usize..9, sj in 0usize..9, sk in 0usize..9,
        amp in 0.0f64..0.25,
    ) {
        let b = wavy_block(10, amp);
        // Forward-map a point inside cell (ci, cj, ck).
        let cell = b.to_local(Ijk::new(ci, cj, ck));
        let target = cell_point(&b, cell, [ti, tj, tk]);
        let start = b.to_local(Ijk::new(si, sj, sk));
        let mut cost = SearchCost::default();
        match walk_search(&b, target, start, &mut cost) {
            SearchOutcome::Found(d) => {
                // Verify by interpolating the coordinates themselves.
                let mut bb = wavy_block(10, amp);
                for p in bb.local_dims.iter().collect::<Vec<_>>() {
                    let c = bb.coords[p];
                    bb.q.set_node(p, [c[0], c[1], c[2], 0.0, 0.0]);
                }
                let q = interpolate(&bb, &d);
                for m in 0..3 {
                    prop_assert!(
                        (q[m] - target[m]).abs() < 1e-6,
                        "coordinate interp mismatch: {:?} vs {:?}",
                        q, target
                    );
                }
            }
            o => prop_assert!(false, "interior point not found: {o:?} (cost {cost:?})"),
        }
    }

    /// Points far outside the grid never produce a donor.
    #[test]
    fn outside_points_never_found(
        dx in 20.0f64..100.0,
        dir in 0usize..6,
        amp in 0.0f64..0.2,
    ) {
        let b = wavy_block(8, amp);
        let mut target = [3.5f64; 3];
        target[dir / 2] += if dir % 2 == 0 { dx } else { -dx };
        let mut cost = SearchCost::default();
        let out = walk_search(&b, target, center_start(&b), &mut cost);
        prop_assert!(!matches!(out, SearchOutcome::Found(_)), "found {out:?}");
    }

    /// Interpolation is exact for linear fields regardless of the donor
    /// location (the fundamental Chimera accuracy property).
    #[test]
    fn interpolation_exact_on_linear_fields(
        a in -2.0f64..2.0, bcoef in -2.0f64..2.0, c in -2.0f64..2.0, d0 in -2.0f64..2.0,
        px in 1.2f64..5.8, py in 1.2f64..5.8, pz in 1.2f64..5.8,
    ) {
        let mut b = wavy_block(8, 0.1);
        for p in b.local_dims.iter().collect::<Vec<_>>() {
            let x = b.coords[p];
            let f = a * x[0] + bcoef * x[1] + c * x[2] + d0;
            b.q.set_node(p, [f, 2.0 * f, -f, 0.5 * f, f + 1.0]);
        }
        let target = [px, py, pz];
        let mut cost = SearchCost::default();
        if let SearchOutcome::Found(dn) = walk_search(&b, target, center_start(&b), &mut cost) {
            let q = interpolate(&b, &dn);
            let expect = a * px + bcoef * py + c * pz + d0;
            prop_assert!((q[0] - expect).abs() < 1e-8, "{} vs {}", q[0], expect);
            prop_assert!((q[1] - 2.0 * expect).abs() < 1e-8);
        }
    }

    /// Search cost accounting is always positive and bounded.
    #[test]
    fn search_costs_bounded(
        px in 0.5f64..6.5, py in 0.5f64..6.5, pz in 0.5f64..6.5,
    ) {
        let b = wavy_block(8, 0.15);
        let mut cost = SearchCost::default();
        let _ = walk_search(&b, [px, py, pz], center_start(&b), &mut cost);
        prop_assert!(cost.walk_steps >= 1);
        prop_assert!(cost.flops() >= cost.walk_steps * 60);
        // Greedy fallback budget bounds the total walk.
        prop_assert!(cost.walk_steps < 500, "runaway walk: {}", cost.walk_steps);
    }
}

// ---- The fine occupancy mask is conservative --------------------------------

use overset_balance::{fit_np_to_dims_min, static_balance, Partition};
use overset_connectivity::donor::walk_search_relaxed;
use overset_connectivity::InverseMap;
use overset_grid::curvilinear::CurvilinearGrid as Grid;
use overset_grid::gen::{airfoil, store};
use overset_grid::RigidTransform;
use overset_solver::Blank;
use std::sync::OnceLock;

/// How to build one block of a paper system, and its inverse map at the
/// build pose (`Block` is not `Clone`; every case moves and blanks its own).
struct Recipe {
    grid: usize,
    owned: overset_grid::IndexBox,
    nbrs: [Option<usize>; 6],
    map: InverseMap,
}

/// The grids and one recipe per block — every grid whole, then the same
/// grids cut over `nranks` by the static balancer (halo layers, periodic
/// seams split across ranks): the blocks both drivers build maps for.
fn system(grids: Vec<Grid>, nranks: usize) -> (Vec<Grid>, Vec<Recipe>) {
    let sizes: Vec<usize> = grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = grids.iter().map(|g| g.dims()).collect();
    let min_widths: Vec<[usize; 3]> =
        grids.iter().map(|g| if g.periodic_i { [2, 1, 1] } else { [1, 1, 1] }).collect();
    let balanced = static_balance(&sizes, nranks).unwrap();
    let cut = fit_np_to_dims_min(&sizes, &dims, &balanced.np, &min_widths).unwrap();
    let mut recipes = Vec::new();
    for np in [vec![1; grids.len()], cut] {
        let part = Partition::build(&dims, &np);
        for (rank, a) in part.ranks.iter().enumerate() {
            let g = &grids[a.grid];
            let nbrs = part.neighbors_of(rank, g.periodic_i);
            let map = InverseMap::build(&Block::from_grid(a.grid, g, a.boxx, nbrs, &fc()));
            recipes.push(Recipe { grid: a.grid, owned: a.boxx, nbrs, map });
        }
    }
    (grids, recipes)
}

/// `airfoil_system(0.5)` (an O-grid about the airfoil) and `store_system(0.3)`
/// (revolution shells with polar caps), whole and partitioned.
fn systems() -> &'static [(Vec<Grid>, Vec<Recipe>)] {
    static SYSTEMS: OnceLock<[(Vec<Grid>, Vec<Recipe>); 2]> = OnceLock::new();
    SYSTEMS.get_or_init(|| {
        [system(airfoil::airfoil_system(0.5), 6), system(store::store_system(0.3), 18)]
    })
}

/// Block `pick` (modulo their number) of the two systems, with its map.
fn mapped_block(pick: usize) -> (Block, InverseMap) {
    let systems = systems();
    let total: usize = systems.iter().map(|(_, r)| r.len()).sum();
    let mut n = pick % total;
    for (grids, recipes) in systems {
        if let Some(r) = recipes.get(n) {
            let block = Block::from_grid(r.grid, &grids[r.grid], r.owned, r.nbrs, &fc());
            return (block, r.map.clone());
        }
        n -= recipes.len();
    }
    unreachable!()
}

/// Draws in [0, 1) and below `n` from the runner's own generator.
struct Draw(proptest::test_runner::Rng);

impl Draw {
    fn unit(&mut self) -> f64 {
        self.0.next_f64()
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// The trilinear image of `t` in the cell anchored at `cell`.
fn cell_point(b: &Block, cell: Ijk, t: [f64; 3]) -> [f64; 3] {
    let mut x = [0.0f64; 3];
    for dk in 0..if b.two_d { 1 } else { 2 } {
        for dj in 0..2 {
            for di in 0..2 {
                let w = (if di == 0 { 1.0 - t[0] } else { t[0] })
                    * (if dj == 0 { 1.0 - t[1] } else { t[1] })
                    * (if b.two_d {
                        1.0
                    } else if dk == 0 {
                        1.0 - t[2]
                    } else {
                        t[2]
                    });
                let c = b.coords[Ijk::new(cell.i + di, cell.j + dj, cell.k + dk)];
                for m in 0..3 {
                    x[m] += w * c[m];
                }
            }
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever a map-less walk finds — strictly or relaxed, in a cell
    /// interior, on a face, in a polar-cap sliver, beside blanked nodes —
    /// the block's fine occupancy mask admits, at the build pose and after
    /// the map has followed the block through random small rigid motions up
    /// to the incremental threshold.
    #[test]
    fn every_findable_point_is_admitted(
        pick in 0usize..1 << 20,
        moves in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (mut block, mut map) = mapped_block(pick);
        let mut draw = Draw(proptest::test_runner::Rng::new(seed));
        let ow = block.owned_local();
        for _ in 0..moves {
            let mut v = || 2.0 * draw.unit() - 1.0;
            let axis = [v(), v(), if block.two_d { 0.0 } else { v() }];
            let axis = if block.two_d { [0.0, 0.0, 1.0] } else { axis };
            let pivot = map.world_bounds().center();
            let t = RigidTransform::rotation_about(pivot, axis, f64::to_radians(0.8 * v()))
                .then(&RigidTransform::translation([0.05 * v(), 0.05 * v(), 0.0]));
            if !map.advance(&t) {
                break;
            }
            block.apply_motion(&t, 0.01);
        }
        // A blanked node, so that some cells are donors only when relaxed.
        let hole = Ijk::new(
            ow.lo.i + draw.below(ow.hi.i - ow.lo.i),
            ow.lo.j + draw.below(ow.hi.j - ow.lo.j),
            ow.lo.k + draw.below(ow.hi.k - ow.lo.k),
        );
        block.iblank[hole] = Blank::Hole;

        let cells = |lo: usize, hi: usize, n: usize| (hi.min(n - 1)).saturating_sub(lo).max(1);
        let d = block.local_dims;
        let (ci, cj, ck) =
            (cells(ow.lo.i, ow.hi.i, d.ni), cells(ow.lo.j, ow.hi.j, d.nj), cells(ow.lo.k, ow.hi.k, d.nk));
        let bb = map.world_bounds();
        let mut found = 0usize;
        for n in 0..48 {
            let p = if n % 4 == 3 {
                // Anywhere in the routing box: hollows, corners, gaps.
                let e = bb.extent();
                [bb.min[0] + e[0] * draw.unit(), bb.min[1] + e[1] * draw.unit(), bb.min[2] + e[2] * draw.unit()]
            } else {
                // In, on the faces of, or just outside an owned cell; every
                // third one in the polar-cap rings or beside the hole.
                let mut cell = Ijk::new(
                    ow.lo.i + draw.below(ci),
                    ow.lo.j + draw.below(cj),
                    if block.two_d { 0 } else { ow.lo.k + draw.below(ck) },
                );
                if n % 4 == 1 && !block.two_d {
                    cell.k = ow.lo.k + [0, 1, ck - 1, ck.saturating_sub(2)][draw.below(4)].min(ck - 1);
                }
                if n % 4 == 2 {
                    cell = Ijk::new(
                        hole.i.clamp(ow.lo.i, ow.lo.i + ci - 1),
                        hole.j.clamp(ow.lo.j, ow.lo.j + cj - 1),
                        if block.two_d { 0 } else { hole.k.clamp(ow.lo.k, ow.lo.k + ck - 1) },
                    );
                }
                let mut t = || match draw.below(5) {
                    0 => 0.0,
                    1 => 1.0,
                    2 => -1e-10 + draw.unit() * 2e-10,
                    _ => -0.05 + 1.1 * draw.unit(),
                };
                let t = [t(), t(), if block.two_d { 0.0 } else { t() }];
                cell_point(&block, cell, t)
            };
            for relaxed in [false, true] {
                let mut cost = SearchCost::default();
                let out = if relaxed {
                    walk_search_relaxed(&block, p, center_start(&block), &mut cost)
                } else {
                    walk_search(&block, p, center_start(&block), &mut cost)
                };
                if matches!(out, SearchOutcome::Found(_)) {
                    found += 1;
                    prop_assert!(
                        map.admits(p),
                        "grid {} block {:?}: mask rejects {:?}, found by the {} walk as {:?}",
                        block.grid_id, block.owned, p, if relaxed { "relaxed" } else { "strict" }, out
                    );
                }
            }
        }
        prop_assert!(found > 0, "no sampled point of grid {} was found", block.grid_id);
    }
}

/// What the mask is for: the hollow of an O-grid is inside the grid's box
/// and holds no cell.
#[test]
fn mask_rejects_the_hollow_of_an_ogrid() {
    // Whole-grid blocks come first: the airfoil's O-grid, then (after the
    // airfoil system's 3 + 6 blocks) the store's fore-body shell.
    let (airfoil_ogrid, fore_body) = (mapped_block(0), mapped_block(9 + 1));
    for ((block, map), hollow) in [
        // Mid-chord, inside the airfoil.
        (&airfoil_ogrid, [0.5, 0.0, 0.0]),
        // On the store axis, at the carriage position.
        (
            &fore_body,
            [store::STORE_CARRIAGE[0] + 1.0, store::STORE_CARRIAGE[1], store::STORE_CARRIAGE[2]],
        ),
    ] {
        assert!(block.self_wrap_i, "grid {} is no O-grid", block.grid_id);
        assert!(map.world_bounds().contains(hollow));
        assert!(!map.admits(hollow), "grid {}: hollow admitted", block.grid_id);
        let mut cost = SearchCost::default();
        let out = walk_search_relaxed(block, hollow, center_start(block), &mut cost);
        assert!(!matches!(out, SearchOutcome::Found(_)), "{out:?}");
        // The chain the mask saves.
        assert!(cost.walk_steps > 10, "a miss in the hollow walked {} steps", cost.walk_steps);
    }
}

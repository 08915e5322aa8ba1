//! The parallel adaptive overset scheme (Section 5): near-body curvilinear
//! grid + off-body adaptive Cartesian bricks, executed with the entirely
//! coarse-grain group strategy of Algorithm 3.
//!
//! Groups of bricks are assigned to "nodes" (here: scoped threads — the
//! paper's intra-group shared-memory level); connectivity among Cartesian
//! bricks is O(1) index arithmetic; only near-body ↔ off-body transfers use
//! the traditional donor search.

use crate::adapt::{adapt_cycle, AdaptStats};
use crate::connect::{build_adjacency, locate_any, FLOPS_PER_LOCATE};
use crate::offbody::{generate, level_histogram, Brick, OffBodyConfig};
use overset_balance::{group_grids, Grouping};
use overset_connectivity::donor::center_start;
use overset_connectivity::{
    cut_holes_and_find_fringe, interpolate, walk_search, weights, ConnArena, Donor, Igbp,
    SearchCost, SearchOutcome,
};
use overset_grid::curvilinear::{BcKind, BoundaryPatch, CurvilinearGrid, Face, Solid};
use overset_grid::field::{StateField, NVAR};
use overset_grid::gen::revolution::ellipsoid_shell;
use overset_grid::transform::RigidTransform;
use overset_grid::{Aabb, Ijk};
use overset_solver::{step_block, Block, FlowConditions, Scratch, SerialComm};

/// Configuration of the adaptive scheme demo (an X-38-like blunt body).
#[derive(Clone, Debug)]
pub struct SchemeConfig {
    pub offbody: OffBodyConfig,
    pub fc: FlowConditions,
    /// Body ellipsoid semi-axes.
    pub body_radii: [f64; 3],
    /// Number of processor groups (Algorithm 3).
    pub ngroups: usize,
    /// Pressure-gradient refinement threshold for the error indicator.
    pub error_threshold: f64,
}

impl SchemeConfig {
    pub fn x38_like(ngroups: usize) -> SchemeConfig {
        SchemeConfig {
            offbody: OffBodyConfig {
                domain: Aabb::new([-8.0, -6.0, -6.0], [10.0, 6.0, 6.0]),
                bricks_per_axis: [4, 3, 3],
                cells_per_edge: 6,
                max_level: 3,
            },
            fc: {
                let mut fc = FlowConditions::new(0.8, 4.0, 0.0);
                fc.dt = 0.02;
                fc
            },
            body_radii: [1.6, 1.0, 0.55],
            ngroups: 4,
            error_threshold: 0.02,
        }
        .with_groups(ngroups)
    }

    fn with_groups(mut self, ngroups: usize) -> Self {
        self.ngroups = ngroups.max(1);
        self
    }
}

/// The running adaptive system.
pub struct AdaptiveScheme {
    pub cfg: SchemeConfig,
    pub body_center: [f64; 3],
    pub body_solid: Solid,
    pub near: Block,
    near_scratch: Scratch,
    pub bricks: Vec<Brick>,
    pub blocks: Vec<Block>,
    /// One flow workspace per processor group, shared by its bricks.
    scratches: Vec<Scratch>,
    pub grouping: Grouping,
    /// O(1) Cartesian locates performed in the last connectivity pass.
    pub cartesian_locates: u64,
    /// Traditional donor searches in the last pass (near-body donors).
    pub curvilinear_searches: u64,
    /// Steps taken, for naming the step that leaves a node non-physical.
    steps: usize,
}

impl AdaptiveScheme {
    pub fn new(cfg: SchemeConfig) -> AdaptiveScheme {
        let body_center = [0.0; 3];
        let near_grid = near_body_grid(&cfg, body_center);
        let body_solid = Solid::Ellipsoid {
            center: body_center,
            radii: [cfg.body_radii[0] * 0.93, cfg.body_radii[1] * 0.93, cfg.body_radii[2] * 0.93],
        };
        let near = Block::from_grid(0, &near_grid, near_grid.dims().full_box(), [None; 6], &cfg.fc);
        let near_scratch = Scratch::default();

        let bricks = generate(
            &cfg.offbody,
            &crate::offbody::proximity_oracle(
                vec![near_bbox(&cfg, body_center)],
                cfg.offbody.max_level,
            ),
        );
        let blocks = build_brick_blocks(&cfg, &bricks, None);
        let grouping = regroup(&cfg, &bricks);
        let scratches = grouping.members.iter().map(|_| Scratch::default()).collect();
        AdaptiveScheme {
            cfg,
            body_center,
            body_solid,
            near,
            near_scratch,
            bricks,
            blocks,
            scratches,
            grouping,
            cartesian_locates: 0,
            curvilinear_searches: 0,
            steps: 0,
        }
    }

    /// Advance one step: group-parallel flow solve, then connectivity.
    /// Panics at the first node the solve leaves non-physical, naming the
    /// step, the grid (0 for the near body, `b + 1` for brick `b`) and the
    /// node.
    pub fn step(&mut self) {
        let (fc, step) = (self.cfg.fc, self.steps);
        self.steps += 1;
        // Near-body solve (its own processor group in the full scheme).
        step_block(&mut self.near, &fc, None, &mut SerialComm, &mut self.near_scratch)
            .assert_physical(step, 0);

        // Off-body: one thread per group (the paper's coarse-grain
        // level); blocks within a group run one after the other on that
        // node, through the group's workspace.
        let mut per_group: Vec<Vec<&mut Block>> =
            self.grouping.members.iter().map(|_| Vec::new()).collect();
        for (block, &g) in self.blocks.iter_mut().zip(&self.grouping.group_of_grid) {
            per_group[g].push(block);
        }
        std::thread::scope(|s| {
            let mut runs = Vec::new();
            for (group, scratch) in per_group.into_iter().zip(self.scratches.iter_mut()) {
                runs.push(s.spawn(move || {
                    for block in group {
                        step_block(block, &fc, None, &mut SerialComm, scratch)
                            .assert_physical(step, block.grid_id);
                    }
                }));
            }
            // The first failing group's own panic, message and all.
            runs.into_iter()
                .for_each(|r| r.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        });

        self.connectivity();
    }

    /// Re-establish connectivity: brick↔brick via O(1) locates, brick↔body
    /// and near-body outer boundary via the traditional machinery.
    pub fn connectivity(&mut self) {
        self.cartesian_locates = 0;
        self.curvilinear_searches = 0;
        let solids = vec![(usize::MAX, self.body_solid)];
        let mut arena = ConnArena::new();

        // Gather fringe lists per brick block.
        let mut fringes: Vec<Vec<Igbp>> = Vec::with_capacity(self.blocks.len());
        for b in self.blocks.iter_mut() {
            let mut igbps = Vec::new();
            cut_holes_and_find_fringe(b, &solids, None, &mut arena, &mut igbps);
            fringes.push(igbps);
        }

        // Resolve brick fringe values.
        let mut updates: Vec<(usize, Ijk, [f64; NVAR])> = Vec::new();
        for (bi, igbps) in fringes.iter().enumerate() {
            for ig in igbps {
                let xyz = ig.xyz(&self.blocks[bi]);
                // Prefer the near-body grid for points it covers (finer
                // resolution near the body), else the finest other brick.
                let mut resolved = None;
                if near_bbox(&self.cfg, self.body_center).contains(xyz) {
                    let mut cost = SearchCost::default();
                    if let SearchOutcome::Found(d) =
                        walk_search(&self.near, xyz, center_start(&self.near), &mut cost)
                    {
                        resolved = Some(interpolate(&self.near, &d));
                    }
                    self.curvilinear_searches += 1;
                }
                if resolved.is_none() {
                    self.cartesian_locates += 1;
                    if let Some(d) = locate_any(&self.bricks, xyz, Some(bi)) {
                        resolved = Some(self.interp_brick(&d));
                    }
                }
                if let Some(q) = resolved {
                    updates.push((bi, ig.node(), q));
                }
            }
        }
        for (bi, node, q) in updates {
            self.blocks[bi].q.set_node(node, q);
        }

        // Near-body outer fringe ← bricks (O(1) locates).
        let mut near_igbps = Vec::new();
        cut_holes_and_find_fringe(&mut self.near, &[], None, &mut arena, &mut near_igbps);
        for ig in &near_igbps {
            self.cartesian_locates += 1;
            if let Some(d) = locate_any(&self.bricks, ig.xyz(&self.near), None) {
                let q = self.interp_brick(&d);
                self.near.q.set_node(ig.node(), q);
            }
        }
    }

    fn interp_brick(&self, d: &crate::connect::BrickDonor) -> [f64; NVAR] {
        let w = weights(&Donor { cell: d.cell, loc: d.loc }, false);
        let block = &self.blocks[d.brick];
        let mut q = [0.0f64; NVAR];
        for (ci, wi) in w.iter().enumerate() {
            if *wi == 0.0 {
                continue;
            }
            let g = Ijk::new(
                d.cell.i + (ci & 1),
                d.cell.j + ((ci >> 1) & 1),
                d.cell.k + ((ci >> 2) & 1),
            );
            let l = block.to_local(g);
            let qs = block.q.node(l);
            for v in 0..NVAR {
                q[v] += wi * qs[v];
            }
        }
        q
    }

    /// Move the body and run an adapt cycle (refine toward the new position,
    /// coarsen behind, plus the solution-error indicator). Returns stats.
    /// Panics, naming the near body's grid 0, if the motion leaves a node
    /// of it without a finite Jacobian (a motion that is not finite), as
    /// the driver's motion phase does.
    pub fn move_and_adapt(&mut self, t: &RigidTransform) -> AdaptStats {
        self.body_center = t.apply(self.body_center);
        self.body_solid = self.body_solid.transformed(t);
        // A regrid of a body at rest before and after the jump: the grid
        // moves, but its nodes keep no ALE velocity (the block drops the
        // field, which reads as zero).
        let singular = self.near.apply_motion(t, self.cfg.fc.dt);
        assert!(
            singular == 0,
            "non-finite motion at step {}, grid 0: {singular} nodes without a finite Jacobian",
            self.steps
        );
        self.near.grid_vel = None;

        // Error indicator: pressure variation within the region.
        let states: Vec<StateField> = self
            .blocks
            .iter()
            .map(|b| {
                StateField::from_fn(b.owned.dims(), |p| {
                    let l = Ijk::new(p.i + b.halo[0], p.j + b.halo[1], p.k + b.halo[2]);
                    *b.q.node(l)
                })
            })
            .collect();
        let near_box = near_bbox(&self.cfg, self.body_center);
        let prox = crate::offbody::proximity_oracle(vec![near_box], self.cfg.offbody.max_level);
        let bricks_ref = self.bricks.clone();
        let states_ref: Vec<StateField> = states.clone();
        let threshold = self.cfg.error_threshold;
        let oracle = move |bbox: &Aabb, level: usize| -> bool {
            if prox(bbox, level) {
                return true;
            }
            // Refine where the containing brick shows pressure variation
            // above threshold (a crude gradient estimate). Regions that
            // neither neighbour the body nor flag error COARSEN back —
            // "facilitating both refinement and coarsening".
            if let Some(d) = locate_any(&bricks_ref, bbox.center(), None) {
                let s = &states_ref[d.brick];
                let dims = bricks_ref[d.brick].grid.dims;
                let mut mn = f64::INFINITY;
                let mut mx = f64::NEG_INFINITY;
                for p in dims.iter() {
                    let e = s.node(p)[4];
                    mn = mn.min(e);
                    mx = mx.max(e);
                }
                return mx - mn > threshold;
            }
            false
        };
        let fs = self.cfg.fc.freestream();
        let (new_bricks, new_states, stats) =
            adapt_cycle(&self.cfg.offbody, &self.bricks, &states, &oracle, fs);
        self.blocks = build_brick_blocks(&self.cfg, &new_bricks, Some(&new_states));
        self.bricks = new_bricks;
        self.grouping = regroup(&self.cfg, &self.bricks);
        self.connectivity();
        stats
    }

    /// Report of the current system (the Fig. 12 statistics).
    pub fn report(&self) -> SchemeReport {
        let adj = build_adjacency(&self.bricks);
        SchemeReport {
            nbricks: self.bricks.len(),
            level_hist: level_histogram(&self.bricks),
            offbody_points: self.bricks.iter().map(|b| b.num_points()).sum(),
            nearbody_points: self.near.owned_count(),
            group_imbalance: self.grouping.imbalance(),
            cut_fraction: self.grouping.cut_fraction(&adj, self.bricks.len()),
            cartesian_locates: self.cartesian_locates,
            curvilinear_searches: self.curvilinear_searches,
            cartesian_flops: self.cartesian_locates * FLOPS_PER_LOCATE,
        }
    }
}

/// Grid statistics reported by the Fig. 12 demo.
#[derive(Clone, Debug)]
pub struct SchemeReport {
    pub nbricks: usize,
    pub level_hist: Vec<usize>,
    pub offbody_points: usize,
    pub nearbody_points: usize,
    pub group_imbalance: f64,
    pub cut_fraction: f64,
    pub cartesian_locates: u64,
    pub curvilinear_searches: u64,
    pub cartesian_flops: u64,
}

fn near_body_grid(cfg: &SchemeConfig, center: [f64; 3]) -> CurvilinearGrid {
    let mut g = ellipsoid_shell("x38-near", 49, 13, 25, center, cfg.body_radii, 1.0, true);
    g.solids.clear(); // the scheme tracks its own (sub-surface) solid
    g
}

fn near_bbox(cfg: &SchemeConfig, center: [f64; 3]) -> Aabb {
    let r = cfg.body_radii;
    Aabb::new(
        [center[0] - r[0] - 1.0, center[1] - r[1] - 1.0, center[2] - r[2] - 1.0],
        [center[0] + r[0] + 1.0, center[1] + r[1] + 1.0, center[2] + r[2] + 1.0],
    )
}

fn build_brick_blocks(
    cfg: &SchemeConfig,
    bricks: &[Brick],
    states: Option<&[StateField]>,
) -> Vec<Block> {
    let domain = cfg.offbody.domain;
    let mut blocks = Vec::with_capacity(bricks.len());
    for (bi, brick) in bricks.iter().enumerate() {
        let mut g = brick.grid.to_curvilinear(format!("brick-{bi}"));
        // Faces on the domain boundary are far-field; interior faces are
        // overset boundaries fed by neighbor bricks.
        let bb = brick.bbox();
        let eps = 1e-9 * domain.diagonal();
        g.patches = Face::ALL
            .iter()
            .map(|&f| {
                let on_domain = match f {
                    Face::IMin => (bb.min[0] - domain.min[0]).abs() < eps,
                    Face::IMax => (bb.max[0] - domain.max[0]).abs() < eps,
                    Face::JMin => (bb.min[1] - domain.min[1]).abs() < eps,
                    Face::JMax => (bb.max[1] - domain.max[1]).abs() < eps,
                    Face::KMin => (bb.min[2] - domain.min[2]).abs() < eps,
                    Face::KMax => (bb.max[2] - domain.max[2]).abs() < eps,
                };
                BoundaryPatch {
                    face: f,
                    kind: if on_domain { BcKind::Farfield } else { BcKind::OversetOuter },
                }
            })
            .collect();
        // Grid `bi + 1`: the near body is grid 0.
        let mut block = Block::from_grid(bi + 1, &g, g.dims().full_box(), [None; 6], &cfg.fc);
        if let Some(all) = states {
            let s = &all[bi];
            for p in s.dims().iter() {
                let l = block.to_local(p);
                block.q.set_node(l, *s.node(p));
            }
        }
        blocks.push(block);
    }
    blocks
}

fn regroup(cfg: &SchemeConfig, bricks: &[Brick]) -> Grouping {
    let sizes: Vec<usize> = bricks.iter().map(|b| b.num_points()).collect();
    let adj = build_adjacency(bricks);
    group_grids(&sizes, cfg.ngroups, &adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use overset_solver::Blank;

    fn small_scheme() -> AdaptiveScheme {
        let mut cfg = SchemeConfig::x38_like(3);
        cfg.offbody.bricks_per_axis = [3, 2, 2];
        cfg.offbody.cells_per_edge = 5;
        cfg.offbody.max_level = 2;
        AdaptiveScheme::new(cfg)
    }

    #[test]
    fn scheme_builds_many_small_grids() {
        let s = small_scheme();
        let r = s.report();
        assert!(r.nbricks > 12, "bricks = {}", r.nbricks);
        assert!(r.level_hist.len() >= 2, "hist {:?}", r.level_hist);
        assert!(r.nearbody_points > 0);
        assert!(r.group_imbalance >= 1.0);
    }

    #[test]
    fn a_group_steps_its_bricks_through_one_workspace() {
        let mut s = small_scheme();
        let groups = s.grouping.members.len();
        assert!(groups < s.blocks.len(), "{groups} groups of {} bricks", s.blocks.len());
        assert_eq!(s.scratches.len(), groups);
        s.step();
        s.move_and_adapt(&RigidTransform::translation([1.0, 0.0, 0.0]));
        s.step();
        assert_eq!(s.scratches.len(), groups, "{} bricks", s.blocks.len());
    }

    #[test]
    fn step_keeps_freestream_physical() {
        let mut s = small_scheme();
        s.connectivity();
        for _ in 0..2 {
            s.step();
        }
        for b in &s.blocks {
            for p in b.owned_local().iter() {
                if b.iblank[p] != Blank::Field {
                    continue;
                }
                let q = b.q.node(p);
                assert!(q[0] > 0.0 && q[0].is_finite(), "bad density");
            }
        }
        let r = s.report();
        assert!(r.cartesian_locates > 0);
    }

    #[test]
    fn adapt_follows_moving_body() {
        let mut s = small_scheme();
        s.connectivity();
        let t = RigidTransform::translation([2.0, 0.0, 0.0]);
        let stats = s.move_and_adapt(&t);
        assert!(stats.refined > 0, "{stats:?}");
        assert!((s.body_center[0] - 2.0).abs() < 1e-12);
        // Fine bricks center-of-mass follows the body.
        let max_level = s.bricks.iter().map(|b| b.level).max().unwrap();
        let xs: Vec<f64> = s
            .bricks
            .iter()
            .filter(|b| b.level == max_level)
            .map(|b| b.bbox().center()[0])
            .collect();
        let cm = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(cm > 0.3, "fine bricks did not follow the body: cm = {cm}");
    }

    /// A jump that is not finite stops the scheme where it moves the near
    /// body, naming its grid, instead of leaving it on non-finite metrics
    /// until the next update's check.
    #[test]
    #[should_panic(expected = "non-finite motion at step 1, grid 0: ")]
    fn a_non_finite_jump_panics_naming_the_near_body() {
        let mut s = small_scheme();
        s.step();
        s.move_and_adapt(&RigidTransform::translation([f64::NAN, 0.0, 0.0]));
    }

    #[test]
    fn cartesian_connectivity_dominates() {
        // "The vast majority of the interpolation donors will exist in
        // Cartesian grid components."
        let mut s = small_scheme();
        s.connectivity();
        let r = s.report();
        assert!(
            r.cartesian_locates > r.curvilinear_searches,
            "locates {} vs searches {}",
            r.cartesian_locates,
            r.curvilinear_searches
        );
    }
}

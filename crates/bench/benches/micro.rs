//! Criterion microbenchmarks of the hot kernels: the per-step building
//! blocks whose costs the virtual-time model charges.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use overflow_d::driver::grid_min_widths;
use overflow_d::setup::{build_block, build_topology};
use overflow_d::{airfoil_case, run_case_serial, store_case};
use overset_balance::{
    fit_np_to_dims_min, group_grids, static_balance, AdjacencyMatrix, Partition,
};
use overset_comm::{MachineModel, Universe};
use overset_connectivity::donor::center_start;
use overset_connectivity::{
    classify_solids_into, cut_holes_and_find_fringe, walk_search, walk_search_isa, ConnArena,
    Connectivity, InverseMap, RankBlock, SearchCost, SearchOutcome,
};
use overset_grid::curvilinear::{CurvilinearGrid, Solid};
use overset_grid::gen::airfoil::{airfoil_system, near_grid};
use overset_grid::gen::store::{store_system, STORE_CARRIAGE};
use overset_grid::{Dims, Ijk, IndexBox, RigidTransform};
use overset_motion::Loads;
use overset_solver::adi::implicit_sweeps;
use overset_solver::kernels::{frames_forward_rows, from_char_lanes, Rows, FR_FIELDS};
use overset_solver::rhs::compute_residual;
use overset_solver::{
    select_isa, step_block, Block, FlowConditions, Isa, Scratch, SerialComm, HALO, W,
};
use std::time::{Duration, Instant};

fn fc() -> FlowConditions {
    let mut fc = FlowConditions::new(0.8, 0.0, 1.0e6);
    fc.dt = 0.004;
    fc
}

/// Deterministic non-uniform state, so no kernel runs on the all-equal
/// freestream, and an increment for the sweeps (owned nodes, SoA).
fn perturbed(block: &mut Block) -> Vec<f64> {
    for (i, v) in block.q.as_mut_slice().iter_mut().enumerate() {
        *v *= 1.0 + 1e-3 * ((i * 31) % 17) as f64;
    }
    (0..5 * block.owned_count()).map(|i| ((i * 31) % 17) as f64 * 1e-6).collect()
}

/// The flow-phase kernels, each as a pair: the host's lanes (AVX2 where
/// available) and the scalar lane fallback (`Isa::Scalar`) of the same
/// code, so the pair quantifies the batched-kernel host speedup without
/// cross-build noise.
fn solver_kernels(c: &mut Criterion) {
    let g2 = near_grid(133, 40, 1.1);
    let mut block2 = Block::from_grid(0, &g2, g2.dims().full_box(), [None; 6], &fc());
    let dq2 = perturbed(&mut block2);
    // A viscous 3-D block of about the same size.
    let d3 = Dims::new(24, 20, 12);
    let coords = overset_grid::field::Field3::from_fn(d3, |p| {
        let (x, y, z) = (p.i as f64 * 0.1, p.j as f64 * 0.02, p.k as f64 * 0.1);
        [x + 0.01 * (3.0 * y).sin(), y * (1.0 + 0.5 * y), z + 0.01 * x.sin()]
    });
    let mut g3 = overset_grid::CurvilinearGrid::new(
        "slab",
        coords,
        overset_grid::curvilinear::GridKind::NearBody,
    );
    g3.viscous = true;
    let mut block3 = Block::from_grid(0, &g3, d3.full_box(), [None; 6], &fc());
    perturbed(&mut block3);

    for (suffix, isa) in [("", select_isa()), ("_scalar", Isa::Scalar)] {
        let mut ws = Scratch::new(isa);
        c.bench_function(&format!("rhs/compute_residual_2d{suffix}"), |b| {
            b.iter(|| compute_residual(&block2, &fc(), &mut ws))
        });
        c.bench_function(&format!("rhs/compute_residual_3d_viscous{suffix}"), |b| {
            b.iter(|| compute_residual(&block3, &fc(), &mut ws))
        });
        // The sweeps solve the increment in place: it is reloaded, untimed,
        // before each one.
        c.bench_function(&format!("adi/implicit_sweeps_5k_nodes{suffix}"), |b| {
            b.iter_custom(|iters| {
                let mut t = Duration::ZERO;
                for _ in 0..iters {
                    ws.increment(&block2).copy_from_slice(&dq2);
                    let t0 = Instant::now();
                    implicit_sweeps(&block2, &fc(), &mut SerialComm, &mut ws);
                    t += t0.elapsed();
                }
                t
            })
        });
        // The sweeps' two pointwise stages alone (frames + forward
        // transform, back transform) over the 3-D block's owned nodes.
        let ow = block3.owned_local();
        let (mm, rows) = (ow.count(), Rows::new(ow, block3.local_dims.full_box(), ow));
        let mut dw: Vec<f64> = (0..5 * mm).map(|i| ((i * 31) % 17) as f64 * 1e-6).collect();
        let mut fr = vec![0.0; FR_FIELDS * mm];
        c.bench_function(&format!("adi/pointwise_stages{suffix}"), |b| {
            b.iter(|| {
                for dir in 0..3 {
                    frames_forward_rows(
                        isa,
                        rows,
                        dir,
                        dir == 0,
                        block3.q.as_slice(),
                        block3.metrics.as_slice(),
                        block3.grid_vel.as_ref().map(|v| v.as_slice()),
                        mm,
                        &mut dw,
                        &mut fr,
                    );
                    from_char_lanes(isa, mm, mm, &fr, &mut dw);
                }
            })
        });
    }
}

/// The thin-block overheads of the `store_ranks` step (store ×0.55 on 256
/// ranks, whose subdomains own 3 to 9 nodes in `i`) at the kernel layer: a
/// 5×12×9 interior subdomain's six halo faces packed and unpacked, its frame
/// pass (three directions, the first fresh) on both ISAs, and one of the
/// partition's `bg-fine` blocks classifying its hole lattice against the
/// store system's foreign solids: rank 160, which five of the eight solids
/// reach (on 94 of the 256 blocks no solid reaches a bin).
fn thin_block_kernels(c: &mut Criterion) {
    let gd = Dims::new(9, 16, 13);
    let coords = overset_grid::field::Field3::from_fn(gd, |p| {
        let (x, y, z) = (p.i as f64 * 0.1, p.j as f64 * 0.05, p.k as f64 * 0.1);
        [x + 0.01 * (3.0 * y).sin(), y * (1.0 + 0.5 * y), z + 0.01 * x.sin()]
    });
    let g = CurvilinearGrid::new("thin", coords, overset_grid::curvilinear::GridKind::NearBody);
    let owned = IndexBox::new(Ijk::new(2, 2, 2), Ijk::new(7, 14, 11));
    let mut block = Block::from_grid(0, &g, owned, [Some(1); 6], &fc());
    perturbed(&mut block);

    let mut bufs: [Vec<f64>; 6] = Default::default();
    c.bench_function("halo/pack_unpack_faces_5x12x9", |b| {
        b.iter(|| {
            for (face, buf) in bufs.iter_mut().enumerate() {
                block.pack_face_into(face, HALO, buf);
            }
            for (face, buf) in bufs.iter().enumerate() {
                block.unpack_face(face, HALO, buf);
            }
        })
    });

    // The frame pass transforms the increment in place: it is reloaded,
    // untimed, before each one.
    let ow = block.owned_local();
    let (mm, rows) = (ow.count(), Rows::new(ow, block.local_dims.full_box(), ow));
    let dw0: Vec<f64> = (0..5 * mm).map(|i| ((i * 31) % 17) as f64 * 1e-6).collect();
    let (mut dw, mut fr) = (dw0.clone(), vec![0.0; FR_FIELDS * mm]);
    for (suffix, isa) in [("", select_isa()), ("_scalar", Isa::Scalar)] {
        c.bench_function(&format!("kernels/frames_forward_5x12x9{suffix}"), |b| {
            b.iter_custom(|iters| {
                let mut t = Duration::ZERO;
                for _ in 0..iters {
                    dw.copy_from_slice(&dw0);
                    let t0 = Instant::now();
                    for dir in 0..3 {
                        frames_forward_rows(
                            isa,
                            rows,
                            dir,
                            dir == 0,
                            block.q.as_slice(),
                            block.metrics.as_slice(),
                            block.grid_vel.as_ref().map(|v| v.as_slice()),
                            mm,
                            &mut dw,
                            &mut fr,
                        );
                    }
                    t += t0.elapsed();
                }
                t
            })
        });
    }

    const P: usize = 256;
    const RANK: usize = 160;
    let cfg = store_case(0.55, 1);
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let balanced = static_balance(&sizes, P).unwrap();
    let widths = grid_min_widths(&cfg.grids);
    let np = fit_np_to_dims_min(&sizes, &dims, &balanced.np, &widths).unwrap();
    let partition = Partition::build(&dims, &np);
    let unmoved = vec![RigidTransform::IDENTITY; cfg.grids.len()];
    let (blk, _) = build_block(RANK, &partition, &cfg.grids, &unmoved, &cfg.fc).unwrap();
    assert_eq!(cfg.grids[blk.grid_id].name, "bg-fine");
    let inv = InverseMap::build(&blk);
    let solids: Vec<Solid> = tagged_solids(&cfg.grids)
        .into_iter()
        .filter(|(g, _)| *g != blk.grid_id)
        .map(|(_, s)| s)
        .collect();
    // The cutter's pad: four times a quarter of the spacing at the middle.
    let ow = blk.owned_local();
    let mid = Ijk::new((ow.lo.i + ow.hi.i) / 2, (ow.lo.j + ow.hi.j) / 2, (ow.lo.k + ow.hi.k) / 2);
    let (a, b) = (blk.coords[mid], blk.coords[Ijk::new(mid.i + 1, mid.j, mid.k)]);
    let pad = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
    let (mut classes, mut reach) = (Vec::new(), Vec::new());
    c.bench_function("holes/classify_store_p256", |b| {
        b.iter(|| classify_solids_into(&inv, &solids, pad, &mut classes, &mut reach))
    });
}

/// The flow phase of the `airfoil_flow` system at the kernel layer: one
/// `step_block` on each of the three airfoil grids, whole and serial (the
/// benchmark probe's job), from the state they were built with, which is
/// restored untimed between iterations.
fn solver_step(c: &mut Criterion) {
    let cfg = airfoil_case(1.0, 1);
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let whole = Partition::build(&dims, &vec![1; dims.len()]);
    let unmoved = vec![RigidTransform::IDENTITY; dims.len()];
    for (suffix, isa) in [("", select_isa()), ("_scalar", Isa::Scalar)] {
        let mut blocks: Vec<_> = (0..dims.len())
            .map(|g| {
                let (block, wall) =
                    build_block(whole.start[g], &whole, &cfg.grids, &unmoved, &cfg.fc).unwrap();
                let mut scratch = Scratch::for_block(&block);
                scratch.isa = isa;
                let q0 = block.q.clone();
                (block, wall, scratch, q0)
            })
            .collect();
        c.bench_function(&format!("solver/step_block_airfoil{suffix}"), |b| {
            b.iter_custom(|iters| {
                let mut t = Duration::ZERO;
                for _ in 0..iters {
                    for (block, _, _, q0) in blocks.iter_mut() {
                        block.q.as_mut_slice().copy_from_slice(q0.as_slice());
                    }
                    let t0 = Instant::now();
                    for (block, wall, scratch, _) in blocks.iter_mut() {
                        step_block(block, &cfg.fc, wall.as_ref(), &mut SerialComm, scratch);
                    }
                    t += t0.elapsed();
                }
                t
            })
        });
    }
}

/// The batched trilinear Newton inversion ([`W`] candidate cells per call)
/// through the AVX2 lanes vs the portable scalar lanes — the donor-search
/// half of the kernel-level SIMD-vs-scalar pair.
fn trilinear_kernels(c: &mut Criterion) {
    use overset_connectivity::kernels::{invert_cells_lanes, CORNERS};
    let g = near_grid(133, 40, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());
    let ow = block.owned_local();
    let kmax = if block.two_d { 1 } else { 2 };
    // W interior cells, one per lane; targets just off each cell's centroid
    // so Newton runs several iterations.
    let mut corners = [0.0f64; CORNERS * 3 * W];
    let mut targets = [0.0f64; 3 * W];
    for l in 0..W {
        let cell = overset_grid::Ijk::new(ow.lo.i + 30 + 7 * l, ow.lo.j + 10 + 2 * l, ow.lo.k);
        let mut centroid = [0.0f64; 3];
        for dk in 0..kmax {
            for dj in 0..2 {
                for di in 0..2 {
                    let n = overset_grid::Ijk::new(cell.i + di, cell.j + dj, cell.k + dk);
                    let x = block.coords[n];
                    let cidx = di + 2 * dj + 4 * dk;
                    for m in 0..3 {
                        corners[(cidx * 3 + m) * W + l] = x[m];
                        centroid[m] += x[m] / (4 * kmax) as f64;
                    }
                }
            }
        }
        for m in 0..3 {
            targets[m * W + l] = centroid[m] + 1e-3 * (l as f64 + 1.0);
        }
    }
    for (name, isa) in [("batched", select_isa()), ("scalar", Isa::Scalar)] {
        c.bench_function(&format!("donor/trilinear_invert_4cells_{name}"), |b| {
            b.iter(|| {
                let mut t_out = [0.0f64; 3 * W];
                let mut iters = [0u64; W];
                let mut ok = [false; W];
                invert_cells_lanes(
                    isa,
                    block.two_d,
                    &corners,
                    &targets,
                    &mut t_out,
                    &mut iters,
                    &mut ok,
                );
                (t_out, iters, ok)
            })
        });
    }
}

/// Every grid's hole-cutting solids, tagged with the owning grid.
fn tagged_solids(grids: &[CurvilinearGrid]) -> Vec<(usize, Solid)> {
    grids.iter().enumerate().flat_map(|(g, gr)| gr.solids.iter().map(move |s| (g, *s))).collect()
}

fn connectivity_kernels(c: &mut Criterion) {
    let g = near_grid(265, 80, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());

    c.bench_function("donor/cold_walk_search", |b| {
        b.iter(|| {
            let mut cost = SearchCost::default();
            walk_search(&block, [0.9, 0.35, 0.0], center_start(&block), &mut cost)
        })
    });

    let warm_start = {
        let mut cost = SearchCost::default();
        match walk_search(&block, [0.9, 0.35, 0.0], center_start(&block), &mut cost) {
            overset_connectivity::SearchOutcome::Found(d) => d.cell,
            _ => center_start(&block),
        }
    };
    c.bench_function("donor/warm_walk_search", |b| {
        b.iter(|| {
            let mut cost = SearchCost::default();
            walk_search(&block, [0.9, 0.35, 0.0], warm_start, &mut cost)
        })
    });

    let sys = airfoil_system(0.5);
    let solids = tagged_solids(&sys);
    c.bench_function("holes/cut_and_fringe_5k_nodes", |b| {
        b.iter_batched(
            || Block::from_grid(2, &sys[2], sys[2].dims().full_box(), [None; 6], &fc()),
            |mut blk| {
                let mut igbps = Vec::new();
                cut_holes_and_find_fringe(
                    &mut blk,
                    &solids,
                    None,
                    &mut ConnArena::new(),
                    &mut igbps,
                );
                igbps
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("holes/cut_and_fringe_5k_nodes_masked", |b| {
        let inv = {
            let blk = Block::from_grid(2, &sys[2], sys[2].dims().full_box(), [None; 6], &fc());
            InverseMap::build(&blk)
        };
        b.iter_batched(
            || Block::from_grid(2, &sys[2], sys[2].dims().full_box(), [None; 6], &fc()),
            |mut blk| {
                let mut igbps = Vec::new();
                cut_holes_and_find_fringe(
                    &mut blk,
                    &solids,
                    Some(&inv),
                    &mut ConnArena::new(),
                    &mut igbps,
                );
                igbps
            },
            BatchSize::LargeInput,
        )
    });
}

fn inverse_map_kernels(c: &mut Criterion) {
    let g = near_grid(265, 80, 1.1);
    let block = Block::from_grid(0, &g, g.dims().full_box(), [None; 6], &fc());

    c.bench_function("invmap/build_21k_nodes", |b| b.iter(|| InverseMap::build(&block)));

    // The 3-D lattices the 2-D block above (≤ 48² bins) never reaches, from
    // the store system at the repo benchmark's scale: the finest Cartesian
    // background (grid 13, 46×25×35 bins, a tenth of them empty) and the wing
    // O-grid (grid 10, 53×14×24 bins, a hollow 60 % of them to fill).
    let store = store_system(0.55);
    for (name, g) in [("build_3d_cartesian_55k", &store[13]), ("build_3d_ogrid_hollow", &store[10])]
    {
        let blk = Block::from_grid(0, g, g.dims().full_box(), [None; 6], &fc());
        c.bench_function(&format!("invmap/{name}"), |b| b.iter(|| InverseMap::build(&blk)));
    }

    // The layer above one map: the 16 whole-grid maps the `store_serial`
    // cold step builds, and the 256 subdomain maps of `store_ranks`, whose
    // blocks of ~500 cells pay every per-build fixed cost.
    let sizes: Vec<usize> = store.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = store.iter().map(|g| g.dims()).collect();
    for (name, np) in [
        ("build_store_055_all", vec![1; store.len()]),
        ("build_store_055_p256", {
            let balanced = static_balance(&sizes, 256).unwrap();
            fit_np_to_dims_min(&sizes, &dims, &balanced.np, &grid_min_widths(&store)).unwrap()
        }),
    ] {
        let part = Partition::build(&dims, &np);
        let blocks: Vec<Block> = (0..part.ranks.len())
            .map(|rank| {
                let a = part.ranks[rank];
                let g = &store[a.grid];
                Block::from_grid(a.grid, g, a.boxx, part.neighbors_of(rank, g.periodic_i), &fc())
            })
            .collect();
        c.bench_function(&format!("invmap/{name}"), |b| {
            b.iter(|| blocks.iter().map(InverseMap::build).collect::<Vec<_>>())
        });
    }

    let inv = InverseMap::build(&block);
    c.bench_function("invmap/query", |b| b.iter(|| inv.query([0.9, 0.35, 0.0])));

    // What a miss costs: a point on the store axis lies in the fore-body
    // shell's box and in no cell of it. The walk learns that from the whole
    // canonical chain (centre walk, greedy descent, quarter-azimuth
    // restarts); the fine occupancy mask from one lattice lookup.
    let shell = &store[1];
    let shell_blk = {
        let part = Partition::build(&[shell.dims()], &[1]);
        let nbrs = part.neighbors_of(0, shell.periodic_i);
        Block::from_grid(1, shell, shell.dims().full_box(), nbrs, &fc())
    };
    let shell_inv = InverseMap::build(&shell_blk);
    let hollow = [STORE_CARRIAGE[0] + 1.0, STORE_CARRIAGE[1], STORE_CARRIAGE[2]];
    assert!(!shell_inv.admits(hollow));
    c.bench_function("donor/miss_hollow_ogrid_walk", |b| {
        b.iter(|| {
            let mut cost = SearchCost::default();
            walk_search(&shell_blk, hollow, shell_inv.query(hollow), &mut cost)
        })
    });
    c.bench_function("donor/miss_hollow_ogrid_admits", |b| {
        b.iter(|| shell_inv.admits(std::hint::black_box(hollow)))
    });

    // What a walk leaves open, settled by the canonical chain (no map) and
    // from the map's cell lists, same seed, same verdict. A point a twentieth
    // of a cell inside the shell's wall: its mask bin reaches wall cells, the
    // seeded walk is pinned at the wall, no cell holds it. And the midpoint
    // of a cell in the second polar ring, warm-started from that cell: found
    // at once, and in a band where the donor stands only once no cell apart
    // holds the point too.
    let ow = shell_blk.owned_local();
    let (mid_i, mid_j) = ((ow.lo.i + ow.hi.i) / 2, (ow.lo.j + ow.hi.j) / 2);
    let at = |i: usize, j: usize, k: usize| shell_blk.coords[overset_grid::Ijk::new(i, j, k)];
    let mid_k = (ow.lo.k + ow.hi.k) / 2;
    let (wall, off) = (at(mid_i, ow.lo.j, mid_k), at(mid_i, ow.lo.j + 1, mid_k));
    let beside_wall: [f64; 3] = std::array::from_fn(|m| wall[m] - 0.05 * (off[m] - wall[m]));
    assert!(shell_inv.admits(beside_wall));
    let polar_cell = overset_grid::Ijk::new(mid_i, mid_j, ow.lo.k + 1);
    let polar: [f64; 3] = std::array::from_fn(|m| {
        let corners =
            (0..8).map(|n| at(mid_i + (n & 1), mid_j + (n >> 1 & 1), ow.lo.k + 1 + (n >> 2)));
        corners.map(|x| x[m]).sum::<f64>() / 8.0
    });
    for (name, p, start, found) in [
        ("fail_resolved", beside_wall, shell_inv.query(beside_wall), false),
        ("polar_band_found", polar, polar_cell, true),
    ] {
        for (how, inv) in [("chain", None), ("candidates", Some(&shell_inv))] {
            let search = |cost: &mut SearchCost| {
                walk_search_isa(&shell_blk, p, start, cost, false, select_isa(), inv)
            };
            let mut cost = SearchCost::default();
            assert_eq!(matches!(search(&mut cost), SearchOutcome::Found(_)), found, "{name}");
            assert_eq!(cost.fallbacks, 0, "{name} ({how}) went to the chain after all");
            c.bench_function(&format!("donor/{name}_{how}"), |b| {
                b.iter(|| search(&mut SearchCost::default()))
            });
        }
    }

    // The pair the virtual-time savings come from: a cold search from the
    // block-center cell vs the same search from the O(1) map seed.
    let target = [0.9, 0.35, 0.0];
    c.bench_function("donor/cold_walk_center_start", |b| {
        b.iter(|| {
            let mut cost = SearchCost::default();
            walk_search(&block, target, center_start(&block), &mut cost)
        })
    });
    c.bench_function("donor/cold_walk_map_seeded", |b| {
        b.iter(|| {
            let mut cost = SearchCost::default();
            walk_search(&block, target, inv.query(target), &mut cost)
        })
    });
}

/// One warm connectivity solution of the store system (x0.3) the way a
/// single-processor run takes it: one rank owning every grid whole, every
/// search served in place. Set-up and the cold solution are not timed.
///
/// `steady`: the grids stand still, so every map keeps its build pose.
/// `moving`: before each solution the store's grids and solids take a step
/// of the case's ejection trajectory — eight steps out, then the same eight
/// undone, over and over, so that the store stays near the pylon — which
/// keeps their maps posed: the hole cutter's posed path and the polar-band
/// proofs on the store shells are timed. The motion itself is not.
fn serial_connectivity(c: &mut Criterion) {
    let cfg = store_case(0.3, 1);
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let whole = Partition::build(&dims, &vec![1; dims.len()]);
    let topo = build_topology(&whole, &cfg.search_order, 1).unwrap();
    let unmoved = vec![RigidTransform::IDENTITY; dims.len()];
    let machine = MachineModel::cray_ymp();
    let body = &cfg.motions[0];
    let mut trajectory = body.motion.clone();
    let out: Vec<RigidTransform> =
        (0..8).map(|_| trajectory.step(cfg.fc.dt, &Loads::ZERO)).collect();
    let back: Vec<RigidTransform> = out.iter().rev().map(RigidTransform::inverse).collect();
    for (name, cycle) in [("steady", vec![]), ("moving", [out, back].concat())] {
        c.bench_function(&format!("connect_one_rank/store_0p3_{name}"), |b| {
            b.iter_custom(|iters| {
                let out = Universe::builder().machine(&machine).run(|comm| {
                    let mut solids = tagged_solids(&cfg.grids);
                    let mut mine: Vec<RankBlock> = (0..dims.len())
                        .map(|g| {
                            let (block, wall) =
                                build_block(g, &whole, &cfg.grids, &unmoved, &cfg.fc).unwrap();
                            RankBlock::new(g, block, wall)
                        })
                        .collect();
                    let mut conn = Connectivity::new(true);
                    conn.step(&mut mine, &solids, &topo, comm);
                    let mut timed = Duration::ZERO;
                    for n in 0..iters as usize {
                        if let Some(t) = cycle.get(n % cycle.len().max(1)) {
                            for (g, s) in solids.iter_mut() {
                                if body.grids.contains(g) {
                                    *s = s.transformed(t);
                                }
                            }
                            let moving =
                                |rb: &&mut RankBlock| body.grids.contains(&rb.block.grid_id);
                            for rb in mine.iter_mut().filter(moving) {
                                rb.block.apply_motion(t, cfg.fc.dt);
                                rb.note_motion(t);
                            }
                        }
                        let t0 = Instant::now();
                        conn.step(&mut mine, &solids, &topo, comm);
                        timed += t0.elapsed();
                    }
                    timed.as_secs_f64()
                });
                Duration::from_secs_f64(out[0].result)
            })
        });
    }
}

/// The set-up layer: the 16 whole-grid blocks of the store ×0.55 system
/// through `build_block` (what the `store_serial` workload builds before its
/// first step), the whole cold step of that workload (one `run_case_serial`
/// step: blocks, maps, the cold donor search, one flow step), and one whole
/// 3-D block's metric refresh — the finest background grid's, the largest of
/// them — which the motion phase runs on every moving block every step.
fn setup_kernels(c: &mut Criterion) {
    let cfg = store_case(0.55, 1);
    let machine = MachineModel::ibm_sp2();
    c.bench_function("setup/cold_step_store_serial", |b| {
        b.iter(|| run_case_serial(&cfg, &machine).unwrap())
    });
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let whole = Partition::build(&dims, &vec![1; dims.len()]);
    let unmoved = vec![RigidTransform::IDENTITY; dims.len()];
    let build = |g: usize| build_block(g, &whole, &cfg.grids, &unmoved, &cfg.fc).unwrap();
    c.bench_function("setup/build_blocks_store_serial", |b| {
        b.iter(|| (0..dims.len()).map(build).collect::<Vec<_>>())
    });
    let bg_fine = cfg.grids.iter().position(|g| g.name == "bg-fine").unwrap();
    let (mut block, _) = build(bg_fine);
    assert!(!block.two_d);
    c.bench_function("grid/metrics_into_bg_fine", |b| b.iter(|| block.recompute_metrics()));
}

fn balance_kernels(c: &mut Criterion) {
    let sizes: Vec<usize> = (0..16).map(|i| 20_000 + i * 3_137).collect();
    c.bench_function("balance/static_algorithm1_16_grids", |b| {
        b.iter(|| static_balance(&sizes, 61))
    });

    let n = 400;
    let brick_sizes: Vec<usize> = (0..n).map(|i| 200 + (i * 97) % 800).collect();
    let mut adj = AdjacencyMatrix::new(n);
    for i in 0..n {
        for d in [1usize, 20] {
            if i + d < n {
                adj.connect(i, i + d);
            }
        }
    }
    c.bench_function("balance/grouping_algorithm3_400_bricks", |b| {
        b.iter(|| group_grids(&brick_sizes, 16, &adj))
    });

    c.bench_function("decomp/lattice_split_61", |b| {
        b.iter(|| overset_grid::decomp::lattice_split(Dims::new(120, 90, 70), 61))
    });
}

/// The collective that opens every donor-search round at the rank count
/// where it dominates: 256 ranks as coroutines on one worker, each
/// contributing a 256-entry count row, 24 rounds (one capped step's worth).
/// One iteration also spawns the universe (~1 ms of it).
fn comm_kernels(c: &mut Criterion) {
    const P: usize = 256;
    let machine = MachineModel::ibm_sp2();
    c.bench_function("comm/allgather_counts_p256", |b| {
        b.iter(|| {
            Universe::builder().ranks(P).machine(&machine).max_threads(1).run(|c| {
                for _ in 0..24 {
                    let rows = c.allgather(vec![c.rank() as u32; P], 4 * P);
                    std::hint::black_box(rows[P - 1][c.rank()]);
                }
            })
        })
    });
}

/// One warm distributed connectivity solution of the store system (x0.4,
/// static) on 64 ranks — coroutines on one worker, so rank 0's time between
/// two barriers is the whole universe's: hole cut, routing gather, one round
/// of 13 K warm requests, interpolation. The universe, the blocks and the
/// cold solution (maps, first donors) are set up per batch and not timed.
fn distributed_connectivity(c: &mut Criterion) {
    const P: usize = 64;
    let cfg = store_case(0.4, 1);
    let sizes: Vec<usize> = cfg.grids.iter().map(|g| g.num_points()).collect();
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    // The partition `run_case` builds.
    let balanced = static_balance(&sizes, P).unwrap();
    let widths = grid_min_widths(&cfg.grids);
    let np = fit_np_to_dims_min(&sizes, &dims, &balanced.np, &widths).unwrap();
    let partition = Partition::build(&dims, &np);
    let topo = build_topology(&partition, &cfg.search_order, P).unwrap();
    let solids = tagged_solids(&cfg.grids);
    let unmoved = vec![RigidTransform::IDENTITY; cfg.grids.len()];
    let machine = MachineModel::ibm_sp2();
    c.bench_function("connect_distributed/store_0p4_p64_steady", |b| {
        b.iter_custom(|iters| {
            let out = Universe::builder().ranks(P).machine(&machine).max_threads(1).run(|comm| {
                let (block, wall) =
                    build_block(comm.rank(), &partition, &cfg.grids, &unmoved, &cfg.fc).unwrap();
                let mut mine = [RankBlock::new(comm.rank(), block, wall)];
                let mut conn = Connectivity::new(true);
                conn.step(&mut mine, &solids, &topo, comm);
                comm.barrier();
                let t0 = Instant::now();
                for _ in 0..iters {
                    conn.step(&mut mine, &solids, &topo, comm);
                }
                comm.barrier();
                t0.elapsed().as_secs_f64()
            });
            Duration::from_secs_f64(out[0].result)
        })
    });
}

criterion_group!(
    benches,
    solver_kernels,
    thin_block_kernels,
    solver_step,
    trilinear_kernels,
    connectivity_kernels,
    inverse_map_kernels,
    serial_connectivity,
    setup_kernels,
    balance_kernels,
    comm_kernels,
    distributed_connectivity
);
criterion_main!(benches);

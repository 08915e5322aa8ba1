//! Criterion microbenchmarks of the hot kernels: the per-step building
//! blocks whose costs the virtual-time model charges.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use overflow_d::driver::grid_min_widths;
use overflow_d::setup::{build_block, build_topology};
use overflow_d::store_case;
use overset_balance::{
    fit_np_to_dims_min, group_grids, static_balance, AdjacencyMatrix, Partition,
};
use overset_comm::{MachineModel, Universe};
use overset_connectivity::donor::center_start;
use overset_connectivity::{
    cut_holes_and_find_fringe, walk_search, walk_search_isa, ConnArena, Connectivity, InverseMap,
    RankBlock, SearchCost, SearchOutcome,
};
use overset_grid::curvilinear::{CurvilinearGrid, Solid};
use overset_grid::gen::airfoil::{airfoil_system, near_grid};
use overset_grid::gen::store::{store_system, STORE_CARRIAGE};
use overset_grid::{Dims, RigidTransform};
use overset_solver::adi::{implicit_sweeps, SweepScratch};
use overset_solver::kernels::{frames_forward_rows, from_char_lanes, Rows, FR_FIELDS};
use overset_solver::rhs::compute_residual;
use overset_solver::{select_isa, Block, FlowConditions, Isa, Scratch, SerialComm, W};
use std::time::{Duration, Instant};

fn fc() -> FlowConditions {
    let mut fc = FlowConditions::new(0.8, 0.0, 1.0e6);
    fc.dt = 0.004;
    fc
}

/// Deterministic non-uniform state and increment, so no kernel runs on the
/// all-equal freestream.
fn perturbed(block: &mut Block) -> overset_grid::field::StateField {
    for (i, v) in block.q.as_mut_slice().iter_mut().enumerate() {
        *v *= 1.0 + 1e-3 * ((i * 31) % 17) as f64;
    }
    let mut dq = overset_grid::field::StateField::new(block.local_dims);
    for (i, v) in dq.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 31) % 17) as f64 * 1e-6;
    }
    dq
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
        let mut res = Scratch::for_block(&block2).res;
        let mut ws = SweepScratch::new(isa);
        c.bench_function(&format!("rhs/compute_residual_2d{suffix}"), |b| {
            b.iter(|| compute_residual(&block2, &fc(), &mut res, &mut ws))
        });
        let mut res = Scratch::for_block(&block3).res;
        c.bench_function(&format!("rhs/compute_residual_3d_viscous{suffix}"), |b| {
            b.iter(|| compute_residual(&block3, &fc(), &mut res, &mut ws))
        });
        c.bench_function(&format!("adi/implicit_sweeps_5k_nodes{suffix}"), |b| {
            b.iter_batched(
                || dq2.clone(),
                |mut dq| implicit_sweeps(&block2, &fc(), &mut dq, &mut SerialComm, &mut ws),
                BatchSize::LargeInput,
            )
        });
        // The sweeps' two pointwise stages alone (frames + forward
        // transform, back transform) over the 3-D block's owned nodes.
        let ow = block3.owned_local();
        let (mm, rows) = (ow.count(), Rows::new(block3.local_dims, ow, ow));
        let mut dw: Vec<f64> = (0..5 * mm).map(|i| ((i * 31) % 17) as f64 * 1e-6).collect();
        let mut fr = vec![0.0; FR_FIELDS * mm];
        c.bench_function(&format!("adi/pointwise_stages{suffix}"), |b| {
            b.iter(|| {
                for dir in 0..3 {
                    frames_forward_rows(
                        isa,
                        rows,
                        dir,
                        block3.q.as_slice(),
                        block3.metrics.as_slice(),
                        block3.grid_vel.as_slice(),
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
            |mut blk| cut_holes_and_find_fringe(&mut blk, &solids, None, &mut ConnArena::new()),
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
                cut_holes_and_find_fringe(&mut blk, &solids, Some(&inv), &mut ConnArena::new())
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

/// One warm serial connectivity solution of the store system (x0.3, static):
/// hole cut, 7.4 K warm starts from last step's donors, interpolation.
/// One warm connectivity solution of the store system (x0.3) the way a
/// single-processor run takes it: one rank owning every grid whole, every
/// search served in place. Set-up and the cold solution are not timed.
fn serial_connectivity(c: &mut Criterion) {
    let cfg = store_case(0.3, 1);
    let dims: Vec<Dims> = cfg.grids.iter().map(|g| g.dims()).collect();
    let whole = Partition::build(&dims, &vec![1; dims.len()]);
    let topo = build_topology(&whole, &cfg.search_order, 1).unwrap();
    let solids = tagged_solids(&cfg.grids);
    let unmoved = vec![RigidTransform::IDENTITY; dims.len()];
    let machine = MachineModel::cray_ymp();
    c.bench_function("connect_one_rank/store_0p3_steady", |b| {
        b.iter_custom(|iters| {
            let out = Universe::builder().machine(&machine).run(|comm| {
                let mut mine: Vec<RankBlock> = (0..dims.len())
                    .map(|g| {
                        let (block, wall) =
                            build_block(g, &whole, &cfg.grids, &unmoved, &cfg.fc).unwrap();
                        RankBlock::new(g, block, wall)
                    })
                    .collect();
                let mut conn = Connectivity::new(true);
                conn.step(&mut mine, &solids, &topo, comm);
                let t0 = Instant::now();
                for _ in 0..iters {
                    conn.step(&mut mine, &solids, &topo, comm);
                }
                t0.elapsed().as_secs_f64()
            });
            Duration::from_secs_f64(out[0].result)
        })
    });
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
    trilinear_kernels,
    connectivity_kernels,
    inverse_map_kernels,
    serial_connectivity,
    balance_kernels,
    comm_kernels,
    distributed_connectivity
);
criterion_main!(benches);

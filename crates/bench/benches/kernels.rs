//! K1 — the DP kernel zoo: per-kernel cell rates that anchor every other
//! number in the evaluation, plus the block-pruning and traceback
//! ablations. Throughput unit = DP cells.

use megasw::prelude::*;
use megasw::sw::antidiag::antidiag_best;
use megasw::sw::block::BlockInput;
use megasw::sw::border::{ColBorder, RowBorder};
use megasw::sw::grid::{run_sequential, BlockGrid};
use megasw::sw::prune::run_pruned;
use megasw_bench::{cached_pair_exact, harness::Group};

/// Every DP engine the host can execute, labelled by its resolved name.
fn engines() -> Vec<(&'static str, &'static dyn Kernel)> {
    [
        KernelDispatch::ForceScalar,
        KernelDispatch::ForceSse41,
        KernelDispatch::ForceAvx2,
        KernelDispatch::ForceAvx512,
    ]
    .into_iter()
    .filter_map(|d| kernel::select(d).ok().map(|k| (d.name(), k)))
    .collect()
}

fn bench_block_kernel() {
    let (a, b) = cached_pair_exact(4_096, 601);
    let scheme = ScoreScheme::cudalign();
    for (engine, k) in engines() {
        let group = Group::new(&format!("k1_block_kernel_{engine}")).samples(20);
        for side in [64usize, 256, 1_024, 4_096] {
            let top = RowBorder::zero(side);
            let left = ColBorder::zero(side);
            group.bench_cells(&format!("side_{side}"), (side * side) as u64, || {
                k.block(
                    BlockInput {
                        a_rows: &a.codes()[..side],
                        b_cols: &b.codes()[..side],
                        top: &top,
                        left: &left,
                        row_offset: 1,
                        col_offset: 1,
                    },
                    &scheme,
                )
                .best
            });
        }
    }
}

fn bench_whole_matrix_kernels() {
    let group = Group::new("k1_whole_matrix");
    let (a, b) = cached_pair_exact(4_096, 601);
    let scheme = ScoreScheme::cudalign();
    let cells = (a.len() * b.len()) as u64;

    group.bench_cells("gotoh_serial", cells, || {
        kernel::scalar().best(a.codes(), b.codes(), &scheme)
    });
    for (engine, k) in engines() {
        group.bench_cells(&format!("wavefront_{engine}"), cells, || {
            k.best(a.codes(), b.codes(), &scheme)
        });
    }
    group.bench_cells("antidiagonal_serial", cells, || {
        antidiag_best(a.codes(), b.codes(), &scheme)
    });
    let grid = BlockGrid::new(a.len(), b.len(), 512, 512);
    group.bench_cells("blocked_grid_512", cells, || {
        run_sequential(a.codes(), b.codes(), &grid, &scheme).best
    });
    group.bench_cells("blocked_grid_512_pruned", cells, || {
        run_pruned(a.codes(), b.codes(), &grid, &scheme).best
    });
    group.bench_cells("banded_w64", cells, || {
        kernel::scalar()
            .banded(a.codes(), b.codes(), &scheme, 64)
            .best
    });
}

fn bench_traceback() {
    let group = Group::new("k1_traceback");
    let (a, b) = cached_pair_exact(4_096, 602);
    let scheme = ScoreScheme::cudalign();
    group.bench("local_align_4k", || {
        local_align(a.codes(), b.codes(), &scheme).score
    });
}

fn main() {
    bench_block_kernel();
    bench_whole_matrix_kernels();
    bench_traceback();
}

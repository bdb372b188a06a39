//! Fixtures shared by the sweep integration tests.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use flexcl_core::{
    explore_space, DseOptions, DseResult, FlexclError, Platform, SweepGrid, Workload,
};
use flexcl_interp::KernelArg;
use flexcl_ir::Function;

/// Vector add over three 4096-float buffers. vadd has no barrier, so its
/// space spans both communication modes and every vector width — the
/// richest pruning surface the standard grid offers — across five
/// work-group families.
pub fn vadd() -> (Function, Workload) {
    let p = flexcl_frontend::parse_and_check(
        "__kernel void vadd(__global float* a, __global float* b, __global float* c) {
            int i = get_global_id(0);
            c[i] = a[i] + b[i];
        }",
    )
    .expect("frontend");
    let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
    let w = Workload {
        args: vec![
            KernelArg::FloatBuf(vec![1.0; 4096]),
            KernelArg::FloatBuf(vec![2.0; 4096]),
            KernelArg::FloatBuf(vec![0.0; 4096]),
        ],
        global: (4096, 1),
    };
    (f, w)
}

/// A sweep over the standard grid (the paper's Table 2 space).
pub fn sweep(
    f: &Function,
    platform: &Platform,
    w: &Workload,
    opts: DseOptions,
) -> Result<DseResult, FlexclError> {
    explore_space(f, platform, w, &SweepGrid::standard(), opts)
}

/// Asserts two sweeps explored the same points with bit-identical
/// estimates, in the same order.
pub fn assert_points_identical(a: &DseResult, b: &DseResult) {
    assert_eq!(a.points.len(), b.points.len(), "point counts differ");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.config, pb.config);
        assert_eq!(pa.estimate, pb.estimate, "{}", pa.config);
    }
}

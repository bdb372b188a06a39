//! Fault-injection suite for the fault-tolerant DSE sweep.
//!
//! Each test poisons one layer of the pipeline — candidate configurations,
//! the kernel's runtime behaviour (via the profiling fuel budget), the
//! platform description, or the analysis itself (an injected panic) — and
//! asserts the sweep's failure contract:
//!
//! * the sweep **completes** (`Ok`) instead of aborting or hanging,
//! * every skipped candidate is **attributed** in the
//!   [`DiagnosticsReport`] with the right [`ErrorKind`],
//! * the surviving points are **bit-identical** to a clean sweep over the
//!   same subset, serial and parallel alike.
//!
//! Only corrupt platform tables reject the whole sweep, and they do so up
//! front with a typed error rather than a hundred per-candidate failures.
//!
//! Panics are injected per sweep through `DseOptions::inject`, so the
//! tests run in parallel and a poisoned sweep can share the process — and
//! the wall clock — with a clean one.
//!
//! Most sweeps here run with `prune: false` (the default) so the clean
//! reference covers every candidate; pruned sweeps are fair game too —
//! the scheduler's deterministic replay pass makes even the pruned
//! survivor set independent of thread timing (see
//! `tests/chunk_determinism.rs`).

mod common;

use common::{assert_points_identical, sweep, vadd};
use flexcl_core::dse::InjectedFault;
use flexcl_core::{
    enumerate, explore_configs, limits_for, DseOptions, ErrorKind, OptimizationConfig, Platform,
    ProfileFuel, Workload,
};
use flexcl_interp::KernelArg;

#[test]
fn poisoned_configs_are_skipped_and_survivors_are_bit_identical() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let valid = enumerate(&limits_for(&f, &w));
    assert!(valid.len() >= 100);

    // Interleave three invalid candidates among the valid ones.
    let poison = [
        (3usize, OptimizationConfig { work_group: (0, 1), ..Default::default() }),
        (40, OptimizationConfig { num_pes: 0, ..Default::default() }),
        (valid.len(), OptimizationConfig { vector_width: 0, ..Default::default() }),
    ];
    let mut poisoned = valid.clone();
    for &(at, cfg) in poison.iter().rev() {
        poisoned.insert(at, cfg);
    }

    let clean = explore_configs(&f, &platform, &w, &valid, DseOptions::default())
        .expect("clean sweep");
    assert!(clean.diagnostics.is_clean());

    for threads in [1, 3] {
        let opts = DseOptions { threads, ..DseOptions::default() };
        let result =
            explore_configs(&f, &platform, &w, &poisoned, opts).expect("poisoned sweep");
        assert_eq!(result.diagnostics.skipped_count(), poison.len());
        assert_eq!(result.diagnostics.count_of(ErrorKind::Config), poison.len());
        // Failures are attributed to the exact candidates, in order.
        for (fp, &(at, cfg)) in result.diagnostics.failed.iter().zip(poison.iter()) {
            assert_eq!(fp.index, at + poison.iter().filter(|(b, _)| *b < at).count());
            assert_eq!(fp.config, cfg);
            assert_eq!(fp.kind, ErrorKind::Config);
        }
        assert_points_identical(&clean, &result);
    }
}

#[test]
fn runaway_kernel_exhausts_fuel_instead_of_hanging() {
    let p = flexcl_frontend::parse_and_check(
        "__kernel void spin(__global float* a) {
            int i = get_global_id(0);
            float acc = 0.0f;
            for (int j = 0; j < 1000000; j = j + 1) {
                acc = acc + 1.0f;
            }
            a[i] = acc;
        }",
    )
    .expect("frontend");
    let f = flexcl_ir::lower_kernel(&p.kernels[0]).expect("lowering");
    let w = Workload { args: vec![KernelArg::FloatBuf(vec![0.0; 64])], global: (64, 1) };
    let platform = Platform::virtex7_adm7v3();
    let opts = DseOptions {
        fuel: ProfileFuel { step_limit: 1_000, trace_limit: 1 << 20, ..ProfileFuel::default() },
        ..DseOptions::default()
    };

    let result = sweep(&f, &platform, &w, opts).expect("sweep completes");
    // Every family burns through the budget during profiling: no points,
    // every enumerated candidate attributed as a resource-limit failure.
    assert!(result.points.is_empty());
    assert!(!result.diagnostics.is_clean());
    let n = result.diagnostics.skipped_count();
    assert_eq!(result.diagnostics.count_of(ErrorKind::ResourceLimit), n);
    assert!(result.diagnostics.failed[0].message.contains("spin"));
    // The same budget parallelized reports the same failures.
    let par = sweep(&f, &platform, &w, DseOptions { threads: 3, ..opts })
        .expect("parallel sweep completes");
    assert_eq!(par.diagnostics, result.diagnostics);
}

#[test]
fn corrupt_platform_table_is_rejected_up_front() {
    let (f, w) = vadd();
    let no_ports =
        Platform { local_read_ports_per_bank: 0, ..Platform::virtex7_adm7v3() };
    let err = sweep(&f, &no_ports, &w, DseOptions::default()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Platform);
    assert!(err.to_string().contains("read port"), "{err}");

    let nan_clock = Platform { frequency_mhz: f64::NAN, ..Platform::virtex7_adm7v3() };
    let err = sweep(&f, &nan_clock, &w, DseOptions::default()).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Platform);
}

#[test]
fn injected_panic_is_contained_and_attributed() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let all = enumerate(&limits_for(&f, &w));
    let survivors: Vec<OptimizationConfig> =
        all.iter().copied().filter(|c| c.work_group != (64, 1)).collect();
    assert!(survivors.len() < all.len(), "the (64,1) family must exist");

    let clean = explore_configs(&f, &platform, &w, &survivors, DseOptions::default())
        .expect("clean sweep");

    for threads in [1, 4] {
        let opts = DseOptions {
            threads,
            inject: Some(InjectedFault::AnalysisPanic(Some((64, 1)))),
            ..DseOptions::default()
        };
        let result = sweep(&f, &platform, &w, opts).expect("sweep survives the panic");

        let poisoned_family = all.iter().filter(|c| c.work_group == (64, 1)).count();
        assert_eq!(result.diagnostics.skipped_count(), poisoned_family);
        assert_eq!(result.diagnostics.count_of(ErrorKind::Panic), poisoned_family);
        for fp in &result.diagnostics.failed {
            assert_eq!(fp.config.work_group, (64, 1));
            assert!(fp.message.contains("injected panic"), "{}", fp.message);
        }
        // The other families are untouched: bit-identical to a clean sweep
        // over exactly the surviving candidates.
        assert_points_identical(&clean, &result);
    }
}

#[test]
fn estimate_panic_is_isolated_to_one_candidate() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let all = enumerate(&limits_for(&f, &w));

    // Poison a candidate from the middle of a family: its chunk must keep
    // evaluating past the panic, and the family's other chunks must be
    // untouched.
    let victim = all.len() / 2;
    let survivors: Vec<OptimizationConfig> = all
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, c)| c)
        .collect();
    let clean = explore_configs(&f, &platform, &w, &survivors, DseOptions::default())
        .expect("clean sweep");

    for threads in [1, 4] {
        // Small chunks so the poisoned family spans many chunks.
        let opts = DseOptions {
            threads,
            chunk_size: 7,
            inject: Some(InjectedFault::EstimatePanic(victim)),
            ..DseOptions::default()
        };
        let result = sweep(&f, &platform, &w, opts).expect("sweep survives the panic");

        assert_eq!(result.diagnostics.skipped_count(), 1);
        let fp = &result.diagnostics.failed[0];
        assert_eq!(fp.index, victim);
        assert_eq!(fp.config, all[victim]);
        assert_eq!(fp.kind, ErrorKind::Panic);
        assert!(fp.message.contains("injected panic"), "{}", fp.message);
        // Every other candidate — including the rest of the victim's own
        // chunk and family — is bit-identical to the clean sweep.
        assert_points_identical(&clean, &result);
    }
}

#[test]
fn per_sweep_injected_faults_poison_only_their_own_sweep() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let clean = sweep(&f, &platform, &w, DseOptions::default()).expect("clean sweep");
    assert!(clean.diagnostics.is_clean());

    // An untargeted analysis panic (the serving layer's per-request fault
    // surface) takes down every family of *that* sweep…
    let opts = DseOptions {
        inject: Some(InjectedFault::AnalysisPanic(None)),
        ..DseOptions::default()
    };
    let poisoned = sweep(&f, &platform, &w, opts).expect("sweep survives");
    assert!(poisoned.points.is_empty());
    let n = poisoned.diagnostics.skipped_count();
    assert!(n > 0);
    assert_eq!(poisoned.diagnostics.count_of(ErrorKind::Panic), n);

    // …while the next clean sweep in the same process is untouched: the
    // fault lives in that sweep's options, so it cannot leak.
    let after = sweep(&f, &platform, &w, DseOptions::default()).expect("clean rerun");
    assert!(after.diagnostics.is_clean());
    assert_points_identical(&clean, &after);

    // The estimate-path variant hits exactly one candidate.
    let opts = DseOptions {
        inject: Some(InjectedFault::EstimatePanic(5)),
        ..DseOptions::default()
    };
    let one = sweep(&f, &platform, &w, opts).expect("sweep survives");
    assert_eq!(one.diagnostics.skipped_count(), 1);
    assert_eq!(one.diagnostics.failed[0].index, 5);
    assert_eq!(one.diagnostics.failed[0].kind, ErrorKind::Panic);
}

#[test]
fn disarmed_testhook_costs_nothing_and_changes_nothing() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let a = sweep(&f, &platform, &w, DseOptions::default()).expect("sweep");
    assert!(a.diagnostics.is_clean());
    let b = sweep(&f, &platform, &w, DseOptions::default()).expect("sweep");
    assert_points_identical(&a, &b);
}

#[test]
fn concurrent_targeted_and_clean_sweeps_stay_isolated() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let reference = sweep(&f, &platform, &w, DseOptions::default()).expect("serial reference");
    let victim_family = reference.points.iter().filter(|p| p.config.work_group == (64, 1)).count();
    assert!(victim_family > 0, "the (64,1) family must exist");

    // A sweep poisoned in the 64x1 family and a clean sweep run on two
    // threads at once, both starting from the same barrier: the fault is
    // carried by the poisoned sweep's own options, so the clean one
    // cannot see it.
    let poisoned_opts = DseOptions {
        threads: 2,
        inject: Some(InjectedFault::AnalysisPanic(Some((64, 1)))),
        ..DseOptions::default()
    };
    let clean_opts = DseOptions { threads: 2, ..DseOptions::default() };
    let start = std::sync::Barrier::new(2);
    let run = |opts| {
        start.wait();
        sweep(&f, &platform, &w, opts).expect("sweep survives")
    };
    let (poisoned, clean) = std::thread::scope(|s| {
        let poisoned = s.spawn(|| run(poisoned_opts));
        let clean = s.spawn(|| run(clean_opts));
        (poisoned.join().expect("poisoned thread"), clean.join().expect("clean thread"))
    });

    assert!(clean.diagnostics.is_clean(), "{}", clean.diagnostics);
    assert_points_identical(&reference, &clean);

    assert_eq!(poisoned.diagnostics.skipped_count(), victim_family);
    assert_eq!(poisoned.diagnostics.count_of(ErrorKind::Panic), victim_family);
    for fp in &poisoned.diagnostics.failed {
        assert_eq!(fp.config.work_group, (64, 1));
        assert!(fp.message.contains("injected panic"), "{}", fp.message);
    }
    // Every other family of the poisoned sweep matches the reference.
    let mut survivors = reference.clone();
    survivors.points.retain(|p| p.config.work_group != (64, 1));
    assert_points_identical(&survivors, &poisoned);
}

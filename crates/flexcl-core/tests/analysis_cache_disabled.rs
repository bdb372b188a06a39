//! Regression: `DseOptions.analysis_cache_cap == 0` is the documented
//! no-cache mode — the sweep must not touch the process-wide analysis
//! cache at all (no lookups, no inserts), and the explored points must
//! be bit-identical to a cache-enabled sweep.
//!
//! Before the validation fix, cap 0 fell through to the FIFO insert path
//! with a `max(1)` backstop — the sweep silently cached one entry while
//! claiming to cache none.
//!
//! This lives in its own integration-test binary: the analysis cache is
//! process-global, so sharing a process with cache-exercising tests
//! would make hit/miss counts racy.

mod common;

use common::sweep;
use flexcl_core::{DseOptions, Platform};

#[test]
fn cap_zero_disables_the_analysis_cache_entirely() {
    let (f, w) = common::vadd();
    let platform = Platform::virtex7_adm7v3();
    let opts = DseOptions { analysis_cache_cap: 0, ..DseOptions::default() };

    // First cap-0 sweep: every family must be a miss, nothing cached.
    let first = sweep(&f, &platform, &w, opts).expect("first sweep");
    assert!(first.stats.families_analyzed > 0);
    assert_eq!(first.stats.analysis_cache_hits, 0, "cap 0 must never hit");
    assert_eq!(first.stats.analysis_cache_misses, first.stats.families_analyzed as u64);

    // Second cap-0 sweep of the *same content*: still all misses — the
    // first sweep must not have inserted anything behind our back.
    let second = sweep(&f, &platform, &w, opts).expect("second sweep");
    assert_eq!(second.stats.analysis_cache_hits, 0, "first sweep leaked an insert");
    assert_eq!(second.stats.analysis_cache_misses, second.stats.families_analyzed as u64);

    // No-cache answers are bit-identical to cache-enabled answers.
    let cached_opts = DseOptions::default();
    let cached = sweep(&f, &platform, &w, cached_opts).expect("cached sweep");
    assert_eq!(first.points.len(), cached.points.len());
    for (a, b) in first.points.iter().zip(&cached.points) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.estimate, b.estimate, "{}", a.config);
    }

    // And now the cache is warm: a third cache-enabled sweep hits, which
    // proves the earlier all-miss runs really did mean "disabled" rather
    // than "broken for everyone".
    let warm = sweep(&f, &platform, &w, cached_opts).expect("warm sweep");
    assert_eq!(warm.stats.analysis_cache_hits, warm.stats.families_analyzed as u64);
}

//! The process-wide analysis cache honours [`DseOptions::analysis_cache_cap`]:
//! small caps evict FIFO (with the evictions counted), large caps keep a
//! working set resident, and eviction never changes the modelled result.
//!
//! The cache is process-global, so this file holds a single test — its
//! assertions depend on cache state and must not interleave with another
//! sweep in the same process.

mod common;

use common::{assert_points_identical, sweep, vadd};
use flexcl_core::{DseOptions, Platform};

#[test]
fn small_cache_caps_evict_fifo_and_account_hit_rates() {
    let (f, w) = vadd();
    let platform = Platform::virtex7_adm7v3();
    let at_cap = |cap: usize| DseOptions { analysis_cache_cap: cap, ..DseOptions::default() };

    // Cold sweep: every family misses and is inserted. vadd's standard
    // space has 5 work-group families, so a cap of 2 can hold at most the
    // two most recent.
    let cold = sweep(&f, &platform, &w, at_cap(2)).expect("cold sweep");
    let families = cold.stats.families_analyzed;
    assert!(families > 2, "need more families ({families}) than the cap");
    assert_eq!(cold.stats.analysis_cache_hits, 0);
    assert_eq!(cold.stats.analysis_cache_misses, families as u64);
    // FIFO at cap 2: the first two inserts fit, every later one evicts
    // exactly the oldest entry.
    assert_eq!(cold.stats.analysis_cache_evictions, families as u64 - 2);
    assert_eq!(cold.stats.analysis_cache_hit_rate(), 0.0);

    // Re-sweeping under the starved cap is the classic FIFO thrash: the
    // resident tail families are evicted by the head families' inserts
    // just before they would be queried, so every family misses again and
    // every insert evicts.
    let warm_small = sweep(&f, &platform, &w, at_cap(2)).expect("warm small");
    assert_eq!(warm_small.stats.analysis_cache_hits, 0);
    assert_eq!(warm_small.stats.analysis_cache_misses, families as u64);
    assert_eq!(warm_small.stats.analysis_cache_evictions, families as u64);

    // A cap that fits the working set stops the churn: the two families
    // left resident hit immediately, the rest repopulate without
    // evicting, and from then on every family hits.
    let repopulate = sweep(&f, &platform, &w, at_cap(64)).expect("repopulate");
    assert_eq!(repopulate.stats.analysis_cache_hits, 2);
    assert_eq!(repopulate.stats.analysis_cache_misses, families as u64 - 2);
    assert_eq!(repopulate.stats.analysis_cache_evictions, 0);
    let warm = sweep(&f, &platform, &w, at_cap(64)).expect("warm");
    assert_eq!(warm.stats.analysis_cache_hits, families as u64);
    assert_eq!(warm.stats.analysis_cache_misses, 0);
    assert_eq!(warm.stats.analysis_cache_evictions, 0);
    assert_eq!(warm.stats.analysis_cache_hit_rate(), 1.0);

    // Eviction and cache state never touch the modelled result.
    assert_points_identical(&cold, &warm_small);
    assert_points_identical(&cold, &warm);
}

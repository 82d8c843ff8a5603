//! `count_allocs` reads a process-wide counter, so an exact zero only
//! holds when no other thread allocates meanwhile. This binary holds
//! this one test and nothing else.

use duet_bench::count_allocs;

#[test]
fn counts_nothing_for_pure_code() {
    let (n, sum) = count_allocs(|| (0u64..100).sum::<u64>());
    assert_eq!(sum, 4950);
    assert_eq!(n, 0);
}

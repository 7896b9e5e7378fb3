//! `cargo test -p aoj-bench` runs what `reproduce scenarios` runs: every
//! verified scenario on every backend it covers, so a scenario that rots
//! fails the test suite and not only CI's binary run (≈ 10 s with
//! `--release`, ≈ 35 s without).

use aoj_bench::experiments::select;

// The scenarios that cover the tcp backend re-exec this test binary as
// their worker processes.
aoj_net::worker_entry!();

#[test]
fn every_scenario_holds_its_invariants_on_every_backend_it_covers() {
    aoj_net::install();
    // One test, in table order: the live backends are timing-sensitive
    // enough without six scenarios competing for two cores.
    for (_, run) in select("scenarios").unwrap() {
        run();
    }
}

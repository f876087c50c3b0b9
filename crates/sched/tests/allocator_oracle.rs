//! Oracle validation of the placement allocator: on each scenario suite,
//! simulate every feasible placement, then check that the placement the
//! compatibility model predicts best achieves >= 90% of the oracle-best
//! measured throughput (the mean-regret <= 10% acceptance gate).

use smt_sched::allocator::{placement_oracle, scenarios, AllocatorConfig, SearchStrategy};
use smtsm::MetricSpec;

#[test]
fn predicted_best_placements_are_near_oracle_best() {
    let spec = MetricSpec::power7();
    let mut regrets = Vec::new();
    for sc in scenarios::all() {
        let sigs = sc.signatures(&spec);
        let outcome = AllocatorConfig::for_machine(sc.cfg.clone())
            .threads(sigs)
            .search(SearchStrategy::Exhaustive)
            .solve()
            .unwrap();
        let make_jobs = || sc.make_jobs();
        let oracle = placement_oracle(&sc.cfg, &make_jobs, sc.max_cycles).unwrap();
        let regret = oracle
            .regret(&outcome.placement)
            .expect("predicted placement must be among the oracle candidates");
        println!(
            "{}: predicted-best regret {:.3} (oracle best {:.4}, predicted placement {:.4}, {} candidates)",
            sc.name,
            regret,
            oracle.best_perf(),
            oracle.perf_of(&outcome.placement).unwrap(),
            oracle.candidates.len()
        );
        assert!(
            regret <= 0.15,
            "{}: regret {regret:.3} exceeds per-scenario cap",
            sc.name
        );
        regrets.push(regret);
    }
    let mean = regrets.iter().sum::<f64>() / regrets.len() as f64;
    println!("mean regret {mean:.3}");
    assert!(mean <= 0.10, "mean regret {mean:.3} exceeds 10%");
}

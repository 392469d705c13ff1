//! The traced driver replays `TestPlatform::run_trial` exactly: same
//! verdicts, same failure counts, same outcome down to the last field —
//! on every workload's configuration, for several seeds. It refuses the
//! configurations it does not replicate.

use perfbench::driver::{Layers, TracedDriver};
use perfbench::{trial_seed, Workload, WORKLOADS};
use pfault_platform::{TestPlatform, TrialOutcome};
use pfault_workload::{ArrivalModel, WorkloadSpec};

fn json(outcome: &TrialOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

#[test]
fn traced_driver_matches_the_platform_on_every_workload() {
    for name in WORKLOADS {
        let w = Workload::named(name).expect("known workload");
        let platform = TestPlatform::new(w.trial_config());
        let driver = TracedDriver::new(w.trial_config()).expect("workload is replicable");
        let mut layers = Layers::default();
        for i in 0..4 {
            let seed = trial_seed(7 + i, i);
            let expected = platform.run_trial(seed).expect("trial completes");
            let traced = driver
                .run_trial(seed, &mut layers)
                .expect("traced trial completes");
            assert_eq!(traced.counts, expected.counts, "{name} seed {seed}: counts");
            assert_eq!(
                traced.verdicts, expected.verdicts,
                "{name} seed {seed}: verdicts"
            );
            assert_eq!(
                json(&traced),
                json(&expected),
                "{name} seed {seed}: outcome"
            );
        }
        assert_eq!(layers.trials, 4);
        assert!(
            layers.advances > 0 && layers.submits > 0,
            "{name}: no device work traced"
        );
        assert!(
            layers.covered_ns() <= layers.trial_ns,
            "{name}: spans exceed the trial"
        );
    }
}

#[test]
fn traced_driver_rejects_configs_it_does_not_replicate() {
    let base = Workload::named("paper-cold")
        .expect("known workload")
        .trial_config();
    let open_loop = base.with_workload(
        WorkloadSpec::builder()
            .arrival(ArrivalModel::OpenLoop { iops: 1000.0 })
            .build(),
    );
    let poisson = base.with_workload(
        WorkloadSpec::builder()
            .arrival(ArrivalModel::OpenLoopPoisson { iops: 1000.0 })
            .build(),
    );
    let storm = base.with_recovery_storm(0.5, 2);
    let obs = base.with_obs(true);
    for config in [open_loop, poisson, storm, obs] {
        assert!(TracedDriver::new(config).is_err(), "accepted {config:?}");
    }
    // A storm rate with no cuts allowed never strikes: still replicable.
    assert!(TracedDriver::new(base.with_recovery_storm(0.5, 0)).is_ok());
}

//! The campaign benchmark's library: the three workloads and the traced
//! trial driver.
//!
//! The binary (`src/main.rs`) runs each workload as a campaign through
//! the public `Campaign` API for the end-to-end metrics, and repeats the
//! trials serially through [`driver::TracedDriver`] for the per-layer
//! ones. See `README.md` for why each workload exists.

#![forbid(unsafe_code)]

pub mod driver;

use pfault_platform::campaign::{Campaign, CampaignConfig};
use pfault_platform::plan::PlanSpec;
use pfault_platform::TrialConfig;
use pfault_sim::storage::{GIB, KIB};
use pfault_sim::DetRng;
use pfault_workload::{AccessPattern, ArrivalModel, SizeSpec, WorkloadSpec};

/// The seed the recorded report digests are taken at (the paper's
/// publication date, as everywhere else in the repository).
pub const DEFAULT_SEED: u64 = 20180429;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper-cold", "deep-image", "mixed-flush"];

/// One benchmark workload: a campaign configuration plus the number of
/// trials in one timed campaign.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// The campaign template.
    pub config: CampaignConfig,
    /// Trials per campaign (`PlanSpec::fixed`).
    pub trials: u64,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Workload> {
        let mut config = CampaignConfig::paper_default();
        let trials = match name {
            // The trial shape `repro --scale paper` runs for every figure.
            "paper-cold" => 256,
            // The same drive after a long warm-up: recovery scans a deep
            // journal and every trial clones a large image.
            "deep-image" => {
                config.trial.warmup_requests = 2048;
                config.requests_per_trial = 40;
                64
            }
            // Small mixed IO with FLUSH barriers: tiny trials, so fixed
            // per-trial costs show first.
            "mixed-flush" => {
                config.trial.workload = WorkloadSpec::builder()
                    .write_fraction(0.5)
                    .size(SizeSpec::FixedBytes(4 * KIB))
                    .pattern(AccessPattern::Zipf { theta: 0.9 })
                    .wss_bytes(GIB)
                    .arrival(ArrivalModel::ClosedLoop { queue_depth: 8 })
                    .build();
                config.trial.flush_every = Some(16);
                config.trial.warmup_requests = 256;
                2048
            }
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        Some(Workload {
            name,
            config,
            trials,
        })
    }

    /// The configuration every trial of the campaign runs — the template
    /// with `requests_per_trial` applied, exactly as the campaign engine
    /// derives it (so its digest keys the same cached warm image).
    pub fn trial_config(&self) -> TrialConfig {
        let mut trial = self.config.trial;
        trial.requests = self.config.requests_per_trial;
        trial
    }

    /// The campaign at `seed` on `threads` workers.
    pub fn campaign(&self, seed: u64, threads: usize) -> Campaign {
        Campaign::builder(self.config)
            .plan(PlanSpec::fixed(self.trials))
            .seed(seed)
            .threads(threads)
            .snapshot_cache(true)
            .build()
    }
}

/// Seed of trial `index` in a campaign seeded with `campaign_seed` — the
/// campaign engine's derivation, so the traced driver replays the very
/// trials the campaign ran.
pub fn trial_seed(campaign_seed: u64, index: u64) -> u64 {
    DetRng::new(campaign_seed).fork_index(index).next_u64()
}

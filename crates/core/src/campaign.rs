//! Fault-injection campaigns: many trials, aggregated.
//!
//! The paper's experiments each inject hundreds of faults ("more than 300
//! power faults … during 24,000 requests"). A [`Campaign`] runs one trial
//! per fault with an independent derived seed and aggregates the
//! [`FailureCounts`] into a [`CampaignReport`]. There is one campaign
//! loop, [`Campaign::execute`]: it runs the campaign's [`PlanSpec`] round
//! by round on the work-stealing scheduler ([`crate::scheduler`]) and
//! absorbs every trial in canonical index order, so runs of the same
//! seed produce **byte-identical** reports at any thread count — and
//! checkpoints, observers, pause and resume work at every thread count
//! too.
//!
//! With [`TrialConfig::warmup_requests`] set, trials start from a shared
//! warm device state. The warm-up is run once per configuration, frozen
//! as a [`pfault_ssd::DeviceImage`], memoized in the process-wide
//! [`crate::snapcache`], and copy-on-write-cloned per trial —
//! byte-identical to replaying the warm-up inline, at a fraction of the
//! cost (the clone shares the flash arena and materialises only the
//! blocks the trial touches).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pfault_obs::Metrics;
use pfault_sim::checksum::fnv64;
use pfault_sim::stats::{Histogram, OnlineStats};
use pfault_sim::DetRng;
use pfault_ssd::DeviceImage;

use crate::analyzer::FailureCounts;
use crate::error::{CheckpointError, PlatformError, TrialError};
use crate::plan::{PlanReport, PlanSpec, PlanState};
use crate::platform::{TestPlatform, TrialConfig, TrialOutcome};
use crate::scheduler::{self, SchedulerStats};

/// Campaign configuration: a trial template plus the fault count.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Template for every trial.
    pub trial: TrialConfig,
    /// Number of fault injections (= trials).
    pub trials: usize,
    /// Requests submitted per trial (overrides `trial.requests`).
    pub requests_per_trial: usize,
}

impl CampaignConfig {
    /// The paper's §IV default: ~80 requests per fault on SSD A.
    pub fn paper_default() -> Self {
        let trial = TrialConfig::paper_default();
        CampaignConfig {
            requests_per_trial: trial.requests,
            trial,
            trials: 300,
        }
    }
}

/// Trials that produced no outcome, by terminal cause, plus the retry
/// effort the campaign spent. Indices are campaign trial indices
/// (`0..trials`), kept sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialFailures {
    /// Trials whose body panicked on every attempt.
    pub panicked: Vec<u64>,
    /// Trials that exceeded the watchdog budget on every attempt.
    pub watchdog_expired: Vec<u64>,
    /// Trials whose device bricked (never mounted again) on every attempt.
    pub bricked: Vec<u64>,
    /// Extra attempts spent across all trials (0 if nothing was retried).
    pub retries: u64,
}

impl TrialFailures {
    /// Total trials that failed terminally.
    pub fn total_failed(&self) -> usize {
        self.panicked.len() + self.watchdog_expired.len() + self.bricked.len()
    }

    pub(crate) fn record(&mut self, index: u64, error: &TrialError) {
        match error {
            TrialError::Panicked { .. } => self.panicked.push(index),
            TrialError::WatchdogExpired { .. } => self.watchdog_expired.push(index),
            TrialError::DeviceBricked { .. } => self.bricked.push(index),
        }
    }
}

/// Campaign-level observability aggregate: probe-derived counters and
/// histograms summed over every obs-enabled trial, plus per-failure-class
/// slices (the same metrics restricted to trials that exhibited that
/// class). Empty — and free — when [`TrialConfig::obs`] is off.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsAggregate {
    /// Trials whose telemetry contributed.
    pub trials_observed: u64,
    /// Metrics summed over all observed trials.
    pub totals: Metrics,
    /// Per-failure-class telemetry: a trial's metrics are merged into the
    /// bucket of every failure class it exhibited (`data-failure`,
    /// `false-write-ack`, `io-error`, `read-only`) or into `clean` if it
    /// exhibited none. Keys are stable strings so the JSON report is
    /// self-labelled.
    pub by_class: BTreeMap<String, Metrics>,
}

impl ObsAggregate {
    /// The failure-class labels a trial's telemetry files under.
    fn classes(counts: &FailureCounts) -> Vec<&'static str> {
        let mut classes = Vec::new();
        if counts.data_failures > 0 {
            classes.push("data-failure");
        }
        if counts.fwa > 0 {
            classes.push("false-write-ack");
        }
        if counts.io_errors > 0 {
            classes.push("io-error");
        }
        if counts.read_only_devices > 0 {
            classes.push("read-only");
        }
        if classes.is_empty() {
            classes.push("clean");
        }
        classes
    }

    fn absorb(&mut self, outcome: &TrialOutcome) {
        let Some(telemetry) = &outcome.telemetry else {
            return;
        };
        self.trials_observed += 1;
        self.totals.merge(telemetry);
        for class in Self::classes(&outcome.counts) {
            self.by_class
                .entry(class.to_string())
                .or_default()
                .merge(telemetry);
        }
    }

    /// Whether no trial contributed telemetry.
    pub fn is_empty(&self) -> bool {
        self.trials_observed == 0
    }
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Faults injected.
    pub faults: u64,
    /// Requests issued across all trials.
    pub requests_issued: u64,
    /// Requests completed across all trials.
    pub requests_completed: u64,
    /// Failure tallies across all trials.
    pub counts: FailureCounts,
    /// Distribution of per-trial responded IOPS.
    pub responded_iops: OnlineStats,
    /// Distribution of ACK→fault intervals over failed requests (ms) —
    /// the §IV-A quantity.
    pub failed_ack_interval_ms: OnlineStats,
    /// Largest observed ACK→fault interval among failed requests (ms).
    pub max_failed_ack_interval_ms: f64,
    /// Distribution of those intervals in 50 ms buckets up to 1 s (the
    /// §IV-A histogram).
    pub failed_ack_interval_hist: Histogram,
    /// Programs interrupted mid-operation across all trials.
    pub interrupted_programs: u64,
    /// Paired-page collateral corruptions across all trials.
    pub paired_corruptions: u64,
    /// Trials that ended without an outcome (panic, watchdog, brick).
    pub failures: TrialFailures,
    /// Probe-derived telemetry (empty unless trials ran with
    /// [`TrialConfig::obs`]).
    pub obs: ObsAggregate,
    /// Planner state of an adaptive (`Confidence`) plan; `None` for
    /// fixed-size campaigns: per-stratum tallies, round index, and
    /// current round targets. Living inside the report means checkpoint
    /// v6 persists it automatically, so adaptive campaigns pause/resume
    /// byte-identically.
    pub plan: Option<PlanState>,
}

impl CampaignReport {
    fn empty() -> Self {
        CampaignReport {
            faults: 0,
            requests_issued: 0,
            requests_completed: 0,
            counts: FailureCounts::default(),
            responded_iops: OnlineStats::new(),
            failed_ack_interval_ms: OnlineStats::new(),
            max_failed_ack_interval_ms: 0.0,
            failed_ack_interval_hist: Histogram::new(50.0, 20),
            interrupted_programs: 0,
            paired_corruptions: 0,
            failures: TrialFailures::default(),
            obs: ObsAggregate::default(),
            plan: None,
        }
    }

    fn absorb(&mut self, outcome: &TrialOutcome) {
        self.faults += 1;
        self.requests_issued += outcome.requests_issued;
        self.requests_completed += outcome.requests_completed;
        self.counts.merge(&outcome.counts);
        self.responded_iops.push(outcome.responded_iops);
        for &interval in &outcome.failed_ack_intervals_ms {
            self.failed_ack_interval_ms.push(interval);
            self.failed_ack_interval_hist.record(interval);
            if interval > self.max_failed_ack_interval_ms {
                self.max_failed_ack_interval_ms = interval;
            }
        }
        self.interrupted_programs += outcome.interrupted_programs;
        self.paired_corruptions += outcome.paired_corruptions;
        self.obs.absorb(outcome);
    }

    /// Tallies a trial that ended without an outcome. The fault was still
    /// injected (the trial ran up to and past the discharge before dying),
    /// and a bricked device is a first-class failure alongside the per-
    /// request verdicts.
    fn absorb_failure(&mut self, index: u64, error: &TrialError) {
        self.faults += 1;
        if matches!(error, TrialError::DeviceBricked { .. }) {
            self.counts.bricked_devices += 1;
        }
        self.failures.record(index, error);
    }

    /// Absorbs one trial result; the campaign loop funnels results
    /// through this in canonical index order.
    fn absorb_result(&mut self, index: u64, result: Result<TrialOutcome, TrialError>, retries: u64) {
        self.failures.retries += retries;
        match result {
            Ok(outcome) => self.absorb(&outcome),
            Err(error) => self.absorb_failure(index, &error),
        }
    }

    /// Data failures (excluding FWA) per injected fault — the paper's
    /// right-hand axis in Figs 5–7 and 9.
    pub fn data_failures_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.counts.data_failures as f64 / self.faults as f64
    }

    /// Total data-loss events (data failures + FWA) per fault.
    pub fn data_loss_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.counts.total_data_loss() as f64 / self.faults as f64
    }

    /// IO errors per fault.
    pub fn io_errors_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.counts.io_errors as f64 / self.faults as f64
    }

    /// The planner's verdict for an adaptive run: n, p̂, intervals, and
    /// the strata breakdown. `None` for fixed-size campaigns.
    pub fn plan_report(&self) -> Option<PlanReport> {
        self.plan.as_ref().map(PlanState::report)
    }
}

/// On-disk snapshot of a partially completed campaign: trials
/// `0..completed` are absorbed into `report`. The identity fields pin the
/// snapshot to one (config, seed) pair so a resume cannot silently mix
/// campaigns.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CampaignCheckpoint {
    version: u32,
    config_digest: u64,
    seed: u64,
    trials: u64,
    completed: u64,
    report: CampaignReport,
}

// v3: `FailureCounts` gained `read_only_devices` and `TrialConfig` the
// recovery-storm knobs, so v2 snapshots no longer deserialize into the
// same report shape.
// v4: `FailureCounts` gained the fleet-layer tallies (`stripes_lost`,
// `degraded_reads`, `rebuilds_interrupted`), so v3 snapshots
// deserialize into a different report shape again.
// v5: `FailureCounts` gained the application-layer oracle tallies
// (`app_surfaced`, `app_masked`, `app_silent_poison`); a v4 snapshot
// resumed into a v5 campaign would silently zero-fill them, so stale
// versions are rejected loudly instead.
// v6: `CampaignReport` gained the embedded planner state (`plan`) for
// adaptive campaigns, and the config digest now covers the campaign's
// `PlanSpec` — a v5 snapshot would deserialize into a different report
// shape and lose the planner's round/tally state.
const CHECKPOINT_VERSION: u32 = 6;

/// Per-trial progress handed to an [`Exec::observer`]
/// after the trial's result has been absorbed (and, at checkpoint
/// boundaries, after the checkpoint hit disk — so an observer that
/// persists progress can rely on the snapshot being durable first).
#[derive(Debug)]
pub struct CampaignProgress<'a> {
    /// Trials absorbed so far (`1..=trials`).
    pub completed: u64,
    /// Total trials the campaign will run (for adaptive plans, the
    /// current round target, which grows as the planner extends the
    /// run).
    pub trials: u64,
    /// Whether a boundary checkpoint was written just before this call.
    pub checkpointed: bool,
    /// The report as of `completed` trials.
    pub report: &'a CampaignReport,
}

/// An observer's verdict after each trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressSignal {
    /// Keep running trials.
    Continue,
    /// Stop after this trial. If the campaign has a checkpoint
    /// configured, the current prefix is checkpointed first, so a later
    /// resume ([`Exec::resume`]) picks up exactly here.
    Pause,
}

/// Outcome of an observed run: the report so far plus whether the
/// observer paused the campaign before all trials ran.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The (possibly partial) aggregated report.
    pub report: CampaignReport,
    /// Trials absorbed into `report`.
    pub completed: u64,
    /// `true` iff the observer returned [`ProgressSignal::Pause`]
    /// before the final trial.
    pub paused: bool,
}

/// How [`Campaign::execute`] runs. `Exec::default()` is a fresh run
/// with no observer.
#[derive(Default)]
pub struct Exec<'a> {
    /// Called after every absorbed trial, in trial order — and, at
    /// checkpoint boundaries, after the checkpoint hit disk, so an
    /// observer that persists progress can rely on the snapshot being
    /// durable first. Returning [`ProgressSignal::Pause`] stops the run
    /// (checkpointing the prefix when a checkpoint is configured).
    pub observer: Option<&'a mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal>,
    /// Resume from this checkpoint instead of starting fresh. The
    /// checkpoint must match this campaign's seed, trial count, and
    /// configuration; the final report is byte-identical to an
    /// uninterrupted run.
    pub resume: Option<&'a Path>,
}

/// A campaign runner. Construct via [`Campaign::builder`] (or the
/// [`Campaign::new`] shorthand for a default single-threaded campaign).
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    plan: Option<PlanSpec>,
    seed: u64,
    retries: u32,
    checkpoint: Option<CheckpointSpec>,
    threads: usize,
    snapshot_cache: bool,
}

#[derive(Debug, Clone)]
struct CheckpointSpec {
    path: PathBuf,
    every: u64,
}

/// Builder for [`Campaign`]:
///
/// ```
/// use pfault_platform::campaign::{Campaign, CampaignConfig};
///
/// let mut config = CampaignConfig::paper_default();
/// config.trials = 2;
/// config.requests_per_trial = 10;
/// let campaign = Campaign::builder(config)
///     .seed(42)
///     .threads(2)
///     .snapshot_cache(true)
///     .build();
/// let report = campaign.run_auto().expect("campaign runs");
/// assert_eq!(report.faults, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder(Campaign);

impl CampaignBuilder {
    /// Sizes the campaign with a [`PlanSpec`] — the single sizing
    /// surface across the workspace. `PlanSpec::fixed(n)` runs exactly
    /// n trials; a confidence spec runs adaptive rounds until the
    /// interval is tight. The config's `trials` field is set to the
    /// plan's budget so legacy readers keep a meaningful denominator.
    /// Splitting specs are rejected at run time: whole campaigns expose
    /// only pass/fail bits, not severities.
    #[must_use]
    pub fn plan(mut self, spec: PlanSpec) -> Self {
        self.0.config.trials = spec.trial_budget() as usize;
        self.0.plan = Some(spec);
        self
    }

    /// Seeds every trial (defaults to 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Worker threads for [`Campaign::execute`] (default 1; clamped to
    /// ≥ 1). The thread count never changes the report — only how fast
    /// it is produced.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.0.threads = threads.max(1);
        self
    }

    /// Retries each failing trial up to `retries` extra attempts, each
    /// with a deterministically derived fresh seed. The first attempt
    /// always uses the original trial seed, so a campaign with zero
    /// failures is unaffected by this setting.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.0.retries = retries;
        self
    }

    /// Writes a resumable JSON checkpoint to `path` after every `every`
    /// completed trials (`every` is clamped to ≥ 1), at any thread
    /// count. The write is atomic and durable
    /// ([`crate::fsutil::write_atomic`]).
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.0.checkpoint = Some(CheckpointSpec {
            path: path.into(),
            every: every.max(1),
        });
        self
    }

    /// Whether warm-up device images are served from the process-wide
    /// memoized cache (default `true`). Only meaningful when the trial
    /// configuration sets [`TrialConfig::warmup_requests`]; with the
    /// cache off, every trial replays the warm-up inline — byte-identical
    /// results, just slower.
    #[must_use]
    pub fn snapshot_cache(mut self, enabled: bool) -> Self {
        self.0.snapshot_cache = enabled;
        self
    }

    /// Finalizes the campaign.
    pub fn build(self) -> Campaign {
        self.0
    }
}

impl Campaign {
    /// Starts a builder for `config` with the defaults: seed 0, one
    /// thread, no retries, no checkpointing, snapshot cache on.
    pub fn builder(config: CampaignConfig) -> CampaignBuilder {
        CampaignBuilder(Campaign {
            config,
            plan: None,
            seed: 0,
            retries: 0,
            checkpoint: None,
            threads: 1,
            snapshot_cache: true,
        })
    }

    /// Creates a campaign; `seed` determines every trial. Shorthand for
    /// `Campaign::builder(config).seed(seed).build()`.
    pub fn new(config: CampaignConfig, seed: u64) -> Self {
        Campaign::builder(config).seed(seed).build()
    }

    /// The configured worker-thread count ([`CampaignBuilder::threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn trial_config(&self) -> TrialConfig {
        let mut t = self.config.trial;
        t.requests = self.config.requests_per_trial;
        t
    }

    fn trial_seed(&self, index: usize) -> u64 {
        DetRng::new(self.seed).fork_index(index as u64).next_u64()
    }

    /// Seed for attempt `attempt` of trial `index`. Attempt 0 is the
    /// original [`Campaign::trial_seed`] stream; retries fork a disjoint
    /// stream so a retried trial sees fresh (but reproducible) randomness.
    fn attempt_seed(&self, index: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return self.trial_seed(index as usize);
        }
        DetRng::new(self.seed)
            .fork("retry")
            .fork_index(index)
            .fork_index(u64::from(attempt))
            .next_u64()
    }

    /// Fingerprint of everything that shapes trial behaviour — including
    /// the plan spec, since the planner decides which trials run — used
    /// to pin checkpoints to their campaign.
    fn config_digest(&self) -> u64 {
        fnv64(format!("{:?}|plan={:?}", self.config, self.plan).as_bytes())
    }

    /// The effective sizing spec: the explicit plan, or fixed-N from
    /// the config's trial count.
    pub fn plan_spec(&self) -> PlanSpec {
        self.plan
            .unwrap_or(PlanSpec::Fixed {
                trials: self.config.trials as u64,
            })
    }

    /// The memoized warm image for this campaign, if image cloning
    /// applies (cache enabled *and* the trial configuration has a
    /// warm-up). `None` means trials build their device themselves —
    /// cold, or with an inline warm-up replay.
    fn campaign_image(&self, platform: &TestPlatform) -> Option<Arc<DeviceImage>> {
        (self.snapshot_cache && platform.config().warmup_requests > 0)
            .then(|| crate::snapcache::warm_image_for(platform))
    }

    /// Runs one trial with panic isolation and deterministic retry.
    /// Returns the outcome (or the last attempt's error) plus the number
    /// of extra attempts consumed. With a warm image, the trial clones
    /// the shared warm state copy-on-write instead of replaying the
    /// warm-up — the two paths are byte-identical (`TestPlatform`
    /// contract).
    fn run_one(
        &self,
        platform: &TestPlatform,
        image: Option<&DeviceImage>,
        index: u64,
    ) -> (Result<TrialOutcome, TrialError>, u64) {
        let mut attempt: u32 = 0;
        loop {
            let seed = self.attempt_seed(index, attempt);
            let result = panic::catch_unwind(AssertUnwindSafe(|| match image {
                Some(image) => platform.run_trial_from_image(image, seed),
                None => platform.run_trial(seed),
            }));
            let error = match result {
                Ok(Ok(outcome)) => return (Ok(outcome), u64::from(attempt)),
                Ok(Err(e)) => e,
                Err(payload) => TrialError::Panicked {
                    seed,
                    message: panic_message(payload.as_ref()),
                },
            };
            if attempt >= self.retries {
                return (Err(error), u64::from(attempt));
            }
            attempt += 1;
        }
    }

    /// Runs the campaign: the one trial loop every run, resume, and
    /// observed run goes through. Trials run round by round on the
    /// work-stealing scheduler at [`CampaignBuilder::threads`] (a fixed
    /// plan is one round; an adaptive plan runs until its interval is
    /// tight). Each trial's result is absorbed in canonical index order,
    /// together with the planner tally, the round-boundary decision,
    /// boundary checkpoints, and the observer — so a paused run
    /// checkpoints exactly the prefix a serial loop would have, and a
    /// resumed run at any thread count is byte-identical to an
    /// uninterrupted one.
    ///
    /// Trials that panic, exceed the watchdog budget, or brick the
    /// device are retried per [`CampaignBuilder::retries`] and, if still
    /// failing, recorded in [`CampaignReport::failures`] — the campaign
    /// keeps going. Errors on checkpoint IO, on a checkpoint that does
    /// not belong to this campaign, and on splitting plans.
    pub fn execute(&self, exec: Exec<'_>) -> Result<ObservedRun, PlatformError> {
        Ok(self.run_rounds(exec, self.threads)?.0)
    }

    /// A fresh run with no observer, returning the final report.
    pub fn run_auto(&self) -> Result<CampaignReport, PlatformError> {
        Ok(self.execute(Exec::default())?.report)
    }

    /// A fresh run at `threads` workers, also returning the scheduler's
    /// per-worker telemetry (trials run, steals, utilization) summed over
    /// the rounds. The stats are wall-clock-dependent and live outside
    /// the report so reports stay thread-count-independent.
    ///
    /// # Panics
    ///
    /// Where [`Campaign::execute`] would return an error.
    pub fn run_stealing_with_stats(&self, threads: usize) -> (CampaignReport, SchedulerStats) {
        match self.run_rounds(Exec::default(), threads) {
            Ok((run, stats)) => (run.report, stats),
            Err(e) => panic!("campaign failed: {e}"),
        }
    }

    /// The report and trial index a run starts from: empty (with fresh
    /// planner state for adaptive plans), or the checkpointed prefix.
    fn start(&self, resume: Option<&Path>) -> Result<(CampaignReport, u64), PlatformError> {
        let spec = self.plan_spec();
        if matches!(spec, PlanSpec::Splitting { .. }) {
            return Err(PlatformError::InvalidConfig(
                "splitting plans need a severity source (plan::run_plan on a PlanPoint); \
                 whole campaigns expose only pass/fail trials"
                    .to_string(),
            ));
        }
        let adaptive = matches!(spec, PlanSpec::Confidence { .. });
        let Some(path) = resume else {
            let mut report = CampaignReport::empty();
            if adaptive {
                report.plan = Some(PlanState::single(spec)?);
            }
            return Ok((report, 0));
        };
        let snapshot = self.load_checkpoint(path)?;
        let mut report = snapshot.report;
        if !adaptive {
            // A fixed plan's state is redundant with `completed`; fixed
            // reports carry none on any path.
            report.plan = None;
        } else if report.plan.is_none() {
            return Err(CheckpointError::Corrupt(
                "checkpoint carries no planner state for this adaptive plan".to_string(),
            )
            .into());
        }
        Ok((report, snapshot.completed))
    }

    /// The end of the next round, or `None` once the run is done.
    fn round_target(
        &self,
        report: &mut CampaignReport,
        completed: u64,
    ) -> Result<Option<u64>, PlatformError> {
        let Some(state) = report.plan.as_mut() else {
            let trials = self.config.trials as u64;
            return Ok((completed < trials).then_some(trials));
        };
        while !state.done && completed >= state.targets[0] {
            state.advance()?;
        }
        Ok((!state.done).then(|| state.targets[0]))
    }

    fn run_rounds(
        &self,
        exec: Exec<'_>,
        threads: usize,
    ) -> Result<(ObservedRun, SchedulerStats), PlatformError> {
        let Exec {
            mut observer,
            resume,
        } = exec;
        let (report, completed) = self.start(resume)?;
        let platform = TestPlatform::new(self.trial_config());
        let image = self.campaign_image(&platform);
        let mut run = RunState {
            report,
            completed,
            paused: false,
            error: None,
        };
        let mut stats = SchedulerStats::default();
        while let Some(target) = self.round_target(&mut run.report, run.completed)? {
            let (next, round) = scheduler::run_work_stealing(
                run.completed..target,
                threads,
                scheduler::DEFAULT_CHUNK,
                |i| self.run_one(&platform, image.as_deref(), i),
                run,
                |run, i, (result, retries_used)| {
                    match self.absorb(run, i, result, retries_used, observer.as_deref_mut()) {
                        Ok(false) => return ControlFlow::Continue(()),
                        Ok(true) => run.paused = true,
                        Err(error) => run.error = Some(error),
                    }
                    ControlFlow::Break(())
                },
            );
            run = next;
            stats.merge(round);
            if let Some(error) = run.error.take() {
                return Err(error);
            }
            if run.paused {
                break;
            }
        }
        let observed = ObservedRun {
            report: run.report,
            completed: run.completed,
            paused: run.paused,
        };
        Ok((observed, stats))
    }

    /// Absorbs trial `index` — the in-order step of the campaign loop:
    /// report, planner tally and round boundary, boundary checkpoint,
    /// observer. Returns whether the observer paused the run (a pause
    /// checkpoints the prefix when a checkpoint is configured).
    fn absorb(
        &self,
        run: &mut RunState,
        index: u64,
        result: Result<TrialOutcome, TrialError>,
        retries_used: u64,
        observer: Option<&mut (dyn FnMut(CampaignProgress<'_>) -> ProgressSignal + '_)>,
    ) -> Result<bool, PlatformError> {
        let failed = trial_failed(&result);
        run.report.absorb_result(index, result, retries_used);
        let completed = index + 1;
        run.completed = completed;
        let (done, trials) = match run.report.plan.as_mut() {
            None => {
                let trials = self.config.trials as u64;
                (completed >= trials, trials)
            }
            Some(state) => {
                state.absorb(0, failed);
                if state.round_complete() {
                    state.advance()?;
                }
                (state.done, state.targets[0].max(completed))
            }
        };
        let boundary = self
            .checkpoint
            .as_ref()
            .filter(|spec| completed.is_multiple_of(spec.every) && !done);
        if let Some(spec) = boundary {
            self.write_checkpoint(spec, completed, &run.report)?;
        }
        let paused = observer.is_some_and(|observer| {
            let progress = CampaignProgress {
                completed,
                trials,
                checkpointed: boundary.is_some(),
                report: &run.report,
            };
            observer(progress) == ProgressSignal::Pause
        }) && !done;
        if let Some(spec) = self.checkpoint.as_ref().filter(|_| paused && boundary.is_none()) {
            self.write_checkpoint(spec, completed, &run.report)?;
        }
        Ok(paused)
    }

    fn write_checkpoint(
        &self,
        spec: &CheckpointSpec,
        completed: u64,
        report: &CampaignReport,
    ) -> Result<(), CheckpointError> {
        let snapshot = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            config_digest: self.config_digest(),
            seed: self.seed,
            trials: self.config.trials as u64,
            completed,
            report: report.clone(),
        };
        let text = serde_json::to_string(&snapshot)
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        crate::fsutil::write_atomic(&spec.path, text.as_bytes())?;
        Ok(())
    }

    /// Reads and validates a checkpoint written by this campaign.
    fn load_checkpoint(&self, path: &Path) -> Result<CampaignCheckpoint, PlatformError> {
        let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
        let snapshot: CampaignCheckpoint =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        check_match("version", snapshot.version, CHECKPOINT_VERSION)?;
        check_match("seed", snapshot.seed, self.seed)?;
        check_match("trials", snapshot.trials, self.config.trials as u64)?;
        check_match(
            "config_digest",
            snapshot.config_digest,
            self.config_digest(),
        )?;
        if snapshot.completed > snapshot.trials {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint claims {} completed trials of {}",
                snapshot.completed, snapshot.trials
            ))
            .into());
        }
        Ok(snapshot)
    }

    /// The checkpoint's `(completed, report)` pair, validated but not
    /// run — daemons use the report to reconstruct the progress record
    /// a crash may have kept out of their result journal.
    pub fn checkpoint_snapshot(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(u64, CampaignReport), PlatformError> {
        let snapshot = self.load_checkpoint(path.as_ref())?;
        Ok((snapshot.completed, snapshot.report))
    }
}

/// The accumulator of the campaign loop: the report so far plus how the
/// run stands. Moves through each round's scheduler pass by value.
struct RunState {
    report: CampaignReport,
    completed: u64,
    paused: bool,
    error: Option<PlatformError>,
}

/// The binary failure bit the planner tallies per campaign trial: any
/// data loss (data failures or FWA), or a trial that ended without an
/// outcome at all (panic, watchdog, brick).
fn trial_failed(result: &Result<TrialOutcome, TrialError>) -> bool {
    match result {
        Ok(outcome) => outcome.counts.total_data_loss() > 0,
        Err(_) => true,
    }
}

/// Renders a `catch_unwind` payload for [`TrialError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn check_match<T>(field: &'static str, found: T, expected: T) -> Result<(), CheckpointError>
where
    T: PartialEq + std::fmt::Display,
{
    if found == expected {
        Ok(())
    } else {
        Err(CheckpointError::Mismatch {
            field,
            found: found.to_string(),
            expected: expected.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::storage::GIB;
    use pfault_workload::WorkloadSpec;

    fn tiny_config() -> CampaignConfig {
        let mut config = CampaignConfig::paper_default();
        config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
        config.trial.workload = WorkloadSpec::builder().wss_bytes(4 * GIB).build();
        config.trials = 6;
        config.requests_per_trial = 25;
        config
    }

    fn run(campaign: &Campaign) -> CampaignReport {
        campaign.run_auto().expect("campaign runs")
    }

    /// `config` at `seed` on `threads` workers.
    fn at(config: CampaignConfig, seed: u64, threads: usize) -> CampaignReport {
        run(&Campaign::builder(config).seed(seed).threads(threads).build())
    }

    fn report_bytes(report: &CampaignReport) -> String {
        serde_json::to_string(report).expect("report serializes")
    }

    fn checkpoint_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn resume(campaign: &Campaign, path: &Path) -> Result<ObservedRun, PlatformError> {
        campaign.execute(Exec {
            resume: Some(path),
            ..Exec::default()
        })
    }

    fn observed(
        campaign: &Campaign,
        resume: Option<&Path>,
        mut observer: impl FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> ObservedRun {
        let exec = Exec {
            observer: Some(&mut observer),
            resume,
        };
        campaign.execute(exec).expect("observed run")
    }

    /// Runs `campaign` with an observer that pauses once `pause_at`
    /// trials are absorbed.
    fn run_pausing_at(campaign: &Campaign, pause_at: u64) -> ObservedRun {
        observed(campaign, None, |p| {
            if p.completed == pause_at {
                ProgressSignal::Pause
            } else {
                ProgressSignal::Continue
            }
        })
    }

    #[test]
    fn campaign_aggregates_all_trials() {
        let report = run(&Campaign::new(tiny_config(), 5));
        assert_eq!(report.faults, 6);
        // The generator flows continuously, so at least the trigger
        // fraction of the nominal 25 requests was issued per trial.
        assert!(report.requests_issued >= 6 * 7);
        assert_eq!(report.responded_iops.count(), 6);
    }

    #[test]
    fn all_engines_produce_byte_identical_reports() {
        let one = report_bytes(&at(tiny_config(), 11, 1));
        let three = report_bytes(&at(tiny_config(), 11, 3));
        let (two, _stats) = Campaign::new(tiny_config(), 11).run_stealing_with_stats(2);
        assert_eq!(one, three, "3 threads must match 1 thread");
        assert_eq!(one, report_bytes(&two), "the stats wrapper must match too");
    }

    #[test]
    fn engines_agree_with_obs_enabled() {
        let mut config = tiny_config();
        config.trial.obs = true;
        let one = at(config, 19, 1);
        assert!(!one.obs.is_empty(), "obs trials must contribute");
        let one = report_bytes(&one);
        assert_eq!(one, report_bytes(&at(config, 19, 3)));
        assert_eq!(one, report_bytes(&at(config, 19, 4)));
    }

    #[test]
    fn snapshot_cloning_matches_inline_warmup_byte_for_byte() {
        let mut config = tiny_config();
        config.trial.warmup_requests = 16;
        let cached = Campaign::builder(config).seed(21).snapshot_cache(true);
        let inline = cached.clone().snapshot_cache(false);
        let with_cache = report_bytes(&run(&cached.build()));
        let without_cache = report_bytes(&run(&inline.build()));
        assert_eq!(
            with_cache, without_cache,
            "snapshot restore must equal inline warm-up replay"
        );
        assert_eq!(with_cache, report_bytes(&at(config, 21, 3)));
    }

    #[test]
    fn run_auto_dispatches_on_thread_count() {
        let serial = Campaign::builder(tiny_config()).seed(11).build();
        let threaded = Campaign::builder(tiny_config()).seed(11).threads(3).build();
        assert_eq!(serial.threads(), 1);
        assert_eq!(threaded.threads(), 3);
        assert_eq!(report_bytes(&run(&serial)), report_bytes(&run(&threaded)));
    }

    #[test]
    fn new_is_a_thin_builder_delegate() {
        let a = run(&Campaign::new(tiny_config(), 7));
        let b = run(&Campaign::builder(tiny_config()).seed(7).build());
        assert_eq!(report_bytes(&a), report_bytes(&b));
    }

    #[test]
    fn threads_are_capped_at_trial_count() {
        // 6 trials over 64 requested threads: the scheduler must clamp
        // rather than spawn idle workers, and still match one thread.
        let one = report_bytes(&at(tiny_config(), 11, 1));
        let (report, stats) = Campaign::new(tiny_config(), 11).run_stealing_with_stats(64);
        assert_eq!(one, report_bytes(&report));
        assert_eq!(stats.threads, 6, "64 threads over 6 trials is 6 workers");
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 6);
    }

    #[test]
    fn same_seed_reproduces() {
        let a = run(&Campaign::new(tiny_config(), 7));
        let b = run(&Campaign::new(tiny_config(), 7));
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn interval_histogram_tracks_failed_requests() {
        let report = run(&Campaign::new(tiny_config(), 9));
        assert_eq!(
            report.failed_ack_interval_hist.total(),
            report.failed_ack_interval_ms.count()
        );
        let threaded = at(tiny_config(), 9, 3);
        assert_eq!(
            threaded.failed_ack_interval_hist.total(),
            report.failed_ack_interval_hist.total()
        );
    }

    #[test]
    fn rates_divide_by_faults() {
        let report = run(&Campaign::new(tiny_config(), 13));
        let expected = report.counts.data_failures as f64 / report.faults as f64;
        assert!((report.data_failures_per_fault() - expected).abs() < 1e-12);
    }

    #[test]
    fn one_campaign_survives_mixed_failure_classes() {
        // Per-trial event counts at seed 11 range 1249..=1600, so a
        // 1400-event budget expires some trials and spares others; the
        // spared trials then mount with a coin-flip failure rate, so a
        // single campaign mixes watchdog expiries, bricked devices, and
        // successful trials — and still completes with every affected
        // index on the ledger.
        let mut config = tiny_config();
        config.trial.watchdog = crate::platform::Watchdog {
            max_sim_time_us: None,
            max_events: Some(1400),
        };
        config.trial.ssd.mount_failure_rate = 0.5;
        config.trial.ssd.mount_retry_limit = 1;
        let report = run(&Campaign::new(config, 11));
        assert_eq!(report.faults, 6);
        assert!(
            !report.failures.watchdog_expired.is_empty(),
            "expected at least one watchdog expiry, got {:?}",
            report.failures
        );
        assert!(
            !report.failures.bricked.is_empty(),
            "expected at least one bricked device, got {:?}",
            report.failures
        );
        assert!(
            report.failures.total_failed() < 6,
            "expected at least one successful trial, got {:?}",
            report.failures
        );
        // No trial lands on two lists.
        let mut all: Vec<u64> = report
            .failures
            .watchdog_expired
            .iter()
            .chain(&report.failures.bricked)
            .chain(&report.failures.panicked)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), report.failures.total_failed());
        let threaded = at(config, 11, 3);
        assert_eq!(threaded.failures, report.failures);
        assert_eq!(threaded.counts, report.counts);
    }

    #[test]
    fn zero_threads_is_clamped_to_serial() {
        let zero = Campaign::builder(tiny_config()).seed(11).threads(0).build();
        assert_eq!(zero.threads(), 1);
        let serial = run(&Campaign::new(tiny_config(), 11));
        assert_eq!(report_bytes(&run(&zero)), report_bytes(&serial));
    }

    #[test]
    fn watchdog_expiry_is_reported_not_hung() {
        let mut config = tiny_config();
        config.trials = 3;
        config.trial.watchdog = crate::platform::Watchdog {
            max_sim_time_us: None,
            max_events: Some(10),
        };
        let report = run(&Campaign::new(config, 3));
        assert_eq!(report.faults, 3);
        assert_eq!(report.failures.watchdog_expired, vec![0, 1, 2]);
        assert_eq!(report.failures.total_failed(), 3);
        assert_eq!(report.responded_iops.count(), 0);
    }

    #[test]
    fn panicking_trials_are_isolated_and_deterministic() {
        let mut config = tiny_config();
        // A zero-capacity cache fails SsdConfig validation inside the
        // trial body, so every trial panics.
        config.trial.ssd.cache.capacity_sectors = 0;
        let campaign = Campaign::builder(config).seed(17).retries(2);
        let a = run(&campaign.clone().build());
        assert_eq!(a.faults, 6);
        assert_eq!(a.failures.panicked, vec![0, 1, 2, 3, 4, 5]);
        // 2 extra attempts per trial, all panicking.
        assert_eq!(a.failures.retries, 12);
        let b = run(&campaign.clone().build());
        assert_eq!(a.failures, b.failures);
        let threaded = run(&campaign.threads(3).build());
        assert_eq!(threaded.failures, a.failures);
    }

    #[test]
    fn bricked_devices_are_tallied_as_failures() {
        let mut config = tiny_config();
        config.trial.ssd.mount_failure_rate = 1.0;
        config.trial.ssd.mount_retry_limit = 2;
        let report = run(&Campaign::new(config, 23));
        assert_eq!(report.faults, 6);
        assert_eq!(report.counts.bricked_devices, 6);
        assert_eq!(report.failures.bricked.len(), 6);
    }

    #[test]
    fn mixed_mount_failures_brick_some_trials() {
        let mut config = tiny_config();
        config.trials = 12;
        config.trial.ssd.mount_failure_rate = 0.5;
        config.trial.ssd.mount_retry_limit = 1;
        let report = run(&Campaign::new(config, 29));
        let bricked = report.failures.bricked.len() as u64;
        assert_eq!(report.counts.bricked_devices, bricked);
        assert!(bricked > 0, "rate 0.5 should brick at least one of 12");
        assert!(bricked < 12, "rate 0.5 should let at least one mount");
        assert_eq!(report.responded_iops.count() + bricked, 12);
        let threaded = at(config, 29, 4);
        assert_eq!(threaded.failures, report.failures);
        assert_eq!(threaded.counts, report.counts);
    }

    #[test]
    fn retry_recovers_flaky_mounts() {
        let mut config = tiny_config();
        config.trial.ssd.mount_failure_rate = 0.5;
        config.trial.ssd.mount_retry_limit = 1;
        let no_retry = run(&Campaign::new(config, 29));
        let with_retry = run(&Campaign::builder(config).seed(29).retries(4).build());
        assert!(no_retry.failures.bricked.len() > with_retry.failures.bricked.len());
        assert!(with_retry.failures.retries > 0);
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run() {
        let path = checkpoint_path("resume.json");
        let plain = report_bytes(&run(&Campaign::new(tiny_config(), 31)));
        for threads in [1, 3] {
            let checkpointed = Campaign::builder(tiny_config())
                .seed(31)
                .threads(threads)
                .checkpoint(&path, 2)
                .build();
            let full = run(&checkpointed);
            assert_eq!(
                report_bytes(&full),
                plain,
                "checkpointing must not perturb the result"
            );
            // The file on disk holds a partial prefix (the last mid-run
            // snapshot, written in trial order whatever the thread
            // count); resuming from it must reproduce the full report
            // byte-for-byte.
            assert_eq!(checkpointed.checkpoint_snapshot(&path).expect("ckpt").0, 4);
            let resumed = resume(&checkpointed, &path).expect("resume");
            assert_eq!(
                report_bytes(&resumed.report),
                plain,
                "resumed run must equal the uninterrupted run"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_campaign() {
        let path = checkpoint_path("mismatch.json");
        let campaign = Campaign::builder(tiny_config())
            .seed(37)
            .checkpoint(&path, 2)
            .build();
        run(&campaign);

        match resume(&Campaign::new(tiny_config(), 38), &path) {
            Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                assert_eq!(field, "seed");
            }
            other => panic!("expected seed mismatch, got {other:?}"),
        }

        let mut other_config = tiny_config();
        other_config.requests_per_trial += 1;
        match resume(&Campaign::new(other_config, 37), &path) {
            Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                assert_eq!(field, "config_digest");
            }
            other => panic!("expected config mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_old_checkpoint_version() {
        // A v5-era snapshot (before the embedded planner state) must be
        // refused loudly, not misread — and every older version
        // likewise, down to v2.
        let path = checkpoint_path("stale-version.json");
        let campaign = Campaign::builder(tiny_config())
            .seed(43)
            .checkpoint(&path, 2)
            .build();
        run(&campaign);
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        assert!(text.contains("\"version\":6"), "snapshot carries v6");

        for stale in [
            "\"version\":5",
            "\"version\":4",
            "\"version\":3",
            "\"version\":2",
        ] {
            std::fs::write(&path, text.replace("\"version\":6", stale)).expect("rewrite");
            match resume(&campaign, &path) {
                Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                    assert_eq!(field, "version");
                }
                other => panic!("expected version mismatch for {stale}, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_run_sees_every_trial_and_checkpoint_boundaries() {
        let path = checkpoint_path("observed.json");
        // The observer runs in trial order at any thread count.
        for threads in [1, 3] {
            let campaign = Campaign::builder(tiny_config())
                .seed(47)
                .threads(threads)
                .checkpoint(&path, 2)
                .build();
            let mut seen: Vec<(u64, bool)> = Vec::new();
            let run = observed(&campaign, None, |p| {
                seen.push((p.completed, p.checkpointed));
                assert_eq!(p.trials, 6);
                assert_eq!(p.report.faults, p.completed);
                ProgressSignal::Continue
            });
            assert!(!run.paused);
            assert_eq!(run.completed, 6);
            assert_eq!(
                seen,
                vec![
                    (1, false),
                    (2, true),
                    (3, false),
                    (4, true),
                    (5, false),
                    (6, false) // final trial never checkpoints
                ],
                "threads={threads}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn paused_run_checkpoints_and_resumes_byte_identically() {
        let path = checkpoint_path("paused.json");
        let plain = report_bytes(&at(tiny_config(), 53, 1));
        // Pause on one thread count, resume on the other.
        for (pause_threads, resume_threads) in [(1, 3), (3, 1)] {
            let campaign = |threads| {
                Campaign::builder(tiny_config())
                    .seed(53)
                    .threads(threads)
                    .checkpoint(&path, 2)
                    .build()
            };
            // Pause after trial 3 — an off-boundary stride, so the
            // pause itself must write the checkpoint.
            let run = run_pausing_at(&campaign(pause_threads), 3);
            assert!(run.paused);
            assert_eq!(run.completed, 3);
            assert_eq!(run.report.faults, 3, "nothing past the pause is absorbed");
            let resumer = campaign(resume_threads);
            assert_eq!(resumer.checkpoint_snapshot(&path).expect("ckpt").0, 3);

            let resumed = observed(&resumer, Some(&path), |p| {
                assert!(p.completed > 3, "resume must not rerun the prefix");
                ProgressSignal::Continue
            });
            assert!(!resumed.paused);
            assert_eq!(
                report_bytes(&resumed.report),
                plain,
                "pause at {pause_threads} thread(s), resume at {resume_threads}: \
                 must equal the uninterrupted run"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pause_at_final_trial_is_a_completion() {
        let run = observed(&Campaign::new(tiny_config(), 59), None, |_| {
            ProgressSignal::Pause
        });
        // No checkpoint configured: the pause after trial 1 ends the
        // run with a partial report rather than erroring.
        assert!(run.paused);
        assert_eq!(run.completed, 1);
        assert_eq!(run.report.faults, 1);
    }

    #[test]
    fn resume_rejects_corrupt_checkpoint() {
        let path = checkpoint_path("corrupt.json");
        std::fs::write(&path, "{not json").expect("write");
        match resume(&Campaign::new(tiny_config(), 41), &path) {
            Err(PlatformError::Checkpoint(CheckpointError::Corrupt(_))) => {}
            other => panic!("expected corrupt checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    // ------------------------- Plan API -------------------------

    /// A confidence spec loose enough to stop at its floor on the tiny
    /// config (whose data-loss rate is high), but with a round stride
    /// that forces several planner boundaries first.
    fn loose_ci_spec() -> PlanSpec {
        PlanSpec::Confidence {
            half_width: 0.45,
            confidence: 0.9,
            exact: false,
            min_trials: 9,
            max_trials: 24,
            round: 3,
        }
    }

    fn loose_ci(seed: u64) -> CampaignBuilder {
        Campaign::builder(tiny_config())
            .seed(seed)
            .plan(loose_ci_spec())
    }

    #[test]
    fn fixed_plan_matches_classic_run_modulo_plan_state() {
        // A fixed plan carries no planner state: it is the classic run,
        // byte for byte.
        let classic = run(&Campaign::builder(tiny_config()).seed(11).build());
        let planned = run(&Campaign::builder(tiny_config())
            .seed(11)
            .plan(PlanSpec::fixed(6))
            .build());
        assert_eq!(report_bytes(&planned), report_bytes(&classic));
        assert!(planned.plan.is_none());
        assert!(planned.plan_report().is_none());
    }

    #[test]
    fn planned_engines_agree_byte_for_byte() {
        // `run_auto` must honour the adaptive plan — stop at the 9-trial
        // floor, not run the 24-trial budget — and reproduce the pinned
        // report bytes (FNV-64 of the report JSON) at any thread count.
        for (seed, digest) in [(13, 0x8262_d6b7_b11c_62b9u64), (17, 0x02d9_8d63_0aae_dae4)] {
            let one = run(&loose_ci(seed).build());
            assert_eq!(fnv64(report_bytes(&one).as_bytes()), digest, "seed {seed}");
            let three = run(&loose_ci(seed).threads(3).build());
            assert_eq!(report_bytes(&one), report_bytes(&three));
            let state = one.plan.as_ref().expect("adaptive runs carry plan state");
            assert!(state.done);
            assert_eq!(state.total_trials(), 9, "loose spec stops at its floor");
            assert_eq!(state.round, 3, "three rounds of three trials");
            let pr = one.plan_report().expect("plan report");
            assert!(pr.wilson.covers(pr.p_hat));
        }
        let (stats_run, stats) = loose_ci(13).build().run_stealing_with_stats(2);
        assert_eq!(fnv64(report_bytes(&stats_run).as_bytes()), 0x8262_d6b7_b11c_62b9);
        assert_eq!(stats.trials, 9, "stats sum over the three rounds");
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 9);
    }

    #[test]
    fn planned_pause_resumes_byte_identically_even_mid_round() {
        let path = checkpoint_path("planned-pause.json");
        let plain = report_bytes(&run(&loose_ci(17).build()));
        for (pause_threads, resume_threads) in [(1, 3), (3, 1)] {
            let campaign = |threads| loose_ci(17).threads(threads).checkpoint(&path, 2).build();
            // Pause after trial 4 — inside round 2 (rounds are 3 trials
            // wide), so resuming must pick the round back up mid-stride.
            let paused = run_pausing_at(&campaign(pause_threads), 4);
            assert!(paused.paused);
            assert_eq!(paused.completed, 4);
            assert_eq!(paused.report.faults, 4, "nothing past the pause is absorbed");

            let resumed = observed(&campaign(resume_threads), Some(&path), |p| {
                assert!(p.completed > 4, "resume must not rerun the prefix");
                ProgressSignal::Continue
            });
            assert!(!resumed.paused);
            assert_eq!(
                report_bytes(&resumed.report),
                plain,
                "pause at {pause_threads} thread(s), resume at {resume_threads}: \
                 must equal the uninterrupted run"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn splitting_plans_are_rejected_for_whole_campaigns() {
        let campaign = Campaign::builder(tiny_config())
            .seed(19)
            .plan(PlanSpec::split(3))
            .build();
        match campaign.run_auto() {
            Err(PlatformError::InvalidConfig(why)) => {
                assert!(why.contains("severity"), "{why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn resume_planned_rejects_plan_less_checkpoints() {
        let path = checkpoint_path("plan-less-ckpt-for-planned.json");
        // An adaptive paused run writes a checkpoint with planner
        // state; strip it…
        let campaign = loose_ci(23).checkpoint(&path, 2).build();
        assert!(run_pausing_at(&campaign, 2).paused);
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let mut snapshot: CampaignCheckpoint = serde_json::from_str(&text).expect("parses");
        assert!(snapshot.report.plan.is_some());
        snapshot.report.plan = None;
        std::fs::write(&path, serde_json::to_string(&snapshot).expect("serializes"))
            .expect("rewrite");

        // …and the adaptive resume must refuse it rather than invent
        // planner state.
        match resume(&campaign, &path) {
            Err(PlatformError::Checkpoint(CheckpointError::Corrupt(why))) => {
                assert!(why.contains("planner state"), "{why}");
            }
            other => panic!("expected corrupt checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

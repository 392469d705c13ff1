//! Adaptive campaign planning: confidence-driven stopping, stratified
//! allocation over the fault-site census, and importance splitting for
//! deep-tail estimates.
//!
//! The paper's campaigns sample outage instants uniformly, which wastes
//! nearly every trial once the failure rate drops below ~1e-3 (supercap
//! vendors, CRC-verifying firmware, double-fault tails). This module is
//! the redesigned sizing surface for every campaign in the workspace:
//!
//! * [`PlanSpec`] — the single typed description of how a point is
//!   sized: `Fixed` (the classic trial count), `Confidence` (adaptive
//!   rounds until the Wilson — and optionally Clopper-Pearson —
//!   interval on the failure rate is tighter than a requested
//!   half-width), or `Splitting` (multilevel importance splitting for
//!   deep tails, with level thresholds chosen deterministically from
//!   pilot rounds).
//! * [`Planner`] — the round-allocation policy: given the per-stratum
//!   tallies so far, how many more trials does each stratum get?
//! * [`PlanState`] — the resumable planner state (tallies, round
//!   index, current round targets, splitting levels). Campaigns embed
//!   it in their reports so checkpoint v6 can pause and resume an
//!   adaptive run byte-identically.
//! * [`PlanReport`] — per-point n, p̂, intervals, and the strata
//!   breakdown; same seed + same spec ⇒ byte-identical report at any
//!   thread count.
//!
//! Determinism rules (also in DESIGN.md §16): every planner decision is
//! a pure function of `(spec, tallies)`; trial outcomes are pure
//! functions of `(stratum, index)`; rounds absorb results in canonical
//! `(stratum, index)` order regardless of thread count; splitting level
//! thresholds are order statistics of deterministic pilot batches. No
//! wall clock, no OS entropy, no thread-arrival dependence.

use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use crate::error::PlatformError;
use crate::scheduler;

/// Default confidence level when a spec does not carry one.
pub const DEFAULT_CONFIDENCE: f64 = 0.95;
/// Default minimum trials before a confidence-driven point may stop.
pub const DEFAULT_MIN_TRIALS: u64 = 32;
/// Default trial-budget ceiling for confidence-driven points.
pub const DEFAULT_MAX_TRIALS: u64 = 1 << 20;
/// Default per-round increment for confidence-driven points.
pub const DEFAULT_ROUND: u64 = 64;
/// Default pilot-batch size per splitting level.
pub const DEFAULT_PILOT: u64 = 256;
/// Default estimation-batch size per splitting level.
pub const DEFAULT_PER_LEVEL: u64 = 512;
/// Pilot quantile used to place splitting level thresholds.
const SPLIT_QUANTILE: f64 = 0.8;
/// Rejection-sampling attempt budget per splitting phase.
const SPLIT_PHASE_BUDGET: u64 = 2_000_000;
/// Hard cap on planner rounds (backstop against degenerate specs).
const MAX_ROUNDS: u64 = 100_000;

// ---------------------------------------------------------------------------
// Binomial confidence intervals
// ---------------------------------------------------------------------------

/// A two-sided confidence interval on a proportion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower bound, in `[0, 1]`.
    pub lo: f64,
    /// Upper bound, in `[0, 1]`.
    pub hi: f64,
}

impl Interval {
    /// The full-uncertainty interval `[0, 1]`.
    pub fn full() -> Interval {
        Interval { lo: 0.0, hi: 1.0 }
    }

    /// Half the interval width — the quantity confidence-driven
    /// stopping compares against the requested precision.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Whether `p` lies inside the interval (inclusive).
    pub fn covers(&self, p: f64) -> bool {
        self.lo <= p && p <= self.hi
    }
}

/// Standard-normal quantile (inverse CDF) via the Acklam rational
/// approximation — |relative error| < 1.15e-9 over (0, 1), which is far
/// below the statistical noise of any campaign this plans.
fn z_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The z score for a two-sided interval at `confidence`.
fn z_for(confidence: f64) -> f64 {
    let c = confidence.clamp(0.5, 1.0 - 1e-12);
    z_quantile(1.0 - (1.0 - c) / 2.0)
}

/// Wilson score interval for `failures` successes out of `trials`.
///
/// The Wilson interval has near-nominal coverage down to very small p,
/// never escapes `[0, 1]`, and is the primary stopping criterion for
/// confidence-driven plans. `trials == 0` yields `[0, 1]`.
pub fn wilson(failures: u64, trials: u64, confidence: f64) -> Interval {
    if trials == 0 {
        return Interval::full();
    }
    let n = trials as f64;
    let p = failures as f64 / n;
    let z = z_for(confidence);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // At k=0 / k=n the bounds are exactly 0 / 1 analytically; pin them
    // so float rounding cannot exclude the sample proportion.
    Interval {
        lo: if failures == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        },
        hi: if failures >= trials {
            1.0
        } else {
            (center + half).min(1.0)
        },
    }
}

/// `P(X <= k)` for `X ~ Binomial(n, p)`, computed with a log-space pmf
/// recurrence and streaming log-sum-exp so it neither under- nor
/// overflows for any `n` a campaign can reach.
fn binom_cdf(k: u64, n: u64, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if k >= n { 1.0 } else { 0.0 };
    }
    if k >= n {
        return 1.0;
    }
    let lp = p.ln();
    let lq = (1.0 - p).ln();
    // log pmf(0) = n * ln(1 - p); recurrence:
    // log pmf(i+1) = log pmf(i) + ln(n-i) - ln(i+1) + ln p - ln(1-p)
    let mut log_term = n as f64 * lq;
    let mut max_log = log_term;
    let mut scaled_sum = 1.0f64; // sum of exp(log_term - max_log)
    for i in 0..k {
        log_term += ((n - i) as f64).ln() - ((i + 1) as f64).ln() + lp - lq;
        if log_term > max_log {
            scaled_sum = scaled_sum * (max_log - log_term).exp() + 1.0;
            max_log = log_term;
        } else {
            scaled_sum += (log_term - max_log).exp();
        }
    }
    (max_log + scaled_sum.ln()).exp().min(1.0)
}

/// Clopper-Pearson "exact" interval for `failures` out of `trials`.
///
/// Guaranteed coverage at every `(n, p)` (at the price of conservatism)
/// — the optional second gate for confidence-driven stopping, and the
/// interval the proptests verify exhaustively. Bounds are found by
/// bisection on the binomial CDF, which is deterministic.
pub fn clopper_pearson(failures: u64, trials: u64, confidence: f64) -> Interval {
    if trials == 0 {
        return Interval::full();
    }
    let alpha = (1.0 - confidence.clamp(0.5, 1.0 - 1e-12)) / 2.0;
    let k = failures.min(trials);
    let lo = if k == 0 {
        0.0
    } else {
        // Largest p with P(X >= k) <= alpha, i.e. P(X <= k-1) >= 1 - alpha.
        bisect(|p| binom_cdf(k - 1, trials, p) - (1.0 - alpha))
    };
    let hi = if k == trials {
        1.0
    } else {
        // Smallest p with P(X <= k) <= alpha.
        bisect(|p| binom_cdf(k, trials, p) - alpha)
    };
    Interval { lo, hi }
}

/// Root of a monotone-decreasing function of p on `[0, 1]` by fixed
/// 80-iteration bisection (resolution ~1e-24, far past f64 precision).
fn bisect(f: impl Fn(f64) -> f64) -> f64 {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..80 {
        let mid = (lo + hi) / 2.0;
        if f(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

// ---------------------------------------------------------------------------
// PlanSpec — the sizing spec for one campaign/experiment point
// ---------------------------------------------------------------------------

/// How a campaign point is sized. This is the single way trial counts
/// are expressed across the workspace: `Campaign::builder(..).plan(..)`,
/// `ExperimentOpts.plan`, `repro --plan`, and pfault-serve job specs
/// all carry one of these.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlanSpec {
    /// Classic fixed-N sizing: exactly `trials` trials, allocated
    /// across strata by largest-remainder apportionment of the weights
    /// (self-weighting, so the pooled estimate is unbiased).
    Fixed {
        /// Total trial count.
        trials: u64,
    },
    /// Adaptive sizing: run rounds of `round` trials (Neyman-allocated
    /// across strata) until the Wilson interval — and, when `exact` is
    /// set, also the Clopper-Pearson interval — has half-width at most
    /// `half_width`, subject to `min_trials`/`max_trials`.
    Confidence {
        /// Target interval half-width on the failure rate.
        half_width: f64,
        /// Two-sided confidence level, e.g. `0.95`.
        confidence: f64,
        /// Also require the Clopper-Pearson interval to be tight.
        exact: bool,
        /// Never stop before this many trials.
        min_trials: u64,
        /// Hard budget: stop (unconverged) at this many trials.
        max_trials: u64,
        /// Trials added per adaptive round.
        round: u64,
    },
    /// Multilevel importance splitting for deep-tail probabilities:
    /// `levels` nested severity thresholds, each placed at a fixed
    /// quantile of a deterministic pilot batch, each conditional
    /// probability estimated on a fresh batch of `per_level` samples.
    Splitting {
        /// Number of nested levels (the last threshold is 1.0).
        levels: u32,
        /// Pilot samples per level used to place the threshold.
        pilot: u64,
        /// Estimation samples per level.
        per_level: u64,
    },
}

impl PlanSpec {
    /// Fixed-N sizing — the drop-in replacement for a bare trial count.
    pub fn fixed(trials: u64) -> PlanSpec {
        PlanSpec::Fixed { trials }
    }

    /// Confidence-driven sizing with default round/budget parameters.
    pub fn ci(half_width: f64, confidence: f64) -> PlanSpec {
        PlanSpec::Confidence {
            half_width,
            confidence,
            exact: false,
            min_trials: DEFAULT_MIN_TRIALS,
            max_trials: DEFAULT_MAX_TRIALS,
            round: DEFAULT_ROUND,
        }
    }

    /// Importance-splitting sizing with default batch sizes.
    pub fn split(levels: u32) -> PlanSpec {
        PlanSpec::Splitting {
            levels,
            pilot: DEFAULT_PILOT,
            per_level: DEFAULT_PER_LEVEL,
        }
    }

    /// The confidence level this spec reports intervals at.
    pub fn confidence(&self) -> f64 {
        match *self {
            PlanSpec::Confidence { confidence, .. } => confidence,
            _ => DEFAULT_CONFIDENCE,
        }
    }

    /// Upper bound on the trials this spec may run — what budgeting
    /// surfaces (serve job rows, progress denominators) display.
    pub fn trial_budget(&self) -> u64 {
        match *self {
            PlanSpec::Fixed { trials } => trials,
            PlanSpec::Confidence { max_trials, .. } => max_trials,
            PlanSpec::Splitting {
                levels,
                pilot,
                per_level,
            } => (pilot + per_level) * u64::from(levels),
        }
    }

    /// Parses the CLI form: `fixed:N`, `ci:EPS[:CONF]`, `split:LEVELS`.
    pub fn parse(text: &str) -> Result<PlanSpec, String> {
        let mut parts = text.split(':');
        let kind = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match kind {
            "fixed" => {
                let [n] = rest[..] else {
                    return Err(format!("expected fixed:N, got `{text}`"));
                };
                let trials = n
                    .parse::<u64>()
                    .map_err(|_| format!("bad trial count `{n}` in `{text}`"))?;
                if trials == 0 {
                    return Err("fixed plan needs at least 1 trial".to_string());
                }
                Ok(PlanSpec::fixed(trials))
            }
            "ci" => {
                let (eps, conf) = match rest[..] {
                    [eps] => (eps, None),
                    [eps, conf] => (eps, Some(conf)),
                    _ => return Err(format!("expected ci:EPS[:CONF], got `{text}`")),
                };
                let half_width = eps
                    .parse::<f64>()
                    .map_err(|_| format!("bad half-width `{eps}` in `{text}`"))?;
                let confidence = match conf {
                    None => DEFAULT_CONFIDENCE,
                    Some(c) => c
                        .parse::<f64>()
                        .map_err(|_| format!("bad confidence `{c}` in `{text}`"))?,
                };
                let spec = PlanSpec::ci(half_width, confidence);
                spec.validate().map_err(|e| e.to_string())?;
                Ok(spec)
            }
            "split" => {
                let [levels] = rest[..] else {
                    return Err(format!("expected split:LEVELS, got `{text}`"));
                };
                let levels = levels
                    .parse::<u32>()
                    .map_err(|_| format!("bad level count `{levels}` in `{text}`"))?;
                let spec = PlanSpec::split(levels);
                spec.validate().map_err(|e| e.to_string())?;
                Ok(spec)
            }
            other => Err(format!(
                "unknown plan kind `{other}` (expected fixed:N, ci:EPS[:CONF], or split:LEVELS)"
            )),
        }
    }

    /// Renders the canonical CLI form (inverse of [`PlanSpec::parse`]
    /// for specs expressible there).
    pub fn render(&self) -> String {
        match *self {
            PlanSpec::Fixed { trials } => format!("fixed:{trials}"),
            PlanSpec::Confidence {
                half_width,
                confidence,
                ..
            } => format!("ci:{half_width}:{confidence}"),
            PlanSpec::Splitting { levels, .. } => format!("split:{levels}"),
        }
    }

    /// Rejects degenerate specs before any trial runs.
    pub fn validate(&self) -> Result<(), PlatformError> {
        let bad = |why: String| Err(PlatformError::InvalidConfig(why));
        match *self {
            PlanSpec::Fixed { trials } => {
                if trials == 0 {
                    return bad("fixed plan needs at least 1 trial".to_string());
                }
            }
            PlanSpec::Confidence {
                half_width,
                confidence,
                min_trials,
                max_trials,
                round,
                ..
            } => {
                if !(half_width > 0.0 && half_width < 0.5) {
                    return bad(format!("half-width {half_width} must be in (0, 0.5)"));
                }
                if !(0.5..1.0).contains(&confidence) {
                    return bad(format!("confidence {confidence} must be in [0.5, 1)"));
                }
                if round == 0 {
                    return bad("round size must be at least 1".to_string());
                }
                if max_trials == 0 || max_trials < min_trials {
                    return bad(format!(
                        "max_trials {max_trials} must be >= min_trials {min_trials} and > 0"
                    ));
                }
            }
            PlanSpec::Splitting {
                levels,
                pilot,
                per_level,
            } => {
                if levels == 0 {
                    return bad("splitting needs at least 1 level".to_string());
                }
                if pilot < 8 || per_level < 8 {
                    return bad("splitting pilot/per_level batches must be >= 8".to_string());
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Planner state: tallies, rounds, targets
// ---------------------------------------------------------------------------

/// Exact per-stratum tally: weight, trials run, failures seen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratumTally {
    /// Stratum label (e.g. a fault-site name from the census).
    pub name: String,
    /// Normalized sampling weight of the stratum in the population.
    pub weight: f64,
    /// Trials run in this stratum so far.
    pub trials: u64,
    /// Failures observed in this stratum so far.
    pub failures: u64,
}

impl StratumTally {
    /// Raw per-stratum failure-rate estimate (0 when unsampled).
    pub fn p_hat(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.failures as f64 / self.trials as f64
        }
    }

    /// Observed per-trial standard deviation `√(p̂(1-p̂))` — what Neyman
    /// allocation weighs. Used only for allocation, never for
    /// estimation, so the recombined estimate stays unbiased. Zero
    /// until the stratum has at least one failure (and one success),
    /// which is exactly when forced exploration takes over.
    fn sigma(&self) -> f64 {
        let p = self.p_hat();
        (p * (1.0 - p)).sqrt()
    }
}

/// Resumable planner state. Campaigns persist this inside
/// [`crate::campaign::CampaignReport`] (checkpoint v6), so an adaptive
/// run paused mid-round resumes byte-identically: the `targets` the
/// current round is running toward are part of the state, and every
/// allocation decision is recomputed as a pure function of the tallies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanState {
    /// The spec this state executes.
    pub spec: PlanSpec,
    /// Completed allocation rounds (round 1 is scheduled at creation).
    pub round: u64,
    /// Per-stratum tallies, in stable stratum order.
    pub strata: Vec<StratumTally>,
    /// Per-stratum cumulative trial targets for the current round.
    pub targets: Vec<u64>,
    /// Splitting level thresholds chosen so far (empty otherwise).
    pub levels: Vec<f64>,
    /// Whether the planner has converged or exhausted its budget.
    pub done: bool,
}

impl PlanState {
    /// Creates planner state over the given `(name, weight)` strata and
    /// schedules the first round. Weights are normalized; they must be
    /// positive and finite.
    pub fn new(spec: PlanSpec, strata: Vec<(String, f64)>) -> Result<PlanState, PlatformError> {
        spec.validate()?;
        if strata.is_empty() {
            return Err(PlatformError::InvalidConfig(
                "plan needs at least one stratum".to_string(),
            ));
        }
        let total: f64 = strata.iter().map(|(_, w)| *w).sum();
        if total.is_nan() || total <= 0.0 || strata.iter().any(|(_, w)| *w <= 0.0 || !w.is_finite()) {
            return Err(PlatformError::InvalidConfig(
                "stratum weights must be positive and finite".to_string(),
            ));
        }
        let n = strata.len();
        let mut state = PlanState {
            spec,
            round: 0,
            strata: strata
                .into_iter()
                .map(|(name, w)| StratumTally {
                    name,
                    weight: w / total,
                    trials: 0,
                    failures: 0,
                })
                .collect(),
            targets: vec![0; n],
            levels: Vec::new(),
            done: false,
        };
        state.advance()?;
        Ok(state)
    }

    /// Single-stratum state — what a whole-campaign plan uses.
    pub fn single(spec: PlanSpec) -> Result<PlanState, PlatformError> {
        PlanState::new(spec, vec![("all".to_string(), 1.0)])
    }

    /// Records one trial outcome in `stratum`.
    pub fn absorb(&mut self, stratum: usize, failed: bool) {
        let tally = &mut self.strata[stratum];
        tally.trials += 1;
        if failed {
            tally.failures += 1;
        }
    }

    /// Whether every stratum has reached its current round target.
    pub fn round_complete(&self) -> bool {
        self.strata
            .iter()
            .zip(&self.targets)
            .all(|(t, &target)| t.trials >= target)
    }

    /// Runs the planner decision at a round boundary: either extends
    /// the targets for another round or marks the state done. A pure
    /// function of `(spec, tallies)`, so runs at any thread count and
    /// paused/resumed runs all take identical decisions.
    pub fn advance(&mut self) -> Result<(), PlatformError> {
        if self.done {
            return Ok(());
        }
        let planner = planner_for(self.spec)?;
        let add = planner.next_round(self);
        if add.iter().all(|&a| a == 0) {
            self.done = true;
        } else {
            for (target, a) in self.targets.iter_mut().zip(&add) {
                *target += a;
            }
            self.round += 1;
            if self.round >= MAX_ROUNDS {
                self.done = true;
            }
        }
        Ok(())
    }

    /// Total trials across strata.
    pub fn total_trials(&self) -> u64 {
        self.strata.iter().map(|t| t.trials).sum()
    }

    /// Total failures across strata.
    pub fn total_failures(&self) -> u64 {
        self.strata.iter().map(|t| t.failures).sum()
    }

    /// Unbiased stratified estimate `p̂ = Σ w_h p̂_h`.
    pub fn p_hat(&self) -> f64 {
        self.strata.iter().map(|t| t.weight * t.p_hat()).sum()
    }

    /// Stratified variance `Σ w_h² p̂_h (1-p̂_h) / n_h`; `None` until
    /// every stratum has been sampled at least once.
    fn stratified_variance(&self) -> Option<f64> {
        if self.strata.iter().any(|t| t.trials == 0) {
            return None;
        }
        Some(
            self.strata
                .iter()
                .map(|t| {
                    let p = t.p_hat();
                    t.weight * t.weight * p * (1.0 - p) / t.trials as f64
                })
                .sum(),
        )
    }

    /// Effective sample size behind the stratified estimate: the n a
    /// simple-random-sample campaign would need for the same variance.
    /// Collapses to the exact total for a single stratum.
    fn effective_n(&self) -> u64 {
        let total = self.total_trials();
        if self.strata.len() == 1 {
            return total;
        }
        let p = self.p_hat();
        match self.stratified_variance() {
            Some(var) if var > 0.0 && p > 0.0 && p < 1.0 => {
                let n_eff = p * (1.0 - p) / var;
                (n_eff.round() as u64).max(total.max(1))
            }
            _ => total,
        }
    }

    /// Wilson interval on the stratified estimate, via the effective
    /// sample size. For a single stratum this is the exact Wilson
    /// interval on the pooled tallies.
    pub fn interval(&self) -> Interval {
        self.interval_at(self.spec.confidence())
    }

    fn interval_at(&self, confidence: f64) -> Interval {
        if self.strata.iter().any(|t| t.trials == 0) {
            return Interval::full();
        }
        if self.strata.len() == 1 {
            let t = &self.strata[0];
            return wilson(t.failures, t.trials, confidence);
        }
        let n_eff = self.effective_n();
        let k_eff = ((self.p_hat() * n_eff as f64).round() as u64).min(n_eff);
        wilson(k_eff, n_eff, confidence)
    }

    /// Clopper-Pearson counterpart of [`PlanState::interval`].
    pub fn exact_interval(&self) -> Interval {
        if self.strata.iter().any(|t| t.trials == 0) {
            return Interval::full();
        }
        let confidence = self.spec.confidence();
        if self.strata.len() == 1 {
            let t = &self.strata[0];
            return clopper_pearson(t.failures, t.trials, confidence);
        }
        let n_eff = self.effective_n();
        let k_eff = ((self.p_hat() * n_eff as f64).round() as u64).min(n_eff);
        clopper_pearson(k_eff, n_eff, confidence)
    }

    /// Whether the confidence stopping rule is satisfied right now.
    fn converged(&self) -> bool {
        let PlanSpec::Confidence {
            half_width,
            exact,
            min_trials,
            ..
        } = self.spec
        else {
            return false;
        };
        if self.total_trials() < min_trials || self.strata.iter().any(|t| t.trials == 0) {
            return false;
        }
        if self.interval().half_width() > half_width {
            return false;
        }
        !exact || self.exact_interval().half_width() <= half_width
    }

    /// Snapshot of the final (or in-flight) results as a [`PlanReport`].
    pub fn report(&self) -> PlanReport {
        let exact = matches!(self.spec, PlanSpec::Confidence { exact: true, .. });
        PlanReport {
            spec: self.spec,
            trials: self.total_trials(),
            failures: self.total_failures(),
            p_hat: self.p_hat(),
            wilson: self.interval(),
            clopper_pearson: if exact {
                Some(self.exact_interval())
            } else {
                None
            },
            rounds: self.round,
            strata: self.strata.clone(),
            levels: Vec::new(),
            tail_estimate: None,
        }
    }

    /// One-line convergence summary for progress streams.
    pub fn progress_line(&self) -> String {
        let iv = self.interval();
        format!(
            "round {} n={} p^={:.6} ci=[{:.6},{:.6}] hw={:.6}{}",
            self.round,
            self.total_trials(),
            self.p_hat(),
            iv.lo,
            iv.hi,
            iv.half_width(),
            if self.done { " done" } else { "" }
        )
    }
}

// ---------------------------------------------------------------------------
// Planner trait — round-allocation policy
// ---------------------------------------------------------------------------

/// A round-allocation policy: given the tallies so far, how many more
/// trials does each stratum get? Returning all zeros (or an empty
/// vector) stops the point. Implementations must be pure functions of
/// the state — no clocks, no entropy — so that every thread count and every
/// pause/resume boundary reproduces the same decision.
pub trait Planner {
    /// The spec this planner executes.
    fn spec(&self) -> PlanSpec;

    /// Additional trials per stratum for the next round; all-zero or
    /// empty means stop.
    fn next_round(&self, state: &PlanState) -> Vec<u64>;
}

/// Deterministic largest-remainder apportionment of `total` trials over
/// non-negative `shares` (ties broken by lower index).
fn apportion(total: u64, shares: &[f64]) -> Vec<u64> {
    let sum: f64 = shares.iter().sum();
    if total == 0 || sum.is_nan() || sum <= 0.0 {
        return vec![0; shares.len()];
    }
    let mut alloc: Vec<u64> = Vec::with_capacity(shares.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(shares.len());
    let mut assigned = 0u64;
    for (i, &s) in shares.iter().enumerate() {
        let ideal = total as f64 * (s / sum);
        let floor = ideal.floor() as u64;
        alloc.push(floor);
        assigned += floor;
        remainders.push((i, ideal - floor as f64));
    }
    // Distribute the leftover to the largest remainders; stable sort +
    // index tie-break keeps this deterministic.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = total - assigned;
    for (i, _) in remainders {
        if leftover == 0 {
            break;
        }
        alloc[i] += 1;
        leftover -= 1;
    }
    alloc
}

/// Fixed-N policy: one round, weights apportioned exactly.
struct FixedPlanner {
    trials: u64,
}

impl Planner for FixedPlanner {
    fn spec(&self) -> PlanSpec {
        PlanSpec::fixed(self.trials)
    }

    fn next_round(&self, state: &PlanState) -> Vec<u64> {
        if state.round > 0 {
            return Vec::new();
        }
        let shares: Vec<f64> = state.strata.iter().map(|t| t.weight).collect();
        apportion(self.trials, &shares)
    }
}

/// Confidence-driven policy: even first round (so every stratum gets
/// pilot coverage), then each round splits 3:1 between *exploitation* —
/// Neyman allocation `n_h ∝ w_h σ̂_h` on the observed standard
/// deviations — and *forced exploration* — least-sampled-first
/// (`∝ 1/(n_h+1)`), so a stratum whose failures simply have not shown
/// up yet keeps accruing trials instead of being starved by its zero
/// σ̂. While no stratum has any observed variance at all, the whole
/// round explores. Runs until the interval is tight or the budget is
/// exhausted.
struct ConfidencePlanner {
    spec: PlanSpec,
}

/// Fraction of each post-pilot round (as a divisor) spent on forced
/// exploration rather than Neyman exploitation.
const EXPLORE_DIV: u64 = 4;

impl Planner for ConfidencePlanner {
    fn spec(&self) -> PlanSpec {
        self.spec
    }

    fn next_round(&self, state: &PlanState) -> Vec<u64> {
        let PlanSpec::Confidence {
            max_trials, round, ..
        } = self.spec
        else {
            return Vec::new();
        };
        let total = state.total_trials();
        if total >= max_trials || state.converged() {
            return Vec::new();
        }
        let batch = round.min(max_trials - total);
        let k = state.strata.len() as u64;
        if state.round == 0 {
            // Pilot round: even coverage, at least one trial each.
            let each = (batch.max(k)) / k;
            let extra = (batch.max(k)) % k;
            return (0..state.strata.len())
                .map(|i| each + u64::from((i as u64) < extra))
                .collect();
        }
        let exploit: Vec<f64> = state
            .strata
            .iter()
            .map(|t| t.weight * t.sigma())
            .collect();
        let explore: Vec<f64> = state
            .strata
            .iter()
            .map(|t| 1.0 / (t.trials as f64 + 1.0))
            .collect();
        let exploit_total: f64 = exploit.iter().sum();
        if exploit_total.is_nan() || exploit_total <= 0.0 {
            // Nothing has observed variance yet: the best move is to
            // keep hunting for the first failure, least-sampled first.
            return apportion(batch, &explore);
        }
        let explore_batch = batch / EXPLORE_DIV;
        let mut alloc = apportion(batch - explore_batch, &exploit);
        for (a, e) in alloc.iter_mut().zip(apportion(explore_batch, &explore)) {
            *a += e;
        }
        alloc
    }
}

/// The policy for a spec. Splitting is not a round/tally policy — it
/// needs severity values, not pass/fail bits — so it is rejected here
/// and handled by [`run_plan`]'s dedicated driver.
pub fn planner_for(spec: PlanSpec) -> Result<Box<dyn Planner>, PlatformError> {
    spec.validate()?;
    match spec {
        PlanSpec::Fixed { trials } => Ok(Box::new(FixedPlanner { trials })),
        PlanSpec::Confidence { .. } => Ok(Box::new(ConfidencePlanner { spec })),
        PlanSpec::Splitting { .. } => Err(PlatformError::InvalidConfig(
            "splitting plans need a severity source; use plan::run_plan on a PlanPoint".to_string(),
        )),
    }
}

// ---------------------------------------------------------------------------
// PlanReport
// ---------------------------------------------------------------------------

/// One splitting level: its threshold, sampling effort, and the
/// estimated conditional probability of exceeding it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelReport {
    /// Severity threshold for this level (the last level is 1.0).
    pub threshold: f64,
    /// Rejection-sampling attempts spent on this level (pilot + estimation).
    pub attempts: u64,
    /// Accepted estimation samples.
    pub samples: u64,
    /// Estimation samples at or above the threshold.
    pub passed: u64,
    /// Conditional estimate `passed / samples`.
    pub conditional: f64,
}

/// The planner's verdict for one point: how many trials ran, the
/// failure-rate estimate with its interval(s), and the per-stratum
/// breakdown. Same seed + same spec ⇒ byte-identical report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// The spec that sized this point.
    pub spec: PlanSpec,
    /// Trials actually run (for splitting: severity evaluations).
    pub trials: u64,
    /// Failures observed.
    pub failures: u64,
    /// Stratified failure-rate estimate (for splitting: the tail product).
    pub p_hat: f64,
    /// Wilson interval at the spec's confidence.
    pub wilson: Interval,
    /// Clopper-Pearson interval when the spec requests the exact gate.
    pub clopper_pearson: Option<Interval>,
    /// Allocation rounds run (for splitting: levels).
    pub rounds: u64,
    /// Per-stratum tallies.
    pub strata: Vec<StratumTally>,
    /// Splitting levels (empty for fixed/confidence plans).
    pub levels: Vec<LevelReport>,
    /// Product-of-conditionals tail estimate (splitting only).
    pub tail_estimate: Option<f64>,
}

// ---------------------------------------------------------------------------
// PlanPoint — running a plan over a microtrial point
// ---------------------------------------------------------------------------

/// A point the planner can sample: a stable set of weighted strata and
/// a deterministic severity function. `severity(h, i)` must be a pure
/// function of `(h, i)` (fold any seed into the point itself): values
/// `>= 1.0` are failures, values in `(0, 1)` measure how close trial
/// `i` came to failing — the resolution importance splitting climbs.
pub trait PlanPoint: Sync {
    /// Stable `(name, weight)` strata; weights need not be normalized.
    fn strata(&self) -> Vec<(String, f64)>;

    /// Deterministic severity of trial `index` within `stratum`.
    fn severity(&self, stratum: usize, index: u64) -> f64;
}

/// Runs `spec` over `point` and returns the final report.
///
/// Fixed and confidence specs run in adaptive rounds, each round on the
/// work-stealing scheduler at `threads` workers; results are absorbed in
/// canonical `(stratum, index)` order, so the report is byte-identical
/// at any thread count. Splitting specs run the multilevel driver
/// (always serial — each level's batch is conditioned on the previous
/// threshold). `seed` only feeds the splitting mixture sampler;
/// round-based plans are fully determined by the point itself.
pub fn run_plan<P: PlanPoint>(
    point: &P,
    spec: PlanSpec,
    seed: u64,
    threads: usize,
) -> Result<PlanReport, PlatformError> {
    if matches!(spec, PlanSpec::Splitting { .. }) {
        return run_splitting(point, spec, seed);
    }
    let mut state = PlanState::new(spec, point.strata())?;
    while !state.done {
        // Jobs this round, in canonical (stratum, index) order.
        let mut jobs: Vec<(usize, u64)> = Vec::new();
        for (h, (tally, &target)) in state.strata.iter().zip(&state.targets).enumerate() {
            for i in tally.trials..target {
                jobs.push((h, i));
            }
        }
        // Each round runs on the scheduler; results are absorbed in
        // the jobs' canonical order.
        (state, _) = scheduler::run_work_stealing(
            0..jobs.len() as u64,
            threads,
            scheduler::DEFAULT_CHUNK,
            |j| {
                let (h, i) = jobs[j as usize];
                point.severity(h, i) >= 1.0
            },
            state,
            |state: &mut PlanState, j, failed| {
                state.absorb(jobs[j as usize].0, failed);
                ControlFlow::Continue(())
            },
        );
        state.advance()?;
    }
    Ok(state.report())
}

// ---------------------------------------------------------------------------
// Importance splitting
// ---------------------------------------------------------------------------

/// Multilevel splitting driver. Level thresholds are order statistics
/// of deterministic pilot batches (DESIGN.md §16 spells out the rules);
/// each level's conditional probability is estimated on a fresh batch,
/// conditioned on the previous threshold by rejection sampling over a
/// dedicated deterministic index stream. The tail estimate is the
/// product of the per-level conditionals.
fn run_splitting<P: PlanPoint>(
    point: &P,
    spec: PlanSpec,
    seed: u64,
) -> Result<PlanReport, PlatformError> {
    let PlanSpec::Splitting {
        levels,
        pilot,
        per_level,
    } = spec
    else {
        return Err(PlatformError::InvalidConfig(
            "run_splitting called with a non-splitting spec".to_string(),
        ));
    };
    spec.validate()?;
    let raw = point.strata();
    let mut state = PlanState {
        spec,
        round: 0,
        strata: Vec::new(),
        targets: Vec::new(),
        levels: Vec::new(),
        done: false,
    };
    {
        // Reuse PlanState::new's weight validation/normalization.
        let normalized = PlanState::new(PlanSpec::fixed(1), raw)?;
        state.strata = normalized.strata;
        state.strata.iter_mut().for_each(|t| {
            t.trials = 0;
            t.failures = 0;
        });
        state.targets = vec![0; state.strata.len()];
    }
    let weights: Vec<f64> = state.strata.iter().map(|t| t.weight).collect();

    // Every severity evaluation consumes a globally unique attempt
    // index: the mixture pick and the trial itself both derive from it,
    // so no trial is ever replayed across levels or phases.
    let mut attempt: u64 = 0;
    let draw = |attempt: &mut u64,
                state: &mut PlanState,
                floor: f64,
                want: u64,
                budget: u64|
     -> Vec<f64> {
        let mut out = Vec::with_capacity(want as usize);
        let mut spent = 0u64;
        while (out.len() as u64) < want && spent < budget {
            let mut rng = pfault_sim::DetRng::new(seed)
                .fork("plan-split-mix")
                .fork_index(*attempt);
            let h = weighted_pick(&mut rng, &weights);
            let s = point.severity(h, *attempt);
            state.strata[h].trials += 1;
            if s >= 1.0 {
                state.strata[h].failures += 1;
            }
            *attempt += 1;
            spent += 1;
            if s > floor {
                out.push(s);
            }
        }
        out
    };

    let confidence = spec.confidence();
    let mut floor = 0.0f64;
    let mut product = 1.0f64;
    let mut iv_lo = 1.0f64;
    let mut iv_hi = 1.0f64;
    let mut level_reports: Vec<LevelReport> = Vec::new();
    for level in 0..levels {
        let attempts_before = attempt;
        let last = level + 1 == levels;
        let threshold = if last {
            1.0
        } else {
            let mut samples = draw(&mut attempt, &mut state, floor, pilot, SPLIT_PHASE_BUDGET);
            if samples.is_empty() {
                1.0 // pilot found nothing past the floor: jump straight to failure
            } else {
                samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let t = quantile(&samples, SPLIT_QUANTILE).min(1.0);
                if t > floor {
                    t
                } else {
                    1.0
                }
            }
        };
        let est = draw(&mut attempt, &mut state, floor, per_level, SPLIT_PHASE_BUDGET);
        let samples = est.len() as u64;
        let passed = est.iter().filter(|&&s| s >= threshold).count() as u64;
        let conditional = if samples == 0 {
            0.0
        } else {
            passed as f64 / samples as f64
        };
        product *= conditional;
        let iv = wilson(passed, samples, confidence);
        iv_lo *= iv.lo;
        iv_hi *= iv.hi;
        level_reports.push(LevelReport {
            threshold,
            attempts: attempt - attempts_before,
            samples,
            passed,
            conditional,
        });
        state.levels.push(threshold);
        state.round += 1;
        floor = threshold;
        if conditional <= 0.0 || (threshold - 1.0).abs() < f64::EPSILON {
            break;
        }
    }
    state.done = true;

    Ok(PlanReport {
        spec,
        trials: attempt,
        failures: state.total_failures(),
        p_hat: product,
        // Product of per-level Wilson bounds: conservative but
        // deterministic, and honest about multi-level uncertainty.
        wilson: Interval {
            lo: iv_lo.clamp(0.0, 1.0),
            hi: iv_hi.clamp(0.0, 1.0),
        },
        clopper_pearson: None,
        rounds: u64::from(levels.min(level_reports.len() as u32)),
        strata: state.strata.clone(),
        levels: level_reports,
        tail_estimate: Some(product),
    })
}

/// Nearest-rank quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Weighted stratum pick from a unit draw (weights normalized).
fn weighted_pick(rng: &mut pfault_sim::DetRng, weights: &[f64]) -> usize {
    let u = rng.unit_f64();
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_matches_known_values() {
        // k=1, n=10 at 95%: textbook Wilson interval ~ [0.0179, 0.4041].
        let iv = wilson(1, 10, 0.95);
        assert!((iv.lo - 0.017876).abs() < 1e-4, "lo={}", iv.lo);
        assert!((iv.hi - 0.404155).abs() < 1e-4, "hi={}", iv.hi);
        assert_eq!(wilson(0, 0, 0.95), Interval::full());
    }

    #[test]
    fn clopper_pearson_matches_known_values() {
        // k=0, n=20 at 95%: upper bound = 1 - (alpha/2)^(1/20) ~ 0.16843.
        let iv = clopper_pearson(0, 20, 0.95);
        assert_eq!(iv.lo, 0.0);
        assert!((iv.hi - 0.16843).abs() < 1e-4, "hi={}", iv.hi);
        // Symmetry: k=n mirrors k=0.
        let iv = clopper_pearson(20, 20, 0.95);
        assert_eq!(iv.hi, 1.0);
        assert!((iv.lo - (1.0 - 0.16843)).abs() < 1e-4, "lo={}", iv.lo);
    }

    #[test]
    fn binom_cdf_is_sane() {
        assert!((binom_cdf(5, 10, 0.5) - 0.623046875).abs() < 1e-12);
        assert!((binom_cdf(10, 10, 0.5) - 1.0).abs() < 1e-12);
        // Large n must not underflow to zero.
        let c = binom_cdf(400, 1_000_000, 0.0005);
        assert!(c > 0.0 && c < 1.0, "cdf={c}");
    }

    #[test]
    fn spec_parse_and_render_roundtrip() {
        let s = PlanSpec::parse("fixed:300").unwrap();
        assert_eq!(s, PlanSpec::fixed(300));
        assert_eq!(PlanSpec::parse(&s.render()).unwrap(), s);

        let s = PlanSpec::parse("ci:0.01").unwrap();
        assert_eq!(
            s,
            PlanSpec::ci(0.01, DEFAULT_CONFIDENCE),
            "ci defaults confidence"
        );
        let s = PlanSpec::parse("ci:0.02:0.99").unwrap();
        assert_eq!(s, PlanSpec::ci(0.02, 0.99));
        assert_eq!(PlanSpec::parse(&s.render()).unwrap(), s);

        let s = PlanSpec::parse("split:4").unwrap();
        assert_eq!(s, PlanSpec::split(4));
        assert_eq!(PlanSpec::parse(&s.render()).unwrap(), s);

        for bad in ["", "fixed", "fixed:0", "ci:0.9", "ci:abc", "split:0", "nope:3"] {
            assert!(PlanSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let a = apportion(10, &[0.5, 0.3, 0.2]);
        assert_eq!(a.iter().sum::<u64>(), 10);
        assert_eq!(a, vec![5, 3, 2]);
        let b = apportion(7, &[1.0, 1.0, 1.0]);
        assert_eq!(b.iter().sum::<u64>(), 7);
        assert_eq!(b, vec![3, 2, 2], "tie-break by lower index");
        assert_eq!(apportion(0, &[1.0]), vec![0]);
    }

    /// A synthetic point: stratum 0 never fails, stratum 1 fails iff a
    /// deterministic hash of the index clears a threshold.
    struct TwoStrata {
        fail_one_in: u64,
    }

    impl PlanPoint for TwoStrata {
        fn strata(&self) -> Vec<(String, f64)> {
            vec![("safe".to_string(), 0.9), ("hot".to_string(), 0.1)]
        }

        fn severity(&self, stratum: usize, index: u64) -> f64 {
            let mut rng = pfault_sim::DetRng::new(0xabcd)
                .fork("two-strata")
                .fork_index(stratum as u64)
                .fork_index(index);
            if stratum == 0 {
                0.25 * rng.unit_f64()
            } else if rng.below(self.fail_one_in) == 0 {
                1.0
            } else {
                0.25 + 0.5 * rng.unit_f64()
            }
        }
    }

    #[test]
    fn engines_agree_byte_for_byte() {
        let point = TwoStrata { fail_one_in: 8 };
        let spec = PlanSpec::ci(0.05, 0.95);
        let serial = run_plan(&point, spec, 7, 1).unwrap();
        let three = run_plan(&point, spec, 7, 3).unwrap();
        let four = run_plan(&point, spec, 7, 4).unwrap();
        let s0 = serde_json::to_string(&serial).unwrap();
        assert_eq!(s0, serde_json::to_string(&three).unwrap());
        assert_eq!(s0, serde_json::to_string(&four).unwrap());
        assert!(serial.trials >= DEFAULT_MIN_TRIALS);
        assert!(serial.wilson.half_width() <= 0.05);
    }

    #[test]
    fn fixed_plan_runs_exactly_n_trials_apportioned_by_weight() {
        let point = TwoStrata { fail_one_in: 4 };
        let report = run_plan(&point, PlanSpec::fixed(100), 1, 1).unwrap();
        assert_eq!(report.trials, 100);
        assert_eq!(report.strata[0].trials, 90);
        assert_eq!(report.strata[1].trials, 10);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn confidence_plan_stops_when_tight_and_respects_budget() {
        let point = TwoStrata { fail_one_in: 4 };
        let spec = PlanSpec::Confidence {
            half_width: 0.01,
            confidence: 0.95,
            exact: false,
            min_trials: 16,
            max_trials: 50_000,
            round: 32,
        };
        let report = run_plan(&point, spec, 3, 1).unwrap();
        assert!(report.wilson.half_width() <= 0.01);
        assert!(report.trials <= 50_000);
        assert!(report.rounds >= 2, "should take multiple rounds");

        // An unreachable precision must stop exactly at the budget.
        let capped = PlanSpec::Confidence {
            half_width: 1e-6,
            confidence: 0.95,
            exact: false,
            min_trials: 16,
            max_trials: 500,
            round: 64,
        };
        let report = run_plan(&point, capped, 3, 1).unwrap();
        assert_eq!(report.trials, 500);
    }

    #[test]
    fn single_stratum_interval_is_exact_wilson() {
        let mut state = PlanState::single(PlanSpec::ci(0.1, 0.95)).unwrap();
        for i in 0..40 {
            state.absorb(0, i % 10 == 0);
        }
        assert_eq!(state.interval(), wilson(4, 40, 0.95));
        assert_eq!(state.exact_interval(), clopper_pearson(4, 40, 0.95));
    }

    #[test]
    fn splitting_is_deterministic_with_increasing_levels() {
        let point = TwoStrata { fail_one_in: 64 };
        let spec = PlanSpec::Splitting {
            levels: 3,
            pilot: 64,
            per_level: 128,
        };
        let a = run_plan(&point, spec, 11, 1).unwrap();
        let b = run_plan(&point, spec, 11, 1).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let thresholds: Vec<f64> = a.levels.iter().map(|l| l.threshold).collect();
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1] || w[1] == 1.0),
            "levels must ascend: {thresholds:?}"
        );
        assert_eq!(thresholds.last().copied(), Some(1.0));
        let tail = a.tail_estimate.unwrap();
        assert!(tail > 0.0 && tail < 1.0, "tail={tail}");
        // The tail product should agree with the true rate
        // (0.1 * 1/64 ~ 1.6e-3) within an order of magnitude.
        assert!(tail > 1.6e-4 && tail < 1.6e-2, "tail={tail}");
    }

    #[test]
    fn splitting_rejected_by_round_planner() {
        assert!(matches!(
            planner_for(PlanSpec::split(3)),
            Err(PlatformError::InvalidConfig(_))
        ));
    }

    #[test]
    fn state_survives_json_roundtrip() {
        let mut state = PlanState::single(PlanSpec::ci(0.05, 0.99)).unwrap();
        state.absorb(0, true);
        state.absorb(0, false);
        let text = serde_json::to_string(&state).unwrap();
        let back: PlanState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, state);
    }
}

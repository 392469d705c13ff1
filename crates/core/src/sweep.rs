//! Systematic fault-space exploration: the boundary sweeper.
//!
//! Random fault scheduling (the campaign engine) answers the paper's
//! statistical questions — *how often* does a drive lose data per fault —
//! but it cannot answer the engineering question *which instants are
//! dangerous*. The sweeper enumerates those instants deterministically:
//!
//! 1. **Census** — run the workload once, fault-free, with the device's
//!    fault-site recording enabled ([`pfault_ssd::FaultSite`]). Every
//!    durability-relevant operation leaves a [`pfault_ssd::SiteSpan`]
//!    `(site, occurrence, start, end)`.
//! 2. **Expand** — each span yields up to three cut instants, one per
//!    [`Phase`]: `Start` (the operation just began), `Mid` (halfway
//!    through its program window), `End` (the exact completion instant —
//!    the half-open boundary documented on
//!    [`pfault_power::FaultTimeline::brownout_window`] guarantees the
//!    operation *completes* there).
//! 3. **Sweep** — one trial per cut: a fresh same-seed device replays the
//!    identical workload, the rail vanishes at the planned instant
//!    ([`pfault_power::FaultTimeline::at_instant`]), the device recovers,
//!    and the recovery-invariant [oracle](#the-oracle) runs.
//! 4. **Minimize** — a ddmin-style shrinker reduces a failing workload to
//!    a minimal reproducer ([`Sweeper::minimize`]).
//!
//! # The oracle
//!
//! After `power_on_recover`, three invariants must hold:
//!
//! * **Whole-batch replay** — the recovered mapping equals an independent
//!   reference replay of the durable journal over the newest checkpoint,
//!   applying each batch *only if* its stored CRC matches its surviving
//!   entries. A torn batch must be discarded whole; a device that matches
//!   the half-applied reference instead has the classic apply-before-
//!   verify firmware bug ([`ViolationKind::TornBatchHalfApplied`]).
//! * **No phantom data** — every readable, internally-intact sector holds
//!   a content version the host actually issued for that LBA (current or
//!   stale). Intact data that was never written there means the mapping
//!   points into someone else's page.
//! * **Replay idempotence** — a second, idle power cycle immediately
//!   after recovery must rebuild the identical mapping.
//!
//! Trials that end without a verdict (bricked device, watchdog) land on
//! the same [`TrialFailures`] ledger the campaign engine uses, keyed by
//! trial index.
//!
//! Everything is deterministic: same seed + same workload ⇒ identical
//! census, identical violation list, identical minimized reproducer.

use std::collections::BTreeMap;

use pfault_flash::array::PageData;
use pfault_flash::Ppa;
use pfault_ftl::mapping::MappingTable;
use pfault_power::FaultTimeline;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration, SimTime};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::{FaultSite, SiteSpan, SsdConfig, VerifiedContent};

use crate::campaign::TrialFailures;
use crate::error::TrialError;
use crate::host::FLUSH_ID_BASE;

/// A sorted logical→physical snapshot, as the oracle compares them.
type MappedEntries = Vec<(Lba, Ppa)>;

/// One host operation of an explicit sweep workload. Unlike the campaign
/// generator's stochastic stream, sweep workloads are concrete op lists so
/// the minimizer can delete entries and re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Write `sectors` sectors starting at `lba`, contents derived from
    /// `tag` (the device's standard tag→content scheme).
    Write {
        /// First logical sector.
        lba: u64,
        /// Number of sectors (clamped to ≥ 1).
        sectors: u64,
        /// Payload tag; each sector's content derives from it.
        tag: u64,
    },
    /// Discard the mapping of `sectors` sectors starting at `lba`.
    Trim {
        /// First logical sector.
        lba: u64,
        /// Number of sectors (clamped to ≥ 1).
        sectors: u64,
    },
    /// FLUSH barrier: blocks until everything accepted so far is durable.
    Flush,
}

/// Where inside a recorded span the cut lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// The operation just started (progress ≈ 0).
    Start,
    /// Halfway through the operation's window.
    Mid,
    /// The exact completion instant — the operation finishes (half-open
    /// boundary), so this probes "cut immediately *after*".
    End,
}

impl Phase {
    /// All phases in sweep order.
    pub const ALL: [Phase; 3] = [Phase::Start, Phase::Mid, Phase::End];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Start => "start",
            Phase::Mid => "mid",
            Phase::End => "end",
        }
    }
}

/// Which recovery invariant a trial violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The recovered mapping matches a reference replay that applies torn
    /// batches *partially* — the apply-before-CRC-verify firmware bug.
    TornBatchHalfApplied,
    /// The recovered mapping matches neither the whole-batch reference nor
    /// the half-applied one.
    ReplayDiverged,
    /// A readable, internally-intact sector holds content the host never
    /// wrote to that LBA.
    PhantomData,
    /// Replaying the same durable state twice produced different mappings.
    ReplayNotIdempotent,
    /// The device did not survive an idle second power cycle right after
    /// a successful recovery.
    RecoveryFailed,
}

impl ViolationKind {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::TornBatchHalfApplied => "torn-batch-half-applied",
            ViolationKind::ReplayDiverged => "replay-diverged",
            ViolationKind::PhantomData => "phantom-data",
            ViolationKind::ReplayNotIdempotent => "replay-not-idempotent",
            ViolationKind::RecoveryFailed => "recovery-failed",
        }
    }
}

/// One oracle violation, attributed to the cut that provoked it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The site whose span contained the cut.
    pub site: FaultSite,
    /// Which occurrence of that site (census numbering).
    pub occurrence: u64,
    /// Where inside the span the cut landed.
    pub phase: Phase,
    /// Absolute cut instant, µs of simulated time.
    pub cut_us: u64,
    /// The violated invariant.
    pub kind: ViolationKind,
    /// Human-readable specifics.
    pub detail: String,
}

/// Aggregated result of one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Spans the census recorded.
    pub sites_censused: usize,
    /// Trials executed (≤ 3 per span; degenerate spans collapse).
    pub trials: u64,
    /// All violations, in deterministic census × phase order.
    pub violations: Vec<Violation>,
    /// Trials that ended without a verdict, on the campaign's unified
    /// failure ledger (indices are sweep trial indices).
    pub failures: TrialFailures,
}

/// A minimal failing reproducer found by [`Sweeper::minimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimalRepro {
    /// The shrunk workload (a subsequence of the original ops).
    pub ops: Vec<IoOp>,
    /// The single fault placement that still violates the invariant.
    pub violation: Violation,
}

/// Sweep configuration: a device, a seed, and an explicit workload.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Device under test. The oracle's reference replay mirrors plain
    /// journal recovery, so [`SweepConfig::smoke`] pins
    /// [`pfault_ftl::RecoveryPolicy::JournalReplay`].
    pub ssd: SsdConfig,
    /// Seed for the device RNG; the census and every trial fork from it
    /// identically.
    pub seed: u64,
    /// The workload, as an explicit op list.
    pub ops: Vec<IoOp>,
}

impl SweepConfig {
    /// A small bounded configuration (tiny geometry, six ops) used by
    /// `make sweep-smoke` and the integration tests.
    pub fn smoke(seed: u64) -> SweepConfig {
        let mut ssd = pfault_ssd::VendorPreset::SsdA.config();
        ssd.geometry = pfault_flash::FlashGeometry::new(512, 64);
        ssd.ftl = pfault_ftl::FtlConfig::for_geometry(ssd.geometry);
        // The reference replay models journal recovery; FullScan's OOB
        // adoption would legitimately diverge from it.
        ssd.ftl.recovery_policy = pfault_ftl::RecoveryPolicy::JournalReplay;
        // The sweep's baseline is *correct* firmware: torn batches are
        // CRC-checked and discarded whole. (The workspace default is
        // `false` — the paper's drives half-apply, and the campaign
        // statistics model that — so the sweeper pins it explicitly;
        // flipping it back off is the seeded bug the sweeper must catch.)
        ssd.ftl.verify_batch_crc = true;
        SweepConfig {
            ssd,
            seed,
            ops: vec![
                IoOp::Write {
                    lba: 0,
                    sectors: 8,
                    tag: 0xA1,
                },
                IoOp::Write {
                    lba: 64,
                    sectors: 4,
                    tag: 0xB2,
                },
                IoOp::Flush,
                IoOp::Write {
                    lba: 0,
                    sectors: 8,
                    tag: 0xC3,
                },
                IoOp::Trim {
                    lba: 64,
                    sectors: 4,
                },
                IoOp::Write {
                    lba: 128,
                    sectors: 2,
                    tag: 0xD4,
                },
            ],
        }
    }
}

/// A planned cut: one sweep trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedCut {
    site: FaultSite,
    occurrence: u64,
    phase: Phase,
    at: SimTime,
}

/// The device state a driver run leaves behind.
struct Driven {
    ssd: Ssd,
    /// Every content version the host issued, per logical sector (in
    /// submission order). Input to the no-phantom check.
    issued: BTreeMap<u64, Vec<PageData>>,
}

/// Boundary sweeper over one `(device, seed, workload)` triple.
#[derive(Debug, Clone)]
pub struct Sweeper {
    config: SweepConfig,
}

/// Event-loop budget per driver run; a wedged pipeline becomes
/// [`TrialError::WatchdogExpired`] instead of a hang.
const EVENT_BUDGET: u64 = 10_000_000;

impl Sweeper {
    /// Creates a sweeper.
    pub fn new(config: SweepConfig) -> Self {
        Sweeper { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Runs the fault-free census and returns every recorded site span.
    pub fn census(&self) -> Result<Vec<SiteSpan>, TrialError> {
        let driven = self.drive(None, true)?;
        Ok(driven.ssd.site_spans().to_vec())
    }

    /// Runs the full sweep: census, expansion, one trial per cut, oracle.
    pub fn run(&self) -> Result<SweepReport, TrialError> {
        let spans = self.census()?;
        let cuts = Self::expand(&spans);
        let mut report = SweepReport {
            sites_censused: spans.len(),
            trials: 0,
            violations: Vec::new(),
            failures: TrialFailures::default(),
        };
        for (index, cut) in cuts.iter().enumerate() {
            report.trials += 1;
            match self.run_trial(cut.at) {
                Ok(found) => {
                    for (kind, detail) in found {
                        report.violations.push(Violation {
                            site: cut.site,
                            occurrence: cut.occurrence,
                            phase: cut.phase,
                            cut_us: cut.at.as_micros(),
                            kind,
                            detail,
                        });
                    }
                }
                Err(error) => report.failures.record(index as u64, &error),
            }
        }
        Ok(report)
    }

    /// Sweeps until the first violation of `kind` and returns it (trials
    /// after the hit are skipped — the minimizer's fast path).
    pub fn find_first(&self, kind: ViolationKind) -> Result<Option<Violation>, TrialError> {
        let spans = self.census()?;
        for cut in Self::expand(&spans) {
            let Ok(found) = self.run_trial(cut.at) else {
                continue; // bricked trials cannot witness this kind
            };
            if let Some((k, detail)) = found.into_iter().find(|(k, _)| *k == kind) {
                return Ok(Some(Violation {
                    site: cut.site,
                    occurrence: cut.occurrence,
                    phase: cut.phase,
                    cut_us: cut.at.as_micros(),
                    kind: k,
                    detail,
                }));
            }
        }
        Ok(None)
    }

    /// Shrinks the workload to a minimal op subsequence that still
    /// produces a violation of `kind`, ddmin-style: chunks of halving size
    /// are deleted greedily while the reproduction predicate (a fresh
    /// sub-sweep) holds. Returns `None` when the full workload does not
    /// reproduce `kind` in the first place. Deterministic: same seed ⇒
    /// byte-identical reproducer.
    pub fn minimize(&self, kind: ViolationKind) -> Result<Option<MinimalRepro>, TrialError> {
        if self.find_first(kind)?.is_none() {
            return Ok(None);
        }
        let reproduces = |ops: &[IoOp]| -> bool {
            let mut config = self.config.clone();
            config.ops = ops.to_vec();
            matches!(Sweeper::new(config).find_first(kind), Ok(Some(_)))
        };
        let mut ops = self.config.ops.clone();
        let mut chunk = (ops.len() / 2).max(1);
        loop {
            let mut shrunk = false;
            let mut start = 0;
            while start < ops.len() && ops.len() > 1 {
                let mut candidate = ops.clone();
                candidate.drain(start..(start + chunk).min(candidate.len()));
                if !candidate.is_empty() && reproduces(&candidate) {
                    ops = candidate;
                    shrunk = true;
                    // keep `start`: the next chunk shifted into place
                } else {
                    start += chunk;
                }
            }
            if !shrunk {
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
        }
        let mut config = self.config.clone();
        config.ops = ops.clone();
        let violation = Sweeper::new(config).find_first(kind)?;
        Ok(violation.map(|violation| MinimalRepro { ops, violation }))
    }

    /// Expands census spans into planned cuts, collapsing degenerate
    /// phases (zero-width spans yield a single `Start` cut).
    fn expand(spans: &[SiteSpan]) -> Vec<PlannedCut> {
        let mut cuts = Vec::new();
        for span in spans {
            for phase in Phase::ALL {
                let at = match phase {
                    Phase::Start => span.start,
                    Phase::Mid => {
                        span.start
                            + SimDuration::from_micros((span.end - span.start).as_micros() / 2)
                    }
                    Phase::End => span.end,
                };
                if phase != Phase::Start && at == span.start {
                    continue;
                }
                if phase == Phase::Mid && at == span.end {
                    continue;
                }
                cuts.push(PlannedCut {
                    site: span.site,
                    occurrence: span.index,
                    phase,
                    at,
                });
            }
        }
        cuts
    }

    /// One sweep trial: replay to `cut`, drop the rail, recover, run the
    /// oracle. Returns the violated invariants (empty = clean).
    fn run_trial(&self, cut: SimTime) -> Result<Vec<(ViolationKind, String)>, TrialError> {
        let mut driven = self.drive(Some(cut), false)?;
        let ssd = &mut driven.ssd;
        let mut at = ssd.now().max(cut) + SimDuration::from_secs(1);
        let mut attempts = 0u32;
        loop {
            match ssd.power_on_recover(at) {
                Ok(_) => break,
                Err(pfault_ssd::DeviceError::Bricked { attempts }) => {
                    return Err(TrialError::DeviceBricked {
                        seed: self.config.seed,
                        attempts,
                    });
                }
                Err(pfault_ssd::DeviceError::RecoveryFailed { .. }) => {
                    return Err(TrialError::DeviceBricked {
                        seed: self.config.seed,
                        attempts: 1,
                    });
                }
                Err(pfault_ssd::DeviceError::MountFailed { .. }) => {
                    attempts += 1;
                    if attempts > 8 {
                        return Err(TrialError::DeviceBricked {
                            seed: self.config.seed,
                            attempts,
                        });
                    }
                    at += SimDuration::from_secs(1);
                }
                Err(
                    e @ (pfault_ssd::DeviceError::RecoveryInterrupted { .. }
                    | pfault_ssd::DeviceError::NotMounted
                    | pfault_ssd::DeviceError::ReadOnly),
                ) => {
                    // Sweep mounts are never interrupted (no storm) and
                    // never degrade (verify/retirement stay off under the
                    // strict replay oracle).
                    unreachable!("sweep recovery cannot return {e}")
                }
            }
        }
        Ok(self.oracle(ssd, &driven.issued))
    }

    /// The recovery-invariant oracle. See the module docs.
    fn oracle(
        &self,
        ssd: &mut Ssd,
        issued: &BTreeMap<u64, Vec<PageData>>,
    ) -> Vec<(ViolationKind, String)> {
        let mut violations = Vec::new();

        // Whole-batch replay: compare against the two references.
        let device_map = ssd.mapped();
        let (strict, half_applied) = Self::reference_maps(ssd);
        if device_map != strict {
            if device_map == half_applied {
                violations.push((
                    ViolationKind::TornBatchHalfApplied,
                    format!(
                        "recovered map ({} entries) matches the half-applied reference, \
                         not the whole-batch replay ({} entries)",
                        device_map.len(),
                        strict.len()
                    ),
                ));
            } else {
                violations.push((
                    ViolationKind::ReplayDiverged,
                    format!(
                        "recovered map ({} entries) matches neither reference \
                         (whole-batch {}, half-applied {})",
                        device_map.len(),
                        strict.len(),
                        half_applied.len()
                    ),
                ));
            }
        }

        // No phantom data: every intact readable sector must hold a
        // version the host issued for that LBA (stale is fine; torn or
        // paired-corrupted pages fail is_intact and are data loss, not a
        // protocol violation).
        for (&lba, versions) in issued {
            if let VerifiedContent::Written(data) = ssd.verify_read(Lba::new(lba)) {
                if data.is_intact() && !versions.contains(&data) {
                    violations.push((
                        ViolationKind::PhantomData,
                        format!("lba {lba} reads back intact content the host never wrote there"),
                    ));
                }
            }
        }

        // Replay idempotence: an idle second outage must rebuild the same
        // map from the same durable state.
        let again = ssd.now();
        ssd.power_fail(&FaultTimeline::at_instant(again));
        let mut at = again + SimDuration::from_secs(1);
        let mut attempts = 0u64;
        let remounted = loop {
            match ssd.power_on_recover(at) {
                Ok(_) => break true,
                Err(pfault_ssd::DeviceError::MountFailed { .. }) if attempts < 8 => {
                    attempts += 1;
                    at += SimDuration::from_secs(1);
                }
                Err(_) => break false,
            }
        };
        if !remounted {
            violations.push((
                ViolationKind::RecoveryFailed,
                "device did not survive an idle second power cycle".to_string(),
            ));
        } else if ssd.mapped() != device_map {
            violations.push((
                ViolationKind::ReplayNotIdempotent,
                "replaying the same durable log twice produced a different map".to_string(),
            ));
        }
        violations
    }

    /// Builds the two reference mappings: `strict` applies durable batches
    /// whole, discarding everything from the first CRC mismatch on
    /// (exactly what correct recovery does); `half_applied` applies every
    /// surviving entry including torn prefixes (what the apply-before-
    /// verify bug does). Journal and checkpoint pages are programmed
    /// through the control path and are intact in this model, so
    /// readability is not re-checked here; a destroyed control page
    /// surfaces as [`ViolationKind::ReplayDiverged`].
    fn reference_maps(ssd: &Ssd) -> (MappedEntries, MappedEntries) {
        let ppb = ssd.config().ftl.geometry.pages_per_block();
        let build = |verify: bool| -> MappedEntries {
            let (mut map, replay_after) = match ssd.checkpoint_store().latest() {
                Some((_, checkpoint)) => (checkpoint.restore(), checkpoint.last_batch),
                None => (MappingTable::new(), None),
            };
            for record in ssd.durable_log().iter_records() {
                if replay_after.is_some_and(|last| record.batch.id <= last) {
                    continue;
                }
                if verify && !record.crc_ok() {
                    break;
                }
                record.batch.apply_to(&mut map, ppb);
            }
            let mut entries: Vec<(Lba, Ppa)> = map.iter().collect();
            entries.sort_by_key(|(l, _)| *l);
            entries
        };
        (build(true), build(false))
    }

    /// Drives the workload on a fresh same-seed device. With `cut: None`
    /// the run continues until the device goes idle (the census); with a
    /// cut, submission and event processing stop at the instant, the rail
    /// vanishes ([`FaultTimeline::at_instant`]), and the dead device is
    /// returned for recovery. Pre-cut event timing is identical between
    /// the two modes, which is what makes recorded spans replayable.
    fn drive(&self, cut: Option<SimTime>, record: bool) -> Result<Driven, TrialError> {
        let root = DetRng::new(self.config.seed);
        let mut ssd = Ssd::new(self.config.ssd, root.fork("ssd"));
        if record {
            ssd.enable_site_recording();
        }
        let mut issued: BTreeMap<u64, Vec<PageData>> = BTreeMap::new();
        let mut events = 0u64;
        let mut next_id = 0u64;
        let mut flush_id = FLUSH_ID_BASE;

        'ops: for op in &self.config.ops {
            if Self::cut_reached(&ssd, cut) {
                break 'ops;
            }
            match *op {
                IoOp::Write { lba, sectors, tag } => {
                    let sectors = sectors.max(1);
                    let cmd = HostCommand::write(
                        next_id,
                        0,
                        Lba::new(lba),
                        SectorCount::new(sectors),
                        tag,
                    );
                    for i in 0..sectors {
                        issued
                            .entry(lba + i)
                            .or_default()
                            .push(cmd.sector_content(i));
                    }
                    ssd.submit(cmd);
                    let id = next_id;
                    next_id += 1;
                    if !self.wait_for(&mut ssd, cut, id, &mut events)? {
                        break 'ops;
                    }
                }
                IoOp::Trim { lba, sectors } => {
                    ssd.trim(Lba::new(lba), SectorCount::new(sectors.max(1)));
                }
                IoOp::Flush => {
                    flush_id += 1;
                    ssd.submit_flush(flush_id, 0);
                    if !self.wait_for(&mut ssd, cut, flush_id, &mut events)? {
                        break 'ops;
                    }
                }
            }
        }

        // Tail: background work (flushes, commits, checkpoints, GC) until
        // the device goes idle or the cut arrives. A cut in an idle gap
        // is the step's limit, so the device always reaches it.
        while !Self::cut_reached(&ssd, cut) {
            self.check_budget(&ssd, &mut events)?;
            if !ssd.step(cut) {
                break;
            }
        }

        if let Some(t) = cut {
            ssd.power_fail(&FaultTimeline::at_instant(t));
        }
        ssd.drain_completions();
        Ok(Driven { ssd, issued })
    }

    /// Advances until the completion for `id` arrives. Returns `false`
    /// when the cut arrived first.
    fn wait_for(
        &self,
        ssd: &mut Ssd,
        cut: Option<SimTime>,
        id: u64,
        events: &mut u64,
    ) -> Result<bool, TrialError> {
        loop {
            self.check_budget(ssd, events)?;
            if ssd.drain_completions().iter().any(|c| c.request_id == id) {
                return Ok(true);
            }
            if Self::cut_reached(ssd, cut) {
                return Ok(false);
            }
            if !ssd.step(cut) {
                // Idle with the request open: a stall, so spend the budget.
                *events = EVENT_BUDGET;
            }
        }
    }

    fn cut_reached(ssd: &Ssd, cut: Option<SimTime>) -> bool {
        cut.is_some_and(|c| ssd.now() >= c)
    }

    fn check_budget(&self, ssd: &Ssd, events: &mut u64) -> Result<(), TrialError> {
        *events += 1;
        if *events > EVENT_BUDGET {
            return Err(TrialError::WatchdogExpired {
                seed: self.config.seed,
                sim_time_us: ssd.now().as_micros(),
                events: *events,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_finds_commit_and_flush_sites() {
        let sweeper = Sweeper::new(SweepConfig::smoke(3));
        let spans = sweeper.census().unwrap();
        assert!(spans.iter().any(|s| s.site == FaultSite::CacheFlushProgram));
        assert!(spans
            .iter()
            .any(|s| s.site == FaultSite::JournalCommitProgram));
    }

    #[test]
    fn expansion_collapses_degenerate_spans() {
        let spans = [SiteSpan {
            site: FaultSite::MappingReplay,
            index: 0,
            start: SimTime::from_micros(5),
            end: SimTime::from_micros(5),
            ppa: None,
        }];
        let cuts = Sweeper::expand(&spans);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].phase, Phase::Start);
    }

    #[test]
    fn correct_firmware_sweeps_clean() {
        let sweeper = Sweeper::new(SweepConfig::smoke(11));
        let report = sweeper.run().unwrap();
        assert!(report.trials > 0);
        assert_eq!(report.failures.total_failed(), 0, "{:?}", report.failures);
        assert!(
            report.violations.is_empty(),
            "CRC-verified replay must satisfy every invariant: {:?}",
            report.violations
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = Sweeper::new(SweepConfig::smoke(19)).run().unwrap();
        let b = Sweeper::new(SweepConfig::smoke(19)).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_crc_bug_is_found_and_shrunk() {
        let mut config = SweepConfig::smoke(7);
        config.ssd.ftl.verify_batch_crc = false;
        let sweeper = Sweeper::new(config);
        let hit = sweeper
            .find_first(ViolationKind::TornBatchHalfApplied)
            .unwrap()
            .expect("apply-before-verify bug must be caught");
        assert_eq!(hit.site, FaultSite::JournalCommitProgram);
        let repro = sweeper
            .minimize(ViolationKind::TornBatchHalfApplied)
            .unwrap()
            .expect("minimizer must keep the repro");
        assert!(
            repro.ops.len() <= 3,
            "repro should shrink to <= 3 IOs, got {:?}",
            repro.ops
        );
        assert_eq!(repro.violation.kind, ViolationKind::TornBatchHalfApplied);
    }

    #[test]
    fn minimize_returns_none_when_nothing_fails() {
        let sweeper = Sweeper::new(SweepConfig::smoke(23));
        assert!(sweeper
            .minimize(ViolationKind::TornBatchHalfApplied)
            .unwrap()
            .is_none());
    }
}

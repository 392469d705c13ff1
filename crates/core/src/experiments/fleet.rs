//! Extension L — fleet-scale correlated outages over erasure-coded
//! stripes.
//!
//! The paper's single-device pathologies (FWA, torn journals, bricked
//! mounts) meet the operator's standard defence: m+k erasure coding
//! declustered over a fleet. This experiment sweeps PSU-group size,
//! parity depth k, and outage *correlation* — a rack-level cut drops a
//! whole PSU group at one jittered instant, versus the same victim
//! count cut one device at a time with recovery and rebuild between —
//! and reports availability, durability, and mechanistic MTTDL per
//! point.
//!
//! Expected shape: independent cuts stay within parity (each outage
//! reverts at most one chunk per stripe, and the idle time between cuts
//! flushes the other victims' caches), while correlated cuts revert
//! several chunks of the same stripe at once and push it past k — so
//! correlated points show strictly worse durability and finite MTTDL.
//! Deeper parity buys the correlated case back some margin; a tight
//! rebuild-bandwidth budget lets a second outage land on stripes still
//! degraded from the first.
//!
//! Every trial is a pure function of `(config, seed)` with integer-only
//! tallies, so the report is byte-identical at any thread count —
//! asserted at run time by re-reducing one point on one and two
//! threads.

use std::fmt::Write as _;
use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use pfault_fleet::{FleetConfig, FleetSim, FleetTally};
use pfault_obs::Metrics;
use pfault_sim::checksum::mix64;

use crate::experiments::ExperimentScale;
use crate::report::Table;

/// Everything accumulated for one swept point: the fleet tally plus the
/// obs-pipeline counters derived from the probe stream (kept separate
/// so the two can cross-check each other).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointAgg {
    /// Merged integer tally across the point's trials.
    pub tally: FleetTally,
    /// `fleet.outage` probe events, via [`Metrics`].
    pub obs_outages: u64,
    /// `fleet.degraded-read` probe events, via [`Metrics`].
    pub obs_degraded: u64,
    /// `fleet.stripe-lost` probe events, via [`Metrics`].
    pub obs_lost: u64,
    /// `fleet.rebuild-interrupted` probe events, via [`Metrics`].
    pub obs_interrupted: u64,
}

impl PointAgg {
    fn merge(&mut self, other: &PointAgg) {
        self.tally.merge(&other.tally);
        self.obs_outages += other.obs_outages;
        self.obs_degraded += other.obs_degraded;
        self.obs_lost += other.obs_lost;
        self.obs_interrupted += other.obs_interrupted;
    }
}

/// One swept point of the fleet experiment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FleetRow {
    /// Devices sharing one PSU (victims per outage event).
    pub psu_group: usize,
    /// Parity chunks k (stripe survives up to k unrecoverable chunks).
    pub parity: usize,
    /// Rack-level correlated cuts, or the same victim count cut
    /// independently.
    pub correlated: bool,
    /// Trials merged into this row.
    pub trials: u64,
    /// Total device cuts across the row's trials.
    pub devices_cut: u64,
    /// Fraction of stripe scans that found the stripe readable.
    pub availability: f64,
    /// Fraction of stripes never lost.
    pub durability: f64,
    /// Mean fleet-hours between data-loss events (`None`: no loss ever
    /// observed — MTTDL unbounded, not zero).
    pub mttdl_hours: Option<f64>,
    /// Stripe-loss events (scans that found > k chunks unrecoverable).
    pub stripes_lost: u64,
    /// Reads served through erasure-coded reconstruction.
    pub degraded_reads: u64,
    /// Rebuild passes interrupted by an exhausted bandwidth budget.
    pub rebuilds_interrupted: u64,
    /// Lost-stripe chunks attributed to FWA staleness.
    pub loss_fwa: u64,
    /// Lost-stripe chunks attributed to torn writes.
    pub loss_torn: u64,
    /// Lost-stripe chunks attributed to bricked/wiped devices.
    pub loss_missing: u64,
}

/// Full fleet report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// One row per (psu_group, parity, correlation) point.
    pub rows: Vec<FleetRow>,
    /// Fleet-layer failure tallies in the campaign-wide
    /// [`crate::analyzer::FailureCounts`] shape (checkpoint v4 fields).
    pub counts: crate::analyzer::FailureCounts,
}

impl FleetReport {
    /// Rows for correlated points.
    pub fn correlated_rows(&self) -> impl Iterator<Item = &FleetRow> {
        self.rows.iter().filter(|r| r.correlated)
    }

    /// The independent twin of a correlated row, when present.
    pub fn independent_twin(&self, row: &FleetRow) -> Option<&FleetRow> {
        self.rows
            .iter()
            .find(|r| !r.correlated && r.psu_group == row.psu_group && r.parity == row.parity)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "psu group",
            "k",
            "mode",
            "cut",
            "avail",
            "durability",
            "MTTDL (h)",
            "lost",
            "degraded",
            "interrupted",
            "fwa",
            "torn",
            "missing",
        ]);
        for r in &self.rows {
            t.push_row([
                r.psu_group.to_string(),
                r.parity.to_string(),
                if r.correlated { "corr" } else { "indep" }.to_string(),
                r.devices_cut.to_string(),
                format!("{:.4}", r.availability),
                format!("{:.4}", r.durability),
                match r.mttdl_hours {
                    Some(h) => format!("{h:.0}"),
                    None => "unbounded".to_string(),
                },
                r.stripes_lost.to_string(),
                r.degraded_reads.to_string(),
                r.rebuilds_interrupted.to_string(),
                r.loss_fwa.to_string(),
                r.loss_torn.to_string(),
                r.loss_missing.to_string(),
            ]);
        }
        t
    }
}

impl core::fmt::Display for FleetReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// The swept fleet: 8 devices, 3 data chunks, parity and PSU grouping
/// varied per point. The rebuild budget is deliberately tight enough
/// that a correlated 4-device cut leaves work for the next gap.
fn point_config(psu_group: usize, parity: usize, correlated: bool) -> FleetConfig {
    let mut c = FleetConfig::small();
    c.parity_chunks = parity;
    c.psu_group = psu_group;
    c.correlated = correlated;
    c.rebuild_budget_sectors = 24;
    c
}

/// One trial of one point, with its probe stream folded through the
/// obs [`Metrics`] pipeline.
fn run_trial(config: &FleetConfig, seed: u64) -> PointAgg {
    let r = FleetSim::run(config, seed);
    let m = Metrics::from_records(&r.probes);
    PointAgg {
        tally: r.tally,
        obs_outages: m.counter("fleet.outage"),
        obs_degraded: m.counter("fleet.degraded-read"),
        obs_lost: m.counter("fleet.stripe-lost"),
        obs_interrupted: m.counter("fleet.rebuild-interrupted"),
    }
}

/// Reduces `trials` trials of one point on the work-stealing scheduler.
/// Results are absorbed in canonical trial order, so the aggregate is
/// byte-identical at any thread count.
pub fn run_point(config: &FleetConfig, point_seed: u64, trials: u64, threads: usize) -> PointAgg {
    let (acc, _stats) = crate::scheduler::run_work_stealing(
        0..trials,
        threads,
        crate::scheduler::DEFAULT_CHUNK,
        |i| run_trial(config, mix64(point_seed, i)),
        PointAgg::default(),
        |acc: &mut PointAgg, _i, t: PointAgg| {
            acc.merge(&t);
            ControlFlow::Continue(())
        },
    );
    acc
}

/// Runs the fleet sweep at the given scale on `scale.threads` workers.
pub fn run(scale: ExperimentScale, seed: u64) -> FleetReport {
    let trials = (scale.faults_per_point as u64 / 10).max(2);
    let mut rows = Vec::new();
    let mut counts = crate::analyzer::FailureCounts::default();
    let mut point = 0u64;
    for &parity in &[1usize, 2] {
        for &psu_group in &[1usize, 4] {
            for &correlated in &[true, false] {
                let config = point_config(psu_group, parity, correlated);
                let point_seed = mix64(seed, 0x464C_5054 ^ point);
                let agg = run_point(&config, point_seed, trials, scale.threads);
                let t = &agg.tally;
                rows.push(FleetRow {
                    psu_group,
                    parity,
                    correlated,
                    trials,
                    devices_cut: t.devices_cut,
                    availability: t.availability(),
                    durability: t.durability(),
                    mttdl_hours: t.mttdl_hours(),
                    stripes_lost: t.stripe_loss_events,
                    degraded_reads: t.degraded_reads,
                    rebuilds_interrupted: t.rebuilds_interrupted,
                    loss_fwa: t.loss_chunks_stale,
                    loss_torn: t.loss_chunks_garbled,
                    loss_missing: t.loss_chunks_missing,
                });
                counts.stripes_lost += t.stripe_loss_events;
                counts.degraded_reads += t.degraded_reads;
                counts.rebuilds_interrupted += t.rebuilds_interrupted;
                point += 1;
            }
        }
    }
    FleetReport { rows, counts }
}

/// Self-checks for an explicit `--exp fleet` run. Returns the list of
/// violated expectations (empty = the run vouches for itself).
pub fn check(report: &FleetReport, scale: ExperimentScale, seed: u64) -> Vec<String> {
    let mut checks = Vec::new();

    // The headline: every correlated point with a real PSU group must be
    // strictly worse than its independent twin.
    for corr in report.correlated_rows() {
        if corr.psu_group <= 1 {
            continue;
        }
        match report.independent_twin(corr) {
            None => checks.push(format!(
                "fleet smoke failed: correlated point (group {}, k {}) has no independent twin",
                corr.psu_group, corr.parity
            )),
            Some(indep) => {
                if corr.devices_cut != indep.devices_cut {
                    checks.push(format!(
                        "fleet smoke failed: unfair comparison — correlated cut {} devices, \
                         independent {}",
                        corr.devices_cut, indep.devices_cut
                    ));
                }
                if corr.stripes_lost <= indep.stripes_lost {
                    checks.push(format!(
                        "fleet smoke failed: correlated (group {}, k {}) lost {} stripes, \
                         not more than independent's {}",
                        corr.psu_group, corr.parity, corr.stripes_lost, indep.stripes_lost
                    ));
                }
                let worse = match (corr.mttdl_hours, indep.mttdl_hours) {
                    (Some(c), Some(i)) => c < i,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if !worse {
                    checks.push(format!(
                        "fleet smoke failed: correlated MTTDL {:?} not below independent {:?} \
                         (group {}, k {})",
                        corr.mttdl_hours, indep.mttdl_hours, corr.psu_group, corr.parity
                    ));
                }
            }
        }
    }

    let total = |f: fn(&FleetRow) -> u64| report.rows.iter().map(f).sum::<u64>();
    if total(|r| r.degraded_reads) == 0 {
        checks.push("fleet smoke failed: no read ever needed RS reconstruction".into());
    }
    if total(|r| r.rebuilds_interrupted) == 0 {
        checks.push("fleet smoke failed: no rebuild was ever interrupted mid-pass".into());
    }
    if report
        .correlated_rows()
        .all(|r| r.loss_fwa + r.loss_torn + r.loss_missing == 0)
    {
        checks.push(
            "fleet smoke failed: no stripe loss was attributed to a device-level cause".into(),
        );
    }

    // Thread-count independence, re-proven on this run's first point:
    // the 1-thread and 2-thread reductions must agree bit-for-bit.
    let trials = (scale.faults_per_point as u64 / 10).max(2);
    let config = point_config(1, 1, true);
    let point_seed = mix64(seed, 0x464C_5054);
    let serial = run_point(&config, point_seed, trials, 1);
    let threaded = run_point(&config, point_seed, trials, 2);
    if serial != threaded {
        checks.push("fleet smoke failed: 1-thread and 2-thread reductions diverged".into());
    }
    // And the obs pipeline must agree with the integer tallies.
    if serial.obs_degraded != serial.tally.degraded_reads
        || serial.obs_lost != serial.tally.stripe_loss_events
        || serial.obs_interrupted != serial.tally.rebuilds_interrupted
    {
        checks.push("fleet smoke failed: probe-derived counters diverge from tallies".into());
    }

    checks
}

/// Renders the human-readable section.
pub fn render(report: &FleetReport) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension L: correlated outages vs erasure-coded fleets =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "stripe-loss events {}, degraded reads {}, rebuilds interrupted {}",
        report.counts.stripes_lost, report.counts.degraded_reads,
        report.counts.rebuilds_interrupted
    );
    let _ = writeln!(
        text,
        "(correlated rack-level cuts revert several chunks of one stripe at once;\n\
         the same victim count cut independently stays within parity)\n"
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            faults_per_point: 6,
            requests_per_trial: 10,
            threads: 2,
        }
    }

    #[test]
    fn same_seed_fleet_reports_are_byte_identical_across_engines() {
        // 1, 2 and 3 threads — and plain reruns — must all produce
        // byte-identical reports.
        let at = |threads| ExperimentScale { threads, ..tiny() };
        let a = run(at(1), 777);
        let b = run(at(2), 777);
        let c = run(at(3), 777);
        let d = run(at(1), 777);
        let json = |r: &FleetReport| serde_json::to_string(r).expect("serializes");
        assert_eq!(json(&a), json(&b), "1 vs 2 threads");
        assert_eq!(json(&a), json(&c), "1 vs 3 threads");
        assert_eq!(json(&a), json(&d), "rerun");
    }

    #[test]
    fn correlated_points_degrade_mttdl_and_self_checks_pass() {
        let report = run(tiny(), 42);
        let failures = check(&report, tiny(), 42);
        assert!(
            failures.is_empty(),
            "fleet self-checks must pass: {failures:?}"
        );
        // The v4 checkpoint fields carry real fleet data.
        assert!(report.counts.stripes_lost > 0);
        assert!(report.counts.degraded_reads > 0);
    }

    #[test]
    fn report_renders_with_unbounded_mttdl() {
        let report = run(tiny(), 99);
        let text = render(&report);
        assert!(text.contains("Extension L"));
        assert!(
            text.contains("unbounded"),
            "independent single-cut points never lose data: {text}"
        );
    }
}

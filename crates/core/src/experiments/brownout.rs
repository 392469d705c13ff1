//! Extension — transient voltage sags (brownouts).
//!
//! The paper injects complete outages only; real power incidents include
//! sags that recover on their own. This experiment sweeps the sag floor
//! across the device's voltage thresholds and measures what each depth
//! costs: nothing, in-flight IO errors only, or full volatile-state loss
//! despite power never actually going away.

use serde::{Deserialize, Serialize};

use pfault_power::{BrownoutEvent, BrownoutSeverity, Millivolts};
use pfault_sim::storage::GIB;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration};
use pfault_ssd::device::{HostCommand, Ssd, VerifiedContent};

use crate::experiments::{base_trial, ExperimentScale};
use crate::report::{fnum, Table};

/// One sag-depth point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BrownoutRow {
    /// Sag floor, millivolts.
    pub floor_mv: u32,
    /// Classified severity at this depth.
    pub severity: BrownoutSeverity,
    /// Trials run.
    pub trials: u64,
    /// Trials in which at least one acknowledged write was lost.
    pub trials_with_data_loss: u64,
    /// In-flight commands errored across all trials.
    pub io_errors: u64,
}

/// Full brownout report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BrownoutReport {
    /// One row per sag depth.
    pub rows: Vec<BrownoutRow>,
}

impl BrownoutReport {
    /// Row at a given floor.
    pub fn at(&self, floor_mv: u32) -> Option<&BrownoutRow> {
        self.rows.iter().find(|r| r.floor_mv == floor_mv)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "floor (mV)",
            "severity",
            "trials",
            "trials w/ data loss",
            "IO errors",
            "loss rate",
        ]);
        for r in &self.rows {
            t.push_row([
                r.floor_mv.to_string(),
                format!("{:?}", r.severity),
                r.trials.to_string(),
                r.trials_with_data_loss.to_string(),
                r.io_errors.to_string(),
                fnum(r.trials_with_data_loss as f64 / r.trials.max(1) as f64, 2),
            ]);
        }
        t
    }
}

/// One sag trial: write a handful of requests, sag mid-stream, verify.
/// Returns `(data_lost, io_errors)`.
fn sag_trial(floor: Millivolts, seed: u64) -> (bool, u64) {
    let trial = base_trial();
    let root = DetRng::new(seed);
    let mut rng = root.fork("brownout");
    let mut ssd = Ssd::new(trial.ssd, root.fork("ssd"));
    let wss = 8 * GIB / 4096;

    // A few acknowledged writes, tracked for verification.
    let mut acked: Vec<HostCommand> = Vec::new();
    for id in 0..6u64 {
        let sectors = SectorCount::new(rng.between(1, 128));
        let lba = Lba::new(rng.below(wss - sectors.get()));
        let cmd = HostCommand::write(id, 0, lba, sectors, rng.next_u64());
        ssd.submit(cmd);
        let ack = ssd.run_until_complete(id);
        assert!(ack.is_some_and(|c| c.acked()), "write {id} not acked");
        acked.push(cmd);
    }
    // One more command in flight when the sag begins.
    let inflight = HostCommand::write(
        99,
        0,
        Lba::new(rng.below(wss - 128)),
        SectorCount::new(128),
        1,
    );
    ssd.submit(inflight);

    let event = BrownoutEvent {
        start: ssd.now(),
        floor,
        sag: SimDuration::from_millis(2),
        recovery: SimDuration::from_millis(2),
    };
    ssd.apply_brownout(&event);
    let io_errors = ssd
        .drain_completions()
        .iter()
        .filter(|c| !c.acked())
        .count() as u64;

    // Settle and verify every acknowledged write.
    if ssd.is_operational() {
        ssd.quiesce();
    }
    let mut lost = false;
    for cmd in &acked {
        for i in 0..cmd.sectors.get() {
            let expected = cmd.sector_content(i);
            match ssd.verify_read(Lba::new(cmd.lba.index() + i)) {
                VerifiedContent::Written(d) if d == expected => {}
                _ => {
                    lost = true;
                    break;
                }
            }
        }
    }
    (lost, io_errors)
}

impl core::fmt::Display for BrownoutReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Runs the sag-depth sweep.
pub fn run(scale: ExperimentScale, seed: u64) -> BrownoutReport {
    let floors = [4_600u32, 4_495, 3_500, 2_000];
    let trials = (scale.faults_per_point / 4).max(8) as u64;
    let rows = floors
        .iter()
        .map(|&floor_mv| {
            let severity = BrownoutEvent {
                start: pfault_sim::SimTime::ZERO,
                floor: Millivolts::new(floor_mv),
                sag: SimDuration::from_millis(2),
                recovery: SimDuration::from_millis(2),
            }
            .severity();
            let mut with_loss = 0;
            let mut io_errors = 0;
            for i in 0..trials {
                let (lost, errs) = sag_trial(
                    Millivolts::new(floor_mv),
                    seed ^ (u64::from(floor_mv) << 13) ^ i,
                );
                if lost {
                    with_loss += 1;
                }
                io_errors += errs;
            }
            BrownoutRow {
                floor_mv,
                severity,
                trials,
                trials_with_data_loss: with_loss,
                io_errors,
            }
        })
        .collect();
    BrownoutReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_render() {
        let r = BrownoutReport {
            rows: vec![BrownoutRow {
                floor_mv: 3_500,
                severity: BrownoutSeverity::ControllerReset,
                trials: 8,
                trials_with_data_loss: 8,
                io_errors: 8,
            }],
        };
        assert_eq!(r.at(3_500).unwrap().trials, 8);
        assert!(r.at(9_999).is_none());
        assert!(r.to_string().contains("ControllerReset"));
    }
}

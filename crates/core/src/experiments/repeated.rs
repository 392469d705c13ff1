//! Extension — repeated outages on a single device.
//!
//! The paper's testbed injects thousands of faults into the *same*
//! physical drives, power-cycling between injections. This experiment
//! checks that behaviour over consecutive cycles on one simulated device:
//! each cycle writes a batch of requests, suffers an outage, recovers, and
//! verifies every batch written so far. Per-cycle loss should stay flat
//! (damage does not compound while the drive is young), and data that
//! survived one outage must keep surviving later ones.

use serde::{Deserialize, Serialize};

use pfault_power::FaultInjector;
use pfault_sim::storage::GIB;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration};
use pfault_ssd::device::{HostCommand, Ssd, VerifiedContent};

use crate::experiments::{base_trial, ExperimentScale};
use crate::report::Table;

/// Results of one outage cycle.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CycleRow {
    /// Cycle index (0-based).
    pub cycle: u64,
    /// Requests written in this cycle.
    pub written: u64,
    /// This cycle's requests lost to this cycle's outage.
    pub fresh_lost: u64,
    /// Requests from *earlier* cycles (verified intact before) that a
    /// later outage newly damaged.
    pub old_newly_lost: u64,
}

/// Full repeated-outage report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepeatedReport {
    /// Devices exercised.
    pub devices: u64,
    /// Aggregated per-cycle rows (summed over devices).
    pub rows: Vec<CycleRow>,
}

impl RepeatedReport {
    /// Total requests from earlier cycles newly damaged by later faults.
    pub fn total_old_newly_lost(&self) -> u64 {
        self.rows.iter().map(|r| r.old_newly_lost).sum()
    }

    /// Mean fresh loss per cycle.
    pub fn mean_fresh_lost(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.fresh_lost).sum::<u64>() as f64 / self.rows.len() as f64
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["cycle", "written", "fresh lost", "old newly lost"]);
        for r in &self.rows {
            t.push_row([
                r.cycle.to_string(),
                r.written.to_string(),
                r.fresh_lost.to_string(),
                r.old_newly_lost.to_string(),
            ]);
        }
        t
    }
}

impl core::fmt::Display for RepeatedReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Exercises one device over `cycles` outages; returns per-cycle
/// `(written, fresh_lost, old_newly_lost)`.
fn device_run(cycles: u64, writes_per_cycle: u64, seed: u64) -> Vec<(u64, u64, u64)> {
    let trial = base_trial();
    let root = DetRng::new(seed);
    let mut rng = root.fork("repeated");
    let mut ssd = Ssd::new(trial.ssd, root.fork("ssd"));
    let wss = 32 * GIB / 4096;
    let injector = FaultInjector::arduino_atx_loaded();

    // Per request: command + whether it was verified intact last time.
    let mut survivors: Vec<HostCommand> = Vec::new();
    let mut next_id = 0u64;
    let mut out = Vec::new();

    let verify = |ssd: &mut Ssd, cmd: &HostCommand| -> bool {
        (0..cmd.sectors.get()).all(|i| {
            matches!(
                ssd.verify_read(Lba::new(cmd.lba.index() + i)),
                VerifiedContent::Written(d) if d == cmd.sector_content(i)
            )
        })
    };

    for _cycle in 0..cycles {
        let mut fresh: Vec<HostCommand> = Vec::new();
        for _ in 0..writes_per_cycle {
            let sectors = SectorCount::new(rng.between(1, 128));
            let lba = Lba::new(rng.below(wss - sectors.get()));
            let cmd = HostCommand::write(next_id, 0, lba, sectors, rng.next_u64());
            next_id += 1;
            ssd.submit(cmd);
            ssd.run_until_complete(cmd.request_id)
                .expect("write completes on a mounted device");
            fresh.push(cmd);
        }

        let timeline = injector.timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovery remounts");

        // Overwritten sectors belong to the newest writer; drop older
        // commands that were superseded before verifying.
        let mut owner = std::collections::HashMap::new();
        for cmd in survivors.iter().chain(&fresh) {
            for i in 0..cmd.sectors.get() {
                owner.insert(cmd.lba.index() + i, cmd.request_id);
            }
        }
        let owns_everything = |cmd: &HostCommand| {
            (0..cmd.sectors.get()).all(|i| owner[&(cmd.lba.index() + i)] == cmd.request_id)
        };

        let mut fresh_lost = 0;
        let mut next_survivors = Vec::new();
        for cmd in &fresh {
            if !owns_everything(cmd) {
                continue;
            }
            if verify(&mut ssd, cmd) {
                next_survivors.push(*cmd);
            } else {
                fresh_lost += 1;
            }
        }
        let mut old_newly_lost = 0;
        for cmd in &survivors {
            if !owns_everything(cmd) {
                continue;
            }
            if verify(&mut ssd, cmd) {
                next_survivors.push(*cmd);
            } else {
                old_newly_lost += 1;
            }
        }
        survivors = next_survivors;
        out.push((fresh.len() as u64, fresh_lost, old_newly_lost));
    }
    out
}

/// Runs the repeated-outage study over several independent devices.
pub fn run(scale: ExperimentScale, seed: u64) -> RepeatedReport {
    let cycles = 8u64;
    let devices = (scale.faults_per_point as u64 / cycles).max(3);
    let writes_per_cycle = (scale.requests_per_trial as u64 / 2).max(10);
    let mut rows: Vec<CycleRow> = (0..cycles)
        .map(|cycle| CycleRow {
            cycle,
            written: 0,
            fresh_lost: 0,
            old_newly_lost: 0,
        })
        .collect();
    for d in 0..devices {
        let per_cycle = device_run(cycles, writes_per_cycle, seed ^ (d << 21));
        for (cycle, (written, fresh, old)) in per_cycle.into_iter().enumerate() {
            rows[cycle].written += written;
            rows[cycle].fresh_lost += fresh;
            rows[cycle].old_newly_lost += old;
        }
    }
    RepeatedReport { devices, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_helpers() {
        let r = RepeatedReport {
            devices: 2,
            rows: vec![
                CycleRow {
                    cycle: 0,
                    written: 20,
                    fresh_lost: 4,
                    old_newly_lost: 0,
                },
                CycleRow {
                    cycle: 1,
                    written: 20,
                    fresh_lost: 6,
                    old_newly_lost: 1,
                },
            ],
        };
        assert_eq!(r.total_old_newly_lost(), 1);
        assert!((r.mean_fresh_lost() - 5.0).abs() < 1e-12);
        assert!(r.to_string().contains("fresh lost"));
    }
}

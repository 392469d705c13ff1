//! §IV-A — impact of the interval between request completion and the
//! power fault.
//!
//! A marker write is issued on top of light background traffic; after its
//! ACK the platform idles for a controlled delay, then commands the fault.
//! Sweeping the delay shows the post-completion vulnerability window: the
//! paper observes corrupted requests up to **≈700 ms** after the ACK
//! (volatile cache + volatile mapping), and the same failures with the
//! device's internal cache disabled.

use serde::{Deserialize, Serialize};

use pfault_power::FaultInjector;
use pfault_sim::storage::GIB;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration};
use pfault_ssd::device::{HostCommand, Ssd, VerifiedContent};
use pfault_ssd::CacheConfig;

use crate::experiments::{base_trial, ExperimentScale};
use crate::report::{fnum, Table};

/// One swept delay point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IntervalRow {
    /// Delay between the marker's ACK and the fault command, ms.
    pub delay_ms: u64,
    /// Trials run at this delay.
    pub trials: u64,
    /// Trials in which the marker request was corrupted or reverted.
    pub marker_failures: u64,
}

impl IntervalRow {
    /// Failure probability at this delay.
    pub fn failure_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.marker_failures as f64 / self.trials as f64
        }
    }
}

/// Full §IV-A report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IntervalReport {
    /// Whether the device cache was enabled in this run.
    pub cache_enabled: bool,
    /// One row per delay.
    pub rows: Vec<IntervalRow>,
}

impl IntervalReport {
    /// Largest delay at which any marker failure was observed (the
    /// paper's ≈700 ms number), if any failure occurred at all.
    pub fn max_delay_with_failure_ms(&self) -> Option<u64> {
        self.rows
            .iter()
            .filter(|r| r.marker_failures > 0)
            .map(|r| r.delay_ms)
            .max()
    }

    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["delay after ACK (ms)", "trials", "failures", "rate"]);
        for r in &self.rows {
            t.push_row([
                r.delay_ms.to_string(),
                r.trials.to_string(),
                r.marker_failures.to_string(),
                fnum(r.failure_rate(), 2),
            ]);
        }
        t
    }
}

impl core::fmt::Display for IntervalReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Runs one marker trial; returns whether the marker request failed.
fn marker_trial(delay: SimDuration, cache_enabled: bool, seed: u64) -> bool {
    let mut trial = base_trial();
    if !cache_enabled {
        trial.ssd.cache = CacheConfig::disabled();
    }
    let root = DetRng::new(seed);
    let mut rng = root.fork("interval");
    let mut ssd = Ssd::new(trial.ssd, root.fork("ssd"));
    let wss_sectors = 8 * GIB / 4096;

    // Background traffic: a handful of random writes so the journal and
    // cache are in a realistic state.
    let background = 8u64;
    for id in 0..background {
        let sectors = SectorCount::new(rng.between(1, 256));
        let lba = Lba::new(rng.below(wss_sectors - sectors.get()));
        ssd.submit(HostCommand::write(id, 0, lba, sectors, rng.next_u64()));
        // Serial submission: wait for the ACK.
        let ack = ssd.run_until_complete(id);
        assert!(ack.is_some_and(|c| c.acked()), "write {id} not acked");
    }

    // The marker request.
    let marker_id = background;
    let marker_sectors = SectorCount::new(rng.between(1, 256));
    let marker_lba = Lba::new(rng.below(wss_sectors - marker_sectors.get()));
    let marker_tag = rng.next_u64();
    let marker = HostCommand::write(marker_id, 0, marker_lba, marker_sectors, marker_tag);
    ssd.submit(marker);
    let ack = ssd.run_until_complete(marker_id).filter(|c| c.acked());
    let ack_time = ack.expect("marker must be acked before the fault").time;

    // Idle until ACK + delay, then inject. (The event loop above may have
    // stepped slightly past the ACK instant; never command in the past.)
    let injector = FaultInjector::arduino_atx_loaded();
    let timeline = injector.timeline((ack_time + delay).max(ssd.now()));
    ssd.advance_to(timeline.commanded);
    ssd.power_fail(&timeline);
    ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
        .expect("recovery remounts");

    // Verify the marker.
    (0..marker_sectors.get()).any(|i| {
        let expected = marker.sector_content(i);
        match ssd.verify_read(Lba::new(marker_lba.index() + i)) {
            VerifiedContent::Written(d) => d != expected,
            VerifiedContent::Unwritten | VerifiedContent::Unreadable => true,
        }
    })
}

/// Runs the §IV-A sweep. Delays default to 0–1000 ms in 100 ms steps.
pub fn run(scale: ExperimentScale, seed: u64, cache_enabled: bool) -> IntervalReport {
    let delays: Vec<u64> = (0..=10).map(|i| i * 100).collect();
    let trials_per_delay = (scale.faults_per_point / 4).max(8);
    let rows = delays
        .iter()
        .map(|&delay_ms| {
            let failures = (0..trials_per_delay)
                .filter(|&i| {
                    marker_trial(
                        SimDuration::from_millis(delay_ms),
                        cache_enabled,
                        seed ^ (delay_ms << 10) ^ i as u64,
                    )
                })
                .count() as u64;
            IntervalRow {
                delay_ms,
                trials: trials_per_delay as u64,
                marker_failures: failures,
            }
        })
        .collect();
    IntervalReport {
        cache_enabled,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_delay_and_rates() {
        let r = IntervalReport {
            cache_enabled: true,
            rows: vec![
                IntervalRow {
                    delay_ms: 0,
                    trials: 10,
                    marker_failures: 10,
                },
                IntervalRow {
                    delay_ms: 500,
                    trials: 10,
                    marker_failures: 3,
                },
                IntervalRow {
                    delay_ms: 900,
                    trials: 10,
                    marker_failures: 0,
                },
            ],
        };
        assert_eq!(r.max_delay_with_failure_ms(), Some(500));
        assert!((r.rows[1].failure_rate() - 0.3).abs() < 1e-12);
        assert_eq!(
            IntervalRow {
                delay_ms: 0,
                trials: 0,
                marker_failures: 0
            }
            .failure_rate(),
            0.0
        );
        let none = IntervalReport {
            cache_enabled: false,
            rows: vec![],
        };
        assert_eq!(none.max_delay_with_failure_ms(), None);
        assert!(r.to_string().contains("delay after ACK"));
    }
}

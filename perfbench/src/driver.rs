//! The traced trial driver: `TestPlatform::run_trial_on` repeated step
//! for step, with a wall-clock span around every call into a layer's
//! public function.
//!
//! Spans are plain nanosecond accumulators in [`Layers`], summed over
//! every trial the driver runs; nothing is written until the benchmark
//! ends. The layers are:
//!
//! * `image` — the trial's device: `DeviceImage::clone_cow` +
//!   `Ssd::reseed_for_trial` with a warm-up, `Ssd::new` without one, and
//!   dropping the device when the trial ends;
//! * `host` — the IO loop and the host bookkeeping around it (workload
//!   generator, `BlockTracer`, oracle, request records); its self time
//!   excludes the `device` spans nested in it;
//! * `device` — `Ssd::{submit, submit_flush, next_event, advance_to,
//!   drain_completions}`: one span per submit, and one per event-loop
//!   step (`next_event` + `advance_to` + the next `drain_completions`),
//!   which keeps the timer reads per trial low;
//! * `outage` — `Ssd::power_fail`;
//! * `recovery` — `Ssd::power_on_recover` (every mount attempt);
//! * `classify` — `analyzer::classify_all`.
//!
//! The driver replicates only what it can replay exactly: closed-loop
//! arrival, no recovery storm, probe bus off. [`TracedDriver::new`]
//! rejects every other configuration.

use std::sync::Arc;
use std::time::Instant;

use pfault_flash::array::PageData;
use pfault_platform::analyzer::{classify_all, FailureKind};
use pfault_platform::oracle::Oracle;
use pfault_platform::record::RequestRecord;
use pfault_platform::{snapcache, TestPlatform, TrialConfig, TrialError, TrialOutcome};
use pfault_power::FaultTimeline;
use pfault_sim::{DetRng, SectorCount, SimDuration, SimTime};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::{Completion, DeviceError, DeviceImage};
use pfault_trace::{analyze, BlockTracer};
use pfault_workload::{ArrivalModel, DataPacket, WorkloadGenerator};

/// FLUSH barrier ids sit far above any data request id (the platform's
/// convention; barriers are not entered into the records).
const FLUSH_ID_BASE: u64 = 1 << 40;

/// Span totals (ns) and work counts, summed over traced trials.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Trials traced.
    pub trials: u64,
    /// Whole-trial time.
    pub trial_ns: u64,
    /// Whole-trial time of each trial, in ms (for percentiles).
    pub trial_ms: Vec<f64>,
    /// `image` span.
    pub image_ns: u64,
    /// `host` spans, including their nested `device` spans.
    pub host_ns: u64,
    /// `device` spans.
    pub device_ns: u64,
    /// `outage` span.
    pub outage_ns: u64,
    /// `recovery` spans.
    pub recovery_ns: u64,
    /// `classify` span.
    pub classify_ns: u64,
    /// `Ssd::advance_to` calls.
    pub advances: u64,
    /// Event-loop step spans (part of `device_ns`): `next_event`,
    /// `advance_to` and the next `drain_completions`.
    pub step_ns: u64,
    /// `Ssd::submit` + `Ssd::submit_flush` calls.
    pub submits: u64,
    /// Mapping entries applied from replayed journal batches.
    pub journal_entries: u64,
    /// Size of the rebuilt logical-to-physical map.
    pub map_rebuild_entries: u64,
    /// Sectors read back by classification.
    pub sectors_checked: u64,
    /// Flash page programs during the trial.
    pub flash_programs: u64,
    /// Flash page reads during the trial.
    pub flash_reads: u64,
}

impl Layers {
    /// Time the named spans cover: every layer's outermost span (the
    /// `device` spans nest inside `host`).
    pub fn covered_ns(&self) -> u64 {
        self.image_ns + self.host_ns + self.outage_ns + self.recovery_ns + self.classify_ns
    }

    /// `host` self time: its spans minus the `device` spans inside them.
    pub fn host_self_ns(&self) -> u64 {
        self.host_ns.saturating_sub(self.device_ns)
    }

    /// Closes an event-loop step span opened at `start`.
    fn end_step(&mut self, start: Instant) {
        let ns = start.elapsed().as_nanos() as u64;
        self.step_ns += ns;
        self.device_ns += ns;
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_nanos() as u64;
    out
}

/// The traced replica of `TestPlatform::run_trial_on`.
#[derive(Debug)]
pub struct TracedDriver {
    config: TrialConfig,
    image: Option<Arc<DeviceImage>>,
}

impl TracedDriver {
    /// A driver for `config`. With a warm-up, trials clone the memoized
    /// warm image from the process-wide snapshot cache, as the campaign
    /// engine does. Configurations the driver does not replicate are
    /// rejected: open-loop arrival, recovery storms, and the probe bus.
    pub fn new(config: TrialConfig) -> Result<TracedDriver, String> {
        if !matches!(config.workload.arrival, ArrivalModel::ClosedLoop { .. }) {
            return Err("traced driver replicates closed-loop arrival only".to_string());
        }
        if config.recovery_cut_rate > 0.0 && config.max_recovery_cuts > 0 {
            return Err("traced driver does not replicate recovery storms".to_string());
        }
        if config.obs {
            return Err("traced driver does not replicate the probe bus (obs)".to_string());
        }
        let image = (config.warmup_requests > 0)
            .then(|| snapcache::warm_image_for(&TestPlatform::new(config)));
        Ok(TracedDriver { config, image })
    }

    /// Runs one trial with `seed`, adding its spans and counts to
    /// `layers`. Same outcome as `TestPlatform::run_trial(seed)`.
    pub fn run_trial(&self, seed: u64, layers: &mut Layers) -> Result<TrialOutcome, TrialError> {
        let trial_start = Instant::now();
        let result = self.trial(seed, layers);
        let ns = trial_start.elapsed().as_nanos() as u64;
        layers.trials += 1;
        layers.trial_ns += ns;
        layers.trial_ms.push(ns as f64 / 1e6);
        result
    }

    fn trial(&self, seed: u64, layers: &mut Layers) -> Result<TrialOutcome, TrialError> {
        let config = &self.config;
        let mut ssd = timed(&mut layers.image_ns, || match &self.image {
            Some(image) => {
                let mut ssd = image.clone_cow();
                ssd.reseed_for_trial(seed);
                ssd
            }
            None => Ssd::new(config.ssd, DetRng::new(seed).fork("ssd")),
        });
        let flash_before = ssd.flash_stats();

        let host_start = Instant::now();
        let root = DetRng::new(seed);
        let mut sched_rng = root.fork("scheduler");
        let mut generator = WorkloadGenerator::new(config.workload, root.fork("workload"));
        let mut tracer = BlockTracer::new(SectorCount::new(config.ssd.max_segment_sectors));
        let mut oracle = Oracle::new();
        let mut records: Vec<RequestRecord> = Vec::with_capacity(config.requests);

        let total = config.requests;
        let (lo, hi) = config.fault_after_fraction;
        let trigger_at = ((total as f64) * (lo + (hi - lo) * sched_rng.unit_f64())) as u64;
        let jitter = SimDuration::from_micros(sched_rng.below(config.fault_jitter_us.max(1)));
        let ArrivalModel::ClosedLoop { queue_depth } = config.workload.arrival else {
            unreachable!("TracedDriver::new admits closed-loop arrival only");
        };
        let queue_depth = queue_depth as usize;

        let mut issued = 0usize;
        let mut outstanding = 0usize;
        let mut completed = 0u64;
        let mut fault: Option<FaultTimeline> = None;
        let mut writes_since_flush = 0u64;
        let mut flush_counter = 0u64;
        let mut events = 0u64;

        // One device span per event-loop step: `next_event` + `advance_to`
        // at the bottom of an iteration through `drain_completions` at
        // the top of the next (only the watchdog check lies between).
        let mut step_start = Instant::now();
        loop {
            events += 1;
            if config.watchdog.expired(ssd.now(), events) {
                layers.end_step(step_start);
                layers.host_ns += host_start.elapsed().as_nanos() as u64;
                return Err(TrialError::WatchdogExpired {
                    seed,
                    sim_time_us: ssd.now().as_micros(),
                    events,
                });
            }

            let completions = ssd.drain_completions();
            layers.end_step(step_start);
            for c in completions {
                outstanding = outstanding.saturating_sub(1);
                if c.request_id >= FLUSH_ID_BASE {
                    continue;
                }
                apply_completion(&mut tracer, &mut records, &mut oracle, &c);
                let record = &records[c.request_id as usize];
                if record.completed() && record.acked_at == Some(c.time) {
                    completed += 1;
                }
            }

            if fault.is_none() && completed >= trigger_at {
                fault = Some(config.injector.timeline(ssd.now() + jitter));
            }
            let device_reachable = fault.is_none_or(|f| ssd.now() < f.host_lost);

            if device_reachable {
                while outstanding < queue_depth {
                    let packet = generator.next_packet();
                    outstanding +=
                        submit_packet(&mut ssd, &mut tracer, &oracle, &mut records, packet, layers);
                    issued += 1;
                    if packet.is_write {
                        writes_since_flush += 1;
                        if config.flush_every.is_some_and(|n| writes_since_flush >= n) {
                            writes_since_flush = 0;
                            flush_counter += 1;
                            timed(&mut layers.device_ns, || {
                                ssd.submit_flush(FLUSH_ID_BASE + flush_counter, 0)
                            });
                            layers.submits += 1;
                            outstanding += 1;
                        }
                    }
                }
            }

            if let Some(timeline) = fault {
                if ssd.now() >= timeline.host_lost {
                    break;
                }
            }

            step_start = Instant::now();
            let mut target: Option<SimTime> = ssd.next_event();
            if let Some(timeline) = fault {
                target = Some(target.map_or(timeline.host_lost, |x| x.min(timeline.host_lost)));
            }
            let advance = match target {
                Some(t) => Some(t.max(ssd.now() + SimDuration::from_micros(1))),
                None => match fault {
                    Some(timeline) => Some(timeline.host_lost),
                    None => {
                        fault = Some(config.injector.timeline(ssd.now() + jitter));
                        None
                    }
                },
            };
            if let Some(t) = advance {
                ssd.advance_to(t);
                layers.advances += 1;
            }
        }
        layers.host_ns += host_start.elapsed().as_nanos() as u64;

        let timeline = fault.expect("loop exits only with an armed fault");
        let fault_commanded = timeline.commanded;

        timed(&mut layers.outage_ns, || ssd.power_fail(&timeline));

        let host_start = Instant::now();
        for c in timed(&mut layers.device_ns, || ssd.drain_completions()) {
            if c.request_id >= FLUSH_ID_BASE {
                continue;
            }
            apply_completion(&mut tracer, &mut records, &mut oracle, &c);
        }
        layers.host_ns += host_start.elapsed().as_nanos() as u64;

        let mut recovery_time = timeline.discharged + SimDuration::from_secs(1);
        let mut backoff = SimDuration::from_secs(1);
        let recovery = loop {
            let result = timed(&mut layers.recovery_ns, || {
                ssd.power_on_recover(recovery_time)
            });
            match result {
                Ok(report) => break report,
                Err(DeviceError::Bricked { attempts }) => {
                    return Err(TrialError::DeviceBricked { seed, attempts });
                }
                Err(DeviceError::RecoveryFailed { .. }) => {
                    return Err(TrialError::DeviceBricked { seed, attempts: 1 });
                }
                Err(DeviceError::MountFailed { .. } | DeviceError::RecoveryInterrupted { .. }) => {
                    recovery_time = ssd.now() + backoff;
                    backoff = backoff * 2;
                }
                Err(e @ (DeviceError::NotMounted | DeviceError::ReadOnly)) => {
                    unreachable!("power_on_recover never returns {e}")
                }
            }
        };
        layers.journal_entries += recovery.journal_entries_replayed;
        layers.map_rebuild_entries += recovery.map_rebuild_entries;

        let host_start = Instant::now();
        let btt = analyze(tracer.events(), SimDuration::from_secs(30), recovery_time);
        debug_assert!(records.iter().all(|r| {
            btt.io(r.packet.id)
                .is_some_and(|io| io.completed == r.completed())
        }));
        layers.host_ns += host_start.elapsed().as_nanos() as u64;

        let (verdicts, mut counts) = timed(&mut layers.classify_ns, || {
            classify_all(&records, &oracle, &mut ssd)
        });
        counts.read_only_devices = u64::from(recovery.read_only);
        layers.sectors_checked += verdicts.iter().map(|v| v.sectors_checked).sum::<u64>();

        let host_start = Instant::now();
        let failed_ack_intervals_ms = records
            .iter()
            .zip(&verdicts)
            .filter(|(r, v)| {
                r.acked_at.is_some()
                    && matches!(
                        v.kind,
                        FailureKind::DataFailure | FailureKind::FalseWriteAck
                    )
            })
            .map(|(r, _)| {
                fault_commanded
                    .saturating_since(r.acked_at.expect("filtered on acked"))
                    .as_millis_f64()
            })
            .collect();
        let elapsed_s = fault_commanded.as_micros().max(1) as f64 / 1_000_000.0;
        let completed_before_fault = records
            .iter()
            .filter(|r| r.acked_at.is_some_and(|t| t <= fault_commanded))
            .count();
        let flash = ssd.flash_stats();
        layers.flash_programs += flash.programs - flash_before.programs;
        layers.flash_reads += flash.reads - flash_before.reads;
        let outcome = TrialOutcome {
            counts,
            verdicts,
            requests_issued: issued as u64,
            requests_completed: completed,
            responded_iops: completed_before_fault as f64 / elapsed_s,
            fault_commanded_ms: fault_commanded.as_millis_f64(),
            failed_ack_intervals_ms,
            interrupted_programs: flash.interrupted_programs,
            paired_corruptions: flash.paired_corruptions,
            dirty_sectors_lost: ssd.stats().last_fault_dirty_lost,
            map_sectors_lost: ssd.stats().last_fault_map_lost,
            events,
            recovery: Some(recovery),
            telemetry: None,
            probe_records: ssd.take_probe_records(),
        };
        drop((generator, tracer, oracle, records));
        layers.host_ns += host_start.elapsed().as_nanos() as u64;
        // Releasing the trial's device (its copy-on-write overlay and
        // rebuilt tables) is the other half of the image work.
        timed(&mut layers.image_ns, || drop(ssd));
        Ok(outcome)
    }
}

/// Queues one request with the tracer, records it, and submits its
/// sub-requests. Returns the number of sub-requests submitted.
fn submit_packet(
    ssd: &mut Ssd,
    tracer: &mut BlockTracer,
    oracle: &Oracle,
    records: &mut Vec<RequestRecord>,
    packet: DataPacket,
    layers: &mut Layers,
) -> usize {
    let pre: Vec<Option<PageData>> = packet
        .lbas()
        .map(|l| oracle.expected(l).map(|v| v.data))
        .collect();
    let subs = tracer.queue_request(
        packet.id,
        packet.lba,
        packet.sectors,
        packet.is_write,
        ssd.now(),
    );
    records.push(RequestRecord::new(
        packet,
        pre,
        subs.len() as u32,
        ssd.now(),
    ));
    let mut offset = 0u64;
    let count = subs.len();
    for sub in subs {
        tracer.dispatch(packet.id, sub.sub_id, ssd.now());
        let cmd = if packet.is_write {
            HostCommand::write(
                packet.id,
                sub.sub_id,
                sub.lba,
                sub.sectors,
                packet.payload_tag,
            )
            .with_payload_offset(offset)
        } else {
            HostCommand::read(packet.id, sub.sub_id, sub.lba, sub.sectors)
        };
        offset += sub.sectors.get();
        timed(&mut layers.device_ns, || ssd.submit(cmd));
        layers.submits += 1;
    }
    count
}

/// Applies one completion to the tracer, the request's record and — once
/// a write is fully acknowledged — the oracle.
fn apply_completion(
    tracer: &mut BlockTracer,
    records: &mut [RequestRecord],
    oracle: &mut Oracle,
    c: &Completion,
) {
    let record = &mut records[c.request_id as usize];
    if c.acked() {
        tracer.complete(c.request_id, c.sub_id, c.time);
        record.note_sub_ack(c.time);
        if record.completed() && record.packet.is_write && record.acked_at == Some(c.time) {
            let packet = record.packet;
            for (i, lba) in packet.lbas().enumerate() {
                oracle.acknowledge_write(
                    lba,
                    PageData::from_tag(packet.sector_tag(i as u64)),
                    packet.id,
                );
            }
        }
    } else {
        tracer.error(c.request_id, c.sub_id, c.time);
        record.note_sub_error();
    }
}

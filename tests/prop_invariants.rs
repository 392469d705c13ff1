//! Property-based tests over core data structures and invariants,
//! spanning the substrate crates.

use proptest::prelude::*;

use pfault_flash::block::PageData;
use pfault_flash::cell::{CellKind, CellPage};
use pfault_flash::geometry::Ppa;
use pfault_ftl::journal::{DurableLog, JournalBatch, JournalBuffer, JournalEntry};
use pfault_ftl::mapping::MappingTable;
use pfault_power::psu::PsuModel;
use pfault_power::{FaultInjector, Millivolts};
use pfault_sim::checksum::{crc32, fnv64};
use pfault_sim::{DetRng, EventQueue, Lba, SectorCount, SimDuration, SimTime};
use pfault_ssd::device::{HostCommand, Ssd, VerifiedContent};
use pfault_ssd::VendorPreset;

proptest! {
    // ---------------- pfault-sim ----------------

    #[test]
    fn rng_same_seed_same_stream(seed: u64) {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_between_stays_in_bounds(seed: u64, lo in 0u64..1000, span in 0u64..1000) {
        let hi = lo + span;
        let mut r = DetRng::new(seed);
        for _ in 0..64 {
            let v = r.between(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_equal_times_are_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().map(|(_, v)| v), Some(i));
        }
    }

    #[test]
    fn checksums_detect_any_single_byte_change(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        idx in any::<prop::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let mut mutated = data.clone();
        let i = idx.index(data.len());
        mutated[i] = mutated[i].wrapping_add(delta);
        prop_assert_ne!(crc32(&data), crc32(&mutated));
        prop_assert_ne!(fnv64(&data), fnv64(&mutated));
    }

    #[test]
    fn sector_count_round_trips_whole_sectors(sectors in 1u64..10_000) {
        let c = SectorCount::from_bytes(sectors * 4096);
        prop_assert_eq!(c.get(), sectors);
        prop_assert_eq!(c.bytes(), sectors * 4096);
    }

    #[test]
    fn lba_span_is_dense(start in 0u64..1_000_000, len in 1u64..300) {
        let lbas: Vec<u64> = Lba::new(start).span(SectorCount::new(len)).map(Lba::index).collect();
        prop_assert_eq!(lbas.len() as u64, len);
        for (i, l) in lbas.iter().enumerate() {
            prop_assert_eq!(*l, start + i as u64);
        }
    }

    // ---------------- pfault-flash ----------------

    #[test]
    fn cell_page_round_trips_any_data(
        kind in prop::sample::select(vec![CellKind::Slc, CellKind::Mlc, CellKind::Tlc]),
        data in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let cells_needed = data.len() * 8 / kind.bits_per_cell() as usize + 8;
        let mut page = CellPage::erased(kind, cells_needed);
        page.program_complete(&data);
        let read = page.read();
        prop_assert_eq!(&read[..data.len()], &data[..]);
    }

    #[test]
    fn interrupted_cell_program_never_gains_correct_data(
        progress in 0.0f64..0.6,
        seed: u64,
    ) {
        // An early-interrupted TLC program must leave wrong cells behind.
        let mut rng = DetRng::new(seed);
        let mut page = CellPage::erased(CellKind::Tlc, 1024);
        let data = vec![0xFFu8; page.capacity_bytes()];
        let wrong = page.program_interrupted(&data, progress, &mut rng);
        prop_assert!(wrong > 0);
    }

    #[test]
    fn page_data_garble_always_breaks_integrity(tag: u64, noise: u64) {
        let d = PageData::from_tag(tag);
        prop_assert!(d.is_intact());
        prop_assert!(!d.garbled(noise).is_intact());
    }

    // ---------------- pfault-ftl ----------------

    #[test]
    fn mapping_table_valid_counts_match_contents(
        ops in proptest::collection::vec((0u64..64, 0u64..16, 0u64..128), 1..300),
    ) {
        let mut table = MappingTable::new();
        for (lba, block, page) in ops {
            table.update(Lba::new(lba), Ppa::new(block, page));
        }
        // Per-block valid counts must equal a recount from the map itself.
        let mut recount = std::collections::HashMap::new();
        for (_, ppa) in table.iter() {
            *recount.entry(ppa.block).or_insert(0u64) += 1;
        }
        for (block, count) in table.blocks_with_valid_pages() {
            prop_assert_eq!(recount.get(&block).copied().unwrap_or(0), count);
        }
        prop_assert_eq!(
            recount.values().sum::<u64>() as usize,
            table.len()
        );
    }

    #[test]
    fn journal_buffer_conserves_coverage(
        writes in proptest::collection::vec((0u64..2_000, 0u64..2_000), 1..300),
    ) {
        // Every recorded sector is covered exactly once across volatile
        // state + drained batches, regardless of extent merging.
        let mut buffer = JournalBuffer::new();
        let mut drained = 0u64;
        for (i, (lba, flat_page)) in writes.iter().enumerate() {
            buffer.record(
                Lba::new(*lba),
                Ppa::new(flat_page / 64, flat_page % 64),
                true,
                320,
                64,
            );
            if i % 17 == 0 {
                drained += buffer
                    .drain_committable()
                    .iter()
                    .map(JournalEntry::coverage)
                    .sum::<u64>();
            }
        }
        prop_assert_eq!(
            drained + buffer.volatile_coverage(),
            writes.len() as u64
        );
    }

    #[test]
    fn torn_prefix_never_exceeds_budget_and_preserves_order(
        lens in proptest::collection::vec(1u64..50, 1..20),
        budget in 0u64..500,
    ) {
        let entries: Vec<JournalEntry> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| JournalEntry::Extent {
                lba_start: Lba::new(i as u64 * 1000),
                ppa_start: Ppa::new(i as u64, 0),
                len,
            })
            .collect();
        let batch = JournalBatch { id: 1, entries };
        let torn = batch.torn_prefix(budget);
        prop_assert!(torn.coverage() <= budget.min(batch.coverage()));
        // The prefix matches the original batch sector-for-sector.
        let full: Vec<_> = batch
            .entries
            .iter()
            .flat_map(|e| e.pairs(64))
            .collect();
        let kept: Vec<_> = torn
            .entries
            .iter()
            .flat_map(|e| e.pairs(64))
            .collect();
        prop_assert_eq!(&full[..kept.len()], &kept[..]);
    }

    #[test]
    fn journal_replay_is_idempotent(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u64..400, 0u64..2048, 1u64..16, 0u8..3), 1..8),
            1..10,
        ),
    ) {
        // Replaying a durable journal twice must yield the same mapping
        // table as replaying it once: Point, Extent and Trim entries are
        // all last-writer-wins, so a second full pass re-applies each
        // update to the value it already has. Crash recovery relies on
        // this — a recovery interrupted and restarted may replay batches
        // it already applied.
        let mut log = DurableLog::new();
        for (i, raw_entries) in raw.iter().enumerate() {
            let entries: Vec<JournalEntry> = raw_entries
                .iter()
                .map(|&(lba, flat_page, len, kind)| match kind {
                    0 => JournalEntry::Point {
                        lba: Lba::new(lba),
                        ppa: Ppa::new(flat_page / 64, flat_page % 64),
                    },
                    1 => JournalEntry::Extent {
                        lba_start: Lba::new(lba),
                        ppa_start: Ppa::new(flat_page / 64, flat_page % 64),
                        len,
                    },
                    _ => JournalEntry::Trim { lba: Lba::new(lba) },
                })
                .collect();
            log.append(
                Ppa::new(4000 + i as u64, 0),
                JournalBatch { id: i as u64 + 1, entries },
            );
        }
        let replay = |passes: usize| {
            let mut map = MappingTable::new();
            for _ in 0..passes {
                for record in log.iter_records() {
                    record.batch.apply_to(&mut map, 64);
                }
            }
            let mut pairs: Vec<_> = map.iter().collect();
            pairs.sort_by_key(|&(lba, _)| lba);
            pairs
        };
        prop_assert_eq!(replay(1), replay(2));
    }

    // ---------------- pfault-power ----------------

    #[test]
    fn psu_voltage_decays_monotonically(tau_ms in 10u64..2_000, t1 in 0u64..2_000, dt in 1u64..2_000) {
        let psu = PsuModel::with_tau(Millivolts::new(5000), SimDuration::from_millis(tau_ms));
        let early = psu.voltage_after(SimDuration::from_millis(t1));
        let late = psu.voltage_after(SimDuration::from_millis(t1 + dt));
        prop_assert!(late <= early);
    }

    #[test]
    fn psu_crossing_time_inverts(tau_ms in 50u64..2_000, mv in 100u32..4_999) {
        let psu = PsuModel::with_tau(Millivolts::new(5000), SimDuration::from_millis(tau_ms));
        let t = psu.time_to_voltage(Millivolts::new(mv));
        let v = psu.voltage_after(t);
        let err = i64::from(v.get()) - i64::from(mv);
        prop_assert!(err.abs() <= 10, "error {} mV", err);
    }

    // ---------------- device-level stress ----------------

    #[test]
    fn device_survives_random_command_storms_with_faults(
        seed: u64,
        ops in proptest::collection::vec((0u64..4096, 1u64..64, any::<bool>()), 1..40),
        fault_at_ms in 1u64..30,
    ) {
        // Arbitrary interleavings of writes/reads, an arbitrary fault, a
        // recovery, and a scrub: nothing may panic, and the device must
        // stay operational afterwards.
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(4096, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        let mut ssd = Ssd::new(config, DetRng::new(seed));
        for (i, (lba, sectors, is_write)) in ops.iter().enumerate() {
            let cmd = if *is_write {
                HostCommand::write(
                    i as u64,
                    0,
                    Lba::new(*lba),
                    SectorCount::new(*sectors),
                    seed ^ i as u64,
                )
            } else {
                HostCommand::read(i as u64, 0, Lba::new(*lba), SectorCount::new(*sectors))
            };
            ssd.submit(cmd);
            if i % 3 == 0 {
                ssd.step(None);
            }
        }
        let timeline =
            FaultInjector::arduino_atx_loaded().timeline(SimTime::from_millis(fault_at_ms).max(ssd.now()));
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovery remounts");
        prop_assert!(ssd.is_operational());
        let report = ssd.scrub().expect("operational device scrubs");
        prop_assert!(report.scanned >= report.unreadable + report.garbled);
        // Still usable for new IO.
        ssd.submit(HostCommand::write(9_999, 0, Lba::new(0), SectorCount::new(1), 1));
        ssd.advance_to(ssd.now() + SimDuration::from_millis(50));
        prop_assert!(ssd.drain_completions().iter().any(|c| c.acked()));
    }

    #[test]
    fn recovery_survives_arbitrary_cut_storms(
        seed: u64,
        ops in proptest::collection::vec((0u64..4096, 1u64..64, any::<bool>()), 1..30),
        cut_offsets in proptest::collection::vec(1u64..2_000, 0..6),
        fail_tier in 0u32..3,
        worn: bool,
    ) {
        // Tentpole invariant: an arbitrary workload, a power cut, and then
        // an arbitrary storm of further cuts landing *inside* the recovery
        // pipeline never panic, and the device always terminates in one of
        // exactly three states — operational, read-only, or bricked.
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(4096, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.ftl.retire_bad_blocks = true;
        config.ftl.spare_blocks = 1;
        config.recovery_verify = true;
        config.read_retry_limit = fail_tier; // 0 = no ladder
        config.mount_failure_rate = f64::from(fail_tier) * 0.3;
        config.mount_retry_limit = 3;
        if worn {
            config.baseline_wear = 2_900;
        }
        let mut ssd = Ssd::new(config, DetRng::new(seed));
        for (i, (lba, sectors, is_write)) in ops.iter().enumerate() {
            let cmd = if *is_write {
                HostCommand::write(
                    i as u64,
                    0,
                    Lba::new(*lba),
                    SectorCount::new(*sectors),
                    seed ^ i as u64,
                )
            } else {
                HostCommand::read(i as u64, 0, Lba::new(*lba), SectorCount::new(*sectors))
            };
            ssd.submit(cmd);
            if i % 3 == 0 {
                ssd.step(None);
            }
        }
        let timeline = FaultInjector::arduino_atx_loaded()
            .timeline((ssd.now() + SimDuration::from_millis(1)).max(SimTime::from_millis(2)));
        ssd.power_fail(&timeline);
        let mut mount_at = timeline.discharged + SimDuration::from_secs(1);
        let mut cuts = cut_offsets.iter();
        let mut guard = 0;
        let verdict = loop {
            guard += 1;
            prop_assert!(guard < 10_000, "recovery storm did not terminate");
            let result = match cuts.next() {
                Some(&offset_us) => {
                    let cut = pfault_power::FaultTimeline::at_instant(
                        mount_at + SimDuration::from_micros(offset_us),
                    );
                    ssd.power_on_recover_interruptible(mount_at, &cut)
                }
                None => ssd.power_on_recover(mount_at),
            };
            match result {
                Ok(report) => break Ok(report),
                Err(
                    pfault_ssd::DeviceError::MountFailed { .. }
                    | pfault_ssd::DeviceError::RecoveryInterrupted { .. },
                ) => {
                    mount_at = ssd.now() + SimDuration::from_secs(1);
                }
                Err(e) => break Err(e),
            }
        };
        match verdict {
            Ok(report) => {
                if report.read_only {
                    prop_assert!(ssd.is_read_only());
                    // Reads still answer; writes are rejected, not lost.
                    ssd.submit(HostCommand::read(90_000, 0, Lba::new(0), SectorCount::new(1)));
                    ssd.submit(HostCommand::write(
                        90_001,
                        0,
                        Lba::new(0),
                        SectorCount::new(1),
                        1,
                    ));
                    ssd.advance_to(ssd.now() + SimDuration::from_millis(50));
                    let completions = ssd.drain_completions();
                    prop_assert!(completions.iter().any(|c| c.request_id == 90_000 && c.acked()));
                    prop_assert!(completions.iter().any(|c| c.request_id == 90_001 && !c.acked()));
                } else {
                    prop_assert!(ssd.is_operational());
                    let scrub = ssd.scrub().expect("mounted device scrubs");
                    prop_assert!(scrub.scanned >= scrub.unreadable + scrub.garbled);
                }
            }
            Err(
                pfault_ssd::DeviceError::Bricked { .. }
                | pfault_ssd::DeviceError::RecoveryFailed { .. },
            ) => {
                prop_assert!(ssd.is_bricked());
            }
            Err(other) => prop_assert!(false, "unexpected terminal error: {other}"),
        }
    }

    #[test]
    fn flushed_data_always_survives_any_fault(seed: u64, sectors in 1u64..64) {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(2048, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        let mut ssd = Ssd::new(config, DetRng::new(seed));
        let cmd = HostCommand::write(1, 0, Lba::new(7), SectorCount::new(sectors), seed | 1);
        ssd.submit(cmd);
        ssd.submit_flush(2, 0);
        let flush = ssd.run_until_complete(2);
        prop_assert!(flush.is_some_and(|c| c.acked()), "flush did not complete");
        // Both rigs, immediately after the FLUSH ACK.
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovery remounts");
        for i in 0..sectors {
            match ssd.verify_read(Lba::new(7 + i)) {
                VerifiedContent::Written(d) => prop_assert_eq!(d, cmd.sector_content(i)),
                other => prop_assert!(false, "flushed sector {} lost: {:?}", i, other),
            }
        }
    }

    #[test]
    fn trial_outcomes_are_deterministic_per_seed(seed: u64) {
        use pfault_platform::platform::{TestPlatform, TrialConfig};
        let mut c = TrialConfig::paper_default();
        c.requests = 15;
        let platform = TestPlatform::new(c);
        let a = platform.run_trial(seed).expect("trial runs");
        let b = platform.run_trial(seed).expect("trial runs");
        prop_assert_eq!(a.counts, b.counts);
        prop_assert_eq!(a.fault_commanded_ms, b.fault_commanded_ms);
        prop_assert_eq!(a.requests_issued, b.requests_issued);
    }

    // ---------------- pfault-ssd cache ----------------

    #[test]
    fn write_cache_accounting_invariants(
        ops in proptest::collection::vec((0u64..32, 0u8..4), 1..200),
        capacity in 8u64..64,
    ) {
        // Arbitrary interleavings of insert / flush-pick / flush-complete /
        // invalidate keep the cache's accounting consistent.
        use pfault_ssd::cache::WriteCache;
        let mut cache = WriteCache::new(capacity);
        let mut in_flight: Vec<(Lba, PageData)> = Vec::new();
        for (i, (lba, op)) in ops.iter().enumerate() {
            let lba = Lba::new(*lba);
            match op {
                0 | 1 => {
                    // Insert dominates so the cache stays busy.
                    if cache.has_room_for(1) || cache.lookup(lba).is_some() {
                        cache.insert(lba, PageData::from_tag(i as u64), SimTime::from_micros(i as u64));
                    }
                }
                2 => {
                    if let Some((l, d)) =
                        cache.next_flushable(SimTime::from_secs(10), SimDuration::ZERO, 1.0)
                    {
                        in_flight.push((l, d));
                    }
                }
                _ => {
                    if let Some((l, d)) = in_flight.pop() {
                        cache.flush_complete(l, d);
                    } else {
                        cache.invalidate(lba);
                    }
                }
            }
            prop_assert!(cache.resident_sectors() <= capacity.max(cache.resident_sectors()));
            prop_assert!(cache.dirty_sectors() <= cache.resident_sectors());
            prop_assert_eq!(
                cache.dirty_entries().len() as u64,
                cache.dirty_sectors()
            );
        }
    }

    #[test]
    fn front_end_acks_writes_in_submission_order(
        seed: u64,
        lens in proptest::collection::vec(1u64..32, 2..12),
    ) {
        // The serialized front end must acknowledge same-priority writes
        // in the order they were submitted.
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(1024, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        let mut ssd = Ssd::new(config, DetRng::new(seed));
        for (i, len) in lens.iter().enumerate() {
            ssd.submit(HostCommand::write(
                i as u64,
                0,
                Lba::new(i as u64 * 64),
                SectorCount::new(*len),
                seed ^ i as u64,
            ));
        }
        let mut acked = Vec::new();
        let mut guard = 0;
        while acked.len() < lens.len() {
            for c in ssd.drain_completions() {
                prop_assert!(c.acked());
                acked.push(c.request_id);
            }
            prop_assert!(ssd.step(None) || acked.len() == lens.len(), "device went idle");
            guard += 1;
            prop_assert!(guard < 1_000_000);
        }
        let expected: Vec<u64> = (0..lens.len() as u64).collect();
        prop_assert_eq!(acked, expected);
    }
}

//! Cross-crate integration: device-level power-loss and recovery
//! semantics (flash ↔ FTL ↔ device).

use pfault_power::FaultInjector;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration};
use pfault_ssd::device::{HostCommand, Ssd, VerifiedContent};
use pfault_ssd::VendorPreset;

fn small_ssd(seed: u64) -> Ssd {
    let mut config = VendorPreset::SsdA.config();
    config.geometry = pfault_flash::FlashGeometry::new(1024, 64);
    config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
    Ssd::new(config, DetRng::new(seed))
}

fn write_and_wait(ssd: &mut Ssd, id: u64, lba: Lba, sectors: u64, tag: u64) -> HostCommand {
    let cmd = HostCommand::write(id, 0, lba, SectorCount::new(sectors), tag);
    ssd.submit(cmd);
    ssd.run_until_complete(id).expect("write completes");
    cmd
}

fn cycle_power(ssd: &mut Ssd) {
    let timeline = FaultInjector::arduino_atx_loaded().timeline(ssd.now());
    ssd.power_fail(&timeline);
    ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
        .expect("recovery remounts");
}

#[test]
fn quiesced_data_survives_any_number_of_cycles() {
    let mut ssd = small_ssd(1);
    let cmd = write_and_wait(&mut ssd, 1, Lba::new(100), 8, 0xFACE);
    ssd.quiesce();
    for _ in 0..3 {
        cycle_power(&mut ssd);
        for i in 0..8 {
            match ssd.verify_read(Lba::new(100 + i)) {
                VerifiedContent::Written(d) => assert_eq!(d, cmd.sector_content(i)),
                other => panic!("sector {i} lost after clean cycle: {other:?}"),
            }
        }
    }
}

#[test]
fn immediate_fault_after_ack_loses_the_write() {
    let mut ssd = small_ssd(2);
    write_and_wait(&mut ssd, 1, Lba::new(50), 4, 0xB00);
    // Instant cut right at the ACK: data is still in the cache.
    let timeline = FaultInjector::transistor().timeline(ssd.now());
    ssd.power_fail(&timeline);
    ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
        .expect("recovery remounts");
    let lost = (0..4).any(|i| {
        !matches!(
            ssd.verify_read(Lba::new(50 + i)),
            VerifiedContent::Written(_)
        )
    });
    assert!(
        lost,
        "an ACKed-but-cached write must not survive an instant cut"
    );
}

#[test]
fn overwrite_then_fault_reverts_to_committed_version() {
    let mut ssd = small_ssd(3);
    let old = write_and_wait(&mut ssd, 1, Lba::new(10), 2, 0x01D);
    ssd.quiesce(); // old version durable
    let _new = write_and_wait(&mut ssd, 2, Lba::new(10), 2, 0x2E3);
    // Fault before the new version's mapping commits (instant cut).
    let timeline = FaultInjector::transistor().timeline(ssd.now());
    ssd.power_fail(&timeline);
    ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
        .expect("recovery remounts");
    for i in 0..2 {
        match ssd.verify_read(Lba::new(10 + i)) {
            VerifiedContent::Written(d) => {
                assert_eq!(d, old.sector_content(i), "must revert to the old version");
            }
            other => panic!("expected the old version, got {other:?}"),
        }
    }
}

#[test]
fn device_is_usable_after_recovery() {
    let mut ssd = small_ssd(4);
    write_and_wait(&mut ssd, 1, Lba::new(0), 4, 1);
    cycle_power(&mut ssd);
    assert!(ssd.is_operational());
    let cmd = write_and_wait(&mut ssd, 2, Lba::new(200), 4, 2);
    ssd.quiesce();
    cycle_power(&mut ssd);
    for i in 0..4 {
        match ssd.verify_read(Lba::new(200 + i)) {
            VerifiedContent::Written(d) => assert_eq!(d, cmd.sector_content(i)),
            other => panic!("post-recovery write lost: {other:?}"),
        }
    }
}

#[test]
fn repeated_faults_accumulate_flash_damage_counters() {
    let mut ssd = small_ssd(5);
    for round in 0..5u64 {
        for i in 0..10 {
            ssd.submit(HostCommand::write(
                round * 100 + i,
                0,
                Lba::new((round * 10 + i) * 4),
                SectorCount::new(4),
                round * 1000 + i,
            ));
        }
        ssd.advance_to(ssd.now() + SimDuration::from_millis(3));
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovery remounts");
    }
    assert!(
        ssd.flash_stats().interrupted_programs > 0,
        "faults mid-flush must interrupt programs"
    );
}

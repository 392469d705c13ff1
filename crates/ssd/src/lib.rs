//! Device-level SSD model.
//!
//! [`device::Ssd`] assembles the substrates into the drive the platform
//! injects faults into:
//!
//! * a serialized **controller front end** whose per-command overhead sets
//!   the random-write IOPS ceiling (§IV-F observes saturation near
//!   6 900 IOPS);
//! * a volatile **DRAM write-back cache** ([`cache::WriteCache`]) — writes
//!   are ACKed on cache insert, flushed to NAND later (the FWA mechanism,
//!   §III-B), with a disable knob (§IV-A's disabled-cache experiment) and
//!   an optional supercapacitor (power-loss protection, §I);
//! * a **program pipeline** modelling channel-parallel NAND programs, with
//!   in-flight operations interruptible by the rail collapse;
//! * the **FTL** with its volatile mapping journal (`pfault-ftl`);
//! * a **power-fail state machine**: on a fault the host link dies at
//!   4.5 V, the oblivious firmware keeps flushing until 4.0 V, anything in
//!   flight at 4.0 V is interrupted, and all volatile state evaporates.
//!   [`device::Ssd::power_on_recover`] then replays the durable journal.
//!
//! Vendor presets ([`vendor`]) mirror the paper's Table I drives.
//!
//! # Example
//!
//! ```
//! use pfault_ssd::device::{HostCommand, Ssd};
//! use pfault_ssd::vendor::VendorPreset;
//! use pfault_sim::{DetRng, Lba, SectorCount};
//!
//! let mut ssd = Ssd::new(VendorPreset::SsdA.config(), DetRng::new(1));
//! ssd.submit(HostCommand::write(1, 0, Lba::new(0), SectorCount::new(8), 0xFEED));
//! // Drain and step until the write's completion arrives.
//! let ack = ssd.run_until_complete(1).expect("the write completes");
//! assert!(ack.acked());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The lint gate (`make lint-core`) denies unwrap() in library code;
// tests may unwrap freely.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod completion;
pub mod config;
pub mod device;
pub mod sites;
pub mod snapshot;
pub mod vendor;

pub use completion::{Completion, CompletionKind};
pub use config::{CacheConfig, SsdConfig};
pub use device::{DeviceError, HostCommand, RecoveryReport, Ssd, VerifiedContent};
pub use sites::{FaultSite, SiteLog, SiteSpan};
pub use snapshot::DeviceImage;
pub use vendor::VendorPreset;

//! The host side of the platform (paper §III): the IO Generator's data
//! packets become device commands, and every completion comes back as a
//! per-request record.
//!
//! [`HostDriver`] owns the block tracer, the expected-state oracle, the
//! request records, the issued and outstanding counts, and the FLUSH
//! cadence. The device clock is not its business: loops step the device
//! with [`Ssd::step`] between a [`HostDriver::drain`] and a
//! [`HostDriver::submit`], in whichever order the loop needs.

use pfault_flash::array::PageData;
use pfault_sim::SectorCount;
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::Completion;
use pfault_trace::BlockTracer;
use pfault_workload::DataPacket;

use crate::oracle::Oracle;
use crate::record::RequestRecord;

/// FLUSH barriers use ids far above any data request and are not
/// entered into the records (the paper tracks data packets only).
pub(crate) const FLUSH_ID_BASE: u64 = 1 << 40;

/// The host's bookkeeping for one run of data packets against one device.
#[derive(Debug)]
pub struct HostDriver {
    tracer: BlockTracer,
    oracle: Oracle,
    records: Vec<RequestRecord>,
    outstanding: usize,
    flush_every: Option<u64>,
    writes_since_flush: u64,
    flushes: u64,
}

impl HostDriver {
    /// A driver that splits requests at `max_segment_sectors` (the
    /// device's [`pfault_ssd::SsdConfig::max_segment_sectors`]) and, with
    /// `flush_every: Some(n)`, issues a FLUSH barrier after every `n`
    /// write packets. `expected_requests` sizes the record vector.
    pub fn new(
        max_segment_sectors: u64,
        flush_every: Option<u64>,
        expected_requests: usize,
    ) -> Self {
        HostDriver {
            tracer: BlockTracer::new(SectorCount::new(max_segment_sectors)),
            oracle: Oracle::new(),
            records: Vec::with_capacity(expected_requests),
            outstanding: 0,
            flush_every,
            writes_since_flush: 0,
            flushes: 0,
        }
    }

    /// Data packets submitted so far.
    pub fn issued(&self) -> usize {
        self.records.len()
    }

    /// Sub-requests and FLUSH barriers submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The records (one per data packet, indexed by packet id), the
    /// oracle and the block-layer trace, for analysis after the run.
    pub fn into_results(self) -> (Vec<RequestRecord>, Oracle, BlockTracer) {
        (self.records, self.oracle, self.tracer)
    }

    /// Records `packet` at the block layer and submits its sub-requests
    /// to the device, then a FLUSH barrier if the cadence is due.
    pub fn submit(&mut self, ssd: &mut Ssd, packet: DataPacket) {
        let id = packet.id;
        debug_assert_eq!(id as usize, self.records.len(), "ids must be dense");
        let now = ssd.now();
        let pre = packet
            .lbas()
            .map(|l| self.oracle.expected(l).map(|v| v.data))
            .collect();
        let subs = self
            .tracer
            .queue_request(id, packet.lba, packet.sectors, packet.is_write, now);
        self.records
            .push(RequestRecord::new(packet, pre, subs.len() as u32, now));
        self.outstanding += subs.len();
        let mut offset = 0u64;
        for sub in subs {
            self.tracer.dispatch(id, sub.sub_id, now);
            let cmd = if packet.is_write {
                HostCommand::write(id, sub.sub_id, sub.lba, sub.sectors, packet.payload_tag)
                    .with_payload_offset(offset)
            } else {
                HostCommand::read(id, sub.sub_id, sub.lba, sub.sectors)
            };
            offset += sub.sectors.get();
            ssd.submit(cmd);
        }
        if packet.is_write {
            self.writes_since_flush += 1;
            if self
                .flush_every
                .is_some_and(|n| self.writes_since_flush >= n)
            {
                self.writes_since_flush = 0;
                self.flushes += 1;
                ssd.submit_flush(FLUSH_ID_BASE + self.flushes, 0);
                self.outstanding += 1;
            }
        }
    }

    /// Takes the device's completions into the records, the oracle and
    /// the tracer. Returns how many data packets the host saw complete
    /// in this drain.
    pub fn drain(&mut self, ssd: &mut Ssd) -> u64 {
        let mut completed = 0;
        for c in ssd.drain_completions() {
            self.outstanding = self.outstanding.saturating_sub(1);
            if c.request_id >= FLUSH_ID_BASE {
                continue; // FLUSH barrier: nothing to verify
            }
            self.apply_completion(&c);
            let record = &self.records[c.request_id as usize];
            if record.completed() && record.acked_at == Some(c.time) {
                completed += 1;
            }
        }
        completed
    }

    /// Takes the device's completions and only counts them off the
    /// outstanding total, for a run whose records are thrown away.
    pub(crate) fn discard_completions(&mut self, ssd: &mut Ssd) {
        let done = ssd.drain_completions().len();
        self.outstanding = self.outstanding.saturating_sub(done);
    }

    fn apply_completion(&mut self, c: &Completion) {
        let record = &mut self.records[c.request_id as usize];
        if c.acked() {
            self.tracer.complete(c.request_id, c.sub_id, c.time);
            record.note_sub_ack(c.time);
            if record.completed() && record.packet.is_write && record.acked_at == Some(c.time) {
                // The whole request is ACKed: the host now *expects* this
                // content on the device.
                let packet = record.packet;
                for (i, lba) in packet.lbas().enumerate() {
                    self.oracle.acknowledge_write(
                        lba,
                        PageData::from_tag(packet.sector_tag(i as u64)),
                        packet.id,
                    );
                }
            }
        } else {
            self.tracer.error(c.request_id, c.sub_id, c.time);
            record.note_sub_error();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::DetRng;
    use pfault_ssd::VendorPreset;
    use pfault_workload::{WorkloadGenerator, WorkloadSpec};

    #[test]
    fn flush_cadence_one_acks_a_flush_per_write() {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(1 << 12, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        let mut ssd = Ssd::new(config, DetRng::new(5));
        let spec = WorkloadSpec::builder()
            .wss_bytes(pfault_sim::storage::GIB)
            .build();
        let mut generator = WorkloadGenerator::new(spec, DetRng::new(6));
        let mut host = HostDriver::new(config.max_segment_sectors, Some(1), 6);
        for _ in 0..6 {
            let packet = generator.next_packet();
            assert!(packet.is_write);
            host.submit(&mut ssd, packet);
        }
        loop {
            host.drain(&mut ssd);
            if host.outstanding() == 0 {
                break;
            }
            assert!(ssd.step(None), "device went idle with work outstanding");
        }
        assert_eq!(ssd.stats().flushes_acked, 6);
        let (records, ..) = host.into_results();
        assert!(records.iter().all(RequestRecord::completed));
    }
}

//! The daemon's durability layer: one directory, four files per job.
//!
//! ```text
//! spool/
//!   job-7.spec.json    # the JobSpec, written atomically at accept time
//!   job-7.ckpt.json    # the platform's campaign checkpoint (written
//!                      # by the campaign's `checkpoint` setting)
//!   job-7.events.jsonl # append-only result journal, one JobEvent per
//!                      # line, dense seq from 0
//!   job-7.done.json    # final report JSON, written atomically when
//!                      # the job completes
//! ```
//!
//! Every whole-file write goes through
//! [`pfault_platform::fsutil::write_atomic`]: the temp file is
//! `fsync`ed before the rename and the directory after it, so a power
//! cut cannot leave a durable rename over non-durable data.
//!
//! Write ordering is the whole durability argument:
//!
//! 1. the spec is spooled **before** `Accepted` goes on the wire, so an
//!    acknowledged job survives any later crash;
//! 2. a checkpoint hits disk **before** the progress event that
//!    announces it, so the journal never promises state the checkpoint
//!    cannot reproduce — after a crash the journal is at most one
//!    record *behind* the checkpoint, and [`Spool::reconcile_events`]
//!    re-synthesizes exactly that record;
//! 3. the final report is written **before** the `done` event, with
//!    the same catch-up rule.
//!
//! The journal is read tolerantly: a torn final line (the crash landed
//! mid-append) is ignored, exactly like the simulated firmware ignores
//! a torn journal frame.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use pfault_platform::fsutil::write_atomic;

use crate::proto::{JobEvent, JobSpec};

/// A job spool directory. Cheap to clone; all state is on disk.
#[derive(Debug, Clone)]
pub struct Spool {
    dir: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) the spool at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Spool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Spool { dir })
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, job: u64, suffix: &str) -> PathBuf {
        self.dir.join(format!("job-{job}.{suffix}"))
    }

    /// Path of the job's campaign checkpoint (handed to the platform's
    /// `CampaignBuilder::checkpoint`).
    pub fn checkpoint_path(&self, job: u64) -> PathBuf {
        self.path(job, "ckpt.json")
    }

    fn events_path(&self, job: u64) -> PathBuf {
        self.path(job, "events.jsonl")
    }

    fn spec_path(&self, job: u64) -> PathBuf {
        self.path(job, "spec.json")
    }

    fn done_path(&self, job: u64) -> PathBuf {
        self.path(job, "done.json")
    }

    /// Durably records a job spec (atomic tmp+rename). Must complete
    /// before the daemon acknowledges the submission.
    pub fn write_spec(&self, job: u64, spec: &JobSpec) -> std::io::Result<()> {
        let text = serde_json::to_string(spec)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        write_atomic(&self.spec_path(job), text.as_bytes())
    }

    /// Reads a job spec back.
    pub fn read_spec(&self, job: u64) -> std::io::Result<JobSpec> {
        let text = fs::read_to_string(self.spec_path(job))?;
        serde_json::from_str(&text).map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Appends one record to the job's result journal and flushes it.
    pub fn append_event(&self, event: &JobEvent) -> std::io::Result<()> {
        let mut line = serde_json::to_string(event)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        line.push('\n');
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.events_path(event.job))?;
        f.write_all(line.as_bytes())?;
        f.flush()
    }

    /// Reads the job's result journal, keeping only complete,
    /// parseable lines — a torn tail from a crash mid-append is
    /// silently dropped (the reconcile pass rebuilds it).
    pub fn read_events(&self, job: u64) -> Vec<JobEvent> {
        let Ok(text) = fs::read_to_string(self.events_path(job)) else {
            return Vec::new();
        };
        let mut events = Vec::new();
        let complete = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => return events, // single torn line, no newline yet
        };
        for line in complete.lines() {
            match serde_json::from_str::<JobEvent>(line) {
                Ok(e) => events.push(e),
                Err(_) => break, // corrupt record: trust nothing after it
            }
        }
        events
    }

    /// Rewrites the journal down to its valid prefix (atomic
    /// tmp+rename), dropping a torn or corrupt tail so later appends
    /// cannot merge with half a record. Returns the surviving events.
    /// Serialization is deterministic, so an already-clean journal is
    /// rewritten byte-identically (and therefore skipped).
    fn repair_events(&self, job: u64) -> std::io::Result<Vec<JobEvent>> {
        let path = self.events_path(job);
        let on_disk = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let events = self.read_events(job);
        let mut clean = String::new();
        for event in &events {
            clean.push_str(
                &serde_json::to_string(event).map_err(|e| std::io::Error::other(e.to_string()))?,
            );
            clean.push('\n');
        }
        if clean != on_disk {
            write_atomic(&path, clean.as_bytes())?;
        }
        Ok(events)
    }

    /// Truncates the journal (fresh runs that found stale garbage).
    pub fn clear_events(&self, job: u64) -> std::io::Result<()> {
        match fs::remove_file(self.events_path(job)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Durably records the final report JSON (atomic tmp+rename). Must
    /// complete before the `done` event is journaled.
    pub fn write_done(&self, job: u64, report_json: &str) -> std::io::Result<()> {
        write_atomic(&self.done_path(job), report_json.as_bytes())
    }

    /// The final report JSON, if the job completed.
    pub fn read_done(&self, job: u64) -> Option<String> {
        fs::read_to_string(self.done_path(job)).ok()
    }

    /// Whether a campaign checkpoint exists for the job.
    pub fn has_checkpoint(&self, job: u64) -> bool {
        self.checkpoint_path(job).exists()
    }

    /// Every job id with a spooled spec, ascending.
    pub fn jobs(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return ids;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(rest) = name.strip_prefix("job-") {
                if let Some(id) = rest.strip_suffix(".spec.json") {
                    if let Ok(id) = id.parse::<u64>() {
                        ids.push(id);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids
    }

    /// The next unused job id (one past the highest spooled id).
    pub fn next_job_id(&self) -> u64 {
        self.jobs().last().map_or(0, |last| last + 1)
    }

    /// Brings the journal back in step with the durable state after a
    /// restart: if the checkpoint (or final report) on disk is ahead of
    /// the last journaled record — the crash landed between the durable
    /// write and its announcement — append the missing record now.
    /// `ckpt` is the resumed campaign's `(completed, report_json)` as
    /// read back from the checkpoint file, when one exists.
    ///
    /// Returns the journal length after reconciliation.
    pub fn reconcile_events(
        &self,
        job: u64,
        trials: u64,
        ckpt: Option<(u64, &str)>,
    ) -> std::io::Result<u64> {
        let events = self.repair_events(job)?;
        let mut next_seq = events.len() as u64;
        let journaled = events.last().map(|e| (e.kind.clone(), e.completed));
        if let Some(report_json) = self.read_done(job) {
            // Completed before the crash; the `done` record may be the
            // missing announcement.
            if journaled.as_ref().map(|(k, _)| k.as_str()) != Some("done") {
                self.append_event(&JobEvent {
                    job,
                    seq: next_seq,
                    kind: "done".to_string(),
                    completed: trials,
                    trials,
                    digest: pfault_sim::checksum::fnv64(report_json.as_bytes()),
                    body: report_json,
                })?;
                next_seq += 1;
            }
            return Ok(next_seq);
        }
        if let Some((completed, report_json)) = ckpt {
            let announced = journaled.map_or(0, |(_, c)| c);
            if completed > announced {
                self.append_event(&JobEvent {
                    job,
                    seq: next_seq,
                    kind: "progress".to_string(),
                    completed,
                    trials,
                    digest: pfault_sim::checksum::fnv64(report_json.as_bytes()),
                    body: String::new(),
                })?;
                next_seq += 1;
            }
        }
        Ok(next_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> Spool {
        let dir = std::env::temp_dir().join(format!("pfault-spool-test-{name}"));
        let _ = fs::remove_dir_all(&dir);
        Spool::open(&dir).expect("spool opens")
    }

    fn event(job: u64, seq: u64, completed: u64) -> JobEvent {
        JobEvent {
            job,
            seq,
            kind: "progress".to_string(),
            completed,
            trials: 10,
            digest: 0x1234,
            body: String::new(),
        }
    }

    #[test]
    fn specs_roundtrip_and_enumerate() {
        let spool = scratch("specs");
        assert_eq!(spool.next_job_id(), 0);
        let spec = JobSpec::tiny_campaign(7);
        spool.write_spec(0, &spec).unwrap();
        spool.write_spec(3, &spec).unwrap();
        assert_eq!(spool.jobs(), vec![0, 3]);
        assert_eq!(spool.next_job_id(), 4);
        assert_eq!(spool.read_spec(3).unwrap(), spec);
    }

    #[test]
    fn journal_appends_and_tolerates_torn_tail() {
        let spool = scratch("journal");
        spool.append_event(&event(1, 0, 2)).unwrap();
        spool.append_event(&event(1, 1, 4)).unwrap();
        assert_eq!(spool.read_events(1).len(), 2);

        // Crash mid-append: a torn half-record at the tail.
        let path = spool.dir().join("job-1.events.jsonl");
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":1,\"seq\":2,\"ki").unwrap();
        drop(f);
        let events = spool.read_events(1);
        assert_eq!(events.len(), 2, "torn tail must be dropped");
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn reconcile_appends_missing_progress_record() {
        let spool = scratch("reconcile");
        spool.append_event(&event(2, 0, 2)).unwrap();
        // Checkpoint got ahead of the journal (crash between rename
        // and append): reconcile journals the announcement.
        let n = spool.reconcile_events(2, 10, Some((4, "{\"r\":1}"))).unwrap();
        assert_eq!(n, 2);
        let events = spool.read_events(2);
        assert_eq!(events[1].completed, 4);
        assert_eq!(events[1].kind, "progress");
        // Idempotent: a second reconcile appends nothing.
        let n = spool.reconcile_events(2, 10, Some((4, "{\"r\":1}"))).unwrap();
        assert_eq!(n, 2);
        assert_eq!(spool.read_events(2).len(), 2);
    }

    #[test]
    fn reconcile_repairs_torn_tail_before_appending() {
        let spool = scratch("repair");
        spool.append_event(&event(5, 0, 2)).unwrap();
        let path = spool.dir().join("job-5.events.jsonl");
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":5,\"seq\":1,\"ki").unwrap();
        drop(f);
        // Reconcile drops the torn half-record and re-synthesizes the
        // missing announcement; later appends must not merge with it.
        let n = spool.reconcile_events(5, 10, Some((4, "{\"r\":1}"))).unwrap();
        assert_eq!(n, 2);
        spool.append_event(&event(5, 2, 6)).unwrap();
        let events = spool.read_events(5);
        assert_eq!(events.len(), 3, "journal stayed parseable end to end");
        assert_eq!(events[1].completed, 4);
        assert_eq!(events[2].seq, 2);
    }

    #[test]
    fn reconcile_appends_missing_done_record() {
        let spool = scratch("reconcile-done");
        spool.append_event(&event(3, 0, 2)).unwrap();
        spool.write_done(3, "{\"final\":true}").unwrap();
        let n = spool.reconcile_events(3, 10, None).unwrap();
        assert_eq!(n, 2);
        let events = spool.read_events(3);
        assert_eq!(events[1].kind, "done");
        assert_eq!(events[1].body, "{\"final\":true}");
        // Idempotent.
        assert_eq!(spool.reconcile_events(3, 10, None).unwrap(), 2);
    }
}

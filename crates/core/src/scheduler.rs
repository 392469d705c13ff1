//! Work-stealing trial scheduler — the one engine that runs trials.
//!
//! Every trial loop in the workspace (campaigns, plan rounds, the kv and
//! fleet sweeps) runs here. Trial indices are chunked into batches on a
//! shared injector queue, each worker drains its own deque and refills
//! from the injector, and a worker that runs dry steals half of a
//! victim's deque, so skewed trial costs (a retried trial, a recovery
//! storm, a watchdog-budget trial) never leave threads idle at the tail.
//! With one thread the calling thread runs the trials itself.
//!
//! Results are *not* reduced here in arrival order. Workers emit
//! `(trial index, result)` pairs and the caller's accumulator absorbs
//! them in canonical index order (a small reorder buffer bridges the
//! gap), so a run is byte-identical to a serial fold no matter how many
//! threads ran it or how the OS scheduled them — including
//! order-sensitive aggregates like Welford mean/variance accumulators.
//! The absorb callback may stop the run ([`ControlFlow::Break`]): no
//! further trials start, and results past the stopping index are
//! dropped unabsorbed.

use std::collections::{BTreeMap, VecDeque};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Default trials per injector batch. Small enough that a 6-trial smoke
/// campaign still spreads over workers, big enough that injector-lock
/// traffic stays negligible against millisecond-scale trials.
pub const DEFAULT_CHUNK: u64 = 4;

/// What one worker did during a work-stealing run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id (`0..threads`).
    pub worker: usize,
    /// Trials this worker executed.
    pub trials_run: u64,
    /// Successful steal operations (each moves ≥ 1 trial).
    pub steals: u64,
    /// Trials acquired by stealing from a victim.
    pub stolen_trials: u64,
    /// Batches this worker pulled from the shared injector.
    pub injector_batches: u64,
    /// Wall-clock time spent inside trial bodies, in microseconds.
    pub busy_us: u64,
    /// Wall-clock lifetime of the worker, in microseconds.
    pub elapsed_us: u64,
}

impl WorkerStats {
    /// Fraction of the worker's lifetime spent inside trial bodies.
    pub fn utilization(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / self.elapsed_us as f64
    }
}

/// Aggregate scheduling telemetry for one work-stealing run. Lives
/// outside [`crate::campaign::CampaignReport`] on purpose: reports
/// describe *what the trials measured* and must be engine-independent;
/// this describes *how the engine ran them*.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Worker threads used (after clamping to the trial count).
    pub threads: usize,
    /// Trials per injector batch.
    pub chunk: u64,
    /// Total trials scheduled.
    pub trials: u64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Successful steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Mean per-worker utilization (busy time over lifetime).
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(WorkerStats::utilization).sum::<f64>() / self.workers.len() as f64
    }

    /// Folds a later run into this one (a campaign runs one scheduler
    /// pass per planner round): per-worker counters add up by worker id.
    pub fn merge(&mut self, other: SchedulerStats) {
        self.threads = self.threads.max(other.threads);
        self.chunk = other.chunk;
        self.trials += other.trials;
        for w in other.workers {
            match self.workers.get_mut(w.worker) {
                Some(mine) => {
                    mine.trials_run += w.trials_run;
                    mine.steals += w.steals;
                    mine.stolen_trials += w.stolen_trials;
                    mine.injector_batches += w.injector_batches;
                    mine.busy_us += w.busy_us;
                    mine.elapsed_us += w.elapsed_us;
                }
                None => self.workers.push(w),
            }
        }
    }
}

/// Shared scheduler state: the injector of unclaimed batches plus one
/// deque per worker.
struct Shared {
    injector: Mutex<VecDeque<(u64, u64)>>,
    deques: Vec<Mutex<VecDeque<u64>>>,
    /// Trials handed to some worker so far. When this reaches `trials`
    /// an idle worker can exit; below that, an empty-looking system may
    /// just have a batch in transit between queues.
    started: AtomicU64,
    trials: u64,
    /// Set when the absorb callback breaks: no further trial starts.
    /// Stored with `Release` by the reducer, loaded with `Acquire` by
    /// workers; it publishes no other data.
    stopped: AtomicBool,
}

impl Shared {
    fn new(range: Range<u64>, threads: usize, chunk: u64) -> Self {
        let mut injector = VecDeque::new();
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + chunk).min(range.end);
            injector.push_back((lo, hi));
            lo = hi;
        }
        Shared {
            injector: Mutex::new(injector),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            started: AtomicU64::new(0),
            trials: range.end.saturating_sub(range.start),
            stopped: AtomicBool::new(false),
        }
    }

    /// Claims the next trial for worker `me`: own deque first, then a
    /// fresh injector batch, then half of a victim's deque (victims are
    /// scanned in a fixed ring order — determinism of the *results* never
    /// depends on who wins a steal race, only the stats do).
    fn find_work(&self, me: usize, stats: &mut WorkerStats) -> Option<u64> {
        if self.stopped.load(Ordering::Acquire) {
            return None;
        }
        if let Some(i) = self.pop_own(me) {
            return Some(i);
        }
        let batch = self.injector.lock().expect("injector lock").pop_front();
        if let Some((lo, hi)) = batch {
            stats.injector_batches += 1;
            self.deques[me].lock().expect("worker deque lock").extend(lo..hi);
            if let Some(i) = self.pop_own(me) {
                return Some(i);
            }
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            // Steal the back half: the victim keeps the front it is
            // about to work through, minimizing contention on re-steal.
            let stolen = {
                let mut vd = self.deques[victim].lock().expect("victim deque lock");
                let keep = vd.len() / 2;
                vd.split_off(keep)
            };
            if stolen.is_empty() {
                continue;
            }
            stats.steals += 1;
            stats.stolen_trials += stolen.len() as u64;
            self.deques[me].lock().expect("worker deque lock").extend(stolen);
            if let Some(i) = self.pop_own(me) {
                return Some(i);
            }
        }
        None
    }

    /// Pops worker `me`'s next trial, counting it as started.
    fn pop_own(&self, me: usize) -> Option<u64> {
        let i = self.deques[me].lock().expect("worker deque lock").pop_front()?;
        self.started.fetch_add(1, Ordering::AcqRel);
        Some(i)
    }

    /// Whether an idle worker may exit: every trial has been handed
    /// out, or the run was stopped.
    fn finished(&self) -> bool {
        self.stopped.load(Ordering::Acquire) || self.started.load(Ordering::Acquire) >= self.trials
    }
}

/// Runs trials for worker `me` until none are left, handing each
/// result to `emit`; `emit` returning `false` stops the worker.
fn worker_loop<T, W, E>(shared: &Shared, me: usize, work: &W, mut emit: E) -> WorkerStats
where
    W: Fn(u64) -> T + Sync,
    E: FnMut(u64, T) -> bool,
{
    let born = Instant::now();
    let mut busy = std::time::Duration::ZERO;
    let mut stats = WorkerStats {
        worker: me,
        ..WorkerStats::default()
    };
    loop {
        match shared.find_work(me, &mut stats) {
            Some(index) => {
                let t0 = Instant::now();
                let out = work(index);
                busy += t0.elapsed();
                stats.trials_run += 1;
                if !emit(index, out) {
                    break; // the run stopped or is being torn down
                }
            }
            None if shared.finished() => break,
            // A batch is in transit between the injector and a deque;
            // it will land in a moment.
            None => std::thread::yield_now(),
        }
    }
    stats.busy_us = busy.as_micros() as u64;
    stats.elapsed_us = born.elapsed().as_micros() as u64;
    stats
}

/// Runs `work(i)` for every `i` in `range` over `threads` work-stealing
/// workers and folds the results into `acc` in **canonical index
/// order** — `absorb` sees `(start, t)`, `(start + 1, t)`, … exactly as
/// a serial loop would, regardless of completion order. Threads are
/// clamped to `1..=range length`.
///
/// When `absorb` returns [`ControlFlow::Break`] at index `k`, no further
/// trial starts, trials already running finish, and every result past
/// `k` is dropped: `acc` holds exactly `start..=k`.
pub fn run_work_stealing<T, R, W, A>(
    range: Range<u64>,
    threads: usize,
    chunk: u64,
    work: W,
    acc: R,
    mut absorb: A,
) -> (R, SchedulerStats)
where
    T: Send,
    W: Fn(u64) -> T + Sync,
    A: FnMut(&mut R, u64, T) -> ControlFlow<()>,
{
    let trials = range.end.saturating_sub(range.start);
    let threads = threads.clamp(1, trials.max(1) as usize);
    let chunk = chunk.max(1);
    let mut acc = acc;
    let mut workers: Vec<WorkerStats> = Vec::with_capacity(threads);
    if threads == 1 {
        // The calling thread is the one worker and absorbs as it goes:
        // no spawn, no channel, and one-thread timings stay on the
        // caller's CPU.
        let shared = Shared::new(range, 1, chunk);
        let emit = |i, out| absorb(&mut acc, i, out).is_continue();
        workers.push(worker_loop(&shared, 0, &work, emit));
    } else {
        let shared = Shared::new(range.clone(), threads, chunk);
        let (tx, rx) = mpsc::channel::<(u64, T)>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|me| {
                    let tx = tx.clone();
                    let shared = &shared;
                    let work = &work;
                    let emit = move |i, out| tx.send((i, out)).is_ok();
                    scope.spawn(move || worker_loop(shared, me, work, emit))
                })
                .collect();
            drop(tx);
            // Canonical-order reduction with a reorder buffer. The buffer
            // stays small: it only holds results ahead of the lowest
            // still-running trial index.
            let mut buffer: BTreeMap<u64, T> = BTreeMap::new();
            let mut next = range.start;
            'reduce: for (index, out) in rx.iter() {
                buffer.insert(index, out);
                while let Some(out) = buffer.remove(&next) {
                    let flow = absorb(&mut acc, next, out);
                    next += 1;
                    if flow.is_break() {
                        shared.stopped.store(true, Ordering::Release);
                        break 'reduce;
                    }
                }
            }
            for handle in handles {
                workers.push(handle.join().expect("worker thread panicked"));
            }
        });
        workers.sort_by_key(|w| w.worker);
    }
    (
        acc,
        SchedulerStats {
            threads,
            chunk,
            trials,
            workers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_fold(trials: u64, work: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        (0..trials).map(|i| (i, work(i))).collect()
    }

    fn push(acc: &mut Vec<(u64, u64)>, i: u64, out: u64) -> ControlFlow<()> {
        acc.push((i, out));
        ControlFlow::Continue(())
    }

    #[test]
    fn reduction_is_in_canonical_order() {
        let work = |i: u64| {
            // Skew: early trials are much slower, so late indices finish
            // first and exercise the reorder buffer.
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3 + 1
        };
        let (seen, stats) = run_work_stealing(
            0..32,
            4,
            DEFAULT_CHUNK,
            work,
            Vec::new(),
            push,
        );
        assert_eq!(seen, serial_fold(32, |i| i * 3 + 1));
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 32);
        assert_eq!(stats.trials, 32);
    }

    #[test]
    fn threads_clamp_to_trial_count() {
        let (seen, stats) = run_work_stealing(5..8, 16, DEFAULT_CHUNK, |i| i, Vec::new(), push);
        assert_eq!(stats.threads, 3, "16 threads over 3 trials is 3 workers");
        assert_eq!(seen, vec![(5, 5), (6, 6), (7, 7)], "indices start at the range start");
    }

    #[test]
    fn zero_trials_complete_immediately() {
        let (seen, stats) = run_work_stealing(0..0, 4, DEFAULT_CHUNK, |i| i, Vec::new(), push);
        assert!(seen.is_empty());
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.total_steals(), 0);
    }

    #[test]
    fn skewed_work_triggers_steals() {
        // One giant chunk of slow trials at the front: the worker that
        // grabs it becomes a steal target for everyone else.
        let (seen, stats) = run_work_stealing(
            0..24,
            4,
            12,
            |i| {
                if i < 12 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i
            },
            0u64,
            |acc: &mut u64, _i, out| {
                *acc += out;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(seen, (0..24).sum::<u64>());
        assert!(
            stats.total_steals() > 0,
            "a 12-trial slow chunk against chunk-starved peers must be stolen from: {stats:?}"
        );
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (_, stats) = run_work_stealing(
            0..8,
            2,
            2,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            },
            (),
            |_: &mut (), _, _| ControlFlow::Continue(()),
        );
        for w in &stats.workers {
            let u = w.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
        assert!(stats.mean_utilization() > 0.0);
    }

    #[test]
    fn break_at_k_absorbs_exactly_the_prefix() {
        let k = 9u64;
        for threads in [1, 3] {
            // With several workers, trial k waits until a later trial has
            // finished, so a result past the break is always in flight.
            let past_k_done = (Mutex::new(false), std::sync::Condvar::new());
            let (seen, stats) = run_work_stealing(
                0..40,
                threads,
                2,
                |i| {
                    let (done, cv) = &past_k_done;
                    if i > k {
                        *done.lock().expect("flag lock") = true;
                        cv.notify_all();
                    } else if i == k && threads > 1 {
                        let guard = done.lock().expect("flag lock");
                        drop(cv.wait_while(guard, |done| !*done).expect("flag lock"));
                    }
                    i
                },
                Vec::new(),
                |acc: &mut Vec<u64>, i, out| {
                    acc.push(out);
                    if i == k {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(seen, (0..=k).collect::<Vec<_>>(), "threads={threads}");
            if threads > 1 {
                let ran: u64 = stats.workers.iter().map(|w| w.trials_run).sum();
                assert!(ran > k + 1, "a trial past the break ran (ran {ran})");
            }
        }
    }
}

//! In-flight job deduplication.
//!
//! Identical submissions — equal `(config_hash, workload_hash)` keys — are
//! guaranteed bit-identical results, so only the first concurrent claimant
//! (the *leader*) runs the engine; every later claimant (a *follower*)
//! subscribes to the leader's cell and receives the same `Arc`'d outcome.
//! Followers can also replay the leader's live [`EpochStream`] from the
//! first line, because the stream retains its lines until the cell drops.
//!
//! The registry only tracks jobs that are *running*: the leader publishes
//! its outcome to the cell (waking all followers) and then removes the
//! key, so a submission that arrives after completion misses the registry
//! and falls through to the result store. Leader panics are converted to
//! a failed cell by the caller — a poisoned job never wedges the registry
//! (locks recover from poisoning, mirroring the trace-cache contract).

use droplet_obs::EpochStream;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One in-flight job: completion state plus the live epoch stream.
#[derive(Debug)]
pub struct JobCell<T> {
    state: Mutex<CellState<T>>,
    done: Condvar,
    /// Live epoch lines; the leader attaches this to its run, followers
    /// replay it from line zero.
    pub stream: Arc<EpochStream>,
}

#[derive(Debug)]
enum CellState<T> {
    Running,
    Done(Arc<T>),
    Failed(String),
}

impl<T> JobCell<T> {
    fn new() -> Arc<Self> {
        Arc::new(JobCell {
            state: Mutex::new(CellState::Running),
            done: Condvar::new(),
            stream: EpochStream::new(),
        })
    }

    /// A cell that already holds `outcome` (a result-store hit): waiting
    /// returns it at once, and its stream is finished and empty.
    pub fn ready(outcome: Arc<T>) -> Arc<Self> {
        let cell = Self::new();
        cell.stream.finish();
        cell.publish(Ok(outcome));
        cell
    }

    /// Blocks until the leader publishes, then returns the shared outcome
    /// (or the leader's failure message).
    pub fn wait(&self) -> Result<Arc<T>, String> {
        let mut state = lock_recover(&self.state);
        loop {
            match &*state {
                CellState::Running => {
                    state = self
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                CellState::Done(out) => return Ok(Arc::clone(out)),
                CellState::Failed(msg) => return Err(msg.clone()),
            }
        }
    }

    fn publish(&self, outcome: Result<Arc<T>, String>) {
        let mut state = lock_recover(&self.state);
        *state = match outcome {
            Ok(out) => CellState::Done(out),
            Err(msg) => CellState::Failed(msg),
        };
        drop(state);
        self.done.notify_all();
    }
}

/// How a submission claimed its key.
pub enum Claim<T> {
    /// First claimant: run the job, then [`Inflight::complete`] the cell.
    Lead(Arc<JobCell<T>>),
    /// A leader is already running this key: [`JobCell::wait`] for it.
    Follow(Arc<JobCell<T>>),
}

/// The in-flight registry: key → running job cell.
#[derive(Debug, Default)]
pub struct Inflight<T> {
    cells: Mutex<HashMap<String, Arc<JobCell<T>>>>,
}

impl<T> Inflight<T> {
    /// An empty registry.
    pub fn new() -> Self {
        Inflight {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// Claims `key`: the first concurrent claimant leads, the rest follow.
    pub fn claim(&self, key: &str) -> Claim<T> {
        let mut cells = lock_recover(&self.cells);
        if let Some(cell) = cells.get(key) {
            return Claim::Follow(Arc::clone(cell));
        }
        let cell = JobCell::new();
        cells.insert(key.to_string(), Arc::clone(&cell));
        Claim::Lead(cell)
    }

    /// Publishes the leader's outcome and retires the key.
    ///
    /// Order matters for correctness with the result store: the leader
    /// persists to the store *before* calling this, so a submission that
    /// misses the registry after removal is guaranteed to hit the store.
    /// The stream is finished here so followers' replay loops terminate
    /// even when the run recorded no epochs (obs off) or failed.
    pub fn complete(&self, key: &str, cell: &JobCell<T>, outcome: Result<Arc<T>, String>) {
        cell.stream.finish();
        cell.publish(outcome);
        lock_recover(&self.cells).remove(key);
    }

    /// Number of keys currently running.
    pub fn len(&self) -> usize {
        lock_recover(&self.cells).len()
    }

    /// Whether no job is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// N concurrent claimants of one key: exactly one leads and executes,
    /// every follower receives the leader's exact `Arc`.
    #[test]
    fn concurrent_identical_claims_share_one_execution() {
        let inflight = Arc::new(Inflight::<u64>::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let start = Arc::new(Barrier::new(8));
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (inflight, runs, start) =
                        (Arc::clone(&inflight), Arc::clone(&runs), Arc::clone(&start));
                    s.spawn(move || {
                        start.wait();
                        match inflight.claim("job") {
                            Claim::Lead(cell) => {
                                // Hold the cell long enough that every
                                // other claimant lands as a follower.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                runs.fetch_add(1, Ordering::SeqCst);
                                let out = Arc::new(0xd1ce_u64);
                                inflight.complete("job", &cell, Ok(Arc::clone(&out)));
                                *out
                            }
                            Claim::Follow(cell) => *cell.wait().unwrap(),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one execution");
        assert!(results.iter().all(|&r| r == 0xd1ce));
        assert!(inflight.is_empty(), "key retired after completion");
    }

    /// A failed leader propagates its message to every follower and
    /// retires the key so the next claim leads afresh.
    #[test]
    fn failed_leader_releases_followers_and_key() {
        let inflight = Inflight::<u64>::new();
        let Claim::Lead(lead) = inflight.claim("job") else {
            panic!("first claim must lead")
        };
        let Claim::Follow(follow) = inflight.claim("job") else {
            panic!("second claim must follow")
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| follow.wait());
            inflight.complete("job", &lead, Err("engine panicked".into()));
            assert_eq!(waiter.join().unwrap().unwrap_err(), "engine panicked");
        });
        assert!(follow.stream.is_finished());
        assert!(matches!(inflight.claim("job"), Claim::Lead(_)));
    }
}

//! The in-process service API: a worker thread owns the engine and
//! clients talk to it over a command channel.
//!
//! [`ServeHandle::spawn`] builds the engine *inside* the worker thread
//! (the engine itself is not `Send`: it may hold a thread-local profiler
//! handle) and returns a cheap cloneable handle. `submit`, `status`, and
//! `cancel` enqueue a request and block on a reply channel — the async
//! boundary is the mpsc queue, so many client threads can feed one
//! service. Commands land at the engine's *current simulated time*: the
//! worker interleaves request handling with event processing, so a
//! submission arriving while the fleet is busy queues behind the
//! admission policy exactly like a pre-scripted arrival.
//!
//! `shutdown` drains the remaining simulation and returns the final
//! [`ServeRun`].

use std::sync::mpsc;
use std::thread::{self, JoinHandle};

use hfta_sched::backend::ArrayBackend;
use hfta_sim::DeviceFleet;

use crate::engine::{ServeCfg, ServeEngine, ServeRun, SweepSpec, TrialState};

/// Per-sweep progress summary returned by `status`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepStatus {
    /// Sweep id.
    pub sweep: u64,
    /// Total trials in the sweep.
    pub trials: u64,
    /// Trials waiting for first dispatch.
    pub queued: u64,
    /// Trials currently training.
    pub running: u64,
    /// Trials buffered at a barrier or awaiting re-dispatch.
    pub buffered: u64,
    /// Trials that survived every rung.
    pub finished: u64,
    /// Trials early-stopped at barriers.
    pub stopped: u64,
    /// Trials killed by divergence sentinels.
    pub killed: u64,
    /// Trials cancelled.
    pub cancelled: u64,
}

enum Request<C> {
    Submit {
        spec: SweepSpec<C>,
        reply: mpsc::Sender<Result<u64, crate::ServeError>>,
    },
    Status {
        reply: mpsc::Sender<Vec<SweepStatus>>,
    },
    Cancel {
        sweep: u64,
        reply: mpsc::Sender<()>,
    },
    Shutdown {
        reply: mpsc::Sender<std::io::Result<ServeRun>>,
    },
}

/// Client handle to a running service thread.
pub struct ServeHandle<C> {
    tx: mpsc::Sender<Request<C>>,
    worker: Option<JoinHandle<()>>,
}

impl<C: Send + 'static> ServeHandle<C> {
    /// Starts the service: the worker thread builds the engine from
    /// `backend`, `fleet`, and `cfg`, then alternates between serving
    /// client requests and advancing the simulation.
    pub fn spawn<B>(backend: B, fleet: DeviceFleet, cfg: ServeCfg) -> ServeHandle<C>
    where
        B: ArrayBackend<Config = C> + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<Request<C>>();
        let worker = thread::spawn(move || {
            let engine = ServeEngine::new(backend, fleet, cfg, Vec::new())
                .expect("service engine construction failed");
            serve(engine, &rx);
        });
        ServeHandle {
            tx,
            worker: Some(worker),
        }
    }

    /// Submits a sweep; returns its sweep id, or the typed admission
    /// error when the engine rejects it (empty sweep, uneven graph
    /// pairing, or an unfusible mixed-architecture model set).
    pub fn submit(&self, spec: SweepSpec<C>) -> Result<u64, crate::ServeError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Request::Submit { spec, reply })
            .expect("service thread alive");
        rx.recv().expect("service replies")
    }

    /// Snapshot of every sweep's progress.
    pub fn status(&self) -> Vec<SweepStatus> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Request::Status { reply })
            .expect("service thread alive");
        rx.recv().expect("service replies")
    }

    /// Cancels a sweep (idempotent; unknown ids are ignored).
    pub fn cancel(&self, sweep: u64) {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Request::Cancel { sweep, reply })
            .expect("service thread alive");
        rx.recv().expect("service replies")
    }

    /// Drains the simulation and returns the final run.
    pub fn shutdown(mut self) -> std::io::Result<ServeRun> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Request::Shutdown { reply })
            .expect("service thread alive");
        let run = rx.recv().expect("service replies");
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        run
    }
}

impl<C> Drop for ServeHandle<C> {
    fn drop(&mut self) {
        // Dropping without shutdown lets the worker drain and exit once
        // the channel disconnects.
        if let Some(worker) = self.worker.take() {
            drop(std::mem::replace(&mut self.tx, {
                let (tx, _) = mpsc::channel();
                tx
            }));
            let _ = worker.join();
        }
    }
}

/// The worker loop: alternates between serving queued client requests
/// (all of them, before any simulation step) and advancing the simulation
/// one event batch; returns on `Shutdown` or when every handle is gone.
fn serve<B: ArrayBackend>(mut engine: ServeEngine<B>, rx: &mpsc::Receiver<Request<B::Config>>) {
    loop {
        // Serve every queued request at the current sim time,
        // blocking only when the simulation has nothing to do.
        let req = if engine_idle(&engine) {
            match rx.recv() {
                Ok(r) => Some(r),
                Err(_) => break, // all handles dropped
            }
        } else {
            match rx.try_recv() {
                Ok(r) => Some(r),
                Err(mpsc::TryRecvError::Empty) => None,
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        };
        match req {
            Some(Request::Submit { spec, reply }) => {
                let _ = reply.send(engine.submit(spec));
            }
            Some(Request::Status { reply }) => {
                let _ = reply.send(status_of(&engine));
            }
            Some(Request::Cancel { sweep, reply }) => {
                engine.cancel(sweep);
                let _ = reply.send(());
            }
            Some(Request::Shutdown { reply }) => {
                let run = engine.drain().map(|()| engine.finish());
                let _ = reply.send(run);
                return;
            }
            None => {
                // Advance one event batch, then look again.
                if let Err(e) = engine.step() {
                    panic!("service engine failed: {e}");
                }
            }
        }
    }
    // Handles dropped without shutdown: finish the work quietly.
    let _ = engine.drain();
}

fn engine_idle<B: ArrayBackend>(engine: &ServeEngine<B>) -> bool {
    // The worker blocks for requests only when the event queue is
    // empty; `step` returning work-to-do is observed via peeking the
    // trial states is unnecessary — an empty heap means nothing left.
    !engine.has_events()
}

fn status_of<B: ArrayBackend>(engine: &ServeEngine<B>) -> Vec<SweepStatus> {
    let mut out: Vec<SweepStatus> = (0..engine.sweep_count() as u64)
        .map(|sweep| SweepStatus {
            sweep,
            ..SweepStatus::default()
        })
        .collect();
    for tid in 0..engine.trial_count() as u64 {
        let s = &mut out[engine.sweep_of(tid) as usize];
        s.trials += 1;
        match engine.state(tid) {
            TrialState::Queued => s.queued += 1,
            TrialState::Running => s.running += 1,
            TrialState::Buffered => s.buffered += 1,
            TrialState::Finished => s.finished += 1,
            TrialState::Stopped => s.stopped += 1,
            TrialState::Killed => s.killed += 1,
            TrialState::Cancelled => s.cancelled += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_sched::asha::RungPolicy;
    use hfta_sched::linear::{LinearBackend, LinearTrialCfg};
    use hfta_sim::DeviceSpec;

    fn sweep(tenant: &str, priority: f64, n: usize) -> SweepSpec<LinearTrialCfg> {
        SweepSpec {
            tenant: tenant.to_string(),
            priority,
            configs: (0..n)
                .map(|k| LinearTrialCfg {
                    lr: 0.004 * (1.0 + k as f32),
                    poison_at: None,
                })
                .collect(),
            archs: Vec::new(),
        }
    }

    #[test]
    fn submit_status_cancel_round_trip() {
        let backend = LinearBackend::default();
        let fleet = DeviceFleet::homogeneous(DeviceSpec::v100(), false, 2);
        let cfg = ServeCfg {
            policy: crate::admission::AdmitPolicy::FairShare,
            rung: RungPolicy {
                base_steps: 2,
                eta: 2,
                rungs: 2,
            },
            width_cap: 4,
            checkpoint_dir: None,
        };
        // Every request is queued before the worker loop starts, so all of
        // them land at simulated time 0 and the cancel provably precedes
        // bob's first step. (Through a live handle the cancel would race the
        // worker's own stepping: bob may finish first.)
        let (tx, rx) = mpsc::channel();
        let (ids_tx, ids) = mpsc::channel();
        for spec in [sweep("alice", 1.0, 4), sweep("bob", 2.0, 4)] {
            let reply = ids_tx.clone();
            tx.send(Request::Submit { spec, reply }).unwrap();
        }
        let (a, b) = (0, 1);
        let (reply, _cancelled) = mpsc::channel();
        tx.send(Request::Cancel { sweep: b, reply }).unwrap();
        let (reply, finished) = mpsc::channel();
        tx.send(Request::Shutdown { reply }).unwrap();
        serve(
            ServeEngine::new(backend, fleet, cfg, Vec::new()).unwrap(),
            &rx,
        );
        assert_eq!(ids.recv().unwrap().unwrap(), a);
        assert_eq!(ids.recv().unwrap().unwrap(), b);
        let run = finished.recv().unwrap().unwrap();
        assert_eq!(run.report.sweeps, 2);
        assert_eq!(run.report.trials, 8);
        // Bob's sweep was cancelled before training.
        let bob: Vec<_> = run.outcomes.iter().filter(|o| o.sweep == b).collect();
        assert!(bob.iter().all(|o| o.status == "cancelled"));
        // Alice's sweep ran to completion: someone finished.
        assert!(run
            .outcomes
            .iter()
            .any(|o| o.sweep == a && o.status == "finished"));
    }
}

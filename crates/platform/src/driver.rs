//! The resumable marketplace driver.
//!
//! [`MarketDriver`] is the marketplace event loop of
//! [`crate::market::Marketplace`] split open at the one point where a
//! worker produces an answer: [`MarketDriver::advance`] runs the
//! deterministic `(tick, sequence)` schedule up to the next assignment
//! and then *suspends*, and [`MarketDriver::submit_scheduled`] resumes
//! it with the answer. The in-process harness closes the gap with a
//! direct [`crate::market::WorkerBehavior`] call; the TCP serving layer
//! closes it with a network round-trip to a remote client. Both paths
//! execute the identical driver code in the identical order, which is
//! what makes a served campaign's outcome bit-identical to the
//! in-process run at the same seed.
//!
//! While an assignment is outstanding ([`MarketDriver::pending`]), no
//! other worker's turn can run — exactly as in the single-threaded loop,
//! where the behaviour call sits inline between assignment and delivery.
//! Remote workers polling out of turn get [`PollOutcome::Wait`] and try
//! again; deferred (late) deliveries queued in the heap are pumped by
//! whichever worker polls next.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use icrowd_core::answer::Answer;
use icrowd_core::task::{TaskId, TaskSet};
use icrowd_core::worker::Tick;

use crate::events::{EventLog, MarketEvent};
use crate::faults::{FaultConfig, FaultPlan};
use crate::hit::HitPool;
use crate::market::{
    ExternalQuestionServer, MarketAccounting, MarketConfig, MarketOutcome, SubmitOutcome,
    WorkerScript,
};
use crate::payment::PaymentLedger;
use crate::session::WorkerSession;

/// A heap entry's payload: a worker's next turn, or the deferred
/// delivery of a late answer (indexing the side table of deliveries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Pending {
    Turn(usize),
    Deliver(usize),
}

/// A late answer in flight: produced at assignment time, delivered to
/// the server several ticks later.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    wi: usize,
    task: TaskId,
    answer: Answer,
}

/// Per-worker driver state (the behaviour lives with the caller).
struct DriverWorker {
    external_id: String,
    script: WorkerScript,
    session: Option<WorkerSession>,
    answered_total: usize,
    declines: u32,
    /// Next churn spike this worker has not yet rolled against.
    churn_idx: usize,
}

/// An assignment the driver is suspended on: the worker's answer must
/// arrive via [`MarketDriver::submit_scheduled`] before any other turn
/// can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingAssignment {
    /// Worker index (0-based; external id `"W{index+1}"`).
    pub worker: usize,
    /// The assigned microtask.
    pub task: TaskId,
    /// The logical tick of the assignment turn.
    pub at: Tick,
}

/// What [`MarketDriver::advance`] stopped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnOutcome {
    /// A worker was assigned a task; the driver is suspended until
    /// [`MarketDriver::submit_scheduled`] delivers her answer.
    Assigned {
        /// Worker index.
        worker: usize,
        /// The assigned microtask.
        task: TaskId,
    },
    /// The schedule is exhausted: final sweep done, outcome ready.
    Finished,
}

/// What one worker's poll produced (the serving layer's view of a turn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// It is this worker's turn and she was assigned `task` (or her
    /// outstanding assignment was idempotently re-issued).
    Assigned(TaskId),
    /// Another worker's turn (or in-flight assignment) is ahead in the
    /// schedule; poll again shortly.
    Wait,
    /// The server had no task for this worker. With `retry` true she has
    /// a backoff turn queued; with `retry` false she gave up and left.
    Declined {
        /// Whether a retry turn was queued.
        retry: bool,
    },
    /// The worker left the marketplace (campaign complete, churned,
    /// budget exhausted, marketplace sold out) — no more turns for her.
    Left,
}

/// How a scheduled submission was settled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitReport {
    /// The answer reached the server, which returned this verdict.
    Delivered(SubmitOutcome),
    /// A fault swallowed the answer in transit; the worker will be
    /// re-issued the task on her next turn.
    Dropped,
    /// The worker stalled on the assignment forever; no further turns.
    Stalled,
    /// A fault deferred delivery; the answer arrives a few ticks later,
    /// pumped by a subsequent poll.
    Deferred,
}

/// The marketplace event loop as a suspendable state machine. See the
/// module docs; construct via [`MarketDriver::new`], drive via
/// [`MarketDriver::advance`]/[`MarketDriver::submit_scheduled`] (in
/// process) or [`MarketDriver::poll`]/[`MarketDriver::submit_scheduled`]
/// (serving layer), then collect [`MarketDriver::into_outcome`].
pub struct MarketDriver {
    tasks: TaskSet,
    config: MarketConfig,
    plan: Option<FaultPlan>,
    pool: HitPool,
    ledger: PaymentLedger,
    events: EventLog,
    accounting: MarketAccounting,
    end: Tick,
    answers: usize,
    states: Vec<DriverWorker>,
    heap: BinaryHeap<Reverse<(u64, u64, Pending)>>,
    deliveries: Vec<Delivery>,
    seq: u64,
    pending: Option<PendingAssignment>,
    finished: bool,
    /// Mutation epoch: bumped whenever schedule, accounting or server
    /// state changes. A journaling layer compares epochs around a call
    /// to decide whether the call must be logged — idempotent re-issues
    /// and out-of-turn waits leave the epoch untouched.
    epoch: u64,
}

fn fault_counter(name: &str) {
    if icrowd_obs::is_enabled() {
        icrowd_obs::counter_add(name, 1);
    }
}

impl MarketDriver {
    /// Builds a driver over `tasks` for workers with the given scripts
    /// (external ids are `"W1"`, `"W2"`, ... in input order), with an
    /// optional fault plan injected between the workers and the server.
    pub fn new(
        tasks: TaskSet,
        config: MarketConfig,
        scripts: Vec<WorkerScript>,
        faults: Option<FaultConfig>,
    ) -> Self {
        let pool = HitPool::publish(
            config.num_hits,
            config.assignments_per_hit,
            config.tasks_per_hit,
            config.reward_cents,
        );
        let states: Vec<DriverWorker> = scripts
            .into_iter()
            .enumerate()
            .map(|(i, script)| DriverWorker {
                external_id: format!("W{}", i + 1),
                script,
                session: None,
                answered_total: 0,
                declines: 0,
                churn_idx: 0,
            })
            .collect();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, st) in states.iter().enumerate() {
            heap.push(Reverse((st.script.arrival.0, seq, Pending::Turn(i))));
            seq += 1;
        }
        Self {
            tasks,
            config,
            plan: faults.map(FaultPlan::new),
            pool,
            ledger: PaymentLedger::new(),
            events: EventLog::new(),
            accounting: MarketAccounting::default(),
            end: Tick::ZERO,
            answers: 0,
            states,
            heap,
            deliveries: Vec::new(),
            seq,
            pending: None,
            finished: false,
            epoch: 0,
        }
    }

    /// Number of workers the driver schedules.
    pub fn num_workers(&self) -> usize {
        self.states.len()
    }

    /// The task set on offer.
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// A worker's external id (`"W{index+1}"`).
    pub fn external_id(&self, worker: usize) -> &str {
        &self.states[worker].external_id
    }

    /// The assignment the driver is currently suspended on, if any.
    pub fn pending(&self) -> Option<PendingAssignment> {
        self.pending
    }

    /// The worker whose poll the schedule is waiting on: the holder of
    /// the pending assignment, else the worker whose turn heads the
    /// schedule. `None` when a deferred delivery heads it (any poll
    /// pumps that) or the schedule is exhausted. Reading it never
    /// changes the schedule.
    pub fn turn_holder(&self) -> Option<usize> {
        if let Some(p) = self.pending {
            return Some(p.worker);
        }
        match self.heap.peek() {
            Some(&Reverse((_, _, Pending::Turn(wi)))) => Some(wi),
            _ => None,
        }
    }

    /// Whether the schedule has been exhausted and the final sweep ran.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Accounting so far (final once [`Self::is_finished`]).
    pub fn accounting(&self) -> MarketAccounting {
        self.accounting
    }

    /// Answers accepted by the server so far.
    pub fn answers(&self) -> usize {
        self.answers
    }

    /// The latest logical tick the schedule has reached.
    pub fn now(&self) -> Tick {
        self.end
    }

    /// The current mutation epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Runs the schedule until the next assignment or the end of the
    /// run. Used by the in-process harness; must not be called while an
    /// assignment is pending or after the driver finished.
    ///
    /// # Panics
    /// If called while suspended on a pending assignment.
    pub fn advance(&mut self, server: &mut dyn ExternalQuestionServer) -> TurnOutcome {
        assert!(
            self.pending.is_none(),
            "advance() while an assignment is pending"
        );
        loop {
            if self.finished {
                return TurnOutcome::Finished;
            }
            let Some(Reverse((tick, _, pending))) = self.heap.pop() else {
                self.finish();
                return TurnOutcome::Finished;
            };
            match self.run_entry(server, tick, pending) {
                Some(PollOutcome::Assigned(task)) => {
                    let worker = self.pending.expect("assignment suspends").worker;
                    return TurnOutcome::Assigned { worker, task };
                }
                _ => continue,
            }
        }
    }

    /// One worker's poll of the schedule, for the serving layer: pumps
    /// any deferred deliveries at the head of the heap, then runs this
    /// worker's turn if it is next — otherwise [`PollOutcome::Wait`].
    /// Unknown external ids get [`PollOutcome::Left`].
    pub fn poll(&mut self, server: &mut dyn ExternalQuestionServer, external: &str) -> PollOutcome {
        let _tspan = icrowd_obs::TraceSpan::start("driver.poll");
        if let Some(p) = self.pending {
            // Re-requesting while her own assignment is in flight
            // idempotently re-issues it; everyone else waits.
            return if self.states[p.worker].external_id == external {
                PollOutcome::Assigned(p.task)
            } else {
                PollOutcome::Wait
            };
        }
        loop {
            if self.finished {
                return PollOutcome::Left;
            }
            match self.heap.peek() {
                None => {
                    self.finish();
                    return PollOutcome::Left;
                }
                Some(&Reverse((_, _, Pending::Turn(wi)))) => {
                    if self.states[wi].external_id != external {
                        return PollOutcome::Wait;
                    }
                    let Reverse((tick, _, pending)) = self.heap.pop().expect("peeked");
                    if let Some(outcome) = self.run_entry(server, tick, pending) {
                        return outcome;
                    }
                }
                Some(&Reverse((_, _, Pending::Deliver(_)))) => {
                    let Reverse((tick, _, pending)) = self.heap.pop().expect("peeked");
                    self.run_entry(server, tick, pending);
                }
            }
        }
    }

    /// Pumps deferred deliveries sitting at the head of the schedule
    /// without consuming any worker turn, and runs the final sweep if
    /// the schedule is exhausted. The serving layer calls this on
    /// `STATUS` and at drain so late answers still land after every
    /// worker has left.
    pub fn pump(&mut self, server: &mut dyn ExternalQuestionServer) {
        let _tspan = icrowd_obs::TraceSpan::start("driver.pump");
        while let Some(&Reverse((tick, _, pending @ Pending::Deliver(_)))) = self.heap.peek() {
            self.heap.pop();
            self.run_entry(server, tick, pending);
        }
        if self.heap.is_empty() && self.pending.is_none() && !self.finished {
            self.finish();
        }
    }

    /// Resumes the driver with the answer for the pending assignment:
    /// runs the fault branches, delivers to the server, settles payment,
    /// and schedules the worker's next turn.
    ///
    /// # Panics
    /// If no assignment is pending or `worker` is not its holder.
    pub fn submit_scheduled(
        &mut self,
        worker: usize,
        answer: Answer,
        server: &mut dyn ExternalQuestionServer,
    ) -> SubmitReport {
        let _tspan = icrowd_obs::TraceSpan::start("driver.submit");
        let p = self.pending.take().expect("no pending assignment");
        assert_eq!(p.worker, worker, "submission from the wrong worker");
        self.epoch += 1;
        let (wi, task, now) = (p.worker, p.task, p.at);
        self.states[wi].answered_total += 1;

        if self.plan.is_some() {
            // Stall: the worker sits on the assignment forever. No
            // further events for her; her lease expires server-side and
            // her HIT is abandoned at cleanup.
            if self.plan.as_mut().expect("checked").stall() {
                self.accounting.stalled += 1;
                fault_counter("fault.stall");
                self.events.push(MarketEvent::WorkerStalled {
                    at: now,
                    worker: self.states[wi].external_id.clone(),
                    task,
                });
                return SubmitReport::Stalled;
            }
            // Drop: the submission is lost in transit. The worker
            // notices nothing and re-requests next turn.
            if self.plan.as_mut().expect("checked").drop_answer() {
                self.accounting.answers_dropped += 1;
                fault_counter("fault.drop");
                let st = &mut self.states[wi];
                st.session.as_mut().expect("assigned").abort_task();
                let pace = st.script.ticks_per_answer;
                self.events.push(MarketEvent::AnswerDropped {
                    at: now,
                    worker: self.states[wi].external_id.clone(),
                    task,
                });
                self.push_turn(now.0 + pace, wi);
                return SubmitReport::Dropped;
            }
            // Late: the answer arrives `delay` ticks from now; the
            // worker's next turn follows the delivery.
            if let Some(delay) = self.plan.as_mut().expect("checked").late_delay() {
                fault_counter("fault.late");
                self.deliveries.push(Delivery { wi, task, answer });
                self.heap.push(Reverse((
                    now.0 + delay,
                    self.seq,
                    Pending::Deliver(self.deliveries.len() - 1),
                )));
                self.seq += 1;
                return SubmitReport::Deferred;
            }
        }

        let (accepted, outcome) = self.deliver(server, wi, task, answer, now);
        self.answers += accepted;
        let pace = self.states[wi].script.ticks_per_answer;
        self.push_turn(now.0 + pace, wi);
        SubmitReport::Delivered(outcome)
    }

    /// Delivers a submission that is *not* the pending scheduled one —
    /// a duplicate or unsolicited message arriving over the wire. The
    /// server validates it through the regular `submit_answer` path (a
    /// compliant server rejects it), and the accounting counts it so
    /// the conservation laws keep holding. Sessions, payments and the
    /// schedule are untouched, so the in-process parity is preserved:
    /// this path exists only for network clients misbehaving.
    pub fn submit_stray(
        &mut self,
        server: &mut dyn ExternalQuestionServer,
        external: &str,
        task: TaskId,
        answer: Answer,
    ) -> SubmitOutcome {
        let _tspan = icrowd_obs::TraceSpan::start("driver.submit_stray");
        let now = self.end;
        self.epoch += 1;
        self.accounting.answers_submitted += 1;
        self.events.push(MarketEvent::AnswerSubmitted {
            at: now,
            worker: external.to_owned(),
            task,
            answer,
        });
        match server.submit_answer(external, task, answer, now) {
            SubmitOutcome::Accepted => {
                // A compliant server never accepts a stray; if it does,
                // the acceptance has no session credit and `balanced()`
                // exposes the double-count at the end of the run.
                self.accounting.answers_accepted += 1;
                self.answers += 1;
                SubmitOutcome::Accepted
            }
            SubmitOutcome::Rejected(reason) => {
                self.accounting.answers_rejected += 1;
                self.events.push(MarketEvent::AnswerRejected {
                    at: now,
                    worker: external.to_owned(),
                    task,
                    reason,
                });
                SubmitOutcome::Rejected(reason)
            }
        }
    }

    /// Consumes the driver into the run's outcome.
    ///
    /// # Panics
    /// If the run has not finished (the final sweep has not run).
    pub fn into_outcome(self) -> MarketOutcome {
        assert!(self.finished, "into_outcome() before the run finished");
        let faults = self.plan.as_ref().map(FaultPlan::stats).unwrap_or_default();
        MarketOutcome {
            ledger: self.ledger,
            events: self.events,
            end: self.end,
            answers: self.answers,
            accounting: self.accounting,
            faults,
        }
    }

    /// Forces the end-of-run sweep even with turns still queued — the
    /// serving layer's drain path when shut down mid-campaign. Open
    /// sessions are settled (finished HITs paid, partial ones abandoned)
    /// and the event log is exported, so accounting balances.
    pub fn finish_now(&mut self) {
        self.pending = None;
        self.heap.clear();
        if !self.finished {
            self.finish();
        }
    }

    // -- internals ----------------------------------------------------

    fn push_turn(&mut self, tick: u64, wi: usize) {
        self.heap.push(Reverse((tick, self.seq, Pending::Turn(wi))));
        self.seq += 1;
    }

    /// Executes one popped heap entry. Returns `None` for deliveries
    /// (schedule keeps moving) and the worker-visible outcome for turns.
    /// An `Assigned` return means the driver is now suspended.
    fn run_entry(
        &mut self,
        server: &mut dyn ExternalQuestionServer,
        tick: u64,
        pending: Pending,
    ) -> Option<PollOutcome> {
        let now = Tick(tick);
        self.epoch += 1;
        self.end = self.end.max(now);

        // A late answer reaches the server. The session has been
        // `Working` since assignment (no turn is queued while a
        // delivery is in flight), so this is delivered even after
        // campaign completion — the server rejects it as stale.
        if let Pending::Deliver(di) = pending {
            let Delivery { wi, task, answer } = self.deliveries[di];
            let (accepted, _) = self.deliver(server, wi, task, answer, now);
            self.answers += accepted;
            let pace = self.states[wi].script.ticks_per_answer;
            self.push_turn(now.0 + pace, wi);
            return None;
        }
        let Pending::Turn(wi) = pending else {
            unreachable!()
        };

        // Campaign over: close out any open session and drop the worker.
        if server.is_complete() {
            self.leave(wi, now);
            return Some(PollOutcome::Left);
        }

        // Churn spike: the worker rolls against every spike whose tick
        // has passed since her last turn, and departs on the first hit.
        if let Some(p) = self.plan.as_mut() {
            let st = &mut self.states[wi];
            let mut departed = false;
            while st.churn_idx < p.num_spikes() && now.0 >= p.spike_at(st.churn_idx) {
                let hit = p.churn_hits(st.churn_idx);
                st.churn_idx += 1;
                if hit {
                    departed = true;
                    break;
                }
            }
            if departed {
                self.accounting.churned += 1;
                fault_counter("fault.churn");
                self.events.push(MarketEvent::WorkerChurned {
                    at: now,
                    worker: self.states[wi].external_id.clone(),
                });
                self.leave(wi, now);
                return Some(PollOutcome::Left);
            }
        }

        // Worker exhausted her budget: leave.
        if self.states[wi].answered_total >= self.states[wi].script.max_answers {
            self.leave(wi, now);
            return Some(PollOutcome::Left);
        }

        // Ensure the worker holds a HIT.
        if self.states[wi].session.is_none() {
            match self.pool.accept_any() {
                Some(hit) => {
                    let st = &mut self.states[wi];
                    st.session = Some(WorkerSession::open(st.external_id.clone(), hit, now));
                    self.events.push(MarketEvent::HitAccepted {
                        at: now,
                        worker: st.external_id.clone(),
                        hit,
                    });
                }
                None => return Some(PollOutcome::Left), // marketplace sold out
            }
        }

        // Request a microtask.
        match server.request_task(&self.states[wi].external_id, now) {
            Some(task) => {
                let st = &mut self.states[wi];
                st.declines = 0;
                self.events.push(MarketEvent::TaskAssigned {
                    at: now,
                    worker: st.external_id.clone(),
                    task,
                });
                // Re-requesting a dropped answer's task re-issues the
                // same in-flight assignment; the session is already
                // `Ready` after the abort, so `assign` is safe.
                st.session
                    .as_mut()
                    .expect("session ensured above")
                    .assign(task);
                self.pending = Some(PendingAssignment {
                    worker: wi,
                    task,
                    at: now,
                });
                Some(PollOutcome::Assigned(task))
            }
            None => {
                let st = &mut self.states[wi];
                self.events.push(MarketEvent::RequestDeclined {
                    at: now,
                    worker: st.external_id.clone(),
                });
                st.declines += 1;
                if st.declines <= self.config.max_retries {
                    let backoff = self.config.retry_backoff;
                    self.push_turn(now.0 + backoff, wi);
                    Some(PollOutcome::Declined { retry: true })
                } else {
                    self.leave(wi, now);
                    Some(PollOutcome::Declined { retry: false })
                }
            }
        }
    }

    /// Delivers one answer to the server and settles the outcome:
    /// accepted answers credit the session (and may complete the HIT),
    /// rejected answers abort the in-flight task without credit.
    /// Returns `(answers accepted, server verdict)`.
    fn deliver(
        &mut self,
        server: &mut dyn ExternalQuestionServer,
        wi: usize,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> (usize, SubmitOutcome) {
        let external = self.states[wi].external_id.clone();
        self.accounting.answers_submitted += 1;
        self.events.push(MarketEvent::AnswerSubmitted {
            at: now,
            worker: external.clone(),
            task,
            answer,
        });
        match server.submit_answer(&external, task, answer, now) {
            SubmitOutcome::Accepted => {
                let st = &mut self.states[wi];
                st.session
                    .as_mut()
                    .expect("delivery requires a session")
                    .complete_task();
                self.accounting.answers_accepted += 1;

                // Duplicate: the same accepted answer is delivered again.
                // A compliant server refuses the copy; if it accepts, the
                // extra acceptance has no session credit and `balanced()`
                // exposes the double-count.
                if let Some(p) = self.plan.as_mut() {
                    if p.duplicate() {
                        fault_counter("fault.dup");
                        self.accounting.answers_submitted += 1;
                        self.events.push(MarketEvent::AnswerSubmitted {
                            at: now,
                            worker: external.clone(),
                            task,
                            answer,
                        });
                        match server.submit_answer(&external, task, answer, now) {
                            SubmitOutcome::Accepted => self.accounting.answers_accepted += 1,
                            SubmitOutcome::Rejected(reason) => {
                                self.accounting.answers_rejected += 1;
                                self.events.push(MarketEvent::AnswerRejected {
                                    at: now,
                                    worker: external.clone(),
                                    task,
                                    reason,
                                });
                            }
                        }
                    }
                }

                // HIT complete → pay and release the session.
                let st = &mut self.states[wi];
                let session = st.session.as_mut().expect("session still open");
                if session.hit_finished(self.config.tasks_per_hit) {
                    let hit = session.hit;
                    self.accounting.answers_paid += session.answered as u64;
                    session.close();
                    st.session = None;
                    self.ledger.pay(&external, hit, self.config.reward_cents);
                    self.events.push(MarketEvent::HitSubmitted {
                        at: now,
                        worker: external,
                        hit,
                        reward_cents: self.config.reward_cents,
                    });
                }
                (1, SubmitOutcome::Accepted)
            }
            SubmitOutcome::Rejected(reason) => {
                self.states[wi]
                    .session
                    .as_mut()
                    .expect("delivery requires a session")
                    .abort_task();
                self.accounting.answers_rejected += 1;
                self.events.push(MarketEvent::AnswerRejected {
                    at: now,
                    worker: external,
                    task,
                    reason,
                });
                (0, SubmitOutcome::Rejected(reason))
            }
        }
    }

    /// Closes a worker's open session: pays a finished HIT, abandons a
    /// partial one (returning the slot to the pool).
    fn leave(&mut self, wi: usize, now: Tick) {
        let st = &mut self.states[wi];
        let Some(mut session) = st.session.take() else {
            return;
        };
        let hit = session.hit;
        if session.hit_finished(self.config.tasks_per_hit) {
            self.accounting.answers_paid += session.answered as u64;
            self.ledger
                .pay(&st.external_id, hit, self.config.reward_cents);
            self.events.push(MarketEvent::HitSubmitted {
                at: now,
                worker: st.external_id.clone(),
                hit,
                reward_cents: self.config.reward_cents,
            });
        } else {
            self.accounting.answers_abandoned += session.answered as u64;
            self.pool.release(hit);
            self.events.push(MarketEvent::HitAbandoned {
                at: now,
                worker: st.external_id.clone(),
                hit,
                answered: session.answered,
            });
        }
        session.close();
    }

    /// Close any sessions still open when events ran out (including
    /// stalled workers, whose sessions are still `Working`).
    fn finish(&mut self) {
        self.epoch += 1;
        let final_tick = self.end;
        for wi in 0..self.states.len() {
            self.leave(wi, final_tick);
        }
        self.events.export_to_obs();
        self.finished = true;
    }
}

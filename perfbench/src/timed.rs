//! A timing [`ExternalQuestionServer`]: forwards every call unchanged
//! and records how long it took, so a drive loop's time can be split
//! into time inside the server and time in the caller.

use std::time::Instant;

use icrowd_core::answer::Answer;
use icrowd_core::task::TaskId;
use icrowd_core::worker::Tick;
use icrowd_platform::market::{ExternalQuestionServer, SubmitOutcome};

use crate::trace::Tracer;

/// Call timings gathered by [`Timed`].
#[derive(Debug, Default, Clone)]
pub struct CallTimes {
    /// Duration of every `request_task` call, nanoseconds.
    pub request_ns: Vec<u64>,
    /// Duration of every `submit_answer` call, nanoseconds.
    pub submit_ns: Vec<u64>,
    /// Requests that returned a task.
    pub assigned: u64,
    /// Submissions the server refused.
    pub rejected: u64,
}

impl CallTimes {
    /// Total time spent inside the server, nanoseconds.
    pub fn inside_ns(&self) -> u64 {
        self.request_ns.iter().chain(&self.submit_ns).sum()
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        (self.request_ns.len() + self.submit_ns.len()) as u64
    }
}

/// Wraps a server; see the module docs. With an enabled tracer each
/// call is also a span under the tracer's innermost open span.
pub struct Timed<'a, S: ExternalQuestionServer + ?Sized> {
    inner: &'a mut S,
    tracer: &'a mut Tracer,
    /// What the wrapper measured.
    pub times: CallTimes,
}

impl<'a, S: ExternalQuestionServer + ?Sized> Timed<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut S, tracer: &'a mut Tracer) -> Self {
        Timed {
            inner,
            tracer,
            times: CallTimes::default(),
        }
    }
}

impl<S: ExternalQuestionServer + ?Sized> ExternalQuestionServer for Timed<'_, S> {
    fn request_task(&mut self, worker: &str, now: Tick) -> Option<TaskId> {
        let span = self.tracer.open("icrowd.request_task");
        let t0 = Instant::now();
        let task = self.inner.request_task(worker, now);
        self.times.request_ns.push(t0.elapsed().as_nanos() as u64);
        self.tracer.close(span);
        self.times.assigned += u64::from(task.is_some());
        task
    }

    fn submit_answer(
        &mut self,
        worker: &str,
        task: TaskId,
        answer: Answer,
        now: Tick,
    ) -> SubmitOutcome {
        let span = self.tracer.open("icrowd.submit_answer");
        let t0 = Instant::now();
        let outcome = self.inner.submit_answer(worker, task, answer, now);
        self.times.submit_ns.push(t0.elapsed().as_nanos() as u64);
        self.tracer.close(span);
        self.times.rejected += u64::from(matches!(outcome, SubmitOutcome::Rejected(_)));
        outcome
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

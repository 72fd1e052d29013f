//! The closed-loop load driver: one pipelined v2 `Session`, a fixed window
//! of requests in flight, every score checked against the oracle.

use crate::gen::{Inputs, Workload};
use crate::stats::Segment;
use crate::trace::Tracer;
use pretzel_core::frontend::{Client, PendingPredict, PredictRequest, Session};
use pretzel_core::runtime::PlanId;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Which version of each alias slot is live (`churn_mixed`).
struct ChurnState {
    live_version: Vec<usize>,
    live_plan: Vec<PlanId>,
    previous_version: Vec<usize>,
    /// Value of `Driver::cycles` right after the slot's latest swap.
    swapped_at: Vec<u64>,
}

struct InFlight {
    pending: PendingPredict,
    /// Schedule index of the request.
    entry: usize,
    submitted: Instant,
    /// `Driver::cycles` at submission.
    cycle_mark: u64,
}

/// What one timed phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    pub segments: Vec<Segment>,
    /// Wall time of each lifecycle cycle begun inside the phase.
    pub cycle_ms: Vec<f64>,
}

pub struct Driver<'a> {
    inputs: &'a Inputs,
    requests: &'a [PredictRequest],
    expected: &'a [Vec<f32>],
    session: Session,
    /// Next schedule entry to send. It persists across phases, so warm-up
    /// and the measured phase walk one cycle.
    cursor: usize,
    churn: Option<ChurnState>,
    /// Lifecycle cycles issued so far.
    cycles: u64,
    completions_since_cycle: usize,
    /// Requests and lifecycle operations issued.
    pub attempted: u64,
    /// Of those: transport error, non-OK status, or a score that is not
    /// bitwise the oracle's.
    pub failed: u64,
}

impl<'a> Driver<'a> {
    pub fn connect(
        addr: SocketAddr,
        inputs: &'a Inputs,
        requests: &'a [PredictRequest],
        expected: &'a [Vec<f32>],
        plan_ids: &[PlanId],
    ) -> std::io::Result<Driver<'a>> {
        let slots = inputs.images.len();
        let churn = (inputs.workload == Workload::ChurnMixed).then(|| ChurnState {
            live_version: vec![0; slots],
            live_plan: plan_ids.to_vec(),
            previous_version: vec![0; slots],
            swapped_at: vec![0; slots],
        });
        Ok(Driver {
            inputs,
            requests,
            expected,
            session: Session::connect(addr)?,
            cursor: 0,
            churn,
            cycles: 0,
            completions_since_cycle: 0,
            attempted: 0,
            failed: 0,
        })
    }

    /// True if `scores` are bitwise what the oracle expects for schedule
    /// entry `entry`, submitted when `cycles` was `cycle_mark`. A response
    /// in flight across its slot's swap may carry either version's score;
    /// any other must carry the live one.
    fn scores_match(&self, entry: usize, cycle_mark: u64, scores: &[f32]) -> bool {
        let per_request = self.inputs.workload.rows_per_request();
        let first_row = entry * per_request;
        let matches = |version: usize| {
            let want = &self.expected[version][first_row..first_row + per_request];
            scores.len() == want.len()
                && scores
                    .iter()
                    .zip(want)
                    .all(|(got, want)| got.to_bits() == want.to_bits())
        };
        match &self.churn {
            None => matches(0),
            Some(churn) => {
                let slot = self.inputs.targets[entry] as usize;
                matches(churn.live_version[slot])
                    || (churn.swapped_at[slot] > cycle_mark
                        && matches(churn.previous_version[slot]))
            }
        }
    }

    /// One blocking lifecycle cycle on the admin connection, issued while
    /// the scoring window is in flight: deploy the next version of a slot
    /// under its alias, then undeploy the version that replaced. Slots take
    /// turns. Returns the cycle's wall time in milliseconds.
    fn lifecycle_cycle(&mut self, admin: &mut Client) -> Option<f64> {
        self.completions_since_cycle = 0;
        let churn = self.churn.as_mut()?;
        let slot = (self.cycles % self.inputs.images.len() as u64) as usize;
        self.cycles += 1;
        self.attempted += 2;
        let images = &self.inputs.images[slot];
        let next = (churn.live_version[slot] + 1) % images.len();
        let start = Instant::now();
        let outcome = admin
            .deploy(&images[next], Some(&Inputs::alias(slot)), false)
            .and_then(|plan| {
                let replaced = std::mem::replace(&mut churn.live_plan[slot], plan);
                churn.previous_version[slot] = churn.live_version[slot];
                churn.live_version[slot] = next;
                churn.swapped_at[slot] = self.cycles;
                admin.undeploy(replaced)
            });
        let elapsed = start.elapsed();
        if outcome.is_err() {
            self.failed += 2;
            return None;
        }
        Some(elapsed.as_secs_f64() * 1e3)
    }

    /// Drives the window for `duration`, with one lifecycle cycle after
    /// every `requests_per_cycle` completions (`churn_mixed`). A request
    /// belongs to the segment it completes in; the segment left unfinished
    /// at the end is discarded, and requests still in flight then are
    /// drained and checked but not timed. With a `tracer`, one span per
    /// timed request is recorded.
    pub fn run(
        &mut self,
        admin: &mut Client,
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Phase {
        let workload = self.inputs.workload;
        let window = workload.window();
        let per_request = workload.rows_per_request() as u64;
        let per_segment = workload.requests_per_segment();
        let per_cycle = workload.requests_per_cycle();
        let mut phase = Phase::default();
        // Samples of the segment now filling.
        let mut latencies_ns: Vec<u64> = Vec::with_capacity(per_segment);
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let start = Instant::now();
        let end = start + duration;
        let mut segment_start = start;
        let mut now = start;
        loop {
            while inflight.len() < window && now < end {
                let entry = self.cursor;
                self.cursor = (self.cursor + 1) % self.requests.len();
                self.attempted += 1;
                let submitted = Instant::now();
                match self.session.submit(&self.requests[entry]) {
                    Ok(pending) => inflight.push_back(InFlight {
                        pending,
                        entry,
                        submitted,
                        cycle_mark: self.cycles,
                    }),
                    Err(_) => {
                        // The connection is gone; nothing more can be sent.
                        self.failed += 1;
                        now = end;
                    }
                }
            }
            let Some(flight) = inflight.pop_front() else {
                break;
            };
            let result = flight.pending.wait();
            now = Instant::now();
            let ok = result
                .is_ok_and(|scores| self.scores_match(flight.entry, flight.cycle_mark, &scores));
            if !ok {
                self.failed += 1;
            }
            if ok && now < end {
                latencies_ns.push((now - flight.submitted).as_nanos() as u64);
                if let Some(tracer) = tracer.as_deref_mut() {
                    tracer.record(
                        "client.request",
                        None,
                        flight.entry as u32,
                        flight.submitted,
                        now,
                    );
                }
                if latencies_ns.len() == per_segment {
                    let rows = per_segment as u64 * per_request;
                    let elapsed = (now - segment_start).as_nanos() as u64;
                    phase
                        .segments
                        .push(Segment::close(&mut latencies_ns, rows, elapsed));
                    segment_start = now;
                }
            }
            self.completions_since_cycle += 1;
            if per_cycle.is_some_and(|n| self.completions_since_cycle >= n) && now < end {
                if let Some(ms) = self.lifecycle_cycle(admin) {
                    phase.cycle_ms.push(ms);
                }
                now = Instant::now();
            }
        }
        phase
    }
}

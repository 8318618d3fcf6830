//! The load loop of one connection: closed or open, timed from due time.
//!
//! A *closed* phase sends the next request as soon as the previous one is
//! answered, so a slow server receives less load. An *open* phase sends on a
//! schedule drawn before the run (exponential gaps at a fixed rate) and times
//! every request **from the instant it was due**: the protocol allows one
//! request in flight per connection, so when the server stalls, the requests
//! that came due meanwhile are sent late and the stall is charged to each of
//! them. None is dropped — a stall inflates latency, never the offered load.
//! The one thing taken out of a latency is the generator's own *lag*: how long
//! after both the due time and the previous response the request was actually
//! sent. That delay is the load generator oversleeping, not the server, and it
//! is reported separately (`loadgen.*`).
//!
//! The loop is generic over a [`Clock`] and a `send` callback so the
//! scheduling rules are unit-tested without sockets or sleeping.

use crate::gen::{Class, Op, OpStream, Rng};
use std::collections::BTreeSet;
use std::time::Instant;

/// Sent this long after it could have been: the generator, not the server, was slow.
pub const LATE_NS: u64 = 1_000_000;

pub trait Clock {
    /// Nanoseconds since the run's origin.
    fn now(&self) -> u64;
    /// Return at or after `t`; immediately when `t` is already past.
    fn sleep_until(&self, t: u64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t: u64) {
        // Yield, never sleep: a timed sleep overshoots by the kernel's timer
        // slack (≥ 50 µs, several point lookups) and lets both cores go idle,
        // so every hop of the next request pays an idle wake-up — measured
        // here as 200 µs medians for 25 µs requests. Yielding keeps the
        // schedule exact and hands the core to any server thread that can run.
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// One stretch of the run with a fixed pacing.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub start: u64,
    pub end: u64,
    /// Arrivals per second on this connection; `None` is a closed loop.
    pub rate: Option<f64>,
    /// Warm-up phases are driven the same way but not recorded.
    pub measured: bool,
}

/// What `send` reports for one request.
#[derive(Debug, PartialEq)]
pub enum Sent {
    Ok,
    /// The server declined a checkpoint because a transaction is open: its
    /// documented answer, retried after the next request, not a failure.
    Refused,
    Failed(String),
}

/// A request handed to `send`: a stream operation or an injected checkpoint.
#[derive(Debug, PartialEq)]
pub enum Request<'a> {
    Op(&'a Op),
    Checkpoint,
}

/// Everything one connection measured in one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    /// Round trips from due time less generator lag, ns, by [`Class`]
    /// (`Point`, `Range`, `Write`).
    pub latency: [Vec<u64>; 3],
    /// Checkpoint round trips from due time, ns.
    pub checkpoints: Vec<u64>,
    pub checkpoints_refused: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Requests sent more than [`LATE_NS`] after both their due time and the
    /// previous response — lag only the generator can be blamed for.
    pub late: u64,
    pub max_lag_ns: u64,
    /// How far past the phase's end its last due request was answered.
    pub backlog_ns: u64,
}

impl PhaseStats {
    fn record(&mut self, sent: Sent, class: Option<Class>, latency_ns: u64) {
        if sent == Sent::Refused {
            // Retried later, so neither an attempt nor a failure yet.
            self.checkpoints_refused += 1;
            return;
        }
        self.attempted += 1;
        match sent {
            Sent::Failed(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
            _ => match class {
                Some(class) => self.latency[class as usize].push(latency_ns),
                None => self.checkpoints.push(latency_ns),
            },
        }
    }

    pub fn merge(&mut self, other: &PhaseStats) {
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.extend_from_slice(theirs);
        }
        self.checkpoints.extend_from_slice(&other.checkpoints);
        self.checkpoints_refused += other.checkpoints_refused;
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
        self.late += other.late;
        self.max_lag_ns = self.max_lag_ns.max(other.max_lag_ns);
        self.backlog_ns = self.backlog_ns.max(other.backlog_ns);
    }
}

/// Drive one connection through `phases`; returns one [`PhaseStats`] per
/// measured phase, in order.
///
/// `checkpoint_every` (ns) injects a checkpoint request whenever that much
/// time has passed and the stream has no transaction open.
pub fn drive<C: Clock>(
    clock: &C,
    phases: &[Phase],
    stream: &mut OpStream,
    arrival_seed: u64,
    checkpoint_every: Option<u64>,
    send: &mut impl FnMut(Request<'_>, &BTreeSet<(u32, i64)>) -> Sent,
) -> Vec<PhaseStats> {
    let mut arrivals = Rng::new(arrival_seed);
    let mut out = Vec::new();
    let mut prev_done = 0u64;
    let mut checkpoint_due =
        checkpoint_every.map(|every| phases.first().map_or(0, |p| p.start) + every);
    for phase in phases {
        let mut stats = PhaseStats::default();
        let mut next_arrival = phase.start;
        loop {
            let due = match phase.rate {
                Some(rate) => {
                    next_arrival += arrivals.exp_gap_ns(rate);
                    next_arrival
                }
                None => clock.now().max(phase.start),
            };
            if due >= phase.end {
                break;
            }
            clock.sleep_until(due);
            if let (Some(at), Some(every)) = (checkpoint_due, checkpoint_every) {
                if clock.now() >= at && !stream.in_txn() {
                    let sent = send(Request::Checkpoint, stream.live());
                    prev_done = clock.now();
                    if sent != Sent::Refused {
                        checkpoint_due = Some(prev_done.max(at + every));
                    }
                    stats.record(sent, None, prev_done - at);
                }
            }
            let op = stream.next_op();
            let ready = due.max(prev_done);
            let lag = clock.now().saturating_sub(ready);
            stats.max_lag_ns = stats.max_lag_ns.max(lag);
            stats.late += u64::from(lag > LATE_NS);
            let sent = send(Request::Op(&op), stream.live());
            prev_done = clock.now();
            stats.record(sent, Some(op.class()), prev_done - due - lag);
        }
        stats.backlog_ns = prev_done.saturating_sub(phase.end);
        if phase.measured {
            out.push(stats);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Layout, Mix};
    use std::cell::Cell;

    const READS: Mix =
        Mix { point: 50, range: 50, insert: 0, delete: 0, txn: 0, range_rows: 10, churn_reads: 0 };

    /// A clock that only moves when told to: sleeping jumps to the target.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: u64 = 1_000_000;

    fn open_phase(end_ms: u64) -> Phase {
        Phase { start: 0, end: end_ms * MS, rate: Some(1_000.0), measured: true }
    }

    fn all(stats: &PhaseStats) -> Vec<u64> {
        stats.latency.iter().flatten().copied().collect()
    }

    #[test]
    fn open_loop_keeps_the_schedule_when_the_server_is_fast() {
        let clock = FakeClock(Cell::new(0));
        let mut stream = OpStream::new(1, Layout::new(1_000), 0, READS);
        let service = MS / 10;
        let stats = drive(&clock, &[open_phase(1_000)], &mut stream, 9, None, &mut |_, _| {
            clock.0.set(clock.0.get() + service);
            Sent::Ok
        });
        let lat = all(&stats[0]);
        // ~1000 arrivals in one second at 1000/s; a 0.1 ms service time at
        // 10 % utilisation leaves almost every request unqueued.
        assert!((900..1_100).contains(&lat.len()), "{} arrivals", lat.len());
        let unqueued = lat.iter().filter(|&&l| l == service).count();
        assert!(unqueued * 10 >= lat.len() * 8, "{unqueued} of {} unqueued", lat.len());
        assert_eq!(stats[0].late, 0);
        assert_eq!(stats[0].failed, 0);
    }

    #[test]
    fn a_stalled_server_inflates_latency_not_the_sent_load() {
        let run = |stall_ns: u64| {
            let clock = FakeClock(Cell::new(0));
            let mut stream = OpStream::new(1, Layout::new(1_000), 0, READS);
            let mut n = 0u32;
            let stats = drive(&clock, &[open_phase(1_000)], &mut stream, 9, None, &mut |_, _| {
                n += 1;
                // Request 100 hangs; everything else takes 0.1 ms.
                clock.0.set(clock.0.get() + if n == 100 { stall_ns } else { MS / 10 });
                Sent::Ok
            });
            stats[0].clone()
        };
        let (smooth, stalled) = (run(MS / 10), run(200 * MS));
        // Same schedule, same number of requests sent — the stall drops none.
        assert_eq!(smooth.attempted, stalled.attempted);
        // The requests that came due during the 200 ms stall (~200 of them)
        // each carry their share of it, because the timer started at due time.
        let waited = all(&stalled).iter().filter(|&&l| l > 10 * MS).count();
        assert!(waited > 150, "only {waited} requests saw the stall");
        let max = |s: &PhaseStats| all(s).into_iter().max().unwrap();
        assert!(max(&stalled) >= 200 * MS && max(&smooth) < 5 * MS);
        // Late sends caused by the server are not generator lag.
        assert_eq!(stalled.late, 0);
    }

    #[test]
    fn closed_loop_sends_less_when_the_server_is_slower() {
        let run = |service: u64| {
            let clock = FakeClock(Cell::new(0));
            let mut stream = OpStream::new(1, Layout::new(1_000), 0, READS);
            let phases = [
                Phase { start: 0, end: 100 * MS, rate: None, measured: false },
                Phase { start: 100 * MS, end: 1_100 * MS, rate: None, measured: true },
            ];
            let stats = drive(&clock, &phases, &mut stream, 9, None, &mut |_, _| {
                clock.0.set(clock.0.get() + service);
                Sent::Ok
            });
            assert_eq!(stats.len(), 1, "warm-up is not reported");
            stats[0].attempted
        };
        assert_eq!(run(MS), 1_000);
        assert_eq!(run(4 * MS), 250);
    }

    #[test]
    fn generator_lag_is_counted_and_backlog_is_reported() {
        // A clock whose sleeps overshoot by 2 ms models a descheduled generator.
        struct Oversleeping(Cell<u64>);
        impl Clock for Oversleeping {
            fn now(&self) -> u64 {
                self.0.get()
            }
            fn sleep_until(&self, t: u64) {
                if t > self.0.get() {
                    self.0.set(t + 2 * MS);
                }
            }
        }
        let clock = Oversleeping(Cell::new(0));
        let mut stream = OpStream::new(1, Layout::new(1_000), 0, READS);
        let phase = Phase { start: 0, end: 100 * MS, rate: Some(100.0), measured: true };
        let stats = drive(&clock, &[phase], &mut stream, 3, None, &mut |_, _| {
            clock.0.set(clock.0.get() + MS);
            Sent::Ok
        });
        assert!(stats[0].late > 0 && stats[0].max_lag_ns >= 2 * MS);
        // The generator's own 2 ms are not charged to the server: an unqueued
        // request still reads as its 1 ms service time.
        let mut lat = all(&stats[0]);
        lat.sort_unstable();
        assert_eq!(lat[lat.len() / 2], MS);

        // The last request, due inside the phase, is answered after its end.
        let clock = FakeClock(Cell::new(0));
        let mut stream = OpStream::new(1, Layout::new(1_000), 0, READS);
        let stats = drive(&clock, &[open_phase(100)], &mut stream, 9, None, &mut |_, _| {
            clock.0.set(clock.0.get() + 50 * MS);
            Sent::Ok
        });
        assert!(stats[0].backlog_ns > 100 * MS, "backlog {} ns", stats[0].backlog_ns);
    }

    #[test]
    fn refused_checkpoints_are_retried_after_the_next_request_and_failures_counted() {
        let clock = FakeClock(Cell::new(0));
        let mut stream = OpStream::new(1, Layout::new(1_000), 0, READS);
        let mut refusals_left = 3;
        let stats =
            drive(&clock, &[open_phase(1_000)], &mut stream, 9, Some(100 * MS), &mut |req, _| {
                clock.0.set(clock.0.get() + MS / 10);
                match req {
                    Request::Checkpoint if refusals_left > 0 => {
                        refusals_left -= 1;
                        Sent::Refused
                    }
                    Request::Checkpoint if clock.now() > 900 * MS => Sent::Failed("boom".into()),
                    _ => Sent::Ok,
                }
            });
        let s = &stats[0];
        assert_eq!(s.checkpoints_refused, 3);
        assert_eq!(s.checkpoints.len(), 8, "one per 100 ms until the failing one");
        assert_eq!((s.failed, s.first_failure.as_deref()), (1, Some("boom")));
        // The first checkpoint was due at 100 ms and accepted three requests later.
        assert!(s.checkpoints[0] > MS && s.checkpoints[0] < 20 * MS, "{}", s.checkpoints[0]);
    }
}

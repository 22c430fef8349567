//! The load generator: open-loop phases send request *i* when it falls
//! due, whatever state earlier requests are in, and time it from that
//! due time; closed-loop phases send each client's next request as soon
//! as its previous one completes.
//!
//! Each generator thread owns one client (one kept-alive connection);
//! threads pull request indices from a shared counter, so a stalled
//! connection delays only the requests it is holding up, and their
//! latency — measured from the due time — shows the stall.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Time source of the generator: wall-clock in the benchmark, virtual
/// in tests.
pub trait Clock: Sync {
    /// Time since the phase's epoch.
    fn now(&self) -> Duration;
    /// Block until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The monotonic wall clock, with its epoch at construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    /// Sleep to just short of `t`, then spin: a sleeping thread wakes
    /// up to ~0.1 ms late, which would count as latency from the due
    /// time on sub-millisecond requests.
    fn sleep_until(&self, t: Duration) {
        const SPIN: Duration = Duration::from_micros(300);
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// How requests are issued in a phase.
pub enum Plan<'a> {
    /// Request `i` is due at `dues[i]` after the epoch.
    Open(&'a [Duration]),
    /// Each client sends back to back until the deadline.
    Closed(Duration),
}

/// One request's timeline. In a closed loop `due == sent`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// 200 and the response passed its check.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Run one phase: one thread per client state in `clients`, each
/// calling `send(client, index)` and recording the outcome. Returns the
/// samples sorted by index and the phase's elapsed time.
pub fn drive<C: Send, K: Clock>(
    clock: &K,
    clients: &mut [C],
    plan: Plan<'_>,
    send: &(dyn Fn(&mut C, usize) -> bool + Sync),
) -> (Vec<Sample>, Duration) {
    let start = clock.now();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, samples, plan) = (&next, &samples, &plan);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let due = match plan {
                    Plan::Open(dues) => match dues.get(index) {
                        Some(&d) => start + d,
                        None => break,
                    },
                    Plan::Closed(until) => {
                        let now = clock.now();
                        if now >= start + *until {
                            break;
                        }
                        now
                    }
                };
                clock.sleep_until(due);
                let sent = clock.now();
                let ok = send(client, index);
                let done = clock.now();
                let s =
                    Sample { index, due: due - start, sent: sent - start, done: done - start, ok };
                samples.lock().expect("sample log poisoned by a panicking generator").push(s);
            });
        }
    });
    let elapsed = clock.now() - start;
    let mut samples = samples.into_inner().expect("sample log poisoned by a panicking generator");
    samples.sort_by_key(|s| s.index);
    (samples, elapsed)
}

/// Due times for `n` requests at `rate` per second. Requests sharing a
/// group (an entity-linking sweep) are due together, at the slot of the
/// group's first request, so they arrive back to back.
pub fn open_schedule(groups: &[usize], rate: f64) -> Vec<Duration> {
    let mut dues = Vec::with_capacity(groups.len());
    let mut slot = 0;
    for (i, g) in groups.iter().enumerate() {
        if i == 0 || groups[i - 1] != *g {
            slot = i;
        }
        dues.push(Duration::from_secs_f64(slot as f64 / rate));
    }
    dues
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A virtual clock: sleeping jumps forward, sending advances it by
    /// the simulated service time.
    struct FakeClock(AtomicU64);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            Duration::from_nanos(self.0.load(Ordering::SeqCst))
        }

        fn sleep_until(&self, t: Duration) {
            self.0.fetch_max(t.as_nanos() as u64, Ordering::SeqCst);
        }
    }

    fn ms(v: f64) -> Duration {
        Duration::from_secs_f64(v / 1e3)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_through_a_stall() {
        // 100 rps on one connection; the server stalls 200 ms on
        // request 0 and then answers each request in 1 ms.
        let clock = FakeClock(AtomicU64::new(0));
        let groups: Vec<usize> = (0..30).collect();
        let dues = open_schedule(&groups, 100.0);
        let send = |_: &mut (), i: usize| {
            clock.advance(if i == 0 { ms(200.0) } else { ms(1.0) });
            true
        };
        let (samples, elapsed) = drive(&clock, &mut [()], Plan::Open(&dues), &send);
        assert_eq!(samples.len(), 30);
        assert!((samples[0].latency_ms() - 200.0).abs() < 1e-6);
        // Request 1 was due at 10 ms, sent at 200 ms, done at 201 ms:
        // its latency includes the 190 ms it waited behind the stall.
        assert!((samples[1].lateness_ms() - 190.0).abs() < 1e-6);
        assert!((samples[1].latency_ms() - 191.0).abs() < 1e-6);
        // The backlog drains at 9 ms per 10 ms slot: request 20 (due
        // 200 ms) finishes at 220 ms, request 22 is still 1 ms late, and
        // request 23 is on time again.
        assert!((samples[20].latency_ms() - 20.0).abs() < 1e-6);
        assert!((samples[22].lateness_ms() - 1.0).abs() < 1e-6);
        assert!(samples[23].lateness_ms().abs() < 1e-6);
        assert!((samples[23].latency_ms() - 1.0).abs() < 1e-6);
        assert!((elapsed.as_secs_f64() * 1e3 - 291.0).abs() < 1e-6);
    }

    #[test]
    fn closed_loop_sends_back_to_back_until_the_deadline() {
        let clock = FakeClock(AtomicU64::new(0));
        let send = |_: &mut (), _: usize| {
            clock.advance(ms(10.0));
            true
        };
        let (samples, _) = drive(&clock, &mut [()], Plan::Closed(ms(100.0)), &send);
        assert_eq!(samples.len(), 10);
        assert!(samples
            .iter()
            .all(|s| s.lateness_ms() == 0.0 && (s.latency_ms() - 10.0).abs() < 1e-6));
    }

    #[test]
    fn sweep_members_share_their_group_slot() {
        let dues = open_schedule(&[0, 1, 1, 1, 2], 10.0);
        let got: Vec<f64> = dues.iter().map(|d| d.as_secs_f64()).collect();
        assert_eq!(got, vec![0.0, 0.1, 0.1, 0.1, 0.4]);
    }
}

//! The load generator: an open loop (requests sent on a schedule, timed
//! from when they were *due*) and a closed loop (each connection sends
//! its next request when the previous reply is in), both over a request
//! stream that is as long as the run — a stream that wraps turns the
//! second cycle into exact result replays, which measures a guess.
//!
//! Transport-agnostic: each worker is a closure from a request line to
//! the framed reply, or to an error text for a transport failure or an
//! `ERR` reply. At most [`CONNECTIONS`] workers are ever used.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats;

/// Generator threads = connections = this container's `nproc`.
pub const CONNECTIONS: usize = 2;

/// Slices a closed-loop phase is cut into for `throughput_rps`.
const SLICES: u64 = 10;

/// How many failing requests a run keeps verbatim.
const FAILURE_SAMPLES: usize = 5;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Completion time, from the start of the phase.
    pub done_ns: u64,
    /// Open loop: due → reply. Closed loop: send → reply.
    pub lat_ns: u64,
    /// Open loop: how long after its due time the request was sent.
    pub late_ns: u64,
    pub ok: bool,
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct LoadRun {
    pub recs: Vec<Rec>,
    /// Framed replies of the requests `keep` selected, for the oracle.
    pub kept: Vec<(usize, String)>,
    /// The first few failures as `"request -> error"`.
    pub failures: Vec<String>,
    /// Times the stream ran out and restarted. Must stay 0.
    pub wraps: u64,
    pub elapsed_ns: u64,
}

impl LoadRun {
    pub fn failed(&self) -> u64 {
        self.recs.iter().filter(|r| !r.ok).count() as u64
    }

    /// Ascending latencies of the successful requests.
    pub fn latencies(&self) -> Vec<u64> {
        stats::sorted(
            self.recs
                .iter()
                .filter(|r| r.ok)
                .map(|r| r.lat_ns)
                .collect(),
        )
    }

    /// `(start, latency)` of the successful requests, for
    /// [`sliced_percentile`]: start is the due time in an open loop,
    /// the send time in a closed one.
    pub fn timeline(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.recs
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.done_ns.saturating_sub(r.lat_ns), r.lat_ns))
    }

    /// Ascending send lateness (open loop).
    pub fn lateness(&self) -> Vec<u64> {
        stats::sorted(self.recs.iter().map(|r| r.late_ns).collect())
    }

    /// Requests completed OK per second of the whole phase.
    pub fn achieved_rps(&self) -> f64 {
        let ok = self.recs.iter().filter(|r| r.ok).count();
        ok as f64 / (self.elapsed_ns as f64 / 1e9).max(1e-9)
    }

    fn merge(&mut self, other: LoadRun) {
        self.recs.extend(other.recs);
        self.kept.extend(other.kept);
        self.failures.extend(other.failures);
        self.failures.truncate(FAILURE_SAMPLES);
        self.wraps += other.wraps;
    }
}

/// Completed-OK rate as the median over equal time slices of
/// `[0, duration_ns)`: one slow slice (a neighbour's burst on this
/// shared box) moves the median far less than it moves the mean.
pub fn sliced_rps(done_ok_ns: impl Iterator<Item = u64>, duration_ns: u64) -> f64 {
    let slice = (duration_ns / SLICES).max(1);
    let mut counts = [0u64; SLICES as usize];
    for t in done_ok_ns {
        if let Some(c) = counts.get_mut((t / slice) as usize) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / (slice as f64 / 1e9))
        .collect();
    stats::median(&rates)
}

/// A latency percentile as the median over the same time slices of
/// each slice's nearest-rank percentile; `samples` are `(start, latency)`
/// in ns. On this shared box a run meets stalls of 0.1–1 s; in an open
/// loop at 400 req/s one stall queues dozens of requests and moved the
/// pooled p90 from 7 ms to 14 ms between runs, while it touches one or
/// two slices and leaves the median slice alone. Slices with fewer than
/// 20 samples do not vote; a phase too short to fill three slices
/// (the smoke size) reports the pooled percentile.
pub fn sliced_percentile(
    samples: impl Iterator<Item = (u64, u64)>,
    duration_ns: u64,
    q: f64,
) -> f64 {
    let slice = (duration_ns / SLICES).max(1);
    let mut slices: Vec<Vec<u64>> = vec![Vec::new(); SLICES as usize];
    for (start_ns, lat_ns) in samples {
        // A request that started late (closed loop, last moments) counts
        // with the last slice.
        let at = ((start_ns / slice) as usize).min(slices.len() - 1);
        slices[at].push(lat_ns);
    }
    let of = |s: Vec<u64>| stats::percentile(&stats::sorted(s), q) as f64;
    if slices.iter().filter(|s| s.len() >= 20).count() < 3 {
        return of(slices.concat());
    }
    let per_slice: Vec<f64> = slices
        .into_iter()
        .filter(|s| s.len() >= 20)
        .map(of)
        .collect();
    stats::median(&per_slice)
}

struct Shared<'a> {
    statements: &'a [String],
    keep: &'a [bool],
    next: AtomicUsize,
    start: Instant,
}

impl Shared<'_> {
    /// Send request `idx` through `exec`, recording it into `run`.
    fn send<F>(&self, exec: &mut F, idx: usize, due: Option<Duration>, run: &mut LoadRun)
    where
        F: FnMut(&str) -> Result<String, String>,
    {
        let line = &self.statements[idx];
        let sent = self.start.elapsed();
        let result = exec(line);
        let done = self.start.elapsed();
        // Open loop: the clock starts when the request was due, so the
        // wait a stall imposes on the requests behind it counts.
        let from = due.unwrap_or(sent);
        run.recs.push(Rec {
            done_ns: done.as_nanos() as u64,
            lat_ns: done.saturating_sub(from).as_nanos() as u64,
            late_ns: sent.saturating_sub(from).as_nanos() as u64,
            ok: result.is_ok(),
        });
        match result {
            Ok(frame) if self.keep.get(idx).copied().unwrap_or(false) => {
                run.kept.push((idx, frame));
            }
            Ok(_) => {}
            Err(e) if run.failures.len() < FAILURE_SAMPLES => {
                run.failures.push(format!("{line} -> {e}"));
            }
            Err(_) => {}
        }
    }
}

fn drive<F>(
    shared: &Shared<'_>,
    workers: Vec<F>,
    body: impl Fn(&Shared<'_>, &mut F, &mut LoadRun) + Sync,
) -> LoadRun
where
    F: FnMut(&str) -> Result<String, String> + Send,
{
    assert!(
        (1..=CONNECTIONS).contains(&workers.len()),
        "the generator uses 1..={CONNECTIONS} connections"
    );
    let mut total = LoadRun::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut exec| {
                let body = &body;
                scope.spawn(move || {
                    let mut run = LoadRun::default();
                    body(shared, &mut exec, &mut run);
                    run
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load worker panicked"));
        }
    });
    total.elapsed_ns = shared.start.elapsed().as_nanos() as u64;
    total
}

/// Open loop: request `k` is `statements[first + k]`, due at
/// `schedule[k]` ns after the start; workers take the next due request,
/// sleep until then, and never wait for each other's replies.
pub fn open_loop<F>(
    statements: &[String],
    first: usize,
    schedule: &[u64],
    keep: &[bool],
    workers: Vec<F>,
) -> LoadRun
where
    F: FnMut(&str) -> Result<String, String> + Send,
{
    assert!(
        first + schedule.len() <= statements.len(),
        "the stream is shorter than the schedule"
    );
    let shared = Shared {
        statements,
        keep,
        next: AtomicUsize::new(0),
        start: Instant::now(),
    };
    drive(&shared, workers, |sh, exec, run| loop {
        // Relaxed: a ticket counter; nothing is published through it.
        let k = sh.next.fetch_add(1, Ordering::Relaxed);
        let Some(&due_ns) = schedule.get(k) else {
            return;
        };
        let due = Duration::from_nanos(due_ns);
        // Wait by yielding, not sleeping. The generator shares this
        // machine's two virtual CPUs with the server: a sleeping worker
        // lets its CPU go idle, and on this virtual machine the timer
        // wake-up and the cold CPU then cost milliseconds (p90 12–17 ms
        // against 4.4 ms, measured) — a property of the box, which would
        // drown the request's own service and queueing time.
        while sh.start.elapsed() < due {
            std::thread::yield_now();
        }
        sh.send(exec, first + k, Some(due), run);
    })
}

/// Closed loop for `duration`: each worker sends the next unsent
/// statement from `statements[first..]` as soon as its previous reply
/// is in. A stream that runs out restarts at `first` and counts a wrap.
pub fn closed_loop<F>(
    statements: &[String],
    first: usize,
    duration: Duration,
    keep: &[bool],
    workers: Vec<F>,
) -> LoadRun
where
    F: FnMut(&str) -> Result<String, String> + Send,
{
    let span = statements.len().checked_sub(first).filter(|&s| s > 0);
    let span = span.expect("the stream has no statements left for this phase");
    let shared = Shared {
        statements,
        keep,
        next: AtomicUsize::new(0),
        start: Instant::now(),
    };
    drive(&shared, workers, |sh, exec, run| {
        while sh.start.elapsed() < duration {
            // Relaxed: a ticket counter; nothing is published through it.
            let k = sh.next.fetch_add(1, Ordering::Relaxed);
            if k >= span && k % span == 0 {
                run.wraps += 1;
            }
            sh.send(exec, first + k % span, None, run);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("s{i}")).collect()
    }

    fn echo() -> impl FnMut(&str) -> Result<String, String> + Send {
        |line: &str| {
            if line.ends_with('7') {
                Err("refused".to_string())
            } else {
                Ok(format!("OK {line}\n.\n"))
            }
        }
    }

    #[test]
    fn open_loop_times_from_due_and_reports_lateness() {
        let statements = stream(40);
        // Everything due at t=0: a worker that sleeps 2 ms per request
        // runs late, and the lateness is charged to latency.
        let schedule = vec![0u64; 30];
        let keep = vec![true; 40];
        let slow = || {
            |line: &str| {
                std::thread::sleep(Duration::from_millis(2));
                Ok::<_, String>(format!("OK {line}\n.\n"))
            }
        };
        let run = open_loop(&statements, 10, &schedule, &keep, vec![slow(), slow()]);
        assert_eq!(run.recs.len(), 30);
        assert_eq!(run.wraps, 0);
        assert_eq!(run.failed(), 0);
        let mut kept = run.kept.clone();
        kept.sort();
        let expected: Vec<_> = (10..40).map(|i| (i, format!("OK s{i}\n.\n"))).collect();
        assert_eq!(kept, expected, "each due request is sent exactly once");
        let late = run.lateness();
        assert!(stats::percentile(&late, 0.99) >= 20_000_000, "{late:?}");
        assert!(run.recs.iter().all(|r| r.lat_ns >= r.late_ns + 2_000_000));
    }

    #[test]
    fn closed_loop_counts_failures_and_wraps() {
        let statements = stream(10);
        let keep = vec![true; 10];
        let run = closed_loop(
            &statements,
            2,
            Duration::from_millis(30),
            &keep,
            vec![echo(), echo()],
        );
        assert!(run.recs.len() > 16, "a 30 ms loop outruns 8 statements");
        assert!(run.wraps >= 1);
        assert!(run.kept.iter().all(|(idx, _)| (2..10).contains(idx)));
        // `s7` is refused: it is counted as failed and its reply not kept.
        assert!(run.failed() >= 1);
        assert_eq!(run.failed() as usize + run.kept.len(), run.recs.len());
        assert!(run.kept.iter().all(|(idx, _)| *idx != 7));
        assert_eq!(run.failures[0], "s7 -> refused");
        assert!(run.failures.len() <= FAILURE_SAMPLES);
        assert!(run.achieved_rps() > 0.0);
    }

    #[test]
    fn sliced_percentile_ignores_a_stalled_slice() {
        // 10 slices of 1 s, 100 requests each at 1 ms; the third slice
        // stalls (every request 500 ms), one slice is nearly empty.
        let samples = (0..10u64).flat_map(|slice| {
            let n = if slice == 7 { 5 } else { 100 };
            (0..n).map(move |i| {
                let lat = if slice == 2 {
                    500_000_000
                } else {
                    1_000_000 + i
                };
                (slice * 1_000_000_000 + i * 1_000_000, lat)
            })
        });
        let p90 = sliced_percentile(samples, 10_000_000_000, 0.90);
        assert_eq!(p90, 1_000_089.0);
        // Too few samples to slice: the pooled percentile.
        let few = (0..30u64).map(|i| (i * 100_000_000, i));
        assert_eq!(sliced_percentile(few, 10_000_000_000, 0.50), 14.0);
    }

    #[test]
    fn sliced_rate_is_the_median_slice() {
        // 10 slices of 1 s: eight with 10 completions, an empty one and
        // a burst of 100.
        let done = (0..8u64)
            .flat_map(|slice| (0..10).map(move |i| slice * 1_000_000_000 + i))
            .chain((0..100).map(|i| 9_000_000_000 + i))
            .chain([19_000_000_000]); // past the phase: in no slice
        assert_eq!(sliced_rps(done, 10_000_000_000), 10.0);
    }
}

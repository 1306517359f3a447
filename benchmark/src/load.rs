//! Load over the daemon's framed TCP protocol, open and closed loop.
//!
//! Open loop ([`run_step`]): requests are due on a fixed schedule
//! (`i / rate` after the step starts) whatever the daemon does, the way
//! independent crawler clients arrive. Every request is timed from when it
//! was *due*, so a stall also charges the requests queued behind it, and
//! the generator reports how late it sent. Closed loop ([`closed_loop`]):
//! each client sends its next request when the previous answer arrives.
//! Either way each generator thread owns one connection and both sends and
//! reads on it, so generator threads plus connections never exceed the
//! core count.

use crate::env::{ms, quantile};
use jsdetect_serve::{write_frame, AnalyzeRequest, AnalyzeResponse};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long to wait for outstanding answers after the last send.
const ANSWER_GRACE: Duration = Duration::from_secs(30);
/// Longest sleep while answers are outstanding: the resolution of receive
/// times.
const POLL: Duration = Duration::from_micros(100);

/// One request's timeline, relative to the step start.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub due: Duration,
    pub sent: Duration,
    pub recv: Option<Duration>,
    /// Requests sent but not yet answered, this one included, at send time.
    pub backlog: i64,
    pub resp: Option<AnalyzeResponse>,
}

impl Sample {
    /// Round trip from the due time, in ms (`None` without an answer).
    pub fn rtt_ms(&self) -> Option<f64> {
        self.recv.map(|r| ms(r.saturating_sub(self.due)))
    }

    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_sub(self.due))
    }
}

/// The outcome of one fixed-rate step.
pub struct Step {
    /// In request order.
    pub samples: Vec<Sample>,
}

impl Step {
    pub fn rtts(&self) -> Vec<f64> {
        self.samples.iter().filter_map(Sample::rtt_ms).collect()
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.rtts(), q)
    }

    pub fn backlog_max(&self) -> i64 {
        self.samples.iter().map(|s| s.backlog).max().unwrap_or(0)
    }

    /// Whether send lag or backlog grew over the step: the mean over the
    /// last quarter of sends exceeds the first quarter's by more than the
    /// slack (1 ms of lag; double the backlog plus two requests).
    pub fn grew(&self) -> bool {
        let q = self.samples.len() / 4;
        if q == 0 {
            return false;
        }
        let mean = |xs: &[Sample], f: &dyn Fn(&Sample) -> f64| {
            xs.iter().map(f).sum::<f64>() / xs.len() as f64
        };
        let (head, tail) = (&self.samples[..q], &self.samples[self.samples.len() - q..]);
        let lag = |s: &Sample| s.lag_ms();
        let backlog = |s: &Sample| s.backlog as f64;
        mean(tail, &lag) > mean(head, &lag) + 1.0
            || mean(tail, &backlog) > 2.0 * mean(head, &backlog) + 2.0
    }

    /// Whether the step meets its rate: every request answered `ok` by the
    /// full detector, p99 within `limit_ms`, no growing lag or backlog.
    /// Verdict correctness is checked separately by the gate.
    pub fn meets_limit(&self, limit_ms: f64) -> bool {
        let all_ok = self
            .samples
            .iter()
            .all(|s| s.resp.as_ref().is_some_and(|r| r.status == "ok" && !r.degraded_mode));
        all_ok && self.p(0.99) <= limit_ms && !self.grew()
    }
}

/// Sends `frames` to `addr` at `rate` requests/s over `threads` connections
/// (request `i` goes out on connection `i % threads`) and collects every
/// answer.
pub fn run_step(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    rate: f64,
    threads: usize,
) -> std::io::Result<Step> {
    let threads = threads.clamp(1, frames.len().max(1));
    let streams: Vec<TcpStream> = (0..threads)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;
    let outstanding = AtomicI64::new(0);
    let barrier = Barrier::new(threads);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples = vec![Sample::default(); frames.len()];
    let parts: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(k, stream)| {
                let mine: Vec<usize> = (k..frames.len()).step_by(threads).collect();
                let (outstanding, barrier) = (&outstanding, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    drive(stream, frames, &mine, rate, start, outstanding)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    for (i, s) in parts.into_iter().flatten() {
        samples[i] = s;
    }
    Ok(Step { samples })
}

/// One connection's send/receive loop on a non-blocking socket. It sleeps
/// until the next due time, or for at most [`POLL`] while answers are
/// outstanding, so sends leave on time (thread sleeps use high-resolution
/// timers; socket read timeouts would round up to the scheduler tick).
fn drive(
    mut stream: TcpStream,
    frames: &[Vec<u8>],
    mine: &[usize],
    rate: f64,
    start: Instant,
    outstanding: &AtomicI64,
) -> Vec<(usize, Sample)> {
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut out: Vec<(usize, Sample)> =
        mine.iter().map(|&i| (i, Sample { due: due(i), ..Sample::default() })).collect();
    if stream.set_nonblocking(true).is_err() {
        return out;
    }
    let (mut next_send, mut next_recv) = (0usize, 0usize);
    let (mut pending, mut written) = (Vec::<u8>::new(), 0usize);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut give_up: Option<Instant> = None;
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    'run: while next_recv < out.len() {
        let now = since(start);
        while next_send < out.len() && out[next_send].1.due <= now {
            pending.extend_from_slice(&frames[out[next_send].0]);
            let s = &mut out[next_send].1;
            s.sent = since(start);
            s.backlog = outstanding.fetch_add(1, Ordering::Relaxed) + 1;
            next_send += 1;
        }
        while written < pending.len() {
            match stream.write(&pending[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break 'run,
            }
        }
        if written == pending.len() {
            pending.clear();
            written = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break 'run,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break 'run,
            }
        }
        let at = since(start);
        let mut used = 0;
        while let Some(len) = frame_len(&buf[used..]) {
            let body = &buf[used + 4..used + 4 + len];
            let s = &mut out[next_recv].1;
            s.recv = Some(at);
            s.resp = std::str::from_utf8(body).ok().and_then(|t| serde_json::from_str(t).ok());
            outstanding.fetch_sub(1, Ordering::Relaxed);
            next_recv += 1;
            used += 4 + len;
        }
        buf.drain(..used);
        let until_due = match out.get(next_send) {
            Some((_, s)) => s.due.saturating_sub(since(start)),
            None => {
                let deadline = *give_up.get_or_insert_with(|| Instant::now() + ANSWER_GRACE);
                if Instant::now() >= deadline {
                    break;
                }
                POLL
            }
        };
        let in_flight = next_send > next_recv || !pending.is_empty();
        std::thread::sleep(if in_flight { until_due.min(POLL) } else { until_due });
    }
    out
}

/// Length of the first complete frame in `buf`, if there is one.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let len = u32::from_be_bytes(buf.get(..4)?.try_into().ok()?) as usize;
    (buf.len() >= 4 + len).then_some(len)
}

/// Time since `start`, zero while `start` is still in the future.
fn since(start: Instant) -> Duration {
    Instant::now().saturating_duration_since(start)
}

/// Encodes one request frame (length prefix included) per script.
pub fn frames(srcs: &[&str]) -> Vec<Vec<u8>> {
    srcs.iter()
        .map(|s| {
            let json = serde_json::to_string(&AnalyzeRequest::new(*s)).expect("request serializes");
            let mut frame = Vec::with_capacity(json.len() + 4);
            write_frame(&mut frame, json.as_bytes()).expect("writing to memory");
            frame
        })
        .collect()
}

/// Closed loop: `threads` clients each send their next request as soon as
/// the previous answer arrives (request `i` on connection `i % threads`).
/// Returns every answer in request order (`None` where none came) and the
/// wall time in seconds.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    threads: usize,
) -> std::io::Result<(Vec<Option<AnalyzeResponse>>, f64)> {
    let threads = threads.clamp(1, frames.len().max(1));
    let streams: Vec<TcpStream> = (0..threads)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;
    let t0 = Instant::now();
    let parts: Vec<Vec<(usize, Option<AnalyzeResponse>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(k, mut stream)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in (k..frames.len()).step_by(threads) {
                        let frame = stream
                            .write_all(&frames[i])
                            .and_then(|_| jsdetect_serve::read_frame(&mut stream, usize::MAX));
                        let resp = match frame {
                            Ok(Some(body)) => std::str::from_utf8(&body)
                                .ok()
                                .and_then(|t| serde_json::from_str(t).ok()),
                            _ => None,
                        };
                        let lost = resp.is_none();
                        out.push((i, resp));
                        if lost {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut answers = vec![None; frames.len()];
    for (i, r) in parts.into_iter().flatten() {
        answers[i] = r;
    }
    Ok((answers, wall))
}

//! Fixed-rate load generation that does not measure itself.
//!
//! Arrival `i` is due at `t0 + i * interval`. In the open loop ([`run`])
//! it is sent then, whatever the server's state: a slow server builds a
//! queue in the socket, not in the generator. With one arrival in flight
//! ([`paced`]) an arrival due before the previous one is answered waits
//! for that answer (a client that waits for its reply). Either way latency
//! is timed from the due time, so a stalled server is charged for every
//! arrival scheduled behind the stall, and how late the generator itself
//! ran is reported separately. Each arrival is one `write_all` of
//! pre-rendered bytes on a `TCP_NODELAY` socket: no client-side Nagle
//! delay, and no formatting or parsing inside the timed path (responses
//! are kept as raw lines and checked after the run).
//!
//! In the open loop, sending and receiving share one thread on a
//! nonblocking socket. A separate receiver thread is woken across CPUs on
//! every response, and on small virtual machines that wake-up can wait
//! for the sender's next timer, adding a whole send interval to every
//! latency; socket read timeouts round up to the kernel tick (4 ms here).
//! So the thread sleeps with `nanosleep` until the next due time, or for
//! at most [`POLL`] while answers are owed, and reads whatever has
//! arrived. With one arrival in flight there is nothing to send while an
//! answer is owed, so [`paced`] sleeps in a blocking read instead: it is
//! woken only by the server's writes, and its polling does not preempt
//! the server's compute on a machine with few CPUs.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One scheduled send and the number of response lines it produces.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub bytes: Vec<u8>,
    pub responses: usize,
}

/// What one run observed. Times are nanoseconds since `t0`.
#[derive(Debug)]
pub struct Outcome {
    /// When arrival 0 was due.
    pub t0: Instant,
    /// Due time of each arrival that was sent.
    pub due_ns: Vec<u64>,
    /// How late each send started against its due time.
    pub late_ns: Vec<u64>,
    /// Receive time of each sent arrival's last response line.
    pub done_ns: Vec<u64>,
    /// Every response line with its receive time, in arrival order.
    pub lines: Vec<(u64, String)>,
}

impl Outcome {
    /// Per-arrival latency from its due time, in milliseconds.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.done_ns)
            .map(|(d, t)| t.saturating_sub(*d) as f64 / 1e6)
            .collect()
    }

    pub fn late_ms(&self) -> Vec<f64> {
        self.late_ns.iter().map(|l| *l as f64 / 1e6).collect()
    }

    /// Arrivals completed per second between the first due time and the
    /// last response.
    pub fn throughput(&self) -> f64 {
        match (self.due_ns.first(), self.done_ns.last()) {
            (Some(first), Some(last)) if last > first => {
                self.done_ns.len() as f64 / ((last - first) as f64 / 1e9)
            }
            _ => 0.0,
        }
    }
}

/// Connects with `TCP_NODELAY`.
pub fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// The longest sleep while answers are owed: the resolution at which a
/// response's arrival is seen.
pub const POLL: Duration = Duration::from_micros(50);

/// Sends `arrivals` at one per `interval`, open loop, and collects every
/// response. Once `stop` is set no further arrival is sent, and the run
/// ends when the sent ones are answered.
/// `on_line` sees each response as it arrives. Fails when the server
/// closes the connection or stays silent for `silence` while answers are
/// owed.
pub fn run(
    mut stream: TcpStream,
    arrivals: &[Arrival],
    interval: Duration,
    silence: Duration,
    stop: &AtomicBool,
    on_line: &mut dyn FnMut(u64, &str),
) -> std::io::Result<Outcome> {
    stream.set_nonblocking(true)?;
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let mut out = Outcome {
        t0,
        due_ns: Vec::with_capacity(arrivals.len()),
        late_ns: Vec::with_capacity(arrivals.len()),
        done_ns: Vec::with_capacity(arrivals.len()),
        lines: Vec::with_capacity(arrivals.iter().map(|a| a.responses).sum()),
    };
    // Response lines owed by each sent arrival, in order.
    let mut owed: Vec<usize> = Vec::with_capacity(arrivals.len());
    // Bytes of sent arrivals the socket has not taken yet.
    let (mut outbox, mut outbox_at) = (Vec::new(), 0usize);
    let mut inbox = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_progress = Instant::now();
    loop {
        let sent = out.due_ns.len();
        let next_due = interval * sent as u32;
        // ordering: flag — a stop request publishes no other data.
        let sending = sent < arrivals.len() && !stop.load(Ordering::Relaxed);
        if sending && t0.elapsed() >= next_due {
            out.due_ns.push(next_due.as_nanos() as u64);
            out.late_ns
                .push(t0.elapsed().saturating_sub(next_due).as_nanos() as u64);
            outbox.extend_from_slice(&arrivals[sent].bytes);
            owed.push(arrivals[sent].responses);
        }
        let mut progressed = false;
        while outbox_at < outbox.len() {
            match stream.write(&outbox[outbox_at..]) {
                Ok(n) => outbox_at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if outbox_at == outbox.len() {
            outbox.clear();
            outbox_at = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection mid-run",
                    ))
                }
                Ok(n) => {
                    let at = ns();
                    progressed = true;
                    inbox.extend_from_slice(&chunk[..n]);
                    let mut start = 0;
                    while let Some(end) = inbox[start..].iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&inbox[start..start + end]).into_owned();
                        start += end + 1;
                        on_line(at, &line);
                        out.lines.push((at, line));
                        let answered = out.done_ns.len();
                        if answered < owed.len() {
                            owed[answered] -= 1;
                            if owed[answered] == 0 {
                                out.done_ns.push(at);
                            }
                        }
                    }
                    inbox.drain(..start);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let waiting = out.done_ns.len() < owed.len();
        if !sending && !waiting {
            return Ok(out);
        }
        if progressed {
            last_progress = Instant::now();
            continue;
        }
        if waiting && last_progress.elapsed() > silence {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!("no response for {silence:?} with answers owed"),
            ));
        }
        let mut nap = if sending {
            next_due.saturating_sub(t0.elapsed())
        } else {
            POLL
        };
        if waiting || outbox_at < outbox.len() {
            nap = nap.min(POLL);
        }
        std::thread::sleep(nap);
    }
}

/// Sends `arrivals` at one per `interval` from `t0`, one in flight: each
/// is sent at its due time, or as soon as the previous one is answered if
/// that is later, and the thread then sleeps in a blocking read until its
/// last response line. Fails when the server closes the connection or
/// stays silent for `silence`.
pub fn paced(
    mut stream: &TcpStream,
    arrivals: &[Arrival],
    (t0, interval): (Instant, Duration),
    silence: Duration,
) -> std::io::Result<Outcome> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(silence))?;
    let ns = || Instant::now().saturating_duration_since(t0).as_nanos() as u64;
    let mut out = Outcome {
        t0,
        due_ns: Vec::with_capacity(arrivals.len()),
        late_ns: Vec::with_capacity(arrivals.len()),
        done_ns: Vec::with_capacity(arrivals.len()),
        lines: Vec::with_capacity(arrivals.iter().map(|a| a.responses).sum()),
    };
    let mut inbox = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    for (i, arrival) in arrivals.iter().enumerate() {
        let due = t0 + interval * i as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        out.due_ns.push((due - t0).as_nanos() as u64);
        out.late_ns
            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        stream.write_all(&arrival.bytes)?;
        let mut owed = arrival.responses;
        while owed > 0 {
            let n = match stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection mid-run",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        format!("no response for {silence:?} with answers owed"),
                    ))
                }
                Err(e) => return Err(e),
            };
            let at = ns();
            inbox.extend_from_slice(&chunk[..n]);
            let mut start = 0;
            while let Some(end) = inbox[start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&inbox[start..start + end]).into_owned();
                start += end + 1;
                out.lines.push((at, line));
                owed = owed.saturating_sub(1);
            }
            inbox.drain(..start);
        }
        out.done_ns.push(ns());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A line server that stalls `stall` before answering its first
    /// request and echoes every later one at once.
    fn stalling_server(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let h = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(conn.try_clone().expect("clone"));
            let mut writer = conn;
            let mut line = String::new();
            let mut first = true;
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                writer.write_all(line.as_bytes()).expect("echo");
                line.clear();
            }
        });
        (addr, h)
    }

    fn arrivals(n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                bytes: format!("{i}\n").into_bytes(),
                responses: 1,
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_every_arrival_queued_behind_it() {
        let (stall, interval) = (Duration::from_millis(120), Duration::from_millis(10));
        for open in [true, false] {
            let (addr, h) = stalling_server(stall);
            let conn = connect(&addr).expect("connect");
            let out = if open {
                let never = AtomicBool::new(false);
                let mut seen = 0;
                let out = run(
                    conn,
                    &arrivals(20),
                    interval,
                    Duration::from_secs(5),
                    &never,
                    &mut |_, _| seen += 1,
                )
                .expect("run");
                assert_eq!(seen, 20);
                out
            } else {
                let schedule = (Instant::now(), interval);
                let out = paced(&conn, &arrivals(20), schedule, Duration::from_secs(5));
                drop(conn);
                out.expect("paced")
            };
            h.join().expect("server");
            assert_eq!(out.done_ns.len(), 20);
            // Arrival i was due i * interval after the first, so it cannot
            // finish before `stall - i * interval` after its own due time.
            let lat = out.latency_ms();
            for (i, l) in lat.iter().enumerate().take(12) {
                let owed = 120.0 - 10.0 * i as f64;
                assert!(
                    *l >= owed - 1.0,
                    "arrival {i}: {l:.2} ms < owed {owed:.2} ms"
                );
            }
            let late = out.late_ms();
            if open {
                // The open loop kept to its schedule while the server
                // stalled: the stall shows as latency, not as lateness.
                assert!(late.iter().all(|l| *l < 8.0), "sender ran late: {late:?}");
            } else {
                // A waiting client could send arrival 1 only after the
                // stalled answer, and says so.
                assert!(late[1] >= 100.0, "lateness not reported: {late:?}");
            }
            for (i, (_, l)) in out.lines.iter().enumerate() {
                assert_eq!(l, &i.to_string(), "responses arrive in order");
            }
        }
    }

    #[test]
    fn stop_ends_sending_and_drains_what_was_sent() {
        let (addr, h) = stalling_server(Duration::ZERO);
        let stop = AtomicBool::new(false);
        let out = run(
            connect(&addr).expect("connect"),
            &arrivals(1000),
            Duration::from_millis(1),
            Duration::from_secs(5),
            &stop,
            &mut |_, l| {
                if l == "9" {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        )
        .expect("run");
        h.join().expect("server");
        assert!(out.due_ns.len() >= 10 && out.due_ns.len() < 1000);
        assert_eq!(
            out.done_ns.len(),
            out.due_ns.len(),
            "every sent arrival answered"
        );
    }
}

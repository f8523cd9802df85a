//! The load generator's connections: requests paced to a schedule,
//! one in flight per connection.
//!
//! Paced latency runs from a request's *scheduled* send time, so a stall
//! in the server is charged to every request due behind it, and the
//! generator's own lateness is reported separately. Requests are not
//! pipelined: the server answers one connection's requests in order
//! anyway, and pipelining would let its socket batch responses, which
//! makes latency depend on the peer's acknowledgement timers.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One request/response exchange.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the request was due, ns after the phase start.
    pub sched_ns: u64,
    /// When it was written, ns after the phase start.
    pub sent_ns: u64,
    /// When the generator was free to write it: its due time, or the
    /// previous response if that came later.
    pub ready_ns: u64,
    /// When its response line arrived, ns after the phase start.
    pub recv_ns: u64,
    /// The response line, without its newline.
    pub response: String,
}

impl Sample {
    /// Latency from the scheduled send time, µs.
    pub fn latency_us(&self) -> f64 {
        self.recv_ns.saturating_sub(self.sched_ns) as f64 * 1e-3
    }

    /// How late the generator itself sent the request, ms.
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.ready_ns) as f64 * 1e-6
    }
}

/// One NDJSON connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
}

/// Longest the generator waits for a response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("phase shorter than 584 years")
}

impl Conn {
    /// Connects with Nagle's algorithm off.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            partial: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer.write_all(buf.as_bytes())
    }

    /// Sends `line` and waits for its response.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        read_response(&mut self.reader, &mut self.partial)
    }

    /// Paced open loop: request `i` is due `offsets_ns[i]` after
    /// `start`, sent at its due time or, while the previous request is
    /// still unanswered, right after that answer. At most one request is
    /// in flight, so a slow response delays every request due behind it,
    /// and latency, timed from the due time, carries that wait.
    pub fn paced(
        &mut self,
        lines: &[String],
        offsets_ns: &[u64],
        start: Instant,
    ) -> io::Result<Vec<Sample>> {
        assert_eq!(lines.len(), offsets_ns.len(), "one offset per request");
        let mut samples = Vec::with_capacity(lines.len());
        let mut free_ns = 0;
        for (line, &sched_ns) in lines.iter().zip(offsets_ns) {
            wait_until(start, sched_ns);
            let sent_ns = ns_since(start);
            let response = self.call(line)?;
            let recv_ns = ns_since(start);
            samples.push(Sample {
                sched_ns,
                sent_ns,
                ready_ns: sched_ns.max(free_ns),
                recv_ns,
                response,
            });
            free_ns = recv_ns;
        }
        Ok(samples)
    }
}

/// Sleeps until `due_ns` after `start`.
fn wait_until(start: Instant, due_ns: u64) {
    let now = ns_since(start);
    if due_ns > now {
        std::thread::sleep(Duration::from_nanos(due_ns - now));
    }
}

/// Reads one response line (blocking up to the read timeout).
fn read_response(reader: &mut BufReader<TcpStream>, partial: &mut Vec<u8>) -> io::Result<String> {
    partial.clear();
    if reader.read_until(b'\n', partial)? == 0 || partial.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(String::from_utf8_lossy(partial).trim_end().to_string())
}

/// Evenly spaced offsets: `count` requests at `rate` per second,
/// starting `phase` of one interval in.
pub fn schedule(count: usize, rate: f64, phase: f64) -> Vec<u64> {
    let interval = 1e9 / rate;
    (0..count)
        .map(|i| ((i as f64 + phase) * interval) as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A responder that answers each line in order and stalls `stall`
    /// before answering line `stall_at`.
    fn stalling_responder(
        stall_at: usize,
        stall: Duration,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("one client");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            let mut i = 0;
            while reader.read_line(&mut line).expect("read") > 0 {
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                writer
                    .write_all(format!("{{\"ok\":{i}}}\n").as_bytes())
                    .expect("write");
                line.clear();
                i += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        let stall = Duration::from_millis(80);
        let (addr, responder) = stalling_responder(2, stall);
        let mut conn = Conn::connect(&addr).expect("connect");
        let lines: Vec<String> = (0..8).map(|i| format!("{{\"op\":{i}}}")).collect();
        // One request per millisecond: requests 3..8 are due while the
        // responder sits on request 2.
        let offsets = schedule(lines.len(), 1000.0, 0.0);
        let samples = conn
            .paced(&lines, &offsets, Instant::now())
            .expect("exchange completes");
        drop(conn);
        responder.join().expect("responder exits");

        for (i, s) in samples.iter().enumerate() {
            assert_eq!(
                s.response,
                format!("{{\"ok\":{i}}}"),
                "responses stay in order"
            );
            assert!(s.recv_ns >= s.sent_ns && s.sent_ns >= s.sched_ns);
        }
        let stall_ns = stall.as_nanos() as u64;
        let stall_end = samples[2].recv_ns;
        assert!(stall_end >= samples[2].sent_ns + stall_ns);
        for s in &samples[2..] {
            // Answered only after the stall ended, and timed from its
            // schedule: the wait it spent queued is in its latency.
            assert!(s.recv_ns >= stall_end);
            assert!(
                s.latency_us() * 1e3 >= (stall_end - s.sched_ns) as f64,
                "latency must include the queueing behind the stall"
            );
            assert!(s.latency_us() >= 70_000.0 - s.sched_ns as f64 * 1e-3);
            // Waiting for the stalled answer is not generator lag.
            assert!(s.lag_ms() < 40.0);
        }
    }

    #[test]
    fn a_prompt_responder_is_answered_on_schedule() {
        let (addr, responder) = stalling_responder(usize::MAX, Duration::ZERO);
        let mut conn = Conn::connect(&addr).expect("connect");
        let lines: Vec<String> = (0..200).map(|i| format!("{{\"op\":{i}}}")).collect();
        let offsets = schedule(lines.len(), 200.0, 0.0);
        let samples = conn
            .paced(&lines, &offsets, Instant::now())
            .expect("exchange completes");
        drop(conn);
        responder.join().expect("responder exits");
        let mut lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Generous against a loaded machine, far below the kernel tick a
        // timeout-driven generator overshoots by.
        assert!(lat[100] < 1_000.0, "p50 {}", lat[100]);
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(
            schedule(3, 1000.0, 0.5),
            vec![500_000, 1_500_000, 2_500_000]
        );
    }
}

//! The benchmark's own load generator for the three wire workloads.
//!
//! One thread, one connected non-blocking UDP socket, open loop: every
//! legitimate handshake and every spoofed SYN has a due time fixed by
//! the rate, sends are paced from those due times, and connect time is
//! measured from the due time, so a stall shows up as latency on the
//! requests it delayed. It is deliberately not `wire::LoadEngine`,
//! which is part of the program under test.
//!
//! The generator must not be the thing measured: it enlarges its
//! receive buffer, caps how much it sends before reading again, and
//! reports its own lateness, CPU share and kernel drops so a run in
//! which it fell behind can be rejected.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use netsim::SimTime;
use tcpstack::TcpSegment;
use wire::{decode_frame, encode_frame, MAX_FRAME_LEN};

use crate::stack::{self, Client, Rng, Step};
use crate::sys;

/// A handshake completes only if the response and FIN arrive within
/// this long of its due time; the generator never retransmits.
pub const CONNECT_LIMIT: Duration = Duration::from_secs(1);
/// Receive buffer asked for: at 208 kB (the default) a burst of
/// 1 kB responses overflows it and the generator, not the server,
/// loses a quarter of the replies.
const RCVBUF_BYTES: u32 = 4 << 20;
/// Most datagrams sent in one loop iteration, new and answers alike,
/// before the generator steps aside for `PAUSE`. A live server releases
/// up to 256 SYN-ACKs in one flush; answering them all at once puts 512
/// datagrams on a socket whose default buffer holds 256, and on two
/// cores the server's reader does not get to run while the generator
/// and the stepper are both sending. Real clients are not phase-locked
/// like that; without the cap a third of `wire_calm`'s handshakes are
/// lost in the server's socket buffer and the run measures the burst.
const SEND_BURST: usize = 32;
/// How long the generator sleeps after a full burst.
const PAUSE: Duration = Duration::from_micros(100);
/// Longest sleep while idle, so replies are picked up promptly.
const IDLE: Duration = Duration::from_micros(200);

/// Offered load: legitimate solving handshakes and spoofed SYNs, per
/// second.
#[derive(Clone, Copy)]
pub struct Rates {
    pub legit: f64,
    pub spoofed: f64,
}

struct Flow {
    client: Client,
    due: Instant,
    measured: bool,
}

/// Connect-time percentiles are taken per slice of this length (by due
/// time) and the median slice is reported, so one stall of the box moves
/// one slice, not the result. Two seconds keep ten samples beyond the
/// 99th percentile at 500 handshakes/s.
const SLICE: Duration = Duration::from_secs(2);

/// Counters over one measured window (and its drain).
#[derive(Default)]
pub struct Window {
    /// Legitimate handshakes that came due inside the window.
    pub attempted: u64,
    /// …of which completed within `CONNECT_LIMIT` with the full response.
    pub completed: u64,
    /// Completions that carried a byte count other than the requested.
    pub wrong_size: u64,
    /// Per completion: seconds from the window's start to its due time,
    /// and its connect time in ms.
    pub connects: Vec<(f64, f64)>,
    /// How late each legitimate SYN left relative to its due time, ms.
    pub late_ms: Vec<f64>,
    /// Spoofed SYNs sent inside the window.
    pub spoofed_sent: u64,
    /// Datagrams sent / received inside the window (not the drain).
    pub datagrams_tx: u64,
    pub datagrams_rx: u64,
    /// Wall time from first due time to the end of the window.
    pub wall: Duration,
    start: Option<Instant>,
    /// CPU the generator thread burned inside the window.
    pub loadgen_cpu_ns: u64,
    /// CPU of every other thread of the process (the server's reader
    /// and stepper) inside the window.
    pub server_cpu_ns: u64,
    /// Times the server's threads slept and were woken inside the window.
    pub server_wakeups: u64,
}

impl Window {
    /// How late the generator's sends ran against the schedule, ms, p99.
    pub fn late_p99_ms(&self) -> f64 {
        let mut late = self.late_ms.clone();
        late.sort_by(f64::total_cmp);
        stack::quantile(&late, 0.99)
    }

    /// The `q`-quantile of connect time in ms: computed within each
    /// `SLICE` of the window, median across slices.
    pub fn connect_quantile_ms(&self, q: f64) -> f64 {
        let slices = ((self.wall.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
        let len = self.wall.as_secs_f64() / slices as f64;
        let mut per_slice = vec![Vec::new(); slices];
        for &(due_s, ms) in &self.connects {
            per_slice[((due_s / len) as usize).min(slices - 1)].push(ms);
        }
        let mut quantiles: Vec<f64> = per_slice
            .iter_mut()
            .filter(|slice| !slice.is_empty())
            .map(|slice| {
                slice.sort_by(f64::total_cmp);
                stack::quantile(slice, q)
            })
            .collect();
        stack::median(&mut quantiles)
    }
}

/// The generator. Lives for one server instance; flow indices keep
/// counting across phases so no endpoint is ever reused.
pub struct LoadGen {
    socket: UdpSocket,
    seed: u64,
    rng: Rng,
    epoch: Instant,
    flows: HashMap<(Ipv4Addr, u16), Flow>,
    /// Due times in send order, for expiring flows that never finish.
    in_flight: VecDeque<(Instant, (Ipv4Addr, u16))>,
    next_legit: u64,
    next_spoofed: u64,
    frame: Vec<u8>,
    /// Datagrams sent in the current loop iteration.
    burst: usize,
    /// Legitimate SYNs ever sent / handshakes ever completed on this
    /// server instance (warm-up included), for the server cross-check.
    pub legit_sent: u64,
    pub legit_completed: u64,
    pub datagrams_tx: u64,
    /// Receive buffer the kernel granted, bytes.
    pub rcvbuf: u32,
}

impl LoadGen {
    /// Connects to `server`. `instance` separates the endpoint ranges
    /// of successive server instances inside one run.
    pub fn connect(server: SocketAddr, seed: u64, instance: u64) -> io::Result<LoadGen> {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        socket.connect(server)?;
        socket.set_nonblocking(true)?;
        let rcvbuf = sys::grow_rcvbuf(&socket, RCVBUF_BYTES);
        Ok(LoadGen {
            socket,
            seed,
            rng: Rng(seed ^ instance.wrapping_mul(0xA24B_AED4_963E_E407)),
            epoch: Instant::now(),
            flows: HashMap::new(),
            in_flight: VecDeque::new(),
            next_legit: instance * 100_000_000,
            next_spoofed: instance * 100_000_000,
            frame: Vec::with_capacity(MAX_FRAME_LEN),
            burst: 0,
            legit_sent: 0,
            legit_completed: 0,
            datagrams_tx: 0,
            rcvbuf,
        })
    }

    /// Kernel drops on the generator's own socket so far.
    pub fn rx_drops(&self) -> u64 {
        let port = self.socket.local_addr().map_or(0, |a| a.port());
        sys::udp_drops(port)
    }

    fn sim_now(&self, at: Instant) -> SimTime {
        SimTime::from_nanos(at.duration_since(self.epoch).as_nanos() as u64)
    }

    fn send(&mut self, endpoint: Ipv4Addr, seg: &TcpSegment) {
        self.frame.clear();
        encode_frame(endpoint, seg, &mut self.frame);
        // Loopback send on a connected socket fails only when the
        // server is gone; the missing replies then fail the run.
        let _ = self.socket.send(&self.frame);
        self.datagrams_tx += 1;
        self.burst += 1;
    }

    /// Offers `rates` for `length`. With `measured`, flows due in this
    /// phase are accounted in the returned window, which also waits up
    /// to `CONNECT_LIMIT` past the last due time for stragglers.
    pub fn run(&mut self, rates: Rates, length: Duration, measured: bool) -> Window {
        let start = Instant::now();
        let mut w = Window {
            start: Some(start),
            ..Window::default()
        };
        let end = start + length;
        let wakeups0 = sys::other_threads_wakeups();
        let cpu0 = (sys::thread_cpu_ns(), sys::process_cpu_ns());
        let (tx0, mut rx) = (self.datagrams_tx, 0u64);
        let legit_gap = Duration::from_secs_f64(1.0 / rates.legit);
        let spoof_gap = (rates.spoofed > 0.0).then(|| Duration::from_secs_f64(1.0 / rates.spoofed));
        let (mut legit_n, mut spoof_n) = (0u32, 0u32);
        let mut buf = [0u8; MAX_FRAME_LEN + 64];
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            self.burst = 0;
            // When the next new flow is due: `now` while behind schedule.
            let mut next_due = end;
            while self.burst < SEND_BURST {
                let due = start + legit_gap * legit_n;
                if due > now || due >= end {
                    next_due = next_due.min(due);
                    break;
                }
                legit_n += 1;
                self.open(due, measured, &mut w);
            }
            while let Some(gap) = spoof_gap {
                let due = start + gap * spoof_n;
                if due > now || due >= end || self.burst >= SEND_BURST {
                    next_due = next_due.min(due);
                    break;
                }
                spoof_n += 1;
                let endpoint = stack::spoofed_endpoint(self.seed, self.next_spoofed);
                self.next_spoofed += 1;
                let isn = self.rng.next_u32();
                let (_, syn) = Client::connect(endpoint, isn, self.sim_now(now));
                self.send(endpoint.0, &syn);
                w.spoofed_sent += 1;
            }
            let got = self.receive(&mut buf, &mut w);
            rx += got as u64;
            self.expire(now);
            if self.burst >= SEND_BURST {
                std::thread::sleep(PAUSE);
            } else if got == 0 {
                let now = Instant::now();
                if next_due > now {
                    std::thread::sleep((next_due - now).min(IDLE));
                }
            }
        }
        w.wall = start.elapsed();
        w.loadgen_cpu_ns = sys::thread_cpu_ns() - cpu0.0;
        w.server_cpu_ns = (sys::process_cpu_ns() - cpu0.1).saturating_sub(w.loadgen_cpu_ns);
        w.server_wakeups = sys::other_threads_wakeups() - wakeups0;
        w.datagrams_tx = self.datagrams_tx - tx0;
        w.datagrams_rx = rx;
        if measured {
            // Drain: nothing new is offered; whatever is still in flight
            // gets its full limit.
            let limit = end + CONNECT_LIMIT;
            while self.flows.values().any(|f| f.measured) && Instant::now() < limit {
                self.burst = 0;
                if self.receive(&mut buf, &mut w) == 0 {
                    std::thread::sleep(IDLE);
                } else if self.burst >= SEND_BURST {
                    std::thread::sleep(PAUSE);
                }
            }
        }
        w
    }

    fn open(&mut self, due: Instant, measured: bool, w: &mut Window) {
        let endpoint = stack::legit_endpoint(self.seed, self.next_legit);
        self.next_legit += 1;
        let isn = self.rng.next_u32();
        let sent = Instant::now();
        let (client, syn) = Client::connect(endpoint, isn, self.sim_now(sent));
        self.send(endpoint.0, &syn);
        self.legit_sent += 1;
        if measured {
            w.attempted += 1;
            w.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        }
        self.flows.insert(
            endpoint,
            Flow {
                client,
                due,
                measured,
            },
        );
        self.in_flight.push_back((due, endpoint));
    }

    /// Reads datagrams and advances their flows until the socket is
    /// empty or this iteration's send budget is spent.
    fn receive(&mut self, buf: &mut [u8], w: &mut Window) -> usize {
        let mut got = 0;
        while self.burst < SEND_BURST {
            let n = match self.socket.recv(buf) {
                Ok(n) => n,
                Err(_) => break,
            };
            got += 1;
            let Ok((addr, seg)) = decode_frame(&buf[..n]) else {
                continue;
            };
            let key = (addr, seg.dst_port);
            let now = Instant::now();
            let sim_now = self.sim_now(now);
            // Challenges to spoofed sources have no flow: read and dropped.
            let Some(flow) = self.flows.get_mut(&key) else {
                continue;
            };
            let step = flow.client.on_segment(sim_now, &seg);
            match step {
                Step::Quiet => {}
                Step::Answer(ack, request) | Step::AnswerPlain(ack, request) => {
                    self.send(addr, &ack);
                    self.send(addr, &request);
                }
                Step::Done(bytes) => {
                    let flow = self.flows.remove(&key).expect("flow was just found");
                    self.legit_completed += 1;
                    let took = now.duration_since(flow.due);
                    if flow.measured && took <= CONNECT_LIMIT {
                        w.completed += 1;
                        let due_s = flow.due.duration_since(w.start.expect("window is open"));
                        w.connects
                            .push((due_s.as_secs_f64(), took.as_secs_f64() * 1e3));
                        if bytes != stack::RESPONSE_BYTES {
                            w.wrong_size += 1;
                        }
                    }
                }
                Step::Reset => {
                    self.flows.remove(&key);
                }
            }
        }
        got
    }

    /// Forgets flows well past their limit, so a server that stops
    /// answering cannot grow the generator without bound.
    fn expire(&mut self, now: Instant) {
        while let Some(&(due, key)) = self.in_flight.front() {
            if now.duration_since(due) < 2 * CONNECT_LIMIT {
                break;
            }
            self.in_flight.pop_front();
            self.flows.remove(&key);
        }
    }
}

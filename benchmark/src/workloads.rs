//! The six workloads, untraced: what a user of the stack would see.
//!
//! Every workload reports the same six end-to-end metrics; what an
//! "op" and a "latency" are on each is in the README's table and in
//! the comments on the functions here.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use experiments::scenario::{DefenseSpec, Matrix, MatrixCell, Timeline};
use hostsim::FleetAttack;
use netsim::SimDuration;
use tcpstack::ListenerStats;
use wire::{LiveServer, ServerConfig, ServerEngine, WallClock, WireServerStats};

use crate::loadgen::{LoadGen, Rates, Window};
use crate::stack::{self, median, quantile, Defense};
use crate::sys;
use crate::trace::{self, Trace};

/// Handshakes in the `engine_handshake` recording.
pub const HANDSHAKES: usize = 20_000;
/// Spoofed SYNs in the `engine_syn_flood` recording.
pub const FLOOD_SYNS: usize = 512 * 1024;
/// Fewest timed replays of an engine workload, however short the run.
const MIN_REPLAYS: usize = 9;
/// Set-up is done this many times per run and the median reported, so
/// one slow page-fault storm does not move `setup_s`.
const SETUPS: usize = 3;
/// Load offered to a fresh live server before the timed window opens.
const WARMUP: Duration = Duration::from_millis(1000);

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold: the program answered wrongly.
    pub violations: Vec<String>,
    /// Reasons the run measured the generator instead of the program;
    /// such a run prints no result and exits non-zero.
    pub invalid: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Fingerprint of the outputs, equal across runs of one seed.
    pub digest: Option<String>,
    /// Context for the human reader (stderr), not metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Runs `setup` `n` times, keeps the last product, and returns it with
/// the median set-up time in seconds. `teardown` disposes of the
/// products that are not kept.
fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut(u64) -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for instance in 0..n as u64 {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let start = Instant::now();
        kept = Some(setup(instance));
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&mut times))
}

/// Which of the two socket-free workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Handshake,
    SynFlood,
}

impl EngineKind {
    pub fn config(self, seed: u64) -> ServerConfig {
        match self {
            EngineKind::Handshake => stack::server_config(Defense::Puzzles, 0, seed),
            EngineKind::SynFlood => stack::server_config(Defense::Stateless, 0, seed),
        }
    }

    pub fn record(self, cfg: &ServerConfig, ops: usize, seed: u64, keep_replies: bool) -> Trace {
        match self {
            EngineKind::Handshake => trace::record_handshakes(cfg, ops, seed, keep_replies),
            EngineKind::SynFlood => trace::record_syn_flood(cfg, ops, seed, keep_replies),
        }
    }
}

/// Counters that must hold after any run, on the wire or off it.
fn check_listener(l: &ListenerStats, out: &mut Outcome) {
    out.check(
        l.verify_hashes == (1 + u64::from(stack::K)) * l.established_puzzle,
        || {
            format!(
                "verify_hashes {} != (1+k) x established_puzzle {}",
                l.verify_hashes, l.established_puzzle
            )
        },
    );
    out.check(l.decode_errors == 0, || {
        format!("decode_errors {}", l.decode_errors)
    });
}

/// The server-side counters a replayed trace must leave behind.
pub fn check_engine_stats(kind: EngineKind, ops: u64, stats: &WireServerStats, out: &mut Outcome) {
    let l = &stats.listener;
    let (served, challenged) = match kind {
        EngineKind::Handshake => (ops, ops),
        EngineKind::SynFlood => (0, ops),
    };
    out.check(stats.requests_served == served, || {
        format!("requests_served {} != {served}", stats.requests_served)
    });
    out.check(l.established_total() == served, || {
        format!("established_total {} != {served}", l.established_total())
    });
    out.check(l.challenges_sent == challenged, || {
        format!("challenges_sent {} != {challenged}", l.challenges_sent)
    });
    check_listener(l, out);
    out.check(l.verify_failures == 0, || {
        format!("verify_failures {}", l.verify_failures)
    });
}

/// `engine_handshake` / `engine_syn_flood`: batch loop, no sockets.
///
/// Set-up records the trace and builds the first engine. Replay 0 is
/// compared reply for reply with the recording and not timed; every
/// later replay runs against a fresh engine with the same secret and
/// clock script and times only `ingest_datagram` + `flush`.
///
/// op = handshake (SYN for the flood); `ops_per_s` = ops ÷ replay time;
/// latency = time one 256-datagram batch spends in the engine (median
/// and 99th percentile within a replay). Each is the best across
/// replays.
pub fn engine(kind: EngineKind, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let ops = match kind {
        EngineKind::Handshake => HANDSHAKES,
        EngineKind::SynFlood => FLOOD_SYNS,
    };
    let cfg = kind.config(seed);
    let ((trace, mut engine), setup_s) = repeat_setup(
        SETUPS,
        |_| (kind.record(&cfg, ops, seed, false), ServerEngine::new(&cfg)),
        drop,
    );

    // Books one replay: the counters it must leave behind, and whether its
    // replies matched the recording.
    let account = |out: &mut Outcome, done: &trace::Replayed, engine: &ServerEngine| {
        let before = out.violations.len();
        check_engine_stats(kind, ops as u64, &engine.stats(), out);
        out.check(done.mismatches == 0, || {
            format!("{} flushes differ from the recording", done.mismatches)
        });
        out.attempted += ops as u64;
        if out.violations.len() > before {
            out.failed += ops as u64;
        }
    };

    let rss_before = sys::rss_mb();
    let first = trace::replay(&trace, &mut engine, true, &mut Vec::new());
    let rss_growth = sys::rss_mb() - rss_before;
    account(&mut out, &first, &engine);
    drop(engine);

    // Per replay: busy seconds, and the median and 99th percentile of
    // its batch times in ns.
    let mut per_replay: [Vec<f64>; 3] = Default::default();
    let mut batch_ns = Vec::new();
    let started = Instant::now();
    while per_replay[0].len() < MIN_REPLAYS || started.elapsed().as_secs_f64() < seconds {
        let mut engine = ServerEngine::new(&cfg);
        batch_ns.clear();
        let done = trace::replay(&trace, &mut engine, false, &mut batch_ns);
        batch_ns.sort_by(f64::total_cmp);
        let sample = [
            done.busy_ns as f64 / 1e9,
            quantile(&batch_ns, 0.5),
            quantile(&batch_ns, 0.99),
        ];
        for (column, value) in per_replay.iter_mut().zip(sample) {
            column.push(value);
        }
        account(&mut out, &done, &engine);
    }
    // Every replay does identical work, and whatever else runs on the box
    // only ever adds time to it, so the best replay is the steadiest
    // estimate of the program's own cost.
    let [replay_s, p50_ns, p99_ns] = per_replay.map(|mut column| {
        column.sort_by(f64::total_cmp);
        column
    });
    out.notes.push(format!(
        "{} timed replays of {ops} ops in {} batches; replay s min/p25/p50/p75 = {:.5}/{:.5}/{:.5}/{:.5}; rss growth over replay 0 = {rss_growth:.1} MB",
        replay_s.len(),
        trace.batches.len(),
        replay_s[0],
        quantile(&replay_s, 0.25),
        quantile(&replay_s, 0.5),
        quantile(&replay_s, 0.75),
    ));
    out.digest = Some(format!("{:016x}", trace.digest()));
    out.metric("setup_s", setup_s);
    out.metric("ops_per_s", ops as f64 / replay_s[0]);
    out.metric("latency_p50_ms", p50_ns[0] / 1e6);
    out.metric("latency_p99_ms", p99_ns[0] / 1e6);
    out.metric("peak_rss_mb", sys::peak_rss_mb());
    out
}

/// A `LiveServer` running on its own threads.
pub struct Server {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<WireServerStats>,
}

impl Server {
    /// Binds an ephemeral loopback port and starts `LiveServer::run`.
    pub fn start(cfg: &ServerConfig) -> Server {
        let server = LiveServer::bind("127.0.0.1:0", cfg).expect("bind loopback UDP");
        let addr = server.local_addr().expect("bound address");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || server.run(&WallClock::new(), &flag));
        Server { addr, stop, handle }
    }

    /// Stops the server, waits for its threads, returns its counters.
    pub fn stop(self) -> WireServerStats {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("server thread panicked")
    }
}

/// One of the three socket workloads.
#[derive(Clone, Copy)]
pub struct WireSpec {
    pub defense: Defense,
    pub backlog: usize,
    pub rates: Rates,
}

impl WireSpec {
    /// The workload's operation count over a window: completed
    /// handshakes, or datagrams the server received when most of them
    /// are spoofed SYNs.
    pub fn ops(&self, w: &Window) -> u64 {
        if self.rates.spoofed > 0.0 {
            w.datagrams_tx
        } else {
            w.completed
        }
    }
}

pub const WIRE_BUSY: WireSpec = WireSpec {
    defense: Defense::Puzzles,
    backlog: 0,
    rates: Rates {
        legit: 4000.0,
        spoofed: 0.0,
    },
};
pub const WIRE_CALM: WireSpec = WireSpec {
    defense: Defense::Puzzles,
    backlog: 1024,
    rates: Rates {
        legit: 500.0,
        spoofed: 0.0,
    },
};
pub const WIRE_ATTACK: WireSpec = WireSpec {
    defense: Defense::Stateless,
    backlog: 1024,
    rates: Rates {
        legit: 500.0,
        spoofed: 8000.0,
    },
};

/// Everything a wire run measured, for the end-to-end report and for
/// the traced pass's front-end attribution.
pub struct WireRun {
    pub window: Window,
    pub stats: WireServerStats,
    pub setup_s: f64,
    pub server_rx_drops: u64,
    pub loadgen_rx_drops: u64,
    pub legit_sent: u64,
    pub legit_completed: u64,
    pub loadgen_tx: u64,
    pub rcvbuf: u32,
    /// `VmRSS` at the end of the window minus at its start.
    pub rss_growth_mb: f64,
}

/// Starts a live server (`setups` times, keeping the last), warms it
/// up, offers the spec's rates for `seconds`, drains, stops it.
fn run_wire(spec: WireSpec, seed: u64, seconds: f64, setups: usize) -> WireRun {
    let cfg = stack::server_config(spec.defense, spec.backlog, seed);
    let ((server, mut gen), setup_s) = repeat_setup(
        setups,
        |instance| {
            let server = Server::start(&cfg);
            let mut gen = LoadGen::connect(server.addr, seed, instance).expect("loopback socket");
            gen.run(spec.rates, WARMUP, false);
            (server, gen)
        },
        |(server, _)| {
            server.stop();
        },
    );
    let rss_before = sys::rss_mb();
    let window = gen.run(spec.rates, Duration::from_secs_f64(seconds), true);
    let rss_growth_mb = sys::rss_mb() - rss_before;
    let loadgen_rx_drops = gen.rx_drops();
    let server_rx_drops = sys::udp_drops(server.addr.port());
    let stats = server.stop();
    WireRun {
        window,
        stats,
        setup_s,
        server_rx_drops,
        loadgen_rx_drops,
        legit_sent: gen.legit_sent,
        legit_completed: gen.legit_completed,
        loadgen_tx: gen.datagrams_tx,
        rcvbuf: gen.rcvbuf,
        rss_growth_mb,
    }
}

/// Most times a wire window is measured before the run is given up as
/// invalid. A stall of the whole box makes the generator late; that says
/// nothing about the program, so the window is simply measured again.
const WINDOW_ATTEMPTS: usize = 3;

/// `run_wire` + `judge_wire` into `out`, again if the generator's own
/// validity rules failed, up to `WINDOW_ATTEMPTS` times.
pub fn run_wire_judged(
    spec: WireSpec,
    seed: u64,
    seconds: f64,
    setups: usize,
    out: &mut Outcome,
) -> WireRun {
    for attempt in 1.. {
        let mut judged = Outcome::default();
        let run = run_wire(spec, seed, seconds, setups);
        judge_wire(spec, seconds, &run, &mut judged);
        if judged.invalid.is_empty() || attempt == WINDOW_ATTEMPTS {
            out.attempted = judged.attempted;
            out.failed = judged.failed;
            out.violations.append(&mut judged.violations);
            out.invalid.append(&mut judged.invalid);
            return run;
        }
        out.notes.push(format!(
            "window {attempt} measured again: {}",
            judged.invalid.join("; ")
        ));
    }
    unreachable!("the last attempt returns")
}

/// Output checks and generator-validity rules of a wire run.
fn judge_wire(spec: WireSpec, seconds: f64, run: &WireRun, out: &mut Outcome) {
    let w = &run.window;
    let l = &run.stats.listener;
    out.attempted = w.attempted;
    out.failed = w.attempted - w.completed;
    out.check(w.wrong_size == 0, || {
        format!(
            "{} completions without exactly {} bytes",
            w.wrong_size,
            stack::RESPONSE_BYTES
        )
    });
    // Client completions ≤ server establishments ≤ legitimate SYNs sent:
    // spoofed sources never answer a challenge, so they establish nothing.
    out.check(
        run.legit_completed <= l.established_total() && l.established_total() <= run.legit_sent,
        || {
            format!(
                "server established {} outside [client completions {}, legitimate SYNs {}]",
                l.established_total(),
                run.legit_completed,
                run.legit_sent
            )
        },
    );
    check_listener(l, out);
    out.check(
        run.stats.datagrams_rx + run.server_rx_drops == run.loadgen_tx,
        || {
            format!(
                "server received {} + dropped {} of {} datagrams sent",
                run.stats.datagrams_rx, run.server_rx_drops, run.loadgen_tx
            )
        },
    );

    let late_p99 = w.late_p99_ms();
    if run.loadgen_rx_drops > 0 {
        out.invalid.push(format!(
            "generator socket dropped {} datagrams (rcvbuf {} B)",
            run.loadgen_rx_drops, run.rcvbuf
        ));
    }
    if late_p99 > 50.0 {
        out.invalid
            .push(format!("generator ran {late_p99:.1} ms late at p99"));
    }
    for (what, sent, rate) in [
        ("legitimate", w.attempted, spec.rates.legit),
        ("spoofed", w.spoofed_sent, spec.rates.spoofed),
    ] {
        let offered = rate * seconds;
        if (sent as f64 - offered).abs() > 0.01 * offered {
            out.invalid.push(format!(
                "{what} rate missed: sent {sent} of {offered:.0} due"
            ));
        }
    }
}

/// `wire_busy` / `wire_calm` / `wire_attack`: open loop at a fixed
/// rate over real loopback UDP sockets.
///
/// Latency is connect time, due time → response + FIN, legitimate
/// flows only (percentiles per 2 s slice, median slice). op = completed
/// handshake, except on `wire_attack` where op = datagram the server
/// received (most of its work is the spoofed SYN path). The rate is
/// fixed, not pushed to saturation: on two cores a saturation rate
/// would measure the single-threaded generator. What the server's
/// threads burn per op is in the traced pass (`wire.server_cpu_us_per_op`).
pub fn wire(spec: WireSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let run = run_wire_judged(spec, seed, seconds, SETUPS, &mut out);
    let w = &run.window;
    let ops = spec.ops(w);
    out.notes.push(format!(
        "loopback UDP; open loop {} legit/s + {} spoofed/s; {} connect-time samples; generator late p99 {:.2} ms, cpu share {:.2}, rcvbuf {} B; server rx drops {}",
        spec.rates.legit,
        spec.rates.spoofed,
        w.connects.len(),
        w.late_p99_ms(),
        w.loadgen_cpu_ns as f64 / w.wall.as_nanos() as f64,
        run.rcvbuf,
        run.server_rx_drops,
    ));
    if w.connects.is_empty() {
        out.invalid.push("no handshake completed".into());
        return out;
    }
    out.metric("setup_s", run.setup_s);
    out.metric("ops_per_s", ops as f64 / w.wall.as_secs_f64());
    out.metric("latency_p50_ms", w.connect_quantile_ms(0.5));
    out.metric("latency_p99_ms", w.connect_quantile_ms(0.99));
    out.metric("peak_rss_mb", sys::peak_rss_mb());
    out
}

/// Simulated seconds of each `sim_matrix` cell: 7 s of attack between
/// a 6 s lead-in and a 3 s tail. `Timeline::quick()` (150 s) would take
/// ~17 s of wall time per matrix, more than a whole run may measure;
/// this one lets a run repeat the matrix several times.
fn sim_timeline() -> Timeline {
    Timeline {
        total: 16.0,
        attack_start: 6.0,
        attack_stop: 13.0,
    }
}

fn sim_attacks() -> (FleetAttack, FleetAttack) {
    let rate = 20_000.0;
    (
        FleetAttack::SynFlood { rate, spoof: true },
        FleetAttack::ConnFlood {
            rate,
            solve: None,
            conn_timeout: SimDuration::from_secs(1),
            ack_delay: SimDuration::from_millis(500),
        },
    )
}

/// One finished cell and what it cost.
pub struct CellRun {
    pub cell: MatrixCell,
    pub wall_s: f64,
}

/// Runs the three cells once, in the order nash × syn-flood × 10k,
/// nash × conn-flood × 10k, stateless-puzzles × conn-flood × 100k.
pub fn run_sim_cells(seed: u64) -> Vec<CellRun> {
    let matrix = Matrix::new(sim_timeline());
    let nash = DefenseSpec::by_name("nash").expect("registered defence");
    let stateless = DefenseSpec::by_name("stateless-puzzles").expect("registered defence");
    let (syn, conn) = sim_attacks();
    [
        (&nash, &syn, 10_000),
        (&nash, &conn, 10_000),
        (&stateless, &conn, 100_000),
    ]
    .into_iter()
    .map(|(defense, attack, flows)| {
        let start = Instant::now();
        let cell = matrix.run_cell(defense, attack, flows, seed);
        CellRun {
            cell,
            wall_s: start.elapsed().as_secs_f64(),
        }
    })
    .collect()
}

/// Set-up of `sim_matrix`: build a matrix and run one small cell, so
/// backend detection and first-touch page faults are out of the way.
pub fn sim_warmup(seed: u64) {
    let matrix = Matrix::new(sim_timeline());
    let nash = DefenseSpec::by_name("nash").expect("registered defence");
    matrix.run_cell(&nash, &sim_attacks().0, 1_000, seed);
}

/// The invariants a finished cell must satisfy.
pub fn cell_ok(cell: &MatrixCell) -> bool {
    cell.goodput_before > 0.0
        && cell.attack_packets > 0
        && cell.retained().is_finite()
        && (0.0..=1.25).contains(&cell.retained())
}

/// `sim_matrix`: batch loop over the simulator harness.
///
/// Set-up builds the matrix and runs one small warm-up cell. The three
/// cells are then run back to back, as many whole matrices as fit in
/// `seconds`, and each cell is charged its best repeat (a simulation is
/// deterministic, so whatever made a repeat slower was not the
/// program). op = cell; `ops_per_s` = 3 ÷ the three cells' wall time;
/// latency = wall time of one cell (p50 the middle cell, p99 the
/// slowest); a cell fails if it violates `cell_ok` or its digest
/// differs between repeats.
pub fn sim(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let ((), setup_s) = repeat_setup(SETUPS, |_| sim_warmup(seed), drop);
    let mut first: Vec<MatrixCell> = Vec::new();
    // Per cell of the matrix, the best wall seconds seen so far.
    let mut best = [f64::INFINITY; 3];
    let started = Instant::now();
    while first.is_empty() || started.elapsed().as_secs_f64() < seconds {
        for (i, run) in run_sim_cells(seed).into_iter().enumerate() {
            out.attempted += 1;
            let repeatable = first.get(i).is_none_or(|c| c.digest == run.cell.digest);
            if !cell_ok(&run.cell) || !repeatable {
                out.failed += 1;
                out.violations.push(format!("cell failed: {}", run.cell));
            }
            best[i] = best[i].min(run.wall_s);
            if first.len() <= i {
                first.push(run.cell);
            }
        }
    }
    let digests: Vec<&str> = first.iter().map(|c| c.digest.as_str()).collect();
    out.notes.push(format!(
        "{} matrices of {} cells in {:.2} s; best cell s = {:.3?}; mean goodput retained {:.4}",
        out.attempted as usize / best.len(),
        best.len(),
        started.elapsed().as_secs_f64(),
        best,
        first.iter().map(MatrixCell::retained).sum::<f64>() / first.len() as f64,
    ));
    out.digest = Some(digests.join(" "));
    let mut wall_s = best;
    wall_s.sort_by(f64::total_cmp);
    let cells = best.len() as f64;
    out.metric("setup_s", setup_s);
    out.metric("ops_per_s", cells / wall_s.iter().sum::<f64>());
    out.metric("latency_p50_ms", quantile(&wall_s, 0.5) * 1e3);
    out.metric("latency_p99_ms", quantile(&wall_s, 0.99) * 1e3);
    out.metric("peak_rss_mb", sys::peak_rss_mb());
    out
}

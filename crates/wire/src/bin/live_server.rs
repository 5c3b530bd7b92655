//! Serves the defense stack on a real UDP loopback socket.
//!
//! Usage:
//!   cargo run --release -p wire --bin live_server -- \
//!     [--listen 127.0.0.1:9000] [--defense nash] [--shards 1] \
//!     [--pipeline auto|inline|persistent] [--secret 1] \
//!     [--backlog 1024] [--duration 0]
//!
//! `--defense` accepts any registered spec name (`none`, `syncache`,
//! `cookies`, `nash`/`puzzles`, `puzzles-k<k>m<m>`, `adaptive`,
//! `stacked`, `stateless-puzzles`). `--duration` is wall seconds;
//! 0 (the default) runs until killed. A final stats line (established
//! handshakes/sec, decode errors, the frozen counter dump) prints at
//! exit. `--secret` must match the load generator's for oracle-mode
//! solving, like the sim scenario harness sharing its secret with
//! solving hosts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use experiments::cli;
use wire::{LiveServer, ServerConfig, WallClock, WireClock};

fn main() {
    experiments::report_backend();
    let args: Vec<String> = std::env::args().collect();
    let listen = experiments::arg_after(&args, "--listen")
        .map_or("127.0.0.1:9000", |s| s.as_str())
        .to_string();
    let defenses = cli::defense_axis(&args, "nash");
    if defenses.len() != 1 {
        eprintln!(
            "live_server takes exactly one --defense, got {}",
            defenses.len()
        );
        std::process::exit(2);
    }
    let spec = &defenses[0];
    let secret_seed = cli::number_arg(&args, "--secret", 1);
    let duration = cli::number_arg(&args, "--duration", 0);

    let mut cfg = ServerConfig::new(spec.builder().clone(), wire::secret_from_seed(secret_seed));
    cfg.shards = cli::number_arg(&args, "--shards", 1) as usize;
    cfg.pipeline = cli::pipeline_arg(&args);
    cfg.backlog = cli::number_arg(&args, "--backlog", 1024) as usize;
    cfg.accept_backlog = cfg.backlog;

    let server = LiveServer::bind(&listen, &cfg).unwrap_or_else(|e| {
        eprintln!("bind {listen}: {e}");
        std::process::exit(1);
    });
    let bound = server.local_addr().expect("local_addr");
    eprintln!(
        "live_server: {} defense={} shards={} pipeline={:?} (secret seed {})",
        bound,
        spec.label(),
        cfg.shards,
        cfg.pipeline,
        secret_seed
    );

    let clock = WallClock::new();
    let stop = Arc::new(AtomicBool::new(false));
    // The run loop owns this thread; a watchdog trips the flag at the
    // deadline and reports progress each second meanwhile.
    let watchdog = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(1));
                let elapsed = started.elapsed().as_secs();
                if duration > 0 && elapsed >= duration {
                    stop.store(true, Ordering::Relaxed);
                    return;
                }
            }
        })
    };

    let started = clock.now();
    let stats = server.run(&clock, &stop);
    let elapsed = clock.now().since(started).as_secs_f64();

    let l = &stats.listener;
    println!(
        "live_server: {elapsed:.2}s  rx {} tx {}  established {} ({:.0}/s)  served {}  \
         challenges {}  cookies {}  verify_fail {}  decode_errors {}  unaddressed {}",
        stats.datagrams_rx,
        stats.datagrams_tx,
        l.established_total(),
        l.established_total() as f64 / elapsed.max(1e-9),
        stats.requests_served,
        l.challenges_sent,
        l.cookies_sent,
        l.verify_failures,
        l.decode_errors,
        stats.unaddressed_replies,
    );
    println!("live_server stats: {l:?}");
    drop(watchdog);
}

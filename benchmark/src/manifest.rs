//! The benchmark's contract in one place: workloads, metric names,
//! units, directions and bounds. `BENCHMARK.json` is generated from
//! these tables (`puzzle-bench --emit-manifest`), and every run checks
//! its output against them, so the file and the program cannot drift.

/// Seconds one run measures (`run_seconds`). Sized so that the driver's
/// 4 + 22 × 6 runs, each with its repeated set-up, fit in 57 minutes.
pub const RUN_SECONDS: u64 = 8;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "engine_handshake",
        why: "Socket-free twin: 50k recorded solving handshakes replayed into ServerEngine; tcpstack+core+crypto do all the work, sockets none.",
    },
    Workload {
        name: "engine_syn_flood",
        why: "Socket-free flood of 512k unique spoofed SYNs under stateless puzzles: issuance only, no verify; pre-proof state shows as bytes.",
    },
    Workload {
        name: "wire_busy",
        why: "LiveServer on loopback UDP at 4000 solving handshakes/s with full batches: its CPU per handshake minus the engine's is the wire front-end.",
    },
    Workload {
        name: "wire_calm",
        why: "Same front-end at 500 handshakes/s, default backlog, where reader batches never fill: exposes hand-off and time-out latency.",
    },
    Workload {
        name: "wire_attack",
        why: "Paper Figs. 7-8: 500 legit handshakes/s beside 8000 spoofed SYN/s under stateless puzzles; legit latency while the flood is absorbed.",
    },
    Workload {
        name: "sim_matrix",
        why: "netsim/hostsim/experiments drive the same tcpstack/core code through ServerHost: three matrix cells (nash and stateless, 10k-100k flows).",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, true, 0.0)
}

/// Reported by every workload with `--trace 0`. What an op and a
/// latency mean per workload is in the README.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.2),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p99_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Reported by every workload with `--trace 1`. Layer micro-costs and
/// the two engine ledgers are measured in every traced run; the
/// front-end, generator and cell rows describe the workload being run
/// and read 0 when that layer is not on its path.
pub const PER_LAYER: &[Metric] = &[
    lower("crypto.sha256_ns_per_hash", "ns"),
    lower("crypto.hmac_ns_per_tag", "ns"),
    lower("core.issue_ns_per_challenge", "ns"),
    lower("core.issue_windowed_ns_per_challenge", "ns"),
    lower("core.verify_ns_per_proof", "ns"),
    lower("core.verify_reject_ns_per_proof", "ns"),
    lower("core.hashes_per_verify", "count"),
    lower("core.hashes_per_issue", "count"),
    lower("core.replay_insert_ns", "ns"),
    lower("tcpstack.segment_decode_ns.syn", "ns"),
    lower("tcpstack.segment_decode_ns.challenge", "ns"),
    lower("tcpstack.segment_decode_ns.solution", "ns"),
    lower("tcpstack.segment_decode_ns.data", "ns"),
    lower("tcpstack.segment_encode_ns.syn", "ns"),
    lower("tcpstack.segment_encode_ns.challenge", "ns"),
    lower("tcpstack.segment_encode_ns.solution", "ns"),
    lower("tcpstack.segment_encode_ns.data", "ns"),
    lower("tcpstack.listener_syn_ns_per_seg", "ns"),
    lower("tcpstack.listener_ack_ns_per_seg", "ns"),
    lower("tcpstack.listener_data_ns_per_seg", "ns"),
    lower("tcpstack.accept_send_ns_per_conn", "ns"),
    lower("tcpstack.poll_ns_per_call", "ns"),
    lower("tcpstack.listener_ns_per_handshake", "ns"),
    lower("tcpstack.listener_self_ns_per_handshake", "ns"),
    lower("tcpstack.listener_ns_per_flood_syn", "ns"),
    lower("tcpstack.listener_self_ns_per_flood_syn", "ns"),
    lower("tcpstack.allocs_per_handshake", "count"),
    lower("tcpstack.allocs_per_flood_syn", "count"),
    lower("tcpstack.shard2_ns_per_seg", "ns"),
    lower("tcpstack.shard2_over_shard1", "ratio"),
    lower("wire.frame_decode_ns", "ns"),
    lower("wire.frame_encode_ns", "ns"),
    lower("wire.engine_ns_per_handshake", "ns"),
    lower("wire.engine_self_ns_per_handshake", "ns"),
    lower("wire.engine_ns_per_flood_syn", "ns"),
    lower("wire.engine_self_ns_per_flood_syn", "ns"),
    lower("wire.engine_allocs_per_handshake", "count"),
    lower("wire.engine_allocs_per_flood_syn", "count"),
    lower("wire.engine_retained_bytes_per_handshake", "B"),
    lower("wire.engine_retained_bytes_per_flood_syn", "B"),
    lower("wire.server_cpu_us_per_op", "us"),
    lower("wire.server_wakeups_per_handshake", "count"),
    lower("wire.frontend_us_per_handshake", "us"),
    lower("wire.frontend_us_per_datagram", "us"),
    lower("wire.datagrams_per_handshake", "count"),
    lower("wire.server_rx_drops", "count"),
    lower("wire.batch_wait_ms", "ms"),
    lower("udp.loopback_ns_per_datagram", "ns"),
    lower("udp.loopback_rtt_us", "us"),
    lower("loadgen.cpu_share", "ratio"),
    lower("loadgen.late_ms_p99", "ms"),
    lower("loadgen.rx_drops", "count"),
    lower("loadgen.us_per_handshake", "us"),
    lower("netsim.event_ns", "ns"),
    lower("hostsim.botfleet_ns_per_packet", "ns"),
    lower("experiments.cell_s.nash_syn_10k", "s"),
    lower("experiments.cell_s.nash_conn_10k", "s"),
    lower("experiments.cell_s.stateless_conn_100k", "s"),
    higher("experiments.goodput_retained", "ratio"),
    lower("ledger.unattributed_share_handshake", "ratio"),
    lower("ledger.unattributed_share_flood", "ratio"),
    lower("ledger.trace_overhead_ratio", "ratio"),
    lower("setup.engine_construct_ms", "ms"),
    lower("setup.trace_record_s", "s"),
    lower("setup.warmup_s", "s"),
    lower("run.rss_growth_mb", "MB"),
    lower("run.fail_ratio", "ratio"),
];

/// The metric table of one pass.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn direction(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                direction(m),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                direction(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

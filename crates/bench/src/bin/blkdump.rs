//! `blkdump` — demonstrate the tracing pipeline end to end.
//!
//! Runs a short workload into a power fault, then prints the raw
//! `blkparse`-style event stream, the reconstructed per-IO dump (the
//! paper's modified `btt --per-io-dump`), and the latency summary.
//! `--jsonl` additionally prints the block trace as one JSON object per
//! line. `--obs FILE` instead consumes a probe-bus JSONL trace (written
//! by `repro --exp campaign --trace FILE`) and summarises it.
//!
//! ```text
//! blkdump [--requests N] [--seed N] [--jsonl]
//! blkdump --obs FILE
//! ```

use std::collections::BTreeMap;
use std::env;
use std::process::ExitCode;

use pfault_platform::host::HostDriver;
use pfault_power::FaultInjector;
use pfault_sim::storage::GIB;
use pfault_sim::{DetRng, SimDuration};
use pfault_ssd::device::Ssd;
use pfault_ssd::VendorPreset;
use pfault_trace::{analyze, parse_trace_jsonl_line, parse_trace_text, render_trace_events};
use pfault_workload::{WorkloadGenerator, WorkloadSpec};

/// Consumes a probe-bus JSONL file: parses every line, checks sequence
/// density, and prints per-layer and per-kind event counts.
fn consume_obs(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    let mut span_us = 0u64;
    let mut lines = 0u64;
    for (i, line) in text.lines().enumerate() {
        let parsed = match pfault_obs::parse_jsonl_line(line) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{path}:{}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        };
        // Sequence numbers are the authoritative order: emission order.
        // Timestamps may interleave inside one pipeline drain (programs
        // on different lanes retire with different latencies), so only
        // density is checked.
        if parsed.seq != i as u64 {
            eprintln!(
                "{path}:{}: sequence hole (seq {} at line {})",
                i + 1,
                parsed.seq,
                i
            );
            return ExitCode::FAILURE;
        }
        span_us = span_us.max(parsed.time_us);
        *by_layer.entry(parsed.layer).or_insert(0) += 1;
        *by_kind.entry(parsed.event).or_insert(0) += 1;
        lines += 1;
    }
    println!("{lines} probe events over {span_us} us of simulated time, dense sequence");
    println!("== events by layer ==");
    for (layer, n) in &by_layer {
        println!("{layer}: {n}");
    }
    println!("== events by kind ==");
    for (kind, n) in &by_kind {
        println!("{kind}: {n}");
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("blkdump [--requests N] [--seed N] [--jsonl] | blkdump --obs FILE");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut requests = 8usize;
    let mut seed = 3u64;
    let mut jsonl = false;
    let mut obs_path: Option<String> = None;
    let mut it = env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jsonl" => jsonl = true,
            "--requests" => match it.next().map(|v| (v.parse(), v)) {
                Some((Ok(n), _)) => requests = n,
                Some((Err(_), v)) => {
                    eprintln!("bad --requests '{v}' (expected a number)");
                    return ExitCode::FAILURE;
                }
                None => return usage(),
            },
            "--seed" => match it.next().map(|v| (v.parse(), v)) {
                Some((Ok(n), _)) => seed = n,
                Some((Err(_), v)) => {
                    eprintln!("bad --seed '{v}' (expected a number)");
                    return ExitCode::FAILURE;
                }
                None => return usage(),
            },
            "--obs" => match it.next() {
                Some(p) => obs_path = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if let Some(path) = obs_path {
        return consume_obs(&path);
    }

    let root = DetRng::new(seed);
    let mut ssd = Ssd::new(VendorPreset::SsdA.config(), root.fork("ssd"));
    let spec = WorkloadSpec::builder().wss_bytes(8 * GIB).build();
    let mut generator = WorkloadGenerator::new(spec, root.fork("workload"));
    let mut host = HostDriver::new(ssd.config().max_segment_sectors, None, requests);

    while host.issued() < requests {
        // Drain before refilling: one request at a time, the next one
        // queued the moment the last completes.
        host.drain(&mut ssd);
        if host.outstanding() == 0 {
            host.submit(&mut ssd, generator.next_packet());
        }
        ssd.step(None);
    }
    // Pull the plug with the last request possibly in flight.
    let timeline = FaultInjector::arduino_atx_loaded().timeline(ssd.now());
    ssd.power_fail(&timeline);
    host.drain(&mut ssd);
    let (_, _, tracer) = host.into_results();

    let text = tracer.to_text();
    println!("== raw event stream (blkparse format) ==");
    print!("{text}");
    let round_trip = match parse_trace_text(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("internal error: own trace rendering failed to parse back: {e}");
            return ExitCode::FAILURE;
        }
    };
    if round_trip.len() != tracer.events().len() {
        eprintln!(
            "internal error: trace round-trip lost events ({} of {})",
            round_trip.len(),
            tracer.events().len()
        );
        return ExitCode::FAILURE;
    }

    if jsonl {
        println!("\n== event stream (JSONL) ==");
        let rendered = render_trace_events(tracer.events());
        print!("{rendered}");
        for (i, line) in rendered.lines().enumerate() {
            match parse_trace_jsonl_line(line) {
                Ok(e) if e == tracer.events()[i] => {}
                Ok(_) => {
                    eprintln!("internal error: JSONL line {i} round-tripped to a different event");
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("internal error: own JSONL failed to parse back: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    let analysis_at = timeline.discharged + SimDuration::from_secs(1);
    let report = analyze(tracer.events(), SimDuration::from_secs(30), analysis_at);
    println!("\n== per-IO dump (btt --per-io-dump equivalent) ==");
    print!("{}", report.per_io_dump());

    let summary = report.summary();
    println!("\n== summary ==");
    println!(
        "{} requests: {} completed, {} incomplete at the fault",
        summary.requests,
        summary.completed,
        summary.requests - summary.completed
    );
    println!(
        "q2c mean {:.3} ms, p99 {:.3} ms",
        summary.q2c_mean_ms, summary.q2c_p99_ms
    );
    ExitCode::SUCCESS
}

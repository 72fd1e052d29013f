//! Ablation: serving through failure — fault containment, quarantine and
//! versioned auto-rollback under adversarial traffic.
//!
//! Four text plans serve concurrently over TCP. Three are healthy; the
//! fourth carries the `fault-op` synthetic operator (feature `fault-op`)
//! and is driven through an **alias** whose previous live version is a
//! healthy twin. The adversarial stream salts ~10% of the faulting plan's
//! records with the panic marker, so its requests panic *inside an
//! executor* mid-run.
//!
//! What must hold (the binary exits non-zero otherwise):
//!
//! * **containment** — every marked request fails with a clean
//!   execution-fault status; no executor thread dies, no healthy request
//!   is lost, the runtime keeps serving.
//! * **quarantine → auto-rollback** — after the fault threshold trips,
//!   the faulting plan's gate closes and the alias rolls back to its
//!   previous live version; from then on *all* alias traffic (marked
//!   records included — the marker is just text to a healthy plan)
//!   succeeds.
//! * **observability** — `STATS` reports the faulting plan's fault count
//!   and quarantine flag; `LIST` shows the alias rebound to the
//!   predecessor; the manual `ROLLBACK` verb round-trips on a second
//!   alias.
//! * **performance** — healthy-plan p99 under faults stays within 1.1x of
//!   a no-fault control run of the identical topology. The binary runs
//!   [`PAIRS`] control/fault leg pairs, alternating which leg goes first,
//!   and writes each pair's p99 ratio (control/faulted) and their median
//!   to `BENCH_faults.json`; CI gates the median.
//!
//! Every leg builds its own runtime and front end and drops both before
//! the next leg starts; the correctness gates above hold in every fault
//! leg.
//!
//! Knobs: `PRETZEL_FAULT_REQS` (requests per plan per leg, default 400),
//! `PRETZEL_FAULT_RATE` (default 0.10), `PRETZEL_CORES`.

use pretzel_bench::{env_f64, env_usize, print_table};
use pretzel_core::flour::FlourContext;
use pretzel_core::frontend::{Client, FrontEnd, FrontEndConfig, PredictRequest};
use pretzel_core::graph::TransformGraph;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::train_stats::NodeStats;
use pretzel_data::DataError;
use pretzel_ops::fault::FaultParams;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::{synth, Op};
use pretzel_workload::adversarial::{FaultSaltedText, FAULT_MARKER};
use pretzel_workload::load::LatencyRecorder;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const VOCAB: usize = 256;

/// One SA-shaped text pipeline; `fault` inserts the panic injector right
/// after field selection, so every featurizer downstream reads its output.
fn pipeline(seed: u64, vocab: &[String], fault: bool) -> TransformGraph {
    let ctx = FlourContext::new();
    let mut text = ctx
        .csv(',')
        .select_text(1)
        .with_stats(NodeStats::new(512, 0.0));
    if fault {
        text = text
            .apply(Op::FaultInjector(Arc::new(FaultParams::new(FAULT_MARKER))))
            .with_stats(NodeStats::new(512, 0.0));
    }
    let tokens = text.tokenize().with_stats(NodeStats::new(64, 0.0));
    let c = tokens
        .char_ngram(Arc::new(synth::char_ngram(seed ^ 0xc, 3, 512)))
        .with_stats(NodeStats::new(256, 0.01));
    let w = tokens
        .word_ngram(Arc::new(synth::word_ngram(seed ^ 0xd, 2, 256, vocab)))
        .with_stats(NodeStats::new(128, 0.01));
    let dim = c.output_type().dimension().unwrap() + w.output_type().dimension().unwrap();
    c.concat(&w)
        .with_stats(NodeStats::new(384, 0.01))
        .classifier_linear(Arc::new(synth::linear(
            seed ^ 0x1e,
            dim,
            LinearKind::Logistic,
        )))
        .with_stats(NodeStats::new(1, 1.0))
        .graph()
}

/// Per-thread tally of one serving loop.
struct Tally {
    latency: LatencyRecorder,
    ok: usize,
    exec_faults: usize,
    quarantined: usize,
    other_errors: Vec<String>,
}

/// Drives `n` sequential single-record predicts against `target`,
/// classifying every outcome. `rate` salts records with the fault marker.
fn drive(addr: SocketAddr, target: PredictTarget, n: usize, rate: f64, seed: u64) -> Tally {
    let mut client = Client::connect_v2(addr).expect("connect");
    let mut text = FaultSaltedText::new(seed, VOCAB, rate);
    let mut tally = Tally {
        latency: LatencyRecorder::with_capacity(n),
        ok: 0,
        exec_faults: 0,
        quarantined: 0,
        other_errors: Vec::new(),
    };
    for _ in 0..n {
        let (line, _) = text.line();
        let req = match &target {
            PredictTarget::Plan(id) => PredictRequest::text(line).plan(*id),
            PredictTarget::Alias(a) => PredictRequest::text(line).alias(a.clone()),
        };
        let t0 = Instant::now();
        match client.predict(&req) {
            Ok(_) => tally.ok += 1,
            Err(DataError::ExecutionFault(_)) => tally.exec_faults += 1,
            Err(DataError::PlanQuarantined(_)) => tally.quarantined += 1,
            Err(e) => tally.other_errors.push(e.to_string()),
        }
        tally.latency.record(t0.elapsed());
    }
    tally
}

enum PredictTarget {
    Plan(u32),
    Alias(String),
}

/// Control/fault leg pairs per run. One pair's ratio of two p99s (each a
/// single slow request out of a few hundred) is decided by one
/// descheduling; the median over pairs is the gated figure.
const PAIRS: usize = 5;

/// The model images every leg deploys.
struct Images {
    healthy: Vec<Vec<u8>>,
    predecessor: Vec<u8>,
    canary_faulty: Vec<u8>,
    canary_healthy: Vec<u8>,
}

struct LegOutcome {
    healthy_p99: Duration,
    healthy_lost: usize,
    alias: Tally,
}

/// One full serving leg: fresh runtime, four plans (three by id, the
/// canary alias whose current version faults on `rate` of its records
/// in a fault leg), `reqs` requests each. Appends every gate the leg
/// fails to `failures`; the leg's runtime and front end are gone when it
/// returns.
fn leg(
    images: &Images,
    fault: bool,
    reqs: usize,
    rate: f64,
    cores: usize,
    failures: &mut Vec<String>,
) -> LegOutcome {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: cores,
        ..RuntimeConfig::default()
    }));
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut admin = Client::connect_v2(fe.addr()).unwrap();

    let healthy_ids: Vec<u32> = images
        .healthy
        .iter()
        .map(|img| admin.deploy(img, None, false).unwrap())
        .collect();
    // Version stack for the canary alias: healthy predecessor, then the
    // (in a fault leg, faulting) current version.
    let predecessor = admin
        .deploy(&images.predecessor, Some("canary"), false)
        .unwrap();
    let canary_image = if fault {
        &images.canary_faulty
    } else {
        &images.canary_healthy
    };
    let canary = admin.deploy(canary_image, None, false).unwrap();
    admin.swap("canary", canary).unwrap();

    // Warm every plan outside the timed loops.
    let mut warm = FaultSaltedText::new(99, VOCAB, 0.0);
    for &id in healthy_ids.iter().chain([&predecessor, &canary]) {
        let (line, _) = warm.line();
        admin.predict(&PredictRequest::text(line).plan(id)).unwrap();
    }

    let addr = fe.addr();
    let handles: Vec<_> = healthy_ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            std::thread::spawn(move || {
                drive(addr, PredictTarget::Plan(id), reqs, 0.0, 1000 + k as u64)
            })
        })
        .collect();
    let alias_rate = if fault { rate } else { 0.0 };
    let alias_handle = std::thread::spawn(move || {
        drive(
            addr,
            PredictTarget::Alias("canary".into()),
            reqs,
            alias_rate,
            7,
        )
    });

    let mut healthy_lost = 0;
    let mut healthy_latency = LatencyRecorder::new();
    for h in handles {
        let t = h.join().expect("healthy thread survives");
        healthy_lost += reqs - t.ok;
        if !t.other_errors.is_empty() {
            eprintln!(
                "healthy-plan errors: {:?}",
                &t.other_errors[..3.min(t.other_errors.len())]
            );
        }
        healthy_latency.merge(&t.latency);
    }
    let alias = alias_handle.join().expect("alias thread survives");
    let outcome = LegOutcome {
        healthy_p99: healthy_latency.p99().unwrap(),
        healthy_lost,
        alias,
    };
    if fault {
        fault_gates(
            &mut admin,
            &outcome,
            images,
            reqs,
            canary,
            predecessor,
            failures,
        );
    } else if outcome.healthy_lost != 0 || !outcome.alias.other_errors.is_empty() {
        failures.push(format!(
            "control leg lost requests: {} healthy, alias errors {:?}",
            outcome.healthy_lost, outcome.alias.other_errors
        ));
    }
    drop(admin);
    fe.stop();
    drop(runtime);
    outcome
}

/// Containment, quarantine and rollback, checked over the wire while the
/// fault leg's front end still serves.
fn fault_gates(
    admin: &mut Client,
    faulted: &LegOutcome,
    images: &Images,
    reqs: usize,
    canary_id: u32,
    predecessor_id: u32,
    failures: &mut Vec<String>,
) {
    let threshold = RuntimeConfig::default().fault_quarantine_threshold;
    if faulted.healthy_lost != 0 {
        failures.push(format!(
            "{} healthy requests lost during the fault cycle",
            faulted.healthy_lost
        ));
    }
    if faulted.alias.exec_faults < threshold {
        failures.push(format!(
            "expected >= {threshold} contained execution faults, saw {}",
            faulted.alias.exec_faults
        ));
    }
    if !faulted.alias.other_errors.is_empty() {
        failures.push(format!(
            "alias saw untyped errors: {:?}",
            &faulted.alias.other_errors[..3.min(faulted.alias.other_errors.len())]
        ));
    }
    let accounted = faulted.alias.ok + faulted.alias.exec_faults + faulted.alias.quarantined;
    if accounted != reqs {
        failures.push(format!(
            "alias outcomes do not account for every request: {accounted}/{reqs}"
        ));
    }

    // Quarantine + rollback, as served over the wire.
    let plans = admin.list().unwrap();
    let canary_info = plans.iter().find(|p| p.id == canary_id).unwrap();
    if !canary_info.quarantined {
        failures.push("faulting plan not quarantined in LIST".into());
    }
    let pred_info = plans.iter().find(|p| p.id == predecessor_id).unwrap();
    if !pred_info.aliases.iter().any(|a| a == "canary") {
        failures.push(format!(
            "alias did not roll back to predecessor (predecessor aliases: {:?})",
            pred_info.aliases
        ));
    }
    let snap = admin.stats().unwrap();
    let pm = snap.plan(canary_id).expect("faulting plan in STATS");
    if pm.faults < threshold as u64 || !pm.quarantined {
        failures.push(format!(
            "STATS shows faults={} quarantined={}",
            pm.faults, pm.quarantined
        ));
    }

    // Manual ROLLBACK verb: a second alias with two healthy versions.
    let v1 = admin
        .deploy(&images.healthy[0], Some("manual"), false)
        .unwrap();
    let v2 = admin.deploy(&images.healthy[1], None, false).unwrap();
    admin.swap("manual", v2).unwrap();
    match admin.rollback("manual") {
        Ok(Some(bound)) if bound == v1 => {}
        other => failures.push(format!("manual rollback bound {other:?}, expected {v1}")),
    }
    if !matches!(admin.rollback("manual"), Ok(None)) {
        failures.push("rollback without a predecessor must be a no-op None".into());
    }
}

fn main() {
    let reqs = env_usize("PRETZEL_FAULT_REQS", 400);
    let rate = env_f64("PRETZEL_FAULT_RATE", 0.10);
    let cores = env_usize("PRETZEL_CORES", 2);

    // Contained panics would otherwise spew a backtrace per fault; the
    // whole point is that they are expected and recoverable.
    std::panic::set_hook(Box::new(|_| {}));

    let vocab = synth::vocabulary(5, VOCAB);
    let images = Images {
        healthy: (0..3)
            .map(|k| pipeline(10 + k, &vocab, false).to_model_image())
            .collect(),
        predecessor: pipeline(40, &vocab, false).to_model_image(),
        canary_faulty: pipeline(41, &vocab, true).to_model_image(),
        canary_healthy: pipeline(41, &vocab, false).to_model_image(),
    };

    // Control legs share the fault legs' topology (the canary's current
    // version healthy) at a zero salt rate.
    let mut failures: Vec<String> = Vec::new();
    let mut pairs: Vec<(LegOutcome, LegOutcome)> = Vec::with_capacity(PAIRS);
    for p in 0..PAIRS {
        let mut run = |fault: bool| {
            let mut leg_failures = Vec::new();
            let outcome = leg(&images, fault, reqs, rate, cores, &mut leg_failures);
            let name = if fault { "fault" } else { "control" };
            failures.extend(
                leg_failures
                    .iter()
                    .map(|f| format!("pair {p} {name} leg: {f}")),
            );
            outcome
        };
        // Even pairs run the control leg first, odd pairs the fault leg.
        let (first, second) = (run(p % 2 == 1), run(p % 2 == 0));
        pairs.push(if p % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        });
    }

    // ---- report -------------------------------------------------------
    let threshold = RuntimeConfig::default().fault_quarantine_threshold;
    let (mut rows, mut entries, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for (p, (control, faulted)) in pairs.iter().enumerate() {
        let (c_us, f_us) = (
            control.healthy_p99.as_secs_f64() * 1e6,
            faulted.healthy_p99.as_secs_f64() * 1e6,
        );
        let lost = control.healthy_lost + faulted.healthy_lost;
        rows.push(vec![
            p.to_string(),
            format!("{c_us:.1}"),
            format!("{f_us:.1}"),
            format!("{:.3}", c_us / f_us),
            lost.to_string(),
        ]);
        entries.push(format!(
            "    {{\"pair\": {p}, \"control_first\": {}, \"control_p99_us\": {c_us:.1}, \
             \"faulted_p99_us\": {f_us:.1}, \"healthy_p99_ratio\": {:.3}, \"lost\": {lost}, \
             \"exec_faults\": {}}}",
            p % 2 == 0,
            c_us / f_us,
            faulted.alias.exec_faults,
        ));
        ratios.push(c_us / f_us);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[PAIRS / 2]; // the median: PAIRS is odd
    print_table(
        &format!(
            "Ablation: serving through failure ({reqs} reqs/plan, {:.0}% fault rate, \
             {cores} cores; even pairs run the control leg first)",
            rate * 100.0
        ),
        &["pair", "control p99 µs", "faulted p99 µs", "ratio", "lost"],
        &rows,
    );
    println!(
        "  median healthy p99 ratio (control/faulted) = {ratio:.3}; quarantine after \
         {threshold} faults, alias auto-rolled back in every fault leg"
    );

    let containment_ok = failures.is_empty();
    let json = format!(
        "{{\n  \"bench\": \"faults\",\n  \"pairs\": [\n{}\n  ],\n  \
         \"speedup\": {{\"healthy_p99_ratio_median\": {ratio:.3}}},\n  \
         \"containment_ok\": {containment_ok}\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_faults.json", json).expect("write BENCH_faults.json");
    println!("\nwrote BENCH_faults.json");

    if !containment_ok {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

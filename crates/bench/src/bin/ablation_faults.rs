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
//!   a no-fault control run of the identical topology (CI gates the
//!   ratio from `BENCH_faults.json`).
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

struct LegOutcome {
    healthy_p99: Duration,
    healthy_lost: usize,
    alias: Tally,
}

/// One full serving leg: fresh runtime, four plans (three by id, the
/// canary alias whose current version may fault), `reqs` requests each.
#[allow(clippy::too_many_arguments)]
fn leg(
    healthy_images: &[Vec<u8>],
    predecessor_image: &[u8],
    canary_image: &[u8],
    reqs: usize,
    rate: f64,
    cores: usize,
) -> (LegOutcome, Arc<Runtime>, FrontEnd, u32, u32) {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: cores,
        ..RuntimeConfig::default()
    }));
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut admin = Client::connect_v2(fe.addr()).unwrap();

    let healthy_ids: Vec<u32> = healthy_images
        .iter()
        .map(|img| admin.deploy(img, None, false).unwrap())
        .collect();
    // Version stack for the canary alias: healthy predecessor, then the
    // (possibly faulting) current version.
    let predecessor = admin
        .deploy(predecessor_image, Some("canary"), false)
        .unwrap();
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
    let alias_handle = std::thread::spawn(move || {
        drive(addr, PredictTarget::Alias("canary".into()), reqs, rate, 7)
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
    (outcome, runtime, fe, canary, predecessor)
}

fn main() {
    let reqs = env_usize("PRETZEL_FAULT_REQS", 400);
    let rate = env_f64("PRETZEL_FAULT_RATE", 0.10);
    let cores = env_usize("PRETZEL_CORES", 2);

    // Contained panics would otherwise spew a backtrace per fault; the
    // whole point is that they are expected and recoverable.
    std::panic::set_hook(Box::new(|_| {}));

    let vocab = synth::vocabulary(5, VOCAB);
    let healthy_images: Vec<Vec<u8>> = (0..3)
        .map(|k| pipeline(10 + k, &vocab, false).to_model_image())
        .collect();
    let predecessor_image = pipeline(40, &vocab, false).to_model_image();
    let canary_faulty = pipeline(41, &vocab, true).to_model_image();
    let canary_healthy = pipeline(41, &vocab, false).to_model_image();

    // Control: identical topology (canary current version healthy),
    // zero salt rate.
    let (control, _rt_c, fe_c, _, _) = leg(
        &healthy_images,
        &predecessor_image,
        &canary_healthy,
        reqs,
        0.0,
        cores,
    );
    fe_c.stop();

    // Fault leg: the canary's current version panics on ~rate of records.
    let (faulted, _rt_f, fe_f, canary_id, predecessor_id) = leg(
        &healthy_images,
        &predecessor_image,
        &canary_faulty,
        reqs,
        rate,
        cores,
    );

    // ---- correctness gates -------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    let threshold = RuntimeConfig::default().fault_quarantine_threshold;

    if control.healthy_lost != 0 || !control.alias.other_errors.is_empty() {
        failures.push(format!(
            "control leg lost requests: {} healthy, alias errors {:?}",
            control.healthy_lost, control.alias.other_errors
        ));
    }
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
    let mut admin = Client::connect_v2(fe_f.addr()).unwrap();
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
        .deploy(&healthy_images[0], Some("manual"), false)
        .unwrap();
    let v2 = admin.deploy(&healthy_images[1], None, false).unwrap();
    admin.swap("manual", v2).unwrap();
    match admin.rollback("manual") {
        Ok(Some(bound)) if bound == v1 => {}
        other => failures.push(format!("manual rollback bound {other:?}, expected {v1}")),
    }
    if !matches!(admin.rollback("manual"), Ok(None)) {
        failures.push("rollback without a predecessor must be a no-op None".into());
    }
    fe_f.stop();

    // ---- report -------------------------------------------------------
    let ratio = control.healthy_p99.as_secs_f64() / faulted.healthy_p99.as_secs_f64();
    print_table(
        &format!(
            "Ablation: serving through failure ({reqs} reqs/plan, {:.0}% fault rate, \
             {cores} cores)",
            rate * 100.0
        ),
        &["leg", "healthy p99", "alias ok/fault/quar", "lost"],
        &[
            vec![
                "control".into(),
                format!("{:.2?}", control.healthy_p99),
                format!("{}/0/0", control.alias.ok),
                control.healthy_lost.to_string(),
            ],
            vec![
                "faulted".into(),
                format!("{:.2?}", faulted.healthy_p99),
                format!(
                    "{}/{}/{}",
                    faulted.alias.ok, faulted.alias.exec_faults, faulted.alias.quarantined
                ),
                faulted.healthy_lost.to_string(),
            ],
        ],
    );
    println!(
        "  healthy p99 ratio (control/faulted) = {ratio:.3}; quarantine after \
         {threshold} faults, alias auto-rolled back to plan {predecessor_id}"
    );

    let containment_ok = failures.is_empty();
    let json = format!(
        "{{\n  \"bench\": \"faults\",\n  \"entries\": [\n    \
         {{\"category\": \"healthy\", \"mode\": \"control\", \"p99_us\": {:.1}, \
         \"lost\": {}}},\n    \
         {{\"category\": \"healthy\", \"mode\": \"faulted\", \"p99_us\": {:.1}, \
         \"lost\": {}}},\n    \
         {{\"category\": \"alias\", \"mode\": \"faulted\", \"ok\": {}, \
         \"exec_faults\": {}, \"quarantined\": {}}}\n  ],\n  \
         \"speedup\": {{\"healthy_p99_ratio\": {ratio:.3}}},\n  \
         \"containment_ok\": {containment_ok}\n}}\n",
        control.healthy_p99.as_secs_f64() * 1e6,
        control.healthy_lost,
        faulted.healthy_p99.as_secs_f64() * 1e6,
        faulted.healthy_lost,
        faulted.alias.ok,
        faulted.alias.exec_faults,
        faulted.alias.quarantined,
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

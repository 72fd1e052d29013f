//! PRETZEL's serving benchmark: one real `Runtime` + `FrontEnd` in process,
//! driven over loopback TCP on wire v2 from the main thread, every score
//! checked bitwise. Names and definitions are in `benchmark/README.md`.

mod alloc;
mod drive;
mod gen;
mod ladder;
mod procfs;
mod report;
mod server;
mod stats;
mod trace;

use drive::{Driver, Phase};
use gen::{Inputs, Workload};
use pretzel_core::frontend::{PredictRequest, Session};
use pretzel_core::lifecycle::DeployOptions;
use pretzel_core::telemetry::{Histogram, MetricsSnapshot, PlanMetricsSnapshot};
use pretzel_core::Runtime;
use pretzel_data::{DataError, Result};
use report::{guarded, metric, print_metrics, result_line, Metric};
use server::Server;
use stats::PhaseSummary;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Unrecorded windowed traffic before measuring.
const WARMUP: Duration = Duration::from_secs(1);
/// Times set-up runs in one untraced process; `setup_s` is their median.
const SETUPS: usize = 3;
/// How long the steady workloads repeat the in-process deploy + undeploy
/// cycle `deploy_ms` is taken from: long enough to outlast a burst of host
/// interference, which a fixed few hundred sub-millisecond cycles are not.
const QUIET_CYCLES_FOR: Duration = Duration::from_secs(1);
/// Schedule entries the ladder replays on a single-row workload; a batch
/// entry is 256 rows, so the batch workloads replay a sixteenth as many.
const LADDER_ENTRIES: usize = 4096;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 24, false, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workload = Some(known);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(
            "usage: --workload sa_single|sa_batch|ac_dense_batch|churn_mixed \
             [--seed N] [--seconds N] [--trace 0|1] [--smoke]",
        )?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

impl Args {
    /// Length of a windowed phase taking `share` of `--seconds` (of 2 s with
    /// `--smoke`).
    fn phase(&self, share: f64) -> Duration {
        let seconds = if self.smoke { 2 } else { self.seconds };
        Duration::from_secs(seconds).mul_f64(share)
    }
}

/// A fixed single-thread FNV-1a pass over 1 MiB, best of a few: how fast
/// the host is right now, so a slow-host run can be recognised.
fn host_calibration_mb_per_s() -> f64 {
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let mut best = 0f64;
    for _ in 0..16 {
        let t0 = Instant::now();
        std::hint::black_box(pretzel_data::hash::fnv1a(std::hint::black_box(&buf)));
        best = best.max(1.0 / t0.elapsed().as_secs_f64());
    }
    best
}

/// The served system plus a connected driver, warmed up.
struct Bench<'a> {
    inputs: &'a Inputs,
    server: Server,
    driver: Driver<'a>,
}

/// A windowed phase with what the process and the program saw across it.
struct Observed {
    phase: Phase,
    summary: PhaseSummary,
    proc_delta: procfs::ProcSnapshot,
    stats_before: MetricsSnapshot,
    stats_after: MetricsSnapshot,
    requests_sent: u64,
}

impl<'a> Bench<'a> {
    fn start(
        inputs: &'a Inputs,
        server: Server,
        requests: &'a [PredictRequest],
        expected: &'a [Vec<f32>],
    ) -> Result<Bench<'a>> {
        let driver = Driver::connect(
            server.frontend.addr(),
            inputs,
            requests,
            expected,
            &server.plan_ids,
        )
        .map_err(|e| DataError::Runtime(format!("benchmark connect: {e}")))?;
        let mut bench = Bench {
            inputs,
            server,
            driver,
        };
        bench.driver.run(&mut bench.server.admin, WARMUP, None);
        Ok(bench)
    }

    fn observe(&mut self, duration: Duration, tracer: Option<&mut Tracer>) -> Result<Observed> {
        let stats_before = self.server.admin.stats()?;
        let attempted_before = self.driver.attempted;
        let proc_before = procfs::snapshot();
        let phase = self.driver.run(&mut self.server.admin, duration, tracer);
        let proc_delta = procfs::snapshot() - proc_before;
        let stats_after = self.server.admin.stats()?;
        let cycle_ops = 2 * phase.cycle_ms.len() as u64;
        Ok(Observed {
            summary: stats::summarize(&phase.segments),
            phase,
            proc_delta,
            stats_before,
            stats_after,
            requests_sent: self.driver.attempted - attempted_before - cycle_ops,
        })
    }

    /// The lifecycle cycle times `deploy_ms` is taken from. On `churn_mixed`
    /// they are the measured phase's own: each cycle went over the wire
    /// while the scoring window was in flight. The steady workloads have no
    /// writes there, and a sub-millisecond round trip issued beside their
    /// traffic times the thread scheduler, not the deploy; they time
    /// `Runtime::deploy` + `Runtime::undeploy` of a second copy of a served
    /// model in process, on the now quiet server.
    fn cycle_times(&mut self, measured: Phase) -> Result<Vec<f64>> {
        if self.inputs.workload.requests_per_cycle().is_some() {
            return Ok(measured.cycle_ms);
        }
        let runtime = &self.server.runtime;
        let mut cycle_ms = Vec::new();
        let start = Instant::now();
        while start.elapsed() < QUIET_CYCLES_FOR {
            let image = &self.inputs.images[cycle_ms.len() % self.inputs.images.len()][0];
            let options = DeployOptions {
                alias: Some("bench-quiet".into()),
                reserved: false,
            };
            let t0 = Instant::now();
            let plan = runtime.deploy(image, options)?;
            runtime.undeploy(plan)?;
            cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(cycle_ms)
    }

    /// Ends the run: `(correct, attempted, failed)`. A positive
    /// `pool_outstanding` is a leased buffer that never came home.
    fn finish(self, segments: usize) -> (bool, u64, u64) {
        let outstanding = self.server.runtime.pool_outstanding();
        let (attempted, failed) = (self.driver.attempted, self.driver.failed);
        println!("ops_attempted {attempted}");
        println!("ops_failed {failed}");
        println!("pool_outstanding {outstanding}");
        drop(self.driver);
        self.server.shut_down();
        let correct = failed == 0 && outstanding <= 0 && segments > 0;
        (correct, attempted, failed)
    }
}

/// The client's and the process's view of a windowed phase.
fn outside_metrics(observed: &Observed, rows_per_request: usize, calib: (f64, f64)) -> Vec<Metric> {
    let summary = &observed.summary;
    let rows = (summary.requests * rows_per_request).max(1) as f64;
    let per_row = |ns: u64| ns as f64 / 1e3 / rows;
    let delta = &observed.proc_delta;
    let total = delta.total();
    let p99 = summary.p99;
    vec![
        guarded(
            "client.lat_p99_us",
            p99.map(|c| c.value_us),
            "us",
            p99.map_or(String::new(), |c| format!("n={}", c.samples)),
        ),
        metric(
            "client.rows_per_s_median",
            summary.median_rows_per_s,
            "rows/s",
            "median segment",
        ),
        metric("client.requests", summary.requests as f64, "count", ""),
        metric("client.segments", summary.segments as f64, "count", ""),
        metric(
            "process.cpu_us_per_row",
            per_row(total.cpu_ns),
            "us",
            "all threads",
        ),
        metric(
            "process.reactor_cpu_us_per_row",
            per_row(delta.reactor.cpu_ns),
            "us",
            "",
        ),
        metric(
            "process.exec_cpu_us_per_row",
            per_row(delta.exec.cpu_ns),
            "us",
            "",
        ),
        metric(
            "process.driver_cpu_us_per_row",
            per_row(delta.driver.cpu_ns),
            "us",
            "",
        ),
        metric(
            "process.runq_wait_us_per_row",
            per_row(total.runq_ns),
            "us",
            "runnable, no CPU",
        ),
        metric(
            "process.vol_ctx_switches_per_row",
            total.voluntary_switches as f64 / rows,
            "count",
            "",
        ),
        metric(
            "host.calib_mb_per_s",
            calib.0.min(calib.1),
            "MB/s",
            format!("before {:.0}, after {:.0}", calib.0, calib.1),
        ),
    ]
}

/// Mean of what a histogram gained between two snapshots.
fn mean_gain_ns(before: &Histogram, after: &Histogram) -> f64 {
    let count = after.count().saturating_sub(before.count());
    after.sum.saturating_sub(before.sum) as f64 / count.max(1) as f64
}

/// The program's own view of a phase: a `STATS` delta. Per-plan sections
/// vanish when a plan is undeployed, so on `churn_mixed` the per-plan gains
/// are lower bounds.
fn telemetry_metrics(observed: &Observed, runtime: &Runtime) -> Vec<Metric> {
    let (before, after) = (&observed.stats_before, &observed.stats_after);
    let merged = |snap: &MetricsSnapshot, pick: fn(&PlanMetricsSnapshot) -> &Histogram| {
        let mut all = Histogram::new();
        for plan in &snap.plans {
            all.merge(pick(plan));
        }
        all
    };
    let plan_mean = |pick| mean_gain_ns(&merged(before, pick), &merged(after, pick));
    let gained =
        |pick: fn(&MetricsSnapshot) -> u64| pick(after).saturating_sub(pick(before)) as f64;
    let pool_misses = |s: &MetricsSnapshot| {
        s.pools.executor.misses + s.pools.request_response.misses + s.pools.ingest.misses
    };
    vec![
        metric(
            "telemetry.rr_requests",
            gained(|s| s.plans.iter().map(|p| p.rr_requests).sum()),
            "count",
            format!("the driver sent {}", observed.requests_sent),
        ),
        metric(
            "telemetry.batch_requests",
            gained(|s| s.plans.iter().map(|p| p.batch_requests).sum()),
            "count",
            "",
        ),
        metric(
            "telemetry.decode_mean_ns",
            mean_gain_ns(&before.decode_ns, &after.decode_ns),
            "ns",
            "",
        ),
        metric(
            "telemetry.queue_wait_low_mean_ns",
            plan_mean(|p| &p.queue_wait_low_ns),
            "ns",
            "",
        ),
        metric(
            "telemetry.queue_wait_high_mean_ns",
            plan_mean(|p| &p.queue_wait_high_ns),
            "ns",
            "",
        ),
        metric(
            "telemetry.stage_exec_mean_ns",
            plan_mean(|p| &p.stage_exec_ns),
            "ns",
            "per chunk-stage",
        ),
        metric(
            "telemetry.flush_mean_ns",
            mean_gain_ns(&before.completion_flush_ns, &after.completion_flush_ns),
            "ns",
            "",
        ),
        metric(
            "telemetry.steals",
            gained(|s| s.scheduler.steals),
            "count",
            "",
        ),
        metric("telemetry.pool_misses", gained(pool_misses), "count", ""),
        metric(
            "telemetry.store_unique_mb",
            after.store.unique_bytes as f64 / (1 << 20) as f64,
            "MiB",
            "",
        ),
        metric(
            "telemetry.catalog_stages",
            runtime.catalog_size() as f64,
            "count",
            "",
        ),
    ]
}

type Outcome = (bool, u64, u64, Vec<Metric>);

/// The run every end-to-end metric comes from: tracing and counting off.
fn run_untraced(args: &Args, inputs: &Inputs) -> Result<Outcome> {
    let calib_before = host_calibration_mb_per_s();
    let server = Server::set_up(inputs)?;
    let mut setups = vec![server.setup_s];
    let expected = server.oracle(inputs)?;
    let requests = inputs.requests(&server.plan_ids);
    let mut bench = Bench::start(inputs, server, &requests, &expected)?;

    let mut observed = bench.observe(args.phase(1.0), None)?;
    let rss_mb = procfs::vm_hwm_mib();
    let telemetry = telemetry_metrics(&observed, &bench.server.runtime);
    let cycle_ms = bench.cycle_times(std::mem::take(&mut observed.phase))?;
    let (correct, attempted, failed) = bench.finish(observed.summary.segments);
    // The further set-ups run only now, so they cannot disturb the peak RSS
    // or the measured phase.
    for _ in 1..SETUPS {
        let again = Server::set_up(inputs)?;
        setups.push(again.setup_s);
        again.shut_down();
    }
    let calib = (calib_before, host_calibration_mb_per_s());

    let summary = &observed.summary;
    let p50 = summary.p50;
    let mut cycle_ms = cycle_ms;
    let deploy_ms = stats::lower_decile(&mut cycle_ms);
    let end_to_end = vec![
        metric(
            "setup_s",
            stats::median(&mut setups.clone()),
            "s",
            format!("median of {setups:.3?}"),
        ),
        metric(
            "peak_rows_per_s",
            summary.peak_rows_per_s,
            "rows/s",
            format!(
                "best of {} segments of {} requests, window {}",
                summary.segments,
                inputs.workload.requests_per_segment(),
                inputs.workload.window()
            ),
        ),
        guarded(
            "lat_p50_us",
            p50.map(|c| c.value_us),
            "us",
            p50.map_or(String::new(), |c| {
                format!("best segment's median, n={}", c.samples)
            }),
        ),
        metric("rss_mb", rss_mb, "MiB", "VmHWM after the last segment"),
        guarded(
            "deploy_ms",
            deploy_ms,
            "ms",
            format!("lower decile of {} cycles", cycle_ms.len()),
        ),
    ];
    print_metrics("end to end", &end_to_end);
    let mut outside = outside_metrics(&observed, inputs.workload.rows_per_request(), calib);
    outside.extend(telemetry);
    print_metrics("per layer, from outside", &outside);
    Ok((correct, attempted, failed, end_to_end))
}

/// The traced run: an untraced windowed phase for the from-outside layer
/// metrics, the ladder, then a windowed phase with spans and allocation
/// counting on. The ratio of the two phases is the tracing overhead.
fn run_traced(args: &Args, inputs: &Inputs) -> Result<Outcome> {
    let calib_before = host_calibration_mb_per_s();
    alloc::set_counting(true);
    let heap_before = alloc::counters();
    let server = Server::set_up(inputs)?;
    let heap_live = alloc::counters().live - heap_before.live;
    alloc::set_counting(false);
    let expected = server.oracle(inputs)?;
    let requests = inputs.requests(&server.plan_ids);
    let mut bench = Bench::start(inputs, server, &requests, &expected)?;
    let rows_per_request = inputs.workload.rows_per_request();

    let untraced = bench.observe(args.phase(0.3), None)?;
    let calib = (calib_before, host_calibration_mb_per_s());
    let mut metrics = outside_metrics(&untraced, rows_per_request, calib);
    metrics.extend(telemetry_metrics(&untraced, &bench.server.runtime));

    let mut tracer = Tracer::new();
    let entries = if args.smoke { 512 } else { LADDER_ENTRIES };
    let entries = entries / if rows_per_request > 1 { 16 } else { 1 };
    let session = Session::connect(bench.server.frontend.addr())
        .map_err(|e| DataError::Runtime(format!("benchmark connect: {e}")))?;
    metrics.extend(ladder::run(
        inputs,
        args.seed,
        &bench.server.runtime,
        &bench.server.plan_ids,
        &session,
        &requests,
        entries,
        &mut tracer,
    )?);
    drop(session);

    alloc::set_counting(true);
    let allocs_before = alloc::counters();
    let traced = bench.observe(args.phase(0.2), Some(&mut tracer))?;
    let allocs = alloc::counters();
    alloc::set_counting(false);
    let traced_rows = (traced.summary.requests * rows_per_request).max(1) as f64;
    metrics.extend([
        metric(
            "process.allocs_per_row",
            (allocs.allocs - allocs_before.allocs) as f64 / traced_rows,
            "count",
            "whole process, traced windowed phase",
        ),
        metric(
            "process.alloc_bytes_per_row",
            (allocs.bytes - allocs_before.bytes) as f64 / traced_rows,
            "B",
            "",
        ),
        metric(
            "process.heap_live_mb",
            heap_live as f64 / (1 << 20) as f64,
            "MiB",
            "allocated minus freed across set-up",
        ),
        metric(
            "trace.overhead_ratio",
            traced.summary.median_rows_per_s / untraced.summary.median_rows_per_s.max(1.0),
            "ratio",
            "median rows/s with spans and counting on / off",
        ),
    ]);
    let path = PathBuf::from(format!(
        "benchmark/out/trace_{}.jsonl",
        inputs.workload.name()
    ));
    match tracer.dump(&path) {
        Ok(()) => println!(
            "# {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: trace not written to {}: {e}", path.display()),
    }
    let segments = untraced.summary.segments.min(traced.summary.segments);
    let (correct, attempted, failed) = bench.finish(segments);
    print_metrics("per layer", &metrics);
    Ok((correct, attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let inputs = gen::build(args.workload, args.seed);
    println!(
        "# workload {} seed {} trace {}: 1 reactor, 2 executors, window {}, segments of {} requests",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.workload.window(),
        args.workload.requests_per_segment(),
    );
    let outcome = if args.trace {
        run_traced(&args, &inputs)
    } else {
        run_untraced(&args, &inputs)
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

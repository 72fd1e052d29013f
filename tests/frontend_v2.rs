//! Wire protocol v2 + reactor FrontEnd integration.
//!
//! The FrontEnd speaks one framing: a magic + version + request_id header,
//! many requests in flight per connection, responses completing out of
//! order. The contract here is threefold: scores are bitwise identical
//! across the sequential and pipelined clients and every request style,
//! hostile framing fails cleanly without wedging a reactor or leaking slab
//! slots, and a pipelined load survives rolling model swaps with zero lost
//! requests.

use pretzel_core::frontend::wire::CONNECTION_ERROR_ID;
use pretzel_core::frontend::{
    Client, FrontEnd, FrontEndConfig, PredictRequest, Session, MAX_FRAME_BYTES, WIRE_MAGIC, WIRE_V2,
};
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::{BatchAssembler, ColumnType};
use pretzel_workload::sa::SaConfig;
use pretzel_workload::text::ReviewGen;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_workload(n: usize) -> (Vec<Arc<Vec<u8>>>, Vec<String>) {
    let w = pretzel_workload::sa::build(&SaConfig {
        n_pipelines: n,
        char_entries: 256,
        word_entries_small: 32,
        word_entries_large: 128,
        vocab_size: 256,
        seed: 0xF2,
    });
    let mut gen = ReviewGen::new(7, 256, 1.2);
    let lines = (0..6).map(|_| format!("4,{}", gen.review(8, 20))).collect();
    (
        w.graphs
            .iter()
            .map(|g| Arc::new(g.to_model_image()))
            .collect(),
        lines,
    )
}

fn serve_runtime(images: &[Arc<Vec<u8>>]) -> (Arc<Runtime>, Vec<u32>) {
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    }));
    let ids = images
        .iter()
        .map(|img| {
            let graph = pretzel_core::graph::TransformGraph::from_model_image(img).unwrap();
            let plan = pretzel_core::oven::optimize(&graph).unwrap().plan;
            runtime.register(plan).unwrap()
        })
        .collect();
    (runtime, ids)
}

/// Polls the front end's open-connection gauge down to `want` — teardown
/// after a disconnect is asynchronous on the reactor (the next epoll wake
/// observes the EOF), so tests wait rather than assert instantly.
fn await_open_connections(fe: &FrontEnd, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while fe.stats().open_connections() != want {
        assert!(
            Instant::now() < deadline,
            "open connections stuck at {} (want {want})",
            fe.stats().open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---- raw-frame helpers (hostile clients speak bytes, not the Client) ----

/// Encodes a single-text request body (plan · kind|flags|n · record).
fn text_request_body(plan: u32, flags: u8, line: &str) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&plan.to_le_bytes());
    let kind_flags = (u32::from(flags) << 8) | (1u32 << 16); // kind=text(0), n=1
    body.extend_from_slice(&kind_flags.to_le_bytes());
    body.extend_from_slice(&(line.len() as u32).to_le_bytes());
    body.extend_from_slice(line.as_bytes());
    body
}

fn v2_frame(request_id: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_V2);
    out.push(0); // flags
    out.extend_from_slice(&[0, 0]); // reserved
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8]) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) => panic!("read failed: {e}"),
        }
    }
    true
}

/// Reads one v2 response frame as `(request_id, body)`; `None` on EOF.
fn read_v2_response(stream: &mut TcpStream) -> Option<(u32, Vec<u8>)> {
    let mut header = [0u8; 16];
    if !read_exact_or_eof(stream, &mut header) {
        return None;
    }
    assert_eq!(&header[..4], &WIRE_MAGIC, "response lost v2 framing");
    assert_eq!(header[4], WIRE_V2);
    let request_id = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
    assert!(len <= MAX_FRAME_BYTES);
    let mut body = vec![0u8; len];
    assert!(read_exact_or_eof(stream, &mut body), "truncated v2 body");
    Some((request_id, body))
}

/// Decodes a score response body (status 0 · n · f32s).
fn scores_of(body: &[u8]) -> Vec<f32> {
    assert_eq!(
        body[0], 0,
        "expected a score response, got status {}",
        body[0]
    );
    let n = u32::from_le_bytes(body[1..5].try_into().unwrap()) as usize;
    (0..n)
        .map(|i| f32::from_le_bytes(body[5 + 4 * i..9 + 4 * i].try_into().unwrap()))
        .collect()
}

// ---- bitwise equivalence across clients ---------------------------------

/// Drives one client mode through the {single, batch, delayed} styles
/// against one plan, returning scores in line order per style.
fn run_matrix(addr: SocketAddr, mode: &str, id: u32, lines: &[String]) -> Vec<Vec<f32>> {
    let single_reqs: Vec<PredictRequest> = lines
        .iter()
        .map(|l| PredictRequest::text(l.as_str()).plan(id))
        .collect();
    let delayed_reqs: Vec<PredictRequest> = lines
        .iter()
        .map(|l| PredictRequest::text(l.as_str()).plan(id).delayed())
        .collect();
    let batch_req = PredictRequest::text_batch(lines.iter().map(String::as_str)).plan(id);
    match mode {
        "sequential" => {
            let mut client = Client::connect_v2(addr).unwrap();
            let singles = single_reqs
                .iter()
                .map(|r| client.predict(r).unwrap())
                .collect();
            let batch = client.predict_many(&batch_req).unwrap();
            let delayed = delayed_reqs
                .iter()
                .map(|r| client.predict(r).unwrap())
                .collect();
            vec![singles, batch, delayed]
        }
        "pipelined" => {
            let session = Session::connect(addr).unwrap();
            let pending: Vec<_> = single_reqs
                .iter()
                .map(|r| session.submit(r).unwrap())
                .collect();
            let singles = pending.into_iter().map(|p| p.wait_one().unwrap()).collect();
            let batch = session.submit(&batch_req).unwrap().wait().unwrap();
            // Delayed singles submitted together: they accumulate in the
            // Batcher and flush as one batch — the fill pattern pipelining
            // exists to produce.
            let pending: Vec<_> = delayed_reqs
                .iter()
                .map(|r| session.submit(r).unwrap())
                .collect();
            let delayed = pending.into_iter().map(|p| p.wait_one().unwrap()).collect();
            vec![singles, batch, delayed]
        }
        other => panic!("unknown mode {other}"),
    }
}

#[test]
fn scores_bitwise_identical_across_client_generations() {
    let (images, lines) = small_workload(2);
    let (runtime, ids) = serve_runtime(&images);
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            batch_delay: Some(Duration::from_millis(5)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let id = ids[0];
    let reference: Vec<f32> = lines
        .iter()
        .map(|l| runtime.predict(id, l).unwrap())
        .collect();

    for mode in ["sequential", "pipelined"] {
        let styles = run_matrix(fe.addr(), mode, id, &lines);
        for (style, got) in ["single", "batch", "delayed"].iter().zip(&styles) {
            assert_eq!(got.len(), reference.len(), "{mode}/{style} cardinality");
            for (i, (g, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "{mode}/{style} row {i}: {g} vs {want}"
                );
            }
        }
    }
    fe.stop();
}

#[test]
fn pipelined_responses_resolve_out_of_submission_order() {
    let (images, lines) = small_workload(1);
    let (runtime, ids) = serve_runtime(&images);
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            batch_delay: Some(Duration::from_millis(400)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let id = ids[0];
    let want = runtime.predict(id, &lines[0]).unwrap();

    let session = Session::connect(fe.addr()).unwrap();
    // First submission parks in the delayed Batcher for 400ms; the second
    // is inline and must overtake it on the same connection.
    let slow = session
        .submit(&PredictRequest::text(lines[0].as_str()).plan(id).delayed())
        .unwrap();
    let fast = session
        .submit(&PredictRequest::text(lines[0].as_str()).plan(id))
        .unwrap();
    let started = Instant::now();
    let fast_score = fast.wait_one().unwrap();
    let fast_elapsed = started.elapsed();
    let slow_score = slow.wait_one().unwrap();
    let slow_elapsed = started.elapsed();
    assert_eq!(fast_score.to_bits(), want.to_bits());
    assert_eq!(slow_score.to_bits(), want.to_bits());
    assert!(
        fast_elapsed < Duration::from_millis(300),
        "inline response waited behind the delayed flush: {fast_elapsed:?}"
    );
    assert!(
        slow_elapsed >= Duration::from_millis(300),
        "delayed response flushed early"
    );
    fe.stop();
}

// ---- hostile framing -----------------------------------------------------

#[test]
fn truncated_v2_frame_then_disconnect_releases_the_slot() {
    let (images, lines) = small_workload(1);
    let (runtime, ids) = serve_runtime(&images);
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();

    // Half a v2 header, then a hard disconnect: the parser must sit in
    // NeedMore (not reject, not wedge) and EOF must tear the state down.
    let mut stream = TcpStream::connect(fe.addr()).unwrap();
    stream.write_all(&WIRE_MAGIC).unwrap();
    stream.write_all(&[WIRE_V2, 0, 0]).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    drop(stream);
    await_open_connections(&fe, 0);

    // The front end still serves.
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    let got = client
        .predict(&PredictRequest::text(lines[0].as_str()).plan(ids[0]))
        .unwrap();
    assert_eq!(
        got.to_bits(),
        runtime.predict(ids[0], &lines[0]).unwrap().to_bits()
    );
    drop(client);
    fe.stop();
}

#[test]
fn unknown_version_byte_is_rejected_with_an_error() {
    let (images, _) = small_workload(1);
    let (runtime, _) = serve_runtime(&images);
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();

    let mut stream = TcpStream::connect(fe.addr()).unwrap();
    let mut frame = v2_frame(1, &[0u8; 8]);
    frame[4] = 9; // future protocol version
    stream.write_all(&frame).unwrap();
    // One connection-level error frame, then the server closes.
    let (request_id, body) = read_v2_response(&mut stream).expect("no error response");
    assert_eq!(request_id, CONNECTION_ERROR_ID);
    assert_eq!(body[0], 1, "expected an error status");
    assert!(
        read_v2_response(&mut stream).is_none(),
        "expected close after reject"
    );

    // A head that is not the magic is refused as soon as its four bytes
    // are in: the server does not wait for the rest of a header.
    let mut stream = TcpStream::connect(fe.addr()).unwrap();
    stream.write_all(&8u32.to_le_bytes()).unwrap();
    let (request_id, body) = read_v2_response(&mut stream).expect("no error response");
    assert_eq!(request_id, CONNECTION_ERROR_ID);
    assert_eq!(body[0], 1, "expected an error status");
    assert!(read_v2_response(&mut stream).is_none());

    await_open_connections(&fe, 0);
    assert_eq!(fe.stats().protocol_errors(), 2);
    fe.stop();
}

#[test]
fn duplicate_in_flight_request_id_is_a_protocol_error() {
    let (images, lines) = small_workload(1);
    let (runtime, ids) = serve_runtime(&images);
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            // Long delay keeps the first request in flight while its
            // request_id is replayed.
            batch_delay: Some(Duration::from_secs(2)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();

    let mut stream = TcpStream::connect(fe.addr()).unwrap();
    let body = text_request_body(
        ids[0],
        pretzel_core::frontend::FLAG_DELAYED_BATCH,
        &lines[0],
    );
    stream.write_all(&v2_frame(7, &body)).unwrap();
    stream.write_all(&v2_frame(7, &body)).unwrap();
    let (request_id, body) = read_v2_response(&mut stream).expect("no protocol error");
    assert_eq!(
        request_id, CONNECTION_ERROR_ID,
        "connection-level errors use the sentinel id"
    );
    assert_eq!(body[0], 1, "expected an error status");
    assert!(
        read_v2_response(&mut stream).is_none(),
        "expected close after reject"
    );
    await_open_connections(&fe, 0);
    assert_eq!(fe.stats().protocol_errors(), 1);
    fe.stop();
}

#[test]
fn mid_pipeline_disconnects_leak_no_slab_slots() {
    let (images, lines) = small_workload(1);
    let (runtime, ids) = serve_runtime(&images);
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            batch_delay: Some(Duration::from_millis(200)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let id = ids[0];

    // Repeatedly park pipelined requests in the Batcher and vanish before
    // the flush: every completion then targets a dead generation, and the
    // slot must return to the slab free list each time.
    for round in 0..12 {
        let session = Session::connect(fe.addr()).unwrap();
        for _ in 0..4 {
            session
                .submit(&PredictRequest::text(lines[0].as_str()).plan(id).delayed())
                .unwrap();
        }
        drop(session);
        if round % 3 == 0 {
            await_open_connections(&fe, 0);
        }
    }
    // Accepts lag the connects on a loaded box (the backlog drains when
    // the reactor thread gets scheduled), so wait for the count rather
    // than asserting it instantly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fe.stats().accepted() < 12 {
        assert!(
            Instant::now() < deadline,
            "only {} of 12 connections accepted",
            fe.stats().accepted()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    await_open_connections(&fe, 0);
    assert_eq!(fe.stats().accepted(), 12);

    // Slots freed: a fresh pipelined session still completes normally.
    let session = Session::connect(fe.addr()).unwrap();
    let got = session
        .submit(&PredictRequest::text(lines[0].as_str()).plan(id))
        .unwrap()
        .wait_one()
        .unwrap();
    assert_eq!(
        got.to_bits(),
        runtime.predict(id, &lines[0]).unwrap().to_bits()
    );
    drop(session);
    fe.stop();
}

// ---- framing equivalence -------------------------------------------------

/// A request body carrying `lines` as text records.
fn text_batch_body(plan: u32, flags: u8, lines: &[&str]) -> Vec<u8> {
    let mut body = Vec::new();
    body.extend_from_slice(&plan.to_le_bytes());
    let kind_flags = (u32::from(flags) << 8) | ((lines.len() as u32) << 16);
    body.extend_from_slice(&kind_flags.to_le_bytes());
    for line in lines {
        body.extend_from_slice(&(line.len() as u32).to_le_bytes());
        body.extend_from_slice(line.as_bytes());
    }
    body
}

/// Sends `pieces` as one `write` each on a fresh connection and collects
/// `expected` v2 responses by request id.
fn responses_to(
    addr: SocketAddr,
    pieces: &[&[u8]],
    expected: usize,
) -> std::collections::BTreeMap<u32, Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    for piece in pieces {
        stream.write_all(piece).unwrap();
    }
    let mut got = std::collections::BTreeMap::new();
    for _ in 0..expected {
        let (id, body) = read_v2_response(&mut stream).expect("connection closed early");
        assert!(
            got.insert(id, body).is_none(),
            "request {id} answered twice"
        );
    }
    got
}

#[test]
fn responses_do_not_depend_on_how_the_byte_stream_is_cut() {
    let (images, lines) = small_workload(2);
    let (runtime, ids) = serve_runtime(&images);
    let fe = FrontEnd::serve(
        Arc::clone(&runtime),
        FrontEndConfig {
            batch_delay: Some(Duration::from_millis(2)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();

    // One fixed mix. The admin LIST reports in-flight counts, so it goes
    // before the two requests that complete later (batch, delayed).
    let batch_lines: Vec<&str> = (0..64).map(|i| lines[i % lines.len()].as_str()).collect();
    let list_body = {
        let mut body = 0u32.to_le_bytes().to_vec();
        body.extend_from_slice(&0x13u32.to_le_bytes()); // kind LIST, no flags, n = 0
        body
    };
    let frames = [
        v2_frame(1, &text_request_body(ids[0], 0, &lines[0])),
        v2_frame(2, &text_request_body(ids[1], 0, &lines[1])),
        v2_frame(3, &list_body),
        v2_frame(4, &text_request_body(9_999, 0, &lines[2])), // unknown plan
        v2_frame(5, &text_batch_body(ids[0], 0, &batch_lines)),
        v2_frame(
            6,
            &text_request_body(
                ids[1],
                pretzel_core::frontend::FLAG_DELAYED_BATCH,
                &lines[3],
            ),
        ),
    ];
    let stream: Vec<u8> = frames.concat();

    // (ii) the whole mix in a single write is the reference.
    let reference = responses_to(fe.addr(), &[&stream], frames.len());
    assert_eq!(scores_of(&reference[&1]).len(), 1);
    assert_eq!(
        scores_of(&reference[&1])[0].to_bits(),
        runtime.predict(ids[0], &lines[0]).unwrap().to_bits()
    );
    assert_eq!(reference[&3][0], 2, "LIST answers with an admin status");
    assert_eq!(reference[&4][0], 1, "unknown plan is a request error");
    assert_eq!(scores_of(&reference[&5]).len(), 64);
    assert_eq!(
        scores_of(&reference[&6])[0].to_bits(),
        runtime.predict(ids[1], &lines[3]).unwrap().to_bits()
    );

    // (i) one byte per write.
    let bytes: Vec<&[u8]> = stream.chunks(1).collect();
    assert_eq!(responses_to(fe.addr(), &bytes, frames.len()), reference);

    // (iii) two writes, cut at every offset from the start of the first
    // frame to the end of the second: inside a header, inside a body, and
    // exactly on the boundary between them.
    for cut in 0..=frames[0].len() + frames[1].len() {
        let (head, tail) = stream.split_at(cut);
        assert_eq!(
            responses_to(fe.addr(), &[head, tail], frames.len()),
            reference,
            "cut at byte {cut}"
        );
    }

    // An inline request has answered before the next frame is parsed, so
    // reusing its id straight away is not a duplicate.
    let mut stream = TcpStream::connect(fe.addr()).unwrap();
    let mut twice = v2_frame(7, &text_request_body(ids[0], 0, &lines[0]));
    twice.extend_from_slice(&v2_frame(7, &text_request_body(ids[0], 0, &lines[1])));
    stream.write_all(&twice).unwrap();
    for line in &lines[..2] {
        let (id, body) = read_v2_response(&mut stream).expect("closed on a reused id");
        assert_eq!(id, 7);
        assert_eq!(
            scores_of(&body)[0].to_bits(),
            runtime.predict(ids[0], line).unwrap().to_bits()
        );
    }
    drop(stream);

    assert_eq!(fe.stats().protocol_errors(), 0);
    fe.stop();
}

// ---- lifecycle under pipelined load --------------------------------------

#[test]
fn rolling_swap_and_undeploy_lose_zero_pipelined_requests() {
    let (images, lines) = small_workload(4);
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    }));
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let addr = fe.addr();

    let mut admin = Client::connect_v2(addr).unwrap();
    let mut live = admin.deploy(&images[0], Some("live"), false).unwrap();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loader = {
        let stop = Arc::clone(&stop);
        let lines = lines.clone();
        std::thread::spawn(move || {
            let session = Session::connect(addr).unwrap();
            let mut completed = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let pending: Vec<_> = (0..8)
                    .map(|i| {
                        session
                            .submit(
                                &PredictRequest::text(lines[i % lines.len()].as_str())
                                    .alias("live"),
                            )
                            .unwrap()
                    })
                    .collect();
                for p in pending {
                    // Zero loss: every pipelined request resolves to a
                    // score even while the alias target churns.
                    p.wait_one().unwrap();
                    completed += 1;
                }
            }
            completed
        })
    };

    // Roll the alias through every image, undeploying each old plan while
    // the pipelined load is in full flight.
    for img in images.iter().cycle().skip(1).take(8) {
        let next = admin.deploy(img, None, false).unwrap();
        let swapped = admin.swap("live", next).unwrap();
        assert_eq!(swapped, Some(live));
        admin.undeploy(live).unwrap();
        live = next;
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let completed = loader.join().unwrap();
    assert!(completed > 0, "load thread never completed a request");
    fe.stop();
}

// ---- zero-copy single-chunk ingest ---------------------------------------

#[test]
fn single_chunk_assembled_batch_moves_rows_and_matches_record_path() {
    // A single-chunk assembled request *moves* its ColumnBatch into the
    // chunk's slot 0 — no bulk copy — and the buffers return to the ingest
    // pool when the chunk retires. Observables: bitwise-equal scores vs
    // the inline path, and pool release accounting.
    let (images, lines) = small_workload(1);
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        chunk_size: 64, // > lines.len(): everything lands in one chunk
        ..RuntimeConfig::default()
    }));
    let graph = pretzel_core::graph::TransformGraph::from_model_image(&images[0]).unwrap();
    let id = runtime
        .register(pretzel_core::oven::optimize(&graph).unwrap().plan)
        .unwrap();
    let reference: Vec<f32> = lines
        .iter()
        .map(|l| runtime.predict(id, l).unwrap())
        .collect();

    let pool = Arc::clone(runtime.ingest_pool());
    let released_before = pool.stats().released();
    let mut asm = BatchAssembler::new(pool.acquire_batch(ColumnType::Text, lines.len()));
    for line in &lines {
        asm.push_text(line).unwrap();
    }
    let (rows, hashes) = asm.finish();
    let got = runtime
        .predict_batch_assembled_wait(id, rows, hashes)
        .unwrap();

    assert_eq!(got.len(), reference.len());
    for (i, (g, want)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(g.to_bits(), want.to_bits(), "row {i}: {g} vs {want}");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while pool.stats().released() <= released_before {
        assert!(Instant::now() < deadline, "moved batch never returned home");
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---- fault statuses, the ROLLBACK verb, and ingest hardening ----------

/// Silences the fault op's expected panics (see `tests/faults.rs` for the
/// runtime-level suite) without hiding real assertion failures.
fn quiet_fault_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let fault = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("fault-op:"));
            if !fault {
                default_hook(info);
            }
        }));
    });
}

/// A tiny text plan image; `faulting` inserts the marker-triggered panic
/// op on every record's path.
fn fault_test_image(seed: u64, faulting: bool) -> Vec<u8> {
    use pretzel_ops::fault::FaultParams;
    let ctx = pretzel_core::flour::FlourContext::new();
    let mut text = ctx.csv(',').select_text(1);
    if faulting {
        text = text.apply(pretzel_ops::Op::FaultInjector(Arc::new(FaultParams::new(
            pretzel_workload::adversarial::FAULT_MARKER,
        ))));
    }
    text.tokenize()
        .char_ngram(Arc::new(pretzel_ops::synth::char_ngram(seed ^ 0xc, 3, 64)))
        .classifier_linear(Arc::new(pretzel_ops::synth::linear(
            seed ^ 0x1e,
            64,
            pretzel_ops::linear::LinearKind::Logistic,
        )))
        .graph()
        .to_model_image()
}

#[test]
fn fault_and_quarantine_statuses_are_typed_over_the_wire() {
    quiet_fault_panics();
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default() // quarantine threshold 3
    }));
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();

    let predecessor = client
        .deploy(&fault_test_image(1, false), Some("canary"), false)
        .unwrap();
    let faulty = client
        .deploy(&fault_test_image(2, true), None, false)
        .unwrap();
    assert_eq!(client.swap("canary", faulty).unwrap(), Some(predecessor));

    let marked = "3,these words then __FAULT__";
    // Status 3 carries the panic payload to the client as a typed error,
    // once per contained fault until the threshold trips.
    for _ in 0..3 {
        match client.predict(&PredictRequest::text(marked).plan(faulty)) {
            Err(pretzel_data::DataError::ExecutionFault(msg)) => {
                assert!(msg.contains("fault-op"), "payload lost: {msg}");
            }
            other => panic!("expected wire status 3 → ExecutionFault, got {other:?}"),
        }
    }
    // Status 4: the gate is closed, the plan id rides in the response.
    assert!(matches!(
        client.predict(&PredictRequest::text(marked).plan(faulty)),
        Err(pretzel_data::DataError::PlanQuarantined(id)) if id == faulty
    ));
    // Alias traffic survived the whole episode via auto-rollback.
    let score = client
        .predict(&PredictRequest::text(marked).alias("canary"))
        .unwrap();
    assert!(score.is_finite());

    // LIST exposes the quarantine flag and the rebound alias; STATS
    // counts the faults.
    let plans = client.list().unwrap();
    assert!(plans.iter().find(|p| p.id == faulty).unwrap().quarantined);
    let pred_info = plans.iter().find(|p| p.id == predecessor).unwrap();
    assert!(pred_info.aliases.iter().any(|a| a == "canary"));
    let snap = client.stats().unwrap();
    let pm = snap.plan(faulty).expect("faulty plan in STATS");
    assert!(pm.faults >= 3 && pm.quarantined);
    fe.stop();
}

#[test]
fn admin_rollback_verb_round_trips() {
    let (images, _) = small_workload(2);
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    }));
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();

    let v1 = client.deploy(&images[0], Some("m"), false).unwrap();
    let v2 = client.deploy(&images[1], None, false).unwrap();
    client.swap("m", v2).unwrap();

    assert_eq!(client.rollback("m").unwrap(), Some(v1));
    // Bottom of the version stack: a clean None, binding untouched.
    assert_eq!(client.rollback("m").unwrap(), None);
    // Unknown aliases are an error, not a silent no-op.
    assert!(client.rollback("nope").is_err());
    fe.stop();
}

#[test]
fn non_finite_payloads_are_rejected_at_the_wire_boundary() {
    use pretzel_workload::adversarial::{hostile_sparse_rows, non_finite_dense_rows};
    let dim = 8usize;
    let ctx = pretzel_core::flour::FlourContext::new();
    let image = ctx
        .dense_source(dim)
        .classifier_linear(Arc::new(pretzel_ops::synth::linear(
            11,
            dim,
            pretzel_ops::linear::LinearKind::Regression,
        )))
        .graph()
        .to_model_image();
    let runtime = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default() // reject_non_finite: true
    }));
    let fe = FrontEnd::serve(Arc::clone(&runtime), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    let id = client.deploy(&image, None, false).unwrap();

    // Every non-finite dense payload is refused with a clean codec error.
    for row in non_finite_dense_rows(dim) {
        let err = client
            .predict(&PredictRequest::dense(row).plan(id))
            .unwrap_err();
        assert!(
            err.to_string().contains("non-finite"),
            "expected a non-finite rejection, got: {err}"
        );
    }
    // A batch with one poisoned row is refused as a unit.
    let mut rows = vec![vec![0.25f32; dim]; 3];
    rows[1][dim / 2] = f32::NAN;
    assert!(client
        .predict_many(&PredictRequest::dense_batch(rows).plan(id))
        .is_err());
    // Hostile sparse rows (out-of-dim, unsorted, duplicated, NaN) are all
    // rejected too — by CSR validation or the finite check.
    for (indices, values) in hostile_sparse_rows(dim as u32) {
        assert!(client
            .predict(&PredictRequest::sparse(indices, values, dim as u32).plan(id))
            .is_err());
    }
    // The connection and plan both survive: clean rows still score.
    let score = client
        .predict(&PredictRequest::dense(vec![0.5; dim]).plan(id))
        .unwrap();
    assert!(score.is_finite());
    fe.stop();
}

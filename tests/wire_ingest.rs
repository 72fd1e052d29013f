//! Wire-to-columnar ingest equivalence sweep.
//!
//! The FrontEnd decodes requests straight into a pool-leased
//! `ColumnBatch`. The contract is that what comes back over the wire is
//! *bitwise* what the in-process request-response engine scores per record
//! — for every record kind (text / dense / sparse), every request style
//! (single / batch / delayed-batch / result-cached), and every chunk size.

use pretzel_core::flour::FlourContext;
use pretzel_core::frontend::{
    Client, FrontEnd, FrontEndConfig, PredictRequest, FLAG_DELAYED_BATCH, FLAG_RESULT_CACHE,
    WIRE_MAGIC, WIRE_V2,
};
use pretzel_core::physical::SourceRef;
use pretzel_core::plan::StagePlan;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_core::scheduler::Record;
use pretzel_data::DataError;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use std::sync::Arc;
use std::time::Duration;

/// One record kind's worth of test material: a plan plus request rows.
enum Kind {
    Text(Vec<String>),
    Dense(Vec<Vec<f32>>),
    Sparse {
        rows: Vec<(Vec<u32>, Vec<f32>)>,
        dim: u32,
    },
}

fn text_case() -> (StagePlan, Kind) {
    let vocab = synth::vocabulary(0, 64);
    let ctx = FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
    let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 64, &vocab)));
    let plan = c
        .concat(&w)
        .classifier_linear(Arc::new(synth::linear(3, 128, LinearKind::Logistic)))
        .plan()
        .unwrap();
    let lines = (0..9)
        .map(|i| format!("{},review number {i} was {}", 1 + i % 5, vocab[i % 16]))
        .collect();
    (plan, Kind::Text(lines))
}

fn dense_case() -> (StagePlan, Kind) {
    let dim = 6;
    let ctx = FlourContext::new();
    let plan = ctx
        .dense_source(dim)
        .scale(Arc::new(synth::scaler(7, dim)))
        .regressor_tree(Arc::new(synth::ensemble(
            8,
            dim,
            2,
            3,
            pretzel_ops::tree::EnsembleMode::Sum,
        )))
        .plan()
        .unwrap();
    let rows = (0..9)
        .map(|i| {
            (0..dim)
                .map(|j| (i * dim + j) as f32 * 0.25 - 3.0)
                .collect()
        })
        .collect();
    (plan, Kind::Dense(rows))
}

fn sparse_case() -> (StagePlan, Kind) {
    let dim = 32u32;
    let ctx = FlourContext::new();
    let plan = ctx
        .sparse_source(dim as usize)
        .classifier_linear(Arc::new(synth::linear(
            9,
            dim as usize,
            LinearKind::Logistic,
        )))
        .plan()
        .unwrap();
    let rows = (0..9u32)
        .map(|i| {
            let indices: Vec<u32> = (0..=(i % 4)).map(|j| i % 7 + j * 5).collect();
            let values: Vec<f32> = indices.iter().map(|&x| x as f32 * 0.5 - 1.0).collect();
            (indices, values)
        })
        .collect();
    (plan, Kind::Sparse { rows, dim })
}

/// Request-response reference scores from a plain runtime (no frontend).
fn reference_scores(plan: &StagePlan, kind: &Kind) -> Vec<f32> {
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let id = rt.register(plan.clone()).unwrap();
    match kind {
        Kind::Text(lines) => lines.iter().map(|l| rt.predict(id, l).unwrap()).collect(),
        Kind::Dense(rows) => rows
            .iter()
            .map(|x| rt.predict_dense(id, x).unwrap())
            .collect(),
        Kind::Sparse { rows, dim } => rows
            .iter()
            .map(|(i, v)| {
                rt.predict_source(
                    id,
                    SourceRef::Sparse {
                        indices: i,
                        values: v,
                        dim: *dim,
                    },
                )
                .unwrap()
            })
            .collect(),
    }
}

/// Applies raw `FLAG_*` toggles through the builder's methods.
fn with_flags(req: PredictRequest, flags: u8) -> PredictRequest {
    let req = if flags & FLAG_RESULT_CACHE != 0 {
        req.cached()
    } else {
        req
    };
    if flags & FLAG_DELAYED_BATCH != 0 {
        req.delayed()
    } else {
        req
    }
}

fn single_request(id: u32, kind: &Kind, row: usize, flags: u8) -> PredictRequest {
    let req = match kind {
        Kind::Text(lines) => PredictRequest::text(lines[row].clone()),
        Kind::Dense(rows) => PredictRequest::dense(rows[row].clone()),
        Kind::Sparse { rows, dim } => {
            PredictRequest::sparse(rows[row].0.clone(), rows[row].1.clone(), *dim)
        }
    };
    with_flags(req.plan(id), flags)
}

fn kind_len(kind: &Kind) -> usize {
    match kind {
        Kind::Text(lines) => lines.len(),
        Kind::Dense(rows) => rows.len(),
        Kind::Sparse { rows, .. } => rows.len(),
    }
}

fn singles(client: &mut Client, id: u32, kind: &Kind, flags: u8) -> Vec<f32> {
    (0..kind_len(kind))
        .map(|row| {
            client
                .predict(&single_request(id, kind, row, flags))
                .unwrap()
        })
        .collect()
}

fn batch(client: &mut Client, id: u32, kind: &Kind) -> Vec<f32> {
    let records = match kind {
        Kind::Text(lines) => lines.iter().map(|l| Record::Text(l.clone())).collect(),
        Kind::Dense(rows) => rows.iter().map(|x| Record::Dense(x.clone())).collect(),
        Kind::Sparse { rows, dim } => rows
            .iter()
            .map(|(i, v)| Record::Sparse {
                indices: i.clone(),
                values: v.clone(),
                dim: *dim,
            })
            .collect(),
    };
    client
        .predict_many(&PredictRequest::batch(records).plan(id))
        .unwrap()
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label} record {i}: {g} vs reference {w}"
        );
    }
}

#[test]
fn wire_scores_bitwise_match_in_process_everywhere() {
    for (name, (plan, kind)) in [
        ("text", text_case()),
        ("dense", dense_case()),
        ("sparse", sparse_case()),
    ] {
        let reference = reference_scores(&plan, &kind);
        for chunk_size in [1usize, 7, 64] {
            let label = format!("{name} chunk={chunk_size}");
            let rt = Arc::new(Runtime::new(RuntimeConfig {
                n_executors: 2,
                chunk_size,
                ..RuntimeConfig::default()
            }));
            let id = rt.register(plan.clone()).unwrap();
            let fe = FrontEnd::serve(
                Arc::clone(&rt),
                FrontEndConfig {
                    result_cache_bytes: 1 << 14,
                    batch_delay: Some(Duration::from_millis(1)),
                    ..FrontEndConfig::default()
                },
            )
            .unwrap();
            let mut client = Client::connect_v2(fe.addr()).unwrap();

            assert_bits(
                &format!("{label} single"),
                &singles(&mut client, id, &kind, 0),
                &reference,
            );
            assert_bits(
                &format!("{label} batch"),
                &batch(&mut client, id, &kind),
                &reference,
            );
            assert_bits(
                &format!("{label} delayed"),
                &singles(&mut client, id, &kind, FLAG_DELAYED_BATCH),
                &reference,
            );
            // Delayed batching combined with the result cache: the
            // first pass populates, the second serves repeats.
            assert_bits(
                &format!("{label} delayed+cached"),
                &singles(
                    &mut client,
                    id,
                    &kind,
                    FLAG_DELAYED_BATCH | FLAG_RESULT_CACHE,
                ),
                &reference,
            );
            assert_bits(
                &format!("{label} delayed+cached repeat"),
                &singles(
                    &mut client,
                    id,
                    &kind,
                    FLAG_DELAYED_BATCH | FLAG_RESULT_CACHE,
                ),
                &reference,
            );
            // Result-cached repeats serve the same bits.
            assert_bits(
                &format!("{label} cached"),
                &singles(&mut client, id, &kind, FLAG_RESULT_CACHE),
                &reference,
            );
            assert_bits(
                &format!("{label} cached-repeat"),
                &singles(&mut client, id, &kind, FLAG_RESULT_CACHE),
                &reference,
            );
            fe.stop();
        }
    }
}

/// One request frame, for clients that speak bytes rather than `Client`.
fn frame(request_id: u32, body: &[u8]) -> Vec<u8> {
    let mut out = WIRE_MAGIC.to_vec();
    out.extend_from_slice(&[WIRE_V2, 0, 0, 0]); // version, flags, reserved
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

#[test]
fn delayed_flush_survives_client_disconnect() {
    // One delayed-batch client vanishes right after writing its request;
    // its flush slot must not wedge or poison the flush (sender failures
    // are logged and skipped), and every other rider of the same flush
    // still gets its (correct) score.
    let (plan, kind) = dense_case();
    let rows = match &kind {
        Kind::Dense(r) => r.clone(),
        _ => unreachable!(),
    };
    let reference = reference_scores(&plan, &kind);
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 2,
        ..RuntimeConfig::default()
    }));
    let id = rt.register(plan).unwrap();
    let fe = FrontEnd::serve(
        Arc::clone(&rt),
        FrontEndConfig {
            result_cache_bytes: 0,
            batch_delay: Some(Duration::from_millis(20)),
            ..FrontEndConfig::default()
        },
    )
    .unwrap();
    let addr = fe.addr();
    // The doomed client: writes a delayed request, then drops the socket
    // without reading the response.
    {
        use std::io::Write;
        let mut doomed = std::net::TcpStream::connect(addr).unwrap();
        let mut req = Vec::new();
        req.extend_from_slice(&id.to_le_bytes());
        let kind_flags = 1u32 | (u32::from(FLAG_DELAYED_BATCH) << 8) | (1u32 << 16);
        req.extend_from_slice(&kind_flags.to_le_bytes());
        req.extend_from_slice(&(rows[0].len() as u32).to_le_bytes());
        for v in &rows[0] {
            req.extend_from_slice(&v.to_le_bytes());
        }
        doomed.write_all(&frame(1, &req)).unwrap();
        // Dropped here, before the flush fires.
    }
    // Healthy riders of the same (and later) flushes.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let row = rows[i + 1].clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_v2(addr).unwrap();
                c.predict(&PredictRequest::dense(row).plan(id).delayed())
                    .unwrap()
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let got = h.join().unwrap();
        assert_eq!(got.to_bits(), reference[i + 1].to_bits(), "rider {i} score");
    }
    fe.stop();
}

#[test]
fn hostile_dense_dim_prefix_rejected_before_allocation() {
    use std::io::{Read, Write};
    // A tiny, well-framed request whose first dense record claims 4
    // billion features: the wire-columnar decoder must refuse it before
    // sizing any batch from that dimension (a ~16 GiB allocation).
    let (plan, _) = dense_case();
    let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
    let id = rt.register(plan).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
    for n_records in [1u32, 60000] {
        let mut stream = std::net::TcpStream::connect(fe.addr()).unwrap();
        let mut req = Vec::new();
        req.extend_from_slice(&id.to_le_bytes());
        let kind_flags = 1u32 | (n_records << 16); // kind 1 = dense
        req.extend_from_slice(&kind_flags.to_le_bytes());
        req.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile dim
        stream.write_all(&frame(n_records, &req)).unwrap();
        let mut header = [0u8; 16];
        stream.read_exact(&mut header).unwrap();
        assert_eq!(
            header[8..12],
            n_records.to_le_bytes(),
            "reply echoes the id"
        );
        let len = u32::from_le_bytes(header[12..16].try_into().unwrap());
        let mut body = vec![0u8; len as usize];
        stream.read_exact(&mut body).unwrap();
        assert_eq!(body[0], 1, "status byte should mark an error");
    }
    // Still serving afterwards.
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    assert!(client
        .predict(&PredictRequest::dense(vec![0.0; 6]).plan(id))
        .is_ok());
    fe.stop();
}

#[test]
fn empty_requests_still_validate_the_plan() {
    let (plan, _) = text_case();
    let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
    let id = rt.register(plan).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    // Empty batch for a registered plan: clean empty response.
    assert_eq!(
        client
            .predict_many(&PredictRequest::batch(Vec::new()).plan(id))
            .unwrap(),
        vec![]
    );
    // Empty batch for an unknown plan: still an error.
    let err = client
        .predict_many(&PredictRequest::batch(Vec::new()).plan(99))
        .unwrap_err();
    assert_eq!(err, DataError::UnknownPlan(99));
    fe.stop();
}

#[test]
fn garbage_length_prefix_never_allocates() {
    use pretzel_core::frontend::wire::{CONNECTION_ERROR_ID, V2_HEADER_BYTES};
    use std::io::{Read, Write};
    let (plan, _) = dense_case();
    let rt = Arc::new(Runtime::new(RuntimeConfig::default()));
    let _id = rt.register(plan).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
    let mut heads: Vec<Vec<u8>> = [u32::MAX, (64 << 20) + 1, 0x8000_0000]
        .iter()
        .map(|&body_len| {
            let mut head = frame(3, &[]);
            head[12..16].copy_from_slice(&body_len.to_le_bytes());
            head
        })
        .collect();
    // A bare length prefix is not a frame: refused after its four bytes.
    heads.push(64u32.to_le_bytes().to_vec());
    for head in &heads {
        let mut stream = std::net::TcpStream::connect(fe.addr()).unwrap();
        stream.write_all(head).unwrap();
        // The server must reply with a protocol error frame, not attempt
        // the allocation or kill the process.
        let mut header = [0u8; V2_HEADER_BYTES];
        stream.read_exact(&mut header).unwrap();
        assert_eq!(header[..4], WIRE_MAGIC);
        let id = u32::from_le_bytes(header[8..12].try_into().unwrap());
        assert_eq!(id, CONNECTION_ERROR_ID);
        let len = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        assert!(len < 1 << 16, "error reply should be small, got {len}");
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        assert_eq!(body[0], 1, "status byte should mark an error");
    }
    // The front end is still healthy afterwards.
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    let scores = client.predict(&PredictRequest::dense(vec![0.0; 6]).plan(0));
    assert!(scores.is_ok());
    fe.stop();
}

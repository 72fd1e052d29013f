//! Robustness: hostile inputs on every external surface — TCP frames,
//! model files, request payloads — must produce errors, not crashes, and
//! must leave the system serving (paper §6 discusses isolating model
//! failures; a serving system that dies on one bad request is not a
//! serving system).

use pretzel_core::frontend::wire::{CONNECTION_ERROR_ID, V2_HEADER_BYTES};
use pretzel_core::frontend::{
    Client, FrontEnd, FrontEndConfig, PredictRequest, WIRE_MAGIC, WIRE_V2,
};
use pretzel_core::graph::TransformGraph;
use pretzel_core::runtime::{Runtime, RuntimeConfig};
use pretzel_data::serde_bin::Cursor;
use pretzel_data::DataError;
use pretzel_ops::linear::LinearKind;
use pretzel_ops::synth;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn serve_one() -> (Arc<Runtime>, FrontEnd, u32) {
    let ctx = pretzel_core::flour::FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let logical = tokens
        .char_ngram(Arc::new(synth::char_ngram(1, 3, 64)))
        .classifier_linear(Arc::new(synth::linear(2, 64, LinearKind::Logistic)))
        .plan()
        .unwrap();
    let rt = Arc::new(Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    }));
    let id = rt.register(logical).unwrap();
    let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
    (rt, fe, id)
}

/// A frame header announcing `body_len` body bytes.
fn header(request_id: u32, body_len: u32) -> Vec<u8> {
    let mut head = WIRE_MAGIC.to_vec();
    head.extend_from_slice(&[WIRE_V2, 0, 0, 0]);
    head.extend_from_slice(&request_id.to_le_bytes());
    head.extend_from_slice(&body_len.to_le_bytes());
    head
}

/// Reads the connection-level error frame a framing violation earns.
fn read_connection_error(s: &mut TcpStream) {
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut head = [0u8; V2_HEADER_BYTES];
    s.read_exact(&mut head).unwrap();
    assert_eq!(head[..4], WIRE_MAGIC);
    let id = u32::from_le_bytes(head[8..12].try_into().unwrap());
    assert_eq!(id, CONNECTION_ERROR_ID);
    let len = u32::from_le_bytes(head[12..16].try_into().unwrap()) as usize;
    assert!(len < 1 << 10, "error reply should be small, got {len}");
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
    assert_eq!(body[0], 1, "status byte should mark an error");
}

#[test]
fn frontend_survives_garbage_frames() {
    let (_rt, fe, id) = serve_one();
    let addr = fe.addr();

    // 1. Random bytes where a header belongs: refused after four bytes.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[8, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04])
            .unwrap();
        read_connection_error(&mut s);
    }

    // 2. An absurd body length is rejected without allocating 4 GiB.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&header(1, u32::MAX)).unwrap();
        read_connection_error(&mut s);
    }

    // 3. A truncated frame followed by disconnect.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&header(2, 100)).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        drop(s);
    }

    // The front end still serves well-formed requests afterwards.
    let mut client = Client::connect_v2(addr).unwrap();
    let score = client
        .predict(&PredictRequest::text("3,still alive").plan(id))
        .unwrap();
    assert!(score.is_finite());
    fe.stop();
}

/// The bytes of a model image a single-bit flip must turn into a checksum
/// error: entry names, payloads and the stored section checksums, walked
/// with the format's own cursor.
fn checksummed_bytes(image: &[u8]) -> Vec<bool> {
    let mut guarded = vec![false; image.len()];
    let mut cur = Cursor::new(image);
    let at = |cur: &Cursor| image.len() - cur.remaining();
    cur.u64().unwrap(); // magic
    for _ in 0..cur.u32().unwrap() {
        cur.str().unwrap();
        let start = at(&cur);
        cur.u64().unwrap();
        guarded[start..at(&cur)].fill(true);
        for _ in 0..cur.u32().unwrap() {
            // The name past its u32 length, then the payload past its u64
            // length: a flipped length misparses rather than mismatches.
            let start = at(&cur) + 4;
            cur.str().unwrap();
            guarded[start..at(&cur)].fill(true);
            let start = at(&cur) + 8;
            cur.bytes().unwrap();
            guarded[start..at(&cur)].fill(true);
        }
    }
    assert_eq!(cur.remaining(), 0);
    guarded
}

fn is_checksum_error(result: Result<impl Sized, DataError>) -> bool {
    matches!(result, Err(DataError::Codec(m)) if m.contains("checksum"))
}

#[test]
fn hostile_model_files_are_rejected_cleanly() {
    let ctx = pretzel_core::flour::FlourContext::new();
    let image = ctx
        .text_source()
        .tokenize()
        .char_ngram(Arc::new(synth::char_ngram(3, 3, 32)))
        .classifier_linear(Arc::new(synth::linear(4, 32, LinearKind::Logistic)))
        .graph()
        .to_model_image();
    for cut in 0..image.len() {
        assert!(
            TransformGraph::from_model_image(&image[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Every single-bit flip. Inside an entry name or payload, or in a
    // stored checksum, it is a checksum error; in the remaining header
    // bytes (magic, counts, length prefixes, section names) it fails
    // cleanly or decodes to a graph that is then validated.
    let guarded = checksummed_bytes(&image);
    let mut bad = image.clone();
    for pos in 0..image.len() {
        for bit in 0..8 {
            bad[pos] ^= 1 << bit;
            let result = TransformGraph::from_model_image(&bad);
            if guarded[pos] {
                assert!(is_checksum_error(result), "flip of bit {bit} at {pos}");
            } else if let Ok(g) = result {
                let _ = g.validate_structure();
            }
            bad[pos] ^= 1 << bit;
        }
    }

    // The same flips on a stride through `Runtime::deploy`, next to a
    // resident copy whose checksums the store already holds: each is
    // still rejected, and leaves nothing behind.
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let resident = rt
        .deploy(&image, pretzel_core::DeployOptions::default())
        .unwrap();
    let score = rt.predict(resident, "a hostile review").unwrap();
    let store = rt.object_store();
    let (entries, unique) = (store.len(), store.unique_bytes());
    let positions: Vec<usize> = (0..image.len()).filter(|&p| guarded[p]).collect();
    for &pos in positions.iter().step_by(7) {
        bad[pos] ^= 1 << (pos % 8);
        let result = rt.deploy(&bad, pretzel_core::DeployOptions::default());
        assert!(is_checksum_error(result), "deploy with a flip at {pos}");
        bad[pos] ^= 1 << (pos % 8);
    }
    assert_eq!((store.len(), store.unique_bytes()), (entries, unique));
    assert_eq!(rt.plan_count(), 1);
    assert_eq!(rt.pool_outstanding(), 0);
    assert_eq!(
        rt.predict(resident, "a hostile review").unwrap().to_bits(),
        score.to_bits()
    );
}

#[test]
fn runtime_rejects_invalid_plans_at_registration() {
    use pretzel_core::plan::{BufDef, LogicalStage, StagePlan, Step};
    use pretzel_core::train_stats::NodeStats;
    use pretzel_data::ColumnType;
    // Empty plan.
    let empty = StagePlan {
        source_type: ColumnType::Text,
        slots: vec![BufDef::new(ColumnType::Text, 1)],
        stages: vec![],
        output_slot: 0,
        stats: NodeStats::default(),
    };
    // Plan reading a never-written slot.
    let lin = Arc::new(synth::linear(1, 4, LinearKind::Regression));
    let bad = StagePlan {
        source_type: ColumnType::F32Dense { len: 4 },
        slots: vec![
            BufDef::new(ColumnType::F32Dense { len: 4 }, 4),
            BufDef::new(ColumnType::F32Scalar, 1),
            BufDef::new(ColumnType::F32Dense { len: 4 }, 4),
        ],
        stages: vec![LogicalStage {
            steps: vec![Step {
                op: pretzel_core::plan::StageOp::Op(pretzel_ops::Op::Linear(lin)),
                inputs: vec![pretzel_core::plan::Loc::Slot(2)],
                output: pretzel_core::plan::Loc::Slot(1),
            }],
            scratch: vec![],
            reads: vec![2],
            writes: vec![1],
            dense: true,
            vectorizable: false,
        }],
        output_slot: 1,
        stats: NodeStats::default(),
    };
    // Registration validates with and without AOT compilation: a deferred
    // compile never sees a plan that was not checked.
    for aot in [true, false] {
        let rt = Runtime::new(RuntimeConfig {
            n_executors: 1,
            aot,
            ..RuntimeConfig::default()
        });
        assert!(rt.register(empty.clone()).is_err(), "aot {aot}");
        assert!(rt.register(bad.clone()).is_err(), "aot {aot}");
        assert!(rt.object_store().is_empty(), "aot {aot}: nothing pinned");
        // The runtime still registers and serves valid plans afterwards.
        let ctx = pretzel_core::flour::FlourContext::new();
        let good = ctx
            .dense_source(4)
            .classifier_linear(Arc::new(synth::linear(9, 4, LinearKind::Regression)))
            .plan()
            .unwrap();
        let id = rt.register(good).unwrap();
        assert!(rt.predict_dense(id, &[1.0; 4]).is_ok());
    }
}

#[test]
fn oversized_and_empty_requests_handled() {
    let (_rt, fe, id) = serve_one();
    let mut client = Client::connect_v2(fe.addr()).unwrap();
    // Zero-record batch.
    let scores = client
        .predict_many(&PredictRequest::batch(Vec::new()).plan(id))
        .unwrap();
    assert!(scores.is_empty());
    // A very long line still scores.
    let long = format!("5,{}", "word ".repeat(20_000));
    let score = client
        .predict(&PredictRequest::text(long).plan(id))
        .unwrap();
    assert!(score.is_finite());
    // Empty text field.
    let score = client
        .predict(&PredictRequest::text("5,").plan(id))
        .unwrap();
    assert!(score.is_finite());
    fe.stop();
}

#[test]
fn pool_warming_prevents_first_request_allocation_growth() {
    // After registration (which warms the request-response pool from plan
    // statistics), the first prediction's pool traffic is all hits.
    let ctx = pretzel_core::flour::FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let logical = tokens
        .char_ngram(Arc::new(synth::char_ngram(5, 3, 64)))
        .classifier_linear(Arc::new(synth::linear(6, 64, LinearKind::Logistic)))
        .plan()
        .unwrap();
    let rt = Runtime::new(RuntimeConfig {
        n_executors: 1,
        ..RuntimeConfig::default()
    });
    let id = rt.register(logical).unwrap();
    let a = rt.predict(id, "4,warm start please").unwrap();
    let b = rt.predict(id, "4,warm start please").unwrap();
    assert_eq!(a, b);
}

/// A line without the selected field is answered with a short error,
/// however long the line: the message quotes a capped excerpt and the
/// line's length, and the fused text step and the unfused operators
/// return the same typed error, in process and over the front end.
#[test]
fn missing_field_error_quotes_a_capped_excerpt() {
    use pretzel_core::physical::SourceRef;
    use pretzel_ops::feat::normalizer::{NormKind, NormalizerParams};
    // No separator, so no field 1; a two-byte char straddles the cut.
    let line = format!("{}é{}", "x".repeat(63), "y".repeat(8 << 20));
    let excerpt = format!("`{}...` ({} bytes)", "x".repeat(63), line.len());
    let ctx = pretzel_core::flour::FlourContext::new();
    let tokens = ctx.csv(',').select_text(1).tokenize();
    let chars = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
    let pairs = tokens.char_ngram(Arc::new(synth::char_ngram(3, 2, 32)));
    let features = chars.concat(&pairs);
    let linear = Arc::new(synth::linear(2, 96, LinearKind::Logistic));
    // The plain shape fuses into one text step. A normalizer between the
    // n-grams and the model keeps the linear model from splitting into
    // partial dots, which the fusion rule needs, so that plan runs the
    // unfused operators.
    let normalized = features.normalize(Arc::new(NormalizerParams::new(NormKind::L2, 96)));
    let mut messages = Vec::new();
    for (flour, fused) in [(features, true), (normalized, false)] {
        let graph = flour.classifier_linear(Arc::clone(&linear)).graph();
        let logical = pretzel_core::oven::optimize(&graph).unwrap().plan;
        let rt = Arc::new(Runtime::new(RuntimeConfig {
            n_executors: 1,
            ..RuntimeConfig::default()
        }));
        let id = rt.register(logical).unwrap();
        let plan = rt.plan(id).unwrap();
        let steps: Vec<&str> = plan
            .stages
            .iter()
            .flat_map(|s| &s.steps)
            .map(|s| s.op.name())
            .collect();
        assert_eq!(steps.contains(&"FusedText"), fused, "{steps:?}");
        let local = rt.predict_source(id, SourceRef::Text(&line)).unwrap_err();
        let DataError::BadInput(msg) = &local else {
            panic!("expected a bad-input error, got {local:?}");
        };
        assert!(msg.contains(&excerpt), "{msg}");
        assert!(msg.len() < 160, "{} bytes: {msg}", msg.len());

        let fe = FrontEnd::serve(Arc::clone(&rt), FrontEndConfig::default()).unwrap();
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let remote = client.predict(&PredictRequest::text(&line).plan(id));
        assert_eq!(remote, Err(local.clone()));
        // The connection still serves.
        let score = client
            .predict(&PredictRequest::text("3,still alive").plan(id))
            .unwrap();
        assert!(score.is_finite());
        fe.stop();
        messages.push(local);
    }
    assert_eq!(messages[0], messages[1]);
}

//! Container-per-model deployment.
//!
//! Clipper-managed ML.Net "deploys pipelines as Docker containers connected
//! through RPC to a front end" (paper §7; §5 runs one container per model).
//! A [`Container`] reproduces the two costs the paper attributes to this
//! design:
//!
//! * **memory duplication** — each container holds a private
//!   [`BlackBoxModel`] (own parameter copies) plus a committed
//!   container-runtime overhead allocation (the Docker/WSL footprint
//!   analogue, configurable);
//! * **RPC on the prediction path** — requests arrive over loopback TCP,
//!   paying real syscalls, copies and context switches per hop.
//!
//! The wire format is the FrontEnd protocol of
//! [`pretzel_core::frontend`] with the leading `plan_id` stripped — the
//! Clipper front end routes by plan id and forwards the rest of the frame
//! verbatim.

use crate::blackbox::BlackBoxModel;
use parking_lot::Mutex;
use pretzel_core::frontend::wire::encode_response;
use pretzel_core::physical::SourceRef;
use pretzel_data::{DataError, Result};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Container deployment options.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// Committed bytes representing the container runtime footprint.
    pub overhead_bytes: usize,
    /// Warm the model at start (paper keeps served models warm; cold-start
    /// experiments disable this).
    pub preload: bool,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            overhead_bytes: 1 << 20,
            preload: true,
        }
    }
}

/// One model container: private model state + RPC server.
pub struct Container {
    addr: SocketAddr,
    model: Arc<Mutex<BlackBoxModel>>,
    overhead: Vec<u8>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("addr", &self.addr)
            .field("overhead_bytes", &self.overhead.len())
            .finish()
    }
}

impl Container {
    /// Starts a container serving the model in `image`.
    pub fn spawn(image: Arc<Vec<u8>>, config: ContainerConfig) -> std::io::Result<Container> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut model = BlackBoxModel::from_image(image);
        if config.preload {
            model
                .warm_up()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        }
        let model = Arc::new(Mutex::new(model));
        // Commit the overhead pages so the footprint is real, not virtual.
        let mut overhead = vec![0u8; config.overhead_bytes];
        for i in (0..overhead.len()).step_by(4096) {
            overhead[i] = 1;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let served = Arc::clone(&model);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let model = Arc::clone(&served);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, model);
                });
            }
        });
        Ok(Container {
            addr,
            model,
            overhead,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address of the container's RPC endpoint.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Evicts the model (infrequent-access scenario).
    pub fn unload(&self) {
        self.model.lock().unload();
    }

    /// Total container footprint: model state + runtime overhead.
    pub fn memory_bytes(&self) -> usize {
        self.model.lock().memory_bytes() + self.overhead.len()
    }

    /// Stops the container and joins its threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Container {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one length-prefixed frame; `None` on clean EOF.
pub(crate) fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > 64 << 20 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one length-prefixed frame.
pub(crate) fn write_frame(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(body)
}

fn serve_connection(
    mut stream: TcpStream,
    model: Arc<Mutex<BlackBoxModel>>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    loop {
        let body = match read_frame(&mut stream)? {
            Some(b) => b,
            None => return Ok(()),
        };
        let reply = encode_response(&handle_request(&body, &model));
        write_frame(&mut stream, &reply)?;
    }
}

/// Decodes a container request body (`kind_flags · records`) and scores it.
pub(crate) fn handle_request(body: &[u8], model: &Mutex<BlackBoxModel>) -> Result<Vec<f32>> {
    let mut cur = pretzel_data::serde_bin::Cursor::new(body);
    let kind_flags = cur.u32()?;
    let kind = (kind_flags & 0xff) as u8;
    let n = (kind_flags >> 16) as usize;
    let mut texts: Vec<String> = Vec::new();
    let mut denses: Vec<Vec<f32>> = Vec::new();
    for _ in 0..n {
        match kind {
            0 => texts.push(cur.str()?),
            1 => denses.push(cur.f32s()?),
            k => return Err(DataError::BadInput(format!("bad record kind {k}"))),
        }
    }
    let mut model = model.lock();
    let mut scores = Vec::with_capacity(n);
    for t in &texts {
        scores.push(model.predict(SourceRef::Text(t))?);
    }
    for d in &denses {
        scores.push(model.predict(SourceRef::Dense(d))?);
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretzel_core::flour::FlourContext;
    use pretzel_ops::linear::LinearKind;
    use pretzel_ops::synth;

    fn sa_image(seed: u64) -> Arc<Vec<u8>> {
        let vocab = synth::vocabulary(0, 32);
        let ctx = FlourContext::new();
        let tokens = ctx.csv(',').select_text(1).tokenize();
        let c = tokens.char_ngram(Arc::new(synth::char_ngram(1, 3, 64)));
        let w = tokens.word_ngram(Arc::new(synth::word_ngram(2, 2, 64, &vocab)));
        let graph = c
            .concat(&w)
            .classifier_linear(Arc::new(synth::linear(seed, 128, LinearKind::Logistic)))
            .graph();
        Arc::new(graph.to_model_image())
    }

    fn rpc(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, body).unwrap();
        read_frame(&mut stream).unwrap().unwrap()
    }

    fn text_request(lines: &[&str]) -> Vec<u8> {
        let mut body = Vec::new();
        let kind_flags = (lines.len() as u32) << 16;
        body.extend_from_slice(&kind_flags.to_le_bytes());
        for l in lines {
            body.extend_from_slice(&(l.len() as u32).to_le_bytes());
            body.extend_from_slice(l.as_bytes());
        }
        body
    }

    #[test]
    fn container_serves_predictions_over_rpc() {
        let image = sa_image(1);
        let mut reference = BlackBoxModel::from_image(Arc::clone(&image));
        let expect = reference.predict(SourceRef::Text("5,nice")).unwrap();

        let container = Container::spawn(image, ContainerConfig::default()).unwrap();
        let reply = rpc(container.addr(), &text_request(&["5,nice"]));
        assert_eq!(reply[0], 0, "status ok");
        let n = u32::from_le_bytes([reply[1], reply[2], reply[3], reply[4]]);
        assert_eq!(n, 1);
        let score = f32::from_le_bytes([reply[5], reply[6], reply[7], reply[8]]);
        assert!((score - expect).abs() < 1e-6);
        container.stop();
    }

    #[test]
    fn container_memory_includes_overhead_and_model() {
        let container = Container::spawn(
            sa_image(2),
            ContainerConfig {
                overhead_bytes: 1 << 16,
                preload: true,
            },
        )
        .unwrap();
        let total = container.memory_bytes();
        assert!(total > 1 << 16, "model state on top of overhead");
        container.unload();
        assert_eq!(container.memory_bytes(), 1 << 16);
        container.stop();
    }

    #[test]
    fn bad_request_returns_error_status() {
        let container = Container::spawn(sa_image(3), ContainerConfig::default()).unwrap();
        // kind 7 is invalid (and one record is claimed, so it is decoded).
        let mut body = Vec::new();
        body.extend_from_slice(&(7u32 | (1 << 16)).to_le_bytes());
        let reply = rpc(container.addr(), &body);
        assert_eq!(reply[0], 1, "status err");
        let err = DataError::decode(&mut pretzel_data::serde_bin::Cursor::new(&reply[1..]));
        assert_eq!(err, Ok(DataError::BadInput("bad record kind 7".into())));
        container.stop();
    }

    #[test]
    fn multiple_requests_on_one_connection() {
        let container = Container::spawn(sa_image(4), ContainerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(container.addr()).unwrap();
        for line in ["1,a", "2,bb", "3,ccc"] {
            write_frame(&mut stream, &text_request(&[line])).unwrap();
            let reply = read_frame(&mut stream).unwrap().unwrap();
            assert_eq!(reply[0], 0);
        }
        container.stop();
    }
}

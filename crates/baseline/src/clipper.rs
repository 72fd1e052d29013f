//! Clipper-style front end over model containers.
//!
//! Clipper "deploys pipelines as Docker containers connected through RPC to
//! a front end" and applies "external model-agnostic techniques" — result
//! caching and batching — "to achieve better latency, throughput, and
//! accuracy" (paper §7). [`ClipperFrontEnd`] reproduces the serving path of
//! the paper's *ML.Net + Clipper* configuration: it answers the same wire
//! frames as PRETZEL's FrontEnd, one request at a time (so benchmarks drive
//! both systems with one [`pretzel_core::frontend::Client`]), routes each
//! request to the target model's [`Container`](crate::container::Container)
//! over a second, length-prefixed TCP hop, and optionally caches
//! prediction results.

use crate::container;
use parking_lot::Mutex;
use pretzel_core::frontend::wire::{encode_response, V2_HEADER_BYTES, WIRE_MAGIC, WIRE_V2};
use pretzel_core::frontend::MAX_FRAME_BYTES;
use pretzel_core::lru::LruCache;
use pretzel_data::hash::fnv1a;
use pretzel_data::{DataError, Result};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Clipper front-end options.
#[derive(Debug, Clone, Default)]
pub struct ClipperConfig {
    /// Byte budget of the prediction-result cache; 0 disables it.
    pub result_cache_bytes: usize,
}

type ResultCache = Arc<Mutex<LruCache<(u32, u64), Vec<u8>>>>;

/// The Clipper-style routing front end.
pub struct ClipperFrontEnd {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ClipperFrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClipperFrontEnd")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ClipperFrontEnd {
    /// Starts the front end routing `plan_id → container address`.
    pub fn serve(
        routes: HashMap<u32, SocketAddr>,
        config: ClipperConfig,
    ) -> std::io::Result<ClipperFrontEnd> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cache: Option<ResultCache> = (config.result_cache_bytes > 0)
            .then(|| Arc::new(Mutex::new(LruCache::new(config.result_cache_bytes))));
        let routes = Arc::new(routes);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let routes = Arc::clone(&routes);
                let cache = cache.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, routes, cache);
                });
            }
        });
        Ok(ClipperFrontEnd {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address clients connect to (FrontEnd-protocol compatible).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the front end.
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

impl Drop for ClipperFrontEnd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    routes: Arc<HashMap<u32, SocketAddr>>,
    cache: Option<ResultCache>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // Connections to containers opened lazily and kept for this client.
    let mut backends: HashMap<u32, TcpStream> = HashMap::new();
    while let Some((request_id, body)) = read_request(&mut stream)? {
        let reply = route_request(&body, &routes, &mut backends, &cache)
            .unwrap_or_else(|e| encode_response(&Err(e)));
        let mut frame = Vec::with_capacity(V2_HEADER_BYTES + reply.len());
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.extend_from_slice(&[WIRE_V2, 0, 0, 0]); // version, flags, reserved
        frame.extend_from_slice(&request_id.to_le_bytes());
        frame.extend_from_slice(&(reply.len() as u32).to_le_bytes());
        frame.extend_from_slice(&reply);
        stream.write_all(&frame)?;
    }
    Ok(())
}

/// Reads one client request frame as `(request_id, body)`; `None` on a
/// clean end of stream. A frame that is not wire v2 or announces a body
/// over [`MAX_FRAME_BYTES`] is an error, before anything is allocated.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<(u32, Vec<u8>)>> {
    let mut head = [0u8; V2_HEADER_BYTES];
    match stream.read_exact(&mut head) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let word = |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
    let len = word(12) as usize;
    if head[..4] != WIRE_MAGIC || head[4] != WIRE_V2 || len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad request frame",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some((word(8), body)))
}

fn route_request(
    body: &[u8],
    routes: &HashMap<u32, SocketAddr>,
    backends: &mut HashMap<u32, TcpStream>,
    cache: &Option<ResultCache>,
) -> Result<Vec<u8>> {
    // FrontEnd protocol: u32 plan_id, then the container body verbatim.
    if body.len() < 8 {
        return Err(DataError::Codec("short request".into()));
    }
    let plan = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    let forward = &body[4..];
    let flags = forward[1]; // kind_flags byte 1 = flags
    let use_cache = cache.is_some() && flags & pretzel_core::frontend::FLAG_RESULT_CACHE != 0;
    let key = (plan, fnv1a(forward));
    if use_cache {
        if let Some(hit) = cache.as_ref().and_then(|c| c.lock().get(&key).cloned()) {
            return Ok(hit);
        }
    }
    let addr = routes.get(&plan).ok_or(DataError::UnknownPlan(plan))?;
    let backend = match backends.entry(plan) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let s = TcpStream::connect(addr)
                .map_err(|e| DataError::Runtime(format!("container connect: {e}")))?;
            s.set_nodelay(true).ok();
            e.insert(s)
        }
    };
    send_with_retry(backend, addr, forward)
        .inspect(|reply| {
            if use_cache {
                if let Some(c) = cache {
                    let cost = reply.len() + 32;
                    c.lock().insert(key, reply.clone(), cost);
                }
            }
        })
        .map_err(|e| DataError::Runtime(format!("container rpc: {e}")))
}

fn send_with_retry(
    backend: &mut TcpStream,
    addr: &SocketAddr,
    body: &[u8],
) -> std::io::Result<Vec<u8>> {
    match rpc_once(backend, body) {
        Ok(reply) => Ok(reply),
        Err(_) => {
            // The cached connection may have gone stale; reconnect once.
            *backend = TcpStream::connect(addr)?;
            backend.set_nodelay(true)?;
            rpc_once(backend, body)
        }
    }
}

fn rpc_once(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<Vec<u8>> {
    container::write_frame(stream, body)?;
    container::read_frame(stream)?.ok_or_else(|| std::io::ErrorKind::UnexpectedEof.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::BlackBoxModel;
    use crate::container::{Container, ContainerConfig};
    use pretzel_core::flour::FlourContext;
    use pretzel_core::frontend::{Client, PredictRequest};
    use pretzel_core::physical::SourceRef;
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

    fn deploy(n: usize) -> (Vec<Container>, ClipperFrontEnd, Vec<Arc<Vec<u8>>>) {
        let images: Vec<_> = (0..n as u64).map(sa_image).collect();
        let containers: Vec<_> = images
            .iter()
            .map(|img| {
                Container::spawn(
                    Arc::clone(img),
                    ContainerConfig {
                        overhead_bytes: 1 << 12,
                        preload: true,
                    },
                )
                .unwrap()
            })
            .collect();
        let routes: HashMap<u32, SocketAddr> = containers
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u32, c.addr()))
            .collect();
        let fe = ClipperFrontEnd::serve(routes, ClipperConfig::default()).unwrap();
        (containers, fe, images)
    }

    #[test]
    fn client_routes_through_clipper_to_the_right_container() {
        let (containers, fe, images) = deploy(3);
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        for (i, image) in images.iter().enumerate() {
            let mut reference = BlackBoxModel::from_image(Arc::clone(image));
            let expect = reference.predict(SourceRef::Text("5,nice thing")).unwrap();
            let got = client
                .predict(&PredictRequest::text("5,nice thing").plan(i as u32))
                .unwrap();
            assert!((got - expect).abs() < 1e-6, "plan {i}: {got} vs {expect}");
        }
        fe.stop();
        for c in containers {
            c.stop();
        }
    }

    #[test]
    fn unknown_plan_is_an_error() {
        let (containers, fe, _) = deploy(1);
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let err = client.predict(&PredictRequest::text("1,x").plan(9));
        assert_eq!(err, Err(pretzel_data::DataError::UnknownPlan(9)));
        fe.stop();
        for c in containers {
            c.stop();
        }
    }

    #[test]
    fn result_cache_short_circuits_repeats() {
        let images = [sa_image(0)];
        let container = Container::spawn(
            Arc::clone(&images[0]),
            ContainerConfig {
                overhead_bytes: 1 << 12,
                preload: true,
            },
        )
        .unwrap();
        let routes: HashMap<u32, SocketAddr> = [(0u32, container.addr())].into();
        let fe = ClipperFrontEnd::serve(
            routes,
            ClipperConfig {
                result_cache_bytes: 1 << 16,
            },
        )
        .unwrap();
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let a = client
            .predict(&PredictRequest::text("5,same line").plan(0).cached())
            .unwrap();
        // Kill the container: a cache hit must still answer.
        container.stop();
        let b = client
            .predict(&PredictRequest::text("5,same line").plan(0).cached())
            .unwrap();
        assert_eq!(a, b);
        fe.stop();
    }

    #[test]
    fn batch_request_via_clipper() {
        let (containers, fe, _) = deploy(1);
        let mut client = Client::connect_v2(fe.addr()).unwrap();
        let scores = client
            .predict_many(&PredictRequest::text_batch(["1,a", "5,great stuff", "2,so so"]).plan(0))
            .unwrap();
        assert_eq!(scores.len(), 3);
        fe.stop();
        for c in containers {
            c.stop();
        }
    }
}

//! Socket-backed transport: TCP or Unix-domain links carrying the
//! length-prefixed frames of `rdb_consensus::codec`.
//!
//! Where [`crate::transport::InProcTransport`] moves [`Envelope`]s over
//! crossbeam channels, this transport serializes them: every registered
//! node gets a loopback listener, and each `from -> to` link lazily
//! opens one outbound connection on first send. A deployment can
//! therefore span OS processes — peers in another process are wired in
//! with [`SocketTransport::advertise`] and a shared handshake epoch —
//! while the default single-process loopback keeps the whole fabric
//! testable in one test binary.
//!
//! # Handshake
//!
//! On connect both sides exchange `MAGIC ‖ VERSION ‖ node-id ‖ epoch`
//! (20 bytes, node id per [`rdb_consensus::codec::NODE_ID_BYTES`]). The
//! connector verifies the listener is the node it dialed; both verify
//! the epoch — a nonce shared by every transport of one deployment
//! incarnation — so a socket held open by a *previous* incarnation (or
//! a stale reconnecting peer) is refused instead of injecting old
//! traffic into a new run. The listener then holds the connection to
//! the identity it was opened under: a link carries one directed pair, so
//! the first frame whose `from` is not the handshake peer, or whose `to`
//! is not the listener's node, drops the connection — a connected peer
//! cannot speak (or vote) as anybody else.
//!
//! # Reconnect
//!
//! A failed connect or write tears the link down and backs off
//! exponentially ([`INITIAL_BACKOFF`] doubling to [`MAX_BACKOFF`]);
//! messages sent while a link is down are dropped. That is the same
//! lossy-network contract BFT already assumes — client retry and
//! protocol timers recover, exactly as they do for shed traffic — so no
//! send-side queue can grow without bound. Successful re-establishment
//! after a drop increments the per-link reconnect counter in
//! [`Metrics`].
//!
//! # Backpressure
//!
//! A reader thread delivers decoded frames into the same bounded
//! input-stage inboxes the in-process transport uses: droppable
//! traffic is shed at the bound, and a non-droppable `Request` *blocks
//! the reader*. Frames behind it then queue in the kernel socket
//! buffer until the sender's `write` blocks — admission control
//! propagates to the submitting client through TCP flow control rather
//! than a parked thread, coarser than in-process blocking but the same
//! end state (see the decision table in `docs/ARCHITECTURE.md`).

use crate::metrics::Metrics;
use crate::queue::QueuePolicy;
use crate::transport::{Envelope, Inboxes, OnFull, Transport, TransportHandle};
use parking_lot::Mutex;
use rdb_common::ids::NodeId;
use rdb_consensus::codec::{self, WireCodec, MAX_FRAME, NODE_ID_BYTES};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handshake magic.
const MAGIC: [u8; 4] = *b"RDBW";
/// Wire protocol version (bumped on any frame-layout change).
const VERSION: u8 = 1;
/// Handshake length: magic + version + node id + epoch.
const HANDSHAKE_BYTES: usize = 4 + 1 + NODE_ID_BYTES + 8;

/// First retry delay after a link goes down.
pub const INITIAL_BACKOFF: Duration = Duration::from_millis(10);
/// Backoff ceiling.
pub const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// Poll interval of the non-blocking accept loops and the read-timeout
/// of reader threads: the worst-case latency for noticing shutdown.
const POLL: Duration = Duration::from_millis(5);

static EPOCH_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A process-unique deployment epoch: listeners refuse peers from a
/// different one. Multi-process deployments pass one shared value to
/// [`SocketTransport::with_epoch`] instead.
pub fn fresh_epoch() -> u64 {
    ((std::process::id() as u64) << 32) | EPOCH_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Which socket family carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// TCP over 127.0.0.1 (ephemeral ports).
    Tcp,
    /// Unix-domain sockets in the system temp directory (unix only).
    Uds,
}

/// Where a peer listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAddr {
    /// A TCP address.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

enum SockStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl SockStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            SockStream::Uds(s) => s.set_read_timeout(dur),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            SockStream::Uds(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            SockStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            SockStream::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            SockStream::Uds(s) => s.flush(),
        }
    }
}

enum SockListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

impl SockListener {
    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            SockListener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            SockListener::Uds(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> std::io::Result<SockStream> {
        match self {
            SockListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(SockStream::Tcp(s))
            }
            #[cfg(unix)]
            SockListener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(SockStream::Uds(s))
            }
        }
    }
}

/// Outbound state of one `from -> to` link. Per-link mutex: a write
/// parked on a full kernel buffer stalls only this link, never the
/// whole transport.
struct LinkState {
    stream: Option<SockStream>,
    codec: WireCodec,
    backoff: Duration,
    down_until: Option<Instant>,
    /// Successful connections so far (≥ 1 ⇒ the next success is a
    /// *re*connect).
    generation: u64,
}

impl LinkState {
    fn new() -> LinkState {
        LinkState {
            stream: None,
            codec: WireCodec::new(),
            backoff: INITIAL_BACKOFF,
            down_until: None,
            generation: 0,
        }
    }

    fn mark_down(&mut self, now: Instant) {
        self.stream = None;
        self.down_until = Some(now + self.backoff);
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
    }
}

/// Link table: each directed link is individually locked (see
/// [`LinkState`]), so the outer map lock is only held to look one up.
type LinkTable = Mutex<HashMap<(NodeId, NodeId), Arc<Mutex<LinkState>>>>;

struct SockShared {
    kind: SocketKind,
    epoch: u64,
    inboxes: Inboxes,
    addrs: Mutex<HashMap<NodeId, WireAddr>>,
    links: LinkTable,
    partitions: crate::transport::PartitionSet,
    running: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    uds_paths: Mutex<Vec<PathBuf>>,
    uds_seq: AtomicU64,
    metrics: Metrics,
}

/// The socket transport. Cloneable handle, like
/// [`crate::transport::InProcTransport`].
#[derive(Clone)]
pub struct SocketTransport {
    shared: Arc<SockShared>,
}

impl SocketTransport {
    /// A transport with a fresh [`fresh_epoch`] (single-process
    /// deployments; every transport clone shares it).
    pub fn new(kind: SocketKind, metrics: Option<Metrics>) -> SocketTransport {
        SocketTransport::with_epoch(kind, fresh_epoch(), metrics)
    }

    /// A transport with an explicit handshake epoch — every process of
    /// one multi-process deployment must pass the same value.
    pub fn with_epoch(kind: SocketKind, epoch: u64, metrics: Option<Metrics>) -> SocketTransport {
        #[cfg(not(unix))]
        assert!(
            kind != SocketKind::Uds,
            "unix-domain sockets are unavailable on this platform"
        );
        let metrics = metrics.unwrap_or_default();
        SocketTransport {
            shared: Arc::new(SockShared {
                kind,
                epoch,
                inboxes: Inboxes::new(metrics.clone()),
                addrs: Mutex::new(HashMap::new()),
                links: Mutex::new(HashMap::new()),
                partitions: crate::transport::PartitionSet::new(),
                running: AtomicBool::new(true),
                threads: Mutex::new(Vec::new()),
                uds_paths: Mutex::new(Vec::new()),
                uds_seq: AtomicU64::new(0),
                metrics,
            }),
        }
    }

    /// The deployment epoch this transport handshakes with.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Register a node with an unbounded inbox (clients, tests). Binds
    /// a listener and starts accepting.
    pub fn register(&self, node: NodeId) -> TransportHandle {
        self.handle(node, None)
    }

    /// Register a node whose inbox is the bounded input-stage queue of
    /// its pipeline (same policy semantics as
    /// [`crate::transport::InProcTransport::register_bounded`]).
    pub fn register_bounded(&self, node: NodeId, policy: QueuePolicy) -> TransportHandle {
        self.handle(node, Some(policy))
    }

    fn handle(&self, node: NodeId, policy: Option<QueuePolicy>) -> TransportHandle {
        let rx = self.shared.inboxes.register(node, policy);
        let needs_listener = !self.shared.addrs.lock().contains_key(&node);
        if needs_listener {
            self.spawn_listener(node);
        }
        TransportHandle::from_parts(node, rx, Transport::Socket(self.clone()))
    }

    /// Record where a *remote* peer (typically in another process)
    /// listens, so local sends can reach it. Local registrations
    /// advertise themselves automatically.
    pub fn advertise(&self, node: NodeId, addr: WireAddr) {
        self.shared.addrs.lock().insert(node, addr);
    }

    /// Where `node` listens (to hand to another process's
    /// [`SocketTransport::advertise`]).
    pub fn listen_addr(&self, node: NodeId) -> Option<WireAddr> {
        self.shared.addrs.lock().get(&node).cloned()
    }

    /// Schedule a partition (same contract as the in-process
    /// transport: crossing messages are dropped at send time).
    pub fn partition(
        &self,
        side_a: Vec<NodeId>,
        side_b: Vec<NodeId>,
        from: Duration,
        until: Duration,
    ) {
        self.shared.partitions.add(side_a, side_b, from, until);
    }

    /// Send an envelope over the link's connection, opening or
    /// re-opening it as needed. Down links drop (lossy network).
    pub fn send(&self, env: Envelope) {
        if self.shared.partitions.is_cut(env.from, env.to) {
            return; // dropped at the cut, like a crashed link
        }
        self.send_frame(env);
    }

    /// Non-blocking contract of
    /// [`crate::transport::InProcTransport::try_send`]: on sockets the
    /// kernel buffer plays the delay wheel's role — a sent frame is "in
    /// the network" — so the message is always accounted for.
    pub fn try_send(&self, env: Envelope) -> bool {
        self.send(env);
        true
    }

    /// Remove a node's inbox (crash tests): frames for it still arrive
    /// at its listener but are dropped at delivery.
    pub fn disconnect(&self, node: NodeId) {
        self.shared.inboxes.disconnect(node);
    }

    /// Stop accept/reader threads, close outbound connections and
    /// remove any Unix socket files. Blocked reader deliveries release
    /// when the replica pipelines drop their inbox receivers, so
    /// deployments stop replicas before the transport (see
    /// `Fabric::stop_all`).
    pub fn shutdown(&self) {
        self.shared.running.store(false, Ordering::SeqCst);
        // Drop outbound streams so peer readers see EOF promptly.
        for (_, link) in self.shared.links.lock().iter() {
            link.lock().stream = None;
        }
        let threads: Vec<_> = self.shared.threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
        for path in self.shared.uds_paths.lock().drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }

    // ------------------------------------------------------------------
    // Outbound path
    // ------------------------------------------------------------------

    fn link(&self, from: NodeId, to: NodeId) -> Arc<Mutex<LinkState>> {
        self.shared
            .links
            .lock()
            .entry((from, to))
            .or_insert_with(|| Arc::new(Mutex::new(LinkState::new())))
            .clone()
    }

    fn send_frame(&self, env: Envelope) {
        let link = self.link(env.from, env.to);
        let mut l = link.lock();
        let now = Instant::now();
        if let Some(until) = l.down_until {
            if now < until {
                return; // link down: drop, reconnect after backoff
            }
        }
        if l.stream.is_none() {
            match self.connect(env.from, env.to) {
                Ok(stream) => {
                    if l.generation > 0 {
                        self.shared.metrics.net_reconnect(env.from, env.to);
                    }
                    l.generation += 1;
                    l.stream = Some(stream);
                    l.backoff = INITIAL_BACKOFF;
                    l.down_until = None;
                }
                Err(_) => {
                    l.mark_down(now);
                    return;
                }
            }
        }
        let LinkState { stream, codec, .. } = &mut *l;
        let frame = codec.encode_frame(env.from, env.to, &env.msg);
        let sent = frame.len() as u64;
        match stream.as_mut().expect("connected above").write_all(frame) {
            Ok(()) => self.shared.metrics.net_sent(env.from, env.to, sent),
            Err(_) => l.mark_down(now),
        }
    }

    /// Dial `to` and run the connector side of the handshake.
    fn connect(&self, from: NodeId, to: NodeId) -> std::io::Result<SockStream> {
        let addr = self
            .shared
            .addrs
            .lock()
            .get(&to)
            .cloned()
            .ok_or_else(|| std::io::Error::new(ErrorKind::NotFound, "peer not registered"))?;
        let mut stream = dial(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.write_all(&handshake(from, self.shared.epoch))?;
        let peer = read_handshake(&mut stream, self.shared.epoch)?;
        if peer != to {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "handshake peer is not the node dialed",
            ));
        }
        Ok(stream)
    }

    // ------------------------------------------------------------------
    // Inbound path
    // ------------------------------------------------------------------

    fn spawn_listener(&self, node: NodeId) {
        let (listener, addr) = match self.shared.kind {
            SocketKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
                let addr = WireAddr::Tcp(l.local_addr().expect("listener addr"));
                (SockListener::Tcp(l), addr)
            }
            #[cfg(unix)]
            SocketKind::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "rdb-{}-{:x}-{}.sock",
                    std::process::id(),
                    self.shared.epoch,
                    self.shared.uds_seq.fetch_add(1, Ordering::Relaxed),
                ));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path).expect("bind unix listener");
                self.shared.uds_paths.lock().push(path.clone());
                (SockListener::Uds(l), WireAddr::Uds(path))
            }
            #[cfg(not(unix))]
            SocketKind::Uds => unreachable!("rejected in the constructor"),
        };
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        self.shared.addrs.lock().insert(node, addr);
        let me = self.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rdb-accept-{node:?}"))
            .spawn(move || me.accept_loop(listener, node))
            .expect("spawn accept loop");
        self.shared.threads.lock().push(handle);
    }

    fn accept_loop(&self, listener: SockListener, node: NodeId) {
        while self.shared.running.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(stream) => {
                    let me = self.clone();
                    let handle = std::thread::Builder::new()
                        .name(format!("rdb-read-{node:?}"))
                        .spawn(move || me.serve_conn(stream, node))
                        .expect("spawn reader");
                    self.shared.threads.lock().push(handle);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    std::thread::sleep(POLL);
                }
                Err(_) => std::thread::sleep(POLL),
            }
        }
    }

    /// One inbound connection: handshake, then decode frames until EOF,
    /// error, or shutdown. A corrupt frame closes the connection — the
    /// peer reconnects with fresh framing, so one bad frame can never
    /// desync a long-lived stream — and so does a frame that is not from
    /// the handshake peer to this listener's node.
    fn serve_conn(&self, mut stream: SockStream, node: NodeId) {
        if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
            return;
        }
        let Ok(peer) = read_handshake(&mut stream, self.shared.epoch) else {
            return; // wrong magic/version/epoch: refuse stale peers
        };
        let reply = handshake(node, self.shared.epoch);
        if stream.write_all(&reply).is_err() {
            return;
        }
        let mut len_buf = [0u8; 4];
        let mut body = Vec::new();
        loop {
            match self.read_full(&mut stream, &mut len_buf) {
                Ok(true) => {}
                _ => return,
            }
            let len = u32::from_le_bytes(len_buf) as usize;
            if !(codec::FRAME_OVERHEAD - 4..=MAX_FRAME).contains(&len) {
                return; // desynced or hostile length: drop connection
            }
            body.resize(len, 0);
            match self.read_full(&mut stream, &mut body) {
                Ok(true) => {}
                _ => return,
            }
            match codec::decode_frame_body(&body) {
                // A connection carries one directed link: a frame under
                // any other name is a peer voting as somebody else, or
                // reaching into an inbox it did not dial.
                Ok((from, to, _)) if from != peer || to != node => return,
                Ok((from, to, msg)) => {
                    self.shared.metrics.net_received(from, to, (4 + len) as u64);
                    // Same input-stage policy as the in-process mesh: a
                    // non-droppable frame at a full inbox parks this
                    // reader (see the module docs on backpressure).
                    self.shared
                        .inboxes
                        .deliver(Envelope { from, to, msg }, OnFull::Park);
                }
                Err(_) => return,
            }
        }
    }

    /// Fill `buf` completely, retrying across read timeouts while the
    /// transport runs. `Ok(false)` = clean stop (EOF or shutdown).
    fn read_full(&self, stream: &mut SockStream, buf: &mut [u8]) -> std::io::Result<bool> {
        let mut pos = 0;
        while pos < buf.len() {
            if !self.shared.running.load(Ordering::SeqCst) {
                return Ok(false);
            }
            match stream.read(&mut buf[pos..]) {
                Ok(0) => return Ok(false),
                Ok(n) => pos += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// Open a connection to a listener at `addr`.
fn dial(addr: WireAddr) -> std::io::Result<SockStream> {
    match addr {
        WireAddr::Tcp(a) => {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            Ok(SockStream::Tcp(s))
        }
        #[cfg(unix)]
        WireAddr::Uds(p) => Ok(SockStream::Uds(UnixStream::connect(p)?)),
        #[cfg(not(unix))]
        WireAddr::Uds(_) => Err(std::io::Error::new(
            ErrorKind::Unsupported,
            "unix-domain sockets unavailable",
        )),
    }
}

/// The handshake `node` sends in deployment `epoch`.
fn handshake(node: NodeId, epoch: u64) -> Vec<u8> {
    let mut hello = Vec::with_capacity(HANDSHAKE_BYTES);
    hello.extend_from_slice(&MAGIC);
    hello.push(VERSION);
    codec::encode_node_id(&mut hello, node);
    hello.extend_from_slice(&epoch.to_le_bytes());
    hello
}

/// Read and validate one handshake, returning the peer's node id.
fn read_handshake(stream: &mut SockStream, epoch: u64) -> std::io::Result<NodeId> {
    let mut buf = [0u8; HANDSHAKE_BYTES];
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut pos = 0;
    while pos < buf.len() {
        match stream.read(&mut buf[pos..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => pos += n,
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                if Instant::now() >= deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    if buf[..4] != MAGIC || buf[4] != VERSION {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "bad handshake magic/version",
        ));
    }
    let mut node = [0u8; NODE_ID_BYTES];
    node.copy_from_slice(&buf[5..5 + NODE_ID_BYTES]);
    let node = codec::decode_node_id(&node)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let peer_epoch = u64::from_le_bytes(buf[5 + NODE_ID_BYTES..].try_into().expect("8 bytes"));
    if peer_epoch != epoch {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "handshake epoch mismatch (stale peer)",
        ));
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_common::ids::ReplicaId;
    use rdb_consensus::messages::Message;

    fn kinds() -> Vec<SocketKind> {
        let mut k = vec![SocketKind::Tcp];
        if cfg!(unix) {
            k.push(SocketKind::Uds);
        }
        k
    }

    #[test]
    fn loopback_delivery_over_both_kinds() {
        for kind in kinds() {
            let t = SocketTransport::new(kind, None);
            let a: NodeId = ReplicaId::new(0, 0).into();
            let b: NodeId = ReplicaId::new(0, 1).into();
            let ha = t.register(a);
            let hb = t.register(b);
            ha.send(b, Message::Noop);
            let env = hb.inbox.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(env.from, a);
            assert!(matches!(env.msg, Message::Noop));
            hb.send(a, Message::Noop);
            assert!(ha.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
            t.shutdown();
        }
    }

    #[test]
    fn frames_on_the_socket_match_the_wire_model() {
        let t = SocketTransport::new(SocketKind::Tcp, None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        let msg = Message::Prepare {
            scope: rdb_consensus::Scope::Global,
            view: 1,
            seq: 2,
            digest: rdb_crypto::digest::Digest::ZERO,
        };
        let expected = rdb_consensus::codec::frame_size(&msg);
        assert_eq!(
            expected,
            rdb_common::wire::control_bytes() + rdb_consensus::codec::FRAME_OVERHEAD
        );
        ha.send(b, msg);
        let env = hb.inbox.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(env.msg, Message::Prepare { .. }));
        let snap = t.shared.metrics.net_snapshot();
        let link = snap
            .links
            .iter()
            .find(|l| l.from == a && l.to == b)
            .expect("link counters");
        assert_eq!(link.bytes_out, expected as u64);
        assert_eq!(link.bytes_in, expected as u64);
        assert_eq!(link.frames_out, 1);
        assert_eq!(link.frames_in, 1);
        t.shutdown();
    }

    #[test]
    fn stale_epoch_peers_are_refused() {
        let t1 = SocketTransport::with_epoch(SocketKind::Tcp, 7, None);
        let t2 = SocketTransport::with_epoch(SocketKind::Tcp, 8, None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let _ha = t1.register(a);
        let hb = t2.register(b);
        // t1 learns where b listens, but the epochs differ.
        t1.advertise(b, t2.listen_addr(b).unwrap());
        t1.send(Envelope {
            from: a,
            to: b,
            msg: Message::Noop,
        });
        assert!(
            hb.inbox.recv_timeout(Duration::from_millis(300)).is_err(),
            "stale-epoch traffic must be refused"
        );
        t1.shutdown();
        t2.shutdown();
    }

    #[test]
    fn frames_must_come_from_the_handshake_peer_to_the_listener() {
        for kind in kinds() {
            let t = SocketTransport::new(kind, None);
            let [a, b, target, other]: [NodeId; 4] =
                std::array::from_fn(|i| ReplicaId::new(0, i as u16).into());
            let ha = t.register(a);
            let ht = t.register(target);
            let ho = t.register(other);
            // Handshake as `a`, by hand, then claim to be `b` — and, on a
            // second connection, be `a` but address somebody else's inbox.
            for (from, to) in [(b, target), (a, other)] {
                let mut raw = dial(t.listen_addr(target).unwrap()).unwrap();
                raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                raw.write_all(&handshake(a, t.epoch())).unwrap();
                assert_eq!(read_handshake(&mut raw, t.epoch()).unwrap(), target);
                let mut codec = WireCodec::new();
                raw.write_all(codec.encode_frame(from, to, &Message::Noop))
                    .unwrap();
                // The connection is gone: a well-formed honest frame sent
                // behind the forged one never arrives either.
                let _ = raw.write_all(codec.encode_frame(a, target, &Message::Noop));
            }
            assert!(ht.inbox.recv_timeout(Duration::from_millis(300)).is_err());
            assert!(ho.inbox.try_recv().is_err());
            // An honest a -> target link still delivers.
            ha.send(target, Message::Noop);
            let env = ht.inbox.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!((env.from, env.to), (a, target));
            t.shutdown();
        }
    }

    #[test]
    fn reconnect_after_peer_restart_counts() {
        let metrics = Metrics::default();
        let t = SocketTransport::new(SocketKind::Tcp, Some(metrics.clone()));
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
        // Kill the outbound connection under the sender's feet.
        t.shared.links.lock().get(&(a, b)).unwrap().lock().stream = None;
        // First send re-dials; the message must arrive and the
        // reconnect counter must tick.
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
        let snap = metrics.net_snapshot();
        let link = snap
            .links
            .iter()
            .find(|l| l.from == a && l.to == b)
            .unwrap();
        assert_eq!(link.reconnects, 1);
        t.shutdown();
    }

    #[test]
    fn down_links_drop_and_back_off() {
        let t = SocketTransport::new(SocketKind::Tcp, None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let _ha = t.register(a);
        // b never registers: connects fail, the link backs off, sends
        // drop without blocking or panicking.
        for _ in 0..5 {
            t.send(Envelope {
                from: a,
                to: b,
                msg: Message::Noop,
            });
        }
        let link = t.shared.links.lock().get(&(a, b)).unwrap().clone();
        let l = link.lock();
        assert!(l.down_until.is_some());
        assert!(l.backoff > INITIAL_BACKOFF);
        drop(l);
        t.shutdown();
    }

    #[test]
    fn partitions_cut_socket_links_too() {
        let t = SocketTransport::new(SocketKind::Tcp, None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        t.partition(vec![a], vec![b], Duration::ZERO, Duration::from_millis(100));
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_millis(50)).is_err());
        std::thread::sleep(Duration::from_millis(80));
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
        t.shutdown();
    }
}

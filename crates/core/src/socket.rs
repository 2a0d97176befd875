//! The socket mesh: TCP links carrying the length-prefixed frames of
//! `rdb_consensus::codec`, under the same `Router` as the in-process
//! mesh (see [`crate::transport`]).
//!
//! Where [`crate::transport::InProcTransport`] hands [`Envelope`]s to the
//! router directly, this mesh serializes them: every registered
//! node gets a loopback listener, and each `from -> to` link lazily
//! opens one outbound connection on first send. A deployment can
//! therefore span OS processes — peers in another process are wired in
//! with [`SocketTransport::advertise`] and a shared handshake epoch —
//! while the default single-process loopback keeps the whole fabric
//! testable in one test binary. Registration, the fault script (its send
//! rule checked before the frame is written, its delivery rule after the
//! frame is read) and injected link delays (applied after the frame is
//! read) are the router's; this module only moves bytes.
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
//! [`Metrics`]. A reader that drops its connection (EOF, a bad or
//! misnamed frame) shuts it down for both directions, so the sender's
//! writes soon fail and the link re-dials instead of filling a socket
//! nobody reads.
//!
//! # Backpressure
//!
//! A reader thread hands decoded frames to the router, which delivers
//! them into the same bounded input-stage inboxes the in-process mesh
//! uses: droppable traffic is shed at the bound, and a non-droppable
//! `Request` *blocks the reader*. Frames behind it then queue in the
//! kernel socket buffer until the sender's `write` blocks — admission
//! control propagates to the submitting client through TCP flow control
//! rather than a parked thread, coarser than in-process blocking but the
//! same end state (see the decision table in `docs/ARCHITECTURE.md`). On
//! a delayed link the reader never parks: the frame waits in the delay
//! wheel, which retries it until the inbox has room. A reader parked in a
//! delivery is released by the inbox, not by the socket: when the
//! replica pipelines drop their receivers (see `SocketTransport::close`).
//!
//! # Threads and shutdown
//!
//! Every mesh thread blocks until it has work; none polls a flag on a
//! timer. Each registered node's accept loop blocks in `accept`, and each
//! accepted connection gets a reader thread that blocks in `read`. A
//! lazy connect therefore costs one handshake round trip: the peer's
//! accept returns at once and its reader answers the hello. The handshake
//! is the only read under a timeout (`HANDSHAKE_TIMEOUT`, both sides);
//! once it is through, the timeout is cleared and a reader waits for its
//! next frame for as long as the link lives. The one timed wait left is
//! `ACCEPT_ERROR_BACKOFF` after a failed `accept`.
//!
//! `SocketTransport::close` runs after the router's running flag is
//! clear. It dials each listener of this transport's own nodes once, so
//! the accept loop returns from `accept`, sees the flag and exits (an
//! advertised remote listener is never dialed); and it shuts down every
//! reader's connection for both directions, which ends the blocked
//! `read` whether the peer lives in this process, in another one, or
//! never sent its hello. A wake-up dial that fails (out of file
//! descriptors, say) leaves that accept loop detached rather than
//! joining it forever: it exits at the next connection it accepts.

use crate::metrics::Metrics;
use crate::sync::MutexExt;
use crate::transport::{Envelope, OnFull, Router};
use rdb_common::ids::NodeId;
use rdb_consensus::codec::{self, WireCodec, MAX_FRAME, NODE_ID_BYTES};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// How long an accept loop sleeps after a failed `accept` (out of file
/// descriptors, say) before it tries again: the mesh's only timed wait.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// How long either side waits for the peer's hello: the only read
/// timeout a mesh socket carries, cleared once the handshake is through.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

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
}

/// Outbound state of one `from -> to` link. Per-link mutex: a write
/// parked on a full kernel buffer stalls only this link, never the
/// whole transport.
struct LinkState {
    stream: Option<TcpStream>,
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

/// A mesh thread and what ends it at [`SocketTransport::close`].
struct MeshThread {
    handle: JoinHandle<()>,
    wake: Wake,
}

/// How `close` wakes a mesh thread blocked in a system call.
enum Wake {
    /// An accept loop on the listener this transport bound at this
    /// address: one dial returns its `accept`.
    Dial(SocketAddr),
    /// A reader: shutting down this clone of its connection ends its
    /// `read`.
    Shutdown(TcpStream),
}

impl MeshThread {
    /// Wake the thread; `None` when it could not be woken, so joining it
    /// might never return.
    fn wake(self) -> Option<JoinHandle<()>> {
        match &self.wake {
            Wake::Dial(addr) => {
                // Bounded, so a full accept backlog cannot hold `close`.
                TcpStream::connect_timeout(addr, HANDSHAKE_TIMEOUT).ok()?;
            }
            Wake::Shutdown(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        Some(self.handle)
    }
}

struct SockShared {
    epoch: u64,
    /// Where every node this transport can reach listens: its own nodes
    /// and `advertise`d remote ones. `close` dials only the former, which
    /// it finds in `threads`.
    addrs: Mutex<HashMap<NodeId, SocketAddr>>,
    links: LinkTable,
    /// Accept loops and reader threads; finished readers are pruned,
    /// with their connection clones, whenever a thread is added.
    threads: Mutex<Vec<MeshThread>>,
}

/// The socket transport. Cloneable handle, like
/// [`crate::transport::InProcTransport`].
#[derive(Clone)]
pub struct SocketTransport {
    pub(crate) router: Arc<Router>,
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
    pub fn with_epoch(_kind: SocketKind, epoch: u64, metrics: Option<Metrics>) -> SocketTransport {
        SocketTransport::over(Router::new(None, None, metrics.unwrap_or_default()), epoch)
    }

    /// The socket mesh under `router`.
    pub(crate) fn over(router: Arc<Router>, epoch: u64) -> SocketTransport {
        SocketTransport {
            router,
            shared: Arc::new(SockShared {
                epoch,
                addrs: Mutex::new(HashMap::new()),
                links: Mutex::new(HashMap::new()),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The deployment epoch this transport handshakes with.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Record where a *remote* peer (typically in another process)
    /// listens, so local sends can reach it. Local registrations
    /// advertise themselves automatically.
    pub fn advertise(&self, node: NodeId, addr: SocketAddr) {
        self.shared.addrs.guard().insert(node, addr);
    }

    /// Where `node` listens (to hand to another process's
    /// [`SocketTransport::advertise`]).
    pub fn listen_addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.shared.addrs.guard().get(&node).copied()
    }

    /// Close outbound connections, then wake and join the accept and
    /// reader threads (the router's running flag is already clear, so
    /// they stop; see the module docs on threads and shutdown). Blocked
    /// reader deliveries release when the replica pipelines drop their
    /// inbox receivers, so deployments stop replicas before the
    /// transport (see `Fabric::stop_all`).
    pub(crate) fn close(&self) {
        // Drop outbound streams so peer readers see EOF promptly.
        for link in self.shared.links.guard().values() {
            link.guard().stream = None;
        }
        // In rounds: an accept loop that saw the flag still set just
        // before it cleared may add one last reader after a drain.
        loop {
            let threads: Vec<_> = self.shared.threads.guard().drain(..).collect();
            if threads.is_empty() {
                return;
            }
            let woken: Vec<_> = threads.into_iter().filter_map(MeshThread::wake).collect();
            for t in woken {
                let _ = t.join();
            }
        }
    }

    /// Run `f` on a named mesh thread that `wake` ends at `close`.
    /// Handles of finished threads are dropped first, so a peer that
    /// keeps reconnecting cannot grow the list for the transport's
    /// lifetime.
    fn spawn(&self, name: String, wake: Wake, f: impl FnOnce() + Send + 'static) {
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(f)
            .expect("spawn socket thread");
        let mut threads = self.shared.threads.guard();
        threads.retain(|t| !t.handle.is_finished());
        threads.push(MeshThread { handle, wake });
    }

    // ------------------------------------------------------------------
    // Outbound path
    // ------------------------------------------------------------------

    fn link(&self, from: NodeId, to: NodeId) -> Arc<Mutex<LinkState>> {
        self.shared
            .links
            .guard()
            .entry((from, to))
            .or_insert_with(|| Arc::new(Mutex::new(LinkState::new())))
            .clone()
    }

    /// Write `env` as one frame over its link's connection, opening or
    /// re-opening it as needed. Down links drop (lossy network).
    pub(crate) fn send_frame(&self, env: Envelope) {
        let link = self.link(env.from, env.to);
        let mut l = link.guard();
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
                        self.router.metrics().net_reconnect(env.from, env.to);
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
            Ok(()) => self.router.metrics().net_sent(env.from, env.to, sent),
            Err(_) => l.mark_down(now),
        }
    }

    /// Dial `to` and run the connector side of the handshake.
    fn connect(&self, from: NodeId, to: NodeId) -> std::io::Result<TcpStream> {
        let addr = self
            .listen_addr(to)
            .ok_or_else(|| std::io::Error::new(ErrorKind::NotFound, "peer not registered"))?;
        let mut stream = dial(addr)?;
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

    /// Bind `node`'s loopback listener and start accepting, unless it
    /// already listens (a re-registration keeps its address).
    pub(crate) fn listen(&self, node: NodeId) {
        if self.shared.addrs.guard().contains_key(&node) {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener addr");
        self.shared.addrs.guard().insert(node, addr);
        let me = self.clone();
        self.spawn(
            format!("rdb-accept-{node:?}"),
            Wake::Dial(addr),
            move || me.accept_loop(listener, node),
        );
    }

    /// Accept connections until one arrives after shutdown (`close`'s
    /// wake-up dial, or a late peer), each served by a reader thread.
    fn accept_loop(&self, listener: TcpListener, node: NodeId) {
        while self.router.running() {
            match listener.accept() {
                Ok((stream, _)) if self.router.running() => {
                    let _ = stream.set_nodelay(true);
                    // Out of descriptors for the clone `close` needs:
                    // refuse the connection; the peer re-dials.
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    let me = self.clone();
                    self.spawn(
                        format!("rdb-read-{node:?}"),
                        Wake::Shutdown(clone),
                        move || me.serve_conn(stream, node),
                    );
                }
                Ok(_) => {}
                // A failed accept is retried, after a back-off so that a
                // persistent error (no descriptors left) does not spin.
                Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        }
    }

    /// One inbound connection, shut down for both directions when its
    /// reader stops — the clone `close` keeps would otherwise hold it
    /// open towards the peer.
    fn serve_conn(&self, mut stream: TcpStream, node: NodeId) {
        let _ = self.serve(&mut stream, node);
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Handshake, then decode frames until EOF (the peer closed, or
    /// `close` shut the connection down) or error. A corrupt frame closes
    /// the connection — the peer reconnects with fresh framing, so one
    /// bad frame can never desync a long-lived stream — and so does a
    /// frame that is not from the handshake peer to this listener's node.
    fn serve(&self, stream: &mut TcpStream, node: NodeId) -> std::io::Result<()> {
        // Wrong magic/version/epoch: refuse stale peers.
        let peer = read_handshake(stream, self.shared.epoch)?;
        stream.write_all(&handshake(node, self.shared.epoch))?;
        let mut len_buf = [0u8; 4];
        let mut body = Vec::new();
        loop {
            stream.read_exact(&mut len_buf)?;
            let len = u32::from_le_bytes(len_buf) as usize;
            if !(codec::FRAME_OVERHEAD - 4..=MAX_FRAME).contains(&len) {
                return Ok(()); // desynced or hostile length: drop connection
            }
            body.resize(len, 0);
            stream.read_exact(&mut body)?;
            match codec::decode_frame_body(&body) {
                // A connection carries one directed link: a frame under
                // any other name is a peer voting as somebody else, or
                // reaching into an inbox it did not dial.
                Ok((from, to, _)) if from != peer || to != node => return Ok(()),
                Ok((from, to, msg)) => {
                    self.router
                        .metrics()
                        .net_received(from, to, (4 + len) as u64);
                    // Same input-stage policy as the in-process mesh: on
                    // a direct link a non-droppable frame at a full inbox
                    // parks this reader (see the module docs on
                    // backpressure); on a delayed link it waits in the
                    // wheel instead.
                    self.router.arrive(Envelope { from, to, msg }, OnFull::Park);
                }
                Err(_) => return Ok(()),
            }
        }
    }
}

/// Open a connection to a listener at `addr`.
fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
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

/// Read and validate one handshake, returning the peer's node id. The
/// read runs under [`HANDSHAKE_TIMEOUT`], which is cleared again after.
fn read_handshake(stream: &mut TcpStream, epoch: u64) -> std::io::Result<NodeId> {
    let mut buf = [0u8; HANDSHAKE_BYTES];
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.read_exact(&mut buf)?;
    stream.set_read_timeout(None)?;
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
    use crate::transport::Transport;
    use rdb_common::ids::ReplicaId;
    use rdb_consensus::messages::Message;

    /// A TCP mesh, plus the transport surface that routes over it.
    fn tcp(epoch: u64, metrics: Option<Metrics>) -> (SocketTransport, Transport) {
        let s = SocketTransport::with_epoch(SocketKind::Tcp, epoch, metrics);
        (s.clone(), Transport::Socket(s))
    }

    #[test]
    fn loopback_delivery_both_ways() {
        let (_, t) = tcp(fresh_epoch(), None);
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

    #[test]
    fn frames_on_the_socket_match_the_wire_model() {
        let (s, t) = tcp(fresh_epoch(), None);
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
        let snap = s.router.metrics().net_snapshot();
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
        let (s1, t1) = tcp(7, None);
        let (s2, t2) = tcp(8, None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let _ha = t1.register(a);
        let hb = t2.register(b);
        // t1 learns where b listens, but the epochs differ.
        s1.advertise(b, s2.listen_addr(b).unwrap());
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
        let (s, t) = tcp(fresh_epoch(), None);
        let [a, b, target, other]: [NodeId; 4] =
            std::array::from_fn(|i| ReplicaId::new(0, i as u16).into());
        let ha = t.register(a);
        let ht = t.register(target);
        let ho = t.register(other);
        // Handshake as `a`, by hand, then claim to be `b` — and, on a
        // second connection, be `a` but address somebody else's inbox.
        for (from, to) in [(b, target), (a, other)] {
            let mut raw = dial(s.listen_addr(target).unwrap()).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            raw.write_all(&handshake(a, s.epoch())).unwrap();
            assert_eq!(read_handshake(&mut raw, s.epoch()).unwrap(), target);
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

    #[test]
    fn reconnect_after_peer_restart_counts() {
        let metrics = Metrics::default();
        let (s, t) = tcp(fresh_epoch(), Some(metrics.clone()));
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let ha = t.register(a);
        let hb = t.register(b);
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
        for _ in 0..20 {
            // Kill the outbound connection under the sender's feet.
            s.shared.links.guard().get(&(a, b)).unwrap().guard().stream = None;
            // The next send re-dials; the message must arrive and the
            // reconnect counter must tick.
            ha.send(b, Message::Noop);
            assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
            // Two accept loops, the live reader, and at most one reader
            // whose EOF is still in flight: finished readers are pruned.
            let threads = s.shared.threads.guard().len();
            assert!(threads <= 4, "{threads} thread handles kept");
        }
        let snap = metrics.net_snapshot();
        let link = snap
            .links
            .iter()
            .find(|l| l.from == a && l.to == b)
            .unwrap();
        assert_eq!(link.reconnects, 20);
        t.shutdown();
    }

    #[test]
    fn shutdown_is_not_held_by_silent_or_open_connections() {
        let epoch = fresh_epoch();
        let (s, t) = tcp(epoch, None);
        let (s2, t2) = tcp(epoch, None);
        let a: NodeId = ReplicaId::new(0, 0).into();
        let b: NodeId = ReplicaId::new(0, 1).into();
        let hb = t.register(b);
        let addr = s.listen_addr(b).unwrap();
        // A peer that connects and never sends its hello.
        let _silent = TcpStream::connect(addr).unwrap();
        // A peer of the same deployment in another transport, whose link
        // stays open. It connects after the silent one, so once its frame
        // arrives both connections have a reader.
        let ha = t2.register(a);
        s2.advertise(b, addr);
        ha.send(b, Message::Noop);
        assert!(hb.inbox.recv_timeout(Duration::from_secs(5)).is_ok());
        let started = Instant::now();
        t.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
        assert!(s.shared.threads.guard().is_empty());
        assert!(
            TcpStream::connect(addr).is_err(),
            "the closed listener still accepts"
        );
        t2.shutdown();
    }

    #[test]
    fn down_links_drop_and_back_off() {
        let (s, t) = tcp(fresh_epoch(), None);
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
        let link = s.shared.links.guard().get(&(a, b)).unwrap().clone();
        let l = link.guard();
        assert!(l.down_until.is_some());
        assert!(l.backoff > INITIAL_BACKOFF);
        drop(l);
        t.shutdown();
    }
}

//! The wall-clock runtime: protocol instances connected by `std::net`
//! sockets speaking the `wamcast_types::wire` format, one OS process per
//! instance (the harness's `peer` binary) or several in one process
//! ([`Cluster`], tests).
//!
//! This is the runtime the simulator cannot stand in for: messages really
//! cross byte boundaries (every send pays encode + syscall + decode), and
//! chaos means real `kill -9` and real socket resets, not a flag flip. The
//! protocol values hosted here are the same sans-io state machines the
//! simulator drives — the only new requirement is `P::Msg: Wire`. The
//! event loop below is the only wall-clock interpreter of their
//! [`Action`]s.
//!
//! # Shape
//!
//! * [`serve`] binds a listener, spawns an accept/reader thread per
//!   connection, one outbound writer thread per peer, and one event-loop
//!   thread stepping the protocol — then returns a non-generic
//!   [`TcpNode`] handle.
//! * Framing is a `u32` little-endian length prefix (bounded by
//!   [`MAX_FRAME`]) around an enveloped [`Frame`]; see
//!   [`wamcast_types::wire`] for the envelope.
//! * **Encode-once fan-out:** a peer frame's bytes name the sender, never
//!   the destination, so the event loop encodes each outbound frame
//!   exactly once (into a pooled scratch buffer) and every writer link —
//!   and every adversary-duplicated copy — shares the same `Arc<[u8]>`.
//!   Connection readers likewise decode from one pooled buffer per
//!   connection ([`read_frame_into`]).
//! * **Reconnect-on-reset:** outbound links redial on demand. Frames that
//!   race a down link are *dropped*, exactly like a lossy UDP link — the
//!   protocols' retransmission modes (`with_retry`) are what make the
//!   stack live over real sockets, so hosts should enable them.
//! * **Faults:** an optional [`WallFaults`] is consulted once per outbound
//!   copy, so every wall-clock host — a [`Cluster`], the `peer` binary —
//!   faces the same lossy, duplicating, non-FIFO link adversary.
//! * **Hostile input:** undecodable frames are dropped and the connection
//!   kept; a client cast whose destination is empty or names a group
//!   outside the topology is dropped unacknowledged; [`serve`] refuses
//!   topologies wire v1 cannot address (more than 64 groups).
//!
//! Casts carry a client-chosen sequence number and are injected with
//! `MessageId::new(server, seq)`: the client knows the op id *before* the
//! bytes leave it (so a history can record every op it may have caused),
//! while the id's origin stays the hosting process, which is what the
//! protocol cores assume of `on_cast`.
//!
//! [`Cluster`]: crate::Cluster

use crate::WallFaults;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wamcast_trace::{Phase, TraceEvent, TraceRing};
use wamcast_types::wire::{self, Wire, WireError, WireReader, WireWriter};
use wamcast_types::{
    trace_msg, Action, AppMessage, Context, GroupSet, MessageId, MsgSlot, Outbox, Payload,
    ProcessId, Protocol, SimTime, Topology,
};

/// A node's shared flight recorder: the event loop appends, reader
/// threads (the control-plane trace pull) and the host's panic hook dump.
pub type SharedTrace = Arc<Mutex<TraceRing>>;

/// Upper bound on one frame's body, enforced on read before allocating.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// How long an outbound worker waits for one dial attempt.
const DIAL_TIMEOUT: Duration = Duration::from_millis(300);

/// Poll interval at which blocked threads re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(200);

/// Soft cap on one coalesced write: a writer drains its link queue into a
/// single syscall up to roughly this many bytes. Individual frames larger
/// than the cap still go out (alone); the cap only stops the batch from
/// growing further.
const COALESCE_BYTES: usize = 64 * 1024;

/// Everything that crosses a socket, peer-to-peer or client-to-peer.
///
/// `M` is the hosted protocol's message type; pure clients use [`NoMsg`].
/// Tag values are part of the wire format.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame<M> {
    /// Protocol traffic between peers.
    Peer {
        /// Sending process.
        from: ProcessId,
        /// The protocol message.
        msg: M,
    },
    /// A client asks the receiving peer to A-XCast a payload. The peer
    /// injects `AppMessage` with id `(receiver, seq)`; `seq` spaces of
    /// concurrent clients must be disjoint.
    Cast {
        /// Client-chosen sequence number (the id is known pre-send).
        seq: u64,
        /// Destination groups.
        dest: GroupSet,
        /// Application payload.
        payload: Payload,
    },
    /// The peer's acknowledgement of a [`Cast`](Self::Cast), echoing the
    /// assigned id.
    CastAck {
        /// Id the cast was injected under.
        id: MessageId,
    },
    /// An application-level request answered by the node's service hook
    /// (e.g. "what did op X return?", "send your replica log").
    Req {
        /// Opaque request body, interpreted by the service hook.
        body: Vec<u8>,
    },
    /// The service hook's reply to a [`Req`](Self::Req).
    Rep {
        /// Opaque reply body.
        body: Vec<u8>,
    },
    /// Failure-detector stand-in: tells the peer that `of` crashed.
    CrashNotify {
        /// The crashed process.
        of: ProcessId,
    },
    /// Asks the peer process to exit cleanly.
    Shutdown,
}

impl<M: Wire> Wire for Frame<M> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Frame::Peer { from, msg } => {
                w.u8(0);
                from.encode(w);
                msg.encode(w);
            }
            Frame::Cast { seq, dest, payload } => {
                w.u8(1);
                w.u64(*seq);
                dest.encode(w);
                payload.encode(w);
            }
            Frame::CastAck { id } => {
                w.u8(2);
                id.encode(w);
            }
            Frame::Req { body } => {
                w.u8(3);
                w.bytes(body);
            }
            Frame::Rep { body } => {
                w.u8(4);
                w.bytes(body);
            }
            Frame::CrashNotify { of } => {
                w.u8(5);
                of.encode(w);
            }
            Frame::Shutdown => w.u8(6),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Frame::Peer {
                from: ProcessId::decode(r)?,
                msg: M::decode(r)?,
            }),
            1 => Ok(Frame::Cast {
                seq: r.u64()?,
                dest: GroupSet::decode(r)?,
                payload: Payload::decode(r)?,
            }),
            2 => Ok(Frame::CastAck {
                id: MessageId::decode(r)?,
            }),
            // The borrowed slice is the pooled read buffer; `to_vec` is the
            // single borrow-to-owned conversion the decoded frame keeps.
            3 => Ok(Frame::Req {
                body: r.bytes()?.to_vec(),
            }),
            4 => Ok(Frame::Rep {
                body: r.bytes()?.to_vec(),
            }),
            5 => Ok(Frame::CrashNotify {
                of: ProcessId::decode(r)?,
            }),
            6 => Ok(Frame::Shutdown),
            tag => Err(WireError::UnknownTag { what: "Frame", tag }),
        }
    }
}

/// Message type of a pure client: uninhabited, so a client provably never
/// builds or accepts [`Frame::Peer`] traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoMsg {}

impl Wire for NoMsg {
    fn encode(&self, _w: &mut WireWriter) {
        match *self {}
    }

    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Err(WireError::UnknownTag {
            what: "NoMsg",
            tag: 0,
        })
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one length-prefixed frame, rejecting oversize claims before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    read_frame_into(r, &mut body)?;
    Ok(body)
}

/// [`read_frame`] into a caller-owned buffer: clears `buf` and fills it
/// with the frame body. A connection reader looping over one buffer pays
/// one allocation for the largest frame it ever sees instead of one per
/// frame. Oversize claims are rejected before the buffer grows.
pub fn read_frame_into(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)
}

/// The A-Deliver log a node appends to and a host snapshots.
pub type SharedDeliveries = Arc<Mutex<Vec<AppMessage>>>;

/// Application hook answering [`Frame::Req`] bodies. Runs on connection
/// reader threads, concurrently with the event loop; share state through
/// the same `Arc<Mutex<…>>` handles the event loop uses.
pub type Service = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// A service that answers every request with an empty body.
pub fn null_service() -> Service {
    Arc::new(|_| Vec::new())
}

/// Static configuration of one TCP-hosted node.
pub struct TcpNodeConfig {
    /// This node's process id (an index into `addrs`).
    pub me: ProcessId,
    /// The cluster topology.
    pub topo: Arc<Topology>,
    /// Listen address of every process, indexed by process id.
    pub addrs: Vec<SocketAddr>,
    /// Arm id stamped into every envelope; traffic for other arms is
    /// rejected at decode time.
    pub arm: u8,
    /// Optional outbound-link adversary (the shared fault choke point).
    pub faults: Option<Arc<WallFaults>>,
    /// Optional flight recorder. `None` — the default everywhere tracing
    /// is not requested — keeps the event loop's record sites to a single
    /// branch; `Some` makes the loop append one [`TraceEvent`] per
    /// lifecycle step, sharing the ring with whoever holds the other
    /// handle (the control-plane pull, the `peer` binary's panic dump).
    pub trace: Option<SharedTrace>,
}

enum LoopEv<M> {
    Msg { from: ProcessId, msg: M },
    Cast(AppMessage),
    CrashNotify(ProcessId),
    Shutdown,
}

/// Running node handle. Non-generic, so registries can store constructors
/// for heterogeneous protocol arms behind one type.
pub struct TcpNode {
    local: SocketAddr,
    delivered: SharedDeliveries,
    stop_flag: Arc<AtomicBool>,
    // Sends LoopEv::Shutdown into the (type-erased) event loop.
    trigger: Box<dyn Fn() + Send>,
    done_rx: Receiver<()>,
    handles: Vec<JoinHandle<()>>,
}

impl TcpNode {
    /// The address this node is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Snapshot of the messages A-Delivered so far, in delivery order.
    pub fn delivered(&self) -> Vec<AppMessage> {
        self.delivered
            .lock()
            .expect("delivery log poisoned")
            .clone()
    }

    /// Blocks until the node is told to exit (a [`Frame::Shutdown`] from
    /// any connection, or [`shutdown`](Self::shutdown) from another
    /// thread), then tears down all threads.
    pub fn wait(self) {
        let _ = self.done_rx.recv();
        self.teardown();
    }

    /// Stops the node and joins every thread.
    pub fn shutdown(self) {
        (self.trigger)();
        self.teardown();
    }

    fn teardown(self) {
        self.stop_flag.store(true, Ordering::SeqCst);
        (self.trigger)();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local, DIAL_TIMEOUT);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Reserves `n` distinct loopback addresses by binding ephemeral ports
/// and dropping the listeners. A small race window exists before the
/// nodes re-bind; a collision surfaces as a bind error from [`serve`].
///
/// # Errors
///
/// Returns any error binding a port.
pub fn reserve_local_addrs(n: usize) -> io::Result<Vec<SocketAddr>> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    held.iter().map(TcpListener::local_addr).collect()
}

/// Spawns a node: listener + per-peer outbound links + protocol event
/// loop, all on OS threads of *this* process. Peer processes are started
/// from the same address list by the harness's `peer` binary.
///
/// `delivered` receives every A-Deliver; `service` answers
/// [`Frame::Req`] bodies (see [`null_service`]).
///
/// # Errors
///
/// Returns `InvalidInput` for a topology of more than
/// [`wire::MAX_GROUPS`] groups, and any error binding the listen address.
pub fn serve<P>(
    cfg: TcpNodeConfig,
    proto: P,
    delivered: SharedDeliveries,
    service: Service,
) -> io::Result<TcpNode>
where
    P: Protocol + Send + 'static,
    P::Msg: Wire,
{
    let TcpNodeConfig {
        me,
        topo,
        addrs,
        arm,
        faults,
        trace,
    } = cfg;
    if topo.num_groups() > wire::MAX_GROUPS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "wire v1 addresses at most {} groups; the topology has {}",
                wire::MAX_GROUPS,
                topo.num_groups()
            ),
        ));
    }
    assert_eq!(
        addrs.len(),
        topo.num_processes(),
        "one listen address per process"
    );
    let listener = TcpListener::bind(addrs[me.index()])?;
    let local = listener.local_addr()?;
    let stop_flag = Arc::new(AtomicBool::new(false));
    let (loop_tx, loop_rx) = channel::<LoopEv<P::Msg>>();
    let (done_tx, done_rx) = channel::<()>();
    let mut handles = Vec::new();

    // Outbound links: one writer thread per remote peer, dialing lazily
    // and redialing after resets. A frame that races a down link is
    // dropped (the retransmission layer recovers), mirroring loss — not
    // buffered forever, which would reorder recovery unboundedly.
    // Frames travel as `Arc<[u8]>`: the event loop encodes each outbound
    // frame exactly once and every link (and every duplicate copy) shares
    // the same bytes by refcount.
    let mut links: Vec<Option<SyncSender<Arc<[u8]>>>> = Vec::with_capacity(addrs.len());
    for (i, addr) in addrs.iter().enumerate() {
        if i == me.index() {
            links.push(None);
            continue;
        }
        let addr = *addr;
        let stop = Arc::clone(&stop_flag);
        let (tx, rx) = std::sync::mpsc::sync_channel::<Arc<[u8]>>(4096);
        links.push(Some(tx));
        handles.push(std::thread::spawn(move || {
            let mut stream: Option<TcpStream> = None;
            // Coalescing buffer: everything queued on the link when the
            // writer wakes goes out in ONE write syscall (bounded, so one
            // slow drain cannot grow it unboundedly). Under load this
            // collapses the two-syscalls-per-frame pattern into a
            // fraction of a syscall per frame.
            let mut wbuf: Vec<u8> = Vec::new();
            loop {
                let frame = match rx.recv_timeout(POLL) {
                    Ok(f) => f,
                    Err(RecvTimeoutError::Timeout) => {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                };
                // Oversize frames are unsendable (the receiver rejects
                // them); skipping preserves write_frame's drop semantics.
                let append = |wbuf: &mut Vec<u8>, f: &[u8]| {
                    if f.len() <= MAX_FRAME as usize {
                        wbuf.extend_from_slice(&(f.len() as u32).to_le_bytes());
                        wbuf.extend_from_slice(f);
                    }
                };
                wbuf.clear();
                append(&mut wbuf, &frame);
                while wbuf.len() < COALESCE_BYTES {
                    match rx.try_recv() {
                        Ok(f) => append(&mut wbuf, &f),
                        Err(_) => break,
                    }
                }
                if wbuf.is_empty() {
                    continue;
                }
                if stream.is_none() {
                    stream = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)
                        .and_then(|s| {
                            s.set_nodelay(true)?;
                            Ok(s)
                        })
                        .ok();
                }
                let Some(s) = stream.as_mut() else {
                    continue; // link down: drop the batch
                };
                if s.write_all(&wbuf).and_then(|()| s.flush()).is_err() {
                    // Reset mid-write: drop this batch, redial on the next.
                    stream = None;
                }
            }
        }));
    }

    // Accept loop + one reader thread per connection.
    {
        let stop = Arc::clone(&stop_flag);
        let loop_tx = loop_tx.clone();
        let service = Arc::clone(&service);
        let next_cast = Arc::new(Mutex::new(std::collections::HashSet::<u64>::new()));
        let groups = topo.all_groups();
        handles.push(std::thread::spawn(move || {
            let mut readers = Vec::new();
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                let _ = conn.set_nodelay(true);
                let _ = conn.set_read_timeout(Some(POLL));
                let stop = Arc::clone(&stop);
                let loop_tx = loop_tx.clone();
                let service = Arc::clone(&service);
                let injected = Arc::clone(&next_cast);
                readers.push(std::thread::spawn(move || {
                    read_connection(conn, me, arm, groups, stop, loop_tx, service, injected)
                }));
            }
            for r in readers {
                let _ = r.join();
            }
        }));
    }

    // Protocol event loop: steps the protocol and ships through the links
    // with the shared fault choke point.
    {
        let delivered = Arc::clone(&delivered);
        let stop = Arc::clone(&stop_flag);
        handles.push(std::thread::spawn(move || {
            event_loop::<P>(
                me, arm, proto, topo, loop_rx, links, delivered, faults, trace, stop,
            );
            let _ = done_tx.send(());
        }));
    }

    let trigger_tx = loop_tx;
    Ok(TcpNode {
        local,
        delivered,
        stop_flag,
        trigger: Box::new(move || {
            let _ = trigger_tx.send(LoopEv::Shutdown);
        }),
        done_rx,
        handles,
    })
}

/// Handles one inbound connection (peer or client) until EOF or shutdown.
/// `groups` is the topology's group set, which every client cast's
/// destination must lie in; a cast outside it closes the connection.
#[allow(clippy::too_many_arguments)]
fn read_connection<M: Wire + Send + 'static>(
    conn: TcpStream,
    me: ProcessId,
    arm: u8,
    groups: GroupSet,
    stop: Arc<AtomicBool>,
    loop_tx: Sender<LoopEv<M>>,
    service: Service,
    injected: Arc<Mutex<std::collections::HashSet<u64>>>,
) {
    // Replies (CastAck/Rep) go back on the same socket; the Mutex orders
    // them against each other when a client pipelines.
    let write_half = match conn.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Pooled per-connection buffers: one read buffer every inbound frame
    // lands in, one write buffer every reply (ack/rep) is sealed into —
    // steady-state, this reader allocates only what decoded values own.
    // The BufReader turns the two-reads-per-frame pattern (length, body)
    // into memcpys from one page-sized socket read.
    let mut conn = io::BufReader::with_capacity(64 * 1024, conn);
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match read_frame_into(&mut conn, &mut rbuf) {
            Ok(()) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return, // EOF or reset: the dialer reconnects if it cares
        };
        let frame = match wire::open::<Frame<M>>(arm, &rbuf) {
            Ok(f) => f,
            // Wrong version/arm/garbage: drop the frame, keep the
            // connection — a self-stabilizing receiver never crashes on
            // hostile input.
            Err(_) => continue,
        };
        match frame {
            Frame::Peer { from, msg } => {
                let _ = loop_tx.send(LoopEv::Msg { from, msg });
            }
            // A destination the topology cannot route would panic the
            // event loop's protocol handler. Drop the frame unacknowledged
            // and close the connection: the client sees EOF at once
            // instead of waiting out its reply timeout, and redials.
            Frame::Cast { dest, .. } if dest.is_empty() || !dest.is_subset(groups) => {
                let _ = conn.get_ref().shutdown(std::net::Shutdown::Both);
                return;
            }
            Frame::Cast { seq, dest, payload } => {
                let id = MessageId::new(me, seq);
                // Ack first (the client records the op before the send, the
                // ack is just confirmation), then inject exactly once even
                // if a client retries the frame.
                let ack: Frame<M> = Frame::CastAck { id };
                wire::seal_into(arm, &ack, &mut wbuf);
                if let Ok(mut w) = write_half.lock() {
                    let _ = write_frame(&mut *w, &wbuf);
                }
                let fresh = injected.lock().map(|mut s| s.insert(seq)).unwrap_or(false);
                if fresh {
                    let _ = loop_tx.send(LoopEv::Cast(AppMessage::new(id, dest, payload)));
                }
            }
            Frame::Req { body } => {
                let rep: Frame<M> = Frame::Rep {
                    body: service(&body),
                };
                wire::seal_into(arm, &rep, &mut wbuf);
                if let Ok(mut w) = write_half.lock() {
                    let _ = write_frame(&mut *w, &wbuf);
                }
            }
            Frame::CrashNotify { of } => {
                let _ = loop_tx.send(LoopEv::CrashNotify(of));
            }
            Frame::Shutdown => {
                let _ = loop_tx.send(LoopEv::Shutdown);
                return;
            }
            // Reply frames are client-bound; a node receiving one ignores it.
            Frame::CastAck { .. } | Frame::Rep { .. } => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn event_loop<P>(
    me: ProcessId,
    arm: u8,
    mut proto: P,
    topo: Arc<Topology>,
    rx: Receiver<LoopEv<P::Msg>>,
    links: Vec<Option<SyncSender<Arc<[u8]>>>>,
    delivered: SharedDeliveries,
    faults: Option<Arc<WallFaults>>,
    trace: Option<SharedTrace>,
    stop: Arc<AtomicBool>,
) where
    P: Protocol + Send + 'static,
    P::Msg: Wire,
{
    struct TimerEntry {
        at: Instant,
        kind: u64,
    }
    impl PartialEq for TimerEntry {
        fn eq(&self, o: &Self) -> bool {
            self.at == o.at && self.kind == o.kind
        }
    }
    impl Eq for TimerEntry {}
    impl PartialOrd for TimerEntry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for TimerEntry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            o.at.cmp(&self.at).then(o.kind.cmp(&self.kind))
        }
    }

    let start = faults.as_ref().map_or_else(Instant::now, |f| f.start());
    // Flight-recorder append: a no-op branch when tracing is off. Purely
    // observational — it reads the elapsed clock the loop already keeps
    // and never blocks the protocol (the only other lock holders are
    // short-lived dump readers).
    let record = |phase: Phase, cast: Option<MessageId>, peer: Option<ProcessId>| {
        if let Some(t) = &trace {
            if let Ok(mut ring) = t.lock() {
                ring.push(TraceEvent {
                    at_us: start.elapsed().as_micros() as u64,
                    node: me.0,
                    phase,
                    cast: cast.map(MessageId::cast_key),
                    peer: peer.map(|q| q.0),
                });
            }
        }
    };
    let record_msg = |msg: &P::Msg, sending: bool, peer: ProcessId| {
        if trace.is_none() {
            return;
        }
        trace_msg::<P>(msg, sending, |phase, cast| record(phase, cast, Some(peer)));
    };
    let mut timers: BinaryHeap<TimerEntry> = BinaryHeap::new();
    // Self-sends loop straight back into our own queue (no socket), via a
    // private channel pair spliced below through `pending_self`.
    let mut pending_self: std::collections::VecDeque<MsgSlot<P::Msg>> =
        std::collections::VecDeque::new();
    // Scratch buffer every outbound frame is encoded into (then copied
    // once into its shared `Arc<[u8]>`): the encode allocation is paid
    // once per event loop, not once per frame.
    let mut enc_buf: Vec<u8> = Vec::new();

    macro_rules! step {
        ($f:expr) => {{
            let ctx = Context::new(
                me,
                Arc::clone(&topo),
                SimTime::from_nanos(start.elapsed().as_nanos() as u64),
            );
            let mut out = Outbox::new();
            #[allow(clippy::redundant_closure_call)]
            ($f)(&mut proto, &ctx, &mut out);
            // The fate is drawn per copy at the shared choke point.
            //
            // `frame` is the encode-once slot for the action being shipped:
            // the frame bytes carry `me`, not the destination, so one
            // encoding serves every destination of a `SendMany` (and every
            // duplicated copy). It is built lazily on the first remote
            // destination — an action whose copies are all dropped or
            // self-addressed never encodes at all.
            let mut ship = |to: ProcessId, msg: MsgSlot<P::Msg>, frame: &mut Option<Arc<[u8]>>| {
                // Record before the fault fate, mirroring the simulator:
                // the copy *was* sent even if the adversary eats it.
                match &msg {
                    MsgSlot::Owned(m) => record_msg(m, true, to),
                    MsgSlot::Shared(m) => record_msg(m, true, to),
                }
                let copies = match &faults {
                    None => 1,
                    Some(f) => {
                        let fate = f.fate(me, to);
                        if fate.dropped {
                            0
                        } else if fate.duplicate.is_some() {
                            2
                        } else {
                            1
                        }
                    }
                };
                if copies == 0 {
                    return;
                }
                if to == me {
                    for _ in 0..copies {
                        pending_self.push_back(msg.clone());
                    }
                    return;
                }
                if frame.is_none() {
                    let mut w = WireWriter::over(std::mem::take(&mut enc_buf));
                    w.raw(&wire::MAGIC);
                    w.u8(wire::VERSION);
                    w.u8(arm);
                    w.u8(0); // Frame::Peer tag
                    me.encode(&mut w);
                    match &msg {
                        MsgSlot::Owned(m) => m.encode(&mut w),
                        MsgSlot::Shared(m) => m.encode(&mut w),
                    }
                    enc_buf = w.finish();
                    *frame = Some(Arc::from(enc_buf.as_slice()));
                }
                let bytes = frame.as_ref().expect("just built");
                if let Some(link) = &links[to.index()] {
                    for _ in 0..copies {
                        match link.try_send(Arc::clone(bytes)) {
                            Ok(()) | Err(TrySendError::Full(_)) => {} // full = drop
                            Err(TrySendError::Disconnected(_)) => {}
                        }
                    }
                }
            };
            for action in out.drain() {
                match action {
                    Action::Send { to, msg } => ship(to, MsgSlot::Owned(msg), &mut None),
                    Action::SendMany { tos, msg } => {
                        let mut frame = None;
                        for &to in &tos {
                            ship(to, MsgSlot::Shared(Arc::clone(&msg)), &mut frame);
                        }
                    }
                    Action::Deliver(m) => {
                        record(Phase::Deliver, Some(m.id), None);
                        delivered.lock().expect("delivery log poisoned").push(m);
                    }
                    Action::Timer { after, kind } => timers.push(TimerEntry {
                        at: Instant::now() + after,
                        kind,
                    }),
                }
            }
        }};
    }

    step!(|p: &mut P, c: &Context, o: &mut Outbox<P::Msg>| p.on_start(c, o));

    loop {
        // Drain self-sends queued by the last step before anything else.
        while let Some(slot) = pending_self.pop_front() {
            let m = slot.take();
            record_msg(&m, false, me);
            let mut slot = Some(m);
            step!(|p: &mut P, c: &Context, o: &mut Outbox<P::Msg>| {
                let m = slot.take().expect("one invocation");
                p.on_message(me, m, c, o)
            });
        }
        while timers.peek().is_some_and(|t| t.at <= Instant::now()) {
            let t = timers.pop().expect("peeked");
            step!(|p: &mut P, c: &Context, o: &mut Outbox<P::Msg>| p.on_timer(t.kind, c, o));
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let wait = timers
            .peek()
            .map(|t| t.at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50))
            .min(POLL);
        let ev = match rx.recv_timeout(wait) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        match ev {
            LoopEv::Msg { from, msg } => {
                record_msg(&msg, false, from);
                let mut slot = Some(msg);
                step!(|p: &mut P, c: &Context, o: &mut Outbox<P::Msg>| {
                    let m = slot.take().expect("one invocation");
                    p.on_message(from, m, c, o)
                });
            }
            LoopEv::Cast(m) => {
                record(Phase::Cast, Some(m.id), None);
                let mut cast = Some(m);
                step!(|p: &mut P, c: &Context, o: &mut Outbox<P::Msg>| {
                    p.on_cast(cast.take().expect("one invocation"), c, o)
                });
            }
            LoopEv::CrashNotify(of) => {
                record(Phase::CrashNotice, None, Some(of));
                step!(|p: &mut P, c: &Context, o: &mut Outbox<P::Msg>| {
                    p.on_crash_notification(of, c, o)
                });
            }
            LoopEv::Shutdown => return,
        }
    }
}

/// Synchronous client of a TCP-hosted cluster: casts payloads and queries
/// node services, reconnecting lazily after resets.
///
/// One attempt per call — a failed [`cast`](Self::cast) is **not**
/// retried internally, because the caller must account for the op id it
/// may have committed before deciding to resend.
#[derive(Debug)]
pub struct TcpClient {
    addr: SocketAddr,
    arm: u8,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl TcpClient {
    /// A client of the node at `addr` speaking arm `arm`, with `timeout`
    /// bounding each reply wait.
    pub fn new(addr: SocketAddr, arm: u8, timeout: Duration) -> Self {
        TcpClient {
            addr,
            arm,
            timeout,
            stream: None,
        }
    }

    /// Drops the current connection; the next call redials.
    pub fn reset(&mut self) {
        self.stream = None;
    }

    fn ensure(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(self.timeout))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    fn roundtrip(&mut self, out: Frame<NoMsg>) -> io::Result<Frame<NoMsg>> {
        let arm = self.arm;
        let deadline = Instant::now() + self.timeout;
        let res = (|| {
            let s = self.ensure()?;
            write_frame(s, &wire::seal(arm, &out))?;
            let mut rbuf = Vec::new();
            loop {
                if Instant::now() > deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "reply timeout"));
                }
                read_frame_into(s, &mut rbuf)?;
                match wire::open::<Frame<NoMsg>>(arm, &rbuf) {
                    Ok(f @ (Frame::CastAck { .. } | Frame::Rep { .. })) => return Ok(f),
                    Ok(_) | Err(_) => continue, // not for us; keep waiting
                }
            }
        })();
        if res.is_err() {
            self.reset();
        }
        res
    }

    /// Asks the peer to A-XCast `payload` to `dest` under client sequence
    /// number `seq`, returning the op id (always `(peer, seq)`).
    ///
    /// # Errors
    ///
    /// Any socket error or reply timeout; the op may still commit.
    pub fn cast(&mut self, seq: u64, dest: GroupSet, payload: Payload) -> io::Result<MessageId> {
        match self.roundtrip(Frame::Cast { seq, dest, payload })? {
            Frame::CastAck { id } => Ok(id),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "expected CastAck",
            )),
        }
    }

    /// Sends a service request and returns the reply body.
    ///
    /// # Errors
    ///
    /// Any socket error or reply timeout.
    pub fn request(&mut self, body: Vec<u8>) -> io::Result<Vec<u8>> {
        match self.roundtrip(Frame::Req { body })? {
            Frame::Rep { body } => Ok(body),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, "expected Rep")),
        }
    }

    /// Tells the peer that `of` crashed (failure-detector stand-in).
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn crash_notify(&mut self, of: ProcessId) -> io::Result<()> {
        let r = self.send(Frame::CrashNotify { of });
        if r.is_err() {
            self.reset();
        }
        r
    }

    /// Asks the peer process to exit cleanly.
    ///
    /// # Errors
    ///
    /// Any socket error.
    pub fn shutdown_peer(&mut self) -> io::Result<()> {
        let r = self.send(Frame::Shutdown);
        self.reset();
        r
    }

    /// Writes one frame that expects no reply.
    fn send(&mut self, frame: Frame<NoMsg>) -> io::Result<()> {
        let arm = self.arm;
        write_frame(self.ensure()?, &wire::seal(arm, &frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_and_rejection() {
        let frames: Vec<Frame<u64>> = vec![
            Frame::Peer {
                from: ProcessId(1),
                msg: 42,
            },
            Frame::Cast {
                seq: 7,
                dest: GroupSet::first_n(2),
                payload: Payload::from(b"x".to_vec()),
            },
            Frame::CastAck {
                id: MessageId::new(ProcessId(0), 7),
            },
            Frame::Req { body: vec![1, 2] },
            Frame::Rep { body: vec![] },
            Frame::CrashNotify { of: ProcessId(3) },
            Frame::Shutdown,
        ];
        for f in frames {
            assert_eq!(Frame::<u64>::from_wire(&f.to_wire()).unwrap(), f);
        }
        assert!(Frame::<u64>::from_wire(&[99]).is_err());
        assert!(NoMsg::from_wire(&[0]).is_err());
    }

    #[test]
    fn framing_roundtrip_and_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        assert_eq!(read_frame(&mut &buf[..]).unwrap(), b"abc");
        // Oversize claim rejected before allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // Truncated body is an error, not a hang (reader sees EOF).
        let bad = [5u8, 0, 0, 0, b'x'];
        assert!(read_frame(&mut &bad[..]).is_err());
    }
}

//! The timing shim: a [`Protocol`] wrapper that forwards all five handlers
//! and `describe_msg` to the wrapped protocol, the same shape as
//! `wamcast_core::WithApply`, and measures each call from outside.
//!
//! Two modes:
//!
//! * **count** (kv-tcp untraced): counts handler invocations, inter-group
//!   copies and A-Delivers (the delivery hook drives kv-tcp's completion
//!   accounting); no clocks except at A-Deliver;
//! * **trace**: additionally times every handler call by its kind (the
//!   inbound [`MsgClass`] for messages), classifies every outbound copy,
//!   replays every outbound send through `wire::seal`/`wire::open`, and
//!   records one span per call (layer, start, end, first cast id).
//!
//! The shim relays the inner protocol's actions verbatim and in order, so
//! a host sees exactly the actions it would see without it (the neutrality
//! check in `sim.rs` compares steps, send counts and delivery sequences).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use wamcast_net::tcp::Frame;
use wamcast_types::wire::{self, Wire};
use wamcast_types::{
    Action, AppMessage, Context, MessageId, MsgClass, MsgInfo, Outbox, ProcessId, Protocol,
};

/// Nanoseconds since the first call in this process: the clock every
/// timestamp of the benchmark shares (shim spans, load generator, hooks).
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// What a shim call was, for timing: the handler, and for `on_message`
/// the inbound message's class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `on_start`.
    Start,
    /// `on_cast`.
    Cast,
    /// `on_timer`.
    Timer,
    /// `on_crash_notification`.
    Crash,
    /// `on_message` with an inbound message of this class.
    Msg(MsgClass),
}

/// Number of distinct [`Kind`]s (the six message classes plus four
/// handlers).
pub const KINDS: usize = 10;

/// Dense index of a message class.
pub fn class_index(c: MsgClass) -> usize {
    match c {
        MsgClass::Rmcast => 0,
        MsgClass::Ts => 1,
        MsgClass::Propose => 2,
        MsgClass::Accept => 3,
        MsgClass::Decide => 4,
        MsgClass::Other => 5,
    }
}

impl Kind {
    /// Dense index of the kind (`0..KINDS`).
    pub fn index(self) -> usize {
        match self {
            Kind::Msg(c) => class_index(c),
            Kind::Start => 6,
            Kind::Cast => 7,
            Kind::Timer => 8,
            Kind::Crash => 9,
        }
    }

    /// The span layer name of a call of this kind, after the crates.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Msg(MsgClass::Rmcast) => "rmcast.recv",
            Kind::Msg(MsgClass::Ts) => "core.ts",
            Kind::Msg(MsgClass::Propose) => "consensus.propose",
            Kind::Msg(MsgClass::Accept) => "consensus.accept",
            Kind::Msg(MsgClass::Decide) => "consensus.decide",
            Kind::Msg(MsgClass::Other) => "core.other",
            Kind::Start => "core.start",
            Kind::Cast => "core.cast",
            Kind::Timer => "core.timer",
            Kind::Crash => "core.crash",
        }
    }
}

/// One recorded shim call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Process whose handler ran.
    pub node: u32,
    /// What ran.
    pub kind: Kind,
    /// Entry, in [`now_ns`] time.
    pub start_ns: u64,
    /// Exit of the wrapped handler, in [`now_ns`] time.
    pub end_ns: u64,
    /// First cast id the inbound message (or cast) carries: the request id
    /// spans of one cast share.
    pub cast: Option<MessageId>,
    /// How many cast ids it carries.
    pub casts: u32,
}

/// Spans kept per run, over all shims; later calls are counted but not
/// recorded, which bounds the trace's memory on the multi-million-step
/// workloads.
pub const SPAN_CAP: usize = 200_000;

/// Spans the shims of this run may still record.
static SPANS_LEFT: AtomicUsize = AtomicUsize::new(SPAN_CAP);

/// Gives the next workload run a full span budget.
pub fn reset_span_budget() {
    SPANS_LEFT.store(SPAN_CAP, Ordering::Relaxed);
}

/// Takes one span from the run's budget; false once it is spent.
fn take_span() -> bool {
    SPANS_LEFT
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Counters of one or more shims, merged on drop.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Handler invocations.
    pub events: u64,
    /// Outbound copies that crossed a group boundary.
    pub inter_copies: u64,
    /// Outbound copies to other processes (trace mode).
    pub remote_copies: u64,
    /// Calls per [`Kind::index`] (trace mode).
    pub calls: [u64; KINDS],
    /// Wrapped-handler nanoseconds per [`Kind::index`] (trace mode).
    pub handler_ns: [u64; KINDS],
    /// Nanoseconds spent inside the shim in total, wrapped handler
    /// included (trace mode): what a host loop's self time excludes.
    pub shim_ns: u64,
    /// Outbound copies per class (trace mode).
    pub out_copies: [u64; 6],
    /// Outbound copies per class emitted from `on_timer` (trace mode):
    /// retransmissions.
    pub timer_copies: [u64; 6],
    /// Decide-class send actions and the cast ids they carry (trace mode).
    pub decide_sends: u64,
    /// See [`decide_sends`](Self::decide_sends).
    pub decide_casts: u64,
    /// Bytes of sealed `Frame::Peer` per remote copy (trace mode).
    pub wire_bytes: u64,
    /// Send actions replayed through `wire::seal`/`wire::open`.
    pub wire_msgs: u64,
    /// Nanoseconds in `wire::seal` and `wire::open`.
    pub seal_ns: u64,
    /// See [`seal_ns`](Self::seal_ns).
    pub open_ns: u64,
    /// Recorded spans (at most [`SPAN_CAP`] after merging).
    pub spans: Vec<Span>,
}

impl Stats {
    /// Adds `o` into `self` (spans up to the cap).
    pub fn merge(&mut self, o: &mut Stats) {
        self.events += o.events;
        self.inter_copies += o.inter_copies;
        self.remote_copies += o.remote_copies;
        for i in 0..KINDS {
            self.calls[i] += o.calls[i];
            self.handler_ns[i] += o.handler_ns[i];
        }
        self.shim_ns += o.shim_ns;
        for i in 0..6 {
            self.out_copies[i] += o.out_copies[i];
            self.timer_copies[i] += o.timer_copies[i];
        }
        self.decide_sends += o.decide_sends;
        self.decide_casts += o.decide_casts;
        self.wire_bytes += o.wire_bytes;
        self.wire_msgs += o.wire_msgs;
        self.seal_ns += o.seal_ns;
        self.open_ns += o.open_ns;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(o.spans.drain(..).take(room));
    }

    /// Calls of `kind`.
    pub fn calls_of(&self, kind: Kind) -> u64 {
        self.calls[kind.index()]
    }

    /// Mean wrapped-handler nanoseconds of `kind` (0 if never called).
    pub fn mean_ns(&self, kind: Kind) -> f64 {
        let n = self.calls[kind.index()];
        if n == 0 {
            0.0
        } else {
            self.handler_ns[kind.index()] as f64 / n as f64
        }
    }

    /// Outbound copies of `class`.
    pub fn copies(&self, class: MsgClass) -> u64 {
        self.out_copies[class_index(class)]
    }
}

/// [`NetHooks::hops`]: no hop matching.
pub const HOPS_OFF: u8 = 0;
/// [`NetHooks::hops`]: every remote copy pushes its send time onto its
/// link's FIFO and every receipt pops it.
pub const HOPS_MATCH: u8 = 1;
/// [`NetHooks::hops`]: receipts still pop, sends no longer push, so the
/// links drain without a copy sent from now on ever being matched.
pub const HOPS_DRAIN: u8 = 2;

/// Live cross-thread hooks of the TCP workload: completion accounting
/// (always) plus the per-op and per-link timestamps of the traced run.
pub struct NetHooks {
    /// Called with `(process, cast id, now_ns)` for every A-Deliver.
    pub on_deliver: Box<dyn Fn(ProcessId, MessageId, u64) + Send + Sync>,
    /// Whether the shims time and classify (switchable mid-run, so one
    /// run can measure the same phase with and without tracing).
    pub traced: AtomicBool,
    /// Handler invocations over all nodes.
    pub events: AtomicU64,
    /// Wrapped-handler nanoseconds per node (trace mode).
    pub handler_ns: Vec<AtomicU64>,
    /// `on_cast` entry time per op index (the cast id's `seq`), trace mode.
    pub cast_entry_ns: Vec<AtomicU64>,
    /// Hop matching state: [`HOPS_OFF`], [`HOPS_MATCH`] or [`HOPS_DRAIN`].
    /// Independent of [`traced`](Self::traced), so that flipping the mode
    /// while copies are in flight cannot pair a receipt with another
    /// copy's send.
    pub hops: AtomicU8,
    /// Per ordered link `from * n + to`: handler-return times of the
    /// copies sent on it and not yet received, oldest first.
    pub links: Vec<Mutex<VecDeque<u64>>>,
    /// Handler-return → handler-entry times of matched copies received
    /// in trace mode.
    pub hops_ns: Mutex<Vec<u64>>,
    /// Linux thread id of each node's event loop (0 until its first call).
    pub loop_tids: Vec<AtomicU64>,
    /// Process count (the stride of [`links`](Self::links)).
    pub n: usize,
}

impl NetHooks {
    /// Hooks for `n` processes and `ops` op indices; `match_hops` starts
    /// hop matching ([`HOPS_MATCH`]) before the first handler runs, so
    /// every copy on a link is logged from the first one on.
    pub fn new(
        n: usize,
        ops: usize,
        match_hops: bool,
        on_deliver: Box<dyn Fn(ProcessId, MessageId, u64) + Send + Sync>,
    ) -> Self {
        NetHooks {
            on_deliver,
            traced: AtomicBool::new(false),
            hops: AtomicU8::new(if match_hops { HOPS_MATCH } else { HOPS_OFF }),
            events: AtomicU64::new(0),
            handler_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cast_entry_ns: (0..ops).map(|_| AtomicU64::new(0)).collect(),
            links: (0..n * n).map(|_| Mutex::new(VecDeque::new())).collect(),
            hops_ns: Mutex::new(Vec::new()),
            loop_tids: (0..n).map(|_| AtomicU64::new(0)).collect(),
            n,
        }
    }

    /// Whether every copy logged on a link has been received.
    pub fn links_drained(&self) -> bool {
        self.links
            .iter()
            .all(|l| l.lock().expect("link fifo poisoned").is_empty())
    }
}

/// The Linux id of the calling thread, from `/proc/thread-self`.
pub fn thread_id() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// The timing shim around protocol `P`; see the [module docs](self).
pub struct Timed<P: Protocol> {
    inner: P,
    me: ProcessId,
    arm: u8,
    scratch: Vec<Action<P::Msg>>,
    stats: Stats,
    sink: Arc<Mutex<Stats>>,
    hooks: Option<Arc<NetHooks>>,
    wire_buf: Vec<u8>,
}

impl<P: Protocol> Timed<P>
where
    P::Msg: Wire,
{
    /// Wraps `inner` (the protocol of process `me`); counters are merged
    /// into `sink` when the shim is dropped. `arm` is the wire arm id the
    /// replayed frames are sealed with. Without `hooks` the shim always
    /// traces; with them it follows [`NetHooks::traced`].
    pub fn new(
        inner: P,
        me: ProcessId,
        arm: u8,
        sink: Arc<Mutex<Stats>>,
        hooks: Option<Arc<NetHooks>>,
    ) -> Self {
        Timed {
            inner,
            me,
            arm,
            scratch: Vec::new(),
            stats: Stats::default(),
            sink,
            hooks,
            wire_buf: Vec::new(),
        }
    }

    fn tracing(&self) -> bool {
        self.hooks
            .as_ref()
            .map_or(true, |h| h.traced.load(Ordering::Relaxed))
    }

    /// Runs one wrapped handler: times it (trace mode), then relays its
    /// actions to `out` in order, accounting each. `started` is when the
    /// shim was entered (trace mode), so the shim's own classification
    /// work counts as shim time.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        kind: Kind,
        cast: Option<(MessageId, u32)>,
        started: u64,
        ctx: &Context,
        out: &mut Outbox<P::Msg>,
        f: impl FnOnce(&mut P, &Context, &mut Outbox<P::Msg>),
    ) {
        let traced = started > 0;
        self.stats.events += 1;
        let mut tmp = Outbox::with_buffer(std::mem::take(&mut self.scratch));
        let entry = if traced { now_ns() } else { 0 };
        if let Some(h) = &self.hooks {
            h.events.fetch_add(1, Ordering::Relaxed);
            if h.loop_tids[self.me.index()].load(Ordering::Relaxed) == 0 {
                h.loop_tids[self.me.index()].store(thread_id(), Ordering::Relaxed);
            }
        }
        f(&mut self.inner, ctx, &mut tmp);
        let ret = if traced { now_ns() } else { 0 };
        for action in tmp.drain() {
            match &action {
                Action::Send { to, msg } => {
                    self.account(std::slice::from_ref(to), msg, kind, traced, ret, ctx)
                }
                Action::SendMany { tos, msg } => self.account(tos, msg, kind, traced, ret, ctx),
                Action::Deliver(m) => self.deliver(m),
                Action::Timer { .. } => {}
            }
            out.emit(action);
        }
        self.scratch = tmp.into_buffer();
        if traced {
            let i = kind.index();
            self.stats.calls[i] += 1;
            self.stats.handler_ns[i] += ret - entry;
            if let Some(h) = &self.hooks {
                h.handler_ns[self.me.index()].fetch_add(ret - entry, Ordering::Relaxed);
            }
            if take_span() {
                self.stats.spans.push(Span {
                    node: self.me.0,
                    kind,
                    start_ns: entry,
                    end_ns: ret,
                    cast: cast.map(|c| c.0),
                    casts: cast.map_or(0, |c| c.1),
                });
            }
            self.stats.shim_ns += now_ns() - started;
        }
    }

    /// The shim-entry timestamp of a call: now in trace mode, else 0.
    fn enter(&self) -> u64 {
        if self.tracing() {
            now_ns()
        } else {
            0
        }
    }

    fn deliver(&mut self, m: &AppMessage) {
        if let Some(h) = &self.hooks {
            (h.on_deliver)(self.me, m.id, now_ns());
        }
    }

    /// Accounts one send action of `tos.len()` copies.
    fn account(
        &mut self,
        tos: &[ProcessId],
        msg: &P::Msg,
        kind: Kind,
        traced: bool,
        ret: u64,
        ctx: &Context,
    ) {
        let topo = ctx.topology();
        let mine = ctx.group();
        let remote = tos.iter().filter(|&&to| to != self.me).count() as u64;
        self.stats.inter_copies +=
            tos.iter().filter(|&&to| topo.group_of(to) != mine).count() as u64;
        if let Some(h) = self
            .hooks
            .as_ref()
            .filter(|h| h.hops.load(Ordering::Relaxed) == HOPS_MATCH)
        {
            let sent = if ret > 0 { ret } else { now_ns() };
            for &to in tos.iter().filter(|&&to| to != self.me) {
                let link = &h.links[self.me.index() * h.n + to.index()];
                link.lock().expect("link fifo poisoned").push_back(sent);
            }
        }
        if !traced {
            return;
        }
        let info = P::describe_msg(msg).unwrap_or(MsgInfo::new(MsgClass::Other, Vec::new()));
        self.stats.remote_copies += remote;
        let c = class_index(info.class);
        self.stats.out_copies[c] += tos.len() as u64;
        if kind == Kind::Timer {
            self.stats.timer_copies[c] += tos.len() as u64;
        }
        if info.class == MsgClass::Decide {
            self.stats.decide_sends += 1;
            self.stats.decide_casts += info.casts.len() as u64;
        }
        if remote > 0 {
            self.replay(msg, remote);
        }
    }

    /// Seals the send as the TCP host would (one `Frame::Peer` per send
    /// action, shared by its copies) and opens it again, timing both.
    fn replay(&mut self, msg: &P::Msg, copies: u64) {
        let frame = Frame::Peer {
            from: self.me,
            msg: msg.clone(),
        };
        let t0 = Instant::now();
        wire::seal_into(self.arm, &frame, &mut self.wire_buf);
        let t1 = Instant::now();
        let back = wire::open::<Frame<P::Msg>>(self.arm, &self.wire_buf);
        let t2 = Instant::now();
        assert!(back.is_ok(), "a sealed frame must open");
        self.stats.wire_msgs += 1;
        self.stats.wire_bytes += self.wire_buf.len() as u64 * copies;
        self.stats.seal_ns += (t1 - t0).as_nanos() as u64;
        self.stats.open_ns += (t2 - t1).as_nanos() as u64;
    }

    /// Matches an inbound copy against its link's send-time FIFO; the hop
    /// is kept if the copy arrived in trace mode (`entry > 0`).
    fn hop(&self, from: ProcessId, entry: u64) {
        let Some(h) = &self.hooks else { return };
        if from == self.me || h.hops.load(Ordering::Relaxed) == HOPS_OFF {
            return;
        }
        let sent = h.links[from.index() * h.n + self.me.index()]
            .lock()
            .expect("link fifo poisoned")
            .pop_front();
        if let (Some(sent), true) = (sent, entry > 0) {
            h.hops_ns
                .lock()
                .expect("hop log poisoned")
                .push(entry.saturating_sub(sent));
        }
    }
}

fn first_cast(info: &MsgInfo) -> Option<(MessageId, u32)> {
    info.casts.first().map(|&id| (id, info.casts.len() as u32))
}

impl<P: Protocol> Drop for Timed<P> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&mut self.stats);
        }
    }
}

impl<P> Protocol for Timed<P>
where
    P: Protocol + Send + 'static,
    P::Msg: Wire,
{
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &Context, out: &mut Outbox<P::Msg>) {
        let t = self.enter();
        self.call(Kind::Start, None, t, ctx, out, |p, c, o| p.on_start(c, o));
    }

    fn on_cast(&mut self, msg: AppMessage, ctx: &Context, out: &mut Outbox<P::Msg>) {
        let t = self.enter();
        if let (true, Some(h)) = (t > 0, &self.hooks) {
            if let Some(slot) = h.cast_entry_ns.get(msg.id.seq as usize) {
                slot.store(t, Ordering::Relaxed);
            }
        }
        let id = Some((msg.id, 1));
        self.call(Kind::Cast, id, t, ctx, out, |p, c, o| p.on_cast(msg, c, o));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: P::Msg,
        ctx: &Context,
        out: &mut Outbox<P::Msg>,
    ) {
        let t = self.enter();
        self.hop(from, t);
        let (kind, cast) = if t > 0 {
            match P::describe_msg(&msg) {
                Some(info) => (Kind::Msg(info.class), first_cast(&info)),
                None => (Kind::Msg(MsgClass::Other), None),
            }
        } else {
            (Kind::Msg(MsgClass::Other), None)
        };
        self.call(kind, cast, t, ctx, out, |p, c, o| {
            p.on_message(from, msg, c, o)
        });
    }

    fn on_timer(&mut self, kind: u64, ctx: &Context, out: &mut Outbox<P::Msg>) {
        let t = self.enter();
        self.call(Kind::Timer, None, t, ctx, out, |p, c, o| {
            p.on_timer(kind, c, o)
        });
    }

    fn on_crash_notification(
        &mut self,
        crashed: ProcessId,
        ctx: &Context,
        out: &mut Outbox<P::Msg>,
    ) {
        let t = self.enter();
        self.call(Kind::Crash, None, t, ctx, out, |p, c, o| {
            p.on_crash_notification(crashed, c, o)
        });
    }

    fn describe_msg(msg: &P::Msg) -> Option<MsgInfo> {
        P::describe_msg(msg)
    }
}

/// Counters a [`TimedKv`] shares with the benchmark.
#[derive(Debug, Default)]
pub struct ApplyStats {
    /// Applies.
    pub applies: AtomicU64,
    /// Nanoseconds inside the wrapped `apply`.
    pub apply_ns: AtomicU64,
}

/// A `StateMachine` wrapper timing each apply of the wrapped replica.
pub struct TimedKv<S> {
    /// The wrapped replica.
    pub inner: S,
    /// Shared counters.
    pub stats: Arc<ApplyStats>,
}

impl<S: wamcast_types::StateMachine> wamcast_types::StateMachine for TimedKv<S> {
    fn apply(&mut self, msg: &AppMessage) {
        let t0 = Instant::now();
        self.inner.apply(msg);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.applies.fetch_add(1, Ordering::Relaxed);
        self.stats.apply_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

//! The std-TCP [`Transport`] backend and its receive half.
//!
//! **Topology: one connection per node pair.** Every node owns one
//! [`TcpListener`] and one connection table with a slot per peer. The
//! node that first sends to a peer dials it and opens the stream with an
//! 8-byte preamble: a magic word and its own process id. The acceptor
//! reads the claimed id and *adopts* the connection as its own link to
//! that peer instead of dialling back, so the peer's replies ride the
//! request's connection — a reply segment carries the ACK of the request
//! it answers, where two one-way connections cost every frame a second,
//! pure-ACK segment. The dialler polls the connections it dialled beside
//! the ones it accepted. The acceptor writes no preamble: the dialler
//! knows whom it dialled.
//!
//! **Why FIFO holds.** TCP keeps bytes ordered within a connection, and
//! each direction of a pair uses one connection at a time: a connection
//! is adopted only into an empty slot, never in place of a live link.
//! When both ends dial at once, each keeps sending on the connection it
//! dialled and reads the other's as receive-only — two connections, one
//! per direction. So every link is FIFO, the same per-ordered-pair
//! assumption the paper (and the in-process runtime) makes. A reject or
//! an EOF on a pair's link ends it in both directions (the peer is gone
//! or speaking garbage either way); the next send redials.
//!
//! **Thread model: one event loop per worker, and no other thread.** The
//! hosting [`ThreadRuntime`](sbs_sim::ThreadRuntime) runs a fixed set of
//! workers, each hosting several nodes. A worker runs its nodes'
//! handlers, writes their links *and* reads every connection they hold.
//! [`NetFabric::start`] spawns nothing: it hands each worker one
//! [`Inbound`] source holding the listeners and connection tables of
//! every node the worker hosts (through the nodes' [`MsgInjector`]s),
//! and the worker then blocks in one `ppoll(2)` over {wake socket, its
//! nodes' listeners, their connections} with its next timer deadline as
//! the (nanosecond) timeout. Each frame it decodes is delivered to the
//! node whose listener or link it came in on. A node's connection table
//! is shared by the node's [`TcpTransport`] (sends) and that source
//! (receives and flushes); both run on the node's worker, so its lock is
//! never contended. Sockets are non-blocking; each connection carries an
//! incremental framer (preamble, then length-prefixed frames, partial
//! bytes kept for the next read), and every complete frame is decoded
//! with the [`WireCodec`] and delivered to `on_message` on the spot.
//!
//! **No lost wake-ups.** The harness reaches a node through its worker's
//! channel (`invoke`, `inject`, stop). Each enqueue is followed by one
//! byte written to the worker's wake socket; the worker drains the wake
//! socket (inside `wait`), then drains its channel, then waits again —
//! in that order — so a byte it consumed always precedes a drain that
//! sees the entry, and a byte written after the drain is still readable
//! when `ppoll` is entered.
//!
//! **The worker blocks only in `ppoll`; writes are queued.** A send
//! never sleeps and never waits on a peer: a link that is down remembers
//! when it may next be dialled (back-off *state*, doubling to a cap) and
//! until then a send to it is a counted drop with no syscall; a dial is
//! one connect attempt under [`CONNECT_TIMEOUT`]; a frame is written
//! straight to the socket, and what the send buffer does not take waits
//! in the link's write queue, flushed when the worker's `ppoll` reports
//! `POLLOUT`. A queue holds at most [`WRITE_QUEUE_BOUND`] unsent bytes
//! (an empty queue takes any one frame; a frame past the bound is a
//! counted drop and the link stays up), and once its oldest unsent byte
//! is older than [`WRITE_TIMEOUT`] the link is closed, its queued frames
//! counted as drops, and it backs off. So two nodes part-way through
//! multi-MiB frames to each other cannot park each other, and a slow or
//! non-reading peer costs its own link, never the other nodes of the
//! sender's worker. A dropped message is message loss, which the
//! protocols already tolerate. A peer that floods cannot starve the
//! other links either: each readable connection gets one bounded `read`
//! per wake-up (level-triggered `ppoll` reports the rest again), and an
//! unread flood backs up into the flooder's own TCP window instead of an
//! unbounded queue here.
//!
//! A [`TcpTransport::new`] transport (one-way links, its table its own)
//! is polled by no fabric's source. When one of its links holds unsent
//! bytes, the table is listed for whichever source waits on the same
//! worker thread, which then flushes it on `POLLOUT` like its own; with
//! no source on the thread, each send first flushes what the socket
//! takes.
//!
//! A frame that fails to decode — or announces more than
//! [`MAX_FRAME`](crate::MAX_FRAME), refused before anything is reserved
//! for it — bumps a reject counter and closes that one connection: a
//! Byzantine peer can waste a connection, not the process and not
//! another link.
//!
//! **Trust.** The preamble's claimed id is **trusted**, exactly like
//! [`ThreadRuntime::inject`](sbs_sim::ThreadRuntime::inject)'s claimed
//! sender — authentication is out of scope here; the protocol layer is
//! the part that tolerates Byzantine peers. On an adopted connection the
//! claim also picks who *receives* this node's traffic to that id: a
//! connector claiming to be peer `p` before `p` dials gets what this
//! node sends `p`. Binding identity to the link therefore takes one
//! handshake per pair, not one per directed link.
//!
//! The `ppoll` call is the workspace's only `unsafe` block (declared
//! here; std already links libc), which together with the Unix-domain
//! wake socket makes this crate Unix-only (Linux and the BSDs).

use crate::codec::{frame_len, DecodeError, WireCodec};
use sbs_bulk::BulkCodec;
use sbs_core::Payload;
use sbs_sim::{Inbound, MsgInjector, ProcessId, Transport};
use sbs_store::{StoreOut, StoreWire};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// First 4 bytes of every connection ("SBSN"), so a stray client
/// connecting to the port is detected before any frame is parsed.
const PREAMBLE_MAGIC: [u8; 4] = *b"SBSN";
/// Magic plus the dialler's little-endian process id.
const PREAMBLE_LEN: usize = 8;

/// A failed dial keeps its link down for this long at first, doubling
/// per consecutive failure up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Longest a dead link goes without a dial attempt.
const BACKOFF_CAP: Duration = Duration::from_millis(64);
/// Bound on one connect attempt (loopback answers at once either way; a
/// silent remote host must not hold the worker).
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Age limit of a link's oldest unsent byte: a link whose write queue
/// has held a byte this long is closed, and its queued frames are lost.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);
/// Most unsent bytes a link's write queue holds. An empty queue takes
/// any one frame (up to [`MAX_FRAME`](crate::MAX_FRAME)); behind a
/// backlog, a frame that would pass this bound is dropped instead.
pub const WRITE_QUEUE_BOUND: usize = 4 * 1024 * 1024;

/// Steady-state size of a connection's read buffer. A frame that does
/// not fit gets a buffer of exactly its own size for as long as it is in
/// flight, so large values are read straight into place while idle
/// connections stay small.
const READ_BUF: usize = 16 * 1024;

/// Transport gauges of one deployment, summed over its nodes and workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Returns of the workers' `ppoll`, one per return however many
    /// nodes the worker hosts (timer expiries included).
    pub wakeups: u64,
    /// `read` calls on connections — every connection a node holds,
    /// dialled or accepted.
    pub reads: u64,
    /// Frames decoded and delivered.
    pub frames_in: u64,
    /// Connections dialled. A connection the acceptor adopts is counted
    /// once, by its dialler, so a pair that talks both ways costs one.
    pub connects: u64,
    /// Links closed because their oldest unsent byte aged past
    /// [`WRITE_TIMEOUT`].
    pub write_timeouts: u64,
}

impl TransportStats {
    /// Frames delivered per wake-up: ≈ 1 means the next saving is fewer
    /// wake-ups, well above it means fewer messages.
    pub fn frames_per_wakeup(&self) -> f64 {
        self.frames_in as f64 / self.wakeups.max(1) as f64
    }
}

/// Relaxed counters of one node's links or one worker's source
/// (statistics only: they publish nothing).
#[derive(Debug, Default)]
struct Counters {
    wakeups: AtomicU64,
    reads: AtomicU64,
    frames_in: AtomicU64,
    connects: AtomicU64,
    write_timeouts: AtomicU64,
    rejects: AtomicU64,
}

fn bump(counter: &AtomicU64, by: usize) {
    if by > 0 {
        counter.fetch_add(by as u64, Ordering::Relaxed);
    }
}

fn preamble(me: ProcessId) -> [u8; PREAMBLE_LEN] {
    let mut preamble = [0u8; PREAMBLE_LEN];
    preamble[..4].copy_from_slice(&PREAMBLE_MAGIC);
    preamble[4..].copy_from_slice(&me.0.to_le_bytes());
    preamble
}

/// Writes as much of `buf` as the socket takes now; `Ok(n)` with
/// `n < buf.len()` means its send buffer is full.
fn write_some(stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match (&*stream).write(&buf[n..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => n += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// A link's write queue: the frames its socket has not taken yet, held
/// as encoded (never copied).
#[derive(Default)]
struct Outbox {
    /// Oldest first, each with when it was queued; the front one holds
    /// the oldest unsent byte.
    frames: VecDeque<(Vec<u8>, Instant)>,
    /// Bytes of the front frame already written.
    head: usize,
    /// Unsent bytes in all.
    unsent: usize,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whether a frame of `len` bytes may join the queue.
    fn admits(&self, len: usize) -> bool {
        self.is_empty() || self.unsent + len <= WRITE_QUEUE_BOUND
    }

    /// When the oldest unsent byte passes [`WRITE_TIMEOUT`].
    fn deadline(&self) -> Option<Instant> {
        self.frames.front().map(|&(_, at)| at + WRITE_TIMEOUT)
    }

    /// Queues `frame`, of which the socket already took `written` bytes
    /// (an empty queue's head frame only).
    fn push(&mut self, frame: Vec<u8>, written: usize, at: Instant) {
        debug_assert!(written == 0 || self.is_empty());
        self.unsent += frame.len() - written;
        self.head += written;
        self.frames.push_back((frame, at));
    }

    /// Writes what the socket takes. `Err`: the link is broken.
    fn flush(&mut self, stream: &TcpStream) -> io::Result<()> {
        while let Some((frame, _)) = self.frames.front() {
            let n = write_some(stream, &frame[self.head..])?;
            self.unsent -= n;
            self.head += n;
            if self.head < frame.len() {
                break;
            }
            self.frames.pop_front();
            self.head = 0;
        }
        Ok(())
    }
}

/// One peer's slot in a node's connection table.
struct Link {
    /// The pair's connection: dialled by this node, or adopted from the
    /// peer's dial. Sends go out on it and the peer's traffic comes in
    /// on it.
    conn: Option<Conn>,
    /// Earliest instant a down link may be dialled again.
    retry_at: Instant,
    /// Current back-off step; zero while the link is healthy.
    backoff: Duration,
}

impl Link {
    /// Keeps the link down for the next, doubled, back-off step — from
    /// now, not from when the failed attempt began.
    fn back_off(&mut self) {
        self.backoff = (self.backoff * 2).clamp(BACKOFF_BASE, BACKOFF_CAP);
        self.retry_at = Instant::now() + self.backoff;
    }
}

/// Every connection one node holds, read, written and flushed only on
/// its node's worker.
struct Table {
    /// Indexed by [`ProcessId::index`] of the peer.
    links: Vec<Link>,
    /// Accepted connections that are no pair's link: their preamble has
    /// not arrived yet, or it claimed no peer, or a peer whose link was
    /// already up (both ends dialled at once, or a node dialling itself).
    /// Read, never written.
    receive_only: Vec<Conn>,
    /// The fleet's lost-message counter, shared with the transports.
    drops: Arc<AtomicU64>,
    counters: Arc<Counters>,
    /// Set while a transport no source hosts has this table listed for a
    /// worker's flush.
    listed: bool,
}

impl Table {
    fn new(peers: usize, drops: Arc<AtomicU64>, counters: Arc<Counters>) -> Self {
        let now = Instant::now();
        let links = (0..peers)
            .map(|_| Link {
                conn: None,
                retry_at: now,
                backoff: Duration::ZERO,
            })
            .collect();
        Table {
            links,
            receive_only: Vec::new(),
            drops,
            counters,
            listed: false,
        }
    }

    /// Makes `receive_only[i]`, whose preamble just arrived, the link to
    /// the peer it claims — if that peer's slot is empty.
    fn adopt(&mut self, i: usize) {
        let Some(peer) = self.receive_only[i].from else {
            return;
        };
        if let Some(link) = self.links.get_mut(peer.index()) {
            if link.conn.is_none() {
                link.conn = Some(self.receive_only.swap_remove(i));
            }
        }
    }

    /// Ends the pair's link; the frames still queued on it are lost. A
    /// link that timed out stays away for a back-off step rather than
    /// filling a fresh socket buffer per send.
    fn close(&mut self, peer: usize, timed_out: bool) {
        let link = &mut self.links[peer];
        let Some(conn) = link.conn.take() else {
            return;
        };
        bump(&self.drops, conn.out.frames.len());
        if timed_out {
            bump(&self.counters.write_timeouts, 1);
            link.back_off();
        }
    }

    /// Closes the link to `peer` if its oldest unsent byte is past
    /// [`WRITE_TIMEOUT`]; otherwise returns when it will be.
    fn expire(&mut self, peer: usize, now: Instant) -> Option<Instant> {
        let deadline = self.links[peer].conn.as_ref()?.out.deadline()?;
        if deadline > now {
            return Some(deadline);
        }
        self.close(peer, true);
        None
    }

    fn backlogged(&self) -> bool {
        self.links
            .iter()
            .any(|l| l.conn.as_ref().is_some_and(|c| !c.out.is_empty()))
    }
}

type SharedTable = Arc<Mutex<Table>>;

/// Locks a node's table. Only its worker ever does, so this never waits —
/// and a panic while holding it ended the only thread that locks it.
fn lock(table: &SharedTable) -> MutexGuard<'_, Table> {
    table
        .lock()
        .expect("connection table poisoned: its worker panicked")
}

thread_local! {
    /// Tables of [`TcpTransport::new`] transports on this worker with
    /// unsent bytes, waiting for the worker's source to take them over.
    static UNHOSTED: RefCell<Vec<SharedTable>> = const { RefCell::new(Vec::new()) };
}

/// The send half of one node's links: a lazily dialled connection per
/// peer, redialled under per-link back-off, with a write queue each. One
/// instance lives on each node's worker (handed to
/// [`ThreadRuntime::spawn_with_transport`](sbs_sim::ThreadRuntime::spawn_with_transport)).
///
/// From [`NetFabric::transport`] it shares the node's connection table
/// with the receive half of the node's worker, so it sends on
/// connections the peers dialled, the node reads replies on the ones it
/// dialled, and the worker flushes its queues.
pub struct TcpTransport<V> {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    table: SharedTable,
    codec: WireCodec,
    /// Whether a fabric's source polls `table` (else it is listed for
    /// the worker's source whenever it holds unsent bytes).
    hosted: bool,
    _values: PhantomData<fn() -> V>,
}

impl<V> std::fmt::Debug for TcpTransport<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

impl<V> TcpTransport<V> {
    /// A transport for node `me` reaching the peers at `peers` (indexed
    /// by [`ProcessId::index`]). `drops` is the shared lost-message
    /// counter. Its connect and write-timeout gauges are its own; use
    /// [`NetFabric::transport`] to have them counted with a fabric's.
    ///
    /// Its connection table is its own too, so nothing reads what it
    /// dials: every directed link is a connection of its own, one way.
    /// Build every node's transport this way or none — a peer on a
    /// shared table would reply on a connection this node never reads.
    pub fn new(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        codec: WireCodec,
        drops: Arc<AtomicU64>,
    ) -> Self {
        let table = Table::new(peers.len(), drops, Arc::default());
        TcpTransport {
            me,
            peers,
            table: Arc::new(Mutex::new(table)),
            codec,
            hosted: false,
            _values: PhantomData,
        }
    }

    /// One bounded connect attempt. A fresh connection's send buffer is
    /// empty, so the preamble goes out whole or the dial failed.
    fn dial(&self, to: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&self.peers[to], CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        if write_some(&stream, &preamble(self.me))? < PREAMBLE_LEN {
            return Err(io::ErrorKind::WriteZero.into());
        }
        Ok(Conn::new(stream, Some(ProcessId(to as u32))))
    }

    /// Sends `frame` on link `to` — written now, queued, or refused —
    /// dialling it first if it is down and due. Never waits; every
    /// syscall in here is bounded.
    fn try_send(&self, table: &mut Table, to: usize, frame: &mut Vec<u8>) -> bool {
        let now = Instant::now();
        table.expire(to, now);
        let link = &mut table.links[to];
        if link.conn.is_none() {
            if now < link.retry_at {
                return false;
            }
            match self.dial(to) {
                Ok(conn) => {
                    bump(&table.counters.connects, 1);
                    link.conn = Some(conn);
                }
                Err(_) => {
                    link.back_off();
                    return false;
                }
            }
        }
        let conn = link.conn.as_mut().expect("dialled above");
        if !conn.out.admits(frame.len()) {
            return false;
        }
        match conn.send(frame, now) {
            Ok(()) => {
                link.backoff = Duration::ZERO;
                true
            }
            Err(_) => {
                // The peer may be left holding a torn frame: the
                // connection is unusable in both directions.
                table.close(to, false);
                false
            }
        }
    }
}

impl<V> Transport<StoreWire<V>> for TcpTransport<V>
where
    V: Payload + BulkCodec + Send + Sync,
{
    fn send(&mut self, _from: ProcessId, to: ProcessId, msg: StoreWire<V>) {
        let to = to.index();
        let frame = (to < self.peers.len()).then(|| self.codec.encode(&msg));
        let mut table = lock(&self.table);
        // A connection that died since the last send (peer restarted) is
        // left due, so the second try redials it at once; a link in
        // back-off fails both tries without a syscall.
        let sent = frame.is_some_and(|mut frame| {
            self.try_send(&mut table, to, &mut frame) || self.try_send(&mut table, to, &mut frame)
        });
        if !sent {
            bump(&table.drops, 1);
        }
        if !self.hosted && !table.listed && table.backlogged() {
            table.listed = true;
            UNHOSTED.with(|list| list.borrow_mut().push(Arc::clone(&self.table)));
        }
    }
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

fn poll_fd(fd: RawFd, events: c_short) -> PollFd {
    PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// `struct timespec` as the `ppoll` symbol takes it (`time_t` is `long`
/// on every Linux and BSD ABI that symbol serves).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until one of `fds` is ready for its `events` (or hung up) or
/// `timeout` elapses; `revents` says which. Nanosecond timeout — `poll`'s
/// milliseconds would blunt every timer that passes through this wait.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    let timeout = timeout.map(|d| Timespec {
        tv_sec: c_long::try_from(d.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: d.subsec_nanos() as c_long, // < 10⁹: fits any `long`
    });
    let timeout_ptr = timeout
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s and `nfds` is its length, so the kernel reads and
    // writes (`revents`) only inside it; `timeout_ptr` is null or points
    // at `timeout`, which outlives the call and holds a normalised
    // timespec (`subsec_nanos` < 10⁹); a null `sigmask` leaves the signal
    // mask alone. `ppoll` keeps none of the pointers.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            timeout_ptr,
            std::ptr::null(),
        )
    };
    if ready < 0 {
        let err = io::Error::last_os_error();
        // A signal is a spurious wake-up; anything else (EFAULT, EINVAL)
        // is a bug in this file.
        // (`revents` stay as the caller zeroed them.)
        assert_eq!(err.kind(), io::ErrorKind::Interrupted, "ppoll: {err}");
    }
}

/// One TCP connection — dialled or accepted, non-blocking — its
/// incremental framer and its write queue.
struct Conn {
    stream: TcpStream,
    /// The peer: known on a dialled connection, claimed by the preamble
    /// on an accepted one (`None` until it has arrived).
    from: Option<ProcessId>,
    /// Read buffer: `buf[..have]` holds bytes not yet consumed. Its
    /// length is [`READ_BUF`], or exactly one frame while a larger one
    /// is in flight — so `have < buf.len()` whenever a read starts.
    buf: Vec<u8>,
    have: usize,
    /// Unsent frame bytes; empty on every connection never written.
    out: Outbox,
}

impl Conn {
    fn new(stream: TcpStream, from: Option<ProcessId>) -> Self {
        Conn {
            stream,
            from,
            buf: vec![0; READ_BUF],
            have: 0,
            out: Outbox::default(),
        }
    }

    /// Writes `frame` behind whatever is queued, moving it into the
    /// queue if the socket does not take all of it now. `Err`: the link
    /// is broken, and `frame` is still the caller's.
    fn send(&mut self, frame: &mut Vec<u8>, now: Instant) -> io::Result<()> {
        // A backlog goes first (no syscall when there is none).
        self.out.flush(&self.stream)?;
        let written = if self.out.is_empty() {
            write_some(&self.stream, frame)?
        } else {
            0
        };
        if written < frame.len() {
            self.out.push(std::mem::take(frame), written, now);
        }
        Ok(())
    }

    /// One `read`, then every frame it completed into `batch`, addressed
    /// to `to`. `Ok(false)`: the peer closed at a frame boundary. `Err`:
    /// the stream is malformed or torn — the caller counts the reject.
    fn pump<V: Payload + BulkCodec>(
        &mut self,
        codec: &WireCodec,
        to: ProcessId,
        batch: &mut Vec<(ProcessId, ProcessId, StoreWire<V>)>,
    ) -> Result<bool, DecodeError> {
        debug_assert!(self.have < self.buf.len());
        let n = match self.stream.read(&mut self.buf[self.have..]) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(true)
            }
            Err(_) => 0, // reset: the stream ended here
        };
        if n == 0 {
            // Before the preamble completes nothing was claimed (a port
            // probe, a connect-then-close); after it, leftover bytes are
            // a frame that will never finish.
            return match self.from {
                Some(_) if self.have > 0 => Err(DecodeError::Truncated),
                _ => Ok(false),
            };
        }
        self.have += n;
        self.drain_frames(codec, to, batch)?;
        Ok(true)
    }

    /// Decodes every complete frame in the buffer, moves the partial
    /// tail to the front and sizes the buffer for what comes next.
    fn drain_frames<V: Payload + BulkCodec>(
        &mut self,
        codec: &WireCodec,
        to: ProcessId,
        batch: &mut Vec<(ProcessId, ProcessId, StoreWire<V>)>,
    ) -> Result<(), DecodeError> {
        let mut pos = 0;
        let mut room = READ_BUF;
        loop {
            let rest = &self.buf[pos..self.have];
            let Some(from) = self.from else {
                let Some(preamble) = rest.first_chunk::<PREAMBLE_LEN>() else {
                    break;
                };
                if preamble[..4] != PREAMBLE_MAGIC {
                    return Err(DecodeError::Malformed("preamble magic"));
                }
                let id = preamble[4..].try_into().expect("4 of 8 bytes");
                self.from = Some(ProcessId(u32::from_le_bytes(id)));
                pos += PREAMBLE_LEN;
                continue;
            };
            let Some((prefix, body)) = rest.split_first_chunk::<4>() else {
                break;
            };
            // Oversize is refused here, before `room` can grow for it.
            let len = frame_len(*prefix)?;
            let Some(payload) = body.get(..len) else {
                room = room.max(4 + len);
                break;
            };
            batch.push((to, from, codec.decode_payload(payload)?));
            pos += 4 + len;
        }
        self.buf.copy_within(pos..self.have, 0);
        self.have -= pos;
        if self.buf.len() != room {
            // Growing: reserve the announced frame once, exactly, and let
            // the following reads land in it. Shrinking: that frame is
            // done (its buffer held nothing else). A fresh zeroed
            // allocation either way — unlike `resize`, a large one costs
            // nothing per page until a read touches it.
            let mut buf = vec![0; room];
            buf[..self.have].copy_from_slice(&self.buf[..self.have]);
            self.buf = buf;
        }
        Ok(())
    }
}

/// One node's sockets as its worker polls them.
struct Hosted {
    me: ProcessId,
    listener: TcpListener,
    table: SharedTable,
}

/// One worker's receive half: every listener and connection of the
/// nodes it hosts, behind one `ppoll`.
struct SocketInbound<V> {
    wake: UnixStream,
    nodes: Vec<Hosted>,
    /// Tables of [`TcpTransport::new`] transports on this worker with
    /// unsent bytes (taken over from [`UNHOSTED`]); flushed, never read.
    unhosted: Vec<SharedTable>,
    /// Scratch for `ppoll`: the wake socket, then per node its listener,
    /// its links' connections in peer order and its receive-only ones in
    /// order; then the unhosted tables' backlogged links.
    fds: Vec<PollFd>,
    codec: WireCodec,
    /// This worker's wake-ups, reads, frames and rejects.
    counters: Arc<Counters>,
    _values: PhantomData<fn() -> V>,
}

/// The earlier of two optional deadlines (or timeouts).
fn earliest<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
    a.into_iter().chain(b).min()
}

impl<V> Inbound<StoreWire<V>> for SocketInbound<V>
where
    V: Payload + BulkCodec + Send + Sync,
{
    fn wait(
        &mut self,
        timeout: Option<Duration>,
        batch: &mut Vec<(ProcessId, ProcessId, StoreWire<V>)>,
    ) {
        let SocketInbound {
            wake,
            nodes,
            unhosted,
            fds,
            codec,
            counters,
            ..
        } = self;
        UNHOSTED.with(|list| unhosted.append(&mut list.borrow_mut()));
        let mut tables: Vec<MutexGuard<'_, Table>> = nodes.iter().map(|n| lock(&n.table)).collect();
        let mut foreign: Vec<MutexGuard<'_, Table>> = unhosted.iter().map(lock).collect();

        // Links whose oldest unsent byte aged out close here; the rest
        // bound the wait.
        let now = Instant::now();
        let mut deadline = None;
        fds.clear();
        fds.push(poll_fd(wake.as_raw_fd(), POLLIN));
        for (node, table) in nodes.iter().zip(&mut tables) {
            fds.push(poll_fd(node.listener.as_raw_fd(), POLLIN));
            for peer in 0..table.links.len() {
                deadline = earliest(deadline, table.expire(peer, now));
                if let Some(conn) = &table.links[peer].conn {
                    let out = if conn.out.is_empty() { 0 } else { POLLOUT };
                    fds.push(poll_fd(conn.stream.as_raw_fd(), POLLIN | out));
                }
            }
            let receive_only = table.receive_only.iter();
            fds.extend(receive_only.map(|c| poll_fd(c.stream.as_raw_fd(), POLLIN)));
        }
        for table in &mut foreign {
            for peer in 0..table.links.len() {
                deadline = earliest(deadline, table.expire(peer, now));
                if let Some(conn) = &table.links[peer].conn {
                    if !conn.out.is_empty() {
                        fds.push(poll_fd(conn.stream.as_raw_fd(), POLLOUT));
                    }
                }
            }
        }
        wait_ready(fds, earliest(timeout, deadline.map(|d| d - now)));
        bump(&counters.wakeups, 1);

        if fds[0].revents != 0 {
            // Consume the wake signal — all of it, so one byte per
            // enqueue cannot pile up — before the caller drains the
            // channel.
            let mut sink = [0u8; 64];
            while matches!((&*wake).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        let (frames_before, mut reads) = (batch.len(), 0);
        let mut read = |conn: &mut Conn, to, batch: &mut Vec<_>| {
            reads += 1;
            conn.pump(codec, to, batch).unwrap_or_else(|_| {
                // A peer speaking garbage loses its connection; if it
                // was an honest peer's torn write, it redials.
                bump(&counters.rejects, 1);
                false
            })
        };
        // Walk `fds` in the order it was filled.
        let mut at = 1;
        for (node, table) in nodes.iter().zip(&mut tables) {
            let accept = fds[at].revents != 0;
            at += 1;
            for peer in 0..table.links.len() {
                let Some(conn) = &mut table.links[peer].conn else {
                    continue;
                };
                let revents = fds[at].revents;
                at += 1;
                let flushed = revents & POLLOUT == 0 || conn.out.flush(&conn.stream).is_ok();
                // Closed, garbage or broken: the pair's link, both
                // directions.
                if !flushed || (revents & !POLLOUT != 0 && !read(conn, node.me, batch)) {
                    table.close(peer, false);
                }
            }
            let ready = &fds[at..at + table.receive_only.len()];
            at += ready.len();
            // Back to front, so `swap_remove` only moves a connection that
            // already had its turn; new connections join after the pass.
            for i in (0..table.receive_only.len()).rev() {
                if ready[i].revents == 0 {
                    continue;
                }
                let conn = &mut table.receive_only[i];
                let claimed = conn.from.is_some();
                if !read(conn, node.me, batch) {
                    table.receive_only.swap_remove(i);
                } else if !claimed && conn.from.is_some() {
                    table.adopt(i);
                }
            }
            if accept {
                // Everything in the backlog; `WouldBlock` ends the loop,
                // and any other failure waits for the next wake-up.
                while let Ok((stream, _)) = node.listener.accept() {
                    if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                        table.receive_only.push(Conn::new(stream, None));
                    }
                }
            }
        }
        for table in &mut foreign {
            for peer in 0..table.links.len() {
                let Some(conn) = &mut table.links[peer].conn else {
                    continue;
                };
                if conn.out.is_empty() {
                    continue;
                }
                let revents = fds[at].revents;
                at += 1;
                if revents != 0 && conn.out.flush(&conn.stream).is_err() {
                    table.close(peer, false);
                }
            }
        }
        bump(&counters.reads, reads);
        bump(&counters.frames_in, batch.len() - frames_before);
        drop(tables);
        for table in &mut foreign {
            table.listed = table.backlogged();
        }
        drop(foreign);
        unhosted.retain(|table| lock(table).listed);
    }
}

/// One node's sockets until [`NetFabric::start`] hands them to its
/// worker.
struct Unstarted {
    listener: TcpListener,
    /// A wake socket's read end (the worker's) and write end (the
    /// waker's); [`NetFabric::start`] keeps the pair of each worker's
    /// first node.
    wake: UnixStream,
    waker: UnixStream,
    table: SharedTable,
}

/// Binds the fleet's listeners and hands them to the workers that host
/// their nodes.
///
/// Build with [`NetFabric::bind`] (which fixes the fleet's addresses),
/// spawn the runtime with the [`TcpTransport`]s from
/// [`NetFabric::transport`], then call [`NetFabric::start`] with the
/// runtime's injectors. The fabric runs no thread of its own: after
/// `start` every socket belongs to a worker and closes when the hosting
/// [`ThreadRuntime`](sbs_sim::ThreadRuntime) stops; what stays here is
/// the address book and the counters.
pub struct NetFabric {
    /// Per node, until `start` hands them off.
    unstarted: Vec<Unstarted>,
    addrs: Vec<SocketAddr>,
    /// One per node (its links' gauges), then one per started worker
    /// (its source's).
    counters: Vec<Arc<Counters>>,
}

impl std::fmt::Debug for NetFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetFabric")
            .field("nodes", &self.addrs.len())
            .finish_non_exhaustive()
    }
}

impl NetFabric {
    /// Binds one loopback listener per node and fixes the fleet's
    /// addresses (ephemeral ports — parallel deployments never collide).
    /// Peers can connect from here on (the kernel queues them); they are
    /// accepted once [`NetFabric::start`] has run.
    pub fn bind(nodes: usize) -> io::Result<Self> {
        let mut unstarted = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        let counters: Vec<Arc<Counters>> = (0..nodes).map(|_| Arc::default()).collect();
        for node_counters in &counters {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            let (wake, waker) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            // A full wake socket already guarantees a wake-up; the
            // waker must never block on it.
            waker.set_nonblocking(true)?;
            let table = Table::new(nodes, Arc::default(), Arc::clone(node_counters));
            unstarted.push(Unstarted {
                listener,
                wake,
                waker,
                table: Arc::new(Mutex::new(table)),
            });
        }
        Ok(NetFabric {
            unstarted,
            addrs,
            counters,
        })
    }

    /// The fleet's socket addresses, indexed by [`ProcessId::index`].
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Node `me`'s transport to this fleet: it shares the node's
    /// connection table with the receive half [`NetFabric::start`] hands
    /// the node's worker, and its gauges are counted into
    /// [`NetFabric::stats`].
    ///
    /// # Panics
    ///
    /// Panics if `me` is not one of the bound nodes, or if the fabric has
    /// already started.
    pub fn transport<V>(
        &self,
        me: ProcessId,
        codec: WireCodec,
        drops: Arc<AtomicU64>,
    ) -> TcpTransport<V> {
        let node = self
            .unstarted
            .get(me.index())
            .expect("a bound node of a fabric not yet started");
        lock(&node.table).drops = drops;
        TcpTransport {
            me,
            peers: self.addrs.clone(),
            table: Arc::clone(&node.table),
            codec,
            hosted: true,
            _values: PhantomData,
        }
    }

    /// Frames that failed to decode (and the connections they killed).
    pub fn decode_rejects(&self) -> u64 {
        self.sum(|c| &c.rejects)
    }

    /// The deployment's transport gauges so far.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            wakeups: self.sum(|c| &c.wakeups),
            reads: self.sum(|c| &c.reads),
            frames_in: self.sum(|c| &c.frames_in),
            connects: self.sum(|c| &c.connects),
            write_timeouts: self.sum(|c| &c.write_timeouts),
        }
    }

    fn sum(&self, counter: impl Fn(&Counters) -> &AtomicU64) -> u64 {
        self.counters
            .iter()
            .map(|c| counter(c).load(Ordering::Relaxed))
            .sum()
    }

    /// Hands every worker the listeners and connection tables of the
    /// nodes it hosts, as one source per worker: from its next turn on,
    /// the worker behind the injectors (one per node, in [`ProcessId`]
    /// order) accepts, reads, decodes and flushes its nodes' connections
    /// and delivers each message to the node it came in for.
    ///
    /// # Panics
    ///
    /// Panics if `injectors` does not match the fleet bound by
    /// [`NetFabric::bind`], or if called twice.
    pub fn start<V>(
        &mut self,
        codec: WireCodec,
        injectors: Vec<MsgInjector<StoreWire<V>, StoreOut<V>>>,
    ) where
        V: Payload + BulkCodec + Send + Sync,
    {
        assert_eq!(
            injectors.len(),
            self.addrs.len(),
            "one injector per bound node"
        );
        assert_eq!(
            self.unstarted.len(),
            self.addrs.len(),
            "fabric already started"
        );
        // Per worker, in order of its first node: that node's injector
        // and wake pair, and every node it hosts.
        let mut workers: Vec<(MsgInjector<_, _>, [UnixStream; 2], Vec<Hosted>)> = Vec::new();
        for (i, (node, injector)) in self.unstarted.drain(..).zip(injectors).enumerate() {
            let hosted = Hosted {
                me: ProcessId(i as u32),
                listener: node.listener,
                table: node.table,
            };
            match workers
                .iter_mut()
                .find(|w| w.0.worker() == injector.worker())
            {
                Some(worker) => worker.2.push(hosted),
                None => workers.push((injector, [node.wake, node.waker], vec![hosted])),
            }
        }
        for (injector, [wake, waker], nodes) in workers {
            let counters = Arc::default();
            self.counters.push(Arc::clone(&counters));
            let inbound = SocketInbound::<V> {
                wake,
                nodes,
                unhosted: Vec::new(),
                fds: Vec::new(),
                codec,
                counters,
                _values: PhantomData,
            };
            injector.attach(Box::new(inbound), move || {
                // `WouldBlock` means bytes are already pending, and a
                // closed read end that the worker is gone: both fine.
                let _ = (&waker).write(&[1]);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame, MAX_FRAME};
    use sbs_bulk::BulkDigest;
    use sbs_core::RegMsg;
    use sbs_sim::{Context, Node, OpId, SimDuration, ThreadRuntime, TimerId};
    use sbs_stamps::PAPER_MODULUS;
    use sbs_store::StoreMsg;
    use std::any::Any;

    type Wire = StoreWire<u64>;
    type Out = StoreOut<u64>;

    const PATIENCE: Duration = Duration::from_secs(10);
    /// An `SS_ACK` with this tag asks the recorder for a 2.5 ms timer.
    const ARM_TIMER: u64 = u64::MAX;

    /// Reports every delivery as `GetDone { op: n, value: sender }`: `n`
    /// is the tag of a one-`SS_ACK` batch or the length of a `FRAG_PUT`'s
    /// bytes; a fired timer reports how many µs late it was.
    struct Recorder {
        deadline: Option<Instant>,
    }

    impl Node for Recorder {
        type Msg = Wire;
        type Out = Out;

        fn on_message(&mut self, from: ProcessId, msg: Wire, ctx: &mut Context<'_, Wire, Out>) {
            let n = match msg {
                StoreMsg::Batch(batch) => match batch[..] {
                    [RegMsg::SsAck { tag: ARM_TIMER }] => {
                        let delay = Duration::from_micros(2_500);
                        ctx.set_timer(SimDuration::nanos(delay.as_nanos() as u64));
                        self.deadline = Some(Instant::now() + delay);
                        return;
                    }
                    [RegMsg::SsAck { tag }] => tag,
                    _ => panic!("test traffic is one SS_ACK per batch"),
                },
                StoreMsg::FragPut { bytes, .. } => bytes.len() as u64,
                other => panic!("unexpected test message {other:?}"),
            };
            ctx.output(StoreOut::GetDone {
                op: OpId(n),
                value: Some(u64::from(from.0)),
            });
        }

        fn on_timer(&mut self, _: TimerId, ctx: &mut Context<'_, Wire, Out>) {
            let late = self.deadline.take().expect("armed").elapsed();
            ctx.output(StoreOut::PutDone {
                op: OpId(late.as_micros() as u64),
            });
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn codec() -> WireCodec {
        WireCodec::new(PAPER_MODULUS)
    }

    fn ack(tag: u64) -> Wire {
        StoreMsg::Batch(vec![RegMsg::SsAck { tag }])
    }

    fn blob(len: usize) -> Wire {
        StoreMsg::FragPut {
            shard: 0,
            slot: 0,
            root: BulkDigest([0; 4]),
            index: 0,
            total: 1,
            bytes: vec![7u8; len].into(),
            proof: Vec::new(),
        }
    }

    fn preamble(id: u32) -> Vec<u8> {
        super::preamble(ProcessId(id)).to_vec()
    }

    /// Recorder nodes on real listeners.
    struct Rig {
        rt: ThreadRuntime<Wire, Out>,
        fabric: NetFabric,
        drops: Arc<AtomicU64>,
    }

    /// An `n`-node rig under both placements the runtime can give it:
    /// every node on one worker, and one worker per node. The tests of a
    /// single node use `rigs(2)`: node 0 under test beside a bystander
    /// node 1, and raw peers claiming ids that are no node of the rig,
    /// so nothing is adopted.
    fn rigs(n: usize) -> impl Iterator<Item = Rig> {
        [1, n].into_iter().map(move |workers| Rig::on(workers, n))
    }

    impl Rig {
        fn on(workers: usize, n: usize) -> Self {
            let mut fabric = NetFabric::bind(n).expect("bind");
            let drops = Arc::new(AtomicU64::new(0));
            let nodes = (0..n)
                .map(|_| {
                    Box::new(Recorder { deadline: None }) as Box<dyn Node<Msg = _, Out = _> + Send>
                })
                .collect();
            let rt = ThreadRuntime::spawn_with_workers(workers, nodes, 1, |me, _| {
                Box::new(fabric.transport::<u64>(me, codec(), Arc::clone(&drops)))
            });
            let injectors = (0..n).map(|i| rt.injector(ProcessId(i as u32))).collect();
            fabric.start(codec(), injectors);
            Rig { rt, fabric, drops }
        }

        /// A raw client connection to node 0, preamble not yet sent.
        fn connect(&self) -> TcpStream {
            let stream = TcpStream::connect(self.fabric.addrs()[0]).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.set_read_timeout(Some(PATIENCE)).expect("timeout");
            stream
        }

        /// Has node `from` send `msg` to node `to`.
        fn send(&self, from: u32, to: u32, msg: Wire) {
            self.rt
                .invoke::<Recorder>(ProcessId(from), move |_, ctx| ctx.send(ProcessId(to), msg));
        }

        /// The next delivery as `(receiver, n, claimed sender)`.
        fn delivered(&self) -> (u32, u64, u64) {
            match self.rt.recv_output(PATIENCE) {
                Some((at, StoreOut::GetDone { op, value })) => (at.0, op.0, value.expect("sender")),
                other => panic!("expected a delivery, got {other:?}"),
            }
        }

        /// The next delivery, which must be node 0's, as `(n, claimed
        /// sender)`.
        fn delivery(&self) -> (u64, u64) {
            let (at, n, from) = self.delivered();
            assert_eq!(at, 0, "a frame for node 0 reached node {at}");
            (n, from)
        }

        /// Spins until the workers' counters satisfy `reached`, so a
        /// test steps in lock-step with it instead of sleeping.
        fn until(&self, what: &str, reached: impl Fn(&NetFabric) -> bool) {
            let deadline = Instant::now() + PATIENCE;
            while !reached(&self.fabric) {
                assert!(Instant::now() < deadline, "node never reached: {what}");
                std::thread::yield_now();
            }
        }

        /// Asserts the peer's connection was closed by the node.
        fn assert_closed(mut peer: TcpStream) {
            let mut sink = [0u8; 16];
            assert!(
                matches!(peer.read(&mut sink), Ok(0) | Err(_)),
                "the node must close the offending connection"
            );
        }
    }

    #[test]
    fn a_dribbled_stream_delivers_every_frame_in_order() {
        for rig in rigs(2) {
            let mut stream = preamble(3);
            for tag in 0..20 {
                stream.extend(codec().encode(&ack(tag)));
            }
            let mut peer = rig.connect();
            for byte in stream {
                peer.write_all(&[byte]).expect("one byte");
            }
            for tag in 0..20 {
                assert_eq!(rig.delivery(), (tag, 3));
            }
            assert_eq!(rig.fabric.decode_rejects(), 0);
            assert_eq!(rig.fabric.stats().frames_in, 20);
        }
    }

    #[test]
    fn many_frames_in_one_write_deliver_in_order() {
        // ≈ 4 read buffers' worth, so frames straddle buffer boundaries.
        for rig in rigs(2) {
            let frames = 4 * READ_BUF as u64 / codec().encode(&ack(0)).len() as u64;
            let mut stream = preamble(5);
            for tag in 0..frames {
                stream.extend(codec().encode(&ack(tag)));
            }
            rig.connect().write_all(&stream).expect("one write");
            for tag in 0..frames {
                assert_eq!(rig.delivery(), (tag, 5));
            }
            assert_eq!(rig.fabric.decode_rejects(), 0);
            let stats = rig.fabric.stats();
            assert!(
                stats.reads < frames / 10,
                "a read must take what is there, not a frame: {stats:?}"
            );
        }
    }

    #[test]
    fn a_stream_split_at_every_byte_offset_delivers_both_frames() {
        for rig in rigs(2) {
            let stream = [
                preamble(4),
                codec().encode(&ack(1)),
                codec().encode(&ack(2)),
            ]
            .concat();
            for cut in 1..stream.len() {
                let reads = rig.fabric.stats().reads;
                let mut peer = rig.connect();
                peer.write_all(&stream[..cut]).expect("head");
                // The node has consumed the head before the tail exists.
                rig.until("read of the head", |f| f.stats().reads > reads);
                peer.write_all(&stream[cut..]).expect("tail");
                assert_eq!(rig.delivery(), (1, 4), "cut at {cut}");
                assert_eq!(rig.delivery(), (2, 4), "cut at {cut}");
            }
            assert_eq!(rig.fabric.decode_rejects(), 0);
        }
    }

    #[test]
    fn a_frame_larger_than_the_read_buffer_is_read_into_place() {
        for rig in rigs(2) {
            let mut peer = rig.connect();
            let big = 40 * READ_BUF + 123;
            let stream = [
                preamble(6),
                codec().encode(&ack(1)),
                codec().encode(&blob(big)),
                codec().encode(&ack(2)),
                codec().encode(&blob(big)),
                codec().encode(&ack(3)),
            ]
            .concat();
            peer.write_all(&stream).expect("write");
            let expect = [1, big as u64, 2, big as u64, 3];
            for n in expect {
                assert_eq!(rig.delivery(), (n, 6));
            }
            assert_eq!(rig.fabric.decode_rejects(), 0);
        }
    }

    #[test]
    fn a_malformed_stream_costs_one_reject_and_only_its_own_connection() {
        for rig in rigs(2) {
            let mut healthy = rig.connect();
            healthy.write_all(&preamble(7)).expect("preamble");

            let good = codec().encode(&ack(9));
            let mut bad_body = good.clone();
            bad_body[4] ^= 0xff; // the version byte
            let torn = &good[..good.len() - 1];
            let over_cap = (MAX_FRAME as u32 + 1).to_le_bytes();
            let cases: [(&str, Vec<u8>, bool); 4] = [
                ("wrong magic", b"HTTP/1.1".to_vec(), false),
                (
                    "over-cap prefix",
                    [&preamble(8)[..], &over_cap].concat(),
                    false,
                ),
                (
                    "undecodable body",
                    [&preamble(8)[..], &bad_body].concat(),
                    false,
                ),
                (
                    "EOF inside a frame",
                    [&preamble(8)[..], torn].concat(),
                    true,
                ),
            ];
            for (i, (what, bytes, then_close)) in cases.into_iter().enumerate() {
                let mut peer = rig.connect();
                peer.write_all(&bytes).expect(what);
                if then_close {
                    peer.shutdown(std::net::Shutdown::Write)
                        .expect("half-close");
                }
                rig.until(what, |f| f.decode_rejects() == i as u64 + 1);
                Rig::assert_closed(peer);
                // The healthy link to the same node is untouched.
                healthy
                    .write_all(&codec().encode(&ack(i as u64)))
                    .expect("healthy write");
                assert_eq!(rig.delivery(), (i as u64, 7), "after {what}");
            }
            assert_eq!(rig.fabric.decode_rejects(), 4);
        }
    }

    /// An accepted [`Conn`] — left blocking, so `pump` waits for the
    /// bytes — and the peer's end of it.
    fn conn_pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (peer, Conn::new(accepted, None))
    }

    #[test]
    fn an_over_cap_prefix_reserves_nothing() {
        let mut batch: Vec<(ProcessId, ProcessId, Wire)> = Vec::new();
        // A frame within the cap gets a buffer of exactly its size…
        let (mut peer, mut conn) = conn_pair();
        let fits = (10 * READ_BUF as u32).to_le_bytes();
        peer.write_all(&[&preamble(2)[..], &fits, &[0; 5]].concat())
            .expect("write");
        assert_eq!(conn.pump(&codec(), ProcessId(0), &mut batch), Ok(true));
        assert_eq!((conn.buf.len(), conn.have), (4 + 10 * READ_BUF, 4 + 5));

        // …one byte over the cap is refused with the buffer as it was.
        let (mut peer, mut conn) = conn_pair();
        let over = (MAX_FRAME as u32 + 1).to_le_bytes();
        peer.write_all(&[&preamble(2)[..], &over, &[0; 5]].concat())
            .expect("write");
        let len = MAX_FRAME as u64 + 1;
        assert_eq!(
            conn.pump(&codec(), ProcessId(0), &mut batch),
            Err(DecodeError::Oversized { len })
        );
        assert_eq!(conn.buf.capacity(), READ_BUF);
        assert!(batch.is_empty());
    }

    #[test]
    fn clean_closes_count_no_reject() {
        for rig in rigs(2) {
            // A connect-then-close, a close inside the preamble, and a close
            // at a frame boundary: nothing was torn.
            drop(rig.connect());
            rig.connect().write_all(&preamble(8)[..3]).expect("partial");
            let mut peer = rig.connect();
            peer.write_all(&[preamble(8), codec().encode(&ack(1))].concat())
                .expect("write");
            drop(peer);
            assert_eq!(rig.delivery(), (1, 8));
            // Every close has been read (as a zero-length read) and dropped.
            rig.until("three EOFs", |f| f.stats().reads >= 5);
            assert_eq!(rig.fabric.decode_rejects(), 0);
        }
    }

    #[test]
    fn invoke_reaches_a_node_blocked_in_ppoll_and_its_timers_stay_sharp() {
        for rig in rigs(2) {
            let mut peer = rig.connect();
            peer.write_all(&preamble(7)).expect("preamble");
            rig.until("idle in ppoll", |f| f.stats().reads >= 1);
            rig.rt.invoke::<Recorder>(ProcessId(0), |_, ctx| {
                ctx.output(StoreOut::PutDone { op: OpId(77) });
            });
            assert_eq!(
                rig.rt.recv_output(PATIENCE),
                Some((ProcessId(0), StoreOut::PutDone { op: OpId(77) }))
            );
            // A 2.5 ms timer through ppoll's nanosecond timeout: `poll`'s
            // milliseconds would fire it ≥ 0.5 ms late (or spin). Any one
            // wake-up can be held back by the scheduler; the best of a few
            // is the wait's own precision.
            let mut best_us = u64::MAX;
            for _ in 0..8 {
                peer.write_all(&codec().encode(&ack(ARM_TIMER)))
                    .expect("arm");
                match rig.rt.recv_output(PATIENCE) {
                    Some((_, StoreOut::PutDone { op })) => best_us = best_us.min(op.0),
                    other => panic!("expected the timer, got {other:?}"),
                }
            }
            assert!(best_us < 400, "timer fired {best_us} us late");
        }
    }

    /// A transport with one peer, and its drop counter.
    fn lone_transport(peer: SocketAddr) -> (TcpTransport<u64>, Arc<AtomicU64>) {
        let drops = Arc::new(AtomicU64::new(0));
        let transport = TcpTransport::new(ProcessId(0), vec![peer], codec(), Arc::clone(&drops));
        (transport, drops)
    }

    #[test]
    fn sends_to_a_dead_peer_are_counted_drops_not_sleeps() {
        let closed_port = {
            let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
            listener.local_addr().expect("addr")
        };
        let (mut transport, drops) = lone_transport(closed_port);
        let started = Instant::now();
        for tag in 0..100 {
            transport.send(ProcessId(0), ProcessId(0), ack(tag));
        }
        // Five sleeping attempts twice per send took 3 s here.
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "100 sends to a closed port took {:?}",
            started.elapsed()
        );
        assert_eq!(drops.load(Ordering::Relaxed), 100);
        // The link is retried, at a bounded rate: about one dial per
        // back-off step, not one per send.
        let backoff = lock(&transport.table).links[0].backoff;
        assert!((BACKOFF_BASE..=BACKOFF_CAP).contains(&backoff));
    }

    /// The frames queued on `transport`'s link to `peer`, and their
    /// unsent bytes.
    fn backlog(transport: &TcpTransport<u64>, peer: usize) -> (usize, usize) {
        let table = lock(&transport.table);
        let out = &table.links[peer].conn.as_ref().expect("link up").out;
        (out.frames.len(), out.unsent)
    }

    #[test]
    fn a_peer_that_never_reads_costs_a_timeout_not_the_thread() {
        // The kernel completes the handshake into the backlog; nobody
        // ever accepts, let alone reads.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let (mut transport, drops) = lone_transport(listener.local_addr().expect("addr"));
        let started = Instant::now();
        let mut sent = 0;
        while drops.load(Ordering::Relaxed) == 0 {
            // Socket buffers absorb the first few MiB, then the write
            // queue fills to its bound and the next frame is dropped.
            transport.send(ProcessId(0), ProcessId(0), blob(1 << 20));
            sent += 1;
            assert!(sent < 1_000, "the send buffer never filled");
        }
        assert!(
            started.elapsed() < WRITE_TIMEOUT / 4,
            "{sent} sends to a peer that does not read took {:?}",
            started.elapsed()
        );
        let (queued, unsent) = backlog(&transport, 0);
        assert!(
            queued > 0 && unsent <= WRITE_QUEUE_BOUND,
            "{queued} frames, {unsent} B"
        );
        let timeouts = |t: &TcpTransport<u64>| {
            lock(&t.table)
                .counters
                .write_timeouts
                .load(Ordering::Relaxed)
        };
        assert_eq!(timeouts(&transport), 0);
        // Once the oldest unsent byte is past the age limit, the next
        // send closes the link: its queued frames are lost, and the link
        // backs off, so that send is dropped too.
        std::thread::sleep(WRITE_TIMEOUT);
        let again = Instant::now();
        transport.send(ProcessId(0), ProcessId(0), ack(1));
        assert!(again.elapsed() < WRITE_TIMEOUT / 4);
        assert_eq!(timeouts(&transport), 1);
        assert_eq!(drops.load(Ordering::Relaxed), 1 + queued as u64 + 1);
        assert!(lock(&transport.table).links[0].conn.is_none());
    }

    #[test]
    fn a_reply_rides_the_connection_its_request_came_in_on() {
        for rig in rigs(2) {
            rig.send(0, 1, ack(1));
            assert_eq!(rig.delivered(), (1, 1, 0));
            rig.send(1, 0, ack(2));
            assert_eq!(rig.delivered(), (0, 2, 1));
            let stats = rig.fabric.stats();
            assert_eq!(stats.connects, 1, "node 1 must not dial back: {stats:?}");
            assert_eq!(rig.drops.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn both_ends_sending_first_at_once_keep_each_direction_in_order() {
        const FRAMES: u64 = 200;
        for round in 0..5 {
            for rig in rigs(2) {
                // Both bursts are queued before either node has read a
                // byte, so both usually dial.
                for (from, to) in [(0, 1), (1, 0)] {
                    rig.rt.invoke::<Recorder>(ProcessId(from), move |_, ctx| {
                        for tag in 0..FRAMES {
                            ctx.send(ProcessId(to), ack(tag));
                        }
                    });
                }
                let mut next = [0u64; 2];
                for _ in 0..2 * FRAMES {
                    let (at, tag, from) = rig.delivered();
                    assert_eq!(from, u64::from(1 - at), "round {round}");
                    assert_eq!(tag, next[at as usize], "round {round}: node {at} reordered");
                    next[at as usize] += 1;
                }
                let stats = rig.fabric.stats();
                assert!(stats.connects <= 2, "round {round}: {stats:?}");
                assert_eq!(rig.drops.load(Ordering::Relaxed), 0, "round {round}");
                assert_eq!(rig.fabric.decode_rejects(), 0, "round {round}");
            }
        }
    }

    /// A raw peer that claims to be node `claim` of the rig, adopted by
    /// node 0 as its link to that node: checked by having node 0 send it
    /// a frame, which arrives bare (an acceptor writes no preamble).
    fn adopted_impostor(rig: &Rig, claim: u32) -> TcpStream {
        let mut peer = rig.connect();
        peer.write_all(&preamble(claim)).expect("preamble");
        rig.until("the preamble read", |f| f.stats().reads >= 1);
        rig.send(0, claim, ack(5));
        let payload = read_frame(&mut peer).expect("read").expect("a frame");
        assert_eq!(payload, codec().encode(&ack(5))[4..]);
        peer
    }

    #[test]
    fn after_a_peer_closes_the_shared_connection_the_next_send_redials() {
        for rig in rigs(2) {
            drop(adopted_impostor(&rig, 1));
            rig.until("the EOF read", |f| f.stats().reads >= 2);
            rig.send(0, 1, ack(6));
            assert_eq!(rig.delivered(), (1, 6, 0));
            assert_eq!(rig.fabric.stats().connects, 1);
            assert_eq!(rig.drops.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn a_reject_on_the_shared_connection_drops_its_send_direction_too() {
        for rig in rigs(2) {
            let mut peer = adopted_impostor(&rig, 1);
            let mut garbage = codec().encode(&ack(9));
            garbage[4] ^= 0xff; // the version byte
            peer.write_all(&garbage).expect("garbage");
            rig.until("the reject", |f| f.decode_rejects() == 1);
            Rig::assert_closed(peer);
            // Node 0's next frame for node 1 goes to node 1, not down the
            // rejected connection.
            rig.send(0, 1, ack(7));
            assert_eq!(rig.delivered(), (1, 7, 0));
            assert_eq!(rig.fabric.stats().connects, 1);
            assert_eq!(rig.drops.load(Ordering::Relaxed), 0);
        }
    }

    /// Node 0's link to "node 2" is a raw peer that never reads. Node 0
    /// queues megabyte frames on it until the queue is full; meanwhile
    /// node 1 — on the same worker in the one-worker rig — keeps getting
    /// node 0's frames and firing its timers, and the stuck link times
    /// out on its own, with no further send, one age limit after its
    /// first unsent byte.
    #[test]
    fn a_peer_that_never_reads_times_out_its_link_while_co_hosted_nodes_flow() {
        for rig in rigs(3) {
            let _peer = adopted_impostor(&rig, 2);
            let started = Instant::now();
            let mut sent = 0;
            while rig.drops.load(Ordering::Relaxed) == 0 {
                let at = Instant::now();
                rig.rt.invoke::<Recorder>(ProcessId(0), move |_, ctx| {
                    ctx.send(ProcessId(2), blob(1 << 20));
                    ctx.output(StoreOut::PutDone { op: OpId(sent) });
                });
                match rig.rt.recv_output(PATIENCE) {
                    Some((_, StoreOut::PutDone { op })) if op.0 == sent => {}
                    other => panic!("expected send {sent} to end, got {other:?}"),
                }
                assert!(at.elapsed() < WRITE_TIMEOUT / 4, "send {sent} waited");
                sent += 1;
                assert!(sent < 1_000, "the send buffer never filled");
            }
            // Round trips through node 1 while the link ages: a frame
            // from node 0 arms a 2.5 ms timer at node 1, which reports
            // how late it fired.
            let mut rounds = 0;
            let mut worst = Duration::ZERO;
            while rig.fabric.stats().write_timeouts == 0 {
                let at = Instant::now();
                rig.send(0, 1, ack(ARM_TIMER));
                match rig.rt.recv_output(PATIENCE) {
                    Some((pid, StoreOut::PutDone { .. })) => assert_eq!(pid, ProcessId(1)),
                    other => panic!("expected node 1's timer, got {other:?}"),
                }
                worst = worst.max(at.elapsed());
                rounds += 1;
                assert!(
                    started.elapsed() < 3 * WRITE_TIMEOUT,
                    "the link never timed out"
                );
            }
            let timed_out = started.elapsed();
            assert!(
                (WRITE_TIMEOUT..2 * WRITE_TIMEOUT).contains(&timed_out),
                "the stuck link timed out after {timed_out:?}"
            );
            assert!(
                rounds > 20 && worst < WRITE_TIMEOUT / 4,
                "{rounds} rounds through node 1, the slowest {worst:?}"
            );
            assert_eq!(rig.fabric.stats().write_timeouts, 1);
            assert_eq!(rig.fabric.decode_rejects(), 0);
        }
    }
}

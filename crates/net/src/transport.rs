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
//! **Thread model: one OS thread per node, and no other.** A node's
//! thread runs its handlers, writes its links *and* reads every
//! connection it holds. [`NetFabric::start`] spawns nothing: it hands
//! each node's listener to that node's thread as an [`Inbound`] source
//! through the node's [`MsgInjector`], and the thread then blocks in one
//! `ppoll(2)` over {wake socket, listener, connections} with its next
//! timer deadline as the (nanosecond) timeout. The connection table is
//! shared by the node's [`TcpTransport`] (sends) and that source
//! (receives); both run on the node thread, so its lock is never
//! contended. Sockets are non-blocking; each connection carries an
//! incremental framer (preamble, then length-prefixed frames, partial
//! bytes kept for the next read), and every complete frame is decoded
//! with the [`WireCodec`] and delivered to `on_message` on the spot — a
//! frame costs one thread wake-up, not a reader's plus the node's.
//!
//! **No lost wake-ups.** The harness reaches a node through its channel
//! (`invoke`, `inject`, stop). Each enqueue is followed by one byte
//! written to the node's wake socket; the node drains the wake socket
//! (inside `wait`), then drains its channel, then waits again — in that
//! order — so a byte it consumed always precedes a drain that sees the
//! entry, and a byte written after the drain is still readable when
//! `ppoll` is entered.
//!
//! **The node thread blocks only in `ppoll`.** Sends happen on the same
//! thread, so they never sleep and never wait on a peer without a bound:
//! a link that is down remembers when it may next be dialled (back-off
//! *state*, doubling to a cap) and until then a send to it is a counted
//! drop with no syscall; a dial is one connect attempt under
//! [`CONNECT_TIMEOUT`]; a write that finds the send buffer full waits in
//! `ppoll` for `POLLOUT`, and a frame still unwritten after
//! [`WRITE_TIMEOUT`] closes the link and counts a drop, so two nodes
//! pushing multi-MiB frames at each other cannot park each other. A
//! dropped message is message loss, which the protocols already
//! tolerate. A peer that floods cannot starve the other links either:
//! each readable connection gets one bounded `read` per wake-up
//! (level-triggered `ppoll` reports the rest again), and an unread flood
//! backs up into the flooder's own TCP window instead of an unbounded
//! queue here.
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
/// silent remote host must not hold the node thread).
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// A frame whose write has not finished after this long is abandoned,
/// closing the link.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Steady-state size of a connection's read buffer. A frame that does
/// not fit gets a buffer of exactly its own size for as long as it is in
/// flight, so large values are read straight into place while idle
/// connections stay small.
const READ_BUF: usize = 16 * 1024;

/// Transport gauges of one deployment, summed over its nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Returns of the node threads' `ppoll` (timer expiries included).
    pub wakeups: u64,
    /// `read` calls on connections — every connection a node holds,
    /// dialled or accepted.
    pub reads: u64,
    /// Frames decoded and delivered.
    pub frames_in: u64,
    /// Connections dialled. A connection the acceptor adopts is counted
    /// once, by its dialler, so a pair that talks both ways costs one.
    pub connects: u64,
    /// Writes abandoned after [`WRITE_TIMEOUT`] (each closed its link).
    pub write_timeouts: u64,
}

impl TransportStats {
    /// Frames delivered per wake-up: ≈ 1 means the next saving is fewer
    /// wake-ups, well above it means fewer messages.
    pub fn frames_per_wakeup(&self) -> f64 {
        self.frames_in as f64 / self.wakeups.max(1) as f64
    }
}

/// One node's relaxed counters (statistics only: they publish nothing).
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

/// Every connection one node holds, read and written only by its node
/// thread.
struct Table {
    /// Indexed by [`ProcessId::index`] of the peer.
    links: Vec<Link>,
    /// Accepted connections that are no pair's link: their preamble has
    /// not arrived yet, or it claimed no peer, or a peer whose link was
    /// already up (both ends dialled at once, or a node dialling itself).
    /// Read, never written.
    receive_only: Vec<Conn>,
}

impl Table {
    fn new(peers: usize) -> Self {
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
}

type SharedTable = Arc<Mutex<Table>>;

/// Locks a node's table. Only its node thread ever does, so this never
/// waits — and a panic while holding it ended the only thread that locks
/// it.
fn lock(table: &SharedTable) -> MutexGuard<'_, Table> {
    table
        .lock()
        .expect("connection table poisoned: its node thread panicked")
}

/// The send half of one node's links: a lazily dialled connection per
/// peer, redialled under per-link back-off. One instance lives on each
/// node thread (handed to
/// [`ThreadRuntime::spawn_with_transport`](sbs_sim::ThreadRuntime::spawn_with_transport)).
///
/// From [`NetFabric::transport`] it shares the node's connection table
/// with the node's receive half, so it sends on connections the peers
/// dialled and the node reads replies on the ones it dialled.
pub struct TcpTransport<V> {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    table: SharedTable,
    codec: WireCodec,
    /// Messages given up as link loss, shared across the fleet's
    /// transports for the harness to report.
    drops: Arc<AtomicU64>,
    counters: Arc<Counters>,
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
        let table = Arc::new(Mutex::new(Table::new(peers.len())));
        TcpTransport {
            me,
            peers,
            table,
            codec,
            drops,
            counters: Arc::default(),
            _values: PhantomData,
        }
    }

    /// One bounded connect attempt, preamble included.
    fn dial(&self, to: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&self.peers[to], CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let conn = Conn::new(stream, Some(ProcessId(to as u32)));
        conn.write_all_by(&preamble(self.me), Instant::now() + WRITE_TIMEOUT)?;
        Ok(conn)
    }

    /// Writes `frame` to link `to`, dialling it first if it is down and
    /// due. Never sleeps; every syscall in here is bounded.
    fn try_write(&self, table: &mut Table, to: usize, frame: &[u8]) -> bool {
        let now = Instant::now();
        let link = &mut table.links[to];
        if link.conn.is_none() {
            if now < link.retry_at {
                return false;
            }
            match self.dial(to) {
                Ok(conn) => {
                    bump(&self.counters.connects, 1);
                    link.conn = Some(conn);
                }
                Err(_) => {
                    link.back_off();
                    return false;
                }
            }
        }
        let conn = link.conn.as_ref().expect("dialled above");
        match conn.write_all_by(frame, now + WRITE_TIMEOUT) {
            Ok(()) => {
                link.backoff = Duration::ZERO;
                true
            }
            Err(e) => {
                // The peer may be left holding a torn frame: the
                // connection is unusable in both directions.
                link.conn = None;
                if e.kind() == io::ErrorKind::TimedOut {
                    // Not reading. Stay away for a while rather than
                    // filling a fresh socket buffer per send.
                    bump(&self.counters.write_timeouts, 1);
                    link.back_off();
                }
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
        if to < self.peers.len() {
            let frame = self.codec.encode(&msg);
            let mut table = lock(&self.table);
            // A connection that died since the last send (peer restarted)
            // is left due, so the second try redials it at once; a link in
            // back-off fails both tries without a syscall.
            if self.try_write(&mut table, to, &frame) || self.try_write(&mut table, to, &frame) {
                return;
            }
        }
        self.drops.fetch_add(1, Ordering::Relaxed);
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

/// One TCP connection — dialled or accepted, non-blocking — and its
/// incremental framer.
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
}

impl Conn {
    fn new(stream: TcpStream, from: Option<ProcessId>) -> Self {
        Conn {
            stream,
            from,
            buf: vec![0; READ_BUF],
            have: 0,
        }
    }

    /// Writes all of `buf` by `deadline`. A full send buffer parks the
    /// thread in `ppoll` for `POLLOUT`, for no longer than what is left
    /// of the deadline, so a peer that lets a trickle through cannot
    /// stretch one frame past it.
    fn write_all_by(&self, mut buf: &[u8], deadline: Instant) -> io::Result<()> {
        while !buf.is_empty() {
            match (&self.stream).write(buf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    wait_ready(&mut [poll_fd(self.stream.as_raw_fd(), POLLOUT)], Some(left));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One `read`, then every frame it completed into `batch`.
    /// `Ok(false)`: the peer closed at a frame boundary. `Err`: the
    /// stream is malformed or torn — the caller counts the reject.
    fn pump<V: Payload + BulkCodec>(
        &mut self,
        codec: &WireCodec,
        batch: &mut Vec<(ProcessId, StoreWire<V>)>,
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
        self.drain_frames(codec, batch)?;
        Ok(true)
    }

    /// Decodes every complete frame in the buffer, moves the partial
    /// tail to the front and sizes the buffer for what comes next.
    fn drain_frames<V: Payload + BulkCodec>(
        &mut self,
        codec: &WireCodec,
        batch: &mut Vec<(ProcessId, StoreWire<V>)>,
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
            batch.push((from, codec.decode_payload(payload)?));
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

/// One node's receive half, polled by the node's own thread.
struct SocketInbound<V> {
    wake: UnixStream,
    listener: TcpListener,
    table: SharedTable,
    /// Scratch for `ppoll`: wake socket, listener, the links' connections
    /// in peer order, then the receive-only ones in order.
    fds: Vec<PollFd>,
    codec: WireCodec,
    counters: Arc<Counters>,
    _values: PhantomData<fn() -> V>,
}

impl<V> Inbound<StoreWire<V>> for SocketInbound<V>
where
    V: Payload + BulkCodec + Send + Sync,
{
    fn wait(&mut self, timeout: Option<Duration>, batch: &mut Vec<(ProcessId, StoreWire<V>)>) {
        let mut table = lock(&self.table);
        let table = &mut *table;
        let sources = [self.wake.as_raw_fd(), self.listener.as_raw_fd()];
        let links = table.links.iter().filter_map(|l| l.conn.as_ref());
        let conns = links
            .chain(&table.receive_only)
            .map(|c| c.stream.as_raw_fd());
        self.fds.clear();
        self.fds.extend(
            sources
                .into_iter()
                .chain(conns)
                .map(|fd| poll_fd(fd, POLLIN)),
        );
        wait_ready(&mut self.fds, timeout);
        bump(&self.counters.wakeups, 1);

        if self.fds[0].revents != 0 {
            // Consume the wake signal — all of it, so one byte per
            // enqueue cannot pile up — before the caller drains the
            // channel.
            let mut sink = [0u8; 64];
            while matches!((&self.wake).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        let (frames_before, mut reads) = (batch.len(), 0);
        let mut read = |conn: &mut Conn, batch: &mut Vec<(ProcessId, StoreWire<V>)>| {
            reads += 1;
            conn.pump(&self.codec, batch).unwrap_or_else(|_| {
                // A peer speaking garbage loses its connection; if it
                // was an honest peer's torn write, it redials.
                bump(&self.counters.rejects, 1);
                false
            })
        };
        let mut ready = self.fds[2..].iter().map(|fd| fd.revents != 0);
        for link in &mut table.links {
            let Some(conn) = &mut link.conn else { continue };
            if ready.next() == Some(true) && !read(conn, batch) {
                // Closed or garbage: the pair's link, both directions.
                link.conn = None;
            }
        }
        let ready: &[PollFd] = &self.fds[self.fds.len() - table.receive_only.len()..];
        // Back to front, so `swap_remove` only moves a connection that
        // already had its turn; new connections join after the pass.
        for i in (0..table.receive_only.len()).rev() {
            if ready[i].revents == 0 {
                continue;
            }
            let conn = &mut table.receive_only[i];
            let claimed = conn.from.is_some();
            if !read(conn, batch) {
                table.receive_only.swap_remove(i);
            } else if !claimed && conn.from.is_some() {
                table.adopt(i);
            }
        }
        bump(&self.counters.reads, reads);
        bump(&self.counters.frames_in, batch.len() - frames_before);
        if self.fds[1].revents != 0 {
            // Everything in the backlog; `WouldBlock` ends the loop, and
            // any other failure waits for the next wake-up.
            while let Ok((stream, _)) = self.listener.accept() {
                if stream.set_nonblocking(true).is_ok() && stream.set_nodelay(true).is_ok() {
                    table.receive_only.push(Conn::new(stream, None));
                }
            }
        }
    }
}

/// One node's sockets until [`NetFabric::start`] hands them to its
/// thread.
struct Unstarted {
    listener: TcpListener,
    /// The wake socket's read end (the node's) and write end (the
    /// waker's).
    wake: UnixStream,
    waker: UnixStream,
    table: SharedTable,
}

/// Binds the fleet's listeners and hands each to its node.
///
/// Build with [`NetFabric::bind`] (which fixes the fleet's addresses),
/// spawn the runtime with the [`TcpTransport`]s from
/// [`NetFabric::transport`], then call [`NetFabric::start`] with the
/// runtime's injectors. The fabric runs no thread of its own: after
/// `start` every socket belongs to a node thread and closes when the
/// hosting [`ThreadRuntime`](sbs_sim::ThreadRuntime) stops; what stays
/// here is the address book and the counters.
pub struct NetFabric {
    /// Per node, until `start` hands them off.
    unstarted: Vec<Unstarted>,
    addrs: Vec<SocketAddr>,
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
        for _ in 0..nodes {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            let (wake, waker) = UnixStream::pair()?;
            wake.set_nonblocking(true)?;
            // A full wake socket already guarantees a wake-up; the
            // waker must never block on it.
            waker.set_nonblocking(true)?;
            let table = Arc::new(Mutex::new(Table::new(nodes)));
            unstarted.push(Unstarted {
                listener,
                wake,
                waker,
                table,
            });
        }
        Ok(NetFabric {
            unstarted,
            addrs,
            counters: (0..nodes).map(|_| Arc::default()).collect(),
        })
    }

    /// The fleet's socket addresses, indexed by [`ProcessId::index`].
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Node `me`'s transport to this fleet: it shares the node's
    /// connection table with the receive half [`NetFabric::start`] hands
    /// the node, and its gauges are counted into [`NetFabric::stats`].
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
        TcpTransport {
            table: Arc::clone(&node.table),
            counters: Arc::clone(&self.counters[me.index()]),
            ..TcpTransport::new(me, self.addrs.clone(), codec, drops)
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

    /// Hands every node its listener and connection table: from its next
    /// turn on, the thread behind each injector (one per node, in
    /// [`ProcessId`] order) accepts, reads and decodes its own
    /// connections and delivers the messages to its node.
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
        let handoff = self.unstarted.drain(..).zip(injectors).zip(&self.counters);
        for ((node, injector), counters) in handoff {
            let inbound = SocketInbound::<V> {
                wake: node.wake,
                listener: node.listener,
                table: node.table,
                fds: Vec::new(),
                codec,
                counters: Arc::clone(counters),
                _values: PhantomData,
            };
            let waker = node.waker;
            injector.attach(Box::new(inbound), move || {
                // `WouldBlock` means bytes are already pending, and a
                // closed read end that the node is gone: both fine.
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

    impl Rig {
        /// One node: the raw peers of the tests below claim ids that
        /// are no peer of it, so nothing is adopted.
        fn new() -> Self {
            Rig::with_nodes(1)
        }

        fn with_nodes(n: usize) -> Self {
            let mut fabric = NetFabric::bind(n).expect("bind");
            let drops = Arc::new(AtomicU64::new(0));
            let nodes = (0..n)
                .map(|_| {
                    Box::new(Recorder { deadline: None }) as Box<dyn Node<Msg = _, Out = _> + Send>
                })
                .collect();
            let rt = ThreadRuntime::spawn_with_transport(nodes, 1, |me, _| {
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

        /// The next delivery as `(n, claimed sender)`.
        fn delivery(&self) -> (u64, u64) {
            let (_, n, from) = self.delivered();
            (n, from)
        }

        /// Spins until the node thread's counters satisfy `reached`, so a
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
        let rig = Rig::new();
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

    #[test]
    fn many_frames_in_one_write_deliver_in_order() {
        // ≈ 4 read buffers' worth, so frames straddle buffer boundaries.
        let rig = Rig::new();
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

    #[test]
    fn a_stream_split_at_every_byte_offset_delivers_both_frames() {
        let rig = Rig::new();
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

    #[test]
    fn a_frame_larger_than_the_read_buffer_is_read_into_place() {
        let rig = Rig::new();
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

    #[test]
    fn a_malformed_stream_costs_one_reject_and_only_its_own_connection() {
        let rig = Rig::new();
        let mut healthy = rig.connect();
        healthy.write_all(&preamble(1)).expect("preamble");

        let good = codec().encode(&ack(9));
        let mut bad_body = good.clone();
        bad_body[4] ^= 0xff; // the version byte
        let torn = &good[..good.len() - 1];
        let over_cap = (MAX_FRAME as u32 + 1).to_le_bytes();
        let cases: [(&str, Vec<u8>, bool); 4] = [
            ("wrong magic", b"HTTP/1.1".to_vec(), false),
            (
                "over-cap prefix",
                [&preamble(2)[..], &over_cap].concat(),
                false,
            ),
            (
                "undecodable body",
                [&preamble(2)[..], &bad_body].concat(),
                false,
            ),
            (
                "EOF inside a frame",
                [&preamble(2)[..], torn].concat(),
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
            assert_eq!(rig.delivery(), (i as u64, 1), "after {what}");
        }
        assert_eq!(rig.fabric.decode_rejects(), 4);
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
        let mut batch: Vec<(ProcessId, Wire)> = Vec::new();
        // A frame within the cap gets a buffer of exactly its size…
        let (mut peer, mut conn) = conn_pair();
        let fits = (10 * READ_BUF as u32).to_le_bytes();
        peer.write_all(&[&preamble(2)[..], &fits, &[0; 5]].concat())
            .expect("write");
        assert_eq!(conn.pump(&codec(), &mut batch), Ok(true));
        assert_eq!((conn.buf.len(), conn.have), (4 + 10 * READ_BUF, 4 + 5));

        // …one byte over the cap is refused with the buffer as it was.
        let (mut peer, mut conn) = conn_pair();
        let over = (MAX_FRAME as u32 + 1).to_le_bytes();
        peer.write_all(&[&preamble(2)[..], &over, &[0; 5]].concat())
            .expect("write");
        let len = MAX_FRAME as u64 + 1;
        assert_eq!(
            conn.pump(&codec(), &mut batch),
            Err(DecodeError::Oversized { len })
        );
        assert_eq!(conn.buf.capacity(), READ_BUF);
        assert!(batch.is_empty());
    }

    #[test]
    fn clean_closes_count_no_reject() {
        let rig = Rig::new();
        // A connect-then-close, a close inside the preamble, and a close
        // at a frame boundary: nothing was torn.
        drop(rig.connect());
        rig.connect().write_all(&preamble(2)[..3]).expect("partial");
        let mut peer = rig.connect();
        peer.write_all(&[preamble(2), codec().encode(&ack(1))].concat())
            .expect("write");
        drop(peer);
        assert_eq!(rig.delivery(), (1, 2));
        // Every close has been read (as a zero-length read) and dropped.
        rig.until("three EOFs", |f| f.stats().reads >= 5);
        assert_eq!(rig.fabric.decode_rejects(), 0);
    }

    #[test]
    fn invoke_reaches_a_node_blocked_in_ppoll_and_its_timers_stay_sharp() {
        let rig = Rig::new();
        let mut peer = rig.connect();
        peer.write_all(&preamble(1)).expect("preamble");
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

    #[test]
    fn a_peer_that_never_reads_costs_a_timeout_not_the_thread() {
        // The kernel completes the handshake into the backlog; nobody
        // ever accepts, let alone reads.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let (mut transport, drops) = lone_transport(listener.local_addr().expect("addr"));
        let started = Instant::now();
        let mut sent = 0;
        while drops.load(Ordering::Relaxed) == 0 {
            // Socket buffers absorb the first few MiB, then `write` stalls.
            transport.send(ProcessId(0), ProcessId(0), blob(1 << 20));
            sent += 1;
            assert!(sent < 1_000, "the send buffer never filled");
        }
        assert!(
            started.elapsed() < 3 * WRITE_TIMEOUT,
            "send waited {:?} on a peer that does not read",
            started.elapsed()
        );
        assert!(started.elapsed() >= WRITE_TIMEOUT);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(transport.counters.write_timeouts.load(Ordering::Relaxed), 1);
        // The stalled stream is gone: the next send is dropped (link
        // still backing off) or lands in a fresh connection's buffer —
        // it does not stall again.
        let again = Instant::now();
        transport.send(ProcessId(0), ProcessId(0), blob(1 << 20));
        assert!(again.elapsed() < WRITE_TIMEOUT / 4);
    }

    #[test]
    fn a_reply_rides_the_connection_its_request_came_in_on() {
        let rig = Rig::with_nodes(2);
        rig.send(0, 1, ack(1));
        assert_eq!(rig.delivered(), (1, 1, 0));
        rig.send(1, 0, ack(2));
        assert_eq!(rig.delivered(), (0, 2, 1));
        let stats = rig.fabric.stats();
        assert_eq!(stats.connects, 1, "node 1 must not dial back: {stats:?}");
        assert_eq!(rig.drops.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn both_ends_sending_first_at_once_keep_each_direction_in_order() {
        const FRAMES: u64 = 200;
        for round in 0..5 {
            let rig = Rig::with_nodes(2);
            // Both bursts are queued before either node has read a byte,
            // so both usually dial.
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

    /// A raw peer that claims to be node 1 of a two-node rig, adopted by
    /// node 0 as its link to node 1: checked by having node 0 send it a
    /// frame, which arrives bare (an acceptor writes no preamble).
    fn adopted_impostor(rig: &Rig) -> TcpStream {
        let mut peer = rig.connect();
        peer.write_all(&preamble(1)).expect("preamble");
        rig.until("the preamble read", |f| f.stats().reads >= 1);
        rig.send(0, 1, ack(5));
        let payload = read_frame(&mut peer).expect("read").expect("a frame");
        assert_eq!(payload, codec().encode(&ack(5))[4..]);
        peer
    }

    #[test]
    fn after_a_peer_closes_the_shared_connection_the_next_send_redials() {
        let rig = Rig::with_nodes(2);
        drop(adopted_impostor(&rig));
        rig.until("the EOF read", |f| f.stats().reads >= 2);
        rig.send(0, 1, ack(6));
        assert_eq!(rig.delivered(), (1, 6, 0));
        assert_eq!(rig.fabric.stats().connects, 1);
        assert_eq!(rig.drops.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_reject_on_the_shared_connection_drops_its_send_direction_too() {
        let rig = Rig::with_nodes(2);
        let mut peer = adopted_impostor(&rig);
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

    #[test]
    fn a_peer_that_never_reads_an_adopted_link_costs_a_timeout_not_the_thread() {
        let rig = Rig::with_nodes(2);
        let _peer = adopted_impostor(&rig);
        // Node 0 sends to "node 1" down the non-blocking adopted socket,
        // one frame per handler, until the send buffers fill and a write
        // stalls.
        let mut sent = 0;
        let stalled = loop {
            let started = Instant::now();
            rig.rt.invoke::<Recorder>(ProcessId(0), move |_, ctx| {
                ctx.send(ProcessId(1), blob(1 << 20));
                ctx.output(StoreOut::PutDone { op: OpId(sent) });
            });
            match rig.rt.recv_output(PATIENCE) {
                Some((_, StoreOut::PutDone { op })) if op.0 == sent => {}
                other => panic!("expected send {sent} to end, got {other:?}"),
            }
            let took = started.elapsed();
            if rig.fabric.stats().write_timeouts > 0 {
                break took;
            }
            sent += 1;
            assert!(sent < 1_000, "the send buffer never filled");
        };
        assert!(
            (WRITE_TIMEOUT..2 * WRITE_TIMEOUT).contains(&stalled),
            "a send to a peer that does not read took {stalled:?}"
        );
        assert_eq!(rig.fabric.stats().write_timeouts, 1);
        assert_eq!(rig.drops.load(Ordering::Relaxed), 1);
    }
}

//! Transports: how protocol frames travel between the coordinator and a
//! partition server.
//!
//! A [`Transport`] is one coordinator-side endpoint — spawn happens through
//! a [`TransportSpawner`], which the coordinator also re-invokes to
//! *respawn* a dead server on its retry path. Two backends ship:
//!
//! * [`ChannelTransport`] — the in-process actor of the original engine:
//!   one server thread plus an `mpsc` channel pair, every frame still a
//!   serialized byte message. The fastest carrier, and the default.
//! * [`TcpTransport`] — a real out-of-process server: the spawner binds a
//!   loopback rendezvous listener, launches `tdx serve-partition --connect
//!   <addr>` as a child process, and speaks length-prefixed
//!   [`tdx_storage::codec`] frames over the accepted stream. When no `tdx`
//!   binary can be located (unit tests of a library crate, bench binaries),
//!   it degrades to an in-process thread serving the same TCP connection —
//!   same sockets, same frames, no child process — and says so via
//!   [`TcpPeer`].
//!
//! Durable sessions use a third spawner, [`DurableTcpSpawner`]: servers
//! run in *listen* mode, publish their addresses into the session's state
//! directory, and survive a coordinator crash — a restarted coordinator
//! reconnects instead of respawning and re-shipping.
//!
//! The backend is picked per chase through
//! [`ChaseOptions::transport`](crate::chase::concrete::ChaseOptions), the
//! `--transport` CLI flag, or the `TDX_CHASE_TRANSPORT` environment
//! variable (resolved by [`resolve_transport`]). Protocol bytes are
//! identical on every backend, which is why results are too — transports
//! carry frames, they never interpret them.

use super::protocol::{Message, Response};
use super::server::{publish_addr, serve_channel, serve_listener, serve_stream};
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tdx_storage::codec::{read_frame, write_frame};

/// Which transport backend a distributed chase runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TransportKind {
    /// In-process server threads over `mpsc` channel pairs.
    #[default]
    Channel,
    /// Out-of-process servers (or loopback server threads when no `tdx`
    /// binary is available) over TCP.
    Tcp,
}

impl TransportKind {
    /// Parses the `TDX_CHASE_TRANSPORT` / `--transport` spelling.
    pub fn parse(s: &str) -> Option<TransportKind> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("channel") {
            Some(TransportKind::Channel)
        } else if s.eq_ignore_ascii_case("tcp") {
            Some(TransportKind::Tcp)
        } else {
            None
        }
    }
}

/// Resolves a transport request: an explicit choice wins; `None` falls back
/// to the `TDX_CHASE_TRANSPORT` environment variable (an unknown value is
/// reported once to stderr and ignored, like the numeric chase knobs), then
/// to [`TransportKind::Channel`].
pub fn resolve_transport(requested: Option<TransportKind>) -> TransportKind {
    if let Some(k) = requested {
        return k;
    }
    static WARNED: std::sync::Once = std::sync::Once::new();
    match std::env::var("TDX_CHASE_TRANSPORT") {
        Ok(v) => TransportKind::parse(&v).unwrap_or_else(|| {
            WARNED.call_once(|| {
                eprintln!(
                    "tdx: warning: ignoring unknown TDX_CHASE_TRANSPORT={v:?} \
                     (expected \"channel\" or \"tcp\"); using the channel transport"
                );
            });
            TransportKind::Channel
        }),
        Err(_) => TransportKind::Channel,
    }
}

/// One coordinator-side endpoint to one partition server: a reliable,
/// ordered byte-frame pipe. `send`/`recv` errors mean the server is gone
/// (the coordinator's retry path respawns through the
/// [`TransportSpawner`]); `shutdown` is the carrier-level teardown — join
/// the thread, reap the child — run *after* the protocol-level `Shutdown`
/// message.
pub trait Transport: Send {
    /// Ships one frame to the server.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Receives the server's next frame.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
    /// Bounds how long a single `send`/`recv` may block: past the
    /// deadline the call returns a `TimedOut`-kind error, which the
    /// coordinator classifies as a transport fault exactly like a dead
    /// carrier — this is how a *hung* (fail-slow) server enters the same
    /// respawn/quarantine path as a crashed one (see
    /// `docs/robustness.md`). `None` removes the bound. The default
    /// implementation ignores the request (infallible in-process test
    /// doubles have nothing to bound); real backends override it.
    fn set_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        let _ = deadline;
        Ok(())
    }
    /// Tears the carrier down (best effort, idempotent).
    fn shutdown(&mut self);
    /// Abandons the carrier the way a crash would: closes it *without* a
    /// protocol `Shutdown`, without reaping child processes, without
    /// joining threads. The peer observes a bare EOF — exactly what it
    /// would see if the coordinator process were killed. Crash-simulation
    /// support for durable sessions; backends without a survivable peer
    /// just tear down.
    fn sever(&mut self) {
        self.shutdown();
    }
}

/// Spawns transports — and respawns them when the coordinator's retry path
/// replaces a dead server. `server` is the cluster-wide server index (for
/// thread/process naming and fault targeting); a spawned peer is always
/// blank and expects the protocol `Hello` next.
pub trait TransportSpawner: Send + Sync {
    /// Starts server `server`'s peer and returns the endpoint to it.
    fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>>;
    /// The backend this spawner provides (for traces and stats).
    fn kind(&self) -> TransportKind;
}

/// The spawner for `kind`'s default backend.
pub fn spawner_for(kind: TransportKind) -> Arc<dyn TransportSpawner> {
    match kind {
        TransportKind::Channel => Arc::new(ChannelSpawner),
        TransportKind::Tcp => Arc::new(TcpSpawner),
    }
}

fn gone(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        format!("partition server {what}"),
    )
}

// ---------------------------------------------------------------------------
// Channel backend

/// In-process backend: one server thread per spawn, frames over an `mpsc`
/// channel pair.
pub struct ChannelTransport {
    tx: Option<Sender<Vec<u8>>>,
    rx: Receiver<Vec<u8>>,
    join: Option<JoinHandle<()>>,
    /// Per-frame deadline on `recv` (sends on an unbounded `mpsc` never
    /// block, so only the receive side needs bounding).
    deadline: Option<Duration>,
}

/// Spawner of [`ChannelTransport`] endpoints.
pub struct ChannelSpawner;

impl TransportSpawner for ChannelSpawner {
    fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
        let (req_tx, req_rx) = channel::<Vec<u8>>();
        let (resp_tx, resp_rx) = channel::<Vec<u8>>();
        let join = std::thread::Builder::new()
            .name(format!("tdx-part-server-{server}"))
            .spawn(move || serve_channel(req_rx, resp_tx))?;
        Ok(Box::new(ChannelTransport {
            tx: Some(req_tx),
            rx: resp_rx,
            join: Some(join),
            deadline: None,
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Channel
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx
            .as_ref()
            .ok_or_else(|| gone("already shut down"))?
            .send(frame.to_vec())
            .map_err(|_| gone("closed its channel"))
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        match self.deadline {
            None => self.rx.recv().map_err(|_| gone("closed its channel")),
            Some(d) => match self.rx.recv_timeout(d) {
                Ok(frame) => Ok(frame),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "partition server exceeded the frame deadline",
                )),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    Err(gone("closed its channel"))
                }
            },
        }
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        self.deadline = deadline;
        Ok(())
    }

    fn shutdown(&mut self) {
        // Dropping the sender unblocks a server waiting in `recv`; then the
        // thread exits and joins. A panicked server thread just yields a
        // poisoned join result, which teardown ignores.
        self.tx = None;
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    fn sever(&mut self) {
        // An in-process server cannot outlive its coordinator, so a
        // "crash" just drops the sender (the thread sees the closed
        // channel and exits) and detaches the join handle.
        self.tx = None;
        self.join = None;
    }
}

impl Drop for ChannelTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// TCP backend

/// What serves the far side of a [`TcpTransport`] connection.
enum TcpPeer {
    /// A real `tdx serve-partition` child process.
    Child(Child),
    /// The in-process fallback thread (no `tdx` binary found).
    Thread(Option<JoinHandle<()>>),
    /// A peer this transport does not own: a listen-mode server another
    /// (possibly dead) coordinator spawned and we reconnected to, or a
    /// peer deliberately abandoned by [`Transport::sever`]. It manages
    /// its own lifetime — protocol `Shutdown` or `--idle-exit`.
    Detached,
}

/// Out-of-process backend: length-prefixed codec frames over a loopback
/// TCP stream to a `tdx serve-partition` child process (or the thread
/// fallback — see the module docs).
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: TcpPeer,
}

/// Spawner of [`TcpTransport`] endpoints.
pub struct TcpSpawner;

/// Locates the `tdx` binary whose `serve-partition` subcommand hosts an
/// out-of-process server: `TDX_SERVE_BIN` wins, then the current executable
/// if it *is* `tdx`, then a `tdx` sibling of the current executable's
/// target directory (how integration tests and in-repo tools find the
/// freshly built CLI). `None` means no binary — callers fall back to the
/// in-process serving thread.
fn resolve_serve_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("TDX_SERVE_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let stem = exe.file_stem()?.to_str()?;
    if stem == "tdx" {
        return Some(exe);
    }
    let mut dir = exe.parent()?;
    if dir.file_name().and_then(|n| n.to_str()) == Some("deps") {
        dir = dir.parent()?;
    }
    let cand = dir.join(format!("tdx{}", std::env::consts::EXE_SUFFIX));
    cand.is_file().then_some(cand)
}

/// How long spawn-time waits (the rendezvous accept, addr-file polls) may
/// block: the same `TDX_CHASE_DEADLINE_MS` knob that bounds per-frame
/// traffic, except that *disabling* deadlines falls back to the fixed
/// default rather than waiting forever — a spawn wait must always be
/// finite, or a server that never comes up wedges the coordinator before
/// the first frame is even sent.
fn spawn_wait_deadline() -> Duration {
    crate::chase::frame_deadline(None)
        .unwrap_or(Duration::from_millis(crate::chase::DEFAULT_DEADLINE_MS))
}

/// Accepts the server's rendezvous connection, polling so a hung peer
/// cannot wedge the coordinator. `child`: a child process to watch — if it
/// exits before connecting (wrong binary, crashed at startup), give up
/// immediately instead of waiting out the deadline.
fn accept_with_deadline(
    listener: &TcpListener,
    deadline: Duration,
    mut child: Option<&mut Child>,
) -> io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    // tdx-lint: allow(wall-clock): accept-timeout clock for spawning child servers; a timeout is an error path, not a result
    let t0 = Instant::now();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(child) = child.as_deref_mut() {
                    if matches!(child.try_wait(), Ok(Some(_)) | Err(_)) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "partition server process exited before connecting",
                        ));
                    }
                }
                if t0.elapsed() > deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "partition server never connected back",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

impl TransportSpawner for TcpSpawner {
    fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
        // Preferred shape: a real child process. A binary that fails to
        // come up (stale build without `serve-partition`, exec failure)
        // degrades to the in-process serving thread below rather than
        // failing the chase — the protocol and framing are identical.
        if let Some(bin) = resolve_serve_bin() {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let addr = listener.local_addr()?;
            let child = Command::new(bin)
                .arg("serve-partition")
                .arg("--connect")
                .arg(addr.to_string())
                .stdin(Stdio::null())
                .spawn();
            if let Ok(mut child) = child {
                match accept_with_deadline(&listener, spawn_wait_deadline(), Some(&mut child)) {
                    Ok(stream) => {
                        let mut transport = TcpTransport {
                            reader: BufReader::new(stream.try_clone()?),
                            writer: stream,
                            peer: TcpPeer::Child(child),
                        };
                        // Protocol probe: one Ping round-trip proves the
                        // child speaks this build's protocol. A stale or
                        // foreign binary fails here and we degrade to the
                        // serving thread instead of poisoning the cluster.
                        let pong = transport
                            .send(&tdx_storage::codec::encode(&Message::Ping))
                            .and_then(|()| transport.recv())
                            .ok()
                            .and_then(|b| tdx_storage::codec::decode::<Response>(&b).ok());
                        if pong == Some(Response::Pong) {
                            return Ok(Box::new(transport));
                        }
                        transport.shutdown();
                    }
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
            }
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let join = std::thread::Builder::new()
            .name(format!("tdx-part-server-{server}-tcp"))
            .spawn(move || {
                if let Ok(stream) = TcpStream::connect(addr) {
                    let _ = serve_stream(stream);
                }
            })?;
        let stream = accept_with_deadline(&listener, spawn_wait_deadline(), None)?;
        Ok(Box::new(TcpTransport {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            peer: TcpPeer::Thread(Some(join)),
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.reader)
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        // SO_RCVTIMEO/SO_SNDTIMEO are socket-level, so setting them
        // through the writer clone covers the buffered reader too. A
        // timed-out read can leave a partial frame in the buffer — the
        // stream is unusable afterwards, which is fine: the retry path
        // replaces the whole carrier.
        self.writer.set_read_timeout(deadline)?;
        self.writer.set_write_timeout(deadline)
    }

    fn shutdown(&mut self) {
        // Closing the socket unblocks the peer's read; the child then exits
        // on its own (waited with a bounded grace period before a kill),
        // the fallback thread just returns and joins.
        let _ = self.writer.shutdown(Shutdown::Both);
        match &mut self.peer {
            TcpPeer::Child(child) => {
                // tdx-lint: allow(wall-clock): bounded grace period before killing a child on drop; cleanup only
                let t0 = Instant::now();
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => return,
                        Ok(None) if t0.elapsed() > Duration::from_secs(2) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                        Err(_) => return,
                    }
                }
            }
            TcpPeer::Thread(join) => {
                if let Some(join) = join.take() {
                    let _ = join.join();
                }
            }
            TcpPeer::Detached => {}
        }
    }

    fn sever(&mut self) {
        // Close the socket (the peer sees EOF, as on a coordinator kill)
        // but leave the peer alive: a listen-mode server keeps its state
        // for the Resume handshake of the next coordinator.
        let _ = self.writer.shutdown(Shutdown::Both);
        // Dropping a `Child` handle does not kill the process.
        self.peer = TcpPeer::Detached;
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Durable TCP backend (reconnect-capable)

/// Reconnect-capable TCP spawner for durable exchange sessions.
///
/// Where [`TcpSpawner`] rendezvouses with a `--connect` child whose life is
/// tied to this coordinator, `DurableTcpSpawner` runs servers in *listen*
/// mode and records where they listen: server `s` publishes its bound
/// address to `server-{s}.addr` inside `state_dir`. A spawn first tries to
/// **reconnect** to that address — if a server from a previous (crashed)
/// coordinator still listens there and answers a protocol probe, the
/// existing process is adopted with all its retained state, ready for the
/// coordinator's `Resume` handshake. Only when nothing (or something
/// unresponsive) is there does it launch a fresh `tdx serve-partition
/// --listen` child — with `--idle-exit` so an abandoned server eventually
/// reaps itself. With no `tdx` binary available it degrades to an
/// in-process *detached* listener thread, which equally survives transport
/// teardown and so still exercises the reconnect path.
pub struct DurableTcpSpawner {
    state_dir: PathBuf,
    idle_exit: Duration,
}

impl DurableTcpSpawner {
    /// A spawner persisting server addresses under `state_dir` (created if
    /// missing), with the default 5-minute idle self-exit for servers.
    pub fn new(state_dir: impl Into<PathBuf>) -> DurableTcpSpawner {
        DurableTcpSpawner {
            state_dir: state_dir.into(),
            idle_exit: Duration::from_secs(300),
        }
    }

    /// Overrides how long an idle (coordinator-less) server lingers before
    /// exiting on its own.
    pub fn idle_exit(mut self, limit: Duration) -> DurableTcpSpawner {
        self.idle_exit = limit;
        self
    }

    /// Path of the file server `server` publishes its listen address to.
    pub fn addr_file(&self, server: usize) -> PathBuf {
        self.state_dir.join(format!("server-{server}.addr"))
    }

    /// Attempts to adopt a surviving server at its published address.
    fn try_reconnect(&self, server: usize) -> Option<TcpTransport> {
        let addr: std::net::SocketAddr = std::fs::read_to_string(self.addr_file(server))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).ok()?;
        probe_stream(stream)
    }

    fn spawn_fresh(&self, server: usize) -> io::Result<TcpTransport> {
        std::fs::create_dir_all(&self.state_dir)?;
        let addr_path = self.addr_file(server);
        let _ = std::fs::remove_file(&addr_path);
        if let Some(bin) = resolve_serve_bin() {
            let child = Command::new(bin)
                .arg("serve-partition")
                .arg("--listen")
                .arg("127.0.0.1:0")
                .arg("--addr-file")
                .arg(&addr_path)
                .arg("--idle-exit")
                .arg(self.idle_exit.as_secs().max(1).to_string())
                .stdin(Stdio::null())
                .spawn();
            if let Ok(mut child) = child {
                match wait_addr_file(&addr_path, spawn_wait_deadline(), &mut child) {
                    Ok(addr) => {
                        let probed = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
                            .ok()
                            .and_then(probe_stream);
                        if let Some(mut transport) = probed {
                            // Own the child: a clean teardown (protocol
                            // Shutdown, then carrier shutdown) reaps it; a
                            // sever leaves it alive for the successor.
                            transport.peer = TcpPeer::Child(child);
                            return Ok(transport);
                        }
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                }
            }
        }
        // In-process fallback: a *detached* listener thread with the same
        // persistent state and idle exit, so reconnects work identically.
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        publish_addr(&listener, &addr_path)?;
        let addr = listener.local_addr()?;
        let idle = self.idle_exit;
        std::thread::Builder::new()
            .name(format!("tdx-part-server-{server}-listen"))
            .spawn(move || {
                let _ = serve_listener(listener, Some(idle));
            })?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        probe_stream(stream).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "in-process listen server failed the protocol probe",
            )
        })
    }
}

impl TransportSpawner for DurableTcpSpawner {
    fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
        if let Some(t) = self.try_reconnect(server) {
            return Ok(Box::new(t));
        }
        Ok(Box::new(self.spawn_fresh(server)?))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

/// One `Ping` round-trip under a read timeout: proves the peer is alive
/// and speaks this build's protocol, without letting a wedged or stale
/// process hang the spawn. Returns the transport (peer detached — the
/// caller decides ownership) with the timeout cleared.
fn probe_stream(stream: TcpStream) -> Option<TcpTransport> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let mut transport = TcpTransport {
        reader: BufReader::new(stream.try_clone().ok()?),
        writer: stream,
        peer: TcpPeer::Detached,
    };
    let pong = transport
        .send(&tdx_storage::codec::encode(&Message::Ping))
        .and_then(|()| transport.recv())
        .ok()
        .and_then(|b| tdx_storage::codec::decode::<Response>(&b).ok());
    if pong != Some(Response::Pong) {
        return None;
    }
    // The probe proved the peer *live*; failing to clear the probe timeout
    // must not now report it dead. A transient `setsockopt` failure gets
    // one retry — only a socket that persistently refuses (i.e. is
    // genuinely broken) makes the probe fail.
    if transport.writer.set_read_timeout(None).is_err() {
        transport.writer.set_read_timeout(None).ok()?;
    }
    Some(transport)
}

/// Polls for a listen-mode server's published address, watching the child
/// so a startup crash fails fast instead of waiting out the deadline.
fn wait_addr_file(
    path: &std::path::Path,
    deadline: Duration,
    child: &mut Child,
) -> io::Result<std::net::SocketAddr> {
    // tdx-lint: allow(wall-clock): addr-file wait timeout while a child server boots; a timeout is an error path
    let t0 = Instant::now();
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            if let Ok(addr) = s.trim().parse() {
                return Ok(addr);
            }
        }
        if matches!(child.try_wait(), Ok(Some(_)) | Err(_)) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "partition server process exited before publishing its address",
            ));
        }
        if t0.elapsed() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "partition server never published its address",
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::cluster::protocol::{Message, Response};
    use tdx_storage::codec::{decode, encode};

    fn ping(t: &mut Box<dyn Transport>) -> Response {
        t.send(&encode(&Message::Ping)).unwrap();
        decode::<Response>(&t.recv().unwrap()).unwrap()
    }

    #[test]
    fn channel_transport_answers_pings_and_shuts_down() {
        let mut t = ChannelSpawner.spawn(0).unwrap();
        assert_eq!(ping(&mut t), Response::Pong);
        t.send(&encode(&Message::Shutdown)).unwrap();
        assert_eq!(
            decode::<Response>(&t.recv().unwrap()).unwrap(),
            Response::Stopped
        );
        t.shutdown();
        // Idempotent; errors after teardown are BrokenPipe, not panics.
        t.shutdown();
        assert!(t.send(b"x").is_err());
    }

    #[test]
    fn tcp_transport_answers_pings_and_shuts_down() {
        // Works regardless of whether a tdx binary is found — the fallback
        // thread serves the same framed TCP protocol.
        let mut t = TcpSpawner.spawn(0).unwrap();
        assert_eq!(ping(&mut t), Response::Pong);
        t.send(&encode(&Message::Shutdown)).unwrap();
        assert_eq!(
            decode::<Response>(&t.recv().unwrap()).unwrap(),
            Response::Stopped
        );
        t.shutdown();
        t.shutdown();
    }

    #[test]
    fn transport_kind_parsing_and_resolution() {
        assert_eq!(TransportKind::parse("tcp"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse(" TCP "), Some(TransportKind::Tcp));
        assert_eq!(
            TransportKind::parse("channel"),
            Some(TransportKind::Channel)
        );
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
        // Explicit choice wins over the environment.
        assert_eq!(
            resolve_transport(Some(TransportKind::Tcp)),
            TransportKind::Tcp
        );
    }

    #[test]
    fn severed_channel_transport_detaches_without_hanging() {
        let mut t = ChannelSpawner.spawn(0).unwrap();
        assert_eq!(ping(&mut t), Response::Pong);
        t.sever();
        assert!(t.send(b"x").is_err());
        // Idempotent with the normal teardown that follows on drop.
        t.shutdown();
    }

    #[test]
    fn durable_tcp_spawner_reconnects_to_a_surviving_server() {
        let dir = std::env::temp_dir().join(format!("tdx-durable-spawn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spawner = DurableTcpSpawner::new(&dir).idle_exit(Duration::from_secs(30));
        let mut t = spawner.spawn(0).unwrap();
        assert_eq!(ping(&mut t), Response::Pong);
        let addr = std::fs::read_to_string(spawner.addr_file(0)).unwrap();

        // Crash the coordinator side: the carrier dies, the server lives.
        t.sever();
        drop(t);

        // A successor adopts the same server — the published address is
        // untouched (a fresh spawn would have rewritten it with a new
        // port) and the peer still answers.
        let mut t2 = spawner.spawn(0).unwrap();
        assert_eq!(std::fs::read_to_string(spawner.addr_file(0)).unwrap(), addr);
        assert_eq!(ping(&mut t2), Response::Pong);
        t2.send(&encode(&Message::Shutdown)).unwrap();
        let _ = t2.recv();
        t2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn channel_deadline_turns_a_silent_server_into_a_timeout() {
        let mut t = ChannelSpawner.spawn(0).unwrap();
        t.set_deadline(Some(Duration::from_millis(20))).unwrap();
        // No request in flight: the server stays silent, and the deadline
        // turns the would-be-forever recv into a typed timeout.
        let err = t.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The channel carrier survives a timeout; traffic still flows.
        assert_eq!(ping(&mut t), Response::Pong);
        t.set_deadline(None).unwrap();
        t.send(&encode(&Message::Shutdown)).unwrap();
        let _ = t.recv();
        t.shutdown();
    }

    #[test]
    fn tcp_deadline_turns_a_silent_server_into_a_timeout() {
        let mut t = TcpSpawner.spawn(0).unwrap();
        t.set_deadline(Some(Duration::from_millis(50))).unwrap();
        let err = t.recv().unwrap_err();
        // SO_RCVTIMEO surfaces as TimedOut or WouldBlock depending on the
        // platform; both are transport faults to the coordinator.
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "{err}"
        );
        t.shutdown();
    }
}

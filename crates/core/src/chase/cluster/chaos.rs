//! The seeded fail-slow fault harness: chaos testing for the cluster's
//! deadline/retry/quarantine machinery.
//!
//! [`ChaosSpawner`] replays a [`FaultPlan`] — a seeded, reproducible list
//! of [`FaultSpec`]s — against any inner transport. The fault kinds cover
//! the fail-stop, fail-slow and corrupting failure classes of
//! `docs/robustness.md`: delay, indefinite hang, frame drop, byte
//! corruption, duplicated frames and partial writes. A single
//! [`FaultKind::PartialWrite`] plan is the classic crash sweep: kill one
//! server's carrier after N frames, then let the retry path respawn it.
//!
//! Faults are injected **coordinator-side** (in the wrapper, never inside
//! the server): the coordinator is the component whose recovery is under
//! test, and the protocol kernel is entitled to well-formed frames — a
//! corrupting network manifests to the coordinator as an undecodable
//! *response*, which is exactly what [`FaultKind::Corrupt`] produces.
//! Every fault therefore lands in one of the coordinator's documented
//! recovery lanes: a deadline miss, a decode failure, or a broken
//! carrier. Note the codec has no frame checksum, so corruption is
//! simulated as *detectable* corruption (an invalid enum tag);
//! undetectable corruption would need per-frame CRCs — future work noted
//! in `docs/robustness.md`.
//!
//! A plan is replayable: the same seed and shape generate the same faults
//! (`FaultPlan::generate` is a pure splitmix64 stream), which is how the
//! CI `chaos` job reports an offending plan as an artifact and how a
//! developer reruns it locally.

use super::transport::{Transport, TransportKind, TransportSpawner};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One injected failure shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The response is delayed by this many milliseconds. Shorter than
    /// the frame deadline it is pure added latency; at or past the
    /// deadline it is indistinguishable from a hang.
    Delay(u64),
    /// The response never arrives (the frame *was* delivered): with a
    /// deadline the coordinator times out and retries; without one the
    /// call blocks forever — the wedge the deadline exists to prevent.
    Hang,
    /// The request frame is silently dropped before the server sees it;
    /// the subsequent receive waits for a response that can never come.
    Drop,
    /// The response arrives as undecodable bytes (an invalid enum tag —
    /// see the module docs on detectable corruption).
    Corrupt,
    /// The request frame is delivered twice: the server answers twice and
    /// the request/response pairing desynchronizes.
    Duplicate,
    /// The write breaks off mid-frame: the carrier errors and is left
    /// unusable, the way a connection reset mid-`write_frame` would be.
    PartialWrite,
}

/// One fault: `kind` fires on `server`'s transport when it has already
/// carried `after_frames` sends (frame offsets count per transport
/// instance, so a respawned carrier starts over — a plan's offsets sweep
/// the protocol positions of a fresh carrier).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cluster-wide index of the targeted server.
    pub server: usize,
    /// Frames the carrier must have sent before the fault arms.
    pub after_frames: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, replayable chaos schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed `generate` derived the faults from (0 for hand-built
    /// plans); carried for reporting.
    pub seed: u64,
    /// The faults, each consumed at most once.
    pub faults: Vec<FaultSpec>,
}

/// One step of the splitmix64 stream — the standard avalanche mixer; a
/// pure function of the state, so plans are identical across platforms
/// and runs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A single-fault plan (the sweep shape the equivalence tests use).
    pub fn single(server: usize, after_frames: usize, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            seed: 0,
            faults: vec![FaultSpec {
                server,
                after_frames,
                kind,
            }],
        }
    }

    /// Generates `count` faults over `servers` servers and frame offsets
    /// below `max_frame`, deterministically from `seed`. Delays are drawn
    /// in 1..=60 ms — short enough to keep a soak run fast, long enough
    /// to land on either side of a harness-scale deadline.
    pub fn generate(seed: u64, servers: usize, max_frame: usize, count: usize) -> FaultPlan {
        let mut state = seed;
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let r = splitmix64(&mut state);
            let kind = match r % 6 {
                0 => FaultKind::Delay(1 + (splitmix64(&mut state) % 60)),
                1 => FaultKind::Hang,
                2 => FaultKind::Drop,
                3 => FaultKind::Corrupt,
                4 => FaultKind::Duplicate,
                _ => FaultKind::PartialWrite,
            };
            faults.push(FaultSpec {
                server: (splitmix64(&mut state) as usize) % servers.max(1),
                after_frames: (splitmix64(&mut state) as usize) % max_frame.max(1),
                kind,
            });
        }
        FaultPlan { seed, faults }
    }

    /// A human-readable rendering for failure reports (one fault per
    /// line), replayable via the seed.
    pub fn describe(&self) -> String {
        let mut out = format!("FaultPlan seed={}\n", self.seed);
        for f in &self.faults {
            out.push_str(&format!(
                "  server {} after {} frames: {:?}\n",
                f.server, f.after_frames, f.kind
            ));
        }
        out
    }
}

/// Wraps an inner spawner so every spawned transport replays the
/// [`FaultPlan`]'s faults for its server. Each fault fires at most once
/// across the whole cluster lifetime (respawned carriers consume the
/// remaining faults at their own frame offsets), so a correct recovery
/// path always converges to a clean cluster.
pub struct ChaosSpawner {
    inner: Arc<dyn TransportSpawner>,
    /// Unfired faults, drained as transports consume them.
    faults: Arc<Mutex<Vec<FaultSpec>>>,
    fired: Arc<AtomicUsize>,
}

impl ChaosSpawner {
    /// A spawner replaying `plan` over `inner`'s transports.
    pub fn new(inner: Arc<dyn TransportSpawner>, plan: &FaultPlan) -> ChaosSpawner {
        ChaosSpawner {
            inner,
            faults: Arc::new(Mutex::new(plan.faults.clone())),
            fired: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// How many faults have actually fired.
    pub fn fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }

    /// How many faults are still armed.
    pub fn remaining(&self) -> usize {
        // A poisoned lock only means another carrier panicked mid-take;
        // the fault list itself is always consistent (single remove).
        self.faults.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl TransportSpawner for ChaosSpawner {
    fn spawn(&self, server: usize) -> io::Result<Box<dyn Transport>> {
        Ok(Box::new(ChaosTransport {
            inner: self.inner.spawn(server)?,
            server,
            sent: 0,
            faults: Arc::clone(&self.faults),
            fired: Arc::clone(&self.fired),
            deadline: None,
            pending: None,
            broken: false,
        }))
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

/// What a fired fault leaves for the next `recv` to act out.
enum Pending {
    /// Sleep this long, then receive normally.
    Delay(Duration),
    /// Never produce the response: time out against the stored deadline,
    /// or block forever when deadlines are disabled.
    Hang,
    /// Receive, then hand the coordinator garbage bytes instead.
    Corrupt,
}

/// The per-carrier chaos wrapper (spawned by [`ChaosSpawner`]). Stores
/// the deadline [`Transport::set_deadline`] installs so hangs and delays
/// honor it exactly like a real socket timeout would — and forwards it to
/// the inner transport so undisturbed traffic is bounded too.
struct ChaosTransport {
    inner: Box<dyn Transport>,
    server: usize,
    /// Frames sent on this carrier instance.
    sent: usize,
    faults: Arc<Mutex<Vec<FaultSpec>>>,
    fired: Arc<AtomicUsize>,
    deadline: Option<Duration>,
    pending: Option<Pending>,
    broken: bool,
}

impl ChaosTransport {
    /// Consumes the first unfired fault armed for this carrier's current
    /// frame offset, if any.
    fn take_fault(&self) -> Option<FaultKind> {
        // See `remaining`: recover the list from a poisoned lock rather
        // than panicking the carrier that came to take a fault.
        let mut faults = self.faults.lock().unwrap_or_else(|e| e.into_inner());
        let i = faults
            .iter()
            .position(|f| f.server == self.server && f.after_frames == self.sent)?;
        let spec = faults.remove(i);
        self.fired.fetch_add(1, Ordering::SeqCst);
        Some(spec.kind)
    }

    fn broken_err() -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "partition server carrier broken by chaos fault",
        )
    }

    fn timed_out(&mut self, slept: Duration) -> io::Error {
        std::thread::sleep(slept);
        self.broken = true;
        io::Error::new(
            io::ErrorKind::TimedOut,
            "partition server exceeded the frame deadline",
        )
    }
}

impl Transport for ChaosTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.broken {
            return Err(Self::broken_err());
        }
        let fault = self.take_fault();
        self.sent += 1;
        match fault {
            None => self.inner.send(frame),
            Some(FaultKind::Delay(ms)) => {
                self.pending = Some(Pending::Delay(Duration::from_millis(ms)));
                self.inner.send(frame)
            }
            Some(FaultKind::Hang) => {
                // Delivered but never answered (from the coordinator's
                // point of view): the response is withheld here.
                self.pending = Some(Pending::Hang);
                self.inner.send(frame)
            }
            Some(FaultKind::Drop) => {
                // Swallowed before the server sees it; the inner recv
                // waits for a response that cannot come (bounded by the
                // forwarded deadline, if any).
                Ok(())
            }
            Some(FaultKind::Corrupt) => {
                self.pending = Some(Pending::Corrupt);
                self.inner.send(frame)
            }
            Some(FaultKind::Duplicate) => {
                self.inner.send(frame)?;
                self.inner.send(frame)
            }
            Some(FaultKind::PartialWrite) => {
                // A write torn mid-frame leaves the stream unframeable:
                // model it as a carrier break, not as delivering torn
                // bytes (the inner channel peer would treat those as a
                // protocol violation, which a length-prefixed TCP reader
                // would never surface to the server loop).
                self.broken = true;
                self.inner.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "partition server write broke off mid-frame",
                ))
            }
        }
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        if self.broken {
            return Err(Self::broken_err());
        }
        match self.pending.take() {
            None => self.inner.recv(),
            Some(Pending::Delay(d)) => match self.deadline {
                Some(dl) if d >= dl => Err(self.timed_out(dl)),
                _ => {
                    std::thread::sleep(d);
                    self.inner.recv()
                }
            },
            Some(Pending::Hang) => match self.deadline {
                Some(dl) => Err(self.timed_out(dl)),
                // Deadlines disabled: a hung server blocks its
                // coordinator forever. This is the wedge the watchdogged
                // harness exists to catch, reproduced faithfully.
                None => loop {
                    std::thread::sleep(Duration::from_secs(3600));
                },
            },
            Some(Pending::Corrupt) => {
                let _ = self.inner.recv()?;
                // An invalid enum tag: reliably undecodable (see the
                // module docs), so the coordinator sees InvalidData and
                // retries rather than folding garbage into the chase.
                Ok(vec![0xFF; 16])
            }
        }
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        self.deadline = deadline;
        self.inner.set_deadline(deadline)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn sever(&mut self) {
        self.inner.sever();
    }
}

#[cfg(test)]
mod tests {
    use super::super::protocol::{Message, Response};
    use super::super::transport::ChannelSpawner;
    use super::*;
    use tdx_storage::codec::{decode, encode};

    fn ping_frame() -> Vec<u8> {
        encode(&Message::Ping)
    }

    #[test]
    fn plans_are_deterministic_and_replayable() {
        let a = FaultPlan::generate(42, 3, 16, 10);
        let b = FaultPlan::generate(42, 3, 16, 10);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.faults.len(), 10);
        assert!(a.faults.iter().all(|f| f.server < 3 && f.after_frames < 16));
        let c = FaultPlan::generate(43, 3, 16, 10);
        assert_ne!(a, c, "different seed, different plan");
        assert!(a.describe().contains("seed=42"));
    }

    #[test]
    fn delay_fault_is_latency_not_failure() {
        let plan = FaultPlan::single(0, 0, FaultKind::Delay(5));
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        t.set_deadline(Some(Duration::from_secs(5))).unwrap();
        t.send(&ping_frame()).unwrap();
        let resp = decode::<Response>(&t.recv().unwrap()).unwrap();
        assert_eq!(resp, Response::Pong);
        assert_eq!(spawner.fired(), 1);
        assert_eq!(spawner.remaining(), 0);
        t.shutdown();
    }

    #[test]
    fn hang_fault_times_out_against_the_deadline_and_breaks_the_carrier() {
        let plan = FaultPlan::single(0, 0, FaultKind::Hang);
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        t.set_deadline(Some(Duration::from_millis(10))).unwrap();
        t.send(&ping_frame()).unwrap();
        let err = t.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // The carrier is broken — a respawn (fresh spawn) is clean.
        assert!(t.send(&ping_frame()).is_err());
        let mut t2 = spawner.spawn(0).unwrap();
        t2.send(&ping_frame()).unwrap();
        assert_eq!(
            decode::<Response>(&t2.recv().unwrap()).unwrap(),
            Response::Pong
        );
        t.shutdown();
        t2.shutdown();
    }

    #[test]
    fn corrupt_fault_yields_undecodable_bytes() {
        let plan = FaultPlan::single(0, 0, FaultKind::Corrupt);
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        t.send(&ping_frame()).unwrap();
        let bytes = t.recv().unwrap();
        assert!(
            decode::<Response>(&bytes).is_err(),
            "corrupted frame must never decode"
        );
        t.shutdown();
    }

    #[test]
    fn partial_write_breaks_the_carrier_with_a_typed_error() {
        let plan = FaultPlan::single(0, 0, FaultKind::PartialWrite);
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        let err = t.send(&ping_frame()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(t.recv().is_err(), "broken carrier stays broken");
        t.shutdown();
    }

    #[test]
    fn partial_write_fires_exactly_once_and_the_respawn_is_clean() {
        let plan = FaultPlan::single(0, 1, FaultKind::PartialWrite);
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        assert_eq!(spawner.fired(), 0);
        t.send(&ping_frame()).unwrap(); // the first frame passes
        assert_eq!(
            decode::<Response>(&t.recv().unwrap()).unwrap(),
            Response::Pong
        );
        assert!(t.send(&ping_frame()).is_err()); // the second breaks off
        assert_eq!(spawner.fired(), 1);
        // The respawned carrier starts its frame count over, but the fault
        // is spent: it stays clean past the old offset.
        let mut t2 = spawner.spawn(0).unwrap();
        for _ in 0..2 {
            t2.send(&ping_frame()).unwrap();
            assert_eq!(
                decode::<Response>(&t2.recv().unwrap()).unwrap(),
                Response::Pong
            );
        }
        assert_eq!(spawner.fired(), 1);
        t2.send(&encode(&Message::Shutdown)).unwrap();
        let _ = t2.recv();
        t.shutdown();
        t2.shutdown();
    }

    #[test]
    fn drop_fault_swallows_the_frame_and_the_deadline_bounds_the_wait() {
        let plan = FaultPlan::single(0, 0, FaultKind::Drop);
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        t.set_deadline(Some(Duration::from_millis(10))).unwrap();
        t.send(&ping_frame()).unwrap(); // silently dropped
        let err = t.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        t.shutdown();
    }

    #[test]
    fn duplicate_fault_desynchronizes_the_pairing() {
        let plan = FaultPlan::single(0, 0, FaultKind::Duplicate);
        let spawner = ChaosSpawner::new(Arc::new(ChannelSpawner), &plan);
        let mut t = spawner.spawn(0).unwrap();
        t.send(&ping_frame()).unwrap(); // delivered twice
        assert_eq!(
            decode::<Response>(&t.recv().unwrap()).unwrap(),
            Response::Pong
        );
        // The stray second Pong now answers the *next* request — the
        // desync a coordinator surfaces as an unexpected-response error.
        t.send(&encode(&Message::Shutdown)).unwrap();
        assert_eq!(
            decode::<Response>(&t.recv().unwrap()).unwrap(),
            Response::Pong
        );
        t.shutdown();
    }
}

//! The three chase procedures of the paper.
//!
//! * [`snapshot`] — the classical relational chase of Fagin et al. on one
//!   snapshot: s-t tgd steps followed by egd steps;
//! * [`abstract_chase`](mod@abstract_chase) — Section 3: the chase applied to every snapshot of
//!   an abstract instance independently, with fresh nulls per snapshot
//!   (per-point null families per epoch);
//! * [`concrete`] — Section 4.3: the **c-chase** on concrete instances,
//!   with normalization and interval-annotated nulls.

pub mod abstract_chase;
pub mod cluster;
pub mod concrete;
pub mod durable;
pub mod incremental;
pub(crate) mod partitioned;
pub mod snapshot;

pub use abstract_chase::{abstract_chase, abstract_chase_parallel, abstract_chase_parallel_opts};
pub use cluster::{
    snapshot_consistent, ChaosSpawner, DistributedCluster, FaultKind, FaultPlan, FaultSpec,
    Message, Response, ServerHealth, StoreKind, TrafficStats, Transport, TransportKind,
    TransportSpawner,
};
pub use concrete::{c_chase, CChaseResult, ChaseOptions, ChaseStats};
pub use durable::DurableExchange;
pub use incremental::{BatchStats, DeltaBatch, IncrementalExchange, SessionStats};
pub use snapshot::snapshot_chase;

/// Parses a positive-integer tuning knob from the environment. `0` is an
/// explicit "auto" and falls through silently; anything non-numeric is a
/// misconfiguration the caller should hear about, so it is reported to
/// stderr **once per knob per process** before falling back to auto —
/// silently honoring a typo like `TDX_CHASE_THREADS=four` by running
/// single-knob defaults was a long-standing trap.
fn env_knob(name: &str, warned: &'static std::sync::Once) -> Option<usize> {
    resolve_knob(std::env::var(name).ok().as_deref(), name, warned)
}

/// The pure resolution behind [`env_knob`]: takes the variable's value (if
/// set) instead of reading the process environment, so tests can exercise
/// the garbage path without `set_var` races against concurrently running
/// tests.
fn resolve_knob(
    value: Option<&str>,
    name: &str,
    warned: &'static std::sync::Once,
) -> Option<usize> {
    let v = value?;
    match parse_env_knob(v) {
        Ok(n) => n,
        Err(()) => {
            warned.call_once(|| {
                eprintln!(
                    "tdx: warning: ignoring non-numeric {name}={v:?}; \
                     falling back to auto-detection"
                );
            });
            None
        }
    }
}

/// The pure parse behind [`resolve_knob`]: `Ok(Some(n))` for a positive
/// count, `Ok(None)` for an explicit `0` (auto), `Err(())` for garbage.
fn parse_env_knob(v: &str) -> Result<Option<usize>, ()> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        Ok(_) => Ok(None),
        Err(_) => Err(()),
    }
}

/// Resolves a worker-thread request into a concrete count — the one knob
/// shared by [`ChaseEngine::PartitionedParallel`](concrete::ChaseEngine) and
/// [`abstract_chase_parallel`]: an explicit `requested > 0` wins; `0` falls
/// back to the `TDX_CHASE_THREADS` environment variable (a non-numeric
/// value is reported once to stderr and ignored), then to the machine's
/// available parallelism (capped at 8 — the chase's partition fan-out
/// saturates well before wide machines do).
pub fn worker_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    static WARNED: std::sync::Once = std::sync::Once::new();
    if let Some(n) = env_knob("TDX_CHASE_THREADS", &WARNED) {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The per-frame deadline applied when neither [`ChaseOptions`] nor the
/// `TDX_CHASE_DEADLINE_MS` environment variable says otherwise: generous
/// enough that no healthy chase round on any CI box ever trips it, small
/// enough that a wedged server surfaces as a fault instead of hanging the
/// coordinator forever.
pub(crate) const DEFAULT_DEADLINE_MS: u64 = 10_000;

/// Resolves the coordinator's per-frame transport deadline — the bound on
/// how long any single `send`/`recv` to a partition server may block
/// before it is classified as a transport fault (and enters the same
/// respawn/quarantine path as a dead server; see `docs/robustness.md`).
///
/// An explicit request from [`ChaseOptions::frame_deadline`] wins:
/// `Some(d)` is the deadline, except `Some(Duration::ZERO)` which
/// *disables* deadlines entirely (recv may block forever — the pre-PR 8
/// behavior). `None` falls back to `TDX_CHASE_DEADLINE_MS`, where `0`
/// likewise disables and a non-numeric value is reported once to stderr
/// (like [`worker_threads`]) before falling back to the
/// `DEFAULT_DEADLINE_MS` default. Note the zero semantics differ from
/// the thread/server knobs: a count of `0` means "auto-detect", but a
/// deadline of `0` can only sensibly mean "no deadline".
pub fn frame_deadline(requested: Option<std::time::Duration>) -> Option<std::time::Duration> {
    if let Some(d) = requested {
        return (!d.is_zero()).then_some(d);
    }
    static WARNED: std::sync::Once = std::sync::Once::new();
    resolve_deadline_ms(
        std::env::var("TDX_CHASE_DEADLINE_MS").ok().as_deref(),
        &WARNED,
    )
    .map(std::time::Duration::from_millis)
}

/// The pure resolution behind [`frame_deadline`]'s environment fallback,
/// injected-value style like [`resolve_knob`] so tests never touch the
/// real environment.
fn resolve_deadline_ms(value: Option<&str>, warned: &'static std::sync::Once) -> Option<u64> {
    let Some(v) = value else {
        return Some(DEFAULT_DEADLINE_MS);
    };
    match parse_env_knob(v) {
        Ok(Some(n)) => Some(n as u64),
        Ok(None) => None, // explicit 0: deadlines disabled
        Err(()) => {
            warned.call_once(|| {
                eprintln!(
                    "tdx: warning: ignoring non-numeric TDX_CHASE_DEADLINE_MS={v:?}; \
                     falling back to the {DEFAULT_DEADLINE_MS} ms default"
                );
            });
            Some(DEFAULT_DEADLINE_MS)
        }
    }
}

/// Resolves a partition-server request for
/// [`ChaseEngine::Distributed`](concrete::ChaseEngine): an explicit
/// `requested > 0` wins; `0` falls back to the `TDX_CHASE_SERVERS`
/// environment variable (non-numeric values are reported once to stderr
/// and ignored, like [`worker_threads`]), then to 2 — the smallest cluster
/// that actually exercises cross-server replica shipping.
pub fn server_count(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    static WARNED: std::sync::Once = std::sync::Once::new();
    if let Some(n) = env_knob("TDX_CHASE_SERVERS", &WARNED) {
        return n;
    }
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_env_knob_classifies_inputs() {
        assert_eq!(parse_env_knob("4"), Ok(Some(4)));
        assert_eq!(parse_env_knob(" 16 "), Ok(Some(16)));
        assert_eq!(parse_env_knob("0"), Ok(None)); // explicit auto
        for garbage in ["", "four", "2x", "-1", "1.5", "0x2", "∞"] {
            assert_eq!(parse_env_knob(garbage), Err(()), "input {garbage:?}");
        }
    }

    #[test]
    fn explicit_request_wins_over_everything() {
        assert_eq!(worker_threads(3), 3);
        assert_eq!(server_count(5), 5);
    }

    #[test]
    fn deadline_resolution_distinguishes_disabled_from_default() {
        static WARNED: std::sync::Once = std::sync::Once::new();
        // Unset: the default applies.
        assert_eq!(
            resolve_deadline_ms(None, &WARNED),
            Some(DEFAULT_DEADLINE_MS)
        );
        // Explicit 0 disables deadlines (unlike the count knobs, where 0
        // means auto-detect).
        assert_eq!(resolve_deadline_ms(Some("0"), &WARNED), None);
        // A positive value is taken verbatim, in milliseconds.
        assert_eq!(resolve_deadline_ms(Some("250"), &WARNED), Some(250));
        assert!(!WARNED.is_completed(), "no warning on valid inputs");
        // Garbage warns once and falls back to the default, never to
        // "disabled" — a typo must not silently remove the hang guard.
        for garbage in ["ten", "-5", "1.5s", ""] {
            assert_eq!(
                resolve_deadline_ms(Some(garbage), &WARNED),
                Some(DEFAULT_DEADLINE_MS),
                "garbage {garbage:?}"
            );
        }
        assert!(WARNED.is_completed());
    }

    #[test]
    fn explicit_frame_deadline_wins_over_the_environment() {
        use std::time::Duration;
        // `Some(d)` is honored without consulting the environment…
        assert_eq!(
            frame_deadline(Some(Duration::from_millis(7))),
            Some(Duration::from_millis(7))
        );
        // …and `Some(ZERO)` explicitly disables deadlines.
        assert_eq!(frame_deadline(Some(Duration::ZERO)), None);
    }

    #[test]
    fn garbage_knob_values_warn_once_and_fall_back_to_auto() {
        // Exercised through the injected-value resolver rather than
        // `std::env::set_var`: mutating the real environment would race
        // against every concurrently running test that constructs a
        // session (getenv/setenv is UB territory on glibc, and a momentary
        // garbage value would leak into their thread resolution).
        static WARNED: std::sync::Once = std::sync::Once::new();
        for garbage in ["not-a-number", "four", "-1", ""] {
            assert_eq!(
                resolve_knob(Some(garbage), "TDX_CHASE_THREADS", &WARNED),
                None,
                "garbage {garbage:?} must fall back to auto, not panic or stick"
            );
        }
        // The warning path has fired; valid values still resolve.
        assert!(WARNED.is_completed());
        assert_eq!(
            resolve_knob(Some("4"), "TDX_CHASE_THREADS", &WARNED),
            Some(4)
        );
        assert_eq!(resolve_knob(Some("0"), "TDX_CHASE_THREADS", &WARNED), None);
        assert_eq!(resolve_knob(None, "TDX_CHASE_THREADS", &WARNED), None);
    }
}

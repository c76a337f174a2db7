//! Extensions beyond the paper's core results, implementing parts of its
//! Section 7 future-work agenda.
//!
//! * [`cores`] — cores of (universal) solutions: the paper points at
//!   revisiting "the classical data exchange problems … such as the notion
//!   of core"; we compute snapshot cores and their pointwise lifting to
//!   concrete instances;
//! * [`temporal_chase`](mod@temporal_chase) — a chase for **temporal (modal) s-t tgds**
//!   (`◇⁻`, `□⁻`, `◇⁺`, `□⁺` heads), the extension the paper sketches with
//!   its PhD-candidate example. The paper explicitly leaves the right
//!   notion of universal solution open; this module materializes *a*
//!   solution with a deterministic witness-placement policy and verifies it
//!   against the two-sorted FOL semantics.

pub mod cores;
pub mod temporal_chase;

pub use cores::{concrete_core, snapshot_core};
pub use temporal_chase::{satisfies_temporal_tgd, temporal_chase, TemporalSetting};

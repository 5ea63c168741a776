//! MPI_T-style performance variables (`pvars`) over the SPC counter sets.
//!
//! The paper reads every number in Table II and Figs. 3–7 through
//! Software-based Performance Counters exposed via Open MPI's **MPI tool
//! information interface** (`MPI_T`, MPI-3 §14.3): a tool enumerates
//! performance variables, allocates handles inside a *session*, and uses
//! `MPI_T_pvar_{start,stop,read,reset}` to sample them without perturbing
//! the measured run. This crate reproduces that model over
//! [`fairmpi_spc::SpcSet`]:
//!
//! * [`PvarRegistry`] — enumeration and metadata (name, class, binding,
//!   readonly/continuous), mirroring `MPI_T_pvar_get_num` /
//!   `MPI_T_pvar_get_info` / `MPI_T_pvar_get_index`;
//! * [`PvarSession`] + [`PvarHandle`] — mirroring
//!   `MPI_T_pvar_session_create` / `MPI_T_pvar_handle_alloc`, with
//!   per-session start baselines so concurrent tools don't see each other's
//!   resets;
//! * variable classes `COUNTER`, `TIMER`, `HIGHWATERMARK`, `LOWWATERMARK`
//!   and a log2-bucket `HISTOGRAM` extension (MPI_T's generic class), fed
//!   by the watermark/histogram cells of the SPC set;
//! * text exporters: [`prometheus`] exposition, hand-rolled (the build is
//!   offline), and a JSON snapshot, [`pvars_value`], built on
//!   `fairmpi_trace::json`, the workspace's one JSON module.
//!
//! The deviation from MPI_T proper is deliberate and documented per item:
//! reads return Rust values instead of filling caller buffers, and
//! `reset` rebases the *session's* baseline rather than writing the global
//! cell (so one tool's reset can never corrupt another's view — the same
//! end MPI_T achieves by making most OMPI SPC pvars readonly).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use fairmpi_spc::{Counter, SpcSet};
//! use fairmpi_mpit::{PvarRegistry, PvarSession, PvarValue};
//!
//! let spc = Arc::new(SpcSet::new());
//! let registry = PvarRegistry::new(Arc::clone(&spc));
//! let mut session = PvarSession::new(&registry);
//! let idx = registry.index_of("messages_sent").unwrap();
//! let h = session.handle_alloc(idx).unwrap();
//! session.start(h).unwrap();
//! spc.inc(Counter::MessagesSent);
//! assert_eq!(session.read(h).unwrap(), PvarValue::Scalar(1));
//! ```

mod pvar;
mod registry;
mod session;

pub mod prometheus;

pub use pvar::{MpitError, PvarBind, PvarClass, PvarInfo, PvarValue};
pub use registry::{pvars_value, PvarRegistry};
pub use session::{PvarHandle, PvarSession};

#[cfg(test)]
mod tests;

//! The parts of DWS that must mean the same thing everywhere.
//!
//! The paper's numbers come from the simulator (`dws-sim`), its
//! mechanisms from the runtime (`dws-rt`), and the protocol is explored
//! by the checker (`dws-check`). A comparison between any two of them is
//! only valid if they evaluate the same rule and speak the same schema,
//! so both are defined here, once, and the three crates re-export them:
//!
//! * [`policy`] — Eq. 1 (`N_w = N_b / N_a`) and the §3.3 three-case wake
//!   plan, with the [`policy::CoordCase`] label the plan falls into;
//! * [`frame`] — the [`frame::TelemetryFrame`] wire schema and its JSON
//!   Lines sink.
//!
//! Everything here is a pure function or plain data.

#![warn(missing_docs)]

pub mod frame;
pub mod policy;

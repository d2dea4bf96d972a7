//! # dws-rt — the Demand-aware Work-Stealing runtime
//!
//! A from-scratch Cilk-style work-stealing runtime implementing *"DWS:
//! Demand-aware Work-Stealing in Multi-programmed Multi-core
//! Architectures"* (Chen, Zheng, Guo — PMAM'14 / PPoPP 2014) on real
//! threads:
//!
//! * **Worker algorithm (paper Algorithm 1)** — per-worker lock-free
//!   Chase–Lev deques; a worker that fails `T_SLEEP` consecutive steals
//!   goes to sleep and releases its core in the shared allocation table.
//! * **Coordinator (paper §3.3)** — a helper thread per program that
//!   every `T = 10 ms` computes `N_w = N_b / N_a` (Eq. 1) and wakes
//!   sleeping workers on free cores, reclaiming the program's own cores
//!   from co-runners when demand exceeds the free supply — never touching
//!   cores other programs hold.
//! * **Core-allocation table (paper Table 1 / §3.4)** — lock-free slots
//!   shared either in-process ([`InProcessTable`]) or across processes via
//!   an `mmap`'d file ([`ShmTable`]), exactly as the paper implements it.
//! * **Baseline policies** — plain work-stealing ([`Policy::Ws`]), ABP
//!   yielding ([`Policy::Abp`]), static equipartition ([`Policy::Ep`]) and
//!   the coordinator-less ablation ([`Policy::DwsNc`]), for reproducing
//!   the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use dws_rt::{join, Policy, Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::new(4, Policy::Ws));
//! let (a, b) = rt.block_on(|| {
//!     join(|| (1..=50).sum::<u64>(), || (51..=100).sum::<u64>())
//! });
//! assert_eq!(a + b, 5050);
//! ```
//!
//! ## Co-running programs
//!
//! Two runtimes sharing a table behave like the paper's co-running
//! programs: each starts on its half of the cores and they trade cores as
//! their demands shift.
//!
//! ```
//! use std::sync::Arc;
//! use dws_rt::{CoreTable, InProcessTable, Policy, Runtime, RuntimeConfig};
//!
//! let table: Arc<dyn CoreTable> = Arc::new(InProcessTable::new(4, 2));
//! let p0 = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 0);
//! let p1 = Runtime::with_table(RuntimeConfig::new(4, Policy::Dws), Arc::clone(&table), 1);
//! let x = p0.block_on(|| 40 + 2);
//! let y = p1.block_on(|| 40 * 2);
//! assert_eq!((x, y), (42, 80));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod adaptive;
pub mod affinity;
pub mod alloc_table;
mod config;
mod coordinator;
pub mod export;
mod job;
mod join;
mod latch;
pub mod metrics;
pub mod par;
mod registry;
mod rng;
mod scope;
mod serve;
pub mod shm;
mod sleep;
pub mod sync;
pub mod telemetry;
pub mod trace;

pub use alloc_table::{
    equipartition_home, jain_fairness, reap_expired, AllocLedger, CoreTable, Doorbell,
    InProcessTable, LedgerSnapshot, LedgerTable, ReapPass, TracedTable, DOORBELL_DEMAND,
    DOORBELL_RELEASE, DOORBELL_SHUTDOWN, DOORBELL_SUBMIT, DOORBELL_SURPLUS,
};
pub use config::{
    AdaptiveConfig, Policy, RuntimeConfig, ServeConfig, TelemetryConfig, TraceConfig,
};
pub use dws_core::policy::{eq1_wake_target, plan_wakes, WakePlan};
pub use dws_deque::{Request, SubmitError, SubmitRing, TaskId};
pub use join::join;
pub use metrics::{
    AggregatedHistograms, HistogramSnapshot, MetricsSnapshot, WorkerMetricsSnapshot,
};
pub use par::{par_chunks_mut, par_for_each_index, par_for_each_mut, par_map_reduce};
pub use registry::Runtime;
pub use scope::{scope, Scope};
pub use serve::RequestHandler;
pub use shm::{Backoff, FailoverTable, ShmError, ShmTable, DEFAULT_RING_CAPACITY};
pub use sleep::{Sleeper, WakeReason};
pub use telemetry::{
    escape_label_value, frames_to_jsonl, render_prometheus, serve, CoordSample, CoreSample,
    CounterSample, LatencySample, TelemetryFrame, TelemetryHandle, TelemetryServer, WorkerSample,
    PROMETHEUS_CONTENT_TYPE,
};
pub use trace::{ReplayChecker, ReplayStats, RtEvent, RtTrace, TimedEvent, TraceSnapshot};

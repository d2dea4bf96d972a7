//! # dws-deque — work-stealing deques for the DWS runtime
//!
//! This crate provides the queueing substrate used by
//! [`dws-rt`](../dws_rt/index.html), the Rust reproduction of *"DWS:
//! Demand-aware Work-Stealing in Multi-programmed Multi-core
//! Architectures"* (Chen, Zheng, Guo — PMAM'14 / PPoPP 2014):
//!
//! - [`deque`] / [`Worker`] / [`Stealer`]: a lock-free Chase–Lev
//!   work-stealing deque (owner pushes/pops LIFO at the bottom, thieves
//!   steal FIFO from the top), following the weak-memory-exact formulation
//!   of Lê et al. (PPoPP'13). Thieves can also move work in bulk:
//!   [`Stealer::steal_batch`] / [`Stealer::steal_batch_and_pop`] transfer
//!   up to half of the victim's queue (capped at [`MAX_STEAL_BATCH`]) into
//!   the thief's own deque, amortizing victim selection across the batch.
//! - [`Injector`]: a multi-producer multi-consumer FIFO used for work that
//!   enters the pool from outside (root-task submission), with a bulk
//!   [`Injector::steal_batch`] drain under a single lock acquisition.
//! - [`MutexDeque`]: a locked reference implementation used as a test
//!   oracle and as the baseline in the deque microbenchmarks.
//! - [`TaskId`]: a packed `(program, worker, sequence)` task identity that
//!   rides inside queued elements, so push/pop/steal/steal-half transfers
//!   preserve each task's identity for lifecycle tracing.
//! - [`SubmitRing`]: a fixed-capacity MPSC submission ring for external
//!   [`Request`]s, layout-stable over raw shared memory so clients in
//!   other processes can feed a serving program, with lease-epoch fencing
//!   for crash tolerance.
//!
//! ```
//! use dws_deque::{deque, Steal};
//!
//! let (worker, stealer) = deque::<u32>();
//! worker.push(1);
//! worker.push(2);
//! assert_eq!(stealer.steal(), Steal::Success(1)); // thieves take oldest
//! assert_eq!(worker.pop(), Some(2));              // owner takes newest
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod buffer;
mod chase_lev;
mod injector;
mod mutex_deque;
mod submit_ring;
mod task_id;

pub use chase_lev::{batch_quota, deque, Steal, Stealer, Worker, MAX_STEAL_BATCH};
pub use injector::Injector;
pub use mutex_deque::MutexDeque;
pub use submit_ring::{Request, SubmitError, SubmitRing, ABANDON_AFTER, EPOCH_FENCED};
pub use task_id::{IdPrefix, TaskId};

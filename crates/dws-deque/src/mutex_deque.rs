//! Mutex-based reference deque.
//!
//! A trivially correct implementation of the same owner-bottom /
//! thief-top contract as [`crate::chase_lev`]. It exists as a test
//! oracle for differential and property tests against the lock-free deque.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Owner + thief handle over a locked `VecDeque`. Cloning produces another
/// handle to the same deque (any handle may push/pop/steal — the lock makes
/// every interleaving safe, which is exactly why it is a useful oracle).
pub struct MutexDeque<T> {
    inner: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for MutexDeque<T> {
    fn clone(&self) -> Self {
        MutexDeque { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Default for MutexDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MutexDeque<T> {
    /// Creates an empty deque.
    pub fn new() -> Self {
        MutexDeque { inner: Arc::new(Mutex::new(VecDeque::new())) }
    }

    /// Owner push at the bottom (back).
    pub fn push(&self, value: T) {
        self.inner.lock().unwrap().push_back(value);
    }

    /// Owner pop at the bottom (back): LIFO.
    pub fn pop(&self) -> Option<T> {
        self.inner.lock().unwrap().pop_back()
    }

    /// Thief steal at the top (front): FIFO.
    pub fn steal(&self) -> Option<T> {
        self.inner.lock().unwrap().pop_front()
    }

    /// Thief batch-steal at the top: moves up to `limit` tasks — never
    /// more than half of the queue, rounded up, hard-capped at
    /// [`MAX_STEAL_BATCH`](crate::MAX_STEAL_BATCH) — into `dest`, oldest
    /// first, returning how many moved. Same quota rule as
    /// [`Stealer::steal_batch`](crate::Stealer::steal_batch), so the two
    /// implementations stay differentially testable.
    pub fn steal_batch(&self, dest: &MutexDeque<T>, limit: usize) -> usize {
        assert!(
            !Arc::ptr_eq(&self.inner, &dest.inner),
            "batch-stealing into the victim's own deque"
        );
        let mut q = self.inner.lock().unwrap();
        let quota = crate::chase_lev::batch_quota(q.len(), limit);
        let mut dst = dest.inner.lock().unwrap();
        for _ in 0..quota {
            match q.pop_front() {
                Some(v) => dst.push_back(v),
                None => unreachable!("quota exceeds queue length under the lock"),
            }
        }
        quota
    }

    /// As [`MutexDeque::steal_batch`], returning the first (oldest) task
    /// and parking the rest of the batch in `dest`.
    pub fn steal_batch_and_pop(&self, dest: &MutexDeque<T>, limit: usize) -> Option<T> {
        assert!(
            !Arc::ptr_eq(&self.inner, &dest.inner),
            "batch-stealing into the victim's own deque"
        );
        let mut q = self.inner.lock().unwrap();
        let quota = crate::chase_lev::batch_quota(q.len(), limit);
        if quota == 0 {
            return None;
        }
        let first = q.pop_front();
        let mut dst = dest.inner.lock().unwrap();
        for _ in 1..quota {
            match q.pop_front() {
                Some(v) => dst.push_back(v),
                None => unreachable!("quota exceeds queue length under the lock"),
            }
        }
        first
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let d = MutexDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Some(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert!(d.is_empty());
    }

    #[test]
    fn batch_ops_follow_the_shared_quota_rule() {
        let d = MutexDeque::new();
        let thief = MutexDeque::new();
        for i in 0..10 {
            d.push(i);
        }
        assert_eq!(d.steal_batch(&thief, 100), 5, "ceil-half of 10");
        assert_eq!(thief.steal(), Some(0), "oldest first");
        assert_eq!(d.steal_batch_and_pop(&thief, 2), Some(5));
        assert_eq!(thief.len(), 5, "one more task parked");
        assert_eq!(d.len(), 3);
        let empty = MutexDeque::<i32>::new();
        assert_eq!(empty.steal_batch(&thief, 4), 0);
        assert_eq!(empty.steal_batch_and_pop(&thief, 4), None);
    }

    #[test]
    fn clones_share_state() {
        let d = MutexDeque::new();
        let d2 = d.clone();
        d.push(9);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2.steal(), Some(9));
        assert!(d.is_empty());
    }
}

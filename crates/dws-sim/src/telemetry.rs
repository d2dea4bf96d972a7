//! Telemetry frames for simulated runs.
//!
//! The simulator samples the same [`TelemetryFrame`] schema the real
//! runtime's sampler thread emits — the one definition in
//! [`dws_core::frame`], re-exported here — so `dws-top`, the JSONL sink
//! and any downstream tooling consume simulated and real co-runs
//! interchangeably.
//!
//! Differences of substance, not of schema (DESIGN §9 tabulates the
//! fields a simulated run leaves at zero):
//!
//! * `t_us` is the simulated clock, not wall time;
//! * the sub-µs latency percentiles are zeros — the simulator's
//!   µs-resolution event model has no nanosecond steal/sleep/wake
//!   histograms;
//! * `events_dropped` is the *global* sim trace drop count (one shared
//!   trace for all programs), repeated in every program's frame.

use std::collections::VecDeque;

pub use dws_core::frame::{
    frames_to_jsonl, CoordSample, CoreOwner, CoreSample, CounterSample, LatencySample,
    TelemetryFrame, WorkerSample,
};

/// Per-program sampling state: the bounded frame ring plus the last
/// coordinator decision (the sim analogue of `dws_rt`'s `DecisionCell` —
/// no seqlock needed, the simulator is single-threaded).
#[derive(Debug)]
pub(crate) struct ProgTelemetry {
    frames: VecDeque<TelemetryFrame>,
    seq: u64,
    evicted: u64,
    /// Last §3.3 evaluation for this program (`decisions` field unused
    /// here; the running count lives in [`ProgTelemetry::decisions`]).
    pub(crate) last_coord: CoordSample,
    /// Coordinator evaluations captured so far.
    pub(crate) decisions: u64,
    /// Demand-latency samples already folded into earlier frames, so each
    /// frame's percentiles cover only its own sampling window (the sim
    /// analogue of the rt side's rolling histogram diff).
    pub(crate) alloc_seen: usize,
    /// Same, for demand-release samples.
    pub(crate) release_seen: usize,
}

impl ProgTelemetry {
    fn new() -> Self {
        ProgTelemetry {
            frames: VecDeque::new(),
            seq: 0,
            evicted: 0,
            last_coord: CoordSample::default(),
            decisions: 0,
            alloc_seen: 0,
            release_seen: 0,
        }
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Sampler state for the whole machine: one ring per program plus the
/// sampling schedule.
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    pub(crate) period_us: u64,
    pub(crate) next_sample_us: u64,
    capacity: usize,
    pub(crate) progs: Vec<ProgTelemetry>,
}

impl SimTelemetry {
    pub(crate) fn new(programs: usize, period_us: u64, capacity: usize, now_us: u64) -> Self {
        assert!(period_us > 0, "telemetry period must be nonzero");
        assert!(capacity > 0, "telemetry capacity must be nonzero");
        SimTelemetry {
            period_us,
            next_sample_us: now_us + period_us,
            capacity,
            progs: (0..programs).map(|_| ProgTelemetry::new()).collect(),
        }
    }

    /// Pushes a frame into `prog`'s ring, assigning its sequence number
    /// and evicting the oldest frame when full (mirroring the rt ring's
    /// evict-oldest policy).
    pub(crate) fn push(&mut self, prog: usize, mut frame: TelemetryFrame) {
        let capacity = self.capacity;
        let pt = &mut self.progs[prog];
        frame.seq = pt.seq;
        pt.seq += 1;
        if pt.frames.len() == capacity {
            pt.frames.pop_front();
            pt.evicted += 1;
        }
        pt.frames.push_back(frame);
    }

    pub(crate) fn frames(&self, prog: usize) -> Vec<TelemetryFrame> {
        self.progs[prog].frames.iter().cloned().collect()
    }

    pub(crate) fn latest(&self, prog: usize) -> Option<TelemetryFrame> {
        self.progs[prog].frames.back().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t_us: u64) -> TelemetryFrame {
        TelemetryFrame {
            t_us,
            prog: 0,
            seq: 0,
            cores: vec![CoreSample { core: 0, home: 0, owner: -1 }],
            workers: vec![WorkerSample { worker: 0, asleep: false, queue: 2 }],
            coord: CoordSample::default(),
            counters: CounterSample::default(),
            latency: LatencySample::default(),
        }
    }

    #[test]
    fn ring_assigns_monotone_seq_and_evicts_oldest() {
        let mut tel = SimTelemetry::new(1, 10, 2, 0);
        for t in 0..5 {
            tel.push(0, frame(t));
        }
        let frames = tel.frames(0);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 3);
        assert_eq!(frames[1].seq, 4);
        assert_eq!(tel.progs[0].evicted(), 3);
        assert_eq!(tel.latest(0).unwrap().t_us, 4);
    }
}

//! Load schedules. Arrival instants, demands and phase due times are a
//! pure function of the seed and are generated before the measured window;
//! the program under test receives only the generated inputs. Pacing is one
//! thread that sleeps to within [`SPIN_NS`] of each due time, then spins.

use std::time::Duration;

use dws_sim::{ArrivalProcess, ArrivalSampler, BoundedPareto, XorShift64Star};

use crate::host::now_ns;

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, µs after the schedule's start.
    pub due_us: u64,
    /// Service demand the handler burns, µs.
    pub demand_us: u64,
}

/// Demands of every serving workload: bounded Pareto, mean ≈118 µs.
fn demand_model() -> BoundedPareto {
    BoundedPareto::new(50.0, 1000.0, 1.5)
}

/// All arrivals of `process` that fall within `duration_s`.
pub fn arrivals(process: ArrivalProcess, seed: u64, duration_s: f64) -> Vec<Arrival> {
    let mut sampler = ArrivalSampler::new(process, seed);
    // A second stream, so demands do not correlate with gaps.
    let mut demand_rng = XorShift64Star::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let demand = demand_model();
    let end_us = (duration_s * 1e6) as u64;
    let mut out = Vec::new();
    loop {
        let due_us = sampler.next_arrival_us();
        if due_us >= end_us {
            return out;
        }
        out.push(Arrival { due_us, demand_us: demand.sample_us(&mut demand_rng) });
    }
}

/// Due times (µs) of `phases` phases for each of `programs` programs:
/// program `i` starts phase `k` at `k·period + i·period/programs`, moved by
/// a seeded delay of 0 to `2·jitter_us` so that the seed matters.
pub fn phase_due_times(
    seed: u64,
    programs: usize,
    phases: usize,
    period_us: u64,
    jitter_us: u64,
) -> Vec<Vec<u64>> {
    let mut rng = XorShift64Star::new(seed ^ 0xD6E8_FEB8_6659_FD93);
    (0..programs)
        .map(|i| {
            (0..phases)
                .map(|k| {
                    let nominal = k as u64 * period_us + i as u64 * period_us / programs as u64;
                    nominal + rng.next_below(2 * jitter_us as usize + 1) as u64
                })
                .collect()
        })
        .collect()
}

/// The schedule as bytes: what "same seed, same inputs" is tested on.
#[cfg(test)]
pub fn arrival_bytes(schedule: &[Arrival]) -> Vec<u8> {
    schedule
        .iter()
        .flat_map(|a| [a.due_us.to_le_bytes(), a.demand_us.to_le_bytes()])
        .flatten()
        .collect()
}

/// Distance from a due time at which the pacing thread stops sleeping and
/// spins.
const SPIN_NS: u64 = 100_000;

/// Blocks until `due_ns` on the [`now_ns`] clock.
pub fn pace_until(due_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let remaining = due_ns - now;
        if remaining > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_bytes() {
        let make = |seed| arrivals(ArrivalProcess::bursty(3000.0, 4.0), seed, 2.0);
        assert_eq!(arrival_bytes(&make(7)), arrival_bytes(&make(7)));
        assert_ne!(arrival_bytes(&make(7)), arrival_bytes(&make(8)));
        let poisson = |seed| arrivals(ArrivalProcess::Poisson { rate_per_sec: 3400.0 }, seed, 2.0);
        assert_eq!(arrival_bytes(&poisson(7)), arrival_bytes(&poisson(7)));
        assert_ne!(arrival_bytes(&poisson(7)), arrival_bytes(&poisson(8)));
        assert_eq!(
            phase_due_times(7, 2, 50, 60_000, 5_000),
            phase_due_times(7, 2, 50, 60_000, 5_000)
        );
        assert_ne!(
            phase_due_times(7, 2, 50, 60_000, 5_000),
            phase_due_times(8, 2, 50, 60_000, 5_000)
        );
    }

    #[test]
    fn schedules_have_the_shape_asked_for() {
        let s = arrivals(ArrivalProcess::Poisson { rate_per_sec: 3400.0 }, 1, 4.0);
        assert!((12_000..15_200).contains(&s.len()), "≈13.6k arrivals, got {}", s.len());
        assert!(s.windows(2).all(|w| w[0].due_us <= w[1].due_us), "due times ascend");
        assert!(s.iter().all(|a| (50..=1000).contains(&a.demand_us)));
        let mean = s.iter().map(|a| a.demand_us as f64).sum::<f64>() / s.len() as f64;
        assert!((100.0..140.0).contains(&mean), "mean demand ≈118 µs, got {mean}");
        for (i, due) in phase_due_times(3, 2, 10, 60_000, 5_000).iter().enumerate() {
            for (k, &d) in due.iter().enumerate() {
                let nominal = k as u64 * 60_000 + i as u64 * 30_000 + 5_000;
                assert!(d.abs_diff(nominal) <= 5_000, "phase {k} of program {i} at {d}");
            }
        }
    }
}

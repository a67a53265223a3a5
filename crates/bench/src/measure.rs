//! Host-time measurement helpers for the CPU-bound experiments.

use std::time::Instant;

/// Measures the average wall-clock milliseconds of `f` over `reps`
/// repetitions after `warmup` unmeasured runs.
pub fn avg_ms<F: FnMut()>(warmup: usize, reps: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_ms_counts_reps() {
        let mut calls = 0;
        let _ = avg_ms(2, 5, || calls += 1);
        assert_eq!(calls, 7);
    }
}

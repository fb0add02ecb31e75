//! The skew-detector (SD) cell — behavioural model of the paper's
//! delay-generator comparator (§2.2, Fig 2).
//!
//! The silicon cell delays the test clock by the designer-chosen
//! *skew-immune range* (derived from the interconnect's delay budget)
//! and compares the delayed clock against the received line: if the line
//! has not settled to its final value when the delayed clock samples it,
//! the NOR comparator emits a pulse that sets the SD flip-flop.
//!
//! The behavioural model does exactly that on solver waveforms: sample
//! the line `window` seconds after the driving edge launches; a
//! violation is recorded when the sample deviates from the expected
//! final level by more than `settle_tolerance`.

use sint_interconnect::drive::DriveLevel;

/// Timing parameters for a skew detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdWindow {
    /// The skew-immune range: allowed time from edge launch to settled
    /// arrival (s). Fig 2's delay-generator value.
    pub window: f64,
    /// How close (V) to the final rail the line must be at the sample
    /// instant to count as settled.
    pub settle_tolerance: f64,
}

impl SdWindow {
    /// A window of `window` seconds with a `0.3·Vdd` settle tolerance.
    #[must_use]
    pub fn for_vdd(window: f64, vdd: f64) -> SdWindow {
        SdWindow { window, settle_tolerance: 0.3 * vdd }
    }

    /// Whether a transition launched at `t_launch` (s from waveform
    /// start) toward `final_level` is still unsettled when this window
    /// samples it — independent of any detector's CE or flip-flop
    /// state. An empty waveform never violates.
    #[must_use]
    pub fn violated_by(
        &self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        final_level: DriveLevel,
        t_launch: f64,
    ) -> bool {
        if wave.is_empty() {
            return false;
        }
        let t_sample = t_launch + self.window;
        let k = ((t_sample / dt).round() as usize).min(wave.len() - 1);
        (wave[k] - final_level.voltage(vdd)).abs() > self.settle_tolerance
    }
}

/// A sticky skew detector with its output flip-flop.
///
/// ```
/// use sint_core::sd::{SdWindow, SkewDetector};
/// use sint_interconnect::drive::DriveLevel;
/// let mut sd = SkewDetector::new(SdWindow::for_vdd(400e-12, 1.8));
/// sd.set_enabled(true);
/// // A rising line still at 0.2 V when sampled 400 ps after launch.
/// let wave = vec![0.2_f64; 1000];
/// sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0);
/// assert!(sd.violation());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SkewDetector {
    window: SdWindow,
    enabled: bool,
    latched: bool,
}

impl SkewDetector {
    /// A disabled, cleared detector.
    #[must_use]
    pub fn new(window: SdWindow) -> Self {
        SkewDetector { window, enabled: false, latched: false }
    }

    /// The configured window.
    #[must_use]
    pub fn window(&self) -> &SdWindow {
        &self.window
    }

    /// Sets the CE signal; a disabled detector ignores input but holds
    /// its flip-flop.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether CE is asserted.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sticky violation flip-flop.
    #[must_use]
    pub fn violation(&self) -> bool {
        self.latched
    }

    /// Clears the flip-flop.
    pub fn clear(&mut self) {
        self.latched = false;
    }

    /// Observes one transition: the line should settle to `final_level`
    /// within the window after `t_launch` (s from waveform start).
    ///
    /// Returns whether this observation raised a violation. Lines that
    /// do not transition are not sampled (the hardware only pulses when
    /// the delayed clock disagrees with a *changing* line).
    pub fn observe(
        &mut self,
        wave: &[f64],
        dt: f64,
        vdd: f64,
        final_level: DriveLevel,
        t_launch: f64,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        self.record(self.window.violated_by(wave, dt, vdd, final_level, t_launch))
    }

    /// Feeds a precomputed verdict — [`SdWindow::violated_by`] of the
    /// transition — through the CE gate into the sticky flip-flop.
    /// Equivalent to [`SkewDetector::observe`] on that waveform,
    /// because the latch is a pure OR gated by CE.
    pub fn record(&mut self, violated: bool) -> bool {
        let hit = self.enabled && violated;
        self.latched |= hit;
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(window: f64) -> SkewDetector {
        let mut sd = SkewDetector::new(SdWindow::for_vdd(window, 1.8));
        sd.set_enabled(true);
        sd
    }

    fn edge(t_50: f64, rise: f64, n: usize, dt: f64) -> Vec<f64> {
        // Linear edge centred at t_50, full swing over `rise`.
        (0..n)
            .map(|k| {
                let t = k as f64 * dt;
                (1.8 * ((t - t_50) / rise + 0.5)).clamp(0.0, 1.8)
            })
            .collect()
    }

    #[test]
    fn timely_edge_passes() {
        let mut sd = det(400e-12);
        // Edge settles by ~250 ps; window samples at 400 ps.
        let wave = edge(200e-12, 100e-12, 1000, 1e-12);
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(!sd.violation());
    }

    #[test]
    fn late_edge_latches() {
        let mut sd = det(400e-12);
        // Edge centred at 700 ps: at the 400 ps sample the line is low.
        let wave = edge(700e-12, 100e-12, 1500, 1e-12);
        assert!(sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(sd.violation());
    }

    #[test]
    fn falling_edge_checked_against_ground() {
        let mut sd = det(400e-12);
        // A falling line stuck half-way at sample time.
        let wave = vec![0.9; 1000];
        assert!(sd.observe(&wave, 1e-12, 1.8, DriveLevel::Low, 0.0));
        // A settled-low line passes.
        let mut sd = det(400e-12);
        let wave = vec![0.05; 1000];
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::Low, 0.0));
    }

    #[test]
    fn launch_offset_shifts_the_sample() {
        let mut sd = det(300e-12);
        // Edge at 500 ps; launch at 300 ps → sample at 600 ps: settled.
        let wave = edge(500e-12, 100e-12, 1500, 1e-12);
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 300e-12));
        // Same edge referenced to launch 0 → sample at 300 ps: late.
        let mut sd = det(300e-12);
        assert!(sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
    }

    #[test]
    fn sticky_across_observations_and_ce() {
        let mut sd = det(400e-12);
        sd.observe(&vec![0.9; 1000], 1e-12, 1.8, DriveLevel::High, 0.0);
        assert!(sd.violation());
        // Later clean edges do not clear the flip-flop.
        sd.observe(&edge(100e-12, 50e-12, 1000, 1e-12), 1e-12, 1.8, DriveLevel::High, 0.0);
        assert!(sd.violation());
        sd.set_enabled(false);
        assert!(!sd.observe(&vec![0.9; 1000], 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(sd.violation(), "CE=0 holds the flip-flop");
        sd.clear();
        assert!(!sd.violation());
    }

    #[test]
    fn sample_clamped_to_waveform_end() {
        let mut sd = det(10e-9); // window beyond the trace
        let wave = edge(200e-12, 100e-12, 500, 1e-12);
        // Clamps to last sample (settled high) → no violation.
        assert!(!sd.observe(&wave, 1e-12, 1.8, DriveLevel::High, 0.0));
        assert!(!sd.observe(&[], 1e-12, 1.8, DriveLevel::High, 0.0));
    }
}

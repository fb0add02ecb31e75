//! The noise-detector (ND) cell — behavioural model of the paper's
//! cross-coupled PMOS sense amplifier (§2.1, Fig 1).
//!
//! The silicon cell sits at the receiving end of an interconnect and
//! latches a `1` when the incoming signal suffers integrity loss: its
//! voltage enters the *vulnerable region* — the band between the highest
//! voltage still read as a clean logic 0 (`v_low_max`) and the lowest
//! voltage still read as a clean logic 1 (`v_high_min`) — without being
//! a legitimate level change, or shoots beyond the rails. The output
//! "remains unchanged until" read out, i.e. the violation is sticky.
//!
//! Behavioural substitution (documented in DESIGN.md): within one
//! pattern window (one Update-DR), a healthy signal crosses the
//! vulnerable band **at most once and all the way through**. The model
//! therefore latches when
//!
//! 1. the signal enters the band and returns out the **same side**
//!    (the signature of a glitch on a quiescent wire), or
//! 2. the signal traverses the band **more than once** (a full-swing
//!    glitch that momentarily looks like two transitions), or
//! 3. any sample exceeds the rails by more than the overshoot margin
//!    (the P̄g / N̄g overshoot faults).
//!
//! A slow-but-monotone edge passes the ND — added delay is the SD
//! cell's job — which reproduces the paper's clean noise/skew split.


/// Voltage thresholds for a noise detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NdThresholds {
    /// Highest voltage still accepted as logic 0 (V).
    pub v_low_max: f64,
    /// Lowest voltage still accepted as logic 1 (V).
    pub v_high_min: f64,
    /// Overshoot margin beyond the rails before a violation (V).
    pub overshoot_margin: f64,
}

impl NdThresholds {
    /// Conventional static-CMOS input thresholds for a supply `vdd`:
    /// `V_IL = 0.3·Vdd`, `V_IH = 0.7·Vdd`, overshoot margin `0.3·Vdd`
    /// (matching the noise margin: an excursion beyond the rail only
    /// endangers the *other* rail's receivers once it exceeds the same
    /// band).
    #[must_use]
    pub fn for_vdd(vdd: f64) -> NdThresholds {
        NdThresholds {
            v_low_max: 0.3 * vdd,
            v_high_min: 0.7 * vdd,
            overshoot_margin: 0.3 * vdd,
        }
    }

    /// Whether a voltage sits strictly inside the vulnerable band.
    #[must_use]
    pub fn in_vulnerable_band(&self, v: f64) -> bool {
        v > self.v_low_max && v < self.v_high_min
    }

    fn side_of(&self, v: f64) -> Option<Side> {
        if v <= self.v_low_max {
            Some(Side::Below)
        } else if v >= self.v_high_min {
            Some(Side::Above)
        } else {
            None
        }
    }

    /// Whether one pattern window's received waveform (supply `vdd`)
    /// violates these thresholds — the latching conditions of the
    /// module documentation, independent of any detector's CE or
    /// flip-flop state. An empty waveform never violates.
    #[must_use]
    pub fn violated_by(&self, wave: &[f64], vdd: f64) -> bool {
        let Some(&first) = wave.first() else {
            return false;
        };
        let mut outside = self.side_of(first);
        let mut entered_from: Option<Side> = None;
        let mut traversals = 0u32;
        for &v in wave {
            if v > vdd + self.overshoot_margin || v < -self.overshoot_margin {
                return true;
            }
            match self.side_of(v) {
                None => {
                    if entered_from.is_none() {
                        entered_from = outside;
                    }
                }
                Some(s) => {
                    if let Some(e) = entered_from.take() {
                        if e == s {
                            // Same-side return: a glitch.
                            return true;
                        }
                        traversals += 1;
                    } else if outside.is_some() && outside != Some(s) {
                        // Jumped straight across between two samples.
                        traversals += 1;
                    }
                    if traversals >= 2 {
                        return true;
                    }
                    outside = Some(s);
                }
            }
        }
        false
    }
}

/// Which side of the vulnerable band a sample sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Below,
    Above,
}

/// A sticky noise detector with its output flip-flop.
///
/// ```
/// use sint_core::nd::{NdThresholds, NoiseDetector};
/// let mut nd = NoiseDetector::new(NdThresholds::for_vdd(1.8));
/// nd.set_enabled(true);
/// // A 0.9 V bump on a held-low wire enters the band and comes back
/// // out the bottom: a glitch.
/// let wave: Vec<f64> = (0..400).map(|k| if (100..300).contains(&k) { 0.9 } else { 0.0 }).collect();
/// nd.observe(&wave, 1e-12, 1.8);
/// assert!(nd.violation());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseDetector {
    thresholds: NdThresholds,
    /// Cell enable (the CE signal of Fig 1).
    enabled: bool,
    /// The sticky output flip-flop.
    latched: bool,
}

impl NoiseDetector {
    /// A disabled, cleared detector.
    #[must_use]
    pub fn new(thresholds: NdThresholds) -> Self {
        NoiseDetector { thresholds, enabled: false, latched: false }
    }

    /// The configured thresholds.
    #[must_use]
    pub fn thresholds(&self) -> &NdThresholds {
        &self.thresholds
    }

    /// Sets the CE signal. While disabled the detector ignores input but
    /// *holds* its latched state (paper: "If CE = 0 the cells are
    /// disabled but the captured data … remain unchanged").
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

    /// Clears the violation flip-flop (new test session).
    pub fn clear(&mut self) {
        self.latched = false;
    }

    /// Feeds one pattern window's received waveform (`dt` seconds per
    /// sample, supply `vdd`) through the detector; see the module
    /// documentation for the latching conditions.
    ///
    /// Returns whether *this* observation produced a violation (the
    /// sticky flip-flop may already have been set earlier).
    pub fn observe(&mut self, wave: &[f64], _dt: f64, vdd: f64) -> bool {
        if !self.enabled {
            return false;
        }
        self.record(self.thresholds.violated_by(wave, vdd))
    }

    /// Feeds a precomputed verdict — [`NdThresholds::violated_by`] of
    /// the window's waveform — through the CE gate into the sticky
    /// flip-flop. Equivalent to [`NoiseDetector::observe`] on that
    /// waveform, because the latch is a pure OR gated by CE.
    pub fn record(&mut self, violated: bool) -> bool {
        let hit = self.enabled && violated;
        self.latched |= hit;
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> NoiseDetector {
        let mut nd = NoiseDetector::new(NdThresholds::for_vdd(1.8));
        nd.set_enabled(true);
        nd
    }

    fn bump(amplitude: f64, width_samples: usize, total: usize) -> Vec<f64> {
        // Triangle bump centred in the window, from and back to 0 V.
        (0..total)
            .map(|k| {
                let d = (k as i64 - total as i64 / 2).unsigned_abs() as usize;
                if d < width_samples / 2 {
                    amplitude * (1.0 - d as f64 / (width_samples as f64 / 2.0))
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn edge(v0: f64, v1: f64, n: usize) -> Vec<f64> {
        (0..n).map(|k| v0 + (v1 - v0) * k as f64 / (n - 1) as f64).collect()
    }

    #[test]
    fn thresholds_for_vdd() {
        let t = NdThresholds::for_vdd(1.8);
        assert!((t.v_low_max - 0.54).abs() < 1e-12);
        assert!((t.v_high_min - 1.26).abs() < 1e-12);
        assert!(t.in_vulnerable_band(0.9));
        assert!(!t.in_vulnerable_band(0.3));
        assert!(!t.in_vulnerable_band(1.5));
    }

    #[test]
    fn in_band_glitch_latches() {
        let mut nd = det();
        assert!(nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8));
        assert!(nd.violation());
    }

    #[test]
    fn full_swing_glitch_latches_as_double_traversal() {
        let mut nd = det();
        // Bump all the way past the band (1.6 V) and back: two
        // traversals within one pattern window.
        assert!(nd.observe(&bump(1.6, 200, 600), 1e-12, 1.8));
    }

    #[test]
    fn negative_glitch_on_high_wire_latches() {
        let mut nd = det();
        // Mirrored: held-high wire dips to 0.9 V and recovers.
        let wave: Vec<f64> = bump(0.9, 200, 600).iter().map(|v| 1.8 - v).collect();
        assert!(nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn small_glitch_below_band_ignored() {
        let mut nd = det();
        assert!(!nd.observe(&bump(0.5, 400, 600), 1e-12, 1.8));
        assert!(!nd.violation());
    }

    #[test]
    fn healthy_edge_passes() {
        let mut nd = det();
        assert!(!nd.observe(&edge(0.0, 1.8, 500), 1e-12, 1.8));
        assert!(!nd.observe(&edge(1.8, 0.0, 500), 1e-12, 1.8));
        assert!(!nd.violation());
    }

    #[test]
    fn slow_monotone_edge_still_passes() {
        // Added delay is the SD cell's job; ND must stay quiet.
        let mut nd = det();
        let mut wave = edge(0.0, 1.8, 5000);
        wave.extend(std::iter::repeat_n(1.8, 500));
        assert!(!nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn edge_followed_by_glitch_latches() {
        let mut nd = det();
        // Legit rise, then a dip back into the band and out the top:
        // same-side return on the high side.
        let mut wave = edge(0.0, 1.8, 300);
        wave.extend(bump(0.9, 200, 600).iter().map(|v| 1.8 - v));
        assert!(nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn overshoot_detected_immediately() {
        let mut nd = det();
        let mut wave = vec![1.8; 100];
        wave[50] = 2.5; // 0.7 V above rail > 0.54 margin.
        assert!(nd.observe(&wave, 1e-12, 1.8));
        let mut nd = det();
        let mut wave = vec![0.0; 100];
        wave[50] = -0.7;
        assert!(nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn mild_overshoot_within_margin_ignored() {
        let mut nd = det();
        let mut wave = vec![1.8; 100];
        wave[50] = 2.0; // 0.2 V above rail < 0.54 margin.
        assert!(!nd.observe(&wave, 1e-12, 1.8));
    }

    #[test]
    fn disabled_detector_ignores_but_holds() {
        let mut nd = det();
        nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8);
        assert!(nd.violation());
        nd.set_enabled(false);
        assert!(!nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8));
        assert!(nd.violation(), "CE=0 holds the captured data");
        nd.clear();
        assert!(!nd.violation());
        assert!(!nd.is_enabled());
    }

    #[test]
    fn two_windows_accumulate_stickily() {
        let mut nd = det();
        assert!(!nd.observe(&edge(0.0, 1.8, 500), 1e-12, 1.8), "clean window");
        assert!(nd.observe(&bump(0.9, 200, 600), 1e-12, 1.8), "glitchy window");
        assert!(!nd.observe(&edge(1.8, 0.0, 500), 1e-12, 1.8), "clean again");
        assert!(nd.violation(), "flip-flop stays set");
    }

    #[test]
    fn empty_wave_is_a_no_op() {
        let mut nd = det();
        assert!(!nd.observe(&[], 1e-12, 1.8));
    }
}

//! Response basis: every vector pair on a bus as a sum of per-wire
//! responses.
//!
//! The bus model is linear and time-invariant: coupled RC(L) MNA under
//! backward Euler, defects that only rescale elements, and the same
//! edge (switch time and rise time) on every driver. A vector pair's
//! source on wire `j` is `b_j + (a_j − b_j)·r(t)`, with `b_j`/`a_j` the
//! before/after voltages and `r` the unit edge. The transient starts at
//! the DC operating point of the `b` sources, which a backward-Euler
//! step with unchanged sources maps to itself, so the receiver voltage
//! of wire `w` at step `k` is exactly
//!
//! ```text
//! v_w(k) = Σ_j (a_j − b_j)·D_j[w](k) + Σ_j b_j·S_j[w]
//! ```
//!
//! where `D_j` is the response to wire `j`'s source alone ramping
//! 0 → 1 V from rest and `S_j` the DC response to wire `j`'s source
//! alone at 1 V. A [`ResponseBasis`] holds those `n` ramp responses (one
//! lane-kernel run) and `n` DC solves, and [`ResponseBasis::superpose_into`]
//! evaluates any pair from them without a transient.
//!
//! In a maximum-aggressor pattern every aggressor shares one
//! transition, so with `ΣD = Σ_j D_j` and `T = Σ_j S_j` the victim
//! `v`'s pattern collapses to
//!
//! ```text
//! v_w(k) = Δv·D_v[w](k) + Δa·(ΣD[w](k) − D_v[w](k)) + bv·S_v[w] + ba·(T[w] − S_v[w])
//! ```
//!
//! — O(samples) per wire. Other pairs (a quarantined wire parked while
//! the rest move, the transition out of a half's preload) take the
//! general O(n·samples)-per-wire sum.
//!
//! The superposed waveforms agree with [`TransientSim::run_pair`] to
//! rounding (≤ 1e-12 V; the property suite pins it), not bitwise.

use crate::drive::VectorPair;
use crate::error::InterconnectError;
use crate::solver::TransientSim;
use sint_runtime::cancel::CancelToken;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A unit response beyond this magnitude (V per V of drive) is a
/// blow-up in progress, not a bus: the basis refuses it as divergence
/// so the direct solver reports the failure with its own semantics.
const UNSTABLE: f64 = 1e100;

/// Whether a unit response is non-finite or past [`UNSTABLE`].
fn unstable(v: &f64) -> bool {
    v.is_nan() || v.abs() > UNSTABLE
}

/// Receiver-end unit responses of one bus at one `(dt, window)`, from
/// which every vector pair's receiver waveforms are superposed.
///
/// Memory layout, all receiver-only: `ramp` is sample-major — element
/// `j·n + w` of step `k`'s block is wire `w`'s receiver voltage at step
/// `k` when wire `j`'s source ramps alone — so the lane kernel writes
/// each step's block in place as it goes, and a superposition reads
/// one contiguous `n`-run per step and source. Steps before `first`
/// precede the edge: every ramp response is exactly zero there and is
/// not stored. `ramp_sum[(k − first)·n + w]` sums step `k`'s block over
/// `j`; `dc[j·n + w]` and `dc_sum[w]` are the DC analogues.
#[derive(Debug, Clone)]
pub struct ResponseBasis {
    wires: usize,
    steps: usize,
    /// First step whose source voltage has left zero.
    first: usize,
    dt: f64,
    switch_at: f64,
    vdd: f64,
    ramp: StepBlocks,
    ramp_sum: Vec<f64>,
    dc: Vec<f64>,
    dc_sum: Vec<f64>,
}

impl ResponseBasis {
    /// Builds the basis of `sim` over a `duration`-second window (the
    /// same sample grid [`TransientSim::run_pair`] uses): the `n` DC
    /// solves and the `n` ramp responses, polling `cancel` (and spending
    /// its fuel) every [`crate::solver::CANCEL_CHECK_INTERVAL`] steps of
    /// the ramp runs. The ramp responses are allocated as the
    /// computation reaches them, so a build cut short (a wedge shed at
    /// its deadline) never holds the rest.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadTimeAxis`] for a non-positive duration;
    /// [`InterconnectError::Cancelled`] when the token fires;
    /// [`InterconnectError::Diverged`] when a response goes non-finite
    /// or grows past any physical bus (the caller should then run the
    /// pairs through the direct solver, which reports such failures
    /// with exact per-pattern semantics).
    pub fn build(
        sim: &TransientSim,
        duration: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<ResponseBasis, InterconnectError> {
        if duration <= 0.0 {
            return Err(InterconnectError::time("duration must be positive"));
        }
        let mut basis = ResponseBasis::sized(sim, duration);
        basis.compute(sim, cancel)?;
        Ok(basis)
    }

    /// Storage for `sim`'s basis over `duration` seconds, uncomputed.
    fn sized(sim: &TransientSim, duration: f64) -> ResponseBasis {
        let wires = sim.wires();
        let steps = sim.step_count(duration);
        let (dt, switch_at) = (sim.dt(), sim.switch_at());
        // The solver's own time axis: the edge leaves zero after `t_switch`.
        let first = (1..=steps).find(|&k| k as f64 * dt > switch_at).unwrap_or(steps + 1);
        ResponseBasis {
            wires,
            steps,
            first,
            dt,
            switch_at,
            vdd: sim.vdd(),
            ramp: StepBlocks::new(wires * wires, steps + 1 - first),
            ramp_sum: vec![0.0; (steps + 1 - first) * wires],
            dc: vec![0.0; wires * wires],
            dc_sum: vec![0.0; wires],
        }
    }

    /// Fills the storage [`ResponseBasis::sized`] made for `sim`.
    fn compute(&mut self, sim: &TransientSim, cancel: Option<&CancelToken>) -> Result<(), InterconnectError> {
        let (n, first) = (self.wires, self.first);
        let (ramp, dc) = (&mut self.ramp, &mut self.dc);
        sim.unit_dc_responses(|j, receivers| dc[j * n..(j + 1) * n].copy_from_slice(receivers))?;
        sim.unit_ramp_responses(self.steps, cancel, |k, j, receivers| {
            if k >= first {
                ramp.step_mut(k - first)[j * n..(j + 1) * n].copy_from_slice(receivers);
            }
        })?;
        if let Some(unknown) = self.dc.iter().position(unstable) {
            return Err(InterconnectError::Diverged { step: 0, unknown: unknown % n });
        }
        for (i, sum) in self.ramp_sum.chunks_exact_mut(n).enumerate() {
            let block = self.ramp.step(i);
            if let Some(at) = block.iter().position(unstable) {
                return Err(InterconnectError::Diverged { step: first + i, unknown: at % n });
            }
            sum_rows(block, sum);
        }
        sum_rows(&self.dc, &mut self.dc_sum);
        Ok(())
    }

    /// Number of wires.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Number of samples per waveform (steps + 1, the DC point first).
    #[must_use]
    pub fn samples(&self) -> usize {
        self.steps + 1
    }

    /// Sample interval (s).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// When the drivers launch their edge (s).
    #[must_use]
    pub fn switch_at(&self) -> f64 {
        self.switch_at
    }

    /// Superposes `pair`'s receiver-end waveforms into `out`, wire-major:
    /// `out[w·samples + k]` is wire `w` at step `k`, matching
    /// [`crate::solver::BusWaveforms::wire`] of the direct run to
    /// rounding. A maximum-aggressor pair (every wire but one sharing
    /// one transition) costs O(samples) per wire; any other pair
    /// O(n·samples) per wire.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::WireOutOfRange`] for a pair of the wrong
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `wires · samples` long.
    pub fn superpose_into(&self, pair: &VectorPair, out: &mut [f64]) -> Result<(), InterconnectError> {
        let n = self.wires;
        if pair.width() != n {
            return Err(InterconnectError::WireOutOfRange { wire: pair.width(), width: n });
        }
        let samples = self.samples();
        assert_eq!(out.len(), n * samples, "output sized for another basis");
        let before: Vec<f64> = (0..n).map(|j| pair.before(j).voltage(self.vdd)).collect();
        let delta: Vec<f64> = (0..n).map(|j| pair.after(j).voltage(self.vdd) - before[j]).collect();
        match ma_victim(pair) {
            Some(v) => {
                // Any wire but the victim carries the aggressor levels.
                let a = usize::from(v == 0);
                let (dv, da) = (delta[v], delta[a]);
                let dc_v = &self.dc[v * n..(v + 1) * n];
                let offset: Vec<f64> = (0..n)
                    .map(|w| before[v] * dc_v[w] + before[a] * (self.dc_sum[w] - dc_v[w]))
                    .collect();
                self.fill_before_edge(&offset, out);
                for k in self.first..samples {
                    let i = k - self.first;
                    let d_v = &self.ramp.step(i)[v * n..(v + 1) * n];
                    let sum = &self.ramp_sum[i * n..(i + 1) * n];
                    for w in 0..n {
                        out[w * samples + k] = dv * d_v[w] + da * (sum[w] - d_v[w]) + offset[w];
                    }
                }
            }
            None => {
                let offset: Vec<f64> = (0..n)
                    .map(|w| (0..n).map(|j| before[j] * self.dc[j * n + w]).sum())
                    .collect();
                let moving: Vec<usize> = (0..n).filter(|&j| delta[j] != 0.0).collect();
                self.fill_before_edge(&offset, out);
                for k in self.first..samples {
                    let block = self.ramp.step(k - self.first);
                    for w in 0..n {
                        let swing: f64 = moving.iter().map(|&j| delta[j] * block[j * n + w]).sum();
                        out[w * samples + k] = swing + offset[w];
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes the samples before the edge: every wire sits at its DC
    /// operating point `offset[w]`.
    fn fill_before_edge(&self, offset: &[f64], out: &mut [f64]) {
        let samples = self.samples();
        for (wave, &dc) in out.chunks_exact_mut(samples).zip(offset) {
            wave[..self.first].fill(dc);
        }
    }
}

/// Bytes per [`StepBlocks`] chunk (whole per-step blocks; a block
/// larger than this gets a chunk of its own).
const CHUNK_BYTES: usize = 32 << 10;

/// Most chunks kept for reuse (8 MiB, five 32-wire bases on the
/// benchmark grid): a basis cut short mid-window (a wedge shed at its
/// deadline) may release more, and the excess is freed.
const MAX_SPARE_CHUNKS: usize = 256;

/// Chunks released by dropped bases, handed to the next basis computed
/// in this process. Freeing and reallocating them per basis instead
/// leaves each allocator arena that ever held one keeping its own
/// resident copy, and which arenas a basis lands in varies from run to
/// run; recycled, a process holds one basis's worth of chunks per basis
/// alive at once.
static SPARE_CHUNKS: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

fn spare_chunks() -> MutexGuard<'static, Vec<Vec<f64>>> {
    // The list is valid between any two operations, so a poisoned lock
    // is still usable.
    SPARE_CHUNKS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Equal per-step blocks stored in chunks of whole blocks, each chunk
/// taken (recycled, or allocated zeroed) when a block in it is first
/// written.
#[derive(Debug, Clone)]
struct StepBlocks {
    block: usize,
    per_chunk: usize,
    chunks: Vec<Vec<f64>>,
}

impl StepBlocks {
    fn new(block: usize, steps: usize) -> StepBlocks {
        let per_chunk = (CHUNK_BYTES / (8 * block.max(1))).max(1);
        StepBlocks { block, per_chunk, chunks: Vec::with_capacity(steps.div_ceil(per_chunk)) }
    }

    /// Block `i`, taking its chunk (and any before it) on first use.
    /// A recycled chunk holds stale values until its blocks are written.
    fn step_mut(&mut self, i: usize) -> &mut [f64] {
        let (chunk, at) = (i / self.per_chunk, i % self.per_chunk * self.block);
        let len = self.per_chunk * self.block;
        while self.chunks.len() <= chunk {
            let reused = if len * 8 <= CHUNK_BYTES { spare_chunks().pop() } else { None };
            let mut chunk = reused.unwrap_or_else(|| vec![0.0; (CHUNK_BYTES / 8).max(len)]);
            chunk.resize(len, 0.0);
            self.chunks.push(chunk);
        }
        &mut self.chunks[chunk][at..at + self.block]
    }

    /// Block `i`.
    ///
    /// # Panics
    ///
    /// Panics if block `i` was never written.
    fn step(&self, i: usize) -> &[f64] {
        let (chunk, at) = (i / self.per_chunk, i % self.per_chunk * self.block);
        &self.chunks[chunk][at..at + self.block]
    }
}

impl Drop for StepBlocks {
    fn drop(&mut self) {
        let mut spare = spare_chunks();
        let room = MAX_SPARE_CHUNKS.saturating_sub(spare.len());
        spare.extend(self.chunks.drain(..).filter(|c| c.capacity() * 8 == CHUNK_BYTES).take(room));
    }
}

/// The victim of a maximum-aggressor pair — the one wire whose
/// transition may differ while every other wire shares one — or `None`
/// for any other pair. A pair with every wire alike has victim 0.
fn ma_victim(pair: &VectorPair) -> Option<usize> {
    let n = pair.width();
    let class = |w: usize| (pair.before(w), pair.after(w));
    let odd = (1..n).find(|&w| class(w) != class(0));
    match odd {
        None => Some(0),
        Some(i) if (i + 1..n).all(|w| class(w) == class(0)) => Some(i),
        // Wire 0 is the odd one out when wires 1.. all agree.
        Some(1) if (2..n).all(|w| class(w) == class(1)) => Some(0),
        Some(_) => None,
    }
}

/// `sum[w] = Σ_j block[j·n + w]` for an `n × n` row-major block.
fn sum_rows(block: &[f64], sum: &mut [f64]) {
    sum.fill(0.0);
    for row in block.chunks_exact(sum.len()) {
        for (s, v) in sum.iter_mut().zip(row) {
            *s += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveLevel;
    use crate::params::BusParams;

    fn max_deviation(sim: &TransientSim, basis: &ResponseBasis, pair: &VectorPair) -> f64 {
        let samples = basis.samples();
        let mut out = vec![0.0; basis.wires() * samples];
        basis.superpose_into(pair, &mut out).unwrap();
        let direct = sim.run_pair(pair, 1e-9).unwrap();
        assert_eq!(direct.samples(), samples);
        (0..basis.wires())
            .flat_map(|w| {
                let wave = &out[w * samples..(w + 1) * samples];
                direct.wire(w).iter().zip(wave).map(|(a, b)| (a - b).abs()).collect::<Vec<_>>()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn victim_detection_follows_the_ma_shape() {
        let p = |a: &str, b: &str| VectorPair::from_strs(a, b).unwrap();
        assert_eq!(ma_victim(&p("00000", "11011")), Some(2));
        assert_eq!(ma_victim(&p("01111", "10000")), Some(0));
        assert_eq!(ma_victim(&p("0000", "1111")), Some(0));
        assert_eq!(ma_victim(&p("00", "10")), Some(1));
        assert_eq!(ma_victim(&p("0000", "1100")), None);
    }

    #[test]
    fn superposition_matches_direct_runs_rc_and_rlc() {
        for inductive in [false, true] {
            let mut params = BusParams::dsm_bus(11).segments(3);
            if inductive {
                params = params.l_per_mm(0.4e-9).lm_per_mm(0.1e-9).rise_time(60e-12);
            }
            let bus = params.build().unwrap();
            let sim = TransientSim::new(&bus, 5e-12).unwrap();
            let basis = ResponseBasis::build(&sim, 1e-9, None).unwrap();
            for (before, after) in [
                ("00000000000", "11111011111"),
                ("11111111111", "00000100000"),
                ("00000000000", "00000100000"),
                ("01100110010", "10101010111"),
            ] {
                let pair = VectorPair::from_strs(before, after).unwrap();
                let dev = max_deviation(&sim, &basis, &pair);
                assert!(dev <= 1e-12, "{pair} (rlc {inductive}): {dev:e} V");
            }
        }
    }

    #[test]
    fn rejects_pairs_of_the_wrong_width() {
        let bus = BusParams::dsm_bus(3).build().unwrap();
        let sim = TransientSim::new(&bus, 10e-12).unwrap();
        let basis = ResponseBasis::build(&sim, 0.5e-9, None).unwrap();
        let wide = VectorPair::new(vec![DriveLevel::Low; 4], vec![DriveLevel::High; 4]);
        let mut out = vec![0.0; 3 * basis.samples()];
        assert!(basis.superpose_into(&wide, &mut out).is_err());
    }

    #[test]
    fn cancellation_stops_the_build_at_the_first_poll() {
        let bus = BusParams::dsm_bus(4).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let token = CancelToken::with_fuel(0);
        let err = ResponseBasis::build(&sim, 1e-9, Some(&token)).unwrap_err();
        assert_eq!(err, InterconnectError::Cancelled { step: 32 });
    }
}

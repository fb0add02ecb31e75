//! Transient nodal simulation of a coupled bus.
//!
//! Discretisation: each wire contributes `segments` internal nodes. The
//! driver is a Thevenin source behind the driver resistance (plus
//! segment 0's series impedance) into node 0; consecutive nodes are
//! joined by the segment impedance; every node carries its share of
//! ground capacitance plus coupling capacitance to the same-position
//! node of each adjacent wire; the last node additionally carries the
//! receiver load.
//!
//! Integration: **backward Euler**, with the system matrix factored
//! once per (topology, timestep) and reused every step — the same trick
//! production fast-SPICE engines use for fixed-step sections. BE is
//! unconditionally stable, which matters because segment RC time
//! constants are ~10³ shorter than the simulated window.
//!
//! Two formulations are selected automatically:
//!
//! * **Pure RC** (`l_per_mm == 0`, the default): classic nodal analysis
//!   with only node voltages as unknowns —
//!   `(G + C/h)·v = (C/h)·v_prev + b(t)`.
//! * **RLC** (any series inductance): *augmented MNA* with one extra
//!   unknown per inductive branch current. Branch `a→b` with series
//!   `R`, `L` contributes the row `v_a − v_b − (R + L/h)·i = −(L/h)·i_prev`
//!   and `±i` to the two KCL rows. This is what lets the bus ring and
//!   overshoot — the physics behind the paper's P̄g/N̄g faults.
//!
//! # The banded fast path
//!
//! Coupling is strictly nearest-neighbour, so under a **segment-major**
//! unknown ordering (all of segment 0's nodes first, then segment 1's,
//! …; the RLC branch current interleaved right after its sink node) the
//! MNA matrix is banded with half-bandwidth `O(wires)` — independent of
//! the segment count, and far below the `O(wires·segments)` bandwidth
//! the dense wire-major layout exhibits once branch rows are appended.
//! The default engine therefore assembles [`crate::linalg::Banded`]
//! matrices: factorisation drops from O(N³) to O(N·b²) and each
//! timestep from O(N²) to O(N·b). Every step is also allocation-free —
//! history multiply, source stamp and in-place solve all reuse a
//! [`SimScratch`] that callers can thread through
//! [`TransientSim::run_with_scratch`] to amortise across a campaign.
//! The dense path survives behind the `dense-oracle` feature (a default
//! feature) as a runtime-selectable reference implementation; the
//! property suite pins the two engines together to ≤ 1e-9 V.

use crate::drive::{Stimulus, VectorPair};
use crate::error::InterconnectError;
use crate::linalg::{Banded, BandedLu, Panel, RankUpdatedLu};
#[cfg(feature = "dense-oracle")]
use crate::linalg::{LuFactors, Matrix};
use crate::params::Bus;
use sint_runtime::cancel::CancelToken;

/// How many timesteps run between cancellation-token deadline polls on
/// the cancellable entry points. The poll is one `Instant::now()`
/// comparison; at this stride its cost is far below 1% of the banded
/// solve work per interval, while a wedged run is still cut off within
/// a few microseconds of wall clock.
pub const CANCEL_CHECK_INTERVAL: usize = 32;

/// Default time the drivers launch their edge after simulation start.
pub const DEFAULT_SWITCH_AT: f64 = 0.2e-9;

/// Which linear-algebra engine a [`TransientSim`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Banded LU on a segment-major ordering: O(N·b²) factorisation,
    /// O(N·b) allocation-free timesteps. The production path.
    #[default]
    Banded,
    /// Dense LU on the wire-major ordering: the simple O(N³)/O(N²)
    /// reference used as a correctness oracle and perf baseline.
    #[cfg(feature = "dense-oracle")]
    Dense,
}

/// Reusable per-run scratch buffers: threading one through
/// [`TransientSim::run_with_scratch`] / [`TransientSim::run_pair_with_scratch`]
/// makes every timestep — and, across a campaign, every run —
/// allocation-free in the solver core.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    /// Current full state vector (node voltages, then/with branch currents).
    state: Vec<f64>,
    /// Right-hand side, overwritten in place by the solve each step.
    rhs: Vec<f64>,
    /// Rank-sized scratch for low-rank-updated solves (empty otherwise).
    aux: Vec<f64>,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    fn reset(&mut self, dim: usize) {
        self.state.clear();
        self.state.resize(dim, 0.0);
        self.rhs.clear();
        self.rhs.resize(dim, 0.0);
        self.aux.clear();
    }
}

/// Reusable scratch for the panel entry points
/// ([`TransientSim::run_panel_with_scratch`] and friends): threading one
/// through a campaign makes every batched timestep allocation-free once
/// the buffers have grown to the largest batch.
#[derive(Debug, Clone, Default)]
pub struct PanelScratch {
    /// Current full state, one column per pattern.
    state: Panel,
    /// Right-hand-side panel, solved in place each step.
    rhs: Panel,
    /// Rank-sized scratch for low-rank-updated solves.
    aux: Vec<f64>,
    /// Interleaved lane-block state for the direct-factor fast path
    /// (`lanes[i·W + c]` is unknown `i` of lane `c`).
    lanes: Vec<f64>,
    /// Interleaved lane-block right-hand side, solved in place.
    lrhs: Vec<f64>,
    /// Step-major waveform staging for the lane path: each timestep
    /// appends one contiguous row of probe read-outs, and a single
    /// blocked transpose scatters them into the trace-major
    /// [`WavePanel`] at the end. Writing traces directly would touch
    /// one page per (pattern, wire) trace every step — past ~64 traces
    /// that thrashes the L1 DTLB and the step loop's cost starts
    /// depending on whether the allocator handed out huge pages.
    stage: Vec<f64>,
    /// Scalar scratch for the sequential fallback paths.
    scalar: SimScratch,
}

impl PanelScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> PanelScratch {
        PanelScratch::default()
    }

    fn reset(&mut self, dim: usize, k: usize) {
        self.state.reset(dim, k);
        self.rhs.reset(dim, k);
        self.aux.clear();
    }
}

/// The transient-system factor of a banded RC engine: either direct
/// banded LU factors, or a low-rank (Sherman–Morrison–Woodbury) update
/// of another bus's factors when only coupling entries differ. The
/// dispatch is one match per solve call, far off the per-element hot
/// path.
#[derive(Debug, Clone)]
enum RcFactor {
    Direct(BandedLu),
    Updated(RankUpdatedLu),
}

impl RcFactor {
    #[inline]
    fn solve_into(&self, b: &mut [f64], aux: &mut Vec<f64>) {
        match self {
            RcFactor::Direct(lu) => lu.solve_into(b),
            RcFactor::Updated(upd) => upd.solve_into(b, aux),
        }
    }

    #[inline]
    fn solve_panel_into(&self, panel: &mut Panel, aux: &mut Vec<f64>) {
        match self {
            RcFactor::Direct(lu) => lu.solve_panel_into(panel),
            RcFactor::Updated(upd) => upd.solve_panel_into(panel, aux),
        }
    }
}

/// Banded pure-RC engine state (segment-major node ordering).
#[derive(Debug, Clone)]
struct BandedRcEngine {
    dim: usize,
    /// `G + C/h`, banded-LU-factored (directly or via low-rank update).
    a_lu: RcFactor,
    /// `G` alone, banded-LU-factored (for the DC operating point).
    g_lu: BandedLu,
    /// `C / h` for the history term.
    c_over_h: Banded,
    /// Per-wire driver conductances (into node 0 of each wire).
    g_drv: Vec<f64>,
    /// Unknown index of each wire's driver-end node.
    drv_nodes: Vec<usize>,
    /// Unknown index of each wire's receiver-end node.
    recv_nodes: Vec<usize>,
}

/// Banded augmented-MNA engine state (segment-major, branch currents
/// interleaved with their sink nodes).
#[derive(Debug, Clone)]
struct BandedRlcEngine {
    dim: usize,
    /// Transient system, banded-LU-factored.
    a_lu: BandedLu,
    /// DC system (inductors shorted, capacitors open), banded-LU-factored.
    dc_lu: BandedLu,
    /// Full-state history matrix: `C/h` on node rows, `−L/h` / `−M/h`
    /// on branch rows — one banded mat-vec builds the whole RHS.
    hist: Banded,
    /// Unknown index of each wire's driver branch current row.
    drv_branches: Vec<usize>,
    drv_nodes: Vec<usize>,
    recv_nodes: Vec<usize>,
}

/// Dense pure-RC engine state (wire-major ordering): the oracle.
#[cfg(feature = "dense-oracle")]
#[derive(Debug, Clone)]
struct DenseRcEngine {
    dim: usize,
    a_lu: LuFactors,
    g_lu: LuFactors,
    c_over_h: Matrix,
    g_drv: Vec<f64>,
    drv_nodes: Vec<usize>,
    recv_nodes: Vec<usize>,
}

/// Dense augmented-MNA engine state: the oracle.
#[cfg(feature = "dense-oracle")]
#[derive(Debug, Clone)]
struct DenseRlcEngine {
    dim: usize,
    a_lu: LuFactors,
    dc_lu: LuFactors,
    /// Full-state history matrix, same convention as the banded engine.
    hist: Matrix,
    drv_branches: Vec<usize>,
    drv_nodes: Vec<usize>,
    recv_nodes: Vec<usize>,
}

#[derive(Debug, Clone)]
enum Engine {
    BandedRc(BandedRcEngine),
    BandedRlc(BandedRlcEngine),
    #[cfg(feature = "dense-oracle")]
    DenseRc(DenseRcEngine),
    #[cfg(feature = "dense-oracle")]
    DenseRlc(DenseRlcEngine),
}

impl Engine {
    fn dim(&self) -> usize {
        match self {
            Engine::BandedRc(e) => e.dim,
            Engine::BandedRlc(e) => e.dim,
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRc(e) => e.dim,
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRlc(e) => e.dim,
        }
    }
}

/// A factored transient simulator bound to one bus and timestep.
#[derive(Debug, Clone)]
pub struct TransientSim {
    bus: Bus,
    dt: f64,
    switch_at: f64,
    engine: Engine,
}

/// Recovery policy for [`TransientSim::new_guarded`]: how hard to try
/// before giving up on a bus whose nominal factorisation is singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardrailPolicy {
    /// Maximum number of times the timestep may be halved when the
    /// transient system `G + C/h` fails to factor.
    pub max_dt_halvings: u32,
    /// Whether to fall back to the dense oracle (at the original
    /// timestep) once dt-halving is exhausted. Only effective when the
    /// `dense-oracle` feature is compiled in; otherwise this rung of
    /// the ladder is skipped.
    pub dense_fallback: bool,
}

impl Default for GuardrailPolicy {
    fn default() -> GuardrailPolicy {
        GuardrailPolicy { max_dt_halvings: 2, dense_fallback: true }
    }
}

/// One recovery action taken by [`TransientSim::new_guarded`]. The
/// returned event list is the audit trail: an empty list means the
/// nominal configuration factored first try.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GuardrailEvent {
    /// The timestep was halved after a singular factorisation.
    DtHalved {
        /// Timestep that failed to factor (s).
        from: f64,
        /// Timestep tried next (s).
        to: f64,
    },
    /// The dense oracle was engaged at the original timestep after
    /// dt-halving was exhausted.
    DenseFallback,
}

impl std::fmt::Display for GuardrailEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardrailEvent::DtHalved { from, to } => {
                write!(f, "timestep halved {from:.3e} s -> {to:.3e} s after singular factorisation")
            }
            GuardrailEvent::DenseFallback => {
                write!(f, "dense-oracle fallback engaged at the original timestep")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Banded assembly (segment-major ordering)
// ---------------------------------------------------------------------

/// Stamps the capacitance-over-h terms into `m` under an arbitrary
/// node-index mapping; shared by every engine.
fn stamp_cap_over_h(
    bus: &Bus,
    dt: f64,
    node: &impl Fn(usize, usize) -> usize,
    mut add: impl FnMut(usize, usize, f64),
) {
    let s = bus.segments();
    let w = bus.wires();
    for wire in 0..w {
        for seg in 0..s {
            add(node(wire, seg), node(wire, seg), bus.cg_node[wire][seg] / dt);
        }
        add(node(wire, s - 1), node(wire, s - 1), bus.receiver_c / dt);
    }
    for pair in 0..w.saturating_sub(1) {
        for seg in 0..s {
            let cc = bus.cc_node[pair][seg] / dt;
            let a = node(pair, seg);
            let b = node(pair + 1, seg);
            add(a, a, cc);
            add(b, b, cc);
            add(a, b, -cc);
            add(b, a, -cc);
        }
    }
}

/// Stamps the conductance matrix `G` (series segments + drivers) under
/// an arbitrary node-index mapping; returns the driver conductances.
fn stamp_conductance(
    bus: &Bus,
    node: &impl Fn(usize, usize) -> usize,
    mut add: impl FnMut(usize, usize, f64),
) -> Vec<f64> {
    let s = bus.segments();
    let w = bus.wires();
    let mut g_drv = Vec::with_capacity(w);
    for wire in 0..w {
        // Driver Thevenin conductance into node 0; segment 0's series
        // resistance lies between the driver and node 0, so it folds
        // into the same branch.
        let gd = 1.0 / (bus.driver_r[wire] + bus.r_seg[wire][0]);
        g_drv.push(gd);
        add(node(wire, 0), node(wire, 0), gd);
        for seg in 1..s {
            let gseg = 1.0 / bus.r_seg[wire][seg];
            let a = node(wire, seg - 1);
            let b = node(wire, seg);
            add(a, a, gseg);
            add(b, b, gseg);
            add(a, b, -gseg);
            add(b, a, -gseg);
        }
    }
    g_drv
}

fn build_banded_rc(bus: &Bus, dt: f64) -> Result<BandedRcEngine, InterconnectError> {
    let s = bus.segments();
    let w = bus.wires();
    let dim = w * s;
    // Segment-major: same-position nodes of adjacent wires are
    // contiguous, so coupling terms sit next to the diagonal and the
    // series terms reach exactly `w` away — half-bandwidth `w`.
    let node = |wire: usize, seg: usize| seg * w + wire;

    let mut g = Banded::zeros(dim, w, w);
    let g_drv = stamp_conductance(bus, &node, |i, j, v| g.add(i, j, v));
    // The capacitance stamps only couple same-segment neighbours, which
    // are adjacent under segment-major ordering: the history matrix is
    // tridiagonal, so the per-step mul is O(N·3) regardless of width.
    let mut c_over_h = Banded::zeros(dim, 1, 1);
    stamp_cap_over_h(bus, dt, &node, |i, j, v| c_over_h.add(i, j, v));
    let mut a = Banded::zeros(dim, w, w);
    stamp_conductance(bus, &node, |i, j, v| a.add(i, j, v));
    stamp_cap_over_h(bus, dt, &node, |i, j, v| a.add(i, j, v));

    Ok(BandedRcEngine {
        dim,
        a_lu: RcFactor::Direct(a.lu()?),
        g_lu: g.lu()?,
        c_over_h,
        g_drv,
        drv_nodes: (0..w).map(|wire| node(wire, 0)).collect(),
        recv_nodes: (0..w).map(|wire| node(wire, s - 1)).collect(),
    })
}

/// Stamps the full augmented-MNA system under arbitrary index mappings.
///
/// `v_idx(wire, seg)` is the unknown slot of a node voltage and
/// `i_idx(wire, seg)` that of the branch current *into* the node —
/// branch `(wire, 0)` is the driver branch (Thevenin source behind
/// `driver_r + r_seg[0]`), branch `(wire, seg > 0)` the series branch
/// from node `seg − 1`. Stamps the transient matrix, the DC matrix
/// (inductors shorted, capacitors open) and the history matrix.
fn stamp_rlc(
    bus: &Bus,
    dt: f64,
    v_idx: &impl Fn(usize, usize) -> usize,
    i_idx: &impl Fn(usize, usize) -> usize,
    mut add_a: impl FnMut(usize, usize, f64),
    mut add_dc: impl FnMut(usize, usize, f64),
    mut add_hist: impl FnMut(usize, usize, f64),
) {
    let s = bus.segments();
    let w = bus.wires();
    stamp_cap_over_h(bus, dt, v_idx, &mut add_hist);
    stamp_cap_over_h(bus, dt, v_idx, &mut add_a);
    for wire in 0..w {
        for seg in 0..s {
            let col = i_idx(wire, seg);
            let from = (seg > 0).then(|| v_idx(wire, seg - 1));
            let to = v_idx(wire, seg);
            let r_series = if seg == 0 {
                bus.driver_r[wire] + bus.r_seg[wire][0]
            } else {
                bus.r_seg[wire][seg]
            };
            let l = bus.l_seg[wire][seg];
            // KCL: current flows from `from` to `to`.
            if let Some(from) = from {
                add_a(from, col, 1.0);
                add_dc(from, col, 1.0);
            }
            add_a(to, col, -1.0);
            add_dc(to, col, -1.0);
            // Branch voltage equation.
            if let Some(from) = from {
                add_a(col, from, 1.0);
                add_dc(col, from, 1.0);
            }
            add_a(col, to, -1.0);
            add_dc(col, to, -1.0);
            add_a(col, col, -(r_series + l / dt));
            add_dc(col, col, -r_series);
            add_hist(col, col, -(l / dt));
        }
    }
    // Mutual inductance: branch (w, seg) couples with the same-segment
    // branch of each adjacent wire — an off-diagonal −(M/h)·i_neighbor
    // term in the branch voltage equation (and the matching history
    // term). At DC inductors (self and mutual) are shorts, so the DC
    // matrix is untouched.
    for pair in 0..w.saturating_sub(1) {
        for seg in 0..s {
            let m = bus.lm_seg[pair][seg];
            if m == 0.0 {
                continue;
            }
            let ka = i_idx(pair, seg);
            let kb = i_idx(pair + 1, seg);
            add_a(ka, kb, -(m / dt));
            add_a(kb, ka, -(m / dt));
            add_hist(ka, kb, -(m / dt));
            add_hist(kb, ka, -(m / dt));
        }
    }
}

fn build_banded_rlc(bus: &Bus, dt: f64) -> Result<BandedRlcEngine, InterconnectError> {
    let s = bus.segments();
    let w = bus.wires();
    let dim = 2 * w * s;
    // Segment-major with the branch current interleaved right after its
    // sink node: the widest stamp is a branch row reaching back to the
    // previous segment's node, distance 2·w + 1 — again O(wires),
    // independent of the segment count.
    let v_idx = |wire: usize, seg: usize| seg * 2 * w + 2 * wire;
    let i_idx = |wire: usize, seg: usize| seg * 2 * w + 2 * wire + 1;
    let band = 2 * w + 1;

    let mut a = Banded::zeros(dim, band, band);
    let mut dc = Banded::zeros(dim, band, band);
    // History terms (C/h on node rows, −L/h / −M/h on branch rows) only
    // link interleaved same-segment neighbours — distance ≤ 2 — so the
    // per-step history mul stays O(N·5) at any width.
    let mut hist = Banded::zeros(dim, 2, 2);
    stamp_rlc(
        bus,
        dt,
        &v_idx,
        &i_idx,
        |i, j, v| a.add(i, j, v),
        |i, j, v| dc.add(i, j, v),
        |i, j, v| hist.add(i, j, v),
    );

    Ok(BandedRlcEngine {
        dim,
        a_lu: a.lu()?,
        dc_lu: dc.lu()?,
        hist,
        drv_branches: (0..w).map(|wire| i_idx(wire, 0)).collect(),
        drv_nodes: (0..w).map(|wire| v_idx(wire, 0)).collect(),
        recv_nodes: (0..w).map(|wire| v_idx(wire, s - 1)).collect(),
    })
}

// ---------------------------------------------------------------------
// Dense assembly (wire-major ordering) — the oracle
// ---------------------------------------------------------------------

#[cfg(feature = "dense-oracle")]
fn build_dense_rc(bus: &Bus, dt: f64) -> Result<DenseRcEngine, InterconnectError> {
    let s = bus.segments();
    let w = bus.wires();
    let dim = w * s;
    let node = |wire: usize, seg: usize| wire * s + seg;

    let mut g = Matrix::zeros(dim);
    let g_drv = stamp_conductance(bus, &node, |i, j, v| g[(i, j)] += v);
    let mut c_over_h = Matrix::zeros(dim);
    stamp_cap_over_h(bus, dt, &node, |i, j, v| c_over_h[(i, j)] += v);
    let mut a = g.clone();
    stamp_cap_over_h(bus, dt, &node, |i, j, v| a[(i, j)] += v);

    Ok(DenseRcEngine {
        dim,
        a_lu: a.lu()?,
        g_lu: g.lu()?,
        c_over_h,
        g_drv,
        drv_nodes: (0..w).map(|wire| node(wire, 0)).collect(),
        recv_nodes: (0..w).map(|wire| node(wire, s - 1)).collect(),
    })
}

#[cfg(feature = "dense-oracle")]
fn build_dense_rlc(bus: &Bus, dt: f64) -> Result<DenseRlcEngine, InterconnectError> {
    let s = bus.segments();
    let w = bus.wires();
    let nodes = w * s;
    let dim = 2 * nodes;
    // Wire-major nodes, branch currents appended after all nodes — the
    // classic layout whose bandwidth is O(wires·segments).
    let v_idx = |wire: usize, seg: usize| wire * s + seg;
    let i_idx = |wire: usize, seg: usize| nodes + wire * s + seg;

    let mut a = Matrix::zeros(dim);
    let mut dc = Matrix::zeros(dim);
    let mut hist = Matrix::zeros(dim);
    stamp_rlc(
        bus,
        dt,
        &v_idx,
        &i_idx,
        |i, j, v| a[(i, j)] += v,
        |i, j, v| dc[(i, j)] += v,
        |i, j, v| hist[(i, j)] += v,
    );

    Ok(DenseRlcEngine {
        dim,
        a_lu: a.lu()?,
        dc_lu: dc.lu()?,
        hist,
        drv_branches: (0..w).map(|wire| i_idx(wire, 0)).collect(),
        drv_nodes: (0..w).map(|wire| v_idx(wire, 0)).collect(),
        recv_nodes: (0..w).map(|wire| v_idx(wire, s - 1)).collect(),
    })
}

impl TransientSim {
    /// Builds and factorises the solver for `bus` with timestep `dt`,
    /// selecting the RC or RLC formulation automatically and running on
    /// the banded fast path.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadTimeAxis`] for a non-positive `dt`;
    /// [`InterconnectError::SingularMatrix`] if the bus graph is
    /// degenerate.
    pub fn new(bus: &Bus, dt: f64) -> Result<TransientSim, InterconnectError> {
        Self::with_switch_at(bus, dt, DEFAULT_SWITCH_AT)
    }

    /// As [`TransientSim::new`] with an explicit edge-launch time.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::new`].
    pub fn with_switch_at(
        bus: &Bus,
        dt: f64,
        switch_at: f64,
    ) -> Result<TransientSim, InterconnectError> {
        Self::with_backend(bus, dt, switch_at, SolverBackend::default())
    }

    /// As [`TransientSim::with_switch_at`] with an explicit
    /// linear-algebra backend — the dense oracle is selectable here for
    /// verification and baseline benchmarking.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::new`].
    pub fn with_backend(
        bus: &Bus,
        dt: f64,
        switch_at: f64,
        backend: SolverBackend,
    ) -> Result<TransientSim, InterconnectError> {
        if dt <= 0.0 {
            return Err(InterconnectError::time("timestep must be positive"));
        }
        if switch_at < 0.0 {
            return Err(InterconnectError::time("switch time must be non-negative"));
        }
        let engine = match (backend, bus.has_inductance()) {
            (SolverBackend::Banded, false) => Engine::BandedRc(build_banded_rc(bus, dt)?),
            (SolverBackend::Banded, true) => Engine::BandedRlc(build_banded_rlc(bus, dt)?),
            #[cfg(feature = "dense-oracle")]
            (SolverBackend::Dense, false) => Engine::DenseRc(build_dense_rc(bus, dt)?),
            #[cfg(feature = "dense-oracle")]
            (SolverBackend::Dense, true) => Engine::DenseRlc(build_dense_rlc(bus, dt)?),
        };
        Ok(TransientSim { bus: bus.clone(), dt, switch_at, engine })
    }

    /// As [`TransientSim::new`], but with a bounded recovery ladder for
    /// singular factorisations: the timestep is halved up to
    /// `policy.max_dt_halvings` times, and if the banded path still
    /// fails the dense oracle is tried once at the original timestep
    /// (when compiled in and `policy.dense_fallback` is set). Every
    /// action taken is reported as a [`GuardrailEvent`] so callers can
    /// surface the degraded configuration instead of silently running
    /// with a different dt.
    ///
    /// # Errors
    ///
    /// Non-singular construction errors (bad time axis, bad geometry)
    /// propagate unchanged — the ladder only answers
    /// [`InterconnectError::SingularMatrix`], which is returned once
    /// every rung the policy allows has been tried.
    pub fn new_guarded(
        bus: &Bus,
        dt: f64,
        policy: GuardrailPolicy,
    ) -> Result<(TransientSim, Vec<GuardrailEvent>), InterconnectError> {
        let mut events = Vec::new();
        let mut current_dt = dt;
        match Self::new(bus, dt) {
            Ok(sim) => return Ok((sim, events)),
            Err(InterconnectError::SingularMatrix) => {}
            Err(other) => return Err(other),
        }
        for _ in 0..policy.max_dt_halvings {
            let next_dt = current_dt / 2.0;
            events.push(GuardrailEvent::DtHalved { from: current_dt, to: next_dt });
            current_dt = next_dt;
            match Self::new(bus, current_dt) {
                Ok(sim) => return Ok((sim, events)),
                Err(InterconnectError::SingularMatrix) => {}
                Err(other) => return Err(other),
            }
        }
        #[cfg(feature = "dense-oracle")]
        if policy.dense_fallback {
            events.push(GuardrailEvent::DenseFallback);
            match Self::with_backend(bus, dt, DEFAULT_SWITCH_AT, SolverBackend::Dense) {
                Ok(sim) => return Ok((sim, events)),
                Err(InterconnectError::SingularMatrix) => {}
                Err(other) => return Err(other),
            }
        }
        Err(InterconnectError::SingularMatrix)
    }

    /// The timestep (s).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The edge-launch time (s).
    #[must_use]
    pub fn switch_at(&self) -> f64 {
        self.switch_at
    }

    /// Whether the augmented (inductive) formulation is active.
    #[must_use]
    pub fn is_rlc(&self) -> bool {
        match self.engine {
            Engine::BandedRlc(_) => true,
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRlc(_) => true,
            _ => false,
        }
    }

    /// The linear-algebra backend this simulator runs on.
    #[must_use]
    pub fn backend(&self) -> SolverBackend {
        match self.engine {
            Engine::BandedRc(_) | Engine::BandedRlc(_) => SolverBackend::Banded,
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRc(_) | Engine::DenseRlc(_) => SolverBackend::Dense,
        }
    }

    /// Runs the transient for `duration` seconds under `stimulus`,
    /// starting from the DC operating point of the *initial* source
    /// values. Allocates fresh scratch; prefer
    /// [`TransientSim::run_with_scratch`] inside campaign loops.
    ///
    /// # Errors
    ///
    /// [`InterconnectError::BadTimeAxis`] for a non-positive duration;
    /// [`InterconnectError::WireOutOfRange`] for a stimulus width
    /// mismatch.
    pub fn run(
        &self,
        stimulus: &Stimulus,
        duration: f64,
    ) -> Result<BusWaveforms, InterconnectError> {
        self.run_with_scratch(stimulus, duration, &mut SimScratch::new())
    }

    /// As [`TransientSim::run`], reusing caller-provided scratch
    /// buffers so repeated runs never allocate in the timestep loop.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_with_scratch(
        &self,
        stimulus: &Stimulus,
        duration: f64,
        scratch: &mut SimScratch,
    ) -> Result<BusWaveforms, InterconnectError> {
        self.run_cancellable(stimulus, duration, scratch, None)
    }

    /// As [`TransientSim::run_with_scratch`], polling `cancel` every
    /// [`CANCEL_CHECK_INTERVAL`] timesteps: an explicitly cancelled
    /// token or an expired deadline stops the run cooperatively with
    /// [`InterconnectError::Cancelled`]. Passing `None` is exactly the
    /// uncancellable path.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`], plus
    /// [`InterconnectError::Cancelled`] when the token fires.
    pub fn run_cancellable(
        &self,
        stimulus: &Stimulus,
        duration: f64,
        scratch: &mut SimScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<BusWaveforms, InterconnectError> {
        if duration <= 0.0 {
            return Err(InterconnectError::time("duration must be positive"));
        }
        if stimulus.width() != self.bus.wires() {
            return Err(InterconnectError::WireOutOfRange {
                wire: stimulus.width(),
                width: self.bus.wires(),
            });
        }
        // Epsilon guard: 1e-9/1e-12 must give exactly 1000 steps despite
        // floating-point representation of the quotient.
        let steps = ((duration / self.dt) - 1e-9).ceil().max(1.0) as usize;
        scratch.reset(self.engine.dim());
        let w = self.bus.wires();
        let mut recv = vec![Vec::with_capacity(steps + 1); w];
        let mut drv = vec![Vec::with_capacity(steps + 1); w];
        match &self.engine {
            Engine::BandedRc(e) => {
                self.run_banded_rc(e, stimulus, steps, scratch, &mut recv, &mut drv, cancel)?;
            }
            Engine::BandedRlc(e) => {
                self.run_banded_rlc(e, stimulus, steps, scratch, &mut recv, &mut drv, cancel)?;
            }
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRc(e) => {
                self.run_dense_rc(e, stimulus, steps, scratch, &mut recv, &mut drv, cancel)?;
            }
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRlc(e) => {
                self.run_dense_rlc(e, stimulus, steps, scratch, &mut recv, &mut drv, cancel)?;
            }
        }
        Ok(BusWaveforms {
            dt: self.dt,
            switch_at: self.switch_at,
            vdd: self.bus.vdd(),
            receiver: recv,
            driver: drv,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_banded_rc(
        &self,
        e: &BandedRcEngine,
        stimulus: &Stimulus,
        steps: usize,
        scratch: &mut SimScratch,
        recv: &mut [Vec<f64>],
        drv: &mut [Vec<f64>],
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let SimScratch { state, rhs, aux } = scratch;
        // DC operating point of the initial source values.
        state.fill(0.0);
        stamp_rc_sources(e, stimulus, 0.0, state);
        e.g_lu.solve_into(state);
        check_finite(state, 0)?;
        collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.c_over_h.mul_vec_into(state, rhs);
            stamp_rc_sources(e, stimulus, t, rhs);
            e.a_lu.solve_into(rhs, aux);
            std::mem::swap(state, rhs);
            check_finite(state, k)?;
            collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn run_banded_rlc(
        &self,
        e: &BandedRlcEngine,
        stimulus: &Stimulus,
        steps: usize,
        scratch: &mut SimScratch,
        recv: &mut [Vec<f64>],
        drv: &mut [Vec<f64>],
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let SimScratch { state, rhs, .. } = scratch;
        // DC operating point: inductors short, capacitors open.
        state.fill(0.0);
        stamp_rlc_sources(&e.drv_branches, stimulus, 0.0, state);
        e.dc_lu.solve_into(state);
        check_finite(state, 0)?;
        collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.hist.mul_vec_into(state, rhs);
            stamp_rlc_sources(&e.drv_branches, stimulus, t, rhs);
            e.a_lu.solve_into(rhs);
            std::mem::swap(state, rhs);
            check_finite(state, k)?;
            collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        }
        Ok(())
    }

    #[cfg(feature = "dense-oracle")]
    #[allow(clippy::too_many_arguments)]
    fn run_dense_rc(
        &self,
        e: &DenseRcEngine,
        stimulus: &Stimulus,
        steps: usize,
        scratch: &mut SimScratch,
        recv: &mut [Vec<f64>],
        drv: &mut [Vec<f64>],
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let SimScratch { state, rhs, .. } = scratch;
        state.fill(0.0);
        stamp_dense_rc_sources(e, stimulus, 0.0, state);
        e.g_lu.solve_into(state);
        check_finite(state, 0)?;
        collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.c_over_h.mul_vec_into(state, rhs);
            stamp_dense_rc_sources(e, stimulus, t, rhs);
            e.a_lu.solve_into(rhs);
            std::mem::swap(state, rhs);
            check_finite(state, k)?;
            collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        }
        Ok(())
    }

    #[cfg(feature = "dense-oracle")]
    #[allow(clippy::too_many_arguments)]
    fn run_dense_rlc(
        &self,
        e: &DenseRlcEngine,
        stimulus: &Stimulus,
        steps: usize,
        scratch: &mut SimScratch,
        recv: &mut [Vec<f64>],
        drv: &mut [Vec<f64>],
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let SimScratch { state, rhs, .. } = scratch;
        state.fill(0.0);
        stamp_rlc_sources(&e.drv_branches, stimulus, 0.0, state);
        e.dc_lu.solve_into(state);
        check_finite(state, 0)?;
        collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.hist.mul_vec_into(state, rhs);
            stamp_rlc_sources(&e.drv_branches, stimulus, t, rhs);
            e.a_lu.solve_into(rhs);
            std::mem::swap(state, rhs);
            check_finite(state, k)?;
            collect(&e.recv_nodes, &e.drv_nodes, state, recv, drv);
        }
        Ok(())
    }

    /// Convenience: lowers a [`VectorPair`] to a stimulus (edge at the
    /// configured switch time) and runs it.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_pair(
        &self,
        pair: &VectorPair,
        duration: f64,
    ) -> Result<BusWaveforms, InterconnectError> {
        self.run_pair_with_scratch(pair, duration, &mut SimScratch::new())
    }

    /// As [`TransientSim::run_pair`], reusing caller-provided scratch.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_pair_with_scratch(
        &self,
        pair: &VectorPair,
        duration: f64,
        scratch: &mut SimScratch,
    ) -> Result<BusWaveforms, InterconnectError> {
        self.run_pair_cancellable(pair, duration, scratch, None)
    }

    /// As [`TransientSim::run_pair_with_scratch`], polling `cancel`
    /// every [`CANCEL_CHECK_INTERVAL`] timesteps (see
    /// [`TransientSim::run_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`], plus
    /// [`InterconnectError::Cancelled`] when the token fires.
    pub fn run_pair_cancellable(
        &self,
        pair: &VectorPair,
        duration: f64,
        scratch: &mut SimScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<BusWaveforms, InterconnectError> {
        let stim = Stimulus::from_pair(&self.bus, pair, self.switch_at)?;
        self.run_cancellable(&stim, duration, scratch, cancel)
    }

    /// Runs one transient per stimulus as a single batched **panel**:
    /// every timestep advances all patterns through one matrix-panel
    /// history multiply and one multi-RHS solve, instead of `k`
    /// separate matrix-vector passes. Each pattern still starts from
    /// its own DC operating point — the patterns are physically
    /// independent, only the linear-algebra work is shared — so for
    /// finite systems the per-pattern waveforms are bitwise identical
    /// to looped [`TransientSim::run`] calls. Allocates fresh scratch;
    /// prefer [`TransientSim::run_panel_with_scratch`] in loops.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_panel(
        &self,
        stimuli: &[Stimulus],
        duration: f64,
    ) -> Result<WavePanel, InterconnectError> {
        self.run_panel_with_scratch(stimuli, duration, &mut PanelScratch::new())
    }

    /// As [`TransientSim::run_panel`], reusing caller-provided scratch
    /// so repeated batches never allocate in the timestep loop.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`].
    pub fn run_panel_with_scratch(
        &self,
        stimuli: &[Stimulus],
        duration: f64,
        scratch: &mut PanelScratch,
    ) -> Result<WavePanel, InterconnectError> {
        self.run_panel_cancellable(stimuli, duration, scratch, None)
    }

    /// As [`TransientSim::run_panel_with_scratch`], polling `cancel`
    /// every [`CANCEL_CHECK_INTERVAL`] joint timesteps — the same
    /// stride, and therefore the same `Cancelled { step }`, as the
    /// scalar path polling during its first pattern.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run`], plus
    /// [`InterconnectError::Cancelled`] when the token fires.
    pub fn run_panel_cancellable(
        &self,
        stimuli: &[Stimulus],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<WavePanel, InterconnectError> {
        let mut wp = WavePanel::default();
        self.run_panel_into(stimuli, duration, scratch, cancel, &mut wp)?;
        Ok(wp)
    }

    /// As [`TransientSim::run_panel_cancellable`], writing into a
    /// caller-owned [`WavePanel`] whose buffers are reused across
    /// calls. On error `out` holds unspecified samples.
    fn run_panel_into(
        &self,
        stimuli: &[Stimulus],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
        out: &mut WavePanel,
    ) -> Result<(), InterconnectError> {
        if duration <= 0.0 {
            return Err(InterconnectError::time("duration must be positive"));
        }
        for stim in stimuli {
            if stim.width() != self.bus.wires() {
                return Err(InterconnectError::WireOutOfRange {
                    wire: stim.width(),
                    width: self.bus.wires(),
                });
            }
        }
        match &self.engine {
            Engine::BandedRc(_) | Engine::BandedRlc(_) => {
                match self.run_panel_attempt(stimuli, duration, scratch, cancel, out) {
                    // A non-finite panel state cannot identify which
                    // pattern a sequential run would have failed on
                    // first (and the blocked kernels' dropped zero
                    // skips are only bitwise-safe for finite systems),
                    // so divergence replays the batch scalar-sequential
                    // for exact per-pattern semantics.
                    Err(InterconnectError::Diverged { .. }) => {
                        self.run_panel_sequential(stimuli, duration, scratch, cancel, out)
                    }
                    other => other,
                }
            }
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRc(_) | Engine::DenseRlc(_) => {
                self.run_panel_sequential(stimuli, duration, scratch, cancel, out)
            }
        }
    }

    /// Convenience: lowers a batch of [`VectorPair`]s to stimuli (edge
    /// at the configured switch time) and runs them as one panel.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run_panel`].
    pub fn run_pairs_cancellable(
        &self,
        pairs: &[VectorPair],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
    ) -> Result<WavePanel, InterconnectError> {
        let mut wp = WavePanel::default();
        self.run_pairs_into(pairs, duration, scratch, cancel, &mut wp)?;
        Ok(wp)
    }

    /// Grows `scratch` and `out` up front to hold a run of up to
    /// `patterns` patterns over `duration`, so a caller whose batch
    /// sizes vary holds one allocation per buffer at the full size
    /// instead of growing each buffer batch by batch. A no-op once
    /// the capacity is there.
    pub fn reserve_panel(
        &self,
        patterns: usize,
        duration: f64,
        scratch: &mut PanelScratch,
        out: &mut WavePanel,
    ) {
        fn reserve_len(buf: &mut Vec<f64>, len: usize) {
            buf.reserve_exact(len.saturating_sub(buf.len()));
        }
        let samples = ((duration / self.dt) - 1e-9).ceil().max(1.0) as usize + 1;
        let wires = self.bus.wires();
        // The lane kernels run at most 8 patterns at a time.
        let lanes = patterns.min(8);
        reserve_len(&mut scratch.stage, samples * 2 * wires * lanes);
        reserve_len(&mut scratch.lanes, self.engine.dim() * lanes);
        reserve_len(&mut scratch.lrhs, self.engine.dim() * lanes);
        for buf in [&mut out.receiver, &mut out.driver] {
            let len = patterns * wires * samples;
            if buf.capacity() < len {
                // A fresh zeroed allocation: the allocator maps large
                // ones from zero pages, so the part a run never writes
                // costs no resident memory.
                *buf = vec![0.0; len];
            }
        }
    }

    /// As [`TransientSim::run_pairs_cancellable`], writing into a
    /// caller-owned [`WavePanel`] whose buffers are reused across calls:
    /// a loop of batches then allocates its waveform storage once
    /// instead of once per call. On error `out` holds unspecified
    /// samples.
    ///
    /// # Errors
    ///
    /// As for [`TransientSim::run_panel`].
    pub fn run_pairs_into(
        &self,
        pairs: &[VectorPair],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
        out: &mut WavePanel,
    ) -> Result<(), InterconnectError> {
        let stimuli: Vec<Stimulus> = pairs
            .iter()
            .map(|pair| Stimulus::from_pair(&self.bus, pair, self.switch_at))
            .collect::<Result<_, _>>()?;
        self.run_panel_into(&stimuli, duration, scratch, cancel, out)
    }

    /// The batched banded panel loop (both formulations).
    fn run_panel_attempt(
        &self,
        stimuli: &[Stimulus],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
        wp: &mut WavePanel,
    ) -> Result<(), InterconnectError> {
        let steps = ((duration / self.dt) - 1e-9).ceil().max(1.0) as usize;
        scratch.reset(self.engine.dim(), stimuli.len());
        wp.reset(self, stimuli.len(), steps + 1);
        match &self.engine {
            Engine::BandedRc(e) => {
                self.run_banded_rc_panel(e, stimuli, steps, scratch, wp, cancel)?;
            }
            Engine::BandedRlc(e) => {
                self.run_banded_rlc_panel(e, stimuli, steps, scratch, wp, cancel)?;
            }
            #[cfg(feature = "dense-oracle")]
            Engine::DenseRc(_) | Engine::DenseRlc(_) => {
                unreachable!("dense panel runs go through the sequential path")
            }
        }
        Ok(())
    }

    /// The scalar-sequential reference: one [`TransientSim::run_cancellable`]
    /// per stimulus, packed into a [`WavePanel`]. Used by the dense
    /// oracle and as the divergence fallback, so batched entry points
    /// keep exact scalar error semantics (the first pattern a
    /// sequential run would fail is the one reported).
    fn run_panel_sequential(
        &self,
        stimuli: &[Stimulus],
        duration: f64,
        scratch: &mut PanelScratch,
        cancel: Option<&CancelToken>,
        wp: &mut WavePanel,
    ) -> Result<(), InterconnectError> {
        let steps = ((duration / self.dt) - 1e-9).ceil().max(1.0) as usize;
        let samples = steps + 1;
        let w = self.bus.wires();
        wp.reset(self, stimuli.len(), samples);
        for (c, stim) in stimuli.iter().enumerate() {
            let waves = self.run_cancellable(stim, duration, &mut scratch.scalar, cancel)?;
            debug_assert_eq!(waves.samples(), samples);
            for wire in 0..w {
                let at = (c * w + wire) * samples;
                wp.receiver[at..at + samples].copy_from_slice(waves.wire(wire));
                wp.driver[at..at + samples].copy_from_slice(waves.driver_end(wire));
            }
        }
        Ok(())
    }

    /// Banded-RC panel dispatch: direct factors run the interleaved
    /// lane-block fast path in chunks of 8 (then 4, then 1) patterns;
    /// low-rank-updated factors keep the column-major [`Panel`] loop
    /// (their Woodbury correction is rank-bound, not kernel-bound).
    #[allow(clippy::too_many_arguments)]
    fn run_banded_rc_panel(
        &self,
        e: &BandedRcEngine,
        stimuli: &[Stimulus],
        steps: usize,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let RcFactor::Direct(a_lu) = &e.a_lu else {
            return self.run_banded_rc_panel_cols(e, stimuli, steps, scratch, wp, cancel);
        };
        let mut done = 0;
        while stimuli.len() - done >= 8 {
            self.run_rc_lanes::<8>(e, a_lu, &stimuli[done..done + 8], done, steps, scratch, wp, cancel)?;
            done += 8;
        }
        while stimuli.len() - done >= 4 {
            self.run_rc_lanes::<4>(e, a_lu, &stimuli[done..done + 4], done, steps, scratch, wp, cancel)?;
            done += 4;
        }
        while done < stimuli.len() {
            self.run_rc_lanes::<1>(e, a_lu, &stimuli[done..done + 1], done, steps, scratch, wp, cancel)?;
            done += 1;
        }
        Ok(())
    }

    /// One `W`-wide lane block of the banded-RC timestep loop: state and
    /// right-hand side stay interleaved (`buf[i·W + c]`) across the whole
    /// loop, so the multiply and both substitutions run `W`-wide
    /// contiguous fused-multiply-adds with no per-step transposes.
    #[allow(clippy::too_many_arguments)]
    fn run_rc_lanes<const W: usize>(
        &self,
        e: &BandedRcEngine,
        a_lu: &BandedLu,
        stimuli: &[Stimulus],
        c0: usize,
        steps: usize,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let n = e.dim;
        let wires = e.recv_nodes.len();
        let row = 2 * wires * W;
        let PanelScratch { lanes, lrhs, stage, .. } = scratch;
        lanes.clear();
        lanes.resize(n * W, 0.0);
        lrhs.clear();
        lrhs.resize(n * W, 0.0);
        stage.clear();
        stage.resize((steps + 1) * row, 0.0);
        // DC operating point per lane.
        for (c, stim) in stimuli.iter().enumerate() {
            stamp_rc_lane(e, stim, 0.0, lanes, W, c);
        }
        e.g_lu.solve_interleaved_into::<W>(lanes);
        check_finite_lanes(lanes, W, 0)?;
        stage_lanes(&e.recv_nodes, &e.drv_nodes, lanes, W, &mut stage[..row]);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.c_over_h.mul_interleaved_into::<W>(lanes, lrhs);
            for (c, stim) in stimuli.iter().enumerate() {
                stamp_rc_lane(e, stim, t, lrhs, W, c);
            }
            a_lu.solve_interleaved_into::<W>(lrhs);
            std::mem::swap(lanes, lrhs);
            check_finite_lanes(lanes, W, k)?;
            stage_lanes(&e.recv_nodes, &e.drv_nodes, lanes, W, &mut stage[k * row..(k + 1) * row]);
        }
        scatter_stage(stage, W, wires, wp, c0);
        Ok(())
    }

    /// Column-major [`Panel`] banded-RC loop, used when the factor is a
    /// low-rank update (the Woodbury correction works per column).
    #[allow(clippy::too_many_arguments)]
    fn run_banded_rc_panel_cols(
        &self,
        e: &BandedRcEngine,
        stimuli: &[Stimulus],
        steps: usize,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let PanelScratch { state, rhs, aux, .. } = scratch;
        // DC operating point per pattern (columns were zeroed by reset).
        for (c, stim) in stimuli.iter().enumerate() {
            stamp_rc_sources(e, stim, 0.0, state.col_mut(c));
        }
        e.g_lu.solve_panel_into(state);
        check_finite_panel(state, 0)?;
        collect_panel(&e.recv_nodes, &e.drv_nodes, state, wp, 0);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.c_over_h.mul_panel_into(state, rhs);
            for (c, stim) in stimuli.iter().enumerate() {
                stamp_rc_sources(e, stim, t, rhs.col_mut(c));
            }
            e.a_lu.solve_panel_into(rhs, aux);
            std::mem::swap(state, rhs);
            check_finite_panel(state, k)?;
            collect_panel(&e.recv_nodes, &e.drv_nodes, state, wp, k);
        }
        Ok(())
    }

    /// Banded-RLC panel dispatch: always direct factors, so every chunk
    /// runs the interleaved lane-block fast path.
    #[allow(clippy::too_many_arguments)]
    fn run_banded_rlc_panel(
        &self,
        e: &BandedRlcEngine,
        stimuli: &[Stimulus],
        steps: usize,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let mut done = 0;
        while stimuli.len() - done >= 8 {
            self.run_rlc_lanes::<8>(e, &stimuli[done..done + 8], done, steps, scratch, wp, cancel)?;
            done += 8;
        }
        while stimuli.len() - done >= 4 {
            self.run_rlc_lanes::<4>(e, &stimuli[done..done + 4], done, steps, scratch, wp, cancel)?;
            done += 4;
        }
        while done < stimuli.len() {
            self.run_rlc_lanes::<1>(e, &stimuli[done..done + 1], done, steps, scratch, wp, cancel)?;
            done += 1;
        }
        Ok(())
    }

    /// One `W`-wide lane block of the banded-RLC (augmented-MNA)
    /// timestep loop; mirrors [`TransientSim::run_rc_lanes`].
    #[allow(clippy::too_many_arguments)]
    fn run_rlc_lanes<const W: usize>(
        &self,
        e: &BandedRlcEngine,
        stimuli: &[Stimulus],
        c0: usize,
        steps: usize,
        scratch: &mut PanelScratch,
        wp: &mut WavePanel,
        cancel: Option<&CancelToken>,
    ) -> Result<(), InterconnectError> {
        let n = e.dim;
        let wires = e.recv_nodes.len();
        let row = 2 * wires * W;
        let PanelScratch { lanes, lrhs, stage, .. } = scratch;
        lanes.clear();
        lanes.resize(n * W, 0.0);
        lrhs.clear();
        lrhs.resize(n * W, 0.0);
        stage.clear();
        stage.resize((steps + 1) * row, 0.0);
        for (c, stim) in stimuli.iter().enumerate() {
            stamp_rlc_lane(&e.drv_branches, stim, 0.0, lanes, W, c);
        }
        e.dc_lu.solve_interleaved_into::<W>(lanes);
        check_finite_lanes(lanes, W, 0)?;
        stage_lanes(&e.recv_nodes, &e.drv_nodes, lanes, W, &mut stage[..row]);
        for k in 1..=steps {
            check_cancel(cancel, k)?;
            let t = k as f64 * self.dt;
            e.hist.mul_interleaved_into::<W>(lanes, lrhs);
            for (c, stim) in stimuli.iter().enumerate() {
                stamp_rlc_lane(&e.drv_branches, stim, t, lrhs, W, c);
            }
            e.a_lu.solve_interleaved_into::<W>(lrhs);
            std::mem::swap(lanes, lrhs);
            check_finite_lanes(lanes, W, k)?;
            stage_lanes(&e.recv_nodes, &e.drv_nodes, lanes, W, &mut stage[k * row..(k + 1) * row]);
        }
        scatter_stage(stage, W, wires, wp, c0);
        Ok(())
    }

    /// The changed coupling-capacitance entries between this sim's bus
    /// and `bus`, as rank-1 update terms — `None` when the delta is not
    /// low-rank-updatable (different geometry, any non-coupling change,
    /// inductance, a non-direct banded-RC engine, or more than
    /// [`MAX_UPDATE_RANK`] changed entries).
    fn coupling_delta(&self, bus: &Bus) -> Option<Vec<(usize, usize, f64)>> {
        let Engine::BandedRc(e) = &self.engine else { return None };
        if !matches!(e.a_lu, RcFactor::Direct(_)) {
            return None;
        }
        let a = &self.bus;
        if a.wires() != bus.wires()
            || a.segments() != bus.segments()
            || bus.has_inductance()
            || a.r_seg != bus.r_seg
            || a.cg_node != bus.cg_node
            || a.l_seg != bus.l_seg
            || a.lm_seg != bus.lm_seg
            || a.driver_r != bus.driver_r
            || a.receiver_c != bus.receiver_c
            || a.vdd() != bus.vdd()
            || a.rise_time != bus.rise_time
        {
            return None;
        }
        let w = a.wires();
        let mut terms = Vec::new();
        for pair in 0..w.saturating_sub(1) {
            for seg in 0..a.segments() {
                let old = a.cc_node[pair][seg];
                let new = bus.cc_node[pair][seg];
                if old != new {
                    if terms.len() == MAX_UPDATE_RANK {
                        return None;
                    }
                    // Segment-major RC ordering: node = seg·w + wire.
                    terms.push((seg * w + pair, seg * w + pair + 1, (new - old) / self.dt));
                }
            }
        }
        Some(terms)
    }

    /// FNV-1a fingerprint of the coupling delta between this sim's bus
    /// and `bus` — the solver-cache key for rank-updated factors.
    /// `None` exactly when [`TransientSim::try_rank_update`] would
    /// refuse (fall back to a fresh factorisation).
    #[must_use]
    pub fn update_fingerprint(&self, bus: &Bus) -> Option<u64> {
        let terms = self.coupling_delta(bus)?;
        let mut h = fnv_mix(0xCBF2_9CE4_8422_2325, self.bus.fingerprint());
        h = fnv_mix(h, self.dt.to_bits());
        for (a, b, s) in terms {
            h = fnv_mix(h, a as u64);
            h = fnv_mix(h, b as u64);
            h = fnv_mix(h, s.to_bits());
        }
        Some(h)
    }

    /// Attempts to derive a simulator for `bus` from this one's cached
    /// factors via a Sherman–Morrison–Woodbury low-rank update: when
    /// only coupling-capacitance entries differ (a severity or corner
    /// sweep point), the O(N·b²) refactorisation is replaced by `r`
    /// base solves plus an `r × r` factorisation, and every subsequent
    /// timestep pays only an O(N·r) correction.
    ///
    /// Returns `None` — the **fallback-to-refactorise rule** — when the
    /// buses differ in anything but coupling capacitance, when either
    /// carries inductance, when this engine is not a direct banded-RC
    /// factorisation (updates never chain), when more than
    /// [`MAX_UPDATE_RANK`] entries changed, or when the updated system
    /// is singular.
    ///
    /// The returned sim's waveforms agree with a freshly factored
    /// [`TransientSim::new`] numerically (≤ 1e-12 in practice) but not
    /// bitwise — byte-determinism contracts must stay on fresh factors.
    #[must_use]
    pub fn try_rank_update(&self, bus: &Bus) -> Option<TransientSim> {
        let terms = self.coupling_delta(bus)?;
        let Engine::BandedRc(e) = &self.engine else { return None };
        let RcFactor::Direct(base_lu) = &e.a_lu else { return None };
        let w = bus.wires();
        let node = |wire: usize, seg: usize| seg * w + wire;
        // G is untouched by a pure-C delta; the history matrix is
        // tridiagonal and restamped from the new bus directly.
        let mut c_over_h = Banded::zeros(e.dim, 1, 1);
        stamp_cap_over_h(bus, self.dt, &node, |i, j, v| c_over_h.add(i, j, v));
        let a_lu = if terms.is_empty() {
            RcFactor::Direct(base_lu.clone())
        } else {
            RcFactor::Updated(base_lu.rank_update(&terms).ok()?)
        };
        Some(TransientSim {
            bus: bus.clone(),
            dt: self.dt,
            switch_at: self.switch_at,
            engine: Engine::BandedRc(BandedRcEngine {
                dim: e.dim,
                a_lu,
                g_lu: e.g_lu.clone(),
                c_over_h,
                g_drv: e.g_drv.clone(),
                drv_nodes: e.drv_nodes.clone(),
                recv_nodes: e.recv_nodes.clone(),
            }),
        })
    }

    /// Whether this simulator runs on low-rank-updated factors rather
    /// than a direct factorisation.
    #[must_use]
    pub fn is_rank_updated(&self) -> bool {
        matches!(&self.engine, Engine::BandedRc(e) if matches!(e.a_lu, RcFactor::Updated(_)))
    }
}

/// Adds the driver Norton terms to an RC right-hand side.
fn stamp_rc_sources(e: &BandedRcEngine, stimulus: &Stimulus, t: f64, rhs: &mut [f64]) {
    for (wire, (&node, &gd)) in e.drv_nodes.iter().zip(&e.g_drv).enumerate() {
        rhs[node] += gd * stimulus.voltage(wire, t);
    }
}

#[cfg(feature = "dense-oracle")]
fn stamp_dense_rc_sources(e: &DenseRcEngine, stimulus: &Stimulus, t: f64, rhs: &mut [f64]) {
    for (wire, (&node, &gd)) in e.drv_nodes.iter().zip(&e.g_drv).enumerate() {
        rhs[node] += gd * stimulus.voltage(wire, t);
    }
}

/// Adds the `−vs` source terms to the driver-branch rows of an
/// augmented-MNA right-hand side (transient and DC alike).
fn stamp_rlc_sources(drv_branches: &[usize], stimulus: &Stimulus, t: f64, rhs: &mut [f64]) {
    for (wire, &row) in drv_branches.iter().enumerate() {
        rhs[row] -= stimulus.voltage(wire, t);
    }
}

/// [`stamp_rc_sources`] into lane `c` of a `w`-interleaved block.
fn stamp_rc_lane(e: &BandedRcEngine, stimulus: &Stimulus, t: f64, rhs: &mut [f64], w: usize, c: usize) {
    for (wire, (&node, &gd)) in e.drv_nodes.iter().zip(&e.g_drv).enumerate() {
        rhs[node * w + c] += gd * stimulus.voltage(wire, t);
    }
}

/// [`stamp_rlc_sources`] into lane `c` of a `w`-interleaved block.
fn stamp_rlc_lane(
    drv_branches: &[usize],
    stimulus: &Stimulus,
    t: f64,
    rhs: &mut [f64],
    w: usize,
    c: usize,
) {
    for (wire, &row) in drv_branches.iter().enumerate() {
        rhs[row * w + c] -= stimulus.voltage(wire, t);
    }
}

/// Fails the run with [`InterconnectError::Cancelled`] when the token
/// has fired, polling the wall-clock deadline only every
/// [`CANCEL_CHECK_INTERVAL`] steps so the hot loop never pays an
/// `Instant::now()` per timestep.
fn check_cancel(cancel: Option<&CancelToken>, step: usize) -> Result<(), InterconnectError> {
    match cancel {
        Some(token) if step.is_multiple_of(CANCEL_CHECK_INTERVAL) && token.poll_deadline() => {
            Err(InterconnectError::Cancelled { step })
        }
        _ => Ok(()),
    }
}

/// Fails the run with [`InterconnectError::Diverged`] if any unknown
/// went non-finite at `step` (0 = the DC operating point).
fn check_finite(state: &[f64], step: usize) -> Result<(), InterconnectError> {
    match state.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(unknown) => Err(InterconnectError::Diverged { step, unknown }),
    }
}

/// Appends the per-wire receiver/driver node voltages of `state` to the
/// waveform accumulators.
fn collect(
    recv_nodes: &[usize],
    drv_nodes: &[usize],
    state: &[f64],
    recv: &mut [Vec<f64>],
    drv: &mut [Vec<f64>],
) {
    for ((out, &node), (outd, &dnode)) in
        recv.iter_mut().zip(recv_nodes).zip(drv.iter_mut().zip(drv_nodes))
    {
        out.push(state[node]);
        outd.push(state[dnode]);
    }
}

/// Simulated voltages for every bus wire.
#[derive(Debug, Clone, PartialEq)]
pub struct BusWaveforms {
    dt: f64,
    switch_at: f64,
    vdd: f64,
    /// `[wire][step]` voltage at the receiver-end node.
    receiver: Vec<Vec<f64>>,
    /// `[wire][step]` voltage at the driver-end node.
    driver: Vec<Vec<f64>>,
}

impl BusWaveforms {
    /// Sample interval (s).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// When the drivers launched their edge (s).
    #[must_use]
    pub fn switch_at(&self) -> f64 {
        self.switch_at
    }

    /// Supply voltage the run used (V).
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Number of wires.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.receiver.len()
    }

    /// Number of samples per wire.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.receiver.first().map_or(0, Vec::len)
    }

    /// Receiver-end waveform of `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn wire(&self, wire: usize) -> &[f64] {
        &self.receiver[wire]
    }

    /// Driver-end waveform of `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is out of range.
    #[must_use]
    pub fn driver_end(&self, wire: usize) -> &[f64] {
        &self.driver[wire]
    }

    /// The time of sample `k` (s).
    #[must_use]
    pub fn time_of(&self, k: usize) -> f64 {
        k as f64 * self.dt
    }
}

/// Ceiling on the number of changed coupling `(pair, segment)` entries
/// [`TransientSim::try_rank_update`] absorbs. Beyond this rank the
/// O(N·r) per-solve correction stops paying for the skipped
/// refactorisation, so callers fall back to a fresh factorisation.
pub const MAX_UPDATE_RANK: usize = 32;

/// Struct-of-arrays waveforms for a batch of patterns run by
/// [`TransientSim::run_panel`]: one flat time-major column per
/// `(pattern, wire)`, so the timestep loop writes each sample once at
/// stride 1 within a column and per-pattern extraction is a memcpy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WavePanel {
    dt: f64,
    switch_at: f64,
    vdd: f64,
    wires: usize,
    patterns: usize,
    samples: usize,
    /// Receiver-end voltages, `[(pattern·wires + wire)·samples + step]`.
    receiver: Vec<f64>,
    /// Driver-end voltages, same layout.
    driver: Vec<f64>,
}

impl WavePanel {
    /// An empty panel holding no patterns; the `_into` entry points
    /// (e.g. [`TransientSim::run_pairs_into`]) size it on use.
    #[must_use]
    pub fn new() -> WavePanel {
        WavePanel::default()
    }

    /// Re-shapes the panel for a `patterns`-pattern run of `sim`,
    /// keeping the buffers' capacity. Stale samples may remain: every
    /// run path overwrites the whole panel before returning `Ok`.
    fn reset(&mut self, sim: &TransientSim, patterns: usize, samples: usize) {
        let wires = sim.bus.wires();
        let len = patterns * wires * samples;
        *self = WavePanel {
            dt: sim.dt,
            switch_at: sim.switch_at,
            vdd: sim.bus.vdd(),
            wires,
            patterns,
            samples,
            receiver: std::mem::take(&mut self.receiver),
            driver: std::mem::take(&mut self.driver),
        };
        for buf in [&mut self.receiver, &mut self.driver] {
            if buf.capacity() < len {
                // A fresh zeroed allocation is faulted in lazily, page
                // by page as the run writes it; a run cut short (say by
                // cancellation) never touches the rest.
                *buf = vec![0.0; len];
            } else {
                buf.resize(len, 0.0);
            }
        }
    }

    /// Sample interval (s).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// When the drivers launched their edge (s).
    #[must_use]
    pub fn switch_at(&self) -> f64 {
        self.switch_at
    }

    /// Supply voltage the run used (V).
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Number of wires per pattern.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    /// Number of patterns in the batch.
    #[must_use]
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Number of samples per waveform.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The time of sample `k` (s).
    #[must_use]
    pub fn time_of(&self, k: usize) -> f64 {
        k as f64 * self.dt
    }

    /// Receiver-end waveform of `wire` under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `wire` is out of range.
    #[must_use]
    pub fn wire(&self, pattern: usize, wire: usize) -> &[f64] {
        let at = self.column(pattern, wire);
        &self.receiver[at..at + self.samples]
    }

    /// Driver-end waveform of `wire` under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `wire` is out of range.
    #[must_use]
    pub fn driver_end(&self, pattern: usize, wire: usize) -> &[f64] {
        let at = self.column(pattern, wire);
        &self.driver[at..at + self.samples]
    }

    /// Copies one pattern's waveforms out as a standalone
    /// [`BusWaveforms`], bitwise identical to what the scalar path
    /// would have produced for that stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is out of range.
    #[must_use]
    pub fn extract(&self, pattern: usize) -> BusWaveforms {
        BusWaveforms {
            dt: self.dt,
            switch_at: self.switch_at,
            vdd: self.vdd,
            receiver: (0..self.wires).map(|w| self.wire(pattern, w).to_vec()).collect(),
            driver: (0..self.wires).map(|w| self.driver_end(pattern, w).to_vec()).collect(),
        }
    }

    fn column(&self, pattern: usize, wire: usize) -> usize {
        assert!(
            pattern < self.patterns && wire < self.wires,
            "pattern {pattern} / wire {wire} out of range ({} patterns, {} wires)",
            self.patterns,
            self.wires
        );
        (pattern * self.wires + wire) * self.samples
    }
}

/// Panel analogue of [`check_finite`]: first non-finite unknown in any
/// column raises `Diverged`, which the batched entry points translate
/// into a scalar-sequential replay.
fn check_finite_panel(p: &Panel, step: usize) -> Result<(), InterconnectError> {
    for col in p.cols() {
        if let Some(unknown) = col.iter().position(|v| !v.is_finite()) {
            return Err(InterconnectError::Diverged { step, unknown });
        }
    }
    Ok(())
}

/// Lane-block analogue of [`check_finite`]: a branch-free exponent-mask
/// sweep (all-ones exponent ⇔ NaN or ±∞) that vectorises, with the
/// position recovered on the cold failure path. The reported unknown is
/// the block-local row; the batched entry points discard it and replay
/// scalar-sequentially for exact per-pattern error semantics.
fn check_finite_lanes(xs: &[f64], w: usize, step: usize) -> Result<(), InterconnectError> {
    let mut bad = 0u64;
    for &v in xs {
        let exp = (v.to_bits() >> 52) & 0x7FF;
        bad |= (exp + 1) >> 11;
    }
    if bad == 0 {
        return Ok(());
    }
    let at = xs.iter().position(|v| !v.is_finite()).unwrap_or(0);
    Err(InterconnectError::Diverged { step, unknown: at / w })
}

/// Copies one timestep's probe read-outs from a `w`-interleaved lane
/// block into a contiguous staging row: receiver values for every
/// (pattern, wire), then driver values. The row is one sequential
/// cache-line-sized burst, where writing straight into the trace-major
/// [`WavePanel`] would touch `2·w·wires` pages every step.
fn stage_lanes(recv_nodes: &[usize], drv_nodes: &[usize], state: &[f64], w: usize, row: &mut [f64]) {
    let wires = recv_nodes.len();
    let (recv, drv) = row.split_at_mut(wires * w);
    for c in 0..w {
        for (wi, (&rnode, &dnode)) in recv_nodes.iter().zip(drv_nodes).enumerate() {
            recv[c * wires + wi] = state[rnode * w + c];
            drv[c * wires + wi] = state[dnode * w + c];
        }
    }
}

/// Transposes the step-major staging buffer of [`stage_lanes`] rows
/// into the trace-major [`WavePanel`] for patterns `c0..c0 + w`: one
/// strided read pass per trace, each writing a fully contiguous trace,
/// so the staging pages stay warm in the second-level TLB across
/// traces instead of missing once per sample.
fn scatter_stage(stage: &[f64], w: usize, wires: usize, wp: &mut WavePanel, c0: usize) {
    let samples = wp.samples;
    let row = 2 * wires * w;
    for c in 0..w {
        for wi in 0..wires {
            let src = c * wires + wi;
            let at = ((c0 + c) * wires + wi) * samples;
            let rdst = &mut wp.receiver[at..at + samples];
            let ddst = &mut wp.driver[at..at + samples];
            for (k, (r, d)) in rdst.iter_mut().zip(ddst).enumerate() {
                *r = stage[k * row + src];
                *d = stage[k * row + wires * w + src];
            }
        }
    }
}

/// Scatters the current panel state into the SoA waveform storage:
/// column `c` of `state` is pattern `c`'s node voltages at `step`.
fn collect_panel(
    recv_nodes: &[usize],
    drv_nodes: &[usize],
    state: &Panel,
    wp: &mut WavePanel,
    step: usize,
) {
    let wires = recv_nodes.len();
    let samples = wp.samples;
    for (c, col) in state.cols().enumerate() {
        for (w, (&rnode, &dnode)) in recv_nodes.iter().zip(drv_nodes).enumerate() {
            let at = (c * wires + w) * samples + step;
            wp.receiver[at] = col[rnode];
            wp.driver[at] = col[dnode];
        }
    }
}

/// One FNV-1a round over the little-endian bytes of `v`.
fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;

    fn small_bus(wires: usize) -> Bus {
        BusParams::dsm_bus(wires).segments(4).build().unwrap()
    }

    #[test]
    fn dc_point_matches_drive_levels() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("101", "101").unwrap();
        let waves = sim.run_pair(&pair, 1e-9).unwrap();
        // No switching: every wire must sit at its DC level throughout.
        for (w, expect) in [(0usize, bus.vdd()), (1, 0.0), (2, bus.vdd())] {
            for &v in waves.wire(w) {
                assert!((v - expect).abs() < 1e-6, "wire {w}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn single_wire_settles_to_vdd_after_rise() {
        let bus = BusParams::dsm_bus(1).segments(4).build().unwrap();
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("0", "1").unwrap();
        let waves = sim.run_pair(&pair, 3e-9).unwrap();
        let wave = waves.wire(0);
        assert!(wave[0].abs() < 1e-9, "starts at ground");
        let last = *wave.last().unwrap();
        assert!((last - bus.vdd()).abs() < 1e-3, "settles at vdd: {last}");
        // Monotone-ish rise: final 10% of samples near vdd.
        let tail = &wave[wave.len() * 9 / 10..];
        assert!(tail.iter().all(|v| (v - bus.vdd()).abs() < 0.01));
    }

    #[test]
    fn rise_is_slower_at_receiver_than_driver() {
        let bus = BusParams::dsm_bus(1).segments(8).build().unwrap();
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair = VectorPair::from_strs("0", "1").unwrap();
        let waves = sim.run_pair(&pair, 2e-9).unwrap();
        // Mid-rise sample: driver end must lead the receiver end.
        let k = ((sim.switch_at() + 60e-12) / waves.dt()) as usize;
        assert!(
            waves.driver_end(0)[k] > waves.wire(0)[k] + 1e-3,
            "driver {} vs receiver {}",
            waves.driver_end(0)[k],
            waves.wire(0)[k]
        );
    }

    #[test]
    fn aggressors_couple_positive_glitch_into_quiet_low_victim() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        // Victim = wire 1 held low; both neighbours rise (Pg pattern).
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let waves = sim.run_pair(&pair, 2e-9).unwrap();
        let peak = waves.wire(1).iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.05, "expected a visible positive glitch, got {peak}");
        assert!(peak < bus.vdd(), "glitch cannot exceed the rail, got {peak}");
        // And it must die back down (it is a glitch, not a level change).
        let last = *waves.wire(1).last().unwrap();
        assert!(last.abs() < 0.01, "victim returns to ground: {last}");
    }

    #[test]
    fn negative_glitch_mirrors_positive() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        // Victim held high; neighbours fall (Ng pattern).
        let up = VectorPair::from_strs("000", "101").unwrap();
        let down = VectorPair::from_strs("111", "010").unwrap();
        let wu = sim.run_pair(&up, 2e-9).unwrap();
        let wd = sim.run_pair(&down, 2e-9).unwrap();
        let peak_up = wu.wire(1).iter().cloned().fold(f64::MIN, f64::max);
        let dip_down = wd.wire(1).iter().cloned().fold(f64::MAX, f64::min);
        // Linear network ⇒ symmetric responses.
        assert!((peak_up - (bus.vdd() - dip_down)).abs() < 1e-3);
    }

    #[test]
    fn opposing_neighbours_slow_the_victim_edge() {
        // Miller effect: victim rising with falling neighbours is slower
        // than victim rising with rising neighbours.
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let with = VectorPair::from_strs("000", "111").unwrap(); // all rise
        let against = VectorPair::from_strs("101", "010").unwrap(); // victim rises, aggrs fall
        let ww = sim.run_pair(&with, 4e-9).unwrap();
        let wa = sim.run_pair(&against, 4e-9).unwrap();
        let half = bus.vdd() / 2.0;
        let t_with = crate::measure::crossing_time(ww.wire(1), ww.dt(), half, true).unwrap();
        let t_against = crate::measure::crossing_time(wa.wire(1), wa.dt(), half, true).unwrap();
        assert!(
            t_against > t_with + 5e-12,
            "opposing switching must add delay: {t_against} vs {t_with}"
        );
    }

    #[test]
    fn more_coupling_means_bigger_glitch() {
        let weak = BusParams::dsm_bus(3).segments(4).cc_per_mm(20e-15).build().unwrap();
        let strong = BusParams::dsm_bus(3).segments(4).cc_per_mm(160e-15).build().unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let peak = |bus: &Bus| {
            let sim = TransientSim::new(bus, 2e-12).unwrap();
            let w = sim.run_pair(&pair, 2e-9).unwrap();
            w.wire(1).iter().cloned().fold(f64::MIN, f64::max)
        };
        assert!(peak(&strong) > 2.0 * peak(&weak));
    }

    #[test]
    fn bad_inputs_rejected() {
        let bus = small_bus(2);
        assert!(TransientSim::new(&bus, 0.0).is_err());
        assert!(TransientSim::with_switch_at(&bus, 1e-12, -1.0).is_err());
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair3 = VectorPair::from_strs("000", "111").unwrap();
        assert!(sim.run_pair(&pair3, 1e-9).is_err());
        let pair = VectorPair::from_strs("00", "11").unwrap();
        assert!(sim.run_pair(&pair, -1.0).is_err());
    }

    #[test]
    fn waveform_metadata() {
        let bus = small_bus(2);
        let sim = TransientSim::new(&bus, 1e-12).unwrap();
        let pair = VectorPair::from_strs("00", "10").unwrap();
        let w = sim.run_pair(&pair, 1e-9).unwrap();
        assert_eq!(w.wires(), 2);
        assert_eq!(w.samples(), 1001);
        assert!((w.time_of(1000) - 1e-9).abs() < 1e-18);
        assert!((w.vdd() - bus.vdd()).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        // Reusing one scratch across runs (and across engine sizes)
        // must not leak state between runs.
        let mut scratch = SimScratch::new();
        let big = small_bus(5);
        let pair5 = VectorPair::from_strs("00000", "11011").unwrap();
        let sim5 = TransientSim::new(&big, 2e-12).unwrap();
        let fresh = sim5.run_pair(&pair5, 1e-9).unwrap();
        let _ = sim5.run_pair_with_scratch(&pair5, 1e-9, &mut scratch).unwrap();
        let small = small_bus(2);
        let sim2 = TransientSim::new(&small, 2e-12).unwrap();
        let pair2 = VectorPair::from_strs("00", "10").unwrap();
        let _ = sim2.run_pair_with_scratch(&pair2, 1e-9, &mut scratch).unwrap();
        let reused = sim5.run_pair_with_scratch(&pair5, 1e-9, &mut scratch).unwrap();
        assert_eq!(fresh, reused, "scratch reuse changed results");
    }

    #[cfg(feature = "dense-oracle")]
    #[test]
    fn banded_matches_dense_oracle_rc_and_rlc() {
        let pair = VectorPair::from_strs("000", "101").unwrap();
        for bus in [
            small_bus(3),
            BusParams::dsm_bus(3).segments(4).l_per_mm(0.4e-9).lm_per_mm(0.1e-9).build().unwrap(),
        ] {
            let banded = TransientSim::new(&bus, 2e-12).unwrap();
            assert_eq!(banded.backend(), SolverBackend::Banded);
            let dense =
                TransientSim::with_backend(&bus, 2e-12, DEFAULT_SWITCH_AT, SolverBackend::Dense)
                    .unwrap();
            assert_eq!(dense.backend(), SolverBackend::Dense);
            let wb = banded.run_pair(&pair, 2e-9).unwrap();
            let wd = dense.run_pair(&pair, 2e-9).unwrap();
            for w in 0..3 {
                for (a, b) in wb.wire(w).iter().zip(wd.wire(w)) {
                    assert!((a - b).abs() < 1e-9, "wire {w}: {a} vs {b}");
                }
            }
        }
    }

    // ------------------------- RLC path -------------------------

    fn rlc_bus(wires: usize, l_per_mm: f64) -> Bus {
        BusParams::dsm_bus(wires).segments(4).l_per_mm(l_per_mm).build().unwrap()
    }

    #[test]
    fn rlc_path_selected_only_with_inductance() {
        let rc = small_bus(2);
        assert!(!TransientSim::new(&rc, 2e-12).unwrap().is_rlc());
        let rlc = rlc_bus(2, 0.4e-9);
        assert!(TransientSim::new(&rlc, 2e-12).unwrap().is_rlc());
    }

    #[test]
    fn tiny_inductance_matches_rc_solution() {
        // L → 0 must converge to the RC result.
        let rc = small_bus(3);
        let rlc = rlc_bus(3, 1e-15); // femto-henry per mm: negligible
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let wv_rc = TransientSim::new(&rc, 2e-12).unwrap().run_pair(&pair, 2e-9).unwrap();
        let wv_rlc = TransientSim::new(&rlc, 2e-12).unwrap().run_pair(&pair, 2e-9).unwrap();
        for (a, b) in wv_rc.wire(0).iter().zip(wv_rlc.wire(0)) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn rlc_dc_point_matches_drive_levels() {
        let bus = rlc_bus(3, 0.4e-9);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("110", "110").unwrap();
        let waves = sim.run_pair(&pair, 1e-9).unwrap();
        for (w, expect) in [(0usize, bus.vdd()), (1, bus.vdd()), (2, 0.0)] {
            for &v in waves.wire(w) {
                assert!((v - expect).abs() < 1e-6, "wire {w}: {v} vs {expect}");
            }
        }
    }

    #[test]
    fn rlc_settles_to_final_levels() {
        let bus = rlc_bus(2, 0.4e-9);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("00", "10").unwrap();
        let waves = sim.run_pair(&pair, 4e-9).unwrap();
        let last0 = *waves.wire(0).last().unwrap();
        let last1 = *waves.wire(1).last().unwrap();
        assert!((last0 - bus.vdd()).abs() < 5e-3, "{last0}");
        assert!(last1.abs() < 5e-3, "{last1}");
    }

    #[test]
    fn inductance_causes_overshoot() {
        // Strong series inductance with a fast edge must ring above the
        // rail at the receiver — impossible in the pure-RC model for a
        // single isolated wire.
        let rc = BusParams::dsm_bus(1).segments(4).rise_time(30e-12).build().unwrap();
        let lc = BusParams::dsm_bus(1)
            .segments(4)
            .rise_time(30e-12)
            .r_per_mm(5.0) // low loss to let it ring
            .l_per_mm(2e-9)
            .build()
            .unwrap();
        let pair = VectorPair::from_strs("0", "1").unwrap();
        let peak = |bus: &Bus| {
            let sim = TransientSim::new(bus, 1e-12).unwrap();
            let w = sim.run_pair(&pair, 3e-9).unwrap();
            w.wire(0).iter().cloned().fold(f64::MIN, f64::max)
        };
        let rc_peak = peak(&rc);
        let lc_peak = peak(&lc);
        assert!(rc_peak <= rc.vdd() + 1e-6, "RC cannot overshoot: {rc_peak}");
        assert!(lc_peak > lc.vdd() * 1.02, "RLC must overshoot: {lc_peak}");
    }

    #[test]
    fn mutual_inductance_validated_and_adds_crosstalk() {
        // M >= L rejected.
        assert!(BusParams::dsm_bus(2).l_per_mm(0.4e-9).lm_per_mm(0.5e-9).build().is_err());
        assert!(BusParams::dsm_bus(2).lm_per_mm(-1e-12).build().is_err());
        // With no capacitive coupling at all, a quiet victim still sees
        // inductively coupled noise when M > 0.
        let quiet = |lm: f64| {
            let bus = BusParams::dsm_bus(2)
                .segments(4)
                .cc_per_mm(0.0)
                .l_per_mm(1e-9)
                .lm_per_mm(lm)
                .rise_time(30e-12)
                .build()
                .unwrap();
            let sim = TransientSim::new(&bus, 1e-12).unwrap();
            let pair = VectorPair::from_strs("00", "10").unwrap();
            let waves = sim.run_pair(&pair, 2e-9).unwrap();
            waves.wire(1).iter().map(|v| v.abs()).fold(0.0, f64::max)
        };
        let without = quiet(0.0);
        let with = quiet(0.5e-9);
        assert!(with > without + 1e-3, "mutual coupling must add noise: {with} vs {without}");
    }

    #[test]
    fn rlc_crosstalk_still_present() {
        let bus = rlc_bus(3, 0.4e-9);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let waves = sim.run_pair(&pair, 2e-9).unwrap();
        let peak = waves.wire(1).iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak > 0.05, "coupling must still glitch the victim: {peak}");
    }

    #[test]
    fn non_finite_state_is_reported_as_diverged() {
        assert_eq!(check_finite(&[0.0, 1.5, -2.0], 3), Ok(()));
        assert_eq!(
            check_finite(&[0.0, f64::NAN, f64::INFINITY], 7),
            Err(InterconnectError::Diverged { step: 7, unknown: 1 })
        );
        assert_eq!(
            check_finite(&[f64::NEG_INFINITY], 0),
            Err(InterconnectError::Diverged { step: 0, unknown: 0 })
        );
    }

    #[test]
    fn blown_up_transient_fails_fast_instead_of_collecting_nans() {
        // A pathological coupling boost combined with a degenerate
        // timestep overflows `C/h` to infinity. Partial-pivot LU only
        // rejects underflowing pivots, so the broken system factors
        // "successfully" — the per-step finiteness check is what stops
        // NaNs from reaching detector verdicts.
        let mut bus = small_bus(3);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1e300 }.apply(&mut bus).unwrap();
        let dt = 1e-300;
        let sim = TransientSim::new(&bus, dt).unwrap();
        let pair = VectorPair::from_strs("000", "010").unwrap();
        match sim.run_pair(&pair, 4.0 * dt) {
            Err(InterconnectError::Diverged { step, .. }) => {
                assert!(step <= 4, "divergence flagged promptly, got step {step}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn guarded_constructor_is_silent_on_healthy_buses() {
        let bus = small_bus(3);
        let (sim, events) =
            TransientSim::new_guarded(&bus, 2e-12, GuardrailPolicy::default()).unwrap();
        assert!(events.is_empty(), "healthy bus must not trigger recovery: {events:?}");
        assert_eq!(sim.dt(), 2e-12);
        assert_eq!(sim.backend(), SolverBackend::Banded);
    }

    #[test]
    fn guarded_constructor_propagates_non_singular_errors() {
        let bus = small_bus(2);
        let err = TransientSim::new_guarded(&bus, -1.0, GuardrailPolicy::default()).unwrap_err();
        assert!(matches!(err, InterconnectError::BadTimeAxis { .. }), "got {err:?}");
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_within_one_interval() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut scratch = SimScratch::new();
        match sim.run_pair_cancellable(&pair, 2e-9, &mut scratch, Some(&token)) {
            Err(InterconnectError::Cancelled { step }) => {
                assert!(
                    step <= CANCEL_CHECK_INTERVAL,
                    "cancellation must land within one check interval, got step {step}"
                );
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_cancels_mid_run() {
        let bus = small_bus(2);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("00", "11").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let mut scratch = SimScratch::new();
        let err = sim.run_pair_cancellable(&pair, 2e-9, &mut scratch, Some(&token)).unwrap_err();
        assert!(matches!(err, InterconnectError::Cancelled { .. }), "got {err:?}");
    }

    #[test]
    fn cancellable_run_with_live_token_is_bitwise_identical() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pair = VectorPair::from_strs("000", "101").unwrap();
        let plain = sim.run_pair(&pair, 2e-9).unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let mut scratch = SimScratch::new();
        let gated = sim.run_pair_cancellable(&pair, 2e-9, &mut scratch, Some(&token)).unwrap();
        assert_eq!(plain, gated, "a live token must not perturb the waveforms");
    }

    #[test]
    fn guardrail_events_render() {
        let e = GuardrailEvent::DtHalved { from: 2e-12, to: 1e-12 };
        assert!(e.to_string().contains("halved"));
        assert!(GuardrailEvent::DenseFallback.to_string().contains("dense-oracle"));
    }

    /// Deterministic batch of `k` vector pairs over `wires` wires.
    fn test_pairs(wires: usize, k: usize) -> Vec<VectorPair> {
        (0..k)
            .map(|i| {
                let before: String =
                    (0..wires).map(|w| if (i >> (w % 8)) & 1 == 1 { '1' } else { '0' }).collect();
                let after: String = before
                    .chars()
                    .enumerate()
                    .map(|(w, c)| if w == i % wires { if c == '1' { '0' } else { '1' } } else { c })
                    .collect();
                VectorPair::from_strs(&before, &after).unwrap()
            })
            .collect()
    }

    fn assert_bitwise_panel(wp: &WavePanel, looped: &[BusWaveforms]) {
        assert_eq!(wp.patterns(), looped.len());
        for (c, waves) in looped.iter().enumerate() {
            assert_eq!(wp.samples(), waves.samples());
            for w in 0..waves.wires() {
                for (a, b) in wp.wire(c, w).iter().zip(waves.wire(w)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "recv pat {c} wire {w}");
                }
                for (a, b) in wp.driver_end(c, w).iter().zip(waves.driver_end(w)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "drv pat {c} wire {w}");
                }
            }
            assert_eq!(&wp.extract(c), waves);
        }
    }

    #[test]
    fn panel_run_bitwise_matches_looped_scalar_rc_and_rlc() {
        for bus in [small_bus(5), rlc_bus(3, 0.4e-9)] {
            let sim = TransientSim::new(&bus, 2e-12).unwrap();
            let mut scratch = PanelScratch::new();
            for k in [1usize, 3, 4, 7, 8, 12] {
                let pairs = test_pairs(bus.wires(), k);
                let wp = sim.run_pairs_cancellable(&pairs, 1e-9, &mut scratch, None).unwrap();
                let looped: Vec<BusWaveforms> =
                    pairs.iter().map(|p| sim.run_pair(p, 1e-9).unwrap()).collect();
                assert_bitwise_panel(&wp, &looped);
            }
        }
    }

    /// Satellite acceptance property: over ≥48 random RC/RLC buses and
    /// every unroll-relevant panel width — including the ragged tails
    /// narrower than the 8/4 block widths and a 12·n multiple that
    /// chains full blocks — the batched run is bitwise identical to
    /// looping the scalar engine.
    #[test]
    fn panel_run_bitwise_property_over_random_buses() {
        use sint_runtime::prop::{gen, Runner};
        let mut scratch = PanelScratch::new();
        Runner::new("panel_bitwise_random_buses").cases(48).run(
            |rng| {
                let wires = gen::usize_in(rng, 2..6);
                let mut params = BusParams::dsm_bus(wires)
                    .segments(gen::usize_in(rng, 2..6))
                    .r_per_mm(gen::f64_in(rng, 15.0..60.0))
                    .cc_per_mm(gen::f64_in(rng, 10e-15..60e-15))
                    .driver_r(gen::f64_in(rng, 60.0..240.0));
                if gen::bool_any(rng) {
                    let l = gen::f64_in(rng, 0.2e-9..0.6e-9);
                    params = params.l_per_mm(l).lm_per_mm(l * gen::f64_in(rng, 0.0..0.5));
                }
                let k = gen::one_of(rng, &[1usize, 3, 4, 7, 8, 12, 24]);
                (params, k)
            },
            |(params, k)| {
                let bus = params.clone().build().map_err(|e| e.to_string())?;
                let sim = TransientSim::new(&bus, 2e-12).map_err(|e| e.to_string())?;
                let pairs = test_pairs(bus.wires(), *k);
                let wp = sim
                    .run_pairs_cancellable(&pairs, 0.3e-9, &mut scratch, None)
                    .map_err(|e| e.to_string())?;
                let looped: Vec<BusWaveforms> = pairs
                    .iter()
                    .map(|p| sim.run_pair(p, 0.3e-9))
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?;
                assert_bitwise_panel(&wp, &looped);
                Ok(())
            },
        );
    }

    #[test]
    fn empty_panel_is_a_valid_run() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let wp = sim.run_panel(&[], 1e-9).unwrap();
        assert_eq!(wp.patterns(), 0);
        assert_eq!(wp.wires(), 3);
        assert!(wp.samples() > 1);
    }

    #[test]
    fn panel_rejects_bad_inputs_like_scalar() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        assert!(sim.run_panel(&[], 0.0).is_err());
        let wrong = test_pairs(2, 1);
        assert!(matches!(
            sim.run_pairs_cancellable(&wrong, 1e-9, &mut PanelScratch::new(), None),
            Err(InterconnectError::WireOutOfRange { .. })
        ));
    }

    #[test]
    fn panel_cancellation_matches_scalar_step() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let pairs = test_pairs(3, 5);
        let scalar_step = {
            let token = CancelToken::with_deadline(std::time::Duration::ZERO);
            match sim.run_pair_cancellable(&pairs[0], 2e-9, &mut SimScratch::new(), Some(&token)) {
                Err(InterconnectError::Cancelled { step }) => step,
                other => panic!("expected Cancelled, got {other:?}"),
            }
        };
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        match sim.run_pairs_cancellable(&pairs, 2e-9, &mut PanelScratch::new(), Some(&token)) {
            Err(InterconnectError::Cancelled { step }) => {
                assert_eq!(step, scalar_step, "panel must cancel at the scalar step");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn diverging_panel_reports_the_scalar_error() {
        let mut bus = small_bus(3);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1e300 }.apply(&mut bus).unwrap();
        let dt = 1e-300;
        let sim = TransientSim::new(&bus, dt).unwrap();
        let pairs = test_pairs(3, 4);
        let scalar = sim.run_pair(&pairs[0], 4.0 * dt).unwrap_err();
        let panel = sim
            .run_pairs_cancellable(&pairs, 4.0 * dt, &mut PanelScratch::new(), None)
            .unwrap_err();
        // The sequential fallback replays pattern by pattern, so the
        // reported divergence is exactly the scalar one.
        assert_eq!(panel, scalar);
    }

    #[test]
    fn panel_scratch_reuse_across_widths_is_bitwise_stable() {
        let bus = small_bus(4);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let mut scratch = PanelScratch::new();
        let pairs = test_pairs(4, 8);
        let first = sim.run_pairs_cancellable(&pairs, 1e-9, &mut scratch, None).unwrap();
        // Interleave a narrower batch, then rerun the original.
        let narrow = test_pairs(4, 3);
        let _ = sim.run_pairs_cancellable(&narrow, 1e-9, &mut scratch, None).unwrap();
        let again = sim.run_pairs_cancellable(&pairs, 1e-9, &mut scratch, None).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn rank_update_matches_fresh_refactorisation() {
        let base_bus = small_bus(4);
        let base = TransientSim::new(&base_bus, 2e-12).unwrap();
        let mut boosted = small_bus(4);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1.7 }.apply(&mut boosted).unwrap();

        let updated = base.try_rank_update(&boosted).expect("coupling-only delta");
        assert!(updated.is_rank_updated());
        let fresh = TransientSim::new(&boosted, 2e-12).unwrap();
        assert!(!fresh.is_rank_updated());

        let pairs = test_pairs(4, 6);
        for pair in &pairs {
            let a = updated.run_pair(pair, 1e-9).unwrap();
            let b = fresh.run_pair(pair, 1e-9).unwrap();
            for w in 0..4 {
                for (x, y) in a.wire(w).iter().zip(b.wire(w)) {
                    assert!(
                        (x - y).abs() <= 1e-12,
                        "low-rank update drifted: wire {w}, {x} vs {y}"
                    );
                }
            }
        }

        // The updated factors run the panel path too, bitwise against
        // their own scalar solves.
        let wp = updated.run_pairs_cancellable(&pairs, 1e-9, &mut PanelScratch::new(), None).unwrap();
        let looped: Vec<BusWaveforms> =
            pairs.iter().map(|p| updated.run_pair(p, 1e-9).unwrap()).collect();
        assert_bitwise_panel(&wp, &looped);
    }

    #[test]
    fn rank_update_with_identical_bus_is_bitwise_identity() {
        let bus = small_bus(3);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let same = sim.try_rank_update(&bus).expect("empty delta is updatable");
        assert!(!same.is_rank_updated(), "empty delta keeps direct factors");
        let pair = &test_pairs(3, 1)[0];
        assert_eq!(sim.run_pair(pair, 1e-9).unwrap(), same.run_pair(pair, 1e-9).unwrap());
    }

    #[test]
    fn rank_update_refusals() {
        let bus = small_bus(4);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();

        // Non-coupling change (driver weakening touches G).
        let mut weak = small_bus(4);
        crate::defect::Defect::WeakDriver { wire: 0, factor: 4.0 }.apply(&mut weak).unwrap();
        assert!(sim.try_rank_update(&weak).is_none());
        assert!(sim.update_fingerprint(&weak).is_none());

        // Different geometry.
        assert!(sim.try_rank_update(&small_bus(5)).is_none());

        // Inductive target.
        assert!(sim.try_rank_update(&rlc_bus(4, 0.4e-9)).is_none());

        // Inductive source engine.
        let rlc = TransientSim::new(&rlc_bus(4, 0.4e-9), 2e-12).unwrap();
        assert!(rlc.try_rank_update(&rlc_bus(4, 0.4e-9)).is_none());

        // Delta wider than MAX_UPDATE_RANK: boost every pair on a bus
        // with (w−1)·segments = 7·8 = 56 changed entries.
        let wide = BusParams::dsm_bus(8).segments(8).build().unwrap();
        let wide_sim = TransientSim::new(&wide, 2e-12).unwrap();
        let mut all = BusParams::dsm_bus(8).segments(8).build().unwrap();
        for w in 0..8 {
            crate::defect::Defect::CouplingBoost { wire: w, factor: 1.3 }.apply(&mut all).unwrap();
        }
        assert!(wide_sim.try_rank_update(&all).is_none());

        // Updates never chain: an updated sim refuses further deltas.
        let mut boosted = small_bus(4);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1.5 }.apply(&mut boosted).unwrap();
        let updated = sim.try_rank_update(&boosted).unwrap();
        assert!(updated.try_rank_update(&bus).is_none());
    }

    #[test]
    fn update_fingerprint_keys_the_delta() {
        let bus = small_bus(4);
        let sim = TransientSim::new(&bus, 2e-12).unwrap();
        let mut b1 = small_bus(4);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1.5 }.apply(&mut b1).unwrap();
        let mut b2 = small_bus(4);
        crate::defect::Defect::CouplingBoost { wire: 1, factor: 1.6 }.apply(&mut b2).unwrap();
        let f0 = sim.update_fingerprint(&bus).unwrap();
        let f1 = sim.update_fingerprint(&b1).unwrap();
        let f2 = sim.update_fingerprint(&b2).unwrap();
        assert_ne!(f0, f1);
        assert_ne!(f1, f2);
        assert_eq!(f1, sim.update_fingerprint(&b1).unwrap(), "stable across calls");
    }
}

//! Campaign-scoped detector-response memo.
//!
//! The MA test drives the same `6n` PGBSC vector pairs into every die,
//! so a campaign over many dies of one bus solves the same transient
//! again and again. A waveform is a pure function of the bus, the
//! timestep, the settle window and the vector pair, and the OBSC
//! detectors are pure OR-latches gated by CE (see
//! [`crate::nd::NoiseDetector::record`] and
//! [`crate::sd::SkewDetector::record`]). So a pattern's whole effect on
//! the receiving core is three bits per wire — would ND latch, would SD
//! latch, does the settled level read high — and replaying those bits
//! is bit-exact against solving again.
//!
//! [`DetectorMemo`] stores exactly those bits, keyed by
//! `(exact bus, ND/SD configuration, dt, settle, packed vector pair)`.
//! Waveforms are never stored: a 32-wire, 8-lane panel is ~0.8 MB, the
//! bits for it 24 bytes.
//!
//! * **Exact keys.** A SoC resolves its bus to a *slot* once, at build:
//!   a 64-bit fingerprint finds the candidate, and `Bus: PartialEq`
//!   (plus the detector configuration) must then match exactly. On a
//!   fingerprint collision the SoC runs memo-free, so a hash collision
//!   can never forge a verdict. Pair keys are stored in full as map
//!   keys for the same reason.
//! * **Bounded.** The memo charges every slot and entry against
//!   [`MEMO_BYTE_BUDGET`] and stops inserting once it is spent; a full
//!   memo still serves hits.
//! * **Scoped.** The batch engines create one memo per call and drop it
//!   at the end; nothing persists between calls, so repeated calls are
//!   never warm-cache runs. Hit and miss counts depend on which worker
//!   thread got to a key first, so they are deliberately not exposed:
//!   nothing schedule-dependent may reach summaries, records or
//!   checkpoints.
//! * **One basis per table.** A miss is solved by superposition from
//!   the bus's [`ResponseBasis`], which costs as much as a few dozen
//!   patterns to compute. SoCs on one table share it through
//!   [`DetectorMemo::basis_cell`]: the first to miss computes it while
//!   holding the cell, and any SoC that misses while one holding it is
//!   alive reuses it instead of computing its own. Otherwise how many
//!   bases a batch computes would turn on how its trials overlap in
//!   time. The cell keeps only a weak reference, so a basis lives no
//!   longer than the SoCs using it.

use crate::nd::NdThresholds;
use crate::sd::SdWindow;
use sint_interconnect::drive::{DriveLevel, VectorPair};
use sint_interconnect::basis::ResponseBasis;
use sint_interconnect::params::Bus;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

/// The memo's fixed size cap, in bytes of map entries, packed keys,
/// verdict bits and per-slot bus copies. Once spent, the memo serves
/// hits but takes no new slots or entries.
const MEMO_BYTE_BUDGET: usize = 4 << 20;

/// Packed words per `wires`-bit mask.
fn mask_words(wires: usize) -> usize {
    wires.div_ceil(64)
}

fn set_bit(mask: &mut [u64], bit: usize) {
    mask[bit / 64] |= 1 << (bit % 64);
}

fn get_bit(mask: &[u64], bit: usize) -> bool {
    mask[bit / 64] >> (bit % 64) & 1 == 1
}

/// FNV-1a over 64-bit words, the same mixing [`Bus::fingerprint`]
/// uses.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x100_0000_01B3))
}

/// One pattern's drive vectors, packed: wire `w` high sets bit `w` of
/// the `before` words, then of the `after` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PairKey(Vec<u64>);

impl PairKey {
    pub(crate) fn pack(pair: &VectorPair) -> PairKey {
        let wires = pair.width();
        let words = mask_words(wires);
        let mut packed = vec![0u64; 2 * words];
        for w in 0..wires {
            if pair.before(w) == DriveLevel::High {
                set_bit(&mut packed[..words], w);
            }
            if pair.after(w) == DriveLevel::High {
                set_bit(&mut packed[words..], w);
            }
        }
        PairKey(packed)
    }
}

/// What one wire's receiving OBSC takes from one pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WireVerdict {
    /// The ND thresholds flag the received waveform.
    pub(crate) nd: bool,
    /// The wire switched and the SD window samples it unsettled.
    pub(crate) sd: bool,
    /// The settled level reads as logic 1 (the OBSC parallel input).
    pub(crate) high: bool,
}

/// Every wire's [`WireVerdict`] for one pattern, packed as three
/// masks: ND, SD, settled-high.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DetectorBits(Vec<u64>);

impl DetectorBits {
    pub(crate) fn new(wires: usize) -> DetectorBits {
        DetectorBits(vec![0; 3 * mask_words(wires)])
    }

    fn words(&self) -> usize {
        self.0.len() / 3
    }

    pub(crate) fn set(&mut self, wire: usize, v: WireVerdict) {
        let words = self.words();
        for (k, bit) in [v.nd, v.sd, v.high].into_iter().enumerate() {
            if bit {
                set_bit(&mut self.0[k * words..(k + 1) * words], wire);
            }
        }
    }

    pub(crate) fn get(&self, wire: usize) -> WireVerdict {
        let words = self.words();
        let bit = |k: usize| get_bit(&self.0[k * words..(k + 1) * words], wire);
        WireVerdict { nd: bit(0), sd: bit(1), high: bit(2) }
    }
}

/// A SoC's resolved memo slot: its exact bus and detector
/// configuration, registered once at build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoSlot(u32);

/// The session-level part of a key: the slot plus the bit patterns of
/// the solver timestep and the settle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TableId {
    slot: u32,
    dt: u64,
    settle: u64,
}

impl MemoSlot {
    pub(crate) fn table(self, dt: f64, settle: f64) -> TableId {
        TableId { slot: self.0, dt: dt.to_bits(), settle: settle.to_bits() }
    }
}

/// A shared, byte-bounded memo of per-pattern detector responses; see
/// the [module documentation](self). Cloning shares the same memo.
#[derive(Clone, Default)]
pub(crate) struct DetectorMemo {
    inner: Arc<Mutex<MemoInner>>,
}

impl std::fmt::Debug for DetectorMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorMemo")
            .field("entries", &self.entries())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[derive(Debug, Default)]
struct MemoInner {
    /// Slot `i`'s exact owner.
    owners: Vec<SlotOwner>,
    /// Configuration fingerprint → slot.
    by_fingerprint: HashMap<u64, u32>,
    tables: HashMap<TableId, HashMap<PairKey, DetectorBits>>,
    /// Table → the basis its SoCs share, while any of them holds it.
    bases: HashMap<TableId, BasisCell>,
    bytes: usize,
    entries: usize,
}

/// A table's shared [`ResponseBasis`]: lock it to compute or take the
/// basis, so SoCs that miss together compute it once.
pub(crate) type BasisCell = Arc<Mutex<Weak<ResponseBasis>>>;

#[derive(Debug)]
struct SlotOwner {
    bus: Bus,
    nd: NdThresholds,
    sd: SdWindow,
}

impl DetectorMemo {
    /// An empty memo.
    #[must_use]
    pub(crate) fn new() -> DetectorMemo {
        DetectorMemo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoInner> {
        // Every critical section leaves the maps consistent, so a
        // poisoned lock (a panic elsewhere while held) is still usable.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Patterns held.
    pub(crate) fn entries(&self) -> usize {
        self.lock().entries
    }

    /// Bytes charged against [`MEMO_BYTE_BUDGET`] so far.
    pub(crate) fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The slot for a SoC over `bus` with detector configuration
    /// `(nd, sd)`, registering it on first sight. `None` — run
    /// memo-free — when the configuration's fingerprint belongs to a
    /// different configuration, or when registering it would overrun
    /// the budget.
    pub(crate) fn slot_for(&self, bus: &Bus, nd: &NdThresholds, sd: &SdWindow) -> Option<MemoSlot> {
        let fingerprint = fnv([
            bus.fingerprint(),
            nd.v_low_max.to_bits(),
            nd.v_high_min.to_bits(),
            nd.overshoot_margin.to_bits(),
            sd.window.to_bits(),
            sd.settle_tolerance.to_bits(),
        ]);
        self.slot_for_fingerprint(fingerprint, bus, nd, sd)
    }

    fn slot_for_fingerprint(
        &self,
        fingerprint: u64,
        bus: &Bus,
        nd: &NdThresholds,
        sd: &SdWindow,
    ) -> Option<MemoSlot> {
        let mut inner = self.lock();
        if let Some(&slot) = inner.by_fingerprint.get(&fingerprint) {
            let owner = &inner.owners[slot as usize];
            return (owner.bus == *bus && owner.nd == *nd && owner.sd == *sd)
                .then_some(MemoSlot(slot));
        }
        let cost = bus_bytes(bus);
        if inner.bytes + cost > MEMO_BYTE_BUDGET {
            return None;
        }
        let slot = u32::try_from(inner.owners.len()).ok()?;
        inner.owners.push(SlotOwner { bus: bus.clone(), nd: *nd, sd: *sd });
        inner.by_fingerprint.insert(fingerprint, slot);
        inner.bytes += cost;
        Some(MemoSlot(slot))
    }

    /// The stored bits for each key, `None` where absent.
    pub(crate) fn lookup(&self, table: TableId, keys: &[PairKey]) -> Vec<Option<DetectorBits>> {
        let inner = self.lock();
        let Some(table) = inner.tables.get(&table) else {
            return vec![None; keys.len()];
        };
        keys.iter().map(|key| table.get(key).cloned()).collect()
    }

    /// The cell through which SoCs on `table` share their response
    /// basis (see the [module documentation](self)).
    pub(crate) fn basis_cell(&self, table: TableId) -> BasisCell {
        Arc::clone(self.lock().bases.entry(table).or_default())
    }

    /// Stores freshly solved bits. Keys already present and anything
    /// past the budget are skipped.
    pub(crate) fn insert(&self, table: TableId, fresh: &[(PairKey, DetectorBits)]) {
        let mut inner = self.lock();
        let inner = &mut *inner;
        for (key, bits) in fresh {
            let cost = entry_bytes(key, bits);
            if inner.bytes + cost > MEMO_BYTE_BUDGET {
                return;
            }
            let t = inner.tables.entry(table).or_default();
            if t.contains_key(key) {
                continue;
            }
            t.insert(key.clone(), bits.clone());
            inner.bytes += cost;
            inner.entries += 1;
        }
    }
}

/// Bytes charged for one stored pattern: the map entry plus the packed
/// key and verdict words it owns.
fn entry_bytes(key: &PairKey, bits: &DetectorBits) -> usize {
    std::mem::size_of::<(PairKey, DetectorBits)>() + 8 * (key.0.len() + bits.0.len())
}

/// Approximate heap footprint of a bus copy: five per-segment element
/// tables plus the driver resistances.
fn bus_bytes(bus: &Bus) -> usize {
    let wires = bus.wires();
    std::mem::size_of::<SlotOwner>()
        + 5 * wires * (std::mem::size_of::<Vec<f64>>() + 8 * bus.segments())
        + 8 * wires
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mafm::{CoverageLedger, IntegrityFault};
    use crate::obsc::Obsc;
    use crate::session::{ObservationMethod, SessionConfig};
    use crate::soc::{SessionPlan, Soc, SocBuilder};
    use sint_interconnect::params::BusParams;
    use sint_interconnect::Defect;
    use sint_runtime::prop::{gen, Runner};

    fn levels(wires: usize, seed: u64) -> Vec<DriveLevel> {
        (0..wires)
            .map(|w| DriveLevel::from(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (w % 64) & 1 == 1))
            .collect()
    }

    fn config(wires: usize) -> (Bus, NdThresholds, SdWindow) {
        let bus = BusParams::dsm_bus(wires).segments(1).build().unwrap();
        let vdd = bus.vdd();
        (bus, NdThresholds::for_vdd(vdd), SdWindow::for_vdd(300e-12, vdd))
    }

    #[test]
    fn packing_round_trips_at_word_boundaries() {
        for wires in [1usize, 63, 64, 65] {
            let words = mask_words(wires);
            let pair = VectorPair::new(levels(wires, 0x9E37), levels(wires, 0x79B9));
            let key = PairKey::pack(&pair);
            assert_eq!(key.0.len(), 2 * words, "n={wires}");
            for w in 0..wires {
                assert_eq!(get_bit(&key.0[..words], w), pair.before(w) == DriveLevel::High);
                assert_eq!(get_bit(&key.0[words..], w), pair.after(w) == DriveLevel::High);
            }
            // Bits past the last wire stay clear, so equal pairs pack
            // equal whatever the width's remainder.
            let used = (0..words * 64).filter(|&b| get_bit(&key.0[..words], b)).max();
            assert!(used.is_none_or(|b| b < wires), "n={wires}");

            let mut bits = DetectorBits::new(wires);
            let verdict = |w: usize| WireVerdict {
                nd: w.is_multiple_of(2),
                sd: w.is_multiple_of(3),
                high: w.is_multiple_of(5),
            };
            for w in 0..wires {
                bits.set(w, verdict(w));
            }
            for w in 0..wires {
                assert_eq!(bits.get(w), verdict(w), "n={wires} wire {w}");
            }
            // The last wire of each width is the boundary case.
            let last = wires - 1;
            let mut lone = DetectorBits::new(wires);
            lone.set(last, WireVerdict { nd: true, sd: true, high: true });
            assert_eq!(lone.get(last), WireVerdict { nd: true, sd: true, high: true });
            assert!((0..last).all(|w| lone.get(w) == WireVerdict::default()));
        }
    }

    #[test]
    fn lookup_returns_what_was_inserted_and_misses_otherwise() {
        let (bus, nd, sd) = config(4);
        let memo = DetectorMemo::new();
        let slot = memo.slot_for(&bus, &nd, &sd).unwrap();
        assert_eq!(memo.slot_for(&bus, &nd, &sd), Some(slot), "same bus, same slot");
        let table = slot.table(10e-12, 2e-9);
        let key = PairKey::pack(&VectorPair::new(levels(4, 1), levels(4, 2)));
        let other = PairKey::pack(&VectorPair::new(levels(4, 3), levels(4, 2)));
        let mut bits = DetectorBits::new(4);
        bits.set(2, WireVerdict { nd: true, sd: false, high: true });
        memo.insert(table, &[(key.clone(), bits.clone())]);
        assert_eq!(memo.lookup(table, &[key.clone(), other]), vec![Some(bits), None]);
        // A different dt or settle is a different table.
        assert_eq!(memo.lookup(slot.table(5e-12, 2e-9), std::slice::from_ref(&key)), vec![None]);
        assert_eq!(memo.lookup(slot.table(10e-12, 1e-9), &[key]), vec![None]);
        assert_eq!(memo.entries(), 1);
    }

    #[test]
    fn fingerprint_collision_runs_memo_free() {
        let (bus, nd, sd) = config(4);
        let (other_bus, _, _) = config(5);
        let memo = DetectorMemo::new();
        let forged = 0xDEAD_BEEF;
        let slot = memo.slot_for_fingerprint(forged, &bus, &nd, &sd).unwrap();
        // A different bus claiming the same fingerprint gets no slot.
        assert_eq!(memo.slot_for_fingerprint(forged, &other_bus, &nd, &sd), None);
        // So does the same bus under a different detector configuration.
        let wider = SdWindow { window: sd.window * 2.0, ..sd };
        assert_eq!(memo.slot_for_fingerprint(forged, &bus, &nd, &wider), None);
        // The owner keeps its slot.
        assert_eq!(memo.slot_for_fingerprint(forged, &bus, &nd, &sd), Some(slot));
    }

    #[test]
    fn full_memo_stops_inserting_but_keeps_serving_hits() {
        let (bus, nd, sd) = config(64);
        let memo = DetectorMemo::new();
        let slot = memo.slot_for(&bus, &nd, &sd).unwrap();
        let table = slot.table(10e-12, 2e-9);
        let key = |i: u64| PairKey(vec![i, !i]);
        let bits = DetectorBits::new(64);
        let per_entry = entry_bytes(&key(0), &bits);
        let capacity = (MEMO_BYTE_BUDGET - memo.bytes()) / per_entry;
        let fresh: Vec<_> = (0..capacity as u64 + 10).map(|i| (key(i), bits.clone())).collect();
        memo.insert(table, &fresh);
        assert_eq!(memo.entries(), capacity, "inserts stop at the budget");
        assert!(memo.bytes() <= MEMO_BYTE_BUDGET);
        let held = memo.lookup(table, &[key(0), key(capacity as u64 - 1)]);
        assert!(held.iter().all(Option::is_some), "a full memo still serves hits");
        assert_eq!(memo.lookup(table, &[key(capacity as u64)]), vec![None]);
        // A full memo registers no new bus either.
        let (fresh_bus, _, _) = config(8);
        assert_eq!(memo.slot_for(&fresh_bus, &nd, &sd), None);
        assert_eq!(memo.slot_for(&bus, &nd, &sd), Some(slot), "known buses keep their slot");
    }

    /// One session-level step a replay-equivalence case drives. Every
    /// step applies its own pattern sequence, and CE toggles inside it:
    /// low under SAMPLE/PRELOAD and EXTEST, high under G-SITEST. The
    /// conventional (EXTEST, CE-low) schedule excites MA fault pairs the
    /// sessions also apply with CE high, and it runs at whatever
    /// `(dt, settle)` the SoC's previous session left (a fresh SoC's:
    /// 2 ps, 2 ns) — so CE-low misses and CE-high hits meet in one table.
    #[derive(Debug, Clone)]
    enum Step {
        Session(SessionConfig),
        Adaptive { cfg: SessionConfig, covered: Vec<(usize, IntegrityFault)>, high_first: bool },
        Attributed(SessionConfig),
        Conventional,
    }

    /// Runs one step and renders whatever it returned, errors included.
    fn run_step(soc: &mut Soc, step: &Step) -> String {
        match step {
            Step::Session(cfg) => format!("{:?}", soc.run_integrity_test(cfg)),
            Step::Adaptive { cfg, covered, high_first } => {
                let mut ledger = CoverageLedger::new(soc.wires());
                for &(victim, fault) in covered {
                    ledger.record(victim, fault);
                }
                let order = if *high_first {
                    [DriveLevel::High, DriveLevel::Low]
                } else {
                    [DriveLevel::Low, DriveLevel::High]
                };
                let plan = SessionPlan::Adaptive { ledger: &ledger, half_order: order };
                format!("{:?}", soc.run_session(cfg, plan))
            }
            Step::Attributed(cfg) => format!("{:?}", soc.run_session(cfg, SessionPlan::Attributed)),
            Step::Conventional => format!("{:?}", soc.run_conventional_generation()),
        }
    }

    /// Every OBSC's full state — both detector flip-flops, CE, the scan
    /// flip-flops and the parallel input — plus the observed-pattern
    /// count.
    fn obsc_states(soc: &mut Soc) -> Result<(Vec<Obsc>, usize), String> {
        let wires = soc.wires();
        let transients = soc.transients_run();
        let device = soc.driver_mut().chain().device(0).map_err(|e| e.to_string())?;
        let cells = (wires..2 * wires)
            .map(|i| {
                let cell = device.boundary().cell(i).map_err(|e| e.to_string())?;
                cell.as_any().downcast_ref::<Obsc>().cloned().ok_or_else(|| format!("cell {i}"))
            })
            .collect::<Result<_, _>>()?;
        Ok((cells, transients))
    }

    #[test]
    fn memoised_socs_latch_exactly_what_memo_free_socs_latch() {
        // A SoC whose batched flushes replay detector bits from a memo
        // that other SoCs already filled — some of its patterns hit, some
        // miss — must leave every ND/SD flip-flop and parallel input
        // exactly where a memo-free SoC leaves them, after every step of
        // a random mix of sessions, dt/settle changes and CE toggles. A
        // stranger SoC on a different bus shares the memo too and must
        // never leak into it.
        Runner::new("memo_replay_matches_solving").cases(10).run(
            |rng| {
                let width = gen::usize_in(rng, 2..7);
                let defects = gen::vec_of(rng, 0..3, |rng| {
                    let wire = gen::usize_in(rng, 0..width);
                    match gen::usize_in(rng, 0..3) {
                        0 => Defect::CouplingBoost { wire, factor: gen::f64_in(rng, 1.5..8.0) },
                        1 => Defect::ResistiveOpen {
                            wire,
                            segment: gen::usize_in(rng, 0..2),
                            extra_ohms: gen::f64_in(rng, 500.0..4000.0),
                        },
                        _ => Defect::WeakDriver { wire, factor: gen::f64_in(rng, 2.0..12.0) },
                    }
                });
                let steps = gen::vec_of(rng, 2..6, |rng| {
                    // Few timings, so steps meet in one table; (2 ps, 2 ns)
                    // is also a fresh SoC's, where a leading conventional
                    // step runs.
                    let (dt, settle_time) = gen::one_of(
                        rng,
                        &[(10e-12, 2e-9), (2e-12, 2e-9), (10e-12, 0.3e-9), (20e-12, 1e-9)],
                    );
                    let method = gen::one_of(
                        rng,
                        &[
                            ObservationMethod::Once,
                            ObservationMethod::PerInitialValue,
                            ObservationMethod::PerPattern,
                        ],
                    );
                    let cfg = SessionConfig { method, settle_time, dt };
                    match gen::usize_in(rng, 0..4) {
                        0 => Step::Session(cfg),
                        1 => Step::Adaptive {
                            cfg,
                            covered: gen::vec_of(rng, 0..4, |rng| {
                                (gen::usize_in(rng, 0..width), gen::one_of(rng, &IntegrityFault::ALL))
                            }),
                            high_first: gen::bool_any(rng),
                        },
                        2 => Step::Attributed(cfg),
                        _ => Step::Conventional,
                    }
                });
                let prefill: Vec<bool> = steps.iter().map(|_| gen::bool_any(rng)).collect();
                let panel_width = gen::usize_in(rng, 2..9);
                (width, defects, steps, prefill, panel_width)
            },
            |(width, defects, steps, prefill, panel_width)| {
                let build = |extra: Option<Defect>, memo: Option<&DetectorMemo>| {
                    let mut b = SocBuilder::new(*width)
                        .bus_params(BusParams::dsm_bus(*width).segments(2))
                        .panel_width(*panel_width);
                    for &d in defects.iter().chain(&extra) {
                        b = b.defect(d);
                    }
                    if let Some(memo) = memo {
                        b = b.detector_memo(memo.clone());
                    }
                    b.build().map_err(|e| e.to_string())
                };
                let memo = DetectorMemo::new();
                // Pre-fill: a stranger bus runs everything, then a twin of
                // the SoC under test runs a random subset of the steps.
                let stranger = Defect::CouplingBoost { wire: 0, factor: 3.0 };
                let mut other = build(Some(stranger), Some(&memo))?;
                let mut twin = build(None, Some(&memo))?;
                for (step, &fill) in steps.iter().zip(prefill) {
                    run_step(&mut other, step);
                    if fill {
                        run_step(&mut twin, step);
                    }
                }
                let mut memoised = build(None, Some(&memo))?;
                let mut plain = build(None, None)?;
                for step in steps {
                    let got = run_step(&mut memoised, step);
                    let want = run_step(&mut plain, step);
                    if got != want {
                        return Err(format!("{step:?}: {got} != {want}"));
                    }
                    let (got, want) = (obsc_states(&mut memoised)?, obsc_states(&mut plain)?);
                    if got != want {
                        return Err(format!("{step:?}: {got:?} != {want:?}"));
                    }
                }
                Ok(())
            },
        );
    }
}

//! TPTIME: timing-driven scan-path design by test point insertion (§IV).
//!
//! To scan a flip-flop whose D input has insufficient slack for a scan
//! multiplexer, the recursive cost functions of Equations 2–4 search the
//! flip-flop's *non-reconvergent fanin region* for the cheapest placement
//! of one MUX (the scan entry, possibly far upstream of the flip-flop,
//! Fig. 4) plus AND/OR test points or primary-input values that sensitize
//! the logic between the MUX and the flip-flop — all on nets whose slack
//! can absorb the inserted gate, so the clock period is untouched.
//!
//! Constants created along the chosen justification are **desired
//! constants** and are protected from later insertions; constants merely
//! implied as a by-product are **side-effect constants** and may be
//! overridden (§IV.A, Fig. 6).

use crate::progress::Progress;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;
use tpi_netlist::Region;
use tpi_netlist::{levelize, GateId, GateKind, Netlist, TechLibrary};
use tpi_scan::ChainLink;
use tpi_sim::{eval_by, Implication, Trit};
use tpi_sta::{ClockConstraint, Sta};

/// One structural action of a [`ScanPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanAction {
    /// Splice a scan multiplexer into the net (the scan entry point).
    InsertMux {
        /// Net to splice at.
        at: GateId,
    },
    /// Splice an AND test point (forces 0 in test mode).
    InsertAnd {
        /// Net to splice at.
        at: GateId,
    },
    /// Splice an OR test point (forces 1 in test mode).
    InsertOr {
        /// Net to splice at.
        at: GateId,
    },
    /// Hold a primary input at a constant in test mode (free).
    AssignPi {
        /// The primary input.
        pi: GateId,
        /// The held value.
        value: Trit,
    },
}

/// A zero-degradation plan to scan one flip-flop.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// The flip-flop being scanned.
    pub ff: GateId,
    /// Structural edits, in application order.
    pub actions: Vec<PlanAction>,
    /// Area cost (library units) of the inserted gates.
    pub area: f64,
    /// Polarity of the scan data from the MUX to the flip-flop.
    pub inverting: bool,
    /// Desired constants `(net, value)` this plan relies on; protected
    /// from later insertions.
    pub desired: Vec<(GateId, Trit)>,
    /// Nets the scan data rides through; must stay non-constant and
    /// unshared.
    pub route: Vec<GateId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Want {
    Scan,
    C0,
    C1,
}

impl Want {
    fn of(v: Trit) -> Want {
        match v {
            Trit::Zero => Want::C0,
            Trit::One => Want::C1,
            Trit::X => unreachable!("constants are always known"),
        }
    }
    fn value(self) -> Trit {
        match self {
            Want::C0 => Trit::Zero,
            Want::C1 => Trit::One,
            Want::Scan => Trit::X,
        }
    }
    /// What an inverter's input must carry for its output to meet `self`.
    fn inverse(self) -> Want {
        match self {
            Want::Scan => Want::Scan,
            Want::C0 => Want::C1,
            Want::C1 => Want::C0,
        }
    }
    /// The gate case 1 of the equation splices at the net.
    fn splice_kind(self) -> GateKind {
        match self {
            Want::Scan => GateKind::Mux,
            Want::C0 => GateKind::And,
            Want::C1 => GateKind::Or,
        }
    }
}

/// The cheapest Eq. 2–4 solution for scan data at a flip-flop's D net:
/// its area cost and polarity, and the edits, desired constants and
/// scan route of every case it chose, each list in the order the
/// recursion concatenates them (a sub-solution reached twice appears
/// twice).
#[derive(Debug, Clone, PartialEq)]
struct Solution {
    cost: f64,
    actions: Vec<PlanAction>,
    desired: Vec<(GateId, Trit)>,
    route: Vec<GateId>,
    inverting: bool,
}

/// The case of Eqs. 2–4 that gives one `(net, want)` its cheapest
/// solution; [`Equations::emit`] replays it.
#[derive(Debug, Clone, Copy)]
enum Choice {
    /// The net already carries the wanted constant, or is a constant
    /// gate of that value.
    Free,
    /// Case 1 of each equation: splice a MUX, AND or OR at the net.
    Splice,
    /// Hold the primary input at the wanted value.
    HoldPi,
    /// Through an inverter or a buffer.
    Through,
    /// Scan data rides fanin `j` of an AND/OR-family gate; every other
    /// fanin is sensitized.
    Ride(u32),
    /// Scan data rides fanin `j` of an XOR/XNOR gate; the other fanin
    /// is held at `side`.
    RideXor(u32, Trit),
    /// Fanin `j` takes the controlling value.
    Control(u32),
    /// Every fanin takes the non-controlling value.
    Sensitize,
    /// XOR/XNOR constant: fanin 0 is held at this value, fanin 1 at the
    /// one that completes the parity.
    Parity(Trit),
}

/// The cheapest solution of one `(net, want)`: its cost, polarity and
/// the case it came from.
#[derive(Debug, Clone, Copy)]
struct Best {
    cost: f64,
    inverting: bool,
    choice: Choice,
}

/// The cheaper of two solutions; on a tie, the one found first.
fn better(a: Option<Best>, b: Option<Best>) -> Option<Best> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if y.cost < x.cost { y } else { x }),
        (x, None) => x,
        (None, y) => y,
    }
}

/// One plan's evaluation of Eqs. 2–4 over a region: the cheapest
/// solution of every `(net, want)` the recursion reaches, kept as a
/// cost, a polarity and a [`Choice`] in a flat table indexed by the
/// net's position in the region's cone. Costs add in the order the
/// equations combine sub-solutions, and a later candidate replaces an
/// earlier one only when strictly cheaper, so the winner is the one
/// the merged solutions would pick; its lists are written once, by
/// [`Equations::emit`].
struct Equations<'a> {
    planner: &'a ScanPlanner,
    region: &'a Region,
    /// Per `(cone position, want)`: `None` until evaluated, then the
    /// cheapest solution or `Some(None)` when there is none.
    table: Vec<Option<Option<Best>>>,
}

impl<'a> Equations<'a> {
    fn new(planner: &'a ScanPlanner, region: &'a Region) -> Self {
        Equations { planner, region, table: vec![None; 3 * region.cone().len()] }
    }

    fn slot(&self, net: GateId, want: Want) -> usize {
        let i = self.region.cone_index(net).expect("Eqs. 2-4 stay in the fanin cone");
        3 * i + want as usize
    }

    /// Cost and polarity of the cheapest solution of `(net, want)`.
    /// `want` selects the equation: `Scan` for Eq. 2, `C0`/`C1` for
    /// Eqs. 3 and 4.
    fn solve(&mut self, net: GateId, want: Want) -> Option<(f64, bool)> {
        let slot = self.slot(net, want);
        let best = match self.table[slot] {
            Some(best) => best,
            None => {
                let best = self.evaluate(net, want);
                self.table[slot] = Some(best);
                best
            }
        };
        best.map(|b| (b.cost, b.inverting))
    }

    fn evaluate(&mut self, net: GateId, want: Want) -> Option<Best> {
        let p = self.planner;
        let cur = p.values[net.index()];
        let prot = p.protected.get(&net).copied();
        let on_route = p.route.contains(&net);

        if want != Want::Scan {
            let v = want.value();
            // Already carried (desired or side-effect constant of the
            // right polarity): free.
            if cur == v {
                return Some(Best { cost: 0.0, inverting: false, choice: Choice::Free });
            }
            // A desired constant of the opposite polarity, or a net
            // already carrying scan data, must not be disturbed.
            if prot.is_some_and(|p| p != v) || on_route {
                return None;
            }
        } else if on_route || prot.is_some() {
            // Scan data cannot ride a net another chain element uses, nor
            // a net pinned to a desired constant.
            return None;
        }

        // Case 1 of each equation: splice a gate here if the slack
        // absorbs it (and the net is not protected — checked above).
        let spliced = want.splice_kind();
        let direct = p.sta.can_insert(net, spliced).then(|| Best {
            cost: p.lib.cell(spliced).area,
            inverting: false,
            choice: Choice::Splice,
        });

        // Recursive cases: only within the non-reconvergent fanin region
        // (Theorem 1 lets us treat slack() as constant there).
        let recursive =
            if self.region.single_path(net) { self.evaluate_fanins(net, want) } else { None };

        better(direct, recursive)
    }

    /// The recursive cases of Eqs. 2–4 at `net`, which has a single
    /// path to the target.
    fn evaluate_fanins(&mut self, net: GateId, want: Want) -> Option<Best> {
        let p = self.planner;
        let kind = p.n.kind(net);
        let fanins = p.n.fanin(net);
        let best = |cost: f64, inverting: bool, choice: Choice| Best { cost, inverting, choice };
        match (kind, want) {
            (GateKind::Input, Want::C0 | Want::C1) => match p.pi_assign.get(&net) {
                Some(&held) if held != want.value() => None,
                _ => Some(best(0.0, false, Choice::HoldPi)),
            },
            (GateKind::Const0, Want::C0) | (GateKind::Const1, Want::C1) => {
                Some(best(0.0, false, Choice::Free))
            }
            (GateKind::Inv, w) => self
                .solve(fanins[0], w.inverse())
                .map(|(cost, inv)| best(cost, inv ^ (w == Want::Scan), Choice::Through)),
            (GateKind::Buf, w) => {
                self.solve(fanins[0], w).map(|(cost, inv)| best(cost, inv, Choice::Through))
            }
            (GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor, Want::Scan) => {
                let sens = Want::of(!controlling(kind));
                let mut cheapest = None;
                for (j, &fj) in fanins.iter().enumerate() {
                    let Some((mut cost, mut inverting)) = self.solve(fj, Want::Scan) else {
                        continue;
                    };
                    let mut sensitized = true;
                    for (k, &fk) in fanins.iter().enumerate() {
                        if k == j {
                            continue;
                        }
                        let Some((c, inv)) = self.solve(fk, sens) else {
                            sensitized = false;
                            break;
                        };
                        cost += c;
                        inverting ^= inv;
                    }
                    if sensitized {
                        cheapest =
                            better(cheapest, Some(best(cost, inverting, Choice::Ride(j as u32))));
                    }
                }
                cheapest.map(|b| Best { inverting: b.inverting ^ kind.inverts(), ..b })
            }
            (GateKind::Xor | GateKind::Xnor, Want::Scan) => {
                // The side value picks the polarity: XOR with side 0
                // buffers, with side 1 inverts (XNOR is the mirror).
                let mut cheapest = None;
                for (j, &fj) in fanins.iter().enumerate() {
                    let Some((ride, ride_inv)) = self.solve(fj, Want::Scan) else { continue };
                    for side in [Trit::Zero, Trit::One] {
                        let Some((c, inv)) = self.solve(fanins[1 - j], Want::of(side)) else {
                            continue;
                        };
                        let flips = (side == Trit::One) ^ (kind == GateKind::Xnor);
                        let choice = Choice::RideXor(j as u32, side);
                        cheapest =
                            better(cheapest, Some(best(ride + c, ride_inv ^ inv ^ flips, choice)));
                    }
                }
                cheapest
            }
            (GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor, w) => {
                let ctrl = controlling(kind);
                let out_for_ctrl = if kind.inverts() { !ctrl } else { ctrl };
                if w.value() == out_for_ctrl {
                    // One controlling input suffices: pick cheapest.
                    let mut cheapest = None;
                    for (j, &f) in fanins.iter().enumerate() {
                        let control = self.solve(f, Want::of(ctrl));
                        cheapest = better(
                            cheapest,
                            control.map(|(cost, inv)| best(cost, inv, Choice::Control(j as u32))),
                        );
                    }
                    cheapest
                } else {
                    // Every input must be sensitizing.
                    let (mut cost, mut inverting) = (0.0, false);
                    for &f in fanins {
                        let (c, inv) = self.solve(f, Want::of(!ctrl))?;
                        cost += c;
                        inverting ^= inv;
                    }
                    Some(best(cost, inverting, Choice::Sensitize))
                }
            }
            (GateKind::Xor | GateKind::Xnor, w) => {
                let mut cheapest = None;
                for first in [Trit::Zero, Trit::One] {
                    let second = parity_partner(kind, first, w.value());
                    let pair = match (
                        self.solve(fanins[0], Want::of(first)),
                        self.solve(fanins[1], Want::of(second)),
                    ) {
                        (Some((a, ia)), Some((b, ib))) => {
                            Some(best(a + b, ia ^ ib, Choice::Parity(first)))
                        }
                        _ => None,
                    };
                    cheapest = better(cheapest, pair);
                }
                cheapest
            }
            // FLIP-FLOP (Eqs. 2–4 last row), MUX, ports: no recursion.
            _ => None,
        }
    }

    /// Appends the cheapest solution of `(net, want)` to `out`: the
    /// chosen case's sub-solutions in the order the equations combine
    /// them, then the case's own edit and the net itself, on the route
    /// (`Scan`) or among the desired constants.
    fn emit(&self, net: GateId, want: Want, out: &mut Solution) {
        let best = self.table[self.slot(net, want)]
            .flatten()
            .expect("only evaluated, feasible solutions are emitted");
        let n = &self.planner.n;
        let kind = n.kind(net);
        let fanins = n.fanin(net);
        match best.choice {
            Choice::Free => {}
            Choice::Splice => out.actions.push(match want {
                Want::Scan => PlanAction::InsertMux { at: net },
                Want::C0 => PlanAction::InsertAnd { at: net },
                Want::C1 => PlanAction::InsertOr { at: net },
            }),
            Choice::HoldPi => {
                out.actions.push(PlanAction::AssignPi { pi: net, value: want.value() })
            }
            Choice::Through => {
                let inner = if kind == GateKind::Inv { want.inverse() } else { want };
                self.emit(fanins[0], inner, out);
            }
            Choice::Ride(j) => {
                let sens = Want::of(!controlling(kind));
                self.emit(fanins[j as usize], Want::Scan, out);
                for (k, &fk) in fanins.iter().enumerate() {
                    if k != j as usize {
                        self.emit(fk, sens, out);
                    }
                }
            }
            Choice::RideXor(j, side) => {
                self.emit(fanins[j as usize], Want::Scan, out);
                self.emit(fanins[1 - j as usize], Want::of(side), out);
            }
            Choice::Control(j) => {
                let ctrl = controlling(kind);
                self.emit(fanins[j as usize], Want::of(ctrl), out);
            }
            Choice::Sensitize => {
                let ctrl = controlling(kind);
                for &f in fanins {
                    self.emit(f, Want::of(!ctrl), out);
                }
            }
            Choice::Parity(first) => {
                self.emit(fanins[0], Want::of(first), out);
                self.emit(fanins[1], Want::of(parity_partner(kind, first, want.value())), out);
            }
        }
        match want {
            Want::Scan => out.route.push(net),
            w => out.desired.push((net, w.value())),
        }
    }
}

/// The controlling value of an AND/OR-family gate.
fn controlling(kind: GateKind) -> Trit {
    Trit::from(kind.controlling_value().expect("and/or family"))
}

/// The value fanin 1 of an XOR/XNOR needs, with fanin 0 at `first`, for
/// the output to be `out`.
fn parity_partner(kind: GateKind, first: Trit, out: Trit) -> Trit {
    match kind {
        GateKind::Xor => first.xor(out),
        _ => !first.xor(out),
    }
}

/// The evolving TPTIME state: owns the netlist, the (frozen-clock) STA,
/// the test-mode constant state, and the protections.
///
/// Typical use: [`ScanPlanner::new`], then per flip-flop either
/// [`ScanPlanner::plan_zero_degradation`] + [`ScanPlanner::commit`] or
/// the fallback [`ScanPlanner::scan_conventionally`]; finally
/// [`ScanPlanner::into_parts`] to stitch the chain.
///
/// # Example
///
/// See the `timing_driven_partial_scan` example and
/// `tpi_core::flow::PartialScanFlow` for end-to-end use.
#[derive(Debug)]
pub struct ScanPlanner {
    n: Netlist,
    lib: TechLibrary,
    sta: Sta,
    baseline_delay: f64,
    protected: HashMap<GateId, Trit>,
    route: HashSet<GateId>,
    pi_assign: HashMap<GateId, Trit>,
    /// Test-mode constant of every net: `T` pinned to 0, the assigned
    /// PIs pinned, everything else implied forward. Kept incrementally;
    /// after every edit it equals a from-scratch implication.
    values: Vec<Trit>,
    /// 0 for sources, above every fanin for the rest of the gates: the
    /// order in which the worklists re-evaluate gates. Kept as gates
    /// are spliced in.
    level: Vec<u32>,
    links: Vec<ChainLink>,
    test_points_inserted: usize,
    /// Physically inserted test-point gates with the constant each one
    /// forces, in insertion order (feeds the independent verifier).
    physical_tps: Vec<(GateId, Trit)>,
    /// Per committed plan: the target flip-flop and every gate the plan
    /// inserted (mux and test points), for the region-placement check.
    placements: Vec<(GateId, Vec<GateId>)>,
    /// Dangling-input placeholder wired to every scan mux's d0 pin until
    /// chain stitching rewires it; stays X in test mode so the constant
    /// analysis sees the mux output as (unknown) scan data.
    scan_stub: Option<GateId>,
    /// Run counters (planning attempts, placed test points). Atomic, so
    /// parallel speculative planning over `&ScanPlanner` counts too.
    progress: Arc<Progress>,
}

impl ScanPlanner {
    /// Takes ownership of the netlist, runs the baseline STA (longest
    /// path as the constraint, per the paper's setup) and freezes the
    /// clock.
    ///
    /// # Panics
    /// Panics if the netlist has a combinational cycle.
    pub fn new(n: Netlist, lib: TechLibrary) -> Self {
        let mut sta = Sta::analyze(&n, &lib, ClockConstraint::LongestPath);
        let baseline_delay = sta.circuit_delay();
        sta.freeze_clock();
        let values = compute_values(&n, &HashMap::new());
        let level = levelize(&n).expect("netlist must be acyclic");
        ScanPlanner {
            n,
            lib,
            sta,
            baseline_delay,
            protected: HashMap::new(),
            route: HashSet::new(),
            pi_assign: HashMap::new(),
            values,
            level,
            links: Vec::new(),
            test_points_inserted: 0,
            physical_tps: Vec::new(),
            placements: Vec::new(),
            scan_stub: None,
            progress: Arc::new(Progress::new()),
        }
    }

    /// Attaches a shared [`Progress`] token for run counters. Planning is
    /// read-only, so the counters are atomic and speculative parallel
    /// planning (see `PartialScanFlow`) counts through a shared
    /// reference; `plans_attempted` is therefore the one counter that may
    /// vary with the worker count.
    pub fn with_progress(mut self, progress: Arc<Progress>) -> Self {
        self.progress = progress;
        self
    }

    fn ensure_scan_stub(n: &mut Netlist, slot: &mut Option<GateId>) -> GateId {
        *slot.get_or_insert_with(|| n.add_input("scan_stub"))
    }

    /// The circuit delay before any DFT edit.
    #[inline]
    pub fn baseline_delay(&self) -> f64 {
        self.baseline_delay
    }

    /// The current circuit delay.
    #[inline]
    pub fn current_delay(&self) -> f64 {
        self.sta.circuit_delay()
    }

    /// The evolving netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.n
    }

    /// The current timing view.
    #[inline]
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// Chain links committed so far.
    #[inline]
    pub fn links(&self) -> &[ChainLink] {
        &self.links
    }

    /// Primary-input constants required in test mode.
    pub fn pi_assignments(&self) -> Vec<(GateId, Trit)> {
        let mut v: Vec<_> = self.pi_assign.iter().map(|(&k, &x)| (k, x)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Test points physically inserted so far.
    #[inline]
    pub fn test_point_count(&self) -> usize {
        self.test_points_inserted
    }

    /// Physically inserted test-point gates and the constant each one
    /// forces, in insertion order.
    #[inline]
    pub fn physical_test_points(&self) -> &[(GateId, Trit)] {
        &self.physical_tps
    }

    /// Per committed plan: the target flip-flop and the gates the plan
    /// inserted for it. Conventional conversions are not listed — only
    /// region-planned commits, which is exactly what the placement
    /// verifier re-checks against Definition 1.
    #[inline]
    pub fn placements(&self) -> &[(GateId, Vec<GateId>)] {
        &self.placements
    }

    /// True when a conventional scan mux fits the flip-flop's D
    /// connection without touching the clock (the TD-CB selectability
    /// rule of ref. \[7\]).
    pub fn mux_fits_directly(&self, ff: GateId) -> bool {
        let t_mux = self.lib.cell(GateKind::Mux).delay(1.0);
        self.sta.endpoint_slack(&self.n, ff) > t_mux
    }

    /// Searches the flip-flop's non-reconvergent fanin region for a
    /// zero-degradation scan plan (Equations 2–4). Returns `None` when no
    /// such plan exists; the caller then marks the flip-flop, as §IV.B
    /// prescribes.
    pub fn plan_zero_degradation(&self, ff: GateId) -> Option<ScanPlan> {
        let (plan, new_pis) = self.candidate_plan(ff)?;
        // The plan's physical side effects must not disturb any earlier
        // desired constant or put a constant on any scan route (the
        // paper's rule that subsequent insertions never destroy previous
        // efforts).
        self.plan_keeps_protections(&plan, &new_pis).then_some(plan)
    }

    /// The cheapest Eq. 2–4 plan for `ff` whose PI requirements agree
    /// with each other and with the accumulated assignment, plus the PI
    /// assignments it adds; not yet checked against the protections.
    fn candidate_plan(&self, ff: GateId) -> Option<(ScanPlan, Vec<(GateId, Trit)>)> {
        debug_assert_eq!(self.n.kind(ff), GateKind::Dff);
        self.progress.add_plans_attempted(1);
        let d = self.n.fanin(ff)[0];
        let region = Region::build(&self.n, d);
        let sol = self.cheapest_solution(d, &region)?;
        let mut new_pis: Vec<(GateId, Trit)> = Vec::new();
        for a in &sol.actions {
            if let PlanAction::AssignPi { pi, value } = *a {
                let prev = self
                    .pi_assign
                    .get(&pi)
                    .copied()
                    .or_else(|| new_pis.iter().find(|&&(p, _)| p == pi).map(|&(_, v)| v));
                match prev {
                    Some(prev) if prev != value => return None,
                    Some(_) => {}
                    None => new_pis.push((pi, value)),
                }
            }
        }
        let mut route = sol.route.clone();
        route.push(d);
        route.sort_unstable();
        route.dedup();
        // A memoized sub-solution can appear in several branches of the
        // same plan (e.g. one shared control pin sensitizing two side
        // inputs): keep the first occurrence of each action so the
        // physical edit happens exactly once.
        let mut seen = HashSet::new();
        let actions: Vec<PlanAction> =
            sol.actions.iter().copied().filter(|a| seen.insert(*a)).collect();
        let plan = ScanPlan {
            ff,
            actions,
            area: sol.cost,
            inverting: sol.inverting,
            desired: sol.desired,
            route,
        };
        Some((plan, new_pis))
    }

    /// The cheapest Eq. 2–4 solution for scan data at `d`, the D net
    /// of a flip-flop, searched within `d`'s region.
    fn cheapest_solution(&self, d: GateId, region: &Region) -> Option<Solution> {
        let mut equations = Equations::new(self, region);
        let (cost, inverting) = equations.solve(d, Want::Scan)?;
        let mut sol = Solution { cost, actions: vec![], desired: vec![], route: vec![], inverting };
        equations.emit(d, Want::Scan, &mut sol);
        Some(sol)
    }

    /// Decides whether `plan`, with the PI assignments `new_pis` it adds,
    /// keeps every protection, without applying it: the constants the
    /// netlist would carry afterwards are derived on a sparse overlay of
    /// `values`, re-evaluating only the fanout cones of the spliced nets
    /// and of the newly held PIs.
    fn plan_keeps_protections(&self, plan: &ScanPlan, new_pis: &[(GateId, Trit)]) -> bool {
        // What the consumers of a spliced net read: the gate spliced
        // there first ends up driving them, and with `T = 0` it forces 0
        // (AND), 1 (OR) or passes the unknown scan data (MUX).
        let mut spliced: HashMap<GateId, Trit> = HashMap::new();
        // A desired constant on a spliced net is realized on the last
        // AND/OR gate spliced there, as `commit` protects it.
        let mut realized: HashMap<GateId, Trit> = HashMap::new();
        for action in &plan.actions {
            let (at, v) = match *action {
                PlanAction::InsertMux { at } => (at, Trit::X),
                PlanAction::InsertAnd { at } => (at, Trit::Zero),
                PlanAction::InsertOr { at } => (at, Trit::One),
                PlanAction::AssignPi { .. } => continue,
            };
            if self.n.kind(at) == GateKind::Output {
                return false; // no gate can be spliced onto an output port
            }
            spliced.entry(at).or_insert(v);
            if v.is_known() {
                realized.insert(at, v);
            }
        }
        // Nets whose value the plan changes, with their new values.
        let mut changed: HashMap<GateId, Trit> = HashMap::new();
        let value = |changed: &HashMap<GateId, Trit>, g: GateId| {
            changed.get(&g).copied().unwrap_or(self.values[g.index()])
        };
        let mut work = Worklist::default();
        for &at in spliced.keys() {
            work.push_sinks(self, at);
        }
        for &(pi, v) in new_pis {
            changed.insert(pi, v);
            work.push_sinks(self, pi);
        }
        while let Some(g) = work.pop() {
            let fanin = self.n.fanin(g);
            let new = eval_by(self.n.kind(g), fanin.len(), |j| {
                spliced.get(&fanin[j]).copied().unwrap_or_else(|| value(&changed, fanin[j]))
            });
            if new == value(&changed, g) {
                continue;
            }
            changed.insert(g, new);
            work.push_sinks(self, g);
        }
        // Every earlier desired constant and route held before the plan,
        // so only a net the plan changes can break one.
        for (&g, &v) in &changed {
            if self.protected.get(&g).is_some_and(|&p| p != v)
                || (v.is_known() && self.route.contains(&g))
            {
                return false;
            }
        }
        // This plan's own desired constants must be realized, and its
        // route must stay free of constants.
        plan.desired.iter().all(|&(net, v)| {
            realized.get(&net).copied().unwrap_or_else(|| value(&changed, net)) == v
        }) && plan.route.iter().all(|&r| !value(&changed, r).is_known())
    }

    /// Applies `plan` to a clone of the netlist and re-derives the
    /// test-mode constants from scratch; checks every protection. The
    /// reference [`ScanPlanner::plan_keeps_protections`] is tested
    /// against.
    #[cfg(test)]
    fn plan_globally_consistent(&self, plan: &ScanPlan, pis: &HashMap<GateId, Trit>) -> bool {
        let mut trial = self.n.clone();
        let mut stub_slot = self.scan_stub;
        let mut renames: HashMap<GateId, GateId> = HashMap::new();
        for action in &plan.actions {
            let ok = match *action {
                PlanAction::InsertMux { at } => {
                    trial.ensure_test_input();
                    let stub = Self::ensure_scan_stub(&mut trial, &mut stub_slot);
                    trial.insert_scan_mux(at, stub).is_ok()
                }
                PlanAction::InsertAnd { at } => match trial.insert_and_test_point(at) {
                    Ok(tp) => {
                        renames.insert(at, tp);
                        true
                    }
                    Err(_) => false,
                },
                PlanAction::InsertOr { at } => match trial.insert_or_test_point(at) {
                    Ok(tp) => {
                        renames.insert(at, tp);
                        true
                    }
                    Err(_) => false,
                },
                PlanAction::AssignPi { .. } => true,
            };
            if !ok {
                return false;
            }
        }
        let values = compute_values(&trial, pis);
        // Earlier desired constants must survive.
        for (&net, &v) in &self.protected {
            if values[net.index()] != v {
                return false;
            }
        }
        // This plan's own desired constants must be realized.
        for &(net, v) in &plan.desired {
            let eff = renames.get(&net).copied().unwrap_or(net);
            if values[eff.index()] != v {
                return false;
            }
        }
        // No constant may land on any scan route, old or new.
        for &r in self.route.iter().chain(plan.route.iter()) {
            if values[r.index()].is_known() {
                return false;
            }
        }
        true
    }

    /// Applies a plan physically: splices the gates, records protections,
    /// updates timing and the test-mode constants incrementally and
    /// appends the resulting chain link.
    ///
    /// # Panics
    /// Panics (in debug builds) if the committed plan fails its own
    /// post-conditions: desired constants not realized or clock period
    /// degraded.
    pub fn commit(&mut self, plan: &ScanPlan) -> ChainLink {
        let first_new = self.n.gate_count();
        let mut pinned: Vec<GateId> = Vec::new();
        let mut mux: Option<GateId> = None;
        let mut inserted: Vec<GateId> = Vec::new();
        // Net translation: inserting a gate at `net` moves the constant
        // seen by consumers to the new gate's output.
        let mut renames: HashMap<GateId, GateId> = HashMap::new();
        for action in &plan.actions {
            match *action {
                PlanAction::InsertMux { at } => {
                    self.n.ensure_test_input();
                    let stub = Self::ensure_scan_stub(&mut self.n, &mut self.scan_stub);
                    let m = self.n.insert_scan_mux(at, stub).expect("plan nets are valid");
                    self.seed_sta(m, at);
                    mux = Some(m);
                    self.route.insert(m);
                    inserted.push(m);
                }
                PlanAction::InsertAnd { at } => {
                    let tp = self.n.insert_and_test_point(at).expect("plan nets are valid");
                    self.seed_sta(tp, at);
                    renames.insert(at, tp);
                    self.test_points_inserted += 1;
                    self.physical_tps.push((tp, Trit::Zero));
                    inserted.push(tp);
                }
                PlanAction::InsertOr { at } => {
                    let tp = self.n.insert_or_test_point(at).expect("plan nets are valid");
                    self.seed_sta(tp, at);
                    renames.insert(at, tp);
                    self.test_points_inserted += 1;
                    self.physical_tps.push((tp, Trit::One));
                    inserted.push(tp);
                }
                PlanAction::AssignPi { pi, value } => {
                    if self.pi_assign.insert(pi, value).is_none() {
                        pinned.push(pi);
                    }
                }
            }
        }
        self.placements.push((plan.ff, inserted));
        self.progress.add_test_points_placed(
            plan.actions
                .iter()
                .filter(|a| matches!(a, PlanAction::InsertAnd { .. } | PlanAction::InsertOr { .. }))
                .count() as u64,
        );
        for &(net, v) in &plan.desired {
            // Splicing a gate at `net` moves the constant consumers see to
            // the new gate's output; protect the effective net.
            let effective = renames.get(&net).copied().unwrap_or(net);
            self.protected.insert(effective, v);
        }
        for &r in &plan.route {
            self.route.insert(r);
        }
        self.propagate_edit(first_new, &pinned);
        debug_assert!(self.verify_desired(), "desired constants must hold after commit");
        debug_assert!(
            self.route.iter().all(|r| !self.values[r.index()].is_known()),
            "scan routes must stay free of constants after commit"
        );
        debug_assert!(
            self.sta.circuit_delay() <= self.baseline_delay + 1e-9,
            "zero-degradation plan must not move the clock: {} -> {}",
            self.baseline_delay,
            self.sta.circuit_delay()
        );
        let link = ChainLink::Mux {
            mux: mux.expect("every scan plan contains exactly one mux"),
            ff: plan.ff,
            inverting: plan.inverting,
        };
        self.links.push(link);
        link
    }

    /// Conventional MUXed-D conversion at the flip-flop's D pin,
    /// regardless of slack (the CB baseline and the minimal-degradation
    /// fallback both use this).
    pub fn scan_conventionally(&mut self, ff: GateId) -> ChainLink {
        let first_new = self.n.gate_count();
        self.n.ensure_test_input();
        let stub = Self::ensure_scan_stub(&mut self.n, &mut self.scan_stub);
        let mux =
            self.n.insert_scan_mux_at_pin(ff, 0, stub).expect("flip-flops always have a D pin");
        self.seed_sta(mux, ff);
        // The mux feeds only the flip-flop's D pin: no existing net moves.
        self.propagate_edit(first_new, &[]);
        let link = ChainLink::Mux { mux, ff, inverting: false };
        self.links.push(link);
        link
    }

    fn seed_sta(&mut self, new_gate: GateId, spliced_at: GateId) {
        let mut seeds = vec![new_gate, spliced_at];
        seeds.extend(self.n.fanin(new_gate).iter().copied());
        if let Some(t) = self.n.test_input() {
            seeds.push(t);
        }
        if let Some(tb) = self.n.test_input_bar() {
            seeds.push(tb);
        }
        self.sta.update_after_edit(&self.n, &seeds);
    }

    /// Brings `level` and `values` up to date after an edit that added
    /// the gates from index `first_new` on and newly pinned the PIs in
    /// `pinned`. Only the fanout cones of those gates are re-evaluated,
    /// each gate after its changed fanins.
    fn propagate_edit(&mut self, first_new: usize, pinned: &[GateId]) {
        let count = self.n.gate_count();
        self.values.resize(count, Trit::X);
        self.level.resize(count, 0);
        // A new gate sits above its fanins and lifts every sink that is
        // not above it yet.
        let mut lift: Vec<GateId> = (first_new..count).map(GateId::from_index).collect();
        while let Some(g) = lift.pop() {
            if self.n.kind(g).is_source() {
                continue;
            }
            let need = 1 + self.n.fanin(g).iter().map(|f| self.level[f.index()]).max().unwrap_or(0);
            if need > self.level[g.index()] {
                self.level[g.index()] = need;
                lift.extend(
                    self.n
                        .fanout(g)
                        .iter()
                        .map(|&(s, _)| s)
                        .filter(|s| !self.n.kind(*s).is_source()),
                );
            }
        }
        let is_seed = |g: GateId| g.index() >= first_new || pinned.contains(&g);
        let mut work = Worklist::default();
        for g in (first_new..count).map(GateId::from_index).chain(pinned.iter().copied()) {
            work.push(self, g);
        }
        while let Some(g) = work.pop() {
            let new = self.pin(g).unwrap_or_else(|| {
                let fanin = self.n.fanin(g);
                eval_by(self.n.kind(g), fanin.len(), |j| self.values[fanin[j].index()])
            });
            // A new gate's consumers read it instead of the net it was
            // spliced onto, so they are re-evaluated even when its value
            // happens to match its placeholder.
            if new == self.values[g.index()] && !is_seed(g) {
                continue;
            }
            self.values[g.index()] = new;
            work.push_sinks(self, g);
        }
    }

    /// The value `g` is held at in test mode, if any: an assigned PI's
    /// value, else 0 on `T` (an assignment wins, as in `compute_values`).
    fn pin(&self, g: GateId) -> Option<Trit> {
        self.pi_assign
            .get(&g)
            .copied()
            .or_else(|| (Some(g) == self.n.test_input()).then_some(Trit::Zero))
    }

    fn verify_desired(&self) -> bool {
        self.protected.iter().all(|(&net, &v)| self.values[net.index()] == v)
    }

    /// Decomposes the planner into the transformed netlist, the chain
    /// links, the final timing view and the PI assignments.
    pub fn into_parts(self) -> (Netlist, Vec<ChainLink>, Sta, Vec<(GateId, Trit)>) {
        let pis = self.pi_assignments();
        (self.n, self.links, self.sta, pis)
    }
}

/// Gates awaiting re-evaluation, popped in level order so that each gate
/// is evaluated once, after all of its changed fanins.
#[derive(Default)]
struct Worklist {
    heap: BinaryHeap<Reverse<(u32, GateId)>>,
    last: Option<GateId>,
}

impl Worklist {
    fn push(&mut self, planner: &ScanPlanner, g: GateId) {
        self.heap.push(Reverse((planner.level[g.index()], g)));
    }

    /// Queues the combinational consumers of `g`'s net: ports,
    /// flip-flops and constants never take a value from their fanins.
    fn push_sinks(&mut self, planner: &ScanPlanner, g: GateId) {
        for &(sink, _) in planner.n.fanout(g) {
            if planner.n.kind(sink).is_combinational() {
                self.push(planner, sink);
            }
        }
    }

    fn pop(&mut self) -> Option<GateId> {
        // A sink's level is above all of its fanins', so a gate is never
        // queued again once popped; copies of it pop back to back.
        while let Some(Reverse((_, g))) = self.heap.pop() {
            if self.last.replace(g) != Some(g) {
                return Some(g);
            }
        }
        None
    }
}

/// Test-mode constant state: `T = 0` (and therefore `T' = 1`) plus the
/// accumulated PI assignments, propagated through the netlist.
fn compute_values(n: &Netlist, pi_assign: &HashMap<GateId, Trit>) -> Vec<Trit> {
    let mut imp = Implication::new(n);
    if let Some(t) = n.test_input() {
        imp.force(t, Trit::Zero);
    }
    for (&pi, &v) in pi_assign {
        imp.force(pi, v);
    }
    n.gate_ids().map(|g| imp.value(g)).collect()
}

/// The reference Eq. 2–4 recursion the table in [`Equations`] is held
/// to: it builds a whole [`Solution`] per `(net, want)`, merging and
/// cloning sub-solutions, with a `HashMap` memo. Kept as it stood
/// before the table replaced it.
#[cfg(test)]
mod oracle {
    use super::*;

    impl Solution {
        fn free(net: GateId, v: Trit) -> Self {
            Solution {
                cost: 0.0,
                actions: vec![],
                desired: vec![(net, v)],
                route: vec![],
                inverting: false,
            }
        }
        fn merge(mut self, other: Solution) -> Self {
            self.cost += other.cost;
            self.actions.extend(other.actions);
            self.desired.extend(other.desired);
            self.route.extend(other.route);
            self.inverting ^= other.inverting;
            self
        }
    }

    fn better(a: Option<Solution>, b: Option<Solution>) -> Option<Solution> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if y.cost < x.cost { y } else { x }),
            (x, None) => x,
            (None, y) => y,
        }
    }

    impl ScanPlanner {
        /// The reference solution for scan data at `d`.
        pub(super) fn oracle_solution(&self, d: GateId, region: &Region) -> Option<Solution> {
            self.solve(d, Want::Scan, region, &mut HashMap::new())
        }

        /// The Eq. 2–4 recursion. `want` selects the equation: `Scan` for
        /// Eq. 2, `C0`/`C1` for Eqs. 3 and 4.
        fn solve(
            &self,
            net: GateId,
            want: Want,
            region: &Region,
            memo: &mut HashMap<(GateId, Want), Option<Solution>>,
        ) -> Option<Solution> {
            if let Some(hit) = memo.get(&(net, want)) {
                return hit.clone();
            }
            let sol = self.solve_uncached(net, want, region, memo);
            memo.insert((net, want), sol.clone());
            sol
        }

        fn solve_uncached(
            &self,
            net: GateId,
            want: Want,
            region: &Region,
            memo: &mut HashMap<(GateId, Want), Option<Solution>>,
        ) -> Option<Solution> {
            let kind = self.n.kind(net);
            let cur = self.values[net.index()];
            let prot = self.protected.get(&net).copied();
            let on_route = self.route.contains(&net);

            if want != Want::Scan {
                let v = want.value();
                // Already carried (desired or side-effect constant of the
                // right polarity): free.
                if cur == v {
                    return Some(Solution::free(net, v));
                }
                // A desired constant of the opposite polarity, or a net
                // already carrying scan data, must not be disturbed.
                if prot.is_some_and(|p| p != v) || on_route {
                    return None;
                }
            } else {
                // Scan data cannot ride a net another chain element uses, nor
                // a net pinned to a desired constant.
                if on_route || prot.is_some() {
                    return None;
                }
            }

            // Case 1 of each equation: splice a gate here if the slack
            // absorbs it (and the net is not protected — checked above).
            let direct: Option<Solution> = {
                let (gk, act): (GateKind, fn(GateId) -> PlanAction) = match want {
                    Want::Scan => (GateKind::Mux, |g| PlanAction::InsertMux { at: g }),
                    Want::C0 => (GateKind::And, |g| PlanAction::InsertAnd { at: g }),
                    Want::C1 => (GateKind::Or, |g| PlanAction::InsertOr { at: g }),
                };
                if self.sta.can_insert(net, gk) {
                    let mut s = Solution {
                        cost: self.lib.cell(gk).area,
                        actions: vec![act(net)],
                        desired: vec![],
                        route: vec![],
                        inverting: false,
                    };
                    match want {
                        Want::Scan => s.route.push(net),
                        _ => s.desired.push((net, want.value())),
                    }
                    Some(s)
                } else {
                    None
                }
            };

            // Recursive cases: only within the non-reconvergent fanin region
            // (Theorem 1 lets us treat slack() as constant there).
            let recursive: Option<Solution> = if !region.single_path(net) {
                None
            } else {
                let fanins: Vec<GateId> = self.n.fanin(net).to_vec();
                match (kind, want) {
                    (GateKind::Input, Want::C0 | Want::C1) => {
                        let v = want.value();
                        match self.pi_assign.get(&net) {
                            Some(&p) if p != v => None,
                            _ => Some(Solution {
                                cost: 0.0,
                                actions: vec![PlanAction::AssignPi { pi: net, value: v }],
                                desired: vec![(net, v)],
                                route: vec![],
                                inverting: false,
                            }),
                        }
                    }
                    (GateKind::Const0, Want::C0) | (GateKind::Const1, Want::C1) => {
                        Some(Solution::free(net, want.value()))
                    }
                    (GateKind::Inv, w) => {
                        let inner = match w {
                            Want::Scan => Want::Scan,
                            Want::C0 => Want::C1,
                            Want::C1 => Want::C0,
                        };
                        self.solve(fanins[0], inner, region, memo).map(|mut s| {
                            if w == Want::Scan {
                                s.inverting = !s.inverting;
                                s.route.push(net);
                            } else {
                                s.desired.push((net, w.value()));
                            }
                            s
                        })
                    }
                    (GateKind::Buf, w) => self.solve(fanins[0], w, region, memo).map(|mut s| {
                        if w == Want::Scan {
                            s.route.push(net);
                        } else {
                            s.desired.push((net, w.value()));
                        }
                        s
                    }),
                    (GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor, Want::Scan) => {
                        let sens = Trit::from(!kind.controlling_value().expect("and/or family"));
                        let mut best: Option<Solution> = None;
                        for (j, &fj) in fanins.iter().enumerate() {
                            let Some(ride) = self.solve(fj, Want::Scan, region, memo) else {
                                continue;
                            };
                            let mut total = Some(ride);
                            for (k, &fk) in fanins.iter().enumerate() {
                                if k == j {
                                    continue;
                                }
                                total = match (total, self.solve(fk, Want::of(sens), region, memo))
                                {
                                    (Some(t), Some(s)) => Some(t.merge(s)),
                                    _ => None,
                                };
                            }
                            best = better(best, total);
                        }
                        best.map(|mut s| {
                            if kind.inverts() {
                                s.inverting = !s.inverting;
                            }
                            s.route.push(net);
                            s
                        })
                    }
                    (GateKind::Xor | GateKind::Xnor, Want::Scan) => {
                        // The side value picks the polarity: XOR with side 0
                        // buffers, with side 1 inverts (XNOR is the mirror).
                        let mut best: Option<Solution> = None;
                        for (j, &fj) in fanins.iter().enumerate() {
                            let Some(ride) = self.solve(fj, Want::Scan, region, memo) else {
                                continue;
                            };
                            let fk = fanins[1 - j];
                            for side in [Trit::Zero, Trit::One] {
                                let Some(cst) = self.solve(fk, Want::of(side), region, memo) else {
                                    continue;
                                };
                                let mut t = ride.clone().merge(cst);
                                let flips = (side == Trit::One) ^ (kind == GateKind::Xnor);
                                if flips {
                                    t.inverting = !t.inverting;
                                }
                                best = better(best, Some(t));
                            }
                        }
                        best.map(|mut s| {
                            s.route.push(net);
                            s
                        })
                    }
                    (GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor, w) => {
                        let v = w.value();
                        let ctrl = Trit::from(kind.controlling_value().expect("and/or family"));
                        let out_for_ctrl = if kind.inverts() { !ctrl } else { ctrl };
                        let sol = if v == out_for_ctrl {
                            // One controlling input suffices: pick cheapest.
                            let mut best: Option<Solution> = None;
                            for &f in &fanins {
                                best = better(best, self.solve(f, Want::of(ctrl), region, memo));
                            }
                            best
                        } else {
                            // Every input must be sensitizing.
                            let mut total = Some(Solution {
                                cost: 0.0,
                                actions: vec![],
                                desired: vec![],
                                route: vec![],
                                inverting: false,
                            });
                            for &f in &fanins {
                                total = match (total, self.solve(f, Want::of(!ctrl), region, memo))
                                {
                                    (Some(t), Some(s)) => Some(t.merge(s)),
                                    _ => None,
                                };
                            }
                            total
                        };
                        sol.map(|mut s| {
                            s.desired.push((net, v));
                            s
                        })
                    }
                    (GateKind::Xor | GateKind::Xnor, w) => {
                        let vwant = w.value();
                        let mut best: Option<Solution> = None;
                        for first in [Trit::Zero, Trit::One] {
                            let second = match kind {
                                GateKind::Xor => first.xor(vwant),
                                _ => !first.xor(vwant),
                            };
                            let t = match (
                                self.solve(fanins[0], Want::of(first), region, memo),
                                self.solve(fanins[1], Want::of(second), region, memo),
                            ) {
                                (Some(a), Some(b)) => Some(a.merge(b)),
                                _ => None,
                            };
                            best = better(best, t);
                        }
                        best.map(|mut s| {
                            s.desired.push((net, vwant));
                            s
                        })
                    }
                    // FLIP-FLOP (Eqs. 2–4 last row), MUX, ports: no recursion.
                    _ => None,
                }
            };

            better(direct, recursive)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::NetlistBuilder;

    /// The paper's Figure 3 shape: a critical path runs through g1/g2
    /// into F2, so a mux directly at F2's D would degrade timing; but
    /// side inputs a (OR-able) and c (via b) have slack, so test points
    /// establish F1 -> g1 -> g2 -> F2 with zero degradation.
    fn fig3_like() -> (Netlist, GateId) {
        let mut b = NetlistBuilder::new("fig3");
        b.input("pi_a");
        b.input("pi_b");
        b.input("crit");
        b.input("d1");
        b.dff("f1", "d1");
        // long critical chain from `crit`
        b.gate(GateKind::Inv, "c1", &["crit"]);
        b.gate(GateKind::Inv, "c2", &["c1"]);
        b.gate(GateKind::Inv, "c3", &["c2"]);
        b.gate(GateKind::Inv, "c4", &["c3"]);
        b.gate(GateKind::Inv, "c5", &["c4"]);
        // b -> c side logic (short: has slack)
        b.gate(GateKind::Inv, "cnet", &["pi_b"]);
        // g1 = OR(f1, a-side) ; g2 = AND(g1, cnet, critical)
        b.gate(GateKind::Or, "g1", &["f1", "pi_a"]);
        b.gate(GateKind::And, "g2", &["g1", "cnet", "c5"]);
        b.dff("f2", "g2");
        b.output("o", "f2");
        let n = b.finish().unwrap();
        let f2 = n.find("f2").unwrap();
        (n, f2)
    }

    #[test]
    fn conventional_mux_fits_when_slack_allows() {
        let mut b = NetlistBuilder::new("t");
        b.input("d");
        b.input("crit");
        b.dff("fa", "d");
        // make a long path elsewhere so `fa`'s D has slack
        b.gate(GateKind::Inv, "i1", &["crit"]);
        b.gate(GateKind::Inv, "i2", &["i1"]);
        b.gate(GateKind::Inv, "i3", &["i2"]);
        b.gate(GateKind::Inv, "i4", &["i3"]);
        b.dff("fb", "i4");
        b.output("o", "fb");
        let n = b.finish().unwrap();
        let fa = n.find("fa").unwrap();
        let fb = n.find("fb").unwrap();
        let planner = ScanPlanner::new(n, TechLibrary::paper());
        assert!(planner.mux_fits_directly(fa));
        assert!(!planner.mux_fits_directly(fb), "fb's D is the critical endpoint");
    }

    #[test]
    fn zero_degradation_plan_exists_for_fig3() {
        let (n, f2) = fig3_like();
        let planner = ScanPlanner::new(n, TechLibrary::paper());
        assert!(!planner.mux_fits_directly(f2), "f2 sits at the end of the critical path");
        let plan = planner.plan_zero_degradation(f2).expect("fig3 has a zero-cost route");
        assert!(plan.actions.iter().any(|a| matches!(a, PlanAction::InsertMux { .. })));
        assert!(plan.area > 0.0);
    }

    #[test]
    fn committed_plan_keeps_the_clock() {
        let (n, f2) = fig3_like();
        let mut planner = ScanPlanner::new(n, TechLibrary::paper());
        let d0 = planner.baseline_delay();
        let plan = planner.plan_zero_degradation(f2).unwrap();
        let link = planner.commit(&plan);
        assert!(matches!(link, ChainLink::Mux { ff, .. } if ff == f2));
        assert!(planner.current_delay() <= d0 + 1e-9, "{} > {}", planner.current_delay(), d0);
        planner.netlist().validate().unwrap();
    }

    #[test]
    fn conventional_conversion_may_degrade() {
        let (n, f2) = fig3_like();
        let mut planner = ScanPlanner::new(n, TechLibrary::paper());
        let d0 = planner.baseline_delay();
        planner.scan_conventionally(f2);
        assert!(planner.current_delay() > d0, "mux on the critical D must slow the clock");
    }

    #[test]
    fn desired_constants_block_later_conflicting_plans() {
        let (n, f2) = fig3_like();
        let mut planner = ScanPlanner::new(n, TechLibrary::paper());
        let plan = planner.plan_zero_degradation(f2).unwrap();
        planner.commit(&plan);
        // Re-planning the same FF must fail: its D net is now on a route.
        assert!(planner.plan_zero_degradation(f2).is_none());
    }

    #[test]
    fn pi_assignment_is_used_when_cheapest() {
        // F1 -> OR(f1, pi_a) -> F2, where g1 carries a heavy fanout load
        // (mux there would cost 3.0 slack against 2.8 available) but F1's
        // net has room for the 2.2 mux. The cheapest plan rides from F1
        // and sensitizes the OR's side input by assigning pi_a = 0 for
        // free: exactly one paid gate (the MUX, Fig. 4's transformation).
        let mut b = NetlistBuilder::new("t");
        b.input("pi_a");
        b.input("d1");
        b.input("crit");
        b.dff("f1", "d1");
        b.gate(GateKind::Or, "g1", &["f1", "pi_a"]);
        b.dff("f2", "g1");
        // Extra fanout load on g1 (dangling sinks are fine for STA).
        b.gate(GateKind::Inv, "l1", &["g1"]);
        b.gate(GateKind::Inv, "l2", &["g1"]);
        b.gate(GateKind::Inv, "l3", &["g1"]);
        b.gate(GateKind::Inv, "l4", &["g1"]);
        // Critical path elsewhere: 10 inverters set the clock to 7.0.
        b.gate(GateKind::Inv, "i1", &["crit"]);
        b.gate(GateKind::Inv, "i2", &["i1"]);
        b.gate(GateKind::Inv, "i3", &["i2"]);
        b.gate(GateKind::Inv, "i4", &["i3"]);
        b.gate(GateKind::Inv, "i5", &["i4"]);
        b.gate(GateKind::Inv, "i6", &["i5"]);
        b.gate(GateKind::Inv, "i7", &["i6"]);
        b.gate(GateKind::Inv, "i8", &["i7"]);
        b.gate(GateKind::Inv, "i9", &["i8"]);
        b.gate(GateKind::Inv, "i10", &["i9"]);
        b.dff("f3", "i10");
        b.output("o", "f2");
        b.output("o2", "f3");
        let n = b.finish().unwrap();
        let f2 = n.find("f2").unwrap();
        let f1 = n.find("f1").unwrap();
        let pi_a = n.find("pi_a").unwrap();
        let planner = ScanPlanner::new(n, TechLibrary::paper());
        let plan = planner.plan_zero_degradation(f2).unwrap();
        let mux_area = TechLibrary::paper().cell(GateKind::Mux).area;
        assert!((plan.area - mux_area).abs() < 1e-9, "one mux, PI side free: {}", plan.area);
        assert!(plan
            .actions
            .iter()
            .any(|a| matches!(a, PlanAction::AssignPi { pi, value } if *pi == pi_a && *value == Trit::Zero)));
        assert!(plan
            .actions
            .iter()
            .any(|a| matches!(a, PlanAction::InsertMux { at } if *at == f1)));
    }

    /// `values` and `level` against a from-scratch implication and the
    /// level rule.
    fn assert_fresh(p: &ScanPlanner) {
        assert_eq!(p.values, compute_values(&p.n, &p.pi_assign), "incremental constants diverged");
        for g in p.n.gate_ids().filter(|&g| !p.n.kind(g).is_source()) {
            for &f in p.n.fanin(g) {
                assert!(p.level[g.index()] > p.level[f.index()], "level of {}", p.n.gate_name(g));
            }
        }
    }

    /// The overlay verdict on `plan`, asserted equal to the verdict on a
    /// clone of the netlist.
    fn checked_verdict(p: &ScanPlanner, plan: &ScanPlan, new_pis: &[(GateId, Trit)]) -> bool {
        let mut pis = p.pi_assign.clone();
        pis.extend(new_pis.iter().copied());
        let verdict = p.plan_keeps_protections(plan, new_pis);
        assert_eq!(verdict, p.plan_globally_consistent(plan, &pis), "{plan:?}");
        verdict
    }

    /// `p.candidate_plan(ff)`, once the Eq. 2–4 table has been asserted
    /// to give exactly the reference recursion's solution: the same
    /// lists in the same order, the same polarity and the same cost
    /// bits.
    fn checked_candidate(p: &ScanPlanner, ff: GateId) -> Option<(ScanPlan, Vec<(GateId, Trit)>)> {
        let d = p.n.fanin(ff)[0];
        let region = Region::build(&p.n, d);
        let table = p.cheapest_solution(d, &region);
        let oracle = p.oracle_solution(d, &region);
        let bits = |s: &Option<Solution>| s.as_ref().map(|s| s.cost.to_bits());
        assert_eq!(bits(&table), bits(&oracle), "cost of {}", p.n.gate_name(ff));
        assert_eq!(table, oracle, "solution of {}", p.n.gate_name(ff));
        p.candidate_plan(ff)
    }

    /// Walks `n`'s flip-flops in order, holding the planner to the
    /// oracles at every step: every candidate plan's Eq. 2–4 solution
    /// against the reference recursion, and every verdict against a
    /// netlist clone. Commits each plan the checks accept, and
    /// scans a planless flip-flop conventionally when the mux fits. With
    /// `probe`, every later flip-flop's plan is checked before each
    /// step too. Returns how many verdicts accepted and rejected a plan.
    fn walk(n: Netlist, probe: bool) -> (usize, usize) {
        let ffs = n.dffs();
        let mut p = ScanPlanner::new(n, TechLibrary::paper());
        let mut tally = (0, 0);
        let mut count = |accepted: bool| {
            if accepted {
                tally.0 += 1;
            } else {
                tally.1 += 1;
            }
        };
        for (i, &ff) in ffs.iter().enumerate() {
            if probe {
                for &later in &ffs[i + 1..] {
                    if let Some((plan, new_pis)) = checked_candidate(&p, later) {
                        count(checked_verdict(&p, &plan, &new_pis));
                    }
                }
            }
            match checked_candidate(&p, ff) {
                Some((plan, new_pis)) if checked_verdict(&p, &plan, &new_pis) => {
                    count(true);
                    p.commit(&plan);
                }
                candidate => {
                    if candidate.is_some() {
                        count(false);
                    }
                    if !p.mux_fits_directly(ff) {
                        continue;
                    }
                    p.scan_conventionally(ff);
                }
            }
            assert_fresh(&p);
        }
        tally
    }

    /// 64 seeded circuits across four structure classes plus the smoke
    /// pair, probing every pending plan at every step: some 10,000
    /// verdicts, a few hundred of them rejections.
    #[test]
    fn planner_matches_the_oracles_on_generated_circuits() {
        use tpi_workloads::{generate, smoke_suite, CircuitSpec, StructureClass};
        let classes = [
            StructureClass::mixed(0.5, 4, 5, 1),
            StructureClass::datapath(4, 2, 1),
            StructureClass::mixed(0.3, 4, 2, 0).with_hard_rings(1, 3),
            StructureClass::mixed(0.8, 3, 8, 2),
        ];
        let mut specs = smoke_suite();
        for seed in 0..64u64 {
            specs.push(CircuitSpec {
                name: format!("oracle{seed}"),
                inputs: 6 + (seed % 5) as usize,
                outputs: 4,
                ffs: 12 + (seed % 13) as usize,
                target_gates: 80 + 10 * (seed % 16) as usize,
                structure: classes[(seed % 4) as usize],
                seed: 1_000 + seed,
            });
        }
        let (mut accepted, mut rejected) = (0, 0);
        for spec in &specs {
            let (a, r) = walk(generate(spec), true);
            accepted += a;
            rejected += r;
        }
        assert!(accepted > 1_000 && rejected > 100, "accepted {accepted}, rejected {rejected}");
    }

    fn assert_suite_matches_the_oracles(names: &[&str]) {
        for spec in tpi_workloads::suite().into_iter().filter(|s| names.contains(&s.name.as_str()))
        {
            let (accepted, _) = walk(tpi_workloads::generate(&spec), false);
            assert!(accepted > 0, "{}: no plan accepted", spec.name);
        }
    }

    #[test]
    fn planner_matches_the_oracles_on_the_suite() {
        assert_suite_matches_the_oracles(&[
            "dsip", "s5378", "s9234", "bigkey", "mult32b", "mult32a",
        ]);
    }

    /// Release only (`ci.sh` runs it with `--include-ignored`).
    #[test]
    #[ignore = "large circuits; run in release mode"]
    fn planner_matches_the_oracles_on_the_large_suite() {
        assert_suite_matches_the_oracles(&["s13207", "s15850", "s35932", "s38417", "s38584"]);
    }

    /// A fresh planner over `x = INV(a)`, `p = OR(x, c)` to an output
    /// and `y = AND(x, d)` into flip-flop `f`, plus flip-flops `h1`, `h2`
    /// loaded straight from inputs `e1`, `e2` (mux sites for plans that
    /// need one elsewhere). `crit` drives a long chain so that every
    /// other net has slack.
    fn hand_circuit() -> (ScanPlanner, [GateId; 9]) {
        let mut b = NetlistBuilder::new("hand");
        for pi in ["a", "c", "d", "e1", "e2", "crit"] {
            b.input(pi);
        }
        b.gate(GateKind::Inv, "x", &["a"]);
        b.gate(GateKind::Or, "p", &["x", "c"]);
        b.gate(GateKind::And, "y", &["x", "d"]);
        b.dff("f", "y");
        b.dff("h1", "e1");
        b.dff("h2", "e2");
        let mut prev = "crit".to_string();
        for i in 0..12 {
            let name = format!("i{i}");
            b.gate(GateKind::Inv, &name, &[prev.as_str()]);
            prev = name;
        }
        b.dff("g", &prev);
        for (port, net) in [("op", "p"), ("of", "f"), ("oh1", "h1"), ("oh2", "h2"), ("og", "g")] {
            b.output(port, net);
        }
        let n = b.finish().unwrap();
        let ids = ["a", "c", "d", "e1", "e2", "x", "p", "y", "f"].map(|name| n.find(name).unwrap());
        (ScanPlanner::new(n, TechLibrary::paper()), ids)
    }

    /// A plan for `ff` whose route is its mux sites.
    fn plan(ff: GateId, actions: Vec<PlanAction>, desired: Vec<(GateId, Trit)>) -> ScanPlan {
        let route = actions
            .iter()
            .filter_map(|a| match *a {
                PlanAction::InsertMux { at } => Some(at),
                _ => None,
            })
            .collect();
        ScanPlan { ff, actions, area: 0.0, inverting: false, desired, route }
    }

    /// Commits `plan` once its checked verdict accepts it.
    fn commit_checked(p: &mut ScanPlanner, plan: &ScanPlan, new_pis: &[(GateId, Trit)]) {
        assert!(checked_verdict(p, plan, new_pis), "{plan:?}");
        p.commit(plan);
        assert_fresh(p);
    }

    #[test]
    fn first_insertion_creates_t_and_t_bar() {
        let (mut p, [_, _, _, e1, _, x, pnet, y, _]) = hand_circuit();
        assert!(p.n.test_input().is_none());
        let h1 = p.n.find("h1").unwrap();
        let or_x = plan(
            h1,
            vec![PlanAction::InsertOr { at: x }, PlanAction::InsertMux { at: e1 }],
            vec![(x, Trit::One)],
        );
        commit_checked(&mut p, &or_x, &[]);
        let t = p.n.test_input().unwrap();
        assert_eq!(p.values[t.index()], Trit::Zero);
        assert_eq!(p.values[p.n.test_input_bar().unwrap().index()], Trit::One);
        assert_eq!(p.values[pnet.index()], Trit::One, "p reads the OR test point");
        assert_eq!(p.values[y.index()], Trit::X);
    }

    #[test]
    fn and_then_mux_at_one_net() {
        let (mut p, [.., x, pnet, y, f]) = hand_circuit();
        // The AND spliced first drives x's consumers, so y reads 0; x
        // itself still carries scan data into the mux behind the AND.
        let both = plan(
            f,
            vec![PlanAction::InsertAnd { at: x }, PlanAction::InsertMux { at: x }],
            vec![(x, Trit::Zero)],
        );
        commit_checked(&mut p, &both, &[]);
        assert_eq!(p.values[y.index()], Trit::Zero);
        assert_eq!(p.values[pnet.index()], Trit::X);
        // The mirror order: the mux drives x's consumers, so the AND's
        // constant never reaches y.
        let (p, [.., x, _, y, f]) = hand_circuit();
        let mirror = plan(
            f,
            vec![PlanAction::InsertMux { at: x }, PlanAction::InsertAnd { at: x }],
            vec![(x, Trit::Zero), (y, Trit::Zero)],
        );
        assert!(!checked_verdict(&p, &mirror, &[]), "y stays X behind the mux");
    }

    #[test]
    fn and_test_point_feeding_a_protected_net_is_rejected() {
        let (mut p, [a, c, _, e1, e2, x, pnet, _, _]) = hand_circuit();
        let (h1, h2) = (p.n.find("h1").unwrap(), p.n.find("h2").unwrap());
        // Hold a = 0 so that x = 1 and p = OR(x, c) = 1, and protect p.
        let hold = plan(
            h1,
            vec![
                PlanAction::AssignPi { pi: a, value: Trit::Zero },
                PlanAction::InsertMux { at: e1 },
            ],
            vec![(a, Trit::Zero), (pnet, Trit::One)],
        );
        commit_checked(&mut p, &hold, &[(a, Trit::Zero)]);
        // An AND test point at x zeroes p's input, so p would fall to X.
        let clash = plan(
            h2,
            vec![PlanAction::InsertAnd { at: x }, PlanAction::InsertMux { at: e2 }],
            vec![(x, Trit::Zero)],
        );
        assert!(!checked_verdict(&p, &clash, &[]));
        // Holding c at 1 as well keeps p's constant.
        let rescued = plan(
            h2,
            vec![
                PlanAction::AssignPi { pi: c, value: Trit::One },
                PlanAction::InsertAnd { at: x },
                PlanAction::InsertMux { at: e2 },
            ],
            vec![(c, Trit::One), (x, Trit::Zero)],
        );
        commit_checked(&mut p, &rescued, &[(c, Trit::One)]);
    }

    #[test]
    fn pi_assignments_that_break_a_protection_are_rejected() {
        let (mut p, [a, c, _, _, e2, x, pnet, _, _]) = hand_circuit();
        let (h1, h2) = (p.n.find("h1").unwrap(), p.n.find("h2").unwrap());
        // An AND test point at x and scan data routed through p.
        let first = plan(
            h1,
            vec![PlanAction::InsertAnd { at: x }, PlanAction::InsertMux { at: pnet }],
            vec![(x, Trit::Zero)],
        );
        commit_checked(&mut p, &first, &[]);
        let mux_at = |pi: GateId, value: Trit| {
            plan(
                h2,
                vec![PlanAction::AssignPi { pi, value }, PlanAction::InsertMux { at: e2 }],
                vec![(pi, value)],
            )
        };
        // Holding T at 1 would make the protected test point transparent.
        let t = p.n.test_input().unwrap();
        assert!(!checked_verdict(&p, &mux_at(t, Trit::One), &[(t, Trit::One)]));
        // c = 1 would put a constant on p, an earlier scan route.
        assert!(!checked_verdict(&p, &mux_at(c, Trit::One), &[(c, Trit::One)]));
        // a only feeds the test point, whose 0 it cannot move.
        commit_checked(&mut p, &mux_at(a, Trit::One), &[(a, Trit::One)]);
    }

    #[test]
    fn a_mux_spliced_onto_a_known_net_hides_it_from_its_consumers() {
        let (mut p, [a, .., x, pnet, _, _]) = hand_circuit();
        p.pi_assign.insert(a, Trit::Zero);
        p.propagate_edit(p.n.gate_count(), &[a]);
        assert_eq!(p.values[pnet.index()], Trit::One, "p = OR(x, c) with x = 1");
        // The new mux evaluates to its X placeholder, yet p must move.
        let first_new = p.n.gate_count();
        p.n.ensure_test_input();
        let stub = ScanPlanner::ensure_scan_stub(&mut p.n, &mut p.scan_stub);
        p.n.insert_scan_mux(x, stub).unwrap();
        p.propagate_edit(first_new, &[]);
        assert_fresh(&p);
        assert_eq!(p.values[pnet.index()], Trit::X);
    }

    #[test]
    fn output_targets_are_rejected() {
        let (p, [.., f]) = hand_circuit();
        let port = p.n.find("op").unwrap();
        for action in [
            PlanAction::InsertMux { at: port },
            PlanAction::InsertAnd { at: port },
            PlanAction::InsertOr { at: port },
        ] {
            assert!(!checked_verdict(&p, &plan(f, vec![action], vec![]), &[]));
        }
    }
}

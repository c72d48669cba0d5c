//! SCOAP-style testability: CC0/CC1 controllability and CO
//! observability per net.
//!
//! The measures follow Goldstein's SCOAP with this workspace's netlist
//! conventions (one net per gate, `Mux` fanin `[sel, d0, d1]`):
//!
//! - `CC0(n)` / `CC1(n)`: minimum number of *costed* gates that must be
//!   set to drive net `n` to 0 / 1. Inputs cost 1; every costed gate on
//!   the way adds 1; a constant's impossible polarity is [`SAT`].
//! - `CO(n)`: minimum cost of side conditions + costed gates needed to
//!   propagate net `n`'s value to an output port or a flip-flop capture.
//!
//! **`Buf` and `Output` are transparent** — they add no cost and copy
//! their fanin's measures. This mirrors the structural-fingerprint
//! contract in `tpi-serve` (a `Buf` hashes through to its driver): both
//! promise that inserting a buffer changes neither identity nor
//! testability, and the proptests in `tests/dfa.rs` pin both.
//!
//! Flip-flops participate through a fixpoint: `CC(q) = CC(d) + 1` and
//! `CO(d) = CO(q) + 1`. Values start at [`SAT`] and the monotone pass
//! repeats until nothing changes. The pass bound comes from counting
//! distinct lattice points on one root-to-leaf path of the optimal
//! derivation: every flip-flop crossing adds +1, so the same *point* can
//! never repeat on a path (its cost would have to be strictly less than
//! itself). Forward has **two** points per flip-flop — `Xor`/`Mux` legs
//! mix polarities, so deriving `CC1(q)` may route through `CC0(q)` of
//! the same flip-flop — giving `2·#FFs + 1` working passes; backward has
//! one point per flip-flop (`CO` only), giving `#FFs + 1`. One extra
//! pass detects the fixpoint — [`Scoap::analyze`] asserts both bounds.
//!
//! **Forward runs in waves, not sweeps.** A sweep evaluates every gate
//! in topo order, each reading its fanins' current values. A
//! combinational fanin sits earlier in the order, so the sweep reads its
//! new value; a flip-flop's `D` driver may sit later (flip-flops are
//! sources of the order), and then the sweep reads the value it had
//! after the previous sweep. A gate's value can only change when a value
//! it reads changes. So sweep `k` needs to evaluate only
//!
//! - the fanouts of gates that changed earlier in sweep `k`, when the
//!   fanout sits later in the order, and
//! - the fanouts of gates that changed in sweep `k − 1`, when the fanout
//!   sits at or before the changed gate: a flip-flop, or a self-loop.
//!
//! Wave 1 is a whole topo sweep. Each later wave pops the gates of the
//! first kind from a heap in topo-position order, seeded with the gates
//! of the second kind that the previous wave found. Every wave evaluates
//! the gates a sweep would change, in the sweep's order, from the same
//! values, so wave `k` leaves exactly the values sweep `k` leaves. The
//! result, [`Scoap::passes`], and the pass bound's argument are
//! therefore the sweep's — the first wave that changes nothing is the
//! first sweep that changes nothing. Only the work differs: each wave
//! touches the fanout cones of the flip-flops that changed, not the
//! whole netlist, which [`Scoap::evals`] counts. Backward keeps whole
//! sweeps; it converges in a few.
//!
//! All arithmetic saturates at [`SAT`]; the pass order is the view's
//! deterministic topo order, so results are a pure function of the
//! snapshot — byte-identical across thread counts by construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tpi_netlist::GateKind;
use tpi_sim::NetView;

/// Saturation value: "cannot be controlled / observed".
pub const SAT: u32 = u32::MAX;

#[inline]
fn add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Three-vector SCOAP result over a [`NetView`] snapshot.
#[derive(Debug, Clone)]
pub struct Scoap {
    /// Controllability-to-0 per gate (net) index.
    pub cc0: Vec<u32>,
    /// Controllability-to-1 per gate (net) index.
    pub cc1: Vec<u32>,
    /// Observability per gate (net) index.
    pub co: Vec<u32>,
    /// `(forward, backward)` passes until the fixpoint stabilized. A
    /// forward wave counts as one pass (see the module docs).
    pub passes: (u32, u32),
    /// Gate evaluations the forward fixpoint made: every gate once in
    /// the first wave, then each gate a later wave re-evaluated. A
    /// deterministic work count; whole sweeps would make
    /// `passes.0 × gates`.
    pub evals: u64,
}

impl Scoap {
    /// Runs both fixpoints over the snapshot.
    ///
    /// # Panics
    /// Panics if a fixpoint exceeds its pass bound (`2·#FFs + 2`
    /// forward, `#FFs + 2` backward — see the module docs), which would
    /// indicate a non-monotone transfer function (a bug).
    pub fn analyze(view: &NetView) -> Scoap {
        let n = view.gate_count();
        let ffs = (0..n).filter(|&g| view.kind(g) == GateKind::Dff).count() as u32;
        let mut waves = Waves::new(view);
        let fwd = crate::fixpoint("SCOAP forward", 2 * ffs + 2, || waves.run());
        let Waves { cc0, cc1, evals, .. } = waves;
        let mut co = vec![SAT; n];
        let bwd =
            crate::fixpoint("SCOAP backward", ffs + 2, || backward(view, &cc0, &cc1, &mut co));
        Scoap { cc0, cc1, co, passes: (fwd, bwd), evals }
    }

    /// Combined testability burden of net `g`: `cc0 + cc1 + co`,
    /// saturating. The TPGREED `GainModel::Scoap` weight and the
    /// TPI200 lint both rank by this.
    #[inline]
    pub fn burden(&self, g: usize) -> u32 {
        add(add(self.cc0[g], self.cc1[g]), self.co[g])
    }
}

/// The forward fixpoint's state between waves (see the module docs).
struct Waves<'v> {
    view: &'v NetView,
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    /// Topo positions still to evaluate in the running wave.
    now: BinaryHeap<Reverse<u32>>,
    /// Topo positions the next wave starts from.
    next: Vec<u32>,
    /// Whether the whole-netlist first wave has run.
    swept: bool,
    evals: u64,
}

impl<'v> Waves<'v> {
    fn new(view: &'v NetView) -> Self {
        let n = view.gate_count();
        Waves {
            view,
            cc0: vec![SAT; n],
            cc1: vec![SAT; n],
            now: BinaryHeap::new(),
            next: Vec::new(),
            swept: false,
            evals: 0,
        }
    }

    /// Runs one wave. Returns whether any value changed.
    fn run(&mut self) -> bool {
        let view = self.view;
        let mut changed = false;
        if self.swept {
            self.now.extend(self.next.drain(..).map(Reverse));
            let mut last = None;
            while let Some(Reverse(p)) = self.now.pop() {
                if last == Some(p) {
                    continue; // queued by two fanins
                }
                last = Some(p);
                self.evals += 1;
                if eval(view, view.topo()[p as usize] as usize, &mut self.cc0, &mut self.cc1) {
                    changed = true;
                    self.schedule(p, true);
                }
            }
        } else {
            // Every gate runs in this wave anyway: only sinks at or
            // before a changed gate need scheduling.
            self.swept = true;
            for p in 0..view.gate_count() as u32 {
                self.evals += 1;
                if eval(view, view.topo()[p as usize] as usize, &mut self.cc0, &mut self.cc1) {
                    changed = true;
                    self.schedule(p, false);
                }
            }
        }
        changed
    }

    /// Queues the sinks of the gate at topo position `p`, whose value
    /// just fell: a sink later in the order reads the new value in this
    /// wave (queued only when `now`), any other sink in the next.
    fn schedule(&mut self, p: u32, now: bool) {
        let view = self.view;
        for &s in view.fanouts(view.topo()[p as usize] as usize) {
            let q = view.topo_pos(s as usize);
            if q > p {
                if now {
                    self.now.push(Reverse(q));
                }
            } else {
                self.next.push(q);
            }
        }
    }
}

/// Re-evaluates gate `g`'s controllability from its fanins' current
/// values. Returns whether either value fell.
fn eval(view: &NetView, g: usize, cc0: &mut [u32], cc1: &mut [u32]) -> bool {
    let fanin = view.fanin(g);
    let (n0, n1) = match view.kind(g) {
        GateKind::Input => (1, 1),
        GateKind::Const0 => (1, SAT),
        GateKind::Const1 => (SAT, 1),
        GateKind::Buf | GateKind::Output => match fanin.first() {
            Some(&f) => (cc0[f as usize], cc1[f as usize]),
            None => (SAT, SAT),
        },
        GateKind::Dff => match fanin.first() {
            Some(&f) => (add(cc0[f as usize], 1), add(cc1[f as usize], 1)),
            None => (SAT, SAT),
        },
        GateKind::Inv => match fanin.first() {
            Some(&f) => (add(cc1[f as usize], 1), add(cc0[f as usize], 1)),
            None => (SAT, SAT),
        },
        GateKind::And => and_cc(fanin, cc0, cc1),
        GateKind::Nand => swap(and_cc(fanin, cc0, cc1)),
        GateKind::Or => swap(and_cc_dual(fanin, cc0, cc1)),
        GateKind::Nor => and_cc_dual(fanin, cc0, cc1),
        GateKind::Xor => xor_cc(fanin, cc0, cc1),
        GateKind::Xnor => swap(xor_cc(fanin, cc0, cc1)),
        GateKind::Mux => mux_cc(fanin, cc0, cc1),
    };
    // The fixpoint is monotone non-increasing from SAT; clamping keeps
    // that invariant explicit.
    let n0 = n0.min(cc0[g]);
    let n1 = n1.min(cc1[g]);
    if n0 == cc0[g] && n1 == cc1[g] {
        return false;
    }
    cc0[g] = n0;
    cc1[g] = n1;
    true
}

#[inline]
fn swap((a, b): (u32, u32)) -> (u32, u32) {
    (b, a)
}

/// And: all inputs at 1 for a 1, any input at 0 for a 0.
fn and_cc(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let to1 = fanin.iter().fold(0u32, |a, &f| add(a, cc1[f as usize]));
    let to0 = fanin.iter().map(|&f| cc0[f as usize]).min().unwrap_or(SAT);
    (add(to0, 1), add(to1, 1))
}

/// Nor body (Or is its swap): all inputs at 0 for a 1, any at 1 for a 0.
fn and_cc_dual(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let to1 = fanin.iter().fold(0u32, |a, &f| add(a, cc0[f as usize]));
    let to0 = fanin.iter().map(|&f| cc1[f as usize]).min().unwrap_or(SAT);
    (add(to1, 1), add(to0, 1))
}

/// Two-input Xor: cheapest equal / unequal input pair.
fn xor_cc(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let (Some(&a), Some(&b)) = (fanin.first(), fanin.get(1)) else {
        return (SAT, SAT);
    };
    let (a, b) = (a as usize, b as usize);
    let to0 = add(cc0[a], cc0[b]).min(add(cc1[a], cc1[b]));
    let to1 = add(cc0[a], cc1[b]).min(add(cc1[a], cc0[b]));
    (add(to0, 1), add(to1, 1))
}

/// Mux `[sel, d0, d1]`: route the cheaper data leg.
fn mux_cc(fanin: &[u32], cc0: &[u32], cc1: &[u32]) -> (u32, u32) {
    let [s, d0, d1] = *fanin else { return (SAT, SAT) };
    let (s, d0, d1) = (s as usize, d0 as usize, d1 as usize);
    let to0 = add(cc0[s], cc0[d0]).min(add(cc1[s], cc0[d1]));
    let to1 = add(cc0[s], cc1[d0]).min(add(cc1[s], cc1[d1]));
    (add(to0, 1), add(to1, 1))
}

/// One monotone backward (observability) pass in reverse topo order.
/// Returns whether anything changed.
fn backward(view: &NetView, cc0: &[u32], cc1: &[u32], co: &mut [u32]) -> bool {
    let mut changed = false;
    for &gi in view.topo().iter().rev() {
        let g = gi as usize;
        let mut best = if view.kind(g) == GateKind::Output { 0 } else { SAT };
        for &s in view.fanouts(g) {
            best = best.min(sink_cost(view, g as u32, s as usize, cc0, cc1, co));
        }
        let best = best.min(co[g]);
        if best != co[g] {
            co[g] = best;
            changed = true;
        }
    }
    changed
}

/// Cost of observing net `g` through sink gate `s`: `CO(s)` plus the
/// side conditions that make `s` transparent on `g`'s pin(s).
fn sink_cost(view: &NetView, g: u32, s: usize, cc0: &[u32], cc1: &[u32], co: &[u32]) -> u32 {
    let fanin = view.fanin(s);
    match view.kind(s) {
        GateKind::Output => 0,
        GateKind::Buf => co[s],
        GateKind::Dff | GateKind::Inv => add(co[s], 1),
        GateKind::And | GateKind::Nand => {
            let side =
                fanin.iter().filter(|&&f| f != g).fold(0u32, |a, &f| add(a, cc1[f as usize]));
            add(add(co[s], side), 1)
        }
        GateKind::Or | GateKind::Nor => {
            let side =
                fanin.iter().filter(|&&f| f != g).fold(0u32, |a, &f| add(a, cc0[f as usize]));
            add(add(co[s], side), 1)
        }
        GateKind::Xor | GateKind::Xnor => {
            // Any fixed other input propagates; if `g` drives both pins
            // the output is constant and `s` observes nothing.
            let side = fanin
                .iter()
                .filter(|&&f| f != g)
                .map(|&f| cc0[f as usize].min(cc1[f as usize]))
                .min()
                .unwrap_or(SAT);
            add(add(co[s], side), 1)
        }
        GateKind::Mux => {
            let [sel, d0, d1] = *fanin else { return SAT };
            let mut best = SAT;
            if sel == g {
                // Observing the select needs the data legs to differ.
                let differ = add(cc0[d0 as usize], cc1[d1 as usize])
                    .min(add(cc1[d0 as usize], cc0[d1 as usize]));
                best = best.min(differ);
            }
            if d0 == g {
                best = best.min(cc0[sel as usize]);
            }
            if d1 == g {
                best = best.min(cc1[sel as usize]);
            }
            add(add(co[s], best), 1)
        }
        // Sources have no fanin and never appear as sinks.
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => SAT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::Netlist;
    use tpi_workloads::industrial::{gen100k, generate_industrial, IndustrialSpec};
    use tpi_workloads::{generate, smoke_suite, suite, CircuitSpec, StructureClass};

    /// One monotone forward pass over the whole netlist in topo order:
    /// the fixpoint's step before waves, kept as their oracle.
    fn forward_sweep(view: &NetView, cc0: &mut [u32], cc1: &mut [u32]) -> bool {
        let mut changed = false;
        for &g in view.topo() {
            changed |= eval(view, g as usize, cc0, cc1);
        }
        changed
    }

    /// [`Scoap::analyze`] with whole forward sweeps.
    fn analyze_by_sweeps(view: &NetView) -> Scoap {
        let n = view.gate_count();
        let ffs = (0..n).filter(|&g| view.kind(g) == GateKind::Dff).count() as u32;
        let (mut cc0, mut cc1) = (vec![SAT; n], vec![SAT; n]);
        let fwd = crate::fixpoint("SCOAP forward", 2 * ffs + 2, || {
            forward_sweep(view, &mut cc0, &mut cc1)
        });
        let mut co = vec![SAT; n];
        let bwd =
            crate::fixpoint("SCOAP backward", ffs + 2, || backward(view, &cc0, &cc1, &mut co));
        Scoap { cc0, cc1, co, passes: (fwd, bwd), evals: u64::from(fwd) * n as u64 }
    }

    /// Waves and sweeps agree on every vector and on the pass counts.
    /// Returns the waves' result.
    fn assert_waves_match_sweeps(n: &Netlist) -> Scoap {
        let view = NetView::new(n);
        let (waves, sweeps) = (Scoap::analyze(&view), analyze_by_sweeps(&view));
        let name = n.name();
        assert_eq!(waves.passes, sweeps.passes, "{name}: passes");
        assert!(waves.cc0 == sweeps.cc0, "{name}: cc0");
        assert!(waves.cc1 == sweeps.cc1, "{name}: cc1");
        assert!(waves.co == sweeps.co, "{name}: co");
        assert!(waves.evals <= sweeps.evals, "{name}: waves cannot do more work than sweeps");
        waves
    }

    #[test]
    fn waves_match_sweeps_on_suite_and_smoke_circuits() {
        for spec in suite().into_iter().chain(smoke_suite()) {
            assert_waves_match_sweeps(&generate(&spec));
        }
    }

    #[test]
    fn waves_match_sweeps_on_seeded_generated_circuits() {
        for seed in 0..48u64 {
            let k = seed as usize;
            let structure = match seed % 4 {
                0 => StructureClass::datapath(2 + k % 5, 1 + k % 3, 1),
                1 => StructureClass::mixed(0.5, 3, 3, 1),
                2 => StructureClass::multiplier(3 + k % 4),
                _ => StructureClass::deep_logic(0.4, 3, 2, 1, 4, 0.3).with_hard_rings(2, 3),
            };
            let spec = CircuitSpec {
                name: format!("scoap{seed}"),
                inputs: 2 + k % 7,
                outputs: 1 + k % 4,
                ffs: 1 + (k * 7) % 40,
                target_gates: 20 + (k * 37) % 400,
                structure,
                seed,
            };
            assert_waves_match_sweeps(&generate(&spec));
        }
    }

    #[test]
    fn waves_match_sweeps_on_seeded_industrial_designs() {
        for seed in 1..=4 {
            assert_waves_match_sweeps(&generate_industrial(&IndustrialSpec::sized(
                format!("ind3k_{seed}"),
                3_000,
                seed,
            )));
        }
    }

    #[test]
    #[ignore = "100k gates; run in release mode"]
    fn waves_match_sweeps_at_100k_gates() {
        assert_waves_match_sweeps(&generate_industrial(&gen100k()));
    }

    /// The forward fixpoint's work is linear: a 25k-gate design, whose
    /// sweeps would evaluate every gate 64 times, needs fewer than four
    /// evaluations per gate in waves.
    #[test]
    fn forward_work_stays_under_four_evaluations_per_gate() {
        let n = generate_industrial(&IndustrialSpec::sized("ind25k", 25_000, 7));
        let s = assert_waves_match_sweeps(&n);
        let gates = n.gate_count() as u64;
        assert!(s.passes.0 >= 32, "the design must need many waves, got {:?}", s.passes);
        assert!(s.evals < 4 * gates, "{} evaluations for {gates} gates", s.evals);
    }

    #[test]
    fn shift_register_matches_sweeps_in_either_topo_order() {
        // in -> f0 -> f1 -> ... -> f7 -> OUT, flip-flops created in both
        // orders so that D drivers sit before and after their sinks.
        for reversed in [false, true] {
            let mut n = Netlist::new("t");
            let a = n.add_input("a");
            let mut ffs: Vec<_> =
                (0..8).map(|i| n.add_gate(GateKind::Dff, format!("f{i}"))).collect();
            if reversed {
                ffs.reverse();
            }
            let mut prev = a;
            for &ff in &ffs {
                n.connect(prev, ff).unwrap();
                prev = ff;
            }
            n.add_output("y", prev).unwrap();
            let s = assert_waves_match_sweeps(&n);
            assert_eq!(s.cc0[prev.index()], 9);
            assert_eq!(s.cc1[prev.index()], 9);
        }
    }

    #[test]
    fn and_chain_hand_computed() {
        // a, b -> AND g -> OUT y
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, "g");
        n.connect(a, g).unwrap();
        n.connect(b, g).unwrap();
        n.add_output("y", g).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        assert_eq!((s.cc0[a.index()], s.cc1[a.index()]), (1, 1));
        // AND: cc1 = 1+1+1 = 3, cc0 = min(1,1)+1 = 2.
        assert_eq!((s.cc0[g.index()], s.cc1[g.index()]), (2, 3));
        // g feeds the port directly: CO = 0. Observing a needs b=1.
        assert_eq!(s.co[g.index()], 0);
        assert_eq!(s.co[a.index()], 2); // co[g]=0 + cc1[b]=1 + 1
        assert_eq!(s.passes, (2, 2)); // 1 working pass + 1 stable check
        assert_eq!(s.evals, 4); // the first wave; the second has nothing to do
    }

    #[test]
    fn constants_saturate_the_impossible_polarity() {
        let mut n = Netlist::new("t");
        let c = n.add_gate(GateKind::Const1, "c");
        n.add_output("y", c).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        assert_eq!(s.cc0[c.index()], SAT);
        assert_eq!(s.cc1[c.index()], 1);
    }

    #[test]
    fn ff_loop_converges_through_the_fixpoint() {
        // in -> AND g <- ff;  g -> ff (self loop through the FF); g -> OUT
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::And, "g");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, g).unwrap();
        n.connect(ff, g).unwrap();
        n.connect(g, ff).unwrap();
        n.add_output("y", g).unwrap();
        let s = assert_waves_match_sweeps(&n);
        // cc0(g) = min(cc0(a), cc0(ff)) + 1; cc0(ff) = cc0(g)+1, so the
        // fixpoint picks the input route: cc0(g) = 2, cc0(ff) = 3.
        assert_eq!(s.cc0[g.index()], 2);
        assert_eq!(s.cc0[ff.index()], 3);
        // cc1(g) = cc1(a) + cc1(ff) + 1 = 1 + (cc1(g)+1) + 1 — only
        // satisfied at saturation: the AND can never make a 1 (the FF
        // leg needs a 1 that only the AND itself could have produced).
        assert_eq!(s.cc1[g.index()], SAT);
        assert_eq!(s.co[g.index()], 0);
    }

    #[test]
    fn unobservable_dead_cone_saturates() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Inv, "dead");
        n.connect(a, g).unwrap();
        n.add_output("y", a).unwrap();
        let s = Scoap::analyze(&NetView::new(&n));
        assert_eq!(s.co[g.index()], SAT);
        assert_eq!(s.co[a.index()], 0);
    }
}

//! Forward constant implication (§III of the paper).
//!
//! A test point inserted at a net forces that net to a constant in test
//! mode; the forward implication of that constant may determine further
//! nets in the fanout cone. The paper's TPGREED and TPTIME algorithms are
//! both built on this engine.
//!
//! Values never propagate *through* flip-flops: in test mode the FFs carry
//! the shifted scan data, so their outputs remain unknown unless forced.

use crate::trit::Trit;
use crate::view::{eval_indexed, NetView};
use std::collections::BTreeSet;
use std::sync::Arc;
use tpi_netlist::{GateId, Netlist};

/// Undo token for [`Implication::preview_force`].
#[derive(Debug, Clone)]
pub struct Preview {
    net: GateId,
    was_forced: bool,
    old_net_value: Trit,
    changes: Vec<Assignment>,
}

impl Preview {
    /// The nets changed by the trial, with their trial values (the root
    /// net is included when its value actually changed).
    #[inline]
    pub fn changes(&self) -> &[Assignment] {
        &self.changes
    }
}

/// One net/value pair produced or consumed by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Assignment {
    /// The net (identified by its driving gate).
    pub net: GateId,
    /// The constant carried by the net in test mode.
    pub value: Trit,
}

/// The forward-implication engine.
///
/// Nets assigned through [`Implication::force`] are *forced*: their value
/// is pinned regardless of their driving gate's inputs, exactly like a
/// physical AND/OR test point or a primary-input assignment. All other
/// net values are derived by ternary evaluation in topological order.
///
/// Forcing a net that already carries an (implied or forced) value simply
/// overrides it and re-propagates — the paper's treatment of side-effect
/// constants. Callers that must *protect* earlier values (the paper's
/// desired constants) check the returned delta against their protected
/// set.
///
/// # Example
///
/// ```
/// use tpi_netlist::{Netlist, GateKind};
/// use tpi_sim::{Implication, Trit};
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_gate(GateKind::And, "g");
/// n.connect(a, g)?;
/// n.connect(b, g)?;
/// let mut imp = Implication::new(&n);
/// imp.force(a, Trit::Zero);
/// assert_eq!(imp.value(g), Trit::Zero); // 0 controls the AND
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Implication<'a> {
    netlist: &'a Netlist,
    /// Contiguous structure snapshot (kinds, fanin/fanout CSR, topo
    /// order); shared with sibling engines and per-worker clones.
    view: Arc<NetView>,
    values: Vec<Trit>,
    forced: Vec<bool>,
}

impl<'a> Implication<'a> {
    /// Creates an engine over `netlist` with every net unknown (except
    /// constants, which evaluate immediately).
    ///
    /// # Panics
    /// Panics if the netlist has a combinational cycle.
    pub fn new(netlist: &'a Netlist) -> Self {
        let view = NetView::shared(netlist);
        Self::with_view(netlist, view)
    }

    /// Like [`Implication::new`] but reuses an existing [`NetView`]
    /// snapshot of `netlist` (the lane engine and the scalar engine of
    /// one analysis run share a single view).
    ///
    /// # Panics
    /// Panics if `view` was not built from a netlist of the same size.
    pub fn with_view(netlist: &'a Netlist, view: Arc<NetView>) -> Self {
        assert_eq!(view.gate_count(), netlist.gate_count(), "view/netlist mismatch");
        let values = vec![Trit::X; netlist.gate_count()];
        let mut engine =
            Implication { netlist, values, forced: vec![false; netlist.gate_count()], view };
        // Initial sweep in topological order: constants self-evaluate and
        // propagate; everything else derives to X.
        for pos in 0..engine.view.gate_count() {
            let i = engine.view.topo()[pos] as usize;
            let k = engine.view.kind(i);
            if matches!(k, tpi_netlist::GateKind::Input | tpi_netlist::GateKind::Dff) {
                continue;
            }
            engine.values[i] = engine.derive(GateId::from_index(i));
        }
        engine
    }

    /// The netlist this engine analyzes.
    #[inline]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The shared structure snapshot this engine walks.
    #[inline]
    pub fn view(&self) -> &Arc<NetView> {
        &self.view
    }

    /// Current value of a net.
    #[inline]
    pub fn value(&self, net: GateId) -> Trit {
        self.values[net.index()]
    }

    /// Whether `net` is pinned by a [`Implication::force`] call.
    #[inline]
    pub fn is_forced(&self, net: GateId) -> bool {
        self.forced[net.index()]
    }

    /// Current value of every net, indexed by gate.
    #[inline]
    pub fn values(&self) -> &[Trit] {
        &self.values
    }

    /// Forces `net` to `value` and propagates forward. Returns every net
    /// whose value *changed*, including `net` itself, with the new values.
    ///
    /// Forcing overrides any previous (implied or forced) value on `net`.
    pub fn force(&mut self, net: GateId, value: Trit) -> Vec<Assignment> {
        self.forced[net.index()] = true;
        self.set_and_propagate(net, value)
    }

    /// Removes the pin on `net` (if any) and re-derives its value from
    /// its fanins, propagating any change. Returns the changed nets.
    pub fn unforce(&mut self, net: GateId) -> Vec<Assignment> {
        if !self.forced[net.index()] {
            return Vec::new();
        }
        self.forced[net.index()] = false;
        let derived = self.derive(net);
        self.set_and_propagate(net, derived)
    }

    /// What `net` would evaluate to from its fanins (ignoring a force).
    /// Allocation-free: folds directly over the view's fanin CSR slice.
    fn derive(&self, net: GateId) -> Trit {
        let i = net.index();
        eval_indexed(self.view.kind(i), self.view.fanin(i), &self.values)
    }

    fn set_and_propagate(&mut self, net: GateId, value: Trit) -> Vec<Assignment> {
        let mut delta = Vec::new();
        if self.values[net.index()] == value {
            return delta;
        }
        self.values[net.index()] = value;
        delta.push(Assignment { net, value });
        // Ordered worklist keyed by topological position: each gate is
        // re-evaluated after all its updated fanins, so every gate is
        // processed at most once per wave.
        let mut work: BTreeSet<(u32, GateId)> = BTreeSet::new();
        for &sink in self.view.comb_fanouts(net.index()) {
            work.insert((self.view.topo_pos(sink as usize), GateId::from_index(sink as usize)));
        }
        while let Some((_, g)) = work.pop_first() {
            if self.forced[g.index()] {
                continue; // pinned: upstream changes cannot move it
            }
            let new = self.derive(g);
            if new == self.values[g.index()] {
                continue;
            }
            self.values[g.index()] = new;
            delta.push(Assignment { net: g, value: new });
            for &sink in self.view.comb_fanouts(g.index()) {
                work.insert((self.view.topo_pos(sink as usize), GateId::from_index(sink as usize)));
            }
        }
        delta
    }

    /// Forces `net` to `value`, returning an undo token that restores the
    /// engine exactly (values *and* the forced pin) when passed to
    /// [`Implication::undo_preview`]. The changed nets with their new
    /// values are readable via [`Preview::changes`].
    ///
    /// A trial touches only the affected fanout cone instead of cloning
    /// the whole engine. TPGREED's sweep previews 64 candidates at a time
    /// on [`crate::LaneEngine`]; this one-candidate trial is the reference
    /// that engine and TPGREED's Equation 1 oracle test are held to.
    pub fn preview_force(&mut self, net: GateId, value: Trit) -> Preview {
        let was_forced = self.forced[net.index()];
        let old_net_value = self.values[net.index()];
        self.forced[net.index()] = true;
        let changes = self.set_and_propagate(net, value);
        Preview { net, was_forced, old_net_value, changes }
    }

    /// Reverts a [`Implication::preview_force`].
    ///
    /// Restores the root net, then re-derives every other changed net in
    /// topological order; since derivation is deterministic and the
    /// changed nets were all non-forced, this reproduces the pre-trial
    /// state exactly.
    pub fn undo_preview(&mut self, preview: Preview) {
        self.forced[preview.net.index()] = preview.was_forced;
        self.values[preview.net.index()] = preview.old_net_value;
        let mut touched: Vec<(u32, GateId)> = preview
            .changes
            .iter()
            .filter(|a| a.net != preview.net)
            .map(|a| (self.view.topo_pos(a.net.index()), a.net))
            .collect();
        touched.sort_unstable();
        for (_, g) in touched {
            if !self.forced[g.index()] {
                self.values[g.index()] = self.derive(g);
            }
        }
    }
}

/// Parallel gain sweeps clone one engine per worker thread; this
/// compile-time assertion keeps the engine `Clone + Send + Sync` (no
/// interior mutability may sneak in).
const _: () = {
    const fn assert_parallel_ready<T: Clone + Send + Sync>() {}
    let _ = assert_parallel_ready::<Implication<'static>>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{GateKind, Netlist};

    fn chain() -> (Netlist, GateId, GateId, GateId, GateId) {
        // a -> AND(a,b)=g1 -> INV(g1)=g2, b input
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, "g1");
        n.connect(a, g1).unwrap();
        n.connect(b, g1).unwrap();
        let g2 = n.add_gate(GateKind::Inv, "g2");
        n.connect(g1, g2).unwrap();
        (n, a, b, g1, g2)
    }

    #[test]
    fn controlling_value_propagates_deep() {
        let (n, a, _b, g1, g2) = chain();
        let mut imp = Implication::new(&n);
        let delta = imp.force(a, Trit::Zero);
        assert_eq!(imp.value(g1), Trit::Zero);
        assert_eq!(imp.value(g2), Trit::One);
        assert_eq!(delta.len(), 3);
    }

    #[test]
    fn sensitizing_value_alone_implies_nothing() {
        let (n, a, _b, g1, _g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::One);
        assert_eq!(imp.value(g1), Trit::X);
    }

    #[test]
    fn both_inputs_known_determines_output() {
        let (n, a, b, g1, g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::One);
        imp.force(b, Trit::One);
        assert_eq!(imp.value(g1), Trit::One);
        assert_eq!(imp.value(g2), Trit::Zero);
    }

    #[test]
    fn implication_stops_at_flip_flops() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, ff).unwrap();
        let g = n.add_gate(GateKind::Inv, "g");
        n.connect(ff, g).unwrap();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::One);
        assert_eq!(imp.value(ff), Trit::X, "DFF output must stay unknown");
        assert_eq!(imp.value(g), Trit::X);
    }

    #[test]
    fn force_overrides_implied_value_like_a_side_effect_constant() {
        let (n, a, _b, g1, g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::Zero); // implies g1 = 0, g2 = 1
        let delta = imp.force(g1, Trit::One); // physical OR test point at g1
        assert_eq!(imp.value(g1), Trit::One);
        assert_eq!(imp.value(g2), Trit::Zero, "override re-propagates");
        assert!(delta.iter().any(|d| d.net == g2 && d.value == Trit::Zero));
    }

    #[test]
    fn unforce_restores_derived_values() {
        let (n, a, _b, g1, g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::Zero);
        imp.force(g1, Trit::One);
        imp.unforce(g1);
        assert_eq!(imp.value(g1), Trit::Zero, "re-derived from a = 0");
        assert_eq!(imp.value(g2), Trit::One);
    }

    #[test]
    fn idempotent_force_yields_empty_delta() {
        let (n, a, _b, _g1, _g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::Zero);
        let delta = imp.force(a, Trit::Zero);
        assert!(delta.is_empty());
    }

    #[test]
    fn preview_and_undo_round_trips_exactly() {
        let (n, a, _b, g1, g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::Zero); // baseline state with implications
        let before_values: Vec<Trit> = n.gate_ids().map(|g| imp.value(g)).collect();
        let p = imp.preview_force(g1, Trit::One);
        assert_eq!(imp.value(g1), Trit::One);
        assert_eq!(imp.value(g2), Trit::Zero);
        assert!(p.changes().iter().any(|c| c.net == g2));
        imp.undo_preview(p);
        let after_values: Vec<Trit> = n.gate_ids().map(|g| imp.value(g)).collect();
        assert_eq!(before_values, after_values);
        assert!(!imp.is_forced(g1));
        assert!(imp.is_forced(a));
    }

    #[test]
    fn preview_over_forced_net_restores_force() {
        let (n, a, _b, _g1, _g2) = chain();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::Zero);
        let p = imp.preview_force(a, Trit::One);
        assert_eq!(imp.value(a), Trit::One);
        imp.undo_preview(p);
        assert_eq!(imp.value(a), Trit::Zero);
        assert!(imp.is_forced(a));
    }

    #[test]
    fn constants_self_evaluate() {
        let mut n = Netlist::new("t");
        let c1 = n.add_gate(GateKind::Const1, "c1");
        let i = n.add_gate(GateKind::Inv, "i");
        n.connect(c1, i).unwrap();
        let imp = Implication::new(&n);
        assert_eq!(imp.value(c1), Trit::One);
        assert_eq!(imp.value(i), Trit::Zero, "constants propagate at construction");
    }

    #[test]
    fn reconvergent_fanout_is_handled_once_per_wave() {
        // a feeds both pins of an XOR through different inverter depths;
        // forcing a determines the XOR regardless of order.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let i1 = n.add_gate(GateKind::Inv, "i1");
        n.connect(a, i1).unwrap();
        let x = n.add_gate(GateKind::Xor, "x");
        n.connect(a, x).unwrap();
        n.connect(i1, x).unwrap();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::One);
        assert_eq!(imp.value(x), Trit::One); // 1 xor 0
    }
}

//! Structure-of-arrays netlist view shared by the simulation engines.
//!
//! [`Netlist`] keeps every fanin and fanout list in one of two arenas,
//! one span per gate, with room left for edits: a list may sit anywhere
//! in its arena, and a fanout list holds every sink, flip-flops and
//! output ports included. The engines in this crate
//! ([`crate::Implication`] and [`crate::LaneEngine`]) instead walk a
//! [`NetView`]: contiguous kind / fanin / combinational-fanout index
//! arrays in CSR layout, in gate order, plus the topological order,
//! built once per analysis run and shared between engines (and their
//! per-worker clones) through an [`Arc`].
//!
//! The view is a *snapshot*: it indexes the netlist by gate position, so
//! it stays valid only while the netlist is not mutated. Every consumer
//! in this workspace builds the view at the start of a run over an
//! immutable netlist borrow, which enforces that statically.

use crate::trit::{eval_by, Trit};
use std::sync::Arc;
use tpi_netlist::{GateKind, Netlist};

/// Contiguous (SoA) snapshot of a [`Netlist`]'s structure: gate kinds,
/// fanin and combinational-fanout adjacency in CSR form, and the
/// topological order. See the module docs.
#[derive(Debug)]
pub struct NetView {
    kinds: Vec<GateKind>,
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    comb_fanout_off: Vec<u32>,
    comb_fanout: Vec<u32>,
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
    /// Gate indices in topological order.
    topo: Vec<u32>,
    /// Inverse of `topo`: position of each gate in the order.
    topo_pos: Vec<u32>,
}

impl NetView {
    /// Builds the view from `netlist`.
    ///
    /// # Panics
    /// Panics if the netlist has a combinational cycle (same contract as
    /// [`crate::Implication::new`]).
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.gate_count();
        let order = netlist.topo_order().expect("netlist must be acyclic");
        let mut topo = Vec::with_capacity(n);
        let mut topo_pos = vec![0u32; n];
        for (i, g) in order.iter().enumerate() {
            topo.push(g.index() as u32);
            topo_pos[g.index()] = i as u32;
        }
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        let mut comb_fanout_off = Vec::with_capacity(n + 1);
        let mut comb_fanout = Vec::new();
        let mut fanout_off = Vec::with_capacity(n + 1);
        let mut fanout = Vec::new();
        fanin_off.push(0);
        comb_fanout_off.push(0);
        fanout_off.push(0);
        for g in netlist.gate_ids() {
            kinds.push(netlist.kind(g));
            fanin.extend(netlist.fanin(g).iter().map(|f| f.index() as u32));
            fanin_off.push(fanin.len() as u32);
            comb_fanout.extend(
                netlist
                    .fanout(g)
                    .iter()
                    .filter(|&&(sink, _)| netlist.kind(sink).is_combinational())
                    .map(|&(sink, _)| sink.index() as u32),
            );
            comb_fanout_off.push(comb_fanout.len() as u32);
            fanout.extend(netlist.fanout(g).iter().map(|&(sink, _)| sink.index() as u32));
            fanout_off.push(fanout.len() as u32);
        }
        NetView {
            kinds,
            fanin_off,
            fanin,
            comb_fanout_off,
            comb_fanout,
            fanout_off,
            fanout,
            topo,
            topo_pos,
        }
    }

    /// Convenience: build and wrap in an [`Arc`] for sharing.
    pub fn shared(netlist: &Netlist) -> Arc<Self> {
        Arc::new(Self::new(netlist))
    }

    /// Number of gates in the snapshot.
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of gate `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> GateKind {
        self.kinds[i]
    }

    /// Fanin gate indices of gate `i`, in pin order.
    #[inline]
    pub fn fanin(&self, i: usize) -> &[u32] {
        &self.fanin[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// Combinational fanout sinks of gate `i` (ports, flip-flops and
    /// constants filtered out — implication never propagates into them).
    #[inline]
    pub fn comb_fanouts(&self, i: usize) -> &[u32] {
        &self.comb_fanout[self.comb_fanout_off[i] as usize..self.comb_fanout_off[i + 1] as usize]
    }

    /// All fanout sinks of gate `i`, including ports, flip-flops and
    /// constants. Backward analyses (observability, dominators) need the
    /// capture sinks that [`NetView::comb_fanouts`] filters out.
    #[inline]
    pub fn fanouts(&self, i: usize) -> &[u32] {
        &self.fanout[self.fanout_off[i] as usize..self.fanout_off[i + 1] as usize]
    }

    /// Topological position of gate `i`.
    #[inline]
    pub fn topo_pos(&self, i: usize) -> u32 {
        self.topo_pos[i]
    }

    /// Gate indices in topological order.
    #[inline]
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Position of each gate in a DFS preorder over combinational fanout
    /// edges, roots taken in topological order. Where `topo` interleaves
    /// unrelated logic level by level, this order follows each fanout
    /// cone to its end before backtracking, so gates whose cones overlap
    /// get nearby positions. The lane sweep sorts its candidate jobs by
    /// this position: cone-mates land in the same 64-lane batch, which
    /// maximizes the overlap (and therefore the compression) of the
    /// batch's union change record. Deterministic — a pure function of
    /// the snapshot.
    pub fn cone_order(&self) -> Vec<u32> {
        let n = self.kinds.len();
        let mut pos = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        for &root in &self.topo {
            if pos[root as usize] != u32::MAX {
                continue;
            }
            stack.push(root);
            while let Some(x) = stack.pop() {
                let xi = x as usize;
                if pos[xi] != u32::MAX {
                    continue;
                }
                pos[xi] = next;
                next += 1;
                // Reversed so the first fanout is explored first.
                for &s in self.comb_fanouts(xi).iter().rev() {
                    if pos[s as usize] == u32::MAX {
                        stack.push(s);
                    }
                }
            }
        }
        pos
    }
}

/// Evaluates gate `kind` from fanin *indices* into a dense value array
/// ([`crate::eval_by`] over the view's CSR slice).
#[inline]
pub(crate) fn eval_indexed(kind: GateKind, fanin: &[u32], values: &[Trit]) -> Trit {
    eval_by(kind, fanin.len(), |j| values[fanin[j] as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trit::eval_gate;

    const ALL: [Trit; 3] = [Trit::Zero, Trit::One, Trit::X];

    /// `eval_indexed` must agree with `eval_gate` for every kind and
    /// every ternary input vector up to arity 3.
    #[test]
    fn indexed_eval_matches_collected_eval() {
        for kind in GateKind::ALL {
            let arities: Vec<usize> = match kind.fixed_arity() {
                Some(a) => vec![a],
                None => vec![1, 2, 3],
            };
            for arity in arities {
                let mut idx = vec![0usize; arity];
                loop {
                    let ins: Vec<Trit> = idx.iter().map(|&d| ALL[d]).collect();
                    let fanin: Vec<u32> = (0..arity as u32).collect();
                    assert_eq!(
                        eval_indexed(kind, &fanin, &ins),
                        eval_gate(kind, &ins),
                        "{kind} on {ins:?}"
                    );
                    let mut i = 0;
                    while i < arity {
                        idx[i] += 1;
                        if idx[i] < 3 {
                            break;
                        }
                        idx[i] = 0;
                        i += 1;
                    }
                    if i == arity {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn view_mirrors_netlist_structure() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, "g");
        n.connect(a, g).unwrap();
        n.connect(b, g).unwrap();
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(g, ff).unwrap();
        let i = n.add_gate(GateKind::Inv, "i");
        n.connect(g, i).unwrap();
        let view = NetView::new(&n);
        assert_eq!(view.gate_count(), n.gate_count());
        assert_eq!(view.kind(g.index()), GateKind::And);
        assert_eq!(view.fanin(g.index()), &[a.index() as u32, b.index() as u32]);
        // The DFF sink is filtered from the combinational fanouts but
        // present in the full fanouts.
        assert_eq!(view.comb_fanouts(g.index()), &[i.index() as u32]);
        assert_eq!(view.fanouts(g.index()), &[ff.index() as u32, i.index() as u32]);
        // Topo order respects fanin-before-sink.
        assert!(view.topo_pos(a.index()) < view.topo_pos(g.index()));
        assert!(view.topo_pos(g.index()) < view.topo_pos(i.index()));
    }
}

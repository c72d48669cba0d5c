//! Word-parallel (bit-sliced) forward implication: 64 trial forces in
//! one pass.
//!
//! TPGREED's gain sweep issues thousands of independent "what would
//! forcing `(net, value)` imply?" trials per selection round. The scalar
//! [`Implication`] answers one with a `preview_force`/`undo_preview`
//! round trip over the candidate's fanout cone. This engine packs **64 independent
//! trials into the bits of two `u64` planes per net** — a `val` plane
//! and a `known` plane encode a trit per lane — and propagates all of
//! them in a *single* ordered pass over the union of the 64 fanout
//! cones. Consecutive candidates are adjacent nets whose cones overlap
//! heavily, so the union pass costs little more than one scalar trial.
//!
//! Per-net lane encoding (bit `l` of each plane):
//!
//! ```text
//! known=0          -> X      (val bit is always 0: val ⊆ known)
//! known=1, val=0   -> Zero
//! known=1, val=1   -> One
//! ```
//!
//! Gate evaluation is pure bitwise algebra on the planes; e.g. for an
//! AND gate, `any0 = OR(known & !val)` over the fanins, `all1 =
//! AND(known & val)`, output `known = any0 | all1`, `val = all1`. The
//! exhaustive lane-consistency test at the bottom pins every operator
//! against [`crate::eval_gate`].
//!
//! The engine mirrors a scalar [`Implication`] base state (kept in sync
//! after every committed force via [`LaneEngine::apply_committed`]) and
//! guarantees **bit-exact equivalence** with 64 scalar previews: each
//! lane's changed-net list (in wave order) and implied
//! values are identical to what `preview_force` on the scalar engine
//! would report — the `lane_engine_matches_scalar_previews` property
//! test in the repository test suite holds it to that.

use crate::implication::{Assignment, Implication};
use crate::trit::Trit;
use crate::view::NetView;
use std::sync::Arc;
use tpi_netlist::{GateId, GateKind};

/// Number of independent trial lanes per batch (bits per plane word).
pub const LANES: usize = 64;

/// The net's pre-batch planes are recorded in `undo`.
const FLAG_SAVED: u8 = 1;
/// The net is listed in `scratch` for cleanup.
const FLAG_SCRATCH: u8 = 2;

/// The word-parallel implication engine. See the module docs.
#[derive(Debug, Clone)]
pub struct LaneEngine {
    view: Arc<NetView>,
    /// Interleaved planes, `[val, known]` per net: bit `l` of `known`
    /// set means lane `l` carries a constant, and bit `l` of `val` set
    /// means it is One (only meaningful where the `known` bit is set;
    /// `val ⊆ known` always). Interleaving keeps both words of a net on
    /// one cache line — the wave reads them together for every fanin.
    planes: Vec<[u64; 2]>,
    /// All-ones for nets forced in the committed base state (every lane
    /// sees the committed force), zero otherwise.
    base_forced: Vec<u64>,
    // --- per-batch scratch, cleared by `undo_batch` ---
    /// Interleaved `[touched, pinned]` per net: lanes whose wave visited
    /// this gate (some fanin changed), and lanes that force this net as
    /// their trial root. One cache line serves both reads of the drain.
    marks: Vec<[u64; 2]>,
    /// Nets with any scratch bits set, for O(cone) cleanup.
    scratch: Vec<u32>,
    /// Per-net flag byte: [`FLAG_SAVED`] | [`FLAG_SCRATCH`]. The save and
    /// scratch dedup checks share one byte (and one cache line) per net.
    flags: Vec<u8>,
    /// Saved planes of modified nets: `(net, old_val, old_known)`.
    undo: Vec<(u32, u64, u64)>,
    /// Union-cone worklist: one bit per *topological position*. The wave
    /// only ever moves forward (a gate's fanouts sit at strictly higher
    /// positions), so draining the lowest set bit first visits every
    /// gate after all its updated fanins — the min-heap discipline of
    /// the scalar wave — while a push is a single `or` and the drain is
    /// a forward scan that never revisits a word it has left behind.
    wave: Vec<u64>,
    // --- per-batch union records, valid until the next `preview_batch` ---
    /// Union change record `(net index, lanes-changed mask)` in wave
    /// order: one entry per visited net that changed in any lane (a net
    /// rooting several lanes appears once per rooting lane). This is the
    /// engine's *primary* output: everything per-lane — changed nets,
    /// trial values — is a mask-filtered view of it
    /// plus the planes, so consumers scale with the union size, not with
    /// `64 × cascade`. Per-lane lists are reconstructed on demand by
    /// [`LaneEngine::lane_changes`] (tests and debugging).
    union_changes: Vec<(u32, u64)>,
}

impl LaneEngine {
    /// Builds a lane engine mirroring the scalar engine's current
    /// committed state (values and forces replicated into all 64 lanes).
    pub fn mirror(imp: &Implication<'_>) -> Self {
        let view = Arc::clone(imp.view());
        let n = view.gate_count();
        let mut planes = vec![[0u64; 2]; n];
        let mut base_forced = vec![0u64; n];
        for i in 0..n {
            let g = GateId::from_index(i);
            match imp.value(g) {
                Trit::One => planes[i] = [!0, !0],
                Trit::Zero => planes[i] = [0, !0],
                Trit::X => {}
            }
            if imp.is_forced(g) {
                base_forced[i] = !0;
            }
        }
        LaneEngine {
            view,
            planes,
            base_forced,
            marks: vec![[0; 2]; n],
            scratch: Vec::new(),
            flags: vec![0; n],
            undo: Vec::new(),
            wave: vec![0; n.div_ceil(64)],
            union_changes: Vec::new(),
        }
    }

    /// Replays a committed `force(root, …)` into the base planes: `root`
    /// becomes base-forced and every changed net takes its new value in
    /// all lanes. `delta` is the scalar engine's return from that force.
    pub fn apply_committed(&mut self, root: GateId, delta: &[Assignment]) {
        debug_assert!(self.undo.is_empty(), "commit during an open batch");
        self.base_forced[root.index()] = !0;
        for a in delta {
            let i = a.net.index();
            self.planes[i] = match a.value {
                Trit::One => [!0, !0],
                Trit::Zero => [0, !0],
                Trit::X => [0, 0],
            };
        }
    }

    /// Trial value of `net` in lane `lane` (base value when the lane's
    /// wave did not touch it). Meaningful while a batch is applied; on an
    /// idle engine it reads the mirrored base state.
    #[inline]
    pub fn lane_value(&self, lane: usize, net: GateId) -> Trit {
        let bit = 1u64 << lane;
        let [v, k] = self.planes[net.index()];
        if k & bit == 0 {
            Trit::X
        } else if v & bit != 0 {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// Union change record of the open batch: `(net index, mask)` where
    /// bit `l` of the mask is set iff lane `l` changed the net. One entry
    /// per union net in wave order (a net two lanes root can appear
    /// twice). Valid until the next [`LaneEngine::preview_batch`].
    #[inline]
    pub fn union_changes(&self) -> &[(u32, u64)] {
        &self.union_changes
    }

    /// Raw plane words of `net` — bit `l` of each word is lane `l`'s
    /// trial value/known bit. The word-at-a-time view of
    /// [`LaneEngine::lane_value`] for consumers processing all lanes of
    /// a union record entry at once.
    #[inline]
    pub fn planes(&self, net: usize) -> (u64, u64) {
        let [v, k] = self.planes[net];
        (v, k)
    }

    /// Reconstructs lane `lane`'s changed-net list — identical, element
    /// for element, to `Preview::changes()` of the equivalent scalar
    /// `preview_force` (the union record is in wave order, and a lane's
    /// subsequence of it is that lane's wave order). Requires the batch
    /// to still be open (values are read from the planes). O(union);
    /// meant for tests and debugging — hot paths consume the union
    /// record directly.
    pub fn lane_changes(&self, lane: usize) -> Vec<Assignment> {
        let bit = 1u64 << lane;
        self.union_changes
            .iter()
            .filter(|&&(_, mask)| mask & bit != 0)
            .map(|&(net, _)| {
                let g = GateId::from_index(net as usize);
                Assignment { net: g, value: self.lane_value(lane, g) }
            })
            .collect()
    }

    fn save(&mut self, i: usize) {
        if self.flags[i] & FLAG_SAVED == 0 {
            self.flags[i] |= FLAG_SAVED;
            let [v, k] = self.planes[i];
            self.undo.push((i as u32, v, k));
        }
    }

    fn mark_scratch(&mut self, i: usize) {
        if self.flags[i] & FLAG_SCRATCH == 0 {
            self.flags[i] |= FLAG_SCRATCH;
            self.scratch.push(i as u32);
        }
    }

    /// Forces up to 64 trial roots — lane `l` forces `roots[l]` — and
    /// propagates all lanes forward in one ordered pass over the union
    /// of the fanout cones. The engine then holds every lane's trial
    /// state simultaneously (readable through [`LaneEngine::lane_value`],
    /// [`LaneEngine::planes`] and [`LaneEngine::union_changes`]) until
    /// [`LaneEngine::undo_batch`].
    ///
    /// Caller contract (checked by debug assertions): at most one batch
    /// open at a time; every root is non-forced in the base state and
    /// its trial value differs from its base value — TPGREED filters
    /// forced and already-implied candidates before ever previewing, in
    /// both the scalar and the lane path.
    pub fn preview_batch(&mut self, roots: &[(GateId, Trit)]) {
        assert!(roots.len() <= LANES, "at most {LANES} lanes per batch");
        debug_assert!(self.undo.is_empty(), "previous batch not undone");
        debug_assert!(self.wave.iter().all(|&w| w == 0), "worklist drained by the last batch");
        let view = Arc::clone(&self.view);
        self.union_changes.clear();
        for (lane, &(net, value)) in roots.iter().enumerate() {
            let i = net.index();
            let bit = 1u64 << lane;
            debug_assert_eq!(self.base_forced[i], 0, "root must not be base-forced");
            debug_assert_ne!(self.lane_value(lane, net), value, "root value must change");
            debug_assert!(value.is_known(), "roots force constants");
            self.save(i);
            self.mark_scratch(i);
            self.marks[i][1] |= bit;
            self.planes[i][1] |= bit;
            if value == Trit::One {
                self.planes[i][0] |= bit;
            } else {
                self.planes[i][0] &= !bit;
            }
            self.union_changes.push((i as u32, bit));
            for &sink in view.comb_fanouts(i) {
                let s = sink as usize;
                self.mark_scratch(s);
                self.marks[s][0] |= bit;
                let pos = view.topo_pos(s) as usize;
                self.wave[pos / 64] |= 1u64 << (pos % 64);
            }
        }
        // Ordered union-cone pass: every gate drains after all its
        // updated fanins (fanins have strictly lower topological
        // positions, so new work always lands at or ahead of the scan,
        // never behind it) — each gate is evaluated at most once,
        // exactly like the scalar wave, but across all lanes at once.
        let mut w = 0;
        while w < self.wave.len() {
            let word = self.wave[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let b = word.trailing_zeros() as usize;
            self.wave[w] &= !(1u64 << b);
            let pos = w * 64 + b;
            let gu = view.topo()[pos];
            let i = gu as usize;
            if self.base_forced[i] != 0 {
                continue; // pinned by a committed force in every lane
            }
            let [t, pinned] = self.marks[i];
            let (ev, ek) = self.eval_lanes(i);
            let [ov, ok] = self.planes[i];
            // Untouched lanes and trial-pinned lanes keep their value.
            let keep = !t | pinned;
            let nv = (ov & keep) | (ev & !keep);
            let nk = (ok & keep) | (ek & !keep);
            // Changed: known flipped either way, or known-to-known value
            // flip (previews can also *lose* constants: forcing an OR
            // input from 1 to 0 turns the output X).
            let ch = (nk ^ ok) | (nk & ok & (nv ^ ov));
            if ch != 0 {
                self.save(i);
                self.planes[i] = [nv, nk];
                self.union_changes.push((i as u32, ch));
                for &sink in view.comb_fanouts(i) {
                    let s = sink as usize;
                    self.mark_scratch(s);
                    self.marks[s][0] |= ch;
                    let pos = view.topo_pos(s) as usize;
                    self.wave[pos / 64] |= 1u64 << (pos % 64);
                }
            }
        }
    }

    /// Reverts the open batch exactly: restores every modified plane and
    /// clears the scratch masks.
    pub fn undo_batch(&mut self) {
        for &(i, v, k) in &self.undo {
            self.planes[i as usize] = [v, k];
        }
        self.undo.clear();
        for &i in &self.scratch {
            self.marks[i as usize] = [0, 0];
            self.flags[i as usize] = 0;
        }
        self.scratch.clear();
    }

    /// Bitwise ternary evaluation of gate `i` across all lanes.
    /// Lane-parallel twin of [`crate::eval_gate`].
    #[inline]
    fn eval_lanes(&self, i: usize) -> (u64, u64) {
        let fanin = self.view.fanin(i);
        let vk = |j: usize| {
            let [v, k] = self.planes[fanin[j] as usize];
            (v, k)
        };
        match self.view.kind(i) {
            GateKind::And | GateKind::Nand => {
                let mut any0 = 0u64;
                let mut all1 = !0u64;
                for &f in fanin {
                    let [v, k] = self.planes[f as usize];
                    any0 |= k & !v;
                    all1 &= k & v;
                }
                let known = any0 | all1;
                if self.view.kind(i) == GateKind::And {
                    (all1, known)
                } else {
                    (any0, known)
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut any1 = 0u64;
                let mut all0 = !0u64;
                for &f in fanin {
                    let [v, k] = self.planes[f as usize];
                    any1 |= k & v;
                    all0 &= k & !v;
                }
                let known = any1 | all0;
                if self.view.kind(i) == GateKind::Or {
                    (any1, known)
                } else {
                    (all0, known)
                }
            }
            GateKind::Inv => {
                let (v, k) = vk(0);
                (k & !v, k)
            }
            GateKind::Buf => vk(0),
            GateKind::Xor => {
                let (v0, k0) = vk(0);
                let (v1, k1) = vk(1);
                let k = k0 & k1;
                (k & (v0 ^ v1), k)
            }
            GateKind::Xnor => {
                let (v0, k0) = vk(0);
                let (v1, k1) = vk(1);
                let k = k0 & k1;
                (k & !(v0 ^ v1), k)
            }
            GateKind::Mux => {
                let (vs, ks) = vk(0);
                let (v0, k0) = vk(1);
                let (v1, k1) = vk(2);
                let b0 = ks & !vs;
                let b1 = ks & vs;
                // Unknown select, both data known and equal.
                let bx = !ks & k0 & k1 & !(v0 ^ v1);
                let known = (b0 & k0) | (b1 & k1) | bx;
                ((b0 & v0) | (b1 & v1) | (bx & v0), known)
            }
            GateKind::Const0 => (0, !0),
            GateKind::Const1 => (!0, !0),
            GateKind::Input | GateKind::Output | GateKind::Dff => (0, 0),
        }
    }
}

/// Parallel sweeps clone one lane engine per worker; keep it `Clone +
/// Send + Sync` like the scalar engine.
const _: () = {
    const fn assert_parallel_ready<T: Clone + Send + Sync>() {}
    let _ = assert_parallel_ready::<LaneEngine>;
};

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{GateKind, Netlist};

    fn diamond() -> (Netlist, GateId, GateId, GateId, GateId, GateId) {
        // a, b inputs; g1 = AND(a, b); g2 = OR(a, g1); o = INV(g2)
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, "g1");
        n.connect(a, g1).unwrap();
        n.connect(b, g1).unwrap();
        let g2 = n.add_gate(GateKind::Or, "g2");
        n.connect(a, g2).unwrap();
        n.connect(g1, g2).unwrap();
        let o = n.add_gate(GateKind::Inv, "o");
        n.connect(g2, o).unwrap();
        (n, a, b, g1, g2, o)
    }

    /// One batch with two lanes must reproduce the two scalar previews
    /// value-for-value and change-for-change.
    #[test]
    fn two_lanes_match_two_scalar_previews() {
        let (n, a, b, _g1, _g2, _o) = diamond();
        let mut imp = Implication::new(&n);
        let mut lanes = LaneEngine::mirror(&imp);
        let roots = [(a, Trit::Zero), (b, Trit::One)];
        lanes.preview_batch(&roots);
        for (lane, &(net, value)) in roots.iter().enumerate() {
            let p = imp.preview_force(net, value);
            assert_eq!(lanes.lane_changes(lane), p.changes(), "lane {lane} changes");
            for g in n.gate_ids() {
                assert_eq!(lanes.lane_value(lane, g), imp.value(g), "lane {lane} net {g}");
            }
            imp.undo_preview(p);
        }
        lanes.undo_batch();
        for g in n.gate_ids() {
            assert_eq!(lanes.lane_value(0, g), imp.value(g), "undo restores base");
        }
    }

    /// A committed force is visible to later batches (and the committed
    /// net is never a legal root afterwards).
    #[test]
    fn committed_state_feeds_batches() {
        let (n, a, b, g1, _g2, _o) = diamond();
        let mut imp = Implication::new(&n);
        let mut lanes = LaneEngine::mirror(&imp);
        let delta = imp.force(a, Trit::One);
        lanes.apply_committed(a, &delta);
        lanes.preview_batch(&[(b, Trit::One)]);
        let p = imp.preview_force(b, Trit::One);
        assert_eq!(lanes.lane_changes(0), p.changes());
        assert_eq!(lanes.lane_value(0, g1), Trit::One, "AND(1,1) under trial");
        imp.undo_preview(p);
        lanes.undo_batch();
        assert_eq!(lanes.lane_value(0, a), Trit::One, "committed value survives undo");
    }

    /// Two lanes forcing the *same net* to opposite values coexist.
    #[test]
    fn opposite_values_on_one_net_coexist() {
        let (n, a, _b, _g1, g2, o) = diamond();
        let _ = n;
        let mut imp = Implication::new(&n);
        let mut lanes = LaneEngine::mirror(&imp);
        let roots = [(g2, Trit::Zero), (g2, Trit::One)];
        lanes.preview_batch(&roots);
        assert_eq!(lanes.lane_value(0, o), Trit::One);
        assert_eq!(lanes.lane_value(1, o), Trit::Zero);
        for (lane, &(net, value)) in roots.iter().enumerate() {
            let p = imp.preview_force(net, value);
            assert_eq!(lanes.lane_changes(lane), p.changes(), "lane {lane}");
            imp.undo_preview(p);
        }
        lanes.undo_batch();
        assert_eq!(lanes.lane_value(0, a), Trit::X);
    }
}

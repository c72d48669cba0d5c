//! Dense (SoA) sweep-side data for TPGREED's inner loops.
//!
//! The greedy gain sweep interrogates the same three structures millions
//! of times per run: *which paths does this net affect* (the pin-level
//! reverse index), *what is this path's status under a trial implication*
//! (side-input sources and their sensitizing values), and *which dense
//! flip-flop slot does this FF map to* (chain bookkeeping). [`PathSet`]
//! and the `HashMap`-based lookups answer all three correctly but pay a
//! hash + pointer hop per query; [`SweepArena`] flattens them into
//! contiguous CSR arrays built once per [`crate::tpgreed::TpGreed`] run,
//! indexed directly by net index and [`PathId`]. It is pure data — no
//! mutable state — so worker threads share it by reference.

use crate::paths::{PathId, PathSet};
use tpi_netlist::{GateId, Netlist};
use tpi_sim::Trit;

/// Sentinel for "this gate is not a flip-flop" in [`SweepArena::ff_slot`].
const NO_FF: u32 = u32::MAX;

/// Flattened per-run snapshot of the path set and FF numbering. See the
/// module docs.
#[derive(Debug)]
pub(crate) struct SweepArena {
    /// Gate index -> dense FF slot (`NO_FF` for non-FF gates).
    ff_index: Vec<u32>,
    /// Per-path side inputs, CSR: `(source net index, sensitizing value
    /// of the sink gate)`. The sensitizing value is resolved at build
    /// time — it depends only on the sink's kind.
    side_off: Vec<u32>,
    sides: Vec<(u32, Option<Trit>)>,
    /// Per-path on-path gates, CSR.
    gate_off: Vec<u32>,
    gates: Vec<u32>,
    /// Per-path endpoints (net indices).
    from: Vec<u32>,
    to: Vec<u32>,
    /// Net index -> whether the net has any pin below. The gain sweep
    /// walks every changed net of a preview batch; on large circuits most
    /// changed nets are filler logic no path touches, so one dense bool
    /// read short-circuits the pin lookup on the hot path.
    path_relevant: Vec<bool>,
    /// Net index -> *pin-level* reverse index, CSR: every role the net
    /// plays in any path, one entry per pin. Duplicates are kept (a net
    /// feeding two side pins of one path appears twice, with each pin's
    /// own sensitizing value), which is what lets a consumer turn "net
    /// changed to `v`" into an O(1) per-pin status delta instead of
    /// re-walking the whole path.
    pin_off: Vec<u32>,
    pins: Vec<PathPin>,
}

/// One entry of the pin-level reverse index: the path and the role the
/// net plays in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PinRole {
    /// The net is a gate on the path: any constant nullifies.
    Through,
    /// The net is the path's source flip-flop: any constant nullifies.
    From,
    /// The net feeds a side pin whose sink sensitizes on this value
    /// (`None` for non-sensitizable sinks, where any constant
    /// nullifies).
    Side(Option<Trit>),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct PathPin {
    pub path: PathId,
    pub role: PinRole,
}

impl SweepArena {
    pub(crate) fn build(n: &Netlist, paths: &PathSet) -> Self {
        let gate_count = n.gate_count();
        let mut ff_index = vec![NO_FF; gate_count];
        for (slot, ff) in n.dffs().into_iter().enumerate() {
            ff_index[ff.index()] = slot as u32;
        }
        let count = paths.len();
        let mut side_off = Vec::with_capacity(count + 1);
        let mut sides = Vec::new();
        let mut gate_off = Vec::with_capacity(count + 1);
        let mut gates = Vec::new();
        let mut from = Vec::with_capacity(count);
        let mut to = Vec::with_capacity(count);
        side_off.push(0);
        gate_off.push(0);
        for id in paths.ids() {
            let p = paths.path(id);
            for c in &p.side_inputs {
                let sens = n.kind(c.sink).sensitizing_value().map(Trit::from);
                sides.push((c.source.index() as u32, sens));
            }
            side_off.push(sides.len() as u32);
            gates.extend(p.gates.iter().map(|g| g.index() as u32));
            gate_off.push(gates.len() as u32);
            from.push(p.from.index() as u32);
            to.push(p.to.index() as u32);
        }
        // Pin-level reverse CSR: two-pass count + fill, paths ascending,
        // roles in From/Through/Side order within each path.
        let mut pin_counts = vec![0u32; gate_count + 1];
        for p in 0..count {
            pin_counts[from[p] as usize + 1] += 1;
            for &g in &gates[gate_off[p] as usize..gate_off[p + 1] as usize] {
                pin_counts[g as usize + 1] += 1;
            }
            for &(src, _) in &sides[side_off[p] as usize..side_off[p + 1] as usize] {
                pin_counts[src as usize + 1] += 1;
            }
        }
        for i in 0..gate_count {
            pin_counts[i + 1] += pin_counts[i];
        }
        let pin_off = pin_counts.clone();
        let mut cursor = pin_counts;
        let dummy = PathPin { path: PathId(0), role: PinRole::From };
        let mut pins = vec![dummy; pin_off[gate_count] as usize];
        for p in 0..count {
            let mut place = |net: u32, role: PinRole| {
                pins[cursor[net as usize] as usize] = PathPin { path: PathId(p as u32), role };
                cursor[net as usize] += 1;
            };
            place(from[p], PinRole::From);
            for &g in &gates[gate_off[p] as usize..gate_off[p + 1] as usize] {
                place(g, PinRole::Through);
            }
            for &(src, sens) in &sides[side_off[p] as usize..side_off[p + 1] as usize] {
                place(src, PinRole::Side(sens));
            }
        }
        let path_relevant = (0..gate_count).map(|i| pin_off[i] != pin_off[i + 1]).collect();
        SweepArena {
            ff_index,
            side_off,
            sides,
            gate_off,
            gates,
            from,
            to,
            path_relevant,
            pin_off,
            pins,
        }
    }

    /// Pin-level reverse index of `net`: every pin of every path the net
    /// feeds, duplicates preserved. See [`PathPin`].
    #[inline]
    pub(crate) fn pins(&self, net: usize) -> &[PathPin] {
        &self.pins[self.pin_off[net] as usize..self.pin_off[net + 1] as usize]
    }

    /// Whether any path lists `net` in any role: `false` means
    /// [`SweepArena::pins`] is empty for `net`.
    #[inline]
    pub(crate) fn path_relevant(&self, net: GateId) -> bool {
        self.path_relevant[net.index()]
    }

    /// Dense FF slot of `g`, if `g` is a flip-flop.
    #[inline]
    pub(crate) fn ff_slot(&self, g: GateId) -> Option<usize> {
        match self.ff_index[g.index()] {
            NO_FF => None,
            slot => Some(slot as usize),
        }
    }

    /// Source flip-flop of path `id`.
    #[inline]
    pub(crate) fn source_gate(&self, id: PathId) -> GateId {
        GateId::from_index(self.from[id.index()] as usize)
    }

    /// Destination flip-flop of path `id`.
    #[inline]
    pub(crate) fn to_gate(&self, id: PathId) -> GateId {
        GateId::from_index(self.to[id.index()] as usize)
    }

    /// Status of path `id` under the value assignment `value`:
    /// `(nullified, w)` where `w` counts side inputs still unknown. The
    /// value oracle is any assignment source (TPGREED passes its
    /// committed implication state); the logic is the paper's path
    /// bookkeeping (a constant at the source FF or on a path gate blocks
    /// shifting; a non-sensitizing constant on a side input nullifies).
    pub(crate) fn path_status(&self, id: PathId, value: &impl Fn(GateId) -> Trit) -> (bool, u32) {
        let p = id.index();
        if value(self.source_gate(id)).is_known() {
            return (true, 0);
        }
        let (glo, ghi) = (self.gate_off[p] as usize, self.gate_off[p + 1] as usize);
        for &g in &self.gates[glo..ghi] {
            if value(GateId::from_index(g as usize)).is_known() {
                return (true, 0);
            }
        }
        let mut w = 0;
        let (slo, shi) = (self.side_off[p] as usize, self.side_off[p + 1] as usize);
        for &(src, sens) in &self.sides[slo..shi] {
            match value(GateId::from_index(src as usize)) {
                Trit::X => w += 1,
                v if Some(v) == sens => {}
                _ => return (true, 0),
            }
        }
        (false, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::enumerate_paths;
    use tpi_netlist::NetlistBuilder;
    use tpi_sim::Implication;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("arena");
        b.input("x");
        b.input("d1");
        b.input("d4");
        b.dff("f1", "d1");
        b.dff("f4", "d4");
        b.gate(tpi_netlist::GateKind::Or, "g1", &["f1", "x"]);
        b.dff("f2", "g1");
        b.gate(tpi_netlist::GateKind::And, "g2", &["f2", "f4"]);
        b.dff("f3", "g2");
        b.output("o", "f3");
        b.finish().unwrap()
    }

    /// The arena's pin index, split by role, must list exactly the paths
    /// the `PathSet` hash indices list, and `path_relevant` must be set
    /// exactly where a net has pins.
    #[test]
    fn arena_mirrors_pathset_indices() {
        let n = sample();
        let paths = enumerate_paths(&n, 10, usize::MAX);
        let arena = SweepArena::build(&n, &paths);
        let sorted = |ids: &[PathId]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        };
        for g in n.gate_ids() {
            let pins = arena.pins(g.index());
            let role = |keep: fn(PinRole) -> bool| {
                let ids: Vec<PathId> =
                    pins.iter().filter(|p| keep(p.role)).map(|p| p.path).collect();
                sorted(&ids)
            };
            let side = role(|r| matches!(r, PinRole::Side(_)));
            assert_eq!(side, sorted(paths.paths_with_side_source(g)), "side source {g}");
            let through = role(|r| r == PinRole::Through);
            assert_eq!(through, sorted(paths.paths_through(g)), "through {g}");
            let from = role(|r| r == PinRole::From);
            assert_eq!(from, sorted(paths.paths_from(g)), "from {g}");
            assert_eq!(arena.path_relevant(g), !pins.is_empty(), "relevant {g}");
        }
        for (slot, ff) in n.dffs().into_iter().enumerate() {
            assert_eq!(arena.ff_slot(ff), Some(slot));
        }
        for id in paths.ids() {
            assert_eq!(arena.source_gate(id), paths.path(id).from);
            assert_eq!(arena.to_gate(id), paths.path(id).to);
        }
    }

    #[test]
    fn path_status_tracks_implication() {
        let n = sample();
        let paths = enumerate_paths(&n, 10, usize::MAX);
        let arena = SweepArena::build(&n, &paths);
        let mut imp = Implication::new(&n);
        // Initially every side input is unknown.
        for id in paths.ids() {
            let (nullified, w) = arena.path_status(id, &|g| imp.value(g));
            assert!(!nullified);
            assert_eq!(w as usize, paths.path(id).side_input_count());
        }
        // x = 0 sensitizes the OR side input of f1 -> f2.
        let x = n.find("x").unwrap();
        imp.force(x, Trit::Zero);
        let (f1, f2) = (n.find("f1").unwrap(), n.find("f2").unwrap());
        let id = paths.pair(f1, f2)[0];
        assert_eq!(arena.path_status(id, &|g| imp.value(g)), (false, 0));
    }
}

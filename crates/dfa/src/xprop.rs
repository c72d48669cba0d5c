//! X-propagation reach: which nets can carry an unknown value from an
//! uninitialized flip-flop.
//!
//! The netlist model has no reset values, so at power-up every
//! flip-flop holds X. During a scan flush those Xs ride the established
//! paths through the combinational logic; a capture from an X-reachable
//! net is unpredictable until the sources are flushed out. This
//! analysis computes the *structural* (conservative) reach: a net is
//! flagged if any fanin cone path connects it to a flip-flop Q,
//! ignoring controlling-value masking — the same over-approximation the
//! ternary simulator would confirm case by case.
//!
//! The propagation is one forward topo pass over a per-net flag: every
//! flip-flop Q is seeded, and each flagged gate flags its sinks.
//! Sequential boundaries stop the wave (a D pin's reach is its driver
//! net's reach, and the flip-flop itself is already seeded); `Output`
//! ports are transparent.

use tpi_netlist::GateKind;
use tpi_sim::NetView;

/// Per-net X reach from uninitialized flip-flops.
#[derive(Debug, Clone)]
pub struct XReach {
    /// Whether some flip-flop's X can reach each net.
    reached: Vec<bool>,
    /// Total flip-flops in the snapshot.
    pub ff_count: usize,
}

impl XReach {
    /// Runs the one-pass propagation over the snapshot.
    pub fn analyze(view: &NetView) -> XReach {
        let mut reached: Vec<bool> =
            (0..view.gate_count()).map(|g| view.kind(g) == GateKind::Dff).collect();
        let ff_count = reached.iter().filter(|&&r| r).count();
        for &gi in view.topo() {
            if reached[gi as usize] {
                for &s in view.fanouts(gi as usize) {
                    reached[s as usize] = true;
                }
            }
        }
        XReach { reached, ff_count }
    }

    /// Whether any flip-flop X can reach net `g`.
    #[inline]
    pub fn reachable(&self, g: usize) -> bool {
        self.reached[g]
    }

    /// Number of X-reachable nets in the snapshot.
    pub fn reachable_nets(&self) -> usize {
        self.reached.iter().filter(|&&r| r).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::Netlist;
    use tpi_workloads::industrial::{generate_industrial, IndustrialSpec};
    use tpi_workloads::{generate, smoke_suite, suite, CircuitSpec, StructureClass};

    /// The per-source propagation the one-pass analysis replaced, kept
    /// as its oracle: flip-flops own one bit of a 64-wide plane, chunk
    /// by chunk, so each net's count of distinct reaching flip-flops is
    /// exact. Returns the per-net counts and the flip-flop count.
    fn chunked_source_counts(view: &NetView) -> (Vec<u32>, usize) {
        let n = view.gate_count();
        let ffs: Vec<u32> =
            (0..n as u32).filter(|&g| view.kind(g as usize) == GateKind::Dff).collect();
        let mut source_counts = vec![0u32; n];
        let mut plane = vec![0u64; n];
        for chunk in ffs.chunks(64) {
            plane.fill(0);
            for (bit, &ff) in chunk.iter().enumerate() {
                plane[ff as usize] |= 1u64 << bit;
            }
            for &gi in view.topo() {
                let g = gi as usize;
                let p = plane[g];
                if p == 0 {
                    continue;
                }
                for &s in view.fanouts(g) {
                    if view.kind(s as usize) != GateKind::Dff {
                        plane[s as usize] |= p;
                    }
                }
            }
            for (count, p) in source_counts.iter_mut().zip(&plane) {
                *count += p.count_ones();
            }
        }
        (source_counts, ffs.len())
    }

    /// Every net's flag, `xreach_nets` and `xreach_sources` equal the
    /// oracle's.
    fn assert_matches_oracle(n: &Netlist) {
        let view = NetView::new(n);
        let x = XReach::analyze(&view);
        let (counts, ffs) = chunked_source_counts(&view);
        for (g, &c) in counts.iter().enumerate() {
            assert_eq!(x.reachable(g), c > 0, "{}: net {g}", n.name());
        }
        let nets = counts.iter().filter(|&&c| c > 0).count();
        assert_eq!(x.reachable_nets(), nets, "{}: xreach_nets", n.name());
        assert_eq!(x.ff_count, ffs, "{}: xreach_sources", n.name());
    }

    #[test]
    fn reach_flags_what_any_source_touches() {
        // Two FFs converge on one AND; a pure-PI net stays clean.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        n.connect(a, f1).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(a, f2).unwrap();
        let g = n.add_gate(GateKind::And, "g");
        n.connect(f1, g).unwrap();
        n.connect(f2, g).unwrap();
        let clean = n.add_gate(GateKind::Inv, "clean");
        n.connect(a, clean).unwrap();
        n.add_output("y", g).unwrap();
        n.add_output("z", clean).unwrap();
        let view = NetView::new(&n);
        let x = XReach::analyze(&view);
        assert_eq!(x.ff_count, 2);
        assert!(x.reachable(f1.index()));
        assert!(x.reachable(g.index()));
        assert!(!x.reachable(a.index()));
        assert!(!x.reachable(clean.index()));
        // The Output port is transparent: y carries g's reach.
        assert!(x.reachable(n.outputs()[0].index()));
        assert_eq!(x.reachable_nets(), 4); // f1, f2, g, y
                                           // The oracle counts distinct sources.
        let (counts, _) = chunked_source_counts(&view);
        assert_eq!(counts[g.index()], 2);
        assert_eq!(counts[n.outputs()[0].index()], 2);
        assert_matches_oracle(&n);
    }

    #[test]
    fn wave_stops_at_the_next_register() {
        let mut n = Netlist::new("t");
        let f1 = n.add_gate(GateKind::Dff, "f1");
        let inv = n.add_gate(GateKind::Inv, "inv");
        n.connect(f1, inv).unwrap();
        let f2 = n.add_gate(GateKind::Dff, "f2");
        n.connect(inv, f2).unwrap();
        n.connect(f2, f1).unwrap();
        n.add_output("y", f2).unwrap();
        // inv sees f1's X only; f2's own reach is just itself (the
        // boundary stops f1's wave at f2's D pin).
        let (counts, _) = chunked_source_counts(&NetView::new(&n));
        assert_eq!(counts[inv.index()], 1);
        assert_eq!(counts[f2.index()], 1);
        assert_matches_oracle(&n);
    }

    #[test]
    fn one_pass_equals_the_chunked_oracle_on_the_suite() {
        for spec in suite().iter().chain(&smoke_suite()) {
            assert_matches_oracle(&generate(spec));
        }
    }

    #[test]
    fn one_pass_equals_the_chunked_oracle_on_seeded_circuits() {
        for seed in 0..6u64 {
            let structure = match seed % 3 {
                0 => StructureClass::mixed(0.5, 4, 20, 2),
                1 => StructureClass::datapath(4, 3, 2),
                _ => StructureClass::multiplier(12),
            };
            let spec = CircuitSpec {
                name: format!("seeded{seed}"),
                inputs: 10,
                outputs: 8,
                ffs: 90 + 40 * seed as usize,
                target_gates: 700,
                structure,
                seed,
            };
            assert_matches_oracle(&generate(&spec));
            assert_matches_oracle(&generate_industrial(&IndustrialSpec::sized(
                format!("ind{seed}"),
                3_000,
                seed,
            )));
        }
    }
}

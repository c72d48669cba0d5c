//! The circuits of the paper's illustrative figures, transliterated.
//!
//! Each constructor returns the circuit exactly as the figure draws it
//! (up to gate polarities the paper leaves implicit, which are chosen so
//! that the figure's described transformation works verbatim). The
//! `figures` binary in `tpi-bench` replays each transformation and
//! prints the before/after netlists; the tests in this module and in the
//! repository-level `tests/figures.rs` assert the claimed outcomes.

use tpi_netlist::{GateId, GateKind, Netlist, NetlistBuilder};

/// Figure 1: a partial scan chain `F1 -> F2 -> F3` through functional
/// logic, enabled by `x = 0` at a primary input and one AND test point at
/// the output of `F4` — versus two multiplexers for conventional scan.
///
/// Returns the netlist and `(x, f1, f2, f3, f4)`.
pub fn fig1() -> (Netlist, [GateId; 5]) {
    let mut b = NetlistBuilder::new("fig1");
    b.input("x");
    b.input("d1");
    b.input("d4");
    b.dff("f1", "d1");
    b.dff("f4", "d4");
    // F1 -> g1 -> F2, side input x (OR: sensitizing value 0).
    b.gate(GateKind::Or, "g1", &["f1", "x"]);
    b.dff("f2", "g1");
    // F2 -> g2 -> F3, side input F4 (OR: sensitizing value 0, produced by
    // an AND test point at F4's output).
    b.gate(GateKind::Or, "g2", &["f2", "f4"]);
    b.dff("f3", "g2");
    b.output("o", "f3");
    let n = b.finish().expect("figure 1 is well-formed");
    let ids = [
        n.find("x").unwrap(),
        n.find("f1").unwrap(),
        n.find("f2").unwrap(),
        n.find("f3").unwrap(),
        n.find("f4").unwrap(),
    ];
    (n, ids)
}

/// Figure 2: two desired test-point constants, of which exactly one can
/// be produced for free by a primary-input assignment: `t1 = OR(a, b)`
/// must be 0 (needs `a = 0, b = 0`) while `t2 = AND(a, c)` must be 1
/// (needs `a = 1, c = 1`) — the requirements conflict on `a`, so one
/// constant is set up for free and the other still needs a physical gate.
///
/// Returns the netlist and `(a, b, c, t1, t2)`.
pub fn fig2() -> (Netlist, [GateId; 5]) {
    let mut b = NetlistBuilder::new("fig2");
    b.input("a");
    b.input("b");
    b.input("c");
    b.input("d1");
    b.input("d3");
    b.gate(GateKind::Or, "t1", &["a", "b"]);
    b.gate(GateKind::And, "t2", &["a", "c"]);
    b.dff("f1", "d1");
    b.gate(GateKind::Or, "g1", &["f1", "t1"]); // wants t1 = 0
    b.dff("f2", "g1");
    b.dff("f3", "d3");
    b.gate(GateKind::And, "g2", &["f3", "t2"]); // wants t2 = 1
    b.dff("f4", "g2");
    b.output("o1", "f2");
    b.output("o2", "f4");
    let n = b.finish().expect("figure 2 is well-formed");
    let ids = [
        n.find("a").unwrap(),
        n.find("b").unwrap(),
        n.find("c").unwrap(),
        n.find("t1").unwrap(),
        n.find("t2").unwrap(),
    ];
    (n, ids)
}

/// Figure 3: the bold critical path runs into `F2`, so a mux directly at
/// `F2`'s D input would degrade the clock. The combinational path
/// `F1 -> g1 -> g2 -> F2` can instead be sensitized by an OR test point
/// at side input `a` and an AND test point at `b` (which *implies* the
/// sensitizing 0 at `c`, whose own slack is insufficient).
///
/// Returns the netlist and `(f1, f2, a, b, c)` where `a`, `b`, `c` are
/// the nets the paper labels.
pub fn fig3() -> (Netlist, [GateId; 5]) {
    let mut b = NetlistBuilder::new("fig3");
    b.input("pi_a");
    b.input("pi_b");
    b.input("crit");
    b.input("d1");
    b.dff("f1", "d1");
    // The critical chain: a long inverter ladder.
    b.gate(GateKind::Inv, "k1", &["crit"]);
    b.gate(GateKind::Inv, "k2", &["k1"]);
    b.gate(GateKind::Inv, "k3", &["k2"]);
    b.gate(GateKind::Inv, "k4", &["k3"]);
    b.gate(GateKind::Inv, "k5", &["k4"]);
    b.gate(GateKind::Inv, "k6", &["k5"]);
    // c = AND(k6, b): on the critical path; forcing b = 0 implies c = 0.
    b.gate(GateKind::Buf, "b", &["pi_b"]);
    b.gate(GateKind::And, "c", &["k6", "b"]);
    // a: the OR-gate side input of g1.
    b.gate(GateKind::Buf, "a", &["pi_a"]);
    b.gate(GateKind::Or, "g1", &["f1", "a"]); // sensitize with a = ... OR needs 0; the
                                              // paper inserts an OR test point *at a* because the figure's gate
                                              // polarity differs; both polarities are exercised by the tests.
    b.gate(GateKind::Or, "g2", &["g1", "c"]); // c = 0 sensitizes
    b.dff("f2", "g2");
    b.output("o", "f2");
    let n = b.finish().expect("figure 3 is well-formed");
    let ids = [
        n.find("f1").unwrap(),
        n.find("f2").unwrap(),
        n.find("a").unwrap(),
        n.find("b").unwrap(),
        n.find("c").unwrap(),
    ];
    (n, ids)
}

/// Figure 4: the scan multiplexer need not sit directly behind the
/// flip-flop — it can be inserted at any connection `a` with enough
/// slack, with a test point at side input `b` sensitizing the rest of
/// the path into `F2`. The predecessor of `F2` in the chain can then be
/// *any* flip-flop, not `F1`.
///
/// Returns the netlist and `(f2, a, b)`.
pub fn fig4() -> (Netlist, [GateId; 3]) {
    let mut b = NetlistBuilder::new("fig4");
    b.input("pi_a");
    b.input("pi_b");
    b.input("crit");
    b.input("d1");
    b.dff("f1", "d1");
    // a: a slack-rich net upstream of the tight gate g1.
    b.gate(GateKind::Buf, "a", &["f1"]);
    b.gate(GateKind::Buf, "b", &["pi_b"]);
    b.gate(GateKind::And, "g1", &["a", "b"]); // heavy: extra fanouts below
    b.dff("f2", "g1");
    // Load g1 so a mux cannot be inserted at g1's own output.
    b.gate(GateKind::Inv, "l1", &["g1"]);
    b.gate(GateKind::Inv, "l2", &["g1"]);
    b.gate(GateKind::Inv, "l3", &["g1"]);
    b.gate(GateKind::Inv, "l4", &["g1"]);
    // Critical ladder fixing the clock.
    b.gate(GateKind::Inv, "k1", &["crit"]);
    b.gate(GateKind::Inv, "k2", &["k1"]);
    b.gate(GateKind::Inv, "k3", &["k2"]);
    b.gate(GateKind::Inv, "k4", &["k3"]);
    b.gate(GateKind::Inv, "k5", &["k4"]);
    b.gate(GateKind::Inv, "k6", &["k5"]);
    b.gate(GateKind::Inv, "k7", &["k6"]);
    b.gate(GateKind::Inv, "k8", &["k7"]);
    b.gate(GateKind::Inv, "k9", &["k8"]);
    b.gate(GateKind::Inv, "k10", &["k9"]);
    b.dff("f3", "k10");
    b.output("o", "f2");
    b.output("o2", "f3");
    b.output("o3", "pi_a");
    let n = b.finish().expect("figure 4 is well-formed");
    let ids = [n.find("f2").unwrap(), n.find("a").unwrap(), n.find("b").unwrap()];
    (n, ids)
}

/// Figure 6: desired versus side-effect constants. To make `c = 0`, the
/// only slack-feasible test point is an OR gate at `a` (forcing `a = 1`),
/// which implies the *desired* chain `a = 1, b = 0, c = 0` and the
/// *side-effect* constant `e = 1`.
///
/// Returns the netlist and `(a, b, c, e)`.
pub fn fig6() -> (Netlist, [GateId; 4]) {
    let mut b = NetlistBuilder::new("fig6");
    b.input("pi_a");
    b.input("y");
    b.input("z");
    b.gate(GateKind::Buf, "a", &["pi_a"]);
    b.gate(GateKind::Inv, "b", &["a"]); // a = 1 -> b = 0
    b.gate(GateKind::And, "c", &["b", "z"]); // b = 0 -> c = 0
    b.gate(GateKind::Or, "e", &["a", "y"]); // a = 1 -> e = 1 (side effect)
    b.input("d1");
    b.dff("f1", "d1");
    b.gate(GateKind::Or, "g", &["f1", "c"]); // scan path wants c = 0
    b.dff("f2", "g");
    b.output("o", "f2");
    b.output("oe", "e");
    let n = b.finish().expect("figure 6 is well-formed");
    let ids =
        [n.find("a").unwrap(), n.find("b").unwrap(), n.find("c").unwrap(), n.find("e").unwrap()];
    (n, ids)
}

/// Figure 7: the non-reconvergent fanin region of connection `c`
/// contains `a`, `b`, `d` but not `j`, `k` (gate `g3` reaches `c` along
/// two paths) nor `e` (it leaves the cone).
///
/// Returns the netlist and `(c_net, g1, g3, gd)` — see
/// [`tpi_netlist::region::Region`] for the analysis.
pub fn fig7() -> (Netlist, [GateId; 4]) {
    let mut b = NetlistBuilder::new("fig7");
    b.input("i1");
    b.input("i2");
    b.input("i3");
    b.gate(GateKind::And, "g3", &["i1", "i2"]); // fanins are j, k
    b.gate(GateKind::Inv, "p1", &["g3"]);
    b.gate(GateKind::Inv, "p2", &["g3"]);
    b.gate(GateKind::And, "gb", &["p1", "p2"]); // reconvergence of g3
    b.gate(GateKind::And, "g1", &["i3", "i1"]);
    b.gate(GateKind::Inv, "ga", &["g1"]); // connection a
    b.gate(GateKind::Inv, "ge", &["g1"]); // connection e (leaves cone)
    b.gate(GateKind::And, "gd", &["ga", "gb"]); // connection d
    b.gate(GateKind::And, "gc", &["gd", "i2"]); // target c
    b.output("oc", "gc");
    b.output("oe", "ge");
    let n = b.finish().expect("figure 7 is well-formed");
    let ids = [
        n.find("gc").unwrap(),
        n.find("g1").unwrap(),
        n.find("g3").unwrap(),
        n.find("gd").unwrap(),
    ];
    (n, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_validate() {
        fig1().0.validate().unwrap();
        fig2().0.validate().unwrap();
        fig3().0.validate().unwrap();
        fig4().0.validate().unwrap();
        fig6().0.validate().unwrap();
        fig7().0.validate().unwrap();
    }

    #[test]
    fn fig1_has_four_ffs_and_the_drawn_paths() {
        let (n, [x, f1, f2, f3, f4]) = fig1();
        assert_eq!(n.dffs().len(), 4);
        // x is a side input of g1; f4 of g2.
        let g1 = n.find("g1").unwrap();
        let g2 = n.find("g2").unwrap();
        assert!(n.fanin(g1).contains(&x));
        assert!(n.fanin(g1).contains(&f1));
        assert!(n.fanin(g2).contains(&f4));
        assert!(n.fanin(g2).contains(&f2));
        assert_eq!(n.fanin(f3), &[g2]);
    }

    #[test]
    fn fig6_implication_classifies_constants() {
        use tpi_sim::{Implication, Trit};
        let (n, [a, b, c, e]) = fig6();
        let mut imp = Implication::new(&n);
        imp.force(a, Trit::One);
        assert_eq!(imp.value(b), Trit::Zero, "desired");
        assert_eq!(imp.value(c), Trit::Zero, "desired");
        assert_eq!(imp.value(e), Trit::One, "side effect");
    }

    #[test]
    fn fig3_critical_path_reaches_f2() {
        use tpi_sta::{ClockConstraint, Sta};
        let (n, [_f1, f2, a, b, _c]) = fig3();
        let lib = tpi_netlist::TechLibrary::paper();
        let sta = Sta::analyze(&n, &lib, ClockConstraint::LongestPath);
        // f2's D endpoint is critical; a and b have slack.
        assert!(sta.endpoint_slack(&n, f2) < lib.cell(GateKind::Mux).delay(1.0));
        assert!(sta.slack(a) > lib.cell(GateKind::Or).delay(1.0));
        assert!(sta.slack(b) > lib.cell(GateKind::And).delay(1.0));
    }
}

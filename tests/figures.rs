//! Integration tests replaying the paper's figures end to end.

use scanpath::netlist::region::Region;
use scanpath::netlist::TechLibrary;
use scanpath::sim::{Implication, Trit};
use scanpath::tpi::flow::FullScanFlow;
use scanpath::tpi::tpgreed::{verify_outcome, TpGreed, TpGreedConfig};
use scanpath::tpi::tptime::{PlanAction, ScanPlanner};
use scanpath::tpi::{assign_inputs, enumerate_paths};
use scanpath::workloads::figures;

/// Figure 1: the chain F1 -> F2 -> F3 is established through functional
/// logic; conventional scan would have needed two muxes, the paper pays
/// one test point (plus a free PI value).
#[test]
fn fig1_establishes_the_drawn_chain() {
    let (n, [x, f1, f2, f3, f4]) = figures::fig1();
    let (outcome, paths) = TpGreed::new(&n, TpGreedConfig::default()).run_with_paths();
    verify_outcome(&n, &paths, &outcome).unwrap();
    let ends = outcome.scan_path_endpoints(&paths);
    assert!(ends.contains(&(f1, f2)), "F1 -> F2 established");
    assert!(ends.contains(&(f2, f3)), "F2 -> F3 established");
    // Both sensitizations are 0-valued: x = 0 and F4 = 0.
    let ia = assign_inputs(&n, &paths, &outcome);
    assert!(ia.pi_values.contains(&(x, Trit::Zero)) || ia.free.is_empty());
    // The F4 constant cannot come from a primary input (F4 is state), so
    // at least that one stays physical.
    assert!(ia.physical.iter().any(|&(g, v)| g == f4 && v == Trit::Zero));
    // End to end: flush passes, and the area accounting beats 2 muxes.
    let r = FullScanFlow::default().run(&n);
    assert!(r.flush.passed());
    assert!(r.row.reduction() > 0.0);
}

/// Figure 2: conflicting PI requirements mean exactly one of the two
/// desired constants comes for free.
#[test]
fn fig2_one_free_one_physical() {
    let (n, [_a, _b, _c, t1, t2]) = figures::fig2();
    let (outcome, paths) = TpGreed::new(&n, TpGreedConfig::default()).run_with_paths();
    assert_eq!(outcome.scan_paths.len(), 2);
    let ia = assign_inputs(&n, &paths, &outcome);
    assert_eq!(ia.free.len(), 1, "exactly one free constant");
    assert_eq!(ia.physical.len(), outcome.test_points.len() - 1);
    let _ = (t1, t2);
}

/// Figure 3: mux at F2 is infeasible; a zero-degradation plan exists and,
/// once committed, provably leaves the clock untouched.
#[test]
fn fig3_zero_degradation_plan() {
    let (n, [_f1, f2, _a, _b, _c]) = figures::fig3();
    let mut planner = ScanPlanner::new(n, TechLibrary::paper());
    assert!(!planner.mux_fits_directly(f2));
    let d0 = planner.baseline_delay();
    let plan = planner.plan_zero_degradation(f2).expect("figure 3 is solvable");
    planner.commit(&plan);
    assert!(planner.current_delay() <= d0 + 1e-9);
    planner.netlist().validate().unwrap();
}

/// Figure 4: the plan's mux lands on an upstream connection, not at the
/// flip-flop's D pin.
#[test]
fn fig4_mux_away_from_the_ff() {
    let (n, [f2, _a, _b]) = figures::fig4();
    let planner = ScanPlanner::new(n.clone(), TechLibrary::paper());
    assert!(!planner.mux_fits_directly(f2));
    let plan = planner.plan_zero_degradation(f2).expect("figure 4 is solvable");
    let d = n.fanin(f2)[0];
    let mux_at = plan
        .actions
        .iter()
        .find_map(|a| match *a {
            PlanAction::InsertMux { at } => Some(at),
            _ => None,
        })
        .expect("every plan carries one mux");
    assert_ne!(mux_at, d, "mux must sit upstream, not at the FF's D net");
    assert!(plan.actions.len() >= 2, "a side input needs a test point or PI value");
}

/// Figure 6: one OR insertion at `a` produces desired constants b = 0,
/// c = 0 and the side-effect constant e = 1; a later *overriding* force
/// on `e` is legal and does not disturb the desired ones.
#[test]
fn fig6_desired_vs_side_effect() {
    let (n, [a, b, c, e]) = figures::fig6();
    let mut imp = Implication::new(&n);
    imp.force(a, Trit::One);
    assert_eq!((imp.value(b), imp.value(c), imp.value(e)), (Trit::Zero, Trit::Zero, Trit::One));
    // Overriding the side effect is allowed...
    imp.force(e, Trit::Zero);
    assert_eq!(imp.value(e), Trit::Zero);
    // ...and leaves the desired chain intact.
    assert_eq!((imp.value(a), imp.value(b), imp.value(c)), (Trit::One, Trit::Zero, Trit::Zero));
}

/// Figure 7: region membership matches the paper's drawing, and the
/// region is a tree (Lemma 1).
#[test]
fn fig7_region_membership() {
    let (n, [c_net, g1, g3, gd]) = figures::fig7();
    let region = Region::build(&n, c_net);
    assert!(region.single_path(g1));
    assert!(region.single_path(gd));
    assert_eq!(region.path_count(g3), 2);
    // Tree check: walking single-path fanins from the target never
    // revisits a gate.
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![c_net];
    while let Some(g) = stack.pop() {
        assert!(seen.insert(g), "region must be a tree");
        for &f in n.fanin(g) {
            if region.single_path(f) {
                stack.push(f);
            }
        }
    }
    let _ = enumerate_paths(&n, 10, usize::MAX); // the figure has no FF pairs; smoke only
}

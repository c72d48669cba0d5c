//! Replays the paper's illustrative figures (1, 2, 3, 4, 6, 7) on the
//! transliterated circuits from `tpi-workloads`, printing what the paper
//! claims and what this implementation does.
//!
//! Usage: `cargo run --release -p tpi-bench --bin figures [--threads N] [fig1|fig2|...]`
//! (`--threads 0` = all hardware threads, default 1; the replayed flows
//! produce identical output at every setting.)

use tpi_bench::Cli;
use tpi_core::flow::FullScanFlow;
use tpi_core::tpgreed::{TpGreed, TpGreedConfig};
use tpi_core::tptime::{PlanAction, ScanPlanner};
use tpi_core::{assign_inputs, enumerate_paths};
use tpi_netlist::region::Region;
use tpi_netlist::TechLibrary;
use tpi_sim::{Implication, Trit};
use tpi_workloads::figures;

fn main() {
    let cli = Cli::parse();
    let want = |name: &str| cli.selects(name);
    if want("fig1") {
        fig1(cli.threads);
    }
    if want("fig2") {
        fig2();
    }
    if want("fig3") {
        fig3();
    }
    if want("fig4") {
        fig4();
    }
    if want("fig6") {
        fig6();
    }
    if want("fig7") {
        fig7();
    }
}

fn banner(title: &str, claim: &str) {
    println!("==== {title} ====");
    println!("paper: {claim}");
}

fn fig1(threads: usize) {
    banner(
        "Figure 1",
        "one AND test point at F4's output plus x = 0 turns F1->F2->F3 into a scan chain \
         (conventional scan would need two muxes)",
    );
    let (n, [_x, f1, f2, f3, _f4]) = figures::fig1();
    let (outcome, paths) = TpGreed::new(&n, TpGreedConfig::default()).run_with_paths();
    let ia = assign_inputs(&n, &paths, &outcome);
    println!(
        "ours: {} test points chosen, {} free via primary inputs, {} scan paths:",
        outcome.test_points.len(),
        ia.free.len(),
        outcome.scan_paths.len()
    );
    for &id in &outcome.scan_paths {
        let p = paths.path(id);
        println!("  scan path {} -> {}", n.gate_name(p.from), n.gate_name(p.to));
    }
    let ends: Vec<_> = outcome.scan_path_endpoints(&paths);
    assert!(ends.contains(&(f1, f2)) && ends.contains(&(f2, f3)));
    let r = FullScanFlow::default()
        .run_with(&n, &tpi_core::FlowOptions::new().with_threads(threads))
        .expect("figure 1 flow succeeds");
    println!(
        "full flow: chain of {} FFs, flush {}",
        r.chain.len(),
        if r.flush.passed() { "PASS" } else { "FAIL" }
    );
    println!();
}

fn fig2() {
    banner(
        "Figure 2",
        "primary-input values can set up one of the two desired test-point constants for \
         free (a = 0 gives t1 = 0); the conflicting t2 = 1 still needs a gate",
    );
    let (n, [a, _b, _c, t1, t2]) = figures::fig2();
    let (outcome, paths) = TpGreed::new(&n, TpGreedConfig::default()).run_with_paths();
    let ia = assign_inputs(&n, &paths, &outcome);
    println!(
        "ours: B = {} desired constants at {{{}}}, free C = {}, physical = {}",
        outcome.test_points.len(),
        outcome
            .test_points
            .iter()
            .map(|&(g, v)| format!("{} = {}", n.gate_name(g), v))
            .collect::<Vec<_>>()
            .join(", "),
        ia.free.len(),
        ia.physical.len()
    );
    for &(pi, v) in &ia.pi_values {
        println!("  primary input {} held at {}", n.gate_name(pi), v);
    }
    let _ = (a, t1, t2);
    println!();
}

fn fig3() {
    banner(
        "Figure 3",
        "a mux directly at F2 would stretch the critical path; test points at a and b \
         (inducing c = 0) sensitize F1 -> g1 -> g2 -> F2 with zero degradation",
    );
    let (n, [_f1, f2, _a, _b, _c]) = figures::fig3();
    let planner = ScanPlanner::new(n.clone(), TechLibrary::paper());
    println!("ours: conventional mux fits directly at F2? {}", planner.mux_fits_directly(f2));
    let plan = planner.plan_zero_degradation(f2).expect("figure 3 has a zero-cost route");
    println!("zero-degradation plan (area {:.1}):", plan.area);
    for act in &plan.actions {
        match *act {
            PlanAction::InsertMux { at } => println!("  scan MUX at net {}", n.gate_name(at)),
            PlanAction::InsertAnd { at } => println!("  AND test point at net {}", n.gate_name(at)),
            PlanAction::InsertOr { at } => println!("  OR test point at net {}", n.gate_name(at)),
            PlanAction::AssignPi { pi, value } => {
                println!("  hold primary input {} = {}", n.gate_name(pi), value)
            }
        }
    }
    let mut committed = ScanPlanner::new(n, TechLibrary::paper());
    let plan = committed.plan_zero_degradation(f2).expect("still plannable");
    committed.commit(&plan);
    println!(
        "delay before {:.1}, after {:.1} (degradation {:.1}%)",
        committed.baseline_delay(),
        committed.current_delay(),
        (committed.current_delay() - committed.baseline_delay()) / committed.baseline_delay()
            * 100.0
    );
    println!();
}

fn fig4() {
    banner(
        "Figure 4",
        "the scan mux need not sit behind the flip-flop: insert it at connection a \
         (which has slack) and a test point at b; the chain predecessor of F2 may be any FF",
    );
    let (n, [f2, a, _b]) = figures::fig4();
    let planner = ScanPlanner::new(n.clone(), TechLibrary::paper());
    let plan = planner.plan_zero_degradation(f2).expect("figure 4 has a plan");
    let mux_at = plan.actions.iter().find_map(|act| match *act {
        PlanAction::InsertMux { at } => Some(at),
        _ => None,
    });
    println!(
        "ours: mux placed at {} (the figure's a = {}), {} supporting action(s)",
        mux_at.map(|g| n.gate_name(g).to_string()).unwrap_or_default(),
        n.gate_name(a),
        plan.actions.len() - 1
    );
    println!();
}

fn fig6() {
    banner(
        "Figure 6",
        "inserting an OR at a (a = 1) implies the desired constants b = 0, c = 0 and the \
         side-effect constant e = 1; only the desired ones are protected afterwards",
    );
    let (n, [a, b, c, e]) = figures::fig6();
    let mut imp = Implication::new(&n);
    let delta = imp.force(a, Trit::One);
    println!("ours: forcing a = 1 implies:");
    for d in delta {
        let class = if d.net == b || d.net == c || d.net == a { "desired" } else { "side-effect" };
        println!("  {} = {} ({class})", n.gate_name(d.net), d.value);
    }
    assert_eq!(imp.value(e), Trit::One);
    println!();
}

fn fig7() {
    banner(
        "Figure 7",
        "the non-reconvergent fanin region of c contains a, b, d; j and k stay out \
         because their gate g3 reaches c along two paths",
    );
    let (n, [c_net, g1, g3, gd]) = figures::fig7();
    let region = Region::build(&n, c_net);
    println!(
        "ours: path counts to c: g1 = {} (in region), g3 = {} (excluded), d-source = {}",
        region.path_count(g1),
        region.path_count(g3),
        region.path_count(gd)
    );
    println!(
        "region tree gates: {}",
        region
            .tree_gates()
            .iter()
            .map(|&g| n.gate_name(g).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Sanity mirrors of the figure's claims:
    assert!(region.single_path(g1));
    assert!(!region.single_path(g3));
    println!();
    // keep the unused import meaningful
    let _ = enumerate_paths(&n, 4, 1024);
}

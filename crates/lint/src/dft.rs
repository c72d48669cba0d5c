//! Post-flow DFT verification (`TPI101`–`TPI107`).
//!
//! [`verify_flow`] re-checks a flow's claims **from scratch**: it is
//! deliberately built only on `tpi-netlist` (structure, regions),
//! `tpi-sim` (three-valued implication) and `tpi-scan` (s-graph, chain
//! link vocabulary). It cannot call back into the TPGREED or TPTIME
//! algorithms — the crate graph forbids it — so a bug in the planners
//! cannot vouch for itself here. The flows hand over a plain-data
//! [`DftClaims`] record of *what they claim to have done*, and this
//! module re-derives every claim:
//!
//! * every scan path is fully sensitized by the claimed test points and
//!   primary-input values (`TPI101`), and nothing on the path itself is
//!   forced constant in test mode (`TPI102`);
//! * every physically inserted test point is the right gate on the
//!   right test rail and actually controls its net to the claimed
//!   constant under `T = 0` (`TPI103`);
//! * the chain links form a well-shaped chain: muxes selected by `T`,
//!   path links riding their own upstream flip-flop, claimed scan edges
//!   vertex-disjoint and acyclic (`TPI104`);
//! * the s-graph with the scanned flip-flops removed is acyclic when
//!   the flow claims it is (`TPI105`);
//! * TPTIME insertions stay inside the non-reconvergent fanin region of
//!   their flip-flop's D net (`TPI106`);
//! * the reported Equation 1 accounting matches a recount (`TPI107`).

use crate::diag::{Diagnostic, LintCode};
use std::collections::HashMap;
use tpi_netlist::{find_comb_cycle, Conn, GateId, GateKind, Netlist, Region};
use tpi_scan::{ChainLink, SGraph};
use tpi_sim::{Implication, Trit};

/// One claimed scan path, in **original-netlist** gate ids (the path was
/// found before any gate was inserted; original ids remain valid in the
/// transformed netlist because transformations only add gates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimedPath {
    /// Source flip-flop.
    pub from: GateId,
    /// Destination flip-flop.
    pub to: GateId,
    /// Combinational gates along the path, in order (FFs excluded).
    pub gates: Vec<GateId>,
    /// Side-input connections: sink on the path, source off it.
    pub side_inputs: Vec<Conn>,
    /// Claimed shift polarity.
    pub inverting: bool,
}

/// One TPTIME placement: the flip-flop whose D cone was edited and the
/// gates the plan inserted for it, in **transformed-netlist** ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The flip-flop the plan targeted.
    pub ff: GateId,
    /// Every gate the committed plan inserted (muxes and test points).
    pub inserted: Vec<GateId>,
}

/// The flow's reported Equation 1 inputs, for the `TPI107` recount:
/// `reduction = 1 - (2(A - D) + (B - C)) / 2A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportedCounts {
    /// `A` — flip-flops in the circuit.
    pub ff_count: usize,
    /// `B` — test-point constants established.
    pub insertions: usize,
    /// `C` — constants realized for free by primary-input values.
    pub free: usize,
    /// `D` — scan paths established through combinational logic.
    pub scan_paths: usize,
}

/// Everything a flow claims about its result, as plain owned data.
///
/// An empty `DftClaims` (see [`Default`]) verifies trivially — partial
/// flows fill in only the fields that apply to them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DftClaims {
    /// Test-point constants `(net, value)` in original ids — both the
    /// physically inserted ones and those realized for free.
    pub test_points: Vec<(GateId, Trit)>,
    /// Primary-input values held during test mode, in original ids.
    pub pi_values: Vec<(GateId, Trit)>,
    /// The scan paths the flow claims are sensitized.
    pub paths: Vec<ClaimedPath>,
    /// Physically inserted test-point gates `(gate, claimed constant)`
    /// in transformed ids.
    pub physical: Vec<(GateId, Trit)>,
    /// The stitched chain's links, in shift order (transformed ids).
    pub links: Vec<ChainLink>,
    /// TPTIME placements (empty for TPGREED flows).
    pub placements: Vec<Placement>,
    /// Whether the flow claims the post-scan s-graph is acyclic.
    pub claims_acyclic: bool,
    /// Reported Equation 1 accounting, when the flow reports one.
    pub reported: Option<ReportedCounts>,
}

/// Independently re-verifies `claims` against the `original` (pre-flow)
/// and `transformed` (post-flow) netlists. Returns all findings, sorted
/// into canonical order; an empty vector means every claim checks out.
pub fn verify_flow(
    original: &Netlist,
    transformed: &Netlist,
    claims: &DftClaims,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let circuit = original.name().to_string();

    // The implication engine requires acyclic combinational logic; a
    // cycle in either netlist is reported and pre-empts the value-based
    // checks (the structural ones still run).
    let original_cyclic = report_cycle(original, &circuit, "original", &mut diags);
    let transformed_cyclic = report_cycle(transformed, &circuit, "transformed", &mut diags);

    if !original_cyclic {
        check_sensitization(original, claims, &circuit, &mut diags);
        check_sgraph(original, claims, &circuit, &mut diags);
    }
    if !transformed_cyclic {
        check_test_points(transformed, claims, &circuit, &mut diags);
        check_placements(transformed, claims, &circuit, &mut diags);
    }
    check_chain(transformed, claims, &circuit, &mut diags);
    check_scan_edges(original, claims, &circuit, &mut diags);
    check_accounting(original, claims, &circuit, &mut diags);

    crate::diag::sort_diagnostics(&mut diags);
    diags
}

fn report_cycle(n: &Netlist, circuit: &str, which: &str, diags: &mut Vec<Diagnostic>) -> bool {
    match find_comb_cycle(n) {
        Some(cycle) => {
            let gates = cycle.iter().map(|&g| n.gate_name(g).to_string()).collect();
            diags.push(Diagnostic::new(
                LintCode::CombCycle,
                circuit,
                format!(
                    "{which} netlist has a combinational cycle through {} gate(s)",
                    cycle.len()
                ),
                gates,
            ));
            true
        }
        None => false,
    }
}

/// `TPI101` / `TPI102`: replay the claimed constants on a fresh
/// implication engine over the *original* netlist and re-derive the
/// sensitization of every claimed path.
fn check_sensitization(
    original: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if claims.paths.is_empty() {
        return;
    }
    let mut imp = Implication::new(original);
    for &(net, v) in &claims.test_points {
        imp.force(net, v);
    }
    for &(pi, v) in &claims.pi_values {
        imp.force(pi, v);
    }
    for p in &claims.paths {
        let route = path_route(original, p);
        for c in &p.side_inputs {
            let sens = match original.kind(c.sink).sensitizing_value() {
                Some(s) => Trit::from(s),
                None => {
                    diags.push(Diagnostic::new(
                        LintCode::PathNotSensitized,
                        circuit,
                        format!(
                            "path {} -> {}: side input into {} gate {} has no sensitizing value",
                            original.gate_name(p.from),
                            original.gate_name(p.to),
                            original.kind(c.sink),
                            original.gate_name(c.sink)
                        ),
                        route.clone(),
                    ));
                    continue;
                }
            };
            let got = imp.value(c.source);
            if got != sens {
                diags.push(Diagnostic::new(
                    LintCode::PathNotSensitized,
                    circuit,
                    format!(
                        "path {} -> {}: side input {} into {} carries {got:?}, want {sens:?}",
                        original.gate_name(p.from),
                        original.gate_name(p.to),
                        original.gate_name(c.source),
                        original.gate_name(c.sink)
                    ),
                    route.clone(),
                ));
            }
        }
        if imp.value(p.from).is_known() {
            diags.push(Diagnostic::new(
                LintCode::PathBlocked,
                circuit,
                format!(
                    "path {} -> {}: source flip-flop {} is forced to {:?} in test mode",
                    original.gate_name(p.from),
                    original.gate_name(p.to),
                    original.gate_name(p.from),
                    imp.value(p.from)
                ),
                route.clone(),
            ));
        }
        for &g in &p.gates {
            if imp.value(g).is_known() {
                diags.push(Diagnostic::new(
                    LintCode::PathBlocked,
                    circuit,
                    format!(
                        "path {} -> {}: path gate {} is stuck at {:?} in test mode",
                        original.gate_name(p.from),
                        original.gate_name(p.to),
                        original.gate_name(g),
                        imp.value(g)
                    ),
                    route.clone(),
                ));
            }
        }
    }
}

/// `TPI103`: every physically inserted test point must be a 2-input AND
/// fed by `T` (forcing 0) or a 2-input OR fed by `T'` (forcing 1), and
/// the implication engine must agree it controls its net to the claimed
/// constant under `T = 0` with the claimed primary-input values held.
fn check_test_points(
    transformed: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if claims.physical.is_empty() {
        return;
    }
    let Some(t) = transformed.test_input() else {
        diags.push(Diagnostic::new(
            LintCode::IllegalTestPoint,
            circuit,
            format!(
                "{} test point(s) claimed but the netlist has no test input T",
                claims.physical.len()
            ),
            vec![],
        ));
        return;
    };
    let t_bar = transformed.test_input_bar();
    let mut imp = Implication::new(transformed);
    imp.force(t, Trit::Zero);
    for &(pi, v) in &claims.pi_values {
        imp.force(pi, v);
    }
    for &(tp, want) in &claims.physical {
        let name = transformed.gate_name(tp).to_string();
        let kind = transformed.kind(tp);
        let fanin = transformed.fanin(tp);
        let rail_ok = match (kind, want) {
            (GateKind::And, Trit::Zero) => fanin.len() == 2 && fanin[1] == t,
            (GateKind::Or, Trit::One) => fanin.len() == 2 && Some(fanin[1]) == t_bar,
            _ => {
                diags.push(Diagnostic::new(
                    LintCode::IllegalTestPoint,
                    circuit,
                    format!("test point {name} is a {kind} claiming to force {want:?} (want AND forcing 0 or OR forcing 1)"),
                    vec![name.clone()],
                ));
                continue;
            }
        };
        if !rail_ok {
            let rail = if kind == GateKind::And { "T" } else { "T'" };
            diags.push(Diagnostic::new(
                LintCode::IllegalTestPoint,
                circuit,
                format!("{kind} test point {name} is not fed by {rail} on its second pin"),
                vec![name.clone()],
            ));
            continue;
        }
        let got = imp.value(tp);
        if got != want {
            diags.push(Diagnostic::new(
                LintCode::IllegalTestPoint,
                circuit,
                format!("test point {name} settles to {got:?} under T = 0, claimed {want:?}"),
                vec![name],
            ));
        }
    }
}

/// `TPI104` (shape half): the stitched links must start with a mux,
/// every mux must be a real MUX gate selected by `T`, and every path
/// link must ride from the previous element's flip-flop.
fn check_chain(
    transformed: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let t = transformed.test_input();
    let mut prev: Option<GateId> = None;
    for (i, link) in claims.links.iter().enumerate() {
        match *link {
            ChainLink::Mux { mux, ff, .. } => {
                let name = transformed.gate_name(mux).to_string();
                if transformed.kind(mux) != GateKind::Mux {
                    diags.push(Diagnostic::new(
                        LintCode::ChainStructure,
                        circuit,
                        format!(
                            "link {i}: claimed scan mux {name} is a {} gate",
                            transformed.kind(mux)
                        ),
                        vec![name],
                    ));
                } else if t.is_none() || transformed.fanin(mux).first() != t.as_ref() {
                    diags.push(Diagnostic::new(
                        LintCode::ChainStructure,
                        circuit,
                        format!("link {i}: scan mux {name} is not selected by the test input T"),
                        vec![name],
                    ));
                }
                prev = Some(ff);
            }
            ChainLink::Path { from, ff, .. } => {
                match prev {
                    None => diags.push(Diagnostic::new(
                        LintCode::ChainStructure,
                        circuit,
                        "link 0: chain starts with a path link (nothing upstream to ride from)"
                            .to_string(),
                        vec![transformed.gate_name(ff).to_string()],
                    )),
                    Some(p) if p != from => diags.push(Diagnostic::new(
                        LintCode::ChainStructure,
                        circuit,
                        format!(
                            "link {i}: path link rides from {} but the previous element is {}",
                            transformed.gate_name(from),
                            transformed.gate_name(p)
                        ),
                        vec![
                            transformed.gate_name(from).to_string(),
                            transformed.gate_name(ff).to_string(),
                        ],
                    )),
                    Some(_) => {}
                }
                prev = Some(ff);
            }
        }
    }
}

/// `TPI104` (edge half): the claimed scan-path edges must form
/// vertex-disjoint simple paths over the flip-flops — no FF with two
/// incoming or two outgoing scan edges, and no cycle.
fn check_scan_edges(
    original: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let mut out_deg: HashMap<GateId, u32> = HashMap::new();
    let mut in_deg: HashMap<GateId, u32> = HashMap::new();
    let mut edges = Vec::new();
    for p in &claims.paths {
        *out_deg.entry(p.from).or_default() += 1;
        *in_deg.entry(p.to).or_default() += 1;
        edges.push((p.from, p.to));
    }
    let mut multi: Vec<(GateId, &str)> = out_deg
        .iter()
        .filter(|(_, &d)| d > 1)
        .map(|(&ff, _)| (ff, "outgoing"))
        .chain(in_deg.iter().filter(|(_, &d)| d > 1).map(|(&ff, _)| (ff, "incoming")))
        .collect();
    multi.sort_by_key(|&(ff, dir)| (ff, dir.to_string()));
    for (ff, dir) in multi {
        diags.push(Diagnostic::new(
            LintCode::ChainStructure,
            circuit,
            format!("flip-flop {} has two {dir} scan edges", original.gate_name(ff)),
            vec![original.gate_name(ff).to_string()],
        ));
    }
    let succ: HashMap<GateId, GateId> = edges.iter().copied().collect();
    let mut reported_cycle = false;
    for &(start, _) in &edges {
        if reported_cycle {
            break;
        }
        let mut cur = start;
        let mut hops = 0;
        while let Some(&next) = succ.get(&cur) {
            cur = next;
            hops += 1;
            if cur == start {
                diags.push(Diagnostic::new(
                    LintCode::ChainStructure,
                    circuit,
                    format!(
                        "claimed scan edges form a cycle through {}",
                        original.gate_name(start)
                    ),
                    vec![original.gate_name(start).to_string()],
                ));
                reported_cycle = true;
                break;
            }
            if hops > edges.len() {
                break;
            }
        }
    }
}

/// `TPI105`: when the flow claims acyclicity, removing the scanned
/// flip-flops from the s-graph must actually kill every cycle. The
/// s-graph is built here, from the original netlist, independently of
/// the flow's own; building it needs acyclic combinational logic, so
/// `verify_flow` runs this check only on an acyclic original.
fn check_sgraph(
    original: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if !claims.claims_acyclic {
        return;
    }
    // A combinational cycle has already been reported as TPI001.
    let Ok(mut sgraph) = SGraph::build(original) else {
        return;
    };
    let scanned: Vec<GateId> = claims.links.iter().map(ChainLink::ff).collect();
    if sgraph.has_cycle(&scanned) {
        for &ff in &scanned {
            sgraph.remove(ff);
        }
        let gates: Vec<String> =
            sgraph.cyclic_nodes().iter().map(|&f| original.gate_name(f).to_string()).collect();
        diags.push(Diagnostic::new(
            LintCode::SGraphCyclic,
            circuit,
            format!(
                "s-graph still cyclic after scanning {} of {} flip-flops",
                scanned.len(),
                sgraph.node_count()
            ),
            gates,
        ));
    }
}

/// `TPI106`: a TPTIME plan's scan mux must have exactly one path to
/// its flip-flop's D net — i.e. ride inside the non-reconvergent fanin
/// region of Definition 1, where implications are trivially
/// satisfiable. Splicing preserves path uniqueness, so the check is
/// valid on the final netlist. Inserted AND/OR test points sensitize
/// *side inputs* of that route; Definition 1 says nothing about them
/// (forcing a constant is legal on any net, reconvergent or not), so
/// they are only required to feed the region at all.
fn check_placements(
    transformed: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for place in &claims.placements {
        let Some(&d_net) = transformed.fanin(place.ff).first() else {
            diags.push(Diagnostic::new(
                LintCode::PlacementOutsideRegion,
                circuit,
                format!(
                    "flip-flop {} has no D input to anchor its placement region",
                    transformed.gate_name(place.ff)
                ),
                vec![transformed.gate_name(place.ff).to_string()],
            ));
            continue;
        };
        let region = Region::build(transformed, d_net);
        for &g in &place.inserted {
            let on_route = transformed.kind(g) == GateKind::Mux;
            let paths = region.path_count(g);
            let legal = if on_route { paths == 1 } else { paths >= 1 };
            if !legal {
                let want = if on_route { "exactly 1" } else { "at least 1" };
                diags.push(Diagnostic::new(
                    LintCode::PlacementOutsideRegion,
                    circuit,
                    format!(
                        "inserted {} {} has {} path(s) to the D net of {} (want {})",
                        if on_route { "scan mux" } else { "test point" },
                        transformed.gate_name(g),
                        paths,
                        transformed.gate_name(place.ff),
                        want
                    ),
                    vec![
                        transformed.gate_name(g).to_string(),
                        transformed.gate_name(place.ff).to_string(),
                    ],
                ));
            }
        }
    }
}

/// `TPI107`: recount Equation 1's inputs from the claims and compare
/// with what the flow reported.
fn check_accounting(
    original: &Netlist,
    claims: &DftClaims,
    circuit: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(rep) = claims.reported else {
        return;
    };
    let mut mismatch = |what: &str, reported: usize, recounted: usize| {
        if reported != recounted {
            diags.push(Diagnostic::new(
                LintCode::AccountingMismatch,
                circuit,
                format!("{what}: reported {reported}, recounted {recounted}"),
                vec![],
            ));
        }
    };
    mismatch("A (flip-flops)", rep.ff_count, original.dffs().len());
    mismatch("B (test-point constants)", rep.insertions, claims.test_points.len());
    mismatch(
        "C (free constants)",
        rep.free,
        claims.test_points.len().saturating_sub(claims.physical.len()),
    );
    mismatch("D (scan paths)", rep.scan_paths, claims.paths.len());
    if !claims.links.is_empty() {
        let muxes = claims.links.iter().filter(|l| matches!(l, ChainLink::Mux { .. })).count();
        let path_links = claims.links.len() - muxes;
        mismatch("chain path links vs D", path_links, rep.scan_paths);
        mismatch(
            "chain mux links vs A - D",
            muxes,
            rep.ff_count - rep.scan_paths.min(rep.ff_count),
        );
    }
}

/// The full gate-path location of a claimed path: `from`, the path
/// gates in order, then `to`.
fn path_route(n: &Netlist, p: &ClaimedPath) -> Vec<String> {
    let mut route = Vec::with_capacity(p.gates.len() + 2);
    route.push(n.gate_name(p.from).to_string());
    for &g in &p.gates {
        route.push(n.gate_name(g).to_string());
    }
    route.push(n.gate_name(p.to).to_string());
    route
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::NetlistBuilder;

    /// The canonical two-FF scenario: `f1 -> g (OR, side input x) -> f2`.
    /// Sensitizing the OR's side input needs `x = 0`, realized for free
    /// by a primary-input value. The transformed netlist carries a head
    /// scan mux on `f1`.
    fn fixture() -> (Netlist, Netlist, DftClaims) {
        let mut b = NetlistBuilder::new("two_ff");
        b.input("x");
        b.input("d1");
        b.dff("f1", "d1");
        b.gate(GateKind::Or, "g", &["f1", "x"]);
        b.dff("f2", "g");
        b.output("o", "f2");
        let original = b.finish().unwrap();
        let f1 = original.find("f1").unwrap();
        let f2 = original.find("f2").unwrap();
        let g = original.find("g").unwrap();
        let x = original.find("x").unwrap();

        let mut transformed = original.clone();
        let stub = transformed.add_input("scan_stub");
        let mux = transformed.insert_scan_mux_at_pin(f1, 0, stub).unwrap();

        let claims = DftClaims {
            test_points: vec![(x, Trit::Zero)],
            pi_values: vec![(x, Trit::Zero)],
            paths: vec![ClaimedPath {
                from: f1,
                to: f2,
                gates: vec![g],
                side_inputs: vec![Conn::new(x, g, 1)],
                inverting: false,
            }],
            physical: vec![],
            links: vec![
                ChainLink::Mux { mux, ff: f1, inverting: false },
                ChainLink::Path { from: f1, ff: f2, inverting: false },
            ],
            placements: vec![],
            claims_acyclic: true,
            reported: Some(ReportedCounts { ff_count: 2, insertions: 1, free: 1, scan_paths: 1 }),
        };
        (original, transformed, claims)
    }

    fn errors_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags
            .iter()
            .filter(|d| d.severity == crate::diag::Severity::Error)
            .map(|d| d.code.code())
            .collect()
    }

    #[test]
    fn honest_claims_verify_clean() {
        let (original, transformed, claims) = fixture();
        let diags = verify_flow(&original, &transformed, &claims);
        assert!(diags.is_empty(), "unexpected findings: {diags:?}");
    }

    #[test]
    fn empty_claims_verify_trivially() {
        let (original, transformed, _) = fixture();
        assert!(verify_flow(&original, &transformed, &DftClaims::default()).is_empty());
    }

    #[test]
    fn dropped_test_point_is_an_unsensitized_side_input() {
        let (original, transformed, mut claims) = fixture();
        claims.test_points.clear();
        claims.pi_values.clear();
        claims.reported = None; // accounting is not the subject here
        let diags = verify_flow(&original, &transformed, &claims);
        assert_eq!(errors_of(&diags), vec!["TPI101"]);
        let d = &diags[0];
        assert_eq!(d.gates, vec!["f1", "g", "f2"], "full path location");
        assert!(d.message.contains("carries X, want Zero"), "{}", d.message);
    }

    #[test]
    fn constant_on_the_path_is_blocked() {
        let (original, transformed, mut claims) = fixture();
        // Forcing the path gate itself kills the shift path.
        let g = original.find("g").unwrap();
        claims.test_points.push((g, Trit::One));
        claims.reported = None;
        let diags = verify_flow(&original, &transformed, &claims);
        assert!(errors_of(&diags).contains(&"TPI102"), "{diags:?}");
    }

    #[test]
    fn test_point_on_the_wrong_rail_is_illegal() {
        let (original, mut transformed, mut claims) = fixture();
        let x = transformed.find("x").unwrap();
        let tp = transformed.insert_and_test_point(x).unwrap();
        // Sabotage: feed the AND from T' instead of T.
        let t_bar = transformed.ensure_test_input_bar();
        transformed.replace_fanin(tp, 1, t_bar).unwrap();
        claims.physical.push((tp, Trit::Zero));
        claims.reported = None;
        let diags = verify_flow(&original, &transformed, &claims);
        assert_eq!(errors_of(&diags), vec!["TPI103"]);
        assert!(diags[0].message.contains("not fed by T"), "{}", diags[0].message);
    }

    #[test]
    fn or_point_claiming_zero_is_illegal() {
        let (original, mut transformed, mut claims) = fixture();
        let x = transformed.find("x").unwrap();
        let tp = transformed.insert_or_test_point(x).unwrap();
        claims.physical.push((tp, Trit::Zero)); // an OR can only force 1
        claims.reported = None;
        let diags = verify_flow(&original, &transformed, &claims);
        assert_eq!(errors_of(&diags), vec!["TPI103"]);
    }

    #[test]
    fn legal_and_point_passes() {
        let (original, mut transformed, mut claims) = fixture();
        let x = transformed.find("x").unwrap();
        let tp = transformed.insert_and_test_point(x).unwrap();
        claims.physical.push((tp, Trit::Zero));
        // x's constant is now physical, not free.
        claims.reported =
            Some(ReportedCounts { ff_count: 2, insertions: 1, free: 0, scan_paths: 1 });
        let diags = verify_flow(&original, &transformed, &claims);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn path_link_out_of_order_is_a_chain_error() {
        let (original, transformed, mut claims) = fixture();
        // Claim the path rides from f2 (itself) instead of f1.
        let f2 = original.find("f2").unwrap();
        if let ChainLink::Path { from, .. } = &mut claims.links[1] {
            *from = f2;
        }
        let diags = verify_flow(&original, &transformed, &claims);
        assert!(errors_of(&diags).contains(&"TPI104"), "{diags:?}");
    }

    #[test]
    fn mux_not_selected_by_t_is_a_chain_error() {
        let (original, mut transformed, claims) = fixture();
        let ChainLink::Mux { mux, .. } = claims.links[0] else { unreachable!() };
        let d1 = transformed.find("d1").unwrap();
        transformed.replace_fanin(mux, 0, d1).unwrap();
        let diags = verify_flow(&original, &transformed, &claims);
        assert!(errors_of(&diags).contains(&"TPI104"), "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("not selected by the test input")));
    }

    #[test]
    fn unscanned_sgraph_cycle_is_reported() {
        // Ring of two FFs; scanning none of them but claiming acyclic.
        let mut b = NetlistBuilder::new("ring2");
        b.dff("f1", "i2");
        b.dff("f2", "i1");
        b.gate(GateKind::Inv, "i1", &["f1"]);
        b.gate(GateKind::Inv, "i2", &["f2"]);
        b.output("o", "f1");
        let n = b.finish().unwrap();
        let claims = DftClaims { claims_acyclic: true, ..DftClaims::default() };
        let diags = verify_flow(&n, &n, &claims);
        assert_eq!(errors_of(&diags), vec!["TPI105"]);
        assert_eq!(diags[0].gates, vec!["f1", "f2"], "cycle members named");
    }

    #[test]
    fn reconvergent_placement_is_outside_the_region() {
        // f's D is an AND fed twice through a diamond from the mux `m`:
        // a scan mux with two paths to the D net violates Definition 1.
        // A *test point* on a reconvergent net is fine (it only forces a
        // side-input constant), but one outside the cone entirely is not.
        let mut b = NetlistBuilder::new("diamond");
        b.input("a");
        b.input("b");
        b.input("s");
        b.input("c");
        b.gate(GateKind::Mux, "m", &["s", "a", "b"]);
        b.gate(GateKind::Inv, "i1", &["m"]);
        b.gate(GateKind::Inv, "i2", &["m"]);
        b.gate(GateKind::And, "g", &["i1", "i2"]);
        b.dff("f", "g");
        b.output("o", "f");
        b.gate(GateKind::Inv, "d1", &["c"]); // outside f's cone
        b.output("o2", "d1");
        let n = b.finish().unwrap();
        let f = n.find("f").unwrap();
        let m = n.find("m").unwrap();
        let a = n.find("a").unwrap();
        let i1 = n.find("i1").unwrap();
        let d1 = n.find("d1").unwrap();
        // Single-path Inv and a reconvergent non-mux net both pass.
        let good = DftClaims {
            placements: vec![Placement { ff: f, inserted: vec![i1, a] }],
            ..DftClaims::default()
        };
        assert!(verify_flow(&n, &n, &good).is_empty());
        // The mux rides the route: two paths is an error.
        let bad_mux = DftClaims {
            placements: vec![Placement { ff: f, inserted: vec![m] }],
            ..DftClaims::default()
        };
        let diags = verify_flow(&n, &n, &bad_mux);
        assert_eq!(errors_of(&diags), vec!["TPI106"]);
        assert!(diags[0].message.contains("scan mux"), "{}", diags[0].message);
        // A test point with no path into the region at all is an error.
        let bad_tp = DftClaims {
            placements: vec![Placement { ff: f, inserted: vec![d1] }],
            ..DftClaims::default()
        };
        let diags = verify_flow(&n, &n, &bad_tp);
        assert_eq!(errors_of(&diags), vec!["TPI106"]);
        assert!(diags[0].message.contains("at least 1"), "{}", diags[0].message);
    }

    #[test]
    fn inflated_accounting_is_caught() {
        let (original, transformed, mut claims) = fixture();
        // Claim one more free constant than exists.
        claims.reported =
            Some(ReportedCounts { ff_count: 2, insertions: 2, free: 2, scan_paths: 1 });
        let diags = verify_flow(&original, &transformed, &claims);
        assert_eq!(errors_of(&diags), vec!["TPI107", "TPI107"], "{diags:?}");
        assert!(diags[0].message.contains("B (test-point constants)"), "{}", diags[0].message);
        assert!(diags[1].message.contains("C (free constants)"), "{}", diags[1].message);
    }

    #[test]
    fn duplicate_scan_edges_collide() {
        let (original, transformed, mut claims) = fixture();
        let p = claims.paths[0].clone();
        claims.paths.push(p);
        claims.reported = None;
        let diags = verify_flow(&original, &transformed, &claims);
        let chain_errors: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.code == LintCode::ChainStructure).collect();
        assert_eq!(chain_errors.len(), 2, "both endpoints collide: {diags:?}");
    }
}

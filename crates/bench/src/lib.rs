//! Shared harness utilities: the paper's published numbers, side-by-side
//! table rendering, and workload selection.
//!
//! The `table1`, `table2`, `table3` and `figures` binaries regenerate
//! the corresponding artifacts of the paper; each prints the paper's
//! reported row next to the measured row so the *shape* comparison
//! (who wins, by roughly what factor) is immediate. See `EXPERIMENTS.md`
//! at the repository root for recorded runs.

pub use tpi_net::cli::{parse_threads, ArgCursor, Cli};

use tpi_core::report::Table1Row;

/// One row of the paper's Table I, as published.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable1 {
    /// Circuit name.
    pub circuit: &'static str,
    /// `A`: flip-flops.
    pub ffs: usize,
    /// `B`: test points inserted.
    pub insertions: usize,
    /// `C`: free (PI-realizable) test points.
    pub free: usize,
    /// `D`: scan paths established.
    pub scan_paths: usize,
    /// Reported area-overhead reduction (fraction).
    pub reduction: f64,
    /// Reported SPARC-5 CPU seconds.
    pub cpu_seconds: f64,
}

/// The paper's Table I, verbatim.
pub const PAPER_TABLE1: [PaperTable1; 11] = [
    PaperTable1 {
        circuit: "s5378",
        ffs: 152,
        insertions: 28,
        free: 3,
        scan_paths: 62,
        reduction: 0.326,
        cpu_seconds: 171.0,
    },
    PaperTable1 {
        circuit: "s9234",
        ffs: 135,
        insertions: 35,
        free: 1,
        scan_paths: 57,
        reduction: 0.296,
        cpu_seconds: 296.0,
    },
    PaperTable1 {
        circuit: "s13207",
        ffs: 453,
        insertions: 120,
        free: 2,
        scan_paths: 196,
        reduction: 0.302,
        cpu_seconds: 1151.0,
    },
    PaperTable1 {
        circuit: "s15850",
        ffs: 540,
        insertions: 137,
        free: 2,
        scan_paths: 244,
        reduction: 0.327,
        cpu_seconds: 3907.0,
    },
    PaperTable1 {
        circuit: "s35932",
        ffs: 1728,
        insertions: 3,
        free: 3,
        scan_paths: 1440,
        reduction: 0.833,
        cpu_seconds: 3019.0,
    },
    PaperTable1 {
        circuit: "s38417",
        ffs: 1636,
        insertions: 169,
        free: 8,
        scan_paths: 448,
        reduction: 0.225,
        cpu_seconds: 6852.0,
    },
    PaperTable1 {
        circuit: "s38584",
        ffs: 1294,
        insertions: 164,
        free: 1,
        scan_paths: 1133,
        reduction: 0.813,
        cpu_seconds: 15324.0,
    },
    PaperTable1 {
        circuit: "bigkey",
        ffs: 224,
        insertions: 115,
        free: 3,
        scan_paths: 112,
        reduction: 0.250,
        cpu_seconds: 576.0,
    },
    PaperTable1 {
        circuit: "dsip",
        ffs: 224,
        insertions: 4,
        free: 3,
        scan_paths: 168,
        reduction: 0.748,
        cpu_seconds: 52.0,
    },
    PaperTable1 {
        circuit: "mult32a",
        ffs: 32,
        insertions: 31,
        free: 1,
        scan_paths: 31,
        reduction: 0.500,
        cpu_seconds: 24.0,
    },
    PaperTable1 {
        circuit: "mult32b",
        ffs: 61,
        insertions: 31,
        free: 1,
        scan_paths: 31,
        reduction: 0.262,
        cpu_seconds: 26.0,
    },
];

/// One row of the paper's Table II, as published.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable2 {
    /// Circuit name.
    pub circuit: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Flip-flops (after delay optimization — differs from Table I for
    /// some circuits because a different SIS script was used).
    pub ffs: usize,
    /// SIS-mapped area.
    pub area: f64,
    /// Longest-path delay (ns).
    pub delay: f64,
}

/// The paper's Table II, verbatim.
pub const PAPER_TABLE2: [PaperTable2; 11] = [
    PaperTable2 { circuit: "s5378", inputs: 35, outputs: 49, ffs: 163, area: 4286.0, delay: 26.9 },
    PaperTable2 { circuit: "s9234", inputs: 36, outputs: 39, ffs: 135, area: 3619.0, delay: 29.5 },
    PaperTable2 {
        circuit: "s13207",
        inputs: 31,
        outputs: 121,
        ffs: 453,
        area: 8511.0,
        delay: 35.8,
    },
    PaperTable2 {
        circuit: "s15850",
        inputs: 14,
        outputs: 87,
        ffs: 540,
        area: 13442.0,
        delay: 54.7,
    },
    PaperTable2 {
        circuit: "s35932",
        inputs: 35,
        outputs: 320,
        ffs: 1728,
        area: 40881.0,
        delay: 31.0,
    },
    PaperTable2 {
        circuit: "s38417",
        inputs: 28,
        outputs: 106,
        ffs: 1462,
        area: 40611.0,
        delay: 42.4,
    },
    PaperTable2 {
        circuit: "s38584",
        inputs: 12,
        outputs: 278,
        ffs: 1449,
        area: 36646.0,
        delay: 39.6,
    },
    PaperTable2 {
        circuit: "bigkey",
        inputs: 262,
        outputs: 197,
        ffs: 224,
        area: 14461.0,
        delay: 27.8,
    },
    PaperTable2 { circuit: "dsip", inputs: 228, outputs: 197, ffs: 224, area: 8288.0, delay: 23.1 },
    PaperTable2 { circuit: "mult32a", inputs: 33, outputs: 1, ffs: 32, area: 1655.0, delay: 95.8 },
    PaperTable2 { circuit: "mult32b", inputs: 32, outputs: 1, ffs: 61, area: 1505.0, delay: 12.2 },
];

/// One method entry of the paper's Table III, as published.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable3 {
    /// Circuit name.
    pub circuit: &'static str,
    /// `(selected FFs, area %, delay %)` for CB.
    pub cb: (usize, f64, f64),
    /// `(selected FFs, area %, delay %)` for TD-CB.
    pub td_cb: (usize, f64, f64),
    /// `(selected FFs, area %, delay %)` for TPTIME.
    pub tptime: (usize, f64, f64),
}

/// The paper's Table III, verbatim (percent columns).
pub const PAPER_TABLE3: [PaperTable3; 11] = [
    PaperTable3 {
        circuit: "s5378",
        cb: (29, 3.4, 7.8),
        td_cb: (29, 3.4, 0.0),
        tptime: (29, 3.4, 0.0),
    },
    PaperTable3 {
        circuit: "s9234",
        cb: (24, 3.3, 7.1),
        td_cb: (25, 3.5, 0.0),
        tptime: (24, 3.7, 0.0),
    },
    PaperTable3 {
        circuit: "s13207",
        cb: (41, 2.4, 6.1),
        td_cb: (42, 2.5, 0.0),
        tptime: (42, 2.5, 0.0),
    },
    PaperTable3 {
        circuit: "s15850",
        cb: (91, 3.4, 4.0),
        td_cb: (91, 3.4, 2.2),
        tptime: (91, 3.5, 0.0),
    },
    PaperTable3 {
        circuit: "s35932",
        cb: (306, 3.7, 7.1),
        td_cb: (306, 3.7, 0.0),
        tptime: (306, 3.7, 0.0),
    },
    PaperTable3 {
        circuit: "s38417",
        cb: (366, 4.5, 5.2),
        td_cb: (388, 4.8, 5.2),
        tptime: (382, 6.7, 4.2),
    },
    PaperTable3 {
        circuit: "s38584",
        cb: (175, 2.4, 5.6),
        td_cb: (233, 3.2, 4.5),
        tptime: (183, 3.2, 2.5),
    },
    PaperTable3 {
        circuit: "bigkey",
        cb: (112, 3.9, 7.9),
        td_cb: (112, 3.9, 7.9),
        tptime: (112, 8.5, 3.2),
    },
    PaperTable3 {
        circuit: "dsip",
        cb: (150, 9.0, 9.5),
        td_cb: (180, 10.8, 9.5),
        tptime: (162, 27.4, 0.0),
    },
    PaperTable3 {
        circuit: "mult32a",
        cb: (16, 4.8, 2.2),
        td_cb: (17, 5.1, 2.2),
        tptime: (16, 5.1, 0.0),
    },
    PaperTable3 {
        circuit: "mult32b",
        cb: (2, 0.6, 16.4),
        td_cb: (22, 7.4, 16.4),
        tptime: (19, 9.5, 0.0),
    },
];

/// Looks up a paper Table I row by circuit name.
pub fn paper_table1(circuit: &str) -> Option<&'static PaperTable1> {
    PAPER_TABLE1.iter().find(|r| r.circuit == circuit)
}

/// Renders a measured Table I row next to the paper's.
pub fn render_table1_comparison(measured: &Table1Row) -> String {
    match paper_table1(&measured.circuit) {
        Some(p) => format!(
            "{:<8} | paper: A={:>4} B={:>3} C={:>2} D={:>4} red={:>5.1}% | ours: A={:>4} B={:>3} C={:>2} D={:>4} red={:>5.1}% ({:.1}s)",
            measured.circuit,
            p.ffs,
            p.insertions,
            p.free,
            p.scan_paths,
            p.reduction * 100.0,
            measured.ff_count,
            measured.insertions,
            measured.free,
            measured.scan_paths,
            measured.reduction() * 100.0,
            measured.cpu_seconds,
        ),
        None => measured.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_cover_the_same_circuits() {
        for r in PAPER_TABLE1 {
            assert!(PAPER_TABLE2.iter().any(|x| x.circuit == r.circuit));
            assert!(PAPER_TABLE3.iter().any(|x| x.circuit == r.circuit));
        }
    }

    #[test]
    fn paper_reductions_are_consistent_with_the_formula() {
        for r in PAPER_TABLE1 {
            let row = Table1Row {
                circuit: r.circuit.into(),
                ff_count: r.ffs,
                insertions: r.insertions,
                free: r.free,
                scan_paths: r.scan_paths,
                cpu_seconds: 0.0,
            };
            assert!(
                (row.reduction() - r.reduction).abs() < 6e-3,
                "{}: {} vs {}",
                r.circuit,
                row.reduction(),
                r.reduction
            );
        }
    }

    #[test]
    fn lookup_works() {
        assert_eq!(paper_table1("dsip").unwrap().insertions, 4);
        assert!(paper_table1("nonesuch").is_none());
    }
}

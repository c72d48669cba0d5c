//! Scan-chain representation and stitching.

use std::fmt;
use tpi_netlist::{GateId, GateKind, Netlist, NetlistError};

/// How scan data enters one flip-flop of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainLink {
    /// Conventional entry through a scan multiplexer (possibly placed
    /// upstream of the flip-flop, per §IV Fig. 4). `inverting` is the
    /// polarity of the logic between the mux output and the FF's D pin.
    Mux {
        /// The scan multiplexer whose `d0` pin receives the upstream
        /// chain element.
        mux: GateId,
        /// The flip-flop this link loads.
        ff: GateId,
        /// Whether the path from the mux to the FF inverts the bit.
        inverting: bool,
    },
    /// Test-point entry: scan data rides a fully sensitized combinational
    /// path from the *previous chain element's* flip-flop into `ff` —
    /// the paper's core transformation (§III). Costs no mux at all.
    Path {
        /// The upstream flip-flop the sensitized path starts from.
        from: GateId,
        /// The flip-flop this link loads.
        ff: GateId,
        /// Whether the sensitized path inverts the bit.
        inverting: bool,
    },
}

impl ChainLink {
    /// The flip-flop loaded by this link.
    pub fn ff(&self) -> GateId {
        match *self {
            ChainLink::Mux { ff, .. } | ChainLink::Path { ff, .. } => ff,
        }
    }

    /// The polarity of this link.
    pub fn inverting(&self) -> bool {
        match *self {
            ChainLink::Mux { inverting, .. } | ChainLink::Path { inverting, .. } => inverting,
        }
    }
}

/// Errors from [`ScanChain::stitch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchError {
    /// A `Path` link's `from` flip-flop is not the previous chain element.
    BrokenPath {
        /// Position in the link list.
        position: usize,
        /// The expected upstream flip-flop.
        expected: GateId,
        /// The `from` recorded in the link.
        actual: GateId,
    },
    /// The first link is a `Path` (nothing upstream to ride from).
    PathAtHead,
    /// The chain is empty.
    Empty,
    /// Netlist editing failed.
    Netlist(NetlistError),
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::BrokenPath { position, expected, actual } => write!(
                f,
                "path link at position {position} rides from {actual} but the previous element is {expected}"
            ),
            StitchError::PathAtHead => write!(f, "chain cannot start with a test-point path link"),
            StitchError::Empty => write!(f, "chain has no links"),
            StitchError::Netlist(e) => write!(f, "netlist edit failed: {e}"),
        }
    }
}

impl std::error::Error for StitchError {}

impl From<NetlistError> for StitchError {
    fn from(e: NetlistError) -> Self {
        StitchError::Netlist(e)
    }
}

/// A stitched scan chain: an ordered sequence of [`ChainLink`]s fed by a
/// dedicated `scan_in` primary input and observed at a `scan_out` port.
///
/// The area advantage of the paper's method is visible directly on this
/// type: `Path` links are free (their cost was paid in AND/OR test
/// points), while `Mux` links each carry a multiplexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChain {
    scan_in: GateId,
    scan_out: GateId,
    links: Vec<ChainLink>,
}

impl ScanChain {
    /// Stitches `links` into a physical chain inside `n`:
    ///
    /// * creates the `scan_in` input and wires it to the first link's mux;
    /// * wires each `Mux` link's scan pin to the previous element's FF;
    /// * verifies each `Path` link follows its upstream FF;
    /// * creates a `scan_out` port observing the last FF.
    ///
    /// # Errors
    /// See [`StitchError`].
    pub fn stitch(n: &mut Netlist, links: Vec<ChainLink>) -> Result<Self, StitchError> {
        Self::stitch_counted(n, links).map(|(chain, _)| chain)
    }

    /// [`ScanChain::stitch`], also returning how many fanout entries the
    /// rewiring read: the muxes' scan pins move in one
    /// [`Netlist::set_scan_sources`], so that count is linear in the
    /// chain even when every mux starts on one placeholder net.
    fn stitch_counted(
        n: &mut Netlist,
        links: Vec<ChainLink>,
    ) -> Result<(Self, usize), StitchError> {
        if links.is_empty() {
            return Err(StitchError::Empty);
        }
        let scan_in = n.add_input("scan_in");
        let mut prev = scan_in;
        let mut sources = Vec::new();
        let mut broken = None;
        for (i, link) in links.iter().enumerate() {
            match *link {
                ChainLink::Mux { mux, ff, .. } => {
                    debug_assert_eq!(n.kind(mux), GateKind::Mux);
                    sources.push((mux, prev));
                    prev = ff;
                }
                ChainLink::Path { from, ff, .. } => {
                    if i == 0 {
                        broken = Some(StitchError::PathAtHead);
                        break;
                    }
                    if from != prev {
                        broken = Some(StitchError::BrokenPath {
                            position: i,
                            expected: prev,
                            actual: from,
                        });
                        break;
                    }
                    prev = ff;
                }
            }
        }
        // The muxes ahead of a broken link fail first, as they would
        // one at a time.
        let scanned = n.set_scan_sources(&sources)?;
        if let Some(e) = broken {
            return Err(e);
        }
        let scan_out = n.add_output("scan_out", prev)?;
        Ok((ScanChain { scan_in, scan_out, links }, scanned))
    }

    /// The chain's dedicated scan-in primary input.
    #[inline]
    pub fn scan_in(&self) -> GateId {
        self.scan_in
    }

    /// The chain's scan-out port.
    #[inline]
    pub fn scan_out(&self) -> GateId {
        self.scan_out
    }

    /// The links in shift order.
    #[inline]
    pub fn links(&self) -> &[ChainLink] {
        &self.links
    }

    /// Number of flip-flops on the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when the chain has no links (never produced by `stitch`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// How many links are mux entries vs free test-point paths.
    pub fn mux_and_path_counts(&self) -> (usize, usize) {
        let muxes = self.links.iter().filter(|l| matches!(l, ChainLink::Mux { .. })).count();
        (muxes, self.links.len() - muxes)
    }

    /// Total inversion parity from scan-in to scan-out: true when a bit
    /// shifted through the whole chain emerges complemented.
    pub fn parity(&self) -> bool {
        self.links.iter().fold(false, |p, l| p ^ l.inverting())
    }

    /// Inversion parity accumulated from scan-in up to and including link
    /// `k`.
    pub fn parity_through(&self, k: usize) -> bool {
        self.links[..=k].iter().fold(false, |p, l| p ^ l.inverting())
    }

    /// Stitches `links` into up to `count` balanced chains (production
    /// designs bound shift time by splitting the register set across
    /// several chains, each with its own `scan_in_<i>`/`scan_out_<i>`).
    ///
    /// Fragments connected by [`ChainLink::Path`] links are kept intact —
    /// a test-point path can only ride from its own upstream flip-flop —
    /// and whole fragments are distributed over the chains longest-first
    /// (greedy balancing).
    ///
    /// # Errors
    /// Same conditions as [`ScanChain::stitch`]; `count` of 0 is treated
    /// as 1.
    pub fn stitch_multi(
        n: &mut Netlist,
        links: Vec<ChainLink>,
        count: usize,
    ) -> Result<Vec<ScanChain>, StitchError> {
        if links.is_empty() {
            return Err(StitchError::Empty);
        }
        // Split into fragments: every Mux link starts one; Path links
        // extend the current fragment.
        let mut fragments: Vec<Vec<ChainLink>> = Vec::new();
        for (i, link) in links.into_iter().enumerate() {
            match link {
                ChainLink::Mux { .. } => fragments.push(vec![link]),
                ChainLink::Path { .. } => {
                    let Some(frag) = fragments.last_mut() else {
                        return Err(StitchError::PathAtHead);
                    };
                    let _ = i;
                    frag.push(link);
                }
            }
        }
        // Longest-fragment-first greedy bin packing.
        fragments.sort_by_key(|f| std::cmp::Reverse(f.len()));
        let count = count.max(1).min(fragments.len());
        let mut bins: Vec<Vec<ChainLink>> = vec![Vec::new(); count];
        for frag in fragments {
            let target = bins.iter_mut().min_by_key(|b| b.len()).expect("count >= 1 bins exist");
            target.extend(frag);
        }
        bins.into_iter().map(|links| ScanChain::stitch(n, links)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three FFs with muxes on each D pin (conventional full scan).
    fn three_muxed() -> (Netlist, Vec<GateId>, Vec<GateId>) {
        let mut n = Netlist::new("t");
        let mut ffs = Vec::new();
        let mut muxes = Vec::new();
        for i in 0..3 {
            let d = n.add_input(format!("d{i}"));
            let ff = n.add_gate(GateKind::Dff, format!("f{i}"));
            n.connect(d, ff).unwrap();
            ffs.push(ff);
        }
        for &ff in &ffs {
            let placeholder = n.fanin(ff)[0];
            let mux = n.insert_scan_mux_at_pin(ff, 0, placeholder).unwrap();
            muxes.push(mux);
        }
        (n, ffs, muxes)
    }

    #[test]
    fn stitch_wires_muxes_in_order() {
        let (mut n, ffs, muxes) = three_muxed();
        let links: Vec<ChainLink> = ffs
            .iter()
            .zip(&muxes)
            .map(|(&ff, &mux)| ChainLink::Mux { mux, ff, inverting: false })
            .collect();
        let chain = ScanChain::stitch(&mut n, links).unwrap();
        assert_eq!(n.fanin(muxes[0])[1], chain.scan_in());
        assert_eq!(n.fanin(muxes[1])[1], ffs[0]);
        assert_eq!(n.fanin(muxes[2])[1], ffs[1]);
        assert_eq!(n.fanin(chain.scan_out())[0], ffs[2]);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.mux_and_path_counts(), (3, 0));
        n.validate().unwrap();
    }

    /// The full-scan flow's shape: `ffs` flip-flops, each behind a mux
    /// whose scan pin waits on one shared stub input, every third one
    /// followed by a path link to the next.
    fn one_stub_chain(ffs: usize) -> (Netlist, Vec<ChainLink>) {
        let mut n = Netlist::new("t");
        let stub = n.add_input("scan_stub");
        let mut links = Vec::new();
        let mut prev = None;
        for i in 0..ffs {
            let d = n.add_input(format!("d{i}"));
            let ff = n.add_gate(GateKind::Dff, format!("f{i}"));
            n.connect(d, ff).unwrap();
            match prev {
                Some(from) if i % 3 == 2 => {
                    links.push(ChainLink::Path { from, ff, inverting: false });
                }
                _ => {
                    let mux = n.insert_scan_mux_at_pin(ff, 0, stub).unwrap();
                    links.push(ChainLink::Mux { mux, ff, inverting: false });
                }
            }
            prev = Some(ff);
        }
        (n, links)
    }

    #[test]
    fn stitch_reads_the_stub_once_and_matches_one_edit_per_mux() {
        for ffs in [1, 2, 30, 3_000] {
            let (mut n, links) = one_stub_chain(ffs);
            let muxes = links.iter().filter(|l| matches!(l, ChainLink::Mux { .. })).count();
            // The oracle: one `set_scan_source` per mux, as stitching
            // did before it moved them in one pass.
            let mut oracle = n.clone();
            let mut prev = oracle.add_input("scan_in");
            for link in &links {
                if let ChainLink::Mux { mux, .. } = *link {
                    oracle.set_scan_source(mux, prev).unwrap();
                }
                prev = link.ff();
            }
            oracle.add_output("scan_out", prev).unwrap();
            let (chain, scanned) = ScanChain::stitch_counted(&mut n, links).unwrap();
            assert_eq!(scanned, muxes, "{ffs} flip-flops: only the stub's list is read");
            assert_eq!(n, oracle, "{ffs} flip-flops");
            assert_eq!(chain.mux_and_path_counts().0, muxes);
            n.validate().unwrap();
        }
    }

    #[test]
    fn path_link_must_follow_its_source() {
        let (mut n, ffs, muxes) = three_muxed();
        let links = vec![
            ChainLink::Mux { mux: muxes[0], ff: ffs[0], inverting: false },
            ChainLink::Path { from: ffs[1], ff: ffs[2], inverting: false }, // wrong: prev is ffs[0]
        ];
        let err = ScanChain::stitch(&mut n, links).unwrap_err();
        assert!(matches!(err, StitchError::BrokenPath { position: 1, .. }));
    }

    #[test]
    fn path_at_head_is_rejected() {
        let (mut n, ffs, _muxes) = three_muxed();
        let links = vec![ChainLink::Path { from: ffs[0], ff: ffs[1], inverting: false }];
        assert_eq!(ScanChain::stitch(&mut n, links).unwrap_err(), StitchError::PathAtHead);
    }

    #[test]
    fn empty_chain_is_rejected() {
        let (mut n, _ffs, _muxes) = three_muxed();
        assert_eq!(ScanChain::stitch(&mut n, vec![]).unwrap_err(), StitchError::Empty);
    }

    #[test]
    fn stitch_multi_balances_mux_only_links() {
        let mut n = Netlist::new("t");
        let mut links = Vec::new();
        for i in 0..7 {
            let d = n.add_input(format!("d{i}"));
            let ff = n.add_gate(GateKind::Dff, format!("f{i}"));
            n.connect(d, ff).unwrap();
            let mux = n.insert_scan_mux_at_pin(ff, 0, d).unwrap();
            links.push(ChainLink::Mux { mux, ff, inverting: false });
        }
        let chains = ScanChain::stitch_multi(&mut n, links, 3).unwrap();
        assert_eq!(chains.len(), 3);
        let total: usize = chains.iter().map(ScanChain::len).sum();
        assert_eq!(total, 7);
        let max = chains.iter().map(ScanChain::len).max().unwrap();
        let min = chains.iter().map(ScanChain::len).min().unwrap();
        assert!(max - min <= 1, "balanced within one: {max} vs {min}");
        n.validate().unwrap();
    }

    #[test]
    fn stitch_multi_keeps_path_fragments_together() {
        let (mut n, ffs, muxes) = three_muxed();
        let links = vec![
            ChainLink::Mux { mux: muxes[0], ff: ffs[0], inverting: false },
            ChainLink::Path { from: ffs[0], ff: ffs[1], inverting: false },
            ChainLink::Mux { mux: muxes[2], ff: ffs[2], inverting: false },
        ];
        let chains = ScanChain::stitch_multi(&mut n, links, 2).unwrap();
        assert_eq!(chains.len(), 2);
        // The 2-link fragment must live in one chain unbroken.
        let with_pair = chains.iter().find(|c| c.len() == 2).expect("fragment intact");
        assert!(matches!(with_pair.links()[1], ChainLink::Path { .. }));
        n.validate().unwrap();
    }

    #[test]
    fn stitch_multi_caps_count_at_fragments() {
        let (mut n, ffs, muxes) = three_muxed();
        let links = vec![ChainLink::Mux { mux: muxes[0], ff: ffs[0], inverting: false }];
        let chains = ScanChain::stitch_multi(&mut n, links, 5).unwrap();
        assert_eq!(chains.len(), 1, "cannot have more chains than fragments");
    }

    #[test]
    fn parity_accumulates_xor() {
        let (mut n, ffs, muxes) = three_muxed();
        let links = vec![
            ChainLink::Mux { mux: muxes[0], ff: ffs[0], inverting: true },
            ChainLink::Path { from: ffs[0], ff: ffs[1], inverting: true },
            ChainLink::Mux { mux: muxes[2], ff: ffs[2], inverting: false },
        ];
        let chain = ScanChain::stitch(&mut n, links).unwrap();
        assert!(!chain.parity());
        assert!(chain.parity_through(0));
        assert!(!chain.parity_through(1));
        assert_eq!(chain.mux_and_path_counts(), (2, 1));
    }
}

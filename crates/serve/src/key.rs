//! Content-addressed cache keys.
//!
//! A job's key must identify *what would be computed*: the circuit's
//! structure plus the flow and the config fields that influence its
//! result. Two properties matter:
//!
//! * **Stability** — re-parsing the same circuit from a differently
//!   formatted BLIF file (reordered covers, extra whitespace, different
//!   internal net names from the parser's gate decomposition) must hash
//!   identically, or the cache never hits across runs.
//! * **Sensitivity** — any change to the structure, the interface
//!   names, or a result-relevant config field must change the key.
//!
//! The fingerprint therefore ignores *internal combinational gate
//! names* entirely (the BLIF decomposition invents them order-
//! dependently) and hashes the circuit as a DAG: each combinational
//! gate is the hash of its kind and its fanin hashes (sorted for
//! commutative kinds), grounded at primary inputs, flip-flops and
//! constants; the circuit is then the hash of its interface — model
//! name, input names, (name, driver-hash) pairs for flip-flops, and
//! driver hashes for outputs (port names excluded: the BLIF parser
//! invents them), each list sorted.

use crate::job::FlowKind;
use std::fmt;
use tpi_core::tpgreed::{GainModel, GainUpdate};
use tpi_core::PartialScanMethod;
use tpi_netlist::{GateId, GateKind, Netlist};

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for cache
/// addressing (keys identify jobs, they are not a security boundary).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a string, length-prefixed so `("ab","c")` and
    /// `("a","bc")` cannot collide by concatenation.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern (exact, not approximate).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// A content-addressed job identity; displays as 16 hex digits (also
/// the on-disk cache file stem).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Structural fingerprint of a netlist, invariant under internal
/// combinational gate renaming and gate creation order.
///
/// Grounding: primary inputs and flip-flops hash by *name* (they are
/// the circuit's stable interface and state), constants by kind.
/// Combinational gates hash by kind + fanin hashes — sorted for
/// commutative kinds (AND/OR/NAND/NOR/XOR/XNOR), in pin order for the
/// rest (BUF/INV/MUX) — so the parser's invented names never matter.
pub fn netlist_fingerprint(n: &Netlist) -> u64 {
    let mut cones = Cones {
        n,
        memo: vec![None; n.gate_count()],
        stack: Vec::new(),
        fanin_hashes: Vec::new(),
        midstates: GateKind::ALL.map(|kind| {
            let mut h = Fnv64::new();
            h.write_str("gate");
            h.write_str(kind.label());
            h
        }),
    };
    let mut hash_of = |root: GateId| -> u64 { cones.hash(root) };

    let mut inputs: Vec<&str> = n.inputs().iter().map(|&g| n.gate_name(g)).collect();
    inputs.sort_unstable();

    let mut dffs: Vec<(&str, u64)> = n
        .dffs()
        .iter()
        .map(|&ff| {
            let d = n.fanin(ff).first().map(|&src| hash_of(src)).unwrap_or(0);
            (n.gate_name(ff), d)
        })
        .collect();
    dffs.sort_unstable();

    // Output *ports* are hashed by driver cone only, not by port name:
    // `parse_blif` names ports after their driver signal and the builder
    // uniquifies collisions with a gate-count-dependent suffix, so port
    // names are not stable across parses. The driven functions are.
    let mut outputs: Vec<u64> = n
        .outputs()
        .iter()
        .map(|&o| n.fanin(o).first().map(|&src| hash_of(src)).unwrap_or(0))
        .collect();
    outputs.sort_unstable();

    let mut h = Fnv64::new();
    h.write_str("tpi-fingerprint-v1");
    h.write_str(n.name());
    h.write_u64(inputs.len() as u64);
    for name in inputs {
        h.write_str(name);
    }
    h.write_u64(dffs.len() as u64);
    for (name, d) in dffs {
        h.write_str(name);
        h.write_u64(d);
    }
    h.write_u64(outputs.len() as u64);
    for d in outputs {
        h.write_u64(d);
    }
    h.finish()
}

/// Memoized DAG hashes of cones, plus the scratch buffers that every
/// root's walk reuses.
struct Cones<'n> {
    n: &'n Netlist,
    memo: Vec<Option<u64>>,
    /// Iterative post-order DFS: combinational chains can be tens of
    /// thousands of gates deep (shift-register-like structures), which
    /// would overflow the call stack recursively. `(gate, expanded)`;
    /// a gate is hashed once all its fanins are.
    stack: Vec<(GateId, bool)>,
    fanin_hashes: Vec<u64>,
    /// Per kind, in [`GateKind::ALL`] order, the hasher after the
    /// prefix every combinational gate of that kind starts with.
    midstates: [Fnv64; GateKind::ALL.len()],
}

impl Cones<'_> {
    /// DAG hash of the cone rooted at `root`.
    fn hash(&mut self, root: GateId) -> u64 {
        let Cones { n, memo, stack, fanin_hashes, midstates } = self;
        stack.push((root, false));
        while let Some((g, expanded)) = stack.pop() {
            if memo[g.index()].is_some() {
                continue;
            }
            let kind = n.kind(g);
            if let Some(leaf) = leaf_hash(n, g, kind) {
                memo[g.index()] = Some(leaf);
                continue;
            }
            if !expanded {
                stack.push((g, true));
                for &f in n.fanin(g) {
                    if memo[f.index()].is_none() {
                        stack.push((f, false));
                    }
                }
                continue;
            }
            fanin_hashes.clear();
            fanin_hashes.extend(
                n.fanin(g)
                    .iter()
                    .map(|&f| memo[f.index()].expect("post-order: fanins hashed first")),
            );
            // A buffer is a wire: hash through it. The BLIF parser inserts
            // a fresh Buf layer around single-cube covers on every
            // roundtrip, so keeping Buf in the hash would deny the
            // fingerprint a fixed point under write_blif/parse_blif.
            if kind == GateKind::Buf && fanin_hashes.len() == 1 {
                memo[g.index()] = Some(fanin_hashes[0]);
                continue;
            }
            if commutative(kind) {
                fanin_hashes.sort_unstable();
            }
            debug_assert_eq!(GateKind::ALL[kind as usize], kind, "ALL is in declaration order");
            let mut h = midstates[kind as usize].clone();
            h.write_u64(fanin_hashes.len() as u64);
            for &fh in fanin_hashes.iter() {
                h.write_u64(fh);
            }
            memo[g.index()] = Some(h.finish());
        }
        memo[root.index()].expect("root hashed by the loop above")
    }
}

/// Hash for grounding gates (those whose identity is their name or
/// kind, not their cone); `None` for combinational gates.
fn leaf_hash(n: &Netlist, g: GateId, kind: GateKind) -> Option<u64> {
    let mut h = Fnv64::new();
    match kind {
        GateKind::Input => h.write_str("input"),
        GateKind::Dff => h.write_str("dff"),
        GateKind::Const0 => {
            h.write_str("const0");
            return Some(h.finish());
        }
        GateKind::Const1 => {
            h.write_str("const1");
            return Some(h.finish());
        }
        _ => return None,
    }
    h.write_str(n.gate_name(g));
    Some(h.finish())
}

fn commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

/// Combines a netlist fingerprint with the flow kind and its
/// result-relevant config into the job's cache key.
///
/// The `threads` knob is deliberately **excluded**: the flows guarantee
/// identical results at every worker count, so runs differing only in
/// parallelism must share a cache slot.
pub fn cache_key(fingerprint: u64, flow: &FlowKind) -> CacheKey {
    let mut h = Fnv64::new();
    h.write_str("tpi-cache-key-v1");
    h.write_u64(fingerprint);
    match flow {
        FlowKind::FullScan(cfg) => {
            h.write_str("full-scan");
            h.write_u64(cfg.k_bound as u64);
            h.write_f64(cfg.gain_bound);
            h.write_str(match cfg.gain_update {
                GainUpdate::Full => "full",
                GainUpdate::Incremental => "incremental",
            });
            h.write_u64(cfg.max_paths as u64);
            // The gain model changes selections, so it must split the
            // cache. Hashed as a marker only for non-default models:
            // every key minted before the knob existed stays valid.
            if cfg.gain_model != GainModel::PathCount {
                h.write_str("gain-model");
                h.write_str(cfg.gain_model.label());
            }
        }
        FlowKind::Partial(method) => {
            h.write_str("partial");
            h.write_str(match method {
                PartialScanMethod::Cb => "cb",
                PartialScanMethod::TdCb => "td-cb",
                PartialScanMethod::TpTime => "tptime",
            });
        }
    }
    CacheKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_core::TpGreedConfig;
    use tpi_netlist::NetlistBuilder;

    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        b.input("a");
        b.input("b");
        b.gate(GateKind::And, "g1", &["a", "b"]);
        b.dff("f0", "g1");
        b.output("o", "f0");
        b.finish().unwrap()
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Well-known FNV-1a 64 test vector.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fingerprint_ignores_commutative_fanin_order() {
        let mut b = NetlistBuilder::new("sample");
        b.input("a");
        b.input("b");
        b.gate(GateKind::And, "g1", &["b", "a"]); // swapped
        b.dff("f0", "g1");
        b.output("o", "f0");
        let swapped = b.finish().unwrap();
        assert_eq!(netlist_fingerprint(&sample()), netlist_fingerprint(&swapped));
    }

    #[test]
    fn fingerprint_ignores_internal_gate_names() {
        let mut b = NetlistBuilder::new("sample");
        b.input("a");
        b.input("b");
        b.gate(GateKind::And, "totally_different_name", &["a", "b"]);
        b.dff("f0", "totally_different_name");
        b.output("o", "f0");
        let renamed = b.finish().unwrap();
        assert_eq!(netlist_fingerprint(&sample()), netlist_fingerprint(&renamed));
    }

    #[test]
    fn fingerprint_sees_structural_changes() {
        let mut b = NetlistBuilder::new("sample");
        b.input("a");
        b.input("b");
        b.gate(GateKind::Or, "g1", &["a", "b"]); // AND -> OR
        b.dff("f0", "g1");
        b.output("o", "f0");
        let or = b.finish().unwrap();
        assert_ne!(netlist_fingerprint(&sample()), netlist_fingerprint(&or));
    }

    #[test]
    fn fingerprint_sees_interface_renames() {
        let mut b = NetlistBuilder::new("sample");
        b.input("a");
        b.input("c"); // input renamed
        b.gate(GateKind::And, "g1", &["a", "c"]);
        b.dff("f0", "g1");
        b.output("o", "f0");
        let renamed = b.finish().unwrap();
        assert_ne!(netlist_fingerprint(&sample()), netlist_fingerprint(&renamed));
    }

    #[test]
    fn ordered_kinds_keep_pin_order() {
        // MUX(sel, a, b) vs MUX(sel, b, a) are different circuits.
        let mk = |flip: bool| {
            let mut b = NetlistBuilder::new("m");
            b.input("s");
            b.input("a");
            b.input("b");
            let pins: [&str; 3] = if flip { ["s", "b", "a"] } else { ["s", "a", "b"] };
            b.gate(GateKind::Mux, "m1", &pins);
            b.output("o", "m1");
            b.finish().unwrap()
        };
        assert_ne!(netlist_fingerprint(&mk(false)), netlist_fingerprint(&mk(true)));
    }

    #[test]
    fn cache_key_sees_config() {
        let fp = netlist_fingerprint(&sample());
        let base = TpGreedConfig::default();
        let mut kb = base.clone();
        kb.k_bound += 1;
        assert_ne!(
            cache_key(fp, &FlowKind::FullScan(base)),
            cache_key(fp, &FlowKind::FullScan(kb))
        );
        assert_ne!(
            cache_key(fp, &FlowKind::Partial(PartialScanMethod::Cb)),
            cache_key(fp, &FlowKind::Partial(PartialScanMethod::TpTime))
        );
    }

    #[test]
    fn gain_model_splits_the_cache_without_moving_path_count_keys() {
        let fp = netlist_fingerprint(&sample());
        let base = TpGreedConfig::default();
        let mut scoap = base.clone();
        scoap.gain_model = tpi_core::GainModel::Scoap;
        assert_ne!(
            cache_key(fp, &FlowKind::FullScan(base.clone())),
            cache_key(fp, &FlowKind::FullScan(scoap)),
            "different selections must not share a cache slot"
        );
        // Golden key: the default (PathCount) config hashes exactly as
        // it did before the gain-model knob existed, so deployed caches
        // survive the upgrade. Recompute only for deliberate schema
        // bumps.
        assert_eq!(cache_key(fp, &FlowKind::FullScan(base)).to_string(), "d9840c82b0d2cdb8");
    }

    #[test]
    fn key_displays_as_16_hex_digits() {
        assert_eq!(CacheKey(0xabc).to_string(), "0000000000000abc");
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        let mut n = Netlist::new("deep");
        let mut prev = n.add_input("a");
        for i in 0..50_000 {
            let g = n.add_gate(GateKind::Inv, format!("i{i}"));
            n.connect(prev, g).unwrap();
            prev = g;
        }
        n.add_output("o", prev).unwrap();
        let _ = netlist_fingerprint(&n); // must terminate, not overflow
    }
}

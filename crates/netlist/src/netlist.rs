//! The mutable gate-level netlist graph.

use crate::error::NetlistError;
use crate::gate::{Conn, GateId, GateKind};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, RandomState};

/// A gate-level sequential circuit.
///
/// Gates are stored densely and identified by [`GateId`]; each gate drives
/// exactly one net, named after the gate. The structure maintains the
/// invariant that `fanins` and `fanouts` mirror each other:
/// `n.fanin(g)[p] == s` if and only if `(g, p)` appears in `n.fanout(s)`.
///
/// The editing vocabulary is deliberately small and matches what the
/// paper's transformations need: adding gates, wiring pins, and *splicing*
/// a new gate into an existing net or connection (test points, scan
/// multiplexers).
///
/// Equality is logical: two netlists are equal when their design names,
/// test inputs and every gate's kind, name, fanins and fanouts agree.
///
/// # Example
///
/// ```
/// use tpi_netlist::{Netlist, GateKind};
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut n = Netlist::new("demo");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let g = n.add_gate(GateKind::Nand, "g");
/// n.connect(a, g)?;
/// n.connect(b, g)?;
/// let o = n.add_output("o", g)?;
/// n.validate()?;
/// assert_eq!(n.fanin(g), &[a, b]);
/// assert_eq!(n.fanin(o), &[g]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    /// Every gate name, back to back; each [`Gate`] holds its span.
    names: String,
    /// Name lookup over `names`.
    index: NameIndex,
    /// The dedicated test input `T` (1 = mission mode, 0 = test mode),
    /// created lazily by [`Netlist::ensure_test_input`].
    test_input: Option<GateId>,
    /// Lazily created inverter producing `T'`.
    test_input_bar: Option<GateId>,
}

/// A gate instance: kind, name, fanins, fanout bookkeeping.
#[derive(Clone)]
struct Gate {
    kind: GateKind,
    /// `start..end` of the gate's name in [`Netlist::names`].
    name: (u32, u32),
    fanins: Vec<GateId>,
    /// `(sink, pin)` pairs of the net this gate drives.
    fanouts: Vec<(GateId, u32)>,
}

/// Open-addressing map from a name to a `u32` id, over names kept
/// elsewhere, with linear probing at no more than 50 % load. In a
/// [`Netlist`] the ids are gate ids and the names sit in
/// [`Netlist::names`]; `NetlistBuilder` interns names with one before
/// handing it over.
///
/// Each slot keeps the low 32 bits of its name's hash. They place the
/// slot and screen every probe, so a probe reads the arena only on a
/// full 32-bit match, and growth re-places slots without rehashing a
/// single name.
///
/// The hash is keyed per index by [`RandomState`]: names arrive off
/// the wire, and with a fixed key a peer could send colliding names
/// and make a parse quadratic.
#[derive(Debug, Clone)]
pub(crate) struct NameIndex {
    keys: RandomState,
    /// Empty or a power of two long; [`FREE`] ids mark free slots.
    slots: Vec<Slot>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// The id of a free [`Slot`]; no gate gets it.
pub(crate) const FREE: u32 = u32::MAX;

impl NameIndex {
    pub(crate) fn new() -> Self {
        NameIndex { keys: RandomState::new(), slots: Vec::new(), len: 0 }
    }

    pub(crate) fn hash(&self, name: &str) -> u32 {
        self.keys.hash_one(name) as u32
    }

    /// Makes room for `additional` more names at no more than 50 % load.
    #[inline]
    pub(crate) fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional) * 2;
        if need > self.slots.len() {
            self.place(need.next_power_of_two().max(8));
        }
    }

    /// Re-places every taken slot into a fresh table of `size` slots.
    fn place(&mut self, size: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, id: FREE }; size]);
        let mask = size - 1;
        for slot in old.into_iter().filter(|s| s.id != FREE) {
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != FREE {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Looks up `name`, whose hash is `hash`, where `name_of` gives the
    /// name stored under an id: `Ok` with its id, or `Err` with the
    /// free slot that ends its probe sequence. The table must not be
    /// empty.
    #[inline]
    pub(crate) fn probe<'n>(
        &self,
        hash: u32,
        name: &str,
        name_of: impl Fn(u32) -> &'n str,
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == FREE {
                return Err(i);
            }
            if slot.hash == hash && name_of(slot.id) == name {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    fn find<'n>(&self, name: &str, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(self.hash(name), name, name_of).ok()
    }

    /// Fills the free slot `i` that [`NameIndex::probe`] returned.
    #[inline]
    pub(crate) fn insert_at(&mut self, i: usize, hash: u32, id: u32) {
        self.slots[i] = Slot { hash, id };
        self.len += 1;
    }

    /// Gives every name the id `ids[id]` in place of `id`, and drops
    /// the names whose new id is [`FREE`]. No name is rehashed.
    pub(crate) fn renumber(&mut self, ids: &[u32]) {
        let mut kept = 0;
        for slot in self.slots.iter_mut().filter(|s| s.id != FREE) {
            slot.id = ids[slot.id as usize];
            kept += usize::from(slot.id != FREE);
        }
        if kept < self.len {
            // A dropped slot may sit inside another name's probe
            // sequence; re-placing the kept ones closes the gaps.
            self.len = kept;
            self.place(self.slots.len());
        }
    }
}

/// The name stored at `start..end` of a name arena.
#[inline]
pub(crate) fn span(names: &str, (start, end): (u32, u32)) -> &str {
    &names[start as usize..end as usize]
}

/// A name-arena offset as stored in a [`Gate`].
pub(crate) fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("gate names exceed 4 GiB")
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.test_input == other.test_input
            && self.test_input_bar == other.test_input_bar
            && self.gates.len() == other.gates.len()
            && self.gate_ids().all(|g| {
                self.kind(g) == other.kind(g)
                    && self.gate_name(g) == other.gate_name(g)
                    && self.fanin(g) == other.fanin(g)
                    && self.fanout(g) == other.fanout(g)
            })
    }
}

impl Eq for Netlist {}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// Each gate as `(kind, name, fanins, fanouts)`.
        struct Gates<'a>(&'a Netlist);
        impl fmt::Debug for Gates<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let n = self.0;
                f.debug_list()
                    .entries(
                        n.gate_ids().map(|g| (n.kind(g), n.gate_name(g), n.fanin(g), n.fanout(g))),
                    )
                    .finish()
            }
        }
        f.debug_struct("Netlist")
            .field("name", &self.name)
            .field("gates", &Gates(self))
            .field("test_input", &self.test_input)
            .field("test_input_bar", &self.test_input_bar)
            .finish()
    }
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            names: String::new(),
            index: NameIndex::new(),
            test_input: None,
            test_input_bar: None,
        }
    }

    /// Bulk build: an empty netlist with room for `gates` gates and no
    /// name index yet (see [`Netlist::adopt_names`]).
    pub(crate) fn with_capacity(name: String, gates: usize) -> Self {
        let mut n = Netlist::new(name);
        n.gates.reserve_exact(gates);
        n
    }

    /// The design name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pre-allocates room for `additional` more gates. Bulk builders
    /// (the industrial-scale generator, the `.bench`/BLIF parsers) call
    /// this to avoid incremental growth of the gate table and the name
    /// index on million-gate designs.
    pub fn reserve(&mut self, additional: usize) {
        self.gates.reserve(additional);
        self.index.reserve(additional);
    }

    /// Number of gate names the netlist holds before its name index
    /// next grows (see [`Netlist::reserve`]).
    pub fn name_capacity(&self) -> usize {
        self.index.slots.len() / 2
    }

    /// Number of gates (including ports, flip-flops and constants).
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Iterates over all gate ids in creation order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a gate of `kind` named `name`. If `name` is empty or already
    /// taken, a unique name derived from it (or from the kind) is used.
    pub fn add_gate(&mut self, kind: GateKind, name: impl AsRef<str>) -> GateId {
        // Candidates are written straight into the arena, after every
        // stored name, and probed there.
        let start = self.names.len();
        self.names.push_str(name.as_ref());
        if self.names.len() == start {
            self.names.push_str(kind.label());
            self.names[start..].make_ascii_lowercase();
            write!(self.names, "_{}", self.gates.len()).expect("writing to a String");
        }
        self.index.reserve(1);
        let base = self.names.len();
        let mut suffix = self.gates.len();
        loop {
            let candidate = &self.names[start..];
            let hash = self.index.hash(candidate);
            match self
                .index
                .probe(hash, candidate, |id| span(&self.names, self.gates[id as usize].name))
            {
                Err(slot) => return self.push_gate(kind, start, hash, slot),
                Ok(_) => {
                    self.names.truncate(base);
                    write!(self.names, "_{suffix}").expect("writing to a String");
                    suffix += 1;
                }
            }
        }
    }

    /// Bulk build: appends a gate whose name is `start..end` of the
    /// arena that [`Netlist::adopt_names`] installs next, without
    /// indexing the name.
    pub(crate) fn push_unindexed(&mut self, kind: GateKind, name: (u32, u32)) -> GateId {
        assert!(self.gates.len() < FREE as usize, "netlist exceeds {FREE} gates");
        let id = GateId(self.gates.len() as u32);
        self.gates.push(Gate { kind, name, fanins: Vec::new(), fanouts: Vec::new() });
        id
    }

    /// Bulk build: installs the arena that every gate's name span
    /// points into, with an index that maps each gate's name to it.
    /// Runs once, after the last [`Netlist::push_unindexed`].
    pub(crate) fn adopt_names(&mut self, names: String, index: NameIndex) {
        debug_assert!(self.names.is_empty() && self.index.len == 0, "adopt_names runs once");
        debug_assert_eq!(index.len, self.gates.len(), "the index names every gate");
        self.names = names;
        self.index = index;
    }

    /// Appends a gate named `names[start..]`, which `probe` placed at
    /// the free index slot `slot`.
    fn push_gate(&mut self, kind: GateKind, start: usize, hash: u32, slot: usize) -> GateId {
        let id = self.push_unindexed(kind, (offset(start), offset(self.names.len())));
        self.index.insert_at(slot, hash, id.0);
        id
    }

    /// Bulk build: gives `g` its complete fanin list, already checked by
    /// [`Netlist::check_wiring`] pin by pin. The mirroring fanouts wait
    /// for [`Netlist::wire_fanouts`].
    pub(crate) fn set_fanins(&mut self, g: GateId, fanins: Vec<GateId>) {
        self.gates[g.index()].fanins = fanins;
    }

    /// Bulk build: wires every fanout list, at exact capacity, from the
    /// fanin lists set by [`Netlist::set_fanins`], where `counts[g]`
    /// is the number of fanin pins gate `g` drives. Each net lists its
    /// sinks in (sink, pin) order, as sequential [`Netlist::connect`]
    /// calls in gate order would have. Every fanout list must be empty.
    pub(crate) fn wire_fanouts(&mut self, counts: &[u32]) {
        for (gate, &count) in self.gates.iter_mut().zip(counts) {
            debug_assert!(gate.fanouts.is_empty(), "wire_fanouts runs once, on a fresh build");
            gate.fanouts = Vec::with_capacity(count as usize);
        }
        for sink in 0..self.gates.len() {
            for pin in 0..self.gates[sink].fanins.len() {
                let src = self.gates[sink].fanins[pin];
                self.gates[src.index()].fanouts.push((GateId(sink as u32), pin as u32));
            }
        }
        debug_assert!(
            self.gates.iter().zip(counts).all(|(g, &c)| g.fanouts.len() == c as usize),
            "counts match the fanin lists"
        );
    }

    /// Adds a primary input.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> GateId {
        self.add_gate(GateKind::Input, name)
    }

    /// Adds a primary output port driven by `src`.
    ///
    /// # Errors
    /// Fails if `src` does not exist or cannot drive fanouts.
    pub fn add_output(
        &mut self,
        name: impl AsRef<str>,
        src: GateId,
    ) -> Result<GateId, NetlistError> {
        self.check(src)?;
        let id = self.add_gate(GateKind::Output, name);
        self.connect(src, id)?;
        Ok(id)
    }

    /// Appends `src` as the next fanin pin of `sink`.
    ///
    /// # Errors
    /// Fails if either gate is unknown, `sink` cannot take another fanin,
    /// or `src` is an output port.
    pub fn connect(&mut self, src: GateId, sink: GateId) -> Result<u32, NetlistError> {
        self.check(src)?;
        self.check(sink)?;
        let pin = self.gates[sink.index()].fanins.len();
        Netlist::check_wiring((src, self.kind(src)), (sink, self.kind(sink)), pin)?;
        self.gates[sink.index()].fanins.push(src);
        self.gates[src.index()].fanouts.push((sink, pin as u32));
        Ok(pin as u32)
    }

    /// [`Netlist::connect`]'s checks, in its order, for wiring gate
    /// `src` of kind `src_kind` into pin `pin` of gate `sink` of kind
    /// `kind`.
    pub(crate) fn check_wiring(
        (src, src_kind): (GateId, GateKind),
        (sink, kind): (GateId, GateKind),
        pin: usize,
    ) -> Result<(), NetlistError> {
        if src_kind == GateKind::Output {
            return Err(NetlistError::NotASource(src));
        }
        if matches!(kind, GateKind::Input | GateKind::Const0 | GateKind::Const1) {
            return Err(NetlistError::NotASink(sink));
        }
        if let Some(max) = kind.fixed_arity() {
            if pin >= max {
                return Err(NetlistError::ArityExceeded { gate: sink, kind, arity: max });
            }
        }
        Ok(())
    }

    /// Rewires pin `pin` of `sink` from its current source to `new_src`.
    ///
    /// # Errors
    /// Fails if the pin does not exist or `new_src` cannot drive fanouts.
    pub fn replace_fanin(
        &mut self,
        sink: GateId,
        pin: u32,
        new_src: GateId,
    ) -> Result<(), NetlistError> {
        self.check(sink)?;
        self.check(new_src)?;
        if self.gates[new_src.index()].kind == GateKind::Output {
            return Err(NetlistError::NotASource(new_src));
        }
        let p = pin as usize;
        if p >= self.gates[sink.index()].fanins.len() {
            return Err(NetlistError::NoSuchPin { gate: sink, pin });
        }
        let old_src = self.gates[sink.index()].fanins[p];
        if old_src == new_src {
            return Ok(());
        }
        // Remove (sink, pin) from old source's fanout list.
        let outs = &mut self.gates[old_src.index()].fanouts;
        if let Some(i) = outs.iter().position(|&(s, q)| s == sink && q == pin) {
            outs.swap_remove(i);
        }
        self.gates[sink.index()].fanins[p] = new_src;
        self.gates[new_src.index()].fanouts.push((sink, pin));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    #[inline]
    fn check(&self, g: GateId) -> Result<(), NetlistError> {
        if g.index() < self.gates.len() {
            Ok(())
        } else {
            Err(NetlistError::UnknownGate(g))
        }
    }

    /// The kind of gate `g`.
    #[inline]
    pub fn kind(&self, g: GateId) -> GateKind {
        self.gates[g.index()].kind
    }

    /// The name of gate `g` (also the name of the net it drives).
    #[inline]
    pub fn gate_name(&self, g: GateId) -> &str {
        span(&self.names, self.gates[g.index()].name)
    }

    /// Fanin nets of `g` in pin order.
    #[inline]
    pub fn fanin(&self, g: GateId) -> &[GateId] {
        &self.gates[g.index()].fanins
    }

    /// Fanout `(sink, pin)` pairs of the net driven by `g`.
    #[inline]
    pub fn fanout(&self, g: GateId) -> &[(GateId, u32)] {
        &self.gates[g.index()].fanouts
    }

    /// Looks a gate up by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.index.find(name, |id| span(&self.names, self.gates[id as usize].name)).map(GateId)
    }

    /// Like [`Netlist::find`] but returns a descriptive error.
    ///
    /// # Errors
    /// Returns [`NetlistError::UnknownName`] when absent.
    pub fn find_required(&self, name: &str) -> Result<GateId, NetlistError> {
        self.find(name).ok_or_else(|| NetlistError::UnknownName(name.to_string()))
    }

    /// All primary inputs, in creation order (excluding the test input).
    pub fn inputs(&self) -> Vec<GateId> {
        self.gate_ids()
            .filter(|&g| self.kind(g) == GateKind::Input && Some(g) != self.test_input)
            .collect()
    }

    /// All primary output ports.
    pub fn outputs(&self) -> Vec<GateId> {
        self.gate_ids().filter(|&g| self.kind(g) == GateKind::Output).collect()
    }

    /// All D flip-flops.
    pub fn dffs(&self) -> Vec<GateId> {
        self.gate_ids().filter(|&g| self.kind(g) == GateKind::Dff).collect()
    }

    /// All combinational gates.
    pub fn comb_gates(&self) -> Vec<GateId> {
        self.gate_ids().filter(|&g| self.kind(g).is_combinational()).collect()
    }

    /// All connections `[source, sink, pin]` in the netlist.
    pub fn connections(&self) -> Vec<Conn> {
        let mut v = Vec::new();
        for g in self.gate_ids() {
            for (pin, &src) in self.gates[g.index()].fanins.iter().enumerate() {
                v.push(Conn::new(src, g, pin as u32));
            }
        }
        v
    }

    // ------------------------------------------------------------------
    // Test input and splicing (the paper's structural edits)
    // ------------------------------------------------------------------

    /// The dedicated test input `T`, if it has been created.
    #[inline]
    pub fn test_input(&self) -> Option<GateId> {
        self.test_input
    }

    /// The inverter output `T'`, if it has been created.
    #[inline]
    pub fn test_input_bar(&self) -> Option<GateId> {
        self.test_input_bar
    }

    /// Returns the test input `T`, creating it on first use.
    ///
    /// `T` carries 1 in mission mode and 0 in test mode (§III).
    pub fn ensure_test_input(&mut self) -> GateId {
        if let Some(t) = self.test_input {
            return t;
        }
        let t = self.add_gate(GateKind::Input, "T_test");
        self.test_input = Some(t);
        t
    }

    /// Returns `T'` (an inverter on the test input), creating both lazily.
    pub fn ensure_test_input_bar(&mut self) -> GateId {
        if let Some(tb) = self.test_input_bar {
            return tb;
        }
        let t = self.ensure_test_input();
        let tb = self.add_gate(GateKind::Inv, "T_test_bar");
        self.connect(t, tb).expect("inverter accepts one fanin");
        self.test_input_bar = Some(tb);
        tb
    }

    /// Splices `new_gate` into the net driven by `target`: every existing
    /// fanout of `target` is rewired to be driven by `new_gate` instead.
    /// `new_gate` must subsequently (or previously) be connected to
    /// `target` by the caller — the helpers
    /// [`Netlist::insert_and_test_point`] / [`Netlist::insert_or_test_point`]
    /// do the full job.
    ///
    /// Fanouts that `new_gate` already has (e.g. the feed-through pin)
    /// are not touched.
    ///
    /// # Errors
    /// Fails if either gate is unknown.
    pub fn splice_on_net(&mut self, target: GateId, new_gate: GateId) -> Result<(), NetlistError> {
        self.check(target)?;
        self.check(new_gate)?;
        let outs: Vec<(GateId, u32)> = self.gates[target.index()]
            .fanouts
            .iter()
            .copied()
            .filter(|&(s, _)| s != new_gate)
            .collect();
        for (sink, pin) in outs {
            self.replace_fanin(sink, pin, new_gate)?;
        }
        Ok(())
    }

    /// Inserts a 2-input AND test point at the net driven by `target`
    /// (forces the net to 0 in test mode). Returns the new AND gate.
    ///
    /// The transformation of §III: all fanouts of `target` become fanouts
    /// of `AND(target, T)`; in test mode `T = 0` so the net reads 0, and
    /// in mission mode `T = 1` so the AND is transparent.
    ///
    /// # Errors
    /// Fails if `target` is unknown or is an output port.
    pub fn insert_and_test_point(&mut self, target: GateId) -> Result<GateId, NetlistError> {
        self.check(target)?;
        if self.kind(target) == GateKind::Output {
            return Err(NetlistError::NotASource(target));
        }
        let t = self.ensure_test_input();
        let tp = self.add_gate(GateKind::And, format!("tp0_{}", self.gate_name(target)));
        self.splice_on_net(target, tp)?;
        self.connect(target, tp)?;
        self.connect(t, tp)?;
        Ok(tp)
    }

    /// Inserts a 2-input OR test point at the net driven by `target`
    /// (forces the net to 1 in test mode, using `T'`). Returns the new OR.
    ///
    /// # Errors
    /// Fails if `target` is unknown or is an output port.
    pub fn insert_or_test_point(&mut self, target: GateId) -> Result<GateId, NetlistError> {
        self.check(target)?;
        if self.kind(target) == GateKind::Output {
            return Err(NetlistError::NotASource(target));
        }
        let tb = self.ensure_test_input_bar();
        let tp = self.add_gate(GateKind::Or, format!("tp1_{}", self.gate_name(target)));
        self.splice_on_net(target, tp)?;
        self.connect(target, tp)?;
        self.connect(tb, tp)?;
        Ok(tp)
    }

    /// Inserts a scan multiplexer at the net driven by `target`: all
    /// fanouts of `target` are rewired to `MUX(T, scan_src, target)`.
    /// In mission mode (`T = 1`) the mux passes `target`; in test mode
    /// (`T = 0`) it injects `scan_src` (§IV, Fig. 4). Returns the mux.
    ///
    /// # Errors
    /// Fails if either gate is unknown or `target` is an output port.
    pub fn insert_scan_mux(
        &mut self,
        target: GateId,
        scan_src: GateId,
    ) -> Result<GateId, NetlistError> {
        self.check(target)?;
        self.check(scan_src)?;
        if self.kind(target) == GateKind::Output {
            return Err(NetlistError::NotASource(target));
        }
        let t = self.ensure_test_input();
        let mux = self.add_gate(GateKind::Mux, format!("smux_{}", self.gate_name(target)));
        self.splice_on_net(target, mux)?;
        self.connect(t, mux)?; // sel
        self.connect(scan_src, mux)?; // d0 : test mode
        self.connect(target, mux)?; // d1 : mission mode
        Ok(mux)
    }

    /// Inserts a scan multiplexer in front of a single input pin
    /// (conventional MUXed-D scan conversion when `sink` is a flip-flop
    /// and `pin` is its D input). Unlike [`Netlist::insert_scan_mux`],
    /// other fanouts of the original driver are untouched.
    ///
    /// Returns the mux, wired `MUX(T, scan_src, original_driver)`.
    ///
    /// # Errors
    /// Fails if the pin does not exist or `scan_src` is invalid.
    pub fn insert_scan_mux_at_pin(
        &mut self,
        sink: GateId,
        pin: u32,
        scan_src: GateId,
    ) -> Result<GateId, NetlistError> {
        self.check(sink)?;
        self.check(scan_src)?;
        let p = pin as usize;
        if p >= self.gates[sink.index()].fanins.len() {
            return Err(NetlistError::NoSuchPin { gate: sink, pin });
        }
        let orig = self.gates[sink.index()].fanins[p];
        let t = self.ensure_test_input();
        let mux = self.add_gate(GateKind::Mux, format!("smux_{}", self.gate_name(sink)));
        self.connect(t, mux)?; // sel
        self.connect(scan_src, mux)?; // d0 : test mode
        self.connect(orig, mux)?; // d1 : mission mode
        self.replace_fanin(sink, pin, mux)?;
        Ok(mux)
    }

    /// Rewires the scan-source pin (`d0`) of a scan mux created by
    /// [`Netlist::insert_scan_mux`].
    ///
    /// # Errors
    /// Fails if `mux` is not a MUX gate or `scan_src` is invalid.
    pub fn set_scan_source(&mut self, mux: GateId, scan_src: GateId) -> Result<(), NetlistError> {
        self.check(mux)?;
        if self.kind(mux) != GateKind::Mux {
            return Err(NetlistError::NoSuchPin { gate: mux, pin: 1 });
        }
        self.replace_fanin(mux, 1, scan_src)
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks structural sanity: fanin arities, fanin/fanout mirror
    /// consistency, and absence of combinational cycles.
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        // Flattened fanin-pin slots: `offsets[g] + pin` indexes the pin
        // `(g, pin)`. The fanin/fanout mirror is checked in O(edges):
        // every fanout entry must land on a distinct, matching pin slot,
        // and every pin slot must be hit exactly once. The naive form
        // (`fanouts.contains(..)` per fanin) is O(fanout²) per net and
        // takes minutes on million-gate designs with wide enable nets.
        let mut offsets = Vec::with_capacity(self.gates.len());
        let mut fanin_edges = 0usize;
        for gate in &self.gates {
            offsets.push(fanin_edges);
            fanin_edges += gate.fanins.len();
        }
        let mut seen = vec![false; fanin_edges];
        let mut fanout_edges = 0usize;
        for g in self.gate_ids() {
            let gate = &self.gates[g.index()];
            let actual = gate.fanins.len();
            match gate.kind.fixed_arity() {
                Some(expected) if actual != expected => {
                    return Err(NetlistError::ArityUnderflow {
                        gate: g,
                        kind: gate.kind,
                        expected,
                        actual,
                    });
                }
                None if actual == 0 => {
                    return Err(NetlistError::ArityUnderflow {
                        gate: g,
                        kind: gate.kind,
                        expected: 1,
                        actual,
                    });
                }
                _ => {}
            }
            for &src in &gate.fanins {
                self.check(src)?;
            }
            for &(sink, pin) in &gate.fanouts {
                self.check(sink)?;
                if self.gates[sink.index()].fanins.get(pin as usize) != Some(&g) {
                    return Err(NetlistError::NoSuchPin { gate: sink, pin });
                }
                let slot = offsets[sink.index()] + pin as usize;
                if seen[slot] {
                    return Err(NetlistError::NoSuchPin { gate: sink, pin });
                }
                seen[slot] = true;
                fanout_edges += 1;
            }
        }
        if fanout_edges != fanin_edges {
            // Some fanin pin has no mirroring fanout entry; name it.
            for g in self.gate_ids() {
                for pin in 0..self.gates[g.index()].fanins.len() {
                    if !seen[offsets[g.index()] + pin] {
                        return Err(NetlistError::NoSuchPin { gate: g, pin: pin as u32 });
                    }
                }
            }
        }
        crate::topo::topo_order(self).map_err(|e| NetlistError::CombinationalCycle(e.gate()))?;
        Ok(())
    }

    /// Topological order of the combinational gates (sources first).
    /// Sources (inputs, flip-flop outputs, constants) come first; every
    /// combinational gate follows all of its fanins.
    ///
    /// # Errors
    /// Fails when the combinational part contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<GateId>, NetlistError> {
        crate::topo::topo_order(self).map_err(|e| NetlistError::CombinationalCycle(e.gate()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nand() -> (Netlist, GateId, GateId, GateId) {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, "g");
        n.connect(a, g).unwrap();
        n.connect(b, g).unwrap();
        (n, a, b, g)
    }

    #[test]
    fn connect_maintains_mirror_invariant() {
        let (n, a, b, g) = two_nand();
        assert_eq!(n.fanin(g), &[a, b]);
        assert_eq!(n.fanout(a), &[(g, 0)]);
        assert_eq!(n.fanout(b), &[(g, 1)]);
    }

    #[test]
    fn replace_fanin_moves_fanout_bookkeeping() {
        let (mut n, a, _b, g) = two_nand();
        let c = n.add_input("c");
        n.replace_fanin(g, 0, c).unwrap();
        assert_eq!(n.fanin(g)[0], c);
        assert!(n.fanout(a).is_empty());
        assert_eq!(n.fanout(c), &[(g, 0)]);
    }

    #[test]
    fn arity_is_enforced() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let i = n.add_gate(GateKind::Inv, "i");
        n.connect(a, i).unwrap();
        let err = n.connect(a, i).unwrap_err();
        assert!(matches!(err, NetlistError::ArityExceeded { .. }));
    }

    #[test]
    fn inputs_cannot_be_sinks_outputs_cannot_be_sources() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        assert!(matches!(n.connect(a, b), Err(NetlistError::NotASink(_))));
        let o = n.add_output("o", a).unwrap();
        let i = n.add_gate(GateKind::Inv, "i");
        assert!(matches!(n.connect(o, i), Err(NetlistError::NotASource(_))));
    }

    #[test]
    fn duplicate_names_are_uniquified() {
        let mut n = Netlist::new("t");
        let a = n.add_input("x");
        let b = n.add_input("x");
        assert_ne!(n.gate_name(a), n.gate_name(b));
        assert_eq!(n.find("x"), Some(a));
    }

    #[test]
    fn and_test_point_splices_all_fanouts() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let i1 = n.add_gate(GateKind::Inv, "i1");
        let i2 = n.add_gate(GateKind::Inv, "i2");
        n.connect(a, i1).unwrap();
        n.connect(a, i2).unwrap();
        let tp = n.insert_and_test_point(a).unwrap();
        assert_eq!(n.kind(tp), GateKind::And);
        assert_eq!(n.fanin(i1), &[tp]);
        assert_eq!(n.fanin(i2), &[tp]);
        let t = n.test_input().unwrap();
        assert_eq!(n.fanin(tp), &[a, t]);
        n.validate().unwrap();
    }

    #[test]
    fn or_test_point_uses_t_bar() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let i1 = n.add_gate(GateKind::Inv, "i1");
        n.connect(a, i1).unwrap();
        let tp = n.insert_or_test_point(a).unwrap();
        assert_eq!(n.kind(tp), GateKind::Or);
        let tb = n.test_input_bar().unwrap();
        assert_eq!(n.kind(tb), GateKind::Inv);
        assert_eq!(n.fanin(tp), &[a, tb]);
        n.validate().unwrap();
    }

    #[test]
    fn scan_mux_wiring_matches_documented_pin_order() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, ff).unwrap();
        let si = n.add_input("scan_in");
        let mux = n.insert_scan_mux(a, si).unwrap();
        let t = n.test_input().unwrap();
        // [sel, d0 = scan (test mode), d1 = functional (mission mode)]
        assert_eq!(n.fanin(mux), &[t, si, a]);
        assert_eq!(n.fanin(ff), &[mux]);
        n.validate().unwrap();
    }

    #[test]
    fn scan_mux_at_pin_leaves_other_fanouts_alone() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, ff).unwrap();
        let i = n.add_gate(GateKind::Inv, "i");
        n.connect(a, i).unwrap();
        let si = n.add_input("si");
        let mux = n.insert_scan_mux_at_pin(ff, 0, si).unwrap();
        let t = n.test_input().unwrap();
        assert_eq!(n.fanin(ff), &[mux]);
        assert_eq!(n.fanin(mux), &[t, si, a]);
        assert_eq!(n.fanin(i), &[a], "sibling fanout untouched");
        n.validate().unwrap();
    }

    #[test]
    fn set_scan_source_rewires_d0() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let ff = n.add_gate(GateKind::Dff, "ff");
        n.connect(a, ff).unwrap();
        let si = n.add_input("si");
        let si2 = n.add_input("si2");
        let mux = n.insert_scan_mux(a, si).unwrap();
        n.set_scan_source(mux, si2).unwrap();
        assert_eq!(n.fanin(mux)[1], si2);
        n.validate().unwrap();
    }

    #[test]
    fn validate_catches_comb_cycle() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, "g1");
        let g2 = n.add_gate(GateKind::And, "g2");
        n.connect(a, g1).unwrap();
        n.connect(g2, g1).unwrap();
        n.connect(a, g2).unwrap();
        n.connect(g1, g2).unwrap();
        assert!(matches!(n.validate(), Err(NetlistError::CombinationalCycle(_))));
    }

    #[test]
    fn cycle_through_dff_is_legal() {
        let mut n = Netlist::new("t");
        let ff = n.add_gate(GateKind::Dff, "ff");
        let i = n.add_gate(GateKind::Inv, "i");
        n.connect(ff, i).unwrap();
        n.connect(i, ff).unwrap();
        n.validate().unwrap();
    }

    #[test]
    fn validate_catches_underflow() {
        let mut n = Netlist::new("t");
        n.add_gate(GateKind::And, "g");
        assert!(matches!(n.validate(), Err(NetlistError::ArityUnderflow { .. })));
    }

    #[test]
    fn inputs_listing_excludes_test_input() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        n.ensure_test_input();
        assert_eq!(n.inputs(), vec![a]);
    }

    #[test]
    fn connections_enumerates_every_edge() {
        let (n, a, b, g) = two_nand();
        let conns = n.connections();
        assert_eq!(conns.len(), 2);
        assert!(conns.contains(&Conn::new(a, g, 0)));
        assert!(conns.contains(&Conn::new(b, g, 1)));
    }

    #[test]
    fn ensure_test_input_is_idempotent() {
        let mut n = Netlist::new("t");
        let t1 = n.ensure_test_input();
        let t2 = n.ensure_test_input();
        assert_eq!(t1, t2);
        let b1 = n.ensure_test_input_bar();
        let b2 = n.ensure_test_input_bar();
        assert_eq!(b1, b2);
    }
}

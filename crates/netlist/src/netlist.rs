//! The mutable gate-level netlist graph.

use crate::error::NetlistError;
use crate::gate::{Conn, GateId, GateKind};
use std::collections::{HashMap, HashSet};
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
pub struct Netlist {
    name: String,
    /// The kind of every gate.
    kinds: Vec<GateKind>,
    /// Where every gate's name and lists sit.
    places: Vec<Place>,
    /// Every gate name, back to back.
    names: String,
    /// Name lookup over `names`.
    index: NameIndex,
    /// Every gate's fanin nets, in pin order.
    fanins: Arena<GateId>,
    /// The `(sink, pin)` pairs of the net every gate drives.
    fanouts: Arena<(GateId, u32)>,
    /// The dedicated test input `T` (1 = mission mode, 0 = test mode),
    /// created lazily by [`Netlist::ensure_test_input`].
    test_input: Option<GateId>,
    /// Lazily created inverter producing `T'`.
    test_input_bar: Option<GateId>,
}

/// Where a gate's name and lists sit: `start..end` of its name in
/// [`Netlist::names`], and its spans of the two adjacency arenas.
#[derive(Clone, Copy)]
struct Place {
    name: (u32, u32),
    fanin: Span,
    fanout: Span,
}

/// A list's place in its [`Arena`]: `len` entries at `start`, with room
/// for `cap`.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    /// An empty list at offset `at`.
    fn empty(at: usize) -> Self {
        Span { start: arena_offset(at), len: 0, cap: 0 }
    }
}

/// Many lists kept back to back in one buffer, each known by its
/// [`Span`]. A list grows in place while it has spare capacity or ends
/// the arena; otherwise it moves to the arena's end with room to
/// double, leaving its old slots unused until the netlist is cloned.
///
/// Edits keep a `Vec`'s semantics: [`Arena::push`] appends and
/// [`Arena::swap_remove`] moves the last entry into the hole, so every
/// list holds what one `Vec` per list would.
struct Arena<T>(Vec<T>);

impl<T: Copy> Arena<T> {
    #[inline]
    fn get(&self, span: Span) -> &[T] {
        &self.0[span.start as usize..(span.start + span.len) as usize]
    }

    #[inline]
    fn get_mut(&mut self, span: Span) -> &mut [T] {
        &mut self.0[span.start as usize..(span.start + span.len) as usize]
    }

    /// Appends `v` to the list at `span`.
    #[inline]
    fn push(&mut self, span: &mut Span, v: T) {
        let items = &mut self.0;
        if span.len == span.cap {
            let end = items.len();
            if span.len == 0 {
                // Nothing to copy: the list restarts at the arena's end.
                *span = Span::empty(end);
            }
            if (span.start + span.cap) as usize == end {
                // The list ends the arena, so it grows in place.
                items.push(v);
                span.cap = arena_offset(items.len()) - span.start;
                span.len += 1;
                return;
            }
            // Move to the arena's end with room to double.
            let (start, len) = (span.start as usize, span.len as usize);
            items.extend_from_within(start..start + len);
            items.resize(end + 2 * (len + 1), v);
            span.start = arena_offset(end);
            span.cap = arena_offset(items.len()) - span.start;
        }
        items[(span.start + span.len) as usize] = v;
        span.len += 1;
    }

    /// Removes entry `at` of the list at `span`, moving the list's last
    /// entry into its place, like `Vec::swap_remove`.
    #[inline]
    fn swap_remove(&mut self, span: &mut Span, at: usize) {
        assert!(at < span.len as usize, "swap_remove index out of bounds");
        span.len -= 1;
        let start = span.start as usize;
        self.0[start + at] = self.0[start + span.len as usize];
    }

    /// A copy holding only the lists that `pick` selects from `places`,
    /// each at exact capacity; moves their spans to match.
    fn compacted(&self, places: &mut [Place], pick: fn(&mut Place) -> &mut Span) -> Self {
        let live: usize = places.iter_mut().map(|p| pick(p).len as usize).sum();
        if live == self.0.len() {
            // No slot is unused, so the arena is compact already.
            return Arena(self.0.clone());
        }
        let mut items = Vec::with_capacity(live);
        for place in places {
            let span = pick(place);
            let start = items.len();
            items.extend_from_slice(self.get(*span));
            *span = Span { start: arena_offset(start), len: span.len, cap: span.len };
        }
        Arena(items)
    }
}

/// An adjacency-arena offset as stored in a [`Span`].
fn arena_offset(at: usize) -> u32 {
    u32::try_from(at).expect("netlist pins exceed 4 G")
}

impl Clone for Netlist {
    /// A copy whose adjacency arenas are compacted.
    fn clone(&self) -> Self {
        let mut places = self.places.clone();
        let fanins = self.fanins.compacted(&mut places, |p| &mut p.fanin);
        let fanouts = self.fanouts.compacted(&mut places, |p| &mut p.fanout);
        Netlist {
            name: self.name.clone(),
            kinds: self.kinds.clone(),
            places,
            names: self.names.clone(),
            index: self.index.clone(),
            fanins,
            fanouts,
            test_input: self.test_input,
            test_input_bar: self.test_input_bar,
        }
    }
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

/// A name-arena offset as stored in a name span.
pub(crate) fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("gate names exceed 4 GiB")
}

impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.test_input == other.test_input
            && self.test_input_bar == other.test_input_bar
            && self.gate_count() == other.gate_count()
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
            kinds: Vec::new(),
            places: Vec::new(),
            names: String::new(),
            index: NameIndex::new(),
            fanins: Arena(Vec::new()),
            fanouts: Arena(Vec::new()),
            test_input: None,
            test_input_bar: None,
        }
    }

    /// Bulk build: an empty netlist with room for `gates` gates and
    /// `pins` fanin pins, and no name index yet (see
    /// [`Netlist::adopt_names`]).
    pub(crate) fn with_capacity(name: String, gates: usize, pins: usize) -> Self {
        let mut n = Netlist::new(name);
        n.kinds.reserve_exact(gates);
        n.places.reserve_exact(gates);
        n.fanins.0.reserve_exact(pins);
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
        self.kinds.reserve(additional);
        self.places.reserve(additional);
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
        self.kinds.len()
    }

    /// Iterates over all gate ids in creation order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.kinds.len() as u32).map(GateId)
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
            write!(self.names, "_{}", self.gate_count()).expect("writing to a String");
        }
        self.index.reserve(1);
        let base = self.names.len();
        let mut suffix = self.gate_count();
        loop {
            let candidate = &self.names[start..];
            let hash = self.index.hash(candidate);
            match self
                .index
                .probe(hash, candidate, |id| span(&self.names, self.places[id as usize].name))
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
        assert!(self.gate_count() < FREE as usize, "netlist exceeds {FREE} gates");
        let id = GateId(self.gate_count() as u32);
        self.kinds.push(kind);
        self.places.push(Place {
            name,
            fanin: Span::empty(self.fanins.0.len()),
            fanout: Span::empty(self.fanouts.0.len()),
        });
        id
    }

    /// Bulk build: installs the arena that every gate's name span
    /// points into, with an index that maps each gate's name to it.
    /// Runs once, after the last [`Netlist::push_unindexed`].
    pub(crate) fn adopt_names(&mut self, names: String, index: NameIndex) {
        debug_assert!(self.names.is_empty() && self.index.len == 0, "adopt_names runs once");
        debug_assert_eq!(index.len, self.gate_count(), "the index names every gate");
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

    /// Bulk build: appends `src` to `g`'s fanin list, already checked
    /// by [`Netlist::check_wiring`], and counts the pin in the capacity
    /// of `src`'s still empty fanout list. Gates get their fanins in
    /// gate order, so each fanin list grows in place at the arena's end
    /// and ends at exact size. [`Netlist::wire_fanouts`] then lays out
    /// the mirroring fanout lists.
    #[inline]
    pub(crate) fn push_fanin(&mut self, g: GateId, src: GateId) {
        self.fanins.push(&mut self.places[g.index()].fanin, src);
        self.places[src.index()].fanout.cap += 1;
    }

    /// Bulk build: wires every fanout list, at exact capacity, from the
    /// fanin lists given by [`Netlist::push_fanin`], with one counting
    /// pass that lays the lists out back to back, in gate order. Each
    /// net lists its sinks in (sink, pin) order, as sequential
    /// [`Netlist::connect`] calls in gate order would have. Runs once,
    /// after the last `push_fanin`.
    pub(crate) fn wire_fanouts(&mut self) {
        debug_assert!(self.fanouts.0.is_empty(), "wire_fanouts runs once, on a fresh build");
        let mut total = 0u32;
        for place in &mut self.places {
            let count = place.fanout.cap;
            place.fanout = Span { start: total, len: 0, cap: count };
            total = total.checked_add(count).expect("netlist pins exceed 4 G");
        }
        let items = &mut self.fanouts.0;
        *items = vec![(GateId(0), 0); total as usize];
        for sink in 0..self.places.len() {
            for (pin, &src) in self.fanins.get(self.places[sink].fanin).iter().enumerate() {
                let span = &mut self.places[src.index()].fanout;
                items[(span.start + span.len) as usize] = (GateId(sink as u32), pin as u32);
                span.len += 1;
            }
        }
        debug_assert!(
            self.places.iter().all(|p| p.fanout.len == p.fanout.cap),
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
        let pin = self.fanin(sink).len();
        Netlist::check_wiring((src, self.kind(src)), (sink, self.kind(sink)), pin)?;
        self.fanins.push(&mut self.places[sink.index()].fanin, src);
        self.fanouts.push(&mut self.places[src.index()].fanout, (sink, pin as u32));
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
        self.check_replace(sink, pin, new_src)?;
        let p = pin as usize;
        let old_src = self.fanin(sink)[p];
        if old_src == new_src {
            return Ok(());
        }
        // Remove (sink, pin) from old source's fanout list.
        if let Some(i) = self.fanout(old_src).iter().position(|&e| e == (sink, pin)) {
            self.fanouts.swap_remove(&mut self.places[old_src.index()].fanout, i);
        }
        self.fanins.get_mut(self.places[sink.index()].fanin)[p] = new_src;
        self.fanouts.push(&mut self.places[new_src.index()].fanout, (sink, pin));
        Ok(())
    }

    /// Applies `edits`, each `(sink, pin, new_src)`, in order. The
    /// netlist ends exactly as after one [`Netlist::replace_fanin`] per
    /// edit, every fanin and fanout list in the same order. But where
    /// `replace_fanin` searches the old source's fanout list once per
    /// edit, this reads each old source's list once and then tracks
    /// where every entry sits, so moving `k` entries off one net costs
    /// O(k), not O(k²). Returns how many fanout entries it read.
    ///
    /// # Errors
    /// Fails, before changing anything, with the first edit's error
    /// from [`Netlist::replace_fanin`].
    pub fn replace_fanins(
        &mut self,
        edits: &[(GateId, u32, GateId)],
    ) -> Result<usize, NetlistError> {
        for &(sink, pin, new_src) in edits {
            self.check_replace(sink, pin, new_src)?;
        }
        Ok(self.rewire(edits))
    }

    /// [`Netlist::replace_fanins`] on edits already checked.
    fn rewire(&mut self, edits: &[(GateId, u32, GateId)]) -> usize {
        // Position of every entry on the lists read so far, kept
        // current through each `swap_remove` and push below.
        let mut at: HashMap<(GateId, u32), usize> = HashMap::new();
        let mut read: HashSet<GateId> = HashSet::new();
        let mut scanned = 0;
        for &(sink, pin, new_src) in edits {
            let old_src = self.fanin(sink)[pin as usize];
            if old_src == new_src {
                continue;
            }
            if read.insert(old_src) {
                let outs = self.fanout(old_src);
                scanned += outs.len();
                at.extend(outs.iter().enumerate().map(|(i, &e)| (e, i)));
            }
            if let Some(i) = at.remove(&(sink, pin)) {
                self.fanouts.swap_remove(&mut self.places[old_src.index()].fanout, i);
                if let Some(&moved) = self.fanout(old_src).get(i) {
                    at.insert(moved, i);
                }
            }
            self.fanins.get_mut(self.places[sink.index()].fanin)[pin as usize] = new_src;
            self.fanouts.push(&mut self.places[new_src.index()].fanout, (sink, pin));
            if read.contains(&new_src) {
                at.insert((sink, pin), self.fanout(new_src).len() - 1);
            }
        }
        scanned
    }

    /// [`Netlist::replace_fanin`]'s checks, in its order.
    fn check_replace(&self, sink: GateId, pin: u32, new_src: GateId) -> Result<(), NetlistError> {
        self.check(sink)?;
        self.check(new_src)?;
        if self.kind(new_src) == GateKind::Output {
            return Err(NetlistError::NotASource(new_src));
        }
        if pin as usize >= self.fanin(sink).len() {
            return Err(NetlistError::NoSuchPin { gate: sink, pin });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    #[inline]
    fn check(&self, g: GateId) -> Result<(), NetlistError> {
        if g.index() < self.gate_count() {
            Ok(())
        } else {
            Err(NetlistError::UnknownGate(g))
        }
    }

    /// The kind of gate `g`.
    #[inline]
    pub fn kind(&self, g: GateId) -> GateKind {
        self.kinds[g.index()]
    }

    /// The name of gate `g` (also the name of the net it drives).
    #[inline]
    pub fn gate_name(&self, g: GateId) -> &str {
        span(&self.names, self.places[g.index()].name)
    }

    /// Fanin nets of `g` in pin order.
    #[inline]
    pub fn fanin(&self, g: GateId) -> &[GateId] {
        self.fanins.get(self.places[g.index()].fanin)
    }

    /// Fanout `(sink, pin)` pairs of the net driven by `g`.
    #[inline]
    pub fn fanout(&self, g: GateId) -> &[(GateId, u32)] {
        self.fanouts.get(self.places[g.index()].fanout)
    }

    /// Looks a gate up by name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.index.find(name, |id| span(&self.names, self.places[id as usize].name)).map(GateId)
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
            for (pin, &src) in self.fanin(g).iter().enumerate() {
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
    /// are not touched. The others move in one
    /// [`Netlist::replace_fanins`], so a wide net costs linear time.
    ///
    /// # Errors
    /// Fails if either gate is unknown.
    pub fn splice_on_net(&mut self, target: GateId, new_gate: GateId) -> Result<(), NetlistError> {
        self.check(target)?;
        self.check(new_gate)?;
        let edits: Vec<(GateId, u32, GateId)> = self
            .fanout(target)
            .iter()
            .filter(|&&(s, _)| s != new_gate)
            .map(|&(sink, pin)| (sink, pin, new_gate))
            .collect();
        self.replace_fanins(&edits)?;
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
        if p >= self.fanin(sink).len() {
            return Err(NetlistError::NoSuchPin { gate: sink, pin });
        }
        let orig = self.fanin(sink)[p];
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

    /// [`Netlist::set_scan_source`] for each `(mux, scan_src)` pair, in
    /// order, in one [`Netlist::replace_fanins`]: a chain whose muxes all
    /// hang on one placeholder net moves them off it in linear time.
    /// Returns how many fanout entries it read.
    ///
    /// # Errors
    /// Fails, before changing anything, with the first pair's error from
    /// [`Netlist::set_scan_source`].
    pub fn set_scan_sources(&mut self, pairs: &[(GateId, GateId)]) -> Result<usize, NetlistError> {
        let mut edits = Vec::with_capacity(pairs.len());
        for &(mux, scan_src) in pairs {
            self.check(mux)?;
            if self.kind(mux) != GateKind::Mux {
                return Err(NetlistError::NoSuchPin { gate: mux, pin: 1 });
            }
            self.check_replace(mux, 1, scan_src)?;
            edits.push((mux, 1, scan_src));
        }
        Ok(self.rewire(&edits))
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
        let mut offsets = Vec::with_capacity(self.gate_count());
        let mut fanin_edges = 0usize;
        for place in &self.places {
            offsets.push(fanin_edges);
            fanin_edges += place.fanin.len as usize;
        }
        let mut seen = vec![false; fanin_edges];
        let mut fanout_edges = 0usize;
        for g in self.gate_ids() {
            self.check_arity(g)?;
            for &src in self.fanin(g) {
                self.check(src)?;
            }
            for &(sink, pin) in self.fanout(g) {
                self.check(sink)?;
                if self.fanin(sink).get(pin as usize) != Some(&g) {
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
                for pin in 0..self.fanin(g).len() {
                    if !seen[offsets[g.index()] + pin] {
                        return Err(NetlistError::NoSuchPin { gate: g, pin: pin as u32 });
                    }
                }
            }
        }
        self.check_acyclic()
    }

    /// The part of [`Netlist::validate`] a bulk build can fail: fanin
    /// arities, then combinational cycles. A builder that resolved every
    /// fanin to an existing gate and derived the fanouts from the fanins
    /// has the fanin/fanout mirror by construction, so this returns the
    /// same first error `validate` would.
    pub(crate) fn validate_built(&self) -> Result<(), NetlistError> {
        for g in self.gate_ids() {
            self.check_arity(g)?;
        }
        self.check_acyclic()
    }

    fn check_arity(&self, g: GateId) -> Result<(), NetlistError> {
        let kind = self.kind(g);
        let actual = self.fanin(g).len();
        let expected = match kind.fixed_arity() {
            Some(expected) if actual != expected => expected,
            None if actual == 0 => 1,
            _ => return Ok(()),
        };
        Err(NetlistError::ArityUnderflow { gate: g, kind, expected, actual })
    }

    fn check_acyclic(&self) -> Result<(), NetlistError> {
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

    /// [`Netlist::splice_on_net`] as one [`Netlist::replace_fanin`] per
    /// pin: the oracle for its one-pass move.
    fn splice_by_pins(n: &mut Netlist, target: GateId, new_gate: GateId) {
        let outs: Vec<(GateId, u32)> =
            n.fanout(target).iter().copied().filter(|&(s, _)| s != new_gate).collect();
        for (sink, pin) in outs {
            n.replace_fanin(sink, pin, new_gate).unwrap();
        }
    }

    /// A net `a` with `width` fanout entries of mixed gates and pins.
    fn wide_net(width: usize) -> (Netlist, GateId) {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        for i in 0..width {
            match i % 3 {
                0 => {
                    let g = n.add_gate(GateKind::Inv, format!("i{i}"));
                    n.connect(a, g).unwrap();
                }
                1 => {
                    let g = n.add_gate(GateKind::And, format!("g{i}"));
                    n.connect(b, g).unwrap();
                    n.connect(a, g).unwrap();
                }
                _ => {
                    // Both pins on `a`: two entries for one sink.
                    let g = n.add_gate(GateKind::Xor, format!("x{i}"));
                    n.connect(a, g).unwrap();
                    n.connect(a, g).unwrap();
                }
            }
        }
        (n, a)
    }

    #[test]
    fn splice_matches_the_per_pin_loop_around_a_pin_of_its_own() {
        for width in [1, 2, 7, 40, 301] {
            for own_at in [0, width / 2, width] {
                let (mut n, a) = wide_net(width);
                // `new_gate` takes `a` on two pins of its own, one partway
                // down the list and one at its end; those entries stay on
                // `a`, and the removals move them.
                let t = n.add_input("t");
                let tp = n.add_gate(GateKind::And, "tp");
                n.connect(t, tp).unwrap();
                n.connect(a, tp).unwrap();
                let list = n.fanouts.get_mut(n.places[a.index()].fanout);
                let last = list.len() - 1;
                list.swap(own_at.min(last), last);
                n.connect(a, tp).unwrap();
                let mut oracle = n.clone();
                n.splice_on_net(a, tp).unwrap();
                splice_by_pins(&mut oracle, a, tp);
                assert_eq!(n, oracle, "width {width}, own pin at {own_at}");
                let mut own = n.fanout(a).to_vec();
                own.sort_unstable();
                assert_eq!(own, [(tp, 1), (tp, 2)]);
                n.validate().unwrap();
            }
        }
    }

    #[test]
    fn replace_fanins_matches_one_replace_fanin_per_edit() {
        use rand::prelude::*;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut n, a) = wide_net(30);
            let spare: Vec<GateId> = (0..4).map(|i| n.add_input(format!("s{i}"))).collect();
            let sources: Vec<GateId> = std::iter::once(a).chain(spare).collect();
            // Pins of every non-input gate, edited in a random order to
            // random sources: some pins twice, some back onto the list
            // they came from, some onto lists read later.
            let pins: Vec<(GateId, u32)> = n
                .gate_ids()
                .flat_map(|g| (0..n.fanin(g).len() as u32).map(move |p| (g, p)))
                .collect();
            let edits: Vec<(GateId, u32, GateId)> = (0..rng.gen_range(1..80))
                .map(|_| {
                    let (g, p) = pins[rng.gen_range(0..pins.len())];
                    (g, p, sources[rng.gen_range(0..sources.len())])
                })
                .collect();
            let mut oracle = n.clone();
            for &(sink, pin, src) in &edits {
                oracle.replace_fanin(sink, pin, src).unwrap();
            }
            n.replace_fanins(&edits).unwrap();
            assert_eq!(n, oracle, "seed {seed}");
            n.validate().unwrap();
        }
    }

    #[test]
    fn replace_fanins_reads_each_old_list_once() {
        // The full-scan flow's shape: every scan mux's d0 on one stub.
        let mut n = Netlist::new("t");
        let stub = n.add_input("stub");
        let mut muxes = Vec::new();
        for i in 0..500 {
            let d = n.add_input(format!("d{i}"));
            let ff = n.add_gate(GateKind::Dff, format!("f{i}"));
            n.connect(d, ff).unwrap();
            muxes.push((n.insert_scan_mux_at_pin(ff, 0, stub).unwrap(), ff));
        }
        let si = n.add_input("si");
        let pairs: Vec<(GateId, GateId)> = std::iter::once(si)
            .chain(muxes.iter().map(|&(_, ff)| ff))
            .zip(muxes.iter().map(|&(m, _)| m))
            .map(|(src, mux)| (mux, src))
            .collect();
        let mut oracle = n.clone();
        for &(mux, src) in &pairs {
            oracle.set_scan_source(mux, src).unwrap();
        }
        assert_eq!(n.set_scan_sources(&pairs).unwrap(), 500, "the stub's list, read once");
        assert_eq!(n, oracle);
        assert!(n.fanout(stub).is_empty());
    }

    #[test]
    fn replace_fanins_fails_before_changing_anything() {
        let (mut n, a, b, g) = two_nand();
        let y = n.add_output("y", g).unwrap();
        let c = n.add_input("c");
        let before = n.clone();
        let err = n.replace_fanins(&[(g, 0, c), (g, 1, y)]).unwrap_err();
        assert_eq!(err, NetlistError::NotASource(y));
        assert_eq!(n, before);
        let err = n.set_scan_sources(&[(g, a)]).unwrap_err();
        assert_eq!(err, NetlistError::NoSuchPin { gate: g, pin: 1 });
        assert_eq!(n.fanin(g), &[a, b]);
    }

    #[test]
    fn arena_lists_hold_what_a_vec_per_list_would() {
        use rand::prelude::*;
        let unplaced = Place { name: (0, 0), fanin: Span::empty(0), fanout: Span::empty(0) };
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena: Arena<u32> = Arena(Vec::new());
            let mut places: Vec<Place> = Vec::new();
            let mut oracle: Vec<Vec<u32>> = Vec::new();
            for step in 0..2_000u32 {
                match rng.gen_range(0..10) {
                    0 => {
                        places.push(Place { fanin: Span::empty(arena.0.len()), ..unplaced });
                        oracle.push(Vec::new());
                    }
                    // Two lists in turn, so neither stays at the end.
                    1..=6 if !oracle.is_empty() => {
                        for _ in 0..2 {
                            let i = rng.gen_range(0..oracle.len());
                            arena.push(&mut places[i].fanin, step);
                            oracle[i].push(step);
                        }
                    }
                    7 | 8 if !oracle.is_empty() => {
                        let i = rng.gen_range(0..oracle.len());
                        if !oracle[i].is_empty() {
                            let at = rng.gen_range(0..oracle[i].len());
                            arena.swap_remove(&mut places[i].fanin, at);
                            oracle[i].swap_remove(at);
                        }
                    }
                    _ => arena = arena.compacted(&mut places, |p| &mut p.fanin),
                }
                for (place, list) in places.iter().zip(&oracle) {
                    assert_eq!(arena.get(place.fanin), &list[..], "seed {seed}, step {step}");
                }
            }
            let compact = arena.compacted(&mut places, |p| &mut p.fanin);
            let live: usize = oracle.iter().map(Vec::len).sum();
            assert_eq!(compact.0.len(), live, "a compacted arena has no unused slot");
        }
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

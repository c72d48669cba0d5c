//! The netlist's name index and bulk build, from outside the crate.
//!
//! The index is checked against a `HashMap` model over random edit
//! sequences. `NetlistBuilder::finish`, which builds in bulk, is
//! checked against the reference builder in `blif_oracle`, which adds
//! and connects gates one at a time: on bad declarations both must
//! return the same first error.

// Only the reference `NetlistBuilder` is used here.
#[allow(dead_code)]
mod blif_oracle;

use std::collections::HashMap;

use proptest::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use scanpath::netlist::{GateId, GateKind, Netlist, NetlistBuilder, NetlistError};

/// Kinds the edit sequences add by name.
const KINDS: [GateKind; 7] = [
    GateKind::Input,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Inv,
    GateKind::Buf,
    GateKind::Dff,
];

/// A short name that often collides: a letter, maybe with the `_<n>`
/// suffix `add_gate` uses to rename a duplicate.
fn pooled_name(rng: &mut StdRng) -> String {
    let letter = ['a', 'b', 'c', 'd', 'e', 'f'][rng.gen_range(0..6usize)];
    if rng.gen_bool(0.5) {
        letter.to_string()
    } else {
        format!("{letter}_{}", rng.gen_range(0..64usize))
    }
}

/// A netlist under random edits, with a model of the names it holds.
struct Tracked {
    n: Netlist,
    model: HashMap<String, GateId>,
    capacity: usize,
    /// Times the name index has grown past a non-empty table.
    growths: u32,
}

impl Tracked {
    fn new() -> Self {
        Tracked { n: Netlist::new("edits"), model: HashMap::new(), capacity: 0, growths: 0 }
    }

    /// Adds every gate created since the last call to the model; each
    /// must carry a name the model does not hold yet.
    fn record_new_gates(&mut self) {
        for i in self.model.len()..self.n.gate_count() {
            let g = GateId::from_index(i);
            let name = self.n.gate_name(g).to_string();
            assert!(!name.is_empty(), "{g} has an empty name");
            assert!(self.model.insert(name.clone(), g).is_none(), "name `{name}` given twice");
        }
        let capacity = self.n.name_capacity();
        assert!(capacity >= self.n.gate_count(), "the index holds more names than its capacity");
        if self.capacity > 0 && capacity > self.capacity {
            // The index grows by doubling.
            self.growths += (capacity / self.capacity).trailing_zeros();
        }
        self.capacity = capacity;
    }

    /// A gate that can drive fanouts (anything but an output port).
    fn source(&self, rng: &mut StdRng) -> Option<GateId> {
        let sources: Vec<GateId> =
            self.n.gate_ids().filter(|&g| self.n.kind(g) != GateKind::Output).collect();
        (!sources.is_empty()).then(|| sources[rng.gen_range(0..sources.len())])
    }

    /// Adds a gate named `name` and checks the name it was given: the
    /// requested one when free, else the requested one plus `_<n>`.
    fn add_named(&mut self, kind: GateKind, name: &str) {
        let g = self.n.add_gate(kind, name);
        let got = self.n.gate_name(g);
        let base = if name.is_empty() {
            format!("{}_{}", kind.label().to_lowercase(), g.index())
        } else {
            name.to_string()
        };
        if self.model.contains_key(&base) {
            let suffix = got.strip_prefix(&base).and_then(|s| s.strip_prefix('_'));
            assert!(
                suffix.is_some_and(|s| s.parse::<usize>().is_ok()),
                "taken `{base}` renamed to `{got}`"
            );
        } else {
            assert_eq!(got, base, "a free name is kept");
        }
    }

    /// One random edit.
    fn edit(&mut self, rng: &mut StdRng) {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        match rng.gen_range(0..9u32) {
            0 | 1 => {
                let name = pooled_name(rng);
                self.add_named(kind, &name);
            }
            2 if !self.model.is_empty() => {
                let g = GateId::from_index(rng.gen_range(0..self.n.gate_count()));
                let name = self.n.gate_name(g).to_string();
                self.add_named(kind, &name);
            }
            3 => self.add_named(kind, ""),
            4 if !self.model.is_empty() => {
                // The very name the next rename of `g`'s name would try.
                let g = GateId::from_index(rng.gen_range(0..self.n.gate_count()));
                let name = format!("{}_{}", self.n.gate_name(g), self.n.gate_count());
                self.add_named(kind, &name);
            }
            5 => {
                if let Some(target) = self.source(rng) {
                    if rng.gen_bool(0.5) {
                        self.n.insert_and_test_point(target).expect("AND test point");
                    } else {
                        self.n.insert_or_test_point(target).expect("OR test point");
                    }
                }
            }
            6 => {
                if let (Some(target), Some(scan)) = (self.source(rng), self.source(rng)) {
                    self.n.insert_scan_mux(target, scan).expect("scan mux");
                }
            }
            7 => {
                let sinks: Vec<GateId> =
                    self.n.gate_ids().filter(|&g| !self.n.fanin(g).is_empty()).collect();
                if let (false, Some(scan)) = (sinks.is_empty(), self.source(rng)) {
                    let sink = sinks[rng.gen_range(0..sinks.len())];
                    let pin = rng.gen_range(0..self.n.fanin(sink).len()) as u32;
                    self.n.insert_scan_mux_at_pin(sink, pin, scan).expect("scan mux at pin");
                }
            }
            _ => {
                if let (Some(a), Some(b)) = (self.source(rng), self.source(rng)) {
                    let g = self.n.add_gate(GateKind::And, pooled_name(rng));
                    self.n.connect(a, g).expect("AND takes any fanin");
                    self.n.connect(b, g).expect("AND takes any fanin");
                    if rng.gen_bool(0.25) {
                        self.n.add_output(pooled_name(rng), g).expect("output of an AND");
                    }
                }
            }
        }
        self.record_new_gates();
    }
}

/// Checks `n`'s index against `model`, the names `n` must hold: every
/// gate is found under its own name, names are distinct, and names
/// `model` lacks (pooled ones, the empty name, and `absent`) are not
/// found.
fn check_index<'a>(
    n: &Netlist,
    model: &HashMap<String, GateId>,
    absent: impl IntoIterator<Item = &'a str>,
    rng: &mut StdRng,
) {
    assert_eq!(model.len(), n.gate_count(), "one distinct name per gate");
    for g in n.gate_ids() {
        let name = n.gate_name(g);
        assert_eq!(n.find(name), Some(g), "`{name}` finds its gate");
        assert_eq!(model.get(name), Some(&g), "`{name}` is the modelled name of {g}");
    }
    let pooled: Vec<String> = (0..16).map(|_| pooled_name(rng)).collect();
    let absent: Vec<&str> = absent.into_iter().collect();
    let probes = pooled.iter().map(String::as_str).chain(["", "zz"]).chain(absent);
    for name in probes.filter(|name| !model.contains_key(*name)) {
        assert_eq!(n.find(name), None, "absent `{name}` is not found");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random edit sequences keep the index exact, through growth and
    /// across a clone taken midway.
    #[test]
    fn name_index_matches_a_hashmap_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = rng.gen_range(48..160usize);
        let mut t = Tracked::new();
        let mut snapshot = None;
        for step in 0..steps {
            t.edit(&mut rng);
            check_index(&t.n, &t.model, [], &mut rng);
            if step == steps / 2 {
                let copy = t.n.clone();
                prop_assert!(copy == t.n, "a clone equals its original");
                snapshot = Some((copy, t.model.clone()));
            }
        }
        prop_assert!(t.growths >= 3, "only {} index growths in {} gates", t.growths, t.n.gate_count());

        // The clone kept its own index: it finds exactly the names it
        // had, none the original took since, and it can take those.
        let (mut copy, copy_model) = snapshot.expect("a clone was taken");
        prop_assert!(copy != t.n, "the original moved on after the clone");
        let later: Vec<&str> = t
            .n
            .gate_ids()
            .skip(copy.gate_count())
            .map(|g| t.n.gate_name(g))
            .filter(|name| !copy_model.contains_key(*name))
            .collect();
        check_index(&copy, &copy_model, later.iter().copied(), &mut rng);
        if let Some(&name) = later.first() {
            let g = copy.add_gate(GateKind::Buf, name);
            prop_assert_eq!(copy.gate_name(g), name);
            prop_assert_eq!(copy.find(name), Some(g));
        }
    }
}

/// One builder declaration, replayed on both builders.
#[derive(Clone, Copy)]
enum Decl {
    Input(&'static str),
    Gate(GateKind, &'static str, &'static [&'static str]),
    Output(&'static str, &'static str),
}

/// `finish` on both builders, which must agree; returns the result.
fn finish_both(decls: &[Decl]) -> Result<Netlist, NetlistError> {
    let mut bulk = NetlistBuilder::new("decls");
    let mut reference = blif_oracle::NetlistBuilder::new("decls");
    for &decl in decls {
        match decl {
            Decl::Input(name) => {
                bulk.input(name);
                reference.input(name);
            }
            Decl::Gate(kind, name, fanins) => {
                bulk.gate(kind, name, fanins);
                reference.gate(kind, name, fanins);
            }
            Decl::Output(name, src) => {
                bulk.output(name, src);
                reference.output(name, src);
            }
        }
    }
    let got = bulk.finish();
    assert_eq!(got, reference.finish(), "bulk and sequential builds disagree");
    got
}

#[test]
fn bulk_build_reports_the_first_error_sequential_connects_would() {
    use Decl::{Gate, Input, Output};
    use GateKind::{And, Const0, Inv, Output as Port};
    type Expected = fn(&NetlistError) -> bool;
    let cases: &[(&str, &[Decl], Expected)] = &[
        ("input declared twice", &[Input("a"), Input("a")], |e| {
            *e == NetlistError::DuplicateName("a".into())
        }),
        ("gate reusing an input's name", &[Input("a"), Gate(Inv, "a", &["a"])], |e| {
            *e == NetlistError::DuplicateName("a".into())
        }),
        (
            // The empty name of gate 1 becomes `and_1`.
            "gate reusing a generated name",
            &[Input("a"), Gate(And, "", &["a"]), Gate(And, "and_1", &["a"])],
            |e| *e == NetlistError::DuplicateName("and_1".into()),
        ),
        (
            "duplicate name before a bad fanin",
            &[Input("a"), Gate(Inv, "g", &["nope"]), Gate(Inv, "g", &["a"])],
            |e| matches!(e, NetlistError::DuplicateName(_)),
        ),
        ("unknown fanin", &[Input("a"), Gate(Inv, "g", &["nope"])], |e| {
            *e == NetlistError::UnknownName("nope".into())
        }),
        ("empty gate name", &[Input("a"), Gate(Inv, "", &["a"])], |e| {
            *e == NetlistError::UnknownName(String::new())
        }),
        ("empty fanin name", &[Input("a"), Gate(And, "g", &["a", ""])], |e| {
            *e == NetlistError::UnknownName(String::new())
        }),
        ("output driven by an unknown net", &[Input("a"), Output("o", "nope")], |e| {
            *e == NetlistError::UnknownName("nope".into())
        }),
        (
            "fanin naming a declared output gate",
            &[Input("a"), Gate(Port, "o", &["a"]), Gate(Inv, "g", &["o"])],
            |e| matches!(e, NetlistError::NotASource(_)),
        ),
        (
            "output port driven by a declared output gate",
            &[Input("a"), Gate(Port, "o", &["a"]), Output("p", "o")],
            |e| matches!(e, NetlistError::NotASource(_)),
        ),
        ("fanin into a constant", &[Input("a"), Gate(Const0, "z", &["a"])], |e| {
            matches!(e, NetlistError::NotASink(_))
        }),
        (
            "fanin from an output into a constant",
            &[Input("a"), Gate(Port, "o", &["a"]), Gate(Const0, "z", &["o"])],
            |e| matches!(e, NetlistError::NotASource(_)),
        ),
        ("inverter with two fanins", &[Input("a"), Input("b"), Gate(Inv, "i", &["a", "b"])], |e| {
            matches!(e, NetlistError::ArityExceeded { arity: 1, .. })
        }),
        (
            "unknown name after the arity is already exceeded",
            &[Input("a"), Gate(Inv, "i", &["a", "a", "nope"])],
            |e| matches!(e, NetlistError::ArityExceeded { .. }),
        ),
        (
            "arity error in an earlier gate than an unknown name",
            &[Input("a"), Gate(Inv, "i", &["a", "a"]), Gate(Inv, "j", &["nope"])],
            |e| matches!(e, NetlistError::ArityExceeded { .. }),
        ),
        ("gate with no fanins", &[Input("a"), Gate(And, "g", &[]), Output("o", "a")], |e| {
            matches!(e, NetlistError::ArityUnderflow { .. })
        }),
    ];
    for (label, decls, expected) in cases {
        match finish_both(decls) {
            Ok(_) => panic!("{label}: built"),
            Err(e) => assert!(expected(&e), "{label}: unexpected {e:?}"),
        }
    }
}

#[test]
fn bulk_build_wires_and_names_like_sequential_connects() {
    use Decl::{Gate, Input, Output};
    use GateKind::{And, Dff, Inv, Nand};
    let n = finish_both(&[
        Gate(Nand, "g", &["a", "q", "a"]),
        Input("a"),
        Gate(Dff, "q", &["g"]),
        Gate(Inv, "i", &["g"]),
        Gate(And, "h", &["a", "g"]),
        Output("g", "g"),
        Output("g__po", "h"),
        Output("", "q"),
    ])
    .expect("declarations build");
    let find = |name| n.find(name).unwrap_or_else(|| panic!("`{name}` is found"));
    let (a, g, q, i, h) = (find("a"), find("g"), find("q"), find("i"), find("h"));
    let ports: Vec<&str> = n.outputs().iter().map(|&o| n.gate_name(o)).collect();
    assert_eq!(ports, ["g__po", "g__po__po", "output_7"], "port names made unique");
    let port = n.outputs()[0];
    assert_eq!(n.fanout(a), &[(g, 0), (g, 2), (h, 0)], "fanouts in (sink, pin) order");
    assert_eq!(n.fanout(g), &[(q, 0), (i, 0), (h, 1), (port, 0)]);
}

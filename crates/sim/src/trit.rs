//! The three-valued (0 / 1 / unknown) logic domain.

use std::fmt;
use std::ops::Not;
use tpi_netlist::GateKind;

/// A ternary logic value: `Zero`, `One` or unknown (`X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Trit {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / undetermined.
    #[default]
    X,
}

impl Trit {
    /// True when the value is determined (not `X`).
    #[inline]
    pub fn is_known(self) -> bool {
        self != Trit::X
    }

    /// Converts a determined value to `bool`; `None` for `X`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Trit::Zero => Some(false),
            Trit::One => Some(true),
            Trit::X => None,
        }
    }

    /// Ternary AND.
    #[inline]
    pub fn and(self, other: Trit) -> Trit {
        match (self, other) {
            (Trit::Zero, _) | (_, Trit::Zero) => Trit::Zero,
            (Trit::One, Trit::One) => Trit::One,
            _ => Trit::X,
        }
    }

    /// Ternary OR.
    #[inline]
    pub fn or(self, other: Trit) -> Trit {
        match (self, other) {
            (Trit::One, _) | (_, Trit::One) => Trit::One,
            (Trit::Zero, Trit::Zero) => Trit::Zero,
            _ => Trit::X,
        }
    }

    /// Ternary XOR.
    #[inline]
    pub fn xor(self, other: Trit) -> Trit {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Trit::from(a ^ b),
            _ => Trit::X,
        }
    }
}

impl From<bool> for Trit {
    #[inline]
    fn from(b: bool) -> Self {
        if b {
            Trit::One
        } else {
            Trit::Zero
        }
    }
}

impl Not for Trit {
    type Output = Trit;
    #[inline]
    fn not(self) -> Trit {
        match self {
            Trit::Zero => Trit::One,
            Trit::One => Trit::Zero,
            Trit::X => Trit::X,
        }
    }
}

impl fmt::Display for Trit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Trit::Zero => "0",
            Trit::One => "1",
            Trit::X => "X",
        })
    }
}

/// Ternary evaluation of one gate from its input values.
///
/// Flip-flops, inputs and output ports evaluate to `X` — their values are
/// not a combinational function of their fanins (FF outputs carry shifted
/// state; inputs are free). `Const0`/`Const1` evaluate to themselves.
///
/// A MUX (`[sel, d0, d1]`) with unknown select still evaluates to a known
/// value when both data inputs agree.
///
/// ```
/// use tpi_sim::{eval_gate, Trit};
/// use tpi_netlist::GateKind;
/// assert_eq!(eval_gate(GateKind::Nand, &[Trit::Zero, Trit::X]), Trit::One);
/// assert_eq!(eval_gate(GateKind::Mux, &[Trit::X, Trit::One, Trit::One]), Trit::One);
/// ```
pub fn eval_gate(kind: GateKind, inputs: &[Trit]) -> Trit {
    eval_by(kind, inputs.len(), |j| inputs[j])
}

/// Allocation-free form of [`eval_gate`] for engines that keep values in
/// their own storage: `input(j)` yields the value on pin `j` of a gate
/// with `arity` fanins.
///
/// ```
/// use tpi_sim::{eval_by, Trit};
/// use tpi_netlist::GateKind;
/// let values = [Trit::One, Trit::X, Trit::Zero];
/// let fanin = [0, 2];
/// assert_eq!(eval_by(GateKind::Or, fanin.len(), |j| values[fanin[j]]), Trit::One);
/// ```
#[inline]
pub fn eval_by(kind: GateKind, arity: usize, input: impl Fn(usize) -> Trit) -> Trit {
    let and = || (0..arity).fold(Trit::One, |a, j| a.and(input(j)));
    let or = || (0..arity).fold(Trit::Zero, |a, j| a.or(input(j)));
    match kind {
        GateKind::And => and(),
        GateKind::Or => or(),
        GateKind::Nand => !and(),
        GateKind::Nor => !or(),
        GateKind::Inv => !input(0),
        GateKind::Buf => input(0),
        GateKind::Xor => input(0).xor(input(1)),
        GateKind::Xnor => !input(0).xor(input(1)),
        GateKind::Mux => match input(0) {
            Trit::Zero => input(1),
            Trit::One => input(2),
            Trit::X => {
                let (d0, d1) = (input(1), input(2));
                if d0 == d1 {
                    d0
                } else {
                    Trit::X
                }
            }
        },
        GateKind::Const0 => Trit::Zero,
        GateKind::Const1 => Trit::One,
        GateKind::Input | GateKind::Output | GateKind::Dff => Trit::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Trit; 3] = [Trit::Zero, Trit::One, Trit::X];

    #[test]
    fn and_or_truth_tables() {
        assert_eq!(Trit::Zero.and(Trit::X), Trit::Zero);
        assert_eq!(Trit::One.and(Trit::X), Trit::X);
        assert_eq!(Trit::One.or(Trit::X), Trit::One);
        assert_eq!(Trit::Zero.or(Trit::X), Trit::X);
        for a in ALL {
            assert_eq!(a.and(Trit::One), a);
            assert_eq!(a.or(Trit::Zero), a);
        }
    }

    #[test]
    fn ops_are_commutative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                assert_eq!(a.xor(b), b.xor(a));
            }
        }
    }

    #[test]
    fn not_is_involutive_on_known() {
        assert_eq!(!!Trit::Zero, Trit::Zero);
        assert_eq!(!!Trit::One, Trit::One);
        assert_eq!(!Trit::X, Trit::X);
    }

    #[test]
    fn controlling_values_dominate_in_eval() {
        assert_eq!(eval_gate(GateKind::And, &[Trit::Zero, Trit::X, Trit::X]), Trit::Zero);
        assert_eq!(eval_gate(GateKind::Nand, &[Trit::Zero, Trit::X]), Trit::One);
        assert_eq!(eval_gate(GateKind::Or, &[Trit::One, Trit::X]), Trit::One);
        assert_eq!(eval_gate(GateKind::Nor, &[Trit::One, Trit::X]), Trit::Zero);
    }

    #[test]
    fn xor_requires_both_known() {
        assert_eq!(eval_gate(GateKind::Xor, &[Trit::One, Trit::X]), Trit::X);
        assert_eq!(eval_gate(GateKind::Xor, &[Trit::One, Trit::Zero]), Trit::One);
        assert_eq!(eval_gate(GateKind::Xnor, &[Trit::One, Trit::One]), Trit::One);
    }

    #[test]
    fn mux_select_semantics() {
        // [sel, d0, d1]
        assert_eq!(eval_gate(GateKind::Mux, &[Trit::Zero, Trit::One, Trit::Zero]), Trit::One);
        assert_eq!(eval_gate(GateKind::Mux, &[Trit::One, Trit::One, Trit::Zero]), Trit::Zero);
        assert_eq!(eval_gate(GateKind::Mux, &[Trit::X, Trit::One, Trit::Zero]), Trit::X);
        assert_eq!(eval_gate(GateKind::Mux, &[Trit::X, Trit::Zero, Trit::Zero]), Trit::Zero);
    }

    #[test]
    fn sequential_and_port_gates_evaluate_to_x() {
        assert_eq!(eval_gate(GateKind::Dff, &[Trit::One]), Trit::X);
        assert_eq!(eval_gate(GateKind::Input, &[]), Trit::X);
    }

    #[test]
    fn monotone_in_definedness() {
        // Replacing an X input by a known value never turns a known
        // output back to X (fundamental for implication soundness).
        let kinds = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Nor, GateKind::Xor];
        for k in kinds {
            for a in ALL {
                for b in [Trit::Zero, Trit::One] {
                    let before = eval_gate(k, &[a, Trit::X]);
                    let after = eval_gate(k, &[a, b]);
                    if before.is_known() {
                        assert_eq!(before, after, "{k} {a} X->{b}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod consistency_tests {
    use super::*;

    fn b2t(b: bool) -> Trit {
        Trit::from(b)
    }

    fn bool_eval(kind: GateKind, ins: &[bool]) -> Option<bool> {
        Some(match kind {
            GateKind::And => ins.iter().all(|&x| x),
            GateKind::Or => ins.iter().any(|&x| x),
            GateKind::Nand => !ins.iter().all(|&x| x),
            GateKind::Nor => !ins.iter().any(|&x| x),
            GateKind::Inv => !ins[0],
            GateKind::Buf => ins[0],
            GateKind::Xor => ins[0] ^ ins[1],
            GateKind::Xnor => !(ins[0] ^ ins[1]),
            GateKind::Mux => {
                if ins[0] {
                    ins[2]
                } else {
                    ins[1]
                }
            }
            _ => return None,
        })
    }

    /// On fully-known inputs, ternary evaluation must agree exactly with
    /// two-valued boolean semantics — exhaustively, for every kind and
    /// arity up to 3.
    #[test]
    fn ternary_agrees_with_boolean_on_known_inputs() {
        for kind in GateKind::ALL {
            let arities: Vec<usize> = match kind.fixed_arity() {
                Some(0) => continue,
                Some(a) => vec![a],
                None => vec![1, 2, 3],
            };
            for arity in arities {
                for m in 0..(1u32 << arity) {
                    let bits: Vec<bool> = (0..arity).map(|i| m >> i & 1 == 1).collect();
                    let Some(expect) = bool_eval(kind, &bits) else { continue };
                    let trits: Vec<Trit> = bits.iter().map(|&b| b2t(b)).collect();
                    assert_eq!(eval_gate(kind, &trits), b2t(expect), "{kind} on {bits:?}");
                }
            }
        }
    }

    /// Pessimism check: a known ternary result must be the value the
    /// boolean function takes for EVERY completion of the X inputs.
    #[test]
    fn known_ternary_results_are_sound_for_all_completions() {
        let kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Mux,
        ];
        for kind in kinds {
            let arity = kind.fixed_arity().unwrap_or(3);
            // Enumerate all ternary input vectors.
            let mut idx = vec![0u8; arity];
            loop {
                let trits: Vec<Trit> = idx
                    .iter()
                    .map(|&d| match d {
                        0 => Trit::Zero,
                        1 => Trit::One,
                        _ => Trit::X,
                    })
                    .collect();
                let out = eval_gate(kind, &trits);
                if let Some(expect) = out.to_bool() {
                    // Every completion of the Xs must give `expect`.
                    let x_positions: Vec<usize> =
                        (0..arity).filter(|&i| trits[i] == Trit::X).collect();
                    for m in 0..(1u32 << x_positions.len()) {
                        let mut bits: Vec<bool> =
                            trits.iter().map(|t| t.to_bool().unwrap_or(false)).collect();
                        for (j, &p) in x_positions.iter().enumerate() {
                            bits[p] = m >> j & 1 == 1;
                        }
                        assert_eq!(
                            bool_eval(kind, &bits),
                            Some(expect),
                            "{kind}: ternary said {expect} but completion {bits:?} disagrees"
                        );
                    }
                }
                // Increment the base-3 counter; stop on overflow.
                let mut i = 0;
                while i < arity {
                    idx[i] += 1;
                    if idx[i] < 3 {
                        break;
                    }
                    idx[i] = 0;
                    i += 1;
                }
                if i == arity {
                    break;
                }
            }
        }
    }
}

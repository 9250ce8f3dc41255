//! The checker's abstract domains and the symbolic values that carry
//! them through function summaries.
//!
//! The concrete lattices — iterator [`Validity`], end-position knowledge
//! ([`AtEnd`]) and [`Sortedness`] — are tiny and finite, so branch joins
//! and loop fixpoints settle in a handful of passes.
//!
//! A function body is analyzed once per *calling context* (parameter
//! kinds + aliasing), not once per call site — so the analysis cannot
//! know the caller's sortedness/validity/end-position facts. Those flow
//! through the body symbolically: a [`Sym<T>`] is either a concrete
//! lattice value, a reference to the entry value of parameter `i`, or
//! the join of an entry value with a concrete one. Checks that land on a
//! symbolic value are *deferred* into the summary and resolved at each
//! call site against the caller's actual abstract state.
//!
//! The three-variant form is closed under the operations the abstract
//! interpreter needs: pathwise join (branch merges), composition
//! (applying a callee summary whose `Entry` refers to *its* parameters
//! to the caller's current symbolic values), and resolution against a
//! concrete entry environment. Joining references to *different*
//! parameters is the one shape the form cannot express; it widens to
//! `Const(TOP)`, which is sound (TOP over-approximates every value).

use crate::ir::ContainerKind;

/// Is the iterator usable at all?
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Validity {
    /// Definitely valid.
    Valid,
    /// Valid on some paths, singular on others.
    MaybeSingular,
    /// Definitely singular (invalidated or never initialized).
    Singular,
}

/// Does the iterator sit at the past-the-end position?
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AtEnd {
    /// Definitely dereferenceable (not at end).
    No,
    /// Unknown.
    Maybe,
    /// Definitely at the end.
    Yes,
}

/// The sortedness property installed/consumed by the algorithm handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sortedness {
    /// Known sorted (post-`sort`).
    Sorted,
    /// Known modified since any sort.
    Unsorted,
    /// No information.
    Unknown,
}

/// A finite join-semilattice with a greatest element.
pub trait SemiLattice: Copy + Eq + std::hash::Hash + std::fmt::Debug {
    /// The top (most uncertain) element — absorbing under join.
    const TOP: Self;
    /// The identity element of join, if the lattice has one. Used to
    /// normalize `EntryJoin(i, BOTTOM)` back to `Entry(i)`.
    const BOTTOM: Option<Self>;
    /// Least upper bound.
    fn join(self, other: Self) -> Self;
}

impl SemiLattice for Validity {
    const TOP: Self = Validity::MaybeSingular;
    const BOTTOM: Option<Self> = None;
    fn join(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            Self::TOP
        }
    }
}

impl SemiLattice for AtEnd {
    const TOP: Self = AtEnd::Maybe;
    const BOTTOM: Option<Self> = None;
    fn join(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            Self::TOP
        }
    }
}

impl SemiLattice for Sortedness {
    const TOP: Self = Sortedness::Unknown;
    const BOTTOM: Option<Self> = None;
    fn join(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            Self::TOP
        }
    }
}

/// `maybe_empty` is a boolean OR-lattice: `true` = "may be empty".
impl SemiLattice for bool {
    const TOP: Self = true;
    const BOTTOM: Option<Self> = Some(false);
    fn join(self, other: Self) -> Self {
        self || other
    }
}

/// Three-valued "did it happen" lattice for summary effects
/// (invalidation of a container argument, erasure of an iterator
/// argument's position): `No` ⊑ {`Must`} ⊑ `May`, with `No ⊔ Must = May`
/// (happened on one path only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lat3 {
    /// Did not happen on any path.
    No,
    /// Happened on some paths.
    May,
    /// Happened on every path.
    Must,
}

impl Lat3 {
    /// Pathwise join.
    pub fn join(self, other: Lat3) -> Lat3 {
        if self == other {
            self
        } else {
            Lat3::May
        }
    }

    /// Sequencing along one path: a later event of strength `ev` lands
    /// on top of what already happened. `Must` is absorbing (already
    /// definitely happened, or definitely happens now); otherwise any
    /// `May` leaves `May`.
    pub fn seq(self, ev: Lat3) -> Lat3 {
        match (self, ev) {
            (Lat3::Must, _) | (_, Lat3::Must) => Lat3::Must,
            (Lat3::No, Lat3::No) => Lat3::No,
            _ => Lat3::May,
        }
    }
}

/// A symbolic lattice value over the entry environment of the enclosing
/// function: concrete, a parameter's entry value, or entry-joined-with-
/// concrete.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sym<T: SemiLattice> {
    /// The entry value of parameter `i`, unchanged.
    Entry(u8),
    /// A concrete value, independent of the caller.
    Const(T),
    /// `entry(i) ⊔ t` — the entry value degraded by a concrete join.
    EntryJoin(u8, T),
}

impl<T: SemiLattice> Sym<T> {
    /// Canonical form: `EntryJoin(i, TOP)` is `Const(TOP)`;
    /// `EntryJoin(i, BOTTOM)` is `Entry(i)`.
    fn norm(self) -> Sym<T> {
        match self {
            Sym::EntryJoin(_, t) if t == T::TOP => Sym::Const(T::TOP),
            Sym::EntryJoin(i, t) if Some(t) == T::BOTTOM => Sym::Entry(i),
            s => s,
        }
    }

    /// Pathwise join (branch merge). Exact except when two *different*
    /// parameters meet, which widens to `Const(TOP)`.
    pub fn join(self, other: Sym<T>) -> Sym<T> {
        use Sym::*;
        match (self, other) {
            (Entry(i), Entry(j)) if i == j => Entry(i),
            (Entry(_), Entry(_)) => Const(T::TOP),
            (Entry(i), Const(t)) | (Const(t), Entry(i)) => EntryJoin(i, t).norm(),
            (Entry(i), EntryJoin(j, t)) | (EntryJoin(j, t), Entry(i)) => {
                if i == j {
                    EntryJoin(i, t)
                } else {
                    Const(T::TOP)
                }
            }
            (Const(s), Const(t)) => Const(s.join(t)),
            (Const(s), EntryJoin(i, t)) | (EntryJoin(i, t), Const(s)) => {
                EntryJoin(i, s.join(t)).norm()
            }
            (EntryJoin(i, s), EntryJoin(j, t)) => {
                if i == j {
                    EntryJoin(i, s.join(t)).norm()
                } else {
                    Const(T::TOP)
                }
            }
        }
    }

    /// Resolve against a concrete entry environment (`entry[i]` = the
    /// caller's value for parameter `i` at the call point).
    pub fn resolve(self, entry: &[T]) -> T {
        match self {
            Sym::Entry(i) => entry[i as usize],
            Sym::Const(t) => t,
            Sym::EntryJoin(i, t) => entry[i as usize].join(t),
        }
    }

    /// Compose a callee-relative value with the caller's current
    /// symbolic values: `inner(i)` is the caller's symbolic value bound
    /// to the callee's parameter `i` at the call site. The result is
    /// caller-relative.
    pub fn compose(self, inner: impl Fn(u8) -> Sym<T>) -> Sym<T> {
        match self {
            Sym::Entry(i) => inner(i),
            Sym::Const(t) => Sym::Const(t),
            Sym::EntryJoin(i, t) => inner(i).join(Sym::Const(t)),
        }
    }

    /// The concrete value, if the symbol does not depend on any entry.
    pub fn as_const(self) -> Option<T> {
        match self {
            Sym::Const(t) => Some(t),
            _ => None,
        }
    }
}

/// Symbolic encoding of the "begin() of a maybe-empty container is
/// maybe-at-end" rule: exact when emptiness is concrete,
/// conservative (`Maybe`) when it depends on the caller.
pub fn at_end_of_begin(maybe_empty: Sym<bool>) -> Sym<AtEnd> {
    match maybe_empty.as_const() {
        Some(true) | None => Sym::Const(AtEnd::Maybe),
        Some(false) => Sym::Const(AtEnd::No),
    }
}

/// The `Advance` transfer on end-position knowledge: `Yes` stays
/// `Yes`, everything else becomes `Maybe`. Conservative (`Maybe`) when
/// symbolic — `Maybe` is the lattice top, so this over-approximates.
pub fn at_end_after_advance(at_end: Sym<AtEnd>) -> Sym<AtEnd> {
    match at_end.as_const() {
        Some(AtEnd::Yes) => Sym::Const(AtEnd::Yes),
        Some(_) | None => Sym::Const(AtEnd::Maybe),
    }
}

/// Invalidation policy: which container kinds invalidate *every*
/// iterator into the container on structural mutation.
pub fn kind_invalidates_all(kind: ContainerKind) -> bool {
    matches!(kind, ContainerKind::Vector | ContainerKind::Deque)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_join_is_commutative_and_absorbing() {
        use Validity::*;
        assert_eq!(Valid.join(Valid), Valid);
        assert_eq!(Valid.join(Singular), MaybeSingular);
        assert_eq!(Singular.join(Valid), MaybeSingular);
        assert_eq!(Singular.join(Singular), Singular);
        assert_eq!(MaybeSingular.join(Valid), MaybeSingular);
    }

    #[test]
    fn at_end_and_sortedness_joins() {
        assert_eq!(AtEnd::No.join(AtEnd::Yes), AtEnd::Maybe);
        assert_eq!(AtEnd::Maybe.join(AtEnd::Maybe), AtEnd::Maybe);
        assert_eq!(
            Sortedness::Sorted.join(Sortedness::Unsorted),
            Sortedness::Unknown
        );
        assert_eq!(
            Sortedness::Sorted.join(Sortedness::Sorted),
            Sortedness::Sorted
        );
    }

    #[test]
    fn join_is_commutative_on_samples() {
        use Sym::*;
        let samples: Vec<Sym<Validity>> = vec![
            Entry(0),
            Entry(1),
            Const(Validity::Valid),
            Const(Validity::Singular),
            Const(Validity::MaybeSingular),
            EntryJoin(0, Validity::Singular),
            EntryJoin(1, Validity::Valid),
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(a.join(b), b.join(a), "{a:?} vs {b:?}");
                // Idempotent too.
                assert_eq!(a.join(a), a);
            }
        }
    }

    #[test]
    fn join_resolution_over_approximates_pointwise_join() {
        use Sym::*;
        let samples: Vec<Sym<AtEnd>> = vec![
            Entry(0),
            Const(AtEnd::No),
            Const(AtEnd::Yes),
            EntryJoin(0, AtEnd::Yes),
            Entry(1),
        ];
        let entries = [
            [AtEnd::No, AtEnd::No],
            [AtEnd::Yes, AtEnd::No],
            [AtEnd::Maybe, AtEnd::Yes],
        ];
        for &a in &samples {
            for &b in &samples {
                let j = a.join(b);
                for env in &entries {
                    let want = a.resolve(env).join(b.resolve(env));
                    let got = j.resolve(env);
                    // got must be above-or-equal want: equal or Maybe.
                    assert!(got == want || got == AtEnd::Maybe, "{a:?}⊔{b:?} on {env:?}");
                }
            }
        }
    }

    #[test]
    fn compose_matches_substitution() {
        use Sym::*;
        // callee value: entry(0) ⊔ Unsorted; caller binds param 0 to its
        // own entry(2).
        let callee: Sym<Sortedness> = EntryJoin(0, Sortedness::Unsorted);
        let composed = callee.compose(|_| Entry(2));
        assert_eq!(composed, EntryJoin(2, Sortedness::Unsorted));
        // Caller binds param 0 to a concrete Sorted: resolves eagerly.
        let composed = callee.compose(|_| Const(Sortedness::Sorted));
        assert_eq!(
            composed,
            Const(Sortedness::Sorted.join(Sortedness::Unsorted))
        );
    }

    #[test]
    fn bool_or_lattice_normalizes() {
        use Sym::*;
        // maybe_empty ⊔ false keeps the entry reference exactly.
        let e: Sym<bool> = Entry(3);
        assert_eq!(e.join(Const(false)), Entry(3));
        assert_eq!(e.join(Const(true)), Const(true));
    }

    #[test]
    fn lat3_join_and_sequencing() {
        assert_eq!(Lat3::No.join(Lat3::Must), Lat3::May);
        assert_eq!(Lat3::Must.join(Lat3::Must), Lat3::Must);
        assert_eq!(Lat3::May.join(Lat3::No), Lat3::May);
    }
}

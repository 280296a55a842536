//! Typing environments: Γ (term and type variables) and Δ (join labels).
//!
//! The central subtlety of the paper's type system (Fig. 2) is that Δ is
//! *reset to ε* in every premise whose runtime context is not statically
//! known — function arguments, lambda bodies, constructor arguments, `let`
//! right-hand sides. That is what confines jumps to positions where
//! "adjust the stack and jump" is a correct compilation strategy.

use fj_ast::{FxHashMap, Name, Type};

/// The Γ environment: term variables with their types, and the type
/// variables currently in scope.
#[derive(Clone, Debug, Default)]
pub struct Gamma {
    vars: FxHashMap<Name, Type>,
    tyvars: FxHashMap<Name, ()>,
}

impl Gamma {
    /// An empty Γ.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a term variable.
    pub fn bind_var(&mut self, x: Name, ty: Type) {
        self.vars.insert(x, ty);
    }

    /// Bind a type variable.
    pub fn bind_tyvar(&mut self, a: Name) {
        self.tyvars.insert(a, ());
    }

    /// Look up a term variable's type.
    pub fn var(&self, x: &Name) -> Option<&Type> {
        self.vars.get(x)
    }

    /// Is the type variable in scope?
    pub fn has_tyvar(&self, a: &Name) -> bool {
        self.tyvars.contains_key(a)
    }

    /// Number of term variables (diagnostics).
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Is Γ empty?
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.tyvars.is_empty()
    }
}

/// The signature of a join point in Δ: its type parameters and the types of
/// its value parameters (expressed over those type parameters).
#[derive(Clone, Debug)]
pub struct JoinSig {
    /// Bound type parameters `a⃗`.
    pub ty_params: Vec<Name>,
    /// Value parameter types `σ⃗`.
    pub param_tys: Vec<Type>,
}

/// The Δ environment: join labels in scope.
///
/// The checker keeps its own Δ in the scoped overlay it checks with;
/// this map is the public vocabulary type for callers that describe
/// labels.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    labels: FxHashMap<Name, JoinSig>,
}

impl Delta {
    /// The empty Δ (the paper's ε).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Extend with a label.
    pub fn bind(&mut self, j: Name, sig: JoinSig) {
        self.labels.insert(j, sig);
    }

    /// Look up a label.
    pub fn get(&self, j: &Name) -> Option<&JoinSig> {
        self.labels.get(j)
    }

    /// Is Δ empty?
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// The checker's working environment: the caller's Γ as a read-only
/// base, plus a scoped overlay of the term and type variables and the
/// join labels the term itself binds. Binding records what it replaced in
/// an undo log and [`Scope::restore`] rolls back to a [`Scope::mark`], so
/// no rule ever copies Γ or Δ and a query costs the size of its subterm,
/// not that times the size of the base.
///
/// Δ resets (the paper's ε) do not empty anything: every label binding
/// is stamped with a generation, and a reset raises the visibility floor
/// to the next generation, so the labels bound outside it are hidden
/// until the floor is put back.
pub(crate) struct Scope<'g> {
    base: &'g Gamma,
    vars: FxHashMap<Name, Type>,
    tyvars: FxHashMap<Name, ()>,
    labels: FxHashMap<Name, (u64, JoinSig)>,
    undo: Vec<Undo>,
    /// Labels stamped below this generation are out of scope (Δ reset).
    floor: u64,
    next_gen: u64,
}

/// What one binding displaced, so [`Scope::restore`] can put it back.
enum Undo {
    Var(Name, Option<Type>),
    TyVar(Name, bool),
    Label(Name, Option<(u64, JoinSig)>),
}

impl<'g> Scope<'g> {
    /// An empty overlay over `base`, with Δ empty.
    pub(crate) fn new(base: &'g Gamma) -> Self {
        Scope {
            base,
            vars: FxHashMap::default(),
            tyvars: FxHashMap::default(),
            labels: FxHashMap::default(),
            undo: Vec::new(),
            floor: 0,
            next_gen: 0,
        }
    }

    /// The current position of the undo log.
    pub(crate) fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Undo every binding made since `mark`, innermost first.
    pub(crate) fn restore(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().expect("undo log above mark") {
                Undo::Var(x, old) => match old {
                    Some(t) => {
                        self.vars.insert(x, t);
                    }
                    None => {
                        self.vars.remove(&x);
                    }
                },
                Undo::TyVar(a, was_bound) => {
                    if !was_bound {
                        self.tyvars.remove(&a);
                    }
                }
                Undo::Label(j, old) => match old {
                    Some(entry) => {
                        self.labels.insert(j, entry);
                    }
                    None => {
                        self.labels.remove(&j);
                    }
                },
            }
        }
    }

    /// Bind a term variable until the enclosing [`Scope::restore`].
    pub(crate) fn bind_var(&mut self, x: &Name, ty: &Type) {
        let old = self.vars.insert(x.clone(), ty.clone());
        self.undo.push(Undo::Var(x.clone(), old));
    }

    /// Bind a type variable until the enclosing [`Scope::restore`].
    pub(crate) fn bind_tyvar(&mut self, a: &Name) {
        let was_bound = self.tyvars.insert(a.clone(), ()).is_some();
        self.undo.push(Undo::TyVar(a.clone(), was_bound));
    }

    /// Bind a join label until the enclosing [`Scope::restore`].
    pub(crate) fn bind_label(&mut self, j: &Name, sig: JoinSig) {
        let entry = (self.next_gen, sig);
        self.next_gen += 1;
        let old = self.labels.insert(j.clone(), entry);
        self.undo.push(Undo::Label(j.clone(), old));
    }

    /// Look up a term variable: the overlay first, then the base Γ.
    pub(crate) fn var(&self, x: &Name) -> Option<&Type> {
        self.vars.get(x).or_else(|| self.base.var(x))
    }

    /// Is the type variable in scope (overlay or base)?
    pub(crate) fn has_tyvar(&self, a: &Name) -> bool {
        self.tyvars.contains_key(a) || self.base.has_tyvar(a)
    }

    /// Look up a label that is visible above the current Δ floor.
    pub(crate) fn label(&self, j: &Name) -> Option<&JoinSig> {
        match self.labels.get(j) {
            Some((gen, sig)) if *gen >= self.floor => Some(sig),
            _ => None,
        }
    }

    /// Reset Δ to ε; returns the floor to hand back to
    /// [`Scope::unreset_delta`].
    pub(crate) fn reset_delta(&mut self) -> u64 {
        std::mem::replace(&mut self.floor, self.next_gen)
    }

    /// Undo a [`Scope::reset_delta`].
    pub(crate) fn unreset_delta(&mut self, floor: u64) {
        self.floor = floor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::NameSupply;

    #[test]
    fn gamma_binds_and_looks_up() {
        let mut s = NameSupply::new();
        let x = s.fresh("x");
        let mut g = Gamma::new();
        assert!(g.is_empty());
        g.bind_var(x.clone(), Type::Int);
        assert_eq!(g.var(&x), Some(&Type::Int));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn delta_empty_is_empty() {
        let mut s = NameSupply::new();
        let j = s.fresh("j");
        let mut d = Delta::empty();
        assert!(d.is_empty());
        d.bind(
            j.clone(),
            JoinSig {
                ty_params: vec![],
                param_tys: vec![Type::Int],
            },
        );
        assert!(d.get(&j).is_some());
        assert!(Delta::empty().get(&j).is_none());
    }
}

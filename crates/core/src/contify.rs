//! Contification (paper Sec. 4, Fig. 5): inferring join points.
//!
//! A `let`-bound function all of whose calls are *saturated tail calls*
//! can be turned into a join point — its calls into jumps — without
//! changing the meaning of the program: when a jump fires, there is
//! nothing on the stack to discard. The paper's algorithm is deliberately
//! simple ("we *only look for tail calls*", unlike Fluet–Weeks or
//! Kennedy); in concert with the simplifier and Float In it covers the
//! same ground as Moby's local CPS conversion.
//!
//! Side conditions, straight from Fig. 5:
//!
//! * every occurrence of `f` (or, for a recursive group, of any `fᵢ`) is a
//!   call with exactly the right number of type and value arguments,
//!   sitting in a **tail position** of the `let` body (for recursive
//!   groups, also of each right-hand side);
//! * `f` does not occur in the arguments of those calls, in case
//!   scrutinees, in other bindings' right-hand sides, or under lambdas;
//! * the result type of `f`'s body equals the type of the `let` body —
//!   contification "can fail to occur if some function f is polymorphic
//!   in its return type".

use crate::OptError;
use fj_ast::{
    mentions_any, occurs_free, Alt, Binder, DataEnv, Expr, FxHashMap, JoinBind, JoinDef, LetBind,
    Name, SpineArg, Type,
};
use fj_check::{type_of, Gamma};
use std::borrow::Cow;
use std::sync::Arc;

/// Run contification over a whole term, bottom-up, converting every
/// eligible `let` into a `join`. Also returns how many bindings were
/// converted.
///
/// Subtrees in which nothing converts come back as the input's own
/// `Arc`s, so a pass that converts nothing costs no allocation.
///
/// # Errors
///
/// None: a candidate whose `let` body cannot be typed stays a `let`. The
/// `Result` keeps the signature uniform with the other passes.
pub fn contify(e: &Expr, data_env: &DataEnv) -> Result<(Expr, usize), OptError> {
    let mut c = Contifier {
        data_env,
        gamma: Gamma::new(),
        converted: 0,
    };
    let out = c.go(e).unwrap_or_else(|| e.clone());
    Ok((out, c.converted))
}

/// The η-shape of a candidate: `Λa⃗. λ(x:σ)⃗. u`.
struct FunShape<'e> {
    ty_params: Vec<Name>,
    params: Vec<Binder>,
    body: &'e Expr,
}

fn decompose_fun(rhs: &Expr) -> FunShape<'_> {
    let mut ty_params = Vec::new();
    let mut cur = rhs;
    while let Expr::TyLam(a, b) = cur {
        ty_params.push(a.clone());
        cur = b;
    }
    let mut params = Vec::new();
    while let Expr::Lam(b, body) = cur {
        params.push(b.clone());
        cur = body;
    }
    FunShape {
        ty_params,
        params,
        body: cur,
    }
}

/// The type of a candidate's body `u`, read off its binder's type
/// `∀a⃗. σ⃗ → ρ`: strip the ∀s and arrows the shape accounts for, and
/// rename the ∀-bound variables to the shape's own type parameters (the
/// names `u` is typed under). `None` if the binder's type has fewer.
fn result_ty(binder_ty: &Type, shape: &FunShape) -> Option<Type> {
    let mut rename = FxHashMap::default();
    let mut t = binder_ty;
    for a in &shape.ty_params {
        let Type::Forall(b, body) = t else {
            return None;
        };
        if b != a {
            rename.insert(b.clone(), Type::Var(a.clone()));
        }
        t = body;
    }
    for _ in &shape.params {
        let Type::Fun(_, res) = t else {
            return None;
        };
        t = res;
    }
    Some(t.subst(&rename))
}

fn keep(old: &Arc<Expr>, new: Option<Arc<Expr>>) -> Arc<Expr> {
    new.unwrap_or_else(|| Arc::clone(old))
}

struct Contifier<'a> {
    data_env: &'a DataEnv,
    /// Γ for every binder seen so far, maintained incrementally (binders
    /// are globally unique, so the environment only grows and is never
    /// rebuilt per `ty_of` query).
    gamma: Gamma,
    converted: usize,
}

impl Contifier<'_> {
    fn record(&mut self, b: &Binder) {
        self.gamma.bind_var(b.name.clone(), b.ty.clone());
    }

    fn go_arc(&mut self, e: &Arc<Expr>) -> Option<Arc<Expr>> {
        self.go(e).map(Expr::share)
    }

    /// Contify each of `es`: `None` if none of them changed, else all of
    /// them, changed or kept.
    fn go_all<'e>(&mut self, es: impl IntoIterator<Item = &'e Expr>) -> Option<Vec<Expr>> {
        let pairs: Vec<(&Expr, Option<Expr>)> = es.into_iter().map(|e| (e, self.go(e))).collect();
        if pairs.iter().all(|(_, new)| new.is_none()) {
            return None;
        }
        Some(
            pairs
                .into_iter()
                .map(|(e, new)| new.unwrap_or_else(|| e.clone()))
                .collect(),
        )
    }

    /// Contify `e`, returning `None` when nothing under it converts (the
    /// caller then keeps `e` itself).
    fn go(&mut self, e: &Expr) -> Option<Expr> {
        match e {
            Expr::Var(_) | Expr::Lit(_) => None,
            Expr::Prim(op, args) => self.go_all(args).map(|args| Expr::Prim(*op, args)),
            Expr::Con(c, tys, args) => self
                .go_all(args)
                .map(|args| Expr::Con(c.clone(), tys.clone(), args)),
            Expr::Lam(b, body) => {
                self.record(b);
                self.go_arc(body).map(|body| Expr::Lam(b.clone(), body))
            }
            Expr::TyLam(a, body) => self.go_arc(body).map(|body| Expr::TyLam(a.clone(), body)),
            Expr::App(f, a) => match (self.go_arc(f), self.go_arc(a)) {
                (None, None) => None,
                (f2, a2) => Some(Expr::App(keep(f, f2), keep(a, a2))),
            },
            Expr::TyApp(f, t) => self.go_arc(f).map(|f| Expr::TyApp(f, t.clone())),
            Expr::Case(s, alts) => {
                let s2 = self.go_arc(s);
                for b in alts.iter().flat_map(|alt| &alt.binders) {
                    self.record(b);
                }
                let rhss = self.go_all(alts.iter().map(|alt| &alt.rhs));
                if s2.is_none() && rhss.is_none() {
                    return None;
                }
                let alts2 = match rhss {
                    Some(rhss) => alts
                        .iter()
                        .zip(rhss)
                        .map(|(alt, rhs)| Alt {
                            con: alt.con.clone(),
                            binders: alt.binders.clone(),
                            rhs,
                        })
                        .collect(),
                    None => alts.clone(),
                };
                Some(Expr::Case(keep(s, s2), alts2))
            }
            Expr::Join(jb, body) => {
                for p in jb.defs().iter().flat_map(|d| &d.params) {
                    self.record(p);
                }
                let bodies = self.go_all(jb.defs().iter().map(|d| &d.body));
                let body2 = self.go_arc(body);
                if bodies.is_none() && body2.is_none() {
                    return None;
                }
                let mut jb2 = jb.clone();
                if let Some(bodies) = bodies {
                    for (d, new) in jb2.defs_mut().iter_mut().zip(bodies) {
                        d.body = new;
                    }
                }
                Some(Expr::Join(jb2, keep(body, body2)))
            }
            Expr::Jump(j, tys, args, res) => self
                .go_all(args)
                .map(|args| Expr::Jump(j.clone(), tys.clone(), args, res.clone())),
            Expr::Let(bind, body) => {
                for b in bind.binders() {
                    self.record(b);
                }
                // Children first: inner contifications can expose outer ones.
                let bind2 = match bind {
                    LetBind::NonRec(b, rhs) => {
                        self.go_arc(rhs).map(|rhs| LetBind::NonRec(b.clone(), rhs))
                    }
                    LetBind::Rec(binds) => {
                        self.go_all(binds.iter().map(|(_, rhs)| rhs)).map(|rhss| {
                            LetBind::Rec(
                                binds
                                    .iter()
                                    .zip(rhss)
                                    .map(|((b, _), rhs)| (b.clone(), rhs))
                                    .collect(),
                            )
                        })
                    }
                };
                let body2 = self.go_arc(body);
                let unchanged = bind2.is_none() && body2.is_none();
                let bind2 = bind2.map_or(Cow::Borrowed(bind), Cow::Owned);
                let body2 = keep(body, body2);
                match self.try_contify(&bind2, &body2) {
                    Some(join) => Some(join),
                    None if unchanged => None,
                    None => Some(Expr::Let(bind2.into_owned(), body2)),
                }
            }
        }
    }

    /// Turn `let bind in body` into a join binding if Fig. 5 allows it.
    fn try_contify(&mut self, bind: &LetBind, body: &Expr) -> Option<Expr> {
        match bind {
            LetBind::NonRec(b, rhs) => {
                let shape = decompose_fun(rhs);
                // Only functions are candidates (a 0-ary "join" would
                // trade call-by-need sharing for re-evaluation); f must
                // not occur in its own RHS (non-recursive).
                if shape.params.is_empty() || occurs_free(&b.name, rhs) {
                    return None;
                }
                let arity = (b.name.clone(), shape.ty_params.len(), shape.params.len());
                let res_ty = self.contifiable_result_ty([(b, &shape)], body)?;
                let targets = Targets::new(vec![arity], res_ty);
                let new_body = tailify(body, &targets)?;
                self.converted += 1;
                let def = JoinDef {
                    name: b.name.clone(),
                    ty_params: shape.ty_params,
                    params: shape.params,
                    body: shape.body.clone(),
                };
                Some(Expr::join1(def, new_body))
            }
            LetBind::Rec(binds) => {
                let shapes: Vec<(&Binder, FunShape)> = binds
                    .iter()
                    .map(|(b, rhs)| (b, decompose_fun(rhs)))
                    .collect();
                if shapes.iter().any(|(_, s)| s.params.is_empty()) {
                    return None;
                }
                let arities: Vec<(Name, usize, usize)> = shapes
                    .iter()
                    .map(|(b, s)| (b.name.clone(), s.ty_params.len(), s.params.len()))
                    .collect();
                let candidates = shapes.iter().map(|(b, s)| (*b, s));
                let res_ty = self.contifiable_result_ty(candidates, body)?;
                let targets = Targets::new(arities, res_ty);
                // Every RHS body and the let body must tailify.
                let mut new_defs = Vec::with_capacity(shapes.len());
                for (b, shape) in shapes {
                    let new_rhs_body = tailify(shape.body, &targets)?;
                    new_defs.push(JoinDef {
                        name: b.name.clone(),
                        ty_params: shape.ty_params,
                        params: shape.params,
                        body: new_rhs_body,
                    });
                }
                let new_body = tailify(body, &targets)?;
                self.converted += 1;
                Some(Expr::Join(JoinBind::Rec(new_defs), Expr::share(new_body)))
            }
        }
    }

    /// The Fig. 5 typing proviso: each candidate's body type must equal the
    /// `let` body's type (else the function is "polymorphic in its return
    /// type" relative to the context and cannot be a join point). Returns
    /// the shared result type, or `None` if the condition fails.
    ///
    /// Candidates' body types come from their binders, so only the `let`
    /// body is typed, once per `let`.
    fn contifiable_result_ty<'s>(
        &self,
        candidates: impl IntoIterator<Item = (&'s Binder, &'s FunShape<'s>)>,
        body: &Expr,
    ) -> Option<Type> {
        let body_ty = type_of(body, self.data_env, &self.gamma).ok()?;
        for (b, shape) in candidates {
            if !result_ty(&b.ty, shape)?.alpha_eq(&body_ty) {
                return None;
            }
        }
        Some(body_ty)
    }
}

struct Targets {
    /// (name, number of type params, number of value params).
    arities: Vec<(Name, usize, usize)>,
    /// The candidate names alone, for occurrence scans.
    names: Vec<Name>,
    /// Result-type annotation for the new jumps.
    res_ty: Type,
}

impl Targets {
    fn new(arities: Vec<(Name, usize, usize)>, res_ty: Type) -> Targets {
        let names = arities.iter().map(|(n, _, _)| n.clone()).collect();
        Targets {
            arities,
            names,
            res_ty,
        }
    }

    fn arity_of(&self, n: &Name) -> Option<(usize, usize)> {
        self.arities
            .iter()
            .find(|(m, _, _)| m == n)
            .map(|(_, t, v)| (*t, *v))
    }

    fn mentions(&self, e: &Expr) -> bool {
        // Short-circuiting scan; no free-variable set per query.
        mentions_any(e, &self.names)
    }
}

/// Match `f @φ₁…@φₖ e₁…eₘ` with exactly the expected arity.
fn match_call(e: &Expr, targets: &Targets) -> Option<(Name, Vec<Type>, Vec<Expr>)> {
    let (head, spine) = e.collect_app_spine();
    let Expr::Var(f) = head else { return None };
    let (n_ty, n_val) = targets.arity_of(f)?;
    if spine.len() != n_ty + n_val {
        return None;
    }
    let mut tys = Vec::with_capacity(n_ty);
    let mut args = Vec::with_capacity(n_val);
    for (i, s) in spine.into_iter().enumerate() {
        match s {
            SpineArg::Ty(t) if i < n_ty => tys.push(t.clone()),
            SpineArg::Term(a) if i >= n_ty => args.push(a.clone()),
            _ => return None,
        }
    }
    Some((f.clone(), tys, args))
}

/// The paper's `tail` function: walk the tail contexts of `e`, turning
/// saturated calls to the targets into jumps; fail (`None`) if any target
/// occurs anywhere else.
fn tailify(e: &Expr, targets: &Targets) -> Option<Expr> {
    if let Some((f, tys, args)) = match_call(e, targets) {
        // Arguments must not mention any target (typing forbids it anyway).
        if args.iter().any(|a| targets.mentions(a)) {
            return None;
        }
        return Some(Expr::jump(&f, tys, args, targets.res_ty.clone()));
    }
    match e {
        Expr::Case(s, alts) => {
            if targets.mentions(s) {
                return None;
            }
            let alts2 = alts
                .iter()
                .map(|a| {
                    Some(Alt {
                        con: a.con.clone(),
                        binders: a.binders.clone(),
                        rhs: tailify(&a.rhs, targets)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Expr::case((**s).clone(), alts2))
        }
        Expr::Let(bind, body) => {
            for (_, rhs) in bind.pairs() {
                if targets.mentions(rhs) {
                    return None;
                }
            }
            Some(Expr::Let(
                bind.clone(),
                Expr::share(tailify(body, targets)?),
            ))
        }
        Expr::Join(jb, body) => {
            let mut jb2 = jb.clone();
            for d in jb2.defs_mut() {
                d.body = tailify(&d.body, targets)?;
            }
            Some(Expr::Join(jb2, Expr::share(tailify(body, targets)?)))
        }
        other => {
            if targets.mentions(other) {
                None
            } else {
                Some(other.clone())
            }
        }
    }
}

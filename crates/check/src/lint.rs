//! The System F_J type checker — GHC's "Core Lint" for our calculus.
//!
//! This is a direct transliteration of Fig. 2 of the paper. The checker is
//! run after every optimizer pass in tests (paper Sec. 7: "Core Lint …
//! forensically identified several existing Core-to-Core passes that were
//! destroying join points"); any pass that breaks the Δ discipline — e.g.
//! by letting a jump escape into a lambda or an argument — fails here.

use crate::env::{Gamma, JoinSig, Scope};
use fj_ast::{AltCon, DataEnv, Expr, Ident, JoinBind, LetBind, Name, PrimOp, Type};
use std::collections::HashSet;
use std::fmt;

/// Why a term failed to lint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintErrorKind {
    /// A term variable is not in Γ.
    UnboundVar(Name),
    /// A type variable is not in scope.
    UnboundTyVar(Name),
    /// A label is not in Δ — either truly unbound, or a jump in a position
    /// where Δ was reset (the paper's "jumps are not side effects" rule).
    UnboundLabel(Name),
    /// Expected one type, found another.
    Mismatch {
        /// What the context required.
        expected: Type,
        /// What the term actually had.
        found: Type,
        /// Where (human-readable).
        context: &'static str,
    },
    /// A non-function was applied.
    NotAFunction(Type),
    /// A non-∀ was type-applied.
    NotPolymorphic(Type),
    /// `case` scrutinee with constructor alternatives isn't a datatype.
    NotADatatype(Type),
    /// Constructor alternative doesn't belong to the scrutinee's datatype.
    WrongDatatype {
        /// The constructor in the alternative.
        con: Ident,
        /// The scrutinee's type constructor.
        scrutinee: Ident,
    },
    /// A constructor or jump applied to the wrong number of arguments.
    Arity {
        /// What was being applied.
        what: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        got: usize,
    },
    /// Case alternatives are missing and there is no default.
    NonExhaustiveCase,
    /// A case expression with no alternatives at all.
    EmptyCase,
    /// Duplicate alternative for the same constructor/literal.
    DuplicateAlt,
    /// Alternative field binder count doesn't match the constructor.
    FieldCount {
        /// The constructor.
        con: Ident,
        /// Declared field count.
        expected: usize,
        /// Binder count in the alternative.
        got: usize,
    },
    /// A datatype error (unknown constructor, arity, …).
    Data(fj_ast::DataEnvError),
    /// Primop applied to the wrong number of arguments.
    PrimArity(PrimOp, usize),
    /// A join point's RHS type differs from the join body's type
    /// (rule JBIND's crucial premise).
    JoinResultMismatch {
        /// The label.
        label: Name,
        /// The body's type (what the RHS must match).
        body_ty: Type,
        /// The RHS's type.
        rhs_ty: Type,
    },
}

impl fmt::Display for LintErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintErrorKind::UnboundVar(x) => write!(f, "unbound variable {x}"),
            LintErrorKind::UnboundTyVar(a) => write!(f, "unbound type variable {a}"),
            LintErrorKind::UnboundLabel(j) => {
                write!(
                    f,
                    "label {j} not in scope (jump outside its join's tail context?)"
                )
            }
            LintErrorKind::Mismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            LintErrorKind::NotAFunction(t) => write!(f, "applied non-function of type {t}"),
            LintErrorKind::NotPolymorphic(t) => {
                write!(f, "type-applied non-polymorphic type {t}")
            }
            LintErrorKind::NotADatatype(t) => write!(f, "case scrutinee has type {t}"),
            LintErrorKind::WrongDatatype { con, scrutinee } => {
                write!(
                    f,
                    "constructor {con} does not belong to datatype {scrutinee}"
                )
            }
            LintErrorKind::Arity {
                what,
                expected,
                got,
            } => {
                write!(f, "{what} expects {expected} arguments, got {got}")
            }
            LintErrorKind::NonExhaustiveCase => write!(f, "non-exhaustive case alternatives"),
            LintErrorKind::EmptyCase => write!(f, "case with no alternatives"),
            LintErrorKind::DuplicateAlt => write!(f, "duplicate case alternative"),
            LintErrorKind::FieldCount { con, expected, got } => {
                write!(
                    f,
                    "constructor {con} has {expected} fields, pattern binds {got}"
                )
            }
            LintErrorKind::Data(e) => write!(f, "{e}"),
            LintErrorKind::PrimArity(op, got) => {
                write!(f, "primop {op} expects 2 arguments, got {got}")
            }
            LintErrorKind::JoinResultMismatch {
                label,
                body_ty,
                rhs_ty,
            } => write!(
                f,
                "join point {label} returns {rhs_ty} but the join body returns {body_ty}"
            ),
        }
    }
}

/// A lint failure, with a breadcrumb trail to the offending subterm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// What went wrong.
    pub kind: LintErrorKind,
    /// Path from the root to the error site (outermost first). Binding
    /// steps name the binder they pass through (`let s_12 rhs`,
    /// `lambda x_3 body`, `case alt Cons`, …) so a rollback reason in
    /// `fj report` points at the actual culprit.
    pub path: Vec<String>,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.path.is_empty() {
            write!(f, " (at {})", self.path.join(" > "))?;
        }
        Ok(())
    }
}

impl std::error::Error for LintError {}

impl From<fj_ast::DataEnvError> for LintError {
    fn from(e: fj_ast::DataEnvError) -> Self {
        LintError {
            kind: LintErrorKind::Data(e),
            path: Vec::new(),
        }
    }
}

fn err(kind: LintErrorKind) -> LintError {
    LintError {
        kind,
        path: Vec::new(),
    }
}

fn at(label: impl Into<String>, r: Result<Type, LintError>) -> Result<Type, LintError> {
    r.map_err(|mut e| {
        e.path.insert(0, label.into());
        e
    })
}

/// Type-check a closed term against a datatype environment.
///
/// # Errors
///
/// Returns the first [`LintError`] encountered, with a path to the site.
pub fn lint(e: &Expr, data_env: &DataEnv) -> Result<Type, LintError> {
    lint_open(e, data_env, &Gamma::new())
}

/// Type-check a term with free variables described by `gamma`.
///
/// `gamma` is only read: the term's own binders live in a scoped overlay
/// that is unwound on scope exit, so the cost is linear in the term, not
/// in the term times `gamma`.
///
/// # Errors
///
/// Returns the first [`LintError`] encountered.
pub fn lint_open(e: &Expr, data_env: &DataEnv, gamma: &Gamma) -> Result<Type, LintError> {
    Checker::new(data_env, gamma, true).infer(e)
}

/// Compute the type of a term that is *assumed* well-typed, leniently:
/// unlike [`lint_open`], jumps to labels bound outside the fragment are
/// allowed (a jump's type is its annotation regardless), free type
/// variables in annotations are accepted, and exhaustiveness is not
/// enforced. The optimizer uses this to type subterms mid-rewrite.
///
/// As with [`lint_open`], `gamma` is a read-only base: a query costs the
/// size of `e`, however many bindings `gamma` holds.
///
/// # Errors
///
/// Returns a [`LintError`] if the fragment is structurally ill-typed
/// (e.g. applying a non-function).
pub fn type_of(e: &Expr, data_env: &DataEnv, gamma: &Gamma) -> Result<Type, LintError> {
    Checker::new(data_env, gamma, false).infer(e)
}

struct Checker<'a> {
    data_env: &'a DataEnv,
    strict: bool,
    /// Γ and Δ: the caller's Γ plus the term's own binders, scoped.
    scope: Scope<'a>,
}

impl<'a> Checker<'a> {
    fn new(data_env: &'a DataEnv, gamma: &'a Gamma, strict: bool) -> Self {
        Checker {
            data_env,
            strict,
            scope: Scope::new(gamma),
        }
    }

    /// Run `f` in a nested scope: whatever it binds is unbound afterwards,
    /// on the error path too.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let mark = self.scope.mark();
        let r = f(self);
        self.scope.restore(mark);
        r
    }

    /// Infer `e` where the paper resets Δ to ε (argument positions,
    /// lambda bodies, constructor fields, `let` right-hand sides).
    fn infer_reset(&mut self, e: &Expr) -> Result<Type, LintError> {
        let floor = self.scope.reset_delta();
        let r = self.infer(e);
        self.scope.unreset_delta(floor);
        r
    }

    /// Check that a type is well-formed under Γ: free type variables in
    /// scope, datatype applications saturated.
    fn wf_type(&mut self, t: &Type) -> Result<(), LintError> {
        if !self.strict {
            return Ok(());
        }
        match t {
            Type::Var(a) => {
                if self.scope.has_tyvar(a) {
                    Ok(())
                } else {
                    Err(err(LintErrorKind::UnboundTyVar(a.clone())))
                }
            }
            Type::Con(tc, args) => {
                let dt = self.data_env.datatype(tc)?;
                if dt.ty_vars.len() != args.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("type constructor {tc}"),
                        expected: dt.ty_vars.len(),
                        got: args.len(),
                    }));
                }
                for a in args {
                    self.wf_type(a)?;
                }
                Ok(())
            }
            Type::Fun(a, b) => {
                self.wf_type(a)?;
                self.wf_type(b)
            }
            Type::Forall(a, body) => self.scoped(|c| {
                c.scope.bind_tyvar(a);
                c.wf_type(body)
            }),
            Type::Int => Ok(()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn infer(&mut self, e: &Expr) -> Result<Type, LintError> {
        match e {
            Expr::Var(x) => self
                .scope
                .var(x)
                .cloned()
                .ok_or_else(|| err(LintErrorKind::UnboundVar(x.clone()))),
            Expr::Lit(_) => Ok(Type::Int),
            Expr::Prim(op, args) => {
                if args.len() != op.arity() {
                    return Err(err(LintErrorKind::PrimArity(*op, args.len())));
                }
                for a in args {
                    // Δ reset: primop operands are strict argument positions.
                    let t = at("primop operand", self.infer_reset(a))?;
                    if t != Type::Int {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: Type::Int,
                            found: t,
                            context: "primop operand",
                        }));
                    }
                }
                Ok(op.result_type())
            }
            Expr::Lam(b, body) => {
                self.wf_type(&b.ty)?;
                // Δ reset: a lambda may be called anywhere, so its body
                // cannot jump to enclosing join points.
                let body_ty = self.scoped(|c| {
                    c.scope.bind_var(&b.name, &b.ty);
                    at(format!("lambda {} body", b.name), c.infer_reset(body))
                })?;
                Ok(Type::fun(b.ty.clone(), body_ty))
            }
            Expr::TyLam(a, body) => {
                let body_ty = self.scoped(|c| {
                    c.scope.bind_tyvar(a);
                    at(format!("type-lambda {a} body"), c.infer_reset(body))
                })?;
                Ok(Type::forall(a.clone(), body_ty))
            }
            Expr::App(f, x) => {
                // Δ propagates into the *function* part (evaluation context)
                // but is reset in the argument (rule APP).
                let f_ty = at("function", self.infer(f))?;
                let x_ty = at("argument", self.infer_reset(x))?;
                match f_ty {
                    Type::Fun(a, b) => {
                        if a.alpha_eq(&x_ty) {
                            Ok(*b)
                        } else {
                            Err(err(LintErrorKind::Mismatch {
                                expected: *a,
                                found: x_ty,
                                context: "application argument",
                            }))
                        }
                    }
                    other => Err(err(LintErrorKind::NotAFunction(other))),
                }
            }
            Expr::TyApp(f, phi) => {
                self.wf_type(phi)?;
                let f_ty = at("type application head", self.infer(f))?;
                match f_ty {
                    Type::Forall(a, body) => Ok(body.subst1(&a, phi)),
                    other => Err(err(LintErrorKind::NotPolymorphic(other))),
                }
            }
            Expr::Con(c, tys, args) => {
                for t in tys {
                    self.wf_type(t)?;
                }
                let (fields, result) = self.data_env.instantiate(c, tys)?;
                if fields.len() != args.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("constructor {c}"),
                        expected: fields.len(),
                        got: args.len(),
                    }));
                }
                for (field_ty, arg) in fields.iter().zip(args) {
                    // Δ reset: constructor arguments are stored, not run.
                    let t = at("constructor field", self.infer_reset(arg))?;
                    if !t.alpha_eq(field_ty) {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: field_ty.clone(),
                            found: t,
                            context: "constructor field",
                        }));
                    }
                }
                Ok(result)
            }
            Expr::Case(scrut, alts) => {
                // Δ propagates into the scrutinee (evaluation context) AND
                // the branches (tail context).
                let scrut_ty = at("case scrutinee", self.infer(scrut))?;
                self.check_alts(&scrut_ty, alts)
            }
            Expr::Let(bind, body) => {
                match bind {
                    LetBind::NonRec(b, rhs) => {
                        self.wf_type(&b.ty)?;
                        // Δ reset in the RHS of a value binding.
                        let rhs_ty = at(format!("let {} rhs", b.name), self.infer_reset(rhs))?;
                        if !rhs_ty.alpha_eq(&b.ty) {
                            return Err(err(LintErrorKind::Mismatch {
                                expected: b.ty.clone(),
                                found: rhs_ty,
                                context: "let binding",
                            }));
                        }
                        self.scoped(|c| {
                            c.scope.bind_var(&b.name, &b.ty);
                            at(format!("let {} body", b.name), c.infer(body))
                        })
                    }
                    LetBind::Rec(binds) => self.scoped(|c| {
                        for (b, _) in binds {
                            c.wf_type(&b.ty)?;
                            c.scope.bind_var(&b.name, &b.ty);
                        }
                        for (b, rhs) in binds {
                            let rhs_ty = at(format!("letrec {} rhs", b.name), c.infer_reset(rhs))?;
                            if !rhs_ty.alpha_eq(&b.ty) {
                                return Err(err(LintErrorKind::Mismatch {
                                    expected: b.ty.clone(),
                                    found: rhs_ty,
                                    context: "letrec binding",
                                }));
                            }
                        }
                        at("letrec body", c.infer(body))
                    }),
                }
            }
            Expr::Join(jb, body) => self.check_join(jb, body),
            Expr::Jump(j, tys, args, res_ty) => {
                self.wf_type(res_ty)?;
                let Some(sig) = self.scope.label(j).cloned() else {
                    if self.strict {
                        return Err(err(LintErrorKind::UnboundLabel(j.clone())));
                    }
                    // Lenient mode: out-of-fragment label; still type the
                    // arguments for internal consistency, then trust the
                    // annotation.
                    for arg in args {
                        at("jump argument", self.infer_reset(arg))?;
                    }
                    return Ok(res_ty.clone());
                };
                if sig.ty_params.len() != tys.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("jump to {j} (type arguments)"),
                        expected: sig.ty_params.len(),
                        got: tys.len(),
                    }));
                }
                if sig.param_tys.len() != args.len() {
                    return Err(err(LintErrorKind::Arity {
                        what: format!("jump to {j}"),
                        expected: sig.param_tys.len(),
                        got: args.len(),
                    }));
                }
                for t in tys {
                    self.wf_type(t)?;
                }
                let inst: fj_ast::FxHashMap<Name, Type> = sig
                    .ty_params
                    .iter()
                    .cloned()
                    .zip(tys.iter().cloned())
                    .collect();
                for (pt, arg) in sig.param_tys.iter().zip(args) {
                    let expected = pt.subst(&inst);
                    // Δ reset: jump arguments are argument positions.
                    let t = at("jump argument", self.infer_reset(arg))?;
                    if !t.alpha_eq(&expected) {
                        return Err(err(LintErrorKind::Mismatch {
                            expected,
                            found: t,
                            context: "jump argument",
                        }));
                    }
                }
                // A jump has whatever type its annotation claims (rule JUMP);
                // JBIND is what pins down what join points actually return.
                Ok(res_ty.clone())
            }
        }
    }

    fn check_join(&mut self, jb: &JoinBind, body: &Expr) -> Result<Type, LintError> {
        self.scoped(|c| {
            let labels = c.scope.mark();
            for d in jb.defs() {
                c.scope.bind_label(
                    &d.name,
                    JoinSig {
                        ty_params: d.ty_params.clone(),
                        param_tys: d.params.iter().map(|p| p.ty.clone()).collect(),
                    },
                );
            }
            let body_ty = at("join body", c.infer(body))?;
            // Non-recursive join RHSs see the *outer* Δ (they are tail
            // contexts of enclosing joins); recursive ones also see the
            // group (RJBIND).
            if !jb.is_rec() {
                c.scope.restore(labels);
            }
            for d in jb.defs() {
                let rhs_ty = c.scoped(|c| {
                    for a in &d.ty_params {
                        c.scope.bind_tyvar(a);
                    }
                    for p in &d.params {
                        c.wf_type(&p.ty)?;
                        c.scope.bind_var(&p.name, &p.ty);
                    }
                    at(format!("join {} rhs", d.name), c.infer(&d.body))
                })?;
                if !rhs_ty.alpha_eq(&body_ty) {
                    return Err(err(LintErrorKind::JoinResultMismatch {
                        label: d.name.clone(),
                        body_ty,
                        rhs_ty,
                    }));
                }
            }
            Ok(body_ty)
        })
    }

    fn check_alts(&mut self, scrut_ty: &Type, alts: &[fj_ast::Alt]) -> Result<Type, LintError> {
        if alts.is_empty() {
            return Err(err(LintErrorKind::EmptyCase));
        }
        let mut result_ty: Option<Type> = None;
        let mut seen_cons: HashSet<Ident> = HashSet::new();
        let mut seen_lits: HashSet<i64> = HashSet::new();
        let mut has_default = false;

        for alt in alts {
            // The field binders are unbound again after the alternative;
            // an early error return skips that, but ends the whole check.
            let mark = self.scope.mark();
            match &alt.con {
                AltCon::Default => {
                    if has_default {
                        return Err(err(LintErrorKind::DuplicateAlt));
                    }
                    has_default = true;
                    if !alt.binders.is_empty() {
                        return Err(err(LintErrorKind::FieldCount {
                            con: Ident::new("_"),
                            expected: 0,
                            got: alt.binders.len(),
                        }));
                    }
                }
                AltCon::Lit(n) => {
                    if *scrut_ty != Type::Int {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: Type::Int,
                            found: scrut_ty.clone(),
                            context: "literal case scrutinee",
                        }));
                    }
                    if !seen_lits.insert(*n) {
                        return Err(err(LintErrorKind::DuplicateAlt));
                    }
                    if !alt.binders.is_empty() {
                        return Err(err(LintErrorKind::FieldCount {
                            con: Ident::new("literal"),
                            expected: 0,
                            got: alt.binders.len(),
                        }));
                    }
                }
                AltCon::Con(c) => {
                    let Type::Con(tc, ty_args) = scrut_ty else {
                        return Err(err(LintErrorKind::NotADatatype(scrut_ty.clone())));
                    };
                    let owner = self.data_env.owner_of(c)?;
                    if &owner.name != tc {
                        return Err(err(LintErrorKind::WrongDatatype {
                            con: c.clone(),
                            scrutinee: tc.clone(),
                        }));
                    }
                    if !seen_cons.insert(c.clone()) {
                        return Err(err(LintErrorKind::DuplicateAlt));
                    }
                    let (fields, _) = self.data_env.instantiate(c, ty_args)?;
                    if fields.len() != alt.binders.len() {
                        return Err(err(LintErrorKind::FieldCount {
                            con: c.clone(),
                            expected: fields.len(),
                            got: alt.binders.len(),
                        }));
                    }
                    for (field_ty, b) in fields.iter().zip(&alt.binders) {
                        if !b.ty.alpha_eq(field_ty) {
                            return Err(err(LintErrorKind::Mismatch {
                                expected: field_ty.clone(),
                                found: b.ty.clone(),
                                context: "case field binder",
                            }));
                        }
                        self.scope.bind_var(&b.name, &b.ty);
                    }
                }
            }
            // Δ propagates into branches: they are tail contexts.
            let alt_label = match &alt.con {
                AltCon::Con(c) => format!("case alt {c}"),
                AltCon::Lit(n) => format!("case alt {n}"),
                AltCon::Default => "case alt _".to_string(),
            };
            let rhs_ty = at(alt_label, self.infer(&alt.rhs));
            self.scope.restore(mark);
            let rhs_ty = rhs_ty?;
            match &result_ty {
                None => result_ty = Some(rhs_ty),
                Some(t) => {
                    if !t.alpha_eq(&rhs_ty) {
                        return Err(err(LintErrorKind::Mismatch {
                            expected: t.clone(),
                            found: rhs_ty,
                            context: "case alternatives",
                        }));
                    }
                }
            }
        }

        // Exhaustiveness.
        if self.strict && !has_default {
            match scrut_ty {
                Type::Con(tc, _) => {
                    let dt = self.data_env.datatype(tc)?;
                    if seen_cons.len() != dt.ctors.len() {
                        return Err(err(LintErrorKind::NonExhaustiveCase));
                    }
                }
                Type::Int => return Err(err(LintErrorKind::NonExhaustiveCase)),
                _ => return Err(err(LintErrorKind::NotADatatype(scrut_ty.clone()))),
            }
        }

        Ok(result_ty.expect("alts nonempty"))
    }
}

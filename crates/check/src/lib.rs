//! # fj-check — the System F_J type system (Fig. 2)
//!
//! The paper's typing judgement `Γ; Δ ⊢ e : τ` carries two environments:
//! Γ for ordinary (term and type) variables and Δ for join-point labels.
//! Δ is **reset to ε** in every premise whose runtime evaluation context is
//! not statically known — function arguments, lambda bodies, constructor
//! fields, `let` right-hand sides — which is exactly what makes "adjust the
//! stack and jump" a sound compilation strategy for jumps.
//!
//! The crate plays the role of GHC's *Core Lint* (paper Sec. 7): it is run
//! between optimizer passes in this repository's test suite, so a pass that
//! destroys a join point (the failure mode motivating the whole paper)
//! fails loudly instead of silently de-optimizing.
//!
//! ## Example
//!
//! ```
//! use fj_ast::{DataEnv, Dsl, Expr, JoinDef, PrimOp, Type};
//! use fj_check::lint;
//!
//! let mut dsl = Dsl::new();
//! let j = dsl.name("j");
//! let x = dsl.binder("x", Type::Int);
//! let body = Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1));
//! let term = Expr::join1(
//!     JoinDef { name: j.clone(), ty_params: vec![], params: vec![x], body },
//!     Expr::jump(&j, vec![], vec![Expr::Lit(41)], Type::Int),
//! );
//! let ty = lint(&term, &dsl.data_env)?;
//! assert_eq!(ty, Type::Int);
//! # Ok::<(), fj_check::LintError>(())
//! ```

#![warn(missing_docs)]

mod env;
mod lint;

pub use env::{Delta, Gamma, JoinSig};
pub use lint::{lint, lint_open, type_of, LintError, LintErrorKind};

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{Alt, AltCon, Binder, DataEnv, Dsl, Expr, Ident, JoinDef, PrimOp, Type};

    fn ok(e: &Expr, env: &DataEnv) -> Type {
        match lint(e, env) {
            Ok(t) => t,
            Err(err) => panic!("expected well-typed, got: {err}\nterm:\n{e}"),
        }
    }

    fn bad(e: &Expr, env: &DataEnv) -> LintError {
        match lint(e, env) {
            Ok(t) => panic!("expected lint failure, got type {t}\nterm:\n{e}"),
            Err(err) => err,
        }
    }

    #[test]
    fn literals_and_prims() {
        let d = Dsl::new();
        assert_eq!(ok(&Expr::Lit(3), &d.data_env), Type::Int);
        let e = Expr::prim2(PrimOp::Lt, Expr::Lit(1), Expr::Lit(2));
        assert_eq!(ok(&e, &d.data_env), Type::bool());
    }

    #[test]
    fn lambda_and_application() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let f = Expr::lam(x.clone(), Expr::var(&x.name));
        assert_eq!(ok(&f, &d.data_env), Type::fun(Type::Int, Type::Int));
        let app = Expr::app(f, Expr::Lit(1));
        assert_eq!(ok(&app, &d.data_env), Type::Int);
    }

    #[test]
    fn wrong_argument_type_rejected() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let f = Expr::lam(x, Expr::Lit(0));
        let app = Expr::app(f, Expr::bool(true));
        let e = bad(&app, &d.data_env);
        assert!(matches!(e.kind, LintErrorKind::Mismatch { .. }));
    }

    #[test]
    fn polymorphic_identity() {
        let mut d = Dsl::new();
        let a = d.name("a");
        let x = d.binder("x", Type::Var(a.clone()));
        let id = Expr::ty_lam(a.clone(), Expr::lam(x.clone(), Expr::var(&x.name)));
        let t = ok(&id, &d.data_env);
        assert!(t.alpha_eq(&Type::forall(
            a.clone(),
            Type::fun(Type::Var(a.clone()), Type::Var(a))
        )));
        let inst = Expr::app(Expr::ty_app(id, Type::Int), Expr::Lit(5));
        assert_eq!(ok(&inst, &d.data_env), Type::Int);
    }

    #[test]
    fn constructors_and_case() {
        let mut d = Dsl::new();
        let scrut = d.just(Type::Int, Expr::Lit(4));
        let e = d.case_maybe(Type::Int, scrut, Expr::Lit(0), |_, x| Expr::var(x));
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    #[test]
    fn non_exhaustive_case_rejected() {
        let d = Dsl::new();
        let e = Expr::case(
            Expr::bool(true),
            vec![Alt::simple(AltCon::Con(Ident::new("True")), Expr::Lit(1))],
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::NonExhaustiveCase);
    }

    #[test]
    fn default_makes_exhaustive() {
        let d = Dsl::new();
        let e = Expr::case(
            Expr::bool(true),
            vec![
                Alt::simple(AltCon::Con(Ident::new("True")), Expr::Lit(1)),
                Alt::simple(AltCon::Default, Expr::Lit(0)),
            ],
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    #[test]
    fn literal_case_needs_default() {
        let d = Dsl::new();
        let no_default = Expr::case(
            Expr::Lit(1),
            vec![Alt::simple(AltCon::Lit(1), Expr::Lit(10))],
        );
        assert_eq!(
            bad(&no_default, &d.data_env).kind,
            LintErrorKind::NonExhaustiveCase
        );
        let with_default = Expr::case(
            Expr::Lit(1),
            vec![
                Alt::simple(AltCon::Lit(1), Expr::Lit(10)),
                Alt::simple(AltCon::Default, Expr::Lit(0)),
            ],
        );
        assert_eq!(ok(&with_default, &d.data_env), Type::Int);
    }

    /// The basic well-typed join: `join j x = x + 1 in jump j 41 Int`.
    #[test]
    fn simple_join_and_jump() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x.clone()],
                body: Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
            },
            Expr::jump(&j, vec![], vec![Expr::Lit(41)], Type::Int),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// Paper Sec. 3: `join j x = RHS in f (jump j True Int)` is ILL-typed —
    /// the jump sits in an argument position where Δ has been reset.
    #[test]
    fn jump_in_argument_position_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let f = d.binder("f", Type::fun(Type::Int, Type::Int));
        let x = d.binder("x", Type::bool());
        let join_body = Expr::app(
            Expr::var(&f.name),
            Expr::jump(&j, vec![], vec![Expr::bool(true)], Type::Int),
        );
        let e = Expr::lam(
            f,
            Expr::join1(
                JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![x],
                    body: Expr::Lit(0),
                },
                join_body,
            ),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// Paper Sec. 3: the function part of an application KEEPS Δ, so
    /// `(jump j True C2C) 'x'` is well-typed inside the join's body.
    #[test]
    fn jump_in_function_position_accepted() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::bool());
        // join j (x:Bool) = 0 in (jump j True (Int -> Int)) 7  : Int
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x],
                body: Expr::Lit(0),
            },
            Expr::app(
                Expr::jump(
                    &j,
                    vec![],
                    vec![Expr::bool(true)],
                    Type::fun(Type::Int, Type::Int),
                ),
                Expr::Lit(7),
            ),
        );
        // The jump annotation claims Int -> Int; applying to 7 gives Int,
        // matching the join RHS type Int.
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// Paper Sec. 3 "Gotcha!": a join whose RHS type differs from the body
    /// type is rejected by JBIND.
    #[test]
    fn join_result_mismatch_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        // join j = True in jump-free body of type Int
        let e = Expr::join1(
            JoinDef {
                name: j,
                ty_params: vec![],
                params: vec![],
                body: Expr::bool(true),
            },
            Expr::Lit(4),
        );
        let err = bad(&e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::JoinResultMismatch { .. }));
    }

    /// The callcc encoding (paper Sec. 9) must NOT type: a label free under
    /// a lambda.
    #[test]
    fn jump_under_lambda_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let y = d.binder("y", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x.clone()],
                body: Expr::var(&x.name),
            },
            // body: (\y. jump j y Int) 5  — jump under a lambda: rejected.
            Expr::app(
                Expr::lam(
                    y.clone(),
                    Expr::jump(&j, vec![], vec![Expr::var(&y.name)], Type::Int),
                ),
                Expr::Lit(5),
            ),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// Jumps survive in case scrutinees and branches (both keep Δ).
    #[test]
    fn jump_in_scrutinee_and_branches() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x.clone()],
                body: Expr::var(&x.name),
            },
            Expr::case(
                Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::bool()),
                vec![
                    Alt::simple(
                        AltCon::Con(Ident::new("True")),
                        Expr::jump(&j, vec![], vec![Expr::Lit(2)], Type::Int),
                    ),
                    Alt::simple(AltCon::Con(Ident::new("False")), Expr::Lit(0)),
                ],
            ),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// A polymorphic join point: `join j @a (x:a) = jump-free in …`.
    #[test]
    fn polymorphic_join() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let a = d.name("a");
        let x = Binder::new(d.name("x"), Type::Var(a.clone()));
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![a.clone()],
                params: vec![x],
                body: Expr::Lit(0),
            },
            Expr::jump(&j, vec![Type::bool()], vec![Expr::bool(false)], Type::Int),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
        // Wrong instantiation: passing a Bool where `a := Bool` but the
        // parameter was declared Int.
        let bad_e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![a],
                params: vec![Binder::new(d.name("x"), Type::Int)],
                body: Expr::Lit(0),
            },
            Expr::jump(&j, vec![Type::bool()], vec![Expr::bool(false)], Type::Int),
        );
        let err = bad(&bad_e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::Mismatch { .. }));
    }

    /// Recursive join points scope over their own right-hand sides.
    #[test]
    fn recursive_join_loop() {
        let mut d = Dsl::new();
        let env = d.data_env.clone();
        let e = d.joinrec_loop(
            "go",
            vec![("n", Type::Int)],
            |_, go, ps| {
                Expr::ite(
                    Expr::prim2(PrimOp::Le, Expr::var(&ps[0]), Expr::Lit(0)),
                    Expr::Lit(0),
                    Expr::jump(
                        go,
                        vec![],
                        vec![Expr::prim2(PrimOp::Sub, Expr::var(&ps[0]), Expr::Lit(1))],
                        Type::Int,
                    ),
                )
            },
            |_, go| Expr::jump(go, vec![], vec![Expr::Lit(10)], Type::Int),
        );
        assert_eq!(ok(&e, &env), Type::Int);
    }

    /// A NON-recursive join must not see itself (its own jump is unbound).
    #[test]
    fn nonrec_join_cannot_self_jump() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::jump(&j, vec![], vec![], Type::Int),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// Jumps with wrong arity are rejected.
    #[test]
    fn jump_arity_mismatch() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![x],
                body: Expr::Lit(0),
            },
            Expr::jump(&j, vec![], vec![], Type::Int),
        );
        let err = bad(&e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::Arity { .. }));
    }

    /// `let` right-hand sides reset Δ: a jump there is rejected.
    #[test]
    fn jump_in_let_rhs_rejected() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let v = d.binder("v", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::Lit(0),
            },
            Expr::let1(
                v.clone(),
                Expr::jump(&j, vec![], vec![], Type::Int),
                Expr::var(&v.name),
            ),
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundLabel(j));
    }

    /// …but `let` *bodies* keep Δ.
    #[test]
    fn jump_in_let_body_accepted() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let v = d.binder("v", Type::Int);
        let e = Expr::join1(
            JoinDef {
                name: j.clone(),
                ty_params: vec![],
                params: vec![],
                body: Expr::Lit(0),
            },
            Expr::let1(v, Expr::Lit(5), Expr::jump(&j, vec![], vec![], Type::Int)),
        );
        assert_eq!(ok(&e, &d.data_env), Type::Int);
    }

    /// Lenient `type_of` accepts jumps to out-of-fragment labels.
    #[test]
    fn type_of_is_lenient_about_labels() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let e = Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::bool());
        assert!(lint(&e, &d.data_env).is_err());
        let t = type_of(&e, &d.data_env, &Gamma::new()).unwrap();
        assert_eq!(t, Type::bool());
    }

    /// Unbound variables are still errors even leniently.
    #[test]
    fn type_of_still_requires_vars() {
        let mut d = Dsl::new();
        let x = d.name("x");
        let e = Expr::var(&x);
        assert!(type_of(&e, &d.data_env, &Gamma::new()).is_err());
        let mut g = Gamma::new();
        g.bind_var(x, Type::Int);
        assert_eq!(type_of(&e, &d.data_env, &g).unwrap(), Type::Int);
    }

    /// A case alternative's field is out of scope in its siblings.
    #[test]
    fn case_field_is_not_visible_in_a_sibling_alternative() {
        let mut d = Dsl::new();
        let y = d.binder("y", Type::Int);
        let e = Expr::case(
            Expr::Con(Ident::new("Just"), vec![Type::Int], vec![Expr::Lit(4)]),
            vec![
                Alt {
                    con: AltCon::Con(Ident::new("Just")),
                    binders: vec![y.clone()],
                    rhs: Expr::var(&y.name),
                },
                Alt::simple(AltCon::Con(Ident::new("Nothing")), Expr::var(&y.name)),
            ],
        );
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundVar(y.name), "{err}");
        assert_eq!(err.path, vec!["case alt Nothing".to_string()]);
    }

    /// A lambda's parameter is out of scope once its body is done.
    #[test]
    fn lambda_parameter_is_not_visible_after_its_body() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let e = Expr::app(Expr::lam(x.clone(), Expr::var(&x.name)), Expr::var(&x.name));
        let err = bad(&e, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundVar(x.name), "{err}");
        assert_eq!(err.path, vec!["argument".to_string()]);
    }

    /// A join point's parameters scope over its right-hand side only:
    /// not over the join body, and not past the join.
    #[test]
    fn join_parameter_is_not_visible_in_the_join_body() {
        let mut d = Dsl::new();
        let j = d.name("j");
        let x = d.binder("x", Type::Int);
        let r = d.binder("r", Type::Int);
        let def = JoinDef {
            name: j.clone(),
            ty_params: vec![],
            params: vec![x.clone()],
            body: Expr::var(&x.name),
        };
        let in_body = Expr::join1(def.clone(), Expr::var(&x.name));
        let err = bad(&in_body, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundVar(x.name.clone()), "{err}");
        assert_eq!(err.path, vec!["join body".to_string()]);
        // let r = (join j x = x in jump j 1) in x
        let after = Expr::let1(
            r.clone(),
            Expr::join1(def, Expr::jump(&j, vec![], vec![Expr::Lit(1)], Type::Int)),
            Expr::var(&x.name),
        );
        let err = bad(&after, &d.data_env);
        assert_eq!(err.kind, LintErrorKind::UnboundVar(x.name), "{err}");
        assert_eq!(err.path, vec![format!("let {} body", r.name)]);
    }

    /// An inner binder that shadows a name (in the term, or in the
    /// caller's Γ) hides the outer type only inside its own scope.
    #[test]
    fn shadowed_binder_restores_the_outer_type() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let inner = Binder::new(x.name.clone(), Type::bool());
        // (let x : Bool = True in 0) + x   — x is Int again on the right.
        let shadow_then_use = Expr::prim2(
            PrimOp::Add,
            Expr::let1(inner.clone(), Expr::bool(true), Expr::Lit(0)),
            Expr::var(&x.name),
        );
        let e = Expr::lam(x.clone(), shadow_then_use.clone());
        assert_eq!(ok(&e, &d.data_env), Type::fun(Type::Int, Type::Int));
        // The same against a base Γ that binds x : Int.
        let mut g = Gamma::new();
        g.bind_var(x.name.clone(), Type::Int);
        assert_eq!(
            lint_open(&shadow_then_use, &d.data_env, &g).unwrap(),
            Type::Int
        );
        // Inside the shadow, x is a Bool, so using it as an Int fails.
        let inside = Expr::let1(
            inner,
            Expr::bool(true),
            Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(1)),
        );
        let err = lint_open(&inside, &d.data_env, &g).unwrap_err();
        assert!(matches!(err.kind, LintErrorKind::Mismatch { .. }), "{err}");
        assert_eq!(
            type_of(&Expr::var(&x.name), &d.data_env, &g).unwrap(),
            Type::Int
        );
    }

    /// Complexity guard: a `type_of` query costs the size of its term, not
    /// that times the size of the caller's Γ (Γ used to be copied at
    /// every binder).
    #[test]
    fn type_of_does_not_copy_a_large_base_gamma() {
        let mut d = Dsl::new();
        let mut g = Gamma::new();
        for _ in 0..100_000 {
            g.bind_var(d.name("g"), Type::Int);
        }
        let params: Vec<Binder> = (0..1_000).map(|_| d.binder("x", Type::Int)).collect();
        let body = Expr::var(&params[0].name);
        let term = Expr::lams(params, body);
        let start = std::time::Instant::now();
        let t = type_of(&term, &d.data_env, &g).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            t,
            Type::funs(std::iter::repeat_n(Type::Int, 1_000), Type::Int)
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "1,000 lambdas under a 100,000-binding Γ took {elapsed:?}"
        );
    }

    /// The error path breadcrumbs name the binders on the way to the
    /// fault, so a rollback reason (or a user diagnostic) points at the
    /// actual culprit binding, not just "somewhere in the term".
    #[test]
    fn error_path_names_the_culprit_binder() {
        let mut d = Dsl::new();
        let outer = d.binder("outer", Type::Int);
        let culprit = d.binder("culprit", Type::Int);
        let ghost = d.name("ghost");
        // let outer = 1 in let culprit = ghost in culprit
        //                                 ^^^^^ unbound
        let e = Expr::let1(
            outer.clone(),
            Expr::Lit(1),
            Expr::let1(culprit.clone(), Expr::var(&ghost), Expr::var(&culprit.name)),
        );
        let err = bad(&e, &d.data_env);
        assert!(matches!(err.kind, LintErrorKind::UnboundVar(_)), "{err:?}");
        let outer_step = format!("let {} body", outer.name);
        let culprit_step = format!("let {} rhs", culprit.name);
        assert_eq!(err.path, vec![outer_step, culprit_step], "{err}");
        // And the rendered diagnostic carries the trail.
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("let {} rhs", culprit.name)),
            "diagnostic lost the breadcrumb: {msg}"
        );
    }
}

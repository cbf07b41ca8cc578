(** IR optimization pipeline — runs on lowered [Stmt]/[Expr] between
    {!Lower} (well, the lowered kernel body it produced) and engine
    compilation.

    Cooperating pieces, mirroring the paper's §D.7 load hoisting, its
    operation splitting, and the LoopStack-style innermost-loop
    specialization:

    - {b loop-invariant code motion} ({!licm}): ragged-offset
      subexpressions — [A_d] prelude-table reads ([Ufun]s), affine index
      products — are hoisted to the outermost loop level where their free
      variables are bound, becoming [Let_stmt] preheaders;
    - {b select splitting} ({!select_split}): a loop storing
      [(v cmp e) ? x : y] is split where the condition flips into two
      select-free loops, which the microkernels below can take;
    - {b affine decomposition} ({!affine_in}): rewrites an index
      expression as [base + var * stride], the analysis behind strength
      reduction (running offsets instead of re-evaluated address trees);
    - {b innermost-loop classification} ({!classify_inner}): recognizes
      dense dot / reduction / copy / scale loop bodies so the engine can
      emit fused microkernels;
    - {b stride and nest classification} ({!classify_stride},
      {!classify_nest}): folds affine strides to compile-time classes
      (statically-unit / statically-constant / dynamic) and recognizes
      register-tilable dot nests, so the [O3] engine selects a
      specialized kernel variant when the closure is built rather than
      per call.

    The pipeline itself never changes observable values: hoisting moves
    only {e pure integer} expressions (no loads, no float ops, no
    division by a possibly-zero expression), so the optimized program is
    bitwise-identical to the unoptimized one on well-formed kernels.
    What {e does} change is the statistics profile: hoisted [Ufun] reads
    bump [loads]/[indirect] once per preheader entry instead of once per
    iteration.  That difference is deliberate, documented, and measured
    by the engine's [hoisted] counter.

    Speculation caveat: a hoisted binding is evaluated even when every
    loop below it runs zero iterations (or every guard below it is
    false), where the unoptimized program would not have evaluated it.
    This is safe for the expressions we hoist — prelude tables are total
    over the variables bound at the preheader — and is the standard LICM
    trade; the differential fuzz in [test/test_optimize.ml] exercises it
    across guarded, padded and zero-length schedules. *)

(** Optimization level, threaded from [Exec]/[Serving]/the CLI down to
    {!Runtime.Engine.compile}:
    [O0] — none: the reference level (bit- and counter-exact interpreter
    parity);
    [O3] — divmod elimination + LICM + select splitting,
    strength-reduced innermost store loops, and fused microkernels whose
    stride-specialized, register-tiled variants are selected at closure-build time from
    {!classify_stride} / {!classify_nest} (outputs stay
    bitwise-identical; the unfused compiled loop remains the aliasing
    fallback). *)
type level = O0 | O3

val level_of_int : int -> level
(** [0 -> O0], [3 -> O3]; raises [Invalid_argument] on any other
    integer. *)

val int_of_level : level -> int
val level_name : level -> string

(** Per-run report of what the pipeline did. *)
type report = { hoisted : int  (** [Let_stmt] preheader bindings created *) }

(** Display name given to every hoisted binding's variable — the engine
    recognizes it to maintain its [hoisted] runtime counter. *)
val hoist_var_name : string

val licm : Stmt.t -> Stmt.t * report
(** Loop-invariant code motion (pass [optimize.licm], traced as a span;
    bindings created are counted in the [optimize.hoisted] metric). *)

val select_split : Stmt.t -> Stmt.t * report
(** Index-set splitting (pass [optimize.select_split]; splits counted in
    the [optimize.select_splits] metric) — the paper's operation
    splitting for a condition inside a loop.  A loop whose body is a
    single [d[..] = (v cmp e) ? x : y], where [v] is the loop variable,
    [cmp] is one of [< <= > >=] (with [v] on either side) and [e] is
    [v]-invariant and integer-pure under the in-scope int variables,
    becomes
    [let lo = min; let hi = lo + extent; let cut = max(lo, min(e', hi));]
    followed by one loop over [[lo, cut)] and one over [[cut, hi)] storing
    [x] and [y] in the order the condition visits them ([e' = e + 1] for
    [<=] and [>]).  Both loops keep the original loop kind; the second
    binds a fresh copy of the loop variable, and each part is split
    again if its value is itself such a select.  The iterations and
    their order are the original loop's and a [Select] never evaluates
    its untaken branch, so outputs are bitwise unchanged; [e] is
    evaluated once, also when the range is empty (the LICM speculation
    rule).  [If] guards are left alone. *)

val run : level:level -> Stmt.t -> Stmt.t * report
(** Run the pass list for [level] ([O0] is the identity; [O3] runs
    divmod elimination, {!licm}, then {!select_split}). *)

(* ------------------------------------------------------------------ *)
(* Analyses used by the engine's strength reduction and microkernels *)

(** [index = base + var * stride], with [base] and [stride] free of [var]. *)
type affine = { base : Expr.t; stride : Expr.t }

val affine_in : Var.t -> Expr.t -> affine option
(** Structural affine decomposition w.r.t. [var].  Exact in integer
    arithmetic (only reassociates [+]/[-]/[*]); [None] when the
    expression is not affine in [var] (e.g. [var] under floordiv/mod). *)

(** Innermost-loop body shapes the engine fuses into microkernels.  All
    index fields are affine in the loop variable; [dst_idx] of the
    reductions is invariant in it (the register-accumulation condition). *)
type inner =
  | Dot of {
      dst : Var.t;
      dst_idx : Expr.t;
      op : Stmt.reduce_op;
      a : Var.t;
      a_ix : affine;
      b : Var.t;
      b_ix : affine;
    }  (** [dst[dst_idx] op= a[..] * b[..]] — the gemm/attention inner loop *)
  | Reduce1 of { dst : Var.t; dst_idx : Expr.t; op : Stmt.reduce_op; src : Var.t; src_ix : affine }
      (** [dst[dst_idx] op= src[..]] — row max / row sum *)
  | Copy of { dst : Var.t; dst_ix : affine; src : Var.t; src_ix : affine }
      (** [dst[..] = src[..]] — row gather / scatter *)
  | Scale of { dst : Var.t; dst_ix : affine; src : Var.t; src_ix : affine; factor : float }
      (** [dst[..] = src[..] * c] (or [c * src[..]]) with a literal [c] *)

val classify_inner : var:Var.t -> Stmt.t -> inner option
(** Classify a loop {e body} (single statement, no [Seq]/[If] wrapper)
    against the microkernel shapes, w.r.t. loop variable [var]. *)

val const_of : Expr.t -> int option
(** Conservative integer constant folding over [+ - * min max]; [None]
    for anything that does not fold to a literal. *)

(** Compile-time class of an affine stride, deciding which [O3] kernel
    variant the engine binds when the closure is built:
    [S_unit] — folds to literal [1] (contiguous; unrolled kernels and
    [Array.blit] copies apply);
    [S_const n] — folds to literal [n] (the step can be baked into the
    closure);
    [S_dyn] — anything else (evaluated at block entry; strided kernels). *)
type stride_class = S_unit | S_const of int | S_dyn

val classify_stride : affine -> stride_class

(** Two-deep nest shape the engine register-tiles at [O3]: a loop over
    the tile var whose body is a serial dot loop writing a distinct
    destination element per tile-var iteration.  [shared]'s address is
    tile-var-invariant (one load serves every chain of the tile);
    [moving]'s reduction stride is tile-var-invariant while its base
    advances affinely with the tile var.  Each destination element keeps
    its own order-preserving accumulator chain, so the chains are
    independent and tiling cannot perturb float results. *)
type nest =
  | Tiled_dot of {
      dst : Var.t;
      dst_ix : affine;  (** destination index, affine in the tile var *)
      guard : Expr.t option;
          (** raggedness guard, pure, evaluated per tile-var value *)
      init : Expr.t option;
          (** init-store value for the dot's cell, evaluated per tile-var
              value; [None] means accumulate into the existing cell *)
      init_bufs : Var.t list;
          (** buffers the init value loads from (beyond the cell itself) —
              the engine falls back if any aliases the destination *)
      epi : Stmt.t option;
          (** epilogue store rewriting the finished cell, run per tile-var
              value after its chain completes *)
      epi_bufs : Var.t list;  (** like [init_bufs], for the epilogue *)
      vmask : Expr.t option;
          (** inner-var-invariant mask conjuncts, pure, evaluated per
              tile-var value; false means the chain only accumulates
              zeros *)
      kbound : Expr.t option;
          (** mask conjunct [kvar < kbound] (tile-var-invariant): real
              products stop there, the rest of the chain adds zeros *)
      kmin : Expr.t;  (** inner loop bounds, tile-var-invariant *)
      kext : Expr.t;
      shared : Var.t;
      shared_ix : affine;  (** affine in the inner var; tile-var-invariant *)
      shared_left : bool;  (** shared operand is the left multiplicand *)
      moving : Var.t;
      moving_kstride : Expr.t;  (** inner-var stride, tile-var-invariant *)
      moving_jbase : affine;  (** inner-var base, as affine in the tile var *)
    }

val classify_nest : var:Var.t -> Stmt.t -> nest option
(** Classify a loop {e body} against the register-tilable nest shape,
    w.r.t. tile variable [var].  The body may be the inner [For]
    directly, or the shape lowering actually produces:
    [If (guard) { dst[i] = init; let hv = ...;
                  for k { dst[i] += mask ? a[..]*b[..] : 0. };
                  dst[i] = epi }]
    — the guard, init value, mask conjuncts and epilogue store are kept
    in the result for the engine to evaluate per tile-var value (init and
    epilogue only when they address exactly the dot's own cell; masks
    split into tile-var-wise conjuncts and one [k < bound] threshold; the
    masked dot's false branch must be literal [+0.0], which the tiled
    kernel reproduces by skipping the zero adds and clearing a possible
    [-0.0] accumulator).  Pure-integer [Let_stmt] preheader bindings are
    inlined into the returned expressions.  [Sum] reductions only. *)

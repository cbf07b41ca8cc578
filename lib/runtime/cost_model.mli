(** Analytic cost model over lowered IR: counts the scalar work a kernel
    performs (flops, index arithmetic, loads, auxiliary/indirect accesses,
    stores, branches, intrinsics) with trip counts evaluated numerically
    from the launch-time environment — so padding waste, the paper's
    central quantity, is measured exactly without executing floating-point
    work.  Loop nodes memoise on control-relevant outer values, making
    transformer-sized kernels cost out in microseconds. *)

type counts = {
  flops : float;
  iops : float;
  loads : float;
  indirect : float;  (** prelude-table (uninterpreted-function) accesses *)
  stores : float;
  branches : float;
  intrinsics : float;
}

val zero_counts : counts
val ( ++ ) : counts -> counts -> counts
val scale : float -> counts -> counts
val total : counts -> float

(** Machine-shape parameters: within-block thread parallelism and SIMD
    width (per-op costs live in the device model). *)
type params = { lanes : int; vec_width : int }

type env = {
  mutable vars : int Ir.Var.Map.t;
  ufuns : (string, int list -> int) Hashtbl.t;
}

val env_create : unit -> env
val bind_var : env -> Ir.Var.t -> int -> unit
val bind_ufun : env -> string -> (int list -> int) -> unit

exception Cost_error of string

(** Evaluate an integer / boolean control expression. *)
val eval_int : env -> Ir.Expr.t -> int

val eval_bool : env -> Ir.Expr.t -> bool

(** Static per-evaluation counts of an expression ([Select] counts both
    arms, as predication would). *)
val expr_counts : Ir.Expr.t -> counts

(** {2 Compile once, evaluate per call}

    A {!prog} is a statement compiled once: variables and uninterpreted
    functions resolved to integer slots, loop nodes numbered.  It is
    immutable, so one program serves any number of evaluations — on any
    domain — whose length tables differ.  Each evaluation allocates its
    own slot values, bound functions and loop memos; the memos are shared
    across the blocks of that evaluation and keyed by arrays of the
    control-relevant outer variables' values. *)

(** A bound uninterpreted function: its one-argument fast path and the
    general form (which also reports arity errors). *)
type ufun = { call1 : int -> int; calln : int list -> int }

type prog

(** [prepare ?grid_kind params stmt] — with [~grid_kind], the leading
    loops of that kind (and the lets between them) are peeled exactly as
    {!enumerate_blocks} peels them, and {!iter_blocks} visits one block
    per index combination; without it the whole statement is one block.
    Nested GPU-thread loops consume the lane budget multiplicatively;
    [Vectorized] loops divide by the SIMD width; loads/stores to
    [Alloc]ed scratch count as cheap integer ops, not memory traffic.
    Every loop-node memo lookup is counted in the {!Obs.Metrics} registry
    under [cost_model.memo_hits] / [cost_model.memo_misses]. *)
val prepare : ?grid_kind:Ir.Stmt.for_kind -> params -> Ir.Stmt.t -> prog

(** Evaluate every block in enumeration order, passing each block's
    counts to the callback.  [ufun] resolves the program's function names
    once per call (an unresolved name raises {!Cost_error} only if
    evaluated); [vars] (default empty) binds free variables. *)
val iter_blocks :
  ?vars:int Ir.Var.Map.t -> prog -> ufun:(string -> ufun option) -> (counts -> unit) -> unit

(** The counts of a program prepared without [~grid_kind] (its single
    block). *)
val eval : ?vars:int Ir.Var.Map.t -> prog -> ufun:(string -> ufun option) -> counts

(** Enumerate the grid: peel leading loops of [grid_kind], one block per
    index combination, returning each block's variable assignment and
    body. *)
val enumerate_blocks :
  grid_kind:Ir.Stmt.for_kind -> env -> Ir.Stmt.t -> (int Ir.Var.Map.t * Ir.Stmt.t) list

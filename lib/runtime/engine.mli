(** Compiled execution engine: a one-pass compiler from the lowered IR to
    nested OCaml closures over a slot-indexed frame.

    Where {!Interp} walks the tree re-resolving every variable through a
    [Var.Map] and every prelude table through a string-keyed [Hashtbl], the
    engine resolves those names {e once, at compile time}: scalar variables
    become integer slots into unboxed [int array] / [float array] /
    [bool array] frames, buffers become direct [float array] references,
    and 1-argument uninterpreted functions become direct int-array
    indexing.  Evaluation is staged into separate int / float / bool
    closure types, so the hot path never boxes a scalar.

    The engine maintains the same [loads] / [stores] / [flops] /
    [indirect] / [guards] / [guard_hits] counters as {!Interp}, with the
    same per-IR-node accounting — a compiled run at the default [O0]
    level is differentially comparable against the interpreter
    counter-for-counter and bit-for-bit (see [test/test_engine.ml]).

    {b Optimization levels.}  There are two: [O0], the reference just
    described, and [O3], the serving level.  [compile ~opt:O3] runs the
    {!Ir.Optimize} pipeline first and enables the engine-side
    specializations below.  The {e outputs} stay bitwise-identical to the
    interpreter; the counter profile legitimately differs (and two extra
    counters appear):
    - LICM preheaders ([hoisted] counts their evaluations; loads and
      indirect accesses inside hoisted expressions are counted once per
      preheader entry instead of once per iteration), plus
      strength-reduced innermost store loops (running offsets; bounds
      checks collapse to loop-endpoint checks, so counter divergence on
      error paths only).
    - Select splitting ({!Ir.Optimize.select_split}) turns a loop
      storing [(v cmp e) ? x : y] into two select-free loops bound by
      [lo]/[hi]/[cut] lets (not counted as [hoisted]); the condition is
      evaluated once instead of per element, and each half is then
      eligible for the microkernels below — the decode step's KV-cache
      sweep becomes one unrolled scale and one blit.
    - Innermost dot / reduction / copy / scale loops fuse into
      microkernels ([microkernel_elems] counts the elements they
      process; bulk counter accounting with the same success-path
      totals, except address-tree traffic which follows the LICM rule
      above).  The microkernel {e body} is selected from the
      {!Microkernel} registry when the closure is built —
      {!Ir.Optimize.classify_stride} picks unit-stride unrolled /
      [Array.blit] variants over strided fallbacks, and
      {!Ir.Optimize.classify_nest} register-tiles a two-deep sum-dot nest
      (four destination chains per pass, the shared operand loaded once
      per reduction step).  Selection is per compiled loop, never per
      call ([engine.mk_variant.*] counters record it); every variant
      keeps one order-preserving accumulator chain per destination
      element, so outputs remain bitwise-identical.  Aliased
      destinations, zero destination strides and zero-trip reductions
      fall back to the unfused compiled loop at runtime.

    [Alloc] scratch buffers come from {!Buffer.Arena.global} and return
    to it when the body finishes, so steady-state reruns allocate no
    fresh float storage.

    [Parallel]-bound loops execute on a persistent {!Pool} of domains
    (spawned once per [Exec.run], chunked work queue) instead of
    [Domain.spawn] per loop encounter; per-chunk counters are folded into
    the parent frame exactly as {!Interp.exec_multicore} folds per-
    iteration counters, so totals agree with a serial run.

    Restrictions (by design — lowered kernels satisfy them): buffers are
    float-only ({!bind_buf} rejects [Buffer.I]); programs must be
    scalar-typable at compile time (type mismatches that the interpreter
    would only hit at runtime are reported by {!compile}); a buffer or
    let-bound variable is never referenced outside its binding scope. *)

exception Error of string

(** Persistent domain pool: a fixed set of worker domains blocked on a
    condition variable, fed chunked parallel-for jobs.  The caller of
    {!Pool.run} participates in draining the chunk queue, so a pool
    created with [~domains:n] applies [n]-way parallelism with [n - 1]
    spawned domains. *)
module Pool : sig
  type t

  (** [create ~domains ()] spawns [domains - 1] worker domains. *)
  val create : ?domains:int -> unit -> t

  (** Total parallelism (worker domains + the calling domain). *)
  val parallelism : t -> int

  (** [run t ~chunks f] executes [f 0 .. f (chunks - 1)] across the pool
      and the calling domain; returns when every chunk has finished.  The
      first exception raised by any chunk is re-raised here. *)
  val run : t -> chunks:int -> (int -> unit) -> unit

  (** Stop and join the worker domains.  Idempotent. *)
  val shutdown : t -> unit
end

(** A compiled kernel body: closure tree + frame layout.  Compile once per
    structural signature, then instantiate a fresh {!frame} per request. *)
type compiled

(** A run instance: the slot arrays, buffer / ufun bindings and statistics
    counters for one execution of a {!compiled} kernel. *)
type frame

(** Compile a lowered statement.  [opt] (default [O0]) selects the
    {!Ir.Optimize} level; see the module docs for the parity contract per
    level.  Raises {!Error} on unbound variables, compile-time type
    mismatches, unknown intrinsics, or [Access] nodes that storage
    lowering should have eliminated. *)
val compile : ?opt:Ir.Optimize.level -> Ir.Stmt.t -> compiled

(** Fresh frame with zeroed counters, no buffers bound, all uninterpreted
    functions unbound. *)
val frame : compiled -> frame

(** Bind a buffer.  Names the compiled kernel never references are
    silently ignored (preludes are shared across kernels). *)
val bind_buf : frame -> Ir.Var.t -> Buffer.t -> unit

(** Bind a 1-argument ufun backed by an int array — the fast path: a table
    access compiles to one bounds check and one array read. *)
val bind_ufun_table : frame -> string -> int array -> unit

(** Bind a 1-argument ufun backed by an OCaml function (length functions). *)
val bind_ufun1 : frame -> string -> (int -> int) -> unit

(** Bind a constant ufun — prelude [Scalar] values; accepts any arity at
    the call site, like the interpreter's [fun _ -> n] binding. *)
val bind_ufun_const : frame -> string -> int -> unit

(** Execute the frame.  Raises {!Error} up front if any externally-bound
    buffer or any uninterpreted function referenced by the kernel is still
    unbound — the compiled analogue of the interpreter's lazy "unbound"
    errors.  When [pool] is given, [Parallel]-bound loops run across it
    (counters still fold to serial-identical totals); otherwise they run
    serially, like {!Interp.exec}. *)
val run : ?pool:Pool.t -> frame -> unit

(** Counter snapshot: the {!Interp.stats} names in the same fixed order,
    followed by the engine-only [hoisted] and [microkernel_elems]. *)
val stats : frame -> (string * int) list

(** Add the frame's counters into the process-wide {!Obs.Metrics} registry
    under [engine.loads], [engine.stores], [engine.flops],
    [engine.indirect], [engine.guards], [engine.guard_hits],
    [engine.hoisted], [engine.microkernel_elems]. *)
val flush_metrics : frame -> unit

(** [balance_chunks weights k] cuts the index range [0 .. n-1] (with
    per-index [weights]) into [k] contiguous chunks of roughly equal
    total weight, returned as [k + 1] ascending cut points (first [0],
    last [n], every chunk nonempty while indices remain).  Used to size
    parallel chunks from {!Cost_model} estimates; exposed for tests. *)
val balance_chunks : int array -> int -> int array

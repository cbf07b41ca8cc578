(** Kernel execution — the runtime half of Fig. 4: build the (deduplicated)
    prelude on the host, bind aux tables, length functions and tensor
    buffers, then execute the kernels in order through the selected engine.
    Used wherever real numerics are needed; performance questions go to
    {!Machine.Launch}.

    Traced as one [exec.run] span (prelude build inside) plus one
    [exec.kernel] span per kernel; statistics counters are flushed into
    the {!Obs.Metrics} registry under [interp.*] or [engine.*]. *)

type binding = Tensor.t * Runtime.Buffer.t

(** [`Interp] walks the tree through {!Runtime.Interp} (ground truth);
    [`Compiled] stages each kernel into slot-resolved closures through
    {!Runtime.Engine} — same results, same counters, interpretive overhead
    gone.  A run compiles its kernels unless given {!handles}. *)
type engine = [ `Interp | `Compiled ]

(** Compiled-engine handles for one kernel list at one optimization
    level: each kernel is compiled on its first use and reused by every
    later run given these handles ([engine.compile] span per compile).
    Compiled closures are immutable, so handles are shared across
    domains; two domains racing on a cold kernel may both compile it
    (benign).  A serving plan holds one per structure. *)
type handles

val handles : opt:Ir.Optimize.level -> Lower.kernel list -> handles

(** Compile every kernel not yet compiled; returns how many were compiled
    by this call (0 once the handles are warm).  Raises
    {!Runtime.Engine.Error} if the engine rejects a kernel. *)
val compile_handles : handles -> int

(** Returns the interpreter environment (for statistics — identical
    counter semantics under both engines) and the prelude used (for
    overhead accounting).  [~multicore:true] executes [Parallel]-bound
    loops across [domains] OCaml domains: per-loop [Domain.spawn] under
    [`Interp], one persistent domain pool per call under [`Compiled]; the
    statistics are aggregated either way.  [?prelude] supplies
    already-built aux structures (e.g. from {!Prelude_cache}), skipping
    the build.  [?opt] (default [O0], compiled engine only) selects the
    {!Ir.Optimize} level — outputs stay bitwise-identical at every level;
    counter parity with the interpreter holds at [O0] only (see
    {!Runtime.Engine}).  [?handles] (compiled engine only) must have been
    made from this very kernel list at this [opt] ([Invalid_argument]
    otherwise); without them every kernel is compiled for this call. *)
val run :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?multicore:bool -> ?domains:int ->
  ?prelude:Prelude.built -> ?handles:handles ->
  lenv:Lenfun.env -> bindings:binding list -> Lower.kernel list ->
  Runtime.Interp.env * Prelude.built

val run_ragged :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?multicore:bool -> ?domains:int ->
  ?prelude:Prelude.built -> ?handles:handles ->
  lenv:Lenfun.env -> tensors:Ragged.t list -> Lower.kernel list ->
  Runtime.Interp.env * Prelude.built

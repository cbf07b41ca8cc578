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
    gone.  Compiled kernels are memoized per structural signature. *)
type engine = [ `Interp | `Compiled ]

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
    {!Runtime.Engine}). *)
val run :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?multicore:bool -> ?domains:int ->
  ?prelude:Prelude.built ->
  lenv:Lenfun.env -> bindings:binding list -> Lower.kernel list ->
  Runtime.Interp.env * Prelude.built

val run_ragged :
  ?engine:engine -> ?opt:Ir.Optimize.level -> ?multicore:bool -> ?domains:int ->
  ?prelude:Prelude.built ->
  lenv:Lenfun.env -> tensors:Ragged.t list -> Lower.kernel list ->
  Runtime.Interp.env * Prelude.built

(** Per-request compiled-kernel-memo accounting.  [with_engine_stats f]
    runs [f] with a fresh tally scoped to the calling domain (like
    {!Lower.with_memo}): every memo probe made by [f] — and nothing made
    by overlapping requests on other domains — is counted.  Nested
    scopes shadow; the previous scope is restored on exit. *)
type engine_stats = { mutable hits : int; mutable misses : int }

val with_engine_stats : (unit -> 'a) -> 'a * engine_stats

(** Clear the [(Sig, opt level)]-keyed compiled-kernel memo (paired with
    {!Lower.clear_memo} by [Serving.Server.reset_caches]). *)
val clear_engine_memo : unit -> unit

(** Number of compiled kernels currently memoized.  The memo is shared
    across serving worker domains: mutex-protected and bounded with
    least-recently-used eviction ([engine_cache.evicted] counter). *)
val engine_memo_size : unit -> int

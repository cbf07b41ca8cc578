(** The serving loop's core: handle one request = compile (through the
    {!Cora.Lower} compile cache), build the prelude (through
    {!Cora.Prelude_cache}, keyed by the batch's raggedness signature),
    time the pipeline on the machine model, and optionally execute it
    through the reference interpreter.

    Both caches can be bypassed per server — a bypassed server recompiles
    and rebuilds everything per request, which is what the differential
    tests compare against.  Latencies are model time (deterministic), not
    wall time; each request runs under a [serve.request] span and lands in
    the [serve.model_ns] histogram. *)

(** Interpreter statistics of one request, for differential comparison. *)
type counters = (string * int) list

type response = {
  model_ns : float;  (** kernels + (on prelude miss) host build + copy *)
  kernels_ns : float;
  prelude_host_ns : float;  (** 0 on a prelude-cache hit *)
  prelude_copy_ns : float;  (** 0 on a prelude-cache hit *)
  compile_hits : int;  (** compile-cache hits while building this job *)
  compile_misses : int;
  prelude_hit : bool;
  engine_hits : int;  (** compiled-kernel-memo hits of this request *)
  engine_misses : int;
  arena_hits : int;  (** arena acquisitions recycled / freshly allocated *)
  arena_misses : int;
  tables_hex : string;  (** hex raggedness signature of the batch ({!Cora.Sig.to_hex}) *)
  tuner : string;
      (** autotuner state of this request: ["off"] (tuning disabled or
          workload not tunable), ["miss"] (hand schedule served, memo
          warmed after the pipeline), ["tuned"] (memo hit, tuned schedule
          served), ["hand"] (memo hit, search kept the hand schedule) *)
  tune_us : float;  (** wall time of the post-pipeline tune; 0 unless ["miss"] *)
  stages_us : (string * float) list;
      (** wall-clock duration of each pipeline stage, in request order:
          [("compile", _); ("prelude", _); ("launch", _); ("execute", _)] *)
  counters : counters option;  (** [None] when execution is off *)
  out : float array option;  (** dense (padded) output values *)
  checksum : float;  (** sum of [out]; 0 when execution is off *)
}

type t

(** [create ()] — a server with both caches on.  [~execute:false] skips
    execution (machine-model timing only): streams too large to execute
    still exercise both caches.  [~engine] selects how [~execute:true]
    requests run: the reference interpreter (default) or the compiled
    closure engine — identical outputs and counters, far less overhead
    (see {!Cora.Exec.engine}).  [~opt] (default [O0], compiled engine
    only) selects the {!Ir.Optimize} level — outputs stay
    bitwise-identical at every level.

    Tensor buffers for execution come from the process-wide
    {!Cora.Runtime.Buffer.Arena} (power-of-two size classes, released
    after the response's output is unpacked), so a steady-state request
    stream allocates no fresh float arrays — watch [arena.hit] /
    [arena.miss].

    [~autotune] enables the online schedule autotuner: requests for
    workloads with a {!Workload.tunable} descriptor consult the tuner
    memo (keyed by workload name and {!Cora.Sig.of_tables} over the
    length tables); a hit with a winning point serves the tuned
    schedule, a miss serves the hand schedule and runs a budgeted
    two-stage search after the response's pipeline completes — so tuning
    never delays the response's own stages, and every response stays
    bitwise-identical to an untuned replay (the candidate spaces only
    move data-axis loop structure). *)
val create :
  ?device:Machine.Device.t ->
  ?compile_cache:bool -> ?prelude_cache:bool -> ?execute:bool ->
  ?engine:Cora.Exec.engine -> ?opt:Ir.Optimize.level ->
  ?autotune:Autotune.Tuner.cfg -> unit -> t

val compile_cache_enabled : t -> bool
val prelude_cache_enabled : t -> bool
val autotune_enabled : t -> bool
val engine : t -> Cora.Exec.engine

(** Optimization level [~execute:true] requests run at. *)
val opt_level : t -> Ir.Optimize.level

(** [with_engine srv e] — the same server configuration with a different
    execution engine (used by {!Frontend} to build the [`Interp]
    fallback twin of a [`Compiled] server). *)
val with_engine : t -> Cora.Exec.engine -> t

(** Handle one request: workload + raggedness vector.

    [?stage_check] is invoked with the stage name ("compile", "prelude",
    "launch", "execute") immediately before each pipeline stage; raising
    from it aborts the request between stages — the deadline-enforcement
    hook of {!Frontend}.  Per-request compile hit/miss counts are
    returned from the lowering calls themselves (scoped through
    {!Cora.Lower.with_memo}), so they stay exact when requests run
    concurrently on several domains.

    [?fill] overrides {!default_fill} for input tensors (read but never
    written).  {!Serving.Batcher} uses it to fill a mega-batch's inputs
    with each member request's {e own} [default_fill] values (the batch
    row index routed back to the member's local row), so a request served
    inside a mega-batch computes over bitwise the same inputs as a solo
    replay. *)
val handle :
  ?stage_check:(string -> unit) ->
  ?fill:(string -> int list -> float) ->
  t -> Workload.t -> int array -> response

(** Drop all cache contents (compile memo, prelude builds, the
    compiled-kernel memo of the engine, and the tuner memo). *)
val reset_caches : unit -> unit

(** Deterministic input fill used for every tensor that is read but never
    written: a hash of the tensor name and multi-index.  Applied to a name
    alone it hashes the name once and returns the per-index function. *)
val default_fill : string -> int list -> float

(** The serving loop's core: handle one request = find its job (the
    per-vector job memo, else the plan of its structure, built once
    through the {!Cora.Lower} compile cache), build the prelude (through
    {!Cora.Prelude_cache}, keyed by the batch's raggedness signature),
    price the pipeline with the plan's launch model, and optionally
    execute it through the selected engine with the plan's handles.

    Every request is served from a plan.  Both caches can be bypassed per
    server: with the compile cache off, each request is served from a
    {!Workload.fresh_plan} (built for it alone, lowered with the compile
    memo off, never memoized) and no job is memoized; with the prelude
    cache off, each request builds its prelude from scratch.  An untuned
    server with both off touches no cache, which is what the
    differential tests and {!Stream.reference} compare against.
    Latencies are model time (deterministic), not wall time; each
    request runs under a [serve.request] span and lands in the
    [serve.model_ns] histogram. *)

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
  engine_hits : int;
      (** kernels this request ran through already-compiled plan handles *)
  engine_misses : int;
      (** kernels compiled for this request: the cold handles of its plan
          (every kernel of a {!Workload.fresh_plan}); 0 on the
          interpreter *)
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
    move data-axis loop structure).

    Modeled times are always priced on {!Machine.Device.v100}.  With the
    compile cache on, jobs are served from {!Workload.plan}s — one build,
    launch-model compilation and engine compilation per structure — and
    each workload's job memo ({!Workload.cached_job}) carries the job's
    modeled kernel time, so a repeat request skips the launch model as
    well.  Without it every request is served from a fresh plan: built,
    priced and (on the compiled engine) compiled for that request
    alone. *)
val create :
  ?compile_cache:bool -> ?prelude_cache:bool -> ?execute:bool ->
  ?engine:Cora.Exec.engine -> ?opt:Ir.Optimize.level ->
  ?autotune:Autotune.Tuner.cfg -> unit -> t

val autotune_enabled : t -> bool
val engine : t -> Cora.Exec.engine

(** Optimization level [~execute:true] requests run at. *)
val opt_level : t -> Ir.Optimize.level

(** Raised by {!handle} at the first stage boundary reached after its
    [?deadline_us]; the payload is that stage's name. *)
exception Deadline_exceeded of string

(** Handle one request: workload + raggedness vector.

    [?deadline_us] (absolute, {!Obs.Trace_sink.now_us} clock) is checked
    immediately before each pipeline stage ("compile", "prelude",
    "launch", "execute"); once it has passed, the request stops there
    with {!Deadline_exceeded}.  Stages are not interrupted mid-flight.
    Without a deadline no clock is read.

    A [`Compiled] server whose engine rejects a kernel
    ({!Runtime.Engine.Error}) retries the request once on the
    interpreter, under the same deadline, and counts it in
    [frontend.degraded]; only a failure of that retry escapes.

    Per-request compile hit/miss counts are returned from the lowering
    calls themselves (scoped through {!Cora.Lower.with_memo}), so they
    stay exact when requests run concurrently on several domains.

    Input tensors (read but never written) are filled with
    {!default_fill}'s values, one innermost row at a time
    ({!fill_input}).  [?lead name] rewrites the leading index of tensor
    [name] before hashing (default: none).  {!Serving.Batcher} uses it to
    fill a mega-batch's inputs with each member request's {e own}
    [default_fill] values (the batch row routed back to the member's
    local row), so a request served inside a mega-batch computes over
    bitwise the same inputs as a solo replay. *)
val handle :
  ?deadline_us:float ->
  ?lead:(string -> int -> int) ->
  t -> Workload.t -> int array -> response

(** Drop all cache contents (compile memo, prelude builds, plans, the
    tuner memo and every workload's job memo). *)
val reset_caches : unit -> unit

(** Deterministic input values for every tensor that is read but never
    written: a hash of the tensor name and multi-index.  Applied to a name
    alone it hashes the name once and returns the per-index function.
    This is the per-index reference; serving fills through
    {!fill_input}, which writes bitwise the same values. *)
val default_fill : string -> int list -> float

(** [fill_input ?lead name r] fills [r]'s valid region with
    [default_fill name] one innermost row at a time
    ({!Cora.Ragged.iter_rows}): the hash of a row's outer indices is
    computed once per row and each element costs one hash step.  With
    [lead], the value at index [i :: rest] is [default_fill name (lead i
    :: rest)]. *)
val fill_input : ?lead:(int -> int) -> string -> Cora.Ragged.t -> unit

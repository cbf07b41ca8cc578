(** Serving workloads: adapters from a raggedness vector (the only part of
    a request that varies) to a compiled, executable job.

    Each adapter's [build] constructs its operator and schedule from
    scratch — exactly what a serving system presented with "the same"
    model would do.  The server runs it once per {e structure} (see
    {!plan}): the kernels of a job depend only on the part of the vector
    its [structure] key returns, and everything else reaches them through
    the length tables.  [job.lenv] is constructed from [job.tables]
    alone, so {!Cora.Sig.of_tables} over the tables fully determines the
    prelude build, and a plan serves a new vector of the same structure
    by swapping in that vector's tables. *)

type job = {
  kernels : Cora.Lower.kernel list;  (** execution order *)
  launches : Machine.Launch.t list;  (** same kernels, grouped for timing *)
  tables : (string * int array) list;
      (** concrete length tables — the batch's raggedness signature *)
  lenv : Cora.Lenfun.env;  (** built from [tables], nothing else *)
  out_name : string;  (** name of the tensor holding the final result *)
}

(** How {!Serving.Batcher} concatenates several requests of this workload
    into one mega-batch and scatters the results back.  Each function
    takes the batch members' raggedness vectors (in mega-batch order) as
    its first argument.

    The contract binding the four functions together: [build (merge ls)]
    must compute, for each member, bitwise the same output rows as
    [build lens] alone would — given inputs filled through
    [local_index] — and [split] must cut those rows back out of the
    mega-batch's dense output in each member's solo dense layout.  That
    is what lets the front-end serve a mega-batch and still answer every
    request with the bytes a solo replay would produce. *)
type batching = {
  rows : int array -> int array;
      (** per-row lengths of one request — what the bin-packer
          tile-aligns and weighs (e.g. fig1's lens themselves, vgemm's
          [ms] segment) *)
  merge : int array list -> int array;
      (** concatenate member raggedness vectors into the mega-batch's *)
  local_index : int array list -> string -> int list -> int list;
      (** rewrite a mega-batch tensor index into the owning member's
          local frame (identity for tensors without a batch dim), so
          {!Server.default_fill} yields the member's solo input values.
          It rewrites at most the {e leading} index and keeps the rank:
          [local_index ls name (b :: rest) = b' :: rest], with [b']
          a function of [ls], [name] and [b] alone.  That is what lets
          {!Serving.Batcher} localize a fill once per mega row (applying
          it to [[b]]) instead of once per element.
          Staged: applying the window's lens list precomputes the member
          offsets, so callers should partially apply it once per
          mega-batch and reuse the returned closure *)
  split : int array list -> float array -> float array list;
      (** scatter the mega-batch's dense output into one dense block per
          member, each bitwise equal to the member's solo output *)
}

(** The schedule-autotuning descriptor: what the online tuner
    ({!Autotune.Tuner}) may search for this workload.

    The bitwise contract: every point in [space] must produce a job whose
    unpacked output equals [build]'s bitwise — candidates may only move
    data-axis loop structure (splits, fusion, loop padding, grid binding,
    guard-elision where coverage provably stays exact), never reduction
    order or storage layout.  Adapters enforce this by construction (e.g.
    vgemm only admits tiles dividing every [m]/[n] because its schedule
    elides guards). *)
type tunable = {
  space : int array -> Autotune.Space.point list;
      (** candidate schedule points for this raggedness vector (may
          depend on it, e.g. divisibility filters); the hand schedule is
          the implicit baseline and is never pruned *)
  build_tuned : Autotune.Space.point -> int array -> job;
      (** compile the job at one candidate point *)
}

(** The per-structure half of serving, built once: the lowered kernels
    and launches (a job built for some vector of this structure), the
    aux-def list the prelude is built from, the compiled launch model on
    the v100 and the compiled-engine handles of the kernels.  A request
    whose vector has this structure is served from it with no builder,
    {!Cora.Sig.of_stmt} or cost-model compilation. *)
type plan = {
  p_job : job;  (** tables/lenv are those of the vector that built it *)
  p_defs : Cora.Prelude.def list;  (** every kernel's [aux], in kernel order *)
  p_model : Machine.Launch.model;
  p_handles : Cora.Exec.handles;
}

(** One memoized serving decision: the built job, the tuner verdict that
    produced it, and the request-invariant derivations a repeat request
    would otherwise recompute — the tables' raggedness signature, the
    prelude-cache key and the modeled kernel time.  A hit replays the
    whole compile+prelude+launch front of the pipeline with two
    bounded-cache lookups and no [Sig], def-list or launch-model work,
    and executes through its plan's engine handles.
    Deliberately {e not} the built prelude itself: the prelude cache's
    LRU bound must keep governing prelude memory, so an evicted prelude
    rebuilds even on a job-memo hit.  [c_epoch] is
    {!Autotune.Tuner.epoch} at insertion time — autotuned entries are
    ignored after a {!Autotune.Tuner.clear} (and replaced by the
    re-tune's insert), so the Sig-keyed tuner memo stays the source of
    truth. *)
type cached_job = {
  c_epoch : int;
  c_job : job;
  c_plan : plan;  (** the plan [c_job] was instantiated from *)
  c_state : string;  (** tuner state to report: ["off"], ["hand"], ["tuned"] *)
  c_opt : int option;
      (** the inserting server's {!Ir.Optimize.int_of_level}, which
          [c_plan]'s handles were compiled at; other levels miss on it *)
  c_sig : Cora.Sig.t;  (** [Sig.of_tables c_job.tables], precomputed *)
  c_pkey : Cora.Sig.t;  (** {!Cora.Prelude_cache.key_of}, precomputed *)
  c_kernels_ns : float;
      (** [kernels_ns] of {!Machine.Launch.pipeline} over [c_job] and its
          prelude on the v100 model, evaluated before insertion *)
}

type t = {
  name : string;
  id : int;
      (** instance identity, part of every plan key: two instances (even
          of the same configuration) never share a plan.  A record
          derived with [{ w with ... }] keeps it, so a derivation that
          changes [build] should also change [name] *)
  sample : Workloads.Rng.t -> int array;
      (** draw one request's raggedness vector *)
  build : int array -> job;  (** compile the job for that vector *)
  tables_of : int array -> (string * int array) list;
      (** the job's length tables without compiling it — same names,
          order and contents as [(build lens).tables].  With the workload
          name it keys the tuner memo ([Sig.of_tables]); on a plan hit it
          is the only per-vector part of the job *)
  structure : int array -> int array;
      (** the structure key: the part of the vector the kernel bodies
          depend on.  The invariant: two vectors with equal keys build
          jobs whose kernels are identical up to alpha-renaming
          ({!Cora.Sig.of_stmt}), with the same launches, aux defs and
          output name, so one {!plan} serves both.  The row count for
          fig1, encoder and decode (lengths reach their kernels only
          through tables); the whole vector for vgemm (dimensions are
          baked into the guard-free schedule) and trmm ([n] fixes the
          split) *)
  batching : batching option;
      (** [None] (e.g. trmm) — the batcher serves requests as singletons *)
  tunable : tunable option;
      (** [None] — the tuner always serves the hand schedule *)
  prev_tables : (int array -> (int array * (string * int array) list) option) option;
      (** Predecessor-step shape for incremental prelude maintenance.
          [Some f] marks an autoregressive workload: [f lens] returns the
          raggedness vector and the tables (same names, same order as
          [job.tables]) of the step whose prelude the current step's can
          be delta-updated from, or [None] when this step has no
          predecessor (e.g. right after prefill).  The vector lets the
          server look the predecessor up in [job_cache] and reuse its
          baked prelude key; the tables derive the key on a memo miss.
          Correctness never depends on the prediction — a predecessor
          absent from the prelude cache just falls back to a full
          build. *)
  job_cache : (string, cached_job) Cora.Cache.t;
      (** per-instance memo of built jobs with their tuner decision baked
          in, keyed by (serving mode, raggedness vector) — mode-prefixed
          (["hand"] vs ["auto|<opt>"]) so an autotuned and an untuned
          server sharing this value never read each other's entries.
          Decisions do not depend on the opt level in the auto prefix;
          perfbench's replay recomputes that prefix.  A repeat
          request skips the plan lookup and instantiation, the
          raggedness-signature and tuner-memo key derivation *and* the
          launch model: steady-state autotuned serving does exactly one
          lookup, same as hand serving.  Per instance, because [build]
          closes over this value's configuration: two workloads with the
          same name but different configurations can never collide.
          Consulted by {!Server.handle} only when its compile cache is
          enabled, so a cache-bypassed differential replay rebuilds from
          scratch. *)
}

(** [lead_index bd ls name b] — [bd.local_index ls name] applied to the
    leading index [b] alone: the member-local row of mega row [b] for
    tensor [name] (stage it like [local_index]).  By the [local_index]
    contract this is all a mega-batch input fill needs
    ({!Server.handle}'s [?lead]). *)
val lead_index : batching -> int array list -> string -> int -> int

(** Empty every live instance's [job_cache].  Called by
    {!Server.reset_caches}: a reset must leave no memoized jobs behind, or
    a workload derived with an effectful [build] (tests do this to gate or
    fail a worker) would have its build skipped.  Instances are tracked
    weakly, so a dropped workload's memo is garbage like any other
    value. *)
val clear_caches : unit -> unit

(** Build a runtime environment from concrete tables — the adapters'
    shared invariant: the environment is the tables and nothing else
    (which is what lets {!Cora.Sig.of_tables} key the prelude cache). *)
val lenv_of_tables : (string * int array) list -> Cora.Lenfun.env

(** The part of a job the tuner prices ({!Autotune.Tuner.job}). *)
val tuner_job : job -> Autotune.Tuner.job

(** [candidates tn lens] — every point of [tn.space lens] with a lazy
    builder of its job: the [~candidates] of {!Autotune.Tuner.tune}. *)
val candidates :
  tunable -> int array -> (Autotune.Space.point * (unit -> Autotune.Tuner.job)) list

(** [plan w ?point ~opt lens] — the plan for [lens]'s structure at
    schedule [point] ([None]: the hand schedule) and engine level [opt],
    with the job serving [lens] and, on a miss, the lowering-memo tally of
    the build.  A hit instantiates the plan's job with [w.tables_of lens];
    a miss runs [build] (or [build_tuned point]) under
    [Lower.with_memo ~cache:true] and inserts the plan.  Plans live in one
    process-wide bounded memo (the [plan] cache), keyed by workload name,
    instance {!t.id}, point, [opt] and [structure lens]. *)
val plan :
  t -> ?point:Autotune.Space.point -> opt:Ir.Optimize.level -> int array ->
  plan * job * Cora.Lower.memo_stats option

(** Empty the plan memo (called by [Server.reset_caches]). *)
val clear_plans : unit -> unit

(** Hit/miss/eviction/entry counts of the plan memo. *)
val plan_stats : unit -> Cora.Cache.stats

(** Fig. 1 of the paper: [O\[b\]\[j\] = 2 * A\[b\]\[j\]] with ragged [j],
    loop-padded and guarded.  Raggedness vector = the row lengths. *)
val fig1 : ?batch:int -> ?max_len:int -> unit -> t

(** Variable-sized batched gemm (§7.1).  Raggedness vector = the
    concatenation [ms @ ns @ ks]; dimensions are drawn from
    [dims_choices] and must be multiples of [tile]. *)
val vgemm : ?batch:int -> ?tile:int -> ?dims_choices:int array -> unit -> t

(** Triangular matmul, split + balanced (§7.1).  Raggedness vector =
    [\[| n |\]] drawn from [sizes]; the closed-form [tri] length function
    is materialised as an explicit table so it can key the prelude
    cache. *)
val trmm : ?tile:int -> ?sizes:int array -> unit -> t

(** Transformer encoder layer (§7.2), batch lengths sampled from
    [dataset] (sorted descending, §D.2).  [~base:true] uses the paper's
    base model; the default tiny model keeps interpretation affordable. *)
val encoder : ?base:bool -> ?batch:int -> dataset:Workloads.Datasets.t -> unit -> t

(** One autoregressive decode step ({!Transformer.Decoder.build_decode}):
    the new token attends to a KV cache of [src(b)] entries.  Raggedness
    vector = the cache lengths; [sample] draws the {e initial} (prefill)
    lengths and a decode stream grows them by one per step.  Sets
    [prev_tables] so the serving path delta-updates each step's prelude
    from its predecessor's.  Not tunable: the cache layout fixes its
    schedules. *)
val decode : ?batch:int -> ?max_src:int -> unit -> t

(** The adapters above with bench-friendly defaults, keyed by name
    ([fig1], [vgemm], [trmm], [encoder], [decode]); raises on unknown
    names. *)
val by_name : ?dataset:Workloads.Datasets.t -> string -> t

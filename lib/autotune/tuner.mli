(** Online schedule autotuner: cost-model-guided search over a workload's
    schedule space, warmed during serving.

    Two-stage search, following the prune-then-simulate recipe of the
    asymptotic-cost-model autoschedulers: stage 1 prices every candidate
    with one whole-body {!Runtime.Cost_model} evaluation — total scalar
    work including padding waste and indirect (prelude-table) accesses,
    weighted by the device's per-op nanoseconds but ignoring block-level
    distribution — and keeps only the [survivors] cheapest; stage 2 ranks
    the survivors by exact simulated launch time ({!Machine.Launch.time}:
    grid enumeration, per-block costing, block-scheduler makespan), the
    same quantity {!Serving.Server}'s launch stage reports as
    [kernels_ns].  No floating-point execution happens during search.

    A candidate is adopted only when its simulated time strictly beats the
    hand schedule's, so tuned serving is never worse than hand serving in
    model time.  Decisions are memoized in a bounded {!Cora.Cache} keyed
    by [(workload, Sig.of_tables)] — see {!key} — so a serving
    stream tunes each raggedness signature once and hits the memo
    afterwards.

    Counters: [autotune.searched] (candidates admitted to stage 1),
    [autotune.pruned] (dropped by the analytic bound), [autotune.tuned_wins]
    (decisions that adopted a candidate), [autotune.fallbacks] (requests
    served by the hand schedule while the memo entry was still cold), and
    the [autotune.tune_us] histogram (wall time of each search). *)

(** What the tuner needs of a compiled workload job: the kernels, their
    launch grouping, and the length environment — deliberately a subset of
    [Serving.Workload.job] so this library sits below the serving layer. *)
type job = {
  kernels : Cora.Lower.kernel list;
  launches : Machine.Launch.t list;
  lenv : Cora.Lenfun.env;
}

(** Search budget.  [max_candidates] caps the space walked at all (extra
    points are ignored, counted neither searched nor pruned); [survivors]
    is how many stage-1 winners reach exact simulation. *)
type cfg = { max_candidates : int; survivors : int }

(** 16 candidates, 4 survivors — small enough that an online tune costs a
    handful of (memoized) lowerings plus cost-model arithmetic. *)
val default_cfg : cfg

(** The tuner's verdict for one memo key.  [point = None] means the hand
    schedule won (or the space was empty): serve it and stop searching.
    [tuned_ns]/[hand_ns] are simulated kernel times; when a point was
    adopted, [tuned_ns < hand_ns] strictly. *)
type decision = {
  point : Space.point option;
  tuned_ns : float;
  hand_ns : float;
  searched : int;  (** candidates admitted to stage 1 for this key *)
  pruned : int;  (** of those, dropped by the analytic bound *)
}

(** Memo key: workload name and raggedness signature of the concrete
    length tables ({!Cora.Sig.of_tables}).  The engine opt level is not
    part of it: modeled time, hence every decision, is independent of
    it. *)
val key : workload:string -> tables:(string * int array) list -> Cora.Sig.t

(** Consult the memo; a hit refreshes LRU recency. *)
val lookup : Cora.Sig.t -> decision option

(** Stage-1 analytic bound (ns): one whole-body cost-model evaluation per
    kernel, priced by the device's per-op weights (compute-bound) or raw
    traffic against device bandwidth (memory-bound).  [?tables_sig] routes
    the candidate's prelude through {!Cora.Prelude_cache} so repeated
    tunes (and the eventual tuned serve) reuse the build. *)
val bound_ns : device:Machine.Device.t -> ?tables_sig:Cora.Sig.t -> job -> float

(** Stage-2 exact simulation (ns): sum of {!Machine.Launch.time} over the
    job's launches — identical to the [kernels_ns] the serving pipeline
    would report for this job. *)
val simulate_ns : device:Machine.Device.t -> ?tables_sig:Cora.Sig.t -> job -> float

(** Run the two-stage search and memoize the decision under [key].
    [hand] is the already-built hand-schedule job (the baseline — it is
    never pruned); [candidates] are built lazily, inside the search, so
    callers should wrap [tune] in {!Cora.Lower.with_memo} to share
    lowerings across repeated tunes.  Candidate builders that raise are
    skipped (counted as pruned): an over-aggressive point must not take
    down a serving request. *)
val tune :
  ?cfg:cfg ->
  device:Machine.Device.t ->
  key:Cora.Sig.t ->
  ?tables_sig:Cora.Sig.t ->
  hand:job ->
  candidates:(Space.point * (unit -> job)) list ->
  unit ->
  decision

(** Count a request served by the hand schedule because its memo entry was
    cold ([autotune.fallbacks]). *)
val note_fallback : unit -> unit

(** Process-wide tuner totals (mirrors the [autotune.*] counters). *)
type totals = {
  t_searched : int;
  t_pruned : int;
  t_tuned_wins : int;
  t_fallbacks : int;
  t_tunes : int;  (** completed searches (memo fills) *)
}

val totals : unit -> totals

val memo_size : unit -> int

(** Hit/miss/eviction/entry counts of the decision memo ({!Cora.Cache.stats}). *)
val memo_stats : unit -> Cora.Cache.stats

(** Entry cap of the decision memo (clamped to >= 1). *)
val set_memo_capacity : int -> unit

(** Drop every memoized decision and zero the process-wide totals (the
    [autotune.*] registry counters are monotonic and unaffected).
    Bumps {!epoch}. *)
val clear : unit -> unit

(** Incremented by every {!clear}.  A caller holding decisions outside
    the memo (e.g. the serving layer's per-workload job memo, which
    bakes the decision into the cached job so repeat shapes skip the
    [Sig] work of {!key}) tags them with the epoch and treats a
    mismatch as a miss, so a wipe here invalidates those copies too. *)
val epoch : unit -> int

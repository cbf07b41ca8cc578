(** Online schedule autotuner (see tuner.mli). *)

open Cora

type job = {
  kernels : Lower.kernel list;
  launches : Machine.Launch.t list;
  lenv : Lenfun.env;
}

type cfg = { max_candidates : int; survivors : int }

let default_cfg = { max_candidates = 16; survivors = 4 }

type decision = {
  point : Space.point option;
  tuned_ns : float;
  hand_ns : float;
  searched : int;
  pruned : int;
}

(* ---------------- memo + accounting ---------------- *)

(* Keyed by the canonical form of the signature (never the hash alone), so
   a collision can cost a duplicate tune but never a wrong schedule. *)
let memo : (string, decision) Cache.t = Cache.create ~name:"autotune" ~capacity:128 ()

let searched_c = Obs.Metrics.counter "autotune.searched"
let pruned_c = Obs.Metrics.counter "autotune.pruned"
let wins_c = Obs.Metrics.counter "autotune.tuned_wins"
let fallbacks_c = Obs.Metrics.counter "autotune.fallbacks"
let tune_h = Obs.Metrics.histogram "autotune.tune_us"

(* The registry counters are monotonic across [Obs.Metrics.reset]-free
   runs; these atomics are the tuner's own resettable tally, so a bench
   can report per-run numbers without draining the registry. *)
let a_searched = Atomic.make 0
let a_pruned = Atomic.make 0
let a_wins = Atomic.make 0
let a_fallbacks = Atomic.make 0
let a_tunes = Atomic.make 0

type totals = {
  t_searched : int;
  t_pruned : int;
  t_tuned_wins : int;
  t_fallbacks : int;
  t_tunes : int;
}

let totals () =
  {
    t_searched = Atomic.get a_searched;
    t_pruned = Atomic.get a_pruned;
    t_tuned_wins = Atomic.get a_wins;
    t_fallbacks = Atomic.get a_fallbacks;
    t_tunes = Atomic.get a_tunes;
  }

let note_fallback () =
  Obs.Metrics.incr fallbacks_c;
  Atomic.incr a_fallbacks

let key ~workload ~tables = Sig.combine [ Sig.of_string workload; Sig.of_tables tables ]

let lookup k = Cache.find memo (Sig.canonical k)
let memo_size () = Cache.size memo
let memo_stats () = Cache.stats memo
let set_memo_capacity n = Cache.set_capacity memo n

(* Bumped on every [clear] so decision copies baked into caches outside
   this module (the serving layer's per-workload job memos) can tell
   their entries predate the wipe. *)
let epoch_a = Atomic.make 0
let epoch () = Atomic.get epoch_a

let clear () =
  Cache.clear memo;
  Atomic.incr epoch_a;
  List.iter (fun a -> Atomic.set a 0) [ a_searched; a_pruned; a_wins; a_fallbacks; a_tunes ]

(* ---------------- pricing ---------------- *)

let prelude_of ?tables_sig (j : job) : Prelude.built =
  let defs = List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) j.kernels in
  match tables_sig with
  | Some tables_sig -> fst (Prelude_cache.build_cached ~tables_sig defs j.lenv)
  | None -> Prelude.build ~dedup_defs:true defs j.lenv

(* Stage-1 analytic bound: one whole-body cost evaluation per kernel —
   total scalar work (flops + index arithmetic + loads + indirect
   prelude-table accesses + padding waste, all through the cost model's
   trip counts) weighted by the device's per-op nanoseconds.  Thread-bound
   loops are lane-normalised by the cost model itself; block-level
   distribution is deliberately ignored — that is what stage 2 adds. *)
let bound_ns ~(device : Machine.Device.t) ?tables_sig (j : job) : float =
  let ufun = Machine.Launch.ufuns j.lenv (prelude_of ?tables_sig j) in
  List.fold_left
    (fun acc (k : Lower.kernel) ->
      let params =
        match k.Lower.bound with
        | Schedule.Compute_bound -> Machine.Device.cost_params device
        | Schedule.Memory_bound -> { Runtime.Cost_model.lanes = 1; vec_width = 1 }
      in
      let c = Runtime.Cost_model.eval (Runtime.Cost_model.prepare params k.Lower.body) ~ufun in
      let ns =
        match k.Lower.bound with
        | Schedule.Compute_bound -> Machine.Device.block_ns device ~eff:k.Lower.eff c
        | Schedule.Memory_bound ->
            Machine.Device.block_bytes c
            /. device.Machine.Device.mem_bw_bytes_per_ns /. k.Lower.eff
      in
      acc +. ns)
    0.0 j.kernels

(* Stage-2 exact simulation: the launch model the serving pipeline prices
   as [kernels_ns] (its prelude supplied, so only kernel time remains). *)
let simulate_ns ~device ?tables_sig (j : job) : float =
  (Machine.Launch.price ~prelude:(prelude_of ?tables_sig j) ~lenv:j.lenv
     (Machine.Launch.compile ~device j.launches))
    .Machine.Launch.kernels_ns

(* ---------------- the search ---------------- *)

let tune ?(cfg = default_cfg) ~device ~key:k ?tables_sig ~(hand : job)
    ~(candidates : (Space.point * (unit -> job)) list) () : decision =
  Obs.Span.with_span
    ~attrs:[ ("candidates", Obs.Trace_sink.Int (List.length candidates)) ]
    "autotune.tune"
  @@ fun () ->
  let t0 = Obs.Trace_sink.now_us () in
  let hand_ns = simulate_ns ~device ?tables_sig hand in
  let admitted = List.filteri (fun i _ -> i < cfg.max_candidates) candidates in
  let searched = List.length admitted in
  (* Build + bound every admitted candidate.  A builder that raises is
     dropped (and counted as pruned): an over-aggressive point must not
     take down the serving request that triggered the tune. *)
  let bounded =
    List.filter_map
      (fun (p, build) ->
        match
          let j = build () in
          (p, j, bound_ns ~device ?tables_sig j)
        with
        | pjb -> Some pjb
        | exception _ -> None)
      admitted
  in
  let bounded = List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b) bounded in
  let survivors = List.filteri (fun i _ -> i < cfg.survivors) bounded in
  let pruned = searched - List.length survivors in
  let best =
    List.fold_left
      (fun acc (p, j, _) ->
        let ns = simulate_ns ~device ?tables_sig j in
        match acc with Some (_, b) when b <= ns -> acc | _ -> Some (p, ns))
      None survivors
  in
  let d =
    match best with
    | Some (p, ns) when ns < hand_ns ->
        { point = Some p; tuned_ns = ns; hand_ns; searched; pruned }
    | _ -> { point = None; tuned_ns = hand_ns; hand_ns; searched; pruned }
  in
  Obs.Metrics.add searched_c searched;
  Obs.Metrics.add pruned_c pruned;
  ignore (Atomic.fetch_and_add a_searched searched);
  ignore (Atomic.fetch_and_add a_pruned pruned);
  if d.point <> None then begin
    Obs.Metrics.incr wins_c;
    Atomic.incr a_wins
  end;
  Atomic.incr a_tunes;
  Cache.add memo (Sig.canonical k) d;
  let dt = Obs.Trace_sink.now_us () -. t0 in
  Obs.Metrics.observe tune_h dt;
  Obs.Span.add_attr "hand_ns" (Obs.Trace_sink.Float d.hand_ns);
  Obs.Span.add_attr "tuned_ns" (Obs.Trace_sink.Float d.tuned_ns);
  Obs.Span.add_attr "point"
    (Obs.Trace_sink.Str (match d.point with Some p -> Space.to_string p | None -> "hand"));
  d

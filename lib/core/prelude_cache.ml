(** Prelude cache (see prelude_cache.mli). *)

let cache : (Sig.t, Prelude.built) Cache.t =
  Cache.create ~name:"prelude_cache" ~capacity:256 ()

let clear () = Cache.clear cache
let size () = Cache.size cache
let set_capacity n = Cache.set_capacity cache n
let capacity () = Cache.capacity cache

let key_of ~(tables_sig : Sig.t) (defs : Prelude.def list) : Sig.t =
  let names =
    List.map
      (fun (d : Prelude.def) ->
        Printf.sprintf "%s:%s" d.Prelude.name
          (match d.Prelude.kind with Prelude.Storage -> "s" | Prelude.Loop_fusion -> "f"))
      defs
    |> List.sort_uniq String.compare
  in
  Sig.combine [ Sig.of_string (String.concat "," names); tables_sig ]

let hit_c = Obs.Metrics.counter "prelude_cache.hit"
let miss_c = Obs.Metrics.counter "prelude_cache.miss"

let build_keyed ~(key : Sig.t) (defs : unit -> Prelude.def list) (lenv : Lenfun.env) :
    Prelude.built * bool =
  match Cache.find cache key with
  | Some b ->
      Obs.Metrics.incr hit_c;
      (b, true)
  | None ->
      Obs.Metrics.incr miss_c;
      (* built outside the cache lock: a slow build must not serialise
         concurrent requests hitting other keys *)
      let b = Prelude.build (defs ()) lenv in
      Cache.add cache key b;
      (b, false)

let build_cached ~(tables_sig : Sig.t) (defs : Prelude.def list) (lenv : Lenfun.env) :
    Prelude.built * bool =
  build_keyed ~key:(key_of ~tables_sig defs) (fun () -> defs) lenv

let delta_c = Obs.Metrics.counter "prelude_cache.delta"

let build_delta ~(key : Sig.t) ~(prev : unit -> (Sig.t * Lenfun.env) option)
    (defs : unit -> Prelude.def list) (lenv : Lenfun.env) : Prelude.built * bool =
  match Cache.find cache key with
  | Some b ->
      Obs.Metrics.incr hit_c;
      (b, true)
  | None ->
      Obs.Metrics.incr miss_c;
      let b =
        match prev () with
        | Some (prev_key, old_lenv) -> (
            match Cache.find cache prev_key with
            | Some pb ->
                Obs.Metrics.incr delta_c;
                (* the delta result is bitwise-identical to a from-scratch
                   build (updater contract, enforced by the differential
                   check), so inserting it under the value-carrying key
                   keeps the cache consistent; [pb] is shared with other
                   requests and never mutated — unchanged arrays are
                   shared into the new built record *)
                Prelude.delta_update ~prev:pb ~old_lenv (defs ()) lenv
            | None -> Prelude.build (defs ()) lenv)
        | None -> Prelude.build (defs ()) lenv
      in
      Cache.add cache key b;
      (b, false)

(** Bounded, domain-safe memo tables (see cache.mli). *)

type 'v entry = { value : 'v; mutable touched : int }

type stats = { hits : int; misses : int; evictions : int; entries : int }

type ('k, 'v) t = {
  name : string;
  lock : Mutex.t;
  table : ('k, 'v entry) Hashtbl.t;
  mutable tick : int;  (** logical clock for recency, under [lock] *)
  mutable cap : int;
  mutable hits : int;
  mutable misses : int;
  mutable evicted : int;
  evicted_c : Obs.Metrics.counter;
}

(* One stats thunk per cache *name*, latest creation wins — so transient
   per-test caches never accumulate and an exposition pass sees each memo
   exactly once. *)
let registry : (string, unit -> stats) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let stats t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evicted; entries = Hashtbl.length t.table })

let registered_stats () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      Hashtbl.fold (fun name f acc -> (name, f ()) :: acc) registry []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let create ~name ~capacity () =
  let t =
    {
      name;
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      tick = 0;
      cap = max 1 capacity;
      hits = 0;
      misses = 0;
      evicted = 0;
      evicted_c = Obs.Metrics.counter (name ^ ".evicted");
    }
  in
  Mutex.lock registry_lock;
  Hashtbl.replace registry name (fun () -> stats t);
  Mutex.unlock registry_lock;
  t

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t k =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
          t.tick <- t.tick + 1;
          e.touched <- t.tick;
          t.hits <- t.hits + 1;
          Some e.value
      | None ->
          t.misses <- t.misses + 1;
          None)

(* Caller holds the lock.  O(size) scan: eviction happens once per insert
   beyond capacity, and the tables this backs hold at most a few hundred
   entries, so a linear victim scan beats maintaining an intrusive list
   across three call sites. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, t') when t' <= e.touched -> acc
        | _ -> Some (k, e.touched))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.table k;
      t.evicted <- t.evicted + 1;
      Obs.Metrics.incr t.evicted_c

let add t k v =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table k) then
        while Hashtbl.length t.table >= t.cap do
          evict_lru t
        done;
      t.tick <- t.tick + 1;
      Hashtbl.replace t.table k { value = v; touched = t.tick })

let set_capacity t n =
  with_lock t (fun () ->
      t.cap <- max 1 n;
      while Hashtbl.length t.table > t.cap do
        evict_lru t
      done)

let capacity t = with_lock t (fun () -> t.cap)
let size t = with_lock t (fun () -> Hashtbl.length t.table)
let clear t = with_lock t (fun () -> Hashtbl.reset t.table)
let evictions t = with_lock t (fun () -> t.evicted)

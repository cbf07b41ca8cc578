(** Flat runtime buffers: kernels operate on flat float storage (the
    prelude's int tables are bound as uninterpreted functions instead). *)

type t = F of float array

let float_buf n = F (Array.make n 0.0)
let of_floats a = F a
let length (F a) = Array.length a
let floats (F a) = a
let get_float (F a) i = a.(i)
let set_float (F a) i v = a.(i) <- v
let fill_float (F a) v = Array.fill a 0 (Array.length a) v

(** Buffer arena: recycles float arrays across requests so a steady-state
    serving loop allocates no fresh float storage.  Free lists are keyed by
    exact array length; {!Arena.acquire_class} rounds the request up to the
    next power of two first, so a stream of varying ragged batch sizes
    converges onto a small, closed set of size classes.  Acquired arrays
    are zero-filled — callers get exactly what [Array.make n 0.0] gave
    them before, including zeroed padding (which padded reductions rely
    on), at memset cost instead of allocation + GC cost.  Thread-safe: the
    engine acquires scratch from inside parallel chunks. *)
module Arena = struct
  type t = { mutex : Mutex.t; pools : (int, float array list ref) Hashtbl.t }

  let create () = { mutex = Mutex.create (); pools = Hashtbl.create 32 }

  (* module-level handles: counter lookup is off the acquire hot path *)
  let hit_c = Obs.Metrics.counter "arena.hit"
  let miss_c = Obs.Metrics.counter "arena.miss"

  let acquire_counted t n =
    Mutex.lock t.mutex;
    let r =
      match Hashtbl.find_opt t.pools n with
      | Some ({ contents = a :: rest } as l) ->
          l := rest;
          Some a
      | _ -> None
    in
    Mutex.unlock t.mutex;
    match r with
    | Some a ->
        Obs.Metrics.incr hit_c;
        Array.fill a 0 n 0.0;
        (a, true)
    | None ->
        Obs.Metrics.incr miss_c;
        (* no clamping: a negative size must raise exactly like the
           [Array.make n 0.0] this replaces *)
        (Array.make n 0.0, false)

  let acquire t n = fst (acquire_counted t n)

  (* next power of two >= n (n >= 1) *)
  let size_class n =
    let c = ref 1 in
    while !c < n do
      c := !c * 2
    done;
    !c

  let acquire_class t n = if n <= 0 then acquire t n else acquire t (size_class n)

  (* Like [acquire_class] but also reports whether the array was
     recycled — the serving layer's per-request arena accounting (the
     global hit/miss counters interleave across concurrent requests). *)
  let acquire_class_counted t n =
    if n <= 0 then acquire_counted t n else acquire_counted t (size_class n)

  (* Every zero-length float array is the same atom, so only non-empty
     arrays can be told apart by physical equality. *)
  let release t a =
    let n = Array.length a in
    Mutex.protect t.mutex @@ fun () ->
    match Hashtbl.find_opt t.pools n with
    | Some l ->
        if n > 0 && List.memq a !l then invalid_arg "Buffer.Arena.release: already released";
        l := a :: !l
    | None -> Hashtbl.add t.pools n (ref [ a ])

  let clear t =
    Mutex.lock t.mutex;
    Hashtbl.reset t.pools;
    Mutex.unlock t.mutex

  let stored t =
    Mutex.lock t.mutex;
    let n = Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.pools 0 in
    Mutex.unlock t.mutex;
    n

  (* one process-wide arena: the engine's [Alloc] scratch and the serving
     path's tensor buffers share it, and the arena.hit / arena.miss
     metrics describe the whole process *)
  let global = create ()
end

(** Flat runtime buffers.

    Kernels operate on flat float storage; auxiliary structures built by the
    prelude (offset arrays, fused-loop maps) are flat int storage. *)

type t = F of float array | I of int array

let float_buf n = F (Array.make n 0.0)
let int_buf n = I (Array.make n 0)
let of_floats a = F a

let length = function F a -> Array.length a | I a -> Array.length a

let floats = function
  | F a -> a
  | I _ -> invalid_arg "Buffer.floats: integer buffer"

let ints = function
  | I a -> a
  | F _ -> invalid_arg "Buffer.ints: float buffer"

let get_float b i =
  match b with F a -> a.(i) | I a -> float_of_int a.(i)

let set_float b i v =
  match b with F a -> a.(i) <- v | I a -> a.(i) <- int_of_float v

(** Size in bytes, assuming 4-byte elements (the paper evaluates in fp32 and
    reports aux-structure sizes in kB assuming 4-byte ints). *)
let bytes b = 4 * length b

let fill_float b v =
  match b with F a -> Array.fill a 0 (Array.length a) v | I _ -> invalid_arg "fill_float"

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

type t = {
  seed : int;
  shapes : int array array;
  items : int array array;
}

let generate ~(workload : Workload.t) ?(pool = 4) ~n ~seed () : t =
  let rng = Workloads.Rng.create seed in
  let shapes = Array.init pool (fun _ -> workload.Workload.sample rng) in
  let items = Array.init n (fun _ -> Workloads.Rng.choose rng shapes) in
  { seed; shapes; items }

let repeat ~shape ~n ~seed : t = { seed; shapes = [| shape |]; items = Array.make n shape }

let replay (srv : Server.t) (w : Workload.t) (s : t) : Server.response list =
  Array.to_list (Array.map (fun lens -> Server.handle srv w lens) s.items)

(* ---- Trace-driven decode load generator ----

   A trace is a set of sessions; each session is one prefill step (the
   initial KV-cache lengths, as drawn by the workload's sampler) followed
   by [steps] decode steps, every cache row one token longer than the
   step before.  Sessions arrive in bursts and belong to tenants whose
   class fixes their deadline.  Events within a session are strictly
   ordered — a decode step is meaningless before its predecessor — and
   both drivers below preserve that order. *)

type phase = Prefill | Decode of int

type event = {
  session : int;
  tenant : int;
  phase : phase;
  lens : int array;  (** raggedness vector submitted for this step *)
  arrival_us : float;  (** offset from trace start (bursty) *)
  deadline_ns : float option;  (** the tenant class's deadline *)
}

type trace = {
  t_seed : int;
  sessions : int;
  steps : int;  (** decode steps per session (excluding prefill) *)
  events : event array;  (** session-major, step-minor *)
}

let phase_label = function Prefill -> "prefill" | Decode k -> "decode" ^ string_of_int k

let generate_trace ~(workload : Workload.t) ?(sessions = 8) ?(steps = 8) ?(burst = 4)
    ?(burst_gap_us = 200.0) ?(classes = [| None |]) ~seed () : trace =
  if sessions < 1 || steps < 0 then invalid_arg "Stream.generate_trace";
  let rng = Workloads.Rng.create seed in
  let events = ref [] in
  for s = 0 to sessions - 1 do
    let base = workload.Workload.sample rng in
    let tenant = s mod Array.length classes in
    let deadline_ns = classes.(tenant) in
    (* burst [s / burst] opens at a fixed gap; members jitter inside it *)
    let arrive0 =
      (float_of_int (s / burst) *. burst_gap_us) +. (Workloads.Rng.float rng *. 20.0)
    in
    for t = 0 to steps do
      let lens = Array.map (fun l -> l + t) base in
      let phase = if t = 0 then Prefill else Decode t in
      (* decode steps trail their predecessor; the offset only matters to
         a paced driver — ordering is enforced by the drivers themselves *)
      let arrival_us = arrive0 +. (float_of_int t *. 50.0) in
      events := { session = s; tenant; phase; lens; arrival_us; deadline_ns } :: !events
    done
  done;
  { t_seed = seed; sessions; steps; events = Array.of_list (List.rev !events) }

(* Concurrent driver: per-session software pipelining through a
   front-end.  Step [t+1] of a session is submitted only after its step
   [t] resolved — the KV-cache append semantics, and what guarantees the
   predecessor's prelude is already cached when the delta path looks it
   up.  Distinct sessions overlap freely: while we await one session's
   step, every other session's current step is already in flight.  With
   [pace > 0], prefill submissions honour the trace's bursty arrival
   offsets (scaled by [pace]); [pace = 0] submits as fast as the
   pipeline allows. *)
let run_trace ?(pace = 0.0) (fe : Frontend.t) (w : Workload.t) (tr : trace) :
    (event * Frontend.outcome) array =
  let per_step = tr.steps + 1 in
  let out = Array.make (Array.length tr.events) None in
  let tickets = Array.make tr.sessions None in
  let t0 = Unix.gettimeofday () in
  let submit (i : int) =
    let e = tr.events.(i) in
    if pace > 0.0 && e.phase = Prefill then begin
      let due = t0 +. (e.arrival_us *. 1e-6 *. pace) in
      let dt = due -. Unix.gettimeofday () in
      if dt > 0.0 then Unix.sleepf dt
    end;
    tickets.(e.session) <- Some (i, Frontend.submit_wait ?deadline_ns:e.deadline_ns fe w e.lens)
  in
  for t = 0 to tr.steps do
    for s = 0 to tr.sessions - 1 do
      (match tickets.(s) with
      | Some (i, tk) -> out.(i) <- Some (tr.events.(i), Frontend.await tk)
      | None -> ());
      submit ((s * per_step) + t)
    done
  done;
  Array.iter
    (function
      | Some (i, tk) -> out.(i) <- Some (tr.events.(i), Frontend.await tk) | None -> ())
    tickets;
  Array.map (function Some r -> r | None -> assert false) out

(* ---- The reference ----

   One oracle for every served output: a cache-bypassed, untuned, serial
   interpreter server, run once per distinct vector.  It shares no cache
   with the run it checks, so a stale cached job cannot agree with itself. *)

let reference (w : Workload.t) (items : int array array) : float array array =
  let srv = Server.create ~compile_cache:false ~prelude_cache:false ~engine:`Interp () in
  let seen = Hashtbl.create 8 in
  let serve lens =
    let out = Option.get (Server.handle srv w lens).Server.out in
    Hashtbl.add seen lens out;
    out
  in
  Array.map (fun l -> match Hashtbl.find_opt seen l with Some o -> o | None -> serve l) items

let check w items (outcomes : Frontend.outcome array) =
  if Array.length outcomes <> Array.length items then invalid_arg "Stream.check";
  let refs = reference w items and bits = Array.map Int64.bits_of_float in
  List.filter
    (fun i ->
      match outcomes.(i) with
      | Frontend.Response { Server.out = Some out; _ } -> bits out <> bits refs.(i)
      | _ -> true)
    (List.init (Array.length items) Fun.id)

(* FNV-1a over the bytes of every output value's bit pattern, one hash per
   response; summing the hashes mod 2^64 ignores response order, and equal
   responses add up rather than cancel. *)
let digest (rs : Server.response list) =
  let fnv h x =
    let h = ref h in
    for b = 0 to 7 do
      let byte = Int64.(logand (shift_right_logical x (8 * b)) 0xffL) in
      h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
    done;
    !h
  in
  let hash = Array.fold_left (fun h v -> fnv h (Int64.bits_of_float v)) 0xcbf29ce484222325L in
  List.fold_left
    (fun acc (r : Server.response) ->
      Option.fold ~none:acc ~some:(fun a -> Int64.add acc (hash a)) r.Server.out)
    0L rs

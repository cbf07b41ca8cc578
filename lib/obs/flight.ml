(** Flight recorder: a fixed-capacity ring of per-request summaries.

    Spans answer "where did this request's time go"; the flight recorder
    answers "what were the last N requests doing when things went wrong"
    without tracing enabled.  The serving front-end's worker loop writes
    one {!record} per completed request — id, workload, raggedness
    signature, queue wait, per-stage durations, outcome and cache/arena
    accounting — into a mutex-protected ring (default 256 records,
    oldest overwritten).  On an error or deadline outcome the front-end
    calls {!auto_dump}, which (when armed via {!set_auto_dump}) writes
    the surrounding ring to [<dir>/flight-<ts>-<n>.json] for
    post-mortem, throttled to at most one dump per second so a failure
    storm cannot flood the disk. *)

type record = {
  id : int;  (** front-end request id (the span trace-context id) *)
  workload : string;
  sig_hex : string;  (** {!Cora.Sig.of_tables} hash of the raggedness; "" if unknown *)
  submitted_us : float;
  queue_wait_us : float;
  stages_us : (string * float) list;  (** per-stage wall time, pipeline order *)
  outcome : string;  (** {!Serving.Frontend.outcome_label} *)
  compile_hits : int;
  compile_misses : int;
  prelude_hit : bool;
  engine_hits : int;
  engine_misses : int;
  arena_hits : int;
  arena_misses : int;
  batch_id : int;  (** mega-batch this request was served in; 0 = unbatched *)
  batch_size : int;  (** requests in that mega-batch; 1 = served alone *)
  tuner : string;  (** autotuner state ({!Serving.Server.response.tuner}); "" if unknown *)
}

let lock = Mutex.create ()
let cap = ref 256
let ring : record option array ref = ref [||]
let head = ref 0
let total = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let contents_locked () =
  let a = !ring and n = min !total !cap in
  if n = 0 then []
  else begin
    let start = if !total <= !cap then 0 else !head in
    List.init n (fun i ->
        match a.((start + i) mod !cap) with Some r -> r | None -> assert false)
  end

let record (r : record) =
  with_lock (fun () ->
      if Array.length !ring <> !cap then begin
        ring := Array.make !cap None;
        head := 0
      end;
      !ring.(!head) <- Some r;
      head := (!head + 1) mod !cap;
      incr total)

let records () = with_lock contents_locked

let clear () =
  with_lock (fun () ->
      ring := [||];
      head := 0;
      total := 0)

let set_capacity n =
  let n = max 1 n in
  with_lock (fun () ->
      let kept = contents_locked () in
      let kept = List.filteri (fun i _ -> i >= List.length kept - n) kept in
      cap := n;
      let a = Array.make n None in
      List.iteri (fun i r -> a.(i) <- Some r) kept;
      ring := a;
      head := List.length kept mod n;
      total := List.length kept)

(* ---------------- JSON ---------------- *)

let record_json (r : record) =
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("workload", Json.String r.workload);
      ("sig", Json.String r.sig_hex);
      ("submitted_us", Json.Float r.submitted_us);
      ("queue_wait_us", Json.Float r.queue_wait_us);
      ( "stages_us",
        Json.Obj (List.map (fun (name, us) -> (name, Json.Float us)) r.stages_us) );
      ("outcome", Json.String r.outcome);
      ("compile_hits", Json.Int r.compile_hits);
      ("compile_misses", Json.Int r.compile_misses);
      ("prelude_hit", Json.Bool r.prelude_hit);
      ("engine_hits", Json.Int r.engine_hits);
      ("engine_misses", Json.Int r.engine_misses);
      ("arena_hits", Json.Int r.arena_hits);
      ("arena_misses", Json.Int r.arena_misses);
      ("batch_id", Json.Int r.batch_id);
      ("batch_size", Json.Int r.batch_size);
      ("tuner", Json.String r.tuner);
    ]

let to_json ?(reason = "snapshot") () =
  Json.Obj
    [
      ("reason", Json.String reason);
      ("dumped_at_us", Json.Float (Unix.gettimeofday () *. 1e6));
      ("records", Json.List (List.map record_json (records ())));
    ]

(* ---------------- dumping ---------------- *)

let dump_seq = Atomic.make 0

let ensure_dir dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let dump ~dir ~reason =
  ensure_dir dir;
  let path =
    Printf.sprintf "%s/flight-%d-%d.json" dir
      (int_of_float (Unix.gettimeofday ()))
      (Atomic.fetch_and_add dump_seq 1)
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json ~reason ()) ^ "\n"));
  path

let auto_dir : string option ref = ref None
let set_auto_dump dir = auto_dir := dir
let last_auto_us = Atomic.make 0 (* microseconds, fits an int *)
let min_interval_us = 1_000_000

let auto_dump ~reason =
  match !auto_dir with
  | None -> None
  | Some dir ->
      let now = int_of_float (Unix.gettimeofday () *. 1e6) in
      let last = Atomic.get last_auto_us in
      if now - last < min_interval_us
         || not (Atomic.compare_and_set last_auto_us last now)
      then None (* within the throttle window, or another domain is dumping *)
      else Some (dump ~dir ~reason)

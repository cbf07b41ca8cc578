(** Sink for completed spans.

    Spans are recorded here when they close (see {!Span}); the sink keeps
    them in a process-global, mutex-protected {e bounded ring} — domains
    close spans concurrently under the serving front-end, and an
    always-on trace must hold O(capacity) memory no matter how long the
    process serves.  When the ring is full the oldest event is
    overwritten (the newest spans are the ones a post-mortem wants) and
    the [trace.dropped] counter is bumped.  Export is either Chrome
    trace-event JSON (load [trace.json] in [chrome://tracing] or
    Perfetto) or a human-readable tree.

    Events carry the request id of the {!Span} trace-context that was
    active when they closed, so a concurrent trace can be filtered back
    into per-request span chains ({!events_for}); the Chrome export
    additionally emits one flow ([ph:s/t/f]) chain per request, drawing
    the admission → worker arrows across domain tracks. *)

type attr = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  ts_us : float;  (** start, microseconds since the trace epoch *)
  dur_us : float;
  tid : int;  (** OCaml domain id *)
  depth : int;  (** span-stack depth in its domain at open time *)
  req : int option;  (** request id from the {!Span} trace-context, if any *)
  attrs : (string * attr) list;
}

let lock = Mutex.create ()
let default_capacity = 65_536
let cap = ref default_capacity
let ring : event option array ref = ref [||] (* allocated on first record *)
let head = ref 0 (* next write slot *)
let total = ref 0 (* events recorded since [clear] *)
let epoch : float option ref = ref None
let dropped_c = Metrics.counter "trace.dropped"

let now_us () = Unix.gettimeofday () *. 1e6

let record ev =
  Mutex.lock lock;
  (* epoch = earliest span *start* seen; spans record on close, so the
     first recorded event (an innermost leaf) rarely has the earliest
     start *)
  (match !epoch with
  | None -> epoch := Some ev.ts_us
  | Some e -> if ev.ts_us < e then epoch := Some ev.ts_us);
  if Array.length !ring <> !cap then begin
    (* first record, or the capacity changed while empty *)
    ring := Array.make !cap None;
    head := 0
  end;
  if !total >= !cap then Metrics.incr dropped_c;
  !ring.(!head) <- Some ev;
  head := (!head + 1) mod !cap;
  incr total;
  Mutex.unlock lock

(** Events recorded since {!clear} that no longer fit in the ring. *)
let dropped () =
  Mutex.lock lock;
  let d = max 0 (!total - !cap) in
  Mutex.unlock lock;
  d

(* Ring contents in insertion order (oldest surviving event first). *)
let contents_locked () =
  let a = !ring and n = min !total !cap in
  if n = 0 then []
  else begin
    let start = if !total <= !cap then 0 else !head in
    List.init n (fun i ->
        match a.((start + i) mod !cap) with Some e -> e | None -> assert false)
  end

let clear () =
  Mutex.lock lock;
  ring := [||];
  head := 0;
  total := 0;
  epoch := None;
  Mutex.unlock lock

(** Cap the ring at [n] events (clamped to >= 1; default 65536).  The
    newest [n] surviving events are kept. *)
let set_capacity n =
  let n = max 1 n in
  Mutex.lock lock;
  let kept = contents_locked () in
  let kept = List.filteri (fun i _ -> i >= List.length kept - n) kept in
  cap := n;
  let a = Array.make n None in
  List.iteri (fun i e -> a.(i) <- Some e) kept;
  ring := a;
  head := List.length kept mod n;
  total := List.length kept;
  Mutex.unlock lock

(** Surviving spans in start-time order.  Clock ties (sub-microsecond
    siblings) fall back to record order, which for same-domain siblings is
    close order = start order. *)
let events () =
  Mutex.lock lock;
  let evs = contents_locked () in
  Mutex.unlock lock;
  List.stable_sort (fun a b -> compare (a.ts_us, a.depth) (b.ts_us, b.depth)) evs

(** The spans recorded under request [id]'s trace-context, in start-time
    order — one request's complete admission → stage → outcome chain. *)
let events_for id = List.filter (fun e -> e.req = Some id) (events ())

(** Request ids present in the surviving events, ascending. *)
let request_ids () =
  List.sort_uniq compare (List.filter_map (fun e -> e.req) (events ()))

(* ---------------- Chrome trace-event export ---------------- *)

let attr_json = function
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let to_chrome () =
  let base = match !epoch with Some e -> e | None -> 0.0 in
  let evs = events () in
  let slice ev =
    let args =
      (match ev.req with Some r -> [ ("req", Json.Int r) ] | None -> [])
      @ List.map (fun (k, v) -> (k, attr_json v)) ev.attrs
    in
    Json.Obj
      [
        ("name", Json.String ev.name);
        ("cat", Json.String "cora");
        ("ph", Json.String "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int ev.tid);
        ("ts", Json.Float (ev.ts_us -. base));
        ("dur", Json.Float ev.dur_us);
        ("args", Json.Obj args);
      ]
  in
  (* One flow chain per request id: start on its earliest span, step on
     the middles, finish (binding enclosing) on the latest — Chrome and
     Perfetto draw the arrows that stitch a request's spans across the
     submitting and worker domain tracks. *)
  let flows =
    List.concat_map
      (fun id ->
        let chain = List.filter (fun e -> e.req = Some id) evs in
        let last = List.length chain - 1 in
        List.mapi
          (fun i ev ->
            let ph = if i = 0 then "s" else if i = last then "f" else "t" in
            Json.Obj
              ([
                 ("name", Json.String "req");
                 ("cat", Json.String "req");
                 ("ph", Json.String ph);
                 ("id", Json.Int id);
                 ("pid", Json.Int 1);
                 ("tid", Json.Int ev.tid);
                 ("ts", Json.Float (ev.ts_us -. base));
               ]
              @ if ph = "f" then [ ("bp", Json.String "e") ] else []))
          chain)
      (request_ids ())
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map slice evs @ flows));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome_string () = Json.to_string (to_chrome ())

(* ---------------- human-readable tree ---------------- *)

let attr_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b

(** Render the recorded spans as an indented tree, one block per domain.
    Spans nest properly within a domain, so start-time order plus the
    recorded depth reconstructs the hierarchy. *)
let tree () =
  let evs = events () in
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  let b = Buffer.create 1024 in
  List.iter
    (fun tid ->
      if List.length tids > 1 then Buffer.add_string b (Printf.sprintf "domain %d:\n" tid);
      List.iter
        (fun ev ->
          if ev.tid = tid then begin
            Buffer.add_string b (String.make (2 * ev.depth) ' ');
            Buffer.add_string b (Printf.sprintf "%-30s %10.1f us" ev.name ev.dur_us);
            let attrs =
              (match ev.req with Some r -> [ ("req", Int r) ] | None -> []) @ ev.attrs
            in
            if attrs <> [] then begin
              Buffer.add_string b "  [";
              List.iteri
                (fun i (k, v) ->
                  if i > 0 then Buffer.add_string b ", ";
                  Buffer.add_string b (Printf.sprintf "%s=%s" k (attr_to_string v)))
                attrs;
              Buffer.add_char b ']'
            end;
            Buffer.add_char b '\n'
          end)
        evs)
    tids;
  Buffer.contents b

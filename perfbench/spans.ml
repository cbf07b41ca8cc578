(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around calls into the
   layers' public functions; nothing inside the library is instrumented.
   One recorder is used from one thread only (the submitting thread), so
   it needs no locking.  Each span has a name, start and end times, a
   parent (-1 for a root) and the request id it belongs to. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;
  start_us : float;
  mutable stop_us : float;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : span list }

let create () = { spans = []; next = 0; stack = [] }
let now_us () = Unix.gettimeofday () *. 1e6

let with_span t ~req name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s = { id = t.next; name; req; parent; start_us = now_us (); stop_us = nan } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_us <- now_us ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans)
    f

let dur s = s.stop_us -. s.start_us

(* Self time of every span: its duration minus its children's. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) t.spans

(* Per request: the root span's wall and each layer's summed self time. *)
let per_request t : (int, float * (string, float) Hashtbl.t) Hashtbl.t =
  let reqs = Hashtbl.create 256 in
  let entry req =
    match Hashtbl.find_opt reqs req with
    | Some e -> e
    | None ->
        let e = (ref 0.0, Hashtbl.create 16) in
        Hashtbl.add reqs req e;
        e
  in
  List.iter
    (fun (s, self) ->
      let wall, layers = entry s.req in
      if s.parent < 0 then wall := !wall +. dur s;
      Hashtbl.replace layers s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt layers s.name)))
    (self_times t);
  let out = Hashtbl.create (Hashtbl.length reqs) in
  Hashtbl.iter (fun req (wall, layers) -> Hashtbl.add out req (!wall, layers)) reqs;
  out

let to_json t : Obs.Json.t =
  Obs.Json.List
    (List.rev_map
       (fun (s, self) ->
         Obs.Json.Obj
           [
             ("id", Obs.Json.Int s.id);
             ("name", Obs.Json.String s.name);
             ("req", Obs.Json.Int s.req);
             ("parent", Obs.Json.Int s.parent);
             ("start_us", Obs.Json.Float s.start_us);
             ("end_us", Obs.Json.Float s.stop_us);
             ("self_us", Obs.Json.Float self);
           ])
       (self_times t))

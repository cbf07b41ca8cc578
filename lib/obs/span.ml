(** Hierarchical timed spans.

    [with_span name f] times [f] and records a {!Trace_sink.event} when
    it returns (or raises — the span is closed either way, tagged with
    an [error] attribute).  Spans nest through a per-domain stack kept
    in domain-local storage, so concurrent domains each build their own
    well-nested sub-trees.

    Tracing is off by default.  The disabled path is the no-op mode the
    hot paths rely on: a single atomic load, then a tail call into [f] —
    no closure, no record, no allocation. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b

type open_span = {
  name : string;
  start_us : float;
  depth : int;
  mutable extra : (string * Trace_sink.attr) list;  (** added by {!add_attr}, reversed *)
}

(* Per-domain stack of currently open spans (innermost first). *)
let stack_key : open_span list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* Per-domain trace-context: the request id under which spans close.
   The front-end carries a request's id from the submitting domain into
   whichever worker domain picks it up by re-entering [with_request]
   there, so every stage span of one request is stamped with the same id
   no matter which domain ran it. *)
let req_key : int option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current_request () = !(Domain.DLS.get req_key)

let with_request id f =
  let r = Domain.DLS.get req_key in
  let saved = !r in
  r := Some id;
  Fun.protect ~finally:(fun () -> r := saved) f

let close sp (attrs : (string * Trace_sink.attr) list) =
  let end_us = Trace_sink.now_us () in
  Trace_sink.record
    {
      Trace_sink.name = sp.name;
      ts_us = sp.start_us;
      dur_us = end_us -. sp.start_us;
      tid = (Domain.self () :> int);
      depth = sp.depth;
      req = current_request ();
      attrs = attrs @ List.rev sp.extra;
    }

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let sp =
      { name; start_us = Trace_sink.now_us (); depth = List.length !stack; extra = [] }
    in
    stack := sp :: !stack;
    let finish tail_attrs =
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      close sp (attrs @ tail_attrs)
    in
    match f () with
    | result ->
        finish [];
        result
    | exception e ->
        finish [ ("error", Trace_sink.Str (Printexc.to_string e)) ];
        raise e
  end

(** Attach an attribute to the innermost open span of the calling
    domain; silently dropped when tracing is disabled or no span is
    open, so instrumentation sites need no guards. *)
let add_attr key value =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get stack_key) with
    | sp :: _ -> sp.extra <- (key, value) :: sp.extra
    | [] -> ()

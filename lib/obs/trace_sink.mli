(** Sink for completed spans: a bounded, mutex-protected ring exporting
    Chrome trace-event JSON and a human-readable tree.  Safe to record
    into from multiple domains; when full, the oldest event is
    overwritten and the [trace.dropped] counter is bumped, so an
    always-on trace holds O(capacity) memory under any request volume. *)

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

val now_us : unit -> float
val record : event -> unit
val clear : unit -> unit

(** Cap the ring at [n] events (clamped to >= 1; default 65536),
    keeping the newest survivors. *)
val set_capacity : int -> unit

(** Events recorded since {!clear} that no longer fit in the ring (the
    same count the [trace.dropped] metric accumulates). *)
val dropped : unit -> int

(** Surviving spans in start-time order. *)
val events : unit -> event list

(** The spans recorded under request [id]'s trace-context, in
    start-time order — one request's complete admission → stage →
    outcome chain. *)
val events_for : int -> event list

(** Request ids present in the surviving events, ascending. *)
val request_ids : unit -> int list

(** Chrome trace-event document ([chrome://tracing] / Perfetto format):
    one complete ("ph":"X") event per span, timestamps relative to the
    trace epoch, attributes under ["args"] (request ids as
    ["args"]["req"]), plus one flow ([ph:s/t/f]) chain per request
    stitching its spans across domain tracks. *)
val to_chrome_string : unit -> string

(** Indented per-domain tree of span names, durations and attributes. *)
val tree : unit -> string

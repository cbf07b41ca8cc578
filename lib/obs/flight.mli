(** Flight recorder: a fixed-capacity, mutex-protected ring of
    per-request summaries written by the serving front-end, dumped to a
    JSON file on errors or deadline misses for post-mortem analysis. *)

type record = {
  id : int;  (** front-end request id (the span trace-context id) *)
  workload : string;
  sig_hex : string;  (** {!Cora.Sig.of_tables} hash of the raggedness; "" if unknown *)
  submitted_us : float;
  queue_wait_us : float;
  stages_us : (string * float) list;  (** per-stage wall time, pipeline order *)
  outcome : string;  (** response / overloaded / deadline_exceeded / error *)
  compile_hits : int;
  compile_misses : int;
  prelude_hit : bool;
  engine_hits : int;
  engine_misses : int;
  arena_hits : int;
  arena_misses : int;
  batch_id : int;
      (** id of the mega-batch the request was served inside (the
          batch-former's [batch.run] span attribute); 0 when the request
          was served on its own, outside any batch *)
  batch_size : int;  (** number of requests in that mega-batch; 1 = alone *)
  tuner : string;
      (** autotuner state of the request ("off" / "miss" / "tuned" /
          "hand"); "" when the request never produced a response *)
}

(** Append one record, overwriting the oldest when full. *)
val record : record -> unit

(** Surviving records, oldest first. *)
val records : unit -> record list

val clear : unit -> unit

(** Cap the ring (clamped to >= 1; default 256), keeping the newest
    survivors. *)
val set_capacity : int -> unit

(** The ring as one JSON document: [{reason, dumped_at_us, records}]. *)
val to_json : ?reason:string -> unit -> Json.t

(** Write the ring to [<dir>/flight-<unix-seconds>-<seq>.json]
    (creating [dir] if needed) and return the path. *)
val dump : dir:string -> reason:string -> string

(** Arm ([Some dir]) or disarm ([None], the default) automatic dumps:
    while armed, {!auto_dump} writes to [dir]. *)
val set_auto_dump : string option -> unit

(** Called by the front-end on an error or deadline outcome: when armed
    and outside the 1 s throttle window, {!dump} the ring and return
    the path. *)
val auto_dump : reason:string -> string option

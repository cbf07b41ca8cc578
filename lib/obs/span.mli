(** Hierarchical timed spans with key/value attributes, recorded into
    {!Trace_sink} on close.  Disabled by default; the disabled path of
    {!with_span} is one atomic load and a call into the thunk — no
    allocation on the hot path. *)

(** Turn span recording on/off process-wide (default off). *)
val set_enabled : bool -> unit

(** [with_span ?attrs name f] runs [f], timing it as a span nested
    under the calling domain's innermost open span.  The span is closed
    (and recorded) even if [f] raises, tagged with an [error]
    attribute. *)
val with_span : ?attrs:(string * Trace_sink.attr) list -> string -> (unit -> 'a) -> 'a

(** Attach an attribute to the innermost open span of the calling
    domain; a no-op when tracing is disabled or no span is open. *)
val add_attr : string -> Trace_sink.attr -> unit

(** [with_request id f] runs [f] with the calling domain's trace-context
    set to request [id]: every span closed inside [f] is stamped with
    [id] (the [req] field of its {!Trace_sink.event}), so spans from
    concurrent requests can be reassembled per request.  Contexts nest
    (the previous context is restored on exit) and are cheap enough to
    set unconditionally — two domain-local reads and a ref write —
    whether or not tracing is enabled. *)
val with_request : int -> (unit -> 'a) -> 'a

(** The calling domain's current request trace-context, if any. *)
val current_request : unit -> int option


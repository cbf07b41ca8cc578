(** Concurrent serving front-end: a pool of worker domains in front of
    {!Server.handle}, with explicit admission control, per-request
    deadlines and fault isolation.

    {2 Queueing model}

    Requests enter a bounded FIFO queue ([~capacity], default 64) and are
    drained by [~domains] worker domains.  {!submit} never blocks: when
    the queue is full the request is {e rejected immediately} with a
    typed {!Overloaded} outcome and counted in [frontend.rejected] —
    under overload the server sheds load at the front door instead of
    growing an unbounded backlog.  {!run_stream} is the paced
    alternative: it applies backpressure (waits for a queue slot) rather
    than rejecting, which is what a replay driver wants.

    {2 Deadline semantics}

    A request may carry a deadline (relative, in nanoseconds, fixed at
    submission).  It is checked when the request is dequeued — a request
    that waited out its budget in the queue is answered
    [Deadline_exceeded "queue"] without doing any work — and is then
    handed to {!Server.handle} as its [?deadline_us], which stops an
    expired request at the next stage boundary ("compile", "prelude",
    "launch", "execute") rather than running it to completion.  Stages
    are not interrupted mid-flight; the stage name in the outcome says
    how far the request got.  Counted in [frontend.deadline_exceeded].

    {2 Fault isolation and degradation}

    An exception escaping one request's workload is caught at the worker
    loop, converted into an {!Error} outcome carrying the exception text
    and backtrace, and counted in [frontend.errors] — it never kills the
    worker domain, and later requests are served normally.  Graceful
    degradation happens inside {!Server.handle}: a [`Compiled]-engine
    server whose engine rejects a kernel ({!Runtime.Engine.Error})
    retries the request — or the whole mega-batch — {e once} on the
    interpreter (counted in [frontend.degraded]); only if that retry
    also fails does the client see an error.

    Every submitted request resolves to exactly one outcome; {!shutdown}
    drains already-admitted requests before the workers exit.

    {2 Telemetry}

    Every request gets a process-unique id at admission ({!request_id}),
    carried as span trace context ({!Obs.Span.with_request}) on both the
    submitting domain (the [frontend.submit] span) and the worker domain
    (the [frontend.request] span and everything {!Server.handle} records
    inside it) — filter the trace sink with
    {!Obs.Trace_sink.events_for} to reassemble one request's chain.
    Each completed request also appends a summary to the
    {!Obs.Flight} ring (queue wait, per-stage wall times, raggedness
    signature, cache hits, outcome); error and deadline outcomes trigger
    {!Obs.Flight.auto_dump}.  The [frontend.queue_depth] gauge tracks
    the queue at every enqueue/dequeue. *)

type outcome =
  | Response of Server.response  (** served normally (or on the degraded engine) *)
  | Overloaded  (** rejected at admission: the queue was full *)
  | Deadline_exceeded of string
      (** expired; the payload is the stage reached ("queue", "compile",
          "prelude", "launch", "execute") *)
  | Error of { exn : string; backtrace : string }
      (** the workload raised; the worker survived *)

(** A submitted request's future outcome. *)
type ticket

type t

(** [create srv] — spawn the worker pool.  [~domains] workers (default
    4, >= 1), queue bound [~capacity] (default 64, >= 1),
    [?deadline_ns] a default relative deadline applied to every request
    that does not carry its own.

    Every worker runs one loop: drain a window of requests, serve it.
    Without [?batching] a window is exactly one request.  [?batching]
    switches the workers to continuous batching: each worker
    drains a window of requests (up to [max_batch], holding the window
    open up to [max_wait_us] once the first request lands), groups it by
    workload, and serves each group through {!Batcher.run} as tile-packed
    ragged mega-batches — outputs and telemetry are scattered back per
    request, so tickets, outcomes, deadlines ([Deadline_exceeded "batch"]
    for members evicted at formation) and flight records behave exactly
    as in the unbatched mode.  Workloads without a {!Workload.batching}
    descriptor are served as singletons even under [?batching]. *)
val create :
  ?domains:int ->
  ?capacity:int ->
  ?deadline_ns:float ->
  ?batching:Batcher.config ->
  Server.t ->
  t

(** Non-blocking, admission-controlled submission: returns a ticket that
    is already resolved to {!Overloaded} when the queue is full (or the
    front-end is shutting down).  [?deadline_ns] overrides the
    front-end's default deadline for this request. *)
val submit : ?deadline_ns:float -> t -> Workload.t -> int array -> ticket

(** Backpressure submission: wait for a queue slot instead of rejecting
    (the admission policy of {!run_stream}, exposed for drivers that
    interleave submission with their own sampling). *)
val submit_wait : ?deadline_ns:float -> t -> Workload.t -> int array -> ticket

(** The request id allocated at admission — the [req] trace-context id
    on every span this request records, and the [id] of its
    {!Obs.Flight} record. *)
val request_id : ticket -> int

(** Block until the request resolves.  Idempotent. *)
val await : ticket -> outcome

(** [Some o] once resolved, without blocking. *)
val peek : ticket -> outcome option

(** Paced replay: submit every item in order — waiting for queue space
    instead of rejecting (backpressure) — and await all outcomes.
    Returns one outcome per item, in submission order. *)
val run_stream : ?deadline_ns:float -> t -> Workload.t -> int array array -> outcome array

(** Drain admitted requests, stop the workers, join the domains.
    Subsequent {!submit}s resolve to {!Overloaded}.  Idempotent. *)
val shutdown : t -> unit

(** Number of requests currently queued (diagnostic). *)
val queue_length : t -> int

val outcome_label : outcome -> string

(** A {!Batcher.outcome} as the client sees it: [Served] is a
    {!Response}, [Expired] a {!Deadline_exceeded}, [Failed] an
    {!Error}. *)
val of_batch_outcome : Batcher.outcome -> outcome

(** Deterministic request streams: a pool of distinct batch shapes drawn
    from the workload's sampler, replayed in random order.  All
    randomness flows through {!Workloads.Rng} from one seed, so a stream
    is exactly reproducible — the seed is part of the bench's JSON
    output line. *)

type t = {
  seed : int;
  shapes : int array array;  (** the pool of distinct raggedness vectors *)
  items : int array array;  (** one entry per request, drawn from [shapes] *)
}

(** [generate ~workload ~n ~seed ()] — [n] requests over a pool of
    [pool] (default 4) distinct shapes.  With [n >> pool], most requests
    repeat an earlier shape, which is what gives the caches their hits. *)
val generate : workload:Workload.t -> ?pool:int -> n:int -> seed:int -> unit -> t

(** [repeat ~shape ~n ~seed] — the degenerate stream of one shape [n]
    times (the ×10 repeated-batch scenario of the acceptance tests). *)
val repeat : shape:int array -> n:int -> seed:int -> t

(** Replay through a server, in order; returns one response per item. *)
val replay : Server.t -> Workload.t -> t -> Server.response list

(** {2 Trace-driven decode load generation}

    A trace models autoregressive serving: sessions of one prefill step
    (initial KV-cache lengths from the workload's sampler) followed by
    [steps] decode steps, each growing every cache row by one token.
    Sessions arrive in bursts and carry their tenant class's deadline.
    Per-session step order is semantic (a decode step extends its
    predecessor's cache) and both drivers preserve it. *)

type phase = Prefill | Decode of int  (** decode step number, 1-based *)

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

val phase_label : phase -> string

(** [generate_trace ~workload ~seed ()] — [sessions] sessions of
    [1 + steps] events each, arriving in bursts of [burst] sessions
    opening every [burst_gap_us]; session [s] belongs to tenant
    [s mod Array.length classes] and inherits that class's deadline
    ([None] = no deadline).  Deterministic in [seed]. *)
val generate_trace :
  workload:Workload.t ->
  ?sessions:int ->
  ?steps:int ->
  ?burst:int ->
  ?burst_gap_us:float ->
  ?classes:float option array ->
  seed:int ->
  unit ->
  trace

(** Concurrent driver: per-session software pipelining through the
    front-end — a session's step [t+1] is submitted only after its step
    [t] resolves, while distinct sessions overlap freely.  [pace > 0]
    honours the bursty arrival offsets for prefill submissions (scaled
    by [pace]); [pace = 0] (default) runs flat out.  Returns
    (event, outcome) pairs aligned with [trace.events]. *)
val run_trace :
  ?pace:float -> Frontend.t -> Workload.t -> trace -> (event * Frontend.outcome) array

(** {2 The reference} *)

(** [reference w items] — each item's dense output from a cache-bypassed
    ([~compile_cache:false ~prelude_cache:false]), untuned, serial
    [`Interp] server that serves each distinct vector once. *)
val reference : Workload.t -> int array array -> float array array

(** [check w items outcomes] — the ascending indices of the outcomes
    (aligned with [items]; [Invalid_argument] otherwise) that are not a
    {!Frontend.Response} whose [out] is bitwise [reference w items]'s. *)
val check : Workload.t -> int array array -> Frontend.outcome array -> int list

(** Order-independent digest of every output bit: FNV-1a over each
    response's [out], summed mod 2^64, so equal responses do not cancel.
    A response without [out] adds nothing. *)
val digest : Server.response list -> int64

(** Continuous batch-former: bin-pack a window of admitted requests into
    tile-aligned ragged mega-batches, run each mega-batch through
    {!Server.handle} once, and scatter per-request outputs and telemetry
    back.

    The CoRa angle: a ragged mega-batch pads each row to
    [ceilmult (len, tile)] instead of the dense batcher's
    [max_len]-per-batch envelope, so concatenating requests of unequal
    lengths costs tile residue rather than max-len padding — the
    [batcher.elems_actual] / [batcher.elems_padded] / [batcher.elems_naive]
    counters quantify exactly that gap, and [batch.padding_waste] is the
    per-window [1 - actual/padded] fraction.

    {2 Bitwise replay contract}

    A request served inside a mega-batch returns bitwise the bytes a solo
    replay would: the workload's {!Workload.batching} descriptor localizes
    input fills to each member's own frame (its [local_index], applied to
    the leading index through {!Server.handle}'s [?lead] hook) and slices
    the member's rows back out of the mega output.  [bench-stream --batching --smoke] and the batched
    differential tests enforce this end to end.

    {2 Telemetry scatter-back}

    Each served member gets its own {!Server.response}: its output slice
    and checksum, stage/model times scaled by its tile share of the
    batch, the (shared) prelude-hit flag and raggedness signature, and —
    on the first member only, so stream totals stay exact — the batch's
    cache and arena tallies.  The scatter runs under the member's own
    request trace-context and records a [batch.member] span tagged with
    [batch_id] / [batch_size] / [tile_share]. *)

type config = {
  max_batch : int;  (** max members per mega-batch (>= 1) *)
  max_wait_us : float;
      (** how long the front-end holds a forming window open for more
          requests once it has one *)
  tile : int;  (** row-length alignment quantum (>= 1) *)
}

(** [{max_batch = 8; max_wait_us = 2000.0; tile = 4}] *)
val default_config : config

(** The pure bin-packer, exposed for property fuzzing. *)
module Pack : sig
  (** [ceilmult n m] — [n] rounded up to a multiple of [m] ([n] when
      [m <= 0]). *)
  val ceilmult : int -> int -> int

  type bin = {
    members : int array;
        (** indices into the pack input, in mega-batch order (weight
            descending — the length-signature bucketing) *)
    tiles : int;  (** total tile-aligned weight of the bin *)
  }

  type plan = {
    bins : bin array;
    elems_actual : int;  (** sum of all raw row lengths *)
    elems_padded : int;  (** sum of [ceilmult (row, tile)] — CoRa padding *)
    elems_naive : int;
        (** per-bin [rows * ceilmult (max_row, tile)] — the dense
            max-len-padded baseline; always [>= elems_padded] *)
  }

  (** [weight ~tile rows] — the request's tile-aligned row weight. *)
  val weight : tile:int -> int array -> int

  (** First-fit-decreasing over tile-aligned row weights; bins capped at
      [max_batch] members and at the ideal per-bin tile load.  Every
      member lands in exactly one bin; deterministic (ties broken by raw
      lengths, then input index).  Raises [Invalid_argument] when [tile]
      or [max_batch] is [< 1]. *)
  val pack : tile:int -> max_batch:int -> int array array -> plan
end

(** The packing plan {!run} serves a window under: {!Pack.pack}. *)
val plan : tile:int -> max_batch:int -> int array array -> Pack.plan

type member = {
  m_lens : int array;  (** the request's raggedness vector *)
  m_deadline_us : float;  (** absolute, [Trace_sink.now_us] clock; [infinity] = none *)
  m_id : int;  (** request trace-context id for the scatter-back spans *)
}

type outcome =
  | Served of { resp : Server.response; batch_id : int; batch_size : int }
  | Expired of { stage : string; batch_id : int; batch_size : int }
      (** stage ["batch"] = evicted at formation ([batch_id] 0); any other
          stage = the whole mega-batch ran out of its most generous
          member deadline there *)
  | Failed of { exn : string; backtrace : string; batch_id : int; batch_size : int }

(** Form mega-batches from one drained window of a single workload and
    serve them.  Returns one outcome per member, in input order.  Members
    already past their deadline at formation are evicted before packing.
    Each mega-batch is one {!Server.handle} call under its most generous
    member deadline, so it degrades to the interpreter exactly as a solo
    request does.  Raises [Invalid_argument] if the workload has no
    {!Workload.batching} descriptor. *)
val run : config -> Server.t -> Workload.t -> member array -> outcome array

(** Runtime ragged-tensor values: a flat float buffer laid out per the
    {!Tensor.t} declaration (densely packed vdim slices with the declared
    padding), numeric offsets mirroring {!Storage.lower}, and conversions
    to/from fully padded dense layouts (the AddPad/RemovePad operators).

    Bulk traversals ({!iter_rows}, {!iter_offsets}, {!iter_indices},
    {!fill}, {!pack}, {!unpack}) share one row-major {e offset walk}: it
    resolves each dimension's layout once per call (a memoized prefix sum
    for a dim with ragged dependents, a stride computed once per outer
    assignment for any other) and moves the innermost dimension as a
    contiguous run, so no element pays the per-index {!offset}
    computation. *)

type t = {
  tensor : Tensor.t;
  buf : Runtime.Buffer.t;
  lenv : Lenfun.env;
  prefix_cache : int array option Atomic.t array;
      (** memoized prefix sums of per-value slice volumes for dims with
          ragged dependents, shared by {!offset} and the offset walk —
          keeps a dim's contribution O(1) instead of O(batch), which is
          what makes filling and unpacking a B-row mega-batch linear
          rather than quadratic in B.  Both
          inputs (tensor, lenv) are immutable per value, so entries
          never invalidate.  One slot per dim, published as an immutable
          array through an [Atomic] so parallel mega-batch fill/scatter
          can share the value across domains: a race at worst recomputes
          the identical array.  Managed by this module; construct values
          through {!alloc} or size it with {!fresh_prefix_cache}. *)
}

(** One empty per-dim slot array, sized for the tensor's rank (for callers
    constructing {!t} records directly). *)
val fresh_prefix_cache : Tensor.t -> int array option Atomic.t array

(** Zero-filled buffer sized for the tensor (zero padding keeps padded
    reductions exact). *)
val alloc : Tensor.t -> Lenfun.env -> t

(** Numeric flat offset of a multi-index — the runtime mirror of the
    symbolic lowering (checked equal by the test suite).  Re-derives the
    layout per call: the reference the offset walk is tested against. *)
val offset : t -> int list -> int

val get : t -> int list -> float
val set : t -> int list -> float -> unit

(** The offset walk: every valid (unpadded) multi-index with its flat
    offset (equal to {!offset}), in row-major order.  A declaration
    {!offset} rejects is rejected here too. *)
val iter_offsets : t -> (int list -> int -> unit) -> unit

(** The offset walk one innermost run at a time: [row idx base len] for
    every run of the valid region, in row-major order.  The run's outer
    indices are [idx.(0 .. n-2)] for a rank-[n] tensor (slot [n-1] is
    unspecified; the array is reused between calls), and its innermost
    index [v] in [0, len) lives at flat offset [base + v].  A rank-0
    tensor is one run of length 1 at offset 0 with an empty [idx]. *)
val iter_rows : t -> (int array -> int -> int -> unit) -> unit

(** Iterate over every valid (unpadded) multi-index, in row-major order. *)
val iter_indices : t -> (int list -> unit) -> unit

(** Fill the valid region with a function of the multi-index, called once
    per valid index in {!iter_indices} order. *)
val fill : t -> (int list -> float) -> unit

(** Fully padded shape (ragged extents replaced by their maxima). *)
val dense_shape : t -> int list

(** Pack a dense row-major array into ragged storage (RemovePad). *)
val pack : t -> float array -> unit

(** Unpack into a dense row-major array, zero elsewhere (AddPad). *)
val unpack : t -> float array

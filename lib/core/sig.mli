(** Structural signatures of compiler objects.

    A signature is a canonical fingerprint of an IR fragment, operator or
    schedule, computed {e structurally}: two objects that denote the same
    program receive the same signature even when they were built
    independently — variables, dimensions and axes are numbered by first
    occurrence in a deterministic traversal, so globally-unique ids and
    display names do not leak into the fingerprint.  Names that are bound
    at launch time (length functions, prelude tables, intrinsics, tensor
    names — all resolved by string) {e do} participate: they are part of
    the program's meaning.

    Signatures key the caches of the batch-stream serving layer
    ({!Lower.lower_memo}'s compile cache and {!Prelude.build_cached}'s
    prelude cache): equality is decided on the full canonical form, never
    on the 64-bit hash alone, so a hash collision can cost a cache miss
    but never a wrong reuse. *)

type t

(** Exact structural equality (canonical forms compared in full). *)
val equal : t -> t -> bool

val compare : t -> t -> int

(** 64-bit FNV-1a hash of the canonical form — the cheap table key. *)
val hash64 : t -> int64

(** Hex rendering of {!hash64} (16 chars), for logs and JSON. *)
val to_hex : t -> string

(** The canonical form itself (stable across processes; useful in tests). *)
val canonical : t -> string

(** Fold several signatures into one (order-sensitive). *)
val combine : t list -> t

(** Signature of a raw string key component (e.g. a workload name). *)
val of_string : string -> t

val of_stmt : Ir.Stmt.t -> t

(** Schedule signature: the operator (loop/reduction extents, body,
    init, epilogue, reduction combinator, and the storage declarations —
    extents, padding, bulk padding, names — of the output and every read
    tensor) plus the complete axis forest (origins, split factors, fusion
    kinds, paddings, bindings, remap and elision flags), leaf order,
    guard mode, hoisting, efficiency and boundedness.  Axes are numbered
    canonically, so two independently built, identical schedules
    agree. *)
val of_schedule : Schedule.t -> t

(** The full memoization key for one {!Lower.lower} call: {!of_schedule}
    plus the lowering options.  [ranges] axis ids are canonicalised
    through the schedule's own axis numbering. *)
val lowering_key :
  ?ranges:(int * Schedule.range_mode) list ->
  ?init:bool ->
  ?apply_epilogue:bool ->
  ?name_suffix:string ->
  Schedule.t ->
  t

(** Raggedness signature of a batch: the concrete length-function tables
    (name → per-index lengths) that the prelude will consume.  Entries
    are sorted by name, so binding order does not matter; any change to
    any length changes the signature. *)
val of_tables : (string * int array) list -> t

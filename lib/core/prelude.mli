(** Prelude: host-side construction of auxiliary data structures (§2, §5,
    §7.4).  Each uninterpreted function the lowered kernels reference —
    storage offset arrays ([A_d]), fused-loop maps and totals — is
    described as a {!def}; {!build} materialises them from the concrete
    length functions, with the time/memory accounting the paper reports. *)

type kind =
  | Storage  (** ragged-storage offset arrays (§B.1) *)
  | Loop_fusion  (** fused-vloop maps [f_fo]/[f_fi]/offsets/totals (§5.1) *)

type value = Scalar of int | Table of int array

type def = {
  name : string;  (** doubles as the uninterpreted-function name in the IR *)
  kind : kind;
  compute : Lenfun.env -> value;
  work : Lenfun.env -> int;  (** host operations to build it (≈ entries) *)
  c_src : string option;  (** host-side C implementation, when available *)
  update : (prev:value -> old_lenv:Lenfun.env -> Lenfun.env -> (value * int) option) option;
      (** incremental maintenance from the value built for [old_lenv]:
          [(new value, host ops actually performed)], sharing the previous
          array by reference when nothing changed; [None] = updater
          declines (shape mismatch), fall back to [compute]. *)
}

type built = {
  tables : (string * value) list;
  storage_entries : int;
  fusion_entries : int;
  storage_work : int;
  fusion_work : int;
}

val value_entries : value -> int

(** Keep one def per name — CoRa shares aux structures across operators and
    layers with the same raggedness pattern (CoRA-Optimized, §7.4). *)
val dedup : def list -> def list

(** Build all aux structures.  [~dedup_defs:false] reproduces the redundant
    per-operator computation of the unoptimized prototype (Tables 7–8). *)
val build : ?dedup_defs:bool -> def list -> Lenfun.env -> built

(** Raised by the differential check (see {!set_delta_check}) when a
    delta-updated table differs from a from-scratch build; carries the
    offending table name. *)
exception Delta_mismatch of string

(** [delta_update ~prev ~old_lenv defs lenv] — incremental prelude
    maintenance for autoregressive decoding: produce the tables for [lenv]
    by extending [prev] (the tables built for [old_lenv]) instead of
    rebuilding, touching only rows whose padded size changed and sharing
    unchanged arrays by reference.  [prev] is never mutated (it may be a
    cached value shared across requests).  Falls back to a from-scratch
    compute per def when no previous value applies.  Counters:
    [prelude.tables_delta_updated], [prelude.tables_shared]; fallbacks
    count as [prelude.tables_built].  The work fields of the result record
    the operations actually performed, so modeled host time shrinks with
    the delta; the entries fields stay exact (copy volume is unchanged). *)
val delta_update : ?dedup_defs:bool -> prev:built -> old_lenv:Lenfun.env -> def list ->
  Lenfun.env -> built

(** When enabled, every {!delta_update} table is also rebuilt from scratch
    and compared bitwise, raising {!Delta_mismatch} on any difference —
    the differential oracle for the incremental path (used by tests and
    [--smoke]). *)
val set_delta_check : bool -> unit

(** Bitwise equality of prelude values. *)
val value_equal : value -> value -> bool

(** Memory footprint in bytes (4-byte entries, as the paper reports). *)
val bytes : built -> int

val storage_bytes : built -> int
val fusion_bytes : built -> int

(** Bind every built table as an uninterpreted function for execution. *)
val bind_all : built -> Runtime.Interp.env -> unit

(** Bind the raw length functions (kernels use them as loop extents). *)
val bind_lenfuns : Lenfun.env -> Runtime.Interp.env -> unit

(** Prefix sums of padded slice sizes: the factored storage offset array
    for a (cdim, vdim) pair AND the fused-loop offsets array. *)
val psum_def : name:string -> fn_name:string -> count:int -> pad:int -> def

(** General prefix sum of per-slice volumes (entry count may itself be
    length-dependent: nested raggedness). *)
val volume_psum_def :
  name:string -> count:(Lenfun.env -> int) -> volume:(Lenfun.env -> int -> int) -> def

(** Pointwise table [name.(x) = value lenv x] (subtree-volume strides). *)
val pointwise_def :
  name:string -> count:(Lenfun.env -> int) -> value:(Lenfun.env -> int -> int) -> def

(** Scalar computed by the prelude. *)
val scalar_def : name:string -> value:(Lenfun.env -> int) -> def

(** Fused-loop total [F], bulk-padded (§7.2). *)
val fused_total_def : name:string -> fn_name:string -> count:int -> pad:int -> bulk:int -> def

(** Fused-loop maps [f_fo]/[f_fi] (§5.1); bulk-padding entries map to a
    virtual row so padded iterations stay within the padded buffer. *)
val fused_map_defs :
  fo_name:string -> fi_name:string -> fn_name:string -> count:int -> pad:int -> bulk:int ->
  def list

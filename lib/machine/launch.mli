(** Kernel launch timing: builds the launch-time environment (length
    functions + prelude tables), enumerates the grid of thread blocks,
    costs each block, and schedules them.  A launch of several kernels is
    a {e horizontal fusion} (§4.1): one grid, one launch overhead. *)

type t = {
  kernels : Cora.Lower.kernel list;
  label : string;
}

val single : Cora.Lower.kernel -> t

(** Horizontally fuse several kernels into one launch (Fig. 5, step 3).
    Raises {!Cora.Hfusion.Illegal} on racy fusions. *)
val hfused : ?label:string -> Cora.Lower.kernel list -> t

(** The cost model's view of a launch-time environment: the raw length
    functions, overridden by same-named prelude tables. *)
val ufuns : Cora.Lenfun.env -> Cora.Prelude.built -> string -> Runtime.Cost_model.ufun option

(** A compiled launch model: per kernel, the cost-model program (grid
    peeled, shared block body compiled, variables resolved to slots), the
    cost parameters of its boundedness and its
    [launch.block_cost_ns.<kernel>] histogram handle.  Immutable — it
    depends only on the kernels and the device, so one model prices every
    request of the same structure, from any domain. *)
type model

val compile : device:Device.t -> t list -> model

type pipeline_time = {
  kernels_ns : float;
  per_launch : (string * float) list;
  prelude_host_ns : float;
  prelude_copy_ns : float;
}

val total_ns : pipeline_time -> float

(** (host-build ns, host→device copy ns) of built aux structures. *)
val prelude_cost : device:Device.t -> Cora.Prelude.built -> float * float

(** [price ?prelude ~lenv m] — the per-call half of the model: resolve
    the length functions and prelude tables, evaluate every block (loop
    memos shared across the blocks of one kernel for this call only) and
    schedule them.  Each launch runs under a [launch] span whose [blocks]
    attribute is that launch's own block count.  With [?prelude] the
    supplied structures are reused: an earlier request with the same
    raggedness signature already built and copied them, so
    [prelude_host_ns] and [prelude_copy_ns] are both 0; without it they
    are built here and charged.  [?engine] / [?opt] tag the
    [launch.pipeline] span with the execution engine (and its
    optimization level) serving the request being priced. *)
val price :
  ?engine:[ `Interp | `Compiled ] ->
  ?opt:Ir.Optimize.level ->
  ?prelude:Cora.Prelude.built ->
  lenv:Cora.Lenfun.env -> model -> pipeline_time

(** Time a sequence of launches, including prelude build and host→device
    copy of the auxiliary structures (Fig. 4's runtime pipeline):
    [price] of a freshly compiled model. *)
val pipeline :
  ?engine:[ `Interp | `Compiled ] ->
  ?opt:Ir.Optimize.level ->
  ?prelude:Cora.Prelude.built ->
  device:Device.t -> lenv:Cora.Lenfun.env -> t list -> pipeline_time

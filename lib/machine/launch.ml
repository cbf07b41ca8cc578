open Cora

(** Kernel launch timing.

    Glues compiler output to the machine model: builds the launch-time
    environment (length functions + prelude tables), enumerates the grid of
    thread blocks, costs each block with the memoised cost model, and runs
    the block scheduler.  {!compile} does the per-structure half once
    (cost-model programs, parameters, histogram handles); {!price} the
    per-call half.  A launch of several kernels is a {e horizontal
    fusion} (§4.1): their blocks share one grid and one launch overhead. *)

type t = {
  kernels : Lower.kernel list;  (** singleton, or several when h-fused *)
  label : string;
}

let single (k : Lower.kernel) = { kernels = [ k ]; label = k.Lower.kname }

(** Horizontally fuse several kernels into one launch (Fig. 5, step 3).
    Validates independence: raises {!Cora.Hfusion.Illegal} on racy fusions
    (e.g. the pieces of a reduction-loop split, §7.1 footnote). *)
let hfused ?label (ks : Lower.kernel list) =
  let ks = Hfusion.validate ks in
  {
    kernels = ks;
    label =
      (match label with
      | Some l -> l
      | None -> String.concat "+" (List.map (fun (k : Lower.kernel) -> k.Lower.kname) ks));
  }

(* The cost model's view of the launch-time environment: the raw length
   functions, overridden by same-named prelude tables. *)
let ufuns (lenv : Lenfun.env) (built : Prelude.built) : string -> Runtime.Cost_model.ufun option =
 fun name ->
  match List.assoc_opt name built.Prelude.tables with
  | Some (Prelude.Scalar n) -> Some { Runtime.Cost_model.call1 = (fun _ -> n); calln = (fun _ -> n) }
  | Some (Prelude.Table a) ->
      let call1 i =
        if i >= 0 && i < Array.length a then a.(i)
        else invalid_arg (Printf.sprintf "aux %s: index %d out of range" name i)
      in
      Some
        {
          Runtime.Cost_model.call1;
          calln = (function [ i ] -> call1 i | _ -> invalid_arg ("aux " ^ name ^ " arity"));
        }
  | None ->
      Option.map
        (fun f ->
          {
            Runtime.Cost_model.call1 = f;
            calln = (function [ i ] -> f i | _ -> invalid_arg ("lenfun " ^ name ^ " arity"));
          })
        (List.assoc_opt name lenv)

(* One kernel's compiled cost model: its grid peeled and its shared block
   body compiled once, with the parameters of its boundedness and the
   handle of its block-cost histogram. *)
type kmodel = {
  kernel : Lower.kernel;
  prog : Runtime.Cost_model.prog;
  cost_h : Obs.Metrics.histogram;
}

type model = {
  device : Device.t;
  launches : (t * kmodel list) list;
}

let compile ~(device : Device.t) (launches : t list) : model =
  let kmodel (k : Lower.kernel) =
    (* Compute-bound kernels are priced by lane-normalised operation
       counts through the block scheduler; memory-bound kernels (softmax,
       layernorm, layout changes) by raw traffic against the
       per-processor share of the device bandwidth. *)
    let params =
      match k.Lower.bound with
      | Schedule.Compute_bound -> Device.cost_params device
      | Schedule.Memory_bound -> { Runtime.Cost_model.lanes = 1; vec_width = 1 }
    in
    {
      kernel = k;
      prog = Runtime.Cost_model.prepare ~grid_kind:device.Device.grid_kind params k.Lower.body;
      cost_h = Obs.Metrics.histogram ("launch.block_cost_ns." ^ k.Lower.kname);
    }
  in
  { device; launches = List.map (fun l -> (l, List.map kmodel l.kernels)) launches }

(* Per-block cost (ns) of one kernel, in enumeration order. *)
let block_costs ~(device : Device.t) ~ufun (km : kmodel) : float array =
  let k = km.kernel in
  let bw_per_proc = device.Device.mem_bw_bytes_per_ns /. float_of_int device.Device.n_proc in
  let costs = ref [] in
  Runtime.Cost_model.iter_blocks km.prog ~ufun (fun c ->
      let ns =
        match k.Lower.bound with
        | Schedule.Compute_bound -> Device.block_ns device ~eff:k.Lower.eff c
        | Schedule.Memory_bound -> Device.block_bytes c /. bw_per_proc /. k.Lower.eff
      in
      Obs.Metrics.observe km.cost_h ns;
      costs := ns :: !costs);
  Array.of_list (List.rev !costs)

(** Wall time of one launch (makespan of all its blocks plus the launch
    overhead) and its block count.  Blocks of h-fused kernels are
    interleaved in issue order so they genuinely execute concurrently. *)
let time ~(device : Device.t) ~ufun (kms : kmodel list) : float * int =
  let all = List.map (fun km -> (block_costs ~device ~ufun km, km.kernel.Lower.remap)) kms in
  let policy =
    if List.exists (fun (_, r) -> r = Schedule.Descending_work) all then Gpusim.Descending_work
    else Gpusim.Issue_order
  in
  (* Block counts are lane-normalised by the cost model, so the per-kernel
     efficiency factor (not a raw-bytes floor) carries the memory-bound
     behaviour of compiled kernels; the analytic baselines, whose counts are
     raw totals, apply the bandwidth floor in {!Baselines.Analytic}. *)
  let costs = Array.concat (List.map fst all) in
  let compute_ns = Gpusim.makespan ~n_proc:device.Device.n_proc ~policy costs in
  (compute_ns +. device.Device.launch_ns, Array.length costs)

(** Timing summary of a full pipeline (Fig. 4's runtime half):
    prelude build on the host, host→device copy of the aux structures, then
    the sequence of launches. *)
type pipeline_time = {
  kernels_ns : float;
  per_launch : (string * float) list;
  prelude_host_ns : float;
  prelude_copy_ns : float;
}

let total_ns p = p.kernels_ns +. p.prelude_host_ns +. p.prelude_copy_ns

(** Host-build time and host→device copy time of built aux structures —
    the prelude's contribution to one pipeline's makespan. *)
let prelude_cost ~(device : Device.t) (built : Prelude.built) : float * float =
  let work = built.Prelude.storage_work + built.Prelude.fusion_work in
  let host = float_of_int work *. device.Device.aux_entry_ns in
  let bytes = float_of_int (Prelude.bytes built) in
  let copy =
    if device.Device.h2d_bytes_per_ns = infinity then 0.0
    else bytes /. device.Device.h2d_bytes_per_ns
  in
  (host, copy)

let price ?engine ?opt ?prelude ~lenv (m : model) : pipeline_time =
  let device = m.device in
  Obs.Span.with_span
    ~attrs:
      ([
         ("device", Obs.Trace_sink.Str device.Device.name);
         ("launches", Obs.Trace_sink.Int (List.length m.launches));
       ]
      @ (* which execution engine (and optimization level) serves the
           request this model run prices — lets a trace correlate modelled
           and measured times per configuration *)
      (match engine with
      | Some e ->
          [ ("engine", Obs.Trace_sink.Str (match e with `Interp -> "interp" | `Compiled -> "compiled")) ]
      | None -> [])
      @
      match opt with
      | Some o -> [ ("opt", Obs.Trace_sink.Str (Ir.Optimize.level_name o)) ]
      | None -> [])
    "launch.pipeline"
  @@ fun () ->
  let built =
    match prelude with
    | Some built -> built
    | None ->
        let defs =
          List.concat_map
            (fun (l, _) -> List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) l.kernels)
            m.launches
        in
        Prelude.build ~dedup_defs:true defs lenv
  in
  let ufun = ufuns lenv built in
  let per_launch =
    List.map
      (fun (l, kms) ->
        Obs.Span.with_span
          ~attrs:[ ("launch", Obs.Trace_sink.Str l.label) ]
          "launch"
          (fun () ->
            let t, blocks = time ~device ~ufun kms in
            Obs.Span.add_attr "blocks" (Obs.Trace_sink.Int blocks);
            Obs.Span.add_attr "model_ns" (Obs.Trace_sink.Float t);
            (l.label, t)))
      m.launches
  in
  let kernels_ns = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 per_launch in
  (* A caller-supplied prelude was built (and copied) by an earlier request
     with the same raggedness signature: this pipeline does zero host work
     and moves zero aux bytes — the serving cache's whole point (§7.4). *)
  let prelude_host_ns, prelude_copy_ns =
    match prelude with Some _ -> (0.0, 0.0) | None -> prelude_cost ~device built
  in
  (* makespan breakdown of the modelled pipeline, attached as attributes
     of the pipeline span *)
  Obs.Span.add_attr "kernels_ns" (Obs.Trace_sink.Float kernels_ns);
  Obs.Span.add_attr "prelude_host_ns" (Obs.Trace_sink.Float prelude_host_ns);
  Obs.Span.add_attr "prelude_copy_ns" (Obs.Trace_sink.Float prelude_copy_ns);
  Obs.Span.add_attr "total_ns"
    (Obs.Trace_sink.Float (kernels_ns +. prelude_host_ns +. prelude_copy_ns));
  { kernels_ns; per_launch; prelude_host_ns; prelude_copy_ns }

let pipeline ?engine ?opt ?prelude ~device ~lenv (launches : t list) : pipeline_time =
  price ?engine ?opt ?prelude ~lenv (compile ~device launches)

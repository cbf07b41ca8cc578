(** Kernel execution — the runtime half of Fig. 4.

    Mirrors the runtime pipeline: run the prelude on the host to build
    auxiliary structures, bind them (and the raw length functions and
    tensor buffers), then execute the generated kernels through one of two
    engines:

    - [`Interp] — the tree-walking reference interpreter ({!Runtime.Interp}),
      ground truth for the test suite;
    - [`Compiled] — the closure-compiling engine ({!Runtime.Engine}):
      kernels are compiled per call, or once per {!handles} value (a
      serving plan holds one) and re-bound to fresh buffers and prelude
      tables per request.  [Parallel]-bound loops run on one
      persistent domain pool spawned per [run].

    Both engines maintain identical statistics counters, so the returned
    {!Runtime.Interp.env} reports the same counts either way.

    The whole pipeline is traced: one [exec.run] span wrapping the prelude
    build and one [exec.kernel] span per kernel (with [engine.compile] /
    [engine.run] sub-spans on the compiled path), and the counters are
    flushed into the {!Obs.Metrics} registry ([interp.*] or [engine.*]). *)

type binding = Tensor.t * Runtime.Buffer.t
type engine = [ `Interp | `Compiled ]

let engine_name = function `Interp -> "interp" | `Compiled -> "compiled"

(* ------------------------------------------------------------------ *)
(* Compiled-engine handles.  Compilation depends only on the statement's
   structure — buffers, length functions and prelude tables are bound per
   frame — so a caller that serves one kernel list many times (a serving
   plan) compiles each kernel once and re-binds it per run.  Compiled
   closures are immutable (all mutable state lives in per-run frames), so
   handles are shared across domains; a kernel is compiled on first use,
   and two domains racing on it both compile (benign: last write wins,
   both closures are equivalent). *)

type handles = {
  h_opt : Ir.Optimize.level;
  h_kernels : Lower.kernel array;
  h_compiled : Runtime.Engine.compiled option Atomic.t array;
}

let handles ~opt (kernels : Lower.kernel list) =
  let h_kernels = Array.of_list kernels in
  { h_opt = opt; h_kernels; h_compiled = Array.map (fun _ -> Atomic.make None) h_kernels }

let compile_kernel ~(opt : Ir.Optimize.level) (k : Lower.kernel) : Runtime.Engine.compiled =
  Obs.Span.with_span
    ~attrs:
      [
        ("kernel", Obs.Trace_sink.Str k.Lower.kname);
        ("opt", Obs.Trace_sink.Str (Ir.Optimize.level_name opt));
      ]
    "engine.compile"
    (fun () -> Runtime.Engine.compile ~opt k.Lower.body)

let handle h i =
  match Atomic.get h.h_compiled.(i) with
  | Some c -> (c, false)
  | None ->
      let c = compile_kernel ~opt:h.h_opt h.h_kernels.(i) in
      Atomic.set h.h_compiled.(i) (Some c);
      (c, true)

let compile_handles h =
  let fresh = ref 0 in
  Array.iteri (fun i _ -> if snd (handle h i) then incr fresh) h.h_compiled;
  !fresh

(* Bind buffers, length functions and prelude tables to a frame, in the
   same order the interpreter path binds them (later bindings win). *)
let bind_frame ~(lenv : Lenfun.env) ~(built : Prelude.built) ~(bindings : binding list) fr =
  List.iter (fun ((t : Tensor.t), b) -> Runtime.Engine.bind_buf fr t.Tensor.buf b) bindings;
  List.iter (fun (name, f) -> Runtime.Engine.bind_ufun1 fr name f) lenv;
  List.iter
    (fun (name, v) ->
      match v with
      | Prelude.Scalar n -> Runtime.Engine.bind_ufun_const fr name n
      | Prelude.Table a -> Runtime.Engine.bind_ufun_table fr name a)
    built.Prelude.tables

let run ?(engine = `Interp) ?(opt = Ir.Optimize.O0) ?(multicore = false) ?(domains = 4)
    ?prelude ?handles ~(lenv : Lenfun.env) ~(bindings : binding list) (kernels : Lower.kernel list) :
    Runtime.Interp.env * Prelude.built =
  Obs.Span.with_span
    ~attrs:
      [
        ("kernels", Obs.Trace_sink.Int (List.length kernels));
        ("engine", Obs.Trace_sink.Str (engine_name engine));
        ("opt", Obs.Trace_sink.Str (Ir.Optimize.level_name opt));
      ]
    "exec.run"
  @@ fun () ->
  let env = Runtime.Interp.create () in
  let built =
    match prelude with
    | Some built -> built
    | None ->
        let defs = List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) kernels in
        Prelude.build ~dedup_defs:true defs lenv
  in
  (match engine with
  | `Interp ->
      List.iter (fun (t, b) -> Runtime.Interp.bind_buf env t.Tensor.buf b) bindings;
      Prelude.bind_lenfuns lenv env;
      Prelude.bind_all built env;
      List.iter
        (fun (k : Lower.kernel) ->
          Obs.Span.with_span
            ~attrs:[ ("kernel", Obs.Trace_sink.Str k.Lower.kname) ]
            "exec.kernel"
            (fun () ->
              if multicore then Runtime.Interp.exec_multicore ~domains env k.Lower.body
              else Runtime.Interp.exec env k.Lower.body))
        kernels;
      Runtime.Interp.flush_metrics env
  | `Compiled ->
      (* one persistent pool per run; every Parallel loop of every kernel
         reuses its domains instead of spawning fresh ones *)
      let pool =
        if multicore && domains > 1 then Some (Runtime.Engine.Pool.create ~domains ())
        else None
      in
      let compiled =
        match handles with
        | Some h ->
            if h.h_opt <> opt || Array.length h.h_kernels <> List.length kernels then
              invalid_arg "Exec.run: handles compiled for another kernel list or level";
            fun i _ -> fst (handle h i)
        | None -> fun _ k -> compile_kernel ~opt k
      in
      Fun.protect ~finally:(fun () -> Option.iter Runtime.Engine.Pool.shutdown pool)
      @@ fun () ->
      List.iteri
        (fun i (k : Lower.kernel) ->
          Obs.Span.with_span
            ~attrs:[ ("kernel", Obs.Trace_sink.Str k.Lower.kname) ]
            "exec.kernel"
          @@ fun () ->
          let c = compiled i k in
          let fr = Runtime.Engine.frame c in
          bind_frame ~lenv ~built ~bindings fr;
          Obs.Span.with_span "engine.run" (fun () -> Runtime.Engine.run ?pool fr);
          Runtime.Engine.flush_metrics fr;
          (* fold into the interpreter env so callers read one counter set *)
          List.iter
            (fun (name, v) ->
              match name with
              | "loads" -> env.Runtime.Interp.loads <- env.Runtime.Interp.loads + v
              | "stores" -> env.Runtime.Interp.stores <- env.Runtime.Interp.stores + v
              | "flops" -> env.Runtime.Interp.flops <- env.Runtime.Interp.flops + v
              | "indirect" -> env.Runtime.Interp.indirect <- env.Runtime.Interp.indirect + v
              | "guards" -> env.Runtime.Interp.guards <- env.Runtime.Interp.guards + v
              | "guard_hits" ->
                  env.Runtime.Interp.guard_hits <- env.Runtime.Interp.guard_hits + v
              | _ -> ())
            (Runtime.Engine.stats fr))
        kernels);
  (env, built)

(** Convenience wrapper for ragged tensor values. *)
let run_ragged ?engine ?opt ?multicore ?domains ?prelude ?handles ~(lenv : Lenfun.env)
    ~(tensors : Ragged.t list) kernels =
  run ?engine ?opt ?multicore ?domains ?prelude ?handles ~lenv
    ~bindings:(List.map (fun (r : Ragged.t) -> (r.Ragged.tensor, r.Ragged.buf)) tensors)
    kernels

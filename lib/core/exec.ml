(** Kernel execution — the runtime half of Fig. 4.

    Mirrors the runtime pipeline: run the prelude on the host to build
    auxiliary structures, bind them (and the raw length functions and
    tensor buffers), then execute the generated kernels through one of two
    engines:

    - [`Interp] — the tree-walking reference interpreter ({!Runtime.Interp}),
      ground truth for the test suite;
    - [`Compiled] — the closure-compiling engine ({!Runtime.Engine}):
      kernels are compiled once per structural signature (a {!Sig}-keyed
      memo, like the lowering memo) and re-bound to fresh buffers and
      prelude tables per request.  [Parallel]-bound loops run on one
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
(* Sig-keyed compiled-kernel memo.  Compilation depends only on the
   statement's structure — buffers, length functions and prelude tables
   are bound per frame — so the alpha-invariant structural signature is a
   sound cache key for the same reason it is one for lowering. *)

(* keyed by (signature, optimization level): the same structure compiles
   to different closure trees at different levels.  Shared across serving
   worker domains — mutex-protected and bounded (LRU eviction counted as
   engine_cache.evicted); compiled closures are immutable (all mutable
   state lives in per-request frames), so cross-domain sharing is sound. *)
let engine_memo : (Sig.t * int, Runtime.Engine.compiled) Cache.t =
  Cache.create ~name:"engine_cache" ~capacity:256 ()

let clear_engine_memo () = Cache.clear engine_memo
let engine_memo_size () = Cache.size engine_memo

let engine_hit_c = Obs.Metrics.counter "engine_cache.hit"
let engine_miss_c = Obs.Metrics.counter "engine_cache.miss"

(* Per-request engine-memo accounting, scoped in domain-local storage
   exactly like [Lower.with_memo]: the global hit/miss counters
   double-count as soon as two requests overlap, so callers that need a
   per-request tally (the serving flight recorder) wrap their pipeline
   in [with_engine_stats] and read the stats the scope collected. *)
type engine_stats = { mutable hits : int; mutable misses : int }

let engine_stats_key : engine_stats option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_engine_stats f =
  let slot = Domain.DLS.get engine_stats_key in
  let saved = !slot in
  let stats = { hits = 0; misses = 0 } in
  slot := Some stats;
  let v = Fun.protect ~finally:(fun () -> slot := saved) f in
  (v, stats)

let tally_engine hit =
  match !(Domain.DLS.get engine_stats_key) with
  | Some s -> if hit then s.hits <- s.hits + 1 else s.misses <- s.misses + 1
  | None -> ()

let compile_cached ~(opt : Ir.Optimize.level) (k : Lower.kernel) : Runtime.Engine.compiled =
  let key = (Sig.of_stmt k.Lower.body, Ir.Optimize.int_of_level opt) in
  match Cache.find engine_memo key with
  | Some c ->
      Obs.Metrics.incr engine_hit_c;
      tally_engine true;
      c
  | None ->
      Obs.Metrics.incr engine_miss_c;
      tally_engine false;
      let c =
        Obs.Span.with_span
          ~attrs:
            [
              ("kernel", Obs.Trace_sink.Str k.Lower.kname);
              ("opt", Obs.Trace_sink.Str (Ir.Optimize.level_name opt));
            ]
          "engine.compile"
          (fun () -> Runtime.Engine.compile ~opt k.Lower.body)
      in
      Cache.add engine_memo key c;
      c

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
    ?prelude ~(lenv : Lenfun.env) ~(bindings : binding list) (kernels : Lower.kernel list) :
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
      Fun.protect ~finally:(fun () -> Option.iter Runtime.Engine.Pool.shutdown pool)
      @@ fun () ->
      List.iter
        (fun (k : Lower.kernel) ->
          Obs.Span.with_span
            ~attrs:[ ("kernel", Obs.Trace_sink.Str k.Lower.kname) ]
            "exec.kernel"
          @@ fun () ->
          let c = compile_cached ~opt k in
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
let run_ragged ?engine ?opt ?multicore ?domains ?prelude ~(lenv : Lenfun.env)
    ~(tensors : Ragged.t list) kernels =
  run ?engine ?opt ?multicore ?domains ?prelude ~lenv
    ~bindings:(List.map (fun (r : Ragged.t) -> (r.Ragged.tensor, r.Ragged.buf)) tensors)
    kernels

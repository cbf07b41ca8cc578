open Cora

type counters = (string * int) list

type response = {
  model_ns : float;
  kernels_ns : float;
  prelude_host_ns : float;
  prelude_copy_ns : float;
  compile_hits : int;
  compile_misses : int;
  prelude_hit : bool;
  engine_hits : int;
  engine_misses : int;
  arena_hits : int;
  arena_misses : int;
  tables_hex : string;
  tuner : string;
  tune_us : float;
  stages_us : (string * float) list;
  counters : counters option;
  out : float array option;
  checksum : float;
}

type t = {
  device : Machine.Device.t;
  compile_cache : bool;
  prelude_cache : bool;
  execute : bool;
  engine : Exec.engine;
  opt : Ir.Optimize.level;
  autotune : Autotune.Tuner.cfg option;
}

let create ?(device = Machine.Device.v100) ?(compile_cache = true) ?(prelude_cache = true)
    ?(execute = true) ?(engine = `Interp) ?(opt = Ir.Optimize.O0) ?autotune () : t =
  { device; compile_cache; prelude_cache; execute; engine; opt; autotune }

let compile_cache_enabled t = t.compile_cache
let prelude_cache_enabled t = t.prelude_cache
let engine t = t.engine
let opt_level t = t.opt
let autotune_enabled t = t.autotune <> None
let with_engine t engine = { t with engine }

(* Launch-model memo.  {!Machine.Launch.pipeline} is a pure function of
   the lowered kernels, the prelude and the device, but evaluating it
   enumerates every block — host work proportional to the grid, paid on
   every request even when compile and prelude both hit.  An autotuned
   schedule typically has *more* blocks than the hand one (that is where
   its modeled win comes from), so without this memo the tuned steady
   state would cost more host time per request than the hand steady
   state.  Keyed by the full request identity — workload, device, engine,
   opt level, schedule variant and the canonical raggedness signature
   (never the hash alone) — which determines the job and prelude exactly,
   hence the modeled time.  Values are a few floats; collisions are
   impossible (full-key compare) and eviction merely re-enumerates. *)
let launch_memo : (string, Machine.Launch.pipeline_time) Cache.t =
  Cache.create ~name:"launch_model" ~capacity:256 ()

let reset_caches () =
  Lower.clear_memo ();
  Prelude_cache.clear ();
  Exec.clear_engine_memo ();
  Autotune.Tuner.clear ();
  Cache.clear launch_memo;
  Workload.clear_caches ()

let default_fill name =
  let seed = Hashtbl.hash name land 0xFFFF in
  fun idx ->
    let h = List.fold_left (fun acc i -> ((acc * 31) + i + 1) land 0xFFFFFF) seed idx in
    (float_of_int (h mod 1009) /. 504.5) -. 1.0

(* Execute the job's kernels through the selected engine.

   Cached kernels reference the tensor objects of whichever build first
   produced them, while uncached kernels of the same job (e.g. the
   hand-assembled softmax) reference this build's — so buffers are
   allocated per tensor *name* and bound to every instance.  Instances
   sharing a name are structurally identical (that is what made the
   compile key match), hence lay out identically under [job.lenv].

   Tensor storage comes from the process-wide {!Runtime.Buffer.Arena},
   rounded up to power-of-two size classes, and is released once the
   output has been unpacked (which copies) — so a steady-state request
   stream allocates no fresh float arrays after its working set of size
   classes is populated.  Acquired arrays are zero-filled, preserving the
   [Array.make]-fresh semantics (including zeroed padding) the kernels
   rely on; the extra class-rounding tail beyond the tensor's size is
   never addressed by a correct kernel. *)
type exec_stats = {
  x_engine_hits : int;
  x_engine_misses : int;
  x_arena_hits : int;
  x_arena_misses : int;
}

let execute ?(fill = default_fill) (srv : t) (job : Workload.job) (built : Prelude.built) :
    counters * float array * exec_stats =
  let arena = Runtime.Buffer.Arena.global in
  let arena_hits = ref 0 and arena_misses = ref 0 in
  let raggeds : (string, Ragged.t) Hashtbl.t = Hashtbl.create 16 in
  let bound : (Ir.Var.t, unit) Hashtbl.t = Hashtbl.create 32 in
  let written : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (k : Lower.kernel) -> Hashtbl.replace written k.Lower.out.Tensor.name ())
    job.Workload.kernels;
  let bindings = ref [] in
  let note (t : Tensor.t) =
    if not (Hashtbl.mem bound t.Tensor.buf) then begin
      Hashtbl.add bound t.Tensor.buf ();
      let r =
        match Hashtbl.find_opt raggeds t.Tensor.name with
        | Some r -> r
        | None ->
            let n = Tensor.size_elems t ~lenv:job.Workload.lenv in
            let a, recycled = Runtime.Buffer.Arena.acquire_class_counted arena n in
            if recycled then incr arena_hits else incr arena_misses;
            let r =
              {
                Ragged.tensor = t;
                buf = Runtime.Buffer.of_floats a;
                lenv = job.Workload.lenv;
                prefix_cache = Ragged.fresh_prefix_cache t;
              }
            in
            Hashtbl.add raggeds t.Tensor.name r;
            r
      in
      bindings := (t, r.Ragged.buf) :: !bindings
    end
  in
  Fun.protect ~finally:(fun () ->
      Hashtbl.iter
        (fun _ (r : Ragged.t) ->
          Runtime.Buffer.Arena.release arena (Runtime.Buffer.floats r.Ragged.buf))
        raggeds)
  @@ fun () ->
  List.iter
    (fun (k : Lower.kernel) ->
      note k.Lower.out;
      List.iter note k.Lower.reads)
    job.Workload.kernels;
  (* deterministic inputs: tensors read but never written *)
  Hashtbl.iter
    (fun name r -> if not (Hashtbl.mem written name) then Ragged.fill r (fill name))
    raggeds;
  (* Per-request compiled-kernel-memo tally, scoped in domain-local
     storage ([Exec.with_engine_stats]) — never global counter deltas,
     which double-count as soon as two requests overlap. *)
  let (env, _), estats =
    Exec.with_engine_stats (fun () ->
        Exec.run ~engine:srv.engine ~opt:srv.opt ~prelude:built ~lenv:job.Workload.lenv
          ~bindings:!bindings job.Workload.kernels)
  in
  let out =
    match Hashtbl.find_opt raggeds job.Workload.out_name with
    | Some r -> Ragged.unpack r
    | None -> invalid_arg ("serving: no tensor named " ^ job.Workload.out_name)
  in
  let stats =
    {
      x_engine_hits = estats.Exec.hits;
      x_engine_misses = estats.Exec.misses;
      x_arena_hits = !arena_hits;
      x_arena_misses = !arena_misses;
    }
  in
  (Runtime.Interp.stats env, out, stats)

let handle ?(stage_check = fun (_ : string) -> ()) ?fill (srv : t) (w : Workload.t)
    (lens : int array) : response =
  Obs.Span.with_span
    ~attrs:[ ("workload", Obs.Trace_sink.Str w.Workload.name) ]
    "serve.request"
  @@ fun () ->
  (* The per-request cache policy is threaded as an argument ([with_memo]
     scopes it in domain-local storage) and the hit/miss tally comes back
     from the lowering calls themselves — never from global counter
     deltas, which double-count as soon as two requests overlap. *)
  let stages = ref [] in
  let staged name f =
    stage_check name;
    let t0 = Obs.Trace_sink.now_us () in
    let v = f () in
    stages := (name, Obs.Trace_sink.now_us () -. t0) :: !stages;
    v
  in
  (* The raggedness vector rendered once — suffix of every per-instance
     memo key this request touches. *)
  let render_lens ls =
    let b = Buffer.create 48 in
    Array.iter
      (fun l ->
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int l))
      ls;
    Buffer.contents b
  in
  let lens_key = render_lens lens in
  (* The tuner decision is baked into the job memo: an autotuned server's
     steady-state request does exactly one lookup — same work as a hand
     server — and gets back the job to serve, the tuner state to report
     and the schedule-variant tag that keys the launch-model memo below.
     Keys are mode-prefixed ("auto|<opt>" vs "hand"), so an autotuned and
     an untuned server sharing one workload value can never read each
     other's entries (decisions do not depend on the opt level in the
     auto prefix; perfbench's replay recomputes that prefix), and auto
     entries are epoch-tagged so a [Autotune.Tuner.clear] invalidates
     them wholesale.  Only a miss (an
     unseen shape, or the first sighting after a wipe) pays the Sig work
     of the canonical tuner key; a true tuner miss additionally serves
     the hand schedule now and runs a budgeted tune after the response's
     pipeline, inserting the winner so the *next* request hits. *)
  let auto =
    match (srv.autotune, w.Workload.tunable) with
    | Some cfg, Some tn -> Some (cfg, tn)
    | _ -> None
  in
  let ep = Autotune.Tuner.epoch () in
  let jkey_prefix =
    match auto with
    | Some _ -> "auto|" ^ Ir.Optimize.level_name srv.opt
    | None -> "hand"
  in
  let jkey = jkey_prefix ^ lens_key in
  let variant_of (d : Autotune.Tuner.decision) =
    match d.Autotune.Tuner.point with
    | Some p -> "t " ^ Autotune.Space.to_string p
    | None -> "hand"
  in
  let state_of (d : Autotune.Tuner.decision) =
    if d.Autotune.Tuner.point = None then "hand" else "tuned"
  in
  let insert_cached job state variant sig_ pkey =
    if srv.compile_cache then
      Cache.add w.Workload.job_cache jkey
        {
          Workload.c_epoch = ep;
          c_job = job;
          c_state = state;
          c_variant = variant;
          c_opt = None;
          c_sig = sig_;
          c_pkey = pkey;
        }
  in
  (* [pending] carries the tune obligation (a true tuner miss) out of the
     compile stage; the tune itself runs after the staged pipeline.
     [baked] carries a memo hit's precomputed signature and prelude, so
     the hit path below skips the per-request Sig/defs/prelude-key work
     a compile-memo hit would still pay. *)
  let job, compile_hits, compile_misses, state0, variant, pending, baked =
    staged "compile" @@ fun () ->
    let cached =
      if srv.compile_cache then
        match Cache.find w.Workload.job_cache jkey with
        | Some cj when auto = None || cj.Workload.c_epoch = ep -> Some cj
        | _ -> None
      else None
    in
    match cached with
    | Some cj ->
        (* the whole job is memoized: every kernel in it is a (stronger
           form of a) compile-memo hit — no Sig even gets computed *)
        ( cj.Workload.c_job,
          List.length cj.Workload.c_job.Workload.kernels,
          0,
          cj.Workload.c_state,
          cj.Workload.c_variant,
          None,
          Some cj )
    | None -> (
        let build_with f =
          Lower.with_memo ~cache:srv.compile_cache (fun () ->
              Obs.Span.with_span "serve.compile" f)
        in
        match auto with
        | None ->
            let job, memo = build_with (fun () -> w.Workload.build lens) in
            (job, memo.Lower.hits, memo.Lower.misses, "off", "hand", None, None)
        | Some (cfg, tn) -> (
            let key =
              Autotune.Tuner.key ~workload:w.Workload.name
                ~tables:(tn.Workload.tables_of lens)
            in
            match Autotune.Tuner.lookup key with
            | Some d ->
                let variant = variant_of d and state = state_of d in
                let job, memo =
                  build_with (fun () ->
                      match d.Autotune.Tuner.point with
                      | Some p -> tn.Workload.build_tuned p lens
                      | None -> w.Workload.build lens)
                in
                (job, memo.Lower.hits, memo.Lower.misses, state, variant, None, None)
            | None ->
                (* serve the hand schedule now; tune post-pipeline *)
                let job, memo = build_with (fun () -> w.Workload.build lens) in
                ( job,
                  memo.Lower.hits,
                  memo.Lower.misses,
                  "miss",
                  "hand",
                  Some (cfg, tn, key),
                  None )))
  in
  (* Raggedness signature of the batch — the prelude-cache key, and the
     flight recorder's handle on "which shape was this". *)
  let tables_sig =
    match baked with
    | Some cj -> cj.Workload.c_sig
    | None -> Sig.of_tables job.Workload.tables
  in
  let tables_hex = Sig.to_hex tables_sig in
  let defs_of (j : Workload.job) =
    List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) j.Workload.kernels
  in
  let pkey_of (j : Workload.job) = Prelude_cache.key_of ~tables_sig (defs_of j) in
  let prelude_with ~pkey (j : Workload.job) =
    if srv.prelude_cache then
      match w.Workload.prev_tables with
      | Some prev_of ->
          (* Autoregressive workload: on a miss, delta-update from the
             predecessor step's cached prelude instead of rebuilding.  The
             predecessor's key reuses this job's defs — def names are
             length-independent, so the name set matches the one the
             predecessor was cached under. *)
          let prev () =
            match prev_of lens with
            | None -> None
            | Some (plens, ptabs) -> (
                (* The predecessor was usually just served here, so its
                   baked job memo entry carries the very prelude key its
                   prelude was cached under — reuse it and skip the Sig
                   re-derivation.  A memo miss derives the key from the
                   predicted tables instead. *)
                let baked_prev =
                  if srv.compile_cache then
                    match Cache.find w.Workload.job_cache (jkey_prefix ^ render_lens plens) with
                    | Some cj when auto = None || cj.Workload.c_epoch = ep ->
                        Some (cj.Workload.c_pkey, cj.Workload.c_job.Workload.lenv)
                    | _ -> None
                  else None
                in
                match baked_prev with
                | Some _ -> baked_prev
                | None ->
                    Some
                      ( Prelude_cache.key_of ~tables_sig:(Sig.of_tables ptabs) (defs_of j),
                        Workload.lenv_of_tables ptabs ))
          in
          Prelude_cache.build_delta ~key:pkey ~prev (fun () -> defs_of j) j.Workload.lenv
      | None -> Prelude_cache.build_keyed ~key:pkey (fun () -> defs_of j) j.Workload.lenv
    else (Prelude.build ~dedup_defs:true (defs_of j) j.Workload.lenv, false)
  in
  let pkey = match baked with Some cj -> cj.Workload.c_pkey | None -> pkey_of job in
  let built, prelude_hit =
    staged "prelude" @@ fun () ->
    Obs.Span.with_span "serve.prelude" (fun () -> prelude_with ~pkey job)
  in
  (* A fresh build with nothing left to tune is the memo's steady state:
     bake it (with its precomputed signature and prelude key) so the next
     same-key request replays the compile+prelude front with two bounded
     lookups.  A pending tune inserts instead after the search, below. *)
  (match (baked, pending) with
  | None, None -> insert_cached job state0 variant tables_sig pkey
  | _ -> ());
  (* Model time: the launches are timed against the supplied prelude (no
     rebuild inside the pipeline); its host/copy cost is charged only when
     this request actually built it. *)
  let pt =
    staged "launch" @@ fun () ->
    let lkey =
      String.concat "|"
        [
          w.Workload.name;
          srv.device.Machine.Device.name;
          (match srv.engine with `Interp -> "interp" | `Compiled -> "compiled");
          Ir.Optimize.level_name srv.opt;
          variant;
          Sig.canonical tables_sig;
        ]
    in
    match Cache.find launch_memo lkey with
    | Some pt -> pt
    | None ->
        let pt =
          Machine.Launch.pipeline ~engine:srv.engine ~opt:srv.opt ~prelude:built
            ~device:srv.device ~lenv:job.Workload.lenv job.Workload.launches
        in
        Cache.add launch_memo lkey pt;
        pt
  in
  let prelude_host_ns, prelude_copy_ns =
    if prelude_hit then (0.0, 0.0) else Machine.Launch.prelude_cost ~device:srv.device built
  in
  let kernels_ns = pt.Machine.Launch.kernels_ns in
  let model_ns = kernels_ns +. prelude_host_ns +. prelude_copy_ns in
  let counters, out, xstats =
    staged "execute" @@ fun () ->
    if srv.execute then
      let c, o, s =
        Obs.Span.with_span "serve.execute" (fun () -> execute ?fill srv job built)
      in
      (Some c, Some o, s)
    else
      ( None,
        None,
        { x_engine_hits = 0; x_engine_misses = 0; x_arena_hits = 0; x_arena_misses = 0 } )
  in
  let checksum = match out with None -> 0.0 | Some a -> Array.fold_left ( +. ) 0.0 a in
  (* Warm the tuner memo *after* the staged pipeline — the response above
     was served from the hand schedule (stage names and order unchanged),
     and the tune's candidate lowerings go through the same compile memo
     (alpha-invariant keys) and prelude cache, so the winner's artifacts
     are already hot when the next same-signature request swaps it in. *)
  let tuner, tune_us =
    match pending with
    | None -> (state0, 0.0)
    | Some (cfg, tn, key) ->
        Autotune.Tuner.note_fallback ();
        let t0 = Obs.Trace_sink.now_us () in
        let d, _ =
          Lower.with_memo ~cache:srv.compile_cache (fun () ->
              Autotune.Tuner.tune ~cfg ~device:srv.device ~key ~tables_sig
                ~hand:(Workload.tuner_job job)
                ~candidates:(Workload.candidates tn lens) ())
        in
        (* bake the winner into the job memo so the next request with
           this signature serves it with a single lookup.  The winner's
           prelude is already hot: the tune routed every candidate build
           through the prelude cache under the same schedule-invariant
           [tables_sig], so only the key is derived here. *)
        (match d.Autotune.Tuner.point with
        | None -> insert_cached job "hand" "hand" tables_sig pkey
        | Some p ->
            let tuned, _ =
              Lower.with_memo ~cache:srv.compile_cache (fun () ->
                  tn.Workload.build_tuned p lens)
            in
            insert_cached tuned "tuned" (variant_of d) tables_sig (pkey_of tuned));
        ("miss", Obs.Trace_sink.now_us () -. t0)
  in
  Obs.Metrics.observe (Obs.Metrics.histogram "serve.model_ns") model_ns;
  Obs.Span.add_attr "model_ns" (Obs.Trace_sink.Float model_ns);
  Obs.Span.add_attr "compile_hits" (Obs.Trace_sink.Int compile_hits);
  Obs.Span.add_attr "prelude_hit" (Obs.Trace_sink.Str (if prelude_hit then "yes" else "no"));
  Obs.Span.add_attr "sig" (Obs.Trace_sink.Str tables_hex);
  {
    model_ns;
    kernels_ns;
    prelude_host_ns;
    prelude_copy_ns;
    compile_hits;
    compile_misses;
    prelude_hit;
    engine_hits = xstats.x_engine_hits;
    engine_misses = xstats.x_engine_misses;
    arena_hits = xstats.x_arena_hits;
    arena_misses = xstats.x_arena_misses;
    tables_hex;
    tuner;
    tune_us;
    stages_us = List.rev !stages;
    counters;
    out;
    checksum;
  }

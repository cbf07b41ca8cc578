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
  compile_cache : bool;
  prelude_cache : bool;
  execute : bool;
  engine : Exec.engine;
  opt : Ir.Optimize.level;
  autotune : Autotune.Tuner.cfg option;
}

let create ?(compile_cache = true) ?(prelude_cache = true) ?(execute = true)
    ?(engine = `Interp) ?(opt = Ir.Optimize.O0) ?autotune () : t =
  { compile_cache; prelude_cache; execute; engine; opt; autotune }

let engine t = t.engine
let opt_level t = t.opt
let autotune_enabled t = t.autotune <> None

exception Deadline_exceeded of string

let degraded_c = Obs.Metrics.counter "frontend.degraded"
let model_h = Obs.Metrics.histogram "serve.model_ns"

let reset_caches () =
  Lower.clear_memo ();
  Prelude_cache.clear ();
  Workload.clear_plans ();
  Autotune.Tuner.clear ();
  Workload.clear_caches ()

(* The input hash, stated once: a seed per tensor name, one [step] per
   index (outermost first), and the value of the final hash. *)
let seed name = Hashtbl.hash name land 0xFFFF
let step h i = ((h * 31) + i + 1) land 0xFFFFFF
let value h = (float_of_int (h mod 1009) /. 504.5) -. 1.0

let default_fill name =
  let s = seed name in
  fun idx -> value (List.fold_left step s idx)

(* [default_fill] one innermost run at a time: the hash of a run's outer
   indices is computed once per run and each element adds one [step].
   [lead] rewrites the leading index (a mega-batch row to its member's
   own row); for a rank-1 tensor the leading index is the run's. *)
let fill_input ?(lead = Fun.id) name (r : Ragged.t) =
  let a = Runtime.Buffer.floats r.Ragged.buf in
  let s = seed name in
  Ragged.iter_rows r (fun idx base len ->
      match Array.length idx with
      | 0 -> a.(base) <- value s
      | 1 ->
          for v = 0 to len - 1 do
            a.(base + v) <- value (step s (lead v))
          done
      | n ->
          let h = ref (step s (lead idx.(0))) in
          for j = 1 to n - 2 do
            h := step !h idx.(j)
          done;
          let h = !h in
          for v = 0 to len - 1 do
            a.(base + v) <- value (step h v)
          done)

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

let execute ?lead ?handles (srv : t) (job : Workload.job)
    (built : Prelude.built) : counters * float array * exec_stats =
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
    (fun name r ->
      if not (Hashtbl.mem written name) then
        fill_input ?lead:(Option.map (fun f -> f name) lead) name r)
    raggeds;
  (* Compiled-kernel tally of this request: a plan's handles compile
     each kernel once (misses), warm handles are hits; without handles
     every kernel compiles for this request. *)
  let nkernels = List.length job.Workload.kernels in
  let engine_hits, engine_misses =
    match (srv.engine, handles) with
    | `Interp, _ -> (0, 0)
    | `Compiled, Some h ->
        let fresh = Exec.compile_handles h in
        (nkernels - fresh, fresh)
    | `Compiled, None -> (0, nkernels)
  in
  let env, _ =
    Exec.run ~engine:srv.engine ~opt:srv.opt ~prelude:built ?handles ~lenv:job.Workload.lenv
      ~bindings:!bindings job.Workload.kernels
  in
  let out =
    match Hashtbl.find_opt raggeds job.Workload.out_name with
    | Some r -> Ragged.unpack r
    | None -> invalid_arg ("serving: no tensor named " ^ job.Workload.out_name)
  in
  let stats =
    {
      x_engine_hits = engine_hits;
      x_engine_misses = engine_misses;
      x_arena_hits = !arena_hits;
      x_arena_misses = !arena_misses;
    }
  in
  (Runtime.Interp.stats env, out, stats)

let handle_once ?deadline_us ?lead (srv : t) (w : Workload.t) (lens : int array) :
    response =
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
    (match deadline_us with
    | Some d when Obs.Trace_sink.now_us () > d -> raise (Deadline_exceeded name)
    | _ -> ());
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
     and the job's modeled kernel time.
     Keys are mode-prefixed ("auto|<opt>" vs "hand"; perfbench's replay
     recomputes the prefix), so an autotuned and an untuned server sharing
     one workload value never read each other's entries, and an entry
     from another opt level ([c_opt]) is a miss that the insert replaces.
     Auto entries are epoch-tagged so a [Autotune.Tuner.clear]
     invalidates them wholesale.  Only a miss (an
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
  let level = Some (Ir.Optimize.int_of_level srv.opt) in
  let state_of (d : Autotune.Tuner.decision) =
    if d.Autotune.Tuner.point = None then "hand" else "tuned"
  in
  (* [Cache.add] replaces, so a stale-epoch entry left behind by a
     [Autotune.Tuner.clear] is overwritten rather than kept forever.  Only
     plan-served jobs (compile cache on) are memoized. *)
  let insert_cached job plan state sig_ pkey kernels_ns =
    match plan with
    | Some plan ->
        Cache.add w.Workload.job_cache jkey
          {
            Workload.c_epoch = ep;
            c_job = job;
            c_plan = plan;
            c_state = state;
            c_opt = level;
            c_sig = sig_;
            c_pkey = pkey;
            c_kernels_ns = kernels_ns;
          }
    | None -> ()
  in
  (* The job serving [lens] at schedule [point]: with the compile cache
     on, from the plan of its structure (built on the first request of
     that structure); without it, built from scratch with no plan. *)
  let served_job point =
    if srv.compile_cache then
      let plan, job, memo = Workload.plan w ?point ~opt:srv.opt lens in
      let hits, misses =
        match memo with
        | Some m -> (m.Lower.hits, m.Lower.misses)
        | None -> (List.length job.Workload.kernels, 0)
      in
      (job, Some plan, hits, misses)
    else
      let job, memo =
        Lower.with_memo ~cache:false (fun () ->
            match (point, w.Workload.tunable) with
            | Some p, Some tn -> tn.Workload.build_tuned p lens
            | _ -> w.Workload.build lens)
      in
      (job, None, memo.Lower.hits, memo.Lower.misses)
  in
  (* [pending] carries the tune obligation (a true tuner miss) out of the
     compile stage; the tune itself runs after the staged pipeline.
     [baked] carries a memo hit's precomputed signature, prelude key and
     kernel time, so the hit path below skips the per-request
     Sig/prelude-key and launch-model work a plan hit would still pay. *)
  let job, plan, compile_hits, compile_misses, state0, pending, baked =
    staged "compile" @@ fun () ->
    Obs.Span.with_span "serve.compile" @@ fun () ->
    let cached =
      if srv.compile_cache then
        match Cache.find w.Workload.job_cache jkey with
        | Some cj
          when (auto = None || cj.Workload.c_epoch = ep) && cj.Workload.c_opt = level ->
            Some cj
        | _ -> None
      else None
    in
    match cached with
    | Some cj ->
        (* the whole job is memoized: every kernel in it is a (stronger
           form of a) compile-memo hit — no Sig even gets computed *)
        ( cj.Workload.c_job,
          Some cj.Workload.c_plan,
          List.length cj.Workload.c_job.Workload.kernels,
          0,
          cj.Workload.c_state,
          None,
          Some cj )
    | None ->
        let point, state, pending =
          match auto with
          | None -> (None, "off", None)
          | Some (cfg, tn) -> (
              let key =
                Autotune.Tuner.key ~workload:w.Workload.name ~tables:(w.Workload.tables_of lens)
              in
              match Autotune.Tuner.lookup key with
              | Some d -> (d.Autotune.Tuner.point, state_of d, None)
              | None ->
                  (* serve the hand schedule now; tune post-pipeline *)
                  (None, "miss", Some (cfg, tn, key)))
        in
        let job, plan, hits, misses = served_job point in
        (job, plan, hits, misses, state, pending, None)
  in
  (* Raggedness signature of the batch — the prelude-cache key, and the
     flight recorder's handle on "which shape was this". *)
  let tables_sig =
    match baked with
    | Some cj -> cj.Workload.c_sig
    | None -> Sig.of_tables job.Workload.tables
  in
  let tables_hex = Sig.to_hex tables_sig in
  let defs_of plan (j : Workload.job) =
    match plan with
    | Some (p : Workload.plan) -> p.Workload.p_defs
    | None -> List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) j.Workload.kernels
  in
  let pkey_of plan (j : Workload.job) = Prelude_cache.key_of ~tables_sig (defs_of plan j) in
  let prelude_with ~pkey plan (j : Workload.job) =
    let defs () = defs_of plan j in
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
                      ( Prelude_cache.key_of ~tables_sig:(Sig.of_tables ptabs) (defs ()),
                        Workload.lenv_of_tables ptabs ))
          in
          Prelude_cache.build_delta ~key:pkey ~prev defs j.Workload.lenv
      | None -> Prelude_cache.build_keyed ~key:pkey defs j.Workload.lenv
    else (Prelude.build ~dedup_defs:true (defs ()) j.Workload.lenv, false)
  in
  let pkey = match baked with Some cj -> cj.Workload.c_pkey | None -> pkey_of plan job in
  let built, prelude_hit =
    staged "prelude" @@ fun () ->
    Obs.Span.with_span "serve.prelude" (fun () -> prelude_with ~pkey plan job)
  in
  (* Model time: the launches are timed against the supplied prelude (no
     rebuild inside the pipeline); its host/copy cost is charged only when
     this request actually built it.  The pipeline is a function of the
     job and prelude alone, so a memo hit reads the time baked into its
     entry instead of re-enumerating every block, and a plan prices with
     its precompiled launch model. *)
  let kernels_of plan (j : Workload.job) built =
    (match plan with
    | Some (p : Workload.plan) ->
        Machine.Launch.price ~engine:srv.engine ~opt:srv.opt ~prelude:built
          ~lenv:j.Workload.lenv p.Workload.p_model
    | None ->
        Machine.Launch.pipeline ~engine:srv.engine ~opt:srv.opt ~prelude:built
          ~device:Machine.Device.v100 ~lenv:j.Workload.lenv j.Workload.launches)
      .Machine.Launch.kernels_ns
  in
  let kernels_ns =
    staged "launch" @@ fun () ->
    match baked with Some cj -> cj.Workload.c_kernels_ns | None -> kernels_of plan job built
  in
  (* A fresh build with nothing left to tune is the memo's steady state:
     bake it (with its precomputed signature, prelude key and kernel time)
     so the next same-key request replays the compile+prelude+launch front
     with two bounded lookups.  A pending tune inserts instead after the
     search, below. *)
  (match (baked, pending) with
  | None, None -> insert_cached job plan state0 tables_sig pkey kernels_ns
  | _ -> ());
  let prelude_host_ns, prelude_copy_ns =
    if prelude_hit then (0.0, 0.0)
    else Machine.Launch.prelude_cost ~device:Machine.Device.v100 built
  in
  let model_ns = kernels_ns +. prelude_host_ns +. prelude_copy_ns in
  let counters, out, xstats =
    staged "execute" @@ fun () ->
    if srv.execute then
      let handles = Option.map (fun (p : Workload.plan) -> p.Workload.p_handles) plan in
      let c, o, s =
        Obs.Span.with_span "serve.execute" (fun () -> execute ?lead ?handles srv job built)
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
     and the tune's candidates are built through the plan memo (one build
     per point and structure), so the winner's plan and prelude are
     already hot when the next same-signature request swaps it in. *)
  let tuner, tune_us =
    match pending with
    | None -> (state0, 0.0)
    | Some (cfg, tn, key) ->
        Autotune.Tuner.note_fallback ();
        let t0 = Obs.Trace_sink.now_us () in
        let candidates =
          if srv.compile_cache then
            List.map
              (fun p ->
                ( p,
                  fun () ->
                    let _, j, _ = Workload.plan w ~point:p ~opt:srv.opt lens in
                    Workload.tuner_job j ))
              (tn.Workload.space lens)
          else Workload.candidates tn lens
        in
        let d, _ =
          Lower.with_memo ~cache:srv.compile_cache (fun () ->
              Autotune.Tuner.tune ~cfg ~device:Machine.Device.v100 ~key ~tables_sig
                ~hand:(Workload.tuner_job job) ~candidates ())
        in
        (* bake the winner into the job memo so the next request with
           this signature serves it with a single lookup.  The winner's
           prelude is already hot: the tune routed every candidate build
           through the prelude cache under the same schedule-invariant
           [tables_sig], so pricing its launches here is a prelude hit. *)
        (match d.Autotune.Tuner.point with
        | None -> insert_cached job plan "hand" tables_sig pkey kernels_ns
        | Some p when srv.compile_cache ->
            let tplan, tuned, _ = Workload.plan w ~point:p ~opt:srv.opt lens in
            let tplan = Some tplan in
            let tuned_pkey = pkey_of tplan tuned in
            let tuned_built, _ = prelude_with ~pkey:tuned_pkey tplan tuned in
            insert_cached tuned tplan "tuned" tables_sig tuned_pkey
              (kernels_of tplan tuned tuned_built)
        | Some _ -> ());
        ("miss", Obs.Trace_sink.now_us () -. t0)
  in
  Obs.Metrics.observe model_h model_ns;
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

(* Graceful degradation: a kernel the compiled engine rejects is served
   once more on the interpreter, under the same deadline. *)
let handle ?deadline_us ?lead (srv : t) (w : Workload.t) (lens : int array) : response =
  try handle_once ?deadline_us ?lead srv w lens
  with Runtime.Engine.Error _ when srv.engine = `Compiled ->
    Obs.Metrics.incr degraded_c;
    handle_once ?deadline_us ?lead { srv with engine = `Interp } w lens

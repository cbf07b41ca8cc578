(* Serving plans (one per workload, schedule point, structure key and opt
   level) and the compile-once launch model behind them.

   - soundness: for every workload — the test-sized configs, the serving
     benchmark's configs and fig1/decode mega-vectors of 1-8 members —
     and for the hand schedule and every tuned space point, a job served
     from a plan has the kernels ({!Cora.Sig.of_stmt}), launches, aux
     defs and tables of a fresh build, and is priced bitwise like it; a
     caching server (plans, job memo) answers every vector with the
     checksum, output, kernels_ns and model_ns bits of a server that
     bypasses every cache;
   - pricing state: a compiled launch model carries nothing from one
     call to the next — A, B, A prices A identically, and two domains
     pricing concurrently agree with the serial result;
   - the [launch] span's [blocks] attribute is that launch's own block
     count, not a running total. *)

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

let bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> same_bits x y) a b

let toy_dataset =
  { Workloads.Datasets.name = "toy"; min_len = 2; mean_len = 5; max_len = 9 }

let sigs (j : Serving.Workload.job) =
  List.map
    (fun (k : Cora.Lower.kernel) -> Cora.Sig.canonical (Cora.Sig.of_stmt k.Cora.Lower.body))
    j.Serving.Workload.kernels

let launch_names (j : Serving.Workload.job) =
  List.map
    (fun (l : Machine.Launch.t) ->
      List.map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.kname) l.Machine.Launch.kernels)
    j.Serving.Workload.launches

let def_names (j : Serving.Workload.job) =
  List.concat_map
    (fun (k : Cora.Lower.kernel) ->
      List.map (fun (d : Cora.Prelude.def) -> d.Cora.Prelude.name) k.Cora.Lower.aux)
    j.Serving.Workload.kernels

(* the level the serving benchmark runs at; bitwise equal to every other *)
let opt = Ir.Optimize.O3

let render lens = String.concat ";" (List.map string_of_int (Array.to_list lens))

let prelude_of (j : Serving.Workload.job) =
  let defs =
    List.concat_map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.aux) j.Serving.Workload.kernels
  in
  Cora.Prelude.build ~dedup_defs:true defs j.Serving.Workload.lenv

(* The plan's job for [lens] at [point] against a from-scratch build. *)
let check_plan_job (w : Serving.Workload.t) ?point lens =
  let what =
    Printf.sprintf "%s [%s] at %s" w.Serving.Workload.name (render lens)
      (match point with None -> "hand" | Some p -> Autotune.Space.to_string p)
  in
  let plan, served, _ = Serving.Workload.plan w ?point ~opt lens in
  let fresh, _ =
    Cora.Lower.with_memo ~cache:false (fun () ->
        match (point, w.Serving.Workload.tunable) with
        | Some p, Some tn -> tn.Serving.Workload.build_tuned p lens
        | _ -> w.Serving.Workload.build lens)
  in
  if sigs served <> sigs fresh then Alcotest.failf "%s: kernel signatures differ" what;
  if launch_names served <> launch_names fresh then Alcotest.failf "%s: launches differ" what;
  if def_names served <> def_names fresh then Alcotest.failf "%s: aux defs differ" what;
  if served.Serving.Workload.tables <> fresh.Serving.Workload.tables then
    Alcotest.failf "%s: tables differ" what;
  if served.Serving.Workload.out_name <> fresh.Serving.Workload.out_name then
    Alcotest.failf "%s: output tensor differs" what;
  let built = prelude_of fresh in
  let priced =
    Machine.Launch.price ~prelude:built ~lenv:served.Serving.Workload.lenv
      plan.Serving.Workload.p_model
  in
  let fresh_priced =
    Machine.Launch.pipeline ~prelude:built ~device:Machine.Device.v100
      ~lenv:fresh.Serving.Workload.lenv fresh.Serving.Workload.launches
  in
  if not (same_bits priced.Machine.Launch.kernels_ns fresh_priced.Machine.Launch.kernels_ns)
  then Alcotest.failf "%s: plan-priced kernels_ns differs from a fresh pipeline" what

let check_response ?(model = true) what (a : Serving.Server.response)
    (b : Serving.Server.response) =
  let field name ok = if not ok then Alcotest.failf "%s: %s not bitwise equal" what name in
  field "checksum" (same_bits a.Serving.Server.checksum b.Serving.Server.checksum);
  field "kernels_ns" (same_bits a.Serving.Server.kernels_ns b.Serving.Server.kernels_ns);
  if model then field "model_ns" (same_bits a.Serving.Server.model_ns b.Serving.Server.model_ns);
  field "out"
    (match (a.Serving.Server.out, b.Serving.Server.out) with
    | Some x, Some y -> bits_equal x y
    | _ -> false);
  if a.Serving.Server.tuner <> b.Serving.Server.tuner then
    Alcotest.failf "%s: tuner state %s vs %s" what a.Serving.Server.tuner b.Serving.Server.tuner

(* The bypass serves every request from a fresh plan: no lowering memo
   probe (0 hits, 0 misses) and every kernel compiled for it; the caching
   server runs the same kernels, through warm or cold plan handles. *)
let check_tallies what (a : Serving.Server.response) (bypass : Serving.Server.response) =
  let eq name x y = if x <> y then Alcotest.failf "%s: %s %d vs %d" what name x y in
  eq "bypass compile hits" bypass.Serving.Server.compile_hits 0;
  eq "bypass compile misses" bypass.Serving.Server.compile_misses 0;
  eq "bypass engine hits" bypass.Serving.Server.engine_hits 0;
  eq "kernels through the engine"
    (a.Serving.Server.engine_hits + a.Serving.Server.engine_misses)
    bypass.Serving.Server.engine_misses

(* Every vector through a caching server and a cache-bypassing one, hand
   and autotuned, from the same empty caches: an autotuned vector goes
   miss -> tuned in both, the caching server tuning through plans.  The
   caching server serves each vector once more than the bypass (plan miss
   or hit, then job memo).  With [~cold_prelude] its prelude cache is
   emptied before every request, so it builds every prelude as the bypass
   does and model_ns must match too; otherwise preludes hit (or, for
   decode, delta-update) and model_ns legitimately differs. *)
let check_served ~cold_prelude (w : Serving.Workload.t) vectors =
  let modes = if w.Serving.Workload.tunable = None then [ None ] else [ None; Some () ] in
  List.iter
    (fun mode ->
      let autotune = Option.map (fun () -> Autotune.Tuner.default_cfg) mode in
      let passes = if autotune = None then 1 else 2 in
      let serve srv passes =
        Serving.Server.reset_caches ();
        List.map
          (fun lens ->
            List.init passes (fun _ ->
                if cold_prelude then Cora.Prelude_cache.clear ();
                Serving.Server.handle srv w lens))
          vectors
      in
      let expect =
        serve
          (Serving.Server.create ~compile_cache:false ~prelude_cache:false ~engine:`Compiled
             ~opt ?autotune ())
          passes
      in
      let got = serve (Serving.Server.create ~engine:`Compiled ~opt ?autotune ()) (passes + 1) in
      List.iter2
        (fun lens (rs, es) ->
          List.iteri
            (fun i r ->
              let e = List.nth es (min i (passes - 1)) in
              let what =
                Printf.sprintf "%s%s [%s] pass %d" w.Serving.Workload.name
                  (if autotune = None then "" else " (autotuned)")
                  (render lens) (i + 1)
              in
              check_response ~model:cold_prelude what r e;
              check_tallies what r e)
            rs)
        vectors (List.combine got expect))
    modes

let sample_vectors (w : Serving.Workload.t) n seed =
  let rng = Workloads.Rng.create seed in
  List.init n (fun _ -> w.Serving.Workload.sample rng)

(* mega-batch vectors of 1..8 members, the way the batcher merges them *)
let mega_vectors (w : Serving.Workload.t) n seed =
  let bd = Option.get w.Serving.Workload.batching in
  let rng = Workloads.Rng.create seed in
  List.init n (fun i ->
      let members = 1 + (i mod 8) in
      bd.Serving.Workload.merge (List.init members (fun _ -> w.Serving.Workload.sample rng)))

(* decode vectors come in +1 steps, so the served path delta-updates *)
let decode_vectors (w : Serving.Workload.t) n seed =
  List.concat_map
    (fun v -> [ v; Array.map succ v ])
    (sample_vectors w ((n + 1) / 2) seed)

let check_workload (w : Serving.Workload.t) vectors () =
  List.iter
    (fun lens ->
      check_plan_job w lens;
      match w.Serving.Workload.tunable with
      | Some tn -> List.iter (fun p -> check_plan_job w ~point:p lens) (tn.Serving.Workload.space lens)
      | None -> ())
    vectors;
  check_served ~cold_prelude:true w vectors;
  (* warm preludes change the served path only where they delta-update *)
  if w.Serving.Workload.prev_tables <> None then check_served ~cold_prelude:false w vectors

let n = 32

let soundness_cases =
  let fig1 = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let vgemm = Serving.Workload.vgemm ~batch:2 ~tile:4 ~dims_choices:[| 4; 8; 12 |] () in
  let trmm = Serving.Workload.trmm ~tile:4 ~sizes:[| 8; 12; 16 |] () in
  let encoder = Serving.Workload.encoder ~batch:3 ~dataset:toy_dataset () in
  let decode = Serving.Workload.decode ~batch:3 ~max_src:12 () in
  let enc_mnli = Serving.Workload.encoder ~batch:4 ~dataset:Workloads.Datasets.mnli () in
  let decode_64 = Serving.Workload.decode ~batch:4 ~max_src:64 () in
  let fig1_6 = Serving.Workload.fig1 ~batch:6 ~max_len:10 () in
  let mega_fig1 = Serving.Workload.fig1 ~batch:3 ~max_len:6 () in
  let mega_decode = Serving.Workload.decode ~batch:2 ~max_src:12 () in
  [
    ("fig1", fig1, sample_vectors fig1 n 1);
    ("vgemm", vgemm, sample_vectors vgemm n 2);
    ("trmm", trmm, sample_vectors trmm n 3);
    ("encoder", encoder, sample_vectors encoder n 4);
    ("decode", decode, decode_vectors decode n 5);
    ("encoder mnli batch 4", enc_mnli, sample_vectors enc_mnli n 6);
    ("decode batch 4 max_src 64", decode_64, decode_vectors decode_64 n 7);
    ("fig1 batch 6", fig1_6, sample_vectors fig1_6 n 8);
    ("fig1 mega-vectors", mega_fig1, mega_vectors mega_fig1 n 9);
    ("decode mega-vectors", mega_decode, mega_vectors mega_decode n 10);
  ]

(* ---------------- pricing state ---------------- *)

let decode_job lens = (Serving.Workload.decode ~batch:4 ~max_src:64 ()).Serving.Workload.build lens

let price_model m (j : Serving.Workload.job) built =
  (Machine.Launch.price ~prelude:built ~lenv:j.Serving.Workload.lenv m).Machine.Launch.kernels_ns

let test_pricing_state () =
  let a = decode_job [| 40; 17; 63; 5 |] and b = decode_job [| 9; 30; 2; 51 |] in
  let pa = prelude_of a and pb = prelude_of b in
  let m = Machine.Launch.compile ~device:Machine.Device.v100 a.Serving.Workload.launches in
  let a1 = price_model m a pa in
  let b1 = price_model m b pb in
  let a2 = price_model m a pa in
  Alcotest.(check bool) "A priced again after B: same bits" true (same_bits a1 a2);
  let fresh j built =
    (Machine.Launch.pipeline ~prelude:built ~device:Machine.Device.v100
       ~lenv:j.Serving.Workload.lenv j.Serving.Workload.launches)
      .Machine.Launch.kernels_ns
  in
  Alcotest.(check bool) "A equals a fresh pipeline" true (same_bits a1 (fresh a pa));
  Alcotest.(check bool) "B equals a fresh pipeline" true (same_bits b1 (fresh b pb));
  Alcotest.(check bool) "A and B differ" false (same_bits a1 b1);
  (* two domains, each pricing A and B 200 times through the one model *)
  let worker first () =
    List.init 200 (fun i ->
        if (i + first) mod 2 = 0 then (`A, price_model m a pa) else (`B, price_model m b pb))
  in
  let d1 = Domain.spawn (worker 0) and d2 = Domain.spawn (worker 1) in
  let results = Domain.join d1 @ Domain.join d2 in
  List.iter
    (fun (which, ns) ->
      let expect = match which with `A -> a1 | `B -> b1 in
      if not (same_bits ns expect) then
        Alcotest.failf "concurrent pricing of %s gave %h, serial %h"
          (match which with `A -> "A" | `B -> "B")
          ns expect)
    results

(* ---------------- launch span blocks ---------------- *)

let test_launch_blocks_attr () =
  let j = decode_job [| 12; 3; 27; 8 |] in
  let built = prelude_of j in
  let m = Machine.Launch.compile ~device:Machine.Device.v100 j.Serving.Workload.launches in
  let blocks_of_trace () =
    Obs.Trace_sink.clear ();
    Obs.Span.set_enabled true;
    ignore (Machine.Launch.price ~prelude:built ~lenv:j.Serving.Workload.lenv m);
    Obs.Span.set_enabled false;
    List.filter_map
      (fun (e : Obs.Trace_sink.event) ->
        if e.Obs.Trace_sink.name <> "launch" then None
        else
          match List.assoc_opt "blocks" e.Obs.Trace_sink.attrs with
          | Some (Obs.Trace_sink.Int n) -> Some n
          | _ -> Alcotest.fail "launch span without a blocks attribute")
      (Obs.Trace_sink.events ())
  in
  let first = blocks_of_trace () in
  let second = blocks_of_trace () in
  Alcotest.(check (list int)) "same blocks on a repeat pricing" first second;
  (* the enumeration's own count, one launch per kernel here *)
  let env = Runtime.Cost_model.env_create () in
  List.iter
    (fun (name, v) ->
      Runtime.Cost_model.bind_ufun env name (fun args ->
          match (v, args) with
          | Cora.Prelude.Scalar n, _ -> n
          | Cora.Prelude.Table a, [ i ] -> a.(i)
          | _ -> assert false))
    built.Cora.Prelude.tables;
  List.iter
    (fun (name, f) ->
      if not (Hashtbl.mem env.Runtime.Cost_model.ufuns name) then
        Runtime.Cost_model.bind_ufun env name (function [ i ] -> f i | _ -> assert false))
    j.Serving.Workload.lenv;
  let expect =
    List.map
      (fun (k : Cora.Lower.kernel) ->
        List.length
          (Runtime.Cost_model.enumerate_blocks
             ~grid_kind:Machine.Device.v100.Machine.Device.grid_kind env k.Cora.Lower.body))
      j.Serving.Workload.kernels
  in
  Alcotest.(check (list int)) "blocks = enumerate_blocks count" expect first

let () =
  Alcotest.run "plans"
    [
      ( "soundness",
        List.map
          (fun (name, w, vectors) -> Alcotest.test_case name `Slow (check_workload w vectors))
          soundness_cases );
      ( "pricing",
        [
          Alcotest.test_case "state stays inside one call" `Quick test_pricing_state;
          Alcotest.test_case "launch span blocks are per launch" `Quick test_launch_blocks_attr;
        ] );
    ]

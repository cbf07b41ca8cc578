(* Bounds inference for fused vloops (§B.3) and the grid-search
   auto-scheduler (§6), run through the online tuner. *)

open Cora

let psum = [| 0; 3; 4; 8; 10 |] (* rows of sizes 3,1,4,2 *)
let maps = Bounds.of_offsets psum

let test_axioms () =
  Alcotest.(check bool) "B.2 axioms over all indices" true (Bounds.axioms_hold maps ~rows:4)

let test_rule1 () =
  let f = Bounds.fused_of_pair maps ~o:{ lo = 1; hi = 2 } ~i:{ lo = 0; hi = 3 } in
  Alcotest.(check int) "f.lo = oif(1,0)" 3 f.Bounds.lo;
  Alcotest.(check int) "f.hi = oif(2,3)" 7 f.Bounds.hi

let test_rule2 () =
  (* f = 4 is the first element of row 2 (row 1 occupies only f = 3) *)
  let o = Bounds.outer_of_fused maps ~f:{ lo = 4; hi = 9 } in
  Alcotest.(check int) "o.lo" 2 o.Bounds.lo;
  Alcotest.(check int) "o.hi" 3 o.Bounds.hi;
  let o = Bounds.outer_of_fused maps ~f:{ lo = 3; hi = 3 } in
  Alcotest.(check int) "single row" 1 o.Bounds.lo

let test_rules34 () =
  (* spanning several rows: inner range = whole slice *)
  let i = Bounds.inner_of_fused maps ~f:{ lo = 2; hi = 6 } ~o:2 in
  Alcotest.(check int) "full slice lo" 0 i.Bounds.lo;
  Alcotest.(check int) "full slice hi" 3 i.Bounds.hi;
  (* within one row: exact sub-range *)
  let i = Bounds.inner_of_fused maps ~f:{ lo = 5; hi = 6 } ~o:2 in
  Alcotest.(check int) "sub lo" 1 i.Bounds.lo;
  Alcotest.(check int) "sub hi" 2 i.Bounds.hi

let test_fo_binary_search () =
  for f = 0 to 9 do
    let o = maps.Bounds.fo f in
    Alcotest.(check bool) "psum.(o) <= f < psum.(o+1)" true
      (psum.(o) <= f && f < psum.(o + 1))
  done

(* ---------------- autotune ---------------- *)

let tunable (w : Serving.Workload.t) = Option.get w.Serving.Workload.tunable

(* The online tuner's grid search over the paper-scale encoder layer's
   gemm tiles: it walks the whole space and never adopts a point slower
   than the hand schedule. *)
let test_autotune_improves_or_matches () =
  Serving.Server.reset_caches ();
  let dataset = Workloads.Datasets.squad in
  let w = Serving.Workload.encoder ~base:true ~batch:64 ~dataset () in
  let tn = tunable w in
  let lens = Workloads.Datasets.sample_sorted dataset ~batch:64 ~seed:1 in
  let r, _ =
    Cora.Lower.with_memo ~cache:true (fun () ->
        Autotune.Tuner.tune ~device:Machine.Device.v100
          ~key:
            (Autotune.Tuner.key ~workload:w.Serving.Workload.name
               ~tables:(w.Serving.Workload.tables_of lens))
          ~hand:(Serving.Workload.tuner_job (w.Serving.Workload.build lens))
          ~candidates:(Serving.Workload.candidates tn lens) ())
  in
  Alcotest.(check bool) "tuned no worse than hand schedule" true
    (r.Autotune.Tuner.tuned_ns <= r.Autotune.Tuner.hand_ns);
  Alcotest.(check int) "whole space searched"
    (List.length (tn.Serving.Workload.space lens))
    r.Autotune.Tuner.searched

(* A jtile/ftile point of the tiny encoder, executed through the serving
   path, returns bitwise the hand schedule's output. *)
let test_autotune_tiles_bitwise () =
  Serving.Server.reset_caches ();
  let dataset = { Workloads.Datasets.name = "toy"; min_len = 2; mean_len = 5; max_len = 9 } in
  let hand_w = Serving.Workload.encoder ~batch:3 ~dataset () in
  let lens = [| 6; 3; 1 |] in
  let point = Autotune.Space.make ~aux:[ ("jtile", 16); ("ftile", 4) ] () in
  Alcotest.(check bool) "point is in the tiny encoder's space" true
    (List.exists (Autotune.Space.equal point) ((tunable hand_w).Serving.Workload.space lens));
  (* a separate instance, so the two builds never share a job memo *)
  let tiled_w =
    let w = Serving.Workload.encoder ~batch:3 ~dataset () in
    { w with Serving.Workload.build = (tunable w).Serving.Workload.build_tuned point }
  in
  let sigs (w : Serving.Workload.t) =
    List.map
      (fun (k : Cora.Lower.kernel) -> Cora.Sig.canonical (Cora.Sig.of_stmt k.Cora.Lower.body))
      (w.Serving.Workload.build lens).Serving.Workload.kernels
  in
  Alcotest.(check bool) "the point changes the kernels" true (sigs hand_w <> sigs tiled_w);
  let srv = Serving.Server.create ~engine:`Compiled () in
  let hand = Serving.Server.handle srv hand_w lens in
  let tiled = Serving.Server.handle srv tiled_w lens in
  Alcotest.(check int64) "checksum bitwise"
    (Int64.bits_of_float hand.Serving.Server.checksum)
    (Int64.bits_of_float tiled.Serving.Server.checksum);
  Alcotest.(check bool) "output bitwise" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       (Option.get hand.Serving.Server.out)
       (Option.get tiled.Serving.Server.out))

(* The cost model memoises For-subtree compilation; on a transformer-sized
   pipeline the blocks of each kernel share their body subtree, so the
   memo hit rate must be substantial (it is what makes simulation feasible,
   §6). *)
let test_cost_model_memo_hits () =
  Obs.Metrics.reset ();
  let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.squad ~batch:64 ~seed:1 in
  let cfg = Transformer.Config.base ~lens in
  let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
  ignore
    (Machine.Launch.pipeline ~device:Machine.Device.v100
       ~lenv:(Transformer.Config.lenv cfg)
       (Transformer.Builder.launches built));
  let hits = Obs.Metrics.value (Obs.Metrics.counter "cost_model.memo_hits") in
  let misses = Obs.Metrics.value (Obs.Metrics.counter "cost_model.memo_misses") in
  Alcotest.(check bool)
    (Printf.sprintf "nonzero memo hit rate (%d hits / %d misses)" hits misses)
    true (hits > 0)

let () =
  Alcotest.run "bounds-autotune"
    [
      ( "bounds (B.3)",
        [
          Alcotest.test_case "axioms" `Quick test_axioms;
          Alcotest.test_case "rule 1: pair -> fused" `Quick test_rule1;
          Alcotest.test_case "rule 2: fused -> outer" `Quick test_rule2;
          Alcotest.test_case "rules 3-4: fused -> inner" `Quick test_rules34;
          Alcotest.test_case "fo search invariant" `Quick test_fo_binary_search;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "grid search beats hand schedule" `Quick
            test_autotune_improves_or_matches;
          Alcotest.test_case "tuned tiles serve bitwise" `Quick test_autotune_tiles_bitwise;
          Alcotest.test_case "cost-model memoisation hits" `Quick test_cost_model_memo_hits;
        ] );
    ]

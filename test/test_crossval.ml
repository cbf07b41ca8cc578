(* Cross-validation between the two halves of the system: the analytic cost
   model (performance) and the reference interpreter (correctness) walk the
   same kernels — on branch-free kernels their scalar-operation counts must
   agree exactly.  Also covers the unroll transformation. *)

open Cora
module CM = Runtime.Cost_model

let raw_params = { CM.lanes = 1; vec_width = 1 }

(* run a kernel both ways; return (interp flops, cost-model flops) *)
let both (kernels : Lower.kernel list) ~lenv ~(tensors : Ragged.t list) =
  let env, built = Exec.run_ragged ~lenv ~tensors kernels in
  let cenv = CM.env_create () in
  List.iter
    (fun (name, f) ->
      CM.bind_ufun cenv name (function [ i ] -> f i | _ -> assert false))
    lenv;
  List.iter
    (fun (name, v) ->
      match v with
      | Prelude.Scalar n -> CM.bind_ufun cenv name (fun _ -> n)
      | Prelude.Table a -> CM.bind_ufun cenv name (function [ i ] -> a.(i) | _ -> assert false))
    built.Prelude.tables;
  let ufun name =
    Option.map
      (fun f -> { CM.call1 = (fun i -> f [ i ]); calln = f })
      (Hashtbl.find_opt cenv.CM.ufuns name)
  in
  let model =
    List.fold_left
      (fun acc (k : Lower.kernel) ->
        acc +. (CM.eval (CM.prepare raw_params k.Lower.body) ~ufun).CM.flops)
      0.0 kernels
  in
  (float_of_int env.Runtime.Interp.flops, model)

let test_vgemm_flops_agree () =
  (* vgemm: no guards, no selects -> exact agreement *)
  let w =
    { Workloads.Vgemm_workload.batch = 3; ms = [| 4; 2; 6 |]; ns = [| 2; 4; 2 |]; ks = [| 6; 2; 4 |] }
  in
  let t = Matmul.Vgemm.build ~tile:2 ~target:Matmul.Vgemm.Gpu w in
  let ra = Ragged.alloc t.Matmul.Vgemm.a t.Matmul.Vgemm.lenv
  and rb = Ragged.alloc t.Matmul.Vgemm.b t.Matmul.Vgemm.lenv
  and rc = Ragged.alloc t.Matmul.Vgemm.c t.Matmul.Vgemm.lenv in
  Ragged.fill ra (fun _ -> 1.0);
  Ragged.fill rb (fun _ -> 1.0);
  let interp, model =
    both [ t.Matmul.Vgemm.kernel ] ~lenv:t.Matmul.Vgemm.lenv ~tensors:[ ra; rb; rc ]
  in
  Alcotest.(check (float 0.0)) "flops agree" interp model

let test_trmm_split_flops_agree () =
  (* the split trmm pieces have no guards either *)
  let t = Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Split_unbalanced ~n:13 () in
  let ra = Ragged.alloc t.Matmul.Trmm.a t.Matmul.Trmm.lenv
  and rb = Ragged.alloc t.Matmul.Trmm.b t.Matmul.Trmm.lenv
  and rc = Ragged.alloc t.Matmul.Trmm.c t.Matmul.Trmm.lenv in
  Ragged.fill ra (fun _ -> 1.0);
  Ragged.fill rb (fun _ -> 1.0);
  let interp, model = both t.Matmul.Trmm.kernels ~lenv:t.Matmul.Trmm.lenv ~tensors:[ ra; rb; rc ] in
  Alcotest.(check (float 0.0)) "flops agree" interp model

(* cost-model flops of the unsplit trmm must EXCEED interp flops: the model
   charges predicated iterations (both arms of the guard), the interpreter
   skips them — exactly the wasted work operation splitting removes *)
let test_guard_overhead_visible () =
  let t = Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Unsplit_unbalanced ~n:13 () in
  let ra = Ragged.alloc t.Matmul.Trmm.a t.Matmul.Trmm.lenv
  and rb = Ragged.alloc t.Matmul.Trmm.b t.Matmul.Trmm.lenv
  and rc = Ragged.alloc t.Matmul.Trmm.c t.Matmul.Trmm.lenv in
  Ragged.fill ra (fun _ -> 1.0);
  Ragged.fill rb (fun _ -> 1.0);
  let env, built = Exec.run_ragged ~lenv:t.Matmul.Trmm.lenv ~tensors:[ ra; rb; rc ] t.Matmul.Trmm.kernels in
  ignore built;
  (* split variant executes the same real flops *)
  let t2 = Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Split_unbalanced ~n:13 () in
  let ra2 = Ragged.alloc t2.Matmul.Trmm.a t2.Matmul.Trmm.lenv
  and rb2 = Ragged.alloc t2.Matmul.Trmm.b t2.Matmul.Trmm.lenv
  and rc2 = Ragged.alloc t2.Matmul.Trmm.c t2.Matmul.Trmm.lenv in
  Ragged.fill ra2 (fun _ -> 1.0);
  Ragged.fill rb2 (fun _ -> 1.0);
  let env2, _ = Exec.run_ragged ~lenv:t2.Matmul.Trmm.lenv ~tensors:[ ra2; rb2; rc2 ] t2.Matmul.Trmm.kernels in
  Alcotest.(check int) "same real flops" env.Runtime.Interp.flops env2.Runtime.Interp.flops

(* ---------------- unroll transformation ---------------- *)

let test_unroll_preserves_semantics () =
  let lens = [| 5; 2 |] in
  let lenv = [ Lenfun.of_array "lens" lens ] in
  let lensf = Lenfun.make "lens" in
  let b = Dim.make "b" and l = Dim.make "l" in
  let extents = [ Shape.fixed 2; Shape.ragged ~dep:b ~fn:lensf ] in
  let a = Tensor.create ~name:"UA" ~dims:[ b; l ] ~extents in
  let o = Tensor.create ~name:"UO" ~dims:[ b; l ] ~extents in
  let op =
    Op.compute ~name:"u" ~out:o ~loop_extents:extents ~reads:[ a ] (fun idx ->
        Ir.Expr.mul (Op.access a idx) (Ir.Expr.float 3.0))
  in
  let s = Schedule.create op in
  let _, li = Schedule.split s (Schedule.axis_of_dim s 1) 2 in
  Schedule.bind s li Ir.Stmt.Unrolled;
  let k = Lower.lower s in
  let unrolled = Ir.Transform.unroll k.Lower.body in
  Alcotest.(check bool) "fewer loops after unroll" true
    (Ir.Transform.count_loops unrolled < Ir.Transform.count_loops k.Lower.body);
  (* execute both versions *)
  let run body =
    let ra = Ragged.alloc a lenv and ro = Ragged.alloc o lenv in
    Ragged.fill ra (fun idx -> float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
    let _ = Exec.run_ragged ~lenv ~tensors:[ ra; ro ] [ { k with Lower.body } ] in
    Ragged.unpack ro
  in
  Alcotest.(check bool) "same results" true (run k.Lower.body = run unrolled)

let () =
  Alcotest.run "crossval"
    [
      ( "cost-vs-interp",
        [
          Alcotest.test_case "vgemm flop counts agree" `Quick test_vgemm_flops_agree;
          Alcotest.test_case "split trmm flop counts agree" `Quick test_trmm_split_flops_agree;
          Alcotest.test_case "split preserves real flops" `Quick test_guard_overhead_visible;
        ] );
      ( "transform",
        [ Alcotest.test_case "unroll preserves semantics" `Quick test_unroll_preserves_semantics ] );
    ]

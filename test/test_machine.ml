(* Machine model: the block scheduler obeys the classic list-scheduling
   bounds, thread remapping helps exactly when work is issued
   lightest-first, and the memoised cost model counts precisely the scalar
   work of lowered loop nests. *)

open Ir
module CM = Runtime.Cost_model

(* ---------------- gpusim ---------------- *)

let costs_arb = QCheck.(array_of_size (Gen.int_range 1 200) (float_range 0.1 50.0))

let prop_makespan_bounds =
  QCheck.Test.make ~count:300 ~name:"makespan within Graham bounds" costs_arb (fun costs ->
      let n_proc = 8 in
      let span = Machine.Gpusim.makespan ~n_proc costs in
      let total = Array.fold_left ( +. ) 0.0 costs in
      let mx = Array.fold_left Float.max 0.0 costs in
      let lower = Float.max mx (total /. float_of_int n_proc) in
      span >= lower -. 1e-9 && span <= (total /. float_of_int n_proc) +. mx +. 1e-9)

let prop_descending_within_bounds =
  (* LPT (descending) is within one max-block of any ascending schedule:
     desc <= total/n + max (Graham) and asc >= max(total/n, max). *)
  QCheck.Test.make ~count:300 ~name:"descending within a max-block of ascending" costs_arb
    (fun costs ->
      let n_proc = 8 in
      let asc = Array.copy costs in
      Array.sort Float.compare asc;
      let span_asc = Machine.Gpusim.makespan ~n_proc asc in
      let span_desc =
        Machine.Gpusim.makespan ~n_proc ~policy:Machine.Gpusim.Descending_work costs
      in
      let mx = Array.fold_left Float.max 0.0 costs in
      span_desc <= span_asc +. mx +. 1e-9)

(* The heap scheduler against the textbook greedy scan (each block to the
   first processor with the least free time), bitwise — including ties
   and zero-cost blocks, where the first-minimum rule decides. *)
let scan_makespan ~n_proc costs =
  let a = Array.make n_proc 0.0 in
  Array.iter
    (fun c ->
      let best = ref 0 in
      for i = 1 to n_proc - 1 do
        if a.(i) < a.(!best) then best := i
      done;
      a.(!best) <- a.(!best) +. c)
    costs;
  Array.fold_left Float.max 0.0 a

let prop_heap_matches_scan =
  QCheck.Test.make ~count:500 ~name:"heap scheduler == greedy scan, bitwise"
    QCheck.(
      pair (int_range 1 100)
        (array_of_size (Gen.int_range 1 300)
           (oneof [ float_range 0.0 50.0; map float_of_int (int_range 0 3) ])))
    (fun (n_proc, costs) ->
      let bits = Int64.bits_of_float in
      Int64.equal
        (bits (Machine.Gpusim.makespan ~n_proc costs))
        (bits (scan_makespan ~n_proc costs)))

let test_makespan_exact () =
  (* 4 blocks of 1.0 on 2 procs = 2.0 *)
  Alcotest.(check (float 1e-9)) "uniform" 2.0
    (Machine.Gpusim.makespan ~n_proc:2 [| 1.; 1.; 1.; 1. |]);
  (* imbalance: [3;1;1;1] ascending issue on 2 procs *)
  Alcotest.(check (float 1e-9)) "heavy last" 4.0
    (Machine.Gpusim.makespan ~n_proc:2 [| 1.; 1.; 1.; 3. |]);
  Alcotest.(check (float 1e-9)) "heavy first" 3.0
    (Machine.Gpusim.makespan ~n_proc:2 ~policy:Machine.Gpusim.Descending_work
       [| 1.; 1.; 1.; 3. |]);
  Alcotest.(check (float 1e-9)) "utilisation" 0.75
    (Machine.Gpusim.utilisation ~n_proc:2 [| 1.; 1.; 1.; 3. |])

(* ---------------- cost model ---------------- *)

let count_loop ?(kind = Stmt.Serial) extent body =
  Stmt.For { var = Var.fresh "i"; min = Expr.zero; extent; kind; body }

let flop_body buf =
  Stmt.Store
    { buf; index = Expr.zero; value = Expr.add (Expr.load buf Expr.zero) (Expr.float 1.0) }

let params = { CM.lanes = 4; vec_width = 2 }

(* one-argument ufuns by name, resolved the way Launch and the tuner do *)
let ufun_of ufuns name =
  Option.map
    (fun f -> { CM.call1 = f; calln = (function [ i ] -> f i | _ -> assert false) })
    (List.assoc_opt name ufuns)

let counts ?(ufuns = []) s = CM.eval (CM.prepare params s) ~ufun:(ufun_of ufuns)

let test_counts_simple_nest () =
  let buf = Var.fresh "b" in
  let s = count_loop (Expr.int 10) (count_loop (Expr.int 5) (flop_body buf)) in
  let c = counts s in
  Alcotest.(check (float 1e-9)) "flops" 50.0 c.CM.flops;
  Alcotest.(check (float 1e-9)) "loads" 50.0 c.CM.loads;
  Alcotest.(check (float 1e-9)) "stores" 50.0 c.CM.stores

let test_counts_variable_extent () =
  (* inner extent = ufun(i): total = sum of lens *)
  let buf = Var.fresh "b" in
  let i = Var.fresh "i" in
  let inner = count_loop (Expr.ufun "lens" [ Expr.var i ]) (flop_body buf) in
  let s = Stmt.For { var = i; min = Expr.zero; extent = Expr.int 4; kind = Serial; body = inner } in
  let lens = [| 3; 1; 4; 2 |] in
  let c = counts ~ufuns:[ ("lens", fun x -> lens.(x)) ] s in
  Alcotest.(check (float 1e-9)) "ragged trip count" 10.0 c.CM.flops

let test_counts_vectorized_and_threads () =
  let buf = Var.fresh "b" in
  let v = count_loop ~kind:Stmt.Vectorized (Expr.int 8) (flop_body buf) in
  let c = counts v in
  Alcotest.(check (float 1e-9)) "vector lanes divide" 4.0 c.CM.flops;
  (* nested thread loops consume the lane budget multiplicatively *)
  let t =
    count_loop ~kind:Stmt.Gpu_thread (Expr.int 2)
      (count_loop ~kind:Stmt.Gpu_thread (Expr.int 2) (flop_body buf))
  in
  let c = counts t in
  Alcotest.(check (float 1e-9)) "4 threads over 4 lanes" 1.0 c.CM.flops

let test_counts_guard_branches () =
  let buf = Var.fresh "b" in
  let i = Var.fresh "i" in
  let body =
    Stmt.If (Expr.lt (Expr.var i) (Expr.int 3), flop_body buf, None)
  in
  let s = Stmt.For { var = i; min = Expr.zero; extent = Expr.int 10; kind = Serial; body } in
  let c = counts s in
  Alcotest.(check (float 1e-9)) "branch per iteration" 10.0 c.CM.branches;
  Alcotest.(check (float 1e-9)) "guarded flops" 3.0 c.CM.flops

let test_local_scratch_not_traffic () =
  let scratch = Var.fresh "s" in
  let body =
    Stmt.Alloc
      {
        buf = scratch;
        size = Expr.one;
        body =
          Stmt.Store
            { buf = scratch; index = Expr.zero; value = Expr.load scratch Expr.zero };
      }
  in
  let c = counts (count_loop (Expr.int 7) body) in
  Alcotest.(check (float 1e-9)) "no loads" 0.0 c.CM.loads;
  Alcotest.(check (float 1e-9)) "no stores" 0.0 c.CM.stores

let test_indirect_counted () =
  let buf = Var.fresh "b" in
  let i = Var.fresh "i" in
  let body =
    Stmt.Store { buf; index = Expr.ufun "aux" [ Expr.var i ]; value = Expr.float 0.0 }
  in
  let s = Stmt.For { var = i; min = Expr.zero; extent = Expr.int 6; kind = Serial; body } in
  let c = counts ~ufuns:[ ("aux", fun x -> x) ] s in
  Alcotest.(check (float 1e-9)) "indirect accesses" 6.0 c.CM.indirect

let test_enumerate_blocks () =
  let buf = Var.fresh "b" in
  let blocks =
    count_loop ~kind:Stmt.Gpu_block (Expr.int 3)
      (count_loop ~kind:Stmt.Gpu_block (Expr.int 2) (flop_body buf))
  in
  let bs = CM.enumerate_blocks ~grid_kind:Stmt.Gpu_block (CM.env_create ()) blocks in
  Alcotest.(check int) "3x2 grid" 6 (List.length bs)

let test_enumerate_variable_grid () =
  (* grid extent depending on an outer block var through a ufun *)
  let buf = Var.fresh "b" in
  let i = Var.fresh "i" in
  let inner = count_loop ~kind:Stmt.Gpu_block (Expr.ufun "lens" [ Expr.var i ]) (flop_body buf) in
  let s =
    Stmt.For { var = i; min = Expr.zero; extent = Expr.int 3; kind = Gpu_block; body = inner }
  in
  let env = CM.env_create () in
  CM.bind_ufun env "lens" (function [ x ] -> x + 1 | _ -> assert false);
  let bs = CM.enumerate_blocks ~grid_kind:Stmt.Gpu_block env s in
  Alcotest.(check int) "1+2+3 blocks" 6 (List.length bs)

(* memoisation must not change results: iterate a kernel with and without
   distinct outer values *)
let test_memo_consistency () =
  let buf = Var.fresh "b" in
  let i = Var.fresh "i" in
  let inner = count_loop (Expr.ufun "lens" [ Expr.var i ]) (flop_body buf) in
  let s = Stmt.For { var = i; min = Expr.zero; extent = Expr.int 4; kind = Serial; body = inner } in
  let p = CM.prepare params s in
  let ufun = ufun_of [ ("lens", fun x -> x * 2) ] in
  let c1 = CM.eval p ~ufun and c2 = CM.eval p ~ufun in
  Alcotest.(check (float 1e-9)) "memoised result stable" c1.CM.flops c2.CM.flops;
  Alcotest.(check (float 1e-9)) "value correct" 12.0 c1.CM.flops

let () =
  Alcotest.run "machine"
    [
      ( "gpusim",
        List.map QCheck_alcotest.to_alcotest
          [ prop_makespan_bounds; prop_descending_within_bounds; prop_heap_matches_scan ]
        @ [ Alcotest.test_case "exact small schedules" `Quick test_makespan_exact ] );
      ( "cost-model",
        [
          Alcotest.test_case "constant nest counts" `Quick test_counts_simple_nest;
          Alcotest.test_case "ragged trip counts" `Quick test_counts_variable_extent;
          Alcotest.test_case "vector + thread lanes" `Quick test_counts_vectorized_and_threads;
          Alcotest.test_case "guard branch accounting" `Quick test_counts_guard_branches;
          Alcotest.test_case "local scratch is free" `Quick test_local_scratch_not_traffic;
          Alcotest.test_case "indirect accesses" `Quick test_indirect_counted;
          Alcotest.test_case "block enumeration" `Quick test_enumerate_blocks;
          Alcotest.test_case "variable grids" `Quick test_enumerate_variable_grid;
          Alcotest.test_case "memoisation consistency" `Quick test_memo_consistency;
        ] );
    ]

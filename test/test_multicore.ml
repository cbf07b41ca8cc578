(* Multicore execution: CPU-scheduled (Parallel-bound) kernels executed
   across OCaml domains must produce exactly the same results as serial
   interpretation. *)

open Cora
open Transformer

let lens = [| 7; 4; 2 |]
let cfg = Config.tiny ~lens
let lenv = Config.lenv cfg

let run ~multicore =
  let built = Builder.build ~target:Builder.Cpu cfg in
  let t = built.Builder.tensors in
  let w = Reference.random_weights cfg ~seed:3 in
  let env = Runtime.Interp.create () in
  let bind (tensor : Tensor.t) a =
    let r = Ragged.alloc tensor lenv in
    (match a with
    | Some src -> Array.blit src 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length src)
    | None -> ());
    Runtime.Interp.bind_buf env tensor.Tensor.buf r.Ragged.buf;
    r
  in
  let _ = bind t.Builder.wqkv (Some w.Reference.wqkv) in
  let _ = bind t.Builder.bqkv (Some w.Reference.bqkv) in
  let _ = bind t.Builder.w2 (Some w.Reference.w2) in
  let _ = bind t.Builder.b2 (Some w.Reference.b2) in
  let _ = bind t.Builder.wf1 (Some w.Reference.wf1) in
  let _ = bind t.Builder.bf1 (Some w.Reference.bf1) in
  let _ = bind t.Builder.wf2 (Some w.Reference.wf2) in
  let _ = bind t.Builder.bf2 (Some w.Reference.bf2) in
  let rin = bind t.Builder.in_t None in
  List.iter
    (fun tensor -> ignore (bind tensor None))
    [ t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn; t.Builder.p2;
      t.Builder.ln1; t.Builder.f1 ]
  |> ignore;
  let rout = bind t.Builder.out None in
  Ragged.fill rin (fun idx ->
      cos (float_of_int ((11 * List.nth idx 0) + (3 * List.nth idx 1) + List.nth idx 2)) *. 0.4);
  let kernels = Builder.kernels built in
  let defs = List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) kernels in
  let prelude = Prelude.build defs lenv in
  Prelude.bind_all prelude env;
  Prelude.bind_lenfuns lenv env;
  List.iter
    (fun (k : Lower.kernel) ->
      if multicore then Runtime.Interp.exec_multicore ~domains:4 env k.Lower.body
      else Runtime.Interp.exec env k.Lower.body)
    kernels;
  (Ragged.unpack rout, env)

let test_multicore_identical () =
  let serial, _ = run ~multicore:false in
  let parallel, _ = run ~multicore:true in
  Alcotest.(check int) "same size" (Array.length serial) (Array.length parallel);
  Array.iteri
    (fun i x ->
      if Float.abs (x -. parallel.(i)) > 0.0 then
        Alcotest.failf "multicore diverges at %d: %.9f vs %.9f" i serial.(i) parallel.(i))
    serial

let test_parallel_for_covers_range () =
  let hits = Array.make 23 0 in
  Runtime.Interp.exec_multicore ~domains:4 (Runtime.Interp.create ())
    (Ir.Stmt.For
       {
         var = Ir.Var.fresh "i";
         min = Ir.Expr.int 0;
         extent = Ir.Expr.int 0;
         kind = Parallel;
         body = Ir.Stmt.Nop;
       });
  (* direct check through a kernel writing its index *)
  let buf = Ir.Var.fresh "out" in
  let env = Runtime.Interp.create () in
  let arr = Array.make 23 0.0 in
  Runtime.Interp.bind_buf env buf (Runtime.Buffer.of_floats arr);
  let i = Ir.Var.fresh "i" in
  Runtime.Interp.exec_multicore ~domains:5 env
    (Ir.Stmt.For
       {
         var = i;
         min = Ir.Expr.int 0;
         extent = Ir.Expr.int 23;
         kind = Parallel;
         body = Ir.Stmt.Store { buf; index = Ir.Expr.var i; value = Ir.Expr.add (Ir.Expr.var i) Ir.Expr.one };
       });
  Array.iteri (fun idx v -> if int_of_float v <> idx + 1 then Alcotest.failf "missed %d" idx) arr;
  ignore hits

(* Regression: statistics from iterations executed on worker domains used
   to be dropped; a multicore run must report exactly the counters of the
   equivalent serial one. *)
let test_multicore_counters_aggregate () =
  let mk () =
    let buf = Ir.Var.fresh "out" in
    let env = Runtime.Interp.create () in
    Runtime.Interp.bind_buf env buf (Runtime.Buffer.of_floats (Array.make 40 0.0));
    let i = Ir.Var.fresh "i" in
    let body =
      Ir.Stmt.For
        {
          var = i;
          min = Ir.Expr.int 0;
          extent = Ir.Expr.int 40;
          kind = Parallel;
          body =
            Ir.Stmt.Store
              { buf; index = Ir.Expr.var i; value = Ir.Expr.add (Ir.Expr.var i) Ir.Expr.one };
        }
    in
    (env, body)
  in
  let senv, sbody = mk () in
  Runtime.Interp.exec senv sbody;
  let menv, mbody = mk () in
  Runtime.Interp.exec_multicore ~domains:4 menv mbody;
  Alcotest.(check int) "stores" senv.Runtime.Interp.stores menv.Runtime.Interp.stores;
  Alcotest.(check int) "loads" senv.Runtime.Interp.loads menv.Runtime.Interp.loads;
  Alcotest.(check int) "flops" senv.Runtime.Interp.flops menv.Runtime.Interp.flops;
  Alcotest.(check int) "all 40 stores seen" 40 menv.Runtime.Interp.stores

let test_multicore_encoder_counters () =
  let _, senv = run ~multicore:false in
  let _, menv = run ~multicore:true in
  Alcotest.(check int) "loads" senv.Runtime.Interp.loads menv.Runtime.Interp.loads;
  Alcotest.(check int) "stores" senv.Runtime.Interp.stores menv.Runtime.Interp.stores;
  Alcotest.(check int) "flops" senv.Runtime.Interp.flops menv.Runtime.Interp.flops;
  Alcotest.(check int) "indirect" senv.Runtime.Interp.indirect menv.Runtime.Interp.indirect;
  Alcotest.(check int) "guards" senv.Runtime.Interp.guards menv.Runtime.Interp.guards;
  Alcotest.(check int) "guard hits" senv.Runtime.Interp.guard_hits
    menv.Runtime.Interp.guard_hits

(* Regression hammer for the per-dimension offset memo: it used to be a
   plain Hashtbl shared across domains (unsynchronized resize = torn
   state); it is now an Atomic per dimension — duplicate cold fills are
   benign, the published array is always complete.  Four domains race
   cold offsets, and cold [fill]/[unpack] walks (which read the same
   memo), over a nested-ragged tensor (two lenfuns off the same batch
   dim, rows of length zero included); every result must match a
   serially computed oracle bitwise, on every round. *)
let test_ragged_prefix_cache_race () =
  let b = 5 in
  let bd = Dim.make "b" and rd = Dim.make "r" and cd = Dim.make "c" in
  let fr = Lenfun.make "hr" and fc = Lenfun.make "hc" in
  let extents =
    [ Shape.fixed b; Shape.ragged ~dep:bd ~fn:fr; Shape.ragged ~dep:bd ~fn:fc ]
  in
  let t = Tensor.create ~name:"H" ~dims:[ bd; rd; cd ] ~extents in
  let rows = [| 4; 0; 3; 1; 2 |] and cols = [| 2; 5; 1; 4; 3 |] in
  let hlenv = [ Lenfun.of_array "hr" rows; Lenfun.of_array "hc" cols ] in
  let idxs =
    List.concat
      (List.init b (fun bi ->
           List.concat
             (List.init rows.(bi) (fun ri ->
                  List.init cols.(bi) (fun ci -> [ bi; ri; ci ])))))
  in
  let value_of idx = float_of_int (Hashtbl.hash idx land 0xFFFF) /. 7.0 in
  let floats (r : Ragged.t) = Runtime.Buffer.floats r.Ragged.buf in
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  let oracle_offsets, oracle_filled, oracle_dense =
    let r = Ragged.alloc t hlenv in
    let offsets = List.map (Ragged.offset r) idxs in
    let r = Ragged.alloc t hlenv in
    Ragged.fill r value_of;
    (offsets, floats r, Ragged.unpack r)
  in
  let check what round expected got =
    Alcotest.(check (list int64))
      (Printf.sprintf "round %d: %s match serial oracle" round what)
      (bits expected) (bits got)
  in
  for round = 1 to 16 do
    (* fresh values per round re-race the cold memo: one for offsets, one
       whose memo the fills share (each domain writes its own buffer), one
       holding the oracle's filled buffer for the unpacks *)
    let r_off = Ragged.alloc t hlenv and r_fill = Ragged.alloc t hlenv in
    let r_unpack =
      { (Ragged.alloc t hlenv) with Ragged.buf = Runtime.Buffer.of_floats (Array.copy oracle_filled) }
    in
    let doms =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              let offsets = List.map (Ragged.offset r_off) idxs in
              let mine =
                { r_fill with Ragged.buf = Runtime.Buffer.float_buf (Array.length oracle_filled) }
              in
              Ragged.fill mine value_of;
              (offsets, floats mine, Ragged.unpack r_unpack)))
    in
    List.iter
      (fun d ->
        let offsets, filled, dense = Domain.join d in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d: offsets match serial oracle" round)
          oracle_offsets offsets;
        check "fill" round oracle_filled filled;
        check "unpack" round oracle_dense dense)
      doms
  done

let () =
  Alcotest.run "multicore"
    [
      ( "domains",
        [
          Alcotest.test_case "encoder identical across domains" `Quick test_multicore_identical;
          Alcotest.test_case "parallel_for covers the range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "counters aggregate across domains" `Quick
            test_multicore_counters_aggregate;
          Alcotest.test_case "encoder counters match serial" `Quick
            test_multicore_encoder_counters;
          Alcotest.test_case "ragged offset memo race-safe" `Quick
            test_ragged_prefix_cache_race;
        ] );
    ]

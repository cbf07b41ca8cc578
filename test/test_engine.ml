(* Differential testing of the compiled closure engine against the
   reference interpreter: for every fuzzed schedule (the same generator as
   test_schedule_fuzz), serial and Parallel-bound, both engines must
   produce bit-identical buffers and identical statistics counters.  Plus
   direct tests of the domain pool and of the engine's error paths. *)

open Cora

(* ------------------------------------------------------------------ *)
(* Fuzzed schedules: same op and decision space as test_schedule_fuzz,
   with the GPU binding slot generalised so the same sites can instead be
   Parallel-bound (the domain-pool path). *)

type binding = No_bind | Gpu | Par

type decision = {
  storage_pad : int;
  loop_pad : int;
  fuse : bool;
  fsplit : int option;
  split1 : int option;
  split2 : int option;
  rsplit : int option;
  elide : bool;
  hoist : bool;
  bind : binding;
}

let decision_gen =
  let open QCheck.Gen in
  let maybe_factor = oneofl [ None; Some 2; Some 3; Some 4; Some 5 ] in
  let* storage_pad = oneofl [ 1; 2; 4; 8 ] in
  let* loop_pad = oneofl [ 1; 2; 4 ] in
  let* fuse = bool in
  let* fsplit = oneofl [ None; Some 2; Some 4; Some 8 ] in
  let* split1 = maybe_factor in
  let* split2 = oneofl [ None; Some 2 ] in
  let* rsplit = maybe_factor in
  let* elide = bool in
  let* hoist = bool in
  let* bind = oneofl [ No_bind; Gpu; Par ] in
  let loop_pad = if elide && loop_pad > storage_pad then storage_pad else loop_pad in
  let loop_pad, storage_pad = if fuse then (1, 1) else (loop_pad, storage_pad) in
  return { storage_pad; loop_pad; fuse; fsplit; split1; split2; rsplit; elide; hoist; bind }

let print_decision d =
  Printf.sprintf
    "{storage_pad=%d; loop_pad=%d; fuse=%b; fsplit=%s; split1=%s; split2=%s; rsplit=%s; elide=%b; hoist=%b; bind=%s}"
    d.storage_pad d.loop_pad d.fuse
    (match d.fsplit with None -> "-" | Some f -> string_of_int f)
    (match d.split1 with None -> "-" | Some f -> string_of_int f)
    (match d.split2 with None -> "-" | Some f -> string_of_int f)
    (match d.rsplit with None -> "-" | Some f -> string_of_int f)
    d.elide d.hoist
    (match d.bind with No_bind -> "none" | Gpu -> "gpu" | Par -> "par")

let lens = [| 7; 1; 5; 3; 6 |]
let lenv = [ Lenfun.of_array "lens" lens ]

let build_op () =
  let batch = Dim.make "b" and len = Dim.make "j" and red = Dim.make "k" in
  let lensf = Lenfun.make "lens" in
  let extents = [ Shape.fixed 5; Shape.ragged ~dep:batch ~fn:lensf ] in
  let a = Tensor.create ~name:"FA" ~dims:[ batch; len ] ~extents in
  let o = Tensor.create ~name:"FO" ~dims:[ batch; len ] ~extents in
  let op =
    Op.reduce ~name:"fuzz" ~out:o ~loop_extents:extents
      ~rdims:[ (red, Shape.ragged ~dep:batch ~fn:lensf) ]
      ~combine:Ir.Stmt.Sum
      ~init:(fun _ -> Ir.Expr.float 0.0)
      ~reads:[ a ]
      (fun idx ridx ->
        Ir.Expr.mul
          (Op.access a [ List.nth idx 0; List.nth ridx 0 ])
          (Ir.Expr.add (List.nth idx 1) Ir.Expr.one))
  in
  (a, o, op)

let lower_with_decision d : Lower.kernel * Tensor.t * Tensor.t =
  let a, o, op = build_op () in
  let s = Schedule.create op in
  if d.elide then Schedule.set_guard_mode s Schedule.Elide;
  Schedule.set_hoist s d.hoist;
  let apply_bind ax =
    match d.bind with
    | No_bind -> ()
    | Gpu -> Schedule.bind_block s ax
    | Par -> Schedule.parallelize s ax
  in
  if d.fuse then begin
    Tensor.set_bulk_pad a 8;
    Tensor.set_bulk_pad o 8;
    let f = Schedule.fuse s (Schedule.axis_of_dim s 0) (Schedule.axis_of_dim s 1) in
    Schedule.pad_loop s f 8;
    match d.fsplit with
    | Some factor ->
        let fo, _fi = Schedule.split s f factor in
        apply_bind fo
    | None -> apply_bind f
  end
  else begin
    Tensor.pad_dimension o (List.nth o.Tensor.dims 1) d.storage_pad;
    let jax = Schedule.axis_of_dim s 1 in
    Schedule.pad_loop s jax d.loop_pad;
    (match d.split1 with
    | Some f ->
        let jo, _ji = Schedule.split s jax f in
        (match d.split2 with Some f2 -> ignore (Schedule.split s jo f2) | None -> ())
    | None -> ());
    apply_bind (Schedule.axis_of_dim s 0)
  end;
  (match d.rsplit with
  | Some f -> ignore (Schedule.split s (Schedule.axis_of_rdim s 0) f)
  | None -> ());
  (Lower.lower s, a, o)

(* One run of the kernel under [engine] / [multicore]; returns the raw
   (padded) output buffer and the counter snapshot. *)
let run_once (kernel : Lower.kernel) a o ~engine ~multicore : float array * (string * int) list =
  let ra = Ragged.alloc a lenv and ro = Ragged.alloc o lenv in
  Ragged.fill ra (fun idx -> float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
  let env, _ = Exec.run_ragged ~engine ~multicore ~lenv ~tensors:[ ra; ro ] [ kernel ] in
  (Array.copy (Runtime.Buffer.floats ro.Ragged.buf), Runtime.Interp.stats env)

let bits = Array.map Int64.bits_of_float

(* The differential property: interpreter serial is ground truth; compiled
   serial, and (on Parallel-bound schedules) interpreter-multicore and
   compiled-multicore must all match it bit-for-bit, counters included. *)
let differential d =
  let kernel, a, o = lower_with_decision d in
  let ref_out, ref_stats = run_once kernel a o ~engine:`Interp ~multicore:false in
  let agree label (out, stats) =
    if bits out <> bits ref_out then
      QCheck.Test.fail_reportf "%s: outputs differ on %s" label (print_decision d);
    if stats <> ref_stats then
      QCheck.Test.fail_reportf "%s: counters differ on %s" label (print_decision d);
    true
  in
  let ok = agree "compiled" (run_once kernel a o ~engine:`Compiled ~multicore:false) in
  let ok_par =
    match d.bind with
    | Par ->
        agree "interp-mc" (run_once kernel a o ~engine:`Interp ~multicore:true)
        && agree "compiled-mc" (run_once kernel a o ~engine:`Compiled ~multicore:true)
    | No_bind | Gpu -> true
  in
  ok && ok_par

let prop_differential =
  QCheck.Test.make ~count:150 ~name:"compiled engine == interpreter (outputs + counters)"
    (QCheck.make ~print:print_decision decision_gen)
    differential

(* The full CPU-scheduled encoder layer: every operator of the transformer
   workload, Parallel bindings included, through both engines. *)
let test_encoder_differential () =
  let cfg = Transformer.Config.tiny ~lens:[| 5; 3; 2 |] in
  let tlenv = Transformer.Config.lenv cfg in
  let run engine multicore =
    let built = Transformer.Builder.build ~target:Transformer.Builder.Cpu cfg in
    let t = built.Transformer.Builder.tensors in
    let w = Transformer.Reference.random_weights cfg ~seed:3 in
    let tensors = ref [] in
    let bind (tensor : Tensor.t) src =
      let r = Ragged.alloc tensor tlenv in
      (match src with
      | Some a -> Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a)
      | None -> ());
      tensors := r :: !tensors;
      r
    in
    let open Transformer in
    ignore (bind t.Builder.wqkv (Some w.Reference.wqkv));
    ignore (bind t.Builder.bqkv (Some w.Reference.bqkv));
    ignore (bind t.Builder.w2 (Some w.Reference.w2));
    ignore (bind t.Builder.b2 (Some w.Reference.b2));
    ignore (bind t.Builder.wf1 (Some w.Reference.wf1));
    ignore (bind t.Builder.bf1 (Some w.Reference.bf1));
    ignore (bind t.Builder.wf2 (Some w.Reference.wf2));
    ignore (bind t.Builder.bf2 (Some w.Reference.bf2));
    let rin = bind t.Builder.in_t None in
    List.iter
      (fun tensor -> ignore (bind tensor None))
      [ t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn; t.Builder.p2;
        t.Builder.ln1; t.Builder.f1 ];
    let rout = bind t.Builder.out None in
    Ragged.fill rin (fun idx ->
        cos (float_of_int ((11 * List.nth idx 0) + (3 * List.nth idx 1) + List.nth idx 2))
        *. 0.4);
    let env, _ =
      Exec.run_ragged ~engine ~multicore ~lenv:tlenv ~tensors:!tensors
        (Builder.kernels built)
    in
    (Ragged.unpack rout, Runtime.Interp.stats env)
  in
  let ref_out, ref_stats = run `Interp false in
  List.iter
    (fun (label, engine, mc) ->
      let out, stats = run engine mc in
      Alcotest.(check bool) (label ^ " outputs bit-identical") true (bits out = bits ref_out);
      Alcotest.(check (list (pair string int))) (label ^ " counters") ref_stats stats)
    [ ("compiled", `Compiled, false);
      ("interp-mc", `Interp, true);
      ("compiled-mc", `Compiled, true) ]

(* ------------------------------------------------------------------ *)
(* Domain pool *)

let test_pool_runs_all_chunks () =
  let pool = Runtime.Engine.Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Runtime.Engine.Pool.shutdown pool) @@ fun () ->
  (* several jobs through the same pool: chunks execute exactly once each *)
  for round = 1 to 5 do
    let n = 17 * round in
    let hits = Array.make n (Atomic.make 0) in
    Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
    Runtime.Engine.Pool.run pool ~chunks:n (fun c -> Atomic.incr hits.(c));
    Array.iteri
      (fun i h ->
        Alcotest.(check int) (Printf.sprintf "round %d chunk %d" round i) 1 (Atomic.get h))
      hits
  done

let test_pool_propagates_exceptions () =
  let pool = Runtime.Engine.Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Runtime.Engine.Pool.shutdown pool) @@ fun () ->
  let raised =
    try
      Runtime.Engine.Pool.run pool ~chunks:8 (fun c ->
          if c = 5 then failwith "chunk boom");
      false
    with Failure m -> m = "chunk boom"
  in
  Alcotest.(check bool) "exception re-raised in caller" true raised;
  (* and the pool survives: the next job still runs *)
  let total = Atomic.make 0 in
  Runtime.Engine.Pool.run pool ~chunks:10 (fun c -> ignore (Atomic.fetch_and_add total c));
  Alcotest.(check int) "pool usable after error" 45 (Atomic.get total)

let test_pool_shutdown_idempotent () =
  let pool = Runtime.Engine.Pool.create ~domains:2 () in
  Runtime.Engine.Pool.shutdown pool;
  Runtime.Engine.Pool.shutdown pool;
  Alcotest.(check pass) "double shutdown" () ()

(* ------------------------------------------------------------------ *)
(* Error paths.  Built directly on the IR so each failure mode is hit in
   isolation; every runtime failure must raise Engine.Error, mirroring the
   interpreter's Interp.Error on the same programs. *)

module E = Runtime.Engine

let engine_error f =
  try
    f ();
    false
  with E.Error _ -> true

let loop ?(kind = Ir.Stmt.Serial) v n body =
  Ir.Stmt.For { var = v; min = Ir.Expr.zero; extent = Ir.Expr.int n; kind; body }

let test_load_out_of_bounds () =
  let i = Ir.Var.fresh "i" and src = Ir.Var.fresh "src" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 4
      (Ir.Stmt.Store
         { buf = dst; index = Ir.Expr.var i;
           value = Ir.Expr.Load { buf = src; index = Ir.Expr.add (Ir.Expr.var i) (Ir.Expr.int 10) } })
  in
  let c = E.compile body in
  let fr = E.frame c in
  E.bind_buf fr src (Runtime.Buffer.float_buf 4);
  E.bind_buf fr dst (Runtime.Buffer.float_buf 4);
  Alcotest.(check bool) "load OOB raises" true (engine_error (fun () -> E.run fr))

let test_store_out_of_bounds () =
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 10 (Ir.Stmt.Store { buf = dst; index = Ir.Expr.var i; value = Ir.Expr.float 1.0 })
  in
  let fr = E.frame (E.compile body) in
  E.bind_buf fr dst (Runtime.Buffer.float_buf 4);
  Alcotest.(check bool) "store OOB raises" true (engine_error (fun () -> E.run fr))

let test_unbound_buffer () =
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 4 (Ir.Stmt.Store { buf = dst; index = Ir.Expr.var i; value = Ir.Expr.float 0.0 })
  in
  let fr = E.frame (E.compile body) in
  (* nothing bound: run must refuse up front *)
  Alcotest.(check bool) "unbound buffer raises" true (engine_error (fun () -> E.run fr))

let test_unbound_ufun () =
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 4
      (Ir.Stmt.Store
         { buf = dst; index = Ir.Expr.var i;
           value = Ir.Expr.Binop (Ir.Expr.Add, Ir.Expr.ufun "missing" [ Ir.Expr.var i ], Ir.Expr.int 0) })
  in
  let fr = E.frame (E.compile body) in
  E.bind_buf fr dst (Runtime.Buffer.float_buf 4);
  Alcotest.(check bool) "unbound ufun raises" true (engine_error (fun () -> E.run fr))

let test_ufun_index_out_of_bounds () =
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 8
      (Ir.Stmt.Store
         { buf = dst; index = Ir.Expr.var i;
           value = Ir.Expr.Binop (Ir.Expr.Add, Ir.Expr.ufun "t" [ Ir.Expr.var i ], Ir.Expr.int 0) })
  in
  let fr = E.frame (E.compile body) in
  E.bind_buf fr dst (Runtime.Buffer.float_buf 8);
  E.bind_ufun_table fr "t" [| 1; 2; 3 |];
  Alcotest.(check bool) "table index OOB raises" true (engine_error (fun () -> E.run fr))

let test_unbound_variable_is_compile_error () =
  let v = Ir.Var.fresh "ghost" and dst = Ir.Var.fresh "dst" in
  let body = Ir.Stmt.Store { buf = dst; index = Ir.Expr.var v; value = Ir.Expr.float 0.0 } in
  Alcotest.(check bool) "unbound var rejected at compile time" true
    (engine_error (fun () -> ignore (E.compile body)))

let test_int_buffer_rejected () =
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 2 (Ir.Stmt.Store { buf = dst; index = Ir.Expr.var i; value = Ir.Expr.float 0.0 })
  in
  let fr = E.frame (E.compile body) in
  Alcotest.(check bool) "int buffer rejected" true
    (engine_error (fun () -> E.bind_buf fr dst (Runtime.Buffer.int_buf 2)))

(* Interpreter parity on an error program: same schedule-shaped kernel,
   both paths must refuse (the engine up front, the interpreter lazily). *)
let test_error_parity_with_interp () =
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    loop i 6 (Ir.Stmt.Store { buf = dst; index = Ir.Expr.var i; value = Ir.Expr.float 2.0 })
  in
  let interp_raises =
    try
      let env = Runtime.Interp.create () in
      Runtime.Interp.bind_buf env dst (Runtime.Buffer.float_buf 3);
      Runtime.Interp.exec env body;
      false
    with Runtime.Interp.Error _ -> true
  in
  let engine_raises =
    engine_error (fun () ->
        let fr = E.frame (E.compile body) in
        E.bind_buf fr dst (Runtime.Buffer.float_buf 3);
        E.run fr)
  in
  Alcotest.(check bool) "interp raises" true interp_raises;
  Alcotest.(check bool) "engine raises" true engine_raises

(* ------------------------------------------------------------------ *)
(* Engine handles: a kernel list compiles once, and every later run given
   the same handles reuses the compiled closures with identical results. *)

let test_engine_handles () =
  let d =
    { storage_pad = 2; loop_pad = 2; fuse = false; fsplit = None; split1 = Some 3;
      split2 = None; rsplit = None; elide = false; hoist = true; bind = No_bind }
  in
  let kernel, a, o = lower_with_decision d in
  let h = Exec.handles ~opt:Ir.Optimize.O0 [ kernel ] in
  let run () =
    let ra = Ragged.alloc a lenv and ro = Ragged.alloc o lenv in
    Ragged.fill ra (fun idx -> float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
    ignore
      (Exec.run_ragged ~engine:`Compiled ~handles:h ~lenv ~tensors:[ ra; ro ] [ kernel ]);
    bits (Runtime.Buffer.floats ro.Ragged.buf)
  in
  Alcotest.(check int) "cold handles compile the kernel" 1 (Exec.compile_handles h);
  Alcotest.(check int) "warm handles compile nothing" 0 (Exec.compile_handles h);
  let first = run () in
  Alcotest.(check bool) "reused handles give identical output" true (first = run ());
  Alcotest.(check bool) "handles agree with a per-call compile" true
    (first = bits (fst (run_once kernel a o ~engine:`Compiled ~multicore:false)));
  Alcotest.(check bool) "handles of another kernel list are rejected" true
    (match
       Exec.run ~engine:`Compiled ~handles:h ~lenv ~bindings:[] [ kernel; kernel ]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "encoder layer, all engines agree" `Quick
            test_encoder_differential;
        ] );
      ( "pool",
        [
          Alcotest.test_case "chunks run exactly once" `Quick test_pool_runs_all_chunks;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_propagates_exceptions;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
        ] );
      ( "errors",
        [
          Alcotest.test_case "load out of bounds" `Quick test_load_out_of_bounds;
          Alcotest.test_case "store out of bounds" `Quick test_store_out_of_bounds;
          Alcotest.test_case "unbound buffer" `Quick test_unbound_buffer;
          Alcotest.test_case "unbound ufun" `Quick test_unbound_ufun;
          Alcotest.test_case "ufun table index OOB" `Quick test_ufun_index_out_of_bounds;
          Alcotest.test_case "unbound variable at compile time" `Quick
            test_unbound_variable_is_compile_error;
          Alcotest.test_case "int buffer rejected" `Quick test_int_buffer_rejected;
          Alcotest.test_case "error parity with interp" `Quick test_error_parity_with_interp;
        ] );
      ("memo", [ Alcotest.test_case "plan handles compile once" `Quick test_engine_handles ]);
    ]

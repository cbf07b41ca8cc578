(* The optimization pipeline's contract: at both levels (O0/O3), serial
   or multicore, the compiled engine's *outputs* are bitwise-identical to
   the reference interpreter's.  (Counter parity is an O0-only contract,
   covered by test_engine.ml; O3 legitimately shifts counter accounting —
   see lib/ir/optimize.mli.)  Plus unit tests of the level encoding, LICM,
   the dot microkernels (including O3's register-tiled nest, its aliasing
   fallback, stride classification and divmod elimination), weighted
   chunk balancing, the interpreter's ufun cache, the buffer arena and
   the metric handles hoisted out of the serving path. *)

open Cora

(* ------------------------------------------------------------------ *)
(* Fuzzed schedules: the test_engine.ml decision space (including a
   zero-length row, which exercises LICM's speculation across zero-trip
   loops), replayed per optimization level. *)

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
    "{storage_pad=%d; loop_pad=%d; fuse=%b; fsplit=%s; split1=%s; split2=%s; rsplit=%s; \
     elide=%b; hoist=%b; bind=%s}"
    d.storage_pad d.loop_pad d.fuse
    (match d.fsplit with None -> "-" | Some f -> string_of_int f)
    (match d.split1 with None -> "-" | Some f -> string_of_int f)
    (match d.split2 with None -> "-" | Some f -> string_of_int f)
    (match d.rsplit with None -> "-" | Some f -> string_of_int f)
    d.elide d.hoist
    (match d.bind with No_bind -> "none" | Gpu -> "gpu" | Par -> "par")

let lens = [| 7; 0; 5; 3; 6 |]
let lenv = [ Lenfun.of_array "lens" lens ]

let build_op () =
  let batch = Dim.make "b" and len = Dim.make "j" and red = Dim.make "k" in
  let lensf = Lenfun.make "lens" in
  let extents = [ Shape.fixed 5; Shape.ragged ~dep:batch ~fn:lensf ] in
  let a = Tensor.create ~name:"ZA" ~dims:[ batch; len ] ~extents in
  let o = Tensor.create ~name:"ZO" ~dims:[ batch; len ] ~extents in
  let op =
    Op.reduce ~name:"ofuzz" ~out:o ~loop_extents:extents
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

let run_once ?opt (kernel : Lower.kernel) a o ~engine ~multicore : float array =
  let ra = Ragged.alloc a lenv and ro = Ragged.alloc o lenv in
  Ragged.fill ra (fun idx -> float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
  let _env, _ = Exec.run_ragged ~engine ?opt ~multicore ~lenv ~tensors:[ ra; ro ] [ kernel ] in
  Array.copy (Runtime.Buffer.floats ro.Ragged.buf)

let bits = Array.map Int64.bits_of_float

let differential d =
  let kernel, a, o = lower_with_decision d in
  let ref_out = run_once kernel a o ~engine:`Interp ~multicore:false in
  let agree label out =
    if bits out <> bits ref_out then
      QCheck.Test.fail_reportf "%s: outputs differ on %s" label (print_decision d);
    true
  in
  List.for_all
    (fun (opt : Ir.Optimize.level) ->
      let name = Ir.Optimize.level_name opt in
      let ok = agree (name ^ " serial") (run_once ~opt kernel a o ~engine:`Compiled ~multicore:false) in
      ok
      &&
      match d.bind with
      | Par -> agree (name ^ " multicore") (run_once ~opt kernel a o ~engine:`Compiled ~multicore:true)
      | No_bind | Gpu -> true)
    [ Ir.Optimize.O0; Ir.Optimize.O3 ]

let prop_differential =
  QCheck.Test.make ~count:150 ~name:"O0/O3 outputs == interp (bitwise)"
    (QCheck.make ~print:print_decision decision_gen)
    differential

(* Heavily skewed length table through a Parallel binding: the weighted
   chunking path (Cost_model-estimated per-iteration weights) must not
   change results. *)
let skew_lens = [| 40; 1; 0; 1; 2 |]

let test_skewed_parallel_differential () =
  let d =
    { storage_pad = 2; loop_pad = 2; fuse = false; fsplit = None; split1 = Some 3;
      split2 = None; rsplit = Some 2; elide = false; hoist = true; bind = Par }
  in
  let kernel, a, o = lower_with_decision d in
  let skew_lenv = [ Lenfun.of_array "lens" skew_lens ] in
  let go engine opt multicore =
    let ra = Ragged.alloc a skew_lenv and ro = Ragged.alloc o skew_lenv in
    Ragged.fill ra (fun idx -> sin (float_of_int ((7 * List.nth idx 0) + List.nth idx 1)));
    let _ =
      Exec.run_ragged ~engine ~opt ~multicore ~lenv:skew_lenv ~tensors:[ ra; ro ] [ kernel ]
    in
    Array.copy (Runtime.Buffer.floats ro.Ragged.buf)
  in
  let ref_out = go `Interp Ir.Optimize.O0 false in
  List.iter
    (fun (label, opt, mc) ->
      Alcotest.(check bool) (label ^ " bitwise") true (bits (go `Compiled opt mc) = bits ref_out))
    [ ("O0 mc", Ir.Optimize.O0, true);
      ("O3 serial", Ir.Optimize.O3, false);
      ("O3 mc", Ir.Optimize.O3, true) ]

(* Two levels: 0 and 3 round-trip, every other integer is rejected
   rather than silently served at some level. *)
let test_level_of_int () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Ir.Optimize.level_name l ^ " round-trips")
        true
        (Ir.Optimize.level_of_int (Ir.Optimize.int_of_level l) = l))
    [ Ir.Optimize.O0; Ir.Optimize.O3 ];
  List.iter
    (fun n ->
      match Ir.Optimize.level_of_int n with
      | _ -> Alcotest.failf "level_of_int %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 1; 2; -1; 7 ]

(* ------------------------------------------------------------------ *)
(* LICM: the vgemm kernel re-reads its ragged-dimension ufuns in every
   guard, so hoisting must find work, and the engine must count the
   preheader evaluations at run time. *)

let vgemm_workload () =
  Serving.Workload.vgemm ~batch:4 ~tile:8 ~dims_choices:[| 8; 16; 24 |] ()

let vgemm_job () =
  let w = vgemm_workload () in
  let stream = Serving.Stream.generate ~workload:w ~pool:1 ~n:1 ~seed:7 () in
  (w, stream, w.Serving.Workload.build stream.Serving.Stream.items.(0))

let test_licm_hoists_on_vgemm () =
  let _, _, job = vgemm_job () in
  let k = List.hd job.Serving.Workload.kernels in
  let _opt, r = Ir.Optimize.licm k.Lower.body in
  Alcotest.(check bool) "hoisted bindings found" true (r.Ir.Optimize.hoisted > 0)

let test_engine_hoisted_counter () =
  let before = Obs.Metrics.value (Obs.Metrics.counter "engine.hoisted") in
  let w, stream, _ = vgemm_job () in
  let srv =
    Serving.Server.create ~execute:true ~engine:`Compiled ~opt:Ir.Optimize.O3 ()
  in
  ignore (Serving.Stream.replay srv w stream);
  let after = Obs.Metrics.value (Obs.Metrics.counter "engine.hoisted") in
  Alcotest.(check bool) "hoisted counter advanced" true (after > before)

(* ------------------------------------------------------------------ *)
(* Microkernels *)

let rec has_dot (s : Ir.Stmt.t) : bool =
  match s with
  | Ir.Stmt.For { var; body; _ } -> (
      match Ir.Optimize.classify_inner ~var body with
      | Some (Ir.Optimize.Dot _) -> true
      | _ -> has_dot body)
  | Ir.Stmt.Seq l -> List.exists has_dot l
  | Ir.Stmt.If (_, a, b) -> has_dot a || Option.fold ~none:false ~some:has_dot b
  | Ir.Stmt.Let_stmt (_, _, b) -> has_dot b
  | Ir.Stmt.Alloc { body; _ } -> has_dot body
  | _ -> false

let test_vgemm_inner_is_dot () =
  let _, _, job = vgemm_job () in
  let k = List.hd job.Serving.Workload.kernels in
  let opt, _ = Ir.Optimize.run ~level:Ir.Optimize.O3 k.Lower.body in
  Alcotest.(check bool) "vgemm inner loop classifies as dot" true (has_dot opt)

let test_vgemm_microkernel_fires () =
  let before = Obs.Metrics.value (Obs.Metrics.counter "engine.microkernel_elems") in
  let w, stream, _ = vgemm_job () in
  let srv =
    Serving.Server.create ~execute:true ~engine:`Compiled ~opt:Ir.Optimize.O3 ()
  in
  ignore (Serving.Stream.replay srv w stream);
  let after = Obs.Metrics.value (Obs.Metrics.counter "engine.microkernel_elems") in
  Alcotest.(check bool) "microkernel_elems advanced" true (after > before)

(* A hand-built dot loop: the microkernel must fire, count its elements,
   and agree with O0 bitwise. *)
let test_dot_microkernel_direct () =
  let module E = Runtime.Engine in
  let i = Ir.Var.fresh "i" and a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" in
  let c = Ir.Var.fresh "C" in
  let body =
    Ir.Stmt.For
      { var = i; min = Ir.Expr.zero; extent = Ir.Expr.int 8; kind = Ir.Stmt.Serial;
        body =
          Ir.Stmt.Reduce_store
            { buf = c; index = Ir.Expr.zero; op = Ir.Stmt.Sum;
              value =
                Ir.Expr.mul
                  (Ir.Expr.Load { buf = a; index = Ir.Expr.var i })
                  (Ir.Expr.Load { buf = b; index = Ir.Expr.var i });
            };
      }
  in
  let run opt =
    let fr = E.frame (E.compile ~opt body) in
    let fa = Array.init 8 (fun j -> 0.1 +. (0.3 *. float_of_int j)) in
    let fb = Array.init 8 (fun j -> 1.7 -. (0.2 *. float_of_int j)) in
    let fc = [| 0.0 |] in
    E.bind_buf fr a (Runtime.Buffer.of_floats fa);
    E.bind_buf fr b (Runtime.Buffer.of_floats fb);
    E.bind_buf fr c (Runtime.Buffer.of_floats fc);
    E.run fr;
    (fc.(0), List.assoc "microkernel_elems" (E.stats fr))
  in
  let v0, mk0 = run Ir.Optimize.O0 in
  let v3, mk3 = run Ir.Optimize.O3 in
  Alcotest.(check int) "O0 takes no microkernel" 0 mk0;
  Alcotest.(check int) "O3 processes all elements" 8 mk3;
  Alcotest.(check bool) "bitwise equal" true
    (Int64.bits_of_float v0 = Int64.bits_of_float v3)

(* ------------------------------------------------------------------ *)
(* O3: register-tiled dot nests, stride classes, divmod elimination *)

let load buf index = Ir.Expr.Load { buf; index }
let mk_variant name = Obs.Metrics.value (Obs.Metrics.counter ("engine.mk_variant." ^ name))

(* The canonical feature-bearing dot nest — guard, init store, a
   k-invariant mask conjunct, a [k < bound] conjunct and a scaling
   epilogue:

     for j < nj:
       if j < nj-1:
         C[j] = 0
         for k < nk: C[j] += (j < nj-2 && k < nk-3) ? A[j*nk+k]*B[k] : 0.
         C[j] = C[j] * 2

   Row nj-2 is guard-true but mask-false everywhere (the all-zero chain
   must still run the epilogue); row nj-1 is guard-false (its cell is
   never touched). *)
let tiled_nest ~nj ~nk (j, k, a, b, c) =
  let open Ir in
  let jv = Expr.var j and kv = Expr.var k in
  let prod =
    Expr.mul (load a (Expr.add (Expr.mul jv (Expr.int nk)) kv)) (load b kv)
  in
  let mask =
    Expr.And (Expr.lt jv (Expr.int (nj - 2)), Expr.lt kv (Expr.int (nk - 3)))
  in
  let kloop =
    Stmt.For
      { var = k; min = Expr.zero; extent = Expr.int nk; kind = Stmt.Serial;
        body =
          Stmt.Reduce_store
            { buf = c; index = jv; op = Stmt.Sum;
              value = Expr.Select (mask, prod, Expr.float 0.0) };
      }
  in
  Stmt.For
    { var = j; min = Expr.zero; extent = Expr.int nj; kind = Stmt.Serial;
      body =
        Stmt.If
          ( Expr.lt jv (Expr.int (nj - 1)),
            Stmt.Seq
              [
                Stmt.Store { buf = c; index = jv; value = Expr.float 0.0 };
                kloop;
                Stmt.Store
                  { buf = c; index = jv; value = Expr.mul (load c jv) (Expr.float 2.0) };
              ],
            None );
    }

let nj = 9
let nk = 10

let run_tiled opt =
  let module E = Runtime.Engine in
  let j = Ir.Var.fresh "j" and k = Ir.Var.fresh "k" in
  let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
  let fr = E.frame (E.compile ~opt (tiled_nest ~nj ~nk (j, k, a, b, c))) in
  let fa = Array.init (nj * nk) (fun i -> sin (float_of_int i)) in
  let fb = Array.init nk (fun i -> cos (float_of_int i)) in
  (* the guard-false row keeps this sentinel at every level *)
  let fc = Array.make nj (-7.5) in
  E.bind_buf fr a (Runtime.Buffer.of_floats fa);
  E.bind_buf fr b (Runtime.Buffer.of_floats fb);
  E.bind_buf fr c (Runtime.Buffer.of_floats fc);
  E.run fr;
  (Array.copy fc, E.stats fr)

(* The tiled path must bind the masked register-tiled variant, agree with
   O0 bitwise (including the all-zero-chain epilogue and the untouched
   guard-false cell), and reproduce O0's counter totals exactly — the nest
   reads no prelude tables, so LICM moves no loads, and hoisting the
   endpoint bounds checks out of the chain bodies moves no accounting. *)
let test_o3_tiled_nest () =
  let before = mk_variant "dot.tile4_masked" in
  let o0, s0 = run_tiled Ir.Optimize.O0 in
  let o3, s3 = run_tiled Ir.Optimize.O3 in
  Alcotest.(check bool) "tile4_masked variant bound" true
    (mk_variant "dot.tile4_masked" > before);
  Alcotest.(check bool) "O3 actually tiles" true
    (List.assoc "microkernel_elems" s3 > 0);
  Alcotest.(check bool) "O0 = O3 bitwise" true (bits o3 = bits o0);
  List.iter
    (fun key ->
      Alcotest.(check int)
        (key ^ " totals unchanged by tiling")
        (List.assoc key s0) (List.assoc key s3))
    [ "loads"; "stores"; "flops"; "guards"; "guard_hits" ]

(* Destination aliasing an operand array is only detectable at run time;
   the tiled closure must fall back to the generic loop (register
   accumulation would read stale values) and stay bitwise with O0. *)
let test_o3_aliased_dst_falls_back () =
  let module E = Runtime.Engine in
  let anj = 4 and ank = 8 in
  let j = Ir.Var.fresh "j" and k = Ir.Var.fresh "k" in
  let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
  let open Ir in
  let body =
    Stmt.For
      { var = j; min = Expr.zero; extent = Expr.int anj; kind = Stmt.Serial;
        body =
          Stmt.For
            { var = k; min = Expr.zero; extent = Expr.int ank; kind = Stmt.Serial;
              body =
                Stmt.Reduce_store
                  { buf = c; index = Expr.var j; op = Stmt.Sum;
                    value =
                      Expr.mul
                        (load a
                           (Expr.add (Expr.mul (Expr.var j) (Expr.int ank)) (Expr.var k)))
                        (load b (Expr.var k)) };
            };
      }
  in
  let run opt =
    let fr = E.frame (E.compile ~opt body) in
    let fa = Array.init (anj * ank) (fun i -> cos (float_of_int i)) in
    (* C and B share one array: C's cells sit inside the range B reads,
       so each chain's partial sums feed later chains' operand loads *)
    let shared = Runtime.Buffer.of_floats (Array.init ank (fun i -> 0.5 +. float_of_int i)) in
    E.bind_buf fr a (Runtime.Buffer.of_floats fa);
    E.bind_buf fr b shared;
    E.bind_buf fr c shared;
    E.run fr;
    (Array.copy (Runtime.Buffer.floats shared), E.stats fr)
  in
  let o0, _ = run Ir.Optimize.O0 in
  let o3, s3 = run Ir.Optimize.O3 in
  Alcotest.(check int) "no microkernel on the aliased run" 0
    (List.assoc "microkernel_elems" s3);
  Alcotest.(check bool) "O0 = O3 bitwise under aliasing" true (bits o3 = bits o0)

(* A reduction whose operand stride is a runtime value (S_dyn) must select
   the strided variant, not the unit-stride unrolled one. *)
let test_o3_dynamic_stride_selects_strided () =
  let module E = Runtime.Engine in
  let n = 8 in
  let k = Ir.Var.fresh "k" and s = Ir.Var.fresh "s" in
  let a = Ir.Var.fresh "A" and b = Ir.Var.fresh "B" and c = Ir.Var.fresh "C" in
  let open Ir in
  let body =
    Stmt.Let_stmt
      ( s,
        Expr.int 3,
        Stmt.For
          { var = k; min = Expr.zero; extent = Expr.int n; kind = Stmt.Serial;
            body =
              Stmt.Reduce_store
                { buf = c; index = Expr.zero; op = Stmt.Sum;
                  value =
                    Expr.mul
                      (load a (Expr.Binop (Expr.Mul, Expr.var k, Expr.var s)))
                      (load b (Expr.var k)) };
          } )
  in
  let run opt =
    let fr = E.frame (E.compile ~opt body) in
    E.bind_buf fr a
      (Runtime.Buffer.of_floats (Array.init (3 * n) (fun i -> sin (float_of_int i))));
    E.bind_buf fr b
      (Runtime.Buffer.of_floats (Array.init n (fun i -> 1.3 -. (0.2 *. float_of_int i))));
    let fc = [| 0.25 |] in
    E.bind_buf fr c (Runtime.Buffer.of_floats fc);
    E.run fr;
    (fc.(0), E.stats fr)
  in
  let strided_before = mk_variant "dot.sum_s4" in
  let unit_before = mk_variant "dot.sum_u4" in
  let v0, _ = run Ir.Optimize.O0 in
  let v3, s3 = run Ir.Optimize.O3 in
  Alcotest.(check bool) "strided variant selected" true
    (mk_variant "dot.sum_s4" > strided_before);
  Alcotest.(check int) "unit variant not selected" unit_before (mk_variant "dot.sum_u4");
  Alcotest.(check int) "all elements through the microkernel" n
    (List.assoc "microkernel_elems" s3);
  Alcotest.(check bool) "O0 = O3 bitwise" true
    (Int64.bits_of_float v0 = Int64.bits_of_float v3)

(* The division identity (e/c)*c + e%c = e, exact for the IR's floored
   div/mod pair: the O3 pass must rewrite the gather index to the plain
   loop var — making it affine, so the copy upgrades to a blit — and the
   optimized program must stay bitwise with O0. *)
let test_o3_divmod_elim () =
  let module E = Runtime.Engine in
  let n = 20 in
  let k = Ir.Var.fresh "k" in
  let a = Ir.Var.fresh "A" and d = Ir.Var.fresh "D" in
  let open Ir in
  let idx =
    Expr.add
      (Expr.mul (Expr.floordiv (Expr.var k) (Expr.int 8)) (Expr.int 8))
      (Expr.imod (Expr.var k) (Expr.int 8))
  in
  let body =
    Stmt.For
      { var = k; min = Expr.zero; extent = Expr.int n; kind = Stmt.Serial;
        body = Stmt.Store { buf = d; index = Expr.var k; value = load a idx } }
  in
  let before = Obs.Metrics.value (Obs.Metrics.counter "optimize.divmod_eliminated") in
  let o3_body, _ = Ir.Optimize.run ~level:Ir.Optimize.O3 body in
  Alcotest.(check bool) "pass counted an elimination" true
    (Obs.Metrics.value (Obs.Metrics.counter "optimize.divmod_eliminated") > before);
  let residue = ref false in
  ignore
    (Stmt.map_exprs
       (Expr.map_bottom_up (fun e ->
            (match e with
            | Expr.Binop (Expr.FloorDiv, _, _) | Expr.Binop (Expr.Mod, _, _) ->
                residue := true
            | _ -> ());
            e))
       o3_body)
  [@warning "-5"];
  Alcotest.(check bool) "no div/mod residue" false !residue;
  let run opt body =
    let fr = E.frame (E.compile ~opt body) in
    let fd = Array.make n nan in
    E.bind_buf fr a
      (Runtime.Buffer.of_floats (Array.init n (fun i -> exp (0.1 *. float_of_int i))));
    E.bind_buf fr d (Runtime.Buffer.of_floats fd);
    E.run fr;
    Array.copy fd
  in
  let blit_before = mk_variant "copy.blit" in
  let o0 = run Ir.Optimize.O0 body in
  let o3 = run Ir.Optimize.O3 o3_body in
  Alcotest.(check bool) "rewritten gather upgrades to blit" true
    (mk_variant "copy.blit" > blit_before);
  Alcotest.(check bool) "O0 = O3 bitwise" true (bits o3 = bits o0)

(* ------------------------------------------------------------------ *)
(* Weighted chunk balancing *)

let test_balance_chunks_skewed () =
  let ws = [| 100; 1; 1; 1; 1; 1; 1; 1 |] in
  let k = 4 in
  let bounds = Runtime.Engine.balance_chunks ws k in
  Alcotest.(check int) "k+1 cut points" (k + 1) (Array.length bounds);
  Alcotest.(check int) "starts at 0" 0 bounds.(0);
  Alcotest.(check int) "ends at n" (Array.length ws) bounds.(k);
  for c = 0 to k - 1 do
    Alcotest.(check bool) (Printf.sprintf "chunk %d nonempty" c) true (bounds.(c) < bounds.(c + 1))
  done;
  (* the heavy item gets a chunk to itself *)
  Alcotest.(check int) "heavy item isolated" 1 bounds.(1)

let test_balance_chunks_uniform () =
  let ws = Array.make 12 5 in
  let bounds = Runtime.Engine.balance_chunks ws 3 in
  Alcotest.(check (array int)) "even split" [| 0; 4; 8; 12 |] bounds

(* ------------------------------------------------------------------ *)
(* Interpreter ufun cache *)

let test_ufun_cache_hits () =
  let before = Obs.Metrics.value (Obs.Metrics.counter "ufun_cache.hit") in
  let i = Ir.Var.fresh "i" and dst = Ir.Var.fresh "dst" in
  let body =
    Ir.Stmt.For
      { var = i; min = Ir.Expr.zero; extent = Ir.Expr.int 6; kind = Ir.Stmt.Serial;
        body =
          Ir.Stmt.Store
            { buf = dst; index = Ir.Expr.var i;
              (* t(0) is re-read every iteration: 5 of the 6 reads hit *)
              value =
                Ir.Expr.Binop
                  (Ir.Expr.Add,
                   Ir.Expr.ufun "t" [ Ir.Expr.zero ],
                   Ir.Expr.float 0.5);
            };
      }
  in
  let env = Runtime.Interp.create () in
  Runtime.Interp.bind_buf env dst (Runtime.Buffer.float_buf 6);
  Runtime.Interp.bind_ufun_array env "t" [| 3; 1; 4 |];
  Runtime.Interp.exec env body;
  let after = Obs.Metrics.value (Obs.Metrics.counter "ufun_cache.hit") in
  Alcotest.(check int) "repeat lookups hit" 5 (after - before);
  Alcotest.(check int) "loads unchanged by caching" 6 env.Runtime.Interp.loads

(* ------------------------------------------------------------------ *)
(* Buffer arena *)

let test_arena_reuse () =
  let open Runtime.Buffer in
  let t = Arena.create () in
  let a = Arena.acquire t 100 in
  a.(0) <- 42.0;
  Arena.release t a;
  Alcotest.(check int) "stored after release" 1 (Arena.stored t);
  Alcotest.check_raises "double release raises"
    (Invalid_argument "Buffer.Arena.release: already released") (fun () -> Arena.release t a);
  Alcotest.(check int) "double release not pooled" 1 (Arena.stored t);
  let b = Arena.acquire t 100 in
  Alcotest.(check bool) "same array recycled" true (a == b);
  Alcotest.(check (float 0.0)) "zero-filled on reuse" 0.0 b.(0);
  let c = Arena.acquire_class t 100 in
  Alcotest.(check int) "class rounds to pow2" 128 (Array.length c);
  Arena.clear t;
  Alcotest.(check int) "clear empties" 0 (Arena.stored t)

let test_arena_negative_raises () =
  let open Runtime.Buffer in
  let t = Arena.create () in
  Alcotest.check_raises "negative size raises like Array.make"
    (Invalid_argument "Array.make") (fun () -> ignore (Arena.acquire t (-1)))

(* ------------------------------------------------------------------ *)
(* Select splitting: random loops [d[o*24 + i] = (i cmp e) ? x : y] under
   an outer loop [o in [0, 2)], with the cut below, inside and above the
   range, zero-trip and negative extents, every comparison with the loop
   variable on either side, [e] reading a prelude table, and the
   destination aliasing the source.  O3 must split every one of them and
   stay bitwise equal to the interpreter. *)

type split_case = {
  smin : int;
  sext : int;
  cmp : Ir.Expr.cmpop;
  var_left : bool;
  cut : int;
  via_table : bool;  (** [e = tab(o) + cut] instead of the literal [cut] *)
  alias : bool;  (** the destination is the source buffer *)
  shift : int;  (** source index = destination index + shift *)
  xform : int;  (** 0: copy, 1: scale by a literal, 2: generic *)
  yform : int;
  skind : Ir.Stmt.for_kind;
}

let split_case_gen =
  let open QCheck.Gen in
  let* smin = int_range 0 4 in
  let* sext = int_range (-3) 14 in
  let* cmp = oneofl [ Ir.Expr.Lt; Ir.Expr.Le; Ir.Expr.Gt; Ir.Expr.Ge ] in
  let* var_left = bool in
  let* cut = int_range (-4) 22 in
  let* via_table = bool in
  let* alias = bool in
  let* shift = int_range 0 2 in
  let* xform = int_range 0 2 in
  let* yform = int_range 0 2 in
  let* skind = oneofl [ Ir.Stmt.Serial; Ir.Stmt.Gpu_thread; Ir.Stmt.Parallel ] in
  return { smin; sext; cmp; var_left; cut; via_table; alias; shift; xform; yform; skind }

let print_split_case c =
  Printf.sprintf
    "{min=%d; ext=%d; cmp=%s; var_left=%b; cut=%d; via_table=%b; alias=%b; shift=%d; x=%d; y=%d}"
    c.smin c.sext
    (match c.cmp with
    | Ir.Expr.Lt -> "<"
    | Ir.Expr.Le -> "<="
    | Ir.Expr.Gt -> ">"
    | Ir.Expr.Ge -> ">="
    | _ -> "?")
    c.var_left c.cut c.via_table c.alias c.shift c.xform c.yform

let split_table = [| 3; 9 |]
let split_row = 24

let split_loop c =
  let open Ir in
  let o = Var.fresh "o" and i = Var.fresh "i" in
  let src = Var.fresh "S" in
  let dst = if c.alias then src else Var.fresh "D" in
  let row = Expr.mul (Expr.var o) (Expr.int split_row) in
  let di = Expr.add row (Expr.var i) in
  let si = Expr.add di (Expr.int c.shift) in
  let form = function
    | 0 -> load src si
    | 1 -> Expr.mul (load src si) (Expr.float 0.353553)
    | _ -> Expr.add (load src si) (Expr.float 1.5)
  in
  let e =
    if c.via_table then Expr.add (Expr.ufun "tab" [ Expr.var o ]) (Expr.int c.cut)
    else Expr.int c.cut
  in
  let cond =
    if c.var_left then Expr.Cmp (c.cmp, Expr.var i, e) else Expr.Cmp (c.cmp, e, Expr.var i)
  in
  let inner =
    Stmt.For
      { var = i; min = Expr.int c.smin; extent = Expr.int c.sext; kind = c.skind;
        body =
          Stmt.Store
            { buf = dst; index = di; value = Expr.Select (cond, form c.xform, form c.yform) } }
  in
  let body =
    Stmt.For { var = o; min = Expr.zero; extent = Expr.int 2; kind = Stmt.Serial; body = inner }
  in
  (body, src, dst)

let split_src () =
  Array.init (2 * split_row) (fun k -> if k = 5 then -0.0 else cos (float_of_int (3 * k)))

let run_split_interp c =
  let body, src, dst = split_loop c in
  let env = Runtime.Interp.create () in
  let fs = split_src () and fd = Array.make (2 * split_row) 7.25 in
  Runtime.Interp.bind_buf env src (Runtime.Buffer.of_floats fs);
  if not c.alias then Runtime.Interp.bind_buf env dst (Runtime.Buffer.of_floats fd);
  Runtime.Interp.bind_ufun_array env "tab" split_table;
  Runtime.Interp.exec env body;
  (fs, fd)

let has_select_stmt (s : Ir.Stmt.t) =
  let is_select b (n : Ir.Expr.t) = b || match n with Ir.Expr.Select _ -> true | _ -> false in
  Ir.Stmt.fold_exprs (fun b e -> Ir.Expr.fold is_select b e) false s

let run_split_o3 c =
  let module E = Runtime.Engine in
  let body, src, dst = split_loop c in
  let split = has_select_stmt (fst (Ir.Optimize.run ~level:Ir.Optimize.O3 body)) in
  let fr = E.frame (E.compile ~opt:Ir.Optimize.O3 body) in
  let fs = split_src () and fd = Array.make (2 * split_row) 7.25 in
  E.bind_buf fr src (Runtime.Buffer.of_floats fs);
  if not c.alias then E.bind_buf fr dst (Runtime.Buffer.of_floats fd);
  E.bind_ufun_table fr "tab" split_table;
  E.run fr;
  (not split, (fs, fd))

let prop_select_split =
  QCheck.Test.make ~count:400 ~name:"select_split: O3 outputs == interp (bitwise)"
    (QCheck.make ~print:print_split_case split_case_gen)
    (fun c ->
      let fs, fd = run_split_interp c in
      let split, (gs, gd) = run_split_o3 c in
      if not split then QCheck.Test.fail_report "O3 left a select in the loop";
      bits fs = bits gs && bits fd = bits gd)

(* The decode step's cache sweep [DKN = (c < h) ? DKV * s : DKV]: at O3
   its one select is split away and the two halves bind exactly the
   unrolled scale and the blit copy. *)
let test_kvscale_split () =
  let w = Serving.Workload.decode ~batch:2 ~max_src:12 () in
  let lens = w.Serving.Workload.sample (Workloads.Rng.create 3) in
  let job = w.Serving.Workload.build lens in
  let k =
    List.find (fun (k : Lower.kernel) -> k.Lower.kname = "KVScale") job.Serving.Workload.kernels
  in
  Alcotest.(check bool) "KVScale selects before O3" true (has_select_stmt k.Lower.body);
  let o3, _ = Ir.Optimize.run ~level:Ir.Optimize.O3 k.Lower.body in
  Alcotest.(check bool) "no select after O3" false (has_select_stmt o3);
  let variants () =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Counter_v n
          when String.length name > 18 && String.sub name 0 18 = "engine.mk_variant." ->
            Some (String.sub name 18 (String.length name - 18), n)
        | _ -> None)
      (Obs.Metrics.dump ())
  in
  let before = variants () in
  ignore (Runtime.Engine.compile ~opt:Ir.Optimize.O3 k.Lower.body);
  let bound =
    List.filter_map
      (fun (name, n) ->
        let n0 = Option.value ~default:0 (List.assoc_opt name before) in
        if n > n0 then Some (name, n - n0) else None)
      (variants ())
  in
  Alcotest.(check (list (pair string int)))
    "bound variants" [ ("copy.blit", 1); ("scale.u4", 1) ] bound

(* ------------------------------------------------------------------ *)
(* Metric handles registered at module initialisation must keep counting
   after a registry reset (reset zeroes cells in place). *)

let test_handles_survive_reset () =
  Obs.Metrics.reset ();
  let w, stream, _ = vgemm_job () in
  let srv = Serving.Server.create ~execute:true ~engine:`Compiled ~opt:Ir.Optimize.O3 () in
  ignore (Serving.Stream.replay srv w stream);
  let kernel, a, o =
    lower_with_decision
      { storage_pad = 1; loop_pad = 1; fuse = false; fsplit = None; split1 = None;
        split2 = None; rsplit = None; elide = false; hoist = false; bind = No_bind }
  in
  ignore (run_once kernel a o ~engine:`Interp ~multicore:false);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " advanced") true
        (Obs.Metrics.value (Obs.Metrics.counter name) > 0))
    [ "engine.loads"; "engine.flops"; "engine.microkernel_elems"; "interp.loads";
      "prelude.tables_built"; "lower.kernels" ]

let () =
  Alcotest.run "optimize"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "skewed lens, weighted chunks" `Quick
            test_skewed_parallel_differential;
        ] );
      ("levels", [ Alcotest.test_case "level_of_int" `Quick test_level_of_int ]);
      ( "licm",
        [
          Alcotest.test_case "vgemm hoists" `Quick test_licm_hoists_on_vgemm;
          Alcotest.test_case "engine hoisted counter" `Quick test_engine_hoisted_counter;
        ] );
      ( "microkernel",
        [
          Alcotest.test_case "vgemm inner loop is a dot" `Quick test_vgemm_inner_is_dot;
          Alcotest.test_case "vgemm microkernel fires" `Quick test_vgemm_microkernel_fires;
          Alcotest.test_case "direct dot: counted + bitwise" `Quick test_dot_microkernel_direct;
        ] );
      ( "o3",
        [
          Alcotest.test_case "register-tiled nest: variant + counters + bitwise" `Quick
            test_o3_tiled_nest;
          Alcotest.test_case "aliased destination falls back" `Quick
            test_o3_aliased_dst_falls_back;
          Alcotest.test_case "dynamic stride selects strided variant" `Quick
            test_o3_dynamic_stride_selects_strided;
          Alcotest.test_case "divmod elimination" `Quick test_o3_divmod_elim;
        ] );
      ( "select_split",
        [
          QCheck_alcotest.to_alcotest prop_select_split;
          Alcotest.test_case "KVScale splits into scale.u4 + copy.blit" `Quick
            test_kvscale_split;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "skewed weights" `Quick test_balance_chunks_skewed;
          Alcotest.test_case "uniform weights" `Quick test_balance_chunks_uniform;
        ] );
      ("ufun-cache", [ Alcotest.test_case "last-lookup cache" `Quick test_ufun_cache_hits ]);
      ( "arena",
        [
          Alcotest.test_case "reuse + size classes" `Quick test_arena_reuse;
          Alcotest.test_case "negative size" `Quick test_arena_negative_raises;
        ] );
      ( "metrics",
        [ Alcotest.test_case "handles survive reset" `Quick test_handles_survive_reset ] );
    ]

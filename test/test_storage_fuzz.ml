(* Storage-layout fuzzing: for randomly generated tensor declarations
   (random rank, random ragged dependences under the prototype's
   restrictions, random paddings and bulk padding, rows of length zero),
   the storage lowering must give every valid index a distinct in-bounds
   slot and agree with the independent runtime layout; and the runtime's
   offset walk (bulk traversal, fill, pack, unpack) must agree with the
   per-element {!Ragged.offset}/{!Ragged.get}/{!Ragged.set} reference. *)

open Cora

let lens = [| 4; 2; 5; 1 |]

(* same length as [lens], with zero-length rows *)
let zlens = [| 3; 0; 2; 0 |]

let lenv =
  [
    Lenfun.of_array "seq" lens;
    Lenfun.of_array "zseq" zlens;
    Lenfun.of_fun "tri" (fun r -> r + 1);
  ]

let seq = Lenfun.make "seq"
let zseq = Lenfun.make "zseq"
let tri = Lenfun.make "tri"

(* A declaration: per-dimension spec. *)
type dim_spec =
  | Const of int
  | Dep_seq of int (* dep position *)
  | Dep_zseq of int
  | Dep_tri of int

type decl = { specs : dim_spec list; pads : int list; bulk : int }

let counter = ref 0

let print_decl d =
  String.concat "; "
    (List.map2
       (fun s p ->
         (match s with
         | Const n -> Printf.sprintf "C%d" n
         | Dep_seq i -> Printf.sprintf "seq(d%d)" i
         | Dep_zseq i -> Printf.sprintf "zseq(d%d)" i
         | Dep_tri i -> Printf.sprintf "tri(d%d)" i)
         ^ Printf.sprintf "~%d" p)
       d.specs d.pads)
  ^ Printf.sprintf " bulk %d" d.bulk

(* Generate a legal declaration: dim 0 constant; a ragged dim depends on an
   earlier dim; tri-deps may target ragged dims (nested raggedness) but only
   one level deep (a tri dep's target must not itself be tri-dependent). *)
let decl_gen =
  let open QCheck.Gen in
  let* rank = int_range 1 4 in
  let* consts = list_repeat rank (int_range 1 5) in
  let consts = Array.of_list consts in
  let rec build i acc =
    if i = rank then return (List.rev acc)
    else
      let earlier = List.rev acc in
      let can_dep =
        List.mapi
          (fun j s ->
            match s with
            | Const _ -> Some (oneofl [ Dep_seq j; Dep_zseq j ])
            | Dep_seq _ | Dep_zseq _ -> Some (return (Dep_tri j)) (* one nesting level *)
            | Dep_tri _ -> None)
          earlier
        |> List.filter_map Fun.id
      in
      let choices =
        return (Const consts.(i))
        :: (if i > 0 && can_dep <> [] then [ oneof can_dep ] else [])
      in
      let* s = oneof choices in
      build (i + 1) (s :: acc)
  in
  let* specs = build 0 [] in
  let* pads = list_repeat rank (oneofl [ 1; 1; 2; 3 ]) in
  let* bulk = oneofl [ 1; 1; 2; 4 ] in
  return { specs; pads; bulk }

let tensor_of_decl (d : decl) : Tensor.t =
  incr counter;
  let dims = List.map (fun _ -> Dim.make "d") d.specs in
  let dim_arr = Array.of_list dims in
  let extents =
    List.map
      (function
        | Const n -> Shape.fixed n
        | Dep_seq j ->
            (* seq is only defined for indices < 4 (the lens array); cap the
               dependee's extent accordingly by using seq mod — instead we
               require the dependee's const extent <= 4, enforced below *)
            Shape.ragged ~dep:dim_arr.(j) ~fn:seq
        | Dep_zseq j -> Shape.ragged ~dep:dim_arr.(j) ~fn:zseq
        | Dep_tri j -> Shape.ragged ~dep:dim_arr.(j) ~fn:tri)
      d.specs
  in
  let t = Tensor.create ~name:(Printf.sprintf "FZ%d" !counter) ~dims ~extents in
  List.iteri (fun i p -> if p > 1 then Tensor.pad_dimension t (List.nth dims i) p) d.pads;
  Tensor.set_bulk_pad t d.bulk;
  t

(* seq and zseq are arrays of length 4: a target with const extent > 4 would
   index out of range.  Clamp the declaration instead of rejecting. *)
let legalise (d : decl) : decl =
  let arr = Array.of_list d.specs in
  Array.iteri
    (fun i s ->
      match s with
      | Dep_seq j | Dep_zseq j | Dep_tri j -> (
          ignore i;
          match arr.(j) with
          | Const n when n > Array.length lens -> arr.(j) <- Const (Array.length lens)
          | _ -> ())
      | Const _ -> ())
    arr;
  { d with specs = Array.to_list arr }

let check_decl d =
  let d = legalise d in
  try
    let t = tensor_of_decl d in
    let r = Ragged.alloc t lenv in
    let size = Runtime.Buffer.length r.Ragged.buf in
    let seen = Hashtbl.create 97 in
    let ok = ref true in
    Ragged.iter_indices r (fun idx ->
        let off = Ragged.offset r idx in
        if off < 0 || off >= size then ok := false;
        if Hashtbl.mem seen off then ok := false;
        Hashtbl.add seen off ());
    (* also: no padding means size = #indices *)
    (if List.for_all (fun p -> p = 1) d.pads && d.bulk = 1 then
       let count = Hashtbl.length seen in
       if count <> size then ok := false);
    !ok
  with
  | Storage.Unsupported _ | Invalid_argument _ ->
      (* declarations outside the supported fragment must be REJECTED, not
         silently mis-lowered; rejection counts as a pass *)
      true

let prop_storage_layouts =
  QCheck.Test.make ~count:300 ~name:"random declarations lay out injectively"
    (QCheck.make ~print:print_decl decl_gen)
    check_decl

(* symbolic offsets = runtime offsets for the random declarations *)
let eval_offset (t : Tensor.t) idx =
  let off, defs = Storage.lower t (List.map Ir.Expr.int idx) in
  let built = Prelude.build defs lenv in
  let env = Runtime.Cost_model.env_create () in
  List.iter
    (fun (name, f) ->
      Runtime.Cost_model.bind_ufun env name (function [ i ] -> f i | _ -> assert false))
    lenv;
  List.iter
    (fun (name, v) ->
      match v with
      | Prelude.Scalar n -> Runtime.Cost_model.bind_ufun env name (fun _ -> n)
      | Prelude.Table a ->
          Runtime.Cost_model.bind_ufun env name (function [ i ] -> a.(i) | _ -> assert false))
    built.Prelude.tables;
  Runtime.Cost_model.eval_int env off

(* symbolic offsets = per-element runtime offsets = walked offsets *)
let prop_symbolic_matches_runtime =
  QCheck.Test.make ~count:150 ~name:"symbolic offsets = runtime layout"
    (QCheck.make ~print:print_decl decl_gen)
    (fun d ->
      let d = legalise d in
      try
        let t = tensor_of_decl d in
        let r = Ragged.alloc t lenv in
        let ok = ref true in
        Ragged.iter_offsets r (fun idx off ->
            if eval_offset t idx <> off || Ragged.offset r idx <> off then ok := false);
        !ok
      with Storage.Unsupported _ | Invalid_argument _ -> true)

(* Reference enumeration, independent of the walk: every valid index in
   row-major order, each extent evaluated from its dependee's value. *)
let reference_indices (t : Tensor.t) =
  let exts = Array.of_list t.Tensor.extents in
  let n = Array.length exts in
  let out = ref [] in
  let rec go i idx =
    if i = n then out := List.rev idx :: !out
    else
      let dep_value =
        match Shape.dependence exts.(i) with
        | None -> 0
        | Some dep -> List.nth (List.rev idx) (Tensor.dim_pos t dep)
      in
      for v = 0 to Shape.eval exts.(i) ~lenv ~dep_value - 1 do
        go (i + 1) (v :: idx)
      done
  in
  go 0 [];
  List.rev !out

let rejects f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let bits a = Array.map Int64.bits_of_float a
let value_of idx = float_of_int (Hashtbl.hash idx land 0xFFFF) /. 7.0

(* The walk against the per-element reference, bitwise: the index
   sequence and offsets, [fill] (values and call order), [unpack] and
   [pack] — and a declaration [offset] rejects must be rejected by the
   walk too, never silently laid out. *)
let check_walk d =
  let d = legalise d in
  match Ragged.alloc (tensor_of_decl d) lenv with
  | exception Invalid_argument _ -> true
  | r -> (
      let t = r.Ragged.tensor in
      let fresh () = Ragged.alloc t lenv in
      let expected = reference_indices t in
      let walked () =
        let acc = ref [] in
        Ragged.iter_offsets r (fun idx off -> acc := (idx, off) :: !acc);
        List.rev !acc
      in
      match List.map (fun idx -> (idx, Ragged.offset r idx)) expected with
      | exception Invalid_argument _ ->
          rejects walked
          && rejects (fun () -> Ragged.fill (fresh ()) value_of)
          && rejects (fun () -> Ragged.unpack (fresh ()))
          && rejects (fun () ->
                 let rp = fresh () in
                 match Ragged.dense_shape rp with
                 | shape -> Ragged.pack rp (Array.make (List.fold_left ( * ) 1 shape) 1.0)
                 | exception Invalid_argument _ -> invalid_arg "no dense shape")
      | reference -> (
          match walked () with
          | exception Invalid_argument _ ->
              (* only a walk with nothing to lay out may reject early *)
              expected = []
          | w ->
              let indices_ok = w = reference in
              let sequence_ok =
                let acc = ref [] in
                Ragged.iter_indices r (fun idx -> acc := idx :: !acc);
                List.rev !acc = expected
              in
              let fill_ok =
                let rf = fresh () and rs = fresh () in
                let calls = ref [] in
                Ragged.fill rf (fun idx ->
                    calls := idx :: !calls;
                    value_of idx);
                List.iter (fun idx -> Ragged.set rs idx (value_of idx)) expected;
                List.rev !calls = expected
                && bits (Runtime.Buffer.floats rf.Ragged.buf)
                   = bits (Runtime.Buffer.floats rs.Ragged.buf)
              in
              let dense_ok =
                match Ragged.dense_shape r with
                | exception Invalid_argument _ ->
                    rejects (fun () -> Ragged.unpack r)
                    && rejects (fun () -> Ragged.pack (fresh ()) [||])
                | shape ->
                    let total = List.fold_left ( * ) 1 shape in
                    let flat idx = List.fold_left2 (fun acc i s -> (acc * s) + i) 0 idx shape in
                    (* unpack: per-element gets into a zeroed dense array *)
                    let src = fresh () in
                    List.iter (fun idx -> Ragged.set src idx (value_of idx)) expected;
                    let dense = Array.make total 0.0 in
                    List.iter (fun idx -> dense.(flat idx) <- Ragged.get src idx) expected;
                    let unpack_ok = bits (Ragged.unpack src) = bits dense in
                    (* pack: per-element sets from a dense array *)
                    let dense = Array.init total (fun k -> float_of_int k +. 0.5) in
                    let rp = fresh () and rs = fresh () in
                    Ragged.pack rp dense;
                    List.iter (fun idx -> Ragged.set rs idx dense.(flat idx)) expected;
                    let pack_ok =
                      bits (Runtime.Buffer.floats rp.Ragged.buf)
                      = bits (Runtime.Buffer.floats rs.Ragged.buf)
                    in
                    unpack_ok && pack_ok
              in
              indices_ok && sequence_ok && fill_ok && dense_ok))

let prop_walk_matches_reference =
  QCheck.Test.make ~count:300 ~name:"offset walk = per-element reference"
    (QCheck.make ~print:print_decl decl_gen)
    check_walk

(* A declaration [offset] rejects (dim 1's prefix sum needs dim 0's value
   to size dim 2): the walk and every bulk traversal must reject it. *)
let test_walk_rejects () =
  let d = { specs = [ Const 2; Const 3; Dep_seq 0; Dep_seq 1 ]; pads = [ 1; 1; 1; 1 ]; bulk = 1 } in
  let r = Ragged.alloc (tensor_of_decl d) lenv in
  Alcotest.(check bool) "offset rejects" true (rejects (fun () -> Ragged.offset r [ 0; 0; 0; 0 ]));
  Alcotest.(check bool) "walk rejects" true (check_walk d);
  Alcotest.(check bool)
    "iter_indices rejects" true
    (rejects (fun () -> Ragged.iter_indices r ignore))

let () =
  Alcotest.run "storage-fuzz"
    [
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_storage_layouts; prop_symbolic_matches_runtime; prop_walk_matches_reference ] );
      ("walk", [ Alcotest.test_case "rejected declaration" `Quick test_walk_rejects ]);
    ]

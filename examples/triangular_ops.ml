(* Triangular matrices as ragged tensors (§7.1, §D.3, §D.4).

   A lower-triangular matrix is a ragged tensor whose row slices have
   lengths r+1.  This example:
     1. multiplies a triangular matrix by a dense one (trmm) with
        operation splitting and thread remapping, and verifies the result;
     2. shows the packed triangular storage layout and its auxiliary
        prefix-sum structure;
     3. runs masked (decoder-style) attention with triangular attention
        matrices and compares triangular vs square compute in the machine
        model (Fig. 18).

   Run with:  dune exec examples/triangular_ops.exe *)

open Cora

let () =
  (* ---- trmm ---- *)
  let n = 8 in
  let t = Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Split_balanced ~n () in
  Printf.printf "trmm lowered into %d kernels (tiles + tail from operation splitting):\n"
    (List.length t.Matmul.Trmm.kernels);
  List.iter
    (fun (k : Lower.kernel) -> Printf.printf "  %s\n" k.Lower.kname)
    t.Matmul.Trmm.kernels;
  let ra, rb, rc =
    Matmul.Trmm.run t
      ~fill_a:(fun idx -> float_of_int ((List.nth idx 0 * 2) + List.nth idx 1 + 1))
      ~fill_b:(fun idx -> float_of_int (List.nth idx 0 + List.nth idx 1 + 1))
  in
  let err = ref 0.0 in
  for r = 0 to n - 1 do
    for j = 0 to n - 1 do
      let expect = ref 0.0 in
      for k = 0 to r do
        expect := !expect +. (Ragged.get ra [ r; k ] *. Ragged.get rb [ k; j ])
      done;
      err := Float.max !err (Float.abs (!expect -. Ragged.get rc [ r; j ]))
    done
  done;
  Printf.printf "trmm max error vs reference: %.2e\n\n" !err;
  if !err > 1e-5 then (prerr_endline "trmm: max error exceeds 1e-5"; exit 1);

  (* ---- packed triangular storage ---- *)
  let e = Matmul.Trmm.build_elementwise ~op:`Add ~n:5 () in
  let r = Ragged.alloc e.Matmul.Trmm.ea e.Matmul.Trmm.elenv in
  print_endline "packed triangular offsets (row-major, slices of length r+1):";
  for row = 0 to 4 do
    Printf.printf "  row %d:" row;
    for c = 0 to row do
      Printf.printf " %2d" (Ragged.offset r [ row; c ])
    done;
    print_newline ()
  done;

  (* ---- masked SDPA (Fig. 18) ---- *)
  let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.race ~batch:64 ~seed:1 in
  let cfg = Transformer.Config.base ~lens in
  let time v =
    Transformer.Masked.time ~device:Machine.Device.v100 (Transformer.Masked.build ~variant:v cfg)
    /. 1e6
  in
  let nopad = time Transformer.Masked.No_pad and pad = time Transformer.Masked.Pad in
  Printf.printf
    "\nmasked SDPA, RACE batch 64 (simulated):\n  triangular storage+compute: %.2f ms\n  square storage, masked:     %.2f ms\n  exploiting the mask: %.2fx faster (paper reports 1.56x at batch 128 for RACE)\n"
    nopad pad (pad /. nopad)

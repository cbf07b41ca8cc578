(* Variable-sized batched gemm (§7.1, Fig. 8).

   A batch of matrix multiplications where every instance has its own
   dimensions — the motivating workload for ragged loops over fully padded
   storage.  Shows the generated kernel, validates the numerics, and
   reproduces the CoRa vs hand-optimized vs fully-padded comparison in the
   machine model.

   Run with:  dune exec examples/vgemm_batching.exe *)

let () =
  (* ---- real execution on a small workload ---- *)
  let w =
    {
      Workloads.Vgemm_workload.batch = 3;
      ms = [| 4; 8; 2 |];
      ns = [| 6; 2; 4 |];
      ks = [| 2; 4; 6 |];
    }
  in
  let t = Matmul.Vgemm.build ~tile:2 ~target:Matmul.Vgemm.Gpu w in
  print_endline "vgemm kernel (ragged loops over padded storage):";
  print_endline (Ir.Printer.stmt_to_string t.Matmul.Vgemm.kernel.Cora.Lower.body);
  let ra, rb, rc =
    Matmul.Vgemm.run t
      ~fill_a:(fun idx -> float_of_int (List.nth idx 0 + List.nth idx 1 + List.nth idx 2))
      ~fill_b:(fun idx -> float_of_int ((2 * List.nth idx 0) + List.nth idx 1 + List.nth idx 2))
  in
  let err = ref 0.0 in
  for b = 0 to w.Workloads.Vgemm_workload.batch - 1 do
    for i = 0 to w.Workloads.Vgemm_workload.ms.(b) - 1 do
      for j = 0 to w.Workloads.Vgemm_workload.ns.(b) - 1 do
        let expect = ref 0.0 in
        for k = 0 to w.Workloads.Vgemm_workload.ks.(b) - 1 do
          expect :=
            !expect +. (Cora.Ragged.get ra [ b; i; k ] *. Cora.Ragged.get rb [ b; k; j ])
        done;
        err := Float.max !err (Float.abs (!expect -. Cora.Ragged.get rc [ b; i; j ]))
      done
    done
  done;
  Printf.printf "\nvgemm max error vs reference: %.2e\n" !err;
  if !err > 1e-5 then (prerr_endline "vgemm: max error exceeds 1e-5"; exit 1);

  (* ---- paper-scale comparison (Fig. 8) ---- *)
  print_endline "\nsimulated vgemm on the V100 model (dims: random multiples of 128 in [512,1408]):";
  List.iter
    (fun batch ->
      let w = Workloads.Vgemm_workload.generate ~batch ~seed:1 in
      let cora =
        Matmul.Vgemm.time ~device:Machine.Device.v100
          (Matmul.Vgemm.build ~target:Matmul.Vgemm.Gpu w)
      in
      let hand =
        Baselines.Analytic.pipeline_ns Machine.Device.v100
          (Baselines.Vendor.hand_vgemm ~eff:Baselines.Vendor.li_vgemm_eff ~label:"hand" w)
      in
      let padded =
        Baselines.Analytic.pipeline_ns Machine.Device.v100
          (Baselines.Vendor.padded_batched_gemm ~eff:Baselines.Vendor.cublas_batched_eff
             ~label:"padded" w)
      in
      Printf.printf
        "  batch %3d:  CoRa %6.2f ms   hand-optimized %6.2f ms   fully padded %6.2f ms (%.1f%% wasted flops)\n"
        batch (cora /. 1e6) (hand /. 1e6) (padded /. 1e6)
        (100.0
        *. (Workloads.Vgemm_workload.padded_flops w -. Workloads.Vgemm_workload.ragged_flops w)
        /. Workloads.Vgemm_workload.padded_flops w))
    [ 16; 32; 64; 128 ]

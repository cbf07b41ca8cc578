(* A full transformer encoder layer on ragged mini-batches (§7.2).

   Builds the nine CoRa kernels of Fig. 3 for a small model, runs them on
   real data through the reference interpreter, checks the result against
   the dense per-sequence reference, and then simulates the paper-scale
   configuration on the V100 machine model against the framework
   baselines.

   Run with:  dune exec examples/transformer_encoder.exe *)

open Cora
open Transformer

let () =
  (* ---- 1. a small model executed for real ---- *)
  let lens = [| 11; 7; 4; 2 |] in
  let cfg = Config.tiny ~lens in
  let lenv = Config.lenv cfg in
  let built = Builder.build ~target:Builder.Gpu cfg in
  let t = built.Builder.tensors in
  Printf.printf "encoder kernels (%d, as in Fig. 3):\n" (List.length (Builder.kernels built));
  List.iter
    (fun (k : Lower.kernel) ->
      Printf.printf "  %-12s  aux structures: %s\n" k.Lower.kname
        (String.concat ", " (List.map (fun (d : Prelude.def) -> d.Prelude.name) k.Lower.aux)))
    (Builder.kernels built);

  let w = Reference.random_weights cfg ~seed:1 in
  let fill_dense (tensor : Tensor.t) a =
    let r = Ragged.alloc tensor lenv in
    Array.blit a 0 (Runtime.Buffer.floats r.Ragged.buf) 0 (Array.length a);
    r
  in
  let weights =
    [
      fill_dense t.Builder.wqkv w.Reference.wqkv; fill_dense t.Builder.bqkv w.Reference.bqkv;
      fill_dense t.Builder.w2 w.Reference.w2; fill_dense t.Builder.b2 w.Reference.b2;
      fill_dense t.Builder.wf1 w.Reference.wf1; fill_dense t.Builder.bf1 w.Reference.bf1;
      fill_dense t.Builder.wf2 w.Reference.wf2; fill_dense t.Builder.bf2 w.Reference.bf2;
    ]
  in
  let data =
    List.map (fun tensor -> Ragged.alloc tensor lenv)
      [ t.Builder.in_t; t.Builder.qkv; t.Builder.scores; t.Builder.probs; t.Builder.attn;
        t.Builder.p2; t.Builder.ln1; t.Builder.f1; t.Builder.out ]
  in
  let rin = List.hd data and rout = List.nth data 8 in
  Ragged.fill rin (fun idx ->
      sin (float_of_int ((31 * List.nth idx 0) + (7 * List.nth idx 1) + List.nth idx 2)) *. 0.5);
  let _ = Exec.run_ragged ~lenv ~tensors:(weights @ data) (Builder.kernels built) in

  (* verify against the dense per-sequence reference *)
  let h = cfg.Config.hidden in
  let max_err = ref 0.0 in
  Array.iteri
    (fun b len ->
      let x = Array.make (len * h) 0.0 in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          x.((l * h) + j) <- Ragged.get rin [ b; l; j ]
        done
      done;
      let expect = Reference.encoder cfg w x ~len in
      for l = 0 to len - 1 do
        for j = 0 to h - 1 do
          max_err :=
            Float.max !max_err
              (Float.abs (Ragged.get rout [ b; l; j ] -. expect.((l * h) + j)))
        done
      done)
    lens;
  Printf.printf "\nmax |CoRa - dense reference| over all outputs: %.2e\n" !max_err;
  if !max_err > 1e-5 then (prerr_endline "encoder: max error exceeds 1e-5"; exit 1);

  (* ---- 2. paper-scale simulation on the V100 model ---- *)
  print_endline "\nsimulated encoder latency, RACE dataset (paper Table 4 row):";
  List.iter
    (fun bs ->
      let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.race ~batch:bs ~seed:1 in
      let cfg = Config.base ~lens in
      let built = Builder.build ~target:Builder.Gpu cfg in
      let p =
        Machine.Launch.pipeline ~device:Machine.Device.v100 ~lenv:(Config.lenv cfg)
          (Builder.launches built)
      in
      let s =
        Baselines.Frameworks.of_config ~batch:bs ~lens ~hidden:512 ~heads:8 ~head_size:64
          ~ff:2048
      in
      let pt =
        Baselines.Analytic.pipeline_ns Machine.Device.v100
          (Baselines.Frameworks.pytorch_encoder s)
      in
      Printf.printf "  batch %3d:  CoRa %6.2f ms   PyTorch %6.2f ms   (%.2fx)\n" bs
        (Machine.Launch.total_ns p /. 1e6) (pt /. 1e6)
        (pt /. Machine.Launch.total_ns p))
    [ 32; 64; 128 ]

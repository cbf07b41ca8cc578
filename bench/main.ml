(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7, §D).  Run with no arguments for everything, or with a
   list of experiment ids: fig2 fig8 fig9 table4 fig10 fig11 table9 fig24
   fig25 table5 fig18 fig13 fig20 fig21 table6 table7 fig19 memory fig22
   fig23 autotune engine bechamel.

   Output channels: human-readable tables go to stderr and to
   results/<experiment>.txt; stdout carries one machine-readable JSON line
   per experiment (also written to results/BENCH_<experiment>.json) with
   the metrics-registry snapshot accumulated during that experiment.

   Times come from the machine simulator over the real compiled kernels
   (see DESIGN.md for the substitution rationale); EXPERIMENTS.md records
   the paper-vs-measured comparison. *)

let gpu = Machine.Device.v100
let intel = Machine.Device.intel_cpu
let arm = Machine.Device.arm_cpu
let seed = 1
let batches = [ 32; 64; 128 ]

let datasets = Workloads.Datasets.all

let line fmt = Printf.ksprintf (fun s -> Chart.out (s ^ "\n")) fmt
let header title = line "\n================ %s ================" title

let shape_of lens =
  Baselines.Frameworks.of_config ~batch:(Array.length lens) ~lens ~hidden:512 ~heads:8
    ~head_size:64 ~ff:2048

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Fig. 2 — wasted computation due to padding (padded / unpadded FLOPs)";
  line "%-9s %s" "dataset" (String.concat "" (List.map (Printf.sprintf "bs%-4d  ") [ 8; 16; 32; 64; 128 ]));
  List.iter
    (fun d ->
      let ratios =
        List.map
          (fun bs ->
            let lens = Workloads.Datasets.sample d ~batch:bs ~seed in
            Analysis.Flops.padding_waste_ratio Analysis.Flops.base lens)
          [ 8; 16; 32; 64; 128 ]
      in
      line "%-9s %s" d.Workloads.Datasets.name
        (String.concat "" (List.map (Printf.sprintf "%5.2fx  ") ratios)))
    datasets

(* ------------------------------------------------------------------ *)

let fig8 () =
  header "Fig. 8 — vgemm (normalized to Ragged-HandOptimized; lower is better)";
  List.iter
    (fun (dev, target, hand_eff, hand_name, padded_eff) ->
      line "-- %s --" dev.Machine.Device.name;
      line "%-6s %-22s %-22s %-22s" "batch" hand_name "CoRA" "Padded-gemm";
      List.iter
        (fun batch ->
          let w = Workloads.Vgemm_workload.generate ~batch ~seed in
          let hand =
            Baselines.Analytic.pipeline_ns dev
              (Baselines.Vendor.hand_vgemm ~eff:hand_eff ~label:hand_name w)
          in
          let cora = Matmul.Vgemm.time ~device:dev (Matmul.Vgemm.build ~target w) in
          let padded =
            Baselines.Analytic.pipeline_ns dev
              (Baselines.Vendor.padded_batched_gemm ~eff:padded_eff ~label:"padded" w)
          in
          line "%-6d %6.2f ms (1.00x)      %6.2f ms (%.2fx)      %6.2f ms (%.2fx)" batch
            (hand /. 1e6) (cora /. 1e6) (cora /. hand) (padded /. 1e6) (padded /. hand))
        [ 16; 32; 64; 128 ])
    [
      (gpu, Matmul.Vgemm.Gpu, Baselines.Vendor.li_vgemm_eff, "Ragged-HandOpt", Baselines.Vendor.cublas_batched_eff);
      (intel, Matmul.Vgemm.Cpu, Baselines.Vendor.mkl_vgemm_eff, "MKL-vgemm", Baselines.Vendor.mkl_gemm_eff);
    ]

(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Fig. 9 — trmm on the GPU (ms)";
  line "%-6s %-12s %-12s %-14s %-14s %-14s" "N" "cuBLAS-trmm" "cuBLAS-gemm" "CoRA-unsplit" "CoRA-split" "CoRA-balanced";
  List.iter
    (fun n ->
      let t v = Matmul.Trmm.time ~device:gpu (Matmul.Trmm.build ~variant:v ~n ()) /. 1e6 in
      let trmm = Baselines.Analytic.pipeline_ns gpu (Baselines.Vendor.cublas_trmm ~n) /. 1e6 in
      let gemm = Baselines.Analytic.pipeline_ns gpu (Baselines.Vendor.cublas_dense_gemm ~n) /. 1e6 in
      line "%-6d %-12.3f %-12.3f %-14.3f %-14.3f %-14.3f" n trmm gemm
        (t Matmul.Trmm.Unsplit_unbalanced) (t Matmul.Trmm.Split_unbalanced)
        (t Matmul.Trmm.Split_balanced))
    [ 512; 1024; 2048; 4096; 8192 ];
  let n = 2048 in
  let t v = Matmul.Trmm.time ~device:gpu (Matmul.Trmm.build ~variant:v ~n ()) /. 1e6 in
  line "at N=%d (ms):" n;
  Chart.bars
    [
      ("cuBLAS-trmm", Baselines.Analytic.pipeline_ns gpu (Baselines.Vendor.cublas_trmm ~n) /. 1e6);
      ("cuBLAS-gemm", Baselines.Analytic.pipeline_ns gpu (Baselines.Vendor.cublas_dense_gemm ~n) /. 1e6);
      ("CoRA-unsplit", t Matmul.Trmm.Unsplit_unbalanced);
      ("CoRA-split", t Matmul.Trmm.Split_unbalanced);
      ("CoRA-balanced", t Matmul.Trmm.Split_balanced);
    ]

(* ------------------------------------------------------------------ *)

let cora_encoder_ms ?(target = Transformer.Builder.Gpu) ~device lens =
  let cfg = Transformer.Config.base ~lens in
  let built = Transformer.Builder.build ~target cfg in
  let p =
    Machine.Launch.pipeline ~device ~lenv:(Transformer.Config.lenv cfg)
      (Transformer.Builder.launches built)
  in
  (* per-layer prelude amortised over the 6-layer model (§7.2) *)
  let prelude = (p.Machine.Launch.prelude_host_ns +. p.Machine.Launch.prelude_copy_ns) /. 6.0 in
  (p.Machine.Launch.kernels_ns +. prelude) /. 1e6

let table4_data () =
  List.concat_map
    (fun d ->
      List.map
        (fun bs ->
          let lens = Workloads.Datasets.sample_sorted d ~batch:bs ~seed in
          let s = shape_of lens in
          let pt = Baselines.Analytic.pipeline_ns gpu (Baselines.Frameworks.pytorch_encoder s) /. 1e6 in
          let ft = Baselines.Analytic.pipeline_ns gpu (Baselines.Frameworks.ft_encoder s) /. 1e6 in
          let fte = Baselines.Analytic.pipeline_ns gpu (Baselines.Frameworks.ft_eff_encoder s) /. 1e6 in
          let cora = cora_encoder_ms ~device:gpu lens in
          (d.Workloads.Datasets.name, bs, pt, ft, cora, fte))
        batches)
    datasets

let table4 () =
  header "Table 4 — transformer encoder layer latencies on the GPU (ms)";
  line "%-9s %-6s %-9s %-9s %-9s %-9s" "dataset" "batch" "PyTorch" "FT" "CoRA" "FT-Eff";
  let rows = table4_data () in
  Chart.csv_reset ~name:"table4";
  Chart.csv ~name:"table4"
    ~header:[ "dataset"; "batch"; "pytorch_ms"; "ft_ms"; "cora_ms"; "ft_eff_ms" ]
    (List.map
       (fun (name, bs, pt, ft, cora, fte) ->
         [ name; string_of_int bs; Printf.sprintf "%.3f" pt; Printf.sprintf "%.3f" ft;
           Printf.sprintf "%.3f" cora; Printf.sprintf "%.3f" fte ])
       rows);
  List.iter
    (fun (name, bs, pt, ft, cora, fte) ->
      line "%-9s %-6d %-9.2f %-9.2f %-9.2f %-9.2f" name bs pt ft cora fte)
    rows;
  (* Fig. 10: overall relative execution times *)
  header "Fig. 10 — relative encoder execution times (geomean over datasets, CoRA = 1)";
  line "%-6s %-9s %-9s %-9s %-9s" "batch" "PyTorch" "FT" "CoRA" "FT-Eff";
  List.iter
    (fun bs ->
      let rows_bs = List.filter (fun (_, b, _, _, _, _) -> b = bs) rows in
      let rel f = geomean (List.map (fun (_, _, pt, ft, cora, fte) -> f (pt, ft, cora, fte) /. cora) rows_bs) in
      line "%-6d %-9.2f %-9.2f %-9.2f %-9.2f" bs
        (rel (fun (pt, _, _, _) -> pt))
        (rel (fun (_, ft, _, _) -> ft))
        1.0
        (rel (fun (_, _, _, fte) -> fte)))
    batches;
  let rel sel = geomean (List.map (fun (_, _, pt, ft, cora, fte) -> sel (pt, ft, cora, fte) /. cora) rows) in
  Chart.bars
    [
      ("PyTorch", rel (fun (pt, _, _, _) -> pt));
      ("FT", rel (fun (_, ft, _, _) -> ft));
      ("CoRA", 1.0);
      ("FT-Eff", rel (fun (_, _, _, fte) -> fte));
    ];
  let speedup =
    geomean (List.map (fun (_, _, pt, _, cora, _) -> pt /. cora) rows)
  in
  line "geomean speedup over PyTorch across all datasets/batches: %.2fx (paper: 1.6x)" speedup

(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Fig. 11 — MHA with fused vs unfused padding-change operators (RACE, GPU, ms)";
  line "%-6s %-10s %-10s" "batch" "fused" "unfused";
  List.iter
    (fun bs ->
      let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.race ~batch:bs ~seed in
      let cfg = Transformer.Config.base ~lens in
      let t launches =
        Machine.Launch.total_ns
          (Machine.Launch.pipeline ~device:gpu ~lenv:(Transformer.Config.lenv cfg) launches)
        /. 1e6
      in
      let fused = t (Transformer.Ablation.mha_fused cfg ~target:Transformer.Ablation.Gpu) in
      let unfused, _ = Transformer.Ablation.mha_unfused cfg ~target:Transformer.Ablation.Gpu in
      line "%-6d %-10.2f %-10.2f" bs fused (t unfused))
    batches

(* ------------------------------------------------------------------ *)

let table9 () =
  header "Table 9 / Fig. 12 — encoder breakdown, RACE batch 128 (ms)";
  let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.race ~batch:128 ~seed in
  let cfg = Transformer.Config.base ~lens in
  let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
  let p =
    Machine.Launch.pipeline ~device:gpu ~lenv:(Transformer.Config.lenv cfg)
      (Transformer.Builder.launches built)
  in
  line "-- CoRA kernels --";
  List.iter (fun (l, ns) -> line "  %-24s %7.3f" l (ns /. 1e6)) p.Machine.Launch.per_launch;
  line "  %-24s %7.3f" "total" (Machine.Launch.total_ns p /. 1e6);
  let s = shape_of lens in
  List.iter
    (fun (pl : Baselines.Analytic.pipeline) ->
      line "-- %s kernels --" pl.Baselines.Analytic.label;
      List.iter
        (fun k ->
          line "  %-24s %7.3f" k.Baselines.Analytic.name
            (Baselines.Analytic.kernel_ns gpu k /. 1e6))
        pl.Baselines.Analytic.kernels;
      line "  %-24s %7.3f" "total" (Baselines.Analytic.pipeline_ns gpu pl /. 1e6))
    [ Baselines.Frameworks.ft_encoder s; Baselines.Frameworks.ft_eff_encoder s ]

(* ------------------------------------------------------------------ *)

let fig24 () =
  header "Fig. 24 — encoder breakdown, CoLA batch 32 on the GPU (ms)";
  let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.cola ~batch:32 ~seed in
  let cfg = Transformer.Config.base ~lens in
  let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
  let p =
    Machine.Launch.pipeline ~device:gpu ~lenv:(Transformer.Config.lenv cfg)
      (Transformer.Builder.launches built)
  in
  line "-- CoRA kernels --";
  List.iter (fun (l, ns) -> line "  %-24s %7.4f" l (ns /. 1e6)) p.Machine.Launch.per_launch;
  let s = shape_of lens in
  let pl = Baselines.Frameworks.ft_eff_encoder s in
  line "-- FT-Eff kernels --";
  List.iter
    (fun k ->
      line "  %-24s %7.4f" k.Baselines.Analytic.name (Baselines.Analytic.kernel_ns gpu k /. 1e6))
    pl.Baselines.Analytic.kernels

let fig25 () =
  header "Fig. 25 — MHA breakdown on the ARM CPU (ms)";
  List.iter
    (fun ((d : Workloads.Datasets.t), bs) ->
      line "-- %s, batch %d --" d.Workloads.Datasets.name bs;
      let lens = Workloads.Datasets.sample_sorted d ~batch:bs ~seed in
      let cfg = Transformer.Config.base ~lens in
      let built = Transformer.Builder.build ~target:Transformer.Builder.Cpu cfg in
      let p =
        Machine.Launch.pipeline ~device:arm ~lenv:(Transformer.Config.lenv cfg)
          (Transformer.Builder.mha_launches built)
      in
      line "  CoRA:";
      List.iter (fun (l, ns) -> line "    %-22s %8.2f" l (ns /. 1e6)) p.Machine.Launch.per_launch;
      let s = shape_of lens in
      List.iter
        (fun (pl : Baselines.Analytic.pipeline) ->
          line "  %s:" pl.Baselines.Analytic.label;
          List.iter
            (fun k ->
              line "    %-22s %8.2f" k.Baselines.Analytic.name
                (Baselines.Analytic.kernel_ns arm k /. 1e6))
            pl.Baselines.Analytic.kernels)
        [
          Baselines.Frameworks.pytorch_mha ~effs:Baselines.Frameworks.pytorch_arm_effs s;
          Baselines.Frameworks.tf_mha s;
        ])
    [ (Workloads.Datasets.mnli, 128); (Workloads.Datasets.race, 128); (Workloads.Datasets.wiki128, 32) ]

let table5 () =
  header "Table 5 — MHA latencies on the ARM CPU (ms)";
  line "%-9s %-6s %-9s %-9s %-9s" "dataset" "batch" "PyTorch" "TF" "CoRA";
  Chart.csv_reset ~name:"table5";
  let ratios_pt = ref [] and ratios_tf = ref [] in
  List.iter
    (fun d ->
      List.iter
        (fun bs ->
          let lens = Workloads.Datasets.sample_sorted d ~batch:bs ~seed in
          let cfg = Transformer.Config.base ~lens in
          let built = Transformer.Builder.build ~target:Transformer.Builder.Cpu cfg in
          let p =
            Machine.Launch.pipeline ~device:arm ~lenv:(Transformer.Config.lenv cfg)
              (Transformer.Builder.mha_launches built)
          in
          let cora = Machine.Launch.total_ns p /. 1e6 in
          let s = shape_of lens in
          let pt =
            Baselines.Analytic.pipeline_ns arm
              (Baselines.Frameworks.pytorch_mha ~effs:Baselines.Frameworks.pytorch_arm_effs s)
            /. 1e6
          in
          let tf = Baselines.Analytic.pipeline_ns arm (Baselines.Frameworks.tf_mha s) /. 1e6 in
          ratios_pt := (pt /. cora) :: !ratios_pt;
          ratios_tf := (tf /. cora) :: !ratios_tf;
          Chart.csv ~name:"table5" ~header:[ "dataset"; "batch"; "pytorch_ms"; "tf_ms"; "cora_ms" ]
            [ [ d.Workloads.Datasets.name; string_of_int bs; Printf.sprintf "%.2f" pt;
                Printf.sprintf "%.2f" tf; Printf.sprintf "%.2f" cora ] ];
          line "%-9s %-6d %-9.1f %-9.1f %-9.1f" d.Workloads.Datasets.name bs pt tf cora)
        batches)
    datasets;
  line "overall speedup: %.2fx over PyTorch (paper 1.86x), %.2fx over TensorFlow (paper 1.89x)"
    (geomean !ratios_pt) (geomean !ratios_tf)

(* ------------------------------------------------------------------ *)

let fig18 () =
  header "Fig. 18 — masked SDPA (ms): CoRA-NoPad / CoRA-Pad / PyTorch";
  line "%-9s %-6s %-11s %-11s %-11s" "dataset" "batch" "CoRA-NoPad" "CoRA-Pad" "PyTorch";
  let race_ratio = ref 0.0 and mnli_ratio = ref 0.0 in
  List.iter
    (fun (d : Workloads.Datasets.t) ->
      List.iter
        (fun bs ->
          let lens = Workloads.Datasets.sample_sorted d ~batch:bs ~seed in
          let cfg = Transformer.Config.base ~lens in
          let nopad =
            Transformer.Masked.time ~device:gpu
              (Transformer.Masked.build ~variant:Transformer.Masked.No_pad cfg)
            /. 1e6
          in
          let pad =
            Transformer.Masked.time ~device:gpu
              (Transformer.Masked.build ~variant:Transformer.Masked.Pad cfg)
            /. 1e6
          in
          let pt =
            Baselines.Analytic.pipeline_ns gpu
              (Baselines.Frameworks.pytorch_masked_sdpa (shape_of lens))
            /. 1e6
          in
          if bs = 128 && d.Workloads.Datasets.name = "RACE" then race_ratio := pad /. nopad;
          if bs = 128 && d.Workloads.Datasets.name = "MNLI" then mnli_ratio := pad /. nopad;
          line "%-9s %-6d %-11.3f %-11.3f %-11.3f" d.Workloads.Datasets.name bs nopad pad pt)
        batches)
    [ Workloads.Datasets.race; Workloads.Datasets.squad; Workloads.Datasets.mnli; Workloads.Datasets.cola ];
  line "masking exploit at batch 128: RACE %.2fx (paper 1.56x), MNLI %.2fx (paper 1.29x)"
    !race_ratio !mnli_ratio

(* ------------------------------------------------------------------ *)

let opsplit_table ~title ~(variants : (string * (Transformer.Config.t -> Transformer.Builder.tensors -> Transformer.Ablation.target -> Machine.Launch.t list)) list) () =
  header title;
  List.iter
    (fun (dev, target, btarget, label) ->
      line "-- %s --" label;
      line "%-6s %s" "batch"
        (String.concat " " (List.map (fun (n, _) -> Printf.sprintf "%-16s" n) variants));
      List.iter
        (fun bs ->
          let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.mnli ~batch:bs ~seed in
          let cfg = Transformer.Config.base ~lens in
          let built = Transformer.Builder.build ~target:btarget cfg in
          let times =
            List.map
              (fun (_, mk) ->
                let launches = mk cfg built.Transformer.Builder.tensors target in
                Machine.Launch.total_ns
                  (Machine.Launch.pipeline ~device:dev ~lenv:(Transformer.Config.lenv cfg)
                     launches)
                /. 1e6)
              variants
          in
          let base = List.hd times in
          line "%-6d %s" bs
            (String.concat " "
               (List.map (fun t -> Printf.sprintf "%6.3f ms (%4.2f) " t (t /. base)) times)))
        batches)
    [
      (gpu, Transformer.Ablation.Gpu, Transformer.Builder.Gpu, "Nvidia GPU");
      (arm, Transformer.Ablation.Cpu, Transformer.Builder.Cpu, "ARM CPU");
    ]

let fig13 () =
  opsplit_table
    ~title:"Fig. 13 — operation splitting & hfusion on AttnV (MNLI; relative to NoSplit)"
    ~variants:
      (List.map
         (fun v ->
           ( Transformer.Ablation.split_variant_name v,
             fun cfg tensors target ->
               Transformer.Ablation.attnv_variant cfg ~tensors ~target ~variant:v ~tile:64 ))
         [ Transformer.Ablation.No_split; Transformer.Ablation.Split; Transformer.Ablation.Split_hfused ])
    ()

let fig20 () =
  opsplit_table
    ~title:"Fig. 20 — operation splitting & hfusion on QK^T, outer vloop (MNLI)"
    ~variants:
      (List.map
         (fun v ->
           ( Transformer.Ablation.qkt_variant_name v,
             fun cfg tensors target ->
               Transformer.Ablation.qkt_variant cfg ~tensors ~target ~variant:v ~tile:64 ))
         [ Transformer.Ablation.Qkt_no_split; Transformer.Ablation.Qkt_split1_hfused ])
    ()

let fig21 () =
  opsplit_table
    ~title:"Fig. 21 — QK^T splitting on one vs both vloops (MNLI)"
    ~variants:
      (List.map
         (fun v ->
           ( Transformer.Ablation.qkt_variant_name v,
             fun cfg tensors target ->
               Transformer.Ablation.qkt_variant cfg ~tensors ~target ~variant:v ~tile:64 ))
         [
           Transformer.Ablation.Qkt_no_split;
           Transformer.Ablation.Qkt_split1_hfused;
           Transformer.Ablation.Qkt_split2_hfused;
         ])
    ()

(* ------------------------------------------------------------------ *)

let table6 () =
  header "Table 6 — triangular ops: Taco (CSR / BCSR) vs CoRA (ms, with slowdowns)";
  line "%-7s %-7s %-10s %-20s %-20s" "op" "N" "CoRA" "Taco-CSR" "Taco-BCSR";
  Chart.csv_reset ~name:"table6";
  let csvrow op n cora csr bcsr =
    Chart.csv ~name:"table6" ~header:[ "op"; "n"; "cora_ms"; "taco_csr_ms"; "taco_bcsr_ms" ]
      [ [ op; string_of_int n; Printf.sprintf "%.3f" cora; Printf.sprintf "%.3f" csr; bcsr ] ]
  in
  let dims = [ 128; 512; 2048; 8192 ] in
  List.iter
    (fun n ->
      let cora = Matmul.Trmm.time ~device:gpu (Matmul.Trmm.build ~variant:Matmul.Trmm.Split_balanced ~n ()) /. 1e6 in
      let csr = Baselines.Taco.trmm_csr_ns gpu ~n /. 1e6 in
      let bcsr = Baselines.Taco.trmm_bcsr_ns gpu ~n ~block:32 /. 1e6 in
      csvrow "trmm" n cora csr (Printf.sprintf "%.3f" bcsr);
      line "%-7s %-7d %-10.3f %8.3f (%7.2fx) %8.3f (%7.2fx)" "trmm" n cora csr (csr /. cora)
        bcsr (bcsr /. cora))
    dims;
  List.iter
    (fun n ->
      let e = Matmul.Trmm.build_elementwise ~op:`Add ~n () in
      let cora = Matmul.Trmm.elementwise_time ~device:gpu e /. 1e6 in
      let csr = Baselines.Taco.elementwise_csr_ns gpu ~n /. 1e6 in
      csvrow "tradd" n cora csr "-";
      line "%-7s %-7d %-10.3f %8.3f (%7.2fx) %20s" "tradd" n cora csr (csr /. cora) "-")
    dims;
  List.iter
    (fun n ->
      let e = Matmul.Trmm.build_elementwise ~op:`Mul ~n () in
      let cora = Matmul.Trmm.elementwise_time ~device:gpu e /. 1e6 in
      let csr = Baselines.Taco.elementwise_csr_ns gpu ~n /. 1e6 in
      let bcsr = Baselines.Taco.trmul_bcsr_ns gpu ~n ~block:32 /. 1e6 in
      csvrow "trmul" n cora csr (Printf.sprintf "%.3f" bcsr);
      line "%-7s %-7d %-10.3f %8.3f (%7.2fx) %8.3f (%7.2fx)" "trmul" n cora csr (csr /. cora)
        bcsr (bcsr /. cora))
    dims

(* ------------------------------------------------------------------ *)

let table7 () =
  header "Tables 7-8 (and the §7.4 table) — prelude overheads for a 6-layer encoder";
  let variants = [ ("CoRA-Redundant", false); ("CoRA-Optimized", true) ] in
  List.iter
    (fun (vname, dedup) ->
      line "-- %s --" vname;
      line "%-12s | %-24s | %-24s | %-24s | %-9s" "config" "Sparse(CSF) time / mem"
        "CoRA storage time / mem" "CoRA loop-fusion t / m" "copy time";
      List.iter
        (fun ((d : Workloads.Datasets.t), bs) ->
          let lens = Workloads.Datasets.sample_sorted d ~batch:bs ~seed in
          let cfg = Transformer.Config.base ~lens in
          let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
          let defs =
            List.concat_map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.aux)
              (Transformer.Builder.kernels built)
          in
          let b = Cora.Prelude.build ~dedup_defs:dedup defs (Transformer.Config.lenv cfg) in
          let storage_t = float_of_int b.Cora.Prelude.storage_work *. gpu.Machine.Device.aux_entry_ns /. 1e6 in
          let fusion_t = float_of_int b.Cora.Prelude.fusion_work *. gpu.Machine.Device.aux_entry_ns /. 1e6 in
          let copy_t =
            float_of_int (Cora.Prelude.bytes b) /. gpu.Machine.Device.h2d_bytes_per_ns /. 1e6
          in
          (* CSF: tree-based aux entries for every ragged tensor the kernels
             touch (per-operator tensor occurrences when redundant) *)
          let lenv = Transformer.Config.lenv cfg in
          let seqf = Cora.Lenfun.lookup lenv "seq" in
          let csf_of (t : Cora.Tensor.t) =
            let extent_of pos dep =
              match List.nth t.Cora.Tensor.extents pos with
              | Cora.Shape.Fixed c -> c
              | Cora.Shape.Ragged _ -> seqf dep
            in
            Baselines.Taco.csf_entries t ~extent_of
          in
          let tensors = Transformer.Builder.all_tensors built.Transformer.Builder.tensors in
          let mult = if dedup then 1 else 2 (* each op recomputes in & out aux *) in
          let csf_entries = mult * List.fold_left (fun acc t -> acc + csf_of t) 0 tensors in
          let csf_t = Baselines.Taco.csf_time_ns gpu csf_entries /. 1e6 in
          line "%-7s/%-4d | %9.4f ms %8.2f kB | %9.5f ms %7.2f kB | %9.4f ms %8.2f kB | %6.4f ms"
            d.Workloads.Datasets.name bs csf_t
            (float_of_int (Baselines.Taco.csf_bytes csf_entries) /. 1024.)
            storage_t
            (float_of_int (Cora.Prelude.storage_bytes b) /. 1024.)
            fusion_t
            (float_of_int (Cora.Prelude.fusion_bytes b) /. 1024.)
            copy_t)
        [ (Workloads.Datasets.cola, 32); (Workloads.Datasets.cola, 128);
          (Workloads.Datasets.race, 32); (Workloads.Datasets.race, 128) ])
    variants

(* ------------------------------------------------------------------ *)

let fig19 () =
  header "Fig. 19 — forward-activation memory, ragged / dense";
  line "%-9s %-8s %-8s %-8s" "dataset" "bs32" "bs64" "bs128";
  List.iter
    (fun d ->
      let r bs =
        let lens = Workloads.Datasets.sample d ~batch:bs ~seed in
        Analysis.Memory.ragged_to_dense_ratio Analysis.Flops.base lens ~seq_multiple:32
          ~bulk_multiple:64
      in
      line "%-9s %-8.2f %-8.2f %-8.2f" d.Workloads.Datasets.name (r 32) (r 64) (r 128))
    datasets;
  let all =
    List.map
      (fun (d : Workloads.Datasets.t) ->
        let lens = Workloads.Datasets.sample d ~batch:64 ~seed in
        1.0
        /. Analysis.Memory.ragged_to_dense_ratio Analysis.Flops.base lens ~seq_multiple:32
             ~bulk_multiple:64)
      datasets
  in
  line "overall activation-memory reduction: %.2fx (paper: 1.78x)" (geomean all)

let memory () =
  header "Memory planner — peak intermediate activations of one encoder layer (batch 64, MB)";
  line "%-9s %-12s %-12s %-14s %-8s" "dataset" "dense-naive" "ragged-naive" "ragged-planned" "vs dense";
  List.iter
    (fun (d : Workloads.Datasets.t) ->
      let lens = Workloads.Datasets.sample_sorted d ~batch:64 ~seed in
      let cfg = Transformer.Config.base ~lens in
      let lenv = Transformer.Config.lenv cfg in
      let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
      let t = built.Transformer.Builder.tensors in
      let g =
        Cora.Graph.make
          ~tensors:(Transformer.Builder.all_tensors t)
          ~inputs:
            [ t.Transformer.Builder.in_t; t.Transformer.Builder.wqkv; t.Transformer.Builder.bqkv;
              t.Transformer.Builder.w2; t.Transformer.Builder.b2; t.Transformer.Builder.wf1;
              t.Transformer.Builder.bf1; t.Transformer.Builder.wf2; t.Transformer.Builder.bf2 ]
          ~outputs:[ t.Transformer.Builder.out ]
          (Transformer.Builder.kernels built)
      in
      let p = Cora.Graph.plan g ~lenv in
      let ragged_naive = float_of_int (Cora.Graph.naive_bytes g ~lenv) /. 1e6 in
      let planned = float_of_int (Cora.Graph.planned_bytes p) /. 1e6 in
      (* dense: the same intermediates fully padded to the batch max *)
      let maxlen = Array.fold_left max 0 lens in
      let dense_ratio =
        1.0
        /. Analysis.Memory.ragged_to_dense_ratio Analysis.Flops.base lens ~seq_multiple:32
             ~bulk_multiple:64
      in
      let dense_naive = ragged_naive *. dense_ratio in
      ignore maxlen;
      line "%-9s %-12.1f %-12.1f %-14.1f %.2fx" d.Workloads.Datasets.name dense_naive
        ragged_naive planned (dense_naive /. planned))
    datasets

let fig22 () =
  header "Fig. 22 — computation relative to the no-padding ideal";
  line "%-9s %-6s %-10s %-12s %-8s" "dataset" "batch" "dense" "CoRA-actual" "ideal";
  let overheads = ref [] in
  List.iter
    (fun d ->
      List.iter
        (fun bs ->
          let lens = Workloads.Datasets.sample d ~batch:bs ~seed in
          let dense = Analysis.Flops.padding_waste_ratio Analysis.Flops.base lens in
          let actual =
            Analysis.Flops.partial_padding_overhead Analysis.Flops.base lens ~seq_multiple:32
              ~bulk_multiple:64
          in
          overheads := (bs, actual) :: !overheads;
          line "%-9s %-6d %-10.2f %-12.3f %-8.2f" d.Workloads.Datasets.name bs dense actual 1.0)
        [ 32; 128 ])
    datasets;
  let mean bs =
    let xs = List.filter_map (fun (b, x) -> if b = bs then Some x else None) !overheads in
    (geomean xs -. 1.0) *. 100.0
  in
  line "mean partial-padding overhead: %.1f%% at batch 32 (paper 3.5%%), %.1f%% at batch 128 (paper 2.3%%)"
    (mean 32) (mean 128)

(* ------------------------------------------------------------------ *)

let fig23 () =
  header "Fig. 23 — ragged overheads and load hoisting (constant length 512, batch 64; ms)";
  let lens = Workloads.Datasets.constant ~len:512 ~batch:64 in
  let cfg = Transformer.Config.base ~lens in
  line "%-12s %-8s %-8s %-8s %-8s %-8s" "variant" "Proj1" "QKT" "Softmax" "AttnV" "Proj2";
  List.iter
    (fun v ->
      let ks = Transformer.Ablation.overhead_mha cfg ~variant:v in
      let times =
        List.map
          (fun (_, k) ->
            let p =
              Machine.Launch.pipeline ~device:gpu ~lenv:(Transformer.Config.lenv cfg)
                [ Machine.Launch.single k ]
            in
            (* prelude costs excluded, as in the paper's figure *)
            p.Machine.Launch.kernels_ns /. 1e6)
          ks
      in
      line "%-12s %s" (Transformer.Ablation.overhead_variant_name v)
        (String.concat " " (List.map (Printf.sprintf "%-8.3f") times)))
    [
      Transformer.Ablation.Dense;
      Transformer.Ablation.Plus_vloops;
      Transformer.Ablation.Plus_vdims;
      Transformer.Ablation.Plus_loadhoist;
    ]

(* ------------------------------------------------------------------ *)

(* Grid-search auto-scheduling (§6: "manual scheduling and grid search";
   full auto-scheduling is the paper's future work): the online tuner's
   two-stage search over the paper-scale encoder layer's gemm tile
   points, priced by the machine model. *)
let autotune () =
  header "Grid-search auto-scheduling of the encoder layer's gemm tiles (paper §6)";
  line "%-9s %-6s %-14s %-14s %s" "dataset" "batch" "hand schedule" "tuned" "point";
  List.iter
    (fun (d : Workloads.Datasets.t) ->
      List.iter
        (fun bs ->
          let w = Serving.Workload.encoder ~base:true ~batch:bs ~dataset:d () in
          let tn = Option.get w.Serving.Workload.tunable in
          let lens = Workloads.Datasets.sample_sorted d ~batch:bs ~seed in
          let r, _ =
            Cora.Lower.with_memo ~cache:true (fun () ->
                Autotune.Tuner.tune ~device:gpu
                  ~key:
                    (Autotune.Tuner.key ~workload:w.Serving.Workload.name
                       ~tables:(w.Serving.Workload.tables_of lens))
                  ~hand:(Serving.Workload.tuner_job (w.Serving.Workload.build lens))
                  ~candidates:(Serving.Workload.candidates tn lens) ())
          in
          line "%-9s %-6d %11.3f ms %11.3f ms  %s" d.Workloads.Datasets.name bs
            (r.Autotune.Tuner.hand_ns /. 1e6)
            (r.Autotune.Tuner.tuned_ns /. 1e6)
            (match r.Autotune.Tuner.point with
            | Some p -> Autotune.Space.to_string p
            | None -> "hand"))
        [ 32; 128 ])
    [ Workloads.Datasets.race; Workloads.Datasets.mnli ]

(* ------------------------------------------------------------------ *)
(* Online schedule autotuner: tuned vs hand over the serving path, per
   workload, on the bench-scale adapters the CLI's bench-stream uses.
   The guarantee checked here is the tuner's contract: summed modeled
   kernel time never worse than the hand schedule (candidates are only
   adopted on a strict simulated win), hand and tuned outputs
   bitwise-identical to the cache-bypassed interpreter reference where
   execution is affordable, and a strict win on a skewed-length fig1
   stream.  Wall times are informational (the tuned pass replays against
   a warmed memo, the steady serving state). *)

let serve_autotune () =
  header "Online autotuner — tuned vs hand modeled time per serving workload";
  line "%-12s %-12s %-12s %-8s %-8s %s" "workload" "hand (us)" "tuned (us)" "win" "tuned#"
    "decision";
  let eval ~name ~exec (w : Serving.Workload.t) (stream : Serving.Stream.t) =
    let sum_kernels rs =
      List.fold_left (fun acc r -> acc +. r.Serving.Server.kernels_ns) 0.0 rs
    in
    (* hand: replay twice so both measurements see warm compile/prelude
       caches — the steady serving state on both sides *)
    Serving.Server.reset_caches ();
    let srv_h = Serving.Server.create ~execute:exec () in
    ignore (Serving.Stream.replay srv_h w stream);
    let t0 = Obs.Trace_sink.now_us () in
    let hand = Serving.Stream.replay srv_h w stream in
    let hand_wall_ns = (Obs.Trace_sink.now_us () -. t0) *. 1e3 in
    (* tuned: first pass warms the tuner memo (every shape tunes once),
       second pass serves from it *)
    Serving.Server.reset_caches ();
    let srv_t =
      Serving.Server.create ~execute:exec ~autotune:Autotune.Tuner.default_cfg ()
    in
    ignore (Serving.Stream.replay srv_t w stream);
    let t1 = Obs.Trace_sink.now_us () in
    let tuned = Serving.Stream.replay srv_t w stream in
    let tuned_wall_ns = (Obs.Trace_sink.now_us () -. t1) *. 1e3 in
    let hand_ns = sum_kernels hand and tuned_ns = sum_kernels tuned in
    if tuned_ns > hand_ns +. 1e-6 then
      failwith (Printf.sprintf "%s: tuned %.1f ns slower than hand %.1f ns" name tuned_ns hand_ns);
    let items = stream.Serving.Stream.items in
    let served = List.map (fun r -> Serving.Frontend.Response r) (hand @ tuned) in
    if exec && Serving.Stream.check w (Array.append items items) (Array.of_list served) <> []
    then failwith (name ^ ": served output diverges from the reference");
    let tuned_requests =
      List.fold_left
        (fun acc (r : Serving.Server.response) ->
          if r.Serving.Server.tuner = "tuned" then acc + 1 else acc)
        0 tuned
    in
    let decisions =
      List.sort_uniq compare
        (List.map (fun (r : Serving.Server.response) -> r.Serving.Server.tuner) tuned)
    in
    line "%-12s %-12.1f %-12.1f %-8s %-8d %s" name (hand_ns /. 1e3) (tuned_ns /. 1e3)
      (if tuned_ns < hand_ns -. 1e-6 then "yes" else "tie")
      tuned_requests
      (String.concat "," decisions);
    ( name,
      Obs.Json.Obj
        [
          ("hand_kernels_ns", Obs.Json.Float hand_ns);
          ("tuned_kernels_ns", Obs.Json.Float tuned_ns);
          ("hand_wall_ns", Obs.Json.Float hand_wall_ns);
          ("tuned_wall_ns", Obs.Json.Float tuned_wall_ns);
          ("tuned_requests", Obs.Json.Int tuned_requests);
          ("requests", Obs.Json.Int (List.length tuned));
          ("strict_win", Obs.Json.Bool (tuned_ns < hand_ns -. 1e-6));
          ("bitwise_checked", Obs.Json.Bool exec);
        ] )
  in
  let fig1_w = Serving.Workload.fig1 ~batch:6 ~max_len:10 () in
  let rows =
    [
      eval ~name:"fig1" ~exec:true fig1_w
        (Serving.Stream.generate ~workload:fig1_w ~pool:3 ~n:24 ~seed ());
      (let w = Serving.Workload.vgemm ~batch:4 ~tile:8 ~dims_choices:[| 8; 16; 24 |] () in
       eval ~name:"vgemm" ~exec:true w
         (Serving.Stream.generate ~workload:w ~pool:3 ~n:12 ~seed ()));
      (let w = Serving.Workload.trmm ~tile:8 ~sizes:[| 16; 24; 32 |] () in
       eval ~name:"trmm" ~exec:true w
         (Serving.Stream.generate ~workload:w ~pool:3 ~n:12 ~seed ()));
      (* paper-scale interpretation is unaffordable: modeled time only *)
      (let w = Serving.Workload.encoder ~batch:4 ~dataset:Workloads.Datasets.squad () in
       eval ~name:"encoder" ~exec:false w
         (Serving.Stream.generate ~workload:w ~pool:2 ~n:8 ~seed ()));
      (* heavy skew: one long row amid stubs — where padding and serial
         schedules hurt most, the tuner must strictly win *)
      eval ~name:"fig1_skewed" ~exec:true fig1_w
        (Serving.Stream.repeat ~shape:[| 48; 2; 2; 1; 1; 1 |] ~n:10 ~seed);
    ]
  in
  (match List.assoc_opt "fig1_skewed" rows with
  | Some (Obs.Json.Obj fields) ->
      if List.assoc_opt "strict_win" fields <> Some (Obs.Json.Bool true) then
        failwith "autotuner failed to strictly beat the hand schedule on the skewed stream"
  | _ -> assert false);
  print_endline ("BENCH_AUTOTUNE " ^ Obs.Json.to_string (Obs.Json.Obj rows))

(* ------------------------------------------------------------------ *)
(* Bechamel: real wall-clock of interpreter-executed kernels, one per
   reproduced table/figure family. *)

let bechamel () =
  header "Bechamel — wall-clock of real (interpreted) kernel executions";
  let open Bechamel in
  let lens = [| 7; 5; 3; 2 |] in
  let cfg = Transformer.Config.tiny ~lens in
  let lenv = Transformer.Config.lenv cfg in
  let run_encoder () =
    let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
    let t = built.Transformer.Builder.tensors in
    let tensors =
      List.map (fun tensor -> Cora.Ragged.alloc tensor lenv)
        (Transformer.Builder.all_tensors t)
    in
    ignore (Cora.Exec.run_ragged ~lenv ~tensors (Transformer.Builder.kernels built))
  in
  let run_trmm () =
    let t = Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Split_balanced ~n:16 () in
    ignore (Matmul.Trmm.run t ~fill_a:(fun _ -> 1.0) ~fill_b:(fun _ -> 1.0))
  in
  let run_vgemm () =
    let w =
      { Workloads.Vgemm_workload.batch = 2; ms = [| 4; 8 |]; ns = [| 8; 4 |]; ks = [| 4; 4 |] }
    in
    let t = Matmul.Vgemm.build ~tile:4 ~target:Matmul.Vgemm.Gpu w in
    ignore (Matmul.Vgemm.run t ~fill_a:(fun _ -> 1.0) ~fill_b:(fun _ -> 1.0))
  in
  let run_masked () =
    let t = Transformer.Masked.build ~variant:Transformer.Masked.No_pad cfg in
    let mlenv = Transformer.Masked.lenv cfg in
    let tensors =
      List.map (fun tensor -> Cora.Ragged.alloc tensor mlenv)
        [ t.Transformer.Masked.qkv; t.Transformer.Masked.scores; t.Transformer.Masked.probs;
          t.Transformer.Masked.attn ]
    in
    ignore (Cora.Exec.run_ragged ~lenv:mlenv ~tensors t.Transformer.Masked.kernels)
  in
  let run_taco () =
    let a = Baselines.Taco.csr_lower_triangular 16 (fun r c -> float_of_int (r + c)) in
    let b = Array.init (16 * 8) float_of_int in
    ignore (Baselines.Taco.trmm_csr a b ~m:8)
  in
  let run_backward () =
    let t = Transformer.Backward.build cfg in
    let tensors =
      List.map (fun tensor -> Cora.Ragged.alloc tensor lenv)
        [ t.Transformer.Backward.qkv; t.Transformer.Backward.probs; t.Transformer.Backward.dout;
          t.Transformer.Backward.dscores; t.Transformer.Backward.dprobs;
          t.Transformer.Backward.dq; t.Transformer.Backward.dk; t.Transformer.Backward.dv ]
    in
    ignore (Cora.Exec.run_ragged ~lenv ~tensors t.Transformer.Backward.kernels)
  in
  let run_prelude () =
    let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.cola ~batch:32 ~seed in
    let cfg = Transformer.Config.base ~lens in
    let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
    let defs =
      List.concat_map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.aux)
        (Transformer.Builder.kernels built)
    in
    ignore (Cora.Prelude.build defs (Transformer.Config.lenv cfg))
  in
  let tests =
    [
      Test.make ~name:"table4_encoder_layer" (Staged.stage run_encoder);
      Test.make ~name:"fig9_trmm_split_balanced" (Staged.stage run_trmm);
      Test.make ~name:"fig8_vgemm" (Staged.stage run_vgemm);
      Test.make ~name:"fig18_masked_sdpa" (Staged.stage run_masked);
      Test.make ~name:"table6_taco_csr_trmm" (Staged.stage run_taco);
      Test.make ~name:"table7_prelude_build" (Staged.stage run_prelude);
      Test.make ~name:"backward_sdpa" (Staged.stage run_backward);
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg_b = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true () in
  let raw = Benchmark.all cfg_b instances (Test.make_grouped ~name:"cora" ~fmt:"%s/%s" tests) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> line "  %-32s %12.1f ns/run" name est
      | _ -> line "  %-32s (no estimate)" name)
    results

(* ------------------------------------------------------------------ *)

(* interp vs compiled closure engine, real wall time (the one experiment
   in this harness that measures the host clock rather than the machine
   model: the two engines are numerically identical, so the only
   observable difference IS host time).  Workloads are bench-scale
   variants of the trace workloads; outputs are compared bitwise before
   timing so a reported speedup is always a speedup on identical work. *)
let time_one run =
  (* warm (compiles the kernels on the first run at a level), then
     repeat adaptively until the sample covers >= 0.2 s. *)
  ignore (run ());
  let rec measure reps =
    let t0 = Obs.Trace_sink.now_us () in
    for _ = 1 to reps do
      ignore (run ())
    done;
    let ns = (Obs.Trace_sink.now_us () -. t0) *. 1e3 in
    if ns < 2e8 && reps < 4096 then measure (reps * 4)
    else ns /. float_of_int reps
  in
  measure 1

(* Compiled-engine handles per optimization level for one kernel list:
   the first run at a level (always an untimed correctness run) compiles,
   every later run — the timed loops — reuses the closures. *)
let handles_by_level kernels =
  let tbl = Hashtbl.create 4 in
  fun engine opt ->
    match engine with
    | `Interp -> None
    | `Compiled ->
        let opt = Option.value opt ~default:Ir.Optimize.O0 in
        let h =
          match Hashtbl.find_opt tbl opt with
          | Some h -> h
          | None ->
              let h = Cora.Exec.handles ~opt kernels in
              Hashtbl.add tbl opt h;
              h
        in
        Some h

(* Bench-scale vgemm and encoder runners for the engine experiment.  Each
   call executes the workload through [engine] at [opt] and returns the
   raw output buffer. *)
let make_engine_runners () =
  (* vgemm: same bench-scale instance as `cora trace -w vgemm`. *)
  let vgemm =
    let w =
      {
        Workloads.Vgemm_workload.batch = 4;
        ms = [| 16; 8; 16; 8 |];
        ns = [| 8; 16; 8; 16 |];
        ks = [| 16; 16; 8; 8 |];
      }
    in
    let t = Matmul.Vgemm.build ~tile:8 ~target:Matmul.Vgemm.Cpu w in
    let lenv = t.Matmul.Vgemm.lenv in
    let ra = Cora.Ragged.alloc t.Matmul.Vgemm.a lenv in
    let rb = Cora.Ragged.alloc t.Matmul.Vgemm.b lenv in
    Cora.Ragged.fill ra (fun idx ->
        sin (float_of_int (List.nth idx 1 + List.nth idx 2)));
    Cora.Ragged.fill rb (fun idx ->
        cos (float_of_int (List.nth idx 1 - List.nth idx 2)));
    let handles = handles_by_level [ t.Matmul.Vgemm.kernel ] in
    fun ~engine ?opt () ->
      let rc = Cora.Ragged.alloc t.Matmul.Vgemm.c lenv in
      let env, _ =
        Cora.Exec.run_ragged ~engine ?opt ?handles:(handles engine opt) ~lenv
          ~tensors:[ ra; rb; rc ] [ t.Matmul.Vgemm.kernel ]
      in
      (Array.copy (Runtime.Buffer.floats rc.Cora.Ragged.buf), env)
  in
  (* encoder: the tiny config, full nine-kernel layer on the Cpu target. *)
  let encoder =
    let lens = [| 7; 5; 3; 2 |] in
    let cfg = Transformer.Config.tiny ~lens in
    let lenv = Transformer.Config.lenv cfg in
    let built = Transformer.Builder.build ~target:Transformer.Builder.Cpu cfg in
    let t = built.Transformer.Builder.tensors in
    let w = Transformer.Reference.random_weights cfg ~seed:7 in
    let fill_dense tensor arr =
      let r = Cora.Ragged.alloc tensor lenv in
      Array.blit arr 0 (Runtime.Buffer.floats r.Cora.Ragged.buf) 0 (Array.length arr);
      r
    in
    let weights =
      [
        fill_dense t.Transformer.Builder.wqkv w.Transformer.Reference.wqkv;
        fill_dense t.Transformer.Builder.bqkv w.Transformer.Reference.bqkv;
        fill_dense t.Transformer.Builder.w2 w.Transformer.Reference.w2;
        fill_dense t.Transformer.Builder.b2 w.Transformer.Reference.b2;
        fill_dense t.Transformer.Builder.wf1 w.Transformer.Reference.wf1;
        fill_dense t.Transformer.Builder.bf1 w.Transformer.Reference.bf1;
        fill_dense t.Transformer.Builder.wf2 w.Transformer.Reference.wf2;
        fill_dense t.Transformer.Builder.bf2 w.Transformer.Reference.bf2;
      ]
    in
    let in_r = Cora.Ragged.alloc t.Transformer.Builder.in_t lenv in
    Cora.Ragged.fill in_r (fun idx ->
        sin
          (float_of_int
             ((List.nth idx 0 * 131) + (List.nth idx 1 * 17) + List.nth idx 2))
        *. 0.5);
    let handles = handles_by_level (Transformer.Builder.kernels built) in
    fun ~engine ?opt () ->
      let data =
        List.map
          (fun tensor -> Cora.Ragged.alloc tensor lenv)
          [
            t.Transformer.Builder.qkv; t.Transformer.Builder.scores;
            t.Transformer.Builder.probs; t.Transformer.Builder.attn;
            t.Transformer.Builder.p2; t.Transformer.Builder.ln1;
            t.Transformer.Builder.f1; t.Transformer.Builder.out;
          ]
      in
      let out_r = List.nth data (List.length data - 1) in
      let env, _ =
        Cora.Exec.run_ragged ~engine ?opt ?handles:(handles engine opt) ~lenv
          ~tensors:(weights @ (in_r :: data))
          (Transformer.Builder.kernels built)
      in
      (Array.copy (Runtime.Buffer.floats out_r.Cora.Ragged.buf), env)
  in
  [ ("vgemm", vgemm); ("encoder", encoder) ]

(* Interpreter vs the compiled engine at O0 (the reference level) and O3
   (the serving level).  Outputs are bitwise-compared against the
   interpreter at both levels before timing, so a reported speedup is
   always a speedup on identical results; scalar-op counts fall at O3
   (hoisted ufun reads), which is the documented counter divergence.
   O0 and O3 are timed best-of-3 in alternating samples, so a burst of
   host noise lands on both sides of the asserted O3/O0 ratio.  The O3
   [engine.mk_variant.*] counts are the variants this runner's kernels
   bound when their closures were built (nonzero ones only). *)
let engine_bench () =
  header "engine — interpreter vs compiled engine at O0 / O3 (wall time, scalar ops)";
  let bits = Array.map Int64.bits_of_float in
  let variants () =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Obs.Metrics.Counter_v n when String.starts_with ~prefix:"engine.mk_variant." name ->
            Some (name, n)
        | _ -> None)
      (Obs.Metrics.dump ())
  in
  let bench
      ( name,
        (runner :
          engine:Cora.Exec.engine ->
          ?opt:Ir.Optimize.level ->
          unit ->
          float array * Runtime.Interp.env) ) =
    let ref_out = fst (runner ~engine:`Interp ()) in
    let check opt =
      let out, env = runner ~engine:`Compiled ~opt () in
      let ops = env.Runtime.Interp.loads + env.Runtime.Interp.stores + env.Runtime.Interp.flops in
      (bits out = bits ref_out, ops)
    in
    let match0, ops0 = check Ir.Optimize.O0 in
    let before = variants () in
    let match3, ops3 = check Ir.Optimize.O3 in
    let bound =
      List.filter_map
        (fun (v, n) ->
          let d = n - Option.value (List.assoc_opt v before) ~default:0 in
          if d > 0 then Some (v, Obs.Json.Int d) else None)
        (variants ())
    in
    let matches = match0 && match3 in
    let interp_ns = time_one (runner ~engine:`Interp) in
    let o0_ns = ref infinity and o3_ns = ref infinity in
    for _ = 1 to 3 do
      o0_ns := Float.min !o0_ns (time_one (runner ~engine:`Compiled ~opt:Ir.Optimize.O0));
      o3_ns := Float.min !o3_ns (time_one (runner ~engine:`Compiled ~opt:Ir.Optimize.O3))
    done;
    let o0_ns = !o0_ns and o3_ns = !o3_ns in
    line "%-10s interp %10.0f ns   O0 %10.0f ns (%9d scalar ops)   O3 %10.0f ns (%9d scalar ops)"
      name interp_ns o0_ns ops0 o3_ns ops3;
    line "%-10s O0 speedup over interp: %5.2fx   O3 speedup over O0: %5.2fx   outputs %s" name
      (interp_ns /. o0_ns) (o0_ns /. o3_ns)
      (if matches then "bit-identical" else "DIFFER");
    ( name,
      Obs.Json.Obj
        ([
           ("interp_ns", Obs.Json.Float interp_ns);
           ("o0_ns", Obs.Json.Float o0_ns);
           ("o0_scalar_ops", Obs.Json.Int ops0);
           ("o3_ns", Obs.Json.Float o3_ns);
           ("o3_scalar_ops", Obs.Json.Int ops3);
           ("speedup_o0_vs_interp", Obs.Json.Float (interp_ns /. o0_ns));
           ("speedup_o3_vs_o0", Obs.Json.Float (o0_ns /. o3_ns));
           ("outputs_match", Obs.Json.Bool matches);
         ]
        @ bound) )
  in
  let rows = List.map bench (make_engine_runners ()) in
  print_endline ("BENCH_ENGINE " ^ Obs.Json.to_string (Obs.Json.Obj rows))

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig2", fig2);
    ("fig8", fig8);
    ("fig9", fig9);
    ("table4", table4);
    ("fig10", table4);
    ("fig11", fig11);
    ("table9", table9);
    ("fig12", table9);
    ("fig24", fig24);
    ("fig25", fig25);
    ("table5", table5);
    ("fig18", fig18);
    ("fig13", fig13);
    ("fig20", fig20);
    ("fig21", fig21);
    ("table6", table6);
    ("table7", table7);
    ("table8", table7);
    ("fig19", fig19);
    ("memory", memory);
    ("fig22", fig22);
    ("fig23", fig23);
    ("autotune", autotune);
    ("serve_autotune", serve_autotune);
    ("engine", engine_bench);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match args with
    | [] ->
        (* everything, each distinct experiment once *)
        List.filter (fun (n, _) -> not (List.mem n [ "fig10"; "fig12"; "table8" ])) experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s\navailable: %s\n" n
                  (String.concat " " (List.map fst experiments));
                exit 1)
          names
  in
  List.iter
    (fun (name, f) ->
      Obs.Metrics.reset ();
      Chart.open_table ~name;
      Fun.protect ~finally:Chart.close_table f;
      let blob =
        Obs.Json.Obj
          [
            ("experiment", Obs.Json.String name); ("metrics", Obs.Report.metrics_json ());
          ]
      in
      let s = Obs.Json.to_string blob in
      Chart.write_json ~name s;
      (* stdout: one JSON line per experiment, nothing else *)
      print_endline s)
    to_run

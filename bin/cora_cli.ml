(* cora — command-line front end.

   Subcommands:
     dump   — lower a named operator and print its IR or generated C code
              (and the prelude structures it needs)
     encode — simulate one transformer-encoder configuration against the
              framework baselines
     stats  — print dataset sequence-length statistics (Table 3 check)
     trace  — compile + run a named workload with tracing on, write a
              Chrome trace-event file and print the metrics registry

   The full evaluation harness lives in bench/main.exe. *)

open Cmdliner

let ops = [ "fig1"; "qkv"; "qkt"; "softmax"; "attnv"; "trmm"; "vgemm" ]

let build_op name : Cora.Lower.kernel list =
  let lens = [| 7; 5; 3; 2 |] in
  let cfg = Transformer.Config.tiny ~lens in
  match name with
  | "fig1" ->
      let batch = Cora.Dim.make "b" and len = Cora.Dim.make "j" in
      let lensf = Cora.Lenfun.make "lens" in
      let extents = [ Cora.Shape.fixed 4; Cora.Shape.ragged ~dep:batch ~fn:lensf ] in
      let a = Cora.Tensor.create ~name:"A" ~dims:[ batch; len ] ~extents in
      let o = Cora.Tensor.create ~name:"O" ~dims:[ batch; len ] ~extents in
      let op =
        Cora.Op.compute ~name:"double" ~out:o ~loop_extents:extents ~reads:[ a ] (fun idx ->
            Ir.Expr.mul (Ir.Expr.float 2.0) (Cora.Op.access a idx))
      in
      let s = Cora.Schedule.create op in
      Cora.Schedule.pad_loop s (Cora.Schedule.axis_of_dim s 1) 2;
      [ Cora.Lower.lower s ]
  | "qkv" ->
      [ (Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg).Transformer.Builder.qkv_proj ]
  | "qkt" ->
      [ (Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg).Transformer.Builder.qkt ]
  | "softmax" ->
      [ (Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg).Transformer.Builder.softmax ]
  | "attnv" ->
      [ (Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg).Transformer.Builder.attnv ]
  | "trmm" ->
      (Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Split_balanced ~n:16 ()).Matmul.Trmm.kernels
  | "vgemm" ->
      let w = Workloads.Vgemm_workload.generate ~batch:4 ~seed:1 in
      [ (Matmul.Vgemm.build ~target:Matmul.Vgemm.Gpu w).Matmul.Vgemm.kernel ]
  | other -> Fmt.failwith "unknown operator %s (available: %s)" other (String.concat " " ops)

let dump_cmd =
  let op_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc:"Operator to lower.")
  in
  let c_flag = Arg.(value & flag & info [ "c" ] ~doc:"Emit C code instead of IR.") in
  let cuda_flag = Arg.(value & flag & info [ "cuda" ] ~doc:"Emit CUDA C++ instead of IR.") in
  let run op c cuda =
    List.iter
      (fun (k : Cora.Lower.kernel) ->
        Printf.printf "==== %s ====\n" k.Cora.Lower.kname;
        if cuda then print_endline (Cora.Codegen_c.cuda_kernel_to_string k)
        else if c then print_endline (Cora.Codegen_c.kernel_to_string k)
        else print_endline (Ir.Printer.stmt_to_string k.Cora.Lower.body);
        print_endline (Cora.Codegen_c.prelude_to_string k.Cora.Lower.aux))
      (build_op op)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Lower an operator and print its IR, C or CUDA C++ code.")
    Term.(const run $ op_arg $ c_flag $ cuda_flag)

let encode_cmd =
  let dataset =
    Arg.(value & opt string "RACE" & info [ "dataset" ] ~doc:"Dataset name (Table 3).")
  in
  let batch = Arg.(value & opt int 128 & info [ "batch" ] ~doc:"Mini-batch size.") in
  let device =
    Arg.(value & opt string "gpu" & info [ "device" ] ~doc:"Device: gpu, intel or arm.")
  in
  let run dataset batch device =
    let dev, target =
      match device with
      | "gpu" -> (Machine.Device.v100, Transformer.Builder.Gpu)
      | "intel" -> (Machine.Device.intel_cpu, Transformer.Builder.Cpu)
      | "arm" -> (Machine.Device.arm_cpu, Transformer.Builder.Cpu)
      | d -> Fmt.failwith "unknown device %s" d
    in
    let d = Workloads.Datasets.by_name dataset in
    let lens = Workloads.Datasets.sample_sorted d ~batch ~seed:1 in
    let cfg = Transformer.Config.base ~lens in
    let built = Transformer.Builder.build ~target cfg in
    let p =
      Machine.Launch.pipeline ~device:dev ~lenv:(Transformer.Config.lenv cfg)
        (Transformer.Builder.launches built)
    in
    Printf.printf "%s, batch %d on %s:\n" d.Workloads.Datasets.name batch
      dev.Machine.Device.name;
    List.iter
      (fun (l, ns) -> Printf.printf "  %-12s %8.3f ms\n" l (ns /. 1e6))
      p.Machine.Launch.per_launch;
    Printf.printf "  %-12s %8.3f ms (plus prelude %.4f ms, copy %.4f ms)\n" "total"
      (p.Machine.Launch.kernels_ns /. 1e6)
      (p.Machine.Launch.prelude_host_ns /. 1e6)
      (p.Machine.Launch.prelude_copy_ns /. 1e6);
    let s =
      Baselines.Frameworks.of_config ~batch ~lens ~hidden:512 ~heads:8 ~head_size:64 ~ff:2048
    in
    Printf.printf "  PyTorch baseline: %.3f ms\n"
      (Baselines.Analytic.pipeline_ns dev (Baselines.Frameworks.pytorch_encoder s) /. 1e6)
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Simulate the transformer encoder layer on a dataset.")
    Term.(const run $ dataset $ batch $ device)

let emit_cmd =
  let out_arg =
    Arg.(value & opt string "encoder.c" & info [ "o" ] ~doc:"Output file.")
  in
  let run out =
    let lens = Workloads.Datasets.sample_sorted Workloads.Datasets.mnli ~batch:8 ~seed:1 in
    let cfg = Transformer.Config.base ~lens in
    let built = Transformer.Builder.build ~target:Transformer.Builder.Gpu cfg in
    let c =
      Cora.Codegen_c.program_to_string ~name:"cora_encoder"
        (Transformer.Builder.kernels built)
    in
    let oc = open_out out in
    output_string oc c;
    close_out oc;
    Printf.printf "wrote %s (%d bytes, %d kernels)\n" out (String.length c)
      (List.length (Transformer.Builder.kernels built))
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit the full encoder pipeline as a C translation unit.")
    Term.(const run $ out_arg)

let stats_cmd =
  let run () =
    Printf.printf "%-9s %-22s %-22s\n" "dataset" "paper (min/mean/max)" "sampled (batch 128)";
    List.iter
      (fun (d : Workloads.Datasets.t) ->
        let lens = Workloads.Datasets.sample d ~batch:128 ~seed:1 in
        let mn, mean, mx = Workloads.Datasets.stats lens in
        Printf.printf "%-9s %4d / %4d / %4d     %4d / %6.1f / %4d\n" d.Workloads.Datasets.name
          d.Workloads.Datasets.min_len d.Workloads.Datasets.mean_len d.Workloads.Datasets.max_len
          mn mean mx)
      Workloads.Datasets.all
  in
  Cmd.v (Cmd.info "stats" ~doc:"Dataset sequence-length statistics (Table 3).")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* trace: compile + run a workload with the observability layer on.    *)

let trace_workloads = [ "quickstart"; "fig1"; "encoder"; "trmm"; "vgemm" ]

(* Each workload compiles (lowers) its kernels, executes them through the
   interpreter and times them through the machine model, all inside the
   enabled tracing window, so the trace covers lowering passes, prelude
   build, kernel execution and the launch pipeline. *)
let run_traced_workload ~device ~multicore ~domains workload =
  match workload with
  | "quickstart" | "fig1" ->
      (* The Fig. 1 operator, exactly as examples/quickstart.ml builds it. *)
      let batch_dim = Cora.Dim.make "batch" and len_dim = Cora.Dim.make "len" in
      let lens_fn = Cora.Lenfun.make "lens" in
      let extents =
        [ Cora.Shape.fixed 4; Cora.Shape.ragged ~dep:batch_dim ~fn:lens_fn ]
      in
      let a = Cora.Tensor.create ~name:"A" ~dims:[ batch_dim; len_dim ] ~extents in
      let o = Cora.Tensor.create ~name:"O" ~dims:[ batch_dim; len_dim ] ~extents in
      Cora.Tensor.pad_dimension o len_dim 4;
      let op =
        Cora.Op.compute ~name:"double" ~out:o ~loop_extents:extents ~reads:[ a ]
          (fun idx -> Ir.Expr.mul (Ir.Expr.float 2.0) (Cora.Op.access a idx))
      in
      let sched = Cora.Schedule.create op in
      Cora.Schedule.pad_loop sched (Cora.Schedule.axis_of_dim sched 1) 2;
      Cora.Schedule.bind_block sched (Cora.Schedule.axis_of_dim sched 0);
      let kernel = Cora.Lower.lower sched in
      let lenv = [ Cora.Lenfun.of_array "lens" [| 3; 1; 4; 2 |] ] in
      let ra = Cora.Ragged.alloc a lenv and ro = Cora.Ragged.alloc o lenv in
      Cora.Ragged.fill ra (fun idx ->
          float_of_int ((10 * List.nth idx 0) + List.nth idx 1));
      let _ =
        Cora.Exec.run_ragged ~multicore ~domains ~lenv ~tensors:[ ra; ro ] [ kernel ]
      in
      ignore (Machine.Launch.pipeline ~device ~lenv [ Machine.Launch.single kernel ])
  | "encoder" ->
      let lens = [| 7; 5; 3; 2 |] in
      let cfg = Transformer.Config.tiny ~lens in
      let lenv = Transformer.Config.lenv cfg in
      let target =
        if device.Machine.Device.grid_kind = Ir.Stmt.Gpu_block then
          Transformer.Builder.Gpu
        else Transformer.Builder.Cpu
      in
      let built = Transformer.Builder.build ~target cfg in
      let t = built.Transformer.Builder.tensors in
      let w = Transformer.Reference.random_weights cfg ~seed:42 in
      let fill_dense (tensor : Cora.Tensor.t) (arr : float array) =
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
      let data =
        List.map
          (fun tensor -> Cora.Ragged.alloc tensor lenv)
          [
            t.Transformer.Builder.in_t; t.Transformer.Builder.qkv;
            t.Transformer.Builder.scores; t.Transformer.Builder.probs;
            t.Transformer.Builder.attn; t.Transformer.Builder.p2;
            t.Transformer.Builder.ln1; t.Transformer.Builder.f1;
            t.Transformer.Builder.out;
          ]
      in
      Cora.Ragged.fill (List.hd data) (fun idx ->
          sin (float_of_int ((List.nth idx 0 * 131) + (List.nth idx 1 * 17) + List.nth idx 2))
          *. 0.5);
      let _ =
        Cora.Exec.run_ragged ~multicore ~domains ~lenv ~tensors:(weights @ data)
          (Transformer.Builder.kernels built)
      in
      ignore
        (Machine.Launch.pipeline ~device ~lenv (Transformer.Builder.launches built))
  | "trmm" ->
      let t = Matmul.Trmm.build ~tile:4 ~variant:Matmul.Trmm.Split_balanced ~n:16 () in
      let _ =
        Matmul.Trmm.run t
          ~fill_a:(fun idx -> float_of_int (List.nth idx 0 + List.nth idx 1 + 1))
          ~fill_b:(fun idx -> float_of_int ((List.nth idx 0 * 2) - List.nth idx 1))
      in
      ignore
        (Machine.Launch.pipeline ~device ~lenv:t.Matmul.Trmm.lenv
           (List.map Machine.Launch.single t.Matmul.Trmm.kernels))
  | "vgemm" ->
      (* Paper-scale instances (512-1408 per dim) are too big for the
         reference interpreter; trace a shrunken batch with the same
         shape-raggedness structure.  Dims stay multiples of the tile so
         the elided-guard schedule remains exact. *)
      let w =
        {
          Workloads.Vgemm_workload.batch = 4;
          ms = [| 16; 8; 16; 8 |];
          ns = [| 8; 16; 8; 16 |];
          ks = [| 16; 16; 8; 8 |];
        }
      in
      let target =
        if device.Machine.Device.grid_kind = Ir.Stmt.Gpu_block then Matmul.Vgemm.Gpu
        else Matmul.Vgemm.Cpu
      in
      let t = Matmul.Vgemm.build ~tile:8 ~target w in
      let _ =
        Matmul.Vgemm.run t
          ~fill_a:(fun idx -> sin (float_of_int (List.nth idx 1 + List.nth idx 2)))
          ~fill_b:(fun idx -> cos (float_of_int (List.nth idx 1 - List.nth idx 2)))
      in
      ignore
        (Machine.Launch.pipeline ~device ~lenv:t.Matmul.Vgemm.lenv
           [ Machine.Launch.single t.Matmul.Vgemm.kernel ])
  | other ->
      Fmt.failwith "unknown workload %s (available: %s)" other
        (String.concat " " trace_workloads)

(* Validate a written Chrome trace by re-parsing it: a non-empty
   traceEvents array naming every span in [required].  Returns the event
   count.  The ci wrapper (bin/ci.sh) relies on a nonzero exit here when
   the file is not well-formed. *)
let validate_trace ~required path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.parse src with
  | Error e -> Fmt.failwith "%s: emitted trace does not parse: %s" path e
  | Ok j -> (
      match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
      | None -> Fmt.failwith "%s: no traceEvents array" path
      | Some [] -> Fmt.failwith "%s: traceEvents is empty" path
      | Some evs ->
          let named span e = Obs.Json.member "name" e = Some (Obs.Json.String span) in
          List.iter
            (fun span ->
              if not (List.exists (named span) evs) then
                Fmt.failwith "%s: missing expected span %S" path span)
            required;
          List.length evs)

let trace_cmd =
  let workload_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:(Printf.sprintf "Workload to trace (%s)." (String.concat ", " trace_workloads)))
  in
  let out_arg =
    Arg.(value & opt string "trace.json" & info [ "o" ] ~doc:"Chrome trace output file.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~doc:"Also write the metrics registry as JSON to $(docv).")
  in
  let device_arg =
    Arg.(value & opt string "gpu" & info [ "device" ] ~doc:"Device: gpu, intel or arm.")
  in
  let multicore_flag =
    Arg.(value & flag & info [ "multicore" ] ~doc:"Execute Parallel loops across domains.")
  in
  let domains_arg =
    Arg.(value & opt int 4 & info [ "domains" ] ~doc:"Domain count for --multicore.")
  in
  let tree_flag =
    Arg.(value & flag & info [ "tree" ] ~doc:"Also print the span tree to stderr.")
  in
  let run workload out metrics_out device multicore domains tree =
    let dev =
      match device with
      | "gpu" -> Machine.Device.v100
      | "intel" -> Machine.Device.intel_cpu
      | "arm" -> Machine.Device.arm_cpu
      | d -> Fmt.failwith "unknown device %s" d
    in
    Obs.Span.set_enabled true;
    Obs.Metrics.reset ();
    Obs.Trace_sink.clear ();
    Obs.Span.with_span
      ~attrs:
        [
          ("workload", Obs.Trace_sink.Str workload);
          ("device", Obs.Trace_sink.Str dev.Machine.Device.name);
          ("multicore", Obs.Trace_sink.Bool multicore);
        ]
      "trace"
      (fun () -> run_traced_workload ~device:dev ~multicore ~domains workload);
    Obs.Span.set_enabled false;
    Obs.Report.write_file out (Obs.Trace_sink.to_chrome_string ());
    let n_events =
      validate_trace out
        ~required:[ "trace"; "lower"; "prelude.build"; "exec.run"; "launch.pipeline" ]
    in
    (* the sink is a bounded ring: say how many spans fell off the back *)
    Printf.eprintf "wrote %s (%d spans, %d dropped, validated)\n%!" out n_events
      (Obs.Trace_sink.dropped ());
    (match metrics_out with
    | Some path ->
        Obs.Report.write_file path (Obs.Json.to_string (Obs.Report.metrics_json ()));
        Printf.eprintf "wrote %s\n%!" path
    | None -> ());
    if tree then prerr_string (Obs.Trace_sink.tree ());
    print_string (Obs.Report.metrics_summary ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Compile and run a workload with tracing enabled; write a Chrome trace-event \
          file (validated by re-parsing) and print the metrics registry.")
    Term.(
      const run $ workload_arg $ out_arg $ metrics_arg $ device_arg $ multicore_flag
      $ domains_arg $ tree_flag)

(* ------------------------------------------------------------------ *)
(* bench-stream: replay a request stream through the serving layer.    *)

let bench_stream_workloads = [ "fig1"; "vgemm"; "trmm"; "encoder"; "decode" ]

(* In-process wall-clock pairs (steady-state goodput, decode prelude)
   alternate their two sides and report per-side medians. *)
let median l = Obs.Metrics.percentile_of (Array.of_list l) 50.0
let steady_windows = 5

(* Latency windows a stream is cut into for the per-window p50s and the
   window-boundary samples. *)
let latency_windows = 4
let decode_reps = 3

(* Bench-scale adapters: paper-scale vgemm/encoder instances are far too
   large for the reference interpreter, so execution defaults to off and
   the interp-friendly workloads use shrunken dimensions (raggedness
   structure unchanged). *)
let bench_workload ~dataset = function
  | "fig1" -> Serving.Workload.fig1 ~batch:6 ~max_len:10 ()
  | "vgemm" -> Serving.Workload.vgemm ~batch:4 ~tile:8 ~dims_choices:[| 8; 16; 24 |] ()
  | "trmm" -> Serving.Workload.trmm ~tile:8 ~sizes:[| 16; 24; 32 |] ()
  | "encoder" ->
      Serving.Workload.encoder ~batch:4 ~dataset:(Workloads.Datasets.by_name dataset) ()
  | "decode" -> Serving.Workload.decode ~batch:4 ~max_src:64 ()
  | other ->
      Fmt.failwith "unknown workload %s (available: %s)" other
        (String.concat " " bench_stream_workloads)

(* Window-boundary runtime gauges: GC, cache occupancy, arena pool size
   and queue depth are point-in-time values, so they are sampled (not
   accumulated) once per latency window and re-sampled before an
   --openmetrics render. *)
let sample_runtime_gauges () =
  Obs.Exposition.sample_gc_gauges ();
  (* per-cache hit/miss/eviction/occupancy gauges for every registered
     bounded memo (compile, prelude, plan, tuner memo, per-workload job
     memos) *)
  List.iter
    (fun (name, s) ->
      Obs.Exposition.set_cache_gauges ~name ~hits:s.Cora.Cache.hits ~misses:s.Cora.Cache.misses
        ~evictions:s.Cora.Cache.evictions ~entries:s.Cora.Cache.entries)
    (Cora.Cache.registered_stats ());
  Obs.Metrics.set
    (Obs.Metrics.gauge "arena.stored")
    (Runtime.Buffer.Arena.stored Runtime.Buffer.Arena.global)

let bench_stream_cmd =
  let workload_arg =
    Arg.(
      value & opt string "fig1"
      & info [ "workload" ]
          ~doc:(Printf.sprintf "Workload (%s)." (String.concat ", " bench_stream_workloads)))
  in
  let dataset_arg =
    Arg.(
      value & opt string "squad"
      & info [ "dataset" ] ~doc:"Dataset for the encoder workload (Table 3).")
  in
  let requests_arg =
    Arg.(value & opt int 40 & info [ "requests" ] ~doc:"Number of requests in the stream.")
  in
  let pool_arg =
    Arg.(value & opt int 4 & info [ "pool" ] ~doc:"Distinct batch shapes in the stream.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Stream RNG seed.") in
  let exec_flag =
    Arg.(
      value & flag
      & info [ "exec" ] ~doc:"Also execute each request through the selected engine.")
  in
  let engine_arg =
    Arg.(
      value & opt string "interp"
      & info [ "engine" ]
          ~doc:
            "Execution engine for --exec: 'interp' (tree-walking reference interpreter) or \
             'compiled' (slot-resolved closure kernels, compiled once per plan).")
  in
  let opt_arg =
    Arg.(
      value
      & opt (enum [ ("0", Ir.Optimize.O0); ("3", Ir.Optimize.O3) ]) Ir.Optimize.O0
      & info [ "opt" ]
          ~doc:
            "Optimization level for --engine compiled: 0 (the reference: counter-exact \
             interpreter parity) or 3 (LICM, strength reduction and stride-specialized, \
             register-tiled microkernels).  Outputs are bitwise-identical at both levels.")
  in
  let autotune_flag =
    Arg.(
      value & flag
      & info [ "autotune" ]
          ~doc:
            "Online schedule autotuning: consult the tuner memo per request (keyed by \
             workload and raggedness signature); misses serve the hand schedule \
             and warm the memo after the response, hits serve the tuned schedule.  Outputs \
             stay bitwise-identical to the hand schedule's (--smoke verifies).")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Self-validate the run and exit nonzero on violation.  Always: non-empty plan \
             and compile memos, every request served (none rejected, past its deadline or \
             errored), zero prelude host time on hits.  Unbatched: a nonzero compile hit \
             rate and, except for decode, a nonzero prelude hit rate and (serially) a \
             non-increasing per-window overhead p50.  With --exec: every served output \
             bit-identical to the reference (a cache-bypassed, untuned, serial \
             interpreter server run once per distinct vector), a nonzero scalar-op rate \
             and (serial, unbatched, not decode) no arena miss after the first window.  \
             With --batching: batches form, hold > 1 request each, evict none, and the \
             tile packing pads no more than one-request-one-batch serving.  With \
             --autotune --exec: a tune ran and left the memo non-empty.  Decode: tables \
             were delta-updated and the steady-state delta prelude costs at most half a \
             rebuild's; unbatched, that cost is nonzero and the stream builds 1 to \
             --domains plans (every step has one structure).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ]
          ~doc:
            "Worker domains.  1 (default) replays the stream serially; > 1 routes it \
             through the concurrent front-end (bounded queue, admission control, fault \
             isolation).")
  in
  let deadline_ms_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Per-request deadline in milliseconds, enforced by the front-end at dequeue \
             and between pipeline stages (implies the front-end path even with \
             --domains 1).")
  in
  let batching_flag =
    Arg.(
      value & flag
      & info [ "batching" ]
          ~doc:
            "Continuous batching: bin-pack each drained window of requests into \
             tile-aligned ragged mega-batches (first-fit-decreasing over per-row \
             ceilmult(len, tile) tiles), run each mega-batch through the server once and \
             scatter per-request outputs and telemetry back.  Serially (--domains 1) each \
             latency window is one batching window; with --domains > 1 the front-end's \
             workers drain batching windows concurrently.  Workloads without a batching \
             descriptor (trmm) are served as singletons.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~doc:"Maximum requests per mega-batch (with --batching).")
  in
  let max_wait_ms_arg =
    Arg.(
      value & opt float 2.0
      & info [ "max-wait-ms" ]
          ~doc:
            "How long a forming batch window stays open for more requests once it has \
             one, in milliseconds (with --batching --domains > 1).")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Enable span recording during the replay and write the Chrome trace-event \
             file to $(docv).  Spans carry the per-request trace-context id ([args.req]) \
             plus per-request flow arrows, so the trace is filterable to a single \
             request's admission-to-outcome chain.")
  in
  let flight_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-out" ]
          ~doc:
            "Write the flight-recorder ring (per-request ids, signatures, stage times, \
             cache hits, outcomes) as JSON to $(docv) after the replay.")
  in
  let openmetrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "openmetrics" ]
          ~doc:
            "Render the metrics registry as OpenMetrics text to $(docv) after the replay \
             (self-validated by re-parsing).")
  in
  let run workload dataset requests pool seed exec engine opt domains deadline_ms batching
      max_batch max_wait_ms trace_out flight_out openmetrics_out autotune smoke =
    if requests <= 0 || pool <= 0 then Fmt.failwith "requests and pool must be positive";
    if domains <= 0 then Fmt.failwith "domains must be positive";
    if batching && max_batch < 1 then Fmt.failwith "max-batch must be >= 1";
    if batching && max_wait_ms < 0.0 then Fmt.failwith "max-wait-ms must be >= 0";
    let engine =
      match engine with
      | "interp" -> `Interp
      | "compiled" -> `Compiled
      | other -> Fmt.failwith "unknown engine %s (available: interp compiled)" other
    in
    let deadline_ns = Option.map (fun ms -> ms *. 1e6) deadline_ms in
    let concurrent = domains > 1 || deadline_ns <> None in
    let w = bench_workload ~dataset workload in
    (* the bin-packer's row-length alignment quantum: the workload's
       natural tile *)
    let tile = match workload with "vgemm" | "trmm" -> 8 | "encoder" -> 32 | _ -> 4 in
    (* trmm carries no batching descriptor: the front-end serves it as
       singletons, and the serial driver falls back to the plain replay *)
    let batching_active = batching && Option.is_some w.Serving.Workload.batching in
    let bcfg = { Serving.Batcher.max_batch; max_wait_us = max_wait_ms *. 1e3; tile } in
    Obs.Metrics.reset ();
    Serving.Server.reset_caches ();
    Runtime.Buffer.Arena.clear Runtime.Buffer.Arena.global;
    let srv =
      Serving.Server.create ~execute:exec ~engine ~opt
        ?autotune:(if autotune then Some Autotune.Tuner.default_cfg else None)
        ()
    in
    (* decode: the stream is a trace — [pool] sessions of one prefill plus
       enough +1 decode steps to total ~[requests] events, arriving in
       bursts; a deadline becomes the tight class of a three-tenant mix *)
    let is_decode = workload = "decode" in
    let dtrace =
      if not is_decode then None
      else
        let sessions = pool in
        let steps = max 2 (((requests + sessions - 1) / sessions) - 1) in
        let classes =
          match deadline_ns with
          | None -> [| None |]
          | Some d -> [| Some d; Some (2.0 *. d); None |]
        in
        Some
          (Serving.Stream.generate_trace ~workload:w ~sessions ~steps ~burst:2 ~classes
             ~seed ())
    in
    let stream =
      match dtrace with
      | Some tr ->
          {
            Serving.Stream.seed;
            shapes = [||];
            items = Array.map (fun e -> e.Serving.Stream.lens) tr.Serving.Stream.events;
          }
      | None -> Serving.Stream.generate ~workload:w ~pool ~n:requests ~seed ()
    in
    let requests = Array.length stream.Serving.Stream.items in
    (* decode smoke arms the differential self-check: every delta-updated
       table is compared against a from-scratch build as it is produced *)
    if smoke && is_decode then Cora.Prelude.set_delta_check true;
    let windows = min latency_windows requests in
    let wsize = requests / windows in
    let arena_miss_now () = Obs.Metrics.value (Obs.Metrics.counter "arena.miss") in
    let queue_depth_now () =
      Obs.Metrics.gauge_value (Obs.Metrics.gauge "frontend.queue_depth")
    in
    (* post-mortem telemetry: fresh flight ring, armed to dump into
       results/ whenever a request errors or misses its deadline *)
    Obs.Flight.clear ();
    Obs.Flight.set_auto_dump (Some "results");
    if trace_out <> None then begin
      Obs.Trace_sink.clear ();
      Obs.Span.set_enabled true
    end;
    let t0_us = Obs.Trace_sink.now_us () in
    let plan_misses0 = (Serving.Workload.plan_stats ()).Cora.Cache.misses in
    let outcomes, window_arena_miss, window_queue_depth =
      if not concurrent then begin
        (* serial: replay window by window, sampling the arena miss counter
           at each boundary — new misses after the first window mean the
           steady state is still allocating fresh float storage *)
        let acc = ref [] and misses = ref [] and depths = ref [] in
        let seen = ref (arena_miss_now ()) in
        for i = 0 to windows - 1 do
          let lo = i * wsize in
          let hi = if i = windows - 1 then requests else lo + wsize in
          let items = Array.sub stream.Serving.Stream.items lo (hi - lo) in
          let outcomes =
            if batching_active then
              (* each latency window is one batching window: bin-pack its
                 requests into mega-batches and scatter the outcomes back *)
              Serving.Batcher.run bcfg srv w
                (Array.mapi
                   (fun j lens ->
                     {
                       Serving.Batcher.m_lens = lens;
                       m_deadline_us = infinity;
                       m_id = lo + j + 1;
                     })
                   items)
              |> Array.to_list
              |> List.map Serving.Frontend.of_batch_outcome
            else
              List.map
                (fun r -> Serving.Frontend.Response r)
                (Serving.Stream.replay srv w { stream with Serving.Stream.items = items })
          in
          acc := !acc @ outcomes;
          let now = arena_miss_now () in
          misses := (now - !seen) :: !misses;
          seen := now;
          depths := queue_depth_now () :: !depths;
          sample_runtime_gauges ()
        done;
        (Array.of_list !acc, List.rev !misses, List.rev !depths)
      end
      else begin
        (* concurrent: paced (backpressure) replay through the front-end —
           submit everything (waiting for queue slots, as run_stream
           does), then await in submission order, sampling queue depth
           and runtime gauges at each window boundary.  Per-window arena
           sampling is meaningless when windows overlap across domains,
           so that field stays empty. *)
        let fe =
          Serving.Frontend.create ~domains
            ~capacity:(max 16 (max (2 * domains) (2 * max_batch)))
            (* decode: deadlines ride on the trace's tenant classes, so
               the front-end must not also impose a blanket default *)
            ?deadline_ns:(if is_decode then None else deadline_ns)
            ?batching:(if batching_active then Some bcfg else None)
            srv
        in
        let o, depths =
          match dtrace with
          | Some tr ->
              (* per-session software pipelining: a session's step [t+1]
                 goes in only after its step [t] resolves; events carry
                 their tenant class's deadline *)
              let pairs = Serving.Stream.run_trace fe w tr in
              sample_runtime_gauges ();
              (Array.map snd pairs, [])
          | None ->
              let tks =
                Array.map (fun lens -> Serving.Frontend.submit_wait fe w lens)
                  stream.Serving.Stream.items
              in
              let boundaries =
                List.init windows (fun i ->
                    (if i = windows - 1 then requests else (i + 1) * wsize) - 1)
              in
              let depths = ref [] in
              let o =
                Array.mapi
                  (fun i tk ->
                    let outcome = Serving.Frontend.await tk in
                    if List.mem i boundaries then begin
                      depths := Serving.Frontend.queue_length fe :: !depths;
                      sample_runtime_gauges ()
                    end;
                    outcome)
                  tks
              in
              (o, List.rev !depths)
        in
        Serving.Frontend.shutdown fe;
        (o, [], depths)
      end
    in
    let wall_ns = (Obs.Trace_sink.now_us () -. t0_us) *. 1e3 in
    (* plans built by the stream itself: one per structure, plus at most
       one duplicate per domain racing on a cold structure *)
    let plan_misses = (Serving.Workload.plan_stats ()).Cora.Cache.misses - plan_misses0 in
    Obs.Span.set_enabled false;
    (match trace_out with
    | Some path ->
        Obs.Report.write_file path (Obs.Trace_sink.to_chrome_string ());
        let n_events = validate_trace path ~required:[] in
        Printf.eprintf "wrote %s (%d trace events, %d requests, %d spans dropped)\n%!" path
          n_events
          (List.length (Obs.Trace_sink.request_ids ()))
          (Obs.Trace_sink.dropped ())
    | None -> ());
    (match flight_out with
    | Some path ->
        Obs.Report.write_file path
          (Obs.Json.to_string (Obs.Flight.to_json ~reason:"bench-stream" ()));
        Printf.eprintf "wrote %s (%d flight records)\n%!" path
          (List.length (Obs.Flight.records ()))
    | None -> ());
    (match openmetrics_out with
    | Some path ->
        sample_runtime_gauges ();
        let text = Obs.Exposition.to_openmetrics () in
        (match Obs.Exposition.validate text with
        | Ok n ->
            Obs.Report.write_file path text;
            Printf.eprintf "wrote %s (%d samples, validated)\n%!" path n
        | Error e -> Fmt.failwith "openmetrics: %s" e)
    | None -> ());
    (* served responses, in submission order; typed failures counted apart *)
    let responses =
      Array.to_list outcomes
      |> List.filter_map (function Serving.Frontend.Response r -> Some r | _ -> None)
    in
    let n_ok = List.length responses in
    let count p = Array.fold_left (fun acc o -> if p o then acc + 1 else acc) 0 outcomes in
    let n_rejected = count (function Serving.Frontend.Overloaded -> true | _ -> false) in
    let n_deadline =
      count (function Serving.Frontend.Deadline_exceeded _ -> true | _ -> false)
    in
    let n_errors = count (function Serving.Frontend.Error _ -> true | _ -> false) in
    let n_degraded = Obs.Metrics.value (Obs.Metrics.counter "frontend.degraded") in
    let lat = Array.of_list (List.map (fun r -> r.Serving.Server.model_ns) responses) in
    let p q = if n_ok = 0 then 0.0 else Obs.Metrics.percentile_of lat q in
    let total_ns = Array.fold_left ( +. ) 0.0 lat in
    let throughput_rps =
      if total_ns > 0.0 then float_of_int n_ok /. (total_ns /. 1e9) else 0.0
    in
    let goodput_rps = if wall_ns > 0.0 then float_of_int n_ok /. (wall_ns /. 1e9) else 0.0 in
    (* order-independent digest of every served output bit
       ({!Serving.Stream.digest}).  Lets CI compare two whole runs (e.g.
       --opt 3 vs --opt 0) for bitwise equality across processes without
       shipping the outputs; all-zero without --exec *)
    let stream_checksum = Serving.Stream.digest responses in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 responses in
    let c_hits = sum (fun r -> r.Serving.Server.compile_hits)
    and c_misses = sum (fun r -> r.Serving.Server.compile_misses) in
    let compile_hit_rate =
      if c_hits + c_misses = 0 then 0.0
      else float_of_int c_hits /. float_of_int (c_hits + c_misses)
    in
    let p_hits = sum (fun r -> if r.Serving.Server.prelude_hit then 1 else 0) in
    let prelude_hit_rate = float_of_int p_hits /. float_of_int (max 1 n_ok) in
    (* Per-window p50s, over total latency and over the cache-sensitive
       overhead (prelude host build + copy).  Total latency varies with
       which shapes land in a window; the overhead is what caching
       removes — cold shapes concentrate in the first window, so under
       caching the later windows' overhead p50 must not rise.  Windows
       partition the served responses in submission order. *)
    let overhead =
      Array.of_list
        (List.map
           (fun r -> r.Serving.Server.prelude_host_ns +. r.Serving.Server.prelude_copy_ns)
           responses)
    in
    let w_windows = max 1 (min windows n_ok) in
    let w_size = max 1 (n_ok / w_windows) in
    let window_p50_of arr =
      if n_ok = 0 then []
      else
        List.init w_windows (fun i ->
            let lo = i * w_size in
            let hi = if i = w_windows - 1 then n_ok else lo + w_size in
            Obs.Metrics.percentile_of (Array.sub arr lo (hi - lo)) 50.0)
    in
    let window_p50 = window_p50_of lat in
    let window_overhead_p50 = window_p50_of overhead in
    let host_ns_on_hits =
      List.fold_left
        (fun acc r ->
          if r.Serving.Server.prelude_hit then acc +. r.Serving.Server.prelude_host_ns
          else acc)
        0.0 responses
    in
    (* Scalar work actually executed (loads + stores + flops across all
       requests) and its wall-clock rate — the engine A/B number: model
       latencies are engine-independent, this is not. *)
    let scalar_ops =
      List.fold_left
        (fun acc r ->
          match r.Serving.Server.counters with
          | None -> acc
          | Some cs ->
              List.fold_left
                (fun acc (name, v) ->
                  match name with "loads" | "stores" | "flops" -> acc + v | _ -> acc)
                acc cs)
        0 responses
    in
    let scalar_ops_per_sec =
      if wall_ns > 0.0 then float_of_int scalar_ops /. (wall_ns /. 1e9) else 0.0
    in
    (* batch-former accounting, from its own counters: how many
       mega-batches formed, and how much the tile-aligned ragged packing
       ([padding_waste_frac]) saved against the dense max-len envelope of
       the same bins ([naive_…]) and against serving every request as its
       own dense batch ([unbatched_…], computed from the stream itself) *)
    let mval name = Obs.Metrics.value (Obs.Metrics.counter name) in
    let n_batches = mval "batcher.batches" in
    let n_batch_members = mval "batcher.members" in
    let n_evicted = mval "batcher.evicted" in
    let mean_batch_size =
      if n_batches = 0 then 0.0 else float_of_int n_batch_members /. float_of_int n_batches
    in
    let waste actual padded =
      if padded = 0 then 0.0 else 1.0 -. (float_of_int actual /. float_of_int padded)
    in
    let padding_waste_frac = waste (mval "batcher.elems_actual") (mval "batcher.elems_padded") in
    let naive_padding_waste_frac =
      waste (mval "batcher.elems_actual") (mval "batcher.elems_naive")
    in
    let unbatched_padding_waste_frac =
      match w.Serving.Workload.batching with
      | None -> 0.0
      | Some bd ->
          let actual = ref 0 and padded = ref 0 in
          Array.iter
            (fun lens ->
              let rows = bd.Serving.Workload.rows lens in
              let maxr = Array.fold_left max 0 rows in
              actual := !actual + Array.fold_left ( + ) 0 rows;
              padded :=
                !padded + (Array.length rows * Serving.Batcher.Pack.ceilmult maxr tile))
            stream.Serving.Stream.items;
          waste !actual !padded
    in
    (* autotuner accounting: per-run totals from the tuner's own tally
       plus the share of responses actually served from a tuned schedule *)
    let count_tuner v =
      List.fold_left
        (fun acc r -> if r.Serving.Server.tuner = v then acc + 1 else acc)
        0 responses
    in
    let tuned_requests = count_tuner "tuned" in
    let tuner_totals = Autotune.Tuner.totals () in
    let plan_entries = (Serving.Workload.plan_stats ()).Cora.Cache.entries in
    (* Steady-state goodput pair, the hot-path regression budget, on the
       model-only path only (under --exec it would replay the whole stream
       twelve more times on the engine).  The main replay warmed every
       memo (tuner decisions, baked jobs, preludes, launch models), so a
       tuned replay against a hand replay of the same stream times pure
       steady-state serving.  Both run in this process: cross-process wall
       clocks in shared containers drift by 2x between identical runs.
       The hand server gets its own warming pass first (its job-memo keys
       are mode-prefixed).  Each window starts from a finished major
       collection, so the collector's debt at the boundary does not decide
       which window pays for pending major work; the servers alternate
       over [steady_windows] windows each and report medians, so neither
       side always runs first or after the other's garbage. *)
    let steady_hand_rps, steady_tuned_rps =
      if (not autotune) || exec || concurrent || batching_active then (0.0, 0.0)
      else begin
        let srv_h = Serving.Server.create ~execute:exec ~engine ~opt () in
        ignore (Serving.Stream.replay srv_h w stream);
        ignore (Serving.Stream.replay srv w stream);
        let time_one s =
          Gc.full_major ();
          let t0 = Obs.Trace_sink.now_us () in
          ignore (Serving.Stream.replay s w stream);
          let dt_us = Obs.Trace_sink.now_us () -. t0 in
          if dt_us > 0.0 then float_of_int requests /. (dt_us *. 1e-6) else 0.0
        in
        let hs = ref [] and ts = ref [] in
        for _ = 1 to steady_windows do
          hs := time_one srv_h :: !hs;
          ts := time_one srv :: !ts
        done;
        (median !hs, median !ts)
      end
    in
    let json =
      Obs.Json.Obj
        [
          ("workload", Obs.Json.String workload);
          ("engine", Obs.Json.String (match engine with `Interp -> "interp" | `Compiled -> "compiled"));
          ("opt", Obs.Json.Int (Ir.Optimize.int_of_level opt));
          ( "dataset",
            if workload = "encoder" then Obs.Json.String dataset else Obs.Json.Null );
          ("seed", Obs.Json.Int seed);
          ("requests", Obs.Json.Int requests);
          ("pool", Obs.Json.Int pool);
          ("execute", Obs.Json.Bool exec);
          ("domains", Obs.Json.Int domains);
          ( "deadline_ms",
            match deadline_ms with Some d -> Obs.Json.Float d | None -> Obs.Json.Null );
          ("batching", Obs.Json.Bool batching);
          ("max_batch", Obs.Json.Int max_batch);
          ("max_wait_ms", Obs.Json.Float max_wait_ms);
          ("tile", Obs.Json.Int tile);
          ("batches", Obs.Json.Int n_batches);
          ("mean_batch_size", Obs.Json.Float mean_batch_size);
          ("evicted", Obs.Json.Int n_evicted);
          ("padding_waste_frac", Obs.Json.Float padding_waste_frac);
          ("naive_padding_waste_frac", Obs.Json.Float naive_padding_waste_frac);
          ("unbatched_padding_waste_frac", Obs.Json.Float unbatched_padding_waste_frac);
          ("served", Obs.Json.Int n_ok);
          ("rejected", Obs.Json.Int n_rejected);
          ("deadline_exceeded", Obs.Json.Int n_deadline);
          ("degraded", Obs.Json.Int n_degraded);
          ("errors", Obs.Json.Int n_errors);
          ("compile_hit_rate", Obs.Json.Float compile_hit_rate);
          ("prelude_hit_rate", Obs.Json.Float prelude_hit_rate);
          ("throughput_rps", Obs.Json.Float throughput_rps);
          ("goodput_rps", Obs.Json.Float goodput_rps);
          ("p50_ns", Obs.Json.Float (p 50.0));
          ("p95_ns", Obs.Json.Float (p 95.0));
          ("p99_ns", Obs.Json.Float (p 99.0));
          ("window_p50_ns", Obs.Json.List (List.map (fun v -> Obs.Json.Float v) window_p50));
          ( "window_overhead_p50_ns",
            Obs.Json.List (List.map (fun v -> Obs.Json.Float v) window_overhead_p50) );
          ("prelude_host_ns_on_hits", Obs.Json.Float host_ns_on_hits);
          ("compile_cache_entries", Obs.Json.Int (Cora.Lower.memo_size ()));
          ("prelude_cache_entries", Obs.Json.Int (Cora.Prelude_cache.size ()));
          ("plan_entries", Obs.Json.Int plan_entries);
          ("plan_misses", Obs.Json.Int plan_misses);
          ("autotune", Obs.Json.Bool autotune);
          ("tuned_requests", Obs.Json.Int tuned_requests);
          ("autotune_fallbacks", Obs.Json.Int tuner_totals.Autotune.Tuner.t_fallbacks);
          ("autotune_searched", Obs.Json.Int tuner_totals.Autotune.Tuner.t_searched);
          ("autotune_pruned", Obs.Json.Int tuner_totals.Autotune.Tuner.t_pruned);
          ("autotune_tuned_wins", Obs.Json.Int tuner_totals.Autotune.Tuner.t_tuned_wins);
          ("autotune_tunes", Obs.Json.Int tuner_totals.Autotune.Tuner.t_tunes);
          ("autotune_memo_entries", Obs.Json.Int (Autotune.Tuner.memo_size ()));
          ("autotune_steady_hand_rps", Obs.Json.Float steady_hand_rps);
          ("autotune_steady_tuned_rps", Obs.Json.Float steady_tuned_rps);
          ("wall_ns", Obs.Json.Float wall_ns);
          ("scalar_ops", Obs.Json.Int scalar_ops);
          ("scalar_ops_per_sec", Obs.Json.Float scalar_ops_per_sec);
          ("stream_checksum", Obs.Json.String (Printf.sprintf "%016Lx" stream_checksum));
          ("arena_hits", Obs.Json.Int (Obs.Metrics.value (Obs.Metrics.counter "arena.hit")));
          ("arena_misses", Obs.Json.Int (arena_miss_now ()));
          ( "window_arena_miss",
            Obs.Json.List (List.map (fun v -> Obs.Json.Int v) window_arena_miss) );
          ( "window_queue_depth",
            Obs.Json.List (List.map (fun v -> Obs.Json.Int v) window_queue_depth) );
          ("trace_dropped", Obs.Json.Int (Obs.Trace_sink.dropped ()));
        ]
    in
    Printf.printf "BENCH_STREAM %s\n" (Obs.Json.to_string json);
    (* decode: per-step accounting plus the delta-vs-rebuild prelude pair *)
    let decode_stats =
      match dtrace with
      | None -> None
      | Some tr ->
          (* main-replay delta counters — snapshot before the pair below
             replays the trace two more times *)
          let d_updated = mval "prelude.tables_delta_updated" in
          let d_shared = mval "prelude.tables_shared" in
          let d_builds = mval "prelude_cache.delta" in
          Cora.Prelude.set_delta_check false;
          let n_decode_served = ref 0 in
          Array.iteri
            (fun i o ->
              match (tr.Serving.Stream.events.(i).Serving.Stream.phase, o) with
              | Serving.Stream.Decode _, Serving.Frontend.Response _ ->
                  incr n_decode_served
              | _ -> ())
            outcomes;
          let steps_per_sec =
            if wall_ns > 0.0 then float_of_int !n_decode_served /. (wall_ns /. 1e9)
            else 0.0
          in
          (* mean per-step KV-cache storage padding waste at the seq_pad
             row granularity — the figure the paper's minimal-padding
             claim cashes out to in a decode stream *)
          let seq_pad =
            (Transformer.Config.tiny ~lens:[| 1 |]).Transformer.Config.seq_pad
          in
          let waste_sum = ref 0.0 and waste_n = ref 0 in
          Array.iter
            (fun (e : Serving.Stream.event) ->
              match e.Serving.Stream.phase with
              | Serving.Stream.Decode _ ->
                  let actual = Array.fold_left ( + ) 0 e.Serving.Stream.lens in
                  let padded =
                    Array.fold_left
                      (fun acc l -> acc + Serving.Batcher.Pack.ceilmult l seq_pad)
                      0 e.Serving.Stream.lens
                  in
                  if padded > 0 then begin
                    waste_sum :=
                      !waste_sum +. (1.0 -. (float_of_int actual /. float_of_int padded));
                    incr waste_n
                  end
              | _ -> ())
            tr.Serving.Stream.events;
          let mean_waste =
            if !waste_n = 0 then 0.0 else !waste_sum /. float_of_int !waste_n
          in
          (* In-process pair: a serial trace replay with the delta path
             against the same workload stripped of [prev_tables] (full
             rebuild per step).  Model ns is deterministic (driven by the
             built work fields) and must repeat exactly; wall us is
             measured over [decode_reps] alternating repetitions of each
             side and reported as medians.  Steady state = decode steps
             >= 2 — the prefill and the first decode step build from
             scratch in both modes. *)
          let steady_sum wl =
            Serving.Server.reset_caches ();
            let s = Serving.Server.create ~execute:exec ~engine ~opt () in
            let model = ref 0.0 and wall = ref 0.0 and n = ref 0 in
            List.iteri
              (fun i (r : Serving.Server.response) ->
                match tr.Serving.Stream.events.(i).Serving.Stream.phase with
                | Serving.Stream.Decode k when k >= 2 ->
                    incr n;
                    model := !model +. r.Serving.Server.prelude_host_ns;
                    wall :=
                      !wall
                      +. Option.value ~default:0.0
                           (List.assoc_opt "prelude" r.Serving.Server.stages_us)
                | _ -> ())
              (Serving.Stream.replay s wl stream);
            (!model, !wall, !n)
          in
          let rebuild_w = { w with Serving.Workload.prev_tables = None } in
          let reps =
            List.init decode_reps (fun _ ->
                let d = steady_sum w in
                (d, steady_sum rebuild_w))
          in
          let (delta_model, _, steady_n), (rebuild_model, _, _) = List.hd reps in
          List.iter
            (fun ((dm, _, dn), (rm, _, _)) ->
              if dm <> delta_model || rm <> rebuild_model || dn <> steady_n then
                Fmt.failwith "decode: modeled prelude cost differs between repetitions")
            reps;
          let delta_wall = median (List.map (fun ((_, dw, _), _) -> dw) reps) in
          let rebuild_wall = median (List.map (fun (_, (_, rw, _)) -> rw) reps) in
          let wall_ratio = if rebuild_wall > 0.0 then delta_wall /. rebuild_wall else 0.0 in
          let speedup = if delta_model > 0.0 then rebuild_model /. delta_model else 0.0 in
          let dj =
            Obs.Json.Obj
              [
                ("sessions", Obs.Json.Int tr.Serving.Stream.sessions);
                ("steps", Obs.Json.Int tr.Serving.Stream.steps);
                ("events", Obs.Json.Int (Array.length tr.Serving.Stream.events));
                ("decode_steps_served", Obs.Json.Int !n_decode_served);
                ("steps_per_sec", Obs.Json.Float steps_per_sec);
                ("tables_delta_updated", Obs.Json.Int d_updated);
                ("tables_shared", Obs.Json.Int d_shared);
                ("delta_builds", Obs.Json.Int d_builds);
                ("steady_events", Obs.Json.Int steady_n);
                ("prelude_delta_model_ns", Obs.Json.Float delta_model);
                ("prelude_rebuild_model_ns", Obs.Json.Float rebuild_model);
                ("prelude_model_speedup", Obs.Json.Float speedup);
                ("prelude_delta_wall_us", Obs.Json.Float delta_wall);
                ("prelude_rebuild_wall_us", Obs.Json.Float rebuild_wall);
                ("prelude_wall_ratio", Obs.Json.Float wall_ratio);
                ("mean_step_padding_waste_frac", Obs.Json.Float mean_waste);
              ]
          in
          Printf.printf "BENCH_DECODE %s\n" (Obs.Json.to_string dj);
          Printf.eprintf
            "decode: %d sessions x %d steps: %.0f steps/s; steady prelude delta %.0f \
             ns vs rebuild %.0f ns (%.1fx); %d tables delta-updated, %d shared\n"
            tr.Serving.Stream.sessions tr.Serving.Stream.steps steps_per_sec delta_model
            rebuild_model speedup d_updated d_shared;
          Some (d_updated, delta_model, rebuild_model)
    in
    Printf.eprintf
      "%s: %d requests (%d shapes, seed %d, %d domain%s): p50 %.1f us, p95 %.1f us, p99 \
       %.1f us; compile hit rate %.2f, prelude hit rate %.2f; goodput %.0f rps\n"
      workload requests pool seed domains
      (if domains = 1 then "" else "s")
      (p 50.0 /. 1e3) (p 95.0 /. 1e3) (p 99.0 /. 1e3) compile_hit_rate prelude_hit_rate
      goodput_rps;
    if smoke then begin
      (* every request goes through Workload.plan *)
      if plan_entries = 0 then Fmt.failwith "smoke: plan memo is empty";
      (* every decode step has one row count, hence one structure *)
      if is_decode && (not batching_active) && (plan_misses < 1 || plan_misses > domains) then
        Fmt.failwith "smoke: decode stream built %d plans, expected 1..%d (one structure)"
          plan_misses domains;
      if n_ok <> requests then
        Fmt.failwith "smoke: %d of %d requests served (%d rejected, %d past deadline, %d errored)"
          n_ok requests n_rejected n_deadline n_errors;
      if exec && scalar_ops_per_sec <= 0.0 then
        Fmt.failwith "smoke: scalar_ops_per_sec is %g, expected > 0" scalar_ops_per_sec;
      (* hit-rate floors assume the solo request signatures repeat;
         mega-batch signatures depend on window composition, so under
         --batching only the structural checks apply *)
      if (not batching_active) && compile_hit_rate <= 0.0 then
        Fmt.failwith "smoke: compile cache never hit";
      if Cora.Lower.memo_size () = 0 then Fmt.failwith "smoke: compile cache is empty";
      (* a decode trace never repeats a shape — its prelude economics come
         from the delta path, asserted below, not from hits *)
      if (not batching_active) && (not is_decode) && prelude_hit_rate <= 0.0 then
        Fmt.failwith "smoke: prelude cache never hit";
      if host_ns_on_hits <> 0.0 then
        Fmt.failwith "smoke: prelude host work on hits is %g ns, expected 0" host_ns_on_hits;
      (* the cache-sensitive overhead must not rise again once warm *)
      let rec check_monotone i = function
        | prev :: (cur :: _ as rest) ->
            if cur > prev +. 1e-6 then
              Fmt.failwith "smoke: window %d overhead p50 rose (%.1f -> %.1f ns)" (i + 1)
                prev cur;
            check_monotone (i + 1) rest
        | _ -> ()
      in
      (* both steady-state checks assume a flat unbatched stream: mega-batch
         signatures vary with window composition, and decode grows every
         shape (its budget is the delta assertion below) *)
      if (not concurrent) && (not batching_active) && not is_decode then
        check_monotone 0 window_overhead_p50;
      (* zero-allocation steady state: once the first window has populated
         the arena's size classes, later windows must not miss (serial
         only: concurrent windows interleave across domains) *)
      if exec && (not concurrent) && (not batching_active) && not is_decode then
        List.iteri
          (fun i m ->
            if i > 0 && m > 0 then
              Fmt.failwith "smoke: arena misses grew in window %d (+%d) — steady state allocates"
                i m)
          window_arena_miss;
      (* batching accounting: batches actually formed, amortized >1
         request each, and the tile-aligned packing never pads more than
         serving every request as its own dense batch would *)
      if batching_active then begin
        if n_batches = 0 then Fmt.failwith "smoke: batching enabled but no batches formed";
        if n_evicted > 0 then Fmt.failwith "smoke: %d batch members evicted" n_evicted;
        if requests > 1 && max_batch > 1 && mean_batch_size <= 1.0 then
          Fmt.failwith "smoke: mean batch size %.2f, expected > 1" mean_batch_size;
        if padding_waste_frac > unbatched_padding_waste_frac +. 1e-9 then
          Fmt.failwith
            "smoke: tile padding waste %.4f exceeds the one-request-one-batch baseline %.4f"
            padding_waste_frac unbatched_padding_waste_frac
      end;
      (* every served output, bitwise against the cache-bypassed
         interpreter reference (one serve per distinct vector); an
         outcome that is not a response is a mismatch too *)
      (if exec then
         match Serving.Stream.check w stream.Serving.Stream.items outcomes with
         | [] -> ()
         | i :: _ as bad ->
             Fmt.failwith
               "smoke: %d of %d outputs differ from the reference (first: request %d, %s)"
               (List.length bad) requests i
               (Serving.Frontend.outcome_label outcomes.(i)));
      if autotune && exec then begin
        if tuner_totals.Autotune.Tuner.t_tunes = 0 then
          Fmt.failwith "smoke: autotune enabled but no tune ever ran";
        if Autotune.Tuner.memo_size () = 0 then
          Fmt.failwith "smoke: autotune memo is empty after the replay"
      end;
      (* decode: the delta path must actually carry the stream (tables
         delta-updated during the main replay) and pay at most half the
         rebuild's modeled prelude cost on steady-state steps.  The
         differential self-check armed above already vouched bitwise for
         every delta table. *)
      Option.iter
        (fun (d_updated, delta_model, rebuild_model) ->
          if d_updated = 0 then
            Fmt.failwith "smoke: decode stream never delta-updated a prelude table";
          if (not batching_active) && delta_model <= 0.0 then
            Fmt.failwith "smoke: steady-state delta prelude costs 0 ns";
          if rebuild_model > 0.0 && delta_model > 0.5 *. rebuild_model then
            Fmt.failwith
              "smoke: steady-state delta prelude %.0f ns exceeds half the rebuild's %.0f ns"
              delta_model rebuild_model)
        decode_stats;
      Printf.eprintf "smoke: OK\n"
    end
  in
  Cmd.v
    (Cmd.info "bench-stream"
       ~doc:
         "Replay a deterministic request stream through the serving layer (compile + \
          prelude caches) and print a BENCH_STREAM JSON summary line.")
    Term.(
      const run $ workload_arg $ dataset_arg $ requests_arg $ pool_arg $ seed_arg
      $ exec_flag $ engine_arg $ opt_arg $ domains_arg $ deadline_ms_arg $ batching_flag
      $ max_batch_arg $ max_wait_ms_arg $ trace_out_arg $ flight_out_arg $ openmetrics_arg
      $ autotune_flag $ smoke_flag)

let () =
  let info = Cmd.info "cora" ~doc:"CoRa ragged tensor compiler — reproduction CLI." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ dump_cmd; encode_cmd; emit_cmd; stats_cmd; trace_cmd; bench_stream_cmd ]))

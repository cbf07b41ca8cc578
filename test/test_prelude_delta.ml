(* Incremental prelude maintenance (the decode fast path):

   - property: for random length-table growth sequences — including
     zero-length rows, uneven growth and nested raggedness (the decode
     score matrices are ragged in two independent lenfuns) — a
     delta-updated prelude is bitwise-identical to a from-scratch build,
     and chains of deltas do not drift;
   - serving: a decode trace served concurrently through the front-end
     (per-session pipelining) replays to the serial oracle's checksums
     bitwise, with zero rejected/errored requests, while the delta path
     actually fires (counters) under the differential self-check. *)

open Cora

let decode_w () = Serving.Workload.decode ~batch:3 ~max_src:10 ()

let defs_of (j : Serving.Workload.job) =
  List.concat_map (fun (k : Lower.kernel) -> k.Lower.aux) j.Serving.Workload.kernels

(* Bitwise comparison of two built preludes: same table names in the same
   order, every table structurally equal (int arrays — structural equality
   IS bitwise), and identical entry accounting (the copy cost model). *)
let check_built_equal msg (a : Prelude.built) (b : Prelude.built) =
  Alcotest.(check (list string))
    (msg ^ ": table names")
    (List.map fst b.Prelude.tables)
    (List.map fst a.Prelude.tables);
  List.iter2
    (fun (n, va) (_, vb) ->
      Alcotest.(check bool) (msg ^ ": table " ^ n ^ " bitwise") true
        (Prelude.value_equal va vb))
    a.Prelude.tables b.Prelude.tables;
  Alcotest.(check int) (msg ^ ": storage entries") b.Prelude.storage_entries
    a.Prelude.storage_entries;
  Alcotest.(check int) (msg ^ ": fusion entries") b.Prelude.fusion_entries
    a.Prelude.fusion_entries

(* One growth step: each row independently grows by 0..2 tokens (so some
   steps leave rows — and whole tables — unchanged, exercising the
   sharing fast path). *)
let grow rng lens = Array.map (fun l -> l + Workloads.Rng.int rng 3) lens

let test_delta_matches_rebuild () =
  let w = decode_w () in
  let build lens = w.Serving.Workload.build lens in
  for trial = 0 to 7 do
    let rng = Workloads.Rng.create (1000 + trial) in
    let batch = 1 + Workloads.Rng.int rng 4 in
    (* initial lengths include 0 (empty KV rows) and 1 *)
    let lens = ref (Array.init batch (fun _ -> Workloads.Rng.int rng 9)) in
    let job = build !lens in
    let prev =
      ref (Prelude.build ~dedup_defs:true (defs_of job) job.Serving.Workload.lenv)
    in
    let old_lenv = ref job.Serving.Workload.lenv in
    for step = 1 to 5 do
      let lens' = grow rng !lens in
      let job' = build lens' in
      let fresh =
        Prelude.build ~dedup_defs:true (defs_of job') job'.Serving.Workload.lenv
      in
      let delta =
        Prelude.delta_update ~prev:!prev ~old_lenv:!old_lenv (defs_of job')
          job'.Serving.Workload.lenv
      in
      check_built_equal
        (Printf.sprintf "trial %d step %d" trial step)
        delta fresh;
      (* chain: the NEXT delta starts from this delta's result, so drift
         would compound and get caught downstream *)
      lens := lens';
      prev := delta;
      old_lenv := job'.Serving.Workload.lenv
    done
  done

(* The all-grow +1 decode pattern must share the small unchanged tables
   and do strictly less table-build work than a rebuild. *)
let test_delta_counters_and_sharing () =
  let w = decode_w () in
  let build lens = w.Serving.Workload.build lens in
  let lens = [| 7; 5; 4 |] in
  let job = build lens in
  let prev = Prelude.build ~dedup_defs:true (defs_of job) job.Serving.Workload.lenv in
  let lens' = Array.map (fun l -> l + 1) lens in
  let job' = build lens' in
  let delta_c = Obs.Metrics.counter "prelude.tables_delta_updated" in
  let shared_c = Obs.Metrics.counter "prelude.tables_shared" in
  let d0 = Obs.Metrics.value delta_c and s0 = Obs.Metrics.value shared_c in
  let delta =
    Prelude.delta_update ~prev ~old_lenv:job.Serving.Workload.lenv (defs_of job')
      job'.Serving.Workload.lenv
  in
  Alcotest.(check bool) "delta-updated tables counted" true
    (Obs.Metrics.value delta_c > d0);
  (* the tgt-side tables never change in a decode stream (tgt = 1 always) *)
  Alcotest.(check bool) "unchanged tables shared by reference" true
    (Obs.Metrics.value shared_c > s0);
  let fresh =
    Prelude.build ~dedup_defs:true (defs_of job') job'.Serving.Workload.lenv
  in
  check_built_equal "all-grow step" delta fresh;
  Alcotest.(check bool) "delta work strictly below rebuild work" true
    (delta.Prelude.storage_work + delta.Prelude.fusion_work
    < fresh.Prelude.storage_work + fresh.Prelude.fusion_work)

(* The differential self-check must pass on a real delta and fire on a
   corrupted one. *)
let test_delta_check () =
  let w = decode_w () in
  let build lens = w.Serving.Workload.build lens in
  let job = build [| 4; 2 |] in
  let prev = Prelude.build ~dedup_defs:true (defs_of job) job.Serving.Workload.lenv in
  let job' = build [| 5; 3 |] in
  Prelude.set_delta_check true;
  Fun.protect
    ~finally:(fun () -> Prelude.set_delta_check false)
    (fun () ->
      let _ =
        Prelude.delta_update ~prev ~old_lenv:job.Serving.Workload.lenv (defs_of job')
          job'.Serving.Workload.lenv
      in
      (* Corrupt a psum table in a way its updater cannot detect (a
         constant shift preserves the per-row diffs the updater scans, so
         an unchanged-length step would share the bad array); only the
         differential check can catch it. *)
      let victim =
        List.find_map
          (function
            | n, Prelude.Table a when Array.length a > 1 && String.length n >= 4
                                      && String.sub n 0 4 = "psum" ->
                Some n
            | _ -> None)
          prev.Prelude.tables
        |> Option.get
      in
      let corrupted =
        {
          prev with
          Prelude.tables =
            List.map
              (fun (n, v) ->
                match v with
                | Prelude.Table a when n = victim ->
                    (n, Prelude.Table (Array.map (fun x -> x + 4) a))
                | _ -> (n, v))
              prev.Prelude.tables;
        }
      in
      Alcotest.check_raises "corrupted delta caught" (Prelude.Delta_mismatch victim)
        (fun () ->
          ignore
            (Prelude.delta_update ~prev:corrupted ~old_lenv:job.Serving.Workload.lenv
               (defs_of job) job.Serving.Workload.lenv)))

(* End-to-end: concurrent trace replay == the serial reference (a
   cache-bypassed interpreter), bitwise; delta path exercised; no
   rejections or errors. *)
let test_decode_trace_concurrent_vs_serial () =
  Serving.Server.reset_caches ();
  let w = decode_w () in
  let trace =
    Serving.Stream.generate_trace ~workload:w ~sessions:4 ~steps:4 ~burst:2 ~seed:42 ()
  in
  Prelude.set_delta_check true;
  Fun.protect
    ~finally:(fun () -> Prelude.set_delta_check false)
    (fun () ->
      let delta_c = Obs.Metrics.counter "prelude_cache.delta" in
      let d0 = Obs.Metrics.value delta_c in
      let srv = Serving.Server.create () in
      let fe = Serving.Frontend.create ~domains:3 srv in
      let outcomes = Serving.Stream.run_trace fe w trace in
      Serving.Frontend.shutdown fe;
      Alcotest.(check bool) "delta path fired" true (Obs.Metrics.value delta_c > d0);
      let items =
        Array.map (fun (e : Serving.Stream.event) -> e.Serving.Stream.lens) trace.events
      in
      List.iter
        (fun i ->
          let e, o = outcomes.(i) in
          Alcotest.failf "event %d (%s session %d): %s differs from the reference" i
            (Serving.Stream.phase_label e.Serving.Stream.phase)
            e.Serving.Stream.session (Serving.Frontend.outcome_label o))
        (Serving.Stream.check w items (Array.map snd outcomes)))

let () =
  Alcotest.run "prelude_delta"
    [
      ( "delta",
        [
          Alcotest.test_case "random growth: delta == rebuild bitwise" `Quick
            test_delta_matches_rebuild;
          Alcotest.test_case "+1 growth: counters, sharing, less work" `Quick
            test_delta_counters_and_sharing;
          Alcotest.test_case "differential self-check" `Quick test_delta_check;
        ] );
      ( "decode-serving",
        [
          Alcotest.test_case "concurrent trace == serial oracle" `Quick
            test_decode_trace_concurrent_vs_serial;
        ] );
    ]

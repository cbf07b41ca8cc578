(* Request-scoped telemetry: trace-context propagation from admission to
   worker domain, per-request span-chain reassembly from the bounded
   sink, the flight-recorder ring and its post-mortem dumps, and the
   OpenMetrics exposition (rendered, then re-validated strictly). *)

open Obs

let reset_all () =
  Span.set_enabled false;
  Metrics.reset ();
  Trace_sink.clear ();
  Flight.clear ();
  Flight.set_auto_dump None;
  Serving.Server.reset_caches ()

(* ---------------- trace context ---------------- *)

let test_with_request_scoping () =
  reset_all ();
  Alcotest.(check (option int)) "no ambient request" None (Span.current_request ());
  Span.with_request 7 (fun () ->
      Alcotest.(check (option int)) "inside scope" (Some 7) (Span.current_request ());
      Span.with_request 8 (fun () ->
          Alcotest.(check (option int)) "nested shadows" (Some 8) (Span.current_request ()));
      Alcotest.(check (option int)) "restored after nest" (Some 7) (Span.current_request ()));
  Alcotest.(check (option int)) "restored after scope" None (Span.current_request ());
  (try Span.with_request 9 (fun () -> failwith "no") with Failure _ -> ());
  Alcotest.(check (option int)) "restored on exception" None (Span.current_request ())

let test_spans_carry_request_id () =
  reset_all ();
  Span.set_enabled true;
  Span.with_request 3 (fun () -> Span.with_span "tagged" (fun () -> ()));
  Span.with_span "untagged" (fun () -> ());
  Span.set_enabled false;
  let find n = List.find (fun e -> e.Trace_sink.name = n) (Trace_sink.events ()) in
  Alcotest.(check (option int)) "tagged" (Some 3) (find "tagged").Trace_sink.req;
  Alcotest.(check (option int)) "untagged" None (find "untagged").Trace_sink.req;
  Alcotest.(check (list int)) "request_ids" [ 3 ] (Trace_sink.request_ids ())

(* ---------------- per-request chains through the front-end ---------------- *)

let test_request_chain_through_frontend () =
  reset_all ();
  Span.set_enabled true;
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:8 () in
  let srv = Serving.Server.create () in
  let fe = Serving.Frontend.create ~domains:2 srv in
  let items = Array.init 6 (fun i -> [| 2 + i; 3; 1 + (i mod 3); 4 |]) in
  let tickets = Array.map (fun lens -> Serving.Frontend.submit fe w lens) items in
  let outcomes = Array.map Serving.Frontend.await tickets in
  Serving.Frontend.shutdown fe;
  Span.set_enabled false;
  Array.iter
    (fun o ->
      match o with
      | Serving.Frontend.Response _ -> ()
      | o -> Alcotest.failf "request not served: %s" (Serving.Frontend.outcome_label o))
    outcomes;
  Array.iter
    (fun tk ->
      let id = Serving.Frontend.request_id tk in
      let chain = Trace_sink.events_for id in
      let names = List.map (fun e -> e.Trace_sink.name) chain in
      (* complete admission -> stage -> outcome chain under one id *)
      List.iter
        (fun required ->
          if not (List.mem required names) then
            Alcotest.failf "request %d: span %s missing from chain [%s]" id required
              (String.concat "; " names))
        [ "frontend.submit"; "frontend.request"; "serve.request"; "serve.compile";
          "serve.prelude"; "serve.execute" ];
      (* admission happened on the submitting domain, serving on a
         worker domain: the id is what stitches them together *)
      let submit = List.find (fun e -> e.Trace_sink.name = "frontend.submit") chain in
      let serve = List.find (fun e -> e.Trace_sink.name = "frontend.request") chain in
      if submit.Trace_sink.tid = serve.Trace_sink.tid then
        Alcotest.fail "submit and serve unexpectedly share a domain";
      (* every span of the chain is tagged with this request alone *)
      List.iter
        (fun e ->
          Alcotest.(check (option int)) "chain span tagged" (Some id) e.Trace_sink.req)
        chain)
    tickets;
  (* chrome export carries args.req for filtering *)
  let doc = Trace_sink.to_chrome_string () in
  (match Json.parse doc with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok j ->
      let evs =
        match Option.bind (Json.member "traceEvents" j) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents"
      in
      let tagged =
        List.filter
          (fun ev ->
            match Option.bind (Json.member "args" ev) (Json.member "req") with
            | Some (Json.Int _) -> true
            | _ -> false)
          evs
      in
      Alcotest.(check bool) "chrome events carry args.req" true (List.length tagged > 0));
  (* the flight ring saw every request, with stage timings and signatures *)
  let records = Flight.records () in
  Alcotest.(check int) "one flight record per request" (Array.length items)
    (List.length records);
  List.iter
    (fun (r : Flight.record) ->
      Alcotest.(check string) "flight outcome" "response" r.Flight.outcome;
      Alcotest.(check bool) "flight sig" true (String.length r.Flight.sig_hex = 16);
      Alcotest.(check (list string))
        "flight stages in pipeline order"
        [ "compile"; "prelude"; "launch"; "execute" ]
        (List.map fst r.Flight.stages_us))
    records

(* ---------------- telemetry scatter from a mega-batch ---------------- *)

(* A request served inside a mega-batch must still own a complete,
   request-id-tagged telemetry chain: admission span, a batch.member
   scatter span carrying the batch coordinates, and a flight record with
   per-request (not per-batch) stage times. *)
let test_batched_scatter () =
  reset_all ();
  Span.set_enabled true;
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:8 () in
  let srv = Serving.Server.create () in
  let batching =
    { Serving.Batcher.default_config with max_batch = 4; max_wait_us = 20000.0 }
  in
  (* one worker + a generous window: all 4 requests form one mega-batch *)
  let fe = Serving.Frontend.create ~domains:1 ~batching srv in
  let items = [| [| 2; 3 |]; [| 7; 1; 4 |]; [| 5 |]; [| 2; 3 |] |] in
  let tickets = Array.map (fun lens -> Serving.Frontend.submit fe w lens) items in
  let outcomes = Array.map Serving.Frontend.await tickets in
  Serving.Frontend.shutdown fe;
  Span.set_enabled false;
  Array.iter
    (fun o ->
      match o with
      | Serving.Frontend.Response _ -> ()
      | o -> Alcotest.failf "request not served: %s" (Serving.Frontend.outcome_label o))
    outcomes;
  let attr_int e key =
    List.assoc_opt key e.Trace_sink.attrs
    |> Option.map (function Trace_sink.Int i -> i | _ -> -1)
  in
  let batch_ids =
    Array.map
      (fun tk ->
        let id = Serving.Frontend.request_id tk in
        let chain = Trace_sink.events_for id in
        let names = List.map (fun e -> e.Trace_sink.name) chain in
        (* admission -> batch -> outcome, all under this request's id *)
        List.iter
          (fun required ->
            if not (List.mem required names) then
              Alcotest.failf "request %d: span %s missing from chain [%s]" id required
                (String.concat "; " names))
          [ "frontend.submit"; "batch.member" ];
        List.iter
          (fun e ->
            Alcotest.(check (option int)) "chain span tagged" (Some id) e.Trace_sink.req)
          chain;
        let m = List.find (fun e -> e.Trace_sink.name = "batch.member") chain in
        Alcotest.(check (option int)) "batch_size on the member span" (Some 4)
          (attr_int m "batch_size");
        match attr_int m "batch_id" with
        | Some b when b > 0 -> b
        | _ -> Alcotest.failf "request %d: no batch_id on batch.member" id)
      tickets
  in
  Array.iter
    (fun b -> Alcotest.(check int) "all members share the batch" batch_ids.(0) b)
    batch_ids;
  (* flight records are per-request: own id, shared batch coordinates,
     stage times scaled to the member's share of the batch *)
  let records = Flight.records () in
  Alcotest.(check int) "one flight record per request" (Array.length items)
    (List.length records);
  List.iter
    (fun (r : Flight.record) ->
      Alcotest.(check string) "flight outcome" "response" r.Flight.outcome;
      Alcotest.(check int) "flight batch id" batch_ids.(0) r.Flight.batch_id;
      Alcotest.(check int) "flight batch size" 4 r.Flight.batch_size;
      Alcotest.(check bool) "per-request stage times" true
        (List.exists (fun (_, us) -> us > 0.0) r.Flight.stages_us))
    records;
  let of_id id =
    List.find (fun (r : Flight.record) -> r.Flight.id = id) records
  in
  let exec (r : Flight.record) = List.assoc "execute" r.Flight.stages_us in
  (* members 1 (16 tiles) and 2 (8 tiles) have different tile shares of
     the same mega-batch, so their scattered stage times must differ *)
  let heavy = of_id (Serving.Frontend.request_id tickets.(1)) in
  let light = of_id (Serving.Frontend.request_id tickets.(2)) in
  Alcotest.(check bool) "stage times follow the tile share" true
    (exec heavy > exec light)

(* ---------------- flight recorder ---------------- *)

let flight_record ~id ~outcome : Flight.record =
  {
    Flight.id;
    workload = "w";
    sig_hex = "00000000deadbeef";
    submitted_us = float_of_int (1000 * id);
    queue_wait_us = 5.0;
    stages_us = [ ("compile", 1.0); ("prelude", 2.0) ];
    outcome;
    compile_hits = 1;
    compile_misses = 0;
    prelude_hit = true;
    engine_hits = 0;
    engine_misses = 0;
    arena_hits = 2;
    arena_misses = 1;
    batch_id = 0;
    batch_size = 1;
    tuner = "off";
  }

let test_flight_ring_bounded () =
  reset_all ();
  Flight.set_capacity 4;
  Fun.protect ~finally:(fun () -> Flight.set_capacity 256)
  @@ fun () ->
  for i = 1 to 10 do
    Flight.record (flight_record ~id:i ~outcome:"response")
  done;
  Alcotest.(check (list int))
    "ring keeps the newest records" [ 7; 8; 9; 10 ]
    (List.map (fun (r : Flight.record) -> r.Flight.id) (Flight.records ()));
  Flight.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Flight.records ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_flight_dump_roundtrip () =
  reset_all ();
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "cora-flight-test" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir)
  @@ fun () ->
  Flight.record (flight_record ~id:1 ~outcome:"response");
  Flight.record (flight_record ~id:2 ~outcome:"deadline_exceeded");
  let path = Flight.dump ~dir ~reason:"test" in
  Alcotest.(check bool) "dump file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.parse s with
  | Error e -> Alcotest.failf "flight dump does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "reason recorded" true
        (Json.member "reason" j = Some (Json.String "test"));
      let records =
        match Option.bind (Json.member "records" j) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no records array"
      in
      Alcotest.(check int) "both records dumped" 2 (List.length records);
      let outcomes =
        List.filter_map
          (fun r ->
            match Json.member "outcome" r with Some (Json.String s) -> Some s | _ -> None)
          records
      in
      Alcotest.(check (list string))
        "outcomes in ring order"
        [ "response"; "deadline_exceeded" ]
        outcomes);
  (* auto-dump: disarmed by default, armed writes, throttled within 1 s *)
  Alcotest.(check (option string)) "disarmed auto_dump" None
    (Flight.auto_dump ~reason:"x");
  Flight.set_auto_dump (Some dir);
  (match Flight.auto_dump ~reason:"error" with
  | None -> Alcotest.fail "armed auto_dump wrote nothing"
  | Some p -> Alcotest.(check bool) "armed auto_dump file" true (Sys.file_exists p));
  Alcotest.(check (option string)) "second dump throttled" None
    (Flight.auto_dump ~reason:"error");
  Flight.set_auto_dump None

(* ---------------- deadline outcomes land in the recorder ---------------- *)

let test_flight_records_deadline () =
  reset_all ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:8 () in
  let srv = Serving.Server.create () in
  (* a deadline in the past: every request expires at dequeue *)
  let fe = Serving.Frontend.create ~domains:1 ~deadline_ns:(-1.0) srv in
  let tk = Serving.Frontend.submit fe w [| 2; 3; 1; 4 |] in
  (match Serving.Frontend.await tk with
  | Serving.Frontend.Deadline_exceeded stage ->
      Alcotest.(check string) "expired in the queue" "queue" stage
  | o -> Alcotest.failf "expected deadline, got %s" (Serving.Frontend.outcome_label o));
  Serving.Frontend.shutdown fe;
  match Flight.records () with
  | [ r ] ->
      Alcotest.(check string) "flight outcome" "deadline_exceeded" r.Flight.outcome;
      Alcotest.(check int) "flight id" (Serving.Frontend.request_id tk) r.Flight.id
  | rs -> Alcotest.failf "expected 1 flight record, got %d" (List.length rs)

(* ---------------- OpenMetrics exposition ---------------- *)

let test_openmetrics_roundtrip () =
  reset_all ();
  Metrics.incr (Metrics.counter "test.requests");
  Metrics.set (Metrics.gauge "test.depth") 5;
  let h = Metrics.histogram "test.lat" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 1000.0 ];
  Exposition.sample_gc_gauges ();
  let text = Exposition.to_openmetrics () in
  (match Exposition.validate text with
  | Error e -> Alcotest.failf "exposition fails own validator: %s" e
  | Ok n -> Alcotest.(check bool) "several samples" true (n > 5));
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter as _total" true (has "cora_test_requests_total 1");
  Alcotest.(check bool) "gauge plain" true (has "cora_test_depth 5");
  Alcotest.(check bool) "histogram sum" true (has "cora_test_lat_sum 1015");
  Alcotest.(check bool) "histogram count" true (has "cora_test_lat_count 5");
  Alcotest.(check bool) "+Inf closes the series" true
    (has "cora_test_lat_bucket{le=\"+Inf\"} 5");
  Alcotest.(check bool) "gc gauge sampled" true (has "cora_runtime_gc_heap_words");
  Alcotest.(check bool) "terminated" true (has "# EOF")

let test_openmetrics_validator_rejects () =
  reset_all ();
  let bad name text =
    match Exposition.validate text with
    | Ok _ -> Alcotest.failf "validator accepted %s" name
    | Error _ -> ()
  in
  bad "missing EOF" "# TYPE cora_x counter\ncora_x_total 1\n";
  bad "counter without _total" "# TYPE cora_x counter\ncora_x 1\n# EOF\n";
  bad "non-monotone buckets"
    "# TYPE cora_h histogram\n\
     cora_h_bucket{le=\"1\"} 5\n\
     cora_h_bucket{le=\"2\"} 3\n\
     cora_h_bucket{le=\"+Inf\"} 5\n\
     cora_h_sum 9\n\
     cora_h_count 5\n\
     # EOF\n";
  bad "Inf bucket diverges from count"
    "# TYPE cora_h histogram\n\
     cora_h_bucket{le=\"1\"} 2\n\
     cora_h_bucket{le=\"+Inf\"} 2\n\
     cora_h_sum 2\n\
     cora_h_count 3\n\
     # EOF\n";
  bad "le bounds not increasing"
    "# TYPE cora_h histogram\n\
     cora_h_bucket{le=\"2\"} 1\n\
     cora_h_bucket{le=\"1\"} 2\n\
     cora_h_bucket{le=\"+Inf\"} 2\n\
     cora_h_sum 2\n\
     cora_h_count 2\n\
     # EOF\n";
  bad "histogram without _sum"
    "# TYPE cora_h histogram\n\
     cora_h_bucket{le=\"1\"} 2\n\
     cora_h_bucket{le=\"+Inf\"} 2\n\
     cora_h_count 2\n\
     # EOF\n";
  (* two registry names that sanitize alike (a gauge [cache.plan_entries]
     next to [set_cache_gauges ~name:"plan"]'s [cache.plan.entries])
     render one family twice *)
  bad "repeated family"
    "# TYPE cora_cache_plan_entries gauge\n\
     cora_cache_plan_entries 3\n\
     # TYPE cora_cache_plan_entries gauge\n\
     cora_cache_plan_entries 3\n\
     # EOF\n"

let () =
  Alcotest.run "telemetry"
    [
      ( "trace-context",
        [
          Alcotest.test_case "with_request scoping" `Quick test_with_request_scoping;
          Alcotest.test_case "spans carry the id" `Quick test_spans_carry_request_id;
          Alcotest.test_case "chain through the front-end" `Quick
            test_request_chain_through_frontend;
          Alcotest.test_case "scatter from a mega-batch" `Quick test_batched_scatter;
        ] );
      ( "flight",
        [
          Alcotest.test_case "bounded ring" `Quick test_flight_ring_bounded;
          Alcotest.test_case "dump round-trip and throttle" `Quick
            test_flight_dump_roundtrip;
          Alcotest.test_case "deadline outcome recorded" `Quick
            test_flight_records_deadline;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "render validates" `Quick test_openmetrics_roundtrip;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_openmetrics_validator_rejects;
        ] );
    ]

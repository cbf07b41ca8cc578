(* Concurrent front-end tests: correctness of results must survive
   concurrency, and failures must stay typed and contained.

   - stress: N domains x M mixed requests through the front-end produce
     exactly one Response per request, with checksums bitwise-identical
     to a cache-bypassed serial replay of the same stream;
   - admission: with the single worker held busy and the queue full,
     the next submit resolves to Overloaded immediately (never blocks);
   - deadline: a request that waits out its budget behind a slow request
     is answered Deadline_exceeded "queue" without being executed, and
     the pool keeps serving afterwards;
   - fault isolation: a workload that raises produces an Error outcome
     carrying the exception text, and the worker domain survives it;
   - degradation: a compiled-engine failure is retried once on the
     interpreter and counted in frontend.degraded — for a solo request,
     for a whole mega-batch, and for a direct [Server.handle];
   - backpressure: an open batching window frees the slots it has taken
     before it sleeps, so blocked submitters refill the queue and the
     window fills instead of closing on its timeout. *)

let base = Serving.Workload.fig1 ~batch:4 ~max_len:6 ()

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let get_response label = function
  | Serving.Frontend.Response r -> r
  | o ->
      Alcotest.failf "%s: expected a response, got %s" label
        (Serving.Frontend.outcome_label o)

(* A workload whose build publishes that it started, then spins until
   released — lets a test hold a worker domain at a known point. *)
let gated_workload gate entered =
  {
    base with
    Serving.Workload.name = "gated";
    build =
      (fun lens ->
        Atomic.incr entered;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        base.Serving.Workload.build lens);
  }

let wait_for label pred =
  let tries = ref 0 in
  while not (pred ()) do
    incr tries;
    if !tries > 10_000_000 then Alcotest.failf "%s: condition never became true" label;
    Domain.cpu_relax ()
  done

(* ---------------- stress ---------------- *)

let test_stress () =
  Serving.Server.reset_caches ();
  let stream = Serving.Stream.generate ~workload:base ~pool:4 ~n:24 ~seed:3 () in
  (* serial ground truth from a cache-bypassing server: independent of
     everything the front-end and the caches do *)
  let bypass = Serving.Server.create ~compile_cache:false ~prelude_cache:false () in
  let serial = Serving.Stream.replay bypass base stream in
  let srv = Serving.Server.create () in
  let fe = Serving.Frontend.create ~domains:4 ~capacity:8 srv in
  let outcomes = Serving.Frontend.run_stream fe base stream.Serving.Stream.items in
  Serving.Frontend.shutdown fe;
  Alcotest.(check int) "one outcome per request" 24 (Array.length outcomes);
  List.iteri
    (fun i (rs : Serving.Server.response) ->
      let rc = get_response (Printf.sprintf "request %d" i) outcomes.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "request %d: outputs bit-identical to serial" i)
        true
        (bits_equal (Option.get rs.Serving.Server.out) (Option.get rc.Serving.Server.out)))
    serial

(* ---------------- batched stress ---------------- *)

(* The continuous-batching differential: 4 domains x 24 mixed-workload
   requests through a batching front-end must each come back bitwise
   equal to a serial, unbatched, cache-bypassed replay of the same
   request — whatever mega-batches the drain windows happened to form. *)
let test_batched_stress () =
  Serving.Server.reset_caches ();
  let vg = Serving.Workload.vgemm ~batch:4 ~tile:8 ~dims_choices:[| 8; 16; 24 |] () in
  let rng = Workloads.Rng.create 11 in
  let reqs =
    List.init 24 (fun i ->
        let w = if i mod 3 = 0 then vg else base in
        (w, w.Serving.Workload.sample rng))
  in
  (* serial unbatched ground truth from a cache-bypassing server *)
  let bypass =
    Serving.Server.create ~compile_cache:false ~prelude_cache:false ()
  in
  let serial = List.map (fun (w, lens) -> Serving.Server.handle bypass w lens) reqs in
  let srv = Serving.Server.create () in
  let batching =
    { Serving.Batcher.default_config with max_batch = 6; max_wait_us = 3000.0 }
  in
  let fe = Serving.Frontend.create ~domains:4 ~capacity:12 ~batching srv in
  let tickets = List.map (fun (w, lens) -> Serving.Frontend.submit_wait fe w lens) reqs in
  let outcomes = List.map Serving.Frontend.await tickets in
  Serving.Frontend.shutdown fe;
  List.iteri
    (fun i (rs : Serving.Server.response) ->
      let rc = get_response (Printf.sprintf "request %d" i) (List.nth outcomes i) in
      Alcotest.(check bool)
        (Printf.sprintf "request %d: batched output bit-identical to serial" i)
        true
        (bits_equal (Option.get rs.Serving.Server.out) (Option.get rc.Serving.Server.out)))
    serial

(* A request that expires while its batch is forming is answered
   Deadline_exceeded "batch" without wedging the batcher: everything
   else in the window is served, and so is a subsequent request. *)
let test_batched_deadline () =
  Serving.Server.reset_caches ();
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create () in
  let batching =
    { Serving.Batcher.default_config with max_batch = 4; max_wait_us = 20000.0 }
  in
  let fe = Serving.Frontend.create ~domains:1 ~batching srv in
  (* the window holds open ~20ms for more requests; 1ns of budget is
     necessarily gone by formation time *)
  let victim = Serving.Frontend.submit ~deadline_ns:1.0 fe base shape in
  let others = List.init 3 (fun _ -> Serving.Frontend.submit fe base [| 4; 2; 7 |]) in
  (match Serving.Frontend.await victim with
  | Serving.Frontend.Deadline_exceeded stage ->
      Alcotest.(check string) "evicted while the batch formed" "batch" stage
  | o -> Alcotest.failf "victim resolved to %s" (Serving.Frontend.outcome_label o));
  List.iter
    (fun t -> ignore (get_response "window sibling" (Serving.Frontend.await t)))
    others;
  let after = Serving.Frontend.await (Serving.Frontend.submit fe base shape) in
  ignore (get_response "request after eviction" after);
  Serving.Frontend.shutdown fe

(* Regression for the drain-window wait: the window used to sleep-poll
   (0.2ms naps) for late arrivals; it now parks on a wakeup fd that
   [submit] signals.  Two observable contracts guard the mechanism:

   - a late arrival WAKES the waiting worker: with a very long
     [max_wait_us], a second request landing mid-window must fill the
     batch and resolve far before the window budget expires (a wait that
     only ever woke on timeout would hold both until the budget lapsed);
   - absent arrivals, the wait still TIMES OUT: a lone request under a
     short window must be served as a batch of one, not parked forever. *)
let test_drain_window_wakeup () =
  Serving.Server.reset_caches ();
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create () in
  (* warm the caches so service time is negligible next to the window *)
  ignore (Serving.Server.handle srv base shape);
  let batching =
    { Serving.Batcher.default_config with max_batch = 2; max_wait_us = 2_000_000.0 }
  in
  let fe = Serving.Frontend.create ~domains:1 ~batching srv in
  let t0 = Unix.gettimeofday () in
  let a = Serving.Frontend.submit fe base shape in
  (* land the second request once the worker is certainly parked in the
     open window *)
  Unix.sleepf 0.02;
  let b = Serving.Frontend.submit fe base shape in
  ignore (get_response "first of the pair" (Serving.Frontend.await a));
  ignore (get_response "second of the pair" (Serving.Frontend.await b));
  let elapsed = Unix.gettimeofday () -. t0 in
  Serving.Frontend.shutdown fe;
  Alcotest.(check bool)
    (Printf.sprintf "arrival woke the window (%.0fms << 2s budget)" (elapsed *. 1e3))
    true (elapsed < 1.0);
  (* lone request: the wait must expire on its own *)
  let fe2 =
    Serving.Frontend.create ~domains:1
      ~batching:{ Serving.Batcher.default_config with max_batch = 4; max_wait_us = 5_000.0 }
      srv
  in
  ignore (get_response "lone request served" (Serving.Frontend.await (Serving.Frontend.submit fe2 base shape)));
  Serving.Frontend.shutdown fe2

(* An open window must free the queue slots it has taken before it
   sleeps: otherwise submitters blocked on a full queue sleep through the
   whole [max_wait_us] and the stream trickles into small batches. *)
let test_window_frees_slots () =
  Serving.Server.reset_caches ();
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create () in
  let batching =
    { Serving.Batcher.default_config with max_batch = 8; max_wait_us = 300_000.0 }
  in
  let fe = Serving.Frontend.create ~domains:1 ~capacity:2 ~batching srv in
  let batches = Obs.Metrics.counter "batcher.batches" in
  let before = Obs.Metrics.value batches in
  let tickets = List.init 8 (fun _ -> Serving.Frontend.submit_wait fe base shape) in
  List.iter (fun t -> ignore (get_response "backpressured request" (Serving.Frontend.await t))) tickets;
  Serving.Frontend.shutdown fe;
  let formed = Obs.Metrics.value batches - before in
  Alcotest.(check bool)
    (Printf.sprintf "8 backpressured requests fill the window (%d mega-batches)" formed)
    true (formed <= 2)

(* ---------------- admission control ---------------- *)

let test_admission_overload () =
  Serving.Server.reset_caches ();
  let gate = Atomic.make false and entered = Atomic.make 0 in
  let gated = gated_workload gate entered in
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create () in
  let fe = Serving.Frontend.create ~domains:1 ~capacity:2 srv in
  (* occupy the only worker at a known point inside its build... *)
  let blocker = Serving.Frontend.submit fe gated shape in
  wait_for "worker entered the gated build" (fun () -> Atomic.get entered = 1);
  (* ...then fill the queue to its bound... *)
  let queued = [ Serving.Frontend.submit fe gated shape; Serving.Frontend.submit fe gated shape ] in
  Alcotest.(check int) "queue at capacity" 2 (Serving.Frontend.queue_length fe);
  (* ...so the next submit must be rejected, typed and without blocking *)
  let overflow = Serving.Frontend.submit fe gated shape in
  (match Serving.Frontend.peek overflow with
  | Some Serving.Frontend.Overloaded -> ()
  | Some o ->
      Alcotest.failf "overflow submit resolved to %s" (Serving.Frontend.outcome_label o)
  | None -> Alcotest.fail "overflow submit did not resolve immediately");
  Atomic.set gate true;
  List.iter
    (fun t -> ignore (get_response "admitted request" (Serving.Frontend.await t)))
    (blocker :: queued);
  Serving.Frontend.shutdown fe

(* ---------------- deadlines ---------------- *)

let test_deadline_in_queue () =
  Serving.Server.reset_caches ();
  let gate = Atomic.make false and entered = Atomic.make 0 in
  let gated = gated_workload gate entered in
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create () in
  let fe = Serving.Frontend.create ~domains:1 srv in
  let blocker = Serving.Frontend.submit fe gated shape in
  wait_for "worker entered the gated build" (fun () -> Atomic.get entered = 1);
  (* 1ns budget, and the only worker is busy: by dequeue time the victim
     has necessarily expired *)
  let victim = Serving.Frontend.submit ~deadline_ns:1.0 fe base shape in
  Atomic.set gate true;
  (match Serving.Frontend.await victim with
  | Serving.Frontend.Deadline_exceeded stage ->
      Alcotest.(check string) "expired while queued" "queue" stage
  | o -> Alcotest.failf "victim resolved to %s" (Serving.Frontend.outcome_label o));
  ignore (get_response "blocker" (Serving.Frontend.await blocker));
  (* an expiry must not wedge the pool *)
  let after = Serving.Frontend.await (Serving.Frontend.submit fe base shape) in
  ignore (get_response "request after expiry" after);
  Serving.Frontend.shutdown fe

(* ---------------- fault isolation ---------------- *)

let test_fault_isolation () =
  Serving.Server.reset_caches ();
  let faulty =
    { base with Serving.Workload.name = "faulty"; build = (fun _ -> failwith "boom") }
  in
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create () in
  let fe = Serving.Frontend.create ~domains:2 srv in
  (match Serving.Frontend.await (Serving.Frontend.submit fe faulty shape) with
  | Serving.Frontend.Error { exn; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "error carries the exception (%s)" exn)
        true (contains_substring exn "boom")
  | o -> Alcotest.failf "faulty request resolved to %s" (Serving.Frontend.outcome_label o));
  (* both workers must still be alive and serving *)
  let ts = List.init 4 (fun _ -> Serving.Frontend.submit fe base shape) in
  List.iter
    (fun t -> ignore (get_response "request after fault" (Serving.Frontend.await t)))
    ts;
  Serving.Frontend.shutdown fe

(* ---------------- graceful degradation ---------------- *)

(* [base] (batchable) whose first build raises the engine's own
   rejection; the degraded retry's rebuild succeeds. *)
let flaky_workload calls =
  {
    base with
    Serving.Workload.name = "flaky";
    build =
      (fun lens ->
        if Atomic.fetch_and_add calls 1 = 0 then
          raise (Runtime.Engine.Error "synthetic kernel rejection")
        else base.Serving.Workload.build lens);
  }

let degraded () = Obs.Metrics.value (Obs.Metrics.counter "frontend.degraded")

(* ground truth: a cache-bypassed interpreter serving the request alone *)
let interp_out lens =
  let srv = Serving.Server.create ~compile_cache:false ~prelude_cache:false ~engine:`Interp () in
  Option.get (Serving.Server.handle srv base lens).Serving.Server.out

let test_degradation () =
  Serving.Server.reset_caches ();
  let calls = Atomic.make 0 in
  let flaky = flaky_workload calls in
  let shape = [| 5; 3; 6; 2 |] in
  let srv = Serving.Server.create ~engine:`Compiled () in
  let fe = Serving.Frontend.create ~domains:1 srv in
  let before = degraded () in
  let r = get_response "flaky request" (Serving.Frontend.await (Serving.Frontend.submit fe flaky shape)) in
  Alcotest.(check int) "retried exactly once on the interp twin" (before + 1) (degraded ());
  Alcotest.(check int) "build ran twice" 2 (Atomic.get calls);
  (* the degraded response is a real one: identical to a direct interp serve *)
  let direct = Serving.Server.handle (Serving.Server.create ~engine:`Interp ()) base shape in
  Alcotest.(check bool) "degraded output bit-identical to interp" true
    (bits_equal (Option.get direct.Serving.Server.out) (Option.get r.Serving.Server.out));
  Serving.Frontend.shutdown fe

(* The mega-batch path degrades exactly like a solo request: one failed
   compiled build, one interpreter retry of the whole mega-batch, and
   every member served the interpreter's bytes. *)
let test_batched_degradation () =
  Serving.Server.reset_caches ();
  let calls = Atomic.make 0 in
  let flaky = flaky_workload calls in
  let shapes = [ [| 5; 3; 6; 2 |]; [| 4; 2; 7 |]; [| 1; 6 |]; [| 6; 6; 1; 3 |] ] in
  let srv = Serving.Server.create ~engine:`Compiled () in
  let batching =
    { Serving.Batcher.default_config with max_batch = 4; max_wait_us = 200_000.0 }
  in
  let fe = Serving.Frontend.create ~domains:1 ~batching srv in
  let before = degraded () in
  let tickets = List.map (Serving.Frontend.submit_wait fe flaky) shapes in
  let outs = List.map Serving.Frontend.await tickets in
  Serving.Frontend.shutdown fe;
  Alcotest.(check int) "one degraded retry" (before + 1) (degraded ());
  List.iteri
    (fun i (lens, o) ->
      let r = get_response (Printf.sprintf "member %d" i) o in
      Alcotest.(check bool)
        (Printf.sprintf "member %d: degraded output bit-identical to interp" i)
        true
        (bits_equal (interp_out lens) (Option.get r.Serving.Server.out)))
    (List.combine shapes outs)

(* A direct [Server.handle] on a compiled server degrades too: callers
   without a front end ([Stream.replay], serial bench-stream) get a
   response, not the engine's exception. *)
let test_direct_degradation () =
  Serving.Server.reset_caches ();
  let flaky = flaky_workload (Atomic.make 0) in
  let shape = [| 5; 3; 6; 2 |] in
  let before = degraded () in
  let r = Serving.Server.handle (Serving.Server.create ~engine:`Compiled ()) flaky shape in
  Alcotest.(check int) "one degraded retry" (before + 1) (degraded ());
  Alcotest.(check bool) "degraded output bit-identical to interp" true
    (bits_equal (interp_out shape) (Option.get r.Serving.Server.out))

let () =
  Alcotest.run "frontend"
    [
      ( "concurrency",
        [ Alcotest.test_case "4 domains x 24 requests match serial" `Quick test_stress ] );
      ( "batching",
        [
          Alcotest.test_case "4 domains x 24 batched requests match serial" `Quick
            test_batched_stress;
          Alcotest.test_case "window eviction is typed and non-wedging" `Quick
            test_batched_deadline;
          Alcotest.test_case "drain window wakes on submit, times out alone" `Quick
            test_drain_window_wakeup;
          Alcotest.test_case "open window frees slots for blocked submitters" `Quick
            test_window_frees_slots;
        ] );
      ( "admission",
        [ Alcotest.test_case "full queue rejects typed, non-blocking" `Quick test_admission_overload ] );
      ( "deadlines",
        [ Alcotest.test_case "queue expiry is typed and non-wedging" `Quick test_deadline_in_queue ] );
      ( "faults",
        [
          Alcotest.test_case "exception becomes Error, worker survives" `Quick test_fault_isolation;
          Alcotest.test_case "compiled failure degrades to interp" `Quick test_degradation;
          Alcotest.test_case "compiled mega-batch failure degrades" `Quick
            test_batched_degradation;
          Alcotest.test_case "direct Server.handle degrades" `Quick test_direct_degradation;
        ] );
    ]

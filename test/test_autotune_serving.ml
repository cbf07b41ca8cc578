(* Online schedule autotuner (lib/autotune) and its serving integration.

   - properties: shrinking a loop-padding multiple along a divisibility
     chain never increases the modeled total, and repeated compile/eval
     of the cost model over the same kernels is bit-deterministic;
   - tuner: on fig1 the two-stage search finds a strict simulated win,
     memoizes it (hit on lookup), and stays within the memo bound under
     many distinct keys;
   - serving: with autotuning on, the per-request tuner state goes
     miss -> tuned and every response is bitwise what an untuned server
     produces — for all four workloads, executed. *)

let device = Machine.Device.v100

let toy_dataset =
  { Workloads.Datasets.name = "toy"; min_len = 2; mean_len = 5; max_len = 9 }

let workloads () =
  [
    Serving.Workload.fig1 ~batch:4 ~max_len:6 ();
    Serving.Workload.vgemm ~batch:2 ~tile:4 ~dims_choices:[| 4; 8; 12 |] ();
    Serving.Workload.trmm ~tile:4 ~sizes:[| 8; 12; 16 |] ();
    Serving.Workload.encoder ~batch:3 ~dataset:toy_dataset ();
  ]

let tunable (w : Serving.Workload.t) =
  match w.Serving.Workload.tunable with
  | Some tn -> tn
  | None -> Alcotest.fail (w.Serving.Workload.name ^ " has no tunable descriptor")

(* fig1 job at one schedule point, via the workload's own descriptor *)
let fig1_at point lens =
  Serving.Workload.tuner_job
    ((tunable (Serving.Workload.fig1 ())).Serving.Workload.build_tuned point lens)

(* ---------------- properties ---------------- *)

(* Along a divisibility chain of padding multiples, a smaller multiple
   rounds every row length to no more than the larger one does, so the
   modeled total must not increase when padding shrinks.  (Incomparable
   multiples — 3 vs 4 — can go either way; the chain is the law.) *)
let pad_chain = [| 1; 2; 4; 8; 16 |]

let prop_padding_monotone =
  QCheck.Test.make ~count:60 ~name:"shrinking loop padding never increases modeled time"
    QCheck.(
      make
        ~print:(fun (lens, i, j) ->
          Printf.sprintf "lens=[%s] pads %d<=%d"
            (String.concat ";" (List.map string_of_int (Array.to_list lens)))
            pad_chain.(min i j) pad_chain.(max i j))
        Gen.(
          triple
            (array_size (int_range 1 5) (int_range 1 12))
            (int_range 0 4) (int_range 0 4)))
    (fun (lens, i, j) ->
      let lo = pad_chain.(min i j) and hi = pad_chain.(max i j) in
      let ns pad =
        Autotune.Tuner.simulate_ns ~device
          (fig1_at (Autotune.Space.make ~pad ()) lens)
      in
      ns lo <= ns hi +. 1e-9)

let prop_simulate_deterministic =
  QCheck.Test.make ~count:40
    ~name:"repeated compile/eval of the cost model is bit-deterministic"
    QCheck.(
      make
        ~print:(fun lens ->
          String.concat ";" (List.map string_of_int (Array.to_list lens)))
        Gen.(array_size (int_range 1 5) (int_range 1 12)))
    (fun lens ->
      let j () = fig1_at (Autotune.Space.make ~grid:true ~split:4 ~pad:4 ()) lens in
      let a = Autotune.Tuner.simulate_ns ~device (j ())
      and b = Autotune.Tuner.simulate_ns ~device (j ()) in
      let ba = Autotune.Tuner.bound_ns ~device (j ())
      and bb = Autotune.Tuner.bound_ns ~device (j ()) in
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      && Int64.equal (Int64.bits_of_float ba) (Int64.bits_of_float bb))

(* ---------------- Core.Cache stats ---------------- *)

let test_cache_stats () =
  let c : (string, int) Cora.Cache.t =
    Cora.Cache.create ~name:"test_stats_cache" ~capacity:2 ()
  in
  ignore (Cora.Cache.find c "a");
  Cora.Cache.add c "a" 1;
  ignore (Cora.Cache.find c "a");
  Cora.Cache.add c "b" 2;
  Cora.Cache.add c "c" 3;
  (* capacity 2: adding c evicted the LRU entry *)
  let s = Cora.Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cora.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cora.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Cora.Cache.evictions;
  Alcotest.(check int) "entries" 2 s.Cora.Cache.entries;
  let reg = Cora.Cache.registered_stats () in
  Alcotest.(check bool) "registered under its name" true
    (List.mem_assoc "test_stats_cache" reg);
  Alcotest.(check bool) "registry includes the tuner memo" true
    (List.mem_assoc "autotune" reg)

(* ---------------- the tuner ---------------- *)

let tune_fig1 lens =
  let w = Serving.Workload.fig1 () in
  let tn = tunable w in
  let key =
    Autotune.Tuner.key ~workload:"fig1" ~tables:(tn.Serving.Workload.tables_of lens)
  in
  let hand = Serving.Workload.tuner_job (w.Serving.Workload.build lens) in
  let candidates = Serving.Workload.candidates tn lens in
  (key, Autotune.Tuner.tune ~device ~key ~hand ~candidates ())

let test_tuner_win_and_memo () =
  Serving.Server.reset_caches ();
  let lens = [| 9; 7; 4; 2 |] in
  let key, d = tune_fig1 lens in
  Alcotest.(check bool) "search adopted a point" true (d.Autotune.Tuner.point <> None);
  Alcotest.(check bool) "strict simulated win" true
    (d.Autotune.Tuner.tuned_ns < d.Autotune.Tuner.hand_ns);
  Alcotest.(check bool) "searched some candidates" true (d.Autotune.Tuner.searched > 0);
  (match Autotune.Tuner.lookup key with
  | Some d' ->
      Alcotest.(check (float 0.0)) "memo returns the decision" d.Autotune.Tuner.tuned_ns
        d'.Autotune.Tuner.tuned_ns
  | None -> Alcotest.fail "tuned key missing from the memo");
  (* stage-1 pruning: with one survivor the rest must be pruned *)
  let lens2 = [| 6; 5; 3 |] in
  let w = Serving.Workload.fig1 () in
  let tn = tunable w in
  let key2 =
    Autotune.Tuner.key ~workload:"fig1" ~tables:(tn.Serving.Workload.tables_of lens2)
  in
  let d2 =
    Autotune.Tuner.tune
      ~cfg:{ Autotune.Tuner.max_candidates = 16; survivors = 1 }
      ~device ~key:key2
      ~hand:(Serving.Workload.tuner_job (w.Serving.Workload.build lens2))
      ~candidates:(Serving.Workload.candidates tn lens2) ()
  in
  Alcotest.(check int) "all but one candidate pruned" (d2.Autotune.Tuner.searched - 1)
    d2.Autotune.Tuner.pruned

let test_memo_bounded () =
  Serving.Server.reset_caches ();
  Autotune.Tuner.set_memo_capacity 4;
  Fun.protect ~finally:(fun () -> Autotune.Tuner.set_memo_capacity 128) @@ fun () ->
  for n = 1 to 10 do
    ignore (tune_fig1 (Array.init 3 (fun i -> n + i)))
  done;
  Alcotest.(check bool) "memo stays within capacity" true (Autotune.Tuner.memo_size () <= 4);
  let s = Autotune.Tuner.memo_stats () in
  Alcotest.(check bool) "evictions happened" true (s.Cora.Cache.evictions >= 6)

(* ---------------- serving integration ---------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let get_out (r : Serving.Server.response) =
  match r.Serving.Server.out with
  | Some a -> a
  | None -> Alcotest.fail "response carries no output"

let test_serving_bitwise (w : Serving.Workload.t) () =
  Serving.Server.reset_caches ();
  let tuned_srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg () in
  let hand_srv = Serving.Server.create () in
  let rng = Workloads.Rng.create 11 in
  let s1 = w.Serving.Workload.sample rng in
  let s2 = w.Serving.Workload.sample rng in
  List.iter
    (fun lens ->
      let rt = Serving.Server.handle tuned_srv w lens in
      let rh = Serving.Server.handle hand_srv w lens in
      Alcotest.(check bool)
        (w.Serving.Workload.name ^ ": tuned output bitwise the hand output")
        true
        (bits_equal (get_out rt) (get_out rh)))
    [ s1; s2; s1; s2; s1 ]

let test_serving_tuner_states () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg () in
  let lens = [| 6; 4; 3; 1 |] in
  let r1 = Serving.Server.handle srv w lens in
  Alcotest.(check string) "first request misses and warms" "miss" r1.Serving.Server.tuner;
  Alcotest.(check bool) "the tune was timed" true (r1.Serving.Server.tune_us > 0.0);
  let r2 = Serving.Server.handle srv w lens in
  Alcotest.(check string) "second request serves the tuned schedule" "tuned"
    r2.Serving.Server.tuner;
  Alcotest.(check (float 0.0)) "no tune on a hit" 0.0 r2.Serving.Server.tune_us;
  (* the tuned schedule must actually be modeled faster *)
  Alcotest.(check bool) "tuned kernels_ns < hand kernels_ns" true
    (r2.Serving.Server.kernels_ns < r1.Serving.Server.kernels_ns);
  (* a server without autotuning reports "off" *)
  let off = Serving.Server.create () in
  let r3 = Serving.Server.handle off w lens in
  Alcotest.(check string) "autotuning off" "off" r3.Serving.Server.tuner;
  Alcotest.(check bool) "enabled flag" true (Serving.Server.autotune_enabled srv);
  Alcotest.(check bool) "disabled flag" false (Serving.Server.autotune_enabled off)

(* The hot-path memos behind steady-state serving: the per-workload job
   memo (decision baked in) and the launch-model memo both register in
   the cache stats registry, a memo-hit request is still bitwise equal
   to a cache-bypassed build, and [Server.reset_caches] really empties
   the per-workload memos (the tuner state machine restarts at "miss"). *)
let test_hot_path_memos () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create ~autotune:Autotune.Tuner.default_cfg ~execute:true () in
  let lens = [| 6; 4; 3; 1 |] in
  let r1 = Serving.Server.handle srv w lens in
  let r2 = Serving.Server.handle srv w lens in
  let reg = Cora.Cache.registered_stats () in
  Alcotest.(check bool) "launch-model memo registered" true
    (List.mem_assoc "launch_model" reg);
  Alcotest.(check bool) "per-workload job memo registered" true
    (List.mem_assoc "job_build.fig1" reg);
  (* the baked entry serves the same bytes a fresh cache-bypassed build does *)
  let bypass =
    Serving.Server.create ~compile_cache:false ~prelude_cache:false ~execute:true ()
  in
  let rb = Serving.Server.handle bypass w lens in
  let out r = Option.get r.Serving.Server.out in
  Alcotest.(check bool) "memo-hit output bitwise equal to bypass" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       (out r2) (out rb));
  Alcotest.(check string) "hit serves tuned state" "tuned" r2.Serving.Server.tuner;
  ignore r1;
  (* reset wipes the baked jobs: the tuner warms up from scratch *)
  Serving.Server.reset_caches ();
  let r4 = Serving.Server.handle srv w lens in
  Alcotest.(check string) "reset restarts the state machine" "miss"
    r4.Serving.Server.tuner

(* Every point of every tunable workload's space must change the lowered
   job: its kernel bodies or its launch grouping.  A point that rebuilds
   the hand job (an execution-only knob, say) ties the hand schedule in
   modeled time, so the strict-win rule can never adopt it. *)
let test_no_dead_points () =
  let shape (j : Serving.Workload.job) =
    ( List.map
        (fun (k : Cora.Lower.kernel) -> Cora.Sig.canonical (Cora.Sig.of_stmt k.Cora.Lower.body))
        j.Serving.Workload.kernels,
      List.map
        (fun (l : Machine.Launch.t) ->
          List.map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.kname) l.Machine.Launch.kernels)
        j.Serving.Workload.launches )
  in
  List.iter
    (fun (w : Serving.Workload.t) ->
      match w.Serving.Workload.tunable with
      | None -> ()
      | Some tn ->
          let lens = w.Serving.Workload.sample (Workloads.Rng.create 3) in
          let hand = shape (w.Serving.Workload.build lens) in
          List.iter
            (fun p ->
              if shape (tn.Serving.Workload.build_tuned p lens) = hand then
                Alcotest.failf "%s: point %s rebuilds the hand job" w.Serving.Workload.name
                  (Autotune.Space.to_string p))
            (tn.Serving.Workload.space lens))
    (workloads ()
    @ List.map Serving.Workload.by_name [ "fig1"; "vgemm"; "trmm"; "encoder"; "decode" ])

(* The registry behind [Server.reset_caches] holds job memos weakly: a
   dropped workload's memo is collected, while a live one is still
   emptied by a reset. *)
let test_dropped_memo_collected () =
  Serving.Server.reset_caches ();
  let lens = [| 3; 2; 1; 1 |] in
  let collected = ref false in
  let[@inline never] serve_and_drop () =
    let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
    ignore (Serving.Server.handle (Serving.Server.create ()) w lens);
    Gc.finalise_last (fun () -> collected := true) w.Serving.Workload.job_cache
  in
  serve_and_drop ();
  (* [Cora.Cache] keeps the stats of the latest cache under each name, so
     a same-named successor stops that registry from holding the dropped
     memo *)
  let live = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  Gc.full_major ();
  Alcotest.(check bool) "dropped workload's job memo collected" true !collected;
  ignore (Serving.Server.handle (Serving.Server.create ()) live lens);
  Alcotest.(check int) "live memo filled" 1 (Cora.Cache.size live.Serving.Workload.job_cache);
  Serving.Server.reset_caches ();
  Alcotest.(check int) "reset empties the live memo" 0
    (Cora.Cache.size live.Serving.Workload.job_cache)

(* [Prelude_cache.build_keyed] with a precomputed [key_of] must be
   observationally the [build_cached] it replaces: same key, hit after
   the same first build, defs thunk never forced on a hit. *)
let test_prelude_keyed () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let job = w.Serving.Workload.build [| 5; 2; 1; 3 |] in
  let tables_sig = Cora.Sig.of_tables job.Serving.Workload.tables in
  let defs =
    List.concat_map
      (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.aux)
      job.Serving.Workload.kernels
  in
  let key = Cora.Prelude_cache.key_of ~tables_sig defs in
  let _, hit1 =
    Cora.Prelude_cache.build_keyed ~key (fun () -> defs) job.Serving.Workload.lenv
  in
  Alcotest.(check bool) "first build misses" false hit1;
  let _, hit2 =
    Cora.Prelude_cache.build_cached ~tables_sig defs job.Serving.Workload.lenv
  in
  Alcotest.(check bool) "build_cached derives the same key" true hit2;
  let forced = ref false in
  let _, hit3 =
    Cora.Prelude_cache.build_keyed ~key
      (fun () ->
        forced := true;
        defs)
      job.Serving.Workload.lenv
  in
  Alcotest.(check bool) "keyed lookup hits" true hit3;
  Alcotest.(check bool) "defs not forced on a hit" false !forced

let () =
  let bitwise =
    List.map
      (fun (w : Serving.Workload.t) ->
        Alcotest.test_case ("tuned vs hand " ^ w.Serving.Workload.name) `Quick
          (test_serving_bitwise w))
      (workloads ())
  in
  Alcotest.run "autotune_serving"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_padding_monotone;
          QCheck_alcotest.to_alcotest prop_simulate_deterministic;
        ] );
      ("cache_stats", [ Alcotest.test_case "stats + registry" `Quick test_cache_stats ]);
      ( "tuner",
        [
          Alcotest.test_case "fig1 win + memo hit + pruning" `Quick test_tuner_win_and_memo;
          Alcotest.test_case "memo bounded with eviction" `Quick test_memo_bounded;
        ] );
      ( "serving",
        bitwise
        @ [
            Alcotest.test_case "tuner state miss -> tuned" `Quick test_serving_tuner_states;
            Alcotest.test_case "hot-path memos" `Quick test_hot_path_memos;
            Alcotest.test_case "dropped job memo collected" `Quick test_dropped_memo_collected;
            Alcotest.test_case "no dead space points" `Quick test_no_dead_points;
            Alcotest.test_case "prelude keyed lookup" `Quick test_prelude_keyed;
          ]
      );
    ]

(* Serving-layer tests: the caches must be invisible to results.

   - differential: for each workload, a caching server and a cache-bypassed
     server replay the same 3-repeat stream and must produce bit-identical
     outputs and identical interpreter counters, while the caching server's
     hit counters go 0 -> nonzero on repeats;
   - hit rate: a x10 repeated-batch stream must hit both caches on every
     request after the first (>= 80%), with zero prelude host work on hits;
   - invalidation: mutating one sequence length must miss the prelude cache
     (fresh build) and still produce results identical to an uncached run;
   - determinism: regenerating a stream from the same seed replays to the
     same checksums;
   - deadlines: a [Server.handle ~deadline_us] already in the past stops
     at the first stage and memoizes nothing, and a far-future one
     changes no response field. *)

let toy_dataset =
  { Workloads.Datasets.name = "toy"; min_len = 2; mean_len = 5; max_len = 9 }

let workloads () =
  [
    Serving.Workload.fig1 ~batch:4 ~max_len:6 ();
    Serving.Workload.vgemm ~batch:2 ~tile:4 ~dims_choices:[| 4; 8; 12 |] ();
    Serving.Workload.trmm ~tile:4 ~sizes:[| 8; 12; 16 |] ();
    Serving.Workload.encoder ~batch:3 ~dataset:toy_dataset ();
  ]

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let get_out (r : Serving.Server.response) =
  match r.Serving.Server.out with
  | Some a -> a
  | None -> Alcotest.fail "response carries no output"

let get_counters (r : Serving.Server.response) =
  match r.Serving.Server.counters with
  | Some c -> c
  | None -> Alcotest.fail "response carries no counters"

(* Two distinct shapes, repeated three times each, interleaved. *)
let three_repeat_stream (w : Serving.Workload.t) seed =
  let rng = Workloads.Rng.create seed in
  let s1 = w.Serving.Workload.sample rng in
  let s2 = w.Serving.Workload.sample rng in
  [ s1; s2; s1; s2; s1; s2 ]

let test_differential (w : Serving.Workload.t) () =
  Serving.Server.reset_caches ();
  let cached = Serving.Server.create () in
  let bypass = Serving.Server.create ~compile_cache:false ~prelude_cache:false () in
  let items = three_repeat_stream w 7 in
  let ra = List.map (Serving.Server.handle cached w) items in
  let rb = List.map (Serving.Server.handle bypass w) items in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s request %d: outputs bit-identical" w.Serving.Workload.name i)
        true
        (bits_equal (get_out a) (get_out b));
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s request %d: interp counters identical" w.Serving.Workload.name i)
        (get_counters b) (get_counters a))
    (List.combine ra rb);
  (* hit counters: cold on the first request, warm on the repeats *)
  let first = List.hd ra and last = List.nth ra (List.length ra - 1) in
  Alcotest.(check int) "first request: no compile hits" 0 first.Serving.Server.compile_hits;
  Alcotest.(check bool) "first request: prelude miss" false first.Serving.Server.prelude_hit;
  Alcotest.(check bool) "repeat: compile hits nonzero" true
    (last.Serving.Server.compile_hits > 0);
  Alcotest.(check int) "repeat: no compile misses" 0 last.Serving.Server.compile_misses;
  Alcotest.(check bool) "repeat: prelude hit" true last.Serving.Server.prelude_hit;
  (* the bypass server must never touch a cache *)
  List.iter
    (fun (r : Serving.Server.response) ->
      Alcotest.(check int) "bypass: no compile hits" 0 r.Serving.Server.compile_hits;
      Alcotest.(check bool) "bypass: no prelude hit" false r.Serving.Server.prelude_hit)
    rb

(* The acceptance scenario: the same raggedness signature x10 must hit both
   caches on at least 80% of requests, with zero prelude host work on hits. *)
let test_hit_rate_10x () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let rng = Workloads.Rng.create 11 in
  let shape = w.Serving.Workload.sample rng in
  let stream = Serving.Stream.repeat ~shape ~n:10 ~seed:11 in
  let srv = Serving.Server.create () in
  let rs = Serving.Stream.replay srv w stream in
  let hits = List.filter (fun r -> r.Serving.Server.prelude_hit) rs in
  let c_hits = List.fold_left (fun a r -> a + r.Serving.Server.compile_hits) 0 rs in
  let c_total =
    List.fold_left
      (fun a (r : Serving.Server.response) ->
        a + r.Serving.Server.compile_hits + r.Serving.Server.compile_misses)
      0 rs
  in
  Alcotest.(check bool) "prelude hit rate >= 80%" true
    (float_of_int (List.length hits) /. 10.0 >= 0.8);
  Alcotest.(check bool) "compile hit rate >= 80%" true
    (float_of_int c_hits /. float_of_int c_total >= 0.8);
  List.iter
    (fun (r : Serving.Server.response) ->
      Alcotest.(check (float 0.0)) "hit: prelude host work is 0" 0.0
        r.Serving.Server.prelude_host_ns;
      Alcotest.(check (float 0.0)) "hit: prelude copy is 0" 0.0
        r.Serving.Server.prelude_copy_ns)
    hits;
  (* all 10 responses identical outputs *)
  let out0 = get_out (List.hd rs) in
  List.iter (fun r -> Alcotest.(check bool) "same output" true (bits_equal out0 (get_out r))) rs

(* Regression: prelude-cache invalidation.  Mutating one sequence length
   must change the raggedness signature (fresh build, a miss) and produce
   exactly the results an uncached server computes for the mutated batch —
   i.e. stale reuse is impossible. *)
let test_invalidation () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create () in
  let shape = [| 5; 3; 6; 2 |] in
  let r1 = Serving.Server.handle srv w shape in
  let r1' = Serving.Server.handle srv w shape in
  Alcotest.(check bool) "warm: prelude hit" true r1'.Serving.Server.prelude_hit;
  (* mutate one sequence length *)
  let mutated = Array.copy shape in
  mutated.(2) <- mutated.(2) + 1;
  let r2 = Serving.Server.handle srv w mutated in
  Alcotest.(check bool) "mutated batch: prelude miss (fresh build)" false
    r2.Serving.Server.prelude_hit;
  Alcotest.(check bool) "mutated batch: host work nonzero" true
    (r2.Serving.Server.prelude_host_ns > 0.0);
  let bypass = Serving.Server.create ~compile_cache:false ~prelude_cache:false () in
  let rb = Serving.Server.handle bypass w mutated in
  Alcotest.(check bool) "mutated batch: results identical to uncached" true
    (bits_equal (get_out r2) (get_out rb));
  (* the original shape is still cached and still correct *)
  let r3 = Serving.Server.handle srv w shape in
  Alcotest.(check bool) "original shape still hits" true r3.Serving.Server.prelude_hit;
  Alcotest.(check bool) "original shape unchanged" true
    (bits_equal (get_out r1) (get_out r3))

(* The caches are bounded: serving more distinct shapes than the prelude
   cache holds must evict (never grow past the cap), keep the most recent
   shapes, and never change results. *)
let test_prelude_cache_cap () =
  Serving.Server.reset_caches ();
  let saved = Cora.Prelude_cache.capacity () in
  Fun.protect
    ~finally:(fun () ->
      Cora.Prelude_cache.set_capacity saved;
      Serving.Server.reset_caches ())
    (fun () ->
      Cora.Prelude_cache.set_capacity 2;
      Alcotest.(check int) "cap applied" 2 (Cora.Prelude_cache.capacity ());
      let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
      let srv = Serving.Server.create () in
      let shapes =
        [ [| 1; 2; 3; 4 |]; [| 2; 3; 4; 5 |]; [| 3; 4; 5; 6 |]; [| 4; 5; 6; 1 |] ]
      in
      let evicted () =
        Obs.Metrics.value (Obs.Metrics.counter "prelude_cache.evicted")
      in
      let before = evicted () in
      List.iter (fun s -> ignore (Serving.Server.handle srv w s)) shapes;
      Alcotest.(check bool) "size never exceeds cap" true
        (Cora.Prelude_cache.size () <= 2);
      Alcotest.(check bool) "evictions counted" true (evicted () > before);
      (* LRU: the last-served shape survived, the first was evicted *)
      let recent = Serving.Server.handle srv w (List.nth shapes 3) in
      Alcotest.(check bool) "most recent shape still hits" true
        recent.Serving.Server.prelude_hit;
      let oldest = Serving.Server.handle srv w (List.nth shapes 0) in
      Alcotest.(check bool) "oldest shape was evicted" false
        oldest.Serving.Server.prelude_hit;
      (* an evicted entry is rebuilt, not wrong *)
      let bypass = Serving.Server.create ~compile_cache:false ~prelude_cache:false () in
      let rb = Serving.Server.handle bypass w (List.nth shapes 0) in
      Alcotest.(check bool) "rebuilt results identical to uncached" true
        (bits_equal (get_out oldest) (get_out rb));
      (* the clamp: a nonsensical cap becomes 1, not 0 *)
      Cora.Prelude_cache.set_capacity 0;
      Alcotest.(check int) "cap clamps to 1" 1 (Cora.Prelude_cache.capacity ()))

(* Same bound on the compile memo. *)
let test_compile_memo_cap () =
  Serving.Server.reset_caches ();
  let saved = Cora.Lower.memo_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Cora.Lower.set_memo_capacity saved;
      Serving.Server.reset_caches ())
    (fun () ->
      Cora.Lower.set_memo_capacity 1;
      let w1 = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
      let w2 = Serving.Workload.trmm ~tile:4 ~sizes:[| 8; 12 |] () in
      let srv = Serving.Server.create () in
      let bypass = Serving.Server.create ~compile_cache:false ~prelude_cache:false () in
      let evicted () =
        Obs.Metrics.value (Obs.Metrics.counter "compile_cache.evicted")
      in
      let before = evicted () in
      (* alternate two workloads whose kernels cannot share one slot *)
      List.iter
        (fun (w, shape) ->
          let r = Serving.Server.handle srv w shape in
          let rb = Serving.Server.handle bypass w shape in
          Alcotest.(check bool)
            (w.Serving.Workload.name ^ ": results unchanged under eviction")
            true
            (bits_equal (get_out r) (get_out rb));
          Alcotest.(check bool) "memo never exceeds cap" true
            (Cora.Lower.memo_size () <= 1))
        [
          (w1, [| 5; 3; 6; 2 |]); (w2, [| 8 |]); (w1, [| 5; 3; 6; 2 |]); (w2, [| 12 |]);
        ];
      Alcotest.(check bool) "evictions counted" true (evicted () > before))

(* Streams regenerate identically from their seed, and replay to the same
   checksums. *)
let test_determinism () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.trmm ~tile:4 ~sizes:[| 8; 12 |] () in
  let s1 = Serving.Stream.generate ~workload:w ~pool:2 ~n:6 ~seed:5 () in
  let s2 = Serving.Stream.generate ~workload:w ~pool:2 ~n:6 ~seed:5 () in
  Alcotest.(check bool) "same items" true (s1.Serving.Stream.items = s2.Serving.Stream.items);
  let srv = Serving.Server.create () in
  let c1 = List.map (fun r -> r.Serving.Server.checksum) (Serving.Stream.replay srv w s1) in
  Serving.Server.reset_caches ();
  let c2 = List.map (fun r -> r.Serving.Server.checksum) (Serving.Stream.replay srv w s2) in
  Alcotest.(check (list (float 0.0))) "same checksums" c1 c2

(* ---------------- stage deadlines ---------------- *)

let test_deadline_past () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let srv = Serving.Server.create () in
  let shape = [| 5; 3; 6; 2 |] in
  (match Serving.Server.handle ~deadline_us:0.0 srv w shape with
  | _ -> Alcotest.fail "a past deadline was served"
  | exception Serving.Server.Deadline_exceeded stage ->
      Alcotest.(check string) "stopped before the first stage" "compile" stage);
  Alcotest.(check int) "no job-memo entry" 0 (Cora.Cache.size w.Serving.Workload.job_cache);
  ignore (Serving.Server.handle srv w shape);
  Alcotest.(check int) "an undeadlined serve memoizes" 1
    (Cora.Cache.size w.Serving.Workload.job_cache)

(* Every response field but the wall-clock stage durations, compared
   bitwise. *)
let fields (r : Serving.Server.response) =
  Marshal.to_string
    { r with Serving.Server.stages_us = List.map (fun (s, _) -> (s, 0.0)) r.Serving.Server.stages_us }
    [ Marshal.No_sharing ]

let test_deadline_far () =
  let w = Serving.Workload.fig1 ~batch:4 ~max_len:6 () in
  let shape = [| 5; 3; 6; 2 |] in
  (* each serve starts from empty caches and arena, so hit/miss tallies
     are comparable too *)
  let serve ?deadline_us () =
    Serving.Server.reset_caches ();
    Runtime.Buffer.Arena.clear Runtime.Buffer.Arena.global;
    Serving.Server.handle ?deadline_us (Serving.Server.create ()) w shape
  in
  let plain = serve () in
  let far = serve ~deadline_us:(Obs.Trace_sink.now_us () +. 3.6e9) () in
  Alcotest.(check bool) "far-future deadline: bitwise the same response" true
    (String.equal (fields plain) (fields far))

(* Golden outputs: the XOR of every response checksum's bit pattern (the
   [stream_checksum] of [cora bench-stream]) over a fixed stream per
   workload, served on the interpreter, on the O3 engine and — for
   workloads that batch — as mega-batches.  The constants were recorded
   from a build whose input fill was the per-index [default_fill]
   reference and whose O3 pipeline had no select splitting, so they pin
   both the fill values and the optimized kernels' outputs to bytes that
   no engine or fill change may move. *)
let golden_workloads () = workloads () @ [ Serving.Workload.decode ~batch:2 ~max_src:12 () ]

let golden =
  (* workload -> (stream checksum, output digest) *)
  [
    ("fig1", (0x00082523fef94649L, 0xa4befd11bb8953ccL));
    ("vgemm", (0x0061c1aeffb6c788L, 0xc0ca111afb84ab88L));
    ("trmm", (0x00250a3572bda7e7L, 0x54bd2b48bfd3f680L));
    ("encoder", (0x002c000000000000L, 0x9f1fa6577cb1908bL));
    ("decode", (0x00069f60ab9a7a80L, 0x5dd90eb5787af463L));
  ]

let xor_checksums =
  List.fold_left
    (fun acc (r : Serving.Server.response) ->
      Int64.logxor acc (Int64.bits_of_float r.Serving.Server.checksum))
    0L

(* A checksum is a sum, and the encoder's layer-normalized rows sum to
   about zero, so the outputs are pinned element by element too: an
   FNV-style fold over every output bit pattern, responses in order. *)
let fnv h x = Int64.add (Int64.mul h 1099511628211L) x

let digest =
  List.fold_left
    (fun acc r -> Array.fold_left (fun h x -> fnv h (Int64.bits_of_float x)) acc (get_out r))
    0xcbf29ce484222325L

let test_golden_checksums () =
  List.iter
    (fun (w : Serving.Workload.t) ->
      let name = w.Serving.Workload.name in
      let want_sum, want_digest = List.assoc name golden in
      let shapes =
        (Serving.Stream.generate ~workload:w ~pool:4 ~n:8 ~seed:5 ()).Serving.Stream.shapes
      in
      let hex = Printf.sprintf "%016Lx" in
      let check label rs =
        Alcotest.(check string) (name ^ " " ^ label ^ " checksum") (hex want_sum)
          (hex (xor_checksums rs));
        Alcotest.(check string) (name ^ " " ^ label ^ " digest") (hex want_digest) (hex (digest rs))
      in
      let serve srv w = List.map (Serving.Server.handle srv w) (Array.to_list shapes) in
      Serving.Server.reset_caches ();
      check "interp" (serve (Serving.Server.create ()) w);
      let o3 = Serving.Server.create ~engine:`Compiled ~opt:Ir.Optimize.O3 () in
      check "O3" (serve o3 w);
      if Option.is_some w.Serving.Workload.batching then begin
        let members =
          Array.mapi
            (fun i lens ->
              { Serving.Batcher.m_lens = lens; m_deadline_us = infinity; m_id = i })
            shapes
        in
        let outs = Serving.Batcher.run Serving.Batcher.default_config o3 w members in
        let resps =
          Array.to_list outs
          |> List.map (function
               | Serving.Batcher.Served { resp; _ } -> resp
               | _ -> Alcotest.failf "%s: a batched member was not served" name)
        in
        check "O3 batched" resps
      end)
    (golden_workloads ())

(* The row fill against the per-index reference.  perfbench's oracle
   server fills through the same [Server.execute], so a wrong row fill
   would agree with itself; here every input tensor (read, never written)
   of each workload's job is filled both ways and compared bitwise, solo
   and as 1..8-member mega-batches.  The mega-batch reference localizes
   every index through [local_index]; the row fill localizes only the
   leading one through [Workload.lead_index], which the [local_index]
   contract (checked index by index) makes equivalent. *)
let input_tensors (job : Serving.Workload.job) =
  let kernels = job.Serving.Workload.kernels in
  let written =
    List.map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.out.Cora.Tensor.name) kernels
  in
  List.concat_map (fun (k : Cora.Lower.kernel) -> k.Cora.Lower.reads) kernels
  |> List.filter (fun (t : Cora.Tensor.t) -> not (List.mem t.Cora.Tensor.name written))
  |> List.sort_uniq (fun (a : Cora.Tensor.t) b -> compare a.Cora.Tensor.name b.Cora.Tensor.name)

let check_fill ~label ?lead ~local (job : Serving.Workload.job) =
  let inputs = input_tensors job in
  Alcotest.(check bool) (label ^ ": has inputs") true (inputs <> []);
  List.iter
    (fun (t : Cora.Tensor.t) ->
      let name = t.Cora.Tensor.name in
      let lenv = job.Serving.Workload.lenv in
      let rows = Cora.Ragged.alloc t lenv and ref_ = Cora.Ragged.alloc t lenv in
      Serving.Server.fill_input ?lead:(Option.map (fun f -> f name) lead) name rows;
      let value = Serving.Server.default_fill name and localize = local name in
      Cora.Ragged.fill ref_ (fun idx -> value (localize idx));
      let floats (r : Cora.Ragged.t) = Runtime.Buffer.floats r.Cora.Ragged.buf in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: row fill == default_fill (bitwise)" label name)
        true
        (bits_equal (floats rows) (floats ref_)))
    inputs

let test_row_fill () =
  (* a lead map on tensors of every rank the fill distinguishes: rank 1
     (the run is the leading index), rank 2 and a ragged rank 3 *)
  let b = Cora.Dim.make "b" and j = Cora.Dim.make "j" and k = Cora.Dim.make "k" in
  let lens = Cora.Lenfun.make "lens" in
  let lenv = [ Cora.Lenfun.of_array "lens" [| 3; 0; 5; 1 |] ] in
  let ragged = Cora.Shape.ragged ~dep:b ~fn:lens in
  let fixed = Cora.Shape.fixed in
  let lead b = (b * 7) + 1 in
  List.iter
    (fun (name, dims, extents) ->
      let t = Cora.Tensor.create ~name ~dims ~extents in
      let rows = Cora.Ragged.alloc t lenv and ref_ = Cora.Ragged.alloc t lenv in
      Serving.Server.fill_input ~lead name rows;
      let value = Serving.Server.default_fill name in
      Cora.Ragged.fill ref_ (function i :: rest -> value (lead i :: rest) | [] -> value []);
      let floats (r : Cora.Ragged.t) = Runtime.Buffer.floats r.Cora.Ragged.buf in
      Alcotest.(check bool) (name ^ ": row fill with a lead map (bitwise)") true
        (bits_equal (floats rows) (floats ref_)))
    [
      ("R1", [ b ], [ fixed 4 ]);
      ("R2", [ b; j ], [ fixed 4; fixed 3 ]);
      ("R3", [ b; j; k ], [ fixed 4; ragged; fixed 2 ]);
    ];
  List.iter
    (fun (w : Serving.Workload.t) ->
      let name = w.Serving.Workload.name in
      let rng = Workloads.Rng.create 17 in
      for i = 1 to 3 do
        let lens = w.Serving.Workload.sample rng in
        check_fill ~label:(Printf.sprintf "%s solo %d" name i) ~local:(fun _ idx -> idx)
          (w.Serving.Workload.build lens)
      done;
      match w.Serving.Workload.batching with
      | None -> ()
      | Some bd ->
          for m = 1 to 8 do
            let ls = List.init m (fun _ -> w.Serving.Workload.sample rng) in
            let job = w.Serving.Workload.build (bd.Serving.Workload.merge ls) in
            let local = bd.Serving.Workload.local_index ls in
            let lead = Serving.Workload.lead_index bd ls in
            check_fill ~label:(Printf.sprintf "%s mega x%d" name m) ~lead ~local job;
            (* the local_index contract: only the leading index moves, and
               it moves as [lead_index] says *)
            List.iter
              (fun (t : Cora.Tensor.t) ->
                let tname = t.Cora.Tensor.name in
                let loc = local tname and ld = lead tname in
                Cora.Ragged.iter_indices
                  (Cora.Ragged.alloc t job.Serving.Workload.lenv)
                  (fun idx ->
                    match (idx, loc idx) with
                    | b :: rest, b' :: rest' when rest' = rest && b' = ld b -> ()
                    | [], [] -> ()
                    | _ ->
                        Alcotest.failf
                          "%s mega x%d %s: local_index moved more than the leading index" name
                          m tname))
              (input_tensors job)
          done)
    (golden_workloads ())

(* The reference: [Stream.reference] serves each distinct vector once on
   a cache-bypassed interpreter server, and [Stream.check] holds served
   outcomes to it bit for bit. *)
let bypass_interp () =
  Serving.Server.create ~compile_cache:false ~prelude_cache:false ~engine:`Interp ()

let test_reference_is_bypass () =
  List.iter
    (fun (w : Serving.Workload.t) ->
      let items =
        (Serving.Stream.generate ~workload:w ~pool:3 ~n:6 ~seed:11 ()).Serving.Stream.items
      in
      let refs = Serving.Stream.reference w items in
      Array.iteri
        (fun i lens ->
          let want = get_out (Serving.Server.handle (bypass_interp ()) w lens) in
          Alcotest.(check bool)
            (Printf.sprintf "%s item %d: reference == bypass serve" w.Serving.Workload.name i)
            true (bits_equal want refs.(i)))
        items)
    (golden_workloads ())

let test_reference_serves_once () =
  let w = List.hd (workloads ()) in
  let builds = ref 0 in
  let counted =
    {
      w with
      Serving.Workload.build =
        (fun lens ->
          incr builds;
          w.Serving.Workload.build lens);
    }
  in
  let rng = Workloads.Rng.create 3 in
  let a = w.Serving.Workload.sample rng and b = w.Serving.Workload.sample rng in
  Alcotest.(check bool) "two distinct vectors" true (a <> b);
  let items = [| a; b; a; a; b; a |] in
  ignore (Serving.Stream.reference counted items);
  Alcotest.(check int) "one serve per distinct vector"
    (List.length (List.sort_uniq compare (Array.to_list items)))
    !builds

let test_reference_mismatches () =
  let w = List.hd (workloads ()) in
  let items =
    (Serving.Stream.generate ~workload:w ~pool:2 ~n:4 ~seed:13 ()).Serving.Stream.items
  in
  let srv = Serving.Server.create ~engine:`Compiled ~opt:Ir.Optimize.O3 () in
  let outcomes =
    Array.map (fun lens -> Serving.Frontend.Response (Serving.Server.handle srv w lens)) items
  in
  Alcotest.(check (list int)) "served outcomes match" [] (Serving.Stream.check w items outcomes);
  (match outcomes.(1) with
  | Serving.Frontend.Response r ->
      let out = Array.copy (get_out r) in
      out.(0) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float out.(0)) 1L);
      outcomes.(1) <- Serving.Frontend.Response { r with Serving.Server.out = Some out }
  | _ -> Alcotest.fail "not served");
  outcomes.(3) <- Serving.Frontend.Overloaded;
  Alcotest.(check (list int)) "flipped bit and non-response" [ 1; 3 ]
    (Serving.Stream.check w items outcomes)

let test_digest () =
  let w = List.hd (workloads ()) in
  let rng = Workloads.Rng.create 5 in
  let srv = Serving.Server.create () in
  let a = Serving.Server.handle srv w (w.Serving.Workload.sample rng) in
  let b = Serving.Server.handle srv w (w.Serving.Workload.sample rng) in
  let hex rs = Printf.sprintf "%016Lx" (Serving.Stream.digest rs) in
  Alcotest.(check bool) "equal responses do not cancel" true (hex [ a; a ] <> hex []);
  Alcotest.(check string) "order-independent" (hex [ a; b ]) (hex [ b; a ]);
  Alcotest.(check string) "no output adds nothing" (hex [ a ])
    (hex [ a; { b with Serving.Server.out = None } ]);
  let out = Array.copy (get_out a) in
  out.(0) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float out.(0)) 1L);
  Alcotest.(check bool) "one flipped bit changes it" true
    (hex [ a ] <> hex [ { a with Serving.Server.out = Some out } ])

(* An O0 and an O3 compiled server share each workload value, so each
   finds the job-memo entries the other inserted.  An entry from another
   level is a miss: its plan's handles were compiled at that level. *)
let test_levels_share_job_memo () =
  List.iter
    (fun (w : Serving.Workload.t) ->
      Serving.Server.reset_caches ();
      let o0 = Serving.Server.create ~engine:`Compiled ~opt:Ir.Optimize.O0 () in
      let o3 = Serving.Server.create ~engine:`Compiled ~opt:Ir.Optimize.O3 () in
      let shapes =
        (Serving.Stream.generate ~workload:w ~pool:3 ~n:3 ~seed:17 ()).Serving.Stream.shapes
      in
      let serve srv lens = Serving.Frontend.Response (Serving.Server.handle srv w lens) in
      let rounds = [ [ o0; o3 ]; [ o3; o0 ] ] in
      let served =
        List.concat_map
          (fun order ->
            List.concat_map
              (fun lens -> List.map (fun srv -> (lens, serve srv lens)) order)
              (Array.to_list shapes))
          rounds
      in
      let items = Array.of_list (List.map fst served) in
      let outcomes = Array.of_list (List.map snd served) in
      Alcotest.(check (list int))
        (w.Serving.Workload.name ^ ": every outcome equals the reference")
        [] (Serving.Stream.check w items outcomes))
    (golden_workloads ())

let () =
  let diff =
    List.map
      (fun (w : Serving.Workload.t) ->
        Alcotest.test_case ("differential " ^ w.Serving.Workload.name) `Quick
          (test_differential w))
      (workloads ())
  in
  Alcotest.run "serving"
    [
      ("differential", diff);
      ( "caches",
        [
          Alcotest.test_case "x10 repeated batch hits >= 80%" `Quick test_hit_rate_10x;
          Alcotest.test_case "length mutation invalidates" `Quick test_invalidation;
          Alcotest.test_case "prelude cache cap respected" `Quick test_prelude_cache_cap;
          Alcotest.test_case "compile memo cap respected" `Quick test_compile_memo_cap;
          Alcotest.test_case "stream determinism" `Quick test_determinism;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "row fill == default_fill, solo and mega" `Quick test_row_fill;
          Alcotest.test_case "golden stream checksums" `Quick test_golden_checksums;
        ] );
      ( "reference",
        [
          Alcotest.test_case "reference == fresh bypass serve" `Quick test_reference_is_bypass;
          Alcotest.test_case "one serve per distinct vector" `Quick test_reference_serves_once;
          Alcotest.test_case "flipped bit and non-response mismatch" `Quick
            test_reference_mismatches;
          Alcotest.test_case "stream digest" `Quick test_digest;
          Alcotest.test_case "O0 and O3 servers share a job memo" `Quick
            test_levels_share_job_memo;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "past deadline stops at compile" `Quick test_deadline_past;
          Alcotest.test_case "far deadline changes nothing" `Quick test_deadline_far;
        ] );
    ]

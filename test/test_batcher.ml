(* Batch-former tests.

   - pack fuzz: 500 deterministic cases (zero-length rows, single member,
     all-equal, pathological skew, empty input) over the pure bin-packer:
     every member lands in exactly one bin, bins respect max_batch, tile
     accounting is exact and tile-aligned, CoRa padding never exceeds the
     dense max-len-padded baseline, and packing is a pure function of its
     input (byte-for-byte deterministic);
   - plan: the plan a window is served under is the direct pack, and the
     knobs change it;
   - bitwise scatter: fig1 / vgemm / encoder mega-batches produce, for
     every member, bitwise the bytes a solo cache-bypassed replay of that
     member yields — across multiple bins;
   - formation eviction: a member past its deadline is answered
     Expired "batch" while the rest of the window is served;
   - arena size classes: a second request whose scratch sizes differ
     only within a power-of-two class produces zero new arena misses,
     and re-running an identical mega-batch window is arena-flat and
     bitwise reproducible. *)

module B = Serving.Batcher
module P = Serving.Batcher.Pack
module Rng = Workloads.Rng

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* ---------------- pack fuzz ---------------- *)

(* One random pack instance; the [kind] dimension forces the corners the
   uniform generator would rarely hit. *)
let gen_case rng =
  let kind = Rng.int rng 6 in
  let tile = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
  let max_batch = 1 + Rng.int rng 8 in
  let members =
    match kind with
    | 0 ->
        (* empty window *)
        [||]
    | 1 ->
        (* single member *)
        [| Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng 33) |]
    | 2 ->
        (* all-equal signatures: must bucket together *)
        let proto = Array.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng 17) in
        Array.init (2 + Rng.int rng 8) (fun _ -> Array.copy proto)
    | 3 ->
        (* zero-length rows sprinkled in (and whole-zero members) *)
        Array.init
          (1 + Rng.int rng 10)
          (fun _ ->
            Array.init (1 + Rng.int rng 5) (fun _ ->
                if Rng.int rng 3 = 0 then 0 else Rng.int rng 25))
    | 4 ->
        (* pathological skew: one huge member among many tiny ones *)
        let tiny = Array.init (3 + Rng.int rng 8) (fun _ -> [| 1 + Rng.int rng 2 |]) in
        let huge = [| Array.init (1 + Rng.int rng 4) (fun _ -> 200 + Rng.int rng 100) |] in
        Array.append huge tiny
    | _ ->
        (* general case *)
        Array.init (Rng.int rng 13) (fun _ ->
            Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng 33))
  in
  (tile, max_batch, members)

let check_plan ~case ~tile ~max_batch (members : int array array) (p : P.plan) =
  let n = Array.length members in
  let fail fmt = Alcotest.failf ("case %d: " ^^ fmt) case in
  (* exactly-once partition *)
  let seen = Array.make n 0 in
  Array.iter
    (fun (bin : P.bin) -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) bin.P.members)
    p.P.bins;
  Array.iteri
    (fun i c -> if c <> 1 then fail "member %d appears in %d bins" i c)
    seen;
  let actual =
    Array.fold_left (fun acc rows -> acc + Array.fold_left ( + ) 0 rows) 0 members
  in
  let padded =
    Array.fold_left (fun acc rows -> acc + P.weight ~tile rows) 0 members
  in
  if p.P.elems_actual <> actual then fail "elems_actual %d <> %d" p.P.elems_actual actual;
  if p.P.elems_padded <> padded then fail "elems_padded %d <> %d" p.P.elems_padded padded;
  if p.P.elems_padded mod tile <> 0 then fail "elems_padded not tile-aligned";
  if p.P.elems_actual > p.P.elems_padded then fail "actual > padded";
  if p.P.elems_padded > p.P.elems_naive then
    fail "CoRa padding %d exceeds the dense baseline %d" p.P.elems_padded p.P.elems_naive;
  Array.iteri
    (fun b (bin : P.bin) ->
      let size = Array.length bin.P.members in
      if size = 0 then fail "bin %d is empty" b;
      if size > max_batch then fail "bin %d holds %d > max_batch %d" b size max_batch;
      let wts = Array.map (fun i -> P.weight ~tile members.(i)) bin.P.members in
      let tl = Array.fold_left ( + ) 0 wts in
      if bin.P.tiles <> tl then fail "bin %d tiles %d <> sum of weights %d" b bin.P.tiles tl;
      if bin.P.tiles mod tile <> 0 then fail "bin %d tiles not tile-aligned" b;
      (* mega-batch order is the weight-descending bucketing order *)
      for k = 1 to size - 1 do
        if wts.(k) > wts.(k - 1) then fail "bin %d members not weight-sorted" b
      done)
    p.P.bins

let test_pack_fuzz () =
  let rng = Rng.create 20260809 in
  for case = 1 to 500 do
    let tile, max_batch, members = gen_case rng in
    let p = P.pack ~tile ~max_batch members in
    check_plan ~case ~tile ~max_batch members p;
    (* pure function of its input: a second pack is structurally equal *)
    if P.pack ~tile ~max_batch members <> p then
      Alcotest.failf "case %d: pack is not deterministic" case
  done

let test_pack_rejects () =
  Alcotest.check_raises "tile 0" (Invalid_argument "Batcher.Pack.pack: tile must be >= 1")
    (fun () -> ignore (P.pack ~tile:0 ~max_batch:4 [| [| 3 |] |]));
  Alcotest.check_raises "max_batch 0"
    (Invalid_argument "Batcher.Pack.pack: max_batch must be >= 1") (fun () ->
      ignore (P.pack ~tile:4 ~max_batch:0 [| [| 3 |] |]))

let test_plan_direct () =
  let members = [| [| 5; 3 |]; [| 7 |]; [| 5; 3 |]; [| 1; 1; 1 |] |] in
  let direct = P.pack ~tile:4 ~max_batch:2 members in
  let first = B.plan ~tile:4 ~max_batch:2 members in
  Alcotest.(check bool) "plan = direct pack" true (first = direct);
  Alcotest.(check bool) "plan is deterministic" true
    (B.plan ~tile:4 ~max_batch:2 members = first);
  (* a different tile re-pads every row *)
  let other = B.plan ~tile:8 ~max_batch:2 members in
  Alcotest.(check bool) "tile changes the plan" true
    (other = P.pack ~tile:8 ~max_batch:2 members && other.P.elems_padded <> first.P.elems_padded)

(* ---------------- bitwise scatter ---------------- *)

let member ?(deadline = infinity) i lens = { B.m_lens = lens; m_deadline_us = deadline; m_id = 9000 + i }

let check_bitwise name w tile members_lens =
  Serving.Server.reset_caches ();
  let srv = Serving.Server.create ~execute:true ~engine:`Compiled () in
  let cfg = { B.default_config with B.tile; max_batch = 2 } in
  let members = Array.of_list (List.mapi member members_lens) in
  let outs = B.run cfg srv w members in
  (* a cache-bypassed solo server: the ground truth is independent of
     anything the batched path shares *)
  let bypass =
    Serving.Server.create ~compile_cache:false ~prelude_cache:false ~execute:true
      ~engine:`Compiled ()
  in
  Array.iteri
    (fun i o ->
      match o with
      | B.Served { resp; batch_id; batch_size } ->
          Alcotest.(check bool)
            (Printf.sprintf "%s member %d: real batch id" name i)
            true (batch_id > 0 && batch_size >= 1);
          let solo = Serving.Server.handle bypass w (List.nth members_lens i) in
          Alcotest.(check bool)
            (Printf.sprintf "%s member %d: bitwise equal to solo replay" name i)
            true
            (bits_equal
               (Option.get solo.Serving.Server.out)
               (Option.get resp.Serving.Server.out));
          Alcotest.(check bool)
            (Printf.sprintf "%s member %d: checksum matches solo" name i)
            true
            (Int64.equal
               (Int64.bits_of_float solo.Serving.Server.checksum)
               (Int64.bits_of_float resp.Serving.Server.checksum))
      | _ -> Alcotest.failf "%s member %d: not served" name i)
    outs

let test_bitwise_fig1 () =
  (* 3 members, max_batch 2: forces at least two bins *)
  check_bitwise "fig1"
    (Serving.Workload.fig1 ~batch:6 ~max_len:10 ())
    4
    [ [| 3; 7; 1 |]; [| 10; 2 |]; [| 5; 5; 5; 5 |] ]

let test_bitwise_vgemm () =
  (* raggedness vectors are ms @ ns @ ks, one triple per gemm *)
  check_bitwise "vgemm"
    (Serving.Workload.vgemm ~batch:4 ~tile:8 ~dims_choices:[| 8; 16; 24 |] ())
    8
    [ [| 8; 16; 16; 8; 24; 8 |]; [| 24; 16; 8 |]; [| 16; 8; 16; 24; 8; 8 |] ]

let test_bitwise_encoder () =
  check_bitwise "encoder"
    (Serving.Workload.by_name "encoder")
    32
    [ [| 17 |]; [| 21; 9 |]; [| 5; 13 |] ]

(* ---------------- formation eviction ---------------- *)

let test_eviction () =
  Serving.Server.reset_caches ();
  let w = Serving.Workload.fig1 ~batch:6 ~max_len:10 () in
  let srv = Serving.Server.create ~execute:true ~engine:`Compiled () in
  let members =
    [| member 0 [| 4; 2 |]; member ~deadline:0.0 1 [| 9; 9 |]; member 2 [| 1; 6 |] |]
  in
  let evicted = Obs.Metrics.counter "batcher.evicted" in
  let before = Obs.Metrics.value evicted in
  let outs = B.run B.default_config srv w members in
  (match outs.(1) with
  | B.Expired { stage; batch_id; _ } ->
      Alcotest.(check string) "evicted at formation" "batch" stage;
      Alcotest.(check int) "never joined a batch" 0 batch_id
  | _ -> Alcotest.fail "expired member was not evicted");
  Alcotest.(check int) "eviction counted" (before + 1) (Obs.Metrics.value evicted);
  Array.iter
    (fun i ->
      match outs.(i) with
      | B.Served _ -> ()
      | _ -> Alcotest.failf "live member %d was not served" i)
    [| 0; 2 |]

(* Regression: the mega-batch runs under the MOST GENEROUS member
   deadline (aborting the shared run would punish everyone for the
   tightest budget), so a tight-deadline member sharing a batch with a
   lax one used to be reported [Served] even when the shared run
   finished well past its own budget.  Each member's own deadline must
   be re-checked at scatter. *)
let test_scatter_deadline () =
  Serving.Server.reset_caches ();
  let base = Serving.Workload.fig1 ~batch:6 ~max_len:10 () in
  (* a build slow enough that the 10ms member budget has certainly
     lapsed by scatter time, while the infinite-deadline member keeps
     the shared run going *)
  let w =
    {
      base with
      Serving.Workload.build =
        (fun lens ->
          Unix.sleepf 0.05;
          base.Serving.Workload.build lens);
    }
  in
  let srv = Serving.Server.create ~execute:true () in
  let now = Obs.Trace_sink.now_us () in
  let members =
    [| member 0 [| 4; 2 |]; member ~deadline:(now +. 10_000.0) 1 [| 9; 9 |] |]
  in
  let expired_scatter = Obs.Metrics.counter "batcher.expired_at_scatter" in
  let before = Obs.Metrics.value expired_scatter in
  let outs = B.run B.default_config srv w members in
  (match outs.(1) with
  | B.Expired { stage; batch_id; batch_size } ->
      Alcotest.(check string) "expired at scatter, not formation" "scatter" stage;
      Alcotest.(check bool) "joined a real batch" true (batch_id > 0 && batch_size = 2)
  | _ -> Alcotest.fail "member reported served past its own deadline");
  Alcotest.(check int) "scatter expiry counted" (before + 1)
    (Obs.Metrics.value expired_scatter);
  match outs.(0) with
  | B.Served _ -> ()
  | _ -> Alcotest.fail "lax member was not served"

(* ---------------- arena size classes ---------------- *)

(* Two encoder requests whose exact scratch sizes differ but whose
   power-of-two size classes all agree — seq 34 vs 38: softmax rows pad
   to 36 vs 40 floats (both class 64), attention score rows to 1296 vs
   1600 (both class 2048) — so with class-pooled acquisition the second
   request must produce zero new arena misses.  Exact-keyed pooling
   would miss on every one of those buffers: this is the regression
   guard for the size-class miss storm mega-batches would otherwise
   trigger on every new window composition. *)
let test_arena_size_class () =
  Serving.Server.reset_caches ();
  Runtime.Buffer.Arena.clear Runtime.Buffer.Arena.global;
  let w = Serving.Workload.by_name "encoder" in
  let srv = Serving.Server.create ~execute:true ~engine:`Compiled () in
  ignore (Serving.Server.handle srv w [| 34 |]);
  let miss = Obs.Metrics.counter "arena.miss" in
  let before = Obs.Metrics.value miss in
  ignore (Serving.Server.handle srv w [| 38 |]);
  Alcotest.(check int) "same-class request: arena misses stay flat" before
    (Obs.Metrics.value miss)

(* Re-running an identical mega-batch window must be arena-flat (every
   scratch buffer comes back from the pool) and bitwise reproducible. *)
let test_window_repeat_flat () =
  Serving.Server.reset_caches ();
  Runtime.Buffer.Arena.clear Runtime.Buffer.Arena.global;
  let w = Serving.Workload.fig1 ~batch:6 ~max_len:10 () in
  let srv = Serving.Server.create ~execute:true ~engine:`Compiled () in
  let lens = [ [| 3; 7; 1 |]; [| 10; 2 |]; [| 5; 5; 5; 5 |]; [| 8 |] ] in
  let members () = Array.of_list (List.mapi member lens) in
  let first = B.run B.default_config srv w (members ()) in
  let miss = Obs.Metrics.counter "arena.miss" in
  let before = Obs.Metrics.value miss in
  let second = B.run B.default_config srv w (members ()) in
  Alcotest.(check int) "repeat window: arena misses stay flat" before
    (Obs.Metrics.value miss);
  Array.iteri
    (fun i o ->
      match (first.(i), o) with
      | B.Served { resp = a; _ }, B.Served { resp = b; _ } ->
          Alcotest.(check bool)
            (Printf.sprintf "member %d: repeat is bitwise identical" i)
            true
            (bits_equal
               (Option.get a.Serving.Server.out)
               (Option.get b.Serving.Server.out))
      | _ -> Alcotest.failf "member %d: not served in both runs" i)
    second

let () =
  Alcotest.run "batcher"
    [
      ( "pack",
        [
          Alcotest.test_case "500-case fuzz: partition, alignment, waste" `Quick test_pack_fuzz;
          Alcotest.test_case "invalid knobs rejected" `Quick test_pack_rejects;
          Alcotest.test_case "plan is the direct pack" `Quick test_plan_direct;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "fig1 bitwise vs solo replay" `Quick test_bitwise_fig1;
          Alcotest.test_case "vgemm bitwise vs solo replay" `Quick test_bitwise_vgemm;
          Alcotest.test_case "encoder bitwise vs solo replay" `Quick test_bitwise_encoder;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "formation eviction is typed and counted" `Quick test_eviction;
          Alcotest.test_case "member deadline re-checked at scatter" `Quick
            test_scatter_deadline;
        ] );
      ( "arena",
        [
          Alcotest.test_case "same size class, zero new misses" `Quick test_arena_size_class;
          Alcotest.test_case "repeat window flat and bitwise" `Quick test_window_repeat_flat;
        ] );
    ]

(* Self-test of the benchmark's own machinery: input determinism, the
   oracle, the percentile helper and the modeled-time metric. *)

open Perfbench

let check name ok =
  Printf.printf "%-58s %s\n%!" name (if ok then "ok" else "FAIL");
  if not ok then exit 1

let draw (inp : Wb.inputs) n =
  List.init n (fun i -> inp.Wb.src.Wb.next (i mod inp.Wb.src.Wb.slots))

let serve ?corrupt name ~seed n =
  let e, _, t, _ = Wb.measure ~setup_reps:1 ?corrupt name ~seed (fun _ -> Wb.Count n) in
  (e.Wb.inp.Wb.w, t)

let () =
  (* the same seed gives the same stream and trace; another seed does not *)
  List.iter
    (fun name ->
      let a = Wb.inputs name ~seed:7 and b = Wb.inputs name ~seed:7 in
      let c = Wb.inputs name ~seed:8 in
      check
        (name ^ ": same seed, same inputs")
        (a.Wb.vectors = b.Wb.vectors && draw a 600 = draw b 600);
      check (name ^ ": other seed, other inputs") (a.Wb.vectors <> c.Wb.vectors))
    Wb.workloads;
  (* the percentile helper reports its sample count and refuses a
     percentile with fewer than 10 samples beyond it *)
  let xs = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let p = Stats.percentile 0.99 xs in
  check "p99 of 1000 samples: value, n and beyond"
    (p.Stats.value = 989.0 && p.Stats.n = 1000 && p.Stats.beyond = 10);
  check "p99 of 999 samples is refused"
    (match Stats.percentile 0.99 (Array.sub xs 0 999) with
    | _ -> false
    | exception Stats.Too_few_samples { beyond = 9; _ } -> true);
  check "p50 of 19 samples is refused"
    (match Stats.percentile 0.5 (Array.sub xs 0 19) with
    | _ -> false
    | exception Stats.Too_few_samples _ -> true);
  (* the oracle: a clean run has no failures, one corrupted checksum
     counts as failed *)
  let w, t = serve "fig1_batched" ~seed:3 400 in
  check "fig1_batched: clean run has no failures" (Wb.count_failed w (Hashtbl.create 16) t = 0);
  let corrupt i c = if i = 17 then c +. 1.0 else c in
  let w, t = serve ~corrupt "fig1_batched" ~seed:3 400 in
  check "fig1_batched: a corrupted checksum counts as failed"
    (Wb.count_failed w (Hashtbl.create 16) t = 1);
  (* the modeled time is deterministic on an unbatched workload *)
  let model () =
    let _, t = serve "decode_trace" ~seed:5 120 in
    (Stats.percentile 0.5 (Wb.served_models t ~period:1)).Stats.value
  in
  let m1 = model () in
  let m2 = model () in
  check "decode_trace: model_us_p50 identical across two runs" (Wb.same_bits m1 m2)

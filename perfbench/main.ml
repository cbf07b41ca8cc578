(* Command line of the wall-clock serving benchmark:

     main.exe --workload W --seed N --seconds S --trace 0|1

   Prints human-readable lines, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans go to perfbench/out/<workload>-seed<N>-trace.json. *)

open Perfbench

let usage () =
  prerr_endline
    ("usage: main.exe --workload <" ^ String.concat "|" Wb.workloads
   ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "non-finite metric value"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload Wb.workloads)) || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
  then usage ();
  let r =
    if !trace = 0 then Wb.run_e2e !workload ~seed:!seed ~seconds:!seconds
    else begin
      let r, tj = Wb.run_traced !workload ~seed:!seed ~seconds:!seconds in
      let dir = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "%s-seed%d-trace.json" !workload !seed) in
      Out_channel.with_open_text path (fun oc -> output_string oc (Obs.Json.to_string tj));
      { r with Wb.notes = r.Wb.notes @ [ "spans written to " ^ path ] }
    end
  in
  List.iter print_endline r.Wb.notes;
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         r.Wb.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Wb.failed = 0) r.Wb.attempted r.Wb.failed metrics

(* Ragged 1-D convolution — the paper's introduction motivates ragged
   tensors with audio of different durations (WaveNet-style models); this
   example expresses a batched 1-D convolution over variable-length signals
   in the CoRa API.

   The output length of each signal is a *derived* length function
   [olen(b) = len(b) - K + 1], showing that length functions are arbitrary
   launch-time functions, not just raw arrays.

   Run with:  dune exec examples/ragged_conv.exe *)

open Cora
module E = Ir.Expr

let () =
  let batch = 4 in
  let lens = [| 13; 8; 21; 5 |] in
  let k = 3 (* kernel taps *) and cin = 2 and cout = 3 in
  let lenv =
    [
      Lenfun.of_array "alen" lens;
      Lenfun.of_fun "olen" (fun b -> lens.(b) - k + 1);
    ]
  in
  let alen = Lenfun.make "alen" and olen = Lenfun.make "olen" in

  (* signal [B][len(b)][Cin], weights [Cout][K][Cin], output [B][olen(b)][Cout] *)
  let bd = Dim.make "b" and td = Dim.make "t" and cd = Dim.make "ci" in
  let signal =
    Tensor.create ~name:"SIG" ~dims:[ bd; td; cd ]
      ~extents:[ Shape.fixed batch; Shape.ragged ~dep:bd ~fn:alen; Shape.fixed cin ]
  in
  let weights =
    let a = Dim.make "co" and b' = Dim.make "k" and c = Dim.make "ci" in
    Tensor.create ~name:"W" ~dims:[ a; b'; c ]
      ~extents:[ Shape.fixed cout; Shape.fixed k; Shape.fixed cin ]
  in
  let out =
    let bd = Dim.make "b" and td = Dim.make "t" and od = Dim.make "co" in
    Tensor.create ~name:"CO" ~dims:[ bd; td; od ]
      ~extents:[ Shape.fixed batch; Shape.ragged ~dep:bd ~fn:olen; Shape.fixed cout ]
  in

  (* conv[b][t][co] = Σ_{kk, ci} sig[b][t+kk][ci] * w[co][kk][ci] *)
  let op =
    let kd = Dim.make "kk" and cid = Dim.make "ci" in
    Op.reduce ~name:"conv1d" ~out
      ~loop_extents:
        [
          Shape.fixed batch;
          Shape.ragged ~dep:(List.nth out.Tensor.dims 0) ~fn:olen;
          Shape.fixed cout;
        ]
      ~rdims:[ (kd, Shape.fixed k); (cid, Shape.fixed cin) ]
      ~combine:Ir.Stmt.Sum
      ~init:(fun _ -> E.float 0.0)
      ~reads:[ signal; weights ]
      (fun idx ridx ->
        let b = List.nth idx 0 and t = List.nth idx 1 and co = List.nth idx 2 in
        let kk = List.nth ridx 0 and ci = List.nth ridx 1 in
        E.mul
          (Op.access signal [ b; E.add t kk; ci ])
          (Op.access weights [ co; kk; ci ]))
  in
  let sched = Schedule.create op in
  Schedule.bind_block sched (Schedule.axis_of_dim sched 0);
  Schedule.bind_thread sched (Schedule.axis_of_dim sched 2);
  let kernel = Lower.lower sched in

  print_endline "---- generated C for the ragged conv1d ----";
  print_endline (Codegen_c.kernel_to_string kernel);

  (* execute and verify *)
  let rs = Ragged.alloc signal lenv
  and rw = Ragged.alloc weights lenv
  and rc = Ragged.alloc out lenv in
  Ragged.fill rs (fun idx ->
      sin (float_of_int ((7 * List.nth idx 0) + (3 * List.nth idx 1) + List.nth idx 2)));
  Ragged.fill rw (fun idx ->
      float_of_int ((List.nth idx 0 + 1) * (List.nth idx 1 + 1)) *. 0.1
      +. float_of_int (List.nth idx 2) *. 0.01);
  let _ = Exec.run_ragged ~lenv ~tensors:[ rs; rw; rc ] [ kernel ] in
  let max_err = ref 0.0 in
  Ragged.iter_indices rc (fun idx ->
      let b = List.nth idx 0 and t = List.nth idx 1 and co = List.nth idx 2 in
      let expect = ref 0.0 in
      for kk = 0 to k - 1 do
        for ci = 0 to cin - 1 do
          expect := !expect +. (Ragged.get rs [ b; t + kk; ci ] *. Ragged.get rw [ co; kk; ci ])
        done
      done;
      max_err := Float.max !max_err (Float.abs (!expect -. Ragged.get rc idx)));
  Printf.printf "max error vs direct convolution: %.2e\n" !max_err;
  if !max_err > 1e-5 then (prerr_endline "conv: max error exceeds 1e-5"; exit 1);
  Printf.printf "output lengths: %s (inputs %s, %d taps)\n"
    (String.concat " " (Array.to_list (Array.map (fun l -> string_of_int (l - k + 1)) lens)))
    (String.concat " " (Array.to_list (Array.map string_of_int lens)))
    k;

  (* padding waste a dense implementation would pay *)
  let padded = batch * (Array.fold_left max 0 lens - k + 1) in
  let ragged = Array.fold_left (fun a l -> a + l - k + 1) 0 lens in
  Printf.printf "dense padding would compute %d output positions for %d real ones (%.2fx waste)\n"
    padded ragged
    (float_of_int padded /. float_of_int ragged)

(** Thread-block scheduling simulator.

    Models the hardware scheduler that assigns thread blocks to processors
    (GPU SMs / CPU cores): greedy list scheduling — each block, in issue
    order, goes to the processor that frees up first.  The kernel's latency
    is the makespan.  Thread remapping (§4.1, Fig. 14) changes the issue
    order; with variable-size blocks (vloop nests!) issuing the heavy
    blocks first yields visibly better makespans, which is exactly the
    trmm experiment of Fig. 9. *)

type policy = Issue_order | Descending_work

(* Processor free times in a binary min-heap ordered by (free time,
   processor index): the root is the processor a linear scan for the
   first minimum would pick, so every block lands on the same processor
   — and every processor sums the same costs in the same order — as
   under the textbook scan, in O(log n_proc) per block. *)
module Heap = struct
  type t = { time : float array; proc : int array }

  let less h i j =
    let ti = h.time.(i) and tj = h.time.(j) in
    ti < tj || (ti = tj && h.proc.(i) < h.proc.(j))

  let rec sift h i =
    let n = Array.length h.time in
    let l = (2 * i) + 1 in
    let m = if l < n && less h l i then l else i in
    let m = if l + 1 < n && less h (l + 1) m then l + 1 else m in
    if m <> i then begin
      let t = h.time.(i) and p = h.proc.(i) in
      h.time.(i) <- h.time.(m);
      h.proc.(i) <- h.proc.(m);
      h.time.(m) <- t;
      h.proc.(m) <- p;
      sift h m
    end

  (* heapify free times indexed by processor *)
  let of_times time =
    let h = { time; proc = Array.init (Array.length time) Fun.id } in
    for i = (Array.length time / 2) - 1 downto 0 do
      sift h i
    done;
    h

  (* charge [c] to the first-free processor and restore the order *)
  let add_min h c =
    h.time.(0) <- h.time.(0) +. c;
    sift h 0
end

(** [makespan ~n_proc ~policy costs] — wall time to drain all blocks. *)
let makespan ~n_proc ?(policy = Issue_order) (costs : float array) : float =
  if Array.length costs = 0 then 0.0
  else begin
    let costs =
      match policy with
      | Issue_order -> costs
      | Descending_work ->
          let c = Array.copy costs in
          Array.sort (fun a b -> Float.compare b a) c;
          c
    in
    let n = max n_proc 1 and nb = Array.length costs in
    let time = Array.make n 0.0 in
    (* While every busy processor has a positive free time, the first
       idle one (still at 0) is the first minimum: block [k] goes to
       processor [k].  The heap takes over once that stops holding. *)
    let k = ref 0 in
    while !k < n && !k < nb && costs.(!k) > 0.0 do
      time.(!k) <- costs.(!k);
      incr k
    done;
    if !k < nb then begin
      let h = Heap.of_times time in
      for i = !k to nb - 1 do
        Heap.add_min h costs.(i)
      done
    end;
    (* [Array.fold_left Float.max 0.0], without its per-element sign-bit
       calls: the first NaN wins, otherwise the largest time *)
    let m = ref 0.0 and nan = ref None in
    Array.iter
      (fun t -> if t > !m then m := t else if Float.is_nan t && !nan = None then nan := Some t)
      time;
    match !nan with Some t -> t | None -> !m
  end

(** Average processor utilisation for a given schedule (diagnostics). *)
let utilisation ~n_proc ?(policy = Issue_order) (costs : float array) : float =
  let span = makespan ~n_proc ~policy costs in
  if span <= 0.0 then 1.0
  else Array.fold_left ( +. ) 0.0 costs /. (span *. float_of_int n_proc)

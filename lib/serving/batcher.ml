(** Continuous batch-former (see batcher.mli). *)

type config = {
  max_batch : int;
  max_wait_us : float;
  tile : int;
}

let default_config = { max_batch = 8; max_wait_us = 2000.0; tile = 4 }

(* ------------------------------------------------------------------ *)
(* Pure bin-packing                                                    *)

module Pack = struct
  let ceilmult n m = if m <= 0 then n else (n + m - 1) / m * m

  type bin = { members : int array; tiles : int }

  type plan = {
    bins : bin array;
    elems_actual : int;
    elems_padded : int;
    elems_naive : int;
  }

  let weight ~tile rows = Array.fold_left (fun acc r -> acc + ceilmult r tile) 0 rows

  (* First-fit-decreasing over tile-aligned row weights.

     Members are sorted by (weight desc, raw lengths lex, index) — a total
     deterministic order that doubles as the length-signature bucketing:
     equal-length requests are adjacent, so they land in the same bin and
     the bin's max-len (naive) padding envelope stays tight.  The tile
     capacity is the ideal per-bin load at the minimum bin count, floored
     at the heaviest member so everything fits somewhere; bins are also
     capped at [max_batch] members. *)
  let pack ~tile ~max_batch (members : int array array) : plan =
    if tile < 1 then invalid_arg "Batcher.Pack.pack: tile must be >= 1";
    if max_batch < 1 then invalid_arg "Batcher.Pack.pack: max_batch must be >= 1";
    let n = Array.length members in
    let w = Array.map (weight ~tile) members in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        match compare w.(b) w.(a) with
        | 0 -> ( match compare members.(a) members.(b) with 0 -> compare a b | c -> c)
        | c -> c)
      order;
    let total = Array.fold_left ( + ) 0 w in
    let min_bins = (n + max_batch - 1) / max_batch in
    let wmax = Array.fold_left max 0 w in
    let cap = max wmax (if min_bins = 0 then 0 else (total + min_bins - 1) / min_bins) in
    let bins : (int list ref * int ref) list ref = ref [] in
    Array.iter
      (fun i ->
        let rec place = function
          | [] -> bins := !bins @ [ (ref [ i ], ref w.(i)) ]
          | (mem, tl) :: rest ->
              if List.length !mem < max_batch && !tl + w.(i) <= cap then begin
                mem := i :: !mem;
                tl := !tl + w.(i)
              end
              else place rest
        in
        place !bins)
      order;
    let bins =
      Array.of_list
        (List.map
           (fun (mem, tl) -> { members = Array.of_list (List.rev !mem); tiles = !tl })
           !bins)
    in
    let elems_actual =
      Array.fold_left (fun acc rows -> acc + Array.fold_left ( + ) 0 rows) 0 members
    in
    let elems_padded = Array.fold_left ( + ) 0 w in
    let elems_naive =
      Array.fold_left
        (fun acc bin ->
          let nrows = ref 0 and maxrow = ref 0 in
          Array.iter
            (fun i ->
              let rows = members.(i) in
              nrows := !nrows + Array.length rows;
              Array.iter (fun r -> maxrow := max !maxrow r) rows)
            bin.members;
          acc + (!nrows * ceilmult !maxrow tile))
        0 bins
    in
    { bins; elems_actual; elems_padded; elems_naive }
end

let plan = Pack.pack

(* ------------------------------------------------------------------ *)
(* Runtime: form, run, scatter                                         *)

type member = { m_lens : int array; m_deadline_us : float; m_id : int }

type outcome =
  | Served of { resp : Server.response; batch_id : int; batch_size : int }
  | Expired of { stage : string; batch_id : int; batch_size : int }
  | Failed of { exn : string; backtrace : string; batch_id : int; batch_size : int }

let next_batch_id = Atomic.make 1

let batches_c = Obs.Metrics.counter "batcher.batches"
let members_c = Obs.Metrics.counter "batcher.members"
let evicted_c = Obs.Metrics.counter "batcher.evicted"
let expired_scatter_c = Obs.Metrics.counter "batcher.expired_at_scatter"
let actual_c = Obs.Metrics.counter "batcher.elems_actual"
let padded_c = Obs.Metrics.counter "batcher.elems_padded"
let naive_c = Obs.Metrics.counter "batcher.elems_naive"
let size_h = Obs.Metrics.histogram "batch.size"
let waste_h = Obs.Metrics.histogram "batch.padding_waste"
let form_h = Obs.Metrics.histogram "batch.form_us"

let now_us = Obs.Trace_sink.now_us

(* One member's view of the mega-batch response: its own output slice and
   checksum, stage/model times scaled by its tile share, and the batch's
   cache accounting attributed to the first member only so stream totals
   stay exact (prelude_hit and the signature are genuinely shared). *)
let member_response (resp : Server.response) ~(first : bool) ~(share : float)
    (out : float array option) : Server.response =
  let checksum =
    match out with None -> 0.0 | Some a -> Array.fold_left ( +. ) 0.0 a
  in
  let kernels_ns = resp.Server.kernels_ns *. share in
  let prelude_host_ns = if first then resp.Server.prelude_host_ns else 0.0 in
  let prelude_copy_ns = if first then resp.Server.prelude_copy_ns else 0.0 in
  {
    resp with
    Server.model_ns = kernels_ns +. prelude_host_ns +. prelude_copy_ns;
    kernels_ns;
    prelude_host_ns;
    prelude_copy_ns;
    compile_hits = (if first then resp.Server.compile_hits else 0);
    compile_misses = (if first then resp.Server.compile_misses else 0);
    engine_hits = (if first then resp.Server.engine_hits else 0);
    engine_misses = (if first then resp.Server.engine_misses else 0);
    arena_hits = (if first then resp.Server.arena_hits else 0);
    arena_misses = (if first then resp.Server.arena_misses else 0);
    stages_us = List.map (fun (s, us) -> (s, us *. share)) resp.Server.stages_us;
    counters = (if first then resp.Server.counters else None);
    out;
    checksum;
  }

let run (cfg : config) (srv : Server.t) (w : Workload.t)
    (members : member array) : outcome array =
  let bd =
    match w.Workload.batching with
    | Some b -> b
    | None ->
        invalid_arg
          ("Batcher.run: workload " ^ w.Workload.name ^ " has no batching descriptor")
  in
  let n = Array.length members in
  let out = Array.make n (Expired { stage = "batch"; batch_id = 0; batch_size = 1 }) in
  let t_form = now_us () in
  (* a member already past its deadline is answered now instead of
     joining a mega-batch *)
  let live =
    Array.of_list
      (List.filter
         (fun i ->
           let alive = members.(i).m_deadline_us >= t_form in
           if not alive then begin
             Obs.Metrics.incr evicted_c;
             out.(i) <- Expired { stage = "batch"; batch_id = 0; batch_size = 1 }
           end;
           alive)
         (List.init n Fun.id))
  in
  if Array.length live = 0 then out
  else begin
    let rows = Array.map (fun i -> bd.Workload.rows members.(i).m_lens) live in
    let p = plan ~tile:cfg.tile ~max_batch:cfg.max_batch rows in
    Obs.Metrics.observe form_h (now_us () -. t_form);
    Obs.Metrics.add actual_c p.Pack.elems_actual;
    Obs.Metrics.add padded_c p.Pack.elems_padded;
    Obs.Metrics.add naive_c p.Pack.elems_naive;
    Obs.Metrics.observe waste_h
      (if p.Pack.elems_padded = 0 then 0.0
       else 1.0 -. (float_of_int p.Pack.elems_actual /. float_of_int p.Pack.elems_padded));
    Array.iter
      (fun (bin : Pack.bin) ->
        let batch_id = Atomic.fetch_and_add next_batch_id 1 in
        let idxs = Array.map (fun j -> live.(j)) bin.Pack.members in
        let ms = Array.map (fun i -> members.(i)) idxs in
        let size = Array.length ms in
        Obs.Metrics.incr batches_c;
        Obs.Metrics.add members_c size;
        Obs.Metrics.observe size_h (float_of_int size);
        let lens_list = Array.to_list (Array.map (fun m -> m.m_lens) ms) in
        let mega = bd.Workload.merge lens_list in
        (* inputs: each member's solo [default_fill] values, routed through
           the descriptor's index localization — the bitwise-replay key.
           Localization rewrites at most the leading index, so the fill
           only needs it per mega row; the window is pre-applied so the
           staged offsets are computed once per mega-batch *)
        let lead = Workload.lead_index bd lens_list in
        (* the mega-batch itself runs under the most generous member
           deadline — aborting the shared run would punish every member
           for the tightest budget — but each member's own deadline is
           re-checked at scatter, so a member served past its budget is
           reported [Expired], never silently counted served *)
        let max_deadline =
          Array.fold_left (fun acc m -> Float.max acc m.m_deadline_us) neg_infinity ms
        in
        match
          Obs.Span.with_span
            ~attrs:
              [
                ("workload", Obs.Trace_sink.Str w.Workload.name);
                ("batch_id", Obs.Trace_sink.Int batch_id);
                ("batch_size", Obs.Trace_sink.Int size);
              ]
            "batch.run"
            (fun () -> Server.handle ~deadline_us:max_deadline ~lead srv w mega)
        with
        | resp ->
            let outs =
              match resp.Server.out with
              | None -> Array.make size None
              | Some dense ->
                  Array.of_list (List.map Option.some (bd.Workload.split lens_list dense))
            in
            let wts =
              Array.map (fun m -> Pack.weight ~tile:cfg.tile (bd.Workload.rows m.m_lens)) ms
            in
            let wtot = Array.fold_left ( + ) 0 wts in
            let t_scatter = now_us () in
            (* shared cache/cost accounting rides on the first member that
               is actually served — attributing it to a scatter-expired
               member would drop it from stream totals *)
            let first_served = ref (-1) in
            Array.iteri
              (fun k i ->
                if !first_served < 0 && t_scatter <= members.(i).m_deadline_us then
                  first_served := k)
              idxs;
            Array.iteri
              (fun k i ->
                let m = members.(i) in
                let share =
                  if wtot = 0 then 1.0 /. float_of_int size
                  else float_of_int wts.(k) /. float_of_int wtot
                in
                (* scatter under the member's own trace context: the
                   [batch.member] span is the request's handle on which
                   batch served it and what its share of the work was *)
                Obs.Span.with_request m.m_id (fun () ->
                    Obs.Span.with_span
                      ~attrs:
                        [
                          ("batch_id", Obs.Trace_sink.Int batch_id);
                          ("batch_size", Obs.Trace_sink.Int size);
                          ("tile_share", Obs.Trace_sink.Float share);
                        ]
                      "batch.member"
                      (fun () ->
                        if t_scatter > m.m_deadline_us then begin
                          Obs.Metrics.incr expired_scatter_c;
                          out.(i) <- Expired { stage = "scatter"; batch_id; batch_size = size }
                        end
                        else
                          let r =
                            member_response resp ~first:(k = !first_served) ~share outs.(k)
                          in
                          out.(i) <- Served { resp = r; batch_id; batch_size = size })))
              idxs
        | exception Server.Deadline_exceeded stage ->
            Array.iter
              (fun i -> out.(i) <- Expired { stage; batch_id; batch_size = size })
              idxs
        | exception e ->
            let backtrace = Printexc.get_backtrace () in
            Array.iter
              (fun i ->
                out.(i) <-
                  Failed
                    { exn = Printexc.to_string e; backtrace; batch_id; batch_size = size })
              idxs)
      p.Pack.bins;
    out
  end

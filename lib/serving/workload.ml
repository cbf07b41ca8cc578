open Cora
module E = Ir.Expr

type job = {
  kernels : Lower.kernel list;
  launches : Machine.Launch.t list;
  tables : (string * int array) list;
  lenv : Lenfun.env;
  out_name : string;
}

type batching = {
  rows : int array -> int array;
  merge : int array list -> int array;
  local_index : int array list -> string -> int list -> int list;
  split : int array list -> float array -> float array list;
}

type tunable = {
  tables_of : int array -> (string * int array) list;
  space : int array -> Autotune.Space.point list;
  build_tuned : Autotune.Space.point -> int array -> job;
}

type cached_job = {
  c_epoch : int;
  c_job : job;
  c_state : string;
  c_variant : string;
  c_opt : int option;
  c_sig : Sig.t;
  c_pkey : Sig.t;
}

type t = {
  name : string;
  sample : Workloads.Rng.t -> int array;
  build : int array -> job;
  batching : batching option;
  tunable : tunable option;
  prev_tables : (int array -> (int array * (string * int array) list) option) option;
  job_cache : (string, cached_job) Cache.t;
}

(* Per-instance memos (see the .mli note on why they must not be shared
   across instances).  Capacity covers a serving pool's distinct shapes
   times a handful of schedule variants.  Every instance's memo is also
   registered process-wide so {!Server.reset_caches} can wipe it — a test
   that derives a workload with an effectful [build] (e.g. a gate or a
   deliberate raise) relies on the reset actually emptying the job memo.
   The registry holds the memos weakly: a dropped workload's memo (and
   every job in it) stays collectable, and its slot is reused by the
   next registration. *)
let memos : (string, cached_job) Cache.t Weak.t ref = ref (Weak.create 8)
let memos_lock = Mutex.create ()

let register_memo c =
  Mutex.protect memos_lock @@ fun () ->
  let w = !memos in
  let n = Weak.length w in
  let rec free i = if i = n || not (Weak.check w i) then i else free (i + 1) in
  let i = free 0 in
  if i = n then begin
    let w' = Weak.create (2 * n) in
    Weak.blit w 0 w' 0 n;
    memos := w'
  end;
  Weak.set !memos i (Some c)

let clear_caches () =
  let w = Mutex.protect memos_lock (fun () -> !memos) in
  for i = 0 to Weak.length w - 1 do
    Option.iter Cache.clear (Weak.get w i)
  done

let job_cache_of name =
  let c = Cache.create ~name:("job_build." ^ name) ~capacity:64 () in
  register_memo c;
  c

(* The invariant every adapter maintains: the runtime environment is built
   from the tables and nothing else, so [Sig.of_tables tables] determines
   the prelude build and can safely key the cache. *)
let lenv_of_tables tables = List.map (fun (n, a) -> Lenfun.of_array n a) tables

let tuner_job (j : job) =
  { Autotune.Tuner.kernels = j.kernels; launches = j.launches; lenv = j.lenv }

let candidates (tn : tunable) lens =
  List.map (fun p -> (p, fun () -> tuner_job (tn.build_tuned p lens))) (tn.space lens)

(* ---- batching descriptor helpers ----

   Every batchable adapter concatenates its members along the leading
   batch dimension, so the three scatter/gather problems are the same
   shape everywhere: find which member owns a mega-batch row, rewrite the
   row index to that member's local row, and slice a member's rows back
   out of the mega-batch's dense (max-extent-padded) output. *)

(* [offsets counts] — leading-dim start of each member; [owner] finds the
   member holding mega row [b] (members are few, linear scan). *)
let offsets (counts : int list) : int array =
  let off = Array.make (List.length counts) 0 in
  ignore
    (List.fold_left
       (fun (i, acc) c ->
         off.(i) <- acc;
         (i + 1, acc + c))
       (0, 0) counts);
  off

(* Largest k with off.(k) <= b (binary search: the fill localization
   calls this once per dense element of the mega-batch). *)
let owner (off : int array) (b : int) : int =
  let lo = ref 0 and hi = ref (Array.length off - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if off.(mid) <= b then lo := mid else hi := mid - 1
  done;
  !lo

(* Rewrite a batch-leading multi-index into the owning member's local
   frame, so [Server.default_fill] produces the member's solo values. *)
let localize (off : int array) (idx : int list) : int list =
  match idx with
  | b :: rest ->
      let k = owner off b in
      (b - off.(k)) :: rest
  | [] -> []

(* Slice one member's [rows_k x inner_k] dense block out of the
   mega-batch's [rows_total x inner_mega] dense output ([inner] = product
   of the trailing dense extents).  Rows are contiguous along the leading
   dim; a member's trailing padding columns are zero in both layouts
   (only valid indices are ever unpacked), so copying [inner_k] of
   [inner_mega] columns reproduces the solo dense block bitwise. *)
let slice_rows ~(mega : float array) ~(inner_mega : int) ~(row_off : int)
    ~(rows : int) ~(inner : int) : float array =
  Array.init (rows * inner) (fun i ->
      let r = i / inner and c = i mod inner in
      mega.(((row_off + r) * inner_mega) + c))

(* --- Fig. 1: O[b][j] = 2 * A[b][j], ragged j, padded + guarded --- *)

(* One job per schedule-space point.  [point = None] is the hand schedule
   (loop-pad j by 2, guarded, serial).  Every point keeps [Guard] mode and
   touches only data axes, so the guarded stores cover exactly the valid
   (b, j) pairs and the output is bitwise the hand schedule's. *)
let fig1_job ?(point : Autotune.Space.point option) lens : job =
  let batch = Array.length lens in
  let bdim = Dim.make "b" and jdim = Dim.make "j" in
  let lensf = Lenfun.make "lens" in
  let extents = [ Shape.fixed batch; Shape.ragged ~dep:bdim ~fn:lensf ] in
  let a = Tensor.create ~name:"A" ~dims:[ bdim; jdim ] ~extents in
  let o = Tensor.create ~name:"O" ~dims:[ bdim; jdim ] ~extents in
  let op =
    Op.compute ~name:"double" ~out:o ~loop_extents:extents ~reads:[ a ] (fun idx ->
        E.mul (E.float 2.0) (Op.access a idx))
  in
  let s = Schedule.create op in
  Schedule.set_guard_mode s Schedule.Guard;
  let b = Schedule.axis_of_dim s 0 and j = Schedule.axis_of_dim s 1 in
  let tables = [ ("lens", lens) ] in
  let mk kernels =
    {
      kernels;
      launches = List.map Machine.Launch.single kernels;
      tables;
      lenv = lenv_of_tables tables;
      out_name = o.Tensor.name;
    }
  in
  match point with
  | None ->
      Schedule.pad_loop s j 2;
      mk [ Lower.lower s ]
  | Some p when p.Autotune.Space.fuse ->
      (* fused ragged vloop over all (b, j) pairs, bulk-padded *)
      let f = Schedule.fuse s b j in
      if p.Autotune.Space.pad > 0 then Schedule.pad_loop s f p.Autotune.Space.pad;
      (match p.Autotune.Space.split with
      | 0 -> if p.Autotune.Space.grid then Schedule.bind_block s f
      | t ->
          let fo, fi = Schedule.split s f t in
          if p.Autotune.Space.grid then begin
            Schedule.bind_block s fo;
            Schedule.bind_thread s fi
          end);
      mk [ Lower.lower s ]
  | Some p when p.Autotune.Space.op_split ->
      (* operation splitting: complete tiles unguarded, remainder peeled *)
      let t = max 2 p.Autotune.Space.split in
      let jo, ji = Schedule.split s j t in
      if p.Autotune.Space.grid then begin
        Schedule.bind_block s b;
        Schedule.bind_block s jo;
        Schedule.bind_thread s ji
      end;
      let main =
        Lower.lower ~ranges:[ (j.Schedule.aid, Schedule.Tiles_only) ] ~name_suffix:"_main" s
      in
      let tail =
        Lower.lower ~ranges:[ (j.Schedule.aid, Schedule.Tail_only) ] ~name_suffix:"_tail" s
      in
      mk [ main; tail ]
  | Some p ->
      (* nested ragged loops: pad / split / grid-bind the data axes *)
      if p.Autotune.Space.pad > 0 then Schedule.pad_loop s j p.Autotune.Space.pad;
      (match p.Autotune.Space.split with
      | 0 -> if p.Autotune.Space.grid then Schedule.bind_block s b
      | t ->
          let _jo, ji = Schedule.split s j t in
          if p.Autotune.Space.grid then begin
            Schedule.bind_block s b;
            Schedule.bind_block s _jo;
            Schedule.bind_thread s ji
          end);
      mk [ Lower.lower s ]

let fig1 ?(batch = 6) ?(max_len = 10) () : t =
  let build lens = fig1_job lens in
  (* Batching: lens vectors concatenate along the leading batch dim;
     A/O are [B][j<len(b)], so both the fill localization and the output
     scatter are plain row arithmetic. *)
  let batching =
    let rows lens = lens in
    let merge = Array.concat in
    let local_index ls =
      (* staged: the offsets are a function of the window alone, computed
         once per mega-batch, not once per filled element *)
      let off = offsets (List.map Array.length ls) in
      fun _name idx -> localize off idx
    in
    let split ls mega =
      let counts = List.map Array.length ls in
      let total = List.fold_left ( + ) 0 counts in
      let inner_mega = if total = 0 then 0 else Array.length mega / total in
      let off = offsets counts in
      List.mapi
        (fun k lens ->
          let inner = Array.fold_left max 0 lens in
          slice_rows ~mega ~inner_mega ~row_off:off.(k) ~rows:(Array.length lens) ~inner)
        ls
    in
    { rows; merge; local_index; split }
  in
  (* The search space walks every knob family: grid binding of the nested
     loops, split factors with and without loop padding, the fused ragged
     vloop, operation splitting, and a padding-only point.  The hand
     schedule is the implicit baseline — it is simulated, never pruned. *)
  let tunable =
    {
      tables_of = (fun lens -> [ ("lens", lens) ]);
      space =
        (fun _lens ->
          Autotune.Space.
            [
              make ~grid:true ();
              make ~grid:true ~split:4 ();
              make ~grid:true ~split:4 ~pad:4 ();
              make ~grid:true ~split:8 ~pad:8 ();
              make ~grid:true ~fuse:true ~split:4 ~pad:4 ();
              make ~grid:true ~fuse:true ~split:8 ~pad:8 ();
              make ~grid:true ~op_split:true ~split:4 ();
              make ~pad:1 ();
            ]);
      build_tuned = (fun p lens -> fig1_job ~point:p lens);
    }
  in
  {
    name = "fig1";
    sample = (fun rng -> Array.init batch (fun _ -> 1 + Workloads.Rng.int rng max_len));
    build;
    batching = Some batching;
    tunable = Some tunable;
    prev_tables = None;
    job_cache = job_cache_of "fig1";
  }

(* --- Variable-sized batched gemm (§7.1) --- *)

let vgemm ?(batch = 4) ?(tile = 32)
    ?(dims_choices = Workloads.Vgemm_workload.dims_choices) () : t =
  let sample rng = Array.init (3 * batch) (fun _ -> Workloads.Rng.choose rng dims_choices) in
  let segs dims =
    let batch = Array.length dims / 3 in
    (Array.sub dims 0 batch, Array.sub dims batch batch, Array.sub dims (2 * batch) batch)
  in
  let job_of ~tile dims =
    let batch = Array.length dims / 3 in
    let ms, ns, ks = segs dims in
    let w = { Workloads.Vgemm_workload.batch; ms; ns; ks } in
    let v = Matmul.Vgemm.build ~tile ~target:Matmul.Vgemm.Gpu w in
    let tables =
      [
        ("vm", w.Workloads.Vgemm_workload.ms);
        ("vn", w.Workloads.Vgemm_workload.ns);
        ("vk", w.Workloads.Vgemm_workload.ks);
      ]
    in
    {
      kernels = [ v.Matmul.Vgemm.kernel ];
      launches = [ Machine.Launch.single v.Matmul.Vgemm.kernel ];
      tables;
      lenv = lenv_of_tables tables;
      out_name = v.Matmul.Vgemm.c.Tensor.name;
    }
  in
  let build dims = job_of ~tile dims in
  (* Batching: the raggedness vector is the 3-segment [ms @ ns @ ks], so
     merging un-interleaves the segments and re-concatenates each across
     members.  VA/VB/VC are dense-padded [B][rmax][cmax] with every
     tensor batch-leading; dims are tile multiples (the workload's own
     constraint), so no residual tile writes cross member rows and the
     dense slice below is bitwise the member's solo output. *)
  let batching =
    let seg i l =
      let b = Array.length l / 3 in
      Array.sub l (i * b) b
    in
    let rows l = seg 0 l in
    let merge ls =
      Array.concat (List.map (seg 0) ls @ List.map (seg 1) ls @ List.map (seg 2) ls)
    in
    let counts ls = List.map (fun l -> Array.length l / 3) ls in
    let local_index ls =
      let off = offsets (counts ls) in
      fun _name idx -> localize off idx
    in
    let split ls mega =
      let maxa a = Array.fold_left max 0 a in
      let mmax_m = List.fold_left (fun acc l -> max acc (maxa (seg 0 l))) 0 ls in
      let nmax_m = List.fold_left (fun acc l -> max acc (maxa (seg 1 l))) 0 ls in
      let off = offsets (counts ls) in
      List.mapi
        (fun k l ->
          let b = Array.length l / 3 in
          let mmax = maxa (seg 0 l) and nmax = maxa (seg 1 l) in
          Array.init (b * mmax * nmax) (fun x ->
              let bi = x / (mmax * nmax) in
              let r = x mod (mmax * nmax) / nmax and c = x mod nmax in
              mega.((((off.(k) + bi) * mmax_m + r) * nmax_m) + c)))
        ls
    in
    { rows; merge; local_index; split }
  in
  (* Alternative tiles: the schedule elides guards, so a candidate tile is
     admitted only when it divides every m and n of the batch — coverage
     is then exactly the valid region and the output stays bitwise. *)
  let tunable =
    {
      tables_of =
        (fun dims ->
          let ms, ns, ks = segs dims in
          [ ("vm", ms); ("vn", ns); ("vk", ks) ]);
      space =
        (fun dims ->
          let ms, ns, _ = segs dims in
          let divides t =
            Array.for_all (fun d -> d mod t = 0) ms && Array.for_all (fun d -> d mod t = 0) ns
          in
          List.filter_map
            (fun t ->
              if t <> tile && divides t then Some (Autotune.Space.make ~split:t ()) else None)
            [ 4; 8; 16; 32 ]);
      build_tuned =
        (fun p dims ->
          let t = if p.Autotune.Space.split > 0 then p.Autotune.Space.split else tile in
          job_of ~tile:t dims);
    }
  in
  {
    name = "vgemm";
    sample;
    build;
    batching = Some batching;
    tunable = Some tunable;
    prev_tables = None;
    job_cache = job_cache_of "vgemm";
  }

(* --- Triangular matmul, split + balanced (§7.1) --- *)

let trmm ?(tile = 16) ?(sizes = [| 32; 48; 64 |]) () : t =
  let sample rng = [| Workloads.Rng.choose rng sizes |] in
  let tri_table n = Array.init n (fun r -> min (r + 1) n) in
  let job_of ~variant lens =
    let n = lens.(0) in
    let tm = Matmul.Trmm.build ~tile ~variant ~n () in
    (* The closed-form [tri] materialised as a table: same values the
       kernels see, but now hashable as a raggedness signature. *)
    let tables = [ ("tri", tri_table n) ] in
    {
      kernels = tm.Matmul.Trmm.kernels;
      (* main + tail are a reduction split: racy under h-fusion, so they
         stay separate launches (§7.1 footnote) *)
      launches = List.map Machine.Launch.single tm.Matmul.Trmm.kernels;
      tables;
      lenv = lenv_of_tables tables;
      out_name = tm.Matmul.Trmm.c.Tensor.name;
    }
  in
  let build lens = job_of ~variant:Matmul.Trmm.Split_balanced lens in
  (* Near-trivial space: the hand schedule is already the paper's best
     variant, so the one candidate (the unsplit ablation — same reduction
     order, hence bitwise) exercises the tuner's "keep hand" path. *)
  let tunable =
    {
      tables_of = (fun lens -> [ ("tri", tri_table lens.(0)) ]);
      space = (fun _ -> [ Autotune.Space.make ~aux:[ ("unsplit", 1) ] () ]);
      build_tuned =
        (fun p lens ->
          let variant =
            if Autotune.Space.aux_get p "unsplit" ~default:0 = 1 then
              Matmul.Trmm.Unsplit_unbalanced
            else Matmul.Trmm.Split_balanced
          in
          job_of ~variant lens);
    }
  in
  (* trmm has no batch dimension to concatenate along — one request is one
     triangular instance — so the batcher serves it as singletons. *)
  {
    name = "trmm";
    sample;
    build;
    batching = None;
    tunable = Some tunable;
    prev_tables = None;
    job_cache = job_cache_of "trmm";
  }

(* --- Transformer encoder layer (§7.2) --- *)

let encoder ?(base = false) ?(batch = 4) ~(dataset : Workloads.Datasets.t) () : t =
  let sample rng =
    let seed = Workloads.Rng.int rng 1_000_000 in
    Workloads.Datasets.sample_sorted dataset ~batch ~seed
  in
  let job_of ?jtile ?ftile lens =
    let cfg = (if base then Transformer.Config.base else Transformer.Config.tiny) ~lens in
    let b = Transformer.Builder.build ?jtile ?ftile ~target:Transformer.Builder.Gpu cfg in
    let tables = [ ("seq", lens) ] in
    {
      kernels = Transformer.Builder.kernels b;
      launches = Transformer.Builder.launches b;
      tables;
      lenv = lenv_of_tables tables;
      out_name = b.Transformer.Builder.tensors.Transformer.Builder.out.Tensor.name;
    }
  in
  let build lens = job_of lens in
  (* Batching: sequences concatenate along the leading batch dim.  Every
     per-row computation (projections, attention, softmax, layernorm) is
     row-local, the weight tensors carry no batch dimension (identical in
     solo and mega builds — the fill passes their indices through
     untouched), and only the input token tensor "IN" needs its batch
     index localized.  OUT unpacks to [B][smax][hidden]. *)
  let batching =
    let rows lens = lens in
    let merge = Array.concat in
    let local_index ls =
      let off = offsets (List.map Array.length ls) in
      fun name idx -> match name with "IN" -> localize off idx | _ -> idx
    in
    let split ls mega =
      let counts = List.map Array.length ls in
      let b_m = List.fold_left ( + ) 0 counts in
      let smax_m = List.fold_left (fun acc l -> max acc (Array.fold_left max 0 l)) 0 ls in
      let h = if b_m * smax_m = 0 then 0 else Array.length mega / (b_m * smax_m) in
      let off = offsets counts in
      List.mapi
        (fun k lens ->
          let b = Array.length lens and smax = Array.fold_left max 0 lens in
          Array.init (b * smax * h) (fun x ->
              let bi = x / (smax * h) in
              let s = x mod (smax * h) / h and c = x mod h in
              mega.((((off.(k) + bi) * smax_m + s) * h) + c)))
        ls
    in
    { rows; merge; local_index; split }
  in
  (* The gemm tile knobs from Builder: [jtile] tiles the dense feature
     loop (must divide hidden / 3*hidden / ff — true for both configs'
     candidates below), [ftile] tiles the fused bulk-padded token loop
     (must divide [cfg.bulk] so coverage is unchanged).  Either way only
     data-axis loop structure moves, so outputs stay bitwise. *)
  let tunable =
    let space_points =
      if base then
        Autotune.Space.
          [
            make ~aux:[ ("jtile", 256) ] ();
            make ~aux:[ ("jtile", 64) ] ();
            make ~aux:[ ("jtile", 256); ("ftile", 32) ] ();
          ]
      else
        Autotune.Space.
          [
            make ~aux:[ ("jtile", 16) ] ();
            make ~aux:[ ("jtile", 16); ("ftile", 4) ] ();
            make ~aux:[ ("jtile", 4) ] ();
          ]
    in
    {
      tables_of = (fun lens -> [ ("seq", lens) ]);
      space = (fun _ -> space_points);
      build_tuned =
        (fun p lens ->
          let jtile = Autotune.Space.aux_get p "jtile" ~default:0 in
          let ftile = Autotune.Space.aux_get p "ftile" ~default:0 in
          let opt v = if v > 0 then Some v else None in
          job_of ?jtile:(opt jtile) ?ftile:(opt ftile) lens);
    }
  in
  {
    name = "encoder";
    sample;
    build;
    batching = Some batching;
    tunable = Some tunable;
    prev_tables = None;
    job_cache = job_cache_of "encoder";
  }

(* --- Autoregressive decode step (KV-cache append attention) --- *)

let decode ?(batch = 4) ?(max_src = 24) () : t =
  let job_of src_lens =
    let ones = Array.make (Array.length src_lens) 1 in
    (* Construct the cfg directly (not via [Decoder.make]): make sorts the
       source lengths descending, which would break the row identity a
       decode stream relies on — the prelude delta path matches row [b] of
       step [t] against row [b] of step [t-1]. *)
    let cfg =
      {
        Transformer.Decoder.base = Transformer.Config.tiny ~lens:ones;
        src_lens = Array.copy src_lens;
      }
    in
    let d = Transformer.Decoder.build_decode cfg in
    let tables = [ ("tgt", ones); ("src", Array.copy src_lens) ] in
    {
      kernels = d.Transformer.Decoder.dkernels;
      launches = List.map Machine.Launch.single d.Transformer.Decoder.dkernels;
      tables;
      lenv = lenv_of_tables tables;
      out_name = d.Transformer.Decoder.dattn.Tensor.name;
    }
  in
  let build lens = job_of lens in
  (* Batching: KV caches concatenate along the leading batch dim.  Both
     external inputs (the new-token hidden state DQ and the cache DKV) are
     batch-leading and there are no weight tensors, so every fill index
     localizes the same way.  DAO unpacks to [B][1][H][dh] — the target
     extent is exactly 1 everywhere, so the dense inner volume is the same
     in solo and mega layouts. *)
  let batching =
    let rows lens = lens in
    let merge = Array.concat in
    let local_index ls =
      let off = offsets (List.map Array.length ls) in
      fun _name idx -> localize off idx
    in
    let split ls mega =
      let counts = List.map Array.length ls in
      let total = List.fold_left ( + ) 0 counts in
      let inner = if total = 0 then 0 else Array.length mega / total in
      let off = offsets counts in
      List.mapi
        (fun k lens ->
          slice_rows ~mega ~inner_mega:inner ~row_off:off.(k) ~rows:(Array.length lens) ~inner)
        ls
    in
    { rows; merge; local_index; split }
  in
  {
    name = "decode";
    sample = (fun rng -> Array.init batch (fun _ -> 1 + Workloads.Rng.int rng max_src));
    build;
    batching = Some batching;
    (* The decode schedules are fixed by the cache layout (seq_pad fused
       sweep): there is no schedule point to search. *)
    tunable = None;
    (* One decode step extends every cache row by one token, so the
       predecessor's tables are the current lengths minus one.  Rows
       already at length 1 have no predecessor (that step was the
       prefill), so the first decode step after prefill rebuilds. *)
    prev_tables =
      Some
        (fun lens ->
          if Array.length lens = 0 || Array.exists (fun l -> l <= 1) lens then None
          else
            let plens = Array.map (fun l -> l - 1) lens in
            Some (plens, [ ("tgt", Array.make (Array.length lens) 1); ("src", plens) ]));
    job_cache = job_cache_of "decode";
  }

let by_name ?(dataset = Workloads.Datasets.squad) = function
  | "fig1" -> fig1 ()
  | "vgemm" -> vgemm ()
  | "trmm" -> trmm ()
  | "encoder" -> encoder ~dataset ()
  | "decode" -> decode ()
  | s -> invalid_arg ("Serving.Workload.by_name: unknown workload " ^ s)

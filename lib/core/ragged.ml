(** Runtime ragged-tensor values.

    A ragged tensor value is a flat float buffer laid out according to its
    {!Tensor.t} declaration (densely packed vdim slices with the declared
    storage padding).  This module allocates buffers, computes numeric
    offsets (mirroring {!Storage.lower}), and converts to and from fully
    padded dense layouts — the runtime counterpart of the paper's
    AddPad/RemovePad operators.  Single-element access ({!get}/{!set})
    goes through {!offset}; every bulk traversal ({!iter_indices},
    {!fill}, {!pack}, {!unpack}) is one row-major offset walk
    ({!iter_rows}) that carries the flat offset along instead of
    recomputing it per element. *)

type t = {
  tensor : Tensor.t;
  buf : Runtime.Buffer.t;
  lenv : Lenfun.env;
  prefix_cache : int array option Atomic.t array;
      (* per-dim slot -> prefix sums of per-value slice volumes for a dim
         with ragged dependents, read by both {!offset} and the walk.  Both
         inputs of the sum (tensor, lenv) are immutable for the lifetime of
         the value, so the cache never invalidates.  Without it every
         get/set pays an O(extent) prefix walk, which makes element-wise
         access to a B-row mega-batch O(B^2).  One value can be touched
         from several domains at once (parallel mega-batch fill/scatter),
         so each slot publishes an immutable array through an [Atomic]:
         racing domains may compute the array twice, but the computation
         is deterministic, so whichever publish lands last is identical —
         no torn reads, no lost entries. *)
}

let fresh_prefix_cache tensor = Array.init (Tensor.rank tensor) (fun _ -> Atomic.make None)

(** Allocate a zero-filled buffer sized for [tensor] under [lenv] (zero fill
    matters: padded regions must read as 0 so padded reductions stay
    correct). *)
let alloc tensor lenv =
  {
    tensor;
    buf = Runtime.Buffer.float_buf (Tensor.size_elems tensor ~lenv);
    lenv;
    prefix_cache = fresh_prefix_cache tensor;
  }

(* Prefix sums of per-value slice volumes for dim [i] (one with ragged
   dependents), memoized in the value's [prefix_cache] over the dim's whole
   extent; shared by {!offset} and the walk.  The recursive volume handles
   nested raggedness. *)
let prefix ({ tensor = t; lenv; _ } as r) i =
  match Atomic.get r.prefix_cache.(i) with
  | Some p -> p
  | None ->
      let di_id = (List.nth t.Tensor.dims i).Dim.id in
      (* the per-value volumes depend only on the value itself (the
         original prefix loop passed env = [(di, v)] alone), so one array
         sized by the extent's maximum covers every outer index — including
         nested raggedness where dim i's own extent varies with its
         dependee *)
      let ext =
        match List.nth t.Tensor.extents i with
        | Shape.Fixed c -> c
        | Shape.Ragged { dep; fn } ->
            let dpos = Tensor.dim_pos t dep in
            let dep_ext = Shape.eval (List.nth t.Tensor.extents dpos) ~lenv ~dep_value:0 in
            let f = Lenfun.lookup lenv (Lenfun.name fn) in
            let m = ref 0 in
            for v = 0 to dep_ext - 1 do
              m := max !m (f v)
            done;
            !m
      in
      let p = Array.make (ext + 1) 0 in
      for v = 0 to ext - 1 do
        p.(v + 1) <- p.(v) + Tensor.slice_volume t ~lenv ~level:(i + 1) ~env:[ (di_id, v) ]
      done;
      Atomic.set r.prefix_cache.(i) (Some p);
      p

(** Numeric flat offset of a multi-index — the runtime mirror of the
    symbolic scheme in {!Storage.lower} (same layout, computed directly).
    Everything is re-derived per call; bulk traversals use the walk below,
    and the test suite checks the two agree. *)
let offset ({ tensor = t; lenv; _ } as r) (idx : int list) : int =
  let n = Tensor.rank t in
  let idx = Array.of_list idx in
  if Array.length idx <> n then invalid_arg "Ragged.offset: wrong index arity";
  let off = ref 0 in
  for i = 0 to n - 1 do
    if Tensor.has_dependents t i then off := !off + (prefix r i).(idx.(i))
    else begin
      (* stride = subtree volume given the current outer assignment; the
         recursive volume handles internal ragged pairs that a plain
         product of sizes would get wrong *)
      let env =
        List.filteri (fun j _ -> j <= i) t.Tensor.dims
        |> List.mapi (fun j (d : Dim.t) -> (d.Dim.id, idx.(j)))
      in
      off := !off + (idx.(i) * Tensor.slice_volume t ~lenv ~level:(i + 1) ~env)
    end
  done;
  !off

let get r idx = Runtime.Buffer.get_float r.buf (offset r idx)
let set r idx v = Runtime.Buffer.set_float r.buf (offset r idx) v

(* The offset walk: every valid multi-index in row-major order, one
   innermost run at a time.  [row idx base len] receives the outer indices
   in [idx.(0 .. n-2)] (slot [n-1] is unspecified) and a run of [len]
   elements whose innermost index [v] lives at flat offset [base + v] —
   the innermost stride is the volume of nothing, 1.  A rank-0 tensor is
   one run of length 1 at offset 0.

   Each dim's kind is fixed per call: a dim with ragged dependents adds
   its memoized prefix sum ({!prefix}, read once per outer assignment),
   any other adds [v * stride], the stride being the volume of the inner
   dims computed once per outer assignment (it cannot depend on the dim's
   own value: nothing inner depends on it).  Length functions are looked
   up once per call.  Prefix reads and buffer writes stay bounds-checked,
   so a declaration {!offset} rejects is rejected here too. *)
let iter_rows r (row : int array -> int -> int -> unit) =
  let t = r.tensor in
  let n = Tensor.rank t in
  let exts = Array.of_list t.Tensor.extents in
  let pads = t.Tensor.pads in
  let dep =
    Array.map
      (fun e -> match Shape.dependence e with None -> -1 | Some d -> Tensor.dim_pos t d)
      exts
  in
  let fns =
    Array.map
      (function
        | Shape.Fixed c -> fun _ -> c
        | Shape.Ragged { fn; _ } -> Lenfun.lookup r.lenv (Lenfun.name fn))
      exts
  in
  let has_deps = Array.init n (Tensor.has_dependents t) in
  let idx = Array.make n 0 in
  let extent i = fns.(i) (if dep.(i) < 0 then 0 else idx.(dep.(i))) in
  (* [Tensor.slice_volume] over the resolved arrays; assigns [idx] slots of
     the summed (dependee) dims it descends through, which the walk
     overwrites before reading *)
  let rec volume level =
    if level >= n then 1
    else
      let e = Shape.pad_to (extent level) pads.(level) in
      if not has_deps.(level) then e * volume (level + 1)
      else begin
        let total = ref 0 in
        for v = 0 to e - 1 do
          idx.(level) <- v;
          total := !total + volume (level + 1)
        done;
        !total
      end
  in
  let rec go i base =
    let e = extent i in
    if e <= 0 then ()
    else if i = n - 1 then row idx base e
    else if has_deps.(i) then begin
      let p = prefix r i in
      for v = 0 to e - 1 do
        idx.(i) <- v;
        go (i + 1) (base + p.(v))
      done
    end
    else begin
      let stride = volume (i + 1) in
      for v = 0 to e - 1 do
        idx.(i) <- v;
        go (i + 1) (base + (v * stride))
      done
    end
  in
  if n = 0 then row idx 0 1 else go 0 0

(* The multi-index of element [v] of the run [iter_rows] hands [row]. *)
let index_at idx v =
  let rec go j acc = if j < 0 then acc else go (j - 1) (idx.(j) :: acc) in
  let n = Array.length idx in
  if n = 0 then [] else go (n - 2) [ v ]

(** Every valid multi-index with its flat offset, in row-major order. *)
let iter_offsets r (f : int list -> int -> unit) =
  iter_rows r (fun idx base len ->
      for v = 0 to len - 1 do
        f (index_at idx v) (base + v)
      done)

(** Iterate over every valid (unpadded) multi-index of the tensor. *)
let iter_indices r (f : int list -> unit) = iter_offsets r (fun idx _ -> f idx)

(** Fill with a function of the multi-index (valid region only; padding
    stays zero). *)
let fill r f =
  let a = Runtime.Buffer.floats r.buf in
  iter_rows r (fun idx base len ->
      for v = 0 to len - 1 do
        a.(base + v) <- f (index_at idx v)
      done)

(** Dense (fully padded) shape: every ragged extent replaced by its maximum
    over the dependee's range. *)
let dense_shape r =
  let t = r.tensor in
  let exts = Array.of_list t.Tensor.extents in
  Array.to_list
    (Array.mapi
       (fun i ext ->
         match ext with
         | Shape.Fixed c -> Shape.pad_to c t.Tensor.pads.(i)
         | Shape.Ragged { dep; fn } ->
             let dpos = Tensor.dim_pos t dep in
             let dep_extent =
               match exts.(dpos) with
               | Shape.Fixed c -> c
               | Shape.Ragged _ -> invalid_arg "Ragged.dense_shape: nested raggedness"
             in
             let f = Lenfun.lookup r.lenv (Lenfun.name fn) in
             let m = ref 0 in
             for v = 0 to dep_extent - 1 do
               m := max !m (f v)
             done;
             Shape.pad_to !m t.Tensor.pads.(i))
       exts)

(* [row] for {!iter_rows} moving each innermost run between ragged
   storage and the dense row-major array of [shape] (the {!dense_shape}):
   [copy storage dense len] gets the run's start in both. *)
let dense_rows shape copy =
  let shape = Array.of_list shape in
  let n = Array.length shape in
  fun idx base len ->
    let d = ref 0 in
    for j = 0 to n - 2 do
      d := (!d * shape.(j)) + idx.(j)
    done;
    copy base (if n = 0 then 0 else !d * shape.(n - 1)) len

(** Pack a dense row-major array (of [dense_shape]) into ragged storage —
    the RemovePad operator. *)
let pack r (dense : float array) =
  let a = Runtime.Buffer.floats r.buf in
  iter_rows r (dense_rows (dense_shape r) (fun s d len -> Array.blit dense d a s len))

(** Unpack ragged storage into a dense row-major array, zero elsewhere —
    the AddPad operator. *)
let unpack r : float array =
  let a = Runtime.Buffer.floats r.buf in
  let shape = dense_shape r in
  let dense = Array.make (List.fold_left ( * ) 1 shape) 0.0 in
  iter_rows r (dense_rows shape (fun s d len -> Array.blit a s dense d len));
  dense

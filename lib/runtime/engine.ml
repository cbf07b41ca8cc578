open Ir

(* Compiled execution engine.  See engine.mli for the contract; the key
   invariant maintained throughout this file is *interpreter parity*: for
   every IR node the compiled closure performs the same stores, the same
   bounds checks and the same counter bumps, in the same order, as the
   corresponding branch of Interp.eval / Interp.exec — that is what makes
   the differential fuzz in test/test_engine.ml meaningful. *)

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Persistent domain pool *)

module Pool = struct
  (* One job = one chunked parallel-for.  The atomics live in the job, not
     the pool: a worker that wakes up late simply finds every chunk of the
     old job already claimed and goes back to waiting, so there is no
     generation race on shared counters. *)
  type job = {
    f : int -> unit;
    chunks : int;
    next : int Atomic.t;  (* next chunk index to claim *)
    remaining : int Atomic.t;  (* chunks not yet finished *)
  }

  type t = {
    mutex : Mutex.t;
    work : Condition.t;  (* a new job was published *)
    done_ : Condition.t;  (* a job's last chunk finished *)
    mutable job : job option;
    mutable generation : int;
    mutable stop : bool;
    mutable error : exn option;
    mutable domains : unit Domain.t list;
    parallelism : int;
  }

  let parallelism t = t.parallelism

  let drain t (j : job) =
    let rec loop () =
      let c = Atomic.fetch_and_add j.next 1 in
      if c < j.chunks then begin
        (try j.f c
         with e ->
           Mutex.lock t.mutex;
           (match t.error with None -> t.error <- Some e | Some _ -> ());
           Mutex.unlock t.mutex);
        (* decrement *after* the handler so an exception can't hang [run] *)
        let left = Atomic.fetch_and_add j.remaining (-1) - 1 in
        if left = 0 then begin
          Mutex.lock t.mutex;
          Condition.broadcast t.done_;
          Mutex.unlock t.mutex
        end;
        loop ()
      end
    in
    loop ()

  let worker t =
    let last_gen = ref 0 in
    let rec loop () =
      Mutex.lock t.mutex;
      while (not t.stop) && t.generation = !last_gen do
        Condition.wait t.work t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        last_gen := t.generation;
        let j = t.job in
        Mutex.unlock t.mutex;
        (match j with Some j -> drain t j | None -> ());
        loop ()
      end
    in
    loop ()

  let create ?(domains = 4) () =
    let t =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        job = None;
        generation = 0;
        stop = false;
        error = None;
        domains = [];
        parallelism = max 1 domains;
      }
    in
    t.domains <-
      List.init (max 0 (domains - 1)) (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let run t ~chunks (f : int -> unit) =
    if chunks > 0 then begin
      let j = { f; chunks; next = Atomic.make 0; remaining = Atomic.make chunks } in
      Mutex.lock t.mutex;
      t.error <- None;
      t.job <- Some j;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* the caller is a worker too: total parallelism = domains *)
      drain t j;
      Mutex.lock t.mutex;
      while Atomic.get j.remaining > 0 do
        Condition.wait t.done_ t.mutex
      done;
      let e = t.error in
      t.job <- None;
      t.error <- None;
      Mutex.unlock t.mutex;
      match e with Some e -> raise e | None -> ()
    end

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end

(* ------------------------------------------------------------------ *)
(* Frames *)

type ufun_binding =
  | U_unbound
  | U_table of int array  (* prelude table: direct indexing *)
  | U_fn of (int -> int)  (* length function *)
  | U_const of int  (* prelude scalar: any arity, like (fun _ -> n) *)

type layout = {
  n_ints : int;
  n_floats : int;
  n_bools : int;
  buf_slots : (int, int) Hashtbl.t;  (* Var.id -> fbuf slot *)
  buf_by_name : (string, int) Hashtbl.t;
      (* display name -> external slot; -1 when the name is ambiguous.
         Compiled kernels are shared across alpha-equivalent bodies (the
         Sig-keyed memo), whose buffer vars carry fresh ids but the same
         deterministic display names — name lookup is the fallback that
         lets a cached kernel be re-bound to another build's tensors. *)
  buf_names : string array;  (* slot -> mangled name, for errors *)
  buf_external : bool array;  (* slot must be bound before run *)
  ufun_slots : (string, int) Hashtbl.t;
  ufun_names : string array;
}

type frame = {
  layout : layout;
  entry : frame -> unit;
  ints : int array;
  floats : float array;
  bools : bool array;
  fbufs : float array array;
  buf_bound : bool array;
  ufuns : ufun_binding array;
  mutable pool : Pool.t option;
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable indirect : int;
  mutable guards : int;
  mutable guard_hits : int;
  mutable hoisted : int;  (** evaluations of LICM-hoisted preheader bindings *)
  mutable microkernel_elems : int;  (** elements processed by fused microkernels *)
}

type compiled = { c_layout : layout; c_entry : frame -> unit }

(* ------------------------------------------------------------------ *)
(* Compilation context: name -> slot resolution, done exactly once *)

type slot = SInt of int | SFloat of int | SBool of int
type ty = TInt | TFloat | TBool

type ctx = {
  optimize : bool;
  (* O3: strength reduction and stride-specialized / register-tiled
     microkernels; false compiles the O0 reference closures *)
  vars : (int, slot) Hashtbl.t;  (* Var.id -> scalar slot *)
  mutable n_int : int;
  mutable n_float : int;
  mutable n_bool : int;
  c_buf_slots : (int, int) Hashtbl.t;
  mutable bufs_rev : (string * string * bool ref) list;
      (* (mangled, display name, external), newest first *)
  mutable n_buf : int;
  c_ufun_slots : (string, int) Hashtbl.t;
  mutable ufuns_rev : string list;
  mutable n_ufun : int;
}

let new_ctx optimize =
  {
    optimize;
    vars = Hashtbl.create 32;
    n_int = 0;
    n_float = 0;
    n_bool = 0;
    c_buf_slots = Hashtbl.create 16;
    bufs_rev = [];
    n_buf = 0;
    c_ufun_slots = Hashtbl.create 16;
    ufuns_rev = [];
    n_ufun = 0;
  }

(* Scoped variable binding: allocate a fresh slot for [v], compile the scope
   body through [k], then restore whatever [v] meant outside (lowering never
   shadows, but correctness here is one save/restore away, so keep it). *)
let with_var ctx (v : Var.t) ty (k : int -> 'a) : 'a =
  let slot, raw =
    match ty with
    | TInt ->
        let s = ctx.n_int in
        ctx.n_int <- s + 1;
        (SInt s, s)
    | TFloat ->
        let s = ctx.n_float in
        ctx.n_float <- s + 1;
        (SFloat s, s)
    | TBool ->
        let s = ctx.n_bool in
        ctx.n_bool <- s + 1;
        (SBool s, s)
  in
  let prev = Hashtbl.find_opt ctx.vars v.Var.id in
  Hashtbl.replace ctx.vars v.Var.id slot;
  let r = k raw in
  (match prev with
  | Some p -> Hashtbl.replace ctx.vars v.Var.id p
  | None -> Hashtbl.remove ctx.vars v.Var.id);
  r

(* Buffer slot for [v].  [internal] marks Alloc-introduced scratch, which
   needs no binding before run. *)
let buf_slot ?(internal = false) ctx (v : Var.t) : int =
  match Hashtbl.find_opt ctx.c_buf_slots v.Var.id with
  | Some s ->
      if internal then begin
        match List.nth_opt ctx.bufs_rev (ctx.n_buf - 1 - s) with
        | Some (_, _, ext) -> ext := false
        | None -> ()
      end;
      s
  | None ->
      let s = ctx.n_buf in
      ctx.n_buf <- s + 1;
      Hashtbl.add ctx.c_buf_slots v.Var.id s;
      ctx.bufs_rev <- (Var.mangled v, Var.name v, ref (not internal)) :: ctx.bufs_rev;
      s

let ufun_slot ctx name : int =
  match Hashtbl.find_opt ctx.c_ufun_slots name with
  | Some s -> s
  | None ->
      let s = ctx.n_ufun in
      ctx.n_ufun <- s + 1;
      Hashtbl.add ctx.c_ufun_slots name s;
      ctx.ufuns_rev <- name :: ctx.ufuns_rev;
      s

let finalize ctx : layout =
  let bufs = Array.of_list (List.rev ctx.bufs_rev) in
  let buf_by_name = Hashtbl.create (Array.length bufs) in
  Array.iteri
    (fun slot (_, name, ext) ->
      if !ext then
        match Hashtbl.find_opt buf_by_name name with
        | None -> Hashtbl.replace buf_by_name name slot
        | Some _ -> Hashtbl.replace buf_by_name name (-1) (* ambiguous: id-only *))
    bufs;
  {
    n_ints = ctx.n_int;
    n_floats = ctx.n_float;
    n_bools = ctx.n_bool;
    buf_slots = ctx.c_buf_slots;
    buf_by_name;
    buf_names = Array.map (fun (m, _, _) -> m) bufs;
    buf_external = Array.map (fun (_, _, e) -> !e) bufs;
    ufun_slots = ctx.c_ufun_slots;
    ufun_names = Array.of_list (List.rev ctx.ufuns_rev);
  }

(* ------------------------------------------------------------------ *)
(* Expression compilation: staged, unboxed per scalar type *)

type cexpr =
  | CInt of (frame -> int)
  | CFloat of (frame -> float)
  | CBool of (frame -> bool)

let as_int = function
  | CInt f -> f
  | CFloat f -> fun fr -> int_of_float (f fr)
  | CBool _ -> err "expected int, got bool"

let as_float = function
  | CFloat f -> f
  | CInt f -> fun fr -> float_of_int (f fr)
  | CBool _ -> err "expected float, got bool"

let as_bool = function
  | CBool f -> f
  | CInt _ | CFloat _ -> err "expected bool, got a scalar"

(* Slot accesses use unsafe_get/set: indices are compiler-assigned, in range
   by construction.  Buffer element accesses keep explicit bounds checks with
   interpreter-identical error messages. *)

let compile_binop (op : Expr.binop) ca cb : cexpr =
  match (op, ca, cb) with
  | Expr.Add, CInt fa, CInt fb -> CInt (fun fr -> fa fr + fb fr)
  | Expr.Sub, CInt fa, CInt fb -> CInt (fun fr -> fa fr - fb fr)
  | Expr.Mul, CInt fa, CInt fb -> CInt (fun fr -> fa fr * fb fr)
  | Expr.Min, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if x <= y then x else y)
  | Expr.Max, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if x >= y then x else y)
  | Expr.FloorDiv, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if y = 0 then err "division by zero"
          else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
          else x / y)
  | Expr.Mod, CInt fa, CInt fb ->
      CInt
        (fun fr ->
          let x = fa fr in
          let y = fb fr in
          if y = 0 then err "mod by zero"
          else
            let r = x mod y in
            if r <> 0 && (r < 0) <> (y < 0) then r + y else r)
  | (Expr.FloorDiv | Expr.Mod), _, _ -> err "floordiv/mod on floats"
  | (Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max), _, _ ->
      (* float path; Div is float even on int operands, like the interpreter *)
      let fa = as_float ca and fb = as_float cb in
      let lift f =
        CFloat
          (fun fr ->
            let x = fa fr in
            let y = fb fr in
            fr.flops <- fr.flops + 1;
            f x y)
      in
      (match op with
      | Expr.Add -> lift ( +. )
      | Expr.Sub -> lift ( -. )
      | Expr.Mul -> lift ( *. )
      | Expr.Div -> lift ( /. )
      | Expr.Min -> lift Float.min
      | Expr.Max -> lift Float.max
      | Expr.FloorDiv | Expr.Mod -> assert false)

let compile_cmp (op : Expr.cmpop) ca cb : cexpr =
  match (ca, cb) with
  | CBool _, _ | _, CBool _ -> err "expected int, got bool"
  | (CFloat _, _ | _, CFloat _) ->
      (* Float.compare, not (<): NaN ordering must match the interpreter *)
      let fa = as_float ca and fb = as_float cb in
      let lift test = CBool (fun fr -> test (Float.compare (fa fr) (fb fr)) 0) in
      (match op with
      | Expr.Lt -> lift ( < )
      | Expr.Le -> lift ( <= )
      | Expr.Gt -> lift ( > )
      | Expr.Ge -> lift ( >= )
      | Expr.Eq -> lift ( = )
      | Expr.Ne -> lift ( <> ))
  | CInt fa, CInt fb -> (
      match op with
      | Expr.Lt -> CBool (fun fr -> fa fr < fb fr)
      | Expr.Le -> CBool (fun fr -> fa fr <= fb fr)
      | Expr.Gt -> CBool (fun fr -> fa fr > fb fr)
      | Expr.Ge -> CBool (fun fr -> fa fr >= fb fr)
      | Expr.Eq -> CBool (fun fr -> fa fr = fb fr)
      | Expr.Ne -> CBool (fun fr -> fa fr <> fb fr))

let rec compile_expr ctx (e : Expr.t) : cexpr =
  match e with
  | Int n -> CInt (fun _ -> n)
  | Float f -> CFloat (fun _ -> f)
  | Bool b -> CBool (fun _ -> b)
  | Var v -> (
      match Hashtbl.find_opt ctx.vars v.Var.id with
      | Some (SInt s) -> CInt (fun fr -> Array.unsafe_get fr.ints s)
      | Some (SFloat s) -> CFloat (fun fr -> Array.unsafe_get fr.floats s)
      | Some (SBool s) -> CBool (fun fr -> Array.unsafe_get fr.bools s)
      | None -> err "unbound variable %s" (Var.mangled v))
  | Binop (op, a, b) -> compile_binop op (compile_expr ctx a) (compile_expr ctx b)
  | Cmp (op, a, b) -> compile_cmp op (compile_expr ctx a) (compile_expr ctx b)
  | And (a, b) ->
      let fa = as_bool (compile_expr ctx a) and fb = as_bool (compile_expr ctx b) in
      CBool (fun fr -> fa fr && fb fr)
  | Or (a, b) ->
      let fa = as_bool (compile_expr ctx a) and fb = as_bool (compile_expr ctx b) in
      CBool (fun fr -> fa fr || fb fr)
  | Not a ->
      let fa = as_bool (compile_expr ctx a) in
      CBool (fun fr -> not (fa fr))
  | Select (c, a, b) -> (
      let fc = as_bool (compile_expr ctx c) in
      let ca = compile_expr ctx a and cb = compile_expr ctx b in
      match (ca, cb) with
      | CInt fa, CInt fb -> CInt (fun fr -> if fc fr then fa fr else fb fr)
      | CBool fa, CBool fb -> CBool (fun fr -> if fc fr then fa fr else fb fr)
      | (CInt _ | CFloat _), (CInt _ | CFloat _) ->
          let fa = as_float ca and fb = as_float cb in
          CFloat (fun fr -> if fc fr then fa fr else fb fr)
      | _ -> err "select branches have mismatched types")
  | Load { buf = v; index } ->
      let slot = buf_slot ctx v in
      let name = Var.mangled v in
      let fi = as_int (compile_expr ctx index) in
      CFloat
        (fun fr ->
          fr.loads <- fr.loads + 1;
          let a = Array.unsafe_get fr.fbufs slot in
          let i = fi fr in
          if i < 0 || i >= Array.length a then
            err "load %s[%d] out of bounds (len %d)" name i (Array.length a)
          else Array.unsafe_get a i)
  | Ufun (name, args) -> compile_ufun ctx name args
  | Call (name, args) -> compile_call ctx name args
  | Access { tensor; _ } -> err "unlowered tensor access to %s reached the engine" tensor
  | Let (v, value, body) -> (
      let cv = compile_expr ctx value in
      let ty = match cv with CInt _ -> TInt | CFloat _ -> TFloat | CBool _ -> TBool in
      with_var ctx v ty @@ fun slot ->
      let set : frame -> unit =
        match cv with
        | CInt f -> fun fr -> Array.unsafe_set fr.ints slot (f fr)
        | CFloat f -> fun fr -> Array.unsafe_set fr.floats slot (f fr)
        | CBool f -> fun fr -> Array.unsafe_set fr.bools slot (f fr)
      in
      match compile_expr ctx body with
      | CInt f ->
          CInt
            (fun fr ->
              set fr;
              f fr)
      | CFloat f ->
          CFloat
            (fun fr ->
              set fr;
              f fr)
      | CBool f ->
          CBool
            (fun fr ->
              set fr;
              f fr))

and compile_ufun ctx name args : cexpr =
  let slot = ufun_slot ctx name in
  match args with
  | [ a ] ->
      (* the hot path: one counter bump, one arg, direct table indexing *)
      let fi = as_int (compile_expr ctx a) in
      CInt
        (fun fr ->
          fr.loads <- fr.loads + 1;
          fr.indirect <- fr.indirect + 1;
          let i = fi fr in
          match Array.unsafe_get fr.ufuns slot with
          | U_table t ->
              if i < 0 || i >= Array.length t then
                err "ufun %s: index %d out of bounds (len %d)" name i (Array.length t)
              else Array.unsafe_get t i
          | U_fn f -> f i
          | U_const n -> n
          | U_unbound -> err "unbound uninterpreted function %s" name)
  | [] ->
      CInt
        (fun fr ->
          fr.loads <- fr.loads + 1;
          fr.indirect <- fr.indirect + 1;
          match Array.unsafe_get fr.ufuns slot with
          | U_const n -> n
          | U_table _ | U_fn _ -> err "ufun %s: arity mismatch (0 args)" name
          | U_unbound -> err "unbound uninterpreted function %s" name)
  | args ->
      let fis = List.map (fun a -> as_int (compile_expr ctx a)) args in
      let nargs = List.length args in
      CInt
        (fun fr ->
          fr.loads <- fr.loads + 1;
          fr.indirect <- fr.indirect + 1;
          (* arguments still count their loads, like the interpreter's *)
          List.iter (fun f -> ignore (f fr)) fis;
          match Array.unsafe_get fr.ufuns slot with
          | U_const n -> n
          | U_table _ | U_fn _ -> err "ufun %s: arity mismatch (%d args)" name nargs
          | U_unbound -> err "unbound uninterpreted function %s" name)

and compile_call ctx name args : cexpr =
  (* intrinsics resolve at compile time; flops+4 per call, like the interp *)
  let cargs = List.map (fun a -> as_float (compile_expr ctx a)) args in
  let unary f =
    match cargs with
    | [ fa ] ->
        CFloat
          (fun fr ->
            fr.flops <- fr.flops + 4;
            f (fa fr))
    | _ -> err "unknown intrinsic %s/%d" name (List.length cargs)
  in
  match name with
  | "exp" -> unary exp
  | "log" -> unary log
  | "sqrt" -> unary sqrt
  | "tanh" -> unary tanh
  | "erf" -> unary Interp.erf_approx
  | "relu" -> unary (Float.max 0.0)
  | "neg_infinity" -> (
      match cargs with
      | [] ->
          CFloat
            (fun fr ->
              fr.flops <- fr.flops + 4;
              neg_infinity)
      | _ -> err "unknown intrinsic %s/%d" name (List.length cargs))
  | _ -> err "unknown intrinsic %s/%d" name (List.length cargs)

(* ------------------------------------------------------------------ *)
(* Statement compilation *)

(* Chunk boundaries balancing per-iteration [weights] across [k] chunks:
   returns [k + 1] nondecreasing offsets with [bounds.(0) = 0] and
   [bounds.(k) = n]; every chunk is contiguous and (for k <= n) nonempty.
   Greedy by weight prefix: cut as soon as a chunk's proportional quota is
   met, while always leaving at least one iteration per remaining chunk —
   so one heavily ragged row cannot drag the whole tail into one chunk. *)
let balance_chunks (ws : int array) k : int array =
  let n = Array.length ws in
  let k = max 1 (min k n) in
  let total = max 1 (Array.fold_left ( + ) 0 ws) in
  let bounds = Array.make (k + 1) n in
  bounds.(0) <- 0;
  let c = ref 1 and acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + ws.(i);
    while
      !c < k && !acc * k >= !c * total && n - (i + 1) >= k - !c && bounds.(!c - 1) <= i
    do
      bounds.(!c) <- i + 1;
      incr c
    done
  done;
  while !c < k do
    bounds.(!c) <- max bounds.(!c - 1) (n - (k - !c));
    incr c
  done;
  bounds

(* Parallel chunk execution.  Mirrors Interp.exec_multicore: scalar state is
   copied per chunk (loop writes to disjoint buffer locations, per the
   Parallel-binding contract), the buffer slot table is shallow-copied so
   Alloc scratch stays chunk-local, and per-chunk counters fold into the
   parent through atomics — totals are exactly those of a serial run.

   Chunks are sized by [est] (a per-iteration cost estimate compiled from
   the loop body) when available, so a handful of long ragged rows no
   longer starves the other domains; without an estimate the split is by
   iteration count, as before.  The estimate runs on a scratch view of the
   frame whose counters are discarded — chunking must never perturb the
   statistics. *)
let run_parallel pool (fr : frame) slot m n ?est (cbody : frame -> unit) =
  let loads = Atomic.make 0 and stores = Atomic.make 0 and flops = Atomic.make 0 in
  let indirect = Atomic.make 0 and guards = Atomic.make 0 and guard_hits = Atomic.make 0 in
  let hoisted = Atomic.make 0 and mk_elems = Atomic.make 0 in
  let chunks = min n (Pool.parallelism pool * 4) in
  let bounds =
    match est with
    | None ->
        let csize = (n + chunks - 1) / chunks in
        Array.init (chunks + 1) (fun c -> min n (c * csize))
    | Some est ->
        let sfr = { fr with loads = 0 } in
        let ws =
          Array.init n (fun j ->
              Array.unsafe_set sfr.ints slot (m + j);
              try max 1 (est sfr) with _ -> 1)
        in
        balance_chunks ws chunks
  in
  let ti = Array.copy fr.ints
  and tf = Array.copy fr.floats
  and tb = Array.copy fr.bools in
  Pool.run pool ~chunks (fun c ->
      let lo = m + bounds.(c) in
      let hi = m + bounds.(c + 1) - 1 in
      if lo <= hi then begin
        let w =
          {
            fr with
            ints = Array.copy ti;
            floats = Array.copy tf;
            bools = Array.copy tb;
            fbufs = Array.copy fr.fbufs;
            pool = None (* no nested parallelism, like exec_multicore *);
            loads = 0;
            stores = 0;
            flops = 0;
            indirect = 0;
            guards = 0;
            guard_hits = 0;
            hoisted = 0;
            microkernel_elems = 0;
          }
        in
        for i = lo to hi do
          Array.unsafe_set w.ints slot i;
          cbody w
        done;
        ignore (Atomic.fetch_and_add loads w.loads);
        ignore (Atomic.fetch_and_add stores w.stores);
        ignore (Atomic.fetch_and_add flops w.flops);
        ignore (Atomic.fetch_and_add indirect w.indirect);
        ignore (Atomic.fetch_and_add guards w.guards);
        ignore (Atomic.fetch_and_add guard_hits w.guard_hits);
        ignore (Atomic.fetch_and_add hoisted w.hoisted);
        ignore (Atomic.fetch_and_add mk_elems w.microkernel_elems)
      end);
  fr.loads <- fr.loads + Atomic.get loads;
  fr.stores <- fr.stores + Atomic.get stores;
  fr.flops <- fr.flops + Atomic.get flops;
  fr.indirect <- fr.indirect + Atomic.get indirect;
  fr.guards <- fr.guards + Atomic.get guards;
  fr.guard_hits <- fr.guard_hits + Atomic.get guard_hits;
  fr.hoisted <- fr.hoisted + Atomic.get hoisted;
  fr.microkernel_elems <- fr.microkernel_elems + Atomic.get mk_elems

(* ------------------------------------------------------------------ *)
(* Microkernels (O3).  An innermost loop whose body matches one of
   the Optimize.classify_inner shapes compiles to a tight float-array loop
   with running (strength-reduced) offsets and a register accumulator — no
   per-element slot traffic, no per-element closure calls, no per-element
   bounds checks.  Bitwise parity holds because the float operation
   sequence is exactly the interpreter's: reductions combine into the same
   cell in the same order (kept in a register, legal because nothing else
   reads or writes the cell mid-loop — enforced by the dst/src aliasing
   dispatch), and element-wise loops process elements in the same order.
   Bounds checks are hoisted to block entry, once per (m, n) block and
   before variant dispatch: a linear index sequence is in bounds iff its
   two endpoints are (divergence only on error paths).  Counters are
   bulk-added with the same totals; [microkernel_elems] records how many
   elements took this path.

   The loop body is selected from the Microkernel registry when the
   closure is built — Optimize.classify_stride decides between the
   unit-stride (unrolled / Array.blit) and strided variants, and
   Optimize.classify_nest upgrades a two-deep dot nest to the
   register-tiled kernel.  The unfused compiled loop remains the
   fallback for aliased destinations.  Each kernel keeps one order-preserving
   accumulator chain per destination element (unrolling never
   reassociates a chain), so outputs stay bitwise-identical. *)

let check_lin ~what ~name arr i0 i1 =
  let lo = if i0 <= i1 then i0 else i1 in
  let hi = if i0 <= i1 then i1 else i0 in
  if lo < 0 || hi >= Array.length arr then
    err "%s %s[%d] out of bounds (len %d)" what name
      (if lo < 0 then lo else hi)
      (Array.length arr)

let combine_of = function
  | Stmt.Sum -> ( +. )
  | Stmt.Prod -> ( *. )
  | Stmt.Rmax -> Float.max
  | Stmt.Rmin -> Float.min

(* Shared Sum dispatch for the reduction microkernels: [None] selects the
   Sum fast path (a direct [+.] loop, no per-element closure call),
   [Some combine] the general loop.  One dispatch point shared by the Dot
   and Reduce1 patterns instead of a per-pattern [is_sum] split; bitwise
   transparent because [combine_of Sum] is [( +. )]. *)
let sum_fast = function Stmt.Sum -> None | op -> Some (combine_of op)

let compile_affine ctx (ax : Optimize.affine) =
  (as_int (compile_expr ctx ax.Optimize.base), as_int (compile_expr ctx ax.Optimize.stride))

(* Variant-selection accounting: [engine.mk_variant.<name>] counts how
   many compiled loops bound each microkernel variant.  Bumped once at
   closure-build time — where selection happens — never per call. *)
let note_variant name =
  Obs.Metrics.incr (Obs.Metrics.counter ("engine.mk_variant." ^ name))

(* [emit_inner ctx pattern] returns [fallback -> frame -> m -> n -> unit];
   the fallback (the generic compiled loop) runs when the destination
   aliases an input, where register accumulation would diverge.  Callers
   guarantee n > 0.  The per-block wrapper always does the same three
   things in order — aliasing dispatch, hoisted endpoint bounds checks,
   then the variant body selected at closure-build time — followed by the
   bulk counter update. *)
let emit_inner ctx (p : Optimize.inner) :
    (frame -> int -> int -> unit) -> frame -> int -> int -> unit =
  match p with
  | Optimize.Dot { dst; dst_idx; op; a; a_ix; b; b_ix } ->
      let dslot = buf_slot ctx dst and aslot = buf_slot ctx a and bslot = buf_slot ctx b in
      let dname = Var.mangled dst and aname = Var.mangled a and bname = Var.mangled b in
      let fdi = as_int (compile_expr ctx dst_idx) in
      let fab, fas = compile_affine ctx a_ix in
      let fbb, fbs = compile_affine ctx b_ix in
      let sum = sum_fast op in
      let body : float array -> float array -> float array -> int -> int -> int -> int -> int -> int -> unit =
        match (sum, Optimize.classify_stride a_ix, Optimize.classify_stride b_ix) with
        | None, Optimize.S_unit, Optimize.S_unit ->
            note_variant "dot.sum_u4";
            fun darr aarr barr di a0 _astep b0 _bstep n ->
              Array.unsafe_set darr di
                (Microkernel.dot_sum_unit ~a:aarr ~a0 ~b:barr ~b0 ~n
                   ~init:(Array.unsafe_get darr di))
        | None, _, _ ->
            note_variant "dot.sum_s4";
            fun darr aarr barr di a0 astep b0 bstep n ->
              Array.unsafe_set darr di
                (Microkernel.dot_sum_strided ~a:aarr ~a0 ~astep ~b:barr ~b0 ~bstep ~n
                   ~init:(Array.unsafe_get darr di))
        | Some combine, _, _ ->
            note_variant "dot.combine_s";
            fun darr aarr barr di a0 astep b0 bstep n ->
              Array.unsafe_set darr di
                (Microkernel.dot_strided ~combine ~a:aarr ~a0 ~astep ~b:barr ~b0 ~bstep ~n
                   ~init:(Array.unsafe_get darr di))
      in
      fun fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let aarr = Array.unsafe_get fr.fbufs aslot in
        let barr = Array.unsafe_get fr.fbufs bslot in
        if darr == aarr || darr == barr then fallback fr m n
        else begin
          let di = fdi fr in
          let astep = fas fr in
          let a0 = fab fr + (m * astep) in
          let bstep = fbs fr in
          let b0 = fbb fr + (m * bstep) in
          if di < 0 || di >= Array.length darr then
            err "reduce_store %s[%d] out of bounds (len %d)" dname di (Array.length darr);
          check_lin ~what:"load" ~name:aname aarr a0 (a0 + ((n - 1) * astep));
          check_lin ~what:"load" ~name:bname barr b0 (b0 + ((n - 1) * bstep));
          body darr aarr barr di a0 astep b0 bstep n;
          fr.loads <- fr.loads + (2 * n);
          fr.flops <- fr.flops + (2 * n);
          fr.stores <- fr.stores + n;
          fr.microkernel_elems <- fr.microkernel_elems + n
        end
  | Optimize.Reduce1 { dst; dst_idx; op; src; src_ix } ->
      let dslot = buf_slot ctx dst and sslot = buf_slot ctx src in
      let dname = Var.mangled dst and sname = Var.mangled src in
      let fdi = as_int (compile_expr ctx dst_idx) in
      let fsb, fss = compile_affine ctx src_ix in
      let sum = sum_fast op in
      let body : float array -> float array -> int -> int -> int -> int -> unit =
        match (sum, Optimize.classify_stride src_ix) with
        | None, Optimize.S_unit ->
            note_variant "reduce1.sum_u4";
            fun darr sarr di s0 _sstep n ->
              Array.unsafe_set darr di
                (Microkernel.reduce1_sum_unit ~src:sarr ~s0 ~n ~init:(Array.unsafe_get darr di))
        | None, _ ->
            note_variant "reduce1.sum_s";
            fun darr sarr di s0 sstep n ->
              Array.unsafe_set darr di
                (Microkernel.reduce1_sum_strided ~src:sarr ~s0 ~sstep ~n
                   ~init:(Array.unsafe_get darr di))
        | Some combine, _ ->
            note_variant "reduce1.combine_s";
            fun darr sarr di s0 sstep n ->
              Array.unsafe_set darr di
                (Microkernel.reduce1_strided ~combine ~src:sarr ~s0 ~sstep ~n
                   ~init:(Array.unsafe_get darr di))
      in
      fun fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        if darr == sarr then fallback fr m n
        else begin
          let di = fdi fr in
          let sstep = fss fr in
          let s0 = fsb fr + (m * sstep) in
          if di < 0 || di >= Array.length darr then
            err "reduce_store %s[%d] out of bounds (len %d)" dname di (Array.length darr);
          check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((n - 1) * sstep));
          body darr sarr di s0 sstep n;
          fr.loads <- fr.loads + n;
          fr.flops <- fr.flops + n;
          fr.stores <- fr.stores + n;
          fr.microkernel_elems <- fr.microkernel_elems + n
        end
  | Optimize.Copy { dst; dst_ix; src; src_ix } ->
      let dslot = buf_slot ctx dst and sslot = buf_slot ctx src in
      let dname = Var.mangled dst and sname = Var.mangled src in
      let fdb, fds = compile_affine ctx dst_ix in
      let fsb, fss = compile_affine ctx src_ix in
      let body : float array -> float array -> int -> int -> int -> int -> int -> unit =
        match (Optimize.classify_stride dst_ix, Optimize.classify_stride src_ix) with
        | Optimize.S_unit, Optimize.S_unit ->
            note_variant "copy.blit";
            fun darr sarr d0 _dstep s0 _sstep n ->
              (* blit has memmove semantics; the generic loop forward-
                 propagates on overlap, so same-array copies take the
                 order-preserving strided body instead *)
              if darr != sarr then Microkernel.copy_unit ~dst:darr ~d0 ~src:sarr ~s0 ~n
              else Microkernel.copy_strided ~dst:darr ~d0 ~dstep:1 ~src:sarr ~s0 ~sstep:1 ~n
        | _ ->
            note_variant "copy.strided";
            fun darr sarr d0 dstep s0 sstep n ->
              Microkernel.copy_strided ~dst:darr ~d0 ~dstep ~src:sarr ~s0 ~sstep ~n
      in
      fun _fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        let dstep = fds fr in
        let d0 = fdb fr + (m * dstep) in
        let sstep = fss fr in
        let s0 = fsb fr + (m * sstep) in
        check_lin ~what:"store" ~name:dname darr d0 (d0 + ((n - 1) * dstep));
        check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((n - 1) * sstep));
        body darr sarr d0 dstep s0 sstep n;
        fr.loads <- fr.loads + n;
        fr.stores <- fr.stores + n;
        fr.microkernel_elems <- fr.microkernel_elems + n
  | Optimize.Scale { dst; dst_ix; src; src_ix; factor } ->
      let dslot = buf_slot ctx dst and sslot = buf_slot ctx src in
      let dname = Var.mangled dst and sname = Var.mangled src in
      let fdb, fds = compile_affine ctx dst_ix in
      let fsb, fss = compile_affine ctx src_ix in
      let body : float array -> float array -> int -> int -> int -> int -> int -> unit =
        match (Optimize.classify_stride dst_ix, Optimize.classify_stride src_ix) with
        | Optimize.S_unit, Optimize.S_unit ->
            note_variant "scale.u4";
            fun darr sarr d0 _dstep s0 _sstep n ->
              Microkernel.scale_unit ~dst:darr ~d0 ~src:sarr ~s0 ~factor ~n
        | _ ->
            note_variant "scale.strided";
            fun darr sarr d0 dstep s0 sstep n ->
              Microkernel.scale_strided ~dst:darr ~d0 ~dstep ~src:sarr ~s0 ~sstep ~factor ~n
      in
      fun _fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        let dstep = fds fr in
        let d0 = fdb fr + (m * dstep) in
        let sstep = fss fr in
        let s0 = fsb fr + (m * sstep) in
        check_lin ~what:"store" ~name:dname darr d0 (d0 + ((n - 1) * dstep));
        check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((n - 1) * sstep));
        body darr sarr d0 dstep s0 sstep n;
        fr.loads <- fr.loads + n;
        fr.flops <- fr.flops + n;
        fr.stores <- fr.stores + n;
        fr.microkernel_elems <- fr.microkernel_elems + n

(* [emit_nest ctx ~slot nest] register-tiles a two-deep Sum-dot nest
   (O3): four destination elements per pass, the shared operand
   loaded once per reduction step.  Each destination keeps its own
   order-preserving accumulator chain (the chains are independent), so
   tiling cannot perturb float results.  [slot] is the tile variable's
   frame slot — the peeled raggedness guard, if any, is evaluated once
   per tile-var value with the slot set, exactly like the generic [If]
   (including its [guards]/[guard_hits] accounting); runs of consecutive
   guard-true iterations tile in groups of four, guard-false iterations
   are skipped.  A peeled init store becomes the accumulators' start
   value (evaluated per tile-var value — a bias row, or the cell itself);
   a peeled epilogue store reruns per tile-var value after its chain
   completes (a scale, an activation).

   Masked dots ([Select (mask, a*b, +0.)] reduction values) use the
   zero-add identity: [acc +. +0.] equals [acc] except that [-0. +. +0.]
   is [+0.], so skipping a {e tail} of masked-out steps is exact after
   clearing a possible [-0.] accumulator — [fix_tail].  The tile-var-wise
   mask conjuncts gate the whole chain (false: the chain is init plus
   [nk] zero adds = [fix_tail init]); a [k < bound] conjunct truncates it
   to [nk_eff] real steps plus a fixed tail.  Skipped steps also skip
   their operand loads — safe, because [Select] never evaluates the
   untaken branch in the generic engine or the interpreter either.

   Falls back to the generic tile loop when the reduction runs zero
   iterations, when the destination aliases an operand or an init /
   epilogue input, or when the destination stride is zero (the chains
   would collapse onto one cell).  Bounds checks are endpoint checks per
   processed span — never for iterations the guard or mask skips. *)
let neg_zero_bits = Int64.bits_of_float (-0.0)

let emit_nest ctx ~slot (nest : Optimize.nest) :
    (frame -> int -> int -> unit) -> frame -> int -> int -> unit =
  match nest with
  | Optimize.Tiled_dot
      { dst; dst_ix; guard; init; init_bufs; epi; epi_bufs; vmask; kbound; kmin;
        kext; shared; shared_ix; shared_left; moving; moving_kstride; moving_jbase }
    ->
      let dslot = buf_slot ctx dst
      and sslot = buf_slot ctx shared
      and mslot = buf_slot ctx moving in
      let dname = Var.mangled dst
      and sname = Var.mangled shared
      and mname = Var.mangled moving in
      let fdb, fds = compile_affine ctx dst_ix in
      let fkm = as_int (compile_expr ctx kmin) in
      let fkn = as_int (compile_expr ctx kext) in
      let fsb, fss = compile_affine ctx shared_ix in
      let fmjb, fmjs = compile_affine ctx moving_jbase in
      let fmks = as_int (compile_expr ctx moving_kstride) in
      let fguard = Option.map (fun c -> as_bool (compile_expr ctx c)) guard in
      let fvmask = Option.map (fun c -> as_bool (compile_expr ctx c)) vmask in
      let fkbound = Option.map (fun e -> as_int (compile_expr ctx e)) kbound in
      let finit = Option.map (fun e -> as_float (compile_expr ctx e)) init in
      (* the epilogue compiles like the generic [Store] (same counters,
         same bounds-check message); it is run with the tile var's slot
         set, once per completed chain *)
      let fepi =
        Option.map
          (fun s ->
            match s with
            | Stmt.Store { buf; index; value } ->
                let bslot = buf_slot ctx buf in
                let bname = Var.mangled buf in
                let fi = as_int (compile_expr ctx index) in
                let fv = as_float (compile_expr ctx value) in
                fun fr ->
                  fr.stores <- fr.stores + 1;
                  let a = Array.unsafe_get fr.fbufs bslot in
                  let i = fi fr in
                  if i < 0 || i >= Array.length a then
                    err "store %s[%d] out of bounds (len %d)" bname i (Array.length a)
                  else Array.unsafe_set a i (fv fr)
            | _ -> err "nest epilogue must be a store")
          epi
      in
      (* buffers the init / epilogue read: if any is bound to the same
         array as the destination at runtime, fall back *)
      let extra_slots =
        Array.of_list
          (List.sort_uniq compare (List.map (buf_slot ctx) (init_bufs @ epi_bufs)))
      in
      note_variant
        (if Option.is_some fvmask || Option.is_some fkbound then "dot.tile4_masked"
         else "dot.tile4");
      let tile4 =
        if shared_left then Microkernel.tile4_dot_sum_shared_left
        else Microkernel.tile4_dot_sum_shared_right
      in
      (* lean runtime path for the plain nest (no mask, no epilogue, init
         a literal or absent — the gemm shape): no per-chain closure
         dispatch, no slot writes inside the tile, the accumulator start
         is a compile-time constant.  The feature-bearing shapes take the
         general path below. *)
      let plain_init =
        match init with
        | None -> Some None
        | Some (Expr.Float c) -> Some (Some c)
        | Some _ -> None
      in
      match (fvmask, fkbound, fepi, plain_init) with
      | None, None, None, Some pinit ->
          let has_init = Option.is_some pinit in
          let initc = match pinit with Some c -> c | None -> 0.0 in
          fun fallback fr m n ->
            let darr = Array.unsafe_get fr.fbufs dslot in
            let sarr = Array.unsafe_get fr.fbufs sslot in
            let marr = Array.unsafe_get fr.fbufs mslot in
            let nk = fkn fr in
            if nk <= 0 || darr == sarr || darr == marr then fallback fr m n
            else begin
              let dstep = fds fr in
              if dstep = 0 then fallback fr m n
              else begin
                let mk = fkm fr in
                (* absolute-index bases: cell j lives at db + j*dstep *)
                let db = fdb fr in
                let ss = fss fr in
                let s0 = fsb fr + (mk * ss) in
                let mks = fmks fr in
                let mjs = fmjs fr in
                let mb = fmjb fr + (mk * mks) in
                let checked_shared = ref false in
                (* endpoint checks for the span [jlo, jlo+cnt); the shared
                   operand's j-invariant range is checked once, at the
                   first processed span (guard-false blocks touch
                   nothing) *)
                let span_check jlo cnt =
                  let dlo = db + (jlo * dstep) in
                  check_lin ~what:"reduce_store" ~name:dname darr dlo
                    (dlo + ((cnt - 1) * dstep));
                  if not !checked_shared then begin
                    check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((nk - 1) * ss));
                    checked_shared := true
                  end;
                  let mlo = mb + (jlo * mjs) in
                  let jspan = (cnt - 1) * mjs and kspan = (nk - 1) * mks in
                  check_lin ~what:"load" ~name:mname marr
                    (mlo + min 0 jspan + min 0 kspan)
                    (mlo + max 0 jspan + max 0 kspan)
                in
                let bulk cnt =
                  let elems = cnt * nk in
                  fr.loads <- fr.loads + (2 * elems);
                  fr.flops <- fr.flops + (2 * elems);
                  fr.stores <- fr.stores + elems + (if has_init then cnt else 0);
                  fr.microkernel_elems <- fr.microkernel_elems + elems
                in
                let tile j =
                  span_check j 4;
                  let dj = db + (j * dstep) in
                  let acc =
                    if has_init then
                      { Microkernel.x0 = initc; x1 = initc; x2 = initc; x3 = initc }
                    else
                      {
                        Microkernel.x0 = Array.unsafe_get darr dj;
                        x1 = Array.unsafe_get darr (dj + dstep);
                        x2 = Array.unsafe_get darr (dj + (2 * dstep));
                        x3 = Array.unsafe_get darr (dj + (3 * dstep));
                      }
                  in
                  tile4 ~s:sarr ~s0 ~ss ~m:marr ~m0:(mb + (j * mjs)) ~mjs ~mks ~n:nk acc;
                  Array.unsafe_set darr dj acc.Microkernel.x0;
                  Array.unsafe_set darr (dj + dstep) acc.Microkernel.x1;
                  Array.unsafe_set darr (dj + (2 * dstep)) acc.Microkernel.x2;
                  Array.unsafe_set darr (dj + (3 * dstep)) acc.Microkernel.x3;
                  bulk 4
                in
                let single j =
                  span_check j 1;
                  let dj = db + (j * dstep) in
                  let iv = if has_init then initc else Array.unsafe_get darr dj in
                  let mj = mb + (j * mjs) in
                  let v =
                    if shared_left then
                      Microkernel.dot_sum_strided ~a:sarr ~a0:s0 ~astep:ss ~b:marr
                        ~b0:mj ~bstep:mks ~n:nk ~init:iv
                    else
                      Microkernel.dot_sum_strided ~a:marr ~a0:mj ~astep:mks ~b:sarr
                        ~b0:s0 ~bstep:ss ~n:nk ~init:iv
                  in
                  Array.unsafe_set darr dj v;
                  bulk 1
                in
                let jend = m + n in
                match fguard with
                | None ->
                    let j = ref m in
                    while !j + 3 < jend do
                      tile !j;
                      j := !j + 4
                    done;
                    while !j < jend do
                      single !j;
                      incr j
                    done
                | Some fg ->
                    (* evaluate the guard exactly once per j, with the tile
                       var's slot set — the generic If's accounting *)
                    let test j =
                      Array.unsafe_set fr.ints slot j;
                      fr.guards <- fr.guards + 1;
                      if fg fr then begin
                        fr.guard_hits <- fr.guard_hits + 1;
                        true
                      end
                      else false
                    in
                    let j = ref m in
                    while !j < jend do
                      if not (test !j) then incr j
                      else begin
                        (* extend the guard-true run to at most four *)
                        let run = ref 1 in
                        let hit_false = ref false in
                        while (not !hit_false) && !run < 4 && !j + !run < jend do
                          if test (!j + !run) then incr run else hit_false := true
                        done;
                        if !run = 4 then tile !j
                        else
                          for o = 0 to !run - 1 do
                            single (!j + o)
                          done;
                        j := !j + !run + if !hit_false then 1 else 0
                      end
                    done
              end
            end
      | _ ->
      fun fallback fr m n ->
        let darr = Array.unsafe_get fr.fbufs dslot in
        let sarr = Array.unsafe_get fr.fbufs sslot in
        let marr = Array.unsafe_get fr.fbufs mslot in
        let nk = fkn fr in
        if
          nk <= 0 || darr == sarr || darr == marr
          || Array.exists (fun s -> Array.unsafe_get fr.fbufs s == darr) extra_slots
        then fallback fr m n
        else begin
          let dstep = fds fr in
          if dstep = 0 then fallback fr m n
          else begin
            let mk = fkm fr in
            (* absolute-index bases: cell j lives at db + j*dstep *)
            let db = fdb fr in
            let ss = fss fr in
            let s0 = fsb fr + (mk * ss) in
            let mks = fmks fr in
            let mjs = fmjs fr in
            let mb = fmjb fr + (mk * mks) in
            (* effective reduction length under a [k < bound] mask: real
               products stop there, the remaining [tail] adds are zeros *)
            let nk_eff =
              match fkbound with
              | None -> nk
              | Some fb ->
                  let e = fb fr - mk in
                  if e < 0 then 0 else if e > nk then nk else e
            in
            let tail = nk - nk_eff in
            (* acc +. (+0.) == acc except -0. +. +0. == +0. — applying
               this once replays a whole tail of masked-out adds *)
            let fix_tail v =
              if Int64.equal (Int64.bits_of_float v) neg_zero_bits then 0.0 else v
            in
            let store_cell dj v =
              Array.unsafe_set darr dj (if tail > 0 then fix_tail v else v)
            in
            let checked_shared = ref false in
            (* endpoint checks for the span [jlo, jlo+cnt); the shared
               operand's j-invariant range is checked once, at the first
               span that actually loads operands *)
            let span_check jlo cnt =
              let dlo = db + (jlo * dstep) in
              check_lin ~what:"reduce_store" ~name:dname darr dlo
                (dlo + ((cnt - 1) * dstep));
              if nk_eff > 0 then begin
                if not !checked_shared then begin
                  check_lin ~what:"load" ~name:sname sarr s0 (s0 + ((nk_eff - 1) * ss));
                  checked_shared := true
                end;
                let mlo = mb + (jlo * mjs) in
                let jspan = (cnt - 1) * mjs and kspan = (nk_eff - 1) * mks in
                check_lin ~what:"load" ~name:mname marr
                  (mlo + min 0 jspan + min 0 kspan)
                  (mlo + max 0 jspan + max 0 kspan)
              end
            in
            let has_init = Option.is_some finit in
            (* accumulator start value for chain j; [slot] must already
               hold j (the init expression may read a bias row at j) *)
            let init_of dj =
              match finit with
              | Some f -> f fr
              | None -> Array.unsafe_get darr dj
            in
            let run_epi j =
              match fepi with
              | None -> ()
              | Some f ->
                  Array.unsafe_set fr.ints slot j;
                  f fr
            in
            let bulk cnt =
              let elems = cnt * nk_eff in
              fr.loads <- fr.loads + (2 * elems);
              fr.flops <- fr.flops + (2 * elems) + (cnt * tail);
              fr.stores <- fr.stores + (cnt * nk) + (if has_init then cnt else 0);
              fr.microkernel_elems <- fr.microkernel_elems + elems
            in
            (* chain whose mask is false for every k: init plus nk zero
               adds — no operand access, no operand checks *)
            let zero j =
              let dj = db + (j * dstep) in
              check_lin ~what:"reduce_store" ~name:dname darr dj dj;
              Array.unsafe_set fr.ints slot j;
              Array.unsafe_set darr dj (fix_tail (init_of dj));
              fr.flops <- fr.flops + nk;
              fr.stores <- fr.stores + nk + (if has_init then 1 else 0);
              (* the generic nest runs the epilogue store even when the
                 mask was false for every k — so must we *)
              run_epi j
            in
            let tile j =
              span_check j 4;
              let dj = db + (j * dstep) in
              Array.unsafe_set fr.ints slot j;
              let x0 = init_of dj in
              Array.unsafe_set fr.ints slot (j + 1);
              let x1 = init_of (dj + dstep) in
              Array.unsafe_set fr.ints slot (j + 2);
              let x2 = init_of (dj + (2 * dstep)) in
              Array.unsafe_set fr.ints slot (j + 3);
              let x3 = init_of (dj + (3 * dstep)) in
              let acc = { Microkernel.x0; x1; x2; x3 } in
              tile4 ~s:sarr ~s0 ~ss ~m:marr ~m0:(mb + (j * mjs)) ~mjs ~mks ~n:nk_eff acc;
              store_cell dj acc.Microkernel.x0;
              store_cell (dj + dstep) acc.Microkernel.x1;
              store_cell (dj + (2 * dstep)) acc.Microkernel.x2;
              store_cell (dj + (3 * dstep)) acc.Microkernel.x3;
              bulk 4;
              run_epi j;
              run_epi (j + 1);
              run_epi (j + 2);
              run_epi (j + 3)
            in
            let single j =
              span_check j 1;
              let dj = db + (j * dstep) in
              Array.unsafe_set fr.ints slot j;
              let iv = init_of dj in
              let mj = mb + (j * mjs) in
              let v =
                if shared_left then
                  Microkernel.dot_sum_strided ~a:sarr ~a0:s0 ~astep:ss ~b:marr ~b0:mj
                    ~bstep:mks ~n:nk_eff ~init:iv
                else
                  Microkernel.dot_sum_strided ~a:marr ~a0:mj ~astep:mks ~b:sarr ~b0:s0
                    ~bstep:ss ~n:nk_eff ~init:iv
              in
              store_cell dj v;
              bulk 1;
              run_epi j
            in
            let jend = m + n in
            match (fguard, fvmask) with
            | None, None ->
                let j = ref m in
                while !j + 3 < jend do
                  tile !j;
                  j := !j + 4
                done;
                while !j < jend do
                  single !j;
                  incr j
                done
            | _ ->
                (* three states per j — skip (guard false), zero-chain
                   (mask false), dot — each guard / mask evaluated exactly
                   once, with the tile var's slot set; the guard keeps the
                   generic If's accounting *)
                let st j =
                  Array.unsafe_set fr.ints slot j;
                  let g =
                    match fguard with
                    | None -> true
                    | Some fg ->
                        fr.guards <- fr.guards + 1;
                        if fg fr then begin
                          fr.guard_hits <- fr.guard_hits + 1;
                          true
                        end
                        else false
                  in
                  if not g then 0
                  else
                    match fvmask with
                    | None -> 2
                    | Some fv -> if fv fr then 2 else 1
                in
                let j = ref m in
                while !j < jend do
                  match st !j with
                  | 0 -> incr j
                  | 1 ->
                      zero !j;
                      incr j
                  | _ ->
                      (* extend the dot run to at most four; a non-dot
                         state already evaluated is dispatched after *)
                      let run = ref 1 in
                      let next = ref (-1) in
                      while !next < 0 && !run < 4 && !j + !run < jend do
                        match st (!j + !run) with
                        | 2 -> incr run
                        | s -> next := s
                      done;
                      if !run = 4 then tile !j
                      else
                        for o = 0 to !run - 1 do
                          single (!j + o)
                        done;
                      if !next = 1 then zero (!j + !run);
                      j := !j + !run + if !next >= 0 then 1 else 0
                done
          end
        end

(* ------------------------------------------------------------------ *)
(* Per-iteration weight estimator for parallel chunk balancing: static
   expression costs from the analytic cost model, dynamic trip counts by
   evaluating loop bounds on the frame (inner loop variables pinned to
   their first iteration — the estimate guides chunking only, so an
   approximation is fine).  Compiled with its own scalar slots; evaluated
   on a scratch frame view, so it can neither clobber the kernel's state
   nor perturb its counters.  Any compile- or eval-time failure falls back
   to uniform weights. *)
let rec est_stmt ctx (s : Stmt.t) : frame -> int =
  let ecost e = max 1 (int_of_float (Cost_model.total (Cost_model.expr_counts e))) in
  match s with
  | Stmt.Store { index; value; _ } | Stmt.Reduce_store { index; value; _ } ->
      let c = ecost index + ecost value in
      fun _ -> c
  | Stmt.Eval e ->
      let c = ecost e in
      fun _ -> c
  | Stmt.Nop -> fun _ -> 1
  | Stmt.Seq l ->
      let es = Array.of_list (List.map (est_stmt ctx) l) in
      fun fr -> Array.fold_left (fun acc f -> acc + f fr) 0 es
  | Stmt.If (c, a, b) ->
      (* both branches, statically: the skew this estimator exists to fix
         comes from ragged trip counts, not guard outcomes *)
      let cc = ecost c in
      let ea = est_stmt ctx a in
      let eb = match b with Some b -> est_stmt ctx b | None -> fun _ -> 0 in
      fun fr -> cc + ea fr + eb fr
  | Stmt.Let_stmt (v, e, body) -> (
      match compile_expr ctx e with
      | CInt f ->
          with_var ctx v TInt @@ fun slot ->
          let eb = est_stmt ctx body in
          fun fr ->
            Array.unsafe_set fr.ints slot (f fr);
            eb fr
      | CFloat _ | CBool _ -> est_stmt ctx body)
  | Stmt.Alloc { body; _ } -> est_stmt ctx body
  | Stmt.For { var; min; extent; body; _ } ->
      let fm = as_int (compile_expr ctx min) in
      let fn = as_int (compile_expr ctx extent) in
      with_var ctx var TInt @@ fun slot ->
      let eb = est_stmt ctx body in
      fun fr ->
        let m = fm fr in
        let n = fn fr in
        if n <= 0 then 1
        else begin
          Array.unsafe_set fr.ints slot m;
          1 + (n * eb fr)
        end

let compile_est ctx (s : Stmt.t) : (frame -> int) option =
  match est_stmt ctx s with e -> Some e | exception Error _ -> None

(* [par_ok] tracks which Parallel loops Interp.exec_multicore would actually
   parallelize: those reachable through For / Let_stmt / Seq only.  Bodies
   of parallel loops, If branches and Alloc bodies execute serially there,
   so they compile with par_ok = false here — keeping the engine's execution
   structure (and hence its soundness obligations) identical. *)
let rec compile_stmt ctx ~par_ok (s : Stmt.t) : frame -> unit =
  match s with
  | For { var; min; extent; kind; body } -> (
      let fm = as_int (compile_expr ctx min) in
      let fn = as_int (compile_expr ctx extent) in
      let par = par_ok && (match kind with Stmt.Parallel -> true | _ -> false) in
      with_var ctx var TInt @@ fun slot ->
      let micro =
        if (not par) && ctx.optimize then
          Option.map (emit_inner ctx) (Optimize.classify_inner ~var body)
        else None
      in
      let tiled =
        if (not par) && ctx.optimize && Option.is_none micro then
          match Optimize.classify_nest ~var body with
          | Some nest -> (
              (* compiling the substituted nest expressions can hit a
                 type the generic path would never force (e.g. a peeled
                 let of the wrong kind) — never fail the whole compile
                 for a missed tiling opportunity *)
              try Some (emit_nest ctx ~slot nest) with Error _ -> None)
          | _ -> None
        else None
      in
      let cbody = compile_stmt ctx ~par_ok:(par_ok && not par) body in
      let serial fr m n =
        for i = m to m + n - 1 do
          Array.unsafe_set fr.ints slot i;
          cbody fr
        done
      in
      if par then begin
        let est = compile_est ctx body in
        fun fr ->
          let m = fm fr in
          let n = fn fr in
          match fr.pool with
          | Some p when n > 1 && Pool.parallelism p > 1 -> run_parallel p fr slot m n ?est cbody
          | _ -> serial fr m n
      end
      else
        match micro with
        | Some mk ->
            let mk = mk serial in
            fun fr ->
              let m = fm fr in
              let n = fn fr in
              if n > 0 then mk fr m n
        | None when Option.is_some tiled ->
            let tk = Option.get tiled serial in
            fun fr ->
              let m = fm fr in
              let n = fn fr in
              if n > 0 then tk fr m n
        | None -> (
            (* strength reduction (O3): an innermost store loop whose
               index is affine in the loop variable becomes a running-offset
               loop — the value closure still runs per element (arbitrary
               expression), but the address tree is evaluated once and the
               per-element bounds checks collapse to two endpoint checks. *)
            let sred =
              if ctx.optimize then
                match body with
                | Stmt.Store { buf; index; value } ->
                    Option.map (fun ax -> (None, buf, ax, value)) (Optimize.affine_in var index)
                | Stmt.Reduce_store { buf; index; value; op } ->
                    Option.map
                      (fun ax -> (Some op, buf, ax, value))
                      (Optimize.affine_in var index)
                | _ -> None
              else None
            in
            match sred with
            | Some (op, buf, ax, value) -> (
                let bslot = buf_slot ctx buf in
                let bname = Var.mangled buf in
                let fbase, fstep = compile_affine ctx ax in
                let fv = as_float (compile_expr ctx value) in
                match op with
                | None ->
                    fun fr ->
                      let m = fm fr in
                      let n = fn fr in
                      if n > 0 then begin
                        let a = Array.unsafe_get fr.fbufs bslot in
                        let step = fstep fr in
                        let i0 = fbase fr + (m * step) in
                        check_lin ~what:"store" ~name:bname a i0 (i0 + ((n - 1) * step));
                        let ix = ref i0 in
                        for i = m to m + n - 1 do
                          Array.unsafe_set fr.ints slot i;
                          Array.unsafe_set a !ix (fv fr);
                          ix := !ix + step
                        done;
                        fr.stores <- fr.stores + n
                      end
                | Some rop ->
                    let combine = combine_of rop in
                    fun fr ->
                      let m = fm fr in
                      let n = fn fr in
                      if n > 0 then begin
                        let a = Array.unsafe_get fr.fbufs bslot in
                        let step = fstep fr in
                        let i0 = fbase fr + (m * step) in
                        check_lin ~what:"reduce_store" ~name:bname a i0 (i0 + ((n - 1) * step));
                        let ix = ref i0 in
                        for i = m to m + n - 1 do
                          Array.unsafe_set fr.ints slot i;
                          (* value first, then the current cell — interpreter order *)
                          let x = fv fr in
                          Array.unsafe_set a !ix (combine (Array.unsafe_get a !ix) x);
                          ix := !ix + step
                        done;
                        fr.stores <- fr.stores + n;
                        fr.flops <- fr.flops + n
                      end)
            | None ->
                fun fr ->
                  let m = fm fr in
                  let n = fn fr in
                  serial fr m n))
  | Let_stmt (v, e, body) -> (
      let cv = compile_expr ctx e in
      let ty = match cv with CInt _ -> TInt | CFloat _ -> TFloat | CBool _ -> TBool in
      let hoisted = String.equal (Var.name v) Optimize.hoist_var_name in
      with_var ctx v ty @@ fun slot ->
      let cbody = compile_stmt ctx ~par_ok body in
      match cv with
      | CInt f when hoisted ->
          (* LICM preheader binding: count each evaluation *)
          fun fr ->
            fr.hoisted <- fr.hoisted + 1;
            Array.unsafe_set fr.ints slot (f fr);
            cbody fr
      | CInt f ->
          fun fr ->
            Array.unsafe_set fr.ints slot (f fr);
            cbody fr
      | CFloat f ->
          fun fr ->
            Array.unsafe_set fr.floats slot (f fr);
            cbody fr
      | CBool f ->
          fun fr ->
            Array.unsafe_set fr.bools slot (f fr);
            cbody fr)
  | Store { buf = v; index; value } ->
      let slot = buf_slot ctx v in
      let name = Var.mangled v in
      let fi = as_int (compile_expr ctx index) in
      let fv = as_float (compile_expr ctx value) in
      fun fr ->
        fr.stores <- fr.stores + 1;
        let a = Array.unsafe_get fr.fbufs slot in
        let i = fi fr in
        if i < 0 || i >= Array.length a then
          err "store %s[%d] out of bounds (len %d)" name i (Array.length a)
        else Array.unsafe_set a i (fv fr)
  | Reduce_store { buf = v; index; value; op } -> (
      let slot = buf_slot ctx v in
      let name = Var.mangled v in
      let fi = as_int (compile_expr ctx index) in
      let fv = as_float (compile_expr ctx value) in
      let reduce combine fr =
        fr.stores <- fr.stores + 1;
        fr.flops <- fr.flops + 1;
        let a = Array.unsafe_get fr.fbufs slot in
        let i = fi fr in
        if i < 0 || i >= Array.length a then
          err "reduce_store %s[%d] out of bounds (len %d)" name i (Array.length a)
        else
          (* value first, then the current cell — interpreter order *)
          let x = fv fr in
          let cur = Array.unsafe_get a i in
          Array.unsafe_set a i (combine cur x)
      in
      match op with
      | Stmt.Sum ->
          fun fr ->
            fr.stores <- fr.stores + 1;
            fr.flops <- fr.flops + 1;
            let a = Array.unsafe_get fr.fbufs slot in
            let i = fi fr in
            if i < 0 || i >= Array.length a then
              err "reduce_store %s[%d] out of bounds (len %d)" name i (Array.length a)
            else
              let x = fv fr in
              Array.unsafe_set a i (Array.unsafe_get a i +. x)
      | Stmt.Prod -> reduce ( *. )
      | Stmt.Rmax -> reduce Float.max
      | Stmt.Rmin -> reduce Float.min)
  | If (c, a, b) -> (
      let fc = as_bool (compile_expr ctx c) in
      let ca = compile_stmt ctx ~par_ok:false a in
      match Option.map (compile_stmt ctx ~par_ok:false) b with
      | None ->
          fun fr ->
            fr.guards <- fr.guards + 1;
            if fc fr then begin
              fr.guard_hits <- fr.guard_hits + 1;
              ca fr
            end
      | Some cb ->
          fun fr ->
            fr.guards <- fr.guards + 1;
            if fc fr then begin
              fr.guard_hits <- fr.guard_hits + 1;
              ca fr
            end
            else cb fr)
  | Seq l -> (
      match List.map (compile_stmt ctx ~par_ok) l with
      | [] -> fun _ -> ()
      | [ c ] -> c
      | [ c1; c2 ] ->
          fun fr ->
            c1 fr;
            c2 fr
      | cs ->
          let arr = Array.of_list cs in
          let n = Array.length arr in
          fun fr ->
            for i = 0 to n - 1 do
              (Array.unsafe_get arr i) fr
            done)
  | Alloc { buf = v; size; body } ->
      let fn = as_int (compile_expr ctx size) in
      let slot = buf_slot ~internal:true ctx v in
      let cbody = compile_stmt ctx ~par_ok:false body in
      (* Scratch comes from the process-wide arena, rounded up to a
         power-of-two size class.  Exact-length keying here was a miss
         storm under the batch-former: row-length-sized scratch (e.g. the
         softmax row buffer) takes a different exact size for every
         distinct length a mega-batch mixes in, so each composition kept
         allocating fresh storage; class rounding makes those sizes
         converge onto the same closed class set the serving buffers use.
         Zero-fill and the negative-size error are exactly those of the
         [Array.make n 0.0] this replaces; a correct kernel never
         addresses the class-rounding tail. *)
      fun fr ->
        let n = fn fr in
        let a = Buffer.Arena.acquire_class Buffer.Arena.global n in
        Array.unsafe_set fr.fbufs slot a;
        let release () =
          Array.unsafe_set fr.fbufs slot [||];
          Buffer.Arena.release Buffer.Arena.global a
        in
        (try cbody fr
         with e ->
           release ();
           raise e);
        release ()
  | Eval e -> (
      match compile_expr ctx e with
      | CInt f -> fun fr -> ignore (f fr)
      | CFloat f -> fun fr -> ignore (f fr)
      | CBool f -> fun fr -> ignore (f fr))
  | Nop -> fun _ -> ()

(* ------------------------------------------------------------------ *)
(* Public API *)

let compile ?(opt = Optimize.O0) (s : Stmt.t) : compiled =
  let s = fst (Optimize.run ~level:opt s) in
  let ctx = new_ctx (opt = Optimize.O3) in
  let entry = compile_stmt ctx ~par_ok:true s in
  { c_layout = finalize ctx; c_entry = entry }

let frame (c : compiled) : frame =
  let l = c.c_layout in
  let nbufs = Array.length l.buf_names in
  {
    layout = l;
    entry = c.c_entry;
    ints = Array.make (max 1 l.n_ints) 0;
    floats = Array.make (max 1 l.n_floats) 0.0;
    bools = Array.make (max 1 l.n_bools) false;
    fbufs = Array.make (max 1 nbufs) [||];
    buf_bound = Array.make (max 1 nbufs) false;
    ufuns = Array.make (max 1 (Array.length l.ufun_names)) U_unbound;
    pool = None;
    loads = 0;
    stores = 0;
    flops = 0;
    indirect = 0;
    guards = 0;
    guard_hits = 0;
    hoisted = 0;
    microkernel_elems = 0;
  }

let bind_buf fr (v : Var.t) (b : Buffer.t) =
  let slot =
    match Hashtbl.find_opt fr.layout.buf_slots v.Var.id with
    | Some s -> Some s
    | None -> (
        (* alpha-equivalent rebind: same display name, fresh var id *)
        match Hashtbl.find_opt fr.layout.buf_by_name (Var.name v) with
        | Some s when s >= 0 -> Some s
        | _ -> None)
  in
  match slot with
  | None -> () (* this kernel never touches that tensor *)
  | Some slot -> (
      let (Buffer.F a) = b in
      fr.fbufs.(slot) <- a;
      fr.buf_bound.(slot) <- true)

let bind_ufun_binding fr name u =
  match Hashtbl.find_opt fr.layout.ufun_slots name with
  | None -> () (* this kernel never calls that ufun *)
  | Some slot -> fr.ufuns.(slot) <- u

let bind_ufun_table fr name a = bind_ufun_binding fr name (U_table a)
let bind_ufun1 fr name f = bind_ufun_binding fr name (U_fn f)
let bind_ufun_const fr name n = bind_ufun_binding fr name (U_const n)

let run ?pool (fr : frame) : unit =
  let l = fr.layout in
  Array.iteri
    (fun i ext -> if ext && not fr.buf_bound.(i) then err "unbound buffer %s" l.buf_names.(i))
    l.buf_external;
  Array.iteri
    (fun i name ->
      match fr.ufuns.(i) with
      | U_unbound -> err "unbound uninterpreted function %s" name
      | _ -> ())
    l.ufun_names;
  fr.pool <- pool;
  Fun.protect ~finally:(fun () -> fr.pool <- None) (fun () -> fr.entry fr)

let stats fr =
  [
    ("loads", fr.loads);
    ("stores", fr.stores);
    ("flops", fr.flops);
    ("indirect", fr.indirect);
    ("guards", fr.guards);
    ("guard_hits", fr.guard_hits);
    ("hoisted", fr.hoisted);
    ("microkernel_elems", fr.microkernel_elems);
  ]

(* registered once: a registry lookup takes the registry lock, and this
   runs once per kernel per request *)
let loads_c = Obs.Metrics.counter "engine.loads"
let stores_c = Obs.Metrics.counter "engine.stores"
let flops_c = Obs.Metrics.counter "engine.flops"
let indirect_c = Obs.Metrics.counter "engine.indirect"
let guards_c = Obs.Metrics.counter "engine.guards"
let guard_hits_c = Obs.Metrics.counter "engine.guard_hits"
let hoisted_c = Obs.Metrics.counter "engine.hoisted"
let mk_elems_c = Obs.Metrics.counter "engine.microkernel_elems"

let flush_metrics fr =
  Obs.Metrics.add loads_c fr.loads;
  Obs.Metrics.add stores_c fr.stores;
  Obs.Metrics.add flops_c fr.flops;
  Obs.Metrics.add indirect_c fr.indirect;
  Obs.Metrics.add guards_c fr.guards;
  Obs.Metrics.add guard_hits_c fr.guard_hits;
  Obs.Metrics.add hoisted_c fr.hoisted;
  Obs.Metrics.add mk_elems_c fr.microkernel_elems

open Ir

(** Reference interpreter for the lowered IR.

    The interpreter executes a kernel statement scalar-by-scalar over real
    buffers.  It is the ground truth used by the test suite: every CoRa
    schedule, however aggressively padded / split / fused, must compute the
    same values as the unscheduled program when run through here.  GPU and
    parallel loop bindings are executed sequentially — binding annotations
    only matter to the cost model and machine simulator. *)

type value = VInt of int | VFloat of float | VBool of bool

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let to_int = function
  | VInt n -> n
  | VFloat f -> int_of_float f
  | VBool _ -> err "expected int, got bool"

let to_float = function
  | VFloat f -> f
  | VInt n -> float_of_int n
  | VBool _ -> err "expected float, got bool"

let to_bool = function VBool b -> b | v -> err "expected bool, got %d" (to_int v)

(* Uninterpreted-function bindings: almost every ufun the lowered IR emits
   takes exactly one argument (prelude tables, length functions), so a
   dedicated 1-argument representation lets [eval] skip the per-access
   argument-list allocation.  Each [U1] carries a last-lookup cache:
   lowered loop nests re-read the same ragged offset (e.g. [row_off b])
   many times per row, so the common case is a repeat of the previous
   argument.  The cache is a single [option ref] holding the pair, so
   concurrent domains can race on it without tearing (each sees some
   complete former pair); only successful lookups are cached, keeping
   error behaviour identical. *)
type ufun = U1 of (int -> int) * (int * int) option ref | UN of (int list -> int)

(* hits counted process-wide; counter bumps ([loads]/[indirect]) are NOT
   skipped on a hit, so cached and uncached runs stay counter-identical *)
let ufun_cache_hit_c = Obs.Metrics.counter "ufun_cache.hit"

let apply_u1 f cache i =
  match !cache with
  | Some (j, v) when j = i ->
      Obs.Metrics.incr ufun_cache_hit_c;
      v
  | _ ->
      let v = f i in
      cache := Some (i, v);
      v

type env = {
  mutable vars : value Var.Map.t;
  mutable bufs : Buffer.t Var.Map.t;
  ufuns : (string, ufun) Hashtbl.t;
      (** uninterpreted functions, bound by the prelude at launch time *)
  mutable loads : int;  (** statistics: scalar loads executed *)
  mutable stores : int;
  mutable flops : int;  (** floating-point operations executed *)
  mutable indirect : int;
      (** uninterpreted-function (prelude table) accesses — the indirect
          accesses whose overhead §D.7 studies; also counted in [loads] *)
  mutable guards : int;  (** bound-guard ([If]) conditions evaluated *)
  mutable guard_hits : int;  (** guard conditions that held (body ran) *)
}

let create () =
  { vars = Var.Map.empty; bufs = Var.Map.empty; ufuns = Hashtbl.create 16;
    loads = 0; stores = 0; flops = 0; indirect = 0; guards = 0; guard_hits = 0 }

let bind_buf env v b = env.bufs <- Var.Map.add v b env.bufs
let bind_var env v value = env.vars <- Var.Map.add v value env.vars
let bind_ufun env name f = Hashtbl.replace env.ufuns name (UN f)

(** Bind a 1-argument ufun on the allocation-free fast path. *)
let bind_ufun1 env name f = Hashtbl.replace env.ufuns name (U1 (f, ref None))

(** Bind a 1-argument ufun backed by an int array. *)
let bind_ufun_array env name (a : int array) =
  bind_ufun1 env name (fun i ->
      if i < 0 || i >= Array.length a then
        err "ufun %s: index %d out of bounds (len %d)" name i (Array.length a)
      else a.(i))

let buf env v =
  match Var.Map.find_opt v env.bufs with
  | Some b -> b
  | None -> err "unbound buffer %s" (Var.mangled v)

(* Abramowitz–Stegun 7.1.26 approximation; plenty for gelu tests.  Shared
   with Engine so both execution paths are bit-identical. *)
let erf_approx x =
  let sign = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
       +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  sign *. y

let intrinsic name args =
  match (name, args) with
  | "exp", [ x ] -> exp x
  | "log", [ x ] -> log x
  | "sqrt", [ x ] -> sqrt x
  | "tanh", [ x ] -> tanh x
  | "erf", [ x ] -> erf_approx x
  | "relu", [ x ] -> Float.max 0.0 x
  | "neg_infinity", [] -> neg_infinity
  | _ -> err "unknown intrinsic %s/%d" name (List.length args)

let rec eval env (e : Expr.t) : value =
  match e with
  | Int n -> VInt n
  | Float f -> VFloat f
  | Bool b -> VBool b
  | Var v -> (
      match Var.Map.find_opt v env.vars with
      | Some value -> value
      | None -> err "unbound variable %s" (Var.mangled v))
  | Binop (op, a, b) -> eval_binop env op (eval env a) (eval env b)
  | Cmp (op, a, b) ->
      let a = eval env a and b = eval env b in
      (* monomorphic compares: no polymorphic-compare dispatch per scalar *)
      let c =
        match (a, b) with
        | VFloat _, _ | _, VFloat _ -> Float.compare (to_float a) (to_float b)
        | _ -> Int.compare (to_int a) (to_int b)
      in
      VBool
        (match op with
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | Eq -> c = 0
        | Ne -> c <> 0)
  | And (a, b) -> VBool (to_bool (eval env a) && to_bool (eval env b))
  | Or (a, b) -> VBool (to_bool (eval env a) || to_bool (eval env b))
  | Not a -> VBool (not (to_bool (eval env a)))
  | Select (c, a, b) -> if to_bool (eval env c) then eval env a else eval env b
  | Load { buf = v; index } ->
      env.loads <- env.loads + 1;
      let b = buf env v in
      let i = to_int (eval env index) in
      if i < 0 || i >= Buffer.length b then
        err "load %s[%d] out of bounds (len %d)" (Var.mangled v) i (Buffer.length b)
      else
        let (F a) = b in
        VFloat a.(i)
  | Ufun (name, [ a ]) -> (
      (* fast path: the 1-argument case (every prelude table and length
         function) evaluates without allocating an argument list *)
      match Hashtbl.find_opt env.ufuns name with
      | Some u ->
          env.loads <- env.loads + 1;
          env.indirect <- env.indirect + 1;
          let i = to_int (eval env a) in
          VInt (match u with U1 (f, cache) -> apply_u1 f cache i | UN f -> f [ i ])
      | None -> err "unbound uninterpreted function %s" name)
  | Ufun (name, args) -> (
      match Hashtbl.find_opt env.ufuns name with
      | Some u ->
          env.loads <- env.loads + 1;
          env.indirect <- env.indirect + 1;
          let l = List.map (fun a -> to_int (eval env a)) args in
          VInt
            (match u with
            | UN f -> f l
            | U1 (f, cache) -> (
                match l with
                | [ i ] -> apply_u1 f cache i
                | _ -> err "ufun %s: arity mismatch (%d args)" name (List.length l)))
      | None -> err "unbound uninterpreted function %s" name)
  | Call (name, args) ->
      env.flops <- env.flops + 4;
      VFloat (intrinsic name (List.map (fun a -> to_float (eval env a)) args))
  | Access { tensor; _ } ->
      err "unlowered tensor access to %s reached the interpreter" tensor
  | Let (v, value, body) ->
      let saved = env.vars in
      bind_var env v (eval env value);
      let result = eval env body in
      env.vars <- saved;
      result

and eval_binop env op a b =
  let float_op f =
    env.flops <- env.flops + 1;
    VFloat (f (to_float a) (to_float b))
  in
  match (op, a, b) with
  | Add, VInt x, VInt y -> VInt (x + y)
  | Sub, VInt x, VInt y -> VInt (x - y)
  | Mul, VInt x, VInt y -> VInt (x * y)
  | Min, VInt x, VInt y -> VInt (min x y)
  | Max, VInt x, VInt y -> VInt (max x y)
  | FloorDiv, VInt x, VInt y ->
      if y = 0 then err "division by zero"
      else VInt (if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1 else x / y)
  | Mod, VInt x, VInt y ->
      if y = 0 then err "mod by zero"
      else
        let r = x mod y in
        VInt (if r <> 0 && (r < 0) <> (y < 0) then r + y else r)
  | Add, _, _ -> float_op ( +. )
  | Sub, _, _ -> float_op ( -. )
  | Mul, _, _ -> float_op ( *. )
  | Div, _, _ -> float_op ( /. )
  | Min, _, _ -> float_op Float.min
  | Max, _, _ -> float_op Float.max
  | (FloorDiv | Mod), _, _ -> err "floordiv/mod on floats"

(* Execute one loop level across OCaml domains: iterations are chunked, and
   each domain runs with its own variable map (buffers and ufuns are shared;
   a correctly-scheduled Parallel loop writes disjoint locations).  Used by
   [exec_multicore] for [Parallel]-bound loops. *)
let parallel_for ~(domains : int) m n (f : int -> unit) =
  if n <= 1 || domains <= 1 then
    for i = m to m + n - 1 do
      f i
    done
  else begin
    let d = min domains n in
    let chunk = (n + d - 1) / d in
    let workers =
      List.init d (fun w ->
          Domain.spawn (fun () ->
              let lo = m + (w * chunk) in
              let hi = min (m + n - 1) (lo + chunk - 1) in
              for i = lo to hi do
                f i
              done))
    in
    List.iter Domain.join workers
  end

let rec exec env (s : Stmt.t) : unit =
  match s with
  | For { var; min; extent; body; _ } ->
      let m = to_int (eval env min) and n = to_int (eval env extent) in
      let saved = env.vars in
      for i = m to m + n - 1 do
        env.vars <- Var.Map.add var (VInt i) saved;
        exec env body
      done;
      env.vars <- saved
  | Let_stmt (v, e, body) ->
      let saved = env.vars in
      bind_var env v (eval env e);
      exec env body;
      env.vars <- saved
  | Store { buf = v; index; value } ->
      env.stores <- env.stores + 1;
      let b = buf env v in
      let i = to_int (eval env index) in
      if i < 0 || i >= Buffer.length b then
        err "store %s[%d] out of bounds (len %d)" (Var.mangled v) i (Buffer.length b)
      else
        let (F a) = b in
        a.(i) <- to_float (eval env value)
  | Reduce_store { buf = v; index; value; op } ->
      env.stores <- env.stores + 1;
      env.flops <- env.flops + 1;
      let b = buf env v in
      let i = to_int (eval env index) in
      if i < 0 || i >= Buffer.length b then
        err "reduce_store %s[%d] out of bounds (len %d)" (Var.mangled v) i (Buffer.length b)
      else
        let x = to_float (eval env value) in
        let cur = Buffer.get_float b i in
        let combined =
          match op with
          | Sum -> cur +. x
          | Prod -> cur *. x
          | Rmax -> Float.max cur x
          | Rmin -> Float.min cur x
        in
        Buffer.set_float b i combined
  | If (c, a, b) -> (
      env.guards <- env.guards + 1;
      if to_bool (eval env c) then begin
        env.guard_hits <- env.guard_hits + 1;
        exec env a
      end
      else match b with Some b -> exec env b | None -> ())
  | Seq l -> List.iter (exec env) l
  | Alloc { buf = v; size; body } ->
      let n = to_int (eval env size) in
      let saved = env.bufs in
      bind_buf env v (Buffer.float_buf n);
      exec env body;
      env.bufs <- saved
  | Eval e -> ignore (eval env e)
  | Nop -> ()

(** Execute with [Parallel]-bound loops spread across OCaml domains (the
    multicore runtime for CPU-scheduled kernels).  Each domain gets its own
    copy of the scalar environment; buffers are shared — sound because a
    correctly scheduled parallel loop writes disjoint locations (the same
    guarantee a real parallel-for needs).  Statistics counters are
    per-iteration-local and folded into the parent [env] through atomics
    once all domains join, so a multicore run reports exactly the same
    counts as a serial one. *)
and exec_multicore ?(domains = 4) env (s : Stmt.t) : unit =
  match s with
  | For { var; min = mn; extent; kind = Parallel; body } ->
      let m = to_int (eval env mn) and n = to_int (eval env extent) in
      let loads = Atomic.make 0 and stores = Atomic.make 0 and flops = Atomic.make 0 in
      let indirect = Atomic.make 0 and guards = Atomic.make 0 and guard_hits = Atomic.make 0 in
      parallel_for ~domains m n (fun i ->
          let env' =
            { env with vars = Var.Map.add var (VInt i) env.vars;
              loads = 0; stores = 0; flops = 0; indirect = 0; guards = 0; guard_hits = 0 }
          in
          exec env' body;
          ignore (Atomic.fetch_and_add loads env'.loads);
          ignore (Atomic.fetch_and_add stores env'.stores);
          ignore (Atomic.fetch_and_add flops env'.flops);
          ignore (Atomic.fetch_and_add indirect env'.indirect);
          ignore (Atomic.fetch_and_add guards env'.guards);
          ignore (Atomic.fetch_and_add guard_hits env'.guard_hits));
      env.loads <- env.loads + Atomic.get loads;
      env.stores <- env.stores + Atomic.get stores;
      env.flops <- env.flops + Atomic.get flops;
      env.indirect <- env.indirect + Atomic.get indirect;
      env.guards <- env.guards + Atomic.get guards;
      env.guard_hits <- env.guard_hits + Atomic.get guard_hits
  | For { var; min = mn; extent; kind; body } ->
      let m = to_int (eval env mn) and n = to_int (eval env extent) in
      ignore kind;
      let saved = env.vars in
      for i = m to m + n - 1 do
        env.vars <- Var.Map.add var (VInt i) saved;
        exec_multicore ~domains env body
      done;
      env.vars <- saved
  | Let_stmt (v, e, body) ->
      let saved = env.vars in
      bind_var env v (eval env e);
      exec_multicore ~domains env body;
      env.vars <- saved
  | Seq l -> List.iter (exec_multicore ~domains env) l
  | s -> exec env s

let loads_c = Obs.Metrics.counter "interp.loads"
let stores_c = Obs.Metrics.counter "interp.stores"
let flops_c = Obs.Metrics.counter "interp.flops"
let indirect_c = Obs.Metrics.counter "interp.indirect"
let guards_c = Obs.Metrics.counter "interp.guards"
let guard_hits_c = Obs.Metrics.counter "interp.guard_hits"

(** Add the environment's statistics counters into the process-wide
    metrics registry (under [interp.*]).  Called once per run by
    {!Cora.Exec.run} and the CLI; idempotence is the caller's concern. *)
let flush_metrics env =
  Obs.Metrics.add loads_c env.loads;
  Obs.Metrics.add stores_c env.stores;
  Obs.Metrics.add flops_c env.flops;
  Obs.Metrics.add indirect_c env.indirect;
  Obs.Metrics.add guards_c env.guards;
  Obs.Metrics.add guard_hits_c env.guard_hits

(** Snapshot of the statistics counters as an association list, in a fixed
    order — lets differential tests compare whole runs structurally. *)
let stats env =
  [
    ("loads", env.loads);
    ("stores", env.stores);
    ("flops", env.flops);
    ("indirect", env.indirect);
    ("guards", env.guards);
    ("guard_hits", env.guard_hits);
  ]

(** Concurrent serving front-end (see frontend.mli). *)

type outcome =
  | Response of Server.response
  | Overloaded
  | Deadline_exceeded of string
  | Error of { exn : string; backtrace : string }

let outcome_label = function
  | Response _ -> "response"
  | Overloaded -> "overloaded"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Error _ -> "error"

type ticket = {
  tk_id : int;  (** the request id: spans carry it as trace context *)
  mutable outcome : outcome option;
  t_lock : Mutex.t;
  t_cond : Condition.t;
}

type request = {
  id : int;
  workload : Workload.t;
  lens : int array;
  deadline_us : float;  (** absolute, [Trace_sink.now_us] clock; [infinity] = none *)
  submitted_us : float;
  ticket : ticket;
}

type t = {
  srv : Server.t;
  capacity : int;
  default_deadline_ns : float;  (** relative; [infinity] = none *)
  batching : (Batcher.config * (Unix.file_descr * Unix.file_descr)) option;
      (** [Some] routes workers through the batch-former, with a
          self-pipe the submit path writes after signalling [not_empty].
          The stdlib [Condition] has no timed wait, so an open batching
          window sleeps in [Unix.select] on the read end with the
          window's remaining budget as the timeout — a submit wakes it
          immediately, an idle server blocks instead of burning a core,
          and formation latency does not quantise to a poll interval.
          Unbatched front ends own no pipe: their windows never wait. *)
  q : request Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let now_us = Obs.Trace_sink.now_us

(* Wake any batching window blocked in [Unix.select].  Both ends are
   non-blocking: a full pipe already guarantees pending wakeups, so
   EAGAIN is dropped. *)
let wake_signal (fe : t) =
  match fe.batching with
  | None -> ()
  | Some (_, (_, w)) -> (
      (* best-effort: EAGAIN = pipe full = wakeups already pending;
         EBADF = already shut down *)
      try ignore (Unix.write w (Bytes.make 1 '\001') 0 1) with Unix.Unix_error _ -> ())

(* Sleep until a submit writes the wake pipe or [timeout_us] elapses.
   Several batch workers select on the same read end; whoever loses the
   race to drain it just sees EAGAIN and re-checks the queue — spurious
   wakeups are harmless, missed ones impossible (the byte is written
   after the request is enqueued under the lock). *)
let wake_wait ((r, _) : Unix.file_descr * Unix.file_descr) ~(timeout_us : float) =
  let timeout_s = Float.max 0.0 (timeout_us /. 1e6) in
  match Unix.select [ r ] [] [] timeout_s with
  | [], _, _ -> ()
  | _ -> (
      let buf = Bytes.create 64 in
      try ignore (Unix.read r buf 0 64)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* module-level handles: metric lookup is off the per-request path *)
let accepted_c = Obs.Metrics.counter "frontend.accepted"
let rejected_c = Obs.Metrics.counter "frontend.rejected"
let served_c = Obs.Metrics.counter "frontend.served"
let deadline_c = Obs.Metrics.counter "frontend.deadline_exceeded"
let errors_c = Obs.Metrics.counter "frontend.errors"
let queue_wait_h = Obs.Metrics.histogram "frontend.queue_wait_us"
let queue_depth_g = Obs.Metrics.gauge "frontend.queue_depth"

(* Process-wide request ids: allocated at admission, carried as span
   trace context ([Obs.Span.with_request]) from the submitting domain
   into whichever worker domain serves the request, so every span either
   side records belongs to exactly one id. *)
let next_id = Atomic.make 1
let request_id (tk : ticket) = tk.tk_id

let fresh_ticket id =
  { tk_id = id; outcome = None; t_lock = Mutex.create (); t_cond = Condition.create () }

let resolve (tk : ticket) (o : outcome) =
  Mutex.lock tk.t_lock;
  if Option.is_none tk.outcome then begin
    tk.outcome <- Some o;
    Condition.broadcast tk.t_cond
  end;
  Mutex.unlock tk.t_lock

let await (tk : ticket) : outcome =
  Mutex.lock tk.t_lock;
  while Option.is_none tk.outcome do
    Condition.wait tk.t_cond tk.t_lock
  done;
  let o = Option.get tk.outcome in
  Mutex.unlock tk.t_lock;
  o

let peek (tk : ticket) : outcome option =
  Mutex.lock tk.t_lock;
  let o = tk.outcome in
  Mutex.unlock tk.t_lock;
  o

(* ------------------------------------------------------------------ *)
(* Worker side *)

(* The request's flight-recorder entry: cache/stage detail from the
   response when it has one, outcome label alone otherwise. *)
let flight_of (r : request) ~(queue_wait_us : float) ?(batch_id = 0) ?(batch_size = 1)
    (o : outcome) : Obs.Flight.record =
  let base =
    {
      Obs.Flight.id = r.id;
      workload = r.workload.Workload.name;
      sig_hex = "";
      submitted_us = r.submitted_us;
      queue_wait_us;
      stages_us = [];
      outcome = outcome_label o;
      compile_hits = 0;
      compile_misses = 0;
      prelude_hit = false;
      engine_hits = 0;
      engine_misses = 0;
      arena_hits = 0;
      arena_misses = 0;
      batch_id;
      batch_size;
      tuner = "";
    }
  in
  match o with
  | Response resp ->
      {
        base with
        Obs.Flight.sig_hex = resp.Server.tables_hex;
        stages_us = resp.Server.stages_us;
        compile_hits = resp.Server.compile_hits;
        compile_misses = resp.Server.compile_misses;
        prelude_hit = resp.Server.prelude_hit;
        engine_hits = resp.Server.engine_hits;
        engine_misses = resp.Server.engine_misses;
        arena_hits = resp.Server.arena_hits;
        arena_misses = resp.Server.arena_misses;
        tuner = resp.Server.tuner;
      }
  | Overloaded | Deadline_exceeded _ | Error _ -> base

let of_batch_outcome = function
  | Batcher.Served { resp; _ } -> Response resp
  | Batcher.Expired { stage; _ } -> Deadline_exceeded stage
  | Batcher.Failed { exn; backtrace; _ } -> Error { exn; backtrace }

(* Every worker-side outcome ends here: counted, appended to the flight
   ring (which a deadline miss or an error dumps, throttled and only when
   armed), then handed to the waiting client. *)
let finish (r : request) ~queue_wait_us ?batch_id ?batch_size (o : outcome) =
  (match o with
  | Response _ -> Obs.Metrics.incr served_c
  | Deadline_exceeded _ -> Obs.Metrics.incr deadline_c
  | Error _ -> Obs.Metrics.incr errors_c
  | Overloaded -> ());
  Obs.Flight.record (flight_of r ~queue_wait_us ?batch_id ?batch_size o);
  (match o with
  | Deadline_exceeded _ | Error _ -> ignore (Obs.Flight.auto_dump ~reason:(outcome_label o))
  | Response _ | Overloaded -> ());
  resolve r.ticket o

(* Fault isolation: everything a request can throw is converted to a
   typed outcome here; nothing escapes into the worker loop, so a
   poisoned request can never take a worker domain (or a neighbour's
   pending request) down with it.  Stage deadlines and the compiled →
   interpreter retry are [Server.handle]'s own.

   The whole handling runs under the request's trace context
   ([Span.with_request]): every span recorded below — including those
   inside [Server.handle] — carries [r.id], reassemblable into one
   admission-to-outcome chain by [Trace_sink.events_for]. *)
let run_one (fe : t) (r : request) =
  Obs.Span.with_request r.id @@ fun () ->
  let queue_wait_us = now_us () -. r.submitted_us in
  Obs.Metrics.observe queue_wait_h queue_wait_us;
  let o =
    Obs.Span.with_span
      ~attrs:[ ("workload", Obs.Trace_sink.Str r.workload.Workload.name) ]
      "frontend.request"
    @@ fun () ->
    let o =
      if now_us () > r.deadline_us then
        (* enforced at dequeue: a request that waited out its budget in
           the queue is answered without doing any work *)
        Deadline_exceeded "queue"
      else
        match Server.handle ~deadline_us:r.deadline_us fe.srv r.workload r.lens with
        | resp -> Response resp
        | exception Server.Deadline_exceeded stage -> Deadline_exceeded stage
        | exception e ->
            let backtrace = Printexc.get_backtrace () in
            Error { exn = Printexc.to_string e; backtrace }
    in
    Obs.Span.add_attr "outcome" (Obs.Trace_sink.Str (outcome_label o));
    o
  in
  finish r ~queue_wait_us o

(* Called under [fe.lock] after popping: publish the depth and wake every
   submitter blocked on a full queue. *)
let slots_freed (fe : t) =
  Obs.Metrics.set queue_depth_g (Queue.length fe.q);
  Condition.broadcast fe.not_full

(* Drain one window: block for the first request; an unbatched front end
   stops there.  A batching one holds the window open — taking whatever
   else arrives — until it has [max_batch] requests or [max_wait_us] has
   passed, sleeping on the wake pipe with the remaining budget as the
   select timeout, so arrivals cut the wait short instead of landing
   between polls.  The slots it has taken are freed before every sleep,
   not only once the window closes: a submitter blocked on a full queue
   must be able to refill it while the window is open. *)
let drain_window (fe : t) : request list option =
  Mutex.lock fe.lock;
  let rec first () =
    if not (Queue.is_empty fe.q) then Some (Queue.pop fe.q)
    else if fe.closing then None
    else begin
      Condition.wait fe.not_empty fe.lock;
      first ()
    end
  in
  let window =
    Option.map
      (fun r0 ->
        let acc = ref [ r0 ] in
        (match fe.batching with
        | None -> ()
        | Some (cfg, wake) ->
            let count = ref 1 and t0 = now_us () in
            let rec fill () =
              while !count < cfg.Batcher.max_batch && not (Queue.is_empty fe.q) do
                acc := Queue.pop fe.q :: !acc;
                incr count
              done;
              if !count < cfg.Batcher.max_batch && not fe.closing then begin
                let remaining_us = cfg.Batcher.max_wait_us -. (now_us () -. t0) in
                if remaining_us > 0.0 then begin
                  slots_freed fe;
                  Mutex.unlock fe.lock;
                  wake_wait wake ~timeout_us:remaining_us;
                  Mutex.lock fe.lock;
                  fill ()
                end
              end
            in
            fill ());
        slots_freed fe;
        List.rev !acc)
      (first ())
  in
  Mutex.unlock fe.lock;
  window

(* Serve one window's worth of same-workload requests through the
   batch-former and resolve every ticket from the scattered outcomes. *)
let run_batched (fe : t) (cfg : Batcher.config) (w : Workload.t) (rs : request list) =
  let rs = Array.of_list rs in
  let t_deq = now_us () in
  let members =
    Array.map
      (fun r -> { Batcher.m_lens = r.lens; m_deadline_us = r.deadline_us; m_id = r.id })
      rs
  in
  let outcomes =
    try Batcher.run cfg fe.srv w members
    with e ->
      (* forming itself failed: fail every member; the worker survives *)
      let backtrace = Printexc.get_backtrace () in
      Array.map
        (fun _ ->
          Batcher.Failed
            { exn = Printexc.to_string e; backtrace; batch_id = 0; batch_size = 1 })
        members
  in
  Array.iteri
    (fun i bo ->
      let r = rs.(i) in
      let queue_wait_us = t_deq -. r.submitted_us in
      Obs.Metrics.observe queue_wait_h queue_wait_us;
      let ( Batcher.Served { batch_id; batch_size; _ }
          | Batcher.Expired { batch_id; batch_size; _ }
          | Batcher.Failed { batch_id; batch_size; _ } ) =
        bo
      in
      finish r ~queue_wait_us ~batch_id ~batch_size (of_batch_outcome bo))
    outcomes

(* A drained window may mix workloads; it is grouped by workload name
   ([Stream] and bench-stream use one adapter instance per name).  A
   group goes through the batch-former only when the front end batches
   and the workload has a batching descriptor; otherwise its requests are
   served one at a time. *)
let serve_window (fe : t) (reqs : request list) =
  let groups : (string, request list ref) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = r.workload.Workload.name in
      match Hashtbl.find_opt groups key with
      | Some l -> l := r :: !l
      | None ->
          Hashtbl.add groups key (ref [ r ]);
          order := key :: !order)
    reqs;
  List.iter
    (fun key ->
      let rs = List.rev !(Hashtbl.find groups key) in
      let w = (List.hd rs).workload in
      match (fe.batching, w.Workload.batching) with
      | Some (cfg, _), Some _ -> run_batched fe cfg w rs
      | _ -> List.iter (run_one fe) rs)
    (List.rev !order)

let rec run_worker (fe : t) =
  match drain_window fe with
  | None -> () (* closing and drained: the worker retires *)
  | Some reqs ->
      serve_window fe reqs;
      run_worker fe

(* ------------------------------------------------------------------ *)
(* Client side *)

let create ?(domains = 4) ?(capacity = 64) ?deadline_ns ?batching (srv : Server.t) : t =
  if domains < 1 then invalid_arg "Frontend.create: domains must be >= 1";
  if capacity < 1 then invalid_arg "Frontend.create: capacity must be >= 1";
  (* outcomes carry backtraces; recording costs nothing on the happy path *)
  Printexc.record_backtrace true;
  let batching =
    Option.map
      (fun cfg ->
        let r, w = Unix.pipe () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        (cfg, (r, w)))
      batching
  in
  let fe =
    {
      srv;
      capacity;
      default_deadline_ns = Option.value deadline_ns ~default:infinity;
      batching;
      q = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closing = false;
      workers = [];
    }
  in
  fe.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> run_worker fe));
  fe

let deadline_of fe deadline_ns submitted_us =
  let rel = match deadline_ns with Some ns -> ns | None -> fe.default_deadline_ns in
  if rel = infinity then infinity else submitted_us +. (rel /. 1e3)

(* [wait_for_space] selects admission policy: reject (submit) vs
   backpressure (run_stream). *)
let enqueue ~wait_for_space ?deadline_ns (fe : t) (w : Workload.t) (lens : int array) :
    ticket =
  let id = Atomic.fetch_and_add next_id 1 in
  (* admission runs under the request's trace context too: the
     [frontend.submit] span carries the same id the worker-side spans
     will, stitching both domains into one per-request chain *)
  Obs.Span.with_request id @@ fun () ->
  Obs.Span.with_span
    ~attrs:[ ("workload", Obs.Trace_sink.Str w.Workload.name) ]
    "frontend.submit"
  @@ fun () ->
  let ticket = fresh_ticket id in
  let submitted_us = now_us () in
  let deadline_us = deadline_of fe deadline_ns submitted_us in
  let r = { id; workload = w; lens; deadline_us; submitted_us; ticket } in
  Mutex.lock fe.lock;
  if wait_for_space then
    while Queue.length fe.q >= fe.capacity && not fe.closing do
      Condition.wait fe.not_full fe.lock
    done;
  let admitted = (not fe.closing) && Queue.length fe.q < fe.capacity in
  if admitted then begin
    Queue.push r fe.q;
    Obs.Metrics.set queue_depth_g (Queue.length fe.q);
    Condition.signal fe.not_empty
  end;
  Mutex.unlock fe.lock;
  if admitted then wake_signal fe;
  Obs.Span.add_attr "admitted" (Obs.Trace_sink.Str (if admitted then "yes" else "no"));
  if admitted then Obs.Metrics.incr accepted_c
  else begin
    Obs.Metrics.incr rejected_c;
    resolve ticket Overloaded
  end;
  ticket

let submit ?deadline_ns fe w lens = enqueue ~wait_for_space:false ?deadline_ns fe w lens
let submit_wait ?deadline_ns fe w lens = enqueue ~wait_for_space:true ?deadline_ns fe w lens

let run_stream ?deadline_ns (fe : t) (w : Workload.t) (items : int array array) :
    outcome array =
  let tickets =
    Array.map (fun lens -> enqueue ~wait_for_space:true ?deadline_ns fe w lens) items
  in
  Array.map await tickets

let shutdown (fe : t) =
  Mutex.lock fe.lock;
  fe.closing <- true;
  Condition.broadcast fe.not_empty;
  Condition.broadcast fe.not_full;
  Mutex.unlock fe.lock;
  wake_signal fe;
  List.iter Domain.join fe.workers;
  fe.workers <- [];
  match fe.batching with
  | None -> ()
  | Some (_, (r, w)) ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      (try Unix.close w with Unix.Unix_error _ -> ())

let queue_length (fe : t) =
  Mutex.lock fe.lock;
  let n = Queue.length fe.q in
  Mutex.unlock fe.lock;
  n

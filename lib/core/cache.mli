(** Bounded, domain-safe memo tables.

    The serving layer keeps five families of memo tables (the lowering
    memo, the prelude cache, the plan memo, the tuner memo and one job
    memo per workload).  Under a concurrent front-end they are
    touched from several worker domains at once, and under a long-lived
    request stream an unbounded table is a memory leak — a steady drip
    of never-repeating batch shapes grows it forever.  This module is
    the shared answer: a mutex-protected table with a configurable entry
    cap and least-recently-used eviction.

    Lookups refresh recency; inserting into a full table evicts the
    least-recently-used entry and bumps the [<name>.evicted] counter in
    the {!Obs.Metrics} registry.  The value builder is {e never} run under
    the lock (callers compute outside and {!add} the result), so a slow
    build — lowering a large schedule, say — cannot serialise unrelated
    requests; the cost is that two domains racing on the same cold key may
    both build it, which costs a duplicate computation but never a wrong
    result (last insert wins, both values are structurally identical by
    construction of the key). *)

type ('k, 'v) t

(** Point-in-time accounting of one cache: lookups that hit / missed
    since creation, entries evicted, and the current entry count. *)
type stats = { hits : int; misses : int; evictions : int; entries : int }

(** [create ~name ~capacity ()] — an empty cache holding at most
    [capacity] entries (clamped to >= 1).  [name] prefixes the eviction
    counter ([<name>.evicted]) and keys the {!registered_stats} registry
    (latest creation under a name wins). *)
val create : name:string -> capacity:int -> unit -> ('k, 'v) t

(** Lookup; a hit refreshes the entry's recency. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Insert, replacing (and refreshing) any entry already under [k];
    inserting a new key evicts least-recently-used entries while the
    table is at capacity. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

(** Change the entry cap (clamped to >= 1), evicting immediately if the
    table is over the new cap. *)
val set_capacity : ('k, 'v) t -> int -> unit

val capacity : ('k, 'v) t -> int
val size : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit

(** Evictions performed since creation (same count the
    [<name>.evicted] metric reports, read without the registry). *)
val evictions : ('k, 'v) t -> int

(** Hit/miss/eviction/entry accounting without scraping the metrics
    registry — what {!Obs.Exposition} cache gauges are sampled from. *)
val stats : ('k, 'v) t -> stats

(** Stats of every live cache, one entry per cache name, sorted by name
    (a name created twice reports the most recent instance). *)
val registered_stats : unit -> (string * stats) list

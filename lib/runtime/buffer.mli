(** Flat runtime buffers: float storage for tensors, int storage for the
    prelude's auxiliary structures. *)

type t = F of float array | I of int array

val float_buf : int -> t
val int_buf : int -> t
val of_floats : float array -> t
val length : t -> int

(** Raises on the wrong variant. *)
val floats : t -> float array

val ints : t -> int array
val get_float : t -> int -> float
val set_float : t -> int -> float -> unit

(** Size in bytes (4-byte elements, matching the paper's fp32/int32). *)
val bytes : t -> int

val fill_float : t -> float -> unit

(** Recycling pool of float arrays, keyed by length — the zero-allocation
    backbone of the steady-state serving path.  {!Arena.acquire} returns a
    zero-filled array of exactly the requested length (recycled on a hit,
    freshly allocated on a miss — [arena.hit] / [arena.miss] metrics);
    {!Arena.acquire_class} rounds up to the next power-of-two size class
    first, so streams of varying ragged sizes converge onto a closed set
    of classes.  {!Arena.release} returns an array for reuse; the caller
    must not touch it afterwards.  Thread-safe. *)
module Arena : sig
  type t

  val create : unit -> t

  (** Zero-filled array of length exactly [n].  Raises like
      [Array.make] on a negative [n]. *)
  val acquire : t -> int -> float array

  (** Like {!acquire} but the result length is the next power of two
      [>= n] (for [n > 0]). *)
  val acquire_class : t -> int -> float array

  (** Like {!acquire_class}, also reporting whether the array was
      recycled ([true]) or freshly allocated ([false]) — per-request
      accounting for the flight recorder, which cannot use the global
      [arena.hit]/[arena.miss] counters under concurrency. *)
  val acquire_class_counted : t -> int -> float array * bool

  (** Return [a] to its pool.  Raises [Invalid_argument] if [a] (a
      non-empty array, compared physically) is already pooled. *)
  val release : t -> float array -> unit

  (** Drop all pooled arrays. *)
  val clear : t -> unit

  (** Number of arrays currently pooled (observability / tests). *)
  val stored : t -> int

  (** The process-wide arena shared by the engine's [Alloc] scratch and
      the serving path. *)
  val global : t
end

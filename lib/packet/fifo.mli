(** A bounded FIFO of non-negative ints (packet ids), backed by one
    flat circular buffer — no allocation after [create].  {!Geo}'s
    per-node queues; {!Plane} lays all of its queues out in one shared
    ring array instead.  A full queue refuses arrivals, and refusals
    drive drop accounting. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int
val length : t -> int
val is_empty : t -> bool
val is_full : t -> bool

val push : t -> int -> bool
(** Enqueue at the tail; [false] (and no change) when full. *)

val pop : t -> int
(** Dequeue the head, or [-1] when empty (ids are non-negative, so the
    sentinel is unambiguous). *)

val peek : t -> int
(** The head without removing it, or [-1] when empty. *)

val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Head-to-tail order. *)

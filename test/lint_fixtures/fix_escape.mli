(* Seeded L6/L7 violations; see test_lint.ml. *)

val boom : unit -> unit
val nap : unit -> unit
val spin : unit -> unit Domain.t
val careful : unit -> unit Domain.t

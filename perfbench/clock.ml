(* The benchmark's one clock: CLOCK_MONOTONIC in nanoseconds, read
   through bechamel's allocation-free stub. *)

let name = "CLOCK_MONOTONIC (ns, bechamel.monotonic_clock)"
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_since t0)

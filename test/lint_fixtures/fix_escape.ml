(* Deliberate resident-loop violations: a loop body that blocks (L6)
   and raises with no handler (L7), next to a sibling loop that
   handles the same raise and must stay quiet; test_lint asserts the
   exact lines. *)

let boom () = failwith "escape hatch"
let nap () = Unix.sleepf 0.001

let spin () =
  Domain.spawn (fun () ->
      nap ();
      boom ())

let careful () =
  Domain.spawn (fun () ->
      try boom () with Failure _ -> ())

(* The host's speed, read from a fixed probe.

   The benchmark runs on shared hosts whose CPU speed drifts by a
   third over minutes as other tenants come and go: on a 2-vCPU Xeon
   VM the same workload read 77k ops/s at one moment and 102k a few
   minutes later, with set-up time moving by the same factor.  That
   drift is no property of the program, so the end-to-end times are
   scaled to a reference host speed.  The probe is a fixed stdlib-only
   job (Hashtbl updates on a table that no longer grows, so it
   allocates nothing and leaves the GC alone) that shares no code with
   the program under test; it is timed after every round and the
   run's mean sets the scale.

   [reference_s] is the probe's time at the reference speed.  Scaled
   figures read [raw * factor] for rates and [raw / factor] for times,
   with [factor = mean probe time / reference_s]. *)

let reference_s = 0.010
let keys = 4096

let src =
  let rng = Random.State.make [| 0x686f7374 |] in
  Array.init 16384 (fun _ -> Random.State.bits rng)

let table = Hashtbl.create keys

let job () =
  for i = 0 to 199_999 do
    Hashtbl.replace table (src.(i land 16383) land (keys - 1)) i
  done

(* Fill the table once, so every probe only updates. *)
let () = job ()

let probe () = snd (Clock.time job)
let factor samples = Lr_analysis.Stats.mean samples /. reference_s

(* The untraced, closed-loop client: one process, one batch in flight.

   A round is one complete service lifetime over a workload file: set
   up ([Workload.load] + [Workload.shard_configs] + [Service.create]),
   send the stream in fixed batches to [Service.run], one after
   another, and (on checked rounds) read [Service.metrics] and
   [Service.fingerprint].

   A batch whose [Service.run] raises counts all its ops as failed.
   The raising shard is left mid-repair (carrying on with it can spin
   for minutes), so the client restarts the service from the initial
   shard configurations, as an operator would, and sends the next
   batch. *)

module Wl = Lr_service.Workload
module Op = Lr_service.Op
module Service = Lr_service.Service
module Metrics = Lr_service.Metrics

let batch_size = Service.default_config.Service.window
let batches_of n = (n + batch_size - 1) / batch_size

type check = {
  metrics_s : float;  (* Service.metrics + Service.fingerprint *)
  fingerprint : string;
  rejected_counted : int;  (* the metrics' rejected counters, all instances *)
  validation_failures : int;
}

type round = {
  load_s : float;
  configs_s : float;
  create_s : float;
  run_s : float;  (* summed wall of the Service.run calls and restarts *)
  batch_s : float array;  (* wall of each batch, restart included *)
  raised : bool array;  (* per batch: its Service.run raised *)
  attempted : int;
  failed : int;
      (* rejected + ops of raising batches + failed validations, which
         are read on checked rounds only *)
  raised_batches : int;
  raised_ops : int;
  rejected : int;  (* Rejected responses *)
  check : check option;  (* read on checked rounds only *)
  responses : Op.response array;  (* slot i answers op i *)
  answered : bool array;  (* false for ops of a raising batch *)
  minor_words : float;  (* GC deltas summed over the Service.run calls *)
  promoted_words : float;
  major_collections : int;
  first_error : string option;
}

let load path =
  match Wl.load path with
  | Ok x -> x
  | Error e -> failwith ("workload file rejected: " ^ e)

let create configs = Service.create Service.default_config configs

let round ?(checked = true) path =
  let (spec, ops), load_s = Clock.time (fun () -> load path) in
  let configs, configs_s = Clock.time (fun () -> Wl.shard_configs spec) in
  let first, create_s = Clock.time (fun () -> create configs) in
  let svc = ref first in
  (* Counters of service instances retired by a restart. *)
  let retired_rejected = ref 0 and retired_invalid = ref 0 in
  Fun.protect
    ~finally:(fun () -> Service.shutdown !svc)
    (fun () ->
      let n = Array.length ops in
      let responses = Array.make n Op.Noop in
      let answered = Array.make n true in
      let batch_s = Array.make (batches_of n) 0.0 in
      let raised = Array.make (batches_of n) false in
      let raised_batches = ref 0 and raised_ops = ref 0 in
      let first_error = ref None in
      let minor = ref 0.0 and promoted = ref 0.0 and majors = ref 0 in
      for b = 0 to batches_of n - 1 do
        let off = b * batch_size in
        let len = min batch_size (n - off) in
        let chunk = Array.sub ops off len in
        let g0 = Gc.quick_stat () in
        let t0 = Clock.now_ns () in
        let result = try Ok (Service.run !svc chunk) with e -> Error e in
        let dt = Clock.seconds_since t0 in
        let g1 = Gc.quick_stat () in
        batch_s.(b) <- dt;
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        match result with
        | Ok rs -> Array.blit rs 0 responses off len
        | Error e ->
            raised.(b) <- true;
            incr raised_batches;
            raised_ops := !raised_ops + len;
            Array.fill answered off len false;
            if Option.is_none !first_error then
              first_error :=
                Some (Printf.sprintf "batch %d (ops %d..%d): %s" b off
                        (off + len - 1) (Printexc.to_string e));
            let t0 = Clock.now_ns () in
            let totals = (Service.metrics !svc).Metrics.snapshot_totals in
            retired_rejected := !retired_rejected + totals.Metrics.rejected;
            retired_invalid := !retired_invalid + totals.Metrics.validation_failures;
            Service.shutdown !svc;
            svc := create configs;
            batch_s.(b) <- dt +. Clock.seconds_since t0
      done;
      let kept =
        if !raised_ops = 0 then responses
        else
          Array.of_list
            (List.filteri (fun i _ -> answered.(i)) (Array.to_list responses))
      in
      let check =
        if not checked then None
        else
          let (snap, fingerprint), metrics_s =
            Clock.time (fun () ->
                let snap = Service.metrics !svc in
                (snap, Service.fingerprint kept snap))
          in
          let totals = snap.Metrics.snapshot_totals in
          Some
            { metrics_s; fingerprint;
              rejected_counted = !retired_rejected + totals.Metrics.rejected;
              validation_failures =
                !retired_invalid + totals.Metrics.validation_failures }
      in
      let rejected = ref 0 in
      Array.iteri
        (fun i r ->
          match r with
          | Op.Rejected _ when answered.(i) -> incr rejected
          | _ -> ())
        responses;
      let invalid = match check with Some c -> c.validation_failures | None -> 0 in
      {
        load_s; configs_s; create_s;
        run_s = Array.fold_left ( +. ) 0.0 batch_s; batch_s; raised;
        attempted = n;
        failed = min n (!raised_ops + !rejected + invalid);
        raised_batches = !raised_batches; raised_ops = !raised_ops;
        rejected = !rejected; check; responses; answered;
        minor_words = !minor; promoted_words = !promoted;
        major_collections = !majors; first_error = !first_error;
      })

(* Whole cycles, one round per workload part in order, filling
   [seconds] of wall: the last cycle is the one expected to end nearest
   the deadline, judged by the mean cycle so far.  One untimed round of
   the first part warms the process up first.  The first and the last
   cycle are checked; the ones between skip [Service.metrics], so more
   of the run is spent serving.  Each round starts from a compacted
   heap, like a fresh process, and keeps no responses; the host probe
   runs after each round and its times are returned beside the
   cycles. *)
let cycles ~seconds files =
  let probes = ref [] in
  let cycle checked =
    Array.map
      (fun file ->
        Gc.compact ();
        let r = round ~checked file in
        probes := Host.probe () :: !probes;
        { r with responses = [||]; answered = [||] })
      files
  in
  ignore (round ~checked:false files.(0));
  let t0 = Clock.now_ns () in
  let rec go acc n =
    let elapsed = Clock.seconds_since t0 in
    let mean = elapsed /. float_of_int n in
    if elapsed +. (1.5 *. mean) >= seconds then List.rev (cycle true :: acc)
    else go (cycle false :: acc) (n + 1)
  in
  let first = cycle true in
  let all =
    if Clock.seconds_since t0 *. 1.5 >= seconds then [ first ] else go [ first ] 1
  in
  (all, !probes)

(* The service benchmark.

     perfbench gen --workload W --seed S --fault-seed F --out FILE
                   --shards N --nodes N ...
     perfbench run --workload W --files F1,F2,... --seconds N --trace 0|1
                   [--expect-fingerprint HEX]
     perfbench defect --out FILE

   [gen] writes one seeded op stream of a workload, given by the
   parameters of workloads.json, as an lrw1 file.
   [run] measures the service on those files only (the parts of one
   run, served round-robin), prints a human report, then one JSON
   object as its last line, and exits 1 when a correctness gate fails.
   [defect] replays the known budget-exceeded stream through the same
   batch client and checks the failure accounting. *)

module Wl = Lr_service.Workload
module Op = Lr_service.Op

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* {1 Metric sheet} *)

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_lines metrics =
  List.iter
    (fun m -> Printf.printf "  %-34s %18.6f %s\n" m.name m.value m.unit_)
    metrics

let print_report ~correct ~attempted ~failed metrics =
  print_lines metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let median = Lr_analysis.Stats.median
let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let isum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let gates = ref []

let gate ok fmt =
  Printf.ksprintf (fun m -> if not ok then gates := m :: !gates) fmt

(* {1 gen} *)

let gen ~workload ~seed ~fault_seed ~out =
  let spec, ops = Workloads.generate workload ~seed ~fault_seed in
  Wl.save out spec ops;
  Printf.printf "wrote %s: %s\n" out (Wl.describe spec)

(* {1 End to end} *)

(* Every batch wall of every round counts: the latency percentiles
   pool the batches that did not raise, and goodput divides the ops
   answered by the summed wall of all the Service.run calls.  The times
   are then scaled to the reference host speed (see Host); the figures
   as read off the clock are returned beside them. *)
let end_to_end ~factor (cycles : Drive.round array list) =
  let rounds = List.concat_map Array.to_list cycles in
  let answered = isum (fun (r : Drive.round) -> r.attempted - r.failed) rounds in
  let serve_s = sum (fun (r : Drive.round) -> r.run_s) rounds in
  let latencies =
    List.concat_map
      (fun (r : Drive.round) ->
        List.filteri (fun b _ -> not r.raised.(b)) (Array.to_list r.batch_s))
      rounds
  in
  let p = Lr_analysis.Stats.percentiles latencies in
  let setup =
    List.map (fun (r : Drive.round) -> r.load_s +. r.configs_s +. r.create_s) rounds
  in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  (* [f] is the host factor: rates are multiplied by it, times divided. *)
  let sheet f =
    [
      { name = "goodput_ops_s"; unit_ = "ops/s";
        value = float_of_int answered /. serve_s *. f };
      { name = "batch_p50_ms"; unit_ = "ms"; value = 1e3 *. p.p50 /. f };
      { name = "batch_p99_ms"; unit_ = "ms"; value = 1e3 *. p.p99 /. f };
      { name = "setup_s"; unit_ = "s"; value = median setup /. f };
    ]
  in
  ( sheet factor
    @ [ { name = "heap_peak_mb"; unit_ = "MB";
          value = float_of_int (top * (Sys.word_size / 8)) /. 1e6 } ],
    List.map (fun m -> { m with name = "raw." ^ m.name }) (sheet 1.0),
    List.length latencies )

(* {1 Per layer} *)

(* Traced and untraced responses must agree byte for byte on every op
   both answered. *)
let differing (untraced : Drive.round) (traced : Ledger.pass) =
  let differ = ref 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Some r when untraced.answered.(i) ->
          if Op.response_to_string r <> Op.response_to_string untraced.responses.(i)
          then incr differ
      | _ -> ())
    traced.responses;
  !differ

(* Response-level counts of the traced passes, summed over parts. *)
type tally = {
  samples : float list array;  (* per op kind, µs *)
  mutable ops : int;
  mutable busy : float;  (* Shard.apply, validation on *)
  mutable busy_unvalidated : float;
  mutable tracer : float;  (* traced wall outside Shard.apply *)
  mutable run_s : float;  (* untraced Service.run wall, median round per part *)
  mutable differ : int;
  mutable steps : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  routes : int array;  (* per half of each stream *)
  paths : int array;
  mutable noops : int;
  mutable cuts : int;
  mutable heal : int;
  mutable delivered : int;
  mutable accepted : int;
  mutable dropped : int;
  mutable plane_reversals : int;
  mutable hops : int;
  mutable queue_peak : int;
}

let tally () =
  { samples = Array.make (Array.length Ledger.kinds) []; ops = 0; busy = 0.0;
    busy_unvalidated = 0.0; tracer = 0.0; run_s = 0.0; differ = 0; steps = 0;
    hits = 0; misses = 0; invalidations = 0; routes = [| 0; 0 |];
    paths = [| 0; 0 |]; noops = 0; cuts = 0; heal = 0; delivered = 0;
    accepted = 0; dropped = 0; plane_reversals = 0; hops = 0; queue_peak = 0 }

let count_responses t ops (p : Ledger.pass) =
  let n = Array.length ops in
  Array.iteri
    (fun i r ->
      let half = if 2 * i < n then 0 else 1 in
      (match ops.(i) with
      | Op.Route _ -> t.routes.(half) <- t.routes.(half) + 1
      | _ -> ());
      match r with
      | Some (Op.Path _) -> t.paths.(half) <- t.paths.(half) + 1
      | Some Op.Noop -> t.noops <- t.noops + 1
      | Some (Op.Cut _) -> t.cuts <- t.cuts + 1
      | Some (Op.Healed { node_steps }) -> t.heal <- t.heal + node_steps
      | Some (Op.Injected { accepted; dropped }) ->
          t.accepted <- t.accepted + accepted;
          t.dropped <- t.dropped + dropped
      | Some (Op.Forwarded { delivered; reversals; queued; hops }) ->
          t.delivered <- t.delivered + delivered;
          t.plane_reversals <- t.plane_reversals + reversals;
          t.hops <- t.hops + hops;
          t.queue_peak <- max t.queue_peak queued
      | _ -> ())
    p.responses

(* One part: an untraced round that keeps its responses, then the
   traced pass and the traced pass without validation, each on fresh
   shards. *)
let trace_part t file part_rounds =
  let spec, ops = Drive.load file in
  let configs = Wl.shard_configs spec in
  Gc.compact ();
  let untraced = Drive.round file in
  Gc.compact ();
  let traced = Ledger.replay ~validate:true configs ops in
  Gc.compact ();
  let unvalidated = Ledger.replay ~validate:false configs ops in
  let busy = Ledger.busy_s traced in
  Array.iteri
    (fun k us -> t.samples.(k) <- List.rev_append us t.samples.(k))
    (Ledger.samples traced ops);
  t.ops <- t.ops + Array.length ops;
  t.busy <- t.busy +. busy;
  t.busy_unvalidated <- t.busy_unvalidated +. Ledger.busy_s unvalidated;
  t.tracer <- t.tracer +. (traced.wall_s -. busy);
  t.run_s <- t.run_s +. median (List.map (fun (r : Drive.round) -> r.run_s) part_rounds);
  t.differ <- t.differ + differing untraced traced;
  t.steps <- t.steps + traced.reversal_steps;
  t.hits <- t.hits + traced.cache_hits;
  t.misses <- t.misses + traced.cache_misses;
  t.invalidations <- t.invalidations + traced.cache_invalidations;
  count_responses t ops traced

let per_layer ~probes files (cycles : Drive.round array list) =
  let rounds = List.concat_map Array.to_list cycles in
  let t = tally () in
  Array.iteri
    (fun p file -> trace_part t file (List.map (fun c -> c.(p)) cycles))
    files;
  gate (t.differ = 0) "%d traced responses differ from the untraced run" t.differ;
  let rows = Array.map Ledger.row t.samples in
  let busiest = ref 0 in
  Array.iteri
    (fun k (r : Ledger.kind_row) -> if r.busy > rows.(!busiest).busy then busiest := k)
    rows;
  Printf.printf
    "traced passes: %.3f s in Shard.apply, %.3f s of tracer overhead; busiest \
     class: shard.%s\n"
    t.busy t.tracer Ledger.kinds.(!busiest);
  let med f = median (List.map f rounds) in
  let attempted = isum (fun (r : Drive.round) -> r.attempted) rounds in
  let m name unit_ value = { name; unit_; value } in
  let count name v = m name "count" (float_of_int v) in
  let per_op f = sum f rounds /. float_of_int attempted in
  [
    m "workload.load_s" "s" (med (fun r -> r.Drive.load_s));
    m "workload.shard_configs_s" "s" (med (fun r -> r.Drive.configs_s));
    m "service.create_s" "s" (med (fun r -> r.Drive.create_s));
    m "service.dispatch_s" "s" (t.run_s -. t.busy);
    m "service.metrics_s" "s"
      (median
         (List.filter_map
            (fun (r : Drive.round) -> Option.map (fun c -> c.Drive.metrics_s) r.check)
            rounds));
    m "service.failed_frac" "ratio"
      (frac (isum (fun (r : Drive.round) -> r.failed) rounds) attempted);
    count "service.batches"
      (isum (fun (r : Drive.round) -> Array.length r.batch_s) rounds);
  ]
  @ List.concat
      (Array.to_list
         (Array.mapi
            (fun k (r : Ledger.kind_row) ->
              let p = "shard." ^ Ledger.kinds.(k) in
              [ count (p ^ ".n") r.n; m (p ^ ".busy_s") "s" r.busy;
                m (p ^ ".p50_us") "us" r.p50_us; m (p ^ ".p99_us") "us" r.p99_us ])
            rows))
  @ [
      m "shard.validate_s" "s" (t.busy -. t.busy_unvalidated);
      count "engine.reversal_steps" t.steps;
      m "engine.cache_hit_ratio" "ratio" (frac t.hits (t.hits + t.misses));
      count "engine.cache_invalidations" t.invalidations;
      count "plane.delivered" t.delivered;
      m "plane.dropped_frac" "ratio" (frac t.dropped (t.accepted + t.dropped));
      count "plane.reversals" t.plane_reversals;
      count "plane.hops" t.hops;
      count "plane.queue_peak" t.queue_peak;
      count "heal.node_steps" t.heal;
      m "resp.path_frac" "ratio"
        (frac (t.paths.(0) + t.paths.(1)) (t.routes.(0) + t.routes.(1)));
      m "resp.path_frac_first_half" "ratio" (frac t.paths.(0) t.routes.(0));
      m "resp.path_frac_second_half" "ratio" (frac t.paths.(1) t.routes.(1));
      m "resp.noop_frac" "ratio" (frac t.noops t.ops);
      count "resp.cut" t.cuts;
      m "gc.minor_words_per_op" "words/op" (per_op (fun r -> r.Drive.minor_words));
      m "gc.promoted_words_per_op" "words/op"
        (per_op (fun r -> r.Drive.promoted_words));
      m "gc.major_collections" "count/round"
        (frac (isum (fun (r : Drive.round) -> r.major_collections) rounds)
           (List.length rounds));
      m "trace.overhead_frac" "ratio" (t.tracer /. t.run_s);
      m "host.probe_ms" "ms" (1e3 *. Lr_analysis.Stats.mean probes);
    ]

(* {1 run} *)

let run ~workload ~files ~seconds ~trace ~expect =
  let cycles, probes = Drive.cycles ~seconds files in
  let factor = Host.factor probes in
  let rounds = List.concat_map Array.to_list cycles in
  let fp (r : Drive.round) = Option.fold ~none:"" ~some:(fun c -> c.Drive.fingerprint) r.check in
  let part_fp = Array.map fp (List.hd cycles) in
  List.iteri
    (fun c cycle ->
      Array.iteri
        (fun p (r : Drive.round) ->
          Option.iter
            (fun (k : Drive.check) ->
              gate (k.validation_failures = 0)
                "cycle %d part %d: %d route validation failures" c p
                k.validation_failures;
              gate (r.rejected = k.rejected_counted)
                "cycle %d part %d: %d Rejected responses but the metrics count %d"
                c p r.rejected k.rejected_counted;
              gate (k.fingerprint = part_fp.(p))
                "cycle %d part %d: fingerprint %s differs from cycle 0's %s" c p
                k.fingerprint part_fp.(p))
            r.check;
          if c = 0 then
            Option.iter (Printf.printf "part %d: %s\n" p) r.first_error)
        cycle)
    cycles;
  let fingerprint =
    Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list part_fp)))
  in
  Option.iter
    (fun fp -> gate (fp = fingerprint) "fingerprint %s, expected %s" fingerprint fp)
    expect;
  let e2e, raw, samples = end_to_end ~factor cycles in
  let attempted = isum (fun (r : Drive.round) -> r.attempted) rounds in
  let failed = isum (fun (r : Drive.round) -> r.failed) rounds in
  Printf.printf
    "workload %s: %d parts x %d cycles, %d ops attempted, %d failed (%d raising \
     batches)\n"
    workload (Array.length files) (List.length cycles) attempted
    failed
    (isum (fun (r : Drive.round) -> r.raised_batches) rounds);
  Printf.printf
    "batch latency over %d batches of %d ops, pooled over %d cycles; clock %s\n"
    samples Drive.batch_size (List.length cycles) Clock.name;
  Printf.printf "fingerprint: %s\n" fingerprint;
  Printf.printf
    "host probe: mean %.3f ms over %d rounds, reference %.3f ms; factor %.4f \
     (times divided by it, goodput multiplied)\n"
    (1e3 *. Lr_analysis.Stats.mean probes) (List.length probes)
    (1e3 *. Host.reference_s) factor;
  print_lines raw;
  (* With tracing, the end-to-end figures are printed too, but only the
     per-layer ones go into the JSON line. *)
  let metrics =
    if trace then begin
      print_lines e2e;
      per_layer ~probes files cycles
    end
    else e2e
  in
  List.iter (Printf.printf "GATE FAILED: %s\n") (List.rev !gates);
  let correct = !gates = [] in
  print_report ~correct ~attempted ~failed metrics;
  if not correct then exit 1

(* {1 defect} *)

(* The stream of
     linkrev serve --shards 16 --nodes 256 --extra-edges 64 --mix 20/0/0
       --pmix 10/20 --burst 4 --ops 200000 --skew 0.8 --seed 7 --chaos 400:3
   which dies with "Maintenance.stabilize: budget exceeded" at op
   33,448 (a link failure after a flip left a wide height spread). *)
let defect_op = 33_448

let defect ~out =
  let spec =
    { Wl.shards = 16; nodes = 256; extra_edges = 64; seed = 7; ops = 200_000;
      mix = { Wl.route = 20; churn = 0; crash = 0 };
      pmix = { Wl.inject = 10; forward = 20 }; burst = 4; skew = 0.8;
      stats_every = 0 }
  in
  let sched =
    Lr_chaos.Schedule.generate
      { Lr_chaos.Schedule.count = 400; seed = 3;
        magnitude = Lr_chaos.Schedule.default_magnitude }
      ~shards:spec.Wl.shards ~nodes:spec.Wl.nodes
  in
  let configs = Wl.shard_configs spec in
  let graphs =
    Array.map (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial) configs
  in
  let ops = Lr_chaos.Schedule.weave sched ~graphs (Wl.generate spec) in
  Wl.save out { spec with Wl.ops = Array.length ops } ops;
  let r = Drive.round out in
  let traced = Ledger.replay ~validate:true configs ops in
  Printf.printf "defect stream: %d ops, %d raising batches (%d ops), %d failed\n"
    r.attempted r.raised_batches r.raised_ops r.failed;
  Option.iter (Printf.printf "first raise: %s\n") r.first_error;
  let first_raised =
    Option.value ~default:(-1)
      (Seq.find (fun b -> r.raised.(b)) (Seq.init (Array.length r.raised) Fun.id))
  in
  gate (Op.to_line ops.(defect_op) = "down 14 213 25")
    "op %d is %S, not the known failing link failure" defect_op
    (Op.to_line ops.(defect_op));
  gate (first_raised = defect_op / Drive.batch_size)
    "the first raising batch is %d, not %d (the one holding op %d)" first_raised
    (defect_op / Drive.batch_size) defect_op;
  gate (r.failed = r.raised_ops)
    "failed count %d differs from the %d ops of the raising batches" r.failed
    r.raised_ops;
  let differ = differing r traced in
  gate (differ = 0) "%d traced responses differ from the untraced run" differ;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !gates);
  if !gates <> [] then exit 1;
  print_endline
    "defect self-test passed: the run completed and every failure is counted"

(* {1 Command line} *)

let () =
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> fail "unexpected argument %S" x
  in
  let cmd, args =
    match List.tl (Array.to_list Sys.argv) with
    | c :: rest -> (c, opts [] rest)
    | [] -> fail "no command"
  in
  let get k =
    match List.assoc_opt k args with Some v -> v | None -> fail "missing --%s" k
  in
  let int k =
    match int_of_string_opt (get k) with Some i -> i | None -> fail "bad --%s" k
  in
  match cmd with
  | "gen" ->
      let workload =
        try Workloads.of_params (get "workload") get
        with Failure _ -> fail "bad workload parameters"
      in
      gen ~workload ~seed:(int "seed") ~fault_seed:(int "fault-seed") ~out:(get "out")
  | "run" ->
      run ~workload:(get "workload")
        ~files:(Array.of_list (String.split_on_char ',' (get "files")))
        ~seconds:(float_of_int (int "seconds"))
        ~trace:(int "trace" = 1)
        ~expect:(List.assoc_opt "expect-fingerprint" args)
  | "defect" -> defect ~out:(get "out")
  | c -> fail "unknown command %S" c

open Helpers
module S = Lr_service.Service
module W = Lr_service.Workload
module Op = Lr_service.Op
module Shard = Lr_service.Shard
module Metrics = Lr_service.Metrics
module Node = Lr_graph.Node

let spec ?(shards = 6) ?(nodes = 12) ?(extra_edges = 8) ?(seed = 5)
    ?(ops = 600) ?(mix = W.default_mix) ?(pmix = W.no_packets) ?(burst = 4)
    ?(skew = 0.8) ?(stats_every = 0) () =
  { W.shards; nodes; extra_edges; seed; ops; mix; pmix; burst; skew;
    stats_every }

let churny = { W.route = 60; churn = 35; crash = 5 }

(* The service clamps [jobs] to the host's domains, so on a small host
   the larger job counts below run the same pool; the results must not
   depend on it either way. *)
let with_service ?trace_dir ?(jobs = 1) ?(queue_bound = 128) ?(window = 256)
    spec f =
  let cfg = { S.default_config with S.jobs; queue_bound; window } in
  let svc = S.create ?trace_dir cfg (W.shard_configs spec) in
  Fun.protect ~finally:(fun () -> S.shutdown svc) (fun () -> f svc)

let run_spec ?(jobs = 1) ?(queue_bound = 128) ?(window = 256) spec =
  with_service ~jobs ~queue_bound ~window spec (fun svc ->
      let responses = S.run svc (W.generate spec) in
      (responses, S.metrics svc))

(* The headline guarantee: responses, counters, and hence the
   fingerprint depend only on the op stream — never on the domain
   count.  The bound is generous here (nothing rejects); the overload
   tests below cover rejections. *)
let test_deterministic_across_jobs () =
  let s = spec ~mix:churny ~stats_every:71 () in
  let r1, m1 = run_spec ~jobs:1 ~queue_bound:1024 s in
  List.iter
    (fun jobs ->
      let rj, mj = run_spec ~jobs ~queue_bound:1024 s in
      check_bool (Printf.sprintf "responses jobs=%d = jobs=1" jobs) true
        (r1 = rj);
      check_bool
        (Printf.sprintf "fingerprint jobs=%d = jobs=1" jobs)
        true
        (S.fingerprint r1 m1 = S.fingerprint rj mj))
    [ 2; 3; 8 ]

let test_validation_clean_and_consistent () =
  let s = spec ~mix:churny ~ops:800 () in
  with_service s (fun svc ->
      let responses = S.run svc (W.generate s) in
      let m = S.metrics svc in
      check_int "zero validation failures" 0
        m.Metrics.snapshot_totals.Metrics.validation_failures;
      check_bool "some routes answered" true
        (m.Metrics.snapshot_totals.Metrics.routes > 0);
      for i = 0 to S.num_shards svc - 1 do
        check_bool
          (Printf.sprintf "shard %d consistent after churn" i)
          true
          (Shard.consistent (S.shard svc i))
      done;
      ignore responses)

let test_every_op_accounted () =
  let s = spec ~mix:churny ~ops:700 ~stats_every:50 () in
  let responses, m = run_spec s in
  let t = m.Metrics.snapshot_totals in
  check_int "served + rejected = ops" s.W.ops (t.Metrics.served + t.Metrics.rejected);
  check_int "no leaked rejections" t.Metrics.rejected (S.rejected_in responses);
  (* per-shard totals roll up to the global ones *)
  let shard_served =
    Array.fold_left
      (fun acc per -> acc + per.Metrics.served)
      0 m.Metrics.snapshot_per_shard
  in
  check_int "per-shard served rolls up" t.Metrics.served
    (shard_served + t.Metrics.stats_ops)

(* Every op is served or rejected, rejections match the counter, queue
   depth respects the bound, and shards stay consistent. *)
let check_overload_accounting ~jobs ~bound (s : W.spec) svc responses =
  let m = S.metrics svc in
  let t = m.Metrics.snapshot_totals in
  check_int
    (Printf.sprintf "served + rejected = ops at jobs=%d" jobs)
    s.W.ops
    (t.Metrics.served + t.Metrics.rejected);
  check_int
    (Printf.sprintf "no leaked rejections at jobs=%d" jobs)
    t.Metrics.rejected (S.rejected_in responses);
  check_bool
    (Printf.sprintf "queue depth respects the bound at jobs=%d" jobs)
    true
    (m.Metrics.rings_totals.Metrics.max_depth <= bound);
  for i = 0 to S.num_shards svc - 1 do
    check_bool
      (Printf.sprintf "shard %d consistent at jobs=%d" i jobs)
      true
      (Shard.consistent (S.shard svc i))
  done

let test_backpressure_rejects_deterministically () =
  (* A hot shard (strong skew) against a tiny queue bound must shed
     load — and which ops are shed must not depend on jobs. *)
  let s = spec ~shards:4 ~ops:900 ~skew:3.0 ~stats_every:113 () in
  let ops = W.generate s in
  let runs =
    List.map
      (fun jobs ->
        with_service ~jobs ~queue_bound:2 ~window:128 s (fun svc ->
            let responses = S.run svc ops in
            check_overload_accounting ~jobs ~bound:2 s svc responses;
            (jobs, responses, S.fingerprint responses (S.metrics svc))))
      [ 1; 2; 4 ]
  in
  let _, r1, fp1 = List.hd runs in
  check_bool "overload sheds ops" true (S.rejected_in r1 > 0);
  List.iter
    (fun (jobs, rj, fpj) ->
      check_bool (Printf.sprintf "same rejections at jobs=%d" jobs) true
        (r1 = rj);
      check_bool (Printf.sprintf "same fingerprint at jobs=%d" jobs) true
        (fp1 = fpj))
    runs;
  (* a generous bound sheds nothing *)
  let _, mb = run_spec ~queue_bound:1024 ~window:128 s in
  check_int "no rejections with headroom" 0
    mb.Metrics.snapshot_totals.Metrics.rejected

(* Overload accounting at the default window: a hot shard against a
   tiny queue bound, with stats ops mixed in, at jobs 1, 2 and 4.  The
   case keeps the name it had when a free-running dispatcher served
   this configuration; the invariants are the same under the windowed
   dispatcher. *)
let test_free_running_overload_accounting () =
  let s = spec ~shards:4 ~ops:900 ~skew:3.0 ~stats_every:113 () in
  let ops = W.generate s in
  List.iter
    (fun jobs ->
      with_service ~jobs ~queue_bound:2 s (fun svc ->
          let responses = S.run svc ops in
          check_overload_accounting ~jobs ~bound:2 s svc responses))
    [ 1; 2; 4 ]

(* The default configuration sheds overload at jobs=1 as well: a
   single domain dispatches and serves, but the queue bound still
   holds within each window, and the shed set is the same at jobs=2. *)
let test_default_config_sheds_at_one_job () =
  let s = spec ~shards:4 ~ops:900 ~skew:3.0 () in
  let ops = W.generate s in
  let shed jobs =
    let cfg = { S.default_config with S.jobs; queue_bound = 2 } in
    let svc = S.create cfg (W.shard_configs s) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        check_overload_accounting ~jobs ~bound:2 s svc responses;
        List.filter
          (fun i -> match responses.(i) with Op.Rejected _ -> true | _ -> false)
          (List.init (Array.length responses) Fun.id))
  in
  let shed1 = shed 1 in
  check_bool "jobs=1 sheds a non-empty set" true (shed1 <> []);
  check_bool "jobs=2 sheds the same ops" true (shed1 = shed 2)

let test_ring_metrics_sane () =
  (* Queue observability arithmetic: one post-admission depth sample
     per admitted op, and the mean can never exceed the max. *)
  let s = spec ~mix:churny ~ops:800 ~stats_every:101 () in
  let _, m = run_spec ~jobs:3 ~queue_bound:1024 s in
  let r = m.Metrics.rings_totals in
  let t = m.Metrics.snapshot_totals in
  check_int "one depth sample per admitted op"
    (t.Metrics.served - t.Metrics.stats_ops)
    r.Metrics.depth_samples;
  check_bool "mean depth <= max depth" true
    (r.Metrics.mean_depth <= float_of_int r.Metrics.max_depth);
  check_bool "max depth positive" true (r.Metrics.max_depth > 0)

let test_stats_barrier_counts () =
  let s = spec ~ops:400 ~stats_every:60 ~mix:churny () in
  (* jobs=3 runs multi-domain rounds: a snapshot may only be taken once
     every admitted op has completed on its round worker. *)
  let responses, _ = run_spec ~jobs:3 s in
  Array.iteri
    (fun i r ->
      match r with
      | Op.Snapshot t ->
          (* the barrier means every earlier admitted op has completed:
             served = executed ops before this index, plus the stats
             ops up to and including this one *)
          let expected = ref 0 in
          for j = 0 to i do
            match responses.(j) with
            | Op.Rejected _ -> ()
            | _ -> incr expected
          done;
          check_int
            (Printf.sprintf "snapshot at op %d counts all prior ops" i)
            !expected t.Metrics.served
      | _ -> ())
    responses

let test_crashes_fail_over () =
  let s = spec ~shards:3 ~nodes:10 ~ops:300 ~mix:{ W.route = 50; churn = 0; crash = 50 } () in
  with_service s (fun svc ->
      let responses = S.run svc (W.generate s) in
      let m = S.metrics svc in
      check_bool "elections happened" true
        (m.Metrics.snapshot_totals.Metrics.crashes > 0);
      check_int "zero validation failures across failovers" 0
        m.Metrics.snapshot_totals.Metrics.validation_failures;
      let epochs = ref 0 in
      for i = 0 to S.num_shards svc - 1 do
        let sh = S.shard svc i in
        epochs := !epochs + Shard.epoch sh;
        check_bool (Printf.sprintf "shard %d consistent" i) true
          (Shard.consistent sh);
        check_bool (Printf.sprintf "shard %d dead set matches epochs" i) true
          (Node.Set.cardinal (Shard.dead sh) = Shard.epoch sh)
      done;
      check_bool "epochs advanced" true (!epochs > 0);
      let leaders =
        Array.fold_left
          (fun acc r ->
            match r with Op.New_destination _ -> acc + 1 | _ -> acc)
          0 responses
      in
      check_int "every election produced a New_destination response"
        m.Metrics.snapshot_totals.Metrics.crashes leaders)

let test_shard_unit_behaviour () =
  let s = spec ~shards:1 ~nodes:8 () in
  let shard =
    Shard.create ~rule:Lr_routing.Maintenance.Partial_reversal ~id:0
      (W.shard_config s 0)
  in
  let dest = Shard.destination shard in
  (* routes reach the destination *)
  Node.Set.iter
    (fun u ->
      let o = Shard.apply shard (Op.Route { shard = 0; src = u }) in
      match o.Shard.response with
      | Op.Path path ->
          check_int "path ends at destination" dest
            (List.nth path (List.length path - 1));
          check_int "validated" 0 o.Shard.validation_failures
      | Op.No_route -> check_int "honest refusal" 0 o.Shard.validation_failures
      | _ -> Alcotest.fail "route answered with a non-route response")
    (Lr_graph.Digraph.nodes (Shard.graph shard));
  (* inapplicable churn is a Noop, not an error *)
  let o = Shard.apply shard (Op.Link_down { shard = 0; u = 0; v = 0 }) in
  check_bool "self-loop down is a noop" true (o.Shard.response = Op.Noop);
  let o = Shard.apply shard (Op.Route { shard = 0; src = 999 }) in
  check_bool "unknown source is a noop" true (o.Shard.response = Op.Noop);
  (* a crash elects a live leader and bumps the epoch *)
  let o = Shard.apply shard (Op.Crash_destination { shard = 0 }) in
  (match o.Shard.response with
  | Op.New_destination { leader; _ } ->
      check_bool "leader is live" true
        (not (Node.Set.mem leader (Shard.dead shard)));
      check_bool "old destination is dead" true
        (Node.Set.mem dest (Shard.dead shard));
      check_int "epoch bumped" 1 (Shard.epoch shard);
      check_bool "consistent after failover" true (Shard.consistent shard)
  | Op.Noop -> Alcotest.fail "crash with live candidates answered Noop"
  | _ -> Alcotest.fail "crash answered with an unexpected response");
  check_bool "Stats never reaches a shard" true
    (try ignore (Shard.apply shard Op.Stats); false
     with Invalid_argument _ -> true)

let test_trace_dir_records_auditable_traces () =
  let s = spec ~shards:3 ~nodes:8 ~ops:50 () in
  let dir = Filename.temp_file "lrsvc" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      with_service ~trace_dir:dir s (fun svc ->
          ignore (S.run svc (W.generate s)));
      for i = 0 to s.W.shards - 1 do
        let path = Filename.concat dir (Printf.sprintf "shard-%03d.lrt" i) in
        check_bool (Printf.sprintf "trace for shard %d exists" i) true
          (Sys.file_exists path);
        match Lr_trace.Audit.run path with
        | Error e -> Alcotest.failf "audit of %s failed: %s" path e
        | Ok report ->
            check_bool
              (Printf.sprintf "shard %d trace audits clean" i)
              true
              (Lr_trace.Audit.clean report)
      done)

let test_create_rejects_bad_config () =
  let s = spec ~shards:2 () in
  let configs = W.shard_configs s in
  List.iter
    (fun cfg ->
      check_bool "bad config rejected" true
        (try ignore (S.create cfg configs); false
         with Invalid_argument _ -> true))
    [
      { S.default_config with S.jobs = 0 };
      { S.default_config with S.queue_bound = 0 };
      { S.default_config with S.window = 0 };
      { S.default_config with S.packet_queue = 0 };
    ];
  check_bool "empty shard array rejected" true
    (try ignore (S.create S.default_config [||]); false
     with Invalid_argument _ -> true)

(* The two maintenance tiers must be indistinguishable through the
   service: same responses, counters and fingerprint on a churny
   workload (the fast engine replicates the reference's sink-selection
   order exactly). *)
let test_engines_agree () =
  let s = spec ~mix:churny ~ops:1_200 ~stats_every:301 () in
  let ops = W.generate s in
  let run engine =
    let cfg = { S.default_config with S.engine } in
    let svc = S.create cfg (W.shard_configs s) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        let m = S.metrics svc in
        (responses, S.fingerprint responses m,
         m.Metrics.snapshot_totals.Metrics.validation_failures))
  in
  let rf, fpf, vf_fast = run Shard.Fast in
  let rr, fpr, vf_ref = run Shard.Reference in
  check_bool "responses identical across engines" true (rf = rr);
  check_bool "fingerprints identical across engines" true (fpf = fpr);
  check_int "no validation failures (fast)" 0 vf_fast;
  check_int "no validation failures (reference)" 0 vf_ref

(* Packet ops through the full service: the forwarding planes are
   seeded from each shard's current orientation (never engine
   heights), so the whole packet surface — responses, packet counters,
   the fingerprint — must stay byte-identical across engines, job
   counts and windows. *)
let packet_spec ?(ops = 900) () =
  spec ~mix:{ W.route = 40; churn = 8; crash = 2 } ~pmix:W.default_pmix
    ~burst:5 ~ops ~stats_every:113 ()

let test_packet_ops_deterministic () =
  let s = packet_spec () in
  let r1, m1 = run_spec ~jobs:1 ~queue_bound:1024 s in
  let t = m1.Metrics.snapshot_totals in
  check_bool "packets injected" true (t.Metrics.packets_in > 0);
  check_bool "packets delivered" true (t.Metrics.packets_out > 0);
  check_bool "queue peak observed" true (t.Metrics.packet_queue_peak > 0);
  check_bool "delivered cannot exceed injected" true
    (t.Metrics.packets_out <= t.Metrics.packets_in);
  List.iter
    (fun jobs ->
      let rj, mj = run_spec ~jobs ~queue_bound:1024 s in
      check_bool (Printf.sprintf "packet responses jobs=%d" jobs) true
        (r1 = rj);
      check_bool (Printf.sprintf "packet fingerprint jobs=%d" jobs) true
        (S.fingerprint r1 m1 = S.fingerprint rj mj))
    [ 2; 4 ];
  let rw, mw = run_spec ~queue_bound:1024 ~window:64 s in
  check_bool "packet responses window 64 = window 256" true (r1 = rw);
  check_bool "packet fingerprint window 64 = window 256" true
    (S.fingerprint r1 m1 = S.fingerprint rw mw)

(* Churn, corrupt heals and crashes on every shard before its first
   packet op, so planes are seeded from engines whose adjacency rows
   swap-deletes left unsorted, that adopted corrupted heights, or that
   were rerooted around an isolated dead node. *)
let faults_before_packets (s : W.spec) =
  let rand = rng 21 in
  List.concat_map
    (fun shard ->
      let n = s.W.nodes in
      let pair () =
        let u = Random.State.int rand n and v = Random.State.int rand n in
        (u, v)
      in
      let toggles =
        List.init 6 (fun k ->
            let u, v = pair () in
            if k mod 3 = 2 then Op.Link_up { shard; u; v } else Op.Link_down { shard; u; v })
      in
      toggles
      @ [ Op.Corrupt { shard; seed = shard; magnitude = 40 } ]
      @ (if shard mod 2 = 0 then [ Op.Crash_destination { shard } ] else [])
      @ List.init 3 (fun _ ->
            let u, v = pair () in
            Op.Link_down { shard; u; v }))
    (List.init s.W.shards Fun.id)
  |> Array.of_list

let test_packet_ops_across_engines () =
  let s = packet_spec ~ops:700 () in
  let prefix = faults_before_packets s in
  let ops = Array.append prefix (W.generate s) in
  let run engine =
    let cfg = { S.default_config with S.engine } in
    let svc = S.create cfg (W.shard_configs s) in
    Fun.protect
      ~finally:(fun () -> S.shutdown svc)
      (fun () ->
        let responses = S.run svc ops in
        let m = S.metrics svc in
        (responses, S.fingerprint responses m))
  in
  let rf, fpf = run Shard.Fast in
  let rr, fpr = run Shard.Reference in
  let k = Array.length prefix in
  let count p rs = Array.fold_left (fun c r -> if p r then c + 1 else c) 0 rs in
  let before = Array.sub rf 0 k and after = Array.sub rf k (Array.length rf - k) in
  check_bool "the prefix crashed destinations" true
    (count (function Op.New_destination _ -> true | _ -> false) before > 0);
  check_bool "the prefix healed corruptions" true
    (count (function Op.Healed _ -> true | _ -> false) before > 0);
  check_bool "the prefix cut and added links" true
    (count (function Op.Repaired _ | Op.Cut _ -> true | _ -> false) before > 0
     && count (function Op.Linked _ -> true | _ -> false) before > 0);
  check_bool "packets delivered after the prefix" true
    (count (function Op.Forwarded { delivered; _ } -> delivered > 0 | _ -> false) after
     > 0);
  check_bool "packet responses identical across engines" true (rf = rr);
  check_bool "packet fingerprints identical across engines" true (fpf = fpr)

let test_packet_shard_behaviour () =
  let s = spec ~shards:1 ~nodes:8 () in
  let shard =
    Shard.create ~rule:Lr_routing.Maintenance.Partial_reversal
      ~packet_queue:4 ~id:0 (W.shard_config s 0)
  in
  (* inject, then forward until the plane drains *)
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 0; count = 3 }) in
  (match o.Shard.response with
  | Op.Injected { accepted; dropped } ->
      check_int "all accepted" 3 accepted;
      check_int "none dropped" 0 dropped
  | _ -> Alcotest.fail "inject answered with a non-inject response");
  let rec drain budget delivered =
    if budget = 0 then delivered
    else
      let o = Shard.apply shard (Op.Forward { shard = 0; slots = 8 }) in
      match o.Shard.response with
      | Op.Forwarded { delivered = d; queued; _ } ->
          if queued = 0 then delivered + d else drain (budget - 1) (delivered + d)
      | _ -> Alcotest.fail "forward answered with a non-forward response"
  in
  check_int "all packets delivered" 3 (drain 64 0);
  (* a queue bound of 4 drops the overflow of a 10-packet burst *)
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 0; count = 10 }) in
  (match o.Shard.response with
  | Op.Injected { accepted; dropped } ->
      check_int "bound respected" 4 accepted;
      check_int "overflow dropped" 6 dropped
  | _ -> Alcotest.fail "inject answered with a non-inject response");
  (* invalid packet ops are Noops, not errors *)
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 999; count = 1 }) in
  check_bool "unknown source is a noop" true (o.Shard.response = Op.Noop);
  let o = Shard.apply shard (Op.Forward { shard = 0; slots = 0 }) in
  check_bool "zero slots is a noop" true (o.Shard.response = Op.Noop);
  (* a crash discards the plane: the next packet op rebuilds it against
     the new destination and still works *)
  ignore (Shard.apply shard (Op.Crash_destination { shard = 0 }));
  let o = Shard.apply shard (Op.Inject { shard = 0; src = 0; count = 1 }) in
  (match o.Shard.response with
  | Op.Injected _ | Op.Noop -> ()
  | _ -> Alcotest.fail "post-crash inject answered unexpectedly");
  check_bool "consistent with a plane attached" true (Shard.consistent shard)

(* Pin the failover tie-break: with two equal-cardinality components,
   the greater leader id (Node.compare) wins — on both engines.  The
   graph is a path 0-1-[2]-3-4 with destination 2; crashing it leaves
   {0,1} (leader 1) and {3,4} (leader 4). *)
let test_crash_tiebreak_pinned () =
  let config =
    Linkrev.Config.make_exn
      (Lr_graph.Digraph.of_directed_edges [ (0, 1); (1, 2); (4, 3); (3, 2) ])
      ~destination:2
  in
  List.iter
    (fun engine ->
      let shard =
        Shard.create ~engine ~rule:Lr_routing.Maintenance.Partial_reversal
          ~id:0 config
      in
      let o = Shard.apply shard (Op.Crash_destination { shard = 0 }) in
      match o.Shard.response with
      | Op.New_destination { leader; _ } ->
          check_int "tie broken toward the greater leader id" 4 leader;
          check_int "new destination adopted" 4 (Shard.destination shard)
      | r ->
          Alcotest.failf "expected New_destination, got %s"
            (Op.response_to_string r))
    [ Shard.Fast; Shard.Reference ]

let () =
  Alcotest.run "service"
    [
      suite "service"
        [
          case "deterministic across job counts" test_deterministic_across_jobs;
          case "validation clean, shards consistent"
            test_validation_clean_and_consistent;
          case "every op accounted for" test_every_op_accounted;
          case "backpressure sheds load deterministically"
            test_backpressure_rejects_deterministically;
          case "free-running overload accounting holds"
            test_free_running_overload_accounting;
          case "default config sheds overload at jobs=1"
            test_default_config_sheds_at_one_job;
          case "ring metrics arithmetic sane" test_ring_metrics_sane;
          case "stats barrier counts all prior ops" test_stats_barrier_counts;
          case "destination crashes fail over" test_crashes_fail_over;
          case "shard unit behaviour" test_shard_unit_behaviour;
          case "trace dir records auditable traces"
            test_trace_dir_records_auditable_traces;
          case "bad configs rejected" test_create_rejects_bad_config;
          case "fast and reference engines agree" test_engines_agree;
          case "packet ops deterministic everywhere"
            test_packet_ops_deterministic;
          case "packet ops agree across engines"
            test_packet_ops_across_engines;
          case "packet shard behaviour" test_packet_shard_behaviour;
          case "failover tie-break pinned" test_crash_tiebreak_pinned;
        ];
    ]

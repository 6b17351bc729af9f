open Helpers
module Fifo = Lr_packet.Fifo
module Plane = Lr_packet.Plane
module Geo = Lr_packet.Geo
module Scenario = Lr_packet.Scenario
module FG = Lr_fast.Fast_graph
module FM = Lr_routing.Fast_maintenance
module M = Lr_routing.Maintenance
module Q = QCheck

let good_chain n = Linkrev.Config.of_instance (Lr_graph.Generators.good_chain n)

(* {1 Fifo} *)

let test_fifo_basic () =
  let q = Fifo.create ~capacity:3 in
  check_bool "empty" true (Fifo.is_empty q);
  check_bool "push a" true (Fifo.push q 10);
  check_bool "push b" true (Fifo.push q 11);
  check_bool "push c" true (Fifo.push q 12);
  check_bool "full" true (Fifo.is_full q);
  check_bool "push refused" false (Fifo.push q 13);
  check_int "peek" 10 (Fifo.peek q);
  check_int "pop a" 10 (Fifo.pop q);
  check_bool "push wraps" true (Fifo.push q 13);
  check_int "pop b" 11 (Fifo.pop q);
  check_int "pop c" 12 (Fifo.pop q);
  check_int "pop d" 13 (Fifo.pop q);
  check_int "pop empty" (-1) (Fifo.pop q);
  check_int "peek empty" (-1) (Fifo.peek q)

let test_fifo_wraparound_order () =
  let q = Fifo.create ~capacity:4 in
  for round = 0 to 9 do
    check_bool "push x" true (Fifo.push q (2 * round));
    check_bool "push y" true (Fifo.push q ((2 * round) + 1));
    check_int "pop x" (2 * round) (Fifo.pop q);
    check_int "pop y" ((2 * round) + 1) (Fifo.pop q)
  done;
  check_bool "drained" true (Fifo.is_empty q)

(* {1 Plane} *)

(* On the good chain (everything already points at 0), packets flow to
   the destination one hop per slot with no reversals. *)
let test_plane_chain_delivery () =
  let p = Plane.create ~qcap:8 (good_chain 6) in
  let accepted, dropped = Plane.inject p ~src:5 ~count:3 in
  check_int "accepted" 3 accepted;
  check_int "dropped" 0 dropped;
  let total_delivered = ref 0 and total_reversals = ref 0 in
  for _ = 1 to 40 do
    let o = Plane.slot p in
    total_delivered := !total_delivered + o.Plane.delivered;
    total_reversals := !total_reversals + o.Plane.reversals
  done;
  check_int "all delivered" 3 !total_delivered;
  check_int "no reversals on a destination-oriented chain" 0 !total_reversals;
  check_int "nothing queued" 0 (Plane.queued p);
  check_bool "consistent" true (Plane.consistent p);
  let c = Plane.counters p in
  (* 3 packets, 5 hops each, shortest distance 5: stretch exactly 1. *)
  check_int "hops" 15 c.Plane.hops_sum;
  check_int "dist" 15 c.Plane.dist_sum

(* On the bad chain (everything points away from 0), forwarding alone
   is stuck: queue-driven reversals must re-point the DAG. *)
let test_plane_bad_chain_reverses_and_delivers () =
  let p = Plane.create ~qcap:8 (bad_chain 6) in
  let accepted, _ = Plane.inject p ~src:3 ~count:2 in
  check_int "accepted" 2 accepted;
  let total = ref 0 and revs = ref 0 in
  for _ = 1 to 200 do
    let o = Plane.slot p in
    total := !total + o.Plane.delivered;
    revs := !revs + o.Plane.reversals
  done;
  check_int "all delivered" 2 !total;
  check_bool "reversals happened" true (!revs > 0);
  check_bool "consistent" true (Plane.consistent p)

let test_plane_drops_when_full () =
  let p = Plane.create ~qcap:4 (good_chain 4) in
  let accepted, dropped = Plane.inject p ~src:3 ~count:7 in
  check_int "accepted" 4 accepted;
  check_int "dropped" 3 dropped;
  let c = Plane.counters p in
  check_int "counter dropped" 3 c.Plane.dropped;
  check_int "high water" 4 (Plane.high_water p);
  check_bool "consistent" true (Plane.consistent p)

let test_plane_inject_at_destination_is_zero_hop () =
  let p = Plane.create (good_chain 4) in
  let accepted, dropped = Plane.inject p ~src:0 ~count:5 in
  check_int "accepted" 5 accepted;
  check_int "dropped" 0 dropped;
  let c = Plane.counters p in
  check_int "delivered immediately" 5 c.Plane.delivered;
  check_int "nothing queued" 0 (Plane.queued p)

(* Queue differentials spread load: with everything injected at one
   node of a random DAG, delivery completes and the orientation stays
   a DAG (derived from a total order, checked via edge_out asymmetry). *)
let test_plane_random_backpressure () =
  let config = random_config ~seed:5 24 in
  let p = Plane.create ~qcap:6 config in
  let n = Plane.num_nodes p in
  let dest = Plane.destination p in
  let src = if dest = 0 then 1 else 0 in
  let accepted = ref 0 in
  for s = 0 to 199 do
    if s < 50 then begin
      let a, _ = Plane.inject p ~src ~count:2 in
      accepted := !accepted + a
    end;
    ignore (Plane.slot p : Plane.slot_outcome);
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Plane.mem_edge p u v then
          check_bool "antisymmetric orientation" true
            (Plane.edge_out p u v <> Plane.edge_out p v u)
      done
    done
  done;
  let c = Plane.counters p in
  check_int "all accepted packets delivered" !accepted c.Plane.delivered;
  check_bool "consistent" true (Plane.consistent p)

(* Churn: cutting the chain strands packets behind the cut; reversals
   churn in place but cannot deliver; restoring the link lets the
   backlog drain completely. *)
let test_plane_churn_strands_then_recovers () =
  let p = Plane.create ~qcap:8 (good_chain 5) in
  ignore (Plane.inject p ~src:4 ~count:3 : int * int);
  Plane.remove_link p 1 2;
  check_bool "edge gone" false (Plane.mem_edge p 1 2);
  for _ = 1 to 60 do
    ignore (Plane.slot p : Plane.slot_outcome)
  done;
  let mid = Plane.counters p in
  check_int "stranded" 0 mid.Plane.delivered;
  check_bool "reversing at the cut" true (mid.Plane.reversals > 0);
  Plane.add_link p 1 2;
  for _ = 1 to 200 do
    ignore (Plane.slot p : Plane.slot_outcome)
  done;
  let fin = Plane.counters p in
  check_int "backlog drained after repair" 3 fin.Plane.delivered;
  check_bool "consistent" true (Plane.consistent p)

(* Height seeding from the stabilized fast engine must agree with the
   engine's own orientation edge for edge. *)
let test_plane_engine_height_seeding () =
  let config = random_config ~seed:9 20 in
  let fm = Lr_routing.Fast_maintenance.create Lr_routing.Maintenance.Partial_reversal config in
  let n = Lr_routing.Fast_maintenance.num_nodes fm in
  let ha = Array.make n 0 and hb = Array.make n 0 in
  for u = 0 to n - 1 do
    let a, b = Lr_routing.Fast_maintenance.height fm u in
    ha.(u) <- a;
    hb.(u) <- b
  done;
  let p = Plane.create ~heights:(ha, hb) config in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Plane.mem_edge p u v then
        check_bool "orientation matches the engine" true
          (Plane.edge_out p u v = Lr_routing.Fast_maintenance.edge_out fm u v)
    done
  done

(* {1 Seeding from an engine's flat state} *)

(* The plane a fast-tier shard builds: a sorted flat copy of the
   engine's adjacency, oriented by the engine, never by its heights. *)
let seed_from_engine ~qcap ~cap f =
  match
    Plane.seed ~qcap ~cap ~destination:(FM.destination f) ~edge_out:(FM.edge_out f)
      (FM.sorted_adjacency f)
  with
  | Ok p -> p
  | Error Plane.Cyclic -> Q.Test.fail_report "flat seed reported a cycle"

(* The persistent route: materialize the graph, build a [Config]. *)
let seed_from_config ~qcap ~cap f =
  Plane.create ~qcap ~cap
    (Linkrev.Config.make_exn (FM.graph f) ~destination:(FM.destination f))

let same_plane what a b =
  let n = Plane.num_nodes a in
  if not (Plane.consistent a && Plane.consistent b) then
    Q.Test.fail_reportf "%s: inconsistent plane" what;
  if Plane.counters a <> Plane.counters b then
    Q.Test.fail_reportf "%s: counters differ" what;
  for u = 0 to n - 1 do
    if Plane.queue_length a u <> Plane.queue_length b u then
      Q.Test.fail_reportf "%s: queue %d differs" what u
  done

(* Inject/slot/link_down/link_up in lockstep on two planes; every answer
   and, after every op, the accounting and every queue must agree. *)
let plane_tape what rand a b =
  let n = Plane.num_nodes a in
  for k = 1 to 6 * n do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    let what = Printf.sprintf "%s, op %d" what k in
    (match Random.State.int rand 6 with
    | 0 | 1 ->
        let count = 1 + Random.State.int rand 6 in
        if Plane.inject a ~src:u ~count <> Plane.inject b ~src:u ~count then
          Q.Test.fail_reportf "%s: inject differs" what
    | 2 when u <> v ->
        if Plane.mem_edge a u v then begin
          Plane.remove_link a u v;
          Plane.remove_link b u v
        end
        else begin
          Plane.add_link a u v;
          Plane.add_link b u v
        end
    | _ -> if Plane.slot a <> Plane.slot b then Q.Test.fail_reportf "%s: slot differs" what);
    same_plane what a b
  done

let check_seeding what rand f =
  let qcap = 1 + Random.State.int rand 8 and cap = 1 + Random.State.int rand 2 in
  let a = seed_from_engine ~qcap ~cap f and b = seed_from_config ~qcap ~cap f in
  for u = 0 to FM.num_nodes f - 1 do
    if Plane.height a u <> Plane.height b u then
      Q.Test.fail_reportf "%s: height of %d differs" what u
  done;
  same_plane what a b;
  plane_tape what rand a b

(* Link churn on the engine: swap-deletes leave its rows unsorted. *)
let churn_engine rand f =
  let n = FM.num_nodes f in
  for _ = 1 to 2 * n do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    if u <> v then
      if FM.mem_edge f u v then ignore (FM.fail_link f u v : M.change_result)
      else FM.add_link f u v
  done

let flat_seed_matches_config (n, extra, seed) =
  let config =
    Linkrev.Config.of_instance
      (Lr_graph.Generators.random_connected_dag
         (Random.State.make [| 0x5eed; seed |])
         ~n ~extra_edges:extra)
  in
  let rand = rng (seed + 3) in
  let f = FM.create M.Partial_reversal config in
  check_seeding "fresh engine" rand f;
  churn_engine rand f;
  check_seeding "after churn" rand f;
  let pa = Array.init n (fun _ -> Random.State.int rand 9 - 4)
  and pb = Array.init n (fun _ -> Random.State.int rand 9 - 4) in
  ignore (FM.adopt_heights f (fun u -> (pa.(u), pb.(u))) : M.change_result);
  check_seeding "after adopt_heights" rand f;
  (match FM.reroot f ~live:(fun _ -> true) with
  | Ok (r, _) ->
      check_seeding "after reroot" rand r;
      churn_engine rand r;
      check_seeding "after reroot and churn" rand r
  | Error FM.No_live_leader -> ()
  | Error FM.Cyclic -> Q.Test.fail_report "reroot reported a cycle");
  true

let flat_seed_prop =
  Q.Test.make ~count:150 ~name:"flat seed = Config seed, lockstep tape"
    (Q.make
       ~print:(fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
       Q.Gen.(
         let* n = int_range 2 24 in
         let* extra = int_range 0 n in
         let* seed = int_range 0 1_000_000 in
         return (n, extra, seed)))
    flat_seed_matches_config

(* A cyclic orientation is a counted outcome, not an exception. *)
let test_plane_seed_cyclic () =
  let triangle =
    FG.of_instance
      {
        Lr_graph.Generators.graph =
          Lr_graph.Digraph.of_directed_edges [ (0, 1); (1, 2); (0, 2) ];
        destination = 0;
      }
  in
  let cyclic u w = w = (u + 1) mod 3 in
  (match Plane.seed ~destination:0 ~edge_out:cyclic (FG.Dyn.of_graph triangle) with
  | Error Plane.Cyclic -> ()
  | Ok _ -> Alcotest.fail "a cyclic orientation seeded a plane");
  let acyclic u w = u > w in
  match Plane.seed ~destination:0 ~edge_out:acyclic (FG.Dyn.of_graph triangle) with
  | Error Plane.Cyclic -> Alcotest.fail "an acyclic orientation was refused"
  | Ok p ->
      for u = 0 to 2 do
        for w = 0 to 2 do
          if u <> w then check_bool "orientation reproduced" (acyclic u w) (Plane.edge_out p u w)
        done
      done

(* FNV-1a over every inject and slot answer and, after every op, every
   queue length: a digest of a plane's whole observable history.  The
   pinned values were produced by the full-sweep, per-node-Fifo plane
   that the occupied-list sweep and the ring array replaced, so they
   hold the slot logic to exactly its old decisions. *)
let tape_digest ~seed ~n ~qcap ~cap =
  let config =
    Linkrev.Config.of_instance
      (Lr_graph.Generators.random_connected_dag
         (Random.State.make [| 0xd16; seed |])
         ~n ~extra_edges:n)
  in
  let p = Plane.create ~qcap ~cap config in
  let rand = Random.State.make [| seed |] in
  let h = ref 0x4bf29ce484222325 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  for _ = 1 to 40 * n do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    (match Random.State.int rand 8 with
    | 0 | 1 | 2 ->
        let a, d = Plane.inject p ~src:u ~count:(1 + Random.State.int rand 4) in
        mix a;
        mix d
    | 3 when u <> v ->
        if Plane.mem_edge p u v then Plane.remove_link p u v else Plane.add_link p u v
    | _ ->
        let o = Plane.slot p in
        mix o.Plane.delivered;
        mix o.Plane.reversals);
    for w = 0 to n - 1 do
      mix (Plane.queue_length p w)
    done;
    if not (Plane.consistent p) then Alcotest.fail "inconsistent plane"
  done;
  let c = Plane.counters p in
  List.iter mix [ c.Plane.hops_sum; c.Plane.dist_sum; Plane.high_water p ];
  !h land 0xffffffff

let test_plane_history_pinned () =
  List.iter
    (fun (seed, n, qcap, cap, expected) ->
      check_int
        (Printf.sprintf "history digest seed=%d n=%d qcap=%d cap=%d" seed n qcap cap)
        expected
        (tape_digest ~seed ~n ~qcap ~cap))
    [
      (1, 24, 4, 1, 0x3217cf99);
      (2, 40, 8, 2, 0x153684b4);
      (3, 64, 16, 1, 0xf446ac7b);
      (4, 16, 2, 3, 0x6560a514);
    ]

(* {1 Cost} *)

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* After warm-up, a busy slot allocates its returned record (three
   words) and nothing else: no per-node scratch, no boxed refs. *)
let test_plane_slot_allocation () =
  let config = random_config ~extra_edges:24 ~seed:11 48 in
  let p = Plane.create ~qcap:16 config in
  let n = Plane.num_nodes p in
  let rand = rng 4 in
  let feed () =
    for _ = 1 to 8 do
      ignore (Plane.inject p ~src:(Random.State.int rand n) ~count:4 : int * int)
    done
  in
  for _ = 1 to 200 do
    feed ();
    ignore (Plane.slot p : Plane.slot_outcome)
  done;
  feed ();
  check_bool "busy" true (Plane.queued p > 100);
  let slots = 50 in
  let delivered, w =
    words (fun () ->
        let d = ref 0 in
        for _ = 1 to slots do
          d := !d + (Plane.slot p).Plane.delivered
        done;
        !d)
  in
  check_bool "packets moved" true (delivered > 0);
  check_bool
    (Printf.sprintf "slot allocates only its outcome (%.0f words / %d slots)" w slots)
    true
    (w <= float_of_int ((3 * slots) + 16));
  check_bool "consistent" true (Plane.consistent p)

(* Seeding a fast-tier plane at service scale (n = 256) stays within a
   small, fixed allocation budget. *)
let test_plane_seed_allocation () =
  let config = random_config ~extra_edges:64 ~seed:2 256 in
  let f = FM.create M.Partial_reversal config in
  churn_engine (rng 8) f;
  let p, w = words (fun () -> seed_from_engine ~qcap:64 ~cap:1 f) in
  check_bool "consistent" true (Plane.consistent p);
  check_bool (Printf.sprintf "seeding allocates %.0f <= 40k minor words" w) true (w <= 40_000.)

(* {1 Geo} *)

let test_geo_generate_connected () =
  let inst = Geo.generate (rng 3) ~n:60 ~radius:0.22 () in
  check_int "n" 60 inst.Geo.n;
  Array.iter (fun d -> check_bool "connected" true (d >= 0)) inst.Geo.hop_dist;
  check_int "dest at distance 0" 0 inst.Geo.hop_dist.(inst.Geo.dest)

let test_geo_void_recovery_beats_greedy () =
  let r = Scenario.run_void Scenario.default_void in
  check_bool "void creates local minima" true (r.Scenario.minima > 0);
  check_bool "greedy strands packets" true
    (r.Scenario.greedy.Geo.delivered < r.Scenario.greedy.Geo.injected);
  check_int "recovery delivers everything" r.Scenario.recovery.Geo.injected
    r.Scenario.recovery.Geo.delivered;
  check_bool "recovery raised levels" true (r.Scenario.recovery.Geo.max_level > 0);
  check_int "greedy never raises levels" 0 r.Scenario.greedy.Geo.max_level

let test_geo_no_void_greedy_ok () =
  (* Dense disk without a void: greedy alone should deliver. *)
  let inst = Geo.generate (rng 12) ~n:80 ~radius:0.3 () in
  let sources = [| (inst.Geo.dest + 1) mod inst.Geo.n |] in
  let r = Geo.run Geo.Greedy inst ~sources ~per_source:2 ~max_slots:500 ~qcap:4 in
  check_int "greedy delivers on a dense disk" r.Geo.injected r.Geo.delivered

(* {1 Scenario} *)

let test_scenario_low_rate_stable () =
  let spec = { Scenario.default_bp with nodes = 32; extra_edges = 32; slots = 128; rate = 2 } in
  let r = Scenario.run_backpressure spec in
  check_int "offered" (128 * 2) r.Scenario.offered;
  check_int "no drops" 0 r.Scenario.dropped;
  check_int "everything delivered" r.Scenario.injected r.Scenario.delivered;
  check_int "nothing remaining" 0 r.Scenario.remaining;
  check_bool "stable" false r.Scenario.diverged

let test_scenario_overload_diverges () =
  let spec =
    { Scenario.default_bp with nodes = 32; extra_edges = 32; slots = 128; rate = 64; qcap = 8 }
  in
  let r = Scenario.run_backpressure spec in
  check_bool "drops under overload" true (r.Scenario.dropped > 0);
  check_bool "diverged" true r.Scenario.diverged

let test_scenario_threshold () =
  let spec = { Scenario.default_bp with nodes = 32; extra_edges = 32; slots = 128; qcap = 8 } in
  let results = Scenario.sweep spec ~rates:[ 1; 2; 4; 48 ] in
  match Scenario.stability_threshold results with
  | None -> Alcotest.fail "expected a stability threshold"
  | Some r -> check_bool "threshold below the overload rate" true (r >= 1 && r < 48)

let test_scenario_churn_delivers () =
  let spec =
    { Scenario.default_bp with nodes = 32; extra_edges = 48; slots = 256; rate = 2; churn_every = 16 }
  in
  let r = Scenario.run_backpressure spec in
  check_int "churn: everything accepted is delivered" r.Scenario.injected r.Scenario.delivered;
  check_bool "churn forced reversals" true (r.Scenario.reversals >= 0)

let () =
  Alcotest.run "packet"
    [
      suite "fifo"
        [
          case "push/pop/bounds" test_fifo_basic;
          case "wraparound order" test_fifo_wraparound_order;
        ];
      suite "plane"
        [
          case "chain delivery, stretch 1" test_plane_chain_delivery;
          case "bad chain reverses then delivers" test_plane_bad_chain_reverses_and_delivers;
          case "full queue drops" test_plane_drops_when_full;
          case "zero-hop at destination" test_plane_inject_at_destination_is_zero_hop;
          case "random backpressure stays acyclic" test_plane_random_backpressure;
          case "churn strands then recovers" test_plane_churn_strands_then_recovers;
          case "engine height seeding" test_plane_engine_height_seeding;
          case "cyclic seed is an error" test_plane_seed_cyclic;
          case "slot history pinned" test_plane_history_pinned;
          QCheck_alcotest.to_alcotest flat_seed_prop;
        ];
      suite "cost"
        [
          case "busy slot allocates only its outcome" test_plane_slot_allocation;
          case "seeding at n=256 within 40k words" test_plane_seed_allocation;
        ];
      suite "geo"
        [
          case "connected generation" test_geo_generate_connected;
          case "void: recovery beats greedy" test_geo_void_recovery_beats_greedy;
          case "no void: greedy suffices" test_geo_no_void_greedy_ok;
        ];
      suite "scenario"
        [
          case "low rate is stable" test_scenario_low_rate_stable;
          case "overload diverges" test_scenario_overload_diverges;
          case "sweep finds a threshold" test_scenario_threshold;
          case "delivery under churn" test_scenario_churn_delivers;
        ];
    ]

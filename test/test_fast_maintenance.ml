(* Differential tests of the fast maintenance engine against the
   persistent reference: identical work, heights order, orientation,
   routes and partition reports under seeded churn — plus the next-hop
   cache contract (hits when quiescent, invalidation on churn, never a
   stale path; staleness is also recomputed inside [FM.consistent]) —
   and [FM.reroot] against a cold [FM.create] on the crash-stripped
   graph. *)

open Lr_graph
open Linkrev
open Helpers
module M = Lr_routing.Maintenance
module FM = Lr_routing.Fast_maintenance

type sys = { m : M.t; f : FM.t; n : int }

let make rule config =
  {
    m = M.create rule config;
    f = FM.create rule config;
    n = Digraph.num_nodes config.Config.initial;
  }

let route_testable = Alcotest.(option (list int))

(* Full-state agreement: work, orientation, absolute heights, height
   order, routes.  Every reversal strictly raises its node's height and
   nothing else changes one, so equal heights after every event also
   mean the two engines reversed the same nodes. *)
let agree what sys =
  check_int (what ^ ": total work") (M.total_work sys.m) (FM.total_work sys.f);
  Alcotest.check digraph_testable
    (what ^ ": oriented graph")
    (M.graph sys.m) (FM.graph sys.f);
  for u = 0 to sys.n - 1 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "%s: height of %d" what u)
      (M.height_pair sys.m u) (FM.height sys.f u);
    for v = 0 to sys.n - 1 do
      if u <> v then
        check_int
          (Printf.sprintf "%s: height order %d/%d" what u v)
          (compare (M.compare_heights sys.m u v) 0)
          (compare (FM.compare_heights sys.f u v) 0)
    done;
    Alcotest.check route_testable
      (Printf.sprintf "%s: route from %d" what u)
      (M.route sys.m u) (FM.route sys.f u)
  done;
  check_bool
    (what ^ ": destination oriented")
    (M.is_destination_oriented sys.m)
    (FM.is_destination_oriented sys.f);
  check_bool (what ^ ": fast internals consistent") true (FM.consistent sys.f)

let check_result what rm rf =
  match (rm, rf) with
  | M.Stabilized { node_steps = s1 }, M.Stabilized { node_steps = s2 } ->
      check_int (what ^ ": node steps") s1 s2
  | M.Partitioned a, M.Partitioned b -> check_node_set (what ^ ": lost") a b
  | M.Stabilized _, M.Partitioned _ ->
      Alcotest.failf "%s: reference stabilized, fast partitioned" what
  | M.Partitioned _, M.Stabilized _ ->
      Alcotest.failf "%s: reference partitioned, fast stabilized" what

(* Seeded churn in lockstep.  Every event is applied to both engines
   and the full state compared; node failures every 23rd event keep
   partitions and reconnections frequent. *)
let churn ~rule ~seed ~events ~extra_edges n =
  let config = random_config ~extra_edges ~seed n in
  let sys = make rule config in
  agree "create" sys;
  let rand = rng (seed + 77) in
  for k = 1 to events do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    if u <> v then begin
      let what = Printf.sprintf "event %d (%d,%d)" k u v in
      if k mod 23 = 0 then begin
        let victim = if u = M.destination sys.m then v else u in
        check_result what (M.fail_node sys.m victim) (FM.fail_node sys.f victim)
      end
      else if Digraph.mem_edge (M.graph sys.m) u v then
        check_result what (M.fail_link sys.m u v) (FM.fail_link sys.f u v)
      else begin
        M.add_link sys.m u v;
        FM.add_link sys.f u v
      end;
      agree what sys
    end
  done

let test_lockstep_churn_pr () =
  churn ~rule:M.Partial_reversal ~seed:11 ~events:160 ~extra_edges:12 14

let test_lockstep_churn_fr () =
  churn ~rule:M.Full_reversal ~seed:12 ~events:160 ~extra_edges:12 14

let test_lockstep_churn_sparse () =
  (* A near-tree graph partitions on almost every removal, exercising
     the incremental component membership and the absorb-side sink
     scan on every reconnection. *)
  churn ~rule:M.Partial_reversal ~seed:13 ~events:200 ~extra_edges:1 12

(* A partitioned side accumulates sinks the reference only repairs
   after reconnection (its component scan sees them then); the fast
   engine must find them via the absorb-side scan, not the worklist. *)
let test_reconnection_finds_stale_sinks () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges [ (0, 1); (1, 2); (2, 3) ])
      ~destination:0
  in
  List.iter
    (fun rule ->
      let sys = make rule config in
      check_result "cut 1-2" (M.fail_link sys.m 1 2) (FM.fail_link sys.f 1 2);
      agree "after cut" sys;
      (* Churn inside the lost side: drop 2-3, then restore it.  The
         side is not stabilized, so this leaves sinks pending there. *)
      check_result "cut 2-3" (M.fail_link sys.m 2 3) (FM.fail_link sys.f 2 3);
      M.add_link sys.m 2 3;
      FM.add_link sys.f 2 3;
      agree "lost side churned" sys;
      (* Reconnect: both engines must now repair the absorbed side. *)
      M.add_link sys.m 1 2;
      FM.add_link sys.f 1 2;
      agree "after reconnection" sys;
      check_bool "oriented after reconnection" true
        (FM.is_destination_oriented sys.f))
    [ M.Partial_reversal; M.Full_reversal ]

let test_errors_match_reference () =
  let config = random_config ~seed:5 10 in
  let sys = make M.Partial_reversal config in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let some_edge =
    match Digraph.directed_edges (M.graph sys.m) with
    | (u, v) :: _ -> (u, v)
    | [] -> Alcotest.fail "graph has no edges"
  in
  let u, v = some_edge in
  check_bool "duplicate add rejected" true
    (raises (fun () -> FM.add_link sys.f u v));
  check_bool "self-loop add rejected" true
    (raises (fun () -> FM.add_link sys.f 3 3));
  check_bool "out-of-range add rejected" true
    (raises (fun () -> FM.add_link sys.f 0 99));
  check_bool "absent fail_link rejected" true
    (raises (fun () ->
         ignore (FM.fail_link sys.f 99 0)));
  check_bool "destination fail_node rejected" true
    (raises (fun () -> ignore (FM.fail_node sys.f (FM.destination sys.f))));
  agree "after rejected calls" sys

(* {1 Component index} *)

(* Pinned partition→heal cycles against the reference oracle — the
   lazy-split soft spot: a cut only dirties the detached class, churn
   inside the lost side piles up pending sinks in its bag, and the
   heal must re-identify exactly the reattached side and requeue its
   sinks.  Every phase asserts full byte-identity ([agree] compares
   work, graph, heights, routes) plus [FM.consistent], under both
   rules. *)
let test_partition_heal_pinned () =
  (* Two branches off the destination with a cross link:
     0 -> 1 -> 2 -> 3 and 0 -> 4 -> 5 -> 6, plus 3 -> 6. *)
  let config =
    Config.make_exn
      (Digraph.of_directed_edges
         [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 5); (5, 6); (3, 6) ])
      ~destination:0
  in
  List.iter
    (fun rule ->
      let sys = make rule config in
      check_bool "engine under test is the union-find index" true
        (FM.index sys.f = FM.Uf);
      agree "create" sys;
      (* Phase 1: sever the whole right branch (both entry points). *)
      check_result "cut 0-4" (M.fail_link sys.m 0 4) (FM.fail_link sys.f 0 4);
      agree "right branch dangling" sys;
      check_result "cut 3-6" (M.fail_link sys.m 3 6) (FM.fail_link sys.f 3 6);
      agree "right branch lost" sys;
      check_bool "4 detached" false (FM.in_dest_component sys.f 4);
      check_bool "1 still in" true (FM.in_dest_component sys.f 1);
      check_int "component shrank to the left branch" 4
        (FM.component_size sys.f);
      (* Phase 2: churn inside the lost side — splits and re-adds that
         only the lazy index sees as dirt, leaving pending sinks in
         the class bag. *)
      check_result "cut 5-6" (M.fail_link sys.m 5 6) (FM.fail_link sys.f 5 6);
      agree "5-6 cut" sys;
      M.add_link sys.m 5 6;
      FM.add_link sys.f 5 6;
      agree "5-6 restored" sys;
      check_result "cut 4-5" (M.fail_link sys.m 4 5) (FM.fail_link sys.f 4 5);
      agree "lost side churned" sys;
      (* Phase 3: heal deepest-first, so each absorb drags a dirty
         class back through re-identification. *)
      M.add_link sys.m 3 6;
      FM.add_link sys.f 3 6;
      agree "6 healed" sys;
      check_bool "6 rejoined" true (FM.in_dest_component sys.f 6);
      M.add_link sys.m 4 5;
      FM.add_link sys.f 4 5;
      agree "4-5 healed" sys;
      check_int "everyone back" 7 (FM.component_size sys.f);
      (* Phase 4: a node failure and its aftermath on the healed graph. *)
      check_result "fail node 5" (M.fail_node sys.m 5) (FM.fail_node sys.f 5);
      agree "node failure" sys;
      M.add_link sys.m 5 6;
      FM.add_link sys.f 5 6;
      agree "failed node rewired" sys;
      check_bool "oriented at the end" true
        (FM.is_destination_oriented sys.f))
    [ M.Partial_reversal; M.Full_reversal ]

(* The union-find index against the eager rescan baseline it
   replaced, in lockstep under seeded churn: responses, counters,
   fingerprints and both engines' own invariants must match at every
   event. *)
let test_scan_uf_differential () =
  List.iter
    (fun (rule, seed) ->
      let config = random_config ~extra_edges:2 ~seed 16 in
      let scan = FM.create ~index:FM.Scan rule config in
      let uf = FM.create ~index:FM.Uf rule config in
      let rand = rng (seed + 101) in
      let both what f =
        let a = f scan and b = f uf in
        check_result what a b
      in
      let settled what =
        check_int (what ^ ": total work") (FM.total_work scan)
          (FM.total_work uf);
        check_int (what ^ ": component size") (FM.component_size scan)
          (FM.component_size uf);
        Alcotest.check digraph_testable (what ^ ": graph") (FM.graph scan)
          (FM.graph uf);
        for u = 0 to 15 do
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: height of %d" what u)
            (FM.height scan u) (FM.height uf u);
          Alcotest.check route_testable
            (Printf.sprintf "%s: route %d" what u)
            (FM.route scan u) (FM.route uf u);
          check_bool
            (Printf.sprintf "%s: membership %d" what u)
            (FM.in_dest_component scan u)
            (FM.in_dest_component uf u)
        done;
        check_bool (what ^ ": scan consistent") true (FM.consistent scan);
        check_bool (what ^ ": uf consistent") true (FM.consistent uf)
      in
      settled "create";
      for k = 1 to 240 do
        let u = Random.State.int rand 16 and v = Random.State.int rand 16 in
        if u <> v then begin
          let what = Printf.sprintf "event %d (%d,%d)" k u v in
          if k mod 23 = 0 then begin
            let victim = if u = FM.destination scan then v else u in
            both what (fun f -> FM.fail_node f victim)
          end
          else if FM.mem_edge scan u v then
            both what (fun f -> FM.fail_link f u v)
          else begin
            FM.add_link scan u v;
            FM.add_link uf u v
          end;
          settled what
        end
      done)
    [ (M.Partial_reversal, 31); (M.Full_reversal, 32); (M.Partial_reversal, 33) ]

(* Repeated partition→heal cycles leak ghost slots until the arena
   passes [8n + 64] and compacts; the rebuild must be invisible to
   semantics. *)
let test_compaction_rebuilds () =
  let config =
    Config.make_exn
      (Digraph.of_directed_edges
         [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ])
      ~destination:0
  in
  let sys = make M.Partial_reversal config in
  for _ = 1 to 48 do
    check_result "cycle cut" (M.fail_link sys.m 3 4) (FM.fail_link sys.f 3 4);
    M.add_link sys.m 3 4;
    FM.add_link sys.f 3 4
  done;
  let stats = FM.index_stats sys.f in
  check_bool "the arena compacted at least once" true (stats.FM.rebuilds >= 1);
  check_bool "slots back under the compaction bound" true
    (stats.FM.slots <= (8 * 8) + 64);
  agree "after compaction churn" sys

(* [in_dest_component] is the serving layer's O(α) No_route honesty
   check: on a stabilized engine it must answer exactly what the BFS
   [has_path] answers, through partitions and heals. *)
let test_membership_answers_reachability () =
  let config = random_config ~extra_edges:1 ~seed:44 12 in
  let f = FM.create M.Partial_reversal config in
  let rand = rng 440 in
  let sweep what =
    for u = 0 to 11 do
      check_bool
        (Printf.sprintf "%s: membership = reachability for %d" what u)
        (FM.has_path f u)
        (FM.in_dest_component f u)
    done
  in
  sweep "create";
  for k = 1 to 150 do
    let u = Random.State.int rand 12 and v = Random.State.int rand 12 in
    if u <> v then begin
      if FM.mem_edge f u v then ignore (FM.fail_link f u v)
      else FM.add_link f u v;
      sweep (Printf.sprintf "event %d" k)
    end
  done

(* {1 Next-hop cache} *)

let test_cache_hits_when_quiescent () =
  let config = random_config ~seed:21 16 in
  let f = FM.create M.Partial_reversal config in
  let query_all () =
    for u = 0 to FM.num_nodes f - 1 do
      ignore (FM.route f u)
    done
  in
  query_all ();
  let s1 = FM.cache_stats f in
  check_bool "first pass computes entries" true (s1.FM.misses > 0);
  query_all ();
  let s2 = FM.cache_stats f in
  check_int "quiescent queries add no misses" s1.FM.misses s2.FM.misses;
  check_bool "quiescent queries hit the cache" true (s2.FM.hits > s1.FM.hits);
  check_bool "no churn, no invalidations" true (s2.FM.invalidations = s1.FM.invalidations)

let test_cache_invalidated_by_churn () =
  let config = random_config ~seed:22 16 in
  let sys = make M.Partial_reversal config in
  for u = 0 to sys.n - 1 do
    ignore (FM.route sys.f u)
  done;
  let before = FM.cache_stats sys.f in
  (* Knock out an edge on some served route: heights and topology
     change, so entries must be dropped... *)
  let u, v =
    match Digraph.directed_edges (M.graph sys.m) with
    | e :: _ -> e
    | [] -> Alcotest.fail "no edges"
  in
  check_result "churn" (M.fail_link sys.m u v) (FM.fail_link sys.f u v);
  let after = FM.cache_stats sys.f in
  check_bool "churn invalidates" true
    (after.FM.invalidations > before.FM.invalidations);
  (* ... and the refilled cache must agree with the reference: no hop
     served from a stale entry. *)
  agree "after churn" sys;
  for u = 0 to sys.n - 1 do
    ignore (FM.route sys.f u)
  done;
  check_bool "cache sound after refill" true (FM.consistent sys.f)

(* {1 Rerooting after a destination crash} *)

module Q = QCheck

let strip g old =
  Node.Set.fold (fun v g -> Digraph.remove_edge g old v) (Digraph.neighbors g old) g

(* The election rule restated over the persistent skeleton. *)
let expected_leader f ~live =
  let old = FM.destination f in
  Undirected.connected_components (Digraph.skeleton (strip (FM.graph f) old))
  |> List.filter_map (fun c ->
         let l = Node.Set.max_elt c in
         if live l && not (Node.Set.equal c (Node.Set.singleton old)) then
           Some (Node.Set.cardinal c, l)
         else None)
  |> List.fold_left (fun best c -> if compare c best > 0 then c else best) (0, -1)
  |> snd

(* Everything observable about an engine, for whole-state equality. *)
let observe f =
  ( FM.destination f,
    List.init (FM.num_nodes f) (FM.height f),
    FM.total_work f,
    FM.cache_stats f,
    FM.index_stats f,
    FM.component_size f,
    Digraph.fingerprint (FM.graph f) )

let same_engine what a b =
  if not (FM.consistent a && FM.consistent b) then
    Q.Test.fail_reportf "%s: inconsistent engine" what;
  if observe a <> observe b then Q.Test.fail_reportf "%s: states differ" what

(* A fail/restore/route tape applied to two engines in lockstep: link
   toggles between live nodes, an occasional node failure, and a route
   query after every op; every answer must match. *)
let tape what rand ~live a b =
  let n = FM.num_nodes a in
  for k = 1 to 3 * n do
    let u = Random.State.int rand n and v = Random.State.int rand n in
    let what = Printf.sprintf "%s, op %d" what k in
    (if k mod 11 = 0 && u <> FM.destination a then
       check_result what (FM.fail_node a u) (FM.fail_node b u)
     else if u <> v && FM.mem_edge a u v then
       check_result what (FM.fail_link a u v) (FM.fail_link b u v)
     else if u <> v && live u && live v then begin
       FM.add_link a u v;
       FM.add_link b u v
     end);
    if FM.route a v <> FM.route b v then
      Q.Test.fail_reportf "%s: route from %d differs" what v;
    for x = 0 to n - 1 do
      if FM.height a x <> FM.height b x then
        Q.Test.fail_reportf "%s: height of %d differs" what x
    done
  done;
  same_engine (what ^ ", after the tape") a b

(* [reroot] against a cold [create] on the stripped graph, over repeated
   crashes: between crashes a tape churns both engines in lockstep, and
   a random extra node is marked dead now and then, so elections meet
   dead maxima and isolated nodes. *)
let reroot_matches_create (n, extra, seed) =
  let config =
    Config.of_instance
      (Generators.random_connected_dag
         (Random.State.make [| 0xab; seed |])
         ~n ~extra_edges:extra)
  in
  List.iter
    (fun (rule, index) ->
      let rand = rng (seed + 5) in
      let f = ref (FM.create ~index rule config) in
      let dead = ref Node.Set.empty in
      let crashes = ref 0 in
      while !crashes < 4 do
        incr crashes;
        let what = Printf.sprintf "crash %d" !crashes in
        if Random.State.int rand 3 = 0 then
          dead := Node.Set.add (Random.State.int rand n) !dead;
        let live u = not (Node.Set.mem u !dead) in
        let before = observe !f and old = FM.destination !f in
        let expected = expected_leader !f ~live in
        (match FM.reroot !f ~live with
        | Error FM.Cyclic -> Q.Test.fail_reportf "%s: cyclic" what
        | Error FM.No_live_leader ->
            if expected >= 0 then
              Q.Test.fail_reportf "%s: no leader, expected %d" what expected;
            crashes := max_int
        | Ok (r, leader) ->
            if leader <> expected then
              Q.Test.fail_reportf "%s: leader %d, expected %d" what leader expected;
            if observe !f <> before then
              Q.Test.fail_reportf "%s: reroot changed its argument" what;
            let fresh =
              FM.create ~index rule
                (Config.make_exn (strip (FM.graph !f) old) ~destination:leader)
            in
            same_engine what r fresh;
            dead := Node.Set.add old !dead;
            let live u = not (Node.Set.mem u !dead) in
            tape what rand ~live r fresh;
            f := r)
      done)
    [
      (M.Partial_reversal, FM.Uf);
      (M.Full_reversal, FM.Uf);
      (M.Partial_reversal, FM.Scan);
      (M.Full_reversal, FM.Scan);
    ];
  true

let reroot_prop =
  Q.Test.make ~count:100 ~name:"reroot = create on the stripped graph"
    (Q.make
       ~print:(fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
       Q.Gen.(
         let* n = int_range 2 20 in
         let* extra = int_range 0 n in
         let* seed = int_range 0 1_000_000 in
         return (n, extra, seed)))
    reroot_matches_create

(* {1 Partial-reversal raise} *)

(* The raise restated in two passes over a neighbour list: one above
   the least neighbour [ha]; one below the least [hb] among neighbours
   already at that [ha], if any. *)
let pr_spec ha hb nbrs u =
  let new_a = List.fold_left (fun m w -> min m ha.(w)) max_int nbrs + 1 in
  match List.filter (fun w -> ha.(w) = new_a) nbrs with
  | [] -> (new_a, hb.(u))
  | same -> (new_a, List.fold_left (fun m w -> min m hb.(w)) max_int same - 1)

(* [pr_raise] at the centre of a star, neighbour heights drawn from a
   window a few units wide (so ties and off-by-one minima are common)
   around bases that include both ends of the int range. *)
let pr_raise_matches_spec (d, base, seed) =
  let module G = Lr_fast.Fast_graph in
  let adj =
    G.Dyn.of_graph
      (G.of_config
         (Config.make_exn
            (Digraph.of_directed_edges (List.init d (fun i -> (0, i + 1))))
            ~destination:1))
  in
  let rand = rng seed in
  let pick b = b + Random.State.int rand 4 in
  let ha = Array.init (d + 1) (fun _ -> pick base) in
  let hb = Array.init (d + 1) (fun _ -> pick (-2)) in
  let expected = pr_spec ha hb (List.init d (fun i -> i + 1)) 0 in
  FM.pr_raise adj ha hb 0;
  (ha.(0), hb.(0)) = expected

let pr_raise_prop =
  Q.Test.make ~count:2000 ~name:"pr_raise = two-pass PR raise"
    (Q.make
       ~print:(fun (d, b, s) -> Printf.sprintf "d=%d base=%d seed=%d" d b s)
       Q.Gen.(
         let* d = int_range 1 8 in
         let* base = oneofl [ min_int; -3; 0; 5; max_int - 4; max_int - 3 ] in
         let* seed = int_range 0 1_000_000 in
         return (d, base, seed)))
    pr_raise_matches_spec

(* {1 Skipped split probe} *)

(* The destination's component of [g]'s skeleton without the link
   [{a, b}], by a plain BFS over the persistent graph — independent of
   the engine's union-find index and split probe. *)
let component_without g dest (a, b) =
  let cut x y = (x = a && y = b) || (x = b && y = a) in
  let rec bfs seen = function
    | [] -> seen
    | x :: rest ->
        let fresh =
          Node.Set.filter
            (fun y -> (not (cut x y)) && not (Node.Set.mem y seen))
            (Digraph.neighbors g x)
        in
        bfs (Node.Set.union seen fresh) (Node.Set.elements fresh @ rest)
  in
  bfs (Node.Set.singleton dest) [ dest ]

(* After a random churn prefix, every link removal inside the
   destination's component must answer [Partitioned] exactly when the
   link was a bridge of that component, and lose exactly the far side —
   including the removals where [fail_link] proves "no split" without
   probing. *)
let removal_reports_bridges (n, extra, seed) =
  let config =
    Config.of_instance
      (Generators.random_connected_dag
         (Random.State.make [| 0xb1; seed |])
         ~n ~extra_edges:extra)
  in
  List.iter
    (fun rule ->
      let f = FM.create ~index:FM.Uf rule config in
      let rand = rng (seed + 9) in
      let dest = FM.destination f in
      for k = 1 to 2 * n do
        let u = Random.State.int rand n and v = Random.State.int rand n in
        if k mod 13 = 0 && u <> dest then ignore (FM.fail_node f u)
        else if u <> v && FM.mem_edge f u v then ignore (FM.fail_link f u v)
        else if u <> v then FM.add_link f u v
      done;
      for k = 1 to 3 * n do
        let what =
          Printf.sprintf "%s removal %d"
            (match rule with M.Partial_reversal -> "PR" | M.Full_reversal -> "FR")
            k
        in
        let g = FM.graph f in
        (* No link is {-1, -1}: the whole component. *)
        let comp = component_without g dest (-1, -1) in
        let inside =
          List.filter
            (fun (a, _) -> Node.Set.mem a comp)
            (Digraph.directed_edges g)
        in
        if inside = [] || Random.State.int rand 4 = 0 then begin
          let u = Random.State.int rand n and v = Random.State.int rand n in
          if u <> v && not (FM.mem_edge f u v) then FM.add_link f u v
        end
        else begin
          let a, b = List.nth inside (Random.State.int rand (List.length inside)) in
          let far = Node.Set.diff comp (component_without g dest (a, b)) in
          (match FM.fail_link f a b with
          | M.Stabilized _ ->
              if not (Node.Set.is_empty far) then
                Q.Test.fail_reportf "%s: bridge {%d,%d} not reported" what a b
          | M.Partitioned lost ->
              if Node.Set.is_empty far then
                Q.Test.fail_reportf "%s: {%d,%d} is no bridge" what a b;
              if not (Node.Set.equal lost far) then
                Q.Test.fail_reportf "%s: lost set is not the far side" what);
          if not (FM.consistent f) then
            Q.Test.fail_reportf "%s: inconsistent engine" what
        end
      done)
    [ M.Partial_reversal; M.Full_reversal ];
  true

let bridge_prop =
  Q.Test.make ~count:150 ~name:"fail_link partitions iff the link is a bridge"
    (Q.make
       ~print:(fun (n, e, s) -> Printf.sprintf "n=%d extra=%d seed=%d" n e s)
       Q.Gen.(
         let* n = int_range 2 18 in
         let* extra = int_range 0 n in
         let* seed = int_range 0 1_000_000 in
         return (n, extra, seed)))
    removal_reports_bridges

let () =
  Alcotest.run "fast_maintenance"
    [
      suite "lockstep"
        [
          case "PR churn matches reference" test_lockstep_churn_pr;
          case "FR churn matches reference" test_lockstep_churn_fr;
          case "sparse churn (partition-heavy)" test_lockstep_churn_sparse;
          case "reconnection repairs stale sinks"
            test_reconnection_finds_stale_sinks;
          case "invalid calls rejected like the reference"
            test_errors_match_reference;
        ];
      suite "component index"
        [
          case "partition→heal cycles byte-identical (pinned)"
            test_partition_heal_pinned;
          case "union-find vs rescan baseline in lockstep"
            test_scan_uf_differential;
          case "ghost-slot pressure triggers compaction"
            test_compaction_rebuilds;
          case "membership answers reachability"
            test_membership_answers_reachability;
        ];
      suite "route cache"
        [
          case "hits when quiescent" test_cache_hits_when_quiescent;
          case "invalidated by churn, never stale"
            test_cache_invalidated_by_churn;
        ];
      suite "reroot" [ QCheck_alcotest.to_alcotest reroot_prop ];
      suite "split probe" [ QCheck_alcotest.to_alcotest bridge_prop ];
      suite "pr raise" [ QCheck_alcotest.to_alcotest pr_raise_prop ];
    ]

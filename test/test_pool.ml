open Helpers
module P = Lr_parallel.Pool

let int_array = Alcotest.(array int)

let test_map_range_matches_sequential () =
  List.iter
    (fun n ->
      let expected = Array.init n (fun i -> (i * 37) - (i mod 5)) in
      List.iter
        (fun jobs ->
          Alcotest.check int_array
            (Printf.sprintf "n=%d jobs=%d" n jobs)
            expected
            (P.map_range ~jobs n (fun i -> (i * 37) - (i mod 5))))
        [ 1; 2; 3; 8 ])
    [ 0; 1; 7; 100; 1000 ]

let test_map_range_chunk_sizes () =
  let expected = Array.init 100 succ in
  List.iter
    (fun chunk ->
      Alcotest.check int_array
        (Printf.sprintf "chunk=%d" chunk)
        expected
        (P.map_range ~chunk ~jobs:4 100 succ))
    [ 1; 3; 64; 1000 ]

let test_map_range_propagates_exceptions () =
  check_bool "raises" true
    (try
       ignore
         (P.map_range ~jobs:4 100 (fun i ->
              if i = 57 then failwith "trial 57 exploded" else i));
       false
     with Failure m -> String.equal m "trial 57 exploded")

let test_map_range_rejects_bad_args () =
  check_bool "negative n raises" true
    (try ignore (P.map_range ~jobs:2 (-1) Fun.id); false
     with Invalid_argument _ -> true);
  check_bool "zero chunk raises" true
    (try ignore (P.map_range ~chunk:0 ~jobs:2 10 Fun.id); false
     with Invalid_argument _ -> true)

(* The pool's contract: per-trial RNGs are seeded from the trial index
   alone, so outputs cannot depend on the worker interleaving. *)
let test_run_trials_deterministic () =
  let trial ~trial ~rng =
    List.init (1 + (trial mod 4)) (fun _ -> Random.State.int rng 1_000_000)
  in
  let seq = P.run_trials ~jobs:1 ~trials:40 trial in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d equals jobs=1" jobs)
        true
        (seq = P.run_trials ~jobs ~trials:40 trial))
    [ 2; 4; 8 ]

(* A realistic trial: run the PR engine on a random instance derived
   from the trial index, compare pooled vs sequential sweeps. *)
let test_run_trials_engine_workload () =
  let module F = Lr_fast.Fast_engine in
  let trial ~trial ~rng:_ =
    let config = random_config ~seed:trial 24 in
    let out = F.run F.Partial (F.of_config config) in
    (out.F.work, out.F.edge_reversals, out.F.destination_oriented)
  in
  let seq = P.run_trials ~jobs:1 ~trials:12 trial in
  let par = P.run_trials ~jobs:3 ~trials:12 trial in
  check_bool "identical per-seed outcomes" true (seq = par);
  check_int "all trials ran" 12 (List.length seq)

let test_run_trials_reports_failing_trial () =
  check_bool "Trial_error carries the failing index" true
    (try
       ignore
         (P.run_trials ~jobs:4 ~trials:100 (fun ~trial ~rng:_ ->
              if trial = 57 then failwith "boom" else trial));
       false
     with P.Trial_error { trial = 57; exn } -> (
       match exn with Failure m -> String.equal m "boom" | _ -> false));
  (* the printer names the trial *)
  let msg =
    try
      ignore
        (P.run_trials ~jobs:2 ~trials:10 (fun ~trial ~rng:_ ->
             if trial = 3 then failwith "bad trial" else ()));
      ""
    with e -> Printexc.to_string e
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool "printer mentions trial 3" true (contains msg "trial 3")

let test_trial_rng_reproducible () =
  let a = Random.State.int (P.trial_rng 5) 1_000_000 in
  let b = Random.State.int (P.trial_rng 5) 1_000_000 in
  let c = Random.State.int (P.trial_rng 6) 1_000_000 in
  check_int "same trial, same stream" a b;
  check_bool "different trials differ" true (a <> c)

let test_recommended_jobs_positive () =
  check_bool "at least one domain" true (P.recommended_jobs () >= 1)

module PP = P.Persistent

let with_pool ~jobs f =
  let pool = PP.create ~jobs in
  Fun.protect ~finally:(fun () -> PP.shutdown pool) (fun () -> f pool)

let test_persistent_matches_sequential () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let expected = Array.init n (fun i -> (i * 37) - (i mod 5)) in
              let got = Array.make (max n 1) min_int in
              PP.run pool n (fun i -> got.(i) <- (i * 37) - (i mod 5));
              Alcotest.check int_array
                (Printf.sprintf "jobs=%d n=%d" jobs n)
                expected
                (Array.sub got 0 n))
            [ 0; 1; 7; 100; 1000 ]))
    [ 1; 2; 3; 8 ]

(* The whole point of the resident pool: many small rounds on the same
   domains.  Every round must see the full effect of the previous one
   (run is a barrier). *)
let test_persistent_reused_across_rounds () =
  with_pool ~jobs:4 (fun pool ->
      let acc = Array.make 64 0 in
      for _ = 1 to 200 do
        PP.run pool 64 (fun i -> acc.(i) <- acc.(i) + 1)
      done;
      Alcotest.check int_array "200 increments everywhere"
        (Array.make 64 200) acc)

let test_persistent_propagates_exceptions () =
  with_pool ~jobs:4 (fun pool ->
      check_bool "raises" true
        (try
           PP.run pool 100 (fun i -> if i = 57 then failwith "round died");
           false
         with Failure m -> String.equal m "round died");
      (* the pool survives a failing round *)
      let hits = Array.make 10 0 in
      PP.run pool 10 (fun i -> hits.(i) <- 1);
      Alcotest.check int_array "usable after failure" (Array.make 10 1) hits)

let test_persistent_rejects_bad_args () =
  check_bool "zero jobs raises" true
    (try ignore (PP.create ~jobs:0); false
     with Invalid_argument _ -> true);
  with_pool ~jobs:2 (fun pool ->
      check_int "jobs accessor" 2 (PP.jobs pool);
      check_bool "negative n raises" true
        (try PP.run pool (-1) ignore; false
         with Invalid_argument _ -> true);
      check_bool "zero chunk raises" true
        (try PP.run ~chunk:0 pool 4 ignore; false
         with Invalid_argument _ -> true))

let test_persistent_shutdown_idempotent () =
  let pool = PP.create ~jobs:3 in
  PP.run pool 5 ignore;
  PP.shutdown pool;
  PP.shutdown pool;
  check_bool "run after shutdown raises" true
    (try PP.run pool 5 ignore; false with Invalid_argument _ -> true)

let () =
  Alcotest.run "pool"
    [
      suite "map_range"
        [
          case "matches sequential for all job counts"
            test_map_range_matches_sequential;
          case "chunk size does not affect results" test_map_range_chunk_sizes;
          case "worker exceptions propagate" test_map_range_propagates_exceptions;
          case "bad arguments rejected" test_map_range_rejects_bad_args;
        ];
      suite "run_trials"
        [
          case "deterministic across job counts" test_run_trials_deterministic;
          case "failures name the failing trial"
            test_run_trials_reports_failing_trial;
          case "engine workload pooled = sequential"
            test_run_trials_engine_workload;
          case "trial rng reproducible" test_trial_rng_reproducible;
          case "recommended_jobs >= 1" test_recommended_jobs_positive;
        ];
      suite "persistent"
        [
          case "matches sequential for all job counts"
            test_persistent_matches_sequential;
          case "reusable across many rounds" test_persistent_reused_across_rounds;
          case "worker exceptions propagate, pool survives"
            test_persistent_propagates_exceptions;
          case "bad arguments rejected" test_persistent_rejects_bad_args;
          case "shutdown idempotent" test_persistent_shutdown_idempotent;
        ];
    ]

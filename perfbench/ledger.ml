(* The traced pass: the same op stream replayed on freshly created
   shards, one [Shard.apply] per op, each call timed from here.  It
   gives the per-layer ledger: busy time and latency per op kind, and
   the engine, plane, heal and response counts read from [Shard]
   getters and from the responses themselves.  No span is recorded
   inside the program. *)

module Op = Lr_service.Op
module Shard = Lr_service.Shard
module Service = Lr_service.Service

let kinds =
  [| "route"; "link_down"; "link_up"; "crash"; "inject"; "forward"; "corrupt";
     "flip" |]

let kind_of = function
  | Op.Route _ -> 0
  | Op.Link_down _ -> 1
  | Op.Link_up _ -> 2
  | Op.Crash_destination _ -> 3
  | Op.Inject _ -> 4
  | Op.Forward _ -> 5
  | Op.Corrupt _ -> 6
  | Op.Flip _ -> 7
  | Op.Stats -> invalid_arg "Ledger: Stats never reaches a shard"

let shard_of op =
  match Op.shard_of op with
  | Some s -> s
  | None -> invalid_arg "Ledger: Stats never reaches a shard"

type pass = {
  wall_s : float;  (* the whole replay loop, clock reads included *)
  apply_ns : int array;  (* per op; -1 for an op that raised *)
  responses : Op.response option array;  (* None for an op that raised *)
  failed : int;  (* raising ops and the rest of their batches *)
  reversal_steps : int;  (* Shard.total_work deltas *)
  cache_hits : int;
  cache_misses : int;
  cache_invalidations : int;
}

let fresh_shards configs =
  let cfg = Service.default_config in
  Array.mapi
    (fun id c ->
      Shard.create ~engine:cfg.Service.engine
        ~packet_queue:cfg.Service.packet_queue ~rule:cfg.Service.rule ~id c)
    configs

let no_cache = { Lr_routing.Fast_maintenance.hits = 0; misses = 0; invalidations = 0 }
let cache s = Option.value (Shard.cache_stats s) ~default:no_cache

(* Mirrors the client's failure handling: an op that raises fails the
   rest of its batch, and every shard restarts from its initial
   configuration before the next batch. *)
let replay ~validate configs ops =
  let shards = ref (fresh_shards configs) in
  let n = Array.length ops in
  let apply_ns = Array.make n (-1) in
  let responses = Array.make n None in
  let failed = ref 0 and work = ref 0 in
  let hits = ref 0 and misses = ref 0 and inval = ref 0 in
  let skip_to = ref 0 in
  let t_start = Clock.now_ns () in
  for i = 0 to n - 1 do
    if i < !skip_to then incr failed
    else begin
      let op = ops.(i) in
      let s = !shards.(shard_of op) in
      let epoch = Shard.epoch s and c0 = cache s and w0 = Shard.total_work s in
      let t0 = Clock.now_ns () in
      match Shard.apply ~validate s op with
      | o ->
          apply_ns.(i) <- Clock.now_ns () - t0;
          responses.(i) <- Some o.Shard.response;
          work := !work + Shard.total_work s - w0;
          (* A failover starts a fresh engine whose cache counters restart. *)
          let c1 = cache s in
          let base = if Shard.epoch s = epoch then c0 else no_cache in
          hits := !hits + c1.hits - base.hits;
          misses := !misses + c1.misses - base.misses;
          inval := !inval + c1.invalidations - base.invalidations
      | exception _ ->
          incr failed;
          skip_to := (i / Drive.batch_size + 1) * Drive.batch_size;
          shards := fresh_shards configs
    end
  done;
  let wall_s = Clock.seconds_since t_start in
  {
    wall_s; apply_ns; responses; failed = !failed; reversal_steps = !work;
    cache_hits = !hits; cache_misses = !misses; cache_invalidations = !inval;
  }

let busy_s p =
  1e-9 *. float_of_int (Array.fold_left (fun a d -> a + max d 0) 0 p.apply_ns)

(* Per op kind, the apply times of the ops that returned, in µs. *)
let samples p ops =
  let xs = Array.make (Array.length kinds) [] in
  Array.iteri
    (fun i op ->
      let d = p.apply_ns.(i) in
      if d >= 0 then begin
        let k = kind_of op in
        xs.(k) <- (float_of_int d *. 1e-3) :: xs.(k)
      end)
    ops;
  xs

type kind_row = { n : int; busy : float; p50_us : float; p99_us : float }

let row us =
  let p = Lr_analysis.Stats.percentiles us in
  { n = List.length us; busy = List.fold_left ( +. ) 0.0 us *. 1e-6;
    p50_us = p.p50; p99_us = p.p99 }

module Pool = Lr_parallel.Pool

type config = {
  jobs : int;
  queue_bound : int;
  window : int;
  rule : Lr_routing.Maintenance.rule;
  validate : bool;
  engine : Shard.engine_kind;
  packet_queue : int;
}

let default_config =
  {
    jobs = 1;
    queue_bound = 128;
    window = 256;
    rule = Lr_routing.Maintenance.Partial_reversal;
    validate = true;
    engine = Shard.Fast;
    packet_queue = 64;
  }

type t = {
  cfg : config;
  shards : Shard.t array;
  metrics : Metrics.t;
  pool : Pool.Persistent.t;
}

let record_initial_trace ~dir ~rule shard config =
  let module F = Lr_fast.Fast_engine in
  let path = Filename.concat dir (Printf.sprintf "shard-%03d.lrt" shard) in
  let rule =
    match rule with
    | Lr_routing.Maintenance.Partial_reversal -> F.Partial
    | Lr_routing.Maintenance.Full_reversal -> F.Full
  in
  ignore (Lr_trace.Record.fast ~seed:shard ~path ~rule config)

let create ?trace_dir cfg configs =
  if Array.length configs = 0 then
    invalid_arg "Service.create: need at least one shard";
  if cfg.jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  if cfg.queue_bound < 1 then
    invalid_arg "Service.create: queue_bound must be >= 1";
  if cfg.window < 1 then invalid_arg "Service.create: window must be >= 1";
  if cfg.packet_queue < 1 then
    invalid_arg "Service.create: packet_queue must be >= 1";
  (* [cfg.jobs] is clamped to the host's domain count: every pool
     domain beyond the hardware joins each minor-GC stop-the-world
     barrier just to be woken and parked again, so overprovisioned
     domains are pure tax.  Results never depend on the domain count. *)
  let jobs = min cfg.jobs (max 1 (Pool.recommended_jobs ())) in
  (match trace_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Array.iteri
        (fun i config -> record_initial_trace ~dir ~rule:cfg.rule i config)
        configs);
  {
    cfg;
    shards =
      Array.mapi
        (fun id config ->
          Shard.create ~engine:cfg.engine ~packet_queue:cfg.packet_queue
            ~rule:cfg.rule ~id config)
        configs;
    metrics = Metrics.create ~shards:(Array.length configs);
    pool = Pool.Persistent.create ~jobs;
  }

let num_shards t = Array.length t.shards
let shard t i = t.shards.(i)
let config t = t.cfg
let metrics t = Metrics.snapshot t.metrics

(* One op, on the round worker that drains shard [s] this round.
   Counters — and hence the fingerprint — depend only on *which* ops
   execute, never on which domain runs them. *)
(* lr:owner round worker: a pool round hands each busy shard to exactly
   one worker ([Pool.Persistent.run] claims indices disjointly), so the
   shard, its metrics counter and everything the apply path touches
   have one writer per round, and the round barrier orders rounds. *)
let serve_op t ops responses admit_time s idx =
  let op = ops.(idx) in
  (* Chaos ops are timed around the shard call itself: the heal runs
     synchronously inside [Shard.apply], so this wall-clock delta is
     the corruption-to-recovered time the SLO is stated over. *)
  let chaos_t0 =
    match op with
    | Op.Corrupt _ | Op.Flip _ -> Unix.gettimeofday ()
    | _ -> 0.0
  in
  let o = Shard.apply ~validate:t.cfg.validate t.shards.(s) op in
  responses.(idx) <- o.Shard.response;
  let c = Metrics.shard t.metrics s in
  c.Metrics.served <- c.Metrics.served + 1;
  c.Metrics.reversal_steps <- c.Metrics.reversal_steps + o.Shard.work;
  c.Metrics.validation_failures <-
    c.Metrics.validation_failures + o.Shard.validation_failures;
  (match o.Shard.response with
  | Op.Path _ -> c.Metrics.routes <- c.Metrics.routes + 1
  | Op.No_route -> c.Metrics.no_routes <- c.Metrics.no_routes + 1
  | Op.Repaired _ | Op.Linked _ ->
      c.Metrics.link_events <- c.Metrics.link_events + 1
  | Op.Cut _ ->
      c.Metrics.link_events <- c.Metrics.link_events + 1;
      c.Metrics.partitions <- c.Metrics.partitions + 1
  | Op.New_destination _ -> c.Metrics.crashes <- c.Metrics.crashes + 1
  | Op.Injected { accepted; dropped } ->
      c.Metrics.packets_in <- c.Metrics.packets_in + accepted;
      c.Metrics.packets_dropped <- c.Metrics.packets_dropped + dropped
  | Op.Forwarded { delivered; reversals; queued; hops } ->
      c.Metrics.packets_out <- c.Metrics.packets_out + delivered;
      c.Metrics.packet_reversals <- c.Metrics.packet_reversals + reversals;
      c.Metrics.packet_hops <- c.Metrics.packet_hops + hops;
      if queued > c.Metrics.packet_queue_peak then
        c.Metrics.packet_queue_peak <- queued
  | Op.Healed _ ->
      c.Metrics.faults <- c.Metrics.faults + 1;
      Metrics.record_recovery t.metrics ~shard:s
        (Unix.gettimeofday () -. chaos_t0)
  | Op.Noop -> c.Metrics.noops <- c.Metrics.noops + 1
  | Op.Snapshot _ | Op.Rejected _ ->
      (* shards never produce dispatcher-level responses *)
      assert false);
  Metrics.record_latency t.metrics ~shard:s
    (Unix.gettimeofday () -. admit_time.(idx))

let shard_of_op t i op =
  let shards = Array.length t.shards in
  let s = match Op.shard_of op with Some s -> s | None -> assert false in
  if s < 0 || s >= shards then
    invalid_arg
      (Printf.sprintf "Service.run: op %d names shard %d of %d" i s shards);
  s

(* Ops are admitted in windows; each window is drained as one pool
   round with a global barrier between rounds.  Which ops are admitted,
   every response and every counter depend only on the op stream —
   never on domains or scheduling. *)
let run t ops =
  let n = Array.length ops in
  let shards = Array.length t.shards in
  let responses = Array.make n Op.Noop in
  let admit_time = Array.make n 0.0 in
  (* Per-shard queues hold op indices in reverse admission order; they
     are filled by the dispatcher and drained (then reset) by the one
     worker owning the shard for the round. *)
  let queues = Array.make shards [] in
  let depth = Array.make shards 0 in
  let busy = Array.make shards 0 in
  (* lr:owner round worker: [queues.(s)] and [depth.(s)] are written by
     the dispatcher between rounds and, within a round, only by the one
     worker draining shard [s]. *)
  let drain s =
    List.iter
      (fun idx -> serve_op t ops responses admit_time s idx)
      (List.rev queues.(s));
    queues.(s) <- [];
    depth.(s) <- 0
  in
  let i = ref 0 in
  while !i < n do
    (* Admission: queues are empty here (the previous round drained
       them), so a Stats op at the window head sees a fully settled
       service. *)
    let consumed = ref 0 in
    let barrier = ref false in
    while (not !barrier) && !i < n && !consumed < t.cfg.window do
      (match ops.(!i) with
      | Op.Stats ->
          if !consumed = 0 then begin
            Metrics.bump_stats t.metrics;
            responses.(!i) <- Op.Snapshot (Metrics.totals t.metrics);
            incr i
          end
          else barrier := true
      | op ->
          let s = shard_of_op t !i op in
          (* A full queue answers on the spot — but still consumes window
             budget, so an overloaded round ends and drains instead of
             shedding the whole remaining stream. *)
          if depth.(s) >= t.cfg.queue_bound then begin
            let c = Metrics.shard t.metrics s in
            c.Metrics.rejected <- c.Metrics.rejected + 1;
            responses.(!i) <- Op.Rejected `Overloaded
          end
          else begin
            queues.(s) <- !i :: queues.(s);
            depth.(s) <- depth.(s) + 1;
            Metrics.record_depth t.metrics ~shard:s depth.(s);
            admit_time.(!i) <- Unix.gettimeofday ()
          end;
          incr consumed;
          incr i);
    done;
    (* Round: every busy shard drained by one worker; distinct shards
       run concurrently, results land in per-op slots. *)
    let busy_count = ref 0 in
    for s = 0 to shards - 1 do
      if depth.(s) > 0 then begin
        busy.(!busy_count) <- s;
        incr busy_count
      end
    done;
    if !busy_count > 0 then
      Pool.Persistent.run t.pool !busy_count (fun k -> drain busy.(k))
  done;
  responses

let fingerprint responses snapshot =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b (Op.response_to_string r);
      Buffer.add_char b '\n')
    responses;
  Buffer.add_string b (Metrics.totals_line snapshot.Metrics.snapshot_totals);
  Buffer.add_char b '\n';
  Array.iter
    (fun per ->
      Buffer.add_string b (Metrics.totals_line per);
      Buffer.add_char b '\n')
    snapshot.Metrics.snapshot_per_shard;
  Digest.to_hex (Digest.string (Buffer.contents b))

let rejected_in responses =
  Array.fold_left
    (fun acc r -> match r with Op.Rejected _ -> acc + 1 | _ -> acc)
    0 responses

let shutdown t = Pool.Persistent.shutdown t.pool

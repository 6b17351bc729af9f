(** The sharded, domain-parallel routing service.

    {2 Execution model}

    Dispatch is {b windowed}.  The dispatcher consumes the op stream in
    windows of at most [window] ops, appending each op's index to its
    destination shard's queue.  Each window is then drained as one
    round on a persistent domain pool ({!Lr_parallel.Pool.Persistent}):
    every busy shard goes to exactly one worker, distinct shards run
    concurrently, and a barrier ends the round before the next window
    is admitted.  Per-shard serialization is therefore structural —
    a shard's ops run in admission order on one domain per round.

    {b Backpressure} is per-shard queue depth within a window: an op
    arriving at a queue already holding [queue_bound] ops is answered
    [Rejected `Overloaded] on the spot.  A rejection still spends
    window budget, so an overloaded round ends and drains instead of
    shedding the rest of the stream.

    A [Stats] op closes the window it would join, so it is always
    answered at a window head, when every admitted op has completed:
    snapshots count exactly the ops admitted before them.

    {2 Determinism}

    Which ops are admitted, every response and every counter depend
    only on the op stream and on [queue_bound] and [window] — never on
    [jobs] or on scheduling.  Responses land in per-op slots, so
    {!fingerprint} is byte-identical across [jobs] settings, overload
    included.  Latencies and the queue-depth samples in
    {!Metrics.ring_totals} are wall-clock or admission facts outside
    the fingerprint. *)

type config = {
  jobs : int;
      (** Domains draining each round; the dispatcher is one of them.
          Clamped to the host's domain count at {!create}: every pool
          domain beyond the hardware joins each minor-GC
          stop-the-world barrier just to be woken and parked again.
          Results never depend on it. *)
  queue_bound : int;
      (** Per-shard queue capacity within one window; an op beyond it
          is rejected. *)
  window : int;
      (** Ops consumed from the stream per round, rejections
          included. *)
  rule : Lr_routing.Maintenance.rule;
  validate : bool;  (** In-service route validation (default on). *)
  engine : Shard.engine_kind;
      (** Maintenance tier for every shard ({!Shard.engine_kind}).
          Responses, counters and the fingerprint are byte-identical
          across the two. *)
  packet_queue : int;
      (** Per-node queue bound on each shard's packet-forwarding plane
          ({!Shard.create}). *)
}

val default_config : config
(** [jobs = 1], [queue_bound = 128], [window = 256], Partial Reversal,
    validation on, the fast engine, [packet_queue = 64]. *)

type t

val create : ?trace_dir:string -> config -> Linkrev.Config.t array -> t
(** One shard per instance, each stabilized on creation.  When
    [trace_dir] is given, the stabilization of every shard's initial
    orientation is recorded there as a replayable LRT1 trace
    ([shard-NNN.lrt], via {!Lr_trace.Record.fast} — auditable with
    [linkrev trace audit]).  @raise Invalid_argument on an empty
    instance array or a non-positive
    [jobs]/[queue_bound]/[window]/[packet_queue]. *)

val num_shards : t -> int
val shard : t -> int -> Shard.t
val config : t -> config

val run : t -> Op.t array -> Op.response array
(** Execute the stream; slot [i] answers op [i].  Ops must name shards
    in range ([Workload.load]/[generate] guarantee it).
    @raise Invalid_argument on an out-of-range shard id.  An exception
    raised while serving an op propagates once its round has ended. *)

val metrics : t -> Metrics.snapshot

val fingerprint : Op.response array -> Metrics.snapshot -> string
(** Hex digest over the canonical rendering of all responses plus all
    deterministic counters (latency and queue-depth observability
    excluded) — byte-identical across [jobs] settings, overload
    included. *)

val rejected_in : Op.response array -> int
(** Count of [Rejected] responses — must equal the metrics' rejected
    counter (the "no leaked rejections" check). *)

val shutdown : t -> unit
(** Join the pool's domains.  Idempotent. *)

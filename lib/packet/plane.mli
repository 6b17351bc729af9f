(** A per-destination packet-forwarding plane: bounded FIFO queues on
    every node, discrete-time forwarding along the current DAG
    orientation, and queue-differential link reversal — the LR +
    backpressure hybrid of Rai et al. ("Loop-Free Backpressure Routing
    Using Link-Reversal Algorithms", PAPERS.md).

    {2 Model}

    Orientation is {e derived} from per-node heights [(pa, pb, id)]
    compared lexicographically, exactly like the maintenance engines:
    every present edge points from its higher endpoint to its lower
    one, so the routing graph is structurally acyclic at all times — a
    reversal is a height raise, never an edge flip that could close a
    cycle.  Heights seed either from a deterministic topological order
    of a given orientation (the default: {!seed} takes the engine's
    current orientation, never its heights, so seeding is identical
    across maintenance-engine tiers) or from explicit heights such as
    stabilized engine heights via {!Lr_routing.Fast_maintenance.height}.

    Each {!slot} is one synchronous round:

    + {b transmit} — every node with queued packets sends up to [cap]
      of them to the out-neighbour with the maximum positive queue
      differential (ties to the lower id; the destination counts as an
      always-empty, always-willing queue).  Arrivals are staged and
      merged after the sweep, so a round's decisions depend only on the
      state at its start plus earlier nodes' sends — deterministic and
      independent of the caller's parallelism.
    + {b reverse} — a node that held packets but transmitted nothing
      {e for orientational reasons} (no out-edge, or no out-neighbour
      with a positive differential) takes one partial-reversal height
      raise.  A node blocked only by full downstream queues does {e
      not} reverse: that is congestion, and backpressure handles it by
      waiting.

    Link churn ({!remove_link} / {!add_link}) changes the skeleton in
    O(degree); queued packets stay put and, if their region lost its
    route, reversals re-point the DAG around the outage.

    {2 Cost}

    Construction is O(n + m) from a flat adjacency and an orientation:
    one Kahn pass, and one allocation holding every queue (a ring array
    of [n * qcap] packet ids).  A {!slot} costs O(occupied nodes ×
    degree), not O(n): the plane keeps the nodes with non-empty queues
    in an ascending list, sweeps only those, resets only the staging
    cells it used, and insertion-sorts only the nodes it newly
    occupied.  After warm-up of the packet store, a slot
    allocates nothing but its returned {!slot_outcome}. *)

type t

type seed_error = Cyclic  (** The given orientation has a cycle. *)

val seed :
  ?qcap:int ->
  ?cap:int ->
  ?heights:int array * int array ->
  destination:int ->
  edge_out:(int -> int -> bool) ->
  Lr_fast.Fast_graph.Dyn.t ->
  (t, seed_error) result
(** [seed ~destination ~edge_out adj] is a plane toward [destination]
    over [adj], which it takes over.  Every row of [adj] must be
    ascending ({!Lr_fast.Fast_graph.Dyn.sorted_copy} and
    {!Lr_fast.Fast_graph.Dyn.of_graph} build such rows), and
    [edge_out u w] must tell whether the edge [{u,w}] points [u -> w].
    Heights come from a FIFO Kahn pass over that orientation — sources
    in ascending id order, each popped node's out-neighbours in row
    order — so the plane's derived orientation reproduces [edge_out]
    exactly; [Error Cyclic] if it has a cycle.  [qcap] (default 64)
    bounds every per-node queue; [cap] (default 1) is the per-node
    transmissions per slot.  [heights] — arrays of [(pa, pb)] keyed by
    node id, copied — replaces the Kahn pass (and [edge_out] is then
    unused).  O(n + m).  @raise Invalid_argument on non-positive
    [qcap]/[cap], an out-of-range [destination], or mis-sized height
    arrays. *)

val create :
  ?qcap:int ->
  ?cap:int ->
  ?heights:int array * int array ->
  Linkrev.Config.t ->
  t
(** [seed] over [config]'s skeleton, oriented as [config]'s initial
    graph, toward its destination.  @raise Invalid_argument like
    {!seed}, or on node ids outside [0 .. n-1]. *)

val num_nodes : t -> int
val destination : t -> int
val queue_capacity : t -> int

(** {2 Traffic} *)

val inject : t -> src:int -> count:int -> int * int
(** [inject t ~src ~count] offers [count] packets at [src]; returns
    [(accepted, dropped)] — packets refused by a full source queue are
    dropped on the spot.  Injection at the destination delivers
    immediately (zero hops).  @raise Invalid_argument on an
    out-of-range [src] or negative [count]. *)

type slot_outcome = { delivered : int; reversals : int }

val slot : t -> slot_outcome
(** One synchronous transmit-then-reverse round (see above). *)

(** {2 Topology churn} *)

val mem_edge : t -> int -> int -> bool
val remove_link : t -> int -> int -> unit
(** @raise Invalid_argument if absent. *)

val add_link : t -> int -> int -> unit
(** @raise Invalid_argument if present or a self-loop. *)

(** {2 Observation} *)

val edge_out : t -> int -> int -> bool
(** Derived orientation: the (present) edge [{u,v}] points [u -> v]. *)

val height : t -> int -> int * int
(** The node's current [(pa, pb)]; the id is the third component. *)

val queue_length : t -> int -> int
val queued : t -> int
(** Packets currently in flight (sum of all queue lengths). *)

val high_water : t -> int
(** Maximum single-queue occupancy ever observed. *)

type counters = {
  injected : int;  (** Accepted into a queue (or zero-hop delivered). *)
  dropped : int;
  delivered : int;
  reversals : int;
  hops_sum : int;  (** Over delivered packets with a positive birth distance. *)
  dist_sum : int;  (** Matching shortest-path hop distances at injection. *)
  slots : int;
}

val counters : t -> counters

val hops_sum : t -> int
(** [(counters t).hops_sum], without building the record. *)

val stretch : t -> float
(** Mean path stretch over delivered packets: [hops_sum / dist_sum],
    or [0.] before any such delivery. *)

val consistent : t -> bool
(** Audit for tests: [injected = delivered + queued], every queue
    within bound, no packet id queued twice, the destination's queue
    empty, every staging cell zero (as between slots), and the
    occupied list strictly ascending and holding exactly the nodes
    with [queue_length > 0]. *)

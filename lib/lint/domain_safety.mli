(** Domain-safety rules L5–L8 over the {!Callgraph}.

    {2 Reachability sets}

    - {e crossing}: nodes reachable from any root — Pool closures and
      [Domain.spawn].  L8 checks atomics against this set.  L5 uses an
      owner-pruned variant: an owner boundary (see below) declares a
      single-owner extent, so crossing reachability stops at its
      outgoing edges.
    - {e resident}: nodes reachable from [Resident] roots only
      ([Domain.spawn] loop bodies).  L6 and L7 police this set; owner
      boundaries do not prune it — a single writer does not excuse
      blocking a resident loop.

    {2 Ownership annotation grammar}

    A source comment containing [lr:owner <who>[: justification]]:

    - on the line of (or immediately above) a finding: suppresses that
      finding, counted in [owner_suppressed];
    - on the line of (or immediately above) a {e function binding}:
      makes that node an owner boundary — all of its own L5/L6/L7
      findings are suppressed and L5 reachability stops there.

    Suppressions are always counted ([stats.owner_suppressed]), so the
    report records how much of the surface is argued rather than
    proven. *)

type finding = {
  rule : Rule.t;
  node : string;  (** qualified node name, the allowlist candidate *)
  loc : Location.t;
  message : string;
}

type stats = {
  nodes : int;
  edges : int;
  roots : int;
  crossing : int;  (** unpruned crossing-set size *)
  resident : int;
  boundaries : int;
  owner_suppressed : int;
}

type t

val analyse : root:string -> Callgraph.t -> t
(** Loads [lr:owner] annotations from the sources under [root] (node
    file paths are root-relative) and computes the reachability
    sets. *)

val l5_findings : t -> finding list
val l6_findings : t -> finding list
val l7_findings : t -> finding list
val l8_findings : t -> finding list
(** Each pass accumulates its suppression count into the analysis;
    read {!stats} after running the passes you want. *)

val stats : t -> stats

val to_dot : t -> string
(** The interesting subgraph only (roots, crossing/resident sets,
    boundaries): resident roots salmon, parallel roots orange, owner
    boundaries lightblue, resident members mistyrose, other crossing
    nodes lightgray; dashed edges sit under a [try]. *)

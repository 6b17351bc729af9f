(** Lint rule identifiers.

    Eight rules, individually toggleable from the CLI:

    - {b L1 poly-ops} — applications of the polymorphic comparison and
      hashing primitives at non-immediate types.  A generic structural
      walk over graph state is both a performance trap and a
      determinism hazard (it traverses arbitrarily deep structure and
      distinguishes representations the code considers equal).
    - {b L2 domain-race surface} — toplevel mutable state ([ref]s,
      [Hashtbl]s, arrays, mutable records, ...) in modules whose values
      are reachable from [Lr_parallel.Pool] worker closures, minus an
      explicit allowlist of serialized-by-design state.
    - {b L3 interface hygiene} — every [.ml] under the linted tree is
      sealed by a matching [.mli].
    - {b L4 forbidden constructs} — [Obj.magic], printing primitives
      that write to stdout (stdout belongs to the service protocol and
      the CLI), and bare [exit] inside library code.

    The {e domain-safety} rules run over the interprocedural call graph
    ({!Callgraph}) and its domain-crossing set ({!Domain_safety}):

    - {b L5 race candidates} — writes to non-atomic mutable state
      (refs, mutable record fields, array/bytes cells, mutable
      containers) in functions reachable from domain-crossing roots
      (Pool closures, [Domain.spawn]), unless covered by an
      [(* lr:owner who: why *)] annotation documenting the single-owner
      discipline.
    - {b L6 resident-loop blocking} — blocking or unbounded primitives
      ([Mutex.lock], [Condition.wait], [Unix.sleep]/[sleepf]/[select],
      channel reads, printing to the shared std channels) reachable
      from a resident run-to-completion loop body.
    - {b L7 escaping exceptions} — raise sites whose exception can
      propagate out of a [Domain.spawn] closure with no handler inside
      the loop: that is a silently dead domain.  Re-raises inside an
      exception handler count as deliberate propagation.
    - {b L8 atomic overhead smell} — [Atomic.t] values all of whose
      access sites sit outside the domain-crossing set; the fences buy
      nothing a plain [ref] would not. *)

type t = L1 | L2 | L3 | L4 | L5 | L6 | L7 | L8

val all : t list
val id : t -> string
val of_string : string -> t option
(** Case-insensitive; [None] on an unknown id. *)

val describe : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool

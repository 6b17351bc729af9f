(* Domain-safety analysis over the interprocedural call graph.

   Two reachability sets drive the rules:

   - the {e domain-crossing set}: everything reachable from any root
     (Pool closures, [Domain.spawn]).  L5 uses an owner-pruned
     variant — an [lr:owner] annotation on a function binding declares
     a single-owner extent, so reachability stops at that node's
     outgoing edges; L8 uses the unpruned set.
   - the {e resident set}: everything reachable from [Resident] roots
     only ([Domain.spawn] loop bodies).  L6/L7 police it, and owner
     boundaries do NOT prune it: a single writer does not excuse
     blocking a resident loop, it only excuses its writes.

   Ownership annotations: a comment containing [lr:owner <who>[: why]]
   suppresses L5–L8 findings on its own line and the next.  Placed on
   (or immediately above) a function's binding line it additionally
   makes the node an owner boundary.  Every suppression is counted and
   reported, so silence is never free. *)

type finding = {
  rule : Rule.t;
  node : string;
  loc : Location.t;
  message : string;
}

type stats = {
  nodes : int;
  edges : int;
  roots : int;
  crossing : int;
  resident : int;
  boundaries : int;
  owner_suppressed : int;
}

type t = {
  graph : Callgraph.t;
  crossing : bool array;  (* unpruned: BFS from all roots *)
  crossing_owned : bool array;  (* owner-pruned, for L5 *)
  resident : bool array;  (* BFS from Resident roots *)
  boundary : bool array;
  annotated : (string, unit) Hashtbl.t;  (* "file:line" carrying lr:owner *)
  mutable suppressed : int;
}

(* Whitespace inside the marker is normalized, so extra spaces between
   the comment opener and the tag still count; the opener itself is
   required so prose (or
   this very analyzer's sources) mentioning the grammar does not
   become an annotation. *)
let contains_marker line =
  let squeezed = Buffer.create (String.length line) in
  String.iter
    (fun c -> if not (Char.equal c ' ' || Char.equal c '\t') then
        Buffer.add_char squeezed c)
    line;
  let line = Buffer.contents squeezed in
  (* Built from pieces so this binding cannot match itself when the
     lint library is linted. *)
  let marker = "(*" ^ "lr:owner" in
  let n = String.length line and m = String.length marker in
  let rec scan i =
    i + m <= n && (String.equal (String.sub line i m) marker || scan (i + 1))
  in
  scan 0

let load_annotations ~root files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun file ->
      let path = Filename.concat root file in
      match In_channel.with_open_text path In_channel.input_lines with
      | exception Sys_error _ -> ()
      | lines ->
          (* An annotation covers every line of its comment, so a
             multi-line justification placed above a binding still
             counts as adjacent to it. *)
          let lines = Array.of_list lines in
          let contains_close line =
            let n = String.length line in
            let rec scan i =
              i + 2 <= n
              && (String.equal (String.sub line i 2) "*)" || scan (i + 1))
            in
            scan 0
          in
          Array.iteri
            (fun i line ->
              if contains_marker line then begin
                let j = ref i in
                while
                  !j < Array.length lines - 1
                  && not (contains_close lines.(!j))
                do
                  incr j
                done;
                for k = i to !j do
                  Hashtbl.replace tbl (Printf.sprintf "%s:%d" file (k + 1)) ()
                done
              end)
            lines)
    files;
  tbl

let loc_string (loc : Location.t) =
  let p = loc.Location.loc_start in
  Printf.sprintf "%s:%d:%d" p.Lexing.pos_fname p.Lexing.pos_lnum
    p.Lexing.pos_cnum

let annotated_at t file line =
  Hashtbl.mem t.annotated (Printf.sprintf "%s:%d" file line)

(* A finding is line-suppressed when the annotation sits on the same
   line or the line above. *)
let line_suppressed t (loc : Location.t) =
  let p = loc.Location.loc_start in
  let file = p.Lexing.pos_fname and line = p.Lexing.pos_lnum in
  annotated_at t file line || annotated_at t file (line - 1)

let bfs (g : Callgraph.t) ~stop_at_boundary ~boundary seeds =
  let seen = Array.make (Callgraph.size g) false in
  let q = Queue.create () in
  List.iter
    (fun id ->
      if not seen.(id) then (
        seen.(id) <- true;
        Queue.add id q))
    seeds;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    if not (stop_at_boundary && boundary.(id)) then
      List.iter
        (fun (e : Callgraph.edge) ->
          if not seen.(e.Callgraph.callee) then (
            seen.(e.Callgraph.callee) <- true;
            Queue.add e.Callgraph.callee q))
        g.Callgraph.nodes.(id).Callgraph.edges
  done;
  seen

let analyse ~root (g : Callgraph.t) =
  let files =
    List.sort_uniq String.compare
      (Array.to_list
         (Array.map (fun (n : Callgraph.node) -> n.Callgraph.file) g.nodes))
  in
  let annotated = load_annotations ~root files in
  let boundary =
    Array.map
      (fun (n : Callgraph.node) ->
        let at l =
          Hashtbl.mem annotated (Printf.sprintf "%s:%d" n.Callgraph.file l)
        in
        at n.Callgraph.line || at (n.Callgraph.line - 1))
      g.nodes
  in
  let all_roots =
    List.filter_map
      (fun (n : Callgraph.node) ->
        match n.Callgraph.root with Some _ -> Some n.Callgraph.id | None -> None)
      (Array.to_list g.nodes)
  in
  let resident_roots =
    List.filter_map
      (fun (n : Callgraph.node) ->
        match n.Callgraph.root with
        | Some Callgraph.Resident -> Some n.Callgraph.id
        | _ -> None)
      (Array.to_list g.nodes)
  in
  {
    graph = g;
    crossing = bfs g ~stop_at_boundary:false ~boundary all_roots;
    crossing_owned = bfs g ~stop_at_boundary:true ~boundary all_roots;
    resident = bfs g ~stop_at_boundary:false ~boundary resident_roots;
    boundary;
    annotated;
    suppressed = 0;
  }

let stats t =
  let count a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  {
    nodes = Callgraph.size t.graph;
    edges = Callgraph.edge_count t.graph;
    roots = Callgraph.root_count t.graph;
    crossing = count t.crossing;
    resident = count t.resident;
    boundaries = count t.boundary;
    owner_suppressed = t.suppressed;
  }

(* --- L5: unsynchronized writes on the crossing surface ------------ *)

let l5_findings t =
  let acc = ref [] in
  Array.iter
    (fun (n : Callgraph.node) ->
      if t.crossing_owned.(n.Callgraph.id) then
        if t.boundary.(n.Callgraph.id) then
          t.suppressed <-
            t.suppressed + List.length n.Callgraph.mutations
        else
          List.iter
            (fun (m : Callgraph.mutation) ->
              if line_suppressed t m.Callgraph.mut_loc then
                t.suppressed <- t.suppressed + 1
              else
                acc :=
                  {
                    rule = Rule.L5;
                    node = n.Callgraph.name;
                    loc = m.Callgraph.mut_loc;
                    message =
                      Printf.sprintf
                        "write to %s in domain-crossing %s without Atomic.t \
                         or lr:owner discipline"
                        m.Callgraph.target n.Callgraph.name;
                  }
                  :: !acc)
            n.Callgraph.mutations)
    t.graph.Callgraph.nodes;
  List.rev !acc

(* --- L6: blocking primitives in resident loops -------------------- *)

let l6_findings t =
  let acc = ref [] in
  Array.iter
    (fun (n : Callgraph.node) ->
      if t.resident.(n.Callgraph.id) then
        if t.boundary.(n.Callgraph.id) then
          t.suppressed <- t.suppressed + List.length n.Callgraph.blocking
        else
          List.iter
            (fun (s : Callgraph.site) ->
              if line_suppressed t s.Callgraph.site_loc then
                t.suppressed <- t.suppressed + 1
              else
                acc :=
                  {
                    rule = Rule.L6;
                    node = n.Callgraph.name;
                    loc = s.Callgraph.site_loc;
                    message =
                      Printf.sprintf
                        "blocking %s reachable inside resident loop body \
                         (via %s)"
                        s.Callgraph.prim n.Callgraph.name;
                  }
                  :: !acc)
            n.Callgraph.blocking)
    t.graph.Callgraph.nodes;
  List.rev !acc

(* --- L7: exceptions escaping resident loops ----------------------- *)

(* A raise at node [m] escapes resident root [r] iff some path
   r → ... → m uses no reference site under a [try], and the raise
   itself is neither in a try body nor a handler re-raise. *)
let l7_findings t =
  let g = t.graph in
  let acc = ref [] in
  let reported = Hashtbl.create 16 in
  Array.iter
    (fun (r : Callgraph.node) ->
      match r.Callgraph.root with
      | Some Callgraph.Resident ->
          let seen = Array.make (Callgraph.size g) false in
          let q = Queue.create () in
          seen.(r.Callgraph.id) <- true;
          Queue.add r.Callgraph.id q;
          while not (Queue.is_empty q) do
            let id = Queue.pop q in
            let n = g.Callgraph.nodes.(id) in
            List.iter
              (fun (rs : Callgraph.raise_site) ->
                if not rs.Callgraph.deliberate then
                  let key = loc_string rs.Callgraph.raise_loc in
                  if not (Hashtbl.mem reported key) then (
                    Hashtbl.replace reported key ();
                    if t.boundary.(id) || line_suppressed t rs.Callgraph.raise_loc
                    then t.suppressed <- t.suppressed + 1
                    else
                      acc :=
                        {
                          rule = Rule.L7;
                          node = n.Callgraph.name;
                          loc = rs.Callgraph.raise_loc;
                          message =
                            Printf.sprintf
                              "%s in %s can escape resident loop %s with no \
                               handler: a silently dead domain"
                              rs.Callgraph.raise_prim n.Callgraph.name
                              r.Callgraph.name;
                        }
                        :: !acc))
              n.Callgraph.raises;
            List.iter
              (fun (e : Callgraph.edge) ->
                if (not e.Callgraph.under_try) && not seen.(e.Callgraph.callee)
                then (
                  seen.(e.Callgraph.callee) <- true;
                  Queue.add e.Callgraph.callee q))
              n.Callgraph.edges
          done
      | _ -> ())
    g.Callgraph.nodes;
  List.rev !acc

(* --- L8: single-context Atomic.t ---------------------------------- *)

let l8_findings t =
  let by_key = Hashtbl.create 32 in
  Array.iter
    (fun (n : Callgraph.node) ->
      List.iter
        (fun (a : Callgraph.atomic_access) ->
          let crossing = t.crossing.(n.Callgraph.id) in
          match Hashtbl.find_opt by_key a.Callgraph.atom_key with
          | None ->
              Hashtbl.replace by_key a.Callgraph.atom_key
                (a.Callgraph.atom, a.Callgraph.atom_loc, n.Callgraph.name,
                 crossing)
          | Some (atom, loc, node, seen_crossing) ->
              let first_loc, first_node =
                let p (l : Location.t) = l.Location.loc_start in
                let a_p = p a.Callgraph.atom_loc and l_p = p loc in
                if
                  String.compare a_p.Lexing.pos_fname l_p.Lexing.pos_fname < 0
                  || String.equal a_p.Lexing.pos_fname l_p.Lexing.pos_fname
                     && a_p.Lexing.pos_lnum < l_p.Lexing.pos_lnum
                then (a.Callgraph.atom_loc, n.Callgraph.name)
                else (loc, node)
              in
              Hashtbl.replace by_key a.Callgraph.atom_key
                (atom, first_loc, first_node, seen_crossing || crossing))
        n.Callgraph.atomics)
    t.graph.Callgraph.nodes;
  let acc = ref [] in
  Hashtbl.iter
    (fun _ (atom, loc, node, crossing) ->
      if not crossing then
        if line_suppressed t loc then t.suppressed <- t.suppressed + 1
        else
          acc :=
            {
              rule = Rule.L8;
              node;
              loc;
              message =
                Printf.sprintf
                  "Atomic.t %s is only accessed outside the domain-crossing \
                   set: plain mutable state would do"
                  atom;
            }
            :: !acc)
    by_key;
  List.sort
    (fun a b ->
      let pa = a.loc.Location.loc_start and pb = b.loc.Location.loc_start in
      let c = String.compare pa.Lexing.pos_fname pb.Lexing.pos_fname in
      if c <> 0 then c else Int.compare pa.Lexing.pos_lnum pb.Lexing.pos_lnum)
    !acc

(* --- DOT rendering ------------------------------------------------- *)

(* Only the interesting subgraph: roots, the crossing and resident
   sets, and owner boundaries.  The full graph is an order of
   magnitude larger and all background. *)
let to_dot t =
  let g = t.graph in
  let included (n : Callgraph.node) =
    t.crossing.(n.Callgraph.id)
    || t.resident.(n.Callgraph.id)
    || t.boundary.(n.Callgraph.id)
    || match n.Callgraph.root with Some _ -> true | None -> false
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph domain_safety {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, style=filled];\n";
  Array.iter
    (fun (n : Callgraph.node) ->
      if included n then (
        let color =
          match n.Callgraph.root with
          | Some Callgraph.Resident -> "salmon"
          | Some Callgraph.Parallel -> "orange"
          | None ->
              if t.boundary.(n.Callgraph.id) then "lightblue"
              else if t.resident.(n.Callgraph.id) then "mistyrose"
              else "lightgray"
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\", fillcolor=%s];\n"
             n.Callgraph.id
             (String.concat "\\n"
                [ n.Callgraph.name;
                  Printf.sprintf "%s:%d" n.Callgraph.file n.Callgraph.line ])
             color)))
    g.Callgraph.nodes;
  Array.iter
    (fun (n : Callgraph.node) ->
      if included n then
        List.iter
          (fun (e : Callgraph.edge) ->
            if included g.Callgraph.nodes.(e.Callgraph.callee) then
              Buffer.add_string buf
                (Printf.sprintf "  n%d -> n%d%s;\n" n.Callgraph.id
                   e.Callgraph.callee
                   (if e.Callgraph.under_try then " [style=dashed]" else "")))
          n.Callgraph.edges)
    g.Callgraph.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* The seeded stream generator of the benchmark's workloads (their
   parameters live in workloads.json).

   Every stream is a pure function of (workload, seed).  Link toggles
   are stationary: the generator mirrors each shard's live and failed
   edge sets (and, through destination crashes, its dead nodes and the
   elected leader), so a toggle fails a live edge or restores a failed
   one, and each shard's failed-link share stays near a fixed target
   instead of draining or densifying the graph. *)

module Wl = Lr_service.Workload
module Op = Lr_service.Op

type t = {
  name : string;
  shards : int;
  nodes : int;
  extra_edges : int;
  skew : float;  (* Zipf exponent of shard popularity *)
  base_ops : int;  (* ops before chaos weaving *)
  route : int;  (* mix weights, rolled in one die *)
  toggle : int;
  inject : int;
  forward : int;
  burst : int;  (* packets per Inject, slots per Forward *)
  crash_every : int;  (* one destination crash per this many ops; 0 = none *)
  fault_every : int;  (* one chaos fault per this many ops; 0 = none *)
  failed_target : float;  (* per-shard failed-link share the toggles hold *)
}

(* The parameters as named in workloads.json. *)
let of_params name get =
  let int k = int_of_string (get k) and float k = float_of_string (get k) in
  { name; shards = int "shards"; nodes = int "nodes";
    extra_edges = int "extra_edges"; skew = float "skew"; base_ops = int "ops";
    route = int "route"; toggle = int "toggle"; inject = int "inject";
    forward = int "forward"; burst = int "burst"; crash_every = int "crash_every";
    fault_every = int "fault_every"; failed_target = float "failed_target" }

(* The lrw1 header of a generated stream.  The mix weights are
   descriptive: a stationary stream is not [Workload.generate]'s. *)
let spec w ~seed ~ops =
  { Wl.shards = w.shards; nodes = w.nodes; extra_edges = w.extra_edges; seed;
    ops;
    mix =
      { Wl.route = w.route; churn = w.toggle;
        crash = (if w.crash_every > 0 then 1 else 0) };
    pmix = { Wl.inject = w.inject; forward = w.forward };
    burst = w.burst; skew = w.skew; stats_every = 0 }

(* {1 Shard mirror} *)

(* A set of undirected edges with O(1) insert, delete and uniform
   random pick: a dense array plus a position index, swap-delete. *)
module Bag = struct
  type t = {
    mutable items : (int * int) array;
    mutable len : int;
    pos : (int * int, int) Hashtbl.t;
  }

  let create () = { items = Array.make 16 (0, 0); len = 0; pos = Hashtbl.create 64 }
  let length b = b.len

  let add b e =
    if b.len = Array.length b.items then begin
      let bigger = Array.make (2 * b.len) (0, 0) in
      Array.blit b.items 0 bigger 0 b.len;
      b.items <- bigger
    end;
    b.items.(b.len) <- e;
    Hashtbl.replace b.pos e b.len;
    b.len <- b.len + 1

  let remove b e =
    match Hashtbl.find_opt b.pos e with
    | None -> ()
    | Some i ->
        let last = b.items.(b.len - 1) in
        b.items.(i) <- last;
        Hashtbl.replace b.pos last i;
        Hashtbl.remove b.pos e;
        b.len <- b.len - 1

  let pick rng b = b.items.(Random.State.int rng b.len)
  let to_list b = List.init b.len (fun i -> b.items.(i))
end

type mirror = {
  n : int;
  live : Bag.t;
  failed : Bag.t;
  dead : bool array;
  mutable dest : int;
}

let mirror_of_config n (c : Linkrev.Config.t) =
  let live = Bag.create () in
  List.iter
    (fun (u, v) -> Bag.add live (min u v, max u v))
    (Lr_graph.Digraph.directed_edges c.Linkrev.Config.initial);
  { n; live; failed = Bag.create (); dead = Array.make n false;
    dest = c.Linkrev.Config.destination }

(* Fail a live edge while the shard is below its failed-link target,
   otherwise restore a failed one. *)
let toggle rng w m ~shard =
  let total = Bag.length m.live + Bag.length m.failed in
  let target = int_of_float (Float.round (w.failed_target *. float_of_int total)) in
  let down = Bag.length m.failed < target || Bag.length m.failed = 0 in
  let from, into = if down then (m.live, m.failed) else (m.failed, m.live) in
  let ((u, v) as e) = Bag.pick rng from in
  Bag.remove from e;
  Bag.add into e;
  if down then Op.Link_down { shard; u; v } else Op.Link_up { shard; u; v }

(* Mirror of [Shard.crash_destination]: strip the destination's links
   (a failed link touching it can never come back), mark it dead, and
   elect the highest id of the largest surviving component, ties to
   the greater leader. *)
let crash m =
  let old = m.dest in
  let touches (u, v) = u = old || v = old in
  List.iter (fun e -> if touches e then Bag.remove m.live e) (Bag.to_list m.live);
  List.iter
    (fun e -> if touches e then Bag.remove m.failed e)
    (Bag.to_list m.failed);
  m.dead.(old) <- true;
  let parent = Array.init m.n Fun.id in
  let rec root u = if parent.(u) = u then u else root parent.(u) in
  List.iter
    (fun (u, v) ->
      let ru = root u and rv = root v in
      if ru <> rv then parent.(ru) <- rv)
    (Bag.to_list m.live);
  let size = Array.make m.n 0 and top = Array.make m.n (-1) in
  for u = 0 to m.n - 1 do
    if not m.dead.(u) then begin
      let r = root u in
      size.(r) <- size.(r) + 1;
      top.(r) <- max top.(r) u
    end
  done;
  let best = ref (-1) in
  for r = 0 to m.n - 1 do
    if size.(r) > 0 then
      if
        !best < 0
        || size.(r) > size.(!best)
        || (size.(r) = size.(!best) && top.(r) > top.(!best))
      then best := r
  done;
  if !best >= 0 then m.dest <- top.(!best)

(* {1 Streams} *)

let rng_of seed salt = Random.State.make [| 0x70657266; seed; salt |]

let zipf_cumulative w =
  let cum = Array.make w.shards 0.0 in
  let total = ref 0.0 in
  for i = 0 to w.shards - 1 do
    total := !total +. (float_of_int (i + 1) ** -.w.skew);
    cum.(i) <- !total
  done;
  cum

let pick_shard rng cum =
  let r = Random.State.float rng cum.(Array.length cum - 1) in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r <= cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* {1 Faults} *)

(* A flip of bit b on a node that routes depend on (the destination,
   say) makes Partial Reversal climb a ladder of about 2^b levels:
   1.4 s at b = 18 on 256 nodes.  The schedule draws b up to 30, which
   would run for hours, so the benchmark caps it. *)
let max_flip_bit = 10

let cap_flip = function
  | Op.Flip f -> Op.Flip { f with bit = f.bit mod (max_flip_bit + 1) }
  | op -> op

(* The base stream, then the chaos schedule of [fault_seed] woven in.
   The schedule seed is separate from the stream seed so that a run can
   hold its fault scenario fixed while topologies and traffic vary. *)
let generate w ~seed ~fault_seed =
  let base_spec = spec w ~seed ~ops:w.base_ops in
  let configs = Wl.shard_configs base_spec in
  let mirrors = Array.map (mirror_of_config w.nodes) configs in
  let rng = rng_of seed 0 in
  let cum = zipf_cumulative w in
  let total = w.route + w.toggle + w.inject + w.forward in
  let base =
    Array.init w.base_ops (fun k ->
        let shard = pick_shard rng cum in
        if w.crash_every > 0 && (k + 1) mod w.crash_every = 0 then begin
          crash mirrors.(shard);
          Op.Crash_destination { shard }
        end
        else
          let roll = Random.State.int rng total in
          if roll < w.route then
            Op.Route { shard; src = Random.State.int rng w.nodes }
          else if roll < w.route + w.toggle then
            toggle rng w mirrors.(shard) ~shard
          else if roll < w.route + w.toggle + w.inject then
            Op.Inject { shard; src = Random.State.int rng w.nodes; count = w.burst }
          else Op.Forward { shard; slots = w.burst })
  in
  let ops =
    if w.fault_every <= 0 then base
    else
      let cspec =
        { Lr_chaos.Schedule.count = w.base_ops / w.fault_every;
          seed = fault_seed;
          magnitude = Lr_chaos.Schedule.default_magnitude }
      in
      let sched =
        Lr_chaos.Schedule.generate cspec ~shards:w.shards ~nodes:w.nodes
      in
      let graphs =
        Array.map (fun (c : Linkrev.Config.t) -> c.Linkrev.Config.initial) configs
      in
      Array.map cap_flip (Lr_chaos.Schedule.weave sched ~graphs base)
  in
  (spec w ~seed ~ops:(Array.length ops), ops)

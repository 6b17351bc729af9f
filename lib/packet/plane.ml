module G = Lr_fast.Fast_graph

type t = {
  n : int;
  dest : int;
  qcap : int;
  cap : int;
  adj : G.Dyn.t;
  (* Heights, keyed by node slot; the third lexicographic component is
     the id itself.  Edge orientation is derived: higher -> lower. *)
  ha : int array;
  hb : int array;
  (* Every queue in one ring array: node [u]'s queue is the circular
     buffer [ring.(u * qcap) .. ring.(u * qcap + qcap - 1)], starting at
     offset [qhead.(u)] and holding [qlen.(u)] packet ids. *)
  ring : int array;
  qhead : int array;
  qlen : int array;
  (* The nodes with a non-empty queue, ascending: [occ.(0 .. occ_len-1)].
     The destination never queues, so it never appears. *)
  occ : int array;
  mutable occ_len : int;
  (* Packet store: struct-of-arrays plus a free-id stack, grown by
     doubling, so a steady-state slot allocates only its outcome. *)
  mutable psrc : int array;
  mutable pdist : int array;
  mutable phops : int array;
  mutable free : int array;
  mutable free_len : int;
  mutable pcap : int;
  (* Per-slot scratch: staged arrivals (merged after the sweep), the
     nodes they newly occupy, and the reversal list.  [in_add] is zero
     between slots. *)
  in_add : int array;
  stage_node : int array;
  stage_pkt : int array;
  fresh : int array;
  rev_list : int array;
  (* BFS hop distance from the destination over the current skeleton,
     recomputed lazily after churn (birth distances for stretch). *)
  dist : int array;
  mutable dist_valid : bool;
  bfs_q : int array;
  mutable injected : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable reversals : int;
  mutable hops_sum : int;
  mutable dist_sum : int;
  mutable queued : int;
  mutable high_water : int;
  mutable slots : int;
}

let num_nodes t = t.n
let destination t = t.dest
let queue_capacity t = t.qcap
let queue_length t u = t.qlen.(u)
let queued t = t.queued
let high_water t = t.high_water
let height t u = (t.ha.(u), t.hb.(u))

(* Same order as Fast_maintenance.compare_heights. *)
let compare_heights t u v =
  if t.ha.(u) <> t.ha.(v) then compare t.ha.(u) t.ha.(v)
  else if t.hb.(u) <> t.hb.(v) then compare t.hb.(u) t.hb.(v)
  else compare u v

let edge_out t u v = compare_heights t u v > 0

(* Deterministic topological seeding from the given orientation: Kahn's
   algorithm with a FIFO queue seeded in ascending id order, releasing
   each popped node's out-neighbours in (ascending) row order.  Node
   popped [k]-th gets [hb = n - k], so every edge points from its
   earlier-popped (higher-[hb]) endpoint to the later one — the derived
   orientation reproduces [edge_out] exactly, on every maintenance-engine
   tier alike.  [in_add] serves as the in-degree table (all zero again
   once every node is placed) and [bfs_q] as the queue.  False iff the
   orientation is cyclic. *)
let topological_heights t ~edge_out =
  let n = t.n and adj = t.adj and indeg = t.in_add and q = t.bfs_q in
  for u = 0 to n - 1 do
    for i = 0 to G.Dyn.degree adj u - 1 do
      if not (edge_out u (G.Dyn.nbr adj u i)) then indeg.(u) <- indeg.(u) + 1
    done
  done;
  let tail = ref 0 in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then begin
      q.(!tail) <- u;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    t.hb.(u) <- n - !head;
    for i = 0 to G.Dyn.degree adj u - 1 do
      let w = G.Dyn.nbr adj u i in
      if edge_out u w then begin
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then begin
          q.(!tail) <- w;
          incr tail
        end
      end
    done
  done;
  if !head = n then true
  else begin
    Array.fill indeg 0 n 0;
    false
  end

type seed_error = Cyclic

let seed ?(qcap = 64) ?(cap = 1) ?heights ~destination ~edge_out adj =
  if qcap < 1 then invalid_arg "Plane.seed: qcap < 1";
  if cap < 1 then invalid_arg "Plane.seed: cap < 1";
  let n = G.Dyn.num_nodes adj in
  if destination < 0 || destination >= n then
    invalid_arg "Plane.seed: destination out of range";
  let pcap = 256 in
  let t =
    {
      n;
      dest = destination;
      qcap;
      cap;
      adj;
      ha = Array.make n 0;
      hb = Array.make n 0;
      ring = Array.make (n * qcap) 0;
      qhead = Array.make n 0;
      qlen = Array.make n 0;
      occ = Array.make n 0;
      occ_len = 0;
      psrc = Array.make pcap 0;
      pdist = Array.make pcap 0;
      phops = Array.make pcap 0;
      free = Array.init pcap (fun i -> pcap - 1 - i);
      free_len = pcap;
      pcap;
      in_add = Array.make n 0;
      stage_node = Array.make (n * cap) 0;
      stage_pkt = Array.make (n * cap) 0;
      fresh = Array.make n 0;
      rev_list = Array.make n 0;
      dist = Array.make n (-1);
      dist_valid = false;
      bfs_q = Array.make n 0;
      injected = 0;
      dropped = 0;
      delivered = 0;
      reversals = 0;
      hops_sum = 0;
      dist_sum = 0;
      queued = 0;
      high_water = 0;
      slots = 0;
    }
  in
  match heights with
  | Some (a, b) ->
      if Array.length a <> n || Array.length b <> n then
        invalid_arg "Plane.seed: mis-sized height arrays";
      Array.blit a 0 t.ha 0 n;
      Array.blit b 0 t.hb 0 n;
      Ok t
  | None -> if topological_heights t ~edge_out then Ok t else Error Cyclic

let create ?qcap ?cap ?heights config =
  let g = G.of_config config in
  let initial = config.Linkrev.Config.initial in
  let edge_out u w =
    Lr_graph.Digraph.(direction_equal (dir initial u w) Out)
  in
  match seed ?qcap ?cap ?heights ~destination:g.G.destination ~edge_out (G.Dyn.of_graph g) with
  | Ok t -> t
  | Error Cyclic -> invalid_arg "Plane.create: initial orientation is cyclic"

(* {1 Packet store} *)

let alloc t =
  if t.free_len = 0 then begin
    let ncap = 2 * t.pcap in
    let ext a =
      let b = Array.make ncap 0 in
      Array.blit a 0 b 0 t.pcap;
      b
    in
    t.psrc <- ext t.psrc;
    t.pdist <- ext t.pdist;
    t.phops <- ext t.phops;
    let nfree = Array.make ncap 0 in
    for i = 0 to ncap - t.pcap - 1 do
      nfree.(i) <- ncap - 1 - i
    done;
    t.free <- nfree;
    t.free_len <- ncap - t.pcap;
    t.pcap <- ncap
  end;
  t.free_len <- t.free_len - 1;
  t.free.(t.free_len)

let free_pkt t id =
  t.free.(t.free_len) <- id;
  t.free_len <- t.free_len + 1

(* {1 Birth distances} *)

let ensure_dist t =
  if not t.dist_valid then begin
    Array.fill t.dist 0 t.n (-1);
    t.dist.(t.dest) <- 0;
    t.bfs_q.(0) <- t.dest;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = t.bfs_q.(!head) in
      incr head;
      for i = 0 to G.Dyn.degree t.adj u - 1 do
        let w = G.Dyn.nbr t.adj u i in
        if t.dist.(w) < 0 then begin
          t.dist.(w) <- t.dist.(u) + 1;
          t.bfs_q.(!tail) <- w;
          incr tail
        end
      done
    done;
    t.dist_valid <- true
  end

(* {1 Queues} *)

(* Ring-array FIFO primitives; callers check room and emptiness. *)
let push t u id =
  let j = t.qhead.(u) + t.qlen.(u) in
  t.ring.((u * t.qcap) + if j >= t.qcap then j - t.qcap else j) <- id;
  t.qlen.(u) <- t.qlen.(u) + 1

let pop t u =
  let h = t.qhead.(u) in
  let id = t.ring.((u * t.qcap) + h) in
  t.qhead.(u) <- (if h + 1 = t.qcap then 0 else h + 1);
  t.qlen.(u) <- t.qlen.(u) - 1;
  id

(* Insert a newly occupied node into the ascending occupied list. *)
let occupy t u =
  let i = ref t.occ_len in
  while !i > 0 && t.occ.(!i - 1) > u do
    t.occ.(!i) <- t.occ.(!i - 1);
    decr i
  done;
  t.occ.(!i) <- u;
  t.occ_len <- t.occ_len + 1

(* {1 Traffic} *)

let inject t ~src ~count =
  if src < 0 || src >= t.n then invalid_arg "Plane.inject: src out of range";
  if count < 0 then invalid_arg "Plane.inject: negative count";
  ensure_dist t;
  let accepted = ref 0 and dropped = ref 0 in
  for _ = 1 to count do
    if src = t.dest then begin
      t.injected <- t.injected + 1;
      t.delivered <- t.delivered + 1;
      incr accepted
    end
    else if t.qlen.(src) = t.qcap then begin
      t.dropped <- t.dropped + 1;
      incr dropped
    end
    else begin
      let id = alloc t in
      t.psrc.(id) <- src;
      t.pdist.(id) <- (if t.dist.(src) > 0 then t.dist.(src) else 0);
      t.phops.(id) <- 0;
      if t.qlen.(src) = 0 then occupy t src;
      push t src id;
      t.queued <- t.queued + 1;
      t.injected <- t.injected + 1;
      incr accepted;
      let l = t.qlen.(src) in
      if l > t.high_water then t.high_water <- l
    end
  done;
  (!accepted, !dropped)

(* One partial-reversal height raise, as in the engine's repair step;
   reversal scheduling here is queue-driven, not a sink worklist. *)
let pr_step t u =
  if G.Dyn.degree t.adj u > 0 then begin
    Lr_routing.Fast_maintenance.pr_raise t.adj t.ha t.hb u;
    t.reversals <- t.reversals + 1
  end

type slot_outcome = { delivered : int; reversals : int }

let slot (t : t) =
  let delivered0 = t.delivered and rev0 = t.reversals in
  let staged = ref 0 and nrev = ref 0 in
  (* Only occupied nodes can transmit, and a queue only shrinks during
     the sweep (arrivals are staged), so sweeping the occupied list
     ascending makes exactly the decisions of a sweep over all nodes. *)
  for k = 0 to t.occ_len - 1 do
    let u = t.occ.(k) in
    let sent = ref 0 and blocked = ref false in
    while (not !blocked) && !sent < t.cap && t.qlen.(u) > 0 do
      let qu = t.qlen.(u) in
      let d = G.Dyn.degree t.adj u in
      (* Max positive differential among out-neighbours with receive
         room; ties to the lower id.  [best_raw] ignores room — it
         separates congestion from orientation below. *)
      let best_w = ref (-1) and best_diff = ref 0 and best_raw = ref min_int in
      for i = 0 to d - 1 do
        let w = G.Dyn.nbr t.adj u i in
        if edge_out t u w then begin
          let qw = if w = t.dest then 0 else t.qlen.(w) + t.in_add.(w) in
          let raw = qu - qw in
          if raw > !best_raw then best_raw := raw;
          if
            raw > 0
            && (w = t.dest || qw < t.qcap)
            && (raw > !best_diff || (raw = !best_diff && (!best_w < 0 || w < !best_w)))
          then begin
            best_diff := raw;
            best_w := w
          end
        end
      done;
      if !best_w >= 0 then begin
        let w = !best_w in
        let pkt = pop t u in
        t.phops.(pkt) <- t.phops.(pkt) + 1;
        if w = t.dest then begin
          t.delivered <- t.delivered + 1;
          t.queued <- t.queued - 1;
          if t.pdist.(pkt) > 0 then begin
            t.hops_sum <- t.hops_sum + t.phops.(pkt);
            t.dist_sum <- t.dist_sum + t.pdist.(pkt)
          end;
          free_pkt t pkt
        end
        else begin
          t.stage_node.(!staged) <- w;
          t.stage_pkt.(!staged) <- pkt;
          incr staged;
          t.in_add.(w) <- t.in_add.(w) + 1
        end;
        incr sent
      end
      else begin
        blocked := true;
        (* Reversal trigger: held packets, sent nothing this slot, and
           the block is orientational — no out-edge at all, or no
           out-neighbour with a positive differential.  A positive
           differential into a full queue is congestion: wait, do not
           re-point the DAG. *)
        if !sent = 0 && d > 0 && !best_raw <= 0 then begin
          t.rev_list.(!nrev) <- u;
          incr nrev
        end
      end
    done
  done;
  (* Drop the nodes that emptied, keeping the list ascending. *)
  let kept = ref 0 in
  for k = 0 to t.occ_len - 1 do
    let u = t.occ.(k) in
    if t.qlen.(u) > 0 then begin
      t.occ.(!kept) <- u;
      incr kept
    end
  done;
  (* Merge staged arrivals: room was reserved via [in_add], so no push
     can overflow.  A target whose queue was empty is newly occupied —
     it cannot be in the kept list, which holds non-empty queues only. *)
  let nfresh = ref 0 in
  for i = 0 to !staged - 1 do
    let w = t.stage_node.(i) in
    t.in_add.(w) <- 0;
    if t.qlen.(w) = 0 then begin
      t.fresh.(!nfresh) <- w;
      incr nfresh
    end;
    push t w t.stage_pkt.(i);
    let l = t.qlen.(w) in
    if l > t.high_water then t.high_water <- l
  done;
  (* Sort the newly occupied nodes (insertion sort: there are few), then
     merge them into the kept list from the back, in place. *)
  for i = 1 to !nfresh - 1 do
    let x = t.fresh.(i) in
    let j = ref i in
    while !j > 0 && t.fresh.(!j - 1) > x do
      t.fresh.(!j) <- t.fresh.(!j - 1);
      decr j
    done;
    t.fresh.(!j) <- x
  done;
  let a = ref (!kept - 1) and b = ref (!nfresh - 1) in
  for k = !kept + !nfresh - 1 downto 0 do
    if !b < 0 || (!a >= 0 && t.occ.(!a) > t.fresh.(!b)) then begin
      t.occ.(k) <- t.occ.(!a);
      decr a
    end
    else begin
      t.occ.(k) <- t.fresh.(!b);
      decr b
    end
  done;
  t.occ_len <- !kept + !nfresh;
  for i = 0 to !nrev - 1 do
    pr_step t t.rev_list.(i)
  done;
  t.slots <- t.slots + 1;
  { delivered = t.delivered - delivered0; reversals = t.reversals - rev0 }

(* {1 Topology churn} *)

let mem_edge t u v = G.Dyn.mem_edge t.adj u v

let remove_link t u v =
  G.Dyn.remove_edge t.adj u v;
  t.dist_valid <- false

let add_link t u v =
  G.Dyn.add_edge t.adj u v;
  t.dist_valid <- false

(* {1 Observation} *)

type counters = {
  injected : int;
  dropped : int;
  delivered : int;
  reversals : int;
  hops_sum : int;
  dist_sum : int;
  slots : int;
}

let counters (t : t) =
  {
    injected = t.injected;
    dropped = t.dropped;
    delivered = t.delivered;
    reversals = t.reversals;
    hops_sum = t.hops_sum;
    dist_sum = t.dist_sum;
    slots = t.slots;
  }

let stretch (t : t) =
  if t.dist_sum = 0 then 0. else float_of_int t.hops_sum /. float_of_int t.dist_sum

let hops_sum (t : t) = t.hops_sum

(* Walks every ring queue, so it also catches a corrupt [qhead]. *)
let consistent (t : t) =
  let total = ref 0 and ok = ref true and occupied = ref 0 in
  let seen = Array.make t.pcap false in
  for u = 0 to t.n - 1 do
    let l = t.qlen.(u) in
    if l < 0 || l > t.qcap || t.qhead.(u) < 0 || t.qhead.(u) >= t.qcap then ok := false
    else begin
      total := !total + l;
      if l > 0 then
        if u = t.dest then ok := false else incr occupied;
      for i = 0 to l - 1 do
        let j = t.qhead.(u) + i in
        let id = t.ring.((u * t.qcap) + if j >= t.qcap then j - t.qcap else j) in
        if id < 0 || id >= t.pcap || seen.(id) then ok := false
        else seen.(id) <- true
      done
    end;
    if t.in_add.(u) <> 0 then ok := false
  done;
  (* The occupied list: strictly ascending, every member non-empty
     (hence not the destination), and as many members as non-empty
     queues — so exactly those. *)
  for k = 0 to t.occ_len - 1 do
    let u = t.occ.(k) in
    if u < 0 || u >= t.n || t.qlen.(u) <= 0 || (k > 0 && t.occ.(k - 1) >= u) then
      ok := false
  done;
  !ok && t.occ_len = !occupied && !total = t.queued
  && t.injected = t.delivered + t.queued

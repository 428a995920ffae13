module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Engine = Tivaware_measure.Engine
module Oracle = Tivaware_measure.Oracle
module Obs = Tivaware_obs
module Alert = Tivaware_tiv.Alert
module Vivaldi = Tivaware_vivaldi.System

type config = {
  max_degree : int;
  refresh_sample : int;
}

let default_config = { max_degree = 6; refresh_sample = 16 }

(* What refresh learns from its own measurements, made by the first
   pass that has two members: [build] does no work for it. *)
type learned = {
  coords : Vivaldi.t;  (* fed only by the delays refresh measures *)
  shortlist : int array;
  (* [shortlist_size] slots per node, best measured cost first, -1
     after the last entry *)
}

(* Candidates sorted by cost, equal costs in insertion order as
   [List.stable_sort] leaves them, each with a flag. *)
type sorted = {
  costs : float array;
  cands : int array;
  flags : bool array;
  mutable len : int;
}

(* The arrays one refresh pass works in, made by the first pass and
   reused by every later one, so that a pass allocates O(its probes). *)
type scratch = {
  ascending : int array;  (* the joined members, ascending, in front *)
  order : int array;  (* the same members, shuffled: the visiting order *)
  root_delay : float array;
  depth : int array;  (* [walk]'s memo *)
  pool : int array;  (* one member's eligible candidates, each once *)
  mutable pooled : int;
  stamp : int array;  (* stamp.(c) = tick of the member whose pool holds c *)
  mutable tick : int;
  ranked : sorted;  (* by predicted cost *)
  measured : sorted;  (* by measured cost, flagged when shrunk *)
  next_shortlist : int array;
}

type t = {
  config : config;
  root : int;
  parent : int array;  (* -1 = root or not joined *)
  kids : int list array;  (* ascending: kids.(p) = {c | parent.(c) = p} *)
  wants : bool array;
  (* group membership intent: everyone from the join order; a detached
     node with [wants] set rejoins when repair finds it up again *)
  mutable learned : learned option;
  mutable scratch : scratch option;
}

(* The root never takes a parent, and every other member has one. *)
let joined t node = node = t.root || t.parent.(node) >= 0
let degree t node = List.length t.kids.(node)

(* The only writers of [parent] and [kids]: [detach] frees the node's
   slot at its parent at once, and [attach] moves the node under [p],
   keeping [p]'s children in ascending order. *)
let detach t node =
  let p = t.parent.(node) in
  if p >= 0 then begin
    t.kids.(p) <- List.filter (( <> ) node) t.kids.(p);
    t.parent.(node) <- -1
  end

let attach t node p =
  detach t node;
  let rec insert = function
    | c :: rest when c < node -> c :: insert rest
    | rest -> node :: rest
  in
  t.kids.(p) <- insert t.kids.(p);
  t.parent.(node) <- p


let parent t node =
  let p = t.parent.(node) in
  if p >= 0 then Some p else None

let members t = List.filter (joined t) (List.init (Array.length t.parent) Fun.id)

let children t node = t.kids.(node)

(* Edge existence against the engine's ground truth, whatever backs
   it: a matrix pair is known iff its oracle query is non-nan, so this
   matches [Matrix.known] exactly on matrix engines and extends to
   lazy backend engines. *)
let known_of_engine engine i j =
  i <> j && not (Float.is_nan (Oracle.query (Engine.oracle engine) i j))

(* The attachment predictor: an override, else a probe through the
   engine charged under [label]. *)
let predictor ~label ?predict engine =
  match predict with Some p -> p | None -> Engine.rtt ~label engine

(* Predicted-nearest joined member with spare degree among candidates. *)
let best_attachment t ~known ~predict node candidates =
  Stats.argmin
    (fun cand ->
      if
        cand <> node && joined t cand
        && degree t cand < t.config.max_degree
        && known node cand
      then predict node cand
      else Float.nan)
    candidates

(* Joins predict edge delays by probing through the engine unless
   [predict] overrides; edge existence consults the engine's ground
   truth directly (matrix or lazy backend alike). *)
let build ?(config = default_config) ?(label = "multicast") ?predict engine
    ~join_order =
  if Array.length join_order = 0 then
    invalid_arg "Multicast.build: join_order must be non-empty";
  if config.max_degree < 1 then
    invalid_arg
      (Printf.sprintf "Multicast.build: max_degree must be >= 1 (got %d)"
         config.max_degree);
  if config.refresh_sample < 1 then
    invalid_arg
      (Printf.sprintf "Multicast.build: refresh_sample must be >= 1 (got %d)"
         config.refresh_sample);
  let known = known_of_engine engine in
  let predict = predictor ~label ?predict engine in
  let n = Engine.size engine in
  let t =
    {
      config;
      root = join_order.(0);
      parent = Array.make n (-1);
      kids = Array.make n [];
      wants = Array.make n false;
      learned = None;
      scratch = None;
    }
  in
  Array.iter (fun node -> t.wants.(node) <- true) join_order;
  let member_list = ref [ t.root ] in
  Array.iteri
    (fun idx node ->
      if idx > 0 && not (joined t node) then begin
        match best_attachment t ~known ~predict node !member_list with
        | Some (chosen, _) ->
          attach t node chosen;
          member_list := node :: !member_list
        | None -> ()
      end)
    join_order;
  t

(* Is [candidate] in the subtree rooted at [node]?  Switching to a
   descendant would create a cycle. *)
let in_subtree t node candidate =
  (* At most n steps: a corrupted tree with a parent cycle ends the
     ascent rather than the program. *)
  let cur = ref candidate and steps = ref (Array.length t.parent) in
  while !steps >= 0 && !cur <> node && !cur <> t.root && !cur >= 0 do
    cur := t.parent.(!cur);
    decr steps
  done;
  !steps >= 0 && !cur = node

(* The one tree walk: fills [depth] with every node's depth below the
   root by memoised ascent, -1 for non-members and for members on a
   parent cycle or below a non-member.  [visit node p] runs once per
   member that reaches the root, after it has run for [p]. *)
let walk ~visit ~depth t =
  (* -2 = not reached yet; a node is marked -1 before its ascent, so a
     cycle ends there. *)
  Array.fill depth 0 (Array.length depth) (-2);
  depth.(t.root) <- 0;
  let rec resolve node =
    if depth.(node) = -2 then begin
      depth.(node) <- -1;
      let p = t.parent.(node) in
      if p >= 0 && resolve p >= 0 then begin
        visit node p;
        depth.(node) <- depth.(p) + 1
      end
    end;
    depth.(node)
  in
  for node = 0 to Array.length depth - 1 do ignore (resolve node) done

let depths ?(visit = fun _ _ -> ()) t =
  let depth = Array.make (Array.length t.parent) (-1) in
  walk ~visit ~depth t;
  depth

(* The ranked rule.  A member probes every eligible candidate until
   its coordinate's error estimate falls below [converged_error]; from
   then on only the [ranked_probes] best by predicted cost among those
   predicted to beat its current cost. *)

(* Three dimensions rank a handful of candidates about as well as
   Vivaldi's five, for less work per comparison. *)
let coord_dim = 3

(* Vivaldi's error estimate is a relative error: below one half, the
   coordinates rank candidates mostly in their measured order. *)
let converged_error = 0.5

(* Reaches past one or two mis-ranked candidates, below the ~5 eligible
   ones a converged member measures under the measure-all rule. *)
let ranked_probes = 3

(* Fresh draws per ranked member: enough to keep finding shallow
   parents, half the measure-all sample so that coordinate error seldom
   ranks an uncached pair into the top k. *)
let ranked_sample = 8

(* A shortlist and the parent edge for each of ~400 members stay inside
   a 4096-entry probe cache. *)
let shortlist_size = 4

(* A candidate measured at more than twice its coordinate distance sits
   on an edge the embedding shrank (Section 5.1): its prediction is not
   worth ranking on. *)
let alert_threshold = 0.5

let learned t rng engine =
  match t.learned with
  | Some l -> l
  | None ->
    (* No probing neighbours of its own: refresh decides what each
       coordinate observes. *)
    let config =
      { Vivaldi.default_config with dim = coord_dim; neighbors_per_node = 0 }
    in
    let l =
      {
        coords = Vivaldi.create_with_engine ~config rng engine;
        shortlist = Array.make (Array.length t.parent * shortlist_size) (-1);
      }
    in
    t.learned <- Some l;
    l

let sorted capacity =
  {
    costs = Array.make capacity nan;
    cands = Array.make capacity 0;
    flags = Array.make capacity false;
    len = 0;
  }

let insert b cost c flag =
  let i = ref b.len in
  while !i > 0 && Float.compare b.costs.(!i - 1) cost > 0 do
    b.costs.(!i) <- b.costs.(!i - 1);
    b.cands.(!i) <- b.cands.(!i - 1);
    b.flags.(!i) <- b.flags.(!i - 1);
    decr i
  done;
  b.costs.(!i) <- cost;
  b.cands.(!i) <- c;
  b.flags.(!i) <- flag;
  b.len <- b.len + 1

let scratch t =
  match t.scratch with
  | Some s -> s
  | None ->
    let n = Array.length t.parent in
    let pool = shortlist_size + max t.config.refresh_sample ranked_sample in
    let s =
      {
        ascending = Array.make n 0;
        order = Array.make n 0;
        root_delay = Array.make n nan;
        depth = Array.make n (-1);
        pool = Array.make pool 0;
        pooled = 0;
        stamp = Array.make n 0;
        tick = 0;
        ranked = sorted pool;
        measured = sorted pool;
        next_shortlist = Array.make shortlist_size (-1);
      }
    in
    t.scratch <- Some s;
    s

(* The cost a candidate's root delay must beat: [node]'s parent moves
   only when [node] is processed, so its root delay is its current
   cost.  A candidate adds an edge >= 0 to its own: one at or above
   that cost cannot win and is not probed.  An unreachable [node] takes
   any reachable one. *)
let[@inline] bound cost = if Float.is_nan cost then infinity else cost

let refresh ?(label = "multicast") ?predict t rng engine =
  let known = known_of_engine engine in
  let predict = predictor ~label ?predict engine in
  let s = scratch t in
  let m = ref 0 in
  for node = 0 to Array.length t.parent - 1 do
    if joined t node then begin
      s.ascending.(!m) <- node;
      incr m
    end
  done;
  let m = !m in
  Array.blit s.ascending 0 s.order 0 m;
  Rng.shuffle ~len:m rng s.order;
  let switches = ref 0 in
  if m > 1 then begin
    let { coords; shortlist } = learned t rng engine in
    let predicted = Vivaldi.predicted coords in
    let reg = Engine.obs engine in
    let ranked_out = ref 0
    and alerted = Obs.Registry.counter reg "multicast.refresh.alerted"
    and fallback = Obs.Registry.counter reg "multicast.refresh.fallback" in
    (* Every delay refresh measures moves both endpoints' coordinates. *)
    let observe node c d =
      Vivaldi.observe_rtt coords node c d;
      Vivaldi.observe_rtt coords c node d
    in
    (* Root delays are recomputed once per pass; switches within the
       pass use slightly stale values, as a real periodically-advertised
       protocol would.  A member that does not reach the root keeps
       [nan]. *)
    let root_delay = s.root_delay in
    Array.fill root_delay 0 (Array.length root_delay) nan;
    root_delay.(t.root) <- 0.;
    walk t ~depth:s.depth ~visit:(fun node p ->
        let d = predict node p in
        observe node p d;
        root_delay.(node) <- root_delay.(p) +. d);
    (* The shortlist, then the fresh draws, each eligible candidate
       once. *)
    let consider node c =
      if
        s.stamp.(c) <> s.tick
        && root_delay.(c) < bound root_delay.(node)
        && c <> t.parent.(node) && c <> node && joined t c
        && degree t c < t.config.max_degree
        && known node c
        && not (in_subtree t node c)
      then begin
        s.stamp.(c) <- s.tick;
        s.pool.(s.pooled) <- c;
        s.pooled <- s.pooled + 1
      end
    in
    for idx = 0 to m - 1 do
      let node = s.order.(idx) in
      if node <> t.root then begin
        let bound = bound root_delay.(node) in
        let ranked = Vivaldi.error_estimate coords node < converged_error in
        let draws = if ranked then ranked_sample else t.config.refresh_sample in
        s.tick <- s.tick + 1;
        s.pooled <- 0;
        let slots = node * shortlist_size in
        for k = 0 to shortlist_size - 1 do
          let c = shortlist.(slots + k) in
          if c >= 0 then consider node c
        done;
        for _ = 1 to draws do
          consider node s.ascending.(Rng.int rng m)
        done;
        let pooled = s.pooled in
        (* The candidates to measure: the best ranked, or the pool. *)
        let probed, probes =
          if ranked then begin
            let r = s.ranked in
            r.len <- 0;
            for k = 0 to pooled - 1 do
              let c = s.pool.(k) in
              let cost = root_delay.(c) +. Vivaldi.predicted coords node c in
              if cost < bound then insert r cost c false
            done;
            let top = min ranked_probes r.len in
            ranked_out := !ranked_out + pooled - top;
            (r.cands, top)
          end
          else begin
            Obs.Counter.incr fallback;
            (s.pool, pooled)
          end
        in
        (* Each measurement meets the alert before it moves the
           coordinates; an unmeasured candidate drops out. *)
        let measured = s.measured in
        measured.len <- 0;
        for k = 0 to probes - 1 do
          let c = probed.(k) in
          let d = predict node c in
          let shrunk =
            Alert.shrunk ~threshold:alert_threshold (Alert.ratio ~predicted node c d)
          in
          if shrunk then Obs.Counter.incr alerted;
          observe node c d;
          if not (Float.is_nan d) then insert measured (root_delay.(c) +. d) c shrunk
        done;
        (* A switch needs a measured cost under the bound: the first
           cheapest wins, and no prediction is ever accepted. *)
        if measured.len > 0 && measured.costs.(0) < bound then begin
          attach t node measured.cands.(0);
          incr switches
        end;
        (* The shortlist keeps the cheapest unalerted measurements,
           then what it held and did not re-measure, never the parent. *)
        let now = t.parent.(node) in
        let next = s.next_shortlist and len = ref 0 in
        for k = 0 to measured.len - 1 do
          let c = measured.cands.(k) in
          if not (measured.flags.(k) || c = now) && !len < shortlist_size then begin
            next.(!len) <- c;
            incr len
          end
        done;
        for k = 0 to shortlist_size - 1 do
          let c = shortlist.(slots + k) in
          let remeasured = ref false in
          for j = 0 to measured.len - 1 do
            if measured.cands.(j) = c then remeasured := true
          done;
          if c >= 0 && c <> now && (not !remeasured) && !len < shortlist_size then begin
            next.(!len) <- c;
            incr len
          end
        done;
        for k = 0 to shortlist_size - 1 do
          shortlist.(slots + k) <- (if k < !len then next.(k) else -1)
        done
      end
    done;
    Obs.Counter.add
      (Obs.Registry.counter reg "multicast.refresh.ranked_out")
      (float_of_int !ranked_out)
  end;
  !switches

type metrics = {
  members : int;
  mean_edge_ms : float;
  median_stretch : float;
  p90_stretch : float;
  max_depth : int;
  max_fanout : int;
}

(* Evaluation against the engine's ground truth, with the nan audit:
   every silent fallback (missing tree edge, unmeasurable direct root
   delay, no path to the root) increments [multicast.evaluate_failures]
   instead of disappearing into the percentiles — the multicast
   counterpart of [meridian.query_failures]. *)
let evaluate t engine =
  let reg = Engine.obs engine in
  let failures = Obs.Registry.counter reg "multicast.evaluate_failures" in
  let missing = ref 0 in
  let on_missing () =
    incr missing;
    Obs.Counter.incr failures
  in
  let delay = Oracle.query (Engine.oracle engine) in
  let tree_delay = Array.make (Array.length t.parent) nan in
  tree_delay.(t.root) <- 0.;
  let depth =
    depths t ~visit:(fun node p ->
        let edge = delay node p in
        (* A missing edge contributes zero to the path. *)
        if Float.is_nan edge then on_missing ();
        tree_delay.(node) <-
          (tree_delay.(p) +. if Float.is_nan edge then 0. else edge))
  in
  let members = members t in
  let edges = ref [] and stretches = ref [] and max_depth = ref 0 in
  List.iter
    (fun node ->
      let d = depth.(node) in
      if d < 0 then on_missing ()
      else if node <> t.root then begin
        if d > !max_depth then max_depth := d;
        let edge = delay node t.parent.(node) in
        if not (Float.is_nan edge) then edges := edge :: !edges;
        let direct = delay node t.root in
        if (not (Float.is_nan direct)) && direct > 0. then
          stretches := (tree_delay.(node) /. direct) :: !stretches
        else
          (* No measurable direct root delay: the member drops out of
             the stretch percentiles. *)
          on_missing ()
      end)
    members;
  if !missing > 0 then
    Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"multicast"
      (Printf.sprintf "evaluate dropped %d unmeasurable edges" !missing);
  let edges = Array.of_list !edges and stretches = Array.of_list !stretches in
  {
    members = List.length members;
    mean_edge_ms = Stats.mean edges;
    median_stretch = (if Array.length stretches = 0 then 0. else Stats.median stretches);
    p90_stretch =
      (if Array.length stretches = 0 then 0. else Stats.percentile stretches 90.);
    max_depth = !max_depth;
    max_fanout = Array.fold_left (fun acc k -> max acc (List.length k)) 0 t.kids;
  }

type violation = Children of int | Degree of int | Unreachable of int

let check t =
  let n = Array.length t.parent in
  let named = Array.make n [] in
  for c = n - 1 downto 0 do
    let p = t.parent.(c) in
    if p >= 0 then named.(p) <- c :: named.(p)
  done;
  let depth = lazy (depths t) in
  List.find_map
    (fun (violation, holds) ->
      Option.map violation (List.find_opt (fun node -> not (holds node)) (List.init n Fun.id)))
    [
      ((fun node -> Children node), fun node -> t.kids.(node) = named.(node));
      ((fun node -> Degree node), fun node -> degree t node <= t.config.max_degree);
      ( (fun node -> Unreachable node),
        fun node -> (not (joined t node)) || (Lazy.force depth).(node) >= 0 );
    ]

(* ------------------------------------------------------------------ *)
(* Churn-aware tree repair                                             *)

type repair = {
  detached : int;
  reattached : int;
  rejoined : int;
}

(* One repair pass; liveness defaults to [Engine.up] (no churn =
   everyone up), and the pass's counts land in the engine's
   [repair.*{plane=multicast}] series. *)
let repair ?(label = "multicast-repair") ?predict ?up t rng engine =
  let up = match up with Some up -> up | None -> Engine.up engine in
  let known = known_of_engine engine in
  let predict = predictor ~label ?predict engine in
  let detached = ref 0 and reattached = ref 0 and rejoined = ref 0 in
  (* 1. Down members leave the tree and free their parents' slots; their
     children become orphans (still joined, parent no longer a member). *)
  List.iter
    (fun node ->
      if node <> t.root && not (up node) then begin
        detach t node;
        incr detached
      end)
    (members t);
  (* Attachment candidates: the root while it is up, plus a sample of
     live members; every candidate is up. *)
  let candidates () =
    let pool = Array.of_list (List.filter up (members t)) in
    let sample =
      if Array.length pool = 0 then []
      else List.init t.config.refresh_sample (fun _ -> Rng.choice rng pool)
    in
    if up t.root then t.root :: sample else sample
  in
  (* 2. Orphans re-attach: a member whose parent is gone (or down) asks
     the predictor — real probes, when driven by an engine — for the
     best live member with spare degree.  Deterministic ascending order
     keeps repair reproducible under a fixed seed. *)
  List.iter
    (fun node ->
      let p = t.parent.(node) in
      if p >= 0 && not (joined t p && up p) then begin
        let eligible =
          List.filter (fun c -> not (in_subtree t node c)) (candidates ())
        in
        match best_attachment t ~known ~predict node eligible with
        | Some (chosen, _) ->
          attach t node chosen;
          incr reattached
        | None ->
          (* No live attachment point this pass: the node leaves the
             tree and rejoins later like any revived member. *)
          detach t node
      end)
    (members t);
  (* 3. Revived members rejoin the group they still want. *)
  Array.iteri
    (fun node wants ->
      if wants && (not (joined t node)) && up node then
        match best_attachment t ~known ~predict node (candidates ()) with
        | Some (chosen, _) ->
          attach t node chosen;
          incr rejoined
        | None -> ())
    t.wants;
  let result =
    { detached = !detached; reattached = !reattached; rejoined = !rejoined }
  in
  let reg = Engine.obs engine in
  let labels = [ ("plane", "multicast") ] in
  List.iter
    (fun (name, v) ->
      Obs.Counter.add (Obs.Registry.counter reg ~labels name) (float_of_int v))
    [
      ("repair.detached", result.detached);
      ("repair.reattached", result.reattached);
      ("repair.rejoined", result.rejoined);
    ];
  Obs.Registry.trace_event reg ~time:(Engine.now engine)
    ~label:"repair.multicast"
    (Printf.sprintf "detached=%d reattached=%d rejoined=%d" result.detached
       result.reattached result.rejoined);
  result

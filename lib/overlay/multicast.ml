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
   pass: [build] does no work for it. *)
type learned = {
  coords : Vivaldi.t;  (* fed only by the delays refresh measures *)
  shortlist : int list array;  (* per node, best measured cost first *)
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
  List.fold_left
    (fun acc cand ->
      if
        cand <> node && joined t cand
        && degree t cand < t.config.max_degree
        && known node cand
      then begin
        let p = predict node cand in
        if Float.is_nan p then acc
        else begin
          match acc with
          | Some (_, bp) when bp <= p -> acc
          | _ -> Some (cand, p)
        end
      end
      else acc)
    None candidates

(* Joins predict edge delays by probing through the engine unless
   [predict] overrides; edge existence consults the engine's ground
   truth directly (matrix or lazy backend alike). *)
let build ?(config = default_config) ?(label = "multicast") ?predict engine
    ~join_order =
  if Array.length join_order = 0 then
    invalid_arg "Multicast.build: join_order must be non-empty";
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
  let rec ascend cur steps =
    if steps < 0 then false (* defensive: corrupted tree *)
    else if cur = node then true
    else if cur = t.root || cur < 0 then false
    else ascend t.parent.(cur) (steps - 1)
  in
  ascend candidate (Array.length t.parent)

(* The one tree walk: every node's depth below the root by memoised
   ascent, -1 for non-members and for members on a parent cycle or
   below a non-member.  [visit node p] runs once per member that
   reaches the root, after it has run for [p]. *)
let depths ?(visit = fun _ _ -> ()) t =
  let n = Array.length t.parent in
  let depth = Array.make n (-1) and seen = Array.make n false in
  depth.(t.root) <- 0;
  seen.(t.root) <- true;
  let rec resolve node =
    if not seen.(node) then begin
      seen.(node) <- true;
      let p = t.parent.(node) in
      if p >= 0 && resolve p >= 0 then begin
        visit node p;
        depth.(node) <- depth.(p) + 1
      end
    end;
    depth.(node)
  in
  for node = 0 to n - 1 do ignore (resolve node) done;
  depth

(* Predicted delay from every member to the root along the current tree
   edges, [nan] for a member that does not reach the root: the quantity
   a member advertises to prospective children. *)
let predicted_root_delays t ~predict =
  let out = Array.make (Array.length t.parent) nan in
  out.(t.root) <- 0.;
  ignore (depths t ~visit:(fun node p -> out.(node) <- out.(p) +. predict node p));
  out

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
        shortlist = Array.make (Array.length t.parent) [];
      }
    in
    t.learned <- Some l;
    l

let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []

let by_cost (a, _) (b, _) = Float.compare a b

let refresh ?(label = "multicast") ?predict t rng engine =
  let known = known_of_engine engine in
  let predict = predictor ~label ?predict engine in
  let all_members = Array.of_list (members t) in
  let order = Array.copy all_members in
  Rng.shuffle rng order;
  let switches = ref 0 in
  if Array.length order > 1 then begin
    let { coords; shortlist } = learned t rng engine in
    let reg = Engine.obs engine in
    let ranked_out = Obs.Registry.counter reg "multicast.refresh.ranked_out"
    and alerted = Obs.Registry.counter reg "multicast.refresh.alerted"
    and fallback = Obs.Registry.counter reg "multicast.refresh.fallback" in
    (* Every delay refresh measures moves both endpoints' coordinates. *)
    let observe node c d =
      Vivaldi.observe_rtt coords node c d;
      Vivaldi.observe_rtt coords c node d
    in
    (* Root delays are recomputed once per pass; switches within the
       pass use slightly stale values, as a real periodically-advertised
       protocol would. *)
    let root_delay =
      predicted_root_delays t ~predict:(fun node p ->
          let d = predict node p in
          observe node p d;
          d)
    in
    Array.iter
      (fun node ->
        if node <> t.root then begin
          let current = t.parent.(node) in
          (* [node]'s parent moves only when [node] is processed, so its
             root delay is its current cost.  A candidate adds an edge
             >= 0 to its own: one at or above that cost cannot win and is
             not probed.  An unreachable [node] takes any reachable one. *)
          let current_cost = root_delay.(node) in
          let bound = if Float.is_nan current_cost then infinity else current_cost in
          let ranked = Vivaldi.error_estimate coords node < converged_error in
          let draws = if ranked then ranked_sample else t.config.refresh_sample in
          let fits c =
            root_delay.(c) < bound && c <> current && c <> node && joined t c
            && degree t c < t.config.max_degree
            && known node c
            && not (in_subtree t node c)
          in
          (* The shortlist, then the fresh draws, each candidate once. *)
          let eligible =
            List.rev
              (List.fold_left
                 (fun acc c -> if List.mem c acc || not (fits c) then acc else c :: acc)
                 []
                 (shortlist.(node) @ List.init draws (fun _ -> Rng.choice rng all_members)))
          in
          let probed =
            if ranked then begin
              let promising =
                List.filter_map
                  (fun c ->
                    let cost = root_delay.(c) +. Vivaldi.predicted coords node c in
                    if cost < bound then Some (cost, c) else None)
                  eligible
              in
              let top = take ranked_probes (List.stable_sort by_cost promising) in
              Obs.Counter.add ranked_out (float_of_int (List.length eligible - List.length top));
              List.map snd top
            end
            else begin
              Obs.Counter.incr fallback;
              eligible
            end
          in
          (* Each measurement meets the alert before it moves the
             coordinates; an unmeasured candidate drops out. *)
          let measured =
            List.filter_map
              (fun c ->
                let d = predict node c in
                let shrunk =
                  Alert.shrunk ~threshold:alert_threshold
                    (Alert.ratio ~predicted:(Vivaldi.predicted coords) node c d)
                in
                if shrunk then Obs.Counter.incr alerted;
                observe node c d;
                if Float.is_nan d then None
                else Some (root_delay.(c) +. d, (c, shrunk)))
              probed
          in
          (* A switch needs a measured cost under the bound: the first
             cheapest wins, and no prediction is ever accepted. *)
          let by_measured = List.stable_sort by_cost measured in
          (match by_measured with
          | (cost, (better, _)) :: _ when cost < bound ->
            attach t node better;
            incr switches
          | _ -> ());
          (* The shortlist keeps the cheapest unalerted measurements,
             then what it held and did not re-measure, never the parent. *)
          let parent = t.parent.(node) in
          let kept =
            List.filter_map
              (fun (_, (c, shrunk)) -> if shrunk || c = parent then None else Some c)
              by_measured
          and carried =
            List.filter
              (fun c -> c <> parent && not (List.exists (fun (_, (m, _)) -> m = c) measured))
              shortlist.(node)
          in
          shortlist.(node) <- take shortlist_size (kept @ carried)
        end)
      order
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

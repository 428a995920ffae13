module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Engine = Tivaware_measure.Engine
module Oracle = Tivaware_measure.Oracle
module Churn = Tivaware_measure.Churn
module Obs = Tivaware_obs

type config = {
  max_degree : int;
  refresh_sample : int;
}

let default_config = { max_degree = 6; refresh_sample = 16 }

type t = {
  config : config;
  root : int;
  parent : int array;  (* -1 = root or not joined *)
  joined : bool array;
  degree : int array;  (* children count *)
  wants : bool array;
  (* group membership intent: everyone from the join order; a detached
     node with [wants] set rejoins when repair finds it up again *)
}

let root t = t.root

let parent t node =
  if t.joined.(node) && node <> t.root then Some t.parent.(node) else None

let members t =
  let out = ref [] in
  Array.iteri (fun node j -> if j then out := node :: !out) t.joined;
  List.rev !out

let children_count t node = t.degree.(node)

let children t node =
  let out = ref [] in
  Array.iteri
    (fun c p -> if p = node && t.joined.(c) && c <> t.root then out := c :: !out)
    t.parent;
  List.rev !out

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
        cand <> node && t.joined.(cand)
        && t.degree.(cand) < t.config.max_degree
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
      joined = Array.make n false;
      degree = Array.make n 0;
      wants = Array.make n false;
    }
  in
  Array.iter (fun node -> t.wants.(node) <- true) join_order;
  t.joined.(t.root) <- true;
  let member_list = ref [ t.root ] in
  Array.iteri
    (fun idx node ->
      if idx > 0 then begin
        match best_attachment t ~known ~predict node !member_list with
        | Some (chosen, _) ->
          t.parent.(node) <- chosen;
          t.joined.(node) <- true;
          t.degree.(chosen) <- t.degree.(chosen) + 1;
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

(* Predicted delay from every member to the root along the current tree
   edges: the quantity a member advertises to prospective children. *)
let predicted_root_delays t ~predict =
  let n = Array.length t.parent in
  let out = Array.make n nan in
  out.(t.root) <- 0.;
  let rec resolve node =
    if not (Float.is_nan out.(node)) then out.(node)
    else begin
      let p = t.parent.(node) in
      let d = resolve p +. predict node p in
      out.(node) <- d;
      d
    end
  in
  List.iter (fun node -> ignore (resolve node)) (members t);
  out

let refresh ?(label = "multicast") ?predict t rng engine =
  let known = known_of_engine engine in
  let predict = predictor ~label ?predict engine in
  let all_members = Array.of_list (members t) in
  let order = Array.copy all_members in
  Rng.shuffle rng order;
  let switches = ref 0 in
  (* Root delays are recomputed once per pass; switches within the pass
     use slightly stale values, as a real periodically-advertised
     protocol would. *)
  let root_delay = predicted_root_delays t ~predict in
  let via candidate p = root_delay.(candidate) +. p in
  Array.iter
    (fun node ->
      if node <> t.root && t.joined.(node) then begin
        let current = t.parent.(node) in
        let current_cost = via current (predict node current) in
        (* Sample refresh candidates from the membership; optimize the
           predicted end-to-end delay from the root, not just the parent
           edge, so refreshes cannot degenerate into long chains. *)
        let sample =
          List.init t.config.refresh_sample (fun _ -> Rng.choice rng all_members)
        in
        let eligible =
          List.filter (fun c -> not (in_subtree t node c)) sample
        in
        let best =
          List.fold_left
            (fun acc cand ->
              if
                cand <> node && cand <> current && t.joined.(cand)
                && t.degree.(cand) < t.config.max_degree
                && known node cand
              then begin
                let p = predict node cand in
                if Float.is_nan p || Float.is_nan root_delay.(cand) then acc
                else begin
                  let cost = via cand p in
                  match acc with
                  | Some (_, bc) when bc <= cost -> acc
                  | _ -> Some (cand, cost)
                end
              end
              else acc)
            None eligible
        in
        match best with
        | Some (better, cost) when Float.is_nan current_cost || cost < current_cost ->
          t.degree.(current) <- t.degree.(current) - 1;
          t.parent.(node) <- better;
          t.degree.(better) <- t.degree.(better) + 1;
          incr switches
        | _ -> ()
      end)
    order;
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
   delay) increments [multicast.evaluate_failures] instead of
   disappearing into the percentiles — the multicast counterpart of
   [meridian.query_failures]. *)
let evaluate t engine =
  let reg = Engine.obs engine in
  let failures = Obs.Registry.counter reg "multicast.evaluate_failures" in
  let missing = ref 0 in
  let on_missing () =
    incr missing;
    Obs.Counter.incr failures
  in
  let delay = Oracle.query (Engine.oracle engine) in
  let n = Array.length t.parent in
  (* Root-to-node tree delay and depth by memoized ascent.  Repair can
     leave a member below an ancestor that left the tree, or on a parent
     cycle; such a member has no path to the root (depth -1). *)
  let tree_delay = Array.make n nan in
  let depth = Array.make n (-1) in
  let ascending = Array.make n false in
  tree_delay.(t.root) <- 0.;
  depth.(t.root) <- 0;
  let rec resolve node =
    let p = t.parent.(node) in
    if depth.(node) >= 0 then (tree_delay.(node), depth.(node))
    else if p < 0 || ascending.(node) then (nan, -1)
    else begin
      ascending.(node) <- true;
      let pd, pdepth = resolve p in
      ascending.(node) <- false;
      if pdepth < 0 then (nan, -1)
      else begin
        let edge = delay node p in
        (* A missing edge contributes zero to the path. *)
        if Float.is_nan edge then on_missing ();
        let d = pd +. (if Float.is_nan edge then 0. else edge) in
        tree_delay.(node) <- d;
        depth.(node) <- pdepth + 1;
        (d, pdepth + 1)
      end
    end
  in
  let edges = ref [] and stretches = ref [] and max_depth = ref 0 in
  List.iter
    (fun node ->
      let _, d = resolve node in
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
    (members t);
  if !missing > 0 then
    Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"multicast"
      (Printf.sprintf "evaluate dropped %d unmeasurable edges" !missing);
  let edges = Array.of_list !edges and stretches = Array.of_list !stretches in
  {
    members = List.length (members t);
    mean_edge_ms = Stats.mean edges;
    median_stretch = (if Array.length stretches = 0 then 0. else Stats.median stretches);
    p90_stretch =
      (if Array.length stretches = 0 then 0. else Stats.percentile stretches 90.);
    max_depth = !max_depth;
    max_fanout = Array.fold_left max 0 t.degree;
  }

(* ------------------------------------------------------------------ *)
(* Churn-aware tree repair                                             *)

type repair = {
  detached : int;
  reattached : int;
  rejoined : int;
}

let recompute_degrees t =
  Array.fill t.degree 0 (Array.length t.degree) 0;
  Array.iteri
    (fun node p ->
      if t.joined.(node) && node <> t.root && p >= 0 then
        t.degree.(p) <- t.degree.(p) + 1)
    t.parent

(* One repair pass; liveness defaults to the engine's churn view (no
   churn = everyone up), and the pass's counts land in the engine's
   [repair.*{plane=multicast}] series. *)
let repair ?(label = "multicast-repair") ?predict ?up t rng engine =
  let up =
    match up with
    | Some up -> up
    | None -> (
      match Engine.churn engine with
      | None -> fun _ -> true
      | Some c -> Churn.is_up c)
  in
  let known = known_of_engine engine in
  let predict = predictor ~label ?predict engine in
  let detached = ref 0 and reattached = ref 0 and rejoined = ref 0 in
  (* 1. Down members leave the tree; their children become orphans
     (still joined, parent no longer a member). *)
  List.iter
    (fun node ->
      if node <> t.root && not (up node) then begin
        t.joined.(node) <- false;
        t.parent.(node) <- -1;
        incr detached
      end)
    (members t);
  (* Detached members no longer occupy their parents' degree slots —
     without this, a root whose children all died in one burst keeps a
     phantom full degree and cannot adopt the orphans, breaking the
     "root is always a candidate" guarantee below. *)
  recompute_degrees t;
  (* 2. Orphans re-attach: a member whose parent is gone (or down) asks
     the predictor — real probes, when driven by an engine — for the
     best live member with spare degree.  Deterministic ascending order
     keeps repair reproducible under a fixed seed. *)
  let live_members () =
    List.filter (fun c -> up c) (members t)
  in
  List.iter
    (fun node ->
      if node <> t.root && t.joined.(node) then begin
        let p = t.parent.(node) in
        let orphaned = p < 0 || (not t.joined.(p)) || not (up p) in
        if orphaned then begin
          let pool = Array.of_list (live_members ()) in
          let sample =
            if Array.length pool = 0 then []
            else
              List.init t.config.refresh_sample (fun _ -> Rng.choice rng pool)
          in
          let eligible =
            List.filter (fun c -> not (in_subtree t node c)) (t.root :: sample)
          in
          match best_attachment t ~known ~predict node eligible with
          | Some (chosen, _) when up chosen ->
            t.parent.(node) <- chosen;
            t.degree.(chosen) <- t.degree.(chosen) + 1;
            incr reattached
          | _ ->
            (* No live attachment point this pass: the node leaves the
               tree and rejoins later like any revived member. *)
            t.joined.(node) <- false;
            t.parent.(node) <- -1
        end
      end)
    (members t);
  recompute_degrees t;
  (* 3. Revived members rejoin the group they still want. *)
  Array.iteri
    (fun node wants ->
      if wants && (not t.joined.(node)) && up node && node <> t.root then begin
        let pool = Array.of_list (live_members ()) in
        let sample =
          if Array.length pool = 0 then []
          else List.init t.config.refresh_sample (fun _ -> Rng.choice rng pool)
        in
        match best_attachment t ~known ~predict node (t.root :: sample) with
        | Some (chosen, _) when up chosen ->
          t.parent.(node) <- chosen;
          t.joined.(node) <- true;
          t.degree.(chosen) <- t.degree.(chosen) + 1;
          incr rejoined
        | _ -> ()
      end)
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

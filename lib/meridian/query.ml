module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs
module Stats = Tivaware_util.Stats

type termination = Threshold | Any_improvement

type outcome = {
  chosen : int;
  chosen_delay : float;
  probes : int;
  hops : int;
  restarts : int;
  path : int list;
}

type fallback =
  current:int -> target:int -> measured:float -> Overlay.member list

let hop_edges = [| 0.; 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16. |]
let probe_count_edges = [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200. |]

(* Query-level accounting on the engine's registry.  A query that ends
   with [chosen_delay = nan] (first-hop probe failure: loss, outage,
   denial or a missing pair) used to be invisible outside the caller's
   own bookkeeping — count it, so failed queries show up in every run
   summary next to the probe counters. *)
let record_query engine outcome =
  let reg = Engine.obs engine in
  if Float.is_nan outcome.chosen_delay then begin
    Obs.Counter.incr (Obs.Registry.counter reg "meridian.query_failures");
    Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"meridian"
      (Printf.sprintf "query failed at start=%d after %d probes" outcome.chosen
         outcome.probes)
  end
  else begin
    Obs.Histogram.observe
      (Obs.Registry.histogram reg ~edges:hop_edges "meridian.query_hops")
      (float_of_int outcome.hops);
    Obs.Histogram.observe
      (Obs.Registry.histogram reg ~edges:probe_count_edges
         "meridian.query_probes")
      (float_of_int outcome.probes)
  end;
  outcome


(* ------------------------------------------------------------------ *)
(* The walk core: one query's state and its one hop rule.  Every driver
   — the synchronous {!closest} and {!closest_multi}, and the
   event-driven {!Online.closest} — sequences [arrive], [probe] and the
   hop decision; only when the measurements happen differs. *)

(* What a walk measures: the delay to one target, or the max-norm delay
   to a target set (one probe per (node, target) pair; a node's own
   entry in the set is skipped). *)
type goal = Target of int | Max_norm of int list

type walk = {
  overlay : Overlay.t;
  engine : Engine.t;
  goal : goal;
  termination : termination;
  cache : (int, float) Hashtbl.t;
  visited : (int, unit) Hashtbl.t;
  mutable probes : int;
  mutable best : int;
  mutable best_delay : float;
  mutable current : int;
  mutable delay : float;
  mutable window : Overlay.member list;
  mutable path : int list;
  mutable hops : int;
  mutable restarts : int;
}

let make ~termination overlay engine ~start goal =
  {
    overlay;
    engine;
    goal;
    termination;
    cache = Hashtbl.create 64;
    visited = Hashtbl.create 16;
    probes = 0;
    best = start;
    best_delay = nan;
    current = start;
    delay = nan;
    window = [];
    path = [];
    hops = 0;
    restarts = 0;
  }

let walk ?(termination = Threshold) overlay engine ~start ~target =
  make ~termination overlay engine ~start (Target target)

(* Max-norm of [node]'s delays to the target set ([nan] if any is
   missing); the node's own entry in the set is skipped. *)
let max_norm delay node targets =
  List.fold_left
    (fun acc t ->
      if node = t then acc
      else begin
        let d = delay node t in
        if Float.is_nan d || Float.is_nan acc then nan else Float.max acc d
      end)
    0. targets

(* One online measurement from a node through the measurement plane,
   cached for the rest of the query; [nan] marks a pair that is
   unmeasurable — or whose probe was lost, denied or timed out, in which
   case the node stays unusable for the rest of this query.  The cost
   (ms charged on the issuing path) is 0 for a cached value. *)
let probe w node =
  match Hashtbl.find_opt w.cache node with
  | Some d -> (d, 0.)
  | None ->
    let ((d, _) as r) =
      match w.goal with
      | Target t ->
        w.probes <- w.probes + 1;
        Engine.rtt_timed ~label:"meridian" w.engine node t
      | Max_norm targets ->
        let rtt a b =
          w.probes <- w.probes + 1;
          Engine.rtt ~label:"meridian" w.engine a b
        in
        (max_norm rtt node targets, 0.)
    in
    Hashtbl.replace w.cache node d;
    r

(* Ring members of the current node whose delay lies within the
   acceptance window [[(1-beta) d, (1+beta) d]].  Ring *entries* are
   filtered so a dual-placed member qualifies when either its measured
   or its predicted delay falls in the window; member ids are then
   deduplicated. *)
let eligible_members overlay current d =
  let beta = (Overlay.config overlay).Ring.beta in
  let lo = (1. -. beta) *. d and hi = (1. +. beta) *. d in
  let seen = Hashtbl.create 32 in
  List.filter
    (fun m ->
      m.Overlay.delay >= lo && m.Overlay.delay <= hi
      &&
      if Hashtbl.mem seen m.Overlay.id then false
      else begin
        Hashtbl.replace seen m.Overlay.id ();
        true
      end)
    (Overlay.all_entries overlay current)

let arrive w node =
  Hashtbl.replace w.visited node ();
  w.path <- node :: w.path;
  let ((d, _) as r) = probe w node in
  (* The start's measurement seeds the answer, a failed one included. *)
  if w.hops = 0 then w.best_delay <- d;
  w.current <- node;
  w.delay <- d;
  w.window <- (if Float.is_nan d then [] else eligible_members w.overlay node d);
  r

let window w = w.window

(* The hop rule: members' measurements in ring-member order.  Visited
   members are skipped unprobed (best-seen already holds their delays);
   best-seen moves on a strict improvement; the pick rule takes the
   first strict minimum. *)
let best_member w members =
  Option.map
    (fun (m, d) -> (m.Overlay.id, d))
    (Stats.argmin
       (fun m ->
         let id = m.Overlay.id in
         if Hashtbl.mem w.visited id then Float.nan
         else begin
           let d, _ = probe w id in
           if d < w.best_delay then begin
             w.best <- id;
             w.best_delay <- d
           end;
           d
         end)
       members)

(* The forwarding rule: whether a candidate justifies leaving the
   current node. *)
let accepts w cd =
  match w.termination with
  | Threshold -> cd <= (Overlay.config w.overlay).Ring.beta *. w.delay
  | Any_improvement -> cd < w.delay

let accept w = function Some (_, cd) as c when accepts w cd -> c | _ -> None

let hop ?restart w =
  let candidate = best_member w w.window in
  let next =
    match (accept w candidate, restart) with
    | None, Some f -> (
      (* About to stop: the restart hook gets one chance to widen the
         probed set (TIV-aware query restart). *)
      match f ~current:w.current ~measured:w.delay with
      | [] -> None
      | extra ->
        w.restarts <- w.restarts + 1;
        let widened = best_member w extra in
        accept w
          (match (candidate, widened) with
          | None, c | c, None -> c
          | Some (_, cd), Some (_, wd) -> if wd < cd then widened else candidate))
    | next, _ -> next
  in
  match next with
  | Some (id, _) ->
    w.hops <- w.hops + 1;
    Some id
  | None -> None

let step w = hop w

let finish w =
  record_query w.engine
    {
      chosen = w.best;
      chosen_delay = w.best_delay;
      probes = w.probes;
      hops = w.hops;
      restarts = w.restarts;
      path = List.rev w.path;
    }

(* The synchronous driver: every measurement resolves instantly.  When
   the start node cannot measure the target (missing pair, lost probe,
   outage or budget denial) the query dies at the first hop with
   [chosen_delay = nan]; callers detect it and fall back. *)
let run ?restart w =
  let d0, _ = arrive w w.current in
  if not (Float.is_nan d0) then begin
    let rec loop () =
      match hop ?restart w with
      | Some next ->
        ignore (arrive w next);
        loop ()
      | None -> ()
    in
    loop ()
  end;
  finish w

let closest ?(termination = Threshold) ?fallback overlay engine ~start
    ~target =
  if not (Overlay.is_meridian overlay start) then
    invalid_arg "Query.closest: start is not a Meridian node";
  let restart =
    Option.map (fun f ~current ~measured -> f ~current ~target ~measured) fallback
  in
  run ?restart (walk ~termination overlay engine ~start ~target)

let closest_multi ?(termination = Threshold) overlay engine ~start
    ~targets =
  if targets = [] then invalid_arg "Query.closest_multi: no targets";
  if not (Overlay.is_meridian overlay start) then
    invalid_arg "Query.closest_multi: start is not a Meridian node";
  run (make ~termination overlay engine ~start (Max_norm targets))

let optimal_multi overlay backend ~targets =
  if targets = [] then invalid_arg "Query.optimal_multi: no targets";
  let nodes = Overlay.meridian_nodes overlay in
  Option.map
    (fun (i, d) -> (nodes.(i), d))
    (Stats.argmin_index
       (fun i ->
         let node = nodes.(i) in
         if List.mem node targets then Float.nan
         else max_norm (Backend.query backend) node targets)
       (Array.length nodes))

(* Delays are non-negative, so the max-norm over one target is the
   delay itself. *)
let optimal overlay backend ~target =
  optimal_multi overlay backend ~targets:[ target ]

module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs

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

type probe_state = {
  engine : Engine.t;
  target : int;
  probe_cache : (int, float) Hashtbl.t;
  mutable probes : int;
  mutable best : int;
  mutable best_delay : float;
}

let make_probe_state engine ~target =
  {
    engine;
    target;
    probe_cache = Hashtbl.create 64;
    probes = 0;
    best = -1;
    best_delay = infinity;
  }

let probe_cached st node = Hashtbl.mem st.probe_cache node
let probe_count st = st.probes
let best_seen st = (st.best, st.best_delay)

(* One online probe: node measures its delay to the target through the
   measurement plane.  Cached per query; [nan] marks a pair that is
   unmeasurable — or whose probe was lost, denied or timed out, in
   which case the node stays unusable for the rest of this query. *)
let probe_timed st node =
  match Hashtbl.find_opt st.probe_cache node with
  | Some d -> (d, 0.)
  | None ->
    let d, cost = Engine.rtt_timed ~label:"meridian" st.engine node st.target in
    st.probes <- st.probes + 1;
    Hashtbl.replace st.probe_cache node d;
    if (not (Float.is_nan d)) && d < st.best_delay then begin
      st.best <- node;
      st.best_delay <- d
    end;
    (d, cost)

let probe st node = fst (probe_timed st node)

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

let eligible_members overlay current d =
  let beta = (Overlay.config overlay).Ring.beta in
  let lo = (1. -. beta) *. d and hi = (1. +. beta) *. d in
  (* Filter ring *entries* so a dual-placed member qualifies when either
     its measured or its predicted delay falls in the window, then
     deduplicate member ids. *)
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

(* Best (member, delay-to-target) among a member list, probing each. *)
let best_probed st members ~exclude =
  List.fold_left
    (fun acc m ->
      let id = m.Overlay.id in
      if Hashtbl.mem exclude id then acc
      else begin
        let d = probe st id in
        if Float.is_nan d then acc
        else begin
          match acc with
          | Some (_, bd) when bd <= d -> acc
          | _ -> Some (id, d)
        end
      end)
    None members

let accepts termination ~beta ~d ~candidate_delay =
  match termination with
  | Threshold -> candidate_delay <= beta *. d
  | Any_improvement -> candidate_delay < d

let closest ?(termination = Threshold) ?fallback overlay engine ~start
    ~target =
  if not (Overlay.is_meridian overlay start) then
    invalid_arg "Query.closest: start is not a Meridian node";
  let beta = (Overlay.config overlay).Ring.beta in
  let st = make_probe_state engine ~target in
  st.best <- start;
  let d0 = probe st start in
  if Float.is_nan d0 then
    (* The start node could not measure the target (missing pair, lost
       probe, outage or budget denial): the query dies at the first
       hop.  Callers detect the [nan] delay and fall back. *)
    record_query engine
      {
        chosen = start;
        chosen_delay = nan;
        probes = st.probes;
        hops = 0;
        restarts = 0;
        path = [ start ];
      }
  else begin
  let visited = Hashtbl.create 16 in
  let restarts = ref 0 in
  let rec loop current d path hops =
    Hashtbl.replace visited current ();
    let members = eligible_members overlay current d in
    let continue_to candidate =
      match candidate with
      | None -> None
      | Some (id, cd) ->
        if accepts termination ~beta ~d ~candidate_delay:cd then Some (id, cd)
        else None
    in
    let candidate = best_probed st members ~exclude:visited in
    let next =
      match continue_to candidate with
      | Some _ as n -> n
      | None -> (
        (* About to stop: give the fallback hook one chance to widen the
           probed set (TIV-aware query restart). *)
        match fallback with
        | None -> None
        | Some f ->
          let extra = f ~current ~target ~measured:d in
          if extra = [] then None
          else begin
            incr restarts;
            let widened = best_probed st extra ~exclude:visited in
            let merged =
              match (candidate, widened) with
              | None, w -> w
              | c, None -> c
              | Some (_, cd), Some (_, wd) -> if wd < cd then widened else candidate
            in
            continue_to merged
          end)
    in
    match next with
    | Some (id, cd) -> loop id cd (id :: path) (hops + 1)
    | None -> (path, hops)
  in
  let path, hops = loop start d0 [ start ] 0 in
  record_query engine
    {
      chosen = st.best;
      chosen_delay = st.best_delay;
      probes = st.probes;
      hops;
      restarts = !restarts;
      path = List.rev path;
    }
  end

(* Max-norm delay of [node] to the target set; [nan] if any measurement
   is missing. *)
let max_norm backend node targets =
  List.fold_left
    (fun acc t ->
      if node = t then acc
      else begin
        let d = Backend.query backend node t in
        if Float.is_nan d || Float.is_nan acc then nan else Float.max acc d
      end)
    0. targets

let closest_multi ?(termination = Threshold) overlay engine ~start
    ~targets =
  if targets = [] then invalid_arg "Query.closest_multi: no targets";
  if not (Overlay.is_meridian overlay start) then
    invalid_arg "Query.closest_multi: start is not a Meridian node";
  let beta = (Overlay.config overlay).Ring.beta in
  let probes = ref 0 in
  let cache = Hashtbl.create 64 in
  (* One "probe" per (node, target) measurement, cached as in the
     single-target query; each goes through the measurement plane. *)
  let measure node =
    match Hashtbl.find_opt cache node with
    | Some d -> d
    | None ->
      let d =
        List.fold_left
          (fun acc t ->
            if node = t then acc
            else begin
              incr probes;
              let d = Engine.rtt ~label:"meridian" engine node t in
              if Float.is_nan d || Float.is_nan acc then nan
              else Float.max acc d
            end)
          0. targets
      in
      Hashtbl.replace cache node d;
      d
  in
  let d0 = measure start in
  if Float.is_nan d0 then
    record_query engine
      {
        chosen = start;
        chosen_delay = nan;
        probes = !probes;
        hops = 0;
        restarts = 0;
        path = [ start ];
      }
  else begin
  let best = ref start and best_delay = ref d0 in
  let consider node d =
    if (not (Float.is_nan d)) && d < !best_delay then begin
      best := node;
      best_delay := d
    end
  in
  let visited = Hashtbl.create 16 in
  let rec loop current d path hops =
    Hashtbl.replace visited current ();
    let members = eligible_members overlay current d in
    let candidate =
      List.fold_left
        (fun acc m ->
          let id = m.Overlay.id in
          if Hashtbl.mem visited id then acc
          else begin
            let md = measure id in
            consider id md;
            if Float.is_nan md then acc
            else begin
              match acc with
              | Some (_, bd) when bd <= md -> acc
              | _ -> Some (id, md)
            end
          end)
        None members
    in
    match candidate with
    | Some (id, cd) when accepts termination ~beta ~d ~candidate_delay:cd ->
      loop id cd (id :: path) (hops + 1)
    | _ -> (path, hops)
  in
  let path, hops = loop start d0 [ start ] 0 in
  record_query engine
    {
      chosen = !best;
      chosen_delay = !best_delay;
      probes = !probes;
      hops;
      restarts = 0;
      path = List.rev path;
    }
  end

let optimal_multi overlay backend ~targets =
  if targets = [] then invalid_arg "Query.optimal_multi: no targets";
  Array.fold_left
    (fun acc node ->
      if List.mem node targets then acc
      else begin
        let d = max_norm backend node targets in
        if Float.is_nan d then acc
        else begin
          match acc with
          | Some (_, bd) when bd <= d -> acc
          | _ -> Some (node, d)
        end
      end)
    None (Overlay.meridian_nodes overlay)

let optimal overlay backend ~target =
  Array.fold_left
    (fun acc node ->
      if node = target then acc
      else begin
        let d = Backend.query backend node target in
        if Float.is_nan d then acc
        else begin
          match acc with
          | Some (_, bd) when bd <= d -> acc
          | _ -> Some (node, d)
        end
      end)
    None (Overlay.meridian_nodes overlay)

(* Degenerate one-hop closest-search over an explicit candidate set:
   what a Meridian-style proxy does when the candidates are known up
   front (replica selection) rather than discovered by recursion.
   Every candidate probes the target once; unmeasurable candidates
   drop out; ties keep the first candidate in array order. *)
let closest_among ?label engine ~target ~candidates =
  let best = ref None in
  Array.iter
    (fun node ->
      let d = Engine.rtt ?label engine node target in
      if not (Float.is_nan d) then
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (node, d))
    candidates;
  !best

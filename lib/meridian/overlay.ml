module Rng = Tivaware_util.Rng
module Backend = Tivaware_backend.Delay_backend

type member = { id : int; delay : float }

type t = {
  config : Ring.config;
  meridian_nodes : int array;
  meridian_set : (int, unit) Hashtbl.t;
  (* rings.(node_slot).(ring-1) = members; node_slot indexes
     meridian_nodes. *)
  rings : member list array array;
  slot_of : (int, int) Hashtbl.t;
  (* Failure gossip: (slot, member id) pairs evicted by repair and not
     yet re-entered.  Bounds re-entry probing to members known to have
     left, instead of re-probing every absent pair forever. *)
  pending_reentry : (int * int, unit) Hashtbl.t;
}

let config t = t.config
let meridian_nodes t = Array.copy t.meridian_nodes
let is_meridian t id = Hashtbl.mem t.meridian_set id

let slot t id =
  match Hashtbl.find_opt t.slot_of id with
  | Some s -> s
  | None -> invalid_arg "Overlay: not a Meridian node"

type selection = First_come | Diverse

(* Minimum pairwise measured delay within a prospective member set; the
   diversity score Meridian's hypervolume rule approximates. *)
let min_pairwise_delay delay ids =
  let rec scan acc = function
    | [] -> acc
    | id :: rest ->
      let acc =
        List.fold_left
          (fun acc other ->
            let d = delay id other in
            if Float.is_nan d then acc else Float.min acc d)
          acc rest
      in
      scan acc rest
  in
  scan infinity ids

(* Try to improve ring diversity by swapping one primary member for the
   candidate; returns the new member list or None when no swap helps. *)
let diversity_swap delay members candidate =
  let ids = List.map (fun m -> m.id) members in
  let current = min_pairwise_delay delay ids in
  let best = ref None in
  List.iteri
    (fun drop _ ->
      let remaining = List.filteri (fun k _ -> k <> drop) members in
      let score =
        min_pairwise_delay delay (candidate.id :: List.map (fun m -> m.id) remaining)
      in
      match !best with
      | Some (_, bs) when bs >= score -> ()
      | _ -> best := Some (candidate :: remaining, score))
    members;
  match !best with
  | Some (swapped, score) when score > current -> Some swapped
  | _ -> None

(* Bounded discovery: each node samples [budget] distinct peers instead
   of scanning every participant — O(budget) backend queries per node,
   so a lazy space materializes only the sampled pairs.  A budget of at
   least the participant count keeps the full shuffle. *)
let sampled_candidates rng meridian_nodes budget =
  let count = Array.length meridian_nodes in
  if budget < 1 then
    invalid_arg "Overlay.build: candidate_budget must be >= 1";
  if budget >= count - 1 then None
  else begin
    let slot_of = Hashtbl.create count in
    Array.iteri (fun s id -> Hashtbl.replace slot_of id s) meridian_nodes;
    Some
      (fun node ->
        let self = Hashtbl.find slot_of node in
        let picks = Rng.sample_indices rng ~n:(count - 1) ~k:budget in
        Array.map
          (fun p -> meridian_nodes.(if p >= self then p + 1 else p))
          picks)
  end

let build ?(edge_filter = fun _ _ -> true) ?placement
    ?(selection = First_come) ?candidates ?candidate_budget rng backend cfg
    ~meridian_nodes =
  let delay = Backend.query backend in
  let candidates =
    match (candidates, candidate_budget) with
    | Some _, _ -> candidates
    | None, Some budget -> sampled_candidates rng meridian_nodes budget
    | None, None -> None
  in
  let placement =
    match placement with
    | Some f -> f
    | None -> fun _ _ delay -> [ (Ring.ring_of cfg delay, delay) ]
  in
  let count = Array.length meridian_nodes in
  let meridian_set = Hashtbl.create count in
  let slot_of = Hashtbl.create count in
  Array.iteri
    (fun s id ->
      Hashtbl.replace meridian_set id ();
      Hashtbl.replace slot_of id s)
    meridian_nodes;
  let rings = Array.init count (fun _ -> Array.make cfg.Ring.rings []) in
  let primary = Array.init count (fun _ -> Array.make cfg.Ring.rings 0) in
  let secondary = Array.init count (fun _ -> Array.make cfg.Ring.rings 0) in
  Array.iteri
    (fun s node ->
      (* Default: every other participant in random order (models an
         idealized discovery); a [candidates] hook supplies the actual
         discovered membership instead. *)
      let candidates =
        match candidates with
        | Some f -> f node
        | None ->
          let all = Array.copy meridian_nodes in
          Rng.shuffle rng all;
          all
      in
      Array.iter
        (fun peer ->
          if peer <> node && edge_filter node peer then begin
            let d = delay node peer in
            if not (Float.is_nan d) then
              List.iteri
                (fun pos (ring_idx, represented) ->
                  let r = ring_idx - 1 in
                  if r >= 0 && r < cfg.Ring.rings then begin
                    (* The first ring a member lands in uses a primary
                       slot; any additional placement (TIV-aware dual
                       placement) may only consume the ring's secondary
                       slots, so awareness adds entries without
                       displacing regular members. *)
                    if pos = 0 && primary.(s).(r) < cfg.Ring.k then begin
                      rings.(s).(r) <- { id = peer; delay = represented } :: rings.(s).(r);
                      primary.(s).(r) <- primary.(s).(r) + 1
                    end
                    else if
                      pos = 0 && selection = Diverse
                      && secondary.(s).(r) = 0 (* dual entries keep their slots *)
                    then begin
                      (* Ring full: replace a member if that increases
                         the ring's pairwise-delay diversity. *)
                      match
                        diversity_swap delay rings.(s).(r)
                          { id = peer; delay = represented }
                      with
                      | Some swapped -> rings.(s).(r) <- swapped
                      | None -> ()
                    end
                    else if secondary.(s).(r) < cfg.Ring.l then begin
                      rings.(s).(r) <- { id = peer; delay = represented } :: rings.(s).(r);
                      secondary.(s).(r) <- secondary.(s).(r) + 1
                    end
                  end)
                (placement node peer d)
          end)
        candidates)
    meridian_nodes;
  {
    config = cfg;
    meridian_nodes = Array.copy meridian_nodes;
    meridian_set;
    rings;
    slot_of;
    pending_reentry = Hashtbl.create 16;
  }

let ring_members t node i =
  assert (i >= 1 && i <= t.config.Ring.rings);
  t.rings.(slot t node).(i - 1)

let all_entries t node =
  Array.fold_left (fun acc members -> members @ acc) [] t.rings.(slot t node)

let all_members t node =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun m ->
      if Hashtbl.mem seen m.id then false
      else begin
        Hashtbl.replace seen m.id ();
        true
      end)
    (all_entries t node)

(* ------------------------------------------------------------------ *)
(* Churn-aware ring maintenance                                        *)

type repair = {
  evicted : int;
  reentered : int;
}

(* One maintenance pass through the measurement plane.

   Eviction: every live Meridian node re-probes each of its ring
   entries; entries that answer nothing are dropped from the ring and
   remembered as pending re-entry (the failure is gossiped).

   Re-entry: for every pending (host, member) pair where both ends are
   back up, the rejoining member has announced itself (gossip), so the
   host re-probes it and files it into the ring its fresh delay
   belongs to — provided that ring has a free primary slot.  A pair
   whose probe still fails stays pending for the next pass.

   All probes are charged through the engine and accounted under
   [label], so repair traffic is as honest as query traffic. *)
let repair_engine ?(label = "meridian-repair") t engine =
  let module Engine = Tivaware_measure.Engine in
  let evicted = ref 0 and reentered = ref 0 in
  Array.iteri
    (fun s node ->
      if Engine.up engine node then
        Array.iteri
          (fun r members ->
            let keep, dead =
              List.partition
                (fun m ->
                  not (Float.is_nan (Engine.rtt ~label engine node m.id)))
                members
            in
            if dead <> [] then begin
              t.rings.(s).(r) <- keep;
              evicted := !evicted + List.length dead;
              List.iter
                (fun m -> Hashtbl.replace t.pending_reentry (s, m.id) ())
                dead
            end)
          t.rings.(s))
    t.meridian_nodes;
  let pending =
    Hashtbl.fold (fun k () acc -> k :: acc) t.pending_reentry []
  in
  List.iter
    (fun ((s, id) as key) ->
      let node = t.meridian_nodes.(s) in
      if Engine.up engine node && Engine.up engine id then begin
        let d = Engine.rtt ~label engine node id in
        if not (Float.is_nan d) then begin
          let r = Ring.ring_of t.config d - 1 in
          if r >= 0 && r < t.config.Ring.rings then begin
            if List.length t.rings.(s).(r) < t.config.Ring.k then begin
              t.rings.(s).(r) <- { id; delay = d } :: t.rings.(s).(r);
              incr reentered
            end;
            (* Full ring: the member is back but there is no room; drop
               the gossip entry rather than probing it forever. *)
            Hashtbl.remove t.pending_reentry key
          end
          else Hashtbl.remove t.pending_reentry key
        end
      end)
    (List.sort compare pending);
  let module Obs = Tivaware_obs in
  let reg = Engine.obs engine in
  let labels = [ ("plane", "meridian") ] in
  Obs.Counter.add (Obs.Registry.counter reg ~labels "repair.evicted")
    (float_of_int !evicted);
  Obs.Counter.add (Obs.Registry.counter reg ~labels "repair.reentered")
    (float_of_int !reentered);
  Obs.Gauge.set (Obs.Registry.gauge reg ~labels "repair.pending")
    (float_of_int (Hashtbl.length t.pending_reentry));
  Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"repair.meridian"
    (Printf.sprintf "evicted=%d reentered=%d pending=%d" !evicted !reentered
       (Hashtbl.length t.pending_reentry));
  { evicted = !evicted; reentered = !reentered }

let pending_reentries t = Hashtbl.length t.pending_reentry

let ring_population t node =
  Array.map List.length t.rings.(slot t node)

let mean_ring_population t =
  let count = Array.length t.meridian_nodes in
  let sums = Array.make t.config.Ring.rings 0. in
  Array.iter
    (fun node ->
      Array.iteri
        (fun r members ->
          sums.(r) <- sums.(r) +. float_of_int (List.length members))
        t.rings.(slot t node))
    t.meridian_nodes;
  Array.map (fun s -> s /. float_of_int (max 1 count)) sums

module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Stats = Tivaware_util.Stats

type t = {
  ids : int array;  (* ids.(node) = identifier *)
  sorted : (int * int) array;  (* (id, node), ascending by id *)
  successors : int array;  (* successors.(node) = current successor belief *)
  successor_lists : int array array;
  (* next [r] nodes clockwise in id space — the healing candidates a
     node falls back on when its successor dies; the stabilizer
     replaces a node's list wholesale when it learns a fresher one *)
  finger_tables : int array array;  (* deduplicated finger node indices *)
  finger_at : int array array;
  (* finger_at.(node).(k) = raw finger for power offset 2^k, -1 = none;
     the per-slot view fix-fingers refreshes, from which the dedup
     routing table above is derived *)
  predecessors : int array;
  (* current predecessor belief, -1 = unknown; structural at build,
     maintained by the stabilizer's notify/check-predecessor *)
  dead : bool array;
  (* healing's shared failure belief (gossiped); all-false until a heal
     pass marks nodes, so un-healed overlays behave exactly as before *)
}

type chord = t

let size t = Array.length t.ids
let node_id t node = t.ids.(node)
let successor t node = t.successors.(node)
let successor_list t node = Array.copy t.successor_lists.(node)
let fingers t node = Array.copy t.finger_tables.(node)
let predecessor t node = t.predecessors.(node)
let believed_dead t node = t.dead.(node)

(* The one ring search: the position in [sorted] of the first id at or
   after [key], wrapping past the largest id to position 0. *)
let lower_bound sorted (key : int) =
  let n = Array.length sorted in
  let rec search lo hi =
    (* invariant: fst sorted.(i) < key for i < lo; >= key for i >= hi *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if fst sorted.(mid) < key then search (mid + 1) hi else search lo mid
    end
  in
  let pos = search 0 n in
  if pos = n then 0 else pos

let owner_of t key = snd t.sorted.(lower_bound t.sorted key)

(* First node at or after [key] not believed dead: the node that
   answers for the key once healing has routed responsibility past the
   failures.  With an all-false belief (no healing) this is [owner_of]. *)
let live_owner_of t key =
  let n = Array.length t.sorted in
  let rec walk pos steps =
    let node = snd t.sorted.(pos) in
    if steps >= n || not t.dead.(node) then node
    else walk ((pos + 1) mod n) (steps + 1)
  in
  walk (lower_bound t.sorted key) 0

(* The one finger choice, made by [build] and by the stabilizer's
   fix-fingers: slot [k] of [node] holds the node the pick rule finds
   cheapest under [cost node] ([nan] skips) among the first [limit]
   nodes of the arc [id + 2^k, id + 2^(k+1)), else the arc's first
   node; an empty arc falls back to classical Chord's successor of
   [id + 2^k].  -1 when the choice is [node] itself. *)
let choose_finger sorted ids ~limit ~cost node k =
  let n = Array.length sorted in
  let lo = Id_space.add ids.(node) (Id_space.power_offset k) in
  (* The top slot's arc would wrap the whole ring: it counts as empty. *)
  let span = if k + 1 >= Id_space.bits then 0 else Id_space.power_offset k in
  let start = lower_bound sorted lo in
  let len = ref 0 in
  while
    !len < limit && !len < n
    && Id_space.distance_cw lo (fst sorted.((start + !len) mod n)) < span
  do
    incr len
  done;
  let at i = snd sorted.((start + i) mod n) in
  let choice =
    match
      Stats.argmin_index
        (fun i ->
          let c = at i in
          if c = node then Float.nan else cost node c)
        !len
    with
    | Some (i, _) -> at i
    | None -> at 0
  in
  if choice = node then -1 else choice

(* The one liveness-belief rule, applied to every probe of [v] the heal
   pass and the stabilizer make: an answer clears the shared failure
   belief, a timed-out probe sets it (the belief is gossiped, so only
   conclusive silence may), and an unmeasurable link (missing pair) or
   a budget refusal says nothing about [v]'s liveness.  [`Revived] and
   [`Accused] report that the belief moved. *)
let believe t v = function
  | Engine.Rtt d | Engine.Cached d ->
    if t.dead.(v) then begin
      t.dead.(v) <- false;
      `Revived d
    end
    else `Alive d
  | Engine.Down | Engine.Lost ->
    if t.dead.(v) then `Dead
    else begin
      t.dead.(v) <- true;
      `Accused
    end
  | Engine.Unmeasured | Engine.Denied -> `Unknown

(* Routing's deduplicated finger table, derived from the raw per-slot
   entries: each distinct finger once, the one first seen in k-ascending
   order last, as the original build loop left them, which keeps
   refreshed tables byte-comparable to built ones.  A table holds a
   dozen or so distinct fingers, so a scan of those seen beats a hash
   set. *)
let dedup_fingers raw =
  Array.of_list
    (Array.fold_left
       (fun seen f -> if f < 0 || List.mem f seen then seen else f :: seen)
       [] raw)

let build ?(candidates = 8) ?(successor_list = 4) ?predict n =
  if n < 2 then
    invalid_arg (Printf.sprintf "Chord.build: n must be >= 2 (got %d)" n);
  if successor_list < 1 then
    invalid_arg "Chord.build: successor_list must be >= 1";
  if candidates < 1 then
    invalid_arg
      (Printf.sprintf "Chord.build: candidates must be >= 1 (got %d)" candidates);
  let ids = Array.init n Id_space.of_node in
  let sorted = Array.init n (fun node -> (ids.(node), node)) in
  Array.sort
    (fun (a, x) (b, y) -> if a <> b then Int.compare a b else Int.compare x y)
    sorted;
  let position = Array.make n 0 in
  Array.iteri (fun pos (_, node) -> position.(node) <- pos) sorted;
  let successors =
    Array.init n (fun node -> snd sorted.((position.(node) + 1) mod n))
  in
  let successor_lists =
    let r = min successor_list (n - 1) in
    Array.init n (fun node ->
        Array.init r (fun k -> snd sorted.((position.(node) + 1 + k) mod n)))
  in
  (* Plain Chord: no cost, so every arc falls back to its first node. *)
  let cost = match predict with Some p -> p | None -> fun _ _ -> Float.nan in
  (* Fill the raw per-slot view node-major, k-ascending, so an engine
     predictor sees the same probe sequence (bit-identical builds).  An
     arc [id + 2^k, id + 2^(k+1)) that ends at or before the node's
     successor holds no node, and its finger is that successor: the
     fallback [choose_finger] would reach without calling [predict].
     Some 52 of the 61 slots of a node in a 400-node ring are such
     arcs. *)
  let finger_at = Array.make_matrix n Id_space.bits (-1) in
  for node = 0 to n - 1 do
    let succ = successors.(node) in
    let gap = Id_space.distance_cw ids.(node) ids.(succ) in
    for k = 0 to Id_space.bits - 1 do
      finger_at.(node).(k) <-
        (if k + 1 < Id_space.bits && Id_space.power_offset (k + 1) <= gap then succ
         else choose_finger sorted ids ~limit:candidates ~cost node k)
    done
  done;
  let finger_tables = Array.map dedup_fingers finger_at in
  let predecessors =
    Array.init n (fun node -> snd sorted.((position.(node) + n - 1) mod n))
  in
  {
    ids;
    sorted;
    successors;
    successor_lists;
    finger_tables;
    finger_at;
    predecessors;
    dead = Array.make n false;
  }

type lookup = {
  hops : int;
  latency : float;
  route : int list;
  owner : int;
}

let lookup t backend ~source ~key =
  let n = size t in
  if source < 0 || source >= n then invalid_arg "Chord.lookup: bad source";
  let owner = live_owner_of t key in
  let hop_cost a b =
    let d = Backend.query backend a b in
    if Float.is_nan d then 0. else d
  in
  let rec route_from cur latency hops acc =
    if cur = owner then
      { hops; latency; route = List.rev acc; owner }
    else begin
      let cur_id = t.ids.(cur) in
      let succ = t.successors.(cur) in
      let succ_id = t.ids.(succ) in
      (* Owner reached next hop when the key lies in (cur, successor].
         The healed successor can sit past the owner (healing also
         skips candidates it cannot probe, e.g. unmeasurable links);
         the final handoff goes to the live owner the node knows from
         its successor list, never past it — otherwise the route would
         orbit the ring. *)
      if Id_space.between_cw cur_id key succ_id || key = succ_id then begin
        let last = if succ = owner then succ else owner in
        route_from last (latency +. hop_cost cur last) (hops + 1) (last :: acc)
      end
      else begin
        (* Closest preceding node among fingers, else the successor. *)
        let next =
          Array.fold_left
            (fun acc f ->
              let fid = t.ids.(f) in
              if (not t.dead.(f)) && Id_space.between_cw cur_id fid key then begin
                match acc with
                | Some (_, bd) when bd >= Id_space.distance_cw cur_id fid -> acc
                | _ -> Some (f, Id_space.distance_cw cur_id fid)
              end
              else acc)
            None t.finger_tables.(cur)
        in
        let next = match next with Some (f, _) -> f | None -> succ in
        route_from next (latency +. hop_cost cur next) (hops + 1) (next :: acc)
      end
    end
  in
  route_from source 0. 0 [ source ]

(* ------------------------------------------------------------------ *)
(* Successor-list healing                                              *)

type heal = {
  checked : int;
  rerouted : int;
  marked_dead : int;
  revived : int;
}

(* One healing pass: every node that is itself up probes down its
   successor list, in clockwise order, until a candidate answers; the
   first live candidate becomes its successor pointer, and every probe
   outcome updates the shared failure belief the router consults.

   Convergence: a node's immediate structural successor is always the
   first entry of its list, so a revived node is re-probed by its
   predecessor on the very next pass — belief cleared, pointer
   restored.  A dead node is discovered by its predecessor the same
   way; chains of up to [successor_list] consecutive failures are
   walked past.  All probes are charged under [label]. *)
let heal_engine ?(label = "dht-repair") t engine =
  let checked = ref 0 and rerouted = ref 0 in
  let marked = ref 0 and revived = ref 0 in
  Array.iteri
    (fun node _ ->
      if Engine.up engine node then begin
        let chosen = ref None in
        Array.iter
          (fun c ->
            if !chosen = None then begin
              incr checked;
              match believe t c (Engine.probe ~label engine node c) with
              | `Revived _ ->
                incr revived;
                chosen := Some c
              | `Alive _ -> chosen := Some c
              | `Accused -> incr marked
              | `Dead | `Unknown -> ()
            end)
          t.successor_lists.(node);
        match !chosen with
        | Some c when t.successors.(node) <> c ->
          t.successors.(node) <- c;
          incr rerouted
        | _ -> ()
      end)
    t.ids;
  let module Obs = Tivaware_obs in
  let reg = Engine.obs engine in
  let labels = [ ("plane", "chord") ] in
  List.iter
    (fun (name, v) ->
      Obs.Counter.add (Obs.Registry.counter reg ~labels name) (float_of_int v))
    [
      ("repair.checked", !checked);
      ("repair.rerouted", !rerouted);
      ("repair.marked_dead", !marked);
      ("repair.revived", !revived);
    ];
  Obs.Registry.trace_event reg ~time:(Engine.now engine) ~label:"repair.chord"
    (Printf.sprintf "checked=%d rerouted=%d marked_dead=%d revived=%d" !checked
       !rerouted !marked !revived);
  { checked = !checked; rerouted = !rerouted; marked_dead = !marked; revived = !revived }

(* ------------------------------------------------------------------ *)
(* Key ownership and replica placement                                 *)

module Store = struct
  type t = {
    chord : chord;
    keys : int array;
    replicas : int;
    index : (int, int) Hashtbl.t;  (* key id -> key index *)
    holders : int array array;  (* per key: primary first, then replicas *)
    mutable migrated : int;
    mutable rehomes : int;
  }

  (* Where a key lives right now: the live owner holds the primary
     copy, and the first [replicas] believed-live distinct entries of
     the owner's successor list hold the replicas — Chord's classical
     successor-list replication, filtered through the shared failure
     belief (a believed-dead node cannot accept a copy). *)
  let placement chord ~replicas key =
    let primary = live_owner_of chord key in
    let reps = ref [] and count = ref 0 in
    Array.iter
      (fun c ->
        if
          !count < replicas
          && c <> primary
          && (not chord.dead.(c))
          && not (List.mem c !reps)
        then begin
          reps := c :: !reps;
          incr count
        end)
      chord.successor_lists.(primary);
    Array.of_list (primary :: List.rev !reps)

  let create ?(replicas = 2) chord ~keys =
    if replicas < 0 then invalid_arg "Chord.Store.create: negative replicas";
    if Array.length keys = 0 then
      invalid_arg "Chord.Store.create: empty keyspace";
    let index = Hashtbl.create (2 * Array.length keys) in
    Array.iteri
      (fun i key ->
        if Hashtbl.mem index key then
          invalid_arg (Printf.sprintf "Chord.Store.create: duplicate key %d" key);
        Hashtbl.replace index key i)
      keys;
    let keys = Array.copy keys in
    let holders = Array.map (placement chord ~replicas) keys in
    { chord; keys; replicas; index; holders; migrated = 0; rehomes = 0 }

  let key t i = t.keys.(i)
  let primary_of t i = t.holders.(i).(0)
  let holders t i = Array.copy t.holders.(i)

  let holds t ~key ~node =
    match Hashtbl.find_opt t.index key with
    | None -> false
    | Some i -> Array.mem node t.holders.(i)

  (* Diff every key's placement against where its copies sit and move
     what changed.  Migrated volume counts copies a node newly receives
     (a dropped replica costs no transfer).  The data path is free —
     only the stabilization probes that changed the structure were
     charged — which matches the paper-world convention that we meter
     measurement, not payload. *)
  let rehome t =
    t.rehomes <- t.rehomes + 1;
    let moved = ref 0 in
    Array.iteri
      (fun i key ->
        let next = placement t.chord ~replicas:t.replicas key in
        let prev = t.holders.(i) in
        if next <> prev then begin
          Array.iter
            (fun h -> if not (Array.mem h prev) then incr moved)
            next;
          t.holders.(i) <- next
        end)
      t.keys;
    t.migrated <- t.migrated + !moved;
    !moved

  let migrated t = t.migrated
  let rehomes t = t.rehomes
end

(* ------------------------------------------------------------------ *)
(* Continuous stabilization                                            *)

module Stabilizer = struct
  module Arbiter = Tivaware_measure.Arbiter
  module Obs = Tivaware_obs
  module Sim = Tivaware_eventsim.Sim

  type config = {
    interval : float;
    fingers_per_round : int;
    candidates : int;
    label : string;
    plane : string;
  }

  let default_config =
    {
      interval = 2.;
      fingers_per_round = 1;
      candidates = 8;
      label = "chord-stabilize";
      plane = "chord_stabilize";
    }

  type totals = {
    rounds : int;
    checked : int;  (** stabilization probes issued *)
    rerouted : int;
    marked_dead : int;
    revived : int;
    denied : int;  (** probes the arbiter refused a token *)
  }

  type t = {
    chord : chord;
    engine : Engine.t;
    config : config;
    arbiter : Arbiter.t option;
    store : Store.t option;
    position : int array;  (* node -> rank in [chord.sorted] *)
    next_finger : int array;  (* per-node fix-fingers cursor *)
    mutable dry : bool;
    (* set when the arbiter refuses a token mid-round: nothing refills
       while the clock stands still, so the rest of the round's probes
       are suppressed instead of being refused one by one *)
    mutable changed : bool;
    (* did the current round change any ring state — successor,
       predecessor, list, finger, or failure belief?  Key placement
       depends on all of them, so this is the re-homing trigger. *)
    (* pre-resolved instruments, the only tally ([totals] reads them):
       chord.* series plus the repair.* family under this
       stabilizer's plane label *)
    c_rounds : Obs.Counter.t;
    c_migrated : Obs.Counter.t;
    c_checked : Obs.Counter.t;
    c_rerouted : Obs.Counter.t;
    c_marked : Obs.Counter.t;
    c_revived : Obs.Counter.t;
    c_denied : Obs.Counter.t;
  }

  let create ?(config = default_config) ?arbiter ?store chord engine =
    if Float.is_nan config.interval || config.interval <= 0. then
      invalid_arg "Chord.Stabilizer.create: interval must be positive";
    if config.fingers_per_round < 0 then
      invalid_arg "Chord.Stabilizer.create: negative fingers_per_round";
    if config.candidates < 1 then
      invalid_arg "Chord.Stabilizer.create: candidates must be >= 1";
    (match store with
    | Some s when s.Store.chord != chord ->
      invalid_arg "Chord.Stabilizer.create: store built over a different ring"
    | _ -> ());
    let n = Array.length chord.ids in
    let position = Array.make n 0 in
    Array.iteri (fun pos (_, node) -> position.(node) <- pos) chord.sorted;
    let reg = Engine.obs engine in
    let labels = [ ("plane", config.plane) ] in
    (* Register the full schema at zero up front so a stabilized run's
       summary always carries these series, probes or not. *)
    let counter ?labels name = Obs.Registry.counter reg ?labels name in
    {
      chord;
      engine;
      config;
      arbiter;
      store;
      position;
      next_finger = Array.make n 0;
      dry = false;
      changed = false;
      c_rounds = counter "chord.stabilize_rounds";
      c_migrated = counter "chord.keys_migrated";
      c_checked = counter ~labels "repair.checked";
      c_rerouted = counter ~labels "repair.rerouted";
      c_marked = counter ~labels "repair.marked_dead";
      c_revived = counter ~labels "repair.revived";
      c_denied = counter ~labels "repair.denied";
    }

  let totals t =
    let n = Obs.Counter.count in
    {
      rounds = n t.c_rounds;
      checked = n t.c_checked;
      rerouted = n t.c_rerouted;
      marked_dead = n t.c_marked;
      revived = n t.c_revived;
      denied = n t.c_denied;
    }

  (* One arbitrated liveness/RTT probe, its outcome passed through
     [believe].  [`Skipped] means the arbiter refused the token and the
     probe was never issued; the first refusal marks the round dry (one
     denial counted, the rest of the round suppressed — a carve cannot
     refill mid-round). *)
  let probe t u v =
    let admitted =
      (not t.dry)
      &&
      match t.arbiter with
      | None -> true
      | Some a -> Arbiter.admit a ~now:(Engine.now t.engine) t.config.plane
    in
    if not admitted then begin
      if not t.dry then begin
        t.dry <- true;
        Obs.Counter.incr t.c_denied
      end;
      `Skipped
    end
    else begin
      Obs.Counter.incr t.c_checked;
      match believe t.chord v (Engine.probe ~label:t.config.label t.engine u v) with
      | `Revived d ->
        t.changed <- true;
        Obs.Counter.incr t.c_revived;
        `Alive d
      | `Accused ->
        t.changed <- true;
        Obs.Counter.incr t.c_marked;
        `Dead
      | (`Alive _ | `Dead | `Unknown) as seen -> seen
    end

  (* Refresh finger slot [k] of node [u] with the build's choice, its
     cost a probe, so on a fault-free engine a refresh reproduces the
     built entry exactly (structural inertness without churn). *)
  let refresh_finger t u k =
    let chord = t.chord in
    let entry =
      choose_finger chord.sorted chord.ids ~limit:t.config.candidates u k
        ~cost:(fun u c ->
          match probe t u c with
          | `Alive p -> p
          | `Dead | `Unknown | `Skipped -> Float.nan)
    in
    if chord.finger_at.(u).(k) <> entry then begin
      chord.finger_at.(u).(k) <- entry;
      chord.finger_tables.(u) <- dedup_fingers chord.finger_at.(u);
      t.changed <- true
    end

  (* One stabilization round of node [u]: check-predecessor, stabilize
     (first live successor, with the pred-of-successor improvement and
     a structural ring walk as last resort), successor-list refresh
     riding on the stabilize exchange, notify, fix-fingers, and key
     re-homing when anything moved. *)
  let round t u =
    if Engine.up t.engine u then begin
      let chord = t.chord in
      let n = Array.length chord.ids in
      t.dry <- false;
      t.changed <- false;
      Obs.Counter.incr t.c_rounds;
      (* 1. check-predecessor: a silent predecessor is forgotten so a
         later notify can fill the slot. *)
      let p = chord.predecessors.(u) in
      if p >= 0 && p <> u then begin
        match probe t u p with
        | `Dead ->
          chord.predecessors.(u) <- -1;
          t.changed <- true
        | `Alive _ | `Unknown | `Skipped -> ()
      end;
      (* 2. stabilize: first candidate that answers, walking the
         current successor list, then (all silent) the ring itself. *)
      let chosen = ref None in
      Array.iter
        (fun c ->
          if !chosen = None && c <> u then
            match probe t u c with `Alive _ -> chosen := Some c | _ -> ())
        chord.successor_lists.(u);
      if !chosen = None then begin
        let steps = ref 1 in
        while !chosen = None && !steps < n do
          let c = snd chord.sorted.((t.position.(u) + !steps) mod n) in
          if c <> u then begin
            match probe t u c with `Alive _ -> chosen := Some c | _ -> ()
          end;
          incr steps
        done
      end;
      (match !chosen with
      | None -> ()  (* nobody answered; keep the structure as is *)
      | Some first_live ->
        (* Ask the successor for its predecessor: a live node strictly
           between us is the fresher successor (Chord's stabilize). *)
        let s = ref first_live in
        let sp = chord.predecessors.(!s) in
        if
          sp >= 0 && sp <> u && sp <> !s
          && Id_space.between_cw chord.ids.(u) chord.ids.(sp) chord.ids.(!s)
        then begin
          match probe t u sp with `Alive _ -> s := sp | _ -> ()
        end;
        let s = !s in
        if chord.successors.(u) <> s then begin
          chord.successors.(u) <- s;
          t.changed <- true;
          Obs.Counter.incr t.c_rerouted
        end;
        (* Successor-list refresh rides on the stabilize exchange (no
           extra probe): our list becomes s followed by s's list. *)
        let r = Array.length chord.successor_lists.(u) in
        if r > 0 then begin
          let out = ref [ s ] and count = ref 1 in
          let absorb c =
            if !count < r && c <> u && not (List.mem c !out) then begin
              out := c :: !out;
              incr count
            end
          in
          Array.iter absorb chord.successor_lists.(s);
          (* pad from the old list so knowledge never shrinks *)
          Array.iter absorb chord.successor_lists.(u);
          let fresh = Array.of_list (List.rev !out) in
          if fresh <> chord.successor_lists.(u) then begin
            chord.successor_lists.(u) <- fresh;
            t.changed <- true
          end
        end;
        (* 3. notify: we believe we are s's predecessor; s adopts us
           when its slot is empty, stale-dead, or we sit closer. *)
        let sp = chord.predecessors.(s) in
        if
          sp <> u
          && (sp < 0 || chord.dead.(sp)
             || Id_space.between_cw chord.ids.(sp) chord.ids.(u) chord.ids.(s))
        then begin
          chord.predecessors.(s) <- u;
          t.changed <- true
        end);
      (* 4. fix-fingers: refresh the next slots of the cursor. *)
      for _ = 1 to min t.config.fingers_per_round Id_space.bits do
        let k = t.next_finger.(u) in
        t.next_finger.(u) <- (k + 1) mod Id_space.bits;
        refresh_finger t u k
      done;
      (* 5. key re-homing, only when this round moved anything — an
         unchanged ring migrates nothing. *)
      if t.changed then begin
        match t.store with
        | None -> ()
        | Some store ->
          let moved = Store.rehome store in
          if moved > 0 then Obs.Counter.add t.c_migrated (float_of_int moved)
      end
    end

  (* Recurring schedule: node u's first round fires at
     interval * (u+1) / n, then every interval — the stagger spreads
     maintenance over the period instead of bursting all n rounds on
     one timestamp, and is deterministic in (n, interval). *)
  let schedule t sim =
    Sim.on_advance sim (fun time -> Engine.advance_to t.engine time);
    let n = Array.length t.chord.ids in
    let interval = t.config.interval in
    for u = 0 to n - 1 do
      let start = interval *. float_of_int (u + 1) /. float_of_int n in
      Sim.schedule_every sim ~start ~every:interval (fun () ->
          round t u;
          true)
    done
end
